//! The onion wire format of the cascade.
//!
//! A participant splits its model update into per-layer blobs and wraps
//! **each layer separately** in one [`SealedBox`] envelope per hop,
//! innermost for the last proxy of the chain:
//!
//! ```text
//! layer l plaintext:   codec::encode_layer(values_l)
//! sealed for hop n-1:  seal(plaintext, k_{n-1})
//! sealed for hop n-2:  seal(seal(plaintext, k_{n-1}), k_{n-2})
//! …
//! on the wire:         seal(… seal(plaintext, k_{n-1}) …, k_0)
//! ```
//!
//! Hop `i` opens exactly one envelope per layer and sees only the next
//! envelope — ciphertext it cannot read — so it learns which *slots* it
//! shuffles but never the layer contents. Only the last hop uncovers
//! plaintext layers, and by then every earlier hop has re-assigned the
//! (client, layer) pairs.
//!
//! Each message (one client's update at one position in the chain) is
//! framed as:
//!
//! ```text
//! magic          u32  = 0x4d495843 ("MIXC")
//! version        u8   = 1
//! hops_remaining u8        // sealed envelopes left on every layer
//! layers         u32
//! repeat layers times:
//!     len   u32
//!     data  len bytes      // sealed blob (or plaintext when 0 hops left)
//! ```

use crate::CascadeError;
use bytes::{Buf, BufMut};
use mixnn_core::codec;
use mixnn_core::codec::CompressionConfig;
use mixnn_crypto::{PublicKey, SealedBox};
use mixnn_nn::ModelParams;
use rand::Rng;

/// Onion framing magic: `"MIXC"` as a big-endian u32.
pub const MAGIC: u32 = 0x4d49_5843;
/// Current onion framing version.
pub const VERSION: u8 = 1;

/// One client's update at one position in the chain: a per-layer vector of
/// blobs, each still wrapped in `hops_remaining` sealed envelopes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnionUpdate {
    hops_remaining: u8,
    layers: Vec<Vec<u8>>,
}

impl OnionUpdate {
    /// Builds a fresh onion for `params`, sealed to the given chain of hop
    /// keys (first key = first hop to receive the message).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Seal`] if any hop key is low-order — sealing
    /// to it would yield an attacker-predictable envelope key.
    ///
    /// # Panics
    ///
    /// Panics if `hop_keys` is empty or longer than 255 hops — a
    /// configuration bug, not a runtime condition.
    pub fn build<R: Rng + ?Sized>(
        params: &ModelParams,
        hop_keys: &[PublicKey],
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        Self::build_with(params, hop_keys, CompressionConfig::F32, rng)
    }

    /// [`OnionUpdate::build`] with an explicit wire compression mode for
    /// the innermost layer plaintext.
    ///
    /// The compressed frame lengths are signature-derived
    /// (`codec::encoded_layer_len_with`), so two onions built for the same
    /// model signature and chain length are byte-length-identical layer by
    /// layer — compression never becomes a client fingerprint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OnionUpdate::build`].
    pub fn build_with<R: Rng + ?Sized>(
        params: &ModelParams,
        hop_keys: &[PublicKey],
        compression: CompressionConfig,
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        let [onion]: [OnionUpdate; 1] = Self::build_many([params], hop_keys, compression, rng)?
            .try_into()
            .expect("one onion per update");
        Ok(onion)
    }

    /// Builds one onion per update over the same chain, deriving every
    /// envelope's ephemeral key in a single batch.
    ///
    /// An onion's envelopes do not depend on one another's ciphertext, so
    /// the asymmetric half of all updates × layers × hops seals runs first
    /// ([`SealedBox::ephemerals`]), then each layer's envelopes nest with
    /// the symmetric half alone. The ephemeral secrets are drawn in the
    /// order sequential building draws them — update by update, layer by
    /// layer, innermost hop first — so the onions, and the `rng` position
    /// afterwards, equal those of calling [`OnionUpdate::build_with`] per
    /// update.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OnionUpdate::build`]. Every ephemeral of the
    /// batch is drawn before a low-order key is reported, so the `rng`
    /// position after an error is unspecified.
    ///
    /// # Panics
    ///
    /// Same conditions as [`OnionUpdate::build`].
    pub fn build_many<'a, R: Rng + ?Sized>(
        updates: impl IntoIterator<Item = &'a ModelParams>,
        hop_keys: &[PublicKey],
        compression: CompressionConfig,
        rng: &mut R,
    ) -> Result<Vec<Self>, CascadeError> {
        assert!(!hop_keys.is_empty(), "onion needs at least one hop key");
        assert!(hop_keys.len() <= u8::MAX as usize, "chain too long");
        let updates: Vec<&ModelParams> = updates.into_iter().collect();
        let recipients: Vec<PublicKey> = updates
            .iter()
            .flat_map(|params| params.iter())
            .flat_map(|_| hop_keys.iter().rev().copied())
            .collect();
        let mut ephemerals = SealedBox::ephemerals(&recipients, rng)
            .map_err(|source| CascadeError::Seal { source })?
            .into_iter();
        Ok(updates
            .into_iter()
            .map(|params| OnionUpdate {
                hops_remaining: hop_keys.len() as u8,
                layers: params
                    .iter()
                    .map(|layer| {
                        let plaintext = codec::encode_layer_with(layer, compression);
                        ephemerals
                            .by_ref()
                            .take(hop_keys.len())
                            .fold(plaintext, |blob, eph| eph.seal(&blob))
                    })
                    .collect(),
            })
            .collect())
    }

    /// Reassembles an onion from already-processed parts (a hop re-framing
    /// the blobs it just unwrapped and mixed).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty — every model has at least one layer.
    pub fn from_parts(hops_remaining: u8, layers: Vec<Vec<u8>>) -> Self {
        assert!(!layers.is_empty(), "onion must carry at least one layer");
        OnionUpdate {
            hops_remaining,
            layers,
        }
    }

    /// Sealed envelopes left on every layer blob.
    pub fn hops_remaining(&self) -> u8 {
        self.hops_remaining
    }

    /// Number of per-layer blobs.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The per-layer blobs.
    pub fn layers(&self) -> &[Vec<u8>] {
        &self.layers
    }

    /// Consumes the onion into its per-layer blobs.
    pub fn into_layers(self) -> Vec<Vec<u8>> {
        self.layers
    }

    /// Serializes the onion for transmission to the next hop.
    pub fn encode(&self) -> Vec<u8> {
        let payload: usize = self.layers.iter().map(|l| 4 + l.len()).sum();
        let mut out = Vec::with_capacity(10 + payload);
        out.put_u32(MAGIC);
        out.put_u8(VERSION);
        out.put_u8(self.hops_remaining);
        out.put_u32(self.layers.len() as u32);
        for blob in &self.layers {
            out.put_u32(blob.len() as u32);
            out.put_slice(blob);
        }
        out
    }

    /// Decodes an onion message from the wire.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Onion`] on truncation, bad magic, unknown
    /// version, implausible layer counts or trailing garbage.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, CascadeError> {
        let fail = |reason: &str| CascadeError::Onion {
            reason: reason.to_string(),
        };
        if bytes.remaining() < 10 {
            return Err(fail("header truncated"));
        }
        if bytes.get_u32() != MAGIC {
            return Err(fail("bad magic"));
        }
        let version = bytes.get_u8();
        if version != VERSION {
            return Err(CascadeError::Onion {
                reason: format!("unsupported version {version}"),
            });
        }
        let hops_remaining = bytes.get_u8();
        let layer_count = bytes.get_u32() as usize;
        if layer_count == 0 {
            return Err(fail("zero layers"));
        }
        // Sanity bound: each declared layer needs at least its length
        // header.
        if layer_count > bytes.remaining() / 4 + 1 {
            return Err(fail("implausible layer count"));
        }
        let mut layers = Vec::with_capacity(layer_count);
        for _ in 0..layer_count {
            if bytes.remaining() < 4 {
                return Err(fail("layer header truncated"));
            }
            let len = bytes.get_u32() as usize;
            if bytes.remaining() < len {
                return Err(fail("layer blob truncated"));
            }
            let mut blob = vec![0u8; len];
            bytes.copy_to_slice(&mut blob);
            layers.push(blob);
        }
        if bytes.has_remaining() {
            return Err(fail("trailing bytes after last layer"));
        }
        Ok(OnionUpdate {
            hops_remaining,
            layers,
        })
    }

    /// Interprets a fully unwrapped onion (`hops_remaining == 0`) as model
    /// parameters and validates the layer signature — what the aggregation
    /// server does with the last hop's output.
    ///
    /// The signature check runs on the frames' **declared** headers before
    /// any layer is decoded: a crafted frame naming a parameter count the
    /// round's signature never authorized is rejected without allocating
    /// a value buffer for it (the codec's `*_expecting` decoders re-check
    /// per layer).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Onion`] if envelopes remain or a layer fails
    /// to decode, and [`CascadeError::SignatureMismatch`] if the declared
    /// signature differs from `expected_signature`.
    pub fn into_params(self, expected_signature: &[usize]) -> Result<ModelParams, CascadeError> {
        if self.hops_remaining != 0 {
            return Err(CascadeError::Onion {
                reason: format!(
                    "{} sealed envelope(s) still wrap the layers",
                    self.hops_remaining
                ),
            });
        }
        let layer_err = |e: mixnn_core::ProxyError| CascadeError::Onion {
            reason: format!("inner layer plaintext: {e}"),
        };
        let mut declared = Vec::with_capacity(self.layers.len());
        for blob in &self.layers {
            declared.push(codec::declared_layer_len(blob).map_err(layer_err)?);
        }
        if declared != expected_signature {
            return Err(CascadeError::SignatureMismatch {
                expected: expected_signature.to_vec(),
                actual: declared,
            });
        }
        let mut layers = Vec::with_capacity(self.layers.len());
        for (blob, &len) in self.layers.iter().zip(expected_signature) {
            layers.push(codec::decode_layer_expecting(blob, len).map_err(layer_err)?);
        }
        Ok(ModelParams::from_layers(layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_crypto::KeyPair;
    use mixnn_nn::LayerParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> ModelParams {
        ModelParams::from_layers(vec![
            LayerParams::from_values(vec![1.0, -2.5, 3.25]),
            LayerParams::from_values(vec![0.5]),
        ])
    }

    #[test]
    fn onion_peels_hop_by_hop_to_the_original_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let keys: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        let publics: Vec<PublicKey> = keys.iter().map(|k| *k.public()).collect();
        let p = params();
        let onion = OnionUpdate::build(&p, &publics, &mut rng).unwrap();
        assert_eq!(onion.hops_remaining(), 3);
        assert_eq!(onion.num_layers(), 2);

        let mut layers = onion.into_layers();
        for kp in &keys {
            layers = layers
                .iter()
                .map(|blob| SealedBox::open(blob, kp).expect("envelope addressed to this hop"))
                .collect();
        }
        let unwrapped = OnionUpdate::from_parts(0, layers);
        assert_eq!(unwrapped.into_params(&p.signature()).unwrap(), p);
    }

    #[test]
    fn wrong_hop_order_cannot_open() {
        let mut rng = StdRng::seed_from_u64(2);
        let keys: Vec<KeyPair> = (0..2).map(|_| KeyPair::generate(&mut rng)).collect();
        let publics: Vec<PublicKey> = keys.iter().map(|k| *k.public()).collect();
        let onion = OnionUpdate::build(&params(), &publics, &mut rng).unwrap();
        // The second hop's key cannot open the outermost envelope.
        assert!(SealedBox::open(&onion.layers()[0], &keys[1]).is_err());
    }

    #[test]
    fn wire_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let kp = KeyPair::generate(&mut rng);
        let onion = OnionUpdate::build(&params(), &[*kp.public()], &mut rng).unwrap();
        let decoded = OnionUpdate::decode(&onion.encode()).unwrap();
        assert_eq!(decoded, onion);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let kp = KeyPair::generate(&mut rng);
        let bytes = OnionUpdate::build(&params(), &[*kp.public()], &mut rng)
            .unwrap()
            .encode();
        for cut in 0..bytes.len() {
            assert!(
                OnionUpdate::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn bad_magic_version_and_trailing_are_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = KeyPair::generate(&mut rng);
        let good = OnionUpdate::build(&params(), &[*kp.public()], &mut rng)
            .unwrap()
            .encode();

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(OnionUpdate::decode(&bad).is_err());

        let mut bad = good.clone();
        bad[4] = 9; // version
        assert!(OnionUpdate::decode(&bad)
            .unwrap_err()
            .to_string()
            .contains("version 9"));

        let mut bad = good.clone();
        bad.push(0);
        assert!(OnionUpdate::decode(&bad)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }

    #[test]
    fn implausible_layer_count_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.put_u32(MAGIC);
        bytes.put_u8(VERSION);
        bytes.put_u8(1);
        bytes.put_u32(u32::MAX);
        assert!(OnionUpdate::decode(&bytes)
            .unwrap_err()
            .to_string()
            .contains("implausible"));
    }

    #[test]
    fn compressed_onion_peels_to_the_canonical_decode() {
        let mut rng = StdRng::seed_from_u64(7);
        let keys: Vec<KeyPair> = (0..2).map(|_| KeyPair::generate(&mut rng)).collect();
        let publics: Vec<PublicKey> = keys.iter().map(|k| *k.public()).collect();
        let p = params();
        for mode in [CompressionConfig::Int8, CompressionConfig::int8_top_k()] {
            let onion = OnionUpdate::build_with(&p, &publics, mode, &mut rng).unwrap();
            let mut layers = onion.into_layers();
            for kp in &keys {
                layers = layers
                    .iter()
                    .map(|blob| SealedBox::open(blob, kp).unwrap())
                    .collect();
            }
            let decoded = OnionUpdate::from_parts(0, layers)
                .into_params(&p.signature())
                .unwrap();
            // The server recovers exactly the canonical post-wire values.
            assert_eq!(
                decoded,
                codec::canonical_params(&p, mode),
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn compressed_onions_are_length_identical_across_contents() {
        // Same signature, different values -> every layer blob (and the
        // whole framed message) is byte-length-identical. This is the
        // unlinkability requirement the v2 codec exists to preserve.
        let mut rng = StdRng::seed_from_u64(8);
        let keys: Vec<PublicKey> = (0..3)
            .map(|_| *KeyPair::generate(&mut rng).public())
            .collect();
        let a = params();
        let b = ModelParams::from_layers(vec![
            LayerParams::from_values(vec![f32::NAN, 1e30, -1e-30]),
            LayerParams::from_values(vec![0.0]),
        ]);
        for mode in [
            CompressionConfig::F32,
            CompressionConfig::Int8,
            CompressionConfig::int8_top_k(),
        ] {
            let oa = OnionUpdate::build_with(&a, &keys, mode, &mut rng).unwrap();
            let ob = OnionUpdate::build_with(&b, &keys, mode, &mut rng).unwrap();
            for (la, lb) in oa.layers().iter().zip(ob.layers()) {
                assert_eq!(la.len(), lb.len(), "{}", mode.name());
            }
            assert_eq!(oa.encode().len(), ob.encode().len(), "{}", mode.name());
        }
    }

    #[test]
    fn build_many_matches_building_one_by_one() {
        let mut rng = StdRng::seed_from_u64(9);
        let keys: Vec<PublicKey> = (0..3)
            .map(|_| *KeyPair::generate(&mut rng).public())
            .collect();
        let updates: Vec<ModelParams> = (0..5)
            .map(|i| {
                ModelParams::from_layers(vec![
                    LayerParams::from_values(vec![i as f32; 3]),
                    LayerParams::from_values(vec![-(i as f32); 7]),
                ])
            })
            .collect();
        for mode in [CompressionConfig::F32, CompressionConfig::int8_top_k()] {
            let mut one_rng = rng.clone();
            let batched = OnionUpdate::build_many(&updates, &keys, mode, &mut rng).unwrap();
            let one_by_one: Vec<OnionUpdate> = updates
                .iter()
                .map(|p| OnionUpdate::build_with(p, &keys, mode, &mut one_rng).unwrap())
                .collect();
            assert_eq!(batched, one_by_one, "{}", mode.name());
            assert_eq!(rng, one_rng, "{}", mode.name());
        }
        assert!(
            OnionUpdate::build_many([], &keys, CompressionConfig::F32, &mut rng)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn low_order_hop_key_fails_the_build() {
        let mut rng = StdRng::seed_from_u64(10);
        let good = *KeyPair::generate(&mut rng).public();
        let bad = PublicKey::from_bytes([0u8; 32]);
        for chain in [vec![bad], vec![good, bad], vec![bad, good]] {
            assert!(matches!(
                OnionUpdate::build(&params(), &chain, &mut rng),
                Err(CascadeError::Seal { .. })
            ));
        }
    }

    #[test]
    fn into_params_refuses_wrapped_layers_and_foreign_signatures() {
        let mut rng = StdRng::seed_from_u64(6);
        let kp = KeyPair::generate(&mut rng);
        let p = params();
        let wrapped = OnionUpdate::build(&p, &[*kp.public()], &mut rng).unwrap();
        assert!(matches!(
            wrapped.clone().into_params(&p.signature()),
            Err(CascadeError::Onion { .. })
        ));

        let plain =
            OnionUpdate::from_parts(0, p.iter().map(mixnn_core::codec::encode_layer).collect());
        assert!(matches!(
            plain.into_params(&[9, 9]),
            Err(CascadeError::SignatureMismatch { .. })
        ));
    }
}
