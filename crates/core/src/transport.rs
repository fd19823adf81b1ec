//! Plugging the proxy into the federated round loop.

use crate::codec::CompressionConfig;
use crate::{codec, MixingStrategy, MixnnProxy, ParallelIngest, ProxyError};
use mixnn_crypto::SealedBox;
use mixnn_nn::ModelParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whether the transport exercises the full cryptographic pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Participants seal updates to the enclave key; the proxy decrypts
    /// inside the enclave (full §4 pipeline — what the §6.5 benches
    /// measure).
    Encrypted,
    /// Updates enter the proxy unencrypted. Mixing semantics are
    /// identical; use for large parameter sweeps where sealing every
    /// update would dominate runtime without affecting the result.
    Plaintext,
}

/// Routes each round's updates through a [`MixnnProxy`].
///
/// In the federated loop this serves as an `UpdateTransport` (the trait
/// impl lives in `mixnn_fl`, which depends on this crate): the observed
/// updates keep the **slot ids** of the incoming ones (the server still
/// sees one connection per participant slot); their *contents* are the
/// mixed updates. With batch mixing this is exactly the paper's
/// deployment: the server receives C updates it cannot attribute.
///
/// # Example
///
/// ```
/// use mixnn_core::{MixnnProxy, MixnnProxyConfig, MixnnTransport, TransportMode};
/// use mixnn_enclave::AttestationService;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let service = AttestationService::new(&mut rng);
/// let proxy = MixnnProxy::launch(MixnnProxyConfig::default(), &service, &mut rng);
/// let transport = MixnnTransport::new(proxy, TransportMode::Encrypted, 1);
/// assert!(transport.proxy().stats().updates_received == 0);
/// ```
#[derive(Debug)]
pub struct MixnnTransport {
    proxy: MixnnProxy,
    mode: TransportMode,
    compression: CompressionConfig,
    /// RNG standing in for the participants' sealing entropy.
    participant_rng: StdRng,
}

impl MixnnTransport {
    /// Wraps a launched proxy.
    pub fn new(proxy: MixnnProxy, mode: TransportMode, seed: u64) -> Self {
        MixnnTransport {
            proxy,
            mode,
            compression: CompressionConfig::F32,
            participant_rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sets the wire compression participants encode with before sealing.
    /// Round-wide, like the mixing strategy: every participant of a round
    /// must share it or envelope sizes become a fingerprint.
    #[must_use]
    pub fn with_compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// The wire compression this transport seals with.
    pub fn compression(&self) -> CompressionConfig {
        self.compression
    }

    /// Access to the proxy (stats, memory, last plan).
    pub fn proxy(&self) -> &MixnnProxy {
        &self.proxy
    }

    /// The configured mode.
    pub fn mode(&self) -> TransportMode {
        self.mode
    }

    /// Runs one proxy round over plain parameters, returning the mixed
    /// updates in slot order — the transport core `mixnn_fl`'s
    /// `UpdateTransport` impl (and any other caller) builds on.
    ///
    /// # Errors
    ///
    /// Propagates the proxy's rejection of any update in the round.
    pub fn relay_round(
        &mut self,
        params: Vec<ModelParams>,
    ) -> Result<Vec<ModelParams>, ProxyError> {
        let mixed: Vec<ModelParams> = match self.mode {
            TransportMode::Plaintext => self.proxy.mix_plaintext_round(params)?,
            TransportMode::Encrypted => {
                // One RNG stands in for all participants' entropy: the
                // round's ephemeral keys derive in one batch, drawn in
                // slot order, so the envelopes equal slot-by-slot `seal`
                // calls. Ingest fans out across the proxy's configured
                // worker count, with the store stage committed in
                // submission order — same result as the sequential loop
                // at every worker count.
                let recipients = vec![*self.proxy.public_key(); params.len()];
                let sealed: Vec<Vec<u8>> =
                    SealedBox::ephemerals(&recipients, &mut self.participant_rng)
                        .expect("attested enclave keys are never low-order")
                        .into_iter()
                        .zip(&params)
                        .map(|(eph, p)| eph.seal(&codec::encode_params_with(p, self.compression)))
                        .collect();
                let ingest = ParallelIngest::from_parallelism(self.proxy.parallelism());
                let mut streamed = Vec::new();
                for result in ingest.submit_all(&mut self.proxy, &sealed) {
                    if let Some(out) = result? {
                        streamed.push(out);
                    }
                }
                match self.proxy.strategy() {
                    MixingStrategy::Batch => self.proxy.mix_batch()?,
                    MixingStrategy::Streaming { .. } => {
                        // Within a round the proxy drains its lists so the
                        // server aggregates exactly C updates (L = C).
                        streamed.extend(self.proxy.flush()?);
                        streamed
                    }
                }
            }
        };

        Ok(mixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MixnnProxyConfig;
    use mixnn_enclave::AttestationService;
    use mixnn_nn::LayerParams;

    // Slot preservation and the `UpdateTransport` impl itself are covered
    // in `mixnn_fl::transport` (which hosts the impl); these tests pin the
    // round core.

    fn updates(c: usize) -> Vec<ModelParams> {
        (0..c)
            .map(|i| {
                ModelParams::from_layers(vec![
                    LayerParams::from_values(vec![i as f32; 2]),
                    LayerParams::from_values(vec![-(i as f32); 3]),
                ])
            })
            .collect()
    }

    fn transport(strategy: MixingStrategy, mode: TransportMode) -> MixnnTransport {
        let mut rng = StdRng::seed_from_u64(5);
        let service = AttestationService::new(&mut rng);
        let proxy = MixnnProxy::launch(
            MixnnProxyConfig {
                strategy,
                expected_signature: vec![2, 3],
                seed: 3,
                ..MixnnProxyConfig::default()
            },
            &service,
            &mut rng,
        );
        MixnnTransport::new(proxy, mode, 77)
    }

    #[test]
    fn encrypted_batch_preserves_aggregate_and_count() {
        let mut t = transport(MixingStrategy::Batch, TransportMode::Encrypted);
        let ins = updates(6);
        let outs = t.relay_round(ins.clone()).unwrap();
        assert_eq!(outs.len(), 6);
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&outs));
    }

    #[test]
    fn plaintext_mode_matches_aggregate_too() {
        let mut t = transport(MixingStrategy::Batch, TransportMode::Plaintext);
        let ins = updates(5);
        let outs = t.relay_round(ins.clone()).unwrap();
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&outs));
    }

    #[test]
    fn streaming_round_conserves_count() {
        let mut t = transport(MixingStrategy::Streaming { k: 2 }, TransportMode::Encrypted);
        let ins = updates(7);
        let outs = t.relay_round(ins.clone()).unwrap();
        assert_eq!(outs.len(), 7);
        // Multiset conservation implies the mean is preserved.
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&outs));
    }

    #[test]
    fn updates_are_actually_mixed() {
        let mut t = transport(MixingStrategy::Batch, TransportMode::Encrypted);
        let ins = updates(8);
        let outs = t.relay_round(ins.clone()).unwrap();
        let changed = ins.iter().zip(&outs).filter(|(a, b)| a != b).count();
        assert!(changed > 0, "no update changed content after mixing");
    }
}
