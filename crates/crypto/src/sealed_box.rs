//! Sealed-box hybrid public-key encryption.
//!
//! This is the wire format participants use to encrypt model updates to the
//! MixNN enclave (§4.1: *"they are encrypted with the public key of the
//! enclave to ensure that only the MixNN proxy is able to read and process
//! them"*). Construction:
//!
//! 1. sender generates an ephemeral X25519 key pair;
//! 2. `shared = X25519(ephemeral_secret, recipient_public)`;
//! 3. `key material = HKDF(salt = eph_pub ‖ recipient_pub, ikm = shared)`,
//!    split into a ChaCha20 key, a nonce and an HMAC key;
//! 4. ciphertext = ChaCha20(plaintext), tag = HMAC-SHA256 over
//!    `eph_pub ‖ ciphertext` (encrypt-then-MAC).
//!
//! Wire layout: `eph_pub (32) ‖ tag (32) ‖ ciphertext`.
//!
//! Three properties worth calling out:
//!
//! * **Contributory behavior** (RFC 7748 §6.1): a low-order peer point
//!   makes the X25519 output all-zero, and every key above would be
//!   attacker-predictable. Sealing ([`SealedBox::ephemerals`], and so
//!   [`SealedBox::seal`]) and [`SealedBox::open`] reject the all-zero
//!   shared secret with [`CryptoError::LowOrderPoint`].
//! * **Batched sealing**: sealing runs in two phases. Steps 1–2 for a
//!   whole batch happen in [`SealedBox::ephemerals`]: it draws one 32-byte
//!   ephemeral secret per recipient from the RNG, in input order — exactly
//!   the draws [`KeyPair::generate`] makes — and then runs every keygen
//!   (against the base point) and every DH as one
//!   [`x25519::x25519_many`] call. Steps 3–4 happen in
//!   [`Ephemeral::seal`], which consumes its ephemeral so no key/nonce
//!   pair can encrypt twice. [`SealedBox::seal`] is the batch of one, so
//!   batched and one-at-a-time sealing draw the same randomness and emit
//!   the same bytes.
//! * **Batched opening**: [`SealedBox::open_batch`] opens many envelopes
//!   addressed to one recipient, sharing the X25519 bit schedule and the
//!   final field inversion across the batch ([`x25519::x25519_batch`]).
//!   Results are bit-identical to per-envelope [`SealedBox::open`].

use crate::chacha20;
use crate::hmac::{hkdf_expand_keyed, hkdf_extract, HmacKey};
use crate::x25519;
use crate::CryptoError;
use rand::Rng;
use std::fmt;

/// An X25519 public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey([u8; 32]);

impl PublicKey {
    /// Wraps raw public-key bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        PublicKey(bytes)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// An X25519 secret key. The `Debug` impl redacts the key material.
#[derive(Clone)]
pub struct SecretKey([u8; 32]);

impl SecretKey {
    /// Wraps raw secret-key bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        SecretKey(bytes)
    }

    /// The raw bytes. Handle with care.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey(redacted)")
    }
}

/// An X25519 key pair, as held by the MixNN enclave (`k_pub`, `k_priv` in
/// the paper's notation).
#[derive(Debug, Clone)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Generates a key pair from the given RNG.
    ///
    /// # Example
    ///
    /// ```
    /// use mixnn_crypto::KeyPair;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let kp = KeyPair::generate(&mut StdRng::seed_from_u64(1));
    /// assert_ne!(kp.public().as_bytes(), &[0u8; 32]);
    /// ```
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut secret = [0u8; 32];
        rng.fill(&mut secret);
        Self::from_secret(SecretKey::from_bytes(secret))
    }

    /// Builds the key pair for an existing secret.
    pub fn from_secret(secret: SecretKey) -> Self {
        let public = PublicKey(x25519::public_key(secret.as_bytes()));
        KeyPair { secret, public }
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The secret half.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }
}

/// Byte overhead of a sealed box over its plaintext.
pub const OVERHEAD: usize = 64;

const INFO_KEY: &[u8] = b"mixnn sealed box v1 key";
const INFO_NONCE: &[u8] = b"mixnn sealed box v1 nonce";
const INFO_MAC: &[u8] = b"mixnn sealed box v1 mac";

/// Sealed-box encryption to a recipient public key.
///
/// Stateless namespace struct; see the module docs for the construction.
///
/// # Example
///
/// ```
/// use mixnn_crypto::{KeyPair, SealedBox};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_crypto::CryptoError> {
/// let mut rng = StdRng::seed_from_u64(7);
/// let enclave = KeyPair::generate(&mut rng);
/// let boxed = SealedBox::seal(b"model update", enclave.public(), &mut rng)?;
/// let plain = SealedBox::open(&boxed, &enclave)?;
/// assert_eq!(plain, b"model update");
///
/// // A batch: derive every ephemeral first, then seal each message.
/// let messages: [&[u8]; 2] = [b"layer 0", b"layer 1"];
/// let ephemerals = SealedBox::ephemerals(&[*enclave.public(); 2], &mut rng)?;
/// let boxes: Vec<Vec<u8>> = ephemerals
///     .into_iter()
///     .zip(messages)
///     .map(|(eph, msg)| eph.seal(msg))
///     .collect();
/// assert_eq!(SealedBox::open(&boxes[1], &enclave)?, b"layer 1");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SealedBox;

struct DerivedKeys {
    cipher_key: [u8; 32],
    nonce: [u8; 12],
    mac_key: [u8; 32],
}

/// The ephemeral half of one sealed box, derived ahead of its plaintext by
/// [`SealedBox::ephemerals`]: the ephemeral public key, the recipient,
/// and their X25519 shared secret.
///
/// [`Ephemeral::seal`] consumes it, so one ephemeral can never encrypt
/// two messages under the same key and nonce. It carries a shared secret,
/// so the `Debug` impl redacts it.
pub struct Ephemeral {
    public: [u8; 32],
    recipient: PublicKey,
    shared: [u8; 32],
}

impl fmt::Debug for Ephemeral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ephemeral(redacted)")
    }
}

impl Ephemeral {
    /// The symmetric half of sealing: HKDF, ChaCha20 and HMAC over
    /// `plaintext` under this ephemeral. The output is `OVERHEAD` bytes
    /// longer than the input.
    ///
    /// The envelope is assembled in one buffer — `eph_pub ‖ tag slot ‖
    /// plaintext` — and encrypted in place, so the plaintext is copied
    /// exactly once.
    pub fn seal(self, plaintext: &[u8]) -> Vec<u8> {
        let keys = SealedBox::derive(&self.shared, &self.public, self.recipient.as_bytes());
        let mut out = Vec::with_capacity(OVERHEAD + plaintext.len());
        out.extend_from_slice(&self.public);
        out.resize(OVERHEAD, 0);
        out.extend_from_slice(plaintext);
        chacha20::xor_keystream(&keys.cipher_key, &keys.nonce, 0, &mut out[OVERHEAD..]);
        let tag = HmacKey::new(&keys.mac_key).mac_parts(&[&self.public, &out[OVERHEAD..]]);
        out[32..OVERHEAD].copy_from_slice(&tag);
        out
    }
}

impl SealedBox {
    fn derive(shared: &[u8; 32], eph_pub: &[u8; 32], recipient_pub: &[u8; 32]) -> DerivedKeys {
        let mut salt = [0u8; 64];
        salt[..32].copy_from_slice(eph_pub);
        salt[32..].copy_from_slice(recipient_pub);
        // One HKDF-Extract, three expands under a shared PRK schedule.
        // The three derivations used to re-run Extract (and re-absorb the
        // PRK's HMAC pads) each — identical output, three times the
        // compressions.
        let prk = hkdf_extract(&salt, shared);
        let prk_key = HmacKey::new(&prk);
        let key = hkdf_expand_keyed(&prk_key, INFO_KEY, 32);
        let nonce = hkdf_expand_keyed(&prk_key, INFO_NONCE, 12);
        let mac = hkdf_expand_keyed(&prk_key, INFO_MAC, 32);
        DerivedKeys {
            cipher_key: key.try_into().expect("hkdf returned 32 bytes"),
            nonce: nonce.try_into().expect("hkdf returned 12 bytes"),
            mac_key: mac.try_into().expect("hkdf returned 32 bytes"),
        }
    }

    /// Derives one [`Ephemeral`] per recipient, in input order: the
    /// asymmetric half of sealing a batch.
    ///
    /// Each ephemeral secret is one `rng.fill(&mut [u8; 32])` — the draw
    /// [`KeyPair::generate`] makes — taken in input order before any
    /// curve arithmetic. The 2n scalar multiplications (every ephemeral
    /// public key against the base point, every shared secret against
    /// its recipient) then run as one [`x25519::x25519_many`] call. Sealing
    /// a batch therefore emits the same bytes, and leaves `rng` at the
    /// same position, as sealing its messages one by one with
    /// [`SealedBox::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::LowOrderPoint`] if any recipient is a
    /// low-order point (the RFC 7748 §6.1 contributory-behavior check) —
    /// sealing to it would yield attacker-predictable keys. Every secret
    /// of the batch has been drawn by then, so on `Err` the RNG position
    /// is not that of the equivalent sequence of `seal` calls.
    pub fn ephemerals<R: Rng + ?Sized>(
        recipients: &[PublicKey],
        rng: &mut R,
    ) -> Result<Vec<Ephemeral>, CryptoError> {
        let n = recipients.len();
        let mut scalars = Vec::with_capacity(2 * n);
        for _ in 0..n {
            let mut secret = [0u8; 32];
            rng.fill(&mut secret);
            scalars.push(secret);
        }
        scalars.extend_from_within(..);
        let mut points = vec![x25519::BASEPOINT; n];
        points.extend(recipients.iter().map(|r| *r.as_bytes()));
        let out = x25519::x25519_many(&scalars, &points);
        let (publics, shareds) = out.split_at(n);
        if shareds.contains(&[0u8; 32]) {
            return Err(CryptoError::LowOrderPoint);
        }
        Ok(publics
            .iter()
            .zip(shareds)
            .zip(recipients)
            .map(|((&public, &shared), &recipient)| Ephemeral {
                public,
                recipient,
                shared,
            })
            .collect())
    }

    /// Encrypts `plaintext` to `recipient`, drawing ephemeral key material
    /// from `rng`: the batch of one ([`SealedBox::ephemerals`] followed by
    /// [`Ephemeral::seal`]). The output is `OVERHEAD` bytes longer than
    /// the input.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::LowOrderPoint`] if `recipient` is a
    /// low-order point (the RFC 7748 §6.1 contributory-behavior check) —
    /// sealing to it would yield attacker-predictable keys.
    pub fn seal<R: Rng + ?Sized>(
        plaintext: &[u8],
        recipient: &PublicKey,
        rng: &mut R,
    ) -> Result<Vec<u8>, CryptoError> {
        let [eph]: [Ephemeral; 1] = Self::ephemerals(std::slice::from_ref(recipient), rng)?
            .try_into()
            .expect("one ephemeral per recipient");
        Ok(eph.seal(plaintext))
    }

    /// Decrypts a sealed box with the recipient's key pair.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadLength`] if the message is shorter than
    /// the header, [`CryptoError::LowOrderPoint`] if the sender's
    /// ephemeral point is low-order (contributory-behavior check), or
    /// [`CryptoError::AuthenticationFailed`] if the tag does not verify
    /// (wrong key, truncation, or tampering).
    pub fn open(sealed: &[u8], recipient: &KeyPair) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < OVERHEAD {
            return Err(CryptoError::BadLength {
                expected: "at least 64 bytes",
                actual: sealed.len(),
            });
        }
        let eph_pub: [u8; 32] = sealed[..32].try_into().expect("length checked");
        let shared = x25519::x25519(recipient.secret().as_bytes(), &eph_pub);
        Self::open_with_shared(sealed, &shared, recipient)
    }

    /// Opens a batch of envelopes addressed to `recipient`, amortizing the
    /// shared-secret derivation: one clamp and bit schedule for the whole
    /// batch, and one field inversion shared across it
    /// ([`x25519::x25519_batch`]).
    ///
    /// Returns one result per envelope, in input order, each **exactly**
    /// what [`SealedBox::open`] would have returned for that envelope —
    /// including every failure mode, mid-batch. A malformed or tampered
    /// envelope affects only its own slot.
    pub fn open_batch<T: AsRef<[u8]>>(
        sealed: &[T],
        recipient: &KeyPair,
    ) -> Vec<Result<Vec<u8>, CryptoError>> {
        // Undersized envelopes are rejected up front; only well-formed
        // ones enter the batched ladder.
        let mut results: Vec<Option<Result<Vec<u8>, CryptoError>>> = sealed
            .iter()
            .map(|s| {
                let s = s.as_ref();
                (s.len() < OVERHEAD).then_some(Err(CryptoError::BadLength {
                    expected: "at least 64 bytes",
                    actual: s.len(),
                }))
            })
            .collect();
        let eph_pubs: Vec<[u8; 32]> = sealed
            .iter()
            .zip(&results)
            .filter(|(_, slot)| slot.is_none())
            .map(|(s, _)| s.as_ref()[..32].try_into().expect("length checked"))
            .collect();
        let shareds = x25519::x25519_batch(recipient.secret().as_bytes(), &eph_pubs);
        let mut shareds = shareds.into_iter();
        for (slot, s) in results.iter_mut().zip(sealed) {
            if slot.is_none() {
                let shared = shareds.next().expect("one shared secret per envelope");
                *slot = Some(Self::open_with_shared(s.as_ref(), &shared, recipient));
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every envelope resolved"))
            .collect()
    }

    /// The tail of [`SealedBox::open`] after the scalar multiplication:
    /// contributory check, key derivation, tag verification, decryption.
    /// `sealed` is already length-checked.
    fn open_with_shared(
        sealed: &[u8],
        shared: &[u8; 32],
        recipient: &KeyPair,
    ) -> Result<Vec<u8>, CryptoError> {
        if *shared == [0u8; 32] {
            return Err(CryptoError::LowOrderPoint);
        }
        let eph_pub: [u8; 32] = sealed[..32].try_into().expect("length checked");
        let tag: [u8; 32] = sealed[32..64].try_into().expect("length checked");
        let ciphertext = &sealed[64..];

        let keys = Self::derive(shared, &eph_pub, recipient.public().as_bytes());
        let expected_tag = HmacKey::new(&keys.mac_key).mac_parts(&[&eph_pub, ciphertext]);
        if !crate::ct_eq(&expected_tag, &tag) {
            return Err(CryptoError::AuthenticationFailed);
        }

        let mut plaintext = ciphertext.to_vec();
        chacha20::xor_keystream(&keys.cipher_key, &keys.nonce, 0, &mut plaintext);
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn recipient() -> (KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(99);
        let kp = KeyPair::generate(&mut rng);
        (kp, rng)
    }

    #[test]
    fn round_trip() {
        let (kp, mut rng) = recipient();
        for len in [0usize, 1, 31, 32, 33, 1000, 10_000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let sealed = SealedBox::seal(&msg, kp.public(), &mut rng).unwrap();
            assert_eq!(sealed.len(), msg.len() + OVERHEAD);
            let opened = SealedBox::open(&sealed, &kp).unwrap();
            assert_eq!(opened, msg, "len {len}");
        }
    }

    #[test]
    fn tampering_is_detected() {
        let (kp, mut rng) = recipient();
        let sealed = SealedBox::seal(b"secret update", kp.public(), &mut rng).unwrap();
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                SealedBox::open(&bad, &kp),
                Err(CryptoError::AuthenticationFailed),
                "flip at byte {i} was not detected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let (kp, mut rng) = recipient();
        let sealed = SealedBox::seal(b"msg", kp.public(), &mut rng).unwrap();
        assert!(matches!(
            SealedBox::open(&sealed[..10], &kp),
            Err(CryptoError::BadLength { .. })
        ));
        // Truncating ciphertext (but keeping the header) must fail auth.
        assert_eq!(
            SealedBox::open(&sealed[..sealed.len() - 1], &kp),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let (kp, mut rng) = recipient();
        let other = KeyPair::generate(&mut rng);
        let sealed = SealedBox::seal(b"for the enclave only", kp.public(), &mut rng).unwrap();
        assert_eq!(
            SealedBox::open(&sealed, &other),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn sealing_is_randomized() {
        let (kp, mut rng) = recipient();
        let a = SealedBox::seal(b"same message", kp.public(), &mut rng).unwrap();
        let b = SealedBox::seal(b"same message", kp.public(), &mut rng).unwrap();
        assert_ne!(a, b, "ephemeral keys must differ");
    }

    #[test]
    fn sealing_to_low_order_recipient_is_rejected() {
        // u = 0 and u = 1 are low-order points on the Montgomery u-line:
        // any clamped scalar (a multiple of 8) collapses them to the
        // all-zero shared secret. RFC 7748 §6.1 contributory behavior.
        let mut rng = StdRng::seed_from_u64(5);
        for low_order in [[0u8; 32], {
            let mut u = [0u8; 32];
            u[0] = 1;
            u
        }] {
            let bad = PublicKey::from_bytes(low_order);
            assert_eq!(
                SealedBox::seal(b"update", &bad, &mut rng),
                Err(CryptoError::LowOrderPoint)
            );
        }
    }

    #[test]
    fn opening_low_order_ephemeral_is_rejected() {
        let (kp, _) = recipient();
        for low_order in [[0u8; 32], {
            let mut u = [0u8; 32];
            u[0] = 1;
            u
        }] {
            // Forge an envelope whose ephemeral point is low-order. Before
            // the contributory check this would derive keys from the
            // all-zero shared secret; now it must fail closed.
            let mut forged = vec![0u8; OVERHEAD + 16];
            forged[..32].copy_from_slice(&low_order);
            assert_eq!(
                SealedBox::open(&forged, &kp),
                Err(CryptoError::LowOrderPoint)
            );
            assert_eq!(
                SealedBox::open_batch(&[forged], &kp),
                vec![Err(CryptoError::LowOrderPoint)]
            );
        }
    }

    #[test]
    fn open_batch_matches_per_envelope_open() {
        let (kp, mut rng) = recipient();
        let mut batch: Vec<Vec<u8>> = (0..5u8)
            .map(|i| {
                SealedBox::seal(&vec![i; 10 * usize::from(i) + 1], kp.public(), &mut rng).unwrap()
            })
            .collect();
        // Mix in every failure mode mid-batch: tampering, truncation
        // below the header, and a low-order ephemeral point.
        batch[1][40] ^= 0x80;
        batch[2].truncate(63);
        for b in &mut batch[3][..32] {
            *b = 0;
        }
        let batched = SealedBox::open_batch(&batch, &kp);
        assert_eq!(batched.len(), batch.len());
        for (envelope, result) in batch.iter().zip(&batched) {
            assert_eq!(*result, SealedBox::open(envelope, &kp));
        }
        assert!(batched[0].is_ok());
        assert_eq!(batched[1], Err(CryptoError::AuthenticationFailed));
        assert!(matches!(batched[2], Err(CryptoError::BadLength { .. })));
        assert_eq!(batched[3], Err(CryptoError::LowOrderPoint));
        assert!(batched[4].is_ok());
        assert!(SealedBox::open_batch::<Vec<u8>>(&[], &kp).is_empty());
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let (kp, _) = recipient();
        let s = format!("{:?}", kp.secret());
        assert!(s.contains("redacted"));
        assert!(
            !s.contains(&format!("{:?}", kp.secret().as_bytes())),
            "Debug output must not render the key bytes"
        );
    }

    #[test]
    fn ephemeral_debug_is_redacted() {
        let (kp, mut rng) = recipient();
        let eph = SealedBox::ephemerals(&[*kp.public()], &mut rng)
            .unwrap()
            .pop()
            .unwrap();
        let s = format!("{eph:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains(&format!("{:?}", eph.shared)));
        assert!(!s.contains(&format!("{:?}", eph.public)));
    }

    #[test]
    fn ephemeral_public_key_matches_its_secret() {
        // The batched keygen against the base point must equal the scalar
        // `KeyPair::generate` over the same draw.
        let (kp, rng) = recipient();
        let eph = SealedBox::ephemerals(&[*kp.public()], &mut rng.clone())
            .unwrap()
            .pop()
            .unwrap();
        let expected = KeyPair::generate(&mut rng.clone());
        assert_eq!(&eph.public, expected.public().as_bytes());
        assert_eq!(
            eph.shared,
            crate::x25519::x25519(expected.secret().as_bytes(), kp.public().as_bytes())
        );
    }

    #[test]
    fn keypair_public_matches_secret() {
        let (kp, _) = recipient();
        let expected = crate::x25519::public_key(kp.secret().as_bytes());
        assert_eq!(kp.public().as_bytes(), &expected);
    }
}
