//! Cryptographic primitives for the MixNN enclave, implemented from
//! scratch.
//!
//! The paper's participants encrypt their model updates with the public key
//! of the SGX enclave so only the MixNN proxy can read them (§4.1/§4.3).
//! This crate provides the construction stack for that channel:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4),
//! * [`hmac`] — HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869),
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439),
//! * [`x25519`] — X25519 Diffie–Hellman over Curve25519 (RFC 7748),
//! * [`sealed_box`] — the hybrid public-key encryption used on the wire:
//!   ephemeral X25519 → HKDF → ChaCha20 + HMAC (encrypt-then-MAC).
//!
//! Every primitive is validated against the official test vectors in its
//! module's tests, so measured decryption costs in the §6.5 benches are
//! representative of a real deployment.
//!
//! # The batched hot path
//!
//! Decryption dominates the proxy's per-round cost (§6.5), and sealing
//! the client's, so the stack is built as batched kernels behind the
//! scalar APIs — each one bit-identical to the scalar definition and
//! pinned by the same RFC/FIPS vectors:
//!
//! * SHA-256 compresses all full blocks of an `update` in one multi-block
//!   call and dispatches at runtime to the x86-64 SHA-NI kernel when the
//!   CPU has it ([`sha256`]);
//! * HMAC keys precompute their ipad/opad schedule once
//!   ([`hmac::HmacKey`]), and the sealed box derives its three keys with
//!   a single HKDF-Extract plus three expands per envelope;
//! * ChaCha20 generates four keystream blocks per widened quarter-round
//!   pass on buffers ≥ 256 B ([`chacha20`]);
//! * [`x25519::x25519_many`] runs a scalar per point, eight per pass on
//!   AVX-512 IFMA hosts, with one Montgomery-trick field inversion across
//!   the batch. Both sealed-box sides use it:
//!   [`sealed_box::SealedBox::ephemerals`] derives a batch's ephemeral
//!   keys and shared secrets in one call (and [`SealedBox::seal`] is the
//!   batch of one), and [`sealed_box::SealedBox::open_batch`] opens a
//!   round's envelopes with the recipient scalar broadcast
//!   ([`x25519::x25519_batch`]).
//!
//! # Contributory behavior
//!
//! X25519 maps low-order peer points to the all-zero shared secret. The
//! sealed box rejects that secret on both ends
//! ([`CryptoError::LowOrderPoint`], RFC 7748 §6.1), so a malicious
//! participant cannot force predictable envelope keys, and the ChaCha20
//! block counter panics instead of wrapping (keystream reuse) after 256
//! GiB under one key/nonce.
//!
//! # Security caveat
//!
//! This is a **research reproduction**: the algorithms are the real ones and
//! pass their RFC vectors, but the implementation has not been hardened
//! against timing side channels beyond the basics ([`ct_eq`] for tag
//! comparison, branch-free ladder steps in `x25519`). Do not lift it into a
//! production system.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod chacha20;
mod error;
pub mod hmac;
pub mod sealed_box;
pub mod sha256;
pub mod x25519;

pub use error::CryptoError;
pub use sealed_box::{Ephemeral, KeyPair, PublicKey, SealedBox, SecretKey};

/// Constant-time equality of two byte slices.
///
/// Returns `false` immediately on length mismatch (the length is public in
/// all uses here); otherwise examines every byte regardless of where the
/// first difference occurs.
///
/// # Example
///
/// ```
/// assert!(mixnn_crypto::ct_eq(b"abc", b"abc"));
/// assert!(!mixnn_crypto::ct_eq(b"abc", b"abd"));
/// assert!(!mixnn_crypto::ct_eq(b"abc", b"ab"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (&x, &y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_matches_equality() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2]));
        assert!(!ct_eq(&[0xff], &[0x7f]));
    }
}
