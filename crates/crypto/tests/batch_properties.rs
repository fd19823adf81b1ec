//! Property tests pinning the batched kernels to their scalar
//! definitions through the public API:
//!
//! * batched sealing ([`SealedBox::ephemerals`] then [`Ephemeral::seal`])
//!   must emit exactly the bytes of sequential [`SealedBox::seal`] calls
//!   and leave the RNG at the same position, for every batch size across
//!   the vector kernel's threshold and 8-lane groups, with mixed
//!   recipients and plaintext lengths; a low-order recipient anywhere in a
//!   batch must fail it with `LowOrderPoint`;
//! * [`SealedBox::open_batch`] must agree with per-envelope
//!   [`SealedBox::open`] element-wise — including when tampered,
//!   truncated and low-order envelopes are interleaved with good ones
//!   mid-batch;
//! * the multi-block ChaCha20 kernel must produce the same keystream as
//!   block-at-a-time application at every length around the 64 B block
//!   and 256 B quad-batch boundaries.

use mixnn_crypto::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_crypto::{CryptoError, Ephemeral, KeyPair, PublicKey, SealedBox};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A batch of `count` messages of mixed lengths (0..300 B, so some cross
/// the ChaCha20 quad-block boundary) to recipients drawn from `keys`.
fn mixed_batch(
    keys: &[KeyPair],
    count: usize,
    seed: u64,
    rng: &mut StdRng,
) -> (Vec<Vec<u8>>, Vec<PublicKey>) {
    let messages = (0..count)
        .map(|i| {
            let len = (seed as usize * 31 + i * 53) % 300;
            (0..len).map(|_| rng.gen()).collect()
        })
        .collect();
    let recipients = (0..count)
        .map(|i| *keys[(seed as usize + i * 7) % keys.len()].public())
        .collect();
    (messages, recipients)
}

/// Seals a batch through the two-phase API.
fn seal_batch(
    messages: &[Vec<u8>],
    recipients: &[PublicKey],
    rng: &mut StdRng,
) -> Result<Vec<Vec<u8>>, CryptoError> {
    Ok(SealedBox::ephemerals(recipients, rng)?
        .into_iter()
        .zip(messages)
        .map(|(eph, msg): (Ephemeral, _)| eph.seal(msg))
        .collect())
}

/// The low-order u-coordinates 0 and 1: any clamped scalar collapses them
/// to the all-zero shared secret.
fn low_order(which: u8) -> PublicKey {
    let mut u = [0u8; 32];
    u[0] = which;
    PublicKey::from_bytes(u)
}

#[test]
fn batched_seal_matches_sequential_seal_at_every_lane_boundary() {
    let mut rng = StdRng::seed_from_u64(40);
    let keys: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
    for count in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 40] {
        let (messages, recipients) = mixed_batch(&keys, count, count as u64, &mut rng);
        let mut batch_rng = rng.clone();
        let sequential: Vec<Vec<u8>> = messages
            .iter()
            .zip(&recipients)
            .map(|(m, r)| SealedBox::seal(m, r, &mut rng).unwrap())
            .collect();
        let batched = seal_batch(&messages, &recipients, &mut batch_rng).unwrap();
        assert_eq!(batched, sequential, "batch of {count}");
        assert_eq!(batch_rng, rng, "RNG position after a batch of {count}");
    }
}

proptest! {
    // Each case seals up to 40 envelopes twice over; the lane boundaries
    // are pinned exhaustively by the plain test above, so fewer random
    // cases suffice here.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A batch of 0..40 envelopes — crossing the vector kernel's
    /// threshold and its 8-lane groups — seals to exactly the bytes of
    /// sequential `seal` calls, leaves the RNG where they leave it, and
    /// opens back to the messages.
    #[test]
    fn batched_seal_matches_sequential_seal(seed in 0u64..1000, count in 0usize..41) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        let (messages, recipients) = mixed_batch(&keys, count, seed, &mut rng);
        let mut batch_rng = rng.clone();
        let sequential: Vec<Vec<u8>> = messages
            .iter()
            .zip(&recipients)
            .map(|(m, r)| SealedBox::seal(m, r, &mut rng).unwrap())
            .collect();
        let batched = seal_batch(&messages, &recipients, &mut batch_rng).unwrap();
        prop_assert_eq!(&batched, &sequential);
        prop_assert_eq!(batch_rng.next_u64(), rng.next_u64());
        for (i, blob) in batched.iter().enumerate() {
            let owner = keys
                .iter()
                .find(|k| k.public() == &recipients[i])
                .expect("recipient drawn from keys");
            prop_assert_eq!(SealedBox::open(blob, owner).unwrap(), messages[i].clone());
        }
    }

    /// A low-order recipient at any position fails the whole batch with
    /// `LowOrderPoint` — never a partial batch sealed to predictable keys.
    #[test]
    fn low_order_recipient_anywhere_fails_the_batch(
        seed in 0u64..1000,
        count in 1usize..20,
        at in 0usize..20,
        which in 0u8..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<KeyPair> = (0..2).map(|_| KeyPair::generate(&mut rng)).collect();
        let (messages, mut recipients) = mixed_batch(&keys, count, seed, &mut rng);
        recipients[at % count] = low_order(which);
        prop_assert_eq!(
            seal_batch(&messages, &recipients, &mut rng),
            Err(CryptoError::LowOrderPoint)
        );
    }
}

proptest! {
    /// Batched opening is element-wise identical to scalar opening, for
    /// any mix of intact, tampered, truncated and low-order envelopes at
    /// any positions in the batch.
    #[test]
    fn open_batch_matches_per_envelope_open(
        seed in 0u64..1000,
        count in 1usize..9,
        corruption in proptest::collection::vec(0u8..4, 9),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let recipient = KeyPair::generate(&mut rng);
        let sealed: Vec<Vec<u8>> = (0..count)
            .map(|i| {
                let len = (seed as usize + i * 37) % 200;
                let msg: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let mut blob = SealedBox::seal(&msg, recipient.public(), &mut rng).unwrap();
                match corruption[i] {
                    1 => {
                        // Tamper with one ciphertext/tag byte.
                        let idx = (seed as usize + i) % blob.len();
                        blob[idx] ^= 0x80;
                    }
                    2 => blob.truncate((seed as usize + i) % OVERHEAD), // undersized
                    3 => blob[..32].fill(0), // low-order ephemeral key
                    _ => {}
                }
                blob
            })
            .collect();

        let batched = SealedBox::open_batch(&sealed, &recipient);
        prop_assert_eq!(batched.len(), sealed.len());
        for (i, (got, blob)) in batched.iter().zip(&sealed).enumerate() {
            let scalar = SealedBox::open(blob, &recipient);
            prop_assert_eq!(got, &scalar, "envelope {} (corruption {})", i, corruption[i]);
            // Sanity: the intended corruption actually produced a failure.
            if corruption[i] != 0 {
                prop_assert!(got.is_err(), "envelope {} should have failed", i);
            }
        }
    }

    /// One whole-buffer `apply_keystream` call (which engages the
    /// four-block kernel at >= 256 B) equals block-at-a-time application
    /// of the same cipher state, at every length around the block and
    /// quad boundaries.
    #[test]
    fn chacha20_whole_buffer_matches_blockwise(
        seed in 0u64..1000,
        len in 0usize..1200,
        counter in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4ac);
        let mut key = [0u8; KEY_LEN];
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut key);
        rng.fill(&mut nonce);
        // Exercise the exact boundary lengths on every run as well as the
        // drawn one.
        for len in [len, 63, 64, 65, 128, 255, 256, 257, 512] {
            let plain: Vec<u8> = (0..len).map(|_| rng.gen()).collect();

            let mut whole = plain.clone();
            ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut whole);

            let mut blockwise = plain.clone();
            let mut cipher = ChaCha20::new(&key, &nonce, counter);
            for chunk in blockwise.chunks_mut(64) {
                // 64 B per call stays on the scalar single-block path.
                cipher.apply_keystream(chunk);
            }
            prop_assert_eq!(&whole, &blockwise, "len {}", len);
        }
    }
}
