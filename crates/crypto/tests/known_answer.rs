//! Known-answer tests pinning every hand-rolled primitive against published
//! vectors, exercised through the crate's *public* API (the per-module unit
//! tests cover internals; this suite guards the exported surface).
//!
//! Sources: FIPS 180-4 / NIST examples (SHA-256), RFC 4231 (HMAC-SHA256),
//! RFC 5869 (HKDF), RFC 7748 (X25519), RFC 8439 (ChaCha20).

use mixnn_crypto::hmac::{hkdf, hmac_sha256};
use mixnn_crypto::{chacha20, sha256, x25519};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(s.len().is_multiple_of(2), "odd-length hex string");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn unhex32(s: &str) -> [u8; 32] {
    unhex(s).try_into().unwrap()
}

// ---------------------------------------------------------------------------
// SHA-256 — FIPS 180-4 examples
// ---------------------------------------------------------------------------

#[test]
fn sha256_fips_one_block_message() {
    assert_eq!(
        hex(&sha256::digest(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

#[test]
fn sha256_fips_empty_message() {
    assert_eq!(
        hex(&sha256::digest(b"")),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
}

#[test]
fn sha256_fips_two_block_message() {
    assert_eq!(
        hex(&sha256::digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        )),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

#[test]
fn sha256_streaming_matches_oneshot_on_fips_input() {
    let message = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                    hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
    let mut hasher = sha256::Sha256::new();
    for chunk in message.chunks(7) {
        hasher.update(chunk);
    }
    let streamed = hasher.finalize();
    assert_eq!(
        hex(&streamed),
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    );
    assert_eq!(streamed, sha256::digest(message));
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 — RFC 4231 (cases 4, 5 and 7 are not covered by the unit
// tests; 1–3 pin the public API against the same vectors the units use)
// ---------------------------------------------------------------------------

#[test]
fn hmac_rfc4231_case_1() {
    let tag = hmac_sha256(&[0x0b; 20], b"Hi There");
    assert_eq!(
        hex(&tag),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    );
}

#[test]
fn hmac_rfc4231_case_2() {
    let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
    assert_eq!(
        hex(&tag),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    );
}

#[test]
fn hmac_rfc4231_case_3() {
    let tag = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
    assert_eq!(
        hex(&tag),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    );
}

#[test]
fn hmac_rfc4231_case_4() {
    let key: Vec<u8> = (0x01..=0x19).collect();
    let tag = hmac_sha256(&key, &[0xcd; 50]);
    assert_eq!(
        hex(&tag),
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    );
}

#[test]
fn hmac_rfc4231_case_5_truncated() {
    // The RFC publishes only the first 128 bits of this tag.
    let tag = hmac_sha256(&[0x0c; 20], b"Test With Truncation");
    assert_eq!(hex(&tag[..16]), "a3b6167473100ee06e0c796c2955552b");
}

#[test]
fn hmac_rfc4231_case_6_long_key() {
    let tag = hmac_sha256(
        &[0xaa; 131],
        b"Test Using Larger Than Block-Size Key - Hash Key First",
    );
    assert_eq!(
        hex(&tag),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    );
}

#[test]
fn hmac_rfc4231_case_7_long_key_and_data() {
    let tag = hmac_sha256(
        &[0xaa; 131],
        &b"This is a test using a larger than block-size key and a larger t\
           han block-size data. The key needs to be hashed before being use\
           d by the HMAC algorithm."[..],
    );
    assert_eq!(
        hex(&tag),
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    );
}

// ---------------------------------------------------------------------------
// HKDF — RFC 5869 test case 1
// ---------------------------------------------------------------------------

#[test]
fn hkdf_rfc5869_case_1() {
    let ikm = [0x0b; 22];
    let salt = unhex("000102030405060708090a0b0c");
    let info = unhex("f0f1f2f3f4f5f6f7f8f9");
    let okm = hkdf(&salt, &ikm, &info, 42);
    assert_eq!(
        hex(&okm),
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
         34007208d5b887185865"
    );
}

// ---------------------------------------------------------------------------
// X25519 — RFC 7748
// ---------------------------------------------------------------------------

#[test]
fn x25519_rfc7748_vector_1() {
    let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
    let point = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
    assert_eq!(
        hex(&x25519::x25519(&scalar, &point)),
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
    );
}

#[test]
fn x25519_rfc7748_vector_2() {
    let scalar = unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
    let point = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
    assert_eq!(
        hex(&x25519::x25519(&scalar, &point)),
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
    );
}

#[test]
fn x25519_rfc7748_diffie_hellman() {
    let alice_secret = unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
    let bob_secret = unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
    let alice_public = x25519::public_key(&alice_secret);
    let bob_public = x25519::public_key(&bob_secret);
    assert_eq!(
        hex(&alice_public),
        "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
    );
    assert_eq!(
        hex(&bob_public),
        "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
    );
    let shared_ab = x25519::x25519(&alice_secret, &bob_public);
    let shared_ba = x25519::x25519(&bob_secret, &alice_public);
    assert_eq!(shared_ab, shared_ba);
    assert_eq!(
        hex(&shared_ab),
        "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
    );
}

// ---------------------------------------------------------------------------
// ChaCha20 — RFC 8439
// ---------------------------------------------------------------------------

#[test]
fn chacha20_rfc8439_keystream_block() {
    // §2.3.2: encrypting all-zero bytes yields the raw keystream block.
    let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
    let nonce = unhex("000000090000004a00000000").try_into().unwrap();
    let mut block = [0u8; 64];
    chacha20::xor_keystream(&key, &nonce, 1, &mut block);
    assert_eq!(
        hex(&block),
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
         d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    );
}

#[test]
fn chacha20_rfc8439_sunscreen_encryption() {
    // §2.4.2: the "Ladies and Gentlemen" plaintext under counter 1.
    let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
    let nonce = unhex("000000000000004a00000000").try_into().unwrap();
    let mut data = b"Ladies and Gentlemen of the class of '99: If I could \
                     offer you only one tip for the future, sunscreen would be it."
        .to_vec();
    chacha20::xor_keystream(&key, &nonce, 1, &mut data);
    assert_eq!(
        hex(&data),
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
         f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
         07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
         5af90bbf74a35be6b40b8eedf2785e42874d"
    );
    // Decryption is the same keystream XOR.
    chacha20::xor_keystream(&key, &nonce, 1, &mut data);
    assert!(data.starts_with(b"Ladies and Gentlemen"));
}

// ---------------------------------------------------------------------------
// Sealed box — golden wire stream
// ---------------------------------------------------------------------------

/// Pins the exact bytes of a seeded `seal` stream and the RNG position it
/// leaves behind. Sealing draws one 32-byte ephemeral secret per envelope
/// in call order, so any change to the draw order, the X25519 kernels
/// (vector or scalar fallback) or the symmetric layer shows up here — on
/// every host, IFMA or not. The digest was computed before sealing was
/// batched and must never change.
///
/// Only successful seals are pinned: a failing batch (a low-order
/// recipient) draws every ephemeral of the batch before it reports the
/// error, so the RNG position after an `Err` is not part of the contract.
#[test]
fn sealed_box_seeded_stream_golden_digest() {
    use mixnn_crypto::{KeyPair, SealedBox};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x5ea1_0001);
    let recipients: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
    let mut hasher = sha256::Sha256::new();
    for i in 0..200usize {
        // Lengths straddle the 64 B ChaCha20 block and 256 B quad-batch
        // boundaries, plus a few multi-KiB envelopes.
        let len = match i % 10 {
            9 => 1024 + i * 13,
            _ => (i * 37) % 300,
        };
        let msg: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let to = &recipients[i % recipients.len()];
        let sealed = SealedBox::seal(&msg, to.public(), &mut rng).unwrap();
        hasher.update(&sealed);
    }
    hasher.update(&rng.next_u64().to_le_bytes());
    assert_eq!(
        hex(&hasher.finalize()),
        "bf07029f87b097408ba26a31e3e16fa4b3644b2b3c90013aed9627feb3f49666"
    );
}
