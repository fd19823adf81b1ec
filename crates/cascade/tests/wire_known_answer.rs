//! Golden wire digest for the cascade's client-side sealing: the exact
//! bytes `CascadeClient::seal_update` emits for seeded updates, over the
//! f32 and int8+top-k codecs and 1, 3 and 4 hops, plus the RNG position
//! the stream leaves behind.
//!
//! An onion draws one ephemeral secret per (layer, hop) envelope, layer by
//! layer and innermost hop first. Batching the ephemeral derivation must
//! keep that order, so this digest — computed before sealing was batched —
//! must never change, on any host.

use mixnn_cascade::CascadeClient;
use mixnn_core::codec::CompressionConfig;
use mixnn_crypto::{sha256, KeyPair, PublicKey};
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn seal_update_seeded_stream_golden_digest() {
    let mut rng = StdRng::seed_from_u64(0x5ea1_0002);
    let keys: Vec<PublicKey> = (0..4)
        .map(|_| *KeyPair::generate(&mut rng).public())
        .collect();
    let signature = [112usize, 296, 130, 17, 9];
    let mut hasher = sha256::Sha256::new();
    for compression in [CompressionConfig::F32, CompressionConfig::int8_top_k()] {
        for hops in [1usize, 3, 4] {
            let client =
                CascadeClient::from_keys(keys[..hops].to_vec()).with_compression(compression);
            for _ in 0..10 {
                let update = ModelParams::from_layers(
                    signature
                        .iter()
                        .map(|&len| {
                            LayerParams::from_values(
                                (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                            )
                        })
                        .collect(),
                );
                hasher.update(&client.seal_update(&update, &mut rng).unwrap());
            }
        }
    }
    hasher.update(&rng.next_u64().to_le_bytes());
    assert_eq!(
        hex(&hasher.finalize()),
        "2c2c7fa7f370e2343c754f7aa85aed1d0725eb0d00ce74eed9d87f94c82a07d4"
    );
}
