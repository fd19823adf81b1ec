//! The generated inputs of a round: the participants' updates, made from
//! the workload seed and the round index only.

use mixnn_core::shard_seed;
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The §6.5 layer signature the paper's proxy benchmark sizes.
pub const PAPER_SIGNATURE: [usize; 5] = [2048, 2048, 1024, 512, 130];

/// The paper's CIFAR-10 model signature, taken from the model template of
/// the experiment crate (`mixnn-bench`).
pub fn cifar10_signature() -> Vec<usize> {
    mixnn_bench::ExperimentSetup::paper(mixnn_bench::DatasetKind::Cifar10, 0)
        .template()
        .signature()
}

/// Round `round`'s `clients` updates of shape `signature`. Values are
/// gradient-scale draws in `[-0.05, 0.05)`; the same `(seed, round)`
/// always gives the same updates.
pub fn round_updates(
    signature: &[usize],
    clients: usize,
    seed: u64,
    round: u64,
) -> Vec<ModelParams> {
    let mut rng = StdRng::seed_from_u64(shard_seed(seed, round as usize));
    (0..clients)
        .map(|_| {
            ModelParams::from_layers(
                signature
                    .iter()
                    .map(|&len| {
                        LayerParams::from_values(
                            (0..len).map(|_| rng.gen_range(-0.05f32..0.05)).collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}
