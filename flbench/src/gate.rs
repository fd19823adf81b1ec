//! The correctness gate every round passes through.
//!
//! Mixing permutes updates per layer and FedAvg is permutation-invariant,
//! so the server aggregate of a round must equal — bit for bit — the mean
//! of the updates as the wire codec reproduces them. Any other aggregate
//! means the system lost, duplicated or corrupted an update.

use mixnn_core::codec::{self, CompressionConfig};
use mixnn_nn::ModelParams;

/// The reference aggregate: `ModelParams::mean` over the updates as the
/// round's codec reproduces them (`codec::canonical_params`).
pub fn reference_aggregate(updates: &[ModelParams], compression: CompressionConfig) -> ModelParams {
    let canonical: Vec<ModelParams> = updates
        .iter()
        .map(|u| codec::canonical_params(u, compression))
        .collect();
    ModelParams::mean(&canonical).expect("generated updates share one signature")
}

/// Checks that `got` equals `want` bit for bit.
///
/// # Errors
///
/// Names the first differing layer and index.
pub fn check_aggregate(got: &ModelParams, want: &ModelParams) -> Result<(), String> {
    if got.signature() != want.signature() {
        return Err(format!(
            "aggregate signature {:?} differs from the reference {:?}",
            got.signature(),
            want.signature()
        ));
    }
    for (l, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        if let Some(i) = a
            .values()
            .iter()
            .zip(b.values())
            .position(|(x, y)| x.to_bits() != y.to_bits())
        {
            return Err(format!(
                "aggregate differs from the reference at layer {l} index {i}: {} != {}",
                a.values()[i],
                b.values()[i]
            ));
        }
    }
    Ok(())
}

/// Root-mean-square difference between two models of one signature.
pub fn rmse(a: &ModelParams, b: &ModelParams) -> f64 {
    let (sum, n) = a
        .iter()
        .zip(b.iter())
        .flat_map(|(x, y)| x.values().iter().zip(y.values()))
        .fold((0.0f64, 0usize), |(sum, n), (x, y)| {
            let d = f64::from(*x) - f64::from(*y);
            (sum + d * d, n + 1)
        });
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).sqrt()
    }
}

/// Root-mean-square of a model's values.
pub fn rms(a: &ModelParams) -> f64 {
    let zero = a.scale(0.0);
    rmse(a, &zero)
}
