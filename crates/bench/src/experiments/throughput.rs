//! Ingest throughput of the parallel proxy pipeline.
//!
//! §6.5 shows decryption dominating the proxy's per-update budget; the
//! parallel ingest front-end exists to buy that time back with worker
//! threads. This experiment measures it: `C` pre-sealed updates pushed
//! through the full encrypted pipeline (decrypt → store → batch mix) at
//! several ingest worker counts, reporting updates/second and the speedup
//! over the sequential front-end. Every configuration is verified to
//! produce **bit-identical** mixed outputs — parallelism is a throughput
//! knob, never a semantics knob.
//!
//! Results are also dumped to `BENCH_throughput.json` so speedups land in
//! a machine-readable artifact alongside the criterion benches.

use crate::report::Percentiles;
use crate::ExperimentSetup;
use mixnn_attacks::AttackError;
use mixnn_core::{
    codec, MixingStrategy, MixnnProxy, MixnnProxyConfig, ParallelIngest, Parallelism,
};
use mixnn_crypto::SealedBox;
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::{
    Component, Counter, Distribution, Gauge, Registry, Span, Telemetry, TraceKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One measured (clients, workers) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Updates ingested in the round (the paper's `C`).
    pub clients: usize,
    /// Ingest worker threads used.
    pub workers: usize,
    /// Per-layer mix shard tasks used.
    pub mix_shards: usize,
    /// Wall-clock seconds for the whole ingest (decrypt + store).
    pub ingest_seconds: f64,
    /// Wall-clock seconds for the batch mix.
    pub mix_seconds: f64,
    /// Accepted updates per second of ingest wall-clock.
    pub updates_per_sec: f64,
    /// Ingest speedup over the 1-worker row of the same client count.
    pub speedup_vs_sequential: f64,
}

/// The worker counts swept by default (1 is the sequential baseline).
pub const DEFAULT_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Ceiling on acceptable telemetry hook cost, as a fraction of the
/// no-op-registry wall-clock — `eval throughput` fails when
/// [`measure_overhead`] reports more.
pub const MAX_TELEMETRY_OVERHEAD: f64 = 0.02;

/// The round sizes swept by default.
pub const DEFAULT_CLIENTS: [usize; 3] = [32, 128, 512];

/// A synthetic multi-layer update sized so decryption does §6.5-realistic
/// work without making the sweep take minutes.
fn synth_update(signature: &[usize], seed: u64) -> ModelParams {
    let mut rng = StdRng::seed_from_u64(seed);
    ModelParams::from_layers(
        signature
            .iter()
            .map(|&len| {
                LayerParams::from_values((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
            })
            .collect(),
    )
}

fn launch(signature: Vec<usize>, seed: u64, parallelism: Parallelism) -> MixnnProxy {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a31);
    let service = AttestationService::new(&mut rng);
    MixnnProxy::launch(
        MixnnProxyConfig {
            strategy: MixingStrategy::Batch,
            expected_signature: signature,
            seed,
            parallelism,
            ..MixnnProxyConfig::default()
        },
        &service,
        &mut rng,
    )
}

/// Runs the ingest-throughput sweep.
///
/// For each client count, the same `C` sealed updates go through a fresh
/// proxy at each worker count; the mixed outputs of every configuration
/// are asserted identical to the sequential ones (fixed seeds), so the
/// reported speedups are for provably equivalent work. Each cell is
/// measured `repeats` times (fresh proxy per repetition) and the
/// reported seconds are the median ([`Percentiles::from_samples`]), so
/// `--repeats` suppresses scheduler noise instead of averaging it in.
///
/// # Errors
///
/// Propagates proxy failures as [`AttackError::Fl`]-wrapped transport
/// errors.
pub fn run(
    setup: &ExperimentSetup,
    client_counts: &[usize],
    worker_counts: &[usize],
    repeats: usize,
) -> Result<Vec<ThroughputRow>, AttackError> {
    run_with(
        setup,
        client_counts,
        worker_counts,
        repeats,
        &mixnn_telemetry::noop(),
    )
}

/// [`run`] with a telemetry registry attached to every timed proxy, so
/// the sweep's ingest/mix counters, batch-size distribution and span
/// timings accumulate into the shared registry `eval` exports.
///
/// # Errors
///
/// Same conditions as [`run`].
pub fn run_with(
    setup: &ExperimentSetup,
    client_counts: &[usize],
    worker_counts: &[usize],
    repeats: usize,
    telemetry: &Telemetry,
) -> Result<Vec<ThroughputRow>, AttackError> {
    // Five layers, ~8k parameters: the §6.5 cost shape (decrypt-dominated)
    // at a size where C=512 stays a smoke-runnable sweep.
    let signature: Vec<usize> = vec![2048, 2048, 2048, 1024, 512];
    let seed = setup.fl.seed;
    let mut rows = Vec::new();
    if worker_counts.is_empty() {
        return Ok(rows);
    }

    for &clients in client_counts {
        // Seal once per client count; every worker configuration ingests
        // the same ciphertexts.
        let reference = launch(signature.clone(), seed, Parallelism::sequential());
        let mut seal_rng = StdRng::seed_from_u64(seed ^ 0x11);
        let sealed: Vec<Vec<u8>> = (0..clients)
            .map(|i| {
                let p = synth_update(&signature, seed ^ (i as u64) << 8);
                SealedBox::seal(
                    &codec::encode_params(&p),
                    reference.public_key(),
                    &mut seal_rng,
                )
                .expect("enclave keys are never low-order")
            })
            .collect();

        // One untimed warm-up pass so the first timed configuration is not
        // penalized with cold caches and first-touch page faults. It runs
        // fully sequentially, so its mixed outputs double as the
        // sequential reference every configuration must reproduce.
        let sequential_mixed = {
            let mut warm = launch(signature.clone(), seed, Parallelism::sequential());
            for r in ParallelIngest::new(1).submit_all(&mut warm, &sealed) {
                r.map_err(mixnn_fl::FlError::from)?;
            }
            warm.mix_batch().map_err(mixnn_fl::FlError::from)?
        };

        let mut client_rows = Vec::with_capacity(worker_counts.len());
        for &workers in worker_counts {
            let parallelism = Parallelism {
                ingest_workers: workers,
                mix_shards: workers,
                ..Parallelism::sequential()
            };
            let mut ingest_samples = Vec::with_capacity(repeats.max(1));
            let mut mix_samples = Vec::with_capacity(repeats.max(1));
            let mut stats = None;
            for _ in 0..repeats.max(1) {
                let mut proxy = launch(signature.clone(), seed, parallelism);
                proxy.attach_telemetry(telemetry.clone());
                let ingest = ParallelIngest::new(workers);

                let t0 = Instant::now();
                let results = ingest.submit_all(&mut proxy, &sealed);
                ingest_samples.push(t0.elapsed().as_secs_f64());
                for r in results {
                    r.map_err(mixnn_fl::FlError::from)?;
                }

                let t1 = Instant::now();
                let mixed = proxy.mix_batch().map_err(mixnn_fl::FlError::from)?;
                mix_samples.push(t1.elapsed().as_secs_f64());

                assert_eq!(
                    sequential_mixed, mixed,
                    "parallel pipeline diverged at {workers} workers"
                );
                stats = Some(proxy.stats());
            }
            let ingest_seconds = Percentiles::from_samples(&ingest_samples).p50;
            let mix_seconds = Percentiles::from_samples(&mix_samples).p50;
            let stats = stats.expect("at least one repetition ran");
            client_rows.push(ThroughputRow {
                clients,
                workers,
                mix_shards: workers,
                ingest_seconds,
                mix_seconds,
                updates_per_sec: stats.throughput_updates_per_sec(ingest_seconds),
                speedup_vs_sequential: 1.0, // filled in below
            });
        }
        // The speedup baseline is the workers == 1 row when the sweep has
        // one; a sweep without it falls back to its first row (and the
        // column then reads "vs the slowest swept config", not "vs
        // sequential").
        let baseline = client_rows
            .iter()
            .find(|r| r.workers == 1)
            .unwrap_or(&client_rows[0])
            .ingest_seconds;
        for row in &mut client_rows {
            row.speedup_vs_sequential = if row.ingest_seconds > 0.0 {
                baseline / row.ingest_seconds
            } else {
                1.0
            };
        }
        rows.extend(client_rows);
    }
    Ok(rows)
}

/// Telemetry hook cost on the proxy hot path, estimated from counts:
/// hook calls made by one enabled pass × the microbenchmarked cost of the
/// most expensive hook kind ÷ the pass's wall-clock.
///
/// A wall-clock difference between enabled and no-op passes cannot
/// resolve 2%: on a shared host the minimum of 15 ~7 ms passes moved by
/// −10% to +16% between runs of the same binary. The count is exact,
/// and the per-call cost comes from a tight loop whose spread across
/// repeats is reported as the estimate's noise floor.
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Updates per timed pass.
    pub clients: usize,
    /// Microbenchmark and pass-timing repetitions.
    pub repeats: usize,
    /// Recording calls the enabled pass made ([`Registry::hook_calls`]).
    pub hook_calls: u64,
    /// Median over the repeats of the slowest hook kind's cost per call,
    /// nanoseconds.
    pub per_hook_ns: f64,
    /// Median no-op ingest+mix pass wall-clock, seconds.
    pub pass_seconds: f64,
    /// `hook_calls × per_hook_ns / pass_seconds` — the gated figure.
    pub overhead_fraction: f64,
    /// `hook_calls × (max − min per-call cost over the repeats) /
    /// pass_seconds`: how far the estimate can move with microbenchmark
    /// noise.
    pub noise_floor: f64,
}

/// Nanoseconds per call of the slowest recording hook kind — counter,
/// gauge, distribution, span guard or trace event — on a fresh enabled
/// wall-clock registry, each timed over a tight loop of `CALLS` calls.
/// Taking the slowest kind makes `hook_calls × cost` an upper bound on
/// the hooks' own work whatever mix of kinds a pipeline uses.
fn hook_cost_ns() -> f64 {
    const CALLS: u32 = 20_000;
    let registry = Registry::new().shared();
    let per_call = |hook: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..CALLS {
            hook();
        }
        t0.elapsed().as_nanos() as f64 / f64::from(CALLS)
    };
    let value = std::hint::black_box(7u64);
    [
        per_call(&|| registry.incr(Counter::CoreEnvelopesOpened, value)),
        per_call(&|| registry.gauge_max(Gauge::NetPeakSendQueue, value)),
        per_call(&|| registry.observe(Distribution::CoreMixBatchUpdates, value)),
        per_call(&|| drop(registry.span(Span::CoreMixBatch))),
        per_call(&|| {
            registry.trace(
                Component::Core,
                None,
                TraceKind::BatchOpened { envelopes: value },
            )
        }),
    ]
    .into_iter()
    .fold(0.0, f64::max)
}

/// Estimates the cost of leaving telemetry hooks enabled on the encrypted
/// ingest + mix pipeline (sequential, so the hook count is that of the
/// canonical drive): see [`OverheadReport`].
///
/// # Errors
///
/// Propagates proxy failures as [`AttackError::Fl`]-wrapped transport
/// errors.
pub fn measure_overhead(
    seed: u64,
    clients: usize,
    repeats: usize,
) -> Result<OverheadReport, AttackError> {
    let signature: Vec<usize> = vec![2048, 2048, 2048, 1024, 512];
    let reference = launch(signature.clone(), seed, Parallelism::sequential());
    let mut seal_rng = StdRng::seed_from_u64(seed ^ 0x11);
    let sealed: Vec<Vec<u8>> = (0..clients)
        .map(|i| {
            let p = synth_update(&signature, seed ^ (i as u64) << 8);
            SealedBox::seal(
                &codec::encode_params(&p),
                reference.public_key(),
                &mut seal_rng,
            )
            .expect("enclave keys are never low-order")
        })
        .collect();

    let pass = |telemetry: Option<Telemetry>| -> Result<f64, AttackError> {
        let mut proxy = launch(signature.clone(), seed, Parallelism::sequential());
        if let Some(t) = telemetry {
            proxy.attach_telemetry(t);
        }
        let t0 = Instant::now();
        for r in ParallelIngest::new(1).submit_all(&mut proxy, &sealed) {
            r.map_err(mixnn_fl::FlError::from)?;
        }
        proxy.mix_batch().map_err(mixnn_fl::FlError::from)?;
        Ok(t0.elapsed().as_secs_f64())
    };

    let repeats = repeats.max(1);
    let telemetry = Registry::new().shared();
    pass(Some(telemetry.clone()))?;
    let hook_calls = telemetry.hook_calls();
    let mut pass_times = Vec::with_capacity(repeats);
    let mut hook_costs = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        pass_times.push(pass(None)?);
        hook_costs.push(hook_cost_ns());
    }
    let pass_seconds = median(&mut pass_times).max(f64::MIN_POSITIVE);
    let per_hook_ns = median(&mut hook_costs);
    let spread_ns = hook_costs[hook_costs.len() - 1] - hook_costs[0];
    let fraction = |ns: f64| hook_calls as f64 * ns * 1e-9 / pass_seconds;
    Ok(OverheadReport {
        clients,
        repeats,
        hook_calls,
        per_hook_ns,
        pass_seconds,
        overhead_fraction: fraction(per_hook_ns),
        noise_floor: fraction(spread_ns),
    })
}

/// Sorts `xs` and returns its median (upper median for even lengths).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Formats throughput rows for the report table.
pub fn rows(results: &[ThroughputRow]) -> Vec<Vec<String>> {
    results
        .iter()
        .map(|r| {
            vec![
                r.clients.to_string(),
                r.workers.to_string(),
                crate::report::fmt_ms(r.ingest_seconds),
                crate::report::fmt_ms(r.mix_seconds),
                format!("{:.1}", r.updates_per_sec),
                format!("{:.2}x", r.speedup_vs_sequential),
            ]
        })
        .collect()
}

/// Hardware threads available to the sweep. Worker counts beyond this are
/// still *correct* (determinism is verified) but cannot speed anything up;
/// the JSON artifact records it so speedups are interpreted against the
/// right ceiling.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Serializes throughput rows as a JSON artifact (`BENCH_throughput.json`
/// by convention) — hand-rolled because the offline serde shim does not
/// serialize.
pub fn to_json(results: &[ThroughputRow]) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": \"ingest_throughput\",\n  \"hardware_threads\": {},\n  \"rows\": [\n",
        hardware_threads()
    );
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"clients\": {}, \"workers\": {}, \"mix_shards\": {}, \
             \"ingest_seconds\": {:.6}, \"mix_seconds\": {:.6}, \
             \"updates_per_sec\": {:.2}, \"speedup_vs_sequential\": {:.3}}}{}\n",
            r.clients,
            r.workers,
            r.mix_shards,
            r.ingest_seconds,
            r.mix_seconds,
            r.updates_per_sec,
            r.speedup_vs_sequential,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ExperimentScale};

    #[test]
    fn sweep_measures_and_verifies_determinism() {
        let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 1);
        // Small cells: determinism is asserted inside run().
        let rows = run(&setup, &[8], &[1, 2, 4], 2).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].workers, 1);
        assert!((rows[0].speedup_vs_sequential - 1.0).abs() < 1e-9);
        for r in &rows {
            assert!(r.updates_per_sec > 0.0);
            assert!(r.ingest_seconds > 0.0);
        }
    }

    #[test]
    fn overhead_measurement_produces_sane_figures() {
        let report = measure_overhead(9, 8, 2).unwrap();
        assert_eq!(report.clients, 8);
        assert_eq!(report.repeats, 2);
        // Every update is opened, committed and byte-counted, and the
        // batch mix records its span, counter, distribution and trace.
        assert!(
            report.hook_calls >= 3 * 8,
            "{} hook calls",
            report.hook_calls
        );
        assert!(report.per_hook_ns > 0.0);
        assert!(report.pass_seconds > 0.0);
        assert!(report.overhead_fraction > 0.0 && report.overhead_fraction.is_finite());
        assert!(report.noise_floor >= 0.0 && report.noise_floor.is_finite());
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, ExperimentScale::Quick, 1);
        let rows = run(&setup, &[4], &[1, 2], 1).unwrap();
        let json = to_json(&rows);
        assert!(json.contains("\"ingest_throughput\""));
        assert_eq!(json.matches("\"workers\"").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
