//! The closed loop: set up, warm up, then drive FL rounds for the asked
//! number of seconds and reduce what was measured to the reported metrics.

use crate::gate::{check_aggregate, reference_aggregate, rms, rmse};
use crate::inputs::round_updates;
use crate::stats::tail;
use crate::trace::Tracer;
use crate::workloads::{self, Trace, Workload};
use crate::{host, json, END_TO_END, PER_LAYER};
use mixnn_bench::report::percentile;
use mixnn_nn::ModelParams;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Deployments built per untraced run, spread evenly over it so that
/// `setup_s` (their median) samples the same host conditions as the
/// rounds.
const SETUP_REPS: usize = 25;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (see [`workloads::NAMES`]).
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Wall seconds to keep starting rounds for (at least one round runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where the traced run writes its spans (`None`: not written).
    pub trace_out: Option<PathBuf>,
    /// Flips the last bit of every server aggregate before the gate sees
    /// it — a broken system, for testing that the gate fails the run.
    pub perturb_aggregate: bool,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every round passed every check.
    pub correct: bool,
    /// Rounds attempted (warm-up excluded).
    pub attempted: u64,
    /// Rounds that failed.
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = String::from("{\"correct\": ");
        out.push_str(if self.correct { "true" } else { "false" });
        out.push_str(&format!(
            ", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        ));
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_str(&mut out, name);
            out.push_str(": {\"value\": ");
            json::push_num(&mut out, *value);
            out.push_str(", \"unit\": ");
            json::push_str(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// The round's inputs and what the gate compares against.
struct RoundInputs {
    updates: Vec<ModelParams>,
    reference: ModelParams,
    /// The f32 FedAvg mean of the originals, for lossy codecs only (for
    /// lossless ones it is `reference`).
    f32_mean: Option<ModelParams>,
}

fn inputs(w: &dyn Workload, seed: u64, round: u64) -> RoundInputs {
    let updates = round_updates(w.signature(), w.clients(), seed, round);
    let reference = reference_aggregate(&updates, w.compression());
    let f32_mean = (!w.compression().is_f32())
        .then(|| ModelParams::mean(&updates).expect("generated updates share one signature"));
    RoundInputs {
        updates,
        reference,
        f32_mean,
    }
}

impl RoundInputs {
    /// The aggregate's error against the f32 FedAvg mean, absolute and
    /// relative to that mean's RMS.
    fn error(&self, aggregate: &ModelParams) -> (f64, f64) {
        match &self.f32_mean {
            Some(mean) => {
                let e = rmse(aggregate, mean);
                (e, e / rms(mean))
            }
            None => (0.0, 0.0),
        }
    }
}

/// Flips the last bit of the aggregate's first value when `on`.
fn perturb(aggregate: &mut ModelParams, on: bool) {
    if on {
        if let Some(v) = aggregate
            .layer_mut(0)
            .and_then(|l| l.values_mut().first_mut())
        {
            *v = f32::from_bits(v.to_bits() ^ 1);
        }
    }
}

/// Seals this round's sampled participants' updates on the client side,
/// returning each seal's wall time in ms.
fn seal_samples(
    w: &mut dyn Workload,
    updates: &[ModelParams],
    round: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<f64>, String> {
    let n = w.seal_samples();
    (0..n)
        .map(|j| {
            let slot = (round as usize * n + j) % updates.len();
            let trace = tracer.as_deref_mut().map(|tracer| Trace {
                tracer,
                parent: None,
                round,
            });
            let t0 = Instant::now();
            w.seal_client(slot, &updates[slot], trace)?;
            Ok(t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Runs one configured benchmark.
///
/// # Errors
///
/// An unknown workload or a failed set-up (a failed *round* is counted,
/// not an error).
pub fn run(opts: &Options) -> Result<Report, String> {
    let notes = vec![
        format!(
            "flbench: workload={} seed={} seconds={} trace={}",
            opts.workload,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        ),
        host::facts(),
    ];
    if opts.trace {
        run_traced(opts, notes)
    } else {
        run_untraced(opts, notes)
    }
}

/// Builds the workload's deployment once more, timing it.
fn timed_setup(opts: &Options) -> Result<(Box<dyn Workload>, f64), String> {
    let t0 = Instant::now();
    let w = workloads::setup(&opts.workload, opts.seed, false)?;
    Ok((w, t0.elapsed().as_secs_f64()))
}

/// Runs the warm-up round; its inputs also size `wire_bytes_per_update`.
fn warm_up(w: &mut dyn Workload, seed: u64) -> Result<f64, String> {
    let input = inputs(w, seed, 0);
    let out = w.round(input.updates.clone(), None)?;
    check_aggregate(&out.aggregate, &input.reference)?;
    w.after_round(None)?;
    w.wire_bytes_per_update(&input.updates)
}

fn run_untraced(opts: &Options, mut notes: Vec<String>) -> Result<Report, String> {
    let (mut w, first_setup_s) = timed_setup(opts)?;
    let mut setup_s = vec![first_setup_s];
    notes.push(format!(
        "load: closed loop, one FL server, one round in flight, {} clients per round, \
         workers={}",
        w.clients(),
        mixnn_core::Parallelism::available().ingest_workers
    ));
    let wire_bytes = warm_up(w.as_mut(), opts.seed)?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut real, mut sealed, mut anon_min) = (0usize, 0usize, usize::MAX);
    let (mut round_ms, mut seal_ms, mut rel_err) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 1u64;
    while attempted == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let mut input = inputs(w.as_ref(), opts.seed, round);
        seal_ms.extend(seal_samples(w.as_mut(), &input.updates, round, None)?);
        let updates = std::mem::take(&mut input.updates);
        let t0 = Instant::now();
        let result = w.round(updates, None).and_then(|mut out| {
            perturb(&mut out.aggregate, opts.perturb_aggregate);
            check_aggregate(&out.aggregate, &input.reference).map(|()| out)
        });
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let result = result.and_then(|out| w.after_round(None).map(|()| out));
        attempted += 1;
        match result {
            Ok(out) => {
                round_ms.push(elapsed_ms);
                real += out.real;
                sealed += out.sealed;
                anon_min = anon_min.min(out.anon_min);
                rel_err.push(input.error(&out.aggregate).1);
            }
            Err(e) => {
                failed += 1;
                eprintln!("round {round} failed: {e}");
            }
        }
        let due = setup_s.len() as f64 * opts.seconds / SETUP_REPS as f64;
        if setup_s.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            setup_s.push(timed_setup(opts)?.1);
        }
        round += 1;
    }
    while setup_s.len() < SETUP_REPS {
        setup_s.push(timed_setup(opts)?.1);
    }
    let (round_tail, round_rank) = tail(&round_ms);
    let (seal_tail, seal_rank) = tail(&seal_ms);
    let timed_s: f64 = round_ms.iter().sum::<f64>() / 1e3;
    notes.push(format!(
        "rounds: {attempted} timed after 1 warm-up; round_ms.tail is p{round_rank:.1} of \
         n={}; client_seal_ms.tail is p{seal_rank:.1} of n={}",
        round_ms.len(),
        seal_ms.len()
    ));
    // Printed for context only: on a host whose speed shifts between
    // phases these do not repeat across runs (see README.md).
    notes.push(format!(
        "ungated: updates_per_s = {} 1/s, round_ms.p50 = {} ms, client_seal_ms.p50 = {} ms",
        real as f64 / timed_s,
        percentile(&round_ms, 0.5),
        percentile(&seal_ms, 0.5)
    ));
    let values: BTreeMap<&str, f64> = [
        ("round_ms.tail", round_tail),
        ("client_seal_ms.tail", seal_tail),
        ("wire_bytes_per_update", wire_bytes),
        (
            "aggregate_fidelity",
            1.0 / (1.0 + percentile(&rel_err, 0.5)),
        ),
        (
            "anon_set.min",
            if anon_min == usize::MAX {
                0.0
            } else {
                anon_min as f64
            },
        ),
        (
            "real_frac",
            if sealed > 0 {
                real as f64 / sealed as f64
            } else {
                0.0
            },
        ),
        ("setup_s", percentile(&setup_s, 0.5)),
        ("peak_rss_mb", host::peak_rss_mb()),
        (
            "success_frac",
            (attempted - failed) as f64 / attempted as f64,
        ),
    ]
    .into_iter()
    .collect();
    Ok(finish(END_TO_END, &values, attempted, failed, notes))
}

fn finish(
    specs: &[crate::MetricSpec],
    values: &BTreeMap<&str, f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
) -> Report {
    let metrics = specs
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn run_traced(opts: &Options, mut notes: Vec<String>) -> Result<Report, String> {
    let mut w = workloads::setup(&opts.workload, opts.seed, true)?;
    warm_up(w.as_mut(), opts.seed)?;
    let mut tracer = Tracer::default();
    let (mut attempted, mut failed, mut traced_rounds) = (0u64, 0u64, 0usize);
    let (mut plain_ms, mut traced_ms, mut abs_err) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 1u64;
    while attempted == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let input = inputs(w.as_ref(), opts.seed, round);
        seal_samples(w.as_mut(), &input.updates, round, Some(&mut tracer))?;
        // Both drives on the same inputs, alternating which goes first.
        let mut aggregates: [Option<ModelParams>; 2] = [None, None];
        let mut outcome = Ok(());
        for pass in 0..2 {
            let traced = (pass + round as usize) % 2 == 1;
            let updates = input.updates.clone();
            let result = if traced {
                let root = tracer.open("round", None, round);
                let result = w
                    .round(
                        updates,
                        Some(Trace {
                            tracer: &mut tracer,
                            parent: Some(root),
                            round,
                        }),
                    )
                    .and_then(|out| {
                        let mut aggregate = out.aggregate;
                        perturb(&mut aggregate, opts.perturb_aggregate);
                        tracer.span("bench.check", Some(root), round, 1, || {
                            check_aggregate(&aggregate, &input.reference)
                        })?;
                        Ok(aggregate)
                    });
                tracer.close(root, w.clients() as u64);
                traced_ms.push(tracer.spans()[root].duration_ns() as f64 / 1e6);
                result.and_then(|a| {
                    w.after_round(Some(Trace {
                        tracer: &mut tracer,
                        parent: None,
                        round,
                    }))
                    .map(|()| a)
                })
            } else {
                let t0 = Instant::now();
                let result = w.round(updates, None).and_then(|out| {
                    let mut aggregate = out.aggregate;
                    perturb(&mut aggregate, opts.perturb_aggregate);
                    check_aggregate(&aggregate, &input.reference).map(|()| aggregate)
                });
                plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                result.and_then(|a| w.after_round(None).map(|()| a))
            };
            match result {
                Ok(aggregate) => aggregates[usize::from(traced)] = Some(aggregate),
                Err(e) => outcome = Err(e),
            }
        }
        let outcome = outcome.and_then(|()| match &aggregates {
            [Some(plain), Some(traced)] => check_aggregate(traced, plain)
                .map_err(|e| format!("traced drive diverged from the untraced one: {e}")),
            _ => Err("a drive returned no aggregate".to_string()),
        });
        attempted += 1;
        match outcome {
            Ok(()) => {
                traced_rounds += 1;
                let traced = aggregates[1].as_ref().expect("checked above");
                abs_err.push(input.error(traced).0);
            }
            Err(e) => {
                failed += 1;
                eprintln!("round {round} failed: {e}");
            }
        }
        round += 1;
    }
    notes.push(format!(
        "traced: {attempted} rounds, each driven traced and untraced on the same inputs; \
         {} spans kept",
        tracer.spans().len()
    ));
    if let Some(path) = &opts.trace_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
    }

    let rounds = traced_rounds.max(1) as f64;
    let per_item_us = |names: &[&str]| {
        let (ns, items) = names
            .iter()
            .map(|n| tracer.totals(n))
            .fold((0, 0), |(a, b), (ns, items)| (a + ns, b + items));
        if items == 0 {
            0.0
        } else {
            ns as f64 / items as f64 / 1e3
        }
    };
    let per_round_ms = |name: &str| tracer.totals(name).0 as f64 / 1e6 / rounds;
    let client_seals = tracer.durations_ms("cascade.client.seal");
    let mut values: BTreeMap<&str, f64> = [
        (
            "crypto.seal_us_per_envelope",
            per_item_us(&["crypto.seal", "cascade.client.seal"]),
        ),
        ("cascade.client.seal_ms", percentile(&client_seals, 0.5)),
        (
            "cascade.client.envelopes",
            if client_seals.is_empty() {
                0.0
            } else {
                tracer.totals("cascade.client.seal").1 as f64 / client_seals.len() as f64
            },
        ),
        ("core.codec.encode_us", per_item_us(&["core.codec.encode"])),
        ("core.codec.decode_us", per_item_us(&["core.codec.decode"])),
        ("core.codec.aggregate_rmse", percentile(&abs_err, 0.5)),
        ("core.ingest_ms", per_round_ms("core.ingest")),
        (
            "core.proxy.mix_batch_ms",
            per_round_ms("core.proxy.mix_batch"),
        ),
        (
            "cascade.coordinator.relay_ms",
            per_round_ms("cascade.coordinator.relay"),
        ),
        (
            "cascade.pool.strip_us",
            per_item_us(&["cascade.pool.strip"]),
        ),
        ("net.deliver_ms", per_round_ms("net.deliver")),
        (
            "fl.server.aggregate_ms",
            per_round_ms("fl.server.aggregate"),
        ),
        ("trace.unattributed_frac", tracer.unattributed_frac("round")),
        (
            "trace.overhead_frac",
            percentile(&traced_ms, 0.5) / percentile(&plain_ms, 0.5) - 1.0,
        ),
    ]
    .into_iter()
    .collect();
    values.extend(w.layer_metrics(traced_rounds));
    Ok(finish(PER_LAYER, &values, attempted, failed, notes))
}
