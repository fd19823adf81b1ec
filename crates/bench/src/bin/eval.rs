//! `eval` — regenerates every evaluation artifact of the MixNN paper.
//!
//! ```text
//! eval <experiment|all> [options]        run `eval --list` for the registry
//!
//! Options:
//!   --list                                         enumerate registered experiments
//!   --dataset <cifar10|motionsense|mobiact|lfw>   one dataset (default: all four)
//!   --quick                                        shrunk configuration (fast smoke run)
//!   --seed <u64>                                   base seed (default 42)
//!   --repeats <n>                                  repetitions to average (default 1; paper uses 5)
//!   --sigma <f32>                                  noisy-gradient noise scale override
//!   --passive                                      run ∇Sim passively (fig7/fig8; default active)
//!   --round <n>                                    evaluation round for fig6 (default 6)
//!   --radius <f32>                                 neighbour radius for fig9, on unit-normalized
//!                                                  gradients (default 1.25; see EXPERIMENTS.md)
//!   --clients <n>                                  clients for sysperf/cascade/topology (default 16)
//!   --parallel                                     extended worker/pipeline sweep for cascade
//!   --load-clients <n>                             simulated clients for load (default 100000,
//!                                                  quick 2000)
//!   --out <path>                                   JSON artifact path override
//!                                                  (throughput: BENCH_throughput.json,
//!                                                   cascade: BENCH_cascade.json,
//!                                                   topology: BENCH_topology.json,
//!                                                   load: BENCH_load.json,
//!                                                   pooled: BENCH_pooled.json,
//!                                                   compress: BENCH_compress.json)
//!   --metrics-out <path>                           write the run's Prometheus metrics
//!                                                  snapshot (throughput/cascade/load)
//! ```
//!
//! `throughput` sweeps the parallel ingest pipeline over worker counts
//! {1,2,4,8} and round sizes {32,128,512} (quick: {8,32}), verifying that
//! every configuration mixes bit-identically, and writes the measured
//! speedups to the JSON artifact. `cascade` sweeps the multi-hop mix
//! cascade over hop counts 1..4 × every colluding subset of hops,
//! asserting bit-identical aggregates against the single-proxy baseline,
//! and sweeps the parallel cascade engine (ingest workers × route-group
//! workers × pipeline depth; `--parallel` extends the worker set) with
//! every configuration verified bit-identical to the sequential drive.
//! `topology` compares the three cascade layouts (linear, stratified,
//! free-route) over hop counts 2..4 × every colluding subset, asserting
//! the same bit-identical aggregate and recording per-client
//! anonymity-set distributions. `load` drives 10^5 (default) simulated
//! clients through the cascade wire under batched and per-envelope
//! flushing, reporting sustained updates/s, p50/p99/p99.9 round latency,
//! peak queue depths and wire bytes per client — all virtual-time
//! derived, so the artifact is deterministic per seed and config.
//! `pooled` trickles clients into a continuous mix pool and sweeps the
//! pool threshold k × the firing deadline, asserting the k-floor (every
//! fired pool and route group padded to ≥ k with hop-generated cover)
//! and bit-identical dummy-stripped aggregates, and recording pools by
//! trigger, cover overhead, p50/p99 added latency and residual
//! anonymity-set sizes. `compress` sweeps the MIXN v2 wire codec (f32 /
//! int8 / int8+topk) over wire bytes per client, sustained updates/s and
//! stripped-aggregate error against the lossless baseline across all
//! three layouts, asserting route-group size uniformity (cover updates
//! included) and the ≥4x compressed-byte budget.

use mixnn_attacks::AttackMode;
use mixnn_bench::experiments::{
    background, cascade, compress, inference, load, pooled, robustness, sysperf, throughput,
    topology, utility, utility_cdf,
};
use mixnn_bench::{report, DatasetKind, Defense, ExperimentScale, ExperimentSetup};
use mixnn_telemetry::{
    check_counter_monotonicity, validate_prometheus, Registry, Telemetry, VirtualClock,
};
use std::process::ExitCode;

/// The experiment registry: every runnable command with its one-line
/// description and handler. `eval --list`, the usage line and command
/// dispatch all derive from this single table, so a new experiment is
/// added in exactly one place (`all` is the only special case).
/// One registry row: command name, one-line description, handler.
type Experiment = (
    &'static str,
    &'static str,
    fn(&Options) -> Result<(), String>,
);

const EXPERIMENTS: &[Experiment] = &[
    (
        "fig5",
        "Model accuracy per learning round (utility, Fig. 5)",
        run_fig5,
    ),
    ("fig6", "CDF of per-participant accuracy (Fig. 6)", run_fig6),
    (
        "fig7",
        "∇Sim attribute-inference accuracy per round (Fig. 7)",
        run_fig7,
    ),
    (
        "fig8",
        "Inference accuracy vs adversary background knowledge (Fig. 8)",
        run_fig8,
    ),
    (
        "fig9",
        "CDF of close-gradient neighbours (robustness, Fig. 9)",
        run_fig9,
    ),
    (
        "sysperf",
        "§6.5 proxy pipeline cost and memory breakdown",
        run_sysperf,
    ),
    (
        "throughput",
        "Parallel-ingest scaling sweep -> BENCH_throughput.json",
        run_throughput,
    ),
    (
        "cascade",
        "Mix cascade: hop count x colluding subsets -> BENCH_cascade.json",
        run_cascade,
    ),
    (
        "topology",
        "Cascade layouts: linear vs stratified vs free-route -> BENCH_topology.json",
        run_topology,
    ),
    (
        "load",
        "Simulated-network load generation: batched vs per-envelope flush -> BENCH_load.json",
        run_load,
    ),
    (
        "pooled",
        "Continuous pooled mixing: k x deadline sweep with cover traffic -> BENCH_pooled.json",
        run_pooled,
    ),
    (
        "compress",
        "MIXN v2 codec: f32 vs int8 vs int8+topk wire cost and accuracy -> BENCH_compress.json",
        run_compress,
    ),
];

/// The one command that is not a row of [`EXPERIMENTS`]: it iterates them.
const ALL_COMMAND: (&str, &str) = ("all", "Every experiment above, in sequence");

#[derive(Debug)]
struct Options {
    datasets: Vec<DatasetKind>,
    scale: ExperimentScale,
    seed: u64,
    repeats: usize,
    sigma: Option<f32>,
    mode: AttackMode,
    round: usize,
    radius: f32,
    clients: usize,
    parallel: bool,
    out: Option<String>,
    load_clients: Option<usize>,
    metrics_out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            datasets: DatasetKind::ALL.to_vec(),
            scale: ExperimentScale::Paper,
            seed: 42,
            repeats: 1,
            sigma: None,
            mode: AttackMode::Active,
            round: 6,
            radius: 1.25,
            clients: 16,
            parallel: false,
            out: None,
            load_clients: None,
            metrics_out: None,
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--dataset" => {
                let v = take_value(&mut i)?;
                let kind =
                    DatasetKind::parse(&v).ok_or_else(|| format!("unknown dataset '{v}'"))?;
                opts.datasets = vec![kind];
            }
            "--quick" => opts.scale = ExperimentScale::Quick,
            "--seed" => opts.seed = take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--repeats" => {
                opts.repeats = take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--sigma" => {
                opts.sigma = Some(take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--passive" => opts.mode = AttackMode::Passive,
            "--round" => opts.round = take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--radius" => opts.radius = take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--clients" => {
                opts.clients = take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--parallel" => opts.parallel = true,
            "--load-clients" => {
                opts.load_clients = Some(take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--out" => opts.out = Some(take_value(&mut i)?),
            "--metrics-out" => opts.metrics_out = Some(take_value(&mut i)?),
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    Ok(opts)
}

fn setups(opts: &Options) -> Vec<ExperimentSetup> {
    opts.datasets
        .iter()
        .map(|&kind| {
            let mut setup = ExperimentSetup::at_scale(kind, opts.scale, opts.seed);
            if let Some(sigma) = opts.sigma {
                setup.noise_sigma = sigma;
            }
            setup
        })
        .collect()
}

fn run_fig5(opts: &Options) -> Result<(), String> {
    for setup in setups(opts) {
        let points = utility::run(&setup, opts.repeats).map_err(|e| e.to_string())?;
        report::print_table(
            &format!(
                "Figure 5 ({}): model accuracy per learning round",
                setup.kind.name()
            ),
            &["dataset", "defense", "round", "accuracy", "loss"],
            &utility::rows(&points),
        );
    }
    Ok(())
}

fn run_fig6(opts: &Options) -> Result<(), String> {
    for setup in setups(opts) {
        let (points, means) = utility_cdf::run(&setup, opts.round).map_err(|e| e.to_string())?;
        report::print_table(
            &format!(
                "Figure 6 ({}): CDF of per-participant accuracy at round {}",
                setup.kind.name(),
                opts.round
            ),
            &["dataset", "defense", "accuracy", "cdf"],
            &utility_cdf::rows(&points),
        );
        let mean_rows: Vec<Vec<String>> = means
            .iter()
            .map(|m| vec![m.defense.clone(), report::fmt3(m.mean_accuracy)])
            .collect();
        report::print_table(
            &format!("Figure 6 ({}): population means", setup.kind.name()),
            &["defense", "mean accuracy"],
            &mean_rows,
        );
    }
    Ok(())
}

fn run_fig7(opts: &Options) -> Result<(), String> {
    for setup in setups(opts) {
        let points =
            inference::run(&setup, opts.mode, 0.8, opts.repeats).map_err(|e| e.to_string())?;
        report::print_table(
            &format!(
                "Figure 7 ({}): ∇Sim {} inference accuracy per round",
                setup.kind.name(),
                match opts.mode {
                    AttackMode::Active => "active",
                    AttackMode::Passive => "passive",
                }
            ),
            &[
                "dataset",
                "defense",
                "round",
                "inference accuracy",
                "chance",
            ],
            &inference::rows(&points),
        );
    }
    Ok(())
}

fn run_fig8(opts: &Options) -> Result<(), String> {
    for setup in setups(opts) {
        let points = background::run(&setup, &background::DEFAULT_FRACTIONS, opts.mode)
            .map_err(|e| e.to_string())?;
        report::print_table(
            &format!(
                "Figure 8 ({}): inference accuracy vs background knowledge",
                setup.kind.name()
            ),
            &[
                "dataset",
                "defense",
                "background",
                "inference accuracy",
                "chance",
            ],
            &background::rows(&points),
        );
    }
    Ok(())
}

fn run_fig9(opts: &Options) -> Result<(), String> {
    for setup in setups(opts) {
        let (points, counts) =
            robustness::run(&setup, 2, opts.radius).map_err(|e| e.to_string())?;
        report::print_table(
            &format!(
                "Figure 9 ({}): CDF of close-gradient neighbours (radius {})",
                setup.kind.name(),
                opts.radius
            ),
            &["dataset", "neighbors", "cdf"],
            &robustness::rows(&points),
        );
        let with_neighbors = counts.iter().filter(|&&c| c > 0).count();
        println!(
            "{} / {} participants have at least one alter ego within the radius",
            with_neighbors,
            counts.len()
        );
    }
    Ok(())
}

fn run_sysperf(opts: &Options) -> Result<(), String> {
    // Sysperf uses a single dataset's geometry (CIFAR10 in the paper).
    let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, opts.scale, opts.seed);
    let results = sysperf::run(&setup, opts.clients).map_err(|e| e.to_string())?;
    report::print_table(
        &format!(
            "Section 6.5: proxy pipeline cost ({} clients, encrypted path)",
            opts.clients
        ),
        &[
            "model",
            "params",
            "update MB",
            "decrypt ms",
            "store ms",
            "process ms",
            "mix ms",
            "EPC high-water MB",
        ],
        &sysperf::rows(&results),
    );
    println!(
        "\nNote: the paper reports 0.19 s / 26.9 MB (2conv+3fc) and 0.22 s / 51.3 MB\n\
         (3conv+3fc) for TensorFlow-scale models on a 2016 laptop; the reproduction\n\
         targets the *shape* (decrypt-dominated, scaling with model size).",
    );
    let _ = Defense::lineup(0.0);
    Ok(())
}

/// Splices the registry's JSON snapshot into a hand-rolled `{...}` BENCH
/// artifact as a top-level `"telemetry"` key, so the shared registry's
/// counters ship alongside the experiment rows they describe.
fn embed_telemetry(artifact: String, telemetry: &Telemetry) -> String {
    let trimmed = artifact.trim_end();
    let body = trimmed
        .strip_suffix('}')
        .expect("BENCH artifacts are JSON objects");
    format!(
        "{},\n  \"telemetry\": {}\n}}\n",
        body.trim_end(),
        telemetry.snapshot().to_json("  ")
    )
}

/// Renders the registry's final Prometheus snapshot, enforces the export
/// gates (well-formed exposition text, bounded cardinality, no forbidden
/// label axes, counters monotone since `mid_prom`), and writes it to
/// `--metrics-out` when requested.
fn export_metrics(
    telemetry: &Telemetry,
    mid_prom: &str,
    metrics_out: Option<&str>,
) -> Result<(), String> {
    let text = telemetry.snapshot().to_prometheus();
    let summary = validate_prometheus(&text).map_err(|e| format!("metrics export invalid: {e}"))?;
    check_counter_monotonicity(mid_prom, &text)
        .map_err(|e| format!("counter regressed during the run: {e}"))?;
    println!(
        "Telemetry export validated: {} families, {} series, max {} label set(s) per family.",
        summary.families, summary.series, summary.max_label_sets
    );
    if let Some(path) = metrics_out {
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("Metrics written to {path}.");
    }
    Ok(())
}

fn run_throughput(opts: &Options) -> Result<(), String> {
    let out = opts.out.as_deref().unwrap_or("BENCH_throughput.json");
    let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, opts.scale, opts.seed);
    let telemetry = Registry::new().shared();
    let clients: &[usize] = match opts.scale {
        ExperimentScale::Paper => &throughput::DEFAULT_CLIENTS,
        ExperimentScale::Quick => &[8, 32],
    };
    let results = throughput::run_with(
        &setup,
        clients,
        &throughput::DEFAULT_WORKERS,
        opts.repeats,
        &telemetry,
    )
    .map_err(|e| e.to_string())?;
    let mid_prom = telemetry.snapshot().to_prometheus();
    report::print_table(
        "Ingest throughput: parallel pipeline vs sequential (encrypted path)",
        &[
            "clients",
            "workers",
            "ingest ms",
            "mix ms",
            "updates/s",
            "speedup",
        ],
        &throughput::rows(&results),
    );
    std::fs::write(
        out,
        embed_telemetry(throughput::to_json(&results), &telemetry),
    )
    .map_err(|e| format!("writing {out}: {e}"))?;
    let threads = throughput::hardware_threads();
    println!(
        "\nAll worker counts produced bit-identical mixed outputs (verified).\n\
         Results written to {out}."
    );
    println!("Hardware threads available: {threads}.");
    if threads < 4 {
        println!(
            "NOTE: fewer than 4 hardware threads — worker counts beyond {threads} cannot\n\
             speed up the wall-clock on this host; expect speedup ~1.0x here and\n\
             ~min(workers, cores)x on the decrypt share of the budget elsewhere."
        );
    }

    // The hooks stay enabled in production paths, so their cost is
    // estimated and gated every run: hook calls counted over one enabled
    // pass × the slowest hook kind's microbenchmarked cost ÷ pass time.
    // A wall-clock difference of two ~10 ms passes cannot resolve 2% on a
    // shared host; the count is exact and the per-call cost is stable.
    let overhead_clients = match opts.scale {
        ExperimentScale::Paper => 256,
        ExperimentScale::Quick => 64,
    };
    let overhead = throughput::measure_overhead(opts.seed, overhead_clients, opts.repeats.max(15))
        .map_err(|e| e.to_string())?;
    println!(
        "Telemetry hook overhead (sequential ingest+mix, {} updates, median of {} repeats):\n\
         {} hook calls x {:.1} ns / {:.4} s pass -> {:.3}% ± {:.3}% noise floor (gate: {:.0}%).",
        overhead.clients,
        overhead.repeats,
        overhead.hook_calls,
        overhead.per_hook_ns,
        overhead.pass_seconds,
        overhead.overhead_fraction * 100.0,
        overhead.noise_floor * 100.0,
        throughput::MAX_TELEMETRY_OVERHEAD * 100.0,
    );
    if overhead.overhead_fraction > throughput::MAX_TELEMETRY_OVERHEAD {
        return Err(format!(
            "telemetry hook overhead {:.2}% exceeds the {:.0}% ceiling",
            overhead.overhead_fraction * 100.0,
            throughput::MAX_TELEMETRY_OVERHEAD * 100.0
        ));
    }
    export_metrics(&telemetry, &mid_prom, opts.metrics_out.as_deref())
}

fn run_cascade(opts: &Options) -> Result<(), String> {
    let out = opts.out.as_deref().unwrap_or("BENCH_cascade.json");
    let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, opts.scale, opts.seed);
    let telemetry = Registry::new().shared();
    let parallel_configs: &[(usize, usize)] = if opts.parallel {
        &cascade::EXTENDED_PARALLEL
    } else {
        &cascade::DEFAULT_PARALLEL
    };
    let sweep = cascade::run_with(
        &setup,
        opts.scale,
        opts.clients,
        &cascade::DEFAULT_HOPS,
        parallel_configs,
        opts.repeats,
        &telemetry,
    )
    .map_err(|e| e.to_string())?;
    let mid_prom = telemetry.snapshot().to_prometheus();
    report::print_table(
        &format!(
            "Mix cascade: per-hop cost over hop counts {:?} ({} clients, onion path)",
            cascade::DEFAULT_HOPS,
            opts.clients
        ),
        &[
            "hops",
            "hop",
            "decrypt ms",
            "store ms",
            "mix ms",
            "recv MB",
            "round ms",
            "updates/s",
        ],
        &cascade::perf_rows(&sweep),
    );
    report::print_table(
        "Colluding-subset adversary: residual linkability per subset of hops",
        &["hops", "colluding", "linkable", "anonymity set"],
        &cascade::collusion_rows(&sweep),
    );
    report::print_table(
        "Parallel cascade engine: worker/pipeline sweep (free-route, grouped)",
        &[
            "workers",
            "depth",
            "hops",
            "rounds x clients",
            "batch ms",
            "updates/s",
            "speedup",
        ],
        &cascade::parallel_rows(&sweep),
    );
    std::fs::write(
        out,
        embed_telemetry(cascade::to_json(&sweep, opts.clients), &telemetry),
    )
    .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "\nAsserted at every hop count: the unmixed server aggregate is bit-identical\n\
         to the single-proxy baseline, and the audit restores the original updates\n\
         bit-exactly. Only the all-hops-colluding subsets report linkability 1.00.\n\
         Every parallel configuration reproduced the sequential outputs bit-for-bit.\n\
         Results written to {out}."
    );
    let threads = throughput::hardware_threads();
    if threads < 4 {
        println!(
            "NOTE: {threads} hardware thread(s) — expect parallel speedup ~1.0x here and\n\
             ~min(workers, cores)x on the decrypt share of the budget elsewhere."
        );
    }
    export_metrics(&telemetry, &mid_prom, opts.metrics_out.as_deref())
}

fn run_topology(opts: &Options) -> Result<(), String> {
    let out = opts.out.as_deref().unwrap_or("BENCH_topology.json");
    let setup = ExperimentSetup::at_scale(DatasetKind::Cifar10, opts.scale, opts.seed);
    let sweep = topology::run(&setup, opts.scale, opts.clients, &topology::DEFAULT_HOPS)
        .map_err(|e| e.to_string())?;
    report::print_table(
        &format!(
            "Cascade layouts over hop counts {:?} ({} clients, onion path)",
            topology::DEFAULT_HOPS,
            opts.clients
        ),
        &[
            "layout",
            "hops",
            "groups",
            "group sizes",
            "mean route",
            "round ms",
        ],
        &topology::structure_rows(&sweep),
    );
    report::print_table(
        "Routed colluding-subset adversary: per-client anonymity per layout",
        &[
            "layout",
            "hops",
            "colluding",
            "linkable",
            "linked",
            "mean set",
            "distribution",
        ],
        &topology::collusion_rows(&sweep),
    );
    std::fs::write(out, topology::to_json(&sweep, opts.clients))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "\nAsserted for every layout and hop count: the server aggregate is bit-identical\n\
         to the single-proxy baseline and the audit inverts every route group exactly.\n\
         A client is linked iff the colluding subset covers its whole route (or its\n\
         route is unique); otherwise its anonymity set is its full route group.\n\
         Results written to {out}."
    );
    Ok(())
}

fn run_load(opts: &Options) -> Result<(), String> {
    let out = opts.out.as_deref().unwrap_or("BENCH_load.json");
    // The load generator runs entirely in virtual time, so its registry
    // gets a virtual clock: the simulator drives it and every recorded
    // timestamp reproduces byte for byte.
    let telemetry = Registry::with_virtual_clock(VirtualClock::default()).shared();
    let rows = load::run_with(opts.scale, opts.load_clients, opts.seed, &telemetry)?;
    let mid_prom = telemetry.snapshot().to_prometheus();
    report::print_table(
        &format!(
            "Simulated-network load: batched vs per-envelope flush ({} clients x {} rounds)",
            rows[0].clients, rows[0].rounds
        ),
        &[
            "flush",
            "codec",
            "clients",
            "rounds",
            "updates/s",
            "p50 s",
            "p99 s",
            "p99.9 s",
            "peak sendq",
            "peak recvq",
            "B/client",
            "framing",
            "packets",
        ],
        &load::rows(&rows),
    );
    std::fs::write(out, embed_telemetry(load::to_json(&rows), &telemetry))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "\nAll figures are virtual-time derived (deterministic per seed and config).\n\
         Verified before measuring: a real crypto-carrying cascade round delivered\n\
         over the simulated wire is bit-identical to the in-process drive; batched\n\
         flushing beat the per-envelope baseline; batched framing overhead stayed\n\
         under {:.0}% of payload (cross-checked against the ~23 KB/client/round\n\
         figure in ROADMAP.md, ratio {:.2}).\n\
         Results written to {out}.",
        load::MAX_FRAMING_OVERHEAD * 100.0,
        rows[0].roadmap_bytes_ratio,
    );
    println!(
        "Round trace: {} event(s) on the virtual clock (byte-identical across reruns).",
        telemetry.trace_events().len()
    );
    export_metrics(&telemetry, &mid_prom, opts.metrics_out.as_deref())
}

fn run_pooled(opts: &Options) -> Result<(), String> {
    let out = opts.out.as_deref().unwrap_or("BENCH_pooled.json");
    // Pool deadlines are measured on the registry clock, so the registry
    // gets a virtual clock: the arrival schedule drives it and every
    // firing decision reproduces byte for byte.
    let telemetry = Registry::with_virtual_clock(VirtualClock::default()).shared();
    let rows = pooled::run_with(opts.scale, opts.seed, &telemetry)?;
    let mid_prom = telemetry.snapshot().to_prometheus();
    report::print_table(
        &format!(
            "Continuous pooled mixing: k x deadline sweep ({} clients trickled, {} hops)",
            rows[0].clients,
            pooled::HOPS
        ),
        &[
            "k",
            "deadline ms",
            "pools",
            "thr/ddl/flush",
            "mean depth",
            "dummies",
            "wait p50 ms",
            "wait p99 ms",
            "mean anon",
            "min anon",
        ],
        &pooled::rows(&rows),
    );
    std::fs::write(out, embed_telemetry(pooled::to_json(&rows), &telemetry))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "\nAsserted at every (k, deadline) point: each fired pool and each of its route\n\
         groups meets the k-floor (real + cover >= k); the dummy-stripped server\n\
         aggregate is bit-identical to a dummy-free reference round over the same\n\
         updates; and every client is committed by exactly one pool. All figures are\n\
         virtual-time derived (deterministic per seed and scale).\n\
         Results written to {out}."
    );
    export_metrics(&telemetry, &mid_prom, opts.metrics_out.as_deref())
}

fn run_compress(opts: &Options) -> Result<(), String> {
    let out = opts.out.as_deref().unwrap_or("BENCH_compress.json");
    let rows = compress::run(opts.scale, opts.seed)?;
    report::print_table(
        &format!(
            "MIXN v2 codec: wire cost and aggregate accuracy ({} simulated clients)",
            rows[0].clients
        ),
        &[
            "mode",
            "B/client",
            "reduction",
            "updates/s",
            "rmse",
            "max |err|",
            "tolerance",
            "onion B",
        ],
        &compress::rows(&rows),
    );
    std::fs::write(out, compress::to_json(&rows)).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "\nAsserted per mode and layout (linear, stratified, free-route): every sealed\n\
         onion of a route — real clients and hop-generated cover alike — encodes to\n\
         one length, so compression adds no linkability side channel; the stripped\n\
         aggregate stays within the stated RMSE tolerance of the lossless baseline;\n\
         and int8+topk cuts wire bytes ≥{:.0}x to ≤{:.0} B/client/round ({:.2}x, {:.0} B\n\
         measured). All figures are deterministic per seed and scale.\n\
         Results written to {out}.",
        compress::MIN_REDUCTION,
        compress::MAX_COMPRESSED_BYTES,
        rows[2].reduction_vs_f32,
        rows[2].bytes_on_wire_per_client,
    );
    Ok(())
}

fn print_experiment_list() {
    println!("registered experiments:");
    for (name, description, _) in EXPERIMENTS {
        println!("  {name:<12} {description}");
    }
    let (name, description) = ALL_COMMAND;
    println!("  {name:<12} {description}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--list` is only a command substitute in command position; after an
    // explicit command it falls through to option parsing and is rejected
    // there, rather than silently discarding the requested experiment.
    if args.first().map(String::as_str) == Some("--list") {
        print_experiment_list();
        return ExitCode::SUCCESS;
    }
    let Some((command, rest)) = args.split_first() else {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _, _)| *name).collect();
        names.push(ALL_COMMAND.0);
        eprintln!(
            "usage: eval <{}> [options]\nrun `eval --list` for one-line descriptions",
            names.join("|")
        );
        return ExitCode::FAILURE;
    };
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if command == ALL_COMMAND.0 {
        // `--out` names exactly one file, but `all` runs two JSON-writing
        // experiments (throughput and cascade); honoring the override would
        // clobber one artifact with the other, so reject the combination
        // rather than silently dropping the flag.
        if opts.out.is_some() {
            eprintln!(
                "error: --out names a single file but 'all' writes several artifacts;\n\
                 run the experiments individually to redirect their outputs"
            );
            return ExitCode::FAILURE;
        }
        // Same clobbering hazard for the Prometheus export: each handler
        // would overwrite the previous one's metrics file.
        if opts.metrics_out.is_some() {
            eprintln!(
                "error: --metrics-out names a single file but 'all' runs several experiments;\n\
                 run the experiments individually to export their metrics"
            );
            return ExitCode::FAILURE;
        }
        EXPERIMENTS
            .iter()
            .try_for_each(|(_, _, handler)| handler(&opts))
    } else if let Some((_, _, handler)) = EXPERIMENTS.iter().find(|(name, _, _)| name == command) {
        handler(&opts)
    } else {
        Err(format!(
            "unknown command '{command}' (run `eval --list` for the registry)"
        ))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
