//! End-to-end benchmark of one federated-learning round through MixNN.
//!
//! Every round of every workload follows the same closed loop: a seeded
//! generator produces the participants' updates, the updates cross the
//! system's FL-facing seam (`UpdateTransport::relay`), the aggregation
//! server runs FedAvg, and the aggregate is checked bit for bit against a
//! reference computed from the originals ([`gate`]). Only then does the
//! next round start.
//!
//! The untraced run (`--trace 0`) reports the end-to-end metrics of
//! [`END_TO_END`]; the traced run (`--trace 1`) wraps calls into each
//! crate's public functions in spans kept in memory ([`trace`]) and
//! reports the per-layer metrics of [`PER_LAYER`]. No span or counter is
//! added inside the program: layers are timed from outside, and the
//! program's own counters (`ProxyStats`, `memory_stats()`, `NetStats`,
//! the cascade audit, the pool's fired rounds) are read between rounds.

#![deny(missing_docs)]

pub mod gate;
pub mod host;
pub mod inputs;
pub mod json;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;

/// A reported metric: its name and unit, as `BENCHMARK.json` lists it.
pub type MetricSpec = (&'static str, &'static str);

/// The end-to-end metrics every workload prints with `--trace 0`.
/// `updates_per_s`, `round_ms.p50` and `client_seal_ms.p50` are printed on
/// a context line instead: they do not repeat across runs on a host whose
/// speed shifts between phases, so they cannot carry a bound.
pub const END_TO_END: &[MetricSpec] = &[
    ("round_ms.tail", "ms"),
    ("client_seal_ms.tail", "ms"),
    ("wire_bytes_per_update", "bytes"),
    ("aggregate_fidelity", "ratio"),
    ("anon_set.min", "count"),
    ("real_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
];

/// The per-layer metrics every workload prints with `--trace 1`. A layer
/// the workload does not run reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    ("crypto.seal_us_per_envelope", "us"),
    ("crypto.open_us_per_envelope", "us"),
    ("cascade.client.seal_ms", "ms"),
    ("cascade.client.envelopes", "count"),
    ("cascade.hop.decrypt_ms", "ms"),
    ("cascade.hop.store_ms", "ms"),
    ("cascade.hop.mix_ms", "ms"),
    ("cascade.hop.bytes_in", "bytes"),
    ("core.codec.encode_us", "us"),
    ("core.codec.decode_us", "us"),
    ("core.codec.aggregate_rmse", "param"),
    ("core.ingest_ms", "ms"),
    ("core.proxy.mix_batch_ms", "ms"),
    ("core.proxy.decrypt_ms", "ms"),
    ("core.proxy.store_ms", "ms"),
    ("core.proxy.rejected", "count"),
    ("cascade.coordinator.relay_ms", "ms"),
    ("cascade.topology.groups", "count"),
    ("cascade.topology.group_size.min", "count"),
    ("cascade.pool.fired.threshold", "count"),
    ("cascade.pool.fired.deadline", "count"),
    ("cascade.pool.dummies", "count"),
    ("cascade.pool.wait_ms.p50", "virtual-ms"),
    ("cascade.pool.strip_us", "us"),
    ("net.deliver_ms", "ms"),
    ("net.events", "count"),
    ("net.packets", "count"),
    ("net.framing_overhead", "ratio"),
    ("net.peak_send_queue", "count"),
    ("net.virtual_round_ms", "virtual-ms"),
    ("fl.server.aggregate_ms", "ms"),
    ("enclave.epc_high_water_kb", "KB"),
    ("enclave.paging_events", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];
