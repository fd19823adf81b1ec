//! The three workloads: how each is set up, how one round is driven
//! through it, and which of the program's counters it reads.
//!
//! Deployment parameters (attestation keys, hop keys, mixing RNGs, route
//! layout) are fixed per workload; the workload seed drives only the
//! generated updates and the participants' sealing entropy.

use crate::trace::Tracer;
use mixnn_cascade::{
    CascadeClient, CascadeCoordinator, CascadeTransport, FailurePolicy, FreeRoute, PoolConfig,
    PoolTrigger, PooledCascadeTransport, PooledCoordinator,
};
use mixnn_core::codec::{self, CompressionConfig};
use mixnn_core::{
    Endpoint, MixingStrategy, MixnnProxy, MixnnProxyConfig, ParallelIngest, Parallelism,
    ProxyStats, RoundLink,
};
use mixnn_crypto::SealedBox;
use mixnn_enclave::{AttestationService, MemoryStats};
use mixnn_fl::{AggregationServer, ModelUpdate, UpdateTransport};
use mixnn_net::{FlushPolicy, LinkConfig, NetMixnnTransport, NetStats, SimLink};
use mixnn_nn::ModelParams;
use mixnn_telemetry::{Registry, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of every deployment's attestation service, enclave keys and
/// mixing RNGs.
const DEPLOY_SEED: u64 = 0x6d69_786e;
/// Seed of the free-route layouts.
const TOPOLOGY_SEED: u64 = 0x726f_7574;
/// Virtual-time timeout of one simulated-network delivery.
const WIRE_TIMEOUT_NS: u64 = 10_000_000_000;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = [
    "proxy-paper",
    "cascade-freeroute-int8",
    "cascade-pooled-cover",
];

/// What one round returned to the benchmark.
#[derive(Debug, Clone)]
pub struct RoundOutput {
    /// The server's FedAvg aggregate.
    pub aggregate: ModelParams,
    /// Real updates the round aggregated.
    pub real: usize,
    /// Updates sealed by the system in the round, cover included.
    pub sealed: usize,
    /// Smallest set any real update was mixed in.
    pub anon_min: usize,
}

/// Where a traced call records its span: the tracer, the causing span and
/// the round.
#[derive(Debug)]
pub struct Trace<'a> {
    /// The recorder.
    pub tracer: &'a mut Tracer,
    /// The causing span.
    pub parent: Option<usize>,
    /// The FL round.
    pub round: u64,
}

/// Runs `f`, inside a span when `trace` is present.
fn timed<T>(
    trace: &mut Option<Trace<'_>>,
    name: &'static str,
    items: u64,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some(t) => t.tracer.span(name, t.parent, t.round, items, f),
        None => f(),
    }
}

/// Per-layer counters a workload accumulates over its traced rounds, in
/// the units of `PER_LAYER`.
pub type LayerMetrics = Vec<(&'static str, f64)>;

/// One benchmark workload.
pub trait Workload {
    /// Real participants per FL round.
    fn clients(&self) -> usize;
    /// The model signature the round carries.
    fn signature(&self) -> &[usize];
    /// The wire codec participants encode with.
    fn compression(&self) -> CompressionConfig;
    /// Participants whose client-side sealing is timed per round.
    fn seal_samples(&self) -> usize;
    /// Drives one FL round: `relay`, then `aggregate`. With `trace`, the
    /// calls run inside spans under `trace.parent`.
    ///
    /// # Errors
    ///
    /// Any `relay` or `aggregate` error, or a slot the relay lost.
    fn round(
        &mut self,
        updates: Vec<ModelParams>,
        trace: Option<Trace<'_>>,
    ) -> Result<RoundOutput, String>;
    /// Checks and counter reads after a round, outside its timed window.
    /// `trace` is present after a traced round.
    ///
    /// # Errors
    ///
    /// A failed post-round correctness check.
    fn after_round(&mut self, trace: Option<Trace<'_>>) -> Result<(), String>;
    /// Seals `update` as participant `slot`'s device would, returning the
    /// upload and its envelope count.
    ///
    /// # Errors
    ///
    /// A sealing failure.
    fn seal_client(
        &mut self,
        slot: usize,
        update: &ModelParams,
        trace: Option<Trace<'_>>,
    ) -> Result<(Vec<u8>, usize), String>;
    /// Mean upload length of the last round's real participants.
    ///
    /// # Errors
    ///
    /// A sealing failure.
    fn wire_bytes_per_update(&mut self, updates: &[ModelParams]) -> Result<f64, String>;
    /// The workload's own per-layer metrics over `rounds` traced rounds.
    fn layer_metrics(&self, rounds: usize) -> LayerMetrics;
}

/// Builds workload `name` for `seed`; `traced` adds what the traced run
/// needs (the proxy's decomposed twin).
///
/// # Errors
///
/// An unknown name or a failed launch.
pub fn setup(name: &str, seed: u64, traced: bool) -> Result<Box<dyn Workload>, String> {
    match name {
        "proxy-paper" => Ok(Box::new(ProxyPaper::setup(seed, traced)?)),
        "cascade-freeroute-int8" => Ok(Box::new(CascadeWorkload::freeroute_int8(seed)?)),
        "cascade-pooled-cover" => Ok(Box::new(CascadeWorkload::pooled_cover(seed)?)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

fn slotted(updates: Vec<ModelParams>) -> Vec<ModelUpdate> {
    updates
        .into_iter()
        .enumerate()
        .map(|(slot, params)| ModelUpdate::new(slot, params))
        .collect()
}

/// Checks that the relay returned one update per slot, in slot order.
fn unslotted(observed: &[ModelUpdate], clients: usize) -> Result<(), String> {
    if observed.len() != clients || observed.iter().enumerate().any(|(i, u)| u.client_id != i) {
        return Err(format!(
            "relay returned {} updates for {clients} slots, or out of slot order",
            observed.len()
        ));
    }
    Ok(())
}

fn zero_model(signature: &[usize]) -> ModelParams {
    ModelParams::from_layers(
        signature
            .iter()
            .map(|&len| mixnn_nn::LayerParams::from_values(vec![0.0; len]))
            .collect(),
    )
}

fn aggregate(
    server: &mut AggregationServer,
    observed: &[ModelUpdate],
    trace: &mut Option<Trace<'_>>,
) -> Result<ModelParams, String> {
    timed(trace, "fl.server.aggregate", observed.len() as u64, || {
        server.aggregate(observed).cloned()
    })
    .map_err(|e| e.to_string())
}

/// Running per-layer counters shared by the workloads.
#[derive(Debug, Default)]
struct Counters {
    decrypt_s: f64,
    store_s: f64,
    mix_s: f64,
    bytes_in: f64,
    envelopes_opened: f64,
    rejected: f64,
    epc_high_water: usize,
    paging_events: u64,
}

impl Counters {
    /// Adds the difference between two `ProxyStats` snapshots;
    /// `layers` envelopes are opened per received update.
    fn absorb_delta(&mut self, now: &ProxyStats, before: &ProxyStats, layers: usize) {
        self.decrypt_s += now.decrypt_seconds - before.decrypt_seconds;
        self.store_s += now.store_seconds - before.store_seconds;
        self.mix_s += now.mix_seconds - before.mix_seconds;
        self.bytes_in += (now.bytes_received - before.bytes_received) as f64;
        self.envelopes_opened +=
            ((now.updates_received - before.updates_received) * layers as u64) as f64;
        self.rejected += (now.updates_rejected - before.updates_rejected) as f64;
    }

    /// Reads the enclaves' memory counters: the highest EPC watermark of
    /// any enclave, and paging events summed over enclaves since launch.
    fn absorb_memory(&mut self, enclaves: impl IntoIterator<Item = MemoryStats>) {
        let mut paging = 0;
        for memory in enclaves {
            self.epc_high_water = self.epc_high_water.max(memory.high_water);
            paging += memory.paging_events;
        }
        self.paging_events = paging;
    }

    fn open_us_per_envelope(&self) -> f64 {
        if self.envelopes_opened == 0.0 {
            0.0
        } else {
            self.decrypt_s * 1e6 / self.envelopes_opened
        }
    }

    fn enclave_metrics(&self) -> LayerMetrics {
        vec![
            (
                "enclave.epc_high_water_kb",
                self.epc_high_water as f64 / 1024.0,
            ),
            ("enclave.paging_events", self.paging_events as f64),
        ]
    }
}

fn per_round(total: f64, rounds: usize) -> f64 {
    total / rounds.max(1) as f64
}

// ---------------------------------------------------------------------------
// proxy-paper

/// The decomposed twin of the proxy deployment: the same proxy, sealing
/// entropy and wire, driven call by call the way
/// `NetMixnnTransport::relay_round` drives them.
#[derive(Debug)]
struct ProxyTwin {
    proxy: MixnnProxy,
    link: SimLink,
    participant_rng: StdRng,
    server: AggregationServer,
    stats: ProxyStats,
    net: NetStats,
    net_now_ns: u64,
    payload_bytes: u64,
    wire: NetTotals,
}

#[derive(Debug, Default)]
struct NetTotals {
    events: f64,
    packets: f64,
    bytes_sent: f64,
    payload_bytes: f64,
    peak_send_queue: usize,
    virtual_ns: f64,
}

/// `proxy-paper`: one batch-mixing MixNN proxy behind the simulated
/// network, f32 codec, the §6.5 signature, 128 clients per round.
#[derive(Debug)]
pub struct ProxyPaper {
    signature: Vec<usize>,
    transport: NetMixnnTransport,
    server: AggregationServer,
    client_rng: StdRng,
    twin: Option<ProxyTwin>,
    counters: Counters,
}

impl ProxyPaper {
    const CLIENTS: usize = 128;

    fn launch(signature: &[usize]) -> Result<MixnnProxy, String> {
        let mut rng = StdRng::seed_from_u64(DEPLOY_SEED);
        let service = AttestationService::new(&mut rng);
        let proxy = MixnnProxy::launch(
            MixnnProxyConfig {
                strategy: MixingStrategy::Batch,
                expected_signature: signature.to_vec(),
                seed: DEPLOY_SEED,
                parallelism: Parallelism::available(),
                ..MixnnProxyConfig::default()
            },
            &service,
            &mut rng,
        );
        if !proxy.verify_against(&service) {
            return Err("the proxy's quote does not verify".to_string());
        }
        Ok(proxy)
    }

    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let signature = crate::inputs::PAPER_SIGNATURE.to_vec();
        let seal_seed = seed ^ 0x5ea1;
        let transport = NetMixnnTransport::new(
            Self::launch(&signature)?,
            seal_seed,
            LinkConfig::default(),
            FlushPolicy::Batched,
            WIRE_TIMEOUT_NS,
        );
        let twin = if traced {
            Some(ProxyTwin {
                proxy: Self::launch(&signature)?,
                link: SimLink::new(
                    1,
                    seal_seed ^ 0x11,
                    LinkConfig::default(),
                    FlushPolicy::Batched,
                    WIRE_TIMEOUT_NS,
                ),
                participant_rng: StdRng::seed_from_u64(seal_seed),
                server: AggregationServer::new(zero_model(&signature)),
                stats: ProxyStats::default(),
                net: NetStats::default(),
                net_now_ns: 0,
                payload_bytes: 0,
                wire: NetTotals::default(),
            })
        } else {
            None
        };
        Ok(ProxyPaper {
            server: AggregationServer::new(zero_model(&signature)),
            signature,
            transport,
            client_rng: StdRng::seed_from_u64(seed ^ 0xc11e),
            twin,
            counters: Counters::default(),
        })
    }

    /// The decomposed drive: encode, seal, deliver, `submit_all`,
    /// `mix_batch`, re-encode, deliver, decode, aggregate — each stage in
    /// its own span.
    fn traced_round(
        twin: &mut ProxyTwin,
        signature: &[usize],
        updates: Vec<ModelParams>,
        mut trace: Option<Trace<'_>>,
    ) -> Result<RoundOutput, String> {
        let n = updates.len() as u64;
        let encoded: Vec<Vec<u8>> = timed(&mut trace, "core.codec.encode", n, || {
            updates
                .iter()
                .map(|p| codec::encode_params_with(p, CompressionConfig::F32))
                .collect()
        });
        drop(updates);
        let key = *twin.proxy.public_key();
        let rng = &mut twin.participant_rng;
        let sealed: Vec<Vec<u8>> = timed(&mut trace, "crypto.seal", n, || {
            encoded
                .iter()
                .map(|bytes| {
                    SealedBox::seal(bytes, &key, rng)
                        .expect("attested enclave keys are never low-order")
                })
                .collect()
        });
        drop(encoded);
        twin.payload_bytes += sealed.iter().map(|s| s.len() as u64).sum::<u64>();
        let link = &mut twin.link;
        let delivered = timed(&mut trace, "net.deliver", n, || {
            link.deliver(Endpoint::Clients, Endpoint::Hop(0), sealed)
        })
        .map_err(|e| e.to_string())?;
        let proxy = &mut twin.proxy;
        let ingest = ParallelIngest::from_parallelism(proxy.parallelism());
        let results = timed(&mut trace, "core.ingest", n, || {
            ingest.submit_all(proxy, &delivered)
        });
        drop(delivered);
        for result in results {
            if result.map_err(|e| e.to_string())?.is_some() {
                return Err("a batch-mixing proxy emitted an update before mix_batch".to_string());
            }
        }
        let mixed = timed(&mut trace, "core.proxy.mix_batch", n, || proxy.mix_batch())
            .map_err(|e| e.to_string())?;
        let anon_min = mixed.len();
        let reencoded: Vec<Vec<u8>> = timed(&mut trace, "core.codec.reencode", n, || {
            mixed.iter().map(codec::encode_params).collect()
        });
        drop(mixed);
        twin.payload_bytes += reencoded.iter().map(|s| s.len() as u64).sum::<u64>();
        let delivered = timed(&mut trace, "net.deliver", n, || {
            link.deliver(Endpoint::Hop(0), Endpoint::Server, reencoded)
        })
        .map_err(|e| e.to_string())?;
        let decoded: Vec<ModelParams> = timed(&mut trace, "core.codec.decode", n, || {
            delivered
                .iter()
                .map(|bytes| codec::decode_params_expecting(bytes, signature))
                .collect::<Result<_, _>>()
        })
        .map_err(|e| e.to_string())?;
        let observed = slotted(decoded);
        let aggregate = aggregate(&mut twin.server, &observed, &mut trace)?;
        Ok(RoundOutput {
            aggregate,
            real: observed.len(),
            sealed: observed.len(),
            anon_min,
        })
    }
}

impl Workload for ProxyPaper {
    fn clients(&self) -> usize {
        Self::CLIENTS
    }

    fn signature(&self) -> &[usize] {
        &self.signature
    }

    fn compression(&self) -> CompressionConfig {
        CompressionConfig::F32
    }

    fn seal_samples(&self) -> usize {
        1
    }

    fn round(
        &mut self,
        updates: Vec<ModelParams>,
        trace: Option<Trace<'_>>,
    ) -> Result<RoundOutput, String> {
        if trace.is_some() {
            let twin = self
                .twin
                .as_mut()
                .ok_or("the traced drive needs the twin deployment")?;
            return Self::traced_round(twin, &self.signature, updates, trace);
        }
        let clients = updates.len();
        let observed = self
            .transport
            .relay(slotted(updates))
            .map_err(|e| e.to_string())?;
        unslotted(&observed, clients)?;
        let aggregate = aggregate(&mut self.server, &observed, &mut None)?;
        // Batch mixing draws every output from the whole round.
        Ok(RoundOutput {
            aggregate,
            real: clients,
            sealed: clients,
            anon_min: clients,
        })
    }

    fn after_round(&mut self, trace: Option<Trace<'_>>) -> Result<(), String> {
        let (Some(twin), Some(_)) = (self.twin.as_mut(), trace) else {
            return Ok(());
        };
        let stats = twin.proxy.stats();
        self.counters.absorb_delta(&stats, &twin.stats, 1);
        twin.stats = stats;
        self.counters.absorb_memory([twin.proxy.memory_stats()]);
        let net = twin.link.stats();
        let now = twin.link.now_ns();
        let w = &mut twin.wire;
        w.events += (net.events_processed - twin.net.events_processed) as f64;
        w.packets += (net.packets_sent - twin.net.packets_sent) as f64;
        w.bytes_sent += (net.bytes_sent - twin.net.bytes_sent) as f64;
        w.payload_bytes += twin.payload_bytes as f64;
        w.peak_send_queue = w.peak_send_queue.max(net.peak_send_queue);
        w.virtual_ns += (now - twin.net_now_ns) as f64;
        twin.payload_bytes = 0;
        twin.net = net;
        twin.net_now_ns = now;
        Ok(())
    }

    fn seal_client(
        &mut self,
        _slot: usize,
        update: &ModelParams,
        mut trace: Option<Trace<'_>>,
    ) -> Result<(Vec<u8>, usize), String> {
        let bytes = timed(&mut trace, "core.codec.encode", 1, || {
            codec::encode_params_with(update, CompressionConfig::F32)
        });
        let key = self.transport.proxy().public_key();
        let rng = &mut self.client_rng;
        let sealed = timed(&mut trace, "crypto.seal", 1, || {
            SealedBox::seal(&bytes, key, rng)
        })
        .map_err(|e| e.to_string())?;
        Ok((sealed, 1))
    }

    fn wire_bytes_per_update(&mut self, updates: &[ModelParams]) -> Result<f64, String> {
        let total: usize = updates
            .iter()
            .enumerate()
            .map(|(slot, u)| self.seal_client(slot, u, None).map(|(s, _)| s.len()))
            .sum::<Result<usize, String>>()?;
        Ok(total as f64 / updates.len().max(1) as f64)
    }

    fn layer_metrics(&self, rounds: usize) -> LayerMetrics {
        let c = &self.counters;
        let mut out = vec![
            ("crypto.open_us_per_envelope", c.open_us_per_envelope()),
            (
                "core.proxy.decrypt_ms",
                per_round(c.decrypt_s * 1e3, rounds),
            ),
            ("core.proxy.store_ms", per_round(c.store_s * 1e3, rounds)),
            ("core.proxy.rejected", per_round(c.rejected, rounds)),
        ];
        if let Some(twin) = &self.twin {
            let w = &twin.wire;
            let overhead = if w.bytes_sent > 0.0 {
                (w.bytes_sent - w.payload_bytes).max(0.0) / w.bytes_sent
            } else {
                0.0
            };
            out.extend([
                ("net.events", per_round(w.events, rounds)),
                ("net.packets", per_round(w.packets, rounds)),
                ("net.framing_overhead", overhead),
                ("net.peak_send_queue", w.peak_send_queue as f64),
                (
                    "net.virtual_round_ms",
                    per_round(w.virtual_ns / 1e6, rounds),
                ),
            ]);
        }
        out.extend(c.enclave_metrics());
        out
    }
}

// ---------------------------------------------------------------------------
// cascade-freeroute-int8 and cascade-pooled-cover

/// The transport a cascade workload relays through.
#[derive(Debug)]
enum CascadeKind {
    /// Whole rounds through `CascadeTransport`.
    Rounds(CascadeTransport),
    /// Trickled arrivals through `PooledCascadeTransport`.
    Pooled(PooledCascadeTransport),
}

#[derive(Debug, Default)]
struct PoolTotals {
    threshold: f64,
    deadline: f64,
    dummies: f64,
    waits_ms: Vec<f64>,
}

/// A cascade workload: `cascade-freeroute-int8` (whole rounds over a
/// four-hop free route with int8+top-k) or `cascade-pooled-cover` (pooled
/// partial rounds with k-floor cover over a three-hop free route).
#[derive(Debug)]
pub struct CascadeWorkload {
    kind: CascadeKind,
    signature: Vec<usize>,
    clients: usize,
    compression: CompressionConfig,
    server: AggregationServer,
    /// Verified participant clients: one per slot for whole rounds, one
    /// per pool position for pooled rounds.
    participants: Vec<CascadeClient>,
    client_rng: StdRng,
    hop_stats: Vec<ProxyStats>,
    counters: Counters,
    groups: f64,
    group_min: usize,
    pool: PoolTotals,
}

impl CascadeWorkload {
    /// Launches a free-route cascade and checks every hop's quote.
    fn launch(
        signature: &[usize],
        topology: FreeRoute,
        compression: CompressionConfig,
    ) -> Result<(CascadeCoordinator, AttestationService), String> {
        let mut rng = StdRng::seed_from_u64(DEPLOY_SEED);
        let service = AttestationService::new(&mut rng);
        let mut cascade = CascadeCoordinator::with_topology(
            signature.to_vec(),
            Box::new(topology),
            DEPLOY_SEED,
            FailurePolicy::Abort,
            &service,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        if let Some(hop) = cascade.hops().iter().find(|h| !h.verify_against(&service)) {
            return Err(format!("hop {}'s quote does not verify", hop.index()));
        }
        cascade.set_parallelism(Parallelism::available());
        cascade.set_compression(compression);
        Ok((cascade, service))
    }

    fn new(
        kind: CascadeKind,
        signature: Vec<usize>,
        clients: usize,
        compression: CompressionConfig,
        participants: Vec<CascadeClient>,
        seed: u64,
    ) -> Self {
        CascadeWorkload {
            kind,
            server: AggregationServer::new(zero_model(&signature)),
            signature,
            clients,
            compression,
            participants,
            client_rng: StdRng::seed_from_u64(seed ^ 0xc11e),
            hop_stats: Vec::new(),
            counters: Counters::default(),
            groups: 0.0,
            group_min: usize::MAX,
            pool: PoolTotals::default(),
        }
    }

    /// `cascade-freeroute-int8`: `FreeRoute::new(4, 2, 4)` with a group
    /// floor of 8 over 64 clients, int8+top-k, the paper's CIFAR-10
    /// signature.
    fn freeroute_int8(seed: u64) -> Result<Self, String> {
        const CLIENTS: usize = 64;
        let signature = crate::inputs::cifar10_signature();
        let topology = FreeRoute::new(4, 2, 4, TOPOLOGY_SEED).with_min_group_size(8, CLIENTS);
        let compression = CompressionConfig::int8_top_k();
        let (cascade, service) = Self::launch(&signature, topology, compression)?;
        let participants = (0..CLIENTS)
            .map(|slot| cascade.client_for_slot(slot, &service))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let transport = CascadeTransport::new(cascade, seed ^ 0x5ea1);
        Ok(Self::new(
            CascadeKind::Rounds(transport),
            signature,
            CLIENTS,
            compression,
            participants,
            seed,
        ))
    }

    /// `cascade-pooled-cover`: a three-hop free route whose codebook holds
    /// one route per pool (`with_min_group_size(8, 8)`), k-floor 8, f32,
    /// the §6.5 signature, 64 clients per round arriving 1 ms apart on
    /// the virtual clock, and a 5.5 ms pool deadline — so every pool fires
    /// by deadline holding 6 real updates (the last holds 4) and is padded
    /// to 8 with cover.
    fn pooled_cover(seed: u64) -> Result<Self, String> {
        const CLIENTS: usize = 64;
        const K: usize = 8;
        const SPREAD_NS: u64 = 64_000_000;
        const DEADLINE_NS: u64 = 5_500_000;
        let signature = crate::inputs::PAPER_SIGNATURE.to_vec();
        let topology = FreeRoute::new(3, 3, 3, TOPOLOGY_SEED).with_min_group_size(K, K);
        let (cascade, service) = Self::launch(&signature, topology, CompressionConfig::F32)?;
        let participants = (0..K)
            .map(|slot| cascade.client_for_slot(slot, &service))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let pooled = PooledCoordinator::new(
            cascade,
            PoolConfig {
                k: K,
                deadline_ns: DEADLINE_NS,
            },
            seed ^ 0x5ea1,
        )
        .map_err(|e| e.to_string())?;
        let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
        let transport =
            PooledCascadeTransport::new(pooled, telemetry, SPREAD_NS).map_err(|e| e.to_string())?;
        Ok(Self::new(
            CascadeKind::Pooled(transport),
            signature,
            CLIENTS,
            CompressionConfig::F32,
            participants,
            seed,
        ))
    }

    fn cascade(&self) -> &CascadeCoordinator {
        match &self.kind {
            CascadeKind::Rounds(t) => t.coordinator(),
            CascadeKind::Pooled(t) => t.coordinator().cascade(),
        }
    }
}

impl Workload for CascadeWorkload {
    fn clients(&self) -> usize {
        self.clients
    }

    fn signature(&self) -> &[usize] {
        &self.signature
    }

    fn compression(&self) -> CompressionConfig {
        self.compression
    }

    fn seal_samples(&self) -> usize {
        2
    }

    fn round(
        &mut self,
        updates: Vec<ModelParams>,
        mut trace: Option<Trace<'_>>,
    ) -> Result<RoundOutput, String> {
        let clients = updates.len();
        let slotted = slotted(updates);
        let observed = match &mut self.kind {
            CascadeKind::Rounds(t) => timed(
                &mut trace,
                "cascade.coordinator.relay",
                clients as u64,
                || t.relay(slotted),
            ),
            CascadeKind::Pooled(t) => timed(
                &mut trace,
                "cascade.coordinator.relay",
                clients as u64,
                || t.relay(slotted),
            ),
        }
        .map_err(|e| e.to_string())?;
        unslotted(&observed, clients)?;
        let aggregate = aggregate(&mut self.server, &observed, &mut trace)?;
        let (sealed, anon_min) = match &self.kind {
            CascadeKind::Rounds(t) => {
                let audit = t.last_audit().ok_or("a relayed round leaves an audit")?;
                let min = audit.groups().iter().map(|g| g.members()).min();
                (clients, min.unwrap_or(0))
            }
            CascadeKind::Pooled(t) => {
                let rounds = t.last_rounds();
                let sealed = rounds.iter().map(|r| r.real() + r.dummies()).sum();
                let min = rounds
                    .iter()
                    .flat_map(|r| r.audit().groups().iter().map(|g| g.members()))
                    .min();
                (sealed, min.unwrap_or(0))
            }
        };
        Ok(RoundOutput {
            aggregate,
            real: clients,
            sealed,
            anon_min,
        })
    }

    fn after_round(&mut self, mut trace: Option<Trace<'_>>) -> Result<(), String> {
        if let CascadeKind::Pooled(t) = &self.kind {
            // Exactly one stripped output per real client of every pool.
            let mut real = 0;
            for r in t.last_rounds() {
                let outputs = timed(&mut trace, "cascade.pool.strip", 1, || r.server_outputs())
                    .map_err(|e| e.to_string())?;
                if outputs.len() != r.real() || r.slots.len() != r.real() {
                    return Err(format!(
                        "a pool of {} real updates returned {} stripped outputs",
                        r.real(),
                        outputs.len()
                    ));
                }
                real += r.real();
            }
            if real != self.clients {
                return Err(format!(
                    "pools returned {real} outputs for {} clients",
                    self.clients
                ));
            }
        }
        let stats = self.cascade().hop_stats();
        if trace.is_some() {
            let layers = self.signature.len();
            let mut counters = std::mem::take(&mut self.counters);
            for (h, now) in stats.iter().enumerate() {
                let before = self.hop_stats.get(h).copied().unwrap_or_default();
                counters.absorb_delta(now, &before, layers);
            }
            counters.absorb_memory(self.cascade().hops().iter().map(|h| h.memory_stats()));
            self.counters = counters;
            let group_sizes: Vec<usize> = match &self.kind {
                CascadeKind::Rounds(t) => t
                    .last_audit()
                    .map(|a| a.groups().iter().map(|g| g.members()).collect())
                    .unwrap_or_default(),
                CascadeKind::Pooled(t) => {
                    for r in t.last_rounds() {
                        match r.trigger {
                            PoolTrigger::Threshold => self.pool.threshold += 1.0,
                            PoolTrigger::Deadline => self.pool.deadline += 1.0,
                            PoolTrigger::Flush => {}
                        }
                        self.pool.dummies += r.dummies() as f64;
                        self.pool
                            .waits_ms
                            .extend(r.waits_ns.iter().map(|&w| w as f64 / 1e6));
                    }
                    t.last_rounds()
                        .iter()
                        .flat_map(|r| r.audit().groups().iter().map(|g| g.members()))
                        .collect()
                }
            };
            self.groups += group_sizes.len() as f64;
            if let Some(&min) = group_sizes.iter().min() {
                self.group_min = self.group_min.min(min);
            }
        }
        self.hop_stats = stats;
        Ok(())
    }

    fn seal_client(
        &mut self,
        slot: usize,
        update: &ModelParams,
        mut trace: Option<Trace<'_>>,
    ) -> Result<(Vec<u8>, usize), String> {
        if trace.is_some() {
            // The codec on the workload's own updates.
            let bytes = timed(&mut trace, "core.codec.encode", 1, || {
                codec::encode_params_with(update, self.compression)
            });
            let signature = &self.signature;
            timed(&mut trace, "core.codec.decode", 1, || {
                codec::decode_params_expecting(&bytes, signature)
            })
            .map_err(|e| e.to_string())?;
        }
        let client = &self.participants[slot % self.participants.len()];
        let envelopes = client.num_hops() * self.signature.len();
        let rng = &mut self.client_rng;
        let sealed = timed(&mut trace, "cascade.client.seal", envelopes as u64, || {
            client.seal_update(update, rng)
        })
        .map_err(|e| e.to_string())?;
        Ok((sealed, envelopes))
    }

    fn wire_bytes_per_update(&mut self, updates: &[ModelParams]) -> Result<f64, String> {
        // A real upload's length depends only on its route, so seal each
        // participant client once and weight by who actually uploaded.
        let lengths: Vec<usize> = (0..self.participants.len())
            .map(|p| self.seal_client(p, &updates[p], None).map(|(s, _)| s.len()))
            .collect::<Result<_, _>>()?;
        let total: usize = match &self.kind {
            CascadeKind::Rounds(_) => (0..updates.len()).map(|s| lengths[s % lengths.len()]).sum(),
            CascadeKind::Pooled(t) => t
                .last_rounds()
                .iter()
                .flat_map(|r| (0..r.real()).map(|p| lengths[p % lengths.len()]))
                .sum(),
        };
        Ok(total as f64 / updates.len().max(1) as f64)
    }

    fn layer_metrics(&self, rounds: usize) -> LayerMetrics {
        let c = &self.counters;
        let mut out = vec![
            ("crypto.open_us_per_envelope", c.open_us_per_envelope()),
            (
                "cascade.hop.decrypt_ms",
                per_round(c.decrypt_s * 1e3, rounds),
            ),
            ("cascade.hop.store_ms", per_round(c.store_s * 1e3, rounds)),
            ("cascade.hop.mix_ms", per_round(c.mix_s * 1e3, rounds)),
            ("cascade.hop.bytes_in", per_round(c.bytes_in, rounds)),
            ("cascade.topology.groups", per_round(self.groups, rounds)),
        ];
        if self.group_min != usize::MAX {
            out.push(("cascade.topology.group_size.min", self.group_min as f64));
        }
        if let CascadeKind::Pooled(_) = self.kind {
            out.extend([
                (
                    "cascade.pool.fired.threshold",
                    per_round(self.pool.threshold, rounds),
                ),
                (
                    "cascade.pool.fired.deadline",
                    per_round(self.pool.deadline, rounds),
                ),
                ("cascade.pool.dummies", per_round(self.pool.dummies, rounds)),
                (
                    "cascade.pool.wait_ms.p50",
                    mixnn_bench::report::percentile(&self.pool.waits_ms, 0.5),
                ),
            ]);
        }
        out.extend(c.enclave_metrics());
        out
    }
}
