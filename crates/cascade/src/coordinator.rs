//! Driving rounds through the chain — or, for stratified and free-route
//! layouts, through every route group's chain.
//!
//! # Concurrency
//!
//! Two axes of the round parallelize without changing a single output
//! bit:
//!
//! * **Route groups** ([`Parallelism::group_workers`]): groups share no
//!   envelopes by construction (each onion is sealed to its route's
//!   keys), so independent groups can walk their hop sequences
//!   concurrently. Determinism is preserved by pre-drawing every group's
//!   per-hop plans from *cloned* hop RNG streams in the canonical
//!   sequential order, running the groups on [`CascadeHop`]'s `&self`
//!   round core, and committing RNG streams and stats only when the whole
//!   round succeeds. Any failure discards the optimistic attempt and
//!   re-runs the canonical sequential drive — which reproduces the
//!   sequential failure (and its skip-or-abort handling) exactly.
//! * **Rounds across hops** ([`Parallelism::pipeline_depth`], via
//!   [`CascadeCoordinator::run_rounds`]): with depth `d`, up to `d` whole
//!   rounds are in flight at once, so hop `i + 1` mixes round `r` while
//!   hop `i` ingests round `r + 1`. Each round seals from its own derived
//!   RNG stream (one `u64` drawn from the caller per round, at every
//!   depth), so outputs are invariant to the depth.

use crate::topology::{partition_routes, uniform_route, validate_route, RouteGroup};
use crate::{
    CascadeClient, CascadeError, CascadeHop, CascadeHopConfig, CascadeTopology, HopDescriptor,
    LinearChain, OnionUpdate,
};
use mixnn_core::codec::CompressionConfig;
use mixnn_core::{
    map_chunked, shard_seed, Endpoint, InProcessLink, MixPlan, Parallelism, ProxyStats, RoundLink,
};
use mixnn_crypto::PublicKey;
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::{Component, Counter, Distribution, Span, Telemetry, TraceKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many client slots [`CascadeCoordinator::client`] probes when
/// checking that the topology routes everyone identically (that
/// constructor hands out ONE chain for all participants; per-route
/// participants use [`CascadeCoordinator::client_for_slot`]).
const UNIFORMITY_PROBE_SLOTS: usize = 64;

/// What the coordinator does when a hop fails mid-round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Fail the round (fail-closed: no update reaches the server through a
    /// degraded chain). The default.
    #[default]
    Abort,
    /// Mark the hop as down, rebuild the onions for the surviving routes
    /// and retry the round. The hop stays skipped for subsequent rounds
    /// until [`CascadeCoordinator::reinstate`].
    Skip,
}

/// Configuration of a whole cascade.
#[derive(Debug, Clone)]
pub struct CascadeConfig {
    /// Layer signature of the model being proxied. The cascade — unlike
    /// the single proxy — cannot infer it from traffic: intermediate hops
    /// only ever see ciphertext blobs.
    pub expected_signature: Vec<usize>,
    /// One configuration per hop, in hop-index order.
    pub hops: Vec<CascadeHopConfig>,
    /// Skip-or-abort semantics for hop failures.
    pub policy: FailurePolicy,
    /// Coordinator-level worker knobs: `group_workers` drives independent
    /// route groups concurrently, `pipeline_depth` keeps that many rounds
    /// in flight across hops in [`CascadeCoordinator::run_rounds`].
    /// Results are bit-identical at every setting. Per-hop ingest fan-out
    /// is configured on each [`CascadeHopConfig`] (or wholesale via
    /// [`CascadeCoordinator::set_parallelism`]).
    pub parallelism: Parallelism,
    /// Wire compression for every sealed update (and every injected
    /// cover update) of this cascade. Round-wide by construction: mixed
    /// modes within a round would make envelope sizes a client
    /// fingerprint, so the knob lives here and not on individual clients.
    pub compression: CompressionConfig,
}

/// Everything one cascade round produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeRound {
    /// The mixed updates as the server receives them, in slot order.
    pub mixed: Vec<ModelParams>,
    /// The per-route-group mixing plans, for audits and experiments (never
    /// exposed in a deployment).
    pub audit: CascadeAudit,
    /// Hop indices at least one client actually traversed this round,
    /// ascending. For a uniform layout this is the whole active chain.
    pub chain: Vec<usize>,
    /// Hops newly skipped while running this round (non-empty only under
    /// [`FailurePolicy::Skip`]).
    pub skipped_this_round: Vec<usize>,
}

/// A round driven under a k-floor
/// ([`CascadeCoordinator::run_padded_round_over`]): the cascade round over
/// the padded slots, the number of real updates, and the content digests
/// of the injected cover.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedRound {
    /// The committed round over **all** driven slots — real updates in
    /// slots `0..real`, cover in the trailing slots. `round.mixed` is what
    /// the wire delivered to the server, cover still in.
    pub round: CascadeRound,
    /// Number of real client updates the round carried.
    pub real: usize,
    /// [`mixnn_core::codec::layer_digest`] of every layer of each injected
    /// cover update, in injection order (`dummy_digests[d][l]` is cover
    /// `d`'s layer `l`) — the only knowledge the server needs (or gets) to
    /// strip cover.
    pub dummy_digests: Vec<Vec<[u8; 32]>>,
}

impl PaddedRound {
    /// Number of cover updates injected into the round that committed.
    pub fn dummies(&self) -> usize {
        self.dummy_digests.len()
    }

    /// The server-boundary view: the mixed outputs with cover stripped
    /// **by per-layer content digest** — the server never learns which
    /// slot carried cover, only which layer bytes were announced as cover.
    ///
    /// Mixing permutes every layer *independently* across a group's
    /// slots, so a cover update's layers scatter over different output
    /// slots (and a trailing cover slot routinely carries real bytes);
    /// stripping whole slots or whole-model digests would corrupt the
    /// aggregate. Stripping each layer column by digest instead leaves
    /// every column holding exactly the real updates' layer multiset, and
    /// [`ModelParams::mean`] is exactly permutation-invariant per layer —
    /// so the stripped aggregate is bit-identical to a dummy-free
    /// round's. The returned models are column-wise recombinations, just
    /// as every mixed output already is.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Pool`] if any layer column does not strip
    /// to exactly the real update count (a digest collision or a
    /// round/digest mismatch — either way the aggregate cannot be
    /// trusted).
    pub fn server_outputs(&self) -> Result<Vec<ModelParams>, CascadeError> {
        if self.dummy_digests.is_empty() {
            return Ok(self.round.mixed.clone());
        }
        let layer_count = self.round.mixed.first().map_or(0, ModelParams::num_layers);
        let mut unclaimed: Vec<Vec<[u8; 32]>> = (0..layer_count)
            .map(|l| self.dummy_digests.iter().map(|d| d[l]).collect())
            .collect();
        let mut columns: Vec<Vec<LayerParams>> = (0..layer_count)
            .map(|_| Vec::with_capacity(self.real))
            .collect();
        for params in &self.round.mixed {
            for (l, layer) in params.iter().enumerate() {
                let digest = mixnn_core::codec::layer_digest(layer);
                if let Some(pos) = unclaimed[l].iter().position(|d| *d == digest) {
                    unclaimed[l].swap_remove(pos);
                } else {
                    columns[l].push(layer.clone());
                }
            }
        }
        if columns.iter().any(|c| c.len() != self.real) || unclaimed.iter().any(|u| !u.is_empty()) {
            return Err(CascadeError::Pool {
                reason: format!(
                    "cover stripping kept {:?} layer blobs for {} expected real updates",
                    columns.iter().map(Vec::len).collect::<Vec<_>>(),
                    self.real,
                ),
            });
        }
        Ok((0..self.real)
            .map(|i| ModelParams::from_layers(columns.iter().map(|c| c[i].clone()).collect()))
            .collect())
    }
}

/// The audit record of one route group: which clients took the route,
/// which hops they traversed, and the plan each hop drew for the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteGroupAudit {
    slots: Vec<usize>,
    route: Vec<usize>,
    plans: Vec<MixPlan>,
}

impl RouteGroupAudit {
    /// Builds one group's audit record.
    ///
    /// # Panics
    ///
    /// Panics if the group or its route is empty, `plans` does not line up
    /// with `route` one-to-one, or any plan's dimensions disagree with the
    /// group size — such a record cannot have come from one driven group,
    /// so composing it is a construction bug, not a runtime condition.
    pub fn new(slots: Vec<usize>, route: Vec<usize>, plans: Vec<MixPlan>) -> Self {
        assert!(!slots.is_empty(), "a route group has at least one client");
        assert!(
            !route.is_empty(),
            "a route group traverses at least one hop"
        );
        assert_eq!(
            plans.len(),
            route.len(),
            "one plan per traversed hop, in route order"
        );
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(
                plan.participants(),
                slots.len(),
                "plan {i} disagrees with the group size"
            );
            if i > 0 {
                assert_eq!(
                    plan.layers(),
                    plans[0].layers(),
                    "plan {i} disagrees with plan 0 on layers"
                );
            }
        }
        RouteGroupAudit {
            slots,
            route,
            plans,
        }
    }

    /// The group's client slots, in group-local order (ascending).
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// The hop indices the group traversed, in order.
    pub fn route(&self) -> &[usize] {
        &self.route
    }

    /// The per-hop plans the route drew for this group, in route order.
    pub fn plans(&self) -> &[MixPlan] {
        &self.plans
    }

    /// Number of clients in the group — the ceiling of any member's
    /// anonymity set.
    pub fn members(&self) -> usize {
        self.slots.len()
    }
}

/// The composition of every route group's per-hop [`MixPlan`]s.
///
/// Each hop's plan is a per-layer permutation over its group, so the whole
/// round's assignment is a disjoint union of per-group permutations —
/// which is exactly why the server-side aggregate is untouched and why an
/// adversary must cover a client's **entire route** to invert its mix. See
/// `mixnn_attacks::collusion` for the adversary's view; this type is the
/// honest auditor's.
///
/// An audit covers the **slots the round actually drove**, not a fixed
/// client population: since pooled mixing, rounds are routinely *partial*
/// (only the updates a [`crate::MixPool`] fired) and may carry trailing
/// cover slots a hop padded in ([`CascadeCoordinator::run_padded_round_over`]).
/// [`CascadeAudit::clients`] counts those driven slots — real and dummy
/// alike, because on the wire and through every plan a cover slot is
/// indistinguishable from a real one until the server strips it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeAudit {
    clients: usize,
    groups: Vec<RouteGroupAudit>,
}

impl CascadeAudit {
    /// Builds an audit for a **uniform** round (every client took the same
    /// chain) from plans in chain order (first applied first). The slots
    /// are `0..participants` and the recorded route is `0..plans.len()`.
    ///
    /// An empty plan list yields the identity audit (`unmix` returns its
    /// input unchanged).
    ///
    /// # Panics
    ///
    /// Panics if the plans disagree on participants or layers — such a
    /// sequence cannot have come from one round, so composing it is a
    /// construction bug, not a runtime condition.
    pub fn new(plans: Vec<MixPlan>) -> Self {
        let Some(first) = plans.first() else {
            return CascadeAudit {
                clients: 0,
                groups: Vec::new(),
            };
        };
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(
                (plan.participants(), plan.layers()),
                (first.participants(), first.layers()),
                "plan {i} disagrees with plan 0 on round dimensions"
            );
        }
        let clients = first.participants();
        let group = RouteGroupAudit::new((0..clients).collect(), (0..plans.len()).collect(), plans);
        CascadeAudit {
            clients,
            groups: vec![group],
        }
    }

    /// Builds an audit from per-route-group records.
    ///
    /// # Panics
    ///
    /// Panics if the groups' slots do not partition `0..clients` or the
    /// groups disagree on the layer count — a round cannot have produced
    /// such a record.
    pub fn from_groups(clients: usize, groups: Vec<RouteGroupAudit>) -> Self {
        let mut seen = vec![false; clients];
        for group in &groups {
            for &slot in &group.slots {
                assert!(
                    slot < clients && !seen[slot],
                    "groups must partition 0..{clients} (slot {slot} misplaced)"
                );
                seen[slot] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "groups must partition 0..{clients} (some slot uncovered)"
        );
        if let Some(layers) = groups
            .first()
            .and_then(|g| g.plans.first())
            .map(MixPlan::layers)
        {
            for group in &groups {
                assert!(
                    group.plans.iter().all(|p| p.layers() == layers),
                    "groups disagree on the layer count"
                );
            }
        }
        CascadeAudit { clients, groups }
    }

    /// The per-route-group audit records, ordered by route.
    pub fn groups(&self) -> &[RouteGroupAudit] {
        &self.groups
    }

    /// Clients covered by the audit.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// The per-hop plans of a **single-group** round (as every
    /// [`LinearChain`] round produces — full, partial, or dummy-padded:
    /// what matters is that every driven slot shared one route), in chain
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::MultiGroupAudit`] when the round's driven
    /// slots split into more than one route group — a flat plan list
    /// cannot describe those; use [`CascadeAudit::groups`].
    pub fn plans(&self) -> Result<&[MixPlan], CascadeError> {
        match self.groups.as_slice() {
            [] => Ok(&[]),
            [only] => Ok(only.plans()),
            groups => Err(CascadeError::MultiGroupAudit {
                groups: groups.len(),
            }),
        }
    }

    /// The original client slot whose layer `layer` ended up in final
    /// output `output`, traced back through every hop of the output's
    /// route group.
    pub fn composed_source(&self, layer: usize, output: usize) -> Option<usize> {
        if self.groups.is_empty() {
            return Some(output); // the identity audit
        }
        let group = self.groups.iter().find(|g| g.slots.contains(&output))?;
        let mut idx = group.slots.iter().position(|&s| s == output)?;
        for plan in group.plans.iter().rev() {
            idx = plan.source(layer, idx)?;
        }
        group.slots.get(idx).copied()
    }

    /// Inverts the whole cascade: reassembles each client's original
    /// update from the mixed outputs, group by group. Restores both the
    /// client order and the exact layer bits — the correctness check
    /// behind the utility equivalence claim.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Audit`] when `mixed` does not match the
    /// recorded dimensions.
    pub fn unmix(&self, mixed: &[ModelParams]) -> Result<Vec<ModelParams>, CascadeError> {
        if self.groups.is_empty() {
            return Ok(mixed.to_vec()); // no hops: the identity cascade
        }
        let layers = self.groups[0].plans.first().map_or(0, MixPlan::layers);
        if mixed.len() != self.clients || mixed.iter().any(|m| m.num_layers() != layers) {
            return Err(CascadeError::Audit {
                reason: format!(
                    "audit covers {} updates of {layers} layers, got {} updates",
                    self.clients,
                    mixed.len()
                ),
            });
        }
        // Walk group-wise rather than via `composed_source` per cell: the
        // latter re-locates the output's group by linear scan on every
        // call, which would make this O(clients² · layers).
        let mut slots: Vec<Vec<Option<LayerParams>>> = vec![vec![None; layers]; self.clients];
        for group in &self.groups {
            for (local_out, &out) in group.slots.iter().enumerate() {
                for (l, layer) in mixed[out].iter().enumerate() {
                    let mut idx = local_out;
                    for plan in group.plans.iter().rev() {
                        idx = plan.source(l, idx).expect("dimensions checked above");
                    }
                    slots[group.slots[idx]][l] = Some(layer.clone());
                }
            }
        }
        Ok(slots
            .into_iter()
            .map(|row| {
                ModelParams::from_layers(
                    row.into_iter()
                        .map(|slot| slot.expect("group permutations cover every cell"))
                        .collect(),
                )
            })
            .collect())
    }
}

/// Owns the hops and drives rounds end-to-end: partitions the round into
/// route groups, seals each group's onions, feeds them hop to hop, decodes
/// the last hops' plaintext outputs, and applies the configured failure
/// semantics.
///
/// # Example
///
/// ```
/// use mixnn_cascade::{CascadeCoordinator, FailurePolicy};
/// use mixnn_enclave::AttestationService;
/// use mixnn_nn::{LayerParams, ModelParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_cascade::CascadeError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let service = AttestationService::new(&mut rng);
/// let mut cascade =
///     CascadeCoordinator::linear(vec![2, 3], 3, 7, FailurePolicy::Abort, &service, &mut rng)?;
/// let updates: Vec<ModelParams> = (0..5)
///     .map(|i| ModelParams::from_layers(vec![
///         LayerParams::from_values(vec![i as f32; 2]),
///         LayerParams::from_values(vec![-(i as f32); 3]),
///     ]))
///     .collect();
/// let round = cascade.run_round(&updates, &mut rng)?;
/// // Utility equivalence: the aggregate is bit-identical…
/// assert_eq!(ModelParams::mean(&updates), ModelParams::mean(&round.mixed));
/// // …and the audit can invert the whole chain.
/// assert_eq!(round.audit.unmix(&round.mixed)?, updates);
/// # Ok(())
/// # }
/// ```
///
/// The same pipeline drives non-uniform layouts — each route group mixes
/// separately:
///
/// ```
/// use mixnn_cascade::{CascadeCoordinator, FailurePolicy, StratifiedLayout};
/// use mixnn_enclave::AttestationService;
/// use mixnn_nn::{LayerParams, ModelParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_cascade::CascadeError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let service = AttestationService::new(&mut rng);
/// let layout = StratifiedLayout::evenly(4, 2, 99);
/// let mut cascade = CascadeCoordinator::with_topology(
///     vec![2],
///     Box::new(layout),
///     7,
///     FailurePolicy::Abort,
///     &service,
///     &mut rng,
/// )?;
/// let updates: Vec<ModelParams> = (0..8)
///     .map(|i| ModelParams::from_layers(vec![LayerParams::from_values(vec![i as f32; 2])]))
///     .collect();
/// let round = cascade.run_round(&updates, &mut rng)?;
/// assert_eq!(ModelParams::mean(&updates), ModelParams::mean(&round.mixed));
/// assert_eq!(round.audit.unmix(&round.mixed)?, updates);
/// assert!(round.audit.groups().len() >= 1, "stratified rounds split into route groups");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CascadeCoordinator {
    topology: Box<dyn CascadeTopology>,
    hops: Vec<CascadeHop>,
    skipped: Vec<bool>,
    signature: Vec<usize>,
    policy: FailurePolicy,
    parallelism: Parallelism,
    compression: CompressionConfig,
    telemetry: Telemetry,
    rounds_driven: u64,
    dummy_nonce: u64,
}

/// A committed round paired with the per-layer content digests of every
/// cover update injected while driving it (one digest vector per dummy),
/// in the order the dummies were appended.
type DrivenRound = (CascadeRound, Vec<Vec<[u8; 32]>>);

impl CascadeCoordinator {
    /// Launches every hop of `config` and binds them to `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Topology`] if the topology's hop count does
    /// not match the configured hops, [`CascadeError::NoActiveHops`] for an
    /// empty chain, and [`CascadeError::SignatureMismatch`] for an empty
    /// signature (intermediate hops cannot infer one from ciphertext).
    pub fn launch<R: Rng + ?Sized>(
        config: CascadeConfig,
        topology: Box<dyn CascadeTopology>,
        attestation: &AttestationService,
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        if config.hops.is_empty() {
            return Err(CascadeError::NoActiveHops);
        }
        if config.expected_signature.is_empty() {
            return Err(CascadeError::SignatureMismatch {
                expected: vec![1],
                actual: vec![],
            });
        }
        if topology.num_hops() != config.hops.len() {
            return Err(CascadeError::Topology {
                reason: format!(
                    "layout '{}' spans {} hops but {} were configured",
                    topology.name(),
                    topology.num_hops(),
                    config.hops.len()
                ),
            });
        }
        let signature = config.expected_signature;
        let hops: Vec<CascadeHop> = config
            .hops
            .into_iter()
            .enumerate()
            .map(|(i, hop_config)| CascadeHop::launch(i, hop_config, &signature, attestation, rng))
            .collect();
        Ok(CascadeCoordinator {
            skipped: vec![false; hops.len()],
            topology,
            hops,
            signature,
            policy: config.policy,
            parallelism: config.parallelism,
            compression: config.compression,
            telemetry: mixnn_telemetry::noop(),
            rounds_driven: 0,
            dummy_nonce: 0,
        })
    }

    /// Attaches a telemetry registry to the coordinator and every hop.
    ///
    /// Round/group counters are recorded from commit points shared by the
    /// sequential, concurrent-group, and pipelined drives, and hop
    /// counters mirror the canonical-order stats absorption — recorded
    /// values are bit-identical at every [`Parallelism`] setting.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        for hop in &mut self.hops {
            hop.attach_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// Round-success accounting shared by every drive path: one span
    /// observation, the round/group counters, and the canonical-order
    /// trace events derived from the committed audit (which is itself
    /// bit-identical across knobs).
    fn record_round_success(&self, round: &CascadeRound, ordinal: u64, elapsed_ns: u64) {
        self.telemetry
            .record_span_ns(Span::CascadeRound, elapsed_ns);
        self.telemetry.incr(Counter::CascadeRoundsCompleted, 1);
        let groups = round.audit.groups();
        self.telemetry
            .incr(Counter::CascadeGroupsMixed, groups.len() as u64);
        for group in groups {
            let members = group.slots().len() as u64;
            self.telemetry
                .observe(Distribution::CascadeGroupMembers, members);
            self.telemetry
                .trace(Component::Cascade, None, TraceKind::GroupMixed { members });
        }
        self.telemetry.trace(
            Component::Cascade,
            None,
            TraceKind::RoundCompleted { round: ordinal },
        );
    }

    /// Convenience constructor for the classic linear cascade: `hop_count`
    /// hops with per-hop seeds derived from `base_seed` via [`shard_seed`].
    /// The derivation depends only on `(base_seed, hop index)`, so within
    /// one chain every hop draws from its own stream, and hop `i` draws
    /// the *same* stream regardless of chain length — deliberate, for
    /// reproducible cross-length sweeps from one base seed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CascadeCoordinator::launch`].
    pub fn linear<R: Rng + ?Sized>(
        expected_signature: Vec<usize>,
        hop_count: usize,
        base_seed: u64,
        policy: FailurePolicy,
        attestation: &AttestationService,
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        let hops = (0..hop_count)
            .map(|i| CascadeHopConfig {
                seed: shard_seed(base_seed, i),
                ..CascadeHopConfig::default()
            })
            .collect();
        Self::launch(
            CascadeConfig {
                expected_signature,
                hops,
                policy,
                parallelism: Parallelism::sequential(),
                compression: CompressionConfig::F32,
            },
            Box::new(LinearChain::new(hop_count.max(1))),
            attestation,
            rng,
        )
    }

    /// Convenience constructor for an arbitrary layout: launches
    /// `topology.num_hops()` hops with per-hop seeds derived from
    /// `base_seed` via [`shard_seed`], exactly like
    /// [`CascadeCoordinator::linear`] does for chains.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CascadeCoordinator::launch`].
    pub fn with_topology<R: Rng + ?Sized>(
        expected_signature: Vec<usize>,
        topology: Box<dyn CascadeTopology>,
        base_seed: u64,
        policy: FailurePolicy,
        attestation: &AttestationService,
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        let hops = (0..topology.num_hops())
            .map(|i| CascadeHopConfig {
                seed: shard_seed(base_seed, i),
                ..CascadeHopConfig::default()
            })
            .collect();
        Self::launch(
            CascadeConfig {
                expected_signature,
                hops,
                policy,
                parallelism: Parallelism::sequential(),
                compression: CompressionConfig::F32,
            },
            topology,
            attestation,
            rng,
        )
    }

    /// The coordinator-level worker configuration.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Reconfigures every parallelism knob at once: the coordinator keeps
    /// `group_workers` / `pipeline_depth` and every hop adopts
    /// `ingest_workers`. A pure throughput knob — round outputs, audits
    /// and stats counters are identical at every setting.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
        for hop in &mut self.hops {
            hop.set_parallelism(parallelism);
        }
    }

    /// The wire compression every round of this cascade seals with.
    pub fn compression(&self) -> CompressionConfig {
        self.compression
    }

    /// Switches the round-wide wire compression. Takes effect from the
    /// next round; changing it mid-deployment is a *coordinated* rollout
    /// decision — clients on the old mode would produce differently-sized
    /// envelopes and stand out from their route groups.
    pub fn set_compression(&mut self, compression: CompressionConfig) {
        self.compression = compression;
    }

    /// The hops, in hop-index order (skipped ones included).
    pub fn hops(&self) -> &[CascadeHop] {
        &self.hops
    }

    /// The layout routing this cascade's clients.
    pub fn topology(&self) -> &dyn CascadeTopology {
        self.topology.as_ref()
    }

    /// The configured failure policy.
    pub fn policy(&self) -> FailurePolicy {
        self.policy
    }

    /// The model signature the cascade routes.
    pub fn signature(&self) -> &[usize] {
        &self.signature
    }

    /// Indices of hops currently marked down.
    pub fn skipped_hops(&self) -> Vec<usize> {
        (0..self.hops.len()).filter(|&i| self.skipped[i]).collect()
    }

    /// Brings a skipped hop back into the chain (operator action after
    /// recovery).
    pub fn reinstate(&mut self, hop: usize) {
        if let Some(flag) = self.skipped.get_mut(hop) {
            *flag = false;
        }
    }

    /// Per-hop cost statistics, in hop-index order.
    ///
    /// Stats count the work each hop actually performed. A hop off every
    /// route mixes nothing and its counters stay zero; a hop shared by
    /// several route groups is charged once per group (each group is its
    /// own partial round). Under [`FailurePolicy::Skip`] the counters also
    /// include aborted attempts: hops that processed their groups before
    /// another hop failed ran the round once before the retry, so after a
    /// skip their counters reflect both the wasted attempt and the
    /// successful one (just like a real server's request counters across
    /// client retries).
    pub fn hop_stats(&self) -> Vec<ProxyStats> {
        self.hops.iter().map(CascadeHop::stats).collect()
    }

    /// Attestation descriptors of every hop, in hop-index order — what an
    /// operator publishes for participants.
    pub fn descriptors(&self) -> Vec<HopDescriptor> {
        self.hops.iter().map(CascadeHop::descriptor).collect()
    }

    /// Builds a **verified** participant-side client over the currently
    /// active chain shared by every slot: every hop's quote is checked
    /// against `attestation` before its key is used. Only meaningful for
    /// uniform layouts — a stratified or free-route participant seals to
    /// its own route and must use
    /// [`CascadeCoordinator::client_for_slot`].
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Attestation`] (with the hop's position in
    /// the active chain) when verification fails,
    /// [`CascadeError::Topology`] when the layout routes clients
    /// differently, and [`CascadeError::NoActiveHops`] when no routable
    /// chain exists.
    pub fn client(&self, attestation: &AttestationService) -> Result<CascadeClient, CascadeError> {
        // Probe topology uniformity over a window of slots rather than a
        // single one, so a non-uniform layout is rejected here — where the
        // participant would otherwise build onions for a chain no round
        // will drive for most slots.
        let chain = self.active_chain(UNIFORMITY_PROBE_SLOTS)?;
        let descriptors: Vec<HopDescriptor> =
            chain.iter().map(|&h| self.hops[h].descriptor()).collect();
        Ok(
            CascadeClient::from_attested_hops(&descriptors, attestation)?
                .with_compression(self.compression),
        )
    }

    /// Builds a **verified** participant-side client for one slot's route
    /// under the current topology and skip state — the per-route analogue
    /// of [`CascadeCoordinator::client`], usable with any layout.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Topology`] for an undrivable route,
    /// [`CascadeError::NoActiveHops`] when skipping emptied the route, and
    /// [`CascadeError::Attestation`] when a hop on the route fails
    /// verification.
    pub fn client_for_slot(
        &self,
        slot: usize,
        attestation: &AttestationService,
    ) -> Result<CascadeClient, CascadeError> {
        let route = self.active_route(slot)?;
        let descriptors: Vec<HopDescriptor> =
            route.iter().map(|&h| self.hops[h].descriptor()).collect();
        Ok(
            CascadeClient::from_attested_hops(&descriptors, attestation)?
                .with_compression(self.compression),
        )
    }

    /// The uniform active route: the topology's shared route with skipped
    /// hops removed. Fails for non-uniform layouts.
    fn active_chain(&self, clients: usize) -> Result<Vec<usize>, CascadeError> {
        let route = uniform_route(self.topology.as_ref(), clients.max(1))?;
        let chain: Vec<usize> = route.into_iter().filter(|&h| !self.skipped[h]).collect();
        if chain.is_empty() {
            return Err(CascadeError::NoActiveHops);
        }
        Ok(chain)
    }

    /// One slot's route with skipped hops removed.
    fn active_route(&self, slot: usize) -> Result<Vec<usize>, CascadeError> {
        let route = self.topology.route(slot);
        validate_route(&route, self.hops.len())?;
        let active: Vec<usize> = route.into_iter().filter(|&h| !self.skipped[h]).collect();
        if active.is_empty() {
            return Err(CascadeError::NoActiveHops);
        }
        Ok(active)
    }

    /// Partitions the round's slots into route groups over the **active**
    /// routes (skipped hops removed). Two groups whose routes collapse to
    /// the same surviving sequence merge — their clients mix together.
    fn active_groups(&self, clients: usize) -> Result<Vec<RouteGroup>, CascadeError> {
        partition_routes(clients, |slot| self.active_route(slot))
    }

    /// Seals every group's onions in the canonical order (group by group,
    /// slot by slot) — the same `rng` draws regardless of how the round is
    /// subsequently driven, so the sealed batches can feed either the
    /// optimistic concurrent attempt or the canonical sequential drive.
    /// Each group's envelopes derive their ephemeral keys in one batch
    /// ([`OnionUpdate::build_many`]), byte-identical to sealing slot by
    /// slot with [`CascadeClient::seal_update`].
    /// An associated fn over the hop slice (not `&self`) so the pipelined
    /// worker tasks can call it without capturing the whole coordinator.
    fn seal_groups<R: Rng + ?Sized>(
        hops: &[CascadeHop],
        groups: &[RouteGroup],
        updates: &[ModelParams],
        compression: CompressionConfig,
        rng: &mut R,
    ) -> Vec<Vec<Vec<u8>>> {
        groups
            .iter()
            .map(|group| {
                let keys: Vec<PublicKey> =
                    group.route.iter().map(|&h| *hops[h].public_key()).collect();
                let slots = group.slots.iter().map(|&s| &updates[s]);
                OnionUpdate::build_many(slots, &keys, compression, rng)
                    .expect("attested hop keys are never low-order")
                    .iter()
                    .map(OnionUpdate::encode)
                    .collect()
            })
            .collect()
    }

    /// Pre-draws every group's per-hop plans from the given (cloned) hop
    /// RNG streams, consuming them in the canonical sequential order —
    /// group-major, route order. `None` when a draw fails (the fallback
    /// drive surfaces the canonical error).
    fn draw_group_plans(
        &self,
        groups: &[RouteGroup],
        rng_clones: &mut [StdRng],
    ) -> Option<Vec<Vec<MixPlan>>> {
        let mut plans = Vec::with_capacity(groups.len());
        for group in groups {
            let mut group_plans = Vec::with_capacity(group.route.len());
            for &h in &group.route {
                group_plans.push(
                    self.hops[h]
                        .draw_plan(group.slots.len(), &mut rng_clones[h])
                        .ok()?,
                );
            }
            plans.push(group_plans);
        }
        Some(plans)
    }

    /// Commits a successful optimistic drive of one round: absorbs the
    /// stats deltas in canonical (group-major, route) order and assembles
    /// the [`CascadeRound`]. Both optimistic paths — the single-round
    /// group pool and the cross-hop round pipeline — share this commit
    /// protocol, which is what keeps the bit-identical-across-knobs
    /// invariant in exactly one place.
    fn commit_round(
        &mut self,
        clients: usize,
        groups: &[RouteGroup],
        plans: Vec<Vec<MixPlan>>,
        outcomes: Vec<GroupOutcome>,
    ) -> CascadeRound {
        let mut mixed: Vec<Option<ModelParams>> = vec![None; clients];
        let mut group_audits = Vec::with_capacity(groups.len());
        let mut chain: Vec<usize> = Vec::new();
        for ((group, group_plans), (outputs, deltas)) in groups.iter().zip(plans).zip(outcomes) {
            for (h, delta) in &deltas {
                self.hops[*h].absorb_stats(delta);
            }
            for (local, params) in outputs.into_iter().enumerate() {
                mixed[group.slots[local]] = Some(params);
            }
            chain.extend(&group.route);
            group_audits.push(RouteGroupAudit::new(
                group.slots.clone(),
                group.route.clone(),
                group_plans,
            ));
        }
        chain.sort_unstable();
        chain.dedup();
        CascadeRound {
            mixed: mixed
                .into_iter()
                .map(|m| m.expect("groups partition the round"))
                .collect(),
            audit: CascadeAudit::from_groups(clients, group_audits),
            chain,
            skipped_this_round: Vec::new(),
        }
    }

    /// The optimistic concurrent drive: pre-draws every group's per-hop
    /// plans from **cloned** hop RNG streams in canonical order, walks the
    /// groups through their routes on a bounded worker pool (each call on
    /// the hop's `&self` round core), and commits RNG streams + stats only
    /// if every group succeeded. Returns `None` on any failure — all EPC
    /// charges are already released, nothing was committed, and the caller
    /// falls back to the canonical sequential drive (which reproduces the
    /// sequential failure semantics exactly).
    fn try_concurrent_round(
        &mut self,
        groups: &[RouteGroup],
        batches: &[Vec<Vec<u8>>],
        clients: usize,
    ) -> Option<CascadeRound> {
        let mut rng_clones: Vec<StdRng> = self.hops.iter().map(CascadeHop::rng_clone).collect();
        let plans = self.draw_group_plans(groups, &mut rng_clones)?;

        let hops = &self.hops;
        let signature = &self.signature;
        let tasks: Vec<usize> = (0..groups.len()).collect();
        let outcomes: Vec<Option<GroupOutcome>> =
            map_chunked(&tasks, self.parallelism.group_workers, |&gi: &usize| {
                drive_group_shared(hops, signature, &groups[gi], &batches[gi], &plans[gi])
            });
        let outcomes: Vec<GroupOutcome> = outcomes.into_iter().collect::<Option<Vec<_>>>()?;

        // Whole round succeeded: commit the RNG draws, then the stats.
        for (hop, rng) in self.hops.iter_mut().zip(rng_clones) {
            hop.set_rng(rng);
        }
        Some(self.commit_round(clients, groups, plans, outcomes))
    }

    /// Drives one round end-to-end: partition the slots into route groups,
    /// onion-encrypt every group's updates for its route (drawing sealing
    /// entropy from `rng`, group by group in canonical order), pass each
    /// group's batch hop to hop — every hop mixes **only the partial round
    /// that traversed it** — and decode the final plaintext updates back
    /// into slot order.
    ///
    /// With [`Parallelism::group_workers`] `> 1`, independent route groups
    /// are driven concurrently on a bounded worker pool; outputs, audits
    /// and stats counters are **bit-identical to the sequential drive at
    /// every worker count** (see the module docs for why), so the knob is
    /// pure throughput.
    ///
    /// Under [`FailurePolicy::Skip`], a failing hop is marked down and the
    /// round restarts on the surviving routes — groups are re-partitioned
    /// (routes that collapse to the same surviving sequence merge) and the
    /// onions rebuilt, because each envelope is bound to a specific hop
    /// key. Hops that already processed groups re-run on the rebuilt
    /// batches (with fresh plans and sealing entropy), and their
    /// [`CascadeCoordinator::hop_stats`] keep the aborted attempt's work.
    /// Under [`FailurePolicy::Abort`] the first hop failure fails the
    /// round.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::EmptyRound`] /
    /// [`CascadeError::SignatureMismatch`] for bad input,
    /// [`CascadeError::Topology`] for an undrivable route,
    /// [`CascadeError::NoActiveHops`] when skipping exhausts a route, and
    /// the failing hop's error under abort semantics.
    pub fn run_round<R: Rng + ?Sized>(
        &mut self,
        updates: &[ModelParams],
        rng: &mut R,
    ) -> Result<CascadeRound, CascadeError> {
        self.run_round_over(updates, rng, &mut InProcessLink)
    }

    /// [`CascadeCoordinator::run_round`] with every inter-stage exchange
    /// — clients into the first hop, hop to hop along each group's route,
    /// last hop into the server — delivered through `link` instead of an
    /// in-process move.
    ///
    /// With [`mixnn_core::InProcessLink`] this **is** `run_round` (that
    /// method delegates here). Over a real [`RoundLink`] — e.g.
    /// `mixnn-net`'s simulated network — a successful delivery returns
    /// the batch byte-identical and in order, so round outputs, audits
    /// and stats are bit-identical to the in-process drive; only *cost*
    /// (virtual latency, queueing, bytes on the wire) differs. A failed
    /// delivery is attributed to a hop — the receiving hop, or the
    /// sending hop when the segment ends at the server — and handled by
    /// the configured [`FailurePolicy`]: `Skip` marks that hop down and
    /// retries the round on the surviving routes (rerouting exactly the
    /// groups that traversed it), `Abort` surfaces
    /// [`CascadeError::Link`].
    ///
    /// A non-transparent link carries mutable wire state (queues, a
    /// clock), so the optimistic concurrent group drive is bypassed and
    /// segments hit the wire in the canonical sequential order — the
    /// order the determinism suite pins down.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CascadeCoordinator::run_round`], plus
    /// [`CascadeError::Link`] for a delivery failure under
    /// [`FailurePolicy::Abort`].
    pub fn run_round_over<R: Rng + ?Sized>(
        &mut self,
        updates: &[ModelParams],
        rng: &mut R,
        link: &mut dyn RoundLink,
    ) -> Result<CascadeRound, CascadeError> {
        self.accounted_drive(updates, None, rng, link)
            .map(|(round, _)| round)
    }

    /// [`CascadeCoordinator::run_round_over`] with a **k-floor**: every
    /// route group whose driven slots fall short of `floor` is padded with
    /// hop-generated cover updates before sealing, so no group — and hence
    /// no fired pool — mixes fewer than `floor` slots. Cover slots occupy
    /// trailing indices (`updates.len()..`), travel the group's full route
    /// sealed exactly like a client's onion, and are recognised at the
    /// server boundary only by the content digests this call returns
    /// ([`PaddedRound::server_outputs`] strips them). Under
    /// [`FailurePolicy::Skip`] a reroute re-partitions the surviving
    /// routes and **re-pads** the merged groups with fresh cover, so the
    /// floor holds on the round that actually commits.
    ///
    /// # Errors
    ///
    /// [`CascadeError::Pool`] for a zero floor, plus every
    /// [`CascadeCoordinator::run_round_over`] condition.
    pub fn run_padded_round_over<R: Rng + ?Sized>(
        &mut self,
        updates: &[ModelParams],
        floor: usize,
        rng: &mut R,
        link: &mut dyn RoundLink,
    ) -> Result<PaddedRound, CascadeError> {
        if floor == 0 {
            return Err(CascadeError::Pool {
                reason: "k-floor must be at least 1".to_string(),
            });
        }
        let real = updates.len();
        let (round, dummy_digests) = self.accounted_drive(updates, Some(floor), rng, link)?;
        self.telemetry
            .incr(Counter::CascadeDummiesInjected, dummy_digests.len() as u64);
        Ok(PaddedRound {
            round,
            real,
            dummy_digests,
        })
    }

    /// The accounting wrapper shared by the plain and padded round drives:
    /// input validation, the round ordinal, trace events, the round span,
    /// and success/abort counters — exactly once per round, no matter how
    /// many skip-and-reroute attempts the drive takes.
    fn accounted_drive<R: Rng + ?Sized>(
        &mut self,
        updates: &[ModelParams],
        floor: Option<usize>,
        rng: &mut R,
        link: &mut dyn RoundLink,
    ) -> Result<DrivenRound, CascadeError> {
        if updates.is_empty() {
            return Err(CascadeError::EmptyRound);
        }
        for u in updates {
            if u.signature() != self.signature {
                return Err(CascadeError::SignatureMismatch {
                    expected: self.signature.clone(),
                    actual: u.signature(),
                });
            }
        }

        let ordinal = self.rounds_driven;
        self.rounds_driven += 1;
        self.telemetry.trace(
            Component::Cascade,
            None,
            TraceKind::RoundStarted { round: ordinal },
        );
        let t0 = self.telemetry.now_ns();
        let result = self.drive_round(updates, floor, rng, link);
        let elapsed_ns = self.telemetry.now_ns().saturating_sub(t0);
        match &result {
            Ok((round, _)) => self.record_round_success(round, ordinal, elapsed_ns),
            Err(_) => {
                self.telemetry
                    .record_span_ns(Span::CascadeRound, elapsed_ns);
                self.telemetry.incr(Counter::CascadeRoundsAborted, 1);
                self.telemetry.trace(
                    Component::Cascade,
                    None,
                    TraceKind::RoundAborted { round: ordinal },
                );
            }
        }
        result
    }

    /// The retry-looped body behind
    /// [`CascadeCoordinator::accounted_drive`], split out so the wrapper
    /// can account the round exactly once no matter how many
    /// skip-and-reroute attempts the drive takes.
    ///
    /// With `floor: Some(k)`, each attempt pads every under-`k` route
    /// group with hop-generated cover **before** sealing — in the same
    /// sequential pre-phase both the optimistic concurrent drive and the
    /// canonical sequential drive share, so padded rounds keep the
    /// bit-identical-across-knobs invariant. Returns the cover content
    /// digests of the attempt that committed.
    fn drive_round<R: Rng + ?Sized>(
        &mut self,
        updates: &[ModelParams],
        floor: Option<usize>,
        rng: &mut R,
        link: &mut dyn RoundLink,
    ) -> Result<DrivenRound, CascadeError> {
        let mut skipped_this_round = Vec::new();
        'retry: loop {
            let mut groups = self.active_groups(updates.len())?;
            // Pad under-full groups up to the k-floor with cover drawn
            // from the first hop on each group's route. A skip-and-reroute
            // attempt re-enters here and re-pads the re-partitioned groups
            // with fresh nonces — stale cover for a dead route never
            // carries over.
            let mut dummy_digests: Vec<Vec<[u8; 32]>> = Vec::new();
            let extended: Vec<ModelParams>;
            let round_updates: &[ModelParams] = if let Some(k) = floor {
                let mut padded = updates.to_vec();
                for group in &mut groups {
                    while group.slots.len() < k {
                        let hop = group.route[0];
                        let dummy =
                            self.hops[hop].generate_dummy(&self.signature, self.dummy_nonce);
                        self.dummy_nonce += 1;
                        // Announce the digest of what the wire will
                        // deliver: under a lossy codec the server decodes
                        // the *dequantized* cover layers, so digest the
                        // canonical post-wire form (identity under F32).
                        dummy_digests.push(
                            dummy
                                .iter()
                                .map(|l| {
                                    mixnn_core::codec::layer_digest(
                                        &mixnn_core::codec::canonical_layer(l, self.compression),
                                    )
                                })
                                .collect(),
                        );
                        group.slots.push(padded.len());
                        padded.push(dummy);
                    }
                }
                extended = padded;
                &extended
            } else {
                updates
            };
            let clients = round_updates.len();
            // One sealing pass per attempt, canonical order, shared by both
            // drives below — identical `rng` consumption at every worker
            // count.
            let batches =
                Self::seal_groups(&self.hops, &groups, round_updates, self.compression, rng);

            if link.is_transparent() && self.parallelism.group_workers > 1 && groups.len() > 1 {
                if let Some(round) = self.try_concurrent_round(&groups, &batches, clients) {
                    return Ok((
                        CascadeRound {
                            skipped_this_round,
                            ..round
                        },
                        dummy_digests,
                    ));
                }
                // Something failed mid-flight; nothing was committed. Fall
                // through to the canonical sequential drive on the same
                // sealed batches so errors and skip handling are exactly
                // the sequential ones.
            }

            let mut mixed: Vec<Option<ModelParams>> = vec![None; clients];
            let mut group_audits = Vec::with_capacity(groups.len());
            let mut chain: Vec<usize> = Vec::new();
            for (group, mut batch) in groups.iter().zip(batches) {
                let mut plans = Vec::with_capacity(group.route.len());
                for (pos, &h) in group.route.iter().enumerate() {
                    let from = if pos == 0 {
                        Endpoint::Clients
                    } else {
                        Endpoint::Hop(group.route[pos - 1])
                    };
                    batch = match link.deliver(from, Endpoint::Hop(h), batch) {
                        Ok(delivered) => delivered,
                        Err(source) => match self.policy {
                            FailurePolicy::Abort => return Err(CascadeError::Link { source }),
                            FailurePolicy::Skip => {
                                // The wire could not reach hop `h`: mark
                                // it down, exactly as if the hop itself
                                // had failed.
                                self.skipped[h] = true;
                                skipped_this_round.push(h);
                                self.telemetry.incr(Counter::CascadeHopsSkipped, 1);
                                self.telemetry.trace(
                                    Component::Cascade,
                                    Some(h as u16),
                                    TraceKind::HopSkipped,
                                );
                                continue 'retry;
                            }
                        },
                    };
                    match self.hops[h].mix_round(&batch) {
                        Ok((out, plan)) => {
                            batch = out;
                            plans.push(plan);
                        }
                        Err(e) => match self.policy {
                            FailurePolicy::Abort => return Err(e),
                            FailurePolicy::Skip => {
                                self.skipped[h] = true;
                                skipped_this_round.push(h);
                                self.telemetry.incr(Counter::CascadeHopsSkipped, 1);
                                self.telemetry.trace(
                                    Component::Cascade,
                                    Some(h as u16),
                                    TraceKind::HopSkipped,
                                );
                                continue 'retry;
                            }
                        },
                    }
                }
                let last = *group.route.last().expect("groups have non-empty routes");
                batch = match link.deliver(Endpoint::Hop(last), Endpoint::Server, batch) {
                    Ok(delivered) => delivered,
                    Err(source) => match self.policy {
                        FailurePolicy::Abort => return Err(CascadeError::Link { source }),
                        FailurePolicy::Skip => {
                            // The segment into the server has no receiving
                            // hop; blame the sender — the hop whose egress
                            // is unreachable.
                            self.skipped[last] = true;
                            skipped_this_round.push(last);
                            self.telemetry.incr(Counter::CascadeHopsSkipped, 1);
                            self.telemetry.trace(
                                Component::Cascade,
                                Some(last as u16),
                                TraceKind::HopSkipped,
                            );
                            continue 'retry;
                        }
                    },
                };
                for (local, wire) in batch.iter().enumerate() {
                    mixed[group.slots[local]] =
                        Some(OnionUpdate::decode(wire)?.into_params(&self.signature)?);
                }
                chain.extend(&group.route);
                group_audits.push(RouteGroupAudit::new(
                    group.slots.clone(),
                    group.route.clone(),
                    plans,
                ));
            }
            chain.sort_unstable();
            chain.dedup();
            return Ok((
                CascadeRound {
                    mixed: mixed
                        .into_iter()
                        .map(|m| m.expect("groups partition the round"))
                        .collect(),
                    audit: CascadeAudit::from_groups(clients, group_audits),
                    chain,
                    skipped_this_round,
                },
                dummy_digests,
            ));
        }
    }

    /// Drives a batch of rounds with cross-hop pipelining: with
    /// [`Parallelism::pipeline_depth`] `= d`, up to `d` rounds are in
    /// flight at once, so hop `i + 1` can be mixing round `r` while hop
    /// `i` ingests round `r + 1` — the cascade's wall-clock approaches the
    /// slowest hop's share instead of the whole chain's sum.
    ///
    /// Each round seals its onions from an independent RNG stream derived
    /// by drawing one `u64` from `rng` per round **up front** — the
    /// caller's RNG consumption and every round's output are therefore
    /// invariant to the depth (`d = 1` is the plain sequential
    /// round-after-round loop, and any `d` reproduces it bit-exactly; on
    /// any in-flight failure the whole batch re-runs sequentially, which
    /// also restores the canonical skip-or-abort semantics).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CascadeCoordinator::run_round`], from the
    /// first round that fails; earlier rounds' effects on coordinator
    /// state (stats, skip flags) stand, exactly as if the rounds had been
    /// driven one by one.
    pub fn run_rounds<R: Rng + ?Sized>(
        &mut self,
        rounds: &[Vec<ModelParams>],
        rng: &mut R,
    ) -> Result<Vec<CascadeRound>, CascadeError> {
        let seeds: Vec<u64> = (0..rounds.len()).map(|_| rng.gen()).collect();
        let depth = self.parallelism.pipeline_depth;

        if depth > 1 && rounds.len() > 1 {
            let t0 = self.telemetry.now_ns();
            if let Some(out) = self.try_pipelined_rounds(rounds, &seeds) {
                // The pipelined drive commits without passing through
                // `run_round_over`, so account each committed round here —
                // same counters, same canonical trace order, wall-clock
                // split evenly across the batch.
                let elapsed_ns = self.telemetry.now_ns().saturating_sub(t0);
                let per_round_ns = elapsed_ns / out.len() as u64;
                for round in &out {
                    let ordinal = self.rounds_driven;
                    self.rounds_driven += 1;
                    self.telemetry.trace(
                        Component::Cascade,
                        None,
                        TraceKind::RoundStarted { round: ordinal },
                    );
                    self.record_round_success(round, ordinal, per_round_ns);
                }
                return Ok(out);
            }
            // Fall back: nothing was committed; the sequential loop below
            // reproduces canonical behaviour (including partial progress
            // before a genuinely failing round).
        }
        rounds
            .iter()
            .zip(&seeds)
            .map(|(updates, &seed)| self.run_round(updates, &mut StdRng::seed_from_u64(seed)))
            .collect()
    }

    /// The optimistic pipelined drive behind
    /// [`CascadeCoordinator::run_rounds`]: validates, partitions and
    /// pre-draws plans for **every** round up front (hop plan streams
    /// consumed in round order via clones — cheap, O(C·L) per round), then
    /// runs whole rounds concurrently at the configured depth. Each
    /// worker task seals its own round from the round's derived RNG
    /// stream (sealing is the expensive half of round setup, and the
    /// per-round streams make it order-independent), so peak memory and
    /// sealing work are bounded by the rounds actually in flight rather
    /// than the whole batch. Commits everything in round order only when
    /// every round succeeded; any failure returns `None` with no state
    /// change.
    fn try_pipelined_rounds(
        &mut self,
        rounds: &[Vec<ModelParams>],
        seeds: &[u64],
    ) -> Option<Vec<CascadeRound>> {
        let mut rng_clones: Vec<StdRng> = self.hops.iter().map(CascadeHop::rng_clone).collect();
        let mut prepared: Vec<(Vec<RouteGroup>, Vec<Vec<MixPlan>>)> =
            Vec::with_capacity(rounds.len());
        for updates in rounds {
            if updates.is_empty() || updates.iter().any(|u| u.signature() != self.signature) {
                return None; // canonical validation errors come from the fallback
            }
            let groups = self.active_groups(updates.len()).ok()?;
            let plans = self.draw_group_plans(&groups, &mut rng_clones)?;
            prepared.push((groups, plans));
        }

        // Capture only `Sync` fields — the boxed topology is not shareable
        // (and the worker tasks have no business routing anyway).
        let hops = &self.hops;
        let signature = &self.signature;
        let group_workers = self.parallelism.group_workers;
        let compression = self.compression;
        let tasks: Vec<usize> = (0..rounds.len()).collect();
        let outcomes: Vec<Option<Vec<GroupOutcome>>> = map_chunked(
            &tasks,
            self.parallelism.pipeline_depth,
            |&r: &usize| -> Option<Vec<GroupOutcome>> {
                let (groups, plans) = &prepared[r];
                let batches = Self::seal_groups(
                    hops,
                    groups,
                    &rounds[r],
                    compression,
                    &mut StdRng::seed_from_u64(seeds[r]),
                );
                let group_tasks: Vec<usize> = (0..groups.len()).collect();
                map_chunked(&group_tasks, group_workers, |&gi: &usize| {
                    drive_group_shared(hops, signature, &groups[gi], &batches[gi], &plans[gi])
                })
                .into_iter()
                .collect()
            },
        );
        let outcomes: Vec<Vec<GroupOutcome>> = outcomes.into_iter().collect::<Option<Vec<_>>>()?;

        // Every round succeeded: commit in round order.
        for (hop, rng) in self.hops.iter_mut().zip(rng_clones) {
            hop.set_rng(rng);
        }
        let mut results = Vec::with_capacity(rounds.len());
        for ((updates, (groups, plans)), round_outcome) in rounds.iter().zip(prepared).zip(outcomes)
        {
            results.push(self.commit_round(updates.len(), &groups, plans, round_outcome));
        }
        Some(results)
    }
}

/// What one route group's optimistic drive produced: the decoded final
/// outputs in group-local slot order, and the per-(hop, delta) stats to
/// absorb in canonical order on commit.
type GroupOutcome = (Vec<ModelParams>, Vec<(usize, ProxyStats)>);

/// Walks one route group through its hop sequence on the hops' `&self`
/// round core with pre-drawn plans, decoding the final onions. `None` on
/// any failure — every EPC charge was already released per-call, so the
/// caller can simply fall back to the canonical sequential drive. Shared
/// by both optimistic paths (the single-round group pool and the
/// cross-hop round pipeline).
fn drive_group_shared(
    hops: &[CascadeHop],
    signature: &[usize],
    group: &RouteGroup,
    batch: &[Vec<u8>],
    plans: &[MixPlan],
) -> Option<GroupOutcome> {
    let mut current: Option<Vec<Vec<u8>>> = None;
    let mut deltas = Vec::with_capacity(group.route.len());
    for (pos, &h) in group.route.iter().enumerate() {
        let input: &[Vec<u8>] = current.as_deref().unwrap_or(batch);
        let workers = hops[h].parallelism().ingest_workers;
        let (out, _, delta) = hops[h]
            .mix_round_shared(input, plans[pos].clone(), workers)
            .ok()?;
        current = Some(out);
        deltas.push((h, delta));
    }
    let finished = current.expect("every route has at least one hop");
    let mut outputs = Vec::with_capacity(finished.len());
    for wire in &finished {
        outputs.push(
            OnionUpdate::decode(wire)
                .ok()?
                .into_params(signature)
                .ok()?,
        );
    }
    Some((outputs, deltas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreeRoute, StratifiedLayout};
    use mixnn_enclave::EnclaveConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(i: usize) -> ModelParams {
        ModelParams::from_layers(vec![
            LayerParams::from_values(vec![i as f32; 3]),
            LayerParams::from_values(vec![(i * 10) as f32; 2]),
        ])
    }

    fn updates(c: usize) -> Vec<ModelParams> {
        (0..c).map(params).collect()
    }

    fn launch(
        hop_count: usize,
        policy: FailurePolicy,
    ) -> (CascadeCoordinator, AttestationService, StdRng) {
        let mut rng = StdRng::seed_from_u64(31);
        let service = AttestationService::new(&mut rng);
        let cascade =
            CascadeCoordinator::linear(vec![3, 2], hop_count, 9, policy, &service, &mut rng)
                .unwrap();
        (cascade, service, rng)
    }

    fn launch_with(
        topology: Box<dyn CascadeTopology>,
        policy: FailurePolicy,
        seed: u64,
    ) -> (CascadeCoordinator, AttestationService, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = AttestationService::new(&mut rng);
        let cascade = CascadeCoordinator::with_topology(
            vec![3, 2],
            topology,
            seed,
            policy,
            &service,
            &mut rng,
        )
        .unwrap();
        (cascade, service, rng)
    }

    #[test]
    fn round_preserves_aggregate_and_unmixes_at_every_hop_count() {
        for hop_count in 1..=4 {
            let (mut cascade, _, mut rng) = launch(hop_count, FailurePolicy::Abort);
            let ins = updates(6);
            let round = cascade.run_round(&ins, &mut rng).unwrap();
            assert_eq!(round.mixed.len(), 6);
            assert_eq!(round.chain.len(), hop_count);
            assert_eq!(
                ModelParams::mean(&ins),
                ModelParams::mean(&round.mixed),
                "hop_count={hop_count}"
            );
            assert_eq!(
                round.audit.unmix(&round.mixed).unwrap(),
                ins,
                "hop_count={hop_count}"
            );
        }
    }

    #[test]
    fn group_sealing_matches_slot_by_slot_seal_update() {
        // Free routes give groups of different route lengths; batching a
        // group's ephemerals must emit exactly the slot-by-slot onions and
        // leave the participant RNG where they leave it.
        let (cascade, _, _) = launch_with(
            Box::new(FreeRoute::new(4, 1, 4, 55)),
            FailurePolicy::Abort,
            12,
        );
        let ins = updates(12);
        let groups = cascade.active_groups(ins.len()).unwrap();
        for compression in [CompressionConfig::F32, CompressionConfig::int8_top_k()] {
            let mut rng = StdRng::seed_from_u64(77);
            let mut one_rng = rng.clone();
            let batched = CascadeCoordinator::seal_groups(
                &cascade.hops,
                &groups,
                &ins,
                compression,
                &mut rng,
            );
            for (group, sealed) in groups.iter().zip(&batched) {
                let keys = group.route.iter().map(|&h| *cascade.hops[h].public_key());
                let client = CascadeClient::from_keys(keys.collect()).with_compression(compression);
                for (&s, blob) in group.slots.iter().zip(sealed) {
                    assert_eq!(blob, &client.seal_update(&ins[s], &mut one_rng).unwrap());
                }
            }
            assert_eq!(rng, one_rng);
        }
    }

    #[test]
    fn multi_hop_round_actually_re_mixes() {
        let (mut cascade, _, mut rng) = launch(3, FailurePolicy::Abort);
        let ins = updates(8);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(round.audit.plans().unwrap().len(), 3);
        let changed = ins.iter().zip(&round.mixed).filter(|(a, b)| a != b).count();
        assert!(changed > 0, "no update changed content after cascading");
        // The composed permutation differs from every single hop's plan for
        // at least one cell in general; at minimum it must be a valid
        // permutation per layer.
        for l in 0..2 {
            let mut seen = [false; 8];
            for i in 0..8 {
                let src = round.audit.composed_source(l, i).unwrap();
                assert!(!seen[src], "layer {l} output {i} reuses source {src}");
                seen[src] = true;
            }
        }
    }

    #[test]
    fn stratified_round_mixes_per_group_and_stays_bit_exact() {
        let (mut cascade, _, mut rng) = launch_with(
            Box::new(StratifiedLayout::evenly(4, 2, 77)),
            FailurePolicy::Abort,
            33,
        );
        let ins = updates(12);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(
            ModelParams::mean(&ins),
            ModelParams::mean(&round.mixed),
            "stratified mixing must not move the aggregate"
        );
        assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);

        // Every group's route is one hop per stratum, and mixing stays
        // inside groups: each output's source shares its route.
        for group in round.audit.groups() {
            assert_eq!(group.route().len(), 2);
            assert!(group.route()[0] < 2 && group.route()[1] >= 2);
            assert_eq!(group.plans().len(), 2);
            for l in 0..2 {
                for &out in group.slots() {
                    let src = round.audit.composed_source(l, out).unwrap();
                    assert!(
                        group.slots().contains(&src),
                        "layer {l} output {out} drew from outside its route group"
                    );
                }
            }
        }
        let covered: usize = round.audit.groups().iter().map(|g| g.members()).sum();
        assert_eq!(covered, 12);
    }

    #[test]
    fn free_route_round_supports_single_hop_routes_and_unused_hops() {
        #[derive(Debug)]
        struct Fixed;
        impl CascadeTopology for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn num_hops(&self) -> usize {
                3
            }
            fn route(&self, slot: usize) -> Vec<usize> {
                // Nobody routes through hop 1; slot 0 takes a single hop.
                if slot == 0 {
                    vec![0]
                } else {
                    vec![0, 2]
                }
            }
        }
        let (mut cascade, _, mut rng) = launch_with(Box::new(Fixed), FailurePolicy::Abort, 35);
        let ins = updates(5);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&round.mixed));
        assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);
        assert_eq!(round.chain, vec![0, 2], "hop 1 is off every route");
        let stats = cascade.hop_stats();
        assert_eq!(stats[1].updates_received, 0, "unused hop does no work");
        // Hop 0 serves both groups: 1 + 4 updates across two partial rounds.
        assert_eq!(stats[0].updates_received, 5);
        assert_eq!(stats[2].updates_received, 4);
        // The single-hop client mixes with nobody: its group is {0}.
        let lone = round
            .audit
            .groups()
            .iter()
            .find(|g| g.route() == [0])
            .expect("slot 0's group");
        assert_eq!(lone.slots(), [0]);
        assert_eq!(round.audit.composed_source(0, 0), Some(0));
    }

    #[test]
    fn free_route_layout_round_trips_end_to_end() {
        let (mut cascade, _, mut rng) = launch_with(
            Box::new(FreeRoute::new(4, 1, 4, 55)),
            FailurePolicy::Abort,
            36,
        );
        let ins = updates(10);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&round.mixed));
        assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);
        assert!(round.audit.groups().len() > 1, "free routes should split");
    }

    #[test]
    fn verified_client_round_trips_through_the_chain() {
        let (cascade, service, _) = launch(3, FailurePolicy::Abort);
        let client = cascade.client(&service).unwrap();
        assert_eq!(client.num_hops(), 3);
        let foreign = AttestationService::new(&mut StdRng::seed_from_u64(99));
        assert!(matches!(
            cascade.client(&foreign),
            Err(CascadeError::Attestation { .. })
        ));
    }

    #[test]
    fn per_slot_clients_follow_their_routes() {
        let (cascade, service, _) = launch_with(
            Box::new(StratifiedLayout::evenly(4, 2, 21)),
            FailurePolicy::Abort,
            37,
        );
        // The shared-chain constructor refuses a non-uniform layout…
        assert!(matches!(
            cascade.client(&service),
            Err(CascadeError::Topology { .. })
        ));
        // …but every slot gets a verified client over its own route.
        for slot in 0..8 {
            let client = cascade.client_for_slot(slot, &service).unwrap();
            assert_eq!(client.num_hops(), 2, "one hop per stratum");
        }
        let foreign = AttestationService::new(&mut StdRng::seed_from_u64(98));
        assert!(matches!(
            cascade.client_for_slot(0, &foreign),
            Err(CascadeError::Attestation { .. })
        ));
    }

    #[test]
    fn abort_policy_surfaces_the_hop_failure() {
        let mut rng = StdRng::seed_from_u64(40);
        let service = AttestationService::new(&mut rng);
        let mut hops: Vec<CascadeHopConfig> = (0..3)
            .map(|i| CascadeHopConfig {
                seed: i as u64,
                ..CascadeHopConfig::default()
            })
            .collect();
        hops[1].enclave = EnclaveConfig {
            epc_limit: 32, // cannot hold a round
            code_identity: crate::HOP_CODE_IDENTITY.to_vec(),
            allow_paging: false,
        };
        let mut cascade = CascadeCoordinator::launch(
            CascadeConfig {
                expected_signature: vec![3, 2],
                hops,
                policy: FailurePolicy::Abort,
                parallelism: Parallelism::sequential(),
                compression: CompressionConfig::F32,
            },
            Box::new(LinearChain::new(3)),
            &service,
            &mut rng,
        )
        .unwrap();
        let err = cascade.run_round(&updates(5), &mut rng).unwrap_err();
        assert!(matches!(err, CascadeError::Hop { hop: 1, .. }));
        assert!(cascade.skipped_hops().is_empty(), "abort must not skip");
    }

    #[test]
    fn skip_policy_routes_around_a_dead_hop_and_stays_correct() {
        let mut rng = StdRng::seed_from_u64(41);
        let service = AttestationService::new(&mut rng);
        let mut hops: Vec<CascadeHopConfig> = (0..3)
            .map(|i| CascadeHopConfig {
                seed: 50 + i as u64,
                ..CascadeHopConfig::default()
            })
            .collect();
        hops[1].enclave = EnclaveConfig {
            epc_limit: 32,
            code_identity: crate::HOP_CODE_IDENTITY.to_vec(),
            allow_paging: false,
        };
        let mut cascade = CascadeCoordinator::launch(
            CascadeConfig {
                expected_signature: vec![3, 2],
                hops,
                policy: FailurePolicy::Skip,
                parallelism: Parallelism::sequential(),
                compression: CompressionConfig::F32,
            },
            Box::new(LinearChain::new(3)),
            &service,
            &mut rng,
        )
        .unwrap();
        let ins = updates(5);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(round.skipped_this_round, vec![1]);
        assert_eq!(round.chain, vec![0, 2]);
        assert_eq!(cascade.skipped_hops(), vec![1]);
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&round.mixed));
        assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);

        // The skip is sticky: the next round goes straight to the
        // surviving chain…
        let round2 = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(round2.chain, vec![0, 2]);
        assert!(round2.skipped_this_round.is_empty());

        // …until the operator reinstates the hop (here still broken, so it
        // is skipped again).
        cascade.reinstate(1);
        assert!(cascade.skipped_hops().is_empty());
        let round3 = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(round3.skipped_this_round, vec![1]);
    }

    #[test]
    fn skip_at_a_partially_used_hop_reroutes_only_its_groups() {
        // Slots split over hop 1 and hop 2 after a shared hop 0; hop 2 is
        // starved, so only the group routed through it loses a hop. After
        // the skip, that group's route collapses to [0] while the other
        // still traverses [0, 1].
        #[derive(Debug)]
        struct Split;
        impl CascadeTopology for Split {
            fn name(&self) -> &str {
                "split"
            }
            fn num_hops(&self) -> usize {
                3
            }
            fn route(&self, slot: usize) -> Vec<usize> {
                if slot.is_multiple_of(2) {
                    vec![0, 1]
                } else {
                    vec![0, 2]
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(44);
        let service = AttestationService::new(&mut rng);
        let mut hops: Vec<CascadeHopConfig> = (0..3)
            .map(|i| CascadeHopConfig {
                seed: 70 + i as u64,
                ..CascadeHopConfig::default()
            })
            .collect();
        hops[2].enclave = EnclaveConfig {
            epc_limit: 32, // cannot hold even its partial round
            code_identity: crate::HOP_CODE_IDENTITY.to_vec(),
            allow_paging: false,
        };
        let mut cascade = CascadeCoordinator::launch(
            CascadeConfig {
                expected_signature: vec![3, 2],
                hops,
                policy: FailurePolicy::Skip,
                parallelism: Parallelism::sequential(),
                compression: CompressionConfig::F32,
            },
            Box::new(Split),
            &service,
            &mut rng,
        )
        .unwrap();
        let ins = updates(6);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(round.skipped_this_round, vec![2]);
        assert_eq!(cascade.skipped_hops(), vec![2]);
        assert_eq!(round.chain, vec![0, 1]);
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&round.mixed));
        assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);
        let routes: Vec<&[usize]> = round.audit.groups().iter().map(|g| g.route()).collect();
        assert_eq!(routes, vec![&[0][..], &[0, 1][..]]);
        assert_eq!(cascade.hops()[2].memory_stats().allocated, 0);
    }

    #[test]
    fn skip_exhaustion_reports_no_active_hops() {
        let mut rng = StdRng::seed_from_u64(42);
        let service = AttestationService::new(&mut rng);
        let dead = EnclaveConfig {
            epc_limit: 8,
            code_identity: crate::HOP_CODE_IDENTITY.to_vec(),
            allow_paging: false,
        };
        let mut cascade = CascadeCoordinator::launch(
            CascadeConfig {
                expected_signature: vec![3, 2],
                hops: (0..2)
                    .map(|i| CascadeHopConfig {
                        enclave: dead.clone(),
                        seed: i as u64,
                        ..CascadeHopConfig::default()
                    })
                    .collect(),
                policy: FailurePolicy::Skip,
                parallelism: Parallelism::sequential(),
                compression: CompressionConfig::F32,
            },
            Box::new(LinearChain::new(2)),
            &service,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            cascade.run_round(&updates(4), &mut rng).unwrap_err(),
            CascadeError::NoActiveHops
        );
    }

    #[test]
    fn bad_input_is_rejected_before_any_hop_runs() {
        let (mut cascade, _, mut rng) = launch(2, FailurePolicy::Abort);
        assert_eq!(
            cascade.run_round(&[], &mut rng).unwrap_err(),
            CascadeError::EmptyRound
        );
        let alien = vec![ModelParams::from_layers(vec![LayerParams::from_values(
            vec![0.0],
        )])];
        assert!(matches!(
            cascade.run_round(&alien, &mut rng).unwrap_err(),
            CascadeError::SignatureMismatch { .. }
        ));
        assert_eq!(cascade.hop_stats()[0].updates_received, 0);
    }

    #[test]
    fn launch_validates_configuration() {
        let mut rng = StdRng::seed_from_u64(43);
        let service = AttestationService::new(&mut rng);
        assert!(matches!(
            CascadeCoordinator::launch(
                CascadeConfig {
                    expected_signature: vec![2],
                    hops: vec![],
                    policy: FailurePolicy::Abort,
                    parallelism: Parallelism::sequential(),
                    compression: CompressionConfig::F32,
                },
                Box::new(LinearChain::new(1)),
                &service,
                &mut rng,
            ),
            Err(CascadeError::NoActiveHops)
        ));
        assert!(matches!(
            CascadeCoordinator::launch(
                CascadeConfig {
                    expected_signature: vec![],
                    hops: vec![CascadeHopConfig::default()],
                    policy: FailurePolicy::Abort,
                    parallelism: Parallelism::sequential(),
                    compression: CompressionConfig::F32,
                },
                Box::new(LinearChain::new(1)),
                &service,
                &mut rng,
            ),
            Err(CascadeError::SignatureMismatch { .. })
        ));
        assert!(matches!(
            CascadeCoordinator::launch(
                CascadeConfig {
                    expected_signature: vec![2],
                    hops: vec![CascadeHopConfig::default()],
                    policy: FailurePolicy::Abort,
                    parallelism: Parallelism::sequential(),
                    compression: CompressionConfig::F32,
                },
                Box::new(LinearChain::new(2)),
                &service,
                &mut rng,
            ),
            Err(CascadeError::Topology { .. })
        ));
    }

    #[test]
    fn malformed_topology_routes_fail_the_round() {
        #[derive(Debug)]
        struct OutOfRange;
        impl CascadeTopology for OutOfRange {
            fn name(&self) -> &str {
                "out-of-range"
            }
            fn num_hops(&self) -> usize {
                2
            }
            fn route(&self, _slot: usize) -> Vec<usize> {
                vec![0, 5]
            }
        }
        let (mut cascade, _, mut rng) = launch_with(Box::new(OutOfRange), FailurePolicy::Abort, 45);
        assert!(matches!(
            cascade.run_round(&updates(3), &mut rng).unwrap_err(),
            CascadeError::Topology { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "disagrees with plan 0")]
    fn audit_rejects_inconsistent_plans_at_construction() {
        let mut rng = StdRng::seed_from_u64(50);
        let a = MixPlan::latin(5, 2, &mut rng).unwrap();
        let b = MixPlan::latin(4, 2, &mut rng).unwrap();
        let _ = CascadeAudit::new(vec![a, b]);
    }

    #[test]
    fn flat_plans_accessor_rejects_multi_group_audits() {
        let mut rng = StdRng::seed_from_u64(51);
        let a = MixPlan::latin(2, 1, &mut rng).unwrap();
        let b = MixPlan::latin(3, 1, &mut rng).unwrap();
        let audit = CascadeAudit::from_groups(
            5,
            vec![
                RouteGroupAudit::new(vec![0, 1], vec![0], vec![a]),
                RouteGroupAudit::new(vec![2, 3, 4], vec![1], vec![b]),
            ],
        );
        let err = audit.plans().unwrap_err();
        assert_eq!(err, CascadeError::MultiGroupAudit { groups: 2 });
        assert!(err.to_string().contains("2 route groups"));
        // The grouped accessor is the supported path.
        assert_eq!(audit.groups().len(), 2);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn grouped_audit_rejects_non_partitions() {
        let mut rng = StdRng::seed_from_u64(52);
        let a = MixPlan::latin(2, 1, &mut rng).unwrap();
        let _ =
            CascadeAudit::from_groups(4, vec![RouteGroupAudit::new(vec![0, 1], vec![0], vec![a])]);
    }

    #[test]
    fn unmix_rejects_mismatched_dimensions() {
        let (mut cascade, _, mut rng) = launch(2, FailurePolicy::Abort);
        let ins = updates(5);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert!(matches!(
            round.audit.unmix(&round.mixed[..3]),
            Err(CascadeError::Audit { .. })
        ));
    }

    /// Extracts the worker-invariant slice of per-hop stats (the
    /// `*_seconds` fields are wall-clock and excluded by design).
    fn counter_stats(cascade: &CascadeCoordinator) -> Vec<(u64, u64, u64, u64, u64)> {
        cascade
            .hop_stats()
            .iter()
            .map(|s| {
                (
                    s.updates_received,
                    s.updates_forwarded,
                    s.updates_rejected,
                    s.bytes_received,
                    s.bytes_rejected,
                )
            })
            .collect()
    }

    #[test]
    fn concurrent_route_groups_are_worker_count_invariant() {
        // Free routes split the round into several groups sharing hops;
        // two back-to-back rounds also pin the hop RNG streams and the
        // caller's sealing-RNG consumption across worker counts.
        let run = |parallelism: Parallelism| {
            let (mut cascade, _, mut rng) = launch_with(
                Box::new(FreeRoute::new(4, 1, 4, 55)),
                FailurePolicy::Abort,
                36,
            );
            cascade.set_parallelism(parallelism);
            let ins = updates(10);
            let first = cascade.run_round(&ins, &mut rng).unwrap();
            assert!(first.audit.groups().len() > 1, "free routes should split");
            let second = cascade.run_round(&ins, &mut rng).unwrap();
            (first, second, counter_stats(&cascade))
        };
        let sequential = run(Parallelism::sequential());
        for workers in [2, 4, 8] {
            let parallel = run(Parallelism {
                group_workers: workers,
                ingest_workers: workers,
                ..Parallelism::sequential()
            });
            assert_eq!(sequential, parallel, "group_workers={workers}");
        }
    }

    #[test]
    fn concurrent_skip_falls_back_to_canonical_sequential_semantics() {
        // A starved hop fails mid-round: the optimistic concurrent attempt
        // must discard itself and reproduce the sequential skip exactly —
        // same surviving chain, same outputs, same counters.
        let run = |group_workers: usize| {
            let mut rng = StdRng::seed_from_u64(41);
            let service = AttestationService::new(&mut rng);
            let mut hops: Vec<CascadeHopConfig> = (0..3)
                .map(|i| CascadeHopConfig {
                    seed: 50 + i as u64,
                    ..CascadeHopConfig::default()
                })
                .collect();
            hops[1].enclave = EnclaveConfig {
                epc_limit: 32,
                code_identity: crate::HOP_CODE_IDENTITY.to_vec(),
                allow_paging: false,
            };
            let mut cascade = CascadeCoordinator::launch(
                CascadeConfig {
                    expected_signature: vec![3, 2],
                    hops,
                    policy: FailurePolicy::Skip,
                    compression: CompressionConfig::F32,
                    parallelism: Parallelism {
                        group_workers,
                        ..Parallelism::sequential()
                    },
                },
                // Routes of >= 2 hops: skipping the one starved hop can
                // never empty a route.
                Box::new(FreeRoute::new(3, 2, 3, 8)),
                &service,
                &mut rng,
            )
            .unwrap();
            let ins = updates(6);
            let round = cascade.run_round(&ins, &mut rng).unwrap();
            assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);
            (round, cascade.skipped_hops(), counter_stats(&cascade))
        };
        let sequential = run(1);
        assert!(
            sequential.1.contains(&1),
            "the starved hop must have been skipped"
        );
        for workers in [2, 4] {
            assert_eq!(sequential, run(workers), "group_workers={workers}");
        }
    }

    #[test]
    fn pipelined_rounds_are_depth_invariant() {
        let rounds: Vec<Vec<ModelParams>> = (0..4)
            .map(|r| (0..5).map(|i| params(i + r)).collect())
            .collect();
        let run = |parallelism: Parallelism| {
            let (mut cascade, _, mut rng) = launch_with(
                Box::new(StratifiedLayout::evenly(4, 2, 77)),
                FailurePolicy::Abort,
                33,
            );
            cascade.set_parallelism(parallelism);
            let out = cascade.run_rounds(&rounds, &mut rng).unwrap();
            (out, counter_stats(&cascade), rng.gen::<u64>())
        };
        let sequential = run(Parallelism::sequential());
        assert_eq!(sequential.0.len(), 4);
        for (r, round) in sequential.0.iter().enumerate() {
            assert_eq!(round.audit.unmix(&round.mixed).unwrap(), rounds[r]);
        }
        for depth in [2, 3, 8] {
            let pipelined = run(Parallelism {
                pipeline_depth: depth,
                group_workers: 2,
                ingest_workers: 2,
                ..Parallelism::sequential()
            });
            assert_eq!(sequential, pipelined, "pipeline_depth={depth}");
        }
    }

    #[test]
    fn pipelined_rounds_with_a_dead_hop_match_the_sequential_skip_path() {
        let rounds: Vec<Vec<ModelParams>> = (0..3)
            .map(|r| (0..4).map(|i| params(i + r)).collect())
            .collect();
        let run = |parallelism: Parallelism| {
            let mut rng = StdRng::seed_from_u64(47);
            let service = AttestationService::new(&mut rng);
            let mut hops: Vec<CascadeHopConfig> = (0..3)
                .map(|i| CascadeHopConfig {
                    seed: 80 + i as u64,
                    ..CascadeHopConfig::default()
                })
                .collect();
            hops[2].enclave = EnclaveConfig {
                epc_limit: 32,
                code_identity: crate::HOP_CODE_IDENTITY.to_vec(),
                allow_paging: false,
            };
            let mut cascade = CascadeCoordinator::launch(
                CascadeConfig {
                    expected_signature: vec![3, 2],
                    hops,
                    policy: FailurePolicy::Skip,
                    parallelism,
                    compression: CompressionConfig::F32,
                },
                Box::new(LinearChain::new(3)),
                &service,
                &mut rng,
            )
            .unwrap();
            let out = cascade.run_rounds(&rounds, &mut rng).unwrap();
            (out, cascade.skipped_hops(), counter_stats(&cascade))
        };
        let sequential = run(Parallelism::sequential());
        assert_eq!(sequential.1, vec![2], "the starved hop must be skipped");
        assert_eq!(
            sequential.0[0].skipped_this_round,
            vec![2],
            "the first round takes the hit"
        );
        for depth in [2, 4] {
            let pipelined = run(Parallelism {
                pipeline_depth: depth,
                ..Parallelism::sequential()
            });
            assert_eq!(sequential, pipelined, "pipeline_depth={depth}");
        }
    }

    #[test]
    fn set_parallelism_reaches_coordinator_and_hops() {
        let (mut cascade, _, _) = launch(2, FailurePolicy::Abort);
        cascade.set_parallelism(Parallelism::uniform(4));
        assert_eq!(cascade.parallelism().group_workers, 4);
        assert_eq!(cascade.parallelism().pipeline_depth, 4);
        for hop in cascade.hops() {
            assert_eq!(hop.parallelism().ingest_workers, 4);
        }
    }

    #[test]
    fn route_group_audit_covers_dummy_padded_trailing_slots() {
        // A 3-client partial round padded to a k-floor of 5: the audit
        // must describe the slots the round actually drove — the real
        // members in the leading slots plus the trailing cover — exactly
        // as it describes an all-real round.
        let (mut cascade, _, mut rng) = launch_with(
            Box::new(FreeRoute::new(3, 1, 3, 55)),
            FailurePolicy::Abort,
            55,
        );
        let ins = updates(3);
        let padded = cascade
            .run_padded_round_over(&ins, 5, &mut rng, &mut InProcessLink)
            .unwrap();
        assert_eq!(padded.real, 3);
        assert!(padded.dummies() > 0, "a 3-member round needs cover at k=5");
        let audit = &padded.round.audit;
        let driven = padded.real + padded.dummies();

        // The groups partition every driven slot (real and cover alike)
        // and each group meets the k-floor with plans sized to its padded
        // membership.
        let mut seen = vec![false; driven];
        for group in audit.groups() {
            assert!(group.members() >= 5, "group of {}", group.members());
            assert_eq!(group.plans().len(), group.route().len());
            for &slot in group.slots() {
                assert!(!seen[slot], "slot {slot} audited twice");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every driven slot is audited");

        // The audit stays honest through the padding: unmixing restores
        // the real originals in the leading slots.
        let restored = audit.unmix(&padded.round.mixed).unwrap();
        assert_eq!(&restored[..3], &ins[..]);

        // And when the padded round splits into several groups, the flat
        // plans() accessor refuses with the pooled-round wording.
        if audit.groups().len() > 1 {
            let err = audit.plans().unwrap_err();
            assert!(matches!(err, CascadeError::MultiGroupAudit { .. }));
            assert!(err.to_string().contains("pooled round"), "{err}");
        }
    }
}
