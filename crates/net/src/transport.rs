//! Update transports that cross the simulated wire.
//!
//! [`NetCascadeTransport`] and [`NetMixnnTransport`] mirror the
//! in-process `CascadeTransport` / `MixnnTransport` exactly — same
//! sealing RNG discipline, same mixing pipeline — but every segment of
//! the update path travels through a [`SimLink`]: framed, transmitted
//! under latency/jitter/backpressure, reassembled. Under zero loss the
//! mixed output is bit-identical to the in-process drive (the
//! equivalence proptest pins this); packet loss and stalls surface as
//! [`LinkError`] timeouts, which the cascade's `FailurePolicy` consumes
//! and the federated loop sees as `FlError::Timeout`.

use crate::link::{FlushPolicy, SimLink};
use crate::sim::LinkConfig;
use mixnn_cascade::{CascadeAudit, CascadeCoordinator, CascadeError};
use mixnn_core::{
    codec, Endpoint, LinkError, MixingStrategy, MixnnProxy, ParallelIngest, RoundLink,
};
use mixnn_crypto::SealedBox;
use mixnn_fl::{FlError, ModelUpdate, UpdateTransport};
use mixnn_nn::ModelParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fl_error(e: LinkError) -> FlError {
    if e.is_timeout() {
        FlError::Timeout {
            message: e.to_string(),
        }
    } else {
        FlError::Transport {
            message: e.to_string(),
        }
    }
}

/// An [`UpdateTransport`] that routes each round through a mix cascade
/// whose every segment crosses the simulated network.
///
/// Coordinator, hops and server run unchanged — the coordinator's
/// link-aware drive (`run_round_over`) moves batches through the
/// [`SimLink`], so delivery failures trigger the configured
/// `FailurePolicy` exactly as a real wire outage would.
#[derive(Debug)]
pub struct NetCascadeTransport {
    coordinator: CascadeCoordinator,
    link: SimLink,
    /// RNG standing in for the participants' onion-sealing entropy.
    participant_rng: StdRng,
    last_audit: Option<CascadeAudit>,
}

impl NetCascadeTransport {
    /// Wraps a launched cascade, wiring a simulated network sized to its
    /// hop count.
    pub fn new(
        coordinator: CascadeCoordinator,
        seed: u64,
        cfg: LinkConfig,
        flush: FlushPolicy,
        timeout_ns: u64,
    ) -> Self {
        let hops = coordinator.hops().len();
        NetCascadeTransport {
            coordinator,
            link: SimLink::new(hops, seed ^ 0x6e65_745f, cfg, flush, timeout_ns),
            participant_rng: StdRng::seed_from_u64(seed),
            last_audit: None,
        }
    }

    /// Access to the cascade (per-hop stats, skip state).
    pub fn coordinator(&self) -> &CascadeCoordinator {
        &self.coordinator
    }

    /// Mutable access (reinstating hops between rounds).
    pub fn coordinator_mut(&mut self) -> &mut CascadeCoordinator {
        &mut self.coordinator
    }

    /// The simulated wire (stats, segment reconfiguration).
    pub fn link(&self) -> &SimLink {
        &self.link
    }

    /// Mutable wire access (loss injection in tests).
    pub fn link_mut(&mut self) -> &mut SimLink {
        &mut self.link
    }

    /// The audit of the most recent round, for experiments.
    pub fn last_audit(&self) -> Option<&CascadeAudit> {
        self.last_audit.as_ref()
    }

    fn relay_inner(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, CascadeError> {
        let slot_ids: Vec<usize> = updates.iter().map(|u| u.client_id).collect();
        let params: Vec<ModelParams> = updates.into_iter().map(|u| u.params).collect();
        let round =
            self.coordinator
                .run_round_over(&params, &mut self.participant_rng, &mut self.link)?;
        self.last_audit = Some(round.audit);
        Ok(slot_ids
            .into_iter()
            .zip(round.mixed)
            .map(|(slot, params)| ModelUpdate::new(slot, params))
            .collect())
    }
}

impl UpdateTransport for NetCascadeTransport {
    fn label(&self) -> &str {
        "mixnn-cascade-net"
    }

    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError> {
        self.relay_inner(updates).map_err(FlError::from)
    }
}

/// An [`UpdateTransport`] that routes each round through a single MixNN
/// proxy across the simulated network.
///
/// The sealed envelopes travel Clients → proxy as framed bursts; the
/// mixed plaintext updates travel proxy → server the same way. The
/// pipeline inside the proxy (parallel ingest, batch or streaming mix)
/// is identical to `MixnnTransport`'s encrypted mode.
#[derive(Debug)]
pub struct NetMixnnTransport {
    proxy: MixnnProxy,
    link: SimLink,
    compression: codec::CompressionConfig,
    /// RNG standing in for the participants' sealing entropy.
    participant_rng: StdRng,
}

impl NetMixnnTransport {
    /// Wraps a launched proxy behind a one-hop simulated network.
    pub fn new(
        proxy: MixnnProxy,
        seed: u64,
        cfg: LinkConfig,
        flush: FlushPolicy,
        timeout_ns: u64,
    ) -> Self {
        NetMixnnTransport {
            proxy,
            link: SimLink::new(1, seed ^ 0x6e65_745f, cfg, flush, timeout_ns),
            compression: codec::CompressionConfig::F32,
            participant_rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sets the wire compression for the clients → proxy leg (the
    /// per-client cost at scale). The proxy → server leg stays the
    /// lossless v1 format: its payload is already-mixed aggregate input,
    /// and re-quantizing decoded values would compound the loss.
    #[must_use]
    pub fn with_compression(mut self, compression: codec::CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// Access to the proxy (stats, memory, last plan).
    pub fn proxy(&self) -> &MixnnProxy {
        &self.proxy
    }

    /// The simulated wire.
    pub fn link(&self) -> &SimLink {
        &self.link
    }

    /// Mutable wire access (loss injection in tests).
    pub fn link_mut(&mut self) -> &mut SimLink {
        &mut self.link
    }

    /// Runs one proxy round over the wire: seal, transmit, ingest, mix,
    /// transmit, decode.
    ///
    /// # Errors
    ///
    /// Proxy rejections surface as [`FlError::Transport`]; wire timeouts
    /// as [`FlError::Timeout`].
    pub fn relay_round(&mut self, params: Vec<ModelParams>) -> Result<Vec<ModelParams>, FlError> {
        // The round's ephemeral keys derive in one batch, drawn in slot
        // order: the same envelopes as slot-by-slot `seal` calls.
        let recipients = vec![*self.proxy.public_key(); params.len()];
        let sealed: Vec<Vec<u8>> = SealedBox::ephemerals(&recipients, &mut self.participant_rng)
            .expect("attested enclave keys are never low-order")
            .into_iter()
            .zip(&params)
            .map(|(eph, p)| eph.seal(&codec::encode_params_with(p, self.compression)))
            .collect();
        let delivered = self
            .link
            .deliver(Endpoint::Clients, Endpoint::Hop(0), sealed)
            .map_err(fl_error)?;
        let ingest = ParallelIngest::from_parallelism(self.proxy.parallelism());
        let mut streamed = Vec::new();
        for result in ingest.submit_all(&mut self.proxy, &delivered) {
            let out = result.map_err(|e| FlError::Transport {
                message: e.to_string(),
            })?;
            if let Some(out) = out {
                streamed.push(out);
            }
        }
        let mixed = match self.proxy.strategy() {
            MixingStrategy::Batch => self.proxy.mix_batch().map_err(|e| FlError::Transport {
                message: e.to_string(),
            })?,
            MixingStrategy::Streaming { .. } => {
                streamed.extend(self.proxy.flush().map_err(|e| FlError::Transport {
                    message: e.to_string(),
                })?);
                streamed
            }
        };
        let encoded: Vec<Vec<u8>> = mixed.iter().map(codec::encode_params).collect();
        drop(mixed);
        let delivered = self
            .link
            .deliver(Endpoint::Hop(0), Endpoint::Server, encoded)
            .map_err(fl_error)?;
        delivered
            .iter()
            .map(|bytes| {
                codec::decode_params(bytes).map_err(|e| FlError::Transport {
                    message: e.to_string(),
                })
            })
            .collect()
    }
}

impl UpdateTransport for NetMixnnTransport {
    fn label(&self) -> &str {
        "mixnn-proxy-net"
    }

    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError> {
        let slot_ids: Vec<usize> = updates.iter().map(|u| u.client_id).collect();
        let params = updates.into_iter().map(|u| u.params).collect();
        let mixed = self.relay_round(params)?;
        Ok(slot_ids
            .into_iter()
            .zip(mixed)
            .map(|(slot, params)| ModelUpdate::new(slot, params))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_cascade::FailurePolicy;
    use mixnn_core::MixnnProxyConfig;
    use mixnn_enclave::AttestationService;
    use mixnn_nn::LayerParams;

    fn updates(c: usize) -> Vec<ModelUpdate> {
        (0..c)
            .map(|i| {
                ModelUpdate::new(
                    i,
                    ModelParams::from_layers(vec![
                        LayerParams::from_values(vec![i as f32; 2]),
                        LayerParams::from_values(vec![-(i as f32); 3]),
                    ]),
                )
            })
            .collect()
    }

    fn cascade_transport(policy: FailurePolicy) -> NetCascadeTransport {
        let mut rng = StdRng::seed_from_u64(61);
        let service = AttestationService::new(&mut rng);
        let cascade =
            CascadeCoordinator::linear(vec![2, 3], 3, 17, policy, &service, &mut rng).unwrap();
        NetCascadeTransport::new(
            cascade,
            77,
            LinkConfig::default(),
            FlushPolicy::Batched,
            10_000_000_000,
        )
    }

    #[test]
    fn cascade_relay_over_wire_preserves_slots_and_aggregate() {
        let mut t = cascade_transport(FailurePolicy::Abort);
        let ins = updates(6);
        let outs = t.relay(ins.clone()).unwrap();
        assert_eq!(outs.len(), 6);
        let in_slots: Vec<usize> = ins.iter().map(|u| u.client_id).collect();
        let out_slots: Vec<usize> = outs.iter().map(|u| u.client_id).collect();
        assert_eq!(in_slots, out_slots);
        let a: Vec<ModelParams> = ins.into_iter().map(|u| u.params).collect();
        let b: Vec<ModelParams> = outs.into_iter().map(|u| u.params).collect();
        assert_eq!(ModelParams::mean(&a), ModelParams::mean(&b));
        assert!(t.link().stats().packets_sent > 0, "rounds crossed the wire");
    }

    #[test]
    fn proxy_relay_over_wire_preserves_aggregate() {
        let mut rng = StdRng::seed_from_u64(5);
        let service = AttestationService::new(&mut rng);
        let proxy = MixnnProxy::launch(
            MixnnProxyConfig {
                expected_signature: vec![2, 3],
                seed: 3,
                ..MixnnProxyConfig::default()
            },
            &service,
            &mut rng,
        );
        let mut t = NetMixnnTransport::new(
            proxy,
            77,
            LinkConfig::default(),
            FlushPolicy::Batched,
            10_000_000_000,
        );
        let ins = updates(6);
        let outs = t.relay(ins.clone()).unwrap();
        assert_eq!(outs.len(), 6);
        let a: Vec<ModelParams> = ins.into_iter().map(|u| u.params).collect();
        let b: Vec<ModelParams> = outs.into_iter().map(|u| u.params).collect();
        assert_eq!(ModelParams::mean(&a), ModelParams::mean(&b));
        assert_eq!(t.label(), "mixnn-proxy-net");
    }

    #[test]
    fn proxy_wire_timeout_is_typed() {
        let mut rng = StdRng::seed_from_u64(5);
        let service = AttestationService::new(&mut rng);
        let proxy = MixnnProxy::launch(
            MixnnProxyConfig {
                expected_signature: vec![2, 3],
                seed: 3,
                ..MixnnProxyConfig::default()
            },
            &service,
            &mut rng,
        );
        let mut t = NetMixnnTransport::new(
            proxy,
            77,
            LinkConfig::default(),
            FlushPolicy::Batched,
            1_000_000_000,
        );
        t.link_mut().set_segment_config(
            Endpoint::Clients,
            Endpoint::Hop(0),
            LinkConfig {
                loss: 1.0,
                ..LinkConfig::default()
            },
        );
        let err = t.relay(updates(4)).unwrap_err();
        assert!(matches!(err, FlError::Timeout { .. }), "got {err}");
    }
}
