//! The metric registry: one atomic slot per static identifier, a span
//! timer, and the round-trace journal.

use crate::clock::{ClockSource, VirtualClock, WallClock};
use crate::export::{CounterSample, GaugeSample, HistogramSample, Snapshot};
use crate::metrics::{
    Component, Counter, Distribution, Gauge, Histogram, Span, COUNT_BOUNDS, LATENCY_NS_BOUNDS,
};
use crate::trace::{RoundTrace, TraceEvent, TraceKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The shared handle instrumented components hold.
///
/// Cloning is an `Arc` bump; every recording method takes `&self`, so one
/// registry can be attached across proxies, hops, the simulator, and the
/// FL loop at once.
pub type Telemetry = Arc<Registry>;

/// A process-local metric registry.
///
/// Cardinality is fixed at construction: exactly one slot per
/// [`Counter`]/[`Gauge`]/[`Distribution`]/[`Span`] variant. Recording into
/// a disabled registry is a single branch; building the crate with the
/// `off` feature folds every recording body away entirely.
pub struct Registry {
    enabled: bool,
    clock: Box<dyn ClockSource>,
    vclock: Option<VirtualClock>,
    counters: Vec<AtomicU64>,
    gauges: Vec<AtomicU64>,
    distributions: Vec<Histogram>,
    spans: Vec<Histogram>,
    trace: Mutex<RoundTrace>,
    hook_calls: AtomicU64,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl Registry {
    fn build(enabled: bool, clock: Box<dyn ClockSource>, vclock: Option<VirtualClock>) -> Self {
        Registry {
            enabled,
            clock,
            vclock,
            counters: (0..Counter::COUNT).map(|_| AtomicU64::new(0)).collect(),
            gauges: (0..Gauge::COUNT).map(|_| AtomicU64::new(0)).collect(),
            distributions: Distribution::ALL
                .iter()
                .map(|_| Histogram::new(&COUNT_BOUNDS))
                .collect(),
            spans: Span::ALL
                .iter()
                .map(|_| Histogram::new(&LATENCY_NS_BOUNDS))
                .collect(),
            trace: Mutex::new(RoundTrace::default()),
            hook_calls: AtomicU64::new(0),
        }
    }

    /// Counts one recording call that got past the enabled check.
    #[inline]
    fn count_hook(&self) {
        self.hook_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// An enabled registry on the wall clock.
    pub fn new() -> Self {
        Self::build(true, Box::new(WallClock::new()), None)
    }

    /// An enabled registry on an arbitrary clock source.
    pub fn with_clock(clock: Box<dyn ClockSource>) -> Self {
        Self::build(true, clock, None)
    }

    /// An enabled registry on a [`VirtualClock`], keeping the handle so
    /// the simulated network can discover and drive it
    /// (see [`Registry::virtual_clock`]).
    pub fn with_virtual_clock(clock: VirtualClock) -> Self {
        Self::build(true, Box::new(clock.clone()), Some(clock))
    }

    /// A disabled registry: every recording call returns after one branch.
    pub fn disabled() -> Self {
        Self::build(false, Box::new(VirtualClock::new()), None)
    }

    /// Wraps the registry in the shared [`Telemetry`] handle.
    pub fn shared(self) -> Telemetry {
        Arc::new(self)
    }

    /// Whether hooks record anything. With the `off` feature this is
    /// compile-time `false` regardless of construction.
    #[inline]
    pub fn enabled(&self) -> bool {
        #[cfg(feature = "off")]
        {
            false
        }
        #[cfg(not(feature = "off"))]
        {
            self.enabled
        }
    }

    /// The virtual clock this registry was built on, if any — the
    /// simulated network uses this to mirror its event clock into
    /// telemetry timestamps.
    pub fn virtual_clock(&self) -> Option<VirtualClock> {
        self.vclock.clone()
    }

    /// Current time on the registry's clock source.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Adds `by` to a counter.
    #[inline]
    pub fn incr(&self, counter: Counter, by: u64) {
        if !self.enabled() {
            return;
        }
        self.count_hook();
        self.counters[counter.index()].fetch_add(by, Ordering::Relaxed);
    }

    /// Raises a high-water-mark gauge to at least `value`.
    #[inline]
    pub fn gauge_max(&self, gauge: Gauge, value: u64) {
        if !self.enabled() {
            return;
        }
        self.count_hook();
        self.gauges[gauge.index()].fetch_max(value, Ordering::Relaxed);
    }

    /// Records one observation into a value distribution.
    #[inline]
    pub fn observe(&self, distribution: Distribution, value: u64) {
        if !self.enabled() {
            return;
        }
        self.count_hook();
        self.distributions[distribution.index()].observe(value);
    }

    /// Records a span duration directly.
    #[inline]
    pub fn record_span_ns(&self, span: Span, ns: u64) {
        if !self.enabled() {
            return;
        }
        self.count_hook();
        self.spans[span.index()].observe(ns);
    }

    /// Starts a span; the returned guard records the duration on drop.
    /// The guard counts as one hook call.
    pub fn span(self: &Arc<Self>, span: Span) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard { active: None };
        }
        self.count_hook();
        SpanGuard {
            active: Some((Arc::clone(self), span, self.now_ns())),
        }
    }

    /// Appends a trace event stamped with the registry clock.
    ///
    /// Call only from serialized code paths — the journal preserves
    /// insertion order, and deterministic traces depend on that order
    /// being a function of program semantics rather than scheduling.
    pub fn trace(&self, component: Component, hop: Option<u16>, kind: TraceKind) {
        if !self.enabled() {
            return;
        }
        self.count_hook();
        let event = TraceEvent {
            at_ns: self.now_ns(),
            component,
            hop,
            kind,
        };
        self.trace
            .lock()
            .expect("trace journal poisoned")
            .push(event);
    }

    /// A copy of the trace journal's events, in order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace
            .lock()
            .expect("trace journal poisoned")
            .events()
            .to_vec()
    }

    /// The rendered trace journal.
    pub fn trace_text(&self) -> String {
        self.trace.lock().expect("trace journal poisoned").render()
    }

    /// Recording calls this registry has taken while enabled, over every
    /// hook kind (a span guard counts once). Not an exported series: it
    /// is what the hook-overhead estimate of `eval throughput` multiplies
    /// by a microbenchmarked per-call cost.
    pub fn hook_calls(&self) -> u64 {
        self.hook_calls.load(Ordering::Relaxed)
    }

    /// Reads one counter (tests and report plumbing).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Reads one gauge.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()].load(Ordering::Relaxed)
    }

    /// Captures a point-in-time snapshot of every series, in static
    /// declaration order.
    pub fn snapshot(&self) -> Snapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| CounterSample {
                component: c.component().name(),
                name: c.name(),
                help: c.help(),
                value: self.counter(c),
            })
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| GaugeSample {
                component: g.component().name(),
                name: g.name(),
                help: g.help(),
                value: self.gauge(g),
            })
            .collect();
        let mut histograms = Vec::with_capacity(Distribution::COUNT + Span::COUNT);
        for &d in Distribution::ALL.iter() {
            let h = &self.distributions[d.index()];
            let (buckets, count, sum) = h.read();
            histograms.push(HistogramSample {
                component: d.component().name(),
                name: d.name(),
                help: d.help(),
                bounds: h.bounds(),
                buckets,
                count,
                sum,
            });
        }
        for &s in Span::ALL.iter() {
            let h = &self.spans[s.index()];
            let (buckets, count, sum) = h.read();
            histograms.push(HistogramSample {
                component: s.component().name(),
                name: s.name(),
                help: s.help(),
                bounds: h.bounds(),
                buckets,
                count,
                sum,
            });
        }
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Records the elapsed time of a [`Registry::span`] on drop.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(Telemetry, Span, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((registry, span, start_ns)) = self.active.take() {
            let elapsed = registry.now_ns().saturating_sub(start_ns);
            registry.spans[span.index()].observe(elapsed);
        }
    }
}

/// The shared no-op handle: a disabled registry every component holds by
/// default, so hooks are always wired and attaching real telemetry is
/// just swapping the handle.
pub fn noop() -> Telemetry {
    static NOOP: OnceLock<Telemetry> = OnceLock::new();
    Arc::clone(NOOP.get_or_init(|| Registry::disabled().shared()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = noop();
        reg.incr(Counter::CoreUpdatesCommitted, 5);
        reg.gauge_max(Gauge::NetPeakSendQueue, 9);
        reg.observe(Distribution::CoreMixBatchUpdates, 3);
        reg.record_span_ns(Span::CoreMixBatch, 100);
        reg.trace(Component::Core, None, TraceKind::HopSkipped);
        assert_eq!(reg.counter(Counter::CoreUpdatesCommitted), 0);
        assert_eq!(reg.gauge(Gauge::NetPeakSendQueue), 0);
        assert!(reg.trace_events().is_empty());
    }

    #[test]
    fn enabled_registry_accumulates() {
        let reg = Registry::with_virtual_clock(VirtualClock::new()).shared();
        reg.incr(Counter::NetPacketsSent, 2);
        reg.incr(Counter::NetPacketsSent, 3);
        reg.gauge_max(Gauge::NetPeakRecvQueue, 4);
        reg.gauge_max(Gauge::NetPeakRecvQueue, 2);
        assert_eq!(reg.counter(Counter::NetPacketsSent), 5);
        assert_eq!(reg.gauge(Gauge::NetPeakRecvQueue), 4);
    }

    #[test]
    fn span_guard_records_virtual_duration() {
        let clock = VirtualClock::new();
        let reg = Registry::with_virtual_clock(clock.clone()).shared();
        {
            let _guard = reg.span(Span::FlRound);
            clock.advance_ns(1_500);
        }
        let snap = reg.snapshot();
        let fl_round = snap
            .histograms
            .iter()
            .find(|h| h.component == "fl" && h.name == "round_ns")
            .unwrap();
        assert_eq!(fl_round.count, 1);
        assert_eq!(fl_round.sum, 1_500);
    }

    #[test]
    fn trace_events_are_stamped_with_the_registry_clock() {
        let clock = VirtualClock::new();
        let reg = Registry::with_virtual_clock(clock.clone()).shared();
        clock.set_ns(77);
        reg.trace(Component::Net, None, TraceKind::RoundCompleted { round: 1 });
        let events = reg.trace_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at_ns, 77);
    }

    #[test]
    fn hook_calls_count_every_recording_kind_once() {
        let hooks = |reg: &Telemetry| {
            reg.incr(Counter::CoreUpdatesCommitted, 5);
            reg.gauge_max(Gauge::NetPeakSendQueue, 9);
            reg.observe(Distribution::CoreMixBatchUpdates, 3);
            reg.record_span_ns(Span::CoreMixBatch, 100);
            drop(reg.span(Span::FlRound));
            reg.trace(Component::Core, None, TraceKind::HopSkipped);
        };
        let reg = Registry::with_virtual_clock(VirtualClock::new()).shared();
        hooks(&reg);
        assert_eq!(reg.hook_calls(), 6);
        let off = noop();
        hooks(&off);
        assert_eq!(off.hook_calls(), 0);
    }

    #[test]
    fn virtual_clock_handle_is_discoverable() {
        let clock = VirtualClock::new();
        let reg = Registry::with_virtual_clock(clock).shared();
        let handle = reg.virtual_clock().expect("built with a virtual clock");
        handle.set_ns(5);
        assert_eq!(reg.now_ns(), 5);
        assert!(Registry::new().virtual_clock().is_none());
    }
}
