//! The deterministic telemetry subsystem: a boot-allocated metrics
//! registry, the cycle-accounting profiler and first-divergence
//! reporting. Events are not kept here: the run's one event stream is
//! `crate::trace`, and the profiler keeps counts, not a history. A
//! failure's recent past is replayed (the run with its trace kept)
//! rather than recorded on every run. Rendering lives with the callers:
//! `bench::report` exports Chrome/Perfetto trace JSON and gem5-style
//! flat and JSON stats dumps.
//!
//! Determinism neutrality is by construction, not by luck:
//!
//! * every recorded value is a simulated-cycle count or a plain count —
//!   no wall clock anywhere;
//! * recording adds to telemetry-private storage and never reads an
//!   RNG stream, never schedules an event, and never mutates thread or
//!   engine state;
//! * all metric storage is allocated at boot (registration), so the
//!   hot-path cost of a hook is an array index and an add — and when
//!   telemetry is disabled, a single branch.
//!
//! The same run with telemetry enabled and disabled therefore produces
//! bit-identical trace digests, kept trace entries and final cycle
//! counts; a test in `tests/cross_kernel.rs` enforces this for both
//! kernels.

mod divergence;
mod metrics;
mod profiler;

pub use divergence::{first_divergence, DivergenceReport};
pub use metrics::{
    Hist, MetricId, MetricKind, MetricView, MetricsRegistry, Scope, Slot, SlotValue,
};
pub use profiler::{Domain, DomainStats, ProfileSnapshot, Profiler, DOMAIN_COUNT};

/// Coverage signal for fuzzers: an FNV-1a hash over the registry's
/// nonzero counter/histogram slots (name-sorted, so registration order
/// cannot leak in), seeded with the high half of the trace digest as a
/// coarse path prefix. Two runs that exercise different code paths —
/// different syscall mixes, fault kinds, network traffic — land on
/// different digests even when their final trace digests are unknown to
/// the caller; bgcheck uses this as novelty feedback.
pub fn coverage_digest(reg: &MetricsRegistry, trace_digest: u64) -> u64 {
    fn mix(d: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *d ^= b as u64;
            *d = d.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut d: u64 = 0xcbf2_9ce4_8422_2325;
    mix(&mut d, trace_digest >> 32);
    for m in reg.sorted() {
        let name_h = crate::rng::fnv1a(m.name.as_bytes());
        for (i, slot) in m.active() {
            mix(&mut d, name_h);
            mix(&mut d, i as u64);
            match slot {
                SlotValue::Scalar(v) => mix(&mut d, v),
                SlotValue::Hist(h) => {
                    for v in [h.count(), h.sum(), h.min(), h.max()] {
                        mix(&mut d, v);
                    }
                }
            }
        }
    }
    d
}

/// Metric ids pre-registered at boot so simulator and kernel hooks pay
/// no name lookups. Names follow a gem5-ish dotted convention; the
/// catalog is documented in README.md ("Observability").
#[derive(Clone, Copy, Debug)]
pub struct WellKnownIds {
    pub noise_events: MetricId,
    pub noise_cycles: MetricId,
    pub preempts: MetricId,
    pub sched_picks: MetricId,
    pub syscalls: MetricId,
    pub syscall_cycles: MetricId,
    pub ipis: MetricId,
    pub hw_faults: MetricId,
    pub guard_faults: MetricId,
    pub segv_faults: MetricId,
    pub page_faults: MetricId,
    pub tlb_refills: MetricId,
    pub futex_waits: MetricId,
    pub futex_wakes: MetricId,
    pub fship_requests: MetricId,
    pub fship_latency: MetricId,
    pub daemon_wakes: MetricId,
    pub dcmf_eager: MetricId,
    pub dcmf_rndzv: MetricId,
    pub dcmf_put: MetricId,
    pub dcmf_get: MetricId,
    pub dcmf_coll: MetricId,
    pub torus_sends: MetricId,
    pub coll_sends: MetricId,
    pub evq_cancelled: MetricId,
    pub evq_stale_discards: MetricId,
    pub evq_compactions: MetricId,
    pub stale_opdone: MetricId,
    pub stale_timeslice: MetricId,
    pub coalesced_ops: MetricId,
    pub fastforward_cycles: MetricId,
    /// Packets beyond the first of each message leg: the deliveries a
    /// per-packet network would have popped, which the batched torus
    /// and collective models fold into one event. Counted where the
    /// message is sent.
    pub batched_packets: MetricId,
    pub ras_events: MetricId,
    pub ciod_retries: MetricId,
    pub ciod_backoff_cycles: MetricId,
    pub torus_dropped_pkts: MetricId,
    pub coll_dropped_pkts: MetricId,
}

impl WellKnownIds {
    fn register(reg: &mut MetricsRegistry) -> WellKnownIds {
        WellKnownIds {
            noise_events: reg.counter("noise.events", Scope::PerNode),
            noise_cycles: reg.histogram("noise.cycles", Scope::PerCore),
            preempts: reg.counter("sched.preempts", Scope::PerCore),
            sched_picks: reg.counter("sched.picks", Scope::PerCore),
            syscalls: reg.counter("syscall.count", Scope::PerCore),
            syscall_cycles: reg.histogram("syscall.cycles", Scope::PerCore),
            ipis: reg.counter("irq.ipis", Scope::PerCore),
            hw_faults: reg.counter("fault.hw", Scope::PerCore),
            guard_faults: reg.counter("fault.guard", Scope::PerCore),
            segv_faults: reg.counter("fault.segv", Scope::PerCore),
            page_faults: reg.counter("fault.page", Scope::PerCore),
            tlb_refills: reg.counter("mem.tlb_refills", Scope::PerCore),
            futex_waits: reg.counter("futex.waits", Scope::PerCore),
            futex_wakes: reg.counter("futex.wakes", Scope::PerCore),
            fship_requests: reg.counter("fship.requests", Scope::PerNode),
            fship_latency: reg.histogram("fship.latency_cycles", Scope::PerNode),
            daemon_wakes: reg.counter("noise.daemon_wakes", Scope::PerCore),
            dcmf_eager: reg.counter("dcmf.eager", Scope::PerNode),
            dcmf_rndzv: reg.counter("dcmf.rndzv", Scope::PerNode),
            dcmf_put: reg.counter("dcmf.put", Scope::PerNode),
            dcmf_get: reg.counter("dcmf.get", Scope::PerNode),
            dcmf_coll: reg.counter("dcmf.collectives", Scope::PerNode),
            torus_sends: reg.counter("net.torus_sends", Scope::PerNode),
            coll_sends: reg.counter("net.coll_sends", Scope::PerNode),
            evq_cancelled: reg.counter("engine.cancelled", Scope::PerNode),
            evq_stale_discards: reg.gauge("engine.stale_discards", Scope::Machine),
            evq_compactions: reg.gauge("engine.compactions", Scope::Machine),
            stale_opdone: reg.counter("sched.stale_opdone", Scope::PerCore),
            stale_timeslice: reg.counter("sched.stale_timeslice", Scope::PerNode),
            coalesced_ops: reg.gauge("engine.coalesced_ops", Scope::Machine),
            fastforward_cycles: reg.gauge("engine.fastforward_cycles", Scope::Machine),
            batched_packets: reg.gauge("engine.batched_packets", Scope::Machine),
            ras_events: reg.counter("ras.events", Scope::PerNode),
            ciod_retries: reg.counter("ciod.retries", Scope::PerNode),
            ciod_backoff_cycles: reg.counter("ciod.backoff_cycles", Scope::PerNode),
            torus_dropped_pkts: reg.counter("torus.dropped_pkts", Scope::PerNode),
            coll_dropped_pkts: reg.counter("coll.dropped_pkts", Scope::PerNode),
        }
    }
}

/// The per-machine metrics registry facade carried by `SimCore`. All
/// recording methods are no-ops when disabled; hooks stay in place
/// permanently and cost one predictable branch.
pub struct Telemetry {
    enabled: bool,
    pub metrics: MetricsRegistry,
    pub ids: WellKnownIds,
}

impl Telemetry {
    /// The no-op telemetry every machine gets unless configured
    /// otherwise (`MachineConfig::with_telemetry`).
    pub fn disabled() -> Telemetry {
        let mut metrics = MetricsRegistry::new(1, 1);
        let ids = WellKnownIds::register(&mut metrics);
        Telemetry {
            enabled: false,
            metrics,
            ids,
        }
    }

    /// Enabled telemetry for a machine shape, with the standard metric
    /// catalog registered.
    pub fn standard(nodes: u32, cores_per_node: u32) -> Telemetry {
        let mut metrics = MetricsRegistry::new(nodes, cores_per_node);
        let ids = WellKnownIds::register(&mut metrics);
        Telemetry {
            enabled: true,
            metrics,
            ids,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Increment a counter.
    #[inline]
    pub fn count(&mut self, id: MetricId, slot: Slot, v: u64) {
        if !self.enabled {
            return;
        }
        self.metrics.add(id, slot, v);
    }

    /// Record a histogram sample.
    #[inline]
    pub fn hist(&mut self, id: MetricId, slot: Slot, v: u64) {
        if !self.enabled {
            return;
        }
        self.metrics.record(id, slot, v);
    }

    /// Set a gauge.
    #[inline]
    pub fn gauge(&mut self, id: MetricId, slot: Slot, v: u64) {
        if !self.enabled {
            return;
        }
        self.metrics.set(id, slot, v);
    }

    /// Move the metrics registry out (bench post-processing), leaving an
    /// empty one behind.
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        let nodes = self.metrics.nodes();
        let cpn = self.metrics.cores_per_node();
        let mut fresh = MetricsRegistry::new(nodes, cpn);
        self.ids = WellKnownIds::register(&mut fresh);
        std::mem::replace(&mut self.metrics, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Telemetry::disabled();
        t.count(t.ids.syscalls, Slot::Core(0), 1);
        t.hist(t.ids.noise_cycles, Slot::Core(0), 39);
        assert!(!t.enabled());
        assert_eq!(t.metrics.value("syscall.count", Slot::Core(0)), Some(0));
    }

    #[test]
    fn standard_records() {
        let mut t = Telemetry::standard(1, 4);
        t.count(t.ids.syscalls, Slot::Core(1), 3);
        t.hist(t.ids.noise_cycles, Slot::Core(1), 17);
        assert_eq!(t.metrics.value("syscall.count", Slot::Core(1)), Some(3));
        assert_eq!(
            t.metrics.hist("noise.cycles", Slot::Core(1)).unwrap().max(),
            17
        );
    }

    #[test]
    fn coverage_digest_separates_counter_vectors() {
        let mut a = Telemetry::standard(1, 4);
        let mut b = Telemetry::standard(1, 4);
        let base_a = coverage_digest(&a.metrics, 0);
        assert_eq!(
            base_a,
            coverage_digest(&b.metrics, 0),
            "identical registries hash identically"
        );
        a.count(a.ids.syscalls, Slot::Core(0), 1);
        b.count(b.ids.preempts, Slot::Core(0), 1);
        let da = coverage_digest(&a.metrics, 0);
        let db = coverage_digest(&b.metrics, 0);
        assert_ne!(da, db, "different counters, different digests");
        assert_ne!(da, base_a);
        // The trace-digest prefix feeds in too.
        assert_ne!(
            coverage_digest(&a.metrics, 0xdead_beef_0000_0000),
            coverage_digest(&a.metrics, 0)
        );
    }

    #[test]
    fn take_metrics_leaves_working_registry() {
        let mut t = Telemetry::standard(1, 4);
        t.count(t.ids.syscalls, Slot::Core(0), 2);
        let taken = t.take_metrics();
        assert_eq!(taken.value("syscall.count", Slot::Core(0)), Some(2));
        // The replacement registry is fresh but fully registered.
        t.count(t.ids.syscalls, Slot::Core(0), 1);
        assert_eq!(t.metrics.value("syscall.count", Slot::Core(0)), Some(1));
    }
}
