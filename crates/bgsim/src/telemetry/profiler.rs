//! Deterministic cycle-accounting profiler.
//!
//! The profiler attributes simulated cycles and event counts to
//! coarse subsystems ([`Domain`]) and keeps machine-wide message heat:
//! the message count and the most messages in flight to any one node
//! (the per-node allocation a rack-scale layout must size for). The
//! live profiler holds one in-flight counter per node for that peak;
//! its [`ProfileSnapshot`] is a fixed-size record whatever the node
//! count. Per-node attribution of one run lives in its kept trace
//! entries (`crate::trace`) and the per-node metric slots of
//! [`super::Telemetry`]. It obeys
//! the same determinism-neutrality contract as the rest of
//! `bgsim::telemetry` — by construction, not by luck:
//!
//! * every recorded value is a simulated-cycle count or a plain count;
//! * recording adds to profiler-private counters and never reads an
//!   RNG stream, never schedules an event, and never mutates thread or
//!   engine state;
//! * all storage is allocated at construction, so the hot-path cost of
//!   a span is two adds.
//!
//! It is therefore always on: recording cannot change a trace digest,
//! and the sim-side counters are identical across `--threads 1` vs. N
//! (`ProfileSnapshot::merge` is a commutative sum, so shard completion
//! order cannot leak in).
//!
//! The profiler keeps no event history. What a failing run did last is
//! recovered by replaying it with its trace kept: runs are
//! deterministic, so the replay is the run (bgcheck's failure evidence).

/// Cycle-accounting subsystems. `EngineHeap` and `FastPath` split op
/// retirement by which driver retired it (the heap pop vs. the
/// event-reduction fast path); the rest follow the trace exporter's
/// event categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    EngineHeap,
    FastPath,
    Torus,
    Collective,
    Sched,
    Ciod,
    FaultRas,
}

/// Number of [`Domain`] variants (array sizing).
pub const DOMAIN_COUNT: usize = 7;

impl Domain {
    /// Every domain, in stable display/export order.
    pub const ALL: [Domain; DOMAIN_COUNT] = [
        Domain::EngineHeap,
        Domain::FastPath,
        Domain::Torus,
        Domain::Collective,
        Domain::Sched,
        Domain::Ciod,
        Domain::FaultRas,
    ];

    /// Stable snake_case label used in report keys and monitor JSON.
    pub fn label(self) -> &'static str {
        match self {
            Domain::EngineHeap => "engine_heap",
            Domain::FastPath => "fast_path",
            Domain::Torus => "torus",
            Domain::Collective => "collective",
            Domain::Sched => "sched",
            Domain::Ciod => "ciod",
            Domain::FaultRas => "fault_ras",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Per-domain accumulator: how many spans landed here and how many
/// simulated cycles they covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DomainStats {
    pub events: u64,
    pub cycles: u64,
}

/// The per-machine profiler carried by `SimCore`; its hooks stay in
/// place permanently.
pub struct Profiler {
    /// The counters [`Profiler::snapshot`] hands out.
    totals: ProfileSnapshot,
    /// In-flight messages addressed to each node.
    live_msgs: Vec<u64>,
}

impl Profiler {
    /// A profiler for a machine of `nodes` nodes.
    pub fn standard(nodes: u32) -> Profiler {
        Profiler {
            totals: ProfileSnapshot {
                enabled: true,
                nodes,
                ..ProfileSnapshot::default()
            },
            live_msgs: vec![0; nodes as usize],
        }
    }

    /// Heap bytes currently reserved: the per-node in-flight counters.
    pub fn resident_bytes(&self) -> usize {
        self.live_msgs.capacity() * std::mem::size_of::<u64>()
    }

    /// Attribute one span of `cycles` simulated cycles to a domain.
    #[inline]
    pub fn span(&mut self, d: Domain, cycles: u64) {
        let ds = &mut self.totals.domains[d.idx()];
        ds.events += 1;
        ds.cycles = ds.cycles.saturating_add(cycles);
    }

    /// A message left `src` for `dst`: count it, and raise the peak if
    /// `dst` now has more messages in flight than any node had before.
    #[inline]
    pub fn msg_enqueued(&mut self, src: u32, dst: u32) {
        let t = &mut self.totals;
        if src < t.nodes {
            t.messages += 1;
        }
        if let Some(live) = self.live_msgs.get_mut(dst as usize) {
            *live += 1;
            t.peak_live_msgs = t.peak_live_msgs.max(*live);
        }
    }

    /// A message addressed to `dst` was delivered or dropped.
    #[inline]
    pub fn msg_retired(&mut self, dst: u32) {
        if let Some(live) = self.live_msgs.get_mut(dst as usize) {
            *live = live.saturating_sub(1);
        }
    }

    /// Copy the sim-side counters out for reporting/merging.
    pub fn snapshot(&self) -> ProfileSnapshot {
        self.totals.clone()
    }
}

/// Sim-side profiler counters, detached from the machine: a fixed-size
/// record, whatever the node count. Merging is a commutative sum
/// (peak and node count are maxima), so folding shard snapshots in any
/// order produces identical totals — the `--threads 1` vs. N guarantee.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// `false`: no profile — the default record, which a run with
    /// telemetry off or an empty aggregate reports.
    pub enabled: bool,
    pub domains: [DomainStats; DOMAIN_COUNT],
    /// Messages sent machine-wide.
    pub messages: u64,
    /// Most messages in flight to any one node at once.
    pub peak_live_msgs: u64,
    /// Nodes of the largest machine folded in.
    pub nodes: u32,
}

impl ProfileSnapshot {
    /// Fold another snapshot in: sums for flows, max for peaks.
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        self.enabled |= other.enabled;
        for (a, b) in self.domains.iter_mut().zip(other.domains.iter()) {
            a.events += b.events;
            a.cycles = a.cycles.saturating_add(b.cycles);
        }
        self.messages += other.messages;
        self.peak_live_msgs = self.peak_live_msgs.max(other.peak_live_msgs);
        self.nodes = self.nodes.max(other.nodes);
    }

    /// (label, stats) for every domain, in stable order.
    pub fn domains_labeled(&self) -> impl Iterator<Item = (&'static str, DomainStats)> + '_ {
        Domain::ALL
            .iter()
            .map(|d| (d.label(), self.domains[d.idx()]))
    }

    pub fn total_events(&self) -> u64 {
        self.domains.iter().map(|d| d.events).sum()
    }

    pub fn total_cycles(&self) -> u64 {
        self.domains
            .iter()
            .fold(0u64, |a, d| a.saturating_add(d.cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_per_domain() {
        let mut p = Profiler::standard(2);
        p.span(Domain::FastPath, 1000);
        p.span(Domain::FastPath, 500);
        p.span(Domain::Sched, 0);
        let s = p.snapshot();
        let fp = s.domains[Domain::FastPath.idx()];
        assert_eq!((fp.events, fp.cycles), (2, 1500));
        assert_eq!(s.domains[Domain::Sched.idx()].events, 1);
        assert_eq!((s.total_events(), s.total_cycles(), s.nodes), (3, 1500, 2));
    }

    #[test]
    fn message_heat_tracks_live_and_peak() {
        let mut p = Profiler::standard(2);
        p.msg_enqueued(0, 1);
        p.msg_enqueued(0, 1);
        p.msg_retired(1);
        p.msg_enqueued(1, 0);
        let s = p.snapshot();
        assert_eq!((s.messages, s.peak_live_msgs), (3, 2));
        // Retire below zero saturates instead of wrapping: node 1 climbs
        // from zero again.
        p.msg_retired(1);
        p.msg_retired(1);
        for _ in 0..3 {
            p.msg_enqueued(0, 1);
        }
        assert_eq!(p.snapshot().peak_live_msgs, 3);
    }

    /// Merging shard snapshots is order-invariant: sums commute, and
    /// peak-of-max equals max-of-peaks, also across machine sizes.
    #[test]
    fn snapshot_merge_is_commutative() {
        let mut a = Profiler::standard(2);
        a.span(Domain::Torus, 100);
        a.msg_enqueued(0, 1);
        let mut b = Profiler::standard(2);
        b.span(Domain::Torus, 300);
        b.span(Domain::Collective, 50);
        b.msg_enqueued(1, 0);
        b.msg_enqueued(1, 0);

        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.domains[Domain::Torus.idx()].cycles, 400);
        assert_eq!((ab.messages, ab.peak_live_msgs, ab.nodes), (3, 2, 2));

        let mut c = Profiler::standard(5);
        c.msg_enqueued(4, 3);
        let sc = c.snapshot();
        let mut abc = ab.clone();
        abc.merge(&sc);
        let mut cab = sc.clone();
        cab.merge(&ab);
        assert_eq!(abc, cab);
        assert_eq!((abc.messages, abc.peak_live_msgs, abc.nodes), (4, 2, 5));
    }
}
