//! The metrics registry: named counters, gauges, and log2-bucketed
//! cycle histograms keyed by (node, core) slots.
//!
//! All storage is allocated at registration time, so recording is
//! alloc-free: a hook inside the simulator hot path bumps a `u64` in a
//! preallocated vector and can never perturb simulated timing. Values
//! live in the cycle domain (or are plain counts) — never wall clock —
//! which is what keeps telemetry determinism-neutral by construction.

/// How a metric is replicated across the machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// One value for the whole machine.
    Machine,
    /// One value per node.
    PerNode,
    /// One value per global core (node = core / cores_per_node).
    PerCore,
}

impl Scope {
    pub fn as_str(self) -> &'static str {
        match self {
            Scope::Machine => "machine",
            Scope::PerNode => "per_node",
            Scope::PerCore => "per_core",
        }
    }
}

/// Where a recording lands. A `Slot` finer than the metric's [`Scope`]
/// is folded (a `Core` slot recorded into a `PerNode` metric lands on
/// the core's node); a coarser slot lands on the scope's first index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot {
    Machine,
    Node(u32),
    Core(u32),
}

/// Handle returned by registration; recording through an id is an
/// index operation, no name lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetricId(pub(crate) usize);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A log2-bucketed histogram of u64 samples (cycles, bytes, counts)
/// with exact count/sum/min/max so derived tables (e.g. the Fig. 5–7
/// max-delta column) need no bucket approximation.
#[derive(Clone, Debug)]
pub struct Hist {
    count: u64,
    sum: u64,
    lo: u64,
    hi: u64,
    buckets: [u64; 64],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: 0,
            sum: 0,
            lo: u64::MAX,
            hi: 0,
            buckets: [0; 64],
        }
    }
}

impl Hist {
    /// Bucket index for a value: 0 holds only zeros, bucket `i` holds
    /// values in `[2^(i-1), 2^i)`, saturating at 63.
    pub fn bucket_of(v: u64) -> usize {
        match v {
            0 => 0,
            _ => ((v.ilog2() as usize) + 1).min(63),
        }
    }

    pub fn record(&mut self, v: u64) {
        // Saturating throughout: a pathological run (or a fuzzer) must
        // clip telemetry at u64::MAX, never wrap or abort the run.
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        if v < self.lo {
            self.lo = v;
        }
        if v > self.hi {
            self.hi = v;
        }
        let b = &mut self.buckets[Self::bucket_of(v)];
        *b = b.saturating_add(1);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.lo
        }
    }

    pub fn max(&self) -> u64 {
        self.hi
    }

    /// Exact spread (max − min): the FWQ "delta" statistic.
    pub fn delta(&self) -> u64 {
        self.max().saturating_sub(self.min())
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as (index, count) pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

struct Metric {
    name: String,
    kind: MetricKind,
    scope: Scope,
    vals: Vec<u64>,
    hists: Vec<Hist>,
}

/// A read-only view of one metric for exporters.
pub struct MetricView<'a> {
    pub name: &'a str,
    pub kind: MetricKind,
    pub scope: Scope,
    pub vals: &'a [u64],
    pub hists: &'a [Hist],
}

/// What one slot of a metric holds.
pub enum SlotValue<'a> {
    /// A counter or gauge value.
    Scalar(u64),
    Hist(&'a Hist),
}

impl<'a> MetricView<'a> {
    /// The slots that hold data, by index: zero values and empty
    /// histograms are skipped, which keeps dumps (and the coverage
    /// digest) proportional to activity.
    pub fn active(&self) -> impl Iterator<Item = (usize, SlotValue<'a>)> {
        let vals = self.vals.iter().enumerate().filter(|(_, v)| **v != 0);
        let hists = self.hists.iter().enumerate().filter(|(_, h)| h.count() > 0);
        let vals = vals.map(|(i, v)| (i, SlotValue::Scalar(*v)));
        vals.chain(hists.map(|(i, h)| (i, SlotValue::Hist(h))))
    }
}

/// The boot-time-allocated registry. Slot counts come from the machine
/// shape; registering after boot is allowed (bench post-processing) but
/// hooks inside the simulation only ever touch preallocated storage.
pub struct MetricsRegistry {
    nodes: u32,
    cores_per_node: u32,
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    pub fn new(nodes: u32, cores_per_node: u32) -> MetricsRegistry {
        MetricsRegistry {
            nodes: nodes.max(1),
            cores_per_node: cores_per_node.max(1),
            metrics: Vec::new(),
        }
    }

    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    pub fn cores_per_node(&self) -> u32 {
        self.cores_per_node
    }

    fn slots(&self, scope: Scope) -> usize {
        match scope {
            Scope::Machine => 1,
            Scope::PerNode => self.nodes as usize,
            Scope::PerCore => (self.nodes * self.cores_per_node) as usize,
        }
    }

    fn register(&mut self, name: &str, kind: MetricKind, scope: Scope) -> MetricId {
        if let Some(i) = self.metrics.iter().position(|m| m.name == name) {
            let m = &self.metrics[i];
            assert!(
                m.kind == kind && m.scope == scope,
                "metric {name} re-registered with different kind/scope"
            );
            return MetricId(i);
        }
        let n = self.slots(scope);
        let (vals, hists) = match kind {
            MetricKind::Histogram => (Vec::new(), vec![Hist::default(); n]),
            _ => (vec![0u64; n], Vec::new()),
        };
        self.metrics.push(Metric {
            name: name.to_string(),
            kind,
            scope,
            vals,
            hists,
        });
        MetricId(self.metrics.len() - 1)
    }

    pub fn counter(&mut self, name: &str, scope: Scope) -> MetricId {
        self.register(name, MetricKind::Counter, scope)
    }

    pub fn gauge(&mut self, name: &str, scope: Scope) -> MetricId {
        self.register(name, MetricKind::Gauge, scope)
    }

    pub fn histogram(&mut self, name: &str, scope: Scope) -> MetricId {
        self.register(name, MetricKind::Histogram, scope)
    }

    fn slot_index(&self, scope: Scope, slot: Slot) -> usize {
        let i = match scope {
            Scope::Machine => 0,
            Scope::PerNode => match slot {
                Slot::Machine => 0,
                Slot::Node(n) => n as usize,
                Slot::Core(c) => (c / self.cores_per_node) as usize,
            },
            Scope::PerCore => match slot {
                Slot::Machine => 0,
                Slot::Node(n) => (n * self.cores_per_node) as usize,
                Slot::Core(c) => c as usize,
            },
        };
        debug_assert!(i < self.slots(scope), "slot {slot:?} out of range");
        i
    }

    /// Increment a counter.
    #[inline]
    pub fn add(&mut self, id: MetricId, slot: Slot, v: u64) {
        let m = &mut self.metrics[id.0];
        let i = match m.scope {
            Scope::Machine => 0,
            Scope::PerNode => match slot {
                Slot::Machine => 0,
                Slot::Node(n) => n as usize,
                Slot::Core(c) => (c / self.cores_per_node) as usize,
            },
            Scope::PerCore => match slot {
                Slot::Machine => 0,
                Slot::Node(n) => (n * self.cores_per_node) as usize,
                Slot::Core(c) => c as usize,
            },
        };
        // Counters saturate rather than wrap: a wrapped counter reads
        // as a tiny value and silently breaks downstream sanity checks.
        m.vals[i] = m.vals[i].saturating_add(v);
    }

    /// Set a gauge to an absolute value.
    #[inline]
    pub fn set(&mut self, id: MetricId, slot: Slot, v: u64) {
        let i = self.slot_index(self.metrics[id.0].scope, slot);
        self.metrics[id.0].vals[i] = v;
    }

    /// Record one histogram sample.
    #[inline]
    pub fn record(&mut self, id: MetricId, slot: Slot, v: u64) {
        let i = self.slot_index(self.metrics[id.0].scope, slot);
        self.metrics[id.0].hists[i].record(v);
    }

    pub fn iter(&self) -> impl Iterator<Item = MetricView<'_>> {
        self.metrics.iter().map(|m| MetricView {
            name: &m.name,
            kind: m.kind,
            scope: m.scope,
            vals: &m.vals,
            hists: &m.hists,
        })
    }

    /// The metrics in name order. Registration order depends on code
    /// paths (bench post-processing registers extra metrics after
    /// boot), so the exporters and the coverage digest walk this order
    /// to stay byte-stable.
    pub fn sorted(&self) -> Vec<MetricView<'_>> {
        let mut views: Vec<MetricView<'_>> = self.iter().collect();
        views.sort_by(|a, b| a.name.cmp(b.name));
        views
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Current value of a counter or gauge by name.
    pub fn value(&self, name: &str, slot: Slot) -> Option<u64> {
        let m = self.metrics.iter().find(|m| m.name == name)?;
        if m.kind == MetricKind::Histogram {
            return None;
        }
        Some(m.vals[self.slot_index(m.scope, slot)])
    }

    /// A histogram by name.
    pub fn hist(&self, name: &str, slot: Slot) -> Option<&Hist> {
        let m = self.metrics.iter().find(|m| m.name == name)?;
        if m.kind != MetricKind::Histogram {
            return None;
        }
        Some(&m.hists[self.slot_index(m.scope, slot)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_fold_slots_by_scope() {
        let mut r = MetricsRegistry::new(2, 4);
        let c = r.counter("x", Scope::PerNode);
        r.add(c, Slot::Core(5), 1); // core 5 = node 1
        r.add(c, Slot::Node(1), 2);
        r.add(c, Slot::Node(0), 7);
        assert_eq!(r.value("x", Slot::Node(1)), Some(3));
        assert_eq!(r.value("x", Slot::Node(0)), Some(7));
    }

    #[test]
    fn hist_buckets_and_exact_extrema() {
        let mut h = Hist::default();
        for v in [0u64, 1, 2, 3, 700, 658_958] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 658_958);
        assert_eq!(h.delta(), 658_958);
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(u64::MAX), 63);
        // Empty hist reports min 0, not u64::MAX.
        assert_eq!(Hist::default().min(), 0);
    }

    #[test]
    fn counters_and_hists_saturate_instead_of_wrapping() {
        let mut r = MetricsRegistry::new(1, 1);
        let c = r.counter("sat", Scope::Machine);
        r.add(c, Slot::Machine, u64::MAX - 1);
        r.add(c, Slot::Machine, 5);
        assert_eq!(r.value("sat", Slot::Machine), Some(u64::MAX));
        let mut buckets = [0; 64];
        buckets[0] = u64::MAX;
        let mut h = Hist {
            count: u64::MAX,
            buckets,
            ..Hist::default()
        };
        h.record(0);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.nonzero_buckets().next(), Some((0, u64::MAX)));
    }

    #[test]
    fn reregistration_returns_same_id() {
        let mut r = MetricsRegistry::new(1, 4);
        let a = r.counter("dup", Scope::Machine);
        let b = r.counter("dup", Scope::Machine);
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind/scope")]
    fn reregistration_with_new_kind_panics() {
        let mut r = MetricsRegistry::new(1, 4);
        r.counter("dup", Scope::Machine);
        r.histogram("dup", Scope::Machine);
    }

    #[test]
    fn gauge_set_overwrites() {
        let mut r = MetricsRegistry::new(1, 4);
        let g = r.gauge("g", Scope::PerCore);
        r.set(g, Slot::Core(2), 10);
        r.set(g, Slot::Core(2), 4);
        assert_eq!(r.value("g", Slot::Core(2)), Some(4));
    }
}
