//! Metric names, units and the result line.
//!
//! `E2E` and `PER_LAYER` mirror `BENCHMARK.json`; the benchmark's test
//! checks that the two agree. An untraced run prints every end-to-end
//! metric, a traced run every per-layer metric (0 for a layer the
//! workload does not exercise).

use std::collections::BTreeMap;

pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_bytes", "bytes"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("bgsim.new_s", "s"),
    ("bgsim.boot_s", "s"),
    ("bgsim.launch_s", "s"),
    ("bgsim.run_s", "s"),
    ("bgsim.events", "count"),
    ("bgsim.ns_per_event", "ns"),
    ("engine.scheduled", "count"),
    ("engine.cancelled", "count"),
    ("engine.stale_discarded", "count"),
    ("engine.compactions", "count"),
    ("engine.coalesced", "count"),
    ("engine.coalesced_share", "ratio"),
    ("bgsim.readout_s", "s"),
    ("bgsim.resident_bytes_per_node", "bytes"),
    ("profile.engine_heap.events", "count"),
    ("profile.engine_heap.cycles", "cycles"),
    ("profile.fast_path.events", "count"),
    ("profile.fast_path.cycles", "cycles"),
    ("profile.torus.events", "count"),
    ("profile.torus.cycles", "cycles"),
    ("profile.collective.events", "count"),
    ("profile.collective.cycles", "cycles"),
    ("profile.sched.events", "count"),
    ("profile.sched.cycles", "cycles"),
    ("profile.ciod.events", "count"),
    ("profile.ciod.cycles", "cycles"),
    ("profile.fault_ras.events", "count"),
    ("profile.fault_ras.cycles", "cycles"),
    ("paper.fwq.run_s", "s"),
    ("paper.nn.run_s", "s"),
    ("paper.allreduce.run_s", "s"),
    ("paper.linpack.run_s", "s"),
    ("paper.io.run_s", "s"),
    ("paper.cnk.run_s", "s"),
    ("paper.fwk.run_s", "s"),
    ("bgserve.admit_ms.p50", "ms"),
    ("bgserve.admit_ms.p99", "ms"),
    ("bgserve.parse_us", "us"),
    ("bgserve.resolve_us", "us"),
    ("bgserve.key_us", "us"),
    ("bgserve.hit_reply_ms.p50", "ms"),
    ("bgserve.hit_reply_ms.p99", "ms"),
    ("bgserve.cache_get_us", "us"),
    ("bgserve.snapshot_json_us", "us"),
    ("bgserve.miss_reply_ms.p50", "ms"),
    ("bgserve.miss_reply_ms.p99", "ms"),
    ("bgcheck.simulate_ms", "ms"),
    ("bgserve.miss_wait_ms", "ms"),
    ("bgserve.cache_insert_us", "us"),
    ("bgserve.hit_ratio", "ratio"),
    ("bgserve.errors", "count"),
    ("bgserve.session_drops", "count"),
    ("bgserve.interrupted", "count"),
    ("trace.overhead", "ratio"),
];

/// Everything one workload run reports.
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    values: BTreeMap<&'static str, (f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Report {
        Report {
            workload,
            traced,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// Set a metric by name; `note` states its sample count or basis.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let key = E2E
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        let v = if value.is_finite() { value } else { 0.0 };
        self.values.insert(key, (v, note.into()));
    }

    /// One operation checked; `err` is `Some` when its output was wrong.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    /// Print the human-readable lines, then the result line last.
    pub fn emit(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for f in &self.failures {
            println!("[{}] FAILED: {f}", self.workload);
        }
        let wanted = if self.traced { PER_LAYER } else { E2E };
        let mut json = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            // A layer the workload does not exercise reads 0; so does an
            // end-to-end metric of a run whose gate already failed.
            let (value, note) = match self.values.get(name) {
                Some((v, n)) => (*v, n.as_str()),
                None => (0.0, "not measured by this run"),
            };
            println!("[{}] {name} = {value} {unit}  ({note})", self.workload);
            let sep = if i == 0 { "" } else { ", " };
            json.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
    }
}

/// Peak resident set (VmHWM) of a process, in bytes.
pub fn vm_hwm(pid: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}
