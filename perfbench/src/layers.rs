//! Per-layer metrics shared by the workloads.

use crate::report::Report;
use crate::sim::Counters;

/// Exact simulator counters of one round (identical in every round),
/// plus the host cost per engine event at the round's median run time.
pub fn sim_counters(rep: &mut Report, c: &Counters, run_s: f64, basis: &str) {
    let e = &c.engine;
    let note = format!("exact count, {basis}");
    rep.set("bgsim.events", e.processed as f64, note.clone());
    rep.set(
        "bgsim.ns_per_event",
        run_s * 1e9 / e.processed.max(1) as f64,
        "median run_s / events",
    );
    rep.set("engine.scheduled", e.scheduled as f64, note.clone());
    rep.set("engine.cancelled", e.cancelled as f64, note.clone());
    rep.set(
        "engine.stale_discarded",
        e.stale_discarded as f64,
        note.clone(),
    );
    rep.set("engine.compactions", e.compactions as f64, note.clone());
    rep.set("engine.coalesced", e.coalesced as f64, note.clone());
    rep.set(
        "engine.coalesced_share",
        e.coalesced as f64 / (e.coalesced + e.processed).max(1) as f64,
        "coalesced / (coalesced + processed)",
    );
    rep.set(
        "bgsim.resident_bytes_per_node",
        c.resident_bytes as f64 / c.nodes.max(1) as f64,
        format!("resident_bytes_estimate / nodes, {basis}"),
    );
    for (label, d) in c.profile.domains_labeled() {
        rep.set(
            &format!("profile.{label}.events"),
            d.events as f64,
            note.clone(),
        );
        rep.set(
            &format!("profile.{label}.cycles"),
            d.cycles as f64,
            note.clone(),
        );
    }
}

/// Tracing overhead: traced against untraced rounds of the same run.
pub fn overhead(rep: &mut Report, traced_wall: f64, untraced_wall: f64) {
    let share = traced_wall / untraced_wall - 1.0;
    rep.lines.push(format!(
        "[{}] tracing overhead: wall_s {traced_wall:.6} s traced vs {untraced_wall:.6} s untraced ({:+.2}%)",
        rep.workload,
        share * 100.0
    ));
    rep.set(
        "trace.overhead",
        share,
        "traced / untraced wall_s - 1, alternating rounds",
    );
}
