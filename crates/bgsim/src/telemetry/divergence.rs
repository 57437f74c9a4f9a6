//! First-divergence reporter: given two traces recorded with entries
//! kept, find the earliest differing [`TraceEntry`] and show it with
//! surrounding context.
//!
//! This turns an opaque "digests differ" into an actionable location —
//! the cycle, event type, and neighborhood where two supposedly
//! identical runs first part ways (the debugging workflow §III's
//! reproducible-reset methodology exists to enable).

use crate::trace::{Trace, TraceEntry};

/// The earliest difference between two traces.
#[derive(Clone, Debug)]
pub struct DivergenceReport {
    /// Index of the first differing entry.
    pub index: u64,
    /// The entry on each side; `None` if that stream ended first.
    pub a: Option<TraceEntry>,
    pub b: Option<TraceEntry>,
    /// Up to `context` matching entries immediately preceding the
    /// divergence (taken from stream A; they are identical in B).
    pub context: Vec<TraceEntry>,
}

impl DivergenceReport {
    /// Human-readable rendering for bench/debug output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("first divergence at event index {}\n", self.index));
        for e in &self.context {
            out.push_str(&format!("    = {:>12}  {:?}\n", e.at, e.what));
        }
        match &self.a {
            Some(e) => out.push_str(&format!("  A > {:>12}  {:?}\n", e.at, e.what)),
            None => out.push_str("  A > <stream ended>\n"),
        }
        match &self.b {
            Some(e) => out.push_str(&format!("  B > {:>12}  {:?}\n", e.at, e.what)),
            None => out.push_str("  B > <stream ended>\n"),
        }
        out
    }
}

/// Compare two traces entry-by-entry and report the first difference,
/// with up to `context` preceding entries. Returns `None` if the
/// overlapping recorded ranges are identical and equally long.
///
/// Both traces should have been recorded with entries kept
/// (`trace_events`).
pub fn first_divergence(a: &Trace, b: &Trace, context: usize) -> Option<DivergenceReport> {
    let (a, b) = (a.entries(), b.entries());
    // The first differing index, or the first entry past the shorter
    // stream when one is a strict prefix of the other.
    let i = (0..a.len().min(b.len()))
        .find(|&i| a[i] != b[i])
        .or_else(|| (a.len() != b.len()).then_some(a.len().min(b.len())))?;
    Some(DivergenceReport {
        index: i as u64,
        a: a.get(i).cloned(),
        b: b.get(i).cloned(),
        context: a[i.saturating_sub(context)..i].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn noise(cycles: u64) -> TraceEvent {
        TraceEvent::Noise { tag: 0, cycles }
    }

    #[test]
    fn identical_traces_no_divergence() {
        let mut a = Trace::new(true);
        let mut b = Trace::new(true);
        for i in 0..50 {
            a.record(i, 0, 0, noise(i));
            b.record(i, 0, 0, noise(i));
        }
        assert!(first_divergence(&a, &b, 3).is_none());
    }

    #[test]
    fn single_differing_event_is_located() {
        let mut a = Trace::new(true);
        let mut b = Trace::new(true);
        for i in 0..50 {
            a.record(i, 0, 0, noise(i));
            // Run B has one extra-long noise event at index 20.
            b.record(i, 0, 0, noise(if i == 20 { 9999 } else { i }));
        }
        let d = first_divergence(&a, &b, 3).expect("must diverge");
        assert_eq!(d.index, 20);
        assert_eq!(d.a.unwrap().what, noise(20));
        assert_eq!(d.b.unwrap().what, noise(9999));
        assert_eq!(d.context.len(), 3);
        assert_eq!(d.context[2].what, noise(19));
    }

    #[test]
    fn prefix_stream_reports_end() {
        let mut a = Trace::new(true);
        let mut b = Trace::new(true);
        for i in 0..10 {
            a.record(i, 0, 0, noise(i));
            if i < 8 {
                b.record(i, 0, 0, noise(i));
            }
        }
        let d = first_divergence(&a, &b, 2).expect("must diverge");
        assert_eq!(d.index, 8);
        assert!(d.a.is_some() && d.b.is_none());
    }
}
