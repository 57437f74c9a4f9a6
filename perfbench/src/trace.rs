//! Host-time spans recorded by the benchmark around every call it makes
//! into a layer. Spans stay in memory and are written to one JSON file
//! when the run ends. With tracing off, `begin` and `end` cost one
//! branch each.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span; `id` is the job
/// or submission the call belongs to.
struct Span {
    name: &'static str,
    detail: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off (rounds alternate in a traced run).
    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, detail: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            detail,
            id,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
            self.open.truncate(pos);
        }
    }

    /// Record a span whose interval was measured elsewhere (client-side
    /// wire timings), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            name,
            detail: "",
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the time its direct children cover. Children of one span never
    /// overlap (every span is recorded on the benchmark's one thread).
    pub fn self_time(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Write every span plus the self-time summary as one JSON object.
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"host ns since run start\",\"self_time_s\":{{"
        );
        for (i, (name, secs)) in self.self_time().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{name}\":{secs:.9}");
        }
        s.push_str("},\"spans\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"i\":{i},\"name\":\"{}\",\"detail\":\"{}\",\"id\":{},\"parent\":{parent},\"start\":{},\"end\":{}}}",
                sp.name, sp.detail, sp.id, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set(true);
        let outer = t.begin("outer", "", 1);
        let inner = t.begin("inner", "", 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        let st = t.self_time();
        assert!(st["inner"] >= 0.004);
        assert!(st["outer"] < st["inner"]);
        t.set(false);
        let off = t.begin("ignored", "", 2);
        t.end(off);
        assert_eq!(t.len(), 2);
    }
}
