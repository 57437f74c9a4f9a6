//! Live state monitoring for long benchmark runs.
//!
//! An experiment run with `--monitor-out <path>` builds a [`Monitor`] and
//! calls [`Monitor::publish`] as shards complete. Each publish adds
//! one JSON line describing overall progress plus the merged
//! cycle-accounting profile so far (per-domain totals and machine-wide
//! message heat), a line whose size does not grow with the node count.
//! `bgtop <path>` tails the file, parses the most recent line, and
//! renders it as a per-subsystem table.
//!
//! The file is opened once, and each publish appends one line with one
//! write. No earlier line is kept in memory, so a long-lived server's
//! monitor costs the same per publish on its last job as on its first.
//! A reader that races a write (or a crash mid-write) can see a torn
//! final line; [`last_snapshot`] skips it and the previous complete
//! line wins.
//!
//! A publisher with live state of its own (bgserve's table of sessions
//! and jobs) passes a callback that writes it as the line's `"state"`
//! object; `bgtop --sessions` renders that with [`render_state`].
//!
//! This is strictly host-side observability: publishing reads finished
//! [`ProfileSnapshot`]s, never the live simulation, so simulated
//! results and trace digests are unaffected by whether a monitor is
//! attached. Publish order follows host shard completion and is
//! therefore *not* deterministic — only the final line (all shards
//! done) is, which is what the CI demo checks.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use bgsim::telemetry::ProfileSnapshot;

use crate::json::{self, Json, Writer};
use crate::report::SCHEMA_VERSION;

/// A JSONL snapshot publisher bound to a `--monitor-out` path, which it
/// holds open and appends to.
pub struct Monitor {
    file: File,
    bench: String,
    seq: u64,
    warned: bool,
}

impl Monitor {
    /// Create (truncating) the snapshot file. Honors the same
    /// overwrite guard as every other output flag; errors surface to
    /// the caller (the runner exits nonzero like it does for stats).
    pub fn create(path: &Path, bench: &str, force: bool) -> std::io::Result<Monitor> {
        crate::report::guard_overwrite(path, force)?;
        Ok(Monitor {
            file: File::create(path)?,
            bench: bench.to_string(),
            seq: 0,
            warned: false,
        })
    }

    /// [`Monitor::create`] from the parsed CLI; `None` when the flag is
    /// absent. A create failure reports the path and exits nonzero.
    pub fn from_cli_or_exit(cli: &crate::cli::Cli, bench: &str) -> Option<Monitor> {
        let path = cli.monitor_out.as_deref()?;
        match Monitor::create(path, bench, cli.force) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("error: creating monitor file {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    /// Append one snapshot line.
    /// `done`/`total` count finished work units (shards, kernels,
    /// message sizes, service jobs: whatever the writer iterates);
    /// `snap` is the profile merged over everything finished so far.
    /// `state`, when given, writes the line's `"state"` object at
    /// publish time.
    pub fn publish(
        &mut self,
        done: usize,
        total: usize,
        snap: &ProfileSnapshot,
        state: Option<&dyn Fn(&mut Writer)>,
    ) {
        self.seq += 1;
        let mut w = Writer::default();
        write_snapshot(&mut w, &self.bench, self.seq, done, total, snap, state);
        self.append(&w.finish());
    }

    /// Append one *event* line — a complete JSON object carrying a
    /// string `"event"` field (e.g. `{"event":"session-drop",...}`).
    /// Event lines are not snapshots: `last_snapshot` skips them and
    /// `malformed_snapshots` does not count them.
    pub fn event(&mut self, line: &str) {
        debug_assert!(
            json::parse(line).is_ok_and(|v| v.get("event").and_then(Json::str).is_some()),
            "monitor events must be JSON objects with a string \"event\" field"
        );
        self.append(line);
    }

    fn append(&mut self, line: &str) {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        // A failed publish must not kill the benchmark mid-run; the
        // monitor is advisory. Note it once on stderr and move on.
        if self.file.write_all(buf.as_bytes()).is_err() && !self.warned {
            self.warned = true;
            eprintln!("warning: monitor snapshot write failed; live view will be stale");
        }
    }
}

/// The most recent *renderable* snapshot in a monitor file: the last
/// line that both parses as JSON and carries numeric `seq` and `total`
/// fields. Torn lines (a writer crashed mid-append on a non-atomic
/// filesystem) and foreign JSON simply don't qualify — the previous
/// complete snapshot wins. Never panics on adversarial input.
pub fn last_snapshot(text: &str) -> Option<Json> {
    text.lines().rev().find_map(|l| {
        let v = json::parse(l.trim()).ok()?;
        (v.path_num(&["seq"]).is_some() && v.path_num(&["total"]).is_some()).then_some(v)
    })
}

/// How many lines of `text` parse as JSON but are missing the numeric
/// `seq`/`total` a snapshot must carry — `bgtop` warns on these instead
/// of silently rendering a stale frame forever (a missing `seq` used to
/// default to 0 and pin the display). Event lines (a string `"event"`
/// field — `session-drop` and friends) are a different record type in
/// the same stream, not malformed snapshots.
pub fn malformed_snapshots(text: &str) -> usize {
    text.lines()
        .filter(|l| {
            json::parse(l.trim()).is_ok_and(|v| {
                v.get("event").and_then(Json::str).is_none()
                    && (v.path_num(&["seq"]).is_none() || v.path_num(&["total"]).is_none())
            })
        })
        .count()
}

/// Render one monitor snapshot as a single JSON line.
pub fn snapshot_json(
    bench: &str,
    seq: u64,
    done: usize,
    total: usize,
    snap: &ProfileSnapshot,
) -> String {
    let mut w = Writer::default();
    write_snapshot(&mut w, bench, seq, done, total, snap, None);
    w.finish()
}

/// Write one monitor snapshot as the next value of `w` (bgserve embeds
/// the snapshot in its `telemetry` lines this way). `state`, when
/// given, writes the value of a top-level `"state"` key: bgserve's live
/// work as a `{"values":{...},"children":{"name":{...}}}` tree.
pub fn write_snapshot(
    w: &mut Writer,
    bench: &str,
    seq: u64,
    done: usize,
    total: usize,
    snap: &ProfileSnapshot,
    state: Option<&dyn Fn(&mut Writer)>,
) {
    w.obj().key("schema_version").u64(SCHEMA_VERSION.into());
    w.key("bench").str(bench).key("seq").u64(seq);
    w.key("done").u64(done as u64);
    w.key("total").u64(total as u64);
    w.key("profile").obj().key("enabled").bool(snap.enabled);
    w.key("domains").obj();
    for (label, d) in snap.domains_labeled() {
        w.key(label).obj().key("events").u64(d.events);
        w.key("cycles").u64(d.cycles).end_obj();
    }
    w.end_obj().key("heat").obj();
    w.key("events").u64(snap.total_events());
    w.key("cycles").u64(snap.total_cycles());
    w.key("messages").u64(snap.messages);
    w.key("peak_live_msgs").u64(snap.peak_live_msgs);
    w.end_obj().end_obj();
    if let Some(state) = state {
        w.key("state");
        state(w);
    }
    w.end_obj();
}

/// Render a parsed monitor snapshot as the `bgtop` terminal view:
/// header with progress, per-subsystem table and machine-wide totals.
pub fn render_snapshot(snap: &Json) -> String {
    let bench = snap.get("bench").and_then(Json::str).unwrap_or("?");
    let seq = snap.path_num(&["seq"]).unwrap_or(0.0) as u64;
    let done = snap.path_num(&["done"]).unwrap_or(0.0) as u64;
    let total = snap.path_num(&["total"]).unwrap_or(0.0) as u64;
    let mut out = format!("bgtop — {bench}  (snapshot #{seq}, {done}/{total} units done)\n");
    let Some(profile) = snap.get("profile") else {
        out.push_str("  (no profile section)\n");
        return out;
    };
    if profile.get("enabled") == Some(&Json::Bool(false)) {
        out.push_str("  profiler disabled for this run\n");
        return out;
    }
    let heat_cycles = profile.path_num(&["heat", "cycles"]).unwrap_or(0.0);
    out.push_str(&format!(
        "\n{:<14} {:>14} {:>18} {:>7}\n",
        "subsystem", "events", "cycles", "share"
    ));
    if let Some(Json::Obj(domains)) = profile.get("domains") {
        for (label, d) in domains {
            let ev = d.path_num(&["events"]).unwrap_or(0.0);
            let cy = d.path_num(&["cycles"]).unwrap_or(0.0);
            let share = if heat_cycles > 0.0 {
                100.0 * cy / heat_cycles
            } else {
                0.0
            };
            out.push_str(&format!("{label:<14} {ev:>14} {cy:>18} {share:>6.1}%\n"));
        }
    }
    out.push_str(&format!(
        "totals: events={} cycles={} messages={} peak_live_msgs={}\n",
        profile.path_num(&["heat", "events"]).unwrap_or(0.0),
        heat_cycles,
        profile.path_num(&["heat", "messages"]).unwrap_or(0.0),
        profile.path_num(&["heat", "peak_live_msgs"]).unwrap_or(0.0),
    ));
    out
}

/// Render a parsed `"state"` tree (`{"values":{...},"children":{...}}`
/// at every level) as an indented terminal view for `bgtop --sessions`:
///
/// ```text
/// server  submitted=3 ...
///   sessions/0  peer=open
///     jobs/1  phase=running cycle=...
/// ```
pub fn render_state(state: &Json) -> String {
    let mut out = String::new();
    render_state_node("server", state, 0, &mut out);
    out
}

fn render_state_node(name: &str, node: &Json, depth: usize, out: &mut String) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(name);
    if let Some(Json::Obj(values)) = node.get("values") {
        for (k, v) in values {
            let rendered = match v {
                Json::Str(s) => s.clone(),
                Json::Num(n) => format!("{n}"),
                other => format!("{other:?}"),
            };
            out.push_str(&format!("  {k}={rendered}"));
        }
    }
    out.push('\n');
    if let Some(Json::Obj(children)) = node.get("children") {
        for (k, c) in children {
            render_state_node(k, c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgsim::{Domain, Profiler};

    fn sample_snapshot() -> ProfileSnapshot {
        let mut p = Profiler::standard(3);
        p.span(Domain::Torus, 250);
        p.span(Domain::Sched, 750);
        p.msg_enqueued(0, 2);
        p.snapshot()
    }

    #[test]
    fn snapshot_line_parses_back_to_the_same_numbers() {
        let line = snapshot_json("fig8_throughput", 3, 5, 28, &sample_snapshot());
        let v = json::parse(&line).expect("line parses");
        assert_eq!(
            v.path_num(&["schema_version"]),
            Some(f64::from(SCHEMA_VERSION))
        );
        assert_eq!(v.get("bench").and_then(Json::str), Some("fig8_throughput"));
        assert_eq!(v.path_num(&["done"]), Some(5.0));
        assert_eq!(
            v.path_num(&["profile", "domains", "torus", "cycles"]),
            Some(250.0)
        );
        assert_eq!(v.path_num(&["profile", "heat", "cycles"]), Some(1000.0));
        assert_eq!(v.path_num(&["profile", "heat", "messages"]), Some(1.0));
    }

    #[test]
    fn render_shows_progress_and_subsystems() {
        let line = snapshot_json("demo", 1, 28, 28, &sample_snapshot());
        let v = json::parse(&line).unwrap();
        let view = render_snapshot(&v);
        assert!(view.contains("bgtop — demo"));
        assert!(view.contains("28/28 units done"));
        assert!(view.contains("sched"), "{view}");
    }

    #[test]
    fn last_snapshot_skips_torn_and_field_missing_lines() {
        let good1 = snapshot_json("demo", 1, 1, 4, &sample_snapshot());
        let good2 = snapshot_json("demo", 2, 2, 4, &sample_snapshot());
        // A complete trailing line wins.
        let text = format!("{good1}\n{good2}\n");
        assert_eq!(last_snapshot(&text).unwrap().path_num(&["seq"]), Some(2.0));
        // A torn final line falls back to the previous complete one.
        let torn = format!("{good1}\n{}", &good2[..good2.len() / 2]);
        assert_eq!(last_snapshot(&torn).unwrap().path_num(&["seq"]), Some(1.0));
        // Valid JSON missing seq/total is not a snapshot: it is skipped
        // (and counted) instead of rendering as a seq-0 frame forever.
        let noseq = format!("{good1}\n{{\"bench\":\"demo\",\"done\":3}}\n");
        assert_eq!(last_snapshot(&noseq).unwrap().path_num(&["seq"]), Some(1.0));
        assert_eq!(malformed_snapshots(&noseq), 1);
        assert_eq!(malformed_snapshots(&text), 0);
        // A stream of only field-missing lines yields no snapshot.
        assert!(last_snapshot("{\"a\":1}\n{\"b\":2}\n").is_none());
        assert_eq!(malformed_snapshots("{\"a\":1}\n{\"b\":2}\n"), 2);
        assert!(last_snapshot("").is_none());
    }

    fn with_state(seq: u64, done: usize, phase: &str) -> String {
        // server → sessions/0 → jobs/1, each node's values then children.
        let tree = |w: &mut Writer| {
            w.obj()
                .key("values")
                .obj()
                .key("endpoint")
                .str("unix:/tmp/x.sock");
            w.end_obj().key("children").obj().key("sessions/0").obj();
            w.key("values").obj().key("peer").str("open").end_obj();
            w.key("children")
                .obj()
                .key("jobs/1")
                .obj()
                .key("values")
                .obj();
            w.key("cycle")
                .str("12345")
                .key("phase")
                .str(phase)
                .end_obj();
            w.key("children").obj().end_obj().end_obj();
            w.end_obj().end_obj().end_obj().end_obj();
        };
        let mut w = Writer::default();
        write_snapshot(
            &mut w,
            "bgserve",
            seq,
            done,
            1,
            &sample_snapshot(),
            Some(&tree),
        );
        w.finish()
    }

    #[test]
    fn state_tree_embeds_renders_and_survives_event_lines() {
        // The embedded snapshot parses back and carries the tree.
        let line = with_state(1, 0, "running");
        let v = json::parse(&line).expect("line parses");
        let state = v.get("state").expect("state section");
        assert_eq!(
            state
                .get("children")
                .and_then(|c| c.get("sessions/0"))
                .and_then(|s| s.get("children"))
                .and_then(|c| c.get("jobs/1"))
                .and_then(|j| j.get("values"))
                .and_then(|vals| vals.get("phase"))
                .and_then(Json::str),
            Some("running")
        );
        let view = render_state(state);
        assert!(view.contains("sessions/0  peer=open"), "{view}");
        assert!(view.contains("jobs/1"), "{view}");
        assert!(view.contains("phase=running"), "{view}");
        let line2 = with_state(2, 1, "done");
        // Event lines interleaved with snapshots are neither snapshots
        // nor malformed.
        let text = format!("{line}\n{{\"event\":\"session-drop\",\"session\":0}}\n{line2}\n");
        assert_eq!(last_snapshot(&text).unwrap().path_num(&["seq"]), Some(2.0));
        assert_eq!(malformed_snapshots(&text), 0);
    }

    #[test]
    fn monitor_event_lines_append_to_the_file() {
        let dir = std::env::temp_dir().join(format!("bench_monitor_ev_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mon.jsonl");
        let mut m = Monitor::create(&path, "bgserve", false).unwrap();
        let empty = |w: &mut Writer| {
            w.obj().key("values").obj().end_obj();
            w.key("children").obj().end_obj().end_obj();
        };
        m.publish(0, 1, &sample_snapshot(), Some(&empty));
        m.event("{\"event\":\"session-drop\",\"session\":3,\"jobs_cancelled\":1}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(malformed_snapshots(&text), 0);
        let snap = last_snapshot(&text).unwrap();
        assert!(snap.get("state").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn monitor_appends_jsonl_and_guards_overwrite() {
        let dir = std::env::temp_dir().join(format!("bench_monitor_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mon.jsonl");
        let snap = sample_snapshot();
        let mut m = Monitor::create(&path, "demo", false).unwrap();
        m.publish(1, 2, &snap, None);
        m.publish(2, 2, &snap, None);
        // Existing file without --force is refused, like every output flag.
        assert!(Monitor::create(&path, "demo", false).is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let last = json::parse(lines[1]).unwrap();
        assert_eq!(last.path_num(&["seq"]), Some(2.0));
        assert_eq!(last.path_num(&["done"]), Some(2.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_reader_opened_before_the_first_publish_sees_every_line() {
        // The file is appended in place, never replaced, so a reader
        // holding it open (a `tail -f`) keeps seeing new lines.
        use std::io::Read;
        let dir = std::env::temp_dir().join(format!("bench_monitor_tail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mon.jsonl");
        let mut m = Monitor::create(&path, "demo", false).unwrap();
        let mut reader = File::open(&path).unwrap();
        for done in 1..=3 {
            m.publish(done, 3, &sample_snapshot(), None);
        }
        m.event("{\"event\":\"session-drop\",\"session\":1}");
        let mut text = String::new();
        reader.read_to_string(&mut text).unwrap();
        assert_eq!(text.lines().count(), 4, "{text}");
        assert_eq!(last_snapshot(&text).unwrap().path_num(&["seq"]), Some(3.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
