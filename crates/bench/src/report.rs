//! Machine-readable run reports and trace exporters for the
//! experiments.
//!
//! A [`Report`] collects the scalar results an experiment prints as its
//! ASCII table plus any telemetry [`MetricsRegistry`] captured from the
//! runs, and renders them as JSON or as a gem5-style flat `stats.txt`
//! dump. The runner (`crate::experiments::run`) hands every
//! experiment's report to [`Report::emit`] with the parsed [`Cli`],
//! which is what gives the whole suite a uniform `--stats-out <path>` /
//! `--json` interface. [`chrome_trace_json`] renders a run's kept trace
//! entries for `--trace-out`.

use std::fmt::Write as _;
use std::io::Write;

use bgsim::telemetry::{MetricsRegistry, ProfileSnapshot, Scope, SlotValue};
use bgsim::trace::{TraceEntry, TraceEvent, NO_CORE};

use crate::cli::Cli;
use crate::json::{Num, Writer};

/// Version stamp every report carries (`"schema_version"` in JSON,
/// `schema_version` line in the flat format). Bumped when the report
/// layout changes shape; `ci/perf_smoke.sh` refuses reports that do
/// not declare it.
///
/// v3 added the `host.peak_rss_bytes` / `host.bytes_per_node` memory
/// block ([`Report::host_mem`]).
pub const SCHEMA_VERSION: u32 = 3;

pub struct Report {
    name: String,
    scalars: Vec<(String, f64)>,
    strings: Vec<(String, String)>,
    registries: Vec<(String, MetricsRegistry)>,
}

impl Report {
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_string(),
            scalars: Vec::new(),
            strings: Vec::new(),
            registries: Vec::new(),
        }
    }

    /// Record one scalar result under a dotted key (e.g.
    /// `"linux.core0.max_delta"`).
    pub fn scalar(&mut self, key: &str, v: f64) -> &mut Report {
        self.scalars.push((key.to_string(), v));
        self
    }

    /// Record a string result (values that must not be squeezed through
    /// an f64 — notably 64-bit trace digests, reported as hex).
    pub fn string(&mut self, key: &str, v: &str) -> &mut Report {
        self.strings.push((key.to_string(), v.to_string()));
        self
    }

    /// Record the standard host-performance block: how fast the *host*
    /// simulated, for tracking simulator throughput across PRs.
    /// `sim_cycles` is the simulated-cycle span covered and `events` the
    /// engine events processed.
    pub fn host_perf(
        &mut self,
        threads: usize,
        wall_seconds: f64,
        sim_cycles: u64,
        events: u64,
    ) -> &mut Report {
        self.scalar("host.threads", threads as f64);
        self.scalar("host.wall_seconds", wall_seconds);
        self.scalar("host.sim_cycles", sim_cycles as f64);
        self.scalar("host.events", events as f64);
        if wall_seconds > 0.0 {
            self.scalar("host.sim_cycles_per_sec", sim_cycles as f64 / wall_seconds);
            self.scalar("host.events_per_sec", events as f64 / wall_seconds);
        }
        self
    }

    /// Record the standard host-memory block: the process's peak
    /// resident set (high-water mark, so it covers the largest
    /// configuration the experiment ran) and, when `nodes` is known, the
    /// amortized footprint per simulated node — the figure of merit for
    /// the rack-scale memory layout. Host-side quantities: they vary
    /// across machines and builds and are not digest material.
    pub fn host_mem(&mut self, nodes: u64) -> &mut Report {
        let rss = peak_rss_bytes();
        self.scalar("host.peak_rss_bytes", rss as f64);
        if nodes > 0 {
            self.scalar("host.bytes_per_node", rss as f64 / nodes as f64);
        }
        self
    }

    /// Attach a telemetry registry captured from a run, labeled (e.g.
    /// per kernel) so several runs can coexist in one report.
    pub fn registry(&mut self, label: &str, reg: MetricsRegistry) -> &mut Report {
        self.registries.push((label.to_string(), reg));
        self
    }

    /// Record the standard `profile.*` block from a cycle-accounting
    /// snapshot: per-domain event/cycle totals plus machine-wide heat
    /// aggregates. All values are simulated quantities, so the block is
    /// bit-identical across host thread counts and diff-able by CI.
    pub fn profile(&mut self, snap: &ProfileSnapshot) -> &mut Report {
        if !snap.enabled {
            return self;
        }
        for (label, d) in snap.domains_labeled() {
            self.scalar(&format!("profile.{label}.events"), d.events as f64);
            self.scalar(&format!("profile.{label}.cycles"), d.cycles as f64);
        }
        self.scalar("profile.heat.events", snap.total_events() as f64);
        self.scalar("profile.heat.cycles", snap.total_cycles() as f64);
        self.scalar("profile.heat.messages", snap.messages as f64);
        self.scalar("profile.heat.peak_live_msgs", snap.peak_live_msgs as f64);
        self.scalar("profile.nodes", f64::from(snap.nodes));
        self
    }

    pub fn to_json(&self) -> String {
        let mut w = Writer::default();
        w.obj().key("bench").str(&self.name);
        w.key("schema_version").u64(SCHEMA_VERSION.into());
        w.key("scalars").obj();
        for (k, v) in &self.scalars {
            w.key(k).f64(*v);
        }
        w.end_obj().key("strings").obj();
        for (k, v) in &self.strings {
            w.key(k).str(v);
        }
        w.end_obj().key("metrics").obj();
        for (label, reg) in &self.registries {
            w.key(label);
            write_stats(&mut w, reg);
        }
        w.end_obj().end_obj();
        w.finish()
    }

    pub fn to_stats_txt(&self) -> String {
        let mut out = String::new();
        flat(&mut out, "schema_version", SCHEMA_VERSION);
        for (k, v) in &self.scalars {
            flat(&mut out, &format!("scalars.{k}"), Num(*v));
        }
        for (k, v) in &self.strings {
            flat(&mut out, &format!("strings.{k}"), v);
        }
        for (label, reg) in &self.registries {
            let _ = writeln!(out, "# registry: {label}");
            stats_txt(&mut out, reg);
        }
        out
    }

    /// Write the report where the flags ask: a `--stats-out` file
    /// (`.txt` extension selects the flat format unless `--json` forces
    /// JSON), and/or JSON on stdout under bare `--json`. Refuses to
    /// overwrite an existing stats file unless `--force` was given.
    pub fn emit(&self, cli: &Cli) -> std::io::Result<()> {
        if let Some(path) = &cli.stats_out {
            let flat = path.extension().is_some_and(|e| e == "txt") && !cli.json;
            let body = if flat {
                self.to_stats_txt()
            } else {
                self.to_json()
            };
            guard_overwrite(path, cli.force)?;
            let mut bytes = body.into_bytes();
            if bytes.last() != Some(&b'\n') {
                bytes.push(b'\n');
            }
            write_atomic(path, &bytes)?;
            eprintln!("stats written to {}", path.display());
        }
        if cli.json && cli.stats_out.is_none() {
            println!("{}", self.to_json());
        }
        Ok(())
    }

    /// [`Report::emit`], but a write failure (full disk, bad
    /// `--stats-out` directory, permissions) reports the offending path
    /// on stderr and exits nonzero instead of unwinding through a
    /// panic. This is the call every experiment run ends with.
    pub fn emit_or_exit(&self, cli: &Cli) {
        if let Err(e) = self.emit(cli) {
            let path = cli
                .stats_out
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "<stdout>".to_string());
            eprintln!("error: writing stats to {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Write the Chrome/Perfetto trace bodies an experiment captured to the
/// `--trace-out` path, one file per `(suffix, body)` part. A no-op when
/// `--trace-out` was not given. An empty suffix writes the path as-is;
/// otherwise the suffix is inserted before the extension
/// (`trace.json` + `"cnk"` → `trace.cnk.json`), which is how the
/// multi-run experiments keep their per-kernel traces apart. Honors the
/// `--force` overwrite guard; a write failure reports the offending
/// path on stderr and exits nonzero.
pub fn emit_traces_or_exit(cli: &Cli, parts: &[(String, String)]) {
    let Some(path) = &cli.trace_out else { return };
    for (suffix, body) in parts {
        let mut p = path.clone();
        if !suffix.is_empty() {
            let stem = p
                .file_stem()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let ext = p.extension().map(|e| e.to_string_lossy().into_owned());
            p.set_file_name(match ext {
                Some(e) => format!("{stem}.{suffix}.{e}"),
                None => format!("{stem}.{suffix}"),
            });
        }
        let write = guard_overwrite(&p, cli.force).and_then(|()| write_atomic(&p, body.as_bytes()));
        if let Err(e) = write {
            eprintln!("error: writing trace to {}: {e}", p.display());
            std::process::exit(1);
        }
        eprintln!("trace written to {}", p.display());
    }
}

/// The process's peak resident set size in bytes, from the kernel's
/// high-water mark (`VmHWM` in `/proc/self/status`). Returns 0 when the
/// procfs field is unavailable (non-Linux hosts), so reports degrade to
/// "unmeasured" rather than failing the run.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Write `bytes` to `path` atomically: the content goes to a temp file
/// in the same directory (so the final rename cannot cross a
/// filesystem) and is renamed into place only once fully written. A
/// crash mid-write leaves at worst a stale temp file, never a truncated
/// `path` that a later reader parses as corrupt — every `--stats-out`/
/// `--trace-out`/`--monitor-out` write and the `bgserve` result cache
/// go through here.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} has no file name", path.display()),
        )
    })?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// Refuse to clobber an existing output file unless `--force` was
/// given. Shared by `--stats-out` (via [`Report::emit`]), `--trace-out`
/// and `--monitor-out`, so a rerun cannot silently overwrite a previous
/// run's evidence.
pub fn guard_overwrite(path: &std::path::Path, force: bool) -> std::io::Result<()> {
    if !force && path.exists() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!("{} exists; pass --force to overwrite", path.display()),
        ));
    }
    Ok(())
}

/// A slot's label in the stats dumps: `machine`, `node3`, `core5`.
fn slot_label(scope: Scope, i: usize) -> String {
    match scope {
        Scope::Machine => "machine".to_string(),
        Scope::PerNode => format!("node{i}"),
        Scope::PerCore => format!("core{i}"),
    }
}

/// Render kept trace entries as a Chrome trace-event JSON document,
/// viewable in `chrome://tracing` or
/// [ui.perfetto.dev](https://ui.perfetto.dev).
///
/// Mapping: pid = node, tid = core (9999 for an event without one),
/// ts/dur = simulated cycles (the viewer labels them as microseconds; at
/// 850 MHz divide by 850 for real microseconds). Ops render as complete
/// ("X") slices so preemption and kills cannot unbalance begin/end pairs;
/// function-ship requests and retries open async ("b") spans keyed by
/// request id, which replies close ("e"; a retry's `bytes` arg is its
/// attempt number); every other event is an instant ("i") whose `args`
/// carry its two operands ([`chrome_fields`]). Op ends, message sends
/// and message receives are skipped: the op slice already spans its op,
/// and the DCMF phases mark the messages.
pub fn chrome_trace_json(entries: &[TraceEntry]) -> String {
    let mut w = Writer::default();
    w.obj().key("displayTimeUnit").str("ms");
    w.key("otherData").obj();
    w.key("clock").str("cycles@850MHz").end_obj();
    w.key("traceEvents").arr();
    for e in entries {
        let Some((name, cat, a, b)) = chrome_fields(&e.what) else {
            continue;
        };
        let tid = if e.core == NO_CORE { 9999 } else { e.core };
        w.obj().key("name").str(name);
        w.key("cat").str(cat);
        w.key("pid").u64(e.node.into()).key("tid").u64(tid.into());
        w.key("ts").u64(e.at);
        match e.what {
            TraceEvent::OpStart { .. } => {
                w.key("ph").str("X").key("dur").u64(b);
                w.key("args").obj().key("tid").u64(a);
            }
            TraceEvent::FshipReq { .. } | TraceEvent::FshipRetry { .. } => {
                w.key("ph").str("b").key("id").u64(a);
                w.key("args").obj().key("bytes").u64(b);
            }
            TraceEvent::FshipReply { .. } => {
                w.key("ph").str("e").key("id").u64(a);
                w.key("args").obj().key("latency_cycles").u64(b);
            }
            _ => {
                w.key("ph").str("i").key("s").str("t");
                w.key("args").obj().key("a").u64(a).key("b").u64(b);
            }
        }
        w.end_obj().end_obj();
    }
    w.end_arr().end_obj();
    w.finish()
}

/// An event's Chrome name, category and two operands `(a, b)`, or `None`
/// for the kinds the exporter skips. An op's operands are its tid and
/// cost, a function-ship event's its request id and bytes, attempt or
/// latency.
fn chrome_fields(e: &TraceEvent) -> Option<(&'static str, &'static str, u64, u64)> {
    use TraceEvent as E;
    Some(match *e {
        E::OpEnd { .. } | E::MsgSend { .. } | E::MsgRecv { .. } => return None,
        E::OpStart { tid, opname, cost } => (opname, "op", tid.into(), cost),
        E::SyscallEnter { tid, name } => (name, "syscall", tid.into(), 0),
        E::SyscallExit {
            tid, name, cost, ..
        } => (name, "syscall", tid.into(), cost),
        E::SchedPick { tid } => ("pick_next", "sched", tid.into(), 0),
        E::Preempt { tid, remaining } => ("timeslice", "sched", tid.into(), remaining),
        E::FutexWait { tid, uaddr } => ("wait", "futex", tid.into(), uaddr),
        E::FutexWake { uaddr, woken } => ("wake", "futex", uaddr, woken),
        E::GuardFault { tid, vaddr } => ("dac_guard", "fault", tid.into(), vaddr),
        E::GuardStorm { hits } => ("dac_storm", "fault", hits, 0),
        E::PageFault { tid, faults } => ("demand_page", "fault", tid.into(), faults),
        E::TlbRefill { tid, misses } => ("sw_refill", "fault", tid.into(), misses),
        E::Segv { tid, vaddr, why } => (why, "fault", tid.into(), vaddr),
        E::Fault { kind, name, arg } => (name, "fault", kind.into(), arg),
        E::Ras { code, detail } => (code, "fault", detail, 0),
        E::DaemonWake { name, src, cost } => (name, "noise", src, cost),
        E::Noise { tag, cycles } => ("stretch", "noise", tag, cycles),
        E::Ipi { kind } => ("ipi", "irq", kind.into(), 0),
        E::FshipReq { id, name, bytes } => (name, "fship", id, bytes),
        E::FshipRetry { id, attempt } => ("retry", "fship", id, attempt),
        E::FshipReply { id, latency } => ("reply", "fship", id, latency),
        E::MsgPhase { phase, peer, bytes } => (phase, "dcmf", peer, bytes),
        // A negative exit code shows sign-extended.
        E::ThreadExit { tid, code } => ("exit", "thread", tid.into(), code as u64),
    })
}

/// Render the registry as a gem5-style flat stats text dump: one
/// `name.slot  value` line per scalar, histogram sub-statistics spelled
/// out (`.count`, `.sum`, `.min`, `.max`, `.mean`, non-empty log2
/// buckets as `.bucket<i>` covering `[2^(i-1), 2^i)`). Metrics are
/// emitted in name order so two dumps diff byte-stably.
fn stats_txt(out: &mut String, reg: &MetricsRegistry) {
    out.push_str("---------- Begin Simulation Statistics ----------\n");
    for m in reg.sorted() {
        for (i, slot) in m.active() {
            let name = format!("{}.{}", m.name, slot_label(m.scope, i));
            match slot {
                SlotValue::Scalar(v) => flat(out, &name, v),
                SlotValue::Hist(h) => {
                    flat(out, &format!("{name}.count"), h.count());
                    flat(out, &format!("{name}.sum"), h.sum());
                    flat(out, &format!("{name}.min"), h.min());
                    flat(out, &format!("{name}.max"), h.max());
                    flat(out, &format!("{name}.mean"), format!("{:.2}", h.mean()));
                    for (b, c) in h.nonzero_buckets() {
                        flat(out, &format!("{name}.bucket{b}"), c);
                    }
                }
            }
        }
    }
    out.push_str("---------- End Simulation Statistics   ----------\n");
}

/// One `key  value` line of the flat stats format.
fn flat(out: &mut String, key: &str, v: impl std::fmt::Display) {
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, "{key:<58} {v:>16}");
}

/// Write the registry as a JSON object: metric name → `{kind, scope,
/// values}` where `values` maps slot labels to scalars or histogram
/// objects (`{count, sum, min, max, mean, buckets: {i: count}}`).
/// Zero-valued slots are elided to keep dumps proportional to activity.
/// Metrics are emitted in name order so two dumps diff byte-stably.
fn write_stats(w: &mut Writer, reg: &MetricsRegistry) {
    w.obj();
    for m in reg.sorted() {
        w.key(m.name).obj();
        w.key("kind").str(m.kind.as_str());
        w.key("scope").str(m.scope.as_str());
        w.key("values").obj();
        for (i, slot) in m.active() {
            w.key(&slot_label(m.scope, i));
            match slot {
                SlotValue::Scalar(v) => w.u64(v),
                SlotValue::Hist(h) => {
                    w.obj().key("count").u64(h.count()).key("sum").u64(h.sum());
                    w.key("min").u64(h.min()).key("max").u64(h.max());
                    w.key("mean").f64_fixed(h.mean(), 3);
                    w.key("buckets").obj();
                    for (b, c) in h.nonzero_buckets() {
                        w.key(&b.to_string()).u64(c);
                    }
                    w.end_obj().end_obj()
                }
            };
        }
        w.end_obj().end_obj();
    }
    w.end_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgsim::telemetry::Slot;

    #[test]
    fn chrome_trace_shapes() {
        let entry = |at, core, what| TraceEntry {
            at,
            node: 0,
            core,
            what,
        };
        let events = [
            entry(
                100,
                1,
                TraceEvent::OpStart {
                    tid: 3,
                    opname: "compute",
                    cost: 500,
                },
            ),
            entry(600, 1, TraceEvent::OpEnd { tid: 3 }),
            entry(
                200,
                0,
                TraceEvent::FshipReq {
                    id: 42,
                    name: "write",
                    bytes: 96,
                },
            ),
            entry(
                900,
                NO_CORE,
                TraceEvent::FshipReply {
                    id: 42,
                    latency: 700,
                },
            ),
            entry(
                950,
                2,
                TraceEvent::DaemonWake {
                    name: "sshd",
                    src: 1,
                    cost: 330,
                },
            ),
        ];
        let j = chrome_trace_json(&events);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"ph\":\"X\"") && j.contains("\"dur\":500"));
        assert!(j.contains("\"ph\":\"b\"") && j.contains("\"ph\":\"e\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"cat\":\"noise\""));
        assert!(j.contains("\"tid\":9999"), "a reply has no core");
        // The op end is skipped: the slice already spans the op.
        assert_eq!(j.matches("\"ts\":").count(), 4);
    }

    #[test]
    fn stats_dumps_elide_zero_slots() {
        let mut r = MetricsRegistry::new(1, 4);
        let c = r.counter("syscall.count", Scope::PerCore);
        let h = r.histogram("noise.cycles", Scope::PerCore);
        r.add(c, Slot::Core(2), 5);
        r.record(h, Slot::Core(2), 39);
        let mut txt = String::new();
        stats_txt(&mut txt, &r);
        assert!(txt.contains("syscall.count.core2"));
        assert!(!txt.contains("core0"));
        assert!(txt.contains("noise.cycles.core2.max"));
        let mut w = Writer::default();
        write_stats(&mut w, &r);
        let json = w.finish();
        assert!(json.contains("\"core2\":5"));
        assert!(json.contains("\"max\":39"));
        assert!(!json.contains("core1"));
    }

    #[test]
    fn json_shape_roundtrips_key_pieces() {
        let mut reg = MetricsRegistry::new(1, 4);
        let c = reg.counter("syscall.count", Scope::PerCore);
        reg.add(c, Slot::Core(2), 9);
        let mut r = Report::new("fig5_7_fwq");
        r.scalar("linux.core0.max_delta", 38076.0);
        r.registry("linux", reg);
        let j = r.to_json();
        assert!(j.starts_with("{\"bench\":\"fig5_7_fwq\""));
        assert!(j.contains("\"linux.core0.max_delta\":38076"));
        assert!(j.contains("\"linux\":{\"syscall.count\""));
        assert!(j.ends_with("}}"));
    }

    #[test]
    fn flat_format_lists_scalars_and_registries() {
        let mut r = Report::new("x");
        r.scalar("a.b", 1.5);
        r.registry("cnk", MetricsRegistry::new(1, 1));
        let t = r.to_stats_txt();
        assert!(t.contains("scalars.a.b"));
        assert!(t.contains("1.5"));
        assert!(t.contains("# registry: cnk"));
        assert!(t.contains("Begin Simulation Statistics"));
    }

    #[test]
    fn schema_version_is_stamped_in_both_formats() {
        let r = Report::new("x");
        assert!(r
            .to_json()
            .starts_with("{\"bench\":\"x\",\"schema_version\":3,"));
        assert!(r.to_stats_txt().starts_with("schema_version"));
    }

    #[test]
    fn profile_block_emits_domain_and_heat_keys() {
        let mut prof = bgsim::Profiler::standard(2);
        prof.span(bgsim::Domain::Torus, 120);
        prof.msg_enqueued(0, 1);
        let mut r = Report::new("x");
        r.profile(&prof.snapshot());
        let j = r.to_json();
        assert!(j.contains("\"profile.torus.events\":1"));
        assert!(j.contains("\"profile.torus.cycles\":120"));
        assert!(j.contains("\"profile.engine_heap.events\":0"));
        assert!(j.contains("\"profile.heat.messages\":1"));
        assert!(j.contains("\"profile.heat.peak_live_msgs\":1"));
        assert!(j.contains("\"profile.nodes\":2"));
        // No profile (`enabled: false`) contributes nothing (no
        // misleading zeros).
        let mut r2 = Report::new("x");
        r2.profile(&bgsim::ProfileSnapshot::default());
        assert!(!r2.to_json().contains("profile."));
    }

    #[test]
    fn trace_helper_suffixes_filenames_and_guards_overwrite() {
        let dir = std::env::temp_dir().join(format!("bench_trace_helper_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut cli = Cli {
            trace_out: Some(dir.join("trace.json")),
            ..Cli::default()
        };
        emit_traces_or_exit(
            &cli,
            &[
                (String::new(), "[]".to_string()),
                ("cnk".to_string(), "[1]".to_string()),
            ],
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("trace.json")).unwrap(),
            "[]"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("trace.cnk.json")).unwrap(),
            "[1]"
        );
        // Re-running with --force overwrites in place.
        cli.force = true;
        emit_traces_or_exit(&cli, &[("cnk".to_string(), "[2]".to_string())]);
        assert_eq!(
            std::fs::read_to_string(dir.join("trace.cnk.json")).unwrap(),
            "[2]"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_replaces_content_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("bench_write_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // A path with no file name is a clean error, not a panic.
        assert!(write_atomic(std::path::Path::new("/"), b"x").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strings_and_host_perf_round_trip() {
        let mut r = Report::new("x");
        r.string("digest.all", "00ff00ff00ff00ff");
        r.host_perf(4, 2.0, 1_700_000, 500);
        let j = r.to_json();
        assert!(j.contains("\"strings\":{\"digest.all\":\"00ff00ff00ff00ff\"}"));
        assert!(j.contains("\"host.threads\":4"));
        assert!(j.contains("\"host.wall_seconds\":2"));
        assert!(j.contains("\"host.sim_cycles_per_sec\":850000"));
        assert!(j.contains("\"host.events_per_sec\":250"));
        let t = r.to_stats_txt();
        assert!(t.contains("strings.digest.all"));
        assert!(t.contains("00ff00ff00ff00ff"));
    }

    #[test]
    fn overwrite_guard_requires_force() {
        let dir = std::env::temp_dir().join(format!("bench_report_guard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.json");
        // Absent file: fine either way.
        assert!(guard_overwrite(&path, false).is_ok());
        std::fs::write(&path, "{}").unwrap();
        let e = guard_overwrite(&path, false).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists);
        assert!(e.to_string().contains("--force"), "{e}");
        assert!(guard_overwrite(&path, true).is_ok());
        // emit() goes through the same guard.
        let mut cli = Cli {
            stats_out: Some(path.clone()),
            ..Cli::default()
        };
        let r = Report::new("guard");
        let e = r.emit(&cli).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists);
        cli.force = true;
        r.emit(&cli).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn host_mem_reports_rss_and_per_node_amortization() {
        // On Linux VmHWM is always present for a live process; the
        // fallback keeps the block harmless elsewhere.
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
        let mut r = Report::new("x");
        r.host_mem(64);
        let j = r.to_json();
        assert!(j.contains("\"host.peak_rss_bytes\":"));
        assert!(j.contains("\"host.bytes_per_node\":"));
        // nodes == 0 records the RSS but skips the division.
        let mut r0 = Report::new("x");
        r0.host_mem(0);
        assert!(!r0.to_json().contains("bytes_per_node"));
    }

    #[test]
    fn zero_wall_omits_rates() {
        let mut r = Report::new("x");
        r.host_perf(1, 0.0, 10, 10);
        let j = r.to_json();
        assert!(j.contains("\"host.events\":10"));
        assert!(!j.contains("events_per_sec"));
    }
}
