//! The wire protocol: newline-delimited JSON in the workspace's one
//! dialect, written and parsed by [`bench::json`] like the monitor
//! stream — the service adds no dependency, no second writer and no
//! second parser. A request nested deeper than
//! [`bench::json::MAX_DEPTH`] levels is an `error` reply like any other
//! malformed line.
//!
//! Requests (one JSON object per line):
//!
//! ```text
//! {"op":"ping"}
//! {"op":"status"}
//! {"op":"shutdown"}
//! {"op":"submit","kernel":"cnk","mode":"fast",
//!  "nodes":2,"seed":"129","ops":[["compute",9000],["gettid"]],
//!  "faults":{"seed":"7"}}
//! ```
//!
//! `mode` is optional (defaults to the oracle mode). `faults` is
//! optional and either `{"seed":N}` (resolved server-side against the
//! job's machine config, exactly like the bench `--fault-seed` flag)
//! or `{"events":[[at,node,"kind",arg],...]}`.
//!
//! Responses are event lines: `pong`, `status`, `shutting-down`,
//! `error`, and for a submission `accepted` → zero or more `progress`
//! lines (when the submit asked for `progress_cycles`) → optional
//! `telemetry` (an embedded monitor snapshot, renderable by `bgtop`'s
//! code) → `result`.
//!
//! Live-job extensions (all optional on `submit`):
//!
//! ```text
//! {"op":"submit",...,"timeout_cycles":"2000000","timeout_wall_ms":5000,
//!  "progress_cycles":"100000"}
//! {"op":"cancel","job":3}
//! ```
//!
//! `cancel` targets an in-flight job id on any session of the server
//! and answers `{"event":"cancel-ack","job":3,"cancelled":true|false}`
//! (`false`: the job already finished or the id is unknown). A
//! cancelled or timed-out submission still ends with a `result` line —
//! `outcome` is `cancelled`/`timeout`, and the result is **never**
//! memoized in the cache.
//!
//! All u64 values that must survive the round trip exactly (seeds,
//! cycles, digests) are rendered as *strings* — JSON numbers pass
//! through an `f64` in this dialect and would silently lose precision
//! above 2^53. The parser accepts integral numbers, decimal strings,
//! and `0x`-prefixed hex strings everywhere a u64 is expected
//! ([`bench::json::parse_u64`]).

use std::io::{BufRead, Read};

use bench::json::{self, parse_u64, u64_field, Json, Writer};
use bench::monitor::write_snapshot;
use bgcheck::program::{POp, Program};
use bgcheck::runner::{mode_labels, CheckKernel, Mode, MODES};
use bgsim::fault::{FaultEvent, FaultKind, FaultSchedule, FaultSpec};
use bgsim::{ProfileSnapshot, ProgressReport};

use crate::cache::CachedResult;

/// Wire protocol version, reported by `pong`.
pub const PROTO_VERSION: u64 = 1;

/// The longest line either side reads, newline excluded: a request on
/// the server, a reply on the client. No reply the server writes comes
/// near it, because a reply's length does not follow the job's node
/// count and an error quotes at most 64 characters of client text
/// ([`json::quote_head`]).
pub const MAX_LINE: usize = 1 << 20;

/// Read the next line into `buf`, newline stripped, holding at most
/// [`MAX_LINE`] + 1 bytes of it. `Ok(false)`: end of stream. A line
/// longer than [`MAX_LINE`] is an `InvalidData` error.
pub fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    buf.clear();
    let limit = MAX_LINE as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE {
        return Err(std::io::ErrorKind::InvalidData.into());
    }
    Ok(true)
}

/// A parsed client request.
#[derive(Clone, Debug)]
pub enum Request {
    Ping,
    Status,
    Shutdown,
    Submit(SubmitReq),
    /// Cancel an in-flight job by server-assigned id.
    Cancel {
        job: u64,
    },
}

/// Live-job knobs on a submission (all optional; the default is the
/// fire-and-forget PR-9 behavior).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveReq {
    /// Simulated-cycle budget for the run.
    pub timeout_cycles: Option<u64>,
    /// Wall-clock budget in milliseconds.
    pub timeout_wall_ms: Option<u64>,
    /// Stream a `progress` line every this many simulated cycles.
    pub progress_cycles: Option<u64>,
}

/// A job submission, still in wire terms (faults unresolved).
#[derive(Clone, Debug)]
pub struct SubmitReq {
    pub kernel: CheckKernel,
    pub mode: Mode,
    pub nodes: u32,
    pub seed: u64,
    pub ops: Vec<POp>,
    pub faults: FaultSpec,
    pub live: LiveReq,
}

impl SubmitReq {
    /// Validate and resolve into a runnable [`Program`]. Seeded fault
    /// specs expand against the job's machine config here, so the
    /// cache key always sees the concrete schedule.
    pub fn to_program(&self) -> Result<Program, String> {
        let cfg = bgsim::MachineConfig::nodes(self.nodes).with_seed(self.seed);
        cfg.validate()?;
        let faults = self.faults.resolve(&cfg);
        faults.check_nodes(self.nodes)?;
        Ok(Program {
            nodes: self.nodes,
            seed: self.seed,
            ops: self.ops.clone(),
            faults,
        })
    }
}

fn parse_ops(v: &Json) -> Result<Vec<POp>, String> {
    let arr = v.arr().ok_or("ops must be an array")?;
    if arr.is_empty() {
        return Err("ops must not be empty".to_string());
    }
    if arr.len() > 4096 {
        return Err("ops list too long (max 4096)".to_string());
    }
    arr.iter()
        .enumerate()
        .map(|(i, op)| {
            let parts = op
                .arr()
                .ok_or_else(|| format!("ops[{i}] must be an array"))?;
            let name = parts
                .first()
                .and_then(|p| p.str())
                .ok_or_else(|| format!("ops[{i}] must start with an op name"))?;
            let args = parts[1..]
                .iter()
                .map(|a| parse_u64(a).ok_or_else(|| format!("ops[{i}]: non-u64 argument")))
                .collect::<Result<Vec<u64>, String>>()?;
            POp::from_parts(name, &args)
        })
        .collect()
}

fn parse_faults(v: &Json) -> Result<FaultSpec, String> {
    if let Some(seed) = v.get("seed") {
        return parse_u64(seed)
            .map(FaultSpec::Seed)
            .ok_or_else(|| "faults.seed must be a u64".to_string());
    }
    let Some(events) = v.get("events") else {
        return Err("faults must carry \"seed\" or \"events\"".to_string());
    };
    let arr = events.arr().ok_or("faults.events must be an array")?;
    let mut sched = FaultSchedule::default();
    for (i, ev) in arr.iter().enumerate() {
        let parts = ev
            .arr()
            .filter(|p| p.len() == 4)
            .ok_or_else(|| format!("faults.events[{i}] must be [at,node,kind,arg]"))?;
        let at = parse_u64(&parts[0]).ok_or_else(|| format!("faults.events[{i}]: bad at"))?;
        let node = parse_u64(&parts[1])
            .filter(|n| *n <= u32::MAX as u64)
            .ok_or_else(|| format!("faults.events[{i}]: bad node"))? as u32;
        let kind = parts[2]
            .str()
            .and_then(FaultKind::parse)
            .ok_or_else(|| format!("faults.events[{i}]: unknown kind"))?;
        let arg = parse_u64(&parts[3]).ok_or_else(|| format!("faults.events[{i}]: bad arg"))?;
        sched.push(FaultEvent {
            at,
            node,
            kind,
            arg,
        });
    }
    Ok(FaultSpec::Explicit(sched))
}

/// Parse one request line. Errors are safe to echo back to the client.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line.trim())?;
    let op = v
        .get("op")
        .and_then(|o| o.str())
        .ok_or("request missing \"op\"")?;
    match op {
        "ping" => Ok(Request::Ping),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            let kernel = v
                .get("kernel")
                .and_then(|k| k.str())
                .and_then(CheckKernel::from_label)
                .ok_or("submit.kernel must be \"cnk\" or \"fwk\"")?;
            let mode = match v.get("mode").and_then(|m| m.str()) {
                None => MODES[0],
                Some(label) => Mode::from_label(label).ok_or_else(|| {
                    format!(
                        "unknown mode label {} (one of {})",
                        json::quote_head(label),
                        mode_labels()
                    )
                })?,
            };
            let nodes = u64_field(&v, "nodes")?;
            if nodes == 0 || nodes > 1 << 20 {
                return Err(format!("nodes {nodes} out of range"));
            }
            let seed = u64_field(&v, "seed")?;
            let ops = parse_ops(v.get("ops").ok_or("submit missing ops")?)?;
            let faults = match v.get("faults") {
                None => FaultSpec::None,
                Some(f) => parse_faults(f)?,
            };
            let mut live = LiveReq::default();
            for (key, slot) in [
                ("timeout_cycles", &mut live.timeout_cycles),
                ("timeout_wall_ms", &mut live.timeout_wall_ms),
                ("progress_cycles", &mut live.progress_cycles),
            ] {
                if let Some(raw) = v.get(key) {
                    let n =
                        parse_u64(raw).ok_or_else(|| format!("{key} must be a u64 if present"))?;
                    if n == 0 {
                        return Err(format!("{key} must be nonzero if present"));
                    }
                    *slot = Some(n);
                }
            }
            Ok(Request::Submit(SubmitReq {
                kernel,
                mode,
                nodes: nodes as u32,
                seed,
                ops,
                faults,
                live,
            }))
        }
        "cancel" => {
            let job = u64_field(&v, "job")?;
            Ok(Request::Cancel { job })
        }
        other => Err(format!("unknown op {}", json::quote_head(other))),
    }
}

/// A request (`"op"`) or response (`"event"`) line, open after that
/// first field.
fn open_line(kind: &str, name: &str) -> Writer {
    let mut w = Writer::default();
    w.obj().key(kind).str(name);
    w
}

/// A request with no arguments: `ping`, `status` or `shutdown`.
pub fn request_line(op: &str) -> String {
    open_line("op", op).end_obj().finish()
}

/// Render a submit request line (the client side of `parse_request`),
/// with the live-job knobs that are set.
pub fn submit_line(kernel: CheckKernel, mode: Mode, p: &Program, live: LiveReq) -> String {
    let mut w = open_line("op", "submit");
    w.key("kernel").str(kernel.label());
    w.key("mode").str(mode.label());
    w.key("nodes").u64(p.nodes.into());
    w.key("seed").u64_str(p.seed);
    w.key("ops").arr();
    for op in &p.ops {
        w.arr().str(op.name());
        for a in op.args() {
            w.u64_str(a);
        }
        w.end_arr();
    }
    w.end_arr();
    if !p.faults.is_empty() {
        w.key("faults").obj().key("events").arr();
        for ev in &p.faults.events {
            w.arr().u64_str(ev.at).u64(ev.node.into());
            w.str(ev.kind.name()).u64_str(ev.arg).end_arr();
        }
        w.end_arr().end_obj();
    }
    for (key, val) in [
        ("timeout_cycles", live.timeout_cycles),
        ("timeout_wall_ms", live.timeout_wall_ms),
        ("progress_cycles", live.progress_cycles),
    ] {
        if let Some(n) = val {
            w.key(key).u64_str(n);
        }
    }
    w.end_obj().finish()
}

pub fn cancel_line(job: u64) -> String {
    let mut w = open_line("op", "cancel");
    w.key("job").u64(job).end_obj().finish()
}

/// The reply to a `cancel`: `cancelled` is true iff the job was still
/// in flight and its token was set by this request.
pub fn cancel_ack_line(job: u64, cancelled: bool) -> String {
    let mut w = open_line("event", "cancel-ack");
    w.key("job").u64(job).key("cancelled").bool(cancelled);
    w.end_obj().finish()
}

/// One streamed progress report for an in-flight job. Cumulative
/// simulated position plus deltas since the previous report, and the
/// profiler's cumulative heat totals (cheap stand-ins for the full
/// snapshot, which still arrives once in the final `telemetry` line).
pub fn progress_line(job: u64, r: &ProgressReport) -> String {
    let mut w = open_line("event", "progress");
    w.key("job").u64(job).key("cycle").u64_str(r.cycle);
    w.key("events").u64_str(r.events);
    w.key("d_cycles").u64_str(r.d_cycles);
    w.key("d_events").u64_str(r.d_events);
    w.key("live_threads").u64(r.live_threads as u64);
    w.key("heat_events").u64_str(r.profile.total_events());
    w.key("heat_cycles").u64_str(r.profile.total_cycles());
    w.end_obj().finish()
}

pub fn pong_line() -> String {
    let mut w = open_line("event", "pong");
    w.key("proto").u64(PROTO_VERSION).end_obj().finish()
}

pub fn shutting_down_line() -> String {
    open_line("event", "shutting-down").end_obj().finish()
}

pub fn error_line(detail: &str) -> String {
    let mut w = open_line("event", "error");
    w.key("detail").str(detail).end_obj().finish()
}

pub fn accepted_line(job: u64, key_hex: &str) -> String {
    let mut w = open_line("event", "accepted");
    w.key("job").u64(job).key("key").str(key_hex);
    w.end_obj().finish()
}

/// A telemetry event embedding job `job`'s complete monitor snapshot
/// (the exact `snapshot_json` shape, so clients can reuse
/// [`bench::monitor::render_snapshot`] on the `snapshot` field).
pub fn telemetry_line(job: u64, snap: &ProfileSnapshot) -> String {
    let mut w = open_line("event", "telemetry");
    w.key("job").u64(job).key("snapshot");
    write_snapshot(&mut w, "bgserve", job, 1, 1, snap, None);
    w.end_obj().finish()
}

/// The final event of a submission. `paranoid` is `"off"`, `"ok"`, or
/// `"mismatch"`; `cached` tells whether the result came from the cache.
pub fn result_line(
    job: u64,
    r: &CachedResult,
    cached: bool,
    paranoid: &str,
    key_hex: &str,
) -> String {
    let mut w = open_line("event", "result");
    w.key("job").u64(job).key("kernel").str(&r.kernel);
    w.key("mode").str(&r.mode).key("outcome").str(&r.outcome);
    w.key("final_cycle").u64_str(r.final_cycle);
    w.key("digest").hex(r.digest);
    w.key("coverage").hex(r.coverage);
    w.key("cached").bool(cached).key("paranoid").str(paranoid);
    w.key("key").str(key_hex);
    w.end_obj().finish()
}

/// A server-state snapshot for the `status` response.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatusSnapshot {
    pub submitted: u64,
    pub completed: u64,
    pub cache_entries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub paranoid_checks: u64,
    pub paranoid_failures: u64,
    pub cancelled: u64,
    pub timeouts: u64,
    pub session_drops: u64,
    /// Cache inserts whose disk-tier write failed (served from memory).
    pub disk_write_errors: u64,
}

pub fn status_line(s: &StatusSnapshot) -> String {
    let mut w = open_line("event", "status");
    w.key("proto").u64(PROTO_VERSION);
    w.key("submitted").u64(s.submitted);
    w.key("completed").u64(s.completed);
    w.key("cache_entries").u64(s.cache_entries);
    w.key("cache_hits").u64(s.cache_hits);
    w.key("cache_misses").u64(s.cache_misses);
    w.key("disk_write_errors").u64(s.disk_write_errors);
    w.key("paranoid_checks").u64(s.paranoid_checks);
    w.key("paranoid_failures").u64(s.paranoid_failures);
    w.key("cancelled").u64(s.cancelled);
    w.key("timeouts").u64(s.timeouts);
    w.key("session_drops").u64(s.session_drops);
    w.end_obj().finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgcheck::program::generate;

    #[test]
    fn submit_line_round_trips_generated_programs() {
        for seed in 0..6u64 {
            let p = generate(seed);
            for kernel in CheckKernel::ALL {
                let line = submit_line(kernel, MODES[1], &p, LiveReq::default());
                let Request::Submit(req) = parse_request(&line).expect("parse") else {
                    panic!("not a submit");
                };
                assert_eq!(req.kernel, kernel);
                assert_eq!(req.mode, MODES[1]);
                let back = req.to_program().expect("resolve");
                assert_eq!(back.nodes, p.nodes);
                assert_eq!(back.seed, p.seed);
                assert_eq!(back.ops, p.ops);
                assert_eq!(back.faults.events, p.faults.events);
            }
        }
    }

    #[test]
    fn big_u64s_survive_the_wire() {
        let mut p = generate(0);
        p.seed = u64::MAX - 1; // would be mangled as a JSON number
        let line = submit_line(CheckKernel::Cnk, MODES[0], &p, LiveReq::default());
        let Request::Submit(req) = parse_request(&line).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(req.seed, u64::MAX - 1);
        assert_eq!(parse_u64(&Json::Str("0xff".to_string())), Some(255));
        assert_eq!(parse_u64(&Json::Num(3.5)), None);
        assert_eq!(parse_u64(&Json::Num(-1.0)), None);
        assert_eq!(parse_u64(&Json::Num(2f64.powi(60))), None);
    }

    #[test]
    fn request_lines_are_capped_at_max_line() {
        let mut buf = Vec::new();
        let mut at_cap = vec![b'a'; MAX_LINE];
        at_cap.extend_from_slice(b"\nnext\r\nlast");
        let mut r = std::io::Cursor::new(at_cap);
        assert!(read_line(&mut r, &mut buf).unwrap());
        assert_eq!(buf.len(), MAX_LINE);
        assert!(read_line(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"next\r", "parse_request trims the \\r");
        assert!(read_line(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"last");
        assert!(!read_line(&mut r, &mut buf).unwrap());

        let mut r = std::io::Cursor::new(vec![b'a'; 2 * MAX_LINE]);
        let err = read_line(&mut r, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(buf.len(), MAX_LINE + 1, "buffers no more than the cap");
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "{\"op\":\"warp\"}",
            "{\"op\":\"submit\"}",
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"nodes\":0,\"seed\":1,\"ops\":[[\"gettid\"]]}",
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"nodes\":2,\"seed\":1,\"ops\":[]}",
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"nodes\":2,\"seed\":1,\"ops\":[[\"no-such\",1]]}",
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"mode\":\"bogus\",\"nodes\":2,\"seed\":1,\"ops\":[[\"gettid\"]]}",
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"nodes\":2,\"seed\":1,\"ops\":[[\"gettid\"]],\"faults\":{\"events\":[[1,0,\"no-kind\",0]]}}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn unknown_mode_label_names_the_valid_ones() {
        for old in ["seq+fast", "win+heap", "seq+fast+cal+cf"] {
            let line = format!(
                "{{\"op\":\"submit\",\"kernel\":\"cnk\",\"mode\":\"{old}\",\
                 \"nodes\":2,\"seed\":1,\"ops\":[[\"gettid\"]]}}"
            );
            let e = parse_request(&line).expect_err("retired labels are not modes");
            assert!(e.contains(&format!("{old:?}")), "{e}");
            assert!(e.contains("(one of fast, heap)"), "{e}");
        }
    }

    #[test]
    fn live_knobs_and_cancel_round_trip() {
        let p = generate(1);
        let live = LiveReq {
            timeout_cycles: Some(u64::MAX - 7), // string-rendered: must survive
            timeout_wall_ms: Some(2_500),
            progress_cycles: Some(100_000),
        };
        let line = submit_line(CheckKernel::Cnk, MODES[0], &p, live);
        let Request::Submit(req) = parse_request(&line).expect("parse") else {
            panic!("not a submit");
        };
        assert_eq!(req.live, live);
        // Absent knobs stay None and render nothing.
        let plain = submit_line(CheckKernel::Cnk, MODES[0], &p, LiveReq::default());
        assert!(!plain.contains("timeout"), "{plain}");
        let Request::Submit(req) = parse_request(&plain).expect("parse") else {
            panic!("not a submit");
        };
        assert_eq!(req.live, LiveReq::default());
        // Zero budgets are rejected (a 0-cycle timeout would cancel
        // every job before its first event — always a client bug).
        let bad = format!("{},\"timeout_cycles\":0}}", &plain[..plain.len() - 1]);
        assert!(parse_request(&bad).is_err());
        // Cancel round-trips.
        let Request::Cancel { job } = parse_request(&cancel_line(42)).expect("parse") else {
            panic!("not a cancel");
        };
        assert_eq!(job, 42);
        assert!(parse_request("{\"op\":\"cancel\"}").is_err());
        // Progress and ack lines parse as JSON with exact u64s.
        let report = ProgressReport {
            cycle: u64::MAX,
            events: 10,
            d_events: 2,
            d_cycles: 5,
            live_threads: 8,
            profile: ProfileSnapshot::default(),
        };
        let pl = progress_line(3, &report);
        let v = json::parse(&pl).expect("progress parses");
        assert_eq!(v.get("cycle").and_then(parse_u64), Some(u64::MAX));
        assert_eq!(v.path_num(&["live_threads"]), Some(8.0));
        let ack = json::parse(&cancel_ack_line(3, true)).expect("ack parses");
        assert_eq!(ack.get("cancelled"), Some(&Json::Bool(true)));
    }

    #[test]
    fn fault_seed_requests_resolve_against_the_config() {
        let line = "{\"op\":\"submit\",\"kernel\":\"fwk\",\"nodes\":4,\"seed\":9,\
                    \"ops\":[[\"compute\",1000]],\"faults\":{\"seed\":3}}";
        let Request::Submit(req) = parse_request(line).unwrap() else {
            panic!("not a submit");
        };
        let p = req.to_program().unwrap();
        let cfg = bgsim::MachineConfig::nodes(4).with_seed(9);
        assert_eq!(
            p.faults.events,
            FaultSchedule::from_seed(&cfg, 3).events,
            "seeded faults must resolve exactly like --fault-seed"
        );
    }
}
