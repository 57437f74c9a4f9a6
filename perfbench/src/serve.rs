//! `serve`: the shipped `bgserve serve` binary with default settings,
//! driven closed-loop over one session by this process.
//!
//! Every round starts a fresh server (its own process, so its own
//! VmHWM), waits for `ping`, primes a 64-program hot set, then runs the
//! closed loop: 90 % resubmissions cycling through the hot set in a
//! fixed order, 10 % programs the server has never seen. Traffic is
//! generated with `bgcheck::program::generate` and carries no mode
//! label. Every result is held against an in-process run of the same
//! program, made before the timed rounds.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgcheck::program::{generate, Program};
use bgcheck::runner::CheckKernel;
use bgserve::cache::{CachedResult, ResultCache};
use bgserve::key::JobKey;
use bgserve::proto::{parse_request, Request};
use bgsim::{MachineConfig, ProfileSnapshot};

use crate::report::{vm_hwm, Report};
use crate::sim::{job_seed, run_job, Counters, Extra, Kern, Phases, Triple};
use crate::stats::{beyond, median, percentile};
use crate::trace::Tracer;
use crate::Opts;

const HOT: usize = 64;
/// Closed-loop submissions per round: 250 of them are misses, enough to
/// overflow the server's 256-entry LRU past the primed hot set.
const LOOP: usize = 2500;
const SMOKE_LOOP: usize = 1000;
const PROGRAM_SEED: u64 = 0x5E12_E000_0000;

struct Prog {
    program: Program,
    kernel: Kern,
    line: String,
    oracle: Triple,
    profile: ProfileSnapshot,
    coverage: u64,
}

/// One planned submission: which program, and whether the server must
/// answer it from its cache.
#[derive(Clone, Copy)]
struct Planned {
    prog: usize,
    cached: bool,
}

fn check_kernel(k: Kern) -> CheckKernel {
    match k {
        Kern::Cnk => CheckKernel::Cnk,
        Kern::Fwk => CheckKernel::Fwk,
    }
}

/// A submit request without a mode label (u64s as decimal strings, as
/// the service renders them).
fn submit_line(kernel: Kern, p: &Program) -> String {
    let ops: Vec<String> = p
        .ops
        .iter()
        .map(|op| {
            let mut s = format!("[\"{}\"", op.name());
            for a in op.args() {
                s.push_str(&format!(",\"{a}\""));
            }
            s + "]"
        })
        .collect();
    let mut line = format!(
        "{{\"op\":\"submit\",\"kernel\":\"{}\",\"nodes\":{},\"seed\":\"{}\",\"ops\":[{}]",
        kernel.label(),
        p.nodes,
        p.seed,
        ops.join(",")
    );
    if !p.faults.is_empty() {
        let evs: Vec<String> = p
            .faults
            .events
            .iter()
            .map(|e| {
                format!(
                    "[\"{}\",{},\"{}\",\"{}\"]",
                    e.at,
                    e.node,
                    e.kind.name(),
                    e.arg
                )
            })
            .collect();
        line.push_str(&format!(",\"faults\":{{\"events\":[{}]}}", evs.join(",")));
    }
    line + "}"
}

/// Run `p` in-process the way the service's miss path does (default
/// machine configuration, telemetry on, invariant sweep and coverage
/// digest after the run).
fn simulate(
    tr: &mut Tracer,
    id: u64,
    kernel: Kern,
    p: &Program,
) -> Result<crate::sim::JobOut, String> {
    let mut cfg = MachineConfig::nodes(p.nodes)
        .with_seed(p.seed)
        .with_telemetry();
    if !p.faults.is_empty() {
        cfg = cfg.with_faults(p.faults.clone());
    }
    cfg.validate()?;
    run_job(
        tr,
        "program",
        id,
        cfg,
        kernel,
        &p.job_spec(),
        &mut p.factory(),
        Extra::ServiceChecks,
    )
}

/// The named field of a one-line JSON object, unquoted.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|e| &s[..e]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A running server; dropping it stops the process if it still runs.
struct Server {
    child: Child,
    sock: PathBuf,
}

impl Server {
    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// Keeps the host's other CPUs out of idle while it lives: one thread
/// per CPU beyond the client's own, each yielding in a loop, so any
/// runnable server thread gets its CPU at once. On a virtual machine a
/// halted vCPU wakes late and by a varying amount, which otherwise
/// dominates the run-to-run spread of every wake-up-bound timing here:
/// request hand-off, steward start, the dispatcher's grace timer.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (1..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The client side of one session. Reads poll a nonblocking socket and
/// yield between polls, so the client's CPU never sleeps between
/// replies either.
struct Session {
    stream: UnixStream,
    buf: Vec<u8>,
    errors: Vec<String>,
}

/// What the wire showed for one submission.
struct Reply {
    sent: Instant,
    accepted: Option<Instant>,
    done: Instant,
    result: Option<String>,
}

/// How long any single reply may take before the session gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

impl Session {
    fn connect(sock: &Path, deadline: Instant) -> Result<Session, String> {
        loop {
            match UnixStream::connect(sock) {
                Ok(stream) => {
                    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                    return Ok(Session {
                        stream,
                        buf: Vec::new(),
                        errors: Vec::new(),
                    });
                }
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("server never answered on {}: {e}", sock.display()))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let bytes = format!("{line}\n").into_bytes();
        let mut off = 0;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while off < bytes.len() {
            match self.stream.write(&bytes[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::hint::spin_loop()
                }
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    fn read(&mut self) -> Result<String, String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=nl).collect();
                return Ok(String::from_utf8_lossy(&line).trim_end().to_string());
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the session".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err("no reply within 60 s".to_string());
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// Send a one-line request and return the first reply line whose
    /// event is `want`.
    fn request(&mut self, line: &str, want: &str) -> Result<String, String> {
        self.send(line)?;
        loop {
            let l = self.read()?;
            match field(&l, "event") {
                Some(e) if e == want => return Ok(l),
                Some("error") => self.errors.push(l),
                _ => {}
            }
        }
    }

    fn submit(&mut self, line: &str) -> Result<Reply, String> {
        let sent = Instant::now();
        self.send(line)?;
        let mut accepted = None;
        loop {
            let l = self.read()?;
            match field(&l, "event") {
                Some("accepted") => accepted = Some(Instant::now()),
                Some("result") => {
                    return Ok(Reply {
                        sent,
                        accepted,
                        done: Instant::now(),
                        result: Some(l),
                    })
                }
                Some("error") => {
                    self.errors.push(l);
                    return Ok(Reply {
                        sent,
                        accepted,
                        done: Instant::now(),
                        result: None,
                    });
                }
                _ => {}
            }
        }
    }
}

fn check_result(r: &Reply, p: &Prog, want_cached: bool) -> Option<String> {
    let Some(line) = &r.result else {
        return Some(format!("seed {}: no result line", p.program.seed));
    };
    let got = (
        field(line, "outcome").unwrap_or(""),
        field(line, "final_cycle").and_then(|v| v.parse::<u64>().ok()),
        field(line, "digest")
            .and_then(|v| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok()),
        field(line, "cached") == Some("true"),
    );
    let want = (
        p.oracle.0.as_str(),
        Some(p.oracle.1),
        Some(p.oracle.2),
        want_cached,
    );
    (got != want).then(|| {
        format!(
            "seed {} {}: got {got:?}, want {want:?}",
            p.program.seed,
            p.kernel.label()
        )
    })
}

struct Round {
    traced: bool,
    setup: f64,
    wall: f64,
    hwm: u64,
}

/// Wire and in-process samples, pooled over rounds.
#[derive(Default)]
struct Samples {
    latency_ms: Vec<f64>,
    admit_ms: Vec<f64>,
    hit_reply_ms: Vec<f64>,
    miss_reply_ms: Vec<f64>,
    parse_us: Vec<f64>,
    resolve_us: Vec<f64>,
    key_us: Vec<f64>,
    cache_get_us: Vec<f64>,
    snapshot_json_us: Vec<f64>,
    cache_insert_us: Vec<f64>,
    errors: u64,
    drops: u64,
    interrupted: u64,
    hit_ratio: f64,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

pub fn run(o: &Opts, rep: &mut Report, tr: &mut Tracer) {
    let Some(bin) = o.bgserve.clone() else {
        rep.check(Some(
            "serve needs --bgserve <path to the bgserve binary>".to_string(),
        ));
        return;
    };
    let n_loop = if o.smoke { SMOKE_LOOP } else { LOOP };
    let base = job_seed(PROGRAM_SEED, o.seed);

    // Programs and their in-process oracle runs, outside the timed rounds.
    let n_miss = n_loop / 10;
    let mut progs = Vec::new();
    let mut miss_sim_ms = Vec::new();
    let (mut miss_t, mut miss_c) = (Phases::default(), Counters::default());
    tr.set(o.trace);
    for i in 0..HOT + n_miss {
        let seed = base.wrapping_add(i as u64);
        let kernel = if i % 2 == 0 { Kern::Cnk } else { Kern::Fwk };
        let program = generate(seed);
        let t0 = Instant::now();
        let out = match simulate(tr, i as u64, kernel, &program) {
            Ok(out) => out,
            Err(e) => {
                rep.check(Some(format!("in-process run of seed {seed}: {e}")));
                return;
            }
        };
        if i >= HOT {
            miss_sim_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            miss_t.add(&out.t);
            miss_c.add(&out);
        }
        progs.push(Prog {
            line: submit_line(kernel, &program),
            oracle: out.triple,
            profile: out.profile,
            coverage: out.coverage,
            kernel,
            program,
        });
    }
    let mut plan: Vec<Planned> = (0..HOT)
        .map(|i| Planned {
            prog: i,
            cached: false,
        })
        .collect();
    let (mut hot, mut miss) = (0, HOT);
    for i in 0..n_loop {
        if i % 10 == 9 {
            plan.push(Planned {
                prog: miss,
                cached: false,
            });
            miss += 1;
        } else {
            plan.push(Planned {
                prog: hot % HOT,
                cached: true,
            });
            hot += 1;
        }
    }
    if o.tamper_plan {
        plan[HOT].cached = !plan[HOT].cached;
    }
    let planned_hits = plan.iter().filter(|p| p.cached).count();

    let dir = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        rep.check(Some(format!("creating {}: {e}", dir.display())));
        return;
    }
    let sock = dir.join(format!("serve-{}.sock", std::process::id()));
    let min_rounds = if o.smoke { 2 } else { 3 };
    let mut rounds: Vec<Round> = Vec::new();
    let mut s = Samples::default();
    let awake = KeepAwake::start();
    let start = Instant::now();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < o.seconds {
        let r = rounds.len();
        let traced = o.trace && r % 2 == 1;
        tr.set(traced);
        match server_round(tr, &bin, &sock, r, &progs, &plan, &mut s, rep) {
            Ok(mut round) => {
                round.traced = traced;
                rep.lines.push(format!(
                    "[serve] round {r}{}: setup {:.4} s, loop {:.4} s, server VmHWM {} bytes",
                    if traced { " (traced)" } else { "" },
                    round.setup,
                    round.wall,
                    round.hwm
                ));
                if round.hwm == 0 {
                    rep.check(Some("server VmHWM unreadable".to_string()));
                }
                rounds.push(round);
            }
            Err(e) => {
                rep.check(Some(format!("round {r}: {e}")));
                break;
            }
        }
        if traced {
            in_process_round(&progs, &plan, &mut s);
        }
    }
    drop(awake);
    tr.set(false);
    if rounds.is_empty() {
        return;
    }

    let col = |f: &dyn Fn(&Round) -> f64, traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(f)
            .collect()
    };
    let n = rounds.len();
    if !o.trace {
        let note = format!("median of {n} rounds (fresh server each)");
        rep.set(
            "setup_s",
            median(&col(&|r| r.setup, false)),
            format!("start..ping + {HOT}-program priming, {note}"),
        );
        rep.set(
            "wall_s",
            median(&col(&|r| r.wall, false)),
            format!("closed loop of {n_loop} submissions, {note}"),
        );
        rep.set(
            "peak_rss_bytes",
            median(&col(&|r| r.hwm as f64, false)),
            format!("server VmHWM, {note}"),
        );
        let l = &s.latency_ms;
        rep.set(
            "latency_p50_ms",
            percentile(l, 0.5),
            format!("submit..result, n={}", l.len()),
        );
        rep.set(
            "latency_p99_ms",
            percentile(l, 0.99),
            format!(
                "submit..result, n={}, {} beyond",
                l.len(),
                beyond(l.len(), 0.99)
            ),
        );
        rep.set(
            "jobs_per_s",
            median(&col(&|r| n_loop as f64 / r.wall, false)),
            note,
        );
        return;
    }
    let pct = |v: &[f64], name: &str, rep: &mut Report| {
        let note = |q: f64| format!("all rounds, n={}, {} beyond", v.len(), beyond(v.len(), q));
        rep.set(&format!("{name}.p50"), percentile(v, 0.5), note(0.5));
        rep.set(&format!("{name}.p99"), percentile(v, 0.99), note(0.99));
    };
    pct(&s.admit_ms, "bgserve.admit_ms", rep);
    pct(&s.hit_reply_ms, "bgserve.hit_reply_ms", rep);
    pct(&s.miss_reply_ms, "bgserve.miss_reply_ms", rep);
    let us = |v: &[f64]| format!("median per call, n={} in-process", v.len());
    rep.set("bgserve.parse_us", median(&s.parse_us), us(&s.parse_us));
    rep.set(
        "bgserve.resolve_us",
        median(&s.resolve_us),
        us(&s.resolve_us),
    );
    rep.set("bgserve.key_us", median(&s.key_us), us(&s.key_us));
    rep.set(
        "bgserve.cache_get_us",
        median(&s.cache_get_us),
        us(&s.cache_get_us),
    );
    rep.set(
        "bgserve.snapshot_json_us",
        median(&s.snapshot_json_us),
        us(&s.snapshot_json_us),
    );
    rep.set(
        "bgserve.cache_insert_us",
        median(&s.cache_insert_us),
        us(&s.cache_insert_us),
    );
    let sim_p50 = median(&miss_sim_ms);
    rep.set(
        "bgcheck.simulate_ms",
        sim_p50,
        format!("median in-process run of the {n_miss} miss programs"),
    );
    rep.set(
        "bgserve.miss_wait_ms",
        percentile(&s.miss_reply_ms, 0.5) - sim_p50,
        "miss_reply p50 - simulate p50",
    );
    rep.set(
        "bgserve.hit_ratio",
        s.hit_ratio,
        format!(
            "status hits / (hits + misses); plan {planned_hits}/{}",
            plan.len()
        ),
    );
    rep.set(
        "bgserve.errors",
        s.errors as f64,
        format!("error lines over {n} rounds"),
    );
    rep.set(
        "bgserve.session_drops",
        s.drops as f64,
        format!("status, summed over {n} rounds"),
    );
    rep.set(
        "bgserve.interrupted",
        s.interrupted as f64,
        format!("cancelled + timeouts over {n} rounds"),
    );
    let basis = format!("the {n_miss} miss programs of one round, in-process");
    rep.set("bgsim.new_s", miss_t.new, basis.clone());
    rep.set("bgsim.boot_s", miss_t.boot, basis.clone());
    rep.set("bgsim.launch_s", miss_t.launch, basis.clone());
    rep.set("bgsim.run_s", miss_t.run, basis.clone());
    rep.set("bgsim.readout_s", miss_t.readout, basis.clone());
    crate::layers::sim_counters(rep, &miss_c, miss_t.run, &basis);
    crate::layers::overhead(
        rep,
        median(&col(&|r| r.wall, true)),
        median(&col(&|r| r.wall, false)),
    );
}

/// One fresh server: start, ping, prime, closed loop, status, shutdown.
#[allow(clippy::too_many_arguments)]
fn server_round(
    tr: &mut Tracer,
    bin: &Path,
    sock: &Path,
    r: usize,
    progs: &[Prog],
    plan: &[Planned],
    s: &mut Samples,
    rep: &mut Report,
) -> Result<Round, String> {
    let rs = tr.begin("serve.round", "", r as u64);
    let _ = std::fs::remove_file(sock);
    let t0 = Instant::now();
    let sp = tr.begin("bgserve.start", "", r as u64);
    let child = Command::new(bin)
        .args(["serve", "--listen", &format!("unix:{}", sock.display())])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting {}: {e}", bin.display()))?;
    let mut server = Server {
        child,
        sock: sock.to_path_buf(),
    };
    let mut sess = Session::connect(sock, t0 + Duration::from_secs(30))?;
    sess.request("{\"op\":\"ping\"}", "pong")?;
    tr.end(sp);

    let sp = tr.begin("bgserve.prime", "", r as u64);
    for (i, p) in plan[..HOT].iter().enumerate() {
        let id = (r * plan.len() + i) as u64;
        let sub = tr.begin("bgserve.submit", "prime", id);
        let reply = sess.submit(&progs[p.prog].line)?;
        if let Some(acc) = reply.accepted {
            tr.record("bgserve.admit", id, reply.sent, acc);
            tr.record("bgserve.miss_reply", id, acc, reply.done);
        }
        tr.end(sub);
        rep.check(check_result(&reply, &progs[p.prog], p.cached));
    }
    tr.end(sp);
    let setup = t0.elapsed().as_secs_f64();

    let sp = tr.begin("bgserve.loop", "", r as u64);
    let t1 = Instant::now();
    for (i, p) in plan[HOT..].iter().enumerate() {
        let id = (r * plan.len() + HOT + i) as u64;
        let sub = tr.begin("bgserve.submit", if p.cached { "hit" } else { "miss" }, id);
        let reply = sess.submit(&progs[p.prog].line)?;
        s.latency_ms.push(ms(reply.sent, reply.done));
        if let Some(acc) = reply.accepted {
            s.admit_ms.push(ms(reply.sent, acc));
            let reply_ms = ms(acc, reply.done);
            if p.cached {
                s.hit_reply_ms.push(reply_ms);
            } else {
                s.miss_reply_ms.push(reply_ms);
            }
            tr.record("bgserve.admit", id, reply.sent, acc);
            tr.record(
                if p.cached {
                    "bgserve.hit_reply"
                } else {
                    "bgserve.miss_reply"
                },
                id,
                acc,
                reply.done,
            );
        }
        tr.end(sub);
        rep.check(check_result(&reply, &progs[p.prog], p.cached));
    }
    let wall = t1.elapsed().as_secs_f64();
    tr.end(sp);

    let sp = tr.begin("bgserve.status", "", r as u64);
    let status = sess.request("{\"op\":\"status\"}", "status")?;
    let hwm = vm_hwm(&server.pid());
    tr.end(sp);
    let num = |k: &str| {
        field(&status, k)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(u64::MAX)
    };
    let (hits, misses) = (num("cache_hits"), num("cache_misses"));
    let want_hits = plan.iter().filter(|p| p.cached).count() as u64;
    let want_misses = plan.len() as u64 - want_hits;
    let interrupted = num("cancelled").saturating_add(num("timeouts"));
    let drops = num("session_drops");
    s.hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    s.drops += drops;
    s.interrupted += interrupted;
    s.errors += sess.errors.len() as u64;
    let got = (hits, misses, drops, interrupted, sess.errors.len());
    rep.check((got != (want_hits, want_misses, 0, 0, 0)).then(|| {
        format!(
            "round {r} status (hits, misses, drops, interrupted, errors) = {got:?}, \
             plan ({want_hits}, {want_misses}, 0, 0, 0); errors: {:?}",
            sess.errors
        )
    }));

    let sp = tr.begin("bgserve.shutdown", "", r as u64);
    sess.request("{\"op\":\"shutdown\"}", "shutting-down")?;
    drop(sess);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match server.child.try_wait() {
            Ok(Some(st)) if st.success() => break,
            Ok(Some(st)) => return Err(format!("server exited with {st}")),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            Ok(None) => return Err("server did not stop after shutdown".to_string()),
            Err(e) => return Err(e.to_string()),
        }
    }
    drop(server);
    tr.end(sp);
    tr.end(rs);
    Ok(Round {
        traced: false,
        setup,
        wall,
        hwm,
    })
}

/// The front end and cache layers in-process, timed per call on this
/// round's request sequence: `proto::parse_request`, `to_program`,
/// `JobKey`, and a `ResultCache` at the server's default capacity.
fn in_process_round(progs: &[Prog], plan: &[Planned], s: &mut Samples) {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let mut cache = ResultCache::new(256, None);
    for (job, p) in plan.iter().enumerate() {
        let prog = &progs[p.prog];
        let t = Instant::now();
        let req = parse_request(&prog.line);
        s.parse_us.push(us(t));
        let Ok(Request::Submit(req)) = req else {
            continue;
        };
        let t = Instant::now();
        let program = req.to_program();
        s.resolve_us.push(us(t));
        let Ok(program) = program else { continue };
        let t = Instant::now();
        let key = JobKey::of(check_kernel(prog.kernel), &program);
        let (kd, hex) = (key.digest(), key.hex());
        s.key_us.push(us(t));
        std::hint::black_box(hex);
        let t = Instant::now();
        let hit = cache.get(kd);
        let get_us = us(t);
        match hit {
            Some(entry) => {
                s.cache_get_us.push(get_us);
                if let Some(profile) = &entry.profile {
                    let t = Instant::now();
                    let json = bench::monitor::snapshot_json("bgserve", job as u64, 1, 1, profile);
                    s.snapshot_json_us.push(us(t));
                    std::hint::black_box(json);
                }
            }
            None => {
                let entry = CachedResult {
                    kernel: prog.kernel.label().to_string(),
                    mode: String::new(),
                    outcome: prog.oracle.0.clone(),
                    final_cycle: prog.oracle.1,
                    digest: prog.oracle.2,
                    coverage: prog.coverage,
                    profile: Some(prog.profile.clone()),
                };
                let t = Instant::now();
                cache.insert(kd, entry);
                s.cache_insert_us.push(us(t));
            }
        }
    }
}
