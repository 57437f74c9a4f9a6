//! End-to-end service tests over real sockets: cache-hit identity,
//! paranoid verification, mode-neutral cache sharing, LRU eviction,
//! TCP endpoints, protocol-error recovery, the request- and reply-line
//! caps, reply and monitor lines that do not grow with the node count,
//! the live monitor file and its state tree, disk-tier write failures, and
//! the live-job paths (cancellation, cycle/wall timeouts, progress
//! streaming, disconnect auto-cancel, run slots that never hold a short
//! miss behind a long job, one run slot serving a run of misses).

use std::path::PathBuf;

use bgcheck::program::{generate, POp, Program};
use bgcheck::runner::{run_mode, CheckKernel, MODES};
use bgserve::proto::LiveReq;
use bgserve::server::{spawn, Endpoint, ServeOpts};
use bgserve::Client;

fn sock(tag: &str) -> Endpoint {
    let p = std::env::temp_dir().join(format!("bgserve-test-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    Endpoint::Unix(p)
}

fn small_program(seed: u64) -> Program {
    Program {
        nodes: 2,
        seed,
        ops: vec![
            POp::Compute { cycles: 5_000 },
            POp::Gettid,
            POp::Allreduce { bytes: 16 },
        ],
        faults: Default::default(),
    }
}

#[test]
fn pinned_seed_job_twice_is_bit_identical_and_cached() {
    let ep = sock("twice");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2;
    opts.paranoid = true;
    let handle = spawn(opts).expect("spawn");

    let p = small_program(0x2026);
    let mut c = Client::connect(&ep).expect("connect");
    let first = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("first");
    assert!(!first.cached, "first submission must be a fresh run");
    assert_eq!(first.paranoid, "off");
    assert!(
        !first.telemetry.is_empty(),
        "fresh runs must stream a telemetry snapshot"
    );

    let second = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("second");
    assert!(second.cached, "second submission must be a cache hit");
    assert_eq!(second.paranoid, "ok", "paranoid re-run must confirm");
    assert_eq!(
        second.triple(),
        first.triple(),
        "triples must be bit-identical"
    );
    assert_eq!(second.key, first.key);
    assert!(second.warnings.is_empty());

    // The service answer matches the in-process oracle exactly.
    let oracle = run_mode(&p, CheckKernel::Cnk, MODES[0]).expect("oracle");
    assert_eq!(first.triple(), oracle.triple());

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn concurrent_sessions_match_sequential_oneshots() {
    let ep = sock("concurrent");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 4;
    let handle = spawn(opts).expect("spawn");

    let programs: Vec<Program> = (0..4).map(|i| generate(7000 + i)).collect();
    let oracle: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            run_mode(p, CheckKernel::ALL[i % 2], MODES[0])
                .expect("oracle")
                .triple()
        })
        .collect();

    // Four sessions at once, one job each.
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let ep = &ep;
                s.spawn(move || {
                    let mut c = Client::connect(ep).expect("connect");
                    c.submit(CheckKernel::ALL[i % 2], MODES[0], p)
                        .expect("submit")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.triple(),
            oracle[i],
            "concurrent session {i} diverged from its one-shot equivalent"
        );
    }

    let mut c = Client::connect(&ep).expect("connect");
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn digest_neutral_modes_share_one_cache_entry() {
    let ep = sock("modes");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2;
    opts.paranoid = true;
    let handle = spawn(opts).expect("spawn");

    let p = small_program(0xAB);
    let mut c = Client::connect(&ep).expect("connect");
    let fast = c.submit(CheckKernel::Fwk, MODES[0], &p).expect("fast");
    assert!(!fast.cached);
    // A reference heap-path run of the same job: different execution
    // mode, same key — answered from the cache, paranoid-verified by a
    // fresh run *in the requested mode*.
    let heap = c.submit(CheckKernel::Fwk, MODES[1], &p).expect("heap");
    assert!(
        heap.cached,
        "digest-neutral mode must share the cache entry"
    );
    assert_eq!(heap.paranoid, "ok");
    assert_eq!(heap.triple(), fast.triple());
    assert_eq!(heap.key, fast.key);
    // A different kernel is a different job.
    let cnk = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("cnk");
    assert!(!cnk.cached);
    assert_ne!(cnk.key, fast.key);

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn lru_eviction_forces_a_fresh_run() {
    let ep = sock("lru");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    opts.cache_cap = 1;
    let handle = spawn(opts).expect("spawn");

    let a = small_program(1);
    let b = small_program(2);
    let mut c = Client::connect(&ep).expect("connect");
    let a1 = c.submit(CheckKernel::Cnk, MODES[0], &a).expect("a1");
    let _b1 = c.submit(CheckKernel::Cnk, MODES[0], &b).expect("b1"); // evicts a
    let a2 = c.submit(CheckKernel::Cnk, MODES[0], &a).expect("a2");
    assert!(!a2.cached, "evicted entry must re-run");
    assert_eq!(a2.triple(), a1.triple(), "re-run must still be identical");

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn tcp_endpoint_serves_the_same_protocol() {
    // Port 0: the OS picks a free port; rebuild the endpoint from it.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
    let addr = probe.local_addr().expect("addr");
    drop(probe);
    let ep = Endpoint::Tcp(addr.to_string());
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    let mut c = Client::connect(&ep).expect("connect");
    assert_eq!(c.ping().expect("ping"), bgserve::proto::PROTO_VERSION);
    let r = c
        .submit(CheckKernel::Cnk, MODES[0], &small_program(3))
        .expect("submit");
    assert_eq!(r.outcome, "completed");
    let status = c.status().expect("status");
    assert_eq!(status.path_num(&["submitted"]), Some(1.0));
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn protocol_errors_do_not_poison_the_session() {
    let ep = sock("proto-errors");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    // Drive the raw protocol: garbage, a line nested far past the
    // parser's depth cap (and far under the line cap), an op name of
    // 500 000 backslashes (quoted in full, its error would be twice the
    // line cap), then a bad submit, then a good ping — all on one
    // connection.
    use std::io::{BufRead, BufReader, Write};
    let stream = ep.connect().expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    let deep = "[".repeat(100_000);
    let backslashes = format!("{{\"op\":\"{}\"}}", "\\\\".repeat(500_000));
    for (req, want) in [
        ("{torn", "error"),
        (deep.as_str(), "error"),
        (backslashes.as_str(), "error"),
        ("{\"op\":\"warp\"}", "error"),
        (
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"nodes\":2,\"seed\":1,\"ops\":[[\"no-such\"]]}",
            "error",
        ),
        ("{\"op\":\"ping\"}", "pong"),
    ] {
        writeln!(w, "{req}").expect("write");
        w.flush().expect("flush");
        line.clear();
        r.read_line(&mut line).expect("read");
        assert!(
            line.len() <= bgserve::proto::MAX_LINE,
            "{}-byte reply to request {}",
            line.len(),
            bench::json::quote_head(req)
        );
        let v = bench::json::parse(line.trim()).expect("parse");
        assert_eq!(
            v.get("event").and_then(|e| e.str()),
            Some(want),
            "request {}",
            bench::json::quote_head(req)
        );
        if req == deep {
            let detail = v.get("detail").and_then(|d| d.str()).unwrap_or("");
            let limit = format!("{} levels", bench::json::MAX_DEPTH);
            assert!(
                detail.contains(&limit),
                "error must name the limit: {detail}"
            );
        }
    }
    // A new session is served too.
    let mut c = Client::connect(&ep).expect("connect");
    assert_eq!(c.ping().expect("ping"), bgserve::proto::PROTO_VERSION);
    drop(c);
    writeln!(w, "{{\"op\":\"shutdown\"}}").expect("write");
    w.flush().expect("flush");
    line.clear();
    r.read_line(&mut line).expect("read");
    drop((r, w));
    handle.join().expect("join");
}

#[test]
fn monitor_stream_is_tailable_while_serving() {
    let ep = sock("monitor");
    let mon_path: PathBuf =
        std::env::temp_dir().join(format!("bgserve-test-{}-monitor.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&mon_path);
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2;
    opts.monitor =
        Some(bench::monitor::Monitor::create(&mon_path, "bgserve", true).expect("monitor"));
    let handle = spawn(opts).expect("spawn");

    let mut c = Client::connect(&ep).expect("connect");
    for seed in 0..3 {
        c.submit(CheckKernel::Cnk, MODES[0], &small_program(seed))
            .expect("submit");
    }
    let text = std::fs::read_to_string(&mon_path).expect("read monitor");
    let snap = bench::monitor::last_snapshot(&text).expect("snapshot");
    assert_eq!(snap.path_num(&["done"]), Some(3.0));
    assert_eq!(snap.path_num(&["total"]), Some(3.0));
    assert_eq!(snap.get("bench").and_then(|b| b.str()), Some("bgserve"));
    assert_eq!(bench::monitor::malformed_snapshots(&text), 0);
    // The snapshot renders through the bgtop path without panicking.
    let frame = bench::monitor::render_snapshot(&snap);
    assert!(frame.contains("bgserve"), "{frame}");

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
    let _ = std::fs::remove_file(&mon_path);
}

/// Replies and monitor lines carry machine-wide totals, not a record per
/// node, so a 1 024-node job's `telemetry` line, and every monitor line
/// including those of a 2-node job after it, stay under 4 KiB.
#[test]
fn reply_and_monitor_lines_do_not_grow_with_the_node_count() {
    use std::io::{BufRead, BufReader, Write};
    const BOUND: usize = 4 << 10;
    let ep = sock("bounded");
    let mon_path: PathBuf =
        std::env::temp_dir().join(format!("bgserve-test-{}-bounded.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&mon_path);
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    opts.monitor =
        Some(bench::monitor::Monitor::create(&mon_path, "bgserve", true).expect("monitor"));
    let handle = spawn(opts).expect("spawn");

    let stream = ep.connect().expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    for nodes in [1024, 2] {
        let p = Program {
            nodes,
            ..small_program(u64::from(nodes))
        };
        let req = bgserve::proto::submit_line(CheckKernel::Cnk, MODES[0], &p, LiveReq::default());
        writeln!(w, "{req}").expect("write");
        let mut telemetry = 0;
        loop {
            let mut line = String::new();
            r.read_line(&mut line).expect("read");
            let v = bench::json::parse(line.trim()).expect("parse");
            match v.get("event").and_then(|e| e.str()) {
                Some("accepted") => {}
                Some("telemetry") => {
                    telemetry += 1;
                    assert!(
                        line.len() < BOUND,
                        "{nodes}-node telemetry line: {} B",
                        line.len()
                    );
                }
                Some("result") => break,
                other => panic!("unexpected event {other:?}: {line:.200}"),
            }
        }
        assert_eq!(
            telemetry, 1,
            "a fresh {nodes}-node run streams one snapshot"
        );
    }
    let text = std::fs::read_to_string(&mon_path).expect("read monitor");
    assert!(text.lines().count() >= 2, "{text}");
    for l in text.lines() {
        assert!(l.len() < BOUND, "monitor line: {} B", l.len());
    }

    writeln!(w, "{{\"op\":\"shutdown\"}}").expect("write");
    let mut line = String::new();
    r.read_line(&mut line).expect("read");
    drop((r, w));
    handle.join().expect("join");
    let _ = std::fs::remove_file(&mon_path);
}

/// The client reads at most `MAX_LINE` + 1 bytes of a reply: a server
/// that sends a longer line gets an error naming the limit, and the
/// client never buffers the rest.
#[test]
fn client_refuses_a_reply_line_over_the_cap() {
    use std::io::{BufRead, BufReader, Write};
    let ep = sock("huge-reply");
    let Endpoint::Unix(path) = &ep else {
        unreachable!("sock() builds unix endpoints")
    };
    let listener = std::os::unix::net::UnixListener::bind(path).expect("bind");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut request = String::new();
        BufReader::new(&stream)
            .read_line(&mut request)
            .expect("read request");
        let mut reply = vec![b'a'; 4 << 20];
        reply.push(b'\n');
        // The client hangs up once it has read past its cap, so this
        // write fails partway.
        let _ = (&stream).write_all(&reply);
    });
    let mut c = Client::connect(&ep).expect("connect");
    let err = c.ping().expect_err("a 4 MiB reply line is refused");
    let limit = format!("{}-byte limit", bgserve::proto::MAX_LINE);
    assert!(err.contains(&limit), "error must name the limit: {err}");
    drop(c);
    server.join().expect("fake server");
    let _ = std::fs::remove_file(path);
}

/// A compute-heavy FWK job: the timer tick and daemons generate a
/// steady event stream, so the live hook gets
/// polled throughout the whole compute region (a pure-CNK compute op
/// would be one giant event with nothing to interrupt).
fn long_program(seed: u64, cycles: u64) -> Program {
    Program {
        nodes: 2,
        seed,
        ops: vec![POp::Compute { cycles }, POp::Allreduce { bytes: 16 }],
        faults: Default::default(),
    }
}

/// The fast-path mode the live tests run under (FWK noise
/// ticks are engine events in every mode).
const LIVE_MODE: usize = 0;

#[test]
fn cycle_timeout_is_deterministic_and_never_cached() {
    let ep = sock("cycle-timeout");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    let p = long_program(0x71AE, 1_000_000_000);
    let live = LiveReq {
        timeout_cycles: Some(200_000_000),
        ..Default::default()
    };
    let mut c = Client::connect(&ep).expect("connect");
    let t1 = c
        .submit_live(CheckKernel::Fwk, MODES[LIVE_MODE], &p, live)
        .expect("t1");
    assert_eq!(t1.outcome, "timeout");
    assert!(!t1.cached);
    assert!(
        t1.final_cycle >= 200_000_000,
        "stopped before the budget: {}",
        t1.final_cycle
    );

    // Same job, same budget: a truncated triple must never have been
    // memoized, and the cycle deadline is wall-clock-free, so the rerun
    // is bit-identical.
    let t2 = c
        .submit_live(CheckKernel::Fwk, MODES[LIVE_MODE], &p, live)
        .expect("t2");
    assert!(
        !t2.cached,
        "interrupted triple was memoized (poisoned cache)"
    );
    assert_eq!(
        t2.triple(),
        t1.triple(),
        "cycle timeouts must be deterministic"
    );

    // Without the budget the job completes, matches the oracle, and
    // only *that* triple enters the cache.
    let full = c
        .submit(CheckKernel::Fwk, MODES[LIVE_MODE], &p)
        .expect("full");
    assert_eq!(full.outcome, "completed");
    assert!(!full.cached);
    let oracle = run_mode(&p, CheckKernel::Fwk, MODES[LIVE_MODE]).expect("oracle");
    assert_eq!(full.triple(), oracle.triple());
    let replay = c
        .submit(CheckKernel::Fwk, MODES[LIVE_MODE], &p)
        .expect("replay");
    assert!(replay.cached);

    let status = c.status().expect("status");
    assert_eq!(status.path_num(&["timeouts"]), Some(2.0));
    assert_eq!(status.path_num(&["cancelled"]), Some(0.0));
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn wall_timeout_interrupts_a_runaway_job() {
    let ep = sock("wall-timeout");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    // ~2e12 cycles would run for minutes; the 50 ms wall budget stops
    // it almost immediately.
    let p = long_program(0x7A11, 2_000_000_000_000);
    let live = LiveReq {
        timeout_wall_ms: Some(50),
        ..Default::default()
    };
    let mut c = Client::connect(&ep).expect("connect");
    let r = c
        .submit_live(CheckKernel::Fwk, MODES[LIVE_MODE], &p, live)
        .expect("submit");
    assert_eq!(r.outcome, "timeout");
    assert!(!r.cached);
    assert!(r.final_cycle > 0, "must have simulated something first");

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn cancel_before_wave_skips_the_run_entirely() {
    let ep = sock("cancel-queued");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1; // single-slot pool: job A saturates it
    let handle = spawn(opts).expect("spawn");

    std::thread::scope(|s| {
        // Job 1: long enough to hold the only pool slot, with a wall
        // backstop so the test always terminates.
        let ep_a = ep.clone();
        let a = s.spawn(move || {
            let mut c = Client::connect(&ep_a).expect("connect a");
            c.submit_live(
                CheckKernel::Fwk,
                MODES[LIVE_MODE],
                &long_program(0xA, 1_000_000_000_000),
                LiveReq {
                    timeout_wall_ms: Some(500),
                    ..Default::default()
                },
            )
            .expect("submit a")
        });
        std::thread::sleep(std::time::Duration::from_millis(150));

        // Job 2: queued behind job 1, cancelled while it waits.
        let ep_b = ep.clone();
        let b = s.spawn(move || {
            let mut c = Client::connect(&ep_b).expect("connect b");
            c.submit(
                CheckKernel::Fwk,
                MODES[LIVE_MODE],
                &long_program(0xB, 1_000_000_000),
            )
            .expect("submit b")
        });

        let mut c3 = Client::connect(&ep).expect("connect c3");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            if c3.cancel(2).expect("cancel") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "job 2 never became cancellable"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        let ra = a.join().expect("join a");
        assert_eq!(ra.outcome, "timeout", "job 1 ends on its wall backstop");
        let rb = b.join().expect("join b");
        assert_eq!(rb.outcome, "cancelled");
        assert_eq!(
            (rb.final_cycle, rb.digest),
            (0, 0),
            "a job cancelled before its wave must never simulate a cycle"
        );
        assert!(!rb.cached);

        let status = c3.status().expect("status");
        assert_eq!(status.path_num(&["cancelled"]), Some(1.0));
        assert_eq!(status.path_num(&["timeouts"]), Some(1.0));
        c3.shutdown().expect("shutdown");
    });
    handle.join().expect("join");
}

#[test]
fn a_short_miss_never_waits_behind_a_long_job() {
    let ep = sock("head-of-line");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2; // one slot for the long job, one free
    let handle = spawn(opts).expect("spawn");

    let ((ra, a_done), (rb, b_done)) = std::thread::scope(|s| {
        let ep_a = ep.clone();
        let a = s.spawn(move || {
            let mut c = Client::connect(&ep_a).expect("connect a");
            let r = c
                .submit_live(
                    CheckKernel::Fwk,
                    MODES[LIVE_MODE],
                    // Long enough that no build, debug or release,
                    // finishes it inside the 3 s wall backstop.
                    &long_program(0x40A, 1_000_000_000_000_000),
                    LiveReq {
                        timeout_wall_ms: Some(3000),
                        ..Default::default()
                    },
                )
                .expect("submit a");
            (r, std::time::Instant::now())
        });
        std::thread::sleep(std::time::Duration::from_millis(150));

        let mut c = Client::connect(&ep).expect("connect b");
        let rb = c
            .submit(CheckKernel::Cnk, MODES[0], &small_program(0x40B))
            .expect("submit b");
        let b_done = std::time::Instant::now();
        (a.join().expect("join a"), (rb, b_done))
    });
    assert_eq!(
        ra.outcome, "timeout",
        "the long job ends on its wall backstop"
    );
    assert_eq!(rb.outcome, "completed");
    assert!(!rb.cached, "the short job is a miss: it must simulate");
    assert!(
        b_done < a_done,
        "the short miss was answered only after the long job ended, though a slot was free"
    );

    let mut c = Client::connect(&ep).expect("connect");
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn cancelling_a_paranoid_verification_frees_its_slot() {
    let ep = sock("paranoid-cancel");
    let mut opts = ServeOpts::new(ep.clone());
    opts.paranoid = true;
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");
    let long = long_program(0x9A7, 120_000_000_000);

    // Job 1 caches the long job; a full run of it takes `full`.
    let mut c = Client::connect(&ep).expect("connect");
    let t0 = std::time::Instant::now();
    let first = c
        .submit(CheckKernel::Fwk, MODES[LIVE_MODE], &long)
        .expect("first");
    let full = t0.elapsed();
    assert_eq!(first.outcome, "completed");

    std::thread::scope(|s| {
        // Job 2 is a hit held for its paranoid re-run on the only slot.
        let ep_a = ep.clone();
        let long_a = long.clone();
        let a = s.spawn(move || {
            let mut c = Client::connect(&ep_a).expect("connect a");
            c.submit(CheckKernel::Fwk, MODES[LIVE_MODE], &long_a)
                .expect("resubmit")
        });
        let mut c2 = Client::connect(&ep).expect("connect c2");
        let deadline = t0 + full + std::time::Duration::from_secs(30);
        while !c2.cancel(2).expect("cancel") {
            assert!(
                std::time::Instant::now() < deadline,
                "job 2 never became cancellable"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let cancelled_at = std::time::Instant::now();
        let short = c2
            .submit(CheckKernel::Cnk, MODES[0], &small_program(0x9A8))
            .expect("short");
        let waited = cancelled_at.elapsed();
        assert_eq!(short.outcome, "completed");
        assert!(!short.cached, "the short job is a miss: it must simulate");
        assert!(
            waited < full / 2,
            "the short miss waited {waited:?} behind a cancelled verification \
             (a full run takes {full:?})"
        );

        let ra = a.join().expect("join a");
        assert_eq!(ra.outcome, "cancelled");
        assert!(!ra.cached);
        assert_eq!(ra.paranoid, "off");
        assert!(
            ra.warnings.is_empty(),
            "no mismatch line: {:?}",
            ra.warnings
        );
        let status = c2.status().expect("status");
        assert_eq!(status.path_num(&["cancelled"]), Some(1.0));
        assert_eq!(status.path_num(&["paranoid_failures"]), Some(0.0));
        c2.shutdown().expect("shutdown");
    });
    drop(c);
    handle.join().expect("join");
}

#[test]
fn overlong_request_line_closes_only_that_session() {
    use std::io::{BufRead, BufReader, ErrorKind, Write};
    let ep = sock("overlong");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    let Endpoint::Unix(path) = &ep else {
        unreachable!("sock() builds unix endpoints")
    };
    let stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout");
    let mut w = stream.try_clone().expect("clone");
    // 2 MiB with no newline. The server stops reading at its 1 MiB cap,
    // so this write blocks until the session closes and then fails.
    let writer = std::thread::spawn(move || {
        let _ = w.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => {}
        Ok(_) => {
            let v = bench::json::parse(line.trim()).expect("parse");
            assert_eq!(v.get("event").and_then(|e| e.str()), Some("error"));
            let detail = v.get("detail").and_then(|d| d.str()).unwrap_or("");
            assert!(
                detail.contains("1048576"),
                "error must name the limit: {detail}"
            );
            line.clear();
            match r.read_line(&mut line) {
                Ok(0) => {}
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
                other => panic!("the session stayed open: {other:?} {line:?}"),
            }
        }
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{e}"),
    }
    writer.join().expect("writer");
    drop(r);

    let mut c = Client::connect(&ep).expect("connect");
    assert_eq!(c.ping().expect("ping"), bgserve::proto::PROTO_VERSION);
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn cancel_mid_run_stops_a_running_job() {
    let ep = sock("cancel-mid");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2;
    let handle = spawn(opts).expect("spawn");

    std::thread::scope(|s| {
        let ep_a = ep.clone();
        let a = s.spawn(move || {
            let mut c = Client::connect(&ep_a).expect("connect a");
            c.submit_live(
                CheckKernel::Fwk,
                MODES[LIVE_MODE],
                &long_program(0xC4, 1_000_000_000_000),
                LiveReq {
                    timeout_wall_ms: Some(20_000), // backstop only
                    ..Default::default()
                },
            )
            .expect("submit a")
        });
        // Let the run get well underway, then cancel it from a second
        // session by job id.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let mut c2 = Client::connect(&ep).expect("connect c2");
        assert!(c2.cancel(1).expect("cancel"), "job 1 must be in flight");

        let ra = a.join().expect("join a");
        assert_eq!(ra.outcome, "cancelled");
        assert!(
            ra.final_cycle > 0,
            "cancelled mid-run: the clock had advanced"
        );
        assert!(!ra.cached);

        // The session (and the server) keep working after the cancel.
        let follow = c2
            .submit(CheckKernel::Cnk, MODES[0], &small_program(0xF0))
            .expect("follow-up");
        assert_eq!(follow.outcome, "completed");
        let status = c2.status().expect("status");
        assert_eq!(status.path_num(&["cancelled"]), Some(1.0));
        c2.shutdown().expect("shutdown");
    });
    handle.join().expect("join");
}

#[test]
fn cancel_is_refused_for_a_finished_miss_a_hit_and_an_unknown_job() {
    // Only a job that may still be cancelled holds a token: a miss whose
    // answer is in, a hit answered inline and an id never handed out
    // each get `false`, and none of them counts as cancelled.
    let ep = sock("cancel-refused");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    let mut c = Client::connect(&ep).expect("connect");
    let p = small_program(0xCA7);
    let miss = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("miss");
    let hit = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("hit");
    assert!(!miss.cached && hit.cached);
    let cancelled = |c: &mut Client| c.status().expect("status").path_num(&["cancelled"]);
    assert_eq!(cancelled(&mut c), Some(0.0));
    for job in [miss.job, hit.job, 999] {
        assert!(
            !c.cancel(job).expect("cancel"),
            "job {job} is not in flight"
        );
    }
    assert_eq!(cancelled(&mut c), Some(0.0));
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

/// Read one reply line and return its event name.
fn next_event(r: &mut impl std::io::BufRead) -> String {
    let mut line = String::new();
    r.read_line(&mut line).expect("read");
    let v = bench::json::parse(line.trim()).expect("parse");
    v.get("event")
        .and_then(|e| e.str())
        .expect("event")
        .to_string()
}

/// Every state tree published to the monitor file so far.
fn published_trees(path: &std::path::Path) -> Vec<bench::json::Json> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|l| bench::json::parse(l).ok()?.get("state").cloned())
        .collect()
}

/// The phase a published tree shows for `session`'s job `job`.
fn job_phase(tree: &bench::json::Json, session: u64, job: u64) -> Option<&str> {
    let s = child(tree, &format!("sessions/{session}"))?;
    child(s, &format!("jobs/{job}"))?
        .get("values")?
        .get("phase")?
        .str()
}

#[test]
fn client_disconnect_auto_cancels_in_flight_jobs() {
    let ep = sock("disconnect");
    let mon_path: PathBuf = std::env::temp_dir().join(format!(
        "bgserve-test-{}-disconnect.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&mon_path);
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1; // job 2 queues behind job 1
    opts.monitor =
        Some(bench::monitor::Monitor::create(&mon_path, "bgserve", true).expect("monitor"));
    let handle = spawn(opts).expect("spawn");

    // Raw protocol on sessions/0: submit a huge job (with progress
    // streaming, so the server also has mid-run writes aimed at us) and
    // wait until it runs; queue a second job behind it on the only run
    // slot; read its `accepted`, then vanish.
    {
        use std::io::{BufReader, Write};
        let stream = ep.connect().expect("connect");
        let mut w = stream.try_clone().expect("clone");
        let mut r = BufReader::new(stream);
        let mut submit = |seed, progress_cycles| {
            let line = bgserve::proto::submit_line(
                CheckKernel::Fwk,
                MODES[LIVE_MODE],
                &long_program(seed, 1_000_000_000_000),
                LiveReq {
                    timeout_wall_ms: Some(20_000), // backstop only
                    progress_cycles,
                    ..Default::default()
                },
            );
            writeln!(w, "{line}").expect("write");
            w.flush().expect("flush");
        };
        submit(0xD15C, Some(50_000_000));
        assert_eq!(next_event(&mut r), "accepted");
        // Job 1 holds the run slot once it reports progress.
        assert_eq!(next_event(&mut r), "progress");
        submit(0xD15D, None);
        while next_event(&mut r) != "accepted" {}
    } // both halves drop here: the peer is gone

    // The server must notice, cancel both jobs (the running one and the
    // queued one) and count one session drop — well before the 20 s
    // wall backstop.
    let mut c2 = Client::connect(&ep).expect("connect c2");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
    loop {
        let status = c2.status().expect("status");
        let count = |k: &str| status.path_num(&[k]).unwrap_or(0.0);
        let got = [
            count("cancelled"),
            count("session_drops"),
            count("completed"),
        ];
        if got == [2.0, 1.0, 2.0] {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "disconnect never wound both jobs down: [cancelled, drops, completed] = {got:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // Each job published its end while its session's node still stood.
    let trees = published_trees(&mon_path);
    for job in [1, 2] {
        assert!(
            trees
                .iter()
                .any(|t| job_phase(t, 0, job) == Some("cancelled")),
            "no snapshot shows sessions/0 jobs/{job} cancelled"
        );
    }
    // And then the session's node went. Every submit publishes a
    // snapshot (a cache hit too), so resubmit until one shows it gone.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
    loop {
        c2.submit(CheckKernel::Cnk, MODES[0], &small_program(0xD15E))
            .expect("submit");
        let trees = published_trees(&mon_path);
        let last = trees.last().expect("a published tree");
        if child(last, "sessions/0").is_none() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the closed session's node never left the tree"
        );
    }
    c2.shutdown().expect("shutdown");
    drop(c2);
    handle.join().expect("join");
    let _ = std::fs::remove_file(&mon_path);
}

#[test]
fn one_run_slot_serves_a_sequence_of_misses() {
    // With one run slot, one parked steward runs every miss in turn.
    let ep = sock("steward-reuse");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    const K: u64 = 8;
    let mut c = Client::connect(&ep).expect("connect");
    for i in 0..K {
        let p = generate(0x57E0 + i);
        let kernel = CheckKernel::ALL[i as usize % 2];
        let r = c
            .submit(kernel, MODES[i as usize % MODES.len()], &p)
            .expect("submit");
        assert!(!r.cached, "job {} is a miss", r.job);
        let oracle = run_mode(&p, kernel, MODES[0]).expect("oracle");
        assert_eq!(
            r.triple(),
            oracle.triple(),
            "miss {i} diverged from its one-shot run"
        );
    }
    let status = c.status().expect("status");
    assert_eq!(status.path_num(&["cache_misses"]), Some(K as f64));
    assert_eq!(status.path_num(&["completed"]), Some(K as f64));
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn progress_streaming_is_digest_neutral_end_to_end() {
    let ep = sock("progress");
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    let handle = spawn(opts).expect("spawn");

    let p = long_program(0x9806, 1_000_000_000);
    let live = LiveReq {
        progress_cycles: Some(100_000_000),
        ..Default::default()
    };
    let mut c = Client::connect(&ep).expect("connect");
    let r = c
        .submit_live(CheckKernel::Fwk, MODES[LIVE_MODE], &p, live)
        .expect("submit");
    assert_eq!(r.outcome, "completed");
    assert!(
        r.progress.len() >= 2,
        "a 1e9-cycle run at a 1e8 interval must stream several reports, got {}",
        r.progress.len()
    );
    let mut last = 0u64;
    for ev in &r.progress {
        let cycle: u64 = ev
            .get("cycle")
            .and_then(|x| x.str())
            .and_then(|s| s.parse().ok())
            .expect("progress cycle");
        assert!(cycle > last, "progress cycles must be strictly increasing");
        last = cycle;
    }

    // The streamed run's triple matches a hook-free in-process run: the
    // progress hook is observability, not physics.
    let oracle = run_mode(&p, CheckKernel::Fwk, MODES[LIVE_MODE]).expect("oracle");
    assert_eq!(r.triple(), oracle.triple());

    // And a completed streamed run still lands in the cache.
    let replay = c
        .submit(CheckKernel::Fwk, MODES[LIVE_MODE], &p)
        .expect("replay");
    assert!(replay.cached);

    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
}

#[test]
fn persistent_cache_survives_a_server_restart() {
    let ep = sock("persist");
    let dir = std::env::temp_dir().join(format!("bgserve-test-{}-cache", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = small_program(0x5151);

    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    opts.cache_dir = Some(dir.clone());
    let handle = spawn(opts).expect("spawn");
    let mut c = Client::connect(&ep).expect("connect");
    let first = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("first");
    assert!(!first.cached);
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");

    // A brand-new server over the same cache dir answers from disk.
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    opts.cache_dir = Some(dir.clone());
    opts.paranoid = true;
    let handle = spawn(opts).expect("respawn");
    let mut c = Client::connect(&ep).expect("connect");
    let second = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("second");
    assert!(second.cached, "disk tier must survive the restart");
    assert_eq!(second.paranoid, "ok");
    assert_eq!(second.triple(), first.triple());
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_disk_tier_is_counted_and_served_from_memory() {
    let ep = sock("diskfail");
    // A regular file where the cache directory should be: every
    // disk-tier write fails.
    let file = std::env::temp_dir().join(format!("bgserve-test-{}-cachefile", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("write placeholder");
    let p = small_program(0x6161);

    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 1;
    opts.cache_dir = Some(file.clone());
    let handle = spawn(opts).expect("spawn");
    let mut c = Client::connect(&ep).expect("connect");
    let first = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("first");
    assert!(!first.cached);
    let second = c.submit(CheckKernel::Cnk, MODES[0], &p).expect("second");
    assert!(
        second.cached,
        "a failed disk write must still cache in memory"
    );
    assert_eq!(second.triple(), first.triple());
    let status = c.status().expect("status");
    assert_eq!(status.path_num(&["disk_write_errors"]), Some(1.0));
    assert_eq!(status.path_num(&["cache_entries"]), Some(1.0));
    c.shutdown().expect("shutdown");
    drop(c);
    handle.join().expect("join");
    assert_eq!(
        std::fs::read(&file).expect("placeholder survives"),
        b"not a directory"
    );
    let _ = std::fs::remove_file(&file);
}

/// One child of a rendered state-tree node.
fn child<'a>(node: &'a bench::json::Json, name: &str) -> Option<&'a bench::json::Json> {
    node.get("children")?.get(name)
}

/// Child names of one rendered state-tree node.
fn child_names(node: &bench::json::Json) -> Vec<String> {
    match node.get("children") {
        Some(bench::json::Json::Obj(kvs)) => kvs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

#[test]
fn state_tree_holds_only_live_sessions_and_in_flight_jobs() {
    let ep = sock("retention");
    let mon_path: PathBuf = std::env::temp_dir().join(format!(
        "bgserve-test-{}-retention.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&mon_path);
    let mut opts = ServeOpts::new(ep.clone());
    opts.threads = 2;
    opts.monitor =
        Some(bench::monitor::Monitor::create(&mon_path, "bgserve", true).expect("monitor"));
    let handle = spawn(opts).expect("spawn");

    // Six submissions over one session (sessions/0, jobs 1-6): three
    // misses, then the same three again as cache hits.
    let mut live = Client::connect(&ep).expect("connect");
    for i in 0..6u64 {
        let r = live
            .submit(CheckKernel::Cnk, MODES[0], &small_program(i % 3))
            .expect("submit");
        assert_eq!(r.cached, i >= 3, "job {}", r.job);
    }
    // Four one-shot sessions (sessions/1-4, jobs 7-10), each closed
    // once its answer is in.
    for i in 0..4u64 {
        let mut c = Client::connect(&ep).expect("connect one-shot");
        c.submit(CheckKernel::Cnk, MODES[0], &small_program(100 + i))
            .expect("one-shot");
    }

    // Job 11 runs on the live session; its progress reports publish a
    // snapshot every 200 ms while it runs. The one-shot readers exit on
    // their own threads, so read snapshots until one shows job 11
    // running beside nothing else, or the deadline passes.
    std::thread::scope(|s| {
        let run = s.spawn(move || {
            live.submit_live(
                CheckKernel::Fwk,
                MODES[LIVE_MODE],
                &long_program(0x7EE, 1_000_000_000_000),
                LiveReq {
                    timeout_wall_ms: Some(20_000), // backstop only
                    progress_cycles: Some(10_000_000),
                    ..Default::default()
                },
            )
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
        let tree = loop {
            let text = std::fs::read_to_string(&mon_path).unwrap_or_default();
            let tree = bench::monitor::last_snapshot(&text).and_then(|s| s.get("state").cloned());
            let settled = tree.as_ref().is_some_and(|t| {
                let s0 = child(t, "sessions/0");
                let phase = s0
                    .and_then(|s0| child(s0, "jobs/11"))
                    .and_then(|j| j.get("values")?.get("phase")?.str());
                phase == Some("running")
                    && child_names(t) == ["sessions/0"]
                    && s0.is_some_and(|s0| child_names(s0) == ["jobs/11"])
            });
            if settled || std::time::Instant::now() >= deadline {
                break tree.expect("no state tree published");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert_eq!(child_names(&tree), ["sessions/0"], "closed sessions linger");
        let s0 = child(&tree, "sessions/0").expect("live session");
        assert_eq!(child_names(s0), ["jobs/11"], "finished jobs linger");

        let mut c = Client::connect(&ep).expect("connect canceller");
        assert!(c.cancel(11).expect("cancel"), "job 11 must be in flight");
        let r = run.join().expect("join").expect("submit");
        assert_eq!(r.outcome, "cancelled");
        c.shutdown().expect("shutdown");
    });
    handle.join().expect("join");
    let _ = std::fs::remove_file(&mon_path);
}
