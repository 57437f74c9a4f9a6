//! Byte pins for every JSON producer: each wire line, a disk-cache
//! entry, a monitor snapshot with a state tree, a report with a
//! histogram registry and a Chrome trace, rendered from fixed inputs
//! and compared with the exact bytes they must keep. Text scanners
//! outside the workspace's own parser read these bytes
//! (`ci/serve_smoke.sh`, perfbench's `field()`), so a change of key
//! order, number format or escaping is a change of format, not of
//! style.

use bench::json::Writer;
use bench::monitor::Monitor;
use bench::report::{chrome_trace_json, Report};
use bgcheck::program::{POp, Program};
use bgcheck::runner::{CheckKernel, MODES};
use bgserve::cache::{CachedResult, ResultCache};
use bgserve::proto::{self, LiveReq, StatusSnapshot};
use bgsim::fault::{FaultEvent, FaultKind, FaultSchedule};
use bgsim::telemetry::{DomainStats, MetricsRegistry, Scope, Slot};
use bgsim::trace::{TraceEntry, TraceEvent, NO_CORE};
use bgsim::{Domain, ProfileSnapshot, Profiler, ProgressReport};

fn profile() -> ProfileSnapshot {
    let mut p = Profiler::standard(2);
    p.span(Domain::Torus, 250);
    p.span(Domain::Sched, 750);
    p.msg_enqueued(0, 2);
    p.snapshot()
}

fn result() -> CachedResult {
    CachedResult {
        kernel: "cnk".to_string(),
        mode: "fast".to_string(),
        outcome: "completed".to_string(),
        final_cycle: u64::MAX - 3,
        digest: 0x0123_4567_89ab_cdef,
        coverage: 0xfedc_ba98_7654_3210,
        profile: None,
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("json-pins-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn renders() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    out.push(("pong", proto::pong_line()));
    let status = StatusSnapshot {
        submitted: 1,
        completed: 2,
        cache_entries: 3,
        cache_hits: 4,
        cache_misses: 5,
        paranoid_checks: 6,
        paranoid_failures: 7,
        cancelled: 8,
        timeouts: 9,
        session_drops: 10,
        disk_write_errors: 11,
    };
    out.push(("status", proto::status_line(&status)));
    out.push(("accepted", proto::accepted_line(7, "00000000deadbeef")));
    out.push(("telemetry", proto::telemetry_line(7, &profile())));
    let mut heat = ProfileSnapshot::default();
    heat.domains[0] = DomainStats {
        events: 100,
        cycles: 200,
    };
    let report = ProgressReport {
        cycle: u64::MAX,
        events: 10,
        d_events: 2,
        d_cycles: 5,
        live_threads: 8,
        profile: heat,
    };
    out.push(("progress", proto::progress_line(3, &report)));
    out.push((
        "result",
        proto::result_line(7, &result(), true, "ok", "00000000deadbeef"),
    ));
    out.push(("cancel-ack", proto::cancel_ack_line(3, true)));
    out.push(("cancel-nak", proto::cancel_ack_line(4, false)));
    out.push((
        "error",
        proto::error_line("bad \"op\" at C:\\x\n\ttab\u{1}é"),
    ));
    let mut faults = FaultSchedule::default();
    faults.push(FaultEvent {
        at: 2_000_000,
        node: 1,
        kind: FaultKind::CollDrop,
        arg: 1_000_000,
    });
    faults.push(FaultEvent {
        at: u64::MAX - 9,
        node: 0,
        kind: FaultKind::TorusCorrupt,
        arg: 0,
    });
    let program = Program {
        nodes: 2,
        seed: u64::MAX - 1,
        ops: vec![
            POp::Compute { cycles: 9_000 },
            POp::Gettid,
            POp::Allreduce { bytes: 16 },
        ],
        faults,
    };
    let live = LiveReq {
        timeout_cycles: Some(5_000_000),
        timeout_wall_ms: Some(2_500),
        progress_cycles: Some(100_000),
    };
    out.push((
        "submit",
        proto::submit_line(CheckKernel::Fwk, MODES[1], &program, live),
    ));

    let dir = scratch("cache");
    let mut cache = ResultCache::new(4, Some(dir.clone()));
    cache.insert(0xabc, result());
    let entry = std::fs::read_to_string(dir.join("0000000000000abc.json")).expect("cache entry");
    out.push(("cache-entry", entry));
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("monitor");
    let path = dir.join("mon.jsonl");
    let tree = |w: &mut Writer| {
        w.obj().key("values").obj();
        w.key("endpoint").str("unix:/tmp/\"q\".sock").end_obj();
        w.key("children").obj().key("sessions/0").obj();
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
            .str("running")
            .end_obj();
        w.key("children").obj().end_obj().end_obj();
        w.end_obj().end_obj().end_obj().end_obj();
    };
    let mut m = Monitor::create(&path, "bgserve", false).expect("monitor");
    m.publish(1, 2, &profile(), Some(&tree));
    m.publish(2, 2, &profile(), None);
    out.push((
        "monitor",
        std::fs::read_to_string(&path).expect("monitor file"),
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut reg = MetricsRegistry::new(2, 2);
    let c = reg.counter("syscall.count", Scope::PerCore);
    let h = reg.histogram("noise.cycles", Scope::PerNode);
    let g = reg.gauge("engine.coalesced_ops", Scope::Machine);
    reg.add(c, Slot::Core(3), 9);
    reg.record(h, Slot::Node(1), 39);
    reg.record(h, Slot::Node(1), 700);
    reg.record(h, Slot::Node(1), 0);
    reg.set(g, Slot::Machine, 12);
    let mut r = Report::new("pins");
    r.scalar("linux.core0.max_delta", 38076.0)
        .scalar("cnk.mbs.512", 569.6956474310025)
        .scalar("bad", f64::NAN)
        .string("digest.cnk.512", "d9e11d160a9398a5")
        .string("we\"ird", "a\\b");
    r.registry("cnk", reg);
    r.registry("empty", MetricsRegistry::new(1, 1));
    out.push(("report", r.to_json()));
    out.push(("report-txt", r.to_stats_txt()));

    let events = [
        TraceEntry {
            at: 100,
            node: 0,
            core: 1,
            what: TraceEvent::OpStart {
                tid: 3,
                opname: "compute",
                cost: 500,
            },
        },
        TraceEntry {
            at: 950,
            node: 1,
            core: NO_CORE,
            what: TraceEvent::DaemonWake {
                name: "ss\"hd",
                src: 1,
                cost: 330,
            },
        },
    ];
    out.push(("trace", chrome_trace_json(&events)));
    out
}

/// What the producers rendered before they shared one writer.
const PINS: &[(&str, &str)] = &[
    ("pong", "{\"event\":\"pong\",\"proto\":1}"),
    ("status", "{\"event\":\"status\",\"proto\":1,\"submitted\":1,\"completed\":2,\"cache_entries\":3,\"cache_hits\":4,\"cache_misses\":5,\"disk_write_errors\":11,\"paranoid_checks\":6,\"paranoid_failures\":7,\"cancelled\":8,\"timeouts\":9,\"session_drops\":10}"),
    ("accepted", "{\"event\":\"accepted\",\"job\":7,\"key\":\"00000000deadbeef\"}"),
    ("telemetry", "{\"event\":\"telemetry\",\"job\":7,\"snapshot\":{\"schema_version\":3,\"bench\":\"bgserve\",\"seq\":7,\"done\":1,\"total\":1,\"profile\":{\"enabled\":true,\"domains\":{\"engine_heap\":{\"events\":0,\"cycles\":0},\"fast_path\":{\"events\":0,\"cycles\":0},\"torus\":{\"events\":1,\"cycles\":250},\"collective\":{\"events\":0,\"cycles\":0},\"sched\":{\"events\":1,\"cycles\":750},\"ciod\":{\"events\":0,\"cycles\":0},\"fault_ras\":{\"events\":0,\"cycles\":0}},\"heat\":{\"events\":2,\"cycles\":1000,\"messages\":1,\"peak_live_msgs\":0}}}}"),
    ("progress", "{\"event\":\"progress\",\"job\":3,\"cycle\":\"18446744073709551615\",\"events\":\"10\",\"d_cycles\":\"5\",\"d_events\":\"2\",\"live_threads\":8,\"heat_events\":\"100\",\"heat_cycles\":\"200\"}"),
    ("result", "{\"event\":\"result\",\"job\":7,\"kernel\":\"cnk\",\"mode\":\"fast\",\"outcome\":\"completed\",\"final_cycle\":\"18446744073709551612\",\"digest\":\"0x0123456789abcdef\",\"coverage\":\"0xfedcba9876543210\",\"cached\":true,\"paranoid\":\"ok\",\"key\":\"00000000deadbeef\"}"),
    ("cancel-ack", "{\"event\":\"cancel-ack\",\"job\":3,\"cancelled\":true}"),
    ("cancel-nak", "{\"event\":\"cancel-ack\",\"job\":4,\"cancelled\":false}"),
    ("error", "{\"event\":\"error\",\"detail\":\"bad \\\"op\\\" at C:\\\\x\\n\\ttab\\u0001é\"}"),
    ("submit", "{\"op\":\"submit\",\"kernel\":\"fwk\",\"mode\":\"heap\",\"nodes\":2,\"seed\":\"18446744073709551614\",\"ops\":[[\"compute\",\"9000\"],[\"gettid\"],[\"allreduce\",\"16\"]],\"faults\":{\"events\":[[\"2000000\",1,\"coll-drop\",\"1000000\"],[\"18446744073709551606\",0,\"torus-corrupt\",\"0\"]]},\"timeout_cycles\":\"5000000\",\"timeout_wall_ms\":\"2500\",\"progress_cycles\":\"100000\"}"),
    ("cache-entry", "{\"key\":\"0000000000000abc\",\"kernel\":\"cnk\",\"mode\":\"fast\",\"outcome\":\"completed\",\"final_cycle\":\"18446744073709551612\",\"digest\":\"0x0123456789abcdef\",\"coverage\":\"0xfedcba9876543210\"}"),
    ("monitor", "{\"schema_version\":3,\"bench\":\"bgserve\",\"seq\":1,\"done\":1,\"total\":2,\"profile\":{\"enabled\":true,\"domains\":{\"engine_heap\":{\"events\":0,\"cycles\":0},\"fast_path\":{\"events\":0,\"cycles\":0},\"torus\":{\"events\":1,\"cycles\":250},\"collective\":{\"events\":0,\"cycles\":0},\"sched\":{\"events\":1,\"cycles\":750},\"ciod\":{\"events\":0,\"cycles\":0},\"fault_ras\":{\"events\":0,\"cycles\":0}},\"heat\":{\"events\":2,\"cycles\":1000,\"messages\":1,\"peak_live_msgs\":0}},\"state\":{\"values\":{\"endpoint\":\"unix:/tmp/\\\"q\\\".sock\"},\"children\":{\"sessions/0\":{\"values\":{\"peer\":\"open\"},\"children\":{\"jobs/1\":{\"values\":{\"cycle\":\"12345\",\"phase\":\"running\"},\"children\":{}}}}}}}\n{\"schema_version\":3,\"bench\":\"bgserve\",\"seq\":2,\"done\":2,\"total\":2,\"profile\":{\"enabled\":true,\"domains\":{\"engine_heap\":{\"events\":0,\"cycles\":0},\"fast_path\":{\"events\":0,\"cycles\":0},\"torus\":{\"events\":1,\"cycles\":250},\"collective\":{\"events\":0,\"cycles\":0},\"sched\":{\"events\":1,\"cycles\":750},\"ciod\":{\"events\":0,\"cycles\":0},\"fault_ras\":{\"events\":0,\"cycles\":0}},\"heat\":{\"events\":2,\"cycles\":1000,\"messages\":1,\"peak_live_msgs\":0}}}\n"),
    ("report", "{\"bench\":\"pins\",\"schema_version\":3,\"scalars\":{\"linux.core0.max_delta\":38076,\"cnk.mbs.512\":569.6956474310025,\"bad\":null},\"strings\":{\"digest.cnk.512\":\"d9e11d160a9398a5\",\"we\\\"ird\":\"a\\\\b\"},\"metrics\":{\"cnk\":{\"engine.coalesced_ops\":{\"kind\":\"gauge\",\"scope\":\"machine\",\"values\":{\"machine\":12}},\"noise.cycles\":{\"kind\":\"histogram\",\"scope\":\"per_node\",\"values\":{\"node1\":{\"count\":3,\"sum\":739,\"min\":0,\"max\":700,\"mean\":246.333,\"buckets\":{\"0\":1,\"6\":1,\"10\":1}}}},\"syscall.count\":{\"kind\":\"counter\",\"scope\":\"per_core\",\"values\":{\"core3\":9}}},\"empty\":{}}}"),
    ("report-txt", "schema_version                                                            3\nscalars.linux.core0.max_delta                                         38076\nscalars.cnk.mbs.512                                        569.6956474310025\nscalars.bad                                                            null\nstrings.digest.cnk.512                                     d9e11d160a9398a5\nstrings.we\"ird                                                          a\\b\n# registry: cnk\n---------- Begin Simulation Statistics ----------\nengine.coalesced_ops.machine                                             12\nnoise.cycles.node1.count                                                  3\nnoise.cycles.node1.sum                                                  739\nnoise.cycles.node1.min                                                    0\nnoise.cycles.node1.max                                                  700\nnoise.cycles.node1.mean                                              246.33\nnoise.cycles.node1.bucket0                                                1\nnoise.cycles.node1.bucket6                                                1\nnoise.cycles.node1.bucket10                                               1\nsyscall.count.core3                                                       9\n---------- End Simulation Statistics   ----------\n# registry: empty\n---------- Begin Simulation Statistics ----------\n---------- End Simulation Statistics   ----------\n"),
    ("trace", "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"cycles@850MHz\"},\"traceEvents\":[{\"name\":\"compute\",\"cat\":\"op\",\"pid\":0,\"tid\":1,\"ts\":100,\"ph\":\"X\",\"dur\":500,\"args\":{\"tid\":3}},{\"name\":\"ss\\\"hd\",\"cat\":\"noise\",\"pid\":1,\"tid\":9999,\"ts\":950,\"ph\":\"i\",\"s\":\"t\",\"args\":{\"a\":1,\"b\":330}}]}"),
];

#[test]
fn every_json_producer_renders_the_pinned_bytes() {
    let got = renders();
    assert_eq!(got.len(), PINS.len());
    for ((name, got), (pin_name, want)) in got.iter().zip(PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(got, want, "{name} changed its bytes");
    }
}
