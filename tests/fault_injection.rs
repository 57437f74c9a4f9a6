//! RAS fault-injection integration tests: recovery semantics on both
//! kernels, and the hard digest-neutrality contract — an empty fault
//! schedule reproduces the checked-in benchmark digests bit-exactly.

use bench::harness::{nn_throughput, run_fwq, KernelKind};
use bgsim::fault::{FaultSchedule, FaultSpec};
use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::telemetry::Slot;
use bgsim::trace::TraceEvent;
use bgsim::MachineConfig;
use ciod::RetryPolicy;
use cnk::{Cnk, CnkConfig};
use dcmf::Dcmf;
use sysabi::{AppImage, Errno, JobSpec, NodeMode, OpenFlags, Rank, SysRet};
use workloads::io_kernel::CheckpointApp;

/// A digest recorded in a checked-in BENCH json, from its
/// single-thread fig8 report's `strings` block.
fn recorded_digest(file: &str, key: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = bench::json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    doc.get("fig8_throughput.threads1")
        .and_then(|r| r.get("strings"))
        .and_then(|s| s.get(key))
        .and_then(|d| d.str())
        .unwrap_or_else(|| panic!("{key} not found in {file}"))
        .to_string()
}

/// The tentpole acceptance gate: with no fault schedule, the fig8
/// simulations must still produce the digests recorded before the RAS
/// subsystem existed — fast path on (BENCH_fastpath.json) and off
/// (BENCH_baseline.json), on both kernels.
#[test]
fn empty_schedule_reproduces_recorded_bench_digests() {
    for (file, fast) in [
        ("BENCH_fastpath.json", true),
        ("BENCH_baseline.json", false),
    ] {
        for bytes in [512u64, 8192] {
            for (kind, key) in [(KernelKind::Cnk, "cnk"), (KernelKind::Fwk, "linux_caps")] {
                let (_, run) = nn_throughput(kind, 64, bytes, 8, fast, false, &FaultSpec::None);
                let want = recorded_digest(file, &format!("digest.{key}.{bytes}"));
                assert_eq!(
                    format!("{:016x}", run.digest),
                    want,
                    "{file} digest.{key}.{bytes} (fast_path={fast})"
                );
            }
        }
    }
}

/// The RAS events a run with its trace kept recorded, as `(cycle, node,
/// name, detail)`: injected faults (`Fault` entries, named by kind) and
/// the kernel's own RAS codes (`Ras` entries).
fn ras_events(m: &Machine) -> Vec<(u64, u32, &'static str, u64)> {
    m.sc.trace
        .entries()
        .iter()
        .filter_map(|e| match e.what {
            TraceEvent::Fault { name, arg, .. } => Some((e.at, e.node, name, arg)),
            TraceEvent::Ras { code, detail } => Some((e.at, e.node, code, detail)),
            _ => None,
        })
        .collect()
}

fn checkpoint_run(
    kernel: Box<dyn bgsim::Kernel>,
    script: &str,
    phases: u32,
) -> (Machine, Recorder) {
    let faults = FaultSchedule::parse(script).expect("fault script");
    let mut m = Machine::new(
        MachineConfig::nodes(1)
            .with_seed(11)
            .with_telemetry()
            .with_trace()
            .with_faults(faults),
        kernel,
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("ckpt"), 1, NodeMode::Smp),
        &mut move |r: Rank| {
            Box::new(CheckpointApp::new(r.0, phases, rec2.clone())) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    (m, rec)
}

/// A CIOD flap (collective link outage) drops function-shipped I/O on
/// the floor; CNK's retry/backoff protocol resends and the checkpoint
/// lands complete — the §V "RAS events are reported and handled" story.
#[test]
fn cnk_survives_ciod_flap_via_retry() {
    // The outage covers the first checkpoint's open/write burst
    // (~2M cycles in, after the compute phase).
    let (mut m, _rec) = checkpoint_run(
        Box::new(Cnk::with_defaults()),
        "2000000 0 coll-drop 1000000",
        2,
    );
    let stats = m.sc.tel.take_metrics();
    let retries = stats.value("ciod.retries", Slot::Node(0)).unwrap_or(0);
    let backoff = stats
        .value("ciod.backoff_cycles", Slot::Node(0))
        .unwrap_or(0);
    let dropped = stats.value("coll.dropped_pkts", Slot::Node(0)).unwrap_or(0);
    assert!(retries > 0, "flap produced no retries");
    assert!(backoff > 0, "retries recorded no backoff");
    assert!(dropped > 0, "outage dropped no packets");
    // The checkpoint file is complete despite the flap.
    let k: &Cnk = m.kernel_as().unwrap();
    let vfs = k.vfs();
    for phase in 0..2 {
        let path = format!("/ckpt/rank0.{phase:04}");
        let ino = vfs
            .resolve(vfs.root(), &path)
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(vfs.inode(ino).size(), 4 * (64 << 10), "{path} size");
    }
    // And the trace recorded the event where and when it was injected.
    let ras = ras_events(&m);
    assert!(
        ras.contains(&(2_000_000, 0, "coll-drop", 1_000_000)),
        "trace missing the flap: {ras:?}"
    );
}

/// When the link stays down past the attempt budget, the request fails
/// with a clean `EIO` to the caller — no panic, no hang — and the
/// failure is a RAS event in the trace.
#[test]
fn exhausted_retries_surface_as_eio() {
    let cfg = CnkConfig {
        io_retry: RetryPolicy {
            base_timeout: 200_000,
            max_attempts: 3,
        },
        ..CnkConfig::default()
    };
    let faults = FaultSchedule::parse("900000 0 coll-drop 60000000").expect("script");
    let mut m = Machine::new(
        MachineConfig::nodes(1)
            .with_seed(5)
            .with_telemetry()
            .with_trace()
            .with_faults(faults),
        Box::new(Cnk::new(cfg)),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("eio"), 1, NodeMode::Smp),
        &mut move |_r: Rank| {
            let rec = rec2.clone();
            let mut step = 0u32;
            bgsim::script::wl(move |env| {
                step += 1;
                match step {
                    1 => bgsim::Op::Compute { cycles: 1_000_000 },
                    2 => bgsim::Op::Syscall(sysabi::SysReq::Open {
                        path: "/never".into(),
                        flags: OpenFlags::WRONLY | OpenFlags::CREAT,
                        mode: 0o644,
                    }),
                    _ => {
                        let ret = env.take_ret().expect("open result");
                        rec.record(
                            "open_errno",
                            match ret {
                                SysRet::Err(e) => e as i32 as f64,
                                _ => -1.0,
                            },
                        );
                        bgsim::Op::End
                    }
                }
            })
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    assert_eq!(
        rec.series("open_errno"),
        vec![Errno::EIO as i32 as f64],
        "open through a dead link must fail with EIO"
    );
    let ras = ras_events(&m);
    assert!(
        ras.iter()
            .any(|&(_, node, code, _)| (node, code) == (0, "io-eio")),
        "trace missing the exhaustion record: {ras:?}"
    );
}

/// A machine check terminates the job cleanly (fatal signal, teardown)
/// instead of wedging the simulation, and leaves a RAS event in the
/// trace.
#[test]
fn machine_check_terminates_job_cleanly() {
    let faults = FaultSchedule::parse("500000 0 machine-check 0").expect("script");
    let mut m = Machine::new(
        MachineConfig::nodes(1)
            .with_seed(3)
            .with_telemetry()
            .with_trace()
            .with_faults(faults),
        Box::new(Cnk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    m.launch(
        &JobSpec::new(AppImage::static_test("mce"), 1, NodeMode::Smp),
        &mut |_r: Rank| {
            let mut i = 0u32;
            bgsim::script::wl(move |_env| {
                i += 1;
                if i > 200 {
                    bgsim::Op::End
                } else {
                    bgsim::Op::Compute { cycles: 100_000 }
                }
            }) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    // The job dies long before its 20M-cycle program would finish.
    assert!(out.at() < 5_000_000, "job was not terminated: {out:?}");
    let stats = m.sc.tel.take_metrics();
    assert_eq!(stats.value("ras.events", Slot::Node(0)), Some(1));
    let ras = ras_events(&m);
    assert!(
        ras.contains(&(500_000, 0, "machine-check", 0)),
        "trace missing the machine check: {ras:?}"
    );
}

/// Fixed seed ⇒ the faulted run is invariant across a lone run and a
/// 4-thread shard pool — `--fault-seed N` with `--threads 1` and
/// `--threads 4` must match digest-for-digest.
#[test]
fn seeded_faults_are_thread_invariant() {
    let faults = FaultSpec::Seed(13);
    let (_, baseline) = nn_throughput(KernelKind::Cnk, 16, 4096, 8, true, false, &faults);
    let jobs: Vec<_> = (0..4)
        .map(|_| {
            let faults = faults.clone();
            move || nn_throughput(KernelKind::Cnk, 16, 4096, 8, true, false, &faults).1
        })
        .collect();
    for r in bench::par::run_shards(4, jobs) {
        assert_eq!(baseline.digest, r.digest);
        assert_eq!(baseline.final_cycle, r.final_cycle);
    }
    // And the schedule actually did something.
    assert!(FaultSpec::Seed(13).is_active());
}

/// The FWK under the same fault schedule gets noisier — the RAS
/// recovery daemons wake on top of the base profile (§V.A's point:
/// Linux cannot shed them) — while CNK's FWQ samples stay tight.
#[test]
fn fwk_shows_recovery_noise_under_faults() {
    let (_, quiet) = run_fwq(KernelKind::Fwk, 300, 9, true, false, &FaultSpec::None);
    let (_, faulted) = run_fwq(KernelKind::Fwk, 300, 9, true, false, &FaultSpec::Seed(13));
    let qn = quiet
        .stats
        .value("noise.events", Slot::Node(0))
        .unwrap_or(0);
    let fnz = faulted
        .stats
        .value("noise.events", Slot::Node(0))
        .unwrap_or(0);
    assert!(
        fnz > qn,
        "fault run should wake extra daemons: {fnz} vs {qn}"
    );
    // CNK under the same seed logs the events but keeps computing.
    let (_, cnk) = run_fwq(KernelKind::Cnk, 300, 9, true, false, &FaultSpec::Seed(13));
    assert!(
        cnk.stats
            .value("ras.events", Slot::Node(0))
            .is_some_and(|v| v > 0),
        "CNK logged no RAS events"
    );
}
