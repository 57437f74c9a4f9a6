//! Cross-kernel integration tests: the same programs on CNK and the FWK,
//! checking both the "runs out-of-the-box on either" claim (§V.B) and the
//! deliberate behavioural contrasts of Tables II/III and §VII.

use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::op::Op;
use bgsim::script::{script, wl};
use bgsim::MachineConfig;
use cnk::Cnk;
use dcmf::Dcmf;
use fwk::Fwk;
use sysabi::{
    AppImage, CloneFlags, Errno, FutexOp, JobSpec, MapFlags, NodeMode, OpenFlags, Prot, Rank, Sig,
    SigDisposition, SysReq, SysRet, Tid,
};

fn machine(kernel: Box<dyn bgsim::Kernel>, nodes: u32, seed: u64) -> Machine {
    Machine::new(
        MachineConfig::nodes(nodes).with_seed(seed),
        kernel,
        Box::new(Dcmf::with_defaults()),
    )
}

type KernelFactory = Box<dyn Fn() -> Box<dyn bgsim::Kernel>>;

fn kernels() -> Vec<(&'static str, KernelFactory)> {
    vec![
        (
            "cnk",
            Box::new(|| Box::new(Cnk::with_defaults()) as Box<dyn bgsim::Kernel>),
        ),
        (
            "fwk",
            Box::new(|| Box::new(Fwk::with_defaults()) as Box<dyn bgsim::Kernel>),
        ),
    ]
}

fn spec(nodes: u32) -> JobSpec {
    JobSpec::new(AppImage::static_test("x"), nodes, NodeMode::Smp)
}

#[test]
fn same_posix_program_runs_on_both_kernels() {
    // §V.B "runs without modification": an open/write/read/seek/close
    // sequence behaves identically on both kernels.
    for (name, mk) in kernels() {
        let mut m = machine(mk(), 1, 1);
        m.boot();
        m.launch(&spec(1), &mut |_r: Rank| {
            let mut step = 0;
            let mut fd = sysabi::Fd(-1);
            wl(move |env| {
                step += 1;
                match step {
                    1 => Op::Syscall(SysReq::Open {
                        path: "/data".into(),
                        flags: OpenFlags::RDWR | OpenFlags::CREAT,
                        mode: 0o644,
                    }),
                    2 => {
                        fd = sysabi::Fd(env.take_ret().unwrap().val() as i32);
                        Op::Syscall(SysReq::Write {
                            fd,
                            data: b"portable".to_vec(),
                        })
                    }
                    3 => {
                        assert_eq!(env.take_ret().unwrap().val(), 8);
                        Op::Syscall(SysReq::Lseek {
                            fd,
                            offset: 0,
                            whence: sysabi::SeekWhence::Set,
                        })
                    }
                    4 => {
                        let _ = env.take_ret();
                        Op::Syscall(SysReq::Read { fd, len: 8 })
                    }
                    5 => {
                        let ret = env.take_ret().unwrap();
                        assert_eq!(ret, SysRet::Data(b"portable".to_vec()));
                        Op::Syscall(SysReq::Close { fd })
                    }
                    _ => Op::End,
                }
            })
        })
        .unwrap();
        let out = m.run();
        assert!(out.completed(), "{name}: {out:?}");
        assert_eq!(m.sc.thread(Tid(0)).exit_code, Some(0), "{name}");
    }
}

#[test]
fn nptl_pthreads_run_on_both_kernels() {
    // The NPTL model (uname gate, mmap stack, mprotect guard, clone,
    // join) must succeed on both — the whole point of §IV.B.1.
    for (name, mk) in kernels() {
        let mut m = machine(mk(), 1, 2);
        m.boot();
        let rec = Recorder::new();
        let rec2 = rec.clone();
        m.launch(&spec(1), &mut move |_r: Rank| {
            Box::new(workloads::fwq::FwqMain::new(
                workloads::fwq::FwqConfig::quick(50),
                rec2.clone(),
                4,
            )) as Box<dyn Workload>
        })
        .unwrap();
        let out = m.run();
        assert!(out.completed(), "{name}: {out:?}");
        for core in 0..4 {
            assert_eq!(
                rec.len(&format!("fwq_core{core}")),
                50,
                "{name} core {core}"
            );
        }
    }
}

#[test]
fn write_to_readonly_mapping_contrast() {
    // CNK does not honor page permissions (§IV.B.2); the FWK enforces
    // them (Table II "Full memory protection").
    let run = |kernel: Box<dyn bgsim::Kernel>| -> Option<i32> {
        let mut m = machine(kernel, 1, 3);
        m.boot();
        m.launch(&spec(1), &mut |_r: Rank| {
            let mut step = 0;
            wl(move |env| {
                step += 1;
                match step {
                    1 => Op::Syscall(SysReq::Mmap {
                        addr: 0,
                        len: 1 << 20,
                        prot: Prot::READ,
                        flags: MapFlags::PRIVATE | MapFlags::ANONYMOUS,
                        fd: None,
                        offset: 0,
                    }),
                    2 => {
                        let addr = env.take_ret().unwrap().val() as u64;
                        Op::MemTouch {
                            vaddr: addr + 64,
                            bytes: 8,
                            write: true,
                        }
                    }
                    _ => Op::End,
                }
            })
        })
        .unwrap();
        m.run();
        m.sc.thread(Tid(0)).exit_code
    };
    assert_eq!(
        run(Box::new(Cnk::with_defaults())),
        Some(0),
        "CNK permits the write"
    );
    let fwk_code = run(Box::new(Fwk::with_defaults()));
    assert_ne!(fwk_code, Some(0), "FWK must SIGSEGV the write");
}

#[test]
fn thread_overcommit_contrast() {
    // Table II: overcommit "easy - not avail" on CNK (beyond the fixed
    // limit), "medium" on Linux. Spawn 2 threads onto one core.
    let run = |kernel: Box<dyn bgsim::Kernel>| -> (bool, bool) {
        let mut m = machine(kernel, 1, 4);
        m.boot();
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let res2 = results.clone();
        m.launch(&spec(1), &mut move |_r: Rank| {
            let res = res2.clone();
            let mut step = 0;
            wl(move |env| {
                step += 1;
                if step > 1 {
                    if let Some(ret) = env.take_ret() {
                        res.borrow_mut().push(!ret.is_err());
                    }
                }
                if step <= 2 {
                    Op::Spawn {
                        args: bgsim::CloneArgs::nptl(0x7880_0000 + step * 0x100000, 0, 0),
                        child: script(vec![Op::Compute { cycles: 100_000 }]),
                        core_hint: Some(1), // both onto core 1
                    }
                } else {
                    Op::End
                }
            })
        })
        .unwrap();
        let out = m.run();
        assert!(out.completed(), "{out:?}");
        let r = results.borrow();
        (r[0], r[1])
    };
    let (c1, c2) = run(Box::new(Cnk::with_defaults()));
    assert!(
        c1 && !c2,
        "CNK: first thread ok, second refused (got {c1}, {c2})"
    );
    let (f1, f2) = run(Box::new(Fwk::with_defaults()));
    assert!(f1 && f2, "FWK: both threads admitted (got {f1}, {f2})");
}

#[test]
fn process_creation_contrast() {
    // §VII.B: "CNK does not allow fork/exec"; the FWK accepts fork-style
    // clone flags through the spawn path.
    let fork_flags = CloneFlags(0); // no CLONE_THREAD: a fork
    let run = |kernel: Box<dyn bgsim::Kernel>| -> Result<(), Errno> {
        let mut m = machine(kernel, 1, 5);
        m.boot();
        let out = std::rc::Rc::new(std::cell::RefCell::new(Err(Errno::EIO)));
        let out2 = out.clone();
        m.launch(&spec(1), &mut move |_r: Rank| {
            let out = out2.clone();
            let mut step = 0;
            wl(move |env| {
                step += 1;
                match step {
                    1 => Op::Spawn {
                        args: bgsim::CloneArgs {
                            flags: fork_flags,
                            child_stack: 0,
                            tls: 0,
                            parent_tid_addr: 0,
                            child_tid_addr: 0,
                        },
                        child: script(vec![Op::Compute { cycles: 1000 }]),
                        core_hint: Some(2),
                    },
                    2 => {
                        *out.borrow_mut() = match env.take_ret().unwrap() {
                            SysRet::Val(_) => Ok(()),
                            SysRet::Err(e) => Err(e),
                            _ => Err(Errno::EIO),
                        };
                        Op::End
                    }
                    _ => Op::End,
                }
            })
        })
        .unwrap();
        assert!(m.run().completed());
        let r = *out.borrow();
        r
    };
    assert_eq!(
        run(Box::new(Cnk::with_defaults())),
        Err(Errno::EINVAL),
        "CNK refuses"
    );
    assert_eq!(run(Box::new(Fwk::with_defaults())), Ok(()), "FWK forks");
}

#[test]
fn address_space_size_contrast() {
    // §VII.A: CNK maps nearly 4 GB; Linux caps a task at 3 GB. Ask each
    // kernel for a 2.5 GB anonymous mapping on a 4 GB node after a big
    // existing footprint.
    let run = |kernel: Box<dyn bgsim::Kernel>| -> bool {
        let mut cfg = MachineConfig::single_node().with_seed(6);
        cfg.chip.dram_bytes = 4 << 30;
        let mut m = Machine::new(cfg, kernel, Box::new(Dcmf::with_defaults()));
        m.boot();
        let mut jspec = spec(1);
        jspec.image.initial_heap = 3 << 30; // CNK pre-sizes the arena
        let ok = std::rc::Rc::new(std::cell::RefCell::new(false));
        let ok2 = ok.clone();
        m.launch(&jspec, &mut move |_r: Rank| {
            let ok = ok2.clone();
            let mut step = 0;
            wl(move |env| {
                step += 1;
                match step {
                    // One 800 MB mapping, then a 2 GB mapping: total > 2.75 GB.
                    1 => Op::Syscall(SysReq::Mmap {
                        addr: 0,
                        len: 800 << 20,
                        prot: Prot::READ | Prot::WRITE,
                        flags: MapFlags::PRIVATE | MapFlags::ANONYMOUS,
                        fd: None,
                        offset: 0,
                    }),
                    2 => {
                        assert!(!env.take_ret().unwrap().is_err());
                        Op::Syscall(SysReq::Mmap {
                            addr: 0,
                            len: 2 << 30,
                            prot: Prot::READ | Prot::WRITE,
                            flags: MapFlags::PRIVATE | MapFlags::ANONYMOUS,
                            fd: None,
                            offset: 0,
                        })
                    }
                    3 => {
                        *ok.borrow_mut() = !env.take_ret().unwrap().is_err();
                        Op::End
                    }
                    _ => Op::End,
                }
            })
        })
        .unwrap();
        assert!(m.run().completed());
        let r = *ok.borrow();
        r
    };
    assert!(
        run(Box::new(Cnk::with_defaults())),
        "CNK: nearly-4GB task fits"
    );
    assert!(!run(Box::new(Fwk::with_defaults())), "FWK: 3GB limit bites");
}

#[test]
fn cycle_reproducibility_contrast() {
    // Table II: cycle-reproducible execution "easy" on CNK, "not avail"
    // on Linux — even with the same seed, FWK runs differ if any
    // *physical* source is re-rolled; and CNK stays identical under a
    // reproducible reset while FWK's noise makes every boot-to-boot
    // timeline differ across seeds.
    let digest = |kernel: Box<dyn bgsim::Kernel>, seed: u64| -> u64 {
        let mut m = Machine::new(
            MachineConfig::single_node().with_seed(seed).with_trace(),
            kernel,
            Box::new(Dcmf::with_defaults()),
        );
        m.boot();
        m.launch(&spec(1), &mut |_r: Rank| {
            script(vec![
                Op::Daxpy { n: 256, reps: 256 },
                Op::Stream { bytes: 1 << 20 },
            ])
        })
        .unwrap();
        m.run();
        m.trace_digest()
    };
    // Determinism given identical seed holds for both (it is a simulator
    // property)...
    assert_eq!(
        digest(Box::new(Cnk::with_defaults()), 7),
        digest(Box::new(Cnk::with_defaults()), 7)
    );
    assert_eq!(
        digest(Box::new(Fwk::with_defaults()), 7),
        digest(Box::new(Fwk::with_defaults()), 7)
    );
    // ...but across seeds (different physical history), CNK's *timeline
    // of app-visible work* is far more stable: quantify via total run
    // time instead of digest.
    let runtime = |kernel: Box<dyn bgsim::Kernel>, seed: u64| -> u64 {
        let mut m = Machine::new(
            MachineConfig::single_node().with_seed(seed),
            kernel,
            Box::new(Dcmf::with_defaults()),
        );
        m.boot();
        m.launch(&spec(1), &mut |_r: Rank| {
            script(vec![Op::Daxpy { n: 256, reps: 2560 }])
        })
        .unwrap();
        m.run().at()
    };
    let cnk_spread = (0..6)
        .map(|s| runtime(Box::new(Cnk::with_defaults()), 100 + s))
        .fold((u64::MAX, 0u64), |(lo, hi), t| (lo.min(t), hi.max(t)));
    let fwk_spread = (0..6)
        .map(|s| runtime(Box::new(Fwk::with_defaults()), 100 + s))
        .fold((u64::MAX, 0u64), |(lo, hi), t| (lo.min(t), hi.max(t)));
    assert!(
        (cnk_spread.1 - cnk_spread.0) * 10 < (fwk_spread.1 - fwk_spread.0).max(1),
        "cnk {cnk_spread:?} vs fwk {fwk_spread:?}"
    );
}

#[test]
fn telemetry_is_determinism_neutral() {
    // The telemetry subsystem must be a pure observer: enabling the
    // metrics changes neither the event stream (digest and every kept
    // entry, scheduler, futex and fault events included) nor the final
    // cycle count, on either kernel. Keeping trace entries is an
    // observer too: it moves neither the outcome, the final cycle, the
    // digest nor the profile.
    use bgsim::trace::{TraceEntry, TraceEvent};
    use std::mem::{discriminant, Discriminant};

    /// FWQ on four threads.
    fn fwq(_r: Rank) -> Box<dyn Workload> {
        Box::new(workloads::fwq::FwqMain::new(
            workloads::fwq::FwqConfig::quick(80),
            Recorder::new(),
            4,
        ))
    }
    /// An OpenMP region over futex barriers, then a checkpoint through
    /// the I/O path (run under a fault script that storms the DAC guards
    /// and cuts the collective link under it).
    fn irs(_r: Rank) -> Box<dyn Workload> {
        workloads::apps::AppProfiles::irs(0, Recorder::new())
    }
    /// Two threads sharing core 2 that yield to each other.
    fn yielders(_r: Rank) -> Box<dyn Workload> {
        let mut step = 0u64;
        wl(move |env| {
            step += 1;
            match step {
                1 | 2 => Op::Spawn {
                    args: bgsim::CloneArgs::nptl(0x7500_0000 + step * 0x100000, 0, 0),
                    child: script(
                        (0..6)
                            .map(|i| match i % 2 {
                                0 => Op::Compute { cycles: 10_000 },
                                _ => Op::Syscall(SysReq::SchedYield),
                            })
                            .collect(),
                    ),
                    core_hint: Some(2),
                },
                _ => {
                    let _ = env.take_ret();
                    Op::End
                }
            }
        })
    }

    struct Run {
        outcome: bgsim::machine::RunOutcome,
        digest: u64,
        profile: bgsim::ProfileSnapshot,
        entries: Vec<TraceEntry>,
    }
    type Prog = fn(Rank) -> Box<dyn Workload>;
    let progs: [(Prog, &str); 3] = [
        (fwq, ""),
        (irs, "200000 0 guard-storm 3\n1500000 0 coll-drop 900000"),
        (yielders, ""),
    ];
    let run = |kernel: Box<dyn bgsim::Kernel>,
               (prog, faults): (Prog, &str),
               telemetry: bool,
               keep: bool|
     -> Run {
        let mut cfg = MachineConfig {
            telemetry,
            trace_events: keep,
            faults: bgsim::FaultSchedule::parse(faults).unwrap(),
            ..MachineConfig::single_node().with_seed(0xDE7)
        };
        cfg.chip.threads_per_core = 3;
        let mut m = Machine::new(cfg, kernel, Box::new(Dcmf::with_defaults()));
        m.boot();
        m.launch(&spec(1), &mut |r: Rank| prog(r)).unwrap();
        let outcome = m.run();
        assert!(outcome.completed(), "{outcome:?}");
        Run {
            outcome,
            digest: m.trace_digest(),
            profile: m.profile_snapshot(),
            entries: m.sc.trace.entries().to_vec(),
        }
    };
    let kind = |what: TraceEvent| discriminant(&what);
    for (name, mk) in kernels() {
        let mut seen: Vec<Discriminant<TraceEvent>> = Vec::new();
        for prog in progs {
            let off = run(mk(), prog, false, true);
            let on = run(mk(), prog, true, true);
            assert_eq!(
                off.digest, on.digest,
                "{name}: trace digest changed by telemetry"
            );
            assert_eq!(
                off.outcome.at(),
                on.outcome.at(),
                "{name}: final cycle changed by telemetry"
            );
            assert!(
                off.entries == on.entries,
                "{name}: kept entries changed by telemetry"
            );
            let bare = run(mk(), prog, true, false);
            assert!(bare.entries.is_empty(), "{name}: entries kept unasked");
            assert_eq!(
                (&bare.outcome, bare.digest),
                (&on.outcome, on.digest),
                "{name}: keeping entries moved the outcome, cycle or digest"
            );
            assert_eq!(
                bare.profile, on.profile,
                "{name}: keeping entries moved the profile"
            );
            seen.extend(on.entries.iter().map(|e| discriminant(&e.what)));
        }
        // The comparison covers the kinds that moved into the trace: a
        // scheduler pick, a futex wait, and a memory fault of the
        // kernel's own kind (guard storms on CNK, demand paging on the
        // FWK).
        let fault = if name == "cnk" {
            kind(TraceEvent::GuardStorm { hits: 0 })
        } else {
            kind(TraceEvent::PageFault { tid: 0, faults: 0 })
        };
        for want in [
            kind(TraceEvent::SchedPick { tid: 0 }),
            kind(TraceEvent::FutexWait { tid: 0, uaddr: 0 }),
            fault,
        ] {
            assert!(seen.contains(&want), "{name}: {want:?} never kept");
        }
    }
}

#[test]
fn first_divergence_pinpoints_injected_fault() {
    // Two otherwise-identical runs, one with a single injected parity
    // fault: the divergence reporter must name exactly that event.
    use bgsim::machine::FAULT_PARITY;
    use bgsim::telemetry::first_divergence;
    use bgsim::trace::TraceEvent;

    let fault_at = 500_000;
    let run = |inject: bool| -> Machine {
        let mut m = Machine::new(
            MachineConfig::single_node().with_seed(0xD1F).with_trace(),
            Box::new(Cnk::with_defaults()),
            Box::new(Dcmf::with_defaults()),
        );
        m.boot();
        m.launch(&spec(1), &mut |_r: Rank| {
            script(vec![Op::Daxpy { n: 256, reps: 512 }])
        })
        .unwrap();
        if inject {
            m.inject_fault(fault_at, sysabi::CoreId(1), FAULT_PARITY);
        }
        let out = m.run();
        assert!(out.completed(), "{out:?}");
        m
    };
    let clean = run(false);
    let faulted = run(true);
    assert!(
        first_divergence(&clean.sc.trace, &clean.sc.trace, 3).is_none(),
        "identical traces must not diverge"
    );
    let d = first_divergence(&clean.sc.trace, &faulted.sc.trace, 3)
        .expect("fault run must diverge from clean run");
    let entry = d.b.as_ref().expect("divergent side has an entry");
    assert_eq!(entry.at, fault_at, "divergence at the injection cycle");
    assert!(
        entry.core == 1
            && matches!(entry.what, TraceEvent::Fault { kind, .. } if kind == FAULT_PARITY),
        "first divergent event is the injected fault itself: {entry:?}"
    );
    // Context holds the matching entries before the divergence (fewer
    // than requested if the streams diverge early).
    assert!(
        !d.context.is_empty() && d.context.len() <= 3,
        "context entries captured: {}",
        d.context.len()
    );
}

#[test]
fn uname_identifies_each_kernel() {
    for (name, mk) in kernels() {
        let mut m = machine(mk(), 1, 8);
        m.boot();
        let sysname = std::rc::Rc::new(std::cell::RefCell::new(String::new()));
        let s2 = sysname.clone();
        m.launch(&spec(1), &mut move |_r: Rank| {
            let s = s2.clone();
            let mut step = 0;
            wl(move |env| {
                step += 1;
                match step {
                    1 => Op::Syscall(SysReq::Uname),
                    2 => {
                        if let Some(SysRet::Uname(u)) = env.take_ret() {
                            *s.borrow_mut() = u.sysname;
                        }
                        Op::End
                    }
                    _ => Op::End,
                }
            })
        })
        .unwrap();
        assert!(m.run().completed());
        let got = sysname.borrow().clone();
        match name {
            "cnk" => assert_eq!(got, "CNK"),
            _ => assert_eq!(got, "Linux"),
        }
    }
}

/// `(label, return value, cycles from issue to the next op boundary)`.
type CallLog = std::rc::Rc<std::cell::RefCell<Vec<(&'static str, SysRet, u64)>>>;

/// One step of the main thread in
/// [`futex_and_signal_calls_pin_returns_and_costs`].
enum Step {
    /// Issue a syscall; log its return value and cost.
    Call(&'static str, SysReq),
    /// Spawn a child on a node-local core, with NPTL clone flags and
    /// this parent/child tid address; log the clone result and cost.
    Spawn(&'static str, u32, u64, Box<dyn Workload>),
    /// Compute long enough for the children to park or finish.
    Settle,
}

/// A child that issues one futex call, logs it, and exits.
fn futex_child(log: &CallLog, label: &'static str, uaddr: u64, op: FutexOp) -> Box<dyn Workload> {
    let log = log.clone();
    let mut issued = None;
    wl(move |env| match issued.take() {
        None => {
            issued = Some(env.now());
            Op::Syscall(SysReq::Futex { uaddr, op })
        }
        Some(t0) => {
            let ret = env.take_ret().unwrap();
            log.borrow_mut().push((label, ret, env.now() - t0));
            Op::End
        }
    })
}

/// The main thread's steps, with its 1 MiB scratch mapping at `a`.
/// Threads get tids in spawn order: main 0, then 1..=5.
fn futex_signal_steps(log: &CallLog, a: u64) -> Vec<Step> {
    use Step::{Call, Settle, Spawn};
    const UNMAPPED: u64 = 1 << 40;
    let futex = |uaddr, op| SysReq::Futex { uaddr, op };
    let (b, c, d, e) = (a + 16, a + 32, a + 48, a + 64);
    vec![
        Call("wait-stale", futex(a, FutexOp::Wait { expected: 1 })),
        Call(
            "cmp-requeue-stale",
            futex(
                a,
                FutexOp::CmpRequeue {
                    wake: 1,
                    requeue: 1,
                    target_uaddr: c,
                    expected: 1,
                },
            ),
        ),
        Call("wake-unmapped", futex(UNMAPPED, FutexOp::Wake { count: 1 })),
        Call(
            "requeue-unmapped-target",
            futex(
                a,
                FutexOp::Requeue {
                    wake: 1,
                    requeue: 1,
                    target_uaddr: UNMAPPED,
                },
            ),
        ),
        Call(
            "cmp-requeue-unmapped-target",
            futex(
                a,
                FutexOp::CmpRequeue {
                    wake: 1,
                    requeue: 1,
                    target_uaddr: UNMAPPED,
                    expected: 0,
                },
            ),
        ),
        Spawn(
            "spawn-bitset-waiter",
            1,
            0,
            futex_child(
                log,
                "wait-bitset",
                a,
                FutexOp::WaitBitset {
                    expected: 0,
                    bitset: 0b01,
                },
            ),
        ),
        Settle,
        Call(
            "wake-bitset-disjoint",
            futex(
                a,
                FutexOp::WakeBitset {
                    count: 1,
                    bitset: 0b10,
                },
            ),
        ),
        Call(
            "wake-bitset-overlap",
            futex(
                a,
                FutexOp::WakeBitset {
                    count: 1,
                    bitset: 0b11,
                },
            ),
        ),
        Settle,
        Spawn(
            "spawn-waiter-1",
            2,
            0,
            futex_child(log, "wait-1", b, FutexOp::Wait { expected: 0 }),
        ),
        Spawn(
            "spawn-waiter-2",
            3,
            0,
            futex_child(log, "wait-2", b, FutexOp::Wait { expected: 0 }),
        ),
        Settle,
        Call(
            "requeue",
            futex(
                b,
                FutexOp::Requeue {
                    wake: 1,
                    requeue: 1,
                    target_uaddr: c,
                },
            ),
        ),
        Call("wake-requeued", futex(c, FutexOp::Wake { count: 1 })),
        Settle,
        Call(
            "sigaction-usr1",
            SysReq::Sigaction {
                sig: Sig::Usr1,
                disposition: SigDisposition::Handler(1),
            },
        ),
        Spawn(
            "spawn-eintr-waiter",
            1,
            0,
            futex_child(log, "wait-eintr", d, FutexOp::Wait { expected: 0 }),
        ),
        Settle,
        Call(
            "tgkill-usr1",
            SysReq::Tgkill {
                tid: 4,
                sig: Sig::Usr1,
            },
        ),
        Settle,
        Call("set-tid-address", SysReq::SetTidAddress { addr: e + 4 }),
        Spawn(
            "spawn-joinee",
            2,
            e,
            script(vec![Op::Compute { cycles: 100_000 }]),
        ),
        Call("join-clear-tid", futex(e, FutexOp::Wait { expected: 5 })),
        Call(
            "tgkill-parity-default",
            SysReq::Tgkill {
                tid: 0,
                sig: Sig::Parity,
            },
        ),
    ]
}

/// Runs every futex op, the EFAULT/EAGAIN paths, a handled signal that
/// interrupts a parked waiter (EINTR), a clear-tid join and a
/// default-disposition SIGPARITY on one node. Returns the call log and
/// the main thread's exit code.
fn run_futex_signal_steps(
    kernel: Box<dyn bgsim::Kernel>,
) -> (Vec<(&'static str, SysRet, u64)>, Option<i32>) {
    let mut m = machine(kernel, 1, 0xF07E);
    m.boot();
    let log = CallLog::default();
    let log2 = log.clone();
    m.launch(&spec(1), &mut move |_r: Rank| {
        let log = log2.clone();
        let mut steps: std::collections::VecDeque<Step> = Default::default();
        let mut pending: Option<(&'static str, u64)> = None;
        let mut mapped = false;
        wl(move |env| {
            if let Some((label, t0)) = pending.take() {
                let ret = env.take_ret().unwrap();
                if !mapped {
                    mapped = true;
                    steps = futex_signal_steps(&log, ret.val() as u64).into();
                }
                log.borrow_mut().push((label, ret, env.now() - t0));
            } else if !mapped {
                pending = Some(("mmap", env.now()));
                return Op::Syscall(SysReq::Mmap {
                    addr: 0,
                    len: 1 << 20,
                    prot: Prot::READ | Prot::WRITE,
                    flags: MapFlags::PRIVATE | MapFlags::ANONYMOUS,
                    fd: None,
                    offset: 0,
                });
            }
            match steps.pop_front() {
                Some(Step::Call(label, req)) => {
                    pending = Some((label, env.now()));
                    Op::Syscall(req)
                }
                Some(Step::Spawn(label, core, tid_addr, child)) => {
                    pending = Some((label, env.now()));
                    let stack = 0x7400_0000 + u64::from(core) * 0x10_0000;
                    Op::Spawn {
                        args: bgsim::CloneArgs::nptl(stack, 0, tid_addr),
                        child,
                        core_hint: Some(core),
                    }
                }
                Some(Step::Settle) => Op::Compute { cycles: 50_000 },
                None => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
    let calls = log.borrow().clone();
    (calls, m.sc.thread(Tid(0)).exit_code)
}

#[test]
fn futex_and_signal_calls_pin_returns_and_costs() {
    // The NPTL mechanics both kernels provide (§IV.B.1), each path's
    // return value and cycle cost pinned per kernel. The kernels differ
    // in policy only: trap and futex costs, static versus demand-faulting
    // translation, and what an unhandled SIGPARITY does (CNK kills the
    // process, the FWK ignores it).
    use Errno::{EAGAIN, EFAULT, EINTR};
    use SysRet::{Err, Val};
    let cnk = [
        ("mmap", Val(95_420_416), 350),
        ("wait-stale", Err(EAGAIN), 230),
        ("cmp-requeue-stale", Err(EAGAIN), 230),
        ("wake-unmapped", Err(EFAULT), 180),
        ("requeue-unmapped-target", Err(EFAULT), 230),
        ("cmp-requeue-unmapped-target", Err(EFAULT), 230),
        ("spawn-bitset-waiter", Val(1), 1_900),
        ("wake-bitset-disjoint", Val(0), 230),
        ("wait-bitset", Val(0), 52_130),
        ("wake-bitset-overlap", Val(1), 230),
        ("spawn-waiter-1", Val(2), 1_900),
        ("spawn-waiter-2", Val(3), 1_900),
        ("wait-1", Val(0), 53_800),
        ("requeue", Val(2), 230),
        ("wait-2", Val(0), 52_130),
        ("wake-requeued", Val(1), 230),
        ("sigaction-usr1", Val(0), 200),
        ("spawn-eintr-waiter", Val(4), 1_900),
        ("wait-eintr", Err(EINTR), 51_900),
        ("tgkill-usr1", Val(0), 340),
        ("set-tid-address", Val(0), 140),
        ("spawn-joinee", Val(5), 1_900),
        ("join-clear-tid", Val(0), 98_100),
    ];
    let fwk = [
        ("mmap", Val(3_220_176_896), 640),
        ("wait-stale", Err(EAGAIN), 400),
        ("cmp-requeue-stale", Err(EAGAIN), 400),
        ("wake-unmapped", Err(EFAULT), 320),
        ("requeue-unmapped-target", Err(EFAULT), 400),
        ("cmp-requeue-unmapped-target", Err(EFAULT), 400),
        ("spawn-bitset-waiter", Val(1), 4_500),
        ("wake-bitset-disjoint", Val(0), 400),
        ("wait-bitset", Val(0), 54_900),
        ("wake-bitset-overlap", Val(1), 400),
        ("spawn-waiter-1", Val(2), 4_500),
        ("spawn-waiter-2", Val(3), 4_500),
        ("wait-1", Val(0), 59_000),
        ("requeue", Val(2), 400),
        ("wait-2", Val(0), 54_900),
        ("wake-requeued", Val(1), 400),
        ("sigaction-usr1", Val(0), 350),
        ("spawn-eintr-waiter", Val(4), 4_500),
        ("wait-eintr", Err(EINTR), 54_500),
        ("tgkill-usr1", Val(0), 560),
        ("set-tid-address", Val(0), 260),
        ("spawn-joinee", Val(5), 4_500),
        ("join-clear-tid", Val(0), 95_500),
        ("tgkill-parity-default", Val(0), 560),
    ];
    let (calls, exit) = run_futex_signal_steps(Box::new(Cnk::with_defaults()));
    assert_eq!(calls, cnk);
    assert_eq!(exit, Some(128 + Sig::Parity as i32), "CNK: SIGPARITY kills");
    let (calls, exit) = run_futex_signal_steps(Box::new(Fwk::new(fwk::FwkConfig::noiseless())));
    assert_eq!(calls, fwk);
    assert_eq!(exit, Some(0), "FWK: SIGPARITY is ignored");
}

#[test]
fn complementary_strengths() {
    // The paper's core contrast: where CNK is easy Linux often
    // isn't, and vice versa.
    use bgsim::features::Capability;
    let linux = fwk::features::matrix();
    let cnk = cnk::features::matrix();
    let cnk_no_tlb = cnk.get(Capability::NoTlbMisses).unwrap();
    let linux_no_tlb = linux.get(Capability::NoTlbMisses).unwrap();
    assert!(cnk_no_tlb.use_ease.available());
    assert!(!linux_no_tlb.use_ease.available());
    let cnk_mmap = cnk.get(Capability::FullMmap).unwrap();
    let linux_mmap = linux.get(Capability::FullMmap).unwrap();
    assert!(!cnk_mmap.use_ease.available());
    assert!(linux_mmap.use_ease.available());
}

#[test]
fn ordering_cnk_lt_stripped_lt_full() {
    let cnk = cnk::boot::boot_report(&bgsim::ChipConfig::bgp(), false);
    let s = fwk::boot::boot_report(true);
    let f = fwk::boot::boot_report(false);
    assert!(cnk.instructions < s.instructions / 10);
    assert!(s.instructions < f.instructions);
}

#[test]
fn kernel_as_answers_only_for_the_booted_kernel() {
    let mut m = machine(Box::new(Cnk::with_defaults()), 1, 1);
    assert!(m.kernel_as::<Cnk>().is_some());
    assert!(m.kernel_as::<Fwk>().is_none());
    assert!(m.kernel_as_mut::<Fwk>().is_none());
    let mut m = machine(Box::new(Fwk::with_defaults()), 1, 1);
    assert!(m.kernel_as::<Cnk>().is_none());
    assert!(m.kernel_as_mut::<Fwk>().is_some());
}
