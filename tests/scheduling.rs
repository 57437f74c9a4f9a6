//! Scheduling semantics: CNK's non-preemptive run-to-block versus the
//! FWK's timeslice round robin under overcommit (§VI.C, Table II).

use bgsim::machine::{Machine, Recorder};
use bgsim::op::Op;
use bgsim::script::{script, wl};
use bgsim::{MachineConfig, Workload};
use cnk::Cnk;
use dcmf::Dcmf;
use fwk::Fwk;
use sysabi::{AppImage, JobSpec, NodeMode, Rank, SysReq, Tid};

#[test]
fn fwk_timeslices_two_threads_on_one_core() {
    // Two CPU-bound threads pinned to core 1: under the FWK both make
    // progress interleaved (round robin); neither starves.
    let mut m = Machine::new(
        MachineConfig::single_node().with_seed(0x5C),
        Box::new(Fwk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("slice"), 1, NodeMode::Smp),
        &mut move |_r: Rank| {
            let rec = rec2.clone();
            let mut step = 0;
            wl(move |env| {
                step += 1;
                match step {
                    1 | 2 => {
                        let rec = rec.clone();
                        let series = format!("done{step}");
                        let mut chunks = 0;
                        Op::Spawn {
                            args: bgsim::CloneArgs::nptl(0x7700_0000 + step * 0x100000, 0, 0),
                            child: wl(move |cenv| {
                                // 40 chunks of 1M cycles each.
                                if chunks == 40 {
                                    rec.record(&series, cenv.now() as f64);
                                    return Op::End;
                                }
                                chunks += 1;
                                Op::Compute { cycles: 1_000_000 }
                            }),
                            core_hint: Some(1),
                        }
                    }
                    3 => {
                        let _ = env.take_ret();
                        Op::End
                    }
                    _ => Op::End,
                }
            }) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    let d1 = rec.series("done1")[0];
    let d2 = rec.series("done2")[0];
    // Round robin: both finish near the end (~80M cycles), not one at
    // 40M and the other at 80M (run-to-completion would give a 2x gap).
    let (lo, hi) = (d1.min(d2), d1.max(d2));
    assert!(
        hi / lo < 1.3,
        "no interleaving: finished at {lo} and {hi} (looks run-to-completion)"
    );
}

#[test]
fn fwk_timeslice_rearm_leaves_no_stale_events() {
    // The slice re-arm path cancels the in-flight expiry the moment a
    // core's ready queue drains (O(1) in the event slab) and re-arms at
    // the remembered deadline when contention returns, so the
    // count-and-discard backstop must never fire: preemptions happen,
    // stale expiries do not.
    let mut m = Machine::new(
        MachineConfig::single_node()
            .with_seed(0x5C)
            .with_telemetry(),
        Box::new(Fwk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    m.launch(
        &JobSpec::new(AppImage::static_test("slice"), 1, NodeMode::Smp),
        &mut move |_r: Rank| {
            let mut step = 0;
            wl(move |env| {
                step += 1;
                match step {
                    // Three CPU-bound threads on core 1 with different
                    // lengths: queues drain at different times, so both
                    // the pick_next drain-cancel and the exit-time
                    // drain-cancel paths run.
                    1..=3 => {
                        let mut chunks = 0;
                        let quota = 10 * step;
                        Op::Spawn {
                            args: bgsim::CloneArgs::nptl(0x7800_0000 + step * 0x100000, 0, 0),
                            child: wl(move |_| {
                                if chunks == quota {
                                    return Op::End;
                                }
                                chunks += 1;
                                Op::Compute { cycles: 1_000_000 }
                            }),
                            core_hint: Some(1),
                        }
                    }
                    4 => {
                        let _ = env.take_ret();
                        Op::End
                    }
                    _ => Op::End,
                }
            }) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    let preempts =
        m.sc.tel
            .metrics
            .value("sched.preempts", bgsim::telemetry::Slot::Core(1))
            .unwrap_or(0);
    assert!(preempts > 0, "no timeslice preemptions on the shared core");
    assert_eq!(
        m.sc.tel
            .metrics
            .value("sched.stale_timeslice", bgsim::telemetry::Slot::Node(0)),
        Some(0),
        "a timeslice expiry popped stale instead of being cancelled"
    );
}

#[test]
fn cnk_runs_to_block_without_preemption() {
    // The same two-threads-one-core setup is *rejected* by CNK's fixed
    // thread limit; with the 3-threads-per-core firmware it is allowed,
    // and execution is run-to-block: the first thread finishes entirely
    // before the second starts.
    let mut cfg = MachineConfig::single_node().with_seed(0x5D);
    cfg.chip.threads_per_core = 3;
    let mut m = Machine::new(
        cfg,
        Box::new(Cnk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("rtc"), 1, NodeMode::Smp),
        &mut move |_r: Rank| {
            let rec = rec2.clone();
            let mut step = 0;
            wl(move |env| {
                step += 1;
                match step {
                    1 | 2 => {
                        let rec = rec.clone();
                        let series = format!("done{step}");
                        let mut chunks = 0;
                        Op::Spawn {
                            args: bgsim::CloneArgs::nptl(0x7600_0000 + step * 0x100000, 0, 0),
                            child: wl(move |cenv| {
                                if chunks == 20 {
                                    rec.record(&series, cenv.now() as f64);
                                    return Op::End;
                                }
                                chunks += 1;
                                Op::Compute { cycles: 1_000_000 }
                            }),
                            core_hint: Some(1),
                        }
                    }
                    3 => {
                        let _ = env.take_ret();
                        Op::End
                    }
                    _ => Op::End,
                }
            }) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    let d1 = rec.series("done1")[0];
    let d2 = rec.series("done2")[0];
    // Non-preemptive: the first spawned thread runs its full 20M cycles
    // before the second gets the core — a clear 2x gap.
    let (lo, hi) = (d1.min(d2), d1.max(d2));
    assert!(hi / lo > 1.7, "CNK preempted? finished at {lo} and {hi}");
}

#[test]
fn cnk_yield_rotates_threads_on_shared_core() {
    // §VI.C: switching happens when a thread "specifically blocks on a
    // futex or explicitly yields".
    let mut cfg = MachineConfig::single_node().with_seed(0x5E);
    cfg.chip.threads_per_core = 3;
    let mut m = Machine::new(
        cfg,
        Box::new(Cnk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("yield"), 1, NodeMode::Smp),
        &mut move |_r: Rank| {
            let rec = rec2.clone();
            let mut step = 0;
            wl(move |env| {
                step += 1;
                match step {
                    1 | 2 => {
                        let rec = rec.clone();
                        let id = step;
                        let mut i = 0;
                        Op::Spawn {
                            args: bgsim::CloneArgs::nptl(0x7500_0000 + step * 0x100000, 0, 0),
                            child: wl(move |cenv| {
                                if i == 6 {
                                    return Op::End;
                                }
                                i += 1;
                                if i % 2 == 1 {
                                    rec.record(
                                        "order",
                                        (id * 100 + i) as f64 + cenv.now() as f64 * 0.0,
                                    );
                                    Op::Compute { cycles: 10_000 }
                                } else {
                                    Op::Syscall(SysReq::SchedYield)
                                }
                            }),
                            core_hint: Some(2),
                        }
                    }
                    3 => {
                        let _ = env.take_ret();
                        Op::End
                    }
                    _ => Op::End,
                }
            }) as Box<dyn Workload>
        },
    )
    .unwrap();
    assert!(m.run().completed());
    // Yielding interleaves the two threads' chunks: the recorded order
    // alternates between id 1xx and 2xx entries.
    let order = rec.series("order");
    assert!(order.len() >= 6);
    let ids: Vec<u32> = order.iter().map(|v| (*v as u32) / 100).collect();
    let alternations = ids.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(alternations >= 3, "yield did not rotate: {ids:?}");
}

#[test]
fn persist_survives_reproducible_chip_reset() {
    // §IV.D + §III together: persistent regions live in DRAM, DRAM is in
    // self-refresh across a reproducible reset, so the data survives a
    // *chip reset*, not just a job boundary.
    let mut m = Machine::new(
        MachineConfig::single_node().with_seed(0x5F),
        Box::new(Cnk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let mut spec = JobSpec::new(AppImage::static_test("p"), 1, NodeMode::Smp);
    spec.persist_grants = vec!["state".into()];
    let spec2 = spec.clone();
    m.launch(&spec, &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::PersistOpen {
                    name: "state".into(),
                    len: 1 << 20,
                }),
                2 => {
                    let base = env.take_ret().unwrap().val() as u64;
                    env.mem_write_u64(base, 0xCAFE_F00D);
                    Op::End
                }
                _ => Op::End,
            }
        }) as Box<dyn Workload>
    })
    .unwrap();
    assert!(m.run().completed());

    // Chip reset with DDR in self-refresh.
    m.reproducible_reset();

    m.launch(&spec2, &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::PersistOpen {
                    name: "state".into(),
                    len: 1 << 20,
                }),
                2 => {
                    let base = env.take_ret().unwrap().val() as u64;
                    assert_eq!(
                        env.mem_read_u64(base),
                        Some(0xCAFE_F00D),
                        "persistent data lost across chip reset"
                    );
                    Op::End
                }
                _ => Op::End,
            }
        }) as Box<dyn Workload>
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    // The verifying thread did not assert-fail.
    let last = Tid((m.sc.threads.len() - 1) as u32);
    assert_eq!(m.sc.thread(last).exit_code, Some(0));
}

#[test]
fn cnk_munmap_and_double_free_semantics() {
    let mut m = Machine::new(
        MachineConfig::single_node().with_seed(0x60),
        Box::new(Cnk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    m.launch(
        &JobSpec::new(AppImage::static_test("mm"), 1, NodeMode::Smp),
        &mut |_r: Rank| {
            let mut step = 0;
            let mut addr = 0u64;
            wl(move |env| {
                step += 1;
                match step {
                    1 => Op::Syscall(SysReq::Mmap {
                        addr: 0,
                        len: 1 << 20,
                        prot: sysabi::Prot::READ | sysabi::Prot::WRITE,
                        flags: sysabi::MapFlags::PRIVATE | sysabi::MapFlags::ANONYMOUS,
                        fd: None,
                        offset: 0,
                    }),
                    2 => {
                        addr = env.take_ret().unwrap().val() as u64;
                        Op::Syscall(SysReq::Munmap { addr, len: 1 << 20 })
                    }
                    3 => {
                        assert!(!env.take_ret().unwrap().is_err());
                        // Double free → EINVAL.
                        Op::Syscall(SysReq::Munmap { addr, len: 1 << 20 })
                    }
                    4 => {
                        assert_eq!(env.take_ret().unwrap().err(), sysabi::Errno::EINVAL);
                        // Freed space is reusable.
                        Op::Syscall(SysReq::Mmap {
                            addr: 0,
                            len: 1 << 20,
                            prot: sysabi::Prot::READ,
                            flags: sysabi::MapFlags::PRIVATE | sysabi::MapFlags::ANONYMOUS,
                            fd: None,
                            offset: 0,
                        })
                    }
                    5 => {
                        assert!(!env.take_ret().unwrap().is_err());
                        Op::End
                    }
                    _ => Op::End,
                }
            }) as Box<dyn Workload>
        },
    )
    .unwrap();
    assert!(m.run().completed());
    assert_eq!(m.sc.thread(Tid(0)).exit_code, Some(0));
}

#[test]
fn sigaction_on_kill_rejected_everywhere() {
    for kernel in [
        Box::new(Cnk::with_defaults()) as Box<dyn bgsim::Kernel>,
        Box::new(Fwk::with_defaults()),
    ] {
        let mut m = Machine::new(
            MachineConfig::single_node().with_seed(0x61),
            kernel,
            Box::new(Dcmf::with_defaults()),
        );
        m.boot();
        m.launch(
            &JobSpec::new(AppImage::static_test("sig"), 1, NodeMode::Smp),
            &mut |_r: Rank| {
                let mut step = 0;
                wl(move |env| {
                    step += 1;
                    match step {
                        1 => Op::Syscall(SysReq::Sigaction {
                            sig: sysabi::Sig::Kill,
                            disposition: sysabi::SigDisposition::Handler(1),
                        }),
                        2 => {
                            assert_eq!(env.take_ret().unwrap().err(), sysabi::Errno::EINVAL);
                            Op::End
                        }
                        _ => Op::End,
                    }
                }) as Box<dyn Workload>
            },
        )
        .unwrap();
        assert!(m.run().completed());
    }
}

#[test]
fn tgkill_to_dead_thread_is_esrch() {
    let kernels: [Box<dyn bgsim::Kernel>; 2] = [
        Box::new(Cnk::with_defaults()),
        Box::new(Fwk::with_defaults()),
    ];
    for kernel in kernels {
        let name = kernel.name();
        let mut m = Machine::new(
            MachineConfig::single_node().with_seed(0x62),
            kernel,
            Box::new(Dcmf::with_defaults()),
        );
        m.boot();
        m.launch(
            &JobSpec::new(AppImage::static_test("tg"), 1, NodeMode::Smp),
            &mut |_r: Rank| {
                let mut step = 0;
                wl(move |env| {
                    step += 1;
                    match step {
                        1 => Op::Spawn {
                            args: bgsim::CloneArgs::nptl(0x7400_0000, 0, 0),
                            child: script(vec![]),
                            core_hint: Some(1),
                        },
                        2 => {
                            let tid = env.take_ret().unwrap().val() as u32;
                            // Let it exit first.
                            let _ = tid;
                            Op::Compute { cycles: 100_000 }
                        }
                        3 => Op::Syscall(SysReq::Tgkill {
                            tid: 1,
                            sig: sysabi::Sig::Usr1,
                        }),
                        4 => {
                            assert_eq!(env.take_ret().unwrap().err(), sysabi::Errno::ESRCH);
                            Op::End
                        }
                        _ => Op::End,
                    }
                }) as Box<dyn Workload>
            },
        )
        .unwrap();
        assert!(m.run().completed(), "{name}");
    }
}
