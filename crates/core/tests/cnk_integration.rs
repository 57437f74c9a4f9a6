//! End-to-end CNK tests: kernel + simulated machine + scripted apps.

use bgsim::ade::FixedLatencyComm;
use bgsim::machine::{Machine, RunOutcome};
use bgsim::op::Op;
use bgsim::script::{script, wl};
use bgsim::trace::TraceEvent;
use bgsim::MachineConfig;
use cnk::mem::RegionKind;
use cnk::{Cnk, CnkConfig};
use sysabi::{
    AppImage, CloneFlags, Errno, Fd, FutexOp, JobSpec, NodeMode, OpenFlags, ProcId, Rank, Sig,
    SigDisposition, SysReq, SysRet, Tid,
};

fn machine_with(cfg: CnkConfig, nodes: u32, seed: u64) -> Machine {
    Machine::new(
        MachineConfig::nodes(nodes).with_seed(seed).with_trace(),
        Box::new(Cnk::new(cfg)),
        Box::new(FixedLatencyComm::new()),
    )
}

/// How many retained trace events match `f`.
fn traced(m: &Machine, f: impl Fn(&TraceEvent) -> bool) -> usize {
    m.sc.trace.entries().iter().filter(|e| f(&e.what)).count()
}

/// Cycles `tid`'s ops were priced at when they started.
fn op_cycles(m: &Machine, tid: Tid) -> u64 {
    m.sc.trace
        .entries()
        .iter()
        .map(|e| match e.what {
            TraceEvent::OpStart { tid: t, cost, .. } if t == tid.0 => cost,
            _ => 0,
        })
        .sum()
}

fn machine(nodes: u32, seed: u64) -> Machine {
    machine_with(CnkConfig::default(), nodes, seed)
}

fn smp_spec() -> JobSpec {
    JobSpec::new(AppImage::static_test("app"), 1, NodeMode::Smp)
}

fn cnk_of(m: &Machine) -> &Cnk {
    m.kernel_as().expect("a CNK machine")
}

#[test]
fn boot_and_simple_app() {
    let mut m = machine(1, 1);
    let boot = m.boot().clone();
    assert_eq!(boot.kernel, "cnk");
    m.launch(&smp_spec(), &mut |_r: Rank| {
        script(vec![
            Op::Compute { cycles: 5000 },
            Op::Daxpy { n: 256, reps: 4 },
        ])
    })
    .unwrap();
    assert!(m.run().completed());
}

#[test]
fn uname_gate_reports_2_6_19_2() {
    // §IV.B.1: glibc's NPTL refuses kernels that look too old; CNK lies
    // helpfully.
    let mut m = machine(1, 2);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        wl(move |env| {
            if let Some(SysRet::Uname(u)) = env.take_ret() {
                assert_eq!(u.release, sysabi::uname::KernelVersion::new(2, 6, 19, 2));
                assert_eq!(u.sysname, "CNK");
                return Op::End;
            }
            Op::Syscall(SysReq::Uname)
        })
    })
    .unwrap();
    assert!(m.run().completed());
}

#[test]
fn function_shipped_write_lands_in_ion_filesystem() {
    let mut m = machine(1, 3);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        let mut fd = Fd(-1);
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Open {
                    path: "/out.dat".into(),
                    flags: OpenFlags::WRONLY | OpenFlags::CREAT,
                    mode: 0o644,
                }),
                2 => {
                    fd = Fd(env.take_ret().unwrap().val() as i32);
                    Op::Syscall(SysReq::Write {
                        fd,
                        data: b"hello from CNK".to_vec(),
                    })
                }
                3 => {
                    assert_eq!(env.take_ret().unwrap().val(), 14);
                    Op::Syscall(SysReq::Close { fd })
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
    // The file exists on the I/O-node filesystem with the right content.
    let k = cnk_of(&m);
    let vfs = k.vfs();
    let ino = vfs.resolve(vfs.root(), "/out.dat").unwrap();
    assert_eq!(vfs.read_at(ino, 0, 64).unwrap(), b"hello from CNK".to_vec());
}

#[test]
fn stdout_reaches_the_ioproxy_console() {
    let mut m = machine(1, 4);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        script(vec![Op::Syscall(SysReq::Write {
            fd: Fd::STDOUT,
            data: b"rank 0: step 1 done\n".to_vec(),
        })])
    })
    .unwrap();
    assert!(m.run().completed());
    let out = cnk_of(&m).console_of(&m.sc, ProcId(0)).unwrap();
    assert_eq!(out, b"rank 0: step 1 done\n");
}

#[test]
fn io_syscall_round_trip_takes_network_time() {
    // Function shipping is not free: a write must take at least two
    // collective-network traversals plus service time.
    let mut m = machine(1, 5);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        script(vec![Op::Syscall(SysReq::Write {
            fd: Fd::STDOUT,
            data: vec![b'x'; 64],
        })])
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed());
    assert!(
        out.at() > 5_000,
        "write completed suspiciously fast: {}",
        out.at()
    );
    // The job only function-ships, so both messages are collective.
    let sent = traced(&m, |e| matches!(e, TraceEvent::MsgSend { .. }));
    assert_eq!(sent, 2, "request + reply");
}

#[test]
fn fork_and_exec_are_enosys() {
    // §VII.B: "CNK does not allow fork/exec operations."
    let mut m = machine(1, 6);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Fork),
                2 => {
                    assert_eq!(env.take_ret().unwrap().err(), Errno::ENOSYS);
                    Op::Syscall(SysReq::Exec {
                        path: "/bin/sh".into(),
                    })
                }
                3 => {
                    assert_eq!(env.take_ret().unwrap().err(), Errno::ENOSYS);
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
}

#[test]
fn pthread_create_join_via_clone_and_futex() {
    // The NPTL protocol: mprotect (stack guard), clone with the exact
    // flag set, join by futex-waiting on the child tid word, which the
    // kernel clears and wakes at child exit (CLONE_CHILD_CLEARTID).
    let mut m = machine(1, 7);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        let mut stack = 0u64;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Mmap {
                    addr: 0,
                    len: 2 << 20,
                    prot: sysabi::Prot::READ | sysabi::Prot::WRITE,
                    flags: sysabi::MapFlags::PRIVATE | sysabi::MapFlags::ANONYMOUS,
                    fd: None,
                    offset: 0,
                }),
                2 => {
                    stack = env.take_ret().unwrap().val() as u64;
                    // Guard page at the low end of the stack (NPTL
                    // convention, §IV.C).
                    Op::Syscall(SysReq::Mprotect {
                        addr: stack,
                        len: 64 << 10,
                        prot: sysabi::Prot::NONE,
                    })
                }
                3 => {
                    let tid_word = stack + (1 << 20);
                    env.mem_write_u32(tid_word, u32::MAX);
                    Op::Spawn {
                        args: bgsim::CloneArgs::nptl(stack + (2 << 20), 0, tid_word),
                        child: script(vec![Op::Compute { cycles: 50_000 }]),
                        core_hint: Some(1),
                    }
                }
                4 => {
                    let child_tid = env.take_ret().unwrap().val() as u32;
                    let tid_word = stack + (1 << 20);
                    // The kernel wrote the child's tid there
                    // (CLONE_PARENT_SETTID).
                    assert_eq!(env.mem_read_u32(tid_word), Some(child_tid));
                    // pthread_join: futex-wait while the word is nonzero.
                    Op::Syscall(SysReq::Futex {
                        uaddr: tid_word,
                        op: FutexOp::Wait {
                            expected: child_tid,
                        },
                    })
                }
                5 => {
                    // Woken by the child's exit; word must be zero now.
                    let tid_word = stack + (1 << 20);
                    assert_eq!(env.mem_read_u32(tid_word), Some(0));
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    // The child actually ran its 50k compute on core 1.
    assert!(op_cycles(&m, Tid(1)) >= 50_000);
}

#[test]
fn clone_flags_validated() {
    // §IV.B.1: "The flags to clone are validated against the expected
    // flags."
    let mut m = machine(1, 8);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Spawn {
                    args: bgsim::CloneArgs {
                        flags: CloneFlags::VM, // missing the NPTL set
                        child_stack: 0x7000_0000,
                        tls: 0,
                        parent_tid_addr: 0,
                        child_tid_addr: 0,
                    },
                    child: script(vec![]),
                    core_hint: None,
                },
                2 => {
                    assert_eq!(env.take_ret().unwrap().err(), Errno::EINVAL);
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
    // The invalid clone created no thread.
    assert_eq!(m.sc.threads.len(), 1);
}

#[test]
fn thread_limit_is_fixed_per_core() {
    // One software thread per core on classic BG/P CNK: a process on a
    // 4-core node can hold 4 threads; the 5th clone gets EAGAIN
    // (§VII.B "overcommit ... not allow that").
    let mut m = machine(1, 9);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            if step > 1 {
                let ret = env.take_ret().unwrap();
                if step <= 4 {
                    assert!(
                        !ret.is_err(),
                        "spawn on free core {} failed: {ret:?}",
                        step - 1
                    );
                } else {
                    assert_eq!(ret.err(), Errno::EAGAIN, "overcommit must fail");
                    return Op::End;
                }
            }
            if step > 4 {
                return Op::End;
            }
            // Spawns 1..3 land on the free cores 1..3; spawn 4 targets
            // core 0 (occupied by this main thread) and must fail.
            Op::Spawn {
                args: bgsim::CloneArgs::nptl(0x7800_0000, 0, 0),
                child: script(vec![Op::Compute { cycles: 10_000_000 }]),
                core_hint: Some((step as u32) % 4),
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
}

#[test]
fn futex_wake_crosses_cores() {
    // Producer on core 0 wakes a consumer pthread on core 1.
    let mut m = machine(1, 10);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        let futex_addr = 0x3000_0000u64; // inside the heap region? use brk area below
        let mut addr = 0u64;
        let _ = futex_addr;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Mmap {
                    addr: 0,
                    len: 64 << 10,
                    prot: sysabi::Prot::READ | sysabi::Prot::WRITE,
                    flags: sysabi::MapFlags::PRIVATE | sysabi::MapFlags::ANONYMOUS,
                    fd: None,
                    offset: 0,
                }),
                2 => {
                    addr = env.take_ret().unwrap().val() as u64;
                    env.mem_write_u32(addr, 0);
                    let waddr = addr;
                    Op::Spawn {
                        args: bgsim::CloneArgs::nptl(0x7900_0000, 0, 0),
                        child: wl(move |cenv| {
                            // Child: wait while *addr == 0.
                            match cenv.take_ret() {
                                None => Op::Syscall(SysReq::Futex {
                                    uaddr: waddr,
                                    op: FutexOp::Wait { expected: 0 },
                                }),
                                Some(r) => {
                                    assert!(!r.is_err(), "futex wait: {r:?}");
                                    assert_eq!(cenv.mem_read_u32(waddr), Some(1));
                                    Op::End
                                }
                            }
                        }),
                        core_hint: Some(1),
                    }
                }
                3 => {
                    let _ = env.take_ret();
                    // Give the child time to park.
                    Op::Compute { cycles: 100_000 }
                }
                4 => {
                    env.mem_write_u32(addr, 1);
                    Op::Syscall(SysReq::Futex {
                        uaddr: addr,
                        op: FutexOp::Wake { count: 1 },
                    })
                }
                5 => {
                    assert_eq!(env.take_ret().unwrap().val(), 1, "one waiter woken");
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
}

#[test]
fn guard_page_kills_stack_smasher() {
    // A thread touching its DAC-armed guard range dies with SIGSEGV
    // semantics (process killed).
    let mut m = machine(1, 11);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        let mut stack = 0u64;
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
                    stack = env.take_ret().unwrap().val() as u64;
                    Op::Syscall(SysReq::Mprotect {
                        addr: stack,
                        len: 64 << 10,
                        prot: sysabi::Prot::NONE,
                    })
                }
                3 => Op::Spawn {
                    args: bgsim::CloneArgs::nptl(stack + (1 << 20), 0, 0),
                    child: {
                        let guard = stack;
                        wl(move |_e| {
                            // Overflow the stack straight into the guard.
                            Op::MemTouch {
                                vaddr: guard + 16,
                                bytes: 8,
                                write: true,
                            }
                        })
                    },
                    core_hint: Some(2),
                },
                _ => Op::Compute { cycles: 1_000_000 }, // parent spins; killed with process
            }
        })
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    // Both threads ended via the kill with SIGSEGV-ish code.
    assert_eq!(m.sc.thread(Tid(1)).exit_code, Some(128 + Sig::Segv as i32));
    assert_eq!(m.sc.thread(Tid(0)).exit_code, Some(128 + Sig::Segv as i32));
}

#[test]
fn heap_extension_repositions_main_guard_via_ipi() {
    // §IV.C's subtle case: another thread brk-extends the heap; the main
    // thread must then be able to touch the new storage (the old guard
    // range) without faulting, because CNK repositions the guard by IPI.
    let mut m = machine(1, 12);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        let mut brk0 = 0u64;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Brk { addr: 0 }),
                2 => {
                    brk0 = env.take_ret().unwrap().val() as u64;
                    let target = brk0 + (1 << 20);
                    Op::Spawn {
                        args: bgsim::CloneArgs::nptl(0x7a00_0000, 0, 0),
                        child: script(vec![Op::Syscall(SysReq::Brk { addr: target })]),
                        core_hint: Some(3),
                    }
                }
                3 => {
                    let _ = env.take_ret();
                    // Let the child's brk and the IPI land.
                    Op::Compute { cycles: 200_000 }
                }
                4 => {
                    // Touch what used to be the guard range — now
                    // legitimate heap.
                    Op::MemTouch {
                        vaddr: brk0 + 64,
                        bytes: 64,
                        write: true,
                    }
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    // Nobody was killed.
    assert_eq!(m.sc.thread(Tid(0)).exit_code, Some(0));
    let ipis = traced(&m, |e| matches!(e, TraceEvent::Ipi { .. }));
    assert!(ipis >= 1, "guard reposition must use an IPI");
}

#[test]
fn heap_guard_rearmed_by_ipi_after_a_spawned_thread_grows_the_heap() {
    // The same §IV.C case, inspected mid-run: after the child's brk and
    // the IPI, the main core's heap-guard slot watches the new boundary.
    let cfg = CnkConfig::default();
    let guard = cfg.guard_bytes;
    let mut m = machine_with(cfg, 1, 13);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Brk { addr: 0 }),
                2 => {
                    let brk0 = env.take_ret().unwrap().val() as u64;
                    Op::Spawn {
                        args: bgsim::CloneArgs::nptl(0x7a00_0000, 0, 0),
                        child: script(vec![Op::Syscall(SysReq::Brk {
                            addr: brk0 + (1 << 20),
                        })]),
                        core_hint: Some(3),
                    }
                }
                3 => Op::Compute { cycles: 200_000 },
                _ => Op::End,
            }
        })
    })
    .unwrap();
    let p = cnk_of(&m).process(ProcId(0)).unwrap();
    let brk0 = p.aspace.heap.brk_addr();
    let main_core = p.cores[0];
    let armed = |m: &Machine| m.sc.dacs[main_core.idx()].armed();
    assert_eq!(armed(&m)[0].lo, brk0, "launch arms the heap guard");
    assert!(matches!(
        m.run_until(100_000),
        RunOutcome::ReachedCycle { .. }
    ));
    let ipis = traced(&m, |e| matches!(e, TraceEvent::Ipi { .. }));
    assert!(ipis >= 1, "the reposition must use an IPI");
    let g = cnk_of(&m).process(ProcId(0)).unwrap().heap_guard.unwrap();
    assert_eq!((g.lo, g.hi), (brk0 + (1 << 20), brk0 + (1 << 20) + guard));
    let dac = armed(&m);
    assert_eq!(dac.len(), 1);
    assert_eq!((dac[0].lo, dac[0].hi, dac[0].slot), (g.lo, g.hi, g.slot));
    assert!(m.run().completed());
    // The main thread's exit disarmed its guard.
    assert!(armed(&m).is_empty());
    assert!(cnk_of(&m).process(ProcId(0)).unwrap().heap_guard.is_none());
}

#[test]
fn ioproxies_are_built_at_the_first_shipped_request() {
    // Four ranks over two I/O nodes; only rank 2 ships I/O.
    let cfg = CnkConfig {
        uid: 4242,
        gid: 77,
        ..CnkConfig::default()
    };
    let mut mc = MachineConfig::nodes(4).with_seed(21);
    mc.io_ratio = 2;
    let mut m = Machine::new(
        mc,
        Box::new(Cnk::new(cfg)),
        Box::new(FixedLatencyComm::new()),
    );
    m.boot();
    let spec = JobSpec::new(AppImage::static_test("app"), 4, NodeMode::Smp);
    m.launch(&spec, &mut |r: Rank| {
        if r != Rank(2) {
            return script(vec![Op::Compute { cycles: 1_000 }]);
        }
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Read {
                    fd: Fd::STDIN,
                    len: 8,
                }),
                2 => {
                    // fd 0 is the console: a read hits EOF.
                    assert_eq!(env.take_ret(), Some(SysRet::Data(Vec::new())));
                    Op::Syscall(SysReq::Write {
                        fd: Fd::STDOUT,
                        data: b"out ".to_vec(),
                    })
                }
                3 => Op::Syscall(SysReq::Write {
                    fd: Fd::STDERR,
                    data: b"err".to_vec(),
                }),
                _ => Op::End,
            }
        })
    })
    .unwrap();
    let k = cnk_of(&m);
    assert!(
        (0..2).all(|ion| k.ciod(ion).is_none()),
        "launch built a daemon"
    );
    assert!((0..4).all(|p| k.proxy_of(&m.sc, ProcId(p)).is_none()));
    assert!(m.run().completed());

    let k = cnk_of(&m);
    let proxy = k.proxy_of(&m.sc, ProcId(2)).expect("rank 2 shipped I/O");
    assert_eq!((proxy.uid, proxy.gid), (4242, 77));
    assert_eq!(proxy.open_fds(), 3, "std fds 0-2 only");
    assert!(proxy.check_fds(k.vfs()).is_empty());
    assert_eq!(k.console_of(&m.sc, ProcId(2)).unwrap(), b"out err");
    for p in [0, 1, 3] {
        assert!(k.proxy_of(&m.sc, ProcId(p)).is_none(), "proc {p}");
        assert_eq!(k.console_of(&m.sc, ProcId(p)), Some(Vec::new()), "proc {p}");
    }
    let proxies = |k: &Cnk, ion| k.ciod(ion).map_or(0, ciod::Ciod::proxy_count);
    assert_eq!(proxies(k, 0), 0, "ranks 0 and 1 never shipped a request");
    assert_eq!(proxies(k, 1), 1);

    // A relaunch tears down the one proxy.
    m.launch(&spec, &mut |_r: Rank| {
        script(vec![Op::Compute { cycles: 10 }])
    })
    .unwrap();
    let k = cnk_of(&m);
    assert_eq!(proxies(k, 0) + proxies(k, 1), 0);
    assert_eq!(k.console_of(&m.sc, ProcId(2)), None, "old process is gone");
    assert_eq!(k.console_of(&m.sc, ProcId(6)), Some(Vec::new()));
    assert!(m.run().completed());
}

#[test]
fn persistent_memory_survives_job_boundary_with_same_vaddr() {
    // §IV.D: run job 1, store a linked-list-ish structure in persistent
    // memory; job 2 re-attaches by name at the same virtual address and
    // chases the pointer.
    let mut m = machine(1, 13);
    m.boot();
    let mut spec = smp_spec();
    spec.persist_grants = vec!["table".to_string()];

    // Job 1: create and fill.
    m.launch(&spec, &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::PersistOpen {
                    name: "table".into(),
                    len: 1 << 20,
                }),
                2 => {
                    let base = env.take_ret().unwrap().val() as u64;
                    // A "pointer" at base to base+0x100, and a value there.
                    env.mem_write_u64(base, base + 0x100);
                    env.mem_write_u64(base + 0x100, 0xfeed_beef);
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());

    // Job 2 (fresh launch on the same kernel): re-attach and chase.
    m.launch(&spec, &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::PersistOpen {
                    name: "table".into(),
                    len: 1 << 20,
                }),
                2 => {
                    let base = env.take_ret().unwrap().val() as u64;
                    // Same virtual address as job 1 saw.
                    let ptr = env.mem_read_u64(base).unwrap();
                    assert_eq!(ptr, base + 0x100, "pointer structure broken");
                    assert_eq!(env.mem_read_u64(ptr), Some(0xfeed_beef));
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
}

#[test]
fn persist_without_grant_refused() {
    let mut m = machine(1, 14);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::PersistOpen {
                    name: "stolen".into(),
                    len: 1 << 20,
                }),
                2 => {
                    assert_eq!(env.take_ret().unwrap().err(), Errno::EACCES);
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
}

#[test]
fn non_persistent_memory_cleared_between_jobs() {
    let mut m = machine(1, 15);
    m.boot();
    // Job 1 scribbles on its heap.
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Brk { addr: 0 }),
                2 => {
                    let brk = env.take_ret().unwrap().val() as u64;
                    env.mem_write_u64(brk - 64, 0xdead_dead_dead_dead);
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
    // Job 2 reads the same place: clean slate.
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Brk { addr: 0 }),
                2 => {
                    let brk = env.take_ret().unwrap().val() as u64;
                    assert_eq!(env.mem_read_u64(brk - 64), Some(0));
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
}

#[test]
fn query_static_map_covers_four_regions() {
    let mut m = machine(1, 16);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::QueryStaticMap),
                2 => {
                    let ret = env.take_ret().unwrap();
                    let SysRet::StaticMap(triples) = ret else {
                        panic!("{ret:?}")
                    };
                    // text, data, heap+stack, shared (§IV.C's four ranges).
                    assert_eq!(triples.len(), 4);
                    // Sorted by virtual address, non-overlapping.
                    for w in triples.windows(2) {
                        assert!(w[0].0 + w[0].2 <= w[1].0);
                    }
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
}

#[test]
fn parity_fault_recovered_by_handler_without_restart() {
    // §V.B: the Gordon Bell recovery path. The app installs a handler;
    // an injected L1 parity fault is delivered as a signal; the app
    // redoes the affected work and completes.
    let mut m = machine(1, 17);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        let mut recovered = false;
        wl(move |env| {
            if env.take_signal() == Some(Sig::Parity) {
                recovered = true;
                // Recompute the corrupted block.
                return Op::Daxpy { n: 256, reps: 16 };
            }
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Sigaction {
                    sig: Sig::Parity,
                    disposition: SigDisposition::Handler(1),
                }),
                2..=10 => Op::Daxpy { n: 256, reps: 256 },
                _ => {
                    assert!(recovered, "the injected fault never arrived");
                    Op::End
                }
            }
        })
    })
    .unwrap();
    // Inject an L1 parity error mid-run on core 0.
    m.inject_fault(2_000_000, sysabi::CoreId(0), bgsim::machine::FAULT_PARITY);
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    assert_eq!(m.sc.thread(Tid(0)).exit_code, Some(0), "no restart needed");
}

#[test]
fn parity_fault_without_handler_is_fatal() {
    let mut m = machine(1, 18);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        script(vec![Op::Compute { cycles: 10_000_000 }])
    })
    .unwrap();
    m.inject_fault(1_000_000, sysabi::CoreId(0), bgsim::machine::FAULT_PARITY);
    let out = m.run();
    assert!(out.completed());
    assert_eq!(
        m.sc.thread(Tid(0)).exit_code,
        Some(128 + Sig::Parity as i32),
        "unhandled machine check kills the job (the checkpoint/restart world)"
    );
}

#[test]
fn affinity_extension_lets_remote_proc_use_idle_cores() {
    // §VIII: n MPI tasks (VN mode), then an OpenMP phase where rank 0
    // wants all four cores. Without the extension the spawn fails; with
    // it, rank 0's pthreads run on partner cores.
    for ext in [false, true] {
        let cfg = CnkConfig {
            affinity_extension: ext,
            ..CnkConfig::default()
        };
        let mut m = machine_with(cfg, 1, 19);
        m.boot();
        let spec = JobSpec::new(AppImage::static_test("app"), 1, NodeMode::Vn);
        m.launch(&spec, &mut move |r: Rank| {
            if r.0 != 0 {
                // Other ranks finish their MPI phase and idle out.
                return script(vec![Op::Compute { cycles: 1000 }]);
            }
            let mut step = 0;
            wl(move |env| {
                step += 1;
                match step {
                    1 => Op::Compute { cycles: 2000 },
                    // Designate core 1 (home: rank 1) as partner.
                    2 => Op::Syscall(SysReq::AffinityPartner { local_core: 1 }),
                    3 => {
                        let ret = env.take_ret().unwrap();
                        if !ext {
                            assert_eq!(ret.err(), Errno::ENOSYS);
                            return Op::End;
                        }
                        assert!(!ret.is_err());
                        // OpenMP phase: a worker pthread on core 1.
                        Op::Spawn {
                            args: bgsim::CloneArgs::nptl(0x7b00_0000, 0, 0),
                            child: script(vec![Op::Compute { cycles: 77_000 }]),
                            core_hint: Some(1),
                        }
                    }
                    4 => {
                        let ret = env.take_ret().unwrap();
                        assert!(!ret.is_err(), "partnered spawn failed: {ret:?}");
                        Op::Compute { cycles: 100_000 }
                    }
                    _ => Op::End,
                }
            })
        })
        .unwrap();
        let out = m.run();
        assert!(out.completed(), "ext={ext}: {out:?}");
        if ext {
            // The worker thread exists and ran on core 1.
            let worker = m.sc.threads.last().unwrap();
            assert_eq!(worker.core, sysabi::CoreId(1));
            assert!(op_cycles(&m, worker.tid) >= 77_000);
        }
    }
}

#[test]
fn spawn_onto_foreign_core_without_extension_fails() {
    let mut m = machine(1, 20);
    m.boot();
    let spec = JobSpec::new(AppImage::static_test("app"), 1, NodeMode::Vn);
    m.launch(&spec, &mut |r: Rank| {
        if r.0 != 0 {
            return script(vec![]);
        }
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Spawn {
                    args: bgsim::CloneArgs::nptl(0x7c00_0000, 0, 0),
                    child: script(vec![]),
                    core_hint: Some(2), // rank 2's core
                },
                2 => {
                    assert_eq!(env.take_ret().unwrap().err(), Errno::EPERM);
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    assert!(m.run().completed());
}

#[test]
fn mmap_of_file_copies_in_readonly() {
    // §VI.A: "to mmap a file, CNK copies in the data and only allows
    // read-only access."
    let mut m = machine(1, 21);
    // Pre-populate an input file on the ION filesystem.
    {
        let k: &mut Cnk = m.kernel_as_mut().unwrap();
        let vfs = k.vfs_mut();
        let root = vfs.root();
        let ino = vfs.create_at(root, "input.bin", 0o644, 1000, 100).unwrap();
        vfs.write_at(ino, 0, b"MAGICDATA").unwrap();
    }
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Open {
                    path: "/input.bin".into(),
                    flags: OpenFlags::RDONLY,
                    mode: 0,
                }),
                2 => {
                    let fd = Fd(env.take_ret().unwrap().val() as i32);
                    Op::Syscall(SysReq::Mmap {
                        addr: 0,
                        len: 9,
                        prot: sysabi::Prot::READ,
                        flags: sysabi::MapFlags::COPY,
                        fd: Some(fd),
                        offset: 0,
                    })
                }
                3 => {
                    let addr = env.take_ret().unwrap().val() as u64;
                    // The file content was copied in at map time.
                    assert_eq!(env.mem_read(addr, 9), Some(b"MAGICDATA".to_vec()));
                    Op::End
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
}

#[test]
fn vn_mode_places_four_ranks_per_node() {
    let mut m = machine(2, 22);
    m.boot();
    let spec = JobSpec::new(AppImage::static_test("app"), 2, NodeMode::Vn);
    let job = m
        .launch(&spec, &mut |_r: Rank| {
            script(vec![Op::Compute { cycles: 10 }])
        })
        .unwrap();
    assert_eq!(job.nranks(), 8);
    // Ranks 0..3 on node 0, each on its own core.
    for r in 0..4u32 {
        let ri = job.rank(Rank(r));
        assert_eq!(ri.node, sysabi::NodeId(0));
        assert_eq!(m.sc.thread(ri.main_tid).core, sysabi::CoreId(r));
    }
    assert!(m.run().completed());
}

#[test]
fn deadlocked_futex_is_diagnosed() {
    let mut m = machine(1, 23);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| {
        let mut step = 0;
        wl(move |env| {
            step += 1;
            match step {
                1 => Op::Syscall(SysReq::Brk { addr: 0 }),
                2 => {
                    let brk = env.take_ret().unwrap().val() as u64;
                    let addr = brk - 4096;
                    env.mem_write_u32(addr, 7);
                    // Wait forever: nobody will wake us.
                    Op::Syscall(SysReq::Futex {
                        uaddr: addr,
                        op: FutexOp::Wait { expected: 7 },
                    })
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    match m.run() {
        RunOutcome::Deadlock { blocked, .. } => assert_eq!(blocked, vec![Tid(0)]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn static_map_region_kinds_match_partitioner() {
    let mut m = machine(1, 24);
    m.boot();
    m.launch(&smp_spec(), &mut |_r: Rank| script(vec![]))
        .unwrap();
    m.run();
    let k = cnk_of(&m);
    let p = k.process(ProcId(0)).unwrap();
    for kind in [
        RegionKind::Text,
        RegionKind::Data,
        RegionKind::HeapStack,
        RegionKind::Shared,
    ] {
        assert!(p.aspace.map.region(kind).is_some());
    }
    // Every core of the process pinned the full map in its TLB and the
    // TLB never misses afterwards.
    for core in 0..4usize {
        assert!(m.sc.tlbs[core].pinned_count() > 0);
        assert_eq!(m.sc.tlbs[core].misses, 0);
    }
}

/// Launch `mode` on `nodes` nodes, run it, and check it stayed clean.
fn launched(nodes: u32, mode: NodeMode) -> Machine {
    let mut m = machine(nodes, 25);
    m.boot();
    m.launch(
        &JobSpec::new(AppImage::static_test("app"), nodes, mode),
        &mut |_r: Rank| script(vec![Op::Compute { cycles: 1000 }]),
    )
    .unwrap();
    assert!(m.run().completed());
    assert_eq!(m.check_invariants(), Vec::<String>::new());
    m
}

#[test]
fn ranks_in_one_slot_share_one_static_map_and_tlb_image() {
    use std::sync::Arc;
    for (mode, ppn) in [(NodeMode::Smp, 1u32), (NodeMode::Vn, 4)] {
        let nodes = 3;
        let m = launched(nodes, mode);
        let k = cnk_of(&m);
        let cpp = 4 / ppn;
        for slot in 0..ppn {
            let first = k.process(ProcId(slot)).unwrap();
            let image = m.sc.tlbs[first.cores[0].idx()].base_map().unwrap();
            for node in 0..nodes {
                let p = k.process(ProcId(node * ppn + slot)).unwrap();
                assert!(
                    Arc::ptr_eq(&p.aspace.map, &first.aspace.map),
                    "{mode:?} slot {slot}: node {node} holds its own static map"
                );
                assert_eq!(p.cores.len(), cpp as usize);
                for &c in &p.cores {
                    let base = m.sc.tlbs[c.idx()].base_map().unwrap();
                    assert!(
                        Arc::ptr_eq(base, image),
                        "{mode:?} slot {slot}: core {c} pins its own TLB image"
                    );
                }
            }
            if slot > 0 {
                // Slots tile different physical slices: distinct maps.
                let prev = k.process(ProcId(slot - 1)).unwrap();
                assert!(!Arc::ptr_eq(&prev.aspace.map, &first.aspace.map));
            }
        }
    }
}

#[test]
fn tlb_smaller_than_the_static_map_still_fails_launch() {
    for mode in [NodeMode::Smp, NodeMode::Vn] {
        let pages = launched(1, mode).sc.tlbs[0].pinned_count();
        let mut cfg = MachineConfig::nodes(2).with_seed(7);
        cfg.chip.tlb_entries = pages as u32 - 1;
        let mut m = Machine::new(
            cfg,
            Box::new(Cnk::new(CnkConfig::default())),
            Box::new(FixedLatencyComm::new()),
        );
        m.boot();
        let err = m
            .launch(
                &JobSpec::new(AppImage::static_test("app"), 2, mode),
                &mut |_r: Rank| script(vec![Op::Compute { cycles: 10 }]),
            )
            .unwrap_err();
        assert_eq!(
            err,
            bgsim::machine::LaunchError::NoMemory("TLB pin failed on c0: Full".to_string()),
            "{mode:?}"
        );
        // Launch stops at rank 0's pin: its main thread exists, and
        // nothing is pinned anywhere.
        assert_eq!(m.sc.threads.len(), 1, "{mode:?}");
        assert!(m.sc.tlbs.iter().all(|t| t.pinned_count() == 0), "{mode:?}");
    }
}

#[test]
fn batched_packets_are_counted_at_the_send_sites() {
    // One torus send and one function-shipped write: the gauge holds
    // every packet beyond the first of each message leg, whether the run
    // is stopped on the way or not.
    const TORUS_BYTES: u64 = 100_000;
    let job = || {
        let mut m = Machine::new(
            MachineConfig::nodes(2)
                .with_seed(31)
                .with_telemetry()
                .with_trace(),
            Box::new(Cnk::new(CnkConfig::default())),
            Box::new(FixedLatencyComm::new()),
        );
        m.boot();
        m.launch(
            &JobSpec::new(AppImage::static_test("app"), 2, NodeMode::Smp),
            &mut |r: Rank| {
                let (api, tag) = (bgsim::op::ApiLayer::Dcmf, 0);
                if r.0 == 0 {
                    script(vec![
                        Op::Comm(bgsim::op::CommOp::Send {
                            to: Rank(1),
                            bytes: TORUS_BYTES,
                            tag,
                            proto: bgsim::op::Protocol::Eager,
                            layer: api,
                        }),
                        Op::Syscall(SysReq::Write {
                            fd: Fd::STDOUT,
                            data: vec![b'x'; 5000],
                        }),
                    ])
                } else {
                    script(vec![Op::Comm(bgsim::op::CommOp::Recv {
                        from: Some(Rank(0)),
                        tag,
                        layer: api,
                    })])
                }
            },
        )
        .unwrap();
        m
    };
    let batched = |m: &Machine| {
        m.sc.tel
            .metrics
            .value("engine.batched_packets", bgsim::Slot::Machine)
    };

    let mut whole = job();
    let end = whole.run();
    assert!(end.completed(), "{end:?}");
    // The torus send, then the write's request and reply.
    let sent: Vec<u64> = whole
        .sc
        .trace
        .entries()
        .iter()
        .filter_map(|e| match e.what {
            TraceEvent::MsgSend { bytes, .. } => Some(bytes),
            _ => None,
        })
        .collect();
    assert_eq!(sent.len(), 3, "{sent:?}");
    assert_eq!(sent[0], TORUS_BYTES);
    let expected = (whole.sc.torus.packets(TORUS_BYTES) - 1)
        + sent[1..]
            .iter()
            .map(|&b| bgsim::collective::packets(b) - 1)
            .sum::<u64>();
    assert!(expected > whole.sc.torus.packets(TORUS_BYTES) - 1);
    assert_eq!(batched(&whole), Some(expected));

    let mut split = job();
    assert!(matches!(
        split.run_until(end.at() / 2),
        RunOutcome::ReachedCycle { .. }
    ));
    assert_eq!(split.run(), end);
    assert_eq!(batched(&split), Some(expected));
}
