//! Executor integration tests: the machine loop exercised through the
//! diagnostic (ADE) kernel and the fixed-latency comm model.

use bgsim::ade::{AdeKernel, FixedLatencyComm};
use bgsim::machine::{Machine, Recorder, RunOutcome, WlEnv, Workload};
use bgsim::op::{ApiLayer, CommOp, Op, Protocol};
use bgsim::scan::ScanTarget;
use bgsim::trace::TraceEvent;
use bgsim::MachineConfig;
use sysabi::{AppImage, JobSpec, NodeMode, Rank, SysReq};

fn machine(nodes: u32, seed: u64) -> Machine {
    Machine::new(
        MachineConfig::nodes(nodes).with_seed(seed).with_trace(),
        Box::new(AdeKernel::new()),
        Box::new(FixedLatencyComm::new()),
    )
}

/// The retained trace's events, in record order.
fn events(m: &Machine) -> impl Iterator<Item = &TraceEvent> {
    m.sc.trace.entries().iter().map(|e| &e.what)
}

/// Cycles `tid`'s ops were priced at when they started.
fn op_cycles(m: &Machine, tid: u32) -> u64 {
    events(m)
        .map(|e| match *e {
            TraceEvent::OpStart { tid: t, cost, .. } if t == tid => cost,
            _ => 0,
        })
        .sum()
}

fn spec(nodes: u32) -> JobSpec {
    JobSpec::new(AppImage::static_test("t"), nodes, NodeMode::Smp)
}

/// A workload from a vector of ops.
struct Script {
    ops: Vec<Op>,
    i: usize,
    rec: Option<(Recorder, String)>,
}

impl Script {
    fn new(ops: Vec<Op>) -> Script {
        Script {
            ops,
            i: 0,
            rec: None,
        }
    }

    fn recording(ops: Vec<Op>, rec: Recorder, series: String) -> Script {
        Script {
            ops,
            i: 0,
            rec: Some((rec, series)),
        }
    }
}

impl Workload for Script {
    fn next(&mut self, env: &mut WlEnv<'_>) -> Op {
        if let Some((rec, series)) = &self.rec {
            rec.record(series, env.now() as f64);
        }
        if self.i >= self.ops.len() {
            return Op::End;
        }
        let op = std::mem::replace(&mut self.ops[self.i], Op::End);
        self.i += 1;
        op
    }
}

#[test]
fn compute_run_completes_with_exact_time() {
    let mut m = machine(1, 1);
    m.boot();
    m.launch(&spec(1), &mut |_r: Rank| {
        Box::new(Script::new(vec![
            Op::Compute { cycles: 1000 },
            Op::Compute { cycles: 500 },
        ])) as Box<dyn Workload>
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    assert_eq!(out.at(), 1500);
}

#[test]
fn daxpy_cost_includes_bounded_jitter() {
    let mut m = machine(1, 2);
    m.boot();
    m.launch(&spec(1), &mut |_r: Rank| {
        Box::new(Script::new(vec![Op::Daxpy { n: 256, reps: 256 }])) as Box<dyn Workload>
    })
    .unwrap();
    let out = m.run();
    let base = 658_958;
    assert!(out.at() >= base && out.at() <= base + 39, "at={}", out.at());
}

#[test]
fn deterministic_same_seed_same_digest() {
    let run = |seed| {
        let mut m = Machine::new(
            MachineConfig::nodes(2).with_seed(seed).with_trace(),
            Box::new(AdeKernel::new()),
            Box::new(FixedLatencyComm::new()),
        );
        m.boot();
        m.launch(&spec(2), &mut |r: Rank| {
            let peer = Rank(1 - r.0);
            Box::new(Script::new(vec![
                Op::Compute { cycles: 777 },
                Op::Comm(CommOp::Send {
                    to: peer,
                    bytes: 4096,
                    tag: 1,
                    proto: Protocol::Eager,
                    layer: ApiLayer::Dcmf,
                }),
                Op::Comm(CommOp::Recv {
                    from: Some(peer),
                    tag: 1,
                    layer: ApiLayer::Dcmf,
                }),
                Op::Daxpy { n: 128, reps: 3 },
            ])) as Box<dyn Workload>
        })
        .unwrap();
        let out = m.run();
        assert!(out.completed());
        (out.at(), m.trace_digest())
    };
    let (t1, d1) = run(42);
    let (t2, d2) = run(42);
    assert_eq!(t1, t2);
    assert_eq!(d1, d2, "same seed must give bit-identical traces");
    let (_, d3) = run(43);
    assert_ne!(d1, d3, "different seed should differ (jitter stream)");
}

#[test]
fn send_recv_pairs_complete() {
    let mut m = machine(2, 3);
    m.boot();
    m.launch(&spec(2), &mut |r: Rank| {
        let peer = Rank(1 - r.0);
        let mut ops = vec![];
        if r.0 == 0 {
            ops.push(Op::Comm(CommOp::Send {
                to: peer,
                bytes: 1 << 16,
                tag: 9,
                proto: Protocol::Auto,
                layer: ApiLayer::Mpi,
            }));
        } else {
            ops.push(Op::Comm(CommOp::Recv {
                from: Some(peer),
                tag: 9,
                layer: ApiLayer::Mpi,
            }));
        }
        Box::new(Script::new(ops)) as Box<dyn Workload>
    })
    .unwrap();
    assert!(m.run().completed());
}

#[test]
fn recv_before_send_blocks_then_wakes() {
    let mut m = machine(2, 4);
    m.boot();
    m.launch(&spec(2), &mut |r: Rank| {
        let peer = Rank(1 - r.0);
        let ops = if r.0 == 1 {
            vec![Op::Comm(CommOp::Recv {
                from: Some(peer),
                tag: 5,
                layer: ApiLayer::Dcmf,
            })]
        } else {
            vec![
                // Rank 0 computes a long time before sending, so rank 1
                // definitely blocks first.
                Op::Compute { cycles: 1_000_000 },
                Op::Comm(CommOp::Send {
                    to: peer,
                    bytes: 8,
                    tag: 5,
                    proto: Protocol::Eager,
                    layer: ApiLayer::Dcmf,
                }),
            ]
        };
        Box::new(Script::new(ops)) as Box<dyn Workload>
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed());
    assert!(out.at() >= 1_000_000);
}

#[test]
fn unmatched_recv_deadlocks_with_diagnosis() {
    let mut m = machine(2, 5);
    m.boot();
    m.launch(&spec(2), &mut |r: Rank| {
        let ops = if r.0 == 1 {
            vec![Op::Comm(CommOp::Recv {
                from: Some(Rank(0)),
                tag: 1,
                layer: ApiLayer::Dcmf,
            })]
        } else {
            vec![]
        };
        Box::new(Script::new(ops)) as Box<dyn Workload>
    })
    .unwrap();
    match m.run() {
        RunOutcome::Deadlock { blocked, .. } => {
            assert_eq!(blocked.len(), 1);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn barrier_synchronizes_all_ranks() {
    let rec = Recorder::new();
    let mut m = machine(4, 6);
    m.boot();
    let rec2 = rec.clone();
    m.launch(&spec(4), &mut move |r: Rank| {
        // Different pre-barrier compute per rank; all should leave the
        // barrier at the same cycle.
        Box::new(Script::recording(
            vec![
                Op::Compute {
                    cycles: 1000 * (r.0 as u64 + 1),
                },
                Op::Comm(CommOp::Barrier),
                Op::Compute { cycles: 1 },
            ],
            rec2.clone(),
            format!("rank{}", r.0),
        )) as Box<dyn Workload>
    })
    .unwrap();
    assert!(m.run().completed());
    // Each rank records cycles at its op boundaries; boundary index 2 is
    // "just left the barrier" and must coincide across ranks.
    let after_barrier: Vec<f64> = (0..4).map(|t| rec.series(&format!("rank{t}"))[2]).collect();
    assert!(
        after_barrier.windows(2).all(|w| w[0] == w[1]),
        "barrier exit skewed: {after_barrier:?}"
    );
    // And it is no earlier than the slowest rank's arrival.
    assert!(after_barrier[0] >= 4000.0);
}

#[test]
fn syscalls_route_through_kernel() {
    let mut m = machine(1, 7);
    m.boot();
    m.launch(&spec(1), &mut |_r: Rank| {
        Box::new(Script::new(vec![
            Op::Syscall(SysReq::Gettid),
            Op::Syscall(SysReq::Write {
                fd: sysabi::Fd(1),
                data: vec![b'h'; 10],
            }),
            Op::Syscall(SysReq::Fork), // ENOSYS on ADE
        ])) as Box<dyn Workload>
    })
    .unwrap();
    assert!(m.run().completed());
    let entered = events(&m)
        .filter(|e| matches!(e, TraceEvent::SyscallEnter { tid: 0, .. }))
        .count();
    assert_eq!(entered, 3);
}

#[test]
fn spawn_runs_child_on_other_core() {
    let mut m = machine(1, 8);
    m.boot();
    m.launch(&spec(1), &mut |_r: Rank| {
        let child = Box::new(Script::new(vec![Op::Compute { cycles: 5000 }]));
        Box::new(Script::new(vec![
            Op::Spawn {
                args: bgsim::CloneArgs::nptl(0x7000_0000, 0, 0x6000_0000),
                child,
                core_hint: Some(1),
            },
            Op::Compute { cycles: 100 },
        ])) as Box<dyn Workload>
    })
    .unwrap();
    assert!(m.run().completed());
    assert_eq!(m.sc.threads.len(), 2);
    let child = m.sc.thread(sysabi::Tid(1));
    assert_eq!(child.core, sysabi::CoreId(1));
    assert!(op_cycles(&m, 1) >= 5000);
}

#[test]
fn run_until_parks_at_cycle_and_scans() {
    let mut m = machine(1, 9);
    m.boot();
    m.launch(&spec(1), &mut |_r: Rank| {
        Box::new(Script::new(vec![Op::Compute { cycles: 100_000 }])) as Box<dyn Workload>
    })
    .unwrap();
    let out = m.run_until(50_000);
    assert_eq!(out, RunOutcome::ReachedCycle { at: 50_000 });
    let scan = m.scan_ref(ScanTarget::Cores);
    assert_eq!(scan.cycle, 50_000);
    // The thread is mid-op: core 0 runs tid 0.
    let running = scan
        .probes
        .iter()
        .find(|(n, _)| n == "core0.running_tid")
        .unwrap()
        .1;
    assert_eq!(running, 0);
}

#[test]
fn scans_reproducible_across_rebuilt_machines() {
    // The §III workflow: rebuild the machine with the same seed, run to
    // cycle N, scan. Two rebuilds at the same N must agree exactly.
    let scan_at = |cycle: u64| {
        let mut m = machine(1, 10);
        m.boot();
        m.launch(&spec(1), &mut |_r: Rank| {
            Box::new(Script::new(vec![
                Op::Daxpy { n: 256, reps: 16 },
                Op::Compute { cycles: 40_000 },
                Op::Daxpy { n: 256, reps: 16 },
            ])) as Box<dyn Workload>
        })
        .unwrap();
        m.run_until(cycle);
        m.scan_destructive(ScanTarget::Full)
    };
    for c in [1000u64, 30_000, 77_777] {
        let a = scan_at(c);
        let b = scan_at(c);
        assert_eq!(a, b, "scan at {c} not reproducible");
    }
}

#[test]
fn stats_track_network_traffic() {
    let mut m = machine(2, 11);
    m.boot();
    m.launch(&spec(2), &mut |r: Rank| {
        let peer = Rank(1 - r.0);
        let ops = if r.0 == 0 {
            vec![Op::Comm(CommOp::Send {
                to: peer,
                bytes: 12345,
                tag: 0,
                proto: Protocol::Eager,
                layer: ApiLayer::Dcmf,
            })]
        } else {
            vec![Op::Comm(CommOp::Recv {
                from: Some(peer),
                tag: 0,
                layer: ApiLayer::Dcmf,
            })]
        };
        Box::new(Script::new(ops)) as Box<dyn Workload>
    })
    .unwrap();
    assert!(m.run().completed());
    let sent: Vec<u64> = events(&m)
        .filter_map(|e| match *e {
            TraceEvent::MsgSend { bytes, .. } => Some(bytes),
            _ => None,
        })
        .collect();
    assert_eq!(sent, [12345]);
}

#[test]
fn exit_group_kills_sibling_threads() {
    let mut m = machine(1, 12);
    m.boot();
    m.launch(&spec(1), &mut |_r: Rank| {
        // Child spins forever; parent exits the whole process.
        let child = Box::new(Script::new(vec![Op::Compute {
            cycles: u32::MAX as u64,
        }]));
        Box::new(Script::new(vec![
            Op::Spawn {
                args: bgsim::CloneArgs::nptl(0x7000_0000, 0, 0),
                child,
                core_hint: Some(1),
            },
            Op::Compute { cycles: 1000 },
            Op::Syscall(SysReq::ExitGroup { code: 7 }),
        ])) as Box<dyn Workload>
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    assert!(
        out.at() < u32::MAX as u64,
        "exit_group did not cut the spinner short"
    );
    assert_eq!(m.sc.thread(sysabi::Tid(1)).exit_code, Some(7));
}

#[test]
fn boot_reports_phases() {
    let mut m = machine(1, 13);
    let r = m.boot().clone();
    assert_eq!(r.kernel, "ade");
    assert!(r.instructions > 0);
    let phase_sum: u64 = r.phases.iter().map(|(_, c)| c).sum();
    assert_eq!(phase_sum, r.instructions);
}

#[test]
fn reproducible_reset_preserves_dram_and_restarts_clock() {
    let mut m = machine(1, 14);
    m.boot();
    // Write a value into DRAM via the data plane (identity mapping on ADE).
    m.sc.dram[0]
        .write_u64(0x1000, 0xfeed_f00d_dead_beef)
        .unwrap();
    m.launch(&spec(1), &mut |_r: Rank| {
        Box::new(Script::new(vec![Op::Compute { cycles: 500 }])) as Box<dyn Workload>
    })
    .unwrap();
    m.run();
    assert!(m.now() > 0);
    m.reproducible_reset();
    assert_eq!(m.now(), 0, "clock restarts at reset");
    assert_eq!(
        m.sc.dram[0].read_u64(0x1000).unwrap(),
        0xfeed_f00d_dead_beef
    );
    assert!(m.sc.barrier.multichip_reproducible());
    // The machine is usable again.
    m.launch(&spec(1), &mut |_r: Rank| {
        Box::new(Script::new(vec![Op::Compute { cycles: 10 }])) as Box<dyn Workload>
    })
    .unwrap();
    assert!(m.run().completed());
}
