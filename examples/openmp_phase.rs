//! §VIII: the extended thread-affinity model.
//!
//! "A specific example is an application that starts with n MPI tasks per
//! node, one per core, and then enters an OpenMP phase in which one of
//! the processes wants to use all the cores."
//!
//! Runs that exact program in VN mode, once with the classic static
//! affinity (the OpenMP spawn fails) and once with the §VIII extension
//! (rank 0's worker pthreads run on its partners' cores).
//!
//! Run: `cargo run --example openmp_phase`

use bgsim::machine::{Machine, Workload};
use bgsim::op::{CommOp, Op};
use bgsim::script::{script, wl};
use bgsim::trace::TraceEvent;
use bgsim::MachineConfig;
use cnk::{Cnk, CnkConfig};
use dcmf::Dcmf;
use sysabi::{AppImage, JobSpec, NodeMode, Rank, SysReq, Tid};

fn run(extension: bool) {
    println!(
        "--- extended thread affinity {} ---",
        if extension { "ENABLED" } else { "disabled" }
    );
    let cfg = CnkConfig {
        affinity_extension: extension,
        ..CnkConfig::default()
    };
    let mut m = Machine::new(
        MachineConfig::single_node().with_seed(88).with_trace(),
        Box::new(Cnk::new(cfg)),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    m.launch(
        &JobSpec::new(AppImage::static_test("hybrid"), 1, NodeMode::Vn),
        &mut move |r: Rank| -> Box<dyn Workload> {
            if r.0 != 0 {
                // MPI phase only: compute, allreduce, done (the core
                // then idles — available to a partner).
                return script(vec![
                    Op::Compute { cycles: 200_000 },
                    Op::Comm(CommOp::Allreduce { bytes: 8 }),
                ]);
            }
            // Rank 0: MPI phase, then the OpenMP phase wanting all cores.
            let mut step = 0;
            let mut spawned = 0u32;
            wl(move |env| {
                step += 1;
                match step {
                    1 => Op::Compute { cycles: 200_000 },
                    2 => Op::Comm(CommOp::Allreduce { bytes: 8 }),
                    3..=5 => {
                        // Designate cores 1..3 as partners.
                        Op::Syscall(SysReq::AffinityPartner {
                            local_core: step - 2,
                        })
                    }
                    6..=8 => {
                        if step > 6 {
                            match env.take_ret() {
                                Some(r) if r.is_err() => {
                                    println!("   spawn onto core {}: {:?}", step - 6, r.err());
                                }
                                Some(_) => spawned += 1,
                                None => {}
                            }
                        }
                        let core = step - 5;
                        Op::Spawn {
                            args: bgsim::CloneArgs::nptl(
                                0x7d00_0000 + step as u64 * 0x10_0000,
                                0,
                                0,
                            ),
                            child: script(vec![Op::Flops { flops: 1 << 20 }]),
                            core_hint: Some(core),
                        }
                    }
                    9 => {
                        match env.take_ret() {
                            Some(r) if r.is_err() => {
                                println!("   spawn onto core 3: {:?}", r.err())
                            }
                            Some(_) => spawned += 1,
                            None => {}
                        }
                        println!("   OpenMP workers started: {spawned}/3");
                        Op::Flops { flops: 1 << 20 } // rank 0's own share
                    }
                    _ => Op::End,
                }
            })
        },
    )
    .unwrap();
    let out = m.run();
    println!("   outcome: {out:?}");
    for tid in 4..m.sc.threads.len() as u32 {
        // What the worker's ops cost when they started, from the trace.
        let busy: u64 =
            m.sc.trace
                .entries()
                .iter()
                .map(|e| match e.what {
                    TraceEvent::OpStart { tid: t, cost, .. } if t == tid => cost,
                    _ => 0,
                })
                .sum();
        println!(
            "   worker t{tid} on {} busy {busy} cycles",
            m.sc.thread(Tid(tid)).core
        );
    }
    println!();
}

fn main() {
    println!("== §VIII: n MPI tasks -> one process wants all cores ==\n");
    run(false);
    run(true);
    println!("with the extension, each core alternates between its home process and the");
    println!("single designated remote process — \"the actual usage models that programmers");
    println!("need while staying within the design philosophy of CNK\" (§VIII).");
}
