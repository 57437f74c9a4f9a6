//! Quickstart: boot a simulated Blue Gene/P node under CNK, launch a tiny
//! MPI-style job, and watch it compute, synchronize, and print through
//! the function-shipped I/O path.
//!
//! Run: `cargo run --example quickstart`

use bgsim::machine::{Machine, Workload};
use bgsim::op::{CommOp, Op};
use bgsim::script::wl;
use bgsim::MachineConfig;
use cnk::Cnk;
use dcmf::Dcmf;
use sysabi::{AppImage, Fd, JobSpec, NodeMode, ProcId, Rank, SysReq};

fn main() {
    // A 4-node machine running CNK with the DCMF messaging stack.
    let mut machine = Machine::new(
        MachineConfig::nodes(4).with_seed(2026).with_telemetry(),
        Box::new(Cnk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    let boot = machine.boot().clone();
    println!(
        "booted {} in {} instructions ({} phases)",
        boot.kernel,
        boot.instructions,
        boot.phases.len()
    );

    // Launch a 4-rank SMP-mode job: compute, allreduce, then each rank
    // writes a line to stdout (which CNK ships to its I/O node's CIOD).
    let spec = JobSpec::new(AppImage::static_test("hello"), 4, NodeMode::Smp);
    let job = machine
        .launch(&spec, &mut |rank: Rank| -> Box<dyn Workload> {
            let mut step = 0;
            wl(move |env| {
                step += 1;
                match step {
                    1 => Op::Compute {
                        cycles: 100_000 * (rank.0 as u64 + 1),
                    },
                    2 => Op::Comm(CommOp::Allreduce { bytes: 8 }),
                    3 => {
                        let line = format!(
                            "rank {rank} on {} checked in at cycle {}\n",
                            env.node(),
                            env.now()
                        );
                        Op::Syscall(SysReq::Write {
                            fd: Fd::STDOUT,
                            data: line.into_bytes(),
                        })
                    }
                    _ => Op::End,
                }
            })
        })
        .unwrap();

    let outcome = machine.run();
    println!("job finished: {outcome:?}\n");

    // Read each rank's console from its ioproxy — the paper's Fig. 2
    // path in action.
    let cnk: &Cnk = machine.kernel_as().expect("booted with CNK");
    for ri in &job.ranks {
        if let Some(console) = cnk.console_of(&machine.sc, ProcId(ri.proc.0)) {
            print!("[stdout {}] {}", ri.rank, String::from_utf8_lossy(&console));
        }
    }

    // Every count the run kept lives in its telemetry registry, one
    // slot per node or core; print the machine-wide totals.
    println!("\ntelemetry totals:");
    let mut coll_msgs = 0;
    for metric in machine.sc.tel.metrics.sorted() {
        let total: u64 = metric.vals.iter().sum();
        if total > 0 {
            println!("  {:<28} {total}", metric.name);
        }
        if metric.name == "net.coll_sends" {
            coll_msgs = total;
        }
    }
    println!("collective-network messages (function-ship request+reply per write): {coll_msgs}");
}
