//! Rack-wide barrier probe: every rank of an SMP-mode CNK machine runs
//! three Daxpy + Barrier rounds. A barrier blocks every rank and then
//! wakes every rank, so it walks the machine's per-core and deferral
//! state once per rank. Any per-event cost that grows with the node
//! count shows up here as run time growing faster than the node count.
//!
//! Prints, per node count, the host seconds for set-up (`new`, `boot`
//! and `launch`) and for `run`, and the `(outcome, final cycle,
//! digest)` triple, so two builds can be compared point for point.
//!
//! Run: `cargo run --release --example rack_barrier [nodes ...]`
//! (default 16384 32768 131072).

use std::time::Instant;

use bgsim::machine::Machine;
use bgsim::op::{CommOp, Op};
use bgsim::script::script;
use bgsim::MachineConfig;
use cnk::Cnk;
use dcmf::Dcmf;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};

const SEED: u64 = 0x5CA1E;
const ROUNDS: usize = 3;

fn main() {
    let args: Vec<u32> = std::env::args()
        .skip(1)
        .map(|a| {
            a.replace('_', "").parse().unwrap_or_else(|_| {
                eprintln!("usage: rack_barrier [nodes ...] (bad node count {a:?})");
                std::process::exit(2);
            })
        })
        .collect();
    let counts = if args.is_empty() {
        vec![16_384, 32_768, 131_072]
    } else {
        args
    };
    println!("nodes    setup_s  run_s    outcome    final_cycle  digest");
    for nodes in counts {
        let t0 = Instant::now();
        let mut m = Machine::new(
            MachineConfig::nodes(nodes).with_seed(SEED),
            Box::new(Cnk::with_defaults()),
            Box::new(Dcmf::with_defaults()),
        );
        m.boot();
        m.launch(
            &JobSpec::new(AppImage::static_test("barrier-rack"), nodes, NodeMode::Smp),
            &mut |_r: Rank| {
                script(
                    (0..ROUNDS)
                        .flat_map(|_| [Op::Daxpy { n: 4096, reps: 8 }, Op::Comm(CommOp::Barrier)])
                        .collect(),
                )
            },
        )
        .expect("launch");
        let setup = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let out = m.run();
        let run = t1.elapsed().as_secs_f64();
        let outcome = if out.completed() {
            "completed"
        } else {
            "incomplete"
        };
        println!(
            "{nodes:<8} {setup:<8.3} {run:<8.3} {outcome:<10} {:<12} {:016x}",
            out.at(),
            m.trace_digest()
        );
    }
}
