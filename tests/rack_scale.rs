//! Rack-scale smoke (ROADMAP #1): boot a full rack (4096 nodes) of CNK.
//!
//! * Memory: run a short FWQ quantum on every node and hold the lazy
//!   SoA/slab layout to a per-node resident budget. The budget is
//!   deliberately loose (~4x the measured figure) — it exists to catch
//!   a regression back to eager per-core/per-node materialization, not
//!   to pin an exact byte count.
//! * Rack-wide collectives: three Daxpy + Barrier rounds on every rank,
//!   pinned to their `(outcome, final cycle, digest)` triple, with the
//!   machine's invariant sweep (busy-core and live-thread counters
//!   included) clean afterwards.

use bench::harness::KernelKind;
use bgsim::machine::{Machine, Recorder, RunOutcome, Workload};
use bgsim::op::{CommOp, Op};
use bgsim::script::script;
use bgsim::MachineConfig;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};
use workloads::fwq::{FwqConfig, FwqSampler};

const NODES: u32 = 4096;
/// The estimate reads ~1.4 KiB/node at this size (`fig_scale`, 4096
/// nodes: 1 453 B/node; the eager layout was ~15 KiB/node). Fail well
/// before we drift back toward eager.
const BYTES_PER_NODE_BUDGET: usize = 8 << 10;

#[test]
fn rack_of_4096_nodes_fits_the_lazy_budget() {
    let cfg = MachineConfig::nodes(NODES).with_seed(0x5CA1E);
    let mut m = Machine::new(
        cfg,
        KernelKind::Cnk.build(),
        Box::new(dcmf::Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("fwq-rack"), NODES, NodeMode::Smp),
        &mut move |_r: Rank| {
            Box::new(FwqSampler::new(FwqConfig::quick(1), rec2.clone(), 0)) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "rack FWQ run did not complete: {out:?}");
    let resident = m.resident_bytes_estimate();
    let per_node = resident / NODES as usize;
    assert!(
        per_node <= BYTES_PER_NODE_BUDGET,
        "lazy layout regressed: {per_node} B/node resident ({resident} B total at {NODES} nodes), \
         budget {BYTES_PER_NODE_BUDGET} B/node"
    );
}

/// The barrier job's pinned final cycle and trace digest, recorded
/// before the deferral queues became `VecDeque`s and the idle check a
/// counter.
const BARRIER_FINAL_CYCLE: u64 = 3_344_616;
const BARRIER_DIGEST: u64 = 0xdef3_f210_5b45_f4b3;

#[test]
fn rack_wide_barrier_rounds_match_their_pin() {
    let cfg = MachineConfig::nodes(NODES).with_seed(0x5CA1E);
    let mut m = Machine::new(
        cfg,
        KernelKind::Cnk.build(),
        Box::new(dcmf::Dcmf::with_defaults()),
    );
    m.boot();
    m.launch(
        &JobSpec::new(AppImage::static_test("barrier-rack"), NODES, NodeMode::Smp),
        &mut |_r: Rank| {
            script(
                (0..3)
                    .flat_map(|_| [Op::Daxpy { n: 4096, reps: 8 }, Op::Comm(CommOp::Barrier)])
                    .collect(),
            )
        },
    )
    .unwrap();
    let out = m.run();
    assert_eq!(
        (out, m.trace_digest()),
        (
            RunOutcome::Completed {
                at: BARRIER_FINAL_CYCLE
            },
            BARRIER_DIGEST
        ),
        "rack-wide barrier diverged"
    );
    assert_eq!(m.check_invariants(), Vec::<String>::new());
}
