//! Property test for the event-reduction fast path: for random
//! topologies and workloads, retiring completions through the micro
//! run queue must be bit-identical to the reference heap path — same
//! trace digest, same final cycle.

use proptest::prelude::*;

use bgsim::ade::{AdeKernel, FixedLatencyComm};
use bgsim::machine::{Machine, WlEnv, Workload};
use bgsim::op::{ApiLayer, CommOp, Op, Protocol};
use bgsim::MachineConfig;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};

/// A fixed op script (same shape as the executor tests).
struct Script {
    ops: Vec<Op>,
    i: usize,
}

impl Workload for Script {
    fn next(&mut self, _env: &mut WlEnv<'_>) -> Op {
        if self.i >= self.ops.len() {
            return Op::End;
        }
        let op = std::mem::replace(&mut self.ops[self.i], Op::End);
        self.i += 1;
        op
    }
}

/// Build a machine running a random compute/ring-exchange workload.
fn exchange_machine(nodes: u32, seed: u64, cycles: &[u64], bytes: u64, fast_path: bool) -> Machine {
    let cfg = MachineConfig::nodes(nodes)
        .with_seed(seed)
        .with_trace()
        .with_fast_path(fast_path);
    let mut m = Machine::new(
        cfg,
        Box::new(AdeKernel::new()),
        Box::new(FixedLatencyComm::new()),
    );
    m.boot();
    let cycles = cycles.to_vec();
    m.launch(
        &JobSpec::new(AppImage::static_test("prop"), nodes, NodeMode::Smp),
        &mut move |r: Rank| {
            let peer = Rank((r.0 + 1) % nodes);
            let mut ops = Vec::new();
            for (i, &c) in cycles.iter().enumerate() {
                ops.push(Op::Compute { cycles: c });
                ops.push(Op::Comm(CommOp::Send {
                    to: peer,
                    bytes,
                    tag: i as u32,
                    proto: Protocol::Eager,
                    layer: ApiLayer::Dcmf,
                }));
                ops.push(Op::Comm(CommOp::Recv {
                    from: None,
                    tag: i as u32,
                    layer: ApiLayer::Dcmf,
                }));
            }
            Box::new(Script { ops, i: 0 }) as Box<dyn Workload>
        },
    )
    .unwrap();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event-reduction fast path is digest- and cycle-identical to
    /// the heap path, for random topologies and workloads.
    #[test]
    fn fast_path_digest_invariant(
        nodes in 2u32..5,
        seed in 0u64..1_000_000,
        cycles in prop::collection::vec(1u64..20_000, 1..5),
        bytes in 1u64..65_536,
    ) {
        let mut on = exchange_machine(nodes, seed, &cycles, bytes, true);
        let out_on = on.run();
        let mut off = exchange_machine(nodes, seed, &cycles, bytes, false);
        let out_off = off.run();
        prop_assert!(out_on.completed(), "{:?}", out_on);
        prop_assert_eq!(out_on.at(), out_off.at(), "final cycle diverged");
        prop_assert_eq!(on.trace_digest(), off.trace_digest(), "digest diverged");
    }
}
