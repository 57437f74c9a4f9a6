//! Shared experiment harness: one function per experiment, used by the
//! per-figure binaries and by the regression tests.

use bgsim::cycles::cycles_to_us;
use bgsim::fault::FaultSpec;
use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::op::{ApiLayer, CommOp, Op, Protocol};
use bgsim::script::wl;
use bgsim::telemetry::{MetricsRegistry, ProfileSnapshot, Scope, Slot, Tracepoint};
use bgsim::trace::TraceEvent;
use bgsim::MachineConfig;
use cnk::Cnk;
use dcmf::Dcmf;
use fwk::{Fwk, FwkConfig};
use sysabi::{AppImage, JobSpec, NodeId, NodeMode, Rank};
use workloads::allreduce::AllreduceLoop;
use workloads::fwq::{FwqConfig, FwqMain};
use workloads::linpack::{LinpackConfig, LinpackRank};
use workloads::nn_exchange::{throughput_mbs, NnExchange};

/// Which kernel an experiment runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelKind {
    Cnk,
    Fwk,
    /// FWK with all noise sources disabled (ablation).
    FwkNoiseless,
}

impl KernelKind {
    pub fn build(self) -> Box<dyn bgsim::Kernel> {
        match self {
            KernelKind::Cnk => Box::new(Cnk::with_defaults()),
            KernelKind::Fwk => Box::new(Fwk::with_defaults()),
            KernelKind::FwkNoiseless => Box::new(Fwk::new(FwkConfig::noiseless())),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Cnk => "CNK",
            KernelKind::Fwk => "Linux",
            KernelKind::FwkNoiseless => "Linux(no-noise)",
        }
    }
}

fn machine(kind: KernelKind, nodes: u32, seed: u64) -> Machine {
    Machine::new(
        MachineConfig::nodes(nodes).with_seed(seed).with_telemetry(),
        kind.build(),
        Box::new(Dcmf::with_defaults()),
    )
}

// ---- Figs. 5-7: FWQ ---------------------------------------------------------

/// Output of one FWQ run: the raw sample recorder plus the run's
/// telemetry registry, post-processed with a per-core
/// `fwq.sample_cycles` histogram (whose exact min/max/delta reproduce
/// the Fig. 5–7 max-delta table without touching the raw series).
pub struct FwqRun {
    pub rec: Recorder,
    pub stats: MetricsRegistry,
    /// Kernel tracepoints from the run (for `--trace-out` export).
    pub events: Vec<bgsim::telemetry::Tracepoint>,
    /// Rolling trace digest — bit-identical fast path on or off.
    pub digest: u64,
    /// Final simulated cycle of the run.
    pub final_cycle: u64,
    /// Heap events actually processed (the fast path retires most
    /// completions without one).
    pub sim_events: u64,
    /// Host wall seconds spent inside `Machine::run` only.
    pub wall_seconds: f64,
    /// Cycle-accounting profile (simulated quantities only, so it is
    /// bit-identical across host thread counts and profiler runs).
    pub profile: ProfileSnapshot,
}

impl FwqRun {
    /// Per-core sample histogram (`fwq.sample_cycles.core{c}`).
    pub fn core_hist(&self, core: u32) -> &bgsim::telemetry::Hist {
        self.stats
            .hist("fwq.sample_cycles", Slot::Core(core))
            .expect("fwq.sample_cycles registered by run_fwq")
    }
}

/// Run FWQ (4 threads on 4 cores, one node) with telemetry enabled;
/// the recorder carries series `fwq_core{0..3}` (per-sample cycles).
pub fn run_fwq(kind: KernelKind, samples: u32, seed: u64) -> FwqRun {
    run_fwq_opts(kind, samples, seed, true)
}

/// [`run_fwq`] with the event-reduction fast path selectable, plus wall
/// timing tightly around `Machine::run` — the measurement behind the
/// fast-path speedup numbers (`--no-fast-path` baselines).
pub fn run_fwq_opts(kind: KernelKind, samples: u32, seed: u64, fast_path: bool) -> FwqRun {
    run_fwq_faulted(kind, samples, seed, fast_path, &FaultSpec::None)
}

/// [`run_fwq_opts`] under a fault schedule (`--fault-seed` /
/// `--fault-script`). A faulted run is allowed to end without
/// completing (a machine check can kill the job); the digest and
/// counters are still meaningful outputs.
pub fn run_fwq_faulted(
    kind: KernelKind,
    samples: u32,
    seed: u64,
    fast_path: bool,
    faults: &FaultSpec,
) -> FwqRun {
    // Large runs get a small throwaway warmup first, so the timed run
    // measures steady state rather than process cold-start (text page
    // faults, allocator growth). Simulation outputs are deterministic
    // and unaffected; only `wall_seconds` is de-noised.
    if samples > 2_000 {
        let warm = run_fwq_faulted(kind, 2_000, seed, fast_path, faults);
        std::hint::black_box(warm.digest);
    }
    let mut m = Machine::new(
        faults.apply(
            MachineConfig::nodes(1)
                .with_seed(seed)
                .with_telemetry()
                .with_fast_path(fast_path),
        ),
        kind.build(),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("fwq"), 1, NodeMode::Smp),
        &mut move |_r: Rank| {
            Box::new(FwqMain::new(FwqConfig::quick(samples), rec2.clone(), 4)) as Box<dyn Workload>
        },
    )
    .unwrap();
    let t0 = std::time::Instant::now();
    let out = m.run();
    let wall_seconds = t0.elapsed().as_secs_f64();
    assert!(
        out.completed() || faults.is_active(),
        "FWQ did not complete: {out:?}"
    );
    // Fold the recorded samples into a registry histogram so consumers
    // (tables, --stats-out dumps) read one uniform source.
    let mut stats = m.sc.tel.take_metrics();
    let h = stats.histogram("fwq.sample_cycles", Scope::PerCore);
    for core in 0..4u32 {
        for v in rec.series(&format!("fwq_core{core}")) {
            stats.record(h, Slot::Core(core), v as u64);
        }
    }
    let events = m.sc.tel.events().to_vec();
    FwqRun {
        rec,
        stats,
        events,
        digest: m.trace_digest(),
        final_cycle: out.at(),
        sim_events: m.sc.engine.processed(),
        wall_seconds,
        profile: m.profile_snapshot(),
    }
}

// ---- Table I: protocol latencies --------------------------------------------

/// Rows of Table I with the paper's measured values (µs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LatencyRow {
    DcmfEagerOneWay,
    MpiEagerOneWay,
    MpiRendezvousOneWay,
    DcmfPut,
    DcmfGet,
    ArmciBlockingPut,
    ArmciBlockingGet,
}

impl LatencyRow {
    pub const ALL: [LatencyRow; 7] = [
        LatencyRow::DcmfEagerOneWay,
        LatencyRow::MpiEagerOneWay,
        LatencyRow::MpiRendezvousOneWay,
        LatencyRow::DcmfPut,
        LatencyRow::DcmfGet,
        LatencyRow::ArmciBlockingPut,
        LatencyRow::ArmciBlockingGet,
    ];

    pub fn paper_us(self) -> f64 {
        match self {
            LatencyRow::DcmfEagerOneWay => 1.6,
            LatencyRow::MpiEagerOneWay => 2.4,
            LatencyRow::MpiRendezvousOneWay => 5.6,
            LatencyRow::DcmfPut => 0.9,
            LatencyRow::DcmfGet => 1.6,
            LatencyRow::ArmciBlockingPut => 2.0,
            LatencyRow::ArmciBlockingGet => 3.3,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            LatencyRow::DcmfEagerOneWay => "DCMF Eager One-way",
            LatencyRow::MpiEagerOneWay => "MPI Eager One-way",
            LatencyRow::MpiRendezvousOneWay => "MPI Rendezvous One-way",
            LatencyRow::DcmfPut => "DCMF Put",
            LatencyRow::DcmfGet => "DCMF Get",
            LatencyRow::ArmciBlockingPut => "ARMCI blocking Put",
            LatencyRow::ArmciBlockingGet => "ARMCI blocking Get",
        }
    }
}

/// Measure one Table I row on CNK, 2 nodes, SMP mode, 8-byte payload.
pub fn measure_latency_us(row: LatencyRow) -> f64 {
    measure_latency_run(row).0
}

/// [`measure_latency_us`] plus the run's determinism/profile evidence
/// (digest, final cycle, events, tracepoints) for the Table I bin's
/// report and `--trace-out`.
pub fn measure_latency_run(row: LatencyRow) -> (f64, SimRun) {
    const PAYLOAD: u64 = 8;
    let mut m = Machine::new(
        MachineConfig::nodes(2)
            .with_seed(42)
            .with_trace()
            .with_telemetry(),
        Box::new(Cnk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("lat"), 2, NodeMode::Smp),
        &mut move |r: Rank| {
            let rec = rec2.clone();
            let mut step = 0;
            wl(move |env| {
                step += 1;
                if r.0 == 1 {
                    let is_send = matches!(
                        row,
                        LatencyRow::DcmfEagerOneWay
                            | LatencyRow::MpiEagerOneWay
                            | LatencyRow::MpiRendezvousOneWay
                    );
                    if !is_send {
                        return Op::End;
                    }
                    return match step {
                        1 => {
                            let layer = if row == LatencyRow::DcmfEagerOneWay {
                                ApiLayer::Dcmf
                            } else {
                                ApiLayer::Mpi
                            };
                            Op::Comm(CommOp::Recv {
                                from: Some(Rank(0)),
                                tag: 1,
                                layer,
                            })
                        }
                        _ => {
                            rec.record("recv_done", env.now() as f64);
                            Op::End
                        }
                    };
                }
                match step {
                    1 => Op::Compute { cycles: 50_000 },
                    2 => {
                        rec.record("issue", env.now() as f64);
                        match row {
                            LatencyRow::DcmfEagerOneWay => Op::Comm(CommOp::Send {
                                to: Rank(1),
                                bytes: PAYLOAD,
                                tag: 1,
                                proto: Protocol::Eager,
                                layer: ApiLayer::Dcmf,
                            }),
                            LatencyRow::MpiEagerOneWay => Op::Comm(CommOp::Send {
                                to: Rank(1),
                                bytes: PAYLOAD,
                                tag: 1,
                                proto: Protocol::Eager,
                                layer: ApiLayer::Mpi,
                            }),
                            LatencyRow::MpiRendezvousOneWay => Op::Comm(CommOp::Send {
                                to: Rank(1),
                                bytes: PAYLOAD,
                                tag: 1,
                                proto: Protocol::Rendezvous,
                                layer: ApiLayer::Mpi,
                            }),
                            LatencyRow::DcmfPut => Op::Comm(CommOp::Put {
                                to: Rank(1),
                                bytes: PAYLOAD,
                                layer: ApiLayer::Dcmf,
                                blocking: false,
                            }),
                            LatencyRow::DcmfGet => Op::Comm(CommOp::Get {
                                from: Rank(1),
                                bytes: PAYLOAD,
                                layer: ApiLayer::Dcmf,
                            }),
                            LatencyRow::ArmciBlockingPut => Op::Comm(CommOp::Put {
                                to: Rank(1),
                                bytes: PAYLOAD,
                                layer: ApiLayer::Armci,
                                blocking: true,
                            }),
                            LatencyRow::ArmciBlockingGet => Op::Comm(CommOp::Get {
                                from: Rank(1),
                                bytes: PAYLOAD,
                                layer: ApiLayer::Armci,
                            }),
                        }
                    }
                    3 => {
                        rec.record("op_done", env.now() as f64);
                        // Non-blocking put: outlive the remote completion.
                        Op::Compute { cycles: 20_000 }
                    }
                    _ => Op::End,
                }
            })
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{row:?}: {out:?}");
    let issue = rec.series("issue")[0];
    let cycles = match row {
        LatencyRow::DcmfEagerOneWay
        | LatencyRow::MpiEagerOneWay
        | LatencyRow::MpiRendezvousOneWay => rec.series("recv_done")[0] - issue,
        LatencyRow::DcmfGet | LatencyRow::ArmciBlockingPut | LatencyRow::ArmciBlockingGet => {
            rec.series("op_done")[0] - issue
        }
        LatencyRow::DcmfPut => {
            let arrival =
                m.sc.trace
                    .entries()
                    .iter()
                    .find_map(|e| match e.what {
                        TraceEvent::MsgRecv { dst: 1, bytes, .. } if bytes == PAYLOAD => {
                            Some(e.at as f64)
                        }
                        _ => None,
                    })
                    .expect("put data never arrived");
            arrival - issue
        }
    };
    let run = SimRun {
        mbs: 0.0,
        neighbors: 0,
        digest: m.trace_digest(),
        final_cycle: out.at(),
        events: m.sc.engine.processed(),
        profile: m.profile_snapshot(),
        tps: m.sc.tel.events().to_vec(),
    };
    (cycles_to_us(cycles as u64), run)
}

// ---- Fig. 8: near-neighbor rendezvous throughput -----------------------------

/// Run the exchange on `nodes` nodes at one message size; returns
/// (aggregate MB/s per node, neighbor count).
pub fn nn_throughput(kind: KernelKind, nodes: u32, bytes: u64, seed: u64) -> (f64, usize) {
    let run = nn_throughput_run(kind, nodes, bytes, seed);
    (run.mbs, run.neighbors)
}

/// Result of one near-neighbor-exchange simulation, carrying the
/// determinism evidence (trace digest, final cycle) and the host-side
/// accounting (events processed, simulated cycle span) alongside the
/// figure's bandwidth number.
#[derive(Clone, Debug)]
pub struct SimRun {
    pub mbs: f64,
    pub neighbors: usize,
    pub digest: u64,
    pub final_cycle: u64,
    pub events: u64,
    /// Cycle-accounting profile of the run (simulated quantities only).
    pub profile: ProfileSnapshot,
    /// Kernel tracepoints, when the run had telemetry on (for
    /// `--trace-out` export); empty otherwise.
    pub tps: Vec<Tracepoint>,
}

/// One NN-exchange simulation, fast path on, no faults.
pub fn nn_throughput_run(kind: KernelKind, nodes: u32, bytes: u64, seed: u64) -> SimRun {
    nn_throughput_run_faulted(kind, nodes, bytes, seed, true, &FaultSpec::None)
}

/// [`nn_throughput_run`] with the event-reduction fast path selectable
/// (`--no-fast-path` digest cross-checks) under a fault schedule. With
/// faults a rank can die before recording its sample; the bandwidth
/// then reads 0 and the digest/cycle outputs remain the run's evidence.
pub fn nn_throughput_run_faulted(
    kind: KernelKind,
    nodes: u32,
    bytes: u64,
    seed: u64,
    fast_path: bool,
    faults: &FaultSpec,
) -> SimRun {
    // Telemetry is pure observation (no event scheduling, no RNG), so
    // turning it on here leaves the pinned BENCH_*.json digests intact —
    // `tests/fault_injection.rs` re-checks that every run.
    let cfg = faults.apply(
        MachineConfig::nodes(nodes)
            .with_seed(seed)
            .with_telemetry()
            .with_fast_path(fast_path),
    );
    let torus = bgsim::torus::Torus::new(&cfg);
    let nb = torus.neighbors(NodeId(0)).len();
    let mut m = Machine::new(cfg, kind.build(), Box::new(Dcmf::with_defaults()));
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("nn"), nodes, NodeMode::Smp),
        &mut move |r: Rank| {
            let cfg = MachineConfig::nodes(nodes);
            let torus = bgsim::torus::Torus::new(&cfg);
            let neighbors: Vec<Rank> = torus
                .neighbors(NodeId(r.0))
                .into_iter()
                .map(|n| Rank(n.0))
                .collect();
            Box::new(NnExchange::new(r, neighbors, bytes, rec2.clone())) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed() || faults.is_active(), "{out:?}");
    let cycles = rec.series(&format!("nn_cycles_{bytes}")).first().copied();
    SimRun {
        mbs: cycles.map_or(0.0, |c| throughput_mbs(bytes, nb, c)),
        neighbors: nb,
        digest: m.trace_digest(),
        final_cycle: out.at(),
        events: m.sc.engine.processed(),
        profile: m.profile_snapshot(),
        tps: m.sc.tel.events().to_vec(),
    }
}

// ---- §V.D stability ----------------------------------------------------------

/// One LINPACK run; returns wall seconds (simulated).
pub fn linpack_seconds(kind: KernelKind, nodes: u32, cfg: LinpackConfig, seed: u64) -> f64 {
    linpack_run(kind, nodes, cfg, seed).0
}

/// [`linpack_seconds`] plus the run's determinism/profile evidence.
pub fn linpack_run(kind: KernelKind, nodes: u32, cfg: LinpackConfig, seed: u64) -> (f64, SimRun) {
    let mut m = machine(kind, nodes, seed);
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("hpl"), nodes, NodeMode::Smp),
        &mut move |r: Rank| Box::new(LinpackRank::new(cfg, r.0, rec2.clone())) as Box<dyn Workload>,
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    let run = SimRun {
        mbs: 0.0,
        neighbors: 0,
        digest: m.trace_digest(),
        final_cycle: out.at(),
        events: m.sc.engine.processed(),
        profile: m.profile_snapshot(),
        tps: m.sc.tel.events().to_vec(),
    };
    (rec.series("linpack_rank0")[0] / 850e6, run)
}

/// The allreduce loop; returns per-iteration times in µs.
pub fn allreduce_samples_us(kind: KernelKind, nodes: u32, iters: u32, seed: u64) -> Vec<f64> {
    allreduce_run(kind, nodes, iters, seed).0
}

/// Allreduce samples plus the run's determinism/host accounting: trace
/// digest, final cycle, and engine events processed.
pub fn allreduce_run(kind: KernelKind, nodes: u32, iters: u32, seed: u64) -> (Vec<f64>, SimRun) {
    let mut m = machine(kind, nodes, seed);
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    m.launch(
        &JobSpec::new(AppImage::static_test("mpibench"), nodes, NodeMode::Smp),
        &mut move |r: Rank| {
            Box::new(AllreduceLoop::new(iters, r.0, rec2.clone())) as Box<dyn Workload>
        },
    )
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{out:?}");
    let samples = rec
        .series("allreduce_cycles")
        .iter()
        .map(|c| c / 850.0)
        .collect();
    let run = SimRun {
        mbs: 0.0,
        neighbors: 0,
        digest: m.trace_digest(),
        final_cycle: out.at(),
        events: m.sc.engine.processed(),
        profile: m.profile_snapshot(),
        tps: m.sc.tel.events().to_vec(),
    };
    (samples, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn all_table1_rows_within_10_percent() {
        for row in LatencyRow::ALL {
            let got = measure_latency_us(row);
            let want = row.paper_us();
            let err = (got - want).abs() / want;
            assert!(err < 0.10, "{}: {got:.3} vs {want} us", row.label());
        }
    }

    #[test]
    fn fwq_contrast_cnk_vs_fwk() {
        let cnk = run_fwq(KernelKind::Cnk, 500, 1);
        let fwk = run_fwq(KernelKind::Fwk, 500, 1);
        let c0 = Summary::of(&cnk.rec.series("fwq_core0"));
        let f0 = Summary::of(&fwk.rec.series("fwq_core0"));
        assert!(c0.max_variation_frac() < 0.0001);
        assert!(f0.max_variation_frac() > c0.max_variation_frac() * 10.0);
        // The registry histogram agrees exactly with the raw series.
        assert_eq!(fwk.core_hist(0).min(), f0.min as u64);
        assert_eq!(fwk.core_hist(0).max(), f0.max as u64);
        assert_eq!(fwk.core_hist(0).count(), f0.n as u64);
        // The Linux run's kernel daemons show up in the noise metrics.
        assert!(
            fwk.stats
                .value("noise.events", Slot::Node(0))
                .is_some_and(|v| v > 0),
            "FWK run recorded no noise events"
        );
    }

    #[test]
    fn noiseless_fwk_sits_between() {
        let quiet = run_fwq(KernelKind::FwkNoiseless, 500, 2);
        let s = Summary::of(&quiet.rec.series("fwq_core0"));
        // No daemons: variation collapses to the hardware jitter band.
        assert!(s.max_variation_frac() < 0.0001, "{s:?}");
    }
}
