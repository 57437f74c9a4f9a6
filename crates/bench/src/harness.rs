//! Simulations shared by the experiments and the regression tests: one
//! function per workload family, each returning its figure value next to
//! the run's [`SimRun`] record.

use bgsim::cycles::cycles_to_us;
use bgsim::fault::FaultSpec;
use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::noise::NoiseSource;
use bgsim::op::{ApiLayer, CommOp, Op, Protocol};
use bgsim::script::wl;
use bgsim::telemetry::{MetricsRegistry, ProfileSnapshot, Scope, Slot};
use bgsim::trace::{TraceEntry, TraceEvent};
use bgsim::{Kernel, MachineConfig};
use cnk::{Cnk, CnkConfig};
use dcmf::Dcmf;
use fwk::{Fwk, FwkConfig};
use sysabi::{AppImage, JobSpec, NodeId, NodeMode, Rank};
use workloads::allreduce::AllreduceLoop;
use workloads::fwq::{FwqConfig, FwqMain, FwqSampler};
use workloads::io_kernel::CheckpointApp;
use workloads::linpack::{LinpackConfig, LinpackRank};
use workloads::nn_exchange::{throughput_mbs, NnExchange};
use workloads::nptl::PthreadCreate;

/// Which kernel an experiment runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelKind {
    Cnk,
    Fwk,
    /// FWK with all noise sources disabled (ablation).
    FwkNoiseless,
}

impl KernelKind {
    pub fn build(self) -> Box<dyn Kernel> {
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

/// The record of one finished simulation: its determinism evidence
/// (trace digest, final cycle), its host cost, and what its telemetry
/// observed. Experiments hand these to the runner, which merges the
/// profiles, sums cycles and events, and writes the kept trace entries
/// to `--trace-out`.
pub struct SimRun {
    pub digest: u64,
    pub final_cycle: u64,
    /// Heap events processed (the fast path retires most completions
    /// without one).
    pub events: u64,
    /// Host wall seconds spent inside `Machine::run` only.
    pub wall_seconds: f64,
    pub nodes: u32,
    /// Cycle-accounting profile (simulated quantities only, so it is
    /// bit-identical across host thread counts). Empty for a run with
    /// telemetry off: the rack sweep neither snapshots nor reports one.
    pub profile: ProfileSnapshot,
    /// The run's kept trace entries: empty unless its machine kept them
    /// (every simulation here takes a `trace` flag, which `--trace-out`
    /// sets).
    pub trace: Vec<TraceEntry>,
    /// The run's metrics registry, for the figures that read it.
    pub stats: MetricsRegistry,
}

impl SimRun {
    /// Run a booted, launched machine to its end and record it. The run
    /// must complete unless its machine carries a fault schedule: a
    /// machine check can kill a faulted job, and its digest and counters
    /// are still the run's evidence.
    pub fn run(m: &mut Machine) -> SimRun {
        let t0 = std::time::Instant::now();
        let out = m.run();
        let wall_seconds = t0.elapsed().as_secs_f64();
        assert!(
            out.completed() || !m.sc.cfg.faults.is_empty(),
            "run did not complete: {out:?}"
        );
        SimRun {
            digest: m.trace_digest(),
            final_cycle: out.at(),
            events: m.sc.engine.processed(),
            wall_seconds,
            nodes: m.sc.cfg.nodes,
            profile: if m.sc.tel.enabled() {
                m.profile_snapshot()
            } else {
                ProfileSnapshot::default()
            },
            trace: m.sc.trace.entries().to_vec(),
            stats: m.sc.tel.take_metrics(),
        }
    }
}

/// The machine of a harness simulation: `nodes` nodes with telemetry
/// on, keeping its trace entries only when `trace` asks (`--trace-out`).
pub(crate) fn machine_config(nodes: u32, seed: u64, trace: bool) -> MachineConfig {
    MachineConfig {
        trace_events: trace,
        ..MachineConfig::nodes(nodes).with_seed(seed).with_telemetry()
    }
}

/// Boot a machine with DCMF messaging and launch one SMP job of `ranks`
/// ranks of `app` on it.
pub(crate) fn launched(
    cfg: MachineConfig,
    kernel: Box<dyn Kernel>,
    app: &str,
    ranks: u32,
    mut workload: impl FnMut(Rank) -> Box<dyn Workload>,
) -> Machine {
    let mut m = Machine::new(cfg, kernel, Box::new(Dcmf::with_defaults()));
    m.boot();
    m.launch(
        &JobSpec::new(AppImage::static_test(app), ranks, NodeMode::Smp),
        &mut workload,
    )
    .expect("the job fits the machine");
    m
}

fn fwq_series(rec: &Recorder) -> Vec<Vec<f64>> {
    (0..4)
        .map(|c| rec.series(&format!("fwq_core{c}")))
        .collect()
}

// ---- Figs. 5-7: FWQ ---------------------------------------------------------

/// Run FWQ (4 threads on 4 cores, one node) with telemetry on. Returns
/// the per-core sample series and the run, whose registry gains a
/// per-core `fwq.sample_cycles` histogram (its exact min/max/delta
/// reproduce the Fig. 5–7 max-delta table). `fast_path` selects the
/// event-reduction fast path (`--no-fast-path` baselines it), and
/// `trace` keeps the run's trace entries.
pub fn run_fwq(
    kind: KernelKind,
    samples: u32,
    seed: u64,
    fast_path: bool,
    trace: bool,
    faults: &FaultSpec,
) -> (Vec<Vec<f64>>, SimRun) {
    // Large runs get a small throwaway warmup first, so the timed run
    // measures steady state rather than process cold-start (text page
    // faults, allocator growth). Simulation outputs are deterministic
    // and unaffected; only `wall_seconds` is de-noised.
    if samples > 2_000 {
        let warm = run_fwq(kind, 2_000, seed, fast_path, false, faults);
        std::hint::black_box(warm.1.digest);
    }
    let cfg = machine_config(1, seed, trace).with_fast_path(fast_path);
    let (series, mut run) = fwq(kind.build(), faults.apply(cfg), samples);
    let h = run.stats.histogram("fwq.sample_cycles", Scope::PerCore);
    for (core, s) in (0u32..).zip(&series) {
        for &v in s {
            run.stats.record(h, Slot::Core(core), v as u64);
        }
    }
    (series, run)
}

/// FWQ's main program on one node under any kernel: per-core series
/// `fwq_core{0..3}` and the run.
pub(crate) fn fwq(
    kernel: Box<dyn Kernel>,
    cfg: MachineConfig,
    samples: u32,
) -> (Vec<Vec<f64>>, SimRun) {
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let mut m = launched(cfg, kernel, "fwq", 1, move |_r| {
        Box::new(FwqMain::new(FwqConfig::quick(samples), rec2.clone(), 4))
    });
    let run = SimRun::run(&mut m);
    (fwq_series(&rec), run)
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

/// Measure one Table I row on CNK, 2 nodes, SMP mode, 8-byte payload;
/// returns the latency in µs and the run. The put row reads the data's
/// arrival off the run's trace, so it keeps its entries whatever `trace`
/// says.
pub fn measure_latency_us(row: LatencyRow, trace: bool) -> (f64, SimRun) {
    const PAYLOAD: u64 = 8;
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let cfg = machine_config(2, 42, trace || row == LatencyRow::DcmfPut);
    let mut m = launched(cfg, Box::new(Cnk::with_defaults()), "lat", 2, move |r| {
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
    });
    let run = SimRun::run(&mut m);
    let issue = rec.series("issue")[0];
    let cycles = match row {
        LatencyRow::DcmfEagerOneWay
        | LatencyRow::MpiEagerOneWay
        | LatencyRow::MpiRendezvousOneWay => rec.series("recv_done")[0] - issue,
        LatencyRow::DcmfGet | LatencyRow::ArmciBlockingPut | LatencyRow::ArmciBlockingGet => {
            rec.series("op_done")[0] - issue
        }
        LatencyRow::DcmfPut => {
            let arrival = run
                .trace
                .iter()
                .find_map(|e| match e.what {
                    TraceEvent::MsgRecv { bytes, .. } if e.node == 1 && bytes == PAYLOAD => {
                        Some(e.at as f64)
                    }
                    _ => None,
                })
                .expect("put data never arrived");
            arrival - issue
        }
    };
    (cycles_to_us(cycles as u64), run)
}

// ---- Fig. 8: near-neighbor rendezvous throughput -----------------------------

/// Distinct torus neighbors of a node on an `nodes`-node machine.
pub fn torus_neighbors(nodes: u32) -> usize {
    bgsim::torus::Torus::new(&MachineConfig::nodes(nodes))
        .neighbors(NodeId(0))
        .len()
}

/// Run the near-neighbor exchange on `nodes` nodes at one message size;
/// returns the aggregate MB/s per node and the run. With faults a rank
/// can die before recording its sample; the bandwidth then reads 0 and
/// the digest and cycle remain the run's evidence.
pub fn nn_throughput(
    kind: KernelKind,
    nodes: u32,
    bytes: u64,
    seed: u64,
    fast_path: bool,
    trace: bool,
    faults: &FaultSpec,
) -> (f64, SimRun) {
    // Telemetry is pure observation (no event scheduling, no RNG), so
    // turning it on here leaves the pinned BENCH_*.json digests intact —
    // `tests/fault_injection.rs` re-checks that every run.
    let cfg = machine_config(nodes, seed, trace).with_fast_path(fast_path);
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let mut m = launched(faults.apply(cfg), kind.build(), "nn", nodes, move |r| {
        let torus = bgsim::torus::Torus::new(&MachineConfig::nodes(nodes));
        let neighbors: Vec<Rank> = torus
            .neighbors(NodeId(r.0))
            .into_iter()
            .map(|n| Rank(n.0))
            .collect();
        Box::new(NnExchange::new(r, neighbors, bytes, rec2.clone()))
    });
    let run = SimRun::run(&mut m);
    let cycles = rec.series(&format!("nn_cycles_{bytes}")).first().copied();
    let nb = torus_neighbors(nodes);
    (cycles.map_or(0.0, |c| throughput_mbs(bytes, nb, c)), run)
}

// ---- §V.D stability ----------------------------------------------------------

/// One LINPACK run; returns its simulated wall seconds and the run.
pub fn linpack_seconds(
    kind: KernelKind,
    nodes: u32,
    cfg: LinpackConfig,
    seed: u64,
    trace: bool,
) -> (f64, SimRun) {
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let mcfg = machine_config(nodes, seed, trace);
    let mut m = launched(mcfg, kind.build(), "hpl", nodes, move |r| {
        Box::new(LinpackRank::new(cfg, r.0, rec2.clone()))
    });
    let run = SimRun::run(&mut m);
    (rec.series("linpack_rank0")[0] / 850e6, run)
}

/// The allreduce loop; returns per-iteration times in µs and the run.
pub fn allreduce_us(
    kind: KernelKind,
    nodes: u32,
    iters: u32,
    seed: u64,
    trace: bool,
) -> (Vec<f64>, SimRun) {
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let cfg = machine_config(nodes, seed, trace);
    let mut m = launched(cfg, kind.build(), "mpibench", nodes, move |r| {
        Box::new(AllreduceLoop::new(iters, r.0, rec2.clone()))
    });
    let run = SimRun::run(&mut m);
    let samples = rec
        .series("allreduce_cycles")
        .iter()
        .map(|c| c / 850.0)
        .collect();
    (samples, run)
}

// ---- §V.A noise injection ----------------------------------------------------

/// A bulk-synchronous loop on CNK with `noise` injected: `iters`
/// iterations of a 1 ms compute quantum plus an 8-byte allreduce.
/// Returns rank 0's total cycles and the run.
pub fn bsp_runtime(
    nodes: u32,
    noise: Vec<NoiseSource>,
    iters: u32,
    seed: u64,
    trace: bool,
) -> (u64, SimRun) {
    let kernel = Cnk::new(CnkConfig {
        injected_noise: noise,
        ..CnkConfig::default()
    });
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let cfg = machine_config(nodes, seed, trace);
    let mut m = launched(cfg, Box::new(kernel), "bsp", nodes, move |r| {
        let rec = rec2.clone();
        let mut i = 0;
        let mut t0 = None;
        wl(move |env| {
            if t0.is_none() {
                t0 = Some(env.now());
            }
            i += 1;
            if i > 2 * iters {
                if r.0 == 0 {
                    rec.record("total", (env.now() - t0.unwrap()) as f64);
                }
                return Op::End;
            }
            if i % 2 == 1 {
                // 1 ms work quantum.
                Op::Compute { cycles: 850_000 }
            } else {
                Op::Comm(CommOp::Allreduce { bytes: 8 })
            }
        })
    });
    let run = SimRun::run(&mut m);
    (rec.series("total")[0] as u64, run)
}

// ---- §IV.A I/O offload -------------------------------------------------------

/// One node: FWQ samplers on cores 1-3 while the main thread on core 0
/// writes `checkpoints` checkpoints (0: it ends once the samplers are
/// spawned). Returns the per-core FWQ series (core 0's is empty) and
/// the run.
pub fn io_fwq(
    kind: KernelKind,
    samples: u32,
    checkpoints: u32,
    seed: u64,
    trace: bool,
    faults: &FaultSpec,
) -> (Vec<Vec<f64>>, SimRun) {
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let cfg = machine_config(1, seed, trace);
    let mut m = launched(faults.apply(cfg), kind.build(), "io-fwq", 1, move |_r| {
        let rec = rec2.clone();
        let mut creates: Vec<PthreadCreate> = (1..4)
            .map(|core| {
                PthreadCreate::new(
                    Box::new(FwqSampler::new(
                        FwqConfig::quick(samples),
                        rec.clone(),
                        core,
                    )),
                    Some(core),
                )
            })
            .collect();
        let mut io: Option<CheckpointApp> = None;
        let mut done_spawning = false;
        wl(move |env| {
            if !done_spawning {
                while let Some(c) = creates.first_mut() {
                    if let Some(op) = c.step(env) {
                        return op;
                    }
                    let finished = creates.remove(0);
                    assert!(finished.created.is_some(), "{:?}", finished.error);
                }
                done_spawning = true;
                if checkpoints > 0 {
                    io = Some(CheckpointApp::new(0, checkpoints, Recorder::new()));
                }
            }
            match io.as_mut() {
                Some(app) => app.next(env),
                None => Op::End,
            }
        })
    });
    let run = SimRun::run(&mut m);
    (fwq_series(&rec), run)
}

/// Every rank of an `nodes`-node CNK job writes `phases` checkpoints at
/// once through one I/O node, served by per-process ioproxies (BG/P) or
/// one serialized CIOD thread (`bgl`). Returns every checkpoint's I/O
/// cycles and the run.
pub fn checkpoint_io(
    nodes: u32,
    bgl: bool,
    phases: u32,
    seed: u64,
    trace: bool,
) -> (Vec<f64>, SimRun) {
    let mut cfg = machine_config(nodes, seed, trace);
    cfg.io_ratio = nodes; // one ION for the whole pset: worst case
    let kernel = Cnk::new(CnkConfig {
        bgl_io_mode: bgl,
        ..CnkConfig::default()
    });
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let mut m = launched(cfg, Box::new(kernel), "ckpt", nodes, move |r| {
        Box::new(CheckpointApp::new(r.0, phases, rec2.clone()))
    });
    let run = SimRun::run(&mut m);
    let samples = (0..nodes)
        .flat_map(|r| rec.series(&format!("ckpt_io_cycles_rank{r}")))
        .collect();
    (samples, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn all_table1_rows_within_10_percent() {
        for row in LatencyRow::ALL {
            let (got, _) = measure_latency_us(row, false);
            let want = row.paper_us();
            let err = (got - want).abs() / want;
            assert!(err < 0.10, "{}: {got:.3} vs {want} us", row.label());
        }
    }

    #[test]
    fn fwq_contrast_cnk_vs_fwk() {
        let (cnk, _) = run_fwq(KernelKind::Cnk, 500, 1, true, false, &FaultSpec::None);
        let (fwk_series, fwk) = run_fwq(KernelKind::Fwk, 500, 1, true, false, &FaultSpec::None);
        let c0 = Summary::of(&cnk[0]);
        let f0 = Summary::of(&fwk_series[0]);
        assert!(c0.max_variation_frac() < 0.0001);
        assert!(f0.max_variation_frac() > c0.max_variation_frac() * 10.0);
        // The registry histogram agrees exactly with the raw series.
        let h = fwk.stats.hist("fwq.sample_cycles", Slot::Core(0)).unwrap();
        assert_eq!(h.min(), f0.min as u64);
        assert_eq!(h.max(), f0.max as u64);
        assert_eq!(h.count(), f0.n as u64);
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
        let (quiet, _) = run_fwq(
            KernelKind::FwkNoiseless,
            500,
            2,
            true,
            false,
            &FaultSpec::None,
        );
        let s = Summary::of(&quiet[0]);
        // No daemons: variation collapses to the hardware jitter band.
        assert!(s.max_variation_frac() < 0.0001, "{s:?}");
    }
}
