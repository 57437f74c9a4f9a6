//! `paper`: the paper's experiments as one fixed batch of in-process
//! simulations on one thread, repeated in rounds of identical jobs, with
//! telemetry on as the figure binaries run it. Five families, each on
//! CNK and on Linux (FWK):
//!
//! * FWQ, Figs. 5-7 (1 node x 4 cores);
//! * the Fig. 8 rendezvous sweep (64 nodes, 512 B to 4 MiB);
//! * the Section V.D allreduce and LINPACK runs;
//! * Section IV.A checkpoint I/O, function-shipped through CIOD on CNK
//!   and through the page cache on Linux.

use std::time::Instant;

use bgsim::machine::{Recorder, Workload};
use bgsim::MachineConfig;
use sysabi::{AppImage, JobSpec, NodeId, NodeMode, Rank};
use workloads::allreduce::AllreduceLoop;
use workloads::fwq::{FwqConfig, FwqMain};
use workloads::io_kernel::CheckpointApp;
use workloads::linpack::{LinpackConfig, LinpackRank};
use workloads::nn_exchange::NnExchange;

use crate::report::{vm_hwm, Report};
use crate::sim::{job_seed, run_job, Counters, Extra, Kern, Phases, Triple};
use crate::stats::{beyond, median, percentile};
use crate::trace::Tracer;
use crate::Opts;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Family {
    Fwq,
    Nn,
    Allreduce,
    Linpack,
    Io,
}

const FAMILIES: [Family; 5] = [
    Family::Fwq,
    Family::Nn,
    Family::Allreduce,
    Family::Linpack,
    Family::Io,
];

impl Family {
    fn label(self) -> &'static str {
        match self {
            Family::Fwq => "fwq",
            Family::Nn => "nn",
            Family::Allreduce => "allreduce",
            Family::Linpack => "linpack",
            Family::Io => "io",
        }
    }
}

/// Sizes. FWQ and Fig. 8 use the figure binaries' exact configurations,
/// so their digests can be held against the checked-in pins; the other
/// three are sized so each family costs roughly a fifth of a round.
const FWQ_SAMPLES: u32 = 12_000;
const FWQ_SEED: u64 = 0xF00D;
const NN_NODES: u32 = 64;
const NN_SEED: u64 = 8;
const ALLREDUCE_SEED: u64 = 0xA11;
const ALLREDUCE_CNK: (u32, u32) = (16, 6_000); // (nodes, iterations)
const ALLREDUCE_FWK: (u32, u32) = (4, 600);
const LINPACK_SEED: u64 = 0xB00;
const LINPACK: LinpackConfig = LinpackConfig {
    n: 4096,
    nb: 160,
    ranks: 16,
};
const IO_SEED: u64 = 0x10;
const IO_NODES: u32 = 8;
const IO_PHASES: u32 = 12;

/// Checked-in digests (BENCH_fastpath.json / BENCH_baseline.json) that
/// the default seed must reproduce.
const PIN_FWQ_CNK: u64 = 0x94ca_47ac_130a_17d3;
const PIN_FWQ_FWK: u64 = 0xb939_6794_b85d_d0b9;
const PIN_NN_ALL: u64 = 0x1b84_2987_eda4_0c49;

struct PJob {
    family: Family,
    kernel: Kern,
    nodes: u32,
    seed: u64,
    /// Message bytes (Fig. 8) or iterations (allreduce).
    param: u64,
}

fn plan(seed: u64) -> Vec<PJob> {
    let job = |family, kernel, nodes, pinned, param| PJob {
        family,
        kernel,
        nodes,
        seed: job_seed(pinned, seed),
        param,
    };
    let mut jobs = Vec::new();
    for k in [Kern::Cnk, Kern::Fwk] {
        jobs.push(job(Family::Fwq, k, 1, FWQ_SEED, 0));
    }
    for p in 9..=22 {
        for k in [Kern::Cnk, Kern::Fwk] {
            jobs.push(job(Family::Nn, k, NN_NODES, NN_SEED, 1u64 << p));
        }
    }
    let (cn, ci) = ALLREDUCE_CNK;
    let (fnodes, fi) = ALLREDUCE_FWK;
    jobs.push(job(
        Family::Allreduce,
        Kern::Cnk,
        cn,
        ALLREDUCE_SEED,
        ci as u64,
    ));
    jobs.push(job(
        Family::Allreduce,
        Kern::Fwk,
        fnodes,
        ALLREDUCE_SEED,
        fi as u64,
    ));
    for k in [Kern::Cnk, Kern::Fwk] {
        jobs.push(job(Family::Linpack, k, LINPACK.ranks, LINPACK_SEED, 0));
    }
    for k in [Kern::Cnk, Kern::Fwk] {
        jobs.push(job(Family::Io, k, IO_NODES, IO_SEED, 0));
    }
    jobs
}

/// Torus neighbor ranks of every rank of the Fig. 8 machine.
fn nn_neighbors() -> Vec<Vec<Rank>> {
    let torus = bgsim::torus::Torus::new(&MachineConfig::nodes(NN_NODES));
    (0..NN_NODES)
        .map(|r| {
            torus
                .neighbors(NodeId(r))
                .into_iter()
                .map(|n| Rank(n.0))
                .collect()
        })
        .collect()
}

fn factory(j: &PJob, nbrs: &[Vec<Rank>]) -> Box<dyn FnMut(Rank) -> Box<dyn Workload>> {
    let rec = Recorder::new();
    match j.family {
        Family::Fwq => Box::new(move |_r: Rank| {
            Box::new(FwqMain::new(FwqConfig::quick(FWQ_SAMPLES), rec.clone(), 4))
                as Box<dyn Workload>
        }),
        Family::Nn => {
            let bytes = j.param;
            let nbrs = nbrs.to_vec();
            Box::new(move |r: Rank| {
                Box::new(NnExchange::new(
                    r,
                    nbrs[r.idx()].clone(),
                    bytes,
                    rec.clone(),
                )) as Box<dyn Workload>
            })
        }
        Family::Allreduce => {
            let iters = j.param as u32;
            Box::new(move |r: Rank| {
                Box::new(AllreduceLoop::new(iters, r.0, rec.clone())) as Box<dyn Workload>
            })
        }
        Family::Linpack => Box::new(move |r: Rank| {
            Box::new(LinpackRank::new(LINPACK, r.0, rec.clone())) as Box<dyn Workload>
        }),
        Family::Io => Box::new(move |r: Rank| {
            Box::new(CheckpointApp::new(r.0, IO_PHASES, rec.clone())) as Box<dyn Workload>
        }),
    }
}

fn app_name(f: Family) -> &'static str {
    match f {
        Family::Fwq => "fwq",
        Family::Nn => "nn",
        Family::Allreduce => "mpibench",
        Family::Linpack => "hpl",
        Family::Io => "ckpt",
    }
}

/// Fold of the Fig. 8 digests in sweep order, as `fig8_throughput`
/// reports `digest.all`.
fn nn_fold(digests: impl Iterator<Item = u64>) -> u64 {
    digests.fold(0xcbf2_9ce4_8422_2325u64, |acc, d| {
        (acc ^ d).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct Round {
    traced: bool,
    t: Phases,
    family_run: [f64; 5],
    kernel_run: [f64; 2],
    counters: Counters,
}

pub fn run(o: &Opts, rep: &mut Report, tr: &mut Tracer) {
    let jobs = plan(o.seed);
    let nbrs = nn_neighbors();
    let pinned = o.seed == 0;
    let tamper = if o.tamper_pin { 1 } else { 0 };
    let min_rounds = if o.smoke {
        2
    } else {
        // Enough jobs that the pooled p99 has at least 10 beyond it.
        1010usize.div_ceil(jobs.len()).max(5)
    };
    let mut reference: Vec<Option<Triple>> = vec![None; jobs.len()];
    let mut rounds: Vec<Round> = Vec::new();
    let mut job_latency_ms: Vec<f64> = Vec::new();
    let start = Instant::now();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < o.seconds {
        let r = rounds.len();
        let traced = o.trace && r % 2 == 1;
        tr.set(traced);
        let rs = tr.begin("paper.round", "", r as u64);
        let mut round = Round {
            traced,
            t: Phases::default(),
            family_run: [0.0; 5],
            kernel_run: [0.0; 2],
            counters: Counters::default(),
        };
        let mut nn_digests = Vec::new();
        for (i, j) in jobs.iter().enumerate() {
            let id = (r * jobs.len() + i) as u64;
            let cfg = MachineConfig::nodes(j.nodes)
                .with_seed(j.seed)
                .with_telemetry();
            let spec = JobSpec::new(
                AppImage::static_test(app_name(j.family)),
                j.nodes,
                NodeMode::Smp,
            );
            let mut f = factory(j, &nbrs);
            let out = match run_job(
                tr,
                j.family.label(),
                id,
                cfg,
                j.kernel,
                &spec,
                &mut f,
                Extra::None,
            ) {
                Ok(out) => out,
                Err(e) => {
                    rep.check(Some(e));
                    continue;
                }
            };
            round.t.add(&out.t);
            round.family_run[j.family as usize] += out.t.run;
            round.kernel_run[(j.kernel == Kern::Fwk) as usize] += out.t.run;
            round.counters.add(&out);
            job_latency_ms.push((out.t.setup() + out.t.wall()) * 1e3);
            let name = format!("{}/{}/{}", j.family.label(), j.kernel.label(), j.param);
            let mut err =
                (out.triple.0 != "completed").then(|| format!("{name}: outcome {}", out.triple.0));
            match &reference[i] {
                None => reference[i] = Some(out.triple.clone()),
                Some(first) if *first != out.triple => {
                    err = err.or(Some(format!(
                        "{name} round {r}: {:?} differs from the first round's {first:?}",
                        out.triple
                    )));
                }
                Some(_) => {}
            }
            if pinned && j.family == Family::Fwq {
                let pin = if j.kernel == Kern::Cnk {
                    PIN_FWQ_CNK
                } else {
                    PIN_FWQ_FWK
                };
                if out.triple.2 != pin ^ tamper {
                    err = err.or(Some(format!(
                        "{name}: digest {:016x} != pinned {:016x}",
                        out.triple.2,
                        pin ^ tamper
                    )));
                }
            }
            if j.family == Family::Nn {
                nn_digests.push(out.triple.2);
            }
            rep.check(err);
        }
        if pinned {
            let all = nn_fold(nn_digests.into_iter());
            rep.check(
                (all != PIN_NN_ALL)
                    .then(|| format!("fig8 digest.all {all:016x} != pinned {PIN_NN_ALL:016x}")),
            );
        }
        tr.end(rs);
        rounds.push(round);
    }
    tr.set(false);
    report(o, rep, &rounds, &job_latency_ms, jobs.len());
}

fn report(o: &Opts, rep: &mut Report, rounds: &[Round], job_latency_ms: &[f64], per_round: usize) {
    let n = rounds.len();
    let col = |f: &dyn Fn(&Round) -> f64, traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(f)
            .collect()
    };
    let note = format!("median of {n} rounds of {per_round} jobs");
    if !o.trace {
        let setup = median(&col(&|r| r.t.setup(), false));
        let wall = median(&col(&|r| r.t.wall(), false));
        rep.set("setup_s", setup, note.clone());
        rep.set("wall_s", wall, note.clone());
        rep.set(
            "peak_rss_bytes",
            vm_hwm("self") as f64,
            "VmHWM of this process",
        );
        let jl = job_latency_ms;
        rep.set(
            "latency_p50_ms",
            percentile(jl, 0.5),
            format!("job new..readout, n={}", jl.len()),
        );
        rep.set(
            "latency_p99_ms",
            percentile(jl, 0.99),
            format!(
                "job new..readout, n={}, {} beyond",
                jl.len(),
                beyond(jl.len(), 0.99)
            ),
        );
        let per_s = col(&|r| per_round as f64 / (r.t.setup() + r.t.wall()), false);
        rep.set("jobs_per_s", median(&per_s), note);
        return;
    }
    let traced = |f: &dyn Fn(&Round) -> f64| median(&col(f, true));
    let tn = rounds.iter().filter(|r| r.traced).count();
    let tnote = format!("median of {tn} traced rounds");
    rep.set("bgsim.new_s", traced(&|r| r.t.new), tnote.clone());
    rep.set("bgsim.boot_s", traced(&|r| r.t.boot), tnote.clone());
    rep.set("bgsim.launch_s", traced(&|r| r.t.launch), tnote.clone());
    rep.set("bgsim.run_s", traced(&|r| r.t.run), tnote.clone());
    rep.set("bgsim.readout_s", traced(&|r| r.t.readout), tnote.clone());
    for f in FAMILIES {
        let name = format!("paper.{}.run_s", f.label());
        rep.set(&name, traced(&|r| r.family_run[f as usize]), tnote.clone());
    }
    rep.set(
        "paper.cnk.run_s",
        traced(&|r| r.kernel_run[0]),
        tnote.clone(),
    );
    rep.set(
        "paper.fwk.run_s",
        traced(&|r| r.kernel_run[1]),
        tnote.clone(),
    );
    crate::layers::sim_counters(rep, &rounds[0].counters, traced(&|r| r.t.run), "per round");
    crate::layers::overhead(
        rep,
        traced(&|r| r.t.wall()),
        median(&col(&|r| r.t.wall(), false)),
    );
}
