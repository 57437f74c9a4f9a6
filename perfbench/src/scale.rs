//! `scale`: one CNK machine of 131 072 nodes with `fig_scale`'s seed and
//! configuration (3 FWQ quanta per node, telemetry off). `new`, `boot`
//! and `launch` are the set-up, `run` plus the readout the measured
//! phase. Every round builds a fresh machine.

use std::time::Instant;

use bgsim::machine::{Recorder, Workload};
use bgsim::MachineConfig;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};
use workloads::fwq::{FwqConfig, FwqSampler};

use crate::report::{vm_hwm, Report};
use crate::sim::{job_seed, run_job, Extra, Kern, Phases, Triple};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Opts;

const SEED: u64 = 0x5CA1E;
const QUANTA: u32 = 3;
const NODES: u32 = 131_072;
/// Smoke size: the largest `fig_scale` point that boots in well under
/// a second.
const SMOKE_NODES: u32 = 4096;

/// `BENCH_scale.json` pins: (nodes, digest, final cycle).
const PINS: [(u32, u64, u64); 2] = [
    (NODES, 0xd2b1_25ad_299f_d507, 1_976_991),
    (SMOKE_NODES, 0x4779_df4b_e6d4_fa16, 1_976_988),
];

struct Round {
    traced: bool,
    t: Phases,
    out: crate::sim::Counters,
}

pub fn run(o: &Opts, rep: &mut Report, tr: &mut Tracer) {
    let nodes = if o.smoke { SMOKE_NODES } else { NODES };
    let seed = job_seed(SEED, o.seed);
    let pin = PINS.iter().find(|p| p.0 == nodes).filter(|_| o.seed == 0);
    let min_rounds = if o.smoke { 2 } else { 3 };
    let mut reference: Option<Triple> = None;
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < o.seconds {
        let r = rounds.len();
        let traced = o.trace && r % 2 == 1;
        tr.set(traced);
        let cfg = MachineConfig::nodes(nodes).with_seed(seed);
        let spec = JobSpec::new(AppImage::static_test("fwq-scale"), nodes, NodeMode::Smp);
        let rec = Recorder::new();
        let mut factory = move |_r: Rank| {
            Box::new(FwqSampler::new(FwqConfig::quick(QUANTA), rec.clone(), 0)) as Box<dyn Workload>
        };
        let out = match run_job(
            tr,
            "scale",
            r as u64,
            cfg,
            Kern::Cnk,
            &spec,
            &mut factory,
            Extra::None,
        ) {
            Ok(out) => out,
            Err(e) => {
                rep.check(Some(e));
                continue;
            }
        };
        let mut err = None;
        if out.triple.0 != "completed" {
            err = Some(format!("round {r}: outcome {}", out.triple.0));
        }
        match &reference {
            None => reference = Some(out.triple.clone()),
            Some(t) if *t != out.triple => {
                err = err.or(Some(format!(
                    "round {r}: {:?} differs from round 0 {t:?}",
                    out.triple
                )));
            }
            Some(_) => {}
        }
        if let Some(&(_, digest, cycle)) = pin {
            let want = digest ^ u64::from(o.tamper_pin);
            if (out.triple.1, out.triple.2) != (cycle, want) {
                err = err.or(Some(format!(
                    "n{nodes}: (cycle {}, digest {:016x}) != pinned ({cycle}, {want:016x})",
                    out.triple.1, out.triple.2
                )));
            }
        }
        rep.check(err);
        rep.lines.push(format!(
            "[scale] round {r}{}: setup {:.4} s, run {:.4} s, readout {:.4} s",
            if traced { " (traced)" } else { "" },
            out.t.setup(),
            out.t.run,
            out.t.readout
        ));
        let mut counters = crate::sim::Counters::default();
        counters.add(&out);
        rounds.push(Round {
            traced,
            t: out.t,
            out: counters,
        });
    }
    tr.set(false);

    let col = |f: &dyn Fn(&Round) -> f64, traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(f)
            .collect()
    };
    let n = rounds.len();
    if !o.trace {
        let note = format!("median of {n} rounds, one {nodes}-node job each");
        rep.set(
            "setup_s",
            median(&col(&|r| r.t.setup(), false)),
            note.clone(),
        );
        rep.set("wall_s", median(&col(&|r| r.t.wall(), false)), note.clone());
        rep.set(
            "peak_rss_bytes",
            vm_hwm("self") as f64,
            "VmHWM of this process",
        );
        let lat = col(&|r| (r.t.setup() + r.t.wall()) * 1e3, false);
        let p50 = median(&lat);
        rep.set("latency_p50_ms", p50, format!("job new..readout, {note}"));
        rep.set(
            "latency_p99_ms",
            p50,
            format!("{n} jobs leave no tail with 10 samples beyond it: reports the median"),
        );
        rep.set(
            "jobs_per_s",
            median(&col(&|r| 1.0 / (r.t.setup() + r.t.wall()), false)),
            note,
        );
        return;
    }
    let traced = |f: &dyn Fn(&Round) -> f64| median(&col(f, true));
    let tnote = format!(
        "median of {} traced rounds",
        rounds.iter().filter(|r| r.traced).count()
    );
    rep.set("bgsim.new_s", traced(&|r| r.t.new), tnote.clone());
    rep.set("bgsim.boot_s", traced(&|r| r.t.boot), tnote.clone());
    rep.set("bgsim.launch_s", traced(&|r| r.t.launch), tnote.clone());
    rep.set("bgsim.run_s", traced(&|r| r.t.run), tnote.clone());
    rep.set("bgsim.readout_s", traced(&|r| r.t.readout), tnote);
    crate::layers::sim_counters(rep, &rounds[0].out, traced(&|r| r.t.run), "one machine");
    crate::layers::overhead(
        rep,
        traced(&|r| r.t.wall()),
        median(&col(&|r| r.t.wall(), false)),
    );
}
