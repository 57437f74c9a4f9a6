//! The paper's experiments, one function each, and the runner that
//! gives them one report path.
//!
//! [`EXPERIMENTS`] lists every experiment with its positional argument
//! and the shared flags it honours; `bgbench <experiment>` looks it up
//! ([`crate::cli::Command`]) and calls [`run`]. An experiment prints its
//! tables and fills [`Ctx::report`] with its figure scalars and digests,
//! and hands each finished simulation to [`Ctx::add`] or
//! [`Ctx::traced`]. The runner adds everything else: the wall clock,
//! the merged profile, the cycle and event totals, the `--trace-out`
//! files, the `--monitor-out` snapshots and the host blocks.

use std::sync::Mutex;
use std::time::Instant;

use bgsim::ade::FixedLatencyComm;
use bgsim::config::L2BankMap;
use bgsim::features::{Capability, FeatureEntry, FeatureMatrix};
use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::noise::NoiseSource;
use bgsim::op::{ApiLayer, CommOp, Op, Protocol};
use bgsim::scan::{ScanTarget, Waveform};
use bgsim::script::script;
use bgsim::telemetry::{ProfileSnapshot, Slot};
use bgsim::trace::TraceEvent;
use bgsim::{ChipConfig, MachineConfig};
use cnk::mem::{partition_node, ProcRequirements};
use cnk::Cnk;
use fwk::noise::linux_2_6_16_profile;
use fwk::{Fwk, FwkConfig};
use sysabi::{AppImage, JobSpec, NodeMode, Rank};
use workloads::fwq::{FwqConfig, FwqSampler};
use workloads::linpack::LinpackConfig;

use crate::cli::{Arg, Cli, Command};
use crate::harness::{
    allreduce_us, bsp_runtime, checkpoint_io, fwq, io_fwq, launched, linpack_seconds,
    machine_config, measure_latency_us, nn_throughput, run_fwq, torus_neighbors, KernelKind,
    LatencyRow, SimRun,
};
use crate::monitor::Monitor;
use crate::par::run_shards;
use crate::report::{chrome_trace_json, emit_traces_or_exit, peak_rss_bytes, Report};
use crate::stats::Summary;
use crate::table::render;

/// One experiment the runner knows.
pub struct Experiment {
    /// The `bgbench` subcommand, the report's `"bench"` value and the
    /// monitor's bench name.
    pub name: &'static str,
    pub arg: Arg,
    /// The flags it honours beyond the output flags.
    pub flags: &'static [&'static str],
    /// Calls the experiment with the checked positional values.
    pub run: fn(&mut Ctx, &[u32]),
}

const ALL_FLAGS: &[&str] = &[
    "--threads",
    "--no-fast-path",
    "--fault-seed",
    "--fault-script",
    "--monitor-out",
];

const fn count(what: &'static str, default: u32) -> Arg {
    Arg::One {
        what,
        range: 1..=u32::MAX,
        default,
    }
}

/// Every experiment, in the order of the paper's artifacts.
pub static EXPERIMENTS: [Experiment; 15] = [
    Experiment {
        name: "fig5_7_fwq",
        arg: count("a sample count", 12_000),
        flags: ALL_FLAGS,
        run: |ctx, a| fig5_7_fwq(ctx, a[0]),
    },
    Experiment {
        name: "table1_latency",
        arg: Arg::None,
        flags: &[],
        run: |ctx, _| table1_latency(ctx),
    },
    Experiment {
        name: "fig8_throughput",
        arg: Arg::None,
        flags: ALL_FLAGS,
        run: |ctx, _| fig8_throughput(ctx),
    },
    Experiment {
        name: "stability_linpack",
        arg: count("a run count", 36),
        flags: &[],
        run: |ctx, a| stability_linpack(ctx, a[0]),
    },
    Experiment {
        name: "stability_allreduce",
        arg: Arg::One {
            what: "a divisor",
            range: 1..=100_000,
            default: 20,
        },
        flags: &["--threads"],
        run: |ctx, a| stability_allreduce(ctx, a[0]),
    },
    Experiment {
        name: "table2_3_features",
        arg: Arg::None,
        flags: &[],
        run: |ctx, _| table2_3_features(ctx),
    },
    Experiment {
        name: "boot_time",
        arg: Arg::None,
        flags: &[],
        run: |ctx, _| boot_time(ctx),
    },
    Experiment {
        name: "repro_bringup",
        arg: Arg::None,
        flags: &[],
        run: |ctx, _| repro_bringup(ctx),
    },
    Experiment {
        name: "noise_ablation",
        arg: count("a sample count", 4_000),
        flags: &[],
        run: |ctx, a| noise_ablation(ctx, a[0]),
    },
    Experiment {
        name: "noise_injection",
        arg: count("an iteration count", 1_500),
        flags: &[],
        run: |ctx, a| noise_injection(ctx, a[0]),
    },
    Experiment {
        name: "io_noise",
        arg: count("a sample count", 4_000),
        flags: &["--fault-seed", "--fault-script"],
        run: |ctx, a| io_noise(ctx, a[0]),
    },
    Experiment {
        name: "io_proxy_ablation",
        arg: Arg::None,
        flags: &[],
        run: |ctx, _| io_proxy_ablation(ctx),
    },
    Experiment {
        name: "l2_bank_ablation",
        arg: Arg::None,
        flags: &[],
        run: |ctx, _| l2_bank_ablation(ctx),
    },
    Experiment {
        name: "page_size_ablation",
        arg: Arg::None,
        flags: &[],
        run: |ctx, _| page_size_ablation(ctx),
    },
    Experiment {
        name: "fig_scale",
        arg: Arg::NodeCounts {
            default: &[64, 1024, 4096, 32_768, 131_072],
        },
        flags: &["--threads", "--no-fast-path"],
        run: fig_scale,
    },
];

/// What an experiment works with: the flags, the report it fills, and
/// the tally of the runs it hands over.
pub struct Ctx<'a> {
    pub cli: &'a Cli,
    /// Figure scalars, digests and registries.
    pub report: Report,
    monitor: Option<Mutex<(Monitor, ProfileSnapshot, usize)>>,
    profile: ProfileSnapshot,
    cycles: u64,
    events: u64,
    nodes: u32,
    traces: Vec<(String, String)>,
}

impl Ctx<'_> {
    /// Count a finished run into the report's profile and host totals.
    pub fn add(&mut self, run: &SimRun) {
        self.profile.merge(&run.profile);
        self.cycles += run.final_cycle;
        self.events += run.events;
        self.nodes = self.nodes.max(run.nodes);
    }

    /// Whether a run this experiment hands to [`Ctx::traced`] must keep
    /// its trace entries: only under `--trace-out`.
    pub fn keep_trace(&self) -> bool {
        self.cli.trace_out.is_some()
    }

    /// [`Ctx::add`], and write the run's kept trace entries as the
    /// `--trace-out` part `suffix`: `trace.json` + `"cnk"` writes
    /// `trace.cnk.json`, and an empty suffix writes the path as-is.
    pub fn traced(&mut self, suffix: &str, run: &SimRun) {
        self.add(run);
        if self.keep_trace() {
            self.traces
                .push((suffix.to_string(), chrome_trace_json(&run.trace)));
        }
    }

    /// Run independent simulations on the `--threads` pool, results in
    /// job order. Under `--monitor-out` every finished job merges its
    /// profile into the live view and publishes it: the lines follow
    /// host completion order, but the last one merges every job and
    /// merging is commutative, so it is deterministic.
    pub fn shards<T, F>(&self, jobs: Vec<F>) -> Vec<(T, SimRun)>
    where
        T: Send,
        F: FnOnce() -> (T, SimRun) + Send,
    {
        let total = jobs.len();
        let monitor = &self.monitor;
        let jobs: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                move || {
                    let out = job();
                    if let Some(mon) = monitor {
                        let mut guard = mon.lock().expect("a publishing shard panicked");
                        let (m, acc, done) = &mut *guard;
                        acc.merge(&out.1.profile);
                        *done += 1;
                        m.publish(*done, total, acc, None);
                    }
                    out
                }
            })
            .collect();
        run_shards(self.cli.threads, jobs)
    }
}

/// Run one experiment and write its report.
pub fn run(cmd: &Command) {
    let (cli, name) = (&cmd.cli, cmd.experiment.name);
    let monitor = Monitor::from_cli_or_exit(cli, name)
        .map(|m| Mutex::new((m, ProfileSnapshot::default(), 0)));
    let mut ctx = Ctx {
        cli,
        report: Report::new(name),
        monitor,
        profile: ProfileSnapshot::default(),
        cycles: 0,
        events: 0,
        nodes: 0,
        traces: Vec::new(),
    };
    let t0 = Instant::now();
    (cmd.experiment.run)(&mut ctx, &cmd.args);
    let wall = t0.elapsed().as_secs_f64();
    let Ctx {
        mut report,
        profile,
        cycles,
        events,
        nodes,
        mut traces,
        ..
    } = ctx;
    report.profile(&profile);
    report.host_perf(cli.threads, wall, cycles, events);
    // An experiment without traced runs still writes a valid empty
    // trace, so the flag behaves the same everywhere.
    if traces.is_empty() {
        traces.push((String::new(), chrome_trace_json(&[])));
    }
    emit_traces_or_exit(cli, &traces);
    report.host_mem(nodes.into());
    report.emit_or_exit(cli);
}

/// A report key from a row label: lowercase, non-alphanumerics as `_`.
fn key_of(label: &str) -> String {
    label
        .to_lowercase()
        .replace(|c: char| !c.is_ascii_alphanumeric(), "_")
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

// ---- Figs. 5-7: FWQ ---------------------------------------------------------

/// Figs. 5–7: the FWQ noise benchmark under Linux and CNK — `samples`
/// quanta of the 658,958-cycle DAXPY on each of the four cores. Prints
/// per-core summaries (the paper's numbers below them) and a histogram
/// of the CNK samples at single-cycle resolution (the "zoomed Y axis"
/// of Fig. 7). The table is read off the runs' per-core
/// `fwq.sample_cycles` histograms, and the report carries both
/// kernels' registries, including their own `noise.cycles` histograms.
///
/// The two kernel runs are independent shards. The report carries
/// per-kernel `host.{linux,cnk}.sim_cycles_per_sec` and digests, so
/// `--no-fast-path` baselines the speedup of the event-reduction fast
/// path and cross-checks that its digests match the heap path exactly.
pub fn fig5_7_fwq(ctx: &mut Ctx, samples: u32) {
    let (fast, trace) = (ctx.cli.fast_path, ctx.keep_trace());
    let faults = ctx.cli.fault_spec_for(1); // single-node FWQ runs
    println!(
        "== FWQ (Fixed Work Quanta), {samples} samples/core, 4 cores, 1 node{} ==\n",
        if fast { "" } else { " [no fast path]" }
    );
    const KINDS: [KernelKind; 2] = [KernelKind::Fwk, KernelKind::Cnk];
    let shards = ctx.shards(
        KINDS
            .iter()
            .map(|&kind| {
                let faults = faults.clone();
                move || run_fwq(kind, samples, 0xF00D, fast, trace, &faults)
            })
            .collect(),
    );
    ctx.report
        .scalar("config.fast_path", if fast { 1.0 } else { 0.0 });
    let mut rows = Vec::new();
    let mut cnk_all: Vec<f64> = Vec::new();
    for (&kind, (series, run)) in KINDS.iter().zip(shards) {
        let key = if kind == KernelKind::Cnk {
            "cnk"
        } else {
            "linux"
        };
        for core in 0..4u32 {
            let h = run
                .stats
                .hist("fwq.sample_cycles", Slot::Core(core))
                .expect("fwq.sample_cycles registered by run_fwq");
            let (min, max, delta) = (h.min(), h.max(), h.delta());
            let variation = if min > 0 {
                delta as f64 / min as f64
            } else {
                0.0
            };
            let report = &mut ctx.report;
            report.scalar(&format!("{key}.core{core}.min_cycles"), min as f64);
            report.scalar(&format!("{key}.core{core}.max_cycles"), max as f64);
            report.scalar(&format!("{key}.core{core}.max_delta"), delta as f64);
            rows.push(vec![
                kind.label().to_string(),
                format!("core {core}"),
                format!("{min}"),
                format!("{max}"),
                format!("{delta}"),
                format!("{:.4}%", variation * 100.0),
            ]);
        }
        if kind == KernelKind::Cnk {
            cnk_all = series.concat();
        }
        // The determinism and host-throughput evidence, per kernel: the
        // digest must be bit-identical with and without `--no-fast-path`,
        // while `host.<kernel>.sim_cycles_per_sec` shows the speedup.
        let report = &mut ctx.report;
        report.string(&format!("digest.{key}"), &hex(run.digest));
        report.scalar(&format!("host.{key}.wall_seconds"), run.wall_seconds);
        report.scalar(&format!("host.{key}.sim_cycles"), run.final_cycle as f64);
        report.scalar(&format!("host.{key}.events"), run.events as f64);
        if run.wall_seconds > 0.0 {
            report.scalar(
                &format!("host.{key}.sim_cycles_per_sec"),
                run.final_cycle as f64 / run.wall_seconds,
            );
        }
        ctx.traced(key, &run);
        ctx.report.registry(key, run.stats);
    }
    println!(
        "{}",
        render(
            &[
                "kernel",
                "core",
                "min cycles",
                "max cycles",
                "max delta",
                "max variation"
            ],
            &rows
        )
    );
    println!("paper: min 658,958 on both kernels;");
    println!("paper Linux max deltas: core0 38,076  core1 10,194  core2 42,000  core3 36,470 (>5% on 0,2,3)");
    println!("paper CNK: maximum variation < 0.006%\n");

    // Fig. 7: the zoomed view of CNK samples.
    let min = cnk_all.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut hist = [0usize; 5];
    for &v in &cnk_all {
        let d = (v - min) as usize;
        hist[(d / 10).min(4)] += 1;
    }
    println!("CNK sample distribution above minimum (Fig. 7 zoom):");
    for (i, h) in hist.iter().enumerate() {
        let lo = i * 10;
        let label = if i == 4 {
            format!("{lo}+ cycles")
        } else {
            format!("{lo}-{} cycles", lo + 9)
        };
        println!("  +{label:<14} {h:>7} samples");
    }
}

// ---- Table I ------------------------------------------------------------------

/// Table I: latency for various programming models in SMP mode.
pub fn table1_latency(ctx: &mut Ctx) {
    println!("== Table I: Latency for various programming models (SMP mode) ==\n");
    let rows: Vec<Vec<String>> = LatencyRow::ALL
        .iter()
        .map(|&row| {
            let (got, run) = measure_latency_us(row, ctx.keep_trace());
            let want = row.paper_us();
            let key = key_of(row.label());
            ctx.report.scalar(&format!("{key}.measured_us"), got);
            ctx.report.scalar(&format!("{key}.paper_us"), want);
            ctx.report
                .string(&format!("digest.{key}"), &hex(run.digest));
            ctx.traced(&key, &run);
            vec![
                row.label().to_string(),
                format!("{want:.1}"),
                format!("{got:.2}"),
                format!("{:+.1}%", (got - want) / want * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["Protocol", "paper us", "measured us", "error"], &rows)
    );
    println!("2 nodes, nearest neighbors, 8-byte payload, CNK capabilities.");
}

// ---- Fig. 8 -------------------------------------------------------------------

/// Figure 8: throughput of the rendezvous protocol for the
/// near-neighbor exchange, swept over message sizes, under CNK
/// capabilities (zero-copy user-space DMA over contiguous memory) and —
/// as the §V.C contrast — under vanilla-Linux capabilities
/// (kernel-mediated injection, bounce copies, per-page descriptors).
///
/// Each (kernel, size) point is an independent shard. Every worker
/// count must produce bit-identical digests and final cycles; the
/// report carries per-shard digests plus a combined one so CI can diff
/// `--threads 1` against more.
pub fn fig8_throughput(ctx: &mut Ctx) {
    println!("== Fig. 8: rendezvous near-neighbor exchange throughput ==\n");
    let nodes = 64; // 4x4x4 torus: 6 distinct neighbors, the paper's case
    let sizes: Vec<u64> = (9..=22).map(|p| 1u64 << p).collect(); // 512 B .. 4 MB
    let (fast, trace) = (ctx.cli.fast_path, ctx.keep_trace());
    let faults = ctx.cli.fault_spec_for(nodes);
    let mut shards: Vec<(u64, KernelKind)> = Vec::new();
    for &bytes in &sizes {
        shards.push((bytes, KernelKind::Cnk));
        shards.push((bytes, KernelKind::Fwk));
    }
    let t0 = Instant::now();
    let results = ctx.shards(
        shards
            .iter()
            .map(|&(bytes, kind)| {
                let faults = faults.clone();
                move || nn_throughput(kind, nodes, bytes, 8, fast, trace, &faults)
            })
            .collect(),
    );
    let wall = t0.elapsed().as_secs_f64();

    ctx.report
        .scalar("config.fast_path", if fast { 1.0 } else { 0.0 });
    let mut rows = Vec::new();
    for (&bytes, pair) in sizes.iter().zip(results.chunks(2)) {
        let [(cnk_mbs, cnk), (fwk_mbs, fwk)] = pair else {
            unreachable!("one CNK and one Linux-caps shard per size")
        };
        let report = &mut ctx.report;
        report.scalar(&format!("cnk.mbs.{bytes}"), *cnk_mbs);
        report.scalar(&format!("linux_caps.mbs.{bytes}"), *fwk_mbs);
        report.string(&format!("digest.cnk.{bytes}"), &hex(cnk.digest));
        report.string(&format!("digest.linux_caps.{bytes}"), &hex(fwk.digest));
        report.scalar(&format!("final_cycle.cnk.{bytes}"), cnk.final_cycle as f64);
        report.scalar(
            &format!("final_cycle.linux_caps.{bytes}"),
            fwk.final_cycle as f64,
        );
        let bar_len = (cnk_mbs / 60.0) as usize;
        rows.push(vec![
            size_label(bytes),
            format!("{cnk_mbs:.0}"),
            format!("{fwk_mbs:.0}"),
            "#".repeat(bar_len.min(60)),
        ]);
    }
    let mut all_digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut total_events = 0u64;
    for (&(bytes, kind), (_, r)) in shards.iter().zip(&results) {
        all_digest ^= r.digest;
        all_digest = all_digest.wrapping_mul(0x0000_0100_0000_01b3);
        total_events += r.events;
        let kernel = if kind == KernelKind::Cnk {
            "cnk"
        } else {
            "linux_caps"
        };
        ctx.traced(&format!("{kernel}.{bytes}"), r);
    }
    println!(
        "{}",
        render(
            &["msg size", "CNK MB/s", "Linux-caps MB/s", "CNK throughput"],
            &rows
        )
    );
    let peak = 2.0 * torus_neighbors(nodes) as f64 * 425.0;
    println!("hardware peak (6 links x 425 MB/s x 2 directions): {peak:.0} MB/s per node");
    println!("paper: DCMF reaches maximum bandwidth for large messages (Fig. 8 shape);");
    println!("       the Linux-capability curve shows what §V.C says would be lost without");
    println!("       user-space DMA over large physically contiguous memory.");
    println!(
        "host: {} shard(s) on {} thread(s), {:.3}s wall, {:.0} events/s, digest {:016x}",
        results.len(),
        ctx.cli.threads,
        wall,
        if wall > 0.0 {
            total_events as f64 / wall
        } else {
            0.0
        },
        all_digest
    );
    ctx.report.scalar("peak_mbs", peak);
    ctx.report.string("digest.all", &hex(all_digest));
}

fn size_label(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{} MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{} KiB", b >> 10)
    } else {
        format!("{b} B")
    }
}

// ---- §V.D stability -----------------------------------------------------------

/// §V.D: `runs` runs of LINPACK — performance stability on CNK.
///
/// Paper: "Each rack produced 11.94 TFLOPS. The execution time varied
/// from 16080.89 seconds to 16083.00 seconds, for a maximum variation
/// of 2.11 seconds (.01%) ... and a standard deviation of less than
/// 1.14 seconds." A scaled-down problem runs with a different seed per
/// run (re-rolling the physical-world randomness) on both kernels.
pub fn stability_linpack(ctx: &mut Ctx, runs: u32) {
    let nodes = 16;
    let cfg = LinpackConfig {
        n: 8192,
        nb: 128,
        ranks: nodes,
    };
    println!(
        "== §V.D: LINPACK stability, {runs} runs, {nodes} nodes, N={} ==\n",
        cfg.n
    );
    let mut rows = Vec::new();
    for kind in [KernelKind::Cnk, KernelKind::Fwk] {
        let key = kind.label().to_lowercase();
        let mut times = Vec::new();
        for s in 0..runs {
            let trace = s == 0 && ctx.keep_trace();
            let (secs, run) = linpack_seconds(kind, nodes, cfg, 0xB00 + u64::from(s), trace);
            times.push(secs);
            if s == 0 {
                // Determinism evidence and one representative trace per
                // kernel (the seed-0xB00 run).
                ctx.report
                    .string(&format!("digest.{key}"), &hex(run.digest));
                ctx.traced(&key, &run);
            } else {
                ctx.add(&run);
            }
        }
        let sum = Summary::of(&times);
        let report = &mut ctx.report;
        report.scalar(&format!("{key}.min_s"), sum.min);
        report.scalar(&format!("{key}.max_s"), sum.max);
        report.scalar(&format!("{key}.spread_s"), sum.max - sum.min);
        report.scalar(
            &format!("{key}.max_variation_pct"),
            sum.max_variation_frac() * 100.0,
        );
        report.scalar(&format!("{key}.stddev_s"), sum.stddev);
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.6}", sum.min),
            format!("{:.6}", sum.max),
            format!("{:.2e}", sum.max - sum.min),
            format!("{:.2e}%", sum.max_variation_frac() * 100.0),
            format!("{:.2e}", sum.stddev),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "kernel",
                "min s",
                "max s",
                "spread s",
                "max variation",
                "stddev s"
            ],
            &rows
        )
    );
    println!(
        "paper (CNK, full rack, 4h28m runs): spread 2.11 s of 16082 s = 0.013%, stddev < 1.14 s"
    );
    println!("the reproduction's CNK variation should sit near 0.01% and far below Linux's.");
}

/// §V.D: mpiBench_Allreduce repeatability.
///
/// Paper: a double-sum allreduce on 16 CNK nodes over 1M iterations
/// gave a standard deviation of 0.0007 µs (effectively zero); the same
/// test on 4 Linux nodes over 10 GbE for 100k iterations gave 8.9 µs.
/// Both iteration counts are divided by `divisor` (20 by default).
pub fn stability_allreduce(ctx: &mut Ctx, divisor: u32) {
    let cnk_iters = 1_000_000 / divisor;
    let fwk_iters = 100_000 / divisor;
    println!("== §V.D: mpiBench_Allreduce stability ==\n");
    let trace = ctx.keep_trace();
    let mut results = ctx.shards(
        [
            (KernelKind::Cnk, 16, cnk_iters),
            (KernelKind::Fwk, 4, fwk_iters),
        ]
        .into_iter()
        .map(|(kind, nodes, iters)| move || allreduce_us(kind, nodes, iters, 0xA11, trace))
        .collect(),
    );
    let (fwk, fwk_run) = results.pop().expect("fwk shard");
    let (cnk, cnk_run) = results.pop().expect("cnk shard");
    let sc = Summary::of(&cnk);
    let sf = Summary::of(&fwk);
    let report = &mut ctx.report;
    report.scalar("cnk.iterations", cnk_iters as f64);
    report.scalar("cnk.mean_us", sc.mean);
    report.scalar("cnk.stddev_us", sc.stddev);
    report.scalar("linux.iterations", fwk_iters as f64);
    report.scalar("linux.mean_us", sf.mean);
    report.scalar("linux.stddev_us", sf.stddev);
    report.string("digest.cnk", &hex(cnk_run.digest));
    report.string("digest.linux", &hex(fwk_run.digest));
    ctx.traced("cnk", &cnk_run);
    ctx.traced("linux", &fwk_run);
    let rows = vec![
        vec![
            "CNK, 16 nodes (tree)".to_string(),
            format!("{cnk_iters}"),
            format!("{:.3}", sc.mean),
            format!("{:.5}", sc.stddev),
            "0.0007".to_string(),
        ],
        vec![
            "Linux, 4 nodes (10GbE)".to_string(),
            format!("{fwk_iters}"),
            format!("{:.3}", sf.mean),
            format!("{:.3}", sf.stddev),
            "8.9".to_string(),
        ],
    ];
    println!(
        "{}",
        render(
            &[
                "configuration",
                "iterations",
                "mean us",
                "stddev us",
                "paper stddev us"
            ],
            &rows
        )
    );
    if sc.stddev == 0.0 {
        println!("\nCNK stddev is exactly 0 — the paper's 0.0007 us was itself \"effectively");
        println!("0, likely a floating point precision error\" (§V.D).");
    } else {
        println!(
            "\nstability ratio (Linux stddev / CNK stddev): {:.0}x",
            sf.stddev / sc.stddev
        );
    }
}

// ---- Tables II and III, §III -------------------------------------------------

/// Tables II and III: ease of using/implementing capabilities in CNK
/// and Linux, regenerated from the kernels' encoded feature matrices.
pub fn table2_3_features(ctx: &mut Ctx) {
    let cnk = cnk::features::matrix();
    let linux = fwk::features::matrix();

    println!("== Table II: Ease of using different capabilities ==\n");
    let rows: Vec<Vec<String>> = Capability::ALL
        .iter()
        .map(|&cap| {
            vec![
                cap.description().to_string(),
                cnk.get(cap).unwrap().use_ease.to_string(),
                linux.get(cap).unwrap().use_ease.to_string(),
            ]
        })
        .collect();
    println!("{}", render(&["Description", "CNK", "Linux"], &rows));

    println!("== Table III: Ease of implementing capabilities (where not available) ==\n");
    let rows: Vec<Vec<String>> = Capability::ALL
        .iter()
        .filter_map(|&cap| {
            let c = cnk.get(cap).unwrap();
            let l = linux.get(cap).unwrap();
            if c.implement_ease.is_none() && l.implement_ease.is_none() {
                return None;
            }
            let show = |e: &FeatureEntry| match e.implement_ease {
                Some(x) => x.to_string(),
                None => "avail".to_string(),
            };
            Some(vec![cap.description().to_string(), show(c), show(l)])
        })
        .collect();
    println!("{}", render(&["Description", "CNK", "Linux"], &rows));
    println!("(encoded from the kernels' feature matrices; cross-checked against kernel");
    println!(" behaviour by the workspace test suite)");

    let avail = |m: &FeatureMatrix| {
        Capability::ALL
            .iter()
            .filter(|&&c| m.get(c).unwrap().use_ease.available())
            .count() as f64
    };
    let report = &mut ctx.report;
    report.scalar("capabilities", Capability::ALL.len() as f64);
    report.scalar("cnk.available", avail(&cnk));
    report.scalar("linux.available", avail(&linux));
}

/// §III: boot time on the 10 Hz VHDL cycle-accurate simulator.
///
/// "During chip design the VHDL cycle-accurate simulator runs at 10HZ.
/// In such an environment, CNK boots in a couple of hours, while Linux
/// takes weeks. Even stripped down, Linux takes days to boot, making it
/// difficult to run verification tests."
pub fn boot_time(ctx: &mut Ctx) {
    const HZ: f64 = 10.0;
    println!("== §III: boot time at {HZ} Hz (VHDL cycle-accurate simulation) ==\n");
    let reports = [
        (
            "CNK (cold boot)",
            cnk::boot::boot_report(&ChipConfig::bgp(), false),
        ),
        (
            "CNK (reproducible restart)",
            cnk::boot::boot_report(&ChipConfig::bgp(), true),
        ),
        (
            "CNK (partial bringup hw)",
            cnk::boot::boot_report(&ChipConfig::bringup_partial(), false),
        ),
        ("Linux (stripped)", fwk::boot::boot_report(true)),
        ("Linux (full image)", fwk::boot::boot_report(false)),
    ];
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(name, r)| {
            vec![
                name.to_string(),
                format!("{}", r.instructions),
                duration(r.vhdl_sim_seconds(HZ)),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["kernel", "boot instructions", "time at 10 Hz"], &rows)
    );
    println!("paper: \"CNK boots in a couple of hours, while Linux takes weeks. Even");
    println!("stripped down, Linux takes days to boot.\"\n");
    println!("CNK cold-boot phase breakdown:");
    for (phase, instr) in &reports[0].1.phases {
        println!(
            "  {phase:<18} {instr:>8} instructions = {}",
            duration(*instr as f64 / HZ)
        );
    }
    for (name, r) in &reports {
        let key = key_of(name);
        let report = &mut ctx.report;
        report.scalar(&format!("{key}.instructions"), r.instructions as f64);
        report.scalar(&format!("{key}.vhdl_seconds"), r.vhdl_sim_seconds(HZ));
    }
}

fn duration(seconds: f64) -> String {
    if seconds < 3600.0 {
        format!("{:.0} minutes", seconds / 60.0)
    } else if seconds < 86_400.0 {
        format!("{:.1} hours", seconds / 3600.0)
    } else if seconds < 7.0 * 86_400.0 {
        format!("{:.1} days", seconds / 86_400.0)
    } else {
        format!("{:.1} weeks", seconds / (7.0 * 86_400.0))
    }
}

/// The two-chip device under test of [`repro_bringup`]: rank 0
/// computes, then sends 4 KiB to rank 1. It keeps its trace entries when
/// `trace` asks (`--trace-out`, or a run whose arrival is read off them).
fn repro_machine(trace: bool) -> Machine {
    let cfg = machine_config(2, 0xCAFE, trace);
    launched(cfg, Box::new(Cnk::with_defaults()), "dut", 2, |r| {
        if r.0 == 0 {
            script(vec![
                Op::Daxpy { n: 256, reps: 64 },
                Op::Comm(CommOp::Send {
                    to: Rank(1),
                    bytes: 4096,
                    tag: 7,
                    proto: Protocol::Eager,
                    layer: ApiLayer::Dcmf,
                }),
                Op::Compute { cycles: 50_000 },
            ])
        } else {
            script(vec![
                Op::Comm(CommOp::Recv {
                    from: Some(Rank(0)),
                    tag: 7,
                    layer: ApiLayer::Dcmf,
                }),
                Op::Compute { cycles: 10_000 },
            ])
        }
    })
}

/// The first packet arrival at chip 1 in a machine's kept trace.
fn first_arrival(m: &Machine) -> Option<u64> {
    m.sc.trace
        .entries()
        .iter()
        .find(|e| e.node == 1 && matches!(e.what, TraceEvent::MsgRecv { .. }))
        .map(|e| e.at)
}

/// §III: the chip-bringup methodology — cycle reproducibility, the
/// destructive-scan waveform workflow, and the multichip coordinated
/// reboot.
///
/// 1. Two runs from the same seed produce bit-identical event traces.
/// 2. Successive reproducible runs, each scanned destructively one
///    cycle later, assemble into a logic waveform; a probe transition
///    localizes an event in time.
/// 3. With the global barrier network held configured across a
///    coordinated reboot, a packet arrives on exactly the same cycle in
///    every rerun (the paper's cross-chip logic-scan prerequisite).
pub fn repro_bringup(ctx: &mut Ctx) {
    println!("== §III: reproducibility & bringup workflow ==\n");

    // 1. Bit-identical reruns.
    let mut digests = Vec::new();
    for i in 0..3 {
        let run = SimRun::run(&mut repro_machine(i == 0 && ctx.keep_trace()));
        if i == 0 {
            ctx.report.string("digest.probe", &hex(run.digest));
            ctx.traced("", &run);
        }
        digests.push(run.digest);
    }
    println!("1. cycle reproducibility: 3 runs, trace digests:");
    for d in &digests {
        println!("     {d:#018x}");
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    ctx.report.scalar("digests_identical", 1.0);
    println!("   => bit-identical\n");

    // 2. The destructive-scan waveform: rebuild, run to cycle N, scan,
    //    repeat one cycle later. Center the window on the event under
    //    investigation — the packet arrival at chip 1 — found from one
    //    full reproducible run, exactly how a bringup engineer would
    //    narrow in.
    let arrival_cycle = {
        let mut m = repro_machine(true);
        m.run();
        first_arrival(&m).expect("no arrival in probe run")
    };
    ctx.report
        .scalar("probe_arrival_cycle", arrival_cycle as f64);
    let window = (arrival_cycle - 60)..(arrival_cycle + 60);
    let mut wave = Waveform::new();
    for cycle in window.clone() {
        let mut m = repro_machine(false);
        m.run_until(cycle);
        wave.push(m.scan_destructive(ScanTarget::Cores)).unwrap();
    }
    println!(
        "2. waveform: {} one-cycle-apart destructive scans over cycles {window:?}",
        wave.len()
    );
    for probe in ["core4.running_tid", "thread1.state", "net.inflight"] {
        match wave.first_transition(probe) {
            Some(at) => println!("     probe {probe:<22} first transition at cycle {at}"),
            None => println!("     probe {probe:<22} constant in window"),
        }
    }
    println!();

    // 3. Multichip reproducibility: the packet-arrival cycle at node 1
    //    is identical across reruns once the barrier network is held in
    //    its canonical state.
    let arrival = |_: u32| -> u64 {
        let mut m = repro_machine(true);
        m.reproducible_reset(); // barrier net now canonical
        m.launch(
            &JobSpec::new(AppImage::static_test("dut"), 2, NodeMode::Smp),
            &mut |r: Rank| -> Box<dyn Workload> {
                if r.0 == 0 {
                    script(vec![Op::Comm(CommOp::Send {
                        to: Rank(1),
                        bytes: 512,
                        tag: 9,
                        proto: Protocol::Eager,
                        layer: ApiLayer::Dcmf,
                    })])
                } else {
                    script(vec![Op::Comm(CommOp::Recv {
                        from: Some(Rank(0)),
                        tag: 9,
                        layer: ApiLayer::Dcmf,
                    })])
                }
            },
        )
        .unwrap();
        m.run();
        first_arrival(&m).expect("no arrival")
    };
    let arrivals: Vec<u64> = (0..3).map(arrival).collect();
    println!("3. multichip coordinated reboot: packet arrival at chip 1, 3 reruns:");
    println!("     cycles {arrivals:?}");
    assert!(arrivals.windows(2).all(|w| w[0] == w[1]));
    ctx.report
        .scalar("reboot_arrival_cycle", arrivals[0] as f64);
    println!("   => same cycle every run (cross-chip scans line up)");
}

// ---- §V.A noise ---------------------------------------------------------------

/// Ablation: which Linux noise source produces which part of Fig. 5?
///
/// Runs FWQ with each noise source enabled alone, and with all sources
/// minus one, reporting the per-core maximum perturbation. This is the
/// analysis a kernel engineer would run to attribute the spikes.
pub fn noise_ablation(ctx: &mut Ctx, samples: u32) {
    println!("== Noise ablation: per-core max FWQ perturbation (cycles), {samples} samples ==\n");
    let profile = linux_2_6_16_profile();
    let mut configs = vec![
        ("ALL sources".to_string(), profile.clone()),
        ("none".to_string(), Vec::new()),
    ];
    for (i, src) in profile.iter().enumerate() {
        configs.push((format!("only {}", src.name), vec![src.clone()]));
        let mut without = profile.clone();
        without.remove(i);
        configs.push((format!("all minus {}", src.name), without));
    }
    let mut rows = Vec::new();
    for (i, (name, noise)) in configs.into_iter().enumerate() {
        let kernel = Fwk::new(FwkConfig {
            noise,
            ..FwkConfig::default()
        });
        // Only the representative run is traced.
        let cfg = machine_config(1, 0xAB1A, i == 0 && ctx.keep_trace());
        let (series, run) = fwq(Box::new(kernel), cfg, samples);
        let key = key_of(&name);
        let mut row = vec![name];
        for (core, s) in series.iter().enumerate() {
            let s = Summary::of(s);
            ctx.report
                .scalar(&format!("{key}.core{core}.max_delta"), s.max - s.min);
            row.push(format!("{:.0}", s.max - s.min));
        }
        rows.push(row);
        if i == 0 {
            // Representative trace: the full Linux noise profile.
            ctx.report.string("digest.all_sources", &hex(run.digest));
            ctx.traced("", &run);
        } else {
            ctx.add(&run);
        }
    }
    println!(
        "{}",
        render(
            &["configuration", "core0", "core1", "core2", "core3"],
            &rows
        )
    );
    println!("reading: the big core-0/2 spikes come from the irq bottom halves; core 3's");
    println!("from kswapd scans; core 1 only ever sees the tick and ksoftirqd — matching");
    println!("the paper's Fig. 5 per-core asymmetry.");
}

/// Kernel-level noise injection on CNK (the §I research hook, using the
/// methodology of the Ferreira et al. study the paper cites).
///
/// A bulk-synchronous app (compute quantum + allreduce per iteration)
/// runs on a noise-free CNK and on CNKs with injected noise of equal
/// *intensity* (0.1% of CPU) but different granularity: fine/frequent
/// vs coarse/rare. The §V.A amplification effect appears directly: the
/// same average noise hurts more when each event is long, and the
/// penalty grows with node count because every collective waits for
/// the unluckiest rank ("at large scale many nodes compound the
/// delay").
pub fn noise_injection(ctx: &mut Ctx, iters: u32) {
    println!("== Noise injection on CNK: same 0.1% intensity, different granularity ==");
    println!("   (BSP loop: 1 ms compute + allreduce, {iters} iterations)\n");

    // Equal 0.1% intensity at three granularities.
    let profiles: Vec<(&str, Vec<NoiseSource>)> = vec![
        ("no noise", vec![]),
        (
            "fine:   0.1 us @ 10 kHz",
            vec![NoiseSource::injection(10_000.0, 0.1)],
        ),
        (
            "medium: 10 us @ 100 Hz",
            vec![NoiseSource::injection(100.0, 10.0)],
        ),
        (
            "coarse: 1000 us @ 1 Hz",
            vec![NoiseSource::injection(1.0, 1000.0)],
        ),
    ];
    let node_counts = [1u32, 4, 16, 64];
    let mut rows = Vec::new();
    let mut base: Vec<u64> = Vec::new();
    for (name, noise) in &profiles {
        let key = key_of(name.split(':').next().unwrap());
        let mut row = vec![name.to_string()];
        for (i, &n) in node_counts.iter().enumerate() {
            let representative = noise.is_empty() && n == 64;
            let trace = representative && ctx.keep_trace();
            let (t, run) = bsp_runtime(n, noise.clone(), iters, 0x1723, trace);
            if representative {
                ctx.report.string("digest.no_noise_64", &hex(run.digest));
                // Representative trace: the noise-free 64-node run.
                ctx.traced("", &run);
            } else {
                ctx.add(&run);
            }
            if base.len() <= i {
                base.push(t);
            }
            let slowdown = (t as f64 / base[i] as f64 - 1.0) * 100.0;
            ctx.report
                .scalar(&format!("{key}.nodes{n}.slowdown_pct"), slowdown);
            row.push(format!("{slowdown:+.2}%"));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("injected noise".to_string())
        .chain(node_counts.iter().map(|n| format!("{n} nodes")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    println!("{}", render(&header_refs, &rows));
    println!("slowdown relative to the noise-free run at each scale.");
    println!("reading: identical average intensity, very different application impact —");
    println!("fine noise is absorbed, coarse noise is amplified by the collectives, and");
    println!("the penalty grows with node count (§V.A; Petrini et al.; Ferreira et al.).");
}

// ---- §IV.A I/O ----------------------------------------------------------------

/// I/O offload vs compute noise (§IV.A): "the offload strategy performs
/// aggregation allowing a manageable number of filesystem clients, and
/// reduces the noise on the compute nodes."
///
/// One thread on core 0 writes checkpoints continuously while cores 1-3
/// run FWQ samplers. On CNK the writes are function-shipped (the I/O
/// thread blocks; CIOD does the work on the I/O node). On the FWK the
/// writes dirty the local page cache, and the writeback daemon's scans
/// land on the compute cores — visible directly in the FWQ deltas. Also
/// prints the filesystem-client arithmetic of §VII.A.
pub fn io_noise(ctx: &mut Ctx, samples: u32) {
    let faults = ctx.cli.fault_spec_for(1); // single-node runs
    println!("== §IV.A: concurrent checkpoint I/O vs FWQ noise on cores 1-3 ==\n");
    let trace = ctx.keep_trace();
    let mut rows = Vec::new();
    for kind in [KernelKind::Cnk, KernelKind::Fwk] {
        for checkpoints in [0, 10] {
            let (series, run) = io_fwq(kind, samples, checkpoints, 0x10, trace, &faults);
            let mode = if checkpoints > 0 {
                "checkpointing"
            } else {
                "quiet"
            };
            let key = format!("{}.{mode}", kind.label().to_lowercase());
            ctx.report
                .string(&format!("digest.{key}"), &hex(run.digest));
            ctx.traced(&key, &run);
            // Per-run telemetry (RAS/retry counters show up here on a
            // `--fault-seed` run; `ci/perf_smoke.sh` greps for them).
            ctx.report.registry(&key, run.stats);
            let mut row = vec![kind.label().to_string(), mode.to_string()];
            for (core, s) in series.iter().enumerate().skip(1) {
                // A machine check can kill the job before a core samples.
                if s.is_empty() {
                    row.push("-".to_string());
                    continue;
                }
                let s = Summary::of(s);
                ctx.report
                    .scalar(&format!("{key}.core{core}.max_delta"), s.max - s.min);
                row.push(format!("{:.0}", s.max - s.min));
            }
            rows.push(row);
        }
    }
    println!(
        "{}",
        render(
            &[
                "kernel",
                "core 0 activity",
                "core1 max delta",
                "core2 max delta",
                "core3 max delta"
            ],
            &rows
        )
    );
    println!("\nCNK: the I/O thread blocks while CIOD works on the I/O node — the compute");
    println!("cores' noise is unchanged. Linux: the writes dirty the page cache and the");
    println!("writeback scans land on the compute cores.\n");

    println!("filesystem-client arithmetic (§VII.A, \"two orders of magnitude\"):");
    let rows: Vec<Vec<String>> = [(1024u32, 16u32), (4096, 64), (36_864, 128)]
        .iter()
        .map(|&(nodes, ratio)| {
            vec![
                format!("{nodes}"),
                format!("{ratio}:1"),
                format!("{nodes}"),
                format!("{}", nodes.div_ceil(ratio)),
                format!("{}x", ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "compute nodes",
                "pset ratio",
                "Linux clients",
                "CNK clients (IONs)",
                "reduction"
            ],
            &rows
        )
    );
}

/// §IV.A ablation: BG/P's dedicated per-process ioproxies vs a
/// BG/L-style serialized CIOD.
///
/// "A key difference from BG/L is that on BG/P each MPI process has a
/// dedicated I/O proxy process ... increased the performance and
/// scalability of I/O." With one service thread per I/O node (BG/L
/// style), concurrent checkpoints from the pset queue behind each
/// other; with per-process proxies they are serviced in parallel.
pub fn io_proxy_ablation(ctx: &mut Ctx) {
    println!("== §IV.A ablation: per-process ioproxies (BG/P) vs serialized CIOD (BG/L) ==");
    println!("   (every rank checkpoints simultaneously through one I/O node)\n");
    let mut rows = Vec::new();
    for nodes in [2u32, 4, 8, 16] {
        // Only the largest pset is traced.
        let trace = nodes == 16 && ctx.keep_trace();
        let (bgp_samples, bgp_run) = checkpoint_io(nodes, false, 3, 0x10B, trace);
        let (bgl_samples, bgl_run) = checkpoint_io(nodes, true, 3, 0x10B, trace);
        let bgp = Summary::of(&bgp_samples);
        let bgl = Summary::of(&bgl_samples);
        for (style, r) in [("bgp", &bgp_run), ("bgl", &bgl_run)] {
            ctx.report
                .string(&format!("digest.{style}.{nodes}"), &hex(r.digest));
            if nodes == 16 {
                // Representative traces: the largest pset, both styles.
                ctx.traced(style, r);
            } else {
                ctx.add(r);
            }
        }
        ctx.report
            .scalar(&format!("bgp_us_per_ckpt.{nodes}"), bgp.mean / 850.0);
        ctx.report
            .scalar(&format!("bgl_us_per_ckpt.{nodes}"), bgl.mean / 850.0);
        rows.push(vec![
            nodes.to_string(),
            format!("{:.0}", bgp.mean / 850.0),
            format!("{:.0}", bgl.mean / 850.0),
            format!("{:.1}x", bgl.mean / bgp.mean),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "ranks per ION",
                "BG/P-style us/ckpt",
                "BG/L-style us/ckpt",
                "slowdown"
            ],
            &rows
        )
    );
    println!("the 1-to-1 proxy mapping keeps checkpoint latency flat as the pset grows;");
    println!("the serialized daemon degrades linearly — the §IV.A design change.");
}

// ---- §III, §IV.C ablations ---------------------------------------------------

/// A 64 MiB stream on each of `streams` VN-mode ranks (one per core)
/// under an L2 bank mapping, keeping its trace entries if `trace`.
fn l2_stream(map: L2BankMap, streams: u32, trace: bool) -> SimRun {
    let mut cfg = machine_config(1, 3, trace);
    cfg.chip.l2_bank_map = map;
    // Model concurrent streams through the shared-cost function directly:
    // run one VN-mode rank per core, each streaming.
    let mut m = Machine::new(
        cfg,
        Box::new(Cnk::with_defaults()),
        Box::new(FixedLatencyComm::new()),
    );
    m.boot();
    m.launch(
        &JobSpec::new(AppImage::static_test("stream"), 1, NodeMode::Vn),
        &mut move |r: Rank| -> Box<dyn Workload> {
            if r.0 < streams {
                script(vec![Op::Stream { bytes: 64 << 20 }])
            } else {
                script(vec![])
            }
        },
    )
    .unwrap();
    SimRun::run(&mut m)
}

/// §III ablation: application sensitivity to the L2 bank mapping.
///
/// "CNK enabled application kernels to be run with varied mappings of
/// code and data memory traffic to the L2 cache banks, allowing
/// measurement of cache effects ... Using these controls also enabled
/// verification of the logic, and measurement of performance, in the
/// presence of artificially created conflicts."
///
/// Runs a 4-core streaming kernel under each mapping and reports the
/// slowdown relative to the production interleaved mapping.
pub fn l2_bank_ablation(ctx: &mut Ctx) {
    println!("== §III: L2 bank-mapping sensitivity (64 MiB stream per core) ==\n");
    // The per-op stream cost model includes the conflict factor via the
    // chip configuration; show both the cost-model view and the end-to-
    // end run.
    let chip_base = ChipConfig::bgp();
    let mut rows = Vec::new();
    for map in [
        L2BankMap::Interleaved,
        L2BankMap::Blocked,
        L2BankMap::ConflictStress,
    ] {
        let mut chip = chip_base.clone();
        chip.l2_bank_map = map;
        let model_1 = bgsim::chip::stream_cycles(&chip, 64 << 20, 1);
        let model_4 = bgsim::chip::stream_cycles(&chip, 64 << 20, 4);
        let run = l2_stream(map, 4, ctx.keep_trace());
        let run_cycles = run.final_cycle;
        let key = format!("{map:?}").to_lowercase();
        ctx.report
            .string(&format!("digest.{key}"), &hex(run.digest));
        ctx.traced(&key, &run);
        let report = &mut ctx.report;
        report.scalar(&format!("{key}.stream1_cycles"), model_1 as f64);
        report.scalar(&format!("{key}.stream4_cycles"), model_4 as f64);
        report.scalar(&format!("{key}.end_to_end_cycles"), run_cycles as f64);
        rows.push(vec![
            format!("{map:?}"),
            format!("{model_1}"),
            format!("{model_4}"),
            format!("{:.1}%", (model_4 as f64 / model_1 as f64 - 1.0) * 100.0),
            format!("{run_cycles}"),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "bank map",
                "1-stream cycles",
                "4-stream cycles",
                "conflict penalty",
                "end-to-end"
            ],
            &rows
        )
    );
    println!("the ConflictStress mapping is the verification configuration that creates");
    println!("artificial bank conflicts; Interleaved is the tuned production choice.");
}

/// Ablation of the §IV.C partitioner: TLB-entry budget vs page-size
/// choice vs wasted physical memory.
///
/// "In order to provide static mapping with a limited number of TLB
/// entries, the memory subsystem may waste physical memory as large
/// pages are tiled together" (§VII.B). This sweep quantifies that
/// trade-off for a UMT-sized process under shrinking TLB budgets.
pub fn page_size_ablation(ctx: &mut Ctx) {
    println!("== Partitioner ablation: TLB budget vs min page size vs waste ==\n");
    let req = ProcRequirements {
        text_bytes: 24 << 20,
        data_bytes: 8 << 20,
        heap_stack_bytes: 1 << 30,
        shared_bytes: 16 << 20,
        dynamic_bytes: 64 << 20,
    };
    let report = &mut ctx.report;
    let mut rows = Vec::new();
    for budget in [64usize, 48, 32, 24, 16, 12, 8, 6] {
        match partition_node(&req, 1, 4 << 30, 16 << 20, 64 << 20, budget) {
            Ok(maps) => {
                let m = &maps[0];
                let mib = |b: u64| b as f64 / (1 << 20) as f64;
                report.scalar(
                    &format!("budget{budget}.entries_used"),
                    m.tlb_entries as f64,
                );
                report.scalar(
                    &format!("budget{budget}.min_page_mib"),
                    (m.min_page >> 20) as f64,
                );
                report.scalar(&format!("budget{budget}.wasted_mib"), mib(m.wasted_bytes));
                report.scalar(&format!("budget{budget}.mapped_mib"), mib(m.mapped_bytes()));
                rows.push(vec![
                    budget.to_string(),
                    m.tlb_entries.to_string(),
                    format!("{} MiB", m.min_page >> 20),
                    format!("{:.1} MiB", mib(m.wasted_bytes)),
                    format!("{:.1} MiB", mib(m.mapped_bytes())),
                ]);
            }
            Err(e) => {
                report.scalar(&format!("budget{budget}.entries_used"), f64::NAN);
                rows.push(vec![
                    budget.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("FAILS: {e:?}"),
                ]);
            }
        }
    }
    println!(
        "{}",
        render(
            &["TLB budget", "entries used", "min page", "wasted", "mapped"],
            &rows
        )
    );
    println!("smaller budgets force coarser pages: fewer entries, more rounding waste —");
    println!("the §VII.B cost of never taking a TLB miss.");
}

// ---- Rack scale -----------------------------------------------------------------

const SCALE_SEED: u64 = 0x5CA1E;
/// FWQ quanta per node: enough to exercise the scheduler/compute path
/// on every node, short enough that 100k+ nodes stays a smoke-sized
/// run (weak scaling holds the per-node work fixed regardless).
const SCALE_SAMPLES: u32 = 3;

/// What a [`fig_scale`] point measures beyond its run.
struct ScaleCost {
    /// Host seconds for `new` + `boot` + `launch`.
    setup_seconds: f64,
    /// Host seconds to drop the machine.
    drop_seconds: f64,
    resident_bytes: usize,
}

/// Boot `nodes` nodes, run one short FWQ quantum per node.
fn scale_run(nodes: u32, fast_path: bool) -> (ScaleCost, SimRun) {
    let t_setup = Instant::now();
    let cfg = MachineConfig::nodes(nodes)
        .with_seed(SCALE_SEED)
        .with_fast_path(fast_path);
    // The recorder outlives the machine, so the timed drop frees only
    // the machine.
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let mut m = launched(
        cfg,
        KernelKind::Cnk.build(),
        "fwq-scale",
        nodes,
        move |_r| {
            Box::new(FwqSampler::new(
                FwqConfig::quick(SCALE_SAMPLES),
                rec2.clone(),
                0,
            ))
        },
    );
    let setup_seconds = t_setup.elapsed().as_secs_f64();
    let run = SimRun::run(&mut m);
    let resident_bytes = m.resident_bytes_estimate();
    let t_drop = Instant::now();
    drop(m);
    let drop_seconds = t_drop.elapsed().as_secs_f64();
    let cost = ScaleCost {
        setup_seconds,
        drop_seconds,
        resident_bytes,
    };
    (cost, run)
}

fn human_bytes(b: f64) -> String {
    if b >= (1 << 30) as f64 {
        format!("{:.2} GiB", b / (1u64 << 30) as f64)
    } else if b >= (1 << 20) as f64 {
        format!("{:.2} MiB", b / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", b / 1024.0)
    }
}

/// Weak-scaling sweep of the rack-scale memory layout (ROADMAP item 1).
///
/// §VI: one CNK image per compute node means the *simulator* must hold
/// rack-scale per-node state — 4k nodes is a rack, 36k a BG/L system,
/// 100k+ the full BG/P machine the paper's lessons target. This boots
/// the machine at each node count in `counts`, runs a short FWQ quantum
/// on every node (fixed work per node = weak scaling), and records per
/// count:
///
/// * determinism evidence — the trace digest and final cycle, so CI can
///   diff `--threads 1` against `--threads 4` shard pools;
/// * weak-scaling throughput — engine events/sec and node-cycles/sec on
///   the host, the figure that must stay ~flat as nodes grow;
/// * set-up and teardown — host seconds for `new`+`boot`+`launch` and
///   for dropping the machine, whose per-node cost must stay flat too;
/// * memory — `Machine::resident_bytes_estimate()` and its per-node
///   amortization, the SoA/slab layout's figure of merit.
///
/// The runs keep telemetry off, so the report has no `profile.*` block;
/// the checked-in `BENCH_scale.json` is this experiment's output on the
/// reference host.
pub fn fig_scale(ctx: &mut Ctx, counts: &[u32]) {
    let fast_path = ctx.cli.fast_path;
    let list: Vec<String> = counts.iter().map(|n| n.to_string()).collect();
    println!(
        "== Rack-scale weak scaling: {SCALE_SAMPLES} FWQ quanta/node on CNK, {} ==\n",
        list.join(" / ")
    );
    let runs = ctx.shards(
        counts
            .iter()
            .map(|&n| move || scale_run(n, fast_path))
            .collect(),
    );
    let mut rows = Vec::new();
    for (cost, r) in &runs {
        let nodes = r.nodes as f64;
        let bytes_per_node = cost.resident_bytes as f64 / nodes;
        let events_per_sec = r.events as f64 / r.wall_seconds.max(1e-9);
        let node_cycles_per_sec = r.final_cycle as f64 * nodes / r.wall_seconds.max(1e-9);
        rows.push(vec![
            format!("{}", r.nodes),
            hex(r.digest),
            format!("{}", r.final_cycle),
            format!("{}", r.events),
            format!("{:.2e}", events_per_sec),
            format!("{:.2}", cost.setup_seconds * 1e6 / nodes),
            human_bytes(cost.resident_bytes as f64),
            format!("{:.0}", bytes_per_node),
        ]);
        let k = format!("scale.n{}", r.nodes);
        let report = &mut ctx.report;
        report.string(&format!("digest.n{}", r.nodes), &hex(r.digest));
        report.scalar(&format!("final_cycle.n{}", r.nodes), r.final_cycle as f64);
        report.scalar(&format!("{k}.events"), r.events as f64);
        report.scalar(&format!("{k}.wall_seconds"), r.wall_seconds);
        report.scalar(&format!("{k}.setup_seconds"), cost.setup_seconds);
        report.scalar(&format!("{k}.drop_seconds"), cost.drop_seconds);
        report.scalar(&format!("{k}.events_per_sec"), events_per_sec);
        report.scalar(&format!("{k}.node_cycles_per_sec"), node_cycles_per_sec);
        report.scalar(&format!("{k}.resident_bytes"), cost.resident_bytes as f64);
        report.scalar(&format!("{k}.bytes_per_node"), bytes_per_node);
        ctx.add(r);
    }
    println!(
        "{}",
        render(
            &[
                "nodes",
                "trace digest",
                "final cycle",
                "events",
                "events/s",
                "set-up µs/node",
                "resident",
                "B/node",
            ],
            &rows
        )
    );
    let max_nodes = counts.iter().copied().max().unwrap_or(0);
    ctx.report.scalar("scale.max_nodes", max_nodes as f64);
    println!(
        "\npeak host RSS: {} across the whole sweep",
        human_bytes(peak_rss_bytes() as f64)
    );
}
