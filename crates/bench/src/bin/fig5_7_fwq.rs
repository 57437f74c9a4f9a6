//! Figures 5-7: the FWQ noise benchmark under Linux and CNK.
//!
//! Regenerates the data behind the three plots: 12,000 samples of the
//! 658,958-cycle DAXPY quantum on each of the four cores, under the
//! tuned Linux 2.6.16 model and under CNK. Prints per-core summaries
//! (the paper's numbers in brackets) and a coarse histogram of the CNK
//! samples at single-cycle resolution (the "zoomed Y axis" of Fig. 7).
//!
//! The table is computed from the runs' telemetry registries (the
//! per-core `fwq.sample_cycles` histogram); `--stats-out <path>` dumps
//! the same registries — including the kernels' own `noise.cycles`
//! histograms — as JSON or gem5-style flat stats.
//!
//! The two kernel simulations are independent shards (`--threads 2`
//! runs them concurrently, bit-identical to `--threads 1`). The report
//! carries per-kernel `host.{linux,cnk}.sim_cycles_per_sec` and the
//! runs' trace digests, so `--no-fast-path` baselines the speedup of
//! the event-reduction fast path and cross-checks that its digests
//! match the heap path exactly.

use bench::cli::Cli;
use bench::harness::{run_fwq_faulted, KernelKind};
use bench::monitor::Monitor;
use bench::par::run_shards;
use bench::report::Report;
use bench::table::render;
use bgsim::telemetry::{MetricsRegistry, ProfileSnapshot, Slot, Tracepoint};

/// The `Send` slice of one kernel's FWQ run (the raw [`bench::harness::FwqRun`]
/// holds an `Rc`-based recorder and cannot cross the shard pool).
struct KernelShard {
    stats: MetricsRegistry,
    series: Vec<Vec<f64>>,
    events: Vec<Tracepoint>,
    digest: u64,
    final_cycle: u64,
    sim_events: u64,
    wall_seconds: f64,
    profile: ProfileSnapshot,
}

fn main() {
    let cli = Cli::parse();
    let samples = cli.pos(0).unwrap_or(12_000u32);
    let fast = cli.fast_path;
    let faults = cli.fault_spec_for(1); // single-node FWQ runs
    println!(
        "== FWQ (Fixed Work Quanta), {samples} samples/core, 4 cores, 1 node{} ==\n",
        if fast { "" } else { " [no fast path]" }
    );

    const KINDS: [KernelKind; 2] = [KernelKind::Fwk, KernelKind::Cnk];
    let t0 = std::time::Instant::now();
    let shards = run_shards(
        cli.threads,
        KINDS
            .iter()
            .map(|&kind| {
                let faults = faults.clone();
                move || {
                    let run = run_fwq_faulted(kind, samples, 0xF00D, fast, &faults);
                    let series = (0..4)
                        .map(|c| run.rec.series(&format!("fwq_core{c}")))
                        .collect();
                    KernelShard {
                        stats: run.stats,
                        series,
                        events: run.events,
                        digest: run.digest,
                        final_cycle: run.final_cycle,
                        sim_events: run.sim_events,
                        wall_seconds: run.wall_seconds,
                        profile: run.profile,
                    }
                }
            })
            .collect::<Vec<_>>(),
    );
    let total_wall = t0.elapsed().as_secs_f64();

    let mut report = Report::new("fig5_7_fwq");
    report.scalar("config.fast_path", if fast { 1.0 } else { 0.0 });
    let mut monitor = Monitor::from_cli_or_exit(&cli, "fig5_7_fwq");
    let mut merged_profile = ProfileSnapshot::default();
    let mut trace_parts: Vec<(&str, String)> = Vec::new();
    let mut rows = Vec::new();
    let mut cnk_all: Vec<f64> = Vec::new();
    let (mut total_cycles, mut total_events) = (0u64, 0u64);
    for (ki, (&kind, shard)) in KINDS.iter().zip(shards).enumerate() {
        total_cycles += shard.final_cycle;
        total_events += shard.sim_events;
        let key = match kind {
            KernelKind::Cnk => "cnk",
            _ => "linux",
        };
        for core in 0..4u32 {
            let h = shard
                .stats
                .hist("fwq.sample_cycles", Slot::Core(core))
                .expect("fwq.sample_cycles registered by run_fwq");
            let (min, max, delta) = (h.min(), h.max(), h.delta());
            let variation = if min > 0 {
                delta as f64 / min as f64
            } else {
                0.0
            };
            if kind == KernelKind::Cnk {
                cnk_all.extend_from_slice(&shard.series[core as usize]);
            }
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
        // One Perfetto/Chrome trace per kernel; the shared helper
        // suffixes the filename (`trace.cnk.json`, `trace.linux.json`).
        trace_parts.push((key, bgsim::telemetry::chrome_trace_json(&shard.events)));
        merged_profile.merge(&shard.profile);
        if let Some(mon) = monitor.as_mut() {
            mon.publish(ki + 1, KINDS.len(), &merged_profile);
        }
        // The determinism and host-throughput evidence, per kernel: the
        // digest must be bit-identical with and without `--no-fast-path`,
        // while `host.<kernel>.sim_cycles_per_sec` shows the speedup.
        report.string(&format!("digest.{key}"), &format!("{:016x}", shard.digest));
        report.scalar(&format!("host.{key}.wall_seconds"), shard.wall_seconds);
        report.scalar(&format!("host.{key}.sim_cycles"), shard.final_cycle as f64);
        report.scalar(&format!("host.{key}.events"), shard.sim_events as f64);
        if shard.wall_seconds > 0.0 {
            report.scalar(
                &format!("host.{key}.sim_cycles_per_sec"),
                shard.final_cycle as f64 / shard.wall_seconds,
            );
        }
        report.registry(key, shard.stats);
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
    report.profile(&merged_profile);
    report.host_perf(cli.threads, total_wall, total_cycles, total_events);
    bench::report::emit_traces_or_exit(&cli, &trace_parts);
    report.host_mem(1);
    report.emit_or_exit(&cli);
}
