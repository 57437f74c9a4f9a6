//! Criterion microbenchmarks behind numbers EXPERIMENTS.md cites: the
//! event-reduction fast path on the compute-stretch regime, and the
//! batched torus transfer against its per-packet reference.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bgsim::fault::FaultSpec;

fn bench_fast_path(c: &mut Criterion) {
    // The event-reduction fast path on the compute-stretch regime (FWQ
    // on CNK: every pending event is a running thread's own
    // completion). The on/off pair is the microbench behind the
    // `host.cnk.sim_cycles_per_sec` speedup in fig5_7_fwq.
    for (name, fast) in [
        ("fast_path_compute_stretch/on", true),
        ("fast_path_compute_stretch/off", false),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let (_, run) = bench::harness::run_fwq(
                    bench::harness::KernelKind::Cnk,
                    200,
                    1,
                    fast,
                    false,
                    &FaultSpec::None,
                );
                black_box((run.digest, run.events))
            })
        });
    }
}

fn bench_torus_batching(c: &mut Criterion) {
    // One completion per message leg (closed-form per-hop arithmetic)
    // versus the per-packet reference walker it replaces — both must
    // agree on cycles (a unit test pins that); this measures the cost
    // gap on a large-message sweep.
    let t = bgsim::torus::Torus::new(&bgsim::MachineConfig::nodes(64));
    let sizes: Vec<u64> = (9..=22).map(|p| 1u64 << p).collect();
    c.bench_function("torus_batching/batched", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &bytes in &sizes {
                for hops in 1..=6u32 {
                    acc = acc.wrapping_add(t.transfer_cycles(black_box(bytes), hops));
                }
            }
            black_box(acc)
        })
    });
    c.bench_function("torus_batching/per_packet_reference", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &bytes in &sizes {
                for hops in 1..=6u32 {
                    acc = acc.wrapping_add(t.transfer_cycles_per_packet(black_box(bytes), hops));
                }
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_fast_path, bench_torus_batching);
criterion_main!(benches);
