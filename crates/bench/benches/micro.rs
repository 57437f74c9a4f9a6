//! Criterion microbenchmarks of the substrate hot paths: the event
//! engine, the futex table, the static partitioner, the VFS/ioproxy, the
//! function-ship wire codec, and torus math. These are the pieces every
//! experiment runs through, so their cost determines how large a machine
//! the simulator can handle.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bgsim::engine::{Engine, EvKind};
use ciod::{IoProxy, Vfs};
use cnk::futex::FutexTable;
use cnk::mem::{partition_node, ProcRequirements};
use sysabi::{Fd, OpenFlags, SysReq, Tid};

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine_schedule_pop_1k", |b| {
        b.iter(|| {
            let mut e = Engine::new();
            for i in 0..1000u64 {
                e.schedule(i * 7 % 997, EvKind::Kernel { node: 0, tag: i });
            }
            let mut n = 0;
            while e.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    // The O(1)-cancel path: schedule a thousand OpDone-style events,
    // cancel half through their handles (the stretch_running pattern),
    // and drain. Exercises lazy dead-entry discard plus threshold
    // compaction.
    c.bench_function("engine_cancel_discard_1k", |b| {
        b.iter(|| {
            let mut e = Engine::new();
            let handles: Vec<_> = (0..1000u64)
                .map(|i| {
                    e.schedule(
                        i * 7 % 997 + 1,
                        EvKind::Kernel {
                            node: (i % 4) as u32,
                            tag: i,
                        },
                    )
                })
                .collect();
            for h in handles.into_iter().step_by(2) {
                e.cancel(h);
            }
            let mut n = 0;
            while e.pop().is_some() {
                n += 1;
            }
            black_box((n, e.stats().stale_discarded))
        })
    });
}

fn bench_futex(c: &mut Criterion) {
    c.bench_function("futex_wait_wake_100", |b| {
        b.iter(|| {
            let mut f = FutexTable::new();
            for i in 0..100 {
                f.wait(0x1000, Tid(i), u32::MAX);
            }
            black_box(f.wake(0x1000, u32::MAX, u32::MAX).len())
        })
    });
    c.bench_function("futex_requeue_broadcast", |b| {
        b.iter(|| {
            let mut f = FutexTable::new();
            for i in 0..64 {
                f.wait(0xC0, Tid(i), u32::MAX);
            }
            black_box(f.requeue(0xC0, 1, u32::MAX, 0x40))
        })
    });
}

fn bench_partitioner(c: &mut Criterion) {
    let req = ProcRequirements {
        text_bytes: 24 << 20,
        data_bytes: 8 << 20,
        heap_stack_bytes: 192 << 20,
        shared_bytes: 16 << 20,
        dynamic_bytes: 32 << 20,
    };
    c.bench_function("partition_node_vn_mode", |b| {
        b.iter(|| {
            black_box(partition_node(black_box(&req), 4, 2 << 30, 16 << 20, 64 << 20, 60).unwrap())
        })
    });
}

fn bench_vfs(c: &mut Criterion) {
    c.bench_function("ioproxy_open_write_close", |b| {
        let mut vfs = Vfs::new();
        let mut proxy = IoProxy::new(0, 1000, 100, &vfs);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let path = format!("/f{}", i % 64);
            let fd = proxy
                .execute(
                    &mut vfs,
                    &SysReq::Open {
                        path,
                        flags: OpenFlags::WRONLY | OpenFlags::CREAT,
                        mode: 0o644,
                    },
                )
                .val();
            proxy.execute(
                &mut vfs,
                &SysReq::Write {
                    fd: Fd(fd as i32),
                    data: vec![7u8; 256],
                },
            );
            proxy.execute(&mut vfs, &SysReq::Close { fd: Fd(fd as i32) });
        })
    });
}

fn bench_wire(c: &mut Criterion) {
    let req = SysReq::Write {
        fd: Fd(5),
        data: vec![42u8; 4096],
    };
    c.bench_function("wire_encode_decode_write4k", |b| {
        b.iter(|| {
            let bytes = ciod::wire::encode_req(black_box(&req));
            black_box(ciod::wire::decode_req(&bytes).unwrap())
        })
    });
}

fn bench_torus(c: &mut Criterion) {
    let t = bgsim::torus::Torus::new(&bgsim::MachineConfig::nodes(64));
    c.bench_function("torus_hops_all_pairs_64", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for a in 0..64 {
                for bn in 0..64 {
                    acc += t.hops(sysabi::NodeId(a), sysabi::NodeId(bn));
                }
            }
            black_box(acc)
        })
    });
}

fn bench_fwq_sim(c: &mut Criterion) {
    // End-to-end: how fast does the simulator run one FWQ sample set?
    c.bench_function("simulate_fwq_cnk_100_samples", |b| {
        b.iter(|| {
            let run = bench::harness::run_fwq(bench::harness::KernelKind::Cnk, 100, 1);
            black_box(run.rec.len("fwq_core0"))
        })
    });
}

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
                let run =
                    bench::harness::run_fwq_opts(bench::harness::KernelKind::Cnk, 200, 1, fast);
                black_box((run.digest, run.sim_events))
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

criterion_group!(
    benches,
    bench_engine,
    bench_futex,
    bench_partitioner,
    bench_vfs,
    bench_wire,
    bench_torus,
    bench_fwq_sim,
    bench_fast_path,
    bench_torus_batching
);
criterion_main!(benches);
