//! Heap allocations per rank at job launch (ROADMAP item 1).
//!
//! Launches a 4 096-node FWQ job the way perfbench `scale` launches its
//! 131 072-node one, under a counting global allocator, and bounds the
//! allocations `Machine::launch` makes per rank. What a rank needs is
//! its workload (the boxed sampler, its series name and sample buffer),
//! its core's DAC range table, its process's DAC-slot list and its
//! thread list. Its core list, guards and I/O proxy cost nothing until
//! used.
//!
//! The counter is thread-local, so allocations of other test threads do
//! not leak in; this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgsim::machine::{Machine, Recorder, Workload};
use bgsim::MachineConfig;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};
use workloads::fwq::{FwqConfig, FwqSampler};

const NODES: u32 = 4096;
/// Allocations per rank the launch may make (see the module doc).
const ALLOCS_PER_RANK: f64 = 6.0;

thread_local! {
    /// (allocations, bytes requested) on this thread.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn note(bytes: usize) {
    let _ = COUNT.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call forwards to `System` unchanged; the counter only
// reads a const-initialized thread-local cell, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn launch_allocates_at_most_six_times_per_rank() {
    let cfg = MachineConfig::nodes(NODES).with_seed(0x5CA1E);
    let mut m = Machine::new(
        cfg,
        Box::new(cnk::Cnk::with_defaults()),
        Box::new(dcmf::Dcmf::with_defaults()),
    );
    m.boot();
    let spec = JobSpec::new(AppImage::static_test("fwq-scale"), NODES, NodeMode::Smp);
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let mut factory = move |_r: Rank| {
        Box::new(FwqSampler::new(FwqConfig::quick(3), rec2.clone(), 0)) as Box<dyn Workload>
    };
    let before = COUNT.with(Cell::get);
    m.launch(&spec, &mut factory).expect("launch");
    let after = COUNT.with(Cell::get);
    let per_rank = (after.0 - before.0) as f64 / f64::from(NODES);
    let bytes_per_rank = (after.1 - before.1) as f64 / f64::from(NODES);
    println!("launch: {per_rank:.2} allocations and {bytes_per_rank:.0} B requested per rank");
    assert!(
        per_rank <= ALLOCS_PER_RANK,
        "launch made {per_rank:.2} allocations per rank (budget {ALLOCS_PER_RANK})"
    );
    // The launched job is real: it runs to completion and samples.
    assert!(m.run().completed());
    assert_eq!(rec.len("fwq_core0"), 3 * NODES as usize);
}
