//! Parallel-mode conformance on the real kernels: the shard pool (the
//! bench suite's `--threads N`) must return results independent of
//! worker count.

use bench::harness::{nn_throughput, KernelKind};
use bench::par::run_shards;
use bgsim::fault::FaultSpec;

#[test]
fn shard_pool_is_thread_count_invariant() {
    // The full bench shape: interleaved kernels and sizes, executed on
    // 1 and 4 worker threads; digests must be identical position by
    // position.
    let shards: Vec<(KernelKind, u64)> = vec![
        (KernelKind::Cnk, 512),
        (KernelKind::Fwk, 512),
        (KernelKind::Cnk, 4096),
        (KernelKind::Fwk, 4096),
    ];
    let run_all = |threads: usize| -> Vec<(u64, u64)> {
        let jobs: Vec<_> = shards
            .iter()
            .map(|&(kind, bytes)| {
                move || {
                    let (_, r) = nn_throughput(kind, 8, bytes, 8, true, false, &FaultSpec::None);
                    (r.digest, r.final_cycle)
                }
            })
            .collect();
        run_shards(threads, jobs)
    };
    assert_eq!(run_all(1), run_all(4));
}
