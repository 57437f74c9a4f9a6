//! A deterministic shard pool for the benchmark suite.
//!
//! Most experiments run many *independent* simulations (one per
//! message size, per kernel, per sample seed). Each simulation is
//! internally deterministic, so the only thing a worker pool must
//! guarantee is that results are collected **by shard index**, never by
//! completion order — then `--threads N` produces bit-identical output
//! to `--threads 1` for any `N`, and the single-threaded run stays the
//! conformance oracle.
//!
//! Workers claim shards from a shared atomic counter (work stealing by
//! index), which keeps the pool busy even when shard costs are wildly
//! uneven (a 4 MB rendezvous sweep next to a 512 B one).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run every job and return the results in job order. `threads <= 1`
/// runs inline on the caller's thread (the reference mode); otherwise a
/// scoped worker pool claims jobs by index.
pub fn run_shards<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let n = jobs.len();
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i].lock().unwrap().take().expect("job claimed once");
                let out = job();
                *results[i].lock().unwrap() = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every shard completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_job_order() {
        let jobs: Vec<_> = (0..32).map(|i| move || i * i).collect();
        let seq = run_shards(1, jobs);
        let jobs: Vec<_> = (0..32).map(|i| move || i * i).collect();
        let par = run_shards(4, jobs);
        assert_eq!(seq, par);
        assert_eq!(seq[7], 49);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..3).map(|i| move || i + 1).collect();
        assert_eq!(run_shards(16, jobs), vec![1, 2, 3]);
    }

    #[test]
    fn zero_threads_runs_inline() {
        let jobs: Vec<_> = (0..2).map(|i| move || i).collect();
        assert_eq!(run_shards(0, jobs), vec![0, 1]);
    }
}
