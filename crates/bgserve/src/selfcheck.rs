//! The service leg of the differential matrix.
//!
//! `bgcheck` proves that every execution mode of the *embedded*
//! machine reproduces the oracle triple. This module closes the loop
//! for the *service* path: the same generated programs, submitted over
//! a real socket by several concurrent sessions in varied modes, must
//! come back with triples identical to in-process `run_mode` — and a
//! resubmission must be answered from the cache, bit-identical, with
//! `--paranoid` re-verifying the stored triple against a fresh run.
//!
//! Used by `bgserve selfcheck` (the CI smoke leg) and the integration
//! tests.

use bgcheck::program::{generate, Program};
use bgcheck::runner::{run_mode, CheckKernel, Mode, MODES};

use crate::client::Client;
use crate::server::{spawn, Endpoint, ServeOpts};

pub struct SelfcheckOpts {
    /// Worker-pool width of the in-process server.
    pub threads: usize,
    /// Concurrent client sessions (the acceptance floor is 4).
    pub sessions: usize,
    /// Jobs submitted per session.
    pub jobs_per_session: usize,
    /// First generator seed (each job uses `base_seed + index`).
    pub base_seed: u64,
}

impl Default for SelfcheckOpts {
    fn default() -> SelfcheckOpts {
        SelfcheckOpts {
            threads: 4,
            sessions: 4,
            jobs_per_session: 2,
            base_seed: 1000,
        }
    }
}

fn kernel_for(i: usize) -> CheckKernel {
    CheckKernel::ALL[i % CheckKernel::ALL.len()]
}

/// Sweep the mode matrix across jobs: the cache key ignores the mode,
/// so the service answers must match the oracle regardless.
fn mode_for(i: usize) -> Mode {
    MODES[i % MODES.len()]
}

/// Run the selfcheck. `Ok` carries a human-readable summary; `Err` the
/// first failure found.
pub fn run(opts: &SelfcheckOpts) -> Result<String, String> {
    let total = opts.sessions * opts.jobs_per_session;
    let sock = std::env::temp_dir().join(format!(
        "bgserve-selfcheck-{}-{}.sock",
        std::process::id(),
        opts.base_seed
    ));
    let _ = std::fs::remove_file(&sock);
    let endpoint = Endpoint::Unix(sock);

    let programs: Vec<Program> = (0..total)
        .map(|i| generate(opts.base_seed + i as u64))
        .collect();

    // Phase 1: the in-process oracle, sequential, no service involved.
    let mut oracle = Vec::with_capacity(total);
    for (i, p) in programs.iter().enumerate() {
        let rec = run_mode(p, kernel_for(i), MODES[0])
            .map_err(|e| format!("oracle run {i} failed: {e}"))?;
        oracle.push(rec.triple());
    }

    // Phase 2: the same jobs through the service, paranoid on, several
    // sessions at once, modes swept across the matrix.
    let mut serve_opts = ServeOpts::new(endpoint.clone());
    serve_opts.threads = opts.threads;
    serve_opts.paranoid = true;
    let handle = spawn(serve_opts)?;

    let run_sessions = |label: &str| -> Result<Vec<(usize, crate::client::JobResult)>, String> {
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for sess in 0..opts.sessions {
                let programs = &programs;
                let endpoint = &endpoint;
                handles.push(s.spawn(move || {
                    let mut c = Client::connect(endpoint)?;
                    let mut out = Vec::new();
                    for j in 0..opts.jobs_per_session {
                        let i = sess * opts.jobs_per_session + j;
                        let r = c
                            .submit(kernel_for(i), mode_for(i), &programs[i])
                            .map_err(|e| format!("session {sess} job {i}: {e}"))?;
                        out.push((i, r));
                    }
                    Ok::<_, String>(out)
                }));
            }
            let mut all = Vec::new();
            for h in handles {
                let batch = h
                    .join()
                    .map_err(|_| format!("{label}: session thread panicked"))??;
                all.extend(batch);
            }
            Ok(all)
        })
    };

    let check = |label: &str,
                 results: &[(usize, crate::client::JobResult)],
                 want_cached: bool|
     -> Result<(), String> {
        for (i, r) in results {
            if r.triple() != oracle[*i] {
                return Err(format!(
                    "{label}: job {i} triple {:?} != oracle {:?}",
                    r.triple(),
                    oracle[*i]
                ));
            }
            if r.cached != want_cached {
                return Err(format!(
                    "{label}: job {i} cached={} (expected {want_cached})",
                    r.cached
                ));
            }
            if want_cached && r.paranoid != "ok" {
                return Err(format!(
                    "{label}: job {i} paranoid={:?} (expected \"ok\")",
                    r.paranoid
                ));
            }
            if !r.warnings.is_empty() {
                return Err(format!("{label}: job {i} warnings: {:?}", r.warnings));
            }
        }
        Ok(())
    };

    let fresh = run_sessions("fresh")?;
    check("fresh", &fresh, false)?;

    // Phase 3: resubmit everything — every answer must be a cache hit,
    // bit-identical, with the paranoid re-run confirming the digest.
    let replay = run_sessions("replay")?;
    check("replay", &replay, true)?;

    // Phase 4: the status counters must agree with what just happened.
    let mut c = Client::connect(&endpoint)?;
    let status = c.status()?;
    let expect = |k: &str, want: u64| -> Result<(), String> {
        match status.path_num(&[k]) {
            Some(v) if v == want as f64 => Ok(()),
            got => Err(format!("status: {k}={got:?} (expected {want})")),
        }
    };
    expect("cache_misses", total as u64)?;
    expect("cache_hits", total as u64)?;
    expect("paranoid_checks", total as u64)?;
    expect("paranoid_failures", 0)?;

    // Phase 5: the live-job leg. A fresh program with an impossible
    // cycle budget must come back `timeout` — and must NOT poison the
    // cache: the follow-up submission is a fresh run matching the
    // oracle, and only then does a resubmit hit the cache.
    let live_program = generate(opts.base_seed + total as u64 + 999);
    let live_req = crate::proto::LiveReq {
        timeout_cycles: Some(1),
        ..Default::default()
    };
    let t = c
        .submit_live(kernel_for(0), MODES[0], &live_program, live_req)
        .map_err(|e| format!("timeout leg submit: {e}"))?;
    if t.outcome != "timeout" {
        return Err(format!(
            "timeout leg: outcome {:?} (expected \"timeout\")",
            t.outcome
        ));
    }
    if t.cached {
        return Err("timeout leg: interrupted job answered from cache".to_string());
    }
    let live_oracle = run_mode(&live_program, kernel_for(0), MODES[0])
        .map_err(|e| format!("timeout-leg oracle failed: {e}"))?
        .triple();
    let retry = c
        .submit(kernel_for(0), MODES[0], &live_program)
        .map_err(|e| format!("timeout leg retry: {e}"))?;
    if retry.cached {
        return Err("timeout leg: truncated triple was memoized (poisoned cache)".to_string());
    }
    if retry.triple() != live_oracle {
        return Err(format!(
            "timeout leg: retry triple {:?} != oracle {:?}",
            retry.triple(),
            live_oracle
        ));
    }
    let replayed = c
        .submit(kernel_for(0), MODES[0], &live_program)
        .map_err(|e| format!("timeout leg replay: {e}"))?;
    if !replayed.cached || replayed.paranoid != "ok" {
        return Err(format!(
            "timeout leg: replay cached={} paranoid={:?} (expected cache hit, \"ok\")",
            replayed.cached, replayed.paranoid
        ));
    }
    let status = c.status()?;
    match status.path_num(&["timeouts"]) {
        Some(1.0) => {}
        got => return Err(format!("status: timeouts={got:?} (expected 1)")),
    }

    c.shutdown()?;
    drop(c);
    handle.join()?;

    Ok(format!(
        "selfcheck ok: {} jobs × ({} sessions, {} threads), {} cache hits \
         paranoid-verified, 0 mismatches; timeout leg clean (no poisoned entry)",
        total, opts.sessions, opts.threads, total
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selfcheck_passes_end_to_end() {
        let opts = SelfcheckOpts {
            threads: 4,
            sessions: 4,
            jobs_per_session: 1,
            base_seed: 4100,
        };
        let summary = run(&opts).expect("selfcheck must pass");
        assert!(summary.contains("selfcheck ok"), "{summary}");
    }
}
