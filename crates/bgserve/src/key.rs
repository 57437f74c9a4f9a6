//! The memoization key: which inputs define a job's result.
//!
//! A simulation result is a pure function of the machine shape, the
//! seed, the program, and the fault schedule. The key folds exactly
//! those four — and *only* those four:
//!
//! * `config` uses [`MachineConfig::semantic_digest`], which already
//!   excludes every knob the differential checker proves digest-neutral
//!   (the fast path, observability toggles);
//! * the execution [`Mode`](bgcheck::runner::Mode) is omitted entirely
//!   for the same reason — a job run in either mode per kernel
//!   (`fast`, `heap`) must share one cache entry.
//!
//! The payoff is that the cache doubles as a determinism audit: if two
//! digest-neutral requests ever disagreed, the second would collide
//! with the first's entry and `--paranoid` would catch the mismatch.

use bgcheck::program::Program;
use bgcheck::runner::CheckKernel;
use bgsim::config::DigestFold;
use bgsim::MachineConfig;

/// The four-legged cache key for one job, plus the kernel that
/// interprets it (CNK and FWK runs of one program are distinct jobs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobKey {
    pub kernel: &'static str,
    /// [`MachineConfig::semantic_digest`] of the job's machine shape.
    pub config: u64,
    pub seed: u64,
    /// [`Program::ops_digest`] — order/name/argument sensitive.
    pub ops: u64,
    /// [`FaultSchedule::digest`](bgsim::fault::FaultSchedule::digest)
    /// of the *resolved* schedule (a seeded spec resolves first, so
    /// `{"seed":7}` and its expansion share an entry).
    pub faults: u64,
}

impl JobKey {
    /// Derive the key for running `p` under `kernel`.
    pub fn of(kernel: CheckKernel, p: &Program) -> JobKey {
        JobKey {
            kernel: kernel.label(),
            config: MachineConfig::nodes(p.nodes).semantic_digest(),
            seed: p.seed,
            ops: p.ops_digest(),
            faults: p.faults.digest(),
        }
    }

    /// One FNV-1a word folding all five legs — the cache map key.
    pub fn digest(&self) -> u64 {
        let mut h = DigestFold::new();
        for b in self.kernel.bytes() {
            h.word(b as u64);
        }
        h.word(self.config)
            .word(self.seed)
            .word(self.ops)
            .word(self.faults);
        h.finish()
    }

    /// The wire/disk rendering (16 hex digits).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgcheck::program::POp;

    fn base() -> Program {
        Program {
            nodes: 2,
            seed: 7,
            ops: vec![POp::Compute { cycles: 100 }, POp::Barrier],
            faults: Default::default(),
        }
    }

    #[test]
    fn every_leg_perturbs_the_key() {
        let d = JobKey::of(CheckKernel::Cnk, &base()).digest();
        assert_ne!(JobKey::of(CheckKernel::Fwk, &base()).digest(), d);
        let mut p = base();
        p.nodes = 4;
        assert_ne!(JobKey::of(CheckKernel::Cnk, &p).digest(), d);
        let mut p = base();
        p.seed = 8;
        assert_ne!(JobKey::of(CheckKernel::Cnk, &p).digest(), d);
        let mut p = base();
        p.ops.pop();
        assert_ne!(JobKey::of(CheckKernel::Cnk, &p).digest(), d);
        let mut p = base();
        p.faults.push(bgsim::FaultEvent {
            at: 1000,
            node: 0,
            kind: bgsim::FaultKind::GuardStorm,
            arg: 1,
        });
        assert_ne!(JobKey::of(CheckKernel::Cnk, &p).digest(), d);
        // Same inputs, same key.
        assert_eq!(JobKey::of(CheckKernel::Cnk, &base()).digest(), d);
    }
}
