//! The differential runner: one program, every engine mode, one
//! verdict.
//!
//! For each kernel the fast-path run is the oracle; the heap-path run,
//! plus a 3-way repetition of the oracle through the shard pool, must
//! reproduce its (outcome, final cycle, digest) triple exactly — 2
//! modes and 5 runs per kernel, 10 runs per checked program. Every run
//! is also swept by `Machine::check_invariants` — a mode can agree with
//! the oracle bit-for-bit and still fail the check if kernel
//! bookkeeping leaked (futex waiters, pending CIOD replies, partition
//! overlap).

use bgsim::machine::{LiveHook, Machine, RunOutcome};
use bgsim::trace::{TraceEntry, NO_CORE};
use bgsim::MachineConfig;

use crate::program::Program;

/// Which kernel a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckKernel {
    Cnk,
    Fwk,
}

impl CheckKernel {
    pub const ALL: [CheckKernel; 2] = [CheckKernel::Cnk, CheckKernel::Fwk];

    pub fn label(self) -> &'static str {
        match self {
            CheckKernel::Cnk => "cnk",
            CheckKernel::Fwk => "fwk",
        }
    }

    pub fn from_label(s: &str) -> Option<CheckKernel> {
        CheckKernel::ALL.iter().copied().find(|k| k.label() == s)
    }

    fn build(self) -> Box<dyn bgsim::Kernel> {
        match self {
            CheckKernel::Cnk => Box::new(cnk::Cnk::with_defaults()),
            CheckKernel::Fwk => Box::new(fwk::Fwk::with_defaults()),
        }
    }
}

/// One cell of the differential matrix: the scheduler path. The knob
/// is digest-neutral, so every mode must reproduce the oracle's
/// (outcome, final cycle, digest) triple exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mode {
    /// Compute fast path on (off = the reference heap scheduler walk).
    pub fast: bool,
}

impl Mode {
    /// Inverse of [`Mode::label`]: resolve a mode by its stable label
    /// (service job requests name their execution mode this way).
    pub fn from_label(s: &str) -> Option<Mode> {
        MODES.iter().copied().find(|m| m.label() == s)
    }

    /// Stable label: `fast` or `heap`.
    pub fn label(self) -> &'static str {
        if self.fast {
            "fast"
        } else {
            "heap"
        }
    }
}

/// The full single-machine matrix. The first entry (`fast` — the
/// production default) is the oracle.
pub const MODES: [Mode; 2] = [Mode { fast: true }, Mode { fast: false }];

/// Every valid mode label, comma-separated — for error messages that
/// reject an unknown label.
pub fn mode_labels() -> String {
    MODES.map(Mode::label).join(", ")
}

/// Shard-pool width for the repetition leg.
pub const SHARD_WAYS: usize = 3;

/// What one run produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunRecord {
    pub kernel: &'static str,
    pub mode: String,
    /// Outcome class (`completed`, `deadlock/2`, ...).
    pub outcome: String,
    pub final_cycle: u64,
    pub digest: u64,
    pub violations: Vec<String>,
    /// Coverage digest (telemetry counter vector + trace-digest prefix)
    /// — the fuzzer's novelty signal. Not part of the equality triple:
    /// it hashes *which* counters fired, not the canonical trace.
    pub coverage: u64,
}

impl RunRecord {
    /// The equality triple differential checking compares.
    pub fn triple(&self) -> (String, u64, u64) {
        (self.outcome.clone(), self.final_cycle, self.digest)
    }
}

fn outcome_label(out: &RunOutcome) -> String {
    match out {
        RunOutcome::Completed { .. } => "completed".to_string(),
        RunOutcome::ReachedCycle { .. } => "bound".to_string(),
        RunOutcome::Deadlock { blocked, .. } => format!("deadlock/{}", blocked.len()),
        RunOutcome::Idle { .. } => "idle".to_string(),
        RunOutcome::Cancelled { cause, .. } => cause.label().to_string(),
    }
}

/// How the checker failed on a program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// Two modes disagreed on (outcome, final cycle, digest).
    Mismatch,
    /// A run violated a kernel-semantic invariant.
    Violation,
    /// A run could not be constructed (config rejected, launch failed).
    Error,
}

/// A checker failure, with enough context to reproduce it.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    pub kernel: &'static str,
    /// The oracle mode (for mismatches) or the failing mode.
    pub base_mode: String,
    pub mode: String,
    pub detail: String,
    /// Rendered first-divergence report, when one could be produced.
    pub divergence: Option<String>,
    /// The failing run's recent past, replayed: the last trace entries
    /// of one rerun of the same program, kernel and mode with its trace
    /// kept, under a header saying whether the rerun reproduced the
    /// failure. `None` when the machine could not be built.
    pub flight: Option<String>,
}

impl Failure {
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:?} on kernel {} ({} vs {}):\n  {}",
            self.kind, self.kernel, self.base_mode, self.mode, self.detail
        );
        if let Some(d) = &self.divergence {
            s.push_str("\nfirst divergence:\n");
            s.push_str(d);
        }
        if let Some(f) = &self.flight {
            s.push('\n');
            s.push_str(f);
        }
        s
    }
}

/// How many trace entries a failure's evidence ends with: the last ones
/// the replay kept.
const EVIDENCE_ENTRIES: usize = 256;

fn build_machine(
    p: &Program,
    kernel: CheckKernel,
    mode: Mode,
    keep_trace: bool,
) -> Result<Machine, String> {
    let mut cfg = MachineConfig::nodes(p.nodes)
        .with_seed(p.seed)
        .with_telemetry()
        .with_fast_path(mode.fast);
    if keep_trace {
        cfg = cfg.with_trace();
    }
    if !p.faults.is_empty() {
        cfg = cfg.with_faults(p.faults.clone());
    }
    cfg.validate()?;
    let mut m = Machine::new(cfg, kernel.build(), Box::new(dcmf::Dcmf::with_defaults()));
    m.boot();
    m.launch(&p.job_spec(), &mut p.factory())
        .map_err(|e| format!("launch failed: {e:?}"))?;
    Ok(m)
}

/// Run `m` to the end. A panic mid-run must not tear down the process:
/// catch it and return its message, so the caller reports a checker
/// failure (and can replay the run for evidence).
fn run_caught(m: &mut Machine) -> Result<RunOutcome, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run())).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// One finished run: the machine, and how the run ended — its outcome,
/// or the message of the panic that stopped it (the machine then holds
/// the state, and a kept trace the entries, up to the panic).
struct Ran {
    kernel: CheckKernel,
    mode: Mode,
    m: Machine,
    out: Result<RunOutcome, String>,
}

impl Ran {
    /// The run's record; `Err` if it panicked. A cancelled or timed-out
    /// run skips the invariant sweep (quiescence assumptions do not
    /// hold mid-run).
    fn record(&self) -> Result<RunRecord, String> {
        let out = self
            .out
            .as_ref()
            .map_err(|msg| format!("run panicked: {msg}"))?;
        let interrupted = matches!(out, RunOutcome::Cancelled { .. });
        Ok(RunRecord {
            kernel: self.kernel.label(),
            mode: self.mode.label().to_string(),
            outcome: outcome_label(out),
            final_cycle: out.at(),
            digest: self.m.trace_digest(),
            violations: if interrupted {
                Vec::new()
            } else {
                self.m.check_invariants()
            },
            coverage: self.m.coverage_digest(),
        })
    }
}

/// The one build-run path every run takes: build, boot and launch `p`
/// in `mode`, attach `hook`, and run under the panic catch.
/// `keep_trace` keeps the trace entries (divergence reports and failure
/// evidence read them). `Err` when the machine could not be built.
fn run(
    p: &Program,
    kernel: CheckKernel,
    mode: Mode,
    keep_trace: bool,
    hook: LiveHook,
) -> Result<Ran, String> {
    let mut m = build_machine(p, kernel, mode, keep_trace)?;
    m.attach_live_hook(hook);
    let out = run_caught(&mut m);
    Ok(Ran {
        kernel,
        mode,
        m,
        out,
    })
}

/// Run and record `p` once in `mode` (the checker's legs, and the
/// replay/record paths).
pub fn run_mode(p: &Program, kernel: CheckKernel, mode: Mode) -> Result<RunRecord, String> {
    run(p, kernel, mode, false, LiveHook::default())?.record()
}

/// The steerable service entry: a single-mode run that also returns the
/// machine's cycle-accounting profile, with `hook` attached, so the run
/// can stream progress to a sink and be stopped early by a cancel token
/// or deadline (`LiveHook::default()` attaches nothing). A
/// cancelled/timed-out run returns a normal `Ok` record whose outcome is
/// `cancelled`/`timeout`; its invariant sweep is skipped and its triple
/// must never be treated as the job's canonical answer.
pub fn run_mode_live(
    p: &Program,
    kernel: CheckKernel,
    mode: Mode,
    hook: LiveHook,
) -> Result<(RunRecord, bgsim::ProfileSnapshot), String> {
    let ran = run(p, kernel, mode, false, hook)?;
    Ok((ran.record()?, ran.m.profile_snapshot()))
}

/// Re-run mode `a` with its trace retained and render where it first
/// diverges from `b`, a retained rerun of another mode (entry index,
/// both entries, surrounding context).
fn diverge_report(p: &Program, kernel: CheckKernel, a: Mode, b: &Ran) -> Option<String> {
    let ra = replay(p, kernel, a)?;
    bgsim::first_divergence(&ra.m.sc.trace, &b.m.sc.trace, 3).map(|d| d.render())
}

/// Rerun `p` in `mode` with its trace kept, for a failure's evidence;
/// `None` when the machine cannot be built.
fn replay(p: &Program, kernel: CheckKernel, mode: Mode) -> Option<Ran> {
    run(p, kernel, mode, true, LiveHook::default()).ok()
}

/// How a run ended, as a report fragment: its `(outcome, final cycle,
/// digest)`, or its error.
fn ended(r: Result<&RunRecord, &str>) -> String {
    match r {
        Ok(r) => format!(
            "outcome={} cycle={} digest={:016x}",
            r.outcome, r.final_cycle, r.digest
        ),
        Err(e) => e.to_string(),
    }
}

/// One kept trace entry as an evidence line: cycle, node, core (`-`
/// for none) and the event.
fn render_entry(e: &TraceEntry) -> String {
    let core = if e.core == NO_CORE {
        "-".to_string()
    } else {
        e.core.to_string()
    };
    format!("{:>12} n{:<4} c{:<4} {:?}\n", e.at, e.node, core, e.what)
}

/// A failure's evidence from `replay`, the failing run rerun with its
/// trace kept: a header saying whether the replay reproduced what the
/// failing run produced (`failed`: its record, or its error), then the
/// replay's last [`EVIDENCE_ENTRIES`] trace entries, oldest first.
fn evidence(replay: &Ran, failed: Result<&RunRecord, &str>) -> String {
    let rec = replay.record();
    let verdict = match (rec.as_ref().map_err(String::as_str), failed) {
        (Ok(r), Ok(f)) if r.triple() == f.triple() => format!(
            "reproduced the failing run's (outcome, final cycle, digest): {}",
            ended(Ok(r))
        ),
        (Err(e), Err(_)) => format!("{e}, as the failing run did"),
        (r, f) => format!(
            "did not reproduce the failing run: replay {}, failing run {}",
            ended(r),
            ended(f)
        ),
    };
    let entries = replay.m.sc.trace.entries();
    let tail = &entries[entries.len().saturating_sub(EVIDENCE_ENTRIES)..];
    let mut s = format!(
        "replay of {}/{} with its trace kept: {verdict}\nlast {} of {} trace entries:\n",
        replay.kernel.label(),
        replay.mode.label(),
        tail.len(),
        entries.len()
    );
    for e in tail {
        s.push_str(&render_entry(e));
    }
    s
}

/// Deliberate checker-facing mutations for the self-test: a working
/// checker must flag every one of these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Canary {
    /// One mode runs with a skewed machine seed.
    SeedSkew,
    /// One mode runs with an extra injected fault.
    ExtraFault,
    /// One mode runs a program missing its last op.
    DropTailOp,
    /// One mode's reported digest is flipped.
    DigestXor,
    /// One mode's reported final cycle is nudged.
    CycleSkew,
}

impl Canary {
    pub const ALL: [Canary; 5] = [
        Canary::SeedSkew,
        Canary::ExtraFault,
        Canary::DropTailOp,
        Canary::DigestXor,
        Canary::CycleSkew,
    ];

    /// The canary perturbs exactly one leg — (fwk, heap) — fwk
    /// because its noise model consumes the machine seed, so a seed
    /// skew is guaranteed digest-visible.
    fn applies(kernel: CheckKernel, mode: Mode) -> bool {
        kernel == CheckKernel::Fwk && !mode.fast
    }

    fn tamper_program(self, p: &Program) -> Program {
        let mut q = p.clone();
        match self {
            Canary::SeedSkew => q.seed = q.seed.wrapping_add(1),
            Canary::ExtraFault => {
                q.faults.push(bgsim::FaultEvent {
                    at: 50_000,
                    node: 0,
                    kind: bgsim::FaultKind::GuardStorm,
                    arg: 3,
                });
            }
            Canary::DropTailOp => {
                q.ops.pop();
            }
            Canary::DigestXor | Canary::CycleSkew => {}
        }
        q
    }

    fn tamper_record(self, rec: &mut RunRecord) {
        match self {
            Canary::DigestXor => rec.digest ^= 1,
            Canary::CycleSkew => rec.final_cycle = rec.final_cycle.wrapping_add(1),
            _ => {}
        }
    }
}

/// Check one program across the full mode matrix. `Ok` carries every
/// run record (for digest recording); `Err` the first failure.
///
/// The `Err` variant is deliberately fat (divergence report + replayed
/// evidence): it is built at most once per check, on the cold path.
#[allow(clippy::result_large_err)]
pub fn check_program(p: &Program) -> Result<Vec<RunRecord>, Failure> {
    check_program_tampered(p, None)
}

/// `check_program` with an optional canary mutation applied to one leg
/// (self-test plumbing; `None` is the production path).
#[allow(clippy::result_large_err)]
pub fn check_program_tampered(
    p: &Program,
    canary: Option<Canary>,
) -> Result<Vec<RunRecord>, Failure> {
    let mut records = Vec::new();
    for kernel in CheckKernel::ALL {
        let mut base: Option<RunRecord> = None;
        for m_spec in MODES {
            let (prog, tamper_rec) = match canary {
                Some(c) if Canary::applies(kernel, m_spec) => (c.tamper_program(p), Some(c)),
                _ => (p.clone(), None),
            };
            let mut rec = run_mode(&prog, kernel, m_spec).map_err(|e| Failure {
                kind: FailureKind::Error,
                kernel: kernel.label(),
                base_mode: m_spec.label().to_string(),
                mode: m_spec.label().to_string(),
                flight: replay(&prog, kernel, m_spec).map(|r| evidence(&r, Err(&e))),
                detail: e,
                divergence: None,
            })?;
            if let Some(c) = tamper_rec {
                c.tamper_record(&mut rec);
            }
            if !rec.violations.is_empty() {
                return Err(Failure {
                    kind: FailureKind::Violation,
                    kernel: kernel.label(),
                    base_mode: rec.mode.clone(),
                    mode: rec.mode.clone(),
                    detail: rec.violations.join("\n  "),
                    divergence: None,
                    flight: replay(&prog, kernel, m_spec).map(|r| evidence(&r, Ok(&rec))),
                });
            }
            match &base {
                None => base = Some(rec.clone()),
                Some(b) => {
                    if rec.triple() != b.triple() {
                        // One rerun of the failing mode serves the
                        // divergence report and the evidence.
                        let rerun = replay(&prog, kernel, m_spec);
                        let divergence = rerun
                            .as_ref()
                            .filter(|_| b.digest != rec.digest && canary.is_none())
                            .and_then(|r| diverge_report(p, kernel, MODES[0], r));
                        let flight = rerun.map(|r| evidence(&r, Ok(&rec)));
                        return Err(Failure {
                            kind: FailureKind::Mismatch,
                            kernel: kernel.label(),
                            base_mode: b.mode.clone(),
                            mode: rec.mode.clone(),
                            detail: format!(
                                "{}: {}\n  {}: {}",
                                b.mode,
                                ended(Ok(b)),
                                rec.mode,
                                ended(Ok(&rec))
                            ),
                            divergence,
                            flight,
                        });
                    }
                }
            }
            records.push(rec);
        }

        // Shard-pool repetition: the same oracle mode run SHARD_WAYS
        // times through the worker pool must stay bit-identical.
        let jobs: Vec<_> = (0..SHARD_WAYS)
            .map(|_| {
                let prog = p.clone();
                move || run_mode(&prog, kernel, MODES[0])
            })
            .collect();
        let Some(b) = base else { continue };
        for (i, res) in bench::par::run_shards(SHARD_WAYS, jobs)
            .into_iter()
            .enumerate()
        {
            let rec = res.map_err(|e| Failure {
                kind: FailureKind::Error,
                kernel: kernel.label(),
                base_mode: b.mode.clone(),
                mode: format!("shard{i}"),
                flight: replay(p, kernel, MODES[0]).map(|r| evidence(&r, Err(&e))),
                detail: e,
                divergence: None,
            })?;
            if rec.triple() != b.triple() {
                return Err(Failure {
                    kind: FailureKind::Mismatch,
                    kernel: kernel.label(),
                    base_mode: b.mode.clone(),
                    mode: format!("shard{i}"),
                    detail: format!(
                        "shard repetition diverged: digest {:016x} vs {:016x}, cycle {} vs {}",
                        b.digest, rec.digest, b.final_cycle, rec.final_cycle
                    ),
                    divergence: None,
                    flight: replay(p, kernel, MODES[0]).map(|r| evidence(&r, Ok(&rec))),
                });
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{generate, POp, Program};

    #[test]
    fn a_simple_program_passes_everywhere() {
        let p = Program {
            nodes: 2,
            seed: 0x51,
            ops: vec![
                POp::Compute { cycles: 9_000 },
                POp::Gettid,
                POp::Allreduce { bytes: 8 },
            ],
            faults: Default::default(),
        };
        let recs = check_program(&p).expect("clean program must pass");
        // 2 kernels × 2 modes.
        assert_eq!(recs.len(), 4);
        // Within a kernel all digests agree; across kernels they differ.
        assert_eq!(recs[0].digest, recs[1].digest);
        assert_eq!(recs[2].digest, recs[3].digest);
        assert_ne!(recs[0].digest, recs[2].digest);
        // Coverage digests are populated and distinguish the kernels
        // (different subsystems fire different counters).
        assert!(recs.iter().all(|r| r.coverage != 0));
        assert_ne!(recs[0].coverage, recs[2].coverage);
    }

    #[test]
    fn mode_labels_round_trip() {
        for m in MODES {
            assert_eq!(Mode::from_label(m.label()), Some(m));
        }
        for old in ["seq+fast", "win+heap", "seq+fast+cal+cf", ""] {
            assert_eq!(Mode::from_label(old), None, "{old:?}");
        }
        assert_eq!(mode_labels(), "fast, heap");
    }

    #[test]
    fn run_with_profile_matches_plain_run() {
        let p = Program {
            nodes: 2,
            seed: 0x77,
            ops: vec![POp::Compute { cycles: 4_000 }, POp::Barrier],
            faults: Default::default(),
        };
        let plain = run_mode(&p, CheckKernel::Cnk, MODES[0]).expect("plain run");
        let (rec, snap) = run_mode_live(&p, CheckKernel::Cnk, MODES[0], LiveHook::default())
            .expect("profiled run");
        assert_eq!(rec.triple(), plain.triple());
        assert!(snap.total_cycles() > 0, "profile must carry accounting");
    }

    /// A detected canary's evidence is one replay of the tampered leg
    /// with its trace kept: the header names that leg and says the
    /// replay reproduced it, and the evidence ends with exactly the last
    /// `EVIDENCE_ENTRIES` entries of the same tampered program, kernel
    /// and mode run in-process with `with_trace()`.
    #[test]
    fn failure_evidence_is_the_failing_legs_replayed_tail() {
        // The self-test program, four times over: a trace long enough
        // that its head and its tail are different entries.
        let mut p = crate::canary::selftest_program();
        p.ops = p.ops.repeat(4);
        let c = Canary::SeedSkew;
        let f = check_program_tampered(&p, Some(c)).expect_err("canary must be detected");
        assert_eq!(f.kind, FailureKind::Mismatch);
        let flight = f.flight.expect("a mismatch carries evidence");

        let (kernel, mode) = (CheckKernel::Fwk, Mode { fast: false });
        assert!(Canary::applies(kernel, mode), "the tampered leg");
        let render = |q: &Program, mode: Mode| {
            let mut m = build_machine(q, kernel, mode, true).expect("build");
            assert!(m.run().completed());
            m.sc.trace.entries().to_vec()
        };
        let entries = render(&c.tamper_program(&p), mode);
        assert!(
            entries.len() > EVIDENCE_ENTRIES,
            "{} entries",
            entries.len()
        );
        let lines = |es: &[TraceEntry]| es.iter().map(render_entry).collect::<String>();
        let tail = lines(&entries[entries.len() - EVIDENCE_ENTRIES..]);
        assert_ne!(tail, lines(&entries[..EVIDENCE_ENTRIES]));
        assert!(
            flight.ends_with(&tail),
            "evidence is not the tampered leg's last {EVIDENCE_ENTRIES} entries:\n{flight}"
        );
        assert!(
            flight.starts_with("replay of fwk/heap with its trace kept: reproduced"),
            "{}",
            flight.lines().next().unwrap_or_default()
        );
        // The other leg (the oracle mode, untampered) ends elsewhere.
        let other = render(&p, MODES[0]);
        assert_ne!(tail, lines(&other[other.len() - EVIDENCE_ENTRIES..]));
    }

    #[test]
    fn generated_programs_pass() {
        for seed in 0..3u64 {
            let p = generate(seed);
            if let Err(f) = check_program(&p) {
                panic!("seed {seed} failed:\n{}", f.render());
            }
        }
    }
}
