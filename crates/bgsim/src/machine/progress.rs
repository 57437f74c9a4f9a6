//! Cooperative live-run control: progress reporting, cancellation, and
//! deadlines for the execution drivers.
//!
//! The service node on a real machine can *watch and steer* a running
//! job, not just collect its exit code. This module gives the simulated
//! machine the same property without touching determinism: the run
//! drivers invoke an attached [`ProgressSink`] every
//! `interval_cycles` of simulated time, and between reports they poll a
//! shared [`CancelToken`] and the optional cycle deadline.
//!
//! Neutrality contract: with `timeout_wall` unset, nothing here reads
//! the host clock — reports fire on *simulated* cycle boundaries and
//! every observation is read-only (`engine.processed()`, a profiler
//! snapshot clone). A run with a hook attached whose sink always
//! returns [`ProgressCtl::Continue`] is therefore digest-, cycle-, and
//! profile-identical to the same run without one, for any interval —
//! pinned by the `progress_hook_is_neutral` proptest. The only
//! intentional side channel is the engine's occupancy counters (a hook
//! forces extra fast-path flush/re-enter transitions, visible as
//! `stale_discarded` churn), which feed the *coverage* digest, never
//! the trace digest or the profile.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cycles::Cycle;
use crate::telemetry::ProfileSnapshot;

/// A shared cancellation flag: set once, observed by every clone. The
/// run drivers poll it between events; setting it mid-run yields a
/// clean [`RunOutcome::Cancelled`](crate::machine::RunOutcome) at the
/// next poll instead of tearing anything down.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Why a run was cancelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CancelCause {
    /// The [`CancelToken`] was set (client request, session drop).
    Requested,
    /// The simulated-cycle budget (`timeout_cycles`) ran out.
    TimeoutCycles,
    /// The wall-clock budget (`timeout_wall`) ran out.
    TimeoutWall,
}

impl CancelCause {
    /// Stable outcome label (`cancelled` or `timeout`) for records and
    /// wire results.
    pub fn label(self) -> &'static str {
        match self {
            CancelCause::Requested => "cancelled",
            CancelCause::TimeoutCycles | CancelCause::TimeoutWall => "timeout",
        }
    }
}

/// One progress report, delivered to the sink on a simulated-cycle
/// cadence. Cumulative fields plus deltas since the previous report.
#[derive(Clone, Debug)]
pub struct ProgressReport {
    /// Engine clock at the report.
    pub cycle: Cycle,
    /// Heap events processed so far (fast-path retirements bypass the
    /// heap and are visible in `profile` instead).
    pub events: u64,
    /// Events since the previous report.
    pub d_events: u64,
    /// Cycles advanced since the previous report.
    pub d_cycles: u64,
    /// Live (non-exited) threads right now.
    pub live_threads: usize,
    /// Cumulative profiler snapshot (the delta is derivable by diffing
    /// against the previous report's snapshot).
    pub profile: ProfileSnapshot,
}

/// What the sink wants the run to do next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProgressCtl {
    Continue,
    /// Stop the run with a [`RunOutcome::Cancelled`]
    /// (crate::machine::RunOutcome) carrying this cause.
    Cancel(CancelCause),
}

/// A progress consumer. Implemented for any `FnMut` closure; the
/// return value lets a sink double as a steering hook (a server whose
/// client vanished cancels from here).
pub trait ProgressSink: Send {
    fn on_progress(&mut self, report: &ProgressReport) -> ProgressCtl;
}

impl<F: FnMut(&ProgressReport) -> ProgressCtl + Send> ProgressSink for F {
    fn on_progress(&mut self, report: &ProgressReport) -> ProgressCtl {
        self(report)
    }
}

/// Configuration for a live (steerable) run, attached with
/// [`Machine::attach_live_hook`](crate::machine::Machine::attach_live_hook)
/// before calling a run driver.
#[derive(Default)]
pub struct LiveHook {
    /// Simulated cycles between progress reports; 0 disables reporting
    /// (cancel/deadline polling still runs).
    pub interval_cycles: u64,
    pub sink: Option<Box<dyn ProgressSink>>,
    pub cancel: Option<CancelToken>,
    /// Simulated-cycle budget, relative to the clock at attach time.
    pub timeout_cycles: Option<u64>,
    /// Wall-clock budget. The only knob here that reads the host clock
    /// — runs using it are explicitly non-deterministic in *outcome*
    /// (never in any completed result) and must not be memoized.
    pub timeout_wall: Option<Duration>,
}

impl LiveHook {
    /// True when attaching this hook would change nothing.
    pub fn is_noop(&self) -> bool {
        self.sink.is_none()
            && self.cancel.is_none()
            && self.timeout_cycles.is_none()
            && self.timeout_wall.is_none()
    }
}

/// Runtime state of an attached hook (a `Machine` field; the drivers
/// call [`LiveState::tick`] once per event-loop iteration).
pub(crate) struct LiveState {
    pub sink: Option<Box<dyn ProgressSink>>,
    pub cancel: Option<CancelToken>,
    /// Absolute cycle deadline (attach clock + `timeout_cycles`).
    pub deadline: Option<Cycle>,
    pub wall_deadline: Option<Instant>,
    pub interval: u64,
    pub next_report_at: Cycle,
    /// Loop iterations since attach; gates the between-report
    /// cancel/deadline polls so they cost one modulo on the hot path.
    pub ticks: u64,
    /// Sticky "a check is due" flag: the fast path sets it when it
    /// breaks out for a check, so the loop head cannot miss it.
    pub due: bool,
    pub last_events: u64,
    pub last_cycle: Cycle,
}

impl LiveState {
    /// Poll cadence for cancel tokens and deadlines, in loop
    /// iterations. Low enough that a same-cycle event storm stays
    /// cancellable, high enough to be invisible in profiles.
    pub const TICK_CHECK: u64 = 1024;

    pub fn new(hook: LiveHook, now: Cycle, events: u64) -> LiveState {
        let interval = hook.interval_cycles;
        LiveState {
            sink: hook.sink,
            cancel: hook.cancel,
            deadline: hook.timeout_cycles.map(|t| now.saturating_add(t)),
            wall_deadline: hook
                .timeout_wall
                .and_then(|d| Instant::now().checked_add(d)),
            interval,
            next_report_at: if interval == 0 {
                Cycle::MAX
            } else {
                now.saturating_add(interval)
            },
            ticks: 0,
            due: false,
            last_events: events,
            last_cycle: now,
        }
    }

    /// Count one loop iteration; true when the driver should run a full
    /// check (report, cancel, deadline) at this point.
    pub fn tick(&mut self, now: Cycle) -> bool {
        self.ticks += 1;
        let polled = self.cancel.is_some() || self.wall_deadline.is_some();
        let due = self.due
            || now >= self.next_report_at
            || self.deadline.is_some_and(|d| now >= d)
            || (polled && self.ticks.is_multiple_of(Self::TICK_CHECK));
        if due {
            self.due = true;
        }
        due
    }
}
