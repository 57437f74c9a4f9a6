//! `bgcheck` — a differential determinism checker for the simulated
//! machine.
//!
//! The simulator's load-bearing claim is that one program produces one
//! behaviour: the same configuration and seed must give bit-identical
//! trace digests whether the machine runs alone or through the shard
//! pool, with the event-reduction fast path on or off. `bgcheck`
//! attacks that claim the way a fuzzer attacks a parser:
//!
//! 1. [`program`] defines a small structured language of kernel-facing
//!    operations (compute quanta, clone/join, function-shipped I/O,
//!    torus/collective traffic, fault schedules) and a seeded generator.
//! 2. [`runner`] executes a program across the mode matrix
//!    {CNK, FWK} × {fast path on/off, shard pool} × {clean, seeded
//!    faults} and asserts digest equality where required plus the
//!    kernel-semantic invariants exposed by
//!    `Machine::check_invariants` (monotonic cycle time, futex wake
//!    accounting, memory-partition conservation, no lost CIOD replies,
//!    telemetry counter sanity).
//! 3. On a mismatch, [`shrink`] reduces the program to a minimal still-
//!    failing case and [`script`] serializes it as a replayable text
//!    script (the same line-oriented shape as `FaultSchedule::parse`),
//!    with a first-divergence report from the telemetry subsystem and
//!    the failing run's last trace entries, from one replay of it.
//! 4. [`canary`] is the checker's own regression harness: deliberately
//!    injected mutations that a working checker must catch.

// The checker consumes untrusted scripts and drives the kernels with
// adversarial programs; like the simulator core it must never panic on
// bad input. Tests may still unwrap.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod canary;
pub mod program;
pub mod runner;
pub mod script;
pub mod shrink;

pub use canary::{selftest, selftest_with_artifacts, Canary};
pub use program::{generate, POp, Program};
pub use runner::{check_program, CheckKernel, Failure, FailureKind, RunRecord};
pub use script::{parse_script, to_script, to_script_with_pins, DigestPin, Replay};
pub use shrink::shrink;
