//! `bgsim` — a deterministic discrete-event simulator of a Blue Gene/P-like
//! machine, plus the harness that runs kernels and workloads on it.
//!
//! The paper's evaluation runs on physical BG/P hardware: an 850 MHz
//! quad-core PPC450 SoC with L1/L2/L3 caches, a DDR2 controller with
//! self-refresh, a 3D torus with a DMA engine, a collective (tree)
//! network, a global barrier network, clock-stop logic, and Debug Address
//! Compare (DAC) registers. This crate models each of those units at the
//! level the paper's experiments observe them: cycle counts, latencies,
//! bandwidths, noise, and reproducibility.
//!
//! The crate also defines the three plug-in points the rest of the
//! workspace implements:
//!
//! * [`machine::Kernel`] — implemented by the `cnk` and `fwk` crates;
//! * [`machine::CommModel`] — implemented by the `dcmf` crate;
//! * [`machine::Workload`] — implemented by the `workloads` crate.
//!
//! Everything is single-threaded and seeded: two machines constructed with
//! the same configuration and seed produce bit-identical event traces,
//! which is the property Section III of the paper builds its chip-bringup
//! methodology on.

// The simulator core must be panic-free on untrusted input (malformed
// fault scripts and CLI flags reach machine construction); tests may
// still unwrap. Invariants that genuinely cannot fail use documented
// `expect`/`assert` messages. CI enforces this with a clippy run.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod ade;
pub mod barrier;
pub mod chip;
pub mod collective;
pub mod config;
pub mod cycles;
pub mod dac;
pub mod engine;
pub mod fault;
pub mod features;
pub mod idmap;
pub mod machine;
pub mod mem;
pub mod noise;
pub mod op;
pub mod posix;
pub mod rng;
pub mod scan;
pub mod script;
pub mod telemetry;
pub mod tlb;
pub mod torus;
pub mod trace;

pub use config::{ChipConfig, MachineConfig, UnitStatus};
pub use cycles::{Cycle, CLOCK_MHZ};
pub use fault::{FaultEvent, FaultKind, FaultSchedule, FaultSpec};
pub use machine::{
    BlockKind, BootReport, CancelCause, CancelToken, CommAction, CommCaps, CommModel, JobMap,
    Kernel, KernelEventTag, LaunchError, LiveHook, Machine, NetDomain, NetMsg, ProgressCtl,
    ProgressReport, ProgressSink, RankInfo, Recorder, SimCore, SyscallAction, Thread, ThreadState,
    WlEnv, Workload, WorkloadFactory,
};
pub use op::{ApiLayer, CloneArgs, CommOp, Op, Protocol};
pub use telemetry::{
    coverage_digest, first_divergence, DivergenceReport, Domain, Hist, MetricId, MetricsRegistry,
    ProfileSnapshot, Profiler, Scope, Slot, Telemetry,
};
