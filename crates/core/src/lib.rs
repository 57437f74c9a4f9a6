//! `cnk` — a faithful functional model of Blue Gene/P's Compute Node
//! Kernel, the lightweight kernel the paper describes.
//!
//! The crate implements every CNK mechanism the paper discusses:
//!
//! * **Static memory partitioning** (§IV.C): [`mem::partition`] tiles
//!   the 32-bit virtual space with {1 MB, 16 MB, 256 MB, 1 GB} pages into
//!   four contiguous regions under a per-core TLB budget.
//! * **mmap/brk bookkeeping** (§IV.C): [`mem::tracker`] "merely provides
//!   free addresses" with coalescing, no page faults.
//! * **NPTL support** (§IV.B.1): the clone-flag validation and uname
//!   gate; `set_tid_address`, the full futex table and `sigaction` are
//!   the `bgsim::posix` mechanics both kernels share.
//! * **Guard pages via DAC registers** (§IV.C): [`process::Guard`],
//!   including IPI-based repositioning when another thread extends the
//!   heap.
//! * **Non-preemptive affinity scheduling** (§IV.B.1, §VI.C):
//!   [`sched::Scheduler`], with the §VIII extended-affinity partner
//!   model.
//! * **Function-shipped I/O** (§IV.A): marshaling through `ciod::wire`
//!   over the simulated collective network to per-process ioproxies.
//! * **Persistent memory** (§IV.D): [`persist::PersistRegistry`] with
//!   virtual-address preservation across jobs.
//! * **Bringup behaviours** (§III): flag-driven boot on partial
//!   hardware ([`boot`]), cheap reproducible restart, and L1-parity
//!   recovery signals (§V.B).
//!
//! The entry point is [`Cnk`], a `bgsim::Kernel` implementation.

// The kernel model must be panic-free on untrusted input (syscall
// arguments and job specs come from generated programs); tests may
// still unwrap. Invariants that genuinely cannot fail use documented
// `expect`/`assert` messages. CI enforces this with a clippy run.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod boot;
pub mod features;
pub mod kernel;
pub mod mem;
pub mod persist;
pub mod process;
pub mod sched;

pub use kernel::{Cnk, CnkConfig};
