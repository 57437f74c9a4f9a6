//! `fwk` — the full-weight (Linux-like) kernel baseline.
//!
//! This models the comparison system of the paper's Fig. 5 experiment: a
//! SUSE-derived Linux 2.6.16 running on the same BG/P hardware, tuned the
//! way the paper tuned it ("all processes were suspended except for init,
//! a single shell, the FWQ benchmark, and various kernel daemons that
//! cannot be suspended").
//!
//! Where CNK eliminates a mechanism, FWK implements the general version:
//!
//! * [`noise`] — timer ticks and the unsuspendable kernel daemons, the
//!   OS jitter of §V.A;
//! * [`vm`] — demand paging with 4 KiB pages, software TLB refills,
//!   per-page protection enforcement, and the 3 GB task limit (§VII.A);
//! * preemptive round-robin timeslicing with thread overcommit
//!   (Table II: available on Linux, not on CNK);
//! * local POSIX I/O against the mounted network filesystem (no function
//!   shipping — every compute node is a filesystem client, which is the
//!   client-count problem §VII.A mentions);
//! * general process creation: `Op::Spawn` accepts non-NPTL clone flags
//!   (the fork path CNK refuses with ENOSYS).

// The baseline kernel must be panic-free on untrusted input, like CNK
// (syscall arguments come from generated programs); tests may still
// unwrap. CI enforces this with a clippy run.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod boot;
pub mod features;
pub mod kernel;
pub mod noise;
pub mod vm;

pub use kernel::{Fwk, FwkConfig};
