//! `bgserve` — simulation-as-a-service.
//!
//! On a real Blue Gene the compute nodes never accept jobs directly:
//! a service node owns the machine, queues job submissions, boots
//! partitions, and streams telemetry back to the submitter. This crate
//! reproduces that control-system shape for the *simulated* machine: a
//! persistent server accepts jobs — `(machine shape, seed, program,
//! fault spec)` — over a Unix or TCP socket, runs each one that must
//! simulate as soon as one of its run slots is free (on a steward
//! thread parked from an earlier job, when one is), and streams each
//! session its job lifecycle as newline-delimited JSON in the
//! workspace's one dialect ([`bench::json`], nesting capped at
//! [`bench::json::MAX_DEPTH`] levels; no new dependencies), one write
//! per reply.
//!
//! Because every simulation is deterministic, a completed job is a pure
//! function of its inputs — so results are memoized in an LRU cache
//! keyed by `(config digest, seed, program digest, fault digest)`
//! ([`key::JobKey`]). The execution mode (fast path on or off), proven
//! digest-neutral by `bgcheck`, is deliberately **excluded** from the
//! key: two requests for the same job in different modes share one
//! cache entry, which turns the cache
//! itself into a standing determinism check. `--paranoid` makes that
//! check explicit: every cache hit is re-executed fresh and the stored
//! triple `(outcome, final cycle, trace digest)` must match
//! bit-for-bit.
//!
//! Module map:
//! * [`key`] — the memoization key and what it deliberately omits;
//! * [`cache`] — the LRU result cache, with an optional on-disk tier
//!   written atomically via [`bench::report::write_atomic`];
//! * [`proto`] — the wire protocol on [`bench::json`] (requests, events);
//! * [`server`] — endpoints, sessions, the one table of live work (a
//!   row per open session and per admitted job, with its cancel token,
//!   and the monitor that renders them), the run slots that cap how
//!   many simulations run at once, and the steward threads that run
//!   them and park between jobs;
//! * [`client`] — a small blocking client for the CLI and tests;
//! * [`selfcheck`] — an in-process service-vs-oracle differential leg.

// The server reads untrusted bytes off a socket; like the simulator
// core it must never panic on bad input. Tests may still unwrap.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cache;
pub mod client;
pub mod key;
pub mod proto;
pub mod selfcheck;
pub mod server;

pub use cache::{CachedResult, ResultCache};
pub use client::{Client, JobResult};
pub use key::JobKey;
pub use server::{spawn, Endpoint, ServeOpts, ServerHandle};
