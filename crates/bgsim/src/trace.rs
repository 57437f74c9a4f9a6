//! The event stream of a run, and its digest.
//!
//! The reproducibility experiments compare whole runs: two machines with
//! the same configuration and seed must produce identical event streams
//! (§III). The executor, `SimCore`, `posix`, the kernels and the
//! messaging model each record an event with one [`Trace::record`] call.
//! Ten kinds (ops, syscalls, messages, noise, IPIs, hardware faults,
//! thread exits) fold into a rolling FNV digest that tests compare in
//! O(1); the other kinds (scheduling, futexes, memory faults, daemons,
//! function shipping, DCMF phases, RAS) fold nothing, so they can be
//! added or dropped without moving a digest. Comparing streams directly
//! is O(run length) in memory, so entries of every kind are kept only
//! when asked for (`MachineConfig::with_trace`): the `--trace-out`
//! exporter, [`crate::telemetry::first_divergence`] and tests read them.

use crate::cycles::Cycle;

/// The `core` of an event with no core affinity (a node-level message
/// phase, a function-ship reply, a kernel RAS event).
pub const NO_CORE: u32 = u32::MAX;

/// One recorded trace entry: when and where an event happened, and
/// what it was.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEntry {
    pub at: Cycle,
    pub node: u32,
    /// Global core id, or [`NO_CORE`].
    pub core: u32,
    pub what: TraceEvent,
}

/// The observable simulator events. The entry's node and core say where
/// an event happened; a variant's fields say what happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    // ---- Digested: `Trace::record` folds the fields named in its doc.
    /// An op began executing for `cost` cycles.
    OpStart {
        tid: u32,
        opname: &'static str,
        cost: u64,
    },
    OpEnd {
        tid: u32,
    },
    SyscallEnter {
        tid: u32,
        name: &'static str,
    },
    /// `name` and `cost` (the cycles the syscall charged) are not
    /// digested.
    SyscallExit {
        tid: u32,
        ok: bool,
        name: &'static str,
        cost: u64,
    },
    /// A message left the entry's node for `dst`.
    MsgSend {
        dst: u32,
        bytes: u64,
        tag: u64,
    },
    /// A message arrived at the entry's node.
    MsgRecv {
        bytes: u64,
        tag: u64,
    },
    /// Whatever ran on the entry's core was stretched by `cycles`.
    Noise {
        tag: u64,
        cycles: u64,
    },
    Ipi {
        kind: u32,
    },
    /// A hardware fault hit the entry's core: an injected machine check
    /// (`name` "parity") or a scheduled RAS fault (`name` its kind, `arg`
    /// its argument). `name` and `arg` are not digested.
    Fault {
        kind: u32,
        name: &'static str,
        arg: u64,
    },
    /// `code` is not digested.
    ThreadExit {
        tid: u32,
        code: i32,
    },
    // ---- Not digested.
    /// The scheduler put `tid` on the entry's free core.
    SchedPick {
        tid: u32,
    },
    /// A timeslice preempted `tid`, saving its `remaining` cycles.
    Preempt {
        tid: u32,
        remaining: u64,
    },
    FutexWait {
        tid: u32,
        uaddr: u64,
    },
    FutexWake {
        uaddr: u64,
        woken: u64,
    },
    /// A DAC guard-page hit by `tid` at `vaddr`.
    GuardFault {
        tid: u32,
        vaddr: u64,
    },
    /// A storm of `hits` spurious DAC guard violations on the entry's
    /// core (an injected RAS fault; nobody is signaled).
    GuardStorm {
        hits: u64,
    },
    /// Demand paging served `faults` page faults for `tid`.
    PageFault {
        tid: u32,
        faults: u64,
    },
    /// Software TLB refills for `misses` misses of `tid`.
    TlbRefill {
        tid: u32,
        misses: u64,
    },
    /// A protection violation or unmapped access (`why`).
    Segv {
        tid: u32,
        vaddr: u64,
        why: &'static str,
    },
    /// A kernel daemon or noise source fired, costing `cost` cycles;
    /// `src` indexes the kernel's source table (its recovery-cost table
    /// for RAS recovery bursts).
    DaemonWake {
        name: &'static str,
        src: u64,
        cost: u64,
    },
    /// A function-ship request for syscall `name` left the compute node.
    FshipReq {
        id: u64,
        name: &'static str,
        bytes: u64,
    },
    /// A function-ship request was resent after a reply timeout.
    FshipRetry {
        id: u64,
        attempt: u64,
    },
    /// A function-ship reply arrived back, `latency` cycles after the
    /// request.
    FshipReply {
        id: u64,
        latency: u64,
    },
    /// A DCMF protocol phase; `peer` is a rank, or a rendezvous id on the
    /// node-level phases.
    MsgPhase {
        phase: &'static str,
        peer: u64,
        bytes: u64,
    },
    /// CNK reported a RAS event of its own: `code` names it (`io-eio`,
    /// `ion-drop-corrupt`, ...). Injected faults are `Fault` entries.
    Ras {
        code: &'static str,
        detail: u64,
    },
}

/// A rolling-digest event trace.
#[derive(Clone, Debug)]
pub struct Trace {
    digest: u64,
    keep_entries: bool,
    entries: Vec<TraceEntry>,
    /// One-entry memo for the op-name hash: `(ptr, len, fnv1a)` of the
    /// last `&'static str` hashed. The hot loop records the same op name
    /// millions of times; interned statics make the pointer a reliable
    /// cache key, and on a miss the hash is recomputed, so the digest is
    /// unchanged either way.
    name_memo: (usize, usize, u64),
}

impl Trace {
    pub fn new(keep_entries: bool) -> Trace {
        Trace {
            digest: 0xcbf2_9ce4_8422_2325,
            keep_entries,
            entries: Vec::new(),
            name_memo: (0, 0, 0),
        }
    }

    /// `fnv1a(name)` through the one-entry memo (same value, cheaper for
    /// the repeated-name hot path).
    fn name_hash(&mut self, name: &'static str) -> u64 {
        let key = (name.as_ptr() as usize, name.len());
        if (self.name_memo.0, self.name_memo.1) != key {
            self.name_memo = (key.0, key.1, crate::rng::fnv1a(name.as_bytes()));
        }
        self.name_memo.2
    }

    /// Fold `at` and then `vs` into the digest (FNV-1a over words).
    #[inline]
    fn mix(&mut self, at: Cycle, vs: &[u64]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut d = (self.digest ^ at).wrapping_mul(PRIME);
        for &v in vs {
            d = (d ^ v).wrapping_mul(PRIME);
        }
        self.digest = d;
    }

    /// Record an event at cycle `at` on `node` and global `core`
    /// ([`NO_CORE`] for none). A digested kind folds `at`, its kind
    /// number (1–10, in declaration order) and then, in order: `tid`,
    /// the op-name hash and `cost` (OpStart); `tid` (OpEnd, ThreadExit);
    /// `tid` and the name hash (SyscallEnter); `tid` and `ok`
    /// (SyscallExit); `node`, `dst`, `bytes` and `tag` (MsgSend); `node`,
    /// `bytes` and `tag` (MsgRecv); `node`, `tag` and `cycles` (Noise);
    /// `core` and `kind` (Ipi, Fault). The entry itself is kept only
    /// under `keep_entries`.
    #[inline]
    pub fn record(&mut self, at: Cycle, node: u32, core: u32, what: TraceEvent) {
        let (n, c) = (u64::from(node), u64::from(core));
        match what {
            TraceEvent::OpStart { tid, opname, cost } => {
                let h = self.name_hash(opname);
                self.mix(at, &[1, tid.into(), h, cost]);
            }
            TraceEvent::OpEnd { tid } => self.mix(at, &[2, tid.into()]),
            TraceEvent::SyscallEnter { tid, name } => {
                let h = self.name_hash(name);
                self.mix(at, &[3, tid.into(), h]);
            }
            TraceEvent::SyscallExit { tid, ok, .. } => self.mix(at, &[4, tid.into(), ok.into()]),
            TraceEvent::MsgSend { dst, bytes, tag } => {
                self.mix(at, &[5, n, dst.into(), bytes, tag]);
            }
            TraceEvent::MsgRecv { bytes, tag } => self.mix(at, &[6, n, bytes, tag]),
            TraceEvent::Noise { tag, cycles } => self.mix(at, &[7, n, tag, cycles]),
            TraceEvent::Ipi { kind } => self.mix(at, &[8, c, kind.into()]),
            TraceEvent::Fault { kind, .. } => self.mix(at, &[9, c, kind.into()]),
            TraceEvent::ThreadExit { tid, .. } => self.mix(at, &[10, tid.into()]),
            _ => {}
        }
        if self.keep_entries {
            self.entries.push(TraceEntry {
                at,
                node,
                core,
                what,
            });
        }
    }

    /// O(1) digest of every digested event recorded so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Recorded entries (empty unless constructed with `keep_entries`).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_streams_identical_digests() {
        let mut a = Trace::new(false);
        let mut b = Trace::new(false);
        for i in 0..100 {
            let tid = (i % 4) as u32;
            a.record(i, 0, tid, TraceEvent::OpEnd { tid });
            b.record(i, 0, tid, TraceEvent::OpEnd { tid });
        }
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn timing_difference_changes_digest() {
        let mut a = Trace::new(false);
        let mut b = Trace::new(false);
        a.record(10, 0, 0, TraceEvent::OpEnd { tid: 0 });
        b.record(11, 0, 0, TraceEvent::OpEnd { tid: 0 });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn payload_difference_changes_digest() {
        let send = |bytes| TraceEvent::MsgSend {
            dst: 1,
            bytes,
            tag: 7,
        };
        let mut a = Trace::new(false);
        let mut b = Trace::new(false);
        a.record(5, 0, NO_CORE, send(64));
        b.record(5, 0, NO_CORE, send(65));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn undigested_kinds_are_kept_but_fold_nothing() {
        let mut a = Trace::new(true);
        a.record(1, 0, 3, TraceEvent::SchedPick { tid: 9 });
        a.record(
            2,
            0,
            NO_CORE,
            TraceEvent::Ras {
                code: "io-retry",
                detail: 4,
            },
        );
        assert_eq!(a.entries().len(), 2);
        assert_eq!((a.entries()[0].node, a.entries()[0].core), (0, 3));
        assert_eq!(a.digest(), Trace::new(false).digest());
    }

    #[test]
    fn entries_kept_only_when_asked() {
        let noise = TraceEvent::Noise { tag: 9, cycles: 40 };
        let mut a = Trace::new(true);
        a.record(1, 0, 2, noise);
        assert_eq!(a.entries().len(), 1);
        let mut b = Trace::new(false);
        b.record(1, 0, 2, noise);
        assert!(b.entries().is_empty());
        // Digest identical either way.
        assert_eq!(a.digest(), b.digest());
    }
}
