//! Event tracing and trace digests.
//!
//! The reproducibility experiments compare whole runs: two machines with
//! the same configuration and seed must produce identical event streams.
//! Comparing streams directly is O(run length) in memory, so the trace
//! also maintains a rolling FNV digest that tests can compare in O(1);
//! entries are kept only when asked for (small runs, exact replay).

use crate::cycles::Cycle;

/// One recorded trace entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEntry {
    pub at: Cycle,
    pub what: TraceEvent,
}

/// The observable simulator events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceEvent {
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
    SyscallExit {
        tid: u32,
        ok: bool,
    },
    MsgSend {
        src: u32,
        dst: u32,
        bytes: u64,
        tag: u64,
    },
    MsgRecv {
        dst: u32,
        bytes: u64,
        tag: u64,
    },
    Noise {
        node: u32,
        tag: u64,
        cycles: u64,
    },
    Ipi {
        core: u32,
        kind: u32,
    },
    Fault {
        core: u32,
        kind: u32,
    },
    ThreadExit {
        tid: u32,
    },
    Custom {
        tag: u64,
    },
}

/// A rolling-digest event trace.
#[derive(Clone, Debug)]
pub struct Trace {
    digest: u64,
    count: u64,
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
            count: 0,
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

    #[inline]
    fn mix(&mut self, v: u64) {
        self.digest ^= v;
        self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Record an event at cycle `at`.
    #[inline]
    pub fn record(&mut self, at: Cycle, what: TraceEvent) {
        self.count += 1;
        self.mix(at);
        // Fold the event discriminant and fields into the digest.
        match &what {
            TraceEvent::OpStart { tid, opname, cost } => {
                let h = self.name_hash(opname);
                self.mix(1);
                self.mix(*tid as u64);
                self.mix(h);
                self.mix(*cost);
            }
            TraceEvent::OpEnd { tid } => {
                self.mix(2);
                self.mix(*tid as u64);
            }
            TraceEvent::SyscallEnter { tid, name } => {
                let h = self.name_hash(name);
                self.mix(3);
                self.mix(*tid as u64);
                self.mix(h);
            }
            TraceEvent::SyscallExit { tid, ok } => {
                self.mix(4);
                self.mix(*tid as u64);
                self.mix(*ok as u64);
            }
            TraceEvent::MsgSend {
                src,
                dst,
                bytes,
                tag,
            } => {
                self.mix(5);
                self.mix(*src as u64);
                self.mix(*dst as u64);
                self.mix(*bytes);
                self.mix(*tag);
            }
            TraceEvent::MsgRecv { dst, bytes, tag } => {
                self.mix(6);
                self.mix(*dst as u64);
                self.mix(*bytes);
                self.mix(*tag);
            }
            TraceEvent::Noise { node, tag, cycles } => {
                self.mix(7);
                self.mix(*node as u64);
                self.mix(*tag);
                self.mix(*cycles);
            }
            TraceEvent::Ipi { core, kind } => {
                self.mix(8);
                self.mix(*core as u64);
                self.mix(*kind as u64);
            }
            TraceEvent::Fault { core, kind } => {
                self.mix(9);
                self.mix(*core as u64);
                self.mix(*kind as u64);
            }
            TraceEvent::ThreadExit { tid } => {
                self.mix(10);
                self.mix(*tid as u64);
            }
            TraceEvent::Custom { tag } => {
                self.mix(11);
                self.mix(*tag);
            }
        }
        if self.keep_entries {
            self.entries.push(TraceEntry { at, what });
        }
    }

    /// O(1) digest of everything recorded so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    pub fn count(&self) -> u64 {
        self.count
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
            a.record(
                i,
                TraceEvent::OpEnd {
                    tid: (i % 4) as u32,
                },
            );
            b.record(
                i,
                TraceEvent::OpEnd {
                    tid: (i % 4) as u32,
                },
            );
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.count(), 100);
    }

    #[test]
    fn timing_difference_changes_digest() {
        let mut a = Trace::new(false);
        let mut b = Trace::new(false);
        a.record(10, TraceEvent::OpEnd { tid: 0 });
        b.record(11, TraceEvent::OpEnd { tid: 0 });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn payload_difference_changes_digest() {
        let mut a = Trace::new(false);
        let mut b = Trace::new(false);
        a.record(
            5,
            TraceEvent::MsgSend {
                src: 0,
                dst: 1,
                bytes: 64,
                tag: 7,
            },
        );
        b.record(
            5,
            TraceEvent::MsgSend {
                src: 0,
                dst: 1,
                bytes: 65,
                tag: 7,
            },
        );
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn entries_kept_only_when_asked() {
        let mut a = Trace::new(true);
        a.record(1, TraceEvent::Custom { tag: 9 });
        assert_eq!(a.entries().len(), 1);
        let mut b = Trace::new(false);
        b.record(1, TraceEvent::Custom { tag: 9 });
        assert!(b.entries().is_empty());
        // Digest identical either way.
        assert_eq!(a.digest(), b.digest());
    }
}
