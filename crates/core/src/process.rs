//! CNK process state.
//!
//! A process's per-thread tables (guards, DAC-slot counters, and the
//! shared [`PosixProc`] record of clear-tid registrations and signal
//! dispositions) hold a handful of entries at most, so they are short
//! lists scanned linearly; its core list and the main thread's guard
//! are inline. Launching a rank allocates only its DAC-slot list.

use bgsim::posix::PosixProc;
use sysabi::{CoreId, NodeId, ProcId, Rank, Tid};

use crate::mem::AddressSpace;

/// Guard-page bookkeeping for one thread (§IV.C).
#[derive(Clone, Copy, Debug)]
pub struct Guard {
    pub lo: u64,
    pub hi: u64,
    /// The DAC slot on the thread's core.
    pub slot: u32,
}

/// Most cores one process can hold: all four of a BG/P node (SMP mode).
const MAX_CORES: usize = 4;

/// The cores statically assigned to a process, held inline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoreList {
    ids: [CoreId; MAX_CORES],
    len: u8,
}

impl FromIterator<CoreId> for CoreList {
    /// Panics past [`MAX_CORES`] cores.
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> CoreList {
        let mut list = CoreList {
            ids: [CoreId(0); MAX_CORES],
            len: 0,
        };
        for c in iter {
            assert!(
                (list.len as usize) < MAX_CORES,
                "a process holds at most {MAX_CORES} cores"
            );
            list.ids[list.len as usize] = c;
            list.len += 1;
        }
        list
    }
}

impl std::ops::Deref for CoreList {
    type Target = [CoreId];

    fn deref(&self) -> &[CoreId] {
        &self.ids[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a CoreList {
    type Item = &'a CoreId;
    type IntoIter = std::slice::Iter<'a, CoreId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One CNK process (an MPI task).
#[derive(Debug)]
pub struct Process {
    pub proc: ProcId,
    pub node: NodeId,
    pub rank: Rank,
    /// Cores statically assigned to this process; the first is the main
    /// thread's.
    pub cores: CoreList,
    pub aspace: AddressSpace,
    pub uid: u32,
    pub gid: u32,
    /// Signal dispositions and clear-tid registrations.
    pub posix: PosixProc,
    /// §IV.C: "CNK remembers the last mprotect range and makes an
    /// assumption during the clone syscall that the last mprotect applies
    /// to the new thread" (its stack guard).
    pub last_mprotect: Option<(u64, u64)>,
    /// The main thread's guard at the heap boundary, repositioned on brk
    /// growth (§IV.C); `None` once the main thread has exited.
    pub heap_guard: Option<Guard>,
    /// Stack guards of spawned threads (the last-mprotect convention).
    pub stack_guards: Vec<(Tid, Guard)>,
    pub main_tid: Tid,
    /// Persistent-memory grant names from the job spec.
    pub persist_grants: Vec<String>,
    /// Live thread count (for exit_group bookkeeping).
    pub live_threads: u32,
    /// Next DAC slot to hand out per core (the heap guard takes the main
    /// core's first).
    next_dac_slot: Vec<(CoreId, u32)>,
}

impl Process {
    pub fn new(
        proc: ProcId,
        node: NodeId,
        rank: Rank,
        cores: CoreList,
        aspace: AddressSpace,
        uid: u32,
        gid: u32,
    ) -> Process {
        Process {
            proc,
            node,
            rank,
            cores,
            aspace,
            uid,
            gid,
            posix: PosixProc::default(),
            last_mprotect: None,
            heap_guard: None,
            stack_guards: Vec::new(),
            main_tid: Tid(u32::MAX),
            persist_grants: Vec::new(),
            live_threads: 0,
            next_dac_slot: Vec::new(),
        }
    }

    /// Forget `tid`'s guard, returning it for disarming.
    pub fn take_guard(&mut self, tid: Tid) -> Option<Guard> {
        if tid == self.main_tid {
            return self.heap_guard.take();
        }
        let i = self.stack_guards.iter().position(|(t, _)| *t == tid)?;
        Some(self.stack_guards.swap_remove(i).1)
    }

    /// Heap bytes this process holds: its per-thread lists and its share
    /// of the slot's static map.
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.posix.resident_bytes()
            + self.stack_guards.capacity() * size_of::<(Tid, Guard)>()
            + self.next_dac_slot.capacity() * size_of::<(CoreId, u32)>()
            + self.aspace.map_share_bytes()
    }

    /// Allocate a DAC slot on `core` for a new guard range.
    pub fn alloc_dac_slot(&mut self, core: CoreId, dac_pairs: u32) -> Option<u32> {
        let i = match self.next_dac_slot.iter().position(|(c, _)| *c == core) {
            Some(i) => i,
            None => {
                self.next_dac_slot.push((core, 0));
                self.next_dac_slot.len() - 1
            }
        };
        let next = &mut self.next_dac_slot[i].1;
        if *next >= dac_pairs {
            return None;
        }
        let s = *next;
        *next += 1;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{partition_node, ProcRequirements};

    fn proc() -> Process {
        let maps = partition_node(
            &ProcRequirements {
                text_bytes: 1 << 20,
                data_bytes: 1 << 20,
                heap_stack_bytes: 64 << 20,
                shared_bytes: 1 << 20,
                dynamic_bytes: 0,
            },
            1,
            2 << 30,
            16 << 20,
            0,
            64,
        )
        .unwrap();
        Process::new(
            ProcId(0),
            NodeId(0),
            Rank(0),
            (0..4).map(CoreId).collect(),
            AddressSpace::new(
                std::sync::Arc::new(maps.into_iter().next().unwrap()),
                8 << 20,
            ),
            1000,
            100,
        )
    }

    #[test]
    fn default_dispositions() {
        let p = proc();
        assert_eq!(
            p.posix.disposition(sysabi::Sig::Segv),
            sysabi::SigDisposition::Default
        );
    }

    #[test]
    fn dac_slots_bounded_per_core() {
        let mut p = proc();
        for i in 0..4 {
            assert_eq!(p.alloc_dac_slot(CoreId(0), 4), Some(i));
        }
        assert_eq!(p.alloc_dac_slot(CoreId(0), 4), None);
        // Other cores unaffected.
        assert_eq!(p.alloc_dac_slot(CoreId(1), 4), Some(0));
    }
}
