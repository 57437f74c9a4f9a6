//! CNK process state.

use std::collections::HashMap;

use sysabi::{CoreId, NodeId, ProcId, Rank, Sig, SigDisposition, Tid};

use crate::mem::AddressSpace;

/// Guard-page bookkeeping for one thread (§IV.C).
#[derive(Clone, Copy, Debug)]
pub struct Guard {
    pub lo: u64,
    pub hi: u64,
    /// The DAC slot on the thread's core.
    pub slot: u32,
    /// The main-thread guard tracks the heap boundary and is repositioned
    /// on brk growth.
    pub tracks_heap: bool,
}

/// One CNK process (an MPI task).
#[derive(Debug)]
pub struct Process {
    pub proc: ProcId,
    pub node: NodeId,
    pub rank: Rank,
    /// Cores statically assigned to this process.
    pub cores: Vec<CoreId>,
    pub aspace: AddressSpace,
    pub uid: u32,
    pub gid: u32,
    /// Signal dispositions.
    pub sig: HashMap<Sig, SigDisposition>,
    /// §IV.C: "CNK remembers the last mprotect range and makes an
    /// assumption during the clone syscall that the last mprotect applies
    /// to the new thread" (its stack guard).
    pub last_mprotect: Option<(u64, u64)>,
    /// set_tid_address / CLONE_CHILD_CLEARTID registrations.
    pub clear_tid_addr: HashMap<Tid, u64>,
    /// Armed guard ranges per thread.
    pub guards: HashMap<Tid, Guard>,
    pub main_tid: Tid,
    /// Persistent-memory grant names from the job spec.
    pub persist_grants: Vec<String>,
    /// Live thread count (for exit_group bookkeeping).
    pub live_threads: u32,
    /// Next DAC slot to hand out per core (slot 0 is the main guard).
    next_dac_slot: HashMap<CoreId, u32>,
}

impl Process {
    pub fn new(
        proc: ProcId,
        node: NodeId,
        rank: Rank,
        cores: Vec<CoreId>,
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
            sig: HashMap::new(),
            last_mprotect: None,
            clear_tid_addr: HashMap::new(),
            guards: HashMap::new(),
            main_tid: Tid(u32::MAX),
            persist_grants: Vec::new(),
            live_threads: 0,
            next_dac_slot: HashMap::new(),
        }
    }

    /// Effective disposition of a signal.
    pub fn disposition(&self, sig: Sig) -> SigDisposition {
        self.sig.get(&sig).copied().unwrap_or_default()
    }

    /// Heap bytes this process holds: its core list, guard and DAC-slot
    /// tables, and its share of the slot's static map.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.cores.capacity() * std::mem::size_of::<CoreId>()
            + hash_bytes(&self.guards)
            + hash_bytes(&self.next_dac_slot)
            + self.aspace.map_share_bytes()
    }

    /// Allocate a DAC slot on `core` for a new guard range.
    pub fn alloc_dac_slot(&mut self, core: CoreId, dac_pairs: u32) -> Option<u32> {
        let next = self.next_dac_slot.entry(core).or_insert(0);
        if *next >= dac_pairs {
            return None;
        }
        let s = *next;
        *next += 1;
        Some(s)
    }
}

/// Estimated table bytes of a hash map: one `(K, V)` slot plus a
/// control byte per unit of capacity.
fn hash_bytes<K, V>(m: &HashMap<K, V>) -> usize {
    m.capacity() * (std::mem::size_of::<(K, V)>() + 1)
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
            vec![CoreId(0), CoreId(1), CoreId(2), CoreId(3)],
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
        assert_eq!(p.disposition(Sig::Segv), SigDisposition::Default);
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
