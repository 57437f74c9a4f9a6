//! CNK memory management: the static map plus the mmap/brk bookkeeping.

pub mod partition;
pub mod tracker;

use std::sync::Arc;

use sysabi::Errno;

pub use partition::{
    partition_node, PartitionError, ProcRequirements, Region, RegionKind, StaticMap,
    VA_DYNAMIC_BASE, VA_PERSIST_BASE, VA_TEXT_BASE,
};
pub use tracker::{ArenaTracker, TrackerError, GRAIN};

/// A process address space: the immutable static map plus the
/// heap/stack arena bookkeeping and any attached persistent regions.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    /// Shared by every process in the same slot of every node: the
    /// partitioner lays out each slot once, and nothing mutates a map
    /// after `partition_node`.
    pub map: Arc<StaticMap>,
    pub heap: ArenaTracker,
    /// Main-thread stack: the top `main_stack` bytes of the heap region.
    pub main_stack_lo: u64,
    pub main_stack_hi: u64,
    /// Attached persistent regions (§IV.D), translated like map regions.
    pub persist: Vec<Region>,
    /// Cursor for loading dynamic objects into the Dynamic window.
    pub dyn_cursor: u64,
}

impl AddressSpace {
    pub fn new(map: Arc<StaticMap>, main_stack: u64) -> AddressSpace {
        let hs = map
            .region(RegionKind::HeapStack)
            .expect("map lacks heap/stack region");
        let main_stack = main_stack.max(GRAIN) & !(GRAIN - 1);
        let arena_hi = (hs.vend() - main_stack) & !(GRAIN - 1);
        let arena_lo = (hs.vaddr + GRAIN - 1) & !(GRAIN - 1);
        let dyn_cursor = map.region(RegionKind::Dynamic).map_or(0, |d| d.vaddr);
        AddressSpace {
            heap: ArenaTracker::new(arena_lo, arena_hi),
            main_stack_lo: arena_hi,
            main_stack_hi: hs.vend(),
            persist: Vec::new(),
            dyn_cursor,
            map,
        }
    }

    /// Static translation: the process "can query the static map during
    /// initialization and reference it during runtime without having to
    /// coordinate with CNK" (§IV.C).
    pub fn translate(&self, va: u64) -> Option<u64> {
        self.map
            .translate(va)
            .or_else(|| self.persist.iter().find_map(|r| r.translate(va)))
    }

    /// Is `va` inside the mapped address space at all? (No demand paging:
    /// outside means SIGSEGV immediately.)
    pub fn mapped(&self, va: u64) -> bool {
        self.translate(va).is_some()
    }

    /// This address space's share of its static map's heap bytes: the
    /// map split over the processes holding it, as `Tlb::resident_bytes`
    /// splits a pinned image, so summing over a slot's ranks counts the
    /// map once.
    pub(crate) fn map_share_bytes(&self) -> usize {
        (std::mem::size_of::<StaticMap>() + self.map.resident_bytes())
            .div_ceil(Arc::strong_count(&self.map))
    }

    /// Attach a persistent region (already translated by the registry).
    pub fn attach_persist(&mut self, r: Region) {
        debug_assert_eq!(r.kind, RegionKind::Persist);
        self.persist.push(r);
    }

    /// Carve space in the Dynamic window for a library of `bytes`.
    /// Returns the load vaddr (fixed, grows monotonically — full-library
    /// load at dlopen time, §IV.B.2).
    pub fn alloc_dynamic(&mut self, bytes: u64) -> Result<u64, Errno> {
        let d = self.map.region(RegionKind::Dynamic).ok_or(Errno::ENOMEM)?;
        let at = self.dyn_cursor;
        let end = at
            .checked_add((bytes + GRAIN - 1) & !(GRAIN - 1))
            .ok_or(Errno::ENOMEM)?;
        if end > d.vend() {
            return Err(Errno::ENOMEM);
        }
        self.dyn_cursor = end;
        Ok(at)
    }
}

/// Map a tracker error onto the Linux errno the syscall would return.
pub fn tracker_errno(e: TrackerError) -> Errno {
    match e {
        TrackerError::NoSpace => Errno::ENOMEM,
        TrackerError::NotAllocated => Errno::EINVAL,
        TrackerError::BrkCollision => Errno::ENOMEM,
        TrackerError::ZeroLength => Errno::EINVAL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aspace() -> AddressSpace {
        let maps = partition_node(
            &ProcRequirements {
                text_bytes: 2 << 20,
                data_bytes: 1 << 20,
                heap_stack_bytes: 256 << 20,
                shared_bytes: 8 << 20,
                dynamic_bytes: 64 << 20,
            },
            1,
            2 << 30,
            16 << 20,
            0,
            64,
        )
        .unwrap();
        AddressSpace::new(Arc::new(maps.into_iter().next().unwrap()), 8 << 20)
    }

    #[test]
    fn stack_is_carved_from_heap_top() {
        let a = aspace();
        let hs = a.map.region(RegionKind::HeapStack).unwrap();
        assert_eq!(a.main_stack_hi, hs.vend());
        assert!(a.main_stack_hi - a.main_stack_lo >= (8 << 20) as u64);
        let (lo, hi) = a.heap.bounds();
        assert!(lo >= hs.vaddr && hi <= a.main_stack_lo);
    }

    #[test]
    fn translate_covers_stack_and_text() {
        let a = aspace();
        assert!(a.mapped(a.main_stack_hi - 8));
        let t = a.map.region(RegionKind::Text).unwrap();
        assert!(a.mapped(t.vaddr));
        assert!(!a.mapped(0)); // null guard page unmapped
    }

    #[test]
    fn dynamic_allocation_is_monotonic_and_bounded() {
        let mut a = aspace();
        let x = a.alloc_dynamic(6 << 20).unwrap();
        let y = a.alloc_dynamic(6 << 20).unwrap();
        assert_eq!(x, VA_DYNAMIC_BASE);
        assert!(y > x);
        // Exhaust the window.
        assert_eq!(a.alloc_dynamic(1 << 30), Err(Errno::ENOMEM));
    }

    #[test]
    fn persist_regions_translate() {
        let mut a = aspace();
        a.attach_persist(Region {
            kind: RegionKind::Persist,
            vaddr: VA_PERSIST_BASE,
            paddr: (2 << 30) - (16 << 20),
            bytes: 1 << 20,
            pages: vec![(1 << 20, VA_PERSIST_BASE)],
        });
        assert_eq!(
            a.translate(VA_PERSIST_BASE + 5),
            Some((2 << 30) - (16 << 20) + 5)
        );
    }
}
