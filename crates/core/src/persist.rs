//! Persistent memory across job boundaries (§IV.D).
//!
//! "On BG/P, we developed a feature that allows an application to tag
//! memory as persistent. When the next job is started, memory tagged as
//! persistent is preserved, assuming the correct privileges. The
//! application specifies the persistent memory by name, in a manner
//! similar to the standard shm_open()/mmap() methods. One important
//! feature ... is that the virtual addresses used by the first
//! application are preserved during the run of the second application.
//! Thus, the persistent memory region can contain linked-list-style
//! pointer structures."

use std::collections::HashMap;

use sysabi::Errno;

use crate::mem::partition::{align_up, Region, RegionKind, VA_PERSIST_BASE};

/// One named persistent region.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PersistRegion {
    pub name: String,
    pub vaddr: u64,
    pub paddr: u64,
    pub bytes: u64,
    /// Owner uid; re-attachment requires matching credentials ("assuming
    /// the correct privileges").
    pub owner_uid: u32,
}

/// Per-node registry of persistent regions. Lives in the kernel object,
/// outside any job, so it survives job teardown (and, because the backing
/// DRAM is preserved across a reproducible reset, chip resets too).
#[derive(Clone, Debug)]
pub struct PersistRegistry {
    regions: HashMap<String, PersistRegion>,
    /// End of the physical arena at the top of node DRAM.
    arena_hi: u64,
    /// Next physical allocation cursor (starts at the arena's base).
    next_paddr: u64,
    /// Next virtual address in the fixed persistent window.
    next_vaddr: u64,
}

/// Allocation granularity (1 MB pages: persistent regions are mapped
/// with large pages like everything else).
const PGRAIN: u64 = 1 << 20;

impl PersistRegistry {
    pub fn new(arena_lo: u64, arena_hi: u64) -> PersistRegistry {
        let lo = align_up(arena_lo, PGRAIN);
        PersistRegistry {
            regions: HashMap::new(),
            arena_hi,
            next_paddr: lo,
            next_vaddr: VA_PERSIST_BASE,
        }
    }

    /// Open (or create) a named region. Existing regions keep their
    /// virtual and physical placement — the pointer-preservation
    /// guarantee. A length larger than the existing region is an error.
    pub fn open(
        &mut self,
        name: &str,
        len: u64,
        uid: u32,
        granted: bool,
    ) -> Result<PersistRegion, Errno> {
        if let Some(r) = self.regions.get(name) {
            if !granted || r.owner_uid != uid {
                return Err(Errno::EACCES);
            }
            if len > r.bytes {
                return Err(Errno::EINVAL);
            }
            return Ok(r.clone());
        }
        if !granted {
            return Err(Errno::EACCES);
        }
        if len == 0 {
            return Err(Errno::EINVAL);
        }
        let bytes = align_up(len, PGRAIN);
        if self.next_paddr + bytes > self.arena_hi {
            return Err(Errno::ENOMEM);
        }
        let r = PersistRegion {
            name: name.to_string(),
            vaddr: self.next_vaddr,
            paddr: self.next_paddr,
            bytes,
            owner_uid: uid,
        };
        self.next_paddr += bytes;
        self.next_vaddr += bytes;
        self.regions.insert(name.to_string(), r.clone());
        Ok(r)
    }

    /// Drop a named region (freeing is append-only in this simple
    /// allocator: the space is not reused, matching CNK's static style).
    pub fn remove(&mut self, name: &str, uid: u32) -> Result<(), Errno> {
        match self.regions.get(name) {
            Some(r) if r.owner_uid == uid => {
                self.regions.remove(name);
                Ok(())
            }
            Some(_) => Err(Errno::EACCES),
            None => Err(Errno::ENOENT),
        }
    }

    pub fn get(&self, name: &str) -> Option<&PersistRegion> {
        self.regions.get(name)
    }

    pub fn count(&self) -> usize {
        self.regions.len()
    }

    /// As a mappable region for `AddressSpace::attach_persist`.
    pub fn as_region(r: &PersistRegion) -> Region {
        let mut pages = Vec::new();
        let mut off = 0;
        while off < r.bytes {
            pages.push((PGRAIN, r.vaddr + off));
            off += PGRAIN;
        }
        Region {
            kind: RegionKind::Persist,
            vaddr: r.vaddr,
            paddr: r.paddr,
            bytes: r.bytes,
            pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LO: u64 = (2 << 30) - (64 << 20);
    const HI: u64 = 2 << 30;

    #[test]
    fn create_and_reattach_preserves_addresses() {
        let mut reg = PersistRegistry::new(LO, HI);
        let a = reg.open("table", 3 << 20, 1000, true).unwrap();
        // "Next job": same name must give identical placement.
        let b = reg.open("table", 3 << 20, 1000, true).unwrap();
        assert_eq!(a.vaddr, b.vaddr);
        assert_eq!(a.paddr, b.paddr);
        assert_eq!(a.vaddr, VA_PERSIST_BASE);
    }

    #[test]
    fn reattach_with_smaller_len_ok_larger_fails() {
        let mut reg = PersistRegistry::new(LO, HI);
        reg.open("t", 2 << 20, 0, true).unwrap();
        assert!(reg.open("t", 1 << 20, 0, true).is_ok());
        assert_eq!(reg.open("t", 16 << 20, 0, true), Err(Errno::EINVAL));
    }

    #[test]
    fn privileges_enforced() {
        let mut reg = PersistRegistry::new(LO, HI);
        reg.open("secret", 1 << 20, 1000, true).unwrap();
        // Different uid cannot attach.
        assert_eq!(reg.open("secret", 1 << 20, 2000, true), Err(Errno::EACCES));
        // No grant, no attach.
        assert_eq!(reg.open("secret", 1 << 20, 1000, false), Err(Errno::EACCES));
        assert_eq!(reg.open("new", 1 << 20, 1000, false), Err(Errno::EACCES));
    }

    #[test]
    fn distinct_names_distinct_ranges() {
        let mut reg = PersistRegistry::new(LO, HI);
        let a = reg.open("a", 1 << 20, 0, true).unwrap();
        let b = reg.open("b", 1 << 20, 0, true).unwrap();
        assert!(a.paddr + a.bytes <= b.paddr || b.paddr + b.bytes <= a.paddr);
        assert_ne!(a.vaddr, b.vaddr);
    }

    #[test]
    fn arena_exhaustion() {
        let mut reg = PersistRegistry::new(LO, LO + (2 << 20));
        reg.open("a", 1 << 20, 0, true).unwrap();
        reg.open("b", 1 << 20, 0, true).unwrap();
        assert_eq!(reg.open("c", 1 << 20, 0, true), Err(Errno::ENOMEM));
    }

    #[test]
    fn remove_requires_owner() {
        let mut reg = PersistRegistry::new(LO, HI);
        reg.open("x", 1 << 20, 7, true).unwrap();
        assert_eq!(reg.remove("x", 8), Err(Errno::EACCES));
        assert!(reg.remove("x", 7).is_ok());
        assert_eq!(reg.remove("x", 7), Err(Errno::ENOENT));
    }

    #[test]
    fn region_conversion_tiles_pages() {
        let mut reg = PersistRegistry::new(LO, HI);
        let r = reg.open("t", 3 << 20, 0, true).unwrap();
        let region = PersistRegistry::as_region(&r);
        assert_eq!(region.pages.len(), 3);
        assert_eq!(region.translate(r.vaddr + 100), Some(r.paddr + 100));
    }
}
