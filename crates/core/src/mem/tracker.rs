//! The mmap range tracker (§IV.C).
//!
//! "The mmap system call tracks which memory ranges have been allocated.
//! It also coalesces memory when buffers are freed, or permissions on
//! those buffers change. However, since CNK statically maps memory, the
//! mmap system call does not need to perform any adjustments, or handle
//! page faults. It merely provides free addresses to the application."
//!
//! The tracker manages the heap+stack arena: `brk` grows from the bottom,
//! `mmap` allocates from the top, and freed ranges coalesce with their
//! neighbors. Each allocated range carries protection bits purely as
//! bookkeeping (CNK does not enforce them — §IV.B.2's conscious
//! lightweight decision — but `mprotect` records them because NPTL's
//! guard-page convention depends on the *last* mprotect call).

use std::collections::BTreeMap;

use sysabi::Prot;

/// An allocated range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Alloc {
    pub addr: u64,
    pub len: u64,
    pub prot: Prot,
}

/// Allocation errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrackerError {
    /// No free range large enough.
    NoSpace,
    /// The given range is not entirely allocated.
    NotAllocated,
    /// brk would collide with an mmap allocation.
    BrkCollision,
    /// Zero-length request.
    ZeroLength,
}

/// Allocation granularity: CNK hands out 64 KiB-aligned chunks (no page
/// faults means granularity is bookkeeping-only; 64 KiB keeps the map
/// small).
pub const GRAIN: u64 = 64 << 10;

fn grain_up(v: u64) -> u64 {
    (v + GRAIN - 1) & !(GRAIN - 1)
}

/// The heap+stack arena tracker.
#[derive(Clone, Debug)]
pub struct ArenaTracker {
    lo: u64,
    hi: u64,
    /// Current program break (brk arena occupies [lo, brk)).
    brk: u64,
    /// mmap allocations, keyed by address.
    allocs: BTreeMap<u64, Alloc>,
}

impl ArenaTracker {
    pub fn new(lo: u64, hi: u64) -> ArenaTracker {
        assert!(lo < hi && lo.is_multiple_of(GRAIN) && hi.is_multiple_of(GRAIN));
        ArenaTracker {
            lo,
            hi,
            brk: lo,
            allocs: BTreeMap::new(),
        }
    }

    pub fn brk_addr(&self) -> u64 {
        self.brk
    }

    pub fn bounds(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// Lowest address of any mmap allocation (the "mmap floor" brk must
    /// not cross).
    fn mmap_floor(&self) -> u64 {
        self.allocs.keys().next().copied().unwrap_or(self.hi)
    }

    /// Set the program break. `addr == 0` queries. Returns the new break.
    pub fn brk(&mut self, addr: u64) -> Result<u64, TrackerError> {
        if addr == 0 {
            return Ok(self.brk);
        }
        if addr < self.lo {
            return Err(TrackerError::NotAllocated);
        }
        let target = grain_up(addr);
        if target > self.mmap_floor() {
            return Err(TrackerError::BrkCollision);
        }
        self.brk = target;
        Ok(self.brk)
    }

    /// Allocate `len` bytes from the top of the arena ("merely provides
    /// free addresses"). Returns the address.
    pub fn mmap(&mut self, len: u64, prot: Prot) -> Result<u64, TrackerError> {
        if len == 0 {
            return Err(TrackerError::ZeroLength);
        }
        let len = grain_up(len);
        // Scan free gaps from the top: between hi and the last alloc,
        // then between allocs, down to brk.
        let mut gap_hi = self.hi;
        for (&addr, a) in self.allocs.iter().rev() {
            let a_end = addr + a.len;
            if gap_hi - a_end >= len {
                let at = gap_hi - len;
                self.allocs.insert(
                    at,
                    Alloc {
                        addr: at,
                        len,
                        prot,
                    },
                );
                return Ok(at);
            }
            gap_hi = addr;
        }
        if gap_hi >= self.brk && gap_hi - self.brk >= len {
            let at = gap_hi - len;
            self.allocs.insert(
                at,
                Alloc {
                    addr: at,
                    len,
                    prot,
                },
            );
            return Ok(at);
        }
        Err(TrackerError::NoSpace)
    }

    /// Free `[addr, addr+len)`. Partial frees split ranges; freeing
    /// adjacent ranges coalesces the free space implicitly (free space is
    /// the complement of the alloc map, so coalescing == removal).
    pub fn munmap(&mut self, addr: u64, len: u64) -> Result<(), TrackerError> {
        if len == 0 {
            return Err(TrackerError::ZeroLength);
        }
        let end = addr + grain_up(len);
        // Collect overlapping allocations; the whole range must be
        // covered by them.
        let overlapping: Vec<Alloc> = self
            .allocs
            .range(..end)
            .rev()
            .take_while(|(_, a)| a.addr + a.len > addr)
            .map(|(_, a)| *a)
            .collect();
        let covered: u64 = overlapping
            .iter()
            .map(|a| (a.addr + a.len).min(end).saturating_sub(a.addr.max(addr)))
            .sum();
        if covered < end - addr {
            return Err(TrackerError::NotAllocated);
        }
        for a in overlapping {
            self.allocs.remove(&a.addr);
            // Left fragment survives.
            if a.addr < addr {
                self.allocs.insert(
                    a.addr,
                    Alloc {
                        addr: a.addr,
                        len: addr - a.addr,
                        prot: a.prot,
                    },
                );
            }
            // Right fragment survives.
            if a.addr + a.len > end {
                self.allocs.insert(
                    end,
                    Alloc {
                        addr: end,
                        len: a.addr + a.len - end,
                        prot: a.prot,
                    },
                );
            }
        }
        Ok(())
    }

    /// Record protection bits on a range (bookkeeping only). The range
    /// must be allocated. Adjacent same-prot ranges coalesce.
    pub fn mprotect(&mut self, addr: u64, len: u64, prot: Prot) -> Result<(), TrackerError> {
        if len == 0 {
            return Err(TrackerError::ZeroLength);
        }
        let end = addr + grain_up(len);
        // brk space is implicitly allocated.
        if addr >= self.lo && end <= self.brk {
            return Ok(());
        }
        let a = self
            .allocs
            .range(..=addr)
            .next_back()
            .map(|(_, a)| *a)
            .filter(|a| a.addr + a.len >= end)
            .ok_or(TrackerError::NotAllocated)?;
        // Split/update.
        self.allocs.remove(&a.addr);
        if a.addr < addr {
            self.allocs.insert(
                a.addr,
                Alloc {
                    addr: a.addr,
                    len: addr - a.addr,
                    prot: a.prot,
                },
            );
        }
        self.allocs.insert(
            addr,
            Alloc {
                addr,
                len: end - addr,
                prot,
            },
        );
        if a.addr + a.len > end {
            self.allocs.insert(
                end,
                Alloc {
                    addr: end,
                    len: a.addr + a.len - end,
                    prot: a.prot,
                },
            );
        }
        self.coalesce();
        Ok(())
    }

    fn coalesce(&mut self) {
        let addrs: Vec<u64> = self.allocs.keys().copied().collect();
        for w in addrs.windows(2) {
            let (a_addr, b_addr) = (w[0], w[1]);
            let (Some(a), Some(b)) = (
                self.allocs.get(&a_addr).copied(),
                self.allocs.get(&b_addr).copied(),
            ) else {
                continue;
            };
            if a.addr + a.len == b.addr && a.prot == b.prot {
                self.allocs.remove(&b.addr);
                self.allocs.insert(
                    a.addr,
                    Alloc {
                        addr: a.addr,
                        len: a.len + b.len,
                        prot: a.prot,
                    },
                );
            }
        }
    }

    /// Total allocated mmap bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocs.values().map(|a| a.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Views of the allocation map that only these tests read.
    impl ArenaTracker {
        /// Is `[addr, addr+len)` fully allocated (brk space counts)?
        fn is_allocated(&self, addr: u64, len: u64) -> bool {
            if len == 0 {
                return true;
            }
            let end = addr + len;
            if addr >= self.lo && end <= self.brk {
                return true;
            }
            let mut pos = addr;
            while pos < end {
                match self
                    .allocs
                    .range(..=pos)
                    .next_back()
                    .map(|(_, a)| *a)
                    .filter(|a| a.addr + a.len > pos)
                {
                    Some(a) => pos = a.addr + a.len,
                    None => return false,
                }
            }
            true
        }

        /// The recorded allocation containing `addr`.
        fn alloc_at(&self, addr: u64) -> Option<Alloc> {
            self.allocs
                .range(..=addr)
                .next_back()
                .map(|(_, a)| *a)
                .filter(|a| a.addr + a.len > addr)
        }

        /// Count of distinct allocated ranges (tests coalescing).
        fn range_count(&self) -> usize {
            self.allocs.len()
        }
    }

    const LO: u64 = 0x1000_0000;
    const HI: u64 = 0x2000_0000;

    fn t() -> ArenaTracker {
        ArenaTracker::new(LO, HI)
    }

    #[test]
    fn brk_query_and_set() {
        let mut a = t();
        assert_eq!(a.brk(0).unwrap(), LO);
        let nb = a.brk(LO + 1000).unwrap();
        assert_eq!(nb, LO + GRAIN); // rounded to grain
        assert_eq!(a.brk(0).unwrap(), nb);
    }

    #[test]
    fn mmap_allocates_from_top() {
        let mut a = t();
        let x = a.mmap(1 << 20, Prot::READ | Prot::WRITE).unwrap();
        assert_eq!(x + (1 << 20), HI);
        let y = a.mmap(1 << 20, Prot::READ | Prot::WRITE).unwrap();
        assert_eq!(y + (1 << 20), x);
    }

    #[test]
    fn brk_mmap_collision() {
        let mut a = t();
        // Allocate nearly everything with mmap...
        a.mmap(HI - LO - GRAIN, Prot::READ).unwrap();
        // ...then brk cannot cross into it.
        assert_eq!(a.brk(LO + 2 * GRAIN), Err(TrackerError::BrkCollision));
        assert!(a.brk(LO + GRAIN).is_ok());
    }

    #[test]
    fn free_reusable_and_coalesced() {
        let mut a = t();
        let x = a.mmap(4 * GRAIN, Prot::READ).unwrap();
        let y = a.mmap(4 * GRAIN, Prot::READ).unwrap();
        let z = a.mmap(4 * GRAIN, Prot::READ).unwrap();
        assert_eq!(a.range_count(), 3);
        // Free the middle, then the bottom: free space coalesces so a
        // large allocation fits again.
        a.munmap(y, 4 * GRAIN).unwrap();
        a.munmap(z, 4 * GRAIN).unwrap();
        let big = a.mmap(8 * GRAIN, Prot::READ).unwrap();
        assert_eq!(big + 8 * GRAIN, x);
    }

    #[test]
    fn partial_free_splits() {
        let mut a = t();
        let x = a.mmap(4 * GRAIN, Prot::READ).unwrap();
        a.munmap(x + GRAIN, GRAIN).unwrap();
        assert!(a.is_allocated(x, GRAIN));
        assert!(!a.is_allocated(x + GRAIN, GRAIN));
        assert!(a.is_allocated(x + 2 * GRAIN, 2 * GRAIN));
        assert_eq!(a.range_count(), 2);
    }

    #[test]
    fn double_free_rejected() {
        let mut a = t();
        let x = a.mmap(GRAIN, Prot::READ).unwrap();
        a.munmap(x, GRAIN).unwrap();
        assert_eq!(a.munmap(x, GRAIN), Err(TrackerError::NotAllocated));
    }

    #[test]
    fn free_spanning_two_allocs() {
        let mut a = t();
        let x = a.mmap(2 * GRAIN, Prot::READ).unwrap();
        let y = a.mmap(2 * GRAIN, Prot::READ).unwrap();
        assert_eq!(y + 2 * GRAIN, x);
        // One munmap over both.
        a.munmap(y, 4 * GRAIN).unwrap();
        assert_eq!(a.allocated_bytes(), 0);
    }

    #[test]
    fn mprotect_records_and_coalesces() {
        let mut a = t();
        let x = a.mmap(4 * GRAIN, Prot::READ | Prot::WRITE).unwrap();
        a.mprotect(x, GRAIN, Prot::NONE).unwrap();
        assert_eq!(a.alloc_at(x).unwrap().prot, Prot::NONE);
        assert_eq!(
            a.alloc_at(x + GRAIN).unwrap().prot,
            Prot::READ | Prot::WRITE
        );
        // Restoring the prot coalesces back to one range.
        a.mprotect(x, GRAIN, Prot::READ | Prot::WRITE).unwrap();
        assert_eq!(a.range_count(), 1);
    }

    #[test]
    fn mprotect_on_brk_space_ok() {
        let mut a = t();
        a.brk(LO + 10 * GRAIN).unwrap();
        assert!(a.mprotect(LO + GRAIN, GRAIN, Prot::NONE).is_ok());
    }

    #[test]
    fn mprotect_unallocated_rejected() {
        let mut a = t();
        assert_eq!(
            a.mprotect(LO + GRAIN, GRAIN, Prot::NONE),
            Err(TrackerError::NotAllocated)
        );
    }

    #[test]
    fn exhaustion() {
        let mut a = ArenaTracker::new(LO, LO + 4 * GRAIN);
        a.mmap(3 * GRAIN, Prot::READ).unwrap();
        assert_eq!(a.mmap(2 * GRAIN, Prot::READ), Err(TrackerError::NoSpace));
        assert!(a.mmap(GRAIN, Prot::READ).is_ok());
    }

    #[test]
    fn zero_len_rejected() {
        let mut a = t();
        assert_eq!(a.mmap(0, Prot::READ), Err(TrackerError::ZeroLength));
        assert_eq!(a.munmap(LO, 0), Err(TrackerError::ZeroLength));
    }
}
