//! Demand-paged virtual memory — the general mechanism CNK leaves out.
//!
//! §IV.C/§VI.B contrast: "Most operating systems maintain logical page
//! tables and allow for translation misses to fill in the hardware page
//! tables as necessary. This general solution allows for page faults, a
//! fine granularity of permission control, and sharing of data. There
//! are, however, costs ... a performance penalty associated with the
//! translation miss. Further, translation misses do not necessarily occur
//! at the same time on all nodes, and become another contributor of OS
//! noise."
//!
//! This module provides exactly that: 4 KiB pages allocated on first
//! touch, per-page protection enforced, software TLB refill costs, and
//! the classic 3 GB user-space limit (§VII.A).

use std::collections::HashMap;

use sysabi::Prot;

/// 4 KiB pages.
pub const PAGE: u64 = 4 << 10;

/// The 32-bit Linux user-space limit (§VII.A: "Linux typically limits a
/// task to 3GB of the address space").
pub const USER_LIMIT: u64 = 3 << 30;

/// Cycles for a minor page fault (allocate + map + return).
pub const FAULT_COST: u64 = 2_800;

/// A page-table entry.
#[derive(Clone, Copy, Debug)]
pub struct Pte {
    pub frame: u64,
    pub prot: Prot,
}

/// What a touch of a virtual range produced.
#[derive(Clone, Copy, Default, Debug)]
pub struct TouchOutcome {
    /// Pages newly allocated (minor faults).
    pub faults: u32,
    /// Protection violation (SIGSEGV).
    pub violation: bool,
    /// Access to an unmapped, un-reserved address.
    pub unmapped: bool,
}

/// A virtual memory area (mmap/brk reservation).
#[derive(Clone, Copy, Debug)]
struct Vma {
    start: u64,
    end: u64,
    prot: Prot,
}

/// One process's address space under the FWK.
#[derive(Clone, Debug, Default)]
pub struct FwkAddressSpace {
    ptes: HashMap<u64, Pte>,
    vmas: Vec<Vma>,
    brk_start: u64,
    brk: u64,
    mmap_top: u64,
}

impl FwkAddressSpace {
    pub fn new() -> FwkAddressSpace {
        let mut a = FwkAddressSpace::default();
        // Classic layout: brk arena low, mmap growing down from 3 GB.
        a.brk_start = 0x1000_0000;
        a.brk = a.brk_start;
        a.mmap_top = USER_LIMIT;
        // Text/data "image": implicitly reserved RW below brk_start.
        a.vmas.push(Vma {
            start: 0x0040_0000,
            end: 0x1000_0000,
            prot: Prot::READ | Prot::WRITE,
        });
        a
    }

    pub fn brk_addr(&self) -> u64 {
        self.brk
    }

    /// Set the program break.
    pub fn brk(&mut self, addr: u64) -> u64 {
        if addr == 0 {
            return self.brk;
        }
        let target = (addr + PAGE - 1) & !(PAGE - 1);
        if target >= self.brk_start && target < self.lowest_vma_above_brk() {
            self.brk = target;
        }
        self.brk
    }

    fn lowest_vma_above_brk(&self) -> u64 {
        self.vmas
            .iter()
            .filter(|v| v.start >= self.brk_start)
            .map(|v| v.start)
            .min()
            .unwrap_or(self.mmap_top)
    }

    /// Reserve an mmap area (no physical allocation — demand paging).
    /// Fails (None) past the 3 GB limit.
    pub fn mmap(&mut self, len: u64, prot: Prot) -> Option<u64> {
        let len = (len.max(1) + PAGE - 1) & !(PAGE - 1);
        let start = self.mmap_top.checked_sub(len)?;
        if start < self.brk {
            return None;
        }
        self.mmap_top = start;
        self.vmas.push(Vma {
            start,
            end: start + len,
            prot,
        });
        Some(start)
    }

    /// Unmap a range: drop VMAs and PTEs in it.
    pub fn munmap(&mut self, addr: u64, len: u64) {
        let end = addr + len;
        self.vmas.retain(|v| v.end <= addr || v.start >= end);
        self.ptes.retain(|&vp, _| {
            let a = vp * PAGE;
            a + PAGE <= addr || a >= end
        });
    }

    /// Change protection on a range (full protection support — Table II:
    /// "Full memory protection — Linux: easy"). Overlapping VMAs are
    /// split so only the requested pages change.
    pub fn mprotect(&mut self, addr: u64, len: u64, prot: Prot) {
        let addr = addr & !(PAGE - 1);
        let end = (addr + len + PAGE - 1) & !(PAGE - 1);
        let mut out = Vec::with_capacity(self.vmas.len() + 2);
        for v in self.vmas.drain(..) {
            if v.end <= addr || v.start >= end {
                out.push(v);
                continue;
            }
            if v.start < addr {
                out.push(Vma {
                    start: v.start,
                    end: addr,
                    prot: v.prot,
                });
            }
            out.push(Vma {
                start: v.start.max(addr),
                end: v.end.min(end),
                prot,
            });
            if v.end > end {
                out.push(Vma {
                    start: end,
                    end: v.end,
                    prot: v.prot,
                });
            }
        }
        self.vmas = out;
        for (vp, pte) in self.ptes.iter_mut() {
            let a = vp * PAGE;
            if a < end && a + PAGE > addr {
                pte.prot = prot;
            }
        }
    }

    fn vma_at(&self, addr: u64) -> Option<&Vma> {
        self.vmas.iter().find(|v| addr >= v.start && addr < v.end)
    }

    fn reserved(&self, addr: u64) -> Option<Prot> {
        if addr >= self.brk_start && addr < self.brk {
            return Some(Prot::READ | Prot::WRITE);
        }
        self.vma_at(addr).map(|v| v.prot)
    }

    /// Touch `[addr, addr+len)` with `write` intent, demand-allocating
    /// frames from `frame_alloc`. Returns what happened.
    pub fn touch(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        mut frame_alloc: impl FnMut() -> Option<u64>,
    ) -> TouchOutcome {
        let mut out = TouchOutcome::default();
        let first = addr / PAGE;
        let last = (addr + len.max(1) - 1) / PAGE;
        for vp in first..=last {
            let a = vp * PAGE;
            match self.ptes.get(&vp) {
                Some(pte) => {
                    let need = if write { Prot::WRITE } else { Prot::READ };
                    if !pte.prot.contains(need) {
                        out.violation = true;
                        return out;
                    }
                }
                None => match self.reserved(a) {
                    Some(prot) => {
                        let need = if write { Prot::WRITE } else { Prot::READ };
                        if !prot.contains(need) {
                            out.violation = true;
                            return out;
                        }
                        match frame_alloc() {
                            Some(frame) => {
                                self.ptes.insert(vp, Pte { frame, prot });
                                out.faults += 1;
                            }
                            None => {
                                out.unmapped = true; // OOM treated as fatal
                                return out;
                            }
                        }
                    }
                    None => {
                        out.unmapped = true;
                        return out;
                    }
                },
            }
        }
        out
    }

    /// Data-plane translation (only already-faulted pages translate).
    pub fn translate(&self, addr: u64) -> Option<u64> {
        let pte = self.ptes.get(&(addr / PAGE))?;
        Some(pte.frame * PAGE + addr % PAGE)
    }

    /// Translate, faulting the page in if it is merely reserved (the
    /// data plane must behave like a real access).
    pub fn translate_faulting(
        &mut self,
        addr: u64,
        frame_alloc: impl FnMut() -> Option<u64>,
    ) -> Option<u64> {
        if self.translate(addr).is_none() {
            let out = self.touch(addr, 1, true, frame_alloc);
            if out.violation || out.unmapped {
                return None;
            }
        }
        self.translate(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_from(counter: &mut u64) -> impl FnMut() -> Option<u64> + '_ {
        move || {
            *counter += 1;
            Some(*counter)
        }
    }

    #[test]
    fn demand_paging_faults_once_per_page() {
        let mut a = FwkAddressSpace::new();
        let mut frames = 0;
        a.brk(a.brk_start + 4 * PAGE);
        let o = a.touch(a.brk_start, 4 * PAGE, true, alloc_from(&mut frames));
        assert_eq!(o.faults, 4);
        assert!(!o.violation && !o.unmapped);
        // Second touch: warm, no faults.
        let o = a.touch(a.brk_start, 4 * PAGE, true, alloc_from(&mut frames));
        assert_eq!(o.faults, 0);
    }

    #[test]
    fn protection_enforced() {
        let mut a = FwkAddressSpace::new();
        let mut frames = 0;
        let ro = a.mmap(PAGE, Prot::READ).unwrap();
        let o = a.touch(ro, 8, false, alloc_from(&mut frames));
        assert!(!o.violation);
        let o = a.touch(ro, 8, true, alloc_from(&mut frames));
        assert!(o.violation, "write to read-only must fault (unlike CNK)");
    }

    #[test]
    fn mprotect_changes_enforcement() {
        let mut a = FwkAddressSpace::new();
        let mut frames = 0;
        let rw = a.mmap(2 * PAGE, Prot::READ | Prot::WRITE).unwrap();
        a.touch(rw, 2 * PAGE, true, alloc_from(&mut frames));
        a.mprotect(rw, PAGE, Prot::NONE);
        assert!(a.touch(rw, 8, false, alloc_from(&mut frames)).violation);
        assert!(
            !a.touch(rw + PAGE, 8, true, alloc_from(&mut frames))
                .violation
        );
    }

    #[test]
    fn unmapped_access_detected() {
        let mut a = FwkAddressSpace::new();
        let mut frames = 0;
        let o = a.touch(0x8000_0000, 8, false, alloc_from(&mut frames));
        assert!(o.unmapped);
    }

    #[test]
    fn three_gb_limit() {
        let mut a = FwkAddressSpace::new();
        // One huge mapping close to the limit works...
        assert!(a.mmap(2 << 30, Prot::READ).is_some());
        // ...but in total we cannot reserve much more than 3 GB minus
        // the brk arena (contrast: CNK maps nearly 4 GB, §VII.A).
        assert!(a.mmap(1 << 30, Prot::READ).is_none());
    }

    #[test]
    fn munmap_drops_translations() {
        let mut a = FwkAddressSpace::new();
        let mut frames = 0;
        let m = a.mmap(2 * PAGE, Prot::READ | Prot::WRITE).unwrap();
        a.touch(m, 2 * PAGE, true, alloc_from(&mut frames));
        assert!(a.translate(m).is_some());
        a.munmap(m, 2 * PAGE);
        assert!(a.translate(m).is_none());
        let o = a.touch(m, 8, true, alloc_from(&mut frames));
        assert!(o.unmapped);
    }

    #[test]
    fn translate_faulting_allocates() {
        let mut a = FwkAddressSpace::new();
        let mut frames = 0;
        a.brk(a.brk_start + PAGE);
        assert!(a.translate(a.brk_start).is_none());
        let pa = a.translate_faulting(a.brk_start + 12, alloc_from(&mut frames));
        assert!(pa.is_some());
        assert_eq!(pa.unwrap() % PAGE, 12);
    }

    #[test]
    fn brk_cannot_cross_mmap() {
        let mut a = FwkAddressSpace::new();
        let m = a.mmap(PAGE, Prot::READ).unwrap();
        let before = a.brk_addr();
        let after = a.brk(m + PAGE);
        assert_eq!(after, before, "brk crossing an mmap must be refused");
    }
}
