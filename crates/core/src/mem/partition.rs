//! The static memory partitioning algorithm (§IV.C).
//!
//! "When an application is loaded, the ELF section information ...
//! indicates the location and size of the text and data segments. The
//! number of processes per node and size of the shared memory region are
//! specified by the user. This information is passed into a partitioning
//! algorithm, which tiles the virtual and physical memory and generates a
//! static mapping that makes effective use of the different hardware page
//! sizes (1MB, 16MB, 256MB, 1GB) and that respects hardware alignment
//! constraints."
//!
//! The algorithm here:
//!
//! 1. Physical memory is divided evenly among the processes of a node
//!    (§VII.B: "CNK divides memory on a node evenly among the tasks"),
//!    after reserving a kernel arena at the bottom and the persistent-
//!    memory arena at the top.
//! 2. Each process gets four contiguous regions — text(+rodata),
//!    data(+bss), heap+stack, shared memory — laid out in a fixed virtual
//!    order, each contiguous in physical memory (§IV.C's four ranges).
//! 3. Each region is tiled greedily with the largest naturally aligned
//!    hardware page that fits, producing pinned TLB entries.
//! 4. If the per-core TLB entry budget is exceeded, the minimum page size
//!    is raised (1 MB → 16 MB → ...) and the layout re-run: fewer, larger
//!    pages at the cost of wasted physical memory — exactly the §VII.B
//!    trade-off ("the memory subsystem may waste physical memory as large
//!    pages are tiled together").

use bgsim::tlb::LARGE_PAGE_SIZES;

/// What a region is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionKind {
    /// .text and .rodata.
    Text,
    /// .data and .bss.
    Data,
    /// Heap and stacks (one arena; stacks carved from the top).
    HeapStack,
    /// The node-shared memory window (same physical range in every
    /// process of the node).
    Shared,
    /// A persistent-memory attachment (§IV.D).
    Persist,
    /// The fixed ld.so + dynamic library window (§IV.B.2).
    Dynamic,
}

/// One virtually and physically contiguous mapped region.
#[derive(Clone, Debug)]
pub struct Region {
    pub kind: RegionKind,
    pub vaddr: u64,
    pub paddr: u64,
    /// Mapped bytes (multiple of the smallest used page).
    pub bytes: u64,
    /// The page tiling: (page_size, vaddr) pairs in address order.
    pub pages: Vec<(u64, u64)>,
}

impl Region {
    pub fn vend(&self) -> u64 {
        self.vaddr + self.bytes
    }

    pub fn contains(&self, va: u64) -> bool {
        va >= self.vaddr && va < self.vend()
    }

    pub fn translate(&self, va: u64) -> Option<u64> {
        self.contains(va).then(|| self.paddr + (va - self.vaddr))
    }
}

/// Requirements for one process.
#[derive(Clone, Copy, Debug)]
pub struct ProcRequirements {
    pub text_bytes: u64,
    pub data_bytes: u64,
    pub heap_stack_bytes: u64,
    pub shared_bytes: u64,
    /// Reserved window for ld.so and dynamic libraries (0 if static).
    pub dynamic_bytes: u64,
}

/// The generated static map for one process.
#[derive(Clone, Debug)]
pub struct StaticMap {
    pub regions: Vec<Region>,
    /// TLB entries consumed (== total page count).
    pub tlb_entries: usize,
    /// Physical bytes mapped beyond what was asked for (rounding waste).
    pub wasted_bytes: u64,
    /// The smallest page size the final layout used.
    pub min_page: u64,
}

impl StaticMap {
    pub fn translate(&self, va: u64) -> Option<u64> {
        self.regions.iter().find_map(|r| r.translate(va))
    }

    pub fn region(&self, kind: RegionKind) -> Option<&Region> {
        self.regions.iter().find(|r| r.kind == kind)
    }

    /// Total mapped physical bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes).sum()
    }

    /// Heap bytes of the region table and its page tilings.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.regions.capacity() * std::mem::size_of::<Region>()
            + self
                .regions
                .iter()
                .map(|r| r.pages.capacity() * std::mem::size_of::<(u64, u64)>())
                .sum::<usize>()
    }

    /// The (vaddr, paddr, bytes) triples for QueryStaticMap.
    pub fn as_triples(&self) -> Vec<(u64, u64, u64)> {
        let mut v: Vec<(u64, u64, u64)> = self
            .regions
            .iter()
            .map(|r| (r.vaddr, r.paddr, r.bytes))
            .collect();
        v.sort_unstable();
        v
    }
}

/// Partitioning failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PartitionError {
    /// Even the coarsest layout exceeds the TLB entry budget.
    TlbBudget { needed: usize, budget: usize },
    /// The per-process physical slice cannot hold the regions.
    PhysOverflow { need: u64, have: u64 },
    /// The 32-bit virtual space cannot hold the regions.
    VirtOverflow,
}

/// Virtual-layout constants (32-bit space, §VII.A: "nearly the full 4GB
/// 32-bit address space of a task can be mapped").
pub const VA_TEXT_BASE: u64 = 0x0010_0000; // leave page 0 unmapped (null guard)
pub const VA_DYNAMIC_BASE: u64 = 0x8000_0000; // fixed ld.so window (§IV.B.2)
pub const VA_SHARED_TOP: u64 = 0xF000_0000;
pub const VA_PERSIST_BASE: u64 = 0xF000_0000; // persistent window, fixed across jobs
pub const VA_LIMIT: u64 = 0x1_0000_0000;

/// Round `v` up to a multiple of `a` (power of two).
#[inline]
pub fn align_up(v: u64, a: u64) -> u64 {
    debug_assert!(a.is_power_of_two());
    (v + a - 1) & !(a - 1)
}

/// Greedily tile `[vaddr, vaddr+len)` ↔ `[paddr, ...)` with hardware
/// pages no smaller than `min_page`. `vaddr` and `paddr` must be
/// `min_page`-aligned. Returns (pages, mapped_bytes).
fn tile(vaddr: u64, paddr: u64, len: u64, min_page: u64) -> (Vec<(u64, u64)>, u64) {
    let len = align_up(len.max(1), min_page);
    let mut pages = Vec::new();
    let mut off = 0u64;
    while off < len {
        let here_v = vaddr + off;
        let here_p = paddr + off;
        let remaining = len - off;
        // Largest page that (a) is ≥ min_page, (b) naturally aligns at
        // both addresses, (c) does not overshoot the remaining length by
        // more than the rounding the caller accepted... pages must not
        // overshoot at all: remaining is already min_page-rounded, so a
        // page ≤ remaining always exists (min_page itself).
        let ps = LARGE_PAGE_SIZES
            .iter()
            .rev()
            .copied()
            .find(|&ps| {
                ps >= min_page
                    && ps <= remaining
                    && here_v.is_multiple_of(ps)
                    && here_p.is_multiple_of(ps)
            })
            .expect("min_page always fits");
        pages.push((ps, here_v));
        off += ps;
    }
    (pages, len)
}

/// Compute the static maps for all `procs_per_node` processes of a node.
///
/// Returns one map per process plus the shared region (identical physical
/// range in each map). `tlb_budget` is per core, and each process's map
/// must fit it (every core of a process pins the full process map).
pub fn partition_node(
    req: &ProcRequirements,
    procs_per_node: u32,
    dram_bytes: u64,
    kernel_reserve: u64,
    persist_reserve: u64,
    tlb_budget: usize,
) -> Result<Vec<StaticMap>, PartitionError> {
    let mut budget_err: Option<PartitionError> = None;
    let mut first_err: Option<PartitionError> = None;
    for &min_page in LARGE_PAGE_SIZES.iter() {
        match try_layout(
            req,
            procs_per_node,
            dram_bytes,
            kernel_reserve,
            persist_reserve,
            tlb_budget,
            min_page,
        ) {
            Ok(maps) => return Ok(maps),
            Err(PartitionError::TlbBudget { needed, budget }) => {
                // Coarsen and retry with larger pages; remember the
                // attempt that came closest to fitting.
                let better = match budget_err {
                    Some(PartitionError::TlbBudget { needed: n, .. }) => needed < n,
                    _ => true,
                };
                if better {
                    budget_err = Some(PartitionError::TlbBudget { needed, budget });
                }
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    // No layout worked. A TLB-budget failure is the most actionable
    // diagnosis (coarsening was the cure that ran out); otherwise report
    // the finest-grained attempt's failure.
    Err(budget_err
        .or(first_err)
        .unwrap_or(PartitionError::VirtOverflow))
}

/// Pick the physical base for a region starting at virtual `va`: the
/// smallest `pa >= cursor` congruent to `va` modulo the largest page
/// size worth using, subject to the alignment gap fitting in `pa_end`.
/// Congruence is what lets the greedy tiler escalate to large pages —
/// a page needs *both* addresses naturally aligned.
fn place_pa(cursor: u64, va: u64, len: u64, min_page: u64, pa_end: u64) -> u64 {
    let len_rounded = align_up(len.max(1), min_page);
    for &modulus in LARGE_PAGE_SIZES.iter().rev() {
        if modulus < min_page || modulus > len_rounded.next_power_of_two().max(min_page) {
            continue;
        }
        let pa = cursor + (va.wrapping_sub(cursor) % modulus + modulus) % modulus;
        let gap = pa - cursor;
        // Never spend more physical memory on alignment than half the
        // region itself — large pages are not worth arbitrary waste
        // (the §VII.B trade-off, bounded).
        if gap <= len_rounded / 2 && pa + len_rounded <= pa_end {
            return pa;
        }
    }
    align_up(cursor, min_page)
}

fn try_layout(
    req: &ProcRequirements,
    procs_per_node: u32,
    dram_bytes: u64,
    kernel_reserve: u64,
    persist_reserve: u64,
    tlb_budget: usize,
    min_page: u64,
) -> Result<Vec<StaticMap>, PartitionError> {
    let p = procs_per_node.max(1) as u64;
    let phys_top = dram_bytes.saturating_sub(persist_reserve);
    // Shared memory is one physical range for the node; it is carved
    // before the even split, placed congruent with its fixed virtual
    // window so it can use large pages too.
    let shared_len = align_up(req.shared_bytes.max(1), min_page);
    let shared_va = VA_SHARED_TOP - shared_len;
    let shared_paddr = place_pa(
        align_up(kernel_reserve, min_page),
        shared_va,
        shared_len,
        min_page,
        phys_top,
    );
    let slice_base = shared_paddr + shared_len;
    let usable = phys_top.saturating_sub(slice_base);
    let slice = (usable / p) & !(min_page - 1);
    if slice == 0 {
        return Err(PartitionError::PhysOverflow {
            need: min_page,
            have: 0,
        });
    }

    let mut maps = Vec::new();
    for proc_idx in 0..p {
        let mut regions = Vec::new();
        let mut asked = 0u64;
        let slice_lo = slice_base + proc_idx * slice;
        let pa_end = (slice_base + (proc_idx + 1) * slice).min(phys_top);
        let mut pa_cursor = slice_lo;
        let mut va = align_up(VA_TEXT_BASE, min_page);

        let place = |kind: RegionKind,
                     va: &mut u64,
                     pa_cursor: &mut u64,
                     len: u64|
         -> Result<Region, PartitionError> {
            let pa = place_pa(*pa_cursor, *va, len, min_page, pa_end);
            let (pages, mapped) = tile(*va, pa, len, min_page);
            if pa + mapped > pa_end {
                return Err(PartitionError::PhysOverflow {
                    need: pa + mapped - slice_lo,
                    have: pa_end - slice_lo,
                });
            }
            let r = Region {
                kind,
                vaddr: *va,
                paddr: pa,
                bytes: mapped,
                pages,
            };
            *va += mapped;
            *pa_cursor = pa + mapped;
            Ok(r)
        };

        asked += req.text_bytes;
        regions.push(place(
            RegionKind::Text,
            &mut va,
            &mut pa_cursor,
            req.text_bytes,
        )?);
        asked += req.data_bytes;
        regions.push(place(
            RegionKind::Data,
            &mut va,
            &mut pa_cursor,
            req.data_bytes,
        )?);
        asked += req.heap_stack_bytes;
        regions.push(place(
            RegionKind::HeapStack,
            &mut va,
            &mut pa_cursor,
            req.heap_stack_bytes,
        )?);

        if req.dynamic_bytes > 0 {
            // The dynamic window sits at its fixed virtual base, which
            // must not collide with what we already placed (§IV.B.2:
            // "ld.so needed to statically load at a fixed virtual address
            // that was not equal to the initial virtual addresses of the
            // application").
            if va > VA_DYNAMIC_BASE {
                return Err(PartitionError::VirtOverflow);
            }
            let mut dva = VA_DYNAMIC_BASE;
            asked += req.dynamic_bytes;
            regions.push(place(
                RegionKind::Dynamic,
                &mut dva,
                &mut pa_cursor,
                req.dynamic_bytes,
            )?);
        }

        // Shared region: fixed virtual window below VA_SHARED_TOP, same
        // physical range for every process.
        if va > shared_va {
            return Err(PartitionError::VirtOverflow);
        }
        let (pages, mapped) = tile(shared_va, shared_paddr, shared_len, min_page);
        asked += req.shared_bytes;
        regions.push(Region {
            kind: RegionKind::Shared,
            vaddr: shared_va,
            paddr: shared_paddr,
            bytes: mapped,
            pages,
        });

        let tlb_entries: usize = regions.iter().map(|r| r.pages.len()).sum();
        if tlb_entries > tlb_budget {
            return Err(PartitionError::TlbBudget {
                needed: tlb_entries,
                budget: tlb_budget,
            });
        }
        let mapped: u64 = regions.iter().map(|r| r.bytes).sum();
        maps.push(StaticMap {
            regions,
            tlb_entries,
            wasted_bytes: mapped.saturating_sub(asked),
            min_page,
        });
    }
    Ok(maps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(text: u64, data: u64, heap: u64, shared: u64) -> ProcRequirements {
        ProcRequirements {
            text_bytes: text,
            data_bytes: data,
            heap_stack_bytes: heap,
            shared_bytes: shared,
            dynamic_bytes: 0,
        }
    }

    const DRAM: u64 = 2 << 30;
    const KRES: u64 = 16 << 20;

    #[test]
    fn smp_mode_basic_layout() {
        let maps = partition_node(
            &req(2 << 20, 1 << 20, 512 << 20, 16 << 20),
            1,
            DRAM,
            KRES,
            0,
            60,
        )
        .unwrap();
        assert_eq!(maps.len(), 1);
        let m = &maps[0];
        assert!(m.tlb_entries <= 60);
        // All four regions present.
        for k in [
            RegionKind::Text,
            RegionKind::Data,
            RegionKind::HeapStack,
            RegionKind::Shared,
        ] {
            assert!(m.region(k).is_some(), "{k:?} missing");
        }
        // Text begins above the null guard.
        assert!(m.region(RegionKind::Text).unwrap().vaddr >= VA_TEXT_BASE);
    }

    #[test]
    fn translation_is_contiguous_within_regions() {
        let maps = partition_node(
            &req(2 << 20, 1 << 20, 256 << 20, 4 << 20),
            1,
            DRAM,
            KRES,
            0,
            60,
        )
        .unwrap();
        let m = &maps[0];
        let h = m.region(RegionKind::HeapStack).unwrap();
        let p0 = m.translate(h.vaddr).unwrap();
        let p1 = m.translate(h.vaddr + 12345).unwrap();
        assert_eq!(p1 - p0, 12345, "physically contiguous (§V.C requirement)");
        assert_eq!(m.translate(h.vend()), None.or(m.translate(h.vend())));
    }

    #[test]
    fn no_region_overlap_virtual_or_physical() {
        for ppn in [1u32, 2, 4] {
            let maps = partition_node(
                &req(24 << 20, 8 << 20, 128 << 20, 16 << 20),
                ppn,
                DRAM,
                KRES,
                64 << 20,
                60,
            )
            .unwrap();
            // Virtual: regions within a process must not overlap.
            for m in &maps {
                let mut vr: Vec<(u64, u64)> =
                    m.regions.iter().map(|r| (r.vaddr, r.vend())).collect();
                vr.sort_unstable();
                for w in vr.windows(2) {
                    assert!(w[0].1 <= w[1].0, "virtual overlap {w:?}");
                }
            }
            // Physical: private regions across processes must not overlap
            // (shared regions are deliberately identical).
            let mut pr: Vec<(u64, u64)> = maps
                .iter()
                .flat_map(|m| {
                    m.regions
                        .iter()
                        .filter(|r| r.kind != RegionKind::Shared)
                        .map(|r| (r.paddr, r.paddr + r.bytes))
                })
                .collect();
            pr.sort_unstable();
            for w in pr.windows(2) {
                assert!(w[0].1 <= w[1].0, "physical overlap {w:?} (ppn={ppn})");
            }
        }
    }

    #[test]
    fn shared_region_is_shared() {
        let maps = partition_node(
            &req(2 << 20, 1 << 20, 64 << 20, 32 << 20),
            4,
            DRAM,
            KRES,
            0,
            60,
        )
        .unwrap();
        let first = maps[0].region(RegionKind::Shared).unwrap().clone();
        for m in &maps[1..] {
            let s = m.region(RegionKind::Shared).unwrap();
            assert_eq!(s.paddr, first.paddr);
            assert_eq!(s.vaddr, first.vaddr);
            assert_eq!(s.bytes, first.bytes);
        }
    }

    #[test]
    fn pages_are_aligned_and_sized() {
        let maps = partition_node(
            &req(5 << 20, 3 << 20, 700 << 20, 16 << 20),
            1,
            DRAM,
            KRES,
            0,
            60,
        )
        .unwrap();
        for r in &maps[0].regions {
            for &(ps, va) in &r.pages {
                assert!(LARGE_PAGE_SIZES.contains(&ps), "bad page size {ps}");
                assert_eq!(va % ps, 0, "unaligned page at {va:#x} size {ps:#x}");
                // Physical alignment too.
                let pa = r.paddr + (va - r.vaddr);
                assert_eq!(pa % ps, 0, "phys misaligned {pa:#x} size {ps:#x}");
            }
            // Pages exactly tile the region.
            let total: u64 = r.pages.iter().map(|(ps, _)| ps).sum();
            assert_eq!(total, r.bytes);
        }
    }

    #[test]
    fn tight_budget_coarsens_and_wastes() {
        let r = req(2 << 20, 1 << 20, 900 << 20, 16 << 20);
        let generous = partition_node(&r, 1, DRAM, KRES, 0, 64).unwrap();
        let tight = partition_node(&r, 1, DRAM, KRES, 0, 12).unwrap();
        assert!(tight[0].tlb_entries <= 12);
        assert!(tight[0].min_page > generous[0].min_page);
        assert!(
            tight[0].wasted_bytes >= generous[0].wasted_bytes,
            "coarser pages should waste at least as much"
        );
    }

    #[test]
    fn impossible_budget_reports_error() {
        // Budget of 3 entries cannot map text+data+heap+shared even with
        // 1 GB pages... actually 4 regions at 1 page each needs 4.
        let e = partition_node(
            &req(1 << 20, 1 << 20, 1 << 20, 1 << 20),
            1,
            8 << 30,
            0,
            0,
            3,
        );
        assert!(matches!(e, Err(PartitionError::TlbBudget { .. })), "{e:?}");
    }

    #[test]
    fn phys_overflow_detected() {
        // 4 processes × 700 MB of heap in 2 GB cannot fit.
        let e = partition_node(
            &req(1 << 20, 1 << 20, 700 << 20, 1 << 20),
            4,
            DRAM,
            KRES,
            0,
            64,
        );
        assert!(
            matches!(e, Err(PartitionError::PhysOverflow { .. })),
            "{e:?}"
        );
    }

    #[test]
    fn nearly_full_4gb_map_possible() {
        // §VII.A: "nearly the full 4GB 32-bit address space of a task can
        // be mapped" — try 3.5 GB of heap on a 4 GB node (Linux would cap
        // the task at 3 GB).
        let maps = partition_node(
            &req(16 << 20, 16 << 20, 3 << 30, 16 << 20),
            1,
            4 << 30,
            KRES,
            0,
            64,
        )
        .unwrap();
        assert!(maps[0].mapped_bytes() > 3u64 << 30);
    }

    #[test]
    fn dynamic_window_at_fixed_base() {
        let mut r = req(8 << 20, 4 << 20, 256 << 20, 16 << 20);
        r.dynamic_bytes = 64 << 20;
        let maps = partition_node(&r, 1, DRAM, KRES, 0, 64).unwrap();
        let d = maps[0].region(RegionKind::Dynamic).unwrap();
        assert_eq!(d.vaddr, VA_DYNAMIC_BASE);
    }

    #[test]
    fn even_split_across_processes() {
        let maps = partition_node(
            &req(2 << 20, 2 << 20, 64 << 20, 8 << 20),
            4,
            DRAM,
            KRES,
            0,
            60,
        )
        .unwrap();
        // Each process's heap region has the same size: the even split of
        // §VII.B.
        let sizes: Vec<u64> = maps
            .iter()
            .map(|m| m.region(RegionKind::HeapStack).unwrap().bytes)
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }

    #[test]
    fn as_triples_sorted() {
        let maps = partition_node(
            &req(2 << 20, 1 << 20, 64 << 20, 8 << 20),
            1,
            DRAM,
            KRES,
            0,
            60,
        )
        .unwrap();
        let t = maps[0].as_triples();
        assert!(t.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(t.len(), maps[0].regions.len());
    }
}
