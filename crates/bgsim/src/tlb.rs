//! The software-managed TLB of the PPC450 core.
//!
//! BG/P hardware supports the page sizes {1 MB, 16 MB, 256 MB, 1 GB}
//! (§IV.C) plus small 4 KiB pages, with a fixed number of entries per
//! core and a software refill handler. CNK pins a *static* set of entries
//! that never miss (§VI.B); Linux-like kernels fill entries on demand and
//! eat a refill penalty — one of the noise/overhead contributors the
//! paper contrasts (Table II: "No TLB misses — CNK: easy, Linux: not
//! avail").

/// Hardware page sizes in bytes, smallest to largest.
pub const PAGE_SIZES: [u64; 5] = [4 << 10, 1 << 20, 16 << 20, 256 << 20, 1 << 30];

/// The large page sizes CNK's partitioner tiles with (§IV.C lists these
/// four).
pub const LARGE_PAGE_SIZES: [u64; 4] = [1 << 20, 16 << 20, 256 << 20, 1 << 30];

/// Cycles for the software TLB refill handler (save/walk/fill/rfi).
pub const TLB_MISS_CYCLES: u64 = 120;

/// One TLB entry: a virtual→physical mapping of a hardware page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbEntry {
    pub vaddr: u64,
    pub paddr: u64,
    pub size: u64,
    /// Pinned entries are never evicted (CNK's static map).
    pub pinned: bool,
}

impl TlbEntry {
    pub fn covers(&self, va: u64) -> bool {
        va >= self.vaddr && va - self.vaddr < self.size
    }

    pub fn translate(&self, va: u64) -> Option<u64> {
        self.covers(va).then(|| self.paddr + (va - self.vaddr))
    }
}

/// A per-core TLB with round-robin replacement over the unpinned ways.
///
/// The pinned static map (CNK §VI.B) is identical on every core of a
/// process, so it lives in a shared, immutable `base` slice installed
/// once per process and reference-counted across its cores — at rack
/// scale the map costs one copy per process instead of one per core.
/// Per-core state (demand fills, runtime pins) stays in `entries`.
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Shared pinned static map; `None` until a kernel installs one.
    base: Option<std::sync::Arc<[TlbEntry]>>,
    entries: Vec<TlbEntry>,
    capacity: usize,
    victim: usize,
    pub hits: u64,
    pub misses: u64,
}

/// Why an insert failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TlbError {
    /// All entries are pinned; nothing can be evicted.
    Full,
    /// The entry is not size-aligned (hardware requires natural alignment,
    /// §IV.C "respects hardware alignment constraints").
    Misaligned,
    /// Overlaps an existing entry's virtual range.
    Overlap,
    /// Size is not a hardware page size.
    BadSize,
}

impl Tlb {
    pub fn new(capacity: u32) -> Tlb {
        Tlb {
            base: None,
            entries: Vec::new(),
            capacity: capacity as usize,
            victim: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shared pinned static map, if a kernel installed one.
    pub fn base_map(&self) -> Option<&std::sync::Arc<[TlbEntry]>> {
        self.base.as_ref()
    }

    fn base_slice(&self) -> &[TlbEntry] {
        self.base.as_deref().unwrap_or(&[])
    }

    /// Every installed entry, shared base first then per-core ways — the
    /// hardware scan order (pins precede fills, as in the flat layout).
    fn all(&self) -> impl Iterator<Item = &TlbEntry> {
        self.base_slice().iter().chain(self.entries.iter())
    }

    pub fn len(&self) -> usize {
        self.base_slice().len() + self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn pinned_count(&self) -> usize {
        self.base_slice().len() + self.entries.iter().filter(|e| e.pinned).count()
    }

    fn validate(&self, e: &TlbEntry) -> Result<(), TlbError> {
        if !PAGE_SIZES.contains(&e.size) {
            return Err(TlbError::BadSize);
        }
        if !e.vaddr.is_multiple_of(e.size) || !e.paddr.is_multiple_of(e.size) {
            return Err(TlbError::Misaligned);
        }
        if self
            .all()
            .any(|x| e.vaddr < x.vaddr + x.size && x.vaddr < e.vaddr + e.size)
        {
            return Err(TlbError::Overlap);
        }
        Ok(())
    }

    /// Install a process's shared static map in one shot. The slice must
    /// already be validated entry-by-entry (see [`Tlb::validate_map`]);
    /// this only checks that the ways fit. Requires an empty base —
    /// i.e. a freshly reset TLB at job launch.
    pub fn install_base(&mut self, map: std::sync::Arc<[TlbEntry]>) -> Result<(), TlbError> {
        debug_assert!(self.base.is_none(), "install_base on a live base");
        if self.len() + map.len() > self.capacity {
            return Err(TlbError::Full);
        }
        self.base = Some(map);
        Ok(())
    }

    /// Validate a candidate static map exactly as a sequence of [`pin`]
    /// calls on an empty TLB would: first offending entry wins, same
    /// error, same order.
    ///
    /// [`pin`]: Tlb::pin
    pub fn validate_map(map: &[TlbEntry], capacity: usize) -> Result<(), TlbError> {
        let mut scratch = Tlb::new(capacity as u32);
        for &e in map {
            scratch.pin(e)?;
        }
        Ok(())
    }

    /// Install a pinned entry (boot-time static map). Fails if the TLB is
    /// out of ways.
    pub fn pin(&mut self, e: TlbEntry) -> Result<(), TlbError> {
        self.validate(&e)?;
        if self.len() >= self.capacity {
            return Err(TlbError::Full);
        }
        self.entries.push(TlbEntry { pinned: true, ..e });
        Ok(())
    }

    /// Install a replaceable entry, evicting round-robin among unpinned
    /// ways if necessary.
    pub fn fill(&mut self, e: TlbEntry) -> Result<(), TlbError> {
        self.validate(&e)?;
        let e = TlbEntry { pinned: false, ..e };
        if self.len() < self.capacity {
            self.entries.push(e);
            return Ok(());
        }
        let n = self.entries.len();
        for probe in 0..n {
            let i = (self.victim + probe) % n;
            if !self.entries[i].pinned {
                self.entries[i] = e;
                self.victim = (i + 1) % n;
                return Ok(());
            }
        }
        Err(TlbError::Full)
    }

    /// Translate, counting hit/miss. A miss returns `None`; the kernel's
    /// refill path decides what to do.
    pub fn lookup(&mut self, va: u64) -> Option<u64> {
        match self.peek(va) {
            Some(pa) => {
                self.hits += 1;
                Some(pa)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Translate without touching statistics (introspection).
    pub fn peek(&self, va: u64) -> Option<u64> {
        self.all().find_map(|e| e.translate(va))
    }

    /// Drop all unpinned entries (context switch on the FWK model —
    /// the PPC450 TLB is not tagged). The shared base is all-pinned by
    /// construction and survives.
    pub fn flush_unpinned(&mut self) {
        self.entries.retain(|e| e.pinned);
        self.victim = 0;
    }

    /// Drop everything (chip reset), releasing this core's claim on the
    /// shared base.
    pub fn reset(&mut self) {
        self.base = None;
        self.entries.clear();
        self.victim = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// Heap bytes attributed to this core: its private ways plus its
    /// amortized share of the process's base map (total map bytes split
    /// over the cores currently holding a reference, so summing over the
    /// cores counts each map once).
    pub fn resident_bytes(&self) -> usize {
        let sz = std::mem::size_of::<TlbEntry>();
        let shared = self.base.as_ref().map_or(0, |b| {
            (b.len() * sz).div_ceil(std::sync::Arc::strong_count(b))
        });
        self.entries.capacity() * sz + shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(v: u64, p: u64, s: u64) -> TlbEntry {
        TlbEntry {
            vaddr: v,
            paddr: p,
            size: s,
            pinned: false,
        }
    }

    #[test]
    fn translate_within_page() {
        let mut t = Tlb::new(4);
        t.pin(e(0x100000, 0x4000000, 1 << 20)).unwrap();
        assert_eq!(t.lookup(0x100000), Some(0x4000000));
        assert_eq!(t.lookup(0x1fffff), Some(0x40fffff));
        assert_eq!(t.lookup(0x200000), None);
        assert_eq!(t.hits, 2);
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn alignment_enforced() {
        let mut t = Tlb::new(4);
        assert_eq!(t.pin(e(0x1000, 0, 1 << 20)), Err(TlbError::Misaligned));
        assert_eq!(t.pin(e(0, 0x1000, 1 << 20)), Err(TlbError::Misaligned));
        assert_eq!(t.pin(e(0, 0, 12345)), Err(TlbError::BadSize));
    }

    #[test]
    fn overlap_rejected() {
        let mut t = Tlb::new(4);
        t.pin(e(0, 0, 16 << 20)).unwrap();
        assert_eq!(t.pin(e(1 << 20, 64 << 20, 1 << 20)), Err(TlbError::Overlap));
        assert!(t.pin(e(16 << 20, 64 << 20, 1 << 20)).is_ok());
    }

    #[test]
    fn pinned_never_evicted() {
        let mut t = Tlb::new(2);
        t.pin(e(0, 0, 1 << 20)).unwrap();
        for i in 1..10u64 {
            t.fill(e(i * (1 << 20), i * (1 << 20), 1 << 20)).unwrap();
        }
        assert!(t.peek(0).is_some(), "pinned entry survived");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn all_pinned_fill_fails() {
        let mut t = Tlb::new(1);
        t.pin(e(0, 0, 1 << 20)).unwrap();
        assert_eq!(t.fill(e(1 << 20, 1 << 20, 1 << 20)), Err(TlbError::Full));
    }

    #[test]
    fn round_robin_eviction() {
        let mut t = Tlb::new(2);
        t.fill(e(0, 0, 1 << 20)).unwrap();
        t.fill(e(1 << 20, 1 << 20, 1 << 20)).unwrap();
        t.fill(e(2 << 20, 2 << 20, 1 << 20)).unwrap(); // evicts slot 0
        assert!(t.peek(0).is_none());
        assert!(t.peek(1 << 20).is_some());
        assert!(t.peek(2 << 20).is_some());
    }

    #[test]
    fn flush_unpinned_keeps_static_map() {
        let mut t = Tlb::new(8);
        t.pin(e(0, 0, 16 << 20)).unwrap();
        t.fill(e(256 << 20, 256 << 20, 1 << 20)).unwrap();
        t.flush_unpinned();
        assert_eq!(t.len(), 1);
        assert!(t.peek(0).is_some());
    }

    #[test]
    fn base_map_shared_and_scanned_first() {
        use std::sync::Arc;
        let map: Arc<[TlbEntry]> = vec![
            TlbEntry {
                pinned: true,
                ..e(0, 0, 16 << 20)
            },
            TlbEntry {
                pinned: true,
                ..e(16 << 20, 64 << 20, 1 << 20)
            },
        ]
        .into();
        Tlb::validate_map(&map, 4).unwrap();
        let mut a = Tlb::new(4);
        let mut b = Tlb::new(4);
        a.install_base(map.clone()).unwrap();
        b.install_base(map.clone()).unwrap();
        drop(map);
        assert_eq!(a.lookup(16 << 20), Some(64 << 20));
        assert_eq!(a.len(), 2);
        assert_eq!(a.pinned_count(), 2);
        // Overlapping a base entry is rejected like any pinned entry.
        assert_eq!(a.fill(e(0, 128 << 20, 1 << 20)), Err(TlbError::Overlap));
        // The map's bytes are split across the two holders.
        let sz = std::mem::size_of::<TlbEntry>();
        assert_eq!(a.resident_bytes() + b.resident_bytes(), 2 * sz);
        // Flush keeps the base (it is all-pinned); reset releases it.
        a.fill(e(256 << 20, 256 << 20, 1 << 20)).unwrap();
        a.flush_unpinned();
        assert_eq!(a.len(), 2);
        a.reset();
        assert!(a.is_empty());
        assert_eq!(b.resident_bytes(), 2 * sz);
    }

    #[test]
    fn base_map_counts_against_capacity() {
        use std::sync::Arc;
        let map: Arc<[TlbEntry]> = vec![TlbEntry {
            pinned: true,
            ..e(0, 0, 1 << 20)
        }]
        .into();
        let mut t = Tlb::new(2);
        t.install_base(map).unwrap();
        t.fill(e(1 << 20, 1 << 20, 1 << 20)).unwrap();
        // Full: eviction walks only the private ways, never the base.
        t.fill(e(2 << 20, 2 << 20, 1 << 20)).unwrap();
        assert!(t.peek(0).is_some(), "base entry survived eviction");
        assert!(t.peek(1 << 20).is_none());
        assert!(t.peek(2 << 20).is_some());
        assert_eq!(
            Tlb::validate_map(&[e(0, 0, 1 << 20), e(0, 0, 1 << 20)], 4),
            Err(TlbError::Overlap)
        );
    }

    #[test]
    fn gigabyte_pages_supported() {
        let mut t = Tlb::new(4);
        t.pin(e(1 << 30, 0, 1 << 30)).unwrap();
        assert_eq!(t.peek((1 << 30) + 12345), Some(12345));
    }
}
