//! `IdMap`: a dense map keyed by monotonically increasing `u64` ids.
//!
//! The simulator's in-flight tables (network messages, function-ship
//! requests) allocate their keys from a per-table monotonic counter and
//! retire them shortly after. A `HashMap` fits that access pattern but
//! pays hashing and per-entry overhead on every touch and — worse —
//! iterates in an implementation-defined order, which forced
//! iterate-then-sort workarounds wherever iteration feeds the
//! deterministic event stream. `IdMap` instead stores entries in a
//! sliding window `[head, head + slots.len())` of a `VecDeque`, indexed
//! by `id - head`:
//!
//! * insert/lookup/remove are O(1) (an offset, no hashing);
//! * iteration is ascending-id for free — i.e. allocation order, which
//!   is exactly the deterministic order the fault paths need;
//! * the window trims from the front as old ids retire, so memory
//!   tracks the *live span* of ids, not the total ever allocated.
//!
//! The one pattern it does not suit is long-lived low ids mixed with a
//! fast-moving counter (the window would stretch); the simulator's
//! tables retire ids within a bounded latency, so the window stays
//! tight in practice.

use std::collections::VecDeque;

#[derive(Debug, Clone)]
pub struct IdMap<V> {
    /// Id of `slots[0]`.
    head: u64,
    slots: VecDeque<Option<V>>,
    live: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap::new()
    }
}

impl<V> IdMap<V> {
    pub fn new() -> IdMap<V> {
        IdMap {
            head: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn offset(&self, id: u64) -> Option<usize> {
        let off = id.checked_sub(self.head)?;
        (off < self.slots.len() as u64).then_some(off as usize)
    }

    /// Insert `v` under `id`. Ids come from a monotonic counter, so
    /// inserts land at (or just past) the back of the window; an empty
    /// map re-anchors its window on the new id. Returns the previous
    /// value if `id` was already present.
    pub fn insert(&mut self, id: u64, v: V) -> Option<V> {
        if self.live == 0 && self.slots.is_empty() {
            self.head = id;
        }
        assert!(
            id >= self.head,
            "IdMap: id {id} below window head {} (ids must be monotonic)",
            self.head
        );
        let off = id - self.head;
        while self.slots.len() as u64 <= off {
            self.slots.push_back(None);
        }
        let old = self.slots[off as usize].replace(v);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    pub fn get(&self, id: u64) -> Option<&V> {
        self.offset(id).and_then(|o| self.slots[o].as_ref())
    }

    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        self.offset(id).and_then(|o| self.slots[o].as_mut())
    }

    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Remove and return the entry under `id`, trimming the retired
    /// front of the window so memory tracks the live id span.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let o = self.offset(id)?;
        let v = self.slots[o].take();
        if v.is_some() {
            self.live -= 1;
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.head += 1;
        }
        if self.slots.is_empty() && self.slots.capacity() > 1024 {
            // A drained table releases a stretched window's backing
            // store instead of carrying it for the rest of the run.
            self.slots = VecDeque::new();
        }
        v
    }

    /// Reserve window room for `additional` more ids, so a caller that
    /// knows how many it is about to insert grows the window once.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Drop every entry and release the window. The next insert
    /// re-anchors, so a cleared map accepts any id again.
    pub fn clear(&mut self) {
        self.head = 0;
        self.slots = VecDeque::new();
        self.live = 0;
    }

    /// Entries in ascending-id order (= allocation order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|v| (self.head + i as u64, v)))
    }

    /// Live ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Heap bytes currently reserved by the window.
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<V>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = IdMap::new();
        assert!(m.is_empty());
        for id in 0..10u64 {
            assert!(m.insert(id, id * 2).is_none());
        }
        assert_eq!(m.len(), 10);
        assert_eq!(m.get(3), Some(&6));
        assert_eq!(m.get_mut(3).map(|v| std::mem::replace(v, 7)), Some(6));
        assert_eq!(m.remove(3), Some(7));
        assert_eq!(m.remove(3), None);
        assert_eq!(m.get(3), None);
        assert!(!m.contains(3));
        assert!(m.contains(4));
        assert_eq!(m.len(), 9);
    }

    #[test]
    fn iteration_is_ascending_id_order() {
        let mut m = IdMap::new();
        for id in 100..130u64 {
            m.insert(id, ());
        }
        m.remove(105);
        m.remove(111);
        let keys: Vec<u64> = m.keys().collect();
        let mut expect: Vec<u64> = (100..130).collect();
        expect.retain(|&k| k != 105 && k != 111);
        assert_eq!(keys, expect);
    }

    #[test]
    fn window_trims_as_old_ids_retire() {
        let mut m = IdMap::new();
        for id in 0..1000u64 {
            m.insert(id, [0u8; 64]);
            if id >= 4 {
                m.remove(id - 4);
            }
        }
        assert_eq!(m.len(), 4);
        // The window follows the live span; it never holds all 1000.
        assert!(m.slots.len() <= 8, "window stretched to {}", m.slots.len());
        for id in 996..1000 {
            m.remove(id);
        }
        assert!(m.is_empty());
        // An empty map re-anchors on the next insert, far from head 0.
        m.insert(5_000_000, [1u8; 64]);
        assert_eq!(m.len(), 1);
        assert!(m.slots.len() == 1);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![5_000_000]);
    }

    #[test]
    fn drained_stretched_window_releases_memory() {
        let mut m = IdMap::new();
        m.insert(0, 0u64);
        for id in 1..5000u64 {
            m.insert(id, id);
            m.remove(id);
        }
        // Id 0 pinned the window open across 5000 ids.
        assert!(m.resident_bytes() >= 5000 * std::mem::size_of::<Option<u64>>());
        m.remove(0);
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn inserting_below_the_window_panics() {
        let mut m = IdMap::new();
        m.insert(10, ());
        m.insert(11, ());
        m.remove(10);
        m.insert(9, ());
    }
}
