//! The discrete-event engine.
//!
//! Events live in one min-heap ordered by the total order
//! `(cycle, sequence)`. The sequence counter is global and never reused,
//! so the pop order is fixed by the schedule stream alone and the
//! simulation stays deterministic: the foundation of the
//! cycle-reproducibility property the paper's bringup methodology (§III)
//! relies on.
//!
//! Two hot-path properties distinguish this engine from a plain
//! `BinaryHeap<Event>`:
//!
//! * **Payloads never move.** Heap entries are 16-byte keys, `(at, seq,
//!   slot)` packed into one `u128`; the `EvKind` payload sits in a slab
//!   and is written once at `schedule` and read once at `pop`.
//!   Sift-up/sift-down move keys only and compare one integer.
//! * **Cancellation is O(1).** `schedule*` returns an [`EvHandle`];
//!   [`Engine::cancel`] marks the slab slot dead without touching the
//!   heap. Dead entries are discarded lazily at pop (counted) and the
//!   heap is compacted wholesale when the dead fraction crosses a
//!   threshold, so a reschedule-heavy workload (preempt/stretch storms)
//!   no longer drags a tail of stale events through every heap
//!   operation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cycles::Cycle;

/// An event payload. The machine layer interprets these; the engine only
/// orders them.
#[derive(Clone, PartialEq, Debug)]
pub enum EvKind {
    /// The running op of thread `tid` completes (if `gen` still matches).
    OpDone { tid: u32, gen: u32 },
    /// A kernel-scheduled event (noise tick, daemon wake, timeslice, CIOD
    /// service completion...). `tag` is kernel-private.
    Kernel { node: u32, tag: u64 },
    /// A network message delivery.
    NetDeliver { msg_id: u64 },
    /// An inter-processor interrupt arriving at a hardware core.
    Ipi { core: u32, kind: u32 },
    /// An injected hardware fault (e.g. L1 parity error) on a core.
    Fault { core: u32, kind: u32 },
    /// A collective operation completes for one participant.
    CollDone { tid: u32, coll: u64 },
    /// A scheduled RAS fault fires; `idx` indexes the machine's sorted
    /// fault schedule ([`crate::fault::FaultSchedule`]).
    Ras { idx: u32 },
}

/// A popped event.
#[derive(Clone, PartialEq, Debug)]
pub struct Event {
    pub at: Cycle,
    pub seq: u64,
    pub kind: EvKind,
}

/// Bits of a packed key that hold the slab slot (the low bits) and the
/// sequence number (above them); the cycle takes the top 64.
const SLOT_BITS: u32 = 24;
const SEQ_BITS: u32 = 40;
/// Sequence numbers must stay below this to fit a packed key: about
/// 13 days of host time at 10^6 events per second.
pub const SEQ_LIMIT: u64 = 1 << SEQ_BITS;
/// Slab slots (live plus not-yet-swept dead events) must stay below
/// this; a 131 072-node machine holds about 2^17.
pub const SLOT_LIMIT: u32 = 1 << SLOT_BITS;

/// Handle to a scheduled event, for O(1) cancellation: its sequence
/// number and slab slot, packed like the low half of a [`Key`]. The
/// `seq` guards against slot reuse: a handle kept past its event's pop
/// (or past a cancel) simply stops matching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvHandle(u64);

impl EvHandle {
    /// The global sequence number of the scheduled event. The fast path
    /// carries this through virtualization so a migrated event keeps its
    /// exact position in the `(cycle, seq)` total order.
    pub fn seq(&self) -> u64 {
        self.0 >> SLOT_BITS
    }

    fn slot(self) -> u32 {
        self.0 as u32 & (SLOT_LIMIT - 1)
    }
}

/// Heap entry: `at` in the top 64 bits, `seq` in the next 40, the slab
/// slot of the payload in the low 24. Integer order is `(at, seq)`
/// order, because no two live keys share a `seq`; the slot only breaks
/// the tie between a restored event and its own dead twin.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key(u128);

impl Key {
    /// Pack a key, panicking if `seq` or `slot` overflows its width.
    fn pack(at: Cycle, seq: u64, slot: u32) -> Key {
        assert!(
            seq < SEQ_LIMIT,
            "event sequence number {seq} reached SEQ_LIMIT (2^{SEQ_BITS}) of the packed event key"
        );
        assert!(
            slot < SLOT_LIMIT,
            "event slab slot {slot} reached SLOT_LIMIT (2^{SLOT_BITS}) of the packed event key"
        );
        Key(u128::from(at) << 64 | u128::from(seq) << SLOT_BITS | u128::from(slot))
    }

    fn at(self) -> Cycle {
        (self.0 >> 64) as Cycle
    }

    fn seq(self) -> u64 {
        self.0 as u64 >> SLOT_BITS
    }

    fn slot(self) -> u32 {
        self.0 as u32 & (SLOT_LIMIT - 1)
    }
}

#[derive(Debug)]
struct SlabEntry {
    kind: EvKind,
    seq: u64,
    dead: bool,
}

/// Engine occupancy / churn counters, exported to benches and telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events handed to `schedule*` since construction.
    pub scheduled: u64,
    /// Live events processed (excludes cancelled ones).
    pub processed: u64,
    /// Events cancelled via [`Engine::cancel`].
    pub cancelled: u64,
    /// Cancelled events discarded lazily at pop (cheap path).
    pub stale_discarded: u64,
    /// Whole-heap compactions triggered by the stale-fraction threshold.
    pub compactions: u64,
    /// Completions retired inline by the fast path (no heap traffic).
    pub coalesced: u64,
    /// Cycles the clock advanced via [`Engine::advance_inline`] instead
    /// of through heap pops.
    pub fastforward_cycles: u64,
}

/// Dead-entry floor before a cancel considers wholesale compaction;
/// below it the lazy pop-time discard is cheaper than a rebuild.
const COMPACT_MIN_DEAD: usize = 64;

/// The event queue.
#[derive(Debug, Default)]
pub struct Engine {
    /// Min-heap of keys in `(at, seq)` order.
    heap: BinaryHeap<Reverse<Key>>,
    /// Payload slab + free list. Heap keys index into this.
    slots: Vec<Option<SlabEntry>>,
    free: Vec<u32>,
    now: Cycle,
    seq: u64,
    live: usize,
    dead: usize,
    stats: EngineStats,
}

impl Engine {
    /// An empty engine at cycle 0. Nothing is pre-reserved: the heap and
    /// the payload slab grow geometrically on demand.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Heap bytes currently reserved by the engine: the key heap, the
    /// payload slab and the free list. The accounting hook behind
    /// `Machine::resident_bytes_estimate`.
    pub fn resident_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Reverse<Key>>()
            + self.slots.capacity() * std::mem::size_of::<Option<SlabEntry>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events processed so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.stats.processed
    }

    /// Occupancy / churn counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Schedule `kind` at absolute cycle `at`. Scheduling in the past is
    /// a logic error in the caller. Returns a handle usable with
    /// [`Engine::cancel`].
    pub fn schedule(&mut self, at: Cycle, kind: EvKind) -> EvHandle {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {} < {}",
            at,
            self.now
        );
        let seq = self.alloc_seq();
        self.stats.scheduled += 1;
        self.insert(at, seq, kind)
    }

    /// Store `kind` in a free slab slot and push its key.
    fn insert(&mut self, at: Cycle, seq: u64, kind: EvKind) -> EvHandle {
        let at = at.max(self.now);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        let key = Key::pack(at, seq, slot);
        self.slots[slot as usize] = Some(SlabEntry {
            kind,
            seq,
            dead: false,
        });
        self.heap.push(Reverse(key));
        self.live += 1;
        EvHandle(key.0 as u64)
    }

    /// Cancel a scheduled event in O(1): the slab slot is marked dead and
    /// the heap entry is discarded lazily at pop (or swept by a
    /// compaction). Returns false if the handle no longer matches a live
    /// pending event (already popped, cancelled, or slot reused).
    pub fn cancel(&mut self, h: EvHandle) -> bool {
        if !self.decommit(h) {
            return false;
        }
        self.stats.cancelled += 1;
        if self.dead >= COMPACT_MIN_DEAD && self.dead > self.live {
            self.compact();
        }
        true
    }

    // ---- fast-path (event virtualization) support -------------------------
    //
    // The machine's quiescence fast path lifts pending completions out of
    // the heap into a tiny run queue, retires them inline, and puts any
    // survivors back on exit. Three invariants make that digest-safe:
    // sequence numbers come from the same global counter (`alloc_seq`), a
    // migrated event keeps its original `(at, seq)` key when restored, and
    // the clock advance (`advance_inline`) mirrors exactly what popping
    // the event would have done.

    /// Allocate the next global sequence number without scheduling an
    /// event. The fast path uses this so virtualized completions occupy
    /// the same positions in the total order that `schedule` would have
    /// given them.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// True if `h` still refers to a live pending event.
    pub fn is_live(&self, h: EvHandle) -> bool {
        matches!(self.slots.get(h.slot() as usize),
                 Some(Some(e)) if e.seq == h.seq() && !e.dead)
    }

    /// Migrate a pending event out of the engine: the slab entry is
    /// marked dead (so the heap key is discarded when reached) but the
    /// event is *not* counted as cancelled — the caller either retires it
    /// inline or puts it back with [`Engine::restore`]. Returns false if
    /// the handle no longer matches a live event.
    pub fn decommit(&mut self, h: EvHandle) -> bool {
        match self.slots.get_mut(h.slot() as usize) {
            Some(Some(e)) if e.seq == h.seq() && !e.dead => {
                e.dead = true;
                self.live -= 1;
                self.dead += 1;
                true
            }
            _ => false,
        }
    }

    /// Re-insert a previously decommitted event with its *original*
    /// sequence number, so it reclaims the exact slot in the `(at, seq)`
    /// total order it held before migration. The dead twin left behind by
    /// [`Engine::decommit`] differs only in its slab slot and is skipped
    /// at pop, whichever of the two comes first.
    pub fn restore(&mut self, at: Cycle, seq: u64, kind: EvKind) -> EvHandle {
        debug_assert!(
            at >= self.now,
            "restoring into the past: {} < {}",
            at,
            self.now
        );
        self.insert(at, seq, kind)
    }

    /// Fast-path clock advance: jump to `at` exactly as popping an event
    /// there would have, counting the retired completion and the cycles
    /// that never touched the heap.
    pub fn advance_inline(&mut self, at: Cycle) {
        debug_assert!(at >= self.now);
        self.stats.fastforward_cycles += at.saturating_sub(self.now);
        self.stats.coalesced += 1;
        self.now = at;
    }

    /// Pop the heap's top key and settle its slab entry. Returns `None`
    /// if it was a cancelled (dead) entry, which is discarded and
    /// counted without advancing the clock.
    fn pop_top(&mut self) -> Option<Event> {
        let Reverse(k) = self.heap.pop().expect("caller checked the heap");
        let entry = self.slots[k.slot() as usize]
            .take()
            .expect("heap key must have a slab entry");
        self.free.push(k.slot());
        if entry.dead {
            self.dead -= 1;
            self.stats.stale_discarded += 1;
            return None;
        }
        self.live -= 1;
        let at = k.at();
        debug_assert!(at >= self.now);
        self.now = at;
        self.stats.processed += 1;
        Some(Event {
            at,
            seq: k.seq(),
            kind: entry.kind,
        })
    }

    /// Pop the next event, advancing the clock. Returns `None` when no
    /// live events are pending. Cancelled events are skipped silently
    /// and do not advance the clock.
    pub fn pop(&mut self) -> Option<Event> {
        while !self.heap.is_empty() {
            if let Some(ev) = self.pop_top() {
                return Some(ev);
            }
        }
        None
    }

    /// Pop the next event only if it fires at or before `bound`
    /// (clock-stop support: run the machine to an exact cycle). When
    /// nothing live remains in range, the clock parks at the boundary.
    pub fn pop_until(&mut self, bound: Cycle) -> Option<Event> {
        while self.heap.peek().is_some_and(|Reverse(k)| k.at() <= bound) {
            if let Some(ev) = self.pop_top() {
                return Some(ev);
            }
        }
        if self.now < bound {
            self.now = bound;
        }
        None
    }

    /// Pending live event count (cancelled-but-unswept events excluded).
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Drop every dead entry from the heap. Triggered when the dead
    /// fraction crosses the threshold in [`Engine::cancel`]; also
    /// callable directly.
    pub fn compact(&mut self) {
        self.stats.compactions += 1;
        let Engine {
            heap, slots, free, ..
        } = self;
        heap.retain(|Reverse(k)| {
            let slot = k.slot();
            let dead = slots[slot as usize]
                .as_ref()
                .map(|e| e.dead)
                .unwrap_or(true);
            if dead {
                slots[slot as usize] = None;
                free.push(slot);
            }
            !dead
        });
        self.dead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(e: &mut Engine) -> Vec<u64> {
        std::iter::from_fn(|| e.pop())
            .map(|ev| match ev.kind {
                EvKind::Kernel { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut e = Engine::new();
        e.schedule(30, EvKind::Kernel { node: 0, tag: 3 });
        e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.schedule(20, EvKind::Kernel { node: 0, tag: 2 });
        assert_eq!(tags(&mut e), vec![1, 2, 3]);
        assert_eq!(e.now(), 30);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e = Engine::new();
        for tag in 0..10 {
            e.schedule(100, EvKind::Kernel { node: 0, tag });
        }
        assert_eq!(tags(&mut e), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_bound() {
        let mut e = Engine::new();
        e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.schedule(50, EvKind::Kernel { node: 0, tag: 2 });
        assert!(e.pop_until(20).is_some());
        assert!(e.pop_until(20).is_none());
        // Clock parks at the bound, not at the next event.
        assert_eq!(e.now(), 20);
        assert_eq!(e.pending(), 1);
        assert!(e.pop_until(50).is_some());
        assert_eq!(e.now(), 50);
    }

    #[test]
    fn processed_counter() {
        let mut e = Engine::new();
        e.schedule(1, EvKind::Kernel { node: 0, tag: 0 });
        e.schedule(2, EvKind::Kernel { node: 0, tag: 0 });
        assert_eq!(e.processed(), 0);
        e.pop();
        e.pop();
        assert_eq!(e.processed(), 2);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn cancel_skips_event_and_counts() {
        let mut e = Engine::new();
        let h1 = e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.schedule(20, EvKind::Kernel { node: 0, tag: 2 });
        assert_eq!(e.pending(), 2);
        assert!(e.cancel(h1));
        assert!(!e.cancel(h1), "double cancel must fail");
        assert_eq!(e.pending(), 1);
        let ev = e.pop().unwrap();
        assert!(matches!(ev.kind, EvKind::Kernel { tag: 2, .. }));
        // The cancelled event neither advanced the clock to 10 first nor
        // counted as processed.
        assert_eq!(e.now(), 20);
        assert_eq!(e.processed(), 1);
        assert_eq!(e.stats().cancelled, 1);
        assert_eq!(e.stats().stale_discarded, 1);
        assert!(e.pop().is_none());
    }

    #[test]
    fn cancelled_head_does_not_block_pop_until() {
        let mut e = Engine::new();
        let h = e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.schedule(50, EvKind::Kernel { node: 0, tag: 2 });
        e.cancel(h);
        // Dead head at 10 is within bound; it must be discarded without
        // surfacing, and the live event at 50 stays for later.
        assert!(e.pop_until(20).is_none());
        assert_eq!(e.now(), 20);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.stats().stale_discarded, 1);
        assert_eq!(e.pop().unwrap().at, 50);
    }

    #[test]
    fn handle_does_not_cancel_reused_slot() {
        let mut e = Engine::new();
        let h1 = e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        e.pop();
        // Slot is recycled for a new event; the stale handle must not
        // touch it.
        let h2 = e.schedule(20, EvKind::Kernel { node: 0, tag: 2 });
        assert!(!e.cancel(h1));
        assert_eq!(e.pending(), 1);
        assert!(e.cancel(h2));
        assert!(e.pop().is_none());
    }

    #[test]
    fn threshold_compaction_sweeps_dead_entries() {
        let mut e = Engine::new();
        let handles: Vec<EvHandle> = (0..200)
            .map(|i| e.schedule(i, EvKind::Kernel { node: 0, tag: i }))
            .collect();
        // Cancel from the back so the dead set exceeds the live set.
        for h in handles.iter().skip(60).rev() {
            e.cancel(*h);
        }
        assert!(e.stats().compactions >= 1, "threshold must trigger");
        assert_eq!(e.pending(), 60);
        let mut popped = 0;
        while let Some(ev) = e.pop() {
            assert!(matches!(ev.kind, EvKind::Kernel { tag, .. } if tag < 60));
            popped += 1;
        }
        assert_eq!(popped, 60);
        // Compaction swept the bulk of the dead entries wholesale; only
        // the ones cancelled after the sweep hit the lazy pop path.
        assert_eq!(e.stats().cancelled, 140);
        assert!(e.stats().stale_discarded < e.stats().cancelled / 2);
    }

    #[test]
    fn slab_reuses_slots() {
        let mut e = Engine::new();
        for round in 0..50u64 {
            e.schedule(
                round,
                EvKind::Kernel {
                    node: 0,
                    tag: round,
                },
            );
            e.pop();
        }
        // One slot in flight at a time: the slab must not grow past a
        // single entry.
        assert_eq!(e.slots.len(), 1);
    }

    #[test]
    fn fresh_engine_reserves_nothing() {
        let mut e = Engine::new();
        assert_eq!(e.resident_bytes(), 0);
        let h = e.schedule(5, EvKind::Kernel { node: 7, tag: 0 });
        assert!(e.is_live(h));
        assert!(e.resident_bytes() > 0);
        assert_eq!(e.pop().unwrap().at, 5);
    }

    #[test]
    fn decommit_then_restore_reclaims_total_order_slot() {
        // A migrated event put back with its original seq pops exactly
        // where it would have without the round trip — including against
        // a same-cycle rival scheduled later (higher seq).
        let mut e = Engine::new();
        e.schedule(10, EvKind::Kernel { node: 0, tag: 1 });
        let h = e.schedule(20, EvKind::Kernel { node: 0, tag: 2 });
        e.schedule(20, EvKind::Kernel { node: 0, tag: 3 });
        let seq = h.seq();
        assert!(e.decommit(h));
        assert!(!e.is_live(h), "decommitted handle must read dead");
        assert!(!e.decommit(h), "double decommit must fail");
        assert_eq!(e.pending(), 2);
        let h2 = e.restore(20, seq, EvKind::Kernel { node: 0, tag: 2 });
        assert!(e.is_live(h2));
        assert_eq!(h2.seq(), seq);
        assert_eq!(e.pending(), 3);
        assert_eq!(tags(&mut e), vec![1, 2, 3]);
        // The dead twin was skipped silently: discarded, not cancelled.
        assert_eq!(e.stats().stale_discarded, 1);
        assert_eq!(e.stats().cancelled, 0);
        assert_eq!(e.stats().processed, 3);
    }

    #[test]
    fn decommitted_event_retired_inline_never_pops() {
        let mut e = Engine::new();
        let h = e.schedule(40, EvKind::Kernel { node: 0, tag: 7 });
        e.schedule(50, EvKind::Kernel { node: 0, tag: 8 });
        assert!(e.decommit(h));
        // Inline retirement: the clock jumps as if the event popped.
        e.advance_inline(40);
        assert_eq!(e.now(), 40);
        let ev = e.pop().expect("live rival still queued");
        assert_eq!(ev.at, 50);
        assert!(e.pop().is_none());
        assert_eq!(e.stats().coalesced, 1);
        assert_eq!(e.stats().fastforward_cycles, 40);
        assert_eq!(e.stats().stale_discarded, 1);
    }

    #[test]
    fn alloc_seq_shares_the_schedule_counter() {
        // Virtualized completions draw from the same counter as real
        // ones, so a later schedule always sorts after an earlier
        // alloc_seq at the same cycle.
        let mut e = Engine::new();
        let s0 = e.alloc_seq();
        let h = e.schedule(10, EvKind::Kernel { node: 0, tag: 0 });
        assert_eq!(h.seq(), s0 + 1);
        assert!(e.alloc_seq() > h.seq());
        // And restoring at the reserved seq beats the scheduled rival.
        e.restore(10, s0, EvKind::Kernel { node: 0, tag: 99 });
        let first = e.pop().unwrap();
        assert!(matches!(first.kind, EvKind::Kernel { tag: 99, .. }));
    }

    /// Pop every remaining live event of `e` and of the reference model
    /// (sorted by `(at, seq)`) up to `bound`, checking they agree.
    fn pop_and_check(e: &mut Engine, model: &mut Vec<(Cycle, u64, u64)>, bound: Cycle) {
        model.sort_unstable();
        let due = model.iter().take_while(|m| m.0 <= bound).count();
        for want in model.drain(..due) {
            let ev = e.pop_until(bound).expect("model has a due event");
            let EvKind::Kernel { tag, .. } = ev.kind else {
                unreachable!()
            };
            assert_eq!((ev.at, ev.seq, tag), want, "pop order diverged");
        }
        assert!(e.pop_until(bound).is_none(), "engine popped past the model");
        assert_eq!(e.now(), bound.max(e.now()));
    }

    #[test]
    fn seeded_mix_pops_in_reference_order() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xe4e7);
        let mut e = Engine::new();
        // Live events as (at, seq, tag); handles alongside for cancel,
        // decommit and restore.
        let mut model: Vec<(Cycle, u64, u64)> = Vec::new();
        let mut handles: Vec<(EvHandle, Cycle, u64)> = Vec::new();
        let mut tag = 0u64;
        for round in 0..400 {
            for _ in 0..rng.gen_range(1..40u32) {
                let at = e.now() + rng.gen_range(0..50u64);
                let h = e.schedule(at, EvKind::Kernel { node: 0, tag });
                model.push((at, h.seq(), tag));
                handles.push((h, at, tag));
                tag += 1;
            }
            for _ in 0..rng.gen_range(0..8u32) {
                let i = rng.gen_range(0..handles.len());
                let (h, at, t) = handles.swap_remove(i);
                if !e.is_live(h) {
                    continue;
                }
                if rng.gen_range(0..2u32) == 0 {
                    assert!(e.cancel(h));
                    model.retain(|m| m.1 != h.seq());
                } else {
                    // Newer same-cycle events land between the decommit
                    // and the restore of the older `seq`.
                    assert!(e.decommit(h));
                    for _ in 0..rng.gen_range(0..3u32) {
                        let nh = e.schedule(at, EvKind::Kernel { node: 0, tag });
                        model.push((at, nh.seq(), tag));
                        handles.push((nh, at, tag));
                        tag += 1;
                    }
                    let rh = e.restore(at, h.seq(), EvKind::Kernel { node: 0, tag: t });
                    assert_eq!(rh.seq(), h.seq());
                    handles.push((rh, at, t));
                }
            }
            if round % 100 == 99 {
                // A cancel storm: the dead entries outgrow the live ones
                // and the heap is compacted under the pending keys.
                for (h, ..) in handles.drain(..) {
                    if e.cancel(h) {
                        model.retain(|m| m.1 != h.seq());
                    }
                }
            }
            assert_eq!(e.pending(), model.len());
            let bound = e.now() + rng.gen_range(0..30u64);
            pop_and_check(&mut e, &mut model, bound);
            handles.retain(|(h, ..)| e.is_live(*h));
        }
        pop_and_check(&mut e, &mut model, Cycle::MAX);
        assert_eq!(e.pending(), 0);
        let stats = e.stats();
        assert!(stats.cancelled > 0 && stats.stale_discarded > 0 && stats.compactions > 0);
    }

    #[test]
    #[should_panic(expected = "SEQ_LIMIT (2^40)")]
    fn seq_past_its_width_panics() {
        let mut e = Engine::new();
        e.seq = SEQ_LIMIT;
        e.schedule(1, EvKind::Kernel { node: 0, tag: 0 });
    }

    #[test]
    #[should_panic(expected = "SLOT_LIMIT (2^24)")]
    fn slot_past_its_width_panics() {
        // 2^24 live events would take a gigabyte; hand the insert a slot
        // number past the limit through the free list instead.
        let mut e = Engine::new();
        e.free.push(SLOT_LIMIT);
        e.schedule(1, EvKind::Kernel { node: 0, tag: 0 });
    }

    #[test]
    fn key_orders_by_cycle_then_seq() {
        let k = Key::pack(7, SEQ_LIMIT - 1, SLOT_LIMIT - 1);
        assert_eq!(
            (k.at(), k.seq(), k.slot()),
            (7, SEQ_LIMIT - 1, SLOT_LIMIT - 1)
        );
        assert!(Key::pack(7, 5, SLOT_LIMIT - 1) < Key::pack(7, 6, 0));
        assert!(Key::pack(7, SEQ_LIMIT - 1, 9) < Key::pack(8, 0, 0));
        assert_eq!(std::mem::size_of::<Reverse<Key>>(), 16);
    }

    #[test]
    fn advance_inline_matches_pop_accounting() {
        // Same clock position whether an event pops or fast-forwards.
        let mut popped = Engine::new();
        popped.schedule(100, EvKind::Kernel { node: 0, tag: 0 });
        popped.pop();
        let mut inline = Engine::new();
        let h = inline.schedule(100, EvKind::Kernel { node: 0, tag: 0 });
        inline.decommit(h);
        inline.advance_inline(100);
        assert_eq!(inline.now(), popped.now());
    }
}
