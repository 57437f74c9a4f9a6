//! The NPTL mechanics every kernel provides (§IV.B.1): futexes, signal
//! delivery, `sigaction`, `tgkill`, `set_tid_address` and the clear-tid
//! wake at thread exit.
//!
//! "For atomic operations, such as pthread_mutex, a full implementation
//! of futex was needed." Tables II and III set CNK and the Linux
//! baseline apart in policy, not in this ABI, so the mechanics live here
//! once. A kernel passes in only what differs:
//!
//! * its address translation, as a closure: CNK's static map, the
//!   FWK's demand-faulting page tables;
//! * its cycle costs and whether an unhandled SIGPARITY kills the
//!   process, as a [`PosixPolicy`].
//!
//! Futexes key on the *physical* address of the futex word, so
//! processes sharing memory share futexes (DUAL/VN mode). The value
//! check reads simulated DRAM, and a node's kernel is single-threaded,
//! so check-and-block is atomic with respect to wakes: the lost-wakeup
//! race NPTL relies on the kernel to close is closed the same way here.

use std::collections::{HashMap, VecDeque};

use sysabi::futex::FUTEX_BITSET_MATCH_ANY;
use sysabi::{Errno, FutexOp, NodeId, Sig, SigDisposition, SysReq, SysRet, Tid};

use crate::machine::{BlockKind, MemOpResult, SimCore, SyscallAction, ThreadState};
use crate::telemetry::Slot;
use crate::trace::TraceEvent;

/// One waiter parked on a futex word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Waiter {
    pub tid: Tid,
    pub bitset: u32,
}

/// A futex table (one per node; keys are physical addresses, so
/// processes sharing memory share futexes — which is how shared-memory
/// synchronization works in DUAL/VN mode).
#[derive(Clone, Debug, Default)]
pub struct FutexTable {
    queues: HashMap<u64, VecDeque<Waiter>>,
}

impl FutexTable {
    pub fn new() -> FutexTable {
        FutexTable::default()
    }

    /// Every parked tid across all queues, in queue order (invariant
    /// cross-checks: each must correspond to a futex-blocked thread).
    pub fn waiter_tids(&self) -> Vec<Tid> {
        let mut tids: Vec<Tid> = self
            .queues
            .values()
            .flat_map(|q| q.iter().map(|w| w.tid))
            .collect();
        tids.sort_unstable_by_key(|t| t.0);
        tids
    }

    /// Park `tid` on `key` with a wake mask.
    pub fn wait(&mut self, key: u64, tid: Tid, bitset: u32) {
        self.queues
            .entry(key)
            .or_default()
            .push_back(Waiter { tid, bitset });
    }

    /// Wake up to `count` waiters whose bitset intersects `mask`.
    /// Returns the tids woken, FIFO order.
    pub fn wake(&mut self, key: u64, count: u32, mask: u32) -> Vec<Tid> {
        let mut woken = Vec::new();
        if let Some(q) = self.queues.get_mut(&key) {
            let mut rest = VecDeque::new();
            while let Some(w) = q.pop_front() {
                if woken.len() < count as usize && (w.bitset & mask) != 0 {
                    woken.push(w.tid);
                } else {
                    rest.push_back(w);
                }
            }
            *q = rest;
            if q.is_empty() {
                self.queues.remove(&key);
            }
        }
        woken
    }

    /// Wake up to `wake` waiters and move up to `requeue` more to
    /// `target` (condition-variable broadcast without thundering herd).
    /// Returns (woken tids, requeued count).
    pub fn requeue(&mut self, key: u64, wake: u32, requeue: u32, target: u64) -> (Vec<Tid>, u32) {
        let woken = self.wake(key, wake, FUTEX_BITSET_MATCH_ANY);
        let mut moved = 0u32;
        if key != target {
            if let Some(q) = self.queues.get_mut(&key) {
                let mut to_move = Vec::new();
                while moved < requeue {
                    match q.pop_front() {
                        Some(w) => {
                            to_move.push(w);
                            moved += 1;
                        }
                        None => break,
                    }
                }
                if q.is_empty() {
                    self.queues.remove(&key);
                }
                self.queues.entry(target).or_default().extend(to_move);
            }
        }
        (woken, moved)
    }

    /// Remove a specific waiter (signal interruption / thread kill).
    /// Returns true if it was parked here.
    pub fn remove(&mut self, tid: Tid) -> bool {
        let mut found = false;
        self.queues.retain(|_, q| {
            let before = q.len();
            q.retain(|w| w.tid != tid);
            found |= q.len() != before;
            !q.is_empty()
        });
        found
    }

    /// Waiters parked on `key`.
    pub fn waiters(&self, key: u64) -> usize {
        self.queues.get(&key).map_or(0, |q| q.len())
    }

    /// Total parked waiters.
    pub fn total_waiters(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }
}

/// One process's signal dispositions and clear-tid addresses. Each
/// holds a handful of entries at most, so both are short lists scanned
/// linearly; a process that never calls `sigaction` or
/// `set_tid_address` allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct PosixProc {
    /// Dispositions set by `sigaction`; absent means default.
    sig: Vec<(Sig, SigDisposition)>,
    /// `set_tid_address` / CLONE_CHILD_CLEARTID registrations.
    clear_tid: Vec<(Tid, u64)>,
}

impl PosixProc {
    /// Effective disposition of a signal.
    pub fn disposition(&self, sig: Sig) -> SigDisposition {
        self.sig
            .iter()
            .find(|(s, _)| *s == sig)
            .map_or_else(SigDisposition::default, |&(_, d)| d)
    }

    fn set_disposition(&mut self, sig: Sig, d: SigDisposition) {
        match self.sig.iter_mut().find(|(s, _)| *s == sig) {
            Some(e) => e.1 = d,
            None => self.sig.push((sig, d)),
        }
    }

    /// Register (or replace) `tid`'s clear-tid address.
    pub fn set_clear_tid(&mut self, tid: Tid, addr: u64) {
        match self.clear_tid.iter_mut().find(|(t, _)| *t == tid) {
            Some(e) => e.1 = addr,
            None => self.clear_tid.push((tid, addr)),
        }
    }

    /// Forget `tid`'s clear-tid registration, returning its address.
    pub fn take_clear_tid(&mut self, tid: Tid) -> Option<u64> {
        let i = self.clear_tid.iter().position(|(t, _)| *t == tid)?;
        Some(self.clear_tid.swap_remove(i).1)
    }

    /// Heap bytes the two lists hold.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sig.capacity() * size_of::<(Sig, SigDisposition)>()
            + self.clear_tid.capacity() * size_of::<(Tid, u64)>()
    }
}

/// What a kernel passes in: the cycle costs of the shared calls, and
/// its machine-check rule.
#[derive(Clone, Copy, Debug)]
pub struct PosixPolicy {
    /// Trap entry and exit; every call pays it.
    pub base: u64,
    /// Added to `base` by every futex op past the address check.
    pub futex: u64,
    /// Added to `base` when the futex word is unmapped (EFAULT).
    pub efault: u64,
    /// Added to `base` by a valid `sigaction`.
    pub sigaction: u64,
    /// Added to `base` by a `tgkill` that finds its target.
    pub tgkill: u64,
    /// Cost of an access that raises SIGSEGV.
    pub segv: u64,
    /// Whether a SIGPARITY with the default disposition kills the
    /// process. CNK's checkpoint/restart world says yes (§V.B); Linux
    /// ignores the signal.
    pub parity_kills: bool,
}

/// The per-node futex tables and the kernel's [`PosixPolicy`].
///
/// A node's table materializes on first touch, so an idle node on a
/// 100k-node rack costs no heap here.
pub struct Posix {
    policy: PosixPolicy,
    /// Indexed sparsely: a short vec means the tail nodes have never
    /// parked a waiter.
    futexes: Vec<FutexTable>,
}

/// A syscall that completes after `cost` cycles with `ret`.
pub fn done(ret: SysRet, cost: u64) -> SyscallAction {
    SyscallAction::Done { ret, cost }
}

/// A syscall that fails with `e` after `cost` cycles.
pub fn err(e: Errno, cost: u64) -> SyscallAction {
    done(SysRet::Err(e), cost)
}

impl Posix {
    pub fn new(policy: PosixPolicy) -> Posix {
        Posix {
            policy,
            futexes: Vec::new(),
        }
    }

    /// Drop every futex table (boot, reset, and a new job's launch).
    pub fn reset(&mut self) {
        self.futexes.clear();
    }

    /// The node's futex table, materialized on first touch.
    fn table(&mut self, node: NodeId) -> &mut FutexTable {
        if self.futexes.len() <= node.idx() {
            self.futexes.resize_with(node.idx() + 1, FutexTable::new);
        }
        &mut self.futexes[node.idx()]
    }

    /// Service `futex`, `sigaction`, `tgkill` or `set_tid_address` for
    /// `tid`, whose process record is `proc` (`None` once the process
    /// is gone) and whose virtual addresses `translate` maps to physical
    /// ones. `None` for any other request: the kernel services it.
    pub fn syscall(
        &mut self,
        sc: &mut SimCore,
        tid: Tid,
        req: &SysReq,
        proc: Option<&mut PosixProc>,
        translate: impl FnMut(u64) -> Option<u64>,
    ) -> Option<SyscallAction> {
        let c = self.policy;
        Some(match req {
            SysReq::Futex { uaddr, op } => match proc {
                Some(_) => self.futex(sc, tid, *uaddr, *op, translate),
                None => err(Errno::ESRCH, c.base),
            },
            SysReq::SetTidAddress { addr } => {
                if let Some(p) = proc {
                    p.set_clear_tid(tid, *addr);
                }
                done(SysRet::Val(tid.0 as i64), c.base)
            }
            SysReq::Sigaction { sig, disposition } => {
                if !sig.catchable() && !matches!(disposition, SigDisposition::Default) {
                    return Some(err(Errno::EINVAL, c.base));
                }
                if let Some(p) = proc {
                    p.set_disposition(*sig, *disposition);
                }
                done(SysRet::Val(0), c.base + c.sigaction)
            }
            SysReq::Tgkill { tid: target, sig } => {
                let target = Tid(*target);
                if target.idx() >= sc.threads.len()
                    || sc.thread(target).proc != sc.thread(tid).proc
                    || !sc.thread(target).state.is_live()
                {
                    return Some(err(Errno::ESRCH, c.base));
                }
                // The target shares the caller's process, so `proc` is
                // its record too.
                self.post_signal(sc, target, *sig, proc.as_deref());
                done(SysRet::Val(0), c.base + c.tgkill)
            }
            _ => return None,
        })
    }

    /// The futex syscall, all six ops. `translate` runs on `uaddr`
    /// first and on a requeue target only after `CmpRequeue`'s value
    /// check, so a demand-faulting kernel allocates frames in that
    /// order.
    fn futex(
        &mut self,
        sc: &mut SimCore,
        tid: Tid,
        uaddr: u64,
        op: FutexOp,
        mut translate: impl FnMut(u64) -> Option<u64>,
    ) -> SyscallAction {
        let c = self.policy;
        let node = sc.thread(tid).node;
        let Some(pa) = translate(uaddr) else {
            return err(Errno::EFAULT, c.base + c.efault);
        };
        let ft = self.table(node);
        let cost = c.base + c.futex;
        match op {
            FutexOp::Wait { expected } | FutexOp::WaitBitset { expected, .. } => {
                let cur = sc.dram[node.idx()].read_u32(pa).unwrap_or(0);
                if cur != expected {
                    return err(Errno::EAGAIN, cost);
                }
                let bitset = match op {
                    FutexOp::WaitBitset { bitset, .. } => bitset,
                    _ => FUTEX_BITSET_MATCH_ANY,
                };
                ft.wait(pa, tid, bitset);
                let core = sc.thread(tid).core;
                sc.tel.count(sc.tel.ids.futex_waits, Slot::Core(core.0), 1);
                sc.trace_thread(tid, TraceEvent::FutexWait { tid: tid.0, uaddr });
                SyscallAction::Block {
                    kind: BlockKind::Futex,
                }
            }
            FutexOp::Wake { count } | FutexOp::WakeBitset { count, .. } => {
                let mask = match op {
                    FutexOp::WakeBitset { bitset, .. } => bitset,
                    _ => FUTEX_BITSET_MATCH_ANY,
                };
                let woken = ft.wake(pa, count, mask);
                let n = woken.len() as u64;
                for t in woken {
                    sc.defer_unblock(t, Some(SysRet::Val(0)));
                }
                let core = sc.thread(tid).core;
                sc.tel.count(sc.tel.ids.futex_wakes, Slot::Core(core.0), n);
                sc.trace_thread(tid, TraceEvent::FutexWake { uaddr, woken: n });
                done(SysRet::Val(n as i64), cost)
            }
            FutexOp::Requeue {
                wake,
                requeue,
                target_uaddr,
            }
            | FutexOp::CmpRequeue {
                wake,
                requeue,
                target_uaddr,
                ..
            } => {
                if let FutexOp::CmpRequeue { expected, .. } = op {
                    let cur = sc.dram[node.idx()].read_u32(pa).unwrap_or(0);
                    if cur != expected {
                        return err(Errno::EAGAIN, cost);
                    }
                }
                let Some(tpa) = translate(target_uaddr) else {
                    return err(Errno::EFAULT, cost);
                };
                let (woken, moved) = self.table(node).requeue(pa, wake, requeue, tpa);
                let total = woken.len() as i64 + moved as i64;
                for t in woken {
                    sc.defer_unblock(t, Some(SysRet::Val(0)));
                }
                done(SysRet::Val(total), cost)
            }
        }
    }

    /// Deliver `sig` to `tid` per its process's dispositions (`proc`;
    /// nothing happens once the process is gone). A handled signal
    /// interrupts a parked futex wait with EINTR, which NPTL
    /// cancellation depends on.
    pub fn post_signal(&mut self, sc: &mut SimCore, tid: Tid, sig: Sig, proc: Option<&PosixProc>) {
        let Some(p) = proc else {
            return;
        };
        match p.disposition(sig) {
            SigDisposition::Ignore => {}
            SigDisposition::Handler(_) => {
                let node = sc.thread(tid).node;
                if sc.thread(tid).state == ThreadState::Blocked(BlockKind::Futex)
                    && self
                        .futexes
                        .get_mut(node.idx())
                        .is_some_and(|f| f.remove(tid))
                {
                    sc.defer_unblock(tid, Some(SysRet::Err(Errno::EINTR)));
                }
                sc.post_signal(tid, sig);
            }
            SigDisposition::Default => {
                if sig.default_fatal() || (sig == Sig::Parity && self.policy.parity_kills) {
                    sc.defer_kill(sc.thread(tid).proc, 128 + sig as i32);
                }
            }
        }
    }

    /// An access by `tid` at `vaddr` faulted (`why`: "unmapped",
    /// "protection"): count and trace it, deliver SIGSEGV, and return
    /// the faulted op's result.
    pub fn segv(
        &mut self,
        sc: &mut SimCore,
        tid: Tid,
        vaddr: u64,
        why: &'static str,
        proc: Option<&PosixProc>,
    ) -> MemOpResult {
        let core = sc.thread(tid).core;
        sc.tel.count(sc.tel.ids.segv_faults, Slot::Core(core.0), 1);
        sc.trace_thread(
            tid,
            TraceEvent::Segv {
                tid: tid.0,
                vaddr,
                why,
            },
        );
        self.post_signal(sc, tid, Sig::Segv, proc);
        MemOpResult {
            cost: self.policy.segv,
            faulted: true,
        }
    }

    /// `tid` exited: unpark it, and if it registered a clear-tid word
    /// (now at physical `clear_tid`), zero the word and wake every
    /// waiter on it. That wake is what makes `pthread_join` return.
    pub fn exit_thread(&mut self, sc: &mut SimCore, tid: Tid, clear_tid: Option<u64>) {
        let node = sc.thread(tid).node;
        let mut table = self.futexes.get_mut(node.idx());
        if let Some(ft) = table.as_mut() {
            ft.remove(tid);
        }
        let Some(pa) = clear_tid else {
            return;
        };
        let _ = sc.dram[node.idx()].write_u32(pa, 0);
        let woken = table
            .map(|ft| ft.wake(pa, u32::MAX, u32::MAX))
            .unwrap_or_default();
        for t in woken {
            sc.defer_unblock(t, Some(SysRet::Val(0)));
        }
    }

    /// Futex wake accounting: the per-node tables and the thread states
    /// must agree exactly. Every parked waiter is a futex-blocked thread
    /// on that node, each parked once, and every futex-blocked thread is
    /// parked somewhere. One message per violation.
    pub fn check_invariants(&self, sc: &SimCore) -> Vec<String> {
        let mut v = Vec::new();
        let mut parked: HashMap<Tid, usize> = HashMap::new();
        for (node_idx, table) in self.futexes.iter().enumerate() {
            for tid in table.waiter_tids() {
                *parked.entry(tid).or_insert(0) += 1;
                match sc.threads.get(tid.idx()) {
                    None => v.push(format!(
                        "futex table node {node_idx}: waiter tid {} does not exist",
                        tid.0
                    )),
                    Some(t) => {
                        if t.node.idx() != node_idx {
                            v.push(format!(
                                "futex table node {node_idx}: waiter tid {} lives on node {}",
                                tid.0, t.node.0
                            ));
                        }
                        if t.state != ThreadState::Blocked(BlockKind::Futex) {
                            v.push(format!(
                                "futex waiter tid {} is not futex-blocked (state {:?})",
                                tid.0, t.state
                            ));
                        }
                    }
                }
            }
        }
        for (tid, n) in &parked {
            if *n > 1 {
                v.push(format!("tid {} parked on {n} futex queues", tid.0));
            }
        }
        for t in &sc.threads {
            if t.state == ThreadState::Blocked(BlockKind::Futex) && !parked.contains_key(&t.tid) {
                v.push(format!(
                    "tid {} is futex-blocked but parked in no futex table",
                    t.tid.0
                ));
            }
        }
        v
    }

    /// Heap bytes the futex-table column holds (the tables' own queues
    /// are not counted).
    pub fn resident_bytes(&self) -> usize {
        self.futexes.capacity() * std::mem::size_of::<FutexTable>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANY: u32 = FUTEX_BITSET_MATCH_ANY;

    #[test]
    fn wake_fifo_order() {
        let mut f = FutexTable::new();
        for i in 0..5 {
            f.wait(0x100, Tid(i), ANY);
        }
        assert_eq!(f.wake(0x100, 2, ANY), vec![Tid(0), Tid(1)]);
        assert_eq!(f.waiters(0x100), 3);
        assert_eq!(f.wake(0x100, 10, ANY), vec![Tid(2), Tid(3), Tid(4)]);
        assert_eq!(f.waiters(0x100), 0);
    }

    #[test]
    fn wake_respects_bitset() {
        let mut f = FutexTable::new();
        f.wait(0x100, Tid(0), 0b01);
        f.wait(0x100, Tid(1), 0b10);
        f.wait(0x100, Tid(2), 0b11);
        // Mask 0b10 skips tid 0.
        assert_eq!(f.wake(0x100, 10, 0b10), vec![Tid(1), Tid(2)]);
        assert_eq!(f.waiters(0x100), 1);
        // tid 0 still wakeable by matching mask.
        assert_eq!(f.wake(0x100, 1, ANY), vec![Tid(0)]);
    }

    #[test]
    fn different_keys_independent() {
        let mut f = FutexTable::new();
        f.wait(0x100, Tid(0), ANY);
        f.wait(0x200, Tid(1), ANY);
        assert_eq!(f.wake(0x100, 10, ANY), vec![Tid(0)]);
        assert_eq!(f.waiters(0x200), 1);
    }

    #[test]
    fn requeue_moves_waiters() {
        let mut f = FutexTable::new();
        // Condvar broadcast: 1 woken, rest requeued to the mutex.
        for i in 0..6 {
            f.wait(0xC0, Tid(i), ANY);
        }
        let (woken, moved) = f.requeue(0xC0, 1, u32::MAX, 0x40);
        assert_eq!(woken, vec![Tid(0)]);
        assert_eq!(moved, 5);
        assert_eq!(f.waiters(0xC0), 0);
        assert_eq!(f.waiters(0x40), 5);
        // Unlocking the mutex wakes them one at a time, FIFO.
        assert_eq!(f.wake(0x40, 1, ANY), vec![Tid(1)]);
    }

    #[test]
    fn requeue_to_same_key_only_wakes() {
        let mut f = FutexTable::new();
        f.wait(0x1, Tid(0), ANY);
        f.wait(0x1, Tid(1), ANY);
        let (woken, moved) = f.requeue(0x1, 1, u32::MAX, 0x1);
        assert_eq!(woken.len(), 1);
        assert_eq!(moved, 0);
        assert_eq!(f.waiters(0x1), 1);
    }

    #[test]
    fn remove_for_cancellation() {
        let mut f = FutexTable::new();
        f.wait(0x1, Tid(0), ANY);
        f.wait(0x1, Tid(1), ANY);
        assert!(f.remove(Tid(0)));
        assert!(!f.remove(Tid(0)));
        assert_eq!(f.wake(0x1, 10, ANY), vec![Tid(1)]);
        assert_eq!(f.total_waiters(), 0);
    }

    #[test]
    fn wake_empty_key_is_noop() {
        let mut f = FutexTable::new();
        assert_eq!(f.wake(0xdead, 10, ANY), Vec::<Tid>::new());
    }
}
