//! Thread table entries.

use std::collections::VecDeque;

use sysabi::{CoreId, NodeId, ProcId, Rank, Sig, SysRet, Tid};

use crate::cycles::Cycle;
use crate::machine::Workload;

/// Why a thread is blocked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockKind {
    /// Waiting on a futex word.
    Futex,
    /// Waiting for a function-shipped I/O reply (or local I/O service).
    Io,
    /// Waiting for a matching message.
    Recv,
    /// Waiting inside a collective.
    Coll,
    /// Waiting for remote completion of a one-sided op.
    Rma,
    /// Kernel-internal wait.
    Other,
}

/// Scheduling state of a thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadState {
    /// Created, never dispatched.
    Idle,
    /// Runnable, not on a core.
    Ready,
    /// On a core executing an op that completes at `until` (unless
    /// stretched by noise; `gen` invalidates stale completion events).
    Running {
        gen: u32,
        until: Cycle,
        started: Cycle,
    },
    Blocked(BlockKind),
    Exited,
}

impl ThreadState {
    pub fn is_blocked(&self) -> bool {
        matches!(self, ThreadState::Blocked(_))
    }

    pub fn is_live(&self) -> bool {
        !matches!(self, ThreadState::Exited)
    }
}

/// Completion info of a receive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecvInfo {
    pub from: Rank,
    pub bytes: u64,
    pub tag: u32,
}

/// A software thread.
///
/// The fields the op-completion path touches (completion event → next
/// op → schedule) come first; identity and exit status follow, and the
/// whole record fits two cache lines. `align(64)` starts every record
/// of the thread table on a line boundary, so at rack scale an event
/// touches at most two lines of its thread. What the workload collects at op
/// boundaries (results, receive info, signals) lives in the [`Inbox`]
/// column beside the table.
#[repr(C, align(64))]
pub struct Thread {
    pub state: ThreadState,
    /// Handle of the in-flight `OpDone` event for the current run
    /// generation, if any. Reschedule/preempt/kill paths cancel it in
    /// O(1) instead of leaving a stale event to be popped and discarded;
    /// the generation check stays as a backstop.
    pub pending_done: Option<crate::engine::EvHandle>,
    /// Remaining cycles of a preempted compute op.
    pub resume_cycles: Option<u64>,
    pub workload: Option<Box<dyn Workload>>,
    pub node: NodeId,
    /// Fixed hardware-core affinity (CNK pins; FWK also pins in our model
    /// to isolate noise effects, matching the paper's tuned-Linux setup).
    pub core: CoreId,
    /// Monotonic run-generation counter (invalidates stale completions).
    pub gen_ctr: u32,
    /// Whether the current op may be preempted mid-flight.
    pub preemptible: bool,
    pub tid: Tid,
    pub proc: ProcId,
    /// MPI rank (main threads only).
    pub rank: Option<Rank>,
    pub exit_code: Option<i32>,
}

/// What a thread's workload picks up at its next op boundary. One per
/// thread, in a column beside the thread table (`SimCore::inbox_mut`),
/// so the bulky, rarely set fields stay off the completion path.
#[derive(Debug, Default)]
pub struct Inbox {
    /// Result of the last completed op, consumed by the workload.
    pub pending_ret: Option<SysRet>,
    pub pending_recv: Option<RecvInfo>,
    pub sig_queue: VecDeque<Sig>,
}

impl Thread {
    pub fn new(
        tid: Tid,
        proc: ProcId,
        node: NodeId,
        core: CoreId,
        workload: Box<dyn Workload>,
    ) -> Thread {
        Thread {
            state: ThreadState::Idle,
            pending_done: None,
            resume_cycles: None,
            workload: Some(workload),
            node,
            core,
            gen_ctr: 0,
            preemptible: false,
            tid,
            proc,
            rank: None,
            exit_code: None,
        }
    }

    /// Allocate a fresh run generation (stale completion events carry an
    /// older generation and are ignored).
    pub fn next_gen(&mut self) -> u32 {
        self.gen_ctr += 1;
        self.gen_ctr
    }
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("tid", &self.tid)
            .field("proc", &self.proc)
            .field("node", &self.node)
            .field("core", &self.core)
            .field("state", &self.state)
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::WlEnv;
    use crate::op::Op;

    struct Nop;
    impl Workload for Nop {
        fn next(&mut self, _env: &mut WlEnv<'_>) -> Op {
            Op::End
        }
    }

    #[test]
    fn state_predicates() {
        assert!(ThreadState::Blocked(BlockKind::Futex).is_blocked());
        assert!(!ThreadState::Exited.is_live());
        assert!(ThreadState::Idle.is_live());
    }

    #[test]
    fn hot_fields_share_the_first_two_cache_lines() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<Thread>(), 64);
        assert_eq!(size_of::<Thread>(), 128, "two cache lines per thread");
        let ends = [
            offset_of!(Thread, state) + size_of::<ThreadState>(),
            offset_of!(Thread, pending_done) + 16,
            offset_of!(Thread, resume_cycles) + 16,
            offset_of!(Thread, workload) + 16,
            offset_of!(Thread, node) + 4,
            offset_of!(Thread, core) + 4,
            offset_of!(Thread, gen_ctr) + 4,
            offset_of!(Thread, preemptible) + 1,
            offset_of!(Thread, tid) + 4,
            offset_of!(Thread, proc) + 4,
            offset_of!(Thread, rank) + size_of::<Option<Rank>>(),
            offset_of!(Thread, exit_code) + size_of::<Option<i32>>(),
        ];
        assert!(ends.iter().all(|&end| end <= 128), "{ends:?}");
    }

    #[test]
    fn next_gen_is_monotonic() {
        let mut t = Thread::new(Tid(0), ProcId(0), NodeId(0), CoreId(0), Box::new(Nop));
        let g1 = t.next_gen();
        let g2 = t.next_gen();
        assert!(g2 > g1);
    }
}
