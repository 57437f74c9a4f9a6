//! `SimCore`: the mutable machine state handed to kernels and comm models.
//!
//! `SimCore` owns mechanics only — the event engine, thread table,
//! physical memory, TLBs/DACs, networks, trace, and telemetry. All
//! *policy* stays in the `Kernel`/`CommModel` implementations, which
//! receive `&mut SimCore` in their callbacks. Cross-component effects
//! (waking a thread, killing a process, dispatching onto a core) go
//! through deferral queues the executor drains after each event, which
//! keeps the borrow structure simple and the event order deterministic.

use std::collections::VecDeque;

use sysabi::{CoreId, NodeId, ProcId, Sig, SysRet, Tid};

use crate::barrier::BarrierNet;
use crate::chip;
use crate::collective::CollectiveNet;
use crate::config::MachineConfig;
use crate::cycles::Cycle;
use crate::engine::{Engine, EvHandle, EvKind};
use crate::idmap::IdMap;
use crate::machine::thread::{Inbox, Thread, ThreadState};
use crate::machine::Workload;
use crate::mem::PhysMem;
use crate::op::Op;
use crate::rng::{LazyStreams, RngHub};
use crate::telemetry::{Domain, Profiler, Slot, Telemetry};
use crate::torus::Torus;
use crate::trace::{Trace, TraceEvent, NO_CORE};

/// Which network fabric carries a message, and therefore who receives it:
/// torus traffic goes to the `CommModel`, collective traffic to the
/// `Kernel` (function shipping).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetDomain {
    Torus,
    Collective,
}

/// An in-flight network message.
#[derive(Clone, Debug)]
pub struct NetMsg {
    pub id: u64,
    pub src_node: NodeId,
    pub dst_node: NodeId,
    pub domain: NetDomain,
    /// Receiver-side demultiplexing tag (protocol-private).
    pub tag: u64,
    /// Modeled size (drives timing).
    pub bytes: u64,
    /// Marshaled payload, if the protocol carries real data
    /// (function-ship requests/replies do; timing-only messages don't).
    pub payload: Vec<u8>,
}

/// Extra per-message latency modeling the torus hardware's CRC-triggered
/// link-level retransmit (token resend + re-traverse).
pub const TORUS_RETRANSMIT: Cycle = 4_000;

/// One in-flight message plus its scheduled delivery, stored together in
/// the [`IdMap`] window (the two old side tables were always keyed by
/// the same ids).
#[derive(Debug)]
struct Inflight {
    msg: NetMsg,
    delivery: EvHandle,
    arrival: Cycle,
}

/// The threads of one process: inline while it has one (every rank at
/// launch), a vector once it spawns more.
#[derive(Clone, Debug, Default)]
enum ThreadList {
    #[default]
    Empty,
    One(Tid),
    Many(Vec<Tid>),
}

impl ThreadList {
    fn push(&mut self, tid: Tid) {
        *self = match std::mem::take(self) {
            ThreadList::Empty => ThreadList::One(tid),
            ThreadList::One(t) => ThreadList::Many(vec![t, tid]),
            ThreadList::Many(mut v) => {
                v.push(tid);
                ThreadList::Many(v)
            }
        };
    }

    fn as_slice(&self) -> &[Tid] {
        match self {
            ThreadList::Empty => &[],
            ThreadList::One(t) => std::slice::from_ref(t),
            ThreadList::Many(v) => v,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            ThreadList::Many(v) => v.capacity() * std::mem::size_of::<Tid>(),
            _ => 0,
        }
    }
}

/// An injected link outage: all traffic on `domain` touching `node` is
/// affected until cycle `until` (torus: delayed past the outage;
/// collective: lost).
#[derive(Clone, Copy, Debug)]
struct LinkOutage {
    node: NodeId,
    domain: NetDomain,
    until: Cycle,
}

pub struct SimCore {
    pub cfg: MachineConfig,
    pub engine: Engine,
    pub torus: Torus,
    pub coll: CollectiveNet,
    pub barrier: BarrierNet,
    pub trace: Trace,
    /// The telemetry subsystem (no-op unless `cfg.telemetry`).
    pub tel: Telemetry,
    /// The cycle-accounting profiler (always on;
    /// determinism-neutral by construction).
    pub prof: Profiler,
    pub hub: RngHub,
    pub threads: Vec<Thread>,
    /// Each thread's [`Inbox`], indexed like `threads`.
    pub(crate) inbox: Vec<Inbox>,
    /// Count of threads whose state is live, maintained at the two
    /// exit transitions so the per-event "all done?" check is O(1)
    /// instead of a scan over the (rack-scale) thread table.
    pub(crate) live_count: usize,
    /// Per-node DRAM.
    pub dram: Vec<PhysMem>,
    /// Per-global-core TLB.
    pub tlbs: Vec<crate::tlb::Tlb>,
    /// Per-global-core DAC register file.
    pub dacs: Vec<crate::dac::DacFile>,
    /// Per-global-core currently running thread. Written only through
    /// `dispatch` and `release_core`, which keep `busy_cores` in step;
    /// kernels read it with [`SimCore::running_on`].
    pub(crate) running: Vec<Option<Tid>>,
    /// Count of occupied `running` slots, maintained wherever a slot
    /// changes so the per-event "is anything running?" check is O(1)
    /// instead of a scan over every core of the rack (cross-checked
    /// against a recount in `check_invariants`).
    pub(crate) busy_cores: usize,
    /// Per-global-core "currently executing a memory-streaming op" flag
    /// (drives the L2 bank-conflict model, §III).
    pub streaming: Vec<bool>,
    /// Per-node DRAM-refresh jitter streams, materialized on first draw.
    jitter: LazyStreams,
    /// In-flight messages (payload + delivery event + arrival cycle) in
    /// a dense id-window: O(1) keyed access and ascending-id iteration,
    /// so fault injection walks traffic in send order with no sort.
    inflight: IdMap<Inflight>,
    /// Active injected link outages (empty unless faults fired; pruned
    /// lazily).
    outages: Vec<LinkOutage>,
    next_msg: u64,
    /// Threads of each process, indexed by `ProcId` (process ids are
    /// allocated sequentially by the kernels).
    proc_threads: Vec<ThreadList>,

    // Deferral queues drained by the executor, FIFO. `launch` queues
    // every rank's main thread before the first drain, and a rack-wide
    // collective can wake every rank at once, so they pop in O(1).
    pub(crate) dispatch_q: VecDeque<Tid>,
    pub(crate) unblock_q: VecDeque<(Tid, Option<SysRet>)>,
    pub(crate) kill_q: VecDeque<(ProcId, i32)>,
}

impl SimCore {
    pub fn new(cfg: MachineConfig) -> SimCore {
        // Invariant assert: front ends (CLI flag parsing, bgcheck's
        // script loader) validate user-supplied configs before machine
        // construction, so a failure here is a caller bug — surface the
        // validator's reason rather than a bare panic.
        if let Err(e) = cfg.validate() {
            panic!("invalid machine config: {e}");
        }
        let cores = cfg.total_cores() as usize;
        SimCore {
            engine: Engine::new(),
            torus: Torus::new(&cfg),
            coll: CollectiveNet::new(&cfg),
            barrier: BarrierNet::new(&cfg),
            trace: Trace::new(cfg.trace_events),
            tel: if cfg.telemetry {
                Telemetry::standard(cfg.nodes, cfg.chip.cores)
            } else {
                Telemetry::disabled()
            },
            prof: Profiler::standard(cfg.nodes),
            hub: RngHub::new(cfg.seed),
            threads: Vec::new(),
            inbox: Vec::new(),
            live_count: 0,
            dram: (0..cfg.nodes)
                .map(|_| PhysMem::new(cfg.chip.dram_bytes))
                .collect(),
            tlbs: (0..cores)
                .map(|_| crate::tlb::Tlb::new(cfg.chip.tlb_entries))
                .collect(),
            dacs: (0..cores)
                .map(|_| crate::dac::DacFile::new(cfg.chip.dac_pairs))
                .collect(),
            running: vec![None; cores],
            busy_cores: 0,
            streaming: vec![false; cores],
            jitter: LazyStreams::new("dram-refresh"),
            inflight: IdMap::new(),
            outages: Vec::new(),
            next_msg: 0,
            proc_threads: Vec::new(),
            dispatch_q: VecDeque::new(),
            unblock_q: VecDeque::new(),
            kill_q: VecDeque::new(),
            cfg,
        }
    }

    #[inline]
    pub fn now(&self) -> Cycle {
        self.engine.now()
    }

    pub fn cores_per_node(&self) -> u32 {
        self.cfg.chip.cores
    }

    /// Global core id for a (node, local core).
    pub fn core_of(&self, node: NodeId, local: u32) -> CoreId {
        CoreId::global(node, local, self.cfg.chip.cores)
    }

    pub fn node_of_core(&self, core: CoreId) -> NodeId {
        core.node(self.cfg.chip.cores)
    }

    // ---- thread lifecycle -------------------------------------------------

    /// Create a thread (kernel calls this from launch/spawn). The thread
    /// starts `Idle`; dispatch it to begin execution.
    pub fn create_thread(
        &mut self,
        proc: ProcId,
        node: NodeId,
        core: CoreId,
        workload: Box<dyn Workload>,
    ) -> Tid {
        let tid = Tid(self.threads.len() as u32);
        self.threads
            .push(Thread::new(tid, proc, node, core, workload));
        self.inbox.push(Inbox::default());
        self.live_count += 1;
        if self.proc_threads.len() <= proc.idx() {
            self.proc_threads
                .resize_with(proc.idx() + 1, ThreadList::default);
        }
        self.proc_threads[proc.idx()].push(tid);
        tid
    }

    pub fn thread(&self, tid: Tid) -> &Thread {
        &self.threads[tid.idx()]
    }

    /// Record `what` in the trace now, on `tid`'s node and core.
    pub fn trace_thread(&mut self, tid: Tid, what: TraceEvent) {
        let t = &self.threads[tid.idx()];
        let (node, core) = (t.node.0, t.core.0);
        self.trace.record(self.engine.now(), node, core, what);
    }

    /// What `tid`'s workload collects at its next op boundary.
    pub fn inbox_mut(&mut self, tid: Tid) -> &mut Inbox {
        &mut self.inbox[tid.idx()]
    }

    /// Make room for `n` more threads (a launch knows its rank count).
    pub fn reserve_threads(&mut self, n: usize) {
        self.threads.reserve(n);
        self.inbox.reserve(n);
    }

    /// Threads of a process.
    pub fn threads_of(&self, proc: ProcId) -> &[Tid] {
        self.proc_threads
            .get(proc.idx())
            .map_or(&[], ThreadList::as_slice)
    }

    /// Cores of `node` currently executing a streaming op.
    pub fn active_streams(&self, node: NodeId) -> u32 {
        let cpn = self.cfg.chip.cores;
        (0..cpn)
            .filter(|&c| self.streaming[CoreId::global(node, c, cpn).idx()])
            .count() as u32
    }

    /// Number of live (non-exited) threads. O(1): the executor keeps
    /// the count current across exit transitions (cross-checked against
    /// a full recount in `check_invariants`).
    pub fn live_threads(&self) -> usize {
        self.live_count
    }

    /// Is the hardware core currently idle?
    pub fn core_idle(&self, core: CoreId) -> bool {
        self.running[core.idx()].is_none()
    }

    /// The thread that holds `core`, if any.
    pub fn running_on(&self, core: CoreId) -> Option<Tid> {
        self.running[core.idx()]
    }

    /// Free `core`'s running slot, keeping `busy_cores` in step.
    pub(crate) fn release_core(&mut self, core: CoreId) {
        if self.running[core.idx()].take().is_some() {
            self.busy_cores -= 1;
        }
    }

    /// Claim a core for `tid` and queue it for execution. Panics if the
    /// core is busy — kernels must check `core_idle` first.
    pub fn dispatch(&mut self, tid: Tid) {
        let core = self.threads[tid.idx()].core;
        assert!(
            self.running[core.idx()].is_none(),
            "dispatch {tid} onto busy core {core}"
        );
        assert!(
            matches!(
                self.threads[tid.idx()].state,
                ThreadState::Idle | ThreadState::Ready
            ),
            "dispatch {tid} in state {:?}",
            self.threads[tid.idx()].state
        );
        self.running[core.idx()] = Some(tid);
        self.busy_cores += 1;
        self.dispatch_q.push_back(tid);
    }

    /// Queue a blocked thread to become Ready with result `ret`; the
    /// executor will inform the kernel (`on_unblock`).
    pub fn defer_unblock(&mut self, tid: Tid, ret: Option<SysRet>) {
        self.unblock_q.push_back((tid, ret));
    }

    /// Queue a whole-process kill (guard-page fault default action,
    /// exit_group, fatal signal).
    pub fn defer_kill(&mut self, proc: ProcId, code: i32) {
        self.kill_q.push_back((proc, code));
    }

    /// Post a signal for delivery at `tid`'s next op boundary.
    pub fn post_signal(&mut self, tid: Tid, sig: Sig) {
        self.inbox[tid.idx()].sig_queue.push_back(sig);
    }

    // ---- noise ------------------------------------------------------------

    /// Stretch whatever is running on `core` by `cycles` (a noise event:
    /// tick, daemon, interrupt). No effect on an idle core. Returns true
    /// if something was stretched.
    pub fn stretch_running(&mut self, core: CoreId, cycles: u64, tag: u64) -> bool {
        let Some(tid) = self.running[core.idx()] else {
            return false;
        };
        let t = &mut self.threads[tid.idx()];
        let ThreadState::Running { until, started, .. } = t.state else {
            return false;
        };
        t.gen_ctr += 1;
        let gen = t.gen_ctr;
        let new_until = until + cycles;
        t.state = ThreadState::Running {
            gen,
            until: new_until,
            started,
        };
        let old_done = t.pending_done.take();
        let node = self.node_of_core(core);
        self.trace.record(
            self.engine.now(),
            node.0,
            core.0,
            TraceEvent::Noise { tag, cycles },
        );
        self.tel
            .count(self.tel.ids.noise_events, Slot::Node(node.0), 1);
        self.tel
            .hist(self.tel.ids.noise_cycles, Slot::Core(core.0), cycles);
        self.prof.span(Domain::Sched, cycles);
        // The reschedule path: cancel the superseded completion in O(1)
        // (no payload clone, no stale event left in the queue) and
        // schedule the new one.
        if let Some(h) = old_done {
            if self.engine.cancel(h) {
                self.tel
                    .count(self.tel.ids.evq_cancelled, Slot::Node(node.0), 1);
            }
        }
        let h = self
            .engine
            .schedule(new_until, EvKind::OpDone { tid: tid.0, gen });
        self.threads[tid.idx()].pending_done = Some(h);
        true
    }

    /// Preempt the thread running on `core`, if it is mid-way through a
    /// preemptible op: its remaining cycles are saved and it goes back to
    /// Ready. Returns the preempted tid. Used by the FWK's timeslice
    /// scheduler; CNK never calls this (non-preemptive, §IV.B.1).
    pub fn preempt(&mut self, core: CoreId) -> Option<Tid> {
        let tid = self.running[core.idx()]?;
        let t = &mut self.threads[tid.idx()];
        let ThreadState::Running { until, .. } = t.state else {
            return None;
        };
        if !t.preemptible {
            return None;
        }
        let now = self.engine.now();
        let remaining = until.saturating_sub(now);
        t.resume_cycles = Some(remaining);
        // Any scheduled OpDone for the old generation becomes stale;
        // cancel it outright rather than leaving it to pop and discard.
        t.gen_ctr += 1;
        let old_done = t.pending_done.take();
        t.state = ThreadState::Ready;
        self.release_core(core);
        let node = self.node_of_core(core);
        if let Some(h) = old_done {
            if self.engine.cancel(h) {
                self.tel
                    .count(self.tel.ids.evq_cancelled, Slot::Node(node.0), 1);
            }
        }
        self.tel.count(self.tel.ids.preempts, Slot::Core(core.0), 1);
        self.trace.record(
            now,
            node.0,
            core.0,
            TraceEvent::Preempt {
                tid: tid.0,
                remaining,
            },
        );
        self.prof.span(Domain::Sched, 0);
        Some(tid)
    }

    /// One DRAM-refresh jitter draw for a node (the only CNK-visible
    /// noise; bounded < 0.006% of the FWQ quantum).
    pub fn refresh_jitter(&mut self, node: NodeId) -> u64 {
        let max = self.cfg.chip.dram_refresh_stall_max;
        let rng = self.jitter.get(&self.hub, node.idx());
        crate::rng::uniform_incl(rng, 0, max)
    }

    /// Cycles a compute-class op (`Op::is_compute`) takes on `tid`'s
    /// node. Every kernel runs on the same hardware, so this pricing is
    /// kernel-independent: the minimum FWQ sample is identical on CNK
    /// and Linux (§V.A), and what differs is the noise that stretches
    /// ops later.
    pub fn compute_cycles(&mut self, tid: Tid, op: &Op) -> u64 {
        let node = self.threads[tid.idx()].node;
        let hw = &self.cfg.chip;
        match *op {
            Op::Compute { cycles } => cycles,
            Op::Daxpy { n, reps } => chip::daxpy_cycles(hw, n, reps) + self.refresh_jitter(node),
            Op::Stream { bytes } => {
                // Concurrent streams on the node contend in the L2 banks
                // (§III); this core's own stream counts itself.
                let streams = self.active_streams(node).max(1);
                chip::stream_cycles(hw, bytes, streams) + self.refresh_jitter(node)
            }
            Op::Flops { flops } => chip::dgemm_cycles(hw, flops) + self.refresh_jitter(node),
            _ => 1,
        }
    }

    // ---- kernel event scheduling -------------------------------------------

    /// Schedule a kernel-private event on `node` at absolute cycle `at`.
    /// The handle supports O(1) cancellation when the kernel supersedes
    /// the event (e.g. a timeslice re-arm) instead of letting it fire
    /// stale.
    pub fn schedule_kernel_event(
        &mut self,
        node: NodeId,
        tag: u64,
        at: Cycle,
    ) -> crate::engine::EvHandle {
        self.engine
            .schedule(at, EvKind::Kernel { node: node.0, tag })
    }

    pub fn schedule_kernel_event_in(
        &mut self,
        node: NodeId,
        tag: u64,
        delta: Cycle,
    ) -> crate::engine::EvHandle {
        let at = self.engine.now() + delta;
        self.engine
            .schedule(at, EvKind::Kernel { node: node.0, tag })
    }

    /// Cancel a kernel-private event scheduled earlier; true if it was
    /// still pending.
    pub fn cancel_kernel_event(&mut self, h: crate::engine::EvHandle) -> bool {
        self.engine.cancel(h)
    }

    /// Send an IPI to a core, arriving after the interconnect delay.
    pub fn send_ipi(&mut self, core: CoreId, kind: u32) {
        // On-chip IPI latency: a handful of cycles.
        let at = self.engine.now() + 12;
        self.engine.schedule(at, EvKind::Ipi { core: core.0, kind });
    }

    // ---- networks ----------------------------------------------------------

    fn enqueue_msg(&mut self, msg: NetMsg, arrival: Cycle) {
        self.trace.record(
            self.engine.now(),
            msg.src_node.0,
            NO_CORE,
            TraceEvent::MsgSend {
                dst: msg.dst_node.0,
                bytes: msg.bytes,
                tag: msg.tag,
            },
        );
        let id = msg.id;
        self.prof.msg_enqueued(msg.src_node.0, msg.dst_node.0);
        let h = self
            .engine
            .schedule(arrival, EvKind::NetDeliver { msg_id: id });
        self.inflight.insert(
            id,
            Inflight {
                msg,
                delivery: h,
                arrival,
            },
        );
    }

    fn next_msg_id(&mut self) -> u64 {
        let id = self.next_msg;
        self.next_msg += 1;
        id
    }

    /// Inject a torus message; it will be delivered to the `CommModel`
    /// after the hardware transfer time plus `extra_delay`.
    pub fn torus_send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
        payload: Vec<u8>,
        extra_delay: Cycle,
    ) -> u64 {
        assert!(
            self.cfg.chip.torus_unit.usable(),
            "torus traffic on a chip without a torus unit"
        );
        let hops = self.torus.hops(src, dst);
        let xfer = self.torus.transfer_cycles(bytes, hops);
        let id = self.next_msg_id();
        self.prof.span(Domain::Torus, xfer);
        self.tel
            .count(self.tel.ids.torus_sends, Slot::Node(src.0), 1);
        self.tel.count(
            self.tel.ids.batched_packets,
            Slot::Machine,
            self.torus.packets(bytes).saturating_sub(1),
        );
        let mut arrival = self.engine.now() + xfer + extra_delay;
        // An active injected outage on either endpoint: the hardware CRC
        // catches the mangled packets and the link-level retry redelivers
        // once the outage lifts — delayed, never lost.
        if let Some(end) = self.outage_end(src, dst, NetDomain::Torus) {
            arrival = arrival.max(end) + TORUS_RETRANSMIT;
            self.tel
                .count(self.tel.ids.torus_dropped_pkts, Slot::Node(src.0), 1);
        }
        self.enqueue_msg(
            NetMsg {
                id,
                src_node: src,
                dst_node: dst,
                domain: NetDomain::Torus,
                tag,
                bytes,
                payload,
            },
            arrival,
        );
        id
    }

    /// Send a collective-network message between a compute node and its
    /// I/O node (either direction). Delivered to the `Kernel`.
    pub fn coll_send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
        payload: Vec<u8>,
        extra_delay: Cycle,
    ) -> u64 {
        assert!(
            self.cfg.chip.collective_unit.usable(),
            "collective traffic on a chip without a collective unit"
        );
        let xfer = self.coll.cn_ion_cycles(src, bytes);
        let id = self.next_msg_id();
        self.prof.span(Domain::Collective, xfer);
        self.tel
            .count(self.tel.ids.coll_sends, Slot::Node(src.0), 1);
        self.tel.count(
            self.tel.ids.batched_packets,
            Slot::Machine,
            crate::collective::packets(bytes).saturating_sub(1),
        );
        let arrival = self.engine.now() + xfer + extra_delay;
        // An active injected outage on either endpoint: the collective
        // link has no hardware retry toward the I/O node, so the message
        // is genuinely lost. Recovery is the kernel's software retry.
        if let Some(_end) = self.outage_end(src, dst, NetDomain::Collective) {
            self.trace.record(
                self.engine.now(),
                src.0,
                NO_CORE,
                TraceEvent::MsgSend {
                    dst: dst.0,
                    bytes,
                    tag,
                },
            );
            self.tel
                .count(self.tel.ids.coll_dropped_pkts, Slot::Node(src.0), 1);
            return id;
        }
        self.enqueue_msg(
            NetMsg {
                id,
                src_node: src,
                dst_node: dst,
                domain: NetDomain::Collective,
                tag,
                bytes,
                payload,
            },
            arrival,
        );
        id
    }

    pub(crate) fn take_msg(&mut self, id: u64) -> Option<NetMsg> {
        let m = self.inflight.remove(id).map(|e| e.msg);
        if let Some(m) = &m {
            self.prof.msg_retired(m.dst_node.0);
        }
        m
    }

    // ---- fault injection ---------------------------------------------------

    /// End cycle of an active outage covering a link between `a` and `b`
    /// on `domain`, if any. Lazily prunes expired outages.
    fn outage_end(&mut self, a: NodeId, b: NodeId, domain: NetDomain) -> Option<Cycle> {
        if self.outages.is_empty() {
            return None;
        }
        let now = self.engine.now();
        self.outages.retain(|o| o.until > now);
        self.outages
            .iter()
            .filter(|o| o.domain == domain && (o.node == a || o.node == b))
            .map(|o| o.until)
            .max()
    }

    /// Ids of in-flight messages on `domain` touching `node`, in
    /// ascending-id (= send) order. The dense id-window iterates in that
    /// order natively, so no sort is needed to keep fault injection
    /// deterministic.
    pub fn inflight_ids(&self, node: NodeId, domain: NetDomain) -> Vec<u64> {
        self.inflight
            .iter()
            .filter(|(_, e)| {
                e.msg.domain == domain && (e.msg.src_node == node || e.msg.dst_node == node)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Mutable access to an in-flight message's contents (fault paths:
    /// payload corruption, short-write truncation).
    pub fn inflight_msg_mut(&mut self, id: u64) -> Option<&mut NetMsg> {
        self.inflight.get_mut(id).map(|e| &mut e.msg)
    }

    /// Cancel an in-flight message's delivery and reschedule it at `at`.
    /// Returns false if the message is no longer in flight.
    pub fn redeliver_at(&mut self, id: u64, at: Cycle) -> bool {
        let Some(e) = self.inflight.get(id) else {
            return false;
        };
        if !self.engine.cancel(e.delivery) {
            return false;
        }
        let nh = self.engine.schedule(at, EvKind::NetDeliver { msg_id: id });
        if let Some(e) = self.inflight.get_mut(id) {
            e.delivery = nh;
            e.arrival = at;
        }
        true
    }

    /// Drop an in-flight message outright: cancel its delivery and forget
    /// the payload. Returns false if it already arrived.
    pub fn drop_inflight(&mut self, id: u64) -> bool {
        let Some(e) = self.inflight.remove(id) else {
            return false;
        };
        self.engine.cancel(e.delivery);
        self.prof.msg_retired(e.msg.dst_node.0);
        true
    }

    /// Inject a link outage on `node`'s `domain` links for `window`
    /// cycles. Torus traffic already on the wire bounces to after the
    /// outage (CRC retry); collective traffic on the wire is lost.
    pub fn fault_link_outage(&mut self, node: NodeId, domain: NetDomain, window: Cycle) {
        let now = self.engine.now();
        let until = now + window;
        self.prof.span(Domain::FaultRas, window);
        self.outages.push(LinkOutage {
            node,
            domain,
            until,
        });
        for id in self.inflight_ids(node, domain) {
            match domain {
                NetDomain::Torus => {
                    let arrival = self.inflight.get(id).map_or(now, |e| e.arrival);
                    if self.redeliver_at(id, arrival.max(until) + TORUS_RETRANSMIT) {
                        self.tel
                            .count(self.tel.ids.torus_dropped_pkts, Slot::Node(node.0), 1);
                    }
                }
                NetDomain::Collective => {
                    if self.drop_inflight(id) {
                        self.tel
                            .count(self.tel.ids.coll_dropped_pkts, Slot::Node(node.0), 1);
                    }
                }
            }
        }
    }

    /// Delay every in-flight message on `domain` touching `node` by
    /// `extra` cycles. Returns how many were affected.
    pub fn fault_delay_inflight(&mut self, node: NodeId, domain: NetDomain, extra: Cycle) -> u64 {
        self.prof.span(Domain::FaultRas, extra);
        let mut n = 0;
        for id in self.inflight_ids(node, domain) {
            let Some(arrival) = self.inflight.get(id).map(|e| e.arrival) else {
                continue;
            };
            if self.redeliver_at(id, arrival + extra) {
                n += 1;
            }
        }
        n
    }

    /// Corrupt in-flight traffic on `domain` touching `node`. Torus: the
    /// CRC catches it, so the message bounces by one retransmit (never
    /// lost). Collective: payload bytes past the 4-byte routing prefix
    /// are XOR-mangled, so the receiver's decode fails and its own error
    /// path runs. Returns how many messages were hit.
    pub fn fault_corrupt_inflight(&mut self, node: NodeId, domain: NetDomain) -> u64 {
        self.prof.span(Domain::FaultRas, 0);
        let mut n = 0;
        for id in self.inflight_ids(node, domain) {
            match domain {
                NetDomain::Torus => {
                    let Some(arrival) = self.inflight.get(id).map(|e| e.arrival) else {
                        continue;
                    };
                    if self.redeliver_at(id, arrival + TORUS_RETRANSMIT) {
                        self.tel
                            .count(self.tel.ids.torus_dropped_pkts, Slot::Node(node.0), 1);
                        n += 1;
                    }
                }
                NetDomain::Collective => {
                    if let Some(m) = self.inflight.get_mut(id).map(|e| &mut e.msg) {
                        for b in m.payload.iter_mut().skip(4) {
                            *b ^= 0xA5;
                        }
                        n += 1;
                    }
                }
            }
        }
        n
    }

    /// Schedule a collective-completion wakeup for a blocked participant.
    pub fn schedule_coll_done(&mut self, tid: Tid, coll: u64, at: Cycle) {
        self.engine
            .schedule(at, EvKind::CollDone { tid: tid.0, coll });
    }

    // ---- scan support ------------------------------------------------------

    /// Snapshot the named probe signals (§III logic scan).
    pub fn probe_signals(&self) -> Vec<(String, u64)> {
        let mut v = Vec::new();
        for (i, r) in self.running.iter().enumerate() {
            v.push((
                format!("core{i}.running_tid"),
                r.map_or(u64::MAX, |t| t.0 as u64),
            ));
        }
        for (i, t) in self.threads.iter().enumerate() {
            let s = match t.state {
                ThreadState::Idle => 0,
                ThreadState::Ready => 1,
                ThreadState::Running { .. } => 2,
                ThreadState::Blocked(_) => 3,
                ThreadState::Exited => 4,
            };
            v.push((format!("thread{i}.state"), s));
        }
        v.push(("net.inflight".to_string(), self.inflight.len() as u64));
        v.push(("events.processed".to_string(), self.engine.processed()));
        v
    }

    // ---- memory accounting -------------------------------------------------

    /// Approximate heap bytes resident in the simulator core: engine
    /// queues and slab, per-node DRAM granules, per-core TLB/DAC arrays,
    /// thread table, deferral queues, in-flight messages, RNG columns,
    /// and the profiler's per-node in-flight counters. An estimate
    /// (container capacities, not allocator metadata), but it moves with
    /// the layout — which is what the scale benchmarks need to compare
    /// layouts honestly.
    pub fn resident_bytes_estimate(&self) -> usize {
        let spine = |cap: usize, elem: usize| cap * elem;
        let mut total = self.engine.resident_bytes();
        total += spine(self.dram.capacity(), std::mem::size_of::<PhysMem>());
        total += self.dram.iter().map(|m| m.resident_bytes()).sum::<usize>();
        total += spine(self.tlbs.capacity(), std::mem::size_of::<crate::tlb::Tlb>());
        total += self.tlbs.iter().map(|t| t.resident_bytes()).sum::<usize>();
        total += spine(
            self.dacs.capacity(),
            std::mem::size_of::<crate::dac::DacFile>(),
        );
        total += self.dacs.iter().map(|d| d.resident_bytes()).sum::<usize>();
        total += spine(self.running.capacity(), std::mem::size_of::<Option<Tid>>());
        total += self.streaming.capacity();
        total += spine(self.threads.capacity(), std::mem::size_of::<Thread>());
        total += spine(self.inbox.capacity(), std::mem::size_of::<Inbox>());
        total += spine(self.dispatch_q.capacity(), std::mem::size_of::<Tid>());
        total += spine(
            self.unblock_q.capacity(),
            std::mem::size_of::<(Tid, Option<SysRet>)>(),
        );
        total += spine(self.kill_q.capacity(), std::mem::size_of::<(ProcId, i32)>());
        total += self.inflight.resident_bytes();
        total += self
            .inflight
            .iter()
            .map(|(_, e)| e.msg.payload.capacity())
            .sum::<usize>();
        total += spine(
            self.proc_threads.capacity(),
            std::mem::size_of::<ThreadList>(),
        );
        total += self
            .proc_threads
            .iter()
            .map(ThreadList::heap_bytes)
            .sum::<usize>();
        total += self.jitter.resident_bytes();
        total += self.prof.resident_bytes();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{WlEnv, Workload};

    struct Nop;
    impl Workload for Nop {
        fn next(&mut self, _e: &mut WlEnv<'_>) -> Op {
            Op::End
        }
    }

    fn sc(nodes: u32) -> SimCore {
        SimCore::new(MachineConfig::nodes(nodes))
    }

    #[test]
    fn thread_creation_and_lookup() {
        let mut s = sc(1);
        let t0 = s.create_thread(ProcId(0), NodeId(0), CoreId(0), Box::new(Nop));
        let t1 = s.create_thread(ProcId(0), NodeId(0), CoreId(1), Box::new(Nop));
        assert_eq!(t0, Tid(0));
        assert_eq!(t1, Tid(1));
        assert_eq!(s.threads_of(ProcId(0)), &[t0, t1]);
        assert_eq!(s.live_threads(), 2);
        // A one-thread process, after a process with none.
        let t2 = s.create_thread(ProcId(2), NodeId(0), CoreId(2), Box::new(Nop));
        assert_eq!(s.threads_of(ProcId(1)), &[]);
        assert_eq!(s.threads_of(ProcId(2)), &[t2]);
        assert_eq!(s.threads_of(ProcId(3)), &[]);
    }

    #[test]
    fn dispatch_claims_core() {
        let mut s = sc(1);
        let t = s.create_thread(ProcId(0), NodeId(0), CoreId(2), Box::new(Nop));
        assert!(s.core_idle(CoreId(2)));
        s.dispatch(t);
        assert!(!s.core_idle(CoreId(2)));
        assert_eq!(s.dispatch_q, [t]);
        assert_eq!(s.busy_cores, 1);
        s.release_core(CoreId(2));
        s.release_core(CoreId(2));
        assert!(s.core_idle(CoreId(2)));
        assert_eq!(s.busy_cores, 0);
    }

    #[test]
    #[should_panic(expected = "busy core")]
    fn double_dispatch_panics() {
        let mut s = sc(1);
        let a = s.create_thread(ProcId(0), NodeId(0), CoreId(0), Box::new(Nop));
        let b = s.create_thread(ProcId(0), NodeId(0), CoreId(0), Box::new(Nop));
        s.dispatch(a);
        s.dispatch(b);
    }

    #[test]
    fn stretch_requires_running_thread() {
        let mut s = sc(1);
        let t = s.create_thread(ProcId(0), NodeId(0), CoreId(0), Box::new(Nop));
        assert!(!s.stretch_running(CoreId(0), 100, 0));
        s.running[0] = Some(t);
        s.threads[0].state = ThreadState::Running {
            gen: 0,
            until: 500,
            started: 0,
        };
        assert!(s.stretch_running(CoreId(0), 100, 0));
        match s.threads[0].state {
            ThreadState::Running { gen, until, .. } => {
                assert_eq!(gen, 1);
                assert_eq!(until, 600);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn torus_send_schedules_delivery() {
        let mut s = sc(2);
        let id = s.torus_send(NodeId(0), NodeId(1), 1024, 7, vec![], 0);
        assert!(s.inflight.contains(id));
        // The delivery event exists.
        assert_eq!(s.engine.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "without a torus unit")]
    fn torus_send_requires_unit() {
        let mut cfg = MachineConfig::nodes(2);
        cfg.chip.torus_unit = crate::config::UnitStatus::Absent;
        let mut s = SimCore::new(cfg);
        s.torus_send(NodeId(0), NodeId(1), 1, 0, vec![], 0);
    }

    #[test]
    fn refresh_jitter_deterministic_per_seed() {
        let mut a = sc(1);
        let mut b = sc(1);
        let ja: Vec<u64> = (0..32).map(|_| a.refresh_jitter(NodeId(0))).collect();
        let jb: Vec<u64> = (0..32).map(|_| b.refresh_jitter(NodeId(0))).collect();
        assert_eq!(ja, jb);
        let mut c = SimCore::new(MachineConfig::nodes(1).with_seed(777));
        let jc: Vec<u64> = (0..32).map(|_| c.refresh_jitter(NodeId(0))).collect();
        assert_ne!(ja, jc);
    }

    #[test]
    fn probe_signals_have_core_entries() {
        let s = sc(1);
        let probes = s.probe_signals();
        assert!(probes.iter().any(|(n, _)| n == "core0.running_tid"));
        assert!(probes.iter().any(|(n, _)| n == "net.inflight"));
    }
}
