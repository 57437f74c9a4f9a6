//! The CNK kernel object: `bgsim::Kernel` implementation tying together
//! the partitioner, scheduler, guard pages, function shipping, and
//! persistent memory. The futex and signal mechanics are the shared
//! `bgsim::posix` module, under CNK's costs and machine-check rule.

use std::collections::HashMap;
use std::sync::Arc;

use bgsim::chip;
use bgsim::engine::EvHandle;
use bgsim::fault::{FaultEvent, FaultKind};
use bgsim::idmap::IdMap;
use bgsim::machine::{
    BlockKind, BootReport, CommCaps, JobMap, Kernel, LaunchError, MemOpResult, NetMsg, RankInfo,
    SimCore, SyscallAction, Workload, WorkloadFactory, IPI_GUARD_REPOSITION,
};
use bgsim::noise::NoiseSource;
use bgsim::op::CloneArgs;
use bgsim::posix::{done, err, Posix, PosixPolicy};
use bgsim::rng::LazyStreams;
use bgsim::telemetry::{Domain, Slot};
use bgsim::tlb::{Tlb, TlbEntry};
use bgsim::trace::{TraceEvent, NO_CORE};
use ciod::vfs::Ino;
use ciod::{service_cycles, Ciod, RetryPolicy, Vfs};
use sysabi::{
    CloneFlags, CoreId, Errno, JobSpec, MapFlags, NodeId, ProcId, Prot, Rank, Sig, SysReq, SysRet,
    Tid, UtsName,
};

use crate::boot;
use crate::mem::{
    partition_node, tracker_errno, AddressSpace, ProcRequirements, Region, StaticMap,
};
use crate::persist::PersistRegistry;
use crate::process::{Guard, Process};
use crate::sched::{SchedError, Scheduler};

// ---- timing constants (cycles) ---------------------------------------------

/// Trap entry + exit for a local syscall.
const SYSCALL_BASE: u64 = 140;
/// Marshaling a function-ship request (fixed part).
const FSHIP_MARSHAL: u64 = 700;
/// Demarshaling a reply (fixed part).
const FSHIP_DEMARSHAL: u64 = 450;
/// Marshal/demarshal cost per 8 payload bytes.
const FSHIP_PER_8B: u64 = 1;
/// Thread creation (clone) cost.
const CLONE_COST: u64 = 1_900;
/// Machine-check handler cost charged on a parity fault (§V.B).
const PARITY_HANDLER_COST: u64 = 2_200;
/// RAS handler cost per spurious DAC guard fault in an injected storm.
const GUARD_STORM_COST: u64 = 420;
/// Cost of a DAC guard hit or an unmapped access.
const FAULT_COST: u64 = 420;

/// CNK's policy for the shared NPTL calls: its costs, and an unhandled
/// machine check is fatal (the checkpoint/restart world of §V.B).
const POSIX: PosixPolicy = PosixPolicy {
    base: SYSCALL_BASE,
    futex: 90,
    efault: 40,
    sigaction: 60,
    tgkill: 200,
    segv: FAULT_COST,
    parity_kills: true,
};

/// Kernel-event tag namespace for function-ship retry timers. Kept out
/// of the injected-noise tag space (which packs a source index and core
/// into the low bits) by the top bit; the low 63 bits carry the io id.
const TAG_IO_RETRY: u64 = 1 << 63;

/// CNK tunables.
#[derive(Clone, Debug)]
pub struct CnkConfig {
    /// TLB entries available to the static map per core (the rest are
    /// kernel-reserved).
    pub tlb_budget: usize,
    /// Physical bytes reserved for the kernel at the bottom of DRAM.
    pub kernel_reserve: u64,
    /// Physical bytes reserved for the persistent-memory arena at the
    /// top of DRAM (§IV.D).
    pub persist_reserve: u64,
    /// Enable the §VIII extended thread affinity model.
    pub affinity_extension: bool,
    /// Guard range size at the heap boundary (§IV.C).
    pub guard_bytes: u64,
    /// Job credentials.
    pub uid: u32,
    pub gid: u32,
    /// Research hook: synthetic noise sources injected into the kernel
    /// (empty in production CNK — that emptiness *is* §V.A's result).
    /// This is the §I "easily modifiable base" point and the Ferreira-
    /// style noise-injection methodology the paper cites.
    pub injected_noise: Vec<NoiseSource>,
    /// BG/L-style I/O service: one CIOD thread per I/O node servicing
    /// requests serially, instead of BG/P's dedicated ioproxy per
    /// compute-node process (§IV.A: "A key difference from BG/L is that
    /// on BG/P each MPI process has a dedicated I/O proxy process").
    /// Used by the `io_proxy_ablation` bench.
    pub bgl_io_mode: bool,
    /// Retry/timeout/backoff policy for function-shipped I/O when the
    /// CIOD link misbehaves. Timers are only armed when the machine has
    /// a fault schedule — fault-free runs schedule no extra events.
    pub io_retry: RetryPolicy,
}

impl Default for CnkConfig {
    fn default() -> Self {
        CnkConfig {
            tlb_budget: 60,
            kernel_reserve: 16 << 20,
            persist_reserve: 64 << 20,
            affinity_extension: false,
            guard_bytes: 64 << 10,
            uid: 1000,
            gid: 100,
            injected_noise: Vec::new(),
            bgl_io_mode: false,
            io_retry: RetryPolicy::default(),
        }
    }
}

/// A function-shipped request in flight, stamped with its issue cycle so
/// the reply can report round-trip latency to the telemetry registry.
struct PendingReq {
    issued: u64,
    io: PendingIo,
    /// Send attempts so far (first try included).
    attempts: u32,
    /// The marshaled request, retained for resends. Empty when fault
    /// injection is off (no retries can ever be needed).
    payload: Vec<u8>,
    /// The armed reply-timeout timer, when fault injection is on.
    timer: Option<EvHandle>,
}

/// What a pending function-ship request will do on completion.
enum PendingIo {
    /// Ordinary syscall: hand the demarshaled result to the thread.
    Plain { tid: Tid },
    /// An mmap-with-fd fill (§VI.A: "to mmap a file, CNK copies in the
    /// data"): write the read data at `vaddr`, then return `vaddr`.
    MmapFill { tid: Tid, vaddr: u64 },
}

/// The Compute Node Kernel.
///
/// Per-node and per-ION columns (futex tables, `persist`, `ciods`, the
/// RNG streams) materialize on first touch rather than at boot, so an idle
/// node on a 100k-node rack costs no kernel-side heap. RNG streams are
/// a pure function of `(master seed, name, index)`, so lazy creation is
/// draw-for-draw identical to the old eager columns.
pub struct Cnk {
    pub cfg: CnkConfig,
    sched: Scheduler,
    posix: Posix,
    /// Per-node persistent-memory registries, grown on first
    /// `PersistOpen`. Contents survive reproducible resets (backed by
    /// self-refreshed DRAM), so they are only dropped on a shape change.
    persist: Vec<PersistRegistry>,
    /// Node count `persist` is provisioned for (shape-change detector).
    persist_nodes: usize,
    /// Processes keyed by `ProcId` — ids are allocated from `next_proc`
    /// monotonically, so the dense window iterates in rank order.
    procs: IdMap<Process>,
    next_proc: u32,
    vfs: Vfs,
    /// CIOD daemons, grown on first service per ION. Like `persist`,
    /// ION state survives compute-chip resets. A process's ioproxy is
    /// created at its first shipped request, so launch builds none.
    ciods: Vec<Ciod>,
    /// The `/dev/console` inode, resolved once per launch: the std fds
    /// of every ioproxy the job's processes get.
    console: Ino,
    /// ION count `ciods` is provisioned for (shape-change detector).
    ciod_count: usize,
    ion_rng: LazyStreams,
    pending_io: IdMap<PendingReq>,
    next_io: u64,
    noise_rng: LazyStreams,
    /// Per-ION serialization point for BG/L-style I/O service.
    ion_busy_until: Vec<u64>,
    /// At-most-once cache on the I/O node: replies already sent, keyed
    /// by io id, so a retried request that was in fact serviced replays
    /// the reply instead of re-running the side effect. Only populated
    /// when fault injection is on.
    served: HashMap<u64, Vec<u8>>,
    /// A machine check has hit this machine: a fatal one tears the job
    /// down with CIOD requests legitimately in flight. Like the ION
    /// state, it survives compute-chip resets.
    machine_checked: bool,
    booted: bool,
}

impl Cnk {
    pub fn new(cfg: CnkConfig) -> Cnk {
        let vfs = Vfs::new();
        Cnk {
            console: vfs.console(),
            cfg,
            sched: Scheduler::new(0, 1),
            posix: Posix::new(POSIX),
            persist: Vec::new(),
            persist_nodes: 0,
            procs: IdMap::new(),
            next_proc: 0,
            vfs,
            ciods: Vec::new(),
            ciod_count: 0,
            ion_rng: LazyStreams::new("ion-service"),
            pending_io: IdMap::new(),
            next_io: 0,
            noise_rng: LazyStreams::new("cnk-injected-noise"),
            ion_busy_until: Vec::new(),
            served: HashMap::new(),
            machine_checked: false,
            booted: false,
        }
    }

    pub fn with_defaults() -> Cnk {
        Cnk::new(CnkConfig::default())
    }

    /// The I/O-node filesystem (test setup: pre-populate input files).
    pub fn vfs_mut(&mut self) -> &mut Vfs {
        &mut self.vfs
    }

    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// The ioproxy console output of a process (job stdout): empty for
    /// a process that never shipped a request, and `None` for no
    /// process.
    pub fn console_of(&self, sc: &SimCore, proc: ProcId) -> Option<Vec<u8>> {
        self.procs.get(proc.0 as u64)?;
        let proxy = self.proxy_of(sc, proc);
        Some(proxy.map_or_else(Vec::new, |p| p.console.clone()))
    }

    /// The CIOD daemon of I/O node `ion`: `None` until a request
    /// reaches it.
    pub fn ciod(&self, ion: usize) -> Option<&Ciod> {
        self.ciods.get(ion)
    }

    /// A process's ioproxy: `None` until it ships its first request.
    pub fn proxy_of(&self, sc: &SimCore, proc: ProcId) -> Option<&ciod::IoProxy> {
        let node = self.procs.get(proc.0 as u64)?.node;
        let ion = sc.coll.io_node_of(node) as usize;
        self.ciods.get(ion)?.proxy(proc.0)
    }

    pub fn process(&self, proc: ProcId) -> Option<&Process> {
        self.procs.get(proc.0 as u64)
    }

    /// The ION's CIOD daemon, materialized on first touch.
    fn ciod_at(ciods: &mut Vec<Ciod>, ion: usize) -> &mut Ciod {
        while ciods.len() <= ion {
            ciods.push(Ciod::new(ciods.len() as u32));
        }
        &mut ciods[ion]
    }

    /// The node's persist registry, materialized on first `PersistOpen`.
    fn persist_at(
        persist: &mut Vec<PersistRegistry>,
        persist_reserve: u64,
        dram_bytes: u64,
        node: NodeId,
    ) -> &mut PersistRegistry {
        let lo = dram_bytes - persist_reserve;
        if persist.len() <= node.idx() {
            persist.resize_with(node.idx() + 1, || PersistRegistry::new(lo, dram_bytes));
        }
        &mut persist[node.idx()]
    }

    fn proc_of(&self, sc: &SimCore, tid: Tid) -> ProcId {
        sc.thread(tid).proc
    }

    /// Pin a launched process's static map into every one of its cores'
    /// TLBs.
    ///
    /// The pinned image is a function of the static map alone (persistent
    /// regions attach later, through `pin_region`), and every process in
    /// the same slot of every node shares one map. So `image` holds the
    /// slot's image: built and validated when the slot's first rank is
    /// pinned, then Arc-shared (`Tlb::install_base`) by every core of
    /// every rank in the slot — one copy per slot, not per core or rank.
    fn pin_map(
        sc: &mut SimCore,
        proc: &Process,
        image: &mut Option<Arc<[TlbEntry]>>,
    ) -> Result<(), LaunchError> {
        debug_assert!(proc.aspace.persist.is_empty(), "persist before launch pin");
        let Some(&first) = proc.cores.first() else {
            return Ok(());
        };
        let shared = match image {
            Some(img) => img.clone(),
            None => {
                let map = Self::tlb_image(&proc.aspace.map);
                Tlb::validate_map(&map, sc.tlbs[first.idx()].capacity()).map_err(|e| {
                    LaunchError::NoMemory(format!("TLB pin failed on {first}: {e:?}"))
                })?;
                image.insert(map.into()).clone()
            }
        };
        for &core in &proc.cores {
            sc.tlbs[core.idx()]
                .install_base(shared.clone())
                .map_err(|e| LaunchError::NoMemory(format!("TLB pin failed on {core}: {e:?}")))?;
        }
        Ok(())
    }

    /// The pinned TLB entries that tile a static map, in region order.
    fn tlb_image(map: &StaticMap) -> Vec<TlbEntry> {
        let mut image = Vec::with_capacity(map.tlb_entries);
        for r in &map.regions {
            for &(ps, va) in &r.pages {
                image.push(TlbEntry {
                    vaddr: va,
                    paddr: r.paddr + (va - r.vaddr),
                    size: ps,
                    pinned: true,
                });
            }
        }
        image
    }

    /// Pin one extra region (persist attach at runtime).
    fn pin_region(&self, sc: &mut SimCore, proc: &Process, r: &Region) -> Result<(), Errno> {
        for &core in &proc.cores {
            for &(ps, va) in &r.pages {
                let pa = r.paddr + (va - r.vaddr);
                if sc.tlbs[core.idx()]
                    .pin(TlbEntry {
                        vaddr: va,
                        paddr: pa,
                        size: ps,
                        pinned: true,
                    })
                    .is_err()
                {
                    return Err(Errno::ENOMEM);
                }
            }
        }
        Ok(())
    }

    /// Arm (or re-arm) a guard range on a core's DAC.
    fn arm_guard(sc: &mut SimCore, core: CoreId, slot: u32, lo: u64, hi: u64) {
        sc.dacs[core.idx()]
            .arm(slot, lo, hi)
            .expect("DAC slot invalid");
    }

    /// Function-ship a request for `tid` (§IV.A). Marks the thread
    /// pending and returns the marshal cost spent before blocking.
    fn fship(&mut self, sc: &mut SimCore, tid: Tid, req: &SysReq, pending: PendingIo) {
        let node = sc.thread(tid).node;
        let proc = sc.thread(tid).proc;
        let id = self.next_io;
        self.next_io += 1;
        let encoded = ciod::wire::encode_req(req);
        let mut payload = proc.0.to_be_bytes().to_vec();
        payload.extend_from_slice(&encoded);
        let bytes = payload.len() as u64;
        // Marshal cost is paid by the caller as message-send delay.
        let marshal = FSHIP_MARSHAL + bytes / 8 * FSHIP_PER_8B;
        // The retry machinery only exists under fault injection: a
        // fault-free run arms no timer and retains no payload, so its
        // event stream is untouched.
        let faulty = !sc.cfg.faults.is_empty();
        let timer = faulty.then(|| {
            sc.schedule_kernel_event_in(node, TAG_IO_RETRY | id, self.cfg.io_retry.timeout(0))
        });
        self.pending_io.insert(
            id,
            PendingReq {
                issued: sc.now(),
                io: pending,
                attempts: 1,
                payload: if faulty { payload.clone() } else { Vec::new() },
                timer,
            },
        );
        sc.tel
            .count(sc.tel.ids.fship_requests, Slot::Node(node.0), 1);
        sc.trace_thread(
            tid,
            TraceEvent::FshipReq {
                id,
                name: req.name(),
                bytes,
            },
        );
        sc.prof.span(Domain::Ciod, marshal);
        sc.coll_send(node, node, bytes, id * 4 + 1, payload, marshal);
    }

    /// Report a kernel RAS event: count it and trace it as a `Ras`
    /// entry — the §V "RAS events are reported and handled" path.
    fn ras(sc: &mut SimCore, node: NodeId, code: &'static str, detail: u64) {
        sc.tel.count(sc.tel.ids.ras_events, Slot::Node(node.0), 1);
        sc.trace
            .record(sc.now(), node.0, NO_CORE, TraceEvent::Ras { code, detail });
    }

    /// A reply-timeout timer fired for io `id`: resend with exponential
    /// backoff, or give up and fail the syscall with a clean `EIO`.
    fn io_timeout(&mut self, sc: &mut SimCore, node: NodeId, id: u64) {
        let policy = self.cfg.io_retry;
        let Some(req) = self.pending_io.get_mut(id) else {
            // Reply won the race; the timer is stale.
            return;
        };
        req.timer = None;
        if policy.exhausted(req.attempts) {
            let req = self
                .pending_io
                .remove(id)
                .expect("pending io vanished mid-timeout");
            Self::ras(sc, node, "io-eio", id);
            let (PendingIo::Plain { tid } | PendingIo::MmapFill { tid, .. }) = req.io;
            sc.defer_unblock(tid, Some(SysRet::Err(Errno::EIO)));
            return;
        }
        let attempt = req.attempts;
        req.attempts += 1;
        let payload = req.payload.clone();
        let bytes = payload.len() as u64;
        let backoff = policy.backoff(attempt - 1);
        let marshal = FSHIP_MARSHAL + bytes / 8 * FSHIP_PER_8B + backoff;
        let timer =
            sc.schedule_kernel_event_in(node, TAG_IO_RETRY | id, backoff + policy.timeout(attempt));
        if let Some(req) = self.pending_io.get_mut(id) {
            req.timer = Some(timer);
        }
        sc.tel.count(sc.tel.ids.ciod_retries, Slot::Node(node.0), 1);
        sc.tel
            .count(sc.tel.ids.ciod_backoff_cycles, Slot::Node(node.0), backoff);
        sc.trace.record(
            sc.now(),
            node.0,
            NO_CORE,
            TraceEvent::FshipRetry {
                id,
                attempt: attempt.into(),
            },
        );
        sc.prof.span(Domain::Ciod, backoff);
        sc.coll_send(node, node, bytes, id * 4 + 1, payload, marshal);
    }

    /// Service a request on the I/O node and send the reply back.
    fn ion_service(&mut self, sc: &mut SimCore, msg: NetMsg) {
        let id = msg.tag / 4;
        let faulty = !sc.cfg.faults.is_empty();
        // At-most-once: a compute-node retry of a request we already
        // serviced replays the cached reply — the side effect (write,
        // unlink...) must not run twice. Cache only exists under fault
        // injection; without it no request is ever sent twice.
        if faulty {
            if let Some(reply) = self.served.get(&id) {
                let reply = reply.clone();
                let bytes = reply.len() as u64;
                sc.coll_send(msg.dst_node, msg.src_node, bytes, id * 4 + 2, reply, 1_000);
                return;
            }
        }
        // A mangled request (injected corruption) fails wire validation;
        // the daemon logs and drops it — the compute node's retry timer
        // recovers. Sending garbage back would be worse than silence.
        let Some(prefix) = msg.payload.get(0..4) else {
            Self::ras(sc, msg.src_node, "ion-drop-corrupt", id);
            return;
        };
        let proc = u32::from_be_bytes(prefix.try_into().unwrap_or([0; 4]));
        let req_bytes = &msg.payload[4..];
        let ion = sc.coll.io_node_of(msg.src_node) as usize;
        let (ret, service) = match ciod::wire::decode_req(req_bytes) {
            Ok(req) => {
                let ciod = Self::ciod_at(&mut self.ciods, ion);
                // The process's first shipped request creates its proxy.
                // A request from a process that no longer exists finds
                // none and is refused (ESRCH), as after a teardown.
                if let Some(p) = self.procs.get(u64::from(proc)) {
                    ciod.attach_proc(&self.vfs, proc, p.uid, p.gid, self.console);
                }
                let ret = ciod.service(&mut self.vfs, proc, &req);
                (ret, service_cycles(&req))
            }
            Err(_) => {
                Self::ras(sc, msg.src_node, "ion-drop-corrupt", id);
                return;
            }
        };
        // The ION runs Linux: its service time jitters.
        let jitter = Ciod::service_jitter(self.ion_rng.get(&sc.hub, ion));
        let mut delay = service + jitter;
        if self.cfg.bgl_io_mode {
            // BG/L-style single service thread: requests queue behind
            // each other on the I/O node.
            if self.ion_busy_until.len() <= ion {
                self.ion_busy_until.resize(ion + 1, 0);
            }
            let now = sc.now();
            let start = self.ion_busy_until[ion].max(now);
            self.ion_busy_until[ion] = start + service;
            delay += start - now;
        }
        let reply = ciod::wire::encode_ret(&ret);
        if faulty {
            self.served.insert(id, reply.clone());
        }
        let bytes = reply.len() as u64;
        sc.prof.span(Domain::Ciod, delay);
        sc.coll_send(msg.dst_node, msg.src_node, bytes, id * 4 + 2, reply, delay);
    }

    /// A reply arrived back at the compute node.
    fn cn_reply(&mut self, sc: &mut SimCore, msg: NetMsg) {
        let id = msg.tag / 4;
        // Late duplicate (a retry raced the original reply): the request
        // already completed; drop silently.
        let Some(req) = self.pending_io.get(id) else {
            return;
        };
        // A mangled reply (injected corruption) fails wire validation.
        // With a retry timer armed, leave the request pending — the
        // timer resends and the ION replays its cached reply. Without
        // one (fault injection off: unreachable), fall through and the
        // decode below degrades to a clean `EIO`.
        if ciod::wire::decode_ret(&msg.payload).is_err() && req.timer.is_some() {
            Self::ras(sc, msg.dst_node, "cn-drop-corrupt", id);
            return;
        }
        let PendingReq {
            issued,
            io: pending,
            timer,
            ..
        } = self
            .pending_io
            .remove(id)
            .expect("pending io vanished mid-reply");
        if let Some(h) = timer {
            sc.cancel_kernel_event(h);
        }
        let latency = sc.now().saturating_sub(issued);
        sc.tel.hist(
            sc.tel.ids.fship_latency,
            Slot::Node(msg.dst_node.0),
            latency,
        );
        sc.trace.record(
            sc.now(),
            msg.dst_node.0,
            NO_CORE,
            TraceEvent::FshipReply { id, latency },
        );
        sc.prof.span(Domain::Ciod, latency);
        let ret = ciod::wire::decode_ret(&msg.payload).unwrap_or(SysRet::Err(Errno::EIO));
        let demarshal = FSHIP_DEMARSHAL + msg.bytes / 8 * FSHIP_PER_8B;
        match pending {
            PendingIo::Plain { tid } => {
                // The demarshal cost is modeled as already absorbed in the
                // reply delay; unblock with the result.
                let _ = demarshal;
                sc.defer_unblock(tid, Some(ret));
            }
            PendingIo::MmapFill { tid, vaddr } => match ret {
                SysRet::Data(data) => {
                    let proc = sc.thread(tid).proc;
                    let node = sc.thread(tid).node;
                    if let Some(p) = self.procs.get(proc.0 as u64) {
                        if let Some(pa) = p.aspace.translate(vaddr) {
                            let _ = sc.dram[node.idx()].write(pa, &data);
                        }
                    }
                    sc.defer_unblock(tid, Some(SysRet::Val(vaddr as i64)));
                }
                SysRet::Err(e) => sc.defer_unblock(tid, Some(SysRet::Err(e))),
                _ => sc.defer_unblock(tid, Some(SysRet::Err(Errno::EIO))),
            },
        }
    }

    fn schedule_noise(&mut self, sc: &mut SimCore, node: NodeId, src_idx: usize, core_local: u32) {
        let delay = {
            let src = &self.cfg.injected_noise[src_idx];
            src.next_delay(self.noise_rng.get(&sc.hub, node.idx()))
        };
        sc.schedule_kernel_event_in(node, ((src_idx as u64) << 8) | core_local as u64, delay);
    }

    fn guard_hit(&mut self, sc: &mut SimCore, tid: Tid, vaddr: u64) {
        let core = sc.thread(tid).core;
        sc.tel.count(sc.tel.ids.guard_faults, Slot::Core(core.0), 1);
        sc.trace_thread(tid, TraceEvent::GuardFault { tid: tid.0, vaddr });
        // A DAC guard hit is delivered as SIGSEGV; default kills the
        // process (stack smashed into the heap).
        let p = self.procs.get(sc.thread(tid).proc.0 as u64);
        self.posix
            .post_signal(sc, tid, Sig::Segv, p.map(|p| &p.posix));
    }

    /// `CiodShortWrite`: truncate the data of every in-flight shipped
    /// write touching `node` to half, re-marshaling the request — the
    /// application sees a genuine POSIX short write and must continue
    /// the write itself.
    fn shorten_inflight_writes(&mut self, sc: &mut SimCore, node: NodeId) {
        use bgsim::machine::NetDomain;
        for id in sc.inflight_ids(node, NetDomain::Collective) {
            let Some(m) = sc.inflight_msg_mut(id) else {
                continue;
            };
            // Only requests (tag%4==1) with a decodable body are writes
            // we can shorten.
            if m.tag % 4 != 1 || m.payload.len() < 4 {
                continue;
            }
            let prefix: Vec<u8> = m.payload[0..4].to_vec();
            let Ok(req) = ciod::wire::decode_req(&m.payload[4..]) else {
                continue;
            };
            let shortened = match req {
                SysReq::Write { fd, data } if data.len() >= 2 => {
                    let half = data.len() / 2;
                    SysReq::Write {
                        fd,
                        data: data[..half].to_vec(),
                    }
                }
                SysReq::Pwrite { fd, data, offset } if data.len() >= 2 => {
                    let half = data.len() / 2;
                    SysReq::Pwrite {
                        fd,
                        data: data[..half].to_vec(),
                        offset,
                    }
                }
                _ => continue,
            };
            let mut payload = prefix;
            payload.extend_from_slice(&ciod::wire::encode_req(&shortened));
            m.payload = payload;
            Self::ras(sc, node, "short-write", id);
        }
    }
}

impl Kernel for Cnk {
    fn name(&self) -> &'static str {
        "cnk"
    }

    fn boot(&mut self, sc: &mut SimCore, reproducible: bool) -> BootReport {
        let nodes = sc.cfg.nodes as usize;
        let tpc = sc.cfg.chip.threads_per_core;
        self.sched = Scheduler::new(sc.cfg.total_cores() as usize, tpc);
        // Futex tables are per-boot state; drop and regrow on demand.
        self.posix.reset();
        if self.persist_nodes != nodes {
            // Persist registries survive reproducible resets (backed by
            // self-refreshed DRAM); re-provision only when the machine
            // shape changes. Each node's registry materializes on its
            // first PersistOpen.
            self.persist.clear();
            self.persist_nodes = nodes;
        }
        let ions = sc.cfg.io_nodes() as usize;
        self.ion_busy_until.clear();
        if self.ciod_count != ions {
            // ION state survives compute-chip resets; re-provision only
            // on shape change. Daemons (and their service-jitter RNG
            // streams) materialize on first attach/service.
            self.ciods.clear();
            self.ion_rng = LazyStreams::new("ion-service");
            self.ciod_count = ions;
        }
        // Research-mode injected noise (off by default). Streams restart
        // from their seeds on every boot.
        if !self.cfg.injected_noise.is_empty() {
            self.noise_rng = LazyStreams::new("cnk-injected-noise");
            for node in 0..nodes as u32 {
                for (i, src) in self.cfg.injected_noise.clone().iter().enumerate() {
                    for core in 0..sc.cfg.chip.cores {
                        if src.cores.contains(core) {
                            self.schedule_noise(sc, NodeId(node), i, core);
                        }
                    }
                }
            }
        }
        self.booted = true;
        boot::boot_report(&sc.cfg.chip, reproducible)
    }

    fn reset(&mut self) {
        self.sched.reset();
        self.posix.reset();
        self.procs.clear();
        self.pending_io.clear();
        self.booted = false;
        // persist registries, vfs, and ciods survive (ION state and
        // self-refreshed DRAM are not part of the compute-chip reset).
    }

    fn launch(
        &mut self,
        sc: &mut SimCore,
        spec: &JobSpec,
        factory: &mut dyn WorkloadFactory,
    ) -> Result<JobMap, LaunchError> {
        assert!(self.booted, "launch before boot");
        // Tear down the previous job: clear private memory (clean slate),
        // unpin TLBs, detach the proxies that exist. `IdMap::keys` is
        // ascending-id, so teardown runs in rank order.
        let old: Vec<u64> = self.procs.keys().collect();
        for proc in old {
            let Some(p) = self.procs.remove(proc) else {
                continue;
            };
            for r in &p.aspace.map.regions {
                let _ = sc.dram[p.node.idx()].clear_range(r.paddr, r.bytes);
            }
            let ion = sc.coll.io_node_of(p.node) as usize;
            if let Some(c) = self.ciods.get_mut(ion) {
                c.detach_proc(proc as u32);
            }
        }
        for t in &mut sc.tlbs {
            t.reset();
        }
        for d in &mut sc.dacs {
            d.reset();
        }
        self.sched.reset();
        self.posix.reset();

        let ppn = spec.mode.procs_per_node();
        let cpp = spec.mode.cores_per_proc();
        let img = &spec.image;
        let dynamic_bytes = if img.dynamic {
            // A fixed window for ld.so + libraries, with slack for dlopen.
            let need = img
                .dynlibs
                .iter()
                .map(|l| l.text_bytes + l.data_bytes)
                .sum::<u64>();
            crate::mem::partition::align_up(need + (32 << 20), 16 << 20)
        } else {
            0
        };
        let req = ProcRequirements {
            text_bytes: img.text_bytes,
            data_bytes: img.data_bytes,
            heap_stack_bytes: img.initial_heap + img.main_stack * 4,
            shared_bytes: spec.shared_mem_bytes,
            dynamic_bytes,
        };
        let maps = partition_node(
            &req,
            ppn,
            sc.cfg.chip.dram_bytes,
            self.cfg.kernel_reserve,
            self.cfg.persist_reserve,
            self.cfg.tlb_budget,
        )
        .map_err(|e| LaunchError::NoMemory(format!("{e:?}")))?;

        self.console = self.vfs.console();
        // Pre-populate the ION filesystem with the dynamic libraries so
        // the ld.so model can open them.
        if img.dynamic {
            let root = self.vfs.root();
            let lib = match self.vfs.resolve(root, "/lib") {
                Ok(i) => i,
                Err(_) => self
                    .vfs
                    .mkdir_at(root, "lib", 0o755, 0, 0)
                    .map_err(|e| LaunchError::BadSpec(format!("ION /lib create failed: {e:?}")))?,
            };
            for l in &img.dynlibs {
                if self.vfs.resolve(lib, &l.name).is_err() {
                    let ino = self
                        .vfs
                        .create_at(lib, &l.name, 0o755, 0, 0)
                        .expect("lib create");
                    self.vfs
                        .truncate(ino, l.text_bytes + l.data_bytes)
                        .expect("lib size");
                }
            }
        }

        // Every node's slot-`pi` process boots the same image into the
        // same layout (§IV.C), so each slot's static map and pinned TLB
        // image exist once and are Arc-shared across the rack.
        let maps: Vec<Arc<StaticMap>> = maps.into_iter().map(Arc::new).collect();
        let mut images: Vec<Option<Arc<[TlbEntry]>>> = vec![None; maps.len()];
        let n_ranks = spec.nodes as usize * ppn as usize;
        sc.reserve_threads(n_ranks);
        self.procs.reserve(n_ranks);
        let mut ranks = Vec::with_capacity(n_ranks);
        for node in 0..spec.nodes {
            let node_id = NodeId(node);
            for pi in 0..ppn {
                let rank = Rank(node * ppn + pi);
                let proc = ProcId(self.next_proc);
                self.next_proc += 1;
                let cores = (0..cpp)
                    .map(|c| sc.core_of(node_id, pi * cpp + c))
                    .collect();
                let aspace = AddressSpace::new(maps[pi as usize].clone(), img.main_stack);
                let mut p = Process::new(
                    proc,
                    node_id,
                    rank,
                    cores,
                    aspace,
                    self.cfg.uid,
                    self.cfg.gid,
                );
                p.persist_grants = spec.persist_grants.clone();

                // Static core assignment (§VIII).
                for &c in &p.cores {
                    self.sched.assign_core(c, proc);
                }
                let main_core = p.cores[0];
                self.sched
                    .admit(main_core, proc)
                    .map_err(|_| LaunchError::TooManyThreads)?;

                let wl = factory.main_workload(rank);
                let tid = sc.create_thread(proc, node_id, main_core, wl);
                p.main_tid = tid;
                p.live_threads = 1;

                // Arm the main-thread guard at the heap boundary (§IV.C).
                let brk0 = p.aspace.heap.brk_addr();
                let slot = p
                    .alloc_dac_slot(main_core, sc.cfg.chip.dac_pairs)
                    .expect("fresh core has DAC slots");
                Self::arm_guard(sc, main_core, slot, brk0, brk0 + self.cfg.guard_bytes);
                p.heap_guard = Some(Guard {
                    lo: brk0,
                    hi: brk0 + self.cfg.guard_bytes,
                    slot,
                });

                Self::pin_map(sc, &p, &mut images[pi as usize])?;
                self.procs.insert(proc.0 as u64, p);
                ranks.push(RankInfo {
                    rank,
                    proc,
                    node: node_id,
                    main_tid: tid,
                });
            }
        }
        Ok(JobMap { ranks })
    }

    fn syscall(&mut self, sc: &mut SimCore, tid: Tid, req: &SysReq) -> SyscallAction {
        // Function-shipped I/O (§IV.A).
        if req.is_io() {
            if !sc.cfg.chip.collective_unit.usable() {
                return err(Errno::EIO, SYSCALL_BASE);
            }
            self.fship(sc, tid, req, PendingIo::Plain { tid });
            return SyscallAction::Block {
                kind: BlockKind::Io,
            };
        }

        let proc_id = self.proc_of(sc, tid);
        let node = sc.thread(tid).node;
        // The NPTL calls both kernels share, through the static map.
        let (posix, aspace) = self
            .procs
            .get_mut(proc_id.0 as u64)
            .map(|p| (&mut p.posix, &p.aspace))
            .unzip();
        if let Some(action) = self
            .posix
            .syscall(sc, tid, req, posix, |va| aspace?.translate(va))
        {
            return action;
        }

        match req {
            SysReq::Brk { addr } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return err(Errno::ESRCH, SYSCALL_BASE);
                };
                let old = p.aspace.heap.brk_addr();
                let newb = match p.aspace.heap.brk(*addr) {
                    Ok(b) => b,
                    Err(_) => return done(SysRet::Val(old as i64), SYSCALL_BASE + 120),
                };
                // Heap grew: reposition the main-thread guard (§IV.C),
                // via IPI if another thread moved the boundary.
                if newb > old {
                    let main_tid = p.main_tid;
                    let main_core = p.cores[0];
                    if let Some(g) = p.heap_guard.as_mut() {
                        g.lo = newb;
                        g.hi = newb + self.cfg.guard_bytes;
                        let (lo, hi, slot) = (g.lo, g.hi, g.slot);
                        if tid == main_tid {
                            Self::arm_guard(sc, main_core, slot, lo, hi);
                        } else {
                            // "CNK issues an inter-processor interrupt to
                            // the main thread in order to reposition the
                            // guard area."
                            sc.send_ipi(main_core, IPI_GUARD_REPOSITION);
                        }
                    }
                }
                done(SysRet::Val(newb as i64), SYSCALL_BASE + 160)
            }
            SysReq::Mmap {
                len,
                prot,
                flags,
                fd,
                offset,
                ..
            } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return err(Errno::ESRCH, SYSCALL_BASE);
                };
                match fd {
                    None => match p.aspace.heap.mmap(*len, *prot) {
                        Ok(addr) => done(SysRet::Val(addr as i64), SYSCALL_BASE + 210),
                        Err(e) => err(tracker_errno(e), SYSCALL_BASE + 210),
                    },
                    Some(fd) => {
                        // File mapping: read-only, full copy-in (§VI.A),
                        // MAP_COPY style (§IV.B.2).
                        if prot.contains(Prot::WRITE) && !flags.contains(MapFlags::PRIVATE) {
                            return err(Errno::EACCES, SYSCALL_BASE + 210);
                        }
                        // Library text goes into the fixed dynamic
                        // window if present, else the heap arena.
                        let vaddr = match p.aspace.alloc_dynamic(*len) {
                            Ok(v) => v,
                            Err(_) => match p.aspace.heap.mmap(*len, *prot) {
                                Ok(v) => v,
                                Err(e) => return err(tracker_errno(e), SYSCALL_BASE + 210),
                            },
                        };
                        let read = SysReq::Pread {
                            fd: *fd,
                            len: *len,
                            offset: *offset,
                        };
                        self.fship(sc, tid, &read, PendingIo::MmapFill { tid, vaddr });
                        SyscallAction::Block {
                            kind: BlockKind::Io,
                        }
                    }
                }
            }
            SysReq::Munmap { addr, len } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return err(Errno::ESRCH, SYSCALL_BASE);
                };
                match p.aspace.heap.munmap(*addr, *len) {
                    Ok(()) => done(SysRet::Val(0), SYSCALL_BASE + 170),
                    Err(e) => err(tracker_errno(e), SYSCALL_BASE + 170),
                }
            }
            SysReq::Mprotect { addr, len, prot } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return err(Errno::ESRCH, SYSCALL_BASE);
                };
                // Record for the guard-page convention (§IV.C) even if
                // the range is brk space.
                p.last_mprotect = Some((*addr, *len));
                match p.aspace.heap.mprotect(*addr, *len, *prot) {
                    Ok(()) => done(SysRet::Val(0), SYSCALL_BASE + 110),
                    Err(e) => err(tracker_errno(e), SYSCALL_BASE + 110),
                }
            }
            SysReq::Clone { .. } => {
                // Direct clone without a child program makes no sense in
                // the simulation; NPTL goes through Op::Spawn.
                err(Errno::EINVAL, SYSCALL_BASE)
            }
            SysReq::SchedYield => {
                let core = sc.thread(tid).core;
                self.sched.enqueue(core, proc_id, tid);
                SyscallAction::YieldCpu
            }
            SysReq::Gettid => done(SysRet::Val(tid.0 as i64), SYSCALL_BASE),
            SysReq::Getpid => done(SysRet::Val(proc_id.0 as i64), SYSCALL_BASE),
            SysReq::Uname => done(SysRet::Uname(self.utsname()), SYSCALL_BASE + 80),
            SysReq::ExitThread { code } => SyscallAction::ExitThread { code: *code },
            SysReq::ExitGroup { code } => SyscallAction::ExitProc { code: *code },
            // §VII.B: "MPI cannot spawn dynamic tasks because CNK does
            // not allow fork/exec operations."
            SysReq::Fork | SysReq::Exec { .. } => err(Errno::ENOSYS, SYSCALL_BASE),
            SysReq::PersistOpen { name, len } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return err(Errno::ESRCH, SYSCALL_BASE);
                };
                let granted = p.persist_grants.iter().any(|g| g == name);
                let uid = p.uid;
                let dram = sc.cfg.chip.dram_bytes;
                match Self::persist_at(&mut self.persist, self.cfg.persist_reserve, dram, node)
                    .open(name, *len, uid, granted)
                {
                    Ok(r) => {
                        let region = PersistRegistry::as_region(&r);
                        // Already attached? (re-open in the same job)
                        if p.aspace.persist.iter().any(|x| x.vaddr == region.vaddr) {
                            return done(SysRet::Val(r.vaddr as i64), SYSCALL_BASE + 300);
                        }
                        p.aspace.attach_persist(region.clone());
                        let Some(p_immutable) = self.procs.get(proc_id.0 as u64) else {
                            return err(Errno::ESRCH, SYSCALL_BASE + 300);
                        };
                        if let Err(e) = self.pin_region(sc, p_immutable, &region) {
                            return err(e, SYSCALL_BASE + 300);
                        }
                        done(SysRet::Val(r.vaddr as i64), SYSCALL_BASE + 300)
                    }
                    Err(e) => err(e, SYSCALL_BASE + 300),
                }
            }
            SysReq::QueryStaticMap => {
                let Some(p) = self.procs.get(proc_id.0 as u64) else {
                    return err(Errno::ESRCH, SYSCALL_BASE);
                };
                done(
                    SysRet::StaticMap(p.aspace.map.as_triples()),
                    SYSCALL_BASE + 150,
                )
            }
            SysReq::AffinityPartner { local_core } => {
                if !self.cfg.affinity_extension {
                    return err(Errno::ENOSYS, SYSCALL_BASE);
                }
                if *local_core >= sc.cfg.chip.cores {
                    return err(Errno::EINVAL, SYSCALL_BASE);
                }
                let core = sc.core_of(node, *local_core);
                // Designating one's own core is pointless but harmless.
                self.sched.set_remote_partner(core, proc_id);
                done(SysRet::Val(0), SYSCALL_BASE + 120)
            }
            other => {
                debug_assert!(!other.is_io());
                err(Errno::ENOSYS, SYSCALL_BASE)
            }
        }
    }

    fn spawn(
        &mut self,
        sc: &mut SimCore,
        parent: Tid,
        args: &CloneArgs,
        core_hint: Option<u32>,
        child: Box<dyn Workload>,
    ) -> (SysRet, u64) {
        let proc_id = sc.thread(parent).proc;
        let node = sc.thread(parent).node;
        // §IV.B.1: "The flags to clone are validated against the expected
        // flags."
        if args.flags != CloneFlags::NPTL_THREAD_FLAGS {
            return (SysRet::Err(Errno::EINVAL), SYSCALL_BASE);
        }
        let Some(p) = self.procs.get(proc_id.0 as u64) else {
            return (SysRet::Err(Errno::ESRCH), SYSCALL_BASE);
        };
        let cores = p.cores;
        // Placement: explicit hint (node-local core index) or the
        // least-loaded core of the process.
        let core = match core_hint {
            Some(local) => {
                if local >= sc.cfg.chip.cores {
                    return (SysRet::Err(Errno::EINVAL), SYSCALL_BASE);
                }
                sc.core_of(node, local)
            }
            None => {
                let sched = &self.sched;
                let mut best = cores[0];
                let mut best_q = usize::MAX;
                for &c in &cores {
                    let q = sched.queued(c) + usize::from(!sc.core_idle(c));
                    if q < best_q {
                        best_q = q;
                        best = c;
                    }
                }
                best
            }
        };
        match self.sched.admit(core, proc_id) {
            Ok(()) => {}
            Err(SchedError::CoreFull) => return (SysRet::Err(Errno::EAGAIN), CLONE_COST),
            Err(_) => return (SysRet::Err(Errno::EPERM), SYSCALL_BASE),
        }
        let tid = sc.create_thread(proc_id, node, core, child);
        let p = self
            .procs
            .get_mut(proc_id.0 as u64)
            .expect("invariant: spawn caller's process exists (it issued the clone)");
        p.live_threads += 1;
        if args.flags.contains(CloneFlags::CHILD_CLEARTID) {
            p.posix.set_clear_tid(tid, args.child_tid_addr);
        }
        // §IV.C: the last mprotect before clone becomes the new thread's
        // stack guard.
        if let Some((gaddr, glen)) = p.last_mprotect.take() {
            if let Some(slot) = p.alloc_dac_slot(core, sc.cfg.chip.dac_pairs) {
                p.stack_guards.push((
                    tid,
                    Guard {
                        lo: gaddr,
                        hi: gaddr + glen,
                        slot,
                    },
                ));
                Self::arm_guard(sc, core, slot, gaddr, gaddr + glen);
            }
        }
        // CLONE_PARENT_SETTID: write the child's tid at the parent's
        // address.
        if args.flags.contains(CloneFlags::PARENT_SETTID) && args.parent_tid_addr != 0 {
            if let Some(pa) = self.translate(sc, parent, args.parent_tid_addr) {
                let _ = sc.dram[node.idx()].write_u32(pa, tid.0);
            }
        }
        if sc.core_idle(core) {
            sc.dispatch(tid);
        } else {
            self.sched.enqueue(core, proc_id, tid);
        }
        (SysRet::Val(tid.0 as i64), CLONE_COST)
    }

    fn mem_touch(
        &mut self,
        sc: &mut SimCore,
        tid: Tid,
        vaddr: u64,
        bytes: u64,
        _write: bool,
    ) -> MemOpResult {
        let proc_id = sc.thread(tid).proc;
        let core = sc.thread(tid).core;
        // DAC guard check first (the hardware watches the access).
        let hit = sc.dacs[core.idx()].check(vaddr).is_some()
            || (bytes > 1 && sc.dacs[core.idx()].check(vaddr + bytes - 1).is_some());
        if hit {
            self.guard_hit(sc, tid, vaddr);
            return MemOpResult {
                cost: FAULT_COST,
                faulted: true,
            };
        }
        let Some(p) = self.procs.get(proc_id.0 as u64) else {
            return MemOpResult {
                cost: 1,
                faulted: false,
            };
        };
        if !p.aspace.mapped(vaddr) || (bytes > 1 && !p.aspace.mapped(vaddr + bytes - 1)) {
            // No demand paging: an unmapped access is an immediate
            // SIGSEGV (§VI.B).
            return self.posix.segv(sc, tid, vaddr, "unmapped", Some(&p.posix));
        }
        // Static TLB: never a miss (§VI.B / Table II "No TLB misses").
        let cost = chip::stream_cycles(&sc.cfg.chip, bytes, 1).max(1);
        MemOpResult {
            cost,
            faulted: false,
        }
    }

    fn pick_next(&mut self, _sc: &mut SimCore, core: CoreId) -> Option<Tid> {
        self.sched.pick(core)
    }

    fn on_unblock(&mut self, sc: &mut SimCore, tid: Tid) {
        let core = sc.thread(tid).core;
        let proc = sc.thread(tid).proc;
        if sc.core_idle(core) {
            sc.dispatch(tid);
        } else {
            self.sched.enqueue(core, proc, tid);
        }
    }

    fn on_exit(&mut self, sc: &mut SimCore, tid: Tid) {
        let core = sc.thread(tid).core;
        let proc_id = sc.thread(tid).proc;
        self.sched.release(core);
        self.sched.unqueue(core, tid);
        let mut clear_tid = None;
        if let Some(p) = self.procs.get_mut(proc_id.0 as u64) {
            p.live_threads = p.live_threads.saturating_sub(1);
            clear_tid = p
                .posix
                .take_clear_tid(tid)
                .and_then(|a| p.aspace.translate(a));
            // Disarm the thread's guard.
            if let Some(g) = p.take_guard(tid) {
                let _ = sc.dacs[core.idx()].disarm(g.slot);
            }
        }
        self.posix.exit_thread(sc, tid, clear_tid);
    }

    fn kernel_event(&mut self, sc: &mut SimCore, node: NodeId, tag: u64) {
        if tag & TAG_IO_RETRY != 0 {
            self.io_timeout(sc, node, tag & !TAG_IO_RETRY);
            return;
        }
        // Production CNK schedules no periodic kernel work — that
        // absence *is* the low-noise result of §V.A. Events only exist
        // here when noise injection is configured for a study.
        let src_idx = ((tag >> 8) & 0xffff) as usize;
        let core_local = (tag & 0xff) as u32;
        if src_idx >= self.cfg.injected_noise.len() {
            return;
        }
        let (cost, src_name) = {
            let src = &self.cfg.injected_noise[src_idx];
            (src.cost(self.noise_rng.get(&sc.hub, node.idx())), src.name)
        };
        let core = sc.core_of(node, core_local);
        sc.tel.count(sc.tel.ids.daemon_wakes, Slot::Core(core.0), 1);
        sc.trace.record(
            sc.now(),
            node.0,
            core.0,
            TraceEvent::DaemonWake {
                name: src_name,
                src: src_idx as u64,
                cost,
            },
        );
        sc.stretch_running(core, cost, tag);
        self.schedule_noise(sc, node, src_idx, core_local);
    }

    fn net_deliver(&mut self, sc: &mut SimCore, msg: NetMsg) {
        match msg.tag % 4 {
            1 => self.ion_service(sc, msg),
            2 => self.cn_reply(sc, msg),
            _ => {}
        }
    }

    fn on_ipi(&mut self, sc: &mut SimCore, core: CoreId, kind: u32) {
        if kind != IPI_GUARD_REPOSITION {
            return;
        }
        let _node = sc.node_of_core(core);
        let Some(proc_id) = self.sched.home_proc(core) else {
            return;
        };
        let Some(p) = self.procs.get(proc_id.0 as u64) else {
            return;
        };
        if let Some(g) = &p.heap_guard {
            Self::arm_guard(sc, core, g.slot, g.lo, g.hi);
        }
    }

    fn on_fault(&mut self, sc: &mut SimCore, core: CoreId, kind: u32) {
        if kind != bgsim::machine::FAULT_PARITY {
            return;
        }
        // §V.B: "CNK was able to handle L1 parity errors by signaling the
        // application with the error to allow the application to perform
        // recovery."
        sc.stretch_running(core, PARITY_HANDLER_COST, 0x2000 | kind as u64);
        if let Some(tid) = sc.running_on(core) {
            let p = self.procs.get(sc.thread(tid).proc.0 as u64);
            self.posix
                .post_signal(sc, tid, Sig::Parity, p.map(|p| &p.posix));
        }
    }

    fn on_ras(&mut self, sc: &mut SimCore, node: NodeId, ev: &FaultEvent) {
        // The machine already reported the event when it dispatched it:
        // counted (`ras.events`) and traced as a `Fault` entry named by
        // its kind, whatever the recovery is.
        match ev.kind {
            FaultKind::CiodShortWrite => self.shorten_inflight_writes(sc, node),
            FaultKind::GuardStorm => {
                // A storm of spurious DAC guard violations: each one
                // costs handler time on its core, none is a real
                // protection fault, so nobody gets signaled. Survivable
                // noise, visible in `fault.guard`.
                for local in 0..sc.cores_per_node() {
                    let core = sc.core_of(node, local);
                    sc.tel
                        .count(sc.tel.ids.guard_faults, Slot::Core(core.0), ev.arg);
                    sc.trace.record(
                        sc.now(),
                        node.0,
                        core.0,
                        TraceEvent::GuardStorm { hits: ev.arg },
                    );
                    sc.stretch_running(core, ev.arg * GUARD_STORM_COST, 0x3000);
                }
            }
            // Machine checks arrive separately through `on_fault`; the
            // invariant sweep only needs to know one happened.
            FaultKind::MachineCheck => self.machine_checked = true,
            // Network faults were applied by the machine layer.
            _ => {}
        }
    }

    fn check_invariants(&self, sc: &SimCore) -> Vec<String> {
        use bgsim::machine::ThreadState;
        let mut v = self.posix.check_invariants(sc);

        // No lost CIOD replies: every pending function-ship request must
        // still have its issuer waiting on it (a fatal machine check
        // tears the job down with requests legitimately in flight).
        let fatal = self.machine_checked;
        for (id, req) in self.pending_io.iter() {
            let (PendingIo::Plain { tid } | PendingIo::MmapFill { tid, .. }) = req.io;
            match sc.threads.get(tid.idx()) {
                None => v.push(format!(
                    "pending io #{id}: issuer tid {} does not exist",
                    tid.0
                )),
                Some(t) if t.state.is_live() && t.state != ThreadState::Blocked(BlockKind::Io) => {
                    v.push(format!(
                        "pending io #{id}: issuer tid {} is live but not io-blocked ({:?})",
                        tid.0, t.state
                    ));
                }
                Some(_) => {}
            }
        }
        if sc.live_threads() == 0 && !fatal && !self.pending_io.is_empty() {
            v.push(format!(
                "job finished cleanly with {} CIOD request(s) still pending (lost replies)",
                self.pending_io.len()
            ));
        }

        // Memory-partition conservation: within each process the static
        // map plus attached persistent regions must tile without
        // overlap, virtually and (for the map) physically.
        for (pid, p) in self.procs.iter() {
            let pid = ProcId(pid as u32);
            let mut vspans: Vec<(u64, u64, &'static str)> = Vec::new();
            for r in &p.aspace.map.regions {
                if r.bytes == 0 {
                    v.push(format!("proc {}: zero-byte map region {:?}", pid.0, r.kind));
                    continue;
                }
                vspans.push((r.vaddr, r.vend(), "map"));
            }
            for r in &p.aspace.persist {
                vspans.push((r.vaddr, r.vend(), "persist"));
            }
            vspans.sort_unstable();
            for w in vspans.windows(2) {
                if w[1].0 < w[0].1 {
                    v.push(format!(
                        "proc {}: {} region [{:#x},{:#x}) overlaps {} region [{:#x},{:#x})",
                        pid.0, w[0].2, w[0].0, w[0].1, w[1].2, w[1].0, w[1].1
                    ));
                }
            }
            let mut pspans: Vec<(u64, u64)> = p
                .aspace
                .map
                .regions
                .iter()
                .filter(|r| r.bytes > 0)
                .map(|r| (r.paddr, r.paddr + r.bytes))
                .collect();
            pspans.sort_unstable();
            for w in pspans.windows(2) {
                if w[1].0 < w[0].1 {
                    v.push(format!(
                        "proc {}: physical spans [{:#x},{:#x}) and [{:#x},{:#x}) overlap",
                        pid.0, w[0].0, w[0].1, w[1].0, w[1].1
                    ));
                }
            }
            let live = sc
                .threads_of(pid)
                .iter()
                .filter(|&&t| sc.thread(t).state.is_live())
                .count() as u32;
            if live != p.live_threads {
                v.push(format!(
                    "proc {}: live_threads={} but {} live thread(s) in the machine",
                    pid.0, p.live_threads, live
                ));
            }
        }

        // Function-ship plumbing on the I/O nodes.
        for c in &self.ciods {
            v.extend(c.check_invariants(&self.vfs));
        }
        v
    }

    fn translate(&self, sc: &SimCore, tid: Tid, vaddr: u64) -> Option<u64> {
        let proc = sc.thread(tid).proc;
        self.procs.get(proc.0 as u64)?.aspace.translate(vaddr)
    }

    fn resident_bytes(&self) -> usize {
        self.procs.resident_bytes()
            + self
                .procs
                .iter()
                .map(|(_, p)| p.resident_bytes())
                .sum::<usize>()
            + self.posix.resident_bytes()
            + self.persist.capacity() * std::mem::size_of::<PersistRegistry>()
            + self.ciods.capacity() * std::mem::size_of::<Ciod>()
            + self.ciods.iter().map(Ciod::resident_bytes).sum::<usize>()
            + self.ion_rng.resident_bytes()
            + self.noise_rng.resident_bytes()
            + self.pending_io.resident_bytes()
            + self.ion_busy_until.capacity() * std::mem::size_of::<u64>()
            + self
                .served
                .values()
                .map(|r| r.capacity() + 48)
                .sum::<usize>()
    }

    fn comm_caps(&self, _sc: &SimCore, _tid: Tid) -> CommCaps {
        CommCaps::cnk()
    }

    fn utsname(&self) -> UtsName {
        UtsName::cnk()
    }

    fn features(&self) -> bgsim::features::FeatureMatrix {
        crate::features::matrix()
    }
}
