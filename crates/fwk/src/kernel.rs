//! The FWK kernel object. The futex and signal mechanics are the shared
//! `bgsim::posix` module, under the FWK's costs and machine-check rule.

use std::collections::{HashMap, VecDeque};

use bgsim::chip;
use bgsim::engine::EvHandle;
use bgsim::idmap::IdMap;
use bgsim::machine::{
    BootReport, CommCaps, JobMap, Kernel, LaunchError, MemOpResult, NetMsg, RankInfo, SimCore,
    SyscallAction, Workload, WorkloadFactory,
};
use bgsim::op::CloneArgs;
use bgsim::posix::{done, err, Posix, PosixPolicy, PosixProc};
use bgsim::rng::LazyStreams;
use bgsim::telemetry::{Domain, Slot};
use bgsim::tlb::{TlbEntry, TLB_MISS_CYCLES};
use bgsim::trace::TraceEvent;
use ciod::{IoProxy, Vfs};
use sysabi::{
    CloneFlags, CoreId, Errno, JobSpec, NodeId, ProcId, Rank, Sig, SysReq, SysRet, Tid, UtsName,
};

use crate::noise::{linux_2_6_16_profile, NoiseSource};
use crate::vm::{FwkAddressSpace, FAULT_COST, PAGE};

/// Local syscall trap cost (Linux's heavier entry path).
const SYSCALL_BASE: u64 = 260;
/// Base local I/O service cost (VFS + page cache).
const IO_BASE: u64 = 2_600;
/// Extra for metadata operations that synchronously hit the NFS server.
const IO_METADATA: u64 = 30_000;
/// clone(2) on Linux.
const CLONE_COST: u64 = 4_500;

/// The FWK's policy for the shared NPTL calls: Linux's heavier costs,
/// and an unhandled SIGPARITY is ignored like any non-fatal signal.
const POSIX: PosixPolicy = PosixPolicy {
    base: SYSCALL_BASE,
    futex: 140,
    efault: 60,
    sigaction: 90,
    tgkill: 300,
    segv: 900,
    parity_kills: false,
};

// Kernel event tag layout: kind in the top byte.
const TAG_NOISE: u64 = 1 << 56;
const TAG_TIMESLICE: u64 = 2 << 56;
const TAG_RECOVERY: u64 = 3 << 56;

/// RAS recovery burst: after any injected fault, the logging/recovery
/// daemons (mcelogd parse, EDAC scrub, syslog flush) fire three times
/// at these offsets, stretching core 0 by the matching decaying cost.
/// This is the Linux-side contrast to CNK's fire-and-forget RAS path.
const RECOVERY_DELAY: [u64; 3] = [400_000, 900_000, 1_500_000];
const RECOVERY_COST: [u64; 3] = [90_000, 45_000, 25_000];

/// FWK tunables.
#[derive(Clone, Debug)]
pub struct FwkConfig {
    /// Stripped-down image (affects boot length only).
    pub stripped: bool,
    /// Noise sources; default is the tuned 2.6.16 profile of Fig. 5.
    pub noise: Vec<NoiseSource>,
    /// Round-robin timeslice in cycles (Linux: ~10 ms à 850 MHz; FWQ's
    /// quantum is shorter, so this mostly matters under overcommit).
    pub timeslice: u64,
    pub uid: u32,
    pub gid: u32,
}

impl Default for FwkConfig {
    fn default() -> Self {
        FwkConfig {
            stripped: true,
            noise: linux_2_6_16_profile(),
            timeslice: 8_500_000,
            uid: 1000,
            gid: 100,
        }
    }
}

impl FwkConfig {
    /// A noiseless FWK (ablation: isolate paging/scheduling effects from
    /// daemon noise).
    pub fn noiseless() -> FwkConfig {
        FwkConfig {
            noise: Vec::new(),
            ..FwkConfig::default()
        }
    }
}

struct FwkProcess {
    node: NodeId,
    aspace: FwkAddressSpace,
    posix: PosixProc,
    live_threads: u32,
}

/// First allocatable frame: physical pages above a 32 MB kernel image.
const FRAME_BASE: u64 = (32 << 20) / PAGE;

/// The Linux-like kernel.
///
/// Like CNK, the per-node and per-core columns materialize on first
/// touch: an idle node on a large rack costs no kernel-side heap, and
/// the RNG streams are pure functions of `(seed, name, node)`, so lazy
/// creation draws the same sequences the old eager columns did.
pub struct Fwk {
    pub cfg: FwkConfig,
    /// Processes keyed by `ProcId` — ids allocated monotonically, so
    /// iteration (teardown, parity-kill victim collection) runs in
    /// allocation order instead of `HashMap` order.
    procs: IdMap<FwkProcess>,
    next_proc: u32,
    /// Per-core ready queues, indexed by global core id and grown on
    /// first enqueue (no thread limit: overcommit allowed).
    ready: Vec<VecDeque<Tid>>,
    /// Cores with a timeslice event in flight, keyed to the handle so a
    /// drained queue cancels the slice in O(1) instead of letting it
    /// surface as a stale pop (`sched.stale_timeslice`).
    ts_pending: Vec<Option<EvHandle>>,
    /// Absolute deadline of each core's most recent arm (0 = never).
    /// Kept across a cancel: contention returning before the old expiry
    /// re-arms at the original deadline, so preemption times are
    /// bit-identical to the count-and-discard scheme this replaces
    /// (where the in-flight event simply kept its timestamp).
    ts_deadline: Vec<u64>,
    posix: Posix,
    /// Next free physical frame per node, grown on first fault
    /// (`FRAME_BASE` until then).
    next_frame: Vec<u64>,
    frame_limit: u64,
    /// The mounted network filesystem (shared by all nodes, like NFS).
    vfs: Vfs,
    proxies: IdMap<IoProxy>,
    noise_rng: LazyStreams,
    io_rng: LazyStreams,
    /// Dirty page-cache bytes per node, written back by the pdflush
    /// noise source (couples application I/O to compute-core noise —
    /// the coupling CNK's function shipping removes, §IV.A).
    dirty_bytes: Vec<u64>,
    booted: bool,
}

impl Fwk {
    pub fn new(cfg: FwkConfig) -> Fwk {
        Fwk {
            cfg,
            procs: IdMap::new(),
            next_proc: 0,
            ready: Vec::new(),
            ts_pending: Vec::new(),
            ts_deadline: Vec::new(),
            posix: Posix::new(POSIX),
            next_frame: Vec::new(),
            frame_limit: 0,
            vfs: Vfs::new(),
            proxies: IdMap::new(),
            noise_rng: LazyStreams::new("fwk-noise"),
            io_rng: LazyStreams::new("fwk-io"),
            dirty_bytes: Vec::new(),
            booted: false,
        }
    }

    pub fn with_defaults() -> Fwk {
        Fwk::new(FwkConfig::default())
    }

    pub fn vfs_mut(&mut self) -> &mut Vfs {
        &mut self.vfs
    }

    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Console output of a process.
    pub fn console_of(&self, proc: ProcId) -> Option<Vec<u8>> {
        self.proxies.get(proc.0 as u64).map(|p| p.console.clone())
    }

    /// The core's ready queue, materialized on first enqueue.
    fn readyq(ready: &mut Vec<VecDeque<Tid>>, core: u32) -> &mut VecDeque<Tid> {
        if ready.len() <= core as usize {
            ready.resize_with(core as usize + 1, VecDeque::new);
        }
        &mut ready[core as usize]
    }

    fn alloc_frame(next_frame: &mut Vec<u64>, limit: u64, node: NodeId) -> Option<u64> {
        if next_frame.len() <= node.idx() {
            next_frame.resize(node.idx() + 1, FRAME_BASE);
        }
        let f = &mut next_frame[node.idx()];
        if *f >= limit {
            return None;
        }
        let frame = *f;
        *f += 1;
        Some(frame)
    }

    fn enqueue(&mut self, sc: &mut SimCore, core: CoreId, tid: Tid) {
        Self::readyq(&mut self.ready, core.0).push_back(tid);
        // Contention: make sure the timeslice preemption runs.
        if !sc.core_idle(core) {
            self.arm_timeslice(sc, core);
        }
    }

    /// Arm the round-robin slice for `core` unless one is in flight. A
    /// slice cancelled on queue drain leaves its deadline behind, and
    /// contention returning before that expiry re-arms at the original
    /// deadline — exactly when the old in-flight event would have fired.
    fn arm_timeslice(&mut self, sc: &mut SimCore, core: CoreId) {
        let ci = core.0 as usize;
        if self.ts_pending.get(ci).is_some_and(|s| s.is_some()) {
            return;
        }
        let now = sc.now();
        let prev = self.ts_deadline.get(ci).copied().unwrap_or(0);
        let at = if prev > now {
            prev
        } else {
            now + self.cfg.timeslice
        };
        let node = sc.node_of_core(core);
        let h = sc.schedule_kernel_event(node, TAG_TIMESLICE | core.0 as u64, at);
        if self.ts_pending.len() <= ci {
            self.ts_pending.resize_with(ci + 1, || None);
        }
        if self.ts_deadline.len() <= ci {
            self.ts_deadline.resize(ci + 1, 0);
        }
        self.ts_pending[ci] = Some(h);
        self.ts_deadline[ci] = at;
    }

    /// The core's ready queue drained: cancel the in-flight slice (O(1)
    /// in the event slab) so it never surfaces as a stale pop.
    fn cancel_timeslice(&mut self, sc: &mut SimCore, core_local: u32) {
        if let Some(h) = self
            .ts_pending
            .get_mut(core_local as usize)
            .and_then(|s| s.take())
        {
            sc.cancel_kernel_event(h);
        }
    }

    /// Cancel slices whose queues are (now) empty — used after bulk
    /// removals (`on_exit`'s retain, `launch`'s queue clear). Dense
    /// per-core storage makes the cancel sweep run in core order.
    fn cancel_drained_timeslices(&mut self, sc: &mut SimCore) {
        let drained: Vec<u32> = self
            .ts_pending
            .iter()
            .enumerate()
            .filter(|(c, s)| s.is_some() && self.ready.get(*c).is_none_or(|q| q.is_empty()))
            .map(|(c, _)| c as u32)
            .collect();
        for c in drained {
            self.cancel_timeslice(sc, c);
        }
    }

    fn schedule_noise(&mut self, sc: &mut SimCore, node: NodeId, src_idx: usize, core_local: u32) {
        let delay = {
            let src = &self.cfg.noise[src_idx];
            src.next_delay(self.noise_rng.get(&sc.hub, node.idx()))
        };
        let tag = TAG_NOISE | ((src_idx as u64) << 8) | core_local as u64;
        sc.schedule_kernel_event_in(node, tag, delay);
    }

    fn io_cost(&mut self, sc: &SimCore, node: NodeId, req: &SysReq) -> u64 {
        // Writes land in the page cache and must be written back later
        // by pdflush — on the compute node's own cores.
        if self.dirty_bytes.len() <= node.idx() {
            self.dirty_bytes.resize(node.idx() + 1, 0);
        }
        self.dirty_bytes[node.idx()] =
            self.dirty_bytes[node.idx()].saturating_add(req.outbound_bytes());
        let payload = req.outbound_bytes() + req.inbound_bytes();
        let mut c = IO_BASE + payload / 4 + ciod::vfs_jitter(self.io_rng.get(&sc.hub, node.idx()));
        if matches!(
            req,
            SysReq::Open { .. }
                | SysReq::Stat { .. }
                | SysReq::Mkdir { .. }
                | SysReq::Unlink { .. }
                | SysReq::Rmdir { .. }
                | SysReq::Rename { .. }
                | SysReq::Fsync { .. }
        ) {
            c += IO_METADATA;
        }
        c
    }
}

impl Kernel for Fwk {
    fn name(&self) -> &'static str {
        "fwk"
    }

    fn boot(&mut self, sc: &mut SimCore, _reproducible: bool) -> BootReport {
        let nodes = sc.cfg.nodes as usize;
        // Per-node columns regrow on demand; RNG streams restart from
        // their seeds each boot.
        self.posix.reset();
        self.next_frame.clear();
        self.frame_limit = sc.cfg.chip.dram_bytes / PAGE;
        self.noise_rng = LazyStreams::new("fwk-noise");
        self.io_rng = LazyStreams::new("fwk-io");
        self.dirty_bytes.clear();
        // A fault-injected machine boots with the RAS logging daemons
        // loaded too (guarded so a re-boot does not append twice).
        if !sc.cfg.faults.is_empty() && !self.cfg.noise.iter().any(|s| s.name == "mcelogd") {
            self.cfg.noise.extend(crate::noise::ras_recovery_daemons());
        }
        // Arm the noise machinery (§V.A: the daemons that "cannot be
        // suspended").
        for node in 0..nodes as u32 {
            for (i, src) in self.cfg.noise.clone().iter().enumerate() {
                for core in 0..sc.cfg.chip.cores {
                    if src.cores.contains(core) {
                        self.schedule_noise(sc, NodeId(node), i, core);
                    }
                }
            }
        }
        self.booted = true;
        crate::boot::boot_report(self.cfg.stripped)
    }

    fn reset(&mut self) {
        self.procs.clear();
        self.ready.clear();
        self.ts_pending.clear();
        self.ts_deadline.clear();
        self.posix.reset();
        self.proxies.clear();
        self.booted = false;
    }

    fn launch(
        &mut self,
        sc: &mut SimCore,
        spec: &JobSpec,
        factory: &mut dyn WorkloadFactory,
    ) -> Result<JobMap, LaunchError> {
        assert!(self.booted, "launch before boot");
        let old: Vec<u64> = self.procs.keys().collect();
        for proc in old {
            self.procs.remove(proc);
            self.proxies.remove(proc);
        }
        self.ready.clear();
        self.cancel_drained_timeslices(sc);
        self.posix.reset();

        let ppn = spec.mode.procs_per_node();
        let cpp = spec.mode.cores_per_proc();
        let mut ranks = Vec::new();
        for node in 0..spec.nodes {
            let node_id = NodeId(node);
            for pi in 0..ppn {
                let rank = Rank(node * ppn + pi);
                let proc = ProcId(self.next_proc);
                self.next_proc += 1;
                let main_core = sc.core_of(node_id, pi * cpp);
                let wl = factory.main_workload(rank);
                let tid = sc.create_thread(proc, node_id, main_core, wl);
                self.procs.insert(
                    proc.0 as u64,
                    FwkProcess {
                        node: node_id,
                        aspace: FwkAddressSpace::new(),
                        posix: PosixProc::default(),
                        live_threads: 1,
                    },
                );
                self.proxies.insert(
                    proc.0 as u64,
                    IoProxy::new(proc.0, self.cfg.uid, self.cfg.gid, &self.vfs),
                );
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
        let proc_id = sc.thread(tid).proc;
        let node = sc.thread(tid).node;

        // I/O is serviced locally: the compute node *is* a filesystem
        // client (the client-count problem of §VII.A).
        if req.is_io() {
            let cost = self.io_cost(sc, node, req);
            let Some(proxy) = self.proxies.get_mut(proc_id.0 as u64) else {
                return err(Errno::ESRCH, SYSCALL_BASE);
            };
            let ret = proxy.execute(&mut self.vfs, req);
            return done(ret, SYSCALL_BASE + cost);
        }
        // The NPTL calls both kernels share. A futex word faults its page
        // in, as a real access would.
        let (lim, frames) = (self.frame_limit, &mut self.next_frame);
        let (posix, mut aspace) = self
            .procs
            .get_mut(proc_id.0 as u64)
            .map(|p| (&mut p.posix, &mut p.aspace))
            .unzip();
        let translate = |va| {
            aspace
                .as_mut()?
                .translate_faulting(va, || Self::alloc_frame(frames, lim, node))
        };
        if let Some(action) = self.posix.syscall(sc, tid, req, posix, translate) {
            return action;
        }

        match req {
            SysReq::Brk { addr } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return err(Errno::ESRCH, SYSCALL_BASE);
                };
                let b = p.aspace.brk(*addr);
                done(SysRet::Val(b as i64), SYSCALL_BASE + 240)
            }
            SysReq::Mmap {
                len,
                prot,
                fd,
                offset,
                ..
            } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return err(Errno::ESRCH, SYSCALL_BASE);
                };
                let Some(addr) = p.aspace.mmap(*len, *prot) else {
                    return err(Errno::ENOMEM, SYSCALL_BASE + 380);
                };
                match fd {
                    None => done(SysRet::Val(addr as i64), SYSCALL_BASE + 380),
                    Some(fd) => {
                        // Full mmap support: copy the file content in
                        // eagerly (we do not model lazy file faults, but
                        // protection is enforced — the part CNK lacks).
                        let Some(proxy) = self.proxies.get_mut(proc_id.0 as u64) else {
                            return err(Errno::ESRCH, SYSCALL_BASE);
                        };
                        let data = match proxy.execute(
                            &mut self.vfs,
                            &SysReq::Pread {
                                fd: *fd,
                                len: *len,
                                offset: *offset,
                            },
                        ) {
                            SysRet::Data(d) => d,
                            SysRet::Err(e) => return err(e, SYSCALL_BASE + 380),
                            _ => return err(Errno::EIO, SYSCALL_BASE + 380),
                        };
                        // Fault the pages in and copy.
                        let nf = &mut self.next_frame;
                        let lim = self.frame_limit;
                        let touch = p.aspace.touch(addr, (*len).max(1), true, || {
                            Self::alloc_frame(nf, lim, node)
                        });
                        if touch.unmapped {
                            return err(Errno::ENOMEM, SYSCALL_BASE + 380);
                        }
                        let mut off = 0u64;
                        while (off as usize) < data.len() {
                            if let Some(pa) = p.aspace.translate(addr + off) {
                                let n = (PAGE - (addr + off) % PAGE).min(data.len() as u64 - off);
                                let _ = sc.dram[node.idx()]
                                    .write(pa, &data[off as usize..(off + n) as usize]);
                                off += n;
                            } else {
                                break;
                            }
                        }
                        // Restore the requested protection after the copy
                        // (the copy needed write access internally).
                        p.aspace.mprotect(addr, *len, *prot);
                        let copy_cost = data.len() as u64 / 4 + touch.faults as u64 * FAULT_COST;
                        done(SysRet::Val(addr as i64), SYSCALL_BASE + 380 + copy_cost)
                    }
                }
            }
            SysReq::Munmap { addr, len } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return err(Errno::ESRCH, SYSCALL_BASE);
                };
                p.aspace.munmap(*addr, *len);
                done(SysRet::Val(0), SYSCALL_BASE + 300)
            }
            SysReq::Mprotect { addr, len, prot } => {
                let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
                    return err(Errno::ESRCH, SYSCALL_BASE);
                };
                p.aspace.mprotect(*addr, *len, *prot);
                done(SysRet::Val(0), SYSCALL_BASE + 260)
            }
            SysReq::Clone { .. } => err(Errno::EINVAL, SYSCALL_BASE),
            SysReq::SchedYield => {
                let core = sc.thread(tid).core;
                Self::readyq(&mut self.ready, core.0).push_back(tid);
                SyscallAction::YieldCpu
            }
            SysReq::Gettid => done(SysRet::Val(tid.0 as i64), SYSCALL_BASE),
            SysReq::Getpid => done(SysRet::Val(proc_id.0 as i64), SYSCALL_BASE),
            SysReq::Uname => done(SysRet::Uname(self.utsname()), SYSCALL_BASE + 110),
            SysReq::ExitThread { code } => SyscallAction::ExitThread { code: *code },
            SysReq::ExitGroup { code } => SyscallAction::ExitProc { code: *code },
            // fork/exec as bare syscalls carry no program to run in this
            // simulation; process creation goes through Op::Spawn with
            // fork-style flags, which the FWK accepts (and CNK refuses).
            SysReq::Fork | SysReq::Exec { .. } => err(Errno::EINVAL, SYSCALL_BASE),
            // CNK specials are absent on Linux.
            SysReq::PersistOpen { .. }
            | SysReq::QueryStaticMap
            | SysReq::AffinityPartner { .. } => err(Errno::ENOSYS, SYSCALL_BASE),
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
        let parent_proc = sc.thread(parent).proc;
        let node = sc.thread(parent).node;
        let is_thread = args.flags.contains(CloneFlags::THREAD);
        // Placement: hint or least-loaded core on the node (Linux would
        // balance; overcommit is allowed — Table II).
        let core = match core_hint {
            Some(local) if local < sc.cfg.chip.cores => sc.core_of(node, local),
            Some(_) => return (SysRet::Err(Errno::EINVAL), SYSCALL_BASE),
            None => {
                let mut best = sc.core_of(node, 0);
                let mut best_q = usize::MAX;
                for local in 0..sc.cfg.chip.cores {
                    let c = sc.core_of(node, local);
                    let q = self.ready.get(c.0 as usize).map_or(0, |q| q.len())
                        + usize::from(!sc.core_idle(c));
                    if q < best_q {
                        best_q = q;
                        best = c;
                    }
                }
                best
            }
        };
        let (proc_id, cost) = if is_thread {
            if args.flags != CloneFlags::NPTL_THREAD_FLAGS {
                return (SysRet::Err(Errno::EINVAL), SYSCALL_BASE);
            }
            (parent_proc, CLONE_COST)
        } else {
            // fork+exec path: a new process with a fresh address space
            // and ioproxy-equivalent local fd table.
            let proc = ProcId(self.next_proc);
            self.next_proc += 1;
            self.procs.insert(
                proc.0 as u64,
                FwkProcess {
                    node,
                    aspace: FwkAddressSpace::new(),
                    posix: PosixProc::default(),
                    live_threads: 0,
                },
            );
            self.proxies.insert(
                proc.0 as u64,
                IoProxy::new(proc.0, self.cfg.uid, self.cfg.gid, &self.vfs),
            );
            (proc, CLONE_COST * 4)
        };
        let tid = sc.create_thread(proc_id, node, core, child);
        if let Some(p) = self.procs.get_mut(proc_id.0 as u64) {
            p.live_threads += 1;
            if args.flags.contains(CloneFlags::CHILD_CLEARTID) {
                p.posix.set_clear_tid(tid, args.child_tid_addr);
            }
        }
        if args.flags.contains(CloneFlags::PARENT_SETTID) && args.parent_tid_addr != 0 {
            if let Some(pa) = self.translate(sc, parent, args.parent_tid_addr) {
                let _ = sc.dram[node.idx()].write_u32(pa, tid.0);
            }
        }
        if sc.core_idle(core) {
            sc.dispatch(tid);
        } else {
            self.enqueue(sc, core, tid);
        }
        (SysRet::Val(tid.0 as i64), cost)
    }

    fn mem_touch(
        &mut self,
        sc: &mut SimCore,
        tid: Tid,
        vaddr: u64,
        bytes: u64,
        write: bool,
    ) -> MemOpResult {
        let proc_id = sc.thread(tid).proc;
        let node = sc.thread(tid).node;
        let core = sc.thread(tid).core;
        let Some(p) = self.procs.get_mut(proc_id.0 as u64) else {
            return MemOpResult {
                cost: 1,
                faulted: false,
            };
        };
        let nf = &mut self.next_frame;
        let lim = self.frame_limit;
        let out = p
            .aspace
            .touch(vaddr, bytes, write, || Self::alloc_frame(nf, lim, node));
        if out.violation || out.unmapped {
            let why = if out.violation {
                "protection"
            } else {
                "unmapped"
            };
            return self.posix.segv(sc, tid, vaddr, why, Some(&p.posix));
        }
        // Software TLB refills: fill 4 KiB entries per touched page that
        // is not resident in the TLB (§IV.C: translation-miss noise).
        let mut tlb_misses = 0u64;
        let first = vaddr / PAGE;
        let last = (vaddr + bytes.max(1) - 1) / PAGE;
        for vp in first..=last {
            let va = vp * PAGE;
            if sc.tlbs[core.idx()].lookup(va).is_none() {
                tlb_misses += 1;
                if let Some(pa) = self
                    .procs
                    .get(proc_id.0 as u64)
                    .and_then(|p| p.aspace.translate(va))
                {
                    let _ = sc.tlbs[core.idx()].fill(TlbEntry {
                        vaddr: va,
                        paddr: pa & !(PAGE - 1),
                        size: PAGE,
                        pinned: false,
                    });
                }
            }
        }
        if out.faults > 0 {
            sc.tel.count(
                sc.tel.ids.page_faults,
                Slot::Core(core.0),
                out.faults as u64,
            );
            sc.trace.record(
                sc.now(),
                node.0,
                core.0,
                TraceEvent::PageFault {
                    tid: tid.0,
                    faults: out.faults as u64,
                },
            );
        }
        if tlb_misses > 0 {
            sc.tel
                .count(sc.tel.ids.tlb_refills, Slot::Core(core.0), tlb_misses);
            sc.trace.record(
                sc.now(),
                node.0,
                core.0,
                TraceEvent::TlbRefill {
                    tid: tid.0,
                    misses: tlb_misses,
                },
            );
        }
        let cost = chip::stream_cycles(&sc.cfg.chip, bytes, 1).max(1)
            + out.faults as u64 * FAULT_COST
            + tlb_misses * TLB_MISS_CYCLES;
        MemOpResult {
            cost,
            faulted: false,
        }
    }

    fn pick_next(&mut self, sc: &mut SimCore, core: CoreId) -> Option<Tid> {
        let q = self.ready.get_mut(core.0 as usize)?;
        let t = q.pop_front();
        if t.is_some() && q.is_empty() {
            self.cancel_timeslice(sc, core.0);
        }
        t
    }

    fn on_unblock(&mut self, sc: &mut SimCore, tid: Tid) {
        let core = sc.thread(tid).core;
        if sc.core_idle(core) {
            sc.dispatch(tid);
        } else {
            self.enqueue(sc, core, tid);
        }
    }

    fn on_exit(&mut self, sc: &mut SimCore, tid: Tid) {
        let proc_id = sc.thread(tid).proc;
        for q in self.ready.iter_mut() {
            q.retain(|&t| t != tid);
        }
        self.cancel_drained_timeslices(sc);
        let mut clear_tid = None;
        if let Some(p) = self.procs.get_mut(proc_id.0 as u64) {
            p.live_threads = p.live_threads.saturating_sub(1);
            clear_tid = p
                .posix
                .take_clear_tid(tid)
                .and_then(|a| p.aspace.translate(a));
        }
        self.posix.exit_thread(sc, tid, clear_tid);
    }

    fn kernel_event(&mut self, sc: &mut SimCore, node: NodeId, tag: u64) {
        match tag >> 56 {
            1 => {
                // Noise firing.
                let src_idx = ((tag >> 8) & 0xffff) as usize;
                let core_local = (tag & 0xff) as u32;
                if src_idx >= self.cfg.noise.len() {
                    return;
                }
                let mut cost = {
                    let src = &self.cfg.noise[src_idx];
                    src.cost(self.noise_rng.get(&sc.hub, node.idx()))
                };
                // The writeback daemon's firing grows with dirty data:
                // ~1 extra cycle per 16 dirty bytes, split across its
                // cores, capped at one long scan. A node with no column
                // yet has no dirty data — nothing to add.
                if self.cfg.noise[src_idx].name == "pdflush" {
                    if let Some(dirty) = self.dirty_bytes.get_mut(node.idx()) {
                        let extra = (*dirty / 16).min(120_000);
                        *dirty = dirty.saturating_sub(extra * 16);
                        cost += extra;
                    }
                }
                let core = sc.core_of(node, core_local);
                sc.tel.count(sc.tel.ids.daemon_wakes, Slot::Core(core.0), 1);
                sc.trace.record(
                    sc.now(),
                    node.0,
                    core.0,
                    TraceEvent::DaemonWake {
                        name: self.cfg.noise[src_idx].name,
                        src: src_idx as u64,
                        cost,
                    },
                );
                // Zero-cycle span: the stretch below accounts `cost`
                // cycles in Sched, this counts the wake without double
                // counting.
                sc.prof.span(Domain::Sched, 0);
                sc.stretch_running(core, cost, tag);
                self.schedule_noise(sc, node, src_idx, core_local);
            }
            2 => {
                // Timeslice expiry on a core.
                let core = CoreId((tag & 0xffff_ffff) as u32);
                if let Some(slot) = self.ts_pending.get_mut(core.0 as usize) {
                    *slot = None;
                }
                let queued = self.ready.get(core.0 as usize).map_or(0, |q| q.len());
                if queued == 0 {
                    // Stale expiry: the contention that armed this slice
                    // drained before it fired. Counted so the event-queue
                    // churn is visible (see `sched.stale_timeslice`).
                    sc.tel
                        .count(sc.tel.ids.stale_timeslice, Slot::Node(node.0), 1);
                    return;
                }
                let prev_proc = sc.running_on(core).map(|t| sc.thread(t).proc);
                if let Some(preempted) = sc.preempt(core) {
                    Self::readyq(&mut self.ready, core.0).push_back(preempted);
                }
                if sc.core_idle(core) {
                    if let Some(next) = self.pick_next(sc, core) {
                        // The PPC450 TLB is untagged: switching to a
                        // different address space flushes the unpinned
                        // entries (refilled on demand — more noise).
                        if prev_proc.is_some() && prev_proc != Some(sc.thread(next).proc) {
                            sc.tlbs[core.idx()].flush_unpinned();
                        }
                        sc.dispatch(next);
                    }
                }
                // Keep slicing while there is still contention.
                if self.ready.get(core.0 as usize).map_or(0, |q| q.len()) > 0 {
                    self.arm_timeslice(sc, core);
                }
            }
            3 => {
                // RAS recovery burst firing: the logging daemons catch
                // up on core 0, at a cost that decays as the backlog
                // drains.
                let i = (tag & 0xff) as usize % RECOVERY_COST.len();
                let cost = RECOVERY_COST[i];
                let core = sc.core_of(node, 0);
                sc.tel.count(sc.tel.ids.daemon_wakes, Slot::Core(core.0), 1);
                sc.trace.record(
                    sc.now(),
                    node.0,
                    core.0,
                    TraceEvent::DaemonWake {
                        name: "ras-recovery",
                        src: i as u64,
                        cost,
                    },
                );
                sc.prof.span(Domain::FaultRas, 0);
                sc.stretch_running(core, cost, tag);
            }
            _ => {}
        }
    }

    fn net_deliver(&mut self, _sc: &mut SimCore, _msg: NetMsg) {
        // The FWK does no function shipping.
    }

    fn on_ipi(&mut self, _sc: &mut SimCore, _core: CoreId, _kind: u32) {}

    fn on_ras(&mut self, sc: &mut SimCore, node: NodeId, ev: &bgsim::fault::FaultEvent) {
        // Every RAS event — even one whose hardware effect Linux never
        // sees, like a link drop absorbed by CRC retransmit — wakes the
        // recovery daemons for a three-firing burst.
        for (i, &d) in RECOVERY_DELAY.iter().enumerate() {
            sc.schedule_kernel_event_in(node, TAG_RECOVERY | i as u64, d);
        }
        if ev.kind == bgsim::fault::FaultKind::GuardStorm {
            // No DAC guard hardware on Linux: the storm lands as `arg`
            // spurious DSIs per core, each at full page-fault-entry
            // cost — the expensive path CNK's guard repositioning
            // shortcut avoids.
            for core_local in 0..sc.cfg.chip.cores {
                let core = sc.core_of(node, core_local);
                sc.stretch_running(core, ev.arg * FAULT_COST, 0x3000);
            }
        }
    }

    fn on_fault(&mut self, sc: &mut SimCore, core: CoreId, kind: u32) {
        if kind != bgsim::machine::FAULT_PARITY {
            return;
        }
        // Linux cannot recover an L1 parity machine check: kernel panic,
        // everything on the node dies (the contrast to §V.B).
        let node = sc.node_of_core(core);
        let victims: Vec<ProcId> = self
            .procs
            .iter()
            .filter(|(_, p)| p.node == node)
            .map(|(id, _)| ProcId(id as u32))
            .collect();
        for proc in victims {
            sc.defer_kill(proc, 128 + Sig::Bus as i32);
        }
    }

    fn check_invariants(&self, sc: &SimCore) -> Vec<String> {
        use bgsim::machine::ThreadState;
        let mut v = Vec::new();

        // Ready-queue accounting: every queued tid names an existing,
        // runnable (Ready or never-dispatched Idle) thread, and no tid
        // sits in two queues at once.
        let mut queued: HashMap<Tid, usize> = HashMap::new();
        for (core, q) in self.ready.iter().enumerate() {
            for tid in q {
                *queued.entry(*tid).or_insert(0) += 1;
                match sc.threads.get(tid.idx()) {
                    None => v.push(format!(
                        "ready queue core {core}: tid {} does not exist",
                        tid.0
                    )),
                    Some(t) if !matches!(t.state, ThreadState::Ready | ThreadState::Idle) => v
                        .push(format!(
                            "ready queue core {core}: tid {} is not runnable ({:?})",
                            tid.0, t.state
                        )),
                    Some(_) => {}
                }
            }
        }
        for (tid, n) in &queued {
            if *n > 1 {
                v.push(format!("tid {} enqueued on {n} ready queues", tid.0));
            }
        }

        v.extend(self.posix.check_invariants(sc));

        // Per-process thread accounting and local-I/O proxy state.
        for (pid, p) in self.procs.iter() {
            let pid = ProcId(pid as u32);
            let live = sc
                .threads
                .iter()
                .filter(|t| t.proc == pid && t.state.is_live())
                .count() as u32;
            if live != p.live_threads {
                v.push(format!(
                    "proc {}: live_threads={} but {} live thread(s) in the machine",
                    pid.0, p.live_threads, live
                ));
            }
        }
        for (_, p) in self.proxies.iter() {
            for msg in p.check_fds(&self.vfs) {
                v.push(format!("fwk ioproxy: {msg}"));
            }
        }
        v
    }

    fn translate(&self, sc: &SimCore, tid: Tid, vaddr: u64) -> Option<u64> {
        let proc = sc.thread(tid).proc;
        self.procs.get(proc.0 as u64)?.aspace.translate(vaddr)
    }

    fn comm_caps(&self, _sc: &SimCore, _tid: Tid) -> CommCaps {
        CommCaps::fwk()
    }

    fn utsname(&self) -> UtsName {
        UtsName::linux_2_6_16()
    }

    fn features(&self) -> bgsim::features::FeatureMatrix {
        crate::features::matrix()
    }

    fn resident_bytes(&self) -> usize {
        self.procs.resident_bytes()
            + self.proxies.resident_bytes()
            + self.ready.capacity() * std::mem::size_of::<VecDeque<Tid>>()
            + self
                .ready
                .iter()
                .map(|q| q.capacity() * std::mem::size_of::<Tid>())
                .sum::<usize>()
            + self.ts_pending.capacity() * std::mem::size_of::<Option<EvHandle>>()
            + self.ts_deadline.capacity() * std::mem::size_of::<u64>()
            + self.posix.resident_bytes()
            + self.next_frame.capacity() * std::mem::size_of::<u64>()
            + self.dirty_bytes.capacity() * std::mem::size_of::<u64>()
            + self.noise_rng.resident_bytes()
            + self.io_rng.resident_bytes()
    }
}
