//! A minimal bare-metal diagnostic kernel and a fixed-latency comm model.
//!
//! The paper notes that "the CNK kernel low-core leverages aspects of the
//! Blue Gene/L Advanced Diagnostic Environment" (§III). `AdeKernel` plays
//! that role here: a nearly policy-free kernel with identity translation,
//! FIFO per-core scheduling, and a tiny syscall surface. It exists to
//! exercise the machine executor, to serve as the "runs on partial
//! hardware" bring-up baseline, and to let other crates write tests
//! without pulling in the full CNK/FWK implementations.

use std::collections::{HashMap, VecDeque};

use sysabi::{CoreId, Errno, JobSpec, NodeId, ProcId, Rank, SysReq, SysRet, Tid, UtsName};

use crate::features::{Capability, Ease, EaseRange, FeatureEntry, FeatureMatrix};
use crate::machine::{
    BlockKind, BootReport, CommAction, CommCaps, CommModel, JobMap, Kernel, LaunchError,
    MemOpResult, NetMsg, RankInfo, RecvInfo, SimCore, SyscallAction, Workload, WorkloadFactory,
};
use crate::op::{CloneArgs, CommOp};

/// The diagnostic kernel.
#[derive(Default)]
pub struct AdeKernel {
    ready: HashMap<u32, VecDeque<Tid>>,
    next_proc: u32,
}

impl AdeKernel {
    pub fn new() -> AdeKernel {
        AdeKernel::default()
    }

    fn requeue(&mut self, core: CoreId, tid: Tid) {
        self.ready.entry(core.0).or_default().push_back(tid);
    }
}

impl Kernel for AdeKernel {
    fn name(&self) -> &'static str {
        "ade"
    }

    fn boot(&mut self, _sc: &mut SimCore, reproducible: bool) -> BootReport {
        // The diagnostic environment does almost nothing at boot.
        let init = if reproducible { 800 } else { 2_000 };
        BootReport {
            kernel: "ade",
            instructions: init + 3_000,
            phases: vec![("lowcore", init), ("units", 3_000)],
        }
    }

    fn reset(&mut self) {
        self.ready.clear();
        self.next_proc = 0;
    }

    fn launch(
        &mut self,
        sc: &mut SimCore,
        spec: &JobSpec,
        factory: &mut dyn WorkloadFactory,
    ) -> Result<JobMap, LaunchError> {
        let ppn = spec.mode.procs_per_node();
        let cpp = spec.mode.cores_per_proc();
        let mut ranks = Vec::new();
        for node in 0..spec.nodes {
            for p in 0..ppn {
                let rank = Rank(node * ppn + p);
                let proc = ProcId(self.next_proc);
                self.next_proc += 1;
                let core = sc.core_of(NodeId(node), p * cpp);
                let wl = factory.main_workload(rank);
                let tid = sc.create_thread(proc, NodeId(node), core, wl);
                ranks.push(RankInfo {
                    rank,
                    proc,
                    node: NodeId(node),
                    main_tid: tid,
                });
            }
        }
        Ok(JobMap { ranks })
    }

    fn syscall(&mut self, sc: &mut SimCore, tid: Tid, req: &SysReq) -> SyscallAction {
        match req {
            SysReq::Uname => SyscallAction::Done {
                ret: SysRet::Uname(self.utsname()),
                cost: 60,
            },
            SysReq::Gettid => SyscallAction::Done {
                ret: SysRet::Val(tid.0 as i64),
                cost: 40,
            },
            SysReq::Getpid => SyscallAction::Done {
                ret: SysRet::Val(sc.thread(tid).proc.0 as i64),
                cost: 40,
            },
            SysReq::Write { data, .. } => SyscallAction::Done {
                ret: SysRet::Val(data.len() as i64),
                cost: 500,
            },
            SysReq::SchedYield => {
                let core = sc.thread(tid).core;
                self.requeue(core, tid);
                SyscallAction::YieldCpu
            }
            SysReq::ExitThread { code } => SyscallAction::ExitThread { code: *code },
            SysReq::ExitGroup { code } => SyscallAction::ExitProc { code: *code },
            _ => SyscallAction::Done {
                ret: SysRet::Err(Errno::ENOSYS),
                cost: 60,
            },
        }
    }

    fn spawn(
        &mut self,
        sc: &mut SimCore,
        parent: Tid,
        _args: &CloneArgs,
        core_hint: Option<u32>,
        child: Box<dyn Workload>,
    ) -> (SysRet, u64) {
        let pt = sc.thread(parent);
        let (proc, node) = (pt.proc, pt.node);
        let local = core_hint.unwrap_or((sc.threads_of(proc).len() as u32) % sc.cores_per_node());
        let core = sc.core_of(node, local % sc.cores_per_node());
        let tid = sc.create_thread(proc, node, core, child);
        if sc.core_idle(core) {
            sc.dispatch(tid);
        } else {
            self.requeue(core, tid);
        }
        (SysRet::Val(tid.0 as i64), 900)
    }

    fn mem_touch(
        &mut self,
        sc: &mut SimCore,
        tid: Tid,
        vaddr: u64,
        bytes: u64,
        _write: bool,
    ) -> MemOpResult {
        // Identity mapping; DAC ranges still apply.
        let core = sc.thread(tid).core;
        if sc.dacs[core.idx()].check(vaddr).is_some() {
            let proc = sc.thread(tid).proc;
            sc.defer_kill(proc, 139);
            return MemOpResult {
                cost: 200,
                faulted: true,
            };
        }
        MemOpResult {
            cost: (bytes / 8).max(1),
            faulted: false,
        }
    }

    fn pick_next(&mut self, _sc: &mut SimCore, core: CoreId) -> Option<Tid> {
        self.ready.get_mut(&core.0)?.pop_front()
    }

    fn on_unblock(&mut self, sc: &mut SimCore, tid: Tid) {
        let core = sc.thread(tid).core;
        if sc.core_idle(core) {
            sc.dispatch(tid);
        } else {
            self.requeue(core, tid);
        }
    }

    fn on_exit(&mut self, _sc: &mut SimCore, _tid: Tid) {}

    fn kernel_event(&mut self, _sc: &mut SimCore, _node: NodeId, _tag: u64) {}

    fn net_deliver(&mut self, _sc: &mut SimCore, _msg: NetMsg) {}

    fn on_ipi(&mut self, _sc: &mut SimCore, _core: CoreId, _kind: u32) {}

    fn on_fault(&mut self, _sc: &mut SimCore, _core: CoreId, _kind: u32) {}

    fn translate(&self, _sc: &SimCore, _tid: Tid, vaddr: u64) -> Option<u64> {
        Some(vaddr) // identity
    }

    fn comm_caps(&self, _sc: &SimCore, _tid: Tid) -> CommCaps {
        CommCaps::cnk()
    }

    fn utsname(&self) -> UtsName {
        UtsName {
            sysname: "ADE".to_string(),
            release: sysabi::uname::KernelVersion::new(0, 9, 0, 0),
            machine: "ppc450".to_string(),
        }
    }

    fn features(&self) -> FeatureMatrix {
        FeatureMatrix {
            kernel: "ade",
            entries: vec![FeatureEntry {
                cap: Capability::CycleReproducible,
                use_ease: EaseRange::exact(Ease::Easy),
                implement_ease: None,
            }],
        }
    }
}

/// A fixed-latency, infinite-bandwidth-overlap comm model: every
/// point-to-point op costs the hardware transfer plus a constant software
/// overhead. Good enough for executor tests and bring-up runs.
pub struct FixedLatencyComm {
    job: Option<JobMap>,
    send_overhead: u64,
    /// (dst_rank, tag) → waiting tid
    waiting: HashMap<(u32, u32), Tid>,
    /// Arrived-but-unmatched messages per (dst_rank, tag): (src, bytes).
    unexpected: HashMap<(u32, u32), VecDeque<(u32, u64)>>,
    /// In-flight msg id → (src_rank, dst_rank, tag, bytes).
    inflight: HashMap<u64, (u32, u32, u32, u64)>,
    /// Collective state: arrivals and participants.
    coll_arrived: Vec<Tid>,
    coll_seq: u64,
}

impl FixedLatencyComm {
    pub fn new() -> FixedLatencyComm {
        FixedLatencyComm {
            job: None,
            send_overhead: 400,
            waiting: HashMap::new(),
            unexpected: HashMap::new(),
            inflight: HashMap::new(),
            coll_arrived: Vec::new(),
            coll_seq: 0,
        }
    }

    fn node_of(&self, r: Rank) -> NodeId {
        self.job.as_ref().expect("no job").rank(r).node
    }
}

impl Default for FixedLatencyComm {
    fn default() -> Self {
        Self::new()
    }
}

impl CommModel for FixedLatencyComm {
    fn name(&self) -> &'static str {
        "fixed-latency"
    }

    fn configure_job(&mut self, _sc: &SimCore, job: &JobMap, _caps: CommCaps) {
        self.job = Some(job.clone());
        self.waiting.clear();
        self.unexpected.clear();
        self.inflight.clear();
        self.coll_arrived.clear();
    }

    fn issue(
        &mut self,
        sc: &mut SimCore,
        _caps: &CommCaps,
        tid: Tid,
        rank: Rank,
        op: &CommOp,
    ) -> CommAction {
        match op {
            CommOp::Send { to, bytes, tag, .. } => {
                let src_node = self.node_of(rank);
                let dst_node = self.node_of(*to);
                let id = sc.torus_send(src_node, dst_node, *bytes, *tag as u64, vec![], 0);
                self.inflight.insert(id, (rank.0, to.0, *tag, *bytes));
                CommAction::RunFor {
                    cycles: self.send_overhead,
                }
            }
            CommOp::Recv { tag, .. } => {
                if let Some(q) = self.unexpected.get_mut(&(rank.0, *tag)) {
                    if let Some((src, bytes)) = q.pop_front() {
                        sc.inbox_mut(tid).pending_recv = Some(RecvInfo {
                            from: Rank(src),
                            bytes,
                            tag: *tag,
                        });
                        return CommAction::RunFor {
                            cycles: self.send_overhead,
                        };
                    }
                }
                self.waiting.insert((rank.0, *tag), tid);
                CommAction::Block {
                    kind: BlockKind::Recv,
                }
            }
            CommOp::Put { to, bytes, .. }
            | CommOp::Get {
                from: to, bytes, ..
            } => {
                let hops = sc.torus.hops(self.node_of(rank), self.node_of(*to));
                let cycles = self.send_overhead + sc.torus.transfer_cycles(*bytes, hops);
                CommAction::RunFor { cycles }
            }
            CommOp::Barrier | CommOp::Allreduce { .. } => {
                self.coll_arrived.push(tid);
                let n = self.job.as_ref().map_or(1, |j| j.nranks()) as usize;
                if self.coll_arrived.len() == n {
                    self.coll_seq += 1;
                    let done = sc.now() + sc.barrier.cross();
                    for t in self.coll_arrived.drain(..) {
                        sc.schedule_coll_done(t, self.coll_seq, done);
                    }
                }
                CommAction::Block {
                    kind: BlockKind::Coll,
                }
            }
        }
    }

    fn net_deliver(&mut self, sc: &mut SimCore, msg: NetMsg) {
        let Some((src, dst, tag, bytes)) = self.inflight.remove(&msg.id) else {
            return;
        };
        if let Some(tid) = self.waiting.remove(&(dst, tag)) {
            sc.inbox_mut(tid).pending_recv = Some(RecvInfo {
                from: Rank(src),
                bytes,
                tag,
            });
            sc.defer_unblock(tid, Some(SysRet::Val(bytes as i64)));
        } else {
            self.unexpected
                .entry((dst, tag))
                .or_default()
                .push_back((src, bytes));
        }
    }
}
