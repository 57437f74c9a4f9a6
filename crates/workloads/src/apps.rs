//! Synthetic profiles of the §V.B application suite.
//!
//! "OpenMP-based benchmarks such as AMG, IRS, and SPhot run threaded on
//! CNK without modification. The UMT benchmark also runs without
//! modification, and it is driven by a Python script, which uses dynamic
//! linking. UMT also uses OpenMP threads. FLASH, MILC, ... LAMMPS, and
//! CACTUS are known to scale on CNK to more than 130,000 cores."
//!
//! Each profile is a composition of the runtime pieces a real build of
//! the application exercises: NPTL init, dlopen of libraries, OpenMP
//! parallel regions (pthreads + futex barriers), MPI halo exchanges and
//! reductions, and checkpoint I/O. Running a profile to completion on a
//! kernel is the reproduction's "runs out-of-the-box" check.

use bgsim::machine::{Recorder, WlEnv, Workload};
use bgsim::op::{ApiLayer, CommOp, Op, Protocol};
use sysabi::{DynLib, MapFlags, Prot, Rank, SysReq};

use crate::dynlink::DynlinkApp;
use crate::nptl::{NptlInit, PthreadCreate, PthreadJoin};
use crate::sync::{BarrierWait, MutexLock, MutexUnlock};

/// Run workloads one after another (a part finishing = returning
/// `Op::End`; `Seq` converts that into advancing to the next part).
pub struct Seq {
    parts: Vec<Box<dyn Workload>>,
    i: usize,
    label: String,
}

impl Seq {
    pub fn new(label: &str, parts: Vec<Box<dyn Workload>>) -> Seq {
        Seq {
            parts,
            i: 0,
            label: label.to_string(),
        }
    }
}

impl Workload for Seq {
    fn next(&mut self, env: &mut WlEnv<'_>) -> Op {
        while self.i < self.parts.len() {
            match self.parts[self.i].next(env) {
                Op::End => self.i += 1,
                op => return op,
            }
        }
        Op::End
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// An OpenMP parallel region: the calling (master) thread maps a sync
/// page, spawns `threads - 1` workers, and all of them run `rounds`
/// rounds of compute + futex barrier; the master then joins the workers.
pub struct OmpRegion {
    threads: u32,
    rounds: u32,
    chunk_cycles: u64,
    state: u8,
    base: u64,
    init: NptlInit,
    create: Option<PthreadCreate>,
    next_worker: u32,
    joins: Vec<(u32, u64)>,
    join: Option<PthreadJoin>,
    body: Option<OmpBody>,
}

impl OmpRegion {
    pub fn new(threads: u32, rounds: u32, chunk_cycles: u64) -> OmpRegion {
        assert!((1..=4).contains(&threads));
        OmpRegion {
            threads,
            rounds,
            chunk_cycles,
            state: 0,
            base: 0,
            init: NptlInit::new(),
            create: None,
            next_worker: 1,
            joins: Vec::new(),
            join: None,
            body: None,
        }
    }
}

/// The per-thread loop body: compute a chunk, hit the barrier, repeat.
struct OmpBody {
    rounds: u32,
    round: u32,
    chunk_cycles: u64,
    id: u32,
    barrier_base: u64,
    n: u32,
    phase: u8,
    barrier: BarrierWait,
}

impl OmpBody {
    fn new(id: u32, rounds: u32, chunk: u64, base: u64, n: u32) -> OmpBody {
        OmpBody {
            rounds,
            round: 0,
            chunk_cycles: chunk,
            id,
            barrier_base: base,
            n,
            phase: 0,
            barrier: BarrierWait::new(base, n),
        }
    }

    fn step(&mut self, env: &mut WlEnv<'_>) -> Option<Op> {
        loop {
            if self.round >= self.rounds {
                return None;
            }
            match self.phase {
                0 => {
                    self.phase = 1;
                    // Unequal chunks: thread 0 gets the remainder rows.
                    return Some(Op::Compute {
                        cycles: self.chunk_cycles + 211 * self.id as u64,
                    });
                }
                _ => match self.barrier.step(env) {
                    Some(op) => return Some(op),
                    None => {
                        self.round += 1;
                        self.phase = 0;
                        self.barrier = BarrierWait::new(self.barrier_base, self.n);
                    }
                },
            }
        }
    }
}

impl Workload for OmpRegion {
    fn next(&mut self, env: &mut WlEnv<'_>) -> Op {
        loop {
            match self.state {
                0 => {
                    if let Some(op) = self.init.step(env) {
                        return op;
                    }
                    self.state = 1;
                    // Map the sync page (mutex/cond/count trio at +0).
                    return Op::Syscall(SysReq::Mmap {
                        addr: 0,
                        len: 64 << 10,
                        prot: Prot::READ | Prot::WRITE,
                        flags: MapFlags::PRIVATE | MapFlags::ANONYMOUS,
                        fd: None,
                        offset: 0,
                    });
                }
                1 => {
                    self.base = env.take_ret().expect("mmap").val() as u64;
                    self.state = 2;
                    return Op::MemTouch {
                        vaddr: self.base,
                        bytes: 64,
                        write: true,
                    };
                }
                2 => {
                    for off in [0u64, 4, 8] {
                        env.mem_write_u32(self.base + off, 0);
                    }
                    self.state = 3;
                }
                3 => {
                    // Spawn workers on cores 1..threads.
                    if self.create.is_none() {
                        if self.next_worker >= self.threads {
                            self.state = 4;
                            self.body = Some(OmpBody::new(
                                0,
                                self.rounds,
                                self.chunk_cycles,
                                self.base,
                                self.threads,
                            ));
                            continue;
                        }
                        let id = self.next_worker;
                        self.next_worker += 1;
                        let mut body = OmpBody::new(
                            id,
                            self.rounds,
                            self.chunk_cycles,
                            self.base,
                            self.threads,
                        );
                        self.create = Some(PthreadCreate::new(
                            bgsim::script::wl(move |env| match body.step(env) {
                                Some(op) => op,
                                None => Op::End,
                            }),
                            Some(id),
                        ));
                    }
                    if let Some(op) = self.create.as_mut().unwrap().step(env) {
                        return op;
                    }
                    let done = self.create.take().unwrap();
                    let (tid, word) = done
                        .created
                        .unwrap_or_else(|| panic!("omp spawn failed: {:?}", done.error));
                    self.joins.push((tid, word));
                }
                4 => match self.body.as_mut().unwrap().step(env) {
                    Some(op) => return op,
                    None => self.state = 5,
                },
                5 => {
                    if self.join.is_none() {
                        match self.joins.pop() {
                            Some((tid, word)) => self.join = Some(PthreadJoin::new(tid, word)),
                            None => return Op::End,
                        }
                    }
                    if let Some(op) = self.join.as_mut().unwrap().step(env) {
                        return op;
                    }
                    self.join = None;
                }
                _ => return Op::End,
            }
        }
    }

    fn label(&self) -> &str {
        "omp-region"
    }
}

/// An MPI halo-exchange + reduction phase (the communication skeleton of
/// FLASH/MILC-style stencil codes).
pub struct HaloPhase {
    rank: Rank,
    nranks: u32,
    steps: u32,
    bytes: u64,
    step: u32,
    phase: u8,
}

impl HaloPhase {
    pub fn new(rank: Rank, nranks: u32, steps: u32, bytes: u64) -> HaloPhase {
        HaloPhase {
            rank,
            nranks,
            steps,
            bytes,
            step: 0,
            phase: 0,
        }
    }

    fn left(&self) -> Rank {
        Rank((self.rank.0 + self.nranks - 1) % self.nranks)
    }

    fn right(&self) -> Rank {
        Rank((self.rank.0 + 1) % self.nranks)
    }
}

impl Workload for HaloPhase {
    fn next(&mut self, _env: &mut WlEnv<'_>) -> Op {
        if self.step >= self.steps {
            return Op::End;
        }
        let op = match self.phase {
            0 => Op::Compute { cycles: 60_000 },
            1 => Op::Comm(CommOp::Send {
                to: self.right(),
                bytes: self.bytes,
                tag: 42,
                proto: Protocol::Auto,
                layer: ApiLayer::Mpi,
            }),
            2 => Op::Comm(CommOp::Recv {
                from: Some(self.left()),
                tag: 42,
                layer: ApiLayer::Mpi,
            }),
            _ => Op::Comm(CommOp::Allreduce { bytes: 8 }),
        };
        if self.phase == 3 {
            self.phase = 0;
            self.step += 1;
        } else {
            self.phase += 1;
        }
        op
    }

    fn label(&self) -> &str {
        "halo"
    }
}

/// A critical-section phase (threaded reduction into a shared tally —
/// IRS-style). Exercises the contended mutex path.
pub struct TallyPhase {
    iters: u32,
    base: u64,
    state: u8,
    i: u32,
    lock: MutexLock,
    unlock: MutexUnlock,
}

impl TallyPhase {
    /// `base` must point at a mapped, zeroed word pair.
    pub fn new(base: u64, iters: u32) -> TallyPhase {
        TallyPhase {
            iters,
            base,
            state: 0,
            i: 0,
            lock: MutexLock::new(base),
            unlock: MutexUnlock::new(base),
        }
    }
}

impl Workload for TallyPhase {
    fn next(&mut self, env: &mut WlEnv<'_>) -> Op {
        loop {
            if self.i >= self.iters {
                return Op::End;
            }
            match self.state {
                0 => {
                    self.state = 1;
                    return Op::Compute { cycles: 900 };
                }
                1 => match self.lock.step(env) {
                    Some(op) => return op,
                    None => {
                        let v = env.mem_read_u32(self.base + 8).unwrap();
                        env.mem_write_u32(self.base + 8, v + 1);
                        self.state = 2;
                    }
                },
                _ => match self.unlock.step(env) {
                    Some(op) => return op,
                    None => {
                        self.i += 1;
                        self.state = 0;
                        self.lock = MutexLock::new(self.base);
                        self.unlock = MutexUnlock::new(self.base);
                    }
                },
            }
        }
    }

    fn label(&self) -> &str {
        "tally"
    }
}

/// Application profiles: what each §V.B program asks of the kernel.
pub struct AppProfiles;

impl AppProfiles {
    /// AMG: OpenMP multigrid cycles.
    pub fn amg() -> Box<dyn Workload> {
        Box::new(Seq::new(
            "amg",
            vec![
                Box::new(OmpRegion::new(4, 8, 40_000)),
                Box::new(OmpRegion::new(4, 4, 120_000)),
            ],
        ))
    }

    /// SPhot: OpenMP Monte Carlo with a long uniform region.
    pub fn sphot() -> Box<dyn Workload> {
        Box::new(Seq::new(
            "sphot",
            vec![Box::new(OmpRegion::new(4, 16, 25_000))],
        ))
    }

    /// IRS: OpenMP with contended reductions — modeled as an OMP region
    /// followed by checkpoint I/O.
    pub fn irs(rank: u32, rec: Recorder) -> Box<dyn Workload> {
        Box::new(Seq::new(
            "irs",
            vec![
                Box::new(OmpRegion::new(4, 6, 50_000)),
                Box::new(crate::io_kernel::CheckpointApp::new(rank, 1, rec)),
            ],
        ))
    }

    /// UMT: Python-driven dynamic linking, then OpenMP (§IV.B.2 + §V.B).
    pub fn umt(libs: Vec<DynLib>, rec: Recorder) -> Box<dyn Workload> {
        Box::new(Seq::new(
            "umt",
            vec![
                Box::new(DynlinkApp::new(libs, rec)),
                Box::new(OmpRegion::new(4, 6, 80_000)),
            ],
        ))
    }

    /// A FLASH/MILC-style MPI stencil code (per rank).
    pub fn stencil(rank: Rank, nranks: u32) -> Box<dyn Workload> {
        Box::new(Seq::new(
            "stencil",
            vec![Box::new(HaloPhase::new(rank, nranks, 12, 32 << 10))],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgsim::machine::Machine;
    use bgsim::trace::TraceEvent;
    use bgsim::MachineConfig;
    use cnk::Cnk;
    use dcmf::Dcmf;
    use sysabi::{AppImage, JobSpec, NodeMode};

    #[test]
    fn omp_region_completes_and_spawns_workers() {
        let mut m = Machine::new(
            MachineConfig::single_node().with_seed(41).with_trace(),
            Box::new(Cnk::with_defaults()),
            Box::new(Dcmf::with_defaults()),
        );
        m.boot();
        m.launch(
            &JobSpec::new(AppImage::static_test("omp"), 1, NodeMode::Smp),
            &mut |_r: Rank| -> Box<dyn Workload> { Box::new(OmpRegion::new(4, 5, 30_000)) },
        )
        .unwrap();
        let out = m.run();
        assert!(out.completed(), "{out:?}");
        assert_eq!(m.sc.threads.len(), 4, "3 workers spawned");
        // Workers actually computed.
        for t in 1..4u32 {
            let cycles: u64 =
                m.sc.trace
                    .entries()
                    .iter()
                    .map(|e| match e.what {
                        TraceEvent::OpStart { tid, cost, .. } if tid == t => cost,
                        _ => 0,
                    })
                    .sum();
            assert!(cycles > 5 * 30_000, "worker {t} ran {cycles} cycles");
        }
    }

    #[test]
    fn halo_phase_over_mpi() {
        let mut m = Machine::new(
            MachineConfig::nodes(4).with_seed(42).with_trace(),
            Box::new(Cnk::with_defaults()),
            Box::new(Dcmf::with_defaults()),
        );
        m.boot();
        m.launch(
            &JobSpec::new(AppImage::static_test("stencil"), 4, NodeMode::Smp),
            &mut |r: Rank| AppProfiles::stencil(r, 4),
        )
        .unwrap();
        let out = m.run();
        assert!(out.completed(), "{out:?}");
        // The stencil only talks over the torus: every send is a halo.
        let sends =
            m.sc.trace
                .entries()
                .iter()
                .filter(|e| matches!(e.what, TraceEvent::MsgSend { .. }))
                .count();
        assert!(sends >= 4 * 12, "halo messages missing");
    }
}
