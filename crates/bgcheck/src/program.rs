//! The generated-program model: a structured language of kernel-facing
//! operations plus a seeded generator.
//!
//! A [`Program`] is deliberately *shared* across ranks — every rank
//! interprets the same op list — so collectives stay matched and a
//! send-ring always has a matching receive. Divergence between two
//! executions of the same program is therefore always the machine's
//! fault, never the program's.

use bgsim::fault::{FaultEvent, FaultKind, FaultSchedule};
use bgsim::machine::WlEnv;
use bgsim::op::{ApiLayer, CommOp, Op, Protocol};
use bgsim::rng::{uniform_incl, RngHub};
use sysabi::{Fd, FutexOp, OpenFlags, Rank, SysReq, SysRet};
use workloads::nptl::{PthreadCreate, PthreadJoin};

/// One generated operation. Each variant expands (per rank) to one or
/// more machine [`Op`]s via the interpreter in [`Program::factory`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum POp {
    /// A fixed compute quantum.
    Compute { cycles: u64 },
    /// The daxpy kernel (`n` elements, `reps` sweeps).
    Daxpy { n: u64, reps: u64 },
    /// A streaming memory sweep.
    Stream { bytes: u64 },
    /// A flop-bound quantum.
    Flops { flops: u64 },
    /// gettid(2): the cheapest syscall round trip.
    Gettid,
    /// sched_yield from the workload's point of view.
    YieldNow,
    /// A function-shipped console write.
    ConsoleWrite { bytes: u64 },
    /// open → pwrite → fsync → close on a per-rank file: the full
    /// function-ship (CNK) / local-VFS (FWK) I/O path.
    FileRoundtrip { bytes: u64 },
    /// pthread_create a compute child, then pthread_join it: the
    /// clone path plus futex wait/wake via CLONE_CHILD_CLEARTID.
    SpawnJoin { cycles: u64 },
    /// futex(WAKE) with no waiters parked (wake accounting edge case).
    FutexWake { count: u32 },
    /// Barrier over all ranks.
    Barrier,
    /// Allreduce of `bytes` over all ranks.
    Allreduce { bytes: u64 },
    /// Eager send to rank+1, receive from rank−1 (a matched ring).
    SendRing { bytes: u64 },
}

impl POp {
    /// Script-line name (`compute`, `spawn-join`, ...).
    pub fn name(self) -> &'static str {
        match self {
            POp::Compute { .. } => "compute",
            POp::Daxpy { .. } => "daxpy",
            POp::Stream { .. } => "stream",
            POp::Flops { .. } => "flops",
            POp::Gettid => "gettid",
            POp::YieldNow => "yield",
            POp::ConsoleWrite { .. } => "console-write",
            POp::FileRoundtrip { .. } => "file-roundtrip",
            POp::SpawnJoin { .. } => "spawn-join",
            POp::FutexWake { .. } => "futex-wake",
            POp::Barrier => "barrier",
            POp::Allreduce { .. } => "allreduce",
            POp::SendRing { .. } => "send-ring",
        }
    }

    /// Numeric arguments in script-line order.
    pub fn args(self) -> Vec<u64> {
        match self {
            POp::Compute { cycles } => vec![cycles],
            POp::Daxpy { n, reps } => vec![n, reps],
            POp::Stream { bytes } => vec![bytes],
            POp::Flops { flops } => vec![flops],
            POp::Gettid | POp::YieldNow | POp::Barrier => Vec::new(),
            POp::ConsoleWrite { bytes } => vec![bytes],
            POp::FileRoundtrip { bytes } => vec![bytes],
            POp::SpawnJoin { cycles } => vec![cycles],
            POp::FutexWake { count } => vec![count as u64],
            POp::Allreduce { bytes } => vec![bytes],
            POp::SendRing { bytes } => vec![bytes],
        }
    }

    /// Inverse of `name`/`args`: build an op from script parts.
    pub fn from_parts(name: &str, args: &[u64]) -> Result<POp, String> {
        let want = |n: usize| -> Result<(), String> {
            if args.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "op {name} takes {n} argument(s), got {}",
                    args.len()
                ))
            }
        };
        match name {
            "compute" => {
                want(1)?;
                Ok(POp::Compute { cycles: args[0] })
            }
            "daxpy" => {
                want(2)?;
                Ok(POp::Daxpy {
                    n: args[0],
                    reps: args[1],
                })
            }
            "stream" => {
                want(1)?;
                Ok(POp::Stream { bytes: args[0] })
            }
            "flops" => {
                want(1)?;
                Ok(POp::Flops { flops: args[0] })
            }
            "gettid" => {
                want(0)?;
                Ok(POp::Gettid)
            }
            "yield" => {
                want(0)?;
                Ok(POp::YieldNow)
            }
            "console-write" => {
                want(1)?;
                Ok(POp::ConsoleWrite { bytes: args[0] })
            }
            "file-roundtrip" => {
                want(1)?;
                Ok(POp::FileRoundtrip { bytes: args[0] })
            }
            "spawn-join" => {
                want(1)?;
                Ok(POp::SpawnJoin { cycles: args[0] })
            }
            "futex-wake" => {
                want(1)?;
                Ok(POp::FutexWake {
                    count: args[0].min(u32::MAX as u64) as u32,
                })
            }
            "barrier" => {
                want(0)?;
                Ok(POp::Barrier)
            }
            "allreduce" => {
                want(1)?;
                Ok(POp::Allreduce { bytes: args[0] })
            }
            "send-ring" => {
                want(1)?;
                Ok(POp::SendRing { bytes: args[0] })
            }
            other => Err(format!("unknown op {}", bench::json::quote_head(other))),
        }
    }
}

/// A complete generated program: the machine shape, the seed, the
/// shared per-rank op list, and a fault schedule (possibly empty).
#[derive(Clone, Debug)]
pub struct Program {
    pub nodes: u32,
    pub seed: u64,
    pub ops: Vec<POp>,
    pub faults: FaultSchedule,
}

impl Program {
    /// One rank per node, SMP mode.
    pub fn ranks(&self) -> u32 {
        self.nodes
    }

    /// The job spec this program launches as.
    pub fn job_spec(&self) -> sysabi::JobSpec {
        sysabi::JobSpec::new(
            sysabi::AppImage::static_test("bgcheck"),
            self.nodes,
            sysabi::NodeMode::Smp,
        )
    }

    /// Order- and content-sensitive digest of the op list — the
    /// "program digest" leg of the service result-cache key. Two
    /// programs with the same digest interpret identically on every
    /// rank; op order, names, and arguments all perturb it.
    pub fn ops_digest(&self) -> u64 {
        let mut h = bgsim::config::DigestFold::new();
        h.word(self.ops.len() as u64);
        for op in &self.ops {
            for b in op.name().bytes() {
                h.word(b as u64);
            }
            let args = op.args();
            h.word(args.len() as u64);
            for a in args {
                h.word(a);
            }
        }
        h.finish()
    }

    /// A workload factory interpreting this program on every rank.
    pub fn factory(&self) -> impl FnMut(Rank) -> Box<dyn bgsim::machine::Workload> {
        let ops = self.ops.clone();
        let ranks = self.ranks();
        move |r: Rank| {
            let mut interp = Interp::new(ops.clone(), r.0, ranks);
            bgsim::script::wl(move |env| interp.step(env))
        }
    }
}

/// Payload bytes for write-class ops: rank-tagged so corrupted or
/// cross-wired data would change file contents (capped to keep wire
/// messages reasonable).
fn payload(bytes: u64, rank: u32) -> Vec<u8> {
    vec![(rank as u8).wrapping_add(0x40); bytes.clamp(1, 4096) as usize]
}

/// An address inside the static map's low window; whether the futex
/// wake resolves or faults is kernel policy — the point is that it
/// resolves *identically* across modes.
const WAKE_ADDR: u64 = 0x0040_0000;

/// The per-rank interpreter: walks the op list, expanding multi-step
/// ops (file round trips, clone/join) into their syscall sequences.
struct Interp {
    ops: Vec<POp>,
    rank: u32,
    ranks: u32,
    idx: usize,
    /// 0 = at an op boundary (pending ret not yet discarded).
    sub: u8,
    fd: Option<Fd>,
    create: Option<PthreadCreate>,
    join: Option<PthreadJoin>,
}

impl Interp {
    fn new(ops: Vec<POp>, rank: u32, ranks: u32) -> Interp {
        Interp {
            ops,
            rank,
            ranks,
            idx: 0,
            sub: 0,
            fd: None,
            create: None,
            join: None,
        }
    }

    fn step(&mut self, env: &mut WlEnv<'_>) -> Op {
        loop {
            let Some(op) = self.ops.get(self.idx).copied() else {
                let _ = env.take_ret();
                return Op::End;
            };
            if self.sub == 0 {
                // Op boundary: drop the previous op's stale return value.
                let _ = env.take_ret();
                self.sub = 1;
            }
            match self.micro(op, env) {
                Some(op) => return op,
                None => {
                    self.idx += 1;
                    self.sub = 0;
                    self.fd = None;
                    self.create = None;
                    self.join = None;
                }
            }
        }
    }

    /// Issue the next machine op for the current program op, or `None`
    /// when the program op is finished.
    fn micro(&mut self, op: POp, env: &mut WlEnv<'_>) -> Option<Op> {
        match op {
            POp::Compute { cycles } => self.once(Op::Compute {
                cycles: cycles.max(1),
            }),
            POp::Daxpy { n, reps } => self.once(Op::Daxpy {
                n: n.max(1),
                reps: reps.max(1),
            }),
            POp::Stream { bytes } => self.once(Op::Stream {
                bytes: bytes.max(1),
            }),
            POp::Flops { flops } => self.once(Op::Flops {
                flops: flops.max(1),
            }),
            POp::Gettid => self.once(Op::Syscall(SysReq::Gettid)),
            POp::YieldNow => self.once(Op::Yield),
            POp::ConsoleWrite { bytes } => self.once(Op::Syscall(SysReq::Write {
                fd: Fd::STDOUT,
                data: payload(bytes, self.rank),
            })),
            POp::FutexWake { count } => self.once(Op::Syscall(SysReq::Futex {
                uaddr: WAKE_ADDR,
                op: FutexOp::Wake {
                    count: count.max(1),
                },
            })),
            POp::Barrier => self.once(Op::Comm(CommOp::Barrier)),
            POp::Allreduce { bytes } => self.once(Op::Comm(CommOp::Allreduce {
                bytes: bytes.max(1),
            })),
            POp::FileRoundtrip { bytes } => self.file_roundtrip(bytes, env),
            POp::SpawnJoin { cycles } => self.spawn_join(cycles, env),
            POp::SendRing { bytes } => self.send_ring(bytes),
        }
    }

    fn once(&mut self, op: Op) -> Option<Op> {
        if self.sub == 1 {
            self.sub = 2;
            Some(op)
        } else {
            None
        }
    }

    fn file_roundtrip(&mut self, bytes: u64, env: &mut WlEnv<'_>) -> Option<Op> {
        match self.sub {
            1 => {
                self.sub = 2;
                Some(Op::Syscall(SysReq::Open {
                    path: format!("/bgcheck-r{}.dat", self.rank),
                    flags: OpenFlags::RDWR | OpenFlags::CREAT,
                    mode: 0o600,
                }))
            }
            2 => match env.take_ret() {
                Some(SysRet::Val(v)) if v >= 0 => {
                    self.fd = Some(Fd(v as i32));
                    self.sub = 3;
                    Some(Op::Syscall(SysReq::Pwrite {
                        fd: Fd(v as i32),
                        data: payload(bytes, self.rank),
                        offset: 0,
                    }))
                }
                // Open failed (deterministically): skip the rest.
                _ => None,
            },
            3 => {
                let _ = env.take_ret();
                self.sub = 4;
                self.fd.map(|fd| Op::Syscall(SysReq::Fsync { fd }))
            }
            4 => {
                let _ = env.take_ret();
                self.sub = 5;
                self.fd.map(|fd| Op::Syscall(SysReq::Close { fd }))
            }
            _ => None,
        }
    }

    fn spawn_join(&mut self, cycles: u64, env: &mut WlEnv<'_>) -> Option<Op> {
        if self.join.is_none() {
            let create = self.create.get_or_insert_with(|| {
                PthreadCreate::new(
                    bgsim::script::script(vec![Op::Compute {
                        cycles: cycles.max(1),
                    }]),
                    None,
                )
            });
            if let Some(op) = create.step(env) {
                return Some(op);
            }
            match create.created {
                Some((tid, word)) => self.join = Some(PthreadJoin::new(tid, word)),
                // Spawn failed (deterministically): skip the join.
                None => return None,
            }
        }
        self.join.as_mut().and_then(|j| j.step(env))
    }

    fn send_ring(&mut self, bytes: u64) -> Option<Op> {
        if self.ranks < 2 {
            return None;
        }
        let tag = self.idx as u32;
        match self.sub {
            1 => {
                self.sub = 2;
                Some(Op::Comm(CommOp::Send {
                    to: Rank((self.rank + 1) % self.ranks),
                    bytes: bytes.max(1),
                    tag,
                    proto: Protocol::Eager,
                    layer: ApiLayer::Mpi,
                }))
            }
            2 => {
                self.sub = 3;
                Some(Op::Comm(CommOp::Recv {
                    from: Some(Rank((self.rank + self.ranks - 1) % self.ranks)),
                    tag,
                    layer: ApiLayer::Mpi,
                }))
            }
            _ => None,
        }
    }
}

/// Generate a random program from `seed`. Same seed ⇒ same program
/// (the generator draws from the simulator's own named-stream RNG).
/// Fault schedules, when present, use only survivable kinds — fatal
/// machine checks are for scripted scenarios, not sweeps.
pub fn generate(seed: u64) -> Program {
    let mut rng = RngHub::new(seed).stream("bgcheck-gen");
    let nodes = [1, 2, 2, 4][uniform_incl(&mut rng, 0, 3) as usize];
    let n_ops = uniform_incl(&mut rng, 3, 12);
    let mut ops = Vec::with_capacity(n_ops as usize);
    for _ in 0..n_ops {
        ops.push(draw_op(&mut rng));
    }
    let mut faults = FaultSchedule::default();
    if uniform_incl(&mut rng, 0, 1) == 1 {
        let n_faults = uniform_incl(&mut rng, 1, 2);
        for _ in 0..n_faults {
            faults.push(draw_fault(&mut rng, nodes));
        }
    }
    Program {
        nodes,
        seed,
        ops,
        faults,
    }
}

fn draw_op(rng: &mut rand::rngs::SmallRng) -> POp {
    match uniform_incl(rng, 0, 12) {
        0 => POp::Compute {
            cycles: uniform_incl(rng, 500, 50_000),
        },
        1 => POp::Daxpy {
            n: uniform_incl(rng, 64, 1024),
            reps: uniform_incl(rng, 1, 6),
        },
        2 => POp::Stream {
            bytes: uniform_incl(rng, 1024, 65_536),
        },
        3 => POp::Flops {
            flops: uniform_incl(rng, 1_000, 200_000),
        },
        4 => POp::Gettid,
        5 => POp::YieldNow,
        6 => POp::ConsoleWrite {
            bytes: uniform_incl(rng, 1, 512),
        },
        7 => POp::FileRoundtrip {
            bytes: uniform_incl(rng, 16, 2048),
        },
        8 => POp::SpawnJoin {
            cycles: uniform_incl(rng, 1_000, 40_000),
        },
        9 => POp::FutexWake {
            count: uniform_incl(rng, 1, 4) as u32,
        },
        10 => POp::Barrier,
        11 => POp::Allreduce {
            bytes: uniform_incl(rng, 8, 256),
        },
        _ => POp::SendRing {
            bytes: uniform_incl(rng, 16, 4096),
        },
    }
}

/// The survivable fault mix (mirrors `FaultSchedule::from_seed`'s
/// kinds, but node-targeted at this program's shape).
fn draw_fault(rng: &mut rand::rngs::SmallRng, nodes: u32) -> FaultEvent {
    let node = uniform_incl(rng, 0, (nodes - 1) as u64) as u32;
    let at = uniform_incl(rng, 100_000, 4_000_000);
    let (kind, arg) = match uniform_incl(rng, 0, 6) {
        0 => (FaultKind::CollDrop, uniform_incl(rng, 400_000, 1_200_000)),
        1 => (FaultKind::CollDelay, uniform_incl(rng, 200_000, 800_000)),
        2 => (FaultKind::CollCorrupt, 0),
        3 => (FaultKind::CiodShortWrite, 0),
        4 => (FaultKind::TorusDrop, uniform_incl(rng, 50_000, 200_000)),
        5 => (FaultKind::TorusCorrupt, 0),
        _ => (FaultKind::GuardStorm, uniform_incl(rng, 1, 4)),
    };
    FaultEvent {
        at,
        node,
        kind,
        arg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(0xBEEF);
        let b = generate(0xBEEF);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.faults.events, b.faults.events);
        let c = generate(0xBEF0);
        assert!(a.ops != c.ops || a.nodes != c.nodes || a.faults.events != c.faults.events);
    }

    #[test]
    fn ops_digest_tracks_order_names_and_args() {
        let base = Program {
            nodes: 2,
            seed: 1,
            ops: vec![POp::Compute { cycles: 100 }, POp::Barrier],
            faults: Default::default(),
        };
        let d = base.ops_digest();
        // Seed and shape are NOT part of the ops digest (they key
        // separately in the service cache).
        let mut reseeded = base.clone();
        reseeded.seed = 2;
        reseeded.nodes = 4;
        assert_eq!(reseeded.ops_digest(), d);
        // Order, arguments, and op identity all are.
        let mut swapped = base.clone();
        swapped.ops.reverse();
        assert_ne!(swapped.ops_digest(), d);
        let mut retuned = base.clone();
        retuned.ops[0] = POp::Compute { cycles: 101 };
        assert_ne!(retuned.ops_digest(), d);
        let mut renamed = base.clone();
        renamed.ops[1] = POp::Gettid;
        assert_ne!(renamed.ops_digest(), d);
    }

    #[test]
    fn op_parts_round_trip() {
        let p = generate(7);
        for op in p.ops {
            let back = POp::from_parts(op.name(), &op.args()).expect("round trip");
            assert_eq!(op, back);
        }
    }

    #[test]
    fn from_parts_rejects_arity_and_unknown() {
        assert!(POp::from_parts("compute", &[]).is_err());
        assert!(POp::from_parts("no-such-op", &[1]).is_err());
        assert!(POp::from_parts("barrier", &[3]).is_err());
    }
}
