//! The operation IR that workloads yield to the machine.
//!
//! A workload is a generator of `Op`s; the kernel under test decides what
//! each op costs and how it is serviced. This is the key device that lets
//! the same application run unmodified on CNK and on the Linux-like FWK —
//! the reproduction analogue of the paper's "applications run on CNK
//! out-of-the-box" claim (§V.B).

use sysabi::{Rank, SysReq};

use crate::machine::Workload;

/// Which messaging API layer issues a communication op. Each layer adds
/// its own software overhead on top of DCMF (Table I).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApiLayer {
    /// Raw DCMF (lowest overhead).
    Dcmf,
    /// MPI point-to-point over DCMF (matching, request bookkeeping).
    Mpi,
    /// ARMCI one-sided over DCMF.
    Armci,
}

/// Point-to-point protocol selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protocol {
    /// Eager: payload travels with the envelope.
    Eager,
    /// Rendezvous: RTS/CTS handshake, then a zero-copy DMA of the payload.
    Rendezvous,
    /// Let the messaging layer pick by size.
    Auto,
}

/// A communication operation.
#[derive(Clone, PartialEq, Debug)]
pub enum CommOp {
    /// Two-sided send.
    Send {
        to: Rank,
        bytes: u64,
        tag: u32,
        proto: Protocol,
        layer: ApiLayer,
    },
    /// Two-sided receive; blocks until a matching message arrives.
    Recv {
        from: Option<Rank>,
        tag: u32,
        layer: ApiLayer,
    },
    /// One-sided put (blocking variants wait for remote completion).
    Put {
        to: Rank,
        bytes: u64,
        layer: ApiLayer,
        blocking: bool,
    },
    /// One-sided get (always blocks for the data).
    Get {
        from: Rank,
        bytes: u64,
        layer: ApiLayer,
    },
    /// Barrier over all ranks of the job.
    Barrier,
    /// Allreduce (double sum) of `bytes` over all ranks of the job.
    Allreduce { bytes: u64 },
}

impl CommOp {
    pub fn name(&self) -> &'static str {
        match self {
            CommOp::Send { .. } => "send",
            CommOp::Recv { .. } => "recv",
            CommOp::Put { .. } => "put",
            CommOp::Get { .. } => "get",
            CommOp::Barrier => "barrier",
            CommOp::Allreduce { .. } => "allreduce",
        }
    }
}

/// Arguments for thread creation, mirroring the clone(2) call NPTL makes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CloneArgs {
    pub flags: sysabi::CloneFlags,
    pub child_stack: u64,
    pub tls: u64,
    pub parent_tid_addr: u64,
    pub child_tid_addr: u64,
}

impl CloneArgs {
    /// The arguments NPTL passes for a pthread_create with a stack at
    /// `stack_top`.
    pub fn nptl(stack_top: u64, tls: u64, tid_addr: u64) -> CloneArgs {
        CloneArgs {
            flags: sysabi::CloneFlags::NPTL_THREAD_FLAGS,
            child_stack: stack_top,
            tls,
            parent_tid_addr: tid_addr,
            child_tid_addr: tid_addr,
        }
    }
}

/// One operation of a workload program.
pub enum Op {
    /// Pure compute for a fixed number of cycles (cache-resident).
    Compute { cycles: u64 },
    /// The FWQ kernel: `reps` DAXPY passes over `n` f64 elements.
    Daxpy { n: u64, reps: u64 },
    /// Stream `bytes` through the memory system (bandwidth-bound phase).
    Stream { bytes: u64 },
    /// `flops` floating-point operations of a blocked dense kernel.
    Flops { flops: u64 },
    /// Touch `bytes` of memory starting at `vaddr` (timing plane: drives
    /// TLB refills / demand paging / DAC guard checks).
    MemTouch { vaddr: u64, bytes: u64, write: bool },
    /// A system call.
    Syscall(SysReq),
    /// Thread creation: the clone syscall plus the child's program.
    /// Carried outside `SysReq` because the child workload is not ABI
    /// data.
    Spawn {
        args: CloneArgs,
        child: Box<dyn Workload>,
        core_hint: Option<u32>,
    },
    /// A communication operation serviced by the machine's `CommModel`.
    Comm(CommOp),
    /// Voluntarily yield the core (sched_yield fast path).
    Yield,
    /// Thread finished (returning from its start routine).
    End,
}

impl Op {
    /// True for the deterministic local-compute classes (`Compute`,
    /// `Daxpy`, `Stream`, `Flops`): a fixed cost on the issuing core,
    /// priced up front by `SimCore::compute_cycles`, with no kernel or
    /// network interaction while running. These are the ops whose
    /// completions the machine's quiescence fast path may retire inline
    /// (see `machine/exec.rs`), which is why they share one dispatch
    /// arm.
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            Op::Compute { .. } | Op::Daxpy { .. } | Op::Stream { .. } | Op::Flops { .. }
        )
    }

    pub fn name(&self) -> &'static str {
        match self {
            Op::Compute { .. } => "compute",
            Op::Daxpy { .. } => "daxpy",
            Op::Stream { .. } => "stream",
            Op::Flops { .. } => "flops",
            Op::MemTouch { .. } => "memtouch",
            Op::Syscall(req) => req.name(),
            Op::Spawn { .. } => "spawn",
            Op::Comm(c) => c.name(),
            Op::Yield => "yield",
            Op::End => "end",
        }
    }
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Spawn {
                args, core_hint, ..
            } => f
                .debug_struct("Spawn")
                .field("args", args)
                .field("core_hint", core_hint)
                .finish_non_exhaustive(),
            Op::Compute { cycles } => write!(f, "Compute({cycles})"),
            Op::Daxpy { n, reps } => write!(f, "Daxpy(n={n}, reps={reps})"),
            Op::Stream { bytes } => write!(f, "Stream({bytes})"),
            Op::Flops { flops } => write!(f, "Flops({flops})"),
            Op::MemTouch {
                vaddr,
                bytes,
                write,
            } => {
                write!(f, "MemTouch({vaddr:#x}, {bytes}, w={write})")
            }
            Op::Syscall(req) => write!(f, "Syscall({})", req.name()),
            Op::Comm(c) => write!(f, "Comm({c:?})"),
            Op::Yield => write!(f, "Yield"),
            Op::End => write!(f, "End"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysabi::Fd;

    #[test]
    fn op_names() {
        assert_eq!(Op::Compute { cycles: 1 }.name(), "compute");
        assert_eq!(
            Op::Syscall(SysReq::Write {
                fd: Fd(1),
                data: vec![]
            })
            .name(),
            "write"
        );
        assert_eq!(Op::Comm(CommOp::Barrier).name(), "barrier");
        assert_eq!(Op::End.name(), "end");
    }

    #[test]
    fn nptl_clone_args() {
        let a = CloneArgs::nptl(0x7000_0000, 0x6000_0000, 0x6000_0100);
        assert!(a.flags.contains(sysabi::CloneFlags::THREAD));
        assert_eq!(a.parent_tid_addr, a.child_tid_addr);
    }

    #[test]
    fn compute_classifier_covers_the_fixed_cost_ops() {
        assert!(Op::Compute { cycles: 1 }.is_compute());
        assert!(Op::Daxpy { n: 8, reps: 1 }.is_compute());
        assert!(Op::Stream { bytes: 64 }.is_compute());
        assert!(Op::Flops { flops: 100 }.is_compute());
        assert!(!Op::Yield.is_compute());
        assert!(!Op::End.is_compute());
        assert!(!Op::MemTouch {
            vaddr: 0,
            bytes: 8,
            write: false
        }
        .is_compute());
        assert!(!Op::Syscall(sysabi::SysReq::Gettid).is_compute());
    }
}
