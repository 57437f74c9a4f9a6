//! The NPTL runtime model (§IV.B.1).
//!
//! glibc's pthread_create, as CNK sees it: allocate the stack with malloc
//! (which for >1 MB stacks becomes an mmap), mprotect a guard region at
//! the stack's low end, then clone with the fixed NPTL flag set and the
//! tid words wired up. pthread_join futex-waits on the child's tid word,
//! which the kernel clears and wakes at child exit (CLONE_CHILD_CLEARTID).
//! At library init, NPTL checks `uname` and refuses kernels older than
//! its minimum — the reason CNK advertises 2.6.19.2.
//!
//! These are small resumable state machines meant to be driven from a
//! workload's `next()`: call `step(env)`; `Some(op)` means issue that op,
//! `None` means the operation completed.

use bgsim::machine::{WlEnv, Workload};
use bgsim::op::{CloneArgs, Op};
use sysabi::uname::KernelVersion;
use sysabi::{MapFlags, Prot, SysReq, SysRet};

/// Default pthread stack: 2 MB (glibc's default), which "exceeds 1MB,
/// invoking the mmap system call as opposed to brk" (§IV.B.1).
pub const PTHREAD_STACK: u64 = 2 << 20;
/// Guard region at the low end of the stack.
pub const GUARD_BYTES: u64 = 64 << 10;

/// Library-init version gate.
pub struct NptlInit {
    state: u8,
}

impl NptlInit {
    pub fn new() -> NptlInit {
        NptlInit { state: 0 }
    }

    /// Drive. `None` = initialized successfully. Panics (like a real
    /// glibc `FATAL: kernel too old`) if the gate fails.
    pub fn step(&mut self, env: &mut WlEnv<'_>) -> Option<Op> {
        match self.state {
            0 => {
                self.state = 1;
                Some(Op::Syscall(SysReq::Uname))
            }
            _ => {
                let ret = env.take_ret().expect("uname returned nothing");
                let SysRet::Uname(u) = ret else {
                    panic!("uname failed: {ret:?}")
                };
                assert!(
                    u.release >= KernelVersion::NPTL_MINIMUM,
                    "FATAL: kernel too old ({} < {})",
                    u.release,
                    KernelVersion::NPTL_MINIMUM
                );
                None
            }
        }
    }
}

impl Default for NptlInit {
    fn default() -> Self {
        Self::new()
    }
}

/// pthread_create.
pub struct PthreadCreate {
    state: u8,
    stack_base: u64,
    child: Option<Box<dyn Workload>>,
    core_hint: Option<u32>,
    /// (child tid, tid-word address) once created.
    pub created: Option<(u32, u64)>,
    /// Error from the spawn, if any.
    pub error: Option<sysabi::Errno>,
}

impl PthreadCreate {
    pub fn new(child: Box<dyn Workload>, core_hint: Option<u32>) -> PthreadCreate {
        PthreadCreate {
            state: 0,
            stack_base: 0,
            child: Some(child),
            core_hint,
            created: None,
            error: None,
        }
    }

    /// The tid word lives at the stack base + guard (inside the TCB area
    /// NPTL places at the stack top; the exact offset is immaterial).
    fn tid_word(&self) -> u64 {
        self.stack_base + GUARD_BYTES
    }

    pub fn step(&mut self, env: &mut WlEnv<'_>) -> Option<Op> {
        match self.state {
            0 => {
                // Stack allocation: malloc > 1 MB ⇒ mmap (§IV.B.1).
                self.state = 1;
                Some(Op::Syscall(SysReq::Mmap {
                    addr: 0,
                    len: PTHREAD_STACK,
                    prot: Prot::READ | Prot::WRITE,
                    flags: MapFlags::PRIVATE | MapFlags::ANONYMOUS,
                    fd: None,
                    offset: 0,
                }))
            }
            1 => {
                let ret = env.take_ret().expect("mmap returned nothing");
                match ret {
                    SysRet::Val(v) => self.stack_base = v as u64,
                    SysRet::Err(e) => {
                        self.error = Some(e);
                        self.state = 9;
                        return None;
                    }
                    other => panic!("mmap: {other:?}"),
                }
                // Guard the low end of the new stack — the mprotect CNK
                // "remembers" for the clone (§IV.C).
                self.state = 2;
                Some(Op::Syscall(SysReq::Mprotect {
                    addr: self.stack_base,
                    len: GUARD_BYTES,
                    prot: Prot::NONE,
                }))
            }
            2 => {
                let _ = env.take_ret();
                // Fault in + initialize the tid word before handing its
                // address to clone.
                self.state = 3;
                Some(Op::MemTouch {
                    vaddr: self.tid_word(),
                    bytes: 8,
                    write: true,
                })
            }
            3 => {
                env.mem_write_u32(self.tid_word(), u32::MAX);
                self.state = 4;
                Some(Op::Spawn {
                    args: CloneArgs::nptl(
                        self.stack_base + PTHREAD_STACK,
                        self.stack_base + PTHREAD_STACK - 4096, // TLS block
                        self.tid_word(),
                    ),
                    child: self.child.take().expect("child already spawned"),
                    core_hint: self.core_hint,
                })
            }
            4 => {
                let ret = env.take_ret().expect("clone returned nothing");
                match ret {
                    SysRet::Val(tid) => self.created = Some((tid as u32, self.tid_word())),
                    SysRet::Err(e) => self.error = Some(e),
                    other => panic!("clone: {other:?}"),
                }
                self.state = 9;
                None
            }
            _ => None,
        }
    }
}

/// pthread_join: futex-wait on the tid word until the kernel clears it.
pub struct PthreadJoin {
    tid_word: u64,
    child_tid: u32,
    state: u8,
}

impl PthreadJoin {
    pub fn new(child_tid: u32, tid_word: u64) -> PthreadJoin {
        PthreadJoin {
            tid_word,
            child_tid,
            state: 0,
        }
    }

    pub fn step(&mut self, env: &mut WlEnv<'_>) -> Option<Op> {
        loop {
            match self.state {
                0 => {
                    // Fast path: already exited?
                    if env.mem_read_u32(self.tid_word) == Some(0) {
                        self.state = 9;
                        return None;
                    }
                    self.state = 1;
                    return Some(Op::Syscall(SysReq::Futex {
                        uaddr: self.tid_word,
                        op: sysabi::FutexOp::Wait {
                            expected: self.child_tid,
                        },
                    }));
                }
                1 => {
                    let ret = env.take_ret().expect("futex returned nothing");
                    match ret {
                        // Woken by CLEARTID, or raced with the exit
                        // (EAGAIN: the word changed before we slept).
                        SysRet::Val(_) | SysRet::Err(sysabi::Errno::EAGAIN) => {
                            if env.mem_read_u32(self.tid_word) == Some(0) {
                                self.state = 9;
                                return None;
                            }
                            // Spurious wake: wait again.
                            self.state = 0;
                        }
                        other => panic!("join futex: {other:?}"),
                    }
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgsim::ade::FixedLatencyComm;
    use bgsim::machine::Machine;
    use bgsim::script::{script, wl};
    use bgsim::trace::TraceEvent;
    use bgsim::MachineConfig;
    use cnk::Cnk;
    use sysabi::{AppImage, JobSpec, NodeMode, Rank};

    fn run_on_cnk(factory: &mut dyn bgsim::WorkloadFactory) -> Machine {
        let mut m = Machine::new(
            MachineConfig::single_node().with_trace(),
            Box::new(Cnk::with_defaults()),
            Box::new(FixedLatencyComm::new()),
        );
        m.boot();
        m.launch(
            &JobSpec::new(AppImage::static_test("t"), 1, NodeMode::Smp),
            factory,
        )
        .unwrap();
        let out = m.run();
        assert!(out.completed(), "{out:?}");
        m
    }

    #[test]
    fn init_accepts_cnk_uname() {
        run_on_cnk(&mut |_r: Rank| {
            let mut init = NptlInit::new();
            wl(move |env| match init.step(env) {
                Some(op) => op,
                None => Op::End,
            })
        });
    }

    #[test]
    fn create_and_join_lifecycle() {
        let m = run_on_cnk(&mut |_r: Rank| {
            let mut create =
                PthreadCreate::new(script(vec![Op::Compute { cycles: 30_000 }]), Some(2));
            let mut join: Option<PthreadJoin> = None;
            wl(move |env| {
                if join.is_none() {
                    if let Some(op) = create.step(env) {
                        return op;
                    }
                    let (tid, word) = create.created.expect("spawn failed");
                    join = Some(PthreadJoin::new(tid, word));
                }
                match join.as_mut().unwrap().step(env) {
                    Some(op) => op,
                    None => Op::End,
                }
            })
        });
        // Child ran to completion on core 2 before the join returned.
        let child = m.sc.thread(sysabi::Tid(1));
        assert_eq!(child.core, sysabi::CoreId(2));
        let child_cycles: u64 =
            m.sc.trace
                .entries()
                .iter()
                .map(|e| match e.what {
                    TraceEvent::OpStart { tid: 1, cost, .. } => cost,
                    _ => 0,
                })
                .sum();
        assert!(child_cycles >= 30_000);
    }

    #[test]
    fn join_fast_path_when_child_already_dead() {
        // Join issued long after the child exits: must not block at all.
        run_on_cnk(&mut |_r: Rank| {
            let mut create = PthreadCreate::new(script(vec![]), Some(1));
            let mut join: Option<PthreadJoin> = None;
            let mut waited = false;
            wl(move |env| {
                if join.is_none() {
                    if let Some(op) = create.step(env) {
                        return op;
                    }
                    let (tid, word) = create.created.expect("spawn failed");
                    join = Some(PthreadJoin::new(tid, word));
                    if !waited {
                        waited = true;
                        return Op::Compute { cycles: 500_000 };
                    }
                }
                match join.as_mut().unwrap().step(env) {
                    Some(op) => op,
                    None => Op::End,
                }
            })
        });
    }
}
