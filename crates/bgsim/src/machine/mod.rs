//! The machine harness: threads, kernels, communication models, and the
//! deterministic execution loop that ties them to the hardware models.
//!
//! Plug-in points:
//!
//! * [`Kernel`] — the operating system under test (`cnk` or `fwk`);
//! * [`CommModel`] — the messaging stack (`dcmf`);
//! * [`Workload`] — the application program (`workloads`).
//!
//! The executor owns mechanics (event ordering, thread tables, physical
//! memory, networks); kernels own policy (scheduling, address spaces,
//! syscalls, noise). This split is what lets the same workload run
//! unmodified under both kernels — the reproduction analogue of
//! "applications run on CNK out-of-the-box" (§V.B).

mod exec;
mod progress;
mod simcore;
mod thread;

pub use exec::{Machine, RunOutcome};
pub use progress::{CancelCause, CancelToken, LiveHook, ProgressCtl, ProgressReport, ProgressSink};
pub use simcore::{NetDomain, NetMsg, SimCore};
pub use thread::{BlockKind, Inbox, RecvInfo, Thread, ThreadState};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use sysabi::{CoreId, JobSpec, NodeId, ProcId, Rank, Sig, SysReq, SysRet, Tid, UtsName};

use crate::features::FeatureMatrix;
use crate::op::{CloneArgs, CommOp, Op};

/// Report from booting a kernel: how much work boot did, for the §III
/// VHDL-simulation comparison ("CNK boots in a couple of hours, while
/// Linux takes weeks" at 10 Hz).
#[derive(Clone, Debug)]
pub struct BootReport {
    pub kernel: &'static str,
    /// Total instructions executed to reach the app-launch prompt.
    pub instructions: u64,
    /// Named phases with instruction counts (sums to `instructions`).
    pub phases: Vec<(&'static str, u64)>,
}

impl BootReport {
    /// Wall-clock seconds this boot takes on a VHDL simulator running at
    /// `hz` simulated cycles per second (§III uses 10 Hz), assuming one
    /// instruction per cycle.
    pub fn vhdl_sim_seconds(&self, hz: f64) -> f64 {
        self.instructions as f64 / hz
    }
}

/// Why a job could not be launched.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LaunchError {
    /// The static partitioner could not fit the job (memory or TLB).
    NoMemory(String),
    /// More threads than the kernel's fixed per-core limit (§IV.B.1:
    /// "a small fixed number of threads per core").
    TooManyThreads,
    /// Inconsistent specification.
    BadSpec(String),
    /// A required hardware unit is absent in this chip configuration.
    HardwareMissing(&'static str),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::NoMemory(s) => write!(f, "partitioning failed: {s}"),
            LaunchError::TooManyThreads => write!(f, "thread limit exceeded"),
            LaunchError::BadSpec(s) => write!(f, "bad job spec: {s}"),
            LaunchError::HardwareMissing(u) => write!(f, "hardware unit missing: {u}"),
        }
    }
}

/// One rank of a launched job.
#[derive(Clone, Copy, Debug)]
pub struct RankInfo {
    pub rank: Rank,
    pub proc: ProcId,
    pub node: NodeId,
    pub main_tid: Tid,
}

/// The launched job: rank → placement map.
#[derive(Clone, Debug)]
pub struct JobMap {
    pub ranks: Vec<RankInfo>,
}

impl JobMap {
    pub fn nranks(&self) -> u32 {
        self.ranks.len() as u32
    }

    pub fn rank(&self, r: Rank) -> &RankInfo {
        &self.ranks[r.idx()]
    }
}

/// What a kernel does with a syscall.
#[derive(Debug)]
pub enum SyscallAction {
    /// Complete after `cost` cycles with result `ret`.
    Done { ret: SysRet, cost: u64 },
    /// The thread blocks; the kernel will `defer_unblock` it later with
    /// the result (function-shipped I/O, futex waits).
    Block { kind: BlockKind },
    /// Give up the core; the kernel has already requeued the thread.
    YieldCpu,
    /// The calling thread exits.
    ExitThread { code: i32 },
    /// The whole process exits.
    ExitProc { code: i32 },
}

/// Result of a timing-plane memory op.
#[derive(Clone, Copy, Debug)]
pub struct MemOpResult {
    pub cost: u64,
    /// A fault was raised (guard-page hit, bad address); the kernel has
    /// already queued its consequences (signal/kill).
    pub faulted: bool,
}

/// Capabilities a kernel gives the messaging stack; these parameters are
/// what Table I and Fig. 8 turn on. CNK's values reflect "the messaging
/// hardware ... used from user space, ... the virtual to physical mapping
/// from user space, and ... large physically contiguous chunks of memory"
/// (§V.C).
#[derive(Clone, Copy, Debug)]
pub struct CommCaps {
    /// Inject DMA descriptors from user space (no syscall per message).
    pub user_space_dma: bool,
    /// Buffers are physically contiguous (single DMA descriptor).
    pub phys_contiguous: bool,
    /// The va→pa map is static and known to user space (no pin/translate
    /// calls).
    pub static_translation: bool,
    /// Cycles per kernel-mediated injection (syscall entry/exit + window
    /// setup) when `user_space_dma` is false.
    pub injection_syscall_cycles: u64,
    /// Cycles per extra segment when buffers are not contiguous (per-page
    /// descriptor programming).
    pub per_segment_cycles: u64,
    /// Copy rate (bytes/cycle) for bounce-buffering when zero-copy DMA is
    /// impossible.
    pub copy_bytes_per_cycle: f64,
    /// Page size used to segment non-contiguous buffers.
    pub segment_bytes: u64,
}

impl CommCaps {
    /// The CNK capability set (§V.C: the performance "came effectively
    /// for free with CNK's design").
    pub fn cnk() -> CommCaps {
        CommCaps {
            user_space_dma: true,
            phys_contiguous: true,
            static_translation: true,
            injection_syscall_cycles: 0,
            per_segment_cycles: 0,
            copy_bytes_per_cycle: 4.0,
            segment_bytes: 1 << 30,
        }
    }

    /// A vanilla-Linux capability set: kernel-mediated injection, 4 KiB
    /// fragmented buffers, bounce copies ("modifying a vanilla Linux,
    /// especially to provide large physically contiguous memory, would be
    /// difficult", §V.C).
    pub fn fwk() -> CommCaps {
        CommCaps {
            user_space_dma: false,
            phys_contiguous: false,
            static_translation: false,
            injection_syscall_cycles: 900,
            per_segment_cycles: 40,
            copy_bytes_per_cycle: 4.0,
            segment_bytes: 4 << 10,
        }
    }
}

/// What the comm model does with a communication op.
#[derive(Clone, Copy, Debug)]
pub enum CommAction {
    /// The op completes locally after `cycles` (send-side overhead).
    RunFor { cycles: u64 },
    /// The thread blocks; the comm model will `defer_unblock` it later.
    Block { kind: BlockKind },
}

/// Kernel-private event tags (the machine routes them back verbatim).
pub type KernelEventTag = u64;

/// The operating system under test. `Any` lets a caller that knows
/// which kernel it booted reach its concrete type through
/// [`Machine::kernel_as`].
pub trait Kernel: std::any::Any {
    fn name(&self) -> &'static str;

    /// Cold-boot all nodes. `reproducible` selects the §III restart path
    /// that skips service-node interaction.
    fn boot(&mut self, sc: &mut SimCore, reproducible: bool) -> BootReport;

    /// Tear down kernel state for a chip reset (DRAM contents survive in
    /// `sc` if the caller preserves them).
    fn reset(&mut self);

    /// Create the processes and main threads for a job.
    fn launch(
        &mut self,
        sc: &mut SimCore,
        spec: &JobSpec,
        factory: &mut dyn WorkloadFactory,
    ) -> Result<JobMap, LaunchError>;

    /// Service a syscall from `tid`.
    fn syscall(&mut self, sc: &mut SimCore, tid: Tid, req: &SysReq) -> SyscallAction;

    /// Thread creation (the clone path). On success the kernel has
    /// created the thread via `sc.create_thread` and returns its tid.
    fn spawn(
        &mut self,
        sc: &mut SimCore,
        parent: Tid,
        args: &CloneArgs,
        core_hint: Option<u32>,
        child: Box<dyn Workload>,
    ) -> (SysRet, u64);

    /// A timing-plane memory touch: translation effects (TLB refills,
    /// demand paging) and protection (DAC guard ranges).
    fn mem_touch(
        &mut self,
        sc: &mut SimCore,
        tid: Tid,
        vaddr: u64,
        bytes: u64,
        write: bool,
    ) -> MemOpResult;

    /// Pick the next thread to run on a now-free core.
    fn pick_next(&mut self, sc: &mut SimCore, core: CoreId) -> Option<Tid>;

    /// A previously blocked thread became Ready; decide placement.
    fn on_unblock(&mut self, sc: &mut SimCore, tid: Tid);

    /// A thread exited (bookkeeping; the machine already freed the core).
    fn on_exit(&mut self, sc: &mut SimCore, tid: Tid);

    /// A kernel-scheduled event (noise tick, daemon wake, CIOD service
    /// completion, timeslice) fired.
    fn kernel_event(&mut self, sc: &mut SimCore, node: NodeId, tag: KernelEventTag);

    /// A collective-network message addressed to the kernel arrived
    /// (function-ship replies).
    fn net_deliver(&mut self, sc: &mut SimCore, msg: NetMsg);

    /// An inter-processor interrupt arrived at a core (§IV.C guard
    /// repositioning).
    fn on_ipi(&mut self, sc: &mut SimCore, core: CoreId, kind: u32);

    /// An injected hardware fault (L1 parity error, kind=FAULT_PARITY)
    /// hit a core (§V.B).
    fn on_fault(&mut self, sc: &mut SimCore, core: CoreId, kind: u32);

    /// A scheduled RAS fault fired on `node`. The machine has already
    /// applied the hardware-level effects (link outages, in-flight
    /// corruption, parity injection); this is the kernel's chance to run
    /// its RAS policy — log the event, start recovery daemons, shorten
    /// in-flight writes. Default: no kernel-level reaction.
    fn on_ras(&mut self, _sc: &mut SimCore, _node: NodeId, _ev: &crate::fault::FaultEvent) {}

    /// Kernel-semantic invariant sweep, called by differential checkers
    /// (`bgcheck`) at quiescence. Implementations cross-check their
    /// private bookkeeping against the machine state and return one
    /// human-readable string per violation (empty = healthy). Must not
    /// mutate anything: the checker runs it after `run()` returns and
    /// expects the digest to be unaffected. Default: no checks.
    fn check_invariants(&self, _sc: &SimCore) -> Vec<String> {
        Vec::new()
    }

    /// Approximate heap bytes held by kernel-private state (process
    /// tables, futex tables, I/O proxies...). Feeds
    /// `Machine::resident_bytes_estimate`; an estimate, not allocator
    /// truth. Default: unaccounted.
    fn resident_bytes(&self) -> usize {
        0
    }

    /// Data-plane address translation for `tid`.
    fn translate(&self, sc: &SimCore, tid: Tid, vaddr: u64) -> Option<u64>;

    /// Capabilities granted to the messaging stack.
    fn comm_caps(&self, sc: &SimCore, tid: Tid) -> CommCaps;

    /// uname(2) identity.
    fn utsname(&self) -> UtsName;

    /// The Table II/III feature matrix for this kernel.
    fn features(&self) -> FeatureMatrix;
}

/// The messaging stack under test.
pub trait CommModel {
    fn name(&self) -> &'static str;

    /// A job was launched; capture the rank map and the kernel's default
    /// capability set (used for receive-side costs).
    fn configure_job(&mut self, sc: &SimCore, job: &JobMap, default_caps: CommCaps);

    /// Service a communication op issued by `tid` (which holds `rank`).
    fn issue(
        &mut self,
        sc: &mut SimCore,
        caps: &CommCaps,
        tid: Tid,
        rank: Rank,
        op: &CommOp,
    ) -> CommAction;

    /// A torus message arrived.
    fn net_deliver(&mut self, sc: &mut SimCore, msg: NetMsg);
}

/// Fault kinds for `Machine::inject_fault`.
pub const FAULT_PARITY: u32 = 1;

/// IPI kinds.
pub const IPI_GUARD_REPOSITION: u32 = 1;

/// The application program of one thread.
pub trait Workload {
    /// Produce the next operation. Called at op boundaries; `env` exposes
    /// the result of the previous op, pending signals, current time, and
    /// the data plane.
    fn next(&mut self, env: &mut WlEnv<'_>) -> Op;

    /// Display label.
    fn label(&self) -> &str {
        "workload"
    }
}

/// Supplies main-thread workloads at job launch.
pub trait WorkloadFactory {
    fn main_workload(&mut self, rank: Rank) -> Box<dyn Workload>;
}

/// Blanket factory from a closure.
impl<F> WorkloadFactory for F
where
    F: FnMut(Rank) -> Box<dyn Workload>,
{
    fn main_workload(&mut self, rank: Rank) -> Box<dyn Workload> {
        self(rank)
    }
}

/// The environment a workload sees at an op boundary.
pub struct WlEnv<'a> {
    pub(crate) sc: &'a mut SimCore,
    pub(crate) kernel: &'a mut dyn Kernel,
    pub(crate) tid: Tid,
}

impl<'a> WlEnv<'a> {
    /// Current simulated cycle.
    pub fn now(&self) -> crate::cycles::Cycle {
        self.sc.now()
    }

    pub fn tid(&self) -> Tid {
        self.tid
    }

    pub fn rank(&self) -> Option<Rank> {
        self.sc.threads[self.tid.idx()].rank
    }

    pub fn node(&self) -> NodeId {
        self.sc.threads[self.tid.idx()].node
    }

    pub fn core(&self) -> CoreId {
        self.sc.threads[self.tid.idx()].core
    }

    /// Result of the previous op (syscall return, spawned tid, ...).
    pub fn take_ret(&mut self) -> Option<SysRet> {
        self.sc.inbox[self.tid.idx()].pending_ret.take()
    }

    /// Completion info of the previous receive.
    pub fn take_recv(&mut self) -> Option<RecvInfo> {
        self.sc.inbox[self.tid.idx()].pending_recv.take()
    }

    /// Next pending signal, if any.
    pub fn take_signal(&mut self) -> Option<Sig> {
        self.sc.inbox[self.tid.idx()].sig_queue.pop_front()
    }

    /// Data-plane read through the kernel's translation.
    pub fn mem_read(&mut self, vaddr: u64, len: u64) -> Option<Vec<u8>> {
        let t = &self.sc.threads[self.tid.idx()];
        let node = t.node;
        let pa = self.kernel.translate(self.sc, self.tid, vaddr)?;
        self.sc.dram[node.idx()].read(pa, len).ok()
    }

    /// Data-plane write through the kernel's translation.
    pub fn mem_write(&mut self, vaddr: u64, data: &[u8]) -> bool {
        let t = &self.sc.threads[self.tid.idx()];
        let node = t.node;
        match self.kernel.translate(self.sc, self.tid, vaddr) {
            Some(pa) => self.sc.dram[node.idx()].write(pa, data).is_ok(),
            None => false,
        }
    }

    pub fn mem_read_u32(&mut self, vaddr: u64) -> Option<u32> {
        self.mem_read(vaddr, 4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn mem_write_u32(&mut self, vaddr: u64, v: u32) -> bool {
        self.mem_write(vaddr, &v.to_be_bytes())
    }

    pub fn mem_read_u64(&mut self, vaddr: u64) -> Option<u64> {
        self.mem_read(vaddr, 8)
            .map(|b| u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn mem_write_u64(&mut self, vaddr: u64, v: u64) -> bool {
        self.mem_write(vaddr, &v.to_be_bytes())
    }

    /// The kernel's uname identity (the NPTL version gate reads this).
    pub fn utsname(&self) -> UtsName {
        self.kernel.utsname()
    }
}

/// A shared sample sink workloads record measurements into; the harness
/// keeps a clone and reads the series after the run. `Rc`-based because a
/// simulation is strictly single-threaded.
///
/// Each series is itself reference-counted, so a hot sampling loop can
/// hold a [`SeriesHandle`] and append without a name lookup per sample —
/// the FWQ loop records one value per 658k-cycle quantum and the map
/// probe used to be a measurable slice of the whole simulation.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Rc<RefCell<BTreeMap<String, SeriesData>>>,
}

/// One recorder series: shared, interior-mutable sample vector.
type SeriesData = Rc<RefCell<Vec<f64>>>;

/// A direct handle to one recorder series: push-only, O(1), no lookup.
#[derive(Clone)]
pub struct SeriesHandle {
    data: Rc<RefCell<Vec<f64>>>,
}

impl SeriesHandle {
    #[inline]
    pub fn push(&self, value: f64) {
        self.data.borrow_mut().push(value);
    }

    /// Bulk append — one borrow for the whole batch, so a sampling loop
    /// can buffer locally and flush once instead of paying the
    /// `RefCell` round-trip per sample.
    pub fn extend_from_slice(&self, values: &[f64]) {
        self.data.borrow_mut().extend_from_slice(values);
    }

    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.borrow().is_empty()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    pub fn record(&self, series: &str, value: f64) {
        // Existing series: append without allocating a key.
        if let Some(s) = self.inner.borrow().get(series) {
            s.borrow_mut().push(value);
            return;
        }
        self.inner
            .borrow_mut()
            .entry(series.to_string())
            .or_default()
            .borrow_mut()
            .push(value);
    }

    /// A push-only handle to `name`, creating the (empty) series if it
    /// does not exist yet. An existing series is found without
    /// allocating a key: a rack-scale job asks once per rank.
    pub fn series_handle(&self, name: &str) -> SeriesHandle {
        let found = self.inner.borrow().get(name).cloned();
        let data = found.unwrap_or_else(|| {
            self.inner
                .borrow_mut()
                .entry(name.to_string())
                .or_default()
                .clone()
        });
        SeriesHandle { data }
    }

    pub fn series(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .get(name)
            .map(|s| s.borrow().clone())
            .unwrap_or_default()
    }

    pub fn len(&self, name: &str) -> usize {
        self.inner
            .borrow()
            .get(name)
            .map_or(0, |v| v.borrow().len())
    }

    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_shares_data() {
        let r = Recorder::new();
        let r2 = r.clone();
        r.record("a", 1.0);
        r2.record("a", 2.0);
        assert_eq!(r.series("a"), vec![1.0, 2.0]);
        assert_eq!(r.series("missing"), Vec::<f64>::new());
    }

    #[test]
    fn series_handles_share_one_series() {
        let r = Recorder::new();
        let a = r.series_handle("s");
        let b = r.series_handle("s");
        a.push(1.0);
        b.extend_from_slice(&[2.0, 3.0]);
        assert_eq!(r.series("s"), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn boot_report_vhdl_time() {
        let b = BootReport {
            kernel: "cnk",
            instructions: 100_000,
            phases: vec![],
        };
        // 100k instructions at 10 Hz = 10,000 s ≈ 2.8 hours.
        let s = b.vhdl_sim_seconds(10.0);
        assert!((s - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn comm_caps_presets() {
        let c = CommCaps::cnk();
        assert!(c.user_space_dma && c.phys_contiguous && c.static_translation);
        assert_eq!(c.injection_syscall_cycles, 0);
        let f = CommCaps::fwk();
        assert!(!f.user_space_dma);
        assert!(f.injection_syscall_cycles > 0);
        assert_eq!(f.segment_bytes, 4 << 10);
    }
}
