//! One simulation job, timed call by call through the simulator's public
//! entry points: `Machine::{new, boot, launch, run}`, then the readout
//! (`trace_digest`, `profile_snapshot`, `sc.engine.stats()`,
//! `resident_bytes_estimate`).

use std::time::Instant;

use bgsim::engine::EngineStats;
use bgsim::machine::{Machine, RunOutcome, WorkloadFactory};
use bgsim::{MachineConfig, ProfileSnapshot};
use sysabi::JobSpec;

use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kern {
    Cnk,
    Fwk,
}

impl Kern {
    pub fn label(self) -> &'static str {
        match self {
            Kern::Cnk => "cnk",
            Kern::Fwk => "fwk",
        }
    }

    fn build(self) -> Box<dyn bgsim::Kernel> {
        match self {
            Kern::Cnk => Box::new(cnk::Cnk::with_defaults()),
            Kern::Fwk => Box::new(fwk::Fwk::with_defaults()),
        }
    }
}

/// Host seconds spent in each call.
#[derive(Clone, Copy, Default, Debug)]
pub struct Phases {
    pub new: f64,
    pub boot: f64,
    pub launch: f64,
    pub run: f64,
    pub readout: f64,
}

impl Phases {
    pub fn setup(&self) -> f64 {
        self.new + self.boot + self.launch
    }

    pub fn wall(&self) -> f64 {
        self.run + self.readout
    }

    pub fn add(&mut self, o: &Phases) {
        self.new += o.new;
        self.boot += o.boot;
        self.launch += o.launch;
        self.run += o.run;
        self.readout += o.readout;
    }
}

/// The determinism triple: (outcome, final cycle, trace digest).
pub type Triple = (String, u64, u64);

pub struct JobOut {
    pub triple: Triple,
    pub t: Phases,
    pub engine: EngineStats,
    pub profile: ProfileSnapshot,
    pub resident_bytes: u64,
    pub nodes: u32,
    /// Coverage digest, taken only with [`Extra::ServiceChecks`].
    pub coverage: u64,
}

/// Outcome labels as the service reports them.
pub fn outcome_label(out: &RunOutcome) -> String {
    match out {
        RunOutcome::Completed { .. } => "completed".to_string(),
        RunOutcome::ReachedCycle { .. } => "bound".to_string(),
        RunOutcome::Deadlock { blocked, .. } => format!("deadlock/{}", blocked.len()),
        RunOutcome::Idle { .. } => "idle".to_string(),
        RunOutcome::Cancelled { cause, .. } => cause.label().to_string(),
    }
}

/// What a job does after `run` besides the readout every job gets.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Extra {
    None,
    /// The service's miss path also sweeps invariants and takes the
    /// coverage digest after every run.
    ServiceChecks,
}

/// Build, boot, launch, run and read out one machine. `detail` labels
/// the job's spans (family or program kind); `id` is its job number.
#[allow(clippy::too_many_arguments)]
pub fn run_job(
    tr: &mut Tracer,
    detail: &'static str,
    id: u64,
    cfg: MachineConfig,
    kernel: Kern,
    spec: &JobSpec,
    factory: &mut dyn WorkloadFactory,
    extra: Extra,
) -> Result<JobOut, String> {
    let nodes = cfg.nodes;
    let job = tr.begin("job", detail, id);
    let mut t = Phases::default();

    let sp = tr.begin("bgsim.new", detail, id);
    let t0 = Instant::now();
    let mut m = Machine::new(cfg, kernel.build(), Box::new(dcmf::Dcmf::with_defaults()));
    t.new = t0.elapsed().as_secs_f64();
    tr.end(sp);

    let sp = tr.begin(boot_span(kernel), detail, id);
    let t0 = Instant::now();
    m.boot();
    t.boot = t0.elapsed().as_secs_f64();
    tr.end(sp);

    let sp = tr.begin(launch_span(kernel), detail, id);
    let t0 = Instant::now();
    let launched = m.launch(spec, factory);
    t.launch = t0.elapsed().as_secs_f64();
    tr.end(sp);
    if let Err(e) = launched {
        tr.end(job);
        return Err(format!("{detail}/{}: launch failed: {e}", kernel.label()));
    }

    let sp = tr.begin("bgsim.run", detail, id);
    let t0 = Instant::now();
    let out = m.run();
    t.run = t0.elapsed().as_secs_f64();
    tr.end(sp);

    let sp = tr.begin("bgsim.readout", detail, id);
    let t0 = Instant::now();
    let digest = m.trace_digest();
    let profile = m.profile_snapshot();
    let engine = m.sc.engine.stats();
    let resident_bytes = m.resident_bytes_estimate() as u64;
    let mut coverage = 0;
    if extra == Extra::ServiceChecks {
        std::hint::black_box(m.check_invariants());
        coverage = m.coverage_digest();
    }
    t.readout = t0.elapsed().as_secs_f64();
    tr.end(sp);

    let sp = tr.begin("bgsim.drop", detail, id);
    drop(m);
    tr.end(sp);
    tr.end(job);
    Ok(JobOut {
        triple: (outcome_label(&out), out.at(), digest),
        t,
        engine,
        profile,
        resident_bytes,
        nodes,
        coverage,
    })
}

fn boot_span(k: Kern) -> &'static str {
    match k {
        Kern::Cnk => "cnk.boot",
        Kern::Fwk => "fwk.boot",
    }
}

fn launch_span(k: Kern) -> &'static str {
    match k {
        Kern::Cnk => "cnk.launch",
        Kern::Fwk => "fwk.launch",
    }
}

/// Per-round sums of the exact simulator counters.
#[derive(Clone, Default)]
pub struct Counters {
    pub engine: EngineStats,
    pub profile: ProfileSnapshot,
    pub resident_bytes: u64,
    pub nodes: u64,
}

impl Counters {
    pub fn add(&mut self, j: &JobOut) {
        let (a, b) = (&mut self.engine, &j.engine);
        a.scheduled += b.scheduled;
        a.processed += b.processed;
        a.cancelled += b.cancelled;
        a.stale_discarded += b.stale_discarded;
        a.compactions += b.compactions;
        a.coalesced += b.coalesced;
        a.fastforward_cycles += b.fastforward_cycles;
        self.profile.merge(&j.profile);
        self.resident_bytes += j.resident_bytes;
        self.nodes += j.nodes as u64;
    }
}

/// splitmix64: derives independent job seeds from the workload seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed a job runs with: its pinned seed at the default workload
/// seed 0 (so the checked-in digests reproduce), a derived one
/// otherwise.
pub fn job_seed(pinned: u64, workload_seed: u64) -> u64 {
    if workload_seed == 0 {
        pinned
    } else {
        pinned ^ mix(workload_seed)
    }
}
