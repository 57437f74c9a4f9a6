//! Deterministic RAS fault injection (§V.B).
//!
//! Blue Gene treated survival as a first-class kernel feature: RAS
//! events are reported and handled, the CIOD link can flap without
//! taking the job down, and — crucially for bringup — everything stays
//! reproducible. This module makes the *faults themselves*
//! deterministic: a [`FaultSchedule`] pins every injected fault to an
//! exact cycle and node, so a fault run is bit-reproducible and
//! invariant under host-thread sharding, the same way ordinary runs
//! are.
//!
//! Faults become engine events at boot.
//! An **empty schedule schedules zero events**, which is what keeps
//! no-fault runs digest-identical to a build without this module at
//! all (any foreign pending event would also veto the event-reduction
//! fast path).
//!
//! Fault semantics (who recovers, and how):
//!
//! - **Torus** faults model link-level CRC errors. The torus hardware
//!   retransmits, so a drop or corruption never loses a message at the
//!   messaging layer — it shows up as delivery delay plus
//!   `torus.dropped_pkts`. Applications cannot deadlock on them.
//! - **Collective** (CIOD) faults are real losses: the tree wire
//!   protocol is validated in software, so drops, corruptions, and
//!   short writes are recovered by the compute-node kernel's
//!   retry/backoff machinery (or surface as a clean `EIO`).
//! - **Machine checks** take the existing parity path: the kernel
//!   signals the application, and the default disposition terminates
//!   the job cleanly with an exit report.
//! - **Guard storms** are spurious DAC guard violations: survivable
//!   handler time on every core of the node.

use rand::rngs::SmallRng;

use crate::config::MachineConfig;
use crate::cycles::Cycle;
use crate::rng::{uniform_incl, RngHub};

/// What kind of fault fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Torus link outage at the node for `arg` cycles: in-flight and
    /// newly sent messages touching the node are retransmitted after
    /// the outage (link-level CRC retry; never lost to software).
    TorusDrop,
    /// A torus CRC error: in-flight messages at the node bounce once
    /// (retransmit delay), delivered clean.
    TorusCorrupt,
    /// Collective-tree outage (CIOD flap) for `arg` cycles: in-flight
    /// and newly sent tree messages touching the node are lost.
    CollDrop,
    /// In-flight collective messages at the node are delayed `arg`
    /// cycles (CIOD hiccup).
    CollDelay,
    /// In-flight collective payloads at the node are corrupted; the
    /// receiver's wire validation drops them (then retry recovers).
    CollCorrupt,
    /// In-flight CIOD write requests at the node are truncated: the
    /// application sees a genuine POSIX short write.
    CiodShortWrite,
    /// L1 parity machine check on local core `arg` of the node — the
    /// fatal RAS path (clean job termination).
    MachineCheck,
    /// `arg` spurious DAC guard violations on every core of the node.
    GuardStorm,
}

impl FaultKind {
    pub const ALL: [FaultKind; 8] = [
        FaultKind::TorusDrop,
        FaultKind::TorusCorrupt,
        FaultKind::CollDrop,
        FaultKind::CollDelay,
        FaultKind::CollCorrupt,
        FaultKind::CiodShortWrite,
        FaultKind::MachineCheck,
        FaultKind::GuardStorm,
    ];

    /// Script/name form (`torus-drop`, `machine-check`, ...).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TorusDrop => "torus-drop",
            FaultKind::TorusCorrupt => "torus-corrupt",
            FaultKind::CollDrop => "coll-drop",
            FaultKind::CollDelay => "coll-delay",
            FaultKind::CollCorrupt => "coll-corrupt",
            FaultKind::CiodShortWrite => "ciod-short-write",
            FaultKind::MachineCheck => "machine-check",
            FaultKind::GuardStorm => "guard-storm",
        }
    }

    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    /// Stable numeric code (folded into the trace digest).
    pub fn code(self) -> u32 {
        0x100
            + match self {
                FaultKind::TorusDrop => 0,
                FaultKind::TorusCorrupt => 1,
                FaultKind::CollDrop => 2,
                FaultKind::CollDelay => 3,
                FaultKind::CollCorrupt => 4,
                FaultKind::CiodShortWrite => 5,
                FaultKind::MachineCheck => 6,
                FaultKind::GuardStorm => 7,
            }
    }
}

/// One scheduled fault: a kind firing at an exact cycle on a node,
/// with a kind-specific argument (outage window, delay, core, count).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    pub at: Cycle,
    pub node: u32,
    pub kind: FaultKind,
    pub arg: u64,
}

impl FaultEvent {
    /// Parse the fields of one fault line, `<cycle> <node> <kind>
    /// [arg]`: the one parser behind fault scripts and the `fault` lines
    /// of `.bgck` program scripts. A node id must fit in a `u32`. The
    /// error names the bad field; each caller prefixes its own line.
    pub fn parse_fields(fields: &[&str]) -> Result<FaultEvent, String> {
        let [at, node, kind, rest @ ..] = fields else {
            return Err("a fault takes <cycle> <node> <kind> [arg]".to_string());
        };
        let at = at.parse().map_err(|_| format!("bad cycle {at:?}"))?;
        let node = node.parse().map_err(|_| format!("bad node {node:?}"))?;
        let kind = FaultKind::parse(kind).ok_or_else(|| format!("unknown fault kind {kind:?}"))?;
        let arg = match rest {
            [] => 0,
            [arg] => arg.parse().map_err(|_| format!("bad arg {arg:?}"))?,
            _ => return Err("trailing fields".to_string()),
        };
        Ok(FaultEvent {
            at,
            node,
            kind,
            arg,
        })
    }
}

/// The full fault plan for a run. Built from a seed
/// ([`FaultSchedule::from_seed`]) or an explicit script
/// ([`FaultSchedule::parse`]); empty by default (and an empty schedule
/// injects nothing — runs are bit-identical to a fault-free build).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn push(&mut self, ev: FaultEvent) -> &mut FaultSchedule {
        self.events.push(ev);
        self
    }

    /// Generate a survivable fault mix from `seed`: link outages,
    /// CIOD drops/delays/corruptions/short-writes spread over the
    /// first ~12M cycles, one to two per node. Deliberately excludes
    /// the fatal kinds (machine checks, guard storms) — those are
    /// scripted, so a seeded sweep never turns into a kill sweep.
    /// The RNG stream is derived the same way as every other
    /// deterministic stream in the simulator (master seed + name), so
    /// a (schedule seed, machine seed) pair pins the run exactly.
    pub fn from_seed(cfg: &MachineConfig, seed: u64) -> FaultSchedule {
        let mut rng = RngHub::new(seed).stream("fault-schedule");
        let mut events = Vec::new();
        for node in 0..cfg.nodes {
            let n = uniform_incl(&mut rng, 1, 2);
            for _ in 0..n {
                events.push(Self::draw(&mut rng, node));
            }
        }
        FaultSchedule { events }
    }

    fn draw(rng: &mut SmallRng, node: u32) -> FaultEvent {
        let at = uniform_incl(rng, 200_000, 12_000_000);
        let (kind, arg) = match uniform_incl(rng, 0, 7) {
            0 | 1 => (FaultKind::CollDrop, uniform_incl(rng, 400_000, 1_200_000)),
            2 => (FaultKind::CollDelay, uniform_incl(rng, 200_000, 800_000)),
            3 => (FaultKind::CollCorrupt, 0),
            4 => (FaultKind::CiodShortWrite, 0),
            5 | 6 => (FaultKind::TorusDrop, uniform_incl(rng, 50_000, 200_000)),
            _ => (FaultKind::TorusCorrupt, 0),
        };
        FaultEvent {
            at,
            node,
            kind,
            arg,
        }
    }

    /// Parse a fault script: one `<cycle> <node> <kind> [arg]` per
    /// line, `#` comments and blank lines ignored. Kinds are the
    /// [`FaultKind::name`] forms.
    ///
    /// ```text
    /// # CIOD flap on node 0, two million cycles in, link down 1.5ms
    /// 2000000 0 coll-drop 1275000
    /// 5000000 0 machine-check 2
    /// ```
    pub fn parse(script: &str) -> Result<FaultSchedule, String> {
        let mut events = Vec::new();
        for (lineno, raw) in script.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let ev = FaultEvent::parse_fields(&fields)
                .map_err(|e| format!("fault script line {}: {e}: {raw:?}", lineno + 1))?;
            events.push(ev);
        }
        Ok(FaultSchedule { events })
    }

    /// Digest of the schedule: every event's (cycle, node, kind, arg)
    /// folded in order. The `faults` component of a memoization key —
    /// an empty schedule has a stable digest of its own, so fault-free
    /// jobs key consistently.
    pub fn digest(&self) -> u64 {
        let mut h = crate::config::DigestFold::new();
        h.word(self.events.len() as u64);
        for ev in &self.events {
            h.word(ev.at)
                .word(ev.node as u64)
                .word(ev.kind.code() as u64)
                .word(ev.arg);
        }
        h.finish()
    }

    /// The highest node index referenced (for config validation).
    pub fn max_node(&self) -> Option<u32> {
        self.events.iter().map(|e| e.node).max()
    }

    /// Check every referenced node against a machine size, naming the
    /// offending id — the error CLI front ends surface instead of
    /// letting machine construction panic on an out-of-range node.
    pub fn check_nodes(&self, nodes: u32) -> Result<(), String> {
        match self.max_node() {
            Some(m) if m >= nodes => Err(format!(
                "fault schedule names node {m}, but the machine has only {nodes} node(s) (0..={})",
                nodes.saturating_sub(1)
            )),
            _ => Ok(()),
        }
    }
}

/// How a run wants its faults: nothing, a seeded schedule, or an
/// explicit one. This is the value the bench `--fault-seed` /
/// `--fault-script` flags produce; [`FaultSpec::apply`] resolves it
/// against a machine config (seeded generation needs the node count).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum FaultSpec {
    #[default]
    None,
    Seed(u64),
    Explicit(FaultSchedule),
}

impl FaultSpec {
    pub fn is_active(&self) -> bool {
        match self {
            FaultSpec::None => false,
            FaultSpec::Seed(_) => true,
            FaultSpec::Explicit(s) => !s.is_empty(),
        }
    }

    pub fn resolve(&self, cfg: &MachineConfig) -> FaultSchedule {
        match self {
            FaultSpec::None => FaultSchedule::default(),
            FaultSpec::Seed(s) => FaultSchedule::from_seed(cfg, *s),
            FaultSpec::Explicit(s) => s.clone(),
        }
    }

    /// Resolve against `cfg` and install the schedule on it.
    pub fn apply(&self, cfg: MachineConfig) -> MachineConfig {
        let sched = self.resolve(&cfg);
        cfg.with_faults(sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.name()), Some(k));
        }
        assert_eq!(FaultKind::parse("bogus"), None);
    }

    #[test]
    fn schedule_digest_is_order_and_content_sensitive() {
        let mut a = FaultSchedule::default();
        let empty = a.digest();
        assert_eq!(empty, FaultSchedule::default().digest());
        a.push(FaultEvent {
            at: 100,
            node: 0,
            kind: FaultKind::TorusDrop,
            arg: 5,
        });
        assert_ne!(a.digest(), empty);
        let mut b = FaultSchedule::default();
        b.push(FaultEvent {
            at: 100,
            node: 0,
            kind: FaultKind::TorusDrop,
            arg: 6,
        });
        assert_ne!(a.digest(), b.digest());
        // Same events, same digest.
        let mut c = FaultSchedule::default();
        c.push(a.events[0]);
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn script_parses_comments_args_and_defaults() {
        let s = FaultSchedule::parse(
            "# header\n\
             2000000 0 coll-drop 1275000\n\
             \n\
             5000000 1 machine-check 2  # inline comment\n\
             7000000 1 torus-corrupt\n",
        )
        .unwrap();
        assert_eq!(s.events.len(), 3);
        assert_eq!(
            s.events[0],
            FaultEvent {
                at: 2_000_000,
                node: 0,
                kind: FaultKind::CollDrop,
                arg: 1_275_000
            }
        );
        assert_eq!(s.events[1].kind, FaultKind::MachineCheck);
        assert_eq!(s.events[1].arg, 2);
        assert_eq!(s.events[2].arg, 0);
        assert_eq!(s.max_node(), Some(1));
    }

    #[test]
    fn check_nodes_names_the_offender() {
        let s = FaultSchedule::parse("10 7 coll-drop 5").unwrap();
        assert!(s.check_nodes(8).is_ok());
        let e = s.check_nodes(4).unwrap_err();
        assert!(e.contains("node 7"), "{e}");
        assert!(e.contains("4 node(s)"), "{e}");
        assert!(FaultSchedule::default().check_nodes(1).is_ok());
    }

    #[test]
    fn script_errors_name_the_line() {
        let e = FaultSchedule::parse("10 0 coll-drop\nxx 0 coll-drop").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        let e = FaultSchedule::parse("10 0 warp-core-breach").unwrap_err();
        assert!(e.contains("unknown fault kind"), "{e}");
        let e = FaultSchedule::parse("10 0 coll-drop 5 extra").unwrap_err();
        assert!(e.contains("trailing"), "{e}");
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_survivable() {
        let cfg = MachineConfig::nodes(8);
        let a = FaultSchedule::from_seed(&cfg, 42);
        let b = FaultSchedule::from_seed(&cfg, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_ne!(a, FaultSchedule::from_seed(&cfg, 43));
        for ev in &a.events {
            assert!(ev.node < 8);
            assert!(
                !matches!(ev.kind, FaultKind::MachineCheck | FaultKind::GuardStorm),
                "seeded schedules must stay survivable: {ev:?}"
            );
        }
    }

    #[test]
    fn spec_resolution() {
        let cfg = MachineConfig::nodes(2);
        assert!(!FaultSpec::None.is_active());
        assert!(FaultSpec::None.resolve(&cfg).is_empty());
        assert!(FaultSpec::Seed(1).is_active());
        assert_eq!(
            FaultSpec::Seed(1).resolve(&cfg),
            FaultSchedule::from_seed(&cfg, 1)
        );
        let explicit = FaultSchedule::parse("5 1 guard-storm 3").unwrap();
        let spec = FaultSpec::Explicit(explicit.clone());
        assert!(spec.is_active());
        assert_eq!(spec.apply(cfg).faults, explicit);
        assert!(!FaultSpec::Explicit(FaultSchedule::default()).is_active());
    }
}
