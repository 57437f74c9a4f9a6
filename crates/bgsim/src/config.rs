//! Chip and machine configuration.
//!
//! Section III of the paper: "The startup and runtime configuration of CNK
//! contains independent control flags and configuration parameters that
//! support it running even when many features of the BG/P hardware did not
//! exist (during design) or were broken (during chip bringup)." Those
//! flags are modeled here as [`UnitStatus`] per functional unit, and the
//! L2-bank mapping knob the paper uses as its example is
//! [`ChipConfig::l2_bank_map`].

/// Health of one functional unit of the chip.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum UnitStatus {
    /// Fully functional.
    #[default]
    Present,
    /// Not yet implemented in the current design drop (pre-silicon) —
    /// any use must be avoided entirely.
    Absent,
    /// Present but known broken: usable only with a software work-around
    /// that costs extra cycles per use.
    Broken,
}

impl UnitStatus {
    pub fn usable(self) -> bool {
        !matches!(self, UnitStatus::Absent)
    }

    /// Stable numeric code for digest folding.
    fn code(self) -> u64 {
        match self {
            UnitStatus::Present => 0,
            UnitStatus::Absent => 1,
            UnitStatus::Broken => 2,
        }
    }
}

/// FNV-1a folding over 64-bit words, for the semantic config digests
/// that key memoized results ([`MachineConfig::semantic_digest`],
/// [`crate::fault::FaultSchedule::digest`]). Same constants as
/// [`crate::rng::fnv1a`], widened to one multiply per word.
#[derive(Clone, Copy, Debug)]
pub struct DigestFold(u64);

impl DigestFold {
    pub fn new() -> DigestFold {
        DigestFold(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, v: u64) -> &mut DigestFold {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    /// Fold a float by its bit pattern (bit-exact, no rounding).
    pub fn f64(&mut self, v: f64) -> &mut DigestFold {
        self.word(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for DigestFold {
    fn default() -> DigestFold {
        DigestFold::new()
    }
}

/// How physical addresses map onto the L2 cache banks (§III: "L2 Cache
/// configuration parameters that control the mapping of physical memory to
/// cache controllers and to memory banks within the cache").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L2BankMap {
    /// Consecutive lines round-robin across banks — the production
    /// setting; spreads traffic, minimal conflicts.
    Interleaved,
    /// Large consecutive blocks per bank — concentrates a streaming core
    /// on one bank and creates conflicts under sharing.
    Blocked,
    /// A deliberately conflicting XOR-fold mapping used during
    /// verification to create artificial bank conflicts.
    ConflictStress,
}

/// One simulated BG/P-like chip (compute node SoC).
#[derive(Clone, Debug)]
pub struct ChipConfig {
    /// Cores per node (BG/P: 4).
    pub cores: u32,
    /// Hardware threads per core the kernel may use. BG/P CNK started at
    /// 1, later 3 (§VIII footnote); next-gen is compile-time variable.
    pub threads_per_core: u32,
    /// DRAM per node in bytes (BG/P: 2 GB or 4 GB).
    pub dram_bytes: u64,
    /// L1 data cache bytes per core (BG/P: 32 KB).
    pub l1_bytes: u64,
    /// L2 prefetch-buffer-ish per-core cache bytes.
    pub l2_bytes: u64,
    /// Shared L3 (eDRAM) bytes.
    pub l3_bytes: u64,
    /// Number of L2 banks.
    pub l2_banks: u32,
    /// Bank mapping under test.
    pub l2_bank_map: L2BankMap,
    /// TLB entries per core (PPC440/450 family: 64-entry software TLB).
    pub tlb_entries: u32,
    /// DAC (Debug Address Compare) register pairs per core.
    pub dac_pairs: u32,
    /// Cycles between DRAM refresh windows; refresh collisions are the
    /// only residual jitter on CNK (sub-0.006%).
    pub dram_refresh_interval: u64,
    /// Worst-case cycles a load can stall on a refresh collision.
    pub dram_refresh_stall_max: u64,

    // Unit health flags, exercised during "bringup" tests.
    pub torus_unit: UnitStatus,
    pub collective_unit: UnitStatus,
    pub barrier_unit: UnitStatus,
    pub dma_unit: UnitStatus,
    pub l3_unit: UnitStatus,
    pub fpu_unit: UnitStatus,
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            cores: 4,
            threads_per_core: 1,
            dram_bytes: 2 << 30,
            l1_bytes: 32 << 10,
            l2_bytes: 2 << 10,
            l3_bytes: 8 << 20,
            l2_banks: 8,
            l2_bank_map: L2BankMap::Interleaved,
            tlb_entries: 64,
            dac_pairs: 4,
            // ~7.8 us refresh interval at 850 MHz.
            dram_refresh_interval: 6630,
            dram_refresh_stall_max: 39,
            torus_unit: UnitStatus::Present,
            collective_unit: UnitStatus::Present,
            barrier_unit: UnitStatus::Present,
            dma_unit: UnitStatus::Present,
            l3_unit: UnitStatus::Present,
            fpu_unit: UnitStatus::Present,
        }
    }
}

impl ChipConfig {
    /// The BG/P production configuration.
    pub fn bgp() -> ChipConfig {
        ChipConfig::default()
    }

    /// A pre-silicon "partial hardware" configuration: no torus, no DMA,
    /// broken L3 — what early bringup looked like (§III).
    pub fn bringup_partial() -> ChipConfig {
        ChipConfig {
            torus_unit: UnitStatus::Absent,
            dma_unit: UnitStatus::Absent,
            l3_unit: UnitStatus::Broken,
            ..ChipConfig::default()
        }
    }

    /// Fold every behavior-determining chip parameter into `h` (part of
    /// [`MachineConfig::semantic_digest`]).
    fn fold(&self, h: &mut DigestFold) {
        h.word(self.cores as u64)
            .word(self.threads_per_core as u64)
            .word(self.dram_bytes)
            .word(self.l1_bytes)
            .word(self.l2_bytes)
            .word(self.l3_bytes)
            .word(self.l2_banks as u64)
            .word(match self.l2_bank_map {
                L2BankMap::Interleaved => 0,
                L2BankMap::Blocked => 1,
                L2BankMap::ConflictStress => 2,
            })
            .word(self.tlb_entries as u64)
            .word(self.dac_pairs as u64)
            .word(self.dram_refresh_interval)
            .word(self.dram_refresh_stall_max)
            .word(self.torus_unit.code())
            .word(self.collective_unit.code())
            .word(self.barrier_unit.code())
            .word(self.dma_unit.code())
            .word(self.l3_unit.code())
            .word(self.fpu_unit.code());
    }
}

/// The whole simulated machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    pub chip: ChipConfig,
    /// Number of compute nodes.
    pub nodes: u32,
    /// Torus dimensions (x, y, z); product must equal `nodes`.
    pub torus_dims: (u32, u32, u32),
    /// Compute nodes per I/O node (BG/P pset ratios: 16..128).
    pub io_ratio: u32,
    /// Torus link bandwidth, MB/s per direction (BG/P: 425).
    pub torus_link_mbs: f64,
    /// Torus per-hop latency in ns (BG/P hardware ~ 64 ns/hop incl. wire).
    pub torus_hop_ns: f64,
    /// Collective (tree) network bandwidth, MB/s (BG/P: 850 ≈ 0.85 GB/s).
    pub collective_mbs: f64,
    /// Collective network one-way latency per tree stage, ns.
    pub collective_stage_ns: f64,
    /// Global barrier network round-trip latency, ns (BG/P: ~1.3 us
    /// full-machine; small partitions far less).
    pub barrier_ns: f64,
    /// Master seed for all stochastic streams.
    pub seed: u64,
    /// Keep every trace entry, of every event kind (needed by
    /// reproducibility tests, `first_divergence` and `--trace-out`;
    /// small runs only). The digest covers the stream either way.
    pub trace_events: bool,
    /// Enable the telemetry subsystem (the metrics registry).
    /// Determinism-neutral: enabling it cannot change trace digests or
    /// cycle counts.
    pub telemetry: bool,
    /// Enable the event-reduction fast path (op coalescing + quiescence
    /// fast-forward): the simulator's one optimized-versus-reference
    /// switch. Digest-identical to the plain engine by construction;
    /// `false` (`--no-fast-path` on the bench bins) is the reference,
    /// one heap event per completion.
    pub fast_path: bool,
    /// RAS fault-injection schedule ([`crate::fault`]). Empty by
    /// default, and an empty schedule schedules no events at all — such
    /// runs are bit-identical to a build without fault injection.
    pub faults: crate::fault::FaultSchedule,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            chip: ChipConfig::default(),
            nodes: 1,
            torus_dims: (1, 1, 1),
            io_ratio: 16,
            torus_link_mbs: 425.0,
            torus_hop_ns: 64.0,
            collective_mbs: 850.0,
            collective_stage_ns: 120.0,
            barrier_ns: 700.0,
            seed: 0x5eed_cafe,
            trace_events: false,
            telemetry: false,
            fast_path: true,
            faults: crate::fault::FaultSchedule::default(),
        }
    }
}

impl MachineConfig {
    /// A single-node machine (the FWQ configuration).
    pub fn single_node() -> MachineConfig {
        MachineConfig::default()
    }

    /// An `n`-node machine arranged in the most cubic torus possible.
    pub fn nodes(n: u32) -> MachineConfig {
        let dims = cubish(n);
        MachineConfig {
            nodes: n,
            torus_dims: dims,
            ..MachineConfig::default()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> MachineConfig {
        self.seed = seed;
        self
    }

    pub fn with_trace(mut self) -> MachineConfig {
        self.trace_events = true;
        self
    }

    /// Enable the telemetry subsystem (the metrics registry).
    pub fn with_telemetry(mut self) -> MachineConfig {
        self.telemetry = true;
        self
    }

    /// Toggle the event-reduction fast path (on by default). Either
    /// setting produces bit-identical trace digests; `false` is the
    /// reference mode for conformance checks and debugging.
    pub fn with_fast_path(mut self, on: bool) -> MachineConfig {
        self.fast_path = on;
        self
    }

    /// Install a RAS fault-injection schedule ([`crate::fault`]).
    pub fn with_faults(mut self, faults: crate::fault::FaultSchedule) -> MachineConfig {
        self.faults = faults;
        self
    }

    pub fn total_cores(&self) -> u32 {
        self.nodes * self.chip.cores
    }

    /// Number of I/O nodes serving this partition (at least one).
    pub fn io_nodes(&self) -> u32 {
        self.nodes.div_ceil(self.io_ratio)
    }

    /// Digest of the machine *shape*: every parameter that can change
    /// simulated behavior (chip geometry and unit health, node count,
    /// torus dimensions, pset ratio, link timings). This is the
    /// `config` component of a memoization key — two configs with equal
    /// digests produce bit-identical runs for the same (seed, program,
    /// faults).
    ///
    /// Deliberately **excluded**, because each is proven digest-neutral
    /// by the differential checker (or is pure host-side
    /// observability): `seed` and `faults` (separate key components),
    /// `fast_path`, and the trace/telemetry
    /// toggles. Folding those in would fragment a result cache across
    /// equivalent modes for no behavioral difference.
    pub fn semantic_digest(&self) -> u64 {
        let mut h = DigestFold::new();
        self.chip.fold(&mut h);
        let (x, y, z) = self.torus_dims;
        h.word(self.nodes as u64)
            .word(x as u64)
            .word(y as u64)
            .word(z as u64)
            .word(self.io_ratio as u64)
            .f64(self.torus_link_mbs)
            .f64(self.torus_hop_ns)
            .f64(self.collective_mbs)
            .f64(self.collective_stage_ns)
            .f64(self.barrier_ns);
        h.finish()
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        let (x, y, z) = self.torus_dims;
        if x * y * z != self.nodes {
            return Err(format!("torus {}x{}x{} != {} nodes", x, y, z, self.nodes));
        }
        if self.chip.cores == 0 || self.chip.threads_per_core == 0 {
            return Err("chip must have cores and threads".into());
        }
        if self.io_ratio == 0 {
            return Err("io_ratio must be positive".into());
        }
        if let Some(n) = self.faults.max_node() {
            if n >= self.nodes {
                return Err(format!(
                    "fault schedule targets node {n}, machine has {}",
                    self.nodes
                ));
            }
        }
        Ok(())
    }
}

/// Factor `n` into the most cubic (x, y, z) with x*y*z == n.
pub fn cubish(n: u32) -> (u32, u32, u32) {
    let mut best = (n, 1, 1);
    let mut best_score = n; // max dimension; smaller is more cubic
    for x in 1..=n {
        if !n.is_multiple_of(x) {
            continue;
        }
        let rest = n / x;
        for y in 1..=rest {
            if !rest.is_multiple_of(y) {
                continue;
            }
            let z = rest / y;
            let score = x.max(y).max(z);
            if score < best_score {
                best_score = score;
                best = (x, y, z);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        MachineConfig::default().validate().unwrap();
    }

    #[test]
    fn cubish_factors() {
        assert_eq!(cubish(1), (1, 1, 1));
        assert_eq!(cubish(8), (2, 2, 2));
        assert_eq!(cubish(64), (4, 4, 4));
        let (x, y, z) = cubish(16);
        assert_eq!(x * y * z, 16);
        assert!(x.max(y).max(z) <= 4);
        let (x, y, z) = cubish(12);
        assert_eq!(x * y * z, 12);
    }

    #[test]
    fn nodes_builder_is_valid() {
        for n in [1u32, 2, 4, 12, 16, 64, 100] {
            MachineConfig::nodes(n).validate().unwrap();
        }
    }

    #[test]
    fn bad_dims_rejected() {
        let mut c = MachineConfig::nodes(8);
        c.torus_dims = (3, 1, 1);
        assert!(c.validate().is_err());
    }

    #[test]
    fn io_node_count() {
        let mut c = MachineConfig::nodes(64);
        c.io_ratio = 16;
        assert_eq!(c.io_nodes(), 4);
        c.io_ratio = 128;
        assert_eq!(c.io_nodes(), 1);
    }

    #[test]
    fn semantic_digest_tracks_shape_not_tuning() {
        let base = MachineConfig::nodes(8);
        let d = base.semantic_digest();
        assert_eq!(d, MachineConfig::nodes(8).semantic_digest());
        // Digest-neutral knobs do not move the digest...
        assert_eq!(
            d,
            MachineConfig::nodes(8)
                .with_seed(999)
                .with_fast_path(false)
                .with_telemetry()
                .with_trace()
                .semantic_digest()
        );
        // ...but every shape change does.
        assert_ne!(d, MachineConfig::nodes(4).semantic_digest());
        let mut c = MachineConfig::nodes(8);
        c.io_ratio = 32;
        assert_ne!(d, c.semantic_digest());
        let mut c = MachineConfig::nodes(8);
        c.torus_link_mbs = 850.0;
        assert_ne!(d, c.semantic_digest());
        let mut c = MachineConfig::nodes(8);
        c.chip.threads_per_core = 3;
        assert_ne!(d, c.semantic_digest());
        let mut c = MachineConfig::nodes(8);
        c.chip.l3_unit = UnitStatus::Broken;
        assert_ne!(d, c.semantic_digest());
    }

    #[test]
    fn bringup_config_flags() {
        let c = ChipConfig::bringup_partial();
        assert!(!c.torus_unit.usable());
        assert!(!c.dma_unit.usable());
        assert!(c.l3_unit.usable()); // broken-but-usable with workaround
        assert_eq!(c.l3_unit, UnitStatus::Broken);
    }
}
