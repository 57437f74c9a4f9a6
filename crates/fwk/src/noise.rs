//! OS noise sources (§V.A).
//!
//! "Delays incurred by the application at random times each cause a delay
//! in an operation, and at large scale many nodes compound the delay."
//! The FWK carries the noise sources a tuned-but-stock Linux 2.6.16
//! cannot shed: the timer tick and the unsuspendable kernel daemons.
//! Each source fires on a (period ± jitter) schedule and steals a
//! duration drawn from its [min, max] range from whatever is running.
//!
//! Calibration targets are the paper's Fig. 5 numbers: per-core maximum
//! FWQ perturbations of ≈38 k cycles (core 0), ≈10 k (core 1), ≈42 k
//! (core 2) and ≈36 k (core 3) over 12,000 samples of a 659 k-cycle
//! quantum — i.e. >5% worst case on three cores, driven by rare long
//! daemons, on top of a dense band of tick noise.

pub use bgsim::noise::{CoreSet, NoiseSource};

/// Cycles per millisecond at the 850 MHz clock.
const MS: u64 = 850_000;

/// The tuned-Linux-2.6.16 noise profile of the paper's Fig. 5 run.
pub fn linux_2_6_16_profile() -> Vec<NoiseSource> {
    vec![
        // The 1 kHz timer tick: short, dense, on every core.
        NoiseSource {
            name: "tick",
            period: MS,
            period_jitter: MS / 50,
            cost_min: 900,
            cost_max: 3_200,
            cores: CoreSet::All,
        },
        // Per-CPU softirq/RCU work: moderate, every few hundred ms.
        NoiseSource {
            name: "ksoftirqd",
            period: 180 * MS,
            period_jitter: 120 * MS,
            cost_min: 4_000,
            cost_max: 9_500,
            cores: CoreSet::All,
        },
        // Writeback/journal daemons: long and rare, spare core 1.
        NoiseSource {
            name: "pdflush",
            period: 600 * MS,
            period_jitter: 450 * MS,
            cost_min: 18_000,
            cost_max: 39_000,
            cores: CoreSet::AllBut(1),
        },
        // Interrupt bottom halves routed to core 0 and (on this board)
        // core 2: the biggest spikes in Fig. 5.
        NoiseSource {
            name: "irq-bh",
            period: 1_300 * MS,
            period_jitter: 900 * MS,
            cost_min: 26_000,
            cost_max: 38_500,
            cores: CoreSet::One(0),
        },
        NoiseSource {
            name: "irq-bh2",
            period: 1_500 * MS,
            period_jitter: 1_000 * MS,
            cost_min: 28_000,
            cost_max: 41_500,
            cores: CoreSet::One(2),
        },
        NoiseSource {
            name: "kswapd-scan",
            period: 2_000 * MS,
            period_jitter: 1_200 * MS,
            cost_min: 20_000,
            cost_max: 35_500,
            cores: CoreSet::One(3),
        },
    ]
}

/// The daemons a fault-injected run wakes up on top of the base
/// profile: the machine-check logger and the RAS event forwarder,
/// polling their /dev interfaces whether or not anything new arrived.
/// Linux cannot shed them once loaded, so a node that has *seen* faults
/// stays noisier than a clean one — the contrast to CNK, whose RAS path
/// costs nothing between events. Appended by `Fwk::boot` when the
/// machine carries a fault schedule.
pub fn ras_recovery_daemons() -> Vec<NoiseSource> {
    vec![
        NoiseSource {
            name: "mcelogd",
            period: 90 * MS,
            period_jitter: 30 * MS,
            cost_min: 6_000,
            cost_max: 14_000,
            cores: CoreSet::One(0),
        },
        NoiseSource {
            name: "rasdaemon",
            period: 150 * MS,
            period_jitter: 50 * MS,
            cost_min: 9_000,
            cost_max: 21_000,
            cores: CoreSet::One(2),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgsim::rng::RngHub;

    /// Per-core worst-case single-event noise in the profile (test oracle).
    fn profile_worst_case(core: u32) -> u64 {
        linux_2_6_16_profile()
            .iter()
            .filter(|s| s.cores.contains(core))
            .map(|s| s.cost_max)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn core_set_membership() {
        assert!(CoreSet::All.contains(3));
        assert!(CoreSet::One(2).contains(2));
        assert!(!CoreSet::One(2).contains(0));
        assert!(CoreSet::AllBut(1).contains(0));
        assert!(!CoreSet::AllBut(1).contains(1));
    }

    #[test]
    fn profile_matches_paper_shape() {
        // Core 1 is the quiet one: its worst case must be well below the
        // others (paper: 10k vs 36-42k).
        let w: Vec<u64> = (0..4).map(profile_worst_case).collect();
        assert!(w[1] < 12_000, "core1 worst {w:?}");
        for c in [0usize, 2, 3] {
            assert!(w[c] > 30_000, "core{c} worst {w:?}");
            assert!(w[c] < 45_000, "core{c} worst {w:?}");
        }
    }

    #[test]
    fn draws_respect_bounds() {
        let hub = RngHub::new(5);
        let mut rng = hub.stream("noise");
        for s in linux_2_6_16_profile() {
            for _ in 0..1000 {
                let c = s.cost(&mut rng);
                assert!(c >= s.cost_min && c <= s.cost_max, "{} cost {c}", s.name);
                let d = s.next_delay(&mut rng);
                assert!(d >= s.period - s.period_jitter.min(s.period - 1));
                assert!(d <= s.period + s.period_jitter);
            }
        }
    }

    #[test]
    fn tick_dominates_event_count() {
        // Sanity: the tick has by far the shortest period.
        let p = linux_2_6_16_profile();
        let tick = p.iter().find(|s| s.name == "tick").unwrap();
        for s in &p {
            if s.name != "tick" {
                assert!(s.period > tick.period * 50);
            }
        }
    }
}
