//! The global barrier (global interrupt) network.
//!
//! A dedicated low-latency AND-tree across the partition. Two paper roles:
//! fast full-partition barriers for applications, and — during bringup —
//! coordinating *multichip reproducible reboots* so that "one chip
//! initiates a packet transfer on exactly the same cycle relative to the
//! other chip" (§III). For the latter the network must keep its arbiter
//! state consistent across resets, which we model explicitly.

use crate::config::MachineConfig;
use crate::cycles::{self, Cycle};

/// State of the barrier network's arbiters/state machines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArbiterState {
    /// Freshly powered on; arbiter phase is arbitrary (not reproducible).
    Unsynchronized,
    /// Forced into the canonical state by the reproducible-reboot
    /// sequence ("special code ensured a consistent state in all arbiters
    /// and state machines", §III).
    Canonical,
}

/// The global barrier network of a partition.
#[derive(Clone, Debug)]
pub struct BarrierNet {
    round_trip: Cycle,
    state: ArbiterState,
    /// Survives chip resets while the network is "set to remain active
    /// and configured" across a coordinated reboot.
    hold_config: bool,
    crossings: u64,
}

impl BarrierNet {
    pub fn new(cfg: &MachineConfig) -> BarrierNet {
        BarrierNet {
            round_trip: cycles::ns_to_cycles(cfg.barrier_ns),
            state: ArbiterState::Unsynchronized,
            hold_config: false,
            crossings: 0,
        }
    }

    /// Record a barrier crossing (statistics).
    pub fn cross(&mut self) -> Cycle {
        self.crossings += 1;
        self.round_trip
    }

    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Run the §III sequence that forces every arbiter into the canonical
    /// state and latches the configuration across resets.
    pub fn prepare_reproducible_reboot(&mut self) {
        self.state = ArbiterState::Canonical;
        self.hold_config = true;
    }

    /// A chip reset propagates to the network. If the configuration was
    /// latched, the canonical state survives; otherwise the arbiters come
    /// back in an arbitrary phase.
    pub fn on_chip_reset(&mut self) {
        if !self.hold_config {
            self.state = ArbiterState::Unsynchronized;
        }
        self.crossings = 0;
    }

    pub fn state(&self) -> ArbiterState {
        self.state
    }

    /// Whether a multichip run started now would be cycle-aligned with a
    /// previous one.
    pub fn multichip_reproducible(&self) -> bool {
        self.state == ArbiterState::Canonical
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> BarrierNet {
        BarrierNet::new(&MachineConfig::nodes(2))
    }

    #[test]
    fn barrier_is_sub_microsecond() {
        let n = net();
        let us = cycles::cycles_to_us(n.round_trip);
        assert!(us < 1.5, "barrier {us} us");
    }

    #[test]
    fn plain_reset_loses_alignment() {
        let mut n = net();
        assert!(!n.multichip_reproducible());
        n.prepare_reproducible_reboot();
        assert!(n.multichip_reproducible());
        // A reset *without* re-running the preparation keeps alignment
        // only because the config was latched...
        n.on_chip_reset();
        assert!(n.multichip_reproducible());
        // ...but a network that never ran the sequence is not aligned
        // after reset.
        let mut fresh = net();
        fresh.on_chip_reset();
        assert!(!fresh.multichip_reproducible());
    }

    #[test]
    fn crossings_counted_and_cleared() {
        let mut n = net();
        n.cross();
        n.cross();
        assert_eq!(n.crossings(), 2);
        n.on_chip_reset();
        assert_eq!(n.crossings(), 0);
    }
}
