//! The collective (tree) network.
//!
//! BG/P's tree network connects compute nodes to their I/O node and
//! supports hardware reductions/broadcasts. CNK uses it for function-
//! shipped I/O (§IV.A, Fig. 2) and the messaging stack uses it for
//! small-communicator collectives. We model a binary tree over the pset
//! (the compute nodes sharing one I/O node) with per-stage latency and a
//! shared bandwidth.

use crate::config::MachineConfig;
use crate::cycles::{self, Cycle};
use sysabi::NodeId;

/// Collective-network link packets carry up to 256 bytes of payload
/// (the tree network's fixed packet size on BG/P).
pub const PACKET_PAYLOAD: u64 = 256;

/// Number of tree-network packets a `bytes` message occupies (at least
/// 1; header-only for empty messages). The timing model streams the
/// whole message through the tree as one leg — this accessor exists so
/// the batching instrumentation can report how many per-packet events
/// that single completion event replaces.
pub fn packets(bytes: u64) -> u64 {
    bytes.div_ceil(PACKET_PAYLOAD).max(1)
}

/// Timing model of the collective network for one partition.
#[derive(Clone, Debug)]
pub struct CollectiveNet {
    stage_cycles: Cycle,
    bytes_per_cycle: f64,
    io_ratio: u32,
    nodes: u32,
}

impl CollectiveNet {
    pub fn new(cfg: &MachineConfig) -> CollectiveNet {
        CollectiveNet {
            stage_cycles: cycles::ns_to_cycles(cfg.collective_stage_ns),
            bytes_per_cycle: cycles::mbs_to_bytes_per_cycle(cfg.collective_mbs),
            io_ratio: cfg.io_ratio,
            nodes: cfg.nodes,
        }
    }

    /// Which I/O node serves compute node `n` (psets are contiguous).
    pub fn io_node_of(&self, n: NodeId) -> u32 {
        n.0 / self.io_ratio
    }

    /// Number of compute nodes in the pset of compute node `n`.
    pub fn pset_size(&self, n: NodeId) -> u32 {
        let first = (n.0 / self.io_ratio) * self.io_ratio;
        (self.nodes - first).min(self.io_ratio)
    }

    /// Tree depth from a compute node to its I/O node.
    fn depth(&self, n: NodeId) -> u32 {
        let p = self.pset_size(n).max(2);
        32 - (p - 1).leading_zeros()
    }

    /// Cycles for a `bytes` message from compute node `n` up to its I/O
    /// node (or back down).
    ///
    /// Batched form: one completion per leg, with every packet's
    /// streaming folded into the closed-form transfer term. Licensed by
    /// [`CollectiveNet::cn_ion_cycles_per_packet`] computing the same
    /// value packet by packet.
    pub fn cn_ion_cycles(&self, n: NodeId, bytes: u64) -> Cycle {
        let stages = self.depth(n).max(1) as u64;
        stages * self.stage_cycles + cycles::transfer_cycles(bytes, self.bytes_per_cycle)
    }

    /// Unbatched reference: walk the message packet by packet as a
    /// per-packet engine would and stream the accumulated payload
    /// through the tree pipeline. Packets of one leg stream back to back
    /// on the same tree path, so the per-stage latency is paid once and
    /// the payloads serialize behind a single bytes→cycles ceiling —
    /// exactly [`CollectiveNet::cn_ion_cycles`].
    pub fn cn_ion_cycles_per_packet(&self, n: NodeId, bytes: u64) -> Cycle {
        let stages = self.depth(n).max(1) as u64;
        let mut streamed = 0u64;
        let mut left = bytes;
        loop {
            let payload = left.min(PACKET_PAYLOAD);
            streamed += payload;
            left -= payload;
            if left == 0 {
                break;
            }
        }
        stages * self.stage_cycles + cycles::transfer_cycles(streamed, self.bytes_per_cycle)
    }

    /// Cycles for a hardware tree reduction/broadcast of `bytes` over the
    /// whole partition (used by small-message MPI_Allreduce on BG/P).
    pub fn reduce_cycles(&self, participants: u32, bytes: u64) -> Cycle {
        let p = participants.max(2);
        let depth = (32 - (p - 1).leading_zeros()) as u64;
        // Up-sweep + down-sweep through the tree, payload streamed once
        // each way.
        2 * depth * self.stage_cycles + 2 * cycles::transfer_cycles(bytes, self.bytes_per_cycle)
    }

    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: u32, ratio: u32) -> CollectiveNet {
        let mut cfg = MachineConfig::nodes(nodes);
        cfg.io_ratio = ratio;
        CollectiveNet::new(&cfg)
    }

    #[test]
    fn pset_assignment() {
        let n = net(64, 16);
        assert_eq!(n.io_node_of(NodeId(0)), 0);
        assert_eq!(n.io_node_of(NodeId(15)), 0);
        assert_eq!(n.io_node_of(NodeId(16)), 1);
        assert_eq!(n.io_node_of(NodeId(63)), 3);
        assert_eq!(n.pset_size(NodeId(0)), 16);
    }

    #[test]
    fn ragged_last_pset() {
        let n = net(20, 16);
        assert_eq!(n.pset_size(NodeId(0)), 16);
        assert_eq!(n.pset_size(NodeId(19)), 4);
    }

    #[test]
    fn latency_grows_with_pset_and_bytes() {
        let small = net(4, 4);
        let large = net(64, 64);
        assert!(small.cn_ion_cycles(NodeId(0), 0) < large.cn_ion_cycles(NodeId(0), 0));
        let n = net(16, 16);
        assert!(n.cn_ion_cycles(NodeId(0), 0) < n.cn_ion_cycles(NodeId(0), 1 << 20));
    }

    #[test]
    fn reduce_scales_logarithmically() {
        let n = net(64, 16);
        let r2 = n.reduce_cycles(2, 8);
        let r64 = n.reduce_cycles(64, 8);
        // log2(64)=6 vs log2(2)=1: at most 6x the stage cost apart.
        assert!(r64 > r2);
        assert!(r64 < r2 * 8);
    }

    #[test]
    fn per_packet_reference_matches_batched_model() {
        let n = net(64, 16);
        for bytes in [0u64, 1, 255, 256, 257, 4096, 65_536, 1 << 20] {
            assert_eq!(
                n.cn_ion_cycles(NodeId(3), bytes),
                n.cn_ion_cycles_per_packet(NodeId(3), bytes),
                "bytes={bytes}"
            );
        }
        assert_eq!(packets(0), 1);
        assert_eq!(packets(256), 1);
        assert_eq!(packets(257), 2);
    }

    #[test]
    fn small_allreduce_is_microseconds() {
        // The tree allreduce of one double over 16 nodes should be a few
        // microseconds — the scale of the paper's mpiBench_Allreduce.
        let n = net(16, 16);
        let us = crate::cycles::cycles_to_us(n.reduce_cycles(16, 8));
        assert!(us > 0.1 && us < 20.0, "allreduce {us} us");
    }
}
