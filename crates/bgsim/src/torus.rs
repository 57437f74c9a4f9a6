//! The 3D torus interconnect and its DMA engine.
//!
//! BG/P's torus: six 425 MB/s links per node, dimension-ordered routing,
//! cut-through switching, and a DMA engine that applications drive
//! directly under CNK ("Simple memory mappings allow CNK applications to
//! directly drive the DMA torus hardware", §VII.A). This module provides
//! the geometric and timing model; protocol behaviour lives in `dcmf`.

use crate::config::MachineConfig;
use crate::cycles::{self, Cycle};
use sysabi::NodeId;

/// Torus coordinates of a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Coord {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

/// Geometry of the torus partition.
#[derive(Clone, Debug)]
pub struct Torus {
    dims: (u32, u32, u32),
    link_bytes_per_cycle: f64,
    hop_cycles: Cycle,
    /// Fixed cost to inject a packet into the network (arbitration,
    /// header build) once a descriptor reaches the DMA engine.
    inject_cycles: Cycle,
    /// Torus packets carry up to 256 bytes of payload.
    packet_payload: u64,
    /// Per-packet header+CRC overhead bytes on the wire.
    packet_overhead: u64,
}

impl Torus {
    pub fn new(cfg: &MachineConfig) -> Torus {
        Torus {
            dims: cfg.torus_dims,
            link_bytes_per_cycle: cycles::mbs_to_bytes_per_cycle(cfg.torus_link_mbs),
            hop_cycles: cycles::ns_to_cycles(cfg.torus_hop_ns),
            inject_cycles: 60,
            packet_payload: 240,
            packet_overhead: 16,
        }
    }

    pub fn dims(&self) -> (u32, u32, u32) {
        self.dims
    }

    /// Node id → torus coordinate (x fastest).
    pub fn coord(&self, n: NodeId) -> Coord {
        let (dx, dy, _dz) = self.dims;
        let i = n.0;
        Coord {
            x: i % dx,
            y: (i / dx) % dy,
            z: i / (dx * dy),
        }
    }

    /// Torus coordinate → node id.
    pub fn node_at(&self, c: Coord) -> NodeId {
        let (dx, dy, _) = self.dims;
        NodeId(c.x + c.y * dx + c.z * dx * dy)
    }

    /// Shortest per-dimension distance on a ring of size `d`.
    fn ring_dist(a: u32, b: u32, d: u32) -> u32 {
        let f = (a as i64 - b as i64).unsigned_abs() as u32;
        f.min(d - f)
    }

    /// Minimal hop count between two nodes (dimension-ordered routing
    /// takes exactly this many hops).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let (dx, dy, dz) = self.dims;
        let ca = self.coord(a);
        let cb = self.coord(b);
        Self::ring_dist(ca.x, cb.x, dx)
            + Self::ring_dist(ca.y, cb.y, dy)
            + Self::ring_dist(ca.z, cb.z, dz)
    }

    /// The up-to-six distinct nearest neighbors of a node (fewer on
    /// degenerate dimensions).
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let (dx, dy, dz) = self.dims;
        let c = self.coord(n);
        let mut out = Vec::with_capacity(6);
        let mut push = |co: Coord| {
            let id = self.node_at(co);
            if id != n && !out.contains(&id) {
                out.push(id);
            }
        };
        if dx > 1 {
            push(Coord {
                x: (c.x + 1) % dx,
                ..c
            });
            push(Coord {
                x: (c.x + dx - 1) % dx,
                ..c
            });
        }
        if dy > 1 {
            push(Coord {
                y: (c.y + 1) % dy,
                ..c
            });
            push(Coord {
                y: (c.y + dy - 1) % dy,
                ..c
            });
        }
        if dz > 1 {
            push(Coord {
                z: (c.z + 1) % dz,
                ..c
            });
            push(Coord {
                z: (c.z + dz - 1) % dz,
                ..c
            });
        }
        out
    }

    /// Wire bytes for a payload of `bytes` (packetization overhead).
    pub fn wire_bytes(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return self.packet_overhead;
        }
        let packets = bytes.div_ceil(self.packet_payload);
        bytes + packets * self.packet_overhead
    }

    /// Number of torus packets a `bytes` message occupies (at least 1 —
    /// a zero-byte message still sends a header-only packet).
    pub fn packets(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.packet_payload).max(1)
    }

    /// Cycles from DMA injection to last-byte delivery for a `bytes`
    /// message over `hops` hops (cut-through: header latency + serialize).
    ///
    /// This is the *batched* form: one completion per message leg with
    /// the serialization of all packets folded into a single closed-form
    /// term, instead of one engine event per packet. The per-packet
    /// reference model ([`Torus::transfer_cycles_per_packet`]) computes
    /// the identical value, which is what licenses the batching.
    pub fn transfer_cycles(&self, bytes: u64, hops: u32) -> Cycle {
        let serialize = cycles::transfer_cycles(self.wire_bytes(bytes), self.link_bytes_per_cycle);
        self.inject_cycles + self.hop_cycles * hops.max(1) as u64 + serialize
    }

    /// The unbatched reference model: walk the message packet by packet,
    /// as an engine scheduling one event per packet would, accumulating
    /// each packet's wire bytes, and serialize the summed wire traffic
    /// behind the cut-through header latency. Exactly equal to
    /// [`Torus::transfer_cycles`] for every `(bytes, hops)` — packets
    /// stream back-to-back on one link, so their serialization times sum
    /// before the single ceiling that converts bytes to cycles.
    pub fn transfer_cycles_per_packet(&self, bytes: u64, hops: u32) -> Cycle {
        let mut wire = 0u64;
        let mut left = bytes;
        loop {
            let payload = left.min(self.packet_payload);
            wire += payload + self.packet_overhead;
            left -= payload;
            if left == 0 {
                break;
            }
        }
        let serialize = cycles::transfer_cycles(wire, self.link_bytes_per_cycle);
        self.inject_cycles + self.hop_cycles * hops.max(1) as u64 + serialize
    }

    /// Cycles for the DMA engine to accept a descriptor (what the sender
    /// core pays before continuing).
    pub fn inject_cycles(&self) -> Cycle {
        self.inject_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> Torus {
        Torus::new(&MachineConfig::nodes(n))
    }

    #[test]
    fn coord_roundtrip() {
        let t = t(64);
        for i in 0..64 {
            let n = NodeId(i);
            assert_eq!(t.node_at(t.coord(n)), n);
        }
    }

    #[test]
    fn hops_symmetric_and_zero_on_self() {
        let t = t(64);
        for a in 0..64 {
            assert_eq!(t.hops(NodeId(a), NodeId(a)), 0);
            for b in 0..64 {
                assert_eq!(t.hops(NodeId(a), NodeId(b)), t.hops(NodeId(b), NodeId(a)));
            }
        }
    }

    #[test]
    fn wraparound_shortens_paths() {
        // On a 4-ring, distance 0→3 is 1 hop via the wrap link.
        let t = t(64); // 4x4x4
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(2)), 2);
    }

    #[test]
    fn neighbor_count() {
        let t8 = t(8); // 2x2x2: each ring has size 2 → 3 distinct neighbors
        assert_eq!(t8.neighbors(NodeId(0)).len(), 3);
        let t64 = t(64); // 4x4x4 → 6 distinct neighbors
        assert_eq!(t64.neighbors(NodeId(0)).len(), 6);
        for nb in t64.neighbors(NodeId(0)) {
            assert_eq!(t64.hops(NodeId(0), nb), 1);
        }
    }

    #[test]
    fn two_node_machine() {
        let t2 = t(2);
        assert_eq!(t2.neighbors(NodeId(0)), vec![NodeId(1)]);
        assert_eq!(t2.hops(NodeId(0), NodeId(1)), 1);
    }

    #[test]
    fn transfer_monotone_in_size_and_distance() {
        let t = t(64);
        assert!(t.transfer_cycles(1024, 1) < t.transfer_cycles(4096, 1));
        assert!(t.transfer_cycles(1024, 1) < t.transfer_cycles(1024, 6));
    }

    #[test]
    fn packet_overhead_accounted() {
        let t = t(2);
        // 240 bytes → 1 packet → 256 wire bytes.
        assert_eq!(t.wire_bytes(240), 256);
        // 241 bytes → 2 packets.
        assert_eq!(t.wire_bytes(241), 241 + 32);
    }

    #[test]
    fn per_packet_reference_matches_batched_model() {
        // The batched single-event-per-leg timing must equal the
        // unbatched packet-by-packet walk for any size and distance —
        // the equivalence that lets the engine skip per-packet events.
        let t = t(64);
        for bytes in [
            0u64,
            1,
            239,
            240,
            241,
            480,
            481,
            4096,
            65_536,
            (1 << 20) + 17,
        ] {
            for hops in [0u32, 1, 3, 6] {
                assert_eq!(
                    t.transfer_cycles(bytes, hops),
                    t.transfer_cycles_per_packet(bytes, hops),
                    "bytes={bytes} hops={hops}"
                );
            }
        }
        assert_eq!(t.packets(0), 1);
        assert_eq!(t.packets(240), 1);
        assert_eq!(t.packets(241), 2);
        assert_eq!(t.packets(1 << 20), 4370);
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let t = t(2);
        // 1 MB at ~0.5 B/cycle ≈ 2.2M cycles with overhead; hop latency
        // negligible.
        let c = t.transfer_cycles(1 << 20, 1);
        // Peak payload bandwidth of one link in bytes/cycle, after
        // packet overhead.
        let bpc = t.link_bytes_per_cycle * t.packet_payload as f64
            / (t.packet_payload + t.packet_overhead) as f64;
        let ideal = (1u64 << 20) as f64 / bpc;
        assert!((c as f64) < ideal * 1.05);
        assert!((c as f64) > ideal * 0.95);
    }
}
