//! The DCMF communication model: matching, protocols, collectives.

use std::collections::HashMap;

use rand::rngs::SmallRng;

use bgsim::cycles::Cycle;
use bgsim::machine::{
    BlockKind, CommAction, CommCaps, CommModel, JobMap, NetMsg, RecvInfo, SimCore,
};
use bgsim::op::{ApiLayer, CommOp, Protocol};
use bgsim::rng::uniform_incl;
use bgsim::telemetry::Slot;
use bgsim::trace::{TraceEvent, NO_CORE};
use sysabi::{NodeId, Rank, SysRet, Tid};

use crate::params::DcmfParams;

/// Wire-size of a protocol control message (RTS/CTS/ack/get request).
const CTRL_BYTES: u64 = 32;

/// In-flight message bookkeeping, keyed by the simulator's message id.
enum Inflight {
    Eager {
        src: Rank,
        dst: Rank,
        tag: u32,
        bytes: u64,
    },
    Rts {
        rid: u64,
    },
    Cts {
        rid: u64,
    },
    RndzvData {
        rid: u64,
    },
    PutData {
        origin: Tid,
        blocking: bool,
        ack_extra: u64,
    },
    PutAck {
        origin: Tid,
    },
    GetReq {
        origin: Tid,
        bytes: u64,
        layer: ApiLayer,
    },
    GetReply {
        origin: Tid,
    },
}

/// A rendezvous handshake in progress.
struct Rndzv {
    src: Rank,
    dst: Rank,
    tag: u32,
    bytes: u64,
    layer: ApiLayer,
    receiver: Option<Tid>,
    /// Bulk data already landed (receiver not yet posted).
    data_arrived: bool,
}

/// A posted (blocked) receive. (The receive-side layer cost is charged
/// by the sender-side `extra_delay`, both layers being equal in our
/// benchmarks, so the posted entry needs no layer field.)
struct Posted {
    dst: Rank,
    src: Option<Rank>,
    tag: u32,
    tid: Tid,
}

/// An arrival with no matching receive yet.
enum Unexpected {
    Eager {
        src: Rank,
        dst: Rank,
        tag: u32,
        bytes: u64,
    },
    Rts {
        rid: u64,
        src: Rank,
        dst: Rank,
        tag: u32,
    },
}

/// One collective round (bulk-synchronous: all ranks join the same
/// operation before anyone starts the next).
#[derive(Default)]
struct CollRound {
    arrived: Vec<Tid>,
    bytes_max: u64,
    is_reduce: bool,
}

/// The DCMF stack.
pub struct Dcmf {
    p: DcmfParams,
    job: Option<JobMap>,
    caps: CommCaps,
    inflight: HashMap<u64, Inflight>,
    rndzv: HashMap<u64, Rndzv>,
    next_rid: u64,
    posted: Vec<Posted>,
    unexpected: Vec<Unexpected>,
    coll: CollRound,
    coll_seq: u64,
    /// Jitter stream for the software-collective path (present once a
    /// job is configured).
    sw_coll_rng: Option<SmallRng>,
}

impl Dcmf {
    pub fn new(p: DcmfParams) -> Dcmf {
        Dcmf {
            p,
            job: None,
            caps: CommCaps::cnk(),
            inflight: HashMap::new(),
            rndzv: HashMap::new(),
            next_rid: 0,
            posted: Vec::new(),
            unexpected: Vec::new(),
            coll: CollRound::default(),
            coll_seq: 0,
            sw_coll_rng: None,
        }
    }

    pub fn with_defaults() -> Dcmf {
        Dcmf::new(DcmfParams::default())
    }

    pub fn params(&self) -> &DcmfParams {
        &self.p
    }

    fn node_of(&self, r: Rank) -> NodeId {
        self.job.as_ref().expect("no job configured").rank(r).node
    }

    fn nranks(&self) -> usize {
        self.job.as_ref().map_or(0, |j| j.nranks() as usize)
    }

    /// Injection cost under a capability set: free with user-space DMA
    /// over contiguous memory; otherwise a syscall plus per-segment
    /// descriptor programming plus a bounce copy (§V.C).
    fn inject_cost(&self, caps: &CommCaps, bytes: u64) -> u64 {
        let mut c = 0;
        if !caps.user_space_dma {
            c += caps.injection_syscall_cycles;
        }
        if !caps.phys_contiguous {
            let segs = bytes.div_ceil(caps.segment_bytes.max(1)).max(1);
            c += (segs - 1) * caps.per_segment_cycles;
            c += (bytes as f64 / caps.copy_bytes_per_cycle) as u64;
        }
        c
    }

    /// Receive-side landing cost (bounce copy out of the FIFO when
    /// zero-copy placement is impossible).
    fn landing_cost(&self, bytes: u64) -> u64 {
        if self.caps.phys_contiguous {
            0
        } else {
            (bytes as f64 / self.caps.copy_bytes_per_cycle) as u64
        }
    }

    fn layer_send(&self, layer: ApiLayer) -> u64 {
        match layer {
            ApiLayer::Dcmf => 0,
            ApiLayer::Mpi => self.p.mpi_send,
            ApiLayer::Armci => self.p.armci_origin,
        }
    }

    fn layer_recv(&self, layer: ApiLayer) -> u64 {
        match layer {
            ApiLayer::Dcmf => 0,
            ApiLayer::Mpi => self.p.mpi_recv,
            ApiLayer::Armci => self.p.armci_complete,
        }
    }

    fn find_posted(&mut self, dst: Rank, src: Rank, tag: u32) -> Option<Posted> {
        let idx = self
            .posted
            .iter()
            .position(|p| p.dst == dst && p.tag == tag && p.src.is_none_or(|s| s == src))?;
        Some(self.posted.remove(idx))
    }

    fn find_unexpected(&mut self, dst: Rank, src: Option<Rank>, tag: u32) -> Option<Unexpected> {
        let idx = self.unexpected.iter().position(|u| match u {
            Unexpected::Eager {
                dst: d,
                src: s,
                tag: t,
                ..
            }
            | Unexpected::Rts {
                dst: d,
                src: s,
                tag: t,
                ..
            } => *d == dst && *t == tag && src.is_none_or(|want| *s == want),
        })?;
        Some(self.unexpected.remove(idx))
    }

    /// Send the CTS of handshake `rid` from the receiver's node.
    fn send_cts(&mut self, sc: &mut SimCore, rid: u64) {
        let (src_node, dst_node) = {
            let r = &self.rndzv[&rid];
            (self.node_of(r.dst), self.node_of(r.src))
        };
        // CTS leg: control send + flight + sender-side protocol
        // processing (charged as arrival delay).
        let extra = self.p.eager_send + self.p.rndzv_ctrl;
        let id = sc.torus_send(src_node, dst_node, CTRL_BYTES, 0, vec![], extra);
        self.inflight.insert(id, Inflight::Cts { rid });
    }

    fn finish_collective(&mut self, sc: &mut SimCore) {
        let n = self.nranks();
        if self.coll.arrived.len() != n || n == 0 {
            return;
        }
        let round = std::mem::take(&mut self.coll);
        self.coll_seq += 1;
        let mut done: Cycle = if round.is_reduce {
            sc.now() + sc.coll.reduce_cycles(n as u32, round.bytes_max) + self.p.allreduce_exit
        } else {
            sc.now() + sc.barrier.cross()
        };
        if !self.caps.user_space_dma {
            // Software path (kernel-mediated NIC + TCP): slower and
            // jittery — the §V.D Linux allreduce behaviour.
            let rng = self.sw_coll_rng.as_mut().expect("job configured");
            done += self.p.sw_coll_base + uniform_incl(rng, 0, self.p.sw_coll_jitter);
        }
        for tid in round.arrived {
            sc.schedule_coll_done(tid, self.coll_seq, done);
        }
    }
}

impl Default for Dcmf {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl CommModel for Dcmf {
    fn name(&self) -> &'static str {
        "dcmf"
    }

    fn configure_job(&mut self, sc: &SimCore, job: &JobMap, caps: CommCaps) {
        self.job = Some(job.clone());
        self.caps = caps;
        self.sw_coll_rng = Some(sc.hub.stream("dcmf-sw-coll"));
        self.inflight.clear();
        self.rndzv.clear();
        self.posted.clear();
        self.unexpected.clear();
        self.coll = CollRound::default();
    }

    fn issue(
        &mut self,
        sc: &mut SimCore,
        caps: &CommCaps,
        tid: Tid,
        rank: Rank,
        op: &CommOp,
    ) -> CommAction {
        match op {
            CommOp::Send {
                to,
                bytes,
                tag,
                proto,
                layer,
            } => {
                let rndzv = match proto {
                    Protocol::Eager => false,
                    Protocol::Rendezvous => true,
                    Protocol::Auto => *bytes > self.p.eager_threshold,
                };
                let src_node = self.node_of(rank);
                let dst_node = self.node_of(*to);
                if !rndzv {
                    // Eager: payload travels with the envelope; the
                    // sender is done after local processing.
                    let send_cost = self.layer_send(*layer)
                        + self.p.eager_send
                        + self.inject_cost(caps, *bytes);
                    let recv_cost =
                        self.p.eager_recv + self.layer_recv(*layer) + self.landing_cost(*bytes);
                    let id =
                        sc.torus_send(src_node, dst_node, *bytes, 0, vec![], send_cost + recv_cost);
                    self.inflight.insert(
                        id,
                        Inflight::Eager {
                            src: rank,
                            dst: *to,
                            tag: *tag,
                            bytes: *bytes,
                        },
                    );
                    sc.tel
                        .count(sc.tel.ids.dcmf_eager, Slot::Node(src_node.0), 1);
                    sc.trace_thread(
                        tid,
                        TraceEvent::MsgPhase {
                            phase: "eager_send",
                            peer: u64::from(to.0),
                            bytes: *bytes,
                        },
                    );
                    CommAction::RunFor { cycles: send_cost }
                } else {
                    // Rendezvous: RTS → CTS → zero-copy bulk data. The
                    // sender completes once the RTS is injected (Isend
                    // semantics; the DMA moves the payload when the CTS
                    // arrives, without the CPU).
                    let rid = self.next_rid;
                    self.next_rid += 1;
                    self.rndzv.insert(
                        rid,
                        Rndzv {
                            src: rank,
                            dst: *to,
                            tag: *tag,
                            bytes: *bytes,
                            layer: *layer,
                            receiver: None,
                            data_arrived: false,
                        },
                    );
                    let rts_cost = self.layer_send(*layer) + self.p.eager_send;
                    let extra = rts_cost + self.p.rndzv_ctrl;
                    let id = sc.torus_send(src_node, dst_node, CTRL_BYTES, 0, vec![], extra);
                    self.inflight.insert(id, Inflight::Rts { rid });
                    sc.tel
                        .count(sc.tel.ids.dcmf_rndzv, Slot::Node(src_node.0), 1);
                    sc.trace_thread(
                        tid,
                        TraceEvent::MsgPhase {
                            phase: "rts_send",
                            peer: u64::from(to.0),
                            bytes: *bytes,
                        },
                    );
                    CommAction::RunFor { cycles: rts_cost }
                }
            }
            CommOp::Recv { from, tag, layer } => {
                match self.find_unexpected(rank, *from, *tag) {
                    Some(Unexpected::Eager {
                        src, bytes, tag, ..
                    }) => {
                        sc.inbox_mut(tid).pending_recv = Some(RecvInfo {
                            from: src,
                            bytes,
                            tag,
                        });
                        CommAction::RunFor {
                            cycles: self.p.eager_recv + self.layer_recv(*layer),
                        }
                    }
                    Some(Unexpected::Rts { rid, .. }) => {
                        // The CTS was already answered by the RTS handler
                        // (DCMF's active-message progress); either the
                        // data has landed, or we wait for it.
                        let done = self.rndzv.get(&rid).is_some_and(|r| r.data_arrived);
                        if done {
                            let r = self.rndzv.remove(&rid).unwrap();
                            sc.inbox_mut(tid).pending_recv = Some(RecvInfo {
                                from: r.src,
                                bytes: r.bytes,
                                tag: r.tag,
                            });
                            CommAction::RunFor {
                                cycles: self.p.rndzv_complete,
                            }
                        } else {
                            if let Some(r) = self.rndzv.get_mut(&rid) {
                                r.receiver = Some(tid);
                            }
                            CommAction::Block {
                                kind: BlockKind::Recv,
                            }
                        }
                    }
                    None => {
                        self.posted.push(Posted {
                            dst: rank,
                            src: *from,
                            tag: *tag,
                            tid,
                        });
                        CommAction::Block {
                            kind: BlockKind::Recv,
                        }
                    }
                }
            }
            CommOp::Put {
                to,
                bytes,
                layer,
                blocking,
            } => {
                let send_cost =
                    self.layer_send(*layer) + self.p.put_send + self.inject_cost(caps, *bytes);
                let extra = send_cost + self.p.put_remote + self.landing_cost(*bytes);
                let id = sc.torus_send(
                    self.node_of(rank),
                    self.node_of(*to),
                    *bytes,
                    0,
                    vec![],
                    extra,
                );
                let src_node = self.node_of(rank);
                sc.tel.count(sc.tel.ids.dcmf_put, Slot::Node(src_node.0), 1);
                sc.trace_thread(
                    tid,
                    TraceEvent::MsgPhase {
                        phase: "put_inject",
                        peer: u64::from(to.0),
                        bytes: *bytes,
                    },
                );
                let ack_extra = self.layer_recv(*layer);
                self.inflight.insert(
                    id,
                    Inflight::PutData {
                        origin: tid,
                        blocking: *blocking,
                        ack_extra,
                    },
                );
                if *blocking {
                    CommAction::Block {
                        kind: BlockKind::Rma,
                    }
                } else {
                    CommAction::RunFor { cycles: send_cost }
                }
            }
            CommOp::Get { from, bytes, layer } => {
                let req_cost =
                    self.layer_send(*layer) + self.p.get_req + self.inject_cost(caps, CTRL_BYTES);
                let target_side = if *layer == ApiLayer::Armci {
                    self.p.armci_target
                } else {
                    0
                };
                let extra = req_cost + self.p.get_serve + target_side;
                let id = sc.torus_send(
                    self.node_of(rank),
                    self.node_of(*from),
                    CTRL_BYTES,
                    0,
                    vec![],
                    extra,
                );
                let src_node = self.node_of(rank);
                sc.tel.count(sc.tel.ids.dcmf_get, Slot::Node(src_node.0), 1);
                sc.trace_thread(
                    tid,
                    TraceEvent::MsgPhase {
                        phase: "get_request",
                        peer: u64::from(from.0),
                        bytes: *bytes,
                    },
                );
                self.inflight.insert(
                    id,
                    Inflight::GetReq {
                        origin: tid,
                        bytes: *bytes,
                        layer: *layer,
                    },
                );
                CommAction::Block {
                    kind: BlockKind::Rma,
                }
            }
            CommOp::Barrier => {
                self.coll.arrived.push(tid);
                self.coll.is_reduce = false;
                let node = self.node_of(rank);
                sc.tel.count(sc.tel.ids.dcmf_coll, Slot::Node(node.0), 1);
                sc.trace_thread(
                    tid,
                    TraceEvent::MsgPhase {
                        phase: "barrier_enter",
                        peer: u64::from(rank.0),
                        bytes: 0,
                    },
                );
                self.finish_collective(sc);
                CommAction::Block {
                    kind: BlockKind::Coll,
                }
            }
            CommOp::Allreduce { bytes } => {
                self.coll.arrived.push(tid);
                self.coll.is_reduce = true;
                self.coll.bytes_max = self.coll.bytes_max.max(*bytes);
                let node = self.node_of(rank);
                sc.tel.count(sc.tel.ids.dcmf_coll, Slot::Node(node.0), 1);
                sc.trace_thread(
                    tid,
                    TraceEvent::MsgPhase {
                        phase: "allreduce_enter",
                        peer: u64::from(rank.0),
                        bytes: *bytes,
                    },
                );
                self.finish_collective(sc);
                CommAction::Block {
                    kind: BlockKind::Coll,
                }
            }
        }
    }

    fn net_deliver(&mut self, sc: &mut SimCore, msg: NetMsg) {
        let Some(inflight) = self.inflight.remove(&msg.id) else {
            return;
        };
        match inflight {
            Inflight::Eager {
                src,
                dst,
                tag,
                bytes,
            } => match self.find_posted(dst, src, tag) {
                Some(p) => {
                    sc.inbox_mut(p.tid).pending_recv = Some(RecvInfo {
                        from: src,
                        bytes,
                        tag,
                    });
                    sc.defer_unblock(p.tid, Some(SysRet::Val(bytes as i64)));
                }
                None => {
                    self.unexpected.push(Unexpected::Eager {
                        src,
                        dst,
                        tag,
                        bytes,
                    });
                }
            },
            Inflight::Rts { rid } => {
                let (src, dst, tag) = {
                    let r = &self.rndzv[&rid];
                    (r.src, r.dst, r.tag)
                };
                match self.find_posted(dst, src, tag) {
                    Some(p) => {
                        if let Some(r) = self.rndzv.get_mut(&rid) {
                            r.receiver = Some(p.tid);
                        }
                    }
                    None => {
                        // DCMF's RTS handler answers without waiting for
                        // an application-level receive — that is what
                        // lets all six neighbor transfers overlap in the
                        // Fig. 8 exchange.
                        self.unexpected.push(Unexpected::Rts { rid, src, dst, tag });
                    }
                }
                sc.trace.record(
                    sc.now(),
                    msg.dst_node.0,
                    NO_CORE,
                    TraceEvent::MsgPhase {
                        phase: "cts_send",
                        peer: rid,
                        bytes: CTRL_BYTES,
                    },
                );
                self.send_cts(sc, rid);
            }
            Inflight::Cts { rid } => {
                // Back at the sender's node: the DMA injects the bulk
                // data (zero-copy if capabilities allow).
                let (src, dst, bytes, layer) = {
                    let r = &self.rndzv[&rid];
                    (r.src, r.dst, r.bytes, r.layer)
                };
                let inject = self.inject_cost(&self.caps, bytes);
                let extra = inject
                    + self.p.rndzv_complete
                    + self.layer_recv(layer)
                    + self.landing_cost(bytes);
                let id = sc.torus_send(
                    self.node_of(src),
                    self.node_of(dst),
                    bytes,
                    0,
                    vec![],
                    extra,
                );
                self.inflight.insert(id, Inflight::RndzvData { rid });
                sc.trace.record(
                    sc.now(),
                    msg.dst_node.0,
                    NO_CORE,
                    TraceEvent::MsgPhase {
                        phase: "rndzv_data_inject",
                        peer: rid,
                        bytes,
                    },
                );
            }
            Inflight::RndzvData { rid } => {
                let Some(r) = self.rndzv.get_mut(&rid) else {
                    return;
                };
                sc.trace.record(
                    sc.now(),
                    msg.dst_node.0,
                    NO_CORE,
                    TraceEvent::MsgPhase {
                        phase: "rndzv_data_landed",
                        peer: rid,
                        bytes: r.bytes,
                    },
                );
                match r.receiver {
                    Some(recv_tid) => {
                        let r = self.rndzv.remove(&rid).unwrap();
                        sc.inbox_mut(recv_tid).pending_recv = Some(RecvInfo {
                            from: r.src,
                            bytes: r.bytes,
                            tag: r.tag,
                        });
                        sc.defer_unblock(recv_tid, Some(SysRet::Val(r.bytes as i64)));
                    }
                    None => {
                        r.data_arrived = true;
                    }
                }
            }
            Inflight::PutData {
                origin,
                blocking,
                ack_extra,
            } => {
                if blocking {
                    // Hardware ack back to the origin.
                    let id =
                        sc.torus_send(msg.dst_node, msg.src_node, CTRL_BYTES, 0, vec![], ack_extra);
                    self.inflight.insert(id, Inflight::PutAck { origin });
                }
            }
            Inflight::PutAck { origin } => {
                sc.defer_unblock(origin, Some(SysRet::Val(0)));
            }
            Inflight::GetReq {
                origin,
                bytes,
                layer,
            } => {
                // Target: stream the data back.
                let extra = self.p.get_complete + self.layer_recv(layer) + self.landing_cost(bytes);
                let id = sc.torus_send(msg.dst_node, msg.src_node, bytes, 0, vec![], extra);
                self.inflight.insert(id, Inflight::GetReply { origin });
            }
            Inflight::GetReply { origin } => {
                sc.defer_unblock(origin, Some(SysRet::Val(0)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_cost_free_under_cnk_caps() {
        let d = Dcmf::with_defaults();
        assert_eq!(d.inject_cost(&CommCaps::cnk(), 1 << 20), 0);
    }

    #[test]
    fn inject_cost_charges_fwk_caps() {
        let d = Dcmf::with_defaults();
        let caps = CommCaps::fwk();
        let small = d.inject_cost(&caps, 64);
        // At least the syscall.
        assert!(small >= caps.injection_syscall_cycles);
        let big = d.inject_cost(&caps, 1 << 20);
        // Per-segment programming: 256 segments of 4 KiB, plus the copy.
        assert!(big > small + 255 * caps.per_segment_cycles);
        assert!(big as f64 >= (1 << 20) as f64 / caps.copy_bytes_per_cycle);
    }

    #[test]
    fn layer_costs_ordered() {
        let d = Dcmf::with_defaults();
        assert_eq!(d.layer_send(ApiLayer::Dcmf), 0);
        assert!(d.layer_send(ApiLayer::Mpi) > 0);
        assert!(d.layer_send(ApiLayer::Armci) > 0);
    }
}
