//! Table I reproduction at test granularity: the seven protocol latencies
//! on a 2-node nearest-neighbor configuration under CNK, in SMP mode.

use bgsim::cycles::cycles_to_us;
use bgsim::machine::{Machine, Recorder};
use bgsim::op::{ApiLayer, CommOp, Op, Protocol};
use bgsim::script::wl;
use bgsim::trace::TraceEvent;
use bgsim::MachineConfig;
use cnk::Cnk;
use dcmf::Dcmf;
use sysabi::{AppImage, JobSpec, NodeMode, Rank};

/// The rows of Table I.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Row {
    DcmfEagerOneWay,
    MpiEagerOneWay,
    MpiRendezvousOneWay,
    DcmfPut,
    DcmfGet,
    ArmciBlockingPut,
    ArmciBlockingGet,
}

const PAYLOAD: u64 = 8;

/// Run one latency measurement; returns microseconds.
fn measure(row: Row) -> f64 {
    let mut m = Machine::new(
        MachineConfig::nodes(2).with_seed(42).with_trace(),
        Box::new(Cnk::with_defaults()),
        Box::new(Dcmf::with_defaults()),
    );
    m.boot();
    let rec = Recorder::new();
    let rec2 = rec.clone();
    let spec = JobSpec::new(AppImage::static_test("lat"), 2, NodeMode::Smp);
    m.launch(&spec, &mut move |r: Rank| {
        let rec = rec2.clone();
        let mut step = 0;
        wl(move |env| {
            step += 1;
            if r.0 == 1 {
                // The passive or receiving side.
                return match (row, step) {
                    (Row::DcmfEagerOneWay, 1) => Op::Comm(CommOp::Recv {
                        from: Some(Rank(0)),
                        tag: 1,
                        layer: ApiLayer::Dcmf,
                    }),
                    (Row::MpiEagerOneWay | Row::MpiRendezvousOneWay, 1) => Op::Comm(CommOp::Recv {
                        from: Some(Rank(0)),
                        tag: 1,
                        layer: ApiLayer::Mpi,
                    }),
                    (Row::DcmfEagerOneWay | Row::MpiEagerOneWay | Row::MpiRendezvousOneWay, 2) => {
                        rec.record("recv_done", env.now() as f64);
                        Op::End
                    }
                    _ => Op::End,
                };
            }
            // Rank 0: warm up, then issue.
            match step {
                1 => Op::Compute { cycles: 50_000 },
                2 => {
                    rec.record("issue", env.now() as f64);
                    match row {
                        Row::DcmfEagerOneWay => Op::Comm(CommOp::Send {
                            to: Rank(1),
                            bytes: PAYLOAD,
                            tag: 1,
                            proto: Protocol::Eager,
                            layer: ApiLayer::Dcmf,
                        }),
                        Row::MpiEagerOneWay => Op::Comm(CommOp::Send {
                            to: Rank(1),
                            bytes: PAYLOAD,
                            tag: 1,
                            proto: Protocol::Eager,
                            layer: ApiLayer::Mpi,
                        }),
                        Row::MpiRendezvousOneWay => Op::Comm(CommOp::Send {
                            to: Rank(1),
                            bytes: PAYLOAD,
                            tag: 1,
                            proto: Protocol::Rendezvous,
                            layer: ApiLayer::Mpi,
                        }),
                        Row::DcmfPut => Op::Comm(CommOp::Put {
                            to: Rank(1),
                            bytes: PAYLOAD,
                            layer: ApiLayer::Dcmf,
                            blocking: false,
                        }),
                        Row::DcmfGet => Op::Comm(CommOp::Get {
                            from: Rank(1),
                            bytes: PAYLOAD,
                            layer: ApiLayer::Dcmf,
                        }),
                        Row::ArmciBlockingPut => Op::Comm(CommOp::Put {
                            to: Rank(1),
                            bytes: PAYLOAD,
                            layer: ApiLayer::Armci,
                            blocking: true,
                        }),
                        Row::ArmciBlockingGet => Op::Comm(CommOp::Get {
                            from: Rank(1),
                            bytes: PAYLOAD,
                            layer: ApiLayer::Armci,
                        }),
                    }
                }
                3 => {
                    rec.record("op_done", env.now() as f64);
                    if row == Row::DcmfPut {
                        // Non-blocking put: stay alive past the remote
                        // completion so the delivery event fires.
                        Op::Compute { cycles: 20_000 }
                    } else {
                        Op::End
                    }
                }
                _ => Op::End,
            }
        })
    })
    .unwrap();
    let out = m.run();
    assert!(out.completed(), "{row:?}: {out:?}");

    let issue = rec.series("issue")[0];
    let cycles = match row {
        // One-way sends: measured at the receiver's completion boundary.
        Row::DcmfEagerOneWay | Row::MpiEagerOneWay | Row::MpiRendezvousOneWay => {
            rec.series("recv_done")[0] - issue
        }
        // Blocking ops: origin-side blocked duration.
        Row::DcmfGet | Row::ArmciBlockingPut | Row::ArmciBlockingGet => {
            rec.series("op_done")[0] - issue
        }
        // Non-blocking put: remote completion observed via the trace
        // (arrival of the payload-sized message at node 1).
        Row::DcmfPut => {
            let arrival =
                m.sc.trace
                    .entries()
                    .iter()
                    .find_map(|e| match e.what {
                        TraceEvent::MsgRecv { bytes, .. } if e.node == 1 && bytes == PAYLOAD => {
                            Some(e.at as f64)
                        }
                        _ => None,
                    })
                    .expect("put data never arrived");
            arrival - issue
        }
    };
    cycles_to_us(cycles as u64)
}

fn assert_close(row: Row, paper_us: f64) {
    let got = measure(row);
    let err = (got - paper_us).abs() / paper_us;
    assert!(
        err < 0.10,
        "{row:?}: measured {got:.3} us, paper {paper_us} us ({:.1}% off)",
        err * 100.0
    );
}

#[test]
fn table1_dcmf_eager_one_way() {
    assert_close(Row::DcmfEagerOneWay, 1.6);
}

#[test]
fn table1_mpi_eager_one_way() {
    assert_close(Row::MpiEagerOneWay, 2.4);
}

#[test]
fn table1_mpi_rendezvous_one_way() {
    assert_close(Row::MpiRendezvousOneWay, 5.6);
}

#[test]
fn table1_dcmf_put() {
    assert_close(Row::DcmfPut, 0.9);
}

#[test]
fn table1_dcmf_get() {
    assert_close(Row::DcmfGet, 1.6);
}

#[test]
fn table1_armci_blocking_put() {
    assert_close(Row::ArmciBlockingPut, 2.0);
}

#[test]
fn table1_armci_blocking_get() {
    assert_close(Row::ArmciBlockingGet, 3.3);
}

#[test]
fn latency_ordering_matches_paper() {
    // The qualitative shape: put < dcmf eager = dcmf get < armci put
    // < mpi eager < armci get < mpi rendezvous.
    let put = measure(Row::DcmfPut);
    let eager = measure(Row::DcmfEagerOneWay);
    let get = measure(Row::DcmfGet);
    let aput = measure(Row::ArmciBlockingPut);
    let mpi = measure(Row::MpiEagerOneWay);
    let aget = measure(Row::ArmciBlockingGet);
    let rndzv = measure(Row::MpiRendezvousOneWay);
    assert!(put < eager);
    assert!((eager - get).abs() < 0.2);
    assert!(eager < aput);
    assert!(aput < mpi + 0.5);
    assert!(mpi < aget);
    assert!(aget < rndzv);
}
