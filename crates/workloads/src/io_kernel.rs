//! A checkpoint-style I/O workload over the POSIX surface (§IV.A).
//!
//! Each rank alternates compute phases with writing a restart file
//! through open/write/fsync/close — exactly the function-shipped path on
//! CNK, a local NFS-client path on the FWK. Used by the I/O examples and
//! the offload ablation.

use bgsim::machine::{Recorder, WlEnv, Workload};
use bgsim::op::Op;
use sysabi::{Fd, OpenFlags, SysReq, SysRet};

pub struct CheckpointApp {
    rank: u32,
    phases: u32,
    compute_cycles: u64,
    chunk_bytes: usize,
    chunks: u32,
    rec: Recorder,
    state: u8,
    phase: u32,
    chunk: u32,
    /// Bytes of the current chunk already on disk — nonzero only after
    /// a short write, when the remainder is reissued.
    chunk_done: usize,
    fd: Fd,
    t_io: u64,
}

impl CheckpointApp {
    pub fn new(rank: u32, phases: u32, rec: Recorder) -> CheckpointApp {
        CheckpointApp {
            rank,
            phases,
            compute_cycles: 2_000_000,
            chunk_bytes: 64 << 10,
            chunks: 4,
            rec,
            state: 0,
            phase: 0,
            chunk: 0,
            chunk_done: 0,
            fd: Fd(-1),
            t_io: 0,
        }
    }

    fn path(&self) -> String {
        format!("/ckpt/rank{}.{:04}", self.rank, self.phase)
    }
}

impl Workload for CheckpointApp {
    fn next(&mut self, env: &mut WlEnv<'_>) -> Op {
        loop {
            match self.state {
                0 => {
                    // Make the checkpoint directory once (EEXIST is fine).
                    self.state = 1;
                    return Op::Syscall(SysReq::Mkdir {
                        path: "/ckpt".into(),
                        mode: 0o755,
                    });
                }
                1 => {
                    let _ = env.take_ret();
                    self.state = 2;
                }
                2 => {
                    if self.phase >= self.phases {
                        return Op::End;
                    }
                    self.state = 3;
                    return Op::Compute {
                        cycles: self.compute_cycles,
                    };
                }
                3 => {
                    self.t_io = env.now();
                    self.state = 4;
                    return Op::Syscall(SysReq::Open {
                        path: self.path(),
                        flags: OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC,
                        mode: 0o644,
                    });
                }
                4 => {
                    let ret = env.take_ret().expect("open");
                    match ret {
                        SysRet::Val(v) => {
                            self.fd = Fd(v as i32);
                            self.chunk = 0;
                            self.chunk_done = 0;
                            self.state = 5;
                        }
                        _ => {
                            // Checkpoint target unreachable (e.g. the
                            // I/O path is down and the kernel's retries
                            // ran out): count it, skip this phase, keep
                            // computing.
                            self.rec
                                .record(&format!("ckpt_io_errors_rank{}", self.rank), 1.0);
                            self.phase += 1;
                            self.state = 2;
                        }
                    }
                }
                5 => {
                    if self.chunk < self.chunks {
                        let fill = (self.rank as u8).wrapping_add(self.phase as u8);
                        self.state = 6;
                        return Op::Syscall(SysReq::Write {
                            fd: self.fd,
                            data: vec![fill; self.chunk_bytes - self.chunk_done],
                        });
                    }
                    self.state = 7;
                    return Op::Syscall(SysReq::Fsync { fd: self.fd });
                }
                6 => {
                    let ret = env.take_ret().expect("write");
                    match ret {
                        SysRet::Val(n) if n > 0 => {
                            // Short writes reissue the tail of the
                            // chunk; the fault-free path always lands
                            // whole chunks, so op sequences (and
                            // digests) are unchanged without faults.
                            self.chunk_done += n as usize;
                            if self.chunk_done >= self.chunk_bytes {
                                self.chunk_done = 0;
                                self.chunk += 1;
                            }
                            self.state = 5;
                        }
                        _ => {
                            // Write failed outright: salvage what made
                            // it to disk (fsync + close) and move on.
                            self.rec
                                .record(&format!("ckpt_io_errors_rank{}", self.rank), 1.0);
                            self.chunk = self.chunks;
                            self.chunk_done = 0;
                            self.state = 5;
                        }
                    }
                }
                7 => {
                    let _ = env.take_ret();
                    self.state = 8;
                    return Op::Syscall(SysReq::Close { fd: self.fd });
                }
                _ => {
                    let _ = env.take_ret();
                    self.rec.record(
                        &format!("ckpt_io_cycles_rank{}", self.rank),
                        (env.now() - self.t_io) as f64,
                    );
                    self.phase += 1;
                    self.state = 2;
                }
            }
        }
    }

    fn label(&self) -> &str {
        "checkpoint-app"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgsim::ade::FixedLatencyComm;
    use bgsim::machine::Machine;
    use bgsim::MachineConfig;
    use cnk::Cnk;
    use fwk::Fwk;
    use sysabi::{AppImage, JobSpec, NodeMode, Rank};

    fn run(kernel: Box<dyn bgsim::Kernel>, nodes: u32) -> (Machine, Recorder) {
        let mut m = Machine::new(
            MachineConfig::nodes(nodes).with_seed(11),
            kernel,
            Box::new(FixedLatencyComm::new()),
        );
        m.boot();
        let rec = Recorder::new();
        let rec2 = rec.clone();
        m.launch(
            &JobSpec::new(AppImage::static_test("ckpt"), nodes, NodeMode::Smp),
            &mut move |r: Rank| {
                Box::new(CheckpointApp::new(r.0, 3, rec2.clone())) as Box<dyn Workload>
            },
        )
        .unwrap();
        let out = m.run();
        assert!(out.completed(), "{out:?}");
        (m, rec)
    }

    #[test]
    fn checkpoints_land_in_shared_fs_on_cnk() {
        let (m, rec) = run(Box::new(Cnk::with_defaults()), 2);
        assert_eq!(rec.len("ckpt_io_cycles_rank0"), 3);
        assert_eq!(rec.len("ckpt_io_cycles_rank1"), 3);
        // The files exist with full content on the ION filesystem.
        let k: &Cnk = m.kernel_as().unwrap();
        let vfs = k.vfs();
        for rank in 0..2 {
            for phase in 0..3 {
                let path = format!("/ckpt/rank{rank}.{phase:04}");
                let ino = vfs.resolve(vfs.root(), &path).unwrap_or_else(|e| {
                    panic!("{path}: {e}");
                });
                assert_eq!(vfs.inode(ino).size(), 4 * (64 << 10), "{path} size");
            }
        }
    }

    #[test]
    fn checkpoints_also_work_on_fwk() {
        let (m, rec) = run(Box::new(Fwk::with_defaults()), 1);
        assert_eq!(rec.len("ckpt_io_cycles_rank0"), 3);
        let k: &Fwk = m.kernel_as().unwrap();
        assert!(k.vfs().resolve(k.vfs().root(), "/ckpt/rank0.0002").is_ok());
    }
}
