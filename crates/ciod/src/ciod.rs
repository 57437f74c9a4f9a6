//! The CIOD daemon proper.
//!
//! One CIOD runs per I/O node, owning one ioproxy per compute-node
//! process in its pset (the BG/P design — "on BG/P each MPI process has a
//! dedicated I/O proxy process", §IV.A). A proxy is created when its
//! process ships its first request, so a process that never does I/O
//! costs the I/O node nothing. The daemon demultiplexes marshaled
//! requests from the collective network into the right proxy via a shared
//! buffer, executes, and returns the marshaled reply.
//!
//! Timing lives here too: [`service_cycles`] models the ION-side cost
//! (shared-buffer handoff, proxy syscall, network-filesystem latency) so
//! the kernels can schedule reply events. The ION runs Linux, so service
//! time has a small stochastic component — this is the *compute-node-
//! visible* noise the offload strategy pushes off the critical path.

use std::collections::HashMap;

use rand::rngs::SmallRng;

use sysabi::{SysReq, SysRet};

use crate::ioproxy::IoProxy;
use crate::vfs::{Ino, Vfs};

/// Baseline ION-side service cost in cycles (shared-buffer handoff +
/// proxy wakeup + syscall entry on the ION's Linux).
const SERVICE_BASE: u64 = 6_000;
/// Additional cycles per payload byte (proxy copy through the shared
/// buffer + filesystem data path) — about 1 byte/cycle round-trip.
const SERVICE_PER_BYTE_NUM: u64 = 1;
/// Extra fixed cost for metadata operations that hit the (simulated)
/// network filesystem server.
const SERVICE_METADATA: u64 = 40_000;

/// ION-side service cost for a request, excluding network time and
/// excluding the stochastic Linux-side jitter (see
/// [`Ciod::service_jitter`]).
pub fn service_cycles(req: &SysReq) -> u64 {
    let payload = req.outbound_bytes() + req.inbound_bytes();
    let mut c = SERVICE_BASE + payload * SERVICE_PER_BYTE_NUM;
    match req {
        SysReq::Open { .. }
        | SysReq::Stat { .. }
        | SysReq::Mkdir { .. }
        | SysReq::Unlink { .. }
        | SysReq::Rmdir { .. }
        | SysReq::Rename { .. }
        | SysReq::Fsync { .. } => c += SERVICE_METADATA,
        _ => {}
    }
    c
}

/// A CIOD instance (one per I/O node).
pub struct Ciod {
    pub ion: u32,
    proxies: HashMap<u32, IoProxy>,
}

impl Ciod {
    pub fn new(ion: u32) -> Ciod {
        Ciod {
            ion,
            proxies: HashMap::new(),
        }
    }

    /// Create the ioproxy for a compute-node process, with its
    /// credentials and std fds on `console`, unless it has one (§IV.A's
    /// 1-to-1 mapping: one proxy per CN process). The CNK calls this at
    /// the process's first shipped request: no request has reached the
    /// proxy before, so a fresh one holds the process's whole I/O
    /// state.
    pub fn attach_proc(&mut self, vfs: &Vfs, proc: u32, uid: u32, gid: u32, console: Ino) {
        self.proxies
            .entry(proc)
            .or_insert_with(|| IoProxy::with_console(proc, uid, gid, console, vfs.root()));
    }

    /// Drop a process's proxy at job teardown.
    pub fn detach_proc(&mut self, proc: u32) -> Option<IoProxy> {
        self.proxies.remove(&proc)
    }

    pub fn proxy(&self, proc: u32) -> Option<&IoProxy> {
        self.proxies.get(&proc)
    }

    pub fn proxy_count(&self) -> usize {
        self.proxies.len()
    }

    /// Estimated heap bytes of the proxy table and every proxy in it.
    pub fn resident_bytes(&self) -> usize {
        crate::ioproxy::hash_bytes(&self.proxies)
            + self
                .proxies
                .values()
                .map(IoProxy::resident_bytes)
                .sum::<usize>()
    }

    /// Invariant sweep for differential checkers (`bgcheck`): every
    /// proxy's descriptor table must be consistent with `vfs`.
    /// Read-only; one string per violation.
    pub fn check_invariants(&self, vfs: &Vfs) -> Vec<String> {
        let mut v = Vec::new();
        for p in self.proxies.values() {
            for msg in p.check_fds(vfs) {
                v.push(format!("ciod on ION {}: {msg}", self.ion));
            }
        }
        v
    }

    /// Execute a decoded request in `proc`'s proxy (ESRCH if it has
    /// none). The I/O node's caller (`Cnk::ion_service`) decodes the
    /// request off the wire first, drops one that does not decode, and
    /// encodes the reply.
    pub fn service(&mut self, vfs: &mut Vfs, proc: u32, req: &SysReq) -> SysRet {
        match self.proxies.get_mut(&proc) {
            Some(p) => p.execute(vfs, req),
            None => SysRet::Err(sysabi::Errno::ESRCH),
        }
    }

    /// The ION runs Linux: its service time carries daemon/scheduler
    /// jitter. Uniform in [0, 9000) cycles (~0..10.6 µs) — large next to
    /// CNK's own noise floor but hidden from the compute node's *compute*
    /// path by the offload design.
    pub fn service_jitter(rng: &mut SmallRng) -> u64 {
        crate::vfs_jitter(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use sysabi::{Fd, OpenFlags};

    /// The I/O node's path: decode the marshaled request, service it,
    /// encode the reply.
    fn serve_bytes(c: &mut Ciod, vfs: &mut Vfs, proc: u32, req: &[u8]) -> Vec<u8> {
        let req = wire::decode_req(req).expect("well-formed request");
        wire::encode_ret(&c.service(vfs, proc, &req))
    }

    #[test]
    fn wire_service_roundtrip() {
        let mut vfs = Vfs::new();
        let mut c = Ciod::new(0);
        c.attach_proc(&vfs, 7, 1000, 100, vfs.console());
        let open = wire::encode_req(&SysReq::Open {
            path: "/out".into(),
            flags: OpenFlags::WRONLY | OpenFlags::CREAT,
            mode: 0o644,
        });
        let reply = serve_bytes(&mut c, &mut vfs, 7, &open);
        let fd = match wire::decode_ret(&reply).unwrap() {
            SysRet::Val(v) => Fd(v as i32),
            other => panic!("{other:?}"),
        };
        let write = wire::encode_req(&SysReq::Write {
            fd,
            data: b"payload".to_vec(),
        });
        let reply = serve_bytes(&mut c, &mut vfs, 7, &write);
        assert_eq!(wire::decode_ret(&reply).unwrap(), SysRet::Val(7));
        let ino = vfs.resolve(vfs.root(), "/out").unwrap();
        assert_eq!(vfs.read_at(ino, 0, 64).unwrap(), b"payload");
    }

    #[test]
    fn unknown_proc_is_esrch() {
        let mut vfs = Vfs::new();
        let mut c = Ciod::new(0);
        let req = wire::encode_req(&SysReq::Getcwd);
        let reply = serve_bytes(&mut c, &mut vfs, 99, &req);
        assert_eq!(
            wire::decode_ret(&reply).unwrap(),
            SysRet::Err(sysabi::Errno::ESRCH)
        );
    }

    #[test]
    fn proxies_are_independent() {
        let mut vfs = Vfs::new();
        let mut c = Ciod::new(0);
        c.attach_proc(&vfs, 1, 0, 0, vfs.console());
        c.attach_proc(&vfs, 2, 0, 0, vfs.console());
        // proc 1 chdirs; proc 2's cwd must not move (mirrored per-process
        // state, §IV.A).
        c.service(
            &mut vfs,
            1,
            &SysReq::Mkdir {
                path: "/a".into(),
                mode: 0o755,
            },
        );
        c.service(&mut vfs, 1, &SysReq::Chdir { path: "/a".into() });
        assert_eq!(
            c.service(&mut vfs, 1, &SysReq::Getcwd),
            SysRet::Data(b"/a".to_vec())
        );
        assert_eq!(
            c.service(&mut vfs, 2, &SysReq::Getcwd),
            SysRet::Data(b"/".to_vec())
        );
    }

    #[test]
    fn attach_keeps_an_existing_proxy() {
        let mut vfs = Vfs::new();
        let mut c = Ciod::new(0);
        c.attach_proc(&vfs, 1, 1000, 100, vfs.console());
        c.service(
            &mut vfs,
            1,
            &SysReq::Write {
                fd: sysabi::Fd(1),
                data: b"hi".to_vec(),
            },
        );
        c.attach_proc(&vfs, 1, 0, 0, vfs.console());
        let p = c.proxy(1).unwrap();
        assert_eq!(
            (p.uid, p.gid, p.console.as_slice()),
            (1000, 100, &b"hi"[..])
        );
        assert_eq!(c.proxy_count(), 1);
    }

    #[test]
    fn detach_drops_proxy() {
        let vfs = Vfs::new();
        let mut c = Ciod::new(0);
        c.attach_proc(&vfs, 1, 0, 0, vfs.console());
        assert_eq!(c.proxy_count(), 1);
        let p = c.detach_proc(1).unwrap();
        assert_eq!(p.proc, 1);
        assert_eq!(c.proxy_count(), 0);
    }

    #[test]
    fn service_cost_scales_with_payload() {
        let small = service_cycles(&SysReq::Write {
            fd: Fd(3),
            data: vec![0; 16],
        });
        let big = service_cycles(&SysReq::Write {
            fd: Fd(3),
            data: vec![0; 1 << 20],
        });
        assert!(big > small);
        assert!(big >= (1 << 20));
        // Metadata ops pay the filesystem-server surcharge.
        let meta = service_cycles(&SysReq::Open {
            path: "/x".into(),
            flags: OpenFlags::RDONLY,
            mode: 0,
        });
        let data = service_cycles(&SysReq::Read { fd: Fd(3), len: 2 });
        assert!(meta > data);
    }

    #[test]
    fn service_cost_never_undercuts_floor() {
        // Every function-shipped request pays at least the base handoff
        // cost on the ION, whatever its payload or kind.
        let reqs = [
            SysReq::Read { fd: Fd(3), len: 0 },
            SysReq::Write {
                fd: Fd(3),
                data: vec![],
            },
            SysReq::Open {
                path: "/x".into(),
                flags: OpenFlags::RDONLY,
                mode: 0,
            },
        ];
        for r in &reqs {
            assert!(service_cycles(r) >= SERVICE_BASE);
        }
    }
}
