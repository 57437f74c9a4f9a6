//! The ioproxy: one Linux process per compute-node process.
//!
//! §IV.A: "Each ioproxy process is associated with a specific process on
//! a compute node. The ioproxy's filesystem state mirrors the CNK
//! process's state (e.g., file seek offsets, current working directory,
//! user/group permissions). The ioproxy decodes the message, demarshals
//! the arguments, and performs the system call that was requested."

use std::collections::HashMap;

use sysabi::{Errno, Fd, OpenFlags, SeekWhence, SysReq, SysRet};

use crate::vfs::{Ino, InodeData, Vfs};

/// An open file description (mirrors the CNK process's fd state).
#[derive(Clone, Copy, Debug)]
struct OpenFile {
    ino: Ino,
    offset: u64,
    flags: OpenFlags,
}

/// Estimated table bytes of a hash map: one `(K, V)` slot plus a
/// control byte per unit of capacity.
pub(crate) fn hash_bytes<K, V>(m: &HashMap<K, V>) -> usize {
    m.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}

/// One ioproxy.
#[derive(Clone, Debug)]
pub struct IoProxy {
    /// The compute-node process this proxy mirrors.
    pub proc: u32,
    pub uid: u32,
    pub gid: u32,
    cwd: Ino,
    fds: HashMap<i32, OpenFile>,
    next_fd: i32,
    /// Bytes written to the console (stdout/stderr) — what the job's
    /// output stream would show.
    pub console: Vec<u8>,
}

impl IoProxy {
    pub fn new(proc: u32, uid: u32, gid: u32, vfs: &Vfs) -> IoProxy {
        IoProxy::with_console(proc, uid, gid, vfs.console(), vfs.root())
    }

    /// A fresh proxy whose std fds 0–2 open `console` and whose working
    /// directory is `root`: [`IoProxy::new`] without the path walk, for
    /// callers that resolved the console already.
    pub fn with_console(proc: u32, uid: u32, gid: u32, console: Ino, root: Ino) -> IoProxy {
        let std_fd = OpenFile {
            ino: console,
            offset: 0,
            flags: OpenFlags::RDWR,
        };
        IoProxy {
            proc,
            uid,
            gid,
            cwd: root,
            fds: (0..3).map(|fd| (fd, std_fd)).collect(),
            next_fd: 3,
            console: Vec::new(),
        }
    }

    /// Estimated heap bytes: the descriptor table and console buffer.
    pub(crate) fn resident_bytes(&self) -> usize {
        hash_bytes(&self.fds) + self.console.capacity()
    }

    /// Descriptor-table consistency sweep (bgcheck invariant hook):
    /// every open fd must point at an allocated inode and std fds must
    /// exist. Read-only; one string per violation.
    pub fn check_fds(&self, vfs: &Vfs) -> Vec<String> {
        let mut v = Vec::new();
        for (fd, of) in &self.fds {
            if of.ino.0 as usize >= vfs.inode_count() {
                v.push(format!(
                    "proc {}: fd {fd} points at unallocated inode {}",
                    self.proc, of.ino.0
                ));
            }
        }
        for fd in 0..3 {
            if !self.fds.contains_key(&fd) {
                v.push(format!("proc {}: std fd {fd} missing", self.proc));
            }
        }
        if self.cwd.0 as usize >= vfs.inode_count() {
            v.push(format!(
                "proc {}: cwd inode {} unallocated",
                self.proc, self.cwd.0
            ));
        }
        v
    }

    /// Current working directory path (for getcwd).
    fn cwd_path(&self, vfs: &Vfs) -> String {
        vfs.path_of(self.cwd).unwrap_or_else(|| "/".to_string())
    }

    fn lookup(&self, fd: Fd) -> Result<OpenFile, Errno> {
        self.fds.get(&fd.0).copied().ok_or(Errno::EBADF)
    }

    fn check_access(&self, vfs: &Vfs, ino: Ino, write: bool) -> Result<(), Errno> {
        let n = vfs.inode(ino);
        // Owner/group/other permission bits, as the real proxy would
        // enforce via its inherited credentials.
        let shift = if n.uid == self.uid {
            6
        } else if n.gid == self.gid {
            3
        } else {
            0
        };
        let bits = (n.mode >> shift) & 0o7;
        let need = if write { 0o2 } else { 0o4 };
        if bits & need == need {
            Ok(())
        } else {
            Err(Errno::EACCES)
        }
    }

    /// Execute a (decoded) I/O request against the filesystem, producing
    /// the same result codes Linux would.
    pub fn execute(&mut self, vfs: &mut Vfs, req: &SysReq) -> SysRet {
        match self.execute_inner(vfs, req) {
            Ok(ret) => ret,
            Err(e) => SysRet::Err(e),
        }
    }

    fn execute_inner(&mut self, vfs: &mut Vfs, req: &SysReq) -> Result<SysRet, Errno> {
        match req {
            SysReq::Open { path, flags, mode } => {
                let (dir, name) = vfs.resolve_parent(self.cwd, path)?;
                let ino = match name {
                    None => dir, // opening a directory
                    Some(name) => match vfs.resolve(dir, &name) {
                        Ok(i) => {
                            if flags.contains(OpenFlags::CREAT) && flags.contains(OpenFlags::EXCL) {
                                return Err(Errno::EEXIST);
                            }
                            i
                        }
                        Err(Errno::ENOENT) if flags.contains(OpenFlags::CREAT) => {
                            vfs.create_at(dir, &name, *mode & 0o777, self.uid, self.gid)?
                        }
                        Err(e) => return Err(e),
                    },
                };
                let is_dir = matches!(vfs.inode(ino).data, InodeData::Dir(_));
                if is_dir && flags.writable() {
                    return Err(Errno::EISDIR);
                }
                if !is_dir {
                    if flags.readable() {
                        self.check_access(vfs, ino, false)?;
                    }
                    if flags.writable() {
                        self.check_access(vfs, ino, true)?;
                    }
                }
                if flags.contains(OpenFlags::TRUNC)
                    && flags.writable()
                    && matches!(vfs.inode(ino).data, InodeData::File(_))
                {
                    vfs.truncate(ino, 0)?;
                }
                let fd = self.next_fd;
                self.next_fd += 1;
                self.fds.insert(
                    fd,
                    OpenFile {
                        ino,
                        offset: 0,
                        flags: *flags,
                    },
                );
                Ok(SysRet::Val(fd as i64))
            }
            SysReq::Close { fd } => {
                self.fds.remove(&fd.0).ok_or(Errno::EBADF)?;
                Ok(SysRet::Val(0))
            }
            SysReq::Read { fd, len } => {
                let of = self.lookup(*fd)?;
                if !of.flags.readable() {
                    return Err(Errno::EBADF);
                }
                if matches!(vfs.inode(of.ino).data, InodeData::Dir(_)) {
                    return Err(Errno::EISDIR);
                }
                let data = vfs.read_at(of.ino, of.offset, *len)?;
                self.fds.get_mut(&fd.0).ok_or(Errno::EBADF)?.offset += data.len() as u64;
                Ok(SysRet::Data(data))
            }
            SysReq::Write { fd, data } => {
                let of = self.lookup(*fd)?;
                if !of.flags.writable() {
                    return Err(Errno::EBADF);
                }
                if matches!(vfs.inode(of.ino).data, InodeData::CharDev) {
                    self.console.extend_from_slice(data);
                    return Ok(SysRet::Val(data.len() as i64));
                }
                let off = if of.flags.contains(OpenFlags::APPEND) {
                    vfs.inode(of.ino).size()
                } else {
                    of.offset
                };
                let n = vfs.write_at(of.ino, off, data)?;
                self.fds.get_mut(&fd.0).ok_or(Errno::EBADF)?.offset = off + n;
                Ok(SysRet::Val(n as i64))
            }
            SysReq::Pread { fd, len, offset } => {
                let of = self.lookup(*fd)?;
                if !of.flags.readable() {
                    return Err(Errno::EBADF);
                }
                // pread does not move the offset.
                Ok(SysRet::Data(vfs.read_at(of.ino, *offset, *len)?))
            }
            SysReq::Pwrite { fd, data, offset } => {
                let of = self.lookup(*fd)?;
                if !of.flags.writable() {
                    return Err(Errno::EBADF);
                }
                Ok(SysRet::Val(vfs.write_at(of.ino, *offset, data)? as i64))
            }
            SysReq::Lseek { fd, offset, whence } => {
                let of = self.lookup(*fd)?;
                if matches!(vfs.inode(of.ino).data, InodeData::CharDev) {
                    return Err(Errno::ESPIPE);
                }
                let base = match whence {
                    SeekWhence::Set => 0i64,
                    SeekWhence::Cur => of.offset as i64,
                    SeekWhence::End => vfs.inode(of.ino).size() as i64,
                };
                let target = base.checked_add(*offset).ok_or(Errno::EINVAL)?;
                if target < 0 {
                    return Err(Errno::EINVAL);
                }
                self.fds.get_mut(&fd.0).ok_or(Errno::EBADF)?.offset = target as u64;
                Ok(SysRet::Val(target))
            }
            SysReq::Stat { path } => {
                let ino = vfs.resolve(self.cwd, path)?;
                Ok(SysRet::Stat(vfs.stat(ino)))
            }
            SysReq::Fstat { fd } => {
                let of = self.lookup(*fd)?;
                Ok(SysRet::Stat(vfs.stat(of.ino)))
            }
            SysReq::Ftruncate { fd, len } => {
                let of = self.lookup(*fd)?;
                if !of.flags.writable() {
                    return Err(Errno::EINVAL);
                }
                vfs.truncate(of.ino, *len)?;
                Ok(SysRet::Val(0))
            }
            SysReq::Mkdir { path, mode } => {
                let (dir, name) = vfs.resolve_parent(self.cwd, path)?;
                let name = name.ok_or(Errno::EEXIST)?;
                vfs.mkdir_at(dir, &name, *mode & 0o777, self.uid, self.gid)?;
                Ok(SysRet::Val(0))
            }
            SysReq::Unlink { path } => {
                let (dir, name) = vfs.resolve_parent(self.cwd, path)?;
                let name = name.ok_or(Errno::EISDIR)?;
                vfs.unlink_at(dir, &name)?;
                Ok(SysRet::Val(0))
            }
            SysReq::Rmdir { path } => {
                let (dir, name) = vfs.resolve_parent(self.cwd, path)?;
                let name = name.ok_or(Errno::EBUSY)?;
                vfs.rmdir_at(dir, &name)?;
                Ok(SysRet::Val(0))
            }
            SysReq::Rename { from, to } => {
                let (fdir, fname) = vfs.resolve_parent(self.cwd, from)?;
                let (tdir, tname) = vfs.resolve_parent(self.cwd, to)?;
                let fname = fname.ok_or(Errno::EBUSY)?;
                let tname = tname.ok_or(Errno::EBUSY)?;
                vfs.rename(fdir, &fname, tdir, &tname)?;
                Ok(SysRet::Val(0))
            }
            SysReq::Chdir { path } => {
                let ino = vfs.resolve(self.cwd, path)?;
                if !matches!(vfs.inode(ino).data, InodeData::Dir(_)) {
                    return Err(Errno::ENOTDIR);
                }
                self.cwd = ino;
                Ok(SysRet::Val(0))
            }
            SysReq::Getcwd => Ok(SysRet::Data(self.cwd_path(vfs).into_bytes())),
            SysReq::Dup { fd } => {
                let of = self.lookup(*fd)?;
                let nfd = self.next_fd;
                self.next_fd += 1;
                self.fds.insert(nfd, of);
                Ok(SysRet::Val(nfd as i64))
            }
            SysReq::Fsync { fd } => {
                self.lookup(*fd)?;
                Ok(SysRet::Val(0))
            }
            other => {
                debug_assert!(!other.is_io(), "unhandled IO call {}", other.name());
                Err(Errno::ENOSYS)
            }
        }
    }

    /// Number of open descriptors (mirror-state introspection).
    pub fn open_fds(&self) -> usize {
        self.fds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vfs, IoProxy) {
        let vfs = Vfs::new();
        let proxy = IoProxy::new(0, 1000, 100, &vfs);
        (vfs, proxy)
    }

    fn open(p: &mut IoProxy, v: &mut Vfs, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        match p.execute(
            v,
            &SysReq::Open {
                path: path.into(),
                flags,
                mode: 0o644,
            },
        ) {
            SysRet::Val(fd) => Ok(Fd(fd as i32)),
            SysRet::Err(e) => Err(e),
            // A reply shape open(2) can't produce is a wire-protocol
            // error, not a reason to abort the simulation.
            _other => Err(Errno::EIO),
        }
    }

    #[test]
    fn create_write_seek_read() {
        let (mut v, mut p) = setup();
        let fd = open(&mut p, &mut v, "/f.txt", OpenFlags::RDWR | OpenFlags::CREAT).unwrap();
        let ret = p.execute(
            &mut v,
            &SysReq::Write {
                fd,
                data: b"hello world".to_vec(),
            },
        );
        assert_eq!(ret, SysRet::Val(11));
        // Seek offsets are mirrored in the proxy, exactly the state the
        // paper says the ioproxy tracks.
        let ret = p.execute(
            &mut v,
            &SysReq::Lseek {
                fd,
                offset: 6,
                whence: SeekWhence::Set,
            },
        );
        assert_eq!(ret, SysRet::Val(6));
        let ret = p.execute(&mut v, &SysReq::Read { fd, len: 5 });
        assert_eq!(ret, SysRet::Data(b"world".to_vec()));
        // Offset advanced by the read.
        let ret = p.execute(
            &mut v,
            &SysReq::Lseek {
                fd,
                offset: 0,
                whence: SeekWhence::Cur,
            },
        );
        assert_eq!(ret, SysRet::Val(11));
    }

    #[test]
    fn stdout_goes_to_console() {
        let (mut v, mut p) = setup();
        p.execute(
            &mut v,
            &SysReq::Write {
                fd: Fd::STDOUT,
                data: b"rank 0 here\n".to_vec(),
            },
        );
        assert_eq!(p.console, b"rank 0 here\n");
        // Seeking the console is ESPIPE like a real char device.
        let r = p.execute(
            &mut v,
            &SysReq::Lseek {
                fd: Fd::STDOUT,
                offset: 0,
                whence: SeekWhence::Set,
            },
        );
        assert_eq!(r, SysRet::Err(Errno::ESPIPE));
    }

    #[test]
    fn errno_parity_with_linux() {
        let (mut v, mut p) = setup();
        assert_eq!(
            p.execute(&mut v, &SysReq::Read { fd: Fd(42), len: 1 }),
            SysRet::Err(Errno::EBADF)
        );
        assert_eq!(
            open(&mut p, &mut v, "/missing", OpenFlags::RDONLY),
            Err(Errno::ENOENT)
        );
        open(&mut p, &mut v, "/x", OpenFlags::WRONLY | OpenFlags::CREAT).unwrap();
        assert_eq!(
            open(
                &mut p,
                &mut v,
                "/x",
                OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::EXCL
            ),
            Err(Errno::EEXIST)
        );
    }

    #[test]
    fn write_requires_write_access_mode() {
        let (mut v, mut p) = setup();
        let fd = open(&mut p, &mut v, "/r", OpenFlags::WRONLY | OpenFlags::CREAT).unwrap();
        p.execute(&mut v, &SysReq::Close { fd });
        let fd = open(&mut p, &mut v, "/r", OpenFlags::RDONLY).unwrap();
        assert_eq!(
            p.execute(&mut v, &SysReq::Write { fd, data: vec![1] }),
            SysRet::Err(Errno::EBADF)
        );
    }

    #[test]
    fn permission_bits_enforced() {
        let (mut v, mut p) = setup();
        // Root-owned 0600 file; proxy runs as uid 1000.
        let ino = v.create_at(v.root(), "secret", 0o600, 0, 0).unwrap();
        v.write_at(ino, 0, b"top").unwrap();
        assert_eq!(
            open(&mut p, &mut v, "/secret", OpenFlags::RDONLY),
            Err(Errno::EACCES)
        );
        // Own file works.
        let mine = v.create_at(v.root(), "mine", 0o600, 1000, 100).unwrap();
        v.write_at(mine, 0, b"ok").unwrap();
        assert!(open(&mut p, &mut v, "/mine", OpenFlags::RDONLY).is_ok());
    }

    #[test]
    fn cwd_affects_relative_paths() {
        let (mut v, mut p) = setup();
        p.execute(
            &mut v,
            &SysReq::Mkdir {
                path: "/work".into(),
                mode: 0o755,
            },
        );
        assert_eq!(
            p.execute(
                &mut v,
                &SysReq::Chdir {
                    path: "/work".into()
                }
            ),
            SysRet::Val(0)
        );
        let fd = open(
            &mut p,
            &mut v,
            "out.dat",
            OpenFlags::WRONLY | OpenFlags::CREAT,
        )
        .unwrap();
        p.execute(
            &mut v,
            &SysReq::Write {
                fd,
                data: b"d".to_vec(),
            },
        );
        assert!(v.resolve(v.root(), "/work/out.dat").is_ok());
        assert_eq!(
            p.execute(&mut v, &SysReq::Getcwd),
            SysRet::Data(b"/work".to_vec())
        );
    }

    #[test]
    fn append_mode() {
        let (mut v, mut p) = setup();
        let fd = open(&mut p, &mut v, "/log", OpenFlags::WRONLY | OpenFlags::CREAT).unwrap();
        p.execute(
            &mut v,
            &SysReq::Write {
                fd,
                data: b"aaa".to_vec(),
            },
        );
        p.execute(&mut v, &SysReq::Close { fd });
        let fd = open(
            &mut p,
            &mut v,
            "/log",
            OpenFlags::WRONLY | OpenFlags::APPEND,
        )
        .unwrap();
        p.execute(
            &mut v,
            &SysReq::Write {
                fd,
                data: b"bbb".to_vec(),
            },
        );
        let fd = open(&mut p, &mut v, "/log", OpenFlags::RDONLY).unwrap();
        assert_eq!(
            p.execute(&mut v, &SysReq::Read { fd, len: 100 }),
            SysRet::Data(b"aaabbb".to_vec())
        );
    }

    #[test]
    fn trunc_clears_existing() {
        let (mut v, mut p) = setup();
        let fd = open(&mut p, &mut v, "/t", OpenFlags::WRONLY | OpenFlags::CREAT).unwrap();
        p.execute(
            &mut v,
            &SysReq::Write {
                fd,
                data: b"longcontent".to_vec(),
            },
        );
        p.execute(&mut v, &SysReq::Close { fd });
        open(&mut p, &mut v, "/t", OpenFlags::WRONLY | OpenFlags::TRUNC).unwrap();
        let st = match p.execute(&mut v, &SysReq::Stat { path: "/t".into() }) {
            SysRet::Stat(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(st.size, 0);
    }

    #[test]
    fn dup_shares_description() {
        let (mut v, mut p) = setup();
        let fd = open(&mut p, &mut v, "/d", OpenFlags::RDWR | OpenFlags::CREAT).unwrap();
        p.execute(
            &mut v,
            &SysReq::Write {
                fd,
                data: b"abc".to_vec(),
            },
        );
        let d = p.execute(&mut v, &SysReq::Dup { fd }).val();
        assert!(d > fd.0 as i64);
        // Note: our dup copies the description (offset not shared) — a
        // documented simplification; both fds stay usable.
        let r = p.execute(
            &mut v,
            &SysReq::Read {
                fd: Fd(d as i32),
                len: 3,
            },
        );
        assert!(matches!(r, SysRet::Data(_)));
        assert_eq!(p.open_fds(), 5); // 3 std + 2
    }

    #[test]
    fn pread_does_not_move_offset() {
        let (mut v, mut p) = setup();
        let fd = open(&mut p, &mut v, "/p", OpenFlags::RDWR | OpenFlags::CREAT).unwrap();
        p.execute(
            &mut v,
            &SysReq::Write {
                fd,
                data: b"0123456789".to_vec(),
            },
        );
        let r = p.execute(
            &mut v,
            &SysReq::Pread {
                fd,
                len: 3,
                offset: 4,
            },
        );
        assert_eq!(r, SysRet::Data(b"456".to_vec()));
        let r = p.execute(
            &mut v,
            &SysReq::Lseek {
                fd,
                offset: 0,
                whence: SeekWhence::Cur,
            },
        );
        assert_eq!(r, SysRet::Val(10)); // unchanged by pread
    }
}
