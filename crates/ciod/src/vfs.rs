//! An in-memory POSIX filesystem.
//!
//! Stands in for the network filesystems mounted on the I/O nodes
//! ("filesystems that are installed on the I/O nodes (such as NFS, GPFS,
//! PVFS, Lustre) are available to CNK processes via the ioproxy", §IV.A).
//! The point of running the proxies on Linux is inheriting real POSIX
//! semantics — so this module implements them carefully: path resolution
//! with `.`/`..`, permission bits, O_CREAT/O_EXCL/O_TRUNC/O_APPEND,
//! directory emptiness on rmdir, rename-over semantics, errno parity.

use std::collections::BTreeMap;

use sysabi::{Errno, FileKind, StatBuf};

/// Inode index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ino(pub u64);

#[derive(Clone, Debug)]
pub enum InodeData {
    File(Vec<u8>),
    Dir(BTreeMap<String, Ino>),
    /// The console device (stdout/stderr sink).
    CharDev,
}

#[derive(Clone, Debug)]
pub struct Inode {
    pub data: InodeData,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    /// Link count; 0 means unlinked but possibly still open.
    pub nlink: u32,
    /// Parent directory (meaningful for directories; enables `..`
    /// resolution from an arbitrary cwd). The root is its own parent.
    pub parent: Ino,
}

impl Inode {
    pub fn kind(&self) -> FileKind {
        match self.data {
            InodeData::File(_) => FileKind::Regular,
            InodeData::Dir(_) => FileKind::Directory,
            InodeData::CharDev => FileKind::CharDev,
        }
    }

    pub fn size(&self) -> u64 {
        match &self.data {
            InodeData::File(d) => d.len() as u64,
            InodeData::Dir(d) => d.len() as u64,
            InodeData::CharDev => 0,
        }
    }
}

/// The filesystem tree.
#[derive(Clone, Debug)]
pub struct Vfs {
    inodes: Vec<Inode>,
    root: Ino,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    pub fn new() -> Vfs {
        let mut v = Vfs {
            inodes: Vec::new(),
            root: Ino(0),
        };
        let root = v.alloc(Inode {
            data: InodeData::Dir(BTreeMap::new()),
            mode: 0o755,
            uid: 0,
            gid: 0,
            nlink: 1,
            parent: Ino(0),
        });
        v.root = root;
        // /dev/console for std fds.
        let dev = v.mkdir_at(root, "dev", 0o755, 0, 0).expect("mkdir /dev");
        let console = v.alloc(Inode {
            data: InodeData::CharDev,
            mode: 0o666,
            uid: 0,
            gid: 0,
            nlink: 1,
            parent: dev,
        });
        v.link(dev, "console", console).expect("link /dev/console");
        v
    }

    pub fn root(&self) -> Ino {
        self.root
    }

    /// The inode `/dev/console` names now: what a new ioproxy's std fds
    /// open.
    pub fn console(&self) -> Ino {
        self.resolve(self.root, "/dev/console")
            .expect("vfs lacks /dev/console")
    }

    fn alloc(&mut self, inode: Inode) -> Ino {
        let i = Ino(self.inodes.len() as u64);
        self.inodes.push(inode);
        i
    }

    pub fn inode(&self, i: Ino) -> &Inode {
        &self.inodes[i.0 as usize]
    }

    pub fn inode_mut(&mut self, i: Ino) -> &mut Inode {
        &mut self.inodes[i.0 as usize]
    }

    fn dir(&self, i: Ino) -> Result<&BTreeMap<String, Ino>, Errno> {
        match &self.inode(i).data {
            InodeData::Dir(d) => Ok(d),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn dir_mut(&mut self, i: Ino) -> Result<&mut BTreeMap<String, Ino>, Errno> {
        match &mut self.inode_mut(i).data {
            InodeData::Dir(d) => Ok(d),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn link(&mut self, dir: Ino, name: &str, child: Ino) -> Result<(), Errno> {
        let d = self.dir_mut(dir)?;
        if d.contains_key(name) {
            return Err(Errno::EEXIST);
        }
        d.insert(name.to_string(), child);
        Ok(())
    }

    /// Resolve `path` starting from `cwd` (absolute paths start at root).
    /// Returns the inode.
    pub fn resolve(&self, cwd: Ino, path: &str) -> Result<Ino, Errno> {
        let (dir, name) = self.resolve_parent(cwd, path)?;
        match name {
            None => Ok(dir), // path was "/" or "." etc.
            Some(n) => self.dir(dir)?.get(&n).copied().ok_or(Errno::ENOENT),
        }
    }

    /// Resolve to (parent dir inode, final component). A final component
    /// of `None` means the path denoted an existing directory directly
    /// (e.g. "/", ".", "a/..").
    pub fn resolve_parent(&self, cwd: Ino, path: &str) -> Result<(Ino, Option<String>), Errno> {
        let mut cur = if path.starts_with('/') {
            self.root
        } else {
            cwd
        };
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        if comps.is_empty() {
            return Ok((cur, None));
        }
        for (i, comp) in comps.iter().enumerate() {
            let last = i == comps.len() - 1;
            match *comp {
                "." => {
                    self.dir(cur)?;
                    if last {
                        return Ok((cur, None));
                    }
                }
                ".." => {
                    self.dir(cur)?;
                    cur = self.inode(cur).parent;
                    if last {
                        return Ok((cur, None));
                    }
                }
                name => {
                    if last {
                        self.dir(cur)?;
                        return Ok((cur, Some(name.to_string())));
                    }
                    let next = self.dir(cur)?.get(name).copied().ok_or(Errno::ENOENT)?;
                    if !matches!(self.inode(next).data, InodeData::Dir(_)) {
                        return Err(Errno::ENOTDIR);
                    }
                    cur = next;
                }
            }
        }
        Ok((cur, None))
    }

    /// Create a regular file; returns its inode. EEXIST if present.
    pub fn create_at(
        &mut self,
        dir: Ino,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> Result<Ino, Errno> {
        let ino = self.alloc(Inode {
            data: InodeData::File(Vec::new()),
            mode,
            uid,
            gid,
            nlink: 1,
            parent: dir,
        });
        match self.link(dir, name, ino) {
            Ok(()) => Ok(ino),
            Err(e) => {
                self.inodes.pop();
                Err(e)
            }
        }
    }

    /// Create a directory.
    pub fn mkdir_at(
        &mut self,
        dir: Ino,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> Result<Ino, Errno> {
        let ino = self.alloc(Inode {
            data: InodeData::Dir(BTreeMap::new()),
            mode,
            uid,
            gid,
            nlink: 1,
            parent: dir,
        });
        match self.link(dir, name, ino) {
            Ok(()) => Ok(ino),
            Err(e) => {
                self.inodes.pop();
                Err(e)
            }
        }
    }

    /// Unlink a file (not a directory).
    pub fn unlink_at(&mut self, dir: Ino, name: &str) -> Result<(), Errno> {
        let child = *self.dir(dir)?.get(name).ok_or(Errno::ENOENT)?;
        if matches!(self.inode(child).data, InodeData::Dir(_)) {
            return Err(Errno::EISDIR);
        }
        self.dir_mut(dir)?.remove(name);
        self.inode_mut(child).nlink = self.inode(child).nlink.saturating_sub(1);
        Ok(())
    }

    /// Remove an empty directory.
    pub fn rmdir_at(&mut self, dir: Ino, name: &str) -> Result<(), Errno> {
        let child = *self.dir(dir)?.get(name).ok_or(Errno::ENOENT)?;
        match &self.inode(child).data {
            InodeData::Dir(d) if d.is_empty() => {}
            InodeData::Dir(_) => return Err(Errno::ENOTEMPTY),
            _ => return Err(Errno::ENOTDIR),
        }
        self.dir_mut(dir)?.remove(name);
        Ok(())
    }

    /// Rename, replacing a same-kind target if present (POSIX rename-over
    /// for files; directories only over empty directories).
    pub fn rename(
        &mut self,
        from_dir: Ino,
        from_name: &str,
        to_dir: Ino,
        to_name: &str,
    ) -> Result<(), Errno> {
        let src = *self.dir(from_dir)?.get(from_name).ok_or(Errno::ENOENT)?;
        if let Some(&dst) = self.dir(to_dir)?.get(to_name) {
            let src_is_dir = matches!(self.inode(src).data, InodeData::Dir(_));
            match &self.inode(dst).data {
                InodeData::Dir(d) => {
                    if !src_is_dir {
                        return Err(Errno::EISDIR);
                    }
                    if !d.is_empty() {
                        return Err(Errno::ENOTEMPTY);
                    }
                }
                _ => {
                    if src_is_dir {
                        return Err(Errno::ENOTDIR);
                    }
                }
            }
            self.dir_mut(to_dir)?.remove(to_name);
        }
        self.dir_mut(from_dir)?.remove(from_name);
        self.dir_mut(to_dir)?.insert(to_name.to_string(), src);
        self.inode_mut(src).parent = to_dir;
        Ok(())
    }

    /// stat() view of an inode.
    pub fn stat(&self, i: Ino) -> StatBuf {
        let n = self.inode(i);
        StatBuf {
            kind: n.kind(),
            size: n.size(),
            mode: n.mode,
            uid: n.uid,
            gid: n.gid,
            ino: i.0,
        }
    }

    /// Read from a regular file at `offset`.
    pub fn read_at(&self, i: Ino, offset: u64, len: u64) -> Result<Vec<u8>, Errno> {
        match &self.inode(i).data {
            InodeData::File(d) => {
                let start = (offset as usize).min(d.len());
                let end = (offset.saturating_add(len) as usize).min(d.len());
                Ok(d[start..end].to_vec())
            }
            InodeData::Dir(_) => Err(Errno::EISDIR),
            InodeData::CharDev => Ok(Vec::new()), // console read: EOF
        }
    }

    /// Write to a regular file at `offset`, zero-filling holes. Returns
    /// bytes written.
    pub fn write_at(&mut self, i: Ino, offset: u64, data: &[u8]) -> Result<u64, Errno> {
        match &mut self.inode_mut(i).data {
            InodeData::File(d) => {
                let end = offset as usize + data.len();
                if d.len() < end {
                    d.resize(end, 0);
                }
                d[offset as usize..end].copy_from_slice(data);
                Ok(data.len() as u64)
            }
            InodeData::Dir(_) => Err(Errno::EISDIR),
            InodeData::CharDev => Ok(data.len() as u64),
        }
    }

    /// Truncate (or extend with zeros) a regular file.
    pub fn truncate(&mut self, i: Ino, len: u64) -> Result<(), Errno> {
        match &mut self.inode_mut(i).data {
            InodeData::File(d) => {
                d.resize(len as usize, 0);
                Ok(())
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// Absolute path of an inode (linear search; test/introspection aid).
    pub fn path_of(&self, target: Ino) -> Option<String> {
        fn walk(v: &Vfs, dir: Ino, target: Ino, acc: &mut Vec<String>) -> bool {
            if dir == target {
                return true;
            }
            if let InodeData::Dir(entries) = &v.inode(dir).data {
                for (name, &child) in entries {
                    acc.push(name.clone());
                    if walk(v, child, target, acc) {
                        return true;
                    }
                    acc.pop();
                }
            }
            false
        }
        let mut acc = Vec::new();
        walk(self, self.root, target, &mut acc).then(|| {
            if acc.is_empty() {
                "/".to_string()
            } else {
                format!("/{}", acc.join("/"))
            }
        })
    }

    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vfs_with_file(path_dir: &str, name: &str, content: &[u8]) -> (Vfs, Ino) {
        let mut v = Vfs::new();
        let mut dir = v.root();
        for comp in path_dir.split('/').filter(|c| !c.is_empty()) {
            dir = v.mkdir_at(dir, comp, 0o755, 0, 0).unwrap();
        }
        let f = v.create_at(dir, name, 0o644, 0, 0).unwrap();
        v.write_at(f, 0, content).unwrap();
        (v, f)
    }

    #[test]
    fn root_has_dev_console() {
        let v = Vfs::new();
        let c = v.resolve(v.root(), "/dev/console").unwrap();
        assert_eq!(v.inode(c).kind(), FileKind::CharDev);
    }

    #[test]
    fn resolve_relative_and_dotdot() {
        let (v, f) = vfs_with_file("a/b", "f.txt", b"hi");
        let b = v.resolve(v.root(), "/a/b").unwrap();
        assert_eq!(v.resolve(b, "f.txt").unwrap(), f);
        assert_eq!(v.resolve(b, "./f.txt").unwrap(), f);
        assert_eq!(v.resolve(b, "../b/f.txt").unwrap(), f);
        assert_eq!(v.resolve(b, "../../a/b/f.txt").unwrap(), f);
        // .. above root stays at root.
        assert_eq!(v.resolve(v.root(), "../../a/b/f.txt").unwrap(), f);
    }

    #[test]
    fn enoent_vs_enotdir() {
        let (v, _) = vfs_with_file("a", "f", b"");
        assert_eq!(v.resolve(v.root(), "/a/missing"), Err(Errno::ENOENT));
        assert_eq!(v.resolve(v.root(), "/a/f/deeper"), Err(Errno::ENOTDIR));
        assert_eq!(v.resolve(v.root(), "/missing/f"), Err(Errno::ENOENT));
    }

    #[test]
    fn create_excl_semantics() {
        let mut v = Vfs::new();
        let r = v.root();
        v.create_at(r, "x", 0o644, 0, 0).unwrap();
        assert_eq!(v.create_at(r, "x", 0o644, 0, 0), Err(Errno::EEXIST));
    }

    #[test]
    fn write_read_with_holes() {
        let mut v = Vfs::new();
        let f = v.create_at(v.root(), "f", 0o644, 0, 0).unwrap();
        v.write_at(f, 100, b"xyz").unwrap();
        assert_eq!(v.inode(f).size(), 103);
        assert_eq!(v.read_at(f, 0, 3).unwrap(), vec![0, 0, 0]);
        assert_eq!(v.read_at(f, 100, 10).unwrap(), b"xyz".to_vec());
        assert_eq!(v.read_at(f, 200, 10).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn unlink_and_rmdir_rules() {
        let mut v = Vfs::new();
        let r = v.root();
        let d = v.mkdir_at(r, "d", 0o755, 0, 0).unwrap();
        v.create_at(d, "f", 0o644, 0, 0).unwrap();
        assert_eq!(v.rmdir_at(r, "d"), Err(Errno::ENOTEMPTY));
        assert_eq!(v.unlink_at(r, "d"), Err(Errno::EISDIR));
        v.unlink_at(d, "f").unwrap();
        v.rmdir_at(r, "d").unwrap();
        assert_eq!(v.resolve(r, "/d"), Err(Errno::ENOENT));
    }

    #[test]
    fn rename_over_file() {
        let mut v = Vfs::new();
        let r = v.root();
        let a = v.create_at(r, "a", 0o644, 0, 0).unwrap();
        v.write_at(a, 0, b"src").unwrap();
        let b = v.create_at(r, "b", 0o644, 0, 0).unwrap();
        v.write_at(b, 0, b"dst").unwrap();
        v.rename(r, "a", r, "b").unwrap();
        assert_eq!(v.resolve(r, "/a"), Err(Errno::ENOENT));
        let got = v.resolve(r, "/b").unwrap();
        assert_eq!(v.read_at(got, 0, 3).unwrap(), b"src".to_vec());
    }

    #[test]
    fn rename_dir_over_nonempty_fails() {
        let mut v = Vfs::new();
        let r = v.root();
        v.mkdir_at(r, "src", 0o755, 0, 0).unwrap();
        let dst = v.mkdir_at(r, "dst", 0o755, 0, 0).unwrap();
        v.create_at(dst, "keep", 0o644, 0, 0).unwrap();
        assert_eq!(v.rename(r, "src", r, "dst"), Err(Errno::ENOTEMPTY));
    }

    #[test]
    fn truncate_grows_and_shrinks() {
        let mut v = Vfs::new();
        let f = v.create_at(v.root(), "f", 0o644, 0, 0).unwrap();
        v.write_at(f, 0, b"hello").unwrap();
        v.truncate(f, 2).unwrap();
        assert_eq!(v.read_at(f, 0, 10).unwrap(), b"he".to_vec());
        v.truncate(f, 4).unwrap();
        assert_eq!(v.read_at(f, 0, 10).unwrap(), vec![b'h', b'e', 0, 0]);
    }

    #[test]
    fn path_of_roundtrip() {
        let (v, f) = vfs_with_file("x/y", "z", b"");
        assert_eq!(v.path_of(f).unwrap(), "/x/y/z");
        assert_eq!(v.path_of(v.root()).unwrap(), "/");
    }

    #[test]
    fn stat_reports_kind_and_size() {
        let (v, f) = vfs_with_file("", "f", b"12345");
        let st = v.stat(f);
        assert_eq!(st.kind, FileKind::Regular);
        assert_eq!(st.size, 5);
        let rt = v.stat(v.root());
        assert_eq!(rt.kind, FileKind::Directory);
    }
}
