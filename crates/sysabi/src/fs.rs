//! Filesystem vocabulary: file descriptors, open flags, seek whence, stat.
//!
//! These mirror the Linux ABI closely enough that the `ciod` crate can
//! marshal them into the function-ship wire format and an ioproxy can
//! execute them with identical semantics (paper §IV.A).

/// A process-local file descriptor.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fd(pub i32);

impl Fd {
    pub const STDIN: Fd = Fd(0);
    pub const STDOUT: Fd = Fd(1);
    pub const STDERR: Fd = Fd(2);
}

/// Open(2) flags. Modeled as a bitset with the Linux values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct OpenFlags(pub u32);

impl OpenFlags {
    pub const RDONLY: OpenFlags = OpenFlags(0o0);
    pub const WRONLY: OpenFlags = OpenFlags(0o1);
    pub const RDWR: OpenFlags = OpenFlags(0o2);
    pub const CREAT: OpenFlags = OpenFlags(0o100);
    pub const EXCL: OpenFlags = OpenFlags(0o200);
    pub const TRUNC: OpenFlags = OpenFlags(0o1000);
    pub const APPEND: OpenFlags = OpenFlags(0o2000);
    pub const DIRECTORY: OpenFlags = OpenFlags(0o200000);

    #[inline]
    pub fn contains(self, other: OpenFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Access mode (lowest two bits).
    #[inline]
    pub fn access(self) -> u32 {
        self.0 & 0o3
    }

    #[inline]
    pub fn readable(self) -> bool {
        matches!(self.access(), 0o0 | 0o2)
    }

    #[inline]
    pub fn writable(self) -> bool {
        matches!(self.access(), 0o1 | 0o2)
    }
}

impl std::ops::BitOr for OpenFlags {
    type Output = OpenFlags;
    fn bitor(self, rhs: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | rhs.0)
    }
}

/// lseek(2) whence.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u32)]
pub enum SeekWhence {
    Set = 0,
    Cur = 1,
    End = 2,
}

impl SeekWhence {
    pub fn from_code(c: u32) -> Option<SeekWhence> {
        Some(match c {
            0 => SeekWhence::Set,
            1 => SeekWhence::Cur,
            2 => SeekWhence::End,
            _ => return None,
        })
    }
}

/// The kind of an inode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum FileKind {
    Regular = 0,
    Directory = 1,
    /// A character device (the console on the I/O node).
    CharDev = 2,
}

impl FileKind {
    pub fn from_code(c: u8) -> Option<FileKind> {
        Some(match c {
            0 => FileKind::Regular,
            1 => FileKind::Directory,
            2 => FileKind::CharDev,
            _ => return None,
        })
    }
}

/// A minimal stat buffer: the fields the paper's applications consume.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StatBuf {
    pub kind: FileKind,
    pub size: u64,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    pub ino: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flag_access_modes() {
        assert!(OpenFlags::RDONLY.readable());
        assert!(!OpenFlags::RDONLY.writable());
        assert!(OpenFlags::WRONLY.writable());
        assert!(!OpenFlags::WRONLY.readable());
        assert!(OpenFlags::RDWR.readable() && OpenFlags::RDWR.writable());
    }

    #[test]
    fn open_flag_combination() {
        let f = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
        assert!(f.contains(OpenFlags::CREAT));
        assert!(f.contains(OpenFlags::TRUNC));
        assert!(!f.contains(OpenFlags::APPEND));
        assert!(f.writable());
    }

    #[test]
    fn whence_roundtrip() {
        for w in [SeekWhence::Set, SeekWhence::Cur, SeekWhence::End] {
            assert_eq!(SeekWhence::from_code(w as u32), Some(w));
        }
        assert_eq!(SeekWhence::from_code(7), None);
    }
}
