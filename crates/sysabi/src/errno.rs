//! Linux-compatible error numbers.
//!
//! The function-ship design (paper §IV.A) requires that "the calls produce
//! the same result codes" as Linux: the ioproxy executes the real call on
//! the I/O node and the errno travels back to the compute node verbatim.
//! We therefore use the real Linux numeric values so marshaled results are
//! bit-compatible with what a PowerPC Linux ioproxy would return.

use std::fmt;

/// A subset of Linux errno values sufficient for the CNK syscall surface.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(i32)]
pub enum Errno {
    /// Operation not permitted.
    EPERM = 1,
    /// No such file or directory.
    ENOENT = 2,
    /// No such process.
    ESRCH = 3,
    /// Interrupted system call.
    EINTR = 4,
    /// I/O error.
    EIO = 5,
    /// Bad file descriptor.
    EBADF = 9,
    /// Try again (also EWOULDBLOCK).
    EAGAIN = 11,
    /// Out of memory.
    ENOMEM = 12,
    /// Permission denied.
    EACCES = 13,
    /// Bad address.
    EFAULT = 14,
    /// Device or resource busy.
    EBUSY = 16,
    /// File exists.
    EEXIST = 17,
    /// No such device.
    ENODEV = 19,
    /// Not a directory.
    ENOTDIR = 20,
    /// Is a directory.
    EISDIR = 21,
    /// Invalid argument.
    EINVAL = 22,
    /// Too many open files.
    EMFILE = 24,
    /// No space left on device.
    ENOSPC = 28,
    /// Illegal seek.
    ESPIPE = 29,
    /// Directory not empty.
    ENOTEMPTY = 39,
    /// Function not implemented. CNK returns this for fork/exec (§VII.B).
    ENOSYS = 38,
}

impl Errno {
    /// The Linux numeric value (positive).
    #[inline]
    pub fn code(self) -> i32 {
        self as i32
    }

    /// Reconstruct from a positive Linux code (used when demarshaling
    /// function-ship replies).
    pub fn from_code(code: i32) -> Option<Errno> {
        use Errno::*;
        Some(match code {
            1 => EPERM,
            2 => ENOENT,
            3 => ESRCH,
            4 => EINTR,
            5 => EIO,
            9 => EBADF,
            11 => EAGAIN,
            12 => ENOMEM,
            13 => EACCES,
            14 => EFAULT,
            16 => EBUSY,
            17 => EEXIST,
            19 => ENODEV,
            20 => ENOTDIR,
            21 => EISDIR,
            22 => EINVAL,
            24 => EMFILE,
            28 => ENOSPC,
            29 => ESPIPE,
            38 => ENOSYS,
            39 => ENOTEMPTY,
            _ => return None,
        })
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[Errno] = &[
        Errno::EPERM,
        Errno::ENOENT,
        Errno::ESRCH,
        Errno::EINTR,
        Errno::EIO,
        Errno::EBADF,
        Errno::EAGAIN,
        Errno::ENOMEM,
        Errno::EACCES,
        Errno::EFAULT,
        Errno::EBUSY,
        Errno::EEXIST,
        Errno::ENODEV,
        Errno::ENOTDIR,
        Errno::EISDIR,
        Errno::EINVAL,
        Errno::EMFILE,
        Errno::ENOSPC,
        Errno::ESPIPE,
        Errno::ENOTEMPTY,
        Errno::ENOSYS,
    ];

    #[test]
    fn code_roundtrip() {
        for &e in ALL {
            assert_eq!(Errno::from_code(e.code()), Some(e));
        }
    }

    #[test]
    fn linux_values_match() {
        assert_eq!(Errno::ENOENT.code(), 2);
        assert_eq!(Errno::EBADF.code(), 9);
        assert_eq!(Errno::ENOSYS.code(), 38);
        assert_eq!(Errno::EINVAL.code(), 22);
    }

    #[test]
    fn unknown_code_is_none() {
        assert_eq!(Errno::from_code(0), None);
        assert_eq!(Errno::from_code(9999), None);
    }
}
