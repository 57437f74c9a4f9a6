//! Futex operation vocabulary.
//!
//! The paper (§IV.B.1): "For atomic operations, such as pthread_mutex, a
//! full implementation of futex was needed." The operations below are the
//! ones glibc's NPTL actually issues: WAIT/WAKE for mutexes and joins,
//! REQUEUE/CMP_REQUEUE for condition variables, and the bitset variants
//! used by modern NPTL for targeted wakeups.

/// A futex operation, as carried by the `futex` system call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FutexOp {
    /// Block if `*uaddr == expected`.
    Wait { expected: u32 },
    /// Wake up to `count` waiters.
    Wake { count: u32 },
    /// Wake up to `wake` waiters and requeue up to `requeue` more onto
    /// `target_uaddr` (condition-variable broadcast).
    Requeue {
        wake: u32,
        requeue: u32,
        target_uaddr: u64,
    },
    /// Like `Requeue` but fails with EAGAIN if `*uaddr != expected`.
    CmpRequeue {
        wake: u32,
        requeue: u32,
        target_uaddr: u64,
        expected: u32,
    },
    /// Block if `*uaddr == expected`, tagged with a wake mask.
    WaitBitset { expected: u32, bitset: u32 },
    /// Wake up to `count` waiters whose bitset intersects `bitset`.
    WakeBitset { count: u32, bitset: u32 },
}

/// The bitset that matches any waiter (FUTEX_BITSET_MATCH_ANY).
pub const FUTEX_BITSET_MATCH_ANY: u32 = u32::MAX;
