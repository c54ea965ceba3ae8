//! Poison-tolerant locking helpers.
//!
//! Every `Mutex`/`Condvar` in this crate guards state that stays
//! consistent across a panic of the holder: queue lanes (a job is either
//! in a lane or owned by an executor), completion slots (written once),
//! and timing cells (plain data). A `PoisonError` therefore carries no
//! information we act on — but `lock().unwrap()` would convert one
//! panicked job into a cascade of `Panicked("PoisonError")` failures in
//! every *unrelated* job that later touches the same lock. The
//! extension traits here recover the guard unconditionally.

use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// [`Mutex`] extension: lock, recovering from poison.
pub trait PoisonTolerantMutex<T> {
    /// Like [`Mutex::lock`], but a poisoned lock yields the guard anyway
    /// instead of propagating the holder's panic to this thread.
    fn plock(&self) -> MutexGuard<'_, T>;
}

impl<T> PoisonTolerantMutex<T> for Mutex<T> {
    fn plock(&self) -> MutexGuard<'_, T> {
        self.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// [`Condvar`] extension: wait, recovering from poison.
pub trait PoisonTolerantCondvar {
    /// Like [`Condvar::wait`], but recovers the guard from a poisoned
    /// lock instead of panicking.
    fn pwait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T>;

    /// Like [`Condvar::wait_timeout`], poison-tolerant.
    fn pwait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult);
}

/// An owned poison-tolerant mutex for code *outside* this crate.
///
/// The extension traits above keep `twoview-runtime` internals on raw
/// `std::sync` primitives (they own the poison story wholesale), but
/// the `twoview-lint` lock-discipline rule bans raw `Mutex`/`Condvar`
/// everywhere else. Solver and bench code that needs a lock wraps it in
/// `TolerantMutex`, whose only lock method already recovers from
/// poison — the poison-blind `.lock().unwrap()` cannot be written.
#[derive(Debug, Default)]
pub struct TolerantMutex<T> {
    inner: Mutex<T>,
}

impl<T> TolerantMutex<T> {
    /// Wraps `value` in a poison-tolerant mutex.
    pub fn new(value: T) -> TolerantMutex<T> {
        TolerantMutex {
            inner: Mutex::new(value),
        }
    }

    /// Locks, recovering the guard from a poisoned lock. Callers must
    /// tolerate seeing state a panicked holder left mid-update — fine
    /// for write-once slots, counters and append buffers.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.plock()
    }

    /// Consumes the mutex, returning the inner value (poison ignored).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl PoisonTolerantCondvar for Condvar {
    fn pwait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait(guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn pwait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.wait_timeout(guard, dur)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn plock_recovers_from_poison() {
        let m = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*m.plock(), 7);
        *m.plock() = 8;
        assert_eq!(*m.plock(), 8);
    }

    #[test]
    fn pwait_timeout_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let guard = m.plock();
        let (_guard, res) = cv.pwait_timeout(guard, Duration::from_millis(1));
        assert!(res.timed_out());
    }
}
