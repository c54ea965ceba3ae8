//! # twoview-runtime
//!
//! A **persistent worker pool** shared by every parallel hot path in the
//! workspace: the seed setup and gain-table upkeep of SELECT and EXACT,
//! the EXACT root-level DFS fan-out, and first-level candidate expansion
//! in the miners.
//!
//! Before this crate, each SELECT round spawned (and joined) one OS thread
//! per core via `std::thread::scope`; on corpora where the columnar refresh
//! is sub-millisecond the spawn cost alone ate the parallel speedup. The
//! pool here is created once per process, parks its workers on a condvar
//! between bursts, and hands out work as *chunked tasks stolen from a
//! shared deque* — submitting a round of refresh work costs a mutex push
//! and a wakeup instead of N `clone(2)` calls.
//!
//! Design pillars (see [`Runtime`]):
//!
//! * **std-only** — no external dependencies, consistent with the
//!   workspace's vendored-deps constraint;
//! * **scoped** — [`Runtime::install`] gives a [`Scope`] whose tasks may
//!   borrow from the caller's stack, exactly like `std::thread::scope`;
//!   the call does not return until every spawned task ran to completion;
//! * **caller participation** — the installing thread is itself the
//!   first worker of its scope, so a pool with `t` threads has `t − 1`
//!   parked OS workers and never oversubscribes the machine;
//! * **deterministic ordered reduction** — [`Runtime::map_chunks`]
//!   executes chunks in whatever order the workers steal them, but the
//!   results are written into submission-order slots: output is identical
//!   for any thread count, which is what lets every consumer keep its
//!   bit-identical-across-threads guarantee.
//!
//! Thread-count resolution is centralised in [`configured_threads`] /
//! [`resolve_threads`]: `TWOVIEW_RUNTIME_THREADS` overrides the available
//! parallelism for the whole process, and per-call `Option<usize>` configs
//! (`SelectConfig::n_threads`, `ExactConfig::n_threads`,
//! `MinerConfig::n_threads`) override that per run.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod faults;
pub mod jobs;
pub mod obs;
mod pool;
pub mod sync;

pub use jobs::{
    CancellationToken, Deadline, JobCtx, JobError, JobHandle, JobOptions, JobQueue, JobStatus,
    JobTimings, Priority, QueueConfig, QueueStats,
};
pub use pool::{Runtime, Scope};

use std::sync::OnceLock;

/// Process-wide thread budget: `TWOVIEW_RUNTIME_THREADS` if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
///
/// Read once and cached — the global pool is sized from it, so a mid-run
/// environment change could not be honoured anyway.
pub fn configured_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("TWOVIEW_RUNTIME_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Resolves a per-call `n_threads` config against the process default:
/// `None` means [`configured_threads`], and the result is at least 1.
pub fn resolve_threads(opt: Option<usize>) -> usize {
    opt.unwrap_or_else(configured_threads).max(1)
}

/// The process-wide pool, created on first use with
/// [`configured_threads`]`() − 1` parked workers (the caller of each scope
/// is the remaining participant). Never torn down; workers park between
/// bursts and cost nothing while idle.
pub fn global() -> &'static Runtime {
    static GLOBAL: OnceLock<Runtime> = OnceLock::new();
    GLOBAL.get_or_init(|| Runtime::new(configured_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_defaults_and_overrides() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(None), configured_threads());
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global() as *const Runtime;
        let b = global() as *const Runtime;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }
}
