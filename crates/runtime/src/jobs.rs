//! Priority-aware job queue: the serving layer above the worker pool.
//!
//! The worker pool underneath ([`Runtime`](crate::Runtime)) parallelises
//! *one* computation; this module schedules *many* computations —
//! translator fits, table evaluations, translation queries — submitted
//! concurrently from any number of threads. Design:
//!
//! * **two priority classes** ([`Priority::Interactive`] and
//!   [`Priority::Batch`]): an executor always serves the interactive lane
//!   first, and each lane is strictly FIFO, so a latency-sensitive query
//!   never queues behind a backlog of batch fits while batch work keeps
//!   its submission order;
//! * **cooperative cancellation** ([`CancellationToken`]): jobs receive a
//!   [`JobCtx`] and are expected to call [`JobCtx::checkpoint`] at their
//!   natural safe points (an iteration boundary, a candidate block). A
//!   cancelled job returns [`JobError::Cancelled`] — never a partial
//!   result — so every *completed* job is bit-identical to a serial run;
//! * **deadlines** ([`Deadline`], via [`JobQueue::submit_opts`]): a
//!   queue-wait bound enforced at dispatch and a total bound enforced at
//!   the same checkpoints as cancellation. An expired job completes with
//!   [`JobError::DeadlineExceeded`] and, like a cancelled one, never
//!   yields a partial result. [`JobHandle::join_timeout`] bounds the
//!   *caller's* wait without affecting the job itself;
//! * **bounded admission** ([`QueueConfig::lane_capacity()`]): each lane
//!   can be capacity-bounded, and a full lane rejects the new job at once
//!   ([`JobError::Rejected`] — the in-process contract an HTTP 429 maps
//!   onto);
//! * **panic containment**: a panicking job body resolves its handle to
//!   [`JobError::Panicked`] instead of hanging it, and the executor goes
//!   on to the next job;
//! * **observable handles** ([`JobHandle`]): status, a monotone progress
//!   counter, queue-wait/run timings, and the global start-order stamp
//!   the scheduling tests assert on.
//!
//! Executor threads are dedicated OS threads (jobs *block* on them; the
//! data-parallel inner loops of a job still run on the shared
//! [`crate::global`] pool), so a handful of executors is enough: they
//! coordinate, the pool computes.
//!
//! All internal locks go through [`crate::sync`]'s poison-tolerant
//! helpers: one panicked lock holder must not cascade
//! `Panicked("PoisonError")` through unrelated jobs.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::obs;
use crate::sync::{PoisonTolerantCondvar, PoisonTolerantMutex};

/// Process-wide checkpoint counter (`queue.checkpoints`): one cell shared
/// by every [`JobCtx`] — checkpoints are not a per-queue statistic.
fn checkpoint_counter() -> &'static obs::Counter {
    static C: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| obs::counter("queue.checkpoints"))
}

/// Stable lane label for trace fields.
fn lane_str(priority: Priority) -> &'static str {
    match priority {
        Priority::Interactive => "interactive",
        Priority::Batch => "batch",
    }
}

/// Scheduling class of a job. Lower latency first: executors always pop
/// the interactive lane before the batch lane; within a lane jobs run in
/// submission (FIFO) order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive work (queries, small fits): served first.
    Interactive,
    /// Throughput work (bulk fits, sweeps): served when no interactive
    /// job is waiting.
    Batch,
}

/// A cloneable cooperative-cancellation flag. Cancelling is a request:
/// the job observes it at its next [`JobCtx::checkpoint`] and winds down
/// by returning [`JobError::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a job produced no value.
#[derive(Debug)]
pub enum JobError {
    /// The job was cancelled (or its queue shut down) before completion.
    Cancelled,
    /// The job panicked; the payload's message, if it had one.
    Panicked(String),
    /// A [`Deadline`] expired — while the job was queued (queue-wait
    /// bound, checked at dispatch) or while it ran (total bound, checked
    /// at each [`JobCtx::checkpoint`]). Never a partial result.
    DeadlineExceeded,
    /// Bounded admission turned the job away: its lane was at
    /// [`QueueConfig::lane_capacity()`]. The backpressure signal a serving
    /// front door maps to HTTP 429.
    Rejected,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            JobError::Rejected => write!(f, "job rejected by admission control"),
        }
    }
}

impl std::error::Error for JobError {}

/// Per-job time bounds, both optional and independent.
///
/// * `queue_wait` — maximum time the job may sit in its lane; enforced
///   once, at dispatch. A job that waited longer completes with
///   [`JobError::DeadlineExceeded`] without ever running.
/// * `total` — maximum time from submission to completion; enforced at
///   dispatch and at every [`JobCtx::checkpoint`] while running, with
///   the same "never a partial result" contract as cancellation.
///
/// Enforcement is cooperative (checkpoint-granular), not preemptive: a
/// job between checkpoints keeps running until its next safe point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deadline {
    /// Maximum queue wait, checked at dispatch.
    pub queue_wait: Option<Duration>,
    /// Maximum total (queue + run) time, checked at checkpoints.
    pub total: Option<Duration>,
}

impl Deadline {
    /// No bounds (the default).
    pub const NONE: Deadline = Deadline {
        queue_wait: None,
        total: None,
    };

    /// Bound only the total submission-to-completion time.
    pub fn total(limit: Duration) -> Self {
        Deadline {
            queue_wait: None,
            total: Some(limit),
        }
    }

    /// Bound only the queue wait.
    pub fn queue_wait(limit: Duration) -> Self {
        Deadline {
            queue_wait: Some(limit),
            total: None,
        }
    }

    /// Whether any bound is set.
    pub fn is_some(&self) -> bool {
        self.queue_wait.is_some() || self.total.is_some()
    }
}

/// Per-job submission options (see [`JobQueue::submit_opts`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct JobOptions {
    /// Time bounds for this job.
    pub deadline: Deadline,
}

impl JobOptions {
    /// Options carrying only a deadline.
    pub fn with_deadline(deadline: Deadline) -> Self {
        JobOptions { deadline }
    }
}

/// Execution context handed to every job body.
#[derive(Clone, Debug)]
pub struct JobCtx {
    cancel: CancellationToken,
    progress: Arc<AtomicU64>,
    /// Absolute total-deadline instant, if any.
    deadline: Option<Instant>,
}

impl JobCtx {
    /// The job's cancellation token (cloneable, shareable).
    pub fn token(&self) -> &CancellationToken {
        &self.cancel
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Cooperative safe point: returns `Err(JobError::Cancelled)` when
    /// the job should wind down, `Err(JobError::DeadlineExceeded)` when
    /// its total deadline has passed. Call at iteration boundaries. With
    /// no deadline set the check is a single atomic load.
    pub fn checkpoint(&self) -> Result<(), JobError> {
        checkpoint_counter().incr();
        if self.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(JobError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// The absolute total-deadline instant, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the total deadline (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Advances the monotone progress counter visible through
    /// [`JobHandle::progress`] (units are job-defined: iterations, rules,
    /// candidate blocks).
    pub fn tick(&self, steps: u64) {
        self.progress.fetch_add(steps, Ordering::Relaxed);
    }
}

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in its priority lane.
    Queued,
    /// Executing on an executor thread.
    Running,
    /// Finished (successfully, cancelled, rejected, expired, or
    /// panicked).
    Done,
}

const STATE_QUEUED: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_DONE: u8 = 2;

/// Wall-clock observability of one job.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobTimings {
    /// Time spent waiting in the queue (`None` until the job starts; for
    /// jobs aborted while queued, the wait until the abort).
    pub queue_wait: Option<Duration>,
    /// Time spent executing (`None` until the job finishes).
    pub run: Option<Duration>,
}

/// Type-shared completion state between a [`JobHandle`] and the executor.
struct JobShared<T> {
    result: Mutex<Option<Result<T, JobError>>>,
    done: Condvar,
    state: AtomicU8,
    progress: Arc<AtomicU64>,
    cancel: CancellationToken,
    submitted: Instant,
    /// Global start-order stamp (`u64::MAX` = never started).
    start_seq: AtomicU64,
    timings: Mutex<JobTimings>,
}

impl<T> JobShared<T> {
    fn complete(&self, result: Result<T, JobError>) {
        let mut slot = self.result.plock();
        *slot = Some(result);
        self.state.store(STATE_DONE, Ordering::Release);
        self.done.notify_all();
    }
}

/// An owned handle to a submitted job: observe, cancel, and [`join`]
/// (consume) it for the result.
///
/// [`join`]: JobHandle::join
pub struct JobHandle<T> {
    shared: Arc<JobShared<T>>,
    priority: Priority,
}

impl<T> JobHandle<T> {
    /// The priority class the job was submitted with.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Requests cooperative cancellation. A job not yet started will never
    /// run its body — it completes with [`JobError::Cancelled`] when an
    /// executor next dequeues it (its turn in the lane; cancellation does
    /// not jump the queue). A running job winds down at its next
    /// checkpoint.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }

    /// A clone of the job's cancellation token.
    pub fn token(&self) -> CancellationToken {
        self.shared.cancel.clone()
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        match self.shared.state.load(Ordering::Acquire) {
            STATE_QUEUED => JobStatus::Queued,
            STATE_RUNNING => JobStatus::Running,
            _ => JobStatus::Done,
        }
    }

    /// Monotone progress counter (units are job-defined; see
    /// [`JobCtx::tick`]).
    pub fn progress(&self) -> u64 {
        self.shared.progress.load(Ordering::Relaxed)
    }

    /// The global start-order stamp: job `a` with `start_index() <
    /// b.start_index()` began executing before `b`. `None` until the job
    /// starts (cancelled-while-queued jobs never start).
    pub fn start_index(&self) -> Option<u64> {
        match self.shared.start_seq.load(Ordering::Acquire) {
            u64::MAX => None,
            seq => Some(seq),
        }
    }

    /// Queue-wait and run times observed so far.
    pub fn timings(&self) -> JobTimings {
        *self.shared.timings.plock()
    }

    /// Blocks until the job starts executing or finishes (a job cancelled
    /// while queued finishes without ever starting).
    pub fn wait_started(&self) {
        let mut guard = self.shared.result.plock();
        while self.shared.state.load(Ordering::Acquire) == STATE_QUEUED {
            guard = self.shared.done.pwait(guard);
        }
    }

    /// Blocks until the job finishes, without consuming the handle (use
    /// [`JobHandle::join`] for the result; this is for reading timings or
    /// progress of a known-complete job first).
    pub fn wait(&self) {
        let mut guard = self.shared.result.plock();
        while self.shared.state.load(Ordering::Acquire) != STATE_DONE {
            guard = self.shared.done.pwait(guard);
        }
    }

    /// Blocks until the job finishes and returns its result.
    pub fn join(self) -> Result<T, JobError> {
        let mut guard = self.shared.result.plock();
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self.shared.done.pwait(guard);
        }
    }

    /// Bounded join: waits up to `timeout` for the result. On timeout the
    /// handle is returned so the caller can keep waiting, cancel, or
    /// drop it — the *job itself is unaffected* (this bounds the caller's
    /// wait; use a [`Deadline`] to bound the job).
    pub fn join_timeout(self, timeout: Duration) -> Result<Result<T, JobError>, JobHandle<T>> {
        let wait_until = Instant::now() + timeout;
        let mut guard = self.shared.result.plock();
        loop {
            if let Some(result) = guard.take() {
                drop(guard);
                return Ok(result);
            }
            let now = Instant::now();
            if now >= wait_until {
                drop(guard);
                return Err(self);
            }
            let (g, _) = self.shared.done.pwait_timeout(guard, wait_until - now);
            guard = g;
        }
    }
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("priority", &self.priority)
            .field("status", &self.status())
            .field("progress", &self.progress())
            .finish()
    }
}

/// Construction-time queue configuration.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Dedicated executor threads (at least 1).
    pub executors: usize,
    /// Per-lane queued-job capacity (`None` = unbounded; running jobs
    /// don't count). Both lanes get the same bound; a submission to a
    /// full lane completes at once with [`JobError::Rejected`].
    pub lane_capacity: Option<usize>,
}

impl QueueConfig {
    /// Unbounded lanes, `executors` threads.
    pub fn new(executors: usize) -> Self {
        QueueConfig {
            executors,
            lane_capacity: None,
        }
    }

    /// Bound each lane to `capacity` queued jobs (at least 1).
    pub fn lane_capacity(mut self, capacity: usize) -> Self {
        self.lane_capacity = Some(capacity.max(1));
        self
    }
}

/// Monotone counters of the queue's robustness events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs turned away by a full lane ([`JobError::Rejected`]).
    pub rejected: u64,
    /// Jobs whose deadline expired (while queued or running).
    pub timed_out: u64,
}

/// How an executor disposes of a queued job.
enum Disposal {
    /// Run the body (unless already cancelled or past deadline).
    Execute,
    /// Complete with [`JobError::Cancelled`] without running (shutdown).
    Abort,
}

/// A type-erased queued job: all typed state lives in the closure. The
/// token rides alongside so shutdown can cancel queued jobs without
/// running the closure.
struct QueuedJob {
    run: Box<dyn FnOnce(Disposal) + Send>,
    cancel: CancellationToken,
}

/// The two FIFO lanes plus the per-executor registry of running jobs'
/// tokens. The registry lives under the same mutex as the lanes so a
/// pop-and-register is atomic with respect to shutdown's cancel sweep:
/// a job is always visible either in its lane or in `active`.
struct Lanes {
    interactive: VecDeque<QueuedJob>,
    batch: VecDeque<QueuedJob>,
    active: Vec<Option<CancellationToken>>,
}

impl Lanes {
    fn pop(&mut self) -> Option<QueuedJob> {
        self.interactive
            .pop_front()
            .or_else(|| self.batch.pop_front())
    }

    fn lane_len(&self, priority: Priority) -> usize {
        match priority {
            Priority::Interactive => self.interactive.len(),
            Priority::Batch => self.batch.len(),
        }
    }
}

struct QueueShared {
    lanes: Mutex<Lanes>,
    available: Condvar,
    shutdown: AtomicBool,
    start_seq: AtomicU64,
    lane_capacity: Option<usize>,
    /// Robustness counters are registry cells (`queue.*`): the queue's
    /// own [`QueueStats`] view and the process-wide
    /// [`obs::snapshot`] read the *same* atomics — one source of truth.
    stat_rejected: obs::Counter,
    stat_timed_out: obs::Counter,
    /// Queued jobs across both lanes, maintained under the lanes lock.
    depth: obs::Gauge,
    /// Process-wide latency histograms (shared cores by name).
    wait_hist: obs::Histogram,
    run_hist: obs::Histogram,
}

/// A priority job queue with dedicated executor threads.
/// See the [module docs](self) for the scheduling contract.
pub struct JobQueue {
    shared: Arc<QueueShared>,
    executors: Vec<JoinHandle<()>>,
}

impl JobQueue {
    /// An unbounded queue served by `executors` dedicated threads (at
    /// least 1).
    pub fn new(executors: usize) -> Self {
        Self::with_config(QueueConfig::new(executors))
    }

    /// A queue with an explicit executor count and lane capacity.
    pub fn with_config(config: QueueConfig) -> Self {
        let n = config.executors.max(1);
        let shared = Arc::new(QueueShared {
            lanes: Mutex::new(Lanes {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                active: vec![None; n],
            }),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            start_seq: AtomicU64::new(0),
            lane_capacity: config.lane_capacity,
            stat_rejected: obs::counter("queue.jobs_rejected"),
            stat_timed_out: obs::counter("queue.jobs_timed_out"),
            depth: obs::gauge("queue.depth"),
            wait_hist: obs::histogram("queue.wait"),
            run_hist: obs::histogram("queue.run"),
        });
        let executors = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("twoview-jobs-{i}"))
                    .spawn(move || executor_loop(&shared, i))
                    // lint: allow(panic_hygiene) — thread spawn fails only on OS resource exhaustion; queue construction cannot proceed
                    .expect("spawn job executor")
            })
            .collect();
        JobQueue { shared, executors }
    }

    /// Number of executor threads.
    pub fn executors(&self) -> usize {
        self.executors.len()
    }

    /// Robustness counters accumulated since construction: a view over
    /// this queue's registry cells (`queue.*` in [`obs::snapshot`]).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            rejected: self.shared.stat_rejected.get(),
            timed_out: self.shared.stat_timed_out.get(),
        }
    }

    /// Submits a job with default options (no deadline). Thread-safe;
    /// callable from any number of threads concurrently. The body
    /// receives a [`JobCtx`] for cancellation checkpoints and progress
    /// ticks.
    pub fn submit<T, F>(&self, priority: Priority, body: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&JobCtx) -> Result<T, JobError> + Send + 'static,
    {
        self.submit_opts(priority, JobOptions::default(), body)
    }

    /// Submits a job with explicit [`JobOptions`] (deadlines). When its
    /// lane is at [`QueueConfig::lane_capacity()`] the job never queues:
    /// its handle completes immediately with [`JobError::Rejected`].
    pub fn submit_opts<T, F>(&self, priority: Priority, opts: JobOptions, body: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&JobCtx) -> Result<T, JobError> + Send + 'static,
    {
        let shared = Arc::new(JobShared {
            result: Mutex::new(None),
            done: Condvar::new(),
            state: AtomicU8::new(STATE_QUEUED),
            progress: Arc::new(AtomicU64::new(0)),
            cancel: CancellationToken::new(),
            submitted: Instant::now(),
            start_seq: AtomicU64::new(u64::MAX),
            timings: Mutex::new(JobTimings::default()),
        });
        let handle = JobHandle {
            shared: Arc::clone(&shared),
            priority,
        };
        let cancel = shared.cancel.clone();
        let total_deadline = opts
            .deadline
            .total
            .and_then(|limit| shared.submitted.checked_add(limit));
        let queue_shared = Arc::clone(&self.shared);
        let run = Box::new(move |disposal: Disposal| {
            let queued_for = shared.submitted.elapsed();
            shared.timings.plock().queue_wait = Some(queued_for);
            queue_shared.wait_hist.observe(queued_for);
            if let Disposal::Abort = disposal {
                obs::event("job.abort", &[("lane", lane_str(priority).into())]);
                shared.complete(Err(JobError::Cancelled));
                return;
            }
            if shared.cancel.is_cancelled() {
                shared.complete(Err(JobError::Cancelled));
                return;
            }
            let queue_expired = opts
                .deadline
                .queue_wait
                .is_some_and(|limit| queued_for > limit);
            let total_expired = total_deadline.is_some_and(|at| Instant::now() >= at);
            if queue_expired || total_expired {
                queue_shared.stat_timed_out.incr();
                obs::event("job.timeout", &[("while", "queued".into())]);
                shared.complete(Err(JobError::DeadlineExceeded));
                return;
            }
            let seq = queue_shared.start_seq.fetch_add(1, Ordering::Relaxed);
            shared.start_seq.store(seq, Ordering::Release);
            {
                // Status flips under the result lock so `wait_started`'s
                // check-then-wait cannot miss the transition.
                let _guard = shared.result.plock();
                shared.state.store(STATE_RUNNING, Ordering::Release);
                shared.done.notify_all();
            }
            let ctx = JobCtx {
                cancel: shared.cancel.clone(),
                progress: Arc::clone(&shared.progress),
                deadline: total_deadline,
            };
            let mut span = obs::span("job.run");
            span.field("lane", lane_str(priority))
                .field("queue_wait_us", queued_for.as_micros() as u64);
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
            let ran_for = started.elapsed();
            queue_shared.run_hist.observe(ran_for);
            shared.timings.plock().run = Some(ran_for);
            let result = match outcome {
                Ok(r) => r,
                Err(payload) => Err(JobError::Panicked(panic_message(payload.as_ref()))),
            };
            // A deadline that expires mid-run without the body noticing
            // (e.g. it panicked first) still counts as timed out only
            // when the body reported it.
            if matches!(result, Err(JobError::DeadlineExceeded)) {
                queue_shared.stat_timed_out.incr();
                obs::event("job.timeout", &[("while", "running".into())]);
            }
            span.field(
                "outcome",
                match &result {
                    Ok(_) => "ok",
                    Err(JobError::Cancelled) => "cancelled",
                    Err(JobError::Panicked(_)) => "panicked",
                    Err(JobError::DeadlineExceeded) => "deadline",
                    Err(JobError::Rejected) => "rejected",
                },
            );
            // Close (and drain) the span before waking joiners so a
            // joiner that reads the trace right after `join` sees it.
            drop(span);
            if obs::trace_enabled() {
                obs::flush_trace();
            }
            shared.complete(result);
        });
        let job = QueuedJob { run, cancel };
        obs::event("job.enqueue", &[("lane", lane_str(priority).into())]);
        {
            let mut lanes = self.shared.lanes.plock();
            if self
                .shared
                .lane_capacity
                .is_some_and(|capacity| lanes.lane_len(priority) >= capacity)
            {
                self.shared.stat_rejected.incr();
                drop(lanes);
                obs::event("job.reject", &[("lane", lane_str(priority).into())]);
                handle.shared.complete(Err(JobError::Rejected));
                return handle;
            }
            match priority {
                Priority::Interactive => lanes.interactive.push_back(job),
                Priority::Batch => lanes.batch.push_back(job),
            }
            self.shared
                .depth
                .set((lanes.interactive.len() + lanes.batch.len()) as u64);
            self.shared.available.notify_one();
        }
        handle
    }
}

impl Drop for JobQueue {
    /// Shutdown. In order:
    ///
    /// 1. the shutdown flag flips;
    /// 2. under the lanes lock, every **queued** job's token and every
    ///    **running** job's token (the `active` registry) is cancelled —
    ///    the registry is maintained under the same lock as the lanes,
    ///    so no job can be mid-pop and missed by this sweep;
    /// 3. executors are woken and joined: each drains the lanes,
    ///    completing still-queued jobs with [`JobError::Cancelled`], and
    ///    an in-flight job winds down at its next
    ///    [`JobCtx::checkpoint`].
    ///
    /// Consequently `drop` blocks only until running jobs reach a
    /// checkpoint — never for their natural completion — and every
    /// outstanding [`JobHandle`] resolves (no handle ever hangs).
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let lanes = self.shared.lanes.plock();
            for token in lanes.active.iter().flatten() {
                token.cancel();
            }
            for job in lanes.interactive.iter().chain(lanes.batch.iter()) {
                job.cancel.cancel();
            }
            self.shared.available.notify_all();
        }
        for executor in self.executors.drain(..) {
            let _ = executor.join();
        }
    }
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("executors", &self.executors.len())
            .field("lane_capacity", &self.shared.lane_capacity)
            .finish()
    }
}

fn executor_loop(shared: &Arc<QueueShared>, idx: usize) {
    loop {
        let (job, disposal) = {
            let mut lanes = shared.lanes.plock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    // Drain-and-abort whatever is still queued, then exit.
                    match lanes.pop() {
                        Some(job) => break (job, Disposal::Abort),
                        None => return,
                    }
                }
                match lanes.pop() {
                    Some(job) => {
                        lanes.active[idx] = Some(job.cancel.clone());
                        shared
                            .depth
                            .set((lanes.interactive.len() + lanes.batch.len()) as u64);
                        break (job, Disposal::Execute);
                    }
                    None => lanes = shared.available.pwait(lanes),
                }
            }
        };
        let executed = matches!(disposal, Disposal::Execute);
        (job.run)(disposal);
        if executed {
            shared.lanes.plock().active[idx] = None;
        }
        // A drained-on-shutdown executor keeps draining until empty.
        if shared.shutdown.load(Ordering::Acquire) {
            let mut lanes = shared.lanes.plock();
            while let Some(job) = lanes.pop() {
                (job.run)(Disposal::Abort);
            }
            return;
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn submit_and_join() {
        let q = JobQueue::new(2);
        let h = q.submit(Priority::Interactive, |_ctx| Ok(6 * 7));
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn progress_and_timings_observable() {
        let q = JobQueue::new(1);
        let h = q.submit(Priority::Batch, |ctx| {
            ctx.tick(3);
            ctx.tick(4);
            Ok(())
        });
        h.wait();
        assert!(h.timings().run.is_some());
        h.join().unwrap();
        // `join` consumed the handle; submit another to read observables
        // before completion instead.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let h = q.submit(Priority::Batch, move |ctx| -> Result<(), JobError> {
            ctx.tick(7);
            gate_rx.recv().ok();
            Ok(())
        });
        h.wait_started();
        while h.progress() < 7 {
            std::thread::yield_now();
        }
        assert_eq!(h.status(), JobStatus::Running);
        assert!(h.start_index().is_some());
        gate_tx.send(()).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn cancel_while_queued_never_runs() {
        let q = JobQueue::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = q.submit(Priority::Batch, move |_ctx| {
            gate_rx.recv().ok();
            Ok(())
        });
        blocker.wait_started();
        let victim = q.submit(Priority::Batch, |_ctx| Ok("ran"));
        victim.cancel();
        gate_tx.send(()).unwrap();
        blocker.join().unwrap();
        match victim.join() {
            Err(JobError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancel_mid_run_observed_at_checkpoint() {
        let q = JobQueue::new(1);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let h = q.submit(Priority::Batch, move |ctx| -> Result<(), JobError> {
            started_tx.send(()).ok();
            loop {
                ctx.checkpoint()?;
                std::thread::yield_now();
            }
        });
        started_rx.recv().unwrap();
        h.cancel();
        match h.join() {
            Err(JobError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn interactive_starts_before_queued_batch() {
        let q = JobQueue::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = q.submit(Priority::Batch, move |_ctx| {
            gate_rx.recv().ok();
            Ok(())
        });
        blocker.wait_started();
        let batch: Vec<_> = (0..4)
            .map(|i| q.submit(Priority::Batch, move |_ctx| Ok(i)))
            .collect();
        let interactive = q.submit(Priority::Interactive, |_ctx| Ok(99));
        gate_tx.send(()).unwrap();
        blocker.join().unwrap();
        let i_seq = {
            interactive.wait_started();
            interactive.start_index().unwrap()
        };
        assert_eq!(interactive.join().unwrap(), 99);
        for (k, h) in batch.into_iter().enumerate() {
            h.wait_started();
            let b_seq = h.start_index().unwrap();
            assert!(
                i_seq < b_seq,
                "interactive started at {i_seq}, batch {k} at {b_seq}"
            );
            assert_eq!(h.join().unwrap(), k);
        }
    }

    #[test]
    fn batch_is_fifo_within_class() {
        let q = JobQueue::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = q.submit(Priority::Batch, move |_ctx| {
            gate_rx.recv().ok();
            Ok(())
        });
        blocker.wait_started();
        let jobs: Vec<_> = (0..6)
            .map(|i| q.submit(Priority::Batch, move |_ctx| Ok(i)))
            .collect();
        gate_tx.send(()).unwrap();
        blocker.join().unwrap();
        let mut seqs = Vec::new();
        for h in jobs {
            h.wait_started();
            seqs.push(h.start_index().unwrap());
            h.join().unwrap();
        }
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "batch jobs must start in submission order");
    }

    #[test]
    fn panic_is_contained() {
        let q = JobQueue::new(1);
        let h = q.submit(Priority::Batch, |_ctx| -> Result<(), JobError> {
            panic!("kaboom");
        });
        match h.join() {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("kaboom")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The executor survives.
        let h = q.submit(Priority::Interactive, |_ctx| Ok(1));
        assert_eq!(h.join().unwrap(), 1);
    }

    #[test]
    fn shutdown_aborts_queued_jobs() {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let q = JobQueue::new(1);
        let blocker = q.submit(Priority::Batch, move |_ctx| {
            gate_rx.recv().ok();
            Ok(())
        });
        blocker.wait_started();
        let queued = q.submit(Priority::Batch, |_ctx| Ok(()));
        gate_tx.send(()).unwrap();
        drop(q); // joins the executor; queued job must be aborted, not lost
        blocker.join().unwrap();
        match queued.join() {
            Ok(()) | Err(JobError::Cancelled) => {}
            other => panic!("expected completion or Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn drop_cancels_inflight_job() {
        // The Drop audit: a job that would run forever must be wound
        // down via cancellation at its next checkpoint — drop() must not
        // wait for natural completion, and the handle must not hang.
        let q = JobQueue::new(1);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let h = q.submit(Priority::Batch, move |ctx| -> Result<(), JobError> {
            started_tx.send(()).ok();
            loop {
                ctx.checkpoint()?;
                std::thread::yield_now();
            }
        });
        started_rx.recv().unwrap();
        let dropped_at = Instant::now();
        drop(q);
        assert!(
            dropped_at.elapsed() < Duration::from_secs(10),
            "drop must not wait for natural completion"
        );
        match h.join() {
            Err(JobError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn queue_wait_deadline_expires_while_queued() {
        let q = JobQueue::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = q.submit(Priority::Batch, move |_ctx| {
            gate_rx.recv().ok();
            Ok(())
        });
        blocker.wait_started();
        let opts = JobOptions::with_deadline(Deadline::queue_wait(Duration::from_millis(5)));
        let victim = q.submit_opts(Priority::Batch, opts, |_ctx| Ok("ran"));
        std::thread::sleep(Duration::from_millis(20));
        gate_tx.send(()).unwrap();
        blocker.join().unwrap();
        match victim.join() {
            Err(JobError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(q.stats().timed_out, 1);
    }

    #[test]
    fn total_deadline_observed_at_checkpoint() {
        let q = JobQueue::new(1);
        let opts = JobOptions::with_deadline(Deadline::total(Duration::from_millis(10)));
        let h = q.submit_opts(Priority::Batch, opts, |ctx| -> Result<(), JobError> {
            loop {
                ctx.checkpoint()?;
                std::thread::yield_now();
            }
        });
        match h.join() {
            Err(JobError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(q.stats().timed_out, 1);
    }

    #[test]
    fn join_timeout_returns_handle_then_result() {
        let q = JobQueue::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let h = q.submit(Priority::Batch, move |_ctx| {
            gate_rx.recv().ok();
            Ok(123)
        });
        h.wait_started();
        let h = match h.join_timeout(Duration::from_millis(10)) {
            Err(handle) => handle,
            Ok(r) => panic!("expected timeout, got {r:?}"),
        };
        assert_eq!(h.status(), JobStatus::Running, "job unaffected by timeout");
        gate_tx.send(()).unwrap();
        assert_eq!(
            h.join_timeout(Duration::from_secs(30))
                .expect("finishes")
                .unwrap(),
            123
        );
    }

    #[test]
    fn admission_reject_when_lane_full() {
        let q = JobQueue::with_config(QueueConfig::new(1).lane_capacity(1));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = q.submit(Priority::Batch, move |_ctx| {
            gate_rx.recv().ok();
            Ok(0)
        });
        blocker.wait_started();
        let queued = q.submit(Priority::Batch, |_ctx| Ok(1));
        let rejected = q.submit(Priority::Batch, |_ctx| Ok(2));
        match rejected.join() {
            Err(JobError::Rejected) => {}
            other => panic!("expected Rejected, got {other:?}"),
        }
        // The other lane is independent: interactive still admits.
        let inter = q.submit(Priority::Interactive, |_ctx| Ok(3));
        gate_tx.send(()).unwrap();
        assert_eq!(blocker.join().unwrap(), 0);
        assert_eq!(queued.join().unwrap(), 1);
        assert_eq!(inter.join().unwrap(), 3);
        assert_eq!(q.stats().rejected, 1);
    }

    #[test]
    fn concurrent_submitters() {
        let q = Arc::new(JobQueue::new(3));
        let total: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut sum = 0u64;
                        for i in 0..25u64 {
                            let p = if i % 2 == 0 {
                                Priority::Interactive
                            } else {
                                Priority::Batch
                            };
                            let h = q.submit(p, move |_ctx| Ok(t * 1000 + i));
                            sum += h.join().unwrap();
                        }
                        sum
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let want: u64 = (0..4u64)
            .flat_map(|t| (0..25u64).map(move |i| t * 1000 + i))
            .sum();
        assert_eq!(total, want);
    }
}
