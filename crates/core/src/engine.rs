//! `Engine` — the session-oriented serving API.
//!
//! The paper's workflow is *mine once, then induce/query many ways*: one
//! closed-candidate set feeds TRANSLATOR-{EXACT, SELECT, GREEDY}, and the
//! resulting tables are queried in both directions. The free-function API
//! re-mines per call and cannot serve concurrent queries; an [`Engine`]
//! instead **owns** the dataset, mines and caches the two-view candidate
//! substrate (plus seed tidsets) once at construction, and then serves
//! [`Engine::fit`], [`Engine::translate`], [`Engine::predict`] and
//! [`Engine::evaluate`] as **jobs**:
//!
//! * submittable concurrently from any number of threads,
//! * scheduled on a priority-aware queue ([`Priority::Interactive`] before
//!   [`Priority::Batch`], FIFO within class),
//! * cooperatively cancellable ([`JobHandle::cancel`]) with progress and
//!   timing observability on every [`JobHandle`].
//!
//! Completed jobs are **bit-identical to serial runs**: fits reuse the
//! cached candidates through the same `*_candidates` entry points the
//! serial API uses (a cancellation never yields a partial model), and the
//! data-parallel inner loops still run on the shared [`twoview_runtime`]
//! pool.
//!
//! A fit whose config cannot be served from the cache (minsup *below* the
//! mined base, a different candidate class, a tighter mining valve)
//! transparently re-mines — and that time is surfaced in
//! [`EngineStats::fit_mine_ms`], which stays exactly `0` while every fit
//! reuses the cache (the invariant `perfsuite` gates on).
//!
//! # Robustness
//!
//! Each mechanism answers a failure that can happen in service (every
//! knob on [`EngineBuilder`], every counter in [`EngineStats`]):
//!
//! * **deadlines** — [`EngineBuilder::default_deadline`] bounds every
//!   job's queue wait and total time; per-call overrides via
//!   [`Engine::fit_opts`]. Expiry yields [`JobError::DeadlineExceeded`],
//!   never a partial model.
//! * **bounded admission** — [`EngineBuilder::lane_capacity`] bounds
//!   each priority lane; a submission to a full lane completes at once
//!   with [`JobError::Rejected`], the in-process backpressure contract a
//!   429-returning front door maps onto.
//! * **panic containment** — a job whose body panics (a solver bug)
//!   resolves its handle to [`JobError::Panicked`]; it is not re-run,
//!   since the searches are deterministic and would panic again.
//! * **graceful degradation** — when the shared seed-tidset warm fails
//!   (memory budget, injected fault), base-minsup SELECT fits fall back
//!   to recomputing tidsets per run: correct and bit-identical, just
//!   slower, counted in [`EngineStats::fits_degraded`].
//! * **snapshot recovery** — see [`EngineBuilder::snapshot_dir`].
//!
//! The budget and snapshot failures are provoked on demand through the
//! deterministic [`twoview_runtime::faults`] harness (see
//! `tests/engine_chaos.rs` and `tests/engine_persist.rs`).
//!
//! ```
//! use twoview_core::engine::{Algorithm, Engine};
//! use twoview_core::select::SelectConfig;
//! use twoview_data::prelude::*;
//!
//! let vocab = Vocabulary::new(["rainy", "windy"], ["umbrella", "kite"]);
//! let data = TwoViewDataset::from_transactions(
//!     vocab,
//!     &[vec![0, 2], vec![0, 2], vec![0, 2], vec![1, 3], vec![1, 3], vec![0, 1, 2, 3]],
//! );
//! let engine = Engine::builder().dataset(data).minsup(1).build()?;
//! let model = engine
//!     .fit(Algorithm::Select(SelectConfig::builder().k(1).build()))
//!     .join()?;
//! assert!(model.compression_pct() < 100.0);
//! # Ok::<(), twoview_core::Error>(())
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use twoview_data::prelude::*;
use twoview_mining::{CandidateCache, MinerConfig, TwoViewCandidate};
use twoview_runtime::obs;
use twoview_runtime::{
    Deadline, JobCtx, JobError, JobHandle, JobOptions, JobQueue, Priority, QueueConfig,
};

use crate::error::Error;
use crate::exact::{run_exact, ExactConfig};
use crate::greedy::{run_greedy, GreedyConfig};
use crate::model::{evaluate_table, ModelScore, TranslatorModel};
use crate::persist;
use crate::predict::predict_row;
use crate::select::{run_select, SelectConfig};
use crate::table::TranslationTable;
use crate::translate;

/// The TRANSLATOR algorithm to run, with its configuration.
#[derive(Clone, Debug)]
pub enum Algorithm {
    /// TRANSLATOR-EXACT (paper Algorithm 2).
    Exact(ExactConfig),
    /// TRANSLATOR-SELECT(k) (paper Algorithm 3).
    Select(SelectConfig),
    /// TRANSLATOR-GREEDY (paper §5.4).
    Greedy(GreedyConfig),
}

impl Algorithm {
    /// The paper's recommended trade-off: SELECT(1) — near-exact
    /// compression at a fraction of the runtime (paper §6.1 discussion).
    pub fn recommended(minsup: usize) -> Algorithm {
        Algorithm::Select(SelectConfig::builder().k(1).minsup(minsup).build())
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Algorithm::Exact(_) => "T-EXACT".to_string(),
            Algorithm::Select(c) => format!("T-SELECT({})", c.k),
            Algorithm::Greedy(_) => "T-GREEDY".to_string(),
        }
    }
}

/// Fits a translation table with the chosen algorithm (one-shot; mines per
/// call). Serving paths should construct an [`Engine`] instead.
pub fn fit(data: &TwoViewDataset, algorithm: &Algorithm) -> TranslatorModel {
    match algorithm {
        Algorithm::Exact(cfg) => crate::exact::translator_exact_with(data, cfg),
        Algorithm::Select(cfg) => crate::select::translator_select(data, cfg),
        Algorithm::Greedy(cfg) => crate::greedy::translator_greedy(data, cfg),
    }
}

/// Builder for [`Engine`]; see [`Engine::builder`].
#[derive(Debug)]
pub struct EngineBuilder {
    dataset: Option<TwoViewDataset>,
    minsup: usize,
    closed_candidates: bool,
    max_candidates: usize,
    n_threads: Option<usize>,
    job_executors: usize,
    lane_capacity: Option<usize>,
    default_deadline: Deadline,
    snapshot_dir: Option<PathBuf>,
    /// Pre-validated snapshot parts installed by [`Engine::load_snapshot`]
    /// (bypasses the opportunistic `snapshot_dir` probe).
    preloaded: Option<persist::EngineSnapshotParts>,
}

impl Default for EngineBuilder {
    /// Same defaults as [`Engine::builder`] (2M-candidate valve, closed
    /// class, minsup 1, two executors) — `EngineBuilder::default()` and
    /// `Engine::builder()` are interchangeable.
    fn default() -> Self {
        EngineBuilder::new()
    }
}

impl EngineBuilder {
    fn new() -> Self {
        EngineBuilder {
            dataset: None,
            minsup: 1,
            closed_candidates: true,
            max_candidates: 2_000_000,
            n_threads: None,
            job_executors: 2,
            lane_capacity: None,
            default_deadline: Deadline::NONE,
            snapshot_dir: None,
            preloaded: None,
        }
    }

    /// The dataset the engine will own and serve (required).
    pub fn dataset(mut self, data: TwoViewDataset) -> Self {
        self.dataset = Some(data);
        self
    }

    /// Base minsup of the cached candidate set (clamped to at least 1).
    /// Fits at `minsup ≥` this reuse the cache; below it they re-mine.
    pub fn minsup(mut self, minsup: usize) -> Self {
        self.minsup = minsup.max(1);
        self
    }

    /// Cache closed candidates (the paper's class, the default) or all
    /// frequent two-view itemsets.
    pub fn closed_candidates(mut self, closed: bool) -> Self {
        self.closed_candidates = closed;
        self
    }

    /// Candidate-count mining valve.
    pub fn max_candidates(mut self, n: usize) -> Self {
        self.max_candidates = n;
        self
    }

    /// Worker threads for mining and the fits' data-parallel loops
    /// (`Some(t)` semantics; default inherits the process default).
    pub fn threads(mut self, t: usize) -> Self {
        self.n_threads = Some(t);
        self
    }

    /// Dedicated job-executor threads (default 2; clamped to at least 1).
    /// Executors only coordinate — the heavy lifting runs on the shared
    /// pool — so a handful suffices even under many concurrent jobs.
    pub fn job_executors(mut self, n: usize) -> Self {
        self.job_executors = n.max(1);
        self
    }

    /// Bound each priority lane to `capacity` queued jobs (default:
    /// unbounded). A submission to a full lane completes at once with
    /// [`JobError::Rejected`].
    pub fn lane_capacity(mut self, capacity: usize) -> Self {
        self.lane_capacity = Some(capacity.max(1));
        self
    }

    /// Deadline applied to every job submitted through the convenience
    /// methods (default: none). Override per fit with
    /// [`Engine::fit_opts`].
    pub fn default_deadline(mut self, deadline: Deadline) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Warm-start from (and persist to) `dir/engine.snap`.
    ///
    /// [`EngineBuilder::build`] first tries to load a snapshot from the
    /// directory: a valid one whose dataset identity **and** mining
    /// config (minsup, candidate class, valve) match skips construction
    /// mining entirely ([`EngineStats::build_mine_ms`] reads `0`), and
    /// the warm-started engine is bit-identical to a cold-started one.
    /// *Any* load failure — missing file, version skew, truncation,
    /// corruption, a different dataset — falls back to a normal cold
    /// build (counted in [`EngineStats::snapshots_rejected`], surfaced
    /// as an `engine.snapshot.reject` event; a missing file is just a
    /// cold start). After a cold build the freshly mined cache is
    /// written back crash-safely; a failed save never fails the build.
    pub fn snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Mines and caches the candidate substrate, warms the seed tidsets,
    /// and starts the job executors.
    ///
    /// A *warm* failure is not an error — the engine starts degraded
    /// (see [`EngineStats::seed_cache_warm`]) and fits recompute
    /// tidsets per run.
    pub fn build(mut self) -> Result<Engine, Error> {
        let data = self
            .dataset
            .take()
            .ok_or_else(|| Error::config("Engine::builder() needs a dataset"))?;
        let data = Arc::new(data);
        // Create the snapshot counters before any load attempt so the
        // engine's stats read the same per-instance cells the warm-start
        // path increments.
        let snapshots_loaded = obs::counter("engine.snapshots_loaded");
        let snapshots_rejected = obs::counter("engine.snapshots_rejected");
        let snapshot_path = self
            .snapshot_dir
            .as_ref()
            .map(|dir| dir.join(persist::ENGINE_SNAPSHOT_FILE));
        let mut loaded_cache: Option<CandidateCache> = None;
        if let Some(parts) = self.preloaded.take() {
            // Engine::load_snapshot already read and validated the file.
            snapshots_loaded.incr();
            obs::event(
                "engine.snapshot.load",
                &[
                    ("candidates", (parts.candidates.len() as u64).into()),
                    ("seeds", parts.seeds.is_some().into()),
                ],
            );
            loaded_cache = Some(persist_parts_into_cache(parts));
        } else if let Some(path) = snapshot_path.as_deref().filter(|p| p.exists()) {
            match persist::read_engine_snapshot(path, &data) {
                Ok(parts)
                    if parts.minsup == self.minsup.max(1)
                        && parts.closed == self.closed_candidates
                        && parts.mine_valve == self.max_candidates =>
                {
                    snapshots_loaded.incr();
                    obs::event(
                        "engine.snapshot.load",
                        &[
                            ("candidates", (parts.candidates.len() as u64).into()),
                            ("seeds", parts.seeds.is_some().into()),
                        ],
                    );
                    loaded_cache = Some(persist_parts_into_cache(parts));
                }
                Ok(_) => {
                    // Structurally valid, mined under a different config:
                    // serving it would break fit/cache equivalence.
                    snapshots_rejected.incr();
                    obs::event(
                        "engine.snapshot.reject",
                        &[("reason", "config_mismatch".into())],
                    );
                }
                Err(e) => {
                    snapshots_rejected.incr();
                    obs::event("engine.snapshot.reject", &[("reason", e.kind().into())]);
                }
            }
        }
        let warm_started = loaded_cache.is_some();
        let miner_cfg = miner_config(self.minsup, self.max_candidates, self.n_threads);
        // lint: allow(determinism) — wall-clock timing feeds stats/obs only, never model state
        let mine_start = Instant::now();
        let cache = match loaded_cache {
            Some(cache) => cache,
            None => {
                let mut span = obs::span("engine.build.mine");
                span.field("minsup", self.minsup as u64);
                CandidateCache::mine(&data, &miner_cfg, self.closed_candidates)
            }
        };
        // Warm the shared seed tidsets before the engine serves (lazy init
        // would otherwise race the first fits into computing them inside a
        // job). A failed warm (budget, injected fault) is the
        // degraded-but-correct path, not an error.
        let seed_cache_warm = {
            let mut span = obs::span("engine.cache.warm");
            let warm = cache.tidsets(&data).is_some();
            span.field("ok", warm);
            warm
        };
        let build_mine_ms = if warm_started {
            0.0
        } else {
            mine_start.elapsed().as_secs_f64() * 1e3
        };
        // A cold build with a snapshot directory writes the freshly mined
        // cache back so the *next* start is warm. Persistence is best
        // effort: a failed save (disk full, injected snapshot.write_fail)
        // leaves a fully serviceable engine.
        if let (Some(path), false) = (snapshot_path.as_deref(), warm_started) {
            match persist::write_engine_snapshot(path, &data, &cache, self.max_candidates) {
                Ok(()) => obs::event("engine.snapshot.save", &[("ok", true.into())]),
                Err(e) => obs::event(
                    "engine.snapshot.save",
                    &[("ok", false.into()), ("reason", e.kind().into())],
                ),
            }
        }
        Ok(Engine {
            inner: Arc::new(EngineInner {
                data,
                cache,
                mine_valve: self.max_candidates,
                n_threads: self.n_threads,
                build_mine_ms,
                seed_cache_warm,
                default_deadline: self.default_deadline,
                fit_mine_ns: obs::counter("engine.fit_mine_ns"),
                fits_completed: obs::counter("engine.fits_completed"),
                fits_degraded: obs::counter("engine.fits_degraded"),
                jobs_submitted: obs::counter("engine.jobs_submitted"),
                snapshots_loaded,
                snapshots_rejected,
            }),
            queue: JobQueue::with_config(QueueConfig {
                executors: self.job_executors,
                lane_capacity: self.lane_capacity,
            }),
        })
    }
}

/// Reassembles a [`CandidateCache`] from validated snapshot parts.
fn persist_parts_into_cache(parts: persist::EngineSnapshotParts) -> CandidateCache {
    CandidateCache::from_parts(
        parts.minsup,
        parts.closed,
        parts.truncated,
        parts.candidates,
        parts.seeds,
    )
}

fn miner_config(minsup: usize, max_candidates: usize, n_threads: Option<usize>) -> MinerConfig {
    let mut cfg = MinerConfig::builder()
        .minsup(minsup)
        .max_itemsets(max_candidates)
        .build();
    cfg.n_threads = n_threads;
    cfg
}

/// Aggregate observability of one engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineStats {
    /// Cached candidates.
    pub n_candidates: usize,
    /// The base minsup the cache was mined at.
    pub base_minsup: usize,
    /// Whether the cache holds closed candidates.
    pub closed_candidates: bool,
    /// Whether cache mining hit the candidate valve.
    pub truncated: bool,
    /// Milliseconds spent mining at construction.
    pub build_mine_ms: f64,
    /// Milliseconds spent *re*-mining inside fit jobs (configs the cache
    /// could not serve). Exactly `0.0` while every fit reuses the cache.
    pub fit_mine_ms: f64,
    /// Fit jobs completed successfully.
    pub fits_completed: u64,
    /// Jobs submitted (all kinds).
    pub jobs_submitted: u64,
    /// Whether the construction-time seed-tidset warm succeeded. `false`
    /// means the engine serves degraded (correct, slower) base-minsup
    /// SELECT fits.
    pub seed_cache_warm: bool,
    /// Always `0`: the engine does not re-run jobs. Kept because the
    /// `benchmark/` package reads it; removed at its next change.
    pub jobs_retried: u64,
    /// Fits served without the shared seed tidsets although the config
    /// was otherwise eligible (failed warm or budget pressure): the
    /// graceful-degradation counter.
    pub fits_degraded: u64,
    /// Jobs refused by a full lane ([`JobError::Rejected`]).
    pub jobs_rejected: u64,
    /// Jobs whose [`Deadline`] expired.
    pub jobs_timed_out: u64,
    /// Snapshots this engine warm-started from (0 on a cold start, 1
    /// after a successful [`EngineBuilder::snapshot_dir`] load or
    /// [`Engine::load_snapshot`]).
    pub snapshots_loaded: u64,
    /// Snapshot load attempts refused (damage, version skew, dataset or
    /// config mismatch) and recovered from by re-mining.
    pub snapshots_rejected: u64,
}

/// Cancellation/progress cadence of row-wise query jobs (translate,
/// predict).
const QUERY_CHECKPOINT_EVERY: usize = 1024;

/// What [`EngineInner::candidates_for`] hands a fit.
struct ServedCandidates<'a> {
    /// The candidate list (borrowed from the cache when servable).
    cands: std::borrow::Cow<'a, [TwoViewCandidate]>,
    /// Shared seed tidsets, when alignment allows.
    tids: Option<&'a [(Tidset, Tidset)]>,
    /// Truncation flag of whichever mining produced the list.
    truncated: bool,
    /// The config was eligible for shared tidsets but they are
    /// unavailable (failed warm / budget): the fit runs degraded.
    degraded: bool,
}

struct EngineInner {
    data: Arc<TwoViewDataset>,
    cache: CandidateCache,
    /// The mining valve the cache was mined with.
    mine_valve: usize,
    n_threads: Option<usize>,
    build_mine_ms: f64,
    /// Whether the construction-time seed-tidset warm succeeded.
    seed_cache_warm: bool,
    default_deadline: Deadline,
    /// Nanoseconds of re-mining inside fit jobs (ns so that even a
    /// sub-microsecond re-mine on a toy dataset registers as nonzero).
    ///
    /// These counters are per-engine registry cells (`engine.*` names in
    /// [`twoview_runtime::obs`]): [`Engine::stats`] reads them per
    /// instance, `obs::snapshot()` sums them process-wide — one source of
    /// truth for both views.
    fit_mine_ns: obs::Counter,
    fits_completed: obs::Counter,
    fits_degraded: obs::Counter,
    jobs_submitted: obs::Counter,
    snapshots_loaded: obs::Counter,
    snapshots_rejected: obs::Counter,
}

impl EngineInner {
    /// Candidates for a fit config: borrowed from the cache when the
    /// config is servable (same class, `minsup ≥` base, valve no tighter),
    /// otherwise freshly mined with the time charged to `fit_mine_ns`.
    /// Also returns the shared tidsets (base-minsup reuse only — a
    /// filtered list no longer aligns with the cached tidset slice) and
    /// the truncation flag of whichever mining produced the list.
    fn candidates_for(
        &self,
        minsup: usize,
        closed: bool,
        max_candidates: usize,
    ) -> ServedCandidates<'_> {
        // Valve equivalence is judged against the valve the cache was
        // mined under (`mine_valve` counts *enumerated* itemsets, like a
        // direct mine's `max_itemsets` — not the post-split candidate
        // count). Untruncated cache: the enumeration stayed below
        // `mine_valve`, so any fit valve ≥ it cannot truncate either and
        // the runs are identical. Truncated cache: only the exact mining
        // run the cache *is* can be reproduced — same valve AND same
        // minsup (a support-filtered truncated list is not what a direct
        // truncated mine at the higher minsup would enumerate; see the
        // `CandidateCache` docs) — anything else re-mines (counted),
        // keeping engine fits equivalent to direct mining for every
        // config.
        let servable = if self.cache.truncated() {
            max_candidates == self.mine_valve && minsup.max(1) == self.cache.minsup()
        } else {
            max_candidates >= self.mine_valve
        };
        if closed == self.cache.closed() && servable {
            if let Some(cands) = self.cache.at_minsup(minsup) {
                let eligible = minsup.max(1) == self.cache.minsup();
                let shared_tids = if eligible {
                    self.cache.tidsets(&self.data)
                } else {
                    None
                };
                return ServedCandidates {
                    cands,
                    // Eligible but unavailable = the degraded (recompute
                    // per run) path; the model is identical either way.
                    degraded: eligible && shared_tids.is_none(),
                    tids: shared_tids,
                    truncated: self.cache.truncated(),
                };
            }
        }
        let mcfg = miner_config(minsup, max_candidates, self.n_threads);
        // lint: allow(determinism) — wall-clock timing feeds stats/obs only, never model state
        let start = Instant::now();
        let mut span = obs::span("engine.fit.mine");
        span.field("minsup", minsup as u64);
        let fresh = CandidateCache::mine(&self.data, &mcfg, closed);
        drop(span);
        self.fit_mine_ns
            .add(start.elapsed().as_nanos().max(1) as u64);
        let truncated = fresh.truncated();
        ServedCandidates {
            cands: std::borrow::Cow::Owned(fresh.candidates().to_vec()),
            tids: None,
            truncated,
            degraded: false,
        }
    }

    fn run_fit(&self, algorithm: &Algorithm, ctx: &JobCtx) -> Result<TranslatorModel, JobError> {
        let data = &*self.data;
        // A config that did not pick a thread count inherits the engine's
        // (EngineBuilder::threads); the model is identical for any value.
        let inherit = |cfg_threads: Option<usize>| cfg_threads.or(self.n_threads);
        let model = match algorithm {
            Algorithm::Select(cfg) => {
                let mut cfg = cfg.clone();
                cfg.n_threads = inherit(cfg.n_threads);
                let served =
                    self.candidates_for(cfg.minsup, cfg.closed_candidates, cfg.max_candidates);
                if served.degraded {
                    self.fits_degraded.incr();
                    obs::event(
                        "engine.degraded",
                        &[("reason", "seed_tidsets_unavailable".into())],
                    );
                }
                let mut model =
                    run_select(data, &cfg, &served.cands, served.tids, Some(ctx), None)?;
                model.truncated |= served.truncated;
                model
            }
            Algorithm::Greedy(cfg) => {
                let mut cfg = cfg.clone();
                cfg.n_threads = inherit(cfg.n_threads);
                let served =
                    self.candidates_for(cfg.minsup, cfg.closed_candidates, cfg.max_candidates);
                let mut model = run_greedy(data, &cfg, &served.cands, served.tids, Some(ctx))?;
                model.truncated |= served.truncated;
                model
            }
            Algorithm::Exact(cfg) => {
                let mut cfg = cfg.clone();
                cfg.n_threads = inherit(cfg.n_threads);
                // Seeds never change an uncapped EXACT result (the optimum
                // dominates any seed), so a requested seed minsup *below*
                // the engine base is clamped up to the base instead of
                // re-mining — the cache keeps serving. Uncapped searches
                // return the same optimum either way; a node-capped run may
                // explore a different frontier than a free-function run
                // seeded below the base (capped frontiers already vary with
                // seeding). A non-closed cache cannot serve the closed
                // seeding contract, so that combination still re-mines.
                let seeds = match cfg.candidate_seed_minsup {
                    Some(m) => {
                        let m = if self.cache.closed() {
                            m.max(self.cache.minsup())
                        } else {
                            m
                        };
                        self.candidates_for(m, true, crate::exact::SEED_MINE_VALVE)
                            .cands
                    }
                    None => std::borrow::Cow::Owned(Vec::new()),
                };
                run_exact(data, &cfg, &seeds, Some(ctx))?
            }
        };
        self.fits_completed.incr();
        Ok(model)
    }
}

/// A long-lived serving session over one dataset. See the
/// [module docs](self) for the design; construct with [`Engine::builder`].
pub struct Engine {
    inner: Arc<EngineInner>,
    queue: JobQueue,
}

impl Engine {
    /// Starts a builder; [`EngineBuilder::dataset`] is required.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The owned dataset.
    pub fn dataset(&self) -> &TwoViewDataset {
        &self.inner.data
    }

    /// A shareable handle to the owned dataset.
    pub fn dataset_arc(&self) -> Arc<TwoViewDataset> {
        Arc::clone(&self.inner.data)
    }

    /// The cached candidate set (miner enumeration order).
    pub fn candidates(&self) -> &[TwoViewCandidate] {
        self.inner.cache.candidates()
    }

    /// Aggregate statistics (candidate cache + job + robustness
    /// counters).
    pub fn stats(&self) -> EngineStats {
        let queue = self.queue.stats();
        EngineStats {
            n_candidates: self.inner.cache.len(),
            base_minsup: self.inner.cache.minsup(),
            closed_candidates: self.inner.cache.closed(),
            truncated: self.inner.cache.truncated(),
            build_mine_ms: self.inner.build_mine_ms,
            fit_mine_ms: self.inner.fit_mine_ns.get() as f64 / 1e6,
            fits_completed: self.inner.fits_completed.get(),
            jobs_submitted: self.inner.jobs_submitted.get(),
            seed_cache_warm: self.inner.seed_cache_warm,
            jobs_retried: 0,
            fits_degraded: self.inner.fits_degraded.get(),
            jobs_rejected: queue.rejected,
            jobs_timed_out: queue.timed_out,
            snapshots_loaded: self.inner.snapshots_loaded.get(),
            snapshots_rejected: self.inner.snapshots_rejected.get(),
        }
    }

    /// Writes this engine's mined state (candidate cache, warmed seed
    /// tidsets, dataset identity) to `path` as a crash-safe snapshot —
    /// see [`crate::persist`] for the format and guarantees. Safe to
    /// call while fits are running: the cache is immutable after
    /// construction, and the write is temp-file + atomic-rename.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        persist::write_engine_snapshot(
            path.as_ref(),
            &self.inner.data,
            &self.inner.cache,
            self.inner.mine_valve,
        )
        .map_err(Error::from)
    }

    /// Builds an engine directly from a snapshot file, *strictly*: unlike
    /// the [`EngineBuilder::snapshot_dir`] warm-start (which falls back
    /// to mining), any validation failure here is surfaced as
    /// [`Error::Snapshot`]. The engine adopts the snapshot's mining
    /// config (minsup, candidate class, valve); every other knob is the
    /// builder default. The result is bit-identical to an engine built
    /// cold with that config over the same dataset.
    pub fn load_snapshot(path: impl AsRef<Path>, data: TwoViewDataset) -> Result<Engine, Error> {
        let parts = persist::read_engine_snapshot(path.as_ref(), &data)?;
        let mut builder = Engine::builder()
            .dataset(data)
            .minsup(parts.minsup)
            .closed_candidates(parts.closed)
            .max_candidates(parts.mine_valve);
        builder.preloaded = Some(parts);
        builder.build()
    }

    /// Number of dedicated job executors.
    pub fn job_executors(&self) -> usize {
        self.queue.executors()
    }

    /// The underlying job queue. Custom jobs submitted here share the
    /// engine's lanes and lane capacity — the hook a serving front door
    /// builds on.
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// Submits a fit job at [`Priority::Batch`].
    pub fn fit(&self, algorithm: Algorithm) -> JobHandle<TranslatorModel> {
        self.fit_with(algorithm, Priority::Batch)
    }

    /// Submits a fit job at the given priority (and the engine's default
    /// deadline). The completed model is bit-identical to the
    /// corresponding serial `*_candidates` run over
    /// [`Engine::candidates`]; progress ticks advance per iteration
    /// (SELECT/EXACT) or candidate block (GREEDY).
    pub fn fit_with(&self, algorithm: Algorithm, priority: Priority) -> JobHandle<TranslatorModel> {
        self.fit_opts(algorithm, priority, self.inner.default_deadline)
    }

    /// Submits a fit job with an explicit per-job [`Deadline`]
    /// (overriding the engine default). Expiry — in the queue or at a
    /// checkpoint — resolves the handle to
    /// [`JobError::DeadlineExceeded`]; like cancellation it never yields
    /// a partial model.
    pub fn fit_opts(
        &self,
        algorithm: Algorithm,
        priority: Priority,
        deadline: Deadline,
    ) -> JobHandle<TranslatorModel> {
        let inner = Arc::clone(&self.inner);
        self.inner.jobs_submitted.incr();
        self.queue
            .submit_opts(priority, JobOptions::with_deadline(deadline), move |ctx| {
                inner.run_fit(&algorithm, ctx)
            })
    }

    /// Submits a translation job at [`Priority::Interactive`]: the full
    /// `from`-view translated through `table`, one target-side row bitmap
    /// per transaction.
    pub fn translate(&self, table: TranslationTable, from: Side) -> JobHandle<Vec<Bitmap>> {
        self.translate_with(table, from, Priority::Interactive)
    }

    /// [`Engine::translate`] at an explicit priority.
    pub fn translate_with(
        &self,
        table: TranslationTable,
        from: Side,
        priority: Priority,
    ) -> JobHandle<Vec<Bitmap>> {
        let inner = Arc::clone(&self.inner);
        let opts = JobOptions::with_deadline(self.inner.default_deadline);
        self.inner.jobs_submitted.incr();
        self.queue.submit_opts(priority, opts, move |ctx| {
            let n = inner.data.n_transactions();
            let mut out = Vec::with_capacity(n);
            for t in 0..n {
                if t % QUERY_CHECKPOINT_EVERY == 0 {
                    ctx.checkpoint()?;
                    ctx.tick(1);
                }
                out.push(translate::translate_transaction(
                    &inner.data,
                    &table,
                    from,
                    t,
                ));
            }
            Ok(out)
        })
    }

    /// Submits a prediction job at [`Priority::Interactive`]: the opposite
    /// view predicted for each out-of-sample `from`-side row.
    pub fn predict(
        &self,
        table: TranslationTable,
        from: Side,
        rows: Vec<Bitmap>,
    ) -> JobHandle<Vec<Bitmap>> {
        self.predict_with(table, from, rows, Priority::Interactive)
    }

    /// [`Engine::predict`] at an explicit priority.
    pub fn predict_with(
        &self,
        table: TranslationTable,
        from: Side,
        rows: Vec<Bitmap>,
        priority: Priority,
    ) -> JobHandle<Vec<Bitmap>> {
        let inner = Arc::clone(&self.inner);
        let opts = JobOptions::with_deadline(self.inner.default_deadline);
        self.inner.jobs_submitted.incr();
        self.queue.submit_opts(priority, opts, move |ctx| {
            let mut out = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                if i % QUERY_CHECKPOINT_EVERY == 0 {
                    ctx.checkpoint()?;
                    ctx.tick(1);
                }
                out.push(predict_row(&inner.data, &table, from, row));
            }
            Ok(out)
        })
    }

    /// Submits an evaluation job at [`Priority::Interactive`]: the MDL
    /// score of an arbitrary table on the owned dataset. (Scoring is one
    /// monolithic cover-state build, so cancellation is only observed
    /// before it starts.)
    pub fn evaluate(&self, table: TranslationTable) -> JobHandle<ModelScore> {
        self.evaluate_with(table, Priority::Interactive)
    }

    /// [`Engine::evaluate`] at an explicit priority.
    pub fn evaluate_with(
        &self,
        table: TranslationTable,
        priority: Priority,
    ) -> JobHandle<ModelScore> {
        let inner = Arc::clone(&self.inner);
        let opts = JobOptions::with_deadline(self.inner.default_deadline);
        self.inner.jobs_submitted.incr();
        self.queue.submit_opts(priority, opts, move |ctx| {
            ctx.checkpoint()?;
            Ok(evaluate_table(&inner.data, &table))
        })
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n_transactions", &self.inner.data.n_transactions())
            .field("n_candidates", &self.inner.cache.len())
            .field("base_minsup", &self.inner.cache.minsup())
            .field("job_executors", &self.queue.executors())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::translator_greedy_candidates;
    use crate::select::translator_select_candidates;

    fn toy() -> TwoViewDataset {
        let vocab = Vocabulary::new(["a", "b"], ["x", "y"]);
        TwoViewDataset::from_transactions(
            vocab,
            &[
                vec![0, 2],
                vec![0, 2],
                vec![0, 2],
                vec![1, 3],
                vec![1, 3],
                vec![0, 1, 2, 3],
            ],
        )
    }

    #[test]
    fn dispatcher_matches_direct_calls() {
        let d = toy();
        let select_cfg = SelectConfig::builder().build();
        let via_enum = fit(&d, &Algorithm::Select(select_cfg.clone()));
        let direct = crate::select::translator_select(&d, &select_cfg);
        assert_eq!(via_enum.table, direct.table);

        let greedy_cfg = GreedyConfig::builder().build();
        let via_enum = fit(&d, &Algorithm::Greedy(greedy_cfg.clone()));
        let direct = crate::greedy::translator_greedy(&d, &greedy_cfg);
        assert_eq!(via_enum.table, direct.table);

        let cfg = ExactConfig::default();
        let via_enum = fit(&d, &Algorithm::Exact(cfg.clone()));
        let direct = crate::exact::translator_exact_with(&d, &cfg);
        assert_eq!(via_enum.table, direct.table);
    }

    #[test]
    fn labels() {
        assert_eq!(Algorithm::recommended(5).label(), "T-SELECT(1)");
        assert_eq!(
            Algorithm::Select(SelectConfig::builder().k(25).build()).label(),
            "T-SELECT(25)"
        );
        assert_eq!(
            Algorithm::Greedy(GreedyConfig::builder().build()).label(),
            "T-GREEDY"
        );
        assert_eq!(Algorithm::Exact(ExactConfig::default()).label(), "T-EXACT");
    }

    #[test]
    fn all_variants_compress_toy_data() {
        let d = toy();
        for alg in [
            Algorithm::Exact(ExactConfig::default()),
            Algorithm::recommended(1),
            Algorithm::Greedy(GreedyConfig::builder().build()),
        ] {
            let model = fit(&d, &alg);
            assert!(
                model.compression_pct() < 100.0,
                "{} failed to compress",
                alg.label()
            );
        }
    }

    #[test]
    fn builder_requires_dataset() {
        assert!(Engine::builder().build().is_err());
    }

    #[test]
    fn engine_fit_matches_serial_and_reuses_cache() {
        let d = toy();
        let engine = Engine::builder()
            .dataset(d.clone())
            .minsup(1)
            .build()
            .unwrap();
        let cands = engine.candidates().to_vec();
        assert!(!cands.is_empty());

        // SELECT at the base minsup: shared-tidset reuse path.
        let cfg = SelectConfig::builder().k(1).minsup(1).build();
        let model = engine.fit(Algorithm::Select(cfg.clone())).join().unwrap();
        let serial = translator_select_candidates(&d, &cfg, &cands);
        assert_eq!(model.table, serial.table);
        assert!((model.score.l_total - serial.score.l_total).abs() < 1e-9);

        // SELECT at a higher minsup: filtered-cache path.
        let cfg = SelectConfig::builder().k(2).minsup(3).build();
        let model = engine.fit(Algorithm::Select(cfg.clone())).join().unwrap();
        let serial = crate::select::translator_select(&d, &cfg);
        assert_eq!(model.table, serial.table);

        // GREEDY reuse.
        let gcfg = GreedyConfig::builder().minsup(1).build();
        let model = engine.fit(Algorithm::Greedy(gcfg.clone())).join().unwrap();
        let serial = translator_greedy_candidates(&d, &gcfg, &cands);
        assert_eq!(model.table, serial.table);

        // EXACT with cached seeds.
        let ecfg = ExactConfig::default();
        let model = engine.fit(Algorithm::Exact(ecfg.clone())).join().unwrap();
        let serial = crate::exact::translator_exact_with(&d, &ecfg);
        assert_eq!(model.table, serial.table);

        // None of the above re-mined.
        let stats = engine.stats();
        assert_eq!(stats.fit_mine_ms, 0.0);
        assert_eq!(stats.fits_completed, 4);
        assert!(stats.build_mine_ms >= 0.0);

        // A fit *below* the base minsup must still serve — by re-mining,
        // charged to fit_mine_ms.
        let engine2 = Engine::builder()
            .dataset(d.clone())
            .minsup(3)
            .build()
            .unwrap();
        // But EXACT's default seeding (minsup 1) is clamped up to the base
        // instead of re-mining: the cache keeps serving, and the uncapped
        // optimum is seed-independent.
        let model = engine2
            .fit(Algorithm::Exact(ExactConfig::default()))
            .join()
            .unwrap();
        let serial = crate::exact::translator_exact_with(&d, &ExactConfig::default());
        assert_eq!(model.table, serial.table);
        assert_eq!(engine2.stats().fit_mine_ms, 0.0);
        let cfg = SelectConfig::builder().k(1).minsup(1).build();
        let model = engine2.fit(Algorithm::Select(cfg.clone())).join().unwrap();
        let serial = crate::select::translator_select(&d, &cfg);
        assert_eq!(model.table, serial.table);
        assert!(engine2.stats().fit_mine_ms > 0.0);
    }

    #[test]
    fn engine_threads_inherited_by_fit_configs() {
        // threads(1) on the builder must confine fits whose configs leave
        // n_threads unset — and the model is identical either way.
        let d = toy();
        let engine = Engine::builder()
            .dataset(d.clone())
            .threads(1)
            .build()
            .unwrap();
        let cfg = SelectConfig::builder().k(2).build();
        let model = engine.fit(Algorithm::Select(cfg.clone())).join().unwrap();
        let serial = crate::select::translator_select(&d, &cfg);
        assert_eq!(model.table, serial.table);
    }

    #[test]
    fn engine_queries_match_free_functions() {
        let d = toy();
        let engine = Engine::builder().dataset(d.clone()).build().unwrap();
        let model = engine
            .fit(Algorithm::Select(SelectConfig::builder().build()))
            .join()
            .unwrap();
        let table = model.table;

        let translated = engine.translate(table.clone(), Side::Left).join().unwrap();
        let direct = translate::translate_view(&d, &table, Side::Left);
        assert_eq!(translated, direct);

        let rows: Vec<Bitmap> = (0..d.n_transactions())
            .map(|t| d.row(Side::Left, t).clone())
            .collect();
        let predicted = engine
            .predict(table.clone(), Side::Left, rows.clone())
            .join()
            .unwrap();
        for (p, row) in predicted.iter().zip(&rows) {
            assert_eq!(p, &predict_row(&d, &table, Side::Left, row));
        }

        let score = engine.evaluate(table.clone()).join().unwrap();
        let direct = evaluate_table(&d, &table);
        assert!((score.l_total - direct.l_total).abs() < 1e-12);
    }

    #[test]
    fn stats_report_clean_robustness_baseline() {
        let engine = Engine::builder().dataset(toy()).build().unwrap();
        engine
            .fit(Algorithm::Select(SelectConfig::builder().build()))
            .join()
            .unwrap();
        let stats = engine.stats();
        assert!(stats.seed_cache_warm, "toy warm must succeed");
        assert_eq!(stats.jobs_retried, 0);
        assert_eq!(stats.fits_degraded, 0);
        assert_eq!(stats.jobs_rejected, 0);
        assert_eq!(stats.jobs_timed_out, 0);
    }

    #[test]
    fn fit_deadline_expires_in_queue() {
        let engine = Engine::builder()
            .dataset(toy())
            .job_executors(1)
            .build()
            .unwrap();
        // Hold the only executor on a gated custom job so the victim's
        // queue-wait bound (zero) deterministically expires first.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let blocker = engine.queue().submit(Priority::Batch, move |_ctx| {
            gate_rx.recv().ok();
            Ok(())
        });
        blocker.wait_started();
        let victim = engine.fit_opts(
            Algorithm::Select(SelectConfig::builder().build()),
            Priority::Batch,
            Deadline::queue_wait(std::time::Duration::ZERO),
        );
        gate_tx.send(()).unwrap();
        blocker.join().unwrap();
        match victim.join() {
            Err(JobError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(engine.stats().jobs_timed_out, 1);
    }

    #[test]
    fn bounded_admission_rejects_via_builder() {
        let engine = Engine::builder()
            .dataset(toy())
            .job_executors(1)
            .lane_capacity(1)
            .build()
            .unwrap();
        // Hold the single executor, fill the one-slot batch lane, then
        // one more batch submission must be rejected.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let blocker = engine.queue().submit(Priority::Batch, move |_ctx| {
            gate_rx.recv().ok();
            Ok(())
        });
        blocker.wait_started();
        let queued = engine.fit(Algorithm::Select(SelectConfig::builder().build()));
        let rejected = engine.fit(Algorithm::Select(SelectConfig::builder().build()));
        match rejected.join() {
            Err(JobError::Rejected) => {}
            other => panic!("expected Rejected, got {other:?}"),
        }
        gate_tx.send(()).unwrap();
        blocker.join().unwrap();
        queued.join().unwrap();
        assert_eq!(engine.stats().jobs_rejected, 1);
    }

    #[test]
    fn cancelled_fit_returns_cancelled() {
        let d = toy();
        let engine = Engine::builder()
            .dataset(d)
            .job_executors(1)
            .build()
            .unwrap();
        // Occupy the single executor, then cancel a queued fit: it must
        // resolve to Cancelled without ever running.
        let blocker = engine.fit(Algorithm::Select(SelectConfig::builder().build()));
        let victim = engine.fit(Algorithm::Select(SelectConfig::builder().build()));
        victim.cancel();
        blocker.join().unwrap();
        match victim.join() {
            Err(JobError::Cancelled) => {}
            Ok(_) => {} // raced to completion before the cancel landed
            other => panic!("unexpected: {other:?}"),
        }
    }
}
