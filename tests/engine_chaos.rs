//! Chaos suite: the serving substrate under deterministic injected
//! faults (`twoview_runtime::faults`).
//!
//! The properties proved here, per the robustness contract:
//!
//! * **no hangs** — every submitted handle resolves within a generous
//!   wall-clock bound, whatever faults fire;
//! * **the queue drains** — after the storm, a clean job still runs;
//! * **bit-identical recovery** — any fit that ultimately succeeds
//!   (after retries, executor deaths, degraded caches) equals the
//!   fault-free model byte for byte;
//! * **supervision** — executors killed at dispatch are respawned and
//!   counted.
//!
//! The fault registry is process-global, so every test serialises on
//! one mutex and clears the registry before returning. Seeds come from
//! `TWOVIEW_CHAOS_SEED` (default 1); CI runs the suite under two fixed
//! seeds plus a faults-off pass.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use twoview::data::synthetic::{self, StructureSpec, SyntheticSpec};
use twoview::prelude::*;
use twoview::runtime::faults::{self, points, FaultPlan};
use twoview::runtime::JobQueue;

static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock_faults() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn chaos_seed() -> u64 {
    std::env::var("TWOVIEW_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1)
}

fn corpus(n: usize, seed: u64) -> TwoViewDataset {
    let spec = SyntheticSpec {
        name: format!("engine-chaos-{seed}"),
        n_transactions: n,
        n_left: 12,
        n_right: 10,
        density_left: 0.3,
        density_right: 0.3,
        structure: StructureSpec::strong(3),
        seed,
    };
    synthetic::generate(&spec).expect("valid spec").dataset
}

const JOIN_BOUND: Duration = Duration::from_secs(120);

/// The headline chaos property: N concurrent mixed-priority fits under
/// a seeded random `FaultPlan` — checkpoint panics, executor deaths, a
/// failed cache warm — with retries enabled. Every handle resolves,
/// every successful fit is bit-identical to the fault-free model, and
/// the queue drains clean afterwards.
#[test]
fn concurrent_fits_under_fault_plan_no_hangs_and_bit_identical() {
    let _guard = lock_faults();
    let seed = chaos_seed();
    let d = corpus(400, 11);

    // Fault-free references, computed before any fault is configured.
    faults::clear();
    let clean = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .build()
        .unwrap();
    let cands = clean.candidates().to_vec();
    assert!(!cands.is_empty());
    drop(clean);
    let select_cfgs: Vec<SelectConfig> = (1..=3)
        .map(|k| SelectConfig::builder().k(k).minsup(2).build())
        .collect();
    let greedy_cfg = GreedyConfig::builder().minsup(2).build();
    let select_refs: Vec<TranslatorModel> = select_cfgs
        .iter()
        .map(|cfg| twoview::core::select::translator_select_candidates(&d, cfg, &cands))
        .collect();
    let greedy_ref = twoview::core::greedy::translator_greedy_candidates(&d, &greedy_cfg, &cands);

    // The storm: low-probability checkpoint panics and executor deaths,
    // plus a warm that always fails (every base-minsup SELECT fit runs
    // degraded) and occasionally-failing construction mining.
    faults::configure(
        FaultPlan::new()
            .point(points::MINE_PANIC, 0.2, seed)
            .point(points::CACHE_WARM_FAIL, 1.0, seed)
            .point(points::SELECT_CHECKPOINT_PANIC, 0.01, seed.wrapping_add(1))
            .point(points::GREEDY_CHECKPOINT_PANIC, 0.01, seed.wrapping_add(2))
            .point(points::EXECUTOR_DIE, 0.02, seed.wrapping_add(3)),
    );

    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .job_executors(3)
        .retry_policy(RetryPolicy::new(8, Duration::from_millis(1)))
        .build()
        .expect("build must survive transient mine faults via retry");

    // 12 mixed-priority fits: 3 rounds of (SELECT k=1..3, GREEDY).
    let jobs: Vec<(usize, JobHandle<TranslatorModel>)> = (0..12)
        .map(|i| {
            let which = i % 4;
            let priority = if i % 2 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            let alg = if which < 3 {
                Algorithm::Select(select_cfgs[which].clone())
            } else {
                Algorithm::Greedy(greedy_cfg.clone())
            };
            (which, engine.fit_with(alg, priority))
        })
        .collect();

    let start = Instant::now();
    let mut ok = 0usize;
    let mut exhausted = 0usize;
    for (which, handle) in jobs {
        let result = handle
            .join_timeout(JOIN_BOUND)
            .unwrap_or_else(|_| panic!("handle hung past {JOIN_BOUND:?}"));
        match result {
            Ok(model) => {
                ok += 1;
                let reference = if which < 3 {
                    &select_refs[which]
                } else {
                    &greedy_ref
                };
                assert_eq!(
                    model.table, reference.table,
                    "fit {which} survived faults but differs from the clean model"
                );
                assert!((model.score.l_total - reference.score.l_total).abs() < 1e-9);
            }
            // Retries exhausted on a persistently-unlucky draw sequence:
            // an acceptable *reported* failure, never a wrong model.
            Err(JobError::Panicked(msg)) => {
                exhausted += 1;
                assert!(
                    msg.contains("injected fault"),
                    "only injected faults may fail a chaos fit: {msg}"
                );
            }
            Err(other) => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert!(
        start.elapsed() < JOIN_BOUND,
        "joins must resolve well under the bound"
    );
    assert!(ok > 0, "at least one fit must survive the storm");

    let stats = engine.stats();
    assert!(!stats.seed_cache_warm, "warm was injected to fail");
    assert!(
        stats.fits_degraded >= 1,
        "base-minsup SELECT fits must have taken the degraded path"
    );
    let fired: u64 = faults::snapshot().iter().map(|(_, _, f)| f).sum();
    assert!(fired > 0, "the plan must actually have fired");

    // Queue drains clean: faults off, one more fit, bit-identical.
    faults::clear();
    let model = engine
        .fit(Algorithm::Select(select_cfgs[0].clone()))
        .join_timeout(JOIN_BOUND)
        .expect("clean fit resolves")
        .expect("clean fit succeeds");
    assert_eq!(model.table, select_refs[0].table);
    println!(
        "chaos seed {seed}: {ok} ok, {exhausted} retry-exhausted, \
         {} retried, {} degraded, {} respawned",
        stats.jobs_retried, stats.fits_degraded, stats.executors_respawned
    );
}

/// Supervision: executors killed at dispatch (fault `executor.die`) are
/// respawned, the requeued jobs all complete, and nothing hangs.
#[test]
fn executor_death_respawns_and_jobs_complete() {
    let _guard = lock_faults();
    let seed = chaos_seed();
    faults::configure(FaultPlan::new().point(points::EXECUTOR_DIE, 0.5, seed));
    let q = JobQueue::new(2);
    let handles: Vec<_> = (0..30)
        .map(|i| q.submit(Priority::Batch, move |_ctx| Ok(i)))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let got = h
            .join_timeout(JOIN_BOUND)
            .unwrap_or_else(|_| panic!("job {i} hung"))
            .unwrap_or_else(|e| panic!("job {i} failed: {e}"));
        assert_eq!(got, i);
    }
    let stats = q.stats();
    assert!(
        stats.executors_respawned >= 1,
        "p=0.5 over 30 dispatches: at least one executor death expected, got {stats:?}"
    );
    faults::clear();
}

/// Graceful degradation: a failed seed-cache warm must not fail the
/// engine or any fit — base-minsup SELECT runs the uncached recompute
/// path and the model stays bit-identical.
#[test]
fn failed_cache_warm_degrades_without_changing_the_model() {
    let _guard = lock_faults();
    let d = corpus(300, 7);
    faults::clear();
    let clean = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .build()
        .unwrap();
    let cfg = SelectConfig::builder().k(1).minsup(2).build();
    let reference = clean.fit(Algorithm::Select(cfg.clone())).join().unwrap();
    assert!(clean.stats().seed_cache_warm);
    drop(clean);

    faults::configure(FaultPlan::new().point(points::CACHE_WARM_FAIL, 1.0, 0));
    let degraded = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .build()
        .unwrap();
    let model = degraded.fit(Algorithm::Select(cfg)).join().unwrap();
    assert_eq!(model.table, reference.table);
    assert!((model.score.l_total - reference.score.l_total).abs() < 1e-12);
    let stats = degraded.stats();
    assert!(!stats.seed_cache_warm);
    assert_eq!(stats.fits_degraded, 1);
    assert_eq!(stats.fit_mine_ms, 0.0, "degradation is not re-mining");
    faults::clear();
}

/// A failed seed setup inside the solvers themselves (no engine): SELECT,
/// GREEDY and EXACT's seed incumbent each take the uncached path, which
/// recomputes an itemset's tidset on every use, and return the models
/// they return with the tidsets cached.
#[test]
fn failed_seed_setup_takes_the_uncached_path_with_identical_models() {
    let _guard = lock_faults();
    let d = corpus(300, 5);
    faults::clear();
    let cands = twoview::mining::mine_closed_twoview(&d, &MinerConfig::builder().minsup(2).build())
        .candidates;
    let fit_all = || {
        let select = |k| {
            let cfg = SelectConfig::builder().k(k).minsup(2).build();
            twoview::core::select::translator_select_candidates(&d, &cfg, &cands)
        };
        let greedy_cfg = GreedyConfig::builder().minsup(2).build();
        let exact_cfg = ExactConfig::builder()
            .max_nodes(5_000)
            .seed_minsup(Some(2))
            .threads(2)
            .build();
        [
            select(1),
            select(25),
            twoview::core::greedy::translator_greedy_candidates(&d, &greedy_cfg, &cands),
            twoview::core::exact::translator_exact_seeded(&d, &exact_cfg, &cands),
        ]
    };
    let cached = fit_all();
    faults::configure(FaultPlan::new().point(points::CACHE_WARM_FAIL, 1.0, 0));
    let uncached = fit_all();
    let fired = faults::fired(points::CACHE_WARM_FAIL);
    faults::clear();
    assert_eq!(fired, 4, "every solver's seed setup failed its warm");
    for (a, b) in cached.iter().zip(&uncached) {
        assert!(!a.table.is_empty());
        assert_eq!(a.table, b.table);
        assert_eq!(a.score.l_total.to_bits(), b.score.l_total.to_bits());
        let gains =
            |m: &TranslatorModel| m.trace.iter().map(|s| s.gain.to_bits()).collect::<Vec<_>>();
        assert_eq!(gains(a), gains(b));
    }
}

/// Construction-time mining is retried like any transient failure: find
/// a seed whose deterministic draw sequence is fail-then-succeed and
/// require the build to recover; with retries disabled the same seed
/// must surface the injected panic as an error.
#[test]
fn transient_mine_fault_retried_during_build() {
    let _guard = lock_faults();
    let d = corpus(120, 3);
    // Probe the real draw sequence for `mine.panic` at p=0.5 per seed
    // (the harness is deterministic, so this is a pure computation).
    let seed = (0..256)
        .find(|&s| {
            faults::configure(FaultPlan::new().point(points::MINE_PANIC, 0.5, s));
            let first = faults::should_fire(points::MINE_PANIC);
            let second = faults::should_fire(points::MINE_PANIC);
            first && !second
        })
        .expect("some seed draws fire-then-pass");

    faults::configure(FaultPlan::new().point(points::MINE_PANIC, 0.5, seed));
    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .retry_policy(RetryPolicy::new(2, Duration::from_millis(1)))
        .build()
        .expect("attempt 2 must succeed");
    assert!(!engine.candidates().is_empty());
    drop(engine);

    faults::configure(FaultPlan::new().point(points::MINE_PANIC, 0.5, seed));
    let err = Engine::builder()
        .dataset(d)
        .minsup(2)
        .build()
        .expect_err("no retries: the injected mine panic must surface");
    assert!(err.to_string().contains("injected fault"), "got: {err}");
    faults::clear();
}

/// The Drop audit, end-to-end: dropping an engine with queued and
/// in-flight fits neither hangs the drop nor any outstanding handle —
/// in-flight jobs wind down via cancellation at their next checkpoint.
#[test]
fn dropping_engine_with_inflight_fits_never_hangs() {
    let _guard = lock_faults();
    faults::clear();
    let d = corpus(600, 5);
    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .job_executors(1)
        .build()
        .unwrap();
    let cands = engine.candidates().to_vec();
    let cfg = SelectConfig::builder().k(2).minsup(2).build();
    let handles: Vec<_> = (0..4)
        .map(|_| engine.fit(Algorithm::Select(cfg.clone())))
        .collect();
    handles[0].wait_started();
    let drop_started = Instant::now();
    drop(engine);
    assert!(
        drop_started.elapsed() < Duration::from_secs(30),
        "drop must cancel in-flight work, not await natural completion"
    );
    let reference = twoview::core::select::translator_select_candidates(&d, &cfg, &cands);
    for (i, h) in handles.into_iter().enumerate() {
        match h
            .join_timeout(JOIN_BOUND)
            .unwrap_or_else(|_| panic!("handle {i} hung after engine drop"))
        {
            // The running fit may have raced past its last checkpoint.
            Ok(model) => assert_eq!(model.table, reference.table),
            Err(JobError::Cancelled) => {}
            Err(other) => panic!("handle {i}: unexpected {other:?}"),
        }
    }
}
