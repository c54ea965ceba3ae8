//! Chaos suite: the serving substrate under deterministic injected
//! faults (`twoview_runtime::faults`) and the failures it answers.
//!
//! The properties proved here, per the robustness contract:
//!
//! * **no hangs** — every submitted handle resolves within a generous
//!   wall-clock bound, whatever fails;
//! * **the queue drains** — after the storm, a clean job still runs;
//! * **bit-identical recovery** — any fit that succeeds (degraded cache,
//!   panicking neighbours, cancellations and expiries around it) equals
//!   the fault-free model byte for byte;
//! * **probes stay off the hot path** — each fault point is probed once
//!   per seed setup or snapshot write, never per solver iteration.
//!
//! The fault registry is process-global, so every test serialises on
//! one mutex and clears the registry before returning. Seeds come from
//! `TWOVIEW_CHAOS_SEED` (default 1); CI runs the suite under two fixed
//! seeds.

mod chaos_storm;

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use chaos_storm::{chaos_seed, JOIN_BOUND};
use twoview::data::synthetic::{self, StructureSpec, SyntheticSpec};
use twoview::prelude::*;
use twoview::runtime::faults::{self, points, FaultPlan};
use twoview::runtime::obs;

static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock_faults() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
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

/// The headline chaos property: the seeded storm of `chaos_storm` —
/// a failed warm, panicking custom jobs between concurrent fits, seeded
/// cancellations and zero queue-wait deadlines, and a one-slot lane that
/// turns a fit away. Every handle resolves, every successful fit is
/// bit-identical to the fault-free model, the queue drains clean, and
/// the engine's counters match both its handles and the registry.
#[test]
fn concurrent_fits_under_fault_plan_no_hangs_and_bit_identical() {
    let _guard = lock_faults();
    let seed = chaos_seed();
    let d = corpus(400, 11);
    let before = obs::snapshot();
    let start = Instant::now();
    let (engine, tally) = chaos_storm::run(&d, seed);
    assert!(
        start.elapsed() < JOIN_BOUND,
        "the storm must resolve well under the bound"
    );
    let stats = engine.stats();
    tally.check(&stats);
    chaos_storm::check_registry(&before, &obs::snapshot(), &stats);
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

/// Every fault point is probed once per seed setup or snapshot write,
/// never per solver iteration, so the disabled harness costs a fixed
/// handful of atomic loads per fit. With every point configured at
/// p = 0 (probes count hits but never fire):
///
/// * each free-function fit runs one seed setup: one `cache.warm_fail`
///   hit per algorithm;
/// * a cold engine build with a snapshot directory warms its seed cache
///   once and saves one snapshot: one more `cache.warm_fail` hit and one
///   hit on each `snapshot.*` point;
/// * engine SELECT and GREEDY fits at the base minsup borrow the warmed
///   cache: no hit; an engine EXACT fit sets up its incumbent's seeds
///   itself: one hit.
#[test]
fn fault_probes_hit_once_per_setup_never_per_iteration() {
    let _guard = lock_faults();
    let d = corpus(150, 3);
    let select = Algorithm::Select(SelectConfig::builder().k(1).minsup(2).build());
    let greedy = Algorithm::Greedy(GreedyConfig::builder().minsup(2).build());
    let exact = Algorithm::Exact(
        ExactConfig::builder()
            .max_nodes(5_000)
            .seed_minsup(Some(2))
            .build(),
    );
    let all = [
        points::CACHE_WARM_FAIL,
        points::SNAPSHOT_CORRUPT,
        points::SNAPSHOT_TORN,
        points::SNAPSHOT_WRITE_FAIL,
    ];
    faults::configure(
        all.iter()
            .fold(FaultPlan::new(), |plan, point| plan.point(point, 0.0, 0)),
    );
    let hits = |warm: u64, snapshot: u64| -> Vec<(String, u64, u64)> {
        all.iter()
            .map(|&point| {
                let n = if point == points::CACHE_WARM_FAIL {
                    warm
                } else {
                    snapshot
                };
                (point.to_string(), n, 0)
            })
            .collect()
    };

    let mut models = Vec::new();
    for alg in [&select, &greedy, &exact] {
        models.push(fit(&d, alg));
    }
    assert_eq!(faults::snapshot(), hits(3, 0), "free-function fits");

    let dir = std::env::temp_dir().join(format!("twoview-probe-count-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .snapshot_dir(&dir)
        .build()
        .unwrap();
    assert_eq!(faults::snapshot(), hits(4, 1), "cold engine build");

    for (alg, model) in [select, greedy, exact].into_iter().zip(&models) {
        let served = engine
            .fit(alg)
            .join_timeout(JOIN_BOUND)
            .expect("fit resolves")
            .expect("fit succeeds");
        assert_eq!(served.table, model.table);
    }
    let probes = faults::snapshot();
    faults::clear();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(probes, hits(5, 1), "engine fits");
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
