//! Persistence suite: crash-safe snapshots end to end.
//!
//! The properties proved here, per the persistence contract
//! (`twoview::core::persist`):
//!
//! * **round-trip identity** — a warm-started engine (loaded from
//!   `snapshot_dir`) is bit-identical to the cold-started engine that
//!   wrote the snapshot, under every tidset representation mode, with
//!   `build_mine_ms == 0` and `fit_mine_ms == 0` on the warm path;
//! * **hardened loading** — version skew, truncation at every section
//!   boundary, and arbitrary byte damage are all rejected as
//!   recoverable errors: the builder falls back to re-mining and the
//!   recovered model is bit-identical, with the rejection counted in
//!   [`EngineStats`] (`snapshots_rejected`);
//! * **torn/corrupt/failed writes** — the `snapshot.torn`,
//!   `snapshot.corrupt` and `snapshot.write_fail` fault points plant
//!   exactly the damage a crash or bit rot would, and the next start
//!   recovers without panicking, then heals the snapshot;
//! * **concurrent saves** — saving while fits are running (and while
//!   other saves race to the same path) never corrupts the file: the
//!   last atomic rename wins and loads clean.
//!
//! Tidset mode and the fault registry are process-global, so every test
//! serialises on one mutex and restores global state before returning.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use twoview::core::persist::{self, ENGINE_SNAPSHOT_FILE};
use twoview::data::synthetic::{self, StructureSpec, SyntheticSpec};
use twoview::prelude::*;
use twoview::runtime::faults::{self, points, FaultPlan};

static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock_globals() -> std::sync::MutexGuard<'static, ()> {
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
        name: format!("engine-persist-{seed}"),
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

/// Fresh scratch directory under the system temp dir; removed by
/// `Scratch::drop` (best effort).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "twoview-engine-persist-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn snap(&self) -> PathBuf {
        self.0.join(ENGINE_SNAPSHOT_FILE)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn build_with_dir(data: &TwoViewDataset, dir: &Path) -> Engine {
    Engine::builder()
        .dataset(data.clone())
        .minsup(2)
        .snapshot_dir(dir)
        .build()
        .expect("engine builds")
}

fn fit_select1(engine: &Engine) -> TranslatorModel {
    engine
        .fit(Algorithm::Select(
            SelectConfig::builder().k(1).minsup(2).build(),
        ))
        .join()
        .expect("fit completes")
}

fn assert_bit_identical(a: &TranslatorModel, b: &TranslatorModel) {
    assert_eq!(a.table, b.table);
    assert_eq!(a.score.l_total.to_bits(), b.score.l_total.to_bits());
    assert_eq!(
        a.score.l_correction_left.to_bits(),
        b.score.l_correction_left.to_bits()
    );
    assert_eq!(
        a.score.l_correction_right.to_bits(),
        b.score.l_correction_right.to_bits()
    );
    assert_eq!(a.score.correction_ones, b.score.correction_ones);
}

/// Round-trip identity under every tidset representation: the snapshot
/// stores seed tidsets repr-tagged, so a warm start under any mode
/// reproduces the cold engine exactly — candidates, seeds, model, and
/// the `fit_mine_ms == 0` cache-reuse invariant.
#[test]
fn snapshot_roundtrip_identical_across_tidset_modes() {
    let _guard = lock_globals();
    faults::clear();
    let data = corpus(400, 23);

    for (mode, tag) in [
        (TidsetMode::Adaptive, "adaptive"),
        (TidsetMode::ForceSparse, "sparse"),
        (TidsetMode::ForceDense, "dense"),
    ] {
        set_tidset_mode(mode);
        let scratch = Scratch::new(&format!("roundtrip-{tag}"));

        let cold = build_with_dir(&data, scratch.path());
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.snapshots_loaded, 0, "{tag}: first build is cold");
        assert_eq!(cold_stats.snapshots_rejected, 0);
        assert!(
            scratch.snap().exists(),
            "{tag}: cold build saved a snapshot"
        );
        let cold_model = fit_select1(&cold);
        let cold_cands = cold.candidates().to_vec();
        drop(cold);

        let warm = build_with_dir(&data, scratch.path());
        let stats = warm.stats();
        assert_eq!(stats.snapshots_loaded, 1, "{tag}: second build warm-starts");
        assert_eq!(stats.snapshots_rejected, 0);
        assert_eq!(stats.build_mine_ms, 0.0, "{tag}: warm start skips mining");
        assert!(stats.seed_cache_warm, "{tag}: snapshot seeds install warm");
        assert_eq!(warm.candidates(), cold_cands.as_slice());

        let warm_model = fit_select1(&warm);
        assert_bit_identical(&warm_model, &cold_model);
        assert_eq!(
            warm.stats().fit_mine_ms,
            0.0,
            "{tag}: warm fits reuse the loaded cache"
        );
    }
    set_tidset_mode(TidsetMode::Adaptive);
}

/// Version skew and truncation at *every* section boundary (and the
/// bytes in between) are rejected; the builder recovers by re-mining
/// and the recovered engine is bit-identical.
#[test]
fn version_skew_and_truncation_rejected_with_fallback() {
    let _guard = lock_globals();
    faults::clear();
    let data = corpus(300, 31);
    let scratch = Scratch::new("skew");

    let cold = build_with_dir(&data, scratch.path());
    let reference = fit_select1(&cold);
    drop(cold);
    let good = std::fs::read(scratch.snap()).unwrap();

    // Version skew: stamp the header with the retired version 2, which
    // stored a seed tidset pair per candidate.
    assert_eq!(persist::SNAPSHOT_VERSION, 3);
    let mut skewed = good.clone();
    skewed[8..12].copy_from_slice(&(persist::SNAPSHOT_VERSION - 1).to_le_bytes());
    std::fs::write(scratch.snap(), &skewed).unwrap();
    let err = persist::read_engine_snapshot(&scratch.snap(), &data).unwrap_err();
    assert_eq!(err.kind(), "version_skew");

    let engine = build_with_dir(&data, scratch.path());
    let stats = engine.stats();
    assert_eq!(stats.snapshots_loaded, 0);
    assert_eq!(stats.snapshots_rejected, 1, "skew is counted, not fatal");
    assert_bit_identical(&fit_select1(&engine), &reference);
    drop(engine);

    // The cold rebuild healed the file to the current version.
    let report = persist::inspect(&scratch.snap()).unwrap();
    assert!(report.intact());
    assert_eq!(report.version, Some(persist::SNAPSHOT_VERSION));
    let healed = build_with_dir(&data, scratch.path());
    assert_eq!(healed.stats().snapshots_loaded, 1, "the healed file loads");
    assert_bit_identical(&fit_select1(&healed), &reference);
    drop(healed);

    // Truncation at every section boundary, plus probes inside each
    // payload: never Ok, never a panic.
    let good = std::fs::read(scratch.snap()).unwrap();
    let mut cuts: Vec<usize> = vec![0, 8, 12, 16, good.len() - 12, good.len() - 1];
    for s in &report.sections {
        cuts.push(s.offset.saturating_sub(12)); // before the section header
        cuts.push(s.offset); // after tag+len, before payload
        cuts.push(s.offset + s.payload_len / 2); // mid-payload
        cuts.push(s.offset + s.payload_len); // before the section CRC
    }
    for cut in cuts {
        std::fs::write(scratch.snap(), &good[..cut]).unwrap();
        let err = persist::read_engine_snapshot(&scratch.snap(), &data)
            .expect_err("truncated snapshot must never load");
        assert!(
            matches!(
                err.kind(),
                "truncated" | "checksum" | "malformed" | "bad_magic"
            ),
            "cut at {cut}: unexpected rejection {err}"
        );
    }

    // One full build over a truncated file to close the loop: rejected,
    // re-mined, bit-identical, and the snapshot healed for next time.
    std::fs::write(scratch.snap(), &good[..good.len() / 2]).unwrap();
    let engine = build_with_dir(&data, scratch.path());
    assert_eq!(engine.stats().snapshots_rejected, 1);
    assert_bit_identical(&fit_select1(&engine), &reference);
    drop(engine);
    let healed = build_with_dir(&data, scratch.path());
    assert_eq!(healed.stats().snapshots_loaded, 1);
}

/// A snapshot from a *different* dataset (same shape, different
/// content) is rejected by the per-column fingerprints.
#[test]
fn snapshot_from_other_dataset_rejected() {
    let _guard = lock_globals();
    faults::clear();
    let data = corpus(300, 41);
    let other = corpus(300, 42); // same dims, different content
    let scratch = Scratch::new("identity");

    drop(build_with_dir(&other, scratch.path())); // snapshot of `other`
    let err = persist::read_engine_snapshot(&scratch.snap(), &data).unwrap_err();
    assert_eq!(err.kind(), "dataset_mismatch");

    let engine = build_with_dir(&data, scratch.path());
    let stats = engine.stats();
    assert_eq!(stats.snapshots_loaded, 0);
    assert_eq!(stats.snapshots_rejected, 1);
}

/// The chaos drill: seeded torn writes, bit corruption and write
/// failures. Every damaged start falls back to re-mining with a
/// bit-identical model, zero panics, and the following start heals.
#[test]
fn torn_and_corrupt_snapshots_recover_bit_identically() {
    let _guard = lock_globals();
    let seed = chaos_seed();
    let data = corpus(400, 51);

    // Fault-free reference, computed before any fault is configured.
    faults::clear();
    let clean = Engine::builder()
        .dataset(data.clone())
        .minsup(2)
        .build()
        .unwrap();
    let reference = fit_select1(&clean);
    drop(clean);

    for (point, label) in [
        (points::SNAPSHOT_TORN, "torn"),
        (points::SNAPSHOT_CORRUPT, "corrupt"),
    ] {
        let scratch = Scratch::new(&format!("chaos-{label}"));

        // Cold build whose snapshot save is damaged in flight.
        faults::configure(FaultPlan::new().point(point, 1.0, seed));
        let engine = build_with_dir(&data, scratch.path());
        faults::clear();
        assert_bit_identical(&fit_select1(&engine), &reference);
        drop(engine);
        assert!(
            scratch.snap().exists(),
            "{label}: the damaged file still lands at the final path"
        );
        assert!(
            persist::read_engine_snapshot(&scratch.snap(), &data).is_err(),
            "{label}: the damaged snapshot must not load"
        );

        // Next start: rejected, re-mined, bit-identical — and the cold
        // rebuild heals the snapshot.
        let recovered = build_with_dir(&data, scratch.path());
        let stats = recovered.stats();
        assert_eq!(stats.snapshots_loaded, 0, "{label}");
        assert_eq!(stats.snapshots_rejected, 1, "{label}");
        assert_bit_identical(&fit_select1(&recovered), &reference);
        drop(recovered);

        // Third start: warm from the healed snapshot.
        let warm = build_with_dir(&data, scratch.path());
        assert_eq!(warm.stats().snapshots_loaded, 1, "{label}: healed");
        assert_eq!(warm.stats().build_mine_ms, 0.0, "{label}");
        assert_bit_identical(&fit_select1(&warm), &reference);
    }

    // write_fail: the save errors out, the build does not; nothing lands
    // on disk and the engine serves normally.
    let scratch = Scratch::new("chaos-write-fail");
    faults::configure(FaultPlan::new().point(points::SNAPSHOT_WRITE_FAIL, 1.0, seed));
    let engine = build_with_dir(&data, scratch.path());
    faults::clear();
    assert!(!scratch.snap().exists(), "failed save leaves no file");
    assert_bit_identical(&fit_select1(&engine), &reference);
    let err = {
        faults::configure(FaultPlan::new().point(points::SNAPSHOT_WRITE_FAIL, 1.0, seed));
        let e = engine.save_snapshot(scratch.snap()).unwrap_err();
        faults::clear();
        e
    };
    assert!(
        matches!(e_kind(&err), "io"),
        "explicit save surfaces the error"
    );
}

fn e_kind(err: &twoview::Error) -> &'static str {
    match err {
        twoview::Error::Snapshot(s) => s.kind(),
        _ => "not-a-snapshot-error",
    }
}

/// `Engine::load_snapshot` is the strict path: a valid file yields a
/// serving engine with the stored config; any failure surfaces as
/// `Error::Snapshot` instead of silently re-mining.
#[test]
fn explicit_load_snapshot_is_strict() {
    let _guard = lock_globals();
    faults::clear();
    let data = corpus(300, 61);
    let scratch = Scratch::new("strict");

    let cold = build_with_dir(&data, scratch.path());
    let reference = fit_select1(&cold);
    let cands = cold.candidates().to_vec();
    drop(cold);

    let engine = Engine::load_snapshot(scratch.snap(), data.clone()).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.snapshots_loaded, 1);
    assert_eq!(stats.base_minsup, 2);
    assert_eq!(stats.build_mine_ms, 0.0);
    assert_eq!(engine.candidates(), cands.as_slice());
    assert_bit_identical(&fit_select1(&engine), &reference);
    drop(engine);

    // Strictness: a damaged file is an error, not a fallback.
    let mut bytes = std::fs::read(scratch.snap()).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(scratch.snap(), &bytes).unwrap();
    let err = Engine::load_snapshot(scratch.snap(), data.clone()).unwrap_err();
    assert!(
        matches!(err, twoview::Error::Snapshot(_)),
        "strict load surfaces SnapshotError, got {err}"
    );
}

/// Saving while fits are running — and while other saves race to the
/// same path — never corrupts the snapshot: writes are atomic renames,
/// so the final file is always one complete save and warm-starts
/// bit-identically.
#[test]
fn concurrent_save_while_fitting_is_safe() {
    let _guard = lock_globals();
    faults::clear();
    let data = corpus(400, 71);
    let scratch = Scratch::new("concurrent");

    let engine = std::sync::Arc::new(build_with_dir(&data, scratch.path()));
    let reference = fit_select1(&engine);

    let snap = scratch.snap();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let engine = std::sync::Arc::clone(&engine);
            let snap = snap.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    engine.save_snapshot(&snap).unwrap();
                }
            });
        }
        for _ in 0..2 {
            let engine = std::sync::Arc::clone(&engine);
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..3 {
                    let model = engine
                        .fit(Algorithm::Select(
                            SelectConfig::builder().k(1).minsup(2).build(),
                        ))
                        .join()
                        .expect("fit under concurrent saves");
                    assert_eq!(model.table, reference.table);
                }
            });
        }
    });

    // No half-written file can ever be observed: the survivor loads
    // clean and warm-starts bit-identically.
    let report = persist::inspect(&scratch.snap()).unwrap();
    assert!(report.intact(), "racing saves leave an intact snapshot");
    drop(engine);
    let warm = build_with_dir(&data, scratch.path());
    assert_eq!(warm.stats().snapshots_loaded, 1);
    assert_bit_identical(&fit_select1(&warm), &reference);

    // The unique-temp-name discipline leaves no stragglers behind.
    let leftovers: Vec<_> = std::fs::read_dir(scratch.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != ENGINE_SNAPSHOT_FILE)
        .collect();
    assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
}

/// Timing of the spec's headline claim: warm start must be dramatically
/// cheaper than cold start on a corpus where mining is nontrivial.
/// (perfsuite gates the real numbers; this is the functional floor.)
#[test]
fn warm_start_skips_mining_entirely() {
    let _guard = lock_globals();
    faults::clear();
    let data = corpus(600, 81);
    let scratch = Scratch::new("warm-timing");

    let cold = build_with_dir(&data, scratch.path());
    let cold_ms = cold.stats().build_mine_ms;
    assert!(cold_ms > 0.0, "cold build mines");
    drop(cold);

    let warm = build_with_dir(&data, scratch.path());
    assert_eq!(warm.stats().build_mine_ms, 0.0, "warm build skips mining");
    assert_eq!(warm.stats().snapshots_loaded, 1);
}
