//! `perfsuite` — the repo's machine-readable performance trajectory.
//!
//! Times the TRANSLATOR hot paths over a small **matrix of synthetic
//! corpora** (varying `n`, vocabulary size, and density — including the
//! wide-sparse and tall-sparse cells where support ≪ n) and writes a
//! `BENCH_select.json` snapshot (at the repo root by default) so speedups
//! and regressions are comparable across PRs. Per corpus it records:
//!
//! * **candidate mining** — closed frequent two-view itemsets, serial vs
//!   the pool's parallel first-level expansion (bit-identical results);
//! * **gain refresh** — one full pass recomputing every candidate's three
//!   directional gains against both cover-state layouts: the columnar
//!   production [`CoverState`] and the row-major pre-columnar reference
//!   [`RowCoverState`];
//! * **SELECT(1)** — serial and on the persistent pool, with the run's
//!   iteration and gain-refresh counts;
//! * **GREEDY** and **EXACT** — EXACT node-capped at 1 thread (serial
//!   reference), 2 threads, and all cores through the parallel root
//!   fan-out; on the smallest corpus also an *uncapped* serial-vs-parallel
//!   run, whose result must be bit-identical;
//! * **adaptive tidsets** — the same mining / gain-refresh / SELECT(1)
//!   runs under [`TidsetMode::ForceDense`] (the pre-adaptive layout) and
//!   `ForceSparse`, recording the adaptive-vs-dense speedups and the
//!   run's **representation mix** (sparse vs dense tidset counts, actual
//!   bytes, bytes saved vs the all-dense layout);
//! * **observability** — a traced storm drill on the mid-dense corpus:
//!   per-phase span rollups (construction mining, cache warm, solver
//!   time, refresh totals), the `EngineStats`-vs-registry
//!   consistency identity, and the obs-disabled overhead gate (< 2% on
//!   mid-dense SELECT(1) vs the recent history envelope);
//! * **identity checks** — thread counts, parallel vs serial mining,
//!   layout checksums, and forced-sparse / forced-dense / adaptive model
//!   identity must all agree; the process exits non-zero (and CI fails)
//!   if any is false.
//!
//! Usage (from the repo root):
//!
//! ```text
//! cargo run --release -p twoview-bench --bin perfsuite            # full
//! cargo run --release -p twoview-bench --bin perfsuite -- --smoke # CI
//! cargo run --release -p twoview-bench --bin perfsuite -- --out p.json
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use twoview_core::engine::Algorithm;
use twoview_core::greedy::translator_greedy_candidates;
use twoview_core::select::{
    translator_select_candidates, translator_select_candidates_with_stats, SelectConfig,
    SelectStats,
};
use twoview_core::{
    translator_exact_with, CoverState, Engine, ExactConfig, GreedyConfig, RowCoverState,
    TranslatorModel,
};
use twoview_data::prelude::*;
use twoview_data::synthetic::{self, StructureSpec, SyntheticSpec};
use twoview_data::tidset;
use twoview_mining::{mine_closed_twoview, MinerConfig, TwoViewCandidate};
use twoview_runtime::faults::{self, points, FaultPlan};
use twoview_runtime::{AdmissionPolicy, Deadline, JobError, Priority, RetryPolicy};

/// One cell of the corpus matrix.
struct CorpusSpec {
    name: &'static str,
    n_full: usize,
    n_smoke: usize,
    n_left: usize,
    n_right: usize,
    density: f64,
    concepts: usize,
    /// Per-transaction concept activation probability (the paper-style
    /// generator's `occurrence`); the sparse cells lower it so planted
    /// supports stay ≪ n.
    occurrence: f64,
    /// `minsup = n / minsup_div` (clamped to ≥ 1).
    minsup_div: usize,
    /// Concept-activation burst length (`1` = the classic per-transaction
    /// generator; `> 1` plants consecutive activation blocks so item
    /// tidsets form long runs of consecutive tids).
    burst_len: usize,
    /// Run the uncapped EXACT serial-vs-parallel identity check here
    /// (affordable only where the search space is small).
    exact_uncapped_check: bool,
}

/// The matrix: small/sparse, mid/dense (the pre-matrix `perfsuite` corpus,
/// kept comparable across PRs), large/sparse, plus the two paper-style
/// **sparse** cells (wide-sparse: many items, few per row; tall-sparse:
/// many rows, low density) where supports sit far below the sparse/dense
/// threshold — a step toward the ROADMAP's 14-dataset matrix.
const CORPORA: &[CorpusSpec] = &[
    CorpusSpec {
        name: "small-sparse",
        n_full: 600,
        n_smoke: 200,
        n_left: 16,
        n_right: 12,
        density: 0.15,
        concepts: 4,
        occurrence: 0.25,
        minsup_div: 12,
        burst_len: 1,
        exact_uncapped_check: true,
    },
    CorpusSpec {
        name: "mid-dense",
        n_full: 2000,
        n_smoke: 300,
        n_left: 40,
        n_right: 30,
        density: 0.30,
        concepts: 6,
        occurrence: 0.25,
        minsup_div: 10,
        burst_len: 1,
        exact_uncapped_check: false,
    },
    CorpusSpec {
        name: "large-sparse",
        n_full: 6000,
        n_smoke: 500,
        n_left: 48,
        n_right: 36,
        density: 0.12,
        concepts: 8,
        occurrence: 0.25,
        minsup_div: 15,
        burst_len: 1,
        exact_uncapped_check: false,
    },
    CorpusSpec {
        name: "wide-sparse",
        n_full: 20000,
        n_smoke: 1500,
        n_left: 150,
        n_right: 120,
        density: 0.01,
        concepts: 10,
        occurrence: 0.02,
        minsup_div: 10000, // minsup 2: deep DFS over tiny tidsets
        burst_len: 1,
        exact_uncapped_check: false,
    },
    CorpusSpec {
        name: "tall-sparse",
        n_full: 20000,
        n_smoke: 1200,
        n_left: 48,
        n_right: 36,
        density: 0.008,
        concepts: 8,
        occurrence: 0.02,
        minsup_div: 10000, // minsup 2
        burst_len: 1,
        exact_uncapped_check: false,
    },
    // Concept activations arrive in blocks of consecutive transactions, so
    // item tidsets hold long runs of consecutive tids, the shape of sorted
    // or temporal corpora.
    CorpusSpec {
        name: "clustered-runs",
        n_full: 8000,
        n_smoke: 600,
        n_left: 32,
        n_right: 24,
        density: 0.02,
        concepts: 6,
        occurrence: 0.35,
        minsup_div: 20,
        burst_len: 48,
        exact_uncapped_check: false,
    },
];

fn generate(spec: &CorpusSpec, smoke: bool) -> TwoViewDataset {
    let n = if smoke { spec.n_smoke } else { spec.n_full };
    let mut structure = if spec.burst_len > 1 {
        StructureSpec::bursty(spec.concepts, spec.burst_len)
    } else {
        StructureSpec::strong(spec.concepts)
    };
    structure.occurrence = spec.occurrence;
    let spec = SyntheticSpec {
        name: spec.name.into(),
        n_transactions: n,
        n_left: spec.n_left,
        n_right: spec.n_right,
        density_left: spec.density,
        density_right: spec.density,
        structure,
        seed: 7,
    };
    synthetic::generate(&spec).expect("valid spec").dataset
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

/// One full gain-refresh pass through the given layout's `pair_gains`.
/// Returns the gain sum as a checksum (also keeps the loop live).
fn refresh_pass(
    cands: &[TwoViewCandidate],
    tids: &[(Tidset, Tidset)],
    pair_gains: impl Fn(&ItemSet, &ItemSet, &Tidset, &Tidset) -> [f64; 3],
) -> f64 {
    let mut sum = 0.0;
    for (c, (lt, rt)) in cands.iter().zip(tids) {
        let g = pair_gains(&c.left, &c.right, lt, rt);
        sum += g[0] + g[1] + g[2];
    }
    sum
}

fn seed_tids(data: &TwoViewDataset, cands: &[TwoViewCandidate]) -> Vec<(Tidset, Tidset)> {
    cands
        .iter()
        .map(|c| (data.support_set(&c.left), data.support_set(&c.right)))
        .collect()
}

fn models_match(a: &TranslatorModel, b: &TranslatorModel) -> bool {
    a.table == b.table && (a.score.l_total - b.score.l_total).abs() < 1e-9
}

/// Identity flags of one corpus run; all must be true.
struct Identities {
    layout_checksums_agree: bool,
    mining_threads_identical: bool,
    select_threads_identical: bool,
    exact_threads_identical: bool,
    exact_uncapped_identical: bool,
    /// Mined candidates and SELECT(1) models are bit-identical across
    /// forced-sparse, forced-dense and adaptive tidset modes, and the
    /// adaptive seed-tidset fingerprints match the forced-dense ones.
    tidset_modes_identical: bool,
}

impl Identities {
    fn all(&self) -> bool {
        self.layout_checksums_agree
            && self.mining_threads_identical
            && self.select_threads_identical
            && self.exact_threads_identical
            && self.exact_uncapped_identical
            && self.tidset_modes_identical
    }
}

/// Representation mix of one adaptive run: the dataset's item columns plus
/// the candidate seed tidsets.
#[derive(Default)]
struct TidsetMix {
    sparse: usize,
    dense: usize,
    bytes: usize,
    dense_bytes: usize,
}

impl TidsetMix {
    fn add(&mut self, t: &Tidset) {
        if t.is_sparse() {
            self.sparse += 1;
        } else {
            self.dense += 1;
        }
        self.bytes += t.heap_bytes();
        self.dense_bytes += tidset::dense_bytes(t.universe());
    }

    fn bytes_saved(&self) -> usize {
        self.dense_bytes.saturating_sub(self.bytes)
    }
}

/// Per-corpus numbers main() needs beyond the JSON blob.
struct CorpusOutcome {
    identities_ok: bool,
    select_pool_ms: f64,
    mine_serial_ms: f64,
    mix_sparse: usize,
    mix_dense: usize,
    mix_bytes_saved: usize,
}

fn run_corpus(spec: &CorpusSpec, smoke: bool, json: &mut String) -> CorpusOutcome {
    // Smoke corpora are tiny (sub-3ms SELECT runs), where scheduler noise
    // easily exceeds the 25% gate margin; more best-of reps stabilise the
    // recorded minimum at negligible cost.
    let reps = if smoke { 5 } else { 3 };
    let max_threads = twoview_runtime::configured_threads().max(2);
    tidset::set_tidset_mode(TidsetMode::Adaptive);
    let data = generate(spec, smoke);
    let n = data.n_transactions();
    let minsup = (n / spec.minsup_div).max(1);
    eprintln!(
        "perfsuite[{}]: n={n}, {}x{} items, density {:.3}, minsup {minsup}",
        spec.name, spec.n_left, spec.n_right, spec.density
    );

    // --- candidate mining: serial vs pool -------------------------------
    let mut mcfg_serial = MinerConfig::builder().minsup(minsup).build();
    mcfg_serial.max_itemsets = 2_000_000;
    mcfg_serial.n_threads = Some(1);
    let mut mcfg_par = mcfg_serial.clone();
    mcfg_par.n_threads = Some(max_threads);
    let (mine_serial_ms, mined) = time_best(reps, || mine_closed_twoview(&data, &mcfg_serial));
    let (mine_par_ms, mined_par) = time_best(reps, || mine_closed_twoview(&data, &mcfg_par));
    let mining_threads_identical = mined.candidates == mined_par.candidates;
    let cands = mined.candidates;
    eprintln!(
        "  mining: {ncand} closed candidates, serial {mine_serial_ms:.1} ms / \
         pool {mine_par_ms:.1} ms (identical: {mining_threads_identical})",
        ncand = cands.len()
    );

    // --- gain refresh: columnar vs row-major ----------------------------
    // Measured against a mid-build state: apply the first rules SELECT(1)
    // actually picks, so covered/error tables are non-trivial.
    let warm = translator_select_candidates(
        &data,
        &SelectConfig {
            max_iterations: Some(3),
            ..SelectConfig::builder().k(1).minsup(minsup).build()
        },
        &cands,
    );
    let mut col_state = CoverState::new(&data);
    let mut row_state = RowCoverState::new(&data);
    for rule in warm.table.iter() {
        col_state.apply_rule(rule.clone());
        row_state.apply_rule(rule.clone());
    }
    let tids = seed_tids(&data, &cands);
    let (refresh_columnar_ms, sum_col) = time_best(reps, || {
        refresh_pass(&cands, &tids, |l, r, lt, rt| {
            col_state.pair_gains(l, r, lt, rt)
        })
    });
    let (refresh_rows_ms, sum_rows) = time_best(reps, || {
        refresh_pass(&cands, &tids, |l, r, lt, rt| {
            row_state.pair_gains(l, r, lt, rt)
        })
    });
    let layout_checksums_agree = (sum_col - sum_rows).abs() < 1e-6 * (1.0 + sum_col.abs());
    let refresh_speedup = refresh_rows_ms / refresh_columnar_ms.max(1e-9);
    eprintln!(
        "  gain refresh: rows {refresh_rows_ms:.2} ms, columnar {refresh_columnar_ms:.2} ms \
         ({refresh_speedup:.1}x, checksums agree: {layout_checksums_agree})"
    );

    // --- representation mix of the adaptive run -------------------------
    let mut mix = TidsetMix::default();
    for item in 0..data.vocab().n_items() as ItemId {
        mix.add(data.tidset(item));
    }
    for (lt, rt) in &tids {
        mix.add(lt);
        mix.add(rt);
    }
    eprintln!(
        "  tidsets: {} sparse / {} dense, {} KiB actual vs {} KiB all-dense ({} KiB saved)",
        mix.sparse,
        mix.dense,
        mix.bytes / 1024,
        mix.dense_bytes / 1024,
        mix.bytes_saved() / 1024
    );

    // --- SELECT(1): serial vs pool --------------------------------------
    let select_cfg = |n_threads| SelectConfig {
        n_threads: Some(n_threads),
        ..SelectConfig::builder().k(1).minsup(minsup).build()
    };
    let mut select_stats = SelectStats::default();
    let (select_serial_ms, model_serial) = time_best(reps, || {
        translator_select_candidates_with_stats(&data, &select_cfg(1), &cands, &mut select_stats)
    });
    let (select_pool_ms, model_pool) = time_best(reps, || {
        translator_select_candidates(&data, &select_cfg(max_threads), &cands)
    });
    let select_threads_identical = models_match(&model_serial, &model_pool);
    // Reported, not gated: over pre-mined candidates both runs take the
    // same serial path (the thread count only reaches mining), so the two
    // timings differ by noise alone, and one noisy repetition can flip a
    // timing check.
    let select_pool_not_slower = select_pool_ms <= select_serial_ms * 1.10;
    eprintln!(
        "  SELECT(1): serial {select_serial_ms:.1} ms / pool {select_pool_ms:.1} ms ({} rules, \
         {} iterations, {} refreshes; identical: {select_threads_identical}, pool not slower: \
         {select_pool_not_slower})",
        model_serial.table.len(),
        select_stats.iterations,
        select_stats.refreshes,
    );

    // --- forced-dense / forced-sparse baselines -------------------------
    // The dataset is regenerated under each mode so its columns, the seed
    // tidsets, and every intermediate take that representation; mined
    // candidates and models must be bit-identical to the adaptive run
    // (representation is an invisible performance detail), while the
    // timing deltas are the adaptive representation's value.
    tidset::set_tidset_mode(TidsetMode::ForceDense);
    let data_dense = generate(spec, smoke);
    let (mine_dense_ms, mined_dense) =
        time_best(reps, || mine_closed_twoview(&data_dense, &mcfg_serial));
    let mut col_dense = CoverState::new(&data_dense);
    for rule in warm.table.iter() {
        col_dense.apply_rule(rule.clone());
    }
    let tids_dense = seed_tids(&data_dense, &cands);
    let (refresh_dense_ms, sum_dense) = time_best(reps, || {
        refresh_pass(&cands, &tids_dense, |l, r, lt, rt| {
            col_dense.pair_gains(l, r, lt, rt)
        })
    });
    let (select_dense_ms, model_dense) = time_best(reps, || {
        translator_select_candidates(&data_dense, &select_cfg(1), &cands)
    });
    let dense_fingerprints_match = tids.iter().zip(&tids_dense).all(|((a, b), (c, d))| {
        a.fingerprint() == c.fingerprint() && b.fingerprint() == d.fingerprint()
    });

    tidset::set_tidset_mode(TidsetMode::ForceSparse);
    let data_sparse = generate(spec, smoke);
    let (mine_sparse_ms, mined_sparse) =
        time_best(reps, || mine_closed_twoview(&data_sparse, &mcfg_serial));
    let (select_sparse_ms, model_sparse) = time_best(reps, || {
        translator_select_candidates(&data_sparse, &select_cfg(1), &cands)
    });

    tidset::set_tidset_mode(TidsetMode::Adaptive);

    let tidset_modes_identical = mined_dense.candidates == cands
        && mined_sparse.candidates == cands
        && models_match(&model_serial, &model_dense)
        && models_match(&model_serial, &model_sparse)
        && (sum_dense - sum_col).abs() < 1e-6 * (1.0 + sum_col.abs())
        && dense_fingerprints_match;

    let mine_speedup_vs_dense = mine_dense_ms / mine_serial_ms.max(1e-9);
    let refresh_speedup_vs_dense = refresh_dense_ms / refresh_columnar_ms.max(1e-9);
    let select_speedup_vs_dense = select_dense_ms / select_serial_ms.max(1e-9);
    eprintln!(
        "  tidset modes: mine dense {mine_dense_ms:.1} ms / sparse {mine_sparse_ms:.1} ms \
         (adaptive {mine_speedup_vs_dense:.2}x vs dense); refresh dense {refresh_dense_ms:.2} ms \
         ({refresh_speedup_vs_dense:.2}x); SELECT dense {select_dense_ms:.1} ms / sparse \
         {select_sparse_ms:.1} ms ({select_speedup_vs_dense:.2}x; identical: \
         {tidset_modes_identical})"
    );

    // --- GREEDY ---------------------------------------------------------
    let (greedy_ms, greedy_model) = time_best(reps, || {
        translator_greedy_candidates(
            &data,
            &GreedyConfig::builder().minsup(minsup).build(),
            &cands,
        )
    });

    // --- EXACT: capped, 1 / 2 / max threads -----------------------------
    let exact_cfg = |n_threads| ExactConfig {
        max_nodes: Some(if smoke { 20_000 } else { 200_000 }),
        max_rules: Some(3),
        candidate_seed_minsup: Some(minsup),
        n_threads: Some(n_threads),
        ..ExactConfig::default()
    };
    let (exact_1t_ms, _exact_1t) = time_best(1, || translator_exact_with(&data, &exact_cfg(1)));
    let (exact_2t_ms, exact_2t) = time_best(1, || translator_exact_with(&data, &exact_cfg(2)));
    let (exact_mt_ms, exact_mt) =
        time_best(1, || translator_exact_with(&data, &exact_cfg(max_threads)));
    // Capped parallel runs use deterministic per-subtree budgets: every
    // thread count > 1 must produce the same model. Compare 2 vs 3
    // threads explicitly — on a ≤2-core machine `max_threads` collapses
    // to 2 and a 2-vs-max comparison would be vacuous — plus 2 vs max.
    let exact_3t = translator_exact_with(&data, &exact_cfg(3));
    let exact_threads_identical =
        models_match(&exact_2t, &exact_3t) && models_match(&exact_2t, &exact_mt);
    let exact_speedup_2t = exact_1t_ms / exact_2t_ms.max(1e-9);
    eprintln!(
        "  GREEDY {greedy_ms:.1} ms ({} rules); EXACT capped: 1t {exact_1t_ms:.1} ms / \
         2t {exact_2t_ms:.1} ms / {max_threads}t {exact_mt_ms:.1} ms \
         ({exact_speedup_2t:.2}x at 2t, identical: {exact_threads_identical})",
        greedy_model.table.len(),
    );

    // --- EXACT uncapped identity (small corpus only) --------------------
    let exact_uncapped_identical = if spec.exact_uncapped_check {
        let uncapped = |n_threads| ExactConfig {
            max_nodes: None,
            max_rules: Some(2),
            candidate_seed_minsup: Some(minsup),
            n_threads: Some(n_threads),
            ..ExactConfig::default()
        };
        let serial = translator_exact_with(&data, &uncapped(1));
        let parallel = translator_exact_with(&data, &uncapped(max_threads));
        let same = models_match(&serial, &parallel);
        eprintln!("  EXACT uncapped serial-vs-parallel identical: {same}");
        same
    } else {
        true
    };

    let identities = Identities {
        layout_checksums_agree,
        mining_threads_identical,
        select_threads_identical,
        exact_threads_identical,
        exact_uncapped_identical,
        tidset_modes_identical,
    };

    write!(
        json,
        r#"    {{
      "name": "{name}",
      "n_transactions": {n},
      "n_left": {nl},
      "n_right": {nr},
      "density": {density},
      "minsup": {minsup},
      "n_candidates": {ncand},
      "timings_ms": {{
        "mine_closed_serial": {mine_serial_ms:.3},
        "mine_closed_pool": {mine_par_ms:.3},
        "mine_closed_dense": {mine_dense_ms:.3},
        "mine_closed_sparse": {mine_sparse_ms:.3},
        "gain_refresh_rows": {refresh_rows_ms:.3},
        "gain_refresh_columnar": {refresh_columnar_ms:.3},
        "gain_refresh_dense": {refresh_dense_ms:.3},
        "select1_serial": {select_serial_ms:.3},
        "select1_pool": {select_pool_ms:.3},
        "select1_dense": {select_dense_ms:.3},
        "select1_sparse": {select_sparse_ms:.3},
        "greedy": {greedy_ms:.3},
        "exact_capped_1t": {exact_1t_ms:.3},
        "exact_capped_2t": {exact_2t_ms:.3},
        "exact_capped_maxt": {exact_mt_ms:.3}
      }},
      "gain_refresh_speedup": {refresh_speedup:.3},
      "exact_speedup_2t": {exact_speedup_2t:.3},
      "select_pool_not_slower": {select_pool_not_slower},
      "select1_rules": {nrules},
      "select1_iterations": {select_iterations},
      "select1_refreshes": {select_refreshes},
      "select1_l_total": {ltotal:.6},
      "tidset": {{
        "sparse_count": {mix_sparse},
        "dense_count": {mix_dense},
        "bytes": {mix_bytes},
        "dense_bytes": {mix_dense_bytes},
        "bytes_saved": {mix_saved},
        "mine_speedup_vs_dense": {mine_speedup_vs_dense:.3},
        "refresh_speedup_vs_dense": {refresh_speedup_vs_dense:.3},
        "select_speedup_vs_dense": {select_speedup_vs_dense:.3}
      }},
      "identity": {{
        "layout_checksums_agree": {layout_checksums_agree},
        "mining_threads_identical": {mining_threads_identical},
        "select_threads_identical": {select_threads_identical},
        "exact_threads_identical": {exact_threads_identical},
        "exact_uncapped_identical": {exact_uncapped_identical},
        "tidset_modes_identical": {tidset_modes_identical}
      }}
    }}"#,
        name = spec.name,
        nl = spec.n_left,
        nr = spec.n_right,
        density = spec.density,
        ncand = cands.len(),
        nrules = model_serial.table.len(),
        ltotal = model_serial.score.l_total,
        mix_sparse = mix.sparse,
        mix_dense = mix.dense,
        mix_bytes = mix.bytes,
        mix_dense_bytes = mix.dense_bytes,
        mix_saved = mix.bytes_saved(),
        select_iterations = select_stats.iterations,
        select_refreshes = select_stats.refreshes,
    )
    .expect("write json");

    CorpusOutcome {
        identities_ok: identities.all(),
        select_pool_ms,
        mine_serial_ms,
        mix_sparse: mix.sparse,
        mix_dense: mix.dense,
        mix_bytes_saved: mix.bytes_saved(),
    }
}

/// Engine serving benchmark on the mid-dense corpus: build (mines once),
/// then two SELECT(1) fits through the job queue. The acceptance invariant
/// is `fit_mine_ms == 0` — the second fit's candidate-mining time is
/// exactly zero because both fits reuse the build-time cache — plus
/// bit-identity of the served model with the serial `*_candidates` run.
struct EngineOutcome {
    json: String,
    identity: bool,
    fit_mine_ms: f64,
}

fn run_engine_bench(smoke: bool) -> EngineOutcome {
    let spec = &CORPORA[1]; // mid-dense
    let data = generate(spec, smoke);
    let minsup = (data.n_transactions() / spec.minsup_div).max(1);

    let t0 = Instant::now();
    let engine = Engine::builder()
        .dataset(data.clone())
        .minsup(minsup)
        .build()
        .expect("engine build");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let cfg = SelectConfig::builder().k(1).minsup(minsup).build();
    let t0 = Instant::now();
    let fit1 = engine
        .fit(Algorithm::Select(cfg.clone()))
        .join()
        .expect("fit 1");
    let fit1_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let fit2 = engine
        .fit(Algorithm::Select(cfg.clone()))
        .join()
        .expect("fit 2");
    let fit2_ms = t0.elapsed().as_secs_f64() * 1e3;

    let stats = engine.stats();
    let serial = translator_select_candidates(&data, &cfg, engine.candidates());
    let identity =
        models_match(&fit1, &serial) && models_match(&fit2, &serial) && stats.fit_mine_ms == 0.0;
    eprintln!(
        "  engine[mid-dense]: build {build_ms:.1} ms ({} candidates), \
         fit1 {fit1_ms:.1} ms / fit2 {fit2_ms:.1} ms, \
         re-mining inside fits {:.3} ms (identity: {identity})",
        stats.n_candidates, stats.fit_mine_ms
    );
    let json = format!(
        r#"  "engine": {{
    "corpus": "mid-dense",
    "n_candidates": {n_candidates},
    "build_ms": {build_ms:.3},
    "fit1_ms": {fit1_ms:.3},
    "fit2_ms": {fit2_ms:.3},
    "fit_mine_ms": {fit_mine_ms:.3},
    "fit_reuses_cache_identical": {identity}
  }}"#,
        n_candidates = stats.n_candidates,
        fit_mine_ms = stats.fit_mine_ms,
    );
    EngineOutcome {
        json,
        identity,
        fit_mine_ms: stats.fit_mine_ms,
    }
}

/// Robustness drill + faults-disabled overhead, on the mid-dense corpus.
///
/// A fully deterministic scenario exercises every serving-hardening
/// counter: a fit that panics once at an injected checkpoint fault and
/// recovers via retry (`jobs_retried`), a failed seed-cache warm that
/// degrades fits to the uncached recompute path (`fits_degraded`), a
/// queue-wait deadline expiring while queued (`jobs_timed_out`), and a
/// full bounded lane turning a submission away (`jobs_rejected`). The
/// recovered model must be bit-identical to the fault-free reference.
///
/// Separately, the mid-dense SELECT(1) pool time — the fault probes are
/// compiled in always, gated behind one relaxed atomic load — is compared
/// against the `BENCH_history.jsonl` baseline (the envelope of the most
/// recent same-mode same-thread entries, which damps single-run scheduler
/// noise): the disabled-faults overhead must stay under 2%.
struct RobustnessOutcome {
    json: String,
    scenario_ok: bool,
    overhead_ok: bool,
}

fn run_robustness_bench(smoke: bool, history: &str, mode: &str, pool_ms: f64) -> RobustnessOutcome {
    let spec = &CORPORA[1]; // mid-dense
    let data = generate(spec, smoke);
    let minsup = (data.n_transactions() / spec.minsup_div).max(1);
    let cfg = SelectConfig::builder().k(1).minsup(minsup).build();

    // Fault-free reference model.
    faults::clear();
    let clean = Engine::builder()
        .dataset(data.clone())
        .minsup(minsup)
        .build()
        .expect("clean engine");
    let reference = clean
        .fit(Algorithm::Select(cfg.clone()))
        .join()
        .expect("clean fit");
    drop(clean);

    // --- retry after an injected panic + degraded cache warm ------------
    // Count the checkpoint probes one served SELECT fit performs (hits
    // are recorded even at probability 0), then pick the fault seed whose
    // deterministic draw sequence is fire-once-then-pass for that many
    // draws: attempt 1 panics at its first checkpoint, attempt 2 runs
    // clean. No luck involved — the harness draws are pure functions of
    // (seed, point, hit index).
    faults::configure(
        FaultPlan::new()
            .point(points::SELECT_CHECKPOINT_PANIC, 0.0, 0)
            .point(points::CACHE_WARM_FAIL, 1.0, 0),
    );
    let probe = Engine::builder()
        .dataset(data.clone())
        .minsup(minsup)
        .build()
        .expect("probe engine");
    probe
        .fit(Algorithm::Select(cfg.clone()))
        .join()
        .expect("probe fit");
    drop(probe);
    let checkpoints = faults::snapshot()
        .iter()
        .find(|(n, _, _)| n == points::SELECT_CHECKPOINT_PANIC)
        .map(|&(_, hits, _)| hits)
        .expect("select probe point registered");
    assert!(checkpoints > 0, "a served SELECT fit must hit checkpoints");
    let p = 1.0 / (checkpoints as f64 + 1.0);
    let seed = (0..1_000_000u64)
        .find(|&s| {
            faults::configure(FaultPlan::new().point(points::SELECT_CHECKPOINT_PANIC, p, s));
            faults::should_fire(points::SELECT_CHECKPOINT_PANIC)
                && (0..checkpoints).all(|_| !faults::should_fire(points::SELECT_CHECKPOINT_PANIC))
        })
        .expect("a fire-once-then-pass seed exists");

    faults::configure(
        FaultPlan::new()
            .point(points::SELECT_CHECKPOINT_PANIC, p, seed)
            .point(points::CACHE_WARM_FAIL, 1.0, 0),
    );
    let engine = Engine::builder()
        .dataset(data.clone())
        .minsup(minsup)
        .retry_policy(RetryPolicy::new(4, Duration::from_millis(1)))
        .build()
        .expect("faulted engine");
    let recovered = engine
        .fit(Algorithm::Select(cfg.clone()))
        .join()
        .expect("fit recovers via retry");
    let faulted = engine.stats();
    faults::clear();
    let recovered_identical = models_match(&recovered, &reference);
    drop(engine);

    // --- bounded admission + queue-wait deadline -------------------------
    // One executor held by a gated blocker, lane capacity 1: the first fit
    // (with an already-expired queue-wait deadline) fills the lane, the
    // second is turned away, and releasing the gate times the first out.
    let engine = Engine::builder()
        .dataset(data.clone())
        .minsup(minsup)
        .job_executors(1)
        .lane_capacity(1)
        .admission(AdmissionPolicy::Reject)
        .build()
        .expect("bounded engine");
    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let blocker = engine.queue().submit(Priority::Batch, move |_ctx| {
        gate_rx.recv().ok();
        Ok(())
    });
    blocker.wait_started();
    let doomed = engine.fit_opts(
        Algorithm::Select(cfg.clone()),
        Priority::Batch,
        Deadline::queue_wait(Duration::ZERO),
    );
    let turned_away = engine
        .fit_with(Algorithm::Select(cfg.clone()), Priority::Batch)
        .join()
        .expect_err("lane is full");
    gate_tx.send(()).ok();
    let timed_out = doomed.join().expect_err("queue deadline already expired");
    blocker.join().expect("blocker completes");
    let bounded = engine.stats();
    drop(engine);

    let scenario_ok = recovered_identical
        && faulted.jobs_retried >= 1
        && faulted.fits_degraded >= 1
        && !faulted.seed_cache_warm
        && matches!(turned_away, JobError::Rejected)
        && matches!(timed_out, JobError::DeadlineExceeded)
        && bounded.jobs_rejected == 1
        && bounded.jobs_timed_out == 1;
    eprintln!(
        "  robustness[mid-dense]: retried {} (recovered identical: {recovered_identical}), \
         degraded {}, rejected {}, timed out {} (scenario ok: {scenario_ok})",
        faulted.jobs_retried, faulted.fits_degraded, bounded.jobs_rejected, bounded.jobs_timed_out
    );

    // --- faults-disabled overhead on mid-dense SELECT(1) -----------------
    // `pool_ms` is run_corpus's mid-dense SELECT(1) pool measurement — the
    // same site every history baseline was recorded from, so the
    // comparison is apples-to-apples (re-timing here, at a different point
    // in the suite's execution, reads systematically different numbers).
    let baseline = recent_envelope(history, mode, "select1_pool_ms_mid_dense");
    let overhead_pct = baseline.map(|b| (pool_ms / b.max(1e-9) - 1.0) * 100.0);
    let overhead_ok = overhead_pct.is_none_or(|pct| pct < 2.0);
    match (baseline, overhead_pct) {
        (Some(b), Some(pct)) => eprintln!(
            "  robustness: faults-disabled SELECT(1) pool {pool_ms:.2} ms vs recent baseline \
             envelope {b:.2} ms ({pct:+.2}%, ok: {overhead_ok})"
        ),
        _ => eprintln!(
            "  robustness: faults-disabled SELECT(1) pool {pool_ms:.2} ms; no {mode} baseline \
             to compare"
        ),
    }

    let json = format!(
        r#"  "robustness": {{
    "corpus": "mid-dense",
    "jobs_retried": {retried},
    "fits_degraded": {degraded},
    "jobs_rejected": {rejected},
    "jobs_timed_out": {timed_out_n},
    "executors_respawned": {respawned},
    "recovered_fit_identical": {recovered_identical},
    "scenario_ok": {scenario_ok},
    "select1_pool_ms": {pool_ms:.3},
    "select1_pool_baseline_ms": {baseline_json},
    "faults_disabled_overhead_pct": {pct_json},
    "faults_disabled_overhead_ok": {overhead_ok}
  }}"#,
        retried = faulted.jobs_retried,
        degraded = faulted.fits_degraded,
        rejected = bounded.jobs_rejected,
        timed_out_n = bounded.jobs_timed_out,
        respawned = faulted.executors_respawned + bounded.executors_respawned,
        baseline_json = baseline.map_or("null".into(), |b| format!("{b:.3}")),
        pct_json = overhead_pct.map_or("null".into(), |p| format!("{p:.2}")),
    );
    RobustnessOutcome {
        json,
        scenario_ok,
        overhead_ok,
    }
}

/// The baseline for disabled-probe overhead gates: the PR-to-PR
/// comparison uses the *recent* history (the last three same-mode
/// same-thread entries; older ones predate intervening optimisations and
/// machine recalibrations). Single-run wall clocks on a shared box carry
/// single-digit scheduler noise, so the bar is the recent *envelope*: the
/// slowest of those entries plus 2%. A systematic probe cost — the
/// failure these gates guard against, e.g. a fault or trace probe
/// accidentally taking a lock on the SELECT hot path — shifts the whole
/// distribution and clears that envelope by far.
fn recent_envelope(history: &str, mode: &str, field: &str) -> Option<f64> {
    let threads = twoview_runtime::configured_threads();
    let mut baselines: Vec<f64> = history
        .lines()
        .filter(|l| {
            l.contains(&format!("\"mode\":\"{mode}\""))
                && history_field(l, "threads") == Some(threads as f64)
        })
        .filter_map(|l| history_field(l, field))
        .collect();
    if baselines.len() > 3 {
        baselines.drain(..baselines.len() - 3);
    }
    baselines.into_iter().reduce(f64::max)
}

/// A `Write` sink backed by shared memory: the trace drill drains the
/// per-thread span buffers here so the rollup can read them back.
#[derive(Clone)]
struct TraceBuf(std::sync::Arc<twoview_runtime::sync::TolerantMutex<Vec<u8>>>);

impl std::io::Write for TraceBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Observability drill, on the mid-dense corpus.
///
/// Three properties of `twoview_runtime::obs` measured in one pass:
///
/// * **one source of truth** — a small fault storm (failed warm, rare
///   checkpoint panics, retries) runs through the engine while the trace
///   records; afterwards the `EngineStats` view and the registry
///   snapshot deltas must agree *exactly* on every counter both expose
///   (`stats_views_consistent`, an identity — the run fails otherwise);
/// * **per-phase span rollups** — the traced drill's span durations
///   summed by lifecycle phase (construction mining, cache warm, SELECT
///   and GREEDY solver time) plus the refresh totals the `select.run`
///   spans carry, recorded into the snapshot for
///   PR-over-PR comparison;
/// * **disabled-path overhead** — the obs probes (always-on counter
///   cells plus the one-relaxed-load trace gate) share the fault
///   probes' measurement site: mid-dense SELECT(1) pool time vs the
///   recent history envelope must stay under 2%
///   (`obs_disabled_overhead_ok`, grep-gated in CI like the faults
///   gate).
struct ObservabilityOutcome {
    json: String,
    overhead_ok: bool,
    views_consistent: bool,
}

fn run_observability_bench(
    smoke: bool,
    history: &str,
    mode: &str,
    pool_ms: f64,
) -> ObservabilityOutcome {
    let spec = &CORPORA[1]; // mid-dense
    let data = generate(spec, smoke);
    let minsup = (data.n_transactions() / spec.minsup_div).max(1);

    // --- traced storm drill ----------------------------------------------
    let buf = TraceBuf(std::sync::Arc::new(
        twoview_runtime::sync::TolerantMutex::new(Vec::new()),
    ));
    twoview_runtime::obs::trace_to_writer(Box::new(buf.clone()));
    let before = twoview_runtime::obs::snapshot();
    faults::configure(
        FaultPlan::new()
            .point(points::CACHE_WARM_FAIL, 1.0, 0)
            .point(points::SELECT_CHECKPOINT_PANIC, 0.02, 1),
    );
    let engine = Engine::builder()
        .dataset(data)
        .minsup(minsup)
        .retry_policy(RetryPolicy::new(8, Duration::from_millis(1)))
        .build()
        .expect("obs drill engine");
    let select_cfg = SelectConfig::builder().k(1).minsup(minsup).build();
    let greedy_cfg = GreedyConfig::builder().minsup(minsup).build();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            if i < 3 {
                engine.fit(Algorithm::Select(select_cfg.clone()))
            } else {
                engine.fit(Algorithm::Greedy(greedy_cfg.clone()))
            }
        })
        .collect();
    for h in handles {
        if let Err(e) = h.join() {
            assert!(
                e.to_string().contains("injected fault"),
                "only injected faults may fail the obs drill: {e}"
            );
        }
    }
    faults::clear();

    // One source of truth: `EngineStats` is a view over the same registry
    // cells `obs::snapshot` reads, so the deltas must agree exactly.
    let stats = engine.stats();
    let after = twoview_runtime::obs::snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let views = [
        ("engine.jobs_retried", stats.jobs_retried),
        ("engine.fits_degraded", stats.fits_degraded),
        ("engine.fits_completed", stats.fits_completed),
        ("engine.jobs_submitted", stats.jobs_submitted),
        ("queue.jobs_rejected", stats.jobs_rejected),
        ("queue.jobs_shed", stats.jobs_shed),
        ("queue.jobs_timed_out", stats.jobs_timed_out),
        ("queue.executors_respawned", stats.executors_respawned),
    ];
    let views_consistent = views.iter().all(|&(name, view)| {
        let reg = delta(name);
        if reg != view {
            eprintln!("  observability: {name} registry delta {reg} != stats view {view}");
        }
        reg == view
    }) && stats.fits_degraded >= 1;
    drop(engine);
    twoview_runtime::obs::trace_off();

    // --- per-phase span rollups ------------------------------------------
    let trace = String::from_utf8(buf.0.lock().clone()).expect("utf-8 trace");
    let rollup_ms = |names: &[&str]| -> f64 {
        trace
            .lines()
            .filter(|l| {
                l.contains("\"kind\":\"span\"")
                    && names
                        .iter()
                        .any(|n| l.contains(&format!("\"name\":\"{n}\"")))
            })
            .filter_map(|l| history_field(l, "dur_us"))
            .sum::<f64>()
            / 1e3
    };
    let field_total = |span: &str, field: &str| -> u64 {
        trace
            .lines()
            .filter(|l| l.contains(&format!("\"name\":\"{span}\"")))
            .filter_map(|l| history_field(l, field))
            .sum::<f64>() as u64
    };
    let trace_spans = trace
        .lines()
        .filter(|l| l.contains("\"kind\":\"span\""))
        .count();
    let trace_events = trace
        .lines()
        .filter(|l| l.contains("\"kind\":\"event\""))
        .count();
    let mine_ms = rollup_ms(&["engine.build.mine", "engine.fit.mine"]);
    let warm_ms = rollup_ms(&["engine.cache.warm"]);
    let select_ms = rollup_ms(&["select.run"]);
    let greedy_ms = rollup_ms(&["greedy.run"]);
    let refreshes = field_total("select.run", "refreshes");
    eprintln!(
        "  observability[mid-dense]: {trace_spans} spans / {trace_events} events \
         (mine {mine_ms:.1} ms, warm {warm_ms:.1} ms, select {select_ms:.1} ms, greedy \
         {greedy_ms:.1} ms, {refreshes} refreshes); views consistent: {views_consistent}"
    );

    // --- trace-disabled overhead on mid-dense SELECT(1) ------------------
    // Same measurement site and envelope discipline as the faults gate:
    // `pool_ms` was timed with the registry compiled in and the trace
    // gate cold, so it carries whatever the disabled obs path costs.
    let baseline = recent_envelope(history, mode, "select1_pool_ms_mid_dense");
    let overhead_pct = baseline.map(|b| (pool_ms / b.max(1e-9) - 1.0) * 100.0);
    let overhead_ok = overhead_pct.is_none_or(|pct| pct < 2.0);
    match (baseline, overhead_pct) {
        (Some(b), Some(pct)) => eprintln!(
            "  observability: obs-disabled SELECT(1) pool {pool_ms:.2} ms vs recent baseline \
             envelope {b:.2} ms ({pct:+.2}%, ok: {overhead_ok})"
        ),
        _ => eprintln!(
            "  observability: obs-disabled SELECT(1) pool {pool_ms:.2} ms; no {mode} baseline \
             to compare"
        ),
    }

    let json = format!(
        r#"  "observability": {{
    "corpus": "mid-dense",
    "trace_spans": {trace_spans},
    "trace_events": {trace_events},
    "phase_rollup": {{
      "mine_ms": {mine_ms:.3},
      "warm_ms": {warm_ms:.3},
      "select_ms": {select_ms:.3},
      "greedy_ms": {greedy_ms:.3},
      "refreshes": {refreshes}
    }},
    "stats_views_consistent": {views_consistent},
    "obs_disabled_overhead_pct": {pct_json},
    "obs_disabled_overhead_ok": {overhead_ok},
    "registry": {registry}
  }}"#,
        pct_json = overhead_pct.map_or("null".into(), |p| format!("{p:.2}")),
        registry = after.to_json(),
    );
    ObservabilityOutcome {
        json,
        overhead_ok,
        views_consistent,
    }
}

/// Persistence drill, on the mid-dense corpus.
///
/// Two properties of `twoview_core::persist` measured in one pass:
///
/// * **warm vs cold start** — a cold engine build (mines, then saves a
///   snapshot) against a warm build of the same config from that
///   snapshot. The identity `snapshot_roundtrip_identical` requires the
///   warm engine to load exactly one snapshot, skip mining entirely
///   (`build_mine_ms == 0`), serve every fit from the loaded cache
///   (`fit_mine_ms == 0`), and produce a bit-identical model;
/// * **torn-write recovery** — a deterministic `snapshot.torn` fault
///   damages the save in flight; the next build must reject the
///   damaged file (counted) and recover by re-mining to the same model.
struct PersistenceOutcome {
    json: String,
    roundtrip_identical: bool,
    torn_recovery_ok: bool,
    cold_build_ms: f64,
    warm_build_ms: f64,
}

fn run_persistence_bench(smoke: bool) -> PersistenceOutcome {
    let spec = &CORPORA[1]; // mid-dense
    let data = generate(spec, smoke);
    let minsup = (data.n_transactions() / spec.minsup_div).max(1);
    let dir =
        std::env::temp_dir().join(format!("twoview-perfsuite-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    faults::clear();
    let cfg = SelectConfig::builder().k(1).minsup(minsup).build();
    let build = || {
        Engine::builder()
            .dataset(data.clone())
            .minsup(minsup)
            .snapshot_dir(&dir)
            .build()
            .expect("persistence engine")
    };

    // Cold: mine + save.
    let t0 = Instant::now();
    let cold = build();
    let cold_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cold_model = cold
        .fit(Algorithm::Select(cfg.clone()))
        .join()
        .expect("cold fit");
    let cold_cands = cold.candidates().to_vec();
    drop(cold);
    let snapshot_bytes = std::fs::metadata(dir.join(twoview_core::persist::ENGINE_SNAPSHOT_FILE))
        .map(|m| m.len())
        .unwrap_or(0);

    // Warm: load, skip mining, serve identically.
    let t0 = Instant::now();
    let warm = build();
    let warm_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_model = warm
        .fit(Algorithm::Select(cfg.clone()))
        .join()
        .expect("warm fit");
    let warm_stats = warm.stats();
    let roundtrip_identical = models_match(&warm_model, &cold_model)
        && warm.candidates() == cold_cands.as_slice()
        && warm_stats.snapshots_loaded == 1
        && warm_stats.snapshots_rejected == 0
        && warm_stats.build_mine_ms == 0.0
        && warm_stats.fit_mine_ms == 0.0;
    drop(warm);
    let warm_speedup = cold_build_ms / warm_build_ms.max(1e-9);

    // Torn-write recovery: damage the save in flight, then start over it.
    let _ = std::fs::remove_dir_all(&dir);
    faults::configure(FaultPlan::new().point(points::SNAPSHOT_TORN, 1.0, 7));
    drop(build()); // cold build whose snapshot save is torn
    faults::clear();
    let recovered = build();
    let recovered_model = recovered
        .fit(Algorithm::Select(cfg))
        .join()
        .expect("recovered fit");
    let recovered_stats = recovered.stats();
    let torn_recovery_ok = recovered_stats.snapshots_rejected == 1
        && recovered_stats.snapshots_loaded == 0
        && models_match(&recovered_model, &cold_model);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!(
        "  persistence[mid-dense]: cold build {cold_build_ms:.1} ms, warm build \
         {warm_build_ms:.1} ms ({warm_speedup:.1}x, snapshot {snapshot_kib} KiB); \
         roundtrip identical: {roundtrip_identical}, torn recovery: {torn_recovery_ok}",
        snapshot_kib = snapshot_bytes / 1024,
    );

    let json = format!(
        r#"  "persistence": {{
    "corpus": "mid-dense",
    "cold_build_ms": {cold_build_ms:.3},
    "warm_build_ms": {warm_build_ms:.3},
    "warm_speedup": {warm_speedup:.3},
    "snapshot_bytes": {snapshot_bytes},
    "snapshots_loaded": {loaded},
    "snapshots_rejected_torn": {rejected},
    "snapshot_roundtrip_identical": {roundtrip_identical},
    "torn_recovery_ok": {torn_recovery_ok}
  }}"#,
        loaded = warm_stats.snapshots_loaded,
        rejected = recovered_stats.snapshots_rejected,
    );
    PersistenceOutcome {
        json,
        roundtrip_identical,
        torn_recovery_ok,
        cold_build_ms,
        warm_build_ms,
    }
}

/// Appended to `BENCH_history.jsonl` after every run: one flat JSON object
/// per line so the regression gate (and humans with `grep`) can read it
/// without a JSON parser.
const HISTORY_PATH: &str = "BENCH_history.jsonl";

/// Reads `key` from a flat single-line JSON object written by this binary.
fn history_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().trim_matches('"').parse().ok()
}

/// One gated metric: the history field name and this run's value.
struct GateCheck {
    field: &'static str,
    label: &'static str,
    new_ms: f64,
    /// Older history entries may predate the field (it was added with the
    /// adaptive-tidset work); required metrics error when missing instead.
    required: bool,
}

/// Fails the run if any gated timing regressed more than 25% against the
/// previous history entry *of the same mode and thread count* (full-vs-full
/// or smoke-vs-smoke; cross-mode timings are not comparable, and a
/// different `threads` value means different hardware — wall-clock
/// comparisons across machines would gate on the runner, not the code;
/// recalibrate by committing a fresh entry from the new environment).
/// Gated metrics: mid-dense SELECT(1) pool time and the wide-sparse
/// adaptive mining time.
fn gate_against_history(history: &str, mode: &str, checks: &[GateCheck]) -> Result<(), String> {
    let threads = twoview_runtime::configured_threads();
    let previous = history.lines().rev().find(|l| {
        l.contains(&format!("\"mode\":\"{mode}\""))
            && history_field(l, "threads") == Some(threads as f64)
    });
    let Some(prev_line) = previous else {
        eprintln!(
            "  gate: no previous {mode} entry at {threads} thread(s) in {HISTORY_PATH}; \
             nothing to compare"
        );
        return Ok(());
    };
    for check in checks {
        let Some(prev_ms) = history_field(prev_line, check.field) else {
            if check.required {
                return Err(format!(
                    "gate: previous {mode} entry has no {} field",
                    check.field
                ));
            }
            eprintln!(
                "  gate: previous {mode} entry predates {}; nothing to compare",
                check.field
            );
            continue;
        };
        let ratio = check.new_ms / prev_ms.max(1e-9);
        eprintln!(
            "  gate: {} {:.2} ms vs previous {prev_ms:.2} ms ({ratio:.2}x)",
            check.label, check.new_ms
        );
        if ratio > 1.25 {
            return Err(format!(
                "gate: {} regressed {ratio:.2}x (> 1.25x) vs the previous {mode} entry \
                 ({:.2} ms vs {prev_ms:.2} ms)",
                check.label, check.new_ms
            ));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate = args.iter().any(|a| a == "--gate");
    // Smoke runs default to their own file so a CI-sized local run never
    // clobbers the committed full-corpus BENCH_select.json record.
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or(if smoke {
            "BENCH_smoke.json"
        } else {
            "BENCH_select.json"
        })
        .to_string();

    let mut corpora_json: Vec<String> = Vec::new();
    let mut all_identities = true;
    let mut outcomes: Vec<(&str, CorpusOutcome)> = Vec::new();
    for spec in CORPORA {
        let mut json = String::new();
        let outcome = run_corpus(spec, smoke, &mut json);
        all_identities &= outcome.identities_ok;
        outcomes.push((spec.name, outcome));
        corpora_json.push(json);
    }
    let engine = run_engine_bench(smoke);
    all_identities &= engine.identity;

    let mode = if smoke { "smoke" } else { "full" };
    let history = std::fs::read_to_string(HISTORY_PATH).unwrap_or_default();
    let mid_dense_pool_ms = outcomes
        .iter()
        .find(|(n, _)| *n == "mid-dense")
        .expect("corpus present")
        .1
        .select_pool_ms;
    let robustness = run_robustness_bench(smoke, &history, mode, mid_dense_pool_ms);
    all_identities &= robustness.scenario_ok;
    let observability = run_observability_bench(smoke, &history, mode, mid_dense_pool_ms);
    all_identities &= observability.views_consistent;
    let persistence = run_persistence_bench(smoke);
    all_identities &= persistence.roundtrip_identical && persistence.torn_recovery_ok;

    let json = format!(
        "{{\n  \"suite\": \"select\",\n  \"mode\": \"{mode}\",\n  \"threads\": {threads},\n  \
         \"corpora\": [\n{corpora}\n  ],\n{engine_json},\n{robustness_json},\n{obs_json},\n\
         {persistence_json},\n  \
         \"all_identities\": {all_identities}\n}}\n",
        threads = twoview_runtime::configured_threads(),
        corpora = corpora_json.join(",\n"),
        engine_json = engine.json,
        robustness_json = robustness.json,
        obs_json = observability.json,
        persistence_json = persistence.json,
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    eprintln!("  wrote {out_path}");

    // Gate against the existing history, and append ONLY when both the
    // gate and the identity checks pass: a regressed run must not become
    // the baseline the retry compares against (the >25% ratchet would
    // accept any regression on its second occurrence), and a broken run's
    // timings (often anomalously fast — skipped work is cheap work) must
    // not poison the baseline either.
    let by_name = |name: &str| {
        &outcomes
            .iter()
            .find(|(n, _)| *n == name)
            .expect("corpus present")
            .1
    };
    let gate_result = if gate {
        gate_against_history(
            &history,
            mode,
            &[
                GateCheck {
                    field: "select1_pool_ms_mid_dense",
                    label: "mid-dense SELECT(1) pool",
                    new_ms: by_name("mid-dense").select_pool_ms,
                    required: true,
                },
                GateCheck {
                    field: "mine_ms_wide_sparse",
                    label: "wide-sparse adaptive mining",
                    new_ms: by_name("wide-sparse").mine_serial_ms,
                    required: false,
                },
                GateCheck {
                    field: "mine_ms_clustered_runs",
                    label: "clustered-runs adaptive mining",
                    new_ms: by_name("clustered-runs").mine_serial_ms,
                    required: false,
                },
            ],
        )
    } else {
        Ok(())
    };

    if gate_result.is_ok() && all_identities {
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut line = format!(
            "{{\"ts\":{ts},\"mode\":\"{mode}\",\"threads\":{}",
            twoview_runtime::configured_threads()
        );
        let mut mix_sparse = 0usize;
        let mut mix_dense = 0usize;
        let mut mix_saved = 0usize;
        for (name, outcome) in &outcomes {
            let key = name.replace('-', "_");
            let _ = write!(
                line,
                ",\"select1_pool_ms_{key}\":{:.3}",
                outcome.select_pool_ms
            );
            mix_sparse += outcome.mix_sparse;
            mix_dense += outcome.mix_dense;
            mix_saved += outcome.mix_bytes_saved;
        }
        for name in ["wide-sparse", "tall-sparse", "clustered-runs"] {
            let _ = write!(
                line,
                ",\"mine_ms_{}\":{:.3}",
                name.replace('-', "_"),
                by_name(name).mine_serial_ms
            );
        }
        let _ = write!(
            line,
            ",\"tidsets_sparse\":{mix_sparse},\"tidsets_dense\":{mix_dense},\
             \"tidset_bytes_saved\":{mix_saved}"
        );
        let _ = write!(line, ",\"engine_fit_mine_ms\":{:.3}", engine.fit_mine_ms);
        let _ = write!(
            line,
            ",\"faults_disabled_overhead_ok\":{}",
            robustness.overhead_ok
        );
        // Whole-run registry totals: everything the suite's engines and
        // solvers recorded, so history tracks counter volume over PRs.
        let registry = twoview_runtime::obs::snapshot();
        let counter_total: u64 = registry.counters.iter().map(|(_, v)| v).sum();
        let _ = write!(
            line,
            ",\"obs_counters\":{},\"obs_counter_total\":{counter_total},\
             \"obs_fits_completed\":{},\"obs_disabled_overhead_ok\":{},\
             \"stats_views_consistent\":{}",
            registry.counters.len(),
            registry.counter("engine.fits_completed"),
            observability.overhead_ok,
            observability.views_consistent,
        );
        let _ = write!(
            line,
            ",\"persist_cold_build_ms\":{:.3},\"persist_warm_build_ms\":{:.3},\
             \"snapshot_roundtrip_identical\":{},\"snapshot_torn_recovery_ok\":{}",
            persistence.cold_build_ms,
            persistence.warm_build_ms,
            persistence.roundtrip_identical,
            persistence.torn_recovery_ok,
        );
        let _ = write!(line, ",\"all_identities\":{all_identities}}}");
        let mut history = history;
        history.push_str(&line);
        history.push('\n');
        std::fs::write(HISTORY_PATH, &history).expect("append bench history");
        eprintln!("  appended run to {HISTORY_PATH}");
    }

    if let Err(msg) = gate_result {
        eprintln!("perfsuite: {msg} (run NOT appended to {HISTORY_PATH})");
        std::process::exit(1);
    }
    if !all_identities {
        eprintln!("perfsuite: IDENTITY CHECK FAILED");
        std::process::exit(1);
    }
    // Reported (and CI grep-gated via the JSON snapshot) rather than a
    // hard process failure: the <2% bar is enforced where the snapshot is
    // consumed, keeping local full runs usable on noisy machines.
    if !robustness.overhead_ok {
        eprintln!("perfsuite: WARNING: faults-disabled overhead exceeded 2% vs history baseline");
    }
    if !observability.overhead_ok {
        eprintln!("perfsuite: WARNING: obs-disabled overhead exceeded 2% vs history baseline");
    }
}
