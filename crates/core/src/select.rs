//! TRANSLATOR-SELECT(k) (paper Algorithm 3).
//!
//! Instead of searching the full pattern space every iteration, SELECT
//! scores a *fixed* candidate set — closed frequent two-view itemsets — and
//! repeatedly adds the top-k rules (three candidate rules per itemset, one
//! per direction). Rules whose itemsets overlap a rule already added in the
//! same iteration are discarded, because their gain may have decreased.
//!
//! Every candidate's gains come from one exact gain table (`gains.rs`),
//! derived once against the empty model and then moved, after each round,
//! only by the cells the round's rules changed. It keeps one count per
//! distinct (antecedent itemset, consequent item) pair, shared by every
//! candidate with that antecedent. The gains are bit-identical to
//! recomputing [`crate::cover::CoverState::pair_gains`] from scratch every
//! round, so the model is identical for any thread count, and no pruning
//! bound rations their upkeep: once gains are maintained, bounding a
//! candidate costs as much as the delta update it would skip.
//!
//! Each round's top-k scan is exact too. It streams the positive entries
//! through a buffer of 2k, keeps the best k whenever the buffer fills, and
//! from then on passes over any candidate whose gains cannot beat the
//! current k-th (a length-free upper bound, `GainTable::rule_gains`).
//! Against collecting every positive entry and then selecting the top k
//! (the loop this replaced), it cut solver time (SELECT(1), SELECT(25) and
//! capped EXACT, sum of per-cell best times, benchmark seeds 2 and 3) by
//! 11–12% on sparse-cold and 12–17% on paper-cold.

use twoview_data::prelude::*;
use twoview_mining::{mine_closed_twoview, mine_frequent_twoview, MinerConfig, TwoViewCandidate};
use twoview_runtime::obs;
use twoview_runtime::{JobCtx, JobError};

/// Process-wide registry cells for SELECT internals (`select.*` names):
/// each run folds its per-run counters in once at the end, so the hot
/// refresh loop touches plain locals and [`SelectStats`] stays the
/// per-run view of exactly the same numbers.
struct SelectMetrics {
    runs: obs::Counter,
    iterations: obs::Counter,
    refreshes: obs::Counter,
}

fn select_metrics() -> &'static SelectMetrics {
    static METRICS: std::sync::OnceLock<SelectMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SelectMetrics {
        runs: obs::counter("select.runs"),
        iterations: obs::counter("select.iterations"),
        refreshes: obs::counter("select.refreshes"),
    })
}

use crate::gains::{Live, Warm};
use crate::model::{score_of, TraceStep, TranslatorModel};
use crate::rule::{Direction, TranslationRule};

/// Configuration for TRANSLATOR-SELECT.
#[derive(Clone, Debug)]
pub struct SelectConfig {
    /// Number of rules selected per iteration (`k` in the paper; `k = 1`
    /// adds the single best candidate rule each round).
    pub k: usize,
    /// Minimum support for candidate mining.
    pub minsup: usize,
    /// Mine closed candidates (the paper's choice) or all frequent ones
    /// (ablation; larger candidate sets, marginally better compression).
    pub closed_candidates: bool,
    /// Candidate-count safety valve.
    pub max_candidates: usize,
    /// Worker threads for candidate mining. `None` = the process default
    /// ([`twoview_runtime::configured_threads`]: `TWOVIEW_RUNTIME_THREADS`
    /// or one per available core); `Some(1)` = single-threaded. The seed
    /// setup and the gain table run on the calling thread (`gains.rs`
    /// records the timing that keeps them serial). The model is identical
    /// for any value.
    pub n_threads: Option<usize>,
    /// Iteration safety valve (`None` = run to convergence).
    pub max_iterations: Option<usize>,
}

impl SelectConfig {
    /// Fluent builder with paper-default settings: `SELECT(1)` at
    /// `minsup = 1` over closed candidates.
    pub fn builder() -> SelectConfigBuilder {
        SelectConfigBuilder {
            cfg: SelectConfig {
                k: 1,
                minsup: 1,
                closed_candidates: true,
                max_candidates: 2_000_000,
                n_threads: None,
                max_iterations: None,
            },
        }
    }
}

/// Fluent builder for [`SelectConfig`]; see [`SelectConfig::builder`].
#[derive(Clone, Debug)]
pub struct SelectConfigBuilder {
    cfg: SelectConfig,
}

impl SelectConfigBuilder {
    /// Rules selected per iteration (clamped to at least 1).
    pub fn k(mut self, k: usize) -> Self {
        self.cfg.k = k.max(1);
        self
    }

    /// Minimum support for candidate mining (clamped to at least 1).
    pub fn minsup(mut self, minsup: usize) -> Self {
        self.cfg.minsup = minsup.max(1);
        self
    }

    /// Closed candidates (the paper's choice) vs all frequent itemsets.
    pub fn closed_candidates(mut self, closed: bool) -> Self {
        self.cfg.closed_candidates = closed;
        self
    }

    /// Candidate-count safety valve.
    pub fn max_candidates(mut self, n: usize) -> Self {
        self.cfg.max_candidates = n;
        self
    }

    /// Worker threads (`Some(t)` semantics; see
    /// [`SelectConfig::n_threads`]).
    pub fn threads(mut self, t: usize) -> Self {
        self.cfg.n_threads = Some(t);
        self
    }

    /// Inherit the process-default thread count (the default).
    pub fn default_threads(mut self) -> Self {
        self.cfg.n_threads = None;
        self
    }

    /// Iteration safety valve.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.cfg.max_iterations = Some(n);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SelectConfig {
        self.cfg
    }
}

/// Counters reported by one SELECT run (perfsuite / diagnostics).
#[derive(Clone, Debug, Default)]
pub struct SelectStats {
    /// Candidate gains derived: every live candidate once when the gain
    /// table is built, then each candidate whose gains a round's cells
    /// moved.
    pub refreshes: usize,
    /// Iterations of the outer selection loop.
    pub iterations: usize,
}

/// One candidate rule of a round: gain, live candidate, direction.
type Entry = (f64, usize, Direction);

/// Runs TRANSLATOR-SELECT(k): mines candidates, then fits.
pub fn translator_select(data: &TwoViewDataset, cfg: &SelectConfig) -> TranslatorModel {
    let mut miner_cfg = MinerConfig::builder().minsup(cfg.minsup).build();
    miner_cfg.max_itemsets = cfg.max_candidates;
    miner_cfg.n_threads = cfg.n_threads;
    let mined = if cfg.closed_candidates {
        mine_closed_twoview(data, &miner_cfg)
    } else {
        mine_frequent_twoview(data, &miner_cfg)
    };
    let mut model = translator_select_candidates(data, cfg, &mined.candidates);
    model.truncated |= mined.truncated;
    model
}

/// Runs SELECT(k) over a pre-mined candidate set (benchmarks reuse mined
/// candidates across configurations).
pub fn translator_select_candidates(
    data: &TwoViewDataset,
    cfg: &SelectConfig,
    candidates: &[TwoViewCandidate],
) -> TranslatorModel {
    match run_select(data, cfg, candidates, Warm::default(), None, None) {
        Ok(model) => model,
        // Without a job context there is no cancellation source.
        Err(_) => unreachable!("uncancellable run cannot be cancelled"),
    }
}

/// [`translator_select_candidates`] with run counters reported through
/// `stats`.
pub fn translator_select_candidates_with_stats(
    data: &TwoViewDataset,
    cfg: &SelectConfig,
    candidates: &[TwoViewCandidate],
    stats: &mut SelectStats,
) -> TranslatorModel {
    match run_select(data, cfg, candidates, Warm::default(), None, Some(stats)) {
        Ok(model) => model,
        Err(_) => unreachable!("uncancellable run cannot be cancelled"),
    }
}

/// The full SELECT(k) loop over a pre-mined candidate set, started from
/// what the engine shares (`warm`: the empty model's state, the seed
/// setup of `candidates` and their gain table), with an optional job
/// context for cooperative cancellation and progress ticks (one tick per
/// iteration), and optional run counters. Cancellation
/// returns `Err(JobError::Cancelled)` — never a partial model — so every
/// `Ok` result is bit-identical to an uncancelled serial run.
pub(crate) fn run_select(
    data: &TwoViewDataset,
    cfg: &SelectConfig,
    candidates: &[TwoViewCandidate],
    warm: Warm<'_>,
    ctl: Option<&JobCtx>,
    stats_out: Option<&mut SelectStats>,
) -> Result<TranslatorModel, JobError> {
    let mut run_span = obs::span("select.run");
    run_span
        .field("k", cfg.k)
        .field("n_candidates", candidates.len());
    let mut state = warm.cover(data);
    let mut trace = Vec::new();

    // Seed setup: the `qub` survivors and one tidset per distinct itemset
    // — the caller's shared cache when provided, otherwise computed once
    // and cached when the workspace-wide
    // `twoview_mining::TIDSET_CACHE_BUDGET_BYTES` allows (over budget =
    // recomputed where a delta needs them).
    let live = Live::new(data, state.codes(), candidates, warm.seeds);
    let mut table = warm.gains(&state, &live);
    let mut n_refreshes = live.len();
    state.set_cell_log(true);

    let n_items = data.vocab().n_items();
    let mut iterations = 0usize;
    loop {
        // Cooperative cancellation: observed at iteration boundaries only,
        // so a run either completes (bit-identical to serial) or yields no
        // model at all.
        if let Some(ctx) = ctl {
            ctx.checkpoint()?;
            ctx.tick(1);
        }
        if let Some(cap) = cfg.max_iterations {
            if iterations >= cap {
                break;
            }
        }
        iterations += 1;

        // Bring the gains up to date with the rules the last round added.
        let log = state.take_cell_log();
        if !log.is_empty() {
            n_refreshes += table.update(&state, &live, log);
        }

        // Top-k candidate rules by gain (strictly positive only), ranked
        // by gain, then candidate, then direction. Entries stream through
        // a buffer of at most 2k: whenever it fills, the best k are kept
        // and the k-th becomes the floor no later entry needs to beat —
        // there are up to 3·|candidates| entries per round, and only k of
        // them are ever used. The result equals sorting every positive
        // entry and taking the first k.
        let cmp =
            |a: &Entry, b: &Entry| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2));
        let keep_best = |buf: &mut Vec<Entry>| {
            if cfg.k > 0 && buf.len() > cfg.k {
                buf.select_nth_unstable_by(cfg.k - 1, cmp);
            }
            buf.truncate(cfg.k);
        };
        let codes = state.codes();
        let mut entries: Vec<Entry> = Vec::with_capacity(2 * cfg.k);
        let mut floor: Option<Entry> = None;
        for (idx, cand) in live.cands().iter().enumerate() {
            let at_least = floor.map_or(0.0, |f| f.0);
            let Some(gains) = table.rule_gains(idx, codes, cand, at_least) else {
                continue;
            };
            for (gain, dir) in gains.into_iter().zip(Direction::ALL) {
                let entry = (gain, idx, dir);
                if gain <= 0.0 || floor.is_some_and(|f| cmp(&entry, &f).is_gt()) {
                    continue;
                }
                entries.push(entry);
                if entries.len() >= 2 * cfg.k {
                    keep_best(&mut entries);
                    floor = entries.get(cfg.k.wrapping_sub(1)).copied();
                }
            }
        }
        if entries.is_empty() {
            break;
        }
        keep_best(&mut entries);
        entries.sort_by(cmp);

        // Add the selected rules, skipping overlaps within this round.
        let mut used = Bitmap::new(n_items);
        let mut added = false;
        for (gain, idx, dir) in entries {
            let cand = live.cands()[idx];
            let overlaps = cand
                .left
                .iter()
                .chain(cand.right.iter())
                .any(|i| used.contains(i as usize));
            if overlaps {
                continue; // gain may have decreased; retry next iteration
            }
            // Disjoint from everything added this round => the table's
            // gain is still exact, and it is positive by construction.
            let rule = TranslationRule::new(cand.left.clone(), cand.right.clone(), dir);
            state.apply_rule(rule.clone());
            trace.push(TraceStep::capture(&state, rule, gain));
            for i in cand.left.iter().chain(cand.right.iter()) {
                used.insert(i as usize);
            }
            added = true;
        }
        if !added {
            break;
        }
    }

    // One registry fold per run; `SelectStats` reports the same locals.
    let metrics = select_metrics();
    metrics.runs.incr();
    metrics.iterations.add(iterations as u64);
    metrics.refreshes.add(n_refreshes as u64);
    run_span
        .field("iterations", iterations)
        .field("refreshes", n_refreshes);
    drop(run_span);
    if let Some(s) = stats_out {
        s.refreshes = n_refreshes;
        s.iterations = iterations;
    }
    let score = score_of(&state);
    Ok(TranslatorModel {
        table: state.into_table(),
        score,
        trace,
        n_candidates: candidates.len(),
        truncated: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structured() -> TwoViewDataset {
        let vocab = Vocabulary::new(["a", "b", "c"], ["x", "y", "z"]);
        TwoViewDataset::from_transactions(
            vocab,
            &[
                vec![0, 1, 3, 4],
                vec![0, 1, 3, 4],
                vec![0, 1, 3, 4],
                vec![0, 1, 3, 4, 5],
                vec![0, 1, 2, 3, 4],
                vec![2, 5],
                vec![2, 5],
                vec![0, 5],
            ],
        )
    }

    #[test]
    fn select1_compresses_and_traces() {
        let d = structured();
        let model = translator_select(&d, &SelectConfig::builder().k(1).minsup(1).build());
        assert!(!model.table.is_empty());
        assert!(model.compression_pct() < 100.0);
        assert_eq!(model.trace.len(), model.table.len());
        assert!(model.n_candidates > 0);
        let mut prev = f64::INFINITY;
        for step in &model.trace {
            assert!(step.l_total < prev);
            prev = step.l_total;
        }
    }

    #[test]
    fn thread_count_is_result_identical() {
        let d = structured();
        let one = translator_select(
            &d,
            &SelectConfig {
                n_threads: Some(1),
                ..SelectConfig::builder().k(2).minsup(1).build()
            },
        );
        let four = translator_select(
            &d,
            &SelectConfig {
                n_threads: Some(4),
                ..SelectConfig::builder().k(2).minsup(1).build()
            },
        );
        assert_eq!(one.table, four.table);
        assert!((one.score.l_total - four.score.l_total).abs() < 1e-9);
    }

    #[test]
    fn k25_reaches_similar_compression() {
        let d = structured();
        let k1 = translator_select(&d, &SelectConfig::builder().k(1).minsup(1).build());
        let k25 = translator_select(&d, &SelectConfig::builder().k(25).minsup(1).build());
        // Larger k trades optimality for speed; on this toy data the
        // compression must stay in the same ballpark.
        assert!(k25.compression_pct() <= k1.compression_pct() + 10.0);
    }

    #[test]
    fn rules_added_within_round_are_item_disjoint() {
        let d = structured();
        let model = translator_select(&d, &SelectConfig::builder().k(25).minsup(1).build());
        // Reconstruct rounds from the trace: within a round (same
        // iteration), itemsets must be disjoint. We can't see iteration
        // boundaries directly, so check the stronger per-model invariant
        // used by the paper's example tables: no rule duplicated.
        let mut seen = std::collections::HashSet::new();
        for rule in model.table.iter() {
            assert!(seen.insert((rule.left.clone(), rule.right.clone(), rule.direction)));
        }
    }

    #[test]
    fn minsup_one_matches_exact_on_easy_data() {
        // On data with one dominant association, SELECT(1) finds the same
        // first rule as EXACT.
        let d = structured();
        let select = translator_select(&d, &SelectConfig::builder().k(1).minsup(1).build());
        let exact = crate::exact::translator_exact(&d);
        assert_eq!(select.table.rules()[0].left, exact.table.rules()[0].left);
        assert_eq!(select.table.rules()[0].right, exact.table.rules()[0].right);
    }

    #[test]
    fn max_iterations_caps_work() {
        let d = structured();
        let model = translator_select(
            &d,
            &SelectConfig {
                max_iterations: Some(1),
                ..SelectConfig::builder().k(1).minsup(1).build()
            },
        );
        assert!(model.table.len() <= 1);
    }

    #[test]
    fn empty_candidate_set_yields_empty_model() {
        let d = structured();
        let model =
            translator_select_candidates(&d, &SelectConfig::builder().k(1).minsup(1).build(), &[]);
        assert!(model.table.is_empty());
        assert!((model.compression_pct() - 100.0).abs() < 1e-9);
    }
}
