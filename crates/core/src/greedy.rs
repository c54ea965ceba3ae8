//! TRANSLATOR-GREEDY (paper §5.4): single-pass KRIMP-style filtering.
//!
//! Candidates (closed frequent two-view itemsets) are ordered descending by
//! length, then by support, and considered exactly once each: the best of
//! the three possible rules is added if its gain is strictly positive,
//! otherwise the candidate is discarded forever.
//!
//! A candidate's gains are sums of column nets, one per consequent item
//! and direction (`hits − misses` of the antecedent's tidset against the
//! item's column, [`CoverState::pair_gains`]). Candidates share
//! antecedents, and a rule changes only the columns of its consequent.
//! So the pass reads each net from a memo (`gains::NetMemo`) keyed by the
//! seed setup's interned antecedent id and the item. A net is computed on
//! the pair's first use and again only after an added rule changed its
//! column; the state's cell log names those columns. The antecedent's
//! tidset is fetched only when a net is computed. Gains are bit-identical
//! to computing every net afresh, which `tests/proptests.rs` keeps as the
//! oracle (`reference_greedy`).
//!
//! Per input (seed 3, solver only, in-process, 2-vCPU host, best of 7,
//! three interleaved rounds, before → after): clustered-runs 80.5–81.5
//! → 24.0–25.3 ms, computing 55 807 of its 369 975 nets; wide-sparse
//! 22.5–24.2 → 15.9–16.3 ms; tall-sparse 3.9–4.5 → 3.1–3.3 ms; the 14
//! paper analogues at 300 rows, summed, 77.9–80.0 → 70.9–72.6 ms. Where
//! few nets recur the probes cost more than they save: Crime@300 reuses
//! 27% of its nets and went 0.77–0.78 → 0.90–0.93 ms.

use twoview_data::prelude::*;
use twoview_mining::{
    mine_closed_twoview, mine_frequent_twoview, MinerConfig, SeedSets, TwoViewCandidate,
};
use twoview_runtime::obs;
use twoview_runtime::{JobCtx, JobError};

/// Process-wide registry cells for the greedy pass (`greedy.*` names).
struct GreedyMetrics {
    runs: obs::Counter,
    candidates_seen: obs::Counter,
    qub_skips: obs::Counter,
    rules_added: obs::Counter,
    nets_computed: obs::Counter,
    nets_reused: obs::Counter,
}

fn greedy_metrics() -> &'static GreedyMetrics {
    static METRICS: std::sync::OnceLock<GreedyMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| GreedyMetrics {
        runs: obs::counter("greedy.runs"),
        candidates_seen: obs::counter("greedy.candidates_seen"),
        qub_skips: obs::counter("greedy.qub_skips"),
        rules_added: obs::counter("greedy.rules_added"),
        nets_computed: obs::counter("greedy.nets_computed"),
        nets_reused: obs::counter("greedy.nets_reused"),
    })
}

use crate::cover::CoverState;
use crate::gains::{NetMemo, Seeds};
use crate::model::{score_of, TraceStep, TranslatorModel};
use crate::rule::{Direction, TranslationRule};

/// Candidate orderings for the single pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateOrder {
    /// Length desc, support desc — the paper's order.
    LengthThenSupport,
    /// Support desc, length desc — ablation variant.
    SupportThenLength,
}

/// Configuration for TRANSLATOR-GREEDY.
#[derive(Clone, Debug)]
pub struct GreedyConfig {
    /// Minimum support for candidate mining.
    pub minsup: usize,
    /// Closed candidates (paper default) or all frequent itemsets.
    pub closed_candidates: bool,
    /// Candidate-count safety valve.
    pub max_candidates: usize,
    /// Single-pass ordering.
    pub order: CandidateOrder,
    /// Worker threads for candidate mining (the filtering pass itself is
    /// inherently sequential). `None` = the process default; the model is
    /// identical for any value.
    pub n_threads: Option<usize>,
}

impl GreedyConfig {
    /// Fluent builder with paper-default settings (`minsup = 1`, closed
    /// candidates, length-then-support order).
    pub fn builder() -> GreedyConfigBuilder {
        GreedyConfigBuilder {
            cfg: GreedyConfig {
                minsup: 1,
                closed_candidates: true,
                max_candidates: 2_000_000,
                order: CandidateOrder::LengthThenSupport,
                n_threads: None,
            },
        }
    }
}

/// Fluent builder for [`GreedyConfig`]; see [`GreedyConfig::builder`].
#[derive(Clone, Debug)]
pub struct GreedyConfigBuilder {
    cfg: GreedyConfig,
}

impl GreedyConfigBuilder {
    /// Minimum support for candidate mining (clamped to at least 1).
    pub fn minsup(mut self, minsup: usize) -> Self {
        self.cfg.minsup = minsup.max(1);
        self
    }

    /// Closed candidates (paper default) vs all frequent itemsets.
    pub fn closed_candidates(mut self, closed: bool) -> Self {
        self.cfg.closed_candidates = closed;
        self
    }

    /// Candidate-count safety valve.
    pub fn max_candidates(mut self, n: usize) -> Self {
        self.cfg.max_candidates = n;
        self
    }

    /// Single-pass candidate ordering.
    pub fn order(mut self, order: CandidateOrder) -> Self {
        self.cfg.order = order;
        self
    }

    /// Worker threads for candidate mining (`Some(t)` semantics).
    pub fn threads(mut self, t: usize) -> Self {
        self.cfg.n_threads = Some(t);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> GreedyConfig {
        self.cfg
    }
}

/// Runs TRANSLATOR-GREEDY: mines candidates, then filters in one pass.
pub fn translator_greedy(data: &TwoViewDataset, cfg: &GreedyConfig) -> TranslatorModel {
    let mut miner_cfg = MinerConfig::builder().minsup(cfg.minsup).build();
    miner_cfg.max_itemsets = cfg.max_candidates;
    miner_cfg.n_threads = cfg.n_threads;
    let mined = if cfg.closed_candidates {
        mine_closed_twoview(data, &miner_cfg)
    } else {
        mine_frequent_twoview(data, &miner_cfg)
    };
    let mut model = translator_greedy_candidates(data, cfg, &mined.candidates);
    model.truncated |= mined.truncated;
    model
}

/// Runs the single-pass filter over a pre-mined candidate set.
pub fn translator_greedy_candidates(
    data: &TwoViewDataset,
    cfg: &GreedyConfig,
    candidates: &[TwoViewCandidate],
) -> TranslatorModel {
    match run_greedy(data, cfg, candidates, None, None) {
        Ok(model) => model,
        Err(_) => unreachable!("uncancellable run cannot be cancelled"),
    }
}

/// The single-pass filter with the optional shared seed setup of
/// `candidates` (`shared_seeds`) and an optional job context: cancellation is
/// observed every [`GREEDY_CHECKPOINT_EVERY`] candidates (and ticks
/// progress at the same cadence); a cancelled run returns no model.
pub(crate) fn run_greedy(
    data: &TwoViewDataset,
    cfg: &GreedyConfig,
    candidates: &[TwoViewCandidate],
    shared_seeds: Option<&SeedSets>,
    ctl: Option<&JobCtx>,
) -> Result<TranslatorModel, JobError> {
    let mut run_span = obs::span("greedy.run");
    run_span.field("n_candidates", candidates.len());
    // Seed setup, shared with SELECT and EXACT: every candidate's `qub`
    // and one antecedent tidset per distinct itemset.
    let seeds = Seeds::new(data, candidates, shared_seeds);
    let ordered = visit_order(data, candidates, &seeds, cfg.order);

    let mut qub_skips = 0u64;
    let mut state = CoverState::new(data);
    // The cell log tells the memo which columns each added rule changed.
    state.set_cell_log(true);
    let mut memo = NetMemo::new(&state, candidates.len());
    let mut trace = Vec::new();
    for (pos, &i) in ordered.iter().enumerate() {
        if pos % GREEDY_CHECKPOINT_EVERY == 0 {
            if let Some(ctx) = ctl {
                ctx.checkpoint()?;
                ctx.tick(1);
            }
        }
        // State-independent quick bound: a candidate whose `qub` is not
        // positive can never yield a positive gain; skip the evaluation.
        if seeds.qub(state.codes(), i) <= 0.0 {
            qub_skips += 1;
            continue;
        }
        let gains = memo.pair_gains(&state, &seeds, i);
        // Keep the *last* maximum over Direction::ALL order, matching the
        // historical `max_by(partial_cmp)` tie-break (gains are never NaN).
        let mut best = (gains[0], Direction::ALL[0]);
        for (g, d) in gains.into_iter().zip(Direction::ALL).skip(1) {
            if g >= best.0 {
                best = (g, d);
            }
        }
        let (best_gain, best_dir) = best;
        if best_gain > 0.0 {
            let cand = &candidates[i];
            let rule = TranslationRule::new(cand.left.clone(), cand.right.clone(), best_dir);
            state.apply_rule(rule.clone());
            memo.columns_changed(&state.take_cell_log());
            trace.push(TraceStep::capture(&state, rule, best_gain));
        }
    }

    let (nets_computed, nets_reused) = memo.counts();
    let metrics = greedy_metrics();
    metrics.runs.incr();
    metrics.candidates_seen.add(candidates.len() as u64);
    metrics.qub_skips.add(qub_skips);
    metrics.rules_added.add(trace.len() as u64);
    metrics.nets_computed.add(nets_computed);
    metrics.nets_reused.add(nets_reused);
    run_span
        .field("qub_skips", qub_skips)
        .field("rules_added", trace.len())
        .field("nets_computed", nets_computed)
        .field("nets_reused", nets_reused);
    drop(run_span);

    let score = score_of(&state);
    Ok(TranslatorModel {
        table: state.into_table(),
        score,
        trace,
        n_candidates: candidates.len(),
        truncated: false,
    })
}

/// The order of the single pass, as candidate indices: length and support
/// descending (in the order `order` names), then `(left, right)`
/// ascending. Each itemset enters the key as its rank among the distinct
/// itemsets of its side, so the sort compares one packed `u128` per
/// candidate, never two itemsets, and orders exactly as comparing the
/// itemsets would.
fn visit_order(
    data: &TwoViewDataset,
    candidates: &[TwoViewCandidate],
    seeds: &Seeds<'_>,
    order: CandidateOrder,
) -> Vec<usize> {
    // Lengths are below 2^32 (item ids are `u32`), supports below |D|.
    assert!(
        u32::try_from(data.n_transactions()).is_ok(),
        "the candidate order needs fewer than 2^32 transactions"
    );
    let ranks = Side::BOTH.map(|side| {
        let sets: Vec<&ItemSet> = seeds.itemsets(side).collect();
        let mut by_set: Vec<u32> = (0..sets.len() as u32).collect();
        by_set.sort_unstable_by(|&a, &b| sets[a as usize].cmp(sets[b as usize]));
        let mut rank = vec![0u32; sets.len()];
        for (r, &id) in by_set.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        rank
    });
    let mut keyed: Vec<(u128, usize)> = candidates
        .iter()
        .zip(seeds.ids())
        .enumerate()
        .map(|(i, (c, &[l, r]))| {
            let (len, supp) = (u32::MAX - c.len() as u32, u32::MAX - c.support as u32);
            let (first, second) = match order {
                CandidateOrder::LengthThenSupport => (len, supp),
                CandidateOrder::SupportThenLength => (supp, len),
            };
            let key = u128::from(first) << 96
                | u128::from(second) << 64
                | u128::from(ranks[0][l as usize]) << 32
                | u128::from(ranks[1][r as usize]);
            (key, i)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Cancellation/progress cadence of the greedy single pass.
const GREEDY_CHECKPOINT_EVERY: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{translator_select, SelectConfig};

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
    fn greedy_compresses_structured_data() {
        let d = structured();
        let model = translator_greedy(&d, &GreedyConfig::builder().minsup(1).build());
        assert!(!model.table.is_empty());
        assert!(model.compression_pct() < 100.0);
        let mut prev = f64::INFINITY;
        for step in &model.trace {
            assert!(step.gain > 0.0);
            assert!(step.l_total < prev);
            prev = step.l_total;
        }
    }

    #[test]
    fn greedy_never_beats_select_by_much_here() {
        // GREEDY is the weakest strategy; on toy data it must be within a
        // reasonable band of SELECT(1) but never meaningfully better.
        let d = structured();
        let greedy = translator_greedy(&d, &GreedyConfig::builder().minsup(1).build());
        let select = translator_select(&d, &SelectConfig::builder().k(1).minsup(1).build());
        assert!(greedy.compression_pct() + 1e-9 >= select.compression_pct() - 5.0);
    }

    #[test]
    fn ordering_variants_run() {
        let d = structured();
        let a = translator_greedy(
            &d,
            &GreedyConfig {
                order: CandidateOrder::SupportThenLength,
                ..GreedyConfig::builder().minsup(1).build()
            },
        );
        let b = translator_greedy(&d, &GreedyConfig::builder().minsup(1).build());
        assert!(a.compression_pct() <= 100.0);
        assert!(b.compression_pct() <= 100.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let d = structured();
        let a = translator_greedy(&d, &GreedyConfig::builder().minsup(1).build());
        let b = translator_greedy(&d, &GreedyConfig::builder().minsup(1).build());
        assert_eq!(a.table, b.table);
    }

    #[test]
    fn packed_keys_order_like_itemsets() {
        let spec = twoview_data::synthetic::SyntheticSpec {
            name: "greedy-order".into(),
            n_transactions: 200,
            n_left: 12,
            n_right: 10,
            density_left: 0.25,
            density_right: 0.25,
            structure: twoview_data::synthetic::StructureSpec::strong(3),
            seed: 6,
        };
        let d = twoview_data::synthetic::generate(&spec)
            .expect("valid spec")
            .dataset;
        let cands = mine_closed_twoview(&d, &MinerConfig::builder().minsup(2).build()).candidates;
        assert!(cands.len() > 500, "{}", cands.len());
        let seeds = Seeds::new(&d, &cands, None);
        for order in [
            CandidateOrder::LengthThenSupport,
            CandidateOrder::SupportThenLength,
        ] {
            // The comparison the single pass sorted with before the keys.
            let mut expected: Vec<usize> = (0..cands.len()).collect();
            expected.sort_by(|&a, &b| {
                let (a, b) = (&cands[a], &cands[b]);
                let first = match order {
                    CandidateOrder::LengthThenSupport => {
                        b.len().cmp(&a.len()).then(b.support.cmp(&a.support))
                    }
                    CandidateOrder::SupportThenLength => {
                        b.support.cmp(&a.support).then(b.len().cmp(&a.len()))
                    }
                };
                first.then_with(|| (&a.left, &a.right).cmp(&(&b.left, &b.right)))
            });
            assert_eq!(
                visit_order(&d, &cands, &seeds, order),
                expected,
                "{order:?}"
            );
        }
    }

    #[test]
    fn minsup_prunes_candidates() {
        let d = structured();
        let low = translator_greedy(&d, &GreedyConfig::builder().minsup(1).build());
        let high = translator_greedy(&d, &GreedyConfig::builder().minsup(4).build());
        assert!(high.n_candidates <= low.n_candidates);
    }
}
