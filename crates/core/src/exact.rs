//! TRANSLATOR-EXACT (paper Algorithm 2 + §5.2).
//!
//! Each iteration finds the rule with the *maximum* compression gain by an
//! ECLAT-style depth-first search over all itemset pairs `(X, Y)` that occur
//! in the data, then adds it to the table; the loop stops when no rule
//! improves compression. Three devices keep the search tractable:
//!
//! * `tub(t)` — per-transaction bound: the encoded size of the transaction's
//!   currently uncovered items (maintained by [`CoverState`]);
//! * `rub(X ◇ Y)` — rule bound: `Σ_{X⊆t_L} tub(t_R) + Σ_{Y⊆t_R} tub(t_L) −
//!   L(X↔Y)`, monotonically non-increasing under extension, so a subtree is
//!   pruned whenever `rub ≤` the best gain found so far;
//! * `qub(X ◇ Y)` — quick bound: `|supp(X)|·L(Y) + |supp(Y)|·L(X) −
//!   L(X↔Y)`, not valid for extensions but enough to skip exact gain
//!   evaluation at a node.
//!
//! Items are ordered descending by their single-item `rub` contribution so
//! strong rules are found early and pruning bites.
//!
//! ## Node layout
//!
//! A DFS node is a small `Copy` value: the two code lengths, the two `tub`
//! sums and one borrowed tidset per side. A side's first item lends its
//! data column; a later item's intersection is owned by the stack frame
//! that visits it and lent to the whole subtree below. The pair `(X, Y)`
//! itself lives on two item stacks, each kept sorted by item id, so the
//! search allocates nothing per node beyond that one intersection.
//!
//! An evaluated node's gains are composed from the stacks exactly as
//! [`CoverState::pair_gains`] composes them: per consequent item, in item
//! order, the pair `(L(y), column_net(..))` through `weighted_nets`, the
//! two `L(·)` sums as `base`, and `rule_gains`, so every gain is
//! bit-identical. `ItemSet`s are built only when the incumbent improves.
//! Every net is computed at its node. A child leaves the antecedent of
//! the side it extends unchanged and could copy those nets from its
//! parent, but per-depth net frames doing so measured no faster on the
//! benchmark's `paper-cold` workload (2 vCPUs, 10 alternating pairs:
//! `fits_per_s` ahead in 7, medians 20.99 against 19.17, inside the
//! 18.14–21.84 quartiles of the runs without them).
//!
//! ## Parallel root fan-out
//!
//! The DFS subtrees rooted at each first item are independent, so with
//! [`ExactConfig::n_threads`] `> 1` they fan out across the persistent
//! [`twoview_runtime`] pool: each pool participant clones the (read-only
//! during search) [`CoverState`] once, then claims root subtrees off an
//! atomic counter. Cross-subtree pruning flows through a **shared atomic
//! best-bound** that only ever tightens monotonically, so `rub`/`qub`
//! pruning stays admissible and the search stays exactly optimal. Two
//! details make the *returned rule* (not just its gain) bit-identical to
//! the serial search for any thread count:
//!
//! * each subtree tracks its own local best with the strict `>` rule the
//!   serial DFS uses, seeded at the (deterministic) incumbent gain, and
//!   the shared bound is consulted for pruning with strict `<` only — a
//!   node whose bound *equals* the shared best may still contain the rule
//!   that an earlier-ordered subtree would have won with, and must not be
//!   discarded by a later-ordered subtree that merely finished first;
//! * subtree results are merged by an **ordered reduction** in root
//!   submission order with the same strict-improvement rule, reproducing
//!   the serial first-wins tie-breaking exactly.
//!
//! A node-capped search (`max_nodes`) instead gives every subtree a fixed
//! `cap / n_roots` budget and disables the shared bound, so capped runs
//! are deterministic per thread count too (the visited node set is a pure
//! function of the data), at the price of slightly weaker pruning.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use twoview_data::prelude::*;
use twoview_runtime::obs;
use twoview_runtime::sync::TolerantMutex;

use crate::bounds;
use crate::cover::{rule_gains, weighted_nets, CoverState};
use crate::gains::{Live, Warm};
use crate::model::{score_of, TraceStep, TranslatorModel};
use crate::rule::{Direction, TranslationRule};

/// Process-wide registry cells for the exact search (`exact.*` names).
/// The DFS counts in plain locals ([`Search`] fields) and folds them in
/// once per search / per fan-out participant, keeping the per-node hot
/// path free of shared-cell traffic.
struct ExactMetrics {
    searches: obs::Counter,
    nodes: obs::Counter,
    rub_prunes: obs::Counter,
    qub_prunes: obs::Counter,
}

fn exact_metrics() -> &'static ExactMetrics {
    static METRICS: std::sync::OnceLock<ExactMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ExactMetrics {
        searches: obs::counter("exact.searches"),
        nodes: obs::counter("exact.nodes"),
        rub_prunes: obs::counter("exact.rub_prunes"),
        qub_prunes: obs::counter("exact.qub_prunes"),
    })
}

/// Configuration of the exact search.
#[derive(Clone, Debug)]
pub struct ExactConfig {
    /// Safety valve: abort an iteration's search after this many DFS nodes.
    /// `None` (the default) keeps the search exact.
    pub max_nodes: Option<u64>,
    /// Enable the rule-based subtree pruning bound (`rub`). Disabling is
    /// for ablation only — searches explode without it.
    pub use_rub: bool,
    /// Enable the quick per-node bound (`qub`).
    pub use_qub: bool,
    /// Stop after this many rules (`None` = run to convergence).
    pub max_rules: Option<usize>,
    /// Additionally seed every iteration's incumbent with the best rule
    /// over the closed frequent two-view itemsets at this minsup. Seeding
    /// never changes the (uncapped) result — the optimum dominates any
    /// seed — but it tightens pruning dramatically and guarantees that a
    /// *node-capped* run is never worse than TRANSLATOR-SELECT(1).
    pub candidate_seed_minsup: Option<usize>,
    /// Worker threads for the root-level DFS fan-out and candidate-seed
    /// mining. `Some(1)` keeps the single-DFS legacy search; `Some(t > 1)`
    /// fans out; `None` fans out once the vocabulary is large enough
    /// (≥ 24 items) and sizes the pool from the process default
    /// ([`twoview_runtime::configured_threads`]).
    ///
    /// The *structure* choice is a pure function of this field and the
    /// data, never of the machine, so a given config reproduces the same
    /// model everywhere; `TWOVIEW_RUNTIME_THREADS` only scales execution.
    /// Uncapped searches return identical rules under every setting;
    /// node-capped searches are identical across all fanned-out settings
    /// (`None` and every `Some(t > 1)`), while `Some(1)`'s global node cap
    /// visits a different truncation frontier than the fan-out's
    /// per-subtree budgets. The seed setup and the seed gain table run on
    /// the calling thread whatever this field says.
    pub n_threads: Option<usize>,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_nodes: None,
            use_rub: true,
            use_qub: true,
            max_rules: None,
            candidate_seed_minsup: Some(1),
            n_threads: None,
        }
    }
}

impl ExactConfig {
    /// Fluent builder starting from the defaults (uncapped exact search,
    /// both bounds on, seeding at minsup 1).
    pub fn builder() -> ExactConfigBuilder {
        ExactConfigBuilder {
            cfg: ExactConfig::default(),
        }
    }
}

/// Fluent builder for [`ExactConfig`]; see [`ExactConfig::builder`].
#[derive(Clone, Debug)]
pub struct ExactConfigBuilder {
    cfg: ExactConfig,
}

impl ExactConfigBuilder {
    /// Per-iteration DFS node cap (the search is no longer exact when it
    /// fires; [`TranslatorModel::truncated`] reports it).
    pub fn max_nodes(mut self, cap: u64) -> Self {
        self.cfg.max_nodes = Some(cap);
        self
    }

    /// Rule-bound subtree pruning (`rub`); disabling is ablation-only.
    pub fn rub(mut self, on: bool) -> Self {
        self.cfg.use_rub = on;
        self
    }

    /// Quick per-node bound (`qub`).
    pub fn qub(mut self, on: bool) -> Self {
        self.cfg.use_qub = on;
        self
    }

    /// Stop after this many rules.
    pub fn max_rules(mut self, n: usize) -> Self {
        self.cfg.max_rules = Some(n);
        self
    }

    /// Seed each iteration's incumbent from closed two-view candidates at
    /// this minsup (`None` disables seeding).
    pub fn seed_minsup(mut self, minsup: Option<usize>) -> Self {
        self.cfg.candidate_seed_minsup = minsup;
        self
    }

    /// Worker threads for the root fan-out (`Some(t)` semantics; see
    /// [`ExactConfig::n_threads`]).
    pub fn threads(mut self, t: usize) -> Self {
        self.cfg.n_threads = Some(t);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ExactConfig {
        self.cfg
    }
}

/// Mining valve for the candidate-seed mine — one definition shared with
/// the engine's cache-serving check, so engine EXACT fits stay equivalent
/// to free-function runs if it is ever tuned.
pub(crate) const SEED_MINE_VALVE: usize = 2_000_000;

/// Runs TRANSLATOR-EXACT with default configuration.
pub fn translator_exact(data: &TwoViewDataset) -> TranslatorModel {
    translator_exact_with(data, &ExactConfig::default())
}

/// Runs TRANSLATOR-EXACT with the given configuration.
pub fn translator_exact_with(data: &TwoViewDataset, cfg: &ExactConfig) -> TranslatorModel {
    // Mine the seed candidates once. Their gains against the evolving cover
    // state are kept in the same exact gain table SELECT scores from.
    let seeds: Vec<twoview_mining::TwoViewCandidate> = match cfg.candidate_seed_minsup {
        Some(minsup) => {
            let mut mcfg = twoview_mining::MinerConfig::builder()
                .minsup(minsup)
                .build();
            mcfg.max_itemsets = SEED_MINE_VALVE;
            mcfg.n_threads = cfg.n_threads;
            twoview_mining::mine_closed_twoview(data, &mcfg).candidates
        }
        None => Vec::new(),
    };
    translator_exact_seeded(data, cfg, &seeds)
}

/// Runs TRANSLATOR-EXACT over **pre-mined** seed candidates (the engine's
/// cached candidate set): identical to [`translator_exact_with`] when the
/// seeds are the closed two-view candidates at
/// [`ExactConfig::candidate_seed_minsup`], minus the mining cost.
pub fn translator_exact_seeded(
    data: &TwoViewDataset,
    cfg: &ExactConfig,
    seeds: &[twoview_mining::TwoViewCandidate],
) -> TranslatorModel {
    match run_exact(data, cfg, seeds, Warm::default(), None) {
        Ok(model) => model,
        Err(_) => unreachable!("uncancellable run cannot be cancelled"),
    }
}

/// The EXACT loop, started from what the engine shares (`warm`: the empty
/// model's state, the seed setup of `seeds` and their gain table), with
/// an optional job context: cancellation is observed between rule
/// iterations (one progress tick per added rule); a cancelled run returns
/// no model, so every completed run is bit-identical to serial.
pub(crate) fn run_exact(
    data: &TwoViewDataset,
    cfg: &ExactConfig,
    seeds: &[twoview_mining::TwoViewCandidate],
    warm: Warm<'_>,
    ctl: Option<&twoview_runtime::JobCtx>,
) -> Result<TranslatorModel, twoview_runtime::JobError> {
    let mut state = warm.cover(data);
    // Seed setup, shared with SELECT: the `qub` survivors (qub ≤ 0 can
    // never help) and one tidset per distinct itemset, borrowed from the
    // caller or cached under the same memory budget; then every seed's
    // gains in one exact table that each applied rule moves by the cells
    // it changed.
    let live = Live::new(data, state.codes(), seeds, warm.seeds);
    let mut table = warm.gains(&state, &live);
    state.set_cell_log(true);

    let mut trace = Vec::new();
    let mut truncated = false;
    loop {
        // Cooperative cancellation at rule boundaries only: a run either
        // completes or yields no model.
        if let Some(ctx) = ctl {
            ctx.checkpoint()?;
            ctx.tick(1);
        }
        if let Some(max) = cfg.max_rules {
            if state.table().len() >= max {
                break;
            }
        }
        let log = state.take_cell_log();
        if !log.is_empty() {
            table.update(&state, &live, log);
        }
        // The incumbent is the best seed rule: the last maximum over
        // `Direction::ALL` within a seed, strict `>` across seeds (floor
        // 0.0), so the first seed reaching the maximum wins.
        let codes = state.codes();
        let mut incumbent: Option<(TranslationRule, f64)> = None;
        let mut cur_max = 0.0f64;
        for (idx, cand) in live.cands().iter().enumerate() {
            let Some(gains) = table.rule_gains(idx, codes, cand, cur_max) else {
                continue;
            };
            let mut best = (gains[0], Direction::ALL[0]);
            for (g, d) in gains.into_iter().zip(Direction::ALL).skip(1) {
                if g >= best.0 {
                    best = (g, d);
                }
            }
            if best.0 > cur_max {
                cur_max = best.0;
                incumbent = Some((
                    TranslationRule::new(cand.left.clone(), cand.right.clone(), best.1),
                    best.0,
                ));
            }
        }

        let outcome = best_rule_with_incumbent(&state, cfg, incumbent);
        truncated |= outcome.truncated;
        match outcome.best {
            Some((rule, gain)) if gain > 0.0 => {
                state.apply_rule(rule.clone());
                trace.push(TraceStep::capture(&state, rule, gain));
            }
            _ => break,
        }
    }
    let score = score_of(&state);
    Ok(TranslatorModel {
        table: state.into_table(),
        score,
        trace,
        n_candidates: live.len(),
        truncated,
    })
}

/// Result of one best-rule search.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The best rule and its gain, if any rule has strictly positive gain.
    /// Deterministic (including tie-breaking) for any thread count.
    pub best: Option<(TranslationRule, f64)>,
    /// Number of DFS nodes visited. Deterministic for serial and capped
    /// runs; for uncapped parallel runs the count (never the result)
    /// varies with how early the shared bound tightened.
    pub nodes: u64,
    /// Whether the node cap fired (search no longer exact).
    pub truncated: bool,
}

/// Finds the rule with maximum gain given the current cover state
/// (paper §5.2). Exposed for tests and ablation benches.
pub fn best_rule(state: &CoverState<'_>, cfg: &ExactConfig) -> SearchOutcome {
    best_rule_with_incumbent(state, cfg, None)
}

/// [`best_rule`] with an explicit initial incumbent (a real rule and its
/// gain). The DFS must only *beat* the incumbent, so pruning starts tight;
/// the returned optimum is unchanged because the incumbent is itself a
/// feasible rule.
pub fn best_rule_with_incumbent(
    state: &CoverState<'_>,
    cfg: &ExactConfig,
    incumbent: Option<(TranslationRule, f64)>,
) -> SearchOutcome {
    let data = state.data();
    let vocab = data.vocab();
    let mut span = obs::span("exact.search");

    // Order items descending by their single-item bound contribution:
    // Σ over supporting transactions of the opposite side's tub.
    let mut order: Vec<(ItemId, f64)> = (0..vocab.n_items() as ItemId)
        .filter(|&i| data.support(i) > 0)
        .map(|i| {
            let opp = vocab.side_of(i).opposite();
            (i, tub_sum(state.uncovered_weights(opp), data.tidset(i)))
        })
        .collect();
    order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let items: Vec<ItemId> = order.into_iter().map(|(i, _)| i).collect();

    let total_tub: [f64; 2] = [
        state.uncovered_weights(Side::Left).iter().sum(),
        state.uncovered_weights(Side::Right).iter().sum(),
    ];

    let (best, best_gain) = match incumbent {
        Some((rule, gain)) if gain > 0.0 => (Some(rule), gain),
        _ => (None, 0.0),
    };
    let mut search = Search::new(state, cfg, &items, best, best_gain, None, cfg.max_nodes);
    // Additionally seed with the best single-item-pair rule. Seeds are real
    // rules, so the (uncapped) search result is unchanged, but `rub` prunes
    // from the first DFS node instead of only after a good rule is found.
    // Runs serially in both modes so every parallel subtree starts from
    // the same deterministic incumbent.
    search.seed_with_singleton_pairs();

    // The fan-out decision must be a pure function of the config and the
    // data — never of the machine's thread count. A node-capped fan-out
    // distributes per-subtree budgets, which visits a different node set
    // than the serial global cap; if the choice tracked available
    // parallelism (or TWOVIEW_RUNTIME_THREADS), the same capped run could
    // return different models on different machines. The pool size only
    // scales how fast the chosen structure executes.
    let fanout = items.len() >= 2
        && match cfg.n_threads {
            Some(t) => t > 1,
            None => items.len() >= 24,
        };
    if fanout {
        let threads = twoview_runtime::resolve_threads(cfg.n_threads);
        let outcome = parallel_root_fanout(
            state,
            cfg,
            &items,
            search.best,
            search.best_gain,
            total_tub,
            threads,
        );
        let metrics = exact_metrics();
        metrics.searches.incr();
        metrics.nodes.add(outcome.nodes);
        span.field("nodes", outcome.nodes)
            .field("fanout", true)
            .field("truncated", outcome.truncated);
        return outcome;
    }

    search.dfs(0, root_node(total_tub));
    let metrics = exact_metrics();
    metrics.searches.incr();
    metrics.nodes.add(search.nodes);
    metrics.rub_prunes.add(search.rub_prunes);
    metrics.qub_prunes.add(search.qub_prunes);
    span.field("nodes", search.nodes)
        .field("rub_prunes", search.rub_prunes)
        .field("qub_prunes", search.qub_prunes)
        .field("fanout", false)
        .field("truncated", search.truncated);
    drop(span);
    SearchOutcome {
        best: search.best.map(|r| (r, search.best_gain)),
        nodes: search.nodes,
        truncated: search.truncated,
    }
}

/// The empty-pair DFS root.
fn root_node(total_tub: [f64; 2]) -> Node<'static> {
    Node {
        len_left: 0.0,
        len_right: 0.0,
        tid_left: None,
        tid_right: None,
        sum_left: total_tub[1],  // X ⊆ t_L sums tub over *right* rows
        sum_right: total_tub[0], // Y ⊆ t_R sums tub over *left* rows
    }
}

/// Result of one root subtree of the parallel fan-out.
#[derive(Clone)]
struct RootOutcome {
    best: Option<(TranslationRule, f64)>,
    nodes: u64,
    truncated: bool,
}

/// Fans the root-level DFS out across the pool (see the module docs for
/// why the merged result is bit-identical to the serial search).
fn parallel_root_fanout(
    state: &CoverState<'_>,
    cfg: &ExactConfig,
    items: &[ItemId],
    incumbent: Option<TranslationRule>,
    incumbent_gain: f64,
    total_tub: [f64; 2],
    threads: usize,
) -> SearchOutcome {
    let n_roots = items.len();
    // Capped searches get fixed per-subtree budgets and no shared bound:
    // the visited node set is then a pure function of the data, making
    // node-capped results deterministic for every thread count > 1.
    let (node_cap, share_bound) = match cfg.max_nodes {
        Some(cap) => (Some((cap / n_roots as u64).max(1)), false),
        None => (None, true),
    };
    // Monotone best-bound. Published gains are strictly positive, and
    // non-negative f64 bit patterns order like the floats, so fetch_max on
    // the bits is exactly "tighten if better".
    let shared_bits = AtomicU64::new(incumbent_gain.to_bits());
    let next = AtomicUsize::new(0);
    let results: TolerantMutex<Vec<Option<RootOutcome>>> = TolerantMutex::new(vec![None; n_roots]);

    let runtime = twoview_runtime::global();
    let participant = &|| {
        // Claim the first root before paying for the state clone: late
        // participants (threads beyond the root count or the pool size)
        // then exit without copying anything.
        let mut claimed = next.fetch_add(1, Ordering::Relaxed);
        if claimed >= n_roots {
            return;
        }
        // Per-worker clone: the state is read-only during the search, and
        // a private copy keeps the hot tub/cover columns out of the other
        // workers' cache traffic.
        let local_state = state.clone();
        let (mut local_rub, mut local_qub) = (0u64, 0u64);
        loop {
            let pos = claimed;
            let mut search = Search::new(
                &local_state,
                cfg,
                items,
                None,
                incumbent_gain,
                share_bound.then_some(&shared_bits),
                node_cap,
            );
            search.visit(pos, root_node(total_tub));
            local_rub += search.rub_prunes;
            local_qub += search.qub_prunes;
            let outcome = RootOutcome {
                best: search.best.map(|r| (r, search.best_gain)),
                nodes: search.nodes,
                truncated: search.truncated,
            };
            results.lock()[pos] = Some(outcome);
            claimed = next.fetch_add(1, Ordering::Relaxed);
            if claimed >= n_roots {
                break;
            }
        }
        // One registry fold per participant (prune tallies only — the
        // merge loop already accounts the node totals).
        let metrics = exact_metrics();
        metrics.rub_prunes.add(local_rub);
        metrics.qub_prunes.add(local_qub);
    };
    // Extra participants beyond the pool size queue behind the real
    // workers; results are unaffected (ordered reduction), so the fan-out
    // machinery is exercised identically on any machine.
    runtime.install(|scope| {
        for _ in 1..threads {
            scope.spawn(participant);
        }
        participant();
    });

    // Ordered reduction in root submission order with strict improvement:
    // the serial DFS's first-wins tie-breaking, reproduced exactly.
    let mut best = incumbent;
    let mut best_gain = incumbent_gain;
    let mut nodes = 0;
    let mut truncated = false;
    for outcome in results.into_inner() {
        // lint: allow(panic_hygiene) — the parallel driver writes every root slot before into_inner
        let outcome = outcome.expect("every root subtree claimed and searched");
        nodes += outcome.nodes;
        truncated |= outcome.truncated;
        if let Some((rule, gain)) = outcome.best {
            if gain > best_gain {
                best_gain = gain;
                best = Some(rule);
            }
        }
    }
    SearchOutcome {
        best: best.map(|r| (r, best_gain)),
        nodes,
        truncated,
    }
}

/// DFS node: the cached quantities the bounds need. The pair `(X, Y)`
/// itself lives on the search's two sorted item stacks, and the tidsets
/// are borrowed: a side's first item lends its data column, a later item's
/// intersection is owned by the frame that visits it.
#[derive(Clone, Copy)]
struct Node<'t> {
    len_left: f64,
    len_right: f64,
    /// `supp_L(X)`; `None` while `X = ∅` (supported by every transaction).
    tid_left: Option<&'t Tidset>,
    /// `supp_R(Y)`; `None` while `Y = ∅`.
    tid_right: Option<&'t Tidset>,
    /// `Σ_{t ∈ supp(X)} tub_R(t)`.
    sum_left: f64,
    /// `Σ_{t ∈ supp(Y)} tub_L(t)`.
    sum_right: f64,
}

struct Search<'a, 'd> {
    state: &'a CoverState<'d>,
    cfg: &'a ExactConfig,
    items: &'a [ItemId],
    best: Option<TranslationRule>,
    best_gain: f64,
    nodes: u64,
    /// Subtrees cut by the `rub` bound (local tally; folded into the
    /// `exact.rub_prunes` registry cell when the search ends).
    rub_prunes: u64,
    /// Node evaluations skipped by the quick `qub` bound.
    qub_prunes: u64,
    truncated: bool,
    /// Shared monotone best-bound (bits of a non-negative f64) for
    /// cross-subtree pruning in the parallel fan-out; `None` when serial
    /// or node-capped. Consulted with strict `<` only — see module docs.
    shared: Option<&'a AtomicU64>,
    /// Node budget of THIS search: the global `max_nodes` when serial,
    /// the per-subtree share when fanned out.
    node_cap: Option<u64>,
    /// `X` and `Y` of the current node, each sorted by item id.
    stacks: [Vec<ItemId>; 2],
}

impl<'a, 'd> Search<'a, 'd> {
    fn new(
        state: &'a CoverState<'d>,
        cfg: &'a ExactConfig,
        items: &'a [ItemId],
        best: Option<TranslationRule>,
        best_gain: f64,
        shared: Option<&'a AtomicU64>,
        node_cap: Option<u64>,
    ) -> Self {
        Search {
            state,
            cfg,
            items,
            best,
            best_gain,
            nodes: 0,
            rub_prunes: 0,
            qub_prunes: 0,
            truncated: false,
            shared,
            node_cap,
            stacks: [Vec::new(), Vec::new()],
        }
    }

    /// Evaluates every occurring `({i}, {j})` pair to initialise the
    /// incumbent before the DFS. Quadratic in the vocabulary but linear in
    /// supports — negligible next to the search itself.
    fn seed_with_singleton_pairs(&mut self) {
        let data = self.state.data();
        let vocab = data.vocab();
        let left_items: Vec<ItemId> = self
            .items
            .iter()
            .copied()
            .filter(|&i| vocab.side_of(i) == Side::Left)
            .collect();
        let right_items: Vec<ItemId> = self
            .items
            .iter()
            .copied()
            .filter(|&i| vocab.side_of(i) == Side::Right)
            .collect();
        for &i in &left_items {
            let ti = data.tidset(i);
            let left = ItemSet::singleton(i);
            let len_left = self.state.codes().item(i);
            for &j in &right_items {
                let tj = data.tidset(j);
                if ti.is_disjoint(tj) {
                    continue;
                }
                // Quick bound before the exact evaluation.
                let len_right = self.state.codes().item(j);
                let qub = bounds::qub_parts(ti.len() as f64, tj.len() as f64, len_left, len_right);
                if qub <= self.best_gain {
                    continue;
                }
                let right = ItemSet::singleton(j);
                let gains = self.state.pair_gains(&left, &right, ti, tj);
                for (gain, dir) in gains.into_iter().zip(Direction::ALL) {
                    if gain > self.best_gain {
                        self.best_gain = gain;
                        self.best = Some(TranslationRule::new(left.clone(), right.clone(), dir));
                    }
                }
            }
        }
    }

    fn dfs(&mut self, start: usize, node: Node<'_>) {
        if self.truncated {
            return;
        }
        for pos in start..self.items.len() {
            if self.truncated {
                return;
            }
            self.visit(pos, node);
        }
    }

    /// `true` iff the shared bound (when present) proves a node with upper
    /// bound `value` cannot contain a rule the merged result would keep.
    /// Strict `<`: an equal-bound node may still hold the rule an
    /// earlier-ordered subtree wins with.
    #[inline]
    fn shared_prunes(&self, value: f64) -> bool {
        match self.shared {
            Some(bits) => value < f64::from_bits(bits.load(Ordering::Relaxed)),
            None => false,
        }
    }

    /// Publishes a locally improved gain to the shared bound (monotone
    /// tightening only).
    #[inline]
    fn publish(&self, gain: f64) {
        if let Some(bits) = self.shared {
            bits.fetch_max(gain.to_bits(), Ordering::Relaxed);
        }
    }

    /// One iteration of the DFS loop: extend `node` with `items[pos]`,
    /// evaluate, and recurse into the extension's subtree. This is also
    /// the unit the parallel fan-out claims per root.
    fn visit(&mut self, pos: usize, node: Node<'_>) {
        let data = self.state.data();
        let vocab = data.vocab();
        let item = self.items[pos];
        let side = vocab.side_of(item);
        self.nodes += 1;
        if let Some(cap) = self.node_cap {
            if self.nodes > cap {
                self.truncated = true;
                return;
            }
        }

        // Extend the item's own side.
        let (tid, other_tid) = match side {
            Side::Left => (node.tid_left, node.tid_right),
            Side::Right => (node.tid_right, node.tid_left),
        };
        let ts = data.tidset(item);
        let owned;
        let new_tid = match tid {
            // Disjointness is checked through the kernel before the
            // child tidset is materialised.
            Some(t) if t.is_disjoint(ts) => return,
            Some(t) => {
                owned = t.and(ts);
                &owned
            }
            None if ts.is_empty() => return,
            None => ts,
        };
        // XY must occur at least once in the data; supports only shrink
        // under extension, so an empty joint support prunes the subtree.
        if let Some(other) = other_tid {
            if new_tid.is_disjoint(other) {
                return;
            }
        }

        let opp = side.opposite();
        let new_sum = tub_sum(self.state.uncovered_weights(opp), new_tid);
        let item_len = self.state.codes().item(item);

        let child = match side {
            Side::Left => Node {
                len_left: node.len_left + item_len,
                tid_left: Some(new_tid),
                sum_left: new_sum,
                ..node
            },
            Side::Right => Node {
                len_right: node.len_right + item_len,
                tid_right: Some(new_tid),
                sum_right: new_sum,
                ..node
            },
        };

        // Rule bound: valid for this node and every extension.
        let rub = bounds::rub_parts(
            child.sum_left,
            child.sum_right,
            child.len_left,
            child.len_right,
        );
        if self.cfg.use_rub && (rub <= self.best_gain || self.shared_prunes(rub)) {
            self.rub_prunes += 1;
            return;
        }

        let stack = &mut self.stacks[side.index()];
        let at = stack.partition_point(|&i| i < item);
        stack.insert(at, item);
        if let (Some(tl), Some(tr)) = (child.tid_left, child.tid_right) {
            self.evaluate(&child, [tl, tr]);
        }
        self.dfs(pos + 1, child);
        self.stacks[side.index()].remove(at);
    }

    /// Evaluates the three rules constructible at a node, behind the quick
    /// bound, from the pair on the stacks; `tids` are its two tidsets.
    ///
    /// The gains are composed exactly as [`CoverState::pair_gains`]
    /// composes them, from the same `column_net` terms in item order, so
    /// they are bit-identical.
    fn evaluate(&mut self, node: &Node<'_>, tids: [&Tidset; 2]) {
        if self.cfg.use_qub {
            let qub = bounds::qub_parts(
                tids[0].len() as f64,
                tids[1].len() as f64,
                node.len_left,
                node.len_right,
            );
            if qub <= self.best_gain || self.shared_prunes(qub) {
                self.qub_prunes += 1;
                return;
            }
        }
        let state = self.state;
        let codes = state.codes();
        // Side `t`'s items, each with its net firing into `t` from the
        // other side's tidset.
        let terms = |t: Side| {
            let antecedent = tids[t.opposite().index()];
            self.stacks[t.index()]
                .iter()
                .map(move |&i| (codes.item(i), state.column_net(t, antecedent, i)))
        };
        let g_fwd = weighted_nets(terms(Side::Right));
        let g_bwd = weighted_nets(terms(Side::Left));
        let len = |t: Side| {
            self.stacks[t.index()]
                .iter()
                .map(|&i| codes.item(i))
                .sum::<f64>()
        };
        let base = len(Side::Left) + len(Side::Right);
        let gains = rule_gains(g_fwd, g_bwd, base);

        let mut pair: Option<(ItemSet, ItemSet)> = None;
        for (gain, dir) in gains.into_iter().zip(Direction::ALL) {
            if gain > self.best_gain {
                self.best_gain = gain;
                let (left, right) = pair.get_or_insert_with(|| {
                    (
                        ItemSet::from_sorted(self.stacks[0].clone()),
                        ItemSet::from_sorted(self.stacks[1].clone()),
                    )
                });
                self.best = Some(TranslationRule::new(left.clone(), right.clone(), dir));
                self.publish(gain);
            }
        }
    }
}

/// `Σ_{t ∈ tids} weights[t]`, summed in tid order. Kept out of line: when
/// inlined into the DFS node, this loop compiled to a form about a third
/// slower on the clustered-runs cell's seeded capped search (2 vCPUs,
/// 3 interleaved rounds).
#[inline(never)]
fn tub_sum(weights: &[f64], tids: &Tidset) -> f64 {
    tids.iter().map(|t| weights[t]).sum()
}

/// Brute-force best-rule search for tests: enumerates every occurring
/// itemset pair and direction. Exponential; tiny inputs only.
pub fn brute_force_best_rule(state: &CoverState<'_>) -> Option<(TranslationRule, f64)> {
    let data = state.data();
    let vocab = data.vocab();
    let n_items = vocab.n_items();
    assert!(n_items <= 16, "brute force best-rule is for tiny data");
    let left_items: Vec<ItemId> = vocab.items_on(Side::Left).collect();
    let right_items: Vec<ItemId> = vocab.items_on(Side::Right).collect();
    let mut best: Option<(TranslationRule, f64)> = None;
    for lm in 1u32..(1 << left_items.len()) {
        let left: ItemSet = left_items
            .iter()
            .enumerate()
            .filter(|(k, _)| lm >> k & 1 == 1)
            .map(|(_, &i)| i)
            .collect();
        let lt = data.support_set(&left);
        if lt.is_empty() {
            continue;
        }
        for rm in 1u32..(1 << right_items.len()) {
            let right: ItemSet = right_items
                .iter()
                .enumerate()
                .filter(|(k, _)| rm >> k & 1 == 1)
                .map(|(_, &i)| i)
                .collect();
            let rt = data.support_set(&right);
            if rt.is_disjoint(&lt) {
                continue; // XY does not occur
            }
            let gains = state.pair_gains(&left, &right, &lt, &rt);
            for (gain, dir) in gains.into_iter().zip(Direction::ALL) {
                if gain > best.as_ref().map_or(0.0, |(_, g)| *g) {
                    best = Some((TranslationRule::new(left.clone(), right.clone(), dir), gain));
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn structured() -> TwoViewDataset {
        // {a,b} <-> {x,y} holds in most transactions; c/z are noise.
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
                vec![2],
                vec![0, 5],
            ],
        )
    }

    #[test]
    fn search_matches_brute_force() {
        let d = structured();
        let state = CoverState::new(&d);
        let fast = best_rule(&state, &ExactConfig::default());
        let slow = brute_force_best_rule(&state);
        let (_, fg) = fast.best.as_ref().expect("search finds a rule");
        let (_, sg) = slow.as_ref().expect("brute force finds a rule");
        assert!(
            (fg - sg).abs() < 1e-9,
            "gain mismatch: search {fg}, brute force {sg}"
        );
    }

    #[test]
    fn search_matches_brute_force_on_random_data() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..10 {
            let vocab = Vocabulary::unnamed(4, 4);
            let txs: Vec<Vec<ItemId>> = (0..15)
                .map(|_| (0..8).filter(|_| rng.gen_bool(0.45)).collect())
                .collect();
            let d = TwoViewDataset::from_transactions(vocab, &txs);
            let state = CoverState::new(&d);
            let fast = best_rule(&state, &ExactConfig::default());
            let slow = brute_force_best_rule(&state);
            match (&fast.best, &slow) {
                (Some((_, fg)), Some((_, sg))) => {
                    assert!((fg - sg).abs() < 1e-9, "trial {trial}: {fg} vs {sg}")
                }
                (None, None) => {}
                other => panic!("trial {trial}: disagreement {other:?}"),
            }
        }
    }

    #[test]
    fn pruning_does_not_change_the_result() {
        let d = structured();
        let state = CoverState::new(&d);
        let with = best_rule(&state, &ExactConfig::default());
        let without = best_rule(
            &state,
            &ExactConfig {
                use_rub: false,
                use_qub: false,
                ..ExactConfig::default()
            },
        );
        let (_, gw) = with.best.unwrap();
        let (_, gwo) = without.best.unwrap();
        assert!((gw - gwo).abs() < 1e-9);
        assert!(
            with.nodes <= without.nodes,
            "pruning should visit no more nodes"
        );
    }

    #[test]
    fn exact_model_compresses_structured_data() {
        let d = structured();
        let model = translator_exact(&d);
        assert!(!model.table.is_empty());
        assert!(model.compression_pct() < 100.0);
        assert!(!model.truncated);
        // The planted association must be captured by the first rule.
        let first = &model.table.rules()[0];
        assert!(first.left.contains(0) && first.left.contains(1));
        assert!(first.right.contains(3) && first.right.contains(4));
    }

    #[test]
    fn trace_is_monotone_decreasing_in_total_length() {
        let d = structured();
        let model = translator_exact(&d);
        let mut prev = f64::INFINITY;
        for step in &model.trace {
            assert!(step.l_total < prev, "L must strictly decrease");
            assert!(step.gain > 0.0);
            prev = step.l_total;
        }
    }

    #[test]
    fn node_cap_sets_truncated() {
        let d = structured();
        let cfg = ExactConfig {
            max_nodes: Some(2),
            ..ExactConfig::default()
        };
        let state = CoverState::new(&d);
        let out = best_rule(&state, &cfg);
        assert!(out.truncated);
    }

    #[test]
    fn max_rules_cap() {
        let d = structured();
        let cfg = ExactConfig {
            max_rules: Some(1),
            ..ExactConfig::default()
        };
        let model = translator_exact_with(&d, &cfg);
        assert!(model.table.len() <= 1);
    }

    #[test]
    fn parallel_fanout_is_bit_identical_uncapped() {
        // Explicit thread configs force the fan-out even on small data.
        // The uncapped search must return the *same rule* (not just the
        // same gain) for any thread count, including through the shared
        // bound's strict-< pruning.
        let mut rng = StdRng::seed_from_u64(1234);
        for trial in 0..10 {
            let vocab = Vocabulary::unnamed(5, 5);
            let txs: Vec<Vec<ItemId>> = (0..20)
                .map(|_| (0..10).filter(|_| rng.gen_bool(0.4)).collect())
                .collect();
            let d = TwoViewDataset::from_transactions(vocab, &txs);
            let serial = ExactConfig {
                n_threads: Some(1),
                ..ExactConfig::default()
            };
            let base = translator_exact_with(&d, &serial);
            for threads in [2, 4, 16] {
                let cfg = ExactConfig {
                    n_threads: Some(threads),
                    ..ExactConfig::default()
                };
                let par = translator_exact_with(&d, &cfg);
                assert_eq!(par.table, base.table, "trial {trial} threads {threads}");
                assert!(
                    (par.score.l_total - base.score.l_total).abs() < 1e-9,
                    "trial {trial} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_fanout_capped_is_identical_across_thread_counts() {
        // Node-capped runs use deterministic per-subtree budgets with the
        // shared bound off: every thread count > 1 must agree exactly.
        let d = structured();
        let capped = |threads| ExactConfig {
            max_nodes: Some(10),
            n_threads: Some(threads),
            ..ExactConfig::default()
        };
        let two = translator_exact_with(&d, &capped(2));
        for threads in [3, 4, 8] {
            let other = translator_exact_with(&d, &capped(threads));
            assert_eq!(two.table, other.table, "threads {threads}");
            assert_eq!(two.truncated, other.truncated);
        }
    }

    #[test]
    fn no_rule_on_association_free_data() {
        // Left and right views are completely unrelated and each item is
        // too rare for a rule to pay for itself.
        let vocab = Vocabulary::unnamed(4, 4);
        let d = TwoViewDataset::from_transactions(
            vocab,
            &[vec![0, 4], vec![1, 5], vec![2, 6], vec![3, 7]],
        );
        let model = translator_exact(&d);
        assert!(
            model.table.is_empty(),
            "found spurious rules: {:?}",
            model.table.rules()
        );
    }
}
