//! Differential tests of the two depth-first searches on the fit path
//! against straightforward reference versions kept here.
//!
//! * [`reference_closed`] is the closed miner with every duplicate and
//!   absorb decision made by a column `is_subset`: the duplicate check
//!   scans a `pre` list of the items an earlier branch owns, the absorb
//!   check scans the later items. The library settles the same decisions
//!   from per-transaction item masks.
//! * [`reference_best_rule`] is the EXACT search with an item `Vec`, an
//!   owned tidset per side and fresh `ItemSet`s at every node, scoring
//!   each evaluated pair with `CoverState::pair_gains`. The library
//!   borrows tidsets and keeps the pair on two sorted item stacks.
//!
//! Both must agree with the library exactly: the miner in order, items,
//! supports and truncation; the search in rule, gain bits, node count and
//! truncation. The inputs are sized to reach what the brute-force tests
//! cannot: more than 64 frequent items (a second mask word) and
//! extensions with hundreds of rows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use twoview::core::bounds::{qub_parts, rub_parts};
use twoview::core::exact::{best_rule, ExactConfig};
use twoview::core::CoverState;
use twoview::mining::{mine_closed, FrequentItemset, MiningResult};
use twoview::prelude::*;

// ------------------------------------------------------------ closed miner

/// Closed frequent itemsets in the library's enumeration order, decided
/// by column subset checks only. Serial; the fanned-out miner
/// concatenates per-root segments into this same order.
fn reference_closed(data: &TwoViewDataset, cfg: &MinerConfig) -> MiningResult {
    let minsup = cfg.minsup.max(1);
    let mut items: Vec<ItemId> = (0..data.vocab().n_items() as ItemId)
        .filter(|&i| data.support(i) >= minsup)
        .collect();
    items.sort_unstable_by_key(|&i| data.support(i));
    let mut out = MiningResult {
        itemsets: Vec::new(),
        truncated: false,
    };
    for pos in 0..items.len() {
        let item = items[pos];
        let ti = data.tidset(item);
        if items[..pos].iter().any(|&j| ti.is_subset(data.tidset(j))) {
            continue;
        }
        let mut child_post = Vec::new();
        let mut closure = vec![item];
        for &j in &items[pos + 1..] {
            if ti.is_subset(data.tidset(j)) {
                closure.push(j);
            } else {
                child_post.push(j);
            }
        }
        if out.itemsets.len() >= cfg.max_itemsets {
            out.truncated = true;
            return out;
        }
        out.itemsets.push(FrequentItemset {
            items: ItemSet::from_items(closure.iter().copied()),
            support: ti.len(),
        });
        reference_closed_dfs(
            data,
            minsup,
            cfg.max_itemsets,
            ti,
            &child_post,
            &items[..pos],
            &mut closure,
            &mut out,
        );
        if out.truncated {
            return out;
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn reference_closed_dfs(
    data: &TwoViewDataset,
    minsup: usize,
    max_itemsets: usize,
    tid: &Tidset,
    post: &[ItemId],
    pre: &[ItemId],
    closure: &mut Vec<ItemId>,
    out: &mut MiningResult,
) {
    let mut pre_local: Vec<ItemId> = pre.to_vec();
    for (pos, &i) in post.iter().enumerate() {
        let ts = data.tidset(i);
        let support = tid.intersection_len(ts);
        if support < minsup {
            continue;
        }
        let ti = tid.and_with_card(ts, support);
        if pre_local.iter().any(|&j| ti.is_subset(data.tidset(j))) {
            pre_local.push(i);
            continue;
        }
        let mut child_post = Vec::new();
        let mut absorbed = Vec::new();
        for &j in &post[pos + 1..] {
            if ti.is_subset(data.tidset(j)) {
                absorbed.push(j);
            } else {
                child_post.push(j);
            }
        }
        let before = closure.len();
        closure.push(i);
        closure.extend_from_slice(&absorbed);
        if out.itemsets.len() >= max_itemsets {
            out.truncated = true;
            closure.truncate(before);
            return;
        }
        out.itemsets.push(FrequentItemset {
            items: ItemSet::from_items(closure.iter().copied()),
            support,
        });
        reference_closed_dfs(
            data,
            minsup,
            max_itemsets,
            &ti,
            &child_post,
            &pre_local,
            closure,
            out,
        );
        closure.truncate(before);
        if out.truncated {
            return;
        }
        pre_local.push(i);
    }
}

/// 70–90 items over 100–400 rows. A few items are near-universal
/// (density 0.93–0.99), so they stay in an extension's mask for many rows
/// and are often absorbed; a few are heavy (0.3–0.7), giving extensions
/// hundreds of rows; the rest are light (0.04–0.12). One planted pair of
/// itemsets adds closed sets that span both views.
fn mining_input(rng: &mut StdRng) -> (TwoViewDataset, usize) {
    let n_left = rng.gen_range(35..=45);
    let n_right = rng.gen_range(35..=45);
    let n_items = n_left + n_right;
    let rows = rng.gen_range(100..=400);
    let density: Vec<f64> = (0..n_items)
        .map(|i| match i % 17 {
            3 => rng.gen_range(0.93..0.99),
            8 | 13 => rng.gen_range(0.3..0.7),
            _ => rng.gen_range(0.04..0.12),
        })
        .collect();
    let txs: Vec<Vec<ItemId>> = (0..rows)
        .map(|_| {
            let mut t: Vec<ItemId> = (0..n_items)
                .filter(|&i| rng.gen_bool(density[i]))
                .map(|i| i as ItemId)
                .collect();
            if rng.gen_bool(0.2) {
                t.extend([1, 2, n_left as ItemId + 1, n_left as ItemId + 2]);
                t.sort_unstable();
                t.dedup();
            }
            t
        })
        .collect();
    let data = TwoViewDataset::from_transactions(Vocabulary::unnamed(n_left, n_right), &txs);
    let minsup = rows / 40 + 2;
    (data, minsup)
}

#[test]
fn closed_miner_matches_reference() {
    let mut rng = StdRng::seed_from_u64(2016);
    let mut wide = 0;
    for trial in 0..6 {
        let (data, minsup) = mining_input(&mut rng);
        let frequent = (0..data.vocab().n_items() as ItemId)
            .filter(|&i| data.support(i) >= minsup)
            .count();
        wide += usize::from(frequent > 64);
        for max_itemsets in [1, 7, usize::MAX] {
            let serial = MinerConfig {
                max_itemsets,
                n_threads: Some(1),
                ..MinerConfig::builder().minsup(minsup).build()
            };
            let want = reference_closed(&data, &serial);
            for threads in [1, 2, 4] {
                let cfg = MinerConfig {
                    n_threads: Some(threads),
                    ..serial.clone()
                };
                let got = mine_closed(&data, &cfg);
                assert_eq!(
                    got.itemsets, want.itemsets,
                    "trial {trial} cap {max_itemsets} threads {threads}"
                );
                assert_eq!(
                    got.truncated, want.truncated,
                    "trial {trial} cap {max_itemsets} threads {threads}"
                );
            }
        }
    }
    assert!(wide >= 3, "only {wide} inputs span a second mask word");
}

// ------------------------------------------------------------ EXACT search

/// What one best-rule search returns.
#[derive(Debug)]
struct RefOutcome {
    best: Option<(TranslationRule, f64)>,
    nodes: u64,
    truncated: bool,
}

struct RefNode {
    left: Vec<ItemId>,
    right: Vec<ItemId>,
    len_left: f64,
    len_right: f64,
    tid_left: Option<Tidset>,
    tid_right: Option<Tidset>,
    sum_left: f64,
    sum_right: f64,
}

struct RefSearch<'a, 'd> {
    state: &'a CoverState<'d>,
    cfg: &'a ExactConfig,
    items: &'a [ItemId],
    best: Option<TranslationRule>,
    best_gain: f64,
    nodes: u64,
    truncated: bool,
    node_cap: Option<u64>,
}

impl RefSearch<'_, '_> {
    fn seed_with_singleton_pairs(&mut self) {
        let data = self.state.data();
        let vocab = data.vocab();
        let on = |side| -> Vec<ItemId> {
            self.items
                .iter()
                .copied()
                .filter(|&i| vocab.side_of(i) == side)
                .collect()
        };
        let (left_items, right_items) = (on(Side::Left), on(Side::Right));
        for &i in &left_items {
            let ti = data.tidset(i);
            let left = ItemSet::singleton(i);
            let len_left = self.state.codes().item(i);
            for &j in &right_items {
                let tj = data.tidset(j);
                if ti.is_disjoint(tj) {
                    continue;
                }
                let len_right = self.state.codes().item(j);
                let qub = qub_parts(ti.len() as f64, tj.len() as f64, len_left, len_right);
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

    fn dfs(&mut self, start: usize, node: &RefNode) {
        for pos in start..self.items.len() {
            if self.truncated {
                return;
            }
            self.visit(pos, node);
        }
    }

    fn visit(&mut self, pos: usize, node: &RefNode) {
        let data = self.state.data();
        let item = self.items[pos];
        let side = data.vocab().side_of(item);
        self.nodes += 1;
        if self.node_cap.is_some_and(|cap| self.nodes > cap) {
            self.truncated = true;
            return;
        }
        let (tid, other_tid) = match side {
            Side::Left => (&node.tid_left, &node.tid_right),
            Side::Right => (&node.tid_right, &node.tid_left),
        };
        let ts = data.tidset(item);
        let new_tid = match tid {
            Some(t) if t.is_disjoint(ts) => return,
            Some(t) => t.and(ts),
            None if ts.is_empty() => return,
            None => ts.clone(),
        };
        if other_tid.as_ref().is_some_and(|o| new_tid.is_disjoint(o)) {
            return;
        }
        let opp = side.opposite();
        let new_sum: f64 = new_tid
            .iter()
            .map(|t| self.state.uncovered_weight(opp, t))
            .sum();
        let item_len = self.state.codes().item(item);
        let pushed = |items: &[ItemId]| {
            let mut v = items.to_vec();
            v.push(item);
            v
        };
        let child = match side {
            Side::Left => RefNode {
                left: pushed(&node.left),
                right: node.right.clone(),
                len_left: node.len_left + item_len,
                len_right: node.len_right,
                tid_left: Some(new_tid),
                tid_right: node.tid_right.clone(),
                sum_left: new_sum,
                sum_right: node.sum_right,
            },
            Side::Right => RefNode {
                left: node.left.clone(),
                right: pushed(&node.right),
                len_left: node.len_left,
                len_right: node.len_right + item_len,
                tid_left: node.tid_left.clone(),
                tid_right: Some(new_tid),
                sum_left: node.sum_left,
                sum_right: new_sum,
            },
        };
        let rub = rub_parts(
            child.sum_left,
            child.sum_right,
            child.len_left,
            child.len_right,
        );
        if self.cfg.use_rub && rub <= self.best_gain {
            return;
        }
        if !child.left.is_empty() && !child.right.is_empty() {
            self.evaluate(&child);
        }
        self.dfs(pos + 1, &child);
    }

    fn evaluate(&mut self, node: &RefNode) {
        let tid_left = node.tid_left.as_ref().expect("X non-empty");
        let tid_right = node.tid_right.as_ref().expect("Y non-empty");
        if self.cfg.use_qub {
            let qub = qub_parts(
                tid_left.len() as f64,
                tid_right.len() as f64,
                node.len_left,
                node.len_right,
            );
            if qub <= self.best_gain {
                return;
            }
        }
        let left = ItemSet::from_items(node.left.iter().copied());
        let right = ItemSet::from_items(node.right.iter().copied());
        let gains = self.state.pair_gains(&left, &right, tid_left, tid_right);
        for (gain, dir) in gains.into_iter().zip(Direction::ALL) {
            if gain > self.best_gain {
                self.best_gain = gain;
                self.best = Some(TranslationRule::new(left.clone(), right.clone(), dir));
            }
        }
    }
}

/// `best_rule` with per-node item `Vec`s, owned tidsets and `pair_gains`.
/// A fanned-out capped search is replayed serially: every root subtree
/// on its own `cap / roots` budget from the seeded incumbent, merged in
/// root order with strict improvement. An uncapped fan-out returns the
/// serial rule, so the serial search stands in for it (its node count
/// depends on timing and is not compared).
fn reference_best_rule(state: &CoverState<'_>, cfg: &ExactConfig) -> RefOutcome {
    let data = state.data();
    let vocab = data.vocab();
    let mut order: Vec<(ItemId, f64)> = (0..vocab.n_items() as ItemId)
        .filter(|&i| data.support(i) > 0)
        .map(|i| {
            let opp = vocab.side_of(i).opposite();
            let bound: f64 = data
                .tidset(i)
                .iter()
                .map(|t| state.uncovered_weight(opp, t))
                .sum();
            (i, bound)
        })
        .collect();
    order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let items: Vec<ItemId> = order.into_iter().map(|(i, _)| i).collect();
    let root = || RefNode {
        left: Vec::new(),
        right: Vec::new(),
        len_left: 0.0,
        len_right: 0.0,
        tid_left: None,
        tid_right: None,
        sum_left: state.uncovered_weights(Side::Right).iter().sum(),
        sum_right: state.uncovered_weights(Side::Left).iter().sum(),
    };
    let search = |node_cap| RefSearch {
        state,
        cfg,
        items: &items,
        best: None,
        best_gain: 0.0,
        nodes: 0,
        truncated: false,
        node_cap,
    };
    let mut seeded = search(cfg.max_nodes);
    seeded.seed_with_singleton_pairs();
    let fanout = items.len() >= 2
        && match cfg.n_threads {
            Some(t) => t > 1,
            None => items.len() >= 24,
        };
    match cfg.max_nodes {
        Some(cap) if fanout => {
            let budget = (cap / items.len() as u64).max(1);
            let (mut best, mut best_gain) = (seeded.best, seeded.best_gain);
            let (mut nodes, mut truncated) = (0, false);
            for pos in 0..items.len() {
                let mut sub = search(Some(budget));
                sub.best_gain = seeded.best_gain;
                sub.visit(pos, &root());
                nodes += sub.nodes;
                truncated |= sub.truncated;
                if let Some(rule) = sub.best {
                    if sub.best_gain > best_gain {
                        best_gain = sub.best_gain;
                        best = Some(rule);
                    }
                }
            }
            RefOutcome {
                best: best.map(|r| (r, best_gain)),
                nodes,
                truncated,
            }
        }
        _ => {
            seeded.dfs(0, &root());
            RefOutcome {
                best: seeded.best.map(|r| (r, seeded.best_gain)),
                nodes: seeded.nodes,
                truncated: seeded.truncated,
            }
        }
    }
}

/// Random two-view data with a planted association, `n_left + n_right`
/// items over `rows` transactions.
fn exact_input(rng: &mut StdRng, n_left: usize, n_right: usize, rows: usize) -> TwoViewDataset {
    let n_items = n_left + n_right;
    let txs: Vec<Vec<ItemId>> = (0..rows)
        .map(|_| {
            let mut t: Vec<ItemId> = (0..n_items as ItemId)
                .filter(|_| rng.gen_bool(0.3))
                .collect();
            if rng.gen_bool(0.35) {
                t.extend([0, 1, n_left as ItemId, n_left as ItemId + 1]);
                t.sort_unstable();
                t.dedup();
            }
            t
        })
        .collect();
    TwoViewDataset::from_transactions(Vocabulary::unnamed(n_left, n_right), &txs)
}

/// Runs `best_rule` and the reference on `data` after 0–3 rules (each
/// step applies the rule found), comparing rule, gain bits, truncation
/// and, where the visited set is deterministic, the node count.
fn check_exact(data: &TwoViewDataset, cfg: &ExactConfig, label: &str) {
    let fanout_uncapped = cfg.max_nodes.is_none() && cfg.n_threads.is_some_and(|t| t > 1);
    let mut state = CoverState::new(data);
    for step in 0..4 {
        let got = best_rule(&state, cfg);
        let want = reference_best_rule(&state, cfg);
        let bits =
            |b: &Option<(TranslationRule, f64)>| b.as_ref().map(|(r, g)| (r.clone(), g.to_bits()));
        assert_eq!(bits(&got.best), bits(&want.best), "{label} step {step}");
        assert_eq!(got.truncated, want.truncated, "{label} step {step}");
        if !fanout_uncapped {
            assert_eq!(got.nodes, want.nodes, "{label} step {step}");
        }
        match want.best {
            Some((rule, gain)) if gain > 0.0 => state.apply_rule(rule),
            _ => break,
        }
    }
}

#[test]
fn exact_search_matches_reference_uncapped() {
    let mut rng = StdRng::seed_from_u64(52);
    for trial in 0..8 {
        let rows = rng.gen_range(20..=60);
        let data = exact_input(&mut rng, 5, 5, rows);
        for (rub, qub) in [(true, true), (false, true), (true, false), (false, false)] {
            for threads in [1, 2] {
                let cfg = ExactConfig {
                    use_rub: rub,
                    use_qub: qub,
                    n_threads: Some(threads),
                    ..ExactConfig::default()
                };
                check_exact(
                    &data,
                    &cfg,
                    &format!("trial {trial} rub {rub} qub {qub} threads {threads}"),
                );
            }
        }
    }
}

#[test]
fn exact_search_matches_reference_capped() {
    let mut rng = StdRng::seed_from_u64(53);
    for trial in 0..6 {
        let rows = rng.gen_range(60..=200);
        let data = exact_input(&mut rng, 12, 12, rows);
        for cap in [50, 1_000, 20_000] {
            for (rub, qub) in [(true, true), (false, true), (true, false)] {
                for threads in [1, 2, 4] {
                    let cfg = ExactConfig {
                        max_nodes: Some(cap),
                        use_rub: rub,
                        use_qub: qub,
                        n_threads: Some(threads),
                        ..ExactConfig::default()
                    };
                    check_exact(
                        &data,
                        &cfg,
                        &format!("trial {trial} cap {cap} rub {rub} qub {qub} threads {threads}"),
                    );
                }
            }
        }
    }
}
