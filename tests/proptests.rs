//! Property-based tests over the core invariants of the reproduction.
//!
//! These check, on randomly generated datasets and models:
//! * bitmaps agree with a `HashSet` reference model;
//! * translation is lossless for *any* table;
//! * the incremental cover state always matches a from-scratch rebuild and
//!   the standalone TRANSLATE scheme;
//! * the gain of a rule equals the actual drop in total encoded size;
//! * the miners agree with brute-force enumeration;
//! * the exact search returns the true best rule.

use proptest::prelude::*;
use std::collections::HashSet;

use twoview::core::exact::{best_rule, brute_force_best_rule, ExactConfig};
use twoview::core::select::{translator_select_candidates, SelectConfig};
use twoview::core::{translate, CoverState, RowCoverState};
use twoview::mining::closed::brute_force_closed;
use twoview::mining::eclat::brute_force_frequent;
use twoview::prelude::*;

// ---------------------------------------------------------------- bitmaps

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmap_matches_hashset_model(
        a in proptest::collection::vec(0usize..200, 0..60),
        b in proptest::collection::vec(0usize..200, 0..60),
    ) {
        let ba = Bitmap::from_indices(200, a.iter().copied());
        let bb = Bitmap::from_indices(200, b.iter().copied());
        let sa: HashSet<usize> = a.iter().copied().collect();
        let sb: HashSet<usize> = b.iter().copied().collect();

        prop_assert_eq!(ba.len(), sa.len());
        let and: HashSet<usize> = sa.intersection(&sb).copied().collect();
        let or: HashSet<usize> = sa.union(&sb).copied().collect();
        let xor: HashSet<usize> = sa.symmetric_difference(&sb).copied().collect();
        let diff: HashSet<usize> = sa.difference(&sb).copied().collect();

        prop_assert_eq!(ba.and(&bb).to_vec(), sorted(&and));
        prop_assert_eq!(ba.or(&bb).to_vec(), sorted(&or));
        prop_assert_eq!(ba.xor(&bb).to_vec(), sorted(&xor));
        prop_assert_eq!(ba.and_not(&bb).to_vec(), sorted(&diff));
        prop_assert_eq!(ba.intersection_len(&bb), and.len());
        prop_assert_eq!(ba.union_len(&bb), or.len());
        prop_assert_eq!(ba.is_subset(&bb), sa.is_subset(&sb));
        prop_assert_eq!(ba.is_disjoint(&bb), sa.is_disjoint(&sb));
    }

    /// Every in-place / non-allocating kernel operation agrees with its
    /// allocating counterpart — the contract the miners and the cover state
    /// rely on after the consolidation onto the `Bitmap` kernel.
    #[test]
    fn bitmap_in_place_ops_match_allocating(
        a in proptest::collection::vec(0usize..200, 0..60),
        b in proptest::collection::vec(0usize..200, 0..60),
        c in proptest::collection::vec(0usize..200, 0..60),
    ) {
        let ba = Bitmap::from_indices(200, a.iter().copied());
        let bb = Bitmap::from_indices(200, b.iter().copied());
        let bc = Bitmap::from_indices(200, c.iter().copied());

        let mut x = ba.clone();
        x.intersect_with(&bb);
        prop_assert_eq!(&x, &ba.and(&bb), "intersect_with");
        let mut x = ba.clone();
        x.union_with(&bb);
        prop_assert_eq!(&x, &ba.or(&bb), "union_with");
        let mut x = ba.clone();
        x.xor_with(&bb);
        prop_assert_eq!(&x, &ba.xor(&bb), "xor_with");
        let mut x = ba.clone();
        x.subtract(&bb);
        prop_assert_eq!(&x, &ba.and_not(&bb), "subtract");

        let mut out = bc.clone(); // stale contents must be overwritten
        ba.and_into(&bb, &mut out);
        prop_assert_eq!(&out, &ba.and(&bb), "and_into");
        let mut copy = Bitmap::new(200);
        copy.copy_from(&ba);
        prop_assert_eq!(&copy, &ba, "copy_from");

        prop_assert_eq!(ba.intersection_len(&bb), ba.and(&bb).len());
        prop_assert_eq!(
            ba.iter_and(&bb).collect::<Vec<_>>(),
            ba.and(&bb).to_vec(),
            "iter_and"
        );
        prop_assert_eq!(
            ba.iter_and_not(&bb).collect::<Vec<_>>(),
            ba.and_not(&bb).to_vec(),
            "iter_and_not"
        );
        prop_assert_eq!(
            ba.and_is_subset(&bb, &bc),
            ba.and(&bb).is_subset(&bc),
            "and_is_subset"
        );

        let weights: Vec<f64> = (0..200).map(|i| (i + 1) as f64).collect();
        let direct: f64 = ba.and_not(&bb).iter().map(|i| weights[i]).sum();
        prop_assert!((ba.difference_weight(&bb, &weights) - direct).abs() < 1e-9);
        let full: f64 = ba.iter().map(|i| weights[i]).sum();
        prop_assert!((ba.weighted_len(&weights) - full).abs() < 1e-9);
    }

    #[test]
    fn itemset_ops_match_sets(
        a in proptest::collection::vec(0u32..30, 0..12),
        b in proptest::collection::vec(0u32..30, 0..12),
    ) {
        let ia = ItemSet::from_items(a.iter().copied());
        let ib = ItemSet::from_items(b.iter().copied());
        let sa: HashSet<u32> = a.iter().copied().collect();
        let sb: HashSet<u32> = b.iter().copied().collect();
        prop_assert_eq!(
            ia.union(&ib).as_slice().to_vec(),
            sorted32(&sa.union(&sb).copied().collect())
        );
        prop_assert_eq!(
            ia.intersect(&ib).as_slice().to_vec(),
            sorted32(&sa.intersection(&sb).copied().collect())
        );
        prop_assert_eq!(ia.is_subset(&ib), sa.is_subset(&sb));
        prop_assert_eq!(ia.is_disjoint(&ib), sa.is_disjoint(&sb));
    }
}

fn sorted(s: &HashSet<usize>) -> Vec<usize> {
    let mut v: Vec<usize> = s.iter().copied().collect();
    v.sort_unstable();
    v
}

fn sorted32(s: &HashSet<u32>) -> Vec<u32> {
    let mut v: Vec<u32> = s.iter().copied().collect();
    v.sort_unstable();
    v
}

// ------------------------------------------------- datasets + rules strategy

/// A random small two-view dataset: 3-5 left items, 3-5 right items,
/// 4-20 transactions with ~40% density.
fn dataset_strategy() -> impl Strategy<Value = TwoViewDataset> {
    (3usize..=5, 3usize..=5, 4usize..=20, 0u64..10_000).prop_map(|(nl, nr, n, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = Vocabulary::unnamed(nl, nr);
        let txs: Vec<Vec<ItemId>> = (0..n)
            .map(|_| {
                (0..(nl + nr) as ItemId)
                    .filter(|_| rng.gen_bool(0.4))
                    .collect()
            })
            .collect();
        TwoViewDataset::from_transactions(vocab, &txs)
    })
}

/// Random rules valid for a dataset of the given dimensions (only occurring
/// itemsets are interesting, but validity must hold for any rule).
fn rules_for(data: &TwoViewDataset, seed: u64, k: usize) -> Vec<TranslationRule> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = data.vocab();
    (0..k)
        .filter_map(|_| {
            let nl = rng.gen_range(1..=2.min(vocab.n_left()));
            let nr = rng.gen_range(1..=2.min(vocab.n_right()));
            let left: ItemSet = (0..nl)
                .map(|_| rng.gen_range(0..vocab.n_left()) as ItemId)
                .collect();
            let right: ItemSet = (0..nr)
                .map(|_| (vocab.n_left() + rng.gen_range(0..vocab.n_right())) as ItemId)
                .collect();
            // Only itemsets occurring in the data are eligible (paper: rules
            // must occur); skip others.
            if data.support_count(&left) == 0 || data.support_count(&right) == 0 {
                return None;
            }
            let dir = match rng.gen_range(0..3) {
                0 => Direction::Forward,
                1 => Direction::Backward,
                _ => Direction::Both,
            };
            Some(TranslationRule::new(left, right, dir))
        })
        .collect()
}

/// SELECT(k) over `candidates` with every rule gain recomputed by
/// `CoverState::pair_gains` each round: the positive gains ranked by gain,
/// then candidate, then direction; the best `k` added in that order,
/// skipping any that share an item with a rule added earlier in the round.
/// Returns the rules, their gains and the final total length.
fn reference_select(
    data: &TwoViewDataset,
    candidates: &[twoview::mining::TwoViewCandidate],
    k: usize,
) -> (Vec<TranslationRule>, Vec<f64>, f64) {
    let tids: Vec<_> = candidates
        .iter()
        .map(|c| (data.support_set(&c.left), data.support_set(&c.right)))
        .collect();
    let mut state = CoverState::new(data);
    let (mut rules, mut gains) = (Vec::new(), Vec::new());
    loop {
        let mut entries: Vec<(f64, usize, Direction)> = Vec::new();
        for (idx, (c, (lt, rt))) in candidates.iter().zip(&tids).enumerate() {
            let g = state.pair_gains(&c.left, &c.right, lt, rt);
            for (gain, dir) in g.into_iter().zip(Direction::ALL) {
                if gain > 0.0 {
                    entries.push((gain, idx, dir));
                }
            }
        }
        if entries.is_empty() {
            break;
        }
        entries.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        entries.truncate(k);
        let mut used = HashSet::new();
        for (gain, idx, dir) in entries {
            let c = &candidates[idx];
            if c.left
                .iter()
                .chain(c.right.iter())
                .any(|i| used.contains(&i))
            {
                continue;
            }
            used.extend(c.left.iter().chain(c.right.iter()));
            let rule = TranslationRule::new(c.left.clone(), c.right.clone(), dir);
            state.apply_rule(rule.clone());
            rules.push(rule);
            gains.push(gain);
        }
    }
    let l_total = state.total_length();
    (rules, gains, l_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn translation_is_always_lossless(
        data in dataset_strategy(),
        seed in 0u64..1_000,
    ) {
        let rules = rules_for(&data, seed, 4);
        let table = TranslationTable::from_rules(rules);
        prop_assert_eq!(translate::check_lossless(&data, &table), None);
    }

    #[test]
    fn cover_state_matches_translate_and_rebuild(
        data in dataset_strategy(),
        seed in 0u64..1_000,
    ) {
        let rules = rules_for(&data, seed, 4);
        let mut state = CoverState::new(&data);
        for r in &rules {
            state.apply_rule(r.clone());
        }
        // Internal consistency.
        prop_assert_eq!(state.verify(1e-6), None);
        // Corrections equal the XOR corrections of standalone TRANSLATE
        // (batched: one direction-restricted pass per side).
        let table = state.table().clone();
        let right_corrections = translate::correction_rows(&data, &table, Side::Left);
        let left_corrections = translate::correction_rows(&data, &table, Side::Right);
        for t in 0..data.n_transactions() {
            prop_assert_eq!(
                state.correction_row(Side::Right, t),
                right_corrections[t].clone()
            );
            prop_assert_eq!(
                state.correction_row(Side::Left, t),
                left_corrections[t].clone()
            );
        }
    }

    #[test]
    fn gain_equals_actual_length_drop(
        data in dataset_strategy(),
        seed in 0u64..1_000,
    ) {
        let rules = rules_for(&data, seed, 5);
        let mut state = CoverState::new(&data);
        for r in rules {
            let predicted = state.rule_gain(&r);
            let before = state.total_length();
            state.apply_rule(r);
            let actual = before - state.total_length();
            prop_assert!(
                (predicted - actual).abs() < 1e-6,
                "predicted {} vs actual {}", predicted, actual
            );
        }
    }

    /// The columnar cover state and the row-major reference implementation
    /// are interchangeable: for any random rule sequence, per-rule gains,
    /// all encoded-length totals, tub columns and reconstructed correction
    /// rows agree, and the columnar invariants hold throughout.
    #[test]
    fn columnar_cover_state_matches_row_reference(
        data in dataset_strategy(),
        seed in 0u64..1_000,
    ) {
        let rules = rules_for(&data, seed, 5);
        let mut col = CoverState::new(&data);
        let mut row = RowCoverState::new(&data);
        prop_assert!((col.total_length() - row.total_length()).abs() < 1e-9);
        for r in &rules {
            let lt = data.support_set(&r.left);
            let rt = data.support_set(&r.right);
            let gc = col.pair_gains(&r.left, &r.right, &lt, &rt);
            let gr = row.pair_gains(&r.left, &r.right, &lt, &rt);
            for (a, b) in gc.iter().zip(gr) {
                prop_assert!((a - b).abs() < 1e-6, "gain {} vs {}", a, b);
            }
            col.apply_rule(r.clone());
            row.apply_rule(r.clone());
            prop_assert!((col.total_length() - row.total_length()).abs() < 1e-6);
            for side in Side::BOTH {
                prop_assert!(
                    (col.l_correction(side) - row.l_correction(side)).abs() < 1e-6
                );
                prop_assert_eq!(col.n_uncovered(side), row.n_uncovered(side));
                prop_assert_eq!(col.n_errors(side), row.n_errors(side));
            }
        }
        // verify() also cross-checks tub columns and correction rows
        // against a RowCoverState rebuilt from the same table.
        prop_assert_eq!(col.verify(1e-6), None);
    }

    /// SELECT is model-identical across refresh thread counts, and to a
    /// reference loop that recomputes every gain from scratch each round
    /// with no gain table and no `rub` pruning: same rules in the same
    /// order, bit-identical trace gains.
    #[test]
    fn select_identical_across_threads_and_rub(data in dataset_strategy(), k in 1usize..4) {
        let mined = twoview::mining::mine_closed_twoview(
            &data,
            &MinerConfig::builder().minsup(1).build(),
        );
        let base = translator_select_candidates(
            &data,
            &SelectConfig { n_threads: Some(1), ..SelectConfig::builder().k(k).minsup(1).build() },
            &mined.candidates,
        );
        for t in [2, 4] {
            let other = translator_select_candidates(
                &data,
                &SelectConfig { n_threads: Some(t), ..SelectConfig::builder().k(k).minsup(1).build() },
                &mined.candidates,
            );
            prop_assert_eq!(&base.table, &other.table, "{} threads", t);
            prop_assert!((base.score.l_total - other.score.l_total).abs() < 1e-9);
        }

        let (rules, gains, l_total) = reference_select(&data, &mined.candidates, k);
        prop_assert_eq!(base.table.rules(), &rules[..]);
        let base_gains: Vec<u64> = base.trace.iter().map(|s| s.gain.to_bits()).collect();
        let ref_gains: Vec<u64> = gains.iter().map(|g| g.to_bits()).collect();
        prop_assert_eq!(base_gains, ref_gains);
        prop_assert!((base.score.l_total - l_total).abs() < 1e-9);
    }

    #[test]
    fn miners_match_brute_force(data in dataset_strategy(), minsup in 1usize..4) {
        let cfg = MinerConfig::builder().minsup(minsup).build();
        let fast = twoview::mining::mine_frequent(&data, &cfg);
        let slow = brute_force_frequent(&data, &cfg);
        prop_assert_eq!(canon(&fast.itemsets), canon(&slow));

        let fast_closed = twoview::mining::mine_closed(&data, &cfg);
        let slow_closed = brute_force_closed(&data, &cfg);
        prop_assert_eq!(canon(&fast_closed.itemsets), canon(&slow_closed));
    }

    #[test]
    fn exact_search_is_optimal(data in dataset_strategy()) {
        let state = CoverState::new(&data);
        let cfg = ExactConfig { candidate_seed_minsup: None, ..ExactConfig::default() };
        let fast = best_rule(&state, &cfg);
        let slow = brute_force_best_rule(&state);
        match (fast.best, slow) {
            (Some((_, fg)), Some((_, sg))) => prop_assert!((fg - sg).abs() < 1e-9),
            (None, None) => {}
            (f, s) => prop_assert!(false, "disagreement: {:?} vs {:?}", f, s),
        }
    }

    #[test]
    fn model_scores_are_internally_consistent(
        data in dataset_strategy(),
        seed in 0u64..1_000,
    ) {
        let rules = rules_for(&data, seed, 3);
        let table = TranslationTable::from_rules(rules);
        let score = evaluate_table(&data, &table);
        prop_assert!(
            (score.l_total - (score.l_table + score.l_correction_left + score.l_correction_right))
                .abs() < 1e-6
        );
        prop_assert!(score.correction_ones <= score.total_cells);
        // Empty table scores exactly 100%.
        let empty = evaluate_table(&data, &TranslationTable::new());
        if empty.l_empty > 0.0 {
            prop_assert!((empty.compression_pct() - 100.0).abs() < 1e-9);
        }
    }
}

fn canon(v: &[twoview::mining::FrequentItemset]) -> Vec<(Vec<ItemId>, usize)> {
    let mut out: Vec<(Vec<ItemId>, usize)> = v
        .iter()
        .map(|f| (f.items.as_slice().to_vec(), f.support))
        .collect();
    out.sort();
    out
}

// ------------------------------------------- runtime thread determinism

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SELECT, GREEDY, EXACT, and the eclat/closed miners all produce
    /// bit-identical output across thread counts {1, 2, max} through the
    /// persistent pool.
    #[test]
    fn algorithms_identical_across_thread_counts(
        data in dataset_strategy(),
        k in 1usize..3,
    ) {
        use twoview::core::exact::translator_exact_with;
        use twoview::core::greedy::{translator_greedy, GreedyConfig};
        use twoview::core::select::translator_select;
        let max_t = twoview::runtime::configured_threads().max(4);
        let thread_counts = [1usize, 2, max_t];

        // Miners: itemset lists must match exactly, order included.
        let mcfg = |t: usize| MinerConfig {
            n_threads: Some(t),
            ..MinerConfig::builder().minsup(1).build()
        };
        let base_freq = twoview::mining::mine_frequent(&data, &mcfg(1));
        let base_closed = twoview::mining::mine_closed(&data, &mcfg(1));
        for &t in &thread_counts[1..] {
            let freq = twoview::mining::mine_frequent(&data, &mcfg(t));
            prop_assert_eq!(&freq.itemsets, &base_freq.itemsets, "eclat, {} threads", t);
            let closed = twoview::mining::mine_closed(&data, &mcfg(t));
            prop_assert_eq!(&closed.itemsets, &base_closed.itemsets, "closed, {} threads", t);
        }

        // SELECT: serial vs pool.
        let select_base = translator_select(
            &data,
            &SelectConfig { n_threads: Some(1), ..SelectConfig::builder().k(k).minsup(1).build() },
        );
        for &t in &thread_counts[1..] {
            let model = translator_select(
                &data,
                &SelectConfig { n_threads: Some(t), ..SelectConfig::builder().k(k).minsup(1).build() },
            );
            prop_assert_eq!(&model.table, &select_base.table, "SELECT, {} threads", t);
            prop_assert!((model.score.l_total - select_base.score.l_total).abs() < 1e-9);
        }

        // GREEDY: threaded candidate mining feeds the sequential filter.
        let greedy_base = translator_greedy(
            &data,
            &GreedyConfig { n_threads: Some(1), ..GreedyConfig::builder().minsup(1).build() },
        );
        for &t in &thread_counts[1..] {
            let model = translator_greedy(
                &data,
                &GreedyConfig { n_threads: Some(t), ..GreedyConfig::builder().minsup(1).build() },
            );
            prop_assert_eq!(&model.table, &greedy_base.table, "GREEDY, {} threads", t);
        }

        // EXACT: uncapped parallel root fan-out (shared-bound pruning)
        // must return the same rules, tie-breaking included.
        let exact_base = translator_exact_with(
            &data,
            &ExactConfig { n_threads: Some(1), ..ExactConfig::default() },
        );
        for &t in &thread_counts[1..] {
            let model = translator_exact_with(
                &data,
                &ExactConfig { n_threads: Some(t), ..ExactConfig::default() },
            );
            prop_assert_eq!(&model.table, &exact_base.table, "EXACT, {} threads", t);
            prop_assert!((model.score.l_total - exact_base.score.l_total).abs() < 1e-9);
        }
    }
}
