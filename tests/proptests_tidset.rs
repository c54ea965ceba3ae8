//! Property tests for the adaptive sparse/dense [`Tidset`]
//! representation and the sparse merges beneath it.
//!
//! Two layers of guarantees are checked on random inputs:
//!
//! * **kernel equivalence** — every `Tidset` operation agrees with the
//!   dense [`Bitmap`] reference for *all four* operand representation
//!   combinations (sparse/dense × sparse/dense), over random op
//!   sequences and with set sizes straddling the promotion/demotion
//!   threshold at ±1; the floating-point kernels (`weighted_len`,
//!   `difference_weight`) and `fingerprint` must be **bit-identical**,
//!   not just close. The sparse×sparse merges (galloping and
//!   two-pointer) must agree with the same reference on skewed and
//!   clustered inputs.
//! * **model identity** — SELECT / GREEDY / EXACT fit bit-identical
//!   models under [`TidsetMode::ForceSparse`], `ForceDense` and
//!   `Adaptive`: the representation is an invisible performance detail,
//!   enforced the same way the columnar≡row and thread-count identities
//!   are.
//!
//! The tidset mode is process-global, so every test that flips it (or
//! asserts a concrete representation) serializes through one mutex and
//! restores the default on exit.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

use twoview::core::exact::{translator_exact_with, ExactConfig};
use twoview::core::greedy::{translator_greedy, GreedyConfig};
use twoview::core::select::{translator_select, SelectConfig};
use twoview::data::tidset::sparse_limit;
use twoview::prelude::*;

static MODE_LOCK: Mutex<()> = Mutex::new(());

struct ModeGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ModeGuard {
    fn lock() -> ModeGuard {
        let guard = MODE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_tidset_mode(TidsetMode::Adaptive);
        ModeGuard(guard)
    }
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        set_tidset_mode(TidsetMode::Adaptive);
    }
}

/// Both representations of one index set.
fn variants(universe: usize, indices: &[usize]) -> [Tidset; 2] {
    let t = Tidset::from_indices(universe, indices.iter().copied());
    [t.to_sparse(), t.to_dense()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every kernel op, over every representation combination, agrees with
    /// the Bitmap reference; fp kernels and fingerprints bit-identically.
    /// Operands mix scattered tids with clustered blocks of consecutive
    /// tids.
    #[test]
    fn tidset_kernels_match_bitmap_for_all_repr_combos(
        a in proptest::collection::vec(0usize..320, 0..80),
        b in proptest::collection::vec(0usize..320, 0..80),
        c in proptest::collection::vec(0usize..320, 0..40),
        block in 0usize..200,
    ) {
        let universe = 320;
        // Plant clustered blocks so the operands overlap in long
        // consecutive stretches, not only in scattered tids.
        let mut b = b;
        let mut c = c;
        b.extend(block..block + 24);
        c.extend(block + 40..block + 60);
        let (ba, bb, bc) = (
            Bitmap::from_indices(universe, a.iter().copied()),
            Bitmap::from_indices(universe, b.iter().copied()),
            Bitmap::from_indices(universe, c.iter().copied()),
        );
        let weights: Vec<f64> = (0..universe)
            .map(|i| ((i * 31 + 7) % 97) as f64 * 0.0625)
            .collect();
        for ta in variants(universe, &a) {
            prop_assert_eq!(ta.len(), ba.len());
            prop_assert_eq!(ta.to_vec(), ba.to_vec());
            prop_assert_eq!(ta.first(), ba.first());
            prop_assert_eq!(
                ta.weighted_len(&weights).to_bits(),
                ba.weighted_len(&weights).to_bits(),
                "weighted_len must be bit-identical"
            );
            prop_assert_eq!(ta.fingerprint(), ba.fingerprint());
            for tb in variants(universe, &b) {
                prop_assert_eq!(ta.intersection_len(&tb), ba.intersection_len(&bb));
                prop_assert_eq!(ta.union_len(&tb), ba.union_len(&bb));
                prop_assert_eq!(ta.difference_len(&tb), ba.difference_len(&bb));
                prop_assert_eq!(ta.and(&tb).to_vec(), ba.and(&bb).to_vec());
                prop_assert_eq!(ta.difference(&tb).to_vec(), ba.and_not(&bb).to_vec());
                prop_assert_eq!(
                    ta.iter_difference(&tb).collect::<Vec<_>>(),
                    ba.and_not(&bb).to_vec()
                );
                prop_assert_eq!(ta.is_subset(&tb), ba.is_subset(&bb));
                prop_assert_eq!(ta.is_disjoint(&tb), ba.is_disjoint(&bb));
                prop_assert_eq!(
                    ta.difference_weight(&tb, &weights).to_bits(),
                    ba.difference_weight(&bb, &weights).to_bits(),
                    "difference_weight must be bit-identical"
                );
                let mut union = ta.clone();
                union.union_with(&tb);
                prop_assert_eq!(union.to_vec(), ba.or(&bb).to_vec());
                let mut inter = ta.clone();
                inter.intersect_with(&tb);
                prop_assert_eq!(inter.to_vec(), ba.and(&bb).to_vec());
                let mut diff = ta.clone();
                diff.subtract(&tb);
                prop_assert_eq!(diff.to_vec(), ba.and_not(&bb).to_vec());
                for tc in variants(universe, &c) {
                    prop_assert_eq!(
                        ta.and_and_not_len(&tb, &tc),
                        ba.and_and_not_len(&bb, &bc),
                        "and_and_not_len"
                    );
                    prop_assert_eq!(
                        ta.and_not_not_len(&tb, &tc),
                        ba.and_not_not_len(&bb, &bc),
                        "and_not_not_len"
                    );
                    prop_assert_eq!(
                        ta.and_is_subset(&tb, &tc),
                        ba.and_is_subset(&bb, &bc),
                        "and_is_subset"
                    );
                }
            }
        }
    }

    /// Random op sequences (intersect / union / subtract) applied to a
    /// sparse- and a dense-seeded accumulator stay equal to the Bitmap
    /// reference throughout — promotions and demotions included.
    #[test]
    fn tidset_random_op_sequences_match_reference(
        seedset in proptest::collection::vec(0usize..640, 0..30),
        ops in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(0usize..640, 0..60)),
            1..12
        ),
    ) {
        let universe = 640;
        let mut sparse_acc = Tidset::from_indices(universe, seedset.iter().copied()).to_sparse();
        let mut dense_acc = sparse_acc.to_dense();
        let mut reference = Bitmap::from_indices(universe, seedset.iter().copied());
        for (k, (op, operand)) in ops.iter().enumerate() {
            // Cycle the operand representation too.
            let t = Tidset::from_indices(universe, operand.iter().copied());
            let t = if k % 2 == 0 { t.to_sparse() } else { t.to_dense() };
            let bm = Bitmap::from_indices(universe, operand.iter().copied());
            match op {
                0 => {
                    sparse_acc.intersect_with(&t);
                    dense_acc.intersect_with(&t);
                    reference.intersect_with(&bm);
                }
                1 => {
                    sparse_acc.union_with(&t);
                    dense_acc.union_with(&t);
                    reference.union_with(&bm);
                }
                _ => {
                    sparse_acc.subtract(&t);
                    dense_acc.subtract(&t);
                    reference.subtract(&bm);
                }
            }
            prop_assert_eq!(sparse_acc.to_vec(), reference.to_vec());
            prop_assert_eq!(dense_acc.to_vec(), reference.to_vec());
            prop_assert_eq!(&sparse_acc, &dense_acc, "repr-independent equality");
            prop_assert_eq!(sparse_acc.fingerprint(), dense_acc.fingerprint());
        }
    }

    /// Adaptive promotion/demotion flips exactly at the threshold, for
    /// scattered (stride-2) and consecutive layouts alike: only the
    /// cardinality decides. Growing to the full set lands on dense, and
    /// shrinking to a singleton lands on sparse.
    #[test]
    fn threshold_boundaries_are_exact(universe in 64usize..2048, offset in 0usize..7) {
        let _guard = ModeGuard::lock();
        let limit = sparse_limit(universe);
        for card in [limit - 1, limit, limit + 1] {
            let scattered: Vec<usize> = (0..card).map(|i| 2 * i + offset).collect();
            prop_assert!(*scattered.last().unwrap() < universe);
            let consecutive: Vec<usize> = (offset..offset + card).collect();
            for indices in [&scattered, &consecutive] {
                let t = Tidset::from_indices(universe, indices.iter().copied());
                prop_assert_eq!(t.len(), card);
                prop_assert_eq!(&t.to_vec(), indices);
                prop_assert_eq!(
                    t.is_sparse(),
                    card <= limit,
                    "card {} vs limit {}", card, limit
                );
            }
            let mut grown = Tidset::from_indices(universe, scattered.iter().copied());
            grown.union_with(&Tidset::full(universe).to_dense());
            prop_assert_eq!(grown.len(), universe);
            prop_assert!(!grown.is_sparse(), "the full set is dense");
            prop_assert!(!Tidset::full(universe).is_sparse(), "the full set is dense");
            let shrunk = grown.and(&Tidset::from_indices(universe, [offset]));
            prop_assert!(shrunk.is_sparse());
            prop_assert_eq!(shrunk.to_vec(), vec![offset]);
        }
    }

    /// The sparse×sparse merges agree exactly with the Bitmap reference —
    /// intersection, difference, subset, and the counted variants — in
    /// both operand orders, on inputs that exercise both the galloping
    /// (skewed sizes) and the two-pointer (comparable sizes) merge.
    #[test]
    fn sparse_merges_match_bitmap_reference(
        a in proptest::collection::vec(0usize..4096, 0..600),
        b in proptest::collection::vec(0usize..4096, 0..600),
        clustered in 0usize..2,
        skewed in 0usize..2,
    ) {
        let _guard = ModeGuard::lock();
        set_tidset_mode(TidsetMode::ForceSparse);
        let universe = 8192;
        let mut a = a;
        let mut b = b;
        if clustered == 1 {
            // A long consecutive block the other operand only partly
            // overlaps.
            a.extend(1000..1300);
        }
        if skewed == 1 {
            // At most 20 tids against hundreds: the merges gallop.
            b.truncate(20);
        }
        let ta = Tidset::from_indices(universe, a.iter().copied());
        let tb = Tidset::from_indices(universe, b.iter().copied());
        prop_assert!(ta.is_sparse() && tb.is_sparse());
        let ba = Bitmap::from_indices(universe, a.iter().copied());
        let bb = Bitmap::from_indices(universe, b.iter().copied());
        for (x, y, bx, by) in [(&ta, &tb, &ba, &bb), (&tb, &ta, &bb, &ba)] {
            let and = x.and(y);
            prop_assert_eq!(and.to_vec(), bx.and(by).to_vec());
            prop_assert_eq!(and.fingerprint(), bx.and(by).fingerprint());
            prop_assert_eq!(x.difference(y).to_vec(), bx.and_not(by).to_vec());
            prop_assert_eq!(x.intersection_len(y), bx.intersection_len(by));
            prop_assert_eq!(x.difference_len(y), bx.difference_len(by));
            prop_assert_eq!(x.is_subset(y), bx.is_subset(by));
            prop_assert!(and.is_subset(x) && and.is_subset(y));
        }
    }
}

/// A small random dataset with planted structure for the identity checks.
fn mode_identity_dataset(seed: u64, n: usize) -> TwoViewDataset {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = Vocabulary::unnamed(6, 5);
    let txs: Vec<Vec<ItemId>> = (0..n)
        .map(|_| {
            let mut t: Vec<ItemId> = (0..11).filter(|_| rng.gen_bool(0.25)).collect();
            if rng.gen_bool(0.4) {
                // Planted association {0,1} <-> {6,7}.
                t.extend([0, 1, 6, 7]);
                t.sort_unstable();
                t.dedup();
            }
            t
        })
        .collect();
    TwoViewDataset::from_transactions(vocab, &txs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SELECT, GREEDY and EXACT fit bit-identical models under
    /// forced-sparse, forced-dense and adaptive tidset modes. The dataset
    /// is rebuilt under each mode so columns, mining intersections, cover
    /// columns and seed caches all take that representation end to end.
    #[test]
    fn models_identical_across_tidset_modes(seed in 0u64..500, n in 8usize..40) {
        let _guard = ModeGuard::lock();
        let fit_all = || {
            let data = mode_identity_dataset(seed, n);
            let select = translator_select(
                &data,
                &SelectConfig::builder().k(2).minsup(1).build(),
            );
            let greedy = translator_greedy(&data, &GreedyConfig::builder().minsup(1).build());
            let exact = translator_exact_with(
                &data,
                &ExactConfig { max_rules: Some(3), ..ExactConfig::default() },
            );
            (select, greedy, exact)
        };
        set_tidset_mode(TidsetMode::Adaptive);
        let (sel_a, gre_a, exa_a) = fit_all();
        set_tidset_mode(TidsetMode::ForceDense);
        let (sel_d, gre_d, exa_d) = fit_all();
        set_tidset_mode(TidsetMode::ForceSparse);
        let (sel_s, gre_s, exa_s) = fit_all();
        set_tidset_mode(TidsetMode::Adaptive);

        for (label, a, other) in [
            ("select dense", &sel_a, &sel_d),
            ("select sparse", &sel_a, &sel_s),
            ("greedy dense", &gre_a, &gre_d),
            ("greedy sparse", &gre_a, &gre_s),
            ("exact dense", &exa_a, &exa_d),
            ("exact sparse", &exa_a, &exa_s),
        ] {
            prop_assert_eq!(&a.table, &other.table, "{} table", label);
            prop_assert!(
                (a.score.l_total - other.score.l_total).abs() < 1e-12,
                "{} score {} vs {}", label, a.score.l_total, other.score.l_total
            );
        }
    }

    /// Mining enumerates identical candidate lists (order included) under
    /// all three modes, and the seed tidsets fingerprint identically. Up to
    /// 300 rows, so the closed miner settles closures from the row masks
    /// of extensions hundreds of rows long in each mode.
    #[test]
    fn mining_identical_across_tidset_modes(seed in 0u64..500, n in 8usize..300) {
        let _guard = ModeGuard::lock();
        let mine = || {
            let data = mode_identity_dataset(seed, n);
            let cands = mine_closed_twoview(
                &data,
                &MinerConfig::builder().minsup(1).build(),
            ).candidates;
            let prints: Vec<(u64, u64)> = cands
                .iter()
                .map(|c| {
                    (
                        data.support_set(&c.left).fingerprint(),
                        data.support_set(&c.right).fingerprint(),
                    )
                })
                .collect();
            (cands, prints)
        };
        set_tidset_mode(TidsetMode::Adaptive);
        let (cands_a, prints_a) = mine();
        set_tidset_mode(TidsetMode::ForceDense);
        let (cands_d, prints_d) = mine();
        set_tidset_mode(TidsetMode::ForceSparse);
        let (cands_s, prints_s) = mine();
        set_tidset_mode(TidsetMode::Adaptive);
        prop_assert_eq!(&cands_a, &cands_d);
        prop_assert_eq!(&cands_a, &cands_s);
        prop_assert_eq!(&prints_a, &prints_d, "fingerprints are repr-independent");
        prop_assert_eq!(&prints_a, &prints_s);
    }
}
