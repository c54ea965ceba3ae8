//! Property tests for the adaptive sparse/dense/runs [`Tidset`]
//! representation and the SIMD/scalar merge kernels beneath it.
//!
//! Two layers of guarantees are checked on random inputs:
//!
//! * **kernel equivalence** — every `Tidset` operation agrees with the
//!   dense [`Bitmap`] reference for *all nine* operand representation
//!   combinations (sparse/dense/runs × sparse/dense/runs), over random
//!   op sequences and with set sizes straddling the promotion/demotion
//!   threshold at ±1; the floating-point kernels (`weighted_len`,
//!   `difference_weight`) and `fingerprint` must be **bit-identical**,
//!   not just close. The SSE2 block-merge kernels must agree with the
//!   scalar gallop reference on the same inputs.
//! * **model identity** — SELECT / GREEDY / EXACT fit bit-identical
//!   models under [`TidsetMode::ForceSparse`], `ForceDense`,
//!   `ForceRuns`, and `Adaptive`, and under both kernel paths: the
//!   representation is an invisible performance detail, enforced the
//!   same way the columnar≡row and thread-count identities are.
//!
//! The tidset mode and kernel path are process-global, so every test
//! that flips either (or asserts a concrete representation) serializes
//! through one mutex and restores the defaults on exit.

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

use twoview::core::exact::{translator_exact_with, ExactConfig};
use twoview::core::greedy::{translator_greedy, GreedyConfig};
use twoview::core::select::{translator_select, SelectConfig};
use twoview::data::simd_merge::{set_kernel_path, KernelPath};
use twoview::data::tidset::sparse_limit;
use twoview::prelude::*;

static MODE_LOCK: Mutex<()> = Mutex::new(());

struct ModeGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ModeGuard {
    fn lock() -> ModeGuard {
        let guard = MODE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_tidset_mode(TidsetMode::Adaptive);
        set_kernel_path(KernelPath::Simd);
        ModeGuard(guard)
    }
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        set_tidset_mode(TidsetMode::Adaptive);
        set_kernel_path(KernelPath::Simd);
    }
}

/// All three representations of one index set.
fn variants(universe: usize, indices: &[usize]) -> [Tidset; 3] {
    let t = Tidset::from_indices(universe, indices.iter().copied());
    [t.to_sparse(), t.to_dense(), t.to_runs()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every kernel op, over every representation combination, agrees with
    /// the Bitmap reference; fp kernels and fingerprints bit-identically.
    /// Operands mix scattered tids with clustered blocks so the runs
    /// representation sees both degenerate (all-singleton) and favourable
    /// (few long runs) inputs.
    #[test]
    fn tidset_kernels_match_bitmap_for_all_repr_combos(
        a in proptest::collection::vec(0usize..320, 0..80),
        b in proptest::collection::vec(0usize..320, 0..80),
        c in proptest::collection::vec(0usize..320, 0..40),
        block in 0usize..200,
    ) {
        let universe = 320;
        // Plant clustered blocks so runs×{sparse,dense,runs} arms see
        // genuine multi-element runs, not just singletons.
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
    /// sparse-, dense-, and runs-seeded accumulator stay equal to the
    /// Bitmap reference throughout — promotions and demotions included.
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
        let mut runs_acc = sparse_acc.to_runs();
        let mut reference = Bitmap::from_indices(universe, seedset.iter().copied());
        for (k, (op, operand)) in ops.iter().enumerate() {
            // Cycle the operand representation too.
            let t = Tidset::from_indices(universe, operand.iter().copied());
            let t = match k % 3 {
                0 => t.to_sparse(),
                1 => t.to_dense(),
                _ => t.to_runs(),
            };
            let bm = Bitmap::from_indices(universe, operand.iter().copied());
            match op {
                0 => {
                    sparse_acc.intersect_with(&t);
                    dense_acc.intersect_with(&t);
                    runs_acc.intersect_with(&t);
                    reference.intersect_with(&bm);
                }
                1 => {
                    sparse_acc.union_with(&t);
                    dense_acc.union_with(&t);
                    runs_acc.union_with(&t);
                    reference.union_with(&bm);
                }
                _ => {
                    sparse_acc.subtract(&t);
                    dense_acc.subtract(&t);
                    runs_acc.subtract(&t);
                    reference.subtract(&bm);
                }
            }
            prop_assert_eq!(sparse_acc.to_vec(), reference.to_vec());
            prop_assert_eq!(dense_acc.to_vec(), reference.to_vec());
            prop_assert_eq!(runs_acc.to_vec(), reference.to_vec());
            prop_assert_eq!(&sparse_acc, &dense_acc, "repr-independent equality");
            prop_assert_eq!(&sparse_acc, &runs_acc, "repr-independent equality");
            prop_assert_eq!(sparse_acc.fingerprint(), dense_acc.fingerprint());
            prop_assert_eq!(sparse_acc.fingerprint(), runs_acc.fingerprint());
        }
    }

    /// Adaptive promotion/demotion flips exactly at the threshold.
    /// Scattered (stride-2) sets never compress, so their sparse/dense
    /// flip sits exactly at `sparse_limit`; the same cardinalities laid
    /// out consecutively compress to one run and take the runs
    /// representation on either side of that boundary.
    #[test]
    fn threshold_boundaries_are_exact(universe in 64usize..2048, offset in 0usize..7) {
        let _guard = ModeGuard::lock();
        let limit = sparse_limit(universe);
        for card in [limit - 1, limit, limit + 1] {
            // Stride-2: every element is its own run (runs = card > card/4
            // and > limit), so the runs breakeven never fires here.
            let indices: Vec<usize> = (0..card).map(|i| 2 * i + offset).collect();
            prop_assert!(*indices.last().unwrap() < universe);
            let t = Tidset::from_indices(universe, indices.iter().copied());
            prop_assert_eq!(t.len(), card);
            prop_assert_eq!(
                t.is_sparse(),
                card <= limit,
                "card {} vs limit {}", card, limit
            );
            prop_assert_eq!(!t.is_sparse() && !t.is_runs(), card > limit, "dense side");
            // Consecutive layout: one run, at most card/4 runs for
            // card >= 4 (limit >= 4 always), so runs wins on both sides
            // of the sparse/dense boundary.
            let consec = Tidset::from_indices(universe, offset..offset + card);
            if card >= 4 {
                prop_assert!(consec.is_runs(), "consecutive card {} takes runs", card);
            } else {
                // Below 4 elements one run exceeds card/4 — sparse wins.
                prop_assert!(consec.is_sparse(), "tiny card {} stays sparse", card);
            }
            prop_assert_eq!(consec.len(), card);
            prop_assert_eq!(consec.to_vec(), (offset..offset + card).collect::<Vec<_>>());
            // Crossing the boundary via union lands on runs (the full
            // set is one run); shrinking via intersection demotes to
            // sparse (a singleton is one run > 1/4 elements).
            let mut grown = t.clone();
            grown.union_with(&Tidset::full(universe).to_dense());
            prop_assert_eq!(grown.len(), universe);
            prop_assert!(grown.is_runs(), "full set compresses to one run");
            let shrunk = grown.and(&Tidset::from_indices(universe, [offset]));
            prop_assert!(shrunk.is_sparse());
            prop_assert_eq!(shrunk.to_vec(), vec![offset]);
        }
    }

    /// The SSE2 block-merge kernels agree exactly with the scalar gallop
    /// reference on the same inputs — intersection, difference, subset,
    /// and the counted variants — across list-size skews that exercise
    /// both the block loop and the gallop dispatch.
    #[test]
    fn simd_and_scalar_kernel_paths_agree(
        a in proptest::collection::vec(0usize..4096, 0..600),
        b in proptest::collection::vec(0usize..4096, 0..600),
        clustered in 0usize..2,
    ) {
        let _guard = ModeGuard::lock();
        set_tidset_mode(TidsetMode::ForceSparse);
        let universe = 8192;
        let mut a = a;
        if clustered == 1 {
            // Long shared block: matched lanes spill across block
            // boundaries and the final partial block carries matches.
            a.extend(1000..1300);
        }
        let ta = Tidset::from_indices(universe, a.iter().copied());
        let tb = Tidset::from_indices(universe, b.iter().copied());
        let run = |path: KernelPath| {
            set_kernel_path(path);
            (
                ta.and(&tb).to_vec(),
                ta.difference(&tb).to_vec(),
                ta.intersection_len(&tb),
                ta.difference_len(&tb),
                ta.is_subset(&tb),
                ta.and(&tb).fingerprint(),
            )
        };
        let simd = run(KernelPath::Simd);
        let scalar = run(KernelPath::Scalar);
        prop_assert_eq!(simd, scalar, "SIMD and scalar kernels must agree");
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
    /// forced-sparse, forced-dense, forced-runs, and adaptive tidset
    /// modes, and under the scalar kernel path. The dataset is rebuilt
    /// under each mode so columns, mining intersections, cover columns
    /// and seed caches all take that representation end to end.
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
        set_tidset_mode(TidsetMode::ForceRuns);
        let (sel_r, gre_r, exa_r) = fit_all();
        set_tidset_mode(TidsetMode::Adaptive);
        set_kernel_path(KernelPath::Scalar);
        let (sel_k, gre_k, exa_k) = fit_all();
        set_kernel_path(KernelPath::Simd);

        for (label, a, other) in [
            ("select dense", &sel_a, &sel_d),
            ("select sparse", &sel_a, &sel_s),
            ("select runs", &sel_a, &sel_r),
            ("select scalar-kernel", &sel_a, &sel_k),
            ("greedy dense", &gre_a, &gre_d),
            ("greedy sparse", &gre_a, &gre_s),
            ("greedy runs", &gre_a, &gre_r),
            ("greedy scalar-kernel", &gre_a, &gre_k),
            ("exact dense", &exa_a, &exa_d),
            ("exact sparse", &exa_a, &exa_s),
            ("exact runs", &exa_a, &exa_r),
            ("exact scalar-kernel", &exa_a, &exa_k),
        ] {
            prop_assert_eq!(&a.table, &other.table, "{} table", label);
            prop_assert!(
                (a.score.l_total - other.score.l_total).abs() < 1e-12,
                "{} score {} vs {}", label, a.score.l_total, other.score.l_total
            );
        }
    }

    /// Mining enumerates identical candidate lists (order included) under
    /// all four modes, and the seed tidsets fingerprint identically. Up to
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
        set_tidset_mode(TidsetMode::ForceRuns);
        let (cands_r, prints_r) = mine();
        set_tidset_mode(TidsetMode::Adaptive);
        prop_assert_eq!(&cands_a, &cands_d);
        prop_assert_eq!(&cands_a, &cands_s);
        prop_assert_eq!(&cands_a, &cands_r);
        prop_assert_eq!(&prints_a, &prints_d, "fingerprints are repr-independent");
        prop_assert_eq!(&prints_a, &prints_s);
        prop_assert_eq!(&prints_a, &prints_r, "runs fingerprints are repr-independent");
    }
}
