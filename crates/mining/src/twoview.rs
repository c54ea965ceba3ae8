//! Two-view candidate mining: itemsets that span both views.
//!
//! TRANSLATOR-SELECT and -GREEDY (paper §5.3) take as candidates all closed
//! frequent itemsets `Z` with `Z ∩ I_L ≠ ∅` and `Z ∩ I_R ≠ ∅`. A candidate
//! is stored pre-split into its two view projections, since every consumer
//! (rule construction, gain computation) needs them separately. The
//! projections repeat across candidates, so the solvers' seed setup
//! ([`seed_sets`]) interns them ([`ItemsetIds`]) and computes one support
//! tidset per distinct itemset.

use std::borrow::Cow;
use std::sync::OnceLock;

use twoview_data::prelude::*;

use crate::closed::mine_closed;
use crate::eclat::{mine_frequent, MinerConfig};

/// A frequent itemset spanning both views, split into its projections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwoViewCandidate {
    /// `Z ∩ I_L` (non-empty).
    pub left: ItemSet,
    /// `Z ∩ I_R` (non-empty).
    pub right: ItemSet,
    /// `|supp(Z)|` over the whole dataset.
    pub support: usize,
}

impl TwoViewCandidate {
    /// Total number of items `|Z|`.
    pub fn len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Candidates are never empty; kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The joint itemset `Z`.
    pub fn joint(&self) -> ItemSet {
        self.left.union(&self.right)
    }

    /// `Z ∩ I_L` or `Z ∩ I_R`.
    pub fn projection(&self, side: Side) -> &ItemSet {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }
}

/// The outcome of candidate mining.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    /// Candidates, in miner enumeration order.
    pub candidates: Vec<TwoViewCandidate>,
    /// Whether enumeration hit the `max_itemsets` valve.
    pub truncated: bool,
}

/// Process-wide registry cells for candidate mining (`mine.*` names).
struct MineMetrics {
    runs: twoview_runtime::obs::Counter,
    candidates: twoview_runtime::obs::Counter,
}

fn mine_metrics() -> &'static MineMetrics {
    static METRICS: OnceLock<MineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| MineMetrics {
        runs: twoview_runtime::obs::counter("mine.runs"),
        candidates: twoview_runtime::obs::counter("mine.candidates"),
    })
}

fn finish_mine(span: &mut twoview_runtime::obs::SpanGuard, set: &CandidateSet) {
    let metrics = mine_metrics();
    metrics.runs.incr();
    metrics.candidates.add(set.candidates.len() as u64);
    span.field("n_candidates", set.candidates.len())
        .field("truncated", set.truncated);
}

/// Mines closed frequent two-view itemsets (the paper's candidate class).
pub fn mine_closed_twoview(data: &TwoViewDataset, cfg: &MinerConfig) -> CandidateSet {
    let mut span = twoview_runtime::obs::span("mine.closed");
    let res = mine_closed(data, cfg);
    let set = CandidateSet {
        candidates: split_spanning(data, res.itemsets.into_iter()),
        truncated: res.truncated,
    };
    finish_mine(&mut span, &set);
    set
}

/// Mines **all** frequent two-view itemsets (ablation: SELECT on non-closed
/// candidates; also the raw search space of association rule mining).
pub fn mine_frequent_twoview(data: &TwoViewDataset, cfg: &MinerConfig) -> CandidateSet {
    let mut span = twoview_runtime::obs::span("mine.frequent");
    let res = mine_frequent(data, cfg);
    let set = CandidateSet {
        candidates: split_spanning(data, res.itemsets.into_iter()),
        truncated: res.truncated,
    };
    finish_mine(&mut span, &set);
    set
}

/// A mined candidate set cached for reuse across many fits.
///
/// This is the offline half of the serving split: mine once (the expensive
/// part), then serve any number of TRANSLATOR fits from the cache. Two
/// reuse devices:
///
/// * **minsup narrowing** ([`CandidateCache::at_minsup`]) — closedness is a
///   property of supports alone, independent of the mining threshold, so
///   the closed candidates at any `minsup ≥` the mined base are *exactly*
///   the cached candidates with `support ≥ minsup`, in the same
///   enumeration order (the DFS visits surviving subtrees in an order
///   that does not depend on the threshold). The same argument holds for
///   all-frequent candidate sets. A fit at a narrower minsup therefore
///   reuses the cache with a filter instead of re-mining; only `minsup <`
///   base requires fresh mining.
/// * **seed sets** ([`CandidateCache::tidsets`]) — the candidates'
///   [`SeedSets`]: interned itemset ids, per-side supports and one
///   support [`Tidset`] per distinct itemset, computed lazily once by
///   [`seed_sets`] under the same 400 MB budget the solvers use, and
///   borrowed by every fit at the base minsup. The budget counts
///   **actual representation bytes** via [`Tidset::heap_bytes`] —
///   `4·card` for sparse sets, `⌈n/64⌉·8` for dense bitmaps — so sparse
///   corpora fit far larger candidate sets into the same budget.
///
/// The one caveat is truncation: if mining hit the `max_itemsets` valve,
/// the filtered subset may differ from a direct (less truncated) mine at
/// the higher threshold; [`CandidateCache::truncated`] surfaces the flag.
#[derive(Debug)]
pub struct CandidateCache {
    minsup: usize,
    closed: bool,
    set: CandidateSet,
    /// The warmed seed sets; `None` inside the lock = over the tidset
    /// budget. A `Some` always holds its tidsets.
    seeds: OnceLock<Option<SeedSets>>,
}

/// Memory budget for cached candidate/seed tidsets — the single source of
/// truth shared by [`CandidateCache::tidsets`], SELECT's per-run tidset
/// cache, and EXACT's seed-tidset cache, so engine shared-tidset
/// eligibility can never desynchronize from the per-run caches.
pub const TIDSET_CACHE_BUDGET_BYTES: usize = 400 << 20;

/// Incremental metering of seed tidsets against
/// [`TIDSET_CACHE_BUDGET_BYTES`] — the one accounting loop shared by the
/// seed setup ([`seed_sets`], behind the solvers' per-run tidsets and the
/// engine's [`CandidateCache::tidsets`] warm) and the snapshot-load path
/// ([`CandidateCache::from_parts`]). Every path that admits seed tidsets
/// into memory meters them through this type, so a cache warmed from disk
/// obeys exactly the byte budget a freshly built one does, and the
/// accountings can never drift apart.
#[derive(Debug, Default)]
pub struct SeedBudget {
    bytes: usize,
}

impl SeedBudget {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Meters one tidset at the **actual bytes** of its current
    /// representation ([`Tidset::heap_bytes`]). Returns `false` once the
    /// running total exceeds the budget; the tidset stays counted, so
    /// later calls keep failing.
    pub fn admit(&mut self, tidset: &Tidset) -> bool {
        self.bytes = self.bytes.saturating_add(tidset.heap_bytes());
        self.bytes <= TIDSET_CACHE_BUDGET_BYTES
    }

    /// Bytes metered so far.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// The view projections of a candidate list interned per side: every
/// distinct left itemset gets one id, every distinct right itemset one id,
/// numbered in order of first occurrence. Candidates repeat their
/// projections heavily (one `X` with many `Y`s and vice versa), so the
/// per-itemset work of the solvers — support tidsets, `hits − misses`
/// counts — is keyed by these ids instead of by candidate.
#[derive(Clone, Debug, Default)]
pub struct ItemsetIds {
    /// `[left id, right id]` per candidate.
    ids: Vec<[u32; 2]>,
    /// Per side (`[left, right]`), the index of the first candidate
    /// holding each id.
    first: [Vec<u32>; 2],
}

impl ItemsetIds {
    /// Interns `candidates`. The ids depend only on the candidate order.
    pub fn new(candidates: &[TwoViewCandidate]) -> ItemsetIds {
        assert!(
            u32::try_from(candidates.len()).is_ok(),
            "itemset ids need fewer than 2^32 candidates"
        );
        let mut out = ItemsetIds {
            ids: Vec::with_capacity(candidates.len()),
            first: [Vec::new(), Vec::new()],
        };
        // lint: allow(determinism) — lookups only, never iterated: ids follow candidate order
        let mut maps: [std::collections::HashMap<&ItemSet, u32>; 2] = Default::default();
        for (i, c) in candidates.iter().enumerate() {
            let mut pair = [0u32; 2];
            for (s, set) in [&c.left, &c.right].into_iter().enumerate() {
                let next = out.first[s].len() as u32;
                pair[s] = *maps[s].entry(set).or_insert(next);
                if pair[s] == next {
                    out.first[s].push(i as u32);
                }
            }
            out.ids.push(pair);
        }
        out
    }

    /// `[left id, right id]` of every candidate, in candidate order.
    pub fn ids(&self) -> &[[u32; 2]] {
        &self.ids
    }

    /// For each id of `side`, the index of the first candidate holding
    /// that itemset; its length is the number of distinct itemsets.
    pub fn first(&self, side: Side) -> &[u32] {
        &self.first[side.index()]
    }
}

/// The seed setup of a candidate list: the interned projections, the
/// support of every distinct itemset, and its tidset when they all fit.
/// It is the one seed layout of the solvers' runs, the engine's
/// [`CandidateCache`] and the snapshot's SEEDS section.
#[derive(Clone, Debug)]
pub struct SeedSets {
    /// The candidates' itemset ids.
    pub ids: ItemsetIds,
    /// Per side, `|supp|` of each distinct itemset, by id.
    pub support: [Vec<usize>; 2],
    /// Per side, the support tidset of each distinct itemset, by id;
    /// `None` when they exceed the budget.
    pub tidsets: Option<[Vec<Tidset>; 2]>,
}

/// The one seed setup of SELECT, GREEDY, EXACT's incumbent and the
/// engine's shared cache: interns `candidates` ([`ItemsetIds`]) and
/// computes one support tidset per distinct itemset, from which callers
/// read `qub` and every antecedent. The tidsets are metered at their
/// **actual bytes** through one [`SeedBudget`], all or nothing: once the
/// meter overflows, the ones held are dropped (an over-budget set never
/// sits in memory whole) and only the supports are kept, so callers
/// recompute a tidset on use. An injected `cache.warm_fail` reports "over
/// budget": callers take the uncached path, which is correct but slower —
/// exactly the degradation a real memory-pressure `None` produces.
pub fn seed_sets(data: &TwoViewDataset, candidates: &[TwoViewCandidate]) -> SeedSets {
    let warm_failed =
        twoview_runtime::faults::should_fire(twoview_runtime::faults::points::CACHE_WARM_FAIL);
    let ids = ItemsetIds::new(candidates);
    let mut budget = SeedBudget::new();
    let mut cached = !warm_failed;
    let mut support = [Vec::new(), Vec::new()];
    let mut tidsets = [Vec::new(), Vec::new()];
    for side in Side::BOTH {
        let s = side.index();
        for &c in ids.first(side) {
            let c = &candidates[c as usize];
            let set = data.support_set(c.projection(side));
            support[s].push(set.len());
            if cached && budget.admit(&set) {
                tidsets[s].push(set);
            } else if cached {
                cached = false;
                tidsets = [Vec::new(), Vec::new()];
            }
        }
    }
    SeedSets {
        ids,
        support,
        tidsets: cached.then_some(tidsets),
    }
}

impl CandidateCache {
    /// Mines and caches the candidate set (closed when `closed`, all
    /// frequent otherwise).
    pub fn mine(data: &TwoViewDataset, cfg: &MinerConfig, closed: bool) -> CandidateCache {
        let set = if closed {
            mine_closed_twoview(data, cfg)
        } else {
            mine_frequent_twoview(data, cfg)
        };
        CandidateCache {
            minsup: cfg.minsup.max(1),
            closed,
            set,
            seeds: OnceLock::new(),
        }
    }

    /// Reassembles a cache from snapshot parts, without mining.
    ///
    /// `seeds`, when present, must be the seed setup of `candidates`: the
    /// snapshot reader derives its ids from `candidates` with
    /// [`ItemsetIds::new`]. Its tidsets are re-metered through the same
    /// [`SeedBudget`] the lazy warm uses; a set without tidsets or over
    /// the budget is dropped — the cache then starts unwarmed and the
    /// first [`CandidateCache::tidsets`] call rebuilds (and re-meters)
    /// from the dataset, exactly as a cold cache would.
    pub fn from_parts(
        minsup: usize,
        closed: bool,
        truncated: bool,
        candidates: Vec<TwoViewCandidate>,
        seeds: Option<SeedSets>,
    ) -> CandidateCache {
        let warm = OnceLock::new();
        if let Some(seeds) = seeds {
            debug_assert_eq!(seeds.ids.ids().len(), candidates.len());
            let mut budget = SeedBudget::new();
            let fits = seeds
                .tidsets
                .as_ref()
                .is_some_and(|sides| sides.iter().flatten().all(|t| budget.admit(t)));
            if fits {
                let _ = warm.set(Some(seeds));
            }
        }
        CandidateCache {
            minsup: minsup.max(1),
            closed,
            set: CandidateSet {
                candidates,
                truncated,
            },
            seeds: warm,
        }
    }

    /// The minsup the cache was mined at (the reuse floor).
    pub fn minsup(&self) -> usize {
        self.minsup
    }

    /// Whether the cache holds closed candidates (vs all frequent).
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// Whether mining hit the `max_itemsets` valve.
    pub fn truncated(&self) -> bool {
        self.set.truncated
    }

    /// The cached candidates, in miner enumeration order.
    pub fn candidates(&self) -> &[TwoViewCandidate] {
        &self.set.candidates
    }

    /// Number of cached candidates.
    pub fn len(&self) -> usize {
        self.set.candidates.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.set.candidates.is_empty()
    }

    /// The candidates visible at `minsup`, without re-mining: borrowed for
    /// the base minsup, support-filtered for a higher one (result-identical
    /// to mining at that minsup; see the type docs). `None` when `minsup`
    /// is *below* the mined base — the caller must mine fresh.
    pub fn at_minsup(&self, minsup: usize) -> Option<Cow<'_, [TwoViewCandidate]>> {
        let minsup = minsup.max(1);
        if minsup < self.minsup {
            return None;
        }
        if minsup == self.minsup {
            return Some(Cow::Borrowed(&self.set.candidates));
        }
        Some(Cow::Owned(
            self.set
                .candidates
                .iter()
                .filter(|c| c.support >= minsup)
                .cloned()
                .collect(),
        ))
    }

    /// The seed setup of [`CandidateCache::candidates`] ([`seed_sets`]):
    /// itemset ids, per-side supports and one tidset per distinct itemset,
    /// computed lazily on first use and borrowed by every fit thereafter.
    /// `None` when the tidsets exceed the budget (callers then recompute
    /// per run, exactly as before). The tidsets are metered through a
    /// [`SeedBudget`] at the **actual bytes** of each representation,
    /// exactly as [`CandidateCache::from_parts`] meters a loaded set.
    pub fn tidsets(&self, data: &TwoViewDataset) -> Option<&SeedSets> {
        self.seeds
            .get_or_init(|| {
                let seeds = seed_sets(data, &self.set.candidates);
                seeds.tidsets.is_some().then_some(seeds)
            })
            .as_ref()
    }

    /// The already-warmed seed sets, if any — a peek that never computes
    /// (unlike [`CandidateCache::tidsets`]). The snapshot writer uses it
    /// so saving a cache never triggers a warm as a side effect.
    pub fn warmed(&self) -> Option<&SeedSets> {
        self.seeds.get().and_then(Option::as_ref)
    }
}

fn split_spanning(
    data: &TwoViewDataset,
    itemsets: impl Iterator<Item = crate::eclat::FrequentItemset>,
) -> Vec<TwoViewCandidate> {
    let vocab = data.vocab();
    itemsets
        .filter(|f| f.items.spans_both_views(vocab))
        .map(|f| {
            let (left, right) = f.items.split(vocab);
            TwoViewCandidate {
                left,
                right,
                support: f.support,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TwoViewDataset {
        let vocab = Vocabulary::new(["a", "b"], ["x", "y"]);
        TwoViewDataset::from_transactions(
            vocab,
            &[
                vec![0, 1, 2],
                vec![0, 2],
                vec![0, 2, 3],
                vec![1, 3],
                vec![0, 1, 2, 3],
            ],
        )
    }

    #[test]
    fn all_candidates_span_views() {
        let d = toy();
        let cs = mine_closed_twoview(&d, &MinerConfig::builder().minsup(1).build());
        assert!(!cs.candidates.is_empty());
        for c in &cs.candidates {
            assert!(!c.left.is_empty());
            assert!(!c.right.is_empty());
            assert!(c.left.iter().all(|i| d.vocab().side_of(i) == Side::Left));
            assert!(c.right.iter().all(|i| d.vocab().side_of(i) == Side::Right));
            assert_eq!(c.support, d.support_count(&c.joint()));
        }
    }

    #[test]
    fn closed_candidates_subset_of_frequent_candidates() {
        let d = toy();
        let cfg = MinerConfig::builder().minsup(1).build();
        let closed = mine_closed_twoview(&d, &cfg);
        let frequent = mine_frequent_twoview(&d, &cfg);
        assert!(closed.candidates.len() <= frequent.candidates.len());
        for c in &closed.candidates {
            assert!(
                frequent.candidates.iter().any(|f| f == c),
                "closed candidate {c:?} missing from frequent set"
            );
        }
    }

    #[test]
    fn joint_reassembles() {
        let d = toy();
        let cs = mine_closed_twoview(&d, &MinerConfig::builder().minsup(1).build());
        for c in &cs.candidates {
            let joint = c.joint();
            assert_eq!(joint.len(), c.len());
            assert!(joint.spans_both_views(d.vocab()));
        }
    }

    #[test]
    fn cache_at_minsup_matches_direct_mining() {
        let d = toy();
        for closed in [true, false] {
            let base = MinerConfig::builder().minsup(1).build();
            let cache = CandidateCache::mine(&d, &base, closed);
            assert_eq!(cache.minsup(), 1);
            assert_eq!(cache.closed(), closed);
            assert!(!cache.truncated());
            for minsup in 1..=5usize {
                let via_cache = cache.at_minsup(minsup).expect("minsup >= base");
                let cfg = MinerConfig::builder().minsup(minsup).build();
                let direct = if closed {
                    mine_closed_twoview(&d, &cfg)
                } else {
                    mine_frequent_twoview(&d, &cfg)
                };
                assert_eq!(
                    via_cache.as_ref(),
                    direct.candidates.as_slice(),
                    "closed={closed} minsup={minsup}"
                );
            }
        }
    }

    #[test]
    fn cache_rejects_minsup_below_base() {
        let d = toy();
        let cache = CandidateCache::mine(&d, &MinerConfig::builder().minsup(3).build(), true);
        assert!(cache.at_minsup(2).is_none());
        assert!(cache.at_minsup(3).is_some());
    }

    #[test]
    fn cache_tidsets_are_the_candidates_seed_sets() {
        let d = toy();
        let cache = CandidateCache::mine(&d, &MinerConfig::builder().minsup(1).build(), true);
        assert!(cache.warmed().is_none(), "the warm is lazy");
        let seeds = cache.tidsets(&d).expect("toy data fits the budget");
        let [left, right] = seeds.tidsets.as_ref().expect("a warmed set holds tidsets");
        assert_eq!(seeds.ids.ids().len(), cache.len());
        for (c, &[l, r]) in cache.candidates().iter().zip(seeds.ids.ids()) {
            assert_eq!(left[l as usize], d.support_set(&c.left));
            assert_eq!(right[r as usize], d.support_set(&c.right));
        }
        // Later calls and the peek return the same warmed set.
        assert!(std::ptr::eq(cache.tidsets(&d).unwrap(), seeds));
        assert!(std::ptr::eq(cache.warmed().unwrap(), seeds));
    }

    #[test]
    fn from_parts_reassembles_and_meters_seeds() {
        let d = toy();
        let mined = CandidateCache::mine(&d, &MinerConfig::builder().minsup(2).build(), true);
        let live = mined.tidsets(&d).unwrap();
        let candidates = mined.candidates().to_vec();

        // Seeds within budget install without recomputation.
        let cache =
            CandidateCache::from_parts(2, true, false, candidates.clone(), Some(live.clone()));
        assert_eq!(cache.minsup(), 2);
        assert!(cache.closed() && !cache.truncated());
        assert_eq!(cache.candidates(), mined.candidates());
        let warmed = cache.warmed().expect("seeds pre-installed");
        assert_eq!(warmed.tidsets, live.tidsets);
        assert_eq!(warmed.ids.ids(), live.ids.ids());
        assert!(std::ptr::eq(cache.tidsets(&d).unwrap(), warmed));

        // A set without tidsets is dropped; the lazy warm then rebuilds.
        let bare = SeedSets {
            tidsets: None,
            ..live.clone()
        };
        let bad = CandidateCache::from_parts(2, true, false, candidates.clone(), Some(bare));
        assert!(bad.warmed().is_none());
        assert_eq!(bad.tidsets(&d).unwrap().tidsets, live.tidsets);

        // No seeds at all: cache starts unwarmed.
        let cold = CandidateCache::from_parts(2, true, false, candidates, None);
        assert!(cold.warmed().is_none());
    }

    #[test]
    fn seed_sets_intern_in_first_occurrence_order() {
        let spec = twoview_data::synthetic::SyntheticSpec {
            name: "seed-setup".into(),
            n_transactions: 240,
            n_left: 16,
            n_right: 14,
            density_left: 0.2,
            density_right: 0.2,
            structure: twoview_data::synthetic::StructureSpec::strong(4),
            seed: 1,
        };
        let d = twoview_data::synthetic::generate(&spec)
            .expect("valid spec")
            .dataset;
        let cands = mine_closed_twoview(&d, &MinerConfig::builder().minsup(2).build()).candidates;
        let seeds = seed_sets(&d, &cands);
        let tidsets = seeds.tidsets.as_ref().expect("the data fits the budget");
        assert_eq!(seeds.ids.ids().len(), cands.len());
        for side in Side::BOTH {
            let s = side.index();
            let first = seeds.ids.first(side);
            assert!(first.len() < cands.len(), "{side}: projections repeat");
            // An id is new exactly when its itemset first occurs, so the
            // ids of a side count up from 0 in candidate order.
            let mut next = 0;
            for (i, (c, ids)) in cands.iter().zip(seeds.ids.ids()).enumerate() {
                let id = ids[s] as usize;
                let earlier = cands[..i]
                    .iter()
                    .position(|e| e.projection(side) == c.projection(side));
                match earlier {
                    Some(j) => assert_eq!(seeds.ids.ids()[j][s] as usize, id),
                    None => {
                        assert_eq!((id, first[id] as usize), (next, i));
                        next += 1;
                    }
                }
            }
            assert_eq!(next, first.len());
            for (id, &c) in first.iter().enumerate() {
                let expected = d.support_set(cands[c as usize].projection(side));
                assert_eq!(seeds.support[s][id], expected.len());
                assert_eq!(tidsets[s][id], expected);
            }
        }
        // Every candidate reads the supports `qub` needs off its ids.
        for (c, &[l, r]) in cands.iter().zip(seeds.ids.ids()) {
            assert_eq!(seeds.support[0][l as usize], d.support_count(&c.left));
            assert_eq!(seeds.support[1][r as usize], d.support_count(&c.right));
        }
    }

    #[test]
    fn seed_budget_meters_actual_bytes() {
        let mut budget = SeedBudget::new();
        let sparse = Tidset::from_indices(64, [1usize, 5, 9]);
        let full = Tidset::full(64);
        assert!(budget.admit(&sparse) && budget.admit(&full));
        assert_eq!(budget.bytes(), sparse.heap_bytes() + full.heap_bytes());
        assert!(budget.admit(&sparse) && budget.admit(&sparse));
        assert_eq!(
            budget.bytes(),
            3 * sparse.heap_bytes() + full.heap_bytes(),
            "metering accumulates per-representation bytes"
        );
    }

    #[test]
    fn minsup_filters() {
        let d = toy();
        let low = mine_closed_twoview(&d, &MinerConfig::builder().minsup(1).build());
        let high = mine_closed_twoview(&d, &MinerConfig::builder().minsup(3).build());
        assert!(high.candidates.len() < low.candidates.len());
        assert!(high.candidates.iter().all(|c| c.support >= 3));
    }
}
