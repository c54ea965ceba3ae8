//! Two-view candidate mining: itemsets that span both views.
//!
//! TRANSLATOR-SELECT and -GREEDY (paper §5.3) take as candidates all closed
//! frequent itemsets `Z` with `Z ∩ I_L ≠ ∅` and `Z ∩ I_R ≠ ∅`. A candidate
//! is stored pre-split into its two view projections, since every consumer
//! (rule construction, gain computation) needs them separately.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    twoview_runtime::faults::maybe_panic(twoview_runtime::faults::points::MINE_PANIC);
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
    twoview_runtime::faults::maybe_panic(twoview_runtime::faults::points::MINE_PANIC);
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
/// * **seed tidsets** ([`CandidateCache::tidsets`]) — the per-candidate
///   antecedent/consequent support [`Tidset`]s, computed lazily once under
///   the same 400 MB budget SELECT uses internally, shared by every fit at
///   the base minsup. The budget counts **actual representation bytes**
///   via [`Tidset::heap_bytes`] — `4·card` for sparse sets, `8·n_runs`
///   for run-compressed sets, `⌈n/64⌉·8` for dense bitmaps — so sparse
///   and clustered corpora fit far larger candidate sets into the same
///   budget.
///
/// The one caveat is truncation: if mining hit the `max_itemsets` valve,
/// the filtered subset may differ from a direct (less truncated) mine at
/// the higher threshold; [`CandidateCache::truncated`] surfaces the flag.
#[derive(Debug)]
pub struct CandidateCache {
    minsup: usize,
    closed: bool,
    set: CandidateSet,
    /// `None` inside the lock = over the tidset budget.
    tidsets: OnceLock<Option<Vec<(Tidset, Tidset)>>>,
}

/// Memory budget for cached candidate/seed tidsets — the single source of
/// truth shared by [`CandidateCache::tidsets`], SELECT's per-run tidset
/// cache, and EXACT's seed-tidset cache, so engine shared-tidset
/// eligibility can never desynchronize from the per-run caches.
pub const TIDSET_CACHE_BUDGET_BYTES: usize = 400 << 20;

/// The one serial/parallel switch of the per-candidate passes — the seed
/// setup ([`seed_tidsets_where`]) and the solvers' gain-table build and
/// updates: below this many candidates they run on the calling thread,
/// from it up in pool tasks of at least a quarter of it. Timed serial
/// against the pool (2 threads on a 2-vCPU host, SELECT(1) and SELECT(25),
/// best of 7 or 9, synthetic inputs of 263–110 709 candidates), the table
/// updates break even last: from 263 to 552 candidates the pool's updates
/// were slower in 7 of 10 cells (down to 0.75×), from 662 up faster in
/// every cell (1.03–1.95×), while the seed setup and the build were
/// already faster in 15 of 16 cells at 404–552 (0.96–1.71×). At 1024
/// every timed pass is on the winning side.
pub const PARALLEL_MIN_CANDIDATES: usize = 1024;

/// Incremental metering of seed-tidset pairs against
/// [`TIDSET_CACHE_BUDGET_BYTES`] — the one accounting loop shared by the
/// seed setup ([`seed_tidsets_where`], behind both the solvers' per-run
/// caches and the engine's [`CandidateCache::tidsets`] warm) and the
/// snapshot-load path ([`CandidateCache::from_parts`]). Every path that
/// admits seed pairs into memory meters them through this type, so a cache
/// warmed from disk obeys exactly the byte budget a freshly built one
/// does, and the accountings can never drift apart. The meter is atomic,
/// so pool participants can share one.
#[derive(Debug, Default)]
pub struct SeedBudget {
    bytes: AtomicUsize,
}

impl SeedBudget {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Meters one `(left, right)` pair at the **actual bytes** of each
    /// tidset's current representation ([`Tidset::heap_bytes`]). Returns
    /// `false` once the running total exceeds the budget; the pair stays
    /// counted, so later calls keep failing.
    pub fn admit(&self, left: &Tidset, right: &Tidset) -> bool {
        let add = left.heap_bytes() + right.heap_bytes();
        let prev = self
            .bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some(b.saturating_add(add))
            })
            .unwrap_or_else(|b| b);
        prev.saturating_add(add) <= TIDSET_CACHE_BUDGET_BYTES
    }

    /// Bytes metered so far.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Seed tidset pairs in candidate order, kept in the chunks the pool
/// produced them in: concatenating them holds two arrays of pairs while
/// it copies, which the solvers' per-run setup avoids. The engine's
/// shared cache concatenates once ([`SeedTidsets::into_vec`]).
#[derive(Debug, Default)]
pub struct SeedTidsets {
    chunks: Vec<Vec<(Tidset, Tidset)>>,
    /// Index of each chunk's first pair.
    starts: Vec<usize>,
    len: usize,
}

impl SeedTidsets {
    fn push_chunk(&mut self, chunk: Vec<(Tidset, Tidset)>) {
        if !chunk.is_empty() {
            self.starts.push(self.len);
            self.len += chunk.len();
            self.chunks.push(chunk);
        }
    }

    /// The `i`-th pair.
    pub fn get(&self, i: usize) -> &(Tidset, Tidset) {
        let c = self.starts.partition_point(|&s| s <= i) - 1;
        &self.chunks[c][i - self.starts[c]]
    }

    /// The pairs as one vector, in order (moved, not cloned).
    pub fn into_vec(self) -> Vec<(Tidset, Tidset)> {
        let mut out = Vec::with_capacity(self.len);
        for chunk in self.chunks {
            out.extend(chunk);
        }
        out
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The seed setup of SELECT, EXACT and the engine's shared cache: each
/// candidate's `(supp(left), supp(right))` is computed once, in candidate
/// order, over ordered [`twoview_runtime::Runtime::map_chunks`] chunks on
/// `threads` pool participants, and `keep` decides from it whether the
/// candidate stays. Returns the kept candidates' indices (ascending) and,
/// when their tidsets fit [`TIDSET_CACHE_BUDGET_BYTES`], the tidsets
/// aligned with those indices — metered at the **actual bytes** of each
/// tidset's representation through one shared [`SeedBudget`], all or
/// nothing (`None` = over budget; callers then recompute per use). Once
/// the meter overflows, participants stop holding tidsets, so an
/// over-budget set never sits in memory whole. An injected
/// `cache.warm_fail` reports "over budget": callers take the uncached
/// path, which is correct but slower — exactly the degradation a real
/// memory-pressure `None` produces.
pub fn seed_tidsets_where<F>(
    data: &TwoViewDataset,
    candidates: &[TwoViewCandidate],
    threads: usize,
    keep: F,
) -> (Vec<usize>, Option<SeedTidsets>)
where
    F: Fn(&TwoViewCandidate, &Tidset, &Tidset) -> bool + Sync,
{
    let warm_failed =
        twoview_runtime::faults::should_fire(twoview_runtime::faults::points::CACHE_WARM_FAIL);
    let threads = if candidates.len() < PARALLEL_MIN_CANDIDATES {
        1
    } else {
        threads.max(1)
    };
    let budget = SeedBudget::new();
    let chunk = candidates
        .len()
        .div_ceil(4 * threads)
        .max(PARALLEL_MIN_CANDIDATES / 4);
    let parts = twoview_runtime::global().map_chunks(threads, candidates, chunk, |ci, cands| {
        let mut kept = Vec::with_capacity(cands.len());
        let mut tids: Vec<(Tidset, Tidset)> = Vec::with_capacity(cands.len());
        for (k, c) in cands.iter().enumerate() {
            let (lt, rt) = (data.support_set(&c.left), data.support_set(&c.right));
            if keep(c, &lt, &rt) {
                kept.push(ci * chunk + k);
                if !warm_failed && budget.admit(&lt, &rt) {
                    tids.push((lt, rt));
                }
            }
        }
        (kept, tids)
    });
    let cached = !warm_failed && budget.bytes() <= TIDSET_CACHE_BUDGET_BYTES;
    let mut kept = Vec::with_capacity(parts.iter().map(|(k, _)| k.len()).sum());
    let mut tids = SeedTidsets::default();
    for (k, t) in parts {
        kept.extend(k);
        if cached {
            tids.push_chunk(t);
        }
    }
    (kept, cached.then_some(tids))
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
            tidsets: OnceLock::new(),
        }
    }

    /// Reassembles a cache from snapshot parts, without mining.
    ///
    /// `seeds`, when present, must align one-to-one with `candidates`;
    /// the pairs are re-metered through the same [`SeedBudget`] the lazy
    /// warm uses, and a misaligned or over-budget list is silently
    /// dropped — the cache then starts unwarmed and the first
    /// [`CandidateCache::tidsets`] call rebuilds (and re-meters) from the
    /// dataset, exactly as a cold cache would.
    pub fn from_parts(
        minsup: usize,
        closed: bool,
        truncated: bool,
        candidates: Vec<TwoViewCandidate>,
        seeds: Option<Vec<(Tidset, Tidset)>>,
    ) -> CandidateCache {
        let tidsets = OnceLock::new();
        if let Some(pairs) = seeds {
            let budget = SeedBudget::new();
            if pairs.len() == candidates.len() && pairs.iter().all(|(lt, rt)| budget.admit(lt, rt))
            {
                let _ = tidsets.set(Some(pairs));
            }
        }
        CandidateCache {
            minsup: minsup.max(1),
            closed,
            set: CandidateSet {
                candidates,
                truncated,
            },
            tidsets,
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

    /// Per-candidate `(supp(left), supp(right))` tidsets, aligned with
    /// [`CandidateCache::candidates`]. Computed lazily on first use and
    /// shared thereafter; `None` when the set is too large for the budget
    /// (callers then recompute per run, exactly as before).
    ///
    /// The warm is [`seed_tidsets_where`] keeping every candidate, on
    /// `threads` pool participants; the budget meters the **actual bytes**
    /// of each tidset's chosen representation as they are built — under
    /// adaptive mode a sparse corpus caches many times more candidates
    /// than the old flat dense estimate admitted.
    pub fn tidsets(&self, data: &TwoViewDataset, threads: usize) -> Option<&[(Tidset, Tidset)]> {
        self.tidsets
            .get_or_init(|| {
                seed_tidsets_where(data, &self.set.candidates, threads, |_, _, _| true)
                    .1
                    .map(SeedTidsets::into_vec)
            })
            .as_deref()
    }

    /// The already-warmed seed tidsets, if any — a peek that never
    /// computes (unlike [`CandidateCache::tidsets`]). The snapshot writer
    /// uses it so saving a cache never triggers a warm as a side effect.
    pub fn warmed(&self) -> Option<&[(Tidset, Tidset)]> {
        self.tidsets.get().and_then(|cached| cached.as_deref())
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
    fn cache_tidsets_align_with_candidates() {
        let d = toy();
        let cache = CandidateCache::mine(&d, &MinerConfig::builder().minsup(1).build(), true);
        let tids = cache.tidsets(&d, 1).expect("toy data fits the budget");
        assert_eq!(tids.len(), cache.len());
        for (c, (lt, rt)) in cache.candidates().iter().zip(tids) {
            assert_eq!(lt, &d.support_set(&c.left));
            assert_eq!(rt, &d.support_set(&c.right));
        }
        // Second call returns the same cached slice.
        let again = cache.tidsets(&d, 1).unwrap();
        assert_eq!(again.as_ptr(), tids.as_ptr());
    }

    #[test]
    fn from_parts_reassembles_and_meters_seeds() {
        let d = toy();
        let mined = CandidateCache::mine(&d, &MinerConfig::builder().minsup(2).build(), true);
        let seeds: Vec<_> = mined.tidsets(&d, 1).unwrap().to_vec();
        let candidates = mined.candidates().to_vec();

        // Aligned seeds within budget install without recomputation.
        let cache = CandidateCache::from_parts(2, true, false, candidates.clone(), Some(seeds));
        assert_eq!(cache.minsup(), 2);
        assert!(cache.closed() && !cache.truncated());
        assert_eq!(cache.candidates(), mined.candidates());
        let warmed = cache.warmed().expect("seeds pre-installed");
        assert_eq!(warmed, mined.tidsets(&d, 1).unwrap());
        assert_eq!(cache.tidsets(&d, 1).unwrap().as_ptr(), warmed.as_ptr());

        // A misaligned seed list is dropped; the lazy warm then rebuilds.
        let bad = CandidateCache::from_parts(2, true, false, candidates.clone(), Some(Vec::new()));
        assert!(bad.warmed().is_none());
        assert_eq!(bad.tidsets(&d, 1).unwrap(), mined.tidsets(&d, 1).unwrap());

        // No seeds at all: cache starts unwarmed.
        let cold = CandidateCache::from_parts(2, true, false, candidates, None);
        assert!(cold.warmed().is_none());
    }

    #[test]
    fn seed_tidsets_where_filters_in_order_for_any_thread_count() {
        // Enough candidates that the 2- and 4-thread runs use the pool.
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
        assert!(cands.len() >= PARALLEL_MIN_CANDIDATES, "{}", cands.len());
        let keep = |c: &TwoViewCandidate, lt: &Tidset, rt: &Tidset| {
            !(lt.len() + rt.len() + c.len()).is_multiple_of(3)
        };
        let (kept, tids) = seed_tidsets_where(&d, &cands, 1, keep);
        let expected: Vec<usize> = (0..cands.len())
            .filter(|&i| {
                let c = &cands[i];
                keep(c, &d.support_set(&c.left), &d.support_set(&c.right))
            })
            .collect();
        assert_eq!(kept, expected);
        assert!(
            !kept.is_empty() && kept.len() < cands.len(),
            "the filter drops some"
        );
        let tids = tids.expect("the data fits the budget");
        assert_eq!(tids.len(), kept.len());
        for (pos, &i) in kept.iter().enumerate() {
            let (lt, rt) = tids.get(pos);
            assert_eq!(lt, &d.support_set(&cands[i].left));
            assert_eq!(rt, &d.support_set(&cands[i].right));
        }
        for threads in [2, 4] {
            let (k, t) = seed_tidsets_where(&d, &cands, threads, keep);
            assert_eq!(k, kept);
            let t = t.expect("the data fits the budget");
            assert!((0..kept.len()).all(|pos| t.get(pos) == tids.get(pos)));
        }
        let flat = tids.into_vec();
        assert_eq!(flat.len(), kept.len());
        for (pair, &i) in flat.iter().zip(&kept) {
            assert_eq!(pair.0, d.support_set(&cands[i].left));
        }
    }

    #[test]
    fn seed_budget_meters_actual_bytes() {
        let budget = SeedBudget::new();
        let sparse = Tidset::from_indices(64, [1usize, 5, 9]);
        let runs = Tidset::full(64);
        assert!(budget.admit(&sparse, &runs));
        assert_eq!(budget.bytes(), sparse.heap_bytes() + runs.heap_bytes());
        assert!(budget.admit(&sparse, &sparse));
        assert_eq!(
            budget.bytes(),
            3 * sparse.heap_bytes() + runs.heap_bytes(),
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
