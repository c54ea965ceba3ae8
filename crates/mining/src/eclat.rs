//! ECLAT: frequent itemset mining over the vertical (tidset) layout.
//!
//! Depth-first enumeration with tidset intersections (Zaki et al., *New
//! algorithms for fast discovery of association rules*, KDD'97). This is
//! both a baseline building block (classic association rule mining) and the
//! reference enumerator the closed miner and the tests are checked against.
//!
//! ## Parallel first-level expansion
//!
//! The subtrees rooted at the first-level items are independent, so on
//! large inputs they are expanded concurrently through the persistent
//! [`twoview_runtime`] pool — one stealable task per root item, results
//! concatenated in root order. Because every subtree's internal DFS order
//! is untouched and the merge preserves submission order, the itemset list
//! (including its enumeration order, and including where a `max_itemsets`
//! truncation cuts it) is **bit-identical to the serial miner for any
//! thread count**; see `merge_segments`.

use twoview_data::prelude::*;

/// Configuration shared by the miners in this crate.
#[derive(Clone, Debug)]
pub struct MinerConfig {
    /// Minimum (absolute) support. Clamped to at least 1.
    pub minsup: usize,
    /// Maximum itemset length (`None` = unbounded).
    pub max_len: Option<usize>,
    /// Safety valve: stop enumerating after this many itemsets.
    ///
    /// Parallel runs bound each first-level subtree by this many itemsets
    /// and trim the ordered concatenation to it, which reproduces the
    /// serial result exactly; the transient memory high-water mark can
    /// exceed the serial miner's when several subtrees are near the valve
    /// at once.
    pub max_itemsets: usize,
    /// Worker threads for first-level expansion. `None` = the process
    /// default ([`twoview_runtime::configured_threads`]) once the input is
    /// large enough to pay for task submission; an explicit `Some(t > 1)`
    /// always fans out. The mined result is identical for any value.
    pub n_threads: Option<usize>,
}

impl MinerConfig {
    /// Fluent builder with paper-default settings (`minsup = 1`, no length
    /// cap, 5M-itemset valve, process-default threads).
    pub fn builder() -> MinerConfigBuilder {
        MinerConfigBuilder {
            cfg: MinerConfig {
                minsup: 1,
                max_len: None,
                max_itemsets: 5_000_000,
                n_threads: None,
            },
        }
    }

    /// Sets the maximum itemset length.
    pub fn max_len(mut self, len: usize) -> Self {
        self.max_len = Some(len);
        self
    }
}

/// Fluent builder for [`MinerConfig`]; see [`MinerConfig::builder`].
#[derive(Clone, Debug)]
pub struct MinerConfigBuilder {
    cfg: MinerConfig,
}

impl MinerConfigBuilder {
    /// Minimum absolute support (clamped to at least 1).
    pub fn minsup(mut self, minsup: usize) -> Self {
        self.cfg.minsup = minsup.max(1);
        self
    }

    /// Maximum itemset length.
    pub fn max_len(mut self, len: usize) -> Self {
        self.cfg.max_len = Some(len);
        self
    }

    /// Enumeration safety valve.
    pub fn max_itemsets(mut self, n: usize) -> Self {
        self.cfg.max_itemsets = n;
        self
    }

    /// Worker threads for first-level expansion (`Some(t)`); see
    /// [`MinerConfig::n_threads`].
    pub fn threads(mut self, t: usize) -> Self {
        self.cfg.n_threads = Some(t);
        self
    }

    /// Inherit the process-default thread count (the default).
    pub fn default_threads(mut self) -> Self {
        self.cfg.n_threads = None;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> MinerConfig {
        self.cfg
    }
}

/// Decides whether a mining run fans out across first-level subtrees:
/// explicit thread configs always do, automatic ones only when the tidset
/// volume makes the per-task submission cost negligible.
pub(crate) fn fanout_threads(cfg_threads: Option<usize>, n_roots: usize, n_tx: usize) -> usize {
    let threads = twoview_runtime::resolve_threads(cfg_threads);
    if threads <= 1 || n_roots < 2 {
        return 1;
    }
    if cfg_threads.is_none() && n_roots.saturating_mul(n_tx) < (1 << 16) {
        return 1;
    }
    threads
}

/// Records one first-level subtree fan-out in the `mine.*` registry cells
/// (shared by the frequent and closed miners).
pub(crate) fn record_root_fanout(n_roots: usize) {
    use twoview_runtime::obs;
    struct FanoutMetrics {
        fanouts: obs::Counter,
        root_tasks: obs::Counter,
    }
    static METRICS: std::sync::OnceLock<FanoutMetrics> = std::sync::OnceLock::new();
    let metrics = METRICS.get_or_init(|| FanoutMetrics {
        fanouts: obs::counter("mine.root_fanouts"),
        root_tasks: obs::counter("mine.root_tasks"),
    });
    metrics.fanouts.incr();
    metrics.root_tasks.add(n_roots as u64);
}

/// Concatenates per-root segments in root (submission) order, applying the
/// `max_itemsets` valve exactly like the serial enumerator: the output is
/// the first `max_itemsets` itemsets of the full serial enumeration order,
/// and `truncated` is set iff the serial run would have set it.
pub(crate) fn merge_segments(segments: Vec<MiningResult>, max_itemsets: usize) -> MiningResult {
    let mut out = MiningResult {
        itemsets: Vec::new(),
        truncated: false,
    };
    for seg in segments {
        out.truncated |= seg.truncated;
        for itemset in seg.itemsets {
            if out.itemsets.len() >= max_itemsets {
                out.truncated = true;
                return out;
            }
            out.itemsets.push(itemset);
        }
    }
    out
}

/// A frequent itemset and its absolute support.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The items (global ids, sorted).
    pub items: ItemSet,
    /// `|supp(items)|`.
    pub support: usize,
}

/// The result of a mining run.
#[derive(Clone, Debug)]
pub struct MiningResult {
    /// The discovered itemsets (enumeration order).
    pub itemsets: Vec<FrequentItemset>,
    /// `true` if enumeration stopped early because `max_itemsets` was hit.
    pub truncated: bool,
}

/// Mines **all** frequent non-empty itemsets of `data`.
pub fn mine_frequent(data: &TwoViewDataset, cfg: &MinerConfig) -> MiningResult {
    let minsup = cfg.minsup.max(1);
    // Ascending support order keeps tidsets small early, the classic ECLAT
    // heuristic.
    let mut items: Vec<ItemId> = (0..data.vocab().n_items() as ItemId)
        .filter(|&i| data.support(i) >= minsup)
        .collect();
    items.sort_unstable_by_key(|&i| data.support(i));

    let threads = fanout_threads(cfg.n_threads, items.len(), data.n_transactions());
    if threads > 1 {
        // One task per first-level subtree, stolen chunk-wise from the
        // pool; segments come back in root order, so the concatenation is
        // the serial enumeration order. Every subtree gets the full
        // `max_itemsets` budget (a thread-count-independent bound);
        // `merge_segments` re-applies the global valve.
        let roots: Vec<usize> = (0..items.len()).collect();
        record_root_fanout(roots.len());
        let segments = twoview_runtime::global().map_chunks(threads, &roots, 1, |_, pos| {
            expand_root(data, cfg, &items, pos[0], cfg.max_itemsets)
        });
        return merge_segments(segments, cfg.max_itemsets);
    }

    // Serial: same per-root expansion, with the *remaining* budget handed
    // to each subtree so truncation stops the run exactly where the
    // single-DFS enumerator used to.
    let mut segments = Vec::with_capacity(items.len());
    let mut produced = 0usize;
    for pos in 0..items.len() {
        let seg = expand_root(data, cfg, &items, pos, cfg.max_itemsets - produced);
        produced += seg.itemsets.len();
        let stop = seg.truncated;
        segments.push(seg);
        if stop {
            break;
        }
    }
    merge_segments(segments, cfg.max_itemsets)
}

/// One first-level subtree: the root-loop body for `items[pos]` with
/// `tid = full` (so the root tidset is `tid(item)` itself, and the item is
/// frequent by pre-filtering), bounded by `budget` itemsets. Shared by the
/// serial and the fanned-out miner so the two cannot drift apart.
fn expand_root(
    data: &TwoViewDataset,
    cfg: &MinerConfig,
    items: &[ItemId],
    pos: usize,
    budget: usize,
) -> MiningResult {
    let item = items[pos];
    let mut seg = MiningResult {
        itemsets: Vec::new(),
        truncated: false,
    };
    if cfg.max_len == Some(0) {
        return seg;
    }
    if budget == 0 {
        seg.truncated = true;
        return seg;
    }
    let budgeted = MinerConfig {
        max_itemsets: budget,
        ..cfg.clone()
    };
    let tid = data.tidset(item);
    seg.itemsets.push(FrequentItemset {
        items: ItemSet::singleton(item),
        support: tid.len(),
    });
    let mut prefix = vec![item];
    dfs(
        data,
        &budgeted,
        &items[pos + 1..],
        tid,
        &mut prefix,
        &mut seg,
    );
    seg
}

fn dfs(
    data: &TwoViewDataset,
    cfg: &MinerConfig,
    ext: &[ItemId],
    tid: &Tidset,
    prefix: &mut Vec<ItemId>,
    out: &mut MiningResult,
) {
    if out.truncated {
        return;
    }
    if let Some(ml) = cfg.max_len {
        if prefix.len() >= ml {
            return;
        }
    }
    for (pos, &i) in ext.iter().enumerate() {
        let ts = data.tidset(i);
        // Count through the kernel first (sparse operands gallop instead of
        // scanning words); only materialise the child tidset — in whichever
        // representation is cheaper — for extensions that survive.
        let support = tid.intersection_len(ts);
        if support < cfg.minsup {
            continue;
        }
        let ti = tid.and_with_card(ts, support);
        prefix.push(i);
        if out.itemsets.len() >= cfg.max_itemsets {
            out.truncated = true;
            prefix.pop();
            return;
        }
        out.itemsets.push(FrequentItemset {
            items: ItemSet::from_items(prefix.iter().copied()),
            support,
        });
        dfs(data, cfg, &ext[pos + 1..], &ti, prefix, out);
        prefix.pop();
        if out.truncated {
            return;
        }
    }
}

/// Brute-force frequent itemset enumeration — exponential, only for tests
/// and tiny inputs, kept here so every crate can cross-check its miner.
pub fn brute_force_frequent(data: &TwoViewDataset, cfg: &MinerConfig) -> Vec<FrequentItemset> {
    let n_items = data.vocab().n_items();
    assert!(n_items <= 20, "brute force is for tiny vocabularies only");
    let mut out = Vec::new();
    for mask in 1u32..(1u32 << n_items) {
        let items: ItemSet = (0..n_items as ItemId)
            .filter(|&i| mask >> i & 1 == 1)
            .collect();
        if let Some(ml) = cfg.max_len {
            if items.len() > ml {
                continue;
            }
        }
        let support = data.support_count(&items);
        if support >= cfg.minsup {
            out.push(FrequentItemset { items, support });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TwoViewDataset {
        // a,b,c | x,y over 6 transactions
        let vocab = Vocabulary::new(["a", "b", "c"], ["x", "y"]);
        TwoViewDataset::from_transactions(
            vocab,
            &[
                vec![0, 1, 3],
                vec![0, 1, 3, 4],
                vec![0, 2, 4],
                vec![1, 3],
                vec![0, 1, 2, 3, 4],
                vec![2],
            ],
        )
    }

    fn sorted(mut v: Vec<FrequentItemset>) -> Vec<(Vec<ItemId>, usize)> {
        let mut out: Vec<(Vec<ItemId>, usize)> = v
            .drain(..)
            .map(|f| (f.items.as_slice().to_vec(), f.support))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn matches_brute_force() {
        let d = toy();
        for minsup in 1..=4 {
            let cfg = MinerConfig::builder().minsup(minsup).build();
            let fast = mine_frequent(&d, &cfg);
            assert!(!fast.truncated);
            let slow = brute_force_frequent(&d, &cfg);
            assert_eq!(sorted(fast.itemsets), sorted(slow), "minsup={minsup}");
        }
    }

    #[test]
    fn max_len_respected() {
        let d = toy();
        let cfg = MinerConfig::builder().minsup(1).max_len(2).build();
        let res = mine_frequent(&d, &cfg);
        assert!(res.itemsets.iter().all(|f| f.items.len() <= 2));
        let slow = brute_force_frequent(&d, &cfg);
        assert_eq!(sorted(res.itemsets), sorted(slow));
    }

    #[test]
    fn supports_are_correct() {
        let d = toy();
        let res = mine_frequent(&d, &MinerConfig::builder().minsup(2).build());
        for f in &res.itemsets {
            assert_eq!(f.support, d.support_count(&f.items), "{:?}", f.items);
        }
    }

    #[test]
    fn truncation_flag() {
        let d = toy();
        let mut cfg = MinerConfig::builder().minsup(1).build();
        cfg.max_itemsets = 3;
        let res = mine_frequent(&d, &cfg);
        assert!(res.truncated);
        assert_eq!(res.itemsets.len(), 3);
    }

    #[test]
    fn parallel_enumeration_is_bit_identical() {
        // Explicit thread configs force the fan-out even on toy data; the
        // itemset list (values AND order) must match the serial miner for
        // any thread count, with and without truncation.
        let d = toy();
        for max_itemsets in [usize::MAX, 7, 3, 1] {
            let serial = MinerConfig {
                n_threads: Some(1),
                max_itemsets,
                ..MinerConfig::builder().minsup(1).build()
            };
            let base = mine_frequent(&d, &serial);
            for threads in [2, 4, 16] {
                let cfg = MinerConfig {
                    n_threads: Some(threads),
                    ..serial.clone()
                };
                let par = mine_frequent(&d, &cfg);
                assert_eq!(
                    par.itemsets, base.itemsets,
                    "threads={threads} cap={max_itemsets}"
                );
                assert_eq!(
                    par.truncated, base.truncated,
                    "threads={threads} cap={max_itemsets}"
                );
            }
        }
    }

    #[test]
    fn parallel_respects_max_len() {
        let d = toy();
        for ml in [0, 1, 2] {
            let serial = MinerConfig {
                n_threads: Some(1),
                ..MinerConfig::builder().minsup(1).max_len(ml).build()
            };
            let par = MinerConfig {
                n_threads: Some(4),
                ..serial.clone()
            };
            assert_eq!(
                mine_frequent(&d, &par).itemsets,
                mine_frequent(&d, &serial).itemsets,
                "max_len={ml}"
            );
        }
    }

    #[test]
    fn high_minsup_yields_nothing() {
        let d = toy();
        let res = mine_frequent(&d, &MinerConfig::builder().minsup(100).build());
        assert!(res.itemsets.is_empty());
        assert!(!res.truncated);
    }
}
