//! Closed frequent itemset mining (DCI-Closed-style order-preserving DFS).
//!
//! An itemset is *closed* when no proper superset has the same support.
//! TRANSLATOR-SELECT and -GREEDY take closed frequent *two-view* itemsets as
//! their candidate sets (paper §5.3), and KRIMP also prefers closed
//! candidates.
//!
//! The miner extends a prefix depth-first. A node holds its closure `C`,
//! the closure's tidset and `post`, the later items still to try. For each
//! frequent extension `i = post[pos]` with tidset `ti` it settles the
//! closure of `C ∪ {i}` and
//!
//! 1. runs the **duplicate (order-preserving) check**: if the closure holds
//!    an item outside `C ∪ post[pos..]`, it has been or will be enumerated
//!    in that item's branch, so the whole subtree is pruned;
//! 2. **absorbs** the closure's items in `post[pos+1..]` (in `post` order);
//! 3. reports the closure and recurses on the rest of `post`.
//!
//! This enumerates every closed frequent itemset exactly once without any
//! global subsumption table.
//!
//! ## Closures from row masks
//!
//! Before the search, every transaction gets one bitmask over the frequent
//! items: bit `p` stands for the `p`-th frequent item in support order,
//! `⌈|F|/64⌉` words per row. The closure of `C ∪ {i}` is the set of items
//! present in every row of `ti`, so ANDing the masks of those rows settles
//! it: the device of LCM (Uno et al., FIMI'04). The AND starts from every
//! frequent item outside `C ∪ {i}` and runs over every row of `ti` in tid
//! order, stopping early when the mask is empty (the closure is then
//! `C ∪ {i}`). A bit survives every row exactly when its item `j` has
//! `ti ⊆ tid(j)`, so the closures are exact and no column is checked.
//!
//! The duplicate check needs no list of the items earlier branches own.
//! Every frequent item is in `C`, in `post`, in such an earlier branch, or
//! was infrequent against the tidset of this node or of an ancestor. An
//! item `j` of the last group cannot cover `ti`: `ti` lies inside that
//! tidset, so `ti ⊆ tid(j)` would force `|tid ∩ tid(j)| ≥ |ti| ≥ minsup`.
//! A closure item outside `C ∪ post[pos..]` is therefore an item an
//! earlier branch owns, and conversely.
//!
//! Like the ECLAT enumerator, the **first-level subtrees fan out across
//! the persistent [`twoview_runtime`] pool** on large inputs: the subtree
//! under `items[p]` reads only the shared masks and the columns, and its
//! duplicate check against `items[..p]` needs nothing from the earlier
//! subtrees, so each root task is self-contained and the per-root
//! segments concatenate, in root order, into precisely the serial
//! enumeration — bit-identical for any thread count, including under
//! `max_itemsets` truncation.

use twoview_data::prelude::*;

use crate::eclat::{
    fanout_threads, merge_segments, record_root_fanout, FrequentItemset, MinerConfig, MiningResult,
};

/// Mines all closed frequent itemsets of `data`.
///
/// Note: `cfg.max_len` is not supported for the closed miner (length caps
/// break the closure property) and is ignored.
pub fn mine_closed(data: &TwoViewDataset, cfg: &MinerConfig) -> MiningResult {
    let minsup = cfg.minsup.max(1);
    let mut items: Vec<ItemId> = (0..data.vocab().n_items() as ItemId)
        .filter(|&i| data.support(i) >= minsup)
        .collect();
    // Ascending support, the conventional ECLAT order.
    items.sort_unstable_by_key(|&i| data.support(i));
    let masks = RowMasks::build(data, &items);
    let miner = |budget| Miner {
        data,
        items: &items,
        masks: &masks,
        minsup,
        budget,
        frames: Vec::new(),
        out: MiningResult {
            itemsets: Vec::new(),
            truncated: false,
        },
    };

    let threads = fanout_threads(cfg.n_threads, items.len(), data.n_transactions());
    if threads > 1 {
        // Every subtree gets the full `max_itemsets` budget (a
        // thread-count-independent bound); `merge_segments` re-applies
        // the global valve.
        let roots: Vec<usize> = (0..items.len()).collect();
        record_root_fanout(roots.len());
        let segments = twoview_runtime::global().map_chunks(threads, &roots, 1, |_, pos| {
            miner(cfg.max_itemsets).expand_root(pos[0])
        });
        return merge_segments(segments, cfg.max_itemsets);
    }

    // Serial: same per-root expansion with the *remaining* budget, so
    // truncation stops exactly where the single-DFS enumerator used to.
    let mut segments = Vec::with_capacity(items.len());
    let mut produced = 0usize;
    for pos in 0..items.len() {
        let seg = miner(cfg.max_itemsets - produced).expand_root(pos);
        produced += seg.itemsets.len();
        let stop = seg.truncated;
        segments.push(seg);
        if stop {
            break;
        }
    }
    merge_segments(segments, cfg.max_itemsets)
}

/// One bitmask per transaction over the frequent items: bit `p` of row
/// `t` is set iff transaction `t` holds `items[p]`. It takes as much
/// memory as the frequent items' columns stored dense: 300 × 1 word for
/// House@300, 20 000 × 5 words (0.8 MB) for the wide-sparse cell.
struct RowMasks {
    words: usize,
    bits: Vec<u64>,
}

impl RowMasks {
    fn build(data: &TwoViewDataset, items: &[ItemId]) -> RowMasks {
        let words = items.len().div_ceil(64).max(1);
        let mut bits = vec![0u64; words * data.n_transactions()];
        for (p, &item) in items.iter().enumerate() {
            for t in data.tidset(item).iter() {
                bits[t * words + p / 64] |= 1 << (p % 64);
            }
        }
        RowMasks { words, bits }
    }

    #[inline]
    fn row(&self, t: usize) -> &[u64] {
        &self.bits[t * self.words..(t + 1) * self.words]
    }
}

/// Per-depth scratch of the DFS: a node's closure bits, its `post` list
/// (positions into the frequent items) and the bits of `post` not yet
/// tried, plus the mask an extension's closure is computed in.
#[derive(Default)]
struct Frame {
    closure_bits: Vec<u64>,
    rest: Vec<u64>,
    post: Vec<u32>,
    mask: Vec<u64>,
}

/// One first-level subtree of the closed-itemset DFS, bounded by `budget`
/// itemsets. Shared by the serial and the fanned-out miner so the two
/// cannot drift apart.
struct Miner<'a> {
    data: &'a TwoViewDataset,
    /// The frequent items in mining order; bit `p` of a mask is `items[p]`.
    items: &'a [ItemId],
    masks: &'a RowMasks,
    minsup: usize,
    budget: usize,
    /// `frames[d]` belongs to the node at depth `d` while it runs.
    frames: Vec<Frame>,
    out: MiningResult,
}

impl Miner<'_> {
    /// The root-loop body for `items[pos]`: the node `C = ∅` with the full
    /// tidset (so the child tidset is `tid(i)` itself) and
    /// `post = items[pos..]`.
    fn expand_root(mut self, pos: usize) -> MiningResult {
        let words = self.masks.words;
        let mut root = Frame {
            closure_bits: vec![0; words],
            rest: vec![0; words],
            post: Vec::new(),
            mask: vec![0; words],
        };
        for p in pos + 1..self.items.len() {
            set_bit(&mut root.rest, p);
        }
        let item = self.items[pos];
        let ti = self.data.tidset(item);
        if self.close(ti, pos, &root.closure_bits, &root.rest, &mut root.mask) {
            return self.out;
        }
        let mut closure = vec![item];
        let mut child = Frame::default();
        self.open_child(
            &root,
            pos,
            (pos + 1..self.items.len()).map(|p| p as u32),
            &mut closure,
            &mut child,
        );
        if self.budget == 0 {
            self.out.truncated = true;
            return self.out;
        }
        self.out.itemsets.push(FrequentItemset {
            items: ItemSet::from_items(closure.iter().copied()),
            support: ti.len(),
        });
        self.frames.push(child);
        self.dfs(0, ti, &mut closure);
        self.out
    }

    /// One DFS node at `depth`, whose closure, `post` and `rest` bits its
    /// parent left in `frames[depth]`; `tid` is the closure's tidset and
    /// `closure` its items.
    fn dfs(&mut self, depth: usize, tid: &Tidset, closure: &mut Vec<ItemId>) {
        if self.out.truncated {
            return;
        }
        let mut cur = std::mem::take(&mut self.frames[depth]);
        if self.frames.len() == depth + 1 {
            self.frames.push(Frame::default());
        }
        let mut child = std::mem::take(&mut self.frames[depth + 1]);
        cur.mask.resize(self.masks.words, 0);
        for k in 0..cur.post.len() {
            let ip = cur.post[k] as usize;
            clear_bit(&mut cur.rest, ip);
            let ts = self.data.tidset(self.items[ip]);
            // Count through the kernel first; extensions that fail the
            // support check never allocate anything.
            let support = tid.intersection_len(ts);
            if support < self.minsup {
                continue; // infrequent items can never cover a frequent tidset
            }
            let ti = tid.and_with_card(ts, support);
            if self.close(&ti, ip, &cur.closure_bits, &cur.rest, &mut cur.mask) {
                continue;
            }
            let before = closure.len();
            closure.push(self.items[ip]);
            let later = cur.post[k + 1..].iter().copied();
            self.open_child(&cur, ip, later, closure, &mut child);

            if self.out.itemsets.len() >= self.budget {
                self.out.truncated = true;
                closure.truncate(before);
                break;
            }
            self.out.itemsets.push(FrequentItemset {
                items: ItemSet::from_items(closure.iter().copied()),
                support,
            });

            self.frames[depth + 1] = child;
            self.dfs(depth + 1, &ti, closure);
            child = std::mem::take(&mut self.frames[depth + 1]);
            closure.truncate(before);
            if self.out.truncated {
                break;
            }
        }
        self.frames[depth] = cur;
        self.frames[depth + 1] = child;
    }

    /// Settles the closure of extension `items[ip]`, whose tidset is `ti`,
    /// at a node with closure bits `closure_bits` and untried `post` bits
    /// `rest`. Leaves the closure's items outside `C ∪ {i}` in `mask` and
    /// returns `true` iff one of them lies outside `rest`: a duplicate.
    fn close(
        &self,
        ti: &Tidset,
        ip: usize,
        closure_bits: &[u64],
        rest: &[u64],
        mask: &mut [u64],
    ) -> bool {
        for (m, &c) in mask.iter_mut().zip(closure_bits) {
            *m = !c;
        }
        clear_bit(mask, ip);
        // `ti` is frequent, hence not empty: its first row also clears the
        // bits past the last frequent item.
        for t in ti.iter() {
            let mut any = 0;
            for (m, &r) in mask.iter_mut().zip(self.masks.row(t)) {
                *m &= r;
                any |= *m;
            }
            if any == 0 {
                return false;
            }
        }
        mask.iter().zip(rest).any(|(&m, &r)| m & !r != 0)
    }

    /// Fills `child` for the fresh extension `items[ip]` of the node in
    /// `cur`, whose closure items outside `C ∪ {i}` are in `cur.mask`: the
    /// later items in `later` that the closure absorbs are appended to
    /// `closure`, the others form the child's `post`.
    fn open_child(
        &self,
        cur: &Frame,
        ip: usize,
        later: impl Iterator<Item = u32>,
        closure: &mut Vec<ItemId>,
        child: &mut Frame,
    ) {
        child.post.clear();
        for jp in later {
            if has_bit(&cur.mask, jp as usize) {
                closure.push(self.items[jp as usize]);
            } else {
                child.post.push(jp);
            }
        }
        child.closure_bits.clear();
        child.rest.clear();
        for ((&c, &m), &r) in cur.closure_bits.iter().zip(&cur.mask).zip(&cur.rest) {
            child.closure_bits.push(c | m);
            child.rest.push(r & !m);
        }
        set_bit(&mut child.closure_bits, ip);
    }
}

#[inline]
fn set_bit(words: &mut [u64], p: usize) {
    words[p / 64] |= 1 << (p % 64);
}

#[inline]
fn clear_bit(words: &mut [u64], p: usize) {
    words[p / 64] &= !(1 << (p % 64));
}

#[inline]
fn has_bit(words: &[u64], p: usize) -> bool {
    words[p / 64] >> (p % 64) & 1 == 1
}

/// Brute-force closed itemset enumeration for tests: all frequent itemsets,
/// keeping those with no same-support proper superset.
pub fn brute_force_closed(data: &TwoViewDataset, cfg: &MinerConfig) -> Vec<FrequentItemset> {
    let all = crate::eclat::brute_force_frequent(
        data,
        &MinerConfig {
            max_len: None,
            ..cfg.clone()
        },
    );
    all.iter()
        .filter(|f| {
            !all.iter().any(|g| {
                g.support == f.support
                    && g.items.len() > f.items.len()
                    && f.items.is_subset(&g.items)
            })
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sorted(v: &[FrequentItemset]) -> Vec<(Vec<ItemId>, usize)> {
        let mut out: Vec<(Vec<ItemId>, usize)> = v
            .iter()
            .map(|f| (f.items.as_slice().to_vec(), f.support))
            .collect();
        out.sort();
        out
    }

    fn toy() -> TwoViewDataset {
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

    #[test]
    fn matches_brute_force_on_toy() {
        let d = toy();
        for minsup in 1..=4 {
            let cfg = MinerConfig::builder().minsup(minsup).build();
            let fast = mine_closed(&d, &cfg);
            let slow = brute_force_closed(&d, &cfg);
            assert_eq!(sorted(&fast.itemsets), sorted(&slow), "minsup={minsup}");
        }
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let vocab = Vocabulary::unnamed(4, 4);
            let txs: Vec<Vec<ItemId>> = (0..12)
                .map(|_| (0..8).filter(|_| rng.gen_bool(0.4)).collect())
                .collect();
            let d = TwoViewDataset::from_transactions(vocab, &txs);
            for minsup in [1, 2, 3] {
                let cfg = MinerConfig::builder().minsup(minsup).build();
                let fast = mine_closed(&d, &cfg);
                let slow = brute_force_closed(&d, &cfg);
                assert_eq!(
                    sorted(&fast.itemsets),
                    sorted(&slow),
                    "trial={trial} minsup={minsup}"
                );
            }
        }
    }

    #[test]
    fn every_reported_set_is_closed_and_support_correct() {
        let d = toy();
        let res = mine_closed(&d, &MinerConfig::builder().minsup(1).build());
        for f in &res.itemsets {
            assert_eq!(f.support, d.support_count(&f.items));
            let tid = d.support_set(&f.items);
            for i in 0..d.vocab().n_items() as ItemId {
                if !f.items.contains(i) {
                    assert!(
                        !tid.is_subset(d.tidset(i)),
                        "{:?} not closed: item {i} covers it",
                        f.items
                    );
                }
            }
        }
    }

    #[test]
    fn no_duplicates() {
        let d = toy();
        let res = mine_closed(&d, &MinerConfig::builder().minsup(1).build());
        let mut seen = std::collections::HashSet::new();
        for f in &res.itemsets {
            assert!(seen.insert(f.items.clone()), "duplicate {:?}", f.items);
        }
    }

    #[test]
    fn item_in_every_transaction_joins_all_closures() {
        // Item "z" occurs everywhere: every closed set must contain it.
        let vocab = Vocabulary::new(["a", "z"], ["x"]);
        let d = TwoViewDataset::from_transactions(vocab, &[vec![0, 1, 2], vec![1, 2], vec![0, 1]]);
        let res = mine_closed(&d, &MinerConfig::builder().minsup(1).build());
        for f in &res.itemsets {
            assert!(
                f.items.contains(1),
                "{:?} misses the universal item",
                f.items
            );
        }
    }

    #[test]
    fn parallel_enumeration_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..8 {
            let vocab = Vocabulary::unnamed(5, 4);
            let txs: Vec<Vec<ItemId>> = (0..14)
                .map(|_| (0..9).filter(|_| rng.gen_bool(0.45)).collect())
                .collect();
            let d = TwoViewDataset::from_transactions(vocab, &txs);
            for max_itemsets in [usize::MAX, 5, 1] {
                let serial = MinerConfig {
                    n_threads: Some(1),
                    max_itemsets,
                    ..MinerConfig::builder().minsup(1).build()
                };
                let base = mine_closed(&d, &serial);
                for threads in [2, 8] {
                    let cfg = MinerConfig {
                        n_threads: Some(threads),
                        ..serial.clone()
                    };
                    let par = mine_closed(&d, &cfg);
                    assert_eq!(
                        par.itemsets, base.itemsets,
                        "trial={trial} threads={threads} cap={max_itemsets}"
                    );
                    assert_eq!(par.truncated, base.truncated, "trial={trial}");
                }
            }
        }
    }

    #[test]
    fn truncation_respected() {
        let d = toy();
        let mut cfg = MinerConfig::builder().minsup(1).build();
        cfg.max_itemsets = 2;
        let res = mine_closed(&d, &cfg);
        assert!(res.truncated);
        assert_eq!(res.itemsets.len(), 2);
    }
}
