//! The exact gain table TRANSLATOR-SELECT and EXACT's seed incumbent score
//! their fixed candidate sets from.
//!
//! Both need, every round, the three rule gains of every live candidate
//! against the current cover state. A directional gain is
//! `Σ_y w_y · net_y` over the consequent (Eq. 2, [`weighted_nets`]), where
//! `net_y = hits − misses` of the antecedent tidset against item `y`'s
//! column ([`CoverState::column_net`]). A rule application changes a
//! column only by the cells it freshly covers or makes erroneous
//! ([`CellDelta`]), and only target-side columns on its antecedent's rows.
//! So the table keeps every `net_y` as an `i32` and, after each round,
//! moves only the counts whose column the round touched:
//!
//! ```text
//! net_y -= |supp(antecedent) ∩ fresh_covered(y)|
//! net_y += |supp(antecedent) ∩ fresh_errors(y)|
//! ```
//!
//! Fresh cells are disjoint across applications, so summing over every
//! logged entry is exact without assuming one entry per column and round.
//! A directional gain whose counts moved is re-summed in the consequent's
//! item order through [`weighted_nets`], and the three rule gains are
//! composed with [`rule_gains`] — the two expressions
//! [`CoverState::pair_gains`] evaluates. Every gain is therefore
//! bit-identical to its from-scratch recomputation in every round, and no
//! bound rations its upkeep: every live candidate's gains are current
//! every round. ([`GainTable::rule_gains`] only lets SELECT's top-k scan
//! and EXACT's incumbent scan skip composing gains that provably cannot
//! make the cut.)
//!
//! A count depends only on the antecedent itemset and the consequent
//! item, and mined candidates repeat their view projections (one `X` with
//! many `Y`s and vice versa). So the seed setup interns every candidate's
//! `X` and `Y` per side ([`twoview_mining::ItemsetIds`]) and computes one
//! tidset per distinct itemset ([`twoview_mining::seed_sets`]), and the
//! table keeps one `i32` count per distinct (antecedent itemset,
//! consequent item) pair. Each candidate reaches its counts through slot
//! indices in consequent item order; an update moves each touched pair
//! once and re-sums only the directional gains one of whose pairs moved.
//! Distinct pairs against per-candidate counts over the live candidates of
//! the benchmark inputs (seed 3): on `sparse-cold`, clustered-runs 10 987
//! / 369 975 (3%), tall-sparse 1 863 / 6 630 (28%) and wide-sparse 22 780
//! / 44 761 (51%); on `paper-cold`, from House 95 219 / 915 321 (10%) and
//! Tictactoe 24 994 / 215 448 (12%) to Crime 8 330 / 11 630 (72%); on
//! `serve-open`, Adult 365 / 1 516 (24%).
//!
//! Everything runs on the calling thread, so the table is identical for
//! any thread count. Against the per-candidate table it replaced, which
//! built and updated on two pool threads, solver time fell on both cold
//! workloads' inputs (in-process, 2-vCPU host, seed 3, median of three
//! interleaved runs): `sparse-cold` SELECT(1) 468 → 111 ms and SELECT(25)
//! 401 → 77 ms, `paper-cold` SELECT(1) 516 → 361 ms, SELECT(25) 438 →
//! 274 ms and capped EXACT 1 761 → 1 636 ms. The least shared input,
//! wide-sparse, ran SELECT at 0.52–0.64×, so no pool path is kept.
//!
//! GREEDY keeps the same counts under the same key in a [`NetMemo`]. It
//! evaluates each candidate once, so no table is built up front: a count
//! is computed when its pair is first read, reused until the cell log
//! names a change to its column, and then computed afresh. The memo is
//! only probed, never scanned. On clustered-runs (seed 3) GREEDY reads
//! 369 975 nets of 10 987 distinct pairs, and computes only 55 807 of
//! them. On House@300 it computes 172 625 of 915 321. Each count is an
//! exact integer that no later rule has moved, and the gains go through
//! [`weighted_nets`] and [`rule_gains`], so GREEDY's gains stay
//! bit-identical too. A prototype that built this table over every
//! candidate up front, with version stamps, made `paper-cold`'s 14
//! GREEDY cells 35% slower: on House@300, the pass over 158 767
//! candidates and the scattered slot reads cost more than the 5-word nets
//! they skip. The memo is open addressing on the packed pair; a std
//! `HashMap` sized the same way made the GREEDY solve slower on every
//! input tried (seed 3, in-process, best of 21 interleaved runs):
//! House@300 43.8 → 53.3 ms, Tictactoe@300 9.6 → 11.5 ms, clustered-runs
//! 24.4 → 28.1 ms.

use std::borrow::Cow;

use twoview_data::prelude::*;
use twoview_mining::{SeedSets, TwoViewCandidate};

use crate::bounds;
use crate::cover::{rule_gains, weighted_nets, CellDelta, CoverState};
use crate::encoding::CodeLengths;

/// The seed setup of one run over a fixed candidate list
/// ([`SeedSets`]): every candidate's itemset ids, the support of each
/// distinct itemset and, when they fit the budget, its tidset. It is
/// borrowed from the engine's warmed cache when the caller has one, and
/// otherwise built for this run; without tidsets (over budget) each is
/// recomputed on use. GREEDY reads it directly; SELECT and EXACT's
/// incumbent through [`Live`].
pub(crate) struct Seeds<'c> {
    data: &'c TwoViewDataset,
    cands: &'c [TwoViewCandidate],
    sets: Cow<'c, SeedSets>,
}

impl<'c> Seeds<'c> {
    /// Borrows `shared`, the seed setup of exactly `candidates` (the
    /// engine's warmed cache), when given; otherwise runs
    /// [`twoview_mining::seed_sets`] for this run.
    pub(crate) fn new(
        data: &'c TwoViewDataset,
        candidates: &'c [TwoViewCandidate],
        shared: Option<&'c SeedSets>,
    ) -> Seeds<'c> {
        let sets = match shared {
            Some(sets) => {
                debug_assert_eq!(sets.ids.ids().len(), candidates.len());
                Cow::Borrowed(sets)
            }
            None => Cow::Owned(twoview_mining::seed_sets(data, candidates)),
        };
        Seeds {
            data,
            cands: candidates,
            sets,
        }
    }

    /// `[left id, right id]` of every candidate, in candidate order.
    pub(crate) fn ids(&self) -> &[[u32; 2]] {
        self.sets.ids.ids()
    }

    /// The distinct itemsets of `side`, by id.
    pub(crate) fn itemsets(&self, side: Side) -> impl Iterator<Item = &'c ItemSet> + '_ {
        let cands = self.cands;
        self.sets
            .ids
            .first(side)
            .iter()
            .map(move |&c| cands[c as usize].projection(side))
    }

    /// `qub` of candidate `i`, read off the supports of its itemsets.
    ///
    /// `qub` depends only on supports and code lengths, never on the cover
    /// state, and dominates all three rule gains, so a candidate with
    /// `qub ≤ 0` can never be added in any round.
    pub(crate) fn qub(&self, codes: &CodeLengths, i: usize) -> f64 {
        let (c, [l, r]) = (&self.cands[i], self.ids()[i]);
        let support = &self.sets.support;
        bounds::qub_parts(
            support[0][l as usize] as f64,
            support[1][r as usize] as f64,
            codes.itemset(&c.left),
            codes.itemset(&c.right),
        )
    }

    /// The support tidset of `side`'s itemset `id`.
    pub(crate) fn tidset(&self, side: Side, id: u32) -> Cow<'_, Tidset> {
        match &self.sets.tidsets {
            Some(sets) => Cow::Borrowed(&sets[side.index()][id as usize]),
            None => {
                let first = self.sets.ids.first(side)[id as usize] as usize;
                Cow::Owned(self.data.support_set(self.cands[first].projection(side)))
            }
        }
    }
}

/// The live candidates of one run — those with `qub > 0`, in candidate
/// order — and their seed setup.
pub(crate) struct Live<'c> {
    seeds: Seeds<'c>,
    cands: Vec<&'c TwoViewCandidate>,
    /// `[left id, right id]` per live candidate.
    ids: Vec<[u32; 2]>,
}

impl<'c> Live<'c> {
    /// The seed setup ([`Seeds::new`]) and its `qub` survivors.
    pub(crate) fn new(
        data: &'c TwoViewDataset,
        codes: &CodeLengths,
        candidates: &'c [TwoViewCandidate],
        shared: Option<&'c SeedSets>,
    ) -> Live<'c> {
        let seeds = Seeds::new(data, candidates, shared);
        let (cands, ids) = (0..candidates.len())
            .filter(|&i| seeds.qub(codes, i) > 0.0)
            .map(|i| (&candidates[i], seeds.ids()[i]))
            .unzip();
        Live { seeds, cands, ids }
    }

    /// Number of live candidates.
    pub(crate) fn len(&self) -> usize {
        self.cands.len()
    }

    /// The live candidates, in candidate order.
    pub(crate) fn cands(&self) -> &[&'c TwoViewCandidate] {
        &self.cands
    }
}

/// Per live candidate, the two directional gains, summed from one
/// `hits − misses` count per distinct (antecedent itemset, consequent
/// item) pair.
pub(crate) struct GainTable {
    /// The forward direction (antecedent `X`), then the backward one
    /// (antecedent `Y`).
    dirs: [DirPairs; 2],
    /// `[forward, backward]` directional data gains per candidate.
    dir_gains: Vec<[f64; 2]>,
    /// The candidates the current update re-derived a gain of.
    refreshed: Bitmap,
}

impl GainTable {
    /// Derives every count from scratch against `state`.
    pub(crate) fn build(state: &CoverState<'_>, live: &Live<'_>) -> GainTable {
        assert_counts_fit(state);
        let dirs = Side::BOTH.map(|from| DirPairs::build(state, live, from));
        let mut dir_gains = vec![[0.0; 2]; live.len()];
        for (d, dir) in dirs.iter().enumerate() {
            for (k, &pos) in dir.cands.iter().enumerate() {
                dir_gains[pos as usize][d] = dir.sum(k);
            }
        }
        GainTable {
            dirs,
            dir_gains,
            refreshed: Bitmap::new(live.len()),
        }
    }

    /// Moves the count of every pair `log` touched and re-sums the
    /// directional gains one of whose pairs moved. `state` must be the
    /// state the logged applications produced. Returns the number of
    /// candidates whose gains were re-derived.
    pub(crate) fn update(
        &mut self,
        state: &CoverState<'_>,
        live: &Live<'_>,
        log: Vec<CellDelta>,
    ) -> usize {
        let log = LogIndex::new(log, state.data().vocab().n_items());
        self.refreshed.clear();
        let mut refreshed = 0;
        for (d, from) in Side::BOTH.into_iter().enumerate() {
            let dir = &mut self.dirs[d];
            dir.shift(&log, |a| live.seeds.tidset(from, a));
            for a in 0..dir.ant_moved.len() {
                if !std::mem::take(&mut dir.ant_moved[a]) {
                    continue;
                }
                for k in dir.group[a] as usize..dir.group[a + 1] as usize {
                    let slots = dir.slots(k);
                    if !slots.iter().any(|&p| dir.moved[p as usize]) {
                        continue;
                    }
                    let pos = dir.cands[k] as usize;
                    self.dir_gains[pos][d] = dir.sum(k);
                    refreshed += usize::from(self.refreshed.insert(pos));
                }
                let pairs = dir.start[a] as usize..dir.start[a + 1] as usize;
                dir.moved[pairs].fill(false);
            }
        }
        refreshed
    }

    /// The three rule gains of live candidate `pos`, in
    /// [`crate::Direction::ALL`] order, or `None` when every one of them
    /// is provably `≤ 0` or `< at_least`, so a scan for the best gains can
    /// pass the candidate over. The bound drops the encoded itemset
    /// lengths (`L(X) + L(Y) ≥ 0`), so it costs no itemset walk and, by
    /// monotone rounding, never falls below the composed gain. Composing
    /// every candidate's gains instead (as a collect-then-select scan
    /// does) made SELECT and EXACT 12–21% slower on the benchmark inputs
    /// (see `select.rs`).
    #[inline]
    pub(crate) fn rule_gains(
        &self,
        pos: usize,
        codes: &CodeLengths,
        cand: &TwoViewCandidate,
        at_least: f64,
    ) -> Option<[f64; 3]> {
        let [g_fwd, g_bwd] = self.dir_gains[pos];
        let bound = rule_gains(g_fwd, g_bwd, 0.0)
            .into_iter()
            .fold(f64::MIN, f64::max);
        if bound <= 0.0 || bound < at_least {
            return None;
        }
        let base = codes.itemset(&cand.left) + codes.itemset(&cand.right);
        Some(rule_gains(g_fwd, g_bwd, base))
    }
}

/// One direction of the table: its distinct (antecedent itemset,
/// consequent item) pairs, and the live candidates grouped by antecedent
/// id, each with one slot per consequent item pointing at its pair.
struct DirPairs {
    /// The pairs of antecedent `a` are `start[a]..start[a + 1]`.
    start: Vec<u32>,
    /// Consequent item of each pair.
    items: Vec<ItemId>,
    /// Code length `L(y)` of each pair's item.
    weights: Vec<f64>,
    /// `hits − misses` of each pair.
    counts: Vec<i32>,
    /// Pairs whose count the current update moved.
    moved: Vec<bool>,
    /// Antecedents with a moved pair in the current update.
    ant_moved: Vec<bool>,
    /// The grouped candidates of antecedent `a` are
    /// `group[a]..group[a + 1]`.
    group: Vec<u32>,
    /// Live position of each grouped candidate.
    cands: Vec<u32>,
    /// Where each grouped candidate's slots end in `slots`; they start
    /// where the previous one's end.
    ends: Vec<u32>,
    /// Each grouped candidate's pairs, in consequent item order.
    slots: Vec<u32>,
}

impl DirPairs {
    /// The direction firing `from`: the live candidates grouped by
    /// antecedent id (candidate order within a group), each antecedent
    /// given one pair per distinct item of its candidates' consequents
    /// (first occurrence first), and each pair's count derived from the
    /// antecedent's tidset, fetched once.
    fn build(state: &CoverState<'_>, live: &Live<'_>, from: Side) -> DirPairs {
        let s = from.index();
        let n_ants = live.seeds.sets.ids.first(from).len();
        let mut group = vec![0u32; n_ants + 1];
        for ids in &live.ids {
            group[ids[s] as usize + 1] += 1;
        }
        for a in 0..n_ants {
            group[a + 1] += group[a];
        }
        let mut cands = vec![0u32; live.len()];
        let mut fill = group.clone();
        for (pos, ids) in live.ids.iter().enumerate() {
            let a = ids[s] as usize;
            cands[fill[a] as usize] = pos as u32;
            fill[a] += 1;
        }
        // `local[y]`: the pair of item `y` under the current antecedent,
        // when it is at least that antecedent's first pair and holds `y`.
        let mut local = vec![0u32; state.data().vocab().n_items()];
        let mut start = Vec::with_capacity(n_ants + 1);
        let mut items: Vec<ItemId> = Vec::new();
        let mut ends = Vec::with_capacity(live.len());
        let mut slots = Vec::new();
        start.push(0);
        for a in 0..n_ants {
            let first = items.len();
            for &pos in &cands[group[a] as usize..group[a + 1] as usize] {
                for y in live.cands[pos as usize].projection(from.opposite()).iter() {
                    let p = &mut local[y as usize];
                    if (*p as usize) < first || items.get(*p as usize) != Some(&y) {
                        *p = items.len() as u32;
                        items.push(y);
                    }
                    slots.push(*p);
                }
                ends.push(slots.len() as u32);
            }
            start.push(items.len() as u32);
        }
        assert!(
            u32::try_from(slots.len()).is_ok(),
            "gain slots need fewer than 2^32 candidate items"
        );
        let mut counts = vec![0; items.len()];
        for a in 0..n_ants {
            let range = start[a] as usize..start[a + 1] as usize;
            if range.is_empty() {
                continue;
            }
            let ant = live.seeds.tidset(from, a as u32);
            for (net, &y) in counts[range.clone()].iter_mut().zip(&items[range]) {
                *net = narrow(state.column_net(from.opposite(), &ant, y));
            }
        }
        let codes = state.codes();
        DirPairs {
            start,
            weights: items.iter().map(|&y| codes.item(y)).collect(),
            moved: vec![false; items.len()],
            items,
            counts,
            ant_moved: vec![false; n_ants],
            group,
            cands,
            ends,
            slots,
        }
    }

    /// The slots of grouped candidate `k`.
    #[inline]
    fn slots(&self, k: usize) -> &[u32] {
        let lo = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        &self.slots[lo..self.ends[k] as usize]
    }

    /// The directional gain of grouped candidate `k`: `Σ_y w_y · net_y`
    /// over its consequent, in item order.
    #[inline]
    fn sum(&self, k: usize) -> f64 {
        weighted_nets(self.slots(k).iter().map(|&p| {
            let p = p as usize;
            (self.weights[p], i64::from(self.counts[p]))
        }))
    }

    /// Moves every pair by the logged cells of its item's column and
    /// flags the pairs and antecedents that moved. Each antecedent's
    /// tidset is fetched once, and only when one of its pairs' columns was
    /// touched.
    fn shift<'t>(&mut self, log: &LogIndex, antecedent: impl Fn(u32) -> Cow<'t, Tidset>) {
        for a in 0..self.ant_moved.len() {
            let mut ant: Option<Cow<'t, Tidset>> = None;
            for p in self.start[a] as usize..self.start[a + 1] as usize {
                let entries = log.entries(self.items[p]);
                if entries.is_empty() {
                    continue;
                }
                let ant = ant.get_or_insert_with(|| antecedent(a as u32));
                let delta: i64 = entries
                    .iter()
                    .map(|e| {
                        ant.intersection_len(&e.errors) as i64
                            - ant.intersection_len(&e.covered) as i64
                    })
                    .sum();
                if delta != 0 {
                    self.counts[p] = narrow(i64::from(self.counts[p]) + delta);
                    self.moved[p] = true;
                    self.ant_moved[a] = true;
                }
            }
        }
    }
}

/// A count as stored: it lies in `[-|D|, |D|]`, and
/// [`GainTable::build`] (or [`NetMemo::new`]) checked that `|D|` fits
/// `i32`.
#[inline]
fn narrow(net: i64) -> i32 {
    debug_assert!(i32::try_from(net).is_ok(), "count {net} overflows i32");
    net as i32
}

/// Asserts that every count of a run over `state`'s data fits `i32`: each
/// lies in `[-|D|, |D|]`.
fn assert_counts_fit(state: &CoverState<'_>) {
    assert!(
        i32::try_from(state.data().n_transactions()).is_ok(),
        "gain counts need fewer than 2^31 transactions"
    );
}

/// GREEDY's column nets: one `hits − misses` per (antecedent itemset id,
/// consequent item) pair, computed on first use and reused until a rule
/// changes the item's column.
///
/// GREEDY visits each candidate once, so unlike [`GainTable`] nothing is
/// built up front: the memo fills during the pass and is only ever probed.
/// A net depends on the antecedent's tidset and on the item's covered and
/// error columns, and only a rule application moves those columns. So
/// every item carries a version that [`NetMemo::columns_changed`] bumps for
/// each [`CellDelta`] of the cell log, and a net is current while its
/// recorded version is the item's. The key needs no side: an item fixes
/// the target side, and so the side the antecedent id belongs to.
pub(crate) struct NetMemo {
    /// Per item, the number of logged changes to its column.
    version: Vec<u32>,
    /// Open addressing with linear probing; the length is a power of two.
    slots: Vec<NetSlot>,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Occupied slots: one per distinct pair probed so far.
    len: usize,
    /// Nets computed (a pair's first use, or its column changed since).
    computed: u64,
    /// Nets read back unchanged.
    reused: u64,
}

#[derive(Clone, Copy)]
struct NetSlot {
    /// `antecedent id << 32 | item`, or the key of [`NetSlot::EMPTY`].
    key: u64,
    /// `hits − misses` as of `version`.
    net: i32,
    /// The item's version the net was computed against.
    version: u32,
}

impl NetSlot {
    /// An unused slot. No pair packs to its key: that would need item
    /// `u32::MAX`.
    const EMPTY: NetSlot = NetSlot {
        key: u64::MAX,
        net: 0,
        version: 0,
    };
}

impl NetMemo {
    /// The fewest slots a memo starts with.
    const MIN_SLOTS: usize = 1 << 10;
    /// The most slots a memo starts with (4 MiB). It doubles past three
    /// quarters full.
    const MAX_START_SLOTS: usize = 1 << 18;

    /// An empty memo for a pass over `n_candidates` candidates on
    /// `state`'s data. It starts with room for one pair per candidate at
    /// three quarters load: a pass over a benchmark input uses 0.2–1.5
    /// distinct pairs per candidate, and starting there skips most
    /// doublings. Against starting at [`NetMemo::MIN_SLOTS`], that made
    /// the GREEDY solve 11% faster on House@300 and 9% on Crime@300
    /// (seed 3, in-process, best of 21 interleaved runs).
    pub(crate) fn new(state: &CoverState<'_>, n_candidates: usize) -> NetMemo {
        assert_counts_fit(state);
        let n_items = state.data().vocab().n_items();
        assert!(
            u32::try_from(n_items).is_ok_and(|n| n < u32::MAX),
            "the net memo needs fewer than 2^32 - 1 items"
        );
        let n_slots = (n_candidates * 4 / 3)
            .next_power_of_two()
            .clamp(Self::MIN_SLOTS, Self::MAX_START_SLOTS);
        NetMemo {
            version: vec![0; n_items],
            slots: vec![NetSlot::EMPTY; n_slots],
            shift: 64 - n_slots.trailing_zeros(),
            len: 0,
            computed: 0,
            reused: 0,
        }
    }

    /// `(computed, reused)`: how many nets were computed and how many were
    /// read back, over every [`NetMemo::pair_gains`] call so far.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.computed, self.reused)
    }

    /// The three rule gains of `seeds`' candidate `i` against `state`, in
    /// [`crate::Direction::ALL`] order: [`CoverState::pair_gains`] with
    /// every column net read from the memo when current. The terms go
    /// through the same [`weighted_nets`] and [`rule_gains`], so the gains
    /// are bit-identical. `state` must be the state whose cell log every
    /// [`NetMemo::columns_changed`] call carried.
    pub(crate) fn pair_gains(
        &mut self,
        state: &CoverState<'_>,
        seeds: &Seeds<'_>,
        i: usize,
    ) -> [f64; 3] {
        let (cand, [l, r]) = (&seeds.cands[i], seeds.ids()[i]);
        let g_fwd = self.directional_gain(state, seeds, Side::Left, l, &cand.right);
        let g_bwd = self.directional_gain(state, seeds, Side::Right, r, &cand.left);
        let codes = state.codes();
        rule_gains(
            g_fwd,
            g_bwd,
            codes.itemset(&cand.left) + codes.itemset(&cand.right),
        )
    }

    /// [`CoverState::directional_gain`] of antecedent `ant` of side
    /// `from`. The antecedent's tidset is fetched only if a net must be
    /// computed, and then once.
    fn directional_gain(
        &mut self,
        state: &CoverState<'_>,
        seeds: &Seeds<'_>,
        from: Side,
        ant: u32,
        consequent: &ItemSet,
    ) -> f64 {
        let (target, codes) = (from.opposite(), state.codes());
        let mut tids: Option<Cow<'_, Tidset>> = None;
        weighted_nets(consequent.iter().map(|y| {
            let net = self.net(ant, y, || {
                let tids = tids.get_or_insert_with(|| seeds.tidset(from, ant));
                state.column_net(target, tids, y)
            });
            (codes.item(y), net)
        }))
    }

    /// The net of pair `(ant, item)`: read back while current, otherwise
    /// computed by `compute` and recorded.
    #[inline]
    fn net(&mut self, ant: u32, item: ItemId, compute: impl FnOnce() -> i64) -> i64 {
        let key = u64::from(ant) << 32 | u64::from(item);
        let version = self.version[item as usize];
        let at = self.find(key);
        let slot = &mut self.slots[at];
        if slot.key == key && slot.version == version {
            self.reused += 1;
            return i64::from(slot.net);
        }
        let net = compute();
        self.computed += 1;
        let fresh = slot.key == NetSlot::EMPTY.key;
        *slot = NetSlot {
            key,
            net: narrow(net),
            version,
        };
        if fresh {
            self.len += 1;
            if self.len * 4 > self.slots.len() * 3 {
                self.grow();
            }
        }
        net
    }

    /// The slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn find(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let k = self.slots[at].key;
            if k == key || k == NetSlot::EMPTY.key {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the table and re-inserts every pair.
    fn grow(&mut self) {
        let doubled = vec![NetSlot::EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for slot in old.into_iter().filter(|s| s.key != NetSlot::EMPTY.key) {
            let at = self.find(slot.key);
            self.slots[at] = slot;
        }
    }

    /// Marks the columns `log` names as changed, which retires every net
    /// read from them. `log` is the cell log of the applications since
    /// the last call ([`CoverState::take_cell_log`]).
    pub(crate) fn columns_changed(&mut self, log: &[CellDelta]) {
        for delta in log {
            self.version[delta.item as usize] += 1;
        }
    }
}

/// One round's cell log grouped by item (application order kept within
/// an item).
struct LogIndex {
    deltas: Vec<CellDelta>,
    /// `deltas[start[i]..start[i + 1]]` are item `i`'s entries.
    start: Vec<usize>,
}

impl LogIndex {
    fn new(mut deltas: Vec<CellDelta>, n_items: usize) -> LogIndex {
        deltas.sort_by_key(|d| d.item);
        let mut start = vec![0usize; n_items + 1];
        for d in &deltas {
            start[d.item as usize + 1] += 1;
        }
        for i in 0..n_items {
            start[i + 1] += start[i];
        }
        LogIndex { deltas, start }
    }

    /// The logged entries of `item`'s column.
    #[inline]
    fn entries(&self, item: ItemId) -> &[CellDelta] {
        &self.deltas[self.start[item as usize]..self.start[item as usize + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{translator_exact_with, ExactConfig};
    use crate::rule::{Direction, TranslationRule};
    use crate::select::{translator_select, SelectConfig};
    use twoview_data::synthetic::{self, StructureSpec, SyntheticSpec};
    use twoview_mining::{mine_closed_twoview, MinerConfig};

    /// Every live candidate's maintained gains against `pair_gains` from
    /// scratch, bit for bit.
    fn assert_exact(state: &CoverState<'_>, live: &Live<'_>, table: &GainTable, what: &str) {
        let codes = state.codes();
        for (pos, c) in live.cands().iter().enumerate() {
            let (lt, rt) = (
                state.data().support_set(&c.left),
                state.data().support_set(&c.right),
            );
            let fresh = state.pair_gains(&c.left, &c.right, &lt, &rt);
            let [g_fwd, g_bwd] = table.dir_gains[pos];
            let base = codes.itemset(&c.left) + codes.itemset(&c.right);
            let kept = rule_gains(g_fwd, g_bwd, base);
            for (a, b) in kept.iter().zip(fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: candidate {pos}");
            }
            match table.rule_gains(pos, codes, c, 0.0) {
                Some(g) => assert_eq!(g.map(f64::to_bits), kept.map(f64::to_bits)),
                None => assert!(kept.iter().all(|&g| g <= 0.0), "{what}: {pos}"),
            }
        }
    }

    /// Per live candidate, its column nets from scratch: forward (one per
    /// item of `Y`), then backward (one per item of `X`).
    fn column_nets(state: &CoverState<'_>, live: &Live<'_>) -> Vec<Vec<i64>> {
        let data = state.data();
        let nets = |from: Side, ant: &ItemSet, consequent: &ItemSet| {
            let ant = data.support_set(ant);
            let target = from.opposite();
            consequent
                .iter()
                .map(|y| state.column_net(target, &ant, y))
                .collect::<Vec<_>>()
        };
        let cands = live.cands().iter();
        cands
            .map(|c| {
                let mut v = nets(Side::Left, &c.left, &c.right);
                v.extend(nets(Side::Right, &c.right, &c.left));
                v
            })
            .collect()
    }

    /// Moves `table` by the cells logged since the last update and checks
    /// every gain against `pair_gains`, and the refresh count against the
    /// candidates whose column nets (`nets`, as of the last update) moved.
    fn update_and_check(
        state: &mut CoverState<'_>,
        live: &Live<'_>,
        table: &mut GainTable,
        nets: &mut Vec<Vec<i64>>,
        what: &str,
    ) {
        let log = state.take_cell_log();
        let refreshed = table.update(state, live, log);
        let now = column_nets(state, live);
        let moved = nets.iter().zip(&now).filter(|(a, b)| a != b).count();
        assert_eq!(refreshed, moved, "{what}: refreshed candidates");
        *nets = now;
        assert_exact(state, live, table, what);
    }

    /// `bursty`: concepts fire in runs of adjacent rows. Otherwise right
    /// items fire in under a third of the active rows, so `Y → X` rules
    /// often beat `X → Y` ones and all three directions get picked.
    fn dataset(seed: u64, bursty: bool) -> TwoViewDataset {
        let (n_left, n_right, density, structure) = if bursty {
            let s = StructureSpec {
                occurrence: 0.35,
                ..StructureSpec::bursty(4, 16)
            };
            (14, 12, 0.25, s)
        } else {
            let s = StructureSpec {
                confidence: 0.3,
                ..StructureSpec::strong(4)
            };
            (16, 14, 0.2, s)
        };
        let spec = SyntheticSpec {
            name: "gain-table".into(),
            n_transactions: 240,
            n_left,
            n_right,
            density_left: density,
            density_right: density,
            structure,
            seed,
        };
        synthetic::generate(&spec).expect("valid spec").dataset
    }

    /// Drives the table the way SELECT(k) does — top-k positive entries,
    /// item-disjoint within a round — and checks every maintained gain
    /// after every update. With `every_rule`, every applied rule is its
    /// own update; otherwise odd rounds update per rule and even rounds
    /// once per round (several entries per column). Returns the
    /// directions applied.
    fn drive(
        data: &TwoViewDataset,
        cands: &[TwoViewCandidate],
        k: usize,
        cached: bool,
        every_rule: bool,
    ) -> [bool; 3] {
        let mut state = CoverState::new(data);
        let mut live = Live::new(data, state.codes(), cands, None);
        assert!(live.seeds.sets.tidsets.is_some(), "fits the budget");
        if !cached {
            live.seeds.sets.to_mut().tidsets = None;
        }
        let mut table = GainTable::build(&state, &live);
        assert_exact(&state, &live, &table, "build");
        let mut nets = column_nets(&state, &live);
        state.set_cell_log(true);
        let mut seen = [false; 3];
        for round in 0..12 {
            let codes = state.codes();
            let mut entries: Vec<(f64, usize, usize)> = Vec::new();
            for (pos, c) in live.cands().iter().enumerate() {
                if let Some(g) = table.rule_gains(pos, codes, c, 0.0) {
                    for (d, &gain) in g.iter().enumerate() {
                        if gain > 0.0 {
                            entries.push((gain, pos, d));
                        }
                    }
                }
            }
            if entries.is_empty() {
                break;
            }
            entries.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            let mut used = Bitmap::new(data.vocab().n_items());
            for &(_, pos, d) in entries.iter().take(k) {
                let c = live.cands()[pos];
                if c.left
                    .iter()
                    .chain(c.right.iter())
                    .any(|i| used.contains(i as usize))
                {
                    continue;
                }
                for i in c.left.iter().chain(c.right.iter()) {
                    used.insert(i as usize);
                }
                seen[d] = true;
                state.apply_rule(TranslationRule::new(
                    c.left.clone(),
                    c.right.clone(),
                    Direction::ALL[d],
                ));
                if every_rule || round % 2 == 1 {
                    update_and_check(&mut state, &live, &mut table, &mut nets, "per rule");
                }
            }
            update_and_check(&mut state, &live, &mut table, &mut nets, "per round");
        }
        seen
    }

    #[test]
    fn maintained_gains_equal_pair_gains_from_scratch() {
        let mut seen = [false; 3];
        for (seed, bursty) in [(1, false), (8, true)] {
            let data = dataset(seed, bursty);
            let cands =
                mine_closed_twoview(&data, &MinerConfig::builder().minsup(2).build()).candidates;
            for k in [1, 3, 25] {
                for cached in [true, false] {
                    let s = drive(&data, &cands, k, cached, false);
                    for d in 0..3 {
                        seen[d] |= s[d];
                    }
                }
            }
        }
        assert_eq!(seen, [true; 3], "forward, backward and bidirectional rules");
    }

    #[test]
    fn shuffled_candidates_share_pairs_across_gaps() {
        // Mined candidates that share an antecedent are mostly adjacent; a
        // fixed scramble of the list spreads them apart, so candidates far
        // from each other read (and must see every move of) one pair.
        let adjacent = |cands: &[TwoViewCandidate]| {
            cands.windows(2).filter(|w| w[0].left == w[1].left).count()
        };
        let mut seen = [false; 3];
        for (seed, bursty) in [(1, false), (8, true)] {
            let data = dataset(seed, bursty);
            let mut cands =
                mine_closed_twoview(&data, &MinerConfig::builder().minsup(2).build()).candidates;
            let mined = adjacent(&cands);
            cands.sort_by_key(|c| {
                let items = c.left.iter().chain(c.right.iter());
                items.fold(0u64, |h, i| {
                    (h ^ u64::from(i)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                })
            });
            assert!(adjacent(&cands) * 4 < mined, "the scramble separates them");
            for k in [1, 25] {
                for cached in [true, false] {
                    let s = drive(&data, &cands, k, cached, true);
                    for d in 0..3 {
                        seen[d] |= s[d];
                    }
                }
            }
        }
        assert_eq!(seen, [true; 3], "forward, backward and bidirectional rules");
    }

    #[test]
    fn forced_directions_keep_gains_exact() {
        // Rules of every direction, overlapping ones included, one update
        // per rule and one for a whole batch.
        let data = dataset(5, false);
        let cands =
            mine_closed_twoview(&data, &MinerConfig::builder().minsup(3).build()).candidates;
        let mut state = CoverState::new(&data);
        let live = Live::new(&data, state.codes(), &cands, None);
        let mut table = GainTable::build(&state, &live);
        let mut nets = column_nets(&state, &live);
        state.set_cell_log(true);
        for (i, c) in live.cands().iter().step_by(37).take(9).enumerate() {
            state.apply_rule(TranslationRule::new(
                c.left.clone(),
                c.right.clone(),
                Direction::ALL[i % 3],
            ));
            if i % 3 != 2 {
                update_and_check(&mut state, &live, &mut table, &mut nets, "forced");
            }
        }
        update_and_check(&mut state, &live, &mut table, &mut nets, "forced batch");
    }

    #[test]
    fn shared_tidsets_match_owned() {
        let data = dataset(4, true);
        let cands =
            mine_closed_twoview(&data, &MinerConfig::builder().minsup(2).build()).candidates;
        let shared = twoview_mining::seed_sets(&data, &cands);
        let state = CoverState::new(&data);
        let owned = Live::new(&data, state.codes(), &cands, None);
        let borrowed = Live::new(&data, state.codes(), &cands, Some(&shared));
        assert_eq!(owned.len(), borrowed.len());
        for (a, b) in owned.cands().iter().zip(borrowed.cands()) {
            assert!(std::ptr::eq(*a, *b));
        }
        let qub_live = cands
            .iter()
            .filter(|c| bounds::qub(state.codes(), &data, &c.left, &c.right) > 0.0)
            .count();
        assert_eq!(owned.len(), qub_live, "live set is the qub survivors");
        let a = GainTable::build(&state, &owned);
        let b = GainTable::build(&state, &borrowed);
        for (x, y) in a.dirs.iter().zip(&b.dirs) {
            assert_eq!((&x.items, &x.counts), (&y.items, &y.counts));
            assert_eq!((&x.cands, &x.slots), (&y.cands, &y.slots));
        }
    }

    #[test]
    fn memo_gains_equal_pair_gains_for_every_tidset_source() {
        // A GREEDY-like pass in candidate order: every candidate's memo
        // gains against `pair_gains` from scratch, bit for bit, adding the
        // best rule whenever it gains, with owned, shared and uncached
        // tidsets.
        for (seed, bursty) in [(1, false), (8, true)] {
            let data = dataset(seed, bursty);
            let cands =
                mine_closed_twoview(&data, &MinerConfig::builder().minsup(2).build()).candidates;
            let shared = twoview_mining::seed_sets(&data, &cands);
            let mut pairs = std::collections::BTreeSet::new();
            for (c, &[l, r]) in cands.iter().zip(Seeds::new(&data, &cands, None).ids()) {
                pairs.extend(c.right.iter().map(|y| (l, y)));
                pairs.extend(c.left.iter().map(|x| (r, x)));
            }
            let mut counts = Vec::new();
            for source in ["owned", "shared", "uncached"] {
                let mut seeds = Seeds::new(&data, &cands, (source == "shared").then_some(&shared));
                match source {
                    "owned" => assert!(matches!(seeds.sets, Cow::Owned(_))),
                    "uncached" => seeds.sets.to_mut().tidsets = None,
                    _ => assert!(matches!(seeds.sets, Cow::Borrowed(_))),
                }
                assert_eq!(seeds.sets.tidsets.is_some(), source != "uncached");
                let mut state = CoverState::new(&data);
                state.set_cell_log(true);
                // Sized for no candidates, so the pass covers the doublings.
                let mut memo = NetMemo::new(&state, 0);
                let mut added = 0;
                for (i, c) in cands.iter().enumerate() {
                    let got = memo.pair_gains(&state, &seeds, i);
                    let (lt, rt) = (data.support_set(&c.left), data.support_set(&c.right));
                    let want = state.pair_gains(&c.left, &c.right, &lt, &rt);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{source}: {i}"
                    );
                    let (d, &gain) = got
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .expect("three gains");
                    if gain > 0.0 {
                        let rule = TranslationRule::new(
                            c.left.clone(),
                            c.right.clone(),
                            Direction::ALL[d],
                        );
                        state.apply_rule(rule);
                        memo.columns_changed(&state.take_cell_log());
                        added += 1;
                    }
                }
                assert!(added >= 5, "{source}: {added} rules");
                let (computed, reused) = memo.counts();
                let nets: usize = cands.iter().map(|c| c.len()).sum();
                assert_eq!(computed + reused, nets as u64, "{source}");
                assert!(reused > 0 && computed > pairs.len() as u64, "{source}");
                assert!(memo.len <= pairs.len(), "one entry per distinct pair");
                assert!(memo.slots.len() > NetMemo::MIN_SLOTS, "the table grew");
                counts.push((computed, reused));
            }
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        }
    }

    #[test]
    fn models_identical_across_thread_counts() {
        let data = dataset(8, true);
        let select = |t| SelectConfig::builder().k(2).minsup(2).threads(t).build();
        let base = translator_select(&data, &select(1));
        for t in [2, 4] {
            let other = translator_select(&data, &select(t));
            assert_eq!(base.table, other.table, "SELECT, {t} threads");
            assert_eq!(base.score.l_total.to_bits(), other.score.l_total.to_bits());
        }
        // Uncapped EXACT returns the same rules for every thread count.
        let exact = |t| {
            ExactConfig::builder()
                .seed_minsup(Some(2))
                .max_rules(2)
                .threads(t)
                .build()
        };
        let base = translator_exact_with(&data, &exact(1));
        for t in [2, 4] {
            let other = translator_exact_with(&data, &exact(t));
            assert_eq!(base.table, other.table, "EXACT, {t} threads");
            assert_eq!(base.score.l_total.to_bits(), other.score.l_total.to_bits());
        }
    }
}
