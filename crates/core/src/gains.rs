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
//! Layout: one flat `i32` array, candidate by candidate (one count per
//! item of `Y` for the forward direction, then one per item of `X` for the
//! backward direction), plus the two directional gains and a 64-bit item
//! signature per candidate; no heap object per candidate. Builds and
//! updates split the candidates into contiguous ranges, and each pool task
//! writes its own disjoint slice of the arrays, so the table is identical
//! for any thread count. Within a range, adjacent candidates with the same
//! antecedent itemset share each column's count or delta ([`Memo`]).
//!
//! The signature and the sharing stay because removing either slowed the
//! solvers on sparse-cold, the benchmark workload the table is claimed for
//! (SELECT(1), SELECT(25) and capped EXACT on its inputs, 2 threads on a
//! 2-vCPU host, sum of per-cell best times, interleaved runs). Without the
//! signature, sparse-cold took 4–9% and paper-cold 4–7% longer (seeds 2
//! and 3). Without the sharing, sparse-cold took 19–38% longer (seeds
//! 2–5); there 68% of adjacent live candidates share their `X` and 18%
//! their `Y`. The sharing pays only where an intersection costs more than
//! a lookup: paper-cold's inputs (at most 300 rows; 34% and 36% shared)
//! ran 5–11% faster without it (seeds 3–5), and a paired sweep of SELECT
//! over row counts ran up to 8.5% faster without it at 178–300 rows but
//! 1–37% slower from 1 000 rows up.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};

use twoview_data::prelude::*;
use twoview_mining::{TwoViewCandidate, PARALLEL_MIN_CANDIDATES};
use twoview_runtime::sync::TolerantMutex;

use crate::bounds;
use crate::cover::{rule_gains, weighted_nets, CellDelta, CoverState};
use crate::encoding::CodeLengths;

/// The live candidates of one run — those with `qub > 0`, in candidate
/// order — and where their antecedent tidsets come from.
pub(crate) struct Live<'c> {
    data: &'c TwoViewDataset,
    cands: Vec<&'c TwoViewCandidate>,
    tids: LiveTids<'c>,
}

enum LiveTids<'c> {
    /// The caller's shared cache, one entry per live candidate.
    Shared(Vec<&'c (Tidset, Tidset)>),
    /// Built for this run under the shared tidset budget.
    Owned(twoview_mining::SeedTidsets),
    /// Over budget: recomputed on use.
    Uncached,
}

impl<'c> Live<'c> {
    /// Drops the candidates `qub` rules out for good and gathers the
    /// survivors' tidsets: borrowed from `shared` (aligned with
    /// `candidates`) when given, otherwise computed once per candidate on
    /// `threads` pool participants and kept when they fit the budget
    /// ([`twoview_mining::seed_tidsets_where`]).
    ///
    /// `qub` depends only on supports and code lengths, never on the cover
    /// state, and dominates all three rule gains, so a candidate with
    /// `qub ≤ 0` can never be added in any round.
    pub(crate) fn new(
        data: &'c TwoViewDataset,
        codes: &CodeLengths,
        candidates: &'c [TwoViewCandidate],
        shared: Option<&'c [(Tidset, Tidset)]>,
        threads: usize,
    ) -> Live<'c> {
        let keep = |c: &TwoViewCandidate, lt: &Tidset, rt: &Tidset| {
            let (len_x, len_y) = (codes.itemset(&c.left), codes.itemset(&c.right));
            bounds::qub_parts(lt.len() as f64, rt.len() as f64, len_x, len_y) > 0.0
        };
        match shared {
            Some(all) => {
                debug_assert_eq!(all.len(), candidates.len());
                let (cands, tids) = candidates
                    .iter()
                    .zip(all)
                    .filter(|(c, (lt, rt))| keep(c, lt, rt))
                    .unzip();
                Live {
                    data,
                    cands,
                    tids: LiveTids::Shared(tids),
                }
            }
            None => {
                let (kept, tids) =
                    twoview_mining::seed_tidsets_where(data, candidates, threads, keep);
                Live {
                    data,
                    cands: kept.iter().map(|&i| &candidates[i]).collect(),
                    tids: tids.map_or(LiveTids::Uncached, LiveTids::Owned),
                }
            }
        }
    }

    /// Number of live candidates.
    pub(crate) fn len(&self) -> usize {
        self.cands.len()
    }

    /// The live candidates, in candidate order.
    pub(crate) fn cands(&self) -> &[&'c TwoViewCandidate] {
        &self.cands
    }

    /// `supp(X)` (`from = Left`) or `supp(Y)` of live candidate `pos`.
    fn antecedent(&self, pos: usize, from: Side) -> Cow<'_, Tidset> {
        let pair = match &self.tids {
            LiveTids::Shared(all) => all[pos],
            LiveTids::Owned(all) => all.get(pos),
            LiveTids::Uncached => {
                let c = self.cands[pos];
                return Cow::Owned(self.data.support_set(match from {
                    Side::Left => &c.left,
                    Side::Right => &c.right,
                }));
            }
        };
        Cow::Borrowed(match from {
            Side::Left => &pair.0,
            Side::Right => &pair.1,
        })
    }
}

/// Per live candidate: `hits − misses` per consequent column of both
/// directions, and the two directional gains they sum to.
pub(crate) struct GainTable {
    /// Candidate by candidate, one count per item of `Y` (forward), then
    /// one per item of `X` (backward); candidate sizes give the offsets.
    nets: Vec<i32>,
    /// `[forward, backward]` directional data gains per candidate.
    dir_gains: Vec<[f64; 2]>,
    /// Per candidate, bit `i % 64` set for every item `i` of `X ∪ Y`: an
    /// update skips a candidate none of whose bits the round touched
    /// without reading its itemsets. A round touching most residues mod 64
    /// skips little; SELECT(25)'s early rounds can, SELECT(1)'s do not.
    sigs: Vec<u64>,
    /// `(first candidate, first count)` of each contiguous range a build
    /// or update hands to one pool task, then the end `(n, nets.len())`.
    splits: Vec<(usize, usize)>,
    /// Pool participants working on the ranges.
    threads: usize,
}

impl GainTable {
    /// Derives every count from scratch against `state`. Tables with at
    /// least [`PARALLEL_MIN_CANDIDATES`] candidates are split into ranges
    /// for `threads` pool participants; the split depends only on the
    /// candidate count and `threads`.
    pub(crate) fn build(state: &CoverState<'_>, live: &Live<'_>, threads: usize) -> GainTable {
        // Every count lies in `[-|D|, |D|]`, so `i32` holds it exactly.
        assert!(
            i32::try_from(state.data().n_transactions()).is_ok(),
            "gain counts need fewer than 2^31 transactions"
        );
        let n = live.len();
        let per = if threads > 1 && n >= PARALLEL_MIN_CANDIDATES {
            n.div_ceil(4 * threads).max(PARALLEL_MIN_CANDIDATES / 4)
        } else {
            n.max(1)
        };
        let mut splits = vec![(0, 0)];
        let mut total = 0usize;
        let mut sigs = Vec::with_capacity(n);
        for (pos, c) in live.cands().iter().enumerate() {
            if pos > 0 && pos % per == 0 {
                splits.push((pos, total));
            }
            total += c.right.len() + c.left.len();
            sigs.push(signature(c.left.iter().chain(c.right.iter())));
        }
        splits.push((n, total));
        let mut table = GainTable {
            nets: vec![0; total],
            dir_gains: vec![[0.0; 2]; n],
            sigs,
            splits,
            threads,
        };
        let codes = state.codes();
        table.for_each_candidate(live, |_, pos, dirs, gains, memos: &mut [Memo; 2]| {
            for ((g, d), memo) in gains.iter_mut().zip(dirs).zip(memos) {
                memo.reset(d.antecedent);
                let mut ant = None;
                for (net, y) in d.counts.iter_mut().zip(d.consequent.iter()) {
                    *net = narrow(memo.get(y, || {
                        let ant = ant.get_or_insert_with(|| live.antecedent(pos, d.from));
                        state.column_net(d.from.opposite(), ant, y)
                    }));
                }
                *g = weighted_nets(codes, d.consequent, d.counts.iter().map(|&v| v.into()));
            }
            1
        });
        table
    }

    /// Moves the counts of every column `log` touched and re-sums the
    /// directional gains whose counts moved. `state` must be the state the
    /// logged applications produced. Returns the number of candidates
    /// whose gains were re-derived.
    pub(crate) fn update(
        &mut self,
        state: &CoverState<'_>,
        live: &Live<'_>,
        log: Vec<CellDelta>,
    ) -> usize {
        let touched = signature(log.iter().map(|d| d.item));
        let log = LogIndex::new(log, state.data().vocab().n_items());
        let codes = state.codes();
        self.for_each_candidate(live, |sig, pos, dirs, gains, memos: &mut [Memo; 2]| {
            if sig & touched == 0 {
                return 0;
            }
            let mut moved = false;
            for ((g, mut d), memo) in gains.iter_mut().zip(dirs).zip(memos) {
                let from = d.from;
                if log.shift(&mut d, memo, || live.antecedent(pos, from)) {
                    *g = weighted_nets(codes, d.consequent, d.counts.iter().map(|&v| v.into()));
                    moved = true;
                }
            }
            usize::from(moved)
        })
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

    /// Calls `f(signature, pos, [forward, backward], gains, scratch)` for
    /// every candidate, where `gains` is the candidate's directional gain
    /// pair and `scratch` is one `S` per range, and returns the sum of the
    /// calls' results. Each range of [`GainTable::splits`] is one pool
    /// task writing only its own slices of `nets` and `dir_gains`, so the
    /// result is identical for any thread count.
    fn for_each_candidate<'l, S, F>(&mut self, live: &'l Live<'_>, f: F) -> usize
    where
        S: Default,
        F: Fn(u64, usize, [Dir<'_, 'l>; 2], &mut [f64; 2], &mut S) -> usize + Sync,
    {
        let sigs = &self.sigs;
        let run = |lo: usize, mut counts: &mut [i32], gains: &mut [[f64; 2]]| {
            let mut scratch = S::default();
            let mut sum = 0;
            for (k, g) in gains.iter_mut().enumerate() {
                let c: &'l TwoViewCandidate = live.cands[lo + k];
                let (fwd, rest) = std::mem::take(&mut counts).split_at_mut(c.right.len());
                let (bwd, rest) = rest.split_at_mut(c.left.len());
                counts = rest;
                let dirs = [
                    Dir {
                        counts: fwd,
                        consequent: &c.right,
                        antecedent: &c.left,
                        from: Side::Left,
                    },
                    Dir {
                        counts: bwd,
                        consequent: &c.left,
                        antecedent: &c.right,
                        from: Side::Right,
                    },
                ];
                sum += f(sigs[lo + k], lo + k, dirs, g, &mut scratch);
            }
            sum
        };
        if self.splits.len() <= 2 {
            return run(0, &mut self.nets, &mut self.dir_gains);
        }
        let mut ranges = Vec::with_capacity(self.splits.len() - 1);
        let (mut nets, mut gains) = (&mut self.nets[..], &mut self.dir_gains[..]);
        for w in self.splits.windows(2) {
            let ((lo, at), (hi, end)) = (w[0], w[1]);
            let (g, g_rest) = std::mem::take(&mut gains).split_at_mut(hi - lo);
            let (c, c_rest) = std::mem::take(&mut nets).split_at_mut(end - at);
            ranges.push((lo, c, g));
            (nets, gains) = (c_rest, g_rest);
        }
        let queue = TolerantMutex::new(ranges.into_iter());
        let total = AtomicUsize::new(0);
        let participant = &|| loop {
            let next = queue.lock().next();
            let Some((lo, counts, gains)) = next else {
                break;
            };
            total.fetch_add(run(lo, counts, gains), Ordering::Relaxed);
        };
        twoview_runtime::global().install(|scope| {
            for _ in 1..self.threads {
                scope.spawn(participant);
            }
            participant();
        });
        total.into_inner()
    }
}

/// One direction of one candidate: its counts, one per consequent item,
/// its itemsets, and the side its antecedent fires from.
struct Dir<'a, 'l> {
    counts: &'a mut [i32],
    consequent: &'l ItemSet,
    antecedent: &'l ItemSet,
    from: Side,
}

/// The per-column values (counts in a build, deltas in an update) one
/// range already derived for one antecedent itemset: a column's value
/// depends only on the antecedent and the column, and mined candidates
/// that share an antecedent are adjacent more often than not (one `X`
/// with many `Y`s). Indexed by item, so a lookup costs one load.
#[derive(Default)]
struct Memo<'l> {
    antecedent: Option<&'l ItemSet>,
    values: Vec<Option<i64>>,
    /// The items holding a value, cleared when the antecedent changes.
    set: Vec<ItemId>,
}

impl<'l> Memo<'l> {
    /// Keeps the remembered values only if they were derived for
    /// `antecedent`.
    fn reset(&mut self, antecedent: &'l ItemSet) {
        if self.antecedent != Some(antecedent) {
            self.antecedent = Some(antecedent);
            for i in self.set.drain(..) {
                self.values[i as usize] = None;
            }
        }
    }

    /// The value of `item`'s column: remembered, or derived now.
    fn get(&mut self, item: ItemId, derive: impl FnOnce() -> i64) -> i64 {
        let i = item as usize;
        if self.values.len() <= i {
            self.values.resize(i + 1, None);
        }
        if let Some(v) = self.values[i] {
            return v;
        }
        let v = derive();
        self.values[i] = Some(v);
        self.set.push(item);
        v
    }
}

/// Bit `i % 64` for every item `i`.
fn signature(items: impl IntoIterator<Item = ItemId>) -> u64 {
    items.into_iter().fold(0, |sig, i| sig | 1 << (i % 64))
}

/// A count as stored: it lies in `[-|D|, |D|]`, and
/// [`GainTable::build`] checked that `|D|` fits `i32`.
#[inline]
fn narrow(net: i64) -> i32 {
    debug_assert!(i32::try_from(net).is_ok(), "count {net} overflows i32");
    net as i32
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

    /// Moves the counts of one direction by the logged cells of its
    /// consequent's columns; `true` when any count changed. A column's
    /// delta comes from `memo` when the same antecedent itemset already
    /// derived it; the antecedent tidset is fetched only when one must be
    /// derived.
    fn shift<'t, 'l>(
        &self,
        dir: &mut Dir<'_, 'l>,
        memo: &mut Memo<'l>,
        antecedent: impl Fn() -> Cow<'t, Tidset>,
    ) -> bool {
        memo.reset(dir.antecedent);
        let mut ant: Option<Cow<'t, Tidset>> = None;
        let mut moved = false;
        for (net, y) in dir.counts.iter_mut().zip(dir.consequent.iter()) {
            let entries = &self.deltas[self.start[y as usize]..self.start[y as usize + 1]];
            if entries.is_empty() {
                continue;
            }
            let delta = memo.get(y, || {
                let ant = ant.get_or_insert_with(&antecedent);
                entries
                    .iter()
                    .map(|e| {
                        ant.intersection_len(&e.errors) as i64
                            - ant.intersection_len(&e.covered) as i64
                    })
                    .sum()
            });
            if delta != 0 {
                *net = narrow(i64::from(*net) + delta);
                moved = true;
            }
        }
        moved
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
    /// after every applied rule, in a 1-rule-per-update regime and a
    /// whole-round regime. Returns the directions applied.
    fn drive(
        data: &TwoViewDataset,
        cands: &[TwoViewCandidate],
        k: usize,
        threads: usize,
        cached: bool,
    ) -> [bool; 3] {
        let mut state = CoverState::new(data);
        let mut live = Live::new(data, state.codes(), cands, None, threads);
        if !cached {
            live.tids = LiveTids::Uncached;
        }
        let mut table = GainTable::build(&state, &live, threads);
        assert_exact(&state, &live, &table, "build");
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
                // Odd rounds update after every rule, even rounds once per
                // round (several entries per column).
                if round % 2 == 1 {
                    let log = state.take_cell_log();
                    table.update(&state, &live, log);
                    assert_exact(&state, &live, &table, "per rule");
                }
            }
            let log = state.take_cell_log();
            table.update(&state, &live, log);
            assert_exact(&state, &live, &table, "per round");
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
            assert!(
                cands.len() > PARALLEL_MIN_CANDIDATES,
                "{} candidates: the threaded legs must run in parallel",
                cands.len()
            );
            for k in [1, 3, 25] {
                for threads in [1, 2, 4] {
                    for cached in [true, false] {
                        let s = drive(&data, &cands, k, threads, cached);
                        for d in 0..3 {
                            seen[d] |= s[d];
                        }
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
        let live = Live::new(&data, state.codes(), &cands, None, 2);
        let mut table = GainTable::build(&state, &live, 2);
        state.set_cell_log(true);
        for (i, c) in live.cands().iter().step_by(37).take(9).enumerate() {
            state.apply_rule(TranslationRule::new(
                c.left.clone(),
                c.right.clone(),
                Direction::ALL[i % 3],
            ));
            if i % 3 != 2 {
                let log = state.take_cell_log();
                table.update(&state, &live, log);
                assert_exact(&state, &live, &table, "forced");
            }
        }
        let log = state.take_cell_log();
        table.update(&state, &live, log);
        assert_exact(&state, &live, &table, "forced batch");
    }

    #[test]
    fn shared_tidsets_match_owned() {
        let data = dataset(4, true);
        let cands =
            mine_closed_twoview(&data, &MinerConfig::builder().minsup(2).build()).candidates;
        let shared: Vec<(Tidset, Tidset)> = cands
            .iter()
            .map(|c| (data.support_set(&c.left), data.support_set(&c.right)))
            .collect();
        let state = CoverState::new(&data);
        let owned = Live::new(&data, state.codes(), &cands, None, 1);
        let borrowed = Live::new(&data, state.codes(), &cands, Some(&shared), 1);
        assert_eq!(owned.len(), borrowed.len());
        for (a, b) in owned.cands().iter().zip(borrowed.cands()) {
            assert!(std::ptr::eq(*a, *b));
        }
        let qub_live = cands
            .iter()
            .filter(|c| bounds::qub(state.codes(), &data, &c.left, &c.right) > 0.0)
            .count();
        assert_eq!(owned.len(), qub_live, "live set is the qub survivors");
        let a = GainTable::build(&state, &owned, 1);
        let b = GainTable::build(&state, &borrowed, 1);
        assert_eq!(a.nets, b.nets);
    }

    #[test]
    fn models_identical_across_thread_counts() {
        // Above the parallel switch, so the 2- and 4-thread runs build and
        // update their tables on the pool.
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
