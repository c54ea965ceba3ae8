//! Row-major reference cover state (the pre-columnar implementation).
//!
//! [`RowCoverState`] keeps the `U`/`E` tables as one bitmap **per
//! transaction** and evaluates gains by looping over every supporting
//! transaction — `O(|supp| · |Y|)` per candidate. The production
//! [`crate::cover::CoverState`] stores the same tables transposed into
//! per-item tidset *columns* and computes the identical gain with `|Y|`
//! fused popcount kernels instead.
//!
//! The row implementation is retained for two jobs:
//!
//! * **differential testing** — the property suite replays random rule
//!   sequences through both layouts and asserts that gains, encoded-length
//!   totals and correction rows agree ([`crate::cover::CoverState::verify`]
//!   also cross-checks against this type);
//! * **benchmark baseline** — the `perfsuite` binary times the gain-refresh
//!   phase against both layouts and records the speedup in
//!   `BENCH_select.json`.

use twoview_data::prelude::*;

use crate::encoding::CodeLengths;
use crate::rule::{Direction, TranslationRule};
use crate::table::TranslationTable;

/// Row-major (per-transaction) cover state. See the module docs.
#[derive(Clone, Debug)]
pub struct RowCoverState<'d> {
    data: &'d TwoViewDataset,
    codes: CodeLengths,
    /// Per side, per transaction: target-side items predicted correctly.
    covered: [Vec<Bitmap>; 2],
    /// Per side, per transaction: target-side items predicted erroneously.
    errors: [Vec<Bitmap>; 2],
    /// Per side, per transaction: `L(U_t | D_side)` — the paper's `tub(t)`.
    uncovered_weight: [Vec<f64>; 2],
    /// Per side: `L(C_side | T)`.
    l_corrections: [f64; 2],
    /// `L(T)`.
    l_table: f64,
    /// Per side: `|U|` (number of uncovered ones).
    n_uncovered: [usize; 2],
    /// Per side: `|E|` (number of erroneous ones).
    n_errors: [usize; 2],
    table: TranslationTable,
}

impl<'d> RowCoverState<'d> {
    /// Fresh state for an empty translation table: everything uncovered.
    pub fn new(data: &'d TwoViewDataset) -> Self {
        let codes = CodeLengths::new(data);
        let n = data.n_transactions();
        let vocab = data.vocab();
        let mut state = RowCoverState {
            covered: [
                vec![Bitmap::new(vocab.n_left()); n],
                vec![Bitmap::new(vocab.n_right()); n],
            ],
            errors: [
                vec![Bitmap::new(vocab.n_left()); n],
                vec![Bitmap::new(vocab.n_right()); n],
            ],
            uncovered_weight: [Vec::with_capacity(n), Vec::with_capacity(n)],
            l_corrections: [0.0, 0.0],
            l_table: 0.0,
            n_uncovered: [0, 0],
            n_errors: [0, 0],
            table: TranslationTable::new(),
            codes,
            data,
        };
        for side in Side::BOTH {
            let table = state.codes.side_table(side);
            let mut total = 0.0;
            let mut count = 0usize;
            for t in 0..n {
                let row = data.row(side, t);
                let w = row.weighted_len(table);
                state.uncovered_weight[side.index()].push(w);
                total += w;
                count += row.len();
            }
            state.l_corrections[side.index()] = total;
            state.n_uncovered[side.index()] = count;
        }
        state
    }

    /// The consequent as a bitmap over the target side's local indices.
    fn consequent_bitmap(&self, target: Side, consequent: &ItemSet) -> Bitmap {
        let vocab = self.data.vocab();
        Bitmap::from_indices(
            vocab.n_on(target),
            consequent.iter().map(|i| vocab.local_index(i)),
        )
    }

    /// Builds a state by applying every rule of `table` to a fresh state.
    pub fn from_table(data: &'d TwoViewDataset, table: &TranslationTable) -> Self {
        let mut state = RowCoverState::new(data);
        for rule in table.iter() {
            state.apply_rule(rule.clone());
        }
        state
    }

    /// The underlying dataset.
    pub fn data(&self) -> &'d TwoViewDataset {
        self.data
    }

    /// The per-item code lengths.
    pub fn codes(&self) -> &CodeLengths {
        &self.codes
    }

    /// The rules applied so far.
    pub fn table(&self) -> &TranslationTable {
        &self.table
    }

    /// `L(T)`.
    pub fn l_table(&self) -> f64 {
        self.l_table
    }

    /// `L(C_side | T)`.
    pub fn l_correction(&self, side: Side) -> f64 {
        self.l_corrections[side.index()]
    }

    /// Total encoded size `L(D_{L↔R}, T)`.
    pub fn total_length(&self) -> f64 {
        self.l_table + self.l_corrections[0] + self.l_corrections[1]
    }

    /// `|U|` on `side`.
    pub fn n_uncovered(&self, side: Side) -> usize {
        self.n_uncovered[side.index()]
    }

    /// `|E|` on `side`.
    pub fn n_errors(&self, side: Side) -> usize {
        self.n_errors[side.index()]
    }

    /// `L(U_t | D_side)` — the transaction-based upper bound `tub`.
    #[inline]
    pub fn uncovered_weight(&self, side: Side, t: usize) -> f64 {
        self.uncovered_weight[side.index()][t]
    }

    /// The whole `tub` column of one side.
    pub fn uncovered_weights(&self, side: Side) -> &[f64] {
        &self.uncovered_weight[side.index()]
    }

    /// The correction row `C_t = U_t ∪ E_t` on `side` (local indices).
    pub fn correction_row(&self, side: Side, t: usize) -> Bitmap {
        let mut c = self
            .data
            .row(side, t)
            .and_not(&self.covered[side.index()][t]);
        c.union_with(&self.errors[side.index()][t]);
        c
    }

    /// Data-gain of firing `consequent` into `target = from.opposite()` for
    /// every transaction in `antecedent_tids` (Eq. 2, one direction),
    /// evaluated row by row.
    pub fn directional_gain(
        &self,
        from: Side,
        antecedent_tids: &Tidset,
        consequent: &ItemSet,
    ) -> f64 {
        let target = from.opposite();
        let codes = self.codes.side_table(target);
        let covered = &self.covered[target.index()];
        let errors = &self.errors[target.index()];
        let cons = self.consequent_bitmap(target, consequent);
        // One scratch bitmap reused across the support.
        let mut scratch = Bitmap::new(cons.capacity());
        let mut gain = 0.0;
        for t in antecedent_tids.iter() {
            let row = self.data.row(target, t);
            // Hits: predicted ∧ present, gain for the not-yet-covered ones.
            cons.and_into(row, &mut scratch);
            gain += scratch.difference_weight(&covered[t], codes);
            // Misses: predicted ∧ absent, cost for the fresh errors.
            scratch.copy_from(&cons);
            scratch.subtract(row);
            gain -= scratch.difference_weight(&errors[t], codes);
        }
        gain
    }

    /// Gains of the three rules constructible from the pair `(X, Y)`, in
    /// [`Direction::ALL`] order, given the antecedent tidsets.
    pub fn pair_gains(
        &self,
        left: &ItemSet,
        right: &ItemSet,
        left_tids: &Tidset,
        right_tids: &Tidset,
    ) -> [f64; 3] {
        let g_fwd = self.directional_gain(Side::Left, left_tids, right);
        let g_bwd = self.directional_gain(Side::Right, right_tids, left);
        let base = self.codes.itemset(left) + self.codes.itemset(right);
        [
            g_fwd - (base + 2.0),         // X → Y
            g_bwd - (base + 2.0),         // X ← Y
            g_fwd + g_bwd - (base + 1.0), // X ↔ Y
        ]
    }

    /// Gain of a single rule (recomputes the antecedent tidsets).
    pub fn rule_gain(&self, rule: &TranslationRule) -> f64 {
        let left_tids = self.data.support_set(&rule.left);
        let right_tids = self.data.support_set(&rule.right);
        let gains = self.pair_gains(&rule.left, &rule.right, &left_tids, &right_tids);
        match rule.direction {
            Direction::Forward => gains[0],
            Direction::Backward => gains[1],
            Direction::Both => gains[2],
        }
    }

    /// Applies a rule: updates covered/error sets and all cached totals.
    pub fn apply_rule(&mut self, rule: TranslationRule) {
        if rule.direction.fires_from(Side::Left) {
            let tids = self.data.support_set(&rule.left);
            self.apply_directional(Side::Left, &tids, &rule.right);
        }
        if rule.direction.fires_from(Side::Right) {
            let tids = self.data.support_set(&rule.right);
            self.apply_directional(Side::Right, &tids, &rule.left);
        }
        self.l_table += self.codes.rule(&rule);
        self.table.push(rule);
    }

    fn apply_directional(&mut self, from: Side, antecedent_tids: &Tidset, consequent: &ItemSet) {
        let target = from.opposite();
        let ti = target.index();
        let cons = self.consequent_bitmap(target, consequent);
        let mut scratch = Bitmap::new(cons.capacity());
        for t in antecedent_tids.iter() {
            let row = self.data.row(target, t);
            // Hits become covered; account only for the newly covered bits.
            cons.and_into(row, &mut scratch);
            for l in scratch.iter_and_not(&self.covered[ti][t]) {
                let len = self.codes.side_table(target)[l];
                self.l_corrections[ti] -= len;
                self.uncovered_weight[ti][t] -= len;
                self.n_uncovered[ti] -= 1;
            }
            self.covered[ti][t].union_with(&scratch);
            // Misses become errors; account only for the fresh ones.
            scratch.copy_from(&cons);
            scratch.subtract(row);
            for l in scratch.iter_and_not(&self.errors[ti][t]) {
                self.l_corrections[ti] += self.codes.side_table(target)[l];
                self.n_errors[ti] += 1;
            }
            self.errors[ti][t].union_with(&scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TwoViewDataset {
        let vocab = Vocabulary::new(["a", "b", "c"], ["x", "y", "z"]);
        TwoViewDataset::from_transactions(
            vocab,
            &[
                vec![0, 1, 3, 4],
                vec![0, 1, 3],
                vec![0, 2, 5],
                vec![1, 4],
                vec![0, 1, 3, 4, 5],
                vec![2],
            ],
        )
    }

    #[test]
    fn row_gain_equals_actual_length_drop() {
        let d = toy();
        for dir in Direction::ALL {
            let mut s = RowCoverState::new(&d);
            let rule = TranslationRule::new(
                ItemSet::from_items([0, 1]),
                ItemSet::from_items([3, 4]),
                dir,
            );
            let predicted = s.rule_gain(&rule);
            let before = s.total_length();
            s.apply_rule(rule);
            assert!(
                (predicted - (before - s.total_length())).abs() < 1e-9,
                "{dir:?}"
            );
        }
    }
}
