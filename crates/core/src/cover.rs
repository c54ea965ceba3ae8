//! Incremental cover state: `U`/`E` tables, encoded lengths, and rule gains.
//!
//! The paper splits each correction table `C` into `U` (items still
//! *uncovered* after translation) and `E` (items introduced *erroneously*);
//! `C = U ∪ E` and the two are disjoint (§5.1). [`CoverState`] maintains
//! both per side, together with all encoded-length totals.
//!
//! ## Columnar layout
//!
//! The tables are stored **transposed**: one *tidset column* per target-side
//! item (`covered[item]`, `errors[item]`, each an adaptive sparse/dense
//! [`Tidset`] over `0..|D|`) instead of one row bitmap per transaction.
//! Gain evaluation for a candidate rule (`Δ_{D,T}(X ◇ Y)`, Eq. 1–2) then
//! collapses from `O(|supp| · |Y|)` per-transaction probes into `|Y|` fused
//! kernels — word-parallel popcounts when the operands are dense,
//! cardinality-proportional probe loops when they are sparse (columns start
//! sparse-empty and promote only once rules cover enough tids):
//!
//! ```text
//! Δ = Σ_{y ∈ Y} w_y · ( |tids ∧ supp(y) ∧ ¬covered[y]|
//!                     − |tids ∧ ¬supp(y) ∧ ¬errors[y]| )
//! ```
//!
//! with `tids = supp(X)` and `w_y` the item's Shannon code length — see
//! [`Tidset::and_and_not_len`] and [`Tidset::and_not_not_len`]. Rule
//! application updates the same columns incrementally. Row views
//! ([`CoverState::correction_row`]) are reconstructed on demand; the
//! per-transaction `tub` column ([`CoverState::uncovered_weight`]) is
//! maintained exactly as before.
//!
//! Each term's integer part `hits − misses` only moves when its column
//! gains covered or error cells, and rule application can log exactly
//! those cells ([`CellDelta`]). The gain table SELECT and EXACT score from
//! keeps the integers and re-sums them through the same `weighted_nets` /
//! `rule_gains` expressions, so maintained and from-scratch gains agree
//! bit for bit. GREEDY reuses each integer until the log names a change
//! to its column.
//!
//! ## The empty model's state
//!
//! Every fit and every score starts from the empty table, where the state
//! depends on the data alone: the code lengths, each side's `tub` column
//! (`L(D_t)` per transaction) and the totals `L(C_side | ∅)` and `|U|`.
//! Deriving them walks every row of both sides. `EmptyCover` holds them,
//! and [`CoverState::new`] is `CoverState::from_empty` over a fresh one,
//! so a one-shot run derives them as before, while the
//! [`crate::Engine`] derives them once, in its first job, and starts every
//! later fit and score from a clone. Both paths run the same arithmetic,
//! so their states are equal bit for bit. The columns start sparse-empty
//! either way; they cost one empty tidset per item, not a walk.
//!
//! The pre-columnar row-major implementation survives as
//! [`crate::cover_rows::RowCoverState`] for differential testing and as the
//! `perfsuite` benchmark baseline; the two are bit-identical in semantics.
//!
//! Invariants (checked by [`CoverState::verify`] and the property tests):
//! `covered[y] ⊆ supp(y)`, `errors[y] ∩ supp(y) = ∅`, the reconstructed
//! `C_t = U_t ∪ E_t` equals the XOR-correction of the standalone
//! [`crate::translate`] scheme and the row-major reference, and every
//! cached total equals its from-scratch recomputation.

use twoview_data::prelude::*;

use crate::cover_rows::RowCoverState;
use crate::encoding::CodeLengths;
use crate::rule::{Direction, TranslationRule};
use crate::table::TranslationTable;

/// Mutable model-construction state over an immutable dataset.
#[derive(Clone, Debug)]
pub struct CoverState<'d> {
    data: &'d TwoViewDataset,
    codes: CodeLengths,
    /// Per side, per local item: tids where the item is predicted correctly.
    covered: [Vec<Tidset>; 2],
    /// Per side, per local item: tids where the item is predicted erroneously.
    errors: [Vec<Tidset>; 2],
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
    /// The cells rule applications changed since the last
    /// [`CoverState::take_cell_log`], when logging is on.
    cell_log: Option<Vec<CellDelta>>,
    table: TranslationTable,
}

/// The cells one rule application changed in one target column: the tids
/// that turned covered (`covered ⊆ supp(item)`) and the tids that turned
/// erroneous (`errors ∩ supp(item) = ∅`). Fresh cells are disjoint from
/// the column's earlier covered and error cells, so the effect of any
/// sequence of applications on a column is the sum over its entries.
#[derive(Clone, Debug)]
pub struct CellDelta {
    /// The target-side item whose column changed.
    pub item: ItemId,
    /// Newly covered tids.
    pub covered: Tidset,
    /// Newly erroneous tids.
    pub errors: Tidset,
}

/// `Σ_y w_y · net_y` over a consequent's items in item order, given as
/// `(w_y, net_y)` terms with `w_y = L(y)` and `net_y` the column's
/// `hits − misses`: the one summation every directional gain goes through
/// (Eq. 2). `hits as f64 − misses as f64` equals `net as f64` exactly for
/// integers below 2^53, so summing maintained nets reproduces the
/// from-scratch gain bit for bit.
pub(crate) fn weighted_nets(terms: impl IntoIterator<Item = (f64, i64)>) -> f64 {
    let mut gain = 0.0;
    for (weight, net) in terms {
        gain += weight * net as f64;
    }
    gain
}

/// The three rule gains of a pair from its two directional data gains, in
/// [`Direction::ALL`] order, with `base = L(X) + L(Y)`:
/// `Δ_{D,T}(X ◇ Y) = Δ_{D|T}(X ◇ Y) − L(X ◇ Y)` (Eq. 1); the bidirectional
/// data gain is the sum of the two unidirectional ones.
#[inline]
pub(crate) fn rule_gains(g_fwd: f64, g_bwd: f64, base: f64) -> [f64; 3] {
    [
        g_fwd - (base + 2.0),         // X → Y
        g_bwd - (base + 2.0),         // X ← Y
        g_fwd + g_bwd - (base + 1.0), // X ↔ Y
    ]
}

/// The data-only part of the empty table's cover state: the per-item code
/// lengths, each side's `tub` column (`L(D_t)` per transaction, every item
/// uncovered), the `L(C_side | ∅)` totals and the `|U|` counts (each
/// side's ones). It depends on the data alone, so a caller that starts
/// many states over one dataset builds it once and starts each state from
/// a clone ([`CoverState::from_empty`]).
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct EmptyCover {
    codes: CodeLengths,
    uncovered_weight: [Vec<f64>; 2],
    l_corrections: [f64; 2],
    n_uncovered: [usize; 2],
}

impl EmptyCover {
    /// Walks every row of both sides once.
    pub(crate) fn new(data: &TwoViewDataset) -> EmptyCover {
        let codes = CodeLengths::new(data);
        let n = data.n_transactions();
        let mut empty = EmptyCover {
            uncovered_weight: [Vec::with_capacity(n), Vec::with_capacity(n)],
            l_corrections: [0.0, 0.0],
            n_uncovered: [0, 0],
            codes,
        };
        for side in Side::BOTH {
            let table = empty.codes.side_table(side);
            let mut total = 0.0;
            let mut count = 0usize;
            for t in 0..n {
                let row = data.row(side, t);
                let w = row.weighted_len(table);
                empty.uncovered_weight[side.index()].push(w);
                total += w;
                count += row.len();
            }
            empty.l_corrections[side.index()] = total;
            empty.n_uncovered[side.index()] = count;
        }
        empty
    }
}

impl<'d> CoverState<'d> {
    /// Fresh state for an empty translation table: everything uncovered.
    pub fn new(data: &'d TwoViewDataset) -> Self {
        CoverState::from_empty(data, EmptyCover::new(data))
    }

    /// Fresh state for an empty translation table, started from `empty`,
    /// which must have been built from `data`.
    pub(crate) fn from_empty(data: &'d TwoViewDataset, empty: EmptyCover) -> Self {
        let n = data.n_transactions();
        debug_assert_eq!(empty.codes.n_transactions(), n);
        let vocab = data.vocab();
        CoverState {
            covered: [
                vec![Tidset::new(n); vocab.n_left()],
                vec![Tidset::new(n); vocab.n_right()],
            ],
            errors: [
                vec![Tidset::new(n); vocab.n_left()],
                vec![Tidset::new(n); vocab.n_right()],
            ],
            uncovered_weight: empty.uncovered_weight,
            l_corrections: empty.l_corrections,
            l_table: 0.0,
            n_uncovered: empty.n_uncovered,
            n_errors: [0, 0],
            cell_log: None,
            table: TranslationTable::new(),
            codes: empty.codes,
            data,
        }
    }

    /// Builds a state by applying every rule of `table` to a fresh state.
    ///
    /// The result is independent of rule order (covered/error sets are
    /// unions over rules), matching the paper's order-free semantics.
    pub fn from_table(data: &'d TwoViewDataset, table: &TranslationTable) -> Self {
        CoverState::new(data).with_rules(table)
    }

    /// Applies every rule of `table`, in order.
    pub(crate) fn with_rules(mut self, table: &TranslationTable) -> Self {
        for rule in table.iter() {
            self.apply_rule(rule.clone());
        }
        self
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

    /// Consumes the state, returning the built table.
    pub fn into_table(self) -> TranslationTable {
        self.table
    }

    /// `L(T)`.
    pub fn l_table(&self) -> f64 {
        self.l_table
    }

    /// `L(C_side | T)`; the paper's `L(D_{→side} | T)`.
    pub fn l_correction(&self, side: Side) -> f64 {
        self.l_corrections[side.index()]
    }

    /// Total encoded size `L(D_{L↔R}, T) = L(T) + L(C_L|T) + L(C_R|T)`.
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

    /// `|C| = |U| + |E|` summed over both sides.
    pub fn correction_ones(&self) -> usize {
        self.n_uncovered[0] + self.n_uncovered[1] + self.n_errors[0] + self.n_errors[1]
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

    /// Turns cell logging on or off (the log is cleared either way). While
    /// on, every rule application appends one [`CellDelta`] per target
    /// column it changed, for [`CoverState::take_cell_log`].
    pub fn set_cell_log(&mut self, on: bool) {
        self.cell_log = on.then(Vec::new);
    }

    /// Drains the logged cell deltas, in application order. Empty unless
    /// logging is on.
    pub fn take_cell_log(&mut self) -> Vec<CellDelta> {
        self.cell_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The covered-tids column of the `local`-th item of `side`.
    #[inline]
    pub fn covered_tids(&self, side: Side, local: usize) -> &Tidset {
        &self.covered[side.index()][local]
    }

    /// The error-tids column of the `local`-th item of `side`.
    #[inline]
    pub fn error_tids(&self, side: Side, local: usize) -> &Tidset {
        &self.errors[side.index()][local]
    }

    /// The correction row `C_t = U_t ∪ E_t` on `side` (local indices),
    /// reconstructed from the item columns on demand.
    ///
    /// One row costs a probe of every item column; paths that need many
    /// rows (eval, reporting, [`CoverState::verify`]) should use the
    /// batched transposition [`CoverState::correction_rows_batch`] instead.
    pub fn correction_row(&self, side: Side, t: usize) -> Bitmap {
        let i = side.index();
        let mut c = Bitmap::new(self.data.vocab().n_on(side));
        // U_t: present but not covered.
        for l in self.data.row(side, t).iter() {
            if !self.covered[i][l].contains(t) {
                c.insert(l);
            }
        }
        // E_t: predicted although absent.
        for (l, col) in self.errors[i].iter().enumerate() {
            if col.contains(t) {
                c.insert(l);
            }
        }
        c
    }

    /// All correction rows `C_t = U_t ∪ E_t` of `side` at once — the
    /// batched column→row transposition.
    ///
    /// Instead of probing every item column per row (`O(|D| · |I_side|)`
    /// word-indexed probes for the full table), this makes **one pass over
    /// the columns**, scattering each column's uncovered tids
    /// (`supp(l) \ covered[l]`, streamed without materialising the
    /// difference) and error tids into the row bitmaps. Row `t` of the
    /// result equals [`CoverState::correction_row`]`(side, t)` exactly.
    pub fn correction_rows_batch(&self, side: Side) -> Vec<Bitmap> {
        let i = side.index();
        let n = self.data.n_transactions();
        let width = self.data.vocab().n_on(side);
        let mut rows = vec![Bitmap::new(width); n];
        for l in 0..width {
            // U column: present but not covered.
            let supp = self.data.column(side, l);
            for t in supp.iter_difference(&self.covered[i][l]) {
                rows[t].insert(l);
            }
            // E column: predicted although absent.
            for t in self.errors[i][l].iter() {
                rows[t].insert(l);
            }
        }
        rows
    }

    /// Data-gain of firing `consequent` into `target = from.opposite()` for
    /// every transaction in `antecedent_tids` (Eq. 2, one direction):
    ///
    /// `Σ_t  L(Y ∩ U_t | D) − L(Y \ (t ∪ E_t) | D)`,
    ///
    /// computed column-wise as `|Y|` fused popcount kernels over the
    /// transposed tables (see the module docs).
    pub fn directional_gain(
        &self,
        from: Side,
        antecedent_tids: &Tidset,
        consequent: &ItemSet,
    ) -> f64 {
        let target = from.opposite();
        weighted_nets(consequent.iter().map(|item| {
            let net = self.column_net(target, antecedent_tids, item);
            (self.codes.item(item), net)
        }))
    }

    /// `hits − misses` of firing into the column of `item` (on `target`)
    /// for every transaction in `antecedent_tids`: the integer part of one
    /// term of [`CoverState::directional_gain`].
    pub(crate) fn column_net(&self, target: Side, antecedent_tids: &Tidset, item: ItemId) -> i64 {
        let ti = target.index();
        let l = self.data.vocab().local_index(item);
        let supp = self.data.column(target, l);
        // Hits: rule fires, item present, not yet covered.
        let hits = antecedent_tids.and_and_not_len(supp, &self.covered[ti][l]);
        // Misses: rule fires, item absent, not yet an error.
        let misses = antecedent_tids.and_not_not_len(supp, &self.errors[ti][l]);
        hits as i64 - misses as i64
    }

    /// Gains of the three rules constructible from the pair `(X, Y)`,
    /// in [`Direction::ALL`] order, given the antecedent tidsets.
    ///
    /// `Δ_{D,T}(X ◇ Y) = Δ_{D|T}(X ◇ Y) − L(X ◇ Y)` (Eq. 1); the
    /// bidirectional data-gain is the sum of the two unidirectional ones.
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
        rule_gains(g_fwd, g_bwd, base)
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

    /// Applies a rule: updates covered/error columns and all cached totals.
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
        let vocab = self.data.vocab();
        for item in consequent.iter() {
            let l = vocab.local_index(item);
            let w = self.codes.item(item);
            let supp = self.data.column(target, l);
            // Hits become covered; account only for the newly covered tids
            // (each also shrinks its transaction's tub). Unioning just the
            // fresh tids equals unioning all hits: the rest are covered
            // already.
            let hits = antecedent_tids.and(supp);
            let fresh_cov = hits.difference(&self.covered[ti][l]);
            for t in fresh_cov.iter() {
                self.l_corrections[ti] -= w;
                self.uncovered_weight[ti][t] -= w;
                self.n_uncovered[ti] -= 1;
            }
            self.covered[ti][l].union_with(&fresh_cov);
            // Misses become errors; only fresh ones cost anything, and they
            // never touch the tub column (errors are not uncovered mass).
            let misses = antecedent_tids.difference(supp);
            let fresh_err = misses.difference(&self.errors[ti][l]);
            let fresh = fresh_err.len();
            self.l_corrections[ti] += w * fresh as f64;
            self.n_errors[ti] += fresh;
            self.errors[ti][l].union_with(&fresh_err);
            if let Some(log) = self.cell_log.as_mut() {
                if !fresh_cov.is_empty() || !fresh_err.is_empty() {
                    log.push(CellDelta {
                        item,
                        covered: fresh_cov,
                        errors: fresh_err,
                    });
                }
            }
        }
    }

    /// Recomputes every cached quantity from scratch and compares (within
    /// `tol` bits), checks the columnar invariants, and cross-checks the
    /// whole state against the row-major reference implementation
    /// ([`RowCoverState`]) built from the same table. Returns a description
    /// of the first mismatch, `None` if consistent. Test / debugging aid.
    pub fn verify(&self, tol: f64) -> Option<String> {
        let fresh = CoverState::from_table(self.data, &self.table);
        let rows = RowCoverState::from_table(self.data, &self.table);
        for side in Side::BOTH {
            let i = side.index();
            if (self.l_corrections[i] - fresh.l_corrections[i]).abs() > tol {
                return Some(format!(
                    "L(C_{side}) drifted: {} vs {}",
                    self.l_corrections[i], fresh.l_corrections[i]
                ));
            }
            if (self.l_corrections[i] - rows.l_correction(side)).abs() > tol {
                return Some(format!(
                    "L(C_{side}) disagrees with row reference: {} vs {}",
                    self.l_corrections[i],
                    rows.l_correction(side)
                ));
            }
            if self.n_uncovered[i] != fresh.n_uncovered[i]
                || self.n_uncovered[i] != rows.n_uncovered(side)
            {
                return Some(format!("|U_{side}| mismatch"));
            }
            if self.n_errors[i] != fresh.n_errors[i] || self.n_errors[i] != rows.n_errors(side) {
                return Some(format!("|E_{side}| mismatch"));
            }
            for l in 0..self.data.vocab().n_on(side) {
                let supp = self.data.column(side, l);
                if !self.covered[i][l].is_subset(supp) {
                    return Some(format!("covered[{l}] ⊄ supp at side {side}"));
                }
                if !self.errors[i][l].is_disjoint(supp) {
                    return Some(format!("errors[{l}] ∩ supp ≠ ∅ at side {side}"));
                }
            }
            let batch = self.correction_rows_batch(side);
            for (t, batch_row) in batch.iter().enumerate() {
                if (self.uncovered_weight[i][t] - rows.uncovered_weight(side, t)).abs() > tol {
                    return Some(format!("tub disagrees with row reference at ({side},{t})"));
                }
                if batch_row != &rows.correction_row(side, t) {
                    return Some(format!(
                        "correction row disagrees with row reference at ({side},{t})"
                    ));
                }
                if batch_row != &self.correction_row(side, t) {
                    return Some(format!(
                        "batched transposition disagrees with item-probe row at ({side},{t})"
                    ));
                }
            }
        }
        if (self.l_table - fresh.l_table).abs() > tol {
            return Some("L(T) drifted".into());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;

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

    fn rule_ab_xy(dir: Direction) -> TranslationRule {
        TranslationRule::new(
            ItemSet::from_items([0, 1]),
            ItemSet::from_items([3, 4]),
            dir,
        )
    }

    #[test]
    fn initial_state_equals_empty_model() {
        let d = toy();
        let s = CoverState::new(&d);
        let codes = CodeLengths::new(&d);
        assert!((s.total_length() - codes.empty_model(&d)).abs() < 1e-9);
        assert_eq!(s.n_errors(Side::Left) + s.n_errors(Side::Right), 0);
        assert_eq!(
            s.n_uncovered(Side::Left),
            d.ones(Side::Left),
            "initially everything uncovered"
        );
    }

    #[test]
    fn gain_equals_actual_length_drop() {
        let d = toy();
        for dir in Direction::ALL {
            let mut s = CoverState::new(&d);
            let rule = rule_ab_xy(dir);
            let predicted = s.rule_gain(&rule);
            let before = s.total_length();
            s.apply_rule(rule);
            let after = s.total_length();
            assert!(
                (predicted - (before - after)).abs() < 1e-9,
                "dir {dir:?}: predicted {predicted}, actual {}",
                before - after
            );
        }
    }

    #[test]
    fn gain_equals_actual_drop_for_second_rule_too() {
        let d = toy();
        let mut s = CoverState::new(&d);
        s.apply_rule(rule_ab_xy(Direction::Both));
        let rule2 = TranslationRule::new(
            ItemSet::from_items([2]),
            ItemSet::from_items([5]),
            Direction::Forward,
        );
        let predicted = s.rule_gain(&rule2);
        let before = s.total_length();
        s.apply_rule(rule2);
        assert!((predicted - (before - s.total_length())).abs() < 1e-9);
        assert_eq!(s.verify(1e-9), None);
    }

    #[test]
    fn errors_are_permanent() {
        let d = toy();
        let mut s = CoverState::new(&d);
        // {a} -> {x,y}: t1 ({a,b|x}) gets error y; t2 ({a,c|z}) gets x,y.
        s.apply_rule(TranslationRule::new(
            ItemSet::from_items([0]),
            ItemSet::from_items([3, 4]),
            Direction::Forward,
        ));
        let e_before = s.n_errors(Side::Right);
        assert!(e_before > 0);
        // Applying a second rule that also predicts y in t1 must not
        // double-count the error.
        s.apply_rule(TranslationRule::new(
            ItemSet::from_items([1]),
            ItemSet::from_items([4]),
            Direction::Forward,
        ));
        assert_eq!(s.verify(1e-9), None);
        assert!(s.n_errors(Side::Right) >= e_before);
    }

    #[test]
    fn cover_state_matches_standalone_translate() {
        let d = toy();
        let mut s = CoverState::new(&d);
        s.apply_rule(rule_ab_xy(Direction::Both));
        s.apply_rule(TranslationRule::new(
            ItemSet::from_items([2]),
            ItemSet::from_items([5]),
            Direction::Forward,
        ));
        let table = s.table().clone();
        // C_R from the cover state must equal the XOR correction of the
        // standalone TRANSLATE scheme (and likewise for C_L).
        let right_corrections = translate::correction_rows(&d, &table, Side::Left);
        let left_corrections = translate::correction_rows(&d, &table, Side::Right);
        for t in 0..d.n_transactions() {
            assert_eq!(
                s.correction_row(Side::Right, t),
                right_corrections[t],
                "right corrections differ at t={t}"
            );
            assert_eq!(
                s.correction_row(Side::Left, t),
                left_corrections[t],
                "left corrections differ at t={t}"
            );
        }
    }

    #[test]
    fn from_table_is_order_independent() {
        let d = toy();
        let r1 = rule_ab_xy(Direction::Both);
        let r2 = TranslationRule::new(
            ItemSet::from_items([0]),
            ItemSet::from_items([5]),
            Direction::Forward,
        );
        let t12 = TranslationTable::from_rules([r1.clone(), r2.clone()]);
        let t21 = TranslationTable::from_rules([r2, r1]);
        let s12 = CoverState::from_table(&d, &t12);
        let s21 = CoverState::from_table(&d, &t21);
        assert!((s12.total_length() - s21.total_length()).abs() < 1e-9);
        assert_eq!(s12.correction_ones(), s21.correction_ones());
    }

    #[test]
    fn uncovered_weights_shrink_as_rules_cover() {
        let d = toy();
        let mut s = CoverState::new(&d);
        let before: f64 = s.uncovered_weights(Side::Right).iter().sum();
        s.apply_rule(rule_ab_xy(Direction::Forward));
        let after: f64 = s.uncovered_weights(Side::Right).iter().sum();
        assert!(after < before);
        // Left side untouched by a forward rule.
        let left: f64 = s.uncovered_weights(Side::Left).iter().sum();
        let fresh: f64 = CoverState::new(&d)
            .uncovered_weights(Side::Left)
            .iter()
            .sum();
        assert!((left - fresh).abs() < 1e-12);
    }

    #[test]
    fn pair_gains_consistent_with_rule_gain() {
        let d = toy();
        let s = CoverState::new(&d);
        let left = ItemSet::from_items([0, 1]);
        let right = ItemSet::from_items([3, 4]);
        let lt = d.support_set(&left);
        let rt = d.support_set(&right);
        let gains = s.pair_gains(&left, &right, &lt, &rt);
        for (g, dir) in gains.iter().zip(Direction::ALL) {
            let rule = TranslationRule::new(left.clone(), right.clone(), dir);
            assert!((g - s.rule_gain(&rule)).abs() < 1e-12, "{dir:?}");
        }
    }

    #[test]
    fn columnar_matches_row_reference_after_rules() {
        let d = toy();
        let mut col = CoverState::new(&d);
        let mut row = RowCoverState::new(&d);
        let rules = [
            rule_ab_xy(Direction::Both),
            TranslationRule::new(
                ItemSet::from_items([0]),
                ItemSet::from_items([3, 4]),
                Direction::Forward,
            ),
            TranslationRule::new(
                ItemSet::from_items([2]),
                ItemSet::from_items([5]),
                Direction::Backward,
            ),
        ];
        for r in rules {
            let lt = d.support_set(&r.left);
            let rt = d.support_set(&r.right);
            let gc = col.pair_gains(&r.left, &r.right, &lt, &rt);
            let gr = row.pair_gains(&r.left, &r.right, &lt, &rt);
            for (a, b) in gc.iter().zip(gr) {
                assert!((a - b).abs() < 1e-9, "gain {a} vs {b}");
            }
            col.apply_rule(r.clone());
            row.apply_rule(r);
            assert!((col.total_length() - row.total_length()).abs() < 1e-9);
        }
        assert_eq!(col.verify(1e-9), None);
        for side in Side::BOTH {
            for t in 0..d.n_transactions() {
                assert_eq!(col.correction_row(side, t), row.correction_row(side, t));
            }
        }
    }

    #[test]
    fn batched_rows_match_per_row_reconstruction() {
        let d = toy();
        let mut s = CoverState::new(&d);
        let rules = [
            rule_ab_xy(Direction::Both),
            TranslationRule::new(
                ItemSet::from_items([0]),
                ItemSet::from_items([3, 4]),
                Direction::Forward,
            ),
        ];
        for check_point in 0..=rules.len() {
            for side in Side::BOTH {
                let batch = s.correction_rows_batch(side);
                assert_eq!(batch.len(), d.n_transactions());
                for (t, row) in batch.iter().enumerate() {
                    assert_eq!(
                        row,
                        &s.correction_row(side, t),
                        "side {side}, t {t}, after {check_point} rules"
                    );
                }
            }
            if let Some(rule) = rules.get(check_point) {
                s.apply_rule(rule.clone());
            }
        }
    }

    #[test]
    fn cell_log_replays_column_growth() {
        let d = toy();
        let mut s = CoverState::new(&d);
        s.set_cell_log(true);
        s.apply_rule(rule_ab_xy(Direction::Both));
        s.apply_rule(TranslationRule::new(
            ItemSet::from_items([0]),
            ItemSet::from_items([3, 4]),
            Direction::Forward,
        ));
        let log = s.take_cell_log();
        assert!(!log.is_empty());
        let n = d.n_transactions();
        let vocab = d.vocab();
        let mut covered = vec![Tidset::new(n); vocab.n_items()];
        let mut errors = vec![Tidset::new(n); vocab.n_items()];
        for delta in &log {
            let i = delta.item as usize;
            assert!(delta.covered.is_disjoint(&covered[i]), "fresh cells repeat");
            assert!(delta.errors.is_disjoint(&errors[i]), "fresh cells repeat");
            covered[i].union_with(&delta.covered);
            errors[i].union_with(&delta.errors);
        }
        for item in 0..vocab.n_items() as ItemId {
            let (side, l) = (vocab.side_of(item), vocab.local_index(item));
            assert_eq!(&covered[item as usize], s.covered_tids(side, l));
            assert_eq!(&errors[item as usize], s.error_tids(side, l));
        }
        assert!(s.take_cell_log().is_empty(), "take drains the log");
        s.set_cell_log(false);
        s.apply_rule(rule_ab_xy(Direction::Backward));
        assert!(s.take_cell_log().is_empty(), "logging off records nothing");
    }

    #[test]
    fn maintained_nets_reproduce_directional_gain() {
        // Nets derived once, then moved only by logged cells, re-sum to the
        // from-scratch gain bit for bit.
        let d = toy();
        let mut s = CoverState::new(&d);
        let left = ItemSet::from_items([0]);
        let right = ItemSet::from_items([3, 4]);
        let lt = d.support_set(&left);
        let mut nets: Vec<i64> = right
            .iter()
            .map(|y| s.column_net(Side::Right, &lt, y))
            .collect();
        s.set_cell_log(true);
        for rule in [
            rule_ab_xy(Direction::Both),
            TranslationRule::new(
                ItemSet::from_items([2]),
                ItemSet::from_items([4]),
                Direction::Forward,
            ),
        ] {
            s.apply_rule(rule);
            for delta in s.take_cell_log() {
                if let Some(k) = right.iter().position(|y| y == delta.item) {
                    nets[k] += lt.intersection_len(&delta.errors) as i64
                        - lt.intersection_len(&delta.covered) as i64;
                }
            }
            let terms = right
                .iter()
                .zip(&nets)
                .map(|(y, &n)| (s.codes().item(y), n));
            let maintained = weighted_nets(terms);
            let fresh = s.directional_gain(Side::Left, &lt, &right);
            assert_eq!(maintained.to_bits(), fresh.to_bits());
        }
    }

    #[test]
    fn column_accessors_expose_cover_columns() {
        let d = toy();
        let mut s = CoverState::new(&d);
        assert!(s.covered_tids(Side::Right, 0).is_empty());
        s.apply_rule(rule_ab_xy(Direction::Forward));
        // {a,b} holds in t0, t1, t4; x (local 0) present in all three.
        assert_eq!(s.covered_tids(Side::Right, 0).to_vec(), vec![0, 1, 4]);
        // y (local 1) absent from t1 -> error there.
        assert_eq!(s.error_tids(Side::Right, 1).to_vec(), vec![1]);
    }
}
