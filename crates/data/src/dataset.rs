//! The Boolean two-view dataset: row store, per-item tidsets, statistics.

use crate::bitmap::Bitmap;
use crate::items::{ItemId, ItemSet, Side, Vocabulary};
use crate::tidset::Tidset;

/// A Boolean two-view dataset `D = (D_L, D_R)`.
///
/// Storage is dual:
/// * **row store** — one bitmap per transaction and side, indexed by the
///   item's *local* (per-side) index; used by translation, cover state and
///   gain computation;
/// * **column store** — one adaptive sparse/dense [`Tidset`] per global
///   item over `0..|D|`; used by all miners and by support queries. The
///   representation per column follows the item's support (see
///   [`crate::tidset`]), which is what makes large-sparse corpora pay
///   word-proportional instead of corpus-proportional set-op costs.
///
/// Both are built once at construction; the dataset is immutable afterwards.
#[derive(Clone, Debug)]
pub struct TwoViewDataset {
    vocab: Vocabulary,
    rows_left: Vec<Bitmap>,
    rows_right: Vec<Bitmap>,
    tidsets: Vec<Tidset>,
    supports: Vec<usize>,
    name: String,
}

impl TwoViewDataset {
    /// Builds a dataset from per-transaction global item id lists.
    ///
    /// # Panics
    /// Panics if a transaction references an item outside the vocabulary.
    pub fn from_transactions(vocab: Vocabulary, transactions: &[Vec<ItemId>]) -> TwoViewDataset {
        let ends: Vec<usize> = transactions
            .iter()
            .scan(0, |end, items| {
                *end += items.len();
                Some(*end)
            })
            .collect();
        TwoViewDataset::from_flat(vocab, &ends, &transactions.concat())
    }

    /// Builds a dataset from one flat id buffer: transaction `t` holds
    /// `items[ends[t - 1]..ends[t]]` (from 0 for the first), in any order
    /// and possibly repeated. Every constructor builds through here.
    ///
    /// # Panics
    /// Panics if `ends` is not ascending within `items.len()`, if an item
    /// lies outside the vocabulary, or if there are more than `u32::MAX`
    /// transactions.
    pub(crate) fn from_flat(vocab: Vocabulary, ends: &[usize], items: &[ItemId]) -> TwoViewDataset {
        let n = ends.len();
        assert!(u32::try_from(n).is_ok(), "{n} transactions overflow a tid");
        let (nl, nr) = (vocab.n_left(), vocab.n_right());
        // Count each column first so every tid list is allocated once.
        let mut counts = vec![0usize; vocab.n_items()];
        for &item in items {
            assert!(
                (item as usize) < counts.len(),
                "item {item} outside vocabulary"
            );
            counts[item as usize] += 1;
        }
        // Tids arrive in ascending transaction order, so each column is
        // collected as a sorted list and handed to the adaptive Tidset
        // constructor, which picks sparse or dense per column.
        let mut columns: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
        let mut rows_left = Vec::with_capacity(n);
        let mut rows_right = Vec::with_capacity(n);
        let mut start = 0;
        for (t, &end) in ends.iter().enumerate() {
            let (mut left, mut right) = (Bitmap::new(nl), Bitmap::new(nr));
            for &item in &items[start..end] {
                match vocab.side_of(item) {
                    Side::Left => left.insert(vocab.local_index(item)),
                    Side::Right => right.insert(vocab.local_index(item)),
                };
                let col = &mut columns[item as usize];
                if col.last() != Some(&(t as u32)) {
                    col.push(t as u32);
                }
            }
            rows_left.push(left);
            rows_right.push(right);
            start = end;
        }
        let tidsets: Vec<Tidset> = columns
            .into_iter()
            .map(|col| Tidset::from_sorted(n, col))
            .collect();
        let supports = tidsets.iter().map(Tidset::len).collect();
        TwoViewDataset {
            vocab,
            rows_left,
            rows_right,
            tidsets,
            supports,
            name: String::new(),
        }
    }

    /// Attaches a human-readable dataset name (used in reports).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The dataset name (empty if unset).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The item universe.
    #[inline]
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of transactions `|D|`.
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.rows_left.len()
    }

    /// The row bitmap of transaction `t` on `side` (local item indices).
    #[inline]
    pub fn row(&self, side: Side, t: usize) -> &Bitmap {
        match side {
            Side::Left => &self.rows_left[t],
            Side::Right => &self.rows_right[t],
        }
    }

    /// All rows of one side.
    #[inline]
    pub fn rows(&self, side: Side) -> &[Bitmap] {
        match side {
            Side::Left => &self.rows_left,
            Side::Right => &self.rows_right,
        }
    }

    /// Whether transaction `t` contains the (global) `item`.
    #[inline]
    pub fn transaction_contains(&self, t: usize, item: ItemId) -> bool {
        let local = self.vocab.local_index(item);
        self.row(self.vocab.side_of(item), t).contains(local)
    }

    /// The tidset of a (global) item: transactions in which it occurs.
    #[inline]
    pub fn tidset(&self, item: ItemId) -> &Tidset {
        &self.tidsets[item as usize]
    }

    /// The tidset of the `local`-th item of `side` — the per-item *column*
    /// view of the data the columnar cover state works on.
    ///
    /// Equivalent to `self.tidset(vocab.global_id(side, local))` without the
    /// caller having to translate indices.
    #[inline]
    pub fn column(&self, side: Side, local: usize) -> &Tidset {
        &self.tidsets[self.vocab.global_id(side, local) as usize]
    }

    /// `|supp(item)|`.
    #[inline]
    pub fn support(&self, item: ItemId) -> usize {
        self.supports[item as usize]
    }

    /// The support tidset of an itemset (intersection of item tidsets).
    ///
    /// The empty itemset is supported by every transaction. Intersections
    /// run in whichever representation is cheaper and the accumulator
    /// demotes to sparse as it shrinks.
    pub fn support_set(&self, items: &ItemSet) -> Tidset {
        let mut iter = items.iter();
        match iter.next() {
            None => Tidset::full(self.n_transactions()),
            Some(first) => {
                let mut acc = self.tidsets[first as usize].clone();
                for item in iter {
                    acc.intersect_with(&self.tidsets[item as usize]);
                }
                acc
            }
        }
    }

    /// `|supp(items)|` (allocates one intermediate bitmap for |items| ≥ 2).
    pub fn support_count(&self, items: &ItemSet) -> usize {
        match items.len() {
            0 => self.n_transactions(),
            1 => self.supports[items.as_slice()[0] as usize],
            _ => self.support_set(items).len(),
        }
    }

    /// Total number of ones on `side`.
    pub fn ones(&self, side: Side) -> usize {
        self.vocab
            .items_on(side)
            .map(|i| self.supports[i as usize])
            .sum()
    }

    /// Density of `side`: ones / (|D| * items on side). Zero for degenerate
    /// empty dimensions.
    pub fn density(&self, side: Side) -> f64 {
        let cells = self.n_transactions() * self.vocab.n_on(side);
        if cells == 0 {
            0.0
        } else {
            self.ones(side) as f64 / cells as f64
        }
    }

    /// The items of transaction `t` as global ids (both sides).
    pub fn transaction_items(&self, t: usize) -> ItemSet {
        let mut v: Vec<ItemId> = self.rows_left[t]
            .iter()
            .map(|l| self.vocab.global_id(Side::Left, l))
            .collect();
        v.extend(
            self.rows_right[t]
                .iter()
                .map(|l| self.vocab.global_id(Side::Right, l)),
        );
        ItemSet::from_sorted(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 transactions over a 3+2 vocabulary:
    /// t0: {a, b | x}   t1: {a | y}   t2: {b, c | x, y}   t3: {|}
    fn toy() -> TwoViewDataset {
        let vocab = Vocabulary::new(["a", "b", "c"], ["x", "y"]);
        TwoViewDataset::from_transactions(
            vocab,
            &[vec![0, 1, 3], vec![0, 4], vec![1, 2, 3, 4], vec![]],
        )
    }

    #[test]
    fn shape_and_rows() {
        let d = toy();
        assert_eq!(d.n_transactions(), 4);
        assert_eq!(d.row(Side::Left, 0).to_vec(), vec![0, 1]);
        assert_eq!(d.row(Side::Right, 0).to_vec(), vec![0]);
        assert_eq!(d.row(Side::Right, 2).to_vec(), vec![0, 1]);
        assert!(d.row(Side::Left, 3).is_empty());
        assert!(d.transaction_contains(0, 3));
        assert!(!d.transaction_contains(1, 3));
    }

    #[test]
    fn tidsets_and_supports() {
        let d = toy();
        assert_eq!(d.tidset(0).to_vec(), vec![0, 1]); // a
        assert_eq!(d.tidset(3).to_vec(), vec![0, 2]); // x
        assert_eq!(d.support(4), 2); // y
        assert_eq!(d.support(2), 1); // c
    }

    #[test]
    fn columns_are_local_index_tidsets() {
        let d = toy();
        assert_eq!(d.column(Side::Left, 0), d.tidset(0)); // a
        assert_eq!(d.column(Side::Left, 2), d.tidset(2)); // c
        assert_eq!(d.column(Side::Right, 0), d.tidset(3)); // x
        assert_eq!(d.column(Side::Right, 1).to_vec(), vec![1, 2]); // y
    }

    #[test]
    fn itemset_support() {
        let d = toy();
        let ab = ItemSet::from_items([0, 1]);
        assert_eq!(d.support_set(&ab).to_vec(), vec![0]);
        assert_eq!(d.support_count(&ab), 1);
        let bx = ItemSet::from_items([1, 3]);
        assert_eq!(d.support_set(&bx).to_vec(), vec![0, 2]);
        assert_eq!(d.support_count(&ItemSet::empty()), 4);
        assert_eq!(
            d.support_set(&ItemSet::empty()).to_vec(),
            vec![0, 1, 2, 3],
            "empty itemset occurs everywhere"
        );
    }

    #[test]
    fn densities() {
        let d = toy();
        // left ones: a=2, b=2, c=1 => 5 of 12 cells
        assert!((d.density(Side::Left) - 5.0 / 12.0).abs() < 1e-12);
        // right ones: x=2, y=2 => 4 of 8 cells
        assert!((d.density(Side::Right) - 0.5).abs() < 1e-12);
        assert_eq!(d.ones(Side::Left), 5);
        assert_eq!(d.ones(Side::Right), 4);
    }

    #[test]
    fn transaction_items_roundtrip() {
        let d = toy();
        assert_eq!(d.transaction_items(2).as_slice(), &[1, 2, 3, 4]);
        assert!(d.transaction_items(3).is_empty());
    }

    #[test]
    fn named_dataset() {
        let d = toy().with_name("toy");
        assert_eq!(d.name(), "toy");
    }
}
