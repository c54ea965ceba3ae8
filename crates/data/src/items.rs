//! Items, views (sides), vocabularies, and itemsets.
//!
//! A two-view dataset is defined over two disjoint item vocabularies `I_L`
//! and `I_R`. We give every item a single *global* id: left items occupy
//! `0..n_left`, right items occupy `n_left..n_left + n_right`. Global ids
//! keep mining over the joint alphabet trivial, while [`Vocabulary`] recovers
//! the side and per-side (local) index whenever the distinction matters.

use std::fmt;

/// One of the two views of a two-view dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// The left-hand view (`D_L`, items `I_L`).
    Left,
    /// The right-hand view (`D_R`, items `I_R`).
    Right,
}

impl Side {
    /// The other view.
    #[inline]
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// Both sides, left first.
    pub const BOTH: [Side; 2] = [Side::Left, Side::Right];

    /// `0` for the left view, `1` for the right: the side's index in
    /// per-side `[left, right]` arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Left => write!(f, "L"),
            Side::Right => write!(f, "R"),
        }
    }
}

/// Global identifier of an item (left items first, then right items).
pub type ItemId = u32;

/// The name → id lookup of a [`Vocabulary`]; `.2v` parsing resolves every
/// item name through it.
// lint: allow(determinism) — probed by name only, never iterated: ids follow the order of the names
type ByName = std::collections::HashMap<String, ItemId>;

/// The named item universe of a two-view dataset.
///
/// Item names are only used for presentation (example rules, figures); all
/// algorithms operate on ids.
#[derive(Clone, Debug)]
pub struct Vocabulary {
    names: Vec<String>,
    by_name: ByName,
    n_left: usize,
}

impl Vocabulary {
    /// Builds a vocabulary from named left and right items.
    ///
    /// # Panics
    /// Panics if any name occurs twice (across both sides), or if there are
    /// more names than [`ItemId`]s.
    pub fn new<L, R>(left: L, right: R) -> Self
    where
        L: IntoIterator,
        L::Item: Into<String>,
        R: IntoIterator,
        R::Item: Into<String>,
    {
        Vocabulary::try_new(left, right).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Vocabulary::new`] for names read from outside the program: a
    /// repeated name, or more names than an [`ItemId`] can number, is an
    /// error message instead of a panic.
    pub(crate) fn try_new<L, R>(left: L, right: R) -> Result<Self, String>
    where
        L: IntoIterator,
        L::Item: Into<String>,
        R: IntoIterator,
        R::Item: Into<String>,
    {
        let mut names: Vec<String> = left.into_iter().map(Into::into).collect();
        let n_left = names.len();
        names.extend(right.into_iter().map(Into::into));
        let mut by_name = ByName::with_capacity(names.len());
        for (i, n) in names.iter().enumerate() {
            let id = ItemId::try_from(i).map_err(|_| format!("more than {} items", ItemId::MAX))?;
            if by_name.insert(n.clone(), id).is_some() {
                return Err(format!("duplicate item name: {n}"));
            }
        }
        Ok(Vocabulary {
            names,
            by_name,
            n_left,
        })
    }

    /// A vocabulary with synthetic names `L0..L{nl}` / `R0..R{nr}`.
    pub fn unnamed(n_left: usize, n_right: usize) -> Self {
        Vocabulary::new(
            (0..n_left).map(|i| format!("L{i}")),
            (0..n_right).map(|i| format!("R{i}")),
        )
    }

    /// Number of left-hand items `|I_L|`.
    #[inline]
    pub fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right-hand items `|I_R|`.
    #[inline]
    pub fn n_right(&self) -> usize {
        self.names.len() - self.n_left
    }

    /// Total number of items `|I_L| + |I_R|`.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.names.len()
    }

    /// Number of items on `side`.
    #[inline]
    pub fn n_on(&self, side: Side) -> usize {
        match side {
            Side::Left => self.n_left(),
            Side::Right => self.n_right(),
        }
    }

    /// The side an item belongs to.
    #[inline]
    pub fn side_of(&self, item: ItemId) -> Side {
        debug_assert!((item as usize) < self.n_items());
        if (item as usize) < self.n_left {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// The index of `item` within its own side (`0..n_on(side)`).
    #[inline]
    pub fn local_index(&self, item: ItemId) -> usize {
        match self.side_of(item) {
            Side::Left => item as usize,
            Side::Right => item as usize - self.n_left,
        }
    }

    /// The global id of the `local`-th item on `side`.
    #[inline]
    pub fn global_id(&self, side: Side, local: usize) -> ItemId {
        debug_assert!(local < self.n_on(side));
        match side {
            Side::Left => local as ItemId,
            Side::Right => (self.n_left + local) as ItemId,
        }
    }

    /// Iterates over the global ids of all items on `side`.
    pub fn items_on(&self, side: Side) -> std::ops::Range<ItemId> {
        match side {
            Side::Left => 0..self.n_left as ItemId,
            Side::Right => self.n_left as ItemId..self.n_items() as ItemId,
        }
    }

    /// The display name of an item.
    #[inline]
    pub fn name(&self, item: ItemId) -> &str {
        &self.names[item as usize]
    }

    /// Looks an item up by name.
    pub fn id_of(&self, name: &str) -> Option<ItemId> {
        self.by_name.get(name).copied()
    }
}

/// A sorted, duplicate-free set of global item ids.
///
/// Itemsets in rules and candidates are small (a handful of items), so a
/// sorted `Vec` beats a bitmap or hash set both in memory and in iteration
/// speed.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ItemSet(Vec<ItemId>);

impl ItemSet {
    /// The empty itemset.
    pub fn empty() -> Self {
        ItemSet(Vec::new())
    }

    /// Builds an itemset from arbitrary ids (sorted and deduplicated).
    pub fn from_items<I: IntoIterator<Item = ItemId>>(items: I) -> Self {
        let mut v: Vec<ItemId> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        ItemSet(v)
    }

    /// Builds an itemset from a vector already sorted and duplicate-free.
    ///
    /// # Panics
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted(items: Vec<ItemId>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
        ItemSet(items)
    }

    /// A singleton itemset.
    pub fn singleton(item: ItemId) -> Self {
        ItemSet(vec![item])
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.0.binary_search(&item).is_ok()
    }

    /// Iterates the items in ascending id order.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, ItemId>> {
        self.0.iter().copied()
    }

    /// The items as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[ItemId] {
        &self.0
    }

    /// Returns a new itemset with `item` added.
    pub fn with(&self, item: ItemId) -> Self {
        match self.0.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut v = self.0.clone();
                v.insert(pos, item);
                ItemSet(v)
            }
        }
    }

    /// Set union.
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        let mut v = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    v.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    v.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    v.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        v.extend_from_slice(&self.0[i..]);
        v.extend_from_slice(&other.0[j..]);
        ItemSet(v)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &ItemSet) -> ItemSet {
        let mut v = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    v.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        ItemSet(v)
    }

    /// `true` iff the two itemsets share no item.
    pub fn is_disjoint(&self, other: &ItemSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// `true` iff `self ⊆ other`.
    pub fn is_subset(&self, other: &ItemSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() {
            if j >= other.0.len() {
                return false;
            }
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        true
    }

    /// Splits the itemset into its left-view and right-view parts.
    pub fn split(&self, vocab: &Vocabulary) -> (ItemSet, ItemSet) {
        let boundary = vocab.n_left() as ItemId;
        let cut = self.0.partition_point(|&i| i < boundary);
        (
            ItemSet(self.0[..cut].to_vec()),
            ItemSet(self.0[cut..].to_vec()),
        )
    }

    /// `true` iff the itemset contains at least one item of each view.
    pub fn spans_both_views(&self, vocab: &Vocabulary) -> bool {
        match (self.0.first(), self.0.last()) {
            (Some(&lo), Some(&hi)) => {
                vocab.side_of(lo) == Side::Left && vocab.side_of(hi) == Side::Right
            }
            _ => false,
        }
    }

    /// Renders the itemset with item names, e.g. `{a, b, c}`.
    pub fn display<'a>(&'a self, vocab: &'a Vocabulary) -> ItemSetDisplay<'a> {
        ItemSetDisplay { set: self, vocab }
    }
}

impl fmt::Debug for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.0.iter()).finish()
    }
}

impl FromIterator<ItemId> for ItemSet {
    fn from_iter<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        ItemSet::from_items(iter)
    }
}

/// Helper returned by [`ItemSet::display`].
pub struct ItemSetDisplay<'a> {
    set: &'a ItemSet,
    vocab: &'a Vocabulary,
}

impl fmt::Display for ItemSetDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, item) in self.set.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.vocab.name(item))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocabulary {
        Vocabulary::new(["a", "b", "c"], ["x", "y"])
    }

    #[test]
    fn vocabulary_layout() {
        let v = vocab();
        assert_eq!(v.n_left(), 3);
        assert_eq!(v.n_right(), 2);
        assert_eq!(v.n_items(), 5);
        assert_eq!(v.side_of(0), Side::Left);
        assert_eq!(v.side_of(2), Side::Left);
        assert_eq!(v.side_of(3), Side::Right);
        assert_eq!(v.local_index(4), 1);
        assert_eq!(v.global_id(Side::Right, 1), 4);
        assert_eq!(v.global_id(Side::Left, 2), 2);
        assert_eq!(v.items_on(Side::Left).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(v.items_on(Side::Right).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(v.name(3), "x");
        assert_eq!(v.id_of("y"), Some(4));
        assert_eq!(v.id_of("z"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate item name")]
    fn duplicate_names_rejected() {
        Vocabulary::new(["a"], ["a"]);
    }

    #[test]
    fn side_opposite() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
    }

    #[test]
    fn itemset_construction_sorts_and_dedups() {
        let s = ItemSet::from_items([4, 1, 4, 2]);
        assert_eq!(s.as_slice(), &[1, 2, 4]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(2));
        assert!(!s.contains(3));
    }

    #[test]
    fn itemset_ops() {
        let a = ItemSet::from_items([1, 3, 5]);
        let b = ItemSet::from_items([3, 4, 5, 6]);
        assert_eq!(a.union(&b).as_slice(), &[1, 3, 4, 5, 6]);
        assert_eq!(a.intersect(&b).as_slice(), &[3, 5]);
        assert!(!a.is_disjoint(&b));
        assert!(a.is_disjoint(&ItemSet::from_items([0, 2])));
        assert!(ItemSet::from_items([3, 5]).is_subset(&b));
        assert!(!a.is_subset(&b));
        assert!(ItemSet::empty().is_subset(&a));
        assert_eq!(a.with(4).as_slice(), &[1, 3, 4, 5]);
        assert_eq!(a.with(3).as_slice(), &[1, 3, 5]);
    }

    #[test]
    fn itemset_split_by_view() {
        let v = vocab();
        let s = ItemSet::from_items([0, 2, 3]);
        let (l, r) = s.split(&v);
        assert_eq!(l.as_slice(), &[0, 2]);
        assert_eq!(r.as_slice(), &[3]);
        assert!(s.spans_both_views(&v));
        assert!(!ItemSet::from_items([0, 1]).spans_both_views(&v));
        assert!(!ItemSet::from_items([3, 4]).spans_both_views(&v));
        assert!(!ItemSet::empty().spans_both_views(&v));
    }

    #[test]
    fn itemset_display_uses_names() {
        let v = vocab();
        let s = ItemSet::from_items([0, 4]);
        assert_eq!(format!("{}", s.display(&v)), "{a, y}");
    }
}
