//! Dense, fixed-capacity bitmaps.
//!
//! [`Bitmap`] is the dense set kernel of the workspace: transactions store
//! their items in bitmaps, and every *tidset* (set of transaction ids —
//! mining intersections, cover-state columns, seed caches) uses a bitmap
//! as the dense half of the adaptive [`crate::tidset::Tidset`]
//! representation. All hot set operations (intersection, union,
//! difference, xor, popcount) are word-parallel over `u64` limbs.

use std::fmt;

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// A dense bitmap over the fixed universe `0..capacity`.
///
/// The capacity is set at construction time and never changes; all binary
/// operations require both operands to share the same capacity (checked with
/// `debug_assert!` on the hot paths, so release builds pay nothing).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    words: Vec<u64>,
    capacity: usize,
}

#[inline]
fn word_count(capacity: usize) -> usize {
    capacity.div_ceil(WORD_BITS)
}

impl Bitmap {
    /// Creates an empty bitmap over the universe `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Bitmap {
            words: vec![0; word_count(capacity)],
            capacity,
        }
    }

    /// Creates a bitmap with every bit in `0..capacity` set.
    pub fn full(capacity: usize) -> Self {
        let mut bm = Bitmap {
            words: vec![!0u64; word_count(capacity)],
            capacity,
        };
        bm.trim_tail();
        bm
    }

    /// Creates a bitmap from an iterator of bit indices.
    ///
    /// # Panics
    /// Panics if any index is `>= capacity`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(capacity: usize, indices: I) -> Self {
        let mut bm = Bitmap::new(capacity);
        for i in indices {
            bm.insert(i);
        }
        bm
    }

    /// Clears any bits beyond `capacity` in the final word.
    #[inline]
    fn trim_tail(&mut self) {
        let rem = self.capacity % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The size of the universe this bitmap ranges over.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of set bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `i >= capacity`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity, "bit {i} out of range {}", self.capacity);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i`. Returns `true` if the bit was newly set.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of range {}", self.capacity);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let was = *w & mask != 0;
        *w |= mask;
        !was
    }

    /// Clears bit `i`. Returns `true` if the bit was previously set.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of range {}", self.capacity);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let was = *w & mask != 0;
        *w &= !mask;
        was
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Copies the contents of `other` into `self` without reallocating.
    ///
    /// The in-place analogue of `*self = other.clone()` for hot paths that
    /// reuse one scratch bitmap across many operations.
    #[inline]
    pub fn copy_from(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words.copy_from_slice(&other.words);
    }

    /// Writes `self & other` into `out` without allocating.
    ///
    /// The miners use this to materialise a surviving child tidset after a
    /// [`Bitmap::intersection_len`] support check has already passed.
    #[inline]
    pub fn and_into(&self, other: &Bitmap, out: &mut Bitmap) {
        debug_assert_eq!(self.capacity, other.capacity);
        debug_assert_eq!(self.capacity, out.capacity);
        for ((o, a), b) in out.words.iter_mut().zip(&self.words).zip(&other.words) {
            *o = a & b;
        }
    }

    /// In-place intersection: `self &= other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place union: `self |= other`.
    #[inline]
    pub fn union_with(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place symmetric difference: `self ^= other`.
    #[inline]
    pub fn xor_with(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// In-place difference: `self &= !other`.
    #[inline]
    pub fn subtract(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Allocating intersection.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Allocating union.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Allocating symmetric difference.
    pub fn xor(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.xor_with(other);
        out
    }

    /// Allocating difference (`self \ other`).
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.subtract(other);
        out
    }

    /// `|self ∩ other|` without allocating.
    #[inline]
    pub fn intersection_len(&self, other: &Bitmap) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `|self ∪ other|` without allocating.
    #[inline]
    pub fn union_len(&self, other: &Bitmap) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// `|self \ other|` without allocating.
    #[inline]
    pub fn difference_len(&self, other: &Bitmap) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// `|self ∩ b ∩ ¬c|` in one fused pass, without allocating.
    ///
    /// This is the *hit* kernel of the columnar cover state: with `self` an
    /// antecedent tidset, `b` an item's support tidset and `c` the item's
    /// covered-tids column, it counts the transactions where firing the rule
    /// newly covers the item.
    #[inline]
    pub fn and_and_not_len(&self, b: &Bitmap, c: &Bitmap) -> usize {
        debug_assert_eq!(self.capacity, b.capacity);
        debug_assert_eq!(self.capacity, c.capacity);
        self.words
            .iter()
            .zip(&b.words)
            .zip(&c.words)
            .map(|((x, y), z)| (x & y & !z).count_ones() as usize)
            .sum()
    }

    /// `|self ∩ ¬b ∩ ¬c|` in one fused pass, without allocating.
    ///
    /// The *miss* kernel of the columnar cover state: with `self` an
    /// antecedent tidset, `b` an item's support tidset and `c` the item's
    /// error-tids column, it counts the transactions where firing the rule
    /// introduces a fresh error for the item.
    ///
    /// Both masks are complemented, so stray bits beyond `capacity` would
    /// survive `!b & !c`; `self` is always tail-trimmed by construction,
    /// which masks them out.
    #[inline]
    pub fn and_not_not_len(&self, b: &Bitmap, c: &Bitmap) -> usize {
        debug_assert_eq!(self.capacity, b.capacity);
        debug_assert_eq!(self.capacity, c.capacity);
        self.words
            .iter()
            .zip(&b.words)
            .zip(&c.words)
            .map(|((x, y), z)| (x & !y & !z).count_ones() as usize)
            .sum()
    }

    /// `true` iff `self ∩ other = ∅`, without allocating.
    #[inline]
    pub fn is_disjoint(&self, other: &Bitmap) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// `true` iff `self ⊆ other`, without allocating.
    #[inline]
    pub fn is_subset(&self, other: &Bitmap) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` iff `(self ∩ other) ⊆ of`, without allocating.
    ///
    /// Lets the closed miner run its duplicate and absorption checks on
    /// `tid(P) ∩ tid(i)` before that child tidset is ever materialised.
    #[inline]
    pub fn and_is_subset(&self, other: &Bitmap, of: &Bitmap) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        debug_assert_eq!(self.capacity, of.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .zip(&of.words)
            .all(|((a, b), c)| a & b & !c == 0)
    }

    /// `Σ weights[i]` over the set bits, without allocating.
    ///
    /// This is the MDL workhorse: with per-item Shannon code lengths as
    /// `weights` it computes `L(row | D_side)` in one pass, and with `tub`
    /// columns as `weights` it is the inner sum of the `rub` bound.
    ///
    /// Word-parallel gather kernel: zero words are skipped with a single
    /// compare, each non-zero word gathers its weights from a per-word
    /// 64-slot slice (one add to form the base index instead of a full
    /// division per bit), and two accumulators break the floating-point
    /// add dependency chain so dense words keep both FMA pipes busy. The
    /// summation *order* over the set bits is unchanged up to the final
    /// pairwise combine, and the result is deterministic for a given
    /// bitmap and weights.
    ///
    /// # Panics
    /// Panics if `weights` is shorter than the highest set bit requires.
    #[inline]
    pub fn weighted_len(&self, weights: &[f64]) -> f64 {
        let mut even = 0.0f64;
        let mut odd = 0.0f64;
        for (wi, &word) in self.words.iter().enumerate() {
            if word == 0 {
                continue;
            }
            let ws = &weights[wi * WORD_BITS..];
            let mut bits = word;
            while bits != 0 {
                let a = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                even += ws[a];
                if bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    odd += ws[b];
                }
            }
        }
        even + odd
    }

    /// `Σ weights[i]` over `self \ other`, without allocating.
    #[inline]
    pub fn difference_weight(&self, other: &Bitmap, weights: &[f64]) -> f64 {
        self.iter_and_not(other).map(|i| weights[i]).sum()
    }

    /// Iterates the bits of `self ∩ other` without materialising the
    /// intersection.
    pub fn iter_and<'a>(&'a self, other: &'a Bitmap) -> MaskedBitIter<'a> {
        debug_assert_eq!(self.capacity, other.capacity);
        MaskedBitIter::new(&self.words, &other.words, false)
    }

    /// Iterates the bits of `self \ other` without materialising the
    /// difference.
    pub fn iter_and_not<'a>(&'a self, other: &'a Bitmap) -> MaskedBitIter<'a> {
        debug_assert_eq!(self.capacity, other.capacity);
        MaskedBitIter::new(&self.words, &other.words, true)
    }

    /// Jaccard coefficient `|A∩B| / |A∪B|`; `0.0` when both sets are empty.
    pub fn jaccard(&self, other: &Bitmap) -> f64 {
        let union = self.union_len(other);
        if union == 0 {
            0.0
        } else {
            self.intersection_len(other) as f64 / union as f64
        }
    }

    /// Iterates over set bits in increasing order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collects the set bits into a vector (ascending order).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// The smallest set bit, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// A stable 64-bit fingerprint of the contents (FNV-1a over the words).
    ///
    /// Used by the closed-itemset miner to bucket candidate tidsets before
    /// running exact subsumption checks.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in &self.words {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The raw storage words — what the snapshot codec writes for a dense
    /// tidset.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from its raw words (the snapshot codec's dense
    /// decode path). Returns `None` unless the word count matches the
    /// capacity exactly and every bit beyond `capacity` in the final word
    /// is clear — the same invariants every constructor maintains, so a
    /// decoded bitmap is indistinguishable from a built one.
    pub(crate) fn from_words(capacity: usize, words: Vec<u64>) -> Option<Self> {
        if words.len() != word_count(capacity) {
            return None;
        }
        let bm = Bitmap { words, capacity };
        let rem = capacity % WORD_BITS;
        if rem != 0 {
            if let Some(&last) = bm.words.last() {
                if last & !((1u64 << rem) - 1) != 0 {
                    return None;
                }
            }
        }
        Some(bm)
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for Bitmap {
    /// Builds a bitmap whose capacity is one past the largest index.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let capacity = indices.iter().copied().max().map_or(0, |m| m + 1);
        Bitmap::from_indices(capacity, indices)
    }
}

/// Iterator over the set bits of a [`Bitmap`].
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let tz = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * WORD_BITS + tz)
    }
}

/// Iterator over the bits of `a ∩ b` or `a \ b` (see [`Bitmap::iter_and`]
/// and [`Bitmap::iter_and_not`]), masking word by word.
pub struct MaskedBitIter<'a> {
    a: &'a [u64],
    b: &'a [u64],
    invert_b: bool,
    word_idx: usize,
    current: u64,
}

impl<'a> MaskedBitIter<'a> {
    fn new(a: &'a [u64], b: &'a [u64], invert_b: bool) -> Self {
        let current = match (a.first(), b.first()) {
            (Some(&wa), Some(&wb)) => {
                if invert_b {
                    wa & !wb
                } else {
                    wa & wb
                }
            }
            _ => 0,
        };
        MaskedBitIter {
            a,
            b,
            invert_b,
            word_idx: 0,
            current,
        }
    }
}

impl Iterator for MaskedBitIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.a.len() {
                return None;
            }
            let wb = self.b[self.word_idx];
            self.current = self.a[self.word_idx] & if self.invert_b { !wb } else { wb };
        }
        let tz = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let bm = Bitmap::new(100);
        assert!(bm.is_empty());
        assert_eq!(bm.len(), 0);
        assert_eq!(bm.capacity(), 100);
    }

    #[test]
    fn full_sets_exactly_capacity_bits() {
        for cap in [0, 1, 63, 64, 65, 128, 130] {
            let bm = Bitmap::full(cap);
            assert_eq!(bm.len(), cap, "capacity {cap}");
            assert_eq!(bm.to_vec(), (0..cap).collect::<Vec<_>>());
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut bm = Bitmap::new(70);
        assert!(bm.insert(0));
        assert!(bm.insert(69));
        assert!(!bm.insert(69), "second insert reports no change");
        assert!(bm.contains(0));
        assert!(bm.contains(69));
        assert!(!bm.contains(1));
        assert!(bm.remove(69));
        assert!(!bm.remove(69), "second remove reports no change");
        assert!(!bm.contains(69));
        assert_eq!(bm.len(), 1);
    }

    #[test]
    #[should_panic]
    fn insert_out_of_range_panics() {
        let mut bm = Bitmap::new(10);
        bm.insert(10);
    }

    #[test]
    fn set_algebra() {
        let a = Bitmap::from_indices(130, [1, 5, 64, 100]);
        let b = Bitmap::from_indices(130, [5, 64, 65, 129]);
        assert_eq!(a.and(&b).to_vec(), vec![5, 64]);
        assert_eq!(a.or(&b).to_vec(), vec![1, 5, 64, 65, 100, 129]);
        assert_eq!(a.xor(&b).to_vec(), vec![1, 65, 100, 129]);
        assert_eq!(a.and_not(&b).to_vec(), vec![1, 100]);
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.union_len(&b), 6);
        assert_eq!(a.difference_len(&b), 2);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = Bitmap::from_indices(80, [3, 70]);
        let b = Bitmap::from_indices(80, [3, 50, 70]);
        let c = Bitmap::from_indices(80, [9]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(Bitmap::new(80).is_subset(&a), "empty set is subset of all");
    }

    #[test]
    fn jaccard_values() {
        let a = Bitmap::from_indices(10, [0, 1, 2]);
        let b = Bitmap::from_indices(10, [1, 2, 3]);
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        assert_eq!(Bitmap::new(10).jaccard(&Bitmap::new(10)), 0.0);
        assert_eq!(a.jaccard(&a), 1.0);
    }

    #[test]
    fn iterator_crosses_word_boundaries() {
        let idx = vec![0, 63, 64, 127, 128, 191];
        let bm = Bitmap::from_indices(192, idx.clone());
        assert_eq!(bm.to_vec(), idx);
        assert_eq!(bm.first(), Some(0));
    }

    #[test]
    fn from_iterator_sizes_capacity() {
        let bm: Bitmap = [3usize, 7, 2].into_iter().collect();
        assert_eq!(bm.capacity(), 8);
        assert_eq!(bm.to_vec(), vec![2, 3, 7]);
        let empty: Bitmap = std::iter::empty::<usize>().collect();
        assert_eq!(empty.capacity(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn fingerprint_distinguishes_and_matches() {
        let a = Bitmap::from_indices(100, [1, 2, 3]);
        let b = Bitmap::from_indices(100, [1, 2, 3]);
        let c = Bitmap::from_indices(100, [1, 2, 4]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn clear_resets() {
        let mut bm = Bitmap::from_indices(40, [0, 39]);
        bm.clear();
        assert!(bm.is_empty());
        assert_eq!(bm.capacity(), 40);
    }

    #[test]
    fn copy_from_and_and_into_match_allocating() {
        let a = Bitmap::from_indices(130, [1, 5, 64, 100]);
        let b = Bitmap::from_indices(130, [5, 64, 65, 129]);
        let mut scratch = Bitmap::new(130);
        scratch.copy_from(&a);
        assert_eq!(scratch, a);
        let mut out = Bitmap::from_indices(130, [0, 128]); // stale contents
        a.and_into(&b, &mut out);
        assert_eq!(out, a.and(&b));
    }

    #[test]
    fn and_is_subset_matches_materialised_check() {
        let a = Bitmap::from_indices(80, [1, 3, 70]);
        let b = Bitmap::from_indices(80, [3, 50, 70]);
        let big = Bitmap::from_indices(80, [3, 50, 70, 79]);
        let small = Bitmap::from_indices(80, [3]);
        assert_eq!(a.and_is_subset(&b, &big), a.and(&b).is_subset(&big));
        assert_eq!(a.and_is_subset(&b, &small), a.and(&b).is_subset(&small));
        assert!(a.and_is_subset(&b, &big));
        assert!(!a.and_is_subset(&b, &small));
    }

    #[test]
    fn masked_iters_match_allocating_ops() {
        let a = Bitmap::from_indices(200, [0, 5, 64, 65, 128, 199]);
        let b = Bitmap::from_indices(200, [5, 64, 100, 199]);
        assert_eq!(
            a.iter_and(&b).collect::<Vec<_>>(),
            a.and(&b).to_vec(),
            "iter_and"
        );
        assert_eq!(
            a.iter_and_not(&b).collect::<Vec<_>>(),
            a.and_not(&b).to_vec(),
            "iter_and_not"
        );
        let empty = Bitmap::new(200);
        assert_eq!(a.iter_and(&empty).count(), 0);
        assert_eq!(a.iter_and_not(&empty).collect::<Vec<_>>(), a.to_vec());
    }

    #[test]
    fn fused_triple_counts_match_materialised() {
        let a = Bitmap::from_indices(200, [0, 5, 63, 64, 65, 128, 199]);
        let b = Bitmap::from_indices(200, [5, 64, 100, 199]);
        let c = Bitmap::from_indices(200, [5, 65, 128]);
        assert_eq!(a.and_and_not_len(&b, &c), a.and(&b).and_not(&c).len());
        assert_eq!(a.and_not_not_len(&b, &c), a.and_not(&b).and_not(&c).len());
        let empty = Bitmap::new(200);
        assert_eq!(a.and_and_not_len(&empty, &empty), 0);
        assert_eq!(a.and_not_not_len(&empty, &empty), a.len());
        // Capacity not a word multiple: complements must not leak tail bits.
        let x = Bitmap::from_indices(70, [0, 69]);
        let none = Bitmap::new(70);
        assert_eq!(x.and_not_not_len(&none, &none), 2);
        assert_eq!(Bitmap::full(70).and_not_not_len(&none, &none), 70);
    }

    #[test]
    fn weighted_kernel_matches_bitwise_sum() {
        // Pseudo-random weights + bit patterns across word boundaries: the
        // gather kernel must agree with the naive per-bit sum to fp
        // accumulation-order tolerance, for dense and sparse words alike.
        let cap = 321; // not a word multiple
        let weights: Vec<f64> = (0..cap)
            .map(|i| ((i * 37 + 11) % 101) as f64 * 0.125)
            .collect();
        for (stride, offset) in [(1, 0), (2, 1), (3, 0), (7, 5), (63, 2), (64, 0), (65, 1)] {
            let bm = Bitmap::from_indices(cap, (offset..cap).step_by(stride));
            let naive: f64 = bm.iter().map(|i| weights[i]).sum();
            let kernel = bm.weighted_len(&weights);
            assert!(
                (kernel - naive).abs() < 1e-9 * (1.0 + naive.abs()),
                "stride {stride}: kernel {kernel} vs naive {naive}"
            );
        }
        assert_eq!(Bitmap::new(cap).weighted_len(&weights), 0.0);
        let full = Bitmap::full(cap);
        let total: f64 = weights.iter().sum();
        assert!((full.weighted_len(&weights) - total).abs() < 1e-9);
    }

    #[test]
    fn weighted_ops_sum_the_right_bits() {
        let weights: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let a = Bitmap::from_indices(10, [1, 4, 9]);
        let b = Bitmap::from_indices(10, [4]);
        assert!((a.weighted_len(&weights) - 14.0).abs() < 1e-12);
        assert!((a.difference_weight(&b, &weights) - 10.0).abs() < 1e-12);
        assert_eq!(Bitmap::new(10).weighted_len(&weights), 0.0);
    }

    #[test]
    fn in_place_ops_match_allocating() {
        let a = Bitmap::from_indices(70, [0, 10, 65]);
        let b = Bitmap::from_indices(70, [10, 20, 65]);
        let mut x = a.clone();
        x.intersect_with(&b);
        assert_eq!(x, a.and(&b));
        let mut y = a.clone();
        y.union_with(&b);
        assert_eq!(y, a.or(&b));
        let mut z = a.clone();
        z.xor_with(&b);
        assert_eq!(z, a.xor(&b));
        let mut w = a.clone();
        w.subtract(&b);
        assert_eq!(w, a.and_not(&b));
    }
}
