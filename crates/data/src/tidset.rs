//! Adaptive sparse / dense tidsets.
//!
//! Every tidset in the workspace — per-item columns of the dataset, mining
//! intersections, the cover state's covered/error columns, the SELECT/EXACT
//! seed caches — used to be a fixed-width dense [`Bitmap`] over
//! `n_transactions` bits, so on large-sparse corpora (support ≪ n) every
//! fused popcount kernel scanned all words regardless of how few bits were
//! set. [`Tidset`] is a two-variant representation:
//!
//! * **`Dense`** — the word-parallel [`Bitmap`], unbeatable once a set
//!   covers a meaningful fraction of the universe;
//! * **`Sparse`** — a sorted `Vec<u32>` of tids, work-*proportional* in
//!   the cardinality instead of the universe. Sparse×sparse set ops are
//!   scalar merges: galloping when one list is much shorter than the
//!   other, two-pointer otherwise.
//!
//! In adaptive mode a set is stored sparse while `card <= sparse_limit`
//! (a quarter of the dense word count — see [`sparse_limit`] for why the
//! looser memory breakeven is the wrong flip point) and dense above it.
//! Every kernel accepts **any combination** of operand representations.
//! Representation is an invisible performance detail: all operations —
//! including the floating-point [`Tidset::weighted_len`] /
//! [`Tidset::difference_weight`] accumulations and
//! [`Tidset::fingerprint`] — produce **bit-identical results** for the
//! same set regardless of representation (pinned by unit and property
//! tests), so models fitted under forced-sparse, forced-dense and adaptive
//! modes are exactly equal.
//!
//! [`TidsetMode`] selects the policy process-wide (`TWOVIEW_TIDSET_MODE`
//! env: `adaptive` | `dense` | `sparse`); the forced modes exist for
//! differential testing and for the `perfsuite` baseline timings.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::bitmap::{BitIter, Bitmap};
use crate::codec::{ByteReader, ByteWriter, CodecError};

/// Number of bits per dense storage word.
const WORD_BITS: usize = 64;

/// Representation policy for newly built / rebalanced tidsets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TidsetMode {
    /// Pick per set: sparse up to [`sparse_limit`], dense above it
    /// (default).
    Adaptive = 0,
    /// Always dense — the pre-adaptive behaviour, kept as the perfsuite
    /// baseline and for differential testing.
    ForceDense = 1,
    /// Always sparse — exercises the sparse kernels on any data.
    ForceSparse = 2,
}

fn mode_cell() -> &'static AtomicU8 {
    static CELL: OnceLock<AtomicU8> = OnceLock::new();
    CELL.get_or_init(|| {
        let initial = match std::env::var("TWOVIEW_TIDSET_MODE").as_deref() {
            Ok("dense") => TidsetMode::ForceDense,
            Ok("sparse") => TidsetMode::ForceSparse,
            Ok("adaptive") | Err(_) => TidsetMode::Adaptive,
            Ok(other) => {
                // A typo'd forced mode silently measuring adaptive would
                // invalidate a differential run; make the fallback loud.
                eprintln!(
                    "twoview-data: unrecognized TWOVIEW_TIDSET_MODE={other:?} \
                     (expected adaptive|dense|sparse); using adaptive"
                );
                TidsetMode::Adaptive
            }
        };
        AtomicU8::new(initial as u8)
    })
}

/// The process-wide representation policy (see [`set_tidset_mode`]).
pub fn tidset_mode() -> TidsetMode {
    match mode_cell().load(Ordering::Relaxed) {
        1 => TidsetMode::ForceDense,
        2 => TidsetMode::ForceSparse,
        _ => TidsetMode::Adaptive,
    }
}

/// Sets the process-wide representation policy.
///
/// Results are representation-independent, so flipping the mode between
/// runs never changes any model — only memory use and speed. Intended for
/// benchmarks and differential tests; the default ([`TidsetMode::Adaptive`],
/// overridable via `TWOVIEW_TIDSET_MODE`) is right for production.
pub fn set_tidset_mode(mode: TidsetMode) {
    mode_cell().store(mode as u8, Ordering::Relaxed);
}

/// Largest cardinality at which a set is stored sparse in adaptive mode:
/// a quarter of the dense word count (clamped to at least 4 so near-empty
/// sets over tiny universes still store sparse).
///
/// This is the **time** breakeven, not the memory one. A sparse operand
/// costs ≈2–3 cycles per tid (probe loops, merges), while the fused dense
/// kernels stream ≈0.5–1 cycle per word across all operands — so sparse
/// only wins once `card ≲ words/4`. The memory breakeven (`2·words`,
/// where `4·card` bytes undercut `8·words`) is far looser; choosing it
/// made whole item columns sparse and *slowed* mining ~10× on sparse
/// corpora, because prefix-tidset × column intersections turned from O(1)
/// dense probes into galloping binary searches. Below `words/4` the
/// common sparse sets (deep DFS intersections, pair seed tidsets) win on
/// both axes at once.
#[inline]
pub fn sparse_limit(universe: usize) -> usize {
    (universe.div_ceil(WORD_BITS) / 4).max(4)
}

/// Heap bytes of a dense tidset over `universe` — what the old all-dense
/// layout paid per set regardless of cardinality. Used by the cache-budget
/// accounting and the perfsuite bytes-saved statistic.
#[inline]
pub fn dense_bytes(universe: usize) -> usize {
    universe.div_ceil(WORD_BITS) * 8
}

#[derive(Clone)]
enum Repr {
    /// Sorted, deduplicated tids.
    Sparse(Vec<u32>),
    Dense(Bitmap),
}

/// A set of transaction ids over the fixed universe `0..universe`, stored
/// sparse or dense (see the module docs).
#[derive(Clone)]
pub struct Tidset {
    universe: usize,
    repr: Repr,
}

// ------------------------------------------------------------------ sparse
// slice helpers (sorted unique u32 lists)

/// When the shorter list is at least this factor shorter than the longer
/// one, the merges gallop through the longer list instead of walking both.
const GALLOP_FACTOR: usize = 8;

/// Number of elements of `a` strictly below `x`, found by exponential
/// search + binary refinement — the "gallop" step of the skewed merges.
#[inline]
fn gallop_to(a: &[u32], x: u32) -> usize {
    if a.first().is_none_or(|&f| f >= x) {
        return 0;
    }
    let mut hi = 1usize;
    while hi < a.len() && a[hi] < x {
        hi <<= 1;
    }
    let lo = hi >> 1;
    let end = hi.min(a.len());
    lo + a[lo..end].partition_point(|&v| v < x)
}

fn sparse_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `a ∩ b`, appended to `out`.
fn sparse_intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    sparse_intersect_visit(a, b, |x| out.push(x));
}

/// `|a ∩ b|`.
fn sparse_intersect_count(a: &[u32], b: &[u32]) -> usize {
    let mut count = 0usize;
    sparse_intersect_visit(a, b, |_| count += 1);
    count
}

/// Walks `a ∩ b` in ascending order, calling `emit` per common element:
/// gallop when skewed, two-pointer merge otherwise. The materialising and
/// the counting intersection share it, so their gallop heuristics cannot
/// drift apart.
#[inline]
fn sparse_intersect_visit(a: &[u32], b: &[u32], mut emit: impl FnMut(u32)) {
    let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if s.len().saturating_mul(GALLOP_FACTOR) < l.len() {
        let mut off = 0usize;
        for &x in s {
            off += gallop_to(&l[off..], x);
            if off >= l.len() {
                break;
            }
            if l[off] == x {
                emit(x);
                off += 1;
            }
        }
    } else {
        let (mut i, mut j) = (0usize, 0usize);
        while i < s.len() && j < l.len() {
            match s[i].cmp(&l[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    emit(s[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// `a \ b`, appended to `out`: gallop probes when `a` is much shorter,
/// two-pointer merge otherwise.
fn sparse_difference_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    if a.len().saturating_mul(GALLOP_FACTOR) < b.len() {
        let mut off = 0usize;
        for &x in a {
            off += gallop_to(&b[off..], x);
            if off < b.len() && b[off] == x {
                off += 1;
            } else {
                out.push(x);
            }
        }
        return;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
}

/// `a ⊆ b` with early exit: gallop probes when `a` is much shorter,
/// two-pointer merge otherwise.
fn sparse_is_subset(a: &[u32], b: &[u32]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    if a.len().saturating_mul(GALLOP_FACTOR) < b.len() {
        let mut off = 0usize;
        for &x in a {
            off += gallop_to(&b[off..], x);
            if off >= b.len() || b[off] != x {
                return false;
            }
            off += 1;
        }
        return true;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() {
        if j >= b.len() {
            return false;
        }
        match a[i].cmp(&b[j]) {
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

#[inline]
fn sparse_contains(a: &[u32], x: u32) -> bool {
    a.binary_search(&x).is_ok()
}

impl Tidset {
    /// Whether a set of `card` elements over `universe` is stored sparse
    /// under the current [`tidset_mode`].
    #[inline]
    fn choose_sparse(card: usize, universe: usize) -> bool {
        match tidset_mode() {
            TidsetMode::Adaptive => card <= sparse_limit(universe),
            TidsetMode::ForceDense => false,
            TidsetMode::ForceSparse => true,
        }
    }

    /// The empty tidset over `0..universe`.
    pub fn new(universe: usize) -> Tidset {
        let mut out = Tidset {
            universe,
            repr: Repr::Sparse(Vec::new()),
        };
        out.renormalize();
        out
    }

    /// The full tidset `0..universe`, stored like any other set of that
    /// cardinality (dense in adaptive mode unless the universe is tiny).
    pub fn full(universe: usize) -> Tidset {
        Tidset::from_bitmap(Bitmap::full(universe))
    }

    /// Builds a tidset from a **sorted, deduplicated** tid list.
    ///
    /// # Panics
    /// Debug-panics when the list is unsorted, has duplicates, or contains
    /// a tid `>= universe`.
    pub fn from_sorted(universe: usize, tids: Vec<u32>) -> Tidset {
        debug_assert!(tids.windows(2).all(|w| w[0] < w[1]), "unsorted tid list");
        debug_assert!(tids.last().is_none_or(|&t| (t as usize) < universe));
        let mut out = Tidset {
            universe,
            repr: Repr::Sparse(tids),
        };
        out.renormalize();
        out
    }

    /// Builds a tidset from arbitrary (unsorted, possibly repeated) indices.
    ///
    /// # Panics
    /// Panics if any index is `>= universe`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(universe: usize, indices: I) -> Tidset {
        Tidset::from_bitmap(Bitmap::from_indices(universe, indices))
    }

    /// Converts a dense bitmap, choosing the representation adaptively.
    pub fn from_bitmap(bitmap: Bitmap) -> Tidset {
        let universe = bitmap.capacity();
        let mut out = Tidset {
            universe,
            repr: Repr::Dense(bitmap),
        };
        out.renormalize();
        out
    }

    /// Re-chooses the representation for the current cardinality and mode —
    /// the promotion/demotion step every constructor and mutating op ends
    /// with.
    fn renormalize(&mut self) {
        let sparse = Self::choose_sparse(self.len(), self.universe);
        match &self.repr {
            Repr::Sparse(tids) if !sparse => {
                self.repr = Repr::Dense(Bitmap::from_indices(
                    self.universe,
                    tids.iter().map(|&t| t as usize),
                ));
            }
            Repr::Dense(bm) if sparse => {
                self.repr = Repr::Sparse(bm.iter().map(|t| t as u32).collect());
            }
            _ => {}
        }
    }

    /// The size of the universe this tidset ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// `true` if currently stored sparse (a performance detail — never
    /// observable through set values).
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Always `false`: run-length storage is gone, and the method stays
    /// only for callers that still report a runs share.
    #[inline]
    pub fn is_runs(&self) -> bool {
        false
    }

    /// Heap bytes of the current representation (`4·card` sparse,
    /// `8·⌈universe/64⌉` dense). The cache budgets count these actual
    /// bytes, so sparse tidsets buy proportionally more cache hits.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Sparse(tids) => tids.len() * 4,
            Repr::Dense(_) => dense_bytes(self.universe),
        }
    }

    /// A copy forced into the sparse representation (testing/benching aid).
    pub fn to_sparse(&self) -> Tidset {
        Tidset {
            universe: self.universe,
            repr: Repr::Sparse(self.iter().map(|t| t as u32).collect()),
        }
    }

    /// A copy forced into the dense representation (testing/benching aid).
    pub fn to_dense(&self) -> Tidset {
        Tidset {
            universe: self.universe,
            repr: Repr::Dense(Bitmap::from_indices(self.universe, self.iter())),
        }
    }

    /// Number of tids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(tids) => tids.len(),
            Repr::Dense(bm) => bm.len(),
        }
    }

    /// `true` if no tid is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Sparse(tids) => tids.is_empty(),
            Repr::Dense(bm) => bm.is_empty(),
        }
    }

    /// Tests membership of `t`.
    #[inline]
    pub fn contains(&self, t: usize) -> bool {
        match &self.repr {
            Repr::Sparse(tids) => sparse_contains(tids, t as u32),
            Repr::Dense(bm) => bm.contains(t),
        }
    }

    /// Iterates the tids in increasing order.
    pub fn iter(&self) -> TidIter<'_> {
        match &self.repr {
            Repr::Sparse(tids) => TidIter::Sparse(tids.iter()),
            Repr::Dense(bm) => TidIter::Dense(bm.iter()),
        }
    }

    /// Collects the tids into a vector (ascending order).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// The smallest tid, if any.
    pub fn first(&self) -> Option<usize> {
        match &self.repr {
            Repr::Sparse(tids) => tids.first().map(|&t| t as usize),
            Repr::Dense(bm) => bm.first(),
        }
    }

    // ------------------------------------------------------------ kernels

    /// Allocating intersection, result representation chosen adaptively —
    /// the miners' child-tidset constructor.
    pub fn and(&self, other: &Tidset) -> Tidset {
        debug_assert_eq!(self.universe, other.universe);
        let repr = match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => {
                let mut out = Vec::with_capacity(a.len().min(b.len()));
                sparse_intersect_into(a, b, &mut out);
                Repr::Sparse(out)
            }
            (Repr::Sparse(a), Repr::Dense(b)) | (Repr::Dense(b), Repr::Sparse(a)) => Repr::Sparse(
                a.iter()
                    .copied()
                    .filter(|&t| b.contains(t as usize))
                    .collect(),
            ),
            (Repr::Dense(a), Repr::Dense(b)) => Repr::Dense(a.and(b)),
        };
        let mut out = Tidset {
            universe: self.universe,
            repr,
        };
        out.renormalize();
        out
    }

    /// `self ∩ other` when the result's cardinality is already known — the
    /// miners' support-check-then-materialise pattern. A known-sparse
    /// result of two dense operands is collected straight off the masked
    /// word scan, skipping the dense intermediate (and its allocation +
    /// recount) that [`Tidset::and`] would build first.
    pub fn and_with_card(&self, other: &Tidset, card: usize) -> Tidset {
        debug_assert_eq!(self.universe, other.universe);
        if let (Repr::Dense(a), Repr::Dense(b)) = (&self.repr, &other.repr) {
            if Self::choose_sparse(card, self.universe) {
                let mut tids = Vec::with_capacity(card);
                tids.extend(a.iter_and(b).map(|t| t as u32));
                debug_assert_eq!(tids.len(), card);
                let mut out = Tidset {
                    universe: self.universe,
                    repr: Repr::Sparse(tids),
                };
                out.renormalize();
                return out;
            }
        }
        self.and(other)
    }

    /// Writes `self ∩ other` into `out` (same result as [`Tidset::and`]):
    /// when all three are dense the word kernel writes into `out`'s
    /// existing buffer, and `out` then re-chooses its representation for
    /// the new cardinality like every other op.
    pub fn and_into(&self, other: &Tidset, out: &mut Tidset) {
        debug_assert_eq!(self.universe, out.universe);
        if let (Repr::Dense(a), Repr::Dense(b), Repr::Dense(o)) =
            (&self.repr, &other.repr, &mut out.repr)
        {
            a.and_into(b, o);
            out.renormalize();
            return;
        }
        *out = self.and(other);
    }

    /// In-place intersection: `self &= other`. Dense×dense runs the
    /// zero-allocation word kernel in place (then re-chooses the
    /// representation); other combinations rebuild through
    /// [`Tidset::and`].
    pub fn intersect_with(&mut self, other: &Tidset) {
        if let (Repr::Dense(a), Repr::Dense(b)) = (&mut self.repr, &other.repr) {
            a.intersect_with(b);
            self.renormalize();
            return;
        }
        let repr = std::mem::replace(&mut self.repr, Repr::Sparse(Vec::new()));
        let lhs = Tidset {
            universe: self.universe,
            repr,
        };
        *self = lhs.and(other);
    }

    /// `|self ∩ other|` without allocating; sparse×sparse runs the
    /// galloping / two-pointer merge, mixed pairs probe the dense side
    /// per sparse tid.
    #[inline]
    pub fn intersection_len(&self, other: &Tidset) -> usize {
        debug_assert_eq!(self.universe, other.universe);
        match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => sparse_intersect_count(a, b),
            (Repr::Sparse(a), Repr::Dense(b)) | (Repr::Dense(b), Repr::Sparse(a)) => {
                a.iter().filter(|&&t| b.contains(t as usize)).count()
            }
            (Repr::Dense(a), Repr::Dense(b)) => a.intersection_len(b),
        }
    }

    /// `|self ∪ other|` without allocating.
    #[inline]
    pub fn union_len(&self, other: &Tidset) -> usize {
        self.len() + other.len() - self.intersection_len(other)
    }

    /// In-place union: `self |= other`, promoting the representation when
    /// the result outgrows its breakeven.
    pub fn union_with(&mut self, other: &Tidset) {
        debug_assert_eq!(self.universe, other.universe);
        match (&mut self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => a.union_with(b),
            (Repr::Dense(a), Repr::Sparse(b)) => {
                for &t in b {
                    a.insert(t as usize);
                }
            }
            (Repr::Sparse(a), Repr::Sparse(b)) => {
                *a = sparse_union(a, b);
            }
            (Repr::Sparse(a), Repr::Dense(b)) => {
                // The union is at least as large as the dense operand, so
                // build on a clone of its bitmap and scatter the sparse
                // tids in — one O(words) copy plus O(card) inserts instead
                // of collect + merge + rebuild.
                let mut dense = b.clone();
                for &t in a.iter() {
                    dense.insert(t as usize);
                }
                self.repr = Repr::Dense(dense);
            }
        }
        self.renormalize();
    }

    /// Allocating difference `self \ other`, representation re-chosen for
    /// the result.
    pub fn difference(&self, other: &Tidset) -> Tidset {
        debug_assert_eq!(self.universe, other.universe);
        let repr = match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => {
                let mut out = Vec::with_capacity(a.len());
                sparse_difference_into(a, b, &mut out);
                Repr::Sparse(out)
            }
            (Repr::Sparse(a), Repr::Dense(b)) => Repr::Sparse(
                a.iter()
                    .copied()
                    .filter(|&t| !b.contains(t as usize))
                    .collect(),
            ),
            (Repr::Dense(a), Repr::Dense(b)) => Repr::Dense(a.and_not(b)),
            (Repr::Dense(a), Repr::Sparse(b)) => {
                let mut out = a.clone();
                for &t in b {
                    out.remove(t as usize);
                }
                Repr::Dense(out)
            }
        };
        let mut out = Tidset {
            universe: self.universe,
            repr,
        };
        out.renormalize();
        out
    }

    /// In-place difference: `self &= !other`.
    pub fn subtract(&mut self, other: &Tidset) {
        let repr = std::mem::replace(&mut self.repr, Repr::Sparse(Vec::new()));
        let lhs = Tidset {
            universe: self.universe,
            repr,
        };
        *self = lhs.difference(other);
    }

    /// `|self \ other|` without allocating.
    #[inline]
    pub fn difference_len(&self, other: &Tidset) -> usize {
        debug_assert_eq!(self.universe, other.universe);
        match (&self.repr, &other.repr) {
            (Repr::Sparse(a), _) => a.iter().filter(|&&t| !other.contains(t as usize)).count(),
            (Repr::Dense(a), Repr::Dense(b)) => a.difference_len(b),
            (Repr::Dense(_), Repr::Sparse(_)) => self.len() - self.intersection_len(other),
        }
    }

    /// `|self ∩ b ∩ ¬c|` in one fused pass — the *hit* kernel of the
    /// columnar cover state, for every representation combination.
    #[inline]
    pub fn and_and_not_len(&self, b: &Tidset, c: &Tidset) -> usize {
        debug_assert_eq!(self.universe, b.universe);
        debug_assert_eq!(self.universe, c.universe);
        match (&self.repr, &b.repr, &c.repr) {
            (Repr::Dense(x), Repr::Dense(y), Repr::Dense(z)) => x.and_and_not_len(y, z),
            (Repr::Sparse(a), _, _) => a
                .iter()
                .filter(|&&t| b.contains(t as usize) && !c.contains(t as usize))
                .count(),
            (_, Repr::Sparse(bs), _) => bs
                .iter()
                .filter(|&&t| self.contains(t as usize) && !c.contains(t as usize))
                .count(),
            (Repr::Dense(x), Repr::Dense(y), Repr::Sparse(cs)) => {
                // |a∩b| − |a∩b∩c|, the sparse side iterated.
                x.intersection_len(y)
                    - cs.iter()
                        .filter(|&&t| x.contains(t as usize) && y.contains(t as usize))
                        .count()
            }
        }
    }

    /// `|self ∩ ¬b ∩ ¬c|` in one fused pass — the *miss* kernel of the
    /// columnar cover state, for every representation combination.
    #[inline]
    pub fn and_not_not_len(&self, b: &Tidset, c: &Tidset) -> usize {
        debug_assert_eq!(self.universe, b.universe);
        debug_assert_eq!(self.universe, c.universe);
        match (&self.repr, &b.repr, &c.repr) {
            (Repr::Dense(x), Repr::Dense(y), Repr::Dense(z)) => x.and_not_not_len(y, z),
            (Repr::Sparse(a), _, _) => a
                .iter()
                .filter(|&&t| !b.contains(t as usize) && !c.contains(t as usize))
                .count(),
            // ¬b ∩ ¬c is symmetric: one arm for either order of a dense
            // and a sparse mask.
            (Repr::Dense(x), Repr::Dense(y), Repr::Sparse(cs))
            | (Repr::Dense(x), Repr::Sparse(cs), Repr::Dense(y)) => {
                // |a\b| − |(a\b) ∩ c|, the sparse correction-column iterated.
                x.difference_len(y)
                    - cs.iter()
                        .filter(|&&t| x.contains(t as usize) && !y.contains(t as usize))
                        .count()
            }
            (Repr::Dense(x), Repr::Sparse(bs), Repr::Sparse(cs)) => {
                // Inclusion–exclusion; every sum iterates a sparse operand.
                let ab = bs.iter().filter(|&&t| x.contains(t as usize)).count();
                let ac = cs.iter().filter(|&&t| x.contains(t as usize)).count();
                let (s, l) = if bs.len() <= cs.len() {
                    (bs, cs)
                } else {
                    (cs, bs)
                };
                let abc = s
                    .iter()
                    .filter(|&&t| x.contains(t as usize) && sparse_contains(l, t))
                    .count();
                x.len() - ab - ac + abc
            }
        }
    }

    /// `true` iff `self ∩ other = ∅`, with early exit.
    #[inline]
    pub fn is_disjoint(&self, other: &Tidset) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => a.is_disjoint(b),
            (Repr::Sparse(a), _) => !a.iter().any(|&t| other.contains(t as usize)),
            (_, Repr::Sparse(b)) => !b.iter().any(|&t| self.contains(t as usize)),
        }
    }

    /// `true` iff `self ⊆ other`.
    #[inline]
    pub fn is_subset(&self, other: &Tidset) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => a.is_subset(b),
            (Repr::Sparse(a), Repr::Sparse(b)) => sparse_is_subset(a, b),
            (Repr::Sparse(a), Repr::Dense(b)) => a.iter().all(|&t| b.contains(t as usize)),
            (Repr::Dense(_), Repr::Sparse(b)) => {
                self.len() <= b.len() && self.iter().all(|t| sparse_contains(b, t as u32))
            }
        }
    }

    /// `true` iff `(self ∩ other) ⊆ of` — the closed miner's duplicate /
    /// absorption check, without materialising the intersection.
    #[inline]
    pub fn and_is_subset(&self, other: &Tidset, of: &Tidset) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        debug_assert_eq!(self.universe, of.universe);
        match (&self.repr, &other.repr, &of.repr) {
            (Repr::Sparse(a), _, _) => !a
                .iter()
                .any(|&t| other.contains(t as usize) && !of.contains(t as usize)),
            (_, Repr::Sparse(b), _) => !b
                .iter()
                .any(|&t| self.contains(t as usize) && !of.contains(t as usize)),
            (Repr::Dense(x), Repr::Dense(y), Repr::Dense(z)) => x.and_is_subset(y, z),
            (Repr::Dense(x), Repr::Dense(y), Repr::Sparse(zs)) => {
                let mut off = 0usize;
                for t in x.iter_and(y) {
                    let t = t as u32;
                    off += gallop_to(&zs[off..], t);
                    if off >= zs.len() || zs[off] != t {
                        return false;
                    }
                    off += 1;
                }
                true
            }
        }
    }

    /// `Σ weights[t]` over the tids — **bit-identical** across
    /// representations: the sparse path replays the dense kernel's
    /// per-word dual-accumulator order exactly, so bound values (and hence
    /// pruning decisions and models) never depend on the representation.
    #[inline]
    pub fn weighted_len(&self, weights: &[f64]) -> f64 {
        match &self.repr {
            Repr::Dense(bm) => bm.weighted_len(weights),
            Repr::Sparse(tids) => {
                let mut even = 0.0f64;
                let mut odd = 0.0f64;
                let mut i = 0usize;
                while i < tids.len() {
                    let word = tids[i] >> 6;
                    let mut parity = false;
                    while i < tids.len() && tids[i] >> 6 == word {
                        let w = weights[tids[i] as usize];
                        if parity {
                            odd += w;
                        } else {
                            even += w;
                        }
                        parity = !parity;
                        i += 1;
                    }
                }
                even + odd
            }
        }
    }

    /// `Σ weights[t]` over `self \ other`, ascending-order single
    /// accumulator in every representation (bit-identical across them;
    /// seeded with `-0.0` like `Iterator::sum::<f64>` so even the empty
    /// sum's sign bit matches the dense kernel).
    #[inline]
    pub fn difference_weight(&self, other: &Tidset, weights: &[f64]) -> f64 {
        debug_assert_eq!(self.universe, other.universe);
        let mut sum = -0.0;
        for t in self.iter() {
            if !other.contains(t) {
                sum += weights[t];
            }
        }
        sum
    }

    /// Iterates `self \ other` in ascending order without materialising
    /// the difference: dense×dense streams the fused masked word scan
    /// ([`Bitmap::iter_and_not`]), other combinations probe per tid.
    pub fn iter_difference<'a>(&'a self, other: &'a Tidset) -> DifferenceIter<'a> {
        debug_assert_eq!(self.universe, other.universe);
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => DifferenceIter::Masked(a.iter_and_not(b)),
            _ => DifferenceIter::Probe {
                it: self.iter(),
                other,
            },
        }
    }

    /// Jaccard coefficient `|A∩B| / |A∪B|`; `0.0` when both sets are empty.
    pub fn jaccard(&self, other: &Tidset) -> f64 {
        let union = self.union_len(other);
        if union == 0 {
            0.0
        } else {
            self.intersection_len(other) as f64 / union as f64
        }
    }

    /// A stable 64-bit fingerprint — **representation-independent**: the
    /// sparse path synthesises the dense word stream (zero words included)
    /// and feeds it through the same FNV-1a fold, so both representations
    /// of one set hash identically and existing identity checks / cache
    /// keys work unchanged.
    pub fn fingerprint(&self) -> u64 {
        const FNV_MUL: u64 = 0x0000_0100_0000_01b3;
        match &self.repr {
            Repr::Dense(bm) => bm.fingerprint(),
            Repr::Sparse(tids) => {
                let n_words = self.universe.div_ceil(WORD_BITS);
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                let mut i = 0usize;
                for w in 0..n_words as u32 {
                    let mut word = 0u64;
                    while i < tids.len() && tids[i] >> 6 == w {
                        word |= 1u64 << (tids[i] & 63);
                        i += 1;
                    }
                    h ^= word;
                    h = h.wrapping_mul(FNV_MUL);
                }
                h
            }
        }
    }

    // ------------------------------------------------------------- codec

    /// Encodes the set for the binary snapshot format: the universe, a
    /// representation tag (`0` sparse, `1` dense), then the current
    /// representation's payload verbatim. The repr is serialized as-is —
    /// not canonicalised — so a decoded set occupies exactly the
    /// [`Tidset::heap_bytes`] it was metered at when saved, and cache
    /// budget accounting agrees across a save/load boundary.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.universe as u64);
        match &self.repr {
            Repr::Sparse(tids) => {
                w.put_u8(0);
                w.put_u64(tids.len() as u64);
                for &t in tids {
                    w.put_u32(t);
                }
            }
            Repr::Dense(bm) => {
                w.put_u8(1);
                let words = bm.words();
                w.put_u64(words.len() as u64);
                for &word in words {
                    w.put_u64(word);
                }
            }
        }
    }

    /// Decodes a set written by [`Tidset::encode`], preserving the stored
    /// representation. Every format invariant is re-validated — sparse
    /// lists must be strictly ascending and in-universe, dense word counts
    /// and tail bits must match the universe — so a bit-flipped payload
    /// that still passes the section CRC (or a hostile file) yields a
    /// [`CodecError`], never an invalid set. Tag `2`, the run-length form
    /// that version-1 snapshots could hold, is rejected like any other
    /// unknown tag.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Tidset, CodecError> {
        let universe = r.get_len()?;
        if universe > u32::MAX as usize {
            return Err(CodecError::Malformed(format!(
                "tidset universe {universe} exceeds the u32 tid space"
            )));
        }
        let tag = r.get_u8()?;
        let repr = match tag {
            0 => {
                let n = r.get_len()?;
                let mut tids = Vec::with_capacity(n.min(r.remaining() / 4));
                for _ in 0..n {
                    tids.push(r.get_u32()?);
                }
                let sorted = tids.windows(2).all(|w| w[0] < w[1]);
                if !sorted || tids.last().is_some_and(|&t| t as usize >= universe) {
                    return Err(CodecError::Malformed(
                        "sparse tidset not strictly ascending within universe".into(),
                    ));
                }
                Repr::Sparse(tids)
            }
            1 => {
                let n = r.get_len()?;
                let mut words = Vec::with_capacity(n.min(r.remaining() / 8));
                for _ in 0..n {
                    words.push(r.get_u64()?);
                }
                let bm = Bitmap::from_words(universe, words).ok_or_else(|| {
                    CodecError::Malformed(
                        "dense tidset word count or tail bits inconsistent with universe".into(),
                    )
                })?;
                Repr::Dense(bm)
            }
            other => {
                return Err(CodecError::Malformed(format!(
                    "unknown tidset repr tag {other}"
                )))
            }
        };
        Ok(Tidset { universe, repr })
    }
}

impl PartialEq for Tidset {
    /// Set equality — representation-independent.
    fn eq(&self, other: &Self) -> bool {
        if self.universe != other.universe {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => a == b,
            (Repr::Dense(a), Repr::Dense(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for Tidset {}

impl fmt::Debug for Tidset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over `self \ other` (see [`Tidset::iter_difference`]).
pub enum DifferenceIter<'a> {
    /// Dense×dense: the bitmap kernel's masked word scan.
    Masked(crate::bitmap::MaskedBitIter<'a>),
    /// Any other combination: walk `self`, probe `other` per tid.
    Probe {
        /// Tids of the left operand, ascending.
        it: TidIter<'a>,
        /// The subtrahend probed per tid.
        other: &'a Tidset,
    },
}

impl Iterator for DifferenceIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            DifferenceIter::Masked(it) => it.next(),
            DifferenceIter::Probe { it, other } => it.by_ref().find(|&t| !other.contains(t)),
        }
    }
}

/// Iterator over the tids of a [`Tidset`], ascending.
pub enum TidIter<'a> {
    /// Sparse backing: a slice walk.
    Sparse(std::slice::Iter<'a, u32>),
    /// Dense backing: the bitmap's bit scanner.
    Dense(BitIter<'a>),
}

impl Iterator for TidIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            TidIter::Sparse(it) => it.next().map(|&t| t as usize),
            TidIter::Dense(it) => it.next(),
        }
    }

    /// Matches the representation once and hands the whole walk to the
    /// backing iterator, so reductions such as `iter().map(..).sum()` do
    /// not dispatch per tid however the loop is inlined.
    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, usize) -> B,
    {
        match self {
            TidIter::Sparse(it) => it.fold(init, |acc, &t| f(acc, t as usize)),
            TidIter::Dense(it) => it.fold(init, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tests that flip the global mode or assert concrete representations
    /// serialize through this lock and restore [`TidsetMode::Adaptive`].
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    struct ModeGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl ModeGuard {
        fn adaptive() -> ModeGuard {
            let guard = MODE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
            set_tidset_mode(TidsetMode::Adaptive);
            ModeGuard(guard)
        }
    }

    impl Drop for ModeGuard {
        fn drop(&mut self) {
            set_tidset_mode(TidsetMode::Adaptive);
        }
    }

    fn ts(universe: usize, tids: &[usize]) -> Tidset {
        Tidset::from_indices(universe, tids.iter().copied())
    }

    #[test]
    fn codec_roundtrip_preserves_repr_and_values() {
        let _guard = ModeGuard::adaptive();
        let universe = 6400;
        let cases = [
            Tidset::new(universe),                                    // empty (sparse)
            Tidset::from_indices(universe, (0..20).map(|i| 3 * i)),   // sparse
            Tidset::from_indices(universe, (0..universe).step_by(2)), // dense
            Tidset::from_indices(universe, 0..400),                   // dense block
            Tidset::full(universe),                                   // dense, full
            Tidset::from_indices(universe, [universe - 1]),           // boundary tid
            Tidset::new(0),                                           // empty universe
        ];
        for t in &cases {
            let mut w = ByteWriter::new();
            t.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = Tidset::decode(&mut r).expect("roundtrip decode");
            r.expect_end()
                .expect("decode consumes exactly the encoding");
            assert_eq!(&back, t);
            assert_eq!(back.universe(), t.universe());
            assert_eq!(back.is_sparse(), t.is_sparse(), "repr preserved");
            assert_eq!(back.heap_bytes(), t.heap_bytes(), "metering agrees");
            assert_eq!(back.fingerprint(), t.fingerprint());
        }
        // Forced reprs survive a roundtrip even when adaptive would flip.
        for forced in [cases[1].to_dense(), cases[2].to_sparse()] {
            let mut w = ByteWriter::new();
            forced.encode(&mut w);
            let bytes = w.into_bytes();
            let back = Tidset::decode(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(back.heap_bytes(), forced.heap_bytes());
            assert_eq!(back, forced);
        }
    }

    #[test]
    fn codec_rejects_invalid_payloads() {
        let _guard = ModeGuard::adaptive();
        let encode = |t: &Tidset| {
            let mut w = ByteWriter::new();
            t.encode(&mut w);
            w.into_bytes()
        };
        // Truncation at every prefix length errors, never panics.
        let bytes = encode(&Tidset::from_indices(640, (0..30).map(|i| 2 * i)));
        for cut in 0..bytes.len() {
            assert!(
                Tidset::decode(&mut ByteReader::new(&bytes[..cut])).is_err(),
                "prefix {cut} must be rejected"
            );
        }
        // Unknown repr tag.
        let mut bad_tag = encode(&Tidset::from_indices(640, [1, 5]));
        bad_tag[8] = 9;
        assert!(Tidset::decode(&mut ByteReader::new(&bad_tag)).is_err());
        // Unsorted sparse list: swap the two stored tids.
        let mut unsorted = encode(&Tidset::from_indices(640, [1, 5]));
        unsorted[17] = 5;
        unsorted[21] = 1;
        assert!(Tidset::decode(&mut ByteReader::new(&unsorted)).is_err());
        // Out-of-universe sparse tid.
        let mut oob = encode(&Tidset::from_indices(640, [1, 5]));
        oob[21] = 0xFF;
        oob[22] = 0xFF;
        assert!(Tidset::decode(&mut ByteReader::new(&oob)).is_err());
        // Dense tail bits beyond the universe set.
        let mut tail = encode(&Tidset::from_indices(70, 0..70).to_dense());
        *tail.last_mut().unwrap() |= 0x80;
        assert!(Tidset::decode(&mut ByteReader::new(&tail)).is_err());
        // A well-formed run list under the retired tag 2 (what a
        // version-1 snapshot could hold) is malformed, not a panic.
        let mut w = ByteWriter::new();
        w.put_u64(640);
        w.put_u8(2);
        w.put_u64(2);
        for (s, e) in [(0u32, 5u32), (9, 20)] {
            w.put_u32(s);
            w.put_u32(e);
        }
        let runs = w.into_bytes();
        assert!(matches!(
            Tidset::decode(&mut ByteReader::new(&runs)),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn representation_follows_threshold() {
        let _guard = ModeGuard::adaptive();
        let universe = 6400; // 100 words => sparse_limit = 25
        let limit = sparse_limit(universe);
        assert_eq!(limit, 25);
        // Scattered and consecutive layouts flip at exactly the limit.
        for (card, sparse) in [(limit - 1, true), (limit, true), (limit + 1, false)] {
            let t = Tidset::from_indices(universe, (0..card).map(|i| 2 * i));
            assert_eq!(t.is_sparse(), sparse, "card {card}");
            assert_eq!(t.len(), card);
            let consec = Tidset::from_indices(universe, 0..card);
            assert_eq!(consec.is_sparse(), sparse, "consecutive card {card}");
        }
        assert!(!Tidset::full(universe).is_sparse(), "the full set is dense");
    }

    #[test]
    fn forced_modes_override_threshold() {
        let _guard = ModeGuard::adaptive();
        set_tidset_mode(TidsetMode::ForceDense);
        assert!(!Tidset::from_indices(640, 0..3).is_sparse());
        set_tidset_mode(TidsetMode::ForceSparse);
        assert!(Tidset::from_indices(640, 0..200).is_sparse());
    }

    #[test]
    fn kernel_results_rebalance_representation() {
        let _guard = ModeGuard::adaptive();
        let universe = 6400;
        let limit = sparse_limit(universe);
        // Two dense scattered sets with a tiny intersection: the result
        // demotes to sparse.
        let a = Tidset::from_indices(universe, (0..universe).step_by(2));
        let b = Tidset::from_indices(universe, (0..universe).filter(|i| i % 640 == 0));
        assert!(!a.is_sparse());
        let i = a.and(&b);
        assert!(i.is_sparse(), "tiny scattered intersection demotes");
        assert_eq!(i.len(), 10);
        // A sparse scattered set crossing the threshold under union
        // promotes to dense.
        let mut s = Tidset::from_indices(universe, (0..limit).map(|i| 2 * i));
        assert!(s.is_sparse());
        s.union_with(&Tidset::from_indices(
            universe,
            (limit..2 * limit).map(|i| 2 * i),
        ));
        assert!(!s.is_sparse(), "union past threshold promotes");
        assert_eq!(s.len(), 2 * limit);
    }

    #[test]
    fn kernels_match_bitmap_reference_in_all_repr_combos() {
        let universe = 200;
        let a: Vec<usize> = (0..universe).filter(|i| i % 3 == 0).collect();
        let b: Vec<usize> = (0..universe)
            .filter(|&i| i % 4 == 1 || i % 7 == 0 || (40..80).contains(&i))
            .collect();
        let c: Vec<usize> = (0..universe)
            .filter(|&i| i % 5 == 2 || (100..130).contains(&i))
            .collect();
        let (ba, bb, bc) = (
            Bitmap::from_indices(universe, a.iter().copied()),
            Bitmap::from_indices(universe, b.iter().copied()),
            Bitmap::from_indices(universe, c.iter().copied()),
        );
        let variants = |v: &[usize]| {
            let t = ts(universe, v);
            [t.to_sparse(), t.to_dense()]
        };
        let weights: Vec<f64> = (0..universe)
            .map(|i| (i % 13) as f64 * 0.375 + 0.25)
            .collect();
        for ta in variants(&a) {
            for tb in variants(&b) {
                assert_eq!(ta.intersection_len(&tb), ba.intersection_len(&bb));
                assert_eq!(ta.union_len(&tb), ba.union_len(&bb));
                assert_eq!(ta.difference_len(&tb), ba.difference_len(&bb));
                assert_eq!(ta.and(&tb).to_vec(), ba.and(&bb).to_vec());
                assert_eq!(ta.difference(&tb).to_vec(), ba.and_not(&bb).to_vec());
                assert_eq!(ta.is_subset(&tb), ba.is_subset(&bb));
                assert_eq!(ta.is_disjoint(&tb), ba.is_disjoint(&bb));
                assert_eq!(ta.jaccard(&tb), ba.jaccard(&bb));
                assert_eq!(
                    ta.iter_difference(&tb).collect::<Vec<_>>(),
                    ba.and_not(&bb).to_vec()
                );
                for tc in variants(&c) {
                    assert_eq!(ta.and_and_not_len(&tb, &tc), ba.and_and_not_len(&bb, &bc));
                    assert_eq!(ta.and_not_not_len(&tb, &tc), ba.and_not_not_len(&bb, &bc));
                    assert_eq!(ta.and_is_subset(&tb, &tc), ba.and_is_subset(&bb, &bc));
                }
                // fp kernels must be BIT-identical across representations.
                assert_eq!(
                    ta.weighted_len(&weights).to_bits(),
                    ba.weighted_len(&weights).to_bits(),
                    "weighted_len must be bit-identical"
                );
                assert_eq!(
                    ta.difference_weight(&tb, &weights).to_bits(),
                    ta.to_dense()
                        .difference_weight(&tb.to_dense(), &weights)
                        .to_bits(),
                    "difference_weight must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn iter_fold_matches_next_loop_bit_for_bit() {
        // `sum` runs through `TidIter::fold`; a `for` loop drives `next`.
        // Weights of mixed magnitude make the f64 sum order-sensitive.
        let universe = 640;
        let w: Vec<f64> = (0..universe)
            .map(|i| 1.0 / (i as f64 + 3.0) + (i % 5) as f64 * 1e6)
            .collect();
        let tids: Vec<usize> = (0..universe)
            .filter(|i| i % 7 == 0 || i % 11 == 3)
            .collect();
        let t = ts(universe, &tids);
        for set in [t.to_sparse(), t.to_dense()] {
            let folded = set.iter().map(|t| w[t]).sum::<f64>();
            let mut looped = -0.0f64;
            for t in set.iter() {
                looped += w[t];
            }
            assert_eq!(folded.to_bits(), looped.to_bits());
            assert_eq!(set.iter().fold(0usize, |n, _| n + 1), tids.len());
        }
    }

    /// Every sparse merge kernel against naive set algebra, with the
    /// operands in both orders.
    fn check_sparse_merges(a: &[u32], b: &[u32]) {
        for (a, b) in [(a, b), (b, a)] {
            let expect_i: Vec<u32> = a.iter().copied().filter(|x| b.contains(x)).collect();
            let expect_d: Vec<u32> = a.iter().copied().filter(|x| !b.contains(x)).collect();
            let mut got_i = Vec::new();
            sparse_intersect_into(a, b, &mut got_i);
            assert_eq!(got_i, expect_i, "intersect {a:?} {b:?}");
            assert_eq!(
                sparse_intersect_count(a, b),
                expect_i.len(),
                "count {a:?} {b:?}"
            );
            let mut got_d = Vec::new();
            sparse_difference_into(a, b, &mut got_d);
            assert_eq!(got_d, expect_d, "difference {a:?} {b:?}");
            assert_eq!(
                sparse_is_subset(a, b),
                a.iter().all(|x| b.contains(x)),
                "subset {a:?} {b:?}"
            );
        }
    }

    #[test]
    fn sparse_merges_match_reference_on_block_boundaries() {
        let dense: Vec<u32> = (0..40).collect();
        let evens: Vec<u32> = (0..40).step_by(2).collect();
        let sevens: Vec<u32> = (0..200).step_by(7).collect();
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![1], vec![]),
            (vec![1, 2, 3], vec![2, 3, 4]),
            (dense.clone(), evens.clone()),
            (dense.clone(), sevens.clone()),
            // Matches spilling past the first four elements of one side.
            (vec![1, 2, 3, 100], vec![1, 2, 3, 4, 5, 6, 7, 100]),
            // Lengths that are not multiples of four on both sides.
            (vec![0, 8, 16, 24, 32], vec![8, 9, 10, 24, 33]),
            // Fully disjoint ranges.
            ((0..32).collect(), (100..132).collect()),
            // Subset relations, merged and galloped.
            (evens.clone(), evens.clone()),
            (vec![2, 18, 38], evens.clone()),
            (vec![2, 18, 39], evens),
        ];
        for (a, b) in &cases {
            check_sparse_merges(a, b);
        }
    }

    #[test]
    fn sparse_merges_match_reference_on_pseudorandom_lists() {
        // Deterministic xorshift inputs across a spread of densities and
        // sizes, skewed (galloping) and balanced (two-pointer).
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (na, nb, modulus) in [
            (5, 400, 512),
            (60, 70, 256),
            (128, 128, 200),
            (33, 47, 4096),
        ] {
            let mut a: Vec<u32> = (0..na).map(|_| (next() % modulus) as u32).collect();
            let mut b: Vec<u32> = (0..nb).map(|_| (next() % modulus) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            check_sparse_merges(&a, &b);
        }
    }

    #[test]
    fn fingerprint_is_representation_independent() {
        // Pinned contract: sparse and dense copies of one set hash
        // identically, and both equal the dense Bitmap fingerprint, so
        // perfsuite identity checks and engine cache keys are agnostic to
        // the representation mix.
        for universe in [1, 63, 64, 65, 200, 1000] {
            for stride in [1usize, 2, 7, 64, 97] {
                let tids: Vec<usize> = (0..universe).step_by(stride).collect();
                let t = ts(universe, &tids);
                let bm = Bitmap::from_indices(universe, tids.iter().copied());
                assert_eq!(
                    t.to_sparse().fingerprint(),
                    t.to_dense().fingerprint(),
                    "universe {universe} stride {stride}"
                );
                assert_eq!(t.to_sparse().fingerprint(), bm.fingerprint());
            }
            let empty = Tidset::new(universe);
            assert_eq!(
                empty.to_sparse().fingerprint(),
                Bitmap::new(universe).fingerprint()
            );
        }
    }

    #[test]
    fn equality_is_representation_independent() {
        let t = ts(300, &[0, 63, 64, 65, 199, 299]);
        assert_eq!(t.to_sparse(), t.to_dense());
        assert_eq!(t.to_dense(), t.to_sparse());
        assert_ne!(t.to_sparse(), ts(300, &[0, 63]).to_dense());
        assert_ne!(t.to_dense(), ts(300, &[0, 63]).to_dense());
        assert_ne!(ts(300, &[1]), ts(301, &[1]), "universe is part of identity");
    }

    #[test]
    fn full_and_empty() {
        let _guard = ModeGuard::adaptive();
        for universe in [0, 1, 70, 640] {
            let full = Tidset::full(universe);
            assert_eq!(full.len(), universe);
            assert_eq!(full.to_vec(), (0..universe).collect::<Vec<_>>());
            let empty = Tidset::new(universe);
            assert!(empty.is_empty());
            assert!(empty.is_subset(&full));
            assert!(empty.is_disjoint(&full));
        }
    }

    #[test]
    fn in_place_ops_match_allocating() {
        let a = ts(200, &[0, 5, 6, 7, 8, 64, 65, 128, 199]);
        let b = ts(200, &[5, 6, 64, 100, 101, 102, 199]);
        for (ta, tb) in [
            (a.to_sparse(), b.to_dense()),
            (a.to_dense(), b.to_sparse()),
            (a.to_sparse(), b.to_sparse()),
            (a.to_dense(), b.to_dense()),
        ] {
            let mut x = ta.clone();
            x.intersect_with(&tb);
            assert_eq!(x, ta.and(&tb));
            let mut y = ta.clone();
            y.subtract(&tb);
            assert_eq!(y, ta.difference(&tb));
            let mut z = ta.clone();
            z.union_with(&tb);
            assert_eq!(z.len(), ta.union_len(&tb));
            let mut out = Tidset::new(200);
            ta.and_into(&tb, &mut out);
            assert_eq!(out, ta.and(&tb));
        }
    }

    #[test]
    fn heap_bytes_reflect_representation() {
        let t = ts(6400, &[1, 2, 3]);
        assert_eq!(t.to_sparse().heap_bytes(), 12);
        assert_eq!(t.to_dense().heap_bytes(), dense_bytes(6400));
        assert_eq!(dense_bytes(6400), 100 * 8);
    }
}
