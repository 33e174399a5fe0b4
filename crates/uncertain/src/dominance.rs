use serde::{Deserialize, Serialize};

use crate::{SubspaceMask, UncertainTuple};

/// Outcome of comparing two points under Pareto dominance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DomRelation {
    /// The first point dominates the second (`a ≺ b`).
    Dominates,
    /// The first point is dominated by the second (`b ≺ a`).
    DominatedBy,
    /// The points coincide on every compared dimension.
    Equal,
    /// Neither point dominates the other.
    Incomparable,
}

/// Tests whether `a` dominates `b` over the full space (`a ≺ b`).
///
/// Dominance follows the paper's Section 3.1: `a`'s values must be no larger
/// than `b`'s on every dimension and strictly smaller on at least one
/// (smaller is better).
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths; in release
/// builds the shorter length is compared.
///
/// # Example
///
/// ```
/// use dsud_uncertain::dominates;
///
/// assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
/// assert!(!dominates(&[1.0, 3.0], &[3.0, 1.0])); // incomparable
/// assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal is not dominated
/// ```
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "dominance requires equal dimensionality");
    let mut strictly_less = false;
    for (&x, &y) in a.iter().zip(b.iter()) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_less = true;
        }
    }
    strictly_less
}

/// Tests whether `a` dominates `b` on the dimensions selected by `mask`
/// (subspace skyline semantics of the paper's Section 4).
///
/// Dimensions outside both slices' range are ignored, so a mask validated
/// with [`SubspaceMask::validate_for`] is always safe to pass.
///
/// # Example
///
/// ```
/// use dsud_uncertain::{dominates_in, SubspaceMask};
///
/// # fn main() -> Result<(), dsud_uncertain::Error> {
/// let price_only = SubspaceMask::from_dims(&[0])?;
/// // (100, 5) does not dominate (200, 1) in full space, but does on price.
/// assert!(dominates_in(&[100.0, 5.0], &[200.0, 1.0], price_only));
/// # Ok(())
/// # }
/// ```
pub fn dominates_in(a: &[f64], b: &[f64], mask: SubspaceMask) -> bool {
    let mut strictly_less = false;
    for d in mask.dims() {
        if d >= a.len() || d >= b.len() {
            break;
        }
        if a[d] > b[d] {
            return false;
        }
        if a[d] < b[d] {
            strictly_less = true;
        }
    }
    strictly_less
}

/// Full dominance comparison of `a` and `b` on the selected subspace.
///
/// # Example
///
/// ```
/// use dsud_uncertain::{relation, DomRelation, SubspaceMask};
///
/// # fn main() -> Result<(), dsud_uncertain::Error> {
/// let full = SubspaceMask::full(2)?;
/// assert_eq!(relation(&[1.0, 1.0], &[2.0, 2.0], full), DomRelation::Dominates);
/// assert_eq!(relation(&[2.0, 2.0], &[1.0, 1.0], full), DomRelation::DominatedBy);
/// assert_eq!(relation(&[1.0, 2.0], &[2.0, 1.0], full), DomRelation::Incomparable);
/// assert_eq!(relation(&[1.0, 2.0], &[1.0, 2.0], full), DomRelation::Equal);
/// # Ok(())
/// # }
/// ```
pub fn relation(a: &[f64], b: &[f64], mask: SubspaceMask) -> DomRelation {
    let mut a_less = false;
    let mut b_less = false;
    for d in mask.dims() {
        if d >= a.len() || d >= b.len() {
            break;
        }
        if a[d] < b[d] {
            a_less = true;
        } else if a[d] > b[d] {
            b_less = true;
        }
        if a_less && b_less {
            return DomRelation::Incomparable;
        }
    }
    match (a_less, b_less) {
        (true, false) => DomRelation::Dominates,
        (false, true) => DomRelation::DominatedBy,
        (false, false) => DomRelation::Equal,
        (true, true) => DomRelation::Incomparable,
    }
}

/// Rows per bitset word; dominance tests are evaluated in blocks of this
/// many tuples at a time.
const LANE: usize = 64;

/// Sub-word width of the chunked comparison kernel: a full 64-row word is
/// evaluated as four independent 16-lane accumulators so the compiler can
/// keep four vector lanes in flight (`u64x4`-style) without a nightly
/// `std::simd` dependency.
const CHUNK: usize = 16;

/// `(leq, lt)` comparison bitsets of a column word (full or tail) against
/// `p`, evaluated serially: the kernel for tail words, and the ground
/// truth the chunked kernel is tested against.
fn cmp_word_scalar(col: &[f64], p: f64, reversed: bool) -> (u64, u64) {
    let mut leq: u64 = 0;
    let mut lt: u64 = 0;
    for (j, &v) in col.iter().enumerate() {
        let (lo, hi) = if reversed { (p, v) } else { (v, p) };
        leq |= u64::from(lo <= hi) << j;
        lt |= u64::from(lo < hi) << j;
    }
    (leq, lt)
}

/// `(leq, lt)` comparison bitsets of one full 64-row column word against
/// `p`, evaluated as four independent 16-lane chunks. Each chunk owns its
/// accumulator pair, so the four fixed-trip inner loops have no
/// loop-carried dependency between them and autovectorize to packed
/// compares; the chunk masks are OR-merged at their lane offsets. The
/// result is bit-identical to [`cmp_word_scalar`] (each bit is an
/// independent boolean; only evaluation order changes).
fn cmp_word_chunked(col: &[f64], p: f64, reversed: bool) -> (u64, u64) {
    debug_assert_eq!(col.len(), LANE);
    let mut leq: u64 = 0;
    let mut lt: u64 = 0;
    for (c, chunk) in col.chunks_exact(CHUNK).enumerate() {
        let mut leq_c: u64 = 0;
        let mut lt_c: u64 = 0;
        for (j, &v) in chunk.iter().enumerate() {
            let (lo, hi) = if reversed { (p, v) } else { (v, p) };
            leq_c |= u64::from(lo <= hi) << j;
            lt_c |= u64::from(lo < hi) << j;
        }
        leq |= leq_c << (c * CHUNK);
        lt |= lt_c << (c * CHUNK);
    }
    (leq, lt)
}

/// Direct, per-word entry points to both comparison kernels, exposed for
/// the `experiments -- wire` microbenchmark, which times them side by
/// side; production code always goes through [`Batch`], never through
/// this module.
#[doc(hidden)]
pub mod kernel {
    /// Rows per bitset word; benchmark columns must be sliced to this.
    pub const LANE: usize = super::LANE;

    /// The serial 64-lane kernel: `(leq, lt)` bitsets of `col` vs `p`.
    pub fn scalar(col: &[f64], p: f64, reversed: bool) -> (u64, u64) {
        super::cmp_word_scalar(col, p, reversed)
    }

    /// The chunked four-accumulator kernel; bit-identical to [`scalar`].
    pub fn chunked(col: &[f64], p: f64, reversed: bool) -> (u64, u64) {
        super::cmp_word_chunked(col, p, reversed)
    }
}

/// A columnar (structure-of-arrays) batch of uncertain tuples for bulk
/// dominance evaluation.
///
/// Row-major tuple storage makes every dominance test chase one `Vec` per
/// tuple; for the hot window queries — "which stored tuples dominate this
/// point, and what is their survival product ∏ (1 − P(t'))?" — the batch
/// instead keeps one contiguous `Vec<f64>` per dimension plus probability
/// and complement columns. Queries then stream each column once, computing
/// `≤` / `<` masks for 64 rows per bitset word (`LANE` = 64).
///
/// # Determinism contract
///
/// Every query is bit-for-bit identical to the scalar loop over the same
/// tuples in the same order: dominance is a boolean (evaluation order
/// cannot change it), and [`Batch::survival_product`] multiplies
/// complements in ascending row order — exactly the order
/// `tuples.iter().filter(dominates).map(complement).product()` uses. Tests
/// and proptests compare with `==` on the raw `f64`s, not a tolerance.
///
/// # Example
///
/// ```
/// use dsud_uncertain::{Batch, Probability, SubspaceMask, TupleId, UncertainTuple};
///
/// # fn main() -> Result<(), dsud_uncertain::Error> {
/// let tuples = vec![
///     UncertainTuple::new(TupleId::new(0, 0), vec![1.0, 1.0], Probability::new(0.5)?)?,
///     UncertainTuple::new(TupleId::new(0, 1), vec![9.0, 9.0], Probability::new(0.5)?)?,
/// ];
/// let batch = Batch::from_tuples(2, &tuples);
/// let mask = SubspaceMask::full(2)?;
/// // Only (1,1) dominates the probe, so its complement is the product.
/// assert_eq!(batch.survival_product(&[5.0, 5.0], mask), 0.5);
/// assert!(batch.dominated_by_any(&[5.0, 5.0], mask));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Batch {
    len: usize,
    /// One column per dimension, each of length `len`.
    cols: Vec<Vec<f64>>,
    /// Existential probability `P(t)` per row.
    probs: Vec<f64>,
    /// `1 − P(t)` per row, precomputed for survival products.
    complements: Vec<f64>,
}

impl Batch {
    /// An empty batch over a `dims`-dimensional space.
    pub fn new(dims: usize) -> Self {
        Batch { len: 0, cols: vec![Vec::new(); dims], probs: Vec::new(), complements: Vec::new() }
    }

    /// Builds a batch from tuples, preserving their order (row `i` is the
    /// `i`-th tuple yielded).
    pub fn from_tuples<'a, I>(dims: usize, tuples: I) -> Self
    where
        I: IntoIterator<Item = &'a UncertainTuple>,
    {
        let mut batch = Batch::new(dims);
        for t in tuples {
            batch.push(t);
        }
        batch
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the columnar layout.
    pub fn dims(&self) -> usize {
        self.cols.len()
    }

    /// Existential probability of row `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Appends a tuple as the last row.
    ///
    /// An empty batch adopts the tuple's dimensionality if it differs from
    /// its own (so containers can start from `Batch::default()`).
    pub fn push(&mut self, t: &UncertainTuple) {
        if self.len == 0 && self.cols.len() != t.dims() {
            self.cols = vec![Vec::new(); t.dims()];
        }
        debug_assert_eq!(self.cols.len(), t.dims(), "batch rows share one dimensionality");
        for (col, &v) in self.cols.iter_mut().zip(t.values()) {
            col.push(v);
        }
        self.probs.push(t.prob().get());
        self.complements.push(t.prob().complement());
        self.len += 1;
    }

    /// Removes row `i` by swapping the last row into its place, mirroring
    /// `Vec::swap_remove` so a sibling `Vec<UncertainTuple>` kept in sync
    /// with the same operations stays row-aligned.
    pub fn swap_remove(&mut self, i: usize) {
        for col in &mut self.cols {
            col.swap_remove(i);
        }
        self.probs.swap_remove(i);
        self.complements.swap_remove(i);
        self.len -= 1;
    }

    /// The survival product `∏ (1 − P(t))` over rows that strictly
    /// dominate `point` on the masked dimensions, multiplied in ascending
    /// row order (bit-identical to the scalar filter-map-product).
    pub fn survival_product(&self, point: &[f64], mask: SubspaceMask) -> f64 {
        let mut product = 1.0;
        for w in 0..self.len.div_ceil(LANE) {
            let mut bits = self.dominator_bits(w, point, mask);
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                product *= self.complements[w * LANE + j];
                bits &= bits - 1;
            }
        }
        product
    }

    /// Appends to `out` the indices of rows that strictly dominate `point`
    /// on the masked dimensions, in ascending order.
    pub fn dominators_of(&self, point: &[f64], mask: SubspaceMask, out: &mut Vec<usize>) {
        for w in 0..self.len.div_ceil(LANE) {
            let mut bits = self.dominator_bits(w, point, mask);
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                out.push(w * LANE + j);
                bits &= bits - 1;
            }
        }
    }

    /// Whether any row strictly dominates `point` on the masked dimensions.
    pub fn dominated_by_any(&self, point: &[f64], mask: SubspaceMask) -> bool {
        (0..self.len.div_ceil(LANE)).any(|w| self.dominator_bits(w, point, mask) != 0)
    }

    /// Appends to `out` the indices of rows that `point` strictly
    /// dominates on the masked dimensions (the reverse direction of
    /// [`Batch::dominators_of`]), in ascending order.
    pub fn dominated_by(&self, point: &[f64], mask: SubspaceMask, out: &mut Vec<usize>) {
        for w in 0..self.len.div_ceil(LANE) {
            let mut bits = self.dominated_bits(w, point, mask);
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                out.push(w * LANE + j);
                bits &= bits - 1;
            }
        }
    }

    /// Bitset of rows `r` in word `w` with `row(r) ≺ point`.
    fn dominator_bits(&self, w: usize, point: &[f64], mask: SubspaceMask) -> u64 {
        self.word_bits(w, point, mask, false)
    }

    /// Bitset of rows `r` in word `w` with `point ≺ row(r)`.
    fn dominated_bits(&self, w: usize, point: &[f64], mask: SubspaceMask) -> u64 {
        self.word_bits(w, point, mask, true)
    }

    /// Evaluates strict Pareto dominance for up to `LANE` rows at once:
    /// `leq` accumulates "no worse on every masked dimension", `lt` "
    /// strictly better somewhere". `reversed` swaps the comparison
    /// direction (point vs. row instead of row vs. point).
    fn word_bits(&self, w: usize, point: &[f64], mask: SubspaceMask, reversed: bool) -> u64 {
        let base = w * LANE;
        let n = (self.len - base).min(LANE);
        let mut leq: u64 = if n == LANE { !0 } else { (1u64 << n) - 1 };
        let mut lt: u64 = 0;
        for d in mask.dims() {
            if d >= self.cols.len() || d >= point.len() {
                break;
            }
            let p = point[d];
            let col = &self.cols[d][base..base + n];
            // Full words take the chunked kernel, tail words the serial
            // loop. Both produce identical bitsets, so the split is
            // invisible.
            let (leq_d, lt_d) = if n == LANE {
                cmp_word_chunked(col, p, reversed)
            } else {
                cmp_word_scalar(col, p, reversed)
            };
            leq &= leq_d;
            lt |= lt_d;
            if leq == 0 {
                return 0;
            }
        }
        leq & lt
    }
}

/// An indexed set of probe points for bulk dominance queries.
///
/// The multi-probe PR-tree traversal (`PrTree::survival_products`) asks
/// only for "probe `k` as a `&[f64]` row", so any row-addressable storage
/// qualifies: a slice of row references (the legacy shape) or a flat
/// row-major buffer gathered straight from a columnar wire frame
/// ([`ProbeRows`]) without per-probe allocation.
pub trait ProbeSet {
    /// Number of probe points.
    fn len(&self) -> usize;

    /// Whether the set holds no probes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probe `k` as a coordinate row.
    fn probe(&self, k: usize) -> &[f64];
}

impl ProbeSet for [&[f64]] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    fn probe(&self, k: usize) -> &[f64] {
        self[k]
    }
}

impl ProbeSet for Vec<&[f64]> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn probe(&self, k: usize) -> &[f64] {
        self[k]
    }
}

/// A reusable flat row-major probe buffer.
///
/// Holds `len × dims` coordinates in one `Vec<f64>` so a columnar wire
/// frame can be transposed into probe rows with zero per-probe allocation:
/// the buffer is cleared (capacity kept) and refilled each batch, and
/// steady-state reuse never grows it once it has seen its largest batch.
#[derive(Debug, Clone, Default)]
pub struct ProbeRows {
    dims: usize,
    rows: Vec<f64>,
}

impl ProbeRows {
    /// Clears the buffer (keeping its allocation) and fixes the row width
    /// for the rows pushed next.
    pub fn reset(&mut self, dims: usize) {
        self.rows.clear();
        self.dims = dims;
    }

    /// Appends one probe row; the closure writes coordinate `d` of the row.
    pub fn push_row_with(&mut self, mut coord: impl FnMut(usize) -> f64) {
        for d in 0..self.dims {
            self.rows.push(coord(d));
        }
    }

    /// Reserved capacity in `f64` elements (steady-state probe for
    /// allocation tests).
    pub fn footprint(&self) -> usize {
        self.rows.capacity()
    }
}

impl ProbeSet for ProbeRows {
    fn len(&self) -> usize {
        self.rows.len().checked_div(self.dims).unwrap_or(0)
    }

    fn probe(&self, k: usize) -> &[f64] {
        &self.rows[k * self.dims..(k + 1) * self.dims]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_dominance_requires_one_strict_dim() {
        assert!(dominates(&[1.0, 1.0], &[1.0, 2.0]));
        assert!(dominates(&[0.5, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
    }

    #[test]
    fn dominance_is_antisymmetric() {
        let a = [1.0, 5.0];
        let b = [2.0, 6.0];
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }

    #[test]
    fn paper_fig1_hotels() {
        // P1(2,8), P2(4,6), P3(4,4): P3 dominates P2? values (4,4) vs (4,6):
        // yes. P1 vs P3 incomparable.
        assert!(dominates(&[4.0, 4.0], &[4.0, 6.0]));
        assert!(!dominates(&[2.0, 8.0], &[4.0, 4.0]));
        assert!(!dominates(&[4.0, 4.0], &[2.0, 8.0]));
    }

    #[test]
    fn subspace_changes_outcome() {
        let full = SubspaceMask::full(2).unwrap();
        let d0 = SubspaceMask::from_dims(&[0]).unwrap();
        let d1 = SubspaceMask::from_dims(&[1]).unwrap();
        let a = [1.0, 9.0];
        let b = [2.0, 3.0];
        assert_eq!(relation(&a, &b, full), DomRelation::Incomparable);
        assert_eq!(relation(&a, &b, d0), DomRelation::Dominates);
        assert_eq!(relation(&a, &b, d1), DomRelation::DominatedBy);
    }

    #[test]
    fn relation_matches_dominates() {
        let full = SubspaceMask::full(3).unwrap();
        let pts =
            [vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 2.0], vec![3.0, 1.0, 1.0], vec![1.0, 2.0, 3.0]];
        for a in &pts {
            for b in &pts {
                let rel = relation(a, b, full);
                assert_eq!(rel == DomRelation::Dominates, dominates(a, b));
                assert_eq!(rel == DomRelation::DominatedBy, dominates(b, a));
            }
        }
    }

    /// Deterministic pseudo-random tuples spanning several bitset words.
    fn lcg_tuples(n: usize, dims: usize, seed: u64) -> Vec<UncertainTuple> {
        use crate::{Probability, TupleId};
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|i| {
                // Coarse grid so dominance (and exact ties) actually occur.
                let values = (0..dims).map(|_| (next() * 16.0).floor()).collect();
                let p = Probability::new((next() * 0.99 + 0.005).clamp(0.005, 1.0)).unwrap();
                UncertainTuple::new(TupleId::new(0, i as u64), values, p).unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_matches_scalar_loop_bit_for_bit() {
        for (dims, n) in [(2, 63), (3, 64), (4, 257), (2, 1000)] {
            let tuples = lcg_tuples(n, dims, 7 + n as u64);
            let batch = Batch::from_tuples(dims, &tuples);
            assert_eq!(batch.len(), n);
            for mask in [SubspaceMask::full(dims).unwrap(), SubspaceMask::from_dims(&[0]).unwrap()]
            {
                for probe in lcg_tuples(20, dims, 99) {
                    let p = probe.values();
                    let scalar: f64 = tuples
                        .iter()
                        .filter(|t| dominates_in(t.values(), p, mask))
                        .map(|t| t.prob().complement())
                        .product();
                    assert_eq!(batch.survival_product(p, mask), scalar, "n={n} dims={dims}");

                    let expected_doms: Vec<usize> =
                        (0..n).filter(|&i| dominates_in(tuples[i].values(), p, mask)).collect();
                    let mut got = Vec::new();
                    batch.dominators_of(p, mask, &mut got);
                    assert_eq!(got, expected_doms);
                    assert_eq!(batch.dominated_by_any(p, mask), !expected_doms.is_empty());

                    let expected_dominated: Vec<usize> =
                        (0..n).filter(|&i| dominates_in(p, tuples[i].values(), mask)).collect();
                    let mut got = Vec::new();
                    batch.dominated_by(p, mask, &mut got);
                    assert_eq!(got, expected_dominated);
                }
            }
        }
    }

    #[test]
    fn chunked_word_kernel_matches_serial_kernel() {
        // The chunked kernel only changes evaluation order of independent
        // boolean lanes; every (leq, lt) pair must equal the serial loop's,
        // including exact ties and both comparison directions.
        let mut col = [0.0f64; LANE];
        let mut state = 0x9e3779b97f4a7c15u64;
        for v in &mut col {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = ((state >> 11) % 32) as f64;
        }
        for p in [0.0, 7.0, 15.5, 31.0, 100.0] {
            for reversed in [false, true] {
                assert_eq!(
                    cmp_word_chunked(&col, p, reversed),
                    cmp_word_scalar(&col, p, reversed),
                    "p={p} reversed={reversed}"
                );
            }
        }
    }

    #[test]
    fn probe_rows_match_slice_probes() {
        let mut rows = ProbeRows::default();
        rows.reset(3);
        rows.push_row_with(|d| d as f64);
        rows.push_row_with(|d| 10.0 + d as f64);
        assert_eq!(ProbeSet::len(&rows), 2);
        assert_eq!(rows.probe(0), &[0.0, 1.0, 2.0]);
        assert_eq!(rows.probe(1), &[10.0, 11.0, 12.0]);
        let warm = rows.footprint();
        rows.reset(3);
        rows.push_row_with(|d| d as f64);
        assert_eq!(rows.footprint(), warm, "reset must keep the allocation");
        let slices: Vec<&[f64]> = vec![&[1.0, 2.0]];
        assert_eq!(ProbeSet::len(&slices), 1);
        assert_eq!(slices.probe(0), &[1.0, 2.0]);
    }

    #[test]
    fn batch_push_and_swap_remove_mirror_vec_semantics() {
        let tuples = lcg_tuples(130, 3, 3);
        let mut batch = Batch::default();
        let mut shadow: Vec<UncertainTuple> = Vec::new();
        for t in &tuples {
            batch.push(t);
            shadow.push(t.clone());
        }
        let mask = SubspaceMask::full(3).unwrap();
        for i in [0usize, 64, 17, 100, 0, 5] {
            batch.swap_remove(i);
            shadow.swap_remove(i);
            assert_eq!(batch.len(), shadow.len());
            let probe = [8.0, 8.0, 8.0];
            let scalar: f64 = shadow
                .iter()
                .filter(|t| dominates_in(t.values(), &probe, mask))
                .map(|t| t.prob().complement())
                .product();
            assert_eq!(batch.survival_product(&probe, mask), scalar);
        }
        for (i, t) in shadow.iter().enumerate() {
            assert_eq!(batch.prob(i), t.prob().get());
        }
    }

    #[test]
    fn empty_batch_answers_identity() {
        let batch = Batch::new(2);
        let mask = SubspaceMask::full(2).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.dims(), 2);
        assert_eq!(batch.survival_product(&[1.0, 1.0], mask), 1.0);
        assert!(!batch.dominated_by_any(&[1.0, 1.0], mask));
        let mut out = Vec::new();
        batch.dominators_of(&[1.0, 1.0], mask, &mut out);
        assert!(out.is_empty());
    }
}
