//! Branch-and-Bound Skyline over the PR-tree (paper Section 6.2).
//!
//! The local skyline of an uncertain database, for threshold `q`, is the
//! set of tuples whose *local* skyline probability `P_sky(t, D_i)` is at
//! least `q` — a superset check that every global skyline answer must pass
//! (Corollary 1). The traversal expands entries in ascending `mindist`
//! order from the space origin and prunes any subtree whose best possible
//! skyline probability,
//!
//! ```text
//! bound(e) = P2(e) × ∏_{t' ≺ lower(e)} (1 − P(t'))
//! ```
//!
//! falls below `q`: every tuple `t` under `e` has `P(t) <= P2(e)` and is
//! dominated by at least the dominators of `e`'s lower corner, so `bound`
//! is a true upper bound. This generalizes the paper's single-dominator
//! pruning rule ("an object `a` dominates entry `b` and
//! `P2(b) × (1 − P(a)) < q`") to the full dominator window, pruning at
//! least as much.
//!
//! With uncertain data few subtrees prune, so the cost is the window
//! products themselves. Both procedures skip the product of a tuple with
//! `P(t) < q` and of an entry with `P2(e) < q`, and stop every other one
//! as soon as its partial product dooms it
//! (`PrTree::survival_product_above`). The answer, its probability bits
//! and the traversal counters are those of the ungated traversal.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dsud_obs::Counter;
use dsud_uncertain::{SkylineEntry, SubspaceMask};

use crate::node::NodeBody;
use crate::{Error, PrTree};

/// `f64` ordered by value; all keys are finite coordinate sums.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MinDist(f64);

impl Eq for MinDist {}

impl PartialOrd for MinDist {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MinDist {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("mindist keys are finite")
    }
}

/// Reusable traversal buffers for the BBS procedures.
///
/// A site answering many queries (or re-evaluating after updates) can hold
/// one scratch and pass it to [`local_skyline_with`] /
/// [`local_skyline_in_region_with`] to amortize the heap, stack, and
/// dominated-row allocations across calls. The buffers are cleared on
/// entry, so reuse never changes results.
#[derive(Debug, Default)]
pub struct BbsScratch {
    heap: BinaryHeap<Reverse<(MinDist, usize)>>,
    stack: Vec<usize>,
    rows: Vec<usize>,
    multi: crate::tree::MultiProbeScratch,
}

impl BbsScratch {
    /// The multi-probe traversal buffers for
    /// [`PrTree::survival_products`](crate::PrTree::survival_products),
    /// so one site-held scratch serves both the BBS procedures and batched
    /// feedback rounds.
    pub fn multi_probe(&mut self) -> &mut crate::tree::MultiProbeScratch {
        &mut self.multi
    }

    /// Read-only footprint of the multi-probe buffers (see
    /// [`MultiProbeScratch::footprint`](crate::tree::MultiProbeScratch::footprint)),
    /// so callers holding a site-level scratch can assert that batched
    /// feedback reached its allocation-free steady state.
    pub fn multi_probe_footprint(&self) -> usize {
        self.multi.footprint()
    }
}

/// Computes the qualified local skyline `SKY(D_i)`: every tuple whose local
/// skyline probability is at least `q`, sorted in descending probability
/// (ties broken by tuple id).
///
/// # Errors
///
/// Returns [`Error::InvalidThreshold`] if `q` is outside `(0, 1]`, or
/// [`Error::Subspace`] if `mask` selects dimensions outside the tree's
/// space.
///
/// # Example
///
/// ```
/// use dsud_prtree::{bbs, PrTree};
/// use dsud_uncertain::{Probability, SubspaceMask, TupleId, UncertainTuple};
///
/// # fn main() -> Result<(), dsud_prtree::Error> {
/// let tree = PrTree::bulk_load(2, vec![
///     UncertainTuple::new(TupleId::new(0, 0), vec![1.0, 1.0], Probability::new(0.9).unwrap()).unwrap(),
///     UncertainTuple::new(TupleId::new(0, 1), vec![2.0, 2.0], Probability::new(0.9).unwrap()).unwrap(),
/// ])?;
/// let sky = bbs::local_skyline(&tree, 0.3, SubspaceMask::full(2).unwrap())?;
/// // (2,2) survives with probability 0.9 × 0.1 = 0.09 < 0.3.
/// assert_eq!(sky.len(), 1);
/// assert_eq!(sky[0].tuple.values(), &[1.0, 1.0]);
/// # Ok(())
/// # }
/// ```
pub fn local_skyline(
    tree: &PrTree,
    q: f64,
    mask: SubspaceMask,
) -> Result<Vec<SkylineEntry>, Error> {
    local_skyline_with(tree, q, mask, &mut BbsScratch::default())
}

/// [`local_skyline`] with caller-provided [`BbsScratch`] buffers, for hot
/// paths that issue many traversals against the same tree.
///
/// # Errors
///
/// Same conditions as [`local_skyline`].
pub fn local_skyline_with(
    tree: &PrTree,
    q: f64,
    mask: SubspaceMask,
    scratch: &mut BbsScratch,
) -> Result<Vec<SkylineEntry>, Error> {
    if !(q > 0.0 && q <= 1.0) {
        return Err(Error::InvalidThreshold(q));
    }
    mask.validate_for(tree.dims())?;

    let mut out = Vec::new();
    let Some(root) = tree.root_index() else {
        return Ok(out);
    };

    let heap = &mut scratch.heap;
    heap.clear();
    let root_mindist = tree.summary().map(|s| s.mbr.mindist(mask)).unwrap_or(0.0);
    heap.push(Reverse((MinDist(root_mindist), root)));

    let mut visited = 0u64;
    let mut pruned = 0u64;
    while let Some(Reverse((_, idx))) = heap.pop() {
        visited += 1;
        match &tree.node(idx).body {
            NodeBody::Leaf(leaf) => {
                for t in leaf.tuples() {
                    if let Some(p) =
                        tree.survival_product_above(t.values(), mask, t.prob().get(), q)
                    {
                        out.push(SkylineEntry { tuple: t.clone(), probability: p });
                    }
                }
            }
            NodeBody::Internal(children) => {
                for (child, s) in children {
                    if tree.survival_product_above(s.mbr.lower(), mask, s.p_max, q).is_some() {
                        heap.push(Reverse((MinDist(s.mbr.mindist(mask)), *child)));
                    } else {
                        pruned += 1;
                    }
                }
            }
        }
    }

    let rec = tree.recorder();
    if rec.is_enabled() {
        rec.add(Counter::PrTreeNodesVisited, visited);
        rec.add(Counter::PrTreePrunedSubtrees, pruned);
        rec.add(Counter::LocalSkylineSize, out.len() as u64);
    }

    out.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .expect("probabilities are finite")
            .then_with(|| a.tuple.id().cmp(&b.tuple.id()))
    });
    Ok(out)
}

/// Region-constrained variant of [`local_skyline`]: only tuples strictly
/// dominated by `origin` (on the masked dimensions) are considered, but
/// their probabilities are still computed against the *whole* database.
///
/// This answers the re-evaluation query of the update-maintenance protocol
/// (paper Section 5.4): after a tuple `t` is deleted, only tuples inside
/// `t`'s dominance region can gain skyline probability, so only they need
/// re-examination.
///
/// # Errors
///
/// Same conditions as [`local_skyline`].
pub fn local_skyline_in_region(
    tree: &PrTree,
    q: f64,
    mask: SubspaceMask,
    origin: &[f64],
) -> Result<Vec<SkylineEntry>, Error> {
    local_skyline_in_region_with(tree, q, mask, origin, &mut BbsScratch::default())
}

/// [`local_skyline_in_region`] with caller-provided [`BbsScratch`] buffers.
///
/// # Errors
///
/// Same conditions as [`local_skyline`].
pub fn local_skyline_in_region_with(
    tree: &PrTree,
    q: f64,
    mask: SubspaceMask,
    origin: &[f64],
    scratch: &mut BbsScratch,
) -> Result<Vec<SkylineEntry>, Error> {
    if !(q > 0.0 && q <= 1.0) {
        return Err(Error::InvalidThreshold(q));
    }
    mask.validate_for(tree.dims())?;

    let mut out = Vec::new();
    let Some(root) = tree.root_index() else {
        return Ok(out);
    };
    let BbsScratch { stack, rows, .. } = scratch;
    stack.clear();
    stack.push(root);
    let mut visited = 0u64;
    let mut pruned = 0u64;
    while let Some(idx) = stack.pop() {
        visited += 1;
        match &tree.node(idx).body {
            NodeBody::Leaf(leaf) => {
                // Batch kernel: one columnar pass finds the rows strictly
                // dominated by `origin`, in ascending row order (the same
                // order as the scalar loop it replaced).
                rows.clear();
                leaf.batch().dominated_by(origin, mask, rows);
                for &row in rows.iter() {
                    let t = &leaf.tuples()[row];
                    if let Some(p) =
                        tree.survival_product_above(t.values(), mask, t.prob().get(), q)
                    {
                        out.push(SkylineEntry { tuple: t.clone(), probability: p });
                    }
                }
            }
            NodeBody::Internal(children) => {
                for (child, s) in children {
                    if !s.mbr.may_contain_dominated(origin, mask) {
                        continue;
                    }
                    if tree.survival_product_above(s.mbr.lower(), mask, s.p_max, q).is_some() {
                        stack.push(*child);
                    } else {
                        pruned += 1;
                    }
                }
            }
        }
    }
    let rec = tree.recorder();
    if rec.is_enabled() {
        rec.add(Counter::PrTreeNodesVisited, visited);
        rec.add(Counter::PrTreePrunedSubtrees, pruned);
    }
    out.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .expect("probabilities are finite")
            .then_with(|| a.tuple.id().cmp(&b.tuple.id()))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsud_uncertain::{
        dominates_in, probabilistic_skyline, Probability, TupleId, UncertainDb, UncertainTuple,
    };

    fn tuple(seq: u64, values: Vec<f64>, p: f64) -> UncertainTuple {
        UncertainTuple::new(TupleId::new(0, seq), values, Probability::new(p).unwrap()).unwrap()
    }

    fn full(d: usize) -> SubspaceMask {
        SubspaceMask::full(d).unwrap()
    }

    fn random_tuples(n: usize, dims: usize, seed: u64) -> Vec<UncertainTuple> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|i| {
                let values = (0..dims).map(|_| (next() * 1000.0).round() / 10.0).collect();
                let p = (next() * 0.99 + 0.005).clamp(0.005, 1.0);
                tuple(i as u64, values, p)
            })
            .collect()
    }

    fn assert_matches_naive(tuples: Vec<UncertainTuple>, dims: usize, q: f64, mask: SubspaceMask) {
        let db = UncertainDb::from_tuples(dims, tuples.clone()).unwrap();
        let expected = probabilistic_skyline(&db, q, mask).unwrap();
        let tree = PrTree::bulk_load(dims, tuples).unwrap();
        let got = local_skyline(&tree, q, mask).unwrap();
        assert_eq!(
            got.iter().map(|e| e.tuple.id()).collect::<Vec<_>>(),
            expected.iter().map(|e| e.tuple.id()).collect::<Vec<_>>(),
            "qualified set mismatch at q={q}"
        );
        for (g, e) in got.iter().zip(&expected) {
            assert!((g.probability - e.probability).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_naive_across_thresholds() {
        for q in [0.05, 0.3, 0.5, 0.7, 0.9, 1.0] {
            assert_matches_naive(random_tuples(400, 2, 42), 2, q, full(2));
        }
    }

    #[test]
    fn matches_naive_across_dimensionalities() {
        for dims in [2, 3, 4, 5] {
            assert_matches_naive(random_tuples(300, dims, 7), dims, 0.3, full(dims));
        }
    }

    #[test]
    fn matches_naive_on_subspaces() {
        let tuples = random_tuples(300, 4, 13);
        for mask in [
            SubspaceMask::from_dims(&[0]).unwrap(),
            SubspaceMask::from_dims(&[1, 2]).unwrap(),
            SubspaceMask::from_dims(&[0, 3]).unwrap(),
        ] {
            assert_matches_naive(tuples.clone(), 4, 0.3, mask);
        }
    }

    #[test]
    fn empty_tree_yields_empty_skyline() {
        let tree = PrTree::new(2).unwrap();
        assert!(local_skyline(&tree, 0.3, full(2)).unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_threshold() {
        let tree = PrTree::new(2).unwrap();
        assert!(matches!(local_skyline(&tree, 0.0, full(2)), Err(Error::InvalidThreshold(_))));
        assert!(matches!(local_skyline(&tree, 1.1, full(2)), Err(Error::InvalidThreshold(_))));
        assert!(matches!(local_skyline(&tree, f64::NAN, full(2)), Err(Error::InvalidThreshold(_))));
    }

    #[test]
    fn rejects_bad_subspace() {
        let tree = PrTree::new(2).unwrap();
        let mask = SubspaceMask::from_dims(&[5]).unwrap();
        assert!(matches!(local_skyline(&tree, 0.3, mask), Err(Error::Subspace(_))));
    }

    #[test]
    fn results_sorted_descending() {
        let tuples = random_tuples(500, 3, 17);
        let tree = PrTree::bulk_load(3, tuples).unwrap();
        let sky = local_skyline(&tree, 0.1, full(3)).unwrap();
        assert!(!sky.is_empty());
        for pair in sky.windows(2) {
            assert!(pair[0].probability >= pair[1].probability);
        }
    }

    #[test]
    fn region_query_matches_filtered_naive() {
        let tuples = random_tuples(400, 3, 23);
        let db = UncertainDb::from_tuples(3, tuples.clone()).unwrap();
        let tree = PrTree::bulk_load(3, tuples).unwrap();
        let mask = full(3);
        let q = 0.2;
        for origin in [[200.0, 200.0, 200.0], [500.0, 100.0, 800.0], [950.0, 950.0, 950.0]] {
            let expected: Vec<TupleId> = probabilistic_skyline(&db, q, mask)
                .unwrap()
                .into_iter()
                .filter(|e| dominates_in(&origin, e.tuple.values(), mask))
                .map(|e| e.tuple.id())
                .collect();
            let got: Vec<TupleId> = local_skyline_in_region(&tree, q, mask, &origin)
                .unwrap()
                .into_iter()
                .map(|e| e.tuple.id())
                .collect();
            assert_eq!(got, expected, "origin {origin:?}");
        }
    }

    #[test]
    fn region_query_at_origin_of_space_is_everything() {
        let tuples = random_tuples(100, 2, 29);
        let db = UncertainDb::from_tuples(2, tuples.clone()).unwrap();
        let tree = PrTree::bulk_load(2, tuples).unwrap();
        let mask = full(2);
        // Every tuple has positive coordinates, so all are dominated by (−1,−1).
        let all = local_skyline_in_region(&tree, 0.3, mask, &[-1.0, -1.0]).unwrap();
        let expected = probabilistic_skyline(&db, 0.3, mask).unwrap();
        assert_eq!(all.len(), expected.len());
    }

    #[test]
    fn region_query_rejects_bad_threshold() {
        let tree = PrTree::new(2).unwrap();
        assert!(local_skyline_in_region(&tree, 0.0, full(2), &[1.0, 1.0]).is_err());
    }

    #[test]
    fn traversal_counters_reach_the_recorder() {
        use dsud_obs::Recorder;
        let mut tree = PrTree::bulk_load(2, random_tuples(200, 2, 99)).unwrap();
        let rec = Recorder::enabled();
        tree.set_recorder(rec.clone());
        let sky = local_skyline(&tree, 0.3, full(2)).unwrap();
        assert!(rec.counter(Counter::PrTreeNodesVisited) >= 1);
        assert_eq!(rec.counter(Counter::LocalSkylineSize), sky.len() as u64);
        // The region variant counts traversal work but not skyline size.
        local_skyline_in_region(&tree, 0.3, full(2), &[-1.0, -1.0]).unwrap();
        assert_eq!(rec.counter(Counter::LocalSkylineSize), sky.len() as u64);
    }

    #[test]
    fn scratch_reuse_never_changes_results() {
        let tuples = random_tuples(400, 3, 61);
        let tree = PrTree::bulk_load(3, tuples).unwrap();
        let mask = full(3);
        let mut scratch = BbsScratch::default();
        let fresh = local_skyline(&tree, 0.2, mask).unwrap();
        for _ in 0..3 {
            let reused = local_skyline_with(&tree, 0.2, mask, &mut scratch).unwrap();
            assert_eq!(reused, fresh);
        }
        let origin = [500.0, 500.0, 500.0];
        let fresh_region = local_skyline_in_region(&tree, 0.2, mask, &origin).unwrap();
        for _ in 0..3 {
            let reused =
                local_skyline_in_region_with(&tree, 0.2, mask, &origin, &mut scratch).unwrap();
            assert_eq!(reused, fresh_region);
        }
    }

    #[test]
    fn paper_table2_local_skylines() {
        // Site S1 of the worked example (Section 5.3, Table 2a):
        // (6,6,0.7,0.65), (8,4,0.8,0.6), (3,8,0.8,0.5). Reconstruct a
        // database consistent with those local skyline probabilities:
        // dominators with the right survival products.
        let tuples = vec![
            tuple(0, vec![6.0, 6.0], 0.7),
            tuple(1, vec![8.0, 4.0], 0.8),
            tuple(2, vec![3.0, 8.0], 0.8),
            // Fillers that produce the paper's local skyline probabilities:
            // P_sky(6,6) = 0.7 × (1 - p_a) = 0.65 → p_a ≈ 0.0714 with a ≺ (6,6).
            tuple(3, vec![5.0, 5.0], 1.0 - 0.65 / 0.7),
            // P_sky(8,4) = 0.8 × (1 - p_b) = 0.6 → p_b = 0.25, b ≺ (8,4) only.
            tuple(4, vec![7.0, 3.0], 0.25),
            // P_sky(3,8) = 0.8 × (1 - p_c) = 0.5 → p_c = 0.375, c ≺ (3,8) only.
            tuple(5, vec![2.0, 7.0], 0.375),
        ];
        // The fillers must not disturb each other: (5,5) ⊀ (8,4), (5,5) ⊀ (3,8), etc.
        let tree = PrTree::bulk_load(2, tuples).unwrap();
        let sky = local_skyline(&tree, 0.5, full(2)).unwrap();
        let probs: Vec<(Vec<f64>, f64)> =
            sky.iter().map(|e| (e.tuple.values().to_vec(), e.probability)).collect();
        // Fillers themselves qualify too (their probabilities are ≥ 0.5)?
        // (5,5): P_sky = p = 0.0714 < 0.5 (no dominators) — wait, that IS its
        // probability; it does not qualify. (7,3): 0.25 < 0.5 no. (2,7): 0.375 no.
        assert_eq!(probs.len(), 3);
        assert_eq!(probs[0].0, vec![6.0, 6.0]);
        assert!((probs[0].1 - 0.65).abs() < 1e-12);
        assert_eq!(probs[1].0, vec![8.0, 4.0]);
        assert!((probs[1].1 - 0.6).abs() < 1e-12);
        assert_eq!(probs[2].0, vec![3.0, 8.0]);
        assert!((probs[2].1 - 0.5).abs() < 1e-12);
    }
}
