//! Property-based validation of the PR-tree against linear-scan oracles,
//! across random data sets, node capacities, and mutation sequences.

use proptest::prelude::*;

use dsud_prtree::{bbs, MultiProbeScratch, PrTree};
use dsud_uncertain::{
    probabilistic_skyline, Probability, SubspaceMask, TupleId, UncertainDb, UncertainTuple,
};

fn arb_tuples(dims: usize, max_n: usize) -> impl Strategy<Value = Vec<UncertainTuple>> {
    prop::collection::vec((prop::collection::vec(0.0f64..100.0, dims), 0.01f64..=1.0), 1..=max_n)
        .prop_map(move |rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (values, p))| {
                    UncertainTuple::new(
                        TupleId::new(0, i as u64),
                        values,
                        Probability::new(p).unwrap(),
                    )
                    .unwrap()
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Window survival products equal the linear-scan definition for any
    /// probe point and node capacity.
    #[test]
    fn survival_product_matches_scan(
        tuples in arb_tuples(3, 120),
        probe in prop::collection::vec(0.0f64..100.0, 3),
        cap in 2usize..12,
    ) {
        let db = UncertainDb::from_tuples(3, tuples.clone()).unwrap();
        let tree = PrTree::bulk_load_with(3, tuples, cap).unwrap();
        let mask = SubspaceMask::full(3).unwrap();
        let expected = db.survival_product(&probe);
        let got = tree.survival_product(&probe, mask);
        prop_assert!((expected - got).abs() < 1e-9, "{expected} vs {got}");
    }

    /// The multi-probe traversal is bit-identical to K independent
    /// single-probe calls, on the full space and on random subspaces, for
    /// any node capacity — the invariant that makes batched feedback
    /// rounds safe.
    #[test]
    fn survival_products_equal_independent_calls(
        tuples in arb_tuples(3, 150),
        probe_rows in prop::collection::vec(prop::collection::vec(0.0f64..100.0, 3), 1..24),
        dim_bits in 1u8..8,
        cap in 2usize..12,
    ) {
        let tree = PrTree::bulk_load_with(3, tuples, cap).unwrap();
        let dims: Vec<usize> = (0..3).filter(|d| dim_bits & (1 << d) != 0).collect();
        let mask = SubspaceMask::from_dims(&dims).unwrap();
        let probes: Vec<&[f64]> = probe_rows.iter().map(|p| p.as_slice()).collect();
        let mut scratch = MultiProbeScratch::default();
        let mut out = Vec::new();
        // Reuse the scratch across both masks to exercise buffer reuse.
        for m in [SubspaceMask::full(3).unwrap(), mask] {
            tree.survival_products(&probes, m, &mut scratch, &mut out);
            prop_assert_eq!(out.len(), probes.len());
            for (k, probe) in probes.iter().enumerate() {
                let single = tree.survival_product(probe, m);
                prop_assert_eq!(out[k].to_bits(), single.to_bits(),
                    "probe {} batched {} vs single {}", k, out[k], single);
            }
        }
    }

    /// BBS local skylines equal the naive threshold skyline.
    #[test]
    fn bbs_matches_naive(tuples in arb_tuples(2, 100), q in 0.05f64..=1.0) {
        let mask = SubspaceMask::full(2).unwrap();
        let db = UncertainDb::from_tuples(2, tuples.clone()).unwrap();
        let expected: Vec<TupleId> = probabilistic_skyline(&db, q, mask)
            .unwrap()
            .into_iter()
            .map(|e| e.tuple.id())
            .collect();
        let tree = PrTree::bulk_load(2, tuples).unwrap();
        let got: Vec<TupleId> = bbs::local_skyline(&tree, q, mask)
            .unwrap()
            .into_iter()
            .map(|e| e.tuple.id())
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// A mutation sequence (bulk load, deletes, re-inserts) leaves queries
    /// consistent with a database holding the same tuples.
    #[test]
    fn mutations_preserve_query_semantics(
        tuples in arb_tuples(2, 80),
        delete_mask in prop::collection::vec(any::<bool>(), 80),
        probe in prop::collection::vec(0.0f64..100.0, 2),
    ) {
        let mut tree = PrTree::bulk_load(2, tuples.clone()).unwrap();
        let mut kept: Vec<UncertainTuple> = Vec::new();
        for (i, t) in tuples.iter().enumerate() {
            if delete_mask.get(i).copied().unwrap_or(false) {
                prop_assert!(tree.remove(t.id(), t.values()).is_some());
            } else {
                kept.push(t.clone());
            }
        }
        tree.check_invariants();
        let db = UncertainDb::from_tuples(2, kept).unwrap();
        let mask = SubspaceMask::full(2).unwrap();
        let expected = db.survival_product(&probe);
        let got = tree.survival_product(&probe, mask);
        prop_assert!((expected - got).abs() < 1e-9);
        prop_assert_eq!(tree.len(), db.len());
    }

    /// The tree summary reflects exactly the stored population.
    #[test]
    fn summary_aggregates_are_exact(tuples in arb_tuples(3, 60)) {
        let tree = PrTree::bulk_load(3, tuples.clone()).unwrap();
        let s = tree.summary().unwrap();
        prop_assert_eq!(s.count, tuples.len());
        let p_min = tuples.iter().map(|t| t.prob().get()).fold(f64::INFINITY, f64::min);
        let p_max = tuples.iter().map(|t| t.prob().get()).fold(0.0, f64::max);
        prop_assert!((s.p_min - p_min).abs() < 1e-12);
        prop_assert!((s.p_max - p_max).abs() < 1e-12);
        let survival: f64 = tuples.iter().map(|t| t.prob().complement()).product();
        prop_assert!((s.survival - survival).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Range queries equal a linear scan for arbitrary boxes.
    #[test]
    fn range_query_matches_scan(
        tuples in arb_tuples(3, 100),
        corner_a in prop::collection::vec(0.0f64..100.0, 3),
        corner_b in prop::collection::vec(0.0f64..100.0, 3),
    ) {
        let lower: Vec<f64> =
            corner_a.iter().zip(&corner_b).map(|(a, b)| a.min(*b)).collect();
        let upper: Vec<f64> =
            corner_a.iter().zip(&corner_b).map(|(a, b)| a.max(*b)).collect();
        let tree = PrTree::bulk_load(3, tuples.clone()).unwrap();
        let mut got: Vec<u64> =
            tree.range_query(&lower, &upper).iter().map(|t| t.id().seq).collect();
        got.sort_unstable();
        let mut expected: Vec<u64> = tuples
            .iter()
            .filter(|t| {
                t.values()
                    .iter()
                    .zip(lower.iter().zip(&upper))
                    .all(|(&v, (&lo, &hi))| lo <= v && v <= hi)
            })
            .map(|t| t.id().seq)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Region-constrained local skylines equal the filtered naive answer.
    #[test]
    fn region_skyline_matches_filtered_naive(
        tuples in arb_tuples(2, 80),
        origin in prop::collection::vec(0.0f64..100.0, 2),
        q in 0.05f64..=0.9,
    ) {
        use dsud_uncertain::dominates_in;
        let mask = SubspaceMask::full(2).unwrap();
        let db = UncertainDb::from_tuples(2, tuples.clone()).unwrap();
        let expected: Vec<TupleId> = probabilistic_skyline(&db, q, mask)
            .unwrap()
            .into_iter()
            .filter(|e| dominates_in(&origin, e.tuple.values(), mask))
            .map(|e| e.tuple.id())
            .collect();
        let tree = PrTree::bulk_load(2, tuples).unwrap();
        let got: Vec<TupleId> = bbs::local_skyline_in_region(&tree, q, mask, &origin)
            .unwrap()
            .into_iter()
            .map(|e| e.tuple.id())
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// The dominance cover is sound: a probe that no cover corner
    /// dominates on the mask has a survival product of exactly `1.0`,
    /// single-probe and multi-probe. Coordinates come from a small grid,
    /// so duplicates and ties with the probes are common; some sites also
    /// grow by incremental inserts after the bulk load.
    #[test]
    fn cover_proves_survival_of_exactly_one(
        rows in prop::collection::vec(
            (prop::collection::vec(0u8..8, 3), 0.01f64..=1.0),
            1..120,
        ),
        inserted in 0usize..40,
        probes in prop::collection::vec(prop::collection::vec(0u8..9, 3), 1..24),
        dim_bits in 1u8..8,
        cap in 2usize..12,
    ) {
        use dsud_uncertain::dominates_in;
        let tuples: Vec<UncertainTuple> = rows
            .iter()
            .enumerate()
            .map(|(i, (values, p))| {
                let values = values.iter().map(|&v| f64::from(v)).collect();
                UncertainTuple::new(TupleId::new(0, i as u64), values, Probability::new(*p).unwrap())
                    .unwrap()
            })
            .collect();
        let split = tuples.len().saturating_sub(inserted);
        let mut tree = PrTree::bulk_load_with(3, tuples[..split].to_vec(), cap).unwrap();
        for t in &tuples[split..] {
            tree.insert(t.clone()).unwrap();
        }
        let dims: Vec<usize> = (0..3).filter(|d| dim_bits & (1 << d) != 0).collect();
        let mask = SubspaceMask::from_dims(&dims).unwrap();
        let cover = tree.dominance_cover();
        prop_assert!(cover.len().is_multiple_of(3));
        prop_assert!(cover.len() / 3 >= tree.len().div_ceil(cap));
        let probes: Vec<Vec<f64>> =
            probes.iter().map(|p| p.iter().map(|&v| f64::from(v)).collect()).collect();
        let rows: Vec<&[f64]> = probes.iter().map(Vec::as_slice).collect();
        let mut batched = Vec::new();
        tree.survival_products(&rows, mask, &mut MultiProbeScratch::default(), &mut batched);
        for (probe, multi) in probes.iter().zip(&batched) {
            if cover.chunks_exact(3).any(|c| dominates_in(c, probe, mask)) {
                continue;
            }
            prop_assert_eq!(tree.survival_product(probe, mask).to_bits(), 1.0f64.to_bits());
            prop_assert_eq!(multi.to_bits(), 1.0f64.to_bits());
        }
    }
}

/// Tuples on a small grid, so duplicate coordinates are common; about one
/// in five has `P = 1.0`, whose dominated tuples survive with exactly 0.
fn arb_grid_tuples(
    dims: usize,
    n: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = Vec<UncertainTuple>> {
    prop::collection::vec((prop::collection::vec(0u8..6, dims), 0.01f64..=1.0, 0u8..5), n).prop_map(
        |rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (values, p, certain))| {
                    let values = values.into_iter().map(f64::from).collect();
                    let p = if certain == 0 { 1.0 } else { p };
                    UncertainTuple::new(
                        TupleId::new(0, i as u64),
                        values,
                        Probability::new(p).unwrap(),
                    )
                    .unwrap()
                })
                .collect()
        },
    )
}

/// The ungated definition of a local skyline: every tuple with
/// `P(t) × survival_product ≥ q`, by descending probability, then id.
fn ungated(
    tree: &PrTree,
    tuples: &[UncertainTuple],
    q: f64,
    mask: SubspaceMask,
    keep: impl Fn(&UncertainTuple) -> bool,
) -> Vec<(TupleId, u64)> {
    let mut out: Vec<(TupleId, f64)> = tuples
        .iter()
        .filter(|t| keep(t))
        .map(|t| (t.id(), t.prob().get() * tree.survival_product(t.values(), mask)))
        .filter(|&(_, p)| p >= q)
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    out.into_iter().map(|(id, p)| (id, p.to_bits())).collect()
}

fn bits(sky: Vec<dsud_uncertain::SkylineEntry>) -> Vec<(TupleId, u64)> {
    sky.into_iter().map(|e| (e.tuple.id(), e.probability.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both BBS procedures, which skip and cut short the window products
    /// that cannot reach `q`, return exactly the ungated answer: the same
    /// ids in the same order with the same probability bits. `q` is one of
    /// the tuples' own `P(t)` or exact local probabilities, so ties at the
    /// threshold are the common case; trees are at least three levels high.
    #[test]
    fn gated_bbs_is_bit_identical_to_the_ungated_definition(
        tuples in arb_grid_tuples(3, 30..=150),
        dim_bits in 1u8..8,
        cap in 2usize..6,
        pick in 0usize..1000,
        origin in prop::collection::vec(0u8..7, 3),
    ) {
        use dsud_uncertain::dominates_in;
        let dims: Vec<usize> = (0..3).filter(|d| dim_bits & (1 << d) != 0).collect();
        let mask = SubspaceMask::from_dims(&dims).unwrap();
        let tree = PrTree::bulk_load_with(3, tuples.clone(), cap).unwrap();
        prop_assert!(tree.shape().0 >= 3);
        let thresholds: Vec<f64> = tuples
            .iter()
            .flat_map(|t| {
                let p = t.prob().get();
                [p, p * tree.survival_product(t.values(), mask)]
            })
            .filter(|&q| q > 0.0)
            .collect();
        let q = thresholds[pick % thresholds.len()];
        let origin: Vec<f64> = origin.into_iter().map(f64::from).collect();

        let got = bits(bbs::local_skyline(&tree, q, mask).unwrap());
        prop_assert_eq!(got, ungated(&tree, &tuples, q, mask, |_| true));
        let got = bits(bbs::local_skyline_in_region(&tree, q, mask, &origin).unwrap());
        let expected =
            ungated(&tree, &tuples, q, mask, |t| dominates_in(&origin, t.values(), mask));
        prop_assert_eq!(got, expected);
    }
}
