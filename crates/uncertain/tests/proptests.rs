//! Property-based validation of the uncertainty data model: the closed-form
//! Eq. (3) computation must agree with exhaustive possible-world
//! enumeration on arbitrary small databases, and dominance must behave like
//! a strict partial order.

use proptest::prelude::*;

use dsud_uncertain::{
    dominates, dominates_in, relation, skyline_probabilities, skyline_probabilities_seq, worlds,
    Batch, DomRelation, Probability, SubspaceMask, TupleId, UncertainDb, UncertainTuple,
};

fn arb_tuple(dims: usize, seq: u64) -> impl Strategy<Value = UncertainTuple> {
    (prop::collection::vec(0.0f64..100.0, dims), 0.01f64..=1.0).prop_map(move |(values, p)| {
        UncertainTuple::new(TupleId::new(0, seq), values, Probability::new(p).unwrap()).unwrap()
    })
}

fn arb_db(dims: usize, max_n: usize) -> impl Strategy<Value = UncertainDb> {
    prop::collection::vec(prop::collection::vec(0.0f64..100.0, dims), 1..=max_n)
        .prop_flat_map(move |points| {
            let n = points.len();
            (Just(points), prop::collection::vec(0.01f64..=1.0, n))
        })
        .prop_map(move |(points, probs)| {
            let tuples = points.into_iter().zip(probs).enumerate().map(|(i, (values, p))| {
                UncertainTuple::new(TupleId::new(0, i as u64), values, Probability::new(p).unwrap())
                    .unwrap()
            });
            UncertainDb::from_tuples(dims, tuples.collect::<Vec<_>>()).unwrap()
        })
}

/// Anticorrelated workload (the paper's hardest distribution): points lie
/// near the hyperplane `Σ values = const`, so almost everything is
/// skyline and dominance tests rarely short-circuit.
fn arb_anticorrelated_db(dims: usize, max_n: usize) -> impl Strategy<Value = UncertainDb> {
    prop::collection::vec(
        (0.0f64..100.0, prop::collection::vec(-5.0f64..5.0, dims), 0.01f64..=1.0),
        1..=max_n,
    )
    .prop_map(move |rows| {
        let tuples = rows.into_iter().enumerate().map(|(i, (base, jitter, p))| {
            let values = (0..dims)
                .map(|d| {
                    let v = if d == 0 { base } else { 100.0 - base };
                    (v + jitter[d]).clamp(0.0, 110.0)
                })
                .collect();
            UncertainTuple::new(TupleId::new(0, i as u64), values, Probability::new(p).unwrap())
                .unwrap()
        });
        UncertainDb::from_tuples(dims, tuples.collect::<Vec<_>>()).unwrap()
    })
}

/// Asserts the kernel-backed parallel path equals the scalar sequential
/// path with `==` on the raw bits, at pool sizes 1, 2, and 8.
fn assert_parallel_matches_seq(db: &UncertainDb, mask: SubspaceMask) {
    let seq = skyline_probabilities_seq(db, mask).unwrap();
    for pool in [1usize, 2, 8] {
        let par = threadpool::with_pool_size(pool, || skyline_probabilities(db, mask)).unwrap();
        assert_eq!(seq.len(), par.len());
        for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
            assert!(s.to_bits() == p.to_bits(), "pool {pool}: tuple {i} diverges: {s} vs {p}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel kernel-backed `skyline_probabilities` is bit-identical to
    /// the sequential scalar path on independent workloads, for pool
    /// sizes 1 / 2 / 8.
    #[test]
    fn parallel_skyline_matches_seq_independent(db in arb_db(4, 100)) {
        assert_parallel_matches_seq(&db, SubspaceMask::full(4).unwrap());
        assert_parallel_matches_seq(&db, SubspaceMask::from_dims(&[0, 2]).unwrap());
    }

    /// Same bit-for-bit property on anticorrelated workloads, where
    /// dominance windows are smallest and survival products the longest.
    #[test]
    fn parallel_skyline_matches_seq_anticorrelated(db in arb_anticorrelated_db(3, 100)) {
        assert_parallel_matches_seq(&db, SubspaceMask::full(3).unwrap());
    }

    /// The batch kernel's window products equal the scalar
    /// filter-map-product loop with `==`, on any probe point.
    #[test]
    fn kernel_window_products_match_scalar(
        db in arb_anticorrelated_db(3, 120),
        probe in arb_tuple(3, 9999),
    ) {
        let mask = SubspaceMask::full(3).unwrap();
        let batch = Batch::from_tuples(3, db.iter());
        let scalar: f64 = db
            .iter()
            .filter(|t| dominates_in(t.values(), probe.values(), mask))
            .map(|t| t.prob().complement())
            .product();
        let kernel = batch.survival_product(probe.values(), mask);
        prop_assert!(kernel.to_bits() == scalar.to_bits(), "{} vs {}", kernel, scalar);
    }

    /// Eq. (3) equals the possible-world summation (Eq. 2) exactly.
    #[test]
    fn closed_form_matches_possible_worlds(db in arb_db(2, 10)) {
        let mask = SubspaceMask::full(2).unwrap();
        let exhaustive = worlds::exhaustive_skyline_probabilities(&db, mask).unwrap();
        for (i, t) in db.iter().enumerate() {
            let closed = db.skyline_probability(t);
            prop_assert!((closed - exhaustive[i]).abs() < 1e-9,
                "tuple {i}: closed {closed} vs exhaustive {}", exhaustive[i]);
        }
    }

    /// Same property on a subspace.
    #[test]
    fn closed_form_matches_possible_worlds_on_subspace(db in arb_db(3, 8)) {
        let mask = SubspaceMask::from_dims(&[0, 2]).unwrap();
        let exhaustive = worlds::exhaustive_skyline_probabilities(&db, mask).unwrap();
        for (i, t) in db.iter().enumerate() {
            let closed = db.skyline_probability_in(t, mask);
            prop_assert!((closed - exhaustive[i]).abs() < 1e-9);
        }
    }

    /// World probabilities always sum to one.
    #[test]
    fn world_probabilities_sum_to_one(db in arb_db(2, 12)) {
        let total: f64 = worlds::enumerate(&db).unwrap().iter().map(|w| w.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    /// Skyline probabilities are valid probabilities, bounded by P(t).
    #[test]
    fn skyline_probability_bounded_by_existential(db in arb_db(3, 20)) {
        for t in db.iter() {
            let p = db.skyline_probability(t);
            prop_assert!(p >= 0.0);
            prop_assert!(p <= t.prob().get() + 1e-12);
        }
    }

    /// Dominance is irreflexive and antisymmetric.
    #[test]
    fn dominance_is_a_strict_order(
        a in arb_tuple(3, 0),
        b in arb_tuple(3, 1),
        c in arb_tuple(3, 2),
    ) {
        prop_assert!(!dominates(a.values(), a.values()));
        prop_assert!(!(dominates(a.values(), b.values()) && dominates(b.values(), a.values())));
        // Transitivity.
        if dominates(a.values(), b.values()) && dominates(b.values(), c.values()) {
            prop_assert!(dominates(a.values(), c.values()));
        }
    }

    /// `relation` is consistent with `dominates_in` on every subspace.
    #[test]
    fn relation_consistent_with_dominates(
        a in arb_tuple(4, 0),
        b in arb_tuple(4, 1),
        dims in prop::collection::btree_set(0usize..4, 1..=4),
    ) {
        let mask = SubspaceMask::from_dims(&dims.into_iter().collect::<Vec<_>>()).unwrap();
        let rel = relation(a.values(), b.values(), mask);
        prop_assert_eq!(rel == DomRelation::Dominates, dominates_in(a.values(), b.values(), mask));
        prop_assert_eq!(rel == DomRelation::DominatedBy, dominates_in(b.values(), a.values(), mask));
    }

    /// `SubspaceMask::dims` walks the set bits in ascending order: exactly
    /// the dimensions `contains` accepts, for any mask up to all 64 bits.
    #[test]
    fn mask_dims_are_the_contained_dims_ascending(
        bits in prop_oneof![Just(u64::MAX), (0u32..64).prop_map(|d: u32| 1u64 << d), any::<u64>()],
    ) {
        let mask = SubspaceMask::try_from_bits(u64::max(bits, 1)).unwrap();
        let walked: Vec<usize> = mask.dims().collect();
        let scanned: Vec<usize> =
            (0..SubspaceMask::MAX_DIMS).filter(|&d| mask.contains(d)).collect();
        prop_assert_eq!(walked.len(), mask.len());
        prop_assert_eq!(walked, scanned);
    }

    /// Adding a tuple never increases anyone else's skyline probability.
    #[test]
    fn insert_is_monotone_decreasing(db in arb_db(2, 10), extra in arb_tuple(2, 999)) {
        let before: Vec<f64> = db.iter().map(|t| db.skyline_probability(t)).collect();
        let mut bigger = db.clone();
        let mut extra = extra;
        // Re-id to avoid collisions.
        extra = UncertainTuple::new(TupleId::new(1, 0), extra.values().to_vec(), extra.prob()).unwrap();
        bigger.insert(extra).unwrap();
        for (i, t) in db.iter().enumerate() {
            let after = bigger.skyline_probability(t);
            prop_assert!(after <= before[i] + 1e-12);
        }
    }
}
