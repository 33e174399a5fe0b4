//! Property-based end-to-end validation: for arbitrary small distributed
//! databases, DSUD and e-DSUD must return exactly the centralized answer.

use proptest::prelude::*;

use dsud_core::estimate::expected_skyline_count;
use dsud_core::{probabilistic_skyline, Cluster, QueryConfig, SubspaceMask};
use dsud_core::{Probability, TupleId, UncertainDb, UncertainTuple};

fn arb_sites(
    dims: usize,
    max_sites: usize,
    max_per_site: usize,
) -> impl Strategy<Value = Vec<Vec<UncertainTuple>>> {
    prop::collection::vec(
        prop::collection::vec(
            (prop::collection::vec(0.0f64..10.0, dims), 0.05f64..=1.0),
            1..=max_per_site,
        ),
        1..=max_sites,
    )
    .prop_map(move |sites| {
        sites
            .into_iter()
            .enumerate()
            .map(|(s, rows)| {
                rows.into_iter()
                    .enumerate()
                    .map(|(i, (values, p))| {
                        UncertainTuple::new(
                            TupleId::new(s as u32, i as u64),
                            values,
                            Probability::new(p).unwrap(),
                        )
                        .unwrap()
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn distributed_equals_centralized(
        sites in arb_sites(2, 6, 25),
        q in 0.05f64..=0.95,
    ) {
        let union = UncertainDb::from_tuples(
            2,
            sites.iter().flatten().cloned().collect::<Vec<_>>(),
        ).unwrap();
        let mask = SubspaceMask::full(2).unwrap();
        let mut expected: Vec<(TupleId, f64)> = probabilistic_skyline(&union, q, mask)
            .unwrap()
            .into_iter()
            .map(|e| (e.tuple.id(), e.probability))
            .collect();
        expected.sort_by_key(|(id, _)| *id);

        let config = QueryConfig::new(q).unwrap();
        for edsud in [false, true] {
            let mut cluster = Cluster::local(2, sites.clone()).unwrap();
            let outcome = if edsud {
                cluster.run_edsud(&config).unwrap()
            } else {
                cluster.run_dsud(&config).unwrap()
            };
            let mut got: Vec<(TupleId, f64)> = outcome
                .skyline
                .iter()
                .map(|e| (e.tuple.id(), e.probability))
                .collect();
            got.sort_by_key(|(id, _)| *id);
            prop_assert_eq!(
                got.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                expected.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                "algorithm edsud={} diverged", edsud
            );
            for ((_, p), (_, e)) in got.iter().zip(&expected) {
                prop_assert!((p - e).abs() < 1e-9);
            }
        }
    }

    /// Bandwidth sanity on arbitrary inputs: never more tuple traffic than
    /// the framework's worst case (every tuple uploaded once plus one
    /// broadcast per upload to every other site).
    #[test]
    fn traffic_never_exceeds_worst_case(sites in arb_sites(2, 5, 15)) {
        let n: usize = sites.iter().map(Vec::len).sum();
        let m = sites.len();
        let mut cluster = Cluster::local(2, sites).unwrap();
        let outcome = cluster.run_edsud(&QueryConfig::new(0.3).unwrap()).unwrap();
        let worst = (n * m) as u64;
        prop_assert!(outcome.tuples_transmitted() <= worst);
    }
}

/// Independent reimplementation of the Eq. 6 per-world kernel
/// `ln^{d−1}(n) / d!` for cross-checking `estimate`.
fn kernel_reference(d: usize, k: f64) -> f64 {
    if k < 1.0 {
        return 0.0;
    }
    let fact: f64 = (1..=d).map(|i| i as f64).product();
    if d == 1 {
        1.0
    } else {
        k.ln().powi((d - 1) as i32) / fact
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Eq. 6 is monotone in N: more tuples can only grow the expected
    /// skyline (weakly — in 1-d it saturates at one tuple per world).
    /// This deliberately straddles the estimator's internal switch from
    /// exact enumeration to the Gaussian tail.
    #[test]
    fn expected_skyline_count_is_monotone_in_n(d in 1usize..=6, n in 1usize..4_000) {
        let lo = expected_skyline_count(d, n);
        let hi = expected_skyline_count(d, n + 1);
        prop_assert!(
            hi >= lo - 1e-12,
            "H({}, {}) = {} fell below H({}, {}) = {}", d, n + 1, hi, d, n, lo
        );
    }

    /// At small N the estimator must agree with brute force: enumerate all
    /// 2^N materialized worlds (each equally likely once the uniform
    /// existence probabilities are marginalized) and average the kernel.
    #[test]
    fn expected_skyline_count_matches_exhaustive_enumeration(
        d in 1usize..=6,
        n in 1usize..=12,
    ) {
        let worlds = 1u32 << n;
        let mut exact = 0.0;
        for mask in 0..worlds {
            exact += kernel_reference(d, f64::from(mask.count_ones()));
        }
        exact /= f64::from(worlds);
        let got = expected_skyline_count(d, n);
        prop_assert!(
            (got - exact).abs() <= 1e-12 * exact.max(1.0),
            "H({}, {}) = {}, exhaustive enumeration {}", d, n, got, exact
        );
    }

    /// 1-d edge of the kernel: every non-empty world contributes exactly
    /// one skyline tuple, so H(1, N) is the non-empty-world mass.
    #[test]
    fn one_dimensional_expectation_is_the_non_empty_world_mass(n in 1usize..=64) {
        let h = expected_skyline_count(1, n);
        let want = 1.0 - 0.5f64.powi(n as i32);
        prop_assert!((h - want).abs() < 1e-12, "H(1, {}) = {}, want {}", n, h, want);
    }
}

/// A small live site: 40 seeded tuples in 3-d.
fn small_site() -> dsud_core::LocalSite {
    let tuples = dsud_data::WorkloadSpec::new(40, 3).seed(5).generate().expect("workload");
    dsud_core::LocalSite::new(0, 3, tuples, dsud_core::SiteOptions::default()).expect("site")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random tails behind every tag byte (0..=39 assigned, 40 not), bare
    /// and behind a `Tagged` header, fed to one live site: it never
    /// panics, answers `DecodeError` to whatever does not decode, and
    /// otherwise answers a frame that decodes.
    #[test]
    fn malformed_frames_under_every_tag_get_a_well_formed_reply(
        query_id in any::<u64>(),
        tail in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        use dsud_net::{wire::TAG_TAGGED, Message, Service};

        let mut site = small_site();
        let mut out = bytes::BytesMut::new();
        for tag in 0..=40u8 {
            let bare: Vec<u8> = std::iter::once(tag).chain(tail.iter().copied()).collect();
            let tagged: Vec<u8> = std::iter::once(TAG_TAGGED)
                .chain(query_id.to_be_bytes())
                .chain(bare.iter().copied())
                .collect();
            for frame in [bare, tagged] {
                site.handle_frame(&frame, &mut out);
                let reply = Message::decode_slice(&out);
                prop_assert!(reply.is_some(), "tag {tag}: reply {:?} does not decode", &out[..]);
                if Message::decode_slice(&frame).is_none() {
                    prop_assert_eq!(reply, Some(Message::DecodeError), "tag {}", tag);
                }
            }
        }
    }
}
