//! The central correctness property: every distributed algorithm must
//! return exactly the tuples the centralized Definition-1 computation
//! returns, with exactly the same global skyline probabilities — across
//! data distributions, dimensionalities, thresholds, site counts, bound
//! modes, transports, and ablations.

use dsud_core::{baseline, BandwidthMeter, BoundMode, Cluster, QueryConfig, SiteOptions};
use dsud_core::{probabilistic_skyline, SubspaceMask, TupleId, UncertainDb, UncertainTuple};
use dsud_data::{ProbabilityLaw, SpatialDistribution, WorkloadSpec};

/// Centralized ground truth over the union of all sites.
fn reference(
    sites: &[Vec<UncertainTuple>],
    dims: usize,
    q: f64,
    mask: SubspaceMask,
) -> Vec<(TupleId, f64)> {
    let union = UncertainDb::from_tuples(dims, sites.iter().flatten().cloned().collect::<Vec<_>>())
        .unwrap();
    let mut out: Vec<(TupleId, f64)> = probabilistic_skyline(&union, q, mask)
        .unwrap()
        .into_iter()
        .map(|e| (e.tuple.id(), e.probability))
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

fn sorted_results(outcome: &dsud_core::QueryOutcome) -> Vec<(TupleId, f64)> {
    let mut out: Vec<(TupleId, f64)> =
        outcome.skyline.iter().map(|e| (e.tuple.id(), e.probability)).collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

fn assert_same(got: &[(TupleId, f64)], expected: &[(TupleId, f64)], label: &str) {
    assert_eq!(
        got.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        expected.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        "{label}: answer sets differ"
    );
    for ((_, p), (_, e)) in got.iter().zip(expected) {
        assert!((p - e).abs() < 1e-9, "{label}: probability {p} vs {e}");
    }
}

fn check_all(sites: Vec<Vec<UncertainTuple>>, dims: usize, q: f64, label: &str) {
    let mask = SubspaceMask::full(dims).unwrap();
    let expected = reference(&sites, dims, q, mask);
    let config = QueryConfig::new(q).unwrap();

    let mut dsud_cluster = Cluster::local(dims, sites.clone()).unwrap();
    let dsud = dsud_cluster.run_dsud(&config).unwrap();
    assert_same(&sorted_results(&dsud), &expected, &format!("{label}/DSUD"));

    let mut edsud_cluster = Cluster::local(dims, sites.clone()).unwrap();
    let edsud = edsud_cluster.run_edsud(&config).unwrap();
    assert_same(&sorted_results(&edsud), &expected, &format!("{label}/e-DSUD"));

    let meter = BandwidthMeter::new();
    let base = baseline::run(&sites, dims, q, mask, &meter).unwrap();
    assert_same(&sorted_results(&base), &expected, &format!("{label}/baseline"));
}

#[test]
fn independent_data_across_thresholds() {
    for q in [0.1, 0.3, 0.5, 0.9] {
        let sites = WorkloadSpec::new(1_200, 2).seed(11).generate_partitioned(6).unwrap();
        check_all(sites, 2, q, &format!("indep q={q}"));
    }
}

#[test]
fn anticorrelated_data_across_dimensionalities() {
    for dims in [2, 3, 4] {
        let sites = WorkloadSpec::new(900, dims)
            .spatial(SpatialDistribution::Anticorrelated)
            .seed(dims as u64)
            .generate_partitioned(5)
            .unwrap();
        check_all(sites, dims, 0.3, &format!("anticorr d={dims}"));
    }
}

#[test]
fn correlated_data() {
    let sites = WorkloadSpec::new(1_000, 3)
        .spatial(SpatialDistribution::Correlated)
        .seed(5)
        .generate_partitioned(4)
        .unwrap();
    check_all(sites, 3, 0.3, "correlated");
}

#[test]
fn gaussian_probabilities() {
    for mean in [0.3, 0.5, 0.8] {
        let sites = WorkloadSpec::new(800, 2)
            .probability_law(ProbabilityLaw::Gaussian { mean, std_dev: 0.2 })
            .seed(17)
            .generate_partitioned(8)
            .unwrap();
        check_all(sites, 2, 0.3, &format!("gaussian μ={mean}"));
    }
}

#[test]
fn many_small_sites() {
    // More sites than interesting tuples: exercises exhausted-site paths.
    let sites = WorkloadSpec::new(300, 2).seed(23).generate_partitioned(50).unwrap();
    check_all(sites, 2, 0.3, "m=50");
}

#[test]
fn single_site_degenerates_to_centralized() {
    let sites = WorkloadSpec::new(500, 3).seed(31).generate_partitioned(1).unwrap();
    check_all(sites, 3, 0.3, "m=1");
}

#[test]
fn high_threshold_can_return_empty() {
    let sites = WorkloadSpec::new(400, 2).seed(41).generate_partitioned(4).unwrap();
    let mask = SubspaceMask::full(2).unwrap();
    let expected = reference(&sites, 2, 0.999, mask);
    let mut cluster = Cluster::local(2, sites).unwrap();
    let outcome = cluster.run_edsud(&QueryConfig::new(0.999).unwrap()).unwrap();
    assert_same(&sorted_results(&outcome), &expected, "q=0.999");
}

#[test]
fn broadcast_only_mode_is_correct() {
    let sites = WorkloadSpec::new(1_000, 3)
        .spatial(SpatialDistribution::Anticorrelated)
        .seed(7)
        .generate_partitioned(6)
        .unwrap();
    let mask = SubspaceMask::full(3).unwrap();
    let expected = reference(&sites, 3, 0.3, mask);
    let mut cluster = Cluster::local(3, sites).unwrap();
    let config = QueryConfig::new(0.3).unwrap().bound_mode(BoundMode::BroadcastOnly);
    let outcome = cluster.run_edsud(&config).unwrap();
    assert_same(&sorted_results(&outcome), &expected, "BroadcastOnly");
}

#[test]
fn pruning_disabled_is_correct() {
    let sites = WorkloadSpec::new(800, 2).seed(13).generate_partitioned(5).unwrap();
    let mask = SubspaceMask::full(2).unwrap();
    let expected = reference(&sites, 2, 0.3, mask);
    let mut cluster = Cluster::local_with_options(
        2,
        sites,
        SiteOptions { pruning: false, ..SiteOptions::default() },
    )
    .unwrap();
    let outcome = cluster.run_dsud(&QueryConfig::new(0.3).unwrap()).unwrap();
    assert_same(&sorted_results(&outcome), &expected, "pruning off");
}

#[test]
fn threaded_transport_is_equivalent() {
    let sites = WorkloadSpec::new(1_000, 3).seed(3).generate_partitioned(8).unwrap();
    let config = QueryConfig::new(0.3).unwrap();
    let mut local = Cluster::local(3, sites.clone()).unwrap();
    let a = local.run_edsud(&config).unwrap();
    let mut threaded = Cluster::threaded(3, sites).unwrap();
    let b = threaded.run_edsud(&config).unwrap();
    assert_eq!(sorted_results(&a), sorted_results(&b));
    assert_eq!(a.tuples_transmitted(), b.tuples_transmitted());
}

#[test]
fn nyse_workload_is_correct() {
    use dsud_data::nyse::NyseSpec;
    let sites = NyseSpec::new(2_000).seed(9).generate_partitioned(10).unwrap();
    check_all(sites, 2, 0.3, "nyse");
}

#[test]
fn tcp_transport_is_equivalent() {
    let sites = WorkloadSpec::new(800, 2).seed(55).generate_partitioned(6).unwrap();
    let config = QueryConfig::new(0.3).unwrap();
    let mut local = Cluster::local(2, sites.clone()).unwrap();
    let a = local.run_edsud(&config).unwrap();
    let mut over_tcp = Cluster::tcp(2, sites).unwrap();
    let b = over_tcp.run_edsud(&config).unwrap();
    assert_eq!(sorted_results(&a), sorted_results(&b));
    assert_eq!(a.tuples_transmitted(), b.tuples_transmitted());
    assert_eq!(a.traffic.total().bytes, b.traffic.total().bytes);
}

#[test]
fn clustered_data_is_correct() {
    let sites = WorkloadSpec::new(1_000, 3)
        .spatial(SpatialDistribution::Clustered)
        .seed(61)
        .generate_partitioned(5)
        .unwrap();
    check_all(sites, 3, 0.3, "clustered");
}

#[test]
fn sites_with_single_tuples() {
    // Extreme fragmentation: every site holds exactly one tuple.
    let sites = WorkloadSpec::new(40, 2).seed(81).generate_partitioned(40).unwrap();
    check_all(sites, 2, 0.3, "one tuple per site");
}

#[test]
fn duplicate_values_across_sites() {
    // Identical value vectors at different sites must not dominate each
    // other (dominance is strict), and probabilities must combine exactly.
    use dsud_core::{Probability, TupleId, UncertainTuple};
    let mk = |site: u32, seq: u64, v: [f64; 2], p: f64| {
        UncertainTuple::new(TupleId::new(site, seq), v.to_vec(), Probability::new(p).unwrap())
            .unwrap()
    };
    let sites = vec![
        vec![mk(0, 0, [1.0, 1.0], 0.6), mk(0, 1, [2.0, 2.0], 0.9)],
        vec![mk(1, 0, [1.0, 1.0], 0.7), mk(1, 1, [3.0, 3.0], 0.9)],
        vec![mk(2, 0, [1.0, 1.0], 0.5)],
    ];
    check_all(sites, 2, 0.3, "duplicate values");
}

#[test]
fn probability_one_tuples_zero_out_dominated_space() {
    use dsud_core::{Probability, TupleId, UncertainTuple};
    let mk = |site: u32, seq: u64, v: [f64; 2], p: f64| {
        UncertainTuple::new(TupleId::new(site, seq), v.to_vec(), Probability::new(p).unwrap())
            .unwrap()
    };
    // A certain tuple near the origin: everything it dominates has global
    // probability zero; the certain tuple itself always qualifies.
    let sites = vec![
        vec![mk(0, 0, [0.1, 0.1], 1.0), mk(0, 1, [0.5, 0.5], 0.9)],
        vec![mk(1, 0, [0.2, 0.9], 0.9), mk(1, 1, [0.05, 0.5], 0.8)],
    ];
    check_all(sites, 2, 0.3, "certain dominator");
}

#[test]
fn limit_composes_with_expunges() {
    // Top-1 on anticorrelated data exercises limit-break inside a run that
    // also expunges candidates.
    let sites = WorkloadSpec::new(1_500, 3)
        .spatial(SpatialDistribution::Anticorrelated)
        .seed(83)
        .generate_partitioned(8)
        .unwrap();
    let mut full_cluster = Cluster::local(3, sites.clone()).unwrap();
    let full = full_cluster.run_edsud(&QueryConfig::new(0.3).unwrap()).unwrap();
    let mut limited_cluster = Cluster::local(3, sites).unwrap();
    let one = limited_cluster.run_edsud(&QueryConfig::new(0.3).unwrap().limit(1)).unwrap();
    assert_eq!(one.skyline.len(), 1);
    assert_eq!(one.skyline[0].tuple.id(), full.skyline[0].tuple.id());
    assert!(one.tuples_transmitted() < full.tuples_transmitted());
}
