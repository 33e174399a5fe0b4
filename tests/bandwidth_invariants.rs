//! Bandwidth accounting invariants: the orderings the paper's evaluation
//! relies on must hold on deterministic seeded workloads, and the meter's
//! decomposition must be internally consistent.

use dsud_core::{
    baseline, BandwidthMeter, Cluster, Counter, QueryConfig, Recorder, SiteOptions, SubspaceMask,
};
use dsud_data::{SpatialDistribution, WorkloadSpec};

fn run_pair(
    n: usize,
    dims: usize,
    m: usize,
    q: f64,
    seed: u64,
    spatial: SpatialDistribution,
) -> (dsud_core::QueryOutcome, dsud_core::QueryOutcome) {
    let sites =
        WorkloadSpec::new(n, dims).spatial(spatial).seed(seed).generate_partitioned(m).unwrap();
    let config = QueryConfig::new(q).unwrap();
    let mut a = Cluster::local(dims, sites.clone()).unwrap();
    let dsud = a.run_dsud(&config).unwrap();
    let mut b = Cluster::local(dims, sites).unwrap();
    let edsud = b.run_edsud(&config).unwrap();
    (dsud, edsud)
}

#[test]
fn edsud_never_exceeds_dsud_on_seeded_workloads() {
    for (seed, spatial) in [
        (1, SpatialDistribution::Independent),
        (2, SpatialDistribution::Anticorrelated),
        (3, SpatialDistribution::Independent),
        (4, SpatialDistribution::Anticorrelated),
    ] {
        let (dsud, edsud) = run_pair(2_000, 3, 10, 0.3, seed, spatial);
        assert!(
            edsud.tuples_transmitted() <= dsud.tuples_transmitted(),
            "seed {seed}: e-DSUD {} > DSUD {}",
            edsud.tuples_transmitted(),
            dsud.tuples_transmitted()
        );
    }
}

#[test]
fn both_beat_the_ship_everything_baseline() {
    let n = 3_000;
    let sites = WorkloadSpec::new(n, 3).seed(5).generate_partitioned(10).unwrap();
    let mask = SubspaceMask::full(3).unwrap();
    let meter = BandwidthMeter::new();
    let base = baseline::run(&sites, 3, 0.3, mask, &meter).unwrap();
    assert_eq!(base.tuples_transmitted(), n as u64);

    let config = QueryConfig::new(0.3).unwrap();
    let mut cluster = Cluster::local(3, sites).unwrap();
    let edsud = cluster.run_edsud(&config).unwrap();
    assert!(edsud.tuples_transmitted() < n as u64 / 2);
}

#[test]
fn ceiling_lower_bounds_everything() {
    for seed in [7, 8] {
        let (dsud, edsud) = run_pair(2_000, 3, 12, 0.3, seed, SpatialDistribution::Anticorrelated);
        let floor = baseline::ceiling(edsud.skyline.len(), 12);
        assert!(edsud.tuples_transmitted() >= floor);
        assert!(dsud.tuples_transmitted() >= floor);
    }
}

#[test]
fn traffic_decomposition_is_consistent() {
    let sites = WorkloadSpec::new(1_500, 2)
        .spatial(SpatialDistribution::Independent)
        .seed(9)
        .generate_partitioned(8)
        .unwrap();
    let config = QueryConfig::new(0.3).unwrap();
    let mut runs = Vec::new();
    for edsud in [false, true] {
        let recorder = Recorder::enabled();
        let mut cluster =
            Cluster::local_instrumented(2, sites.clone(), SiteOptions::default(), recorder.clone())
                .unwrap();
        let out = if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
        runs.push((out.unwrap(), recorder.counter(Counter::SkippedDeliveries)));
    }
    for (out, skipped) in &runs {
        let t = &out.traffic;
        assert_eq!(
            t.tuples_transmitted(),
            t.upload.tuples + t.feedback.tuples + t.maintenance.tuples
        );
        // Every broadcast reaches m−1 sites: as a frame eliciting one
        // reply, or as a delivery a drained site's cover proved needs none.
        assert_eq!(t.feedback.messages, t.reply.messages);
        assert_eq!(t.feedback.tuples + skipped, out.stats.broadcasts * 7);
        // Bytes flow wherever messages flow.
        assert!(t.upload.bytes > 0);
        assert!(t.total().bytes >= t.total().tuples * 30);
    }
    // DSUD broadcasts every fetched candidate; e-DSUD expunges some.
    let (dsud, edsud) = (&runs[0].0, &runs[1].0);
    assert!(edsud.stats.expunged > 0, "expected expunges on this workload");
    assert!(edsud.stats.broadcasts <= dsud.stats.broadcasts);
}

#[test]
fn pruning_reduces_uploads() {
    let sites = WorkloadSpec::new(2_000, 3)
        .spatial(SpatialDistribution::Anticorrelated)
        .seed(12)
        .generate_partitioned(10)
        .unwrap();
    let config = QueryConfig::new(0.3).unwrap();
    let mut with = Cluster::local(3, sites.clone()).unwrap();
    let on = with.run_dsud(&config).unwrap();
    let mut without = Cluster::local_with_options(
        3,
        sites,
        SiteOptions { pruning: false, ..SiteOptions::default() },
    )
    .unwrap();
    let off = without.run_dsud(&config).unwrap();
    assert!(
        on.traffic.upload.tuples <= off.traffic.upload.tuples,
        "pruning on {} vs off {}",
        on.traffic.upload.tuples,
        off.traffic.upload.tuples
    );
    assert!(on.stats.pruned_at_sites > 0);
    assert_eq!(off.stats.pruned_at_sites, 0);
}

#[test]
fn bandwidth_grows_with_sites() {
    let mut last = 0;
    for m in [4, 8, 16, 32] {
        let sites = WorkloadSpec::new(2_000, 3).seed(20).generate_partitioned(m).unwrap();
        let mut cluster = Cluster::local(3, sites).unwrap();
        let out = cluster.run_edsud(&QueryConfig::new(0.3).unwrap()).unwrap();
        assert!(
            out.tuples_transmitted() > last,
            "m={m}: {} should exceed {last}",
            out.tuples_transmitted()
        );
        last = out.tuples_transmitted();
    }
}

#[test]
fn bandwidth_shrinks_with_threshold() {
    let sites = WorkloadSpec::new(2_000, 3)
        .spatial(SpatialDistribution::Anticorrelated)
        .seed(21)
        .generate_partitioned(10)
        .unwrap();
    let mut previous = u64::MAX;
    for q in [0.3, 0.5, 0.7, 0.9] {
        let mut cluster = Cluster::local(3, sites.clone()).unwrap();
        let out = cluster.run_edsud(&QueryConfig::new(q).unwrap()).unwrap();
        assert!(
            out.tuples_transmitted() <= previous,
            "q={q}: {} should not exceed {previous}",
            out.tuples_transmitted()
        );
        previous = out.tuples_transmitted();
    }
}
