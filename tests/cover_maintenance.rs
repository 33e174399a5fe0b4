//! The coordinator's dominance covers follow the updates it sends: a tuple
//! inserted after assembly at a site that drains early must be covered
//! before any query can see it, or the site's feedback would be skipped
//! with a factor of 1.0 it no longer has. Each entry point that inserts —
//! a `Maintainer` on a one-shot cluster, `SessionServer::apply_update`,
//! and a deferred insert replayed at rejoin — is held to `baseline::run`
//! on the updated data.

mod common;

use dsud_core::update::{Maintainer, UpdateOp};
use dsud_core::{
    baseline, BandwidthMeter, Cluster, Counter, FaultKind, FaultPlan, LinkConfig, QueryConfig,
    QueryOutcome, Recorder, SessionOptions, SessionServer, SiteOptions, SiteState, SubspaceMask,
    Topology, Transport, UncertainTuple,
};
use dsud_uncertain::{Probability, TupleId};

const N: usize = 600;
const DIMS: usize = 3;
const SITES: usize = 5;
const Q: f64 = 0.3;

/// The workload with site `slow` cut to five tuples that every other
/// tuple beats on every dimension: its local skyline is tiny, so it drains
/// at once, and its cover proves it dominates no other site's candidate.
fn data(slow: u32) -> Vec<Vec<UncertainTuple>> {
    let mut sites = common::sites(N, DIMS, 31, SITES);
    let worst = sites.iter().flatten().flat_map(|t| t.values().to_vec()).fold(0.0, f64::max);
    let shifted = sites[slow as usize]
        .iter()
        .take(5)
        .map(|t| {
            let values = t.values().iter().map(|v| v + worst + 1.0).collect();
            UncertainTuple::new(t.id(), values, t.prob()).expect("shifted tuple")
        })
        .collect();
    sites[slow as usize] = shifted;
    sites
}

/// A tuple at `site` that dominates every other tuple.
fn spike(site: u32) -> UncertainTuple {
    let p = Probability::new(0.9).expect("valid probability");
    UncertainTuple::new(TupleId::new(site, 1_000_000), vec![-1.0; DIMS], p).expect("spike")
}

fn configs() -> Vec<(QueryConfig, bool)> {
    let base = QueryConfig::new(Q).expect("valid threshold");
    let batched = base.batch_size(dsud_core::BatchSize::Fixed(16));
    vec![(base, false), (base, true), (batched, false), (batched, true)]
}

/// Holds `outcome` to the centralized Eq. 3 answer over `data`.
fn assert_baseline(outcome: &QueryOutcome, data: &[Vec<UncertainTuple>], at: &str) {
    let mask = SubspaceMask::full(DIMS).expect("full mask");
    let want = baseline::run(data, DIMS, Q, mask, &BandwidthMeter::new()).expect("baseline runs");
    let mut got: Vec<_> = outcome.skyline.iter().map(|e| (e.tuple.id(), e.probability)).collect();
    let mut want: Vec<_> = want.skyline.iter().map(|e| (e.tuple.id(), e.probability)).collect();
    got.sort_by_key(|e| e.0);
    want.sort_by_key(|e| e.0);
    assert_eq!(got.len(), want.len(), "{at}: answer size");
    for ((gid, gp), (wid, wp)) in got.iter().zip(&want) {
        assert_eq!(gid, wid, "{at}");
        assert!((gp - wp).abs() <= 1e-9, "{at}: {gid:?} at {gp}, baseline {wp}");
    }
}

fn with_spike(mut data: Vec<Vec<UncertainTuple>>, site: u32) -> Vec<Vec<UncertainTuple>> {
    data[site as usize].push(spike(site));
    data
}

#[test]
fn a_maintainer_insert_at_a_drained_site_is_delivered_to() {
    let slow = 2;
    let recorder = Recorder::enabled();
    let mut cluster =
        Cluster::local_instrumented(DIMS, data(slow), SiteOptions::default(), recorder.clone())
            .expect("cluster builds");
    // Before the insert, the slow site's feedback is skipped.
    cluster.run_dsud(&configs()[0].0).expect("query runs");
    assert!(recorder.counter(Counter::SkippedDeliveries) > 0, "the slow site drains early");

    Maintainer::apply_local_only(&mut cluster.fanout(), &UpdateOp::Insert(spike(slow)))
        .expect("insert applies");
    let updated = with_spike(data(slow), slow);
    for (config, edsud) in configs() {
        let outcome =
            if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) }.unwrap();
        assert_baseline(&outcome, &updated, &format!("maintainer edsud={edsud}"));
    }
}

#[test]
fn a_served_insert_at_a_drained_site_is_delivered_to() {
    let slow = 1;
    for topology in [Topology::Flat, Topology::Tree(2)] {
        let cluster = Cluster::with_topology(
            DIMS,
            data(slow),
            SiteOptions::default(),
            Recorder::default(),
            Transport::Inline,
            LinkConfig::default(),
            topology,
            None,
        )
        .expect("cluster builds");
        let options = SessionOptions { cache_capacity: 0, ..SessionOptions::default() };
        let server = SessionServer::new(cluster, options);
        server.apply_update(&UpdateOp::Insert(spike(slow))).expect("insert applies");
        let updated = with_spike(data(slow), slow);
        for (config, edsud) in configs() {
            let sink = &mut |_: &[dsud_core::SkylineEntry], _| {};
            let served = if edsud {
                server.run_edsud(&config, false, sink)
            } else {
                server.run_dsud(&config, false, sink)
            }
            .expect("query runs");
            assert_baseline(&served.outcome, &updated, &format!("{topology} edsud={edsud}"));
        }
    }
}

/// The insert arrives while its home site is quarantined: it is deferred,
/// replayed when the site rejoins, and the first query after the rejoin
/// must fold the site's new factor.
#[test]
fn a_deferred_insert_replayed_at_rejoin_is_delivered_to() {
    // A seed whose plan for some site holds a hard-fault window longer
    // than the retry budget: heartbeats walking into it quarantine that
    // site, which is then the slow one.
    let attempts = u64::from(LinkConfig::default().retry_budget) + 1;
    let long =
        |w: &dsud_core::FaultWindow| w.len >= attempts && !matches!(w.kind, FaultKind::Slow(_));
    let (seed, slow) = (1..256u64)
        .find_map(|seed| {
            (0..SITES as u32)
                .find(|&site| FaultPlan::seeded(seed, site).windows().iter().any(long))
                .map(|site| (seed, site))
        })
        .expect("some seed quarantines a site");
    let drain = (0..SITES as u32)
        .flat_map(|site| FaultPlan::seeded(seed, site).windows().to_vec())
        .map(|w| w.start + w.len)
        .max()
        .unwrap_or(0)
        + 8;

    let cluster = Cluster::with_topology(
        DIMS,
        data(slow),
        SiteOptions::default(),
        Recorder::default(),
        Transport::Inline,
        LinkConfig::default(),
        Topology::Flat,
        Some(seed),
    )
    .expect("cluster builds");
    let options = SessionOptions {
        cache_capacity: 0,
        miss_threshold: 1,
        probation_probes: 1,
        ..SessionOptions::default()
    };
    let server = SessionServer::new(cluster, options);
    let mut quarantined = Vec::new();
    for _ in 0..drain {
        quarantined.extend(server.heartbeat().quarantined);
        if quarantined.contains(&slow) {
            break;
        }
    }
    assert!(quarantined.contains(&slow), "seed {seed} quarantines site {slow}");

    server.apply_update(&UpdateOp::Insert(spike(slow))).expect("the insert is deferred");
    for _ in 0..drain {
        server.heartbeat();
    }
    assert!(server.site_states().iter().all(|s| matches!(s, SiteState::Active)));
    assert!(server.stats().resync_ops >= 1, "the deferred insert was replayed");

    let updated = with_spike(data(slow), slow);
    for (config, edsud) in configs() {
        let sink = &mut |_: &[dsud_core::SkylineEntry], _| {};
        let served = if edsud {
            server.run_edsud(&config, false, sink)
        } else {
            server.run_dsud(&config, false, sink)
        }
        .expect("query runs");
        assert!(!served.outcome.degraded, "every site is back");
        assert_baseline(&served.outcome, &updated, &format!("replayed edsud={edsud}"));
    }
}
