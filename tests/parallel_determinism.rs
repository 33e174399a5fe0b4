//! The sequential-fallback contract of the compute layer: a query's
//! observable outcome — skyline contents and order, exact probabilities
//! (to the bit), traffic accounting, and coordinator stats — must be
//! identical for every thread-pool size, and for every transport.
//!
//! Workload shape follows the paper's Table 3 defaults (d = 3, q = 0.3,
//! anticorrelated-ish uniform data over m sites), scaled down for CI.

mod common;

use common::fingerprint;
use dsud_core::{Cluster, QueryConfig, QueryOutcome, Recorder, SiteOptions, Transport};

const N: usize = 4_000;
const DIMS: usize = 3;
const SITES: usize = 8;
const Q: f64 = 0.3;

/// Everything observable about an outcome except wall-clock timings: the
/// answer and progress sequence bit for bit, each progress event's traffic
/// watermark, the traffic, and the run statistics.
fn assert_same_run(outcome: &QueryOutcome, reference: &QueryOutcome, at: &str) {
    let stamps = |o: &QueryOutcome| {
        o.progress.events().iter().map(|e| e.tuples_transmitted).collect::<Vec<_>>()
    };
    assert_eq!(fingerprint(outcome), fingerprint(reference), "{at}");
    assert_eq!(stamps(outcome), stamps(reference), "{at}");
    assert_eq!(outcome.traffic, reference.traffic, "{at}");
    assert_eq!(outcome.stats, reference.stats, "{at}");
}

fn run_at_pool(pool: usize, transport: Transport, edsud: bool) -> QueryOutcome {
    threadpool::set_pool_size(pool);
    let mut cluster = Cluster::with_transport(
        DIMS,
        common::sites(N, DIMS, 42, SITES),
        SiteOptions::default(),
        Recorder::default(),
        transport,
    )
    .expect("cluster builds");
    let config = QueryConfig::new(Q).expect("valid threshold");
    let outcome = if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
    threadpool::set_pool_size(0);
    outcome.expect("query runs")
}

#[test]
fn dsud_outcome_is_pool_size_invariant() {
    let reference = run_at_pool(1, Transport::Inline, false);
    assert!(!reference.skyline.is_empty(), "workload must produce a non-trivial skyline");
    for pool in [2usize, 3, 8] {
        let outcome = run_at_pool(pool, Transport::Inline, false);
        assert_same_run(&outcome, &reference, &format!("pool {pool}"));
    }
}

#[test]
fn edsud_outcome_is_pool_size_invariant() {
    let reference = run_at_pool(1, Transport::Inline, true);
    assert!(!reference.skyline.is_empty());
    for pool in [2usize, 3, 8] {
        let outcome = run_at_pool(pool, Transport::Inline, true);
        assert_same_run(&outcome, &reference, &format!("pool {pool}"));
    }
}

#[test]
fn transports_agree_on_every_observable() {
    let inline = run_at_pool(4, Transport::Inline, false);
    for transport in [Transport::Threaded, Transport::Tcp] {
        let other = run_at_pool(4, transport, false);
        assert_same_run(&other, &inline, &transport.to_string());
    }
}

#[test]
fn transport_parses_and_displays_round_trip() {
    for (name, expected) in
        [("inline", Transport::Inline), ("threaded", Transport::Threaded), ("tcp", Transport::Tcp)]
    {
        let parsed: Transport = name.parse().expect("known transport");
        assert_eq!(parsed, expected);
        assert_eq!(parsed.to_string(), name);
    }
    assert!("carrier-pigeon".parse::<Transport>().is_err());
}
