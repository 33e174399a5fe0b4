//! The pipelining contract: overlapping round `r`'s survival scatter with
//! round `r+1`'s refills (`--pipeline W`, W > 1) must never change the
//! answer. Skyline contents and order, exact probabilities (to the bit),
//! the progress sequence, tuple traffic, and the run statistics must all
//! match the `--pipeline 1` run at every window, pool size, and transport
//! — completions are folded in ascending site order regardless of arrival,
//! so only wall-clock time may shrink.
//!
//! Progress-event traffic stamps are legitimately excluded from the
//! comparison (same rationale as `batching_determinism.rs`): a pipelined
//! round has already metered the next round's refill request when it
//! reports its results, so the "tuples transmitted so far" watermark at
//! each report can differ even though the reported tuples and totals do
//! not.

mod common;

use std::time::{Duration, Instant};

use common::{assert_matches_oracle, fingerprint, wire_from_env};
use dsud_core::{
    dsud, BandwidthMeter, BatchSize, Cluster, Link, LinkConfig, LocalSite, PipelineDepth,
    QueryConfig, QueryOutcome, Recorder, SiteOptions, SubspaceMask, Transport,
};
use dsud_net::{ChannelLink, DelayedService};

const N: usize = 1_500;
const DIMS: usize = 3;
const SITES: usize = 8;
const Q: f64 = 0.3;

/// Everything pipelining must preserve: the answer and progress sequence
/// bit for bit, the paper's bandwidth measure in tuples, and the run
/// statistics.
fn assert_same_run(outcome: &QueryOutcome, reference: &QueryOutcome, at: &str) {
    assert_eq!(fingerprint(outcome), fingerprint(reference), "{at}");
    assert_eq!(outcome.tuples_transmitted(), reference.tuples_transmitted(), "{at}");
    assert_eq!(outcome.stats, reference.stats, "{at}");
}

fn run(
    pipeline: PipelineDepth,
    batch: BatchSize,
    transport: Transport,
    pool: usize,
    edsud: bool,
) -> QueryOutcome {
    threadpool::set_pool_size(pool);
    let mut cluster = Cluster::with_transport(
        DIMS,
        common::sites(N, DIMS, 42, SITES),
        SiteOptions::default(),
        Recorder::default(),
        transport,
    )
    .expect("cluster builds");
    let config = QueryConfig::new(Q)
        .expect("valid threshold")
        .batch_size(batch)
        .pipeline_depth(pipeline)
        .wire_format(wire_from_env());
    let outcome = if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
    threadpool::set_pool_size(0);
    outcome.expect("query runs")
}

const WINDOWS: [PipelineDepth; 3] =
    [PipelineDepth::Fixed(2), PipelineDepth::Fixed(8), PipelineDepth::Auto];

/// The full determinism matrix from the issue: window {1, 2, 8, auto} ×
/// inline/threaded/tcp × pool {1, 2, 8}. Inline carries every pool size;
/// the thread-backed transports sample the extremes so the suite stays
/// under CI budget while still crossing the scheduler.
const MATRIX: [(Transport, &[usize]); 3] =
    [(Transport::Inline, &[1, 2, 8]), (Transport::Threaded, &[1, 8]), (Transport::Tcp, &[1, 8])];

#[test]
fn dsud_pipelined_outcome_is_bit_identical_to_sequential() {
    let reference = run(PipelineDepth::Fixed(1), BatchSize::Fixed(1), Transport::Inline, 1, false);
    assert!(!reference.skyline.is_empty(), "workload must produce a non-trivial skyline");
    assert_matches_oracle(&reference, &common::sites(N, DIMS, 42, SITES), DIMS, Q);
    for window in WINDOWS {
        for (transport, pools) in MATRIX {
            for &pool in pools {
                let outcome = run(window, BatchSize::Fixed(1), transport, pool, false);
                let at = format!("pipeline {window} {transport} pool {pool}");
                assert_same_run(&outcome, &reference, &at);
            }
        }
    }
}

#[test]
fn edsud_pipelined_outcome_is_bit_identical_to_sequential() {
    let reference = run(PipelineDepth::Fixed(1), BatchSize::Fixed(1), Transport::Inline, 1, true);
    assert!(!reference.skyline.is_empty());
    assert_matches_oracle(&reference, &common::sites(N, DIMS, 42, SITES), DIMS, Q);
    for window in WINDOWS {
        for (transport, pools) in MATRIX {
            for &pool in pools {
                let outcome = run(window, BatchSize::Fixed(1), transport, pool, true);
                let at = format!("pipeline {window} {transport} pool {pool}");
                assert_same_run(&outcome, &reference, &at);
            }
        }
    }
}

/// Pipelining composes with batching: the overlapped schedule coalesces
/// the same feedback frames, so a batched pipelined run matches the
/// batched sequential run bit for bit — including message counts.
#[test]
fn pipelining_composes_with_batching() {
    for edsud in [false, true] {
        let sequential =
            run(PipelineDepth::Fixed(1), BatchSize::Fixed(16), Transport::Inline, 1, edsud);
        for window in WINDOWS {
            for batch in [BatchSize::Fixed(16), BatchSize::Auto] {
                let pipelined = run(window, batch, Transport::Inline, 1, edsud);
                let at = format!("edsud={edsud} pipeline {window} batch {batch}");
                assert_same_run(&pipelined, &sequential, &at);
            }
        }
    }
}

/// `--limit` rounds fall back to the sequential schedule (the legacy path
/// never requests a refill for a round that may terminate the query), so
/// progressive runs must stay bit-identical too — including traffic.
#[test]
fn pipelining_preserves_limited_runs_exactly() {
    for edsud in [false, true] {
        threadpool::set_pool_size(1);
        let mut outcomes = Vec::new();
        for window in [PipelineDepth::Fixed(1), PipelineDepth::Fixed(8)] {
            let mut cluster = Cluster::with_transport(
                DIMS,
                common::sites(N, DIMS, 42, SITES),
                SiteOptions::default(),
                Recorder::default(),
                Transport::Inline,
            )
            .expect("cluster builds");
            let config = QueryConfig::new(Q)
                .expect("valid threshold")
                .limit(4)
                .pipeline_depth(window)
                .wire_format(wire_from_env());
            let outcome =
                if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
            outcomes.push(outcome.expect("query runs"));
        }
        threadpool::set_pool_size(0);
        let (reference, pipelined) = (&outcomes[0], &outcomes[1]);
        assert_eq!(reference.skyline.len(), 4);
        assert_same_run(pipelined, reference, &format!("edsud={edsud}"));
        assert_eq!(pipelined.traffic.total(), reference.traffic.total(), "edsud={edsud}");
    }
}

/// Wall-clock benefit, measured with an injected per-request delay on the
/// threaded transport. A sequential DSUD round pays the survival scatter
/// and the refill back to back (≈ 2δ); the pipelined round issues the
/// refill before the scatter and completes both together (≈ δ). The
/// asserted floor (1.3×) sits below the ≈ 2× theory to absorb scheduler
/// noise.
#[test]
fn overlapped_refills_cut_round_latency() {
    const DELAY: Duration = Duration::from_millis(3);
    const SPEEDUP_SITES: usize = 4;

    let data = common::sites(400, DIMS, 7, SPEEDUP_SITES);
    let mask = SubspaceMask::full(DIMS).expect("full mask");

    let timed_run = |pipeline: PipelineDepth| -> (QueryOutcome, Duration) {
        let meter = BandwidthMeter::default();
        let mut links: Vec<Box<dyn Link>> = Vec::new();
        for (i, tuples) in data.clone().into_iter().enumerate() {
            let site = LocalSite::new(i as u32, DIMS, tuples, SiteOptions::default())
                .expect("site builds");
            links.push(Box::new(ChannelLink::spawn_with(
                DelayedService::new(site, DELAY),
                meter.clone(),
                LinkConfig::default(),
            )));
        }
        let started = Instant::now();
        let config = QueryConfig::new(Q)
            .expect("valid threshold")
            .pipeline_depth(pipeline)
            .wire_format(wire_from_env());
        let outcome = dsud::run(&mut links, &meter, mask, &config).expect("query runs");
        (outcome, started.elapsed())
    };

    let (sequential, sequential_time) = timed_run(PipelineDepth::Fixed(1));
    let (pipelined, pipelined_time) = timed_run(PipelineDepth::Auto);

    assert_same_run(&pipelined, &sequential, "delayed links");
    assert!(
        sequential_time.as_secs_f64() >= 1.3 * pipelined_time.as_secs_f64(),
        "expected >= 1.3x speedup from overlap, got {:.0}ms sequential vs {:.0}ms pipelined",
        sequential_time.as_secs_f64() * 1e3,
        pipelined_time.as_secs_f64() * 1e3,
    );
}
