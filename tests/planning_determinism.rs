//! The planning contract: `--plan sketch` is a pure *scheduling*
//! optimization. Against the static schedule it must preserve the skyline
//! (ids, bit-exact probabilities, report order), the progressive result
//! sequence, and the run statistics — planning only resizes
//! `--batch auto` rounds, and the batching contract
//! (`tests/batching_determinism.rs`) proves round size never changes the
//! answer. The counts the planner reads ride the Start replies, which
//! carry exactly the tuples of the uploads they replace, so on a flat
//! topology even `tuples_transmitted()` must match exactly; on trees the
//! round schedule changes which frames aggregators can merge, so
//! re-shipped tuple counts may legitimately move while answers hold.
//!
//! Pinned across the full execution matrix: transports × wire layouts ×
//! topologies × pool sizes, for both DSUD and e-DSUD, with explicit batch
//! sizes (where nothing is planned, so a sketch-mode run *is* the static
//! run, traffic included) and `--batch auto` (where planning actually
//! steers). The suite also pins what planning costs — no plan-phase frame
//! at all — and checks the planner's input against an oracle: the exact
//! candidate total is the sum of the sites' local skyline sizes computed
//! straight from their trees, on every topology and transport, in the
//! full space and a subspace, and over the survivors of a degraded start.

mod common;

use common::{fingerprint, wire_from_env};
use dsud_core::{
    dsud, edsud, planner, BandwidthMeter, BatchSize, Cluster, FailurePolicy, Link, LinkConfig,
    LocalSite, PipelineDepth, PlanMode, QueryConfig, QueryOutcome, Recorder, SiteOptions,
    SubspaceMask, Topology, Transport, UncertainTuple, WireFormat,
};
use dsud_net::{tcp, FaultMode, FaultyLink, LocalLink};
use dsud_prtree::bbs;

const N: usize = 1_200;
const DIMS: usize = 3;
/// Nine sites keep every tree fanout in the matrix non-degenerate (same
/// shape as the topology suite) while giving the planner a real backlog:
/// the static auto clamp sees at most nine queued candidates per round,
/// so a sketch plan that widens rounds past it is observable in frames.
const SITES: usize = 9;
const Q: f64 = 0.3;

fn full() -> SubspaceMask {
    SubspaceMask::full(DIMS).expect("full mask")
}

#[allow(clippy::too_many_arguments)]
fn run(
    plan: PlanMode,
    batch: BatchSize,
    topology: Topology,
    wire: WireFormat,
    transport: Transport,
    pool: usize,
    edsud: bool,
) -> QueryOutcome {
    threadpool::set_pool_size(pool);
    let (data, options) =
        (common::sites(N, DIMS, 42, SITES), SiteOptions { wire, ..SiteOptions::default() });
    let mut cluster = Cluster::with_topology(
        DIMS,
        data,
        options,
        Recorder::default(),
        transport,
        LinkConfig::default(),
        topology,
        None,
    )
    .expect("cluster builds");
    let config = QueryConfig::new(Q)
        .expect("valid threshold")
        .batch_size(batch)
        .pipeline_depth(PipelineDepth::Auto)
        .wire_format(wire)
        .plan_mode(plan);
    let outcome = if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
    threadpool::set_pool_size(0);
    outcome.expect("query runs")
}

/// The oracle for the planner's input: the sizes of the sites' local
/// skylines at `(q, mask)`, computed straight from each site's tree and
/// summed over the sites in `alive`.
fn exact_candidates(
    data: &[Vec<UncertainTuple>],
    q: f64,
    mask: SubspaceMask,
    alive: impl Fn(usize) -> bool,
) -> u64 {
    let mut total = 0;
    for (i, tuples) in data.iter().enumerate().filter(|(i, _)| alive(*i)) {
        let site = LocalSite::new(i as u32, DIMS, tuples.clone(), SiteOptions::default())
            .expect("site builds");
        total += bbs::local_skyline(site.tree(), q, mask).expect("skyline computes").len() as u64;
    }
    total
}

/// Asserts that a planned run sized its rounds from exactly `oracle`
/// candidates, and that planning cost no frame.
fn assert_planned_from(outcome: &QueryOutcome, oracle: u64, at: &str) {
    let plan = outcome.plan.as_ref().expect("sketch runs at batch auto carry a summary");
    assert_eq!(plan.estimated_candidates, oracle, "{at}");
    assert_eq!(plan.planned_batch, Some(planner::planned_batch(oracle)), "{at}");
    assert_eq!((plan.sketch_bytes, plan.frames, plan.merges), (0, 0, 0), "{at}: no plan frames");
}

/// Where planning runs, and what it may cost. At a fixed batch size the
/// planner has nothing to decide, so a sketch-mode run sends a plain
/// Start: no summary, and exactly the static run's traffic (bytes and
/// frames). At `--batch auto` it plans from the counted Start replies and
/// ships no plan-phase frame at all.
fn assert_plan_phase(outcome: &QueryOutcome, reference: &QueryOutcome, batch: BatchSize, at: &str) {
    if batch == BatchSize::Auto {
        let oracle = exact_candidates(&common::sites(N, DIMS, 42, SITES), Q, full(), |_| true);
        assert_planned_from(outcome, oracle, at);
    } else {
        assert!(outcome.plan.is_none(), "{at}: a fixed batch runs no plan phase");
        assert_eq!(outcome.traffic, reference.traffic, "{at}");
    }
}

#[test]
fn dsud_sketch_plan_is_bit_identical_across_the_execution_matrix() {
    let wire = wire_from_env();
    for batch in [BatchSize::Auto, BatchSize::Fixed(1), BatchSize::Fixed(4)] {
        for topology in [Topology::Flat, Topology::Auto] {
            // Tuple bandwidth is topology-dependent (aggregators re-ship
            // tuples), so the static reference is taken per topology; the
            // planning contract is plan-vs-static at a fixed shape.
            let reference =
                run(PlanMode::Static, batch, topology, wire, Transport::Inline, 1, false);
            assert!(!reference.skyline.is_empty(), "workload must produce a non-trivial skyline");
            let want = fingerprint(&reference);
            for (transport, pools) in [
                (Transport::Inline, &[1usize, 8][..]),
                (Transport::Threaded, &[8][..]),
                (Transport::Tcp, &[8][..]),
            ] {
                for &pool in pools {
                    let at = format!("batch {batch} {topology} {transport} pool {pool}");
                    let outcome =
                        run(PlanMode::Sketch, batch, topology, wire, transport, pool, false);
                    assert_eq!(fingerprint(&outcome), want, "{at}");
                    assert_eq!(outcome.stats, reference.stats, "{at}");
                    if matches!(topology, Topology::Flat) {
                        // Sketch frames carry zero tuples, so on a flat
                        // fabric the paper's bandwidth measure is exact.
                        assert_eq!(
                            outcome.tuples_transmitted(),
                            reference.tuples_transmitted(),
                            "{at}"
                        );
                    }
                    assert_plan_phase(&outcome, &reference, batch, &at);
                }
            }
        }
    }
}

#[test]
fn edsud_sketch_plan_is_bit_identical_on_every_transport() {
    let wire = wire_from_env();
    for batch in [BatchSize::Auto, BatchSize::Fixed(4)] {
        for topology in [Topology::Flat, Topology::Auto] {
            let reference =
                run(PlanMode::Static, batch, topology, wire, Transport::Inline, 1, true);
            assert!(!reference.skyline.is_empty());
            let want = fingerprint(&reference);
            for transport in [Transport::Inline, Transport::Threaded, Transport::Tcp] {
                let at = format!("batch {batch} {topology} {transport}");
                let outcome = run(PlanMode::Sketch, batch, topology, wire, transport, 8, true);
                assert_eq!(fingerprint(&outcome), want, "{at}");
                assert_eq!(outcome.stats, reference.stats, "{at}");
                if matches!(topology, Topology::Flat) {
                    assert_eq!(
                        outcome.tuples_transmitted(),
                        reference.tuples_transmitted(),
                        "{at}"
                    );
                }
                assert_plan_phase(&outcome, &reference, batch, &at);
            }
        }
    }
}

/// A static run must stay byte-for-byte what it was before the planner
/// existed: no plan summary, no sketch frames, no counter movement.
#[test]
fn static_plan_ships_no_sketch_traffic() {
    let wire = wire_from_env();
    for edsud in [false, true] {
        let outcome = run(
            PlanMode::Static,
            BatchSize::Auto,
            Topology::Flat,
            wire,
            Transport::Inline,
            1,
            edsud,
        );
        assert!(outcome.plan.is_none(), "static runs carry no plan summary");
    }
}

/// The whole point of the planner: with `--batch auto` on a deep backlog,
/// the planned cap widens rounds past the static clamp, so the *frame*
/// count on the meter must drop — while the answer fingerprint (tuples
/// included) holds still.
#[test]
fn sketch_plan_cuts_auto_round_frames_on_both_wire_layouts() {
    for wire in [WireFormat::Legacy, WireFormat::Columnar] {
        for edsud in [false, true] {
            let algo = if edsud { "edsud" } else { "dsud" };
            let stat = run(
                PlanMode::Static,
                BatchSize::Auto,
                Topology::Flat,
                wire,
                Transport::Inline,
                1,
                edsud,
            );
            let plan = run(
                PlanMode::Sketch,
                BatchSize::Auto,
                Topology::Flat,
                wire,
                Transport::Inline,
                1,
                edsud,
            );
            assert_eq!(fingerprint(&plan), fingerprint(&stat), "{algo} {wire}");
            assert_eq!(plan.tuples_transmitted(), stat.tuples_transmitted(), "{algo} {wire}");
            let summary = plan.plan.as_ref().expect("sketch run carries a summary");
            assert!(
                summary.planned_batch.is_some(),
                "{algo} {wire}: a healthy gather must produce a cap"
            );
            let static_msgs = stat.traffic.total().messages;
            let plan_msgs = plan.traffic.total().messages;
            assert!(
                plan_msgs < static_msgs,
                "{algo} {wire}: sketch plan shipped {plan_msgs} frames vs {static_msgs} \
                 static — deeper rounds must cut the count"
            );
        }
    }
}

/// The oracle for the planner's input: every planned run's candidate
/// total is the sum of the sites' local skyline sizes at the query's
/// `(q, mask)`, computed straight from the sites' trees — in the full
/// space and a 2-d subspace, for DSUD and e-DSUD, flat and `tree:2`,
/// inline and over TCP — and its cap is `planned_batch` of that total.
#[test]
fn planned_candidates_match_the_local_skyline_oracle() {
    let data = common::sites(N, DIMS, 42, SITES);
    let subspace = SubspaceMask::from_dims(&[0, 2]).expect("2-d subspace");
    for mask in [full(), subspace] {
        let oracle = exact_candidates(&data, Q, mask, |_| true);
        assert!(oracle > SITES as u64, "the workload must give the planner a backlog");
        for edsud in [false, true] {
            for topology in [Topology::Flat, Topology::Tree(2)] {
                for transport in [Transport::Inline, Transport::Tcp] {
                    let at =
                        format!("mask {:#b} edsud={edsud} {topology} {transport}", mask.bits());
                    let mut cluster = Cluster::with_topology(
                        DIMS,
                        data.clone(),
                        SiteOptions::default(),
                        Recorder::default(),
                        transport,
                        LinkConfig::default(),
                        topology,
                        None,
                    )
                    .expect("cluster builds");
                    let config = QueryConfig::new(Q)
                        .expect("valid threshold")
                        .batch_size(BatchSize::Auto)
                        .plan_mode(PlanMode::Sketch)
                        .subspace(mask);
                    let outcome =
                        if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) }
                            .expect("query runs");
                    assert_planned_from(&outcome, oracle, &at);
                }
            }
        }
    }
}

/// Under `Degrade`, a site lost before it answers the Start counts no
/// candidates: the total covers exactly the survivors.
#[test]
fn degraded_start_counts_only_the_survivors() {
    const DEAD: usize = 4;
    let data = common::sites(N, DIMS, 42, SITES);
    let oracle = exact_candidates(&data, Q, full(), |i| i != DEAD);
    assert!(oracle < exact_candidates(&data, Q, full(), |_| true), "the dead site held candidates");
    let config = QueryConfig::new(Q)
        .expect("valid threshold")
        .batch_size(BatchSize::Auto)
        .plan_mode(PlanMode::Sketch)
        .failure_policy(FailurePolicy::Degrade);
    for edsud in [false, true] {
        let meter = BandwidthMeter::default();
        let mut links: Vec<Box<dyn Link>> = Vec::new();
        for (i, tuples) in data.iter().enumerate() {
            let site = LocalSite::new(i as u32, DIMS, tuples.clone(), SiteOptions::default())
                .expect("site builds");
            let link = LocalLink::new(site, meter.clone());
            links.push(if i == DEAD {
                Box::new(FaultyLink::new(link, FaultMode::Disconnect, 0))
            } else {
                Box::new(link)
            });
        }
        let outcome = if edsud {
            edsud::run(&mut links, &meter, full(), &config)
        } else {
            dsud::run(&mut links, &meter, full(), &config)
        }
        .expect("a degraded query completes");
        assert!(outcome.degraded, "edsud={edsud}: the dead site is quarantined");
        assert!(!outcome.sites[DEAD].healthy(), "edsud={edsud}");
        assert_planned_from(&outcome, oracle, &format!("degraded edsud={edsud}"));
    }
}

/// The raw-links entries (`dsud::run`, `edsud::run`) give a config exactly
/// the schedule the cluster path gives it: same answer, progress, stats,
/// traffic, and plan phase.
#[test]
fn raw_links_entry_runs_the_cluster_schedule() {
    let wire = WireFormat::Columnar;
    let config = QueryConfig::new(Q)
        .expect("valid threshold")
        .batch_size(BatchSize::Auto)
        .plan_mode(PlanMode::Sketch)
        .pipeline_depth(PipelineDepth::Auto)
        .wire_format(wire);
    let mask = full();
    for transport in [Transport::Inline, Transport::Tcp] {
        for edsud in [false, true] {
            let at = format!("{transport} edsud={edsud}");
            let (data, options) =
                (common::sites(N, DIMS, 42, SITES), SiteOptions { wire, ..SiteOptions::default() });
            let mut cluster =
                Cluster::with_transport(DIMS, data, options, Recorder::default(), transport)
                    .expect("cluster builds");
            let clustered =
                if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) }
                    .expect("cluster query runs");

            let (data, options) =
                (common::sites(N, DIMS, 42, SITES), SiteOptions { wire, ..SiteOptions::default() });
            let meter = BandwidthMeter::default();
            let mut servers = Vec::new();
            let mut links: Vec<Box<dyn Link>> = Vec::new();
            for (i, tuples) in data.into_iter().enumerate() {
                let site = LocalSite::new(i as u32, DIMS, tuples, options).expect("site builds");
                links.push(match transport {
                    Transport::Tcp => {
                        let server = tcp::spawn_site(site).expect("site server starts");
                        let link = tcp::TcpLink::connect_with(
                            server.addr(),
                            meter.clone(),
                            LinkConfig::default(),
                        )
                        .expect("link connects");
                        servers.push(server);
                        Box::new(link)
                    }
                    _ => Box::new(LocalLink::new(site, meter.clone())),
                });
            }
            let raw = if edsud {
                edsud::run(&mut links, &meter, mask, &config)
            } else {
                dsud::run(&mut links, &meter, mask, &config)
            }
            .expect("raw query runs");

            assert_eq!(fingerprint(&raw), fingerprint(&clustered), "{at}");
            assert_eq!(raw.stats, clustered.stats, "{at}");
            assert_eq!(raw.traffic, clustered.traffic, "{at}");
            assert!(clustered.plan.is_some(), "{at}: batch auto runs the plan phase");
            assert_eq!(raw.plan, clustered.plan, "{at}");
        }
    }
}
