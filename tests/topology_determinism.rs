//! The topology contract: `--topology tree:<F>` is a pure fan-out
//! optimization. Against the flat star it must preserve the skyline
//! (ids, bit-exact probabilities, report order), the progressive result
//! sequence, and the run statistics at every fanout, transport, wire
//! format, pool size, and pipeline depth — aggregators are stateless
//! scatter-gather proxies, so the root still folds survival products in
//! ascending site order and every f64 multiplication happens in the same
//! order as flat. Only the *root-link frame counts* may move (and they
//! must move down: merging frames is the whole point).
//!
//! The suite also pins the failure semantics: a root link that dies under
//! a seeded [`FaultPlan`] takes out exactly its subtree — every member
//! site quarantined, every survivor exact — and replays identically on
//! inline, threaded, and TCP transports.

mod common;

use common::{fingerprint, wire_from_env};
use dsud_core::{
    Cluster, FailurePolicy, FaultKind, FaultPlan, LinkConfig, PipelineDepth, QueryConfig,
    QueryOutcome, Recorder, SiteOptions, Topology, Transport, WireFormat,
};

const N: usize = 1_200;
const DIMS: usize = 3;
/// Nine sites make every fanout in the matrix non-degenerate: tree:2 is
/// two layers deep, tree:4 and auto (⌈√9⌉ = 3) mix group sizes, and
/// tree:8 splits 8 + 1 so the root holds one wide aggregator next to a
/// narrow one.
const SITES: usize = 9;
const Q: f64 = 0.3;

fn run(
    topology: Topology,
    wire: WireFormat,
    transport: Transport,
    pipeline: PipelineDepth,
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
    let config =
        QueryConfig::new(Q).expect("valid threshold").pipeline_depth(pipeline).wire_format(wire);
    let outcome = if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
    threadpool::set_pool_size(0);
    outcome.expect("query runs")
}

const TOPOLOGIES: [Topology; 4] =
    [Topology::Tree(2), Topology::Tree(4), Topology::Tree(8), Topology::Auto];

#[test]
fn dsud_tree_topologies_are_bit_identical_across_the_execution_matrix() {
    let wire = wire_from_env();
    let reference = run(Topology::Flat, wire, Transport::Inline, PipelineDepth::Fixed(1), 1, false);
    assert!(!reference.skyline.is_empty(), "workload must produce a non-trivial skyline");
    let want = fingerprint(&reference);
    for topology in TOPOLOGIES {
        for pipeline in [PipelineDepth::Fixed(1), PipelineDepth::Auto] {
            for (transport, pools) in [
                (Transport::Inline, &[1usize, 8][..]),
                (Transport::Threaded, &[8][..]),
                (Transport::Tcp, &[8][..]),
            ] {
                for &pool in pools {
                    let at = format!("{topology} {transport} pipeline {pipeline} pool {pool}");
                    let outcome = run(topology, wire, transport, pipeline, pool, false);
                    assert_eq!(fingerprint(&outcome), want, "{at}");
                    assert_eq!(outcome.stats, reference.stats, "{at}");
                    // The paper's bandwidth measure may only *improve*: a
                    // broadcast feedback frame crosses each root link once
                    // instead of once per site, so root-link tuple counts
                    // drop with the frame counts. They must never grow.
                    assert!(
                        outcome.tuples_transmitted() <= reference.tuples_transmitted(),
                        "{at}: tree root links shipped {} tuples vs {} flat",
                        outcome.tuples_transmitted(),
                        reference.tuples_transmitted()
                    );
                }
            }
        }
    }
}

#[test]
fn edsud_tree_topologies_are_bit_identical_on_every_transport() {
    let wire = wire_from_env();
    let reference = run(Topology::Flat, wire, Transport::Inline, PipelineDepth::Auto, 1, true);
    assert!(!reference.skyline.is_empty());
    let want = fingerprint(&reference);
    for topology in TOPOLOGIES {
        for transport in [Transport::Inline, Transport::Threaded, Transport::Tcp] {
            let at = format!("{topology} {transport}");
            let outcome = run(topology, wire, transport, PipelineDepth::Auto, 8, true);
            assert_eq!(fingerprint(&outcome), want, "{at}");
            assert_eq!(outcome.stats, reference.stats, "{at}");
        }
    }
}

/// The whole point of the topology: the root-link *message* count must
/// get smaller, not just stay correct, on both wire layouts — the shared
/// meter observes only the root's own links, so under a tree it measures
/// exactly the merged traffic the aggregation layer exists to shrink.
#[test]
fn tree_topology_cuts_root_link_frames_under_both_wire_layouts() {
    for wire in [WireFormat::Legacy, WireFormat::Columnar] {
        let flat = run(Topology::Flat, wire, Transport::Inline, PipelineDepth::Fixed(1), 1, false);
        let tree =
            run(Topology::Tree(4), wire, Transport::Inline, PipelineDepth::Fixed(1), 1, false);
        assert_eq!(fingerprint(&tree), fingerprint(&flat), "{wire}");
        let flat_msgs = flat.traffic.total().messages;
        let tree_msgs = tree.traffic.total().messages;
        assert!(
            tree_msgs < flat_msgs,
            "{wire}: tree:4 shipped {tree_msgs} root-link frames vs {flat_msgs} flat — \
             merging must cut the count"
        );
    }
}

// ---------------------------------------------------------------------
// Seeded chaos under the tree: a dead aggregator link degrades exactly
// its subtree, and the whole transcript replays on every transport.
// ---------------------------------------------------------------------

/// Eight sites at fan-out 4: two root groups, `[0,1,2,3]` and
/// `[4,5,6,7]`. Chaos on a root link is keyed by the group's *first
/// member* site, so the victim plan is `seeded(seed, 0)` and the
/// survivor plan is `seeded(seed, 4)`.
const CHAOS_SITES: usize = 8;
const VICTIM_GROUP: [u32; 4] = [0, 1, 2, 3];
const SURVIVOR_GROUP: [u32; 4] = [4, 5, 6, 7];

/// Picks the first seed whose victim-link plan schedules a hard-fault
/// window long enough to defeat the whole retry budget — seeded windows
/// start within the first ~30 attempt ordinals, and the query makes far
/// more calls than that per root link, so the doomed call is reached (and
/// fails at the same deterministic ordinal) on every transport — while
/// every window on the survivor link is survivable: shorter than the
/// budget or merely slow, so the other group never degrades.
fn subtree_killing_seed() -> u64 {
    let budget = u64::from(LinkConfig::default().retry_budget);
    let attempts = budget + 1;
    let defeated = |seed: u64, site: u32| {
        FaultPlan::seeded(seed, site)
            .windows()
            .iter()
            .any(|w| w.len >= attempts && !matches!(w.kind, FaultKind::Slow(_)))
    };
    let survivable = |seed: u64, site: u32| {
        FaultPlan::seeded(seed, site)
            .windows()
            .iter()
            .all(|w| w.len <= budget || matches!(w.kind, FaultKind::Slow(_)))
    };
    (1..65_536)
        .find(|&seed| defeated(seed, VICTIM_GROUP[0]) && survivable(seed, SURVIVOR_GROUP[0]))
        .expect("some seed kills the first group's link and spares the second's")
}

fn chaos_run(transport: Transport) -> QueryOutcome {
    let data = common::sites(N, DIMS, 42, CHAOS_SITES);
    let wire = wire_from_env();
    let mut cluster = Cluster::with_topology(
        DIMS,
        data,
        SiteOptions { wire, ..SiteOptions::default() },
        Recorder::default(),
        transport,
        LinkConfig::default(),
        Topology::Tree(4),
        Some(subtree_killing_seed()),
    )
    .expect("chaos cluster builds");
    let config = QueryConfig::new(Q)
        .expect("valid threshold")
        .failure_policy(FailurePolicy::Degrade)
        .wire_format(wire);
    cluster.run_dsud(&config).expect("degrade-policy query completes")
}

#[test]
fn dead_aggregator_link_degrades_exactly_its_subtree_on_every_transport() {
    let reference = chaos_run(Transport::Inline);
    assert!(
        reference.degraded,
        "the seeded plan kills the first root link outright — the answer must be \
         stamped as an upper bound"
    );
    let quarantined: Vec<u32> =
        reference.sites.iter().filter(|s| s.quarantined.is_some()).map(|s| s.site).collect();
    // The subtree degrades as a unit: every member of the victim group,
    // no member of the survivor group.
    assert_eq!(
        quarantined, VICTIM_GROUP,
        "a dead aggregator link must quarantine exactly its member sites"
    );
    for &site in &SURVIVOR_GROUP {
        assert!(
            reference.sites[site as usize].healthy(),
            "site {site} sits behind the healthy link and must stay exact"
        );
    }
    assert!(
        !reference.skyline.is_empty(),
        "the surviving subtree still produces answers (upper-bounded)"
    );

    // Same seed, same transcript: the quarantine falls on the same attempt
    // ordinal everywhere, so threaded and TCP replays are bit-identical.
    let want = fingerprint(&reference);
    for transport in [Transport::Threaded, Transport::Tcp] {
        let outcome = chaos_run(transport);
        assert_eq!(fingerprint(&outcome), want, "{transport}");
        assert!(outcome.degraded, "{transport}");
        let replay: Vec<u32> =
            outcome.sites.iter().filter(|s| s.quarantined.is_some()).map(|s| s.site).collect();
        assert_eq!(replay, quarantined, "{transport}: the quarantine set must replay exactly");
    }
}
