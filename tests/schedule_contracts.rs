//! What each transport setting must *buy*, and the contracts the
//! differential oracle (`tests/differential.rs`) cannot state as
//! equalities. The oracle proves that no setting changes an answer; this
//! suite proves that each one pays for itself and pins what must not drift:
//!
//! * batching cuts messages, and `auto` rounds keep the answer;
//! * absolute traffic across the round schedule's setting matrix;
//! * overlapped refills cut wall-clock round latency;
//! * the columnar layout ships fewer feedback bytes, and maintains the
//!   replicated skyline exactly;
//! * a tree topology cuts root-link frames, and a dead aggregator link
//!   degrades exactly its subtree on every transport;
//! * the planner reads exact candidate counts and costs no frame; the
//!   raw-links entry runs the cluster schedule;
//! * transports parse and display by name.

mod common;

use std::time::{Duration, Instant};

use common::{fingerprint, Case, Sequence};
use dsud_core::{
    dsud, edsud, planner,
    update::{apply_batch, Maintainer, UpdateOp},
    BandwidthMeter, BatchSize, Cluster, FailurePolicy, FaultKind, FaultPlan, Link, LinkConfig,
    LocalSite, PipelineDepth, QueryConfig, QueryOutcome, Recorder, SiteOptions, SubspaceMask,
    Topology, Transport, UncertainTuple, WireFormat,
};
use dsud_net::{tcp, ChannelLink, ChaosLink, DelayedService, LocalLink};
use dsud_prtree::bbs;
use dsud_uncertain::{Probability, TupleId};

const DIMS: usize = 3;
const Q: f64 = 0.3;

fn full() -> SubspaceMask {
    SubspaceMask::full(DIMS).expect("full mask")
}

/// The answer and progress sequence bit for bit, the paper's bandwidth
/// measure in tuples, and the run statistics.
fn assert_same_run(outcome: &QueryOutcome, reference: &QueryOutcome, at: &str) {
    assert_eq!(fingerprint(outcome), fingerprint(reference), "{at}");
    assert_eq!(outcome.tuples_transmitted(), reference.tuples_transmitted(), "{at}");
    assert_eq!(outcome.stats, reference.stats, "{at}");
}

// ---------------------------------------------------------------------
// Batching
// ---------------------------------------------------------------------

/// The per-round message saving is `O(K·m) → O(m + K)`, so it grows with
/// the site count; measure it at the paper's Table 3 scale (`m = 32` here,
/// `m = 60` in the benchmarks).
#[test]
fn batching_cuts_messages_at_least_five_fold() {
    for edsud in [false, true] {
        let wide = Case { edsud, ..Case::base(1_500, 32) };
        let unbatched = common::run(&wide);
        let batched = common::run(&Case { batch: BatchSize::Fixed(16), ..wide });
        assert_eq!(fingerprint(&batched), fingerprint(&unbatched));

        let m1 = unbatched.traffic.total();
        let m16 = batched.traffic.total();
        // e-DSUD's traffic is dominated by expunge refills — one
        // RequestNext/Upload pair per expunged candidate, which ships no
        // feedback and so cannot be coalesced — hence its overall ratio
        // sits below DSUD's even though its feedback frames shrink just
        // as much.
        let floor = if edsud { 2 } else { 5 };
        assert!(
            m16.messages * floor <= m1.messages,
            "edsud={edsud}: {} batched messages vs {} unbatched (need {floor}x)",
            m16.messages,
            m1.messages
        );
        assert!(
            m16.bytes < m1.bytes,
            "edsud={edsud}: {} batched bytes vs {} unbatched",
            m16.bytes,
            m1.bytes
        );
        // The paper's tuple measure is untouched: the same tuples flow,
        // just in fewer frames.
        assert_eq!(m16.tuples, m1.tuples, "edsud={edsud}");
    }
}

#[test]
fn auto_batching_tracks_queue_depth() {
    // `auto` rounds are sized from the exact candidate backlog (at least
    // 16); outcomes still match the fixed-16 run exactly.
    let base = Case::base(1_500, 8);
    let auto = common::run(&Case { batch: BatchSize::Auto, ..base });
    let fixed = common::run(&Case { batch: BatchSize::Fixed(16), ..base });
    assert_same_run(&auto, &fixed, "auto vs fixed 16");
}

/// One pinned row: algorithm, batch, pipeline, topology, limit → the
/// observed traffic, run statistics, and skyline fingerprint.
fn pin_row(
    edsud: bool,
    batch: BatchSize,
    pipeline: PipelineDepth,
    topology: Topology,
    limit: Option<usize>,
) -> (String, String) {
    let case = Case { edsud, batch, pipeline, topology, limit, ..Case::base(1_500, 8) };
    let outcome = common::run(&case);
    let key = format!(
        "{} b{batch} p{pipeline} {topology} l{}",
        if edsud { "edsud" } else { "dsud" },
        limit.map_or("-".to_string(), |k| k.to_string())
    );
    let t = &outcome.traffic;
    let classes: Vec<String> = [&t.upload, &t.feedback, &t.reply, &t.control, &t.maintenance]
        .iter()
        .map(|c| format!("{}/{}/{}", c.messages, c.tuples, c.bytes))
        .collect();
    let s = &outcome.stats;
    // FNV-1a over the skyline's ids and probability bits, in report order.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for e in &outcome.skyline {
        let id = e.tuple.id();
        for word in [u64::from(id.site.0), id.seq, e.probability.to_bits()] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let value = format!(
        "{} | {}/{}/{}/{} | {} {hash:016x}",
        classes.join(" "),
        s.iterations,
        s.broadcasts,
        s.expunged,
        s.pruned_at_sites,
        outcome.skyline.len()
    );
    (key, value)
}

/// Absolute traffic, statistics, and answers pinned across the round
/// schedule's whole setting matrix. The differential oracle compares each
/// setting against a reference run; this table catches drift that moves
/// every setting at once. Traffic classes are `messages/tuples/bytes` for
/// upload, feedback, reply, control, and maintenance; statistics are
/// `iterations/broadcasts/expunged/pruned`; then the skyline size and an
/// FNV-1a hash of its ids and probability bits. The wire is fixed to the
/// legacy layout because bytes are pinned.
#[test]
fn round_schedule_traffic_is_pinned() {
    const PINNED: &[(&str, &str)] = &[
        ("dsud b1 p1 flat l-", "66/65/3576 395/395/21725 395/0/6715 66/0/194 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b1 p1 flat l4", "24/24/1320 119/119/6545 119/0/2023 24/0/152 0/0/0 | 17/17/0/57 | 4 4001a6f502258eb1"),
        ("dsud b1 p1 tree:2 l-", "60/65/4470 124/124/9020 124/0/10890 60/0/888 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b1 p1 tree:2 l4", "18/24/1626 34/34/2516 34/0/3264 18/0/300 0/0/0 | 17/17/0/57 | 4 4001a6f502258eb1"),
        ("dsud b1 pauto flat l-", "66/65/3576 395/395/21725 395/0/6715 66/0/194 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b1 pauto flat l4", "24/24/1320 119/119/6545 119/0/2023 24/0/152 0/0/0 | 17/17/0/57 | 4 4001a6f502258eb1"),
        ("dsud b1 pauto tree:2 l-", "60/65/4470 124/124/9020 124/0/10890 60/0/888 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b1 pauto tree:2 l4", "18/24/1626 34/34/2516 34/0/3264 18/0/300 0/0/0 | 17/17/0/57 | 4 4001a6f502258eb1"),
        ("dsud b16 p1 flat l-", "66/65/4962 78/395/21770 28/0/2788 16/0/144 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b16 p1 flat l4", "39/39/3427 42/224/12332 16/0/1056 13/0/141 0/0/0 | 32/32/0/68 | 4 4001a6f502258eb1"),
        ("dsud b16 p1 tree:2 l-", "60/65/5856 58/395/22684 8/0/3080 10/0/188 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b16 p1 tree:2 l4", "33/39/3943 32/224/12828 6/0/1230 7/0/146 0/0/0 | 32/32/0/68 | 4 4001a6f502258eb1"),
        ("dsud b16 pauto flat l-", "66/65/4962 78/395/21770 28/0/2788 16/0/144 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b16 pauto flat l4", "39/39/3427 42/224/12332 16/0/1056 13/0/141 0/0/0 | 32/32/0/68 | 4 4001a6f502258eb1"),
        ("dsud b16 pauto tree:2 l-", "60/65/5856 58/395/22684 8/0/3080 10/0/188 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b16 pauto tree:2 l4", "33/39/3943 32/224/12828 6/0/1230 7/0/146 0/0/0 | 32/32/0/68 | 4 4001a6f502258eb1"),
        ("dsud bauto p1 flat l-", "66/65/5199 71/395/21736 20/0/2492 15/0/143 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud bauto p1 flat l4", "27/27/1746 49/140/7814 40/0/1528 18/0/146 0/0/0 | 20/20/0/57 | 4 4001a6f502258eb1"),
        ("dsud bauto p1 tree:2 l-", "60/65/6093 57/395/22589 6/0/2702 9/0/174 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud bauto p1 tree:2 l4", "21/27/2094 24/140/8326 15/0/1963 12/0/216 0/0/0 | 20/20/0/57 | 4 4001a6f502258eb1"),
        ("dsud bauto pauto flat l-", "66/65/5199 71/395/21736 20/0/2492 15/0/143 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud bauto pauto flat l4", "27/27/1746 49/140/7814 40/0/1528 18/0/146 0/0/0 | 20/20/0/57 | 4 4001a6f502258eb1"),
        ("dsud bauto pauto tree:2 l-", "60/65/6093 57/395/22589 6/0/2702 9/0/174 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud bauto pauto tree:2 l4", "21/27/2094 24/140/8326 15/0/1963 12/0/216 0/0/0 | 20/20/0/57 | 4 4001a6f502258eb1"),
        ("edsud b1 p1 flat l-", "70/67/3688 283/283/15565 283/0/4811 70/0/198 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b1 p1 flat l4", "25/25/1375 70/70/3850 70/0/1190 25/0/153 0/0/0 | 18/10/8/55 | 4 4001a6f502258eb1"),
        ("edsud b1 p1 tree:2 l-", "64/67/4638 91/91/6592 91/0/7813 64/0/944 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b1 p1 tree:2 l4", "19/25/1695 20/20/1480 20/0/1920 19/0/314 0/0/0 | 18/10/8/55 | 4 4001a6f502258eb1"),
        ("edsud b1 pauto flat l-", "70/67/3688 283/283/15565 283/0/4811 70/0/198 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b1 pauto flat l4", "25/25/1375 70/70/3850 70/0/1190 25/0/153 0/0/0 | 18/10/8/55 | 4 4001a6f502258eb1"),
        ("edsud b1 pauto tree:2 l-", "64/67/4638 91/91/6592 91/0/7813 64/0/944 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b1 pauto tree:2 l4", "19/25/1695 20/20/1480 20/0/1920 19/0/314 0/0/0 | 18/10/8/55 | 4 4001a6f502258eb1"),
        ("edsud b16 p1 flat l-", "70/67/5012 63/283/15641 19/0/1759 26/0/154 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b16 p1 flat l4", "32/32/2533 25/112/6190 8/0/448 15/0/143 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud b16 p1 tree:2 l-", "64/67/5962 50/283/16395 6/0/1960 20/0/328 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b16 p1 tree:2 l4", "26/32/2951 20/112/6490 3/0/535 9/0/174 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud b16 pauto flat l-", "70/67/5012 63/283/15641 19/0/1759 26/0/154 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b16 pauto flat l4", "32/32/2533 25/112/6190 8/0/448 15/0/143 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud b16 pauto tree:2 l-", "64/67/5962 50/283/16395 6/0/1960 20/0/328 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b16 pauto tree:2 l4", "26/32/2951 20/112/6490 3/0/535 9/0/174 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud bauto p1 flat l-", "70/67/5177 59/283/15622 14/0/1574 25/0/153 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud bauto p1 flat l4", "28/28/1801 33/84/4710 24/0/872 19/0/147 0/0/0 | 21/12/9/55 | 4 4001a6f502258eb1"),
        ("edsud bauto p1 tree:2 l-", "64/67/6127 49/283/16339 4/0/1720 19/0/314 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud bauto p1 tree:2 l4", "22/28/2163 18/84/5064 9/0/1133 13/0/230 0/0/0 | 21/12/9/55 | 4 4001a6f502258eb1"),
        ("edsud bauto pauto flat l-", "70/67/5177 59/283/15622 14/0/1574 25/0/153 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud bauto pauto flat l4", "28/28/1801 33/84/4710 24/0/872 19/0/147 0/0/0 | 21/12/9/55 | 4 4001a6f502258eb1"),
        ("edsud bauto pauto tree:2 l-", "64/67/6127 49/283/16339 4/0/1720 19/0/314 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud bauto pauto tree:2 l4", "22/28/2163 18/84/5064 9/0/1133 13/0/230 0/0/0 | 21/12/9/55 | 4 4001a6f502258eb1"),
    ];
    let mut observed = Vec::new();
    for edsud in [false, true] {
        for batch in [BatchSize::Fixed(1), BatchSize::Fixed(16), BatchSize::Auto] {
            for pipeline in [PipelineDepth::Fixed(1), PipelineDepth::Auto] {
                for topology in [Topology::Flat, Topology::Tree(2)] {
                    for limit in [None, Some(4)] {
                        observed.push(pin_row(edsud, batch, pipeline, topology, limit));
                    }
                }
            }
        }
    }
    if observed.len() != PINNED.len() || observed.iter().zip(PINNED).any(|(o, p)| o.1 != p.1) {
        // The whole observed table, ready to paste after a deliberate
        // protocol change.
        for (k, v) in &observed {
            println!("        (\"{k}\", \"{v}\"),");
        }
    }
    assert_eq!(observed.len(), PINNED.len());
    for ((key, value), &(pinned_key, pinned_value)) in observed.iter().zip(PINNED) {
        assert_eq!(key, pinned_key);
        assert_eq!(value, pinned_value, "{key}");
    }
}

// ---------------------------------------------------------------------
// Pipelining
// ---------------------------------------------------------------------

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
        let config = QueryConfig::new(Q).expect("valid threshold").pipeline_depth(pipeline);
        let outcome = dsud::run(&mut links, &meter, full(), &config).expect("query runs");
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

// ---------------------------------------------------------------------
// Wire layout
// ---------------------------------------------------------------------

/// The answer and the per-class message/tuple counts: everything the wire
/// layout must preserve. Bytes are the one thing allowed to differ.
fn observed(outcome: &QueryOutcome) -> ((Sequence, Sequence), Vec<(u64, u64)>) {
    let t = &outcome.traffic;
    let classes = [&t.upload, &t.feedback, &t.reply, &t.control, &t.maintenance]
        .iter()
        .map(|c| (c.messages, c.tuples))
        .collect();
    (fingerprint(outcome), classes)
}

/// The whole point of the layout: wide batched feedback frames must get
/// *smaller*, not just stay correct. Measured at the paper's Table 3 site
/// scale so every frame clears the ~6-row byte break-even.
#[test]
fn columnar_wire_ships_fewer_feedback_bytes_on_wide_batches() {
    let wide = Case { batch: BatchSize::Fixed(16), ..Case::base(1_200, 32) };
    let legacy = common::run(&wide);
    let columnar = common::run(&Case { wire: WireFormat::Columnar, ..wide });
    assert_eq!(observed(&columnar), observed(&legacy));
    assert!(
        columnar.traffic.feedback.bytes < legacy.traffic.feedback.bytes,
        "columnar feedback bytes {} must undercut legacy {}",
        columnar.traffic.feedback.bytes,
        legacy.traffic.feedback.bytes
    );
}

/// Continuous maintenance replicates `SKY(H)` over `ReplicaSync` frames
/// and repairs deletions over `RegionQuery`/`RegionReply`; the columnar
/// twins of both must maintain the identical skyline.
#[test]
fn maintenance_over_columnar_replicas_matches_legacy() {
    let maintained = |wire: WireFormat| -> Vec<(TupleId, u64)> {
        let mut cluster = Cluster::with_transport(
            DIMS,
            common::sites(600, DIMS, 7, 4),
            SiteOptions { wire, ..SiteOptions::default() },
            Recorder::default(),
            Transport::Inline,
        )
        .expect("cluster builds");
        let meter = BandwidthMeter::default();
        let config = QueryConfig::new(Q).expect("valid threshold").wire_format(wire);
        let (mut maintainer, outcome) =
            Maintainer::bootstrap(&mut cluster.fanout(), &meter, full(), &config)
                .expect("bootstrap runs");
        // Delete a current member (forces a region re-evaluation) and
        // insert a strong new tuple (forces a membership check).
        let victim = outcome.skyline[0].tuple.clone();
        let newcomer = UncertainTuple::new(
            TupleId::new(1, 50_000),
            vec![0.01; DIMS],
            Probability::new(0.9).unwrap(),
        )
        .unwrap();
        let ops = [UpdateOp::Delete(victim), UpdateOp::Insert(newcomer)];
        let skyline = apply_batch(&mut maintainer, &mut cluster.fanout(), &meter, &ops, true)
            .expect("maintenance runs");
        skyline.iter().map(|e| (e.tuple.id(), e.probability.to_bits())).collect()
    };
    let legacy = maintained(WireFormat::Legacy);
    let columnar = maintained(WireFormat::Columnar);
    assert!(!legacy.is_empty());
    assert_eq!(columnar, legacy);
}

// ---------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------

/// The whole point of the topology: the root-link *message* count must
/// get smaller, not just stay correct, on both wire layouts — the shared
/// meter observes only the root's own links, so under a tree it measures
/// exactly the merged traffic the aggregation layer exists to shrink.
#[test]
fn tree_topology_cuts_root_link_frames_under_both_wire_layouts() {
    for wire in [WireFormat::Legacy, WireFormat::Columnar] {
        let flat = common::run(&Case { wire, ..Case::base(1_200, 9) });
        let tree = common::run(&Case { wire, topology: Topology::Tree(4), ..Case::base(1_200, 9) });
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

#[test]
fn dead_aggregator_link_degrades_exactly_its_subtree_on_every_transport() {
    let chaos = Case {
        topology: Topology::Tree(4),
        fault: Some(subtree_killing_seed()),
        ..Case::base(1_200, CHAOS_SITES)
    };
    let reference = common::run(&chaos);
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
        let outcome = common::run(&Case { transport, ..chaos });
        assert_eq!(fingerprint(&outcome), want, "{transport}");
        assert!(outcome.degraded, "{transport}");
        let replay: Vec<u32> =
            outcome.sites.iter().filter(|s| s.quarantined.is_some()).map(|s| s.site).collect();
        assert_eq!(replay, quarantined, "{transport}: the quarantine set must replay exactly");
    }
}

// ---------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------

/// Nine sites keep every tree fanout non-degenerate while giving the
/// planner a real backlog.
const PLAN_SITES: usize = 9;

/// An overlapped `--batch auto` query.
fn planned() -> Case {
    Case { batch: BatchSize::Auto, pipeline: PipelineDepth::Auto, ..Case::base(1_200, PLAN_SITES) }
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
    let plan = outcome.plan.as_ref().expect("runs at batch auto carry a summary");
    assert_eq!(plan.estimated_candidates, oracle, "{at}");
    assert_eq!(plan.planned_batch, Some(planner::planned_batch(oracle)), "{at}");
    assert_eq!((plan.sketch_bytes, plan.plan_us), (0, 0), "{at}: no plan phase");
}

/// A fixed batch is never planned ("static" in run reports): at the cap
/// an `auto` run planned, `Fixed(cap)` ships the same frames, tuples and
/// answer, with no plan summary and exactly the 4-byte candidate count
/// less on each site's Start reply.
#[test]
fn static_plan_ships_no_sketch_traffic() {
    for edsud in [false, true] {
        let auto = common::run(&Case { edsud, ..planned() });
        let cap = auto.plan.as_ref().and_then(|p| p.planned_batch).expect("auto runs plan");
        let fixed = common::run(&Case { edsud, batch: BatchSize::Fixed(cap), ..planned() });
        assert!(fixed.plan.is_none(), "edsud={edsud}: fixed runs carry no plan summary");
        assert_same_run(&fixed, &auto, &format!("edsud={edsud} fixed {cap} vs auto"));
        let (a, f) = (&auto.traffic, &fixed.traffic);
        assert_eq!(a.upload.messages, f.upload.messages, "edsud={edsud}");
        assert_eq!(a.upload.bytes, f.upload.bytes + 4 * PLAN_SITES as u64, "edsud={edsud}");
        for (a, f) in [(&a.feedback, &f.feedback), (&a.reply, &f.reply), (&a.control, &f.control)] {
            assert_eq!(a, f, "edsud={edsud}: only the Start replies may differ");
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
    let base = Case { batch: BatchSize::Auto, ..Case::base(1_200, PLAN_SITES) };
    let data = base.data();
    let subspace = SubspaceMask::from_dims(&[0, 2]).expect("2-d subspace");
    for mask in [full(), subspace] {
        let oracle = exact_candidates(&data, Q, mask, |_| true);
        assert!(oracle > PLAN_SITES as u64, "the workload must give the planner a backlog");
        for edsud in [false, true] {
            for topology in [Topology::Flat, Topology::Tree(2)] {
                for transport in [Transport::Inline, Transport::Tcp] {
                    let case = Case { mask, edsud, topology, transport, ..base };
                    let at =
                        format!("mask {:#b} edsud={edsud} {topology} {transport}", mask.bits());
                    assert_planned_from(&common::run(&case), oracle, &at);
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
    let data = common::sites(1_200, DIMS, 42, PLAN_SITES);
    let oracle = exact_candidates(&data, Q, full(), |i| i != DEAD);
    assert!(oracle < exact_candidates(&data, Q, full(), |_| true), "the dead site held candidates");
    let config = QueryConfig::new(Q)
        .expect("valid threshold")
        .batch_size(BatchSize::Auto)
        .failure_policy(FailurePolicy::Degrade);
    for edsud in [false, true] {
        let meter = BandwidthMeter::default();
        let mut links: Vec<Box<dyn Link>> = Vec::new();
        for (i, tuples) in data.iter().enumerate() {
            let site = LocalSite::new(i as u32, DIMS, tuples.clone(), SiteOptions::default())
                .expect("site builds");
            let link = LocalLink::new(site, meter.clone());
            links.push(if i == DEAD {
                let dead = FaultPlan::quiet().window(1, u64::MAX, FaultKind::Disconnect);
                Box::new(ChaosLink::new(link, dead))
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
/// traffic, and plan.
#[test]
fn raw_links_entry_runs_the_cluster_schedule() {
    for transport in [Transport::Inline, Transport::Tcp] {
        for edsud in [false, true] {
            let at = format!("{transport} edsud={edsud}");
            let case = Case { wire: WireFormat::Columnar, transport, edsud, ..planned() };
            let clustered = common::run(&case);

            let meter = BandwidthMeter::default();
            let mut servers = Vec::new();
            let mut links: Vec<Box<dyn Link>> = Vec::new();
            let options = SiteOptions { wire: case.wire, ..SiteOptions::default() };
            for (i, tuples) in case.data().into_iter().enumerate() {
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
            let config = case.config();
            let raw = if edsud {
                edsud::run(&mut links, &meter, case.mask, &config)
            } else {
                dsud::run(&mut links, &meter, case.mask, &config)
            }
            .expect("raw query runs");

            assert_eq!(fingerprint(&raw), fingerprint(&clustered), "{at}");
            assert_eq!(raw.stats, clustered.stats, "{at}");
            assert_eq!(raw.traffic, clustered.traffic, "{at}");
            assert!(clustered.plan.is_some(), "{at}: batch auto runs the plan");
            assert_eq!(raw.plan, clustered.plan, "{at}");
        }
    }
}

// ---------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------

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
