//! The wire-layout contract: `--wire columnar` is a pure transport
//! optimization. Against the legacy row encoding it must preserve the
//! skyline (ids, bit-exact probabilities, report order), the progressive
//! result sequence, the run statistics, and the paper's bandwidth measure
//! — message counts and tuple counts per traffic class — at every batch
//! size, pipeline depth, transport, and pool size, and through the
//! session daemon. Only the *byte* column may move (and on wide batched
//! feedback frames it must move down).

mod common;

use common::{fingerprint, Sequence};
use dsud_core::{
    update::{apply_batch, Maintainer, UpdateOp},
    BandwidthMeter, BatchSize, Cluster, PipelineDepth, QueryConfig, QueryOutcome, Recorder,
    SessionOptions, SessionServer, SiteOptions, Transport, WireFormat,
};
use dsud_uncertain::{Probability, TupleId, UncertainTuple};

const N: usize = 1_200;
const DIMS: usize = 3;
const SITES: usize = 8;
const Q: f64 = 0.3;

/// Everything the wire layout must preserve: the answer, and the
/// per-class message/tuple counts. Bytes are deliberately absent — they
/// are the one thing allowed to differ.
fn observed(outcome: &QueryOutcome) -> ((Sequence, Sequence), Vec<(u64, u64)>) {
    let t = &outcome.traffic;
    let classes = [&t.upload, &t.feedback, &t.reply, &t.control, &t.maintenance]
        .iter()
        .map(|c| (c.messages, c.tuples))
        .collect();
    (fingerprint(outcome), classes)
}

fn site_options(wire: WireFormat) -> SiteOptions {
    SiteOptions { wire, ..SiteOptions::default() }
}

fn run(
    wire: WireFormat,
    transport: Transport,
    batch: BatchSize,
    pipeline: PipelineDepth,
    pool: usize,
    edsud: bool,
) -> QueryOutcome {
    threadpool::set_pool_size(pool);
    let (data, options) = (common::sites(N, DIMS, 42, SITES), site_options(wire));
    let mut cluster = Cluster::with_transport(DIMS, data, options, Recorder::default(), transport)
        .expect("cluster builds");
    let config = QueryConfig::new(Q)
        .expect("valid threshold")
        .batch_size(batch)
        .pipeline_depth(pipeline)
        .wire_format(wire);
    let outcome = if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
    threadpool::set_pool_size(0);
    outcome.expect("query runs")
}

#[test]
fn dsud_columnar_wire_is_bit_identical_across_the_execution_matrix() {
    let reference = run(
        WireFormat::Legacy,
        Transport::Inline,
        BatchSize::Fixed(1),
        PipelineDepth::Fixed(1),
        1,
        false,
    );
    assert!(!reference.skyline.is_empty(), "workload must produce a non-trivial skyline");
    let want = fingerprint(&reference);
    for batch in [BatchSize::Fixed(1), BatchSize::Fixed(16), BatchSize::Auto] {
        for pipeline in [PipelineDepth::Fixed(1), PipelineDepth::Auto] {
            for (transport, pools) in [
                (Transport::Inline, &[1usize, 8][..]),
                (Transport::Threaded, &[8][..]),
                (Transport::Tcp, &[8][..]),
            ] {
                for &pool in pools {
                    let at = format!("{transport} batch {batch} pipeline {pipeline} pool {pool}");
                    let legacy = run(WireFormat::Legacy, transport, batch, pipeline, pool, false);
                    let columnar =
                        run(WireFormat::Columnar, transport, batch, pipeline, pool, false);
                    // Same configuration, both layouts: everything but the
                    // byte column must match, including per-class message
                    // and tuple counts.
                    assert_eq!(observed(&columnar), observed(&legacy), "{at}");
                    assert_eq!(columnar.stats, legacy.stats, "{at}");
                    // And the answer itself never drifts from the
                    // unbatched sequential reference.
                    assert_eq!(fingerprint(&columnar), want, "{at}");
                    assert_eq!(
                        columnar.tuples_transmitted(),
                        reference.tuples_transmitted(),
                        "{at}"
                    );
                }
            }
        }
    }
}

#[test]
fn edsud_columnar_wire_is_bit_identical_on_every_transport() {
    let reference =
        run(WireFormat::Legacy, Transport::Inline, BatchSize::Auto, PipelineDepth::Auto, 1, true);
    assert!(!reference.skyline.is_empty());
    for transport in [Transport::Inline, Transport::Threaded, Transport::Tcp] {
        for wire in [WireFormat::Legacy, WireFormat::Columnar] {
            let outcome = run(wire, transport, BatchSize::Auto, PipelineDepth::Auto, 8, true);
            assert_eq!(observed(&outcome), observed(&reference), "{wire} {transport}");
            assert_eq!(outcome.stats, reference.stats, "{wire} {transport}");
        }
    }
}

/// The whole point of the layout: wide batched feedback frames must get
/// *smaller*, not just stay correct. Measured at the paper's Table 3 site
/// scale so every frame clears the ~6-row byte break-even.
#[test]
fn columnar_wire_ships_fewer_feedback_bytes_on_wide_batches() {
    let wide = |wire: WireFormat| {
        let mut cluster = Cluster::with_transport(
            DIMS,
            common::sites(N, DIMS, 42, 32),
            site_options(wire),
            Recorder::default(),
            Transport::Inline,
        )
        .expect("cluster builds");
        let config = QueryConfig::new(Q)
            .expect("valid threshold")
            .batch_size(BatchSize::Fixed(16))
            .wire_format(wire);
        cluster.run_dsud(&config).expect("query runs")
    };
    let legacy = wide(WireFormat::Legacy);
    let columnar = wide(WireFormat::Columnar);
    assert_eq!(observed(&columnar), observed(&legacy));
    assert!(
        columnar.traffic.feedback.bytes < legacy.traffic.feedback.bytes,
        "columnar feedback bytes {} must undercut legacy {}",
        columnar.traffic.feedback.bytes,
        legacy.traffic.feedback.bytes
    );
}

/// Served sessions run the tagged (multiplexed) frame path; both layouts
/// must produce the same answers there too, including when queries with
/// different layouts interleave on one daemon.
#[test]
fn served_sessions_answer_identically_under_both_wire_layouts() {
    let one_shot = |q: f64, edsud: bool| -> QueryOutcome {
        run(
            WireFormat::Legacy,
            Transport::Inline,
            BatchSize::Fixed(4),
            PipelineDepth::Fixed(1),
            1,
            edsud,
        );
        let (data, options) = (common::sites(N, DIMS, 42, SITES), site_options(WireFormat::Legacy));
        let mut cluster =
            Cluster::with_transport(DIMS, data, options, Recorder::default(), Transport::Inline)
                .expect("cluster builds");
        let config = QueryConfig::new(q).expect("valid threshold").batch_size(BatchSize::Fixed(4));
        let outcome = if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
        outcome.expect("query runs")
    };

    let (data, options) = (common::sites(N, DIMS, 42, SITES), site_options(WireFormat::Columnar));
    let cluster =
        Cluster::with_transport(DIMS, data, options, Recorder::default(), Transport::Threaded)
            .expect("cluster builds");
    let server = SessionServer::new(
        cluster,
        SessionOptions { max_concurrent: 4, cache_capacity: 0, ..SessionOptions::default() },
    );

    for (q, edsud) in [(0.2, false), (0.3, true), (0.4, false), (0.5, true)] {
        let expected = one_shot(q, edsud);
        for wire in [WireFormat::Legacy, WireFormat::Columnar] {
            let config = QueryConfig::new(q)
                .expect("valid threshold")
                .batch_size(BatchSize::Fixed(4))
                .wire_format(wire);
            let served = if edsud {
                server.run_edsud(&config, false, &mut |_, _| {})
            } else {
                server.run_dsud(&config, false, &mut |_, _| {})
            }
            .expect("served query runs");
            assert_eq!(
                fingerprint(&served.outcome),
                fingerprint(&expected),
                "q={q} edsud={edsud} {wire}"
            );
        }
    }
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
            site_options(wire),
            Recorder::default(),
            Transport::Inline,
        )
        .expect("cluster builds");
        let meter = BandwidthMeter::default();
        let mask = dsud_uncertain::SubspaceMask::full(DIMS).unwrap();
        let config = QueryConfig::new(Q).expect("valid threshold").wire_format(wire);
        let (mut maintainer, outcome) =
            Maintainer::bootstrap(cluster.links_mut(), &meter, mask, &config)
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
        let skyline = apply_batch(&mut maintainer, cluster.links_mut(), &meter, &ops, true)
            .expect("maintenance runs");
        skyline.iter().map(|e| (e.tuple.id(), e.probability.to_bits())).collect()
    };
    let legacy = maintained(WireFormat::Legacy);
    let columnar = maintained(WireFormat::Columnar);
    assert!(!legacy.is_empty());
    assert_eq!(columnar, legacy);
}
