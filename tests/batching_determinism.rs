//! The batching contract: coalescing `K` candidates per feedback round
//! (`--batch K`) must never change the answer. Skyline contents and order,
//! exact probabilities (to the bit), per-site prune counters, and tuple
//! traffic must all match the `--batch 1` run at every batch size, pool
//! size, and transport — only *message* and *byte* counts may shrink.
//!
//! Progress-event traffic stamps are legitimately excluded from the
//! comparison: a batched round reports its results after the round's
//! coalesced frames, so the "tuples transmitted so far" watermark at each
//! report differs even though the reported tuples and totals do not.

mod common;

use common::{assert_matches_oracle, fingerprint, wire_from_env};
use dsud_core::{
    BatchSize, Cluster, LinkConfig, PipelineDepth, QueryConfig, QueryOutcome, Recorder,
    SiteOptions, Topology, Transport, WireFormat,
};

const N: usize = 1_500;
const DIMS: usize = 3;
const SITES: usize = 8;
const Q: f64 = 0.3;

/// Everything batching must preserve: the answer and progress sequence
/// bit for bit, and the paper's bandwidth measure in tuples.
fn assert_same_run(outcome: &QueryOutcome, reference: &QueryOutcome, at: &str) {
    assert_eq!(fingerprint(outcome), fingerprint(reference), "{at}");
    assert_eq!(outcome.tuples_transmitted(), reference.tuples_transmitted(), "{at}");
    assert_eq!(outcome.stats, reference.stats, "{at}");
}

fn run(batch: BatchSize, transport: Transport, pool: usize, edsud: bool) -> QueryOutcome {
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
        .wire_format(wire_from_env());
    let outcome = if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
    threadpool::set_pool_size(0);
    outcome.expect("query runs")
}

const BATCHES: [BatchSize; 3] = [BatchSize::Fixed(4), BatchSize::Fixed(16), BatchSize::Auto];

#[test]
fn dsud_batched_outcome_is_bit_identical_to_unbatched() {
    let reference = run(BatchSize::Fixed(1), Transport::Inline, 1, false);
    assert!(!reference.skyline.is_empty(), "workload must produce a non-trivial skyline");
    assert_matches_oracle(&reference, &common::sites(N, DIMS, 42, SITES), DIMS, Q);
    for batch in BATCHES {
        for (transport, pools) in [
            (Transport::Inline, &[1usize, 2, 8][..]),
            (Transport::Threaded, &[2][..]),
            (Transport::Tcp, &[2][..]),
        ] {
            for &pool in pools {
                let outcome = run(batch, transport, pool, false);
                assert_same_run(
                    &outcome,
                    &reference,
                    &format!("batch {batch} {transport} pool {pool}"),
                );
            }
        }
    }
}

#[test]
fn edsud_batched_outcome_is_bit_identical_to_unbatched() {
    let reference = run(BatchSize::Fixed(1), Transport::Inline, 1, true);
    assert!(!reference.skyline.is_empty());
    assert_matches_oracle(&reference, &common::sites(N, DIMS, 42, SITES), DIMS, Q);
    for batch in BATCHES {
        for (transport, pools) in [
            (Transport::Inline, &[1usize, 2, 8][..]),
            (Transport::Threaded, &[2][..]),
            (Transport::Tcp, &[2][..]),
        ] {
            for &pool in pools {
                let outcome = run(batch, transport, pool, true);
                assert_same_run(
                    &outcome,
                    &reference,
                    &format!("batch {batch} {transport} pool {pool}"),
                );
            }
        }
    }
}

/// The per-round message saving is `O(K·m) → O(m + K)`, so it grows with
/// the site count; measure it at the paper's Table 3 scale (`m = 32` here,
/// `m = 60` in the benchmarks) rather than the 8-site determinism matrix.
fn run_wide(batch: BatchSize, edsud: bool) -> QueryOutcome {
    let mut cluster = Cluster::with_transport(
        DIMS,
        common::sites(N, DIMS, 42, 32),
        SiteOptions::default(),
        Recorder::default(),
        Transport::Inline,
    )
    .expect("cluster builds");
    let config = QueryConfig::new(Q)
        .expect("valid threshold")
        .batch_size(batch)
        .wire_format(wire_from_env());
    let outcome = if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
    outcome.expect("query runs")
}

#[test]
fn batching_cuts_messages_at_least_five_fold() {
    for edsud in [false, true] {
        let unbatched = run_wide(BatchSize::Fixed(1), edsud);
        let batched = run_wide(BatchSize::Fixed(16), edsud);
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
    // With 8 sites the queue never exceeds 8 candidates, so `auto` rounds
    // coalesce up to 8; outcomes still match the fixed-16 run exactly.
    let auto = run(BatchSize::Auto, Transport::Inline, 1, false);
    let fixed = run(BatchSize::Fixed(16), Transport::Inline, 1, false);
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
    let mut cluster = Cluster::with_topology(
        DIMS,
        common::sites(N, DIMS, 42, SITES),
        SiteOptions::default(),
        Recorder::default(),
        Transport::Inline,
        LinkConfig::default(),
        topology,
        None,
    )
    .expect("cluster builds");
    let mut config = QueryConfig::new(Q)
        .expect("valid threshold")
        .batch_size(batch)
        .pipeline_depth(pipeline)
        .wire_format(WireFormat::Legacy);
    if let Some(k) = limit {
        config = config.limit(k);
    }
    let outcome = if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) };
    let outcome = outcome.expect("query runs");
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
/// schedule's whole setting matrix. The suites above compare one mode
/// against another; this table catches drift that moves every mode at
/// once. Traffic classes are `messages/tuples/bytes` for upload,
/// feedback, reply, control, and maintenance; statistics are
/// `iterations/broadcasts/expunged/pruned`; then the skyline size and an
/// FNV-1a hash of its ids and probability bits. The wire is fixed to the
/// legacy layout because bytes are pinned.
#[test]
fn round_schedule_traffic_is_pinned() {
    const PINNED: &[(&str, &str)] = &[
        ("dsud b1 p1 flat l-", "73/65/3583 455/455/25025 455/0/7735 73/0/201 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b1 p1 flat l4", "24/24/1320 119/119/6545 119/0/2023 24/0/152 0/0/0 | 17/17/0/57 | 4 4001a6f502258eb1"),
        ("dsud b1 p1 tree:2 l-", "67/65/4575 130/130/9620 130/0/12480 67/0/986 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b1 p1 tree:2 l4", "18/24/1626 34/34/2516 34/0/3264 18/0/300 0/0/0 | 17/17/0/57 | 4 4001a6f502258eb1"),
        ("dsud b1 pauto flat l-", "73/65/3583 455/455/25025 455/0/7735 73/0/201 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b1 pauto flat l4", "24/24/1320 119/119/6545 119/0/2023 24/0/152 0/0/0 | 17/17/0/57 | 4 4001a6f502258eb1"),
        ("dsud b1 pauto tree:2 l-", "67/65/4575 130/130/9620 130/0/12480 67/0/986 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b1 pauto tree:2 l4", "18/24/1626 34/34/2516 34/0/3264 18/0/300 0/0/0 | 17/17/0/57 | 4 4001a6f502258eb1"),
        ("dsud b16 p1 flat l-", "73/65/6551 91/455/25081 35/0/1855 17/0/145 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b16 p1 flat l4", "39/39/3427 42/224/12332 16/0/1056 13/0/141 0/0/0 | 32/32/0/68 | 4 4001a6f502258eb1"),
        ("dsud b16 p1 tree:2 l-", "67/65/7543 66/455/26139 10/0/2220 11/0/202 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b16 p1 tree:2 l4", "33/39/3943 32/224/12828 6/0/1230 7/0/146 0/0/0 | 32/32/0/68 | 4 4001a6f502258eb1"),
        ("dsud b16 pauto flat l-", "73/65/6551 91/455/25081 35/0/1855 17/0/145 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b16 pauto flat l4", "39/39/3427 42/224/12332 16/0/1056 13/0/141 0/0/0 | 32/32/0/68 | 4 4001a6f502258eb1"),
        ("dsud b16 pauto tree:2 l-", "67/65/7543 66/455/26139 10/0/2220 11/0/202 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud b16 pauto tree:2 l4", "33/39/3943 32/224/12828 6/0/1230 7/0/146 0/0/0 | 32/32/0/68 | 4 4001a6f502258eb1"),
        ("dsud bauto p1 flat l-", "73/65/5595 115/455/25197 63/0/3123 21/0/149 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud bauto p1 flat l4", "31/31/2345 40/168/9288 24/0/1224 15/0/143 0/0/0 | 24/24/0/59 | 4 4001a6f502258eb1"),
        ("dsud bauto p1 tree:2 l-", "67/65/6587 70/455/26467 18/0/3780 15/0/258 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud bauto p1 tree:2 l4", "25/31/2749 25/168/9733 9/0/1485 9/0/174 0/0/0 | 24/24/0/59 | 4 4001a6f502258eb1"),
        ("dsud bauto pauto flat l-", "73/65/5595 115/455/25197 63/0/3123 21/0/149 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud bauto pauto flat l4", "31/31/2345 40/168/9288 24/0/1224 15/0/143 0/0/0 | 24/24/0/59 | 4 4001a6f502258eb1"),
        ("dsud bauto pauto tree:2 l-", "67/65/6587 70/455/26467 18/0/3780 15/0/258 0/0/0 | 65/65/0/84 | 34 81858570372ac850"),
        ("dsud bauto pauto tree:2 l4", "25/31/2749 25/168/9733 9/0/1485 9/0/174 0/0/0 | 24/24/0/59 | 4 4001a6f502258eb1"),
        ("edsud b1 p1 flat l-", "75/67/3693 336/336/18480 336/0/5712 75/0/203 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b1 p1 flat l4", "25/25/1375 70/70/3850 70/0/1190 25/0/153 0/0/0 | 18/10/8/55 | 4 4001a6f502258eb1"),
        ("edsud b1 p1 tree:2 l-", "69/67/4713 96/96/7104 96/0/9216 69/0/1014 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b1 p1 tree:2 l4", "19/25/1695 20/20/1480 20/0/1920 19/0/314 0/0/0 | 18/10/8/55 | 4 4001a6f502258eb1"),
        ("edsud b1 pauto flat l-", "75/67/3693 336/336/18480 336/0/5712 75/0/203 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b1 pauto flat l4", "25/25/1375 70/70/3850 70/0/1190 25/0/153 0/0/0 | 18/10/8/55 | 4 4001a6f502258eb1"),
        ("edsud b1 pauto tree:2 l-", "69/67/4713 96/96/7104 96/0/9216 69/0/1014 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b1 pauto tree:2 l4", "19/25/1695 20/20/1480 20/0/1920 19/0/314 0/0/0 | 18/10/8/55 | 4 4001a6f502258eb1"),
        ("edsud b16 p1 flat l-", "75/67/6290 70/336/18543 21/0/1001 26/0/154 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b16 p1 flat l4", "32/32/2533 25/112/6190 8/0/448 15/0/143 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud b16 p1 tree:2 l-", "69/67/7310 55/336/19378 6/0/1220 20/0/328 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b16 p1 tree:2 l4", "26/32/2951 20/112/6490 3/0/535 9/0/174 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud b16 pauto flat l-", "75/67/6290 70/336/18543 21/0/1001 26/0/154 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b16 pauto flat l4", "32/32/2533 25/112/6190 8/0/448 15/0/143 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud b16 pauto tree:2 l-", "69/67/7310 55/336/19378 6/0/1220 20/0/328 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud b16 pauto tree:2 l4", "26/32/2951 20/112/6490 3/0/535 9/0/174 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud bauto p1 flat l-", "75/67/5358 94/336/18631 49/0/2217 30/0/158 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud bauto p1 flat l4", "32/32/2275 31/112/6218 16/0/784 17/0/145 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud bauto p1 tree:2 l-", "69/67/6378 59/331/19375 14/0/2728 24/0/384 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud bauto p1 tree:2 l4", "26/32/2693 21/112/6571 6/0/958 11/0/202 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud bauto pauto flat l-", "75/67/5358 94/336/18631 49/0/2217 30/0/158 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud bauto pauto flat l4", "32/32/2275 31/112/6218 16/0/784 17/0/145 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
        ("edsud bauto pauto tree:2 l-", "69/67/6378 59/331/19375 14/0/2728 24/0/384 0/0/0 | 67/48/19/82 | 34 595755a79668295c"),
        ("edsud bauto pauto tree:2 l4", "26/32/2693 21/112/6571 6/0/958 11/0/202 0/0/0 | 25/16/9/60 | 4 4001a6f502258eb1"),
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
