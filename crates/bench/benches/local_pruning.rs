//! Local-Pruning micro-benchmark: one site with a large full-space pending
//! set answers the local skylines of seven other sites as columnar
//! feedback batches, as one site of eight does over a whole DSUD query.
//!
//! Every iteration starts the query afresh (feedback consumes the pending
//! set) and then answers all of the feedback, 16 tuples per frame, through
//! the frame fast path. The `no_pruning` case does the same with
//! Local-Pruning switched off, so the gap between the two cases is what
//! Local-Pruning costs; `start` alone is the floor under both.

use criterion::{criterion_group, criterion_main, Criterion};

use dsud_core::{LocalSite, SiteOptions, SubspaceMask};
use dsud_data::{SpatialDistribution, WorkloadSpec};
use dsud_net::{Message, Service, TupleBlock, TupleMsg};
use dsud_prtree::{bbs, PrTree};

const N: usize = 20_000;
const N_LOCAL: usize = 4_000;
const FAINT: f64 = 0.05;
const DIMS: usize = 4;
const Q: f64 = 0.3;
const BATCH: usize = 16;
const SITES: usize = 8;

fn bench(c: &mut Criterion) {
    let spec = |n| WorkloadSpec::new(n, DIMS).spatial(SpatialDistribution::Anticorrelated);
    // A small local site keeps Start and the survival products cheap
    // beside the pruning passes; its local skyline is still large.
    let local = spec(N_LOCAL).seed(23).generate().unwrap();
    let mut foreign = spec(SITES * N).seed(24).generate_partitioned(SITES).unwrap();
    foreign.remove(0);
    let mask = SubspaceMask::full(DIMS).unwrap();
    let mut feedback = Vec::new();
    for foreign in foreign {
        let tree = PrTree::bulk_load(DIMS, foreign).unwrap();
        let sky = bbs::local_skyline(&tree, Q, mask).unwrap();
        // A faint feedback tuple rarely prunes what it dominates, so the
        // pending set stays large for the whole batch sequence, as on
        // workloads where one test in hundreds is a hit.
        feedback.extend(
            sky.iter().map(|e| TupleMsg { prob: FAINT, ..TupleMsg::new(&e.tuple, e.probability) }),
        );
    }
    let frames: Vec<Vec<u8>> = feedback
        .chunks(BATCH)
        .map(|chunk| Message::FeedbackBatchC(TupleBlock::from_msgs(chunk)).encode().to_vec())
        .collect();
    let site = |pruning| {
        let options = SiteOptions { pruning, ..SiteOptions::default() };
        LocalSite::new(0, DIMS, local.clone(), options).unwrap()
    };
    let start = Message::Start { q: Q, mask, counted: true };
    let mut probe = site(true);
    let Message::Started { pending, .. } = probe.handle(start.clone()) else { unreachable!() };
    println!("local_pruning: {pending} pending candidates, {} feedback tuples", feedback.len());

    let mut group = c.benchmark_group("local_pruning");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("start", |b| {
        let mut s = site(true);
        b.iter(|| s.handle(start.clone()));
    });
    for (name, pruning) in [("feedback", true), ("feedback/no_pruning", false)] {
        group.bench_function(name, |b| {
            let mut s = site(pruning);
            let mut out = bytes::BytesMut::new();
            b.iter(|| {
                s.handle(start.clone());
                for frame in &frames {
                    s.handle_frame(frame, &mut out);
                }
                s.pending_candidates()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
