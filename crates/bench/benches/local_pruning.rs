//! Local-Pruning micro-benchmark: one site with a large full-space pending
//! set answers the local skylines of seven other sites as columnar
//! feedback batches, as one site of eight does over a whole DSUD query.
//!
//! Every iteration starts the query afresh (feedback consumes the pending
//! set) and then answers all of the feedback, 16 tuples per frame, through
//! the frame fast path. The `no_pruning` case does the same with
//! Local-Pruning switched off, so the gap between the two cases is what
//! Local-Pruning costs; `start` alone is the floor under both.
//!
//! The `round` case is the site side of one whole batched DSUD round over
//! 16 inline sites: every site starts, the round draws up to
//! [`ROUND_BUDGET`] heads, each draw sending its home the pending feedback
//! and a refill as one frame, then the closing wave delivers every site
//! the rest. Draws defer their survival factors as the coordinators send
//! them; `round/inline` computes them in every draw, so the gap between
//! the two is what one merged multi-probe pass per site saves;
//! `round/start` (the Starts alone) is the floor under both.

use std::cmp::Ordering;

use criterion::{criterion_group, criterion_main, Criterion};

use dsud_core::{LocalSite, SiteOptions, SubspaceMask};
use dsud_data::{SpatialDistribution, WorkloadSpec};
use dsud_net::{Message, Service, TupleBlock, TupleMsg};
use dsud_prtree::{bbs, PrTree};
use dsud_uncertain::UncertainTuple;

const N: usize = 20_000;
const N_LOCAL: usize = 4_000;
const FAINT: f64 = 0.05;
const DIMS: usize = 4;
const Q: f64 = 0.3;
const BATCH: usize = 16;
const SITES: usize = 8;
/// Tuples across the `round` case's sites.
const ROUND_N: usize = 9_000;
const ROUND_SITES: usize = 16;
/// Draws in the `round` case's batched round.
const ROUND_BUDGET: usize = 64;

/// A queued head in the coordinator's order: largest local probability
/// first, ties to the lowest id.
fn head_order(a: &TupleMsg, b: &TupleMsg) -> Ordering {
    a.local_prob.partial_cmp(&b.local_prob).expect("finite").then_with(|| b.id.cmp(&a.id))
}

/// The upload a refill reply carries, if any.
fn upload(reply: Message) -> Option<TupleMsg> {
    match reply {
        Message::Started { next, .. }
        | Message::Drawn { next, .. }
        | Message::Refilled { next, .. }
        | Message::Upload(next) => next,
        Message::UploadLast(t) => Some(t),
        other => panic!("not a refill reply: {other:?}"),
    }
}

/// Plays the site side of one batched DSUD round over `sites` through the
/// frame fast path (see the module docs); `defer` says whether draws
/// defer their survival factors. Returns the number of factors answered.
fn play_round(sites: &mut [LocalSite], mask: SubspaceMask, defer: bool) -> usize {
    let mut out = bytes::BytesMut::new();
    let mut call = |site: &mut LocalSite, msg: Message| {
        site.handle_frame(&msg.encode(), &mut out);
        Message::decode_slice(&out).expect("sites answer valid frames")
    };
    let start = Message::Start { q: Q, mask, counted: true };
    let mut queue: Vec<TupleMsg> =
        sites.iter_mut().filter_map(|s| upload(call(s, start.clone()))).collect();
    let mut round: Vec<TupleMsg> = Vec::new();
    let mut sent = vec![0; sites.len()];
    let pending = |round: &[TupleMsg], x: usize, sent: &mut Vec<usize>| {
        let own = |t: &&TupleMsg| t.id.site.0 as usize != x;
        let msgs: Vec<TupleMsg> = round[sent[x]..].iter().filter(own).cloned().collect();
        sent[x] = round.len();
        msgs
    };
    let mut factors = 0;
    let count = |reply: &Message| match reply {
        Message::Drawn { survivals, .. } => match &**survivals {
            Message::SurvivalBatchReplyC { survivals, .. } => survivals.len(),
            _ => 0,
        },
        Message::Refilled { survivals, .. } | Message::SurvivalBatchReplyC { survivals, .. } => {
            survivals.len()
        }
        _ => 0,
    };
    while round.len() < ROUND_BUDGET {
        let Some(at) = (0..queue.len()).max_by(|&a, &b| head_order(&queue[a], &queue[b])) else {
            break;
        };
        if queue[at].local_prob < Q {
            break;
        }
        let head = queue.swap_remove(at);
        let home = head.id.site.0 as usize;
        round.push(head);
        let msgs = pending(&round, home, &mut sent);
        // As in DSUD: only a draw the round is sure to follow may defer.
        let follows = queue.iter().any(|t| t.local_prob >= Q) && round.len() < ROUND_BUDGET;
        let msg = if msgs.is_empty() {
            if defer && follows {
                Message::RequestNextDeferred
            } else {
                Message::RequestNext
            }
        } else {
            let flush = Box::new(Message::FeedbackBatchC(TupleBlock::from_msgs(&msgs)));
            if defer && follows {
                Message::DrawDeferred(flush)
            } else {
                Message::Draw(flush)
            }
        };
        let reply = call(&mut sites[home], msg);
        factors += count(&reply);
        queue.extend(upload(reply));
    }
    for (x, site) in sites.iter_mut().enumerate() {
        let msgs = pending(&round, x, &mut sent);
        if !msgs.is_empty() {
            let reply = call(site, Message::FeedbackBatchC(TupleBlock::from_msgs(&msgs)));
            factors += count(&reply);
        }
    }
    factors
}

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
    let parts: Vec<Vec<UncertainTuple>> =
        spec(ROUND_N).seed(25).generate_partitioned(ROUND_SITES).unwrap();
    let sites = || -> Vec<LocalSite> {
        parts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                LocalSite::new(i as u32, DIMS, t.clone(), SiteOptions::default()).unwrap()
            })
            .collect()
    };
    let (mut deferring, mut inline) = (sites(), sites());
    let answered = play_round(&mut deferring, mask, true);
    assert_eq!(answered, play_round(&mut inline, mask, false), "every factor comes back");
    println!("local_pruning: one round of {ROUND_BUDGET} draws answers {answered} factors");
    // The 16 Starts alone: the floor under both round cases.
    group.bench_function("round/start", |b| {
        let mut sites = sites();
        b.iter(|| sites.iter_mut().map(|s| s.handle(start.clone())).count());
    });
    for (name, defer) in [("round", true), ("round/inline", false)] {
        group.bench_function(name, |b| {
            let mut sites = sites();
            b.iter(|| play_round(&mut sites, mask, defer));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
