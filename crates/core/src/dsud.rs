//! The DSUD algorithm (paper Section 5.1).
//!
//! Each site computes its threshold-qualified local skyline `SKY(D_i)` and
//! streams it to the server in descending local-probability order, one
//! representative at a time. The server keeps at most one candidate per
//! site in a priority queue `L`; each iteration it takes the head (largest
//! local skyline probability), broadcasts it to the other `m − 1` sites,
//! multiplies the returned survival products into the exact global
//! probability (Lemma 1), reports the tuple if it meets `q`, and asks the
//! head's home site for its next representative. The broadcast doubles as
//! *feedback*: sites drop pending candidates whose accumulated upper bound
//! falls below `q` (Local-Pruning phase).
//!
//! The coordinator runs one round schedule. The paper's iteration is a
//! round with a budget of one candidate; with a batch size above one
//! ([`BatchSize`](crate::BatchSize)) a round draws up to `K` heads and
//! coalesces their feedback into one [`Message::FeedbackBatch`] frame per
//! site — same answer, ~`K×` fewer messages (see `crate::batch` for the
//! invariant that keeps the runs bit-identical).
//!
//! Termination is safe once `L` empties or its head's local probability
//! falls below `q`: by Corollary 1 every unfetched tuple is bounded by
//! that head.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dsud_net::{BandwidthMeter, FanPlan, Fanout, Link, Message, TupleMsg};
use dsud_obs::Counter;
use dsud_uncertain::{SkylineEntry, SubspaceMask};

use crate::batch::BatchRound;
use crate::cluster::routes_with_covers;
use crate::degrade::FailureTracker;
use crate::progress::Reporter;
use crate::{planner, Error, QueryConfig, QueryOutcome, RunStats, SiteOrder};

/// A candidate in the server's priority queue `L`, ordered so that a
/// max-heap pops the largest local skyline probability first, ties broken
/// toward the lowest tuple id. This replaces a linear `argmax` scan per
/// round with an `O(log m)` pop/push pair.
struct QueueEntry(TupleMsg);

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .local_prob
            .partial_cmp(&other.0.local_prob)
            .expect("probabilities are finite")
            .then_with(|| other.0.id.cmp(&self.0.id))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for QueueEntry {}

/// Runs DSUD over raw site links: `links[i]` must address site `i`, and
/// `mask` is `config`'s subspace already resolved for the sites' data
/// space (see [`QueryConfig::resolve_mask`]). Every other setting comes
/// from `config`, and the run follows exactly the schedule
/// [`crate::Cluster::run_dsud`] gives the same config on a flat topology:
/// with no deployment to keep the sites' dominance covers in, it asks for
/// them first (one `CoverRequest` per link, before the query's traffic
/// is measured), so it leaves out the same feedback to drained sites.
///
/// Under [`FailurePolicy::Degrade`](crate::FailurePolicy::Degrade) a site
/// whose transport stays broken after retries is quarantined — excluded
/// from every later broadcast and refill — and the query completes over
/// the survivors with [`QueryOutcome::degraded`] set (see
/// [`crate::degrade`] for what that does to the reported probabilities).
///
/// A [`QueryConfig::deadline_ms`] cancels the run at the first round
/// boundary after it elapses: the partial progressive outcome gathered so
/// far is returned with [`QueryOutcome::cancelled`] set, every in-flight
/// frame already drained, and [`Counter::Cancelled`] bumped.
///
/// Each draw sends its home site one request, the feedback flush and the
/// refill in one [`Message::Draw`] frame (see the crate-private `batch`
/// module). With an overlapped [`QueryConfig::pipeline`] that request goes
/// on the wire when it is issued, and the last draw's request travels
/// during the round's closing survival wave (see the crate-private
/// `pipeline` module). Replies fold in send
/// order, so the answer, stats, and tuple traffic are bit-identical to
/// `PipelineDepth::Fixed(1)` on healthy runs; under `Degrade` a pipelined
/// run may have sent a refill that the sequential schedule would have
/// skipped after a mid-round quarantine (the reply is discarded, so the
/// answer still matches).
///
/// # Errors
///
/// Returns [`Error::InvalidThreshold`], [`Error::ProtocolViolation`], or —
/// under [`FailurePolicy::Strict`](crate::FailurePolicy::Strict) only —
/// [`Error::SiteFailed`].
pub fn run(
    links: &mut [Box<dyn Link>],
    meter: &BandwidthMeter,
    mask: SubspaceMask,
    config: &QueryConfig,
) -> Result<QueryOutcome, Error> {
    let rec = meter.recorder();
    let routes = routes_with_covers(links, FanPlan::flat(links.len()), rec);
    run_on(&mut Fanout::tree(links, &routes, rec.clone()), meter, mask, config, &mut |_, _| {})
}

/// [`run`] over an arbitrary [`Fanout`] — the actual coordinator. A flat
/// fan-out reproduces the per-link traffic of the pre-topology coordinator
/// byte for byte; a tree fan-out routes the same per-site message
/// sequences through aggregator links, and because the fan-out returns
/// replies in ascending site order either way, the survival folds (and
/// hence the answer) are bit-identical.
///
/// `sink` sees the answer as it is confirmed: one call per closed round
/// with the entries that round confirmed (a round of budget one confirms
/// at most one), plus whether every site's survival factor was folded into
/// them (`false` once a site is quarantined — the entries are then upper
/// bounds). The entries confirmed before a `limit` break go out before the
/// break, so the calls concatenate to exactly [`QueryOutcome::skyline`].
pub(crate) fn run_on(
    fan: &mut Fanout<'_>,
    meter: &BandwidthMeter,
    mask: SubspaceMask,
    config: &QueryConfig,
    sink: &mut dyn FnMut(&[SkylineEntry], bool),
) -> Result<QueryOutcome, Error> {
    let q = config.q;
    if !(q > 0.0 && q <= 1.0) {
        return Err(Error::InvalidThreshold(q));
    }
    let mut out = Reporter::new(meter, config.limit, sink);
    let deadline = config.deadline_ms.map(std::time::Duration::from_millis);
    let mut cancelled = false;
    let rec = meter.recorder().clone();
    let query_span = rec.span("query:dsud");
    let order = SiteOrder::new(fan.len());
    let mut tracker = FailureTracker::new(order.len(), config.failure, rec.clone());
    let mut stats = RunStats::default();
    let mut round = BatchRound::new(order.len(), config, mask, &rec);

    // To-Server phase, first iteration: every site extracts its local
    // skyline and sends its best representative. The broadcast fans the
    // extraction across sites (replies stay in ascending site order, so
    // the queue is identical to a sequential poll). A planning run's
    // counted Start also learns how many candidates each site holds.
    let counted = planner::counts(config);
    let mut candidates = 0u64;
    let mut queue: BinaryHeap<QueueEntry> = BinaryHeap::with_capacity(order.len());
    {
        let _span = rec.span("to-server:start");
        let start = Message::Start { q, mask, counted };
        for (x, reply) in order.verify(fan.broadcast(|_| true, &start)) {
            let (next, pending) = tracker.started(x, reply, counted)?;
            candidates += pending + u64::from(next.is_some());
            if let Some(t) = next {
                queue.push(QueueEntry(t));
            }
        }
    }

    // Size `--batch auto` rounds from the exact candidate total. A pure
    // scheduling decision — see `crate::planner` for why it cannot change
    // the answer.
    let (budget, plan_summary) = planner::schedule(candidates, config);

    // Corollary 1: once the head's local probability falls below `q`,
    // nothing fetched or unfetched can still qualify.
    let qualifies =
        |queue: &BinaryHeap<QueueEntry>| queue.peek().is_some_and(|h| h.0.local_prob >= q);
    while qualifies(&queue) {
        // Deadline checks sit on round boundaries only, so a cancelled run
        // never leaves a frame in flight: links and session state are
        // released exactly as a completed run releases them.
        if deadline.is_some_and(|d| out.elapsed() >= d) {
            cancelled = true;
            rec.incr(Counter::Cancelled);
            break;
        }
        let _round_span = rec.span("round");
        rec.incr(Counter::Rounds);
        round.reset(budget);

        // Draws: each flushes the home site's pending feedback and refills
        // from it in one frame (see `crate::batch`). The last draw's request
        // stays pending across the Server-Delivery phase.
        {
            let _span = rec.span("to-server");
            while !round.is_full() && qualifies(&queue) {
                let cand = queue.pop().expect("head qualifies").0;
                stats.iterations += 1;
                stats.broadcasts += 1;
                rec.incr(Counter::FeedbackBroadcasts);
                let home = cand.id.site.0 as usize;
                round.push(cand);
                let may_finish = out.may_finish(round.len());
                if let Some(next) = round.draw(fan, home, may_finish, &mut tracker, &mut stats)? {
                    queue.push(QueueEntry(next));
                }
            }
        }

        // Server-Delivery phase: assemble the exact global probabilities.
        // The round's feedback is put in flight on every other site at
        // once, so concurrent transports overlap the survival
        // computations. Quarantined sites are skipped: their factors are
        // lost, which is exactly what makes a degraded answer an upper
        // bound.
        {
            let _span = rec.span("server-delivery");
            round.close(fan, &mut tracker, &mut stats)?;
        }
        let full = (0..round.len()).any(|j| {
            let global = round.global_probability(j);
            global >= q && out.confirm(round.candidate(j), global)
        });
        out.flush(!tracker.degraded());

        // Next To-Server phase: the last draw's refill (a site quarantined
        // mid-round keeps its slot empty).
        let _span = rec.span("to-server");
        if let Some(next) = round.settle_last(fan, !full, &mut tracker, &mut stats)? {
            queue.push(QueueEntry(next));
        }
        if full {
            break;
        }
    }
    drop(query_span);

    let (skyline, progress, traffic) = out.finish();
    Ok(QueryOutcome {
        skyline,
        progress,
        traffic,
        stats,
        degraded: tracker.degraded(),
        cancelled,
        sites: tracker.statuses(),
        plan: plan_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(site: u32, seq: u64, local_prob: f64) -> TupleMsg {
        TupleMsg {
            id: dsud_uncertain::TupleId::new(site, seq),
            values: vec![1.0, 1.0],
            prob: 0.5,
            local_prob,
        }
    }

    #[test]
    fn heap_pops_by_probability_then_lowest_id() {
        let mut queue = BinaryHeap::new();
        for m in [msg(0, 0, 0.5), msg(1, 0, 0.9), msg(2, 0, 0.9)] {
            queue.push(QueueEntry(m));
        }
        let order: Vec<(u32, f64)> =
            std::iter::from_fn(|| queue.pop()).map(|e| (e.0.id.site.0, e.0.local_prob)).collect();
        assert_eq!(order, vec![(1, 0.9), (2, 0.9), (0, 0.5)]);
        assert!(queue.pop().is_none());
    }

    #[test]
    fn rejects_bad_threshold() {
        let mut links: Vec<Box<dyn Link>> = Vec::new();
        let meter = BandwidthMeter::new();
        let mask = SubspaceMask::full(2).unwrap();
        let config = QueryConfig { q: 0.0, ..QueryConfig::new(0.5).unwrap() };
        assert!(matches!(run(&mut links, &meter, mask, &config), Err(Error::InvalidThreshold(_))));
    }
}
