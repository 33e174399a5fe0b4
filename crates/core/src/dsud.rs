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
//! With a batch size above one ([`BatchSize`](crate::BatchSize)), a round
//! draws up to `K` heads and coalesces their feedback into one
//! [`Message::FeedbackBatch`] frame per site — same answer, ~`K×` fewer
//! messages (see `crate::batch` for the invariant that keeps the runs
//! bit-identical).
//!
//! Termination is safe once `L` empties or its head's local probability
//! falls below `q`: by Corollary 1 every unfetched tuple is bounded by
//! that head.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dsud_net::{BandwidthMeter, Fanout, Link, Message, TupleMsg};
use dsud_obs::Counter;
use dsud_uncertain::{SkylineEntry, SubspaceMask};

use crate::batch::BatchRound;
use crate::degrade::FailureTracker;
use crate::pipeline::InflightRefill;
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
/// [`crate::Cluster::run_dsud`] gives the same config on a flat topology.
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
/// With an overlapped [`QueryConfig::pipeline`] the round's refill request
/// is put on the wire *before* the survival scatter and completed after
/// the fold (see the crate-private `pipeline` module). Completions fold in
/// send order, so the answer, stats, and tuple traffic are bit-identical
/// to `PipelineDepth::Fixed(1)` on healthy runs; under `Degrade` a
/// pipelined run may have sent a refill that the sequential schedule would
/// have skipped after a mid-round quarantine (the reply is discarded, so
/// the answer still matches).
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
    run_on(&mut Fanout::flat(links), meter, mask, config, &mut |_, _| {})
}

/// [`run`] over an arbitrary [`Fanout`] — the actual coordinator. A flat
/// fan-out reproduces the per-link traffic of the pre-topology coordinator
/// byte for byte; a tree fan-out routes the same per-site message
/// sequences through aggregator links, and because the fan-out returns
/// replies in ascending site order either way, the survival folds (and
/// hence the answer) are bit-identical.
///
/// `sink` sees the answer as it is confirmed: one call per closed round
/// with the entries that round confirmed (one-candidate rounds confirm at
/// most one), plus whether every site's survival factor was folded into
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
    let overlap = config.pipeline.overlapped();
    rec.add(Counter::PipelineDepth, config.pipeline.window() as u64);
    let order = SiteOrder::new(fan.len());
    let mut tracker = FailureTracker::new(order.len(), config.failure, rec.clone());
    let mut stats = RunStats::default();

    // To-Server phase, first iteration: every site extracts its local
    // skyline and sends its best representative. The broadcast fans the
    // extraction across sites (replies stay in ascending site order, so
    // the queue is identical to a sequential poll).
    let mut queue: BinaryHeap<QueueEntry> = BinaryHeap::with_capacity(order.len());
    {
        let _span = rec.span("to-server:start");
        for (x, reply) in order.verify(fan.broadcast(|_| true, &Message::Start { q, mask })) {
            if let Some(t) = tracker.upload(x, reply)? {
                queue.push(QueueEntry(t));
            }
        }
    }

    // Plan phase: size `--batch auto` rounds from the sites' sketched
    // probability distributions instead of the static queue clamp. A pure
    // scheduling decision — see `crate::planner` for why it cannot change
    // the answer, and why a failed gather just keeps the static schedule.
    let (batch, plan_summary) = planner::schedule(fan, config, &rec);

    // Corollary 1: once the head's local probability falls below `q`,
    // nothing fetched or unfetched can still qualify.
    'rounds: while queue.peek().is_some_and(|h| h.0.local_prob >= q) {
        // Deadline checks sit on round boundaries only, so a cancelled run
        // never leaves a frame in flight: links and session state are
        // released exactly as a completed run releases them.
        if deadline.is_some_and(|d| out.elapsed() >= d) {
            cancelled = true;
            rec.incr(Counter::Cancelled);
            break 'rounds;
        }
        let round_span = rec.span("round");
        rec.incr(Counter::Rounds);
        let budget = batch.budget(queue.len());

        if budget == 1 {
            // The paper's one-candidate round, wire-identical to the
            // pre-batching protocol.
            let cand = queue.pop().expect("peek succeeded").0;
            stats.iterations += 1;
            stats.broadcasts += 1;
            rec.incr(Counter::FeedbackBroadcasts);

            let home = cand.id.site.0 as usize;

            // Pipelined refill: put the next To-Server request on the wire
            // before the survival scatter, so the home site's extraction
            // overlaps the fold below. The scatter excludes `home`, so no
            // per-link order changes. Skipped for a round that could hit
            // the `limit` break — the sequential schedule would never have
            // sent the request, and traffic must stay identical.
            let refill = (overlap && !out.may_finish() && tracker.is_active(home)).then(|| {
                rec.incr(Counter::OverlappedRounds);
                (InflightRefill::send(fan, home), rec.span("overlap"))
            });

            // Server-Delivery phase: assemble the exact global
            // probability. The broadcast is put in flight on every other
            // site at once, so concurrent transports overlap the survival
            // computations. Quarantined sites are skipped: their factors
            // are lost, which is exactly what makes a degraded answer an
            // upper bound.
            let mut global = cand.local_prob;
            {
                let _span = rec.span("server-delivery");
                let active = |x: usize| x != home && tracker.is_active(x);
                for (x, reply) in
                    order.verify(fan.broadcast(active, &Message::Feedback(cand.clone())))
                {
                    if let Some((survival, pruned)) = tracker.survival(x, reply)? {
                        global *= survival;
                        stats.pruned_at_sites += pruned;
                        rec.add(Counter::PrunedAtSites, pruned);
                    }
                }
            }

            if global >= q {
                let full = out.confirm(&cand, global);
                out.flush(!tracker.degraded());
                if full {
                    drop(round_span);
                    break;
                }
            }

            // Next To-Server phase: refill from the consumed site (unless
            // it was quarantined mid-round — its slot simply stays empty).
            let _span = rec.span("to-server");
            if let Some((slot, overlap_span)) = refill {
                let reply = slot.complete(fan, &rec);
                drop(overlap_span);
                // A mid-scatter quarantine means the sequential schedule
                // would have skipped this refill: discard the reply so the
                // queue evolves identically.
                if tracker.is_active(home) {
                    if let Some(next) = tracker.upload(home, reply)? {
                        queue.push(QueueEntry(next));
                    }
                }
            } else if tracker.is_active(home) {
                let reply = fan.call(home, Message::RequestNext);
                if let Some(next) = tracker.upload(home, reply)? {
                    queue.push(QueueEntry(next));
                }
            }
            continue;
        }

        // Batched round: draw up to `budget` heads, refilling after each
        // draw exactly as the one-candidate protocol does. The ledger
        // flushes a site's pending feedback right before its refill, so
        // every site observes the unbatched event order (see
        // [`crate::batch`]).
        let mut round = BatchRound::new(order.len(), budget, config);
        {
            let _span = rec.span("to-server");
            let mut overlap_span = None;
            while round.len() < budget && queue.peek().is_some_and(|h| h.0.local_prob >= q) {
                let cand = queue.pop().expect("peek succeeded").0;
                stats.iterations += 1;
                stats.broadcasts += 1;
                rec.incr(Counter::FeedbackBroadcasts);
                let home = cand.id.site.0 as usize;
                round.push(cand);
                if overlap {
                    // Pipelined draw: the feedback flush and the refill
                    // ride `home`'s link back to back (FIFO preserves the
                    // flush-before-refill site order); the site serves
                    // both over one coordinator wait instead of two.
                    let fed = round.deliver_send(fan, home, &tracker);
                    let refill = tracker.is_active(home).then(|| InflightRefill::send(fan, home));
                    if fed.is_some() && refill.is_some() && overlap_span.is_none() {
                        rec.incr(Counter::OverlappedRounds);
                        overlap_span = Some(rec.span("overlap"));
                    }
                    // Drain both tickets before interpreting either reply,
                    // so an error path leaves no outstanding frames.
                    let fed_reply =
                        fed.map(|(t, idxs)| (t.and_then(|t| fan.complete(home, t)), idxs));
                    let refill_reply = refill.map(|slot| slot.complete(fan, &rec));
                    if let Some((reply, idxs)) = fed_reply {
                        round.absorb_reply(home, &idxs, reply, &mut tracker, &mut stats, &rec)?;
                    }
                    if let Some(reply) = refill_reply {
                        // Discarded if the feedback reply quarantined the
                        // site (see the unbatched path above).
                        if tracker.is_active(home) {
                            if let Some(next) = tracker.upload(home, reply)? {
                                queue.push(QueueEntry(next));
                            }
                        }
                    }
                } else {
                    round.deliver(fan, home, &mut tracker, &mut stats, &rec)?;
                    if tracker.is_active(home) {
                        let reply = fan.call(home, Message::RequestNext);
                        if let Some(next) = tracker.upload(home, reply)? {
                            queue.push(QueueEntry(next));
                        }
                    }
                }
            }
            drop(overlap_span);
        }
        if round.len() > 1 {
            rec.incr(Counter::BatchedRounds);
        }

        // Server-Delivery phase: one coalesced frame per remaining site,
        // all in flight at once.
        {
            let _span = rec.span("server-delivery");
            round.deliver_all(fan, &mut tracker, &mut stats, &rec)?;
        }

        let full = (0..round.len()).any(|j| {
            let global = round.global_probability(j);
            global >= q && out.confirm(round.candidate(j), global)
        });
        out.flush(!tracker.degraded());
        if full {
            drop(round_span);
            break 'rounds;
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
