//! The enhanced e-DSUD algorithm (paper Sections 5.2–5.3).
//!
//! DSUD ranks candidates by *local* skyline probability, which is usually a
//! very loose stand-in for the global one: it broadcasts many tuples that
//! were never going to qualify. e-DSUD instead maintains, for every queued
//! candidate `s`, an upper bound `P*_gsky(s)` on its global skyline
//! probability assembled from free information already at the server:
//!
//! * for every *broadcast* tuple `t` from another site that dominates `s`,
//!   the factor `(1 − P(t))` (these are confirmed dominators of `s`);
//! * for every *in-queue* representative `t'` of another site `x` that
//!   dominates `s`, the Observation-2 factor
//!   `P_sky(t', D_x)/P(t') × (1 − P(t'))` — the dominators of `t'` in
//!   `D_x` transitively dominate `s`, and so does `t'` itself.
//!
//! Per site the tighter of the two applicable factors is used (both are
//! valid upper bounds on `s`'s survival in that site, and they may overlap,
//! so they must not be multiplied together). This reproduces the paper's
//! worked example exactly: `P*((6.4,7.5)) = 0.8 × (0.65/0.7) × 0.3 ≈ 0.22`
//! while `(6,6)` is queued (Table 2b) and `0.8 × 0.3 = 0.24` after it has
//! been broadcast (Table 2f).
//!
//! Candidates whose bound already fails `q` are *expunged* without any
//! broadcast — the entire bandwidth saving of e-DSUD over DSUD — and their
//! home site immediately supplies its next representative.

use std::collections::HashMap;

use dsud_net::{BandwidthMeter, FanPlan, Fanout, Link, Message, TupleMsg};
use dsud_obs::Counter;
use dsud_uncertain::{dominates_in, SkylineEntry, SubspaceMask};

use crate::batch::BatchRound;
use crate::cluster::routes_with_covers;
use crate::degrade::FailureTracker;
use crate::progress::Reporter;
use crate::synopsis::SynopsisBound;
use crate::{planner, BoundMode, Error, QueryConfig, QueryOutcome, RunStats, SiteOrder};

/// A queued candidate with its per-site broadcast discounts.
#[derive(Debug, Clone)]
struct Candidate {
    msg: TupleMsg,
    /// Indexed by site id: `∏ (1 − P(t))` over already-broadcast tuples
    /// `t` from that site that dominate this candidate (1.0 where none
    /// does, and at the candidate's own site).
    broadcast_discount: Vec<f64>,
}

impl Candidate {
    /// A candidate uploaded in a deployment of `sites` sites. Every site id
    /// it meets — its own, the broadcasts' and the queue's — was checked
    /// against the replying site on arrival, so it indexes the array.
    fn new(msg: TupleMsg, history: &[TupleMsg], mask: SubspaceMask, sites: usize) -> Self {
        let mut c = Candidate { msg, broadcast_discount: vec![1.0; sites] };
        for h in history {
            c.absorb_broadcast(h, mask);
        }
        c
    }

    /// The candidate's home site.
    fn home(&self) -> usize {
        self.msg.id.site.0 as usize
    }

    /// Accounts for a broadcast tuple: if it is a foreign dominator, its
    /// non-occurrence probability discounts this candidate forever.
    fn absorb_broadcast(&mut self, t: &TupleMsg, mask: SubspaceMask) {
        if t.id.site != self.msg.id.site && dominates_in(&t.values, &self.msg.values, mask) {
            self.broadcast_discount[t.id.site.0 as usize] *= 1.0 - t.prob;
        }
    }

    /// The upper bound `P*_gsky` (Corollary 2) of this candidate given the
    /// current queue contents, optionally tightened by per-site synopses.
    ///
    /// The per-site factors are assembled in `per_site`, a caller-held
    /// buffer, and multiplied in ascending site order, so the bound's bits
    /// depend only on the factors, never on the order they arrived in.
    fn bound(
        &self,
        queue: &[Candidate],
        mask: SubspaceMask,
        mode: BoundMode,
        synopses: &HashMap<u32, SynopsisBound>,
        per_site: &mut Vec<f64>,
    ) -> f64 {
        per_site.clear();
        per_site.extend_from_slice(&self.broadcast_discount);
        if mode == BoundMode::Paper {
            for other in queue {
                if other.msg.id.site == self.msg.id.site
                    || !dominates_in(&other.msg.values, &self.msg.values, mask)
                {
                    continue;
                }
                let simple = 1.0 - other.msg.prob;
                let factor = &mut per_site[other.msg.id.site.0 as usize];
                // Two valid per-site bounds that may double-count each
                // other's factors — take the tighter, never the product:
                // (a) confirmed broadcast dominators plus the in-queue
                //     representative itself (all distinct tuples);
                // (b) the Observation-2 transitive bound through the
                //     in-queue representative.
                let with_simple = *factor * simple;
                let obs2 = (other.msg.local_prob / other.msg.prob) * simple;
                *factor = with_simple.min(obs2);
            }
        }
        // Synopsis factors: per site, another valid upper bound on the
        // candidate's survival there — again min-combined, never
        // multiplied, to avoid double counting.
        for (&site, syn) in synopses {
            if site == self.msg.id.site.0 {
                continue;
            }
            let bound = syn.survival_bound(&self.msg.values, mask);
            let factor = &mut per_site[site as usize];
            *factor = factor.min(bound);
        }
        self.msg.local_prob * per_site.iter().product::<f64>()
    }
}

/// Runs e-DSUD over raw site links, under the same contract as
/// [`crate::dsud::run`]: `mask` is `config`'s subspace already resolved,
/// every other setting comes from `config`, the sites' covers are asked
/// for first, and the run follows exactly the schedule
/// [`crate::Cluster::run_edsud`] gives the same config on a flat
/// topology.
///
/// A [`QueryConfig::synopsis`] resolution requests one grid synopsis per
/// site at query start (charged on the meter) and folds it into the
/// candidate bounds — the Section 5.2 synopsis trade-off made measurable.
/// Rounds follow DSUD's schedule, with an expunge sweep before every
/// draw: each doomed candidate's home site gets the same flush-and-refill
/// draw a selected head's site does. With an overlapped
/// [`QueryConfig::pipeline`] a sweep puts every doomed candidate's draw
/// on the wire before completing any — the sites extract their
/// replacements in parallel — and the last draw's request overlaps the
/// closing survival wave, as in DSUD. Replies fold in send order, so
/// healthy runs stay bit-identical to `PipelineDepth::Fixed(1)`.
///
/// # Errors
///
/// Same as [`crate::dsud::run`].
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

/// [`run`] over an arbitrary [`Fanout`] — the actual coordinator. As in
/// [`crate::dsud`], a flat fan-out reproduces the pre-topology per-link
/// traffic byte for byte, and a tree fan-out routes the same per-site
/// sequences through aggregator links with replies in the same ascending
/// site order, so the answer is bit-identical.
///
/// `sink` sees each closed round's confirmations exactly as in
/// [`crate::dsud`]'s coordinator.
pub(crate) fn run_on(
    fan: &mut Fanout<'_>,
    meter: &BandwidthMeter,
    mask: SubspaceMask,
    config: &QueryConfig,
    sink: &mut dyn FnMut(&[SkylineEntry], bool),
) -> Result<QueryOutcome, Error> {
    let (q, mode) = (config.q, config.bound);
    if !(q > 0.0 && q <= 1.0) {
        return Err(Error::InvalidThreshold(q));
    }
    let mut out = Reporter::new(meter, config.limit, sink);
    let deadline = config.deadline_ms.map(std::time::Duration::from_millis);
    let mut cancelled = false;
    let rec = meter.recorder().clone();
    let query_span = rec.span("query:edsud");
    let order = SiteOrder::new(fan.len());
    let mut tracker = FailureTracker::new(order.len(), config.failure, rec.clone());
    let mut stats = RunStats::default();
    let mut round = BatchRound::new(order.len(), config, mask, &rec);
    let mut history: Vec<TupleMsg> = Vec::new();
    let sites = order.len();
    let mut per_site: Vec<f64> = Vec::with_capacity(sites);

    // A planning run's counted Start also learns how many candidates each
    // site holds (see `crate::planner`).
    let counted = planner::counts(config);
    let mut candidates = 0u64;
    let mut queue: Vec<Candidate> = Vec::with_capacity(order.len());
    {
        let _span = rec.span("to-server:start");
        let start = Message::Start { q, mask, counted };
        for (x, reply) in order.verify(fan.broadcast(|_| true, &start)) {
            let (next, pending) = tracker.started(x, reply, counted)?;
            candidates += pending + u64::from(next.is_some());
            if let Some(t) = next {
                queue.push(Candidate::new(t, &history, mask, sites));
            }
        }
    }

    // Optional synopsis phase: every site ships its grid, paid for in
    // tuple-equivalents on the meter.
    let mut synopses: HashMap<u32, SynopsisBound> = HashMap::new();
    if let Some(resolution) = config.synopsis {
        let _span = rec.span("synopsis");
        let active = |x: usize| tracker.is_active(x);
        for (x, reply) in
            order.verify(fan.broadcast(active, &Message::SynopsisRequest { resolution }))
        {
            match reply {
                Ok(Message::Synopsis(syn)) => {
                    synopses.insert(x as u32, SynopsisBound::new(syn));
                }
                // A site that cannot ship a synopsis is still a valid query
                // participant: synopses only tighten bounds, never gate
                // correctness. Transport failures still count against it.
                Ok(_) => {}
                Err(e) => tracker.transport_failure(x, e)?,
            }
        }
    }

    // Size `--batch auto` rounds (selection draws and expunge sweeps
    // alike) from the exact candidate total. Pure scheduling — see
    // `crate::planner`.
    let (budget, plan_summary) = planner::schedule(candidates, config);

    loop {
        // Deadline checks sit on round boundaries only, so a cancelled run
        // never leaves a frame in flight (see `dsud::run_on`).
        if deadline.is_some_and(|d| out.elapsed() >= d) {
            cancelled = true;
            rec.incr(Counter::Cancelled);
            break;
        }
        let _round_span = rec.span("round");
        rec.incr(Counter::Rounds);
        round.reset(budget);

        // Draws, each preceded by an expunge sweep. The last draw's request
        // stays pending across the Server-Delivery phase (see
        // `crate::batch`). One expunge span per round spans the
        // interleaved draws — a span per draw churned the recorder on
        // large queues for no analytic gain.
        {
            let _span = rec.span("expunge");
            while !round.is_full() {
                // Expunge sweep: drop every candidate whose bound fails
                // `q`, pulling replacements until the picture stabilizes.
                loop {
                    let bounds: Vec<f64> = queue
                        .iter()
                        .map(|c| c.bound(&queue, mask, mode, &synopses, &mut per_site))
                        .collect();
                    // The jobs are fixed up front: the sweep walks indices
                    // downwards, and its swap_removes and pushes never
                    // disturb a position below the one being processed.
                    // Every job's draw is issued before any is settled
                    // (at most one per site: the queue holds one
                    // representative per site), then the replies fold
                    // back in descending index order.
                    let doomed: Vec<usize> =
                        (0..queue.len()).rev().filter(|&idx| bounds[idx] < q).collect();
                    let draws = doomed
                        .iter()
                        .map(|&idx| round.issue_draw(fan, queue[idx].home(), &tracker, true))
                        .collect();
                    let uploads = round.settle_all(fan, draws, &mut tracker, &mut stats)?;
                    let mut replaced_any = false;
                    for (idx, next) in doomed.into_iter().zip(uploads) {
                        queue.swap_remove(idx);
                        stats.expunged += 1;
                        stats.iterations += 1;
                        rec.incr(Counter::Expunged);
                        if let Some(next) = next {
                            queue.push(Candidate::new(next, &history, mask, sites));
                            replaced_any = true;
                        }
                    }
                    if !replaced_any {
                        // No new arrivals; surviving bounds can only have
                        // grown (fewer in-queue dominators), so one more
                        // pass below suffices for selection.
                        break;
                    }
                }

                // Selection: broadcast the candidate with the largest bound.
                let bounds: Vec<f64> = queue
                    .iter()
                    .map(|c| c.bound(&queue, mask, mode, &synopses, &mut per_site))
                    .collect();
                let Some(head_idx) = argmax(&bounds, &queue) else { break };
                if bounds[head_idx] < q {
                    // Unreachable in exact arithmetic — the sweep ended on
                    // a pass without arrivals, and removals only raise the
                    // survivors' bounds — but a failing head is never
                    // broadcast: sweep again.
                    continue;
                }
                let cand = queue.swap_remove(head_idx);
                stats.iterations += 1;
                stats.broadcasts += 1;
                rec.incr(Counter::FeedbackBroadcasts);
                let home = cand.home();

                // The drawn tuple permanently discounts everything it
                // dominates, in the queue and in all future arrivals —
                // only its wire transmission waits for the round to close.
                for c in &mut queue {
                    c.absorb_broadcast(&cand.msg, mask);
                }
                history.push(cand.msg.clone());
                round.push(cand.msg);

                let _span = rec.span("to-server");
                let may_finish = out.may_finish(round.len());
                if let Some(next) = round.draw(fan, home, may_finish, &mut tracker, &mut stats)? {
                    queue.push(Candidate::new(next, &history, mask, sites));
                }
            }
        }
        if round.is_empty() {
            // The sweep emptied the queue: nothing is left to broadcast.
            break;
        }

        // Server-Delivery phase: every other site computes its survival
        // products in parallel on concurrent transports. Quarantined sites
        // are skipped: their factors are lost, making a degraded answer an
        // upper bound.
        {
            let _span = rec.span("server-delivery");
            round.close(fan, &mut tracker, &mut stats)?;
        }
        let full = (0..round.len()).any(|j| {
            let global = round.global_probability(j);
            global >= q && out.confirm(round.candidate(j), global)
        });
        out.flush(!tracker.degraded());
        let _span = rec.span("to-server");
        if let Some(next) = round.settle_last(fan, !full, &mut tracker, &mut stats)? {
            queue.push(Candidate::new(next, &history, mask, sites));
        }
        if full || queue.is_empty() {
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

/// Index of the largest bound, ties broken by tuple id for determinism.
fn argmax(bounds: &[f64], queue: &[Candidate]) -> Option<usize> {
    (0..bounds.len()).max_by(|&a, &b| {
        bounds[a]
            .partial_cmp(&bounds[b])
            .expect("bounds are finite")
            .then_with(|| queue[b].msg.id.cmp(&queue[a].msg.id))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsud_uncertain::TupleId;

    fn msg(site: u32, values: Vec<f64>, prob: f64, local_prob: f64) -> TupleMsg {
        TupleMsg { id: TupleId::new(site, 0), values, prob, local_prob }
    }

    fn full2() -> SubspaceMask {
        SubspaceMask::full(2).unwrap()
    }

    /// The paper's Table 2(b) state: bounds must come out 0.65, 0.22, 0.18.
    #[test]
    fn bound_reproduces_paper_table2b() {
        let queue = vec![
            Candidate::new(msg(0, vec![6.0, 6.0], 0.7, 0.65), &[], full2(), 3),
            Candidate::new(msg(1, vec![6.5, 7.0], 0.8, 0.65), &[], full2(), 3),
            Candidate::new(msg(2, vec![6.4, 7.5], 0.9, 0.8), &[], full2(), 3),
        ];
        let b: Vec<f64> = queue
            .iter()
            .map(|c| c.bound(&queue, full2(), BoundMode::Paper, &HashMap::new(), &mut Vec::new()))
            .collect();
        // (6,6) is undominated in L: bound = its local probability.
        assert!((b[0] - 0.65).abs() < 1e-12);
        // (6.5,7) dominated by (6,6): 0.65 × (0.65/0.7) × 0.3 ≈ 0.18.
        assert!((b[1] - 0.65 * (0.65 / 0.7) * 0.3).abs() < 1e-12);
        // (6.4,7.5) dominated by (6,6): 0.8 × (0.65/0.7) × 0.3 ≈ 0.22.
        assert!((b[2] - 0.8 * (0.65 / 0.7) * 0.3).abs() < 1e-12);
    }

    /// The paper's Table 2(f) state: after (6,6) was broadcast, the bound
    /// keeps only the (1 − P) discount: 0.8 × 0.3 = 0.24.
    #[test]
    fn bound_reproduces_paper_table2f() {
        let history = vec![msg(0, vec![6.0, 6.0], 0.7, 0.65)];
        let queue = vec![
            Candidate::new(msg(1, vec![6.5, 7.0], 0.8, 0.65), &history, full2(), 3),
            Candidate::new(msg(2, vec![6.4, 7.5], 0.9, 0.8), &history, full2(), 3),
        ];
        let b: Vec<f64> = queue
            .iter()
            .map(|c| c.bound(&queue, full2(), BoundMode::Paper, &HashMap::new(), &mut Vec::new()))
            .collect();
        assert!((b[0] - 0.65 * 0.3).abs() < 1e-12, "got {}", b[0]);
        assert!((b[1] - 0.8 * 0.3).abs() < 1e-12, "got {}", b[1]);
    }

    #[test]
    fn broadcast_only_mode_ignores_queue_dominators() {
        let queue = vec![
            Candidate::new(msg(0, vec![6.0, 6.0], 0.7, 0.65), &[], full2(), 3),
            Candidate::new(msg(2, vec![6.4, 7.5], 0.9, 0.8), &[], full2(), 3),
        ];
        let b = queue[1].bound(
            &queue,
            full2(),
            BoundMode::BroadcastOnly,
            &HashMap::new(),
            &mut Vec::new(),
        );
        assert!((b - 0.8).abs() < 1e-12);
    }

    #[test]
    fn same_site_queue_entries_never_discount() {
        // A dominator from the candidate's own site is already priced into
        // its local probability.
        let queue = vec![
            Candidate::new(msg(1, vec![1.0, 1.0], 0.9, 0.9), &[], full2(), 3),
            Candidate::new(msg(1, vec![2.0, 2.0], 0.9, 0.09), &[], full2(), 3),
        ];
        let b = queue[1].bound(&queue, full2(), BoundMode::Paper, &HashMap::new(), &mut Vec::new());
        assert!((b - 0.09).abs() < 1e-12);
    }

    #[test]
    fn history_discounts_accumulate_per_site() {
        let history = vec![
            msg(0, vec![1.0, 1.0], 0.5, 0.5),
            msg(0, vec![2.0, 2.0], 0.5, 0.25),
            msg(1, vec![1.5, 1.5], 0.2, 0.2),
        ];
        let c = Candidate::new(msg(2, vec![3.0, 3.0], 0.9, 0.8), &history, full2(), 3);
        let b = c.bound(&[], full2(), BoundMode::Paper, &HashMap::new(), &mut Vec::new());
        // Site 0 contributes 0.5 × 0.5, site 1 contributes 0.8.
        assert!((b - 0.8 * 0.25 * 0.8).abs() < 1e-12);
    }

    /// One candidate whose per-site factors arrive in two site orders
    /// (history and queue alike) gets a bit-identical bound: the factors
    /// are multiplied in ascending site order, not arrival order.
    #[test]
    fn bound_bits_ignore_the_order_factors_arrive_in() {
        let probs = [0.37, 0.11, 0.83, 0.29, 0.61, 0.07, 0.45, 0.93];
        let history: Vec<TupleMsg> = (0..16)
            .map(|k| {
                let p = probs[k % probs.len()] * (1.0 - k as f64 / 40.0);
                msg(1 + (k % 8) as u32, vec![1.0 + k as f64 / 100.0, 1.0], p, p)
            })
            .collect();
        let queue: Vec<Candidate> = (9..13)
            .map(|site| {
                let p = probs[site as usize % probs.len()];
                Candidate::new(msg(site, vec![2.0, 2.0], p, p * 0.9), &[], full2(), 13)
            })
            .collect();
        let bound_of = |history: &[TupleMsg], queue: &[Candidate]| {
            let c = Candidate::new(msg(0, vec![5.0, 5.0], 0.9, 0.8), history, full2(), 13);
            c.bound(queue, full2(), BoundMode::Paper, &HashMap::new(), &mut Vec::new())
        };
        // Reverse the site order, keeping each site's own tuples in order.
        let mut reversed = history.clone();
        reversed.sort_by_key(|t| std::cmp::Reverse(t.id.site));
        let reversed_queue: Vec<Candidate> = queue.iter().rev().cloned().collect();
        let forward = bound_of(&history, &queue);
        assert!(forward > 0.0 && forward < 0.8);
        assert_eq!(forward.to_bits(), bound_of(&reversed, &reversed_queue).to_bits());
    }

    /// A site whose uploads name another site (here `u32::MAX`) fails the
    /// query as a protocol violation before any per-site state is sized
    /// or indexed by that id.
    #[test]
    fn rejects_a_site_uploading_under_another_sites_id() {
        use crate::{LocalSite, SiteOptions};
        use dsud_net::LocalLink;
        use dsud_uncertain::{Probability, UncertainTuple};

        let site = |id: u32| {
            let tuples = (0..4u64)
                .map(|k| {
                    let values = vec![k as f64, 4.0 - k as f64];
                    let p = Probability::new(0.9).unwrap();
                    UncertainTuple::new(TupleId::new(id, k), values, p).unwrap()
                })
                .collect();
            LocalSite::new(id, 2, tuples, SiteOptions::default()).unwrap()
        };
        let forge = |t: &mut TupleMsg| t.id = TupleId::new(u32::MAX, t.id.seq);
        let mut hostile = site(1);
        let hostile = move |m: Message| match dsud_net::Service::handle(&mut hostile, m) {
            Message::Upload(Some(mut t)) => {
                forge(&mut t);
                Message::Upload(Some(t))
            }
            Message::UploadLast(mut t) => {
                forge(&mut t);
                Message::UploadLast(t)
            }
            Message::Started { pending, next: Some(mut t) } => {
                forge(&mut t);
                Message::Started { pending, next: Some(t) }
            }
            reply => reply,
        };
        let meter = BandwidthMeter::new();
        let mut links: Vec<Box<dyn Link>> = vec![
            Box::new(LocalLink::new(site(0), meter.clone())),
            Box::new(LocalLink::new(hostile, meter.clone())),
        ];
        let config = QueryConfig::new(0.3).unwrap();
        assert_eq!(
            run(&mut links, &meter, full2(), &config).unwrap_err(),
            Error::ProtocolViolation { site: 1, what: "uploaded tuple from another site" }
        );
    }

    #[test]
    fn rejects_bad_threshold() {
        let mut links: Vec<Box<dyn Link>> = Vec::new();
        let meter = BandwidthMeter::new();
        let config = QueryConfig { q: 2.0, ..QueryConfig::new(0.5).unwrap() };
        assert!(matches!(
            run(&mut links, &meter, full2(), &config),
            Err(Error::InvalidThreshold(_))
        ));
    }
}
