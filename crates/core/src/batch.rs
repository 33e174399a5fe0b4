//! Candidate batching for DSUD / e-DSUD rounds.
//!
//! A batched round draws up to `K` candidates from the priority queue and
//! delivers each site *one* coalesced [`Message::FeedbackBatch`] frame
//! instead of `K` separate feedback broadcasts, cutting the per-round
//! message count from `O(K·m)` to `O(m)`.
//!
//! # The flush-before-refill invariant
//!
//! Batching must not change a single bit of the answer: the sites' pruning
//! decisions depend on the order in which feedback and refill requests
//! arrive, so the ledger enforces the exact event order of the unbatched
//! run at every site. Before *any* `RequestNext` is sent to site `x`
//! (whether a draw refill or an e-DSUD expunge refill), `x` is first
//! delivered its pending sub-batch — every candidate drawn since the last
//! delivery to `x`, excluding `x`'s own tuples — as one frame. The round
//! closes by delivering each site its remaining sub-batch in one parallel
//! wave ([`dsud_net::scatter`]). A site therefore observes precisely the
//! feedback-before-refill sequence it would under `--batch 1`, so refill
//! contents, per-site prune counters, and survival factors all match.
//!
//! Survival factors are collected into an `m × K` matrix and multiplied
//! in ascending site order — the same left-fold grouping as the unbatched
//! accumulation loop — so the reported probabilities are `f64`
//! bit-identical as well.

use dsud_net::{Fanout, LinkError, Message, OpTicket, TupleBlock, TupleMsg};
use dsud_obs::{Counter, Recorder};

use crate::degrade::FailureTracker;
use crate::{Error, QueryConfig, RunStats, SiteOrder, WireFormat};

/// Ledger for one batched round: the drawn candidates, how much of the
/// batch each site has already seen, and the survival factors collected
/// so far.
pub(crate) struct BatchRound {
    cands: Vec<TupleMsg>,
    /// Per site: number of drawn candidates already delivered (an index
    /// into `cands`; the exclusion of the site's own tuples happens at
    /// delivery time).
    sent_upto: Vec<usize>,
    /// `survivals[x][j]` is site `x`'s survival factor for candidate `j`,
    /// `None` while undelivered, for the home site, or for a lost site.
    survivals: Vec<Vec<Option<f64>>>,
    /// The shared ascending fold order (see [`SiteOrder`]).
    order: SiteOrder,
    /// Wire layout for the coalesced feedback frames. Purely a transport
    /// choice: both layouts deliver the same tuples in the same order.
    wire: WireFormat,
}

impl BatchRound {
    /// An empty round of up to `budget` candidates over `sites` sites,
    /// framed in `config`'s wire layout.
    pub(crate) fn new(sites: usize, budget: usize, config: &QueryConfig) -> Self {
        BatchRound {
            cands: Vec::with_capacity(budget),
            sent_upto: vec![0; sites],
            survivals: vec![Vec::new(); sites],
            order: SiteOrder::new(sites),
            wire: config.wire,
        }
    }

    /// The coalesced feedback frame for one site's pending sub-batch, in
    /// the round's wire layout.
    fn batch_frame(&self, msgs: Vec<TupleMsg>) -> Message {
        match self.wire {
            WireFormat::Legacy => Message::FeedbackBatch(msgs),
            WireFormat::Columnar => Message::FeedbackBatchC(TupleBlock::from_msgs(&msgs)),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cands.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.cands.is_empty()
    }

    /// Records a drawn candidate. It becomes part of every site's pending
    /// sub-batch until delivered.
    pub(crate) fn push(&mut self, cand: TupleMsg) {
        self.cands.push(cand);
    }

    pub(crate) fn candidate(&self, j: usize) -> &TupleMsg {
        &self.cands[j]
    }

    /// The candidates site `x` has not seen yet (excluding its own), with
    /// their batch indices.
    fn pending_for(&self, x: usize) -> (Vec<TupleMsg>, Vec<usize>) {
        let mut msgs = Vec::new();
        let mut idxs = Vec::new();
        for (j, c) in self.cands.iter().enumerate().skip(self.sent_upto[x]) {
            if c.id.site.0 as usize != x {
                msgs.push(c.clone());
                idxs.push(j);
            }
        }
        (msgs, idxs)
    }

    /// Files a site's batched survival reply into the matrix (or
    /// quarantines the site, in which case its factors stay `None`).
    /// `idxs` must be the batch indices returned by the matching
    /// [`BatchRound::deliver_send`].
    pub(crate) fn absorb_reply(
        &mut self,
        x: usize,
        idxs: &[usize],
        reply: Result<Message, LinkError>,
        tracker: &mut FailureTracker,
        stats: &mut RunStats,
        rec: &Recorder,
    ) -> Result<(), Error> {
        if let Some((factors, pruned)) = tracker.survival_batch(x, reply, idxs.len())? {
            if self.survivals[x].len() < self.cands.len() {
                self.survivals[x].resize(self.cands.len(), None);
            }
            for (&j, s) in idxs.iter().zip(factors) {
                self.survivals[x][j] = Some(s);
            }
            stats.pruned_at_sites += pruned;
            rec.add(Counter::PrunedAtSites, pruned);
        }
        Ok(())
    }

    /// Flushes site `x`'s pending sub-batch as one frame. MUST be called
    /// immediately before any `RequestNext` to `x` — that is what
    /// preserves the unbatched feedback-before-refill event order.
    pub(crate) fn deliver(
        &mut self,
        fan: &mut Fanout<'_>,
        x: usize,
        tracker: &mut FailureTracker,
        stats: &mut RunStats,
        rec: &Recorder,
    ) -> Result<(), Error> {
        let (msgs, idxs) = self.pending_for(x);
        self.sent_upto[x] = self.cands.len();
        if msgs.is_empty() || !tracker.is_active(x) {
            return Ok(());
        }
        let frame = self.batch_frame(msgs);
        let reply = fan.call(x, frame);
        self.absorb_reply(x, &idxs, reply, tracker, stats, rec)
    }

    /// Split-phase [`BatchRound::deliver`]: puts site `x`'s pending
    /// sub-batch on the wire and returns the ticket (or send failure,
    /// surfaced at completion) with the batch indices the eventual reply
    /// covers. `None` when there is nothing to flush. The caller must
    /// redeem the ticket and feed the reply to
    /// [`BatchRound::absorb_reply`] — completing tickets in send order per
    /// link is what keeps the pipelined run's per-site event order
    /// identical to the sequential one.
    pub(crate) fn deliver_send(
        &mut self,
        fan: &mut Fanout<'_>,
        x: usize,
        tracker: &FailureTracker,
    ) -> Option<(Result<OpTicket, LinkError>, Vec<usize>)> {
        let (msgs, idxs) = self.pending_for(x);
        self.sent_upto[x] = self.cands.len();
        if msgs.is_empty() || !tracker.is_active(x) {
            return None;
        }
        let frame = self.batch_frame(msgs);
        Some((fan.send(x, frame), idxs))
    }

    /// Closes the round: every site with a non-empty pending sub-batch
    /// receives it as one frame, fanned out in a single parallel wave.
    pub(crate) fn deliver_all(
        &mut self,
        fan: &mut Fanout<'_>,
        tracker: &mut FailureTracker,
        stats: &mut RunStats,
        rec: &Recorder,
    ) -> Result<(), Error> {
        let mut requests = Vec::new();
        let mut idxs_by_site: Vec<Vec<usize>> = vec![Vec::new(); self.order.len()];
        for x in self.order.iter() {
            let (msgs, idxs) = self.pending_for(x);
            self.sent_upto[x] = self.cands.len();
            if msgs.is_empty() || !tracker.is_active(x) {
                continue;
            }
            idxs_by_site[x] = idxs;
            requests.push((x, self.batch_frame(msgs)));
        }
        for (x, reply) in self.order.verify(fan.scatter(requests)) {
            let idxs = std::mem::take(&mut idxs_by_site[x]);
            self.absorb_reply(x, &idxs, reply, tracker, stats, rec)?;
        }
        Ok(())
    }

    /// Exact global probability of candidate `j` (Lemma 1): its local
    /// probability times the survival factors in the shared
    /// [`SiteOrder`] ascending fold — the same multiplication order as the
    /// unbatched loop, hence bit-identical.
    pub(crate) fn global_probability(&self, j: usize) -> f64 {
        self.order.fold_survival(self.cands[j].local_prob, |x| {
            self.survivals[x].get(j).copied().flatten()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailurePolicy;
    use dsud_net::{BandwidthMeter, Link, LocalLink};

    /// A config whose only setting the round reads is the legacy wire.
    fn legacy() -> QueryConfig {
        QueryConfig::new(0.5).expect("valid threshold")
    }

    fn msg(site: u32, seq: u64, local_prob: f64) -> TupleMsg {
        TupleMsg {
            id: dsud_uncertain::TupleId::new(site, seq),
            values: vec![1.0, 1.0],
            prob: 0.5,
            local_prob,
        }
    }

    /// A site that echoes each probe's local probability as its survival
    /// factor and reports one prune per probe.
    fn echo_links(meter: &BandwidthMeter, sites: usize) -> Vec<Box<dyn Link>> {
        (0..sites)
            .map(|_| {
                let service = |m: Message| match m {
                    Message::FeedbackBatch(ts) => Message::SurvivalBatchReply {
                        survivals: ts.iter().map(|t| t.local_prob).collect(),
                        pruned: ts.len() as u64,
                    },
                    // Columnar requests are answered in kind.
                    Message::FeedbackBatchC(block) => Message::SurvivalBatchReplyC {
                        survivals: block.to_msgs().iter().map(|t| t.local_prob).collect(),
                        pruned: block.len() as u64,
                    },
                    _ => Message::Ack,
                };
                Box::new(LocalLink::new(service, meter.clone())) as _
            })
            .collect()
    }

    #[test]
    fn round_flushes_excluding_home_and_multiplies_in_site_order() {
        let meter = BandwidthMeter::new();
        let mut links = echo_links(&meter, 3);
        let mut fan = Fanout::flat(&mut links);
        let rec = Recorder::disabled();
        let mut tracker = FailureTracker::new(3, FailurePolicy::Strict, rec.clone());
        let mut stats = RunStats::default();

        let mut round = BatchRound::new(3, 2, &legacy());
        round.push(msg(0, 0, 0.9));
        // Flushing site 0 before its refill sends nothing: the only drawn
        // candidate is site 0's own.
        round.deliver(&mut fan, 0, &mut tracker, &mut stats, &rec).unwrap();
        round.push(msg(1, 0, 0.5));
        round.deliver_all(&mut fan, &mut tracker, &mut stats, &rec).unwrap();

        // Site 0 saw only candidate 1; sites 1 and 2 saw their pending
        // sub-batches in one frame each (site 1 excludes its own tuple).
        let snap = meter.snapshot();
        assert_eq!(snap.feedback.messages, 3);
        assert_eq!(snap.feedback.tuples, 1 + 1 + 2);

        // candidate 0: 0.9 (local) * 0.9 (site 1) * 0.9 (site 2).
        assert_eq!(round.global_probability(0), 0.9 * 0.9 * 0.9);
        // candidate 1: 0.5 * 0.5 (site 0) * 0.5 (site 2).
        assert_eq!(round.global_probability(1), 0.5 * 0.5 * 0.5);
        assert_eq!(stats.pruned_at_sites, 4);
        assert_eq!(round.len(), 2);
        assert_eq!(round.candidate(1).local_prob, 0.5);
    }

    #[test]
    fn columnar_rounds_fold_identically_with_fewer_bytes_per_wide_batch() {
        // The same round driven over both wire layouts: tuple counts,
        // message counts, survival folds, and prune totals must match
        // exactly — only the byte column may differ.
        let run = |wire: WireFormat| {
            let meter = BandwidthMeter::new();
            let mut links = echo_links(&meter, 3);
            let mut fan = Fanout::flat(&mut links);
            let rec = Recorder::disabled();
            let mut tracker = FailureTracker::new(3, FailurePolicy::Strict, rec.clone());
            let mut stats = RunStats::default();
            // Wide enough that every frame clears the columnar layout's
            // ~6-row byte break-even (11-byte header premium vs 2 bytes
            // saved per row).
            let mut round = BatchRound::new(3, 24, &legacy().wire_format(wire));
            for j in 0..24 {
                round.push(msg(j % 3, j as u64, 0.05 + 0.03 * j as f64));
            }
            round.deliver(&mut fan, 2, &mut tracker, &mut stats, &rec).unwrap();
            round.deliver_all(&mut fan, &mut tracker, &mut stats, &rec).unwrap();
            let probs: Vec<f64> = (0..24).map(|j| round.global_probability(j)).collect();
            (probs, stats.pruned_at_sites, meter.snapshot())
        };
        let (legacy_probs, legacy_pruned, legacy_snap) = run(WireFormat::Legacy);
        let (col_probs, col_pruned, col_snap) = run(WireFormat::Columnar);
        assert_eq!(legacy_probs, col_probs);
        assert_eq!(legacy_pruned, col_pruned);
        assert_eq!(legacy_snap.feedback.messages, col_snap.feedback.messages);
        assert_eq!(legacy_snap.feedback.tuples, col_snap.feedback.tuples);
        assert!(
            col_snap.feedback.bytes < legacy_snap.feedback.bytes,
            "columnar {} must beat legacy {} on multi-row feedback frames",
            col_snap.feedback.bytes,
            legacy_snap.feedback.bytes
        );
    }

    #[test]
    fn redundant_deliveries_send_nothing() {
        let meter = BandwidthMeter::new();
        let mut links = echo_links(&meter, 2);
        let mut fan = Fanout::flat(&mut links);
        let rec = Recorder::disabled();
        let mut tracker = FailureTracker::new(2, FailurePolicy::Strict, rec.clone());
        let mut stats = RunStats::default();

        let mut round = BatchRound::new(2, 4, &legacy());
        assert!(round.is_empty());
        round.push(msg(0, 0, 0.8));
        round.deliver(&mut fan, 1, &mut tracker, &mut stats, &rec).unwrap();
        // Already flushed: a second flush and the closing wave are no-ops.
        round.deliver(&mut fan, 1, &mut tracker, &mut stats, &rec).unwrap();
        round.deliver_all(&mut fan, &mut tracker, &mut stats, &rec).unwrap();
        assert_eq!(meter.snapshot().feedback.messages, 1);
    }
}
