//! One coordinator round, for DSUD and e-DSUD alike.
//!
//! A round draws up to its *budget* of candidates from the priority queue
//! and closes with one parallel wave that delivers every other site the
//! feedback it has not seen yet. The paper's round (Section 5.1) is the
//! budget-1 case: it closes with one [`Message::Feedback`] broadcast
//! answered by scalar survival replies. A larger budget (`--batch K`)
//! coalesces each site's feedback into one [`Message::FeedbackBatch`]
//! frame — same answer, `O(m + K)` instead of `O(K·m)` messages per round.
//! The framing follows the budget, not the number of candidates a round
//! happened to draw.
//!
//! # Draws
//!
//! Each draw asks the drawn candidate's home site for two things: its
//! pending feedback flush, then a refill. Both travel as one
//! [`Message::Draw`] frame, answered by one [`Message::Drawn`] carrying the
//! flush's survival factors and the uploaded representative; the site
//! processes them in exactly that order, as if they were two requests. A
//! draw with nothing to flush sends a bare `RequestNext`. Every draw but
//! the last is settled before the next head is picked.
//!
//! # Deferred factors
//!
//! Those settled draws form a sequential chain, and only the flush's
//! Local-Pruning (its `1 − P(t)` discounts) has to happen on it: that is
//! what keeps the flush-before-refill order exact. Lemma 1 needs the
//! flush's survival factors only when the round folds. So in a batched
//! round a draw that is sure to be followed defers them: it travels as a
//! [`Message::DrawDeferred`], the site runs the flush's pruning and the
//! refill as before but keeps the flushed probe rows with the query's
//! cursor, and its [`Message::Drawn`] carries the upload and the prune
//! count with an empty survival section. A bare refill at a site that
//! holds rows travels as a [`Message::RequestNextDeferred`] and lets it
//! keep them. The site returns the held factors, ahead of the frame's
//! own and from one multi-probe pass, with the next reply that has
//! factors to carry:
//!
//! - its closing-wave feedback batch;
//! - the round's last draw, which never defers: it already overlaps the
//!   wave, and under either schedule its site gets no wave frame (the
//!   last draw takes the site's pending sub-batch);
//! - a plain bare refill, answered as [`Message::Refilled`];
//! - any deferred draw or refill that drains the site, which must answer
//!   every held factor since the cover may skip every later delivery.
//!
//! The ledger keeps, per site, the candidates whose factors the site
//! holds, and files them when they come back. Factors only move from one
//! reply to a later one, 8 bytes each, so messages, tuples and total
//! bytes are those of the inline round; only the byte split between
//! upload and reply classes shifts.
//!
//! A draw defers only when a later frame to its site is certain. The
//! coordinators ask for it when the round cannot stop at the `limit`,
//! and DSUD also only while another site's head still qualifies: then
//! the round draws again, and either a later candidate from another site
//! reaches the holder (in a draw's flush or the wave) or the holder's own
//! chain of heads runs to the last draw. In e-DSUD the holder's upload
//! stays queued until a later draw to the site removes it. Budget-1
//! rounds never defer: their draws have nothing to flush.
//!
//! The last draw of a full round keeps its request pending across the
//! closing wave (see `crate::pipeline` for when a pending request is
//! actually on the wire). Its survival factors are filed once the wave is
//! in, before the fold; its upload is held and handed out only after the
//! round's confirmations, or dropped if they reached the `limit`. When the
//! round could reach the `limit`, the last draw does not ask for its
//! refill at all: it sends the flush alone, and the refill follows after
//! the confirmations only if the run still wants it.
//!
//! # The flush-before-refill invariant
//!
//! Batching must not change a single bit of the answer: the sites' pruning
//! decisions depend on the order in which feedback and refill requests
//! arrive, so the ledger enforces the exact event order of the unbatched
//! run at every site. Before *any* `RequestNext` is sent to site `x`
//! (whether a draw refill or an e-DSUD expunge refill), `x` is first
//! delivered its pending sub-batch — every candidate drawn since the last
//! delivery to `x`, excluding `x`'s own tuples — as one frame. A site
//! therefore observes precisely the feedback-before-refill sequence it
//! would under `--batch 1`, so refill contents, per-site prune counters,
//! and survival factors all match.
//!
//! Survival factors are collected into an `m × K` matrix and multiplied
//! in ascending site order — the same left-fold grouping as the unbatched
//! accumulation loop — so the reported probabilities are `f64`
//! bit-identical as well.
//!
//! # Feedback a drained site cannot use
//!
//! A site whose last refill reply said its queue is empty (`UploadLast`,
//! an exhausted `Upload`, a `Drawn` marked drained, a `Started` with
//! nothing pending) is *drained*: feedback can prune nothing there, so
//! the only thing a delivery buys is the site's survival factor. When the
//! deployment's dominance cover of the site ([`Fanout::may_hold_dominator`])
//! proves the site holds no dominator of a candidate, that factor is the
//! empty product — exactly `1.0`, an IEEE identity in the fold — and the
//! delivery is left out: the factor is filed as `1.0` without a frame.
//! Both delivery points, draw flushes and the closing wave (budget-1
//! broadcasts included), go through [`BatchRound::take_pending`]. A draw
//! whose home is drained sends nothing at all: its refill could only come
//! back empty, and its flush, with nothing left to prune, has no order to
//! keep and waits for the closing wave.
//!
//! The drained flag comes only from refill replies, and every batch size
//! and schedule redeems a site's refill before anything else is delivered
//! to it (a site has at most one representative queued, so it is drawn
//! again only after its refill is in; the last draw's pending refill goes
//! to a site the closing wave has nothing for). So the skipped set, like
//! every other event, is the same at every batch size.

use dsud_net::{Fanout, LinkError, Message, TupleBlock, TupleMsg};
use dsud_obs::{Counter, Recorder};
use dsud_uncertain::SubspaceMask;

use crate::cluster::{expect_drawn, expect_refilled, expect_survival, expect_survival_batch};
use crate::degrade::FailureTracker;
use crate::pipeline::{Request, Schedule};
use crate::{Error, QueryConfig, RunStats, SiteOrder, WireFormat};

/// Ledger for one round: the drawn candidates, how much of the round each
/// site has already seen, and the survival factors collected so far. One
/// ledger serves a whole query; [`BatchRound::reset`] starts each round
/// on the same storage.
pub(crate) struct BatchRound {
    cands: Vec<TupleMsg>,
    budget: usize,
    /// Per site: number of drawn candidates already delivered (an index
    /// into `cands`; the exclusion of the site's own tuples happens at
    /// delivery time).
    sent_upto: Vec<usize>,
    /// `survivals[x][j]` is site `x`'s survival factor for candidate `j`,
    /// `None` while undelivered, for the home site, or for a lost site.
    survivals: Vec<Vec<Option<f64>>>,
    /// The shared ascending fold order (see [`SiteOrder`]).
    order: SiteOrder,
    /// The query's subspace, against which covers prove skips.
    mask: SubspaceMask,
    /// Wire layout for the coalesced feedback frames. Purely a transport
    /// choice: both layouts deliver the same tuples in the same order.
    wire: WireFormat,
    /// How the draws' requests travel.
    schedule: Schedule,
    rec: Recorder,
    /// The last draw of a full round, pending until [`BatchRound::close`]
    /// files its flush and [`BatchRound::settle_last`] hands out its
    /// refill.
    last: Option<Draw>,
    /// The last draw's upload, received with its flush and held until
    /// [`BatchRound::settle_last`].
    held: Option<TupleMsg>,
    /// Per site: the candidates whose survival factors the site holds
    /// from deferred draws, in deferral order. They come back ahead of
    /// the factors of the site's next reply that carries any.
    deferred: Vec<Vec<usize>>,
}

/// One draw's request to its home site: the pending feedback flush and the
/// refill as one [`Message::Draw`], a bare `RequestNext` when there is
/// nothing to flush, or the flush alone when the refill is deferred.
pub(crate) struct Draw {
    home: usize,
    /// The candidates the request's flush covers (empty: no flush).
    idxs: Vec<usize>,
    /// The candidates whose deferred factors the site held when the
    /// request was issued; the reply returns them ahead of the flush's.
    owed: Vec<usize>,
    request: Option<Request>,
    /// Whether the request asks for the refill; when it does not, the
    /// refill is still due.
    refills: bool,
    /// Whether the request is a [`Message::DrawDeferred`] or a
    /// [`Message::RequestNextDeferred`].
    defers: bool,
}

impl Draw {
    /// Whether the reply carries survival factors the fold needs.
    fn files_factors(&self) -> bool {
        !self.idxs.is_empty() || !self.owed.is_empty()
    }

    /// The candidates the reply's factors cover, in reply order.
    fn covered(&mut self) -> Vec<usize> {
        let mut covered = std::mem::take(&mut self.owed);
        covered.extend_from_slice(&self.idxs);
        covered
    }
}

impl BatchRound {
    /// A ledger over `sites` sites for a query on `mask`, framed in
    /// `config`'s wire layout and scheduled by its pipeline setting.
    pub(crate) fn new(
        sites: usize,
        config: &QueryConfig,
        mask: SubspaceMask,
        rec: &Recorder,
    ) -> Self {
        BatchRound {
            cands: Vec::new(),
            budget: 1,
            sent_upto: vec![0; sites],
            survivals: vec![Vec::new(); sites],
            order: SiteOrder::new(sites),
            mask,
            wire: config.wire,
            schedule: Schedule::new(config, rec),
            rec: rec.clone(),
            last: None,
            held: None,
            deferred: vec![Vec::new(); sites],
        }
    }

    /// Starts an empty round of up to `budget` candidates.
    pub(crate) fn reset(&mut self, budget: usize) {
        self.cands.clear();
        self.budget = budget;
        self.sent_upto.fill(0);
        for row in &mut self.survivals {
            row.clear();
        }
        // Only a quarantined site can still hold factors here.
        for owed in &mut self.deferred {
            owed.clear();
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

    /// Whether the round has drawn its whole budget.
    pub(crate) fn is_full(&self) -> bool {
        self.cands.len() >= self.budget
    }

    /// Records a drawn candidate. It becomes part of every site's pending
    /// sub-batch until delivered.
    pub(crate) fn push(&mut self, cand: TupleMsg) {
        self.cands.push(cand);
    }

    pub(crate) fn candidate(&self, j: usize) -> &TupleMsg {
        &self.cands[j]
    }

    /// Takes the indices of the candidates site `x` has not seen yet
    /// (excluding its own), marking them delivered. If `x` is active and
    /// drained, a candidate its cover proves it holds no dominator of is
    /// left out, and its factor filed as exactly `1.0` (see the module
    /// docs).
    fn take_pending(&mut self, x: usize, fan: &Fanout<'_>, tracker: &FailureTracker) -> Vec<usize> {
        let provable = tracker.is_active(x) && tracker.is_drained(x);
        let mut idxs = Vec::new();
        let mut proved = Vec::new();
        for (j, c) in self.cands.iter().enumerate().skip(self.sent_upto[x]) {
            if c.id.site.0 as usize == x {
                continue;
            }
            if provable && !fan.may_hold_dominator(x, &c.values, self.mask) {
                proved.push((j, 1.0));
            } else {
                idxs.push(j);
            }
        }
        self.sent_upto[x] = self.cands.len();
        self.rec.add(Counter::SkippedDeliveries, proved.len() as u64);
        self.fill(x, proved);
        idxs
    }

    /// The candidates `idxs` names, as the feedback they are delivered as.
    fn msgs(&self, idxs: &[usize]) -> Vec<TupleMsg> {
        idxs.iter().map(|&j| self.cands[j].clone()).collect()
    }

    /// Files site `x`'s survival factors for the candidates `factors`
    /// names, and the reply's prune count.
    fn file(
        &mut self,
        x: usize,
        factors: impl IntoIterator<Item = (usize, f64)>,
        pruned: u64,
        stats: &mut RunStats,
    ) {
        self.fill(x, factors);
        stats.pruned_at_sites += pruned;
        self.rec.add(Counter::PrunedAtSites, pruned);
    }

    fn fill(&mut self, x: usize, factors: impl IntoIterator<Item = (usize, f64)>) {
        let row = &mut self.survivals[x];
        if row.len() < self.cands.len() {
            row.resize(self.cands.len(), None);
        }
        for (j, s) in factors {
            row[j] = Some(s);
        }
    }

    /// Files a site's batched survival reply covering candidates `idxs`
    /// (or quarantines the site, in which case its factors stay `None`).
    fn absorb_batch(
        &mut self,
        x: usize,
        idxs: &[usize],
        reply: Result<Message, LinkError>,
        tracker: &mut FailureTracker,
        stats: &mut RunStats,
    ) -> Result<(), Error> {
        let parse = |site, msg| expect_survival_batch(site, msg, idxs.len());
        if let Some((factors, pruned)) = tracker.interpret(x, reply, parse)? {
            self.file(x, idxs.iter().copied().zip(factors), pruned, stats);
        }
        Ok(())
    }

    /// Draws from `home`, whose candidate was just pushed: sends it its
    /// pending sub-batch, if any, and the refill if it is active. A draw
    /// that leaves the round short of its budget is settled on the spot
    /// and returns the uploaded representative; it defers its factors
    /// when the caller says `defer` (see the module docs). The draw that
    /// fills the round is its last: it never defers, stays pending until
    /// [`BatchRound::close`] and [`BatchRound::settle_last`], and leaves
    /// its refill for the latter when `may_finish` says the round's
    /// confirmations could reach the `limit` and make it unwanted.
    pub(crate) fn draw(
        &mut self,
        fan: &mut Fanout<'_>,
        home: usize,
        may_finish: bool,
        defer: bool,
        tracker: &mut FailureTracker,
        stats: &mut RunStats,
    ) -> Result<Option<TupleMsg>, Error> {
        let last = self.is_full();
        let mut draw = self.issue_draw(fan, home, tracker, !(last && may_finish), defer && !last);
        if !last {
            return self.redeem(fan, &mut draw, tracker, stats);
        }
        self.last = Some(draw);
        Ok(None)
    }

    /// Hands out the last draw's refill once the round's confirmations are
    /// in — or drops it when they reached the `limit` (`wanted` is false),
    /// so no representative is requested that the run will not use.
    pub(crate) fn settle_last(
        &mut self,
        fan: &mut Fanout<'_>,
        wanted: bool,
        tracker: &mut FailureTracker,
        stats: &mut RunStats,
    ) -> Result<Option<TupleMsg>, Error> {
        let held = self.held.take();
        let Some(mut draw) = self.last.take() else { return Ok(None) };
        if !wanted {
            self.abandon(fan, draw);
            return Ok(None);
        }
        if draw.request.is_some() {
            return self.redeem(fan, &mut draw, tracker, stats);
        }
        if draw.refills {
            return Ok(held);
        }
        if !tracker.is_active(draw.home) || tracker.is_drained(draw.home) {
            return Ok(None);
        }
        tracker.upload(draw.home, fan.call(draw.home, Message::RequestNext))
    }

    /// Issues a draw's request to `home` without settling it (see
    /// [`BatchRound::draw`]); `refill` says whether it asks for the refill
    /// too, and `defer` whether a flush and refill may travel as a
    /// [`Message::DrawDeferred`] and a bare refill to a site owing factors
    /// as a [`Message::RequestNextDeferred`]. An expunge
    /// sweep issues all of its draws before settling any with
    /// [`BatchRound::settle_all`].
    pub(crate) fn issue_draw(
        &mut self,
        fan: &mut Fanout<'_>,
        home: usize,
        tracker: &FailureTracker,
        refill: bool,
        defer: bool,
    ) -> Draw {
        let mut draw = Draw {
            home,
            idxs: Vec::new(),
            owed: Vec::new(),
            request: None,
            refills: refill,
            defers: false,
        };
        // A drained site's refill can only come back empty, and with
        // nothing left to prune its flush has no order to keep: it waits
        // for the closing wave. (A site holding factors is never drained:
        // the refill that drains a site returns them.)
        if tracker.is_drained(home) {
            return draw;
        }
        let idxs = self.take_pending(home, fan, tracker);
        if !tracker.is_active(home) || (idxs.is_empty() && !refill) {
            return draw;
        }
        let owed = std::mem::take(&mut self.deferred[home]);
        let msg = if idxs.is_empty() {
            // A bare refill at a site owing factors may let it keep them.
            draw.defers = defer && !owed.is_empty();
            if draw.defers {
                Message::RequestNextDeferred
            } else {
                Message::RequestNext
            }
        } else {
            let flush = self.batch_frame(self.msgs(&idxs));
            draw.idxs = idxs;
            draw.defers = refill && defer;
            match (refill, draw.defers) {
                (false, _) => flush,
                (true, false) => Message::Draw(Box::new(flush)),
                (true, true) => Message::DrawDeferred(Box::new(flush)),
            }
        };
        draw.owed = owed;
        draw.request = Some(self.schedule.issue(fan, home, msg));
        draw
    }

    /// Redeems a draw's request: files the survival factors its reply
    /// carries — the site's owed ones, then its flush's, unless the draw
    /// deferred them — and returns the representative its refill
    /// uploaded, if it asked for one. A request to a site quarantined
    /// since the draw was issued is abandoned instead, so the queue evolves
    /// exactly as if it had never been sent; a quarantine on the reply
    /// itself leaves both the factors and the upload out.
    fn redeem(
        &mut self,
        fan: &mut Fanout<'_>,
        draw: &mut Draw,
        tracker: &mut FailureTracker,
        stats: &mut RunStats,
    ) -> Result<Option<TupleMsg>, Error> {
        let Some(request) = draw.request.take() else { return Ok(None) };
        let x = draw.home;
        if !tracker.is_active(x) {
            self.schedule.abandon(fan, request);
            return Ok(None);
        }
        let reply = self.schedule.redeem(fan, request);
        let covered = draw.covered();
        if draw.idxs.is_empty() {
            if covered.is_empty() {
                return tracker.upload(x, reply);
            }
            // A bare refill at a site holding factors returns them, unless
            // it let the site keep them.
            let parse = |site, msg| expect_refilled(site, msg, covered.len(), draw.defers);
            let Some((factors, next, drained)) = tracker.interpret(x, reply, parse)? else {
                return Ok(None);
            };
            tracker.note_refill(x, drained);
            match factors {
                Some(factors) => self.file(x, covered.into_iter().zip(factors), 0, stats),
                None => self.deferred[x] = covered,
            }
            return Ok(next);
        }
        if !draw.refills {
            self.absorb_batch(x, &covered, reply, tracker, stats)?;
            return Ok(None);
        }
        let parse = |site, msg| expect_drawn(site, msg, covered.len(), draw.defers);
        let Some((factors, pruned, next, drained)) = tracker.interpret(x, reply, parse)? else {
            return Ok(None);
        };
        tracker.note_refill(x, drained);
        if draw.defers && !drained {
            // The site keeps every factor it owes for a later frame.
            self.rec.add(Counter::DeferredFactors, draw.idxs.len() as u64);
            self.deferred[x] = covered;
            self.file(x, std::iter::empty(), pruned, stats);
        } else {
            self.file(x, covered.into_iter().zip(factors), pruned, stats);
        }
        Ok(next)
    }

    /// Settles a group of draws in issue order, returning each one's
    /// upload. On an error every later draw is abandoned first, so no
    /// request stays in flight.
    pub(crate) fn settle_all(
        &mut self,
        fan: &mut Fanout<'_>,
        draws: Vec<Draw>,
        tracker: &mut FailureTracker,
        stats: &mut RunStats,
    ) -> Result<Vec<Option<TupleMsg>>, Error> {
        let mut uploads = Vec::with_capacity(draws.len());
        let mut draws = draws.into_iter();
        while let Some(mut draw) = draws.next() {
            match self.redeem(fan, &mut draw, tracker, stats) {
                Ok(next) => uploads.push(next),
                Err(e) => {
                    draws.for_each(|rest| self.abandon(fan, rest));
                    return Err(e);
                }
            }
        }
        Ok(uploads)
    }

    /// Drops a draw whose reply is no longer wanted.
    fn abandon(&mut self, fan: &mut Fanout<'_>, draw: Draw) {
        if let Some(request) = draw.request {
            self.schedule.abandon(fan, request);
        }
    }

    /// Closes the round: every active site receives the feedback it has
    /// not seen yet, in one parallel wave. A budget-1 round broadcasts its
    /// candidate to every active site but its home and checks each reply
    /// as a scalar survival reply; a larger budget sends each site its
    /// pending sub-batch as one coalesced frame. Then the last draw's
    /// flush is filed. On an error the last draw's pending request is
    /// abandoned, so no request stays in flight.
    pub(crate) fn close(
        &mut self,
        fan: &mut Fanout<'_>,
        tracker: &mut FailureTracker,
        stats: &mut RunStats,
    ) -> Result<(), Error> {
        self.schedule.end_round();
        let closed = self.deliver_rest(fan, tracker, stats);
        if closed.is_err() {
            if let Some(draw) = self.last.take() {
                self.abandon(fan, draw);
            }
            return closed;
        }
        // The last draw's factors complete the survival matrix; a refill
        // that rode along with them is held for `settle_last`.
        let Some(mut draw) = self.last.take_if(|d| d.files_factors()) else { return Ok(()) };
        self.held = self.redeem(fan, &mut draw, tracker, stats)?;
        self.last = Some(draw);
        Ok(())
    }

    fn deliver_rest(
        &mut self,
        fan: &mut Fanout<'_>,
        tracker: &mut FailureTracker,
        stats: &mut RunStats,
    ) -> Result<(), Error> {
        if self.budget == 1 {
            let deliver: Vec<bool> = self
                .order
                .iter()
                .map(|x| !self.take_pending(x, fan, tracker).is_empty() && tracker.is_active(x))
                .collect();
            let feedback = Message::Feedback(self.cands[0].clone());
            let replies = fan.broadcast(|x| deliver[x], &feedback);
            for (x, reply) in self.order.verify(replies) {
                if let Some((s, pruned)) = tracker.interpret(x, reply, expect_survival)? {
                    self.file(x, [(0, s)], pruned, stats);
                }
            }
            return Ok(());
        }
        if self.cands.len() > 1 {
            self.rec.incr(Counter::BatchedRounds);
        }
        let mut requests = Vec::new();
        let mut covered_by_site: Vec<Vec<usize>> = vec![Vec::new(); self.order.len()];
        for x in self.order.iter() {
            let idxs = self.take_pending(x, fan, tracker);
            // A site that deferred factors this round always has something
            // left to deliver here (see the module docs); the frame returns
            // its owed factors ahead of the wave's.
            let owed = std::mem::take(&mut self.deferred[x]);
            debug_assert!(
                !idxs.is_empty() || owed.is_empty() || !tracker.is_active(x),
                "site {x} owes factors but has no wave frame"
            );
            if (idxs.is_empty() && owed.is_empty()) || !tracker.is_active(x) {
                continue;
            }
            requests.push((x, self.batch_frame(self.msgs(&idxs))));
            covered_by_site[x] = owed;
            covered_by_site[x].extend(idxs);
        }
        for (x, reply) in self.order.verify(fan.scatter(requests)) {
            let covered = std::mem::take(&mut covered_by_site[x]);
            self.absorb_batch(x, &covered, reply, tracker, stats)?;
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
    use crate::{FailurePolicy, LocalSite, SiteOptions};
    use dsud_net::{BandwidthMeter, FanPlan, Link, LocalLink, Routes};
    use dsud_uncertain::{Probability, TupleId, UncertainTuple};

    /// A config whose only setting the round reads is the legacy wire.
    fn legacy() -> QueryConfig {
        QueryConfig::new(0.5).expect("valid threshold")
    }

    /// The 2-d space the test candidates live in.
    fn plane() -> SubspaceMask {
        SubspaceMask::full(2).expect("two dimensions")
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
    /// factor and reports one prune per probe, and has nothing to refill.
    fn echo(m: Message) -> Message {
        match m {
            Message::FeedbackBatch(ts) => Message::SurvivalBatchReply {
                survivals: ts.iter().map(|t| t.local_prob).collect(),
                pruned: ts.len() as u64,
            },
            // Columnar requests are answered in kind.
            Message::FeedbackBatchC(block) => Message::SurvivalBatchReplyC {
                survivals: block.to_msgs().iter().map(|t| t.local_prob).collect(),
                pruned: block.len() as u64,
            },
            Message::Draw(flush) => {
                Message::Drawn { survivals: Box::new(echo(*flush)), next: None, drained: true }
            }
            // Refills find the site exhausted.
            _ => Message::Upload(None),
        }
    }

    fn echo_links(meter: &BandwidthMeter, sites: usize) -> Vec<Box<dyn Link>> {
        (0..sites).map(|_| Box::new(LocalLink::new(echo, meter.clone())) as _).collect()
    }

    #[test]
    fn round_flushes_excluding_home_and_multiplies_in_site_order() {
        let meter = BandwidthMeter::new();
        let mut links = echo_links(&meter, 3);
        let mut fan = Fanout::flat(&mut links);
        let rec = Recorder::disabled();
        let mut tracker = FailureTracker::new(3, FailurePolicy::Strict, rec.clone());
        let mut stats = RunStats::default();

        let mut round = BatchRound::new(3, &legacy(), plane(), &rec);
        round.reset(2);
        round.push(msg(0, 0, 0.9));
        // Flushing site 0 before its refill sends nothing: the only drawn
        // candidate is site 0's own.
        let next = round.draw(&mut fan, 0, false, false, &mut tracker, &mut stats).unwrap();
        assert_eq!(next, None, "site 0 is exhausted");
        round.push(msg(1, 0, 0.5));
        assert!(round.is_full());
        // The last draw: site 1's pending sub-batch goes out now, its
        // refill after the close.
        round.draw(&mut fan, 1, false, false, &mut tracker, &mut stats).unwrap();
        round.close(&mut fan, &mut tracker, &mut stats).unwrap();
        round.settle_last(&mut fan, true, &mut tracker, &mut stats).unwrap();

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
            let mut round = BatchRound::new(3, &legacy().wire_format(wire), plane(), &rec);
            round.reset(24);
            for j in 0..24 {
                round.push(msg(j % 3, j as u64, 0.05 + 0.03 * j as f64));
            }
            round.draw(&mut fan, 2, false, false, &mut tracker, &mut stats).unwrap();
            round.close(&mut fan, &mut tracker, &mut stats).unwrap();
            round.settle_last(&mut fan, true, &mut tracker, &mut stats).unwrap();
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

        let mut round = BatchRound::new(2, &legacy(), plane(), &rec);
        round.reset(4);
        assert!(round.is_empty());
        round.push(msg(0, 0, 0.8));
        for _ in 0..2 {
            // The first draw flushes and refills in one frame; its reply
            // says the site is exhausted, so the second, with nothing to
            // flush, sends no refill either.
            round.draw(&mut fan, 1, false, false, &mut tracker, &mut stats).unwrap();
        }
        // ...and the closing wave has nothing left to deliver.
        round.close(&mut fan, &mut tracker, &mut stats).unwrap();
        let snap = meter.snapshot();
        assert_eq!((snap.feedback.messages, snap.feedback.tuples), (1, 1), "one draw frame");
        assert_eq!(snap.control.messages, 0, "no refill to an exhausted site");
        assert_eq!(snap.upload.messages, 1, "one reply to the one draw");
    }

    /// The last draw of a round that may reach the `limit` sends its flush
    /// alone and asks for the refill only if the run still wants it; an
    /// unwanted refill is never sent.
    #[test]
    fn a_last_draw_that_may_finish_defers_its_refill() {
        for wanted in [true, false] {
            let meter = BandwidthMeter::new();
            let mut links = echo_links(&meter, 2);
            let mut fan = Fanout::flat(&mut links);
            let rec = Recorder::disabled();
            let mut tracker = FailureTracker::new(2, FailurePolicy::Strict, rec.clone());
            let mut stats = RunStats::default();

            let mut round = BatchRound::new(2, &legacy(), plane(), &rec);
            round.reset(2);
            round.push(msg(0, 0, 0.8));
            round.draw(&mut fan, 0, false, false, &mut tracker, &mut stats).unwrap();
            round.push(msg(1, 0, 0.5));
            round.draw(&mut fan, 1, true, false, &mut tracker, &mut stats).unwrap();
            round.close(&mut fan, &mut tracker, &mut stats).unwrap();
            // The flush is filed before the fold.
            assert_eq!(round.global_probability(0), 0.8 * 0.8);
            round.settle_last(&mut fan, wanted, &mut tracker, &mut stats).unwrap();
            let snap = meter.snapshot();
            // Site 0's bare refill, plus site 1's only if wanted.
            assert_eq!(snap.control.messages, 1 + u64::from(wanted), "wanted={wanted}");
            // Site 1's flush went alone, as a plain feedback batch, and
            // site 0 got candidate 1 in the closing wave.
            assert_eq!(snap.feedback.messages, 2);
            assert_eq!(snap.reply.messages, 2);
        }
    }

    #[test]
    fn budget_one_rounds_broadcast_scalar_feedback_on_a_reused_ledger() {
        let meter = BandwidthMeter::new();
        let service = |m: Message| match m {
            Message::Feedback(t) => Message::SurvivalReply { survival: t.local_prob, pruned: 1 },
            _ => Message::Ack,
        };
        let mut links: Vec<Box<dyn Link>> =
            (0..3).map(|_| Box::new(LocalLink::new(service, meter.clone())) as _).collect();
        let mut fan = Fanout::flat(&mut links);
        let rec = Recorder::disabled();
        let mut tracker = FailureTracker::new(3, FailurePolicy::Strict, rec.clone());
        let mut stats = RunStats::default();

        let mut round = BatchRound::new(3, &legacy(), plane(), &rec);
        for (home, p) in [(1, 0.5), (2, 0.25)] {
            round.reset(1);
            round.push(msg(home, 0, p));
            assert!(round.is_full());
            round.close(&mut fan, &mut tracker, &mut stats).unwrap();
            // Two scalar factors: the home site is skipped.
            assert_eq!(round.global_probability(0), p * p * p);
        }
        let snap = meter.snapshot();
        assert_eq!((snap.feedback.messages, snap.feedback.tuples), (4, 4));
        assert_eq!(stats.pruned_at_sites, 4);
    }

    /// Real sites: site 2 holds one tuple far from the origin, so its
    /// start drains it and its cover proves it dominates none of the other
    /// sites' heads.
    fn drained_deployment(meter: &BandwidthMeter) -> Vec<Box<dyn Link>> {
        let t = |site, seq, v: [f64; 2], p| {
            UncertainTuple::new(TupleId::new(site, seq), v.to_vec(), Probability::new(p).unwrap())
                .unwrap()
        };
        let data = [
            vec![t(0, 0, [1.0, 5.0], 0.9), t(0, 1, [5.0, 1.0], 0.8)],
            vec![t(1, 0, [2.0, 2.0], 0.6), t(1, 1, [3.0, 6.0], 0.5)],
            vec![t(2, 0, [9.0, 9.0], 0.7)],
        ];
        data.into_iter()
            .enumerate()
            .map(|(i, tuples)| {
                let site = LocalSite::new(i as u32, 2, tuples, SiteOptions::default()).unwrap();
                Box::new(LocalLink::new(site, meter.clone())) as Box<dyn Link>
            })
            .collect()
    }

    /// A drained site whose cover proves it holds no dominator of a
    /// candidate gets no frame for it — in a budget-1 broadcast and in a
    /// batched closing wave — while the fold and the prune count are
    /// exactly those of the run that delivers everything.
    #[test]
    fn a_drained_site_its_cover_clears_gets_no_frame() {
        for budget in [1, 2] {
            let mut runs = Vec::new();
            for covered in [false, true] {
                let meter = BandwidthMeter::new();
                let mut links = drained_deployment(&meter);
                let rec = Recorder::enabled();
                let plan = FanPlan::flat(3);
                let routes = if covered {
                    crate::cluster::routes_with_covers(&mut links, plan, &rec)
                } else {
                    Routes::new(plan)
                };
                meter.reset();
                let mut fan = Fanout::tree(&mut links, &routes, rec.clone());
                let mut tracker = FailureTracker::new(3, FailurePolicy::Strict, rec.clone());
                let mut stats = RunStats::default();
                let start = Message::Start { q: 0.1, mask: plane(), counted: false };
                let heads: Vec<TupleMsg> = (0..3)
                    .map(|x| tracker.upload(x, fan.call(x, start.clone())).unwrap().unwrap())
                    .collect();
                assert!(tracker.is_drained(2) && !tracker.is_drained(0) && !tracker.is_drained(1));

                let mut round = BatchRound::new(3, &legacy(), plane(), &rec);
                round.reset(budget);
                for head in heads.into_iter().take(budget) {
                    let home = head.id.site.0 as usize;
                    round.push(head);
                    round.draw(&mut fan, home, false, false, &mut tracker, &mut stats).unwrap();
                }
                round.close(&mut fan, &mut tracker, &mut stats).unwrap();
                round.settle_last(&mut fan, true, &mut tracker, &mut stats).unwrap();
                let folds: Vec<u64> =
                    (0..round.len()).map(|j| round.global_probability(j).to_bits()).collect();
                let skipped = rec.counter(Counter::SkippedDeliveries);
                runs.push((folds, stats.pruned_at_sites, meter.snapshot().feedback, skipped));
            }
            let (all, proved) = (&runs[0], &runs[1]);
            let at = format!("budget {budget}");
            assert_eq!(proved.0, all.0, "{at}: the fold is unchanged");
            assert_eq!(proved.1, all.1, "{at}: pruning is unchanged");
            assert_eq!((all.3, proved.3), (0, budget as u64), "{at}: one skip per candidate");
            assert_eq!(proved.2.messages + 1, all.2.messages, "{at}: site 2 gets no frame");
            assert_eq!(proved.2.tuples + budget as u64, all.2.tuples, "{at}");
        }
    }

    /// A round whose draws defer their factors folds and prunes exactly
    /// as the round that computes them in every draw, with the same
    /// messages, tuples and total bytes; only the byte split between
    /// upload and reply classes moves, by 8 bytes per deferred factor that
    /// came back in the closing wave.
    #[test]
    fn deferred_draws_fold_and_ship_what_inline_draws_do() {
        let run = |defer: bool| {
            let meter = BandwidthMeter::new();
            // Three sites of six points each on one anti-diagonal: every
            // point is in its local skyline, and heads alternate sites.
            let data = (0..3u32).map(|site| {
                (0..6u64)
                    .map(|seq| {
                        let x = seq as f64 + 0.3 * f64::from(site);
                        let p = Probability::new(0.3 + 0.1 * ((seq + u64::from(site)) % 5) as f64);
                        UncertainTuple::new(TupleId::new(site, seq), vec![x, 10.0 - x], p.unwrap())
                            .unwrap()
                    })
                    .collect::<Vec<_>>()
            });
            let mut links: Vec<Box<dyn Link>> = data
                .into_iter()
                .enumerate()
                .map(|(i, tuples)| {
                    let site = LocalSite::new(i as u32, 2, tuples, SiteOptions::default()).unwrap();
                    Box::new(LocalLink::new(site, meter.clone())) as Box<dyn Link>
                })
                .collect();
            let mut fan = Fanout::flat(&mut links);
            let rec = Recorder::enabled();
            let mut tracker = FailureTracker::new(3, FailurePolicy::Strict, rec.clone());
            let mut stats = RunStats::default();
            let start = Message::Start { q: 0.05, mask: plane(), counted: false };
            let mut queue: Vec<TupleMsg> = (0..3)
                .filter_map(|x| tracker.upload(x, fan.call(x, start.clone())).unwrap())
                .collect();
            let mut round = BatchRound::new(3, &legacy(), plane(), &rec);
            round.reset(8);
            while !round.is_full() && !queue.is_empty() {
                let head = (0..queue.len())
                    .max_by(|&a, &b| queue[a].local_prob.total_cmp(&queue[b].local_prob))
                    .unwrap();
                let cand = queue.swap_remove(head);
                let home = cand.id.site.0 as usize;
                round.push(cand);
                let follows = !queue.is_empty();
                let next =
                    round.draw(&mut fan, home, false, defer && follows, &mut tracker, &mut stats);
                queue.extend(next.unwrap());
            }
            round.close(&mut fan, &mut tracker, &mut stats).unwrap();
            round.settle_last(&mut fan, true, &mut tracker, &mut stats).unwrap();
            let folds: Vec<u64> =
                (0..round.len()).map(|j| round.global_probability(j).to_bits()).collect();
            (folds, stats.pruned_at_sites, meter.snapshot(), rec.counter(Counter::DeferredFactors))
        };
        let (inline, deferred) = (run(false), run(true));
        assert_eq!(inline.3, 0);
        assert!(deferred.3 > 0, "some draw deferred its factors");
        assert_eq!(deferred.0, inline.0, "the fold is unchanged");
        assert_eq!(deferred.1, inline.1, "pruning is unchanged");
        let (a, b) = (deferred.2, inline.2);
        assert_eq!(a.total(), b.total(), "messages, tuples and bytes are unchanged");
        // Factors that came back in the wave moved from draw replies
        // (uploads) to wave replies; the rest came back in later draws.
        let moved = a.reply.bytes - b.reply.bytes;
        assert_eq!(b.upload.bytes - a.upload.bytes, moved);
        assert!(moved > 0 && moved <= 8 * deferred.3 && moved.is_multiple_of(8), "{moved}");
    }
}
