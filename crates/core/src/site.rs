//! The site side of the protocol: `S_i`'s query and update handlers.
//!
//! [`LocalSite`] owns one uncertain database `D_i` behind a PR-tree and
//! answers every coordinator [`Message`]: local-skyline extraction and
//! streaming (the To-Server phase, Section 5.1), survival products and
//! Local-Pruning on feedback (Server-Delivery phase), dominance-region
//! re-evaluation and replica bookkeeping for update maintenance
//! (Section 5.4), and grid synopses (Section 5.2). Because it implements
//! [`dsud_net::Service`], the identical code runs inline, on a thread, or
//! behind a TCP socket.

use std::collections::HashMap;

use bytes::BufMut;
use dsud_net::{wire, BatchView, Cover, Message, Service, TupleMsg};
use dsud_obs::Recorder;
use dsud_prtree::{bbs, BbsScratch, PrTree};
use dsud_uncertain::{
    dominates_in, ProbeRows, ProbeSet, SiteId, SubspaceMask, TupleId, UncertainTuple,
};

use crate::pending::{PendingCandidate, PendingSet};
use crate::{Error, SiteOptions, UpdatePolicy, WireFormat};

/// A participant `S_i` of the distributed system: owns the uncertain
/// database `D_i` (indexed by a PR-tree) and implements the site side of
/// the DSUD / e-DSUD protocol plus update maintenance.
///
/// The site is driven entirely through [`Message`]s (it implements
/// [`Service`]), so the same code runs inline behind a
/// [`dsud_net::LocalLink`] or on its own thread behind a
/// [`dsud_net::ChannelLink`].
#[derive(Debug)]
pub struct LocalSite {
    id: SiteId,
    dims: usize,
    tree: PrTree,
    options: SiteOptions,
    query: Option<ActiveQuery>,
    /// Parked per-query cursors of the session layer: a
    /// [`Message::Tagged`] frame swaps the identified query's state into
    /// the `query` slot, dispatches the inner message through the ordinary
    /// handlers, and parks the state again — so multiplexed queries reuse
    /// the one-shot code paths verbatim and stay bit-identical to them.
    sessions: HashMap<u64, ActiveQuery>,
    /// Replica of the global skyline `SKY(H)` (Section 5.4): lets the site
    /// decide locally whether an update can affect the global result.
    replica: Vec<TupleMsg>,
    /// Reused BBS traversal buffers: a site answers one Start plus many
    /// region queries per workload, all against the same tree.
    scratch: BbsScratch,
    /// Reused feedback-batch buffers (probe rows gathered from a columnar
    /// view plus the survival factors of the reply), so a warm site
    /// answers every batched round without heap allocation.
    feed: FeedbackScratch,
    /// Local-Pruning finds its hits with the plain scan over the queue
    /// (the reference the pending index is tested against).
    #[cfg(test)]
    reference_scan: bool,
}

/// Site-held buffers for one batched feedback round, reused across rounds.
#[derive(Debug, Default)]
struct FeedbackScratch {
    rows: ProbeRows,
    survivals: Vec<f64>,
}

/// Per-query state: the surviving local skyline, in descending local
/// probability order, with accumulated feedback discounts and the index
/// Local-Pruning searches it with.
#[derive(Debug)]
struct ActiveQuery {
    q: f64,
    mask: SubspaceMask,
    pending: PendingSet,
    /// Candidates eliminated by feedback, remembered with the discounts
    /// that killed them. The paper's update protocol "retrieves the skyline
    /// tuples pruned by t" when a member `t` is deleted — this is that
    /// memory (used by [`UpdatePolicy::Replica`]).
    pruned: Vec<PendingCandidate>,
}

impl LocalSite {
    /// Builds a site over its local tuples.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongSiteId`] if a tuple is labelled for a
    /// different site, or [`Error::DimensionMismatch`] /
    /// [`Error::Index`] for malformed data.
    pub fn new(
        site_index: u32,
        dims: usize,
        tuples: Vec<UncertainTuple>,
        options: SiteOptions,
    ) -> Result<Self, Error> {
        if let Some(bad) = tuples.iter().find(|t| t.id().site.0 != site_index) {
            return Err(Error::WrongSiteId { expected: site_index, actual: bad.id().site.0 });
        }
        let tree = PrTree::bulk_load(dims, tuples)?;
        Ok(LocalSite {
            id: SiteId(site_index),
            dims,
            tree,
            options,
            query: None,
            sessions: HashMap::new(),
            replica: Vec::new(),
            scratch: BbsScratch::default(),
            feed: FeedbackScratch::default(),
            #[cfg(test)]
            reference_scan: false,
        })
    }

    /// Attaches an observability recorder to this site's PR-tree so its
    /// BBS traversals are counted in run reports.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.tree.set_recorder(recorder);
    }

    /// The site's identifier.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// Number of tuples currently stored.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the local database is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Read access to the local index (used by tests and examples).
    pub fn tree(&self) -> &PrTree {
        &self.tree
    }

    /// The site's dominance cover ([`PrTree::dominance_cover`]): what it
    /// answers a [`Message::CoverRequest`] with.
    pub fn cover(&self) -> Cover {
        Cover::new(self.dims, self.tree.dominance_cover())
    }

    /// The site's current replica of `SKY(H)`.
    pub fn replica(&self) -> &[TupleMsg] {
        &self.replica
    }

    /// Number of local-skyline candidates not yet uploaded or pruned.
    pub fn pending_candidates(&self) -> usize {
        self.query.as_ref().map_or(0, |a| a.pending.len())
    }

    /// Reserved capacity of the site-held multi-probe feedback buffers.
    ///
    /// The pipelined coordinators keep every site answering a coalesced
    /// [`Message::FeedbackBatch`] per round; the traversal buffers behind
    /// those answers live on the site (inside its [`BbsScratch`]) and must
    /// stop growing after the first batch. Tests assert this footprint is
    /// stable in steady state.
    pub fn multi_probe_footprint(&self) -> usize {
        self.scratch.multi_probe_footprint()
    }

    /// Reserved capacity of the site-held feedback-batch buffers (gathered
    /// probe rows + survival factors), the other half of the batched
    /// round's steady-state footprint.
    pub fn feedback_scratch_footprint(&self) -> usize {
        self.feed.rows.footprint() + self.feed.survivals.capacity()
    }

    /// Computes `SKY(D_i)` for the query and answers with its first
    /// representative; a counted start also reports how many candidates
    /// remain behind it, so the coordinator learns the cluster's exact
    /// candidate total from the replies it needs anyway.
    fn start(&mut self, q: f64, mask: SubspaceMask, counted: bool) -> Message {
        let sky = match bbs::local_skyline_with(&self.tree, q, mask, &mut self.scratch) {
            Ok(sky) => sky,
            // The coordinator validates q and mask before starting; a
            // failure here means the two sides disagree on the space. The
            // rejected query replaces the previous one all the same, so no
            // later refill streams the previous query's candidates.
            Err(_) => {
                self.query = None;
                return if counted {
                    Message::Started { pending: 0, next: None }
                } else {
                    Message::Upload(None)
                };
            }
        };
        let pending = PendingSet::new(sky.into_iter().map(|e| PendingCandidate {
            tuple: e.tuple,
            local_prob: e.probability,
            discounted_by: Vec::new(),
        }));
        self.query = Some(ActiveQuery { q, mask, pending, pruned: Vec::new() });
        #[cfg(test)]
        if let Some(active) = &mut self.query {
            active.pending.reference = self.reference_scan;
        }
        if !counted {
            return self.upload();
        }
        let next = self.next_candidate();
        let pending = u32::try_from(self.pending_candidates()).unwrap_or(u32::MAX);
        Message::Started { pending, next }
    }

    /// The next representative to upload (the To-Server phase), if the
    /// query has one left.
    fn next_candidate(&mut self) -> Option<TupleMsg> {
        self.pop_candidate().map(|c| TupleMsg::new(&c.tuple, c.local_prob))
    }

    /// A refill's reply: the next representative, as
    /// [`Message::UploadLast`] when it leaves the queue empty.
    fn upload(&mut self) -> Message {
        match self.next_candidate() {
            Some(t) if self.pending_candidates() == 0 => Message::UploadLast(t),
            next => Message::Upload(next),
        }
    }

    fn pop_candidate(&mut self) -> Option<PendingCandidate> {
        self.query.as_mut()?.pending.pop_front()
    }

    /// Runs `f` with the cursor of session query `query_id` in the `query`
    /// slot (the default cursor when `None`), parking it again afterwards.
    fn in_session<R>(&mut self, query_id: Option<u64>, f: impl FnOnce(&mut Self) -> R) -> R {
        let Some(qid) = query_id else { return f(self) };
        let parked = self.query.take();
        self.query = self.sessions.remove(&qid);
        let out = f(self);
        if let Some(state) = self.query.take() {
            self.sessions.insert(qid, state);
        }
        self.query = parked;
        out
    }

    /// The Local-Pruning phase (Section 5.1): a feedback tuple `t` from
    /// another site multiplies the discount of every dominated candidate
    /// by `(1 − P(t))`; candidates whose upper bound
    /// `P_sky(s, D_i) × discount` falls below `q` can never reach the
    /// global threshold (Corollary 1 applied to the accumulated bound) and
    /// are dropped.
    fn feedback(&mut self, msg: &TupleMsg) -> Message {
        let mask = self.active_mask();
        let survival = self.tree.survival_product(&msg.values, mask);
        let pruned = self.apply_feedback_pruning(msg.id, msg.prob, &msg.values, mask);
        Message::SurvivalReply { survival, pruned }
    }

    /// Batched Server-Delivery: answer `K` feedbacks from one coalesced
    /// frame. All `K` survival products come from a single shared PR-tree
    /// traversal ([`PrTree::survival_products`]), then the `K` pruning
    /// passes run in batch order — survival products read only the tree,
    /// which feedback never mutates, so the reply and the site's pending
    /// queue are bit-identical to `K` back-to-back [`Message::Feedback`]s.
    fn feedback_batch(&mut self, msgs: &[TupleMsg]) -> Message {
        let mask = self.active_mask();
        // The traversal's heavy per-level buffers persist on `self.scratch`
        // across rounds; only the frame-borrowing probe list and the
        // reply-owned survival vector are built per call.
        let probes: Vec<&[f64]> = msgs.iter().map(|m| m.values.as_slice()).collect();
        let mut survivals = Vec::with_capacity(msgs.len());
        self.tree.survival_products(&probes, mask, self.scratch.multi_probe(), &mut survivals);
        let mut pruned = 0;
        for msg in msgs {
            pruned += self.apply_feedback_pruning(msg.id, msg.prob, &msg.values, mask);
        }
        Message::SurvivalBatchReply { survivals, pruned }
    }

    /// [`LocalSite::feedback_batch`] over columnar rows: a borrowed frame
    /// view (the fast path behind [`Service::handle_frame`]) or an owned
    /// block (inline links, which decode before dispatch). `gather`
    /// transposes the `n` rows into the site-held [`FeedbackScratch`] (so
    /// the strided columns become contiguous rows exactly once) and `row`
    /// names row `k`'s id and `P(t)`. The survival factors land in the same
    /// scratch for the caller to answer with, and the pruning passes run in
    /// batch order — bit-identical to the row-message path, with zero
    /// per-tuple allocation once warm.
    fn feedback_columns(
        &mut self,
        n: usize,
        gather: impl FnOnce(&mut ProbeRows),
        row: impl Fn(usize) -> (TupleId, f64),
    ) -> u64 {
        let mask = self.active_mask();
        let mut feed = std::mem::take(&mut self.feed);
        gather(&mut feed.rows);
        self.tree.survival_products(
            &feed.rows,
            mask,
            self.scratch.multi_probe(),
            &mut feed.survivals,
        );
        let mut pruned = 0;
        for k in 0..n {
            let (id, prob) = row(k);
            pruned += self.apply_feedback_pruning(id, prob, feed.rows.probe(k), mask);
        }
        self.feed = feed;
        pruned
    }

    fn active_mask(&self) -> SubspaceMask {
        self.query
            .as_ref()
            .map(|a| a.mask)
            .unwrap_or_else(|| SubspaceMask::full(self.dims).expect("dims validated at build"))
    }

    fn apply_feedback_pruning(
        &mut self,
        id: TupleId,
        prob: f64,
        values: &[f64],
        mask: SubspaceMask,
    ) -> u64 {
        match self.query.as_mut() {
            Some(active) if self.options.pruning && id.site != self.id => {
                let factor = 1.0 - prob;
                active.pending.prune(id, factor, values, mask, active.q, &mut active.pruned)
            }
            _ => 0,
        }
    }

    fn inject_insert(&mut self, msg: &TupleMsg) -> Message {
        let tuple = msg.to_tuple();
        let values = tuple.values().to_vec();
        let prob = tuple.prob().get();
        if self.tree.insert(tuple).is_err() {
            // Duplicate or dimension mismatch: nothing changed locally.
            return Message::Ack;
        }
        let Some(active) = self.query.as_ref() else {
            return Message::Ack;
        };
        let (q, mask) = (active.q, active.mask);
        let local_prob = prob * self.tree.survival_product(&values, mask);
        let dominates_member = self.replica.iter().any(|r| dominates_in(&values, &r.values, mask));
        // Replica-based sound bound on the new tuple's global probability:
        // foreign replica members dominating it are confirmed dominators.
        let replica_bound = local_prob
            * self
                .replica
                .iter()
                .filter(|r| r.id.site != self.id && dominates_in(&r.values, &values, mask))
                .map(|r| 1.0 - r.prob)
                .product::<f64>();
        if (local_prob >= q && replica_bound >= q) || dominates_member {
            // The insertion can change SKY(H): either the new tuple itself
            // is a candidate, or it discounts a current member.
            Message::NotifyInsert(TupleMsg { local_prob, ..msg.clone() })
        } else {
            // Purely local: the tuple is provably no member itself and
            // every tuple it discounts is a non-member whose probability
            // only decreases.
            Message::Ack
        }
    }

    fn inject_delete(&mut self, msg: &TupleMsg) -> Message {
        if self.tree.remove(msg.id, &msg.values).is_none() {
            return Message::Ack;
        }
        if self.query.is_none() {
            return Message::Ack;
        }
        match self.options.update_policy {
            // Deleting t raises the probability of every tuple it dominated
            // — anywhere in the system — so the server must re-evaluate
            // t's dominance region (and drop t itself if it was a member).
            UpdatePolicy::Exact => Message::NotifyDelete(msg.clone()),
            // Paper heuristic: only member deletions travel; missed
            // promotions are accepted (see UpdatePolicy docs).
            UpdatePolicy::Replica => {
                if self.replica.iter().any(|r| r.id == msg.id) {
                    Message::NotifyDelete(msg.clone())
                } else {
                    Message::Ack
                }
            }
        }
    }

    /// A region-query reply in the site's preferred wire layout
    /// ([`SiteOptions::wire`]); both layouts carry identical tuples.
    fn region_reply(&self, tuples: Vec<TupleMsg>) -> Message {
        match self.options.wire {
            WireFormat::Legacy => Message::RegionReply(tuples),
            WireFormat::Columnar => Message::RegionReplyC(dsud_net::TupleBlock::from_msgs(&tuples)),
        }
    }

    fn region_query(&mut self, msg: &TupleMsg) -> Message {
        if self.query.is_none() {
            return self.region_reply(Vec::new());
        }
        let active = self.query.as_mut().expect("checked above");
        // At the deleted tuple's home site its removal changed *local*
        // probabilities, so the region must be re-scanned regardless of
        // policy. At other sites:
        //   Exact   — full region scan (dominated tuples gained global
        //             probability even though local values are unchanged);
        //   Replica — the paper's cheaper memory: resurrect only candidates
        //             that the deleted tuple's feedback had pruned.
        let home = msg.id.site == self.id;
        if home || self.options.update_policy == UpdatePolicy::Exact {
            let (q, mask) = (active.q, active.mask);
            let tuples = match bbs::local_skyline_in_region_with(
                &self.tree,
                q,
                mask,
                &msg.values,
                &mut self.scratch,
            ) {
                Ok(entries) => {
                    entries.into_iter().map(|e| TupleMsg::new(&e.tuple, e.probability)).collect()
                }
                Err(_) => Vec::new(),
            };
            return self.region_reply(tuples);
        }
        let q = active.q;
        let mut resurrected = Vec::new();
        for c in &mut active.pruned {
            if c.forget(msg.id, q) {
                resurrected.push(TupleMsg::new(&c.tuple, c.local_prob));
            }
        }
        self.region_reply(resurrected)
    }

    fn replica_remove(&mut self, id: TupleId) {
        self.replica.retain(|r| r.id != id);
    }
}

impl Service for LocalSite {
    fn handle(&mut self, msg: Message) -> Message {
        match msg {
            // Session multiplexing: park the default cursor, swap in the
            // tagged query's cursor, run the inner message through the very
            // same arms below, and park the cursor again. The inner
            // handlers cannot tell a multiplexed round from a one-shot one.
            // A frame names one session: a nested wrapper is malformed.
            Message::Tagged { query_id, inner } => match *inner {
                Message::Release => {
                    self.sessions.remove(&query_id);
                    Message::Ack
                }
                Message::Tagged { .. } => Message::DecodeError,
                inner => self.in_session(Some(query_id), |site| site.handle(inner)),
            },
            // An untagged Release clears the default query slot.
            Message::Release => {
                self.query = None;
                Message::Ack
            }
            Message::Start { q, mask, counted } => self.start(q, mask, counted),
            Message::RequestNext => self.upload(),
            // A draw: its flush, then its refill — the same two events in
            // the same order as the separate requests.
            Message::Draw(flush) => {
                let survivals = Box::new(self.handle(*flush));
                let next = self.next_candidate();
                Message::Drawn { survivals, next, drained: self.pending_candidates() == 0 }
            }
            Message::CoverRequest => Message::Cover(self.cover()),
            Message::Feedback(t) => self.feedback(&t),
            Message::FeedbackBatch(ts) => self.feedback_batch(&ts),
            // Message-level columnar feedback (inline links decode before
            // dispatch, bypassing the frame fast path): the fast path's
            // body over the owned block, answered in kind.
            Message::FeedbackBatchC(block) => {
                let pruned = self.feedback_columns(
                    block.len(),
                    |rows| block.gather_rows(rows),
                    |k| (TupleId::new(block.sites[k], block.seqs[k]), block.probs[k]),
                );
                Message::SurvivalBatchReplyC { survivals: self.feed.survivals.clone(), pruned }
            }
            Message::InjectInsert(t) => self.inject_insert(&t),
            Message::InjectDelete(t) => self.inject_delete(&t),
            Message::RegionQuery(t) => self.region_query(&t),
            Message::ReplicaSync(tuples) => {
                self.replica = tuples;
                Message::Ack
            }
            Message::ReplicaSyncC(block) => {
                self.replica = block.to_msgs();
                Message::Ack
            }
            Message::ReplicaAdd(t) => {
                self.replica_remove(t.id);
                self.replica.push(t);
                Message::Ack
            }
            Message::ReplicaRemove(t) => {
                self.replica_remove(t.id);
                Message::Ack
            }
            Message::SynopsisRequest { resolution } => {
                let tuples: Vec<_> = self.tree.iter().cloned().collect();
                match crate::synopsis::build_synopsis(tuples.iter(), self.dims, resolution) {
                    Some(syn) => Message::Synopsis(syn),
                    None => Message::Ack, // empty site: nothing to summarize
                }
            }
            // Liveness probe from the session server's heartbeat: echo the
            // nonce so the coordinator can match the ack to its probe. No
            // query state is touched — a probe mid-query is invisible.
            Message::HealthProbe { nonce } => Message::HealthAck { nonce },
            // Aggregate container frames terminate at aggregators, never at
            // leaf sites; like the site-originated messages below they are
            // protocol errors by construction, answered inertly.
            Message::AggBroadcast { .. }
            | Message::AggScatter { .. }
            | Message::AggReplies { .. } => Message::Ack,
            // Site-originated messages arriving at a site are protocol
            // errors by construction; answer inertly rather than panic so a
            // buggy coordinator cannot take down a site thread. Sites keep
            // no sketch: a plan-phase sketch request is answered the same
            // way, touching no cursor.
            Message::SketchRequest
            | Message::Upload(_)
            | Message::SurvivalReply { .. }
            | Message::SurvivalBatchReply { .. }
            | Message::SurvivalBatchReplyC { .. }
            | Message::NotifyInsert(_)
            | Message::NotifyDelete(_)
            | Message::RegionReply(_)
            | Message::RegionReplyC(_)
            | Message::Synopsis(_)
            | Message::Drawn { .. }
            | Message::Started { .. }
            | Message::UploadLast(_)
            | Message::Cover(_)
            | Message::HealthAck { .. }
            | Message::DecodeError
            | Message::Ack => Message::Ack,
        }
    }

    /// Frame-level fast path: a columnar feedback batch, bare or as the
    /// flush of a [`Message::Draw`], and either way bare or inside a
    /// [`Message::Tagged`] wrapper, is answered straight from the borrowed
    /// frame bytes — the probe coordinates are read out of the frame's
    /// column sections and the reply (with a draw's upload) is encoded
    /// directly into the transport's reusable buffer, so a warm batched
    /// round runs socket to dominance kernel with zero per-tuple
    /// allocation. Every other frame (and any columnar frame that fails
    /// validation) takes the default decode → [`Service::handle`] → encode
    /// path.
    fn handle_frame(&mut self, frame: &[u8], out: &mut bytes::BytesMut) {
        let (query_id, rest) = match frame {
            [wire::TAG_TAGGED, tail @ ..] if tail.len() > 8 => {
                let qid = u64::from_be_bytes(tail[..8].try_into().expect("8 bytes checked"));
                (Some(qid), &tail[8..])
            }
            _ => (None, frame),
        };
        let (draw, body) = match rest {
            [wire::TAG_DRAW, body @ ..] => (true, body),
            _ => (false, rest),
        };
        let view = match body.first() {
            Some(&wire::TAG_FEEDBACK_BATCH_C) => BatchView::parse(body),
            _ => None,
        };
        // Not a columnar flush, or a malformed one: the default path
        // answers `DecodeError` for undecodable frames without panicking.
        let Some(view) = view else { return default_handle_frame(self, frame, out) };
        self.in_session(query_id, |site| {
            let pruned = site.feedback_columns(
                view.len(),
                |rows| view.gather_rows(rows),
                |k| (view.id(k), view.prob(k)),
            );
            out.clear();
            if draw {
                // The draw's refill, after its flush exactly as in
                // `handle`; the upload precedes the survivals on the wire.
                match site.pop_candidate() {
                    Some(c) => {
                        let t = &c.tuple;
                        out.put_u8(if site.pending_candidates() == 0 {
                            wire::TAG_DRAWN_LAST
                        } else {
                            wire::TAG_DRAWN
                        });
                        TupleMsg::encode_tuple(
                            t.id(),
                            t.values(),
                            t.prob().get(),
                            c.local_prob,
                            out,
                        );
                    }
                    None => out.put_u8(wire::TAG_DRAWN_EXHAUSTED),
                }
            }
            let survivals = &site.feed.survivals;
            out.reserve(wire::survivals_encoded_len(survivals.len()));
            wire::encode_survivals(survivals, pruned, out);
        });
    }
}

/// The [`Service::handle_frame`] default body, reachable from the
/// override's fallback arms (Rust has no `super` call for provided trait
/// methods).
fn default_handle_frame(site: &mut LocalSite, frame: &[u8], out: &mut bytes::BytesMut) {
    let reply = match Message::decode_slice(frame) {
        Some(msg) => site.handle(msg),
        None => Message::DecodeError,
    };
    reply.encode_into(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::expect_upload;
    use dsud_uncertain::Probability;

    fn tuple(site: u32, seq: u64, values: Vec<f64>, p: f64) -> UncertainTuple {
        UncertainTuple::new(TupleId::new(site, seq), values, Probability::new(p).unwrap()).unwrap()
    }

    fn full(d: usize) -> SubspaceMask {
        SubspaceMask::full(d).unwrap()
    }

    /// Site S1 of the paper's Table 2(a): local skyline
    /// (6,6,0.7,0.65), (8,4,0.8,0.6), (3,8,0.8,0.5).
    fn paper_site_s1() -> LocalSite {
        let tuples = vec![
            tuple(0, 0, vec![6.0, 6.0], 0.7),
            tuple(0, 1, vec![8.0, 4.0], 0.8),
            tuple(0, 2, vec![3.0, 8.0], 0.8),
            tuple(0, 3, vec![5.0, 5.0], 1.0 - 0.65 / 0.7),
            tuple(0, 4, vec![7.0, 3.0], 0.25),
            tuple(0, 5, vec![2.0, 7.0], 0.375),
        ];
        LocalSite::new(0, 2, tuples, SiteOptions::default()).unwrap()
    }

    #[test]
    fn rejects_foreign_tuples() {
        let err =
            LocalSite::new(0, 2, vec![tuple(3, 0, vec![1.0, 1.0], 0.5)], SiteOptions::default());
        assert_eq!(err.unwrap_err(), Error::WrongSiteId { expected: 0, actual: 3 });
    }

    #[test]
    fn start_uploads_best_local_candidate() {
        let mut site = paper_site_s1();
        let reply = site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        let Message::Upload(Some(t)) = reply else { panic!("expected upload, got {reply:?}") };
        assert_eq!(t.values, vec![6.0, 6.0]);
        assert!((t.local_prob - 0.65).abs() < 1e-12);
        assert_eq!(site.pending_candidates(), 2);
    }

    /// A counted start uploads exactly what a plain one does and reports
    /// the candidates left behind it, bare and `Tagged`; their sum with
    /// the upload is the local skyline's size at the query's `(q, mask)`.
    #[test]
    fn counted_start_reports_the_pending_count() {
        for (q, mask) in
            [(0.5, full(2)), (0.3, full(2)), (0.3, SubspaceMask::from_dims(&[1]).unwrap())]
        {
            for query_id in [None, Some(5)] {
                let wrap = |m: Message| match query_id {
                    Some(id) => Message::Tagged { query_id: id, inner: Box::new(m) },
                    None => m,
                };
                let mut plain = paper_site_s1();
                let mut counted = paper_site_s1();
                let (want, drained) = expect_upload(
                    0,
                    plain.handle(wrap(Message::Start { q, mask, counted: false })),
                )
                .expect("a plain start uploads");
                let reply = counted.handle(wrap(Message::Start { q, mask, counted: true }));
                let Message::Started { pending, next } = reply else {
                    panic!("a counted start answers Started, got {reply:?}")
                };
                assert_eq!(next, want);
                assert_eq!(pending == 0, drained, "both replies say whether the queue is empty");
                let sky = bbs::local_skyline(counted.tree(), q, mask).unwrap();
                assert_eq!(pending as usize + usize::from(next.is_some()), sky.len());
                // The cursors behind both replies stream identically.
                loop {
                    let a = plain.handle(wrap(Message::RequestNext));
                    assert_eq!(a, counted.handle(wrap(Message::RequestNext)));
                    if matches!(a, Message::Upload(None)) {
                        break;
                    }
                }
            }
        }
        // The paper's S1 at q = 0.5: (6,6) first, two more behind it.
        let mut site = paper_site_s1();
        let reply = site.handle(Message::Start { q: 0.5, mask: full(2), counted: true });
        assert!(matches!(reply, Message::Started { pending: 2, next: Some(_) }), "{reply:?}");
    }

    /// A Start the site rejects (`q` out of range) ends the previous
    /// query: a refill after it uploads nothing, bare or `Tagged`.
    #[test]
    fn a_rejected_start_clears_the_previous_cursor() {
        for query_id in [None, Some(4)] {
            let wrap = |m: Message| match query_id {
                Some(id) => Message::Tagged { query_id: id, inner: Box::new(m) },
                None => m,
            };
            for counted in [false, true] {
                let mut site = paper_site_s1();
                site.handle(wrap(Message::Start { q: 0.5, mask: full(2), counted }));
                let rejected = site.handle(wrap(Message::Start { q: 1.5, mask: full(2), counted }));
                let empty = if counted {
                    Message::Started { pending: 0, next: None }
                } else {
                    Message::Upload(None)
                };
                assert_eq!(rejected, empty);
                assert_eq!(site.handle(wrap(Message::RequestNext)), Message::Upload(None));
                assert_eq!(site.pending_candidates(), 0);
            }
        }
    }

    /// Sites keep no sketch: a sketch request is answered `Ack` and
    /// touches no cursor, bare or `Tagged`.
    #[test]
    fn sketch_requests_answer_ack_and_touch_no_cursor() {
        let tagged = |inner: Message| Message::Tagged { query_id: 3, inner: Box::new(inner) };
        let mut site = paper_site_s1();
        let mut twin = paper_site_s1();
        for s in [&mut site, &mut twin] {
            s.handle(Message::Start { q: 0.3, mask: full(2), counted: false });
            s.handle(tagged(Message::Start { q: 0.5, mask: full(2), counted: false }));
        }
        assert_eq!(site.handle(Message::SketchRequest), Message::Ack);
        assert_eq!(site.handle(tagged(Message::SketchRequest)), Message::Ack);
        let mut out = bytes::BytesMut::new();
        site.handle_frame(&Message::SketchRequest.encode(), &mut out);
        assert_eq!(Message::decode_slice(&out), Some(Message::Ack));
        assert_eq!(site.pending_candidates(), twin.pending_candidates());
        let wraps: [fn(Message) -> Message; 2] = [|m| m, tagged];
        for wrap in wraps {
            loop {
                let a = site.handle(wrap(Message::RequestNext));
                assert_eq!(a, twin.handle(wrap(Message::RequestNext)));
                if matches!(a, Message::Upload(None)) {
                    break;
                }
            }
        }
    }

    /// Refills stream in descending order; the one that empties the queue
    /// says so.
    #[test]
    fn request_next_streams_in_descending_order() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        let Message::Upload(Some(t2)) = site.handle(Message::RequestNext) else { panic!() };
        assert_eq!(t2.values, vec![8.0, 4.0]);
        let Message::UploadLast(t3) = site.handle(Message::RequestNext) else { panic!() };
        assert_eq!(t3.values, vec![3.0, 8.0]);
        assert!(matches!(site.handle(Message::RequestNext), Message::Upload(None)));
    }

    /// The cover a site ships proves what its tree computes: no corner
    /// dominates a point with survival product below one, and its corners
    /// are row-major in the site's dimensionality.
    #[test]
    fn cover_request_answers_the_tree_cover() {
        let mut site = paper_site_s1();
        let Message::Cover(cover) = site.handle(Message::CoverRequest) else { panic!() };
        assert_eq!(cover.dims(), 2);
        assert_eq!(cover.points(), site.tree().dominance_cover().as_slice());
        // (2.5, 7.5) is dominated by (2, 7); (1, 1) by nothing.
        assert!(cover.dominates(&[2.5, 7.5], full(2)));
        assert!(!cover.dominates(&[1.0, 1.0], full(2)));
        assert_eq!(site.tree().survival_product(&[1.0, 1.0], full(2)), 1.0);
    }

    #[test]
    fn feedback_returns_survival_and_prunes() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        // Feedback (5.5, 5.5) with P = 0.9 from another site: it dominates
        // the remaining candidates... (6,6) already uploaded; remaining are
        // (8,4) and (3,8); (5.5,5.5) dominates neither... use (2,2).
        let foreign = tuple(1, 0, vec![2.0, 2.0], 0.9);
        let reply = site.handle(Message::Feedback(TupleMsg::new(&foreign, 0.9)));
        let Message::SurvivalReply { survival, pruned } = reply else { panic!() };
        // Nothing in the tree dominates (2,2).
        assert_eq!(survival, 1.0);
        // (2,2) dominates both pending candidates; bounds 0.6×0.1 and
        // 0.5×0.1 both fall below q = 0.5.
        assert_eq!(pruned, 2);
        assert_eq!(site.pending_candidates(), 0);
    }

    #[test]
    fn feedback_survival_matches_definition() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        let probe = tuple(1, 0, vec![10.0, 10.0], 0.5);
        let Message::SurvivalReply { survival, .. } =
            site.handle(Message::Feedback(TupleMsg::new(&probe, 0.5)))
        else {
            panic!()
        };
        // All six stored tuples dominate (10,10).
        let expected: f64 =
            [0.7, 0.8, 0.8, 1.0 - 0.65 / 0.7, 0.25, 0.375].iter().map(|p| 1.0 - p).product();
        assert!((survival - expected).abs() < 1e-12);
    }

    #[test]
    fn pruning_respects_accumulated_discounts() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.3, mask: full(2), counted: false });
        // Two weak dominators, each insufficient alone, together push
        // (8,4) (local 0.6) below 0.3: 0.6 × 0.7 × 0.7 = 0.294.
        for seq in 0..2 {
            let weak = tuple(1, seq, vec![7.5, 3.5], 0.3);
            site.handle(Message::Feedback(TupleMsg::new(&weak, 0.3)));
        }
        // (6,6) was uploaded; at q = 0.3 the filler (2,7) with P = 0.375
        // also qualifies, so the queue was [(8,4), (3,8), (2,7)] and only
        // (8,4) is pruned.
        assert_eq!(site.pending_candidates(), 2);
        let Message::Upload(Some(t)) = site.handle(Message::RequestNext) else { panic!() };
        assert_eq!(t.values, vec![3.0, 8.0]);
    }

    #[test]
    fn feedback_batch_is_bit_identical_to_back_to_back_feedbacks() {
        let feedbacks: Vec<TupleMsg> = vec![
            TupleMsg::new(&tuple(1, 0, vec![7.5, 3.5], 0.3), 0.3),
            TupleMsg::new(&tuple(1, 1, vec![10.0, 10.0], 0.5), 0.5),
            TupleMsg::new(&tuple(1, 2, vec![7.5, 3.5], 0.3), 0.3),
            TupleMsg::new(&tuple(2, 0, vec![2.0, 7.5], 0.4), 0.4),
        ];

        let mut single = paper_site_s1();
        single.handle(Message::Start { q: 0.3, mask: full(2), counted: false });
        let mut expected_survivals = Vec::new();
        let mut expected_pruned = 0;
        for f in &feedbacks {
            let Message::SurvivalReply { survival, pruned } =
                single.handle(Message::Feedback(f.clone()))
            else {
                panic!()
            };
            expected_survivals.push(survival);
            expected_pruned += pruned;
        }

        let mut batched = paper_site_s1();
        batched.handle(Message::Start { q: 0.3, mask: full(2), counted: false });
        let Message::SurvivalBatchReply { survivals, pruned } =
            batched.handle(Message::FeedbackBatch(feedbacks))
        else {
            panic!()
        };
        assert_eq!(
            survivals.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            expected_survivals.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(pruned, expected_pruned);
        assert_eq!(batched.pending_candidates(), single.pending_candidates());
        // The surviving queues stream identically afterwards.
        loop {
            let a = batched.handle(Message::RequestNext);
            let b = single.handle(Message::RequestNext);
            assert_eq!(a, b);
            if matches!(a, Message::Upload(None)) {
                break;
            }
        }
    }

    /// Batched feedback must reach an allocation-free steady state: once
    /// the first `FeedbackBatch` has sized the site-held multi-probe
    /// buffers, later batches of no greater size must not grow them. A
    /// regression here (e.g. a per-call `MultiProbeScratch::default()`)
    /// shows up as a footprint that keeps moving — or never warms at all.
    #[test]
    fn batched_feedback_reaches_allocation_free_steady_state() {
        // A tree deep enough to exercise the per-level buffers (fan-out is
        // 32, so 256 tuples give an internal level above the leaves).
        let tuples: Vec<_> = (0..256)
            .map(|i| tuple(0, i, vec![(i % 16) as f64 + 1.0, (i / 16) as f64 + 1.0], 0.6))
            .collect();
        let mut site = LocalSite::new(0, 2, tuples, SiteOptions::default()).unwrap();
        site.handle(Message::Start { q: 0.01, mask: full(2), counted: false });

        let batch: Vec<TupleMsg> = (0..8)
            .map(|k| {
                let probe = tuple(1, k, vec![4.0 + k as f64, 12.0 - k as f64], 0.5);
                TupleMsg::new(&probe, 0.5)
            })
            .collect();

        site.handle(Message::FeedbackBatch(batch.clone()));
        let warmed = site.multi_probe_footprint();
        assert!(warmed > 0, "first batch must size the multi-probe buffers");

        let mut steady_rounds = 0;
        for round in 0..8 {
            site.handle(Message::FeedbackBatch(batch.clone()));
            assert_eq!(
                site.multi_probe_footprint(),
                warmed,
                "batch round {round} re-allocated the site scratch"
            );
            steady_rounds += 1;
        }
        assert_eq!(steady_rounds, 8);

        // The columnar frame path holds the same invariant for its own
        // scratch: one warm-up round sizes the gathered probe rows and the
        // survival vector, after which neither the multi-probe buffers nor
        // the feedback scratch may move again.
        let frame = Message::FeedbackBatchC(dsud_net::TupleBlock::from_msgs(&batch)).encode();
        let mut out = bytes::BytesMut::new();
        site.handle_frame(&frame, &mut out);
        let warmed_probe = site.multi_probe_footprint();
        let warmed_feed = site.feedback_scratch_footprint();
        assert!(warmed_feed > 0, "first frame must size the feedback scratch");
        for round in 0..8 {
            site.handle_frame(&frame, &mut out);
            assert_eq!(
                site.multi_probe_footprint(),
                warmed_probe,
                "frame round {round} re-allocated the multi-probe scratch"
            );
            assert_eq!(
                site.feedback_scratch_footprint(),
                warmed_feed,
                "frame round {round} re-allocated the feedback scratch"
            );
        }
    }

    /// The frame-level columnar fast path must be indistinguishable from
    /// the message-level path: same survival bits, same prune count, same
    /// surviving queue. This is the invariant that lets transports pick
    /// `handle_frame` freely.
    #[test]
    fn columnar_frame_fast_path_matches_the_message_path_bit_for_bit() {
        let feedbacks: Vec<TupleMsg> = vec![
            TupleMsg::new(&tuple(1, 0, vec![7.5, 3.5], 0.3), 0.3),
            TupleMsg::new(&tuple(1, 1, vec![10.0, 10.0], 0.5), 0.5),
            TupleMsg::new(&tuple(1, 2, vec![7.5, 3.5], 0.3), 0.3),
            TupleMsg::new(&tuple(2, 0, vec![2.0, 7.5], 0.4), 0.4),
        ];

        let mut by_msg = paper_site_s1();
        by_msg.handle(Message::Start { q: 0.3, mask: full(2), counted: false });
        let Message::SurvivalBatchReply { survivals: want_survivals, pruned: want_pruned } =
            by_msg.handle(Message::FeedbackBatch(feedbacks.clone()))
        else {
            panic!()
        };

        let mut by_frame = paper_site_s1();
        by_frame.handle(Message::Start { q: 0.3, mask: full(2), counted: false });
        let frame = Message::FeedbackBatchC(dsud_net::TupleBlock::from_msgs(&feedbacks)).encode();
        let mut out = bytes::BytesMut::new();
        by_frame.handle_frame(&frame, &mut out);
        let Some(Message::SurvivalBatchReplyC { survivals, pruned }) = Message::decode_slice(&out)
        else {
            panic!("fast path must answer a columnar survival batch")
        };

        assert_eq!(
            survivals.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want_survivals.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(pruned, want_pruned);
        assert_eq!(by_frame.pending_candidates(), by_msg.pending_candidates());
        loop {
            let a = by_frame.handle(Message::RequestNext);
            let b = by_msg.handle(Message::RequestNext);
            assert_eq!(a, b);
            if matches!(a, Message::Upload(None)) {
                break;
            }
        }
    }

    /// A tagged columnar frame must swap in exactly the identified
    /// session's cursor — pruning that session's queue, leaving the
    /// default cursor untouched — just like the message-level Tagged arm.
    #[test]
    fn tagged_columnar_frames_swap_the_right_session_cursor() {
        let feedbacks = vec![TupleMsg::new(&tuple(1, 0, vec![2.0, 2.0], 0.9), 0.9)];
        let tagged = |inner: Message| Message::Tagged { query_id: 7, inner: Box::new(inner) };

        let mut by_msg = paper_site_s1();
        by_msg.handle(tagged(Message::Start { q: 0.5, mask: full(2), counted: false }));
        let Message::SurvivalBatchReply { survivals: want_survivals, pruned: want_pruned } =
            by_msg.handle(tagged(Message::FeedbackBatch(feedbacks.clone())))
        else {
            panic!()
        };

        let mut by_frame = paper_site_s1();
        by_frame.handle(tagged(Message::Start { q: 0.5, mask: full(2), counted: false }));
        let frame =
            tagged(Message::FeedbackBatchC(dsud_net::TupleBlock::from_msgs(&feedbacks))).encode();
        let mut out = bytes::BytesMut::new();
        by_frame.handle_frame(&frame, &mut out);
        let Some(Message::SurvivalBatchReplyC { survivals, pruned }) = Message::decode_slice(&out)
        else {
            panic!("tagged fast path must answer a columnar survival batch")
        };

        assert_eq!(
            survivals.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want_survivals.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(pruned, want_pruned);
        // The default cursor was never started; the session's queue took
        // the pruning. Stream session 7 on both sites and compare.
        loop {
            let a = by_frame.handle(tagged(Message::RequestNext));
            let b = by_msg.handle(tagged(Message::RequestNext));
            assert_eq!(a, b);
            if matches!(a, Message::Upload(None)) {
                break;
            }
        }
    }

    /// A malformed columnar frame must come back as `DecodeError`, not a
    /// panic — the fast path falls through to the default decode path,
    /// which rejects it like any other garbage frame.
    #[test]
    fn malformed_columnar_frames_answer_decode_error() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        let good = Message::FeedbackBatchC(dsud_net::TupleBlock::from_msgs(&[TupleMsg::new(
            &tuple(1, 0, vec![2.0, 2.0], 0.9),
            0.9,
        )]))
        .encode();
        let mut out = bytes::BytesMut::new();
        for mutilate in [
            // truncated mid-section
            good[..good.len() - 3].to_vec(),
            // corrupted magic
            {
                let mut f = good.to_vec();
                f[1] ^= 0xff;
                f
            },
            // absurd row count
            {
                let mut f = good.to_vec();
                f[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
                f
            },
        ] {
            site.handle_frame(&mutilate, &mut out);
            assert!(
                matches!(Message::decode_slice(&out), Some(Message::DecodeError)),
                "mutilated frame must be rejected, not crash"
            );
        }
    }

    /// A draw is its flush followed by its refill: against a twin site fed
    /// the two requests separately, every draw answers the same survival
    /// reply and the same upload — through the message path in both
    /// layouts, and through the columnar frame fast path bare and tagged —
    /// until both sites run dry.
    #[test]
    fn draws_answer_exactly_as_flush_then_refill() {
        // The first flush prunes the head of the queue, (8,4), so a refill
        // answered before its flush would upload it.
        let feedbacks = [
            TupleMsg::new(&tuple(1, 0, vec![7.5, 3.5], 0.9), 0.9),
            TupleMsg::new(&tuple(1, 1, vec![10.0, 10.0], 0.5), 0.5),
            TupleMsg::new(&tuple(2, 0, vec![2.0, 7.5], 0.4), 0.4),
        ];
        let block = |j: usize| dsud_net::TupleBlock::from_msgs(&feedbacks[j..j + 1]);
        type Flush = fn(&[TupleMsg], dsud_net::TupleBlock) -> Message;
        let legacy: Flush = |msgs, _| Message::FeedbackBatch(msgs.to_vec());
        let columnar: Flush = |_, block| Message::FeedbackBatchC(block);
        for (flush, by_frame, query_id) in [
            (legacy, false, None),
            (columnar, false, None),
            (columnar, true, None),
            (columnar, true, Some(7)),
        ] {
            let wrap = |m: Message| match query_id {
                Some(id) => Message::Tagged { query_id: id, inner: Box::new(m) },
                None => m,
            };
            let mut split = paper_site_s1();
            let mut drawn = paper_site_s1();
            for site in [&mut split, &mut drawn] {
                site.handle(wrap(Message::Start { q: 0.3, mask: full(2), counted: false }));
            }
            let mut out = bytes::BytesMut::new();
            for j in 0..feedbacks.len() {
                let frame = flush(&feedbacks[j..j + 1], block(j));
                let survivals = Box::new(split.handle(wrap(frame.clone())));
                let (next, drained) = expect_upload(0, split.handle(wrap(Message::RequestNext)))
                    .expect("refills upload");
                let draw = wrap(Message::Draw(Box::new(frame)));
                let reply = if by_frame {
                    drawn.handle_frame(&draw.encode(), &mut out);
                    Message::decode_slice(&out).expect("fast path answers a valid frame")
                } else {
                    drawn.handle(draw)
                };
                assert_eq!(reply, Message::Drawn { survivals, next, drained }, "draw {j}");
            }
            assert_eq!(drawn.pending_candidates(), 0, "the draws exhausted the site");
            assert_eq!(split.pending_candidates(), 0);
        }
    }

    /// Malformed draw frames — every truncation of a columnar draw, bare
    /// and tagged — come back as `DecodeError`, never a panic, and leave
    /// the site's queue untouched.
    #[test]
    fn malformed_draw_frames_answer_decode_error() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        let pending = site.pending_candidates();
        let flush = Message::FeedbackBatchC(dsud_net::TupleBlock::from_msgs(&[TupleMsg::new(
            &tuple(1, 0, vec![2.0, 2.0], 0.9),
            0.9,
        )]));
        let draw = Message::Draw(Box::new(flush));
        let tagged = Message::Tagged { query_id: 3, inner: Box::new(draw.clone()) };
        let mut out = bytes::BytesMut::new();
        for good in [draw.encode(), tagged.encode()] {
            for cut in 0..good.len() {
                site.handle_frame(&good[..cut], &mut out);
                assert_eq!(
                    Message::decode_slice(&out),
                    Some(Message::DecodeError),
                    "cut at {cut} must be rejected"
                );
            }
        }
        assert_eq!(site.pending_candidates(), pending);
    }

    /// A site served over TCP answers deeply nested frames — 64 KiB of
    /// `Draw` tags, `Tagged` and `AggBroadcast` chains far past
    /// `MAX_NESTING`, and a session nested in a session — with
    /// `DecodeError`, then serves a normal `Start` on the same connection.
    #[test]
    fn malformed_nested_frames_answer_decode_error_over_tcp() {
        use std::io::{Read, Write};
        let server = dsud_net::tcp::spawn_site(paper_site_s1()).expect("site server starts");
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("site accepts");
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let mut call = |frame: &[u8]| {
            stream.write_all(&(frame.len() as u32).to_be_bytes()).unwrap();
            stream.write_all(frame).unwrap();
            let mut len = [0u8; 4];
            stream.read_exact(&mut len).expect("site replies");
            let mut reply = vec![0; u32::from_be_bytes(len) as usize];
            stream.read_exact(&mut reply).expect("site replies");
            Message::decode_slice(&reply)
        };
        let chain = |header: &[u8], n: usize| {
            let mut frame = header.repeat(n);
            frame.push(9);
            frame
        };
        let mut tagged = vec![wire::TAG_TAGGED];
        tagged.extend_from_slice(&7u64.to_be_bytes());
        let start = Message::Start { q: 0.3, mask: full(2), counted: true };
        let session = |inner: Message| Message::Tagged { query_id: 1, inner: Box::new(inner) };
        for frame in [
            vec![wire::TAG_DRAW; 64 << 10],
            chain(&tagged, 7_000),
            chain(&[29, 0, 0, 0, 0], 12_000),
            session(session(start.clone())).encode().to_vec(),
        ] {
            assert_eq!(call(&frame), Some(Message::DecodeError), "{} bytes", frame.len());
        }
        assert_eq!(call(&start.encode()), Some(paper_site_s1().handle(start)));
        drop(stream);
        server.shutdown().unwrap();
    }

    /// What Local-Pruning leaves behind in session `qid`: the pending
    /// count and the pruned list (ids, local probabilities and discount
    /// bits, in order).
    type PrunedBits = Vec<(TupleId, u64, Vec<(TupleId, u64)>)>;
    fn pruning_state(site: &mut LocalSite, qid: u64) -> (usize, PrunedBits) {
        let pending = site.in_session(Some(qid), |s| s.pending_candidates());
        let pruned = site.sessions.get(&qid).map_or_else(Vec::new, |a| {
            a.pruned
                .iter()
                .map(|c| {
                    let discounts = c.discounted_by.iter().map(|(id, f)| (*id, f.to_bits()));
                    (c.tuple.id(), c.local_prob.to_bits(), discounts.collect())
                })
                .collect()
        });
        (pending, pruned)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The pending index is held to the plain scan over the queue:
        /// two sites, one on each, answer interleaved single, batched and
        /// columnar feedback, draws, refills and Replica-policy region
        /// queries across two `Tagged` sessions with random masks, byte
        /// for byte, and keep the same pending counts and pruned lists.
        /// Coordinates sit on a small grid, so sort keys and box corners
        /// tie with the feedback tuples' coordinates all the time.
        #[test]
        fn pending_index_is_bit_identical_to_the_plain_scan(
            rows in proptest::collection::vec(
                (proptest::collection::vec(0u8..6, 3), 0.01f64..=0.25),
                40..=300,
            ),
            queries in proptest::collection::vec((1u8..8, 0.0005f64..0.01), 2),
            ops in proptest::collection::vec(
                (
                    0u8..8,
                    0u64..2,
                    0u8..2,
                    proptest::collection::vec(
                        (proptest::collection::vec(0u8..6, 3), 0.05f64..=0.99, 0u32..4),
                        1..8,
                    ),
                ),
                1..48,
            ),
        ) {
            let grid = |cell: &[u8]| cell.iter().map(|&v| f64::from(v)).collect::<Vec<_>>();
            let tuples: Vec<_> =
                rows.iter().enumerate().map(|(i, (c, p))| tuple(0, i as u64, grid(c), *p)).collect();
            let options = SiteOptions { update_policy: UpdatePolicy::Replica, ..Default::default() };
            let mut indexed = LocalSite::new(0, 3, tuples.clone(), options).unwrap();
            let mut scanned = LocalSite::new(0, 3, tuples, options).unwrap();
            scanned.reference_scan = true;
            let tagged = |qid: u64, inner: Message| Message::Tagged { query_id: qid, inner: Box::new(inner) };
            let mut out = bytes::BytesMut::new();
            let mut answer = |site: &mut LocalSite, msg: &Message, by_frame: bool| {
                if by_frame {
                    site.handle_frame(&msg.encode(), &mut out);
                    out.to_vec()
                } else {
                    site.handle(msg.clone()).encode().to_vec()
                }
            };
            for (qid, &(dim_bits, q)) in queries.iter().enumerate() {
                let dims: Vec<usize> = (0..3).filter(|d| dim_bits & (1 << d) != 0).collect();
                let mask = SubspaceMask::from_dims(&dims).unwrap();
                let start = tagged(qid as u64, Message::Start { q, mask, counted: true });
                proptest::prop_assert_eq!(
                    answer(&mut indexed, &start, false),
                    answer(&mut scanned, &start, false)
                );
            }
            let mut seq = 0;
            let mut sent: Vec<TupleMsg> = Vec::new();
            for (kind, qid, by_frame, batch) in ops {
                let msgs: Vec<TupleMsg> = batch
                    .iter()
                    .map(|(cell, p, site)| {
                        seq += 1;
                        // Site 3 stands for a foreign tuple whose P(t) is
                        // NaN on the wire: its factor never prunes.
                        let (site, p) = if *site == 3 { (1, f64::NAN) } else { (*site, *p) };
                        TupleMsg { prob: p, ..TupleMsg::new(&tuple(site, seq, grid(cell), 0.5), p) }
                    })
                    .collect();
                let block = || dsud_net::TupleBlock::from_msgs(&msgs);
                let inner = match kind {
                    0 => Message::Feedback(msgs[0].clone()),
                    1 => Message::FeedbackBatch(msgs.clone()),
                    2 | 3 => Message::FeedbackBatchC(block()),
                    4 => Message::Draw(Box::new(Message::FeedbackBatch(msgs.clone()))),
                    5 => Message::Draw(Box::new(Message::FeedbackBatchC(block()))),
                    6 => Message::RequestNext,
                    // A deleted feedback tuple: Replica-policy sites resurrect
                    // what its feedback pruned.
                    _ => Message::RegionQuery(
                        sent.get(seq as usize % sent.len().max(1)).unwrap_or(&msgs[0]).clone(),
                    ),
                };
                sent.extend(msgs);
                let msg = tagged(qid, inner);
                let by_frame = by_frame == 1;
                proptest::prop_assert_eq!(
                    answer(&mut indexed, &msg, by_frame),
                    answer(&mut scanned, &msg, by_frame),
                    "{:?}", msg
                );
                for qid in 0..2 {
                    proptest::prop_assert_eq!(
                        pruning_state(&mut indexed, qid),
                        pruning_state(&mut scanned, qid)
                    );
                }
            }
            // The survivors pop in the same order.
            for qid in 0..2 {
                loop {
                    let next = tagged(qid, Message::RequestNext);
                    let a = answer(&mut indexed, &next, false);
                    proptest::prop_assert_eq!(&a, &answer(&mut scanned, &next, false));
                    if Message::decode_slice(&a) == Some(Message::Upload(None)) {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_can_be_disabled() {
        let tuples = vec![tuple(0, 0, vec![6.0, 6.0], 0.7), tuple(0, 1, vec![8.0, 4.0], 0.8)];
        let mut site =
            LocalSite::new(0, 2, tuples, SiteOptions { pruning: false, ..SiteOptions::default() })
                .unwrap();
        site.handle(Message::Start { q: 0.3, mask: full(2), counted: false });
        let killer = tuple(1, 0, vec![1.0, 1.0], 0.99);
        let Message::SurvivalReply { pruned, .. } =
            site.handle(Message::Feedback(TupleMsg::new(&killer, 0.99)))
        else {
            panic!()
        };
        assert_eq!(pruned, 0);
        assert_eq!(site.pending_candidates(), 1);
    }

    #[test]
    fn own_site_feedback_does_not_discount() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        // A (hypothetical) echo of the site's own tuple must not prune:
        // same-site dominators are already in the local probabilities.
        let own = tuple(0, 0, vec![1.0, 1.0], 0.9);
        let Message::SurvivalReply { pruned, .. } =
            site.handle(Message::Feedback(TupleMsg::new(&own, 0.9)))
        else {
            panic!()
        };
        assert_eq!(pruned, 0);
    }

    #[test]
    fn insert_classifies_notifications() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        // Strong new tuple: must notify.
        let strong = tuple(0, 100, vec![1.0, 1.0], 0.9);
        let reply = site.handle(Message::InjectInsert(TupleMsg::new(&strong, 0.0)));
        assert!(matches!(reply, Message::NotifyInsert(_)));
        // Weak dominated tuple, empty replica: purely local.
        let weak = tuple(0, 101, vec![100.0, 100.0], 0.01);
        let reply = site.handle(Message::InjectInsert(TupleMsg::new(&weak, 0.0)));
        assert!(matches!(reply, Message::Ack));
        assert_eq!(site.len(), 8);
    }

    #[test]
    fn insert_notifies_when_dominating_replica_member() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        let member = tuple(1, 0, vec![50.0, 50.0], 0.9);
        site.handle(Message::ReplicaSync(vec![TupleMsg::new(&member, 0.9)]));
        // Weak itself (P small ⇒ local prob < q) but dominates the member.
        let weak = tuple(0, 102, vec![40.0, 40.0], 0.2);
        let reply = site.handle(Message::InjectInsert(TupleMsg::new(&weak, 0.0)));
        assert!(matches!(reply, Message::NotifyInsert(_)));
    }

    #[test]
    fn delete_notifies_and_removes() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        let victim = tuple(0, 0, vec![6.0, 6.0], 0.7);
        let reply = site.handle(Message::InjectDelete(TupleMsg::new(&victim, 0.65)));
        assert!(matches!(reply, Message::NotifyDelete(_)));
        assert_eq!(site.len(), 5);
        // Deleting it again is a no-op.
        let reply = site.handle(Message::InjectDelete(TupleMsg::new(&victim, 0.65)));
        assert!(matches!(reply, Message::Ack));
    }

    #[test]
    fn region_query_returns_dominated_candidates() {
        let mut site = paper_site_s1();
        site.handle(Message::Start { q: 0.5, mask: full(2), counted: false });
        // Region dominated by (5,3): contains (8,4) only (6,6 has y=6 > 3? no
        // wait (5,3) ≺ (6,6)? 5≤6, 3≤6 strict → yes; (5,3) ≺ (8,4) yes;
        // (5,3) ≺ (3,8) no).
        let origin = tuple(1, 0, vec![5.0, 3.0], 0.5);
        let Message::RegionReply(tuples) =
            site.handle(Message::RegionQuery(TupleMsg::new(&origin, 0.5)))
        else {
            panic!()
        };
        let mut vals: Vec<Vec<f64>> = tuples.iter().map(|t| t.values.clone()).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vals, vec![vec![6.0, 6.0], vec![8.0, 4.0]]);
    }

    #[test]
    fn replica_delta_sync() {
        let mut site = paper_site_s1();
        let a = TupleMsg::new(&tuple(1, 0, vec![1.0, 1.0], 0.5), 0.5);
        let b = TupleMsg::new(&tuple(2, 0, vec![2.0, 2.0], 0.5), 0.5);
        site.handle(Message::ReplicaSync(vec![a.clone()]));
        assert_eq!(site.replica().len(), 1);
        site.handle(Message::ReplicaAdd(b.clone()));
        assert_eq!(site.replica().len(), 2);
        site.handle(Message::ReplicaRemove(a));
        assert_eq!(site.replica().len(), 1);
        assert_eq!(site.replica()[0].id, b.id);
    }

    #[test]
    fn unexpected_messages_are_answered_inertly() {
        let mut site = paper_site_s1();
        assert!(matches!(site.handle(Message::Ack), Message::Ack));
        assert!(matches!(site.handle(Message::Upload(None)), Message::Ack));
    }
}
