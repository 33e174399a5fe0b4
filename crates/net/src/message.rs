//! Wire protocol of the DSUD/e-DSUD server–site conversation: the tuple
//! quaternion `⟨i, j, P(t_ij), P_sky(t_ij, D_i)⟩` of Section 5.1, the
//! request/reply [`Message`] variants for upload, feedback, expunge, and
//! maintenance, and their binary encoding used for byte accounting.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use dsud_uncertain::{Probability, SubspaceMask, TupleId, UncertainTuple};

use crate::LinkError;

/// How many container frames (`Tagged`, `AggBroadcast`, `AggScatter`,
/// `AggReplies`, `Draw`, `DrawDeferred`, `Drawn`) [`Message::decode_slice`]
/// accepts around one another. The deepest frame any supported
/// deployment sends nests three — a session's `Tagged` around a tree's
/// aggregate frame around a `Draw` — so the limit leaves room, while
/// keeping a hostile frame from recursing the decoder off the end of its
/// thread's stack.
pub const MAX_NESTING: usize = 8;

/// One per-site outcome inside a [`Message::AggReplies`] frame: either the
/// member site's own reply or the child-link error that stands in for it.
/// An error entry lets the root quarantine exactly the failed site while
/// its siblings' replies in the same frame stay usable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AggReply {
    /// The member site answered; this is its reply verbatim.
    Ok(Box<Message>),
    /// The aggregator's link to this member failed; the error is forwarded
    /// in reply position exactly as a flat coordinator would observe it.
    Err(LinkError),
}

impl AggReply {
    /// Converts into the `Result` shape coordinator code folds over.
    pub fn into_result(self) -> Result<Message, LinkError> {
        match self {
            AggReply::Ok(msg) => Ok(*msg),
            AggReply::Err(e) => Err(e),
        }
    }

    /// Builds an entry from a link-level outcome.
    pub fn from_result(r: Result<Message, LinkError>) -> Self {
        match r {
            Ok(msg) => AggReply::Ok(Box::new(msg)),
            Err(e) => AggReply::Err(e),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            AggReply::Ok(msg) => 1 + 4 + msg.encoded_len(),
            AggReply::Err(LinkError::Io(detail)) => 1 + 4 + detail.len(),
            AggReply::Err(_) => 1,
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        match self {
            AggReply::Ok(msg) => {
                buf.put_u8(0);
                buf.put_u32(msg.encoded_len() as u32);
                msg.encode_body(buf);
            }
            AggReply::Err(LinkError::Timeout) => buf.put_u8(1),
            AggReply::Err(LinkError::Disconnected) => buf.put_u8(2),
            AggReply::Err(LinkError::Malformed) => buf.put_u8(3),
            AggReply::Err(LinkError::Io(detail)) => {
                buf.put_u8(4);
                buf.put_u32(detail.len() as u32);
                buf.put_slice(detail.as_bytes());
            }
        }
    }

    fn decode(buf: &mut &[u8], depth: usize) -> Option<Self> {
        if buf.remaining() < 1 {
            return None;
        }
        match buf.get_u8() {
            0 => {
                if buf.remaining() < 4 {
                    return None;
                }
                let len = buf.get_u32() as usize;
                if buf.remaining() < len {
                    return None;
                }
                let msg = Message::decode_at(&buf[..len], depth)?;
                *buf = &buf[len..];
                Some(AggReply::Ok(Box::new(msg)))
            }
            1 => Some(AggReply::Err(LinkError::Timeout)),
            2 => Some(AggReply::Err(LinkError::Disconnected)),
            3 => Some(AggReply::Err(LinkError::Malformed)),
            4 => {
                if buf.remaining() < 4 {
                    return None;
                }
                let len = buf.get_u32() as usize;
                if buf.remaining() < len {
                    return None;
                }
                let detail = std::str::from_utf8(&buf[..len]).ok()?.to_string();
                *buf = &buf[len..];
                Some(AggReply::Err(LinkError::Io(detail)))
            }
            _ => None,
        }
    }
}

/// A tuple on the wire: the paper's quaternion
/// `⟨i, j, P(t_ij), P_sky(t_ij, D_i)⟩` plus the attribute values (needed by
/// remote dominance checks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TupleMsg {
    /// Identifier `(i, j)`: home site and per-site sequence number.
    pub id: TupleId,
    /// Attribute values of the tuple.
    pub values: Vec<f64>,
    /// Existential probability `P(t_ij)`.
    pub prob: f64,
    /// Local skyline probability `P_sky(t_ij, D_i)` at the home site.
    pub local_prob: f64,
}

impl TupleMsg {
    /// Builds the wire form of a tuple with its home-site local skyline
    /// probability.
    pub fn new(tuple: &UncertainTuple, local_prob: f64) -> Self {
        TupleMsg {
            id: tuple.id(),
            values: tuple.values().to_vec(),
            prob: tuple.prob().get(),
            local_prob,
        }
    }

    /// Reconstructs the carried [`UncertainTuple`].
    ///
    /// # Panics
    ///
    /// Panics if the message carries an invalid probability or empty
    /// values; messages built by [`TupleMsg::new`] are always valid.
    pub fn to_tuple(&self) -> UncertainTuple {
        UncertainTuple::new(
            self.id,
            self.values.clone(),
            Probability::new(self.prob).expect("wire tuples carry valid probabilities"),
        )
        .expect("wire tuples carry valid values")
    }

    fn encoded_len(&self) -> usize {
        4 + 8 + 2 + 8 * self.values.len() + 8 + 8
    }

    fn encode(&self, buf: &mut BytesMut) {
        Self::encode_tuple(self.id, &self.values, self.prob, self.local_prob, buf);
    }

    /// Appends the wire form of the tuple with these parts, without
    /// building an owned [`TupleMsg`] — lets a site write its upload
    /// straight into a reusable reply buffer.
    pub fn encode_tuple(
        id: TupleId,
        values: &[f64],
        prob: f64,
        local_prob: f64,
        buf: &mut BytesMut,
    ) {
        buf.put_u32(id.site.0);
        buf.put_u64(id.seq);
        buf.put_u16(values.len() as u16);
        for &v in values {
            buf.put_f64(v);
        }
        buf.put_f64(prob);
        buf.put_f64(local_prob);
    }

    fn decode(buf: &mut impl Buf) -> Option<Self> {
        if buf.remaining() < 14 {
            return None;
        }
        let site = buf.get_u32();
        let seq = buf.get_u64();
        let dims = buf.get_u16() as usize;
        if buf.remaining() < 8 * dims + 16 {
            return None;
        }
        let values = (0..dims).map(|_| buf.get_f64()).collect();
        let prob = buf.get_f64();
        let local_prob = buf.get_f64();
        Some(TupleMsg { id: TupleId::new(site, seq), values, prob, local_prob })
    }
}

/// Protocol messages between the central server `H` and local sites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// `H → site`: begin a query; compute `SKY(D_i)` for threshold `q` on
    /// the given subspace and respond with the first representative — as
    /// a [`Message::Upload`], or, for a counted start, as a
    /// [`Message::Started`] that also says how many candidates remain.
    Start {
        /// Probability threshold `q`.
        q: f64,
        /// Queried subspace.
        mask: SubspaceMask,
        /// Whether the reply carries the local skyline's size: a counted
        /// start (tag 37) is answered with [`Message::Started`], a plain
        /// one (tag 0) with [`Message::Upload`]. Same body either way.
        counted: bool,
    },
    /// `H → site`: send your next surviving representative tuple.
    RequestNext,
    /// `H → site`: candidate broadcast (the feedback of the Server-Delivery
    /// phase); the site replies with its survival product and prunes its
    /// local skyline.
    Feedback(TupleMsg),
    /// `site → H`: representative upload (`None` when the local skyline is
    /// exhausted). An upload that leaves the site's queue empty travels as
    /// [`Message::UploadLast`] instead.
    Upload(Option<TupleMsg>),
    /// `site → H`: reply to a [`Message::Feedback`] — the survival product
    /// `P_sky(t, D_x)` of Observation 1, plus how many local candidates the
    /// feedback pruned (telemetry only).
    SurvivalReply {
        /// `∏_{t' ∈ D_x, t' ≺ t} (1 − P(t'))`.
        survival: f64,
        /// Number of local skyline tuples this feedback eliminated.
        pruned: u64,
    },
    /// `site → H` (update maintenance): a tuple was inserted locally and
    /// the global skyline may change.
    NotifyInsert(TupleMsg),
    /// `site → H` (update maintenance): a tuple was deleted locally.
    NotifyDelete(TupleMsg),
    /// `H → site` (update maintenance): replace the site's replica of the
    /// current global skyline `SKY(H)`.
    ReplicaSync(Vec<TupleMsg>),
    /// `H → site` (update maintenance): add one tuple to the site's replica
    /// of `SKY(H)` (delta synchronization).
    ReplicaAdd(TupleMsg),
    /// `H → site` (update maintenance): remove one tuple from the site's
    /// replica of `SKY(H)`.
    ReplicaRemove(TupleMsg),
    /// `H → site` (update maintenance): return every local tuple strictly
    /// dominated by the carried point whose local skyline probability still
    /// meets the active query threshold — the re-evaluation region after a
    /// deletion.
    RegionQuery(TupleMsg),
    /// `site → H`: reply to [`Message::RegionQuery`].
    RegionReply(Vec<TupleMsg>),
    /// Simulation scaffolding, `driver → site`: apply this insertion as if
    /// it originated at the site. Not real network traffic (tuple count 0);
    /// the site's *reply* is the metered maintenance message.
    InjectInsert(TupleMsg),
    /// Simulation scaffolding, `driver → site`: apply this deletion as if
    /// it originated at the site.
    InjectDelete(TupleMsg),
    /// Generic acknowledgement.
    Ack,
    /// `site → H`: the site could not decode the request frame. Transports
    /// translate this reply into [`LinkError::Malformed`](crate::LinkError)
    /// rather than surfacing it to protocol code, so a corrupted frame is a
    /// retryable transport fault instead of a dead site thread.
    DecodeError,
    /// `H → site`: a coalesced candidate broadcast — `K` feedbacks of one
    /// batched round in a single frame (one syscall on TCP instead of `K`).
    ///
    /// The site must process the candidates *in order* and answer with one
    /// [`Message::SurvivalBatchReply`] whose `survivals[k]` corresponds to
    /// the `k`-th candidate here. Survival products are computed against
    /// the site's tree alone, and local feedback pruning is applied after
    /// each candidate exactly as if the `K` candidates had arrived as `K`
    /// back-to-back [`Message::Feedback`] messages — so a batched round is
    /// bit-identical to an unbatched one.
    FeedbackBatch(Vec<TupleMsg>),
    /// `site → H`: reply to a [`Message::FeedbackBatch`] — one survival
    /// product per batched candidate (in batch order) plus the total number
    /// of local candidates the batch pruned (telemetry only).
    SurvivalBatchReply {
        /// `survivals[k]` is `∏_{t' ∈ D_x, t' ≺ t_k} (1 − P(t'))` for the
        /// `k`-th candidate of the batch.
        survivals: Vec<f64>,
        /// Number of local skyline tuples the whole batch eliminated
        /// (summed over the `K` feedbacks, in batch order).
        pruned: u64,
    },
    /// `H → site` (session layer): the carried protocol message belongs to
    /// the multiplexed query `query_id`. Sites route the inner message to
    /// that query's private cursor state and answer with the *untagged*
    /// inner reply (correlation is the multiplexing link's job, not the
    /// wire's). Traffic class and tuple count delegate to the inner
    /// message, so a tagged round costs exactly what the one-shot round
    /// costs plus the 8-byte id — headers stay free in the paper's unit.
    Tagged {
        /// Server-assigned query identifier.
        query_id: u64,
        /// The protocol message being multiplexed.
        inner: Box<Message>,
    },
    /// `H → site` (session layer): the tagged query is finished — discard
    /// its per-query cursor state. Sent wrapped in [`Message::Tagged`] so
    /// the site knows *which* session slot to clear; the site replies
    /// [`Message::Ack`].
    Release,
    /// `H → site`: [`Message::FeedbackBatch`] in the columnar wire layout
    /// of [`crate::wire`] — same candidates, same order, answered by one
    /// [`Message::SurvivalBatchReplyC`]. Sites with a frame-level fast
    /// path ([`crate::Service::handle_frame`]) process this frame through
    /// a borrowed [`crate::BatchView`] without materializing owned tuples.
    FeedbackBatchC(crate::TupleBlock),
    /// `site → H`: reply to a [`Message::FeedbackBatchC`] — identical
    /// factors and pruning count to [`Message::SurvivalBatchReply`], in
    /// the columnar wire layout.
    SurvivalBatchReplyC {
        /// `survivals[k]` is the `k`-th candidate's survival product, in
        /// batch order.
        survivals: Vec<f64>,
        /// Number of local skyline tuples the whole batch eliminated.
        pruned: u64,
    },
    /// `H → site` (update maintenance): [`Message::ReplicaSync`] in the
    /// columnar wire layout.
    ReplicaSyncC(crate::TupleBlock),
    /// `site → H`: [`Message::RegionReply`] in the columnar wire layout.
    RegionReplyC(crate::TupleBlock),
    /// `H → site` (health layer): heartbeat probe carrying an opaque
    /// nonce. A live site echoes the nonce back in a
    /// [`Message::HealthAck`]; a probe whose link errors out (after the
    /// retry budget) counts as a heartbeat miss against the site.
    HealthProbe {
        /// Opaque correlation nonce, echoed by the ack.
        nonce: u64,
    },
    /// `site → H`: reply to a [`Message::HealthProbe`], echoing its nonce.
    HealthAck {
        /// The probe's nonce, echoed verbatim.
        nonce: u64,
    },
    /// `H → aggregator` (tree topology): deliver `inner` to every listed
    /// member site — one frame on the root link where a flat coordinator
    /// would send `sites.len()` copies. The aggregator fans the inner
    /// message out to its children (re-wrapping for nested aggregators)
    /// and answers with one [`Message::AggReplies`] in ascending site
    /// order. The tuple count is charged *once* — the merge is exactly
    /// what the tree topology saves on the root link. The inner message
    /// may be any downward frame, including the columnar bulk twins, so
    /// aggregate frames compose with every wire format.
    AggBroadcast {
        /// Member sites the inner message is for, ascending.
        sites: Vec<u32>,
        /// The request each listed site receives.
        inner: Box<Message>,
    },
    /// `H → aggregator` (tree topology): per-site payloads coalesced into
    /// one frame — the scatter twin of [`Message::AggBroadcast`], used for
    /// batched survival scatters and targeted refills. Parts are ascending
    /// by site; the aggregator routes each part to its child (nesting for
    /// deeper trees) and answers with one [`Message::AggReplies`].
    AggScatter {
        /// `(site, request)` parts, ascending by site.
        parts: Vec<(u32, Message)>,
    },
    /// `aggregator → H` (tree topology): the merged per-site replies of an
    /// [`Message::AggBroadcast`] or [`Message::AggScatter`], ascending by
    /// site. Child-link failures travel as [`AggReply::Err`] entries, so
    /// the root observes exactly the per-site outcomes a flat coordinator
    /// would — quarantine and strict-abort decisions are unchanged.
    AggReplies {
        /// `(site, outcome)` entries, ascending by site.
        replies: Vec<(u32, AggReply)>,
    },
    /// `H → site` (retired plan phase): ask for a mergeable sketch of the
    /// site's skyline probabilities. No coordinator sends it any more —
    /// rounds are planned from the counts on [`Message::Started`] — and
    /// sites, which keep no sketch, answer it with [`Message::Ack`]. Kept
    /// only because the benchmark package names it; its reply, tag 33, is
    /// gone and no longer decodes.
    SketchRequest,
    /// `H → site`: one draw of a round — the carried feedback flush (a
    /// [`Message::FeedbackBatch`] or [`Message::FeedbackBatchC`]) followed
    /// by a refill, in one frame. The site processes the flush exactly as
    /// if it had arrived alone, then answers the implied
    /// [`Message::RequestNext`], and replies with one [`Message::Drawn`].
    /// Class and tuple count are the flush's: the refill request carries
    /// no tuple.
    Draw(Box<Message>),
    /// `H → site`: a draw of a batched round whose survival factors are
    /// deferred. The site runs the flush's Local-Pruning and the refill in
    /// the same order as for a [`Message::Draw`], but keeps the flush's
    /// probe rows instead of computing their survival products, and
    /// answers a [`Message::Drawn`] whose survival reply is empty and
    /// carries only the prune count. The held factors come back, ahead of
    /// the frame's own, with the site's next reply that has factors to
    /// carry: a feedback batch, a non-deferred draw, or a
    /// [`Message::Refilled`]. A deferred draw whose refill empties the
    /// site's queue answers every held factor at once, since nothing else
    /// may follow. Same flush kinds, class, tuples and bytes as a draw.
    DrawDeferred(Box<Message>),
    /// `H → site`: a refill of a batched round that may leave the site's
    /// deferred survival factors (see [`Message::DrawDeferred`]) where they
    /// are. It answers exactly as [`Message::RequestNext`] does, except
    /// that a site holding factors keeps them unless the refill empties
    /// its queue, in which case it answers [`Message::Refilled`] with every
    /// one. Same class, tuples and bytes as the plain refill.
    RequestNextDeferred,
    /// `site → H`: reply to a [`Message::Draw`] — the flush's survival
    /// reply (in the flush's wire layout) and the refill's upload (`None`
    /// when the local skyline is exhausted). Charged as one upload: one
    /// tuple, or none when exhausted.
    Drawn {
        /// The [`Message::SurvivalBatchReply`] or
        /// [`Message::SurvivalBatchReplyC`] answering the flush.
        survivals: Box<Message>,
        /// The next representative, as a [`Message::Upload`] would carry it.
        next: Option<TupleMsg>,
        /// Whether the refill left the site's queue empty. Always `true`
        /// without an upload; the tag carries it, so it costs no byte.
        drained: bool,
    },
    /// `site → H`: reply to a [`Message::RequestNext`] — or to a
    /// [`Message::RequestNextDeferred`] that empties the queue — at a site
    /// that holds deferred survival factors (see [`Message::DrawDeferred`]):
    /// the refill's upload plus the held factors in deferral order. The
    /// coordinator knows how many it is owed, so the factors carry no
    /// count and no prune count (a refill prunes nothing): the frame is
    /// exactly an upload's plus 8 bytes per factor. Charged as that
    /// upload: one tuple, or none when exhausted.
    Refilled {
        /// The held factors, in the order their probes were deferred.
        survivals: Vec<f64>,
        /// The next representative, as a [`Message::Upload`] would carry it.
        next: Option<TupleMsg>,
        /// Whether the refill left the site's queue empty, as on
        /// [`Message::Drawn`]; the tag carries it.
        drained: bool,
    },
    /// `site → H`: reply to a counted [`Message::Start`] — the first
    /// representative, as a [`Message::Upload`] would carry it, plus how
    /// many local skyline candidates remain pending behind it. Charged as
    /// that upload: one tuple, or none when exhausted.
    Started {
        /// Candidates of `SKY(D_i)` still pending after `next` (0: the
        /// site's queue is empty).
        pending: u32,
        /// The first representative (`None` when `SKY(D_i)` is empty).
        next: Option<TupleMsg>,
    },
    /// `site → H`: a representative upload that leaves the site's queue
    /// empty — [`Message::Upload`] plus the promise that every later
    /// refill of the query uploads nothing. Same body, its own tag.
    UploadLast(TupleMsg),
    /// `H → site`: send your dominance cover (see [`crate::Cover`]). Asked
    /// once per deployment, at assembly.
    CoverRequest,
    /// `site → H`: reply to [`Message::CoverRequest`]. Setup metadata, not
    /// tuples: control class, no tuple weight.
    Cover(crate::Cover),
}

/// Traffic classes used by the [`crate::BandwidthMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Representative uploads (site → H).
    Upload,
    /// Candidate broadcasts (H → sites).
    Feedback,
    /// Scalar replies (site → H).
    Reply,
    /// Control traffic (start / request-next / ack).
    Control,
    /// Update-maintenance traffic.
    Maintenance,
    /// Simulation scaffolding (injected updates): not real network traffic.
    Scaffold,
}

impl Message {
    /// Traffic class of the message.
    pub fn class(&self) -> TrafficClass {
        match self {
            Message::Upload(_) | Message::UploadLast(_) | Message::Started { .. } => {
                TrafficClass::Upload
            }
            Message::Feedback(_) | Message::FeedbackBatch(_) | Message::FeedbackBatchC(_) => {
                TrafficClass::Feedback
            }
            Message::SurvivalReply { .. }
            | Message::SurvivalBatchReply { .. }
            | Message::SurvivalBatchReplyC { .. } => TrafficClass::Reply,
            Message::Start { .. }
            | Message::RequestNext
            | Message::RequestNextDeferred
            | Message::Ack
            | Message::DecodeError => TrafficClass::Control,
            Message::NotifyInsert(_)
            | Message::NotifyDelete(_)
            | Message::ReplicaSync(_)
            | Message::ReplicaAdd(_)
            | Message::ReplicaRemove(_)
            | Message::RegionQuery(_)
            | Message::RegionReply(_)
            | Message::ReplicaSyncC(_)
            | Message::RegionReplyC(_) => TrafficClass::Maintenance,
            Message::InjectInsert(_) | Message::InjectDelete(_) => TrafficClass::Scaffold,
            // A tagged frame is the inner message plus a free header.
            Message::Tagged { inner, .. } => inner.class(),
            Message::Release => TrafficClass::Control,
            Message::HealthProbe { .. } | Message::HealthAck { .. } => TrafficClass::Control,
            // Aggregate containers are classified by their payload: a
            // merged broadcast is still feedback, a merged reply frame is
            // whatever its first delivered reply is. Mixed-class scatters
            // take the first part's class — the meter's per-class split is
            // diagnostic, the totals stay exact.
            Message::AggBroadcast { inner, .. } => inner.class(),
            Message::AggScatter { parts } => {
                parts.first().map_or(TrafficClass::Control, |(_, m)| m.class())
            }
            Message::AggReplies { replies } => replies
                .iter()
                .find_map(|(_, r)| match r {
                    AggReply::Ok(m) => Some(m.class()),
                    AggReply::Err(_) => None,
                })
                .unwrap_or(TrafficClass::Reply),
            // The retired plan-phase request is control traffic with zero
            // tuple weight.
            Message::SketchRequest => TrafficClass::Control,
            Message::CoverRequest | Message::Cover(_) => TrafficClass::Control,
            // A draw is its flush plus a free refill request; its reply is
            // the upload plus a free survival reply.
            Message::Draw(flush) | Message::DrawDeferred(flush) => flush.class(),
            Message::Drawn { .. } | Message::Refilled { .. } => TrafficClass::Upload,
        }
    }

    /// Number of tuples the message carries — the paper's bandwidth unit.
    pub fn tuple_count(&self) -> u64 {
        match self {
            Message::Upload(Some(_)) | Message::UploadLast(_) | Message::Feedback(_) => 1,
            Message::NotifyInsert(_) | Message::NotifyDelete(_) => 1,
            Message::ReplicaAdd(_) | Message::ReplicaRemove(_) | Message::RegionQuery(_) => 1,
            Message::ReplicaSync(tuples)
            | Message::RegionReply(tuples)
            | Message::FeedbackBatch(tuples) => tuples.len() as u64,
            // A columnar frame carries exactly the tuples its legacy twin
            // does — the layout saves bytes, never the paper's unit.
            Message::FeedbackBatchC(block)
            | Message::ReplicaSyncC(block)
            | Message::RegionReplyC(block) => block.len() as u64,
            // Injected updates are simulation scaffolding, not traffic.
            Message::InjectInsert(_) | Message::InjectDelete(_) => 0,
            Message::Tagged { inner, .. } => inner.tuple_count(),
            // A merged broadcast ships its payload ONCE regardless of how
            // many member sites it addresses — the root-link saving the
            // tree topology exists for. Scatter parts and merged replies
            // each carry their own payloads and sum.
            Message::AggBroadcast { inner, .. } => inner.tuple_count(),
            Message::AggScatter { parts } => parts.iter().map(|(_, m)| m.tuple_count()).sum(),
            Message::AggReplies { replies } => replies
                .iter()
                .map(|(_, r)| match r {
                    AggReply::Ok(m) => m.tuple_count(),
                    AggReply::Err(_) => 0,
                })
                .sum(),
            Message::Draw(flush) | Message::DrawDeferred(flush) => flush.tuple_count(),
            Message::Drawn { next, .. }
            | Message::Refilled { next, .. }
            | Message::Started { next, .. } => u64::from(next.is_some()),
            _ => 0,
        }
    }

    /// Serializes the message into its binary wire form.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Serializes the message into a caller-owned buffer, clearing it
    /// first. Transports that send many frames over one connection keep a
    /// single [`BytesMut`] alive and re-encode into it, so a batched round
    /// costs one write per site without any per-frame allocation.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.clear();
        buf.reserve(self.encoded_len());
        self.encode_body(buf);
    }

    /// Appends the wire form without clearing the buffer first — the
    /// recursive step [`Message::Tagged`] uses to splice its inner message
    /// after the id header.
    fn encode_body(&self, buf: &mut BytesMut) {
        match self {
            Message::Start { q, mask, counted } => {
                buf.put_u8(if *counted { 37 } else { 0 });
                buf.put_f64(*q);
                buf.put_u64(mask.bits());
            }
            Message::RequestNext => buf.put_u8(1),
            Message::Feedback(t) => {
                buf.put_u8(2);
                t.encode(buf);
            }
            Message::Upload(None) => buf.put_u8(3),
            Message::Upload(Some(t)) => {
                buf.put_u8(4);
                t.encode(buf);
            }
            Message::SurvivalReply { survival, pruned } => {
                buf.put_u8(5);
                buf.put_f64(*survival);
                buf.put_u64(*pruned);
            }
            Message::NotifyInsert(t) => {
                buf.put_u8(6);
                t.encode(buf);
            }
            Message::NotifyDelete(t) => {
                buf.put_u8(7);
                t.encode(buf);
            }
            Message::ReplicaSync(tuples) => {
                buf.put_u8(8);
                buf.put_u32(tuples.len() as u32);
                for t in tuples {
                    t.encode(buf);
                }
            }
            Message::Ack => buf.put_u8(9),
            Message::ReplicaAdd(t) => {
                buf.put_u8(10);
                t.encode(buf);
            }
            Message::ReplicaRemove(t) => {
                buf.put_u8(11);
                t.encode(buf);
            }
            Message::RegionQuery(t) => {
                buf.put_u8(12);
                t.encode(buf);
            }
            Message::RegionReply(tuples) => {
                buf.put_u8(13);
                buf.put_u32(tuples.len() as u32);
                for t in tuples {
                    t.encode(buf);
                }
            }
            Message::InjectInsert(t) => {
                buf.put_u8(14);
                t.encode(buf);
            }
            Message::InjectDelete(t) => {
                buf.put_u8(15);
                t.encode(buf);
            }
            Message::DecodeError => buf.put_u8(18),
            Message::FeedbackBatch(tuples) => {
                buf.put_u8(19);
                buf.put_u32(tuples.len() as u32);
                for t in tuples {
                    t.encode(buf);
                }
            }
            Message::SurvivalBatchReply { survivals, pruned } => {
                buf.put_u8(20);
                buf.put_u32(survivals.len() as u32);
                for &s in survivals {
                    buf.put_f64(s);
                }
                buf.put_u64(*pruned);
            }
            Message::Tagged { query_id, inner } => {
                buf.put_u8(crate::wire::TAG_TAGGED);
                buf.put_u64(*query_id);
                inner.encode_body(buf);
            }
            Message::Release => buf.put_u8(22),
            Message::FeedbackBatchC(block) => {
                crate::wire::encode_block(crate::wire::TAG_FEEDBACK_BATCH_C, block, buf);
            }
            Message::SurvivalBatchReplyC { survivals, pruned } => {
                crate::wire::encode_survivals(survivals, *pruned, buf);
            }
            Message::ReplicaSyncC(block) => {
                crate::wire::encode_block(crate::wire::TAG_REPLICA_SYNC_C, block, buf);
            }
            Message::RegionReplyC(block) => {
                crate::wire::encode_block(crate::wire::TAG_REGION_REPLY_C, block, buf);
            }
            Message::HealthProbe { nonce } => {
                buf.put_u8(27);
                buf.put_u64(*nonce);
            }
            Message::HealthAck { nonce } => {
                buf.put_u8(28);
                buf.put_u64(*nonce);
            }
            Message::AggBroadcast { sites, inner } => {
                buf.put_u8(29);
                buf.put_u32(sites.len() as u32);
                for &s in sites {
                    buf.put_u32(s);
                }
                // The inner message is the rest of the frame, like Tagged.
                inner.encode_body(buf);
            }
            Message::AggScatter { parts } => {
                buf.put_u8(30);
                buf.put_u32(parts.len() as u32);
                for (site, msg) in parts {
                    buf.put_u32(*site);
                    buf.put_u32(msg.encoded_len() as u32);
                    msg.encode_body(buf);
                }
            }
            Message::AggReplies { replies } => {
                buf.put_u8(31);
                buf.put_u32(replies.len() as u32);
                for (site, reply) in replies {
                    buf.put_u32(*site);
                    reply.encode(buf);
                }
            }
            Message::SketchRequest => buf.put_u8(32),
            // The flush is the rest of the frame, like Tagged's inner.
            Message::Draw(flush) => {
                buf.put_u8(crate::wire::TAG_DRAW);
                flush.encode_body(buf);
            }
            Message::DrawDeferred(flush) => {
                buf.put_u8(crate::wire::TAG_DRAW_DEFERRED);
                flush.encode_body(buf);
            }
            Message::RequestNextDeferred => buf.put_u8(crate::wire::TAG_REQUEST_NEXT_DEFERRED),
            // Laid out as Upload(None)/Upload(Some)/UploadLast, the held
            // factors after the upload fill the rest of the frame.
            Message::Refilled { survivals, next, drained } => {
                buf.put_u8(match (next, drained) {
                    (None, _) => crate::wire::TAG_REFILLED_EXHAUSTED,
                    (Some(_), false) => crate::wire::TAG_REFILLED,
                    (Some(_), true) => crate::wire::TAG_REFILLED_LAST,
                });
                if let Some(t) = next {
                    t.encode(buf);
                }
                for &s in survivals {
                    buf.put_f64(s);
                }
            }
            // Like Upload(None)/Upload(Some), the tag says whether an
            // upload rides along; it precedes the survival reply, which is
            // the rest of the frame.
            // A third tag marks an upload that drained the site.
            Message::Drawn { survivals, next: None, .. } => {
                buf.put_u8(crate::wire::TAG_DRAWN_EXHAUSTED);
                survivals.encode_body(buf);
            }
            Message::Drawn { survivals, next: Some(t), drained } => {
                buf.put_u8(if *drained {
                    crate::wire::TAG_DRAWN_LAST
                } else {
                    crate::wire::TAG_DRAWN
                });
                t.encode(buf);
                survivals.encode_body(buf);
            }
            // Like Upload(None)/Upload(Some), the tag says whether an
            // upload follows the count.
            Message::Started { pending, next: None } => {
                buf.put_u8(38);
                buf.put_u32(*pending);
            }
            Message::Started { pending, next: Some(t) } => {
                buf.put_u8(39);
                buf.put_u32(*pending);
                t.encode(buf);
            }
            Message::UploadLast(t) => {
                buf.put_u8(40);
                t.encode(buf);
            }
            Message::CoverRequest => buf.put_u8(42),
            Message::Cover(cover) => {
                buf.put_u8(43);
                buf.put_u16(cover.dims() as u16);
                buf.put_u32(cover.len() as u32);
                for &v in cover.points() {
                    buf.put_f64(v);
                }
            }
        }
    }

    /// Size of the binary wire form, in bytes.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Message::Start { .. } => 16,
            Message::RequestNext
            | Message::RequestNextDeferred
            | Message::Upload(None)
            | Message::Ack
            | Message::DecodeError
            | Message::CoverRequest => 0,
            Message::Feedback(t)
            | Message::Upload(Some(t))
            | Message::UploadLast(t)
            | Message::NotifyInsert(t)
            | Message::NotifyDelete(t)
            | Message::ReplicaAdd(t)
            | Message::ReplicaRemove(t)
            | Message::RegionQuery(t)
            | Message::InjectInsert(t)
            | Message::InjectDelete(t) => t.encoded_len(),
            Message::SurvivalReply { .. } => 16,
            Message::SurvivalBatchReply { survivals, .. } => 4 + 8 * survivals.len() + 8,
            Message::ReplicaSync(tuples)
            | Message::RegionReply(tuples)
            | Message::FeedbackBatch(tuples) => {
                4 + tuples.iter().map(TupleMsg::encoded_len).sum::<usize>()
            }
            Message::Tagged { inner, .. } => 8 + inner.encoded_len(),
            Message::Release => 0,
            // The columnar helpers count the whole frame including the tag
            // byte this match already charged.
            Message::FeedbackBatchC(block)
            | Message::ReplicaSyncC(block)
            | Message::RegionReplyC(block) => {
                crate::wire::block_encoded_len(block.len(), block.dims as usize) - 1
            }
            Message::SurvivalBatchReplyC { survivals, .. } => {
                crate::wire::survivals_encoded_len(survivals.len()) - 1
            }
            Message::HealthProbe { .. } | Message::HealthAck { .. } => 8,
            Message::AggBroadcast { sites, inner } => 4 + 4 * sites.len() + inner.encoded_len(),
            Message::AggScatter { parts } => {
                4 + parts.iter().map(|(_, m)| 4 + 4 + m.encoded_len()).sum::<usize>()
            }
            Message::AggReplies { replies } => {
                4 + replies.iter().map(|(_, r)| 4 + r.encoded_len()).sum::<usize>()
            }
            Message::SketchRequest => 0,
            Message::Draw(flush) | Message::DrawDeferred(flush) => flush.encoded_len(),
            Message::Drawn { survivals, next, .. } => {
                next.as_ref().map_or(0, TupleMsg::encoded_len) + survivals.encoded_len()
            }
            Message::Refilled { survivals, next, .. } => {
                next.as_ref().map_or(0, TupleMsg::encoded_len) + 8 * survivals.len()
            }
            Message::Started { next, .. } => 4 + next.as_ref().map_or(0, TupleMsg::encoded_len),
            Message::Cover(cover) => 2 + 4 + 8 * cover.points().len(),
        }
    }

    /// For a columnar frame (or a [`Message::Tagged`] wrapper around one):
    /// the frame length its *legacy* row-major encoding would have had.
    /// `None` for every other message. The meter uses this to account the
    /// bytes the columnar layout saved; note the columnar survival reply
    /// is slightly *larger* than its legacy twin (a fixed 11-byte header
    /// premium buys the castable layout), which the meter's saturating
    /// subtraction records as zero saved rather than negative.
    pub fn legacy_encoded_len(&self) -> Option<usize> {
        // A legacy TupleMsg of d values is 30 + 8d bytes; row vectors add
        // a 1-byte tag + 4-byte count.
        let rows = |n: usize, dims: usize| 5 + n * (30 + 8 * dims);
        match self {
            Message::FeedbackBatchC(block)
            | Message::ReplicaSyncC(block)
            | Message::RegionReplyC(block) => Some(rows(block.len(), block.dims as usize)),
            Message::SurvivalBatchReplyC { survivals, .. } => Some(13 + 8 * survivals.len()),
            Message::Tagged { inner, .. } => inner.legacy_encoded_len().map(|l| l + 9),
            Message::Draw(flush) | Message::DrawDeferred(flush) => {
                flush.legacy_encoded_len().map(|l| l + 1)
            }
            Message::Drawn { survivals, next, .. } => survivals
                .legacy_encoded_len()
                .map(|l| l + 1 + next.as_ref().map_or(0, TupleMsg::encoded_len)),
            _ => None,
        }
    }

    /// Deserializes a message from its binary wire form.
    ///
    /// Returns `None` for malformed input.
    pub fn decode(buf: Bytes) -> Option<Self> {
        Self::decode_slice(&buf)
    }

    /// [`Message::decode`] over a borrowed buffer, so transports can reuse
    /// one receive buffer across frames instead of handing each payload an
    /// owned allocation.
    ///
    /// Container frames (`Tagged`, the aggregate frames, `Draw`/`Drawn`)
    /// nest at most [`MAX_NESTING`] deep, so no frame can exhaust the
    /// decoding thread's stack; a deeper frame decodes to `None`.
    pub fn decode_slice(buf: &[u8]) -> Option<Self> {
        Self::decode_at(buf, 0)
    }

    /// [`Message::decode_slice`] for a frame nested inside `depth`
    /// containers.
    fn decode_at(mut buf: &[u8], depth: usize) -> Option<Self> {
        if buf.is_empty() {
            return None;
        }
        // The depth an inner frame of a container at this level sits at,
        // or `None` if this level may not hold a container.
        let inner = (depth < MAX_NESTING).then_some(depth + 1);
        // Columnar frames (tags 23–26) carry their own validated header
        // and exact-length contract; they are decoded from the whole frame
        // so the section offsets in the wire layout stay tag-relative.
        if crate::wire::is_columnar_tag(buf[0]) {
            return crate::wire::decode_columnar(buf);
        }
        let tag = buf.get_u8();
        let msg = match tag {
            0 | 37 => {
                if buf.remaining() < 16 {
                    return None;
                }
                let q = buf.get_f64();
                let mask = SubspaceMask::try_from_bits(buf.get_u64()).ok()?;
                Message::Start { q, mask, counted: tag == 37 }
            }
            1 => Message::RequestNext,
            2 => Message::Feedback(TupleMsg::decode(&mut buf)?),
            3 => Message::Upload(None),
            4 => Message::Upload(Some(TupleMsg::decode(&mut buf)?)),
            5 => {
                if buf.remaining() < 16 {
                    return None;
                }
                Message::SurvivalReply { survival: buf.get_f64(), pruned: buf.get_u64() }
            }
            6 => Message::NotifyInsert(TupleMsg::decode(&mut buf)?),
            7 => Message::NotifyDelete(TupleMsg::decode(&mut buf)?),
            8 => {
                if buf.remaining() < 4 {
                    return None;
                }
                let n = buf.get_u32() as usize;
                let mut tuples = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    tuples.push(TupleMsg::decode(&mut buf)?);
                }
                Message::ReplicaSync(tuples)
            }
            9 => Message::Ack,
            10 => Message::ReplicaAdd(TupleMsg::decode(&mut buf)?),
            11 => Message::ReplicaRemove(TupleMsg::decode(&mut buf)?),
            12 => Message::RegionQuery(TupleMsg::decode(&mut buf)?),
            13 => {
                if buf.remaining() < 4 {
                    return None;
                }
                let n = buf.get_u32() as usize;
                let mut tuples = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    tuples.push(TupleMsg::decode(&mut buf)?);
                }
                Message::RegionReply(tuples)
            }
            14 => Message::InjectInsert(TupleMsg::decode(&mut buf)?),
            15 => Message::InjectDelete(TupleMsg::decode(&mut buf)?),
            18 => Message::DecodeError,
            19 => {
                if buf.remaining() < 4 {
                    return None;
                }
                let n = buf.get_u32() as usize;
                let mut tuples = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    tuples.push(TupleMsg::decode(&mut buf)?);
                }
                Message::FeedbackBatch(tuples)
            }
            20 => {
                if buf.remaining() < 4 {
                    return None;
                }
                let n = buf.get_u32() as usize;
                if buf.remaining() < 8 * n + 8 {
                    return None;
                }
                let survivals = (0..n).map(|_| buf.get_f64()).collect();
                Message::SurvivalBatchReply { survivals, pruned: buf.get_u64() }
            }
            crate::wire::TAG_TAGGED => {
                if buf.remaining() < 8 {
                    return None;
                }
                let query_id = buf.get_u64();
                // The inner message is the rest of the frame; the recursive
                // decode enforces its own exact-length contract.
                let inner = Box::new(Self::decode_at(buf, inner?)?);
                buf = &[];
                Message::Tagged { query_id, inner }
            }
            22 => Message::Release,
            27 => {
                if buf.remaining() < 8 {
                    return None;
                }
                Message::HealthProbe { nonce: buf.get_u64() }
            }
            28 => {
                if buf.remaining() < 8 {
                    return None;
                }
                Message::HealthAck { nonce: buf.get_u64() }
            }
            29 => {
                if buf.remaining() < 4 {
                    return None;
                }
                let n = buf.get_u32() as usize;
                if buf.remaining() < 4 * n {
                    return None;
                }
                let sites = (0..n).map(|_| buf.get_u32()).collect();
                // The inner message is the rest of the frame; the recursive
                // decode enforces its own exact-length contract.
                let inner = Box::new(Self::decode_at(buf, inner?)?);
                buf = &[];
                Message::AggBroadcast { sites, inner }
            }
            30 => {
                let inner = inner?;
                if buf.remaining() < 4 {
                    return None;
                }
                let n = buf.get_u32() as usize;
                let mut parts = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    if buf.remaining() < 8 {
                        return None;
                    }
                    let site = buf.get_u32();
                    let len = buf.get_u32() as usize;
                    if buf.remaining() < len {
                        return None;
                    }
                    let msg = Self::decode_at(&buf[..len], inner)?;
                    buf = &buf[len..];
                    parts.push((site, msg));
                }
                Message::AggScatter { parts }
            }
            31 => {
                let inner = inner?;
                if buf.remaining() < 4 {
                    return None;
                }
                let n = buf.get_u32() as usize;
                let mut replies = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    if buf.remaining() < 4 {
                        return None;
                    }
                    let site = buf.get_u32();
                    let reply = AggReply::decode(&mut buf, inner)?;
                    replies.push((site, reply));
                }
                Message::AggReplies { replies }
            }
            32 => Message::SketchRequest,
            // Draw frames nest exactly one frame kind each, checked by tag
            // before the recursive decode, which enforces its own
            // exact-length contract.
            crate::wire::TAG_DRAW | crate::wire::TAG_DRAW_DEFERRED => {
                if !matches!(buf.first(), Some(&19 | &crate::wire::TAG_FEEDBACK_BATCH_C)) {
                    return None;
                }
                let flush = Box::new(Self::decode_at(buf, inner?)?);
                buf = &[];
                if tag == crate::wire::TAG_DRAW {
                    Message::Draw(flush)
                } else {
                    Message::DrawDeferred(flush)
                }
            }
            crate::wire::TAG_REQUEST_NEXT_DEFERRED => Message::RequestNextDeferred,
            crate::wire::TAG_REFILLED_EXHAUSTED
            | crate::wire::TAG_REFILLED
            | crate::wire::TAG_REFILLED_LAST => {
                let next = match tag {
                    crate::wire::TAG_REFILLED_EXHAUSTED => None,
                    _ => Some(TupleMsg::decode(&mut buf)?),
                };
                if !buf.remaining().is_multiple_of(8) {
                    return None;
                }
                let survivals = (0..buf.remaining() / 8).map(|_| buf.get_f64()).collect();
                let drained = tag != crate::wire::TAG_REFILLED;
                Message::Refilled { survivals, next, drained }
            }
            crate::wire::TAG_DRAWN_EXHAUSTED
            | crate::wire::TAG_DRAWN
            | crate::wire::TAG_DRAWN_LAST => {
                let next = match tag {
                    crate::wire::TAG_DRAWN_EXHAUSTED => None,
                    _ => Some(TupleMsg::decode(&mut buf)?),
                };
                let drained = tag != crate::wire::TAG_DRAWN;
                if !matches!(buf.first(), Some(&20 | &crate::wire::TAG_SURVIVAL_BATCH_REPLY_C)) {
                    return None;
                }
                let survivals = Self::decode_at(buf, inner?)?;
                buf = &[];
                Message::Drawn { survivals: Box::new(survivals), next, drained }
            }
            38 | 39 => {
                if buf.remaining() < 4 {
                    return None;
                }
                let pending = buf.get_u32();
                let next = if tag == 39 { Some(TupleMsg::decode(&mut buf)?) } else { None };
                Message::Started { pending, next }
            }
            40 => Message::UploadLast(TupleMsg::decode(&mut buf)?),
            42 => Message::CoverRequest,
            43 => {
                if buf.remaining() < 6 {
                    return None;
                }
                let dims = buf.get_u16() as usize;
                let rows = buf.get_u32() as usize;
                let values = rows.checked_mul(dims)?;
                if dims == 0 || buf.remaining() < values.checked_mul(8)? {
                    return None;
                }
                let points = (0..values).map(|_| buf.get_f64()).collect();
                Message::Cover(crate::Cover::new(dims, points))
            }
            _ => return None,
        };
        if buf.has_remaining() {
            return None;
        }
        Some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsud_uncertain::Probability;

    fn sample_tuple_msg() -> TupleMsg {
        let t = UncertainTuple::new(
            TupleId::new(3, 17),
            vec![6.0, 6.5, 7.0],
            Probability::new(0.7).unwrap(),
        )
        .unwrap();
        TupleMsg::new(&t, 0.65)
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Start { q: 0.3, mask: SubspaceMask::full(3).unwrap(), counted: false },
            Message::RequestNext,
            Message::Feedback(sample_tuple_msg()),
            Message::Upload(None),
            Message::Upload(Some(sample_tuple_msg())),
            Message::SurvivalReply { survival: 0.42, pruned: 3 },
            Message::NotifyInsert(sample_tuple_msg()),
            Message::NotifyDelete(sample_tuple_msg()),
            Message::ReplicaSync(vec![sample_tuple_msg(), sample_tuple_msg()]),
            Message::ReplicaAdd(sample_tuple_msg()),
            Message::ReplicaRemove(sample_tuple_msg()),
            Message::RegionQuery(sample_tuple_msg()),
            Message::RegionReply(vec![sample_tuple_msg()]),
            Message::InjectInsert(sample_tuple_msg()),
            Message::InjectDelete(sample_tuple_msg()),
            Message::Ack,
            Message::DecodeError,
            Message::FeedbackBatch(vec![sample_tuple_msg(); 3]),
            Message::SurvivalBatchReply { survivals: vec![0.9, 0.25, 1.0], pruned: 4 },
            Message::Tagged { query_id: 7, inner: Box::new(Message::Feedback(sample_tuple_msg())) },
            Message::Tagged { query_id: 7, inner: Box::new(Message::Release) },
            Message::Release,
            Message::FeedbackBatchC(crate::TupleBlock::from_msgs(&vec![sample_tuple_msg(); 3])),
            Message::SurvivalBatchReplyC { survivals: vec![0.9, 0.25, 1.0], pruned: 4 },
            Message::ReplicaSyncC(crate::TupleBlock::from_msgs(&vec![sample_tuple_msg(); 2])),
            Message::RegionReplyC(crate::TupleBlock::from_msgs(&[sample_tuple_msg()])),
            Message::Tagged {
                query_id: 9,
                inner: Box::new(Message::FeedbackBatchC(crate::TupleBlock::from_msgs(&[
                    sample_tuple_msg(),
                ]))),
            },
            Message::HealthProbe { nonce: 0xfeed_beef },
            Message::HealthAck { nonce: 0xfeed_beef },
            Message::Tagged { query_id: 3, inner: Box::new(Message::HealthProbe { nonce: 12 }) },
            Message::AggBroadcast {
                sites: vec![4, 5, 6, 7],
                inner: Box::new(Message::Feedback(sample_tuple_msg())),
            },
            // Columnar wire twin inside an aggregate container: the tree
            // topology's bulk frames are the same containers around the
            // same columnar payloads.
            Message::AggBroadcast {
                sites: vec![0, 1],
                inner: Box::new(Message::FeedbackBatchC(crate::TupleBlock::from_msgs(&vec![
                    sample_tuple_msg();
                    3
                ]))),
            },
            Message::AggScatter {
                parts: vec![
                    (2, Message::RequestNext),
                    (3, Message::FeedbackBatch(vec![sample_tuple_msg(); 2])),
                ],
            },
            Message::AggReplies {
                replies: vec![
                    (2, AggReply::Ok(Box::new(Message::Upload(Some(sample_tuple_msg()))))),
                    (3, AggReply::Err(LinkError::Timeout)),
                    (4, AggReply::Err(LinkError::Io("connection reset".into()))),
                ],
            },
            Message::Tagged {
                query_id: 11,
                inner: Box::new(Message::AggBroadcast {
                    sites: vec![0, 1, 2],
                    inner: Box::new(Message::RequestNext),
                }),
            },
            Message::SketchRequest,
            // The retired plan-phase request composes with the session mux
            // and the tree containers exactly like every other frame kind.
            Message::Tagged { query_id: 13, inner: Box::new(Message::SketchRequest) },
            Message::AggBroadcast { sites: vec![0, 1, 2], inner: Box::new(Message::SketchRequest) },
            // A draining upload and the cover exchange, bare and routed.
            Message::UploadLast(sample_tuple_msg()),
            Message::Tagged {
                query_id: 5,
                inner: Box::new(Message::UploadLast(sample_tuple_msg())),
            },
            Message::CoverRequest,
            Message::Cover(crate::Cover::new(3, vec![1.0, 2.0, 3.0, 0.5, 4.0, 1.5])),
            Message::AggBroadcast { sites: vec![0, 1], inner: Box::new(Message::CoverRequest) },
            Message::AggReplies {
                replies: vec![
                    (0, AggReply::Ok(Box::new(Message::Cover(crate::Cover::new(1, vec![2.0]))))),
                    (1, AggReply::Ok(Box::new(Message::Cover(crate::Cover::new(2, Vec::new()))))),
                ],
            },
        ]
        .into_iter()
        .chain(draw_messages())
        .chain(start_messages())
        .collect()
    }

    /// Counted starts and both `Started` replies, bare and inside every
    /// container that routes them.
    fn start_messages() -> Vec<Message> {
        let mask = SubspaceMask::try_from_bits(0b101).unwrap();
        let counted = || Message::Start { q: 0.25, mask, counted: true };
        let started = || Message::Started { pending: 41, next: Some(sample_tuple_msg()) };
        let exhausted = || Message::Started { pending: 0, next: None };
        vec![
            counted(),
            started(),
            exhausted(),
            Message::Tagged { query_id: 19, inner: Box::new(counted()) },
            Message::Tagged { query_id: 19, inner: Box::new(started()) },
            Message::Tagged { query_id: 19, inner: Box::new(exhausted()) },
            Message::AggBroadcast { sites: vec![0, 1, 2], inner: Box::new(counted()) },
            Message::AggReplies {
                replies: vec![
                    (0, AggReply::Ok(Box::new(started()))),
                    (1, AggReply::Ok(Box::new(exhausted()))),
                    (2, AggReply::Err(LinkError::Timeout)),
                ],
            },
        ]
    }

    /// Draw frames in both wire layouts, bare and inside every container
    /// that routes them.
    fn draw_messages() -> Vec<Message> {
        let legacy =
            || Message::Draw(Box::new(Message::FeedbackBatch(vec![sample_tuple_msg(); 2])));
        let columnar = || {
            Message::Draw(Box::new(Message::FeedbackBatchC(crate::TupleBlock::from_msgs(&vec![
                sample_tuple_msg();
                3
            ]))))
        };
        let drawn = || Message::Drawn {
            survivals: Box::new(Message::SurvivalBatchReply {
                survivals: vec![0.5, 1.0],
                pruned: 1,
            }),
            next: Some(sample_tuple_msg()),
            drained: false,
        };
        let drawn_c = || Message::Drawn {
            survivals: Box::new(Message::SurvivalBatchReplyC {
                survivals: vec![0.25, 0.5, 1.0],
                pruned: 2,
            }),
            next: None,
            drained: true,
        };
        let drawn_last = || Message::Drawn {
            survivals: Box::new(Message::SurvivalBatchReply { survivals: vec![1.0], pruned: 0 }),
            next: Some(sample_tuple_msg()),
            drained: true,
        };
        let deferred = |draw: Message| match draw {
            Message::Draw(flush) => Message::DrawDeferred(flush),
            other => other,
        };
        let refilled = |n: usize, next: Option<TupleMsg>, drained| Message::Refilled {
            survivals: (0..n).map(|k| 0.125 * k as f64).collect(),
            next,
            drained,
        };
        vec![
            legacy(),
            columnar(),
            Message::RequestNextDeferred,
            Message::Tagged { query_id: 17, inner: Box::new(Message::RequestNextDeferred) },
            deferred(legacy()),
            deferred(columnar()),
            drawn(),
            drawn_c(),
            drawn_last(),
            refilled(2, None, true),
            refilled(1, Some(sample_tuple_msg()), false),
            refilled(3, Some(sample_tuple_msg()), true),
            Message::Tagged { query_id: 17, inner: Box::new(columnar()) },
            Message::Tagged { query_id: 17, inner: Box::new(legacy()) },
            Message::Tagged { query_id: 17, inner: Box::new(deferred(columnar())) },
            Message::Tagged { query_id: 17, inner: Box::new(refilled(1, None, true)) },
            Message::AggScatter {
                parts: vec![
                    (1, legacy()),
                    (2, columnar()),
                    (3, deferred(legacy())),
                    (5, Message::RequestNext),
                ],
            },
            Message::AggReplies {
                replies: vec![
                    (1, AggReply::Ok(Box::new(drawn()))),
                    (2, AggReply::Ok(Box::new(drawn_c()))),
                    (3, AggReply::Ok(Box::new(refilled(2, Some(sample_tuple_msg()), false)))),
                    (5, AggReply::Err(LinkError::Disconnected)),
                ],
            },
        ]
    }

    /// Golden wire contract: `encoded_len` is the exact frame length for
    /// every variant — the pipelined transports pre-reserve outstanding
    /// frames from it — and the sample set covers every live wire tag.
    /// Adding a message variant without extending `all_messages` (and
    /// without a matching `encoded_len` arm) fails here, not in a
    /// transport at 2 a.m.
    #[test]
    fn encoded_len_matches_wire_length_for_every_tag() {
        let empties = vec![
            Message::ReplicaSync(Vec::new()),
            Message::RegionReply(Vec::new()),
            Message::FeedbackBatch(Vec::new()),
            Message::SurvivalBatchReply { survivals: Vec::new(), pruned: 0 },
            Message::FeedbackBatchC(crate::TupleBlock::default()),
            Message::SurvivalBatchReplyC { survivals: Vec::new(), pruned: 0 },
            Message::ReplicaSyncC(crate::TupleBlock::default()),
            Message::RegionReplyC(crate::TupleBlock::default()),
            Message::AggBroadcast { sites: Vec::new(), inner: Box::new(Message::Ack) },
            Message::AggScatter { parts: Vec::new() },
            Message::AggReplies { replies: Vec::new() },
        ];
        let mut tags = Vec::new();
        for msg in all_messages().into_iter().chain(empties) {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len(), "{msg:?}");
            tags.push(bytes[0]);
        }
        tags.sort_unstable();
        tags.dedup();
        // Tags 16/17 (the retired grid synopsis) and 33 (the retired sketch
        // reply) are the gaps.
        let live: Vec<u8> = (0u8..=48).filter(|t| ![16, 17, 33].contains(t)).collect();
        assert_eq!(tags, live, "every live wire tag 0..=48 represented");
    }

    /// The columnar frames are re-encodings, not new semantics: each
    /// carries row-for-row the payload of its legacy twin (same ids,
    /// bit-identical floats, same order), shares its traffic class and
    /// tuple count, and `legacy_encoded_len` reports exactly the twin's
    /// frame length.
    #[test]
    fn columnar_frames_mirror_their_legacy_twins() {
        let tuples = vec![sample_tuple_msg(); 3];
        let block = crate::TupleBlock::from_msgs(&tuples);
        for (columnar, legacy) in [
            (Message::FeedbackBatchC(block.clone()), Message::FeedbackBatch(tuples.clone())),
            (
                Message::SurvivalBatchReplyC { survivals: vec![0.5, 0.25], pruned: 2 },
                Message::SurvivalBatchReply { survivals: vec![0.5, 0.25], pruned: 2 },
            ),
            (Message::ReplicaSyncC(block.clone()), Message::ReplicaSync(tuples.clone())),
            (Message::RegionReplyC(block.clone()), Message::RegionReply(tuples.clone())),
        ] {
            assert_eq!(columnar.class(), legacy.class(), "{columnar:?}");
            assert_eq!(columnar.tuple_count(), legacy.tuple_count(), "{columnar:?}");
            assert_eq!(columnar.legacy_encoded_len(), Some(legacy.encoded_len()), "{columnar:?}");
            // Decoding the columnar frame restores bit-identical rows.
            let back = Message::decode_slice(&columnar.encode()).expect("well-formed");
            match (&back, &legacy) {
                (Message::FeedbackBatchC(b), Message::FeedbackBatch(t))
                | (Message::ReplicaSyncC(b), Message::ReplicaSync(t))
                | (Message::RegionReplyC(b), Message::RegionReply(t)) => {
                    assert_eq!(&b.to_msgs(), t);
                }
                (
                    Message::SurvivalBatchReplyC { survivals: a, pruned: pa },
                    Message::SurvivalBatchReply { survivals: b, pruned: pb },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(pa, pb);
                }
                other => panic!("unexpected decode pairing {other:?}"),
            }
        }
        // The tuple-block frame saves 2 bytes per row (no per-row dims
        // field) against an 11-byte header premium, so it is strictly
        // smaller from 6 rows up — e.g. at the default batch size 16.
        let big = vec![sample_tuple_msg(); 16];
        let c = Message::FeedbackBatchC(crate::TupleBlock::from_msgs(&big)).encoded_len();
        let l = Message::FeedbackBatch(big).encoded_len();
        assert!(c < l, "columnar batch {c} >= legacy {l}");
    }

    /// Fuzz-ish corpus of malformed columnar headers: every mutation must
    /// decode to `None` (the transports answer [`Message::DecodeError`]),
    /// never panic.
    #[test]
    fn malformed_columnar_headers_decode_to_none() {
        let good =
            Message::FeedbackBatchC(crate::TupleBlock::from_msgs(&vec![sample_tuple_msg(); 4]))
                .encode();
        assert!(Message::decode_slice(&good).is_some());
        let mut corpus: Vec<Vec<u8>> = Vec::new();
        // Bad magic, each byte separately.
        for i in 1..4 {
            let mut bad = good.to_vec();
            bad[i] ^= 0xff;
            corpus.push(bad);
        }
        // Wrong column lengths: inflated and deflated row counts, inflated
        // dims, dims over the SubspaceMask bound.
        for (at, val) in [(4usize, 1000u32), (4, 0)] {
            let mut bad = good.to_vec();
            bad[at..at + 4].copy_from_slice(&val.to_le_bytes());
            corpus.push(bad);
        }
        for dims in [7u16, 65, u16::MAX] {
            let mut bad = good.to_vec();
            bad[8..10].copy_from_slice(&dims.to_le_bytes());
            corpus.push(bad);
        }
        // Nonzero padding.
        for i in 10..16 {
            let mut bad = good.to_vec();
            bad[i] = 0xaa;
            corpus.push(bad);
        }
        // Misaligned / mis-sized payloads: truncations at every section
        // boundary and single trailing bytes.
        for cut in [good.len() - 1, good.len() - 7, super::super::wire::HEADER_LEN, 5] {
            corpus.push(good[..cut].to_vec());
        }
        let mut long = good.to_vec();
        long.push(0);
        corpus.push(long);
        // A truncated header on every columnar tag.
        for tag in 23u8..=26 {
            corpus.push(vec![tag]);
            corpus.push(vec![tag, b'D', b'S']);
        }
        for (i, frame) in corpus.iter().enumerate() {
            assert!(
                Message::decode_slice(frame).is_none(),
                "corpus entry {i} must reject: {frame:?}"
            );
        }
    }

    /// Malformed *compositions*: tagged health probes and columnar frames
    /// inside a session wrapper, mutated at every layer. Every entry must
    /// decode to `None` (the daemon answers [`Message::DecodeError`] and
    /// keeps serving), never panic.
    #[test]
    fn malformed_tagged_compositions_decode_to_none() {
        let probe =
            Message::Tagged { query_id: 5, inner: Box::new(Message::HealthProbe { nonce: 77 }) }
                .encode();
        let sync = Message::Tagged {
            query_id: 5,
            inner: Box::new(Message::ReplicaSyncC(crate::TupleBlock::from_msgs(&vec![
                sample_tuple_msg();
                4
            ]))),
        }
        .encode();
        assert!(Message::decode_slice(&probe).is_some());
        assert!(Message::decode_slice(&sync).is_some());

        let mut corpus: Vec<Vec<u8>> = Vec::new();
        // Tagged{HealthProbe}: truncated at every boundary — mid-id,
        // after the id, mid-nonce — plus a trailing byte.
        for cut in [1, 5, 9, 10, probe.len() - 1] {
            corpus.push(probe[..cut].to_vec());
        }
        let mut long = probe.to_vec();
        long.push(0);
        corpus.push(long);
        // Bare probe/ack truncations.
        corpus.push(vec![27]);
        corpus.push(vec![27, 1, 2, 3]);
        corpus.push(vec![28]);
        corpus.push(vec![28, 1, 2, 3, 4, 5, 6]);
        // Truncated ReplicaSyncC inside a session wrapper: cut inside the
        // columnar header and inside the column payload.
        for cut in [10, 12, sync.len() - 1, sync.len() - 9] {
            corpus.push(sync[..cut].to_vec());
        }
        // Corrupt the columnar magic through the wrapper.
        let mut bad_magic = sync.to_vec();
        bad_magic[10] ^= 0xff;
        corpus.push(bad_magic);
        // Inflate the inner row count through the wrapper.
        let mut bad_rows = sync.to_vec();
        bad_rows[13..17].copy_from_slice(&1000u32.to_le_bytes());
        corpus.push(bad_rows);
        for (i, frame) in corpus.iter().enumerate() {
            assert!(
                Message::decode_slice(frame).is_none(),
                "composition corpus entry {i} must reject: {frame:?}"
            );
        }
    }

    /// The one plan-phase frame left is the retired request: a bare
    /// tag 32.
    #[test]
    fn sketch_frames_have_golden_wire_bytes() {
        assert_eq!(&Message::SketchRequest.encode()[..], &[32]);
    }

    /// The retired sketch reply's tag 33 is gone: a tag-33 frame — empty,
    /// with the old sketch header, or wrapped — decodes to `None`.
    #[test]
    fn malformed_sketch_frames_decode_to_none() {
        let mut old_header = vec![33, 0x5A, 0xD5, 1];
        old_header.resize(1 + 1619, 0);
        let mut tagged = vec![crate::wire::TAG_TAGGED];
        tagged.extend_from_slice(&6u64.to_be_bytes());
        tagged.extend_from_slice(&old_header);
        for frame in [vec![33], old_header, tagged] {
            assert!(Message::decode_slice(&frame).is_none(), "tag 33 is retired");
        }
    }

    /// The retired grid-synopsis tags 16 (request) and 17 (reply) are
    /// gone: an empty frame, the old header, and either one wrapped in a
    /// `Tagged` decode to `None`.
    #[test]
    fn malformed_synopsis_frames_decode_to_none() {
        // Tag 16 carried a u16 resolution; tag 17 a 2-d, 2×2 grid.
        let request = vec![16, 0, 8];
        let mut reply = vec![17, 0, 2, 0, 2];
        reply.extend(std::iter::repeat_n(0u8, 32));
        reply.extend_from_slice(&4u32.to_be_bytes());
        reply.extend(std::iter::repeat_n(0u8, 32));
        let tagged = |frame: &[u8]| {
            let mut out = vec![crate::wire::TAG_TAGGED];
            out.extend_from_slice(&6u64.to_be_bytes());
            out.extend_from_slice(frame);
            out
        };
        for frame in [vec![16], vec![17], tagged(&request), tagged(&reply), request, reply] {
            assert!(Message::decode_slice(&frame).is_none(), "tags 16/17 are retired: {frame:?}");
        }
    }

    /// The retired request is control traffic with zero tuple weight.
    #[test]
    fn sketch_frames_are_zero_tuple_control_traffic() {
        assert_eq!(Message::SketchRequest.class(), TrafficClass::Control);
        assert_eq!(Message::SketchRequest.tuple_count(), 0);
        assert_eq!(Message::SketchRequest.legacy_encoded_len(), None, "no columnar twin");
    }

    #[test]
    fn tagged_frames_delegate_cost_to_inner_message() {
        // A tagged feedback is still one feedback tuple on the wire; the
        // 8-byte id is header overhead, free in the paper's unit.
        let inner = Message::Feedback(sample_tuple_msg());
        let tagged = Message::Tagged { query_id: 42, inner: Box::new(inner.clone()) };
        assert_eq!(tagged.class(), TrafficClass::Feedback);
        assert_eq!(tagged.tuple_count(), 1);
        assert_eq!(tagged.encoded_len(), inner.encoded_len() + 9);
        assert_eq!(Message::Release.class(), TrafficClass::Control);
        assert_eq!(Message::Release.tuple_count(), 0);
        // Truncated id and truncated inner payload both fail cleanly.
        assert!(Message::decode(Bytes::from_static(&[21, 0, 0])).is_none());
        assert!(Message::decode(Bytes::from_static(&[21, 0, 0, 0, 0, 0, 0, 0, 1, 99])).is_none());
    }

    #[test]
    fn encode_decode_roundtrip() {
        for msg in all_messages() {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len(), "{msg:?}");
            let back = Message::decode(bytes).expect("well-formed message");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn pooled_buffers_roundtrip_identically() {
        // One shared encode buffer across every message, decoded from the
        // borrowed bytes: the pooled path must be byte-identical to the
        // allocating one.
        let mut buf = BytesMut::new();
        for msg in all_messages() {
            msg.encode_into(&mut buf);
            assert_eq!(&buf[..], &msg.encode()[..], "{msg:?}");
            assert_eq!(Message::decode_slice(&buf), Some(msg));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(Bytes::new()).is_none());
        assert!(Message::decode(Bytes::from_static(&[99])).is_none());
        // Truncated tuple payload.
        assert!(Message::decode(Bytes::from_static(&[2, 0, 0])).is_none());
        // Trailing bytes after a valid message.
        assert!(Message::decode(Bytes::from_static(&[1, 0])).is_none());
    }

    #[test]
    fn tuple_counts_follow_paper_convention() {
        assert_eq!(Message::Upload(Some(sample_tuple_msg())).tuple_count(), 1);
        assert_eq!(Message::Upload(None).tuple_count(), 0);
        assert_eq!(Message::Feedback(sample_tuple_msg()).tuple_count(), 1);
        assert_eq!(Message::SurvivalReply { survival: 0.5, pruned: 0 }.tuple_count(), 0);
        assert_eq!(Message::RequestNext.tuple_count(), 0);
        assert_eq!(Message::ReplicaSync(vec![sample_tuple_msg(); 5]).tuple_count(), 5);
        // A batched feedback still ships K tuples — coalescing saves
        // messages and header bytes, never the paper's tuple unit.
        assert_eq!(Message::FeedbackBatch(vec![sample_tuple_msg(); 4]).tuple_count(), 4);
        assert_eq!(
            Message::SurvivalBatchReply { survivals: vec![0.5; 4], pruned: 2 }.tuple_count(),
            0
        );
    }

    #[test]
    fn batched_variants_share_their_scalar_classes() {
        assert_eq!(
            Message::FeedbackBatch(vec![sample_tuple_msg()]).class(),
            TrafficClass::Feedback
        );
        assert_eq!(
            Message::SurvivalBatchReply { survivals: vec![1.0], pruned: 0 }.class(),
            TrafficClass::Reply
        );
    }

    #[test]
    fn traffic_classes() {
        assert_eq!(Message::Upload(None).class(), TrafficClass::Upload);
        assert_eq!(Message::Feedback(sample_tuple_msg()).class(), TrafficClass::Feedback);
        assert_eq!(
            Message::SurvivalReply { survival: 1.0, pruned: 0 }.class(),
            TrafficClass::Reply
        );
        assert_eq!(Message::Ack.class(), TrafficClass::Control);
        assert_eq!(Message::NotifyInsert(sample_tuple_msg()).class(), TrafficClass::Maintenance);
        assert_eq!(Message::InjectInsert(sample_tuple_msg()).class(), TrafficClass::Scaffold);
    }

    /// Aggregate containers charge the paper's bandwidth unit by what they
    /// actually ship on the root link: a merged broadcast counts its
    /// payload once no matter how many member sites it addresses, while
    /// scatter parts and merged replies sum their own payloads.
    #[test]
    fn aggregate_frames_charge_merged_costs() {
        let feedback = Message::Feedback(sample_tuple_msg());
        let merged = Message::AggBroadcast {
            sites: vec![0, 1, 2, 3, 4, 5, 6, 7],
            inner: Box::new(feedback.clone()),
        };
        assert_eq!(merged.tuple_count(), 1, "payload charged once, not per member");
        assert_eq!(merged.class(), TrafficClass::Feedback);
        // The merged frame is far smaller than eight copies of the inner.
        assert!(merged.encoded_len() < 8 * feedback.encoded_len());

        let scatter = Message::AggScatter {
            parts: vec![
                (0, Message::FeedbackBatch(vec![sample_tuple_msg(); 3])),
                (5, Message::FeedbackBatch(vec![sample_tuple_msg(); 2])),
            ],
        };
        assert_eq!(scatter.tuple_count(), 5);
        assert_eq!(scatter.class(), TrafficClass::Feedback);

        let replies = Message::AggReplies {
            replies: vec![
                (0, AggReply::Ok(Box::new(Message::Upload(Some(sample_tuple_msg()))))),
                (1, AggReply::Err(LinkError::Disconnected)),
                (2, AggReply::Ok(Box::new(Message::Upload(None)))),
            ],
        };
        assert_eq!(replies.tuple_count(), 1);
        assert_eq!(replies.class(), TrafficClass::Upload);
        // Containers opt out of the columnar bytes-saved accounting; the
        // inner frames' savings are a root-link concern the topology
        // experiment measures directly.
        assert_eq!(merged.legacy_encoded_len(), None);
        assert_eq!(scatter.legacy_encoded_len(), None);

        // Round-trip through the AggReply <-> Result conversions.
        let ok = AggReply::from_result(Ok(Message::Ack));
        assert_eq!(ok.into_result(), Ok(Message::Ack));
        let err = AggReply::from_result(Err(LinkError::Timeout));
        assert_eq!(err.into_result(), Err(LinkError::Timeout));
    }

    /// Malformed aggregate frames: truncations at every section boundary,
    /// inflated counts and lengths, bad error tags, trailing bytes. Every
    /// entry must decode to `None`, never panic — the daemon answers
    /// [`Message::DecodeError`] and keeps serving.
    #[test]
    fn malformed_aggregate_frames_decode_to_none() {
        let bcast = Message::AggBroadcast {
            sites: vec![0, 1, 2],
            inner: Box::new(Message::Feedback(sample_tuple_msg())),
        }
        .encode();
        let scatter = Message::AggScatter {
            parts: vec![(0, Message::RequestNext), (1, Message::Feedback(sample_tuple_msg()))],
        }
        .encode();
        let replies = Message::AggReplies {
            replies: vec![
                (0, AggReply::Ok(Box::new(Message::Upload(None)))),
                (1, AggReply::Err(LinkError::Io("boom".into()))),
            ],
        }
        .encode();
        assert!(Message::decode_slice(&bcast).is_some());
        assert!(Message::decode_slice(&scatter).is_some());
        assert!(Message::decode_slice(&replies).is_some());

        let mut corpus: Vec<Vec<u8>> = Vec::new();
        // Bare tags and truncated counts.
        for tag in [29u8, 30, 31] {
            corpus.push(vec![tag]);
            corpus.push(vec![tag, 0, 0]);
        }
        // AggBroadcast: truncated site list, missing inner, trailing byte,
        // inflated site count.
        for cut in [5, 8, 17, bcast.len() - 1] {
            corpus.push(bcast[..cut].to_vec());
        }
        let mut long = bcast.to_vec();
        long.push(0);
        corpus.push(long);
        let mut inflated = bcast.to_vec();
        inflated[1..5].copy_from_slice(&1000u32.to_be_bytes());
        corpus.push(inflated);
        // AggScatter: cut mid part header, mid part payload, inflated part
        // length (overruns the frame), deflated part length (leaves
        // trailing bytes in the part slice).
        for cut in [6, 12, scatter.len() - 1] {
            corpus.push(scatter[..cut].to_vec());
        }
        for len in [1000u32, 0] {
            let mut bad = scatter.to_vec();
            bad[9..13].copy_from_slice(&len.to_be_bytes());
            corpus.push(bad);
        }
        // AggReplies: cut mid entry, bad outcome tag, inflated ok length,
        // invalid utf-8 in an Io detail.
        for cut in [6, 10, replies.len() - 1] {
            corpus.push(replies[..cut].to_vec());
        }
        // Layout: [tag][count u32][site u32][reply tag u8][ok len u32]...
        let mut bad_tag = replies.to_vec();
        bad_tag[9] = 9;
        corpus.push(bad_tag);
        let mut bad_len = replies.to_vec();
        bad_len[10..14].copy_from_slice(&1000u32.to_be_bytes());
        corpus.push(bad_len);
        let mut bad_utf8 = replies.to_vec();
        let io_detail_at = replies.len() - 4; // "boom" is the last payload
        bad_utf8[io_detail_at] = 0xff;
        corpus.push(bad_utf8);
        for (i, frame) in corpus.iter().enumerate() {
            assert!(
                Message::decode_slice(frame).is_none(),
                "aggregate corpus entry {i} must reject: {frame:?}"
            );
        }
    }

    /// A draw costs what its two requests cost: the flush's class and
    /// tuples, one upload tuple back (none when exhausted), and exactly
    /// the two frames' bytes — the refill's tag becomes the draw's, the
    /// upload's tag the reply's.
    #[test]
    fn draw_frames_charge_their_parts() {
        let flush = Message::FeedbackBatch(vec![sample_tuple_msg(); 4]);
        let reply = Message::SurvivalBatchReply { survivals: vec![0.5; 4], pruned: 1 };
        let draw = Message::Draw(Box::new(flush.clone()));
        assert_eq!(draw.class(), TrafficClass::Feedback);
        assert_eq!(draw.tuple_count(), 4);
        assert_eq!(draw.encoded_len(), flush.encoded_len() + Message::RequestNext.encoded_len());
        for next in [Some(sample_tuple_msg()), None] {
            let upload = Message::Upload(next.clone());
            let drained = next.is_none();
            let drawn = Message::Drawn { survivals: Box::new(reply.clone()), next, drained };
            assert_eq!(drawn.class(), TrafficClass::Upload);
            assert_eq!(drawn.tuple_count(), upload.tuple_count());
            assert_eq!(drawn.encoded_len(), reply.encoded_len() + upload.encoded_len());
        }
        // Legacy draws are no columnar frames; columnar ones credit their
        // flush's saving.
        assert_eq!(draw.legacy_encoded_len(), None);
        let block = crate::TupleBlock::from_msgs(&vec![sample_tuple_msg(); 4]);
        let columnar = Message::Draw(Box::new(Message::FeedbackBatchC(block)));
        assert_eq!(columnar.legacy_encoded_len(), Some(draw.encoded_len()));
        // A deferred draw costs exactly what a draw costs, and its held
        // factors come back later at 8 bytes each, on a refill's upload.
        let deferred = Message::DrawDeferred(Box::new(flush.clone()));
        assert_eq!(deferred.class(), draw.class());
        assert_eq!(deferred.tuple_count(), draw.tuple_count());
        assert_eq!(deferred.encoded_len(), draw.encoded_len());
        assert_eq!(deferred.encode()[1..], draw.encode()[1..], "same body, its own tag");
        let refill = Message::RequestNextDeferred;
        assert_eq!(refill.class(), Message::RequestNext.class());
        assert_eq!(refill.tuple_count(), 0);
        assert_eq!(refill.encoded_len(), Message::RequestNext.encoded_len());
        for (next, drained) in [(None, true), (Some(sample_tuple_msg()), false)] {
            let upload = Message::Upload(next.clone());
            let refilled = Message::Refilled { survivals: vec![0.5; 3], next, drained };
            assert_eq!(refilled.class(), TrafficClass::Upload);
            assert_eq!(refilled.tuple_count(), upload.tuple_count());
            assert_eq!(refilled.encoded_len(), upload.encoded_len() + 3 * 8);
            assert_eq!(refilled.legacy_encoded_len(), None);
        }
    }

    /// Malformed draw frames: a trailing byte after every draw sample
    /// (bare, tagged, and inside aggregate containers), and a wrapper
    /// around the wrong frame kind. Every entry must decode to `None` — the
    /// transports answer [`Message::DecodeError`] — never panic.
    /// Truncations at every offset are a property in `tests/proptests.rs`.
    #[test]
    fn malformed_draw_frames_decode_to_none() {
        let mut corpus: Vec<Vec<u8>> = Vec::new();
        for msg in draw_messages() {
            let mut long = msg.encode().to_vec();
            long.push(0);
            corpus.push(long);
        }
        // A draw carries a feedback batch, a drawn reply a survival batch.
        let flush = || Message::FeedbackBatch(vec![sample_tuple_msg()]);
        for inner in [Message::RequestNext, Message::Feedback(sample_tuple_msg())] {
            corpus.push(Message::Draw(Box::new(inner)).encode().to_vec());
        }
        corpus.push(Message::Draw(Box::new(Message::Draw(Box::new(flush())))).encode().to_vec());
        for inner in [Message::RequestNext, Message::Draw(Box::new(flush()))] {
            corpus.push(Message::DrawDeferred(Box::new(inner)).encode().to_vec());
        }
        // Held factors fill whole 8-byte words after the upload.
        let refilled = Message::Refilled { survivals: vec![0.5], next: None, drained: true };
        corpus.push(refilled.encode()[..5].to_vec());
        for inner in [
            Message::Ack,
            Message::Upload(None),
            Message::SurvivalReply { survival: 0.5, pruned: 0 },
            flush(),
        ] {
            for next in [None, Some(sample_tuple_msg())] {
                let drained = next.is_none();
                let drawn = Message::Drawn { survivals: Box::new(inner.clone()), next, drained };
                corpus.push(drawn.encode().to_vec());
            }
        }
        for (i, frame) in corpus.iter().enumerate() {
            assert!(
                Message::decode_slice(frame).is_none(),
                "draw corpus entry {i} must reject: {frame:?}"
            );
        }
    }

    /// A counted start costs what a plain one costs, and its reply costs
    /// the upload it replaces plus the 4-byte count: same class, same
    /// tuples, one frame each way.
    #[test]
    fn start_frames_charge_their_plain_twins() {
        let mask = SubspaceMask::full(3).unwrap();
        let plain = Message::Start { q: 0.3, mask, counted: false };
        let counted = Message::Start { q: 0.3, mask, counted: true };
        assert_eq!(counted.class(), plain.class());
        assert_eq!(counted.tuple_count(), 0);
        assert_eq!(counted.encoded_len(), plain.encoded_len());
        assert_eq!(plain.encode()[0], 0);
        assert_eq!(counted.encode()[0], 37);
        assert_eq!(counted.encode()[1..], plain.encode()[1..], "same 16-byte body");
        for next in [Some(sample_tuple_msg()), None] {
            let upload = Message::Upload(next.clone());
            let started = Message::Started { pending: 7, next };
            assert_eq!(started.class(), TrafficClass::Upload);
            assert_eq!(started.tuple_count(), upload.tuple_count());
            assert_eq!(started.encoded_len(), upload.encoded_len() + 4);
            assert_eq!(started.legacy_encoded_len(), None);
        }
    }

    /// Malformed start frames: a trailing byte after every sample (bare,
    /// tagged, and inside aggregate containers), a short count, and a
    /// count announcing an upload that is not there. Every entry must
    /// decode to `None`, never panic. Truncations at every offset are a
    /// property in `tests/proptests.rs`.
    #[test]
    fn malformed_start_frames_decode_to_none() {
        let mut corpus: Vec<Vec<u8>> = Vec::new();
        for msg in start_messages() {
            let mut long = msg.encode().to_vec();
            long.push(0);
            corpus.push(long);
        }
        corpus.push(vec![38, 0, 0, 1]);
        corpus.push(vec![39, 0, 0, 0, 1]);
        let mut bad_mask =
            Message::Start { q: 0.3, mask: SubspaceMask::full(2).unwrap(), counted: true }
                .encode()
                .to_vec();
        bad_mask[9..].fill(0); // the empty subspace is no subspace
        corpus.push(bad_mask);
        for (i, frame) in corpus.iter().enumerate() {
            assert!(
                Message::decode_slice(frame).is_none(),
                "start corpus entry {i} must reject: {frame:?}"
            );
        }
    }

    /// `n` container headers of one kind around an `Ack`, built without
    /// recursion: `Tagged` and `AggBroadcast` wrap the rest of the frame,
    /// `AggScatter` and `AggReplies` length-prefix a one-entry body.
    fn nested_frame(tag: u8, n: usize) -> Vec<u8> {
        let header = if tag == 31 { 14 } else { 13 };
        let mut frame = Vec::new();
        for level in 0..n {
            // Bytes of everything inside this level's header (only the
            // length-prefixed kinds read it).
            let inner = (n - level - 1) * header + 1;
            frame.push(tag);
            match tag {
                crate::wire::TAG_TAGGED => frame.extend_from_slice(&7u64.to_be_bytes()),
                29 => frame.extend_from_slice(&0u32.to_be_bytes()),
                30 => {
                    for word in [1u32, 0] {
                        frame.extend_from_slice(&word.to_be_bytes());
                    }
                    frame.extend_from_slice(&(inner as u32).to_be_bytes());
                }
                31 => {
                    for word in [1u32, 0] {
                        frame.extend_from_slice(&word.to_be_bytes());
                    }
                    frame.push(0);
                    frame.extend_from_slice(&(inner as u32).to_be_bytes());
                }
                _ => unreachable!("not a chainable container"),
            }
        }
        frame.push(9);
        frame
    }

    /// Containers nest at most `MAX_NESTING` deep: a chain at the limit
    /// decodes, one more level does not. Hostile chains far deeper — 64 KiB
    /// of `Draw` or `Drawn` tags, thousands of `Tagged` or aggregate
    /// headers — decode to `None` on a 2 MiB thread, the stack a
    /// `tcp::spawn_site` site serves on, instead of overflowing it.
    #[test]
    fn malformed_deep_nesting_decodes_to_none_on_a_site_sized_stack() {
        let check = || {
            for tag in [crate::wire::TAG_TAGGED, 29, 30, 31] {
                if tag != 29 && tag != crate::wire::TAG_TAGGED {
                    // Per-entry containers carry an exact length; check it.
                    assert!(Message::decode_slice(&nested_frame(tag, 2)).is_some(), "tag {tag}");
                }
                assert!(Message::decode_slice(&nested_frame(tag, MAX_NESTING)).is_some());
                assert!(Message::decode_slice(&nested_frame(tag, MAX_NESTING + 1)).is_none());
                let deep = nested_frame(tag, 5_000);
                assert!(deep.len() >= 5_000 * 5, "tag {tag}");
                assert!(Message::decode_slice(&deep).is_none(), "tag {tag}");
            }
            for tag in [
                crate::wire::TAG_DRAW,
                crate::wire::TAG_DRAW_DEFERRED,
                crate::wire::TAG_DRAWN_EXHAUSTED,
            ] {
                assert!(Message::decode_slice(&vec![tag; 64 << 10]).is_none(), "tag {tag}");
            }
            // A draw whose flush is itself a draw is rejected by its tag.
            let flush = Message::FeedbackBatch(vec![sample_tuple_msg()]).encode();
            let mut draw = vec![crate::wire::TAG_DRAW; 2];
            draw.extend_from_slice(&flush);
            assert!(Message::decode_slice(&draw).is_none());
            assert!(Message::decode_slice(&draw[1..]).is_some());
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(check)
            .expect("test thread starts")
            .join()
            .expect("no frame overflows the stack");
    }

    #[test]
    fn tuple_msg_roundtrips_to_uncertain_tuple() {
        let msg = sample_tuple_msg();
        let t = msg.to_tuple();
        assert_eq!(t.id(), TupleId::new(3, 17));
        assert_eq!(t.values(), &[6.0, 6.5, 7.0]);
        assert_eq!(t.prob().get(), 0.7);
    }
}
