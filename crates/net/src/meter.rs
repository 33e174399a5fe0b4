//! Bandwidth accounting (the paper's Section 3.2 cost measure).
//!
//! The paper charges a distributed algorithm by the tuples it transmits;
//! [`BandwidthMeter`] keeps message / tuple / byte counters per
//! [`TrafficClass`] so uploads, feedback, replies, control traffic, and
//! update maintenance can be reported separately (Figs. 8–11, 14). Every
//! [`crate::Link`] records both directions of each exchange here. The
//! meter is also the single chokepoint through which all traffic flows,
//! so it forwards the same observations to an optional
//! [`dsud_obs::Recorder`] for structured run reports.

use std::sync::Arc;

use dsud_obs::{Counter, Recorder};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::{Message, TrafficClass};

/// Message / tuple / byte counters for one traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Number of messages observed.
    pub messages: u64,
    /// Number of tuples carried (the paper's bandwidth unit).
    pub tuples: u64,
    /// Number of wire-encoded bytes.
    pub bytes: u64,
}

impl Counters {
    fn add(&mut self, other: &Counters) {
        self.messages += other.messages;
        self.tuples += other.tuples;
        self.bytes += other.bytes;
    }
}

/// Immutable snapshot of a [`BandwidthMeter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeterSnapshot {
    /// Representative uploads (site → H).
    pub upload: Counters,
    /// Candidate broadcasts (H → sites).
    pub feedback: Counters,
    /// Scalar survival replies (site → H).
    pub reply: Counters,
    /// Control traffic.
    pub control: Counters,
    /// Update-maintenance traffic.
    pub maintenance: Counters,
    /// Simulation scaffolding (injected updates); excluded from network
    /// cost models.
    pub scaffold: Counters,
}

impl MeterSnapshot {
    /// Sum over all *network* traffic classes (scaffolding excluded).
    pub fn total(&self) -> Counters {
        let mut acc = Counters::default();
        for c in [&self.upload, &self.feedback, &self.reply, &self.control, &self.maintenance] {
            acc.add(c);
        }
        acc
    }

    /// The paper's bandwidth measure: total tuples transmitted over the
    /// network (uploads + feedback broadcasts + maintenance payloads).
    pub fn tuples_transmitted(&self) -> u64 {
        self.upload.tuples + self.feedback.tuples + self.maintenance.tuples
    }

    /// Difference of two snapshots, component-wise (`self − earlier`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not an earlier snapshot of
    /// the same meter (counters would underflow).
    pub fn since(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
        fn sub(a: &Counters, b: &Counters) -> Counters {
            Counters {
                messages: a.messages - b.messages,
                tuples: a.tuples - b.tuples,
                bytes: a.bytes - b.bytes,
            }
        }
        MeterSnapshot {
            upload: sub(&self.upload, &earlier.upload),
            feedback: sub(&self.feedback, &earlier.feedback),
            reply: sub(&self.reply, &earlier.reply),
            control: sub(&self.control, &earlier.control),
            maintenance: sub(&self.maintenance, &earlier.maintenance),
            scaffold: sub(&self.scaffold, &earlier.scaffold),
        }
    }
}

/// Shared bandwidth accounting for a whole distributed run.
///
/// Cloning is cheap and produces a handle onto the same counters; every
/// [`crate::Link`] is given one at construction and records each request
/// and response as it crosses the (simulated) wire.
#[derive(Debug, Clone, Default)]
pub struct BandwidthMeter {
    inner: Arc<Mutex<MeterSnapshot>>,
    recorder: Recorder,
}

impl BandwidthMeter {
    /// Creates a fresh meter with zeroed counters and no recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fresh meter that forwards every observation to the given
    /// [`Recorder`] (in addition to its own per-class counters).
    pub fn with_recorder(recorder: Recorder) -> Self {
        BandwidthMeter { inner: Arc::default(), recorder }
    }

    /// The recorder this meter forwards to (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Records one message crossing the wire.
    pub fn record(&self, msg: &Message) {
        let class = msg.class();
        let tuples = msg.tuple_count();
        let bytes = msg.encoded_len() as u64;
        {
            let mut inner = self.inner.lock();
            let slot = match class {
                TrafficClass::Upload => &mut inner.upload,
                TrafficClass::Feedback => &mut inner.feedback,
                TrafficClass::Reply => &mut inner.reply,
                TrafficClass::Control => &mut inner.control,
                TrafficClass::Maintenance => &mut inner.maintenance,
                TrafficClass::Scaffold => &mut inner.scaffold,
            };
            slot.messages += 1;
            slot.tuples += tuples;
            slot.bytes += bytes;
        }
        // Scaffold traffic (simulation-injected updates) is excluded from
        // the network cost model, and therefore from run reports too.
        if self.recorder.is_enabled() && class != TrafficClass::Scaffold {
            self.recorder.incr(Counter::Messages);
            self.recorder.add(Counter::BytesSent, bytes);
            if matches!(
                class,
                TrafficClass::Upload | TrafficClass::Feedback | TrafficClass::Maintenance
            ) {
                self.recorder.add(Counter::TuplesShipped, tuples);
            }
            // Columnar frames also report how many bytes the layout saved
            // versus their row-oriented legacy twin. Saturating: tiny frames
            // where the columnar header premium outweighs the per-row saving
            // contribute 0, never an underflow.
            if let Some(legacy) = msg.legacy_encoded_len() {
                self.recorder.incr(Counter::ColumnarFrames);
                self.recorder.add(Counter::BytesSaved, (legacy as u64).saturating_sub(bytes));
            }
        }
    }

    /// Takes a snapshot of the current counters.
    pub fn snapshot(&self) -> MeterSnapshot {
        *self.inner.lock()
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        *self.inner.lock() = MeterSnapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsud_uncertain::{Probability, TupleId, UncertainTuple};

    use crate::TupleMsg;

    fn sample_msg() -> Message {
        let t =
            UncertainTuple::new(TupleId::new(0, 1), vec![1.0, 2.0], Probability::new(0.5).unwrap())
                .unwrap();
        Message::Feedback(TupleMsg::new(&t, 0.5))
    }

    fn tuple_msg(seq: u64, x: f64) -> TupleMsg {
        let t =
            UncertainTuple::new(TupleId::new(0, seq), vec![x, 2.0], Probability::new(0.5).unwrap())
                .unwrap();
        TupleMsg::new(&t, 0.25)
    }

    #[test]
    fn batched_frame_meters_one_message_with_actual_encoded_length() {
        // A coalesced FeedbackBatch is one frame on the wire: the meter must
        // count it as a single message whose bytes equal the real encoded
        // length, while still attributing every carried tuple.
        let tuples: Vec<TupleMsg> = (0..7)
            .map(|i| {
                let t = UncertainTuple::new(
                    TupleId::new(0, i),
                    vec![1.0 + i as f64, 2.0],
                    Probability::new(0.5).unwrap(),
                )
                .unwrap();
                TupleMsg::new(&t, 0.25)
            })
            .collect();
        let msg = Message::FeedbackBatch(tuples);
        let meter = BandwidthMeter::new();
        meter.record(&msg);
        let snap = meter.snapshot();
        assert_eq!(snap.feedback.messages, 1);
        assert_eq!(snap.feedback.tuples, 7);
        assert_eq!(snap.feedback.bytes, msg.encode().len() as u64);
        let reply = Message::SurvivalBatchReply { survivals: vec![0.5; 7], pruned: 3 };
        meter.record(&reply);
        let snap = meter.snapshot();
        assert_eq!(snap.reply.messages, 1);
        assert_eq!(snap.reply.bytes, reply.encode().len() as u64);
    }

    /// The retired plan-phase frames mirror the coalesced-frame contract
    /// above: one control message per sketch frame at its exact encoded
    /// length, with zero tuples, bare or `Tagged`-wrapped.
    #[test]
    fn sketch_frame_meters_one_control_message_with_exact_bytes() {
        let meter = BandwidthMeter::new();
        let request = Message::SketchRequest;
        meter.record(&request);
        let mut sketch = dsud_sketch::SiteSketch::default();
        for i in 0..9u64 {
            sketch.record(i, 0.1 + 0.08 * i as f64);
        }
        let frame = Message::Sketch(Box::new(sketch));
        meter.record(&frame);
        let snap = meter.snapshot();
        assert_eq!(snap.control.messages, 2, "request + reply, both control class");
        assert_eq!(snap.control.tuples, 0, "sketches carry no tuples in the paper's unit");
        assert_eq!(snap.control.bytes, (request.encode().len() + frame.encode().len()) as u64);

        // The session layer's Tagged wrapper adds exactly its 9-byte
        // header, still one control message.
        let before = snap.control.bytes;
        let tagged = Message::Tagged { query_id: 4, inner: Box::new(frame.clone()) };
        meter.record(&tagged);
        let snap = meter.snapshot();
        assert_eq!(snap.control.messages, 3);
        assert_eq!(snap.control.tuples, 0);
        assert_eq!(snap.control.bytes - before, frame.encode().len() as u64 + 9);
    }

    #[test]
    fn columnar_frame_meters_one_message_with_exact_length_and_savings() {
        // A columnar FeedbackBatchC is still one frame / n tuples, with
        // bytes equal to its real encoded length — and the recorder learns
        // how many bytes the layout saved over the legacy row encoding.
        let tuples: Vec<TupleMsg> = (0..16)
            .map(|i| {
                let t = UncertainTuple::new(
                    TupleId::new(0, i),
                    vec![1.0 + i as f64, 2.0],
                    Probability::new(0.5).unwrap(),
                )
                .unwrap();
                TupleMsg::new(&t, 0.25)
            })
            .collect();
        let legacy = Message::FeedbackBatch(tuples.clone());
        let columnar = Message::FeedbackBatchC(crate::TupleBlock::from_msgs(&tuples));
        let rec = Recorder::enabled();
        let meter = BandwidthMeter::with_recorder(rec.clone());
        meter.record(&columnar);
        let snap = meter.snapshot();
        assert_eq!(snap.feedback.messages, 1);
        assert_eq!(snap.feedback.tuples, 16);
        assert_eq!(snap.feedback.bytes, columnar.encode().len() as u64);
        assert_eq!(rec.counter(Counter::ColumnarFrames), 1);
        assert_eq!(
            rec.counter(Counter::BytesSaved),
            (legacy.encode().len() - columnar.encode().len()) as u64
        );
        // Legacy frames never touch the columnar counters.
        meter.record(&legacy);
        assert_eq!(rec.counter(Counter::ColumnarFrames), 1);
        // The columnar survival reply is a few bytes *larger* than its
        // legacy twin (header premium); savings saturate at zero.
        let saved = rec.counter(Counter::BytesSaved);
        meter.record(&Message::SurvivalBatchReplyC { survivals: vec![0.5; 16], pruned: 3 });
        assert_eq!(rec.counter(Counter::ColumnarFrames), 2);
        assert_eq!(rec.counter(Counter::BytesSaved), saved);
    }

    /// A draw — feedback flush and refill in one frame — meters as one
    /// feedback message carrying the flush's tuples; its reply as one
    /// upload message carrying the representative, or nothing once the
    /// site is exhausted. The paper's tuple measure matches the two
    /// separate requests it replaces.
    #[test]
    fn draw_meters_one_message_each_way_with_the_separate_requests_tuples() {
        let flush = Message::FeedbackBatch(vec![tuple_msg(0, 1.0); 5]);
        let draw = Message::Draw(Box::new(flush.clone()));
        let meter = BandwidthMeter::new();
        meter.record(&draw);
        let snap = meter.snapshot();
        assert_eq!((snap.feedback.messages, snap.feedback.tuples), (1, 5));
        assert_eq!(snap.feedback.bytes, draw.encode().len() as u64);
        assert_eq!(snap.control.messages, 0, "the refill request rides free");

        let survivals =
            || Box::new(Message::SurvivalBatchReply { survivals: vec![0.5; 5], pruned: 2 });
        for (next, tuples) in [(Some(tuple_msg(1, 0.5)), 1), (None, 0)] {
            let meter = BandwidthMeter::new();
            let drained = next.is_none();
            let drawn = Message::Drawn { survivals: survivals(), next, drained };
            meter.record(&drawn);
            let snap = meter.snapshot();
            assert_eq!((snap.upload.messages, snap.upload.tuples), (1, tuples));
            assert_eq!(snap.upload.bytes, drawn.encode().len() as u64);
            assert_eq!(snap.reply.messages, 0, "the survival reply rides free");
        }

        // The same exchange as two requests and two replies: same tuples.
        let split = BandwidthMeter::new();
        for msg in
            [flush, Message::RequestNext, *survivals(), Message::Upload(Some(tuple_msg(1, 0.5)))]
        {
            split.record(&msg);
        }
        let merged = BandwidthMeter::new();
        merged.record(&draw);
        merged.record(&Message::Drawn {
            survivals: survivals(),
            next: Some(tuple_msg(1, 0.5)),
            drained: false,
        });
        let (split, merged) = (split.snapshot(), merged.snapshot());
        assert_eq!(merged.tuples_transmitted(), split.tuples_transmitted());
        assert_eq!(merged.total().bytes, split.total().bytes);
        assert_eq!((merged.total().messages, split.total().messages), (2, 4));
    }

    /// A counted start and its `Started` reply meter exactly as the plain
    /// start and the `Upload` they replace: one control message with no
    /// tuples out, one upload message back carrying the representative or
    /// nothing — only the reply's 4-byte count is extra.
    #[test]
    fn started_meters_as_the_upload_it_replaces() {
        let mask = dsud_uncertain::SubspaceMask::full(2).unwrap();
        for next in [Some(tuple_msg(1, 0.5)), None] {
            let plain = BandwidthMeter::new();
            plain.record(&Message::Start { q: 0.3, mask, counted: false });
            plain.record(&Message::Upload(next.clone()));
            let counted = BandwidthMeter::new();
            counted.record(&Message::Start { q: 0.3, mask, counted: true });
            counted.record(&Message::Started { pending: 12, next });
            let (plain, counted) = (plain.snapshot(), counted.snapshot());
            assert_eq!(counted.control, plain.control);
            assert_eq!(counted.upload.messages, plain.upload.messages);
            assert_eq!(counted.upload.tuples, plain.upload.tuples);
            assert_eq!(counted.upload.bytes, plain.upload.bytes + 4);
            assert_eq!(counted.tuples_transmitted(), plain.tuples_transmitted());
        }
    }

    #[test]
    fn records_by_class() {
        let meter = BandwidthMeter::new();
        meter.record(&sample_msg());
        meter.record(&Message::SurvivalReply { survival: 0.9, pruned: 1 });
        meter.record(&Message::RequestNext);
        let snap = meter.snapshot();
        assert_eq!(snap.feedback.messages, 1);
        assert_eq!(snap.feedback.tuples, 1);
        assert!(snap.feedback.bytes > 0);
        assert_eq!(snap.reply.messages, 1);
        assert_eq!(snap.reply.tuples, 0);
        assert_eq!(snap.control.messages, 1);
        assert_eq!(snap.total().messages, 3);
        assert_eq!(snap.tuples_transmitted(), 1);
    }

    #[test]
    fn clones_share_counters() {
        let meter = BandwidthMeter::new();
        let clone = meter.clone();
        clone.record(&sample_msg());
        assert_eq!(meter.snapshot().feedback.messages, 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let meter = BandwidthMeter::new();
        meter.record(&sample_msg());
        meter.reset();
        assert_eq!(meter.snapshot(), MeterSnapshot::default());
    }

    #[test]
    fn forwards_to_recorder() {
        let rec = Recorder::enabled();
        let meter = BandwidthMeter::with_recorder(rec.clone());
        meter.record(&sample_msg()); // feedback: one tuple payload
        meter.record(&Message::RequestNext); // control: no payload
        assert_eq!(rec.counter(Counter::Messages), 2);
        assert_eq!(rec.counter(Counter::TuplesShipped), 1);
        assert!(rec.counter(Counter::BytesSent) > 0);
        assert!(meter.recorder().is_enabled());
        assert!(!BandwidthMeter::new().recorder().is_enabled());
    }

    #[test]
    fn since_computes_deltas() {
        let meter = BandwidthMeter::new();
        meter.record(&sample_msg());
        let mid = meter.snapshot();
        meter.record(&sample_msg());
        meter.record(&sample_msg());
        let end = meter.snapshot();
        let delta = end.since(&mid);
        assert_eq!(delta.feedback.messages, 2);
        assert_eq!(delta.feedback.tuples, 2);
    }
}
