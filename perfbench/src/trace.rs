//! Benchmark-side tracing: a timing [`Link`] wrapper, spans kept in the
//! benchmark's own memory, and replay of the captured frames through the
//! public wire codec.
//!
//! Nothing here touches the program's recorder: spans carry their own
//! query id, site and parent, so concurrent link calls never share a span
//! stack.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::BytesMut;
use dsud_core::{Link, LinkError, Ticket};
use dsud_net::Message;

use crate::stats::union_len;

/// Which request a link call carried, as the coordinator issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Start,
    Feedback,
    Refill,
    Sketch,
    Other,
}

impl Kind {
    fn of(msg: &Message) -> Kind {
        match msg {
            Message::Start { .. } => Kind::Start,
            Message::Feedback(_) | Message::FeedbackBatch(_) | Message::FeedbackBatchC(_) => {
                Kind::Feedback
            }
            Message::RequestNext => Kind::Refill,
            Message::SketchRequest => Kind::Sketch,
            Message::Tagged { inner, .. } | Message::AggBroadcast { inner, .. } => Kind::of(inner),
            Message::AggScatter { parts } => {
                parts.first().map_or(Kind::Other, |(_, m)| Kind::of(m))
            }
            _ => Kind::Other,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Start => "start",
            Kind::Feedback => "feedback",
            Kind::Refill => "refill",
            Kind::Sketch => "sketch",
            Kind::Other => "other",
        }
    }
}

/// Which link method a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Send,
    Complete,
    Call,
    Reconnect,
}

/// One timed interval. Query spans have no parent; link spans name the
/// query span they ran under.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: Option<Op>,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub query: u64,
    pub parent: Option<u64>,
    pub site: Option<u32>,
}

#[derive(Debug, Default)]
struct LinkBuf {
    spans: Vec<Span>,
    frames: Vec<Message>,
}

/// Shared state of one traced phase: the clock, the current query id, and
/// one buffer per wrapped link.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    query: Arc<AtomicU64>,
    bufs: Arc<Mutex<Vec<Arc<Mutex<LinkBuf>>>>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            query: Arc::new(AtomicU64::new(0)),
            bufs: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next query: returns its id, which later link spans carry.
    pub fn begin_query(&self) -> u64 {
        self.query.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Wraps a link; `site` is the physical link index.
    pub fn wrap(&self, inner: Box<dyn Link>, site: u32) -> Box<dyn Link> {
        let buf = Arc::new(Mutex::new(LinkBuf::default()));
        self.bufs.lock().expect("tracer lock poisoned").push(Arc::clone(&buf));
        Box::new(TimedLink { inner, site, tracer: self.clone(), buf, inflight: VecDeque::new() })
    }

    /// Takes every span and captured frame recorded since the last drain.
    pub fn drain(&self) -> (Vec<Span>, Vec<Message>) {
        let mut spans = Vec::new();
        let mut frames = Vec::new();
        for buf in self.bufs.lock().expect("tracer lock poisoned").iter() {
            let mut b = buf.lock().expect("link buffer poisoned");
            spans.append(&mut b.spans);
            frames.append(&mut b.frames);
        }
        (spans, frames)
    }
}

/// Forwards every call unchanged, timing it and keeping a copy of each
/// request and reply frame for codec replay.
struct TimedLink {
    inner: Box<dyn Link>,
    site: u32,
    tracer: Tracer,
    buf: Arc<Mutex<LinkBuf>>,
    /// Kinds of the requests in flight, in send order (tickets complete in
    /// send order, so the front is always the one being completed).
    inflight: VecDeque<Kind>,
}

impl TimedLink {
    fn record(&self, op: Op, kind: Kind, start_ns: u64, frames: Vec<Message>) {
        let end_ns = self.tracer.now_ns();
        let query = self.tracer.query.load(Ordering::SeqCst);
        let mut buf = self.buf.lock().expect("link buffer poisoned");
        buf.spans.push(Span {
            name: kind.name(),
            op: Some(op),
            kind,
            start_ns,
            end_ns,
            query,
            parent: Some(query),
            site: Some(self.site),
        });
        buf.frames.extend(frames);
    }
}

impl Link for TimedLink {
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError> {
        let kind = Kind::of(&msg);
        let copy = msg.clone();
        let t0 = self.tracer.now_ns();
        let result = self.inner.send(msg);
        if result.is_ok() {
            self.inflight.push_back(kind);
        }
        self.record(Op::Send, kind, t0, vec![copy]);
        result
    }

    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError> {
        let kind = self.inflight.pop_front().unwrap_or(Kind::Other);
        let t0 = self.tracer.now_ns();
        let result = self.inner.complete(ticket);
        let reply = result.as_ref().map(|m| vec![m.clone()]).unwrap_or_default();
        self.record(Op::Complete, kind, t0, reply);
        result
    }

    fn call(&mut self, msg: Message) -> Result<Message, LinkError> {
        let kind = Kind::of(&msg);
        let mut frames = vec![msg.clone()];
        let t0 = self.tracer.now_ns();
        let result = self.inner.call(msg);
        if let Ok(reply) = &result {
            frames.push(reply.clone());
        }
        self.record(Op::Call, kind, t0, frames);
        result
    }

    fn reconnect(&mut self) -> Result<(), LinkError> {
        self.inflight.clear();
        let t0 = self.tracer.now_ns();
        let result = self.inner.reconnect();
        self.record(Op::Reconnect, Kind::Other, t0, Vec::new());
        result
    }
}

/// Layer numbers of one traced query.
#[derive(Debug, Default, Clone)]
pub struct QueryLayers {
    pub wall_ms: f64,
    pub link_busy_ms: f64,
    pub complete_wait_ms: f64,
    pub calls: u64,
    pub start_ms: f64,
    pub feedback_ms: f64,
    pub refill_ms: f64,
    pub sketch_ms: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub frames: u64,
    pub frame_bytes: u64,
    pub codec_mismatches: u64,
}

impl QueryLayers {
    /// Coordinator self time: wall time not covered by any link call.
    pub fn coord_self_ms(&self) -> f64 {
        (self.wall_ms - self.link_busy_ms).max(0.0)
    }
}

/// Splits one query's link spans by request kind and replays its frames
/// through `Message::encode_into` / `Message::decode_slice`.
pub fn summarize(spans: &[Span], frames: &[Message], wall_ns: u64) -> QueryLayers {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = QueryLayers { wall_ms: ms(wall_ns), ..QueryLayers::default() };
    let mut intervals = Vec::with_capacity(spans.len());
    for s in spans {
        let d = s.end_ns - s.start_ns;
        intervals.push((s.start_ns, s.end_ns));
        match s.op {
            Some(Op::Send) | Some(Op::Call) => out.calls += 1,
            Some(Op::Complete) => out.complete_wait_ms += ms(d),
            _ => {}
        }
        match s.kind {
            Kind::Start => out.start_ms += ms(d),
            Kind::Feedback => out.feedback_ms += ms(d),
            Kind::Refill => out.refill_ms += ms(d),
            Kind::Sketch => out.sketch_ms += ms(d),
            Kind::Other => {}
        }
    }
    out.link_busy_ms = ms(union_len(&mut intervals));

    let mut bufs: Vec<BytesMut> =
        frames.iter().map(|m| BytesMut::with_capacity(m.encoded_len())).collect();
    let t0 = Instant::now();
    for (m, buf) in frames.iter().zip(bufs.iter_mut()) {
        m.encode_into(buf);
    }
    out.encode_us = t0.elapsed().as_nanos() as f64 / 1e3;
    let t1 = Instant::now();
    let decoded: Vec<Option<Message>> =
        bufs.iter().map(|b| Message::decode_slice(std::hint::black_box(b))).collect();
    out.decode_us = t1.elapsed().as_nanos() as f64 / 1e3;
    out.frames = frames.len() as u64;
    out.frame_bytes = bufs.iter().map(|b| b.len() as u64).sum();
    out.codec_mismatches =
        frames.iter().zip(&decoded).filter(|(m, d)| d.as_ref() != Some(*m)).count() as u64;
    out
}

/// Writes spans as JSON lines (times in microseconds from the phase
/// start).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let op = match s.op {
            Some(Op::Send) => "\"send\"",
            Some(Op::Complete) => "\"complete\"",
            Some(Op::Call) => "\"call\"",
            Some(Op::Reconnect) => "\"reconnect\"",
            None => "null",
        };
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{op},\"start_us\":{:.3},\"end_us\":{:.3},\"query\":{},\
             \"parent\":{},\"site\":{}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.query,
            opt(s.parent),
            opt(s.site.map(u64::from)),
        )?;
    }
    out.flush()
}
