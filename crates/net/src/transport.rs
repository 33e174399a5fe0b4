//! Server-to-site transports: the [`Service`] trait a site implements and
//! the metered [`Link`] request/reply channel the coordinator talks through,
//! with in-process and per-site-thread implementations. Every call is
//! recorded on the shared [`BandwidthMeter`], so algorithm code never
//! touches traffic accounting.
//!
//! Failure is a value here, not a panic: every link operation returns
//! `Result<_, LinkError>`, the threaded and TCP transports enforce real
//! request deadlines from a [`LinkConfig`], and the
//! [`RetryLink`](crate::RetryLink) wrapper turns transient faults into
//! deterministic retries.

use std::collections::VecDeque;
use std::fmt;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use serde::{Deserialize, Serialize};

use crate::{BandwidthMeter, Message};

/// Why a link operation failed.
///
/// Transport failures are ordinary values: coordinators decide whether to
/// retry ([`RetryLink`](crate::RetryLink)), quarantine the site (degraded
/// mode), or abort the query (strict mode). The `Io` payload is the error's
/// rendered text rather than an [`std::io::Error`] so the type stays
/// cloneable, comparable, and serializable into run outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkError {
    /// No reply arrived within the configured request deadline.
    Timeout,
    /// The connection or site thread is gone.
    Disconnected,
    /// A frame could not be decoded (on either side of the link).
    Malformed,
    /// Any other socket-level failure, with the rendered I/O error.
    Io(String),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Timeout => write!(f, "request deadline elapsed"),
            LinkError::Disconnected => write!(f, "site disconnected"),
            LinkError::Malformed => write!(f, "malformed frame"),
            LinkError::Io(detail) => write!(f, "i/o error: {detail}"),
        }
    }
}

impl std::error::Error for LinkError {}

impl From<std::io::Error> for LinkError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => LinkError::Timeout,
            std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotConnected => LinkError::Disconnected,
            _ => LinkError::Io(e.to_string()),
        }
    }
}

/// Per-link failure-handling knobs: the request deadline and the retry
/// policy a [`RetryLink`](crate::RetryLink) applies on top of it.
///
/// Backoff is deterministic — the pause before retry `k` (1-based) is
/// `backoff * k`, a pure function of the attempt index with no wall-clock
/// randomness, so fault schedules replay identically across runs, pool
/// sizes, and transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// How long a single request may wait for its reply.
    pub request_timeout: Duration,
    /// How many *re*-attempts a [`RetryLink`](crate::RetryLink) makes after
    /// the first failure before giving up (0 = fail fast).
    pub retry_budget: u32,
    /// Base backoff unit; retry `k` sleeps `backoff * k`.
    pub backoff: Duration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            // Generous enough that a loaded CI machine never trips it on a
            // healthy site; a dead site still fails in bounded time.
            request_timeout: Duration::from_secs(10),
            retry_budget: 2,
            backoff: Duration::from_millis(10),
        }
    }
}

impl LinkConfig {
    /// The deterministic pause before retry `attempt` (1-based): linear
    /// backoff `backoff * attempt`.
    pub fn backoff_step(&self, attempt: u32) -> Duration {
        self.backoff.saturating_mul(attempt)
    }
}

/// A site-side protocol endpoint: consumes one request, produces one reply.
///
/// `dsud-core`'s local sites implement this trait; the transports below
/// decide whether the service runs inline or on its own thread.
pub trait Service: Send {
    /// Handles one request and produces the reply.
    fn handle(&mut self, msg: Message) -> Message;

    /// Handles one *encoded* request frame, writing the encoded reply into
    /// `out` (cleared first).
    ///
    /// This is the entry point the framed transports (channel worker, TCP
    /// serve loops) drive, so a service that understands the columnar wire
    /// layout can answer a bulk frame directly from its borrowed bytes —
    /// no intermediate [`Message`] materialization — and encode the reply
    /// straight into the transport's reusable buffer. The default decodes,
    /// dispatches to [`Service::handle`], and re-encodes; a frame that does
    /// not decode must not kill the site, so it answers with
    /// [`Message::DecodeError`] and keeps serving.
    fn handle_frame(&mut self, frame: &[u8], out: &mut bytes::BytesMut) {
        let reply = match Message::decode_slice(frame) {
            Some(msg) => self.handle(msg),
            None => Message::DecodeError,
        };
        reply.encode_into(out);
    }
}

impl<F> Service for F
where
    F: FnMut(Message) -> Message + Send,
{
    fn handle(&mut self, msg: Message) -> Message {
        self(msg)
    }
}

/// Receipt for a request put in flight with [`Link::send`], redeemed for
/// its reply with [`Link::complete`].
///
/// Tickets are per-link sequence numbers: the `k`-th successful `send` on a
/// link returns ticket `k`, and tickets must be completed in send order
/// (the transports assert this — completing out of order would pair replies
/// with the wrong requests on an in-order wire). A ticket is consumed by
/// `complete` whether the reply arrives intact or not, and every
/// outstanding ticket is invalidated by [`Link::reconnect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket(u64);

/// Per-link FIFO ticket bookkeeping shared by the transport
/// implementations: issues sequence-numbered tickets and asserts they are
/// redeemed in send order.
#[derive(Debug, Default)]
pub(crate) struct TicketLedger {
    issued: u64,
    redeemed: u64,
}

impl TicketLedger {
    pub(crate) fn issue(&mut self) -> Ticket {
        let t = Ticket(self.issued);
        self.issued += 1;
        t
    }

    pub(crate) fn redeem(&mut self, ticket: Ticket) {
        assert!(
            ticket.0 == self.redeemed && ticket.0 < self.issued,
            "tickets must be completed in send order"
        );
        self.redeemed += 1;
    }

    /// Requests sent but not yet completed.
    pub(crate) fn outstanding(&self) -> u64 {
        self.issued - self.redeemed
    }

    /// Abandons every outstanding ticket (they will no longer redeem).
    pub(crate) fn reset(&mut self) {
        self.redeemed = self.issued;
    }
}

/// A metered request/response channel from the central server to one site.
///
/// All implementations record every request and reply on the shared
/// [`BandwidthMeter`], so algorithm code never touches accounting.
///
/// The API is split-phase: [`Link::send`] puts a request in flight and
/// returns a [`Ticket`]; [`Link::complete`] redeems the ticket for the
/// reply. A coordinator can therefore keep several requests outstanding
/// per link — a survival scatter for round `r` plus the refill for round
/// `r+1` — and the threaded and TCP transports then genuinely overlap the
/// site computations. [`Link::call`] is the trivial send-then-complete
/// composition for the synchronous case. Requests travel an in-order wire,
/// so tickets must be completed in per-link send order (implementations
/// assert this).
///
/// Transport failures — deadlines, disconnects, undecodable frames — are
/// returned as [`LinkError`] values, never panics: a dead site must not
/// take the coordinator down with it.
///
/// Links are `Send` so [`broadcast`] and [`scatter`] can drive them from
/// the coordinator's chunked fan-out: at most pool-size threads, each
/// sending on its chunk of links before completing them, never one thread
/// per link.
pub trait Link: Send {
    /// Dispatches a request without waiting for the reply.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] when the request cannot be sent. A failed
    /// `send` issues no ticket and leaves nothing outstanding.
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError>;

    /// Redeems a ticket for the reply to its request.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] when the reply does not arrive intact within
    /// the deadline. The ticket is consumed either way.
    ///
    /// # Panics
    ///
    /// Implementations panic when tickets are completed out of send order
    /// or a ticket is redeemed twice (a coordinator bug, not a runtime
    /// condition).
    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError>;

    /// Sends a request to the site and waits for its reply: the trivial
    /// [`Link::send`] / [`Link::complete`] composition.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] when the transport fails.
    fn call(&mut self, msg: Message) -> Result<Message, LinkError> {
        let ticket = self.send(msg)?;
        self.complete(ticket)
    }

    /// Attempts to re-establish the underlying transport after a failure.
    /// Every outstanding ticket is abandoned: its reply will never be
    /// redeemable, and redeeming it panics.
    ///
    /// The default is a no-op `Ok(())` for transports with nothing to
    /// re-establish (inline links). [`TcpLink`](crate::tcp::TcpLink)
    /// re-dials its stored address; [`ChannelLink`] reports
    /// [`LinkError::Disconnected`] if its worker thread is gone (a thread
    /// cannot be respawned from here).
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] when the transport cannot be restored.
    fn reconnect(&mut self) -> Result<(), LinkError> {
        Ok(())
    }
}

impl<L: Link + ?Sized> Link for Box<L> {
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError> {
        (**self).send(msg)
    }

    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError> {
        (**self).complete(ticket)
    }

    fn call(&mut self, msg: Message) -> Result<Message, LinkError> {
        (**self).call(msg)
    }

    fn reconnect(&mut self) -> Result<(), LinkError> {
        (**self).reconnect()
    }
}

/// Puts `msg` in flight on every link selected by `include`, then collects
/// the replies in link order.
///
/// The selected links are split into at most
/// [`threadpool::pool_size`] contiguous chunks ([`threadpool::map_chunks`]:
/// the caller's thread drives the first, one scoped thread each of the
/// rest). Within a chunk every link is sent to first and then completed
/// in order, so transports that are concurrent by construction (channel,
/// TCP, served links) have every request in flight at once, while inline
/// transports — whose [`Link::send`] computes eagerly on the driving
/// thread — still run up to pool-size sites in parallel. No thread is
/// spawned per link. A pool of one is a single chunk on the caller's
/// thread: the sequential fallback is the same code path.
///
/// The reply vector is ordered by link index, a failed send reports its
/// error in reply position, and each reply is produced by the same
/// per-site computation, so results — including which links failed, and
/// how — are identical for every pool size.
pub fn broadcast<F>(
    links: &mut [Box<dyn Link>],
    include: F,
    msg: &Message,
) -> Vec<(usize, Result<Message, LinkError>)>
where
    F: Fn(usize) -> bool,
{
    let selected: Vec<(usize, &Message, &mut Box<dyn Link>)> = links
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| include(*i))
        .map(|(i, link)| (i, msg, link))
        .collect();
    fan_out(selected, Message::clone)
}

/// Sends a *different* message to each listed link concurrently and
/// collects the replies in request order.
///
/// This is the fan-out primitive behind batched feedback delivery: at the
/// end of a batched round the coordinator sends each site its own
/// coalesced [`Message::FeedbackBatch`] frame, so the per-site payloads
/// differ but the round still completes in one parallel wave. It runs on
/// the same chunked send-all/complete-all path as [`broadcast`], so reply
/// ordering, error placement, and pool-size invariance are identical.
///
/// # Panics
///
/// Panics if two requests name the same link index — each link carries at
/// most one outstanding request.
pub fn scatter(
    links: &mut [Box<dyn Link>],
    requests: Vec<(usize, Message)>,
) -> Vec<(usize, Result<Message, LinkError>)> {
    let mut wanted: Vec<Option<Message>> = (0..links.len()).map(|_| None).collect();
    for (i, msg) in requests {
        assert!(wanted[i].replace(msg).is_none(), "duplicate scatter target {i}");
    }
    let selected: Vec<(usize, Message, &mut Box<dyn Link>)> = links
        .iter_mut()
        .enumerate()
        .filter_map(|(i, link)| wanted[i].take().map(|msg| (i, msg, link)))
        .collect();
    fan_out(selected, |msg| msg)
}

/// The chunked fan-out behind [`broadcast`] and [`scatter`]: per chunk,
/// send on every link (turning each payload into its request with
/// `request`, on the chunk's own thread), then complete them in order.
fn fan_out<P, M>(
    selected: Vec<(usize, P, &mut Box<dyn Link>)>,
    request: M,
) -> Vec<(usize, Result<Message, LinkError>)>
where
    P: Send,
    M: Fn(P) -> Message + Sync,
{
    threadpool::map_chunks(selected, |_, chunk| {
        let sent: Vec<_> = chunk
            .into_iter()
            .map(|(i, payload, link)| {
                let ticket = link.send(request(payload));
                (i, ticket, link)
            })
            .collect();
        sent.into_iter()
            .map(|(i, ticket, link)| (i, ticket.and_then(|t| link.complete(t))))
            .collect()
    })
}

/// Decodes a reply frame on the coordinator side, charging the wall-clock
/// cost to [`dsud_obs::Counter::DecodeNs`] when a recorder is attached.
///
/// Only the off-thread transports (channel, TCP) pass through here — the
/// inline transport hands the reply over as a value and never decodes, so
/// its runs honestly report `decode_ns == 0`.
pub(crate) fn decode_reply_timed(meter: &BandwidthMeter, frame: &[u8]) -> Option<Message> {
    let recorder = meter.recorder();
    if !recorder.is_enabled() {
        return Message::decode_slice(frame);
    }
    let started = std::time::Instant::now();
    let decoded = Message::decode_slice(frame);
    recorder.add(dsud_obs::Counter::DecodeNs, started.elapsed().as_nanos() as u64);
    decoded
}

/// Deterministic in-process transport: the service runs inline on the
/// caller's stack. Used by tests and the benchmark harness, where
/// reproducibility matters more than concurrency.
pub struct LocalLink<S> {
    service: S,
    meter: BandwidthMeter,
    /// Eagerly computed replies awaiting completion, in send order.
    replies: VecDeque<Message>,
    tickets: TicketLedger,
}

impl<S: Service> LocalLink<S> {
    /// Wraps a service with metering.
    pub fn new(service: S, meter: BandwidthMeter) -> Self {
        LocalLink { service, meter, replies: VecDeque::new(), tickets: TicketLedger::default() }
    }

    /// Consumes the link, returning the wrapped service.
    pub fn into_inner(self) -> S {
        self.service
    }
}

impl<S: Service> Link for LocalLink<S> {
    // The inline transport has no concurrency to exploit: `send` computes
    // eagerly and buffers the reply until its ticket is redeemed. The reply
    // is metered when it is redeemed, as the threaded and TCP links meter
    // it, so progress watermarks of overlapped rounds are the same on every
    // transport.
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError> {
        self.meter.record(&msg);
        let reply = self.service.handle(msg);
        self.replies.push_back(reply);
        Ok(self.tickets.issue())
    }

    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError> {
        self.tickets.redeem(ticket);
        let reply = self.replies.pop_front().expect("a redeemed ticket has a buffered reply");
        self.meter.record(&reply);
        Ok(reply)
    }

    fn reconnect(&mut self) -> Result<(), LinkError> {
        self.replies.clear();
        self.tickets.reset();
        Ok(())
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for LocalLink<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalLink").field("service", &self.service).finish_non_exhaustive()
    }
}

/// Threaded transport: the service runs on its own OS thread and exchanges
/// messages over bounded crossbeam channels, like a site across a LAN.
///
/// Messages cross the thread boundary in their binary wire encoding, so the
/// transport exercises the same serialization path a socket would. Each
/// request's [`LinkConfig::request_timeout`] runs from its `send`, and
/// `complete` waits only for what is left of it, so a stalled or dead site
/// thread surfaces as [`LinkError::Timeout`] / [`LinkError::Disconnected`]
/// instead of hanging the coordinator forever — and a chunk with several
/// stalled sites fails after one deadline, not one per site.
#[derive(Debug)]
pub struct ChannelLink {
    tx: Option<Sender<bytes::Bytes>>,
    rx: Receiver<bytes::Bytes>,
    meter: BandwidthMeter,
    config: LinkConfig,
    worker: Option<JoinHandle<()>>,
    tickets: TicketLedger,
    /// Reply deadlines of the outstanding tickets, in send order.
    deadlines: VecDeque<Instant>,
    // Replies owed for requests we timed out on or abandoned at reconnect:
    // they arrive (in order) ahead of the reply to the current request and
    // must be discarded.
    stale_replies: u64,
    // Set once either channel reports the worker gone; `is_finished` alone
    // races against the worker's unwinding.
    dead: bool,
}

/// Capacity of the request and reply channels, and therefore the most
/// requests a [`ChannelLink`] can keep in flight without blocking the
/// sender. The pipelined coordinators keep at most two outstanding per
/// link; [`ChannelLink::send`] asserts the bound so a runaway window shows
/// up as a panic rather than a deadlock.
const CHANNEL_DEPTH: usize = 16;

impl ChannelLink {
    /// Spawns the service on a dedicated thread with the default
    /// [`LinkConfig`].
    pub fn spawn<S: Service + 'static>(service: S, meter: BandwidthMeter) -> Self {
        Self::spawn_with(service, meter, LinkConfig::default())
    }

    /// Spawns the service on a dedicated thread with an explicit deadline
    /// configuration.
    pub fn spawn_with<S: Service + 'static>(
        mut service: S,
        meter: BandwidthMeter,
        config: LinkConfig,
    ) -> Self {
        let (req_tx, req_rx) = bounded::<bytes::Bytes>(CHANNEL_DEPTH);
        let (rep_tx, rep_rx) = bounded::<bytes::Bytes>(CHANNEL_DEPTH);
        let worker = std::thread::spawn(move || {
            // `handle_frame` lets the service answer columnar bulk frames
            // straight from the borrowed request bytes; the encoded reply
            // is then frozen and moved into the channel (the receiver owns
            // it, so the buffer itself cannot be recycled here).
            let mut out = bytes::BytesMut::new();
            while let Ok(frame) = req_rx.recv() {
                service.handle_frame(&frame, &mut out);
                if rep_tx.send(std::mem::take(&mut out).freeze()).is_err() {
                    break;
                }
            }
        });
        ChannelLink {
            tx: Some(req_tx),
            rx: rep_rx,
            meter,
            config,
            worker: Some(worker),
            tickets: TicketLedger::default(),
            deadlines: VecDeque::new(),
            stale_replies: 0,
            dead: false,
        }
    }

    fn recv_reply(&mut self, deadline: Instant) -> Result<bytes::Bytes, LinkError> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let frame = self.rx.recv_timeout(left).map_err(|e| match e {
                RecvTimeoutError::Timeout => {
                    // The reply may still arrive for this request; remember
                    // to discard it before reading any future reply.
                    self.stale_replies += 1;
                    LinkError::Timeout
                }
                RecvTimeoutError::Disconnected => {
                    self.dead = true;
                    LinkError::Disconnected
                }
            })?;
            if self.stale_replies > 0 {
                self.stale_replies -= 1;
                continue;
            }
            return Ok(frame);
        }
    }
}

impl Link for ChannelLink {
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError> {
        assert!(
            self.tickets.outstanding() < CHANNEL_DEPTH as u64,
            "per-link in-flight window exceeds channel depth"
        );
        let tx = self.tx.as_ref().expect("link is open");
        self.meter.record(&msg);
        if tx.send(msg.encode()).is_err() {
            self.dead = true;
            return Err(LinkError::Disconnected);
        }
        self.deadlines.push_back(Instant::now() + self.config.request_timeout);
        Ok(self.tickets.issue())
    }

    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError> {
        self.tickets.redeem(ticket);
        let deadline = self.deadlines.pop_front().expect("a redeemed ticket has a deadline");
        let frame = self.recv_reply(deadline)?;
        let reply = decode_reply_timed(&self.meter, &frame).ok_or(LinkError::Malformed)?;
        if reply == Message::DecodeError {
            // The site could not decode our request; the round-trip failed.
            return Err(LinkError::Malformed);
        }
        self.meter.record(&reply);
        Ok(reply)
    }

    fn reconnect(&mut self) -> Result<(), LinkError> {
        // A worker thread cannot be respawned (the service moved into it);
        // reconnection succeeds exactly when the worker is still serving.
        // Replies to abandoned tickets will still arrive in order and must
        // be discarded ahead of any future reply.
        self.stale_replies += self.tickets.outstanding();
        self.tickets.reset();
        self.deadlines.clear();
        if self.dead || self.worker.as_ref().is_none_or(|h| h.is_finished()) {
            self.dead = true;
            return Err(LinkError::Disconnected);
        }
        Ok(())
    }
}

impl Drop for ChannelLink {
    fn drop(&mut self) {
        // Closing the request channel ends the worker loop.
        self.tx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Fault-injecting wrapper around any [`Link`], for robustness testing.
///
/// After `healthy_calls` successful round-trips the link starts misbehaving
/// according to its [`FaultMode`]. The schedule is a pure function of the
/// per-link attempt count, so the same fault replays identically across
/// pool sizes and transports. Coordinators must surface such faults as
/// typed errors or degraded outcomes instead of panicking or hanging.
#[derive(Debug)]
pub struct FaultyLink<L> {
    inner: L,
    mode: FaultMode,
    healthy_calls: u64,
    calls: u64,
}

/// What a [`FaultyLink`] does once its healthy budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Replies `Ack` to everything — a site that lost its state.
    WrongReply,
    /// Replies with garbage survival values (NaN) — a corrupted computation.
    CorruptSurvival,
    /// Never replies again: every attempt reports [`LinkError::Timeout`]
    /// without reaching the service — a permanently lost request.
    Drop,
    /// Swallows the next `n` attempts as timeouts, then recovers — a
    /// straggler that a retry budget of at least `n` rides out with the
    /// exact healthy-run answer (the service never sees the swallowed
    /// attempts, so its state is untouched).
    Stall(u64),
    /// The connection is gone for good: every attempt reports
    /// [`LinkError::Disconnected`] without reaching the service.
    Disconnect,
}

impl<L: Link> FaultyLink<L> {
    /// Wraps `inner`, letting `healthy_calls` round-trips through before
    /// faulting with `mode`.
    pub fn new(inner: L, mode: FaultMode, healthy_calls: u64) -> Self {
        FaultyLink { inner, mode, healthy_calls, calls: 0 }
    }

    /// Round-trips attempted so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// `Some(error)` if the current attempt (per `self.calls`, already
    /// incremented) is swallowed by the fault before reaching the inner
    /// link; `None` if the request goes through.
    fn swallowed(&self) -> Option<LinkError> {
        if self.calls <= self.healthy_calls {
            return None;
        }
        match self.mode {
            FaultMode::Drop => Some(LinkError::Timeout),
            FaultMode::Disconnect => Some(LinkError::Disconnected),
            FaultMode::Stall(n) if self.calls <= self.healthy_calls + n => Some(LinkError::Timeout),
            _ => None,
        }
    }

    fn corrupt(&self, reply: Message) -> Message {
        if self.calls <= self.healthy_calls {
            return reply;
        }
        match self.mode {
            FaultMode::WrongReply => Message::Ack,
            FaultMode::CorruptSurvival => match reply {
                Message::SurvivalReply { pruned, .. } => {
                    Message::SurvivalReply { survival: f64::NAN, pruned }
                }
                other => other,
            },
            FaultMode::Drop | FaultMode::Stall(_) | FaultMode::Disconnect => reply,
        }
    }
}

impl<L: Link> Link for FaultyLink<L> {
    // Tickets pass through the inner link untouched: the fault schedule
    // decides at send time (per the attempt counter) whether a request is
    // swallowed, and corrupts the payload at completion time.
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError> {
        self.calls += 1;
        if let Some(e) = self.swallowed() {
            return Err(e);
        }
        // Always drive the inner link, even when the payload is about to be
        // corrupted: faulting and healthy paths must leave the service
        // state and the metering identical.
        self.inner.send(msg)
    }

    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError> {
        let reply = self.inner.complete(ticket)?;
        Ok(self.corrupt(reply))
    }

    fn reconnect(&mut self) -> Result<(), LinkError> {
        self.inner.reconnect()
    }
}

/// What a [`FaultPlan`] window injects.
///
/// The generalization of [`FaultMode`] the chaos harness schedules: each
/// kind is *answer-invariant* — a swallowed attempt never reaches the
/// service, and a slow attempt only adds latency — so a run that rides the
/// faults out (via retries) or quarantines and later resyncs the site must
/// still converge to the exact never-failed answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The attempt is swallowed as [`LinkError::Timeout`] — a stalled site
    /// or a crashed one, depending on the window length vs the retry
    /// budget.
    Timeout,
    /// The attempt is swallowed as [`LinkError::Disconnected`] — the
    /// connection drops.
    Disconnect,
    /// The request frame arrives corrupted: the site answers
    /// `DecodeError`, which the transport surfaces as
    /// [`LinkError::Malformed`] without executing the request.
    Malformed,
    /// The attempt goes through after a deterministic pause of this many
    /// milliseconds — a slow link, never a wrong answer.
    Slow(u64),
}

/// One contiguous fault window of a [`FaultPlan`]: attempts
/// `start ..= start + len - 1` (1-based per-link attempt ordinals) are hit
/// with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// First faulted attempt ordinal (1-based).
    pub start: u64,
    /// Number of consecutive faulted attempts.
    pub len: u64,
    /// What the window injects.
    pub kind: FaultKind,
}

impl FaultWindow {
    fn covers(&self, call: u64) -> bool {
        call >= self.start && call - self.start < self.len
    }
}

/// A deterministic per-link fault schedule, keyed on the attempt ordinal.
///
/// Like [`FaultyLink`], whether an attempt faults is a pure function of
/// the per-link attempt counter — never the wall clock — so the same plan
/// replays the same fault transcript on every transport (inline, threaded,
/// TCP) and every pool size. Retries advance the counter, which is how a
/// finite window "heals": a window longer than the retry budget crashes
/// the site into quarantine, a shorter one is ridden out invisibly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

/// `splitmix64`: the standard 64-bit mixing step used to derive fault
/// schedules from a seed. Small, well-distributed, dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with no faults at all.
    pub fn quiet() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault window (builder style). Overlapping windows resolve to
    /// the earliest-added match.
    pub fn window(mut self, start: u64, len: u64, kind: FaultKind) -> Self {
        self.windows.push(FaultWindow { start, len, kind });
        self
    }

    /// Derives site `site`'s schedule from a shared `seed`.
    ///
    /// Roughly a quarter of the sites stay quiet; the rest get one or two
    /// short windows of a seed-chosen kind starting a few attempts in. The
    /// derivation is a pure function of `(seed, site)`, so one u64
    /// reproduces the whole cluster's chaos on any machine.
    pub fn seeded(seed: u64, site: u32) -> Self {
        let mut state = seed ^ (u64::from(site) + 1).wrapping_mul(0xA24B_AED4_963E_E407);
        let shape = splitmix64(&mut state);
        if shape.is_multiple_of(4) {
            return FaultPlan::quiet();
        }
        let count = 1 + (shape >> 8) % 2;
        let mut plan = FaultPlan::quiet();
        let mut cursor = 2 + splitmix64(&mut state) % 24;
        for _ in 0..count {
            let len = 1 + splitmix64(&mut state) % 4;
            let kind = match splitmix64(&mut state) % 8 {
                0..=2 => FaultKind::Timeout,
                3 | 4 => FaultKind::Disconnect,
                5 => FaultKind::Malformed,
                _ => FaultKind::Slow(1 + splitmix64(&mut state) % 3),
            };
            plan = plan.window(cursor, len, kind);
            cursor += len + 4 + splitmix64(&mut state) % 16;
        }
        plan
    }

    /// Whether any window ever faults.
    pub fn is_quiet(&self) -> bool {
        self.windows.is_empty()
    }

    /// The scheduled windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The fault (if any) scheduled for 1-based attempt ordinal `call`.
    pub fn fault_at(&self, call: u64) -> Option<FaultKind> {
        self.windows.iter().find(|w| w.covers(call)).map(|w| w.kind)
    }
}

/// Fault-injecting wrapper driven by a [`FaultPlan`] — the chaos harness's
/// generalization of [`FaultyLink`].
///
/// Sits *under* a [`RetryLink`](crate::RetryLink) in the stack
/// (`RetryLink<ChaosLink<transport>>`): the retry layer's attempts advance
/// the plan's ordinal clock, so short windows are absorbed by the budget
/// and long ones surface as quarantines — deterministically, on every
/// transport and pool size.
#[derive(Debug)]
pub struct ChaosLink<L> {
    inner: L,
    plan: FaultPlan,
    calls: u64,
}

impl<L: Link> ChaosLink<L> {
    /// Wraps `inner` under the given schedule.
    pub fn new(inner: L, plan: FaultPlan) -> Self {
        ChaosLink { inner, plan, calls: 0 }
    }

    /// Attempts made so far (the plan's ordinal clock).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The schedule this link replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<L: Link> Link for ChaosLink<L> {
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError> {
        self.calls += 1;
        match self.plan.fault_at(self.calls) {
            // Swallowed attempts never reach the service: its state and the
            // metering stay exactly what a healthy run would leave, which
            // is what makes post-recovery bit-identity possible.
            Some(FaultKind::Timeout) => Err(LinkError::Timeout),
            Some(FaultKind::Disconnect) => Err(LinkError::Disconnected),
            Some(FaultKind::Malformed) => Err(LinkError::Malformed),
            Some(FaultKind::Slow(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.send(msg)
            }
            None => self.inner.send(msg),
        }
    }

    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError> {
        self.inner.complete(ticket)
    }

    fn reconnect(&mut self) -> Result<(), LinkError> {
        self.inner.reconnect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::TupleMsg;
    use dsud_uncertain::{Probability, TupleId, UncertainTuple};

    fn echo_service() -> impl Service {
        |msg: Message| match msg {
            Message::RequestNext => Message::Upload(None),
            Message::Feedback(t) => Message::SurvivalReply { survival: t.local_prob, pruned: 0 },
            _ => Message::Ack,
        }
    }

    fn feedback_msg(local_prob: f64) -> Message {
        let t =
            UncertainTuple::new(TupleId::new(0, 0), vec![1.0, 1.0], Probability::new(0.5).unwrap())
                .unwrap();
        Message::Feedback(TupleMsg::new(&t, local_prob))
    }

    /// Runs `f` at pool size `n`, serialized against every other test in
    /// this crate that overrides the pool.
    pub(crate) fn with_pool<R>(n: usize, f: impl FnOnce() -> R) -> R {
        static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                threadpool::set_pool_size(0);
            }
        }
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _reset = Reset;
        threadpool::set_pool_size(n);
        f()
    }

    fn short_deadline() -> LinkConfig {
        LinkConfig {
            request_timeout: Duration::from_millis(50),
            retry_budget: 2,
            backoff: Duration::ZERO,
        }
    }

    #[test]
    fn local_link_meters_both_directions() {
        let meter = BandwidthMeter::new();
        let mut link = LocalLink::new(echo_service(), meter.clone());
        let ticket = link.send(feedback_msg(0.25)).unwrap();
        assert_eq!(meter.snapshot().reply.messages, 0, "a reply is metered when redeemed");
        let reply = link.complete(ticket).unwrap();
        assert_eq!(reply, Message::SurvivalReply { survival: 0.25, pruned: 0 });
        let snap = meter.snapshot();
        assert_eq!(snap.feedback.messages, 1);
        assert_eq!(snap.reply.messages, 1);
        assert_eq!(snap.tuples_transmitted(), 1);
    }

    #[test]
    fn channel_link_round_trips() {
        let meter = BandwidthMeter::new();
        let mut link = ChannelLink::spawn(echo_service(), meter.clone());
        for i in 0..10 {
            let reply = link.call(feedback_msg(i as f64 / 100.0)).unwrap();
            assert_eq!(reply, Message::SurvivalReply { survival: i as f64 / 100.0, pruned: 0 });
        }
        assert_eq!(meter.snapshot().feedback.messages, 10);
        drop(link); // must join cleanly
    }

    #[test]
    fn channel_and_local_links_meter_identically() {
        let meter_a = BandwidthMeter::new();
        let meter_b = BandwidthMeter::new();
        let mut local = LocalLink::new(echo_service(), meter_a.clone());
        let mut channel = ChannelLink::spawn(echo_service(), meter_b.clone());
        for _ in 0..5 {
            local.call(Message::RequestNext).unwrap();
            channel.call(Message::RequestNext).unwrap();
        }
        assert_eq!(meter_a.snapshot(), meter_b.snapshot());
    }

    #[test]
    fn channel_link_times_out_on_stalled_site_and_drains_stale_reply() {
        let sleepy = |msg: Message| {
            if matches!(msg, Message::RequestNext) {
                std::thread::sleep(Duration::from_millis(200));
            }
            match msg {
                Message::Feedback(t) => {
                    Message::SurvivalReply { survival: t.local_prob, pruned: 0 }
                }
                _ => Message::Ack,
            }
        };
        let meter = BandwidthMeter::new();
        let mut link = ChannelLink::spawn_with(sleepy, meter, short_deadline());
        // The slow request misses its 50 ms deadline.
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout));
        // The next request must get *its own* reply, not the stale reply to
        // the timed-out request that is still in flight.
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(
            link.call(feedback_msg(0.75)),
            Ok(Message::SurvivalReply { survival: 0.75, pruned: 0 })
        );
    }

    #[test]
    fn channel_link_reports_dead_worker_as_disconnected() {
        let meter = BandwidthMeter::new();
        let mut link = ChannelLink::spawn_with(
            |_msg: Message| -> Message { panic!("injected site crash (expected in fault tests)") },
            meter,
            short_deadline(),
        );
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Disconnected));
        assert_eq!(link.reconnect(), Err(LinkError::Disconnected));
        // Subsequent calls keep failing cleanly instead of panicking.
        assert!(link.call(Message::RequestNext).is_err());
    }

    #[test]
    fn channel_link_maps_decode_error_reply_to_malformed() {
        let meter = BandwidthMeter::new();
        let mut link = ChannelLink::spawn(|_msg: Message| Message::DecodeError, meter.clone());
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Malformed));
        // A decode-error reply is a transport failure, not protocol traffic.
        assert_eq!(meter.snapshot().reply.messages, 0);
        // The worker is still alive: the fault is per-request.
        assert!(link.reconnect().is_ok());
    }

    #[test]
    fn link_error_classifies_io_errors() {
        use std::io::{Error as IoError, ErrorKind};
        assert_eq!(LinkError::from(IoError::from(ErrorKind::TimedOut)), LinkError::Timeout);
        assert_eq!(LinkError::from(IoError::from(ErrorKind::WouldBlock)), LinkError::Timeout);
        assert_eq!(
            LinkError::from(IoError::from(ErrorKind::ConnectionReset)),
            LinkError::Disconnected
        );
        assert_eq!(
            LinkError::from(IoError::from(ErrorKind::UnexpectedEof)),
            LinkError::Disconnected
        );
        assert!(matches!(LinkError::from(IoError::other("disk on fire")), LinkError::Io(_)));
    }

    #[test]
    fn backoff_steps_are_deterministic_and_linear() {
        let config = LinkConfig {
            request_timeout: Duration::from_secs(1),
            retry_budget: 3,
            backoff: Duration::from_millis(10),
        };
        assert_eq!(config.backoff_step(1), Duration::from_millis(10));
        assert_eq!(config.backoff_step(2), Duration::from_millis(20));
        assert_eq!(config.backoff_step(3), Duration::from_millis(30));
        // Re-computing gives the same schedule: no randomness involved.
        assert_eq!(config.backoff_step(2), config.backoff_step(2));
    }

    #[test]
    fn faulty_link_misbehaves_on_schedule() {
        let meter = BandwidthMeter::new();
        let inner = LocalLink::new(echo_service(), meter);
        let mut link = FaultyLink::new(inner, FaultMode::WrongReply, 2);
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Ack));
        assert_eq!(link.calls(), 3);
    }

    #[test]
    fn wrong_reply_drives_inner_service_on_both_paths() {
        // The call path and the send/complete path must leave identical
        // service state and metering even while faulting.
        let run = |split: bool| {
            let meter = BandwidthMeter::new();
            let mut seen = 0u64;
            let service = move |_msg: Message| {
                seen += 1;
                Message::SurvivalReply { survival: seen as f64, pruned: 0 }
            };
            let mut link =
                FaultyLink::new(LocalLink::new(service, meter.clone()), FaultMode::WrongReply, 1);
            for _ in 0..3 {
                if split {
                    let ticket = link.send(Message::RequestNext).unwrap();
                    link.complete(ticket).unwrap();
                } else {
                    link.call(Message::RequestNext).unwrap();
                }
            }
            meter.snapshot()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn corrupt_survival_produces_nan() {
        let meter = BandwidthMeter::new();
        let inner = LocalLink::new(echo_service(), meter);
        let mut link = FaultyLink::new(inner, FaultMode::CorruptSurvival, 0);
        match link.call(feedback_msg(0.5)).unwrap() {
            Message::SurvivalReply { survival, .. } => assert!(survival.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drop_and_disconnect_faults_never_reach_the_service() {
        for (mode, expected) in [
            (FaultMode::Drop, LinkError::Timeout),
            (FaultMode::Disconnect, LinkError::Disconnected),
        ] {
            let meter = BandwidthMeter::new();
            let inner = LocalLink::new(echo_service(), meter.clone());
            let mut link = FaultyLink::new(inner, mode, 1);
            assert!(link.call(Message::RequestNext).is_ok());
            assert_eq!(link.call(Message::RequestNext), Err(expected.clone()));
            assert_eq!(link.call(Message::RequestNext), Err(expected));
            // Only the healthy round-trip was metered.
            assert_eq!(meter.snapshot().control.messages, 1);
        }
    }

    #[test]
    fn stall_fault_recovers_after_n_attempts() {
        let meter = BandwidthMeter::new();
        let inner = LocalLink::new(echo_service(), meter);
        let mut link = FaultyLink::new(inner, FaultMode::Stall(2), 1);
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout));
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout));
        // Attempt n+1 goes through with the service state untouched.
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
    }

    #[test]
    fn seeded_fault_plans_are_deterministic_and_vary_by_site() {
        for site in 0..16u32 {
            assert_eq!(
                FaultPlan::seeded(42, site),
                FaultPlan::seeded(42, site),
                "same (seed, site) must derive the same plan"
            );
        }
        // Across a spread of sites the seed must produce both quiet and
        // faulted schedules, and at least two distinct faulted ones.
        let plans: Vec<FaultPlan> = (0..16).map(|s| FaultPlan::seeded(42, s)).collect();
        assert!(plans.iter().any(FaultPlan::is_quiet), "some site stays quiet");
        let faulted: Vec<&FaultPlan> = plans.iter().filter(|p| !p.is_quiet()).collect();
        assert!(faulted.len() >= 2, "some sites must fault");
        assert!(faulted.windows(2).any(|w| w[0] != w[1]), "schedules must differ across sites");
        // A different seed reshuffles the schedules.
        assert!((0..16).any(|s| FaultPlan::seeded(42, s) != FaultPlan::seeded(43, s)));
    }

    #[test]
    fn chaos_link_faults_on_schedule_and_heals() {
        let meter = BandwidthMeter::new();
        let plan = FaultPlan::quiet()
            .window(2, 2, FaultKind::Timeout)
            .window(5, 1, FaultKind::Disconnect)
            .window(7, 1, FaultKind::Malformed);
        let mut link = ChaosLink::new(LocalLink::new(echo_service(), meter.clone()), plan);
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None))); // 1
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout)); // 2
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout)); // 3
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None))); // 4
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Disconnected)); // 5
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None))); // 6
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Malformed)); // 7
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None))); // 8
                                                                                // Swallowed attempts never reached the service or the meter.
        assert_eq!(meter.snapshot().control.messages, 4);
        assert_eq!(link.calls(), 8);
    }

    #[test]
    fn slow_windows_never_change_the_answer() {
        let plan = FaultPlan::quiet().window(1, 3, FaultKind::Slow(1));
        let meter = BandwidthMeter::new();
        let mut link = ChaosLink::new(LocalLink::new(echo_service(), meter.clone()), plan);
        for _ in 0..4 {
            assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        }
        assert_eq!(meter.snapshot().control.messages, 4);
    }

    #[test]
    fn broadcast_overlaps_slow_sites() {
        // Each site sleeps 30 ms per request; a parallel broadcast to 8
        // sites must take far less than the 240 ms a sequential fan-out
        // would need.
        let slow_service = || {
            |msg: Message| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                match msg {
                    Message::Feedback(t) => {
                        Message::SurvivalReply { survival: t.local_prob, pruned: 0 }
                    }
                    _ => Message::Ack,
                }
            }
        };
        let meter = BandwidthMeter::new();
        let mut links: Vec<Box<dyn Link>> = (0..8)
            .map(|_| Box::new(ChannelLink::spawn(slow_service(), meter.clone())) as _)
            .collect();
        let started = std::time::Instant::now();
        let replies = broadcast(&mut links, |_| true, &feedback_msg(0.5));
        let elapsed = started.elapsed();
        assert_eq!(replies.len(), 8);
        for (_, reply) in &replies {
            assert!(matches!(reply, Ok(Message::SurvivalReply { .. })));
        }
        assert!(
            elapsed < std::time::Duration::from_millis(150),
            "broadcast took {elapsed:?}, expected parallel overlap"
        );
    }

    /// Stateful inline links for the pool-invariance tests: each reply
    /// depends on how many requests the site has seen, so any reordering
    /// or dropped call changes the transcript. Site 3 drops (times out)
    /// and site 5 disconnects from their second request on, so at pools 2
    /// and 3 a failing link sits in the middle of a chunk.
    fn counting_links(sites: u64) -> Vec<Box<dyn Link>> {
        let meter = BandwidthMeter::new();
        (0..sites)
            .map(|site| {
                let mut seen = 0u64;
                let service = move |_msg: Message| {
                    seen += 1;
                    Message::SurvivalReply { survival: (site * 100 + seen) as f64, pruned: 0 }
                };
                let local = LocalLink::new(service, meter.clone());
                match site {
                    3 => Box::new(FaultyLink::new(local, FaultMode::Drop, 1)) as _,
                    5 => Box::new(FaultyLink::new(local, FaultMode::Disconnect, 1)) as _,
                    _ => Box::new(FaultyLink::new(local, FaultMode::Stall(0), u64::MAX)) as _,
                }
            })
            .collect()
    }

    type Round = Vec<(usize, Result<Message, LinkError>)>;

    /// Three rounds of broadcasts and scatters over fresh counting links.
    fn fan_out_transcript(pool: usize) -> Vec<Round> {
        with_pool(pool, || {
            let mut links = counting_links(8);
            let mut rounds = Vec::new();
            for _ in 0..3 {
                rounds.push(broadcast(&mut links, |i| i != 1, &Message::RequestNext));
                rounds.push(scatter(
                    &mut links,
                    vec![(5, feedback_msg(0.5)), (0, feedback_msg(0.1)), (3, feedback_msg(0.3))],
                ));
            }
            rounds
        })
    }

    #[test]
    fn broadcast_replies_are_pool_size_invariant() {
        let reference = fan_out_transcript(1);
        let errors: Vec<&LinkError> =
            reference.iter().flatten().filter_map(|(_, r)| r.as_ref().err()).collect();
        assert!(errors.contains(&&LinkError::Timeout), "the drop fault must fire");
        assert!(errors.contains(&&LinkError::Disconnected), "the disconnect fault must fire");
        for pool in [2usize, 3, 8] {
            assert_eq!(fan_out_transcript(pool), reference, "pool {pool}");
        }
    }

    /// `broadcast` and `scatter` never touch more threads than the pool
    /// holds, the caller's included: no thread per link.
    #[test]
    fn fan_out_stays_within_the_thread_budget() {
        use std::collections::HashSet;
        use std::sync::{Arc, Mutex};
        for pool in [1usize, 2, 3, 8] {
            let seen = Arc::new(Mutex::new(HashSet::new()));
            let meter = BandwidthMeter::new();
            let mut links: Vec<Box<dyn Link>> = (0..16)
                .map(|_| {
                    let seen = Arc::clone(&seen);
                    let service = move |_msg: Message| {
                        seen.lock().unwrap().insert(std::thread::current().id());
                        Message::Ack
                    };
                    Box::new(LocalLink::new(service, meter.clone())) as _
                })
                .collect();
            // Scoped workers are fresh threads on every call, so each call
            // is counted on its own.
            let check = |call: &str| {
                let mut seen = seen.lock().unwrap();
                assert!(seen.len() <= pool, "{call} at pool {pool} touched {} threads", seen.len());
                assert!(seen.contains(&std::thread::current().id()), "{call} at pool {pool}");
                seen.clear();
            };
            with_pool(pool, || {
                assert_eq!(broadcast(&mut links, |_| true, &Message::RequestNext).len(), 16);
                check("broadcast");
                let requests = (0..16).map(|i| (i, Message::RequestNext)).collect();
                assert_eq!(scatter(&mut links, requests).len(), 16);
                check("scatter");
            });
        }
    }

    /// Deadlines run from `send`: a chunk whose two sites both stall
    /// fails after one deadline, not one per site.
    #[test]
    fn stalled_sites_in_one_chunk_share_one_deadline() {
        let stalled = || {
            |_msg: Message| {
                std::thread::sleep(Duration::from_millis(400));
                Message::Ack
            }
        };
        let meter = BandwidthMeter::new();
        let config = LinkConfig { request_timeout: Duration::from_millis(100), ..short_deadline() };
        let mut links: Vec<Box<dyn Link>> = (0..2)
            .map(|_| Box::new(ChannelLink::spawn_with(stalled(), meter.clone(), config)) as _)
            .collect();
        let started = Instant::now();
        let replies = with_pool(1, || broadcast(&mut links, |_| true, &Message::RequestNext));
        let elapsed = started.elapsed();
        assert_eq!(replies, vec![(0, Err(LinkError::Timeout)), (1, Err(LinkError::Timeout))]);
        assert!(elapsed < 2 * config.request_timeout, "two stalled sites took {elapsed:?}");
    }

    #[test]
    fn broadcast_respects_include_filter() {
        let meter = BandwidthMeter::new();
        let mut links: Vec<Box<dyn Link>> =
            (0..4).map(|_| Box::new(LocalLink::new(echo_service(), meter.clone())) as _).collect();
        let replies = broadcast(&mut links, |i| i != 2, &Message::RequestNext);
        let indices: Vec<usize> = replies.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 1, 3]);
    }

    #[test]
    fn scatter_sends_distinct_payloads_and_orders_replies() {
        let meter = BandwidthMeter::new();
        let mut links: Vec<Box<dyn Link>> =
            (0..4).map(|_| Box::new(LocalLink::new(echo_service(), meter.clone())) as _).collect();
        // Skip site 1; sites get different feedback payloads, echoed back as
        // the survival so each reply proves which payload its site received.
        let replies = scatter(
            &mut links,
            vec![(3, feedback_msg(0.3)), (0, feedback_msg(0.9)), (2, feedback_msg(0.6))],
        );
        assert_eq!(
            replies,
            vec![
                (0, Ok(Message::SurvivalReply { survival: 0.9, pruned: 0 })),
                (2, Ok(Message::SurvivalReply { survival: 0.6, pruned: 0 })),
                (3, Ok(Message::SurvivalReply { survival: 0.3, pruned: 0 })),
            ]
        );
    }

    #[test]
    fn scatter_replies_are_pool_size_invariant() {
        let requests =
            || vec![(0, feedback_msg(0.1)), (3, feedback_msg(0.2)), (4, feedback_msg(0.4))];
        let transcript = |pool| {
            with_pool(pool, || {
                let mut links = counting_links(5);
                (0..3).map(|_| scatter(&mut links, requests())).collect::<Vec<_>>()
            })
        };
        let reference = transcript(1);
        assert!(reference.iter().flatten().any(|(_, r)| r.is_err()), "fault must fire");
        for pool in [2usize, 3, 8] {
            assert_eq!(transcript(pool), reference, "pool {pool}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate scatter target")]
    fn scatter_rejects_duplicate_targets() {
        let meter = BandwidthMeter::new();
        let mut links: Vec<Box<dyn Link>> =
            (0..2).map(|_| Box::new(LocalLink::new(echo_service(), meter.clone())) as _).collect();
        let _ = scatter(&mut links, vec![(1, Message::RequestNext), (1, Message::RequestNext)]);
    }

    #[test]
    #[should_panic(expected = "tickets must be completed in send order")]
    fn out_of_order_completion_panics() {
        let meter = BandwidthMeter::new();
        let mut link = LocalLink::new(echo_service(), meter);
        let _first = link.send(Message::RequestNext).unwrap();
        let second = link.send(Message::RequestNext).unwrap();
        let _ = link.complete(second);
    }

    #[test]
    #[should_panic(expected = "tickets must be completed in send order")]
    fn double_completion_panics() {
        let meter = BandwidthMeter::new();
        let mut link = LocalLink::new(echo_service(), meter);
        let ticket = link.send(Message::RequestNext).unwrap();
        link.complete(ticket).unwrap();
        let _ = link.complete(ticket);
    }

    /// The pipelined coordinators keep two requests in flight per link;
    /// every transport must pair each ticket with the reply to *its own*
    /// request, in send order.
    #[test]
    fn multiple_outstanding_requests_complete_in_send_order() {
        let stateful = || {
            let mut seen = 0u64;
            move |_msg: Message| {
                seen += 1;
                Message::SurvivalReply { survival: seen as f64, pruned: 0 }
            }
        };
        let meter = BandwidthMeter::new();
        let mut links: Vec<Box<dyn Link>> = vec![
            Box::new(LocalLink::new(stateful(), meter.clone())),
            Box::new(ChannelLink::spawn(stateful(), meter.clone())),
        ];
        for link in &mut links {
            let tickets: Vec<Ticket> =
                (0..3).map(|_| link.send(Message::RequestNext).unwrap()).collect();
            for (k, ticket) in tickets.into_iter().enumerate() {
                assert_eq!(
                    link.complete(ticket),
                    Ok(Message::SurvivalReply { survival: (k + 1) as f64, pruned: 0 })
                );
            }
        }
    }

    /// Reconnecting abandons outstanding tickets: their replies are
    /// discarded, and the next round-trip gets its own reply.
    #[test]
    fn channel_reconnect_discards_abandoned_replies() {
        let stateful = {
            let mut seen = 0u64;
            move |_msg: Message| {
                seen += 1;
                Message::SurvivalReply { survival: seen as f64, pruned: 0 }
            }
        };
        let meter = BandwidthMeter::new();
        let mut link = ChannelLink::spawn(stateful, meter);
        let _abandoned = link.send(Message::RequestNext).unwrap();
        link.reconnect().unwrap();
        // The reply to the abandoned request (survival 1.0) is skipped.
        assert_eq!(
            link.call(Message::RequestNext),
            Ok(Message::SurvivalReply { survival: 2.0, pruned: 0 })
        );
    }

    #[test]
    fn many_concurrent_sites() {
        let meter = BandwidthMeter::new();
        let mut links: Vec<ChannelLink> =
            (0..32).map(|_| ChannelLink::spawn(echo_service(), meter.clone())).collect();
        for link in &mut links {
            assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        }
        assert_eq!(meter.snapshot().control.messages, 32);
        assert_eq!(meter.snapshot().upload.messages, 32);
    }
}
