//! Session-layer transport pieces for the long-lived `dsud serve` daemon:
//! query-id multiplexing over shared site links and the client-facing
//! accept loop.
//!
//! A one-shot run owns its links outright; a server cannot, because many
//! concurrent queries talk to the *same* resident sites. Two types bridge
//! the gap:
//!
//! * [`MuxLink`] — a [`Link`] that a single query owns privately, backed by
//!   a [`SharedLink`] (one transport to one site) that every concurrent
//!   query shares. Each request is wrapped in [`Message::Tagged`] with the
//!   query's id. The wire itself carries no reply correlation, and needs
//!   none: a site serves each connection strictly in order, so the `k`-th
//!   reply on a wire answers its `k`-th frame. The shared link is
//!   pipelined: [`SharedLink::send`] writes a frame under a short lock and
//!   returns a sequence number; [`SharedLink::complete`] reads replies in
//!   wire order, parking other queries' replies until their owners
//!   collect them. Concurrent queries therefore overlap at a site, and a
//!   query's round has every site's frame in flight at once — with no
//!   reader thread and no thread per exchange. Coordinators drive a
//!   `MuxLink` exactly as they drive a `LocalLink`, so the session layer
//!   reuses the one-shot protocol code unchanged — the property the
//!   bit-identity tests pin.
//! * [`QueryServer`] — the accept loop clients connect to: one OS thread
//!   per client, newline-delimited requests of at most
//!   [`MAX_REQUEST_LINE`] bytes handed to a per-connection
//!   [`ClientHandler`], cooperative shutdown either from the owner
//!   ([`QueryServer::shutdown`]) or from a client
//!   ([`ClientControl::Shutdown`]).
//!
//! Bandwidth accounting stays honest in both aggregates: the shared inner
//! link meters the tagged frames (server-wide totals, id header included),
//! while the `MuxLink` meters the untagged request and reply on its own
//! per-query meter — byte-for-byte what the same query would have metered
//! as a one-shot run.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::transport::TicketLedger;
use crate::{BandwidthMeter, Link, LinkError, Message, Ticket};

/// Most frames a [`SharedLink`] keeps on its wire at once; a send at the
/// cap first settles the oldest frame. Below the channel transport's
/// queue depth, so a shared channel link can never overrun it, and small
/// enough that a socket's buffers absorb a full window.
const WINDOW: usize = 8;

/// A transport to one site, shared by every concurrent query of a session
/// server, with several tagged frames in flight at once.
///
/// The site answers in wire order, so the link tracks its in-flight frames
/// as a FIFO of `(sequence number, inner ticket)` pairs. Completing one
/// frame reads the replies ahead of it off the wire and parks them, keyed
/// by sequence number, until their owners collect them. Every operation
/// holds the lock only for its own work, and no code path holds two
/// shared links' locks at once.
#[derive(Clone)]
pub struct SharedLink {
    wire: Arc<Mutex<Wire>>,
}

/// The state behind a [`SharedLink`]'s lock.
struct Wire {
    link: Box<dyn Link>,
    next_seq: u64,
    /// Frames sent but not yet answered, oldest first.
    in_flight: VecDeque<(u64, Ticket)>,
    /// Replies (or errors) read for frames whose owner has not collected
    /// them yet.
    parked: HashMap<u64, Result<Message, LinkError>>,
}

impl Wire {
    /// Reads the oldest in-flight frame's reply and parks it.
    fn settle_oldest(&mut self) {
        if let Some((seq, ticket)) = self.in_flight.pop_front() {
            let reply = self.link.complete(ticket);
            self.parked.insert(seq, reply);
        }
    }
}

/// Wraps an owned link for sharing across concurrent queries.
pub fn share(link: Box<dyn Link>) -> SharedLink {
    SharedLink {
        wire: Arc::new(Mutex::new(Wire {
            link,
            next_seq: 0,
            in_flight: VecDeque::new(),
            parked: HashMap::new(),
        })),
    }
}

impl SharedLink {
    /// Puts a frame on the wire and returns its sequence number, to be
    /// redeemed exactly once with [`SharedLink::complete`]. At the window
    /// cap the oldest frame is settled first.
    ///
    /// # Errors
    ///
    /// Returns the transport's error when the frame cannot be sent; no
    /// sequence number is issued then.
    pub fn send(&self, msg: Message) -> Result<u64, LinkError> {
        let mut wire = self.wire.lock();
        while wire.in_flight.len() >= WINDOW {
            wire.settle_oldest();
        }
        let ticket = wire.link.send(msg)?;
        let seq = wire.next_seq;
        wire.next_seq += 1;
        wire.in_flight.push_back((seq, ticket));
        Ok(seq)
    }

    /// Redeems a sequence number for its reply, reading (and parking)
    /// earlier frames' replies off the wire until its own arrives.
    ///
    /// # Errors
    ///
    /// Returns the transport's error for this frame.
    ///
    /// # Panics
    ///
    /// Panics when `seq` was never issued or was already redeemed.
    pub fn complete(&self, seq: u64) -> Result<Message, LinkError> {
        let mut wire = self.wire.lock();
        loop {
            if let Some(reply) = wire.parked.remove(&seq) {
                return reply;
            }
            let (next, ticket) =
                wire.in_flight.pop_front().expect("sequence number is in flight or parked");
            let reply = wire.link.complete(ticket);
            if next == seq {
                return reply;
            }
            wire.parked.insert(next, reply);
        }
    }

    /// Sends a frame and waits for its reply.
    ///
    /// # Errors
    ///
    /// Returns the transport's error.
    pub fn call(&self, msg: Message) -> Result<Message, LinkError> {
        let seq = self.send(msg)?;
        self.complete(seq)
    }

    /// Re-establishes the transport. Every in-flight frame is settled
    /// first — its reply or error parked for its owner — so no query loses
    /// a reply to another's reconnect.
    ///
    /// # Errors
    ///
    /// Returns the transport's error when it cannot be restored.
    pub fn reconnect(&self) -> Result<(), LinkError> {
        let mut wire = self.wire.lock();
        while !wire.in_flight.is_empty() {
            wire.settle_oldest();
        }
        wire.link.reconnect()
    }
}

impl std::fmt::Debug for SharedLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let wire = self.wire.lock();
        f.debug_struct("SharedLink")
            .field("in_flight", &wire.in_flight.len())
            .field("parked", &wire.parked.len())
            .finish_non_exhaustive()
    }
}

/// A per-query view of a [`SharedLink`]: tags every outgoing request with
/// the query id (see [`Message::Tagged`]) and keeps the sequence numbers
/// of its own frames on the shared wire.
///
/// The split-phase API is real: `send` only puts the tagged frame on the
/// wire, and `complete` collects its reply, so a broadcast over many sites
/// has all of them working at once. Dropping the link, [`MuxLink::release`]
/// and [`Link::reconnect`] settle its outstanding frames, so no parked
/// reply outlives the query and its `Release` reaches each site after its
/// last frame.
pub struct MuxLink {
    query_id: u64,
    shared: SharedLink,
    /// Per-query meter: records the *untagged* request and reply, so this
    /// query's traffic snapshot is bit-identical to a one-shot run's.
    meter: BandwidthMeter,
    /// Sequence numbers of this query's frames on the shared wire, in send
    /// order.
    in_flight: VecDeque<u64>,
    tickets: TicketLedger,
}

impl MuxLink {
    /// Creates the query-private view `query_id` of a shared site link,
    /// accounting per-query traffic on `meter`.
    pub fn new(query_id: u64, shared: SharedLink, meter: BandwidthMeter) -> Self {
        MuxLink {
            query_id,
            shared,
            meter,
            in_flight: VecDeque::new(),
            tickets: TicketLedger::default(),
        }
    }

    /// Collects and discards the replies to this query's outstanding
    /// frames; their tickets no longer redeem.
    fn settle(&mut self) {
        while let Some(seq) = self.in_flight.pop_front() {
            let _ = self.shared.complete(seq);
        }
        self.tickets.reset();
    }

    /// Tells the site to discard this query's parked cursor state, after
    /// settling the query's outstanding frames.
    ///
    /// Deliberately *not* recorded on the per-query meter: the release
    /// happens after the query's outcome (and its traffic snapshot) is
    /// sealed. The shared inner link still meters it into the server-wide
    /// aggregate.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] when the underlying transport fails.
    pub fn release(&mut self) -> Result<(), LinkError> {
        self.settle();
        let msg = Message::Tagged { query_id: self.query_id, inner: Box::new(Message::Release) };
        self.shared.call(msg).map(|_| ())
    }
}

impl Link for MuxLink {
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError> {
        self.meter.record(&msg);
        let tagged = Message::Tagged { query_id: self.query_id, inner: Box::new(msg) };
        let seq = self.shared.send(tagged)?;
        self.in_flight.push_back(seq);
        Ok(self.tickets.issue())
    }

    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError> {
        self.tickets.redeem(ticket);
        let seq = self.in_flight.pop_front().expect("a redeemed ticket has a frame in flight");
        let reply = self.shared.complete(seq)?;
        self.meter.record(&reply);
        Ok(reply)
    }

    fn reconnect(&mut self) -> Result<(), LinkError> {
        self.settle();
        self.shared.reconnect()
    }
}

impl Drop for MuxLink {
    fn drop(&mut self) {
        self.settle();
    }
}

impl std::fmt::Debug for MuxLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxLink").field("query_id", &self.query_id).finish_non_exhaustive()
    }
}

/// What a [`ClientHandler`] wants done with the connection after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientControl {
    /// Keep reading requests from this client.
    Continue,
    /// Close this connection; the server keeps running.
    Close,
    /// Close this connection and shut the whole server down.
    Shutdown,
}

/// Per-connection request processor for a [`QueryServer`].
///
/// The server reads newline-delimited requests and hands each line to
/// `handle_line` together with the connection's write half; the handler
/// writes any responses (newline-delimited, flushed) and says what to do
/// next. One handler instance serves one connection, so it may carry
/// per-client state.
pub trait ClientHandler: Send {
    /// Processes one request line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when writing a response fails; the server
    /// closes the connection.
    fn handle_line(&mut self, line: &str, out: &mut dyn Write) -> io::Result<ClientControl>;

    /// Answers a request line longer than [`MAX_REQUEST_LINE`] bytes,
    /// which the server refuses to read to its end; the server then closes
    /// the connection.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when writing the answer fails.
    fn refuse_line(&mut self, out: &mut dyn Write) -> io::Result<()>;
}

/// A running client-facing server: loopback listener, one thread per
/// connection, cooperative shutdown.
///
/// Dropping the server shuts it down and joins its threads.
#[derive(Debug)]
pub struct QueryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl QueryServer {
    /// The loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, disconnects idle waits, and joins every thread.
    ///
    /// # Errors
    ///
    /// Returns the listener's accept error if the accept thread died on
    /// one, or an error if it panicked.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop_and_join()
    }

    /// Blocks until the server stops on its own — i.e. until a client
    /// requests [`ClientControl::Shutdown`]. This is what `dsud serve`
    /// parks its main thread on.
    ///
    /// # Errors
    ///
    /// Returns the accept thread's error, if any.
    pub fn wait(mut self) -> io::Result<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        match handle.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("query server thread panicked")),
        }
    }

    fn stop_and_join(&mut self) -> io::Result<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock a pending accept with a throwaway connection; if the
        // thread is already gone this simply fails.
        let _ = TcpStream::connect(self.addr);
        match handle.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("query server thread panicked")),
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

/// Binds a loopback listener on `port` (0 picks an ephemeral port) and
/// spawns the accept loop: each connection gets its own thread and a fresh
/// handler from `factory`.
///
/// # Errors
///
/// Returns the bind error if the port is unavailable.
pub fn spawn_query_server<F, H>(port: u16, factory: F) -> io::Result<QueryServer>
where
    F: Fn() -> H + Send + 'static,
    H: ClientHandler + 'static,
{
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = Arc::clone(&stop);
    let handle = std::thread::Builder::new().name("dsud-query-server".into()).spawn(
        move || -> io::Result<()> {
            let mut clients: Vec<JoinHandle<()>> = Vec::new();
            loop {
                if stop_accept.load(Ordering::SeqCst) {
                    break;
                }
                let (stream, _) = listener.accept()?;
                if stop_accept.load(Ordering::SeqCst) {
                    break; // the throwaway unblock connection
                }
                let mut handler = factory();
                let stop_client = Arc::clone(&stop_accept);
                let client = std::thread::Builder::new()
                    .name("dsud-client".into())
                    .spawn(move || serve_client(stream, &mut handler, &stop_client, addr))?;
                clients.push(client);
                // Reap finished client threads so a long-lived daemon does
                // not accumulate handles.
                clients.retain(|c| !c.is_finished());
            }
            for client in clients {
                let _ = client.join();
            }
            Ok(())
        },
    )?;
    Ok(QueryServer { addr, stop, handle: Some(handle) })
}

/// How long one write to a client may block before the client counts as
/// stalled. Handlers stream results from inside a running query, so an
/// unbounded write to a client that stopped reading would hold the query's
/// admission slot and site cursors indefinitely.
const CLIENT_WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// The most bytes a request line may hold before its newline. The longest
/// request `dsud serve`'s protocol builds — an update carrying a tuple at
/// the largest supported dimensionality, every float spelled out in full —
/// is about 21 KB, so a client line longer than this is not a request;
/// reading stops here instead of growing one buffer without limit.
pub const MAX_REQUEST_LINE: usize = 64 << 10;

/// After refusing an over-long line, the server reads and drops at most
/// this much more of the client's input, for at most
/// [`REFUSAL_DRAIN_TIME`], before it closes the connection. Closing a
/// socket with unread input makes the kernel answer with a reset, which
/// can destroy the refusal before the client reads it; draining lets the
/// close end in an orderly FIN instead.
const REFUSAL_DRAIN: usize = 16 * MAX_REQUEST_LINE;

/// How long the server keeps draining a refused client's input.
const REFUSAL_DRAIN_TIME: std::time::Duration = std::time::Duration::from_secs(2);

/// Reads and drops a refused client's input until it hangs up, or
/// [`REFUSAL_DRAIN`] bytes or [`REFUSAL_DRAIN_TIME`] have passed.
fn drain(reader: &mut impl Read, stop: &AtomicBool) {
    let until = std::time::Instant::now() + REFUSAL_DRAIN_TIME;
    let mut left = REFUSAL_DRAIN;
    let mut sink = [0u8; 8 << 10];
    while left > 0 && std::time::Instant::now() < until && !stop.load(Ordering::SeqCst) {
        match reader.read(&mut sink[..left.min(8 << 10)]) {
            Ok(0) => return,
            Ok(n) => left -= n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// Serves one client connection until it closes, errors, or asks to stop.
/// Client-side I/O errors (e.g. a vanished client, or a stalled one past
/// [`CLIENT_WRITE_TIMEOUT`]) end the connection quietly — they must not
/// take the server down. A line longer than [`MAX_REQUEST_LINE`] is
/// answered by [`ClientHandler::refuse_line`] and ends the connection,
/// after a bounded drain of the client's input (see [`REFUSAL_DRAIN`]).
fn serve_client<H: ClientHandler>(
    stream: TcpStream,
    handler: &mut H,
    stop: &AtomicBool,
    server_addr: SocketAddr,
) {
    let _ = stream.set_nodelay(true);
    // Poll the stop flag between reads so an idle connection cannot hold
    // up an owner-initiated shutdown.
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(CLIENT_WRITE_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        // Read no further than one byte past the cap: a line that still
        // has no newline by then is over-long. A partial line kept from a
        // timed-out read counts against the same cap.
        let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // client hung up
            Ok(_) => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                // A timeout may leave a partial line in `line`; keep it and
                // resume reading where we left off.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            let _ = handler.refuse_line(&mut writer);
            let _ = writer.shutdown(std::net::Shutdown::Write);
            drain(&mut reader, stop);
            return;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            return;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            line.clear();
            continue;
        }
        match handler.handle_line(trimmed, &mut writer) {
            Ok(ClientControl::Continue) => {}
            Ok(ClientControl::Close) => return,
            Ok(ClientControl::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it can wind down.
                let _ = TcpStream::connect(server_addr);
                return;
            }
            Err(_) => return,
        }
        line.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalLink, Service};

    /// A site stub that records the raw frames it sees and answers
    /// Tagged frames with an untagged echo of the query id.
    struct TagEcho;
    impl Service for TagEcho {
        fn handle(&mut self, msg: Message) -> Message {
            match msg {
                Message::Tagged { query_id, inner } => match *inner {
                    Message::Release => Message::Ack,
                    _ => Message::SurvivalReply { survival: query_id as f64, pruned: 0 },
                },
                _ => Message::Ack,
            }
        }
    }

    #[test]
    fn mux_links_route_replies_to_their_own_query() {
        let server_meter = BandwidthMeter::new();
        let shared = share(Box::new(LocalLink::new(TagEcho, server_meter.clone())));
        let meter_a = BandwidthMeter::new();
        let meter_b = BandwidthMeter::new();
        let mut a = MuxLink::new(1, shared.clone(), meter_a.clone());
        let mut b = MuxLink::new(2, shared.clone(), meter_b.clone());
        let ra = a.call(Message::RequestNext).unwrap();
        let rb = b.call(Message::RequestNext).unwrap();
        assert_eq!(ra, Message::SurvivalReply { survival: 1.0, pruned: 0 });
        assert_eq!(rb, Message::SurvivalReply { survival: 2.0, pruned: 0 });
        // Per-query meters saw the untagged exchange; the shared link's
        // meter saw the tagged frames (8-byte id heavier per request).
        let pq = meter_a.snapshot().total();
        assert_eq!(pq.messages, 2);
        assert_eq!(pq.bytes, Message::RequestNext.encoded_len() as u64 + ra.encoded_len() as u64);
        let agg = server_meter.snapshot().total();
        assert_eq!(agg.messages, 4);
        assert_eq!(agg.bytes, pq.bytes * 2 + 2 * 9);
    }

    #[test]
    fn mux_release_is_not_charged_to_the_query() {
        let server_meter = BandwidthMeter::new();
        let shared = share(Box::new(LocalLink::new(TagEcho, server_meter.clone())));
        let meter = BandwidthMeter::new();
        let mut link = MuxLink::new(7, shared, meter.clone());
        link.release().unwrap();
        assert_eq!(meter.snapshot().total().messages, 0);
        assert_eq!(server_meter.snapshot().total().messages, 2);
    }

    #[test]
    fn mux_ticket_semantics_match_local_link() {
        let shared = share(Box::new(LocalLink::new(TagEcho, BandwidthMeter::new())));
        let mut link = MuxLink::new(3, shared, BandwidthMeter::new());
        let t1 = link.send(Message::RequestNext).unwrap();
        let t2 = link.send(Message::RequestNext).unwrap();
        assert!(link.complete(t1).is_ok());
        assert!(link.complete(t2).is_ok());
        let t3 = link.send(Message::RequestNext).unwrap();
        link.reconnect().unwrap();
        let t4 = link.send(Message::RequestNext).unwrap();
        assert!(link.complete(t4).is_ok());
        let _ = t3; // abandoned by reconnect; redeeming it would panic
    }

    /// A site stub for the pipelining tests: answers each tagged frame
    /// with `query_id * 1000 + k`, where `k` counts that query's frames so
    /// far, so a reply delivered to the wrong query — or out of order —
    /// shows up in its value. Health probes echo their nonce.
    fn counting_site() -> impl Service {
        let mut seen: HashMap<u64, u64> = HashMap::new();
        move |msg: Message| match msg {
            Message::Tagged { query_id, .. } => {
                let k = seen.entry(query_id).or_default();
                *k += 1;
                Message::SurvivalReply { survival: (query_id * 1000 + *k) as f64, pruned: 0 }
            }
            Message::HealthProbe { nonce } => Message::HealthAck { nonce },
            _ => Message::Ack,
        }
    }

    fn reply(query_id: u64, k: u64) -> Result<Message, LinkError> {
        Ok(Message::SurvivalReply { survival: (query_id * 1000 + k) as f64, pruned: 0 })
    }

    /// The transports a shared link is exercised over: a channel worker
    /// and a real socket (kept alive by the returned server handle).
    fn shared_links() -> Vec<(SharedLink, Option<crate::tcp::SiteServer>)> {
        let channel = crate::ChannelLink::spawn(counting_site(), BandwidthMeter::new());
        let server = crate::tcp::spawn_site(counting_site()).unwrap();
        let tcp = crate::tcp::TcpLink::connect(server.addr(), BandwidthMeter::new()).unwrap();
        vec![(share(Box::new(channel)), None), (share(Box::new(tcp)), Some(server))]
    }

    fn wire_is_idle(shared: &SharedLink) -> bool {
        let wire = shared.wire.lock();
        wire.in_flight.is_empty() && wire.parked.is_empty()
    }

    #[test]
    fn interleaved_queries_each_get_their_own_replies() {
        for (shared, _server) in shared_links() {
            let mut a = MuxLink::new(1, shared.clone(), BandwidthMeter::new());
            let mut b = MuxLink::new(2, shared.clone(), BandwidthMeter::new());
            let a1 = a.send(Message::RequestNext).unwrap();
            let b1 = b.send(Message::RequestNext).unwrap();
            let a2 = a.send(Message::RequestNext).unwrap();
            assert_eq!(b.complete(b1), reply(2, 1));
            let b2 = b.send(Message::RequestNext).unwrap();
            assert_eq!(a.complete(a1), reply(1, 1));
            assert_eq!(b.complete(b2), reply(2, 2));
            assert_eq!(a.complete(a2), reply(1, 2));
            assert!(wire_is_idle(&shared));
        }
    }

    #[test]
    fn heartbeat_call_gets_its_own_reply_amid_in_flight_queries() {
        for (shared, _server) in shared_links() {
            let mut a = MuxLink::new(1, shared.clone(), BandwidthMeter::new());
            let mut b = MuxLink::new(2, shared.clone(), BandwidthMeter::new());
            let a1 = a.send(Message::RequestNext).unwrap();
            let a2 = a.send(Message::RequestNext).unwrap();
            let b1 = b.send(Message::RequestNext).unwrap();
            assert_eq!(
                shared.call(Message::HealthProbe { nonce: 77 }),
                Ok(Message::HealthAck { nonce: 77 })
            );
            assert_eq!(b.complete(b1), reply(2, 1));
            assert_eq!(a.complete(a1), reply(1, 1));
            assert_eq!(a.complete(a2), reply(1, 2));
            assert!(wire_is_idle(&shared));
        }
    }

    #[test]
    fn reconnect_settles_other_queries_frames_without_losing_them() {
        for (shared, _server) in shared_links() {
            let mut a = MuxLink::new(1, shared.clone(), BandwidthMeter::new());
            let mut b = MuxLink::new(2, shared.clone(), BandwidthMeter::new());
            let a1 = a.send(Message::RequestNext).unwrap();
            let b1 = b.send(Message::RequestNext).unwrap();
            shared.reconnect().unwrap();
            assert_eq!(a.complete(a1), reply(1, 1));
            assert_eq!(b.complete(b1), reply(2, 1));
            // The reconnected wire keeps serving both queries.
            assert_eq!(b.call(Message::RequestNext), reply(2, 2));
            assert_eq!(a.call(Message::RequestNext), reply(1, 2));
            assert!(wire_is_idle(&shared));
        }
    }

    #[test]
    fn dropped_mux_link_leaves_nothing_parked() {
        for (shared, _server) in shared_links() {
            let mut a = MuxLink::new(1, shared.clone(), BandwidthMeter::new());
            let mut b = MuxLink::new(2, shared.clone(), BandwidthMeter::new());
            let b1 = b.send(Message::RequestNext).unwrap();
            for _ in 0..3 {
                a.send(Message::RequestNext).unwrap();
            }
            let b2 = b.send(Message::RequestNext).unwrap();
            drop(a);
            {
                let wire = shared.wire.lock();
                // Only b's frames remain unanswered; a's replies were read
                // (b1's along the way, parked for b) and discarded.
                assert!(wire.parked.keys().all(|seq| *seq == 0), "{:?}", wire.parked.keys());
                assert_eq!(wire.in_flight.len(), 1);
            }
            assert_eq!(b.complete(b1), reply(2, 1));
            assert_eq!(b.complete(b2), reply(2, 2));
            assert!(wire_is_idle(&shared));
        }
    }

    #[test]
    fn sends_beyond_the_window_settle_the_oldest_frame() {
        for (shared, _server) in shared_links() {
            let mut a = MuxLink::new(1, shared.clone(), BandwidthMeter::new());
            // More frames than a channel link's queue holds: without the
            // window cap the channel transport would refuse them.
            let tickets: Vec<Ticket> =
                (0..2 * WINDOW + 1).map(|_| a.send(Message::RequestNext).unwrap()).collect();
            assert!(shared.wire.lock().in_flight.len() <= WINDOW);
            for (k, ticket) in tickets.into_iter().enumerate() {
                assert_eq!(a.complete(ticket), reply(1, k as u64 + 1));
            }
            assert!(wire_is_idle(&shared));
        }
    }

    /// One thread drives a whole round over eight slow served sites: the
    /// sites work at once, so the round costs about one site's time.
    #[test]
    fn one_thread_overlaps_a_round_over_slow_served_sites() {
        let slow = || {
            let mut inner = counting_site();
            move |msg: Message| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                inner.handle(msg)
            }
        };
        let shared: Vec<SharedLink> = (0..8)
            .map(|_| share(Box::new(crate::ChannelLink::spawn(slow(), BandwidthMeter::new()))))
            .collect();
        let mut links: Vec<Box<dyn Link>> = shared
            .iter()
            .map(|s| Box::new(MuxLink::new(4, s.clone(), BandwidthMeter::new())) as _)
            .collect();
        let started = std::time::Instant::now();
        let replies = threadpool::with_pool_size(1, || {
            crate::broadcast(&mut links, |_| true, &Message::RequestNext)
        });
        let elapsed = started.elapsed();
        assert!(replies.iter().all(|(_, r)| *r == reply(4, 1)), "{replies:?}");
        assert!(elapsed < std::time::Duration::from_millis(150), "round took {elapsed:?}");
    }

    /// Echoes each line back prefixed with `ok:`; `close` closes the
    /// connection, `stop` shuts the server down. An over-long line is
    /// answered `too long`.
    struct EchoHandler;
    impl ClientHandler for EchoHandler {
        fn handle_line(&mut self, line: &str, out: &mut dyn Write) -> io::Result<ClientControl> {
            match line {
                "close" => Ok(ClientControl::Close),
                "stop" => Ok(ClientControl::Shutdown),
                _ => {
                    writeln!(out, "ok:{line}")?;
                    out.flush()?;
                    Ok(ClientControl::Continue)
                }
            }
        }

        fn refuse_line(&mut self, out: &mut dyn Write) -> io::Result<()> {
            writeln!(out, "too long")?;
            out.flush()
        }
    }

    fn roundtrip(addr: SocketAddr, send: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, "{send}").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        reply.trim().to_string()
    }

    #[test]
    fn query_server_serves_concurrent_clients_and_stops_on_request() {
        let server = spawn_query_server(0, || EchoHandler).unwrap();
        let addr = server.addr();
        let replies: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..4).map(|i| s.spawn(move || roundtrip(addr, &format!("hello-{i}")))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply, &format!("ok:hello-{i}"));
        }
        // A client-requested shutdown unblocks `wait`.
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, "stop").unwrap();
        server.wait().unwrap();
    }

    /// A line of exactly [`MAX_REQUEST_LINE`] bytes is served; one byte
    /// more is refused once, before its end is read, and the connection
    /// closes — while other clients keep being served.
    #[test]
    fn malformed_overlong_lines_are_refused_and_the_server_keeps_serving() {
        let server = spawn_query_server(0, || EchoHandler).unwrap();
        let addr = server.addr();
        let longest = "x".repeat(MAX_REQUEST_LINE);
        assert_eq!(roundtrip(addr, &longest), format!("ok:{longest}"));

        // One byte past the cap, no newline: the server has read every
        // byte sent when it refuses, so its answer and close arrive intact.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&vec![b'['; MAX_REQUEST_LINE + 1]).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "too long\n", "one answer, then the connection closes");

        // A client still sending well past the cap when the refusal comes:
        // the server drains its input before closing, so the answer is not
        // destroyed by a reset.
        let stream = TcpStream::connect(addr).unwrap();
        let mut sender = stream.try_clone().unwrap();
        let writer =
            std::thread::spawn(move || sender.write_all(&vec![b'['; 4 * MAX_REQUEST_LINE]));
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "too long\n", "the answer survives a client that keeps writing");
        writer.join().unwrap().expect("the server reads what the client writes");

        // A client that never stops sending: the server stops reading at
        // the cap and closes (the client may see a reset instead of the
        // answer), and keeps serving others.
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.write_all(&vec![b'['; 16 * MAX_REQUEST_LINE]);
        drop(stream);
        assert_eq!(roundtrip(addr, "still here"), "ok:still here");
        server.shutdown().unwrap();
    }

    #[test]
    fn query_server_owner_shutdown_is_clean() {
        let server = spawn_query_server(0, || EchoHandler).unwrap();
        let addr = server.addr();
        assert_eq!(roundtrip(addr, "ping"), "ok:ping");
        server.shutdown().unwrap();
    }
}
