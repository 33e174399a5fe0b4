//! TCP transport: sites behind real sockets.
//!
//! The in-process transports are ideal for experiments, but a system a
//! deployment would adopt must actually cross a network. This module
//! speaks the same binary [`Message`] encoding over TCP
//! with a minimal length-prefixed framing (4-byte big-endian length, then
//! the message bytes), so a site served by [`serve_connection`] is
//! indistinguishable from one behind a [`LocalLink`](crate::LocalLink) —
//! the equivalence is asserted by the integration tests.
//!
//! Failure handling: each request's [`LinkConfig::request_timeout`] runs
//! from its `send`, and the reply read waits (via `set_read_timeout`) only
//! for what is left of it; every operation returns
//! [`LinkError`] values instead of panicking, and a [`TcpLink`] remembers
//! its server's address so [`Link::reconnect`] can re-dial after a drop —
//! which works because [`spawn_site`] accepts connections in a loop until
//! its [`SiteServer`] handle is shut down.
//!
//! # Example
//!
//! ```
//! use dsud_net::{tcp, BandwidthMeter, Link, Message, Service};
//!
//! struct Echo;
//! impl Service for Echo {
//!     fn handle(&mut self, msg: Message) -> Message {
//!         match msg {
//!             Message::RequestNext => Message::Upload(None),
//!             _ => Message::Ack,
//!         }
//!     }
//! }
//!
//! # fn main() -> std::io::Result<()> {
//! let server = tcp::spawn_site(Echo)?;
//! let meter = BandwidthMeter::new();
//! let mut link = tcp::TcpLink::connect(server.addr(), meter)?;
//! assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
//! drop(link); // closes the connection; the server waits for the next one
//! server.shutdown()?;
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;

use crate::transport::TicketLedger;
use crate::{BandwidthMeter, Link, LinkConfig, LinkError, Message, Service, Ticket};

/// Writes one length-prefixed frame with a single vectored write (header
/// and payload leave in one segment under `TCP_NODELAY`), finishing any
/// short write with plain writes of the rest.
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let header = len.to_be_bytes();
    let total = header.len() + payload.len();
    let mut written = 0;
    while written < total {
        let result = if written < header.len() {
            stream.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(payload)])
        } else {
            stream.write(&payload[written - header.len()..])
        };
        match result {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one length-prefixed frame into a caller-owned buffer (resized to
/// the payload length); `Ok(false)` on a clean end-of-stream at a frame
/// boundary. Reusing the buffer keeps long request/reply conversations —
/// and batched feedback rounds in particular — allocation-free per frame.
fn read_frame_into(stream: &mut TcpStream, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds limit"));
    }
    payload.clear();
    payload.resize(len, 0);
    stream.read_exact(payload)?;
    Ok(true)
}

/// Reads one length-prefixed frame; `Ok(None)` on a clean end-of-stream at
/// a frame boundary.
#[cfg(test)]
fn read_frame(stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(stream, &mut payload)?.then_some(payload))
}

/// The shortest reply wait [`TcpLink::complete`] arms, for a request whose
/// deadline has already passed.
const MIN_READ_WAIT: Duration = Duration::from_millis(1);

/// Upper bound on a frame (a ReplicaSync of thousands of wide tuples fits
/// comfortably; anything larger is a protocol error, not a workload).
const MAX_FRAME: usize = 64 << 20;

/// A metered request/response link to a site across TCP.
///
/// The link stores its server's [`SocketAddr`] and [`LinkConfig`], so after
/// any failure [`Link::reconnect`] re-dials and the next request goes out
/// on a fresh connection — no state beyond the socket needs restoring,
/// because the protocol is request/response and the server keeps the site
/// state across connections.
#[derive(Debug)]
pub struct TcpLink {
    stream: Option<TcpStream>,
    addr: SocketAddr,
    config: LinkConfig,
    meter: BandwidthMeter,
    /// Outstanding-frame queue: frames written but not yet answered, in
    /// wire order. TCP preserves ordering, so the `k`-th reply frame on
    /// the stream answers the `k`-th outstanding request.
    tickets: TicketLedger,
    /// Reply deadlines of the outstanding frames, in wire order.
    deadlines: VecDeque<Instant>,
    /// Reusable encode buffer: frames are serialized here, written, and the
    /// allocation kept for the next request.
    send_buf: BytesMut,
    /// Reusable receive buffer for reply payloads.
    recv_buf: Vec<u8>,
}

impl TcpLink {
    /// Connects to a site server with the default [`LinkConfig`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr, meter: BandwidthMeter) -> io::Result<Self> {
        Self::connect_with(addr, meter, LinkConfig::default())
    }

    /// Connects to a site server with an explicit deadline configuration.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect_with(
        addr: SocketAddr,
        meter: BandwidthMeter,
        config: LinkConfig,
    ) -> io::Result<Self> {
        let stream = Self::dial(addr, config)?;
        Ok(TcpLink {
            stream: Some(stream),
            addr,
            config,
            meter,
            tickets: TicketLedger::default(),
            deadlines: VecDeque::new(),
            send_buf: BytesMut::new(),
            recv_buf: Vec::new(),
        })
    }

    fn dial(addr: SocketAddr, config: LinkConfig) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.request_timeout))?;
        Ok(stream)
    }

    /// The server address this link (re)connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drops the connection so the next operation fails (or reconnects)
    /// instead of reading a reply that no longer matches a request.
    fn poison(&mut self) {
        self.stream = None;
    }
}

impl Link for TcpLink {
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError> {
        msg.encode_into(&mut self.send_buf);
        let Some(stream) = self.stream.as_mut() else {
            return Err(LinkError::Disconnected);
        };
        if let Err(e) = write_frame(stream, &self.send_buf) {
            self.poison();
            return Err(e.into());
        }
        self.meter.record(&msg);
        self.deadlines.push_back(Instant::now() + self.config.request_timeout);
        Ok(self.tickets.issue())
    }

    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError> {
        self.tickets.redeem(ticket);
        let deadline = self.deadlines.pop_front().expect("a redeemed ticket has a deadline");
        let Some(stream) = self.stream.as_mut() else {
            // The stream was poisoned (by an earlier failed completion or a
            // failed send); every ticket it still owed is a loss.
            return Err(LinkError::Disconnected);
        };
        // Wait only for what is left of this request's deadline. A socket
        // timeout cannot be zero, so an expired deadline still gets one
        // millisecond: a reply already buffered is taken, a missing one
        // times out at once.
        let left = deadline.saturating_duration_since(Instant::now()).max(MIN_READ_WAIT);
        let read = match stream.set_read_timeout(Some(left)) {
            Ok(()) => read_frame_into(stream, &mut self.recv_buf),
            Err(e) => Err(e),
        };
        match read {
            Ok(true) => {}
            // Clean EOF mid-request: the site closed on us.
            Ok(false) => {
                self.poison();
                return Err(LinkError::Disconnected);
            }
            Err(e) => {
                // After any read failure — a timeout included — the stream
                // position no longer lines up with request boundaries; a
                // late reply would be mistaken for the next one. Force a
                // reconnect before reuse.
                self.poison();
                return Err(e.into());
            }
        }
        let reply = match crate::transport::decode_reply_timed(&self.meter, &self.recv_buf) {
            Some(reply) => reply,
            None => {
                self.poison();
                return Err(LinkError::Malformed);
            }
        };
        if reply == Message::DecodeError {
            // The site could not decode our request; the round-trip failed
            // but the connection itself is still framed correctly.
            return Err(LinkError::Malformed);
        }
        self.meter.record(&reply);
        Ok(reply)
    }

    fn reconnect(&mut self) -> Result<(), LinkError> {
        // A fresh connection shares no framing state with the old one:
        // abandon every outstanding ticket along with the old stream.
        self.tickets.reset();
        self.deadlines.clear();
        self.stream = Some(Self::dial(self.addr, self.config)?);
        Ok(())
    }
}

/// Serves one client connection until it closes: reads a request frame,
/// hands it to the service, writes the reply frame.
///
/// A frame that does not decode is answered with [`Message::DecodeError`]
/// (the client surfaces it as [`LinkError::Malformed`]) instead of killing
/// the connection — one corrupt request must not take the site down.
///
/// # Errors
///
/// Propagates socket errors.
pub fn serve_connection<S: Service>(mut stream: TcpStream, service: &mut S) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut recv_buf = Vec::new();
    let mut send_buf = BytesMut::new();
    while read_frame_into(&mut stream, &mut recv_buf)? {
        // `handle_frame` lets the service answer columnar bulk frames
        // straight from the borrowed request bytes (decode-error replies
        // included in its contract), reusing one send buffer per client.
        service.handle_frame(&recv_buf, &mut send_buf);
        write_frame(&mut stream, &send_buf)?;
    }
    Ok(())
}

/// How often a server-side connection loop re-checks the shutdown flag
/// while waiting for the next request.
const STOP_POLL: Duration = Duration::from_millis(50);

/// Like [`serve_connection`], but abandons the connection promptly when
/// `stop` is raised, so a [`SiteServer`] can shut down even while a client
/// is connected. Reads are structured so the poll timeout can never split
/// a frame: the 4-byte header is only consumed once it is fully buffered
/// (via `peek`), and payload reads resume across timeouts.
fn serve_client<S: Service>(
    stream: &mut TcpStream,
    service: &mut S,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(STOP_POLL))?;
    let mut payload = Vec::new();
    let mut send_buf = BytesMut::new();
    loop {
        // Wait until a whole header is buffered (or EOF / stop).
        let mut hdr = [0u8; 4];
        loop {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match stream.peek(&mut hdr) {
                Ok(0) => return Ok(()),     // clean end-of-stream
                Ok(n) if n < 4 => continue, // partial header still in flight
                Ok(_) => break,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
        stream.read_exact(&mut hdr)?; // fully buffered: cannot block
        let len = u32::from_be_bytes(hdr) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds limit"));
        }
        payload.clear();
        payload.resize(len, 0);
        let mut filled = 0;
        while filled < len {
            match stream.read(&mut payload[filled..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => filled += n,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        service.handle_frame(&payload, &mut send_buf);
        write_frame(stream, &send_buf)?;
    }
}

/// Handle onto a running site server spawned by [`spawn_site`].
///
/// The server accepts connections in a loop — serving one client at a time,
/// across reconnects — until [`SiteServer::shutdown`] is called (or the
/// handle is dropped). Site state lives in the [`Service`] inside the
/// server thread, so it survives client reconnects.
#[derive(Debug)]
pub struct SiteServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl SiteServer {
    /// The loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for the server thread to exit, and reports
    /// how it ended.
    ///
    /// # Errors
    ///
    /// Returns the listener's accept error if the thread died on one, or
    /// an error if the service panicked.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> io::Result<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the (possibly) pending accept with a throwaway
        // connection; if the thread is already gone this simply fails.
        let _ = TcpStream::connect(self.addr);
        match handle.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("site server thread panicked")),
        }
    }
}

impl Drop for SiteServer {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

/// Binds a loopback listener and spawns a thread serving client
/// connections with `service`, one at a time, until the returned
/// [`SiteServer`] is shut down. A client disconnect (clean or not) returns
/// the server to `accept`, so a [`TcpLink::reconnect`] finds the site — and
/// its state — still there.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn_site<S: Service + 'static>(mut service: S) -> io::Result<SiteServer> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::spawn(move || loop {
        let (mut stream, _) = listener.accept()?;
        if thread_stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        // A connection-level error (reset, aborted mid-frame) ends this
        // client but not the site; the next accept serves the reconnect.
        let _ = serve_client(&mut stream, &mut service, &thread_stop);
        if thread_stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    });
    Ok(SiteServer { addr, stop, handle: Some(handle) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosLink, FaultKind, FaultPlan, RetryLink, TupleMsg};
    use bytes::Bytes;
    use dsud_uncertain::{Probability, TupleId, UncertainTuple};

    fn echo_service() -> impl Service {
        |msg: Message| match msg {
            Message::Feedback(t) => Message::SurvivalReply { survival: t.local_prob, pruned: 1 },
            Message::RequestNext => Message::Upload(None),
            _ => Message::Ack,
        }
    }

    fn feedback(local_prob: f64) -> Message {
        let t = UncertainTuple::new(
            TupleId::new(0, 0),
            vec![1.0, 2.0, 3.0],
            Probability::new(0.5).unwrap(),
        )
        .unwrap();
        Message::Feedback(TupleMsg::new(&t, local_prob))
    }

    #[test]
    fn tcp_round_trips_and_meters() {
        let server = spawn_site(echo_service()).unwrap();
        let meter = BandwidthMeter::new();
        let mut link = TcpLink::connect(server.addr(), meter.clone()).unwrap();
        for i in 1..=20 {
            let reply = link.call(feedback(i as f64 / 100.0)).unwrap();
            assert_eq!(reply, Message::SurvivalReply { survival: i as f64 / 100.0, pruned: 1 });
        }
        drop(link);
        server.shutdown().unwrap();
        let snap = meter.snapshot();
        assert_eq!(snap.feedback.messages, 20);
        assert_eq!(snap.reply.messages, 20);
        assert_eq!(snap.tuples_transmitted(), 20);
    }

    #[test]
    fn tcp_metering_matches_local_link() {
        let server = spawn_site(echo_service()).unwrap();
        let tcp_meter = BandwidthMeter::new();
        let mut tcp = TcpLink::connect(server.addr(), tcp_meter.clone()).unwrap();
        let local_meter = BandwidthMeter::new();
        let mut local = crate::LocalLink::new(echo_service(), local_meter.clone());
        for _ in 0..5 {
            tcp.call(Message::RequestNext).unwrap();
            local.call(Message::RequestNext).unwrap();
        }
        drop(tcp);
        server.shutdown().unwrap();
        assert_eq!(tcp_meter.snapshot(), local_meter.snapshot());
    }

    #[test]
    fn frame_roundtrip_handles_large_payloads() {
        let server = spawn_site(|_msg: Message| {
            // Reply with a large ReplicaSync.
            let t = UncertainTuple::new(
                TupleId::new(0, 0),
                vec![1.0; 16],
                Probability::new(0.5).unwrap(),
            )
            .unwrap();
            Message::ReplicaSync(vec![TupleMsg::new(&t, 0.5); 5_000])
        })
        .unwrap();
        let meter = BandwidthMeter::new();
        let mut link = TcpLink::connect(server.addr(), meter).unwrap();
        match link.call(Message::RequestNext).unwrap() {
            Message::ReplicaSync(tuples) => assert_eq!(tuples.len(), 5_000),
            other => panic!("unexpected {other:?}"),
        }
        drop(link);
        server.shutdown().unwrap();
    }

    #[test]
    fn server_survives_client_reconnects_and_keeps_state() {
        // A stateful service: replies with how many requests it has seen.
        let server = spawn_site({
            let mut seen = 0u64;
            move |_msg: Message| {
                seen += 1;
                Message::SurvivalReply { survival: seen as f64, pruned: 0 }
            }
        })
        .unwrap();
        let meter = BandwidthMeter::new();
        let mut link = TcpLink::connect(server.addr(), meter.clone()).unwrap();
        assert_eq!(
            link.call(Message::RequestNext),
            Ok(Message::SurvivalReply { survival: 1.0, pruned: 0 })
        );
        drop(link);
        // A fresh connection reaches the same site state.
        let mut link = TcpLink::connect(server.addr(), meter).unwrap();
        assert_eq!(
            link.call(Message::RequestNext),
            Ok(Message::SurvivalReply { survival: 2.0, pruned: 0 })
        );
        drop(link);
        server.shutdown().unwrap();
    }

    #[test]
    fn pipelined_requests_round_trip_in_order() {
        // Several frames on the wire at once: the k-th reply answers the
        // k-th outstanding request, so a stateful site proves ordering.
        let server = spawn_site({
            let mut seen = 0u64;
            move |_msg: Message| {
                seen += 1;
                Message::SurvivalReply { survival: seen as f64, pruned: 0 }
            }
        })
        .unwrap();
        let meter = BandwidthMeter::new();
        let mut link = TcpLink::connect(server.addr(), meter).unwrap();
        let tickets: Vec<_> = (0..4).map(|_| link.send(Message::RequestNext).unwrap()).collect();
        for (k, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(
                link.complete(ticket),
                Ok(Message::SurvivalReply { survival: (k + 1) as f64, pruned: 0 })
            );
        }
        drop(link);
        server.shutdown().unwrap();
    }

    #[test]
    fn poisoned_stream_fails_every_outstanding_ticket() {
        let server = spawn_site(echo_service()).unwrap();
        let meter = BandwidthMeter::new();
        let mut link = TcpLink::connect(server.addr(), meter).unwrap();
        let first = link.send(Message::RequestNext).unwrap();
        let second = link.send(Message::RequestNext).unwrap();
        link.poison(); // simulate a read failure mid-window
        assert_eq!(link.complete(first), Err(LinkError::Disconnected));
        assert_eq!(link.complete(second), Err(LinkError::Disconnected));
        // A reconnect restores service on a fresh stream.
        link.reconnect().unwrap();
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        drop(link);
        server.shutdown().unwrap();
    }

    #[test]
    fn explicit_reconnect_restores_a_poisoned_link() {
        let server = spawn_site(echo_service()).unwrap();
        let meter = BandwidthMeter::new();
        let mut link = TcpLink::connect(server.addr(), meter).unwrap();
        assert!(link.call(Message::RequestNext).is_ok());
        link.poison(); // simulate a broken connection
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Disconnected));
        link.reconnect().unwrap();
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        drop(link);
        server.shutdown().unwrap();
    }

    #[test]
    fn read_deadline_fires_on_a_stalled_site() {
        let server = spawn_site(|msg: Message| {
            if matches!(msg, Message::RequestNext) {
                std::thread::sleep(Duration::from_millis(300));
            }
            Message::Ack
        })
        .unwrap();
        let meter = BandwidthMeter::new();
        let config = LinkConfig {
            request_timeout: Duration::from_millis(50),
            retry_budget: 0,
            backoff: Duration::ZERO,
        };
        let mut link = TcpLink::connect_with(server.addr(), meter, config).unwrap();
        let started = std::time::Instant::now();
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout));
        assert!(started.elapsed() < Duration::from_millis(250), "deadline must bound the wait");
        drop(link);
        server.shutdown().unwrap();
    }

    /// Deadlines run from `send`: two stalled sites driven by one thread
    /// fail after one deadline, not one per site.
    #[test]
    fn stalled_sites_share_one_deadline() {
        let stalled = || {
            spawn_site(|_msg: Message| {
                std::thread::sleep(Duration::from_millis(400));
                Message::Ack
            })
            .unwrap()
        };
        let servers = [stalled(), stalled()];
        let config = LinkConfig {
            request_timeout: Duration::from_millis(100),
            retry_budget: 0,
            backoff: Duration::ZERO,
        };
        let mut links: Vec<Box<dyn Link>> = servers
            .iter()
            .map(|s| {
                Box::new(TcpLink::connect_with(s.addr(), BandwidthMeter::new(), config).unwrap())
                    as _
            })
            .collect();
        let started = Instant::now();
        let replies = threadpool::with_pool_size(1, || {
            crate::broadcast(&mut links, |_| true, &Message::RequestNext)
        });
        let elapsed = started.elapsed();
        assert_eq!(replies, vec![(0, Err(LinkError::Timeout)), (1, Err(LinkError::Timeout))]);
        assert!(elapsed < 2 * config.request_timeout, "two stalled sites took {elapsed:?}");
    }

    #[test]
    fn dead_server_yields_disconnected_not_a_panic() {
        let server = spawn_site(echo_service()).unwrap();
        let meter = BandwidthMeter::new();
        let mut link = TcpLink::connect(server.addr(), meter).unwrap();
        assert!(link.call(Message::RequestNext).is_ok());
        server.shutdown().unwrap();
        // The next round-trip fails with a typed error on every path.
        let mut failed = false;
        for _ in 0..3 {
            if link.call(Message::RequestNext).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "a killed server must surface as a link error");
        assert!(link.reconnect().is_err(), "nothing is listening anymore");
    }

    #[test]
    fn retry_link_rides_out_a_tcp_stall() {
        // The service stalls once, longer than the request deadline; a
        // RetryLink with enough budget reconnects and recovers the exact
        // answer, because the swallowed request never mutated site state.
        let server = spawn_site({
            let mut first = true;
            move |msg: Message| {
                if first && matches!(msg, Message::RequestNext) {
                    first = false;
                    std::thread::sleep(Duration::from_millis(250));
                }
                match msg {
                    Message::RequestNext => Message::Upload(None),
                    _ => Message::Ack,
                }
            }
        })
        .unwrap();
        let meter = BandwidthMeter::new();
        let config = LinkConfig {
            request_timeout: Duration::from_millis(100),
            retry_budget: 5,
            backoff: Duration::from_millis(20),
        };
        let tcp = TcpLink::connect_with(server.addr(), meter, config).unwrap();
        let mut link = RetryLink::new(tcp, config);
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        let health = link.health().snapshot();
        assert!(health.retries >= 1, "the stall must have forced a retry");
        drop(link);
        server.shutdown().unwrap();
    }

    #[test]
    fn malformed_request_gets_a_decode_error_reply_not_a_dead_site() {
        let server = spawn_site(echo_service()).unwrap();
        // Speak the framing by hand to deliver a corrupt payload.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let garbage = [0xFFu8, 0x01, 0x02];
        raw.write_all(&(garbage.len() as u32).to_be_bytes()).unwrap();
        raw.write_all(&garbage).unwrap();
        raw.flush().unwrap();
        let mut stream_ref = raw.try_clone().unwrap();
        let payload = read_frame(&mut stream_ref).unwrap().expect("site replies");
        assert_eq!(Message::decode(Bytes::from(payload)), Some(Message::DecodeError));
        // The same connection still serves well-formed requests.
        write_frame(&mut raw, &Message::RequestNext.encode()).unwrap();
        let payload = read_frame(&mut stream_ref).unwrap().expect("site replies");
        assert_eq!(Message::decode(Bytes::from(payload)), Some(Message::Upload(None)));
        drop(raw);
        drop(stream_ref);
        server.shutdown().unwrap();
    }

    #[test]
    fn faulty_tcp_stack_reports_typed_errors() {
        // Fault windows schedule identically over a real socket.
        let server = spawn_site(echo_service()).unwrap();
        let meter = BandwidthMeter::new();
        let tcp = TcpLink::connect(server.addr(), meter).unwrap();
        let mut link =
            ChaosLink::new(tcp, FaultPlan::quiet().window(3, u64::MAX, FaultKind::Disconnect));
        assert!(link.call(Message::RequestNext).is_ok());
        assert!(link.call(Message::RequestNext).is_ok());
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Disconnected));
        drop(link);
        server.shutdown().unwrap();
    }
}
