//! Deterministic retry-with-backoff on top of any [`Link`].
//!
//! [`RetryLink`] is the failure-absorbing layer between a raw transport and
//! the coordinator: transient faults (a timed-out request, a dropped TCP
//! connection) are retried up to the [`LinkConfig::retry_budget`], with a
//! reconnect attempt and a deterministic backoff pause between attempts.
//! Only when the budget is exhausted does the failure propagate — at which
//! point the coordinator decides between aborting (strict mode) and
//! quarantining the site (degraded mode).
//!
//! Determinism: whether an attempt is retried and how long the backoff
//! pause lasts are pure functions of the per-call attempt index and the
//! config — no randomness, no wall-clock dependence. Replaying the same
//! fault schedule therefore produces the same attempt transcript on every
//! run, pool size, and transport; the backoff only stretches wall-clock
//! time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsud_obs::{Counter, Recorder};

use crate::transport::TicketLedger;
use crate::{Link, LinkConfig, LinkError, Message, Ticket};

/// Shared, lock-free view of one link's failure history.
///
/// The coordinator holds a clone while the link itself lives inside the
/// boxed transport stack, so per-site failure accounting stays readable
/// after the query ends.
/// Counters are kept on two horizons: *cumulative* totals over the link's
/// whole life, and a *window* since the last explicit
/// [`Link::reconnect`] — probation decisions after a rejoin must weigh
/// fresh evidence, not the failure burst that caused the quarantine.
/// [`LinkHealth::consecutive_misses`] counts completed requests that
/// failed end-to-end (budget exhausted) with no intervening success; one
/// successful reply resets it.
#[derive(Debug, Default)]
pub struct LinkHealth {
    attempts: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    disconnects: AtomicU64,
    malformed: AtomicU64,
    window_attempts: AtomicU64,
    window_retries: AtomicU64,
    window_timeouts: AtomicU64,
    window_disconnects: AtomicU64,
    window_malformed: AtomicU64,
    consecutive_misses: AtomicU64,
    reconnects: AtomicU64,
}

/// Point-in-time copy of a [`LinkHealth`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Requests attempted (first tries and retries alike).
    pub attempts: u64,
    /// Attempts that were retries of a failed predecessor.
    pub retries: u64,
    /// Attempts that failed with [`LinkError::Timeout`].
    pub timeouts: u64,
    /// Attempts that failed with [`LinkError::Disconnected`].
    pub disconnects: u64,
    /// Attempts that failed with [`LinkError::Malformed`].
    pub malformed: u64,
    /// [`HealthSnapshot::attempts`] since the last explicit reconnect.
    pub window_attempts: u64,
    /// [`HealthSnapshot::retries`] since the last explicit reconnect.
    pub window_retries: u64,
    /// [`HealthSnapshot::timeouts`] since the last explicit reconnect.
    pub window_timeouts: u64,
    /// [`HealthSnapshot::disconnects`] since the last explicit reconnect.
    pub window_disconnects: u64,
    /// [`HealthSnapshot::malformed`] since the last explicit reconnect.
    pub window_malformed: u64,
    /// Completed requests that failed end-to-end since the last
    /// successful reply.
    pub consecutive_misses: u64,
    /// Explicit reconnects (window resets) over the link's life.
    pub reconnects: u64,
}

impl LinkHealth {
    /// Copies the current counters.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            attempts: self.attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            window_attempts: self.window_attempts.load(Ordering::Relaxed),
            window_retries: self.window_retries.load(Ordering::Relaxed),
            window_timeouts: self.window_timeouts.load(Ordering::Relaxed),
            window_disconnects: self.window_disconnects.load(Ordering::Relaxed),
            window_malformed: self.window_malformed.load(Ordering::Relaxed),
            consecutive_misses: self.consecutive_misses.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
        }
    }

    /// Completed requests that failed end-to-end with no success since.
    pub fn consecutive_misses(&self) -> u64 {
        self.consecutive_misses.load(Ordering::Relaxed)
    }

    fn note_attempt(&self) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        self.window_attempts.fetch_add(1, Ordering::Relaxed);
    }

    fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.window_retries.fetch_add(1, Ordering::Relaxed);
    }

    fn note_failure(&self, error: &LinkError) {
        let (total, window) = match error {
            LinkError::Timeout => (&self.timeouts, &self.window_timeouts),
            LinkError::Disconnected | LinkError::Io(_) => {
                (&self.disconnects, &self.window_disconnects)
            }
            LinkError::Malformed => (&self.malformed, &self.window_malformed),
        };
        total.fetch_add(1, Ordering::Relaxed);
        window.fetch_add(1, Ordering::Relaxed);
    }

    /// A request completed with a reply: the miss streak is over.
    fn note_success(&self) {
        self.consecutive_misses.store(0, Ordering::Relaxed);
    }

    /// A request failed end-to-end (retry budget exhausted).
    fn note_miss(&self) {
        self.consecutive_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a fresh evidence window at an explicit reconnect; the
    /// cumulative counters keep their history.
    fn reset_window(&self) {
        self.window_attempts.store(0, Ordering::Relaxed);
        self.window_retries.store(0, Ordering::Relaxed);
        self.window_timeouts.store(0, Ordering::Relaxed);
        self.window_disconnects.store(0, Ordering::Relaxed);
        self.window_malformed.store(0, Ordering::Relaxed);
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`Link`] wrapper that retries failed requests deterministically.
///
/// Each failed attempt is followed by a [`Link::reconnect`] of the inner
/// transport and a [`LinkConfig::backoff_step`] pause, until the request
/// succeeds or [`LinkConfig::retry_budget`] re-attempts have failed; the
/// last error is then returned. Retry and timeout totals are mirrored onto
/// the [`Recorder`] ([`Counter::LinkRetries`], [`Counter::LinkTimeouts`])
/// so they land in the run report.
///
/// A failed send is deferred (the ticket is still issued), so the rest of
/// a broadcast's sends go out before any backoff pause — the same overlap
/// a healthy round has, and the same deterministic backoff schedule as the
/// synchronous path. Its retries run when it is completed, or earlier,
/// when the next request is sent on the same link: a request owed a retry
/// always goes back on the wire ahead of the frames sent after it, so the
/// site executes requests in send order and one request's attempts stay
/// consecutive even on a link shared by concurrent queries (the attempt
/// ordinals a fault schedule is keyed on then mean the same thing as on
/// an unshared link). When several requests are in flight and one fails,
/// the replies of the requests behind it are read off the wire *before*
/// the retry reconnects, so a request the site already answered is never
/// sent again — which matters most on a wire shared by concurrent queries,
/// where the frames behind a failure belong to other queries. Only a
/// request whose reply cannot be read any more (the wire itself broke) is
/// replayed, in send order, over the fresh connection; that replay may
/// execute it twice at the site, the same hazard any retry of a timed-out
/// request has.
#[derive(Debug)]
pub struct RetryLink<L> {
    inner: L,
    config: LinkConfig,
    recorder: Recorder,
    health: Arc<LinkHealth>,
    tickets: TicketLedger,
    /// Requests in flight, in send order, each with a clone of its message
    /// (kept for retries on `complete`).
    pending: VecDeque<Pending>,
}

/// One in-flight request held by a [`RetryLink`].
#[derive(Debug)]
struct Pending {
    ticket: Ticket,
    msg: Message,
    state: Flight,
}

/// Where a [`Pending`] request stands on the inner transport.
#[derive(Debug)]
enum Flight {
    /// On the current wire under this inner ticket.
    Sent(Ticket),
    /// The send failed; the retries run before the link's next send, or at
    /// completion.
    Unsent(LinkError),
    /// Its outcome is known: the reply read off the wire ahead of a
    /// reconnect, or the result of retries run ahead of a later send.
    Settled(Result<Message, LinkError>),
    /// Its wire was reconnected before the reply could be read: it is
    /// replayed at completion time.
    Abandoned,
}

impl<L: Link> RetryLink<L> {
    /// Wraps `inner` with the given retry policy.
    pub fn new(inner: L, config: LinkConfig) -> Self {
        Self::with_recorder(inner, config, Recorder::disabled())
    }

    /// Wraps `inner`, mirroring retry/timeout counts onto `recorder`.
    pub fn with_recorder(inner: L, config: LinkConfig, recorder: Recorder) -> Self {
        RetryLink {
            inner,
            config,
            recorder,
            health: Arc::new(LinkHealth::default()),
            tickets: TicketLedger::default(),
            pending: VecDeque::new(),
        }
    }

    /// Shared handle onto this link's failure counters.
    pub fn health(&self) -> Arc<LinkHealth> {
        Arc::clone(&self.health)
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    fn note_failure(&self, error: &LinkError) {
        self.health.note_failure(error);
        if *error == LinkError::Timeout {
            self.recorder.incr(Counter::LinkTimeouts);
        }
    }

    /// Reconnects the inner transport after settling every request still
    /// on the current wire: a readable reply is kept for its request, an
    /// unreadable one marks it for replay.
    fn reconnect_inner(&mut self) {
        for entry in &mut self.pending {
            if let Flight::Sent(inner_ticket) = entry.state {
                entry.state = match self.inner.complete(inner_ticket) {
                    Ok(reply) => Flight::Settled(Ok(reply)),
                    Err(_) => Flight::Abandoned,
                };
            }
        }
        // Best-effort: a failed reconnect still lets the next attempt run,
        // which surfaces the transport's own (possibly more specific)
        // error.
        let _ = self.inner.reconnect();
    }

    /// Runs the retries of every request whose send failed, in send order,
    /// settling each outcome for its completion.
    fn retry_unsent(&mut self) {
        for k in 0..self.pending.len() {
            if let Flight::Unsent(e) = &self.pending[k].state {
                let (msg, e) = (self.pending[k].msg.clone(), e.clone());
                let result = self.retry_after(msg, e);
                self.pending[k].state = Flight::Settled(result);
            }
        }
    }

    /// Retries `msg` after `first_error`, consuming the remaining budget.
    fn retry_after(&mut self, msg: Message, first_error: LinkError) -> Result<Message, LinkError> {
        let mut last_error = first_error;
        for attempt in 1..=self.config.retry_budget {
            self.health.note_retry();
            self.recorder.incr(Counter::LinkRetries);
            let pause = self.config.backoff_step(attempt);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            self.reconnect_inner();
            self.health.note_attempt();
            match self.inner.call(msg.clone()) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    self.note_failure(&e);
                    last_error = e;
                }
            }
        }
        Err(last_error)
    }
}

impl<L: Link> Link for RetryLink<L> {
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError> {
        self.retry_unsent();
        self.health.note_attempt();
        let state = match self.inner.send(msg.clone()) {
            Ok(inner_ticket) => Flight::Sent(inner_ticket),
            Err(e) => {
                // Defer the retries to this link's next send or to
                // `complete`, so a broadcast's sends on other links still
                // go out first — the same overlap a healthy round has. Only
                // this request is condemned: requests already on the wire
                // complete normally ahead of it.
                self.note_failure(&e);
                Flight::Unsent(e)
            }
        };
        let ticket = self.tickets.issue();
        self.pending.push_back(Pending { ticket, msg, state });
        Ok(ticket)
    }

    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError> {
        self.tickets.redeem(ticket);
        let entry = self.pending.pop_front().expect("a redeemed ticket has a pending request");
        assert!(entry.ticket == ticket, "tickets must be completed in send order");
        let result = match entry.state {
            Flight::Sent(inner_ticket) => match self.inner.complete(inner_ticket) {
                Ok(reply) => Ok(reply),
                Err(e) => {
                    self.note_failure(&e);
                    self.retry_after(entry.msg, e)
                }
            },
            Flight::Settled(result) => result,
            Flight::Abandoned => {
                // An earlier request's failure broke the wire after this
                // one was sent, before its reply could be read. Replay it
                // on a reconnected transport — the request may execute
                // twice at the site, the same hazard any retry of a
                // timed-out request has.
                self.reconnect_inner();
                self.health.note_attempt();
                match self.inner.call(entry.msg.clone()) {
                    Ok(reply) => Ok(reply),
                    Err(e) => {
                        self.note_failure(&e);
                        self.retry_after(entry.msg, e)
                    }
                }
            }
            // A deferred send failure: the retry below settles what is
            // still on the wire before it reconnects.
            Flight::Unsent(e) => self.retry_after(entry.msg, e),
        };
        match result {
            Ok(_) => self.health.note_success(),
            Err(_) => self.health.note_miss(),
        }
        result
    }

    fn reconnect(&mut self) -> Result<(), LinkError> {
        self.pending.clear();
        self.tickets.reset();
        // An explicit reconnect opens a fresh evidence window: probation
        // judges the rejoined link on what happens from here on.
        self.health.reset_window();
        self.inner.reconnect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BandwidthMeter, FaultMode, FaultyLink, LocalLink, Service};
    use std::time::Duration;

    fn echo_service() -> impl Service {
        |msg: Message| match msg {
            Message::RequestNext => Message::Upload(None),
            _ => Message::Ack,
        }
    }

    fn config(budget: u32) -> LinkConfig {
        LinkConfig {
            request_timeout: Duration::from_millis(100),
            retry_budget: budget,
            backoff: Duration::ZERO,
        }
    }

    fn stalled(budget: u32, stall: u64) -> RetryLink<FaultyLink<LocalLink<impl Service>>> {
        let inner = LocalLink::new(echo_service(), BandwidthMeter::new());
        RetryLink::new(FaultyLink::new(inner, FaultMode::Stall(stall), 1), config(budget))
    }

    #[test]
    fn retry_rides_out_a_stall_within_budget() {
        let mut link = stalled(2, 2);
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        // The stall swallows two attempts; two retries recover the answer.
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        let health = link.health().snapshot();
        assert_eq!(health.attempts, 4);
        assert_eq!(health.retries, 2);
        assert_eq!(health.timeouts, 2);
    }

    #[test]
    fn retry_budget_exhaustion_returns_the_last_error() {
        let mut link = stalled(1, 5);
        assert!(link.call(Message::RequestNext).is_ok());
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout));
        let health = link.health().snapshot();
        assert_eq!(health.attempts, 3); // healthy + first try + 1 retry
        assert_eq!(health.retries, 1);
    }

    #[test]
    fn zero_budget_fails_fast() {
        let mut link = stalled(0, 1);
        assert!(link.call(Message::RequestNext).is_ok());
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout));
        assert_eq!(link.health().snapshot().retries, 0);
    }

    #[test]
    fn split_path_retries_on_complete() {
        let mut link = stalled(2, 2);
        let ticket = link.send(Message::RequestNext).unwrap();
        assert_eq!(link.complete(ticket), Ok(Message::Upload(None)));
        // Second round hits the stall at send; complete absorbs it.
        let ticket = link.send(Message::RequestNext).unwrap();
        assert_eq!(link.complete(ticket), Ok(Message::Upload(None)));
        let health = link.health().snapshot();
        assert_eq!(health.attempts, 4);
        assert_eq!(health.retries, 2);
    }

    #[test]
    fn split_and_call_paths_account_identically() {
        let transcript = |split: bool| {
            let mut link = stalled(3, 2);
            for _ in 0..4 {
                let reply = if split {
                    let ticket = link.send(Message::RequestNext).unwrap();
                    link.complete(ticket)
                } else {
                    link.call(Message::RequestNext)
                };
                assert_eq!(reply, Ok(Message::Upload(None)));
            }
            link.health().snapshot()
        };
        assert_eq!(transcript(false), transcript(true));
    }

    /// A stall-faulted inline link whose service counts executions: the
    /// reply to the `k`-th executed request is
    /// `SurvivalReply { survival: k }`.
    fn counting_stalled(budget: u32, stall: u64) -> RetryLink<FaultyLink<LocalLink<impl Service>>> {
        let mut executed = 0u64;
        let service = move |_msg: Message| {
            executed += 1;
            Message::SurvivalReply { survival: executed as f64, pruned: 0 }
        };
        let inner = LocalLink::new(service, BandwidthMeter::new());
        RetryLink::new(FaultyLink::new(inner, FaultMode::Stall(stall), 1), config(budget))
    }

    fn executed(k: u64) -> Result<Message, LinkError> {
        Ok(Message::SurvivalReply { survival: k as f64, pruned: 0 })
    }

    #[test]
    fn deferred_send_failure_retries_in_send_order() {
        // Two requests in flight; the fault swallows the *first* of them at
        // send time. Its retry runs before the second request goes out, so
        // the site executes both in send order, each exactly once.
        let mut link = counting_stalled(2, 1);
        assert_eq!(link.call(Message::RequestNext), executed(1)); // healthy budget
        let first = link.send(Message::RequestNext).unwrap(); // swallowed, deferred
        let second = link.send(Message::RequestNext).unwrap(); // retries first, then #3
        assert_eq!(link.complete(first), executed(2));
        assert_eq!(link.complete(second), executed(3));
        assert_eq!(link.call(Message::RequestNext), executed(4));
        let health = link.health().snapshot();
        assert_eq!(health.retries, 1);
        assert_eq!(health.timeouts, 1);
        assert_eq!(health.attempts, 5);
    }

    #[test]
    fn deferred_failure_is_retried_at_completion_without_a_later_send() {
        let mut link = counting_stalled(2, 1);
        assert_eq!(link.call(Message::RequestNext), executed(1)); // healthy budget
        let ticket = link.send(Message::RequestNext).unwrap(); // swallowed, deferred
        assert_eq!(link.health().snapshot().retries, 0, "nothing retried before completion");
        assert_eq!(link.complete(ticket), executed(2));
        assert_eq!(link.health().snapshot().retries, 1);
    }

    #[test]
    fn mid_window_failure_settles_later_requests() {
        // The middle of three in-flight requests fails at send; the first
        // is already on the wire and is settled off it before the retry
        // reconnects, so every request executes once, in send order.
        let mut link = counting_stalled(2, 1);
        let first = link.send(Message::RequestNext).unwrap(); // healthy budget: #1
        let second = link.send(Message::RequestNext).unwrap(); // swallowed
        let third = link.send(Message::RequestNext).unwrap(); // settles #1, retries #2, then #3
        assert_eq!(link.complete(first), executed(1));
        assert_eq!(link.complete(second), executed(2));
        assert_eq!(link.complete(third), executed(3));

        // A fresh window after the drain behaves as if nothing happened.
        assert_eq!(link.call(Message::RequestNext), executed(4));
    }

    /// Over a socket, a request whose wire breaks under it (the read of
    /// an earlier reply timed out) cannot be settled and is replayed.
    #[test]
    fn broken_wire_replays_the_requests_behind_the_failure() {
        let server = crate::tcp::spawn_site({
            let mut first = true;
            move |msg: Message| {
                if first {
                    first = false;
                    std::thread::sleep(Duration::from_millis(250));
                }
                msg
            }
        })
        .unwrap();
        let config = LinkConfig {
            request_timeout: Duration::from_millis(100),
            retry_budget: 3,
            backoff: Duration::from_millis(10),
        };
        let tcp = crate::tcp::TcpLink::connect_with(server.addr(), BandwidthMeter::new(), config)
            .unwrap();
        let mut link = RetryLink::new(tcp, config);
        let first = link.send(Message::RequestNext).unwrap(); // stalls past its deadline
        let second = link.send(Message::Release).unwrap();
        assert_eq!(link.complete(first), Ok(Message::RequestNext)); // retried
        assert_eq!(link.complete(second), Ok(Message::Release)); // replayed
        assert!(link.health().snapshot().retries >= 1);
        drop(link);
        server.shutdown().unwrap();
    }

    #[test]
    fn retries_flow_into_the_recorder() {
        let recorder = Recorder::enabled();
        let inner = LocalLink::new(echo_service(), BandwidthMeter::new());
        let faulty = FaultyLink::new(inner, FaultMode::Stall(1), 0);
        let mut link = RetryLink::with_recorder(faulty, config(2), recorder.clone());
        assert!(link.call(Message::RequestNext).is_ok());
        assert_eq!(recorder.counter(Counter::LinkRetries), 1);
        assert_eq!(recorder.counter(Counter::LinkTimeouts), 1);
    }

    #[test]
    fn window_counters_reset_on_reconnect_but_cumulative_persist() {
        // A failure burst exhausts the budget, then an explicit reconnect
        // opens a fresh window: probation evidence starts from zero while
        // the cumulative history is preserved.
        let inner = LocalLink::new(echo_service(), BandwidthMeter::new());
        let faulty = FaultyLink::new(inner, FaultMode::Stall(3), 0);
        let mut link = RetryLink::new(faulty, config(1));
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout));
        let burst = link.health().snapshot();
        assert_eq!(burst.attempts, 2); // first try + 1 retry
        assert_eq!(burst.timeouts, 2);
        assert_eq!(burst.window_attempts, 2);
        assert_eq!(burst.window_timeouts, 2);
        assert_eq!(burst.consecutive_misses, 1);
        assert_eq!(burst.reconnects, 0);

        link.reconnect().expect("reconnect succeeds");
        let fresh = link.health().snapshot();
        assert_eq!(fresh.attempts, 2, "cumulative history survives the reconnect");
        assert_eq!(fresh.timeouts, 2);
        assert_eq!(fresh.window_attempts, 0, "the window starts over");
        assert_eq!(fresh.window_timeouts, 0);
        assert_eq!(fresh.reconnects, 1);
        // The stall has one faulted call left; it fails once more, then the
        // link is healthy — the success ends the miss streak while the
        // window records exactly the post-reconnect evidence.
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        let after = link.health().snapshot();
        assert_eq!(after.window_attempts, 2); // failed try + successful retry
        assert_eq!(after.window_timeouts, 1);
        assert_eq!(after.consecutive_misses, 0, "a reply resets the miss streak");
        assert_eq!(after.attempts, 4);
        assert_eq!(after.timeouts, 3);
    }

    #[test]
    fn consecutive_misses_accumulate_per_failed_request() {
        let inner = LocalLink::new(echo_service(), BandwidthMeter::new());
        let faulty = FaultyLink::new(inner, FaultMode::Disconnect, 0);
        let mut link = RetryLink::new(faulty, config(0));
        for expect in 1..=3u64 {
            assert_eq!(link.call(Message::RequestNext), Err(LinkError::Disconnected));
            assert_eq!(link.health().consecutive_misses(), expect);
        }
    }

    #[test]
    fn permanent_disconnect_exhausts_the_budget() {
        let inner = LocalLink::new(echo_service(), BandwidthMeter::new());
        let faulty = FaultyLink::new(inner, FaultMode::Disconnect, 0);
        let mut link = RetryLink::new(faulty, config(3));
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Disconnected));
        let health = link.health().snapshot();
        assert_eq!(health.attempts, 4);
        assert_eq!(health.retries, 3);
        assert_eq!(health.disconnects, 4);
    }
}
