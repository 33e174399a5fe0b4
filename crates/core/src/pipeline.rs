//! Split-phase requests, and the one place the `--pipeline` choice is made.
//!
//! Every request a round sends a single site — a draw's flush and refill
//! in one frame, a bare refill, a flush alone — is issued as a
//! [`Request`] and redeemed where its reply is needed.
//! [`Schedule::issue`] is the only point at which the
//! overlapped and sequential schedules differ: overlapped, the request
//! goes on the wire when it is issued and travels while the coordinator
//! does the work in between (the next request, the closing fan-out, the
//! fold); sequential, it is held and sent as a plain call when it is
//! redeemed. The coordinators issue and redeem in the same order under
//! both schedules, so the per-link message order, the fold order, and
//! every piece of server-side state evolve identically; only wire time
//! overlaps.
//!
//! A draw is one request, so on a flat topology a round never has more
//! than one outstanding frame per link, and every window of two or more
//! (including `auto`) runs the identical overlapped schedule.
//! Requests ride a [`Fanout`], so under a tree topology an outstanding
//! request shares its group's aggregator link with the fan-outs that
//! overlap it; the fan-out's per-link FIFO keeps each op paired with its
//! own reply.

use std::time::Instant;

use dsud_net::{Fanout, LinkError, Message, OpTicket};
use dsud_obs::{Counter, Recorder, SpanGuard};

use crate::QueryConfig;

/// One request to one site, either held for a plain call at redemption or
/// already on the wire.
pub(crate) struct Request {
    site: usize,
    state: State,
}

enum State {
    Held(Message),
    /// On the wire; a send-side failure is kept and becomes the reply,
    /// exactly like a failed `call`.
    Sent {
        sent: Result<OpTicket, LinkError>,
        issued: Instant,
    },
}

/// How a query's split-phase requests travel, plus the overlap
/// bookkeeping: the `"overlap"` span covers every stretch with a request
/// in flight, and [`Counter::RefillOverlapUs`] the time each one spent
/// there.
pub(crate) struct Schedule {
    overlapped: bool,
    in_flight: usize,
    overlap_span: Option<SpanGuard>,
    /// Whether the current round put any request on the wire early.
    round_overlapped: bool,
    rec: Recorder,
}

impl Schedule {
    /// The schedule `config.pipeline` asks for; records the window on
    /// [`Counter::PipelineDepth`].
    pub(crate) fn new(config: &QueryConfig, rec: &Recorder) -> Self {
        rec.add(Counter::PipelineDepth, config.pipeline.window() as u64);
        Schedule {
            overlapped: config.pipeline.overlapped(),
            in_flight: 0,
            overlap_span: None,
            round_overlapped: false,
            rec: rec.clone(),
        }
    }

    /// Issues `msg` to `site`: on the wire now under the overlapped
    /// schedule, otherwise held until [`Schedule::redeem`]. A held request
    /// that is abandoned is never sent.
    pub(crate) fn issue(&mut self, fan: &mut Fanout<'_>, site: usize, msg: Message) -> Request {
        if !self.overlapped {
            return Request { site, state: State::Held(msg) };
        }
        if self.in_flight == 0 {
            self.overlap_span = Some(self.rec.span("overlap"));
        }
        self.in_flight += 1;
        self.round_overlapped = true;
        Request { site, state: State::Sent { sent: fan.send(site, msg), issued: Instant::now() } }
    }

    /// The request's reply: a held request is sent and waited for now, an
    /// in-flight one is completed.
    pub(crate) fn redeem(
        &mut self,
        fan: &mut Fanout<'_>,
        request: Request,
    ) -> Result<Message, LinkError> {
        match request.state {
            State::Held(msg) => fan.call(request.site, msg),
            State::Sent { sent, issued } => {
                self.rec.add(Counter::RefillOverlapUs, issued.elapsed().as_micros() as u64);
                self.in_flight -= 1;
                if self.in_flight == 0 {
                    self.overlap_span = None;
                }
                sent.and_then(|ticket| fan.complete(request.site, ticket))
            }
        }
    }

    /// Drops a request whose reply is no longer wanted: a held one is
    /// never sent, an in-flight one is completed and its reply discarded,
    /// so no frame stays outstanding.
    pub(crate) fn abandon(&mut self, fan: &mut Fanout<'_>, request: Request) {
        if matches!(request.state, State::Sent { .. }) {
            let _ = self.redeem(fan, request);
        }
    }

    /// Closes the round's overlap accounting: a round that put any request
    /// on the wire ahead of its redemption counts once in
    /// [`Counter::OverlappedRounds`].
    pub(crate) fn end_round(&mut self) {
        if std::mem::take(&mut self.round_overlapped) {
            self.rec.incr(Counter::OverlappedRounds);
        }
    }
}
