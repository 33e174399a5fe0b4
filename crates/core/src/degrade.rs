//! Degraded-mode bookkeeping: which sites failed, why, and what that does
//! to the answer.
//!
//! Both coordinators route every site reply through a failure tracker.
//! Under [`FailurePolicy::Strict`] the first exhausted-retry transport
//! failure (or protocol violation) aborts the query with a typed error
//! naming the site. Under [`FailurePolicy::Degrade`] the site is
//! *quarantined* instead: it is excluded from every later broadcast and
//! refill, the query completes over the survivors, and the outcome is
//! stamped [`QueryOutcome::degraded`](crate::QueryOutcome::degraded) with
//! one [`SiteStatus`] per site.
//!
//! **Correctness caveat, by design:** a quarantined site's tuples can no
//! longer contribute their `(1 − P(t'))` survival factors to Lemma 1's
//! product, so every probability reported by a degraded run is an *upper
//! bound* on the true global skyline probability — the answer may contain
//! tuples a healthy run would have rejected, but never misses a tuple the
//! surviving sites alone would qualify. Callers that need the exact answer
//! must use strict mode (the default) and retry the query.

use serde::{Deserialize, Serialize};

use dsud_net::{LinkError, Message, TupleMsg};
use dsud_obs::{Counter, Recorder};

use crate::{Error, FailurePolicy};

/// Why a site was quarantined during a degraded run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// The site's transport kept failing after the whole retry budget.
    Transport(LinkError),
    /// The site answered with something the protocol does not allow.
    Protocol(String),
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Transport(e) => write!(f, "transport failure: {e}"),
            QuarantineReason::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

/// Lifecycle state of one site in the quarantine → probation → recovered
/// loop.
///
/// A one-shot query only ever walks the first edge (healthy sites are
/// [`SiteState::Active`], failed ones end [`SiteState::Quarantined`]); the
/// long-lived session server drives the full cycle from its heartbeat
/// schedule: a quarantined site whose probe answers again is explicitly
/// reconnected and moved to [`SiteState::Probation`], resynced from the op
/// log, and promoted back to [`SiteState::Active`] once enough consecutive
/// probes succeed on the fresh evidence window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SiteState {
    /// Serving normally.
    Active,
    /// Reconnected after a quarantine: included in queries again, but
    /// still proving itself before the quarantine is forgotten.
    Probation {
        /// Op-log epoch at which the site rejoined the conversation.
        epoch: u64,
    },
    /// The coordinator has stopped talking to the site.
    Quarantined {
        /// Why the coordinator stopped talking to the site.
        reason: QuarantineReason,
        /// Op-log epoch at which the quarantine began — a later resync
        /// replays every update from this epoch on.
        epoch: u64,
    },
}

impl SiteState {
    /// Whether the coordinator should still talk to the site.
    pub fn is_active(&self) -> bool {
        !matches!(self, SiteState::Quarantined { .. })
    }
}

/// Post-run health record of one site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteStatus {
    /// The site's index in the cluster.
    pub site: u32,
    /// `None` while the site served the whole query; the quarantine cause
    /// once the coordinator stopped talking to it.
    pub quarantined: Option<QuarantineReason>,
    /// Full lifecycle state, stamped by trackers that know it. Absent
    /// (`None`) in records written before the recovery lifecycle existed.
    #[serde(default)]
    pub state: Option<SiteState>,
}

impl SiteStatus {
    /// Whether the site served the whole query.
    pub fn healthy(&self) -> bool {
        self.quarantined.is_none()
    }
}

/// Failure ledger shared by the DSUD and e-DSUD coordinators — and, held
/// long-lived behind the session server, the lifecycle state machine the
/// heartbeat schedule drives.
#[derive(Debug)]
pub(crate) struct FailureTracker {
    policy: FailurePolicy,
    states: Vec<SiteState>,
    /// Consecutive successful probes per site, counted only on probation.
    probe_streak: Vec<u64>,
    /// Current op-log epoch, stamped into quarantine/probation records.
    epoch: u64,
    /// Per site: whether its last refill reply of the query left its
    /// queue empty. A drained site has nothing left to prune, so feedback
    /// it provably cannot discount is skipped (see `crate::batch`).
    drained: Vec<bool>,
    recorder: Recorder,
}

impl FailureTracker {
    pub(crate) fn new(sites: usize, policy: FailurePolicy, recorder: Recorder) -> Self {
        FailureTracker {
            policy,
            states: vec![SiteState::Active; sites],
            probe_streak: vec![0; sites],
            epoch: 0,
            drained: vec![false; sites],
            recorder,
        }
    }

    /// Whether `site`'s last refill reply left its queue empty.
    pub(crate) fn is_drained(&self, site: usize) -> bool {
        self.drained[site]
    }

    /// Records what `site`'s latest refill reply said about its queue.
    pub(crate) fn note_refill(&mut self, site: usize, drained: bool) {
        self.drained[site] = drained;
    }

    /// Whether the coordinator should still talk to `site`.
    pub(crate) fn is_active(&self, site: usize) -> bool {
        self.states.get(site).is_none_or(SiteState::is_active)
    }

    /// Whether any site is currently quarantined.
    pub(crate) fn degraded(&self) -> bool {
        self.states.iter().any(|s| !s.is_active())
    }

    /// The lifecycle state of one site.
    pub(crate) fn state(&self, site: usize) -> &SiteState {
        &self.states[site]
    }

    /// Advances the op-log epoch stamped into later transitions.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The per-site records for the query outcome.
    pub(crate) fn statuses(&self) -> Vec<SiteStatus> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| SiteStatus {
                site: i as u32,
                quarantined: match s {
                    SiteState::Quarantined { reason, .. } => Some(reason.clone()),
                    _ => None,
                },
                state: Some(s.clone()),
            })
            .collect()
    }

    pub(crate) fn quarantine(&mut self, site: usize, reason: QuarantineReason) {
        if self.states[site].is_active() {
            self.states[site] = SiteState::Quarantined { reason, epoch: self.epoch };
            self.probe_streak[site] = 0;
            self.recorder.incr(Counter::QuarantinedSites);
        }
    }

    /// A quarantined site answered a probe again: move it to probation and
    /// return the epoch its quarantine began at (where the resync replay
    /// must start). `None` when the site was not quarantined.
    pub(crate) fn begin_probation(&mut self, site: usize) -> Option<u64> {
        match &self.states[site] {
            SiteState::Quarantined { epoch, .. } => {
                let since = *epoch;
                self.states[site] = SiteState::Probation { epoch: self.epoch };
                self.probe_streak[site] = 0;
                Some(since)
            }
            _ => None,
        }
    }

    /// A successful probe of a probation site. Returns `true` when the
    /// streak reaches `needed` and the site is promoted back to
    /// [`SiteState::Active`] (the rejoin). Active sites stay active;
    /// quarantined sites are not counted here.
    pub(crate) fn probation_success(&mut self, site: usize, needed: u64) -> bool {
        if let SiteState::Probation { .. } = self.states[site] {
            self.probe_streak[site] += 1;
            if self.probe_streak[site] >= needed {
                self.states[site] = SiteState::Active;
                self.probe_streak[site] = 0;
                return true;
            }
        }
        false
    }

    /// Handles a transport failure from `site`: strict mode aborts, degrade
    /// mode quarantines and continues.
    pub(crate) fn transport_failure(
        &mut self,
        site: usize,
        source: LinkError,
    ) -> Result<(), Error> {
        match self.policy {
            FailurePolicy::Strict => Err(Error::SiteFailed { site: site as u32, source }),
            FailurePolicy::Degrade => {
                self.quarantine(site, QuarantineReason::Transport(source));
                Ok(())
            }
        }
    }

    /// Handles a protocol violation from `site`: strict mode aborts with
    /// the original error, degrade mode quarantines and continues — a site
    /// talking nonsense is as lost to the query as an unreachable one.
    pub(crate) fn protocol_failure(&mut self, site: usize, error: Error) -> Result<(), Error> {
        match self.policy {
            FailurePolicy::Strict => Err(error),
            FailurePolicy::Degrade => {
                self.quarantine(site, QuarantineReason::Protocol(error.to_string()));
                Ok(())
            }
        }
    }

    /// Interprets a reply (or transport failure) from `site` with `parse`,
    /// the strict parser for the frame that was sent. A transport failure
    /// or a parse error is handled by the failure policy: strict mode
    /// aborts, degrade mode quarantines the site and yields `Ok(None)` —
    /// the site is lost and contributes nothing (for survival replies, no
    /// factor, which makes the folded product an upper bound; see the
    /// module docs).
    pub(crate) fn interpret<T>(
        &mut self,
        site: usize,
        reply: Result<Message, LinkError>,
        parse: impl FnOnce(u32, Message) -> Result<T, Error>,
    ) -> Result<Option<T>, Error> {
        let failure = match reply.map(|msg| parse(site as u32, msg)) {
            Ok(Ok(value)) => return Ok(Some(value)),
            Ok(Err(e)) => self.protocol_failure(site, e),
            Err(e) => self.transport_failure(site, e),
        };
        failure.map(|()| None)
    }

    /// Interprets an upload reply from `site`, noting whether it drained
    /// the site. `Ok(None)` covers both an exhausted site and a
    /// quarantined one.
    pub(crate) fn upload(
        &mut self,
        site: usize,
        reply: Result<Message, LinkError>,
    ) -> Result<Option<TupleMsg>, Error> {
        let Some((next, drained)) = self.interpret(site, reply, crate::cluster::expect_upload)?
        else {
            return Ok(None);
        };
        self.note_refill(site, drained);
        Ok(next)
    }

    /// Interprets the reply to a [`Message::Start`] from `site`, noting
    /// whether it drained the site: the first upload plus, when the start
    /// was `counted`, how many candidates remain behind it (0 for a plain
    /// start, and for a site lost here).
    pub(crate) fn started(
        &mut self,
        site: usize,
        reply: Result<Message, LinkError>,
        counted: bool,
    ) -> Result<(Option<TupleMsg>, u64), Error> {
        if !counted {
            return Ok((self.upload(site, reply)?, 0));
        }
        let Some((next, pending)) = self.interpret(site, reply, crate::cluster::expect_started)?
        else {
            return Ok((None, 0));
        };
        self.note_refill(site, pending == 0);
        Ok((next, pending))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{expect_survival, expect_survival_batch};

    #[test]
    fn strict_mode_aborts_on_first_transport_failure() {
        let mut tracker = FailureTracker::new(3, FailurePolicy::Strict, Recorder::disabled());
        let err = tracker.transport_failure(1, LinkError::Timeout).unwrap_err();
        assert_eq!(err, Error::SiteFailed { site: 1, source: LinkError::Timeout });
        assert!(!tracker.degraded());
    }

    #[test]
    fn degrade_mode_quarantines_and_continues() {
        let recorder = Recorder::enabled();
        let mut tracker = FailureTracker::new(3, FailurePolicy::Degrade, recorder.clone());
        tracker.transport_failure(1, LinkError::Disconnected).unwrap();
        assert!(tracker.degraded());
        assert!(!tracker.is_active(1));
        assert!(tracker.is_active(0) && tracker.is_active(2));
        // A second failure of the same site is not a second quarantine.
        tracker.transport_failure(1, LinkError::Timeout).unwrap();
        assert_eq!(recorder.counter(Counter::QuarantinedSites), 1);
        let statuses = tracker.statuses();
        assert_eq!(statuses.len(), 3);
        assert!(statuses[0].healthy() && statuses[2].healthy());
        assert_eq!(
            statuses[1].quarantined,
            Some(QuarantineReason::Transport(LinkError::Disconnected))
        );
    }

    #[test]
    fn degraded_replies_collapse_to_none() {
        let mut tracker = FailureTracker::new(2, FailurePolicy::Degrade, Recorder::disabled());
        assert_eq!(tracker.upload(0, Err(LinkError::Timeout)).unwrap(), None);
        assert_eq!(tracker.interpret(1, Ok(Message::Ack), expect_survival).unwrap(), None);
        assert!(!tracker.is_active(0) && !tracker.is_active(1));
        // A site lost at a counted start counts no candidates; a healthy
        // one counts its pending tail.
        let mut tracker = FailureTracker::new(2, FailurePolicy::Degrade, Recorder::disabled());
        assert_eq!(tracker.started(0, Err(LinkError::Timeout), true).unwrap(), (None, 0));
        let started = Message::Started { pending: 4, next: None };
        assert_eq!(tracker.started(1, Ok(started), true).unwrap(), (None, 4));
        assert!(!tracker.is_active(0) && tracker.is_active(1));
    }

    #[test]
    fn survival_batch_checks_length_and_quarantines_on_mismatch() {
        let two = |site, msg| expect_survival_batch(site, msg, 2);
        let mut tracker = FailureTracker::new(3, FailurePolicy::Degrade, Recorder::disabled());
        let good = Message::SurvivalBatchReply { survivals: vec![0.5, 0.75], pruned: 2 };
        assert_eq!(tracker.interpret(0, Ok(good), two).unwrap(), Some((vec![0.5, 0.75], 2)));
        // Too few factors: the site broke protocol and is quarantined.
        let short = Message::SurvivalBatchReply { survivals: vec![0.5], pruned: 0 };
        assert_eq!(tracker.interpret(1, Ok(short), two).unwrap(), None);
        assert!(!tracker.is_active(1));
        // Strict mode aborts on the same mismatch.
        let mut strict = FailureTracker::new(3, FailurePolicy::Strict, Recorder::disabled());
        let short = Message::SurvivalBatchReply { survivals: vec![0.5], pruned: 0 };
        assert!(strict.interpret(1, Ok(short), two).is_err());
    }

    #[test]
    fn statuses_serialize_round_trip() {
        let reason = QuarantineReason::Transport(LinkError::Io("boom".into()));
        let status = SiteStatus {
            site: 4,
            quarantined: Some(reason.clone()),
            state: Some(SiteState::Quarantined { reason, epoch: 7 }),
        };
        let json = serde_json::to_string(&status).unwrap();
        let back: SiteStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, status);
        assert!(!back.healthy());
        // Records written before the lifecycle existed still deserialize:
        // the state field defaults to None.
        let legacy: SiteStatus =
            serde_json::from_str(r#"{"site": 2, "quarantined": null}"#).unwrap();
        assert!(legacy.healthy());
        assert_eq!(legacy.state, None);
    }

    #[test]
    fn lifecycle_walks_quarantine_probation_active() {
        let recorder = Recorder::enabled();
        let mut tracker = FailureTracker::new(2, FailurePolicy::Degrade, recorder.clone());
        tracker.set_epoch(5);
        tracker.transport_failure(1, LinkError::Timeout).unwrap();
        assert_eq!(
            tracker.state(1),
            &SiteState::Quarantined {
                reason: QuarantineReason::Transport(LinkError::Timeout),
                epoch: 5
            }
        );
        assert!(!tracker.is_active(1));

        // Updates applied while the site is out advance the epoch; the
        // probation record carries the rejoin epoch, and begin_probation
        // hands back the quarantine epoch where the replay must start.
        tracker.set_epoch(9);
        assert_eq!(tracker.begin_probation(1), Some(5));
        assert_eq!(tracker.state(1), &SiteState::Probation { epoch: 9 });
        assert!(tracker.is_active(1), "probation sites serve queries again");
        assert!(!tracker.degraded(), "probation is not a degraded state");

        // Two of three required probes: still on probation.
        assert!(!tracker.probation_success(1, 3));
        assert!(!tracker.probation_success(1, 3));
        assert!(tracker.probation_success(1, 3), "third consecutive probe promotes");
        assert_eq!(tracker.state(1), &SiteState::Active);

        // begin_probation on a non-quarantined site is a no-op.
        assert_eq!(tracker.begin_probation(1), None);
        assert_eq!(tracker.begin_probation(0), None);
        // Only the one quarantine was counted.
        assert_eq!(recorder.counter(Counter::QuarantinedSites), 1);
    }

    #[test]
    fn probation_site_can_be_requarantined() {
        let mut tracker = FailureTracker::new(1, FailurePolicy::Degrade, Recorder::disabled());
        tracker.transport_failure(0, LinkError::Disconnected).unwrap();
        tracker.begin_probation(0);
        assert!(!tracker.probation_success(0, 2));
        // A fresh failure during probation throws the site back out and
        // resets the streak.
        tracker.transport_failure(0, LinkError::Timeout).unwrap();
        assert!(matches!(tracker.state(0), SiteState::Quarantined { .. }));
        tracker.begin_probation(0);
        assert!(!tracker.probation_success(0, 2), "the old streak must not carry over");
        assert!(tracker.probation_success(0, 2));
    }
}
