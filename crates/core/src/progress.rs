//! Progressiveness trace: one [`ProgressEvent`] per skyline tuple the
//! coordinator reports, stamped with cumulative bandwidth and elapsed time —
//! the samples behind the paper's progressiveness curves (Section 7.5,
//! Figs. 12–13) — and the coordinators' shared report path that records
//! each confirmation and streams it to the caller round by round.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use dsud_net::{BandwidthMeter, MeterSnapshot, TupleMsg};
use dsud_uncertain::{SkylineEntry, TupleId};

/// One progressively-reported skyline result.
///
/// The paper evaluates progressiveness (Section 7.5, Figs. 12–13) by
/// plotting cumulative bandwidth and CPU time against the number of
/// skyline tuples already reported; each event is one sample of those
/// curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// 1-based rank of this result in report order.
    pub reported: usize,
    /// The reported tuple.
    pub id: TupleId,
    /// Its exact global skyline probability.
    pub probability: f64,
    /// Tuples transmitted over the network up to (and including) this
    /// report.
    pub tuples_transmitted: u64,
    /// Wall-clock time elapsed since the query started.
    pub elapsed: Duration,
}

/// The full progressiveness trace of one query run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProgressLog {
    events: Vec<ProgressEvent>,
}

impl ProgressLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. Called by the coordinators; `reported` is filled
    /// in automatically.
    pub(crate) fn push(
        &mut self,
        id: TupleId,
        probability: f64,
        tuples_transmitted: u64,
        elapsed: Duration,
    ) {
        let reported = self.events.len() + 1;
        self.events.push(ProgressEvent { reported, id, probability, tuples_transmitted, elapsed });
    }

    /// All events, in report order.
    pub fn events(&self) -> &[ProgressEvent] {
        &self.events
    }

    /// Number of results reported.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time to the first reported result, if any — the paper's headline
    /// progressiveness indicator.
    pub fn time_to_first(&self) -> Option<Duration> {
        self.events.first().map(|e| e.elapsed)
    }

    /// Bandwidth consumed up to the `k`-th report (1-based), if reached.
    pub fn bandwidth_at(&self, k: usize) -> Option<u64> {
        self.events.get(k.checked_sub(1)?).map(|e| e.tuples_transmitted)
    }
}

impl<'a> IntoIterator for &'a ProgressLog {
    type Item = &'a ProgressEvent;
    type IntoIter = std::slice::Iter<'a, ProgressEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// The coordinators' report path: every qualified tuple goes into the
/// answer, the recorder's progressive samples, and the [`ProgressLog`]
/// here, and [`Reporter::flush`] hands each closed round's confirmations to
/// the caller's sink — so a served client sees a result while the query is
/// still running, not after it returns.
pub(crate) struct Reporter<'a> {
    meter: &'a BandwidthMeter,
    start_traffic: MeterSnapshot,
    started: Instant,
    limit: Option<usize>,
    skyline: Vec<SkylineEntry>,
    progress: ProgressLog,
    /// How many entries of `skyline` the sink has already seen.
    flushed: usize,
    sink: &'a mut dyn FnMut(&[SkylineEntry], bool),
}

impl<'a> Reporter<'a> {
    /// Starts the query's clock and traffic baseline.
    pub(crate) fn new(
        meter: &'a BandwidthMeter,
        limit: Option<usize>,
        sink: &'a mut dyn FnMut(&[SkylineEntry], bool),
    ) -> Self {
        Reporter {
            meter,
            start_traffic: meter.snapshot(),
            started: Instant::now(),
            limit,
            skyline: Vec::new(),
            progress: ProgressLog::new(),
            flushed: 0,
            sink,
        }
    }

    /// Wall-clock time since the query started.
    pub(crate) fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Records one qualified tuple with its global probability; true once
    /// the progressive `limit` is reached and the query must stop.
    pub(crate) fn confirm(&mut self, t: &TupleMsg, global: f64) -> bool {
        self.skyline.push(SkylineEntry { tuple: t.to_tuple(), probability: global });
        let transmitted = self.traffic().tuples_transmitted();
        self.meter.recorder().progressive(t.id.site.0, t.id.seq, global, transmitted);
        self.progress.push(t.id, global, transmitted, self.started.elapsed());
        self.limit.is_some_and(|k| self.skyline.len() >= k)
    }

    /// Whether `n` more confirmations — a whole round's worth — could
    /// reach the `limit`.
    pub(crate) fn may_finish(&self, n: usize) -> bool {
        self.limit.is_some_and(|k| self.skyline.len() + n >= k)
    }

    /// Hands the entries confirmed since the last flush to the sink, if
    /// any. `exact` is false once a quarantined site's survival factors
    /// went missing: the entries are then upper bounds.
    pub(crate) fn flush(&mut self, exact: bool) {
        if self.flushed < self.skyline.len() {
            (self.sink)(&self.skyline[self.flushed..], exact);
            self.flushed = self.skyline.len();
        }
    }

    /// The answer, its progressive trace, and the query's traffic.
    pub(crate) fn finish(self) -> (Vec<SkylineEntry>, ProgressLog, MeterSnapshot) {
        let traffic = self.traffic();
        (self.skyline, self.progress, traffic)
    }

    fn traffic(&self) -> MeterSnapshot {
        self.meter.snapshot().since(&self.start_traffic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_numbers_events() {
        let mut log = ProgressLog::new();
        log.push(TupleId::new(0, 1), 0.9, 10, Duration::from_millis(5));
        log.push(TupleId::new(1, 2), 0.7, 25, Duration::from_millis(9));
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].reported, 1);
        assert_eq!(log.events()[1].reported, 2);
        assert_eq!(log.time_to_first(), Some(Duration::from_millis(5)));
        assert_eq!(log.bandwidth_at(2), Some(25));
        assert_eq!(log.bandwidth_at(3), None);
        assert_eq!(log.bandwidth_at(0), None);
    }

    #[test]
    fn empty_log_behaviour() {
        let log = ProgressLog::new();
        assert!(log.is_empty());
        assert!(log.time_to_first().is_none());
        assert_eq!((&log).into_iter().count(), 0);
    }
}
