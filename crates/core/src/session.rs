//! The session layer behind `dsud serve`: many concurrent queries over one
//! resident deployment.
//!
//! A one-shot [`Cluster`] builds its sites, answers a
//! single query, and dies — fine for experiments, wasteful for the
//! interactive, repeated querying the paper's progressive protocols are
//! designed for. [`SessionServer`] keeps the sites (and their PR-trees)
//! resident and multiplexes any number of DSUD / e-DSUD queries onto them:
//!
//! * **Query multiplexing** — the cluster's links are wrapped in
//!   [`SharedLink`]s; each admitted query gets its own query id and a set
//!   of [`MuxLink`]s that tag every frame with that id
//!   ([`dsud_net::Message::Tagged`]). Sites park per-query cursor state in
//!   a session table and dispatch each tagged frame through the ordinary
//!   one-shot handlers, so a multiplexed query is *bit-identical* to a
//!   one-shot run — same answers, same per-query traffic — which the
//!   `serve_sessions` integration tests pin.
//! * **Admission control** — a deterministic FIFO gate bounds how many
//!   queries run concurrently ([`SessionOptions::max_concurrent`]); the
//!   microseconds spent queueing are reported per query
//!   ([`dsud_obs::Counter::AdmissionWaitUs`]).
//! * **Result cache** — completed answers are cached under their full
//!   query key (algorithm, threshold bits, subspace, limit, bound,
//!   synopsis, failure policy), so a repeated query on unchanged sites is
//!   served without a single candidate round
//!   ([`dsud_obs::Counter::CacheHits`], `rounds == 0` in its report). Any
//!   update applied through [`SessionServer::apply_update`] — the existing
//!   maintenance path — invalidates the whole cache before the site's tree
//!   changes become visible to queries.
//!
//! Answers stream: the `sink` of [`SessionServer::run_dsud`] /
//! [`SessionServer::run_edsud`] receives each coordinator round's
//! confirmations while the query is still running, so a client sees its
//! first result long before the last.
//!
//! Traffic accounting is two-level: each query's [`SessionOutcome`]
//! carries the per-query meter snapshot (identical to a one-shot run),
//! while [`SessionServer::meter`] aggregates the actual tagged frames
//! across all queries, id headers included.
//!
//! # Health, quarantine, and rejoin
//!
//! The daemon outlives transient site failures, so quarantine cannot stay
//! the one-way door it is for a one-shot [`Cluster`] run. The session
//! layer runs the full recovery lifecycle:
//!
//! * **Heartbeat** — [`SessionServer::heartbeat`] probes every site with a
//!   nonce-carrying [`dsud_net::Message::HealthProbe`] and matches the
//!   echoed [`dsud_net::Message::HealthAck`]. The schedule is
//!   deterministic: a sweep runs automatically after every
//!   [`SessionOptions::heartbeat_every`] served queries (query-count
//!   scheduled, never timer-driven, so runs replay exactly), or manually.
//!   A miss bumps [`dsud_obs::Counter::HeartbeatMisses`]; once a site's
//!   consecutive misses reach [`SessionOptions::miss_threshold`] it is
//!   quarantined ([`crate::SiteState::Quarantined`] stamped with the op-log
//!   epoch, so the server knows exactly which updates the site missed).
//! * **Probation and rejoin** — a quarantined site that answers a probe is
//!   explicitly reconnected (resetting the link's since-reconnect health
//!   window so probation decisions use fresh evidence), resynced (below),
//!   and moved to [`crate::SiteState::Probation`]; after
//!   [`SessionOptions::probation_probes`] further consecutive successful
//!   probes it rejoins as Active ([`dsud_obs::Counter::Rejoins`]).
//! * **Resync** — [`SessionServer::apply_update`] appends every update to
//!   a bounded, epoch-numbered op log; updates homed at a quarantined site
//!   are *deferred* (logged but not injected), and an inject that defeats
//!   the retry budget quarantines the home site and defers the same way —
//!   stamped one epoch before the op, so the replay covers it (injects
//!   are idempotent at the site, making re-delivery safe even when only
//!   the reply was lost). At rejoin the server
//!   replays the site's missed ops through the existing
//!   [`Maintainer::apply_local_only`] path
//!   ([`dsud_obs::Counter::ResyncOps`] per op), after which queries are
//!   bit-identical to a never-failed run — pinned by
//!   `tests/recovery_determinism.rs`. If the log was truncated past the
//!   site's quarantine epoch, the replay can no longer be proven complete
//!   and the server falls back to a full [`Maintainer::bootstrap`], which
//!   rebuilds and re-replicates the global skyline wholesale (see
//!   OPERATIONS.md for sizing [`SessionOptions::op_log_capacity`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use std::sync::Arc;

use dsud_net::server::{share, MuxLink, SharedLink};
use dsud_net::{
    tcp, BandwidthMeter, FanPlan, Fanout, Link, LinkHealth, Message, MeterSnapshot, Routes,
};
use dsud_obs::{Counter, Recorder, RunReport};
use dsud_uncertain::SkylineEntry;

use crate::degrade::FailureTracker;
use crate::update::{Maintainer, UpdateOp};
use crate::{
    dsud, edsud, BoundMode, Cluster, Error, FailurePolicy, ProgressLog, QuarantineReason,
    QueryConfig, QueryOutcome, RunStats, SiteState, SiteStatus,
};

/// Session-server knobs: concurrency, caching, and the recovery lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionOptions {
    /// Maximum queries running concurrently; admitted FIFO beyond that.
    /// Must be at least 1.
    pub max_concurrent: usize,
    /// Result-cache capacity in entries (FIFO eviction); 0 disables the
    /// cache entirely.
    pub cache_capacity: usize,
    /// Run a heartbeat sweep automatically after every this-many served
    /// queries (query-count scheduled, so runs are deterministic and
    /// replayable); 0 (the default) disables the automatic schedule —
    /// [`SessionServer::heartbeat`] can still be driven manually.
    pub heartbeat_every: u64,
    /// Consecutive missed exchanges (probes or query rounds, as tracked by
    /// the retry layer) before a site is quarantined by the heartbeat.
    pub miss_threshold: u64,
    /// Consecutive successful probes a probation site must answer before
    /// it rejoins as Active.
    pub probation_probes: u64,
    /// Bounded op-log capacity in entries. The log must cover every update
    /// deferred during an outage for the replay path to restore the site
    /// exactly; once truncated past a site's quarantine epoch, its rejoin
    /// takes the full-bootstrap path instead (see the module docs).
    pub op_log_capacity: usize,
    /// Probability threshold for the post-truncation
    /// [`Maintainer::bootstrap`] replica rebuild. Session queries carry
    /// their own thresholds; this one only shapes the recovery-time
    /// replicated skyline.
    pub bootstrap_q: f64,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            max_concurrent: 8,
            cache_capacity: 64,
            heartbeat_every: 0,
            miss_threshold: 3,
            probation_probes: 2,
            op_log_capacity: 1024,
            bootstrap_q: 0.5,
        }
    }
}

/// Counters describing a session server's lifetime so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries answered (cache hits included).
    pub queries_served: u64,
    /// Queries answered from the result cache without any round.
    pub cache_hits: u64,
    /// Cached answers dropped by update-driven invalidation.
    pub cache_invalidated: u64,
    /// Updates applied through the maintenance path.
    pub updates_applied: u64,
    /// Current number of cached answers.
    pub cache_entries: usize,
    /// Highest number of queries that ran concurrently.
    pub peak_concurrent: usize,
    /// Heartbeat probes that went unanswered.
    pub heartbeat_misses: u64,
    /// Sites quarantined by heartbeat sweeps (cumulative: a site that
    /// flaps twice counts twice).
    pub quarantines: u64,
    /// Sites promoted back to Active after completing probation.
    pub rejoins: u64,
    /// Deferred updates replayed to rejoining sites.
    pub resync_ops: u64,
    /// Queries cut short by their per-query deadline.
    pub cancelled: u64,
}

/// What one heartbeat sweep observed and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeartbeatSummary {
    /// Health probes sent: one per physical root link, regardless of
    /// lifecycle state (in a flat topology that is one per site; behind an
    /// aggregator one probe covers the whole subtree, which the aggregator
    /// answers for itself).
    pub probed: u64,
    /// Probes answered with the matching nonce.
    pub acks: u64,
    /// Probes that failed or answered with the wrong frame.
    pub misses: u64,
    /// Sites newly quarantined by this sweep.
    pub quarantined: Vec<u32>,
    /// Quarantined sites that answered and entered probation (resynced).
    pub probation: Vec<u32>,
    /// Probation sites promoted back to Active by this sweep.
    pub rejoined: Vec<u32>,
    /// Deferred updates replayed during this sweep's resyncs.
    pub resync_ops: u64,
}

/// Result of one query answered by a [`SessionServer`].
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Server-assigned query id (also stamped into the report).
    pub query_id: u64,
    /// The query result. For a cache hit the skyline is the cached answer
    /// verbatim and the traffic / round counters are zero — no network
    /// round happened.
    pub outcome: QueryOutcome,
    /// Whether the answer came from the result cache.
    pub cache_hit: bool,
    /// Microseconds spent queueing at the admission gate.
    pub admission_wait_us: u64,
    /// Per-query run report (schema 6), when one was requested.
    pub report: Option<RunReport>,
}

/// Deterministic FIFO admission gate: tickets are served strictly in
/// arrival order, and at most `max` width runs at once. An update drains
/// the gate by acquiring the full width.
#[derive(Debug)]
struct Admission {
    max: usize,
    state: Mutex<AdmissionState>,
    turned: Condvar,
}

#[derive(Debug, Default)]
struct AdmissionState {
    next_ticket: u64,
    now_serving: u64,
    running: usize,
    peak: usize,
}

impl Admission {
    fn new(max: usize) -> Self {
        Admission {
            max: max.max(1),
            state: Mutex::new(AdmissionState::default()),
            turned: Condvar::new(),
        }
    }

    /// Blocks until this caller's turn comes *and* `width` slots are free;
    /// returns the microseconds waited. Strict FIFO: a wide request at the
    /// head of the queue blocks later narrow ones until it is admitted.
    fn acquire(&self, width: usize) -> u64 {
        let started = Instant::now();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        while !(state.now_serving == ticket && state.running + width <= self.max) {
            state = self.turned.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.now_serving += 1;
        state.running += width;
        // Peak tracks *query* concurrency; a full-width update drain is
        // exclusion, not concurrency, so it does not count.
        if width == 1 {
            state.peak = state.peak.max(state.running);
        }
        drop(state);
        // The next ticket may already satisfy its admission condition.
        self.turned.notify_all();
        started.elapsed().as_micros() as u64
    }

    fn release(&self, width: usize) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.running -= width;
        drop(state);
        self.turned.notify_all();
    }

    fn peak(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).peak
    }
}

/// Releases admitted width when the query scope ends, error paths included.
struct AdmissionGuard<'a> {
    admission: &'a Admission,
    width: usize,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.admission.release(self.width);
    }
}

/// Full identity of an answer: every knob that can change the result.
/// Batch size and pipeline depth are deliberately absent — they are
/// answer-invariant execution strategies (pinned by the differential
/// oracle), so differently-scheduled repeats share one cache entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    algorithm: &'static str,
    q_bits: u64,
    mask_bits: u64,
    limit: Option<usize>,
    bound: BoundMode,
    synopsis: Option<u16>,
    failure: FailurePolicy,
}

/// `(key → answer)` store with FIFO eviction.
#[derive(Debug, Default)]
struct ResultCache {
    map: HashMap<CacheKey, QueryOutcome>,
    order: VecDeque<CacheKey>,
    capacity: usize,
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        ResultCache { capacity, ..ResultCache::default() }
    }

    fn get(&self, key: &CacheKey) -> Option<QueryOutcome> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: CacheKey, outcome: QueryOutcome) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key.clone(), outcome).is_none() {
            self.order.push_back(key);
        }
        while self.order.len() > self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.map.remove(&evicted);
            }
        }
    }

    /// Drops everything; returns how many answers were invalidated.
    fn clear(&mut self) -> u64 {
        let dropped = self.map.len() as u64;
        self.map.clear();
        self.order.clear();
        dropped
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Bounded, epoch-numbered history of accepted updates. Epochs are
/// 1-based and strictly increasing; the log retains the most recent
/// `capacity` entries. A site quarantined at epoch `E` has seen every
/// update with epoch `<= E`, so its rejoin replays exactly the retained
/// entries homed at it with epoch `> E` — provided the log still covers
/// that range ([`OpLog::covers`]).
#[derive(Debug, Default)]
struct OpLog {
    ops: VecDeque<(u64, UpdateOp)>,
    next_epoch: u64,
    capacity: usize,
}

impl OpLog {
    fn new(capacity: usize) -> Self {
        OpLog { ops: VecDeque::new(), next_epoch: 1, capacity }
    }

    /// Appends one op and returns its epoch, evicting the oldest entries
    /// beyond capacity.
    fn push(&mut self, op: UpdateOp) -> u64 {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        if self.capacity > 0 {
            self.ops.push_back((epoch, op));
            while self.ops.len() > self.capacity {
                self.ops.pop_front();
            }
        }
        epoch
    }

    /// Whether every op with epoch `> since` is still retained.
    fn covers(&self, since: u64) -> bool {
        let first_retained = self.ops.front().map_or(self.next_epoch, |(e, _)| *e);
        first_retained <= since + 1
    }

    /// Retained ops homed at `site` with epoch `> since`, oldest first.
    fn missed_for(&self, site: u32, since: u64) -> Vec<UpdateOp> {
        self.ops
            .iter()
            .filter(|(e, op)| *e > since && op.site() == site)
            .map(|(_, op)| op.clone())
            .collect()
    }
}

/// Which coordinator a session query runs.
#[derive(Debug, Clone, Copy)]
enum Algo {
    Dsud,
    Edsud,
}

impl Algo {
    fn name(self) -> &'static str {
        match self {
            Algo::Dsud => "dsud",
            Algo::Edsud => "edsud",
        }
    }
}

/// A resident deployment serving many concurrent DSUD / e-DSUD queries —
/// the session layer of the `dsud serve` daemon (see the module docs).
///
/// Built from a fully-constructed [`Cluster`] (any transport); all methods
/// take `&self`, so one server can be shared across client threads behind
/// an [`std::sync::Arc`].
pub struct SessionServer {
    dims: usize,
    total_tuples: usize,
    /// The cluster's fan-out topology, routing tables and site covers,
    /// shared by every query's fan-out. `shared` and `health` are
    /// index-paired with the plan's root links (`routes.groups()`): one
    /// per site in a flat deployment, one per aggregator subtree
    /// otherwise.
    routes: Routes,
    /// Declared before `_servers` so the links drop first — same wind-down
    /// order [`Cluster`] itself maintains for its TCP transport.
    shared: Vec<SharedLink>,
    /// Server-wide aggregate meter (the cluster's): sees the tagged frames
    /// of every query, id headers included.
    meter: BandwidthMeter,
    /// Per-root-link retry-layer health, index-paired with `shared`. The
    /// heartbeat reads consecutive-miss counts from here; an explicit
    /// reconnect at probation start resets the since-reconnect window.
    health: Vec<Arc<LinkHealth>>,
    /// Site lifecycle (Active / Probation / Quarantined) across queries.
    lifecycle: Mutex<FailureTracker>,
    op_log: Mutex<OpLog>,
    options: SessionOptions,
    admission: Admission,
    cache: Mutex<ResultCache>,
    next_query: AtomicU64,
    heartbeat_nonce: AtomicU64,
    queries_served: AtomicU64,
    cache_hits: AtomicU64,
    cache_invalidated: AtomicU64,
    updates_applied: AtomicU64,
    heartbeat_misses: AtomicU64,
    quarantines: AtomicU64,
    rejoins: AtomicU64,
    resync_ops: AtomicU64,
    cancelled: AtomicU64,
    _servers: Vec<tcp::SiteServer>,
}

impl std::fmt::Debug for SessionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionServer")
            .field("dims", &self.dims)
            .field("sites", &self.routes.plan().sites())
            .field("root_fanout", &self.shared.len())
            .field("total_tuples", &self.total_tuples)
            .finish_non_exhaustive()
    }
}

impl SessionServer {
    /// Takes ownership of a constructed cluster and re-assembles it around
    /// shared, query-multiplexed links.
    pub fn new(cluster: Cluster, options: SessionOptions) -> Self {
        let (dims, total_tuples, links, health, meter, routes, servers) = cluster.into_parts();
        // The lifecycle tracker always degrades (quarantines) rather than
        // failing: a daemon-level health decision must never abort the
        // daemon. Per-query failure policies are unaffected — each run
        // still builds its own tracker. It tracks *sites*, even though the
        // daemon probes *links*: a missed group link quarantines every
        // member site behind it, so a lost aggregator degrades its whole
        // subtree as a unit.
        let sites = routes.plan().sites();
        let lifecycle =
            FailureTracker::new(sites, FailurePolicy::Degrade, meter.recorder().clone());
        SessionServer {
            dims,
            total_tuples,
            routes,
            shared: links.into_iter().map(share).collect(),
            meter,
            health,
            lifecycle: Mutex::new(lifecycle),
            op_log: Mutex::new(OpLog::new(options.op_log_capacity)),
            options,
            admission: Admission::new(options.max_concurrent),
            cache: Mutex::new(ResultCache::new(options.cache_capacity)),
            next_query: AtomicU64::new(1),
            heartbeat_nonce: AtomicU64::new(1),
            queries_served: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_invalidated: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            heartbeat_misses: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            resync_ops: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            _servers: servers,
        }
    }

    /// Dimensionality of the resident data space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of resident sites `m` (leaf sites, regardless of how many
    /// root links the topology plan collapses them behind).
    pub fn site_count(&self) -> usize {
        self.routes.plan().sites()
    }

    /// The fan-out topology the resident deployment was assembled with.
    pub fn plan(&self) -> &FanPlan {
        self.routes.plan()
    }

    /// Total tuples across all sites at construction time.
    pub fn total_tuples(&self) -> usize {
        self.total_tuples
    }

    /// The server-wide aggregate bandwidth meter (tagged frames of every
    /// query; per-query traffic lives in each [`SessionOutcome`]).
    pub fn meter(&self) -> &BandwidthMeter {
        &self.meter
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            queries_served: self.queries_served.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_invalidated: self.cache_invalidated.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            cache_entries: self.cache.lock().unwrap_or_else(PoisonError::into_inner).len(),
            peak_concurrent: self.admission.peak(),
            heartbeat_misses: self.heartbeat_misses.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            rejoins: self.rejoins.load(Ordering::Relaxed),
            resync_ops: self.resync_ops.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Current lifecycle state of every site, in site order.
    pub fn site_states(&self) -> Vec<SiteState> {
        let lifecycle = self.lifecycle.lock().unwrap_or_else(PoisonError::into_inner);
        (0..self.site_count()).map(|i| lifecycle.state(i).clone()).collect()
    }

    /// Per-site health records in the same shape query outcomes carry.
    pub fn site_statuses(&self) -> Vec<SiteStatus> {
        self.lifecycle.lock().unwrap_or_else(PoisonError::into_inner).statuses()
    }

    /// Runs one DSUD query through the session layer.
    ///
    /// `sink` is called on the calling thread once per coordinator round
    /// that confirmed tuples, with those entries and whether they are
    /// exact: `true` only if every site's survival factor was folded in and
    /// no site sat in session-level quarantine when the query was admitted;
    /// otherwise the probabilities are upper bounds. A cache hit runs no
    /// round and never calls `sink`; the returned outcome always carries
    /// the whole answer.
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::run_dsud`].
    pub fn run_dsud(
        &self,
        config: &QueryConfig,
        want_report: bool,
        sink: &mut dyn FnMut(&[SkylineEntry], bool),
    ) -> Result<SessionOutcome, Error> {
        self.run(Algo::Dsud, config, want_report, sink)
    }

    /// Runs one e-DSUD query through the session layer, streaming to
    /// `sink` as [`SessionServer::run_dsud`] does.
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::run_edsud`].
    pub fn run_edsud(
        &self,
        config: &QueryConfig,
        want_report: bool,
        sink: &mut dyn FnMut(&[SkylineEntry], bool),
    ) -> Result<SessionOutcome, Error> {
        self.run(Algo::Edsud, config, want_report, sink)
    }

    fn run(
        &self,
        algo: Algo,
        config: &QueryConfig,
        want_report: bool,
        sink: &mut dyn FnMut(&[SkylineEntry], bool),
    ) -> Result<SessionOutcome, Error> {
        // Validate before taking a queue slot so malformed queries cannot
        // stall well-formed ones behind them.
        let mask = config.resolve_mask(self.dims)?;
        let query_id = self.next_query.fetch_add(1, Ordering::Relaxed);

        let wait_us = self.admission.acquire(1);
        let _slot = AdmissionGuard { admission: &self.admission, width: 1 };

        let recorder = if want_report { Recorder::enabled() } else { Recorder::disabled() };
        recorder.add(Counter::AdmissionWaitUs, wait_us);

        let key = CacheKey {
            algorithm: algo.name(),
            q_bits: config.q.to_bits(),
            mask_bits: mask.bits(),
            limit: config.limit,
            bound: config.bound,
            synopsis: config.synopsis,
            failure: config.failure,
        };

        // Copy the cached answer out in its own statement so the cache
        // guard drops here: note_served() below can run a whole heartbeat
        // sweep, and a probe that moves a quarantined site into probation
        // resyncs it — which re-locks the cache to invalidate it. Holding
        // the guard across that path would self-deadlock (and even a
        // fault-free sweep would block every concurrent query behind the
        // cache lock for the duration of the probes).
        let cached = self.cache.lock().unwrap_or_else(PoisonError::into_inner).get(&key);
        if let Some(cached) = cached {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.note_served();
            recorder.incr(Counter::CacheHits);
            let mut progress = ProgressLog::new();
            for e in &cached.skyline {
                recorder.progressive(e.tuple.id().site.0, e.tuple.id().seq, e.probability, 0);
                progress.push(e.tuple.id(), e.probability, 0, Duration::ZERO);
            }
            let outcome = QueryOutcome {
                skyline: cached.skyline,
                progress,
                traffic: MeterSnapshot::default(),
                stats: RunStats::default(),
                degraded: false,
                cancelled: false,
                sites: Vec::new(),
                plan: None,
            };
            let report = finish_report(&recorder, algo, query_id);
            return Ok(SessionOutcome {
                query_id,
                outcome,
                cache_hit: true,
                admission_wait_us: wait_us,
                report,
            });
        }

        // A site in session-level quarantine may be missing deferred
        // updates, so nothing this query confirms is exact.
        let whole = !self.lifecycle.lock().unwrap_or_else(PoisonError::into_inner).degraded();
        let mut stamped = |entries: &[SkylineEntry], exact: bool| sink(entries, exact && whole);

        // Fresh per-query meter: this query's traffic snapshot starts at
        // zero exactly like a one-shot run's, so `outcome.traffic` is
        // bit-identical to the same query executed on a fresh cluster.
        let query_meter = BandwidthMeter::with_recorder(recorder.clone());
        let result = self.on_fanout(query_id, &query_meter, |fan| match algo {
            Algo::Dsud => dsud::run_on(fan, &query_meter, mask, config, &mut stamped),
            Algo::Edsud => edsud::run_on(fan, &query_meter, mask, config, &mut stamped),
        });
        // Clear the sites' parked cursor state for this query id whether
        // the run succeeded or not; the release is server bookkeeping, not
        // query traffic, so it bypasses the per-query meter (the shared
        // links still meter it into the server aggregate).
        self.release_sites(query_id);
        let mut outcome = result?;
        // A query answered while any site sits in session-level quarantine
        // may not reflect updates deferred for that site: stamp it
        // degraded so clients treat it as the not-fully-converged answer
        // it is. Probation sites are already resynced, so they don't
        // taint the answer.
        if self.lifecycle.lock().unwrap_or_else(PoisonError::into_inner).degraded() {
            outcome.degraded = true;
        }

        self.note_served();
        if outcome.cancelled {
            self.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        // A degraded answer carries upper bounds, not the answer an
        // intact repeat would produce, and a cancelled answer is a
        // partial one — never serve either from cache.
        if !outcome.degraded && !outcome.cancelled {
            self.cache.lock().unwrap_or_else(PoisonError::into_inner).insert(key, outcome.clone());
        }
        let report = finish_report(&recorder, algo, query_id);
        Ok(SessionOutcome {
            query_id,
            outcome,
            cache_hit: false,
            admission_wait_us: wait_us,
            report,
        })
    }

    /// Applies one update through the existing maintenance path and
    /// invalidates the result cache.
    ///
    /// The update drains the admission gate first (it acquires the full
    /// concurrent width, FIFO like any query), so it never interleaves
    /// with a running query's rounds, and every query admitted after it
    /// sees both the new tree state and an empty cache.
    ///
    /// Every accepted update is appended to the bounded, epoch-numbered op
    /// log first. If the home site is quarantined the injection is
    /// *deferred*: the op stays in the log and is replayed when the site
    /// rejoins (see the module docs), so a flapping site never turns an
    /// update into an error. An inject that defeats the whole retry budget
    /// on a still-Active home site is handled the same way: the site is
    /// quarantined on the spot (stamped one epoch before this op, so the
    /// rejoin resync replays it) and the update reports success as a
    /// deferral — by then the op is already part of the server's history,
    /// and injects are idempotent at the site, so a request that executed
    /// with only its reply lost is safe to re-deliver.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] for an out-of-range home site.
    pub fn apply_update(&self, op: &UpdateOp) -> Result<(), Error> {
        let home = op.site() as usize;
        if home >= self.site_count() {
            return Err(Error::InvalidArgument("update names a site outside the cluster"));
        }
        self.admission.acquire(self.admission.max);
        let _all = AdmissionGuard { admission: &self.admission, width: self.admission.max };

        // Log first: the epoch stamps this update's place in history, and
        // quarantine transitions record the epoch their site last saw.
        let epoch = self.op_log.lock().unwrap_or_else(PoisonError::into_inner).push(op.clone());
        let deferred = {
            let mut lifecycle = self.lifecycle.lock().unwrap_or_else(PoisonError::into_inner);
            lifecycle.set_epoch(epoch);
            !lifecycle.state(home).is_active()
        };

        if !deferred {
            // The site's tree changes; the maintenance notification (if
            // any) is dropped. The inject rides a fresh query id, which
            // opens no session slot at the site, so nothing needs
            // releasing; its traffic is server bookkeeping, metered only
            // on the server aggregate.
            let query_id = self.next_query.fetch_add(1, Ordering::Relaxed);
            let injected = self.on_fanout(query_id, &BandwidthMeter::new(), |fan| {
                Maintainer::apply_local_only(fan, op)
            });
            match injected {
                Ok(()) => {
                    self.updates_applied.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    // The whole retry budget failed. The op already sits in
                    // the log at `epoch`, so an error return would strand
                    // it: any later quarantine stamps an epoch >= `epoch`
                    // and the rejoin replay (epochs strictly after the
                    // stamp) would skip this op forever. Instead quarantine
                    // the home site now, stamped one epoch back, so its
                    // resync starts at `epoch - 1` and re-delivers exactly
                    // this op — safe even if the inject executed at the
                    // site with only the reply lost, because injects are
                    // idempotent (duplicate inserts and missing deletes
                    // ack as no-ops).
                    let mut lifecycle =
                        self.lifecycle.lock().unwrap_or_else(PoisonError::into_inner);
                    lifecycle.set_epoch(epoch - 1);
                    let reason = match e {
                        Error::SiteFailed { source, .. } => QuarantineReason::Transport(source),
                        other => QuarantineReason::Protocol(other.to_string()),
                    };
                    lifecycle.quarantine(home, reason);
                    lifecycle.set_epoch(epoch);
                    drop(lifecycle);
                    self.quarantines.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // Invalidate on deferral and inject failure too: the accepted
        // update is now part of the server's history even though the tree
        // change is pending — and a failed inject may still have executed
        // at the site with the reply lost, so cached answers cannot be
        // trusted either way.
        let dropped = self.cache.lock().unwrap_or_else(PoisonError::into_inner).clear();
        self.cache_invalidated.fetch_add(dropped, Ordering::Relaxed);
        Ok(())
    }

    /// Probes every site once and advances the recovery lifecycle (see the
    /// module docs). Runs automatically every
    /// [`SessionOptions::heartbeat_every`] served queries; calling it
    /// directly is equivalent and safe at any time — probes are control
    /// frames the sites answer without touching query state, and they are
    /// metered only on the server aggregate, never a query's own meter.
    pub fn heartbeat(&self) -> HeartbeatSummary {
        let rec = self.meter.recorder().clone();
        let mut summary = HeartbeatSummary::default();
        for i in 0..self.shared.len() {
            summary.probed += 1;
            let nonce = self.heartbeat_nonce.fetch_add(1, Ordering::Relaxed);
            let reply = self.shared[i].call(Message::HealthProbe { nonce });
            match reply {
                Ok(Message::HealthAck { nonce: echoed }) if echoed == nonce => {
                    summary.acks += 1;
                    for &site in &self.routes.groups()[i] {
                        self.probe_succeeded(site as usize, i, &mut summary);
                    }
                }
                Ok(_) => {
                    summary.misses += 1;
                    self.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
                    rec.incr(Counter::HeartbeatMisses);
                    for &site in &self.routes.groups()[i] {
                        self.probe_missed(
                            site as usize,
                            i,
                            QuarantineReason::Protocol(
                                "health probe answered with the wrong frame".into(),
                            ),
                            &mut summary,
                        );
                    }
                }
                Err(e) => {
                    summary.misses += 1;
                    self.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
                    rec.incr(Counter::HeartbeatMisses);
                    for &site in &self.routes.groups()[i] {
                        self.probe_missed(
                            site as usize,
                            i,
                            QuarantineReason::Transport(e.clone()),
                            &mut summary,
                        );
                    }
                }
            }
        }
        summary
    }

    /// One site (or the aggregator fronting it) answered its probe:
    /// advance Quarantined → Probation (with an explicit reconnect and a
    /// resync) or Probation → Active.
    fn probe_succeeded(&self, site: usize, link: usize, summary: &mut HeartbeatSummary) {
        let state =
            self.lifecycle.lock().unwrap_or_else(PoisonError::into_inner).state(site).clone();
        match state {
            SiteState::Quarantined { .. } => {
                // The site is reachable again. Reconnect explicitly so the
                // retry layer's since-reconnect window restarts — probation
                // must be judged on fresh evidence, not the failure burst
                // that caused the quarantine.
                let _ = self.shared[link].reconnect();
                let since = self
                    .lifecycle
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .begin_probation(site);
                if let Some(since) = since {
                    summary.resync_ops += self.resync(site as u32, since);
                    summary.probation.push(site as u32);
                }
            }
            SiteState::Probation { .. } => {
                let promoted = self
                    .lifecycle
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .probation_success(site, self.options.probation_probes);
                if promoted {
                    self.rejoins.fetch_add(1, Ordering::Relaxed);
                    self.meter.recorder().incr(Counter::Rejoins);
                    summary.rejoined.push(site as u32);
                }
            }
            SiteState::Active => {}
        }
    }

    /// One site missed its probe (directly or because its whole group link
    /// did): quarantine it once the retry layer's consecutive-miss count on
    /// that link reaches the threshold. A probation site that misses goes
    /// straight back to quarantine — its probe streak must not carry over.
    fn probe_missed(
        &self,
        site: usize,
        link: usize,
        reason: QuarantineReason,
        summary: &mut HeartbeatSummary,
    ) {
        if self.health[link].consecutive_misses() < self.options.miss_threshold {
            return;
        }
        let mut lifecycle = self.lifecycle.lock().unwrap_or_else(PoisonError::into_inner);
        if lifecycle.state(site).is_active() {
            lifecycle.quarantine(site, reason);
            self.quarantines.fetch_add(1, Ordering::Relaxed);
            summary.quarantined.push(site as u32);
        }
    }

    /// Replays the updates `site` missed since its quarantine epoch
    /// through the existing maintenance path, or — if the op log no longer
    /// covers that range — takes the full [`Maintainer::bootstrap`] path.
    /// Returns the number of ops replayed.
    fn resync(&self, site: u32, since: u64) -> u64 {
        let rec = self.meter.recorder().clone();
        let (covered, missed) = {
            let log = self.op_log.lock().unwrap_or_else(PoisonError::into_inner);
            (log.covers(since), log.missed_for(site, since))
        };
        // Resync frames ride a fresh query id: tagged like any query's, so
        // they interleave safely with concurrent queries on the shared
        // links. The meter is a throwaway — resync traffic is server
        // bookkeeping and already counted by the aggregate meter.
        let query_id = self.next_query.fetch_add(1, Ordering::Relaxed);
        let resync_meter = BandwidthMeter::new();
        let replayed = self.on_fanout(query_id, &resync_meter, |fan| {
            let mut replayed = 0u64;
            for op in &missed {
                if Maintainer::apply_local_only(fan, op).is_ok() {
                    replayed += 1;
                    rec.incr(Counter::ResyncOps);
                }
            }
            if !covered {
                // The log was truncated past the quarantine epoch: the
                // replay above covered only what is still retained, and
                // completeness can no longer be proven from the log.
                // Rebuild and re-replicate the global skyline wholesale;
                // errors leave the site in probation, where the next
                // heartbeat retries.
                if let (Ok(mask), Ok(config)) = (
                    crate::SubspaceMask::full(self.dims),
                    QueryConfig::new(self.options.bootstrap_q),
                ) {
                    let _ = Maintainer::bootstrap(fan, &resync_meter, mask, &config);
                }
            }
            replayed
        });
        self.release_sites(query_id);
        self.resync_ops.fetch_add(replayed, Ordering::Relaxed);
        // The rejoining site's tree just changed: cached answers predate
        // the replay.
        let dropped = self.cache.lock().unwrap_or_else(PoisonError::into_inner).clear();
        self.cache_invalidated.fetch_add(dropped, Ordering::Relaxed);
        replayed
    }

    /// Counts one served query and runs the deterministic heartbeat
    /// schedule: a sweep after every `heartbeat_every` served queries.
    fn note_served(&self) {
        let served = self.queries_served.fetch_add(1, Ordering::Relaxed) + 1;
        let every = self.options.heartbeat_every;
        if every > 0 && served.is_multiple_of(every) {
            self.heartbeat();
        }
    }

    /// Runs `f` over query `query_id`'s view of the deployment: one
    /// [`MuxLink`] per root link, tagging every frame with the id and
    /// metering it on `meter`, routed per site by the deployment's plan —
    /// so a tree-topology session query merges frames exactly like a
    /// one-shot tree run.
    fn on_fanout<R>(
        &self,
        query_id: u64,
        meter: &BandwidthMeter,
        f: impl FnOnce(&mut Fanout<'_>) -> R,
    ) -> R {
        let mut links: Vec<Box<dyn Link>> = self
            .shared
            .iter()
            .map(|s| Box::new(MuxLink::new(query_id, s.clone(), meter.clone())) as Box<dyn Link>)
            .collect();
        f(&mut Fanout::tree(&mut links, &self.routes, meter.recorder().clone()))
    }

    fn release_sites(&self, query_id: u64) {
        // Every release goes on the wire before any reply is awaited.
        let sent: Vec<_> = self
            .shared
            .iter()
            .map(|shared| {
                shared.send(Message::Tagged { query_id, inner: Box::new(Message::Release) })
            })
            .collect();
        for (shared, seq) in self.shared.iter().zip(sent) {
            if let Ok(seq) = seq {
                let _ = shared.complete(seq);
            }
        }
    }
}

/// Takes the per-query report (if recording) and stamps the schema-6
/// session fields the session layer owns. Transport / threads / batch /
/// pipeline stamps stay with the caller that knows them (the CLI), exactly
/// as on the one-shot path.
fn finish_report(recorder: &Recorder, algo: Algo, query_id: u64) -> Option<RunReport> {
    let mut report = recorder.report(algo.name())?;
    report.query_id = Some(query_id);
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_fifo_and_bounded() {
        let admission = Admission::new(2);
        admission.acquire(1);
        admission.acquire(1); // 2 running: at capacity
        let gate = std::sync::Arc::new(Admission::new(2));

        // Fill the gate, then race 8 more acquires; served order must be
        // ticket order and concurrency must never exceed the width.
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for i in 0..8u32 {
                let gate = std::sync::Arc::clone(&gate);
                let order = std::sync::Arc::clone(&order);
                s.spawn(move || {
                    gate.acquire(1);
                    order.lock().unwrap().push(i);
                    std::thread::sleep(Duration::from_millis(2));
                    gate.release(1);
                });
                // Stagger spawns so ticket order matches spawn order.
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let served = order.lock().unwrap().clone();
        assert_eq!(served, (0..8).collect::<Vec<_>>());
        assert!(gate.peak() <= 2);
    }

    #[test]
    fn result_cache_evicts_fifo_and_clears() {
        let mut cache = ResultCache::new(2);
        let key = |q: u64| CacheKey {
            algorithm: "edsud",
            q_bits: q,
            mask_bits: 3,
            limit: None,
            bound: BoundMode::default(),
            synopsis: None,
            failure: FailurePolicy::default(),
        };
        let outcome = QueryOutcome {
            skyline: Vec::new(),
            progress: ProgressLog::new(),
            traffic: MeterSnapshot::default(),
            stats: RunStats::default(),
            degraded: false,
            cancelled: false,
            sites: Vec::new(),
            plan: None,
        };
        cache.insert(key(1), outcome.clone());
        cache.insert(key(2), outcome.clone());
        cache.insert(key(3), outcome.clone()); // evicts key(1)
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.clear(), 2);
        assert!(cache.get(&key(2)).is_none());

        let mut disabled = ResultCache::new(0);
        disabled.insert(key(1), outcome);
        assert_eq!(disabled.len(), 0);
    }
}
