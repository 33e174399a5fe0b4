//! Protocol observability for DSUD / e-DSUD runs.
//!
//! The paper evaluates its algorithms along two axes: *bandwidth* (tuples
//! transmitted over the network, Section 3.2) and *progressiveness* (when
//! each skyline answer is reported, Section 7.5). This crate makes those
//! measures — plus the index-level work the paper's Section 6 cost model
//! talks about — observable on every run without changing any algorithm:
//!
//! * [`Recorder`] — a cheaply-cloneable handle threaded through the
//!   coordinator, the sites, the network meter, and the PR-tree. The
//!   default ([`Recorder::disabled`]) is a no-op whose every operation is
//!   one `Option` branch, so instrumented hot paths cost nothing when
//!   observability is off.
//! * [`Counter`] — the typed counters of the paper's cost model: tuples
//!   shipped, messages, bytes, feedback broadcasts, PR-tree nodes visited
//!   and subtrees pruned, candidates expunged, and so on.
//! * Hierarchical spans (`query → round → site-phase`) with wall-clock
//!   timing, recorded via [`Recorder::span`] RAII guards.
//! * [`RunReport`] — a schema-versioned, serde-serializable summary (one
//!   JSON file per run) assembled by [`Recorder::report`]; the `dsud` CLI
//!   (`--report`) and the bench harness (`BENCH_*.json`) both emit it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Version of the [`RunReport`] JSON schema. Bump on any breaking change
/// to the report layout so downstream tooling can dispatch on it.
///
/// Version history:
/// * 1 — counters + spans + progressive trace.
/// * 2 — adds per-phase wall-clock totals ([`RunReport::phases`]) and the
///   run's `transport` / `threads` configuration stamps.
/// * 3 — adds the fault-tolerance counters `link_retries`,
///   `link_timeouts`, and `quarantined_sites` to the counter snapshot.
///   Schema-1/2 files still deserialize (the new fields default to 0).
/// * 4 — adds the candidate-batching counters `batched_rounds` and
///   `multi_probe_node_visits` to the counter snapshot plus the run's
///   `batch_size` configuration stamp. Schema-1/2/3 files still
///   deserialize (counters default to 0, `batch_size` to `None`).
/// * 5 — adds the pipelining counters `pipeline_depth`,
///   `overlapped_rounds`, and `refill_overlap_us` to the counter snapshot
///   plus the run's `pipeline` configuration stamp. Schema ≤ 4 files still
///   deserialize (counters default to 0, `pipeline` to `None`).
/// * 6 — adds the session-layer counters `cache_hits` and
///   `admission_wait_us` to the counter snapshot plus the per-query
///   `query_id` stamp assigned by a `dsud serve` session server. Schema
///   ≤ 5 files still deserialize (counters default to 0, `query_id` to
///   `None`).
/// * 7 — adds the columnar-wire counters `columnar_frames`,
///   `bytes_saved`, and `decode_ns` to the counter snapshot plus the
///   run's `wire` configuration stamp. Schema ≤ 6 files still
///   deserialize (counters default to 0, `wire` to `None`).
/// * 8 — adds the recovery-lifecycle counters `rejoins`, `resync_ops`,
///   and `heartbeat_misses` plus the per-query-deadline counter
///   `cancelled` to the counter snapshot. Schema ≤ 7 files still
///   deserialize (counters default to 0).
/// * 9 — adds the topology counters `agg_merged_frames` and
///   `agg_fold_ops` to the counter snapshot plus the run's `topology`,
///   `agg_depth`, and `root_fanout` configuration stamps. Schema ≤ 8
///   files still deserialize (counters default to 0, stamps to `None`).
/// * 10 — adds the plan-phase counter `sketch_merges` to the counter
///   snapshot plus the run's `plan`, `sketch_bytes`, `plan_us`, and
///   `planned_batch` stamps. Schema ≤ 9 files still deserialize (the
///   counter defaults to 0, the stamps to `None`).
/// * 11 — adds the feedback-skipping counter `skipped_deliveries` to the
///   counter snapshot. Schema ≤ 10 files still deserialize (the counter
///   defaults to 0).
/// * 12 — drops the always-zero `sketch_merges` counter and the
///   always-zero `sketch_bytes` / `plan_us` stamps. Schema ≤ 11 files
///   still deserialize (the dropped fields are ignored).
/// * 13 — adds the deferred-draw counter `deferred_factors` to the
///   counter snapshot. Schema ≤ 12 files still deserialize (the counter
///   defaults to 0).
pub const SCHEMA_VERSION: u32 = 13;

/// Typed counters of the paper's cost model.
///
/// Traffic counters ([`Counter::BytesSent`], [`Counter::Messages`],
/// [`Counter::TuplesShipped`]) are fed by the network meter; coordinator
/// counters ([`Counter::Rounds`], [`Counter::FeedbackBroadcasts`],
/// [`Counter::Expunged`], [`Counter::PrunedAtSites`],
/// [`Counter::ProgressiveResults`]) by the DSUD / e-DSUD server loops;
/// index counters ([`Counter::PrTreeNodesVisited`],
/// [`Counter::PrTreePrunedSubtrees`], [`Counter::LocalSkylineSize`]) by
/// the PR-tree BBS traversals at the sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Wire-encoded bytes crossing the (simulated) network.
    BytesSent,
    /// Messages crossing the network (requests and responses).
    Messages,
    /// Tuple payloads transmitted — the paper's bandwidth unit
    /// (uploads + feedback + maintenance; control traffic carries none).
    TuplesShipped,
    /// Candidate broadcasts issued by the server (one per Server-Delivery
    /// phase, regardless of the number of receiving sites).
    FeedbackBroadcasts,
    /// Coordinator rounds (one queue-head selection each).
    Rounds,
    /// Candidates expunged by the e-DSUD bound without any broadcast.
    Expunged,
    /// Local-skyline candidates pruned at the sites by feedback
    /// (the Local-Pruning phase, Section 5.1).
    PrunedAtSites,
    /// PR-tree nodes expanded by BBS local-skyline traversals.
    PrTreeNodesVisited,
    /// PR-tree subtrees pruned by the BBS probability bound.
    PrTreePrunedSubtrees,
    /// Total size of the threshold-qualified local skylines `SKY(D_i)`.
    LocalSkylineSize,
    /// Skyline answers reported progressively to the user.
    ProgressiveResults,
    /// Link-level retries performed after a transport failure
    /// (fed by `dsud-net`'s `RetryLink`).
    LinkRetries,
    /// Link-level request deadlines that elapsed without a reply.
    LinkTimeouts,
    /// Sites quarantined by a degraded-mode coordinator after exhausting
    /// their retry budget.
    QuarantinedSites,
    /// Coordinator rounds that shipped more than one candidate in a single
    /// coalesced `FeedbackBatch` frame per site.
    BatchedRounds,
    /// PR-tree nodes visited by multi-probe survival traversals
    /// ([`survival_products`](https://docs.rs/dsud-prtree)): each node is
    /// counted once per traversal no matter how many probes needed it.
    MultiProbeNodeVisits,
    /// Configured pipeline window (in-flight requests per link), added once
    /// per query so reports record the depth the run was executed at.
    PipelineDepth,
    /// Coordinator rounds that put at least one site request (a feedback
    /// flush or a refill) on the wire ahead of completing it.
    OverlappedRounds,
    /// Microseconds those early site requests spent in flight while the
    /// coordinator did other work (other requests, survival folds,
    /// reporting) before completing them.
    RefillOverlapUs,
    /// Queries answered from a session server's result cache without a
    /// single candidate round (1 on the cached query's own report; the
    /// server also aggregates it across queries).
    CacheHits,
    /// Microseconds a query waited in the session server's FIFO admission
    /// queue before its first round could start.
    AdmissionWaitUs,
    /// Columnar bulk-data frames (`FeedbackBatchC`, `SurvivalBatchReplyC`,
    /// `ReplicaSyncC`, `RegionReplyC`) crossing the network, fed by the
    /// bandwidth meter.
    ColumnarFrames,
    /// Bytes the columnar encoding saved versus each frame's row-oriented
    /// legacy twin (saturating per frame: small frames where the columnar
    /// header premium exceeds the per-row saving contribute 0).
    BytesSaved,
    /// Nanoseconds spent decoding reply frames on the coordinator side of
    /// off-thread transports (channel / TCP). Inline transports hand the
    /// reply over as a value, so they contribute 0.
    DecodeNs,
    /// Quarantined sites that completed probation and rejoined the
    /// cluster as `Active` (fed by the session server's heartbeat loop).
    Rejoins,
    /// Update operations replayed to a rejoining site from the session
    /// server's op log (one per deferred `UpdateOp`).
    ResyncOps,
    /// Heartbeat probes that failed to draw a `HealthAck` from their
    /// site before the link's retry budget ran out.
    HeartbeatMisses,
    /// Queries cancelled by their `--deadline` before termination; the
    /// partial progressive outcome is stamped `cancelled`.
    Cancelled,
    /// Logical per-site deliveries the root link did *not* carry because a
    /// tree topology merged them into aggregate frames (per merged frame:
    /// member count minus one). Zero in a flat run.
    AggMergedFrames,
    /// Per-site replies the root folded out of merged `AggReplies` frames.
    /// Zero in a flat run.
    AggFoldOps,
    /// Feedback deliveries left out because the receiving site was
    /// drained and its dominance cover proved its survival factor is
    /// exactly 1.0 (one per site and candidate).
    SkippedDeliveries,
    /// Survival factors a batched round's draw left for a later frame of
    /// the round (the closing wave, the last draw or a refill) instead of
    /// computing them on the sequential draw chain.
    DeferredFactors,
}

const COUNTER_COUNT: usize = 32;

impl Counter {
    fn index(self) -> usize {
        self as usize
    }
}

/// One timed span of the `query → round → site-phase` hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span label, e.g. `"query:dsud"`, `"round"`, `"server-delivery"`.
    pub name: String,
    /// Index (into [`RunReport::spans`]) of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Microseconds from recorder creation to span start.
    pub start_us: u64,
    /// Microseconds from recorder creation to span end; `None` if the
    /// span was still open when the report was taken.
    pub end_us: Option<u64>,
}

/// Aggregate wall-clock spent in all spans sharing one label.
///
/// Spans nest, so phase totals overlap (e.g. every `"round"` contains a
/// `"server-delivery"`); totals answer "how long did we spend in phase X
/// overall", not "how do phases partition the run".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTotal {
    /// Span label this total aggregates, e.g. `"server-delivery"`.
    pub name: String,
    /// Number of spans recorded under this label.
    pub count: u64,
    /// Total microseconds across those spans. Spans still open when the
    /// report was taken are counted up to the report time.
    pub total_us: u64,
}

/// One progressively-reported skyline answer, timestamped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressSample {
    /// Home site of the reported tuple.
    pub site: u32,
    /// Sequence number of the reported tuple within its home site.
    pub seq: u64,
    /// Exact global skyline probability of the answer.
    pub probability: f64,
    /// Tuples transmitted over the network up to this report.
    pub tuples_transmitted: u64,
    /// Microseconds from recorder creation to the report.
    pub at_us: u64,
}

/// Final values of every [`Counter`], with stable JSON field names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Final value of [`Counter::BytesSent`].
    pub bytes_sent: u64,
    /// Final value of [`Counter::Messages`].
    pub messages: u64,
    /// Final value of [`Counter::TuplesShipped`].
    pub tuples_shipped: u64,
    /// Final value of [`Counter::FeedbackBroadcasts`].
    pub feedback_broadcasts: u64,
    /// Final value of [`Counter::Rounds`].
    pub rounds: u64,
    /// Final value of [`Counter::Expunged`].
    pub expunged: u64,
    /// Final value of [`Counter::PrunedAtSites`].
    pub pruned_at_sites: u64,
    /// Final value of [`Counter::PrTreeNodesVisited`].
    pub prtree_nodes_visited: u64,
    /// Final value of [`Counter::PrTreePrunedSubtrees`].
    pub prtree_pruned_subtrees: u64,
    /// Final value of [`Counter::LocalSkylineSize`].
    pub local_skyline_size: u64,
    /// Final value of [`Counter::ProgressiveResults`].
    pub progressive_results: u64,
    /// Final value of [`Counter::LinkRetries`]. Absent (0) before schema 3.
    #[serde(default)]
    pub link_retries: u64,
    /// Final value of [`Counter::LinkTimeouts`]. Absent (0) before schema 3.
    #[serde(default)]
    pub link_timeouts: u64,
    /// Final value of [`Counter::QuarantinedSites`]. Absent (0) before
    /// schema 3.
    #[serde(default)]
    pub quarantined_sites: u64,
    /// Final value of [`Counter::BatchedRounds`]. Absent (0) before
    /// schema 4.
    #[serde(default)]
    pub batched_rounds: u64,
    /// Final value of [`Counter::MultiProbeNodeVisits`]. Absent (0) before
    /// schema 4.
    #[serde(default)]
    pub multi_probe_node_visits: u64,
    /// Final value of [`Counter::PipelineDepth`]. Absent (0) before
    /// schema 5.
    #[serde(default)]
    pub pipeline_depth: u64,
    /// Final value of [`Counter::OverlappedRounds`]. Absent (0) before
    /// schema 5.
    #[serde(default)]
    pub overlapped_rounds: u64,
    /// Final value of [`Counter::RefillOverlapUs`]. Absent (0) before
    /// schema 5.
    #[serde(default)]
    pub refill_overlap_us: u64,
    /// Final value of [`Counter::CacheHits`]. Absent (0) before schema 6.
    #[serde(default)]
    pub cache_hits: u64,
    /// Final value of [`Counter::AdmissionWaitUs`]. Absent (0) before
    /// schema 6.
    #[serde(default)]
    pub admission_wait_us: u64,
    /// Final value of [`Counter::ColumnarFrames`]. Absent (0) before
    /// schema 7.
    #[serde(default)]
    pub columnar_frames: u64,
    /// Final value of [`Counter::BytesSaved`]. Absent (0) before schema 7.
    #[serde(default)]
    pub bytes_saved: u64,
    /// Final value of [`Counter::DecodeNs`]. Absent (0) before schema 7.
    #[serde(default)]
    pub decode_ns: u64,
    /// Final value of [`Counter::Rejoins`]. Absent (0) before schema 8.
    #[serde(default)]
    pub rejoins: u64,
    /// Final value of [`Counter::ResyncOps`]. Absent (0) before schema 8.
    #[serde(default)]
    pub resync_ops: u64,
    /// Final value of [`Counter::HeartbeatMisses`]. Absent (0) before
    /// schema 8.
    #[serde(default)]
    pub heartbeat_misses: u64,
    /// Final value of [`Counter::Cancelled`]. Absent (0) before schema 8.
    #[serde(default)]
    pub cancelled: u64,
    /// Final value of [`Counter::AggMergedFrames`]. Absent (0) before
    /// schema 9.
    #[serde(default)]
    pub agg_merged_frames: u64,
    /// Final value of [`Counter::AggFoldOps`]. Absent (0) before schema 9.
    #[serde(default)]
    pub agg_fold_ops: u64,
    /// Final value of [`Counter::SkippedDeliveries`]. Absent (0) before
    /// schema 11.
    #[serde(default)]
    pub skipped_deliveries: u64,
    /// Final value of [`Counter::DeferredFactors`]. Absent (0) before
    /// schema 13.
    #[serde(default)]
    pub deferred_factors: u64,
}

impl CounterSnapshot {
    fn from_array(c: &[u64; COUNTER_COUNT]) -> Self {
        CounterSnapshot {
            bytes_sent: c[Counter::BytesSent.index()],
            messages: c[Counter::Messages.index()],
            tuples_shipped: c[Counter::TuplesShipped.index()],
            feedback_broadcasts: c[Counter::FeedbackBroadcasts.index()],
            rounds: c[Counter::Rounds.index()],
            expunged: c[Counter::Expunged.index()],
            pruned_at_sites: c[Counter::PrunedAtSites.index()],
            prtree_nodes_visited: c[Counter::PrTreeNodesVisited.index()],
            prtree_pruned_subtrees: c[Counter::PrTreePrunedSubtrees.index()],
            local_skyline_size: c[Counter::LocalSkylineSize.index()],
            progressive_results: c[Counter::ProgressiveResults.index()],
            link_retries: c[Counter::LinkRetries.index()],
            link_timeouts: c[Counter::LinkTimeouts.index()],
            quarantined_sites: c[Counter::QuarantinedSites.index()],
            batched_rounds: c[Counter::BatchedRounds.index()],
            multi_probe_node_visits: c[Counter::MultiProbeNodeVisits.index()],
            pipeline_depth: c[Counter::PipelineDepth.index()],
            overlapped_rounds: c[Counter::OverlappedRounds.index()],
            refill_overlap_us: c[Counter::RefillOverlapUs.index()],
            cache_hits: c[Counter::CacheHits.index()],
            admission_wait_us: c[Counter::AdmissionWaitUs.index()],
            columnar_frames: c[Counter::ColumnarFrames.index()],
            bytes_saved: c[Counter::BytesSaved.index()],
            decode_ns: c[Counter::DecodeNs.index()],
            rejoins: c[Counter::Rejoins.index()],
            resync_ops: c[Counter::ResyncOps.index()],
            heartbeat_misses: c[Counter::HeartbeatMisses.index()],
            cancelled: c[Counter::Cancelled.index()],
            agg_merged_frames: c[Counter::AggMergedFrames.index()],
            agg_fold_ops: c[Counter::AggFoldOps.index()],
            skipped_deliveries: c[Counter::SkippedDeliveries.index()],
            deferred_factors: c[Counter::DeferredFactors.index()],
        }
    }

    /// The final value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        match counter {
            Counter::BytesSent => self.bytes_sent,
            Counter::Messages => self.messages,
            Counter::TuplesShipped => self.tuples_shipped,
            Counter::FeedbackBroadcasts => self.feedback_broadcasts,
            Counter::Rounds => self.rounds,
            Counter::Expunged => self.expunged,
            Counter::PrunedAtSites => self.pruned_at_sites,
            Counter::PrTreeNodesVisited => self.prtree_nodes_visited,
            Counter::PrTreePrunedSubtrees => self.prtree_pruned_subtrees,
            Counter::LocalSkylineSize => self.local_skyline_size,
            Counter::ProgressiveResults => self.progressive_results,
            Counter::LinkRetries => self.link_retries,
            Counter::LinkTimeouts => self.link_timeouts,
            Counter::QuarantinedSites => self.quarantined_sites,
            Counter::BatchedRounds => self.batched_rounds,
            Counter::MultiProbeNodeVisits => self.multi_probe_node_visits,
            Counter::PipelineDepth => self.pipeline_depth,
            Counter::OverlappedRounds => self.overlapped_rounds,
            Counter::RefillOverlapUs => self.refill_overlap_us,
            Counter::CacheHits => self.cache_hits,
            Counter::AdmissionWaitUs => self.admission_wait_us,
            Counter::ColumnarFrames => self.columnar_frames,
            Counter::BytesSaved => self.bytes_saved,
            Counter::DecodeNs => self.decode_ns,
            Counter::Rejoins => self.rejoins,
            Counter::ResyncOps => self.resync_ops,
            Counter::HeartbeatMisses => self.heartbeat_misses,
            Counter::Cancelled => self.cancelled,
            Counter::AggMergedFrames => self.agg_merged_frames,
            Counter::AggFoldOps => self.agg_fold_ops,
            Counter::SkippedDeliveries => self.skipped_deliveries,
            Counter::DeferredFactors => self.deferred_factors,
        }
    }
}

/// Schema-versioned summary of one instrumented run, serialized to one
/// JSON file per run by the CLI (`--report`) and the bench harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Layout version of this report ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which algorithm produced the run (`"dsud"`, `"edsud"`, ...).
    pub algorithm: String,
    /// Wall-clock milliseconds from recorder creation to report time.
    pub wall_ms: f64,
    /// Final counter values.
    pub counters: CounterSnapshot,
    /// Every recorded span, in start order. `parent` indices point into
    /// this same vector, encoding the `query → round → site-phase` tree.
    pub spans: Vec<SpanRecord>,
    /// Wall-clock totals aggregated from [`RunReport::spans`] by label,
    /// sorted by name. Derived at report time; absent in schema 1 files.
    #[serde(default)]
    pub phases: Vec<PhaseTotal>,
    /// Transport the run used (`"inline"`, `"threaded"`, `"tcp"`), stamped
    /// by the caller that knows it (e.g. the CLI); `None` otherwise.
    #[serde(default)]
    pub transport: Option<String>,
    /// Thread-pool size the compute layer ran with, stamped by the caller;
    /// `None` otherwise.
    #[serde(default)]
    pub threads: Option<usize>,
    /// Candidate batch size the coordinator ran with (`"1"`, `"16"`,
    /// `"auto"`), stamped by the caller that knows it; `None` otherwise.
    /// Absent before schema 4.
    #[serde(default)]
    pub batch_size: Option<String>,
    /// Pipeline depth the coordinator ran with (`"1"`, `"8"`, `"auto"`),
    /// stamped by the caller that knows it; `None` otherwise. Absent
    /// before schema 5.
    #[serde(default)]
    pub pipeline: Option<String>,
    /// Session-server query id this report belongs to, stamped by a
    /// `dsud serve` session layer; `None` for one-shot runs. Absent before
    /// schema 6.
    #[serde(default)]
    pub query_id: Option<u64>,
    /// Wire layout the run used (`"legacy"`, `"columnar"`), stamped by the
    /// caller that knows it; `None` otherwise. Absent before schema 7.
    #[serde(default)]
    pub wire: Option<String>,
    /// Topology the run fanned out through (`"flat"`, `"tree:4"`,
    /// `"auto"`), stamped by the caller that knows it; `None` otherwise.
    /// Absent before schema 9.
    #[serde(default)]
    pub topology: Option<String>,
    /// Aggregation layers between the root and the sites (0 = flat),
    /// stamped by the caller that knows it. Absent before schema 9.
    #[serde(default)]
    pub agg_depth: Option<u32>,
    /// Physical links the root held, stamped by the caller that knows it.
    /// Equals the site count in a flat run. Absent before schema 9.
    #[serde(default)]
    pub root_fanout: Option<usize>,
    /// Whether the run's rounds were planned, stamped by the caller that
    /// knows it: `"sketch"` when `--batch auto` rounds were sized from the
    /// counted Start, `"static"` at a fixed batch size; `None` otherwise.
    /// Absent before schema 10.
    #[serde(default)]
    pub plan: Option<String>,
    /// Effective `--batch auto` candidate budget the planner settled on —
    /// `⌈2√C⌉` clamped to `[16, 256]` for the cluster's exact candidate
    /// count `C` — stamped by the caller that knows it; `None` in
    /// fixed-batch runs. Absent before schema 10.
    #[serde(default)]
    pub planned_batch: Option<usize>,
    /// Progressive answer trace, in report order (timestamps are
    /// monotonically non-decreasing).
    pub progressive: Vec<ProgressSample>,
}

#[derive(Debug, Default)]
struct State {
    counters: [u64; COUNTER_COUNT],
    spans: Vec<SpanRecord>,
    /// Stack of indices into `spans` for the currently-open spans; the top
    /// is the parent of the next span started.
    open: Vec<usize>,
    progressive: Vec<ProgressSample>,
}

#[derive(Debug)]
struct Inner {
    started: Instant,
    state: Mutex<State>,
}

impl Inner {
    fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared handle onto one run's observations.
///
/// Cloning is cheap and produces a handle onto the same state, so the same
/// recorder can be threaded through the coordinator, the network meter,
/// and every site's PR-tree. The disabled recorder (the [`Default`]) holds
/// no state at all: every operation short-circuits on one `Option` branch.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that observes nothing, at near-zero cost.
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// A live recorder; its clock starts now.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                started: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether observations are being collected.
    ///
    /// Use this to skip *preparing* expensive observations (e.g. summing a
    /// batch before [`Recorder::add`]); the recording calls themselves are
    /// already no-ops when disabled.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.state().counters[counter.index()] += n;
        }
    }

    /// Adds 1 to a counter.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        match &self.inner {
            Some(inner) => inner.state().counters[counter.index()],
            None => 0,
        }
    }

    /// Opens a timed span; it closes when the returned guard drops. Spans
    /// opened while another is open become its children, yielding the
    /// `query → round → site-phase` hierarchy in [`RunReport::spans`].
    pub fn span(&self, name: &str) -> SpanGuard {
        let index = self.inner.as_ref().map(|inner| {
            let at = inner.elapsed_us();
            let mut state = inner.state();
            let index = state.spans.len();
            let parent = state.open.last().copied();
            state.spans.push(SpanRecord {
                name: name.to_string(),
                parent,
                start_us: at,
                end_us: None,
            });
            state.open.push(index);
            index
        });
        SpanGuard { recorder: self.clone(), index }
    }

    /// Records one progressively-reported skyline answer (and bumps
    /// [`Counter::ProgressiveResults`]).
    pub fn progressive(&self, site: u32, seq: u64, probability: f64, tuples_transmitted: u64) {
        if let Some(inner) = &self.inner {
            let at_us = inner.elapsed_us();
            let mut state = inner.state();
            state.counters[Counter::ProgressiveResults.index()] += 1;
            state.progressive.push(ProgressSample {
                site,
                seq,
                probability,
                tuples_transmitted,
                at_us,
            });
        }
    }

    /// Assembles the run report; `None` when the recorder is disabled.
    ///
    /// Taking a report does not consume the recorder: it snapshots the
    /// current state, so mid-run reports are valid (open spans simply have
    /// `end_us: None`).
    pub fn report(&self, algorithm: &str) -> Option<RunReport> {
        let inner = self.inner.as_ref()?;
        let now_us = inner.elapsed_us();
        let wall_ms = inner.started.elapsed().as_secs_f64() * 1e3;
        let state = inner.state();
        Some(RunReport {
            schema_version: SCHEMA_VERSION,
            algorithm: algorithm.to_string(),
            wall_ms,
            counters: CounterSnapshot::from_array(&state.counters),
            phases: phase_totals(&state.spans, now_us),
            spans: state.spans.clone(),
            progressive: state.progressive.clone(),
            transport: None,
            threads: None,
            batch_size: None,
            pipeline: None,
            query_id: None,
            wire: None,
            topology: None,
            agg_depth: None,
            root_fanout: None,
            plan: None,
            planned_batch: None,
        })
    }
}

/// Aggregates spans by label into name-sorted [`PhaseTotal`]s. Spans still
/// open are counted up to `now_us`.
fn phase_totals(spans: &[SpanRecord], now_us: u64) -> Vec<PhaseTotal> {
    let mut totals: std::collections::BTreeMap<&str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for span in spans {
        let end = span.end_us.unwrap_or(now_us);
        let entry = totals.entry(span.name.as_str()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += end.saturating_sub(span.start_us);
    }
    totals
        .into_iter()
        .map(|(name, (count, total_us))| PhaseTotal { name: name.to_string(), count, total_us })
        .collect()
}

/// RAII guard closing a span opened by [`Recorder::span`].
#[derive(Debug)]
pub struct SpanGuard {
    recorder: Recorder,
    index: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(inner), Some(index)) = (&self.recorder.inner, self.index) else {
            return;
        };
        let at = inner.elapsed_us();
        let mut state = inner.state();
        state.spans[index].end_us = Some(at);
        // Usually the top of the open stack; guards dropped out of order
        // (e.g. a span held across an early return) are still removed.
        if let Some(pos) = state.open.iter().rposition(|&i| i == index) {
            state.open.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_observes_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.incr(Counter::Rounds);
        rec.add(Counter::BytesSent, 100);
        rec.progressive(0, 1, 0.5, 10);
        let _span = rec.span("query");
        assert_eq!(rec.counter(Counter::Rounds), 0);
        assert!(rec.report("dsud").is_none());
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        rec.incr(Counter::Rounds);
        clone.add(Counter::Rounds, 2);
        clone.add(Counter::BytesSent, 42);
        assert_eq!(rec.counter(Counter::Rounds), 3);
        assert_eq!(rec.counter(Counter::BytesSent), 42);
        let report = rec.report("dsud").unwrap();
        assert_eq!(report.counters.rounds, 3);
        assert_eq!(report.counters.get(Counter::BytesSent), 42);
    }

    #[test]
    fn spans_nest_by_parent_index() {
        let rec = Recorder::enabled();
        {
            let _query = rec.span("query:dsud");
            for _ in 0..2 {
                let _round = rec.span("round");
                let _phase = rec.span("server-delivery");
            }
        }
        let report = rec.report("dsud").unwrap();
        assert_eq!(report.spans.len(), 5);
        assert_eq!(report.spans[0].parent, None);
        assert_eq!(report.spans[1].parent, Some(0)); // round 1 under query
        assert_eq!(report.spans[2].parent, Some(1)); // phase under round 1
        assert_eq!(report.spans[3].parent, Some(0)); // round 2 under query
        assert_eq!(report.spans[4].parent, Some(3));
        for span in &report.spans {
            let end = span.end_us.expect("all spans closed");
            assert!(end >= span.start_us);
        }
    }

    #[test]
    fn open_spans_survive_mid_run_reports() {
        let rec = Recorder::enabled();
        let _query = rec.span("query:edsud");
        let report = rec.report("edsud").unwrap();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].end_us, None);
    }

    #[test]
    fn progressive_samples_are_timestamped_in_order() {
        let rec = Recorder::enabled();
        rec.progressive(0, 1, 0.9, 10);
        rec.progressive(1, 4, 0.7, 25);
        rec.progressive(2, 2, 0.5, 31);
        let report = rec.report("dsud").unwrap();
        assert_eq!(report.counters.progressive_results, 3);
        assert_eq!(report.progressive.len(), 3);
        for pair in report.progressive.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us);
            assert!(pair[0].tuples_transmitted <= pair[1].tuples_transmitted);
        }
    }

    #[test]
    fn phases_aggregate_spans_by_name() {
        let rec = Recorder::enabled();
        {
            let _query = rec.span("query:dsud");
            for _ in 0..3 {
                let _round = rec.span("round");
            }
        }
        let open = rec.span("to-server"); // still open at report time
        let report = rec.report("dsud").unwrap();
        drop(open);

        assert_eq!(report.phases.len(), 3);
        // BTreeMap order: name-sorted.
        assert_eq!(report.phases[0].name, "query:dsud");
        assert_eq!(report.phases[0].count, 1);
        assert_eq!(report.phases[1].name, "round");
        assert_eq!(report.phases[1].count, 3);
        assert_eq!(report.phases[2].name, "to-server");
        assert_eq!(report.phases[2].count, 1);

        let round_spans: u64 = report
            .spans
            .iter()
            .filter(|s| s.name == "round")
            .map(|s| s.end_us.unwrap() - s.start_us)
            .sum();
        assert_eq!(report.phases[1].total_us, round_spans);
        assert_eq!(report.transport, None);
        assert_eq!(report.threads, None);
    }

    #[test]
    fn schema_one_reports_deserialize_with_defaults() {
        // A schema-1 file has no phases/transport/threads; they must fill
        // in as empty defaults rather than failing the parse.
        let json = r#"{
            "schema_version": 1,
            "algorithm": "dsud",
            "wall_ms": 1.5,
            "counters": {
                "bytes_sent": 0, "messages": 0, "tuples_shipped": 0,
                "feedback_broadcasts": 0, "rounds": 0, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 0
            },
            "spans": [],
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert!(report.phases.is_empty());
        assert_eq!(report.transport, None);
        assert_eq!(report.threads, None);
    }

    #[test]
    fn schema_two_reports_deserialize_with_zero_fault_counters() {
        // A schema-2 file predates the fault-tolerance counters; they must
        // fill in as zero rather than failing the parse.
        let json = r#"{
            "schema_version": 2,
            "algorithm": "edsud",
            "wall_ms": 2.5,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1
            },
            "spans": [],
            "phases": [],
            "transport": "tcp",
            "threads": 4,
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.link_retries, 0);
        assert_eq!(report.counters.link_timeouts, 0);
        assert_eq!(report.counters.quarantined_sites, 0);
        assert_eq!(report.counters.get(Counter::LinkRetries), 0);
        assert_eq!(report.transport.as_deref(), Some("tcp"));
    }

    #[test]
    fn schema_three_reports_deserialize_with_zero_batch_counters() {
        // A schema-3 file predates the batching counters and the
        // `batch_size` stamp; they must fill in as zero / `None`.
        let json = r#"{
            "schema_version": 3,
            "algorithm": "dsud",
            "wall_ms": 1.0,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1, "link_retries": 0,
                "link_timeouts": 0, "quarantined_sites": 0
            },
            "spans": [],
            "phases": [],
            "transport": "inline",
            "threads": 1,
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.batched_rounds, 0);
        assert_eq!(report.counters.multi_probe_node_visits, 0);
        assert_eq!(report.counters.get(Counter::BatchedRounds), 0);
        assert_eq!(report.batch_size, None);
    }

    #[test]
    fn schema_four_reports_deserialize_with_zero_pipeline_counters() {
        // A schema-4 file predates the pipelining counters and the
        // `pipeline` stamp; they must fill in as zero / `None`.
        let json = r#"{
            "schema_version": 4,
            "algorithm": "dsud",
            "wall_ms": 1.0,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1, "link_retries": 0,
                "link_timeouts": 0, "quarantined_sites": 0,
                "batched_rounds": 2, "multi_probe_node_visits": 40
            },
            "spans": [],
            "phases": [],
            "transport": "inline",
            "threads": 1,
            "batch_size": "auto",
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.batched_rounds, 2);
        assert_eq!(report.counters.pipeline_depth, 0);
        assert_eq!(report.counters.overlapped_rounds, 0);
        assert_eq!(report.counters.refill_overlap_us, 0);
        assert_eq!(report.counters.get(Counter::OverlappedRounds), 0);
        assert_eq!(report.pipeline, None);
    }

    #[test]
    fn schema_five_reports_deserialize_with_zero_session_counters() {
        // A schema-5 file predates the session-layer counters and the
        // `query_id` stamp; they must fill in as zero / `None`.
        let json = r#"{
            "schema_version": 5,
            "algorithm": "edsud",
            "wall_ms": 1.0,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1, "link_retries": 0,
                "link_timeouts": 0, "quarantined_sites": 0,
                "batched_rounds": 2, "multi_probe_node_visits": 40,
                "pipeline_depth": 2, "overlapped_rounds": 1,
                "refill_overlap_us": 300
            },
            "spans": [],
            "phases": [],
            "transport": "tcp",
            "threads": 4,
            "batch_size": "auto",
            "pipeline": "auto",
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.pipeline_depth, 2);
        assert_eq!(report.counters.cache_hits, 0);
        assert_eq!(report.counters.admission_wait_us, 0);
        assert_eq!(report.counters.get(Counter::CacheHits), 0);
        assert_eq!(report.query_id, None);
    }

    #[test]
    fn schema_six_reports_deserialize_with_zero_wire_counters() {
        // A schema-6 file predates the columnar-wire counters; they must
        // fill in as zero rather than failing the parse.
        let json = r#"{
            "schema_version": 6,
            "algorithm": "dsud",
            "wall_ms": 1.0,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1, "link_retries": 0,
                "link_timeouts": 0, "quarantined_sites": 0,
                "batched_rounds": 2, "multi_probe_node_visits": 40,
                "pipeline_depth": 2, "overlapped_rounds": 1,
                "refill_overlap_us": 300, "cache_hits": 1,
                "admission_wait_us": 50
            },
            "spans": [],
            "phases": [],
            "transport": "tcp",
            "threads": 4,
            "batch_size": "auto",
            "pipeline": "auto",
            "query_id": 3,
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.cache_hits, 1);
        assert_eq!(report.counters.columnar_frames, 0);
        assert_eq!(report.counters.bytes_saved, 0);
        assert_eq!(report.counters.decode_ns, 0);
        assert_eq!(report.counters.get(Counter::ColumnarFrames), 0);
        assert_eq!(report.query_id, Some(3));
    }

    #[test]
    fn schema_seven_reports_deserialize_with_zero_recovery_counters() {
        // A schema-7 file predates the recovery-lifecycle counters; they
        // must fill in as zero rather than failing the parse.
        let json = r#"{
            "schema_version": 7,
            "algorithm": "edsud",
            "wall_ms": 1.0,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1, "link_retries": 0,
                "link_timeouts": 0, "quarantined_sites": 0,
                "batched_rounds": 2, "multi_probe_node_visits": 40,
                "pipeline_depth": 2, "overlapped_rounds": 1,
                "refill_overlap_us": 300, "cache_hits": 1,
                "admission_wait_us": 50, "columnar_frames": 3,
                "bytes_saved": 128, "decode_ns": 900
            },
            "spans": [],
            "phases": [],
            "transport": "tcp",
            "threads": 4,
            "batch_size": "auto",
            "pipeline": "auto",
            "query_id": 3,
            "wire": "columnar",
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.columnar_frames, 3);
        assert_eq!(report.counters.rejoins, 0);
        assert_eq!(report.counters.resync_ops, 0);
        assert_eq!(report.counters.heartbeat_misses, 0);
        assert_eq!(report.counters.cancelled, 0);
        assert_eq!(report.counters.get(Counter::Rejoins), 0);
        assert_eq!(report.wire.as_deref(), Some("columnar"));
    }

    #[test]
    fn schema_eight_reports_deserialize_with_zero_topology_counters() {
        // A schema-8 file predates the topology counters and the
        // `topology` / `agg_depth` / `root_fanout` stamps; they must fill
        // in as zero / `None` rather than failing the parse.
        let json = r#"{
            "schema_version": 8,
            "algorithm": "dsud",
            "wall_ms": 1.0,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1, "link_retries": 0,
                "link_timeouts": 0, "quarantined_sites": 0,
                "batched_rounds": 2, "multi_probe_node_visits": 40,
                "pipeline_depth": 2, "overlapped_rounds": 1,
                "refill_overlap_us": 300, "cache_hits": 1,
                "admission_wait_us": 50, "columnar_frames": 3,
                "bytes_saved": 128, "decode_ns": 900,
                "rejoins": 1, "resync_ops": 5, "heartbeat_misses": 3,
                "cancelled": 0
            },
            "spans": [],
            "phases": [],
            "transport": "tcp",
            "threads": 4,
            "batch_size": "auto",
            "pipeline": "auto",
            "query_id": 3,
            "wire": "columnar",
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.rejoins, 1);
        assert_eq!(report.counters.agg_merged_frames, 0);
        assert_eq!(report.counters.agg_fold_ops, 0);
        assert_eq!(report.counters.get(Counter::AggMergedFrames), 0);
        assert_eq!(report.topology, None);
        assert_eq!(report.agg_depth, None);
        assert_eq!(report.root_fanout, None);
    }

    #[test]
    fn schema_nine_reports_deserialize_with_zero_plan_counters() {
        // A schema-9 file predates the `plan` / `planned_batch` stamps;
        // they must fill in as `None` rather than failing the parse.
        let json = r#"{
            "schema_version": 9,
            "algorithm": "dsud",
            "wall_ms": 1.0,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1, "link_retries": 0,
                "link_timeouts": 0, "quarantined_sites": 0,
                "batched_rounds": 2, "multi_probe_node_visits": 40,
                "pipeline_depth": 2, "overlapped_rounds": 1,
                "refill_overlap_us": 300, "cache_hits": 1,
                "admission_wait_us": 50, "columnar_frames": 3,
                "bytes_saved": 128, "decode_ns": 900,
                "rejoins": 1, "resync_ops": 5, "heartbeat_misses": 3,
                "cancelled": 0, "agg_merged_frames": 48, "agg_fold_ops": 64
            },
            "spans": [],
            "phases": [],
            "transport": "tcp",
            "threads": 4,
            "batch_size": "auto",
            "pipeline": "auto",
            "query_id": 3,
            "wire": "columnar",
            "topology": "tree:4",
            "agg_depth": 1,
            "root_fanout": 2,
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.agg_merged_frames, 48);
        assert_eq!(report.plan, None);
        assert_eq!(report.planned_batch, None);
    }

    #[test]
    fn schema_ten_reports_deserialize_with_a_zero_skip_counter() {
        let json = r#"{
            "schema_version": 10,
            "algorithm": "dsud",
            "wall_ms": 1.0,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1, "sketch_merges": 0
            },
            "spans": [],
            "phases": [],
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.messages, 4);
        assert_eq!(report.counters.skipped_deliveries, 0);
        assert_eq!(report.counters.get(Counter::SkippedDeliveries), 0);
    }

    #[test]
    fn skip_counter_flows_into_the_snapshot() {
        let rec = Recorder::enabled();
        rec.add(Counter::SkippedDeliveries, 5);
        let report = rec.report("dsud").unwrap();
        assert_eq!(report.counters.skipped_deliveries, 5);
        assert_eq!(report.counters.get(Counter::SkippedDeliveries), 5);
    }

    #[test]
    fn schema_eleven_reports_with_retired_plan_fields_deserialize() {
        // A schema-11 file carries the `sketch_merges` counter and the
        // `sketch_bytes` / `plan_us` stamps that schema 12 dropped; they
        // are ignored, and the kept plan stamps still read.
        let json = r#"{
            "schema_version": 11,
            "algorithm": "edsud",
            "wall_ms": 1.0,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1, "sketch_merges": 0,
                "skipped_deliveries": 7
            },
            "spans": [],
            "phases": [],
            "plan": "sketch",
            "sketch_bytes": 0,
            "plan_us": 0,
            "planned_batch": 24,
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.skipped_deliveries, 7);
        assert_eq!(report.counters.deferred_factors, 0);
        assert_eq!(report.plan.as_deref(), Some("sketch"));
        assert_eq!(report.planned_batch, Some(24));
        let out = serde_json::to_string(&report).unwrap();
        assert!(!out.contains("sketch_merges") && !out.contains("plan_us"), "{out}");
    }

    /// A schema-12 file (before the deferred-draw counter) still reads,
    /// with the counter at 0; the counter flows into new reports.
    #[test]
    fn schema_twelve_reports_deserialize_without_the_deferral_counter() {
        let json = r#"{
            "schema_version": 12,
            "algorithm": "dsud",
            "wall_ms": 1.0,
            "counters": {
                "bytes_sent": 9, "messages": 4, "tuples_shipped": 2,
                "feedback_broadcasts": 1, "rounds": 1, "expunged": 0,
                "pruned_at_sites": 0, "prtree_nodes_visited": 0,
                "prtree_pruned_subtrees": 0, "local_skyline_size": 0,
                "progressive_results": 1, "skipped_deliveries": 3
            },
            "spans": [],
            "phases": [],
            "planned_batch": 16,
            "progressive": []
        }"#;
        let report: RunReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.counters.skipped_deliveries, 3);
        assert_eq!(report.counters.get(Counter::DeferredFactors), 0);
        let rec = Recorder::enabled();
        rec.add(Counter::DeferredFactors, 11);
        let report = rec.report("dsud").unwrap();
        assert_eq!(report.counters.deferred_factors, 11);
        assert_eq!(report.counters.get(Counter::DeferredFactors), 11);
    }

    #[test]
    fn topology_counters_flow_into_the_snapshot() {
        let rec = Recorder::enabled();
        rec.add(Counter::AggMergedFrames, 48);
        rec.add(Counter::AggFoldOps, 64);
        let report = rec.report("dsud").unwrap();
        assert_eq!(report.counters.agg_merged_frames, 48);
        assert_eq!(report.counters.agg_fold_ops, 64);
        assert_eq!(report.counters.get(Counter::AggFoldOps), 64);
        assert_eq!(report.topology, None, "stamped by the caller, not the recorder");
    }

    #[test]
    fn recovery_counters_flow_into_the_snapshot() {
        let rec = Recorder::enabled();
        rec.incr(Counter::Rejoins);
        rec.add(Counter::ResyncOps, 5);
        rec.add(Counter::HeartbeatMisses, 3);
        rec.incr(Counter::Cancelled);
        let report = rec.report("edsud").unwrap();
        assert_eq!(report.counters.rejoins, 1);
        assert_eq!(report.counters.resync_ops, 5);
        assert_eq!(report.counters.heartbeat_misses, 3);
        assert_eq!(report.counters.cancelled, 1);
    }

    #[test]
    fn wire_counters_flow_into_the_snapshot() {
        let rec = Recorder::enabled();
        rec.add(Counter::ColumnarFrames, 4);
        rec.add(Counter::BytesSaved, 512);
        rec.add(Counter::DecodeNs, 9000);
        let report = rec.report("dsud").unwrap();
        assert_eq!(report.counters.columnar_frames, 4);
        assert_eq!(report.counters.bytes_saved, 512);
        assert_eq!(report.counters.decode_ns, 9000);
    }

    #[test]
    fn session_counters_flow_into_the_snapshot() {
        let rec = Recorder::enabled();
        rec.incr(Counter::CacheHits);
        rec.add(Counter::AdmissionWaitUs, 420);
        let report = rec.report("edsud").unwrap();
        assert_eq!(report.counters.cache_hits, 1);
        assert_eq!(report.counters.admission_wait_us, 420);
        assert_eq!(report.query_id, None);
    }

    #[test]
    fn pipeline_counters_flow_into_the_snapshot() {
        let rec = Recorder::enabled();
        rec.add(Counter::PipelineDepth, 2);
        rec.add(Counter::OverlappedRounds, 9);
        rec.add(Counter::RefillOverlapUs, 1500);
        let report = rec.report("dsud").unwrap();
        assert_eq!(report.counters.pipeline_depth, 2);
        assert_eq!(report.counters.overlapped_rounds, 9);
        assert_eq!(report.counters.refill_overlap_us, 1500);
    }

    #[test]
    fn batch_counters_flow_into_the_snapshot() {
        let rec = Recorder::enabled();
        rec.add(Counter::BatchedRounds, 5);
        rec.add(Counter::MultiProbeNodeVisits, 70);
        let report = rec.report("dsud").unwrap();
        assert_eq!(report.counters.batched_rounds, 5);
        assert_eq!(report.counters.multi_probe_node_visits, 70);
    }

    #[test]
    fn fault_counters_flow_into_the_snapshot() {
        let rec = Recorder::enabled();
        rec.add(Counter::LinkRetries, 3);
        rec.incr(Counter::LinkTimeouts);
        rec.incr(Counter::QuarantinedSites);
        let report = rec.report("dsud").unwrap();
        assert_eq!(report.counters.link_retries, 3);
        assert_eq!(report.counters.link_timeouts, 1);
        assert_eq!(report.counters.quarantined_sites, 1);
    }

    #[test]
    fn report_round_trips_through_json() {
        let rec = Recorder::enabled();
        {
            let _query = rec.span("query:dsud");
            let _round = rec.span("round");
            rec.incr(Counter::Rounds);
            rec.add(Counter::BytesSent, 1234);
            rec.progressive(3, 7, 0.625, 19);
        }
        let report = rec.report("dsud").unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn schema_version_is_stamped_into_the_json() {
        let report = Recorder::enabled().report("edsud").unwrap();
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"schema_version\""));
        assert!(json.contains("\"algorithm\""));
    }
}
