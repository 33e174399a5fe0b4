//! The JSON-lines wire protocol between `dsud client` and `dsud serve`.
//!
//! Each request is one JSON object on one line; the server answers with a
//! stream of JSON lines and keeps the connection open for the next request.
//! Exactly one of [`Request`]'s fields is set per line:
//!
//! * `{"query": {...}}` — run a query; the server streams one
//!   `{"result": ...}` line per skyline tuple *as it is confirmed*
//!   (preserving the algorithms' progressiveness end-to-end) and finishes
//!   with a `{"done": {...}}` summary, which embeds the per-query
//!   [`RunReport`] (schema [`dsud_core::SCHEMA_VERSION`]) when the client
//!   asked for one. The lines a coordinator round confirms are flushed
//!   together, in one write, while the query is still running; a cache hit
//!   sends its whole answer and the `done` line in one write. A query that
//!   fails mid-way may have streamed results before its `error` line.
//! * `{"update": {...}}` — apply an insert/delete through the maintenance
//!   path (invalidates the server's result cache); answered with one
//!   `{"updated": {...}}` line.
//! * `{"shutdown": true}` — stop the daemon; answered with `{"bye": true}`.
//!
//! Errors at any stage come back as a single `{"error": "..."}` line and
//! the connection stays usable.

use serde::{Deserialize, Serialize};

use dsud_core::RunReport;
use dsud_uncertain::UncertainTuple;

/// One client request line. Exactly one of `query` / `update` / `shutdown`
/// should be set; the server checks them in that order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Request {
    /// Run a skyline query.
    #[serde(default)]
    pub query: Option<QuerySpec>,
    /// Apply a data update.
    #[serde(default)]
    pub update: Option<UpdateSpec>,
    /// Stop the daemon after replying.
    #[serde(default)]
    pub shutdown: bool,
}

/// What to compute. Execution knobs (transport, failure policy, batching,
/// pipelining) are fixed server-side by `dsud serve`'s flags — clients
/// choose *what* to ask, the operator chooses *how* it runs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QuerySpec {
    /// `"dsud"` or `"edsud"` (default).
    #[serde(default)]
    pub algorithm: Option<String>,
    /// Probability threshold `q`; defaults to 0.3.
    #[serde(default)]
    pub q: Option<f64>,
    /// Subspace dimension indices; full space when absent.
    #[serde(default)]
    pub subspace: Option<Vec<usize>>,
    /// Progressive top-k limit.
    #[serde(default)]
    pub limit: Option<usize>,
    /// Ask for a per-query [`RunReport`] in the `done` line.
    #[serde(default)]
    pub report: bool,
    /// Per-query deadline in milliseconds: the server cancels the query at
    /// the next coordinator round boundary, streams the partial answer, and
    /// stamps the `done` line `cancelled`.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

/// One maintenance operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UpdateSpec {
    /// `"insert"` or `"delete"`.
    pub op: String,
    /// The tuple; its id names the home site.
    pub tuple: UncertainTuple,
}

/// One server response line. Exactly one field is set.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Response {
    /// One qualified skyline tuple, streamed progressively.
    #[serde(default)]
    pub result: Option<ResultEntry>,
    /// Query finished; summary and optional report.
    #[serde(default)]
    pub done: Option<DoneSummary>,
    /// Update applied.
    #[serde(default)]
    pub updated: Option<UpdateSummary>,
    /// The daemon acknowledged a shutdown request and is stopping.
    #[serde(default)]
    pub bye: bool,
    /// The request failed; human-readable reason.
    #[serde(default)]
    pub error: Option<String>,
}

/// A qualified skyline tuple with its exact global probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultEntry {
    /// Home site of the tuple.
    pub site: u32,
    /// Per-site sequence number.
    pub seq: u64,
    /// Attribute values.
    pub values: Vec<f64>,
    /// Exact global skyline probability — unless `bound` is set, in which
    /// case it is only a bound of that kind.
    pub probability: f64,
    /// `Some("upper")` when the probability is only an upper bound: a
    /// site's survival factor was missing when the tuple was confirmed, or
    /// a site sat in quarantine when the query was admitted. `None` means
    /// the probability is exact — every site's factor was folded in.
    #[serde(default)]
    pub bound: Option<String>,
}

/// End-of-query summary.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DoneSummary {
    /// Server-assigned query id.
    pub query_id: u64,
    /// Number of qualified tuples streamed before this line.
    pub count: usize,
    /// Whether the answer came from the server's result cache.
    pub cache_hit: bool,
    /// Microseconds the query waited at the admission gate.
    pub admission_wait_us: u64,
    /// Tuples transmitted between server and sites for this query
    /// (0 on a cache hit).
    pub tuples_transmitted: u64,
    /// Coordinator iterations executed (0 on a cache hit).
    pub iterations: u64,
    /// True when a site was quarantined and probabilities are upper bounds.
    #[serde(default)]
    pub degraded: bool,
    /// True when the query hit its deadline and was cancelled at a round
    /// boundary; the streamed results are the partial progressive answer.
    #[serde(default)]
    pub cancelled: bool,
    /// The per-query run report (schema [`dsud_core::SCHEMA_VERSION`]),
    /// when requested.
    #[serde(default)]
    pub report: Option<RunReport>,
}

/// Acknowledgement of one maintenance operation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UpdateSummary {
    /// Total updates the server has applied, this one included.
    pub updates_applied: u64,
    /// Cached answers invalidated by this update.
    pub cache_invalidated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let req = Request {
            query: Some(QuerySpec {
                algorithm: Some("dsud".into()),
                q: Some(0.4),
                subspace: Some(vec![0, 2]),
                limit: Some(5),
                report: true,
                deadline_ms: Some(200),
            }),
            ..Request::default()
        };
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        let spec = back.query.unwrap();
        assert_eq!(spec.algorithm.as_deref(), Some("dsud"));
        assert_eq!(spec.q, Some(0.4));
        assert_eq!(spec.subspace, Some(vec![0, 2]));
        assert_eq!(spec.limit, Some(5));
        assert!(spec.report);
        assert_eq!(spec.deadline_ms, Some(200));
        assert!(!back.shutdown);
    }

    #[test]
    fn sparse_requests_fill_defaults() {
        let back: Request = serde_json::from_str(r#"{"shutdown": true}"#).unwrap();
        assert!(back.shutdown);
        assert!(back.query.is_none());
        assert!(back.update.is_none());

        let back: Request = serde_json::from_str(r#"{"query": {}}"#).unwrap();
        let spec = back.query.unwrap();
        assert_eq!(spec.algorithm, None);
        assert_eq!(spec.q, None);
        assert!(!spec.report);
        assert_eq!(spec.deadline_ms, None);
    }

    #[test]
    fn bound_marker_round_trips_and_defaults_absent() {
        // Pre-marker result lines (no `bound` key) deserialize to None.
        let legacy = r#"{"site":0,"seq":1,"values":[0.5],"probability":0.7}"#;
        let back: ResultEntry = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.bound, None);

        let degraded = ResultEntry { bound: Some("upper".into()), ..back };
        let line = serde_json::to_string(&degraded).unwrap();
        assert!(line.contains(r#""bound":"upper""#), "{line}");
        let back: ResultEntry = serde_json::from_str(&line).unwrap();
        assert_eq!(back.bound.as_deref(), Some("upper"));
    }

    #[test]
    fn response_lines_round_trip() {
        let resp = Response {
            done: Some(DoneSummary {
                query_id: 7,
                count: 3,
                cache_hit: true,
                admission_wait_us: 12,
                tuples_transmitted: 0,
                iterations: 0,
                degraded: false,
                cancelled: false,
                report: None,
            }),
            ..Response::default()
        };
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        let done = back.done.unwrap();
        assert_eq!(done.query_id, 7);
        assert!(done.cache_hit);
        assert!(back.result.is_none() && back.error.is_none() && !back.bye);
    }
}
