//! Query configuration: the probability threshold `q` (Definition 1), the
//! optional subspace mask, the progressive top-k `limit`, and the e-DSUD
//! feedback-selection [`BoundMode`] (Section 5.2, Observation 2) plus the
//! optional grid-synopsis ablation the paper argues against.

use serde::{Deserialize, Serialize};

use dsud_uncertain::SubspaceMask;

use crate::Error;

/// How e-DSUD bounds the global skyline probability of a queued candidate
/// (the feedback-selection criterion of Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum BoundMode {
    /// The paper's bound: for each other site, the tighter of (a) the
    /// accumulated `(1 − P(t))` discounts from already-broadcast dominators
    /// and (b) the Observation-2 transitive factor
    /// `P_sky(t', D_x)/P(t') × (1 − P(t'))` of the site's in-queue
    /// representative `t'` when it dominates the candidate. Reproduces the
    /// worked example of Table 2 exactly.
    #[default]
    Paper,
    /// Ablation: only the broadcast discounts (a) — a strictly looser
    /// bound, expunging later and broadcasting more.
    BroadcastOnly,
}

/// What the coordinator does when a site stays unreachable after its
/// transport's whole retry budget has been spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FailurePolicy {
    /// Abort the query with [`Error::SiteFailed`] naming the dead site.
    /// The default: a strict run either returns the exact answer or no
    /// answer at all.
    #[default]
    Strict,
    /// Quarantine the site and complete the query over the survivors.
    /// The outcome is stamped `degraded` with a per-site status list, and
    /// every reported probability becomes an *upper bound*: the missing
    /// sites' `(1 − P(t'))` survival factors can only shrink it.
    Degrade,
}

impl FailurePolicy {
    /// Stable lowercase name, as accepted by the [`std::str::FromStr`]
    /// impl.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailurePolicy::Strict => "strict",
            FailurePolicy::Degrade => "degrade",
        }
    }
}

impl std::fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for FailurePolicy {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "strict" => Ok(FailurePolicy::Strict),
            "degrade" => Ok(FailurePolicy::Degrade),
            _ => Err(Error::InvalidArgument("unknown failure policy (expected strict|degrade)")),
        }
    }
}

/// How many candidates the coordinator coalesces into one
/// [`FeedbackBatch`](dsud_net::Message::FeedbackBatch) frame per
/// Server-Delivery round.
///
/// Batching is a pure transport optimization: the coordinator draws the
/// whole batch from its queue *before* any of the batch's feedback is
/// sent, so results, probabilities, and pruning decisions are bit-identical
/// to [`BatchSize::Fixed`]`(1)` — only message and byte counts change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BatchSize {
    /// Ship exactly `K ≥ 1` candidates per round (fewer when the queue
    /// holds fewer eligible candidates). `Fixed(1)` is the classic
    /// one-candidate round of the paper's Section 5.1.
    Fixed(usize),
    /// Planned from exact counts: the run sends a counted Start, and every
    /// round ships up to [`crate::planner::planned_batch`] of the cluster's
    /// exact candidate total (see [`crate::planner`]).
    Auto,
}

impl Default for BatchSize {
    fn default() -> Self {
        BatchSize::Fixed(1)
    }
}

impl BatchSize {
    /// Stable lowercase name (`"1"`, `"16"`, `"auto"`), as accepted by the
    /// [`std::str::FromStr`] impl.
    pub fn name(&self) -> String {
        match self {
            BatchSize::Fixed(k) => k.to_string(),
            BatchSize::Auto => "auto".to_string(),
        }
    }
}

impl std::fmt::Display for BatchSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl std::str::FromStr for BatchSize {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "auto" {
            return Ok(BatchSize::Auto);
        }
        match s.parse::<usize>() {
            Ok(k) if k >= 1 => Ok(BatchSize::Fixed(k)),
            _ => Err(Error::InvalidArgument("unknown batch size (expected a count >= 1 or auto)")),
        }
    }
}

/// How many requests the coordinator keeps in flight per link — the
/// `--pipeline` window.
///
/// With a window above one the coordinators run double-buffered: while a
/// round's survival scatter is in flight, the next round's `RequestNext`
/// refills (and e-DSUD expunge probes) are already on the wire, and the
/// completions are folded in ascending site order regardless of arrival.
/// Pipelining is a pure latency optimization: the per-site message
/// sequences and the fold order are unchanged, so results are bit-identical
/// to [`PipelineDepth::Fixed`]`(1)` at every pool size and transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineDepth {
    /// Keep at most `W ≥ 1` requests in flight per link. `Fixed(1)` is the
    /// legacy fully synchronous schedule, byte-for-byte identical to the
    /// pre-pipelining coordinator.
    Fixed(usize),
    /// Let the coordinator pick: resolves to the double-buffered schedule
    /// (window 2), which already achieves the full refill/scatter overlap —
    /// the coordinator never has more than one refill to overlap per
    /// scatter, so deeper windows behave identically.
    Auto,
}

impl Default for PipelineDepth {
    fn default() -> Self {
        PipelineDepth::Fixed(1)
    }
}

impl PipelineDepth {
    /// The per-link in-flight window. Always at least 1; `Auto` resolves
    /// to 2 (see [`PipelineDepth::Auto`]).
    pub fn window(&self) -> usize {
        match self {
            PipelineDepth::Fixed(w) => (*w).max(1),
            PipelineDepth::Auto => 2,
        }
    }

    /// Whether the coordinators may overlap rounds (window above one).
    pub fn overlapped(&self) -> bool {
        self.window() > 1
    }

    /// Stable lowercase name (`"1"`, `"2"`, `"auto"`), as accepted by the
    /// [`std::str::FromStr`] impl.
    pub fn name(&self) -> String {
        match self {
            PipelineDepth::Fixed(w) => w.to_string(),
            PipelineDepth::Auto => "auto".to_string(),
        }
    }
}

impl std::fmt::Display for PipelineDepth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl std::str::FromStr for PipelineDepth {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "auto" {
            return Ok(PipelineDepth::Auto);
        }
        match s.parse::<usize>() {
            Ok(w) if w >= 1 => Ok(PipelineDepth::Fixed(w)),
            _ => Err(Error::InvalidArgument(
                "unknown pipeline depth (expected a window >= 1 or auto)",
            )),
        }
    }
}

/// How the coordinator's links reach the sites — directly (flat) or
/// through a layer of regional aggregators (tree) that merge frames on the
/// way up and fan broadcasts out on the way down.
///
/// The topology is a pure transport optimization: aggregators are stateless
/// scatter-gather proxies that never fold survival products, so the root
/// folds replies in the same ascending site order as a flat run and the
/// answer is bit-identical at every fanout. Only the number of frames (and
/// bytes) crossing the root's own links changes — from `O(m)` per round to
/// `O(root fanout)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Topology {
    /// One direct link per site, the original deployment shape. The
    /// default so pre-topology configs keep their exact link layout.
    #[default]
    Flat,
    /// Group sites under aggregators `F ≥ 2` children at a time, stacking
    /// layers until the root talks to at most `F` links (`O(log_F m)`
    /// depth). Degenerates to flat when the cluster has `≤ F` sites.
    Tree(u32),
    /// Let the coordinator pick: one aggregator layer of `⌈√m⌉`-site
    /// groups, cutting root fan-out to `O(√m)` with a single extra hop.
    Auto,
}

impl Topology {
    /// Stable lowercase name (`"flat"`, `"tree:4"`, `"auto"`), as accepted
    /// by the [`std::str::FromStr`] impl.
    pub fn name(&self) -> String {
        match self {
            Topology::Flat => "flat".to_string(),
            Topology::Tree(f) => format!("tree:{f}"),
            Topology::Auto => "auto".to_string(),
        }
    }

    /// Resolves the fan-out plan for an `m`-site cluster.
    pub fn plan(&self, sites: usize) -> dsud_net::FanPlan {
        match self {
            Topology::Flat => dsud_net::FanPlan::flat(sites),
            Topology::Tree(f) => dsud_net::FanPlan::tree(sites, *f as usize),
            Topology::Auto => dsud_net::FanPlan::sqrt_auto(sites),
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl std::str::FromStr for Topology {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "flat" {
            return Ok(Topology::Flat);
        }
        if s == "auto" {
            return Ok(Topology::Auto);
        }
        if let Some(rest) = s.strip_prefix("tree:") {
            return match rest.parse::<u32>() {
                // A fanout of 0 or 1 merges nothing: every "group" would
                // hold one site and the tree would be flat with extra hops.
                Ok(f) if f >= 2 => Ok(Topology::Tree(f)),
                _ => Err(Error::InvalidArgument(
                    "unknown topology (expected flat|tree:<fanout>=2|auto)",
                )),
            };
        }
        Err(Error::InvalidArgument("unknown topology (expected flat|tree:<fanout>=2|auto)"))
    }
}

/// Which wire layout the coordinator uses for bulk-data frames (batched
/// feedback, batched survival replies, replica synchronization).
///
/// The wire format is a pure transport optimization: both layouts carry
/// exactly the same tuples in the same order, so results, probabilities,
/// progress order, and tuple-traffic accounting are bit-identical — only
/// byte counts (and decode cost) differ. Scalar per-candidate frames are
/// always sent in the legacy row encoding regardless of this setting: the
/// columnar header only pays for itself on multi-row frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum WireFormat {
    /// Row-oriented frames (one length-prefixed tuple record after
    /// another), the original encoding. The default so configs and byte
    /// counts serialized before the columnar layout existed stay valid.
    #[default]
    Legacy,
    /// Fixed-width columnar frames: coordinates as column-major `f64`
    /// lanes plus packed id/probability sections behind one validated
    /// header, decodable into a borrowed view without per-tuple work.
    Columnar,
}

impl WireFormat {
    /// Stable lowercase name, as accepted by the [`std::str::FromStr`]
    /// impl.
    pub fn as_str(&self) -> &'static str {
        match self {
            WireFormat::Legacy => "legacy",
            WireFormat::Columnar => "columnar",
        }
    }

    /// Whether bulk frames use the columnar layout.
    pub fn columnar(&self) -> bool {
        matches!(self, WireFormat::Columnar)
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for WireFormat {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "legacy" => Ok(WireFormat::Legacy),
            "columnar" => Ok(WireFormat::Columnar),
            _ => Err(Error::InvalidArgument("unknown wire format (expected legacy|columnar)")),
        }
    }
}

/// How the coordinator sizes its rounds. There is one plan: under
/// [`BatchSize::Auto`] every run sends a counted Start and sizes its rounds
/// from the exact candidate total (see [`crate::planner`]).
///
/// The type and [`QueryConfig::plan_mode`] remain only because the
/// benchmark package names them; neither changes anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlanMode {
    /// Plan `--batch auto` rounds from the counted Start replies. The name
    /// stays from the sketch gather this plan replaced.
    #[default]
    Sketch,
}

/// Configuration of one distributed skyline query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryConfig {
    /// Probability threshold `q ∈ (0, 1]` (Definition 1).
    pub q: f64,
    /// Queried subspace; `None` means the full space of the cluster.
    pub mask: Option<SubspaceMask>,
    /// Bound mode for e-DSUD feedback selection.
    pub bound: BoundMode,
    /// Stop after this many reported results (progressive top-k); `None`
    /// retrieves the complete answer.
    pub limit: Option<usize>,
    /// e-DSUD only: request a grid synopsis of this resolution from every
    /// site at query start and use it for candidate bounding (the
    /// Section 5.2 trade-off the paper argues against — measured by the
    /// ablation benches). `None` uses only the paper's free bounds.
    pub synopsis: Option<u16>,
    /// What to do when a site stays unreachable after retries. Defaults to
    /// [`FailurePolicy::Strict`]; absent in configs serialized before the
    /// field existed, hence the serde default.
    #[serde(default)]
    pub failure: FailurePolicy,
    /// Candidates coalesced per Server-Delivery round. Defaults to
    /// [`BatchSize::Fixed`]`(1)` (the paper's one-candidate round); absent
    /// in configs serialized before the field existed, hence the serde
    /// default. Batching never changes the answer — see [`BatchSize`].
    #[serde(default)]
    pub batch: BatchSize,
    /// Per-link in-flight window for overlapped rounds. Defaults to
    /// [`PipelineDepth::Fixed`]`(1)` (the legacy synchronous schedule);
    /// absent in configs serialized before the field existed, hence the
    /// serde default. Pipelining never changes the answer — see
    /// [`PipelineDepth`].
    #[serde(default)]
    pub pipeline: PipelineDepth,
    /// Wire layout for bulk-data frames. Defaults to [`WireFormat::Legacy`]
    /// (the row encoding every pre-columnar byte count was measured
    /// against); absent in configs serialized before the field existed,
    /// hence the serde default. The wire format never changes the answer —
    /// see [`WireFormat`].
    #[serde(default)]
    pub wire: WireFormat,
    /// Per-query wall-clock deadline in milliseconds. When the deadline
    /// elapses mid-run the coordinator cancels cleanly at the next round
    /// boundary: the partial progressive outcome is returned with its
    /// `cancelled` flag set, links and session state are released
    /// normally, and nothing is cached. `None` (the default, and absent
    /// in configs serialized before the field existed) means no deadline.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

impl QueryConfig {
    /// Creates a full-space query with the paper's default bound mode.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidThreshold`] if `q` is outside `(0, 1]`.
    pub fn new(q: f64) -> Result<Self, Error> {
        if !(q > 0.0 && q <= 1.0) {
            return Err(Error::InvalidThreshold(q));
        }
        Ok(QueryConfig {
            q,
            mask: None,
            bound: BoundMode::Paper,
            limit: None,
            synopsis: None,
            failure: FailurePolicy::Strict,
            batch: BatchSize::default(),
            pipeline: PipelineDepth::default(),
            wire: WireFormat::default(),
            deadline_ms: None,
        })
    }

    /// Selects the site-failure policy.
    pub fn failure_policy(mut self, failure: FailurePolicy) -> Self {
        self.failure = failure;
        self
    }

    /// Selects the candidate batch size per Server-Delivery round.
    pub fn batch_size(mut self, batch: BatchSize) -> Self {
        self.batch = batch;
        self
    }

    /// Selects the per-link in-flight window for overlapped rounds.
    pub fn pipeline_depth(mut self, pipeline: PipelineDepth) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Selects the wire layout for bulk-data frames.
    pub fn wire_format(mut self, wire: WireFormat) -> Self {
        self.wire = wire;
        self
    }

    /// Does nothing: there is one plan (see [`PlanMode`]). Kept only
    /// because the benchmark package calls it.
    pub fn plan_mode(self, _plan: PlanMode) -> Self {
        self
    }

    /// Sets a per-query wall-clock deadline in milliseconds; the query is
    /// cancelled cleanly (partial progressive outcome, stamped
    /// `cancelled`) when it elapses.
    pub fn deadline(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Restricts the query to a subspace (Section 4's subspace skylines).
    pub fn subspace(mut self, mask: SubspaceMask) -> Self {
        self.mask = Some(mask);
        self
    }

    /// Selects the e-DSUD bound mode.
    pub fn bound_mode(mut self, bound: BoundMode) -> Self {
        self.bound = bound;
        self
    }

    /// Requests per-site grid synopses at this resolution and folds them
    /// into the e-DSUD candidate bounds.
    pub fn synopsis(mut self, resolution: u16) -> Self {
        self.synopsis = Some(resolution);
        self
    }

    /// Stops the query after `k` reported results. The progressive
    /// coordinators report in discovery order, so the result is a prefix of
    /// the full run's report stream — the "first k answers" a user watching
    /// the stream would have seen.
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// Resolves the effective mask for a `dims`-dimensional cluster.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Subspace`] if an explicit mask selects dimensions
    /// outside the data space.
    pub fn resolve_mask(&self, dims: usize) -> Result<SubspaceMask, Error> {
        match self.mask {
            Some(mask) => {
                mask.validate_for(dims)?;
                Ok(mask)
            }
            None => Ok(SubspaceMask::full(dims)?),
        }
    }
}

/// How a site decides whether a *deletion* must be reported to the server
/// (the update-maintenance protocol of Section 5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum UpdatePolicy {
    /// Every deletion is reported (one tuple) and the server re-evaluates
    /// the deleted tuple's dominance region. Keeps the maintained skyline
    /// *exactly* equal to a from-scratch recomputation.
    #[default]
    Exact,
    /// The paper's heuristic: a deletion is reported only when the tuple is
    /// in the site's replica of `SKY(H)`. Much cheaper — non-member
    /// deletions cost zero bandwidth — but promotions of tuples the
    /// deleted one was suppressing are missed, so the maintained skyline is
    /// a *sound subset* of the exact answer (every reported member truly
    /// qualifies; some qualifying tuples may be missing until the next full
    /// query).
    Replica,
}

/// Site-local behaviour switches (ablations and maintenance policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteOptions {
    /// Whether the Local-Pruning phase is active. Disabling it isolates the
    /// value of the feedback mechanism (ablation C in DESIGN.md).
    pub pruning: bool,
    /// Deletion-reporting policy for update maintenance.
    pub update_policy: UpdatePolicy,
    /// Wire layout the site prefers for its own bulk replies (region-query
    /// responses during update maintenance). Feedback replies always answer
    /// in the format of the request, so this only matters for site-initiated
    /// bulk frames. Absent in options serialized before the field existed,
    /// hence the serde default ([`WireFormat::Legacy`]).
    #[serde(default)]
    pub wire: WireFormat,
}

impl Default for SiteOptions {
    fn default() -> Self {
        SiteOptions { pruning: true, update_policy: UpdatePolicy::Exact, wire: WireFormat::Legacy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_thresholds() {
        for q in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(QueryConfig::new(q).is_err(), "{q}");
        }
        assert!(QueryConfig::new(1.0).is_ok());
    }

    #[test]
    fn resolves_full_mask_by_default() {
        let cfg = QueryConfig::new(0.3).unwrap();
        assert_eq!(cfg.resolve_mask(3).unwrap(), SubspaceMask::full(3).unwrap());
    }

    #[test]
    fn validates_explicit_mask() {
        let cfg =
            QueryConfig::new(0.3).unwrap().subspace(SubspaceMask::from_dims(&[0, 4]).unwrap());
        assert!(cfg.resolve_mask(5).is_ok());
        assert!(matches!(cfg.resolve_mask(2), Err(Error::Subspace(_))));
    }

    #[test]
    fn defaults_are_paper_faithful() {
        let cfg = QueryConfig::new(0.3).unwrap();
        assert_eq!(cfg.bound, BoundMode::Paper);
        assert_eq!(cfg.failure, FailurePolicy::Strict);
        assert!(SiteOptions::default().pruning);
    }

    #[test]
    fn failure_policy_round_trips_through_names() {
        for (name, policy) in
            [("strict", FailurePolicy::Strict), ("degrade", FailurePolicy::Degrade)]
        {
            let parsed: FailurePolicy = name.parse().expect("known policy");
            assert_eq!(parsed, policy);
            assert_eq!(policy.as_str(), name);
        }
        assert!(matches!("lenient".parse::<FailurePolicy>(), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn configs_without_a_failure_field_deserialize_strict() {
        // A config serialized before the failure policy existed.
        let json = r#"{"q":0.3,"mask":null,"bound":"Paper","limit":null,"synopsis":null}"#;
        let cfg: QueryConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.failure, FailurePolicy::Strict);
        assert_eq!(cfg.batch, BatchSize::Fixed(1));
        assert_eq!(cfg.pipeline, PipelineDepth::Fixed(1));
    }

    #[test]
    fn batch_size_round_trips_through_names() {
        for (name, batch) in
            [("1", BatchSize::Fixed(1)), ("16", BatchSize::Fixed(16)), ("auto", BatchSize::Auto)]
        {
            let parsed: BatchSize = name.parse().expect("known batch size");
            assert_eq!(parsed, batch);
            assert_eq!(batch.name(), name);
            assert_eq!(batch.to_string(), name);
        }
        assert!(matches!("0".parse::<BatchSize>(), Err(Error::InvalidArgument(_))));
        assert!(matches!("many".parse::<BatchSize>(), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn pipeline_depth_round_trips_through_names() {
        for (name, depth) in [
            ("1", PipelineDepth::Fixed(1)),
            ("8", PipelineDepth::Fixed(8)),
            ("auto", PipelineDepth::Auto),
        ] {
            let parsed: PipelineDepth = name.parse().expect("known pipeline depth");
            assert_eq!(parsed, depth);
            assert_eq!(depth.name(), name);
            assert_eq!(depth.to_string(), name);
        }
        assert!(matches!("0".parse::<PipelineDepth>(), Err(Error::InvalidArgument(_))));
        assert!(matches!("deep".parse::<PipelineDepth>(), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn wire_format_round_trips_through_names() {
        for (name, wire) in [("legacy", WireFormat::Legacy), ("columnar", WireFormat::Columnar)] {
            let parsed: WireFormat = name.parse().expect("known wire format");
            assert_eq!(parsed, wire);
            assert_eq!(wire.as_str(), name);
            assert_eq!(wire.to_string(), name);
        }
        assert!(matches!("soa".parse::<WireFormat>(), Err(Error::InvalidArgument(_))));
        assert!(WireFormat::Columnar.columnar());
        assert!(!WireFormat::Legacy.columnar());
    }

    #[test]
    fn configs_without_a_wire_field_deserialize_legacy() {
        // Configs and site options serialized before the wire format
        // existed must keep their original (row-encoded) byte behaviour.
        let json = r#"{"q":0.3,"mask":null,"bound":"Paper","limit":null,"synopsis":null}"#;
        let cfg: QueryConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.wire, WireFormat::Legacy);
        let json = r#"{"pruning":true,"update_policy":"Exact"}"#;
        let opts: SiteOptions = serde_json::from_str(json).unwrap();
        assert_eq!(opts.wire, WireFormat::Legacy);
        let cfg = QueryConfig::new(0.3).unwrap().wire_format(WireFormat::Columnar);
        assert_eq!(cfg.wire, WireFormat::Columnar);
    }

    #[test]
    fn configs_with_a_retired_plan_field_still_deserialize() {
        // Configs serialized while the plan was a setting carry a `plan`
        // field; it is ignored, and `plan_mode` changes nothing.
        let cfg = QueryConfig::new(0.3).unwrap().batch_size(BatchSize::Auto);
        let mut json = serde_json::to_string(&cfg).unwrap();
        json.insert_str(json.len() - 1, r#","plan":"Static""#);
        let old: QueryConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(old, cfg);
        assert_eq!(cfg.plan_mode(PlanMode::Sketch), cfg);
    }

    #[test]
    fn configs_without_a_deadline_field_deserialize_unbounded() {
        // A config serialized before per-query deadlines existed must keep
        // running without one.
        let json = r#"{"q":0.3,"mask":null,"bound":"Paper","limit":null,"synopsis":null}"#;
        let cfg: QueryConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.deadline_ms, None);
        let cfg = QueryConfig::new(0.3).unwrap().deadline(250);
        assert_eq!(cfg.deadline_ms, Some(250));
        let round: QueryConfig =
            serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
        assert_eq!(round.deadline_ms, Some(250));
    }

    #[test]
    fn topology_round_trips_through_names() {
        for (name, topo) in [
            ("flat", Topology::Flat),
            ("tree:2", Topology::Tree(2)),
            ("tree:8", Topology::Tree(8)),
            ("auto", Topology::Auto),
        ] {
            let parsed: Topology = name.parse().expect("known topology");
            assert_eq!(parsed, topo);
            assert_eq!(topo.name(), name);
            assert_eq!(topo.to_string(), name);
        }
        for bad in ["tree:0", "tree:1", "tree:", "tree:-3", "star", "tree:two"] {
            assert!(matches!(bad.parse::<Topology>(), Err(Error::InvalidArgument(_))), "{bad}");
        }
    }

    #[test]
    fn topology_plans_resolve_shapes() {
        assert!(Topology::Flat.plan(64).is_flat());
        assert!(Topology::Tree(4).plan(3).is_flat()); // m <= fanout: nothing to merge
        let plan = Topology::Tree(4).plan(8);
        assert_eq!((plan.sites(), plan.depth(), plan.root_fanout()), (8, 1, 2));
        let plan = Topology::Auto.plan(64);
        assert_eq!((plan.sites(), plan.depth(), plan.root_fanout()), (64, 1, 8));
        assert_eq!(Topology::default(), Topology::Flat);
    }

    #[test]
    fn pipeline_windows_resolve() {
        assert_eq!(PipelineDepth::Fixed(1).window(), 1);
        assert!(!PipelineDepth::Fixed(1).overlapped());
        assert_eq!(PipelineDepth::Fixed(0).window(), 1); // degenerate, clamped
        assert_eq!(PipelineDepth::Fixed(8).window(), 8);
        assert_eq!(PipelineDepth::Auto.window(), 2);
        assert!(PipelineDepth::Auto.overlapped());
    }
}
