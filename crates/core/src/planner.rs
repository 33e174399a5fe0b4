//! The round planner: sizes `--batch auto` rounds from the cluster's
//! exact candidate count instead of the queue-depth clamp.
//!
//! Planning runs only when a query asks for [`PlanMode::Sketch`] *and*
//! [`BatchSize::Auto`]: a fixed batch size is a user decision the planner
//! never overrides. Such runs carry no [`PlanSummary`] and ship exactly the
//! static schedule's frames. The mode keeps the name of the sketch gather
//! it replaced; it now plans from exact counts on the Start reply.
//!
//! Every site computes its exact local skyline `SKY(D_i)` for the query's
//! `(q, mask)` when the query starts (Section 5.1), so the counts cost
//! nothing extra. A planning coordinator sends a *counted*
//! [`Message::Start`](dsud_net::Message::Start); each site answers with a
//! [`Message::Started`](dsud_net::Message::Started) that carries its first
//! upload and the number of candidates pending behind it. The coordinator
//! sums the pending counts and the uploads it queued into the exact
//! cluster total (a site lost at Start counts 0), and [`planned_batch`]
//! turns that total into a batch cap. No frame is added and no site keeps any
//! summary between queries, so the total is exact for every subspace and
//! after every update.
//!
//! Planning is a pure *scheduling* decision: because batching never
//! changes the answer (see `crate::batch` and the differential oracle,
//! `tests/differential.rs`), neither does planning.

use serde::{Deserialize, Serialize};

use crate::{BatchSize, PlanMode, QueryConfig};

/// Smallest batch cap the planner will emit — never below the static
/// [`BatchSize::AUTO_MAX`], so a plan can only deepen rounds, never
/// shrink them below what the static schedule would coalesce.
pub const PLAN_BATCH_MIN: usize = BatchSize::AUTO_MAX;

/// Largest batch cap the planner will emit. Caps coordinator memory for a
/// round's ledger and keeps progressiveness: a round reports nothing until
/// its scatter completes, so unbounded batches would starve the stream.
pub const PLAN_BATCH_MAX: usize = 256;

/// What the planner saw and decided, stamped into
/// [`crate::QueryOutcome::plan`] and from there into run reports. The
/// sketch-era fields keep their names so reports keep their shape.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanSummary {
    /// The mode that produced this summary (always [`PlanMode::Sketch`]
    /// today — runs without planning, static or at a fixed batch size,
    /// carry no summary at all).
    pub mode: PlanMode,
    /// Plan-phase bytes beyond the query's own frames: always 0, since
    /// the counts ride the Start replies.
    pub sketch_bytes: u64,
    /// Microseconds spent in a plan phase: always 0, since there is no
    /// exchange to wait for and the cap is one closed-form step.
    pub plan_us: u64,
    /// The batch cap the planner chose for [`BatchSize::Auto`] rounds.
    pub planned_batch: Option<usize>,
    /// Plan-phase frames received at the root: always 0.
    pub frames: u64,
    /// Plan-phase merges at the root: always 0.
    pub merges: u64,
    /// The cluster's exact candidate count — the sizes of the sites'
    /// local skylines at the query's `(q, mask)`, summed over the sites
    /// that answered the Start — the cap was derived from.
    pub estimated_candidates: u64,
}

/// Turns the cluster's candidate count into a batch cap: `⌈2·√C⌉`
/// clamped to `[PLAN_BATCH_MIN, PLAN_BATCH_MAX]`.
///
/// The square-root shape balances the two frame costs a round pays: a
/// round of `K` candidates ships `O(m + K)` frames instead of the
/// unbatched `O(K·m)`, but the ledger flushes grow with `K`, so `K ∝ √C`
/// spreads a `C`-candidate run over `√C`-ish rounds of `√C`-ish size.
pub fn planned_batch(candidates: u64) -> usize {
    let cap = (2.0 * (candidates as f64).sqrt()).ceil() as usize;
    cap.clamp(PLAN_BATCH_MIN, PLAN_BATCH_MAX)
}

/// Whether a coordinator running `config` plans its rounds — and so sends
/// a counted Start: only a [`PlanMode::Sketch`] config at
/// [`BatchSize::Auto`].
pub(crate) fn counts(config: &QueryConfig) -> bool {
    config.plan.sketch() && config.batch == BatchSize::Auto
}

/// The planner as a coordinator runs it, after the Start replies are in:
/// `candidates` is the cluster's exact candidate total (meaningful only
/// when [`counts`] holds). Returns the effective batch size plus the
/// summary of the planning, if any ran.
pub(crate) fn schedule(candidates: u64, config: &QueryConfig) -> (BatchSize, Option<PlanSummary>) {
    let summary = counts(config).then(|| PlanSummary {
        mode: PlanMode::Sketch,
        sketch_bytes: 0,
        plan_us: 0,
        planned_batch: Some(planned_batch(candidates)),
        frames: 0,
        merges: 0,
        estimated_candidates: candidates,
    });
    (apply(config, summary.as_ref()), summary)
}

/// The effective batch size after planning: a plan caps
/// [`BatchSize::Auto`] rounds at the planned size (acting like
/// `Fixed(cap)`, which the batching contract proves answer-preserving);
/// explicit `Fixed` sizes — a user decision — are never overridden.
pub(crate) fn apply(config: &QueryConfig, summary: Option<&PlanSummary>) -> BatchSize {
    match (config.batch, summary.and_then(|s| s.planned_batch)) {
        (BatchSize::Auto, Some(cap)) => BatchSize::Fixed(cap),
        (batch, _) => batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_batch_follows_a_clamped_square_root() {
        assert_eq!(planned_batch(0), PLAN_BATCH_MIN);
        assert_eq!(planned_batch(64), PLAN_BATCH_MIN); // 2·8 = 16, exactly the floor
        assert_eq!(planned_batch(100), 20);
        assert_eq!(planned_batch(2_500), 100);
        assert_eq!(planned_batch(1_000_000), PLAN_BATCH_MAX);
        // Monotone in the candidate estimate.
        let caps: Vec<usize> = (0..2_000).step_by(50).map(|c| planned_batch(c as u64)).collect();
        assert!(caps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn apply_only_overrides_auto() {
        let summary = PlanSummary {
            mode: PlanMode::Sketch,
            sketch_bytes: 0,
            plan_us: 0,
            planned_batch: Some(40),
            frames: 1,
            merges: 0,
            estimated_candidates: 400,
        };
        let at = |batch| QueryConfig::new(0.3).unwrap().batch_size(batch);
        assert_eq!(apply(&at(BatchSize::Auto), Some(&summary)), BatchSize::Fixed(40));
        assert_eq!(apply(&at(BatchSize::Fixed(4)), Some(&summary)), BatchSize::Fixed(4));
        assert_eq!(apply(&at(BatchSize::Fixed(1)), Some(&summary)), BatchSize::Fixed(1));
        assert_eq!(apply(&at(BatchSize::Auto), None), BatchSize::Auto);
        let degraded = PlanSummary { planned_batch: None, ..summary };
        assert_eq!(apply(&at(BatchSize::Auto), Some(&degraded)), BatchSize::Auto);
    }

    /// Planning is a pure function of the exact total and the config: a
    /// summary only for a counting config, carrying the total and the
    /// cap, with no plan-phase cost.
    #[test]
    fn schedule_plans_only_counting_configs() {
        let at = |batch, plan| QueryConfig::new(0.3).unwrap().batch_size(batch).plan_mode(plan);
        let (batch, summary) = schedule(400, &at(BatchSize::Auto, PlanMode::Sketch));
        assert_eq!(batch, BatchSize::Fixed(40));
        let summary = summary.expect("a counting config plans");
        assert_eq!(summary.estimated_candidates, 400);
        assert_eq!(summary.planned_batch, Some(40));
        assert_eq!((summary.sketch_bytes, summary.frames, summary.merges), (0, 0, 0));
        for (batch, plan) in [
            (BatchSize::Auto, PlanMode::Static),
            (BatchSize::Fixed(4), PlanMode::Sketch),
            (BatchSize::Fixed(1), PlanMode::Static),
        ] {
            assert!(!counts(&at(batch, plan)));
            assert_eq!(schedule(400, &at(batch, plan)), (batch, None));
        }
    }

    #[test]
    fn summaries_serialize_round_trip() {
        let summary = PlanSummary {
            mode: PlanMode::Sketch,
            sketch_bytes: 1620,
            plan_us: 37,
            planned_batch: Some(16),
            frames: 1,
            merges: 0,
            estimated_candidates: 12,
        };
        let round: PlanSummary =
            serde_json::from_str(&serde_json::to_string(&summary).unwrap()).unwrap();
        assert_eq!(round, summary);
    }
}
