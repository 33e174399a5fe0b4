//! The adaptive round planner: a pre-query *plan phase* that sizes
//! `--batch auto` rounds from observed per-site skyline-probability
//! distributions instead of the closed-form Eq. 6 estimator in
//! [`crate::estimate`].
//!
//! The plan phase runs only when a query asks for [`PlanMode::Sketch`]
//! *and* [`BatchSize::Auto`]: a fixed batch size is a user decision the
//! planner never overrides, so gathering sketches for it would cost one
//! exchange per link and change nothing. Such runs carry no
//! [`PlanSummary`] and ship exactly the static schedule's frames.
//!
//! When it runs, the coordinator gathers one mergeable
//! [`SiteSketch`] per physical link right after the Start broadcast —
//! sites build the sketches at load time and keep them updated through the
//! Section 5.4 maintenance path, so the gather costs exactly one compact
//! frame per site. Tree aggregators merge their children's sketches before
//! forwarding: sketch merge is associative (bucket-wise adds and
//! register-wise maxima), so unlike survival-product folds the tree may
//! legally combine them, and the root sees one frame per root link.
//!
//! Planning is a pure *scheduling* decision. The merged sketch's
//! `count_at_least(q)` is a conservative overestimate of the cluster-wide
//! candidate population, and the planner turns it into a batch cap for
//! [`BatchSize::Auto`] rounds; because batching never changes the answer
//! (see `crate::batch` and `tests/batching_determinism.rs`), neither does
//! planning. Any link error or unexpected reply during the gather degrades
//! the plan to the static schedule — it never fails or quarantines a run.

use std::time::Instant;

use dsud_net::{Fanout, Message};
use dsud_obs::{Counter, Recorder};
use dsud_sketch::SiteSketch;
use serde::{Deserialize, Serialize};

use crate::{BatchSize, PlanMode, QueryConfig};

/// Smallest batch cap the planner will emit — never below the static
/// [`BatchSize::AUTO_MAX`], so a sketch plan can only deepen rounds, never
/// shrink them below what the static schedule would coalesce.
pub const PLAN_BATCH_MIN: usize = BatchSize::AUTO_MAX;

/// Largest batch cap the planner will emit. Caps coordinator memory for a
/// round's ledger and keeps progressiveness: a round reports nothing until
/// its scatter completes, so unbounded batches would starve the stream.
pub const PLAN_BATCH_MAX: usize = 256;

/// What the plan phase observed and decided, stamped into
/// [`crate::QueryOutcome::plan`] and from there into run reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanSummary {
    /// The mode that produced this summary (always [`PlanMode::Sketch`]
    /// today — runs without a plan phase, static or at a fixed batch
    /// size, carry no summary at all).
    pub mode: PlanMode,
    /// Encoded bytes of every sketch frame the root received.
    pub sketch_bytes: u64,
    /// Wall-clock microseconds spent gathering and merging.
    pub plan_us: u64,
    /// The batch cap the planner chose for [`BatchSize::Auto`] rounds;
    /// `None` when the gather degraded and the static schedule was kept.
    pub planned_batch: Option<usize>,
    /// Sketch frames received at the root (one per physical link).
    pub frames: u64,
    /// Sketches folded at the root beyond the first. Aggregator-side
    /// merges ride inside the tree and are not separately counted.
    pub merges: u64,
    /// The merged sketch's conservative candidate-population estimate
    /// `count_at_least(q)` the cap was derived from.
    pub estimated_candidates: u64,
}

/// Turns the merged sketch's candidate-population estimate into a batch
/// cap: `⌈2·√C⌉` clamped to `[PLAN_BATCH_MIN, PLAN_BATCH_MAX]`.
///
/// The square-root shape balances the two frame costs a round pays: a
/// round of `K` candidates ships `O(m + K)` frames instead of the
/// unbatched `O(K·m)`, but the ledger flushes grow with `K`, so `K ∝ √C`
/// spreads a `C`-candidate run over `√C`-ish rounds of `√C`-ish size.
pub fn planned_batch(candidates: u64) -> usize {
    let cap = (2.0 * (candidates as f64).sqrt()).ceil() as usize;
    cap.clamp(PLAN_BATCH_MIN, PLAN_BATCH_MAX)
}

/// Runs the plan phase over the fan-out: one [`Message::SketchRequest`]
/// round-trip per physical link, merged at the root.
///
/// Tolerant by construction: any transport error or non-sketch reply
/// yields a summary with `planned_batch: None`, telling the caller to keep
/// the static schedule. The gather bypasses the round-op FIFO (no rounds
/// are in flight at plan time) and dead tree links answer their recorded
/// error without being re-driven, so a degraded cluster plans over nothing
/// rather than poisoning its links.
pub(crate) fn plan(fan: &mut Fanout<'_>, q: f64, rec: &Recorder) -> PlanSummary {
    let _span = rec.span("plan");
    let started = Instant::now();
    let mut merged: Option<SiteSketch> = None;
    let mut frames = 0u64;
    let mut merges = 0u64;
    let mut degraded = false;
    for reply in fan.gather_sketches() {
        match reply {
            Ok(Message::Sketch(sketch)) => {
                frames += 1;
                merged = Some(match merged.take() {
                    None => *sketch,
                    Some(mut m) => {
                        m.merge(&sketch);
                        merges += 1;
                        m
                    }
                });
            }
            _ => degraded = true,
        }
    }
    rec.add(Counter::SketchMerges, merges);
    let frame_len = 1 + SiteSketch::encoded_len() as u64; // tag byte + body
    let estimated_candidates = merged.as_ref().map_or(0, |m| m.count_at_least(q));
    PlanSummary {
        mode: PlanMode::Sketch,
        sketch_bytes: frames * frame_len,
        plan_us: started.elapsed().as_micros() as u64,
        planned_batch: (!degraded && merged.is_some()).then(|| planned_batch(estimated_candidates)),
        frames,
        merges,
        estimated_candidates,
    }
}

/// The plan phase as a coordinator runs it: gathers sketches only for a
/// [`PlanMode::Sketch`] config at [`BatchSize::Auto`], and returns the
/// effective batch size plus the summary of the phase, if one ran.
pub(crate) fn schedule(
    fan: &mut Fanout<'_>,
    config: &QueryConfig,
    rec: &Recorder,
) -> (BatchSize, Option<PlanSummary>) {
    let summary =
        (config.plan.sketch() && config.batch == BatchSize::Auto).then(|| plan(fan, config.q, rec));
    (apply(config, summary.as_ref()), summary)
}

/// The effective batch size after planning: a successful sketch plan caps
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
