//! The round planner: sizes `--batch auto` rounds from the cluster's
//! exact candidate count.
//!
//! Planning runs exactly when a query asks for [`BatchSize::Auto`]: a fixed
//! batch size is a user decision the planner never overrides. Fixed-batch
//! runs carry no [`PlanSummary`] and send a plain Start.
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
//! changes the answer (Lemma 1; see `crate::batch` and the differential
//! oracle, `tests/differential.rs`), neither does planning.

use serde::{Deserialize, Serialize};

use crate::{BatchSize, QueryConfig};

/// Smallest batch cap the planner will emit, so a small cluster still
/// coalesces its rounds.
pub const PLAN_BATCH_MIN: usize = 16;

/// Largest batch cap the planner will emit. Caps coordinator memory for a
/// round's ledger and keeps progressiveness: a round reports nothing until
/// its scatter completes, so unbounded batches would starve the stream.
pub const PLAN_BATCH_MAX: usize = 256;

/// What the planner saw and decided, stamped into
/// [`crate::QueryOutcome::plan`] and from there into run reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanSummary {
    /// Always 0: the counts ride the Start replies. Kept only because the
    /// benchmark package reads it.
    pub sketch_bytes: u64,
    /// Always 0: there is no exchange to wait for and the cap is one
    /// closed-form step. Kept only because the benchmark package reads it.
    pub plan_us: u64,
    /// The batch cap the planner chose for [`BatchSize::Auto`] rounds.
    pub planned_batch: Option<usize>,
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
/// a counted Start: exactly at [`BatchSize::Auto`].
pub(crate) fn counts(config: &QueryConfig) -> bool {
    config.batch == BatchSize::Auto
}

/// The planner as a coordinator runs it, after the Start replies are in:
/// `candidates` is the cluster's exact candidate total (meaningful only
/// when [`counts`] holds). Returns the round budget — the planned cap under
/// [`BatchSize::Auto`], the user's `K ≥ 1` otherwise — plus the summary of
/// the planning, if any ran.
pub(crate) fn schedule(candidates: u64, config: &QueryConfig) -> (usize, Option<PlanSummary>) {
    match config.batch {
        BatchSize::Fixed(k) => (k.max(1), None),
        BatchSize::Auto => {
            let cap = planned_batch(candidates);
            let summary = PlanSummary {
                sketch_bytes: 0,
                plan_us: 0,
                planned_batch: Some(cap),
                estimated_candidates: candidates,
            };
            (cap, Some(summary))
        }
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

    /// A plan sizes only `Auto` rounds; an explicit `Fixed` size — a user
    /// decision — is never overridden, and a degenerate `Fixed(0)` still
    /// draws one candidate.
    #[test]
    fn apply_only_overrides_auto() {
        let at = |batch| QueryConfig::new(0.3).unwrap().batch_size(batch);
        assert_eq!(schedule(400, &at(BatchSize::Auto)).0, 40);
        assert_eq!(schedule(400, &at(BatchSize::Fixed(4))).0, 4);
        assert_eq!(schedule(400, &at(BatchSize::Fixed(1))).0, 1);
        assert_eq!(schedule(400, &at(BatchSize::Fixed(0))).0, 1);
    }

    /// Planning is a pure function of the exact total and the config: a
    /// summary only for a counting config, carrying the total and the
    /// cap, with no plan-phase cost.
    #[test]
    fn schedule_plans_only_counting_configs() {
        let at = |batch| QueryConfig::new(0.3).unwrap().batch_size(batch);
        assert!(counts(&at(BatchSize::Auto)));
        let (budget, summary) = schedule(400, &at(BatchSize::Auto));
        assert_eq!(budget, 40);
        let summary = summary.expect("a counting config plans");
        assert_eq!(summary.estimated_candidates, 400);
        assert_eq!(summary.planned_batch, Some(40));
        assert_eq!((summary.sketch_bytes, summary.plan_us), (0, 0));
        for k in [1, 4, 16] {
            assert!(!counts(&at(BatchSize::Fixed(k))));
            assert_eq!(schedule(400, &at(BatchSize::Fixed(k))), (k, None));
        }
    }

    #[test]
    fn summaries_serialize_round_trip() {
        let summary = PlanSummary {
            sketch_bytes: 0,
            plan_us: 0,
            planned_batch: Some(16),
            estimated_candidates: 12,
        };
        let round: PlanSummary =
            serde_json::from_str(&serde_json::to_string(&summary).unwrap()).unwrap();
        assert_eq!(round, summary);
    }
}
