//! Deterministic chaos soak: served queries under a seeded fault plan.
//!
//! The harness answers one question the unit tests cannot: does the whole
//! recovery lifecycle — seeded link faults ([`dsud_net::FaultPlan`]),
//! per-query degradation, heartbeat-driven quarantine, probation resync,
//! and rejoin ([`crate::session`] module docs) — compose into the paper's
//! exact-answer guarantee once the cluster heals?
//!
//! [`soak`] runs the same deterministic query/update mix against two
//! [`SessionServer`]s over identical data: a clean *reference* deployment
//! and a *chaos* deployment whose links are wrapped in seeded
//! [`dsud_net::ChaosLink`]s ([`Cluster::with_transport_chaos`]). The
//! invariants it checks, reported in a [`ChaosReport`]:
//!
//! * **no panics** — every query returns a value (faults become degraded
//!   or cancelled outcomes, never crashes);
//! * **exact or stamped** — every outcome not stamped `degraded` or
//!   `cancelled` is bit-identical to the reference answer (skyline ids,
//!   probability bits, progress order — transmitted counts are excluded
//!   on purpose: retries legitimately resend frames);
//! * **convergence** — after the fault windows pass and heartbeats walk
//!   every site back to Active, queries are exact again.
//!
//! Everything derives from the `u64` seed, so a failing seed replays
//! exactly — on any transport, any wire format, any pool size.

use serde::Serialize;

use dsud_uncertain::{Probability, TupleId, UncertainTuple};

use dsud_net::FaultPlan;

use crate::update::UpdateOp;
use crate::{
    Cluster, Error, FailurePolicy, LinkConfig, QueryConfig, QueryOutcome, Recorder, SessionOptions,
    SessionServer, SiteState, Transport, WireFormat,
};

/// Knobs for one chaos soak. Everything is deterministic in `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosOptions {
    /// Seed for the per-site fault plans and the update workload.
    pub seed: u64,
    /// Served queries in the faulted phase of the soak.
    pub queries: usize,
    /// Apply one update every this-many queries (0 disables updates).
    pub update_every: usize,
    /// Transport under test (the fault plan replays identically on all).
    pub transport: Transport,
    /// Wire layout for bulk frames.
    pub wire: WireFormat,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 42,
            queries: 12,
            update_every: 3,
            transport: Transport::Inline,
            wire: WireFormat::Legacy,
        }
    }
}

/// What one soak observed. `mismatches == 0 && recovered` is the pass
/// condition; the rest is for the curious operator.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ChaosReport {
    /// The seed that produced this run (replay with the same seed).
    pub seed: u64,
    /// Queries served during the faulted phase.
    pub queries: u64,
    /// Outcomes bit-identical to the reference and not stamped.
    pub exact: u64,
    /// Outcomes stamped `degraded`.
    pub degraded: u64,
    /// Outcomes stamped `cancelled` (deadline exercise).
    pub cancelled: u64,
    /// Non-stamped outcomes that differed from the reference — must be 0.
    pub mismatches: u64,
    /// Sites quarantined by heartbeats over the whole soak.
    pub quarantines: u64,
    /// Heartbeat probes that went unanswered.
    pub heartbeat_misses: u64,
    /// Deferred updates replayed at rejoin.
    pub resync_ops: u64,
    /// Sites promoted back to Active.
    pub rejoins: u64,
    /// Whether the post-heal verification queries all came back exact.
    pub recovered: bool,
}

/// Tuple ids with their probabilities' bit patterns, in report order.
type Sequence = Vec<(TupleId, u64)>;

/// Skyline + progress identity, excluding transmitted counts (retries
/// resend frames without changing the answer).
fn fingerprint(outcome: &QueryOutcome) -> (Sequence, Sequence) {
    (
        outcome.skyline.iter().map(|e| (e.tuple.id(), e.probability.to_bits())).collect(),
        outcome.progress.events().iter().map(|e| (e.id, e.probability.to_bits())).collect(),
    )
}

/// The deterministic query mix: thresholds, algorithms, batch/pipeline
/// schedules all keyed on the query index.
fn config_at(i: usize, opts: &ChaosOptions) -> (QueryConfig, bool) {
    let q = [0.25, 0.3, 0.35, 0.4][i % 4];
    let cfg = QueryConfig::new(q)
        .expect("soak thresholds are valid")
        .failure_policy(FailurePolicy::Degrade)
        .wire_format(opts.wire);
    let cfg = if i % 3 == 1 { cfg.batch_size(crate::BatchSize::Fixed(4)) } else { cfg };
    let edsud = i.is_multiple_of(2);
    (cfg, edsud)
}

/// Synthetic spike tuple `k`, homed round-robin across the sites.
fn spike_at(k: usize, seed: u64, sites: usize, dims: usize) -> UncertainTuple {
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k as u64 * 7919);
    let home = (k % sites) as u32;
    let values: Vec<f64> =
        (0..dims).map(|d| 0.2 + 0.6 * (((mix >> (8 * (d % 8))) & 0xFF) as f64) / 255.0).collect();
    let prob = Probability::new(0.4).expect("valid probability");
    UncertainTuple::new(TupleId::new(home, 1_000_000 + k as u64), values, prob)
        .expect("soak tuples are well-formed")
}

/// The deterministic update workload: even steps insert a fresh spike
/// tuple, odd steps delete the one the previous step inserted.
fn update_at(k: usize, seed: u64, sites: usize, dims: usize) -> UpdateOp {
    if k.is_multiple_of(2) {
        UpdateOp::Insert(spike_at(k, seed, sites, dims))
    } else {
        UpdateOp::Delete(spike_at(k - 1, seed, sites, dims))
    }
}

fn serve(server: &SessionServer, cfg: &QueryConfig, edsud: bool) -> Result<QueryOutcome, Error> {
    let outcome = if edsud {
        server.run_edsud(cfg, false, &mut |_, _| {})?
    } else {
        server.run_dsud(cfg, false, &mut |_, _| {})?
    };
    Ok(outcome.outcome)
}

/// The last attempt ordinal any of the cluster's seeded windows covers —
/// a pure function of the seed, used to bound the probe-driven phases.
fn last_fault_attempt(seed: u64, sites: usize) -> u64 {
    (0..sites as u32)
        .flat_map(|s| FaultPlan::seeded(seed, s).windows().to_vec())
        .map(|w| w.start + w.len)
        .max()
        .unwrap_or(0)
}

/// Heartbeats the chaos server until every site is Active again (bounded;
/// each sweep advances the per-link fault schedules, so finite fault
/// plans always drain).
fn heal(server: &SessionServer, max_sweeps: usize) -> bool {
    for _ in 0..max_sweeps {
        if server.site_states().iter().all(|s| matches!(s, SiteState::Active)) {
            return true;
        }
        server.heartbeat();
    }
    server.site_states().iter().all(|s| matches!(s, SiteState::Active))
}

/// Runs the full soak over the given partitioned data (site `i` must hold
/// tuples labelled `TupleId { site: i, .. }`).
///
/// # Errors
///
/// Propagates cluster construction failures and reference-run failures;
/// faulted-run errors surface only if a query fails outright under
/// [`FailurePolicy::Degrade`], which the harness treats as a bug.
pub fn soak(
    dims: usize,
    sites: Vec<Vec<UncertainTuple>>,
    opts: &ChaosOptions,
) -> Result<ChaosReport, Error> {
    let site_count = sites.len().max(1);
    // Reference: clean inline deployment (bit-identity is
    // transport-invariant, pinned by the serve_determinism tests).
    let reference =
        SessionServer::new(Cluster::local(dims, sites.clone())?, SessionOptions::default());
    // Chaos deployment: seeded faults under the retry layer, an automatic
    // heartbeat after every served query, and hair-trigger lifecycle
    // thresholds so the soak exercises quarantine and rejoin quickly.
    let chaos_cluster = Cluster::with_transport_chaos(
        dims,
        sites,
        Default::default(),
        Recorder::default(),
        opts.transport,
        LinkConfig::default(),
        opts.seed,
    )?;
    let server = SessionServer::new(
        chaos_cluster,
        SessionOptions {
            heartbeat_every: 1,
            miss_threshold: 1,
            probation_probes: 1,
            ..SessionOptions::default()
        },
    );

    // Walk heartbeat probes into the seeded windows until one quarantines
    // a site (probes advance one attempt ordinal at a time, so a hard
    // window longer than the retry budget is guaranteed to swallow a whole
    // probe), bounded by the last scheduled fault. Seeds whose plans never
    // defeat the retry budget simply drain here and soak fault-free —
    // `last_fault_attempt` makes the bound pure in the seed. Stopping at
    // the first quarantine deliberately leaves other sites' windows
    // pending: the soak below absorbs them as degraded outcomes (queries)
    // or quarantine-and-defer (updates), never as errors.
    let last_fault = last_fault_attempt(opts.seed, site_count);
    for _ in 0..last_fault {
        if !server.site_states().iter().all(|s| matches!(s, SiteState::Active)) {
            break;
        }
        server.heartbeat();
    }

    let mut report =
        ChaosReport { seed: opts.seed, queries: opts.queries as u64, ..ChaosReport::default() };
    let mut updates_applied = 0usize;
    for i in 0..opts.queries {
        if opts.update_every > 0 && i > 0 && i % opts.update_every == 0 {
            let op = update_at(updates_applied, opts.seed, site_count, dims);
            // The reference applies immediately. The chaos server may
            // defer the op behind a quarantine — or, when the inject
            // itself defeats the retry budget on a still-Active home site
            // (a seeded window the pre-soak probes never reached), it
            // quarantines the site and defers just the same. Either way
            // the op replays at rejoin and apply_update reports success,
            // so a fault here degrades later outcomes instead of aborting
            // the soak.
            reference.apply_update(&op)?;
            server.apply_update(&op)?;
            updates_applied += 1;
        }
        let (cfg, edsud) = config_at(i, opts);
        let want = fingerprint(&serve(&reference, &cfg, edsud)?);
        let got = serve(&server, &cfg, edsud)?;
        if got.cancelled {
            report.cancelled += 1;
        } else if got.degraded {
            report.degraded += 1;
        } else if fingerprint(&got) == want {
            report.exact += 1;
        } else {
            report.mismatches += 1;
        }
    }

    // Deadline exercise: a zero-millisecond deadline cancels at the first
    // round boundary, cleanly and deterministically.
    let (cfg, edsud) = config_at(0, opts);
    let cancelled = serve(&server, &cfg.deadline(0), edsud)?;
    if cancelled.cancelled {
        report.cancelled += 1;
    } else {
        report.mismatches += 1;
    }

    // Heal: walk every site back to Active, then verify convergence. A
    // verification query can still trip a not-yet-drained fault window
    // (degrading itself and re-quarantining the site), so retry the whole
    // heal-and-verify cycle a bounded number of times.
    let mut recovered = false;
    for _ in 0..16 {
        if !heal(&server, 64) {
            continue;
        }
        let mut all_exact = true;
        for i in 0..4 {
            let (cfg, edsud) = config_at(i, opts);
            let want = fingerprint(&serve(&reference, &cfg, edsud)?);
            let got = serve(&server, &cfg, edsud)?;
            if got.degraded || got.cancelled || fingerprint(&got) != want {
                all_exact = false;
                break;
            }
        }
        if all_exact {
            recovered = true;
            break;
        }
    }
    report.recovered = recovered;

    let stats = server.stats();
    report.heartbeat_misses = stats.heartbeat_misses;
    report.resync_ops = stats.resync_ops;
    report.rejoins = stats.rejoins;
    report.quarantines = stats.quarantines;
    Ok(report)
}
