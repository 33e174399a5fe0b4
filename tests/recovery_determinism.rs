//! The recovery contract behind the chaos harness: a site that fails under
//! a seeded [`FaultPlan`], gets quarantined by heartbeats, reconnects,
//! resyncs the updates it missed, and rejoins must leave the deployment
//! answering queries **bit-identically** to one that never failed —
//! skyline ids, probability bits, and progress order.
//!
//! The fault schedule is a pure function of `(seed, site)` keyed on
//! per-link attempt ordinals, never the wall clock, so the same seed
//! replays the same quarantine/rejoin transcript on every transport
//! (inline, threaded, TCP), both wire formats, and every pool size
//! (`DSUD_THREADS`) — which is exactly what lets this test
//! assert equality instead of mere plausibility.

mod common;

use common::fingerprint;
use dsud_core::update::UpdateOp;
use dsud_core::{
    Cluster, FailurePolicy, FaultKind, FaultPlan, LinkConfig, QueryConfig, QueryOutcome, Recorder,
    SessionOptions, SessionServer, SiteState, Topology, Transport, UncertainTuple, WireFormat,
};
use dsud_uncertain::{Probability, TupleId};

const N: usize = 800;
const DIMS: usize = 3;
const SITES: usize = 5;

/// Every scenario runs under both wire layouts.
const WIRES: [WireFormat; 2] = [WireFormat::Legacy, WireFormat::Columnar];

/// The sites whose ids key the seeded fault plans: the first member
/// behind each root link (every site under a flat topology).
fn chaos_keys(topology: Topology) -> Vec<u32> {
    topology.plan(SITES).groups().iter().map(|members| members[0]).collect()
}

/// Picks the first seed whose derived plans can defeat the default retry
/// budget: some root link gets a hard-fault window (timeout / disconnect /
/// malformed) at least `retry_budget + 1` attempts long, so a heartbeat
/// probe walking the ordinals one by one is guaranteed to burn its whole
/// budget inside the window and quarantine the sites behind it. Pure
/// function of the scan range — every matrix combination of a topology
/// picks the same seed.
fn quarantining_seed(topology: Topology) -> u64 {
    let attempts = u64::from(LinkConfig::default().retry_budget) + 1;
    (1..256)
        .find(|&seed| {
            chaos_keys(topology).into_iter().any(|key| {
                FaultPlan::seeded(seed, key)
                    .windows()
                    .iter()
                    .any(|w| w.len >= attempts && !matches!(w.kind, FaultKind::Slow(_)))
            })
        })
        .expect("some seed in 1..256 produces a long hard-fault window")
}

/// Sweeps needed to walk every link's attempt ordinal past its last fault
/// window: each heartbeat advances every root link by at least one attempt.
fn sweeps_to_drain(seed: u64, topology: Topology) -> u64 {
    let last_end = chaos_keys(topology)
        .into_iter()
        .flat_map(|key| FaultPlan::seeded(seed, key).windows().to_vec())
        .map(|w| w.start + w.len)
        .max()
        .unwrap_or(0);
    last_end + 8
}

/// A deployment whose root links replay the fault plans seeded by `seed`.
fn chaos_cluster(transport: Transport, topology: Topology, seed: u64) -> Cluster {
    Cluster::with_topology(
        DIMS,
        common::sites(N, DIMS, 29, SITES),
        Default::default(),
        Recorder::default(),
        transport,
        LinkConfig::default(),
        topology,
        Some(seed),
    )
    .expect("chaos cluster builds")
}

fn query_mix(wire: WireFormat) -> Vec<(QueryConfig, bool)> {
    [0.25, 0.3, 0.35, 0.4]
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let cfg = QueryConfig::new(q)
                .expect("valid threshold")
                .failure_policy(FailurePolicy::Degrade)
                .wire_format(wire);
            (cfg, i % 2 == 0)
        })
        .collect()
}

fn serve(server: &SessionServer, cfg: &QueryConfig, edsud: bool) -> QueryOutcome {
    let answer = if edsud {
        server.run_edsud(cfg, false, &mut |_, _| {})
    } else {
        server.run_dsud(cfg, false, &mut |_, _| {})
    }
    .expect("session query completes");
    answer.outcome
}

/// A dominating, high-probability spike homed at `site` — it must appear
/// in every post-insert skyline, which is how the test proves a deferred
/// update really reached the rejoining site.
fn spike(site: u32, seq: u64) -> UncertainTuple {
    UncertainTuple::new(
        TupleId::new(site, 1_000_000 + seq),
        vec![1e-4; DIMS],
        Probability::new(0.99).expect("valid probability"),
    )
    .expect("spike builds")
}

/// The full lifecycle on one deployment: quarantine → deferred updates →
/// reconnect + resync → rejoin → bit-identical answers. Under a tree a
/// lost root link quarantines every site behind it, and the resync
/// reaches them through their aggregators.
fn recovery_is_bit_identical_on(transport: Transport, topology: Topology) {
    for wire in WIRES {
        let seed = quarantining_seed(topology);

        // Reference: the same data and updates with no faults, ever.
        let reference = SessionServer::new(
            Cluster::local(DIMS, common::sites(N, DIMS, 29, SITES)).expect("cluster builds"),
            SessionOptions::default(),
        );

        // Manual heartbeats (heartbeat_every: 0) keep the probe schedule in
        // the test's hands; hair-trigger thresholds make one failed probe a
        // quarantine and one clean probe a rejoin.
        let server = SessionServer::new(
            chaos_cluster(transport, topology, seed),
            SessionOptions { miss_threshold: 1, probation_probes: 1, ..SessionOptions::default() },
        );

        // --- Phase 1: heartbeat until the seeded faults quarantine a site ----
        let mut quarantined: Vec<u32> = Vec::new();
        for _ in 0..sweeps_to_drain(seed, topology) {
            let summary = server.heartbeat();
            quarantined.extend(summary.quarantined.iter().copied());
            if !quarantined.is_empty() {
                break;
            }
        }
        assert!(
            !quarantined.is_empty(),
            "{transport} {topology} {wire}: seed {seed} must quarantine at least one site \
             (the seed scan guarantees a window longer than the retry budget)"
        );
        let victim = quarantined[0];
        assert!(
            matches!(server.site_states()[victim as usize], SiteState::Quarantined { .. }),
            "{transport} {topology} {wire}: site {victim} must report Quarantined"
        );

        // --- Phase 2: updates while the victim is down --------------------
        // One homed at the quarantined site (must be deferred and replayed at
        // rejoin) and one at a healthy site (applies immediately). The
        // reference applies both right away.
        let deferred_spike = spike(victim, 0);
        let live_home = (0..SITES as u32)
            .find(|s| !quarantined.contains(s))
            .expect("a site outside the quarantined subtree");
        let live_spike = spike(live_home, 1);
        for op in [UpdateOp::Insert(deferred_spike.clone()), UpdateOp::Insert(live_spike.clone())] {
            reference.apply_update(&op).expect("reference update applies");
            server.apply_update(&op).expect("chaos-server update is accepted");
        }

        // A query served during the quarantine may not see the deferred update
        // — the session layer must say so.
        let (cfg, edsud) = &query_mix(wire)[0];
        let mid_outage = serve(&server, cfg, *edsud);
        assert!(
            mid_outage.degraded,
            "{transport} {topology} {wire}: an answer produced during session quarantine must be stamped degraded"
        );

        // --- Phase 3: heal — drain every fault window, rejoin everything ----
        // No early exit: a site that never got quarantined may still have an
        // undrained window ahead, and a phase-4 query must not walk into it.
        // Every sweep advances every link's ordinal by at least one, so this
        // bound provably walks past the last scheduled fault.
        for _ in 0..sweeps_to_drain(seed, topology) {
            server.heartbeat();
        }
        assert!(
            server.site_states().iter().all(|s| matches!(s, SiteState::Active)),
            "{transport} {topology} {wire}: every site must be Active after the fault windows drain, got {:?}",
            server.site_states()
        );
        let stats = server.stats();
        assert!(
            stats.quarantines >= 1,
            "{transport} {topology} {wire}: lifecycle must record the quarantine"
        );
        assert!(stats.rejoins >= 1, "{transport} {topology} {wire}: the victim must rejoin");
        assert!(
            stats.resync_ops >= 1,
            "{transport} {topology} {wire}: the update deferred for site {victim} must be replayed at rejoin"
        );
        assert!(
            stats.heartbeat_misses >= 1,
            "{transport} {topology} {wire}: the probes that failed are counted"
        );

        // --- Phase 4: recovered answers are bit-identical to never-failed ---
        for (i, (cfg, edsud)) in query_mix(wire).iter().enumerate() {
            let want = serve(&reference, cfg, *edsud);
            let got = serve(&server, cfg, *edsud);
            assert!(
                !got.degraded,
                "{transport} {topology} {wire} query {i}: recovered answers are exact, not degraded"
            );
            assert!(!got.cancelled, "{transport} {topology} {wire} query {i}: no deadline was set");
            assert_eq!(
                fingerprint(&got),
                fingerprint(&want),
                "{transport} {topology} {wire} query {i}: post-recovery answer diverged from the never-failed run"
            );
            assert!(
                got.skyline.iter().any(|e| e.tuple.id() == deferred_spike.id()),
                "{transport} {topology} {wire} query {i}: the update deferred during the outage must be in the answer"
            );
            assert!(
                got.skyline.iter().any(|e| e.tuple.id() == live_spike.id()),
                "{transport} {topology} {wire} query {i}: the live update must be in the answer"
            );
        }
    }
}

#[test]
fn recovery_is_bit_identical_inline() {
    recovery_is_bit_identical_on(Transport::Inline, Topology::Flat);
}

#[test]
fn recovery_is_bit_identical_threaded() {
    recovery_is_bit_identical_on(Transport::Threaded, Topology::Flat);
}

#[test]
fn recovery_is_bit_identical_tcp() {
    recovery_is_bit_identical_on(Transport::Tcp, Topology::Flat);
}

#[test]
fn recovery_is_bit_identical_under_a_tree() {
    recovery_is_bit_identical_on(Transport::Inline, Topology::Tree(2));
}

/// A deadline of zero cancels at the first round boundary: the outcome is
/// stamped, counted, and never cached — and the same query without a
/// deadline still computes the full exact answer afterwards.
#[test]
fn deadline_cancels_cleanly_and_is_never_cached() {
    for wire in WIRES {
        let server = SessionServer::new(
            Cluster::local(DIMS, common::sites(N, DIMS, 29, SITES)).expect("cluster builds"),
            SessionOptions::default(),
        );
        let base = QueryConfig::new(0.3).expect("valid threshold").wire_format(wire);

        let cancelled =
            server.run_edsud(&base.deadline(0), false, &mut |_, _| {}).expect("query completes");
        assert!(cancelled.outcome.cancelled, "a zero deadline cancels at the first round boundary");
        assert_eq!(server.stats().cancelled, 1);

        // The partial answer must not have been cached: the same key without a
        // deadline recomputes and yields the full exact answer.
        let full = server.run_edsud(&base, false, &mut |_, _| {}).expect("query completes");
        assert!(!full.cache_hit, "a cancelled outcome must never enter the cache");
        assert!(!full.outcome.cancelled);
        let reference = Cluster::local(DIMS, common::sites(N, DIMS, 29, SITES))
            .expect("cluster builds")
            .run_edsud(&base)
            .expect("runs");
        assert_eq!(fingerprint(&full.outcome), fingerprint(&reference));
    }
}

/// The op log is bounded: quarantine a site, push more updates than the
/// log retains, and the rejoin falls back to the bootstrap path. Deferred
/// ops evicted from the log are gone — they were never injected into any
/// tree, and no bootstrap can resurrect them (this is exactly why
/// OPERATIONS.md says to size `op_log_capacity` above the worst outage's
/// update volume). What the lifecycle *does* guarantee: the retained tail
/// replays, every site rejoins, and answers match a reference that saw
/// the same surviving updates.
#[test]
fn truncated_op_log_rejoin_still_converges() {
    for wire in WIRES {
        let seed = quarantining_seed(Topology::Flat);
        let reference = SessionServer::new(
            Cluster::local(DIMS, common::sites(N, DIMS, 29, SITES)).expect("cluster builds"),
            SessionOptions::default(),
        );
        let server = SessionServer::new(
            chaos_cluster(Transport::Inline, Topology::Flat, seed),
            SessionOptions {
                miss_threshold: 1,
                probation_probes: 1,
                // Small enough that the outage's updates overflow it.
                op_log_capacity: 2,
                ..SessionOptions::default()
            },
        );

        let mut quarantined: Vec<u32> = Vec::new();
        for _ in 0..sweeps_to_drain(seed, Topology::Flat) {
            quarantined.extend(server.heartbeat().quarantined.iter().copied());
            if !quarantined.is_empty() {
                break;
            }
        }
        let victim = *quarantined.first().expect("the seeded plan quarantines a site");

        // Four spikes homed at the victim, all deferred: capacity 2 retains
        // only the last two, so the replay is provably incomplete and the
        // rejoin must take the bootstrap path. The reference applies only the
        // two updates that survive the truncation.
        for seq in 0..4u64 {
            let op = UpdateOp::Insert(spike(victim, seq));
            if seq >= 2 {
                reference.apply_update(&op).expect("reference update applies");
            }
            server.apply_update(&op).expect("chaos-server update is accepted");
        }

        for _ in 0..sweeps_to_drain(seed, Topology::Flat) {
            server.heartbeat();
        }
        assert!(
            server.site_states().iter().all(|s| matches!(s, SiteState::Active)),
            "all sites must rejoin, got {:?}",
            server.site_states()
        );
        assert!(server.stats().resync_ops >= 2, "the retained tail must replay");

        let (cfg, edsud) = &query_mix(wire)[1];
        let want = serve(&reference, cfg, *edsud);
        let got = serve(&server, cfg, *edsud);
        assert!(!got.degraded);
        assert_eq!(
            fingerprint(&got),
            fingerprint(&want),
            "post-bootstrap answers must match a run that saw the surviving updates"
        );
        for seq in 2..4u64 {
            assert!(
                got.skyline.iter().any(|e| e.tuple.id() == spike(victim, seq).id()),
                "retained spike {seq} must be replayed at rejoin"
            );
        }
        for seq in 0..2u64 {
            assert!(
                !got.skyline.iter().any(|e| e.tuple.id() == spike(victim, seq).id()),
                "evicted spike {seq} is lost — the documented truncation semantics"
            );
        }
    }
}

/// Seed + victim whose plan is exactly one hard window at least as long
/// as the full attempt budget (initial try + retries). Heartbeats advance
/// a healthy link's ordinal one attempt per sweep, so the test can walk
/// the victim to the window's edge and guarantee the *next* call burns
/// its whole retry budget inside it.
fn inject_defeating_seed() -> (u64, u32, u64) {
    let attempts = u64::from(LinkConfig::default().retry_budget) + 1;
    for seed in 1..4096u64 {
        for site in 0..SITES as u32 {
            let windows = FaultPlan::seeded(seed, site).windows().to_vec();
            if windows.len() == 1
                && windows[0].len >= attempts
                && !matches!(windows[0].kind, FaultKind::Slow(_))
            {
                return (seed, site, windows[0].start);
            }
        }
    }
    panic!("no seed in 1..4096 derives a single hard window longer than the retry budget");
}

/// An update whose inject defeats the whole retry budget on a
/// still-Active home site must not strand the op: `apply_update` reports
/// a deferral (not an error), quarantines the site stamped one epoch
/// *before* the op, and the rejoin resync re-delivers exactly that op —
/// so post-recovery answers are bit-identical to a reference that applied
/// it directly. An error return would leave the op in the log below any
/// later quarantine stamp, silently excluded from every replay.
#[test]
fn failed_inject_defers_quarantines_and_replays_at_rejoin() {
    for wire in WIRES {
        let (seed, victim, window_start) = inject_defeating_seed();

        let reference = SessionServer::new(
            Cluster::local(DIMS, common::sites(N, DIMS, 29, SITES)).expect("cluster builds"),
            SessionOptions::default(),
        );
        let server = SessionServer::new(
            chaos_cluster(Transport::Inline, Topology::Flat, seed),
            SessionOptions { miss_threshold: 1, probation_probes: 1, ..SessionOptions::default() },
        );

        // Walk the victim's attempt ordinal to the window's edge: every
        // pre-window probe succeeds and advances the link by exactly one
        // attempt, so the inject below starts at `window_start` and fails
        // every attempt of its budget.
        for _ in 1..window_start {
            server.heartbeat();
        }
        assert!(
            matches!(server.site_states()[victim as usize], SiteState::Active),
            "victim must still be Active at the window's edge (its only window lies ahead)"
        );

        let stranded = spike(victim, 7);
        let op = UpdateOp::Insert(stranded.clone());
        reference.apply_update(&op).expect("reference update applies");
        server.apply_update(&op).expect("a failed inject must defer the op, not error");
        assert!(
            matches!(server.site_states()[victim as usize], SiteState::Quarantined { .. }),
            "the failed inject must quarantine the home site on the spot"
        );
        let stats = server.stats();
        assert_eq!(stats.updates_applied, 0, "the op was deferred, never counted as applied");
        assert!(stats.quarantines >= 1, "the inject-failure quarantine must be counted");

        // Heal: drain the fault window, rejoin, and replay the stranded op.
        for _ in 0..sweeps_to_drain(seed, Topology::Flat) {
            server.heartbeat();
        }
        assert!(
            server.site_states().iter().all(|s| matches!(s, SiteState::Active)),
            "every site must rejoin after the window drains, got {:?}",
            server.site_states()
        );
        assert!(
            server.stats().resync_ops >= 1,
            "the op whose inject failed must be replayed at rejoin \
             (the quarantine is stamped one epoch before it)"
        );

        for (i, (cfg, edsud)) in query_mix(wire).iter().enumerate() {
            let want = serve(&reference, cfg, *edsud);
            let got = serve(&server, cfg, *edsud);
            assert!(!got.degraded, "query {i}: recovered answers are exact");
            assert_eq!(
                fingerprint(&got),
                fingerprint(&want),
                "query {i}: post-recovery answer diverged from a run that applied the op directly"
            );
            assert!(
                got.skyline.iter().any(|e| e.tuple.id() == stranded.id()),
                "query {i}: the op stranded by the failed inject must be in the answer"
            );
        }
    }
}

/// Candidate `(seed, victim)` pairs for the cache-hit deadlock scenario:
/// the victim has a single hard window that defeats the retry budget,
/// starting at least `min_start` attempts in (so a small cached query can
/// complete underneath it), and every other site's windows are survivable
/// (short enough for retries, or merely slow), so the cached query is not
/// degraded by a bystander.
fn cache_hit_scenario_seeds(min_start: u64, want: usize) -> Vec<(u64, u32)> {
    let budget = u64::from(LinkConfig::default().retry_budget);
    let survivable =
        |w: &dsud_core::FaultWindow| w.len <= budget || matches!(w.kind, FaultKind::Slow(_));
    let mut out = Vec::new();
    for seed in 1..65536u64 {
        for victim in 0..SITES as u32 {
            let windows = FaultPlan::seeded(seed, victim).windows().to_vec();
            let victim_ok = windows.len() == 1
                && windows[0].len > budget
                && windows[0].start >= min_start
                && !matches!(windows[0].kind, FaultKind::Slow(_));
            let others_ok = (0..SITES as u32)
                .filter(|s| *s != victim)
                .all(|s| FaultPlan::seeded(seed, s).windows().iter().all(survivable));
            if victim_ok && others_ok {
                out.push((seed, victim));
                if out.len() == want {
                    return out;
                }
            }
        }
    }
    out
}

/// One run of the cache-hit recovery scenario; `true` when the seed
/// played out: a clean query was cached, heartbeat sweeps triggered by
/// *cache-hit* serves quarantined the victim and later moved it to
/// probation (the resync path), and the cluster walked back to Active.
fn cache_hit_recovery_scenario(seed: u64, victim: u32, wire: WireFormat) -> bool {
    // heartbeat_every: 1 is the chaos soak's configuration — every served
    // query, cache hits included, runs a full sweep.
    let server = SessionServer::new(
        chaos_cluster(Transport::Inline, Topology::Flat, seed),
        SessionOptions {
            heartbeat_every: 1,
            miss_threshold: 1,
            probation_probes: 1,
            ..SessionOptions::default()
        },
    );
    // A progressive top-k query keeps the per-link call count small, so
    // it finishes (and is cached) before the victim's fault window opens.
    let cfg = QueryConfig::new(0.3)
        .expect("valid threshold")
        .limit(3)
        .failure_policy(FailurePolicy::Degrade)
        .wire_format(wire);
    let first = server.run_dsud(&cfg, false, &mut |_, _| {}).expect("first query completes");
    if first.outcome.degraded {
        // The query walked into a window after all: not cacheable, the
        // scenario cannot start — try the next candidate seed.
        return false;
    }

    // Every serve from here hits the cache (nothing invalidates it until
    // the resync itself), so each one's heartbeat sweep runs off the
    // cache-hit path — the exact path that used to hold the cache lock
    // through probe/resync and self-deadlock on the resync's cache clear.
    let mut probation_under_cache_hit = false;
    for _ in 0..sweeps_to_drain(seed, Topology::Flat) + 8 {
        let before = server.site_states();
        let out = server.run_dsud(&cfg, false, &mut |_, _| {}).expect("serve completes");
        let after = server.site_states();
        let probation_began = matches!(before[victim as usize], SiteState::Quarantined { .. })
            && !matches!(after[victim as usize], SiteState::Quarantined { .. });
        if out.cache_hit && probation_began {
            probation_under_cache_hit = true;
        }
        if probation_under_cache_hit && after.iter().all(|s| matches!(s, SiteState::Active)) {
            assert!(server.stats().rejoins >= 1, "seed {seed}: the victim must rejoin");
            assert!(server.stats().cache_hits >= 1, "seed {seed}: the driver serves from cache");
            return true;
        }
    }
    false
}

/// REVIEW regression: a heartbeat sweep scheduled by a *cache-hit* serve
/// must be able to resync a recovering site. The cache-hit path used to
/// hold the result-cache lock through `note_served()`, so the resync's
/// own cache invalidation re-locked the same mutex on the same thread
/// and hung the daemon. With the guard dropped before the sweep, the
/// full quarantine → probation(resync) → rejoin cycle completes while
/// every driving query is served from cache.
#[test]
fn cache_hit_heartbeat_resync_does_not_deadlock() {
    let candidates = cache_hit_scenario_seeds(12, 12);
    assert!(!candidates.is_empty(), "the seed scan must yield candidate fault plans");
    for wire in WIRES {
        assert!(
            candidates
                .iter()
                .any(|&(seed, victim)| cache_hit_recovery_scenario(seed, victim, wire)),
            "{wire}: no candidate seed completed the cache-hit recovery scenario \
             (candidates tried: {candidates:?})"
        );
    }
}
