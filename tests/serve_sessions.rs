//! The session-layer contract behind `dsud serve`: multiplexing many
//! concurrent queries onto one resident deployment must be invisible in
//! the answers.
//!
//! * Every concurrently-admitted query returns the same skyline
//!   (bit-exact probabilities, same order), the same progress sequence,
//!   and the same per-query traffic as the identical query run one-shot
//!   on a fresh cluster — across inline, threaded, and TCP transports,
//!   under both wire layouts.
//! * A repeated query is served from the result cache: identical answer,
//!   zero rounds, zero tuples transmitted, `cache_hits = 1` in its run
//!   report.
//! * An update applied through the maintenance path invalidates the
//!   cache: the repeat recomputes and sees the new data; reversing the
//!   update restores the original answer bit for bit.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::{fingerprint, Sequence};
use dsud_core::update::UpdateOp;
use dsud_core::{
    Cluster, FailurePolicy, FaultKind, FaultPlan, LinkConfig, QueryConfig, QueryOutcome, Recorder,
    SessionOptions, SessionServer, SiteOptions, SiteState, Transport, UncertainTuple, WireFormat,
};

use dsud_uncertain::{skyline_probabilities, SkylineEntry, SubspaceMask, TupleId, UncertainDb};

const N: usize = 1_200;
const DIMS: usize = 3;
const SITES: usize = 6;

/// Every test runs under both wire layouts.
const WIRES: [WireFormat; 2] = [WireFormat::Legacy, WireFormat::Columnar];

/// Everything the session layer must preserve: the answer and progress
/// sequence bit for bit, plus the paper's bandwidth measure and the
/// query's bytes.
fn with_traffic(outcome: &QueryOutcome) -> ((Sequence, Sequence), u64, u64) {
    (fingerprint(outcome), outcome.tuples_transmitted(), outcome.traffic.total().bytes)
}

/// The 8-query workload mix: distinct thresholds and algorithms so no two
/// concurrent queries share a cache key.
const MIX: [(f64, bool); 8] = [
    (0.2, false),
    (0.2, true),
    (0.3, false),
    (0.3, true),
    (0.4, false),
    (0.4, true),
    (0.5, false),
    (0.5, true),
];

fn one_shot(q: f64, edsud: bool, wire: WireFormat) -> QueryOutcome {
    let mut cluster = Cluster::with_transport(
        DIMS,
        common::sites(N, DIMS, 11, SITES),
        SiteOptions::default(),
        Recorder::default(),
        Transport::Inline,
    )
    .expect("cluster builds");
    let config = QueryConfig::new(q).expect("valid threshold").wire_format(wire);
    if edsud { cluster.run_edsud(&config) } else { cluster.run_dsud(&config) }
        .expect("one-shot query runs")
}

fn session_server(transport: Transport, max_concurrent: usize, cache: usize) -> SessionServer {
    let cluster = Cluster::with_transport(
        DIMS,
        common::sites(N, DIMS, 11, SITES),
        SiteOptions::default(),
        Recorder::default(),
        transport,
    )
    .expect("cluster builds");
    SessionServer::new(
        cluster,
        SessionOptions { max_concurrent, cache_capacity: cache, ..SessionOptions::default() },
    )
}

/// 8 queries admitted concurrently (the full admission width) against one
/// resident deployment, on every transport, each compared bit for bit —
/// answer, progress, and per-query traffic — to the same query run
/// one-shot on a fresh cluster.
#[test]
fn concurrent_session_queries_match_sequential_one_shots_bitwise() {
    for wire in WIRES {
        let references: Vec<_> = MIX.iter().map(|&(q, edsud)| one_shot(q, edsud, wire)).collect();
        assert!(
            references.iter().all(|r| !r.skyline.is_empty()),
            "every mix entry must produce a non-trivial skyline"
        );

        for transport in [Transport::Inline, Transport::Threaded, Transport::Tcp] {
            let server = Arc::new(session_server(transport, MIX.len(), 0));
            let outcomes: Vec<QueryOutcome> = std::thread::scope(|s| {
                let handles: Vec<_> = MIX
                    .iter()
                    .map(|&(q, edsud)| {
                        let server = Arc::clone(&server);
                        s.spawn(move || {
                            let config =
                                QueryConfig::new(q).expect("valid threshold").wire_format(wire);
                            let answer = if edsud {
                                server.run_edsud(&config, false, &mut |_, _| {})
                            } else {
                                server.run_dsud(&config, false, &mut |_, _| {})
                            }
                            .expect("session query runs");
                            assert!(!answer.cache_hit, "cache is disabled in this test");
                            answer.outcome
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("query thread joins")).collect()
            });

            for (i, (outcome, reference)) in outcomes.iter().zip(&references).enumerate() {
                let (q, edsud) = MIX[i];
                assert_eq!(
                    with_traffic(outcome),
                    with_traffic(reference),
                    "{transport} {wire} q={q} edsud={edsud}"
                );
                assert_eq!(
                    outcome.stats, reference.stats,
                    "{transport} {wire} q={q} edsud={edsud}"
                );
            }

            let stats = server.stats();
            assert_eq!(stats.queries_served, MIX.len() as u64, "{transport} {wire}");
            assert_eq!(stats.cache_hits, 0, "{transport} {wire}");
            assert!(
                stats.peak_concurrent <= MIX.len(),
                "{transport} {wire}: admission must bound concurrency, saw {}",
                stats.peak_concurrent
            );
        }
    }
}

/// A repeated query is served from the result cache: the answer and
/// progress sequence are bit-identical, and its schema-6 report shows the
/// hit — zero rounds, zero traffic, `cache_hits = 1`.
#[test]
fn warm_cache_repeat_is_identical_with_zero_rounds() {
    for wire in WIRES {
        let server = session_server(Transport::Inline, 4, 16);
        let config = QueryConfig::new(0.3).expect("valid threshold").wire_format(wire);

        let cold = server.run_edsud(&config, true, &mut |_, _| {}).expect("cold query runs");
        assert!(!cold.cache_hit);
        let cold_report = cold.report.as_ref().expect("report was requested");
        assert!(cold_report.counters.rounds >= 1, "a computed query has rounds");
        assert!(cold.outcome.tuples_transmitted() > 0);

        let warm = server.run_edsud(&config, true, &mut |_, _| {}).expect("warm query runs");
        assert!(warm.cache_hit, "identical repeat must hit the cache");
        assert_ne!(warm.query_id, cold.query_id, "every query gets its own id");

        // Identical answer and progress sequence, bit for bit.
        let skyline = |o: &QueryOutcome| {
            o.skyline.iter().map(|e| (e.tuple.id(), e.probability.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(skyline(&warm.outcome), skyline(&cold.outcome));
        let progress = |o: &QueryOutcome| {
            o.progress.events().iter().map(|e| (e.id, e.probability.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(progress(&warm.outcome), progress(&cold.outcome));

        // The hit did no distributed work at all.
        assert_eq!(warm.outcome.tuples_transmitted(), 0);
        assert_eq!(warm.outcome.traffic.total().messages, 0);
        assert_eq!(warm.outcome.stats.iterations, 0);

        // ... and its report says so in the schema-6 session fields.
        let warm_report = warm.report.as_ref().expect("report was requested");
        assert_eq!(warm_report.schema_version, dsud_core::SCHEMA_VERSION);
        assert_eq!(warm_report.query_id, Some(warm.query_id));
        assert_eq!(warm_report.counters.cache_hits, 1);
        assert_eq!(warm_report.counters.rounds, 0, "a cache hit runs zero candidate rounds");
        assert_eq!(warm_report.counters.tuples_shipped, 0);
        assert_eq!(warm_report.counters.bytes_sent, 0);
        assert_eq!(
            warm_report.progressive.len(),
            cold.outcome.skyline.len(),
            "the hit replays every result progressively"
        );
        assert_eq!(cold_report.query_id, Some(cold.query_id));
        assert_eq!(cold_report.counters.cache_hits, 0);

        let stats = server.stats();
        assert_eq!((stats.queries_served, stats.cache_hits), (2, 1));
        assert_eq!(stats.cache_entries, 1);
    }
}

/// Different query keys get different cache entries; sharing only happens
/// on a true repeat.
#[test]
fn cache_keys_distinguish_algorithm_and_threshold() {
    for wire in WIRES {
        let server = session_server(Transport::Inline, 4, 16);
        for (q, edsud) in [(0.3, true), (0.3, false), (0.4, true)] {
            let config = QueryConfig::new(q).expect("valid threshold").wire_format(wire);
            let answer = if edsud {
                server.run_edsud(&config, false, &mut |_, _| {})
            } else {
                server.run_dsud(&config, false, &mut |_, _| {})
            }
            .expect("query runs");
            assert!(!answer.cache_hit, "q={q} edsud={edsud} is a distinct key");
        }
        assert_eq!(server.stats().cache_entries, 3);
    }
}

/// An update through the maintenance path invalidates the cache: the
/// repeat recomputes against the new data, and undoing the update brings
/// back the original answer bit for bit.
#[test]
fn update_between_queries_invalidates_the_cache() {
    for wire in WIRES {
        let server = session_server(Transport::Inline, 4, 16);
        let config = QueryConfig::new(0.3).expect("valid threshold").wire_format(wire);

        let original = server.run_edsud(&config, false, &mut |_, _| {}).expect("first query runs");
        assert!(server.run_edsud(&config, false, &mut |_, _| {}).expect("repeat runs").cache_hit);

        // A dominating, high-probability tuple at site 0 must enter the answer.
        let spike = UncertainTuple::new(
            TupleId::new(0, 1_000_000),
            vec![1e-4; DIMS],
            dsud_uncertain::Probability::new(0.99).expect("valid probability"),
        )
        .expect("tuple builds");
        server.apply_update(&UpdateOp::Insert(spike.clone())).expect("insert applies");

        let after_insert =
            server.run_edsud(&config, false, &mut |_, _| {}).expect("post-update query runs");
        assert!(!after_insert.cache_hit, "the update must invalidate the cached answer");
        assert!(
            after_insert.outcome.skyline.iter().any(|e| e.tuple.id() == spike.id()),
            "the inserted tuple must appear in the recomputed skyline"
        );

        server.apply_update(&UpdateOp::Delete(spike)).expect("delete applies");
        let restored =
            server.run_edsud(&config, false, &mut |_, _| {}).expect("restored query runs");
        assert!(!restored.cache_hit);
        assert_eq!(
            with_traffic(&restored.outcome),
            with_traffic(&original.outcome),
            "undoing the update must restore the original answer bitwise"
        );

        let stats = server.stats();
        assert_eq!(stats.updates_applied, 2);
        assert!(stats.cache_invalidated >= 2, "both updates dropped a cached answer");
    }
}

/// First seed whose derived fault plans can kill a site outright: some
/// site gets a hard-fault window at least `retry_budget + 1` attempts
/// long, so one request burns its whole retry budget inside the window
/// and the owning query sees the site fail. Pure in the scan range, so
/// every transport picks the same seed.
fn killing_seed() -> u64 {
    let attempts = u64::from(LinkConfig::default().retry_budget) + 1;
    (1..256)
        .find(|&seed| {
            (0..SITES as u32).any(|site| {
                FaultPlan::seeded(seed, site)
                    .windows()
                    .iter()
                    .any(|w| w.len >= attempts && !matches!(w.kind, FaultKind::Slow(_)))
            })
        })
        .expect("some seed in 1..256 produces a long hard-fault window")
}

/// What a query's sink saw: each entry with its probability and whether
/// it came unstamped (exact).
type Streamed = Vec<(TupleId, f64, bool)>;

/// Fault-free global skyline probability of every tuple, computed
/// centrally by Eq. 3 — the truth a streamed upper bound must not undercut
/// for tuples outside the one-shot answer.
fn central_probabilities() -> HashMap<TupleId, f64> {
    let all: Vec<UncertainTuple> =
        common::sites(N, DIMS, 11, SITES).into_iter().flatten().collect();
    let db = UncertainDb::from_tuples(DIMS, all.iter().cloned()).expect("db builds");
    let mask = SubspaceMask::full(DIMS).expect("full mask");
    let probs = skyline_probabilities(&db, mask).expect("central probabilities");
    all.iter().map(UncertainTuple::id).zip(probs).collect()
}

/// A site killed while the server is mid-way through serving a concurrent
/// wave of queries: the query whose request dies inside the fault window
/// comes back stamped `degraded`, every other outcome is bit-identical to
/// the clean reference, and nothing panics, hangs, or silently lies.
/// Every streamed entry is judged on its own stamp: an unstamped one is
/// the fault-free probability bit for bit, a stamped one never undercuts
/// it. Afterwards heartbeats walk the site back to Active and the
/// deployment serves exact answers again.
#[test]
fn site_killed_mid_served_query_degrades_victim_without_poisoning_neighbours() {
    for wire in WIRES {
        let seed = killing_seed();
        let references: Vec<_> = MIX.iter().map(|&(q, edsud)| one_shot(q, edsud, wire)).collect();
        let central = central_probabilities();
        let mut stamped = 0usize;

        for transport in [Transport::Inline, Transport::Threaded, Transport::Tcp] {
            let cluster = Cluster::with_transport_chaos(
                DIMS,
                common::sites(N, DIMS, 11, SITES),
                SiteOptions::default(),
                Recorder::default(),
                transport,
                LinkConfig::default(),
                seed,
            )
            .expect("cluster builds");
            // Cache off: a pre-fault exact answer must not shadow later waves.
            let server = Arc::new(SessionServer::new(
                cluster,
                SessionOptions {
                    max_concurrent: MIX.len(),
                    cache_capacity: 0,
                    ..SessionOptions::default()
                },
            ));

            // Two concurrent waves: enough link attempts to walk every site's
            // ordinal stream through its seeded windows.
            let mut degraded = 0usize;
            for wave in 0..2 {
                let outcomes: Vec<(QueryOutcome, Streamed)> = std::thread::scope(|s| {
                    let handles: Vec<_> = MIX
                        .iter()
                        .map(|&(q, edsud)| {
                            let server = Arc::clone(&server);
                            s.spawn(move || {
                                let config = QueryConfig::new(q)
                                    .expect("valid threshold")
                                    .failure_policy(FailurePolicy::Degrade)
                                    .wire_format(wire);
                                let mut streamed = Vec::new();
                                let mut sink = |entries: &[SkylineEntry], exact: bool| {
                                    streamed.extend(
                                        entries
                                            .iter()
                                            .map(|e| (e.tuple.id(), e.probability, exact)),
                                    );
                                };
                                let answer = if edsud {
                                    server.run_edsud(&config, false, &mut sink)
                                } else {
                                    server.run_dsud(&config, false, &mut sink)
                                }
                                .expect("a killed site degrades, it never errors under Degrade");
                                (answer.outcome, streamed)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("query thread joins")).collect()
                });

                for (i, (outcome, streamed)) in outcomes.iter().enumerate() {
                    let (q, edsud) = MIX[i];
                    let ctx = format!("{transport} {wire} wave {wave} q={q} edsud={edsud}");
                    let answer: Vec<(TupleId, u64)> = outcome
                        .skyline
                        .iter()
                        .map(|e| (e.tuple.id(), e.probability.to_bits()))
                        .collect();
                    let sent: Vec<(TupleId, u64)> =
                        streamed.iter().map(|&(id, p, _)| (id, p.to_bits())).collect();
                    assert_eq!(sent, answer, "{ctx}: the stream must concatenate to the answer");
                    let exact: HashMap<TupleId, f64> = references[i]
                        .skyline
                        .iter()
                        .map(|e| (e.tuple.id(), e.probability))
                        .collect();
                    for &(id, p, unstamped) in streamed {
                        match (unstamped, exact.get(&id)) {
                            (true, Some(&truth)) => assert_eq!(
                                p.to_bits(),
                                truth.to_bits(),
                                "{ctx}: unstamped {id} must be the fault-free probability"
                            ),
                            (true, None) => {
                                panic!("{ctx}: unstamped {id} is not in the fault-free answer")
                            }
                            (false, Some(&truth)) => {
                                stamped += 1;
                                assert!(p >= truth, "{ctx}: stamped {id} {p} undercuts {truth}");
                            }
                            (false, None) => {
                                stamped += 1;
                                let truth = central[&id];
                                assert!(truth < q, "{ctx}: {id} qualifies but is missing");
                                assert!(p >= truth, "{ctx}: stamped {id} {p} undercuts {truth}");
                            }
                        }
                    }
                    if outcome.degraded {
                        // The victim: a named quarantine and a usable partial
                        // answer, never an empty or corrupt one.
                        degraded += 1;
                        assert!(
                            outcome.sites.iter().any(|s| s.quarantined.is_some()),
                            "{transport} {wire} wave {wave} q={q} edsud={edsud}: degraded outcome \
                             must name a quarantined site"
                        );
                        assert!(
                            !outcome.skyline.is_empty(),
                            "{transport} {wire} wave {wave} q={q} edsud={edsud}: degraded skyline empty"
                        );
                    } else {
                        assert_eq!(
                            fingerprint(outcome),
                            fingerprint(&references[i]),
                            "{transport} {wire} wave {wave} q={q} edsud={edsud}: non-degraded outcome \
                             diverged from the clean reference"
                        );
                    }
                }
            }
            assert!(degraded >= 1, "{transport} {wire}: the seeded kill never claimed a victim");

            // Drain the remaining fault windows with heartbeats (each sweep
            // advances every link by at least one attempt), then verify the
            // deployment is whole again: all sites Active, answers exact.
            let last_end = (0..SITES as u32)
                .flat_map(|site| FaultPlan::seeded(seed, site).windows().to_vec())
                .map(|w| w.start + w.len)
                .max()
                .unwrap_or(0);
            for _ in 0..last_end + 8 {
                server.heartbeat();
            }
            assert!(
                server.site_states().iter().all(|s| matches!(s, SiteState::Active)),
                "{transport} {wire}: sites not all Active after draining the fault plan: {:?}",
                server.site_states()
            );
            for (i, &(q, edsud)) in MIX.iter().enumerate() {
                let config = QueryConfig::new(q)
                    .expect("valid threshold")
                    .failure_policy(FailurePolicy::Degrade)
                    .wire_format(wire);
                let mut bounds = 0usize;
                let mut sink = |entries: &[SkylineEntry], exact: bool| {
                    bounds += entries.len() * usize::from(!exact);
                };
                let answer = if edsud {
                    server.run_edsud(&config, false, &mut sink)
                } else {
                    server.run_dsud(&config, false, &mut sink)
                }
                .expect("healed query runs");
                assert_eq!(
                    bounds, 0,
                    "{transport} {wire} q={q} edsud={edsud}: healed entries stamped"
                );
                assert!(
                    !answer.outcome.degraded,
                    "{transport} {wire} q={q} edsud={edsud}: still degraded"
                );
                assert_eq!(
                    fingerprint(&answer.outcome),
                    fingerprint(&references[i]),
                    "{transport} {wire} q={q} edsud={edsud}: healed answer diverged"
                );
            }
        }
        assert!(stamped >= 1, "no victim streamed an entry after its site was quarantined");
    }
}

/// A width-1 admission gate fully serializes concurrent queries without
/// changing any answer.
#[test]
fn admission_gate_queues_beyond_the_width() {
    for wire in WIRES {
        let server = Arc::new(session_server(Transport::Inline, 1, 0));
        // With width 1, 4 concurrent queries serialize; all must still answer
        // correctly and at most one runs at a time.
        let reference = one_shot(0.3, true, wire);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let server = Arc::clone(&server);
                let reference = &reference;
                s.spawn(move || {
                    let config = QueryConfig::new(0.3).expect("valid threshold").wire_format(wire);
                    let answer =
                        server.run_edsud(&config, false, &mut |_, _| {}).expect("query runs");
                    assert_eq!(with_traffic(&answer.outcome), with_traffic(reference));
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.queries_served, 4);
        assert_eq!(stats.peak_concurrent, 1, "width-1 gate must fully serialize");
    }
}
