//! Robustness: a misbehaving or dead site must surface as a typed error
//! under [`FailurePolicy::Strict`], or as a quarantine under
//! [`FailurePolicy::Degrade`] — never a panic, hang, or silently wrong
//! answer — on every transport and at every thread-pool size.
//!
//! Fault schedules are injected by [`FaultyLink`], which counts calls to
//! itself and short-circuits *before* the wrapped transport, so the same
//! schedule replays identically on inline, threaded, and TCP links. The
//! "killed site" tests instead panic the real site service mid-query, so
//! the failure travels through the genuine transport machinery.

mod common;

use std::time::Duration;

use common::{fingerprint, Sequence};
use dsud_core::{dsud, edsud, Error, LocalSite, SiteOptions, SubspaceMask};
use dsud_core::{
    BandwidthMeter, Cluster, Counter, FailurePolicy, FaultKind, FaultPlan, Link, LinkConfig,
    LinkError, QuarantineReason, QueryConfig, Recorder, RetryLink, SessionOptions, SessionServer,
    Transport,
};
use dsud_net::{tcp, ChannelLink, FaultMode, FaultyLink, LocalLink, Message, Service};

const DIMS: usize = 2;
const SITES: usize = 4;
const ALL_TRANSPORTS: [Transport; 3] = [Transport::Inline, Transport::Threaded, Transport::Tcp];

fn mask() -> SubspaceMask {
    SubspaceMask::full(DIMS).unwrap()
}

/// The library defaults (one-candidate rounds, no pipelining, legacy wire,
/// no plan phase) under the given failure policy.
fn config(failure: FailurePolicy) -> QueryConfig {
    QueryConfig::new(0.3).expect("valid threshold").failure_policy(failure)
}

/// Short deadlines so swallowed requests fail fast, zero backoff so retry
/// sleeps never slow the suite down, budget 2 so `Stall(2)` is recoverable.
fn fast_config() -> LinkConfig {
    LinkConfig {
        request_timeout: Duration::from_millis(500),
        retry_budget: 2,
        backoff: Duration::ZERO,
    }
}

fn boxed<L: Link + 'static>(
    inner: L,
    fault: Option<(FaultMode, u64)>,
    cfg: LinkConfig,
    recorder: &Recorder,
) -> Box<dyn Link> {
    match fault {
        Some((mode, healthy_calls)) => Box::new(RetryLink::with_recorder(
            FaultyLink::new(inner, mode, healthy_calls),
            cfg,
            recorder.clone(),
        )),
        None => Box::new(RetryLink::with_recorder(inner, cfg, recorder.clone())),
    }
}

/// A 4-site cluster over the given transport, with `fault` (if any)
/// injected between the retry layer and the transport at `fault_site`.
/// The returned servers must stay alive for the duration of the query.
fn faulty_cluster(
    transport: Transport,
    fault: Option<(usize, FaultMode, u64)>,
    recorder: &Recorder,
) -> (Vec<Box<dyn Link>>, BandwidthMeter, Vec<tcp::SiteServer>) {
    let meter = BandwidthMeter::with_recorder(recorder.clone());
    let cfg = fast_config();
    let mut links: Vec<Box<dyn Link>> = Vec::new();
    let mut servers = Vec::new();
    for (i, tuples) in common::sites(600, DIMS, 10, SITES).into_iter().enumerate() {
        let site = LocalSite::new(i as u32, DIMS, tuples, SiteOptions::default()).unwrap();
        let mode = fault.and_then(|(fs, m, h)| (fs == i).then_some((m, h)));
        let link = match transport {
            Transport::Inline => boxed(LocalLink::new(site, meter.clone()), mode, cfg, recorder),
            Transport::Threaded => {
                boxed(ChannelLink::spawn_with(site, meter.clone(), cfg), mode, cfg, recorder)
            }
            Transport::Tcp => {
                let server = tcp::spawn_site(site).expect("site server starts");
                let link = tcp::TcpLink::connect_with(server.addr(), meter.clone(), cfg)
                    .expect("link connects");
                servers.push(server);
                boxed(link, mode, cfg, recorder)
            }
        };
        links.push(link);
    }
    (links, meter, servers)
}

// --- strict mode: transport failures become typed SiteFailed errors -------

#[test]
fn strict_drop_is_site_failed_on_every_transport() {
    for transport in ALL_TRANSPORTS {
        let recorder = Recorder::disabled();
        let (mut links, meter, _servers) =
            faulty_cluster(transport, Some((1, FaultMode::Drop, 3)), &recorder);
        let err = dsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Strict));
        match err {
            Err(Error::SiteFailed { site: 1, source: LinkError::Timeout }) => {}
            other => panic!("{transport:?}: expected SiteFailed(Timeout) at site 1, got {other:?}"),
        }
    }
}

#[test]
fn strict_disconnect_is_site_failed_on_every_transport() {
    for transport in ALL_TRANSPORTS {
        let recorder = Recorder::disabled();
        let (mut links, meter, _servers) =
            faulty_cluster(transport, Some((2, FaultMode::Disconnect, 5)), &recorder);
        let err = edsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Strict));
        match err {
            Err(Error::SiteFailed { site: 2, source: LinkError::Disconnected }) => {}
            other => {
                panic!("{transport:?}: expected SiteFailed(Disconnected) at site 2, got {other:?}")
            }
        }
    }
}

// --- degrade mode: the query survives and names what it lost -------------

#[test]
fn degrade_quarantines_the_failed_site_and_completes() {
    for transport in ALL_TRANSPORTS {
        for fault in [FaultMode::Drop, FaultMode::Disconnect] {
            let recorder = Recorder::enabled();
            let (mut links, meter, _servers) =
                faulty_cluster(transport, Some((1, fault, 3)), &recorder);
            let outcome = dsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Degrade))
                .unwrap_or_else(|e| panic!("{transport:?}/{fault:?}: degrade mode failed: {e}"));
            assert!(outcome.degraded, "{transport:?}/{fault:?}: outcome not marked degraded");
            assert!(!outcome.skyline.is_empty(), "{transport:?}/{fault:?}: empty skyline");
            assert_eq!(outcome.sites.len(), SITES);
            for (i, status) in outcome.sites.iter().enumerate() {
                if i == 1 {
                    assert!(
                        matches!(status.quarantined, Some(QuarantineReason::Transport(_))),
                        "{transport:?}/{fault:?}: site 1 status {status:?}"
                    );
                } else {
                    assert!(status.healthy(), "{transport:?}/{fault:?}: site {i} not healthy");
                }
            }
            assert_eq!(recorder.counter(Counter::QuarantinedSites), 1);
        }
    }
}

// --- a stall within the retry budget is invisible -------------------------

#[test]
fn stall_within_budget_recovers_the_exact_healthy_answer() {
    for transport in ALL_TRANSPORTS {
        let healthy_rec = Recorder::enabled();
        let (mut links, meter, _servers) = faulty_cluster(transport, None, &healthy_rec);
        let healthy =
            edsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Strict)).unwrap();

        // Stall(2) swallows two attempts; budget 2 grants two retries, so
        // the third attempt lands and the service never saw the stalls.
        let stalled_rec = Recorder::enabled();
        let (mut links, meter, _servers) =
            faulty_cluster(transport, Some((1, FaultMode::Stall(2), 4)), &stalled_rec);
        let stalled = edsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Strict))
            .unwrap_or_else(|e| panic!("{transport:?}: stall within budget failed: {e}"));

        assert!(!stalled.degraded, "{transport:?}: recovered run marked degraded");
        assert_eq!(
            fingerprint(&stalled),
            fingerprint(&healthy),
            "{transport:?}: stalled run answer diverged"
        );
        assert_eq!(
            stalled.traffic.tuples_transmitted(),
            healthy.traffic.tuples_transmitted(),
            "{transport:?}: swallowed attempts must not be metered"
        );
        assert_eq!(stalled_rec.counter(Counter::LinkRetries), 2, "{transport:?}");
        assert_eq!(stalled_rec.counter(Counter::LinkTimeouts), 2, "{transport:?}");
        assert_eq!(stalled_rec.counter(Counter::QuarantinedSites), 0, "{transport:?}");
    }
}

// --- protocol misbehavior (wrong replies, corrupt values) -----------------

#[test]
fn strict_wrong_reply_is_a_protocol_violation_naming_the_site() {
    let recorder = Recorder::disabled();
    let (mut links, meter, _servers) =
        faulty_cluster(Transport::Inline, Some((1, FaultMode::WrongReply, 3)), &recorder);
    let err = dsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Strict));
    assert!(matches!(err, Err(Error::ProtocolViolation { site: 1, .. })), "got {err:?}");
}

#[test]
fn degrade_wrong_reply_quarantines_with_a_protocol_reason() {
    let recorder = Recorder::enabled();
    let (mut links, meter, _servers) =
        faulty_cluster(Transport::Inline, Some((2, FaultMode::WrongReply, 5)), &recorder);
    let outcome = edsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Degrade)).unwrap();
    assert!(outcome.degraded);
    assert!(
        matches!(outcome.sites[2].quarantined, Some(QuarantineReason::Protocol(_))),
        "site 2 status {:?}",
        outcome.sites[2]
    );
}

#[test]
fn fault_on_first_contact_is_caught() {
    let recorder = Recorder::disabled();
    let (mut links, meter, _servers) =
        faulty_cluster(Transport::Inline, Some((0, FaultMode::WrongReply, 0)), &recorder);
    let err = dsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Strict));
    assert!(matches!(err, Err(Error::ProtocolViolation { site: 0, .. })), "got {err:?}");
}

#[test]
fn healthy_budget_large_enough_means_success() {
    // A fault scheduled after the query completes never fires.
    let recorder = Recorder::disabled();
    let (mut links, meter, _servers) =
        faulty_cluster(Transport::Inline, Some((1, FaultMode::WrongReply, u64::MAX)), &recorder);
    let outcome = edsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Strict)).unwrap();
    assert!(!outcome.skyline.is_empty());
    assert!(!outcome.degraded);
    assert!(outcome.sites.iter().all(dsud_core::SiteStatus::healthy));
}

#[test]
fn corrupted_survival_values_are_rejected() {
    let recorder = Recorder::disabled();
    let (mut links, meter, _servers) =
        faulty_cluster(Transport::Inline, Some((1, FaultMode::CorruptSurvival, 4)), &recorder);
    let err = edsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Strict));
    assert!(
        matches!(
            err,
            Err(Error::ProtocolViolation { site: 1, what: "survival product out of range" })
        ),
        "got {err:?}"
    );
}

// --- a really dead site: the service panics mid-query ---------------------

/// Wraps a site service and panics after `remaining` handled messages —
/// the worker thread (threaded) or accept loop (TCP) genuinely dies, so
/// the failure exercises the real transport error path, not an injected one.
struct PanicAfter<S> {
    inner: S,
    remaining: u64,
}

impl<S: Service> Service for PanicAfter<S> {
    fn handle(&mut self, msg: Message) -> Message {
        if self.remaining == 0 {
            panic!("site killed mid-query (injected by fault_tolerance test)");
        }
        self.remaining -= 1;
        self.inner.handle(msg)
    }
}

fn killed_site_cluster(
    transport: Transport,
    killed: usize,
    after: u64,
    recorder: &Recorder,
) -> (Vec<Box<dyn Link>>, BandwidthMeter, Vec<tcp::SiteServer>) {
    let meter = BandwidthMeter::with_recorder(recorder.clone());
    let cfg = fast_config();
    let mut links: Vec<Box<dyn Link>> = Vec::new();
    let mut servers = Vec::new();
    for (i, tuples) in common::sites(600, DIMS, 10, SITES).into_iter().enumerate() {
        let site = LocalSite::new(i as u32, DIMS, tuples, SiteOptions::default()).unwrap();
        let link: Box<dyn Link> = match transport {
            Transport::Threaded if i == killed => {
                let doomed = PanicAfter { inner: site, remaining: after };
                boxed(ChannelLink::spawn_with(doomed, meter.clone(), cfg), None, cfg, recorder)
            }
            Transport::Tcp if i == killed => {
                let doomed = PanicAfter { inner: site, remaining: after };
                let server = tcp::spawn_site(doomed).expect("site server starts");
                let link = tcp::TcpLink::connect_with(server.addr(), meter.clone(), cfg)
                    .expect("link connects");
                servers.push(server);
                boxed(link, None, cfg, recorder)
            }
            Transport::Inline | Transport::Threaded => {
                boxed(ChannelLink::spawn_with(site, meter.clone(), cfg), None, cfg, recorder)
            }
            Transport::Tcp => {
                let server = tcp::spawn_site(site).expect("site server starts");
                let link = tcp::TcpLink::connect_with(server.addr(), meter.clone(), cfg)
                    .expect("link connects");
                servers.push(server);
                boxed(link, None, cfg, recorder)
            }
        };
        links.push(link);
    }
    (links, meter, servers)
}

#[test]
fn killing_a_site_mid_query_is_site_failed_under_strict() {
    for transport in [Transport::Threaded, Transport::Tcp] {
        let recorder = Recorder::disabled();
        let (mut links, meter, _servers) = killed_site_cluster(transport, 1, 3, &recorder);
        let err = dsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Strict));
        match err {
            Err(Error::SiteFailed { site: 1, .. }) => {}
            other => panic!("{transport:?}: expected SiteFailed at site 1, got {other:?}"),
        }
    }
}

#[test]
fn killing_a_site_mid_query_degrades_and_names_it() {
    for transport in [Transport::Threaded, Transport::Tcp] {
        let recorder = Recorder::enabled();
        let (mut links, meter, _servers) = killed_site_cluster(transport, 1, 3, &recorder);
        let outcome = dsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Degrade))
            .unwrap_or_else(|e| panic!("{transport:?}: degrade mode failed: {e}"));
        assert!(outcome.degraded, "{transport:?}: outcome not marked degraded");
        assert!(
            matches!(outcome.sites[1].quarantined, Some(QuarantineReason::Transport(_))),
            "{transport:?}: site 1 status {:?}",
            outcome.sites[1]
        );
        assert!(!outcome.skyline.is_empty(), "{transport:?}: empty skyline");
        assert_eq!(recorder.counter(Counter::QuarantinedSites), 1, "{transport:?}");
    }
}

// --- fault accounting is deterministic ------------------------------------

/// Retry, timeout, and quarantine counters are a pure function of the
/// fault schedule: the same schedule must produce bit-identical counters
/// and answers at every pool size and on every transport.
#[test]
fn retry_accounting_is_identical_across_pool_sizes_and_transports() {
    fn run_once(pool: usize, transport: Transport) -> (u64, u64, u64, (Sequence, Sequence)) {
        let recorder = Recorder::enabled();
        let outcome = common::with_pool(pool, || {
            let (mut links, meter, _servers) =
                faulty_cluster(transport, Some((1, FaultMode::Drop, 6)), &recorder);
            dsud::run(&mut links, &meter, mask(), &config(FailurePolicy::Degrade)).unwrap()
        });
        (
            recorder.counter(Counter::LinkRetries),
            recorder.counter(Counter::LinkTimeouts),
            recorder.counter(Counter::QuarantinedSites),
            fingerprint(&outcome),
        )
    }

    let reference = run_once(1, Transport::Inline);
    assert_eq!(reference.2, 1, "exactly one site quarantined");
    for pool in [2, 3, 8] {
        assert_eq!(run_once(pool, Transport::Inline), reference, "pool {pool} diverged");
    }
    for transport in [Transport::Threaded, Transport::Tcp] {
        assert_eq!(run_once(1, transport), reference, "{transport:?} diverged");
        assert_eq!(run_once(8, transport), reference, "{transport:?} at pool 8 diverged");
    }
}

// --- a site killed mid-served-query ---------------------------------------

/// The session-layer version of the mid-query kill: a seeded fault plan
/// kills a site while the `dsud serve` session machinery is executing a
/// query. Under `FailurePolicy::Degrade` the victim query is stamped
/// `degraded` and names its quarantined site, and — once the fault
/// windows drain — the *same served query* comes back bit-identical to a
/// deployment that never faulted. Sequential and fully deterministic:
/// each query advances the per-link attempt ordinals, so which query dies
/// is a pure function of the seed.
#[test]
fn site_killed_mid_served_query_degrades_then_recovers_exactly() {
    // First seed whose plans beat the retry budget outright: a hard-fault
    // window at least `retry_budget + 1` attempts long swallows one whole
    // request, so its owning query sees the site fail mid-flight.
    let attempts = u64::from(LinkConfig::default().retry_budget) + 1;
    let seed = (1..256)
        .find(|&seed| {
            (0..SITES as u32).any(|site| {
                FaultPlan::seeded(seed, site)
                    .windows()
                    .iter()
                    .any(|w| w.len >= attempts && !matches!(w.kind, FaultKind::Slow(_)))
            })
        })
        .expect("some seed in 1..256 produces a long hard-fault window");

    let reference = {
        let server = SessionServer::new(
            Cluster::local(DIMS, common::sites(600, DIMS, 10, SITES)).expect("cluster builds"),
            SessionOptions::default(),
        );
        let cfg = QueryConfig::new(0.3).expect("valid threshold");
        fingerprint(&server.run_edsud(&cfg, false, &mut |_, _| {}).expect("reference runs").outcome)
    };

    for transport in ALL_TRANSPORTS {
        let cluster = Cluster::with_transport_chaos(
            DIMS,
            common::sites(600, DIMS, 10, SITES),
            SiteOptions::default(),
            Recorder::enabled(),
            transport,
            LinkConfig::default(),
            seed,
        )
        .expect("cluster builds");
        // Cache off so the repeated query always exercises the links.
        let server = SessionServer::new(
            cluster,
            SessionOptions { cache_capacity: 0, ..SessionOptions::default() },
        );
        let cfg =
            QueryConfig::new(0.3).expect("valid threshold").failure_policy(FailurePolicy::Degrade);

        let mut saw_degraded = false;
        let mut recovered = false;
        for _ in 0..64 {
            let outcome = server
                .run_edsud(&cfg, false, &mut |_, _| {})
                .expect("degrade never errors")
                .outcome;
            if outcome.degraded {
                saw_degraded = true;
                assert!(
                    outcome.sites.iter().any(|s| s.quarantined.is_some()),
                    "{transport:?}: degraded outcome must name its quarantined site"
                );
                assert!(!outcome.skyline.is_empty(), "{transport:?}: degraded skyline empty");
            } else {
                assert_eq!(
                    fingerprint(&outcome),
                    reference,
                    "{transport:?}: non-degraded served answer diverged from clean reference"
                );
                if saw_degraded {
                    recovered = true;
                    break;
                }
            }
        }
        assert!(saw_degraded, "{transport:?}: the seeded kill never claimed a victim query");
        assert!(recovered, "{transport:?}: served queries never recovered the exact answer");
    }
}
