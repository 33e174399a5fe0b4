//! The differential oracle: one generated [`Case`] names every setting a
//! query can run under, [`run`] builds and runs it, and [`check`] holds the
//! outcome to three independent standards:
//!
//! * **(a) the reference and the twin.** Every case must give the answer
//!   of its [`Case::reference`] — the paper's one-candidate round on one
//!   inline thread — bit for bit: skyline ids, probability bits, report
//!   order and the progress sequence; without a limit also the
//!   [`RunStats`](dsud_core::RunStats) and the tuple count (equal on the
//!   flat star, never more under a tree). A case without faults must also
//!   ship exactly the traffic of its [`Case::twin`] (the same case inline
//!   at pool 1), class by class, with the same progress watermarks.
//! * **(b) the centralized Eq. 3 skyline** ([`dsud_core::baseline::run`]).
//! * **(c) possible-world enumeration** at `n ≤ WORLDS_MAX_N`
//!   ([`dsud_uncertain::worlds::exhaustive_skyline_probabilities`]).
//!
//! (b) and (c) compare ids and probabilities within [`TOLERANCE`]; tuples
//! whose oracle probability lies within it of `q` may fall either way and
//! are left out of the id comparison. A faulted case runs under
//! [`FailurePolicy::Degrade`]: an unstamped outcome must pass all three
//! checks, a stamped (`degraded`) one must name a quarantined site.
//!
//! A new setting is one more `Case` field, one more generator arm and one
//! more [`Tally`] axis: the tally fails the run if any value of any axis
//! never appeared.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Debug;

use dsud_core::{
    baseline, BandwidthMeter, BatchSize, Cluster, Counter, FailurePolicy, LinkConfig,
    PipelineDepth, QueryConfig, QueryOutcome, Recorder, SessionOptions, SessionServer, SiteOptions,
    SubspaceMask, Topology, Transport, TupleId, UncertainDb, WireFormat,
};
use dsud_uncertain::worlds;
use proptest::prelude::*;

/// Largest `n` checked against possible-world enumeration (`2^n` worlds).
pub const WORLDS_MAX_N: usize = 12;

/// How far a reported probability may sit from an oracle's. Every path
/// computes Eq. 3 as a product of at most `n` survival factors, so
/// reordering the products moves a value by a few ulps (≈ `n · 2^-53`);
/// summing `2^n` world probabilities adds about as much again. `1e-9`
/// clears both by orders of magnitude and still catches any lost or
/// doubled factor.
pub const TOLERANCE: f64 = 1e-9;

/// Where a query enters the system: a one-shot [`Cluster`], or a resident
/// [`SessionServer`] running it over shared, multiplexed links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `Cluster::run_dsud` / `run_edsud`.
    Cluster,
    /// `SessionServer::run_dsud` / `run_edsud`, cache off.
    Served,
}

/// One query under one configuration: the data, the query, and every
/// setting that must not change its answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Case {
    /// Workload seed ([`super::sites`]).
    pub seed: u64,
    /// Tuples in the whole deployment.
    pub n: usize,
    /// Dimensionality of the data space.
    pub dims: usize,
    /// Sites the tuples are split across.
    pub m: usize,
    /// Probability threshold.
    pub q: f64,
    /// Query subspace.
    pub mask: SubspaceMask,
    /// e-DSUD when set, DSUD otherwise.
    pub edsud: bool,
    /// `--limit`.
    pub limit: Option<usize>,
    /// `--batch`.
    pub batch: BatchSize,
    /// `--pipeline`.
    pub pipeline: PipelineDepth,
    /// `--wire`, at the coordinator and at the sites.
    pub wire: WireFormat,
    /// `--topology`.
    pub topology: Topology,
    /// `--transport`.
    pub transport: Transport,
    /// Thread-pool size the run is pinned to.
    pub pool: usize,
    /// One-shot or served.
    pub entry: Entry,
    /// Seed of a [`dsud_core::FaultPlan`] spliced under every root link;
    /// a faulted query runs under [`FailurePolicy::Degrade`].
    pub fault: Option<u64>,
}

impl Case {
    /// A fault-free DSUD query over `n` tuples in 3-d on `m` sites at
    /// `q = 0.3` (workload seed 42), run under the reference settings.
    pub fn base(n: usize, m: usize) -> Case {
        let mask = SubspaceMask::full(3).expect("full mask");
        Case {
            seed: 42,
            n,
            dims: 3,
            m,
            q: 0.3,
            mask,
            edsud: false,
            limit: None,
            batch: BatchSize::Fixed(1),
            pipeline: PipelineDepth::Fixed(1),
            wire: WireFormat::Legacy,
            topology: Topology::Flat,
            transport: Transport::Inline,
            pool: 1,
            entry: Entry::Cluster,
            fault: None,
        }
        .reference()
    }

    /// The same query under the paper's schedule: one candidate per
    /// round, no overlap, row-encoded frames, a flat star, inline links,
    /// one thread, one-shot, no faults. Named field by
    /// field so a change of library defaults cannot move it.
    pub fn reference(&self) -> Case {
        Case {
            batch: BatchSize::Fixed(1),
            pipeline: PipelineDepth::Fixed(1),
            wire: WireFormat::Legacy,
            topology: Topology::Flat,
            transport: Transport::Inline,
            pool: 1,
            entry: Entry::Cluster,
            fault: None,
            ..*self
        }
    }

    /// The same case inline, at pool 1 and without faults: everything
    /// that shapes traffic stays, everything that may only shape timing
    /// goes.
    pub fn twin(&self) -> Case {
        Case { transport: Transport::Inline, pool: 1, fault: None, ..*self }
    }

    /// The case's site data.
    pub fn data(&self) -> Vec<Vec<dsud_core::UncertainTuple>> {
        super::sites(self.n, self.dims, self.seed, self.m)
    }

    /// The case's query settings.
    pub fn config(&self) -> QueryConfig {
        let mut config = QueryConfig::new(self.q)
            .expect("valid threshold")
            .subspace(self.mask)
            .batch_size(self.batch)
            .pipeline_depth(self.pipeline)
            .wire_format(self.wire);
        if let Some(k) = self.limit {
            config = config.limit(k);
        }
        if self.fault.is_some() {
            config = config.failure_policy(FailurePolicy::Degrade);
        }
        config
    }
}

/// Builds the case's deployment and runs its query at pool `case.pool`.
pub fn run(case: &Case) -> QueryOutcome {
    run_recorded(case, Recorder::default())
}

fn run_recorded(case: &Case, recorder: Recorder) -> QueryOutcome {
    threadpool::with_pool_size(case.pool, || {
        let mut cluster = Cluster::with_topology(
            case.dims,
            case.data(),
            SiteOptions { wire: case.wire, ..SiteOptions::default() },
            recorder,
            case.transport,
            LinkConfig::default(),
            case.topology,
            case.fault,
        )
        .expect("cluster builds");
        assert_eq!(threadpool::pool_size(), case.pool, "{case:?}: pool override");
        let config = case.config();
        let outcome = match case.entry {
            Entry::Cluster if case.edsud => cluster.run_edsud(&config),
            Entry::Cluster => cluster.run_dsud(&config),
            Entry::Served => {
                let options = SessionOptions { cache_capacity: 0, ..SessionOptions::default() };
                let server = SessionServer::new(cluster, options);
                let sink = &mut |_: &[dsud_core::SkylineEntry], _| {};
                if case.edsud {
                    server.run_edsud(&config, false, sink)
                } else {
                    server.run_dsud(&config, false, sink)
                }
                .map(|served| served.outcome)
            }
        };
        outcome.unwrap_or_else(|e| panic!("{case:?}: query failed: {e}"))
    })
}

/// Every value each axis can take, in generator order.
const BATCHES: [BatchSize; 4] =
    [BatchSize::Fixed(1), BatchSize::Fixed(4), BatchSize::Fixed(16), BatchSize::Auto];
const PIPELINES: [PipelineDepth; 3] =
    [PipelineDepth::Fixed(1), PipelineDepth::Fixed(8), PipelineDepth::Auto];
const WIRES: [WireFormat; 2] = [WireFormat::Legacy, WireFormat::Columnar];
const TOPOLOGIES: [Topology; 5] =
    [Topology::Flat, Topology::Tree(2), Topology::Tree(4), Topology::Tree(8), Topology::Auto];
const TRANSPORTS: [Transport; 3] = [Transport::Inline, Transport::Threaded, Transport::Tcp];
const POOLS: [usize; 3] = [1, 2, 8];
const ENTRIES: [Entry; 2] = [Entry::Cluster, Entry::Served];

fn one_of<T: Copy>(values: &'static [T]) -> impl Strategy<Value = T> {
    (0..values.len()).prop_map(move |i| values[i])
}

/// The case generator. A third of the cases are small enough for world
/// enumeration; a quarter are faulted.
pub fn cases() -> impl Strategy<Value = Case> {
    let shape = (
        any::<u64>(),
        prop_oneof![4usize..=WORLDS_MAX_N, 13usize..=240, 13usize..=240],
        2usize..=4,
        2usize..=10,
        0.1f64..0.7,
        prop_oneof![Just(u64::MAX), any::<u64>()],
    );
    let query = (
        any::<bool>(),
        prop_oneof![Just(None), Just(None), (1usize..=5).prop_map(Some)],
        one_of(&BATCHES),
        one_of(&PIPELINES),
        one_of(&WIRES),
    );
    let fabric = (
        one_of(&TOPOLOGIES),
        one_of(&TRANSPORTS),
        one_of(&POOLS),
        one_of(&ENTRIES),
        prop_oneof![Just(None), Just(None), Just(None), any::<u64>().prop_map(Some)],
    );
    (shape, query, fabric).prop_map(
        |(
            (seed, n, dims, m, q, mask_bits),
            (edsud, limit, batch, pipeline, wire),
            (topology, transport, pool, entry, fault),
        )| {
            // Any non-empty subset of the dimensions; half the draws are
            // the full space.
            let all = (1u64 << dims) - 1;
            let bits = match mask_bits & all {
                0 => all,
                bits => bits,
            };
            Case {
                seed,
                n,
                dims,
                m: m.min(n),
                q,
                mask: SubspaceMask::try_from_bits(bits).expect("non-empty mask"),
                edsud,
                limit,
                batch,
                pipeline,
                wire,
                topology,
                transport,
                pool,
                entry,
                fault,
            }
        },
    )
}

/// Coverage of the generated cases: how often each value of each axis
/// appeared, and how often each check ran.
#[derive(Debug, Default)]
pub struct Tally {
    seen: BTreeMap<(&'static str, String), usize>,
}

fn names<T: Debug>(values: &[T]) -> Vec<String> {
    values.iter().map(|v| format!("{v:?}")).collect()
}

impl Tally {
    fn note(&mut self, axis: &'static str, value: impl Debug) {
        *self.seen.entry((axis, format!("{value:?}"))).or_default() += 1;
    }

    fn count(&self, axis: &'static str, value: &str) -> usize {
        self.seen.get(&(axis, value.to_string())).copied().unwrap_or(0)
    }

    /// Fails unless every axis value appeared (faults both ridden out and
    /// stamped among them, and runs that left feedback to a drained site
    /// out) and at least 8 cases met the world oracle.
    pub fn assert_covered(&self) {
        let axes = [
            ("algorithm", names(&["dsud", "edsud"])),
            ("mask", names(&["full", "subspace"])),
            ("limit", names(&["none", "k"])),
            ("batch", names(&BATCHES)),
            ("pipeline", names(&PIPELINES)),
            ("wire", names(&WIRES)),
            ("topology", names(&TOPOLOGIES)),
            ("transport", names(&TRANSPORTS)),
            ("pool", names(&POOLS)),
            ("entry", names(&ENTRIES)),
            ("fault", names(&["none", "ridden out", "stamped"])),
            ("skipped deliveries", names(&["none", "some"])),
        ];
        let missing: Vec<(&str, &String)> = axes
            .iter()
            .flat_map(|(axis, values)| values.iter().map(move |v| (*axis, v)))
            .filter(|(axis, value)| self.count(axis, value) == 0)
            .collect();
        assert!(missing.is_empty(), "axis values never generated: {missing:?}\n{self:?}");
        let worlds = self.count("check", "\"worlds\"");
        assert!(worlds >= 8, "only {worlds} cases met the world oracle\n{self:?}");
    }
}

/// Runs `case` and holds it to checks (a)–(c), recording its axes in
/// `tally`.
pub fn check(case: &Case, tally: &mut Tally) {
    let recorder = Recorder::enabled();
    let outcome = run_recorded(case, recorder.clone());
    let at = format!("{case:?}");

    let fault = match case.fault {
        None => "none",
        Some(_) if outcome.degraded => "stamped",
        Some(_) if recorder.counter(Counter::LinkRetries) > 0 => "ridden out",
        Some(_) => "never fired",
    };
    let planned = case.batch == BatchSize::Auto;
    assert_eq!(outcome.plan.is_some(), planned, "{at}: a plan runs exactly at batch auto");
    if outcome.degraded {
        assert!(case.fault.is_some(), "{at}: stamped degraded without a fault");
        assert!(
            outcome.sites.iter().any(|s| !s.healthy()),
            "{at}: stamped degraded but names no quarantined site"
        );
    } else {
        if *case != case.reference() {
            assert_matches_reference(case, &outcome, &run(&case.reference()), &at);
        }
        if case.fault.is_none() && *case != case.twin() {
            let twin = run(&case.twin());
            assert_eq!(outcome.traffic, twin.traffic, "{at}: traffic differs from the twin");
            assert_eq!(watermarks(&outcome), watermarks(&twin), "{at}: progress watermarks");
        }
        assert_answer(case, &outcome, &baseline_probabilities(case), &format!("{at} (Eq. 3)"));
        if case.n <= WORLDS_MAX_N {
            let worlds = world_probabilities(case);
            assert_answer(case, &outcome, &worlds, &format!("{at} (possible worlds)"));
            tally.note("check", "worlds");
        }
    }

    tally.note("algorithm", if case.edsud { "edsud" } else { "dsud" });
    let full = SubspaceMask::full(case.dims).expect("full mask");
    tally.note("mask", if case.mask == full { "full" } else { "subspace" });
    tally.note("limit", if case.limit.is_some() { "k" } else { "none" });
    tally.note("batch", case.batch);
    tally.note("pipeline", case.pipeline);
    tally.note("wire", case.wire);
    tally.note("topology", case.topology);
    tally.note("transport", case.transport);
    tally.note("pool", case.pool);
    tally.note("entry", case.entry);
    tally.note("fault", fault);
    // Served queries record on their own per-query recorder, so only
    // one-shot runs show their skips here.
    let skipped = recorder.counter(Counter::SkippedDeliveries) > 0;
    tally.note("skipped deliveries", if skipped { "some" } else { "none" });
}

/// Check (a): the reference's answer, bit for bit.
fn assert_matches_reference(case: &Case, got: &QueryOutcome, want: &QueryOutcome, at: &str) {
    assert_eq!(super::fingerprint(got), super::fingerprint(want), "{at}: answer or progress");
    if case.limit.is_none() {
        assert_eq!(got.stats, want.stats, "{at}: run statistics");
        let (got, want) = (got.tuples_transmitted(), want.tuples_transmitted());
        match case.topology {
            Topology::Flat => assert_eq!(got, want, "{at}: tuples transmitted"),
            _ => assert!(got <= want, "{at}: a tree shipped {got} tuples vs {want} flat"),
        }
    }
}

/// Each progress event's "tuples transmitted so far" watermark.
fn watermarks(outcome: &QueryOutcome) -> Vec<u64> {
    outcome.progress.events().iter().map(|e| e.tuples_transmitted).collect()
}

/// Checks (b) and (c): every reported tuple is in `oracle` (the tuples
/// whose oracle probability is at least `q − TOLERANCE`) with its oracle
/// probability; every tuple the oracle puts clearly above `q` is reported,
/// unless a limit cut the answer short.
fn assert_answer(case: &Case, outcome: &QueryOutcome, oracle: &HashMap<TupleId, f64>, at: &str) {
    for e in &outcome.skyline {
        let id = e.tuple.id();
        let Some(&want) = oracle.get(&id) else {
            panic!("{at}: reported {id:?} at {}, below q by the oracle", e.probability)
        };
        assert!(
            (e.probability - want).abs() <= TOLERANCE,
            "{at}: {id:?} reported at {} vs oracle {want}",
            e.probability
        );
    }
    let reported: HashSet<TupleId> = outcome.skyline.iter().map(|e| e.tuple.id()).collect();
    assert_eq!(reported.len(), outcome.skyline.len(), "{at}: a tuple was reported twice");
    if let Some(k) = case.limit {
        assert!(reported.len() <= k, "{at}: {} results past limit {k}", reported.len());
        if reported.len() == k {
            return;
        }
    }
    let mut missing: Vec<_> = oracle
        .iter()
        .filter(|&(id, &p)| p > case.q + TOLERANCE && !reported.contains(id))
        .collect();
    missing.sort_by_key(|&(id, _)| *id);
    assert!(missing.is_empty(), "{at}: qualifying tuples never reported: {missing:?}");
}

/// Eq. 3 over the union of the sites, by the centralized baseline.
fn baseline_probabilities(case: &Case) -> HashMap<TupleId, f64> {
    let floor = case.q - TOLERANCE;
    let outcome = baseline::run(&case.data(), case.dims, floor, case.mask, &BandwidthMeter::new())
        .expect("baseline runs");
    outcome.skyline.iter().map(|e| (e.tuple.id(), e.probability)).collect()
}

/// Eq. 2 over the union of the sites, by summing every possible world.
fn world_probabilities(case: &Case) -> HashMap<TupleId, f64> {
    let union = UncertainDb::from_tuples(case.dims, case.data().into_iter().flatten())
        .expect("union builds");
    let probabilities =
        worlds::exhaustive_skyline_probabilities(&union, case.mask).expect("worlds enumerate");
    union
        .tuples()
        .iter()
        .zip(probabilities)
        .filter(|(_, p)| *p >= case.q - TOLERANCE)
        .map(|(t, p)| (t.id(), p))
        .collect()
}
