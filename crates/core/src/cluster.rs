//! Deployment assembly: `m` sites behind metered links plus the server.
//!
//! [`Cluster`] builds the whole distributed system of the paper's
//! Section 3.1 — one [`LocalSite`] per horizontal partition, each behind a
//! [`dsud_net::Link`] (inline, threaded, or TCP), all sharing one
//! [`BandwidthMeter`] — and exposes [`Cluster::run_dsud`] /
//! [`Cluster::run_edsud`] as the coordinator entry points. The
//! [`QueryOutcome`] / [`RunStats`] types returned by every run carry the
//! paper's two evaluation measures (bandwidth and progressiveness).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dsud_net::{
    tcp, Aggregator, BandwidthMeter, ChannelLink, ChaosLink, DelayedService, FanNode, FanPlan,
    Fanout, FaultPlan, HealthSnapshot, Link, LinkConfig, LinkError, LinkHealth, LocalLink, Message,
    MeterSnapshot, RetryLink, Service, TupleMsg,
};
use dsud_obs::Recorder;
use dsud_uncertain::{SkylineEntry, UncertainTuple};

use crate::degrade::SiteStatus;
use crate::{dsud, edsud, Error, LocalSite, ProgressLog, QueryConfig, SiteOptions, Topology};

/// Which transport carries coordinator–site traffic.
///
/// All three speak the identical protocol over the identical wire
/// encoding, and every query outcome (skyline order, traffic, stats) is
/// transport-independent; they differ only in where the site computation
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transport {
    /// Sites run inline on the coordinator's threads (deterministic;
    /// the default for tests and benchmarks).
    Inline,
    /// One OS thread per site behind crossbeam channels.
    Threaded,
    /// One loopback TCP socket per site — real sockets, same encoding.
    Tcp,
}

impl Transport {
    /// Stable lowercase name, as accepted by the [`std::str::FromStr`]
    /// impl and recorded in run reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Transport::Inline => "inline",
            Transport::Threaded => "threaded",
            Transport::Tcp => "tcp",
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Transport {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "inline" => Ok(Transport::Inline),
            "threaded" => Ok(Transport::Threaded),
            "tcp" => Ok(Transport::Tcp),
            _ => Err(Error::InvalidArgument("unknown transport (expected inline|threaded|tcp)")),
        }
    }
}

/// Counters describing how a distributed query run unfolded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Coordinator iterations executed.
    pub iterations: u64,
    /// Candidates broadcast to the other sites (Server-Delivery phases).
    pub broadcasts: u64,
    /// Candidates expunged by the e-DSUD bound without any broadcast.
    pub expunged: u64,
    /// Local-skyline tuples pruned at the sites by feedback.
    pub pruned_at_sites: u64,
}

/// Result of one distributed skyline query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Qualified global skyline tuples with their exact global
    /// probabilities, in report (discovery) order.
    pub skyline: Vec<SkylineEntry>,
    /// Progressiveness trace.
    pub progress: ProgressLog,
    /// Network traffic attributable to this run.
    pub traffic: MeterSnapshot,
    /// Coordinator counters.
    pub stats: RunStats,
    /// Whether any site was quarantined mid-query
    /// ([`crate::FailurePolicy::Degrade`] only). When `true` the reported
    /// probabilities are upper bounds: quarantined sites could not
    /// contribute their `(1 − P(t'))` survival factors.
    #[serde(default)]
    pub degraded: bool,
    /// Whether the run was cut short by its per-query deadline
    /// ([`QueryConfig::deadline_ms`]). A cancelled outcome is a valid
    /// *partial* progressive result: every entry in `skyline` carries its
    /// exact probability, but tuples the coordinator never reached are
    /// missing. Cancelled outcomes are never cached by the session layer.
    #[serde(default)]
    pub cancelled: bool,
    /// Per-site health records. Empty for outcomes serialized before the
    /// field existed.
    #[serde(default)]
    pub sites: Vec<SiteStatus>,
    /// What the planner saw and decided ([`crate::PlanMode::Sketch`] runs
    /// at [`crate::BatchSize::Auto`] only). `None` for other runs and for
    /// outcomes serialized before the planner existed.
    #[serde(default)]
    pub plan: Option<crate::PlanSummary>,
}

impl QueryOutcome {
    /// The paper's bandwidth measure for this run.
    pub fn tuples_transmitted(&self) -> u64 {
        self.traffic.tuples_transmitted()
    }
}

/// A full distributed deployment: `m` local sites behind metered links plus
/// the coordinator logic of the central server `H`.
///
/// Two constructors mirror the two transports of `dsud-net`:
/// [`Cluster::local`] runs every site inline (deterministic; used by tests
/// and benchmarks), [`Cluster::threaded`] gives every site its own OS
/// thread.
pub struct Cluster {
    dims: usize,
    /// Declared before `servers` so the links drop first: a `TcpLink` must
    /// disconnect before its site server is asked to stop accepting.
    /// Under a flat topology one link per site; under a tree topology one
    /// link per root aggregator group (see `plan`).
    links: Vec<Box<dyn Link>>,
    health: Vec<Arc<LinkHealth>>,
    meter: BandwidthMeter,
    total_tuples: usize,
    /// The fan-out shape the coordinator routes through. The shared meter
    /// (and hence every outcome's `traffic`) observes only the root's own
    /// links, so under a tree topology it measures exactly the merged
    /// root-link traffic the topology exists to shrink.
    plan: FanPlan,
    servers: Vec<tcp::SiteServer>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("dims", &self.dims)
            .field("sites", &self.plan.sites())
            .field("root_fanout", &self.plan.root_fanout())
            .field("total_tuples", &self.total_tuples)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds an inline-transport cluster with default site options.
    ///
    /// Site `i` of `sites` must contain tuples labelled `TupleId { site: i, .. }`
    /// (as produced by `dsud_data`'s partitioners).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSites`] for an empty site list and propagates
    /// site construction failures.
    pub fn local(dims: usize, sites: Vec<Vec<UncertainTuple>>) -> Result<Self, Error> {
        Self::local_with_options(dims, sites, SiteOptions::default())
    }

    /// Builds an inline-transport cluster with explicit site options
    /// (ablations).
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::local`].
    pub fn local_with_options(
        dims: usize,
        sites: Vec<Vec<UncertainTuple>>,
        options: SiteOptions,
    ) -> Result<Self, Error> {
        Self::with_transport(dims, sites, options, Recorder::default(), Transport::Inline)
    }

    /// Builds an inline-transport cluster whose meter and sites all report
    /// to the given observability [`Recorder`], so a subsequent
    /// [`Cluster::run_dsud`] / [`Cluster::run_edsud`] produces a complete
    /// [`dsud_obs::RunReport`] via [`Recorder::report`].
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::local`].
    pub fn local_instrumented(
        dims: usize,
        sites: Vec<Vec<UncertainTuple>>,
        options: SiteOptions,
        recorder: Recorder,
    ) -> Result<Self, Error> {
        Self::with_transport(dims, sites, options, recorder, Transport::Inline)
    }

    /// Builds a cluster whose sites each run on a dedicated OS thread
    /// behind crossbeam channels.
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::local`].
    pub fn threaded(dims: usize, sites: Vec<Vec<UncertainTuple>>) -> Result<Self, Error> {
        Self::with_transport(
            dims,
            sites,
            SiteOptions::default(),
            Recorder::default(),
            Transport::Threaded,
        )
    }

    /// Builds a cluster whose sites are served over loopback TCP — real
    /// sockets, the same wire encoding, one server thread per site.
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::local`], plus [`Error::SiteFailed`] if a socket
    /// cannot be bound or connected.
    pub fn tcp(dims: usize, sites: Vec<Vec<UncertainTuple>>) -> Result<Self, Error> {
        Self::with_transport(
            dims,
            sites,
            SiteOptions::default(),
            Recorder::default(),
            Transport::Tcp,
        )
    }

    /// Unified constructor: builds a cluster over any [`Transport`] with
    /// explicit site options and an observability recorder. Every link —
    /// on every transport — is wrapped in a [`RetryLink`] with the default
    /// [`LinkConfig`], so transient transport failures are retried
    /// deterministically before the coordinator's failure policy sees them.
    ///
    /// Site construction (PR-tree bulk loads) is fanned across the
    /// [`threadpool`]; the resulting cluster is identical to a sequential
    /// build because sites are independent and links are wired in site
    /// order afterwards.
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::local`]; [`Transport::Tcp`] additionally returns
    /// [`Error::SiteFailed`] if a socket cannot be bound or connected.
    pub fn with_transport(
        dims: usize,
        sites: Vec<Vec<UncertainTuple>>,
        options: SiteOptions,
        recorder: Recorder,
        transport: Transport,
    ) -> Result<Self, Error> {
        Self::assemble(
            dims,
            sites,
            options,
            recorder,
            transport,
            LinkConfig::default(),
            None,
            Topology::Flat,
            None,
        )
    }

    /// [`Cluster::with_transport`] with an explicit per-link deadline and
    /// retry configuration, routed through an explicit [`Topology`]. Under
    /// a tree topology the sites sit behind a layer (or layers) of
    /// [`Aggregator`] services — hosted on the same transport as the sites
    /// — and the coordinator holds one physical link per *root group*
    /// instead of one per site. Results are bit-identical to the
    /// flat topology at every fanout (aggregators merge frames, never fold
    /// survival products); only root-link frame and byte counts shrink.
    ///
    /// A `chaos_seed` of `Some(seed)` splices a deterministic
    /// [`ChaosLink`] under each *root* link's retry layer, keyed by the
    /// first member site of that link's group — so the same seed replays
    /// the identical fault schedule on every transport, and a faulted
    /// aggregator link degrades exactly its subtree.
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::with_transport`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_topology(
        dims: usize,
        sites: Vec<Vec<UncertainTuple>>,
        options: SiteOptions,
        recorder: Recorder,
        transport: Transport,
        link_config: LinkConfig,
        topology: Topology,
        chaos_seed: Option<u64>,
    ) -> Result<Self, Error> {
        Self::assemble(
            dims,
            sites,
            options,
            recorder,
            transport,
            link_config,
            chaos_seed,
            topology,
            None,
        )
    }

    /// [`Cluster::with_topology`] with every hop — root links, aggregator
    /// links, site links — served through a [`DelayedService`] pausing
    /// `delay` per request: the bench harness's stand-in for a real
    /// network RTT, which makes root fan-out visible in wall-clock as
    /// well as in the meter's frame counts.
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::with_transport`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_topology_delayed(
        dims: usize,
        sites: Vec<Vec<UncertainTuple>>,
        options: SiteOptions,
        recorder: Recorder,
        transport: Transport,
        link_config: LinkConfig,
        topology: Topology,
        delay: std::time::Duration,
    ) -> Result<Self, Error> {
        Self::assemble(
            dims,
            sites,
            options,
            recorder,
            transport,
            link_config,
            None,
            topology,
            Some(delay),
        )
    }

    /// [`Cluster::with_topology`] on a flat topology with a deterministic
    /// fault injector: every site link gets a [`FaultPlan`] derived from
    /// `seed` and its site index, spliced *under* the retry layer so the
    /// stack is `RetryLink(ChaosLink(transport))`. The same seed reproduces the
    /// identical fault schedule on every transport, which is what lets the
    /// chaos harness ([`crate::chaos`]) compare a faulted run against a
    /// clean one bit for bit.
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::with_transport`].
    pub fn with_transport_chaos(
        dims: usize,
        sites: Vec<Vec<UncertainTuple>>,
        options: SiteOptions,
        recorder: Recorder,
        transport: Transport,
        link_config: LinkConfig,
        seed: u64,
    ) -> Result<Self, Error> {
        Self::assemble(
            dims,
            sites,
            options,
            recorder,
            transport,
            link_config,
            Some(seed),
            Topology::Flat,
            None,
        )
    }

    /// Wraps one transport link in the (optional) chaos layer and the
    /// mandatory retry layer, surfacing the retry layer's health handle.
    fn finish_link<L: Link + 'static>(
        base: L,
        chaos: Option<FaultPlan>,
        link_config: LinkConfig,
        recorder: &Recorder,
    ) -> (Arc<LinkHealth>, Box<dyn Link>) {
        match chaos {
            Some(plan) => {
                let retry = RetryLink::with_recorder(
                    ChaosLink::new(base, plan),
                    link_config,
                    recorder.clone(),
                );
                (retry.health(), Box::new(retry))
            }
            None => {
                let retry = RetryLink::with_recorder(base, link_config, recorder.clone());
                (retry.health(), Box::new(retry))
            }
        }
    }

    /// Hosts one service (a site or an aggregator) on the given transport
    /// and returns the raw, unwrapped link to it, pausing `delay` per
    /// request when one is set (the bench harness's stand-in for a real
    /// network RTT). Which meter the link reports to decides what the
    /// paper's bandwidth measure sees: root links use the cluster meter,
    /// everything below uses a throwaway.
    fn spawn_service<S: Service + 'static>(
        svc: S,
        transport: Transport,
        meter: &BandwidthMeter,
        link_config: LinkConfig,
        servers: &mut Vec<tcp::SiteServer>,
        err_site: u32,
        delay: Option<std::time::Duration>,
    ) -> Result<Box<dyn Link>, Error> {
        match delay {
            Some(d) => Self::spawn_raw(
                DelayedService::new(svc, d),
                transport,
                meter,
                link_config,
                servers,
                err_site,
            ),
            None => Self::spawn_raw(svc, transport, meter, link_config, servers, err_site),
        }
    }

    fn spawn_raw<S: Service + 'static>(
        svc: S,
        transport: Transport,
        meter: &BandwidthMeter,
        link_config: LinkConfig,
        servers: &mut Vec<tcp::SiteServer>,
        err_site: u32,
    ) -> Result<Box<dyn Link>, Error> {
        let failed = |source: LinkError| Error::SiteFailed { site: err_site, source };
        Ok(match transport {
            Transport::Inline => Box::new(LocalLink::new(svc, meter.clone())),
            Transport::Threaded => {
                Box::new(ChannelLink::spawn_with(svc, meter.clone(), link_config))
            }
            Transport::Tcp => {
                let server = tcp::spawn_site(svc).map_err(|e| failed(LinkError::from(e)))?;
                let link = tcp::TcpLink::connect_with(server.addr(), meter.clone(), link_config)
                    .map_err(|e| failed(LinkError::from(e)))?;
                servers.push(server);
                Box::new(link)
            }
        })
    }

    /// Builds the service tree under one fan-plan node and returns the raw
    /// link to it (a site link for a leaf, an [`Aggregator`] link for a
    /// node). Everything below the root reports to `child_meter` and gets
    /// a plain retry layer — no chaos, no health handle: subtree failures
    /// surface through the root link's own operations.
    #[allow(clippy::too_many_arguments)]
    fn build_subtree(
        node: &FanNode,
        built: &mut [Option<LocalSite>],
        transport: Transport,
        child_meter: &BandwidthMeter,
        link_config: LinkConfig,
        servers: &mut Vec<tcp::SiteServer>,
        delay: Option<std::time::Duration>,
    ) -> Result<Box<dyn Link>, Error> {
        match node {
            FanNode::Leaf(site) => {
                let svc = built[*site as usize].take().expect("each site is wired once");
                let raw = Self::spawn_service(
                    svc,
                    transport,
                    child_meter,
                    link_config,
                    servers,
                    *site,
                    delay,
                )?;
                Ok(Box::new(RetryLink::new(raw, link_config)))
            }
            FanNode::Node(children) => {
                let mut agg = Aggregator::new();
                for child in children {
                    let link = Self::build_subtree(
                        child,
                        built,
                        transport,
                        child_meter,
                        link_config,
                        servers,
                        delay,
                    )?;
                    match child {
                        FanNode::Leaf(site) => agg.push_leaf(*site, link),
                        FanNode::Node(_) => agg.push_group(child.members(), link),
                    }
                }
                let err_site = node.members().first().copied().unwrap_or(0);
                let raw = Self::spawn_service(
                    agg,
                    transport,
                    child_meter,
                    link_config,
                    servers,
                    err_site,
                    delay,
                )?;
                Ok(Box::new(RetryLink::new(raw, link_config)))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dims: usize,
        sites: Vec<Vec<UncertainTuple>>,
        options: SiteOptions,
        recorder: Recorder,
        transport: Transport,
        link_config: LinkConfig,
        chaos_seed: Option<u64>,
        topology: Topology,
        delay: Option<std::time::Duration>,
    ) -> Result<Self, Error> {
        if sites.is_empty() {
            return Err(Error::NoSites);
        }
        let build_span = recorder.span("cluster:build");
        let meter = BandwidthMeter::with_recorder(recorder.clone());
        let total_tuples = sites.iter().map(Vec::len).sum();
        let plan = topology.plan(sites.len());
        let built = Self::build_sites(dims, sites, options, &recorder);
        let mut links: Vec<Box<dyn Link>> = Vec::with_capacity(plan.root_fanout());
        let mut health: Vec<Arc<LinkHealth>> = Vec::with_capacity(plan.root_fanout());
        let mut servers: Vec<tcp::SiteServer> = Vec::new();

        if plan.is_flat() {
            for (i, site) in built.into_iter().enumerate() {
                let site = site?;
                let fault = chaos_seed.map(|seed| FaultPlan::seeded(seed, i as u32));
                let raw = Self::spawn_service(
                    site,
                    transport,
                    &meter,
                    link_config,
                    &mut servers,
                    i as u32,
                    delay,
                )?;
                let (h, link) = Self::finish_link(raw, fault, link_config, &recorder);
                health.push(h);
                links.push(link);
            }
        } else {
            // Tree topology: sites and intermediate aggregators hang off a
            // throwaway meter, so the cluster meter sees exactly the
            // merged frames crossing the root's own links. One root link
            // per group, chaos keyed by the group's first member site so a
            // seeded plan replays identically at every topology.
            let mut built: Vec<Option<LocalSite>> =
                built.into_iter().map(|s| s.map(Some)).collect::<Result<_, _>>()?;
            let child_meter = BandwidthMeter::new();
            for root in plan.roots() {
                let members = root.members();
                let first = members.first().copied().unwrap_or(0);
                let fault = chaos_seed.map(|seed| FaultPlan::seeded(seed, first));
                let raw: Box<dyn Link> = match root {
                    // A root-level leaf (ragged tail group) talks to the
                    // coordinator directly, like a flat site.
                    FanNode::Leaf(site) => {
                        let svc = built[*site as usize].take().expect("each site is wired once");
                        Self::spawn_service(
                            svc,
                            transport,
                            &meter,
                            link_config,
                            &mut servers,
                            *site,
                            delay,
                        )?
                    }
                    FanNode::Node(children) => {
                        let mut agg = Aggregator::new();
                        for child in children {
                            let link = Self::build_subtree(
                                child,
                                &mut built,
                                transport,
                                &child_meter,
                                link_config,
                                &mut servers,
                                delay,
                            )?;
                            match child {
                                FanNode::Leaf(site) => agg.push_leaf(*site, link),
                                FanNode::Node(_) => agg.push_group(child.members(), link),
                            }
                        }
                        Self::spawn_service(
                            agg,
                            transport,
                            &meter,
                            link_config,
                            &mut servers,
                            first,
                            delay,
                        )?
                    }
                };
                let (h, link) = Self::finish_link(raw, fault, link_config, &recorder);
                health.push(h);
                links.push(link);
            }
        }
        drop(build_span);
        Ok(Cluster { dims, links, health, meter, total_tuples, plan, servers })
    }

    /// Constructs every [`LocalSite`] (each a PR-tree bulk load) on at most
    /// pool-size threads, contiguous runs of sites per thread
    /// ([`threadpool::map_chunks`]). Results stay in site order; errors are
    /// surfaced in site order by the caller.
    fn build_sites(
        dims: usize,
        sites: Vec<Vec<UncertainTuple>>,
        options: SiteOptions,
        recorder: &Recorder,
    ) -> Vec<Result<LocalSite, Error>> {
        threadpool::map_chunks(sites, |start, chunk| {
            chunk
                .into_iter()
                .enumerate()
                .map(|(j, tuples)| {
                    LocalSite::new((start + j) as u32, dims, tuples, options).map(|mut site| {
                        site.set_recorder(recorder.clone());
                        site
                    })
                })
                .collect()
        })
    }

    /// Number of local sites `m` (virtual sites, not physical links:
    /// under a tree topology the coordinator holds fewer links than
    /// sites).
    pub fn site_count(&self) -> usize {
        self.plan.sites()
    }

    /// The fan-out plan the coordinator routes through.
    pub fn plan(&self) -> &FanPlan {
        &self.plan
    }

    /// Dimensionality of the data space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total tuples across all local databases at construction time.
    pub fn total_tuples(&self) -> usize {
        self.total_tuples
    }

    /// The shared bandwidth meter.
    pub fn meter(&self) -> &BandwidthMeter {
        &self.meter
    }

    /// The observability recorder this cluster reports to (disabled
    /// unless built with [`Cluster::local_instrumented`]).
    pub fn recorder(&self) -> &Recorder {
        self.meter.recorder()
    }

    /// Mutable access to the physical links (used by the update driver).
    /// Under a flat topology these are the per-site links; under a tree
    /// topology they address root aggregator groups — per-site routing
    /// must go through a [`Fanout`] or [`dsud_net::SiteRoute`].
    pub fn links_mut(&mut self) -> &mut [Box<dyn Link>] {
        &mut self.links
    }

    /// Per-site transport health: attempts, retries, and failure counts
    /// accumulated by each link's retry layer since construction.
    pub fn link_health(&self) -> Vec<HealthSnapshot> {
        self.health.iter().map(|h| h.snapshot()).collect()
    }

    /// Number of TCP site servers this cluster owns (zero for the inline
    /// and threaded transports).
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Decomposes the cluster into the parts a [`crate::SessionServer`]
    /// re-assembles around shared, query-multiplexed links:
    /// `(dims, total_tuples, links, health, meter, plan, site_servers)`.
    /// The health handles stay paired with `links` by index (one per
    /// physical link) so the session layer's heartbeat can keep per-link
    /// miss counts. The servers must outlive the links for the same
    /// drop-order reason [`Cluster`] itself declares `links` first.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> (
        usize,
        usize,
        Vec<Box<dyn Link>>,
        Vec<Arc<LinkHealth>>,
        BandwidthMeter,
        FanPlan,
        Vec<tcp::SiteServer>,
    ) {
        (self.dims, self.total_tuples, self.links, self.health, self.meter, self.plan, self.servers)
    }

    /// Runs the DSUD algorithm (Section 5.1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Subspace`] for an invalid query mask,
    /// [`Error::ProtocolViolation`] if a site misbehaves, or — under the
    /// default [`crate::FailurePolicy::Strict`] — [`Error::SiteFailed`]
    /// when a site stays unreachable after retries.
    pub fn run_dsud(&mut self, config: &QueryConfig) -> Result<QueryOutcome, Error> {
        let mask = config.resolve_mask(self.dims)?;
        let rec = self.meter.recorder().clone();
        let mut fan = Fanout::tree(&mut self.links, &self.plan, rec);
        dsud::run_on(&mut fan, &self.meter, mask, config, &mut |_, _| {})
    }

    /// Runs the enhanced e-DSUD algorithm (Section 5.2).
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::run_dsud`].
    pub fn run_edsud(&mut self, config: &QueryConfig) -> Result<QueryOutcome, Error> {
        let mask = config.resolve_mask(self.dims)?;
        let rec = self.meter.recorder().clone();
        let mut fan = Fanout::tree(&mut self.links, &self.plan, rec);
        edsud::run_on(&mut fan, &self.meter, mask, config, &mut |_, _| {})
    }
}

/// Interprets a reply from `site` that must be an upload.
pub(crate) fn expect_upload(site: u32, msg: Message) -> Result<Option<TupleMsg>, Error> {
    match msg {
        Message::Upload(t) => Ok(t),
        _ => Err(Error::ProtocolViolation { site, what: "expected Upload reply" }),
    }
}

/// Interprets a reply from `site` that must answer a counted
/// [`Message::Start`]: the first upload plus the candidates pending behind
/// it.
pub(crate) fn expect_started(site: u32, msg: Message) -> Result<(Option<TupleMsg>, u64), Error> {
    match msg {
        Message::Started { pending, next } => Ok((next, u64::from(pending))),
        _ => Err(Error::ProtocolViolation { site, what: "expected Started reply" }),
    }
}

/// Interprets a reply from `site` that must be a survival reply; the
/// survival product must be a valid probability or the reply is rejected (a
/// corrupted site must not silently poison global probabilities).
pub(crate) fn expect_survival(site: u32, msg: Message) -> Result<(f64, u64), Error> {
    match msg {
        Message::SurvivalReply { survival, pruned } => {
            if survival.is_finite() && (0.0..=1.0).contains(&survival) {
                Ok((survival, pruned))
            } else {
                Err(Error::ProtocolViolation { site, what: "survival product out of range" })
            }
        }
        _ => Err(Error::ProtocolViolation { site, what: "expected SurvivalReply" }),
    }
}

/// Interprets a reply from `site` that must answer a [`Message::Draw`]
/// whose flush carried `expected` probes: the flush's survival batch,
/// checked as [`expect_survival_batch`] checks it, and the refill's upload.
pub(crate) fn expect_drawn(
    site: u32,
    msg: Message,
    expected: usize,
) -> Result<(Vec<f64>, u64, Option<TupleMsg>), Error> {
    match msg {
        Message::Drawn { survivals, next } => {
            let (factors, pruned) = expect_survival_batch(site, *survivals, expected)?;
            Ok((factors, pruned, next))
        }
        _ => Err(Error::ProtocolViolation { site, what: "expected Drawn reply" }),
    }
}

/// Interprets a reply from `site` that must be a survival batch covering
/// exactly `expected` probes; every factor must be a valid probability.
pub(crate) fn expect_survival_batch(
    site: u32,
    msg: Message,
    expected: usize,
) -> Result<(Vec<f64>, u64), Error> {
    match msg {
        // Both layouts carry identical payloads; the coordinator's fold
        // never cares which one the site chose to answer with.
        Message::SurvivalBatchReply { survivals, pruned }
        | Message::SurvivalBatchReplyC { survivals, pruned } => {
            if survivals.len() != expected {
                return Err(Error::ProtocolViolation {
                    site,
                    what: "survival batch length mismatch",
                });
            }
            if survivals.iter().all(|s| s.is_finite() && (0.0..=1.0).contains(s)) {
                Ok((survivals, pruned))
            } else {
                Err(Error::ProtocolViolation { site, what: "survival product out of range" })
            }
        }
        _ => Err(Error::ProtocolViolation { site, what: "expected SurvivalBatchReply" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_cluster() {
        assert!(matches!(Cluster::local(2, vec![]), Err(Error::NoSites)));
    }

    #[test]
    fn expect_helpers_reject_mismatches_and_name_the_site() {
        assert_eq!(
            expect_upload(5, Message::Ack),
            Err(Error::ProtocolViolation { site: 5, what: "expected Upload reply" })
        );
        assert_eq!(
            expect_survival(2, Message::Ack),
            Err(Error::ProtocolViolation { site: 2, what: "expected SurvivalReply" })
        );
        assert_eq!(expect_upload(0, Message::Upload(None)).unwrap(), None);
        assert_eq!(
            expect_started(3, Message::Upload(None)),
            Err(Error::ProtocolViolation { site: 3, what: "expected Started reply" })
        );
        assert_eq!(
            expect_started(0, Message::Started { pending: 9, next: None }).unwrap(),
            (None, 9)
        );
        assert_eq!(
            expect_survival(0, Message::SurvivalReply { survival: 0.5, pruned: 2 }).unwrap(),
            (0.5, 2)
        );
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            assert!(
                expect_survival(0, Message::SurvivalReply { survival: bad, pruned: 0 }).is_err()
            );
        }
    }

    #[test]
    fn expect_survival_batch_validates_length_and_factors() {
        assert_eq!(
            expect_survival_batch(
                1,
                Message::SurvivalBatchReply { survivals: vec![0.5, 1.0], pruned: 3 },
                2
            )
            .unwrap(),
            (vec![0.5, 1.0], 3)
        );
        assert_eq!(
            expect_survival_batch(
                1,
                Message::SurvivalBatchReply { survivals: vec![0.5], pruned: 0 },
                2
            ),
            Err(Error::ProtocolViolation { site: 1, what: "survival batch length mismatch" })
        );
        assert_eq!(
            expect_survival_batch(4, Message::Ack, 1),
            Err(Error::ProtocolViolation { site: 4, what: "expected SurvivalBatchReply" })
        );
        for bad in [f64::NAN, -0.1, 1.5] {
            assert!(expect_survival_batch(
                0,
                Message::SurvivalBatchReply { survivals: vec![1.0, bad], pruned: 0 },
                2
            )
            .is_err());
        }
    }

    #[test]
    fn outcomes_without_degradation_fields_deserialize() {
        // An outcome serialized before `degraded`/`sites` existed.
        let outcome = QueryOutcome {
            skyline: Vec::new(),
            progress: ProgressLog::new(),
            traffic: MeterSnapshot::default(),
            stats: RunStats::default(),
            degraded: true,
            cancelled: true,
            sites: vec![SiteStatus { site: 0, quarantined: None, state: None }],
            plan: None,
        };
        let json = serde_json::to_string(&outcome).unwrap();
        // `degraded`, `cancelled`, and `sites` are the struct's trailing
        // fields; cutting them out reconstructs the schema-before JSON
        // exactly.
        let (prefix, _) = json.split_once(",\"degraded\"").expect("fields serialize in order");
        let legacy = format!("{prefix}}}");
        let back: QueryOutcome = serde_json::from_str(&legacy).unwrap();
        assert!(!back.degraded);
        assert!(!back.cancelled);
        assert!(back.sites.is_empty());
    }
}
