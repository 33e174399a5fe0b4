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
    MeterSnapshot, RetryLink, Routes, Service, TupleMsg,
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
    /// What the planner saw and decided ([`crate::BatchSize::Auto`] runs
    /// only). `None` for fixed-batch runs and for outcomes serialized
    /// before the planner existed.
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
    /// The fan-out shape the coordinator routes through, its routing
    /// tables and the sites' dominance covers, built once. The shared
    /// meter (and hence every outcome's `traffic`) observes only the
    /// root's own links, so under a tree topology it measures exactly the
    /// merged root-link traffic the topology exists to shrink.
    routes: Routes,
    servers: Vec<tcp::SiteServer>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("dims", &self.dims)
            .field("sites", &self.routes.plan().sites())
            .field("root_fanout", &self.routes.plan().root_fanout())
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

    /// Hosts the service tree under one fan-plan node on `meter` and
    /// returns the raw link to it: a leaf's own site, or an [`Aggregator`]
    /// over its children. Everything below the node reports to
    /// `child_meter` and gets a plain retry layer — no chaos, no health
    /// handle: subtree failures surface through the root link's own
    /// operations.
    #[allow(clippy::too_many_arguments)]
    fn spawn_node(
        node: &FanNode,
        built: &mut [Option<LocalSite>],
        transport: Transport,
        meter: &BandwidthMeter,
        child_meter: &BandwidthMeter,
        link_config: LinkConfig,
        servers: &mut Vec<tcp::SiteServer>,
        delay: Option<std::time::Duration>,
    ) -> Result<Box<dyn Link>, Error> {
        match node {
            FanNode::Leaf(site) => {
                let svc = built[*site as usize].take().expect("each site is wired once");
                Self::spawn_service(svc, transport, meter, link_config, servers, *site, delay)
            }
            FanNode::Node(children) => {
                let mut agg = Aggregator::new();
                for child in children {
                    let raw = Self::spawn_node(
                        child,
                        built,
                        transport,
                        child_meter,
                        child_meter,
                        link_config,
                        servers,
                        delay,
                    )?;
                    let link = Box::new(RetryLink::new(raw, link_config));
                    match child {
                        FanNode::Leaf(site) => agg.push_leaf(*site, link),
                        FanNode::Node(_) => agg.push_group(child.members(), link),
                    }
                }
                let err_site = node.members()[0];
                Self::spawn_service(agg, transport, meter, link_config, servers, err_site, delay)
            }
        }
    }

    /// Builds every site, then walks the plan: each root node is hosted on
    /// the cluster meter (sites and aggregators below it hang off a
    /// throwaway meter, so the cluster meter sees exactly the frames
    /// crossing the root's own links) and wrapped by [`Self::finish_link`],
    /// its chaos plan keyed by the node's first member site — a flat
    /// site's own index — so a seeded plan replays identically at every
    /// topology. The sites' dominance covers are read off the sites as
    /// they are built (a `cluster:cover` span), before they move behind
    /// their links: the cluster builds every site itself, so a
    /// `CoverRequest` exchange would only add each fresh link's first
    /// round trip to the build.
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
        let mut built: Vec<Option<LocalSite>> = Self::build_sites(dims, sites, options, &recorder)
            .into_iter()
            .map(|s| s.map(Some))
            .collect::<Result<_, _>>()?;
        let mut routes = Routes::new(plan);
        {
            let _span = recorder.span("cluster:cover");
            routes.set_covers(built.iter().flatten().map(|site| Some(site.cover())).collect());
        }
        let child_meter = BandwidthMeter::new();
        let mut links: Vec<Box<dyn Link>> = Vec::with_capacity(routes.plan().root_fanout());
        let mut health: Vec<Arc<LinkHealth>> = Vec::with_capacity(routes.plan().root_fanout());
        let mut servers: Vec<tcp::SiteServer> = Vec::new();
        for root in routes.plan().roots() {
            let raw = Self::spawn_node(
                root,
                &mut built,
                transport,
                &meter,
                &child_meter,
                link_config,
                &mut servers,
                delay,
            )?;
            let fault = chaos_seed.map(|seed| FaultPlan::seeded(seed, root.members()[0]));
            let (h, link) = Self::finish_link(raw, fault, link_config, &recorder);
            health.push(h);
            links.push(link);
        }
        drop(build_span);
        Ok(Cluster { dims, links, health, meter, total_tuples, routes, servers })
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
        self.routes.plan().sites()
    }

    /// The fan-out plan the coordinator routes through.
    pub fn plan(&self) -> &FanPlan {
        self.routes.plan()
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

    /// Mutable access to the physical root links, for wrapping them (the
    /// benchmark's timing links). Under a flat topology these are the
    /// per-site links; under a tree topology they address root aggregator
    /// groups. Anything that addresses sites by index goes through
    /// [`Cluster::fanout`] instead.
    pub fn links_mut(&mut self) -> &mut [Box<dyn Link>] {
        &mut self.links
    }

    /// The per-site view of the deployment through its topology: site `i`
    /// of [`Fanout::len`] is reached over its own link under a flat plan
    /// and through its aggregators under a tree. Maintenance
    /// ([`crate::update::Maintainer`]) runs over this view.
    pub fn fanout(&mut self) -> Fanout<'_> {
        Fanout::tree(&mut self.links, &self.routes, self.meter.recorder().clone())
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
    /// `(dims, total_tuples, links, health, meter, routes, site_servers)`.
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
        Routes,
        Vec<tcp::SiteServer>,
    ) {
        (
            self.dims,
            self.total_tuples,
            self.links,
            self.health,
            self.meter,
            self.routes,
            self.servers,
        )
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
        let meter = self.meter.clone();
        dsud::run_on(&mut self.fanout(), &meter, mask, config, &mut |_, _| {})
    }

    /// Runs the enhanced e-DSUD algorithm (Section 5.2).
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::run_dsud`].
    pub fn run_edsud(&mut self, config: &QueryConfig) -> Result<QueryOutcome, Error> {
        let mask = config.resolve_mask(self.dims)?;
        let meter = self.meter.clone();
        edsud::run_on(&mut self.fanout(), &meter, mask, config, &mut |_, _| {})
    }
}

/// The routes of `plan` over its root `links`, with every site's dominance
/// cover asked for in one parallel `CoverRequest` exchange — for callers
/// that hold only links to the sites. A site that does not answer with a
/// cover keeps none, so every delivery to it goes out; a failing site is
/// left to the queries' own failure policy.
pub(crate) fn routes_with_covers(
    links: &mut [Box<dyn Link>],
    plan: FanPlan,
    recorder: &Recorder,
) -> Routes {
    let mut routes = Routes::new(plan);
    let covers = Fanout::tree(links, &routes, recorder.clone())
        .broadcast(|_| true, &Message::CoverRequest)
        .into_iter()
        .map(|(_, reply)| match reply {
            Ok(Message::Cover(cover)) => Some(cover),
            _ => None,
        })
        .collect();
    routes.set_covers(covers);
    routes
}

/// Passes on a tuple uploaded by `site` if it is one of `site`'s own. The
/// coordinators file every upload, and size their per-site state, by the
/// tuple's site id, so a reply naming another site is rejected, not trusted.
fn own_upload(site: u32, t: Option<TupleMsg>) -> Result<Option<TupleMsg>, Error> {
    match t {
        Some(t) if t.id.site.0 != site => {
            Err(Error::ProtocolViolation { site, what: "uploaded tuple from another site" })
        }
        t => Ok(t),
    }
}

/// Interprets a reply from `site` that must be an upload: the uploaded
/// representative, and whether the site's queue is now empty.
pub(crate) fn expect_upload(site: u32, msg: Message) -> Result<(Option<TupleMsg>, bool), Error> {
    match msg {
        Message::Upload(t) => {
            let drained = t.is_none();
            Ok((own_upload(site, t)?, drained))
        }
        Message::UploadLast(t) => Ok((own_upload(site, Some(t))?, true)),
        _ => Err(Error::ProtocolViolation { site, what: "expected Upload reply" }),
    }
}

/// Interprets a reply from `site` that must answer a counted
/// [`Message::Start`]: the first upload plus the candidates pending behind
/// it (none: the site's queue is empty).
pub(crate) fn expect_started(site: u32, msg: Message) -> Result<(Option<TupleMsg>, u64), Error> {
    match msg {
        Message::Started { pending, next } => Ok((own_upload(site, next)?, u64::from(pending))),
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

/// The parts of a [`Message::Drawn`] reply: the flush's survival factors
/// and prune count, the refill's upload, and whether the refill emptied
/// the site's queue.
pub(crate) type Drawn = (Vec<f64>, u64, Option<TupleMsg>, bool);

/// Interprets a reply from `site` that must answer a [`Message::Draw`]
/// owing `expected` survival factors: the survival batch, checked as
/// [`expect_survival_batch`] checks it, and the refill's upload. A
/// [`Message::DrawDeferred`] (`deferred`) owes none unless its refill
/// drained the site.
pub(crate) fn expect_drawn(
    site: u32,
    msg: Message,
    expected: usize,
    deferred: bool,
) -> Result<Drawn, Error> {
    match msg {
        Message::Drawn { survivals, next, drained } => {
            let expected = if deferred && !drained { 0 } else { expected };
            let (factors, pruned) = expect_survival_batch(site, *survivals, expected)?;
            Ok((factors, pruned, own_upload(site, next)?, drained))
        }
        _ => Err(Error::ProtocolViolation { site, what: "expected Drawn reply" }),
    }
}

/// The parts of a refill reply at a site owing deferred factors: the
/// factors (`None` while the site keeps them), the upload, and whether
/// the refill drained the site.
pub(crate) type Refilled = (Option<Vec<f64>>, Option<TupleMsg>, bool);

/// Interprets a reply from `site` that must answer a refill at a site
/// holding `expected` deferred factors: a [`Message::Refilled`] carrying
/// them, each a valid probability — or, for a
/// [`Message::RequestNextDeferred`] (`deferred`) that left candidates
/// behind, a plain upload while the site keeps them.
pub(crate) fn expect_refilled(
    site: u32,
    msg: Message,
    expected: usize,
    deferred: bool,
) -> Result<Refilled, Error> {
    match msg {
        Message::Refilled { survivals, next, drained } => {
            let (factors, _) = expect_survival_batch(
                site,
                Message::SurvivalBatchReply { survivals, pruned: 0 },
                expected,
            )?;
            Ok((Some(factors), own_upload(site, next)?, drained))
        }
        Message::Upload(next @ Some(_)) if deferred => Ok((None, own_upload(site, next)?, false)),
        _ => Err(Error::ProtocolViolation { site, what: "expected Refilled reply" }),
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
        assert_eq!(expect_upload(0, Message::Upload(None)).unwrap(), (None, true));
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

    /// An upload is filed under its tuple's site id, so a reply whose
    /// tuple names another site is a protocol violation in every reply
    /// that can carry one, and the replying site's own tuple passes.
    #[test]
    fn uploads_naming_another_site_are_rejected() {
        let upload = |site| TupleMsg {
            id: dsud_uncertain::TupleId::new(site, 7),
            values: vec![1.0, 2.0],
            prob: 0.5,
            local_prob: 0.4,
        };
        let drawn = |site| Message::Drawn {
            survivals: Box::new(Message::SurvivalBatchReply { survivals: vec![0.5], pruned: 0 }),
            next: Some(upload(site)),
            drained: false,
        };
        let started = |site| Message::Started { pending: 3, next: Some(upload(site)) };
        let violation =
            Error::ProtocolViolation { site: 2, what: "uploaded tuple from another site" };
        for forged in [0, 3, u32::MAX] {
            let upload_reply = Message::Upload(Some(upload(forged)));
            assert_eq!(expect_upload(2, upload_reply).unwrap_err(), violation);
            let last = Message::UploadLast(upload(forged));
            assert_eq!(expect_upload(2, last).unwrap_err(), violation);
            assert_eq!(expect_started(2, started(forged)).unwrap_err(), violation);
            assert_eq!(expect_drawn(2, drawn(forged), 1, false).unwrap_err(), violation);
            let refilled = Message::Refilled {
                survivals: vec![0.5],
                next: Some(upload(forged)),
                drained: false,
            };
            assert_eq!(expect_refilled(2, refilled, 1, false).unwrap_err(), violation);
        }
        assert_eq!(expect_upload(2, Message::UploadLast(upload(2))), Ok((Some(upload(2)), true)));
        assert_eq!(expect_started(2, started(2)), Ok((Some(upload(2)), 3)));
        assert_eq!(expect_drawn(2, drawn(2), 1, false), Ok((vec![0.5], 0, Some(upload(2)), false)));
    }

    /// A deferred draw owes no factor unless its refill drained the site;
    /// a refill at a site holding factors owes exactly the held ones, each
    /// a probability.
    #[test]
    fn deferred_replies_owe_what_the_site_holds() {
        let drawn = |survivals: Vec<f64>, drained| Message::Drawn {
            survivals: Box::new(Message::SurvivalBatchReply { survivals, pruned: 1 }),
            next: None,
            drained,
        };
        assert_eq!(
            expect_drawn(0, drawn(Vec::new(), false), 3, true),
            Ok((Vec::new(), 1, None, false))
        );
        assert_eq!(expect_drawn(0, drawn(vec![0.5; 3], true), 3, true).unwrap().0.len(), 3);
        let mismatch = Error::ProtocolViolation { site: 0, what: "survival batch length mismatch" };
        assert_eq!(expect_drawn(0, drawn(Vec::new(), true), 3, true).unwrap_err(), mismatch);
        assert_eq!(expect_drawn(0, drawn(vec![0.5; 3], false), 3, true).unwrap_err(), mismatch);
        let refilled = |survivals| Message::Refilled { survivals, next: None, drained: true };
        assert_eq!(
            expect_refilled(0, refilled(vec![0.25, 1.0]), 2, false),
            Ok((Some(vec![0.25, 1.0]), None, true))
        );
        assert_eq!(expect_refilled(0, refilled(vec![0.25]), 2, true).unwrap_err(), mismatch);
        assert!(expect_refilled(0, refilled(vec![f64::NAN, 1.0]), 2, false).is_err());
        // A deferred refill that leaves candidates behind keeps the
        // factors; a draining one, or a plain refill, must return them.
        let upload = TupleMsg {
            id: dsud_uncertain::TupleId::new(0, 1),
            values: vec![1.0],
            prob: 0.5,
            local_prob: 0.4,
        };
        let kept = || Message::Upload(Some(upload.clone()));
        assert_eq!(expect_refilled(0, kept(), 2, true), Ok((None, Some(upload.clone()), false)));
        let violation = Error::ProtocolViolation { site: 0, what: "expected Refilled reply" };
        assert_eq!(expect_refilled(0, kept(), 2, false).unwrap_err(), violation);
        for drained in [Message::Upload(None), Message::UploadLast(upload.clone())] {
            assert_eq!(expect_refilled(0, drained, 1, true).unwrap_err(), violation);
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
