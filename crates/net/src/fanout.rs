//! Topology layer: sites → regional aggregators → root.
//!
//! A flat coordinator talks to all `m` sites over `m` links, so its
//! per-round fan-out — feedback broadcasts, survival scatters, the
//! ascending-site fold — grows O(m). This module interposes a tree of
//! [`Aggregator`] services between the root and the sites: the root holds
//! one physical link per *top-level group* (O(√m) for a single aggregation
//! layer, O(log m) for a deep tree) and speaks a compact aggregate
//! protocol on it, while each aggregator terminates the ordinary
//! site-facing protocol downward.
//!
//! Three frames make up the upward protocol (see [`Message`]):
//!
//! * [`Message::AggBroadcast`] — one payload addressed to a whole member
//!   list; the payload crosses the root link **once** instead of once per
//!   member, which is where the root-link byte cut comes from.
//! * [`Message::AggScatter`] — distinct per-site payloads coalesced into
//!   one frame per group.
//! * [`Message::AggReplies`] — the merged per-site outcomes, in ascending
//!   site order, with child-link errors forwarded in reply position.
//!
//! # Bit-identity
//!
//! Aggregators are deliberately *generic* scatter–gather proxies: they
//! never fold survival products, compare probabilities, or otherwise touch
//! algorithm state. All arithmetic stays at the root, which iterates
//! member replies in the same ascending site order a flat run uses (the
//! [`f64` fold order matters — multiplication is not associative]).
//! A tree run therefore produces bit-identical skylines, progressive
//! order, and `RunStats` at every fanout, transport, wire format, pool
//! size, and pipeline depth; only the *transport accounting* (frames and
//! bytes on the root link) changes, which is exactly the quantity the
//! topology experiment measures.
//!
//! [`f64` fold order matters — multiplication is not associative]: Fanout
//!
//! The alternative design — per-site virtual links at the root keeping the
//! coordinators topology-blind — was rejected: it preserves the protocol
//! but sends one frame per site over the root link, merging nothing, which
//! defeats the whole point of the layer.

use std::collections::{HashMap, VecDeque};

use dsud_obs::{Counter, Recorder};
use dsud_uncertain::{dominates_in, SubspaceMask, TupleId};
use parking_lot::RwLock;

use crate::message::AggReply;
use crate::{Cover, Link, LinkError, Message, Service, Ticket};

/// One position in a [`FanPlan`]: either a site itself or an aggregator
/// over an ascending run of child nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FanNode {
    /// A site, identified by its index.
    Leaf(u32),
    /// An aggregator over these children (member sites ascending).
    Node(Vec<FanNode>),
}

impl FanNode {
    /// The member sites under this node, in ascending order.
    pub fn members(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect_members(&mut out);
        out
    }

    fn collect_members(&self, out: &mut Vec<u32>) {
        match self {
            FanNode::Leaf(site) => out.push(*site),
            FanNode::Node(children) => {
                for child in children {
                    child.collect_members(out);
                }
            }
        }
    }
}

/// The shape of the coordinator-to-site fan-out: which nodes the root's
/// physical links lead to, and what hangs under each.
///
/// Built by `dsud-core`'s `Topology::plan`; consumed by the cluster
/// assembly (to wire aggregator services) and by [`Fanout`] (to route
/// per-site operations onto group links). Sites are always the ascending
/// range `0..sites`, chunked in order, so every group is a contiguous
/// ascending run and splicing group replies back together preserves
/// global ascending site order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanPlan {
    roots: Vec<FanNode>,
    depth: u32,
    sites: usize,
}

impl FanPlan {
    /// The flat plan: every site is a root-level leaf (no aggregation).
    pub fn flat(sites: usize) -> Self {
        FanPlan { roots: (0..sites as u32).map(FanNode::Leaf).collect(), depth: 0, sites }
    }

    /// A bounded-fanout tree: leaves are chunked into aggregators of at
    /// most `fanout` children, repeatedly, until the root itself holds at
    /// most `fanout` links. `sites <= fanout` needs no aggregation and
    /// degenerates to [`FanPlan::flat`].
    ///
    /// # Panics
    ///
    /// Panics when `fanout < 2` — such a "tree" merges nothing (the CLI
    /// rejects it long before this).
    pub fn tree(sites: usize, fanout: usize) -> Self {
        assert!(fanout >= 2, "a tree fanout below 2 merges nothing");
        if sites <= fanout {
            return Self::flat(sites);
        }
        let mut layer: Vec<FanNode> = (0..sites as u32).map(FanNode::Leaf).collect();
        let mut depth = 0;
        while layer.len() > fanout {
            layer = layer.chunks(fanout).map(|chunk| FanNode::Node(chunk.to_vec())).collect();
            depth += 1;
        }
        FanPlan { roots: layer, depth, sites }
    }

    /// The `auto` plan: one aggregation layer of `⌈√sites⌉`-ary groups,
    /// giving the root O(√m) links — the classic two-level balance where
    /// root fan-out and per-aggregator fan-out are equal.
    pub fn sqrt_auto(sites: usize) -> Self {
        let fanout = (sites as f64).sqrt().ceil() as usize;
        if fanout < 2 {
            return Self::flat(sites);
        }
        Self::tree(sites, fanout)
    }

    /// Number of sites this plan fans out to.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Aggregation layers between the root and the sites (0 = flat).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Physical links the root holds.
    pub fn root_fanout(&self) -> usize {
        self.roots.len()
    }

    /// Whether the plan has no aggregation at all.
    pub fn is_flat(&self) -> bool {
        self.depth == 0
    }

    /// The root-level nodes, in ascending member order.
    pub fn roots(&self) -> &[FanNode] {
        &self.roots
    }

    /// Member sites per root link, each ascending.
    pub fn groups(&self) -> Vec<Vec<u32>> {
        self.roots.iter().map(FanNode::members).collect()
    }
}

/// Receipt for a per-site request put in flight with [`Fanout::send`],
/// redeemed with [`Fanout::complete`] — the topology-aware counterpart of
/// a transport [`Ticket`].
#[derive(Debug)]
pub struct OpTicket(TicketRepr);

#[derive(Debug)]
enum TicketRepr {
    Flat(Ticket),
    Tree(u64),
}

/// What every fan-out over one deployment shares, built once: the routing
/// tables of its [`FanPlan`] and what the coordinator knows of each site's
/// contents — its dominance [`Cover`].
///
/// A deployment owner (`dsud-core`'s `Cluster` or `SessionServer`) keeps
/// one and lends it to each [`Fanout::tree`]. Covers change only when a
/// tuple is inserted or deleted ([`Routes::extend_cover`],
/// [`Routes::retract_cover`]), behind a per-site lock, so concurrent
/// fan-outs can share one value.
#[derive(Debug)]
pub struct Routes {
    plan: FanPlan,
    /// Member sites per root link, ascending (one site per link when the
    /// plan is flat).
    groups: Vec<Vec<u32>>,
    /// Site index → root link index.
    group_of: Vec<usize>,
    /// Per site, its cover; `None` while it is unknown (for every site
    /// until [`Routes::set_covers`]).
    covers: Vec<Option<RwLock<SiteCover>>>,
}

/// One site's cover as the coordinator keeps it: the site's corners, plus
/// the point of every tuple inserted there since, by id, so that deleting
/// it takes exactly its point back out.
#[derive(Debug)]
struct SiteCover {
    corners: Cover,
    inserted: Vec<(TupleId, Vec<f64>)>,
}

impl Routes {
    /// The routing tables of `plan`, without covers.
    pub fn new(plan: FanPlan) -> Self {
        let groups = plan.groups();
        let mut group_of = vec![0usize; plan.sites()];
        for (g, members) in groups.iter().enumerate() {
            debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "group members ascend");
            for &site in members {
                group_of[site as usize] = g;
            }
        }
        let covers = (0..plan.sites()).map(|_| None).collect();
        Routes { plan, groups, group_of, covers }
    }

    /// The plan the tables were built from.
    pub fn plan(&self) -> &FanPlan {
        &self.plan
    }

    /// Member sites behind each root link, ascending.
    pub fn groups(&self) -> &[Vec<u32>] {
        &self.groups
    }

    /// Installs each site's cover, in site order (`None`: the site keeps
    /// none, and every delivery to it goes out).
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one entry per site.
    pub fn set_covers(&mut self, covers: Vec<Option<Cover>>) {
        assert_eq!(covers.len(), self.plan.sites(), "one cover per site");
        self.covers = covers
            .into_iter()
            .map(|c| c.map(|corners| RwLock::new(SiteCover { corners, inserted: Vec::new() })))
            .collect();
    }

    /// Whether `site` may hold a tuple dominating `point` on `mask`:
    /// `false` only when the site's cover proves it holds none.
    pub fn may_hold_dominator(&self, site: usize, point: &[f64], mask: SubspaceMask) -> bool {
        let Some(Some(cover)) = self.covers.get(site) else { return true };
        let cover = cover.read();
        cover.corners.dominates(point, mask)
            || cover.inserted.iter().any(|(_, p)| dominates_in(p, point, mask))
    }

    /// Adds the point of tuple `id`, about to be stored at `site`, to the
    /// site's cover.
    pub fn extend_cover(&self, site: usize, id: TupleId, point: &[f64]) {
        if let Some(Some(cover)) = self.covers.get(site) {
            let mut cover = cover.write();
            if !cover.inserted.iter().any(|(i, p)| *i == id && p == point) {
                cover.inserted.push((id, point.to_vec()));
            }
        }
    }

    /// Takes the point of inserted tuple `id`, just deleted from `site`,
    /// back out of the site's cover. A tuple the coordinator never
    /// inserted leaves the cover alone.
    pub fn retract_cover(&self, site: usize, id: TupleId, point: &[f64]) {
        if let Some(Some(cover)) = self.covers.get(site) {
            cover.write().inserted.retain(|(i, p)| !(*i == id && p == point));
        }
    }
}

/// Tree-mode per-fan-out state: the per-link FIFO of single-site
/// operations still in flight. The routing itself is the borrowed
/// [`Routes`].
struct TreeState {
    /// Per physical link: `(op id, inner ticket, site)` in send order.
    /// Transport tickets redeem in send order, so completing op `k` first
    /// drains every earlier entry into the stash.
    fifo: Vec<VecDeque<(u64, Ticket, u32)>>,
    /// Results of operations completed ahead of their own redemption.
    stash: HashMap<u64, Result<Message, LinkError>>,
    /// First fatal error per physical link, if any. A root link that
    /// failed once is an aggregator lost with its whole subtree: every
    /// later operation routed through it fails with the same error
    /// instead of retrying the transport, so the subtree degrades as a
    /// unit even when the underlying fault was transient.
    dead: Vec<Option<LinkError>>,
    next_op: u64,
    recorder: Recorder,
}

impl TreeState {
    /// Marks group link `g` dead for the rest of the query and fails every
    /// single-site op still in flight on it. Idempotent: the first error
    /// wins, so replays report a consistent cause.
    fn poison(&mut self, g: usize, e: &LinkError) {
        if self.dead[g].is_none() {
            self.dead[g] = Some(e.clone());
        }
        let cause = self.dead[g].clone().expect("just ensured");
        while let Some((id, _ticket, _site)) = self.fifo[g].pop_front() {
            self.stash.insert(id, Err(cause.clone()));
        }
    }
}

/// The coordinators' view of the cluster: `len()` virtual sites reachable
/// through [`Fanout::broadcast`] / [`Fanout::scatter`] / per-site calls,
/// regardless of how many physical links the topology actually uses.
///
/// Flat mode delegates to the existing [`crate::broadcast`] /
/// [`crate::scatter`] free functions and direct link operations, so a
/// flat `Fanout` is byte- and behavior-identical to the pre-topology
/// coordinators. Tree mode wraps operations in aggregate frames, one per
/// involved group, and splices the merged replies back into ascending
/// site order; a physical-link failure fans out to every member site in
/// reply position, exactly where a flat run would report the same error
/// per site — and permanently: the first failure marks the link dead for
/// the rest of this fan-out's life, so members the failing frame did not
/// address fail on their next operation instead of riding out a
/// transient fault their groupmates already died of. An aggregator is
/// lost with its whole subtree or not at all.
///
/// Tree-mode group operations are driven send-all-then-drain on the
/// caller's thread: group links carry pipelined single-site sends (the
/// `--pipeline` refill tickets) whose transport tickets must redeem in
/// send order, so pool-parallel `call`s on those links would interleave
/// redemptions. Parallelism is instead preserved *inside* each
/// aggregator, which fans out to its children through the pool-parallel
/// scatter path.
pub struct Fanout<'a> {
    links: &'a mut [Box<dyn Link>],
    /// The deployment's routing and covers; `None` over bare links.
    routes: Option<&'a Routes>,
    tree: Option<TreeState>,
}

impl<'a> Fanout<'a> {
    /// A flat fan-out over bare links: one link per site, no aggregation,
    /// identical to the pre-topology coordinator behavior. It knows no
    /// covers, so every site may hold a dominator of every point.
    pub fn flat(links: &'a mut [Box<dyn Link>]) -> Self {
        Fanout { links, routes: None, tree: None }
    }

    /// A fan-out routed through a deployment's `routes`. A flat plan
    /// behaves exactly like [`Fanout::flat`] on the wire; otherwise `links`
    /// must hold one physical link per root group, and per-site operations
    /// are wrapped in aggregate frames. Root-side merge/fold counters are
    /// recorded on `recorder`.
    ///
    /// # Panics
    ///
    /// Panics when the link count matches neither the plan's site count
    /// (flat) nor its root fan-out (tree).
    pub fn tree(links: &'a mut [Box<dyn Link>], routes: &'a Routes, recorder: Recorder) -> Self {
        let plan = routes.plan();
        if plan.is_flat() {
            assert_eq!(links.len(), plan.sites(), "flat plan needs one link per site");
            return Fanout { links, routes: Some(routes), tree: None };
        }
        assert_eq!(
            links.len(),
            plan.root_fanout(),
            "tree plan needs one physical link per root group"
        );
        let groups = routes.groups.len();
        Fanout {
            links,
            routes: Some(routes),
            tree: Some(TreeState {
                fifo: (0..groups).map(|_| VecDeque::new()).collect(),
                stash: HashMap::new(),
                dead: vec![None; groups],
                next_op: 0,
                recorder,
            }),
        }
    }

    /// Number of virtual sites (not physical links).
    pub fn len(&self) -> usize {
        match self.routes {
            Some(routes) => routes.plan().sites(),
            None => self.links.len(),
        }
    }

    /// Whether `site` may hold a tuple dominating `point` on `mask`:
    /// `false` only when the deployment's cover of the site proves it
    /// holds none. Always `true` over bare links.
    pub fn may_hold_dominator(&self, site: usize, point: &[f64], mask: SubspaceMask) -> bool {
        self.routes.is_none_or(|r| r.may_hold_dominator(site, point, mask))
    }

    /// Adds tuple `id`'s point to the deployment's cover of `site`, before
    /// the tuple is stored there (see [`Routes::extend_cover`]).
    pub fn extend_cover(&self, site: usize, id: TupleId, point: &[f64]) {
        if let Some(routes) = self.routes {
            routes.extend_cover(site, id, point);
        }
    }

    /// Takes inserted tuple `id`'s point back out of the deployment's
    /// cover of `site`, once it is deleted there (see
    /// [`Routes::retract_cover`]).
    pub fn retract_cover(&self, site: usize, id: TupleId, point: &[f64]) {
        if let Some(routes) = self.routes {
            routes.retract_cover(site, id, point);
        }
    }

    /// Whether the fan-out reaches no sites at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sends `msg` to every site selected by `include` and collects the
    /// replies in ascending site order, mirroring [`crate::broadcast`].
    pub fn broadcast<F>(
        &mut self,
        include: F,
        msg: &Message,
    ) -> Vec<(usize, Result<Message, LinkError>)>
    where
        F: Fn(usize) -> bool,
    {
        let Some(tree) = &mut self.tree else {
            return crate::broadcast(self.links, include, msg);
        };
        let routes = self.routes.expect("a tree fan-out is built from routes");
        // Send phase: one merged frame per group with at least one
        // included member.
        let mut sent: Vec<(usize, Vec<u32>, Result<Ticket, LinkError>)> = Vec::new();
        for (g, members) in routes.groups.iter().enumerate() {
            let sites: Vec<u32> =
                members.iter().copied().filter(|s| include(*s as usize)).collect();
            if sites.is_empty() {
                continue;
            }
            if let Some(e) = tree.dead[g].clone() {
                sent.push((g, sites, Err(e)));
                continue;
            }
            // The payload crossed the root link once for `sites.len()`
            // logical deliveries: the merge saved the difference.
            tree.recorder.add(Counter::AggMergedFrames, sites.len() as u64 - 1);
            let frame =
                Message::AggBroadcast { sites: sites.clone(), inner: Box::new(msg.clone()) };
            let outcome = self.links[g].send(frame);
            sent.push((g, sites, outcome));
        }
        self.drain_group_replies(sent)
    }

    /// Sends a distinct payload to each listed site and collects the
    /// replies in ascending site order, mirroring [`crate::scatter`].
    ///
    /// # Panics
    ///
    /// Panics if two requests name the same site.
    pub fn scatter(
        &mut self,
        requests: Vec<(usize, Message)>,
    ) -> Vec<(usize, Result<Message, LinkError>)> {
        let Some(tree) = &mut self.tree else {
            return crate::scatter(self.links, requests);
        };
        let routes = self.routes.expect("a tree fan-out is built from routes");
        let mut per_group: Vec<Vec<(u32, Message)>> =
            (0..routes.groups.len()).map(|_| Vec::new()).collect();
        let mut seen = vec![false; routes.group_of.len()];
        for (site, msg) in requests {
            assert!(!std::mem::replace(&mut seen[site], true), "duplicate scatter target {site}");
            per_group[routes.group_of[site]].push((site as u32, msg));
        }
        let mut sent: Vec<(usize, Vec<u32>, Result<Ticket, LinkError>)> = Vec::new();
        for (g, mut parts) in per_group.into_iter().enumerate() {
            if parts.is_empty() {
                continue;
            }
            parts.sort_by_key(|(site, _)| *site);
            let sites: Vec<u32> = parts.iter().map(|(site, _)| *site).collect();
            if let Some(e) = tree.dead[g].clone() {
                sent.push((g, sites, Err(e)));
                continue;
            }
            tree.recorder.add(Counter::AggMergedFrames, sites.len() as u64 - 1);
            let outcome = self.links[g].send(Message::AggScatter { parts });
            sent.push((g, sites, outcome));
        }
        self.drain_group_replies(sent)
    }

    /// Round-trips one request to one site.
    pub fn call(&mut self, site: usize, msg: Message) -> Result<Message, LinkError> {
        if self.tree.is_none() {
            return self.links[site].call(msg);
        }
        let ticket = self.send(site, msg)?;
        self.complete(site, ticket)
    }

    /// Puts a single-site request in flight; the topology counterpart of
    /// [`Link::send`]. Tree mode rides a one-part [`Message::AggScatter`]
    /// on the site's group link.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] when the request cannot be sent; nothing is
    /// left outstanding.
    pub fn send(&mut self, site: usize, msg: Message) -> Result<OpTicket, LinkError> {
        let Some(tree) = &mut self.tree else {
            return self.links[site].send(msg).map(|t| OpTicket(TicketRepr::Flat(t)));
        };
        let g = self.routes.expect("a tree fan-out is built from routes").group_of[site];
        if let Some(e) = tree.dead[g].clone() {
            return Err(e);
        }
        let frame = Message::AggScatter { parts: vec![(site as u32, msg)] };
        let ticket = match self.links[g].send(frame) {
            Ok(ticket) => ticket,
            Err(e) => {
                tree.poison(g, &e);
                return Err(e);
            }
        };
        let op = tree.next_op;
        tree.next_op += 1;
        tree.fifo[g].push_back((op, ticket, site as u32));
        Ok(OpTicket(TicketRepr::Tree(op)))
    }

    /// Redeems a [`Fanout::send`] ticket for its reply.
    ///
    /// Group links redeem transport tickets in send order, so completing
    /// an op whose link carries earlier outstanding ops first drains those
    /// into a stash; their own redemption later is a lookup. This keeps
    /// the coordinator free to complete per-site ops in any order — the
    /// pipelined refill path completes uploads per-site while a broadcast
    /// may have intervened on the same group link.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] when the group link or the aggregator's
    /// child link failed.
    ///
    /// # Panics
    ///
    /// Panics when the ticket was not issued by this fan-out (a
    /// coordinator bug).
    pub fn complete(&mut self, site: usize, ticket: OpTicket) -> Result<Message, LinkError> {
        let op = match ticket.0 {
            TicketRepr::Flat(t) => return self.links[site].complete(t),
            TicketRepr::Tree(op) => op,
        };
        let g = self.routes.expect("a tree fan-out is built from routes").group_of[site];
        let tree = self.tree.as_mut().expect("a tree ticket comes from a tree fan-out");
        loop {
            if let Some(result) = tree.stash.remove(&op) {
                return result;
            }
            let Some((id, inner, s)) = tree.fifo[g].pop_front() else {
                panic!("fanout op {op} was never sent on site {site}'s group link");
            };
            let result = complete_single(&mut self.links[g], &tree.recorder, inner, s);
            if let Err(e) = &result {
                // Failing ops behind it drain into the stash, so the
                // stash lookup above may now hold `op` itself.
                tree.poison(g, e);
            }
            if id == op {
                return result;
            }
            tree.stash.insert(id, result);
        }
    }

    /// Completion phase shared by tree broadcast/scatter: for each group,
    /// first drain any earlier single-site ops (transport FIFO), then
    /// redeem the group frame and splice its merged replies into ascending
    /// site order. Failed sends fan their error out to every member.
    fn drain_group_replies(
        &mut self,
        sent: Vec<(usize, Vec<u32>, Result<Ticket, LinkError>)>,
    ) -> Vec<(usize, Result<Message, LinkError>)> {
        let tree = self.tree.as_mut().expect("tree mode");
        let mut out = Vec::new();
        for (g, sites, outcome) in sent {
            match outcome {
                Err(e) => {
                    tree.poison(g, &e);
                    for site in sites {
                        out.push((site as usize, Err(e.clone())));
                    }
                }
                Ok(ticket) => {
                    while let Some((id, inner, s)) = tree.fifo[g].pop_front() {
                        let result = complete_single(&mut self.links[g], &tree.recorder, inner, s);
                        if let Err(e) = &result {
                            tree.poison(g, e);
                        }
                        tree.stash.insert(id, result);
                    }
                    // A drain failure above killed the link; the group
                    // frame it still owes can never be redeemed.
                    let reply = match tree.dead[g].clone() {
                        Some(e) => Err(e),
                        None => self.links[g].complete(ticket),
                    };
                    if let Err(e) = &reply {
                        tree.poison(g, e);
                    }
                    splice_group_reply(&tree.recorder, &sites, reply, &mut out);
                }
            }
        }
        out
    }
}

/// Splices one group's merged reply into per-site `(index, result)` pairs,
/// pairing each addressed site with its [`AggReply`] entry. Shape
/// mismatches (a non-aggregate reply, a missing or misordered entry)
/// surface as [`LinkError::Malformed`] — the same error an undecodable
/// flat reply produces.
fn splice_group_reply(
    recorder: &Recorder,
    sites: &[u32],
    reply: Result<Message, LinkError>,
    out: &mut Vec<(usize, Result<Message, LinkError>)>,
) {
    match reply {
        Err(e) => {
            for &site in sites {
                out.push((site as usize, Err(e.clone())));
            }
        }
        Ok(Message::AggReplies { replies }) => {
            recorder.add(Counter::AggFoldOps, replies.len() as u64);
            let mut entries = replies.into_iter().peekable();
            for &site in sites {
                let result = match entries.peek() {
                    Some((s, _)) if *s == site => {
                        entries.next().expect("peeked entry exists").1.into_result()
                    }
                    _ => Err(LinkError::Malformed),
                };
                out.push((site as usize, result));
            }
        }
        Ok(_) => {
            for &site in sites {
                out.push((site as usize, Err(LinkError::Malformed)));
            }
        }
    }
}

/// Redeems the transport ticket of a one-part [`Message::AggScatter`] and
/// unwraps the single [`AggReply`] entry it owes down to the member's own
/// outcome.
fn complete_single(
    link: &mut Box<dyn Link>,
    recorder: &Recorder,
    ticket: Ticket,
    site: u32,
) -> Result<Message, LinkError> {
    let reply = link.complete(ticket)?;
    recorder.add(Counter::AggFoldOps, 1);
    match reply {
        Message::AggReplies { replies } if replies.len() == 1 && replies[0].0 == site => {
            replies.into_iter().next().expect("len checked").1.into_result()
        }
        _ => Err(LinkError::Malformed),
    }
}

/// Per-child wiring of an [`Aggregator`]: which member sites the child
/// link serves, and whether it leads straight to a site (leaf) or to a
/// nested aggregator (node).
struct ChildMeta {
    sites: Vec<u32>,
    leaf: bool,
}

/// The regional aggregator service: terminates the aggregate protocol
/// downward, fanning each [`Message::AggBroadcast`] /
/// [`Message::AggScatter`] out to its children (plain frames to leaf
/// sites, nested aggregate frames to sub-aggregators) through the
/// pool-parallel scatter path, and merges the children's outcomes into one
/// ascending [`Message::AggReplies`] frame upward.
///
/// The service is deliberately *stateless and generic*: it never inspects
/// tuple payloads, folds survival products, or tracks query progress.
/// [`Message::Tagged`] session frames are unwrapped, each downward child
/// frame is re-tagged with the same query id, and the merged reply goes up
/// plain — so one aggregator serves every concurrent session query, like a
/// site does. A [`Message::HealthProbe`] is answered by the aggregator
/// *itself* (its subtree's health is its own business until an operation
/// actually fails), which is what lets the session lifecycle quarantine an
/// aggregator exactly like a site: one missed ack degrades the whole
/// subtree as a unit. [`Message::Release`] is forwarded to every child so
/// per-query site state unwinds through the tree.
pub struct Aggregator {
    links: Vec<Box<dyn Link>>,
    meta: Vec<ChildMeta>,
}

impl Default for Aggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl Aggregator {
    /// An aggregator with no children yet.
    pub fn new() -> Self {
        Aggregator { links: Vec::new(), meta: Vec::new() }
    }

    /// Adds a direct link to member site `site`.
    pub fn push_leaf(&mut self, site: u32, link: Box<dyn Link>) {
        self.links.push(link);
        self.meta.push(ChildMeta { sites: vec![site], leaf: true });
    }

    /// Adds a link to a nested aggregator serving `sites` (ascending).
    pub fn push_group(&mut self, sites: Vec<u32>, link: Box<dyn Link>) {
        debug_assert!(sites.windows(2).all(|w| w[0] < w[1]), "member sites ascend");
        self.links.push(link);
        self.meta.push(ChildMeta { sites, leaf: false });
    }

    /// Member sites across all children, ascending.
    pub fn members(&self) -> Vec<u32> {
        self.meta.iter().flat_map(|m| m.sites.iter().copied()).collect()
    }

    fn wrap(query_id: Option<u64>, msg: Message) -> Message {
        match query_id {
            Some(id) => Message::Tagged { query_id: id, inner: Box::new(msg) },
            None => msg,
        }
    }

    fn process(&mut self, msg: Message, query_id: Option<u64>) -> Message {
        match msg {
            Message::AggBroadcast { sites, inner } => {
                let mut requests = Vec::new();
                let mut addressed = Vec::new();
                for (c, meta) in self.meta.iter().enumerate() {
                    let subset: Vec<u32> = meta
                        .sites
                        .iter()
                        .copied()
                        .filter(|s| sites.binary_search(s).is_ok())
                        .collect();
                    if subset.is_empty() {
                        continue;
                    }
                    let downward = if meta.leaf {
                        (*inner).clone()
                    } else {
                        Message::AggBroadcast { sites: subset.clone(), inner: inner.clone() }
                    };
                    requests.push((c, Self::wrap(query_id, downward)));
                    addressed.push(subset);
                }
                self.merge(requests, addressed)
            }
            Message::AggScatter { parts } => {
                let mut per_child: Vec<Vec<(u32, Message)>> =
                    (0..self.meta.len()).map(|_| Vec::new()).collect();
                for (site, inner) in parts {
                    let Some(c) =
                        self.meta.iter().position(|m| m.sites.binary_search(&site).is_ok())
                    else {
                        // A part addressed outside this subtree: the frame
                        // is not ours to serve.
                        return Message::DecodeError;
                    };
                    per_child[c].push((site, inner));
                }
                let mut requests = Vec::new();
                let mut addressed = Vec::new();
                for (c, mut parts) in per_child.into_iter().enumerate() {
                    if parts.is_empty() {
                        continue;
                    }
                    parts.sort_by_key(|(site, _)| *site);
                    let sites: Vec<u32> = parts.iter().map(|(site, _)| *site).collect();
                    let downward = if self.meta[c].leaf {
                        debug_assert!(parts.len() == 1, "a leaf child is one site");
                        parts.pop().expect("non-empty").1
                    } else {
                        Message::AggScatter { parts }
                    };
                    requests.push((c, Self::wrap(query_id, downward)));
                    addressed.push(sites);
                }
                self.merge(requests, addressed)
            }
            // The aggregator acks for itself: heartbeats probe the link to
            // this process, and quarantining it degrades the subtree as a
            // unit (the same granularity its operations fail at).
            Message::HealthProbe { nonce } => Message::HealthAck { nonce },
            Message::Release => {
                let downward = Self::wrap(query_id, Message::Release);
                let _ = crate::broadcast(&mut self.links, |_| true, &downward);
                Message::Ack
            }
            _ => Message::DecodeError,
        }
    }

    /// Fans `requests` out to the children (pool-parallel) and merges
    /// their outcomes into one ascending [`Message::AggReplies`]. A failed
    /// child link stands in for each of its member sites as an error
    /// entry, so the root sees per-site failures exactly where a flat run
    /// would.
    fn merge(&mut self, requests: Vec<(usize, Message)>, addressed: Vec<Vec<u32>>) -> Message {
        let replies = crate::scatter(&mut self.links, requests);
        let mut out: Vec<(u32, AggReply)> = Vec::new();
        for ((c, outcome), sites) in replies.into_iter().zip(addressed) {
            match outcome {
                Err(e) => {
                    for site in sites {
                        out.push((site, AggReply::Err(e.clone())));
                    }
                }
                Ok(reply) if self.meta[c].leaf => {
                    debug_assert!(sites.len() == 1, "a leaf child is one site");
                    out.push((sites[0], AggReply::Ok(Box::new(reply))));
                }
                Ok(Message::AggReplies { replies }) => out.extend(replies),
                Ok(_) => {
                    for site in sites {
                        out.push((site, AggReply::Err(LinkError::Malformed)));
                    }
                }
            }
        }
        debug_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "merged replies ascend");
        Message::AggReplies { replies: out }
    }
}

impl Service for Aggregator {
    fn handle(&mut self, msg: Message) -> Message {
        match msg {
            Message::Tagged { query_id, inner } => self.process(*inner, Some(query_id)),
            other => self.process(other, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BandwidthMeter, ChannelLink, ChaosLink, FaultKind, FaultPlan, LocalLink};

    /// A stateful echo site: replies carry `(site, requests seen)` so any
    /// reordering, duplication, or dropped delivery changes the
    /// transcript.
    fn counting_site(site: u32) -> impl Service {
        let mut seen = 0u64;
        move |msg: Message| match msg {
            Message::Tagged { query_id, inner } => match *inner {
                Message::Release => Message::Ack,
                _ => {
                    seen += 1;
                    Message::SurvivalReply {
                        survival: (query_id * 1_000_000 + u64::from(site) * 1000 + seen) as f64,
                        pruned: 0,
                    }
                }
            },
            Message::Release => Message::Ack,
            Message::HealthProbe { nonce } => Message::HealthAck { nonce },
            _ => {
                seen += 1;
                Message::SurvivalReply {
                    survival: (u64::from(site) * 1000 + seen) as f64,
                    pruned: 0,
                }
            }
        }
    }

    /// Builds the physical links of `plan` over inline transports, with
    /// real [`Aggregator`] services on every internal node.
    fn build_links(plan: &FanPlan, meter: &BandwidthMeter) -> Vec<Box<dyn Link>> {
        fn link_for(node: &FanNode, meter: &BandwidthMeter) -> Box<dyn Link> {
            match node {
                FanNode::Leaf(site) => {
                    Box::new(LocalLink::new(counting_site(*site), meter.clone()))
                }
                FanNode::Node(children) => {
                    let mut agg = Aggregator::new();
                    for child in children {
                        // Child links live inside the aggregator process:
                        // their traffic never crosses the root link, so it
                        // gets a private meter.
                        let child_link = link_for(child, &BandwidthMeter::new());
                        match child {
                            FanNode::Leaf(site) => agg.push_leaf(*site, child_link),
                            FanNode::Node(_) => agg.push_group(child.members(), child_link),
                        }
                    }
                    Box::new(LocalLink::new(agg, meter.clone()))
                }
            }
        }
        plan.roots().iter().map(|node| link_for(node, meter)).collect()
    }

    fn feedback() -> Message {
        use dsud_uncertain::{Probability, TupleId, UncertainTuple};
        let t =
            UncertainTuple::new(TupleId::new(0, 0), vec![1.0, 2.0], Probability::new(0.5).unwrap())
                .unwrap();
        Message::Feedback(crate::TupleMsg::new(&t, 0.25))
    }

    #[test]
    fn plans_have_the_advertised_shapes() {
        let flat = FanPlan::flat(8);
        assert_eq!((flat.depth(), flat.root_fanout(), flat.sites()), (0, 8, 8));
        assert!(flat.is_flat());

        // m <= fanout degenerates to flat.
        assert!(FanPlan::tree(4, 4).is_flat());

        // tree:4 at m=8 → two aggregators of four sites each.
        let two = FanPlan::tree(8, 4);
        assert_eq!((two.depth(), two.root_fanout()), (1, 2));
        assert_eq!(two.groups(), vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);

        // tree:4 at m=64 → two aggregation layers, root holds 4 links.
        let deep = FanPlan::tree(64, 4);
        assert_eq!((deep.depth(), deep.root_fanout()), (2, 4));
        let members: Vec<u32> = deep.groups().concat();
        assert_eq!(members, (0..64).collect::<Vec<u32>>());

        // auto at m=64 → one √m layer: 8 groups of 8.
        let auto = FanPlan::sqrt_auto(64);
        assert_eq!((auto.depth(), auto.root_fanout()), (1, 8));
        assert!(auto.groups().iter().all(|g| g.len() == 8));

        // Ragged division keeps every site exactly once, ascending.
        let ragged = FanPlan::tree(13, 4);
        assert_eq!(ragged.groups().concat(), (0..13).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "merges nothing")]
    fn degenerate_fanout_panics() {
        let _ = FanPlan::tree(8, 1);
    }

    /// The heart of the tentpole: a tree fan-out must produce the exact
    /// flat transcript for broadcast, scatter, and per-site calls — same
    /// replies, same ascending order, with stateful sites proving each
    /// request was delivered exactly once.
    #[test]
    fn tree_fanout_matches_flat_transcripts() {
        let transcript = |plan: &FanPlan| {
            let meter = BandwidthMeter::new();
            let mut links = build_links(plan, &meter);
            let routes = Routes::new(plan.clone());
            let mut fan = Fanout::tree(&mut links, &routes, Recorder::disabled());
            assert_eq!(fan.len(), 11);
            let mut log = Vec::new();
            log.extend(fan.broadcast(|_| true, &feedback()));
            log.extend(fan.broadcast(|site| site % 2 == 0, &feedback()));
            log.extend(fan.scatter(vec![
                (7, feedback()),
                (0, feedback()),
                (10, feedback()),
                (3, feedback()),
            ]));
            log.push((5, fan.call(5, feedback())));
            log.push((5, fan.call(5, feedback())));
            (log, meter.snapshot().total().messages)
        };
        let (flat_log, flat_frames) = transcript(&FanPlan::flat(11));
        for plan in [FanPlan::tree(11, 2), FanPlan::tree(11, 4), FanPlan::sqrt_auto(11)] {
            let (log, frames) = transcript(&plan);
            assert_eq!(log, flat_log, "plan {plan:?}");
            assert!(
                frames < flat_frames,
                "plan {plan:?} must cut root-link frames ({frames} vs flat {flat_frames})"
            );
        }
    }

    /// Pipelined single-site sends interleaved with group broadcasts on
    /// the same physical link: the FIFO drain must pair every op with its
    /// own reply even when completions come in a different order. The flat
    /// reference completes its sends *before* broadcasting (a flat link
    /// cannot carry a broadcast over an outstanding ticket — riding that
    /// out is exactly what the tree FIFO adds), but the per-site delivery
    /// order is identical, so the transcripts must match.
    #[test]
    fn pipelined_sends_survive_interleaved_broadcasts() {
        let reference = {
            let meter = BandwidthMeter::new();
            let plan = FanPlan::flat(4);
            let mut links = build_links(&plan, &meter);
            let routes = Routes::new(plan.clone());
            let mut fan = Fanout::tree(&mut links, &routes, Recorder::disabled());
            let t2 = fan.send(2, feedback()).unwrap();
            let t0 = fan.send(0, feedback()).unwrap();
            let r0 = fan.complete(0, t0).unwrap();
            let r2 = fan.complete(2, t2).unwrap();
            let bcast = fan.broadcast(|_| true, &feedback());
            (bcast, r0, r2)
        };
        let meter = BandwidthMeter::new();
        let plan = FanPlan::tree(4, 2);
        let mut links = build_links(&plan, &meter);
        let routes = Routes::new(plan.clone());
        let mut fan = Fanout::tree(&mut links, &routes, Recorder::disabled());
        // Two in-flight ops on the two groups, then a broadcast that rides
        // the same physical links, then out-of-order completion.
        let t2 = fan.send(2, feedback()).unwrap();
        let t0 = fan.send(0, feedback()).unwrap();
        let bcast = fan.broadcast(|_| true, &feedback());
        let r0 = fan.complete(0, t0).unwrap();
        let r2 = fan.complete(2, t2).unwrap();
        assert_eq!((bcast, r0, r2), reference);
    }

    /// A dead group link fans its error out to every member site, in
    /// reply position — the same shape a flat run reports per site.
    #[test]
    fn group_link_failure_covers_exactly_its_subtree() {
        let plan = FanPlan::tree(8, 4);
        let meter = BandwidthMeter::new();
        let mut links = build_links(&plan, &meter);
        // Replace group 1's link (sites 4..8) with one that drops
        // everything.
        links[1] = Box::new(ChaosLink::new(
            LocalLink::new(counting_site(99), BandwidthMeter::new()),
            FaultPlan::quiet().window(1, u64::MAX, FaultKind::Disconnect),
        ));
        let routes = Routes::new(plan.clone());
        let mut fan = Fanout::tree(&mut links, &routes, Recorder::disabled());
        let replies = fan.broadcast(|_| true, &feedback());
        assert_eq!(replies.len(), 8);
        for (site, reply) in replies {
            if site < 4 {
                assert!(reply.is_ok(), "site {site} is healthy");
            } else {
                assert_eq!(reply, Err(LinkError::Disconnected), "site {site} rides the dead link");
            }
        }
    }

    /// Root-side counters: merged frames count the deliveries the root
    /// link did *not* carry; fold ops count per-site replies folded out of
    /// aggregate frames.
    #[test]
    fn merge_counters_account_for_saved_frames() {
        let recorder = Recorder::enabled();
        let plan = FanPlan::tree(8, 4);
        let meter = BandwidthMeter::new();
        let mut links = build_links(&plan, &meter);
        let routes = Routes::new(plan.clone());
        let mut fan = Fanout::tree(&mut links, &routes, recorder.clone());
        fan.broadcast(|_| true, &feedback());
        // 8 logical deliveries over 2 root frames: 6 merged away.
        assert_eq!(recorder.counter(Counter::AggMergedFrames), 6);
        assert_eq!(recorder.counter(Counter::AggFoldOps), 8);
        let _ = fan.call(3, feedback());
        assert_eq!(recorder.counter(Counter::AggMergedFrames), 6, "single-site ops merge nothing");
        assert_eq!(recorder.counter(Counter::AggFoldOps), 9);
    }

    /// Session frames: a Tagged aggregate frame is unwrapped, children see
    /// re-tagged frames with the same query id, and the merged reply goes
    /// up plain.
    #[test]
    fn aggregator_retags_session_frames_per_child() {
        let plan = FanPlan::tree(4, 2);
        let meter = BandwidthMeter::new();
        let mut links = build_links(&plan, &meter);
        let frame = Message::Tagged {
            query_id: 7,
            inner: Box::new(Message::AggBroadcast {
                sites: vec![0, 1],
                inner: Box::new(feedback()),
            }),
        };
        let reply = links[0].call(frame).unwrap();
        match reply {
            Message::AggReplies { replies } => {
                assert_eq!(replies.len(), 2);
                for (expected_site, (site, entry)) in [0u32, 1].into_iter().zip(replies) {
                    assert_eq!(site, expected_site);
                    match entry.into_result().unwrap() {
                        // counting_site folds the query id into the reply:
                        // proof the tag reached the site.
                        Message::SurvivalReply { survival, .. } => {
                            assert_eq!(survival, (7_000_000 + u64::from(site) * 1000 + 1) as f64);
                        }
                        other => panic!("unexpected site reply {other:?}"),
                    }
                }
            }
            other => panic!("expected merged replies, got {other:?}"),
        }
    }

    #[test]
    fn aggregator_self_acks_health_probes_and_forwards_release() {
        let plan = FanPlan::tree(4, 2);
        let meter = BandwidthMeter::new();
        let mut links = build_links(&plan, &meter);
        assert_eq!(
            links[0].call(Message::HealthProbe { nonce: 42 }).unwrap(),
            Message::HealthAck { nonce: 42 }
        );
        assert_eq!(
            links[0]
                .call(Message::Tagged { query_id: 3, inner: Box::new(Message::Release) })
                .unwrap(),
            Message::Ack
        );
        // Unexpected plain traffic is rejected, not crashed on.
        assert_eq!(links[0].call(Message::RequestNext).unwrap(), Message::DecodeError);
    }

    /// The aggregator works over threaded transports exactly as inline:
    /// the worker thread drives `handle_frame`, so aggregate frames round-
    /// trip through their wire encoding.
    #[test]
    fn aggregator_round_trips_over_channel_transport() {
        let meter = BandwidthMeter::new();
        let mut agg = Aggregator::new();
        for site in 0..3u32 {
            agg.push_leaf(
                site,
                Box::new(ChannelLink::spawn(counting_site(site), BandwidthMeter::new())),
            );
        }
        let mut link: Box<dyn Link> = Box::new(ChannelLink::spawn(agg, meter.clone()));
        let reply = link
            .call(Message::AggBroadcast { sites: vec![0, 1, 2], inner: Box::new(feedback()) })
            .unwrap();
        match reply {
            Message::AggReplies { replies } => {
                let sites: Vec<u32> = replies.iter().map(|(s, _)| *s).collect();
                assert_eq!(sites, vec![0, 1, 2]);
            }
            other => panic!("expected merged replies, got {other:?}"),
        }
    }
}
