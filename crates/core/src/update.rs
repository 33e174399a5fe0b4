//! Continuous skyline maintenance under updates (paper Section 5.4).
//!
//! After the initial global skyline `SKY(H)` has been computed, local
//! databases keep changing. Two strategies are implemented:
//!
//! * **Naive** — apply updates locally and re-run e-DSUD from scratch
//!   whenever fresh results are needed;
//! * **Incremental** — replicate `SKY(H)` at every site so each site can
//!   decide *locally* whether an update can affect the global result, and
//!   repair only what changed:
//!   * an **insert** of `t` is purely local unless `t`'s own local skyline
//!     probability reaches `q` (it may be a new member) or `t` dominates a
//!     replica member (whose probability shrinks by `(1 − P(t))` and may
//!     fall below `q`);
//!   * a **delete** of `t` raises the probability of every tuple `t`
//!     dominated, so the server re-evaluates exactly `t`'s dominance
//!     region (a [`dsud_net::Message::RegionQuery`] per site) and restores
//!     member probabilities by dividing the `(1 − P(t))` factor back out.
//!
//! Deviation from the paper, documented in DESIGN.md: the paper treats a
//! deletion of a non-member, non-representative tuple as purely local,
//! which can miss promotions of tuples the deleted one was suppressing.
//! We always notify on delete (one tuple) and run the region re-evaluation,
//! keeping the incremental result *exactly* equal to a from-scratch
//! recomputation — which the test suite verifies.

use serde::{Deserialize, Serialize};

use dsud_net::{BandwidthMeter, Fanout, Message, TupleMsg};
use dsud_uncertain::{dominates_in, SkylineEntry, SubspaceMask, UncertainTuple};

use crate::cluster::expect_survival;
use crate::{edsud, Error, QueryConfig, QueryOutcome, WireFormat};

/// One update at a local site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UpdateOp {
    /// Insert the tuple at its home site.
    Insert(UncertainTuple),
    /// Delete the tuple from its home site.
    Delete(UncertainTuple),
}

impl UpdateOp {
    /// Home site of the update.
    pub fn site(&self) -> u32 {
        match self {
            UpdateOp::Insert(t) | UpdateOp::Delete(t) => t.id().site.0,
        }
    }
}

/// A current member of `SKY(H)` with its exact global probability.
#[derive(Debug, Clone)]
struct Member {
    msg: TupleMsg,
    prob: f64,
}

/// Server-side state of the incremental maintenance protocol.
#[derive(Debug)]
pub struct Maintainer {
    /// The maintained query: its threshold, bound mode, and the execution
    /// settings of every full e-DSUD run and bulk replica broadcast.
    config: QueryConfig,
    mask: SubspaceMask,
    members: Vec<Member>,
    /// Tuple ids currently present in the site replicas. A superset of the
    /// member ids: evictions leave replicas stale on purpose (sound, see
    /// `handle_insert`), but *deletions* of replicated tuples must be
    /// broadcast or the sites would reason about tuples that no longer
    /// exist.
    replicated: std::collections::HashSet<dsud_uncertain::TupleId>,
    /// Candidates the server has already evaluated (members or not): their
    /// existential probabilities are confirmed dominator factors that
    /// pre-filter later evaluations for free. Bounded FIFO.
    seen: std::collections::VecDeque<TupleMsg>,
}

/// Upper bound on the evaluated-candidate cache.
const SEEN_CAP: usize = 4096;

impl Maintainer {
    /// Runs the initial e-DSUD query and replicates `SKY(H)` to every site.
    ///
    /// `mask` is `config`'s resolved subspace, as for [`edsud::run`]. The
    /// config's wire layout also carries the bulk replica broadcasts (a
    /// pure transport choice; per-tuple maintenance messages always use the
    /// legacy encoding). The maintained skyline is always the complete
    /// answer, so the config's `limit` and `deadline_ms` are not applied.
    ///
    /// Returns the maintainer plus the bootstrap query outcome.
    ///
    /// Every maintenance entry point reaches the sites through `fan`
    /// (see [`crate::Cluster::fanout`]), so it works on any topology.
    ///
    /// # Errors
    ///
    /// Propagates query failures ([`Error::InvalidThreshold`],
    /// [`Error::ProtocolViolation`]).
    pub fn bootstrap(
        fan: &mut Fanout<'_>,
        meter: &BandwidthMeter,
        mask: SubspaceMask,
        config: &QueryConfig,
    ) -> Result<(Self, QueryOutcome), Error> {
        let config = QueryConfig { limit: None, deadline_ms: None, ..*config };
        let outcome = edsud::run_on(fan, meter, mask, &config, &mut |_, _| {})?;
        let members: Vec<Member> = outcome
            .skyline
            .iter()
            .map(|e| Member { msg: TupleMsg::new(&e.tuple, e.probability), prob: e.probability })
            .collect();
        let replica: Vec<TupleMsg> = members.iter().map(|m| m.msg.clone()).collect();
        sync_replicas(fan, &replica, &config)?;
        let replicated = replica.iter().map(|m| m.id).collect();
        let seen = replica.iter().cloned().collect();
        Ok((Maintainer { config, mask, members, replicated, seen }, outcome))
    }

    /// The maintained global skyline, sorted by tuple id.
    pub fn skyline(&self) -> Vec<SkylineEntry> {
        let mut out: Vec<SkylineEntry> = self
            .members
            .iter()
            .map(|m| SkylineEntry { tuple: m.msg.to_tuple(), probability: m.prob })
            .collect();
        out.sort_by_key(|e| e.tuple.id());
        out
    }

    /// Applies one update incrementally.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProtocolViolation`] if a site misbehaves.
    pub fn apply_incremental(&mut self, fan: &mut Fanout<'_>, op: &UpdateOp) -> Result<(), Error> {
        match inject(fan, op)? {
            Message::Ack => Ok(()), // purely local
            Message::NotifyInsert(t) => self.handle_insert(fan, t),
            Message::NotifyDelete(t) => self.handle_delete(fan, t),
            _ => Err(Error::ProtocolViolation {
                site: op.site(),
                what: "unexpected update notification",
            }),
        }
    }

    /// Applies one update without incremental repair (the naive strategy's
    /// first half): the site's tree changes, the notification is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SiteFailed`] if the link fails.
    pub fn apply_local_only(fan: &mut Fanout<'_>, op: &UpdateOp) -> Result<(), Error> {
        inject(fan, op).map(drop)
    }

    /// The naive strategy's second half: recompute `SKY(H)` from scratch
    /// with e-DSUD and resynchronize the replicas.
    ///
    /// # Errors
    ///
    /// Propagates query failures.
    pub fn refresh_naive(
        &mut self,
        fan: &mut Fanout<'_>,
        meter: &BandwidthMeter,
    ) -> Result<QueryOutcome, Error> {
        let outcome = edsud::run_on(fan, meter, self.mask, &self.config, &mut |_, _| {})?;
        self.members = outcome
            .skyline
            .iter()
            .map(|e| Member { msg: TupleMsg::new(&e.tuple, e.probability), prob: e.probability })
            .collect();
        let replica: Vec<TupleMsg> = self.members.iter().map(|m| m.msg.clone()).collect();
        sync_replicas(fan, &replica, &self.config)?;
        self.replicated = replica.iter().map(|m| m.id).collect();
        self.seen = replica.into_iter().collect();
        Ok(outcome)
    }

    fn handle_insert(&mut self, fan: &mut Fanout<'_>, t: TupleMsg) -> Result<(), Error> {
        // Discount members the new tuple dominates; evict those that sink
        // below the threshold. Evicted tuples still *exist* in the data, so
        // the site replicas are deliberately left stale: a superset replica
        // only makes the sites' update filters more conservative (their
        // bounds multiply factors of real tuples), never unsound — and it
        // saves an m-tuple broadcast per eviction.
        let factor = 1.0 - t.prob;
        self.members.retain_mut(|m| {
            if dominates_in(&t.values, &m.msg.values, self.mask) {
                m.prob *= factor;
                m.msg.local_prob = m.prob;
                if m.prob < self.config.q {
                    return false;
                }
            }
            true
        });

        // The new tuple itself may be a member; pre-filter with confirmed
        // dominators before paying an (m − 1)-tuple evaluation.
        if t.local_prob >= self.config.q && self.seen_bound(&t) >= self.config.q {
            let global = self.evaluate(fan, &t)?;
            if global >= self.config.q {
                self.add_member(fan, t.clone(), global)?;
            }
            self.remember(t);
        }
        Ok(())
    }

    /// Sound upper bound on a candidate's global probability from the
    /// evaluated-candidate cache: every cached foreign tuple dominating it
    /// is a confirmed dominator contributing `(1 − P)`.
    ///
    /// Under [`crate::UpdatePolicy::Exact`] the cache is kept free of
    /// deleted tuples, so the bound is exact-sound; under
    /// [`crate::UpdatePolicy::Replica`] phantom entries can only cause
    /// extra rejections — the same incompleteness direction that policy
    /// already accepts.
    fn seen_bound(&self, t: &TupleMsg) -> f64 {
        let mut bound = t.local_prob;
        for c in &self.seen {
            if c.id != t.id
                && c.id.site != t.id.site
                && dominates_in(&c.values, &t.values, self.mask)
            {
                bound *= 1.0 - c.prob;
                if bound < self.config.q {
                    break;
                }
            }
        }
        bound
    }

    fn remember(&mut self, t: TupleMsg) {
        // One entry per tuple: a duplicate would apply its survival factor
        // twice in `seen_bound`, breaking the upper-bound property.
        self.seen.retain(|x| x.id != t.id);
        if self.seen.len() >= SEEN_CAP {
            self.seen.pop_front();
        }
        self.seen.push_back(t);
    }

    fn handle_delete(&mut self, fan: &mut Fanout<'_>, t: TupleMsg) -> Result<(), Error> {
        // Drop the tuple itself if it was a member, and purge it from the
        // site replicas if it still sits there (it may be an
        // evicted-but-still-replicated tuple).
        if let Some(pos) = self.members.iter().position(|m| m.msg.id == t.id) {
            self.members.remove(pos);
        }
        if self.replicated.remove(&t.id) {
            broadcast_all(fan, Message::ReplicaRemove(t.clone()))?;
        }
        self.seen.retain(|c| c.id != t.id);

        // Restore the (1 − P(t)) factor of members the tuple dominated.
        // A member's probability is strictly positive, so the factor is too
        // and the division is well defined.
        let factor = 1.0 - t.prob;
        for m in &mut self.members {
            if dominates_in(&t.values, &m.msg.values, self.mask) {
                m.prob /= factor;
                m.msg.local_prob = m.prob;
            }
        }

        // Re-evaluate the dominance region: only tuples the deleted one
        // dominated can have gained probability. All sites scan their
        // regions concurrently.
        let mut candidates: Vec<TupleMsg> = Vec::new();
        for (x, reply) in fan.broadcast(|_| true, &Message::RegionQuery(t.clone())) {
            match reply.map_err(|e| site_failed(x, e))? {
                Message::RegionReply(mut tuples) => candidates.append(&mut tuples),
                Message::RegionReplyC(block) => candidates.extend(block.to_msgs()),
                _ => {
                    return Err(Error::ProtocolViolation {
                        site: x as u32,
                        what: "expected RegionReply",
                    })
                }
            }
        }
        for c in candidates {
            if self.members.iter().any(|m| m.msg.id == c.id) {
                continue;
            }
            if self.seen_bound(&c) < self.config.q {
                continue;
            }
            let global = self.evaluate(fan, &c)?;
            if global >= self.config.q {
                self.add_member(fan, c.clone(), global)?;
            }
            self.remember(c);
        }
        Ok(())
    }

    /// Exact global probability of a candidate: its fresh local probability
    /// times the survival products of all other sites (Lemma 1), gathered
    /// with a concurrent fan-out.
    fn evaluate(&self, fan: &mut Fanout<'_>, t: &TupleMsg) -> Result<f64, Error> {
        let mut global = t.local_prob;
        let home = t.id.site.0 as usize;
        for (x, reply) in fan.broadcast(|x| x != home, &Message::Feedback(t.clone())) {
            let (survival, _) = expect_survival(x as u32, reply.map_err(|e| site_failed(x, e))?)?;
            global *= survival;
        }
        Ok(global)
    }

    fn add_member(
        &mut self,
        fan: &mut Fanout<'_>,
        mut msg: TupleMsg,
        global: f64,
    ) -> Result<(), Error> {
        msg.local_prob = global;
        broadcast_all(fan, Message::ReplicaAdd(msg.clone()))?;
        self.replicated.insert(msg.id);
        self.members.push(Member { msg, prob: global });
        Ok(())
    }
}

fn site_failed(site: usize, source: dsud_net::LinkError) -> Error {
    Error::SiteFailed { site: site as u32, source }
}

/// Applies `op` to its home site's tree and returns the site's
/// maintenance notification (`Ack` when the update is purely local).
fn inject(fan: &mut Fanout<'_>, op: &UpdateOp) -> Result<Message, Error> {
    // Every update reaches its site through here — a maintainer's, a
    // served one, a deferred one replayed at rejoin — so this is where the
    // deployment's cover of the site follows it, always a superset of what
    // the site stores: an insert's point goes in before the tuple reaches
    // the site, a deleted tuple's point comes out only once it is gone.
    let home = op.site() as usize;
    match op {
        UpdateOp::Insert(t) => {
            fan.extend_cover(home, t.id(), t.values());
            let msg = Message::InjectInsert(TupleMsg::new(t, 0.0));
            fan.call(home, msg).map_err(|e| site_failed(home, e))
        }
        UpdateOp::Delete(t) => {
            let msg = Message::InjectDelete(TupleMsg::new(t, 0.0));
            let reply = fan.call(home, msg).map_err(|e| site_failed(home, e))?;
            fan.retract_cover(home, t.id(), t.values());
            Ok(reply)
        }
    }
}

/// Maintenance runs under strict semantics: a transport failure anywhere
/// in a replica broadcast aborts the batch, because half-synced replicas
/// would silently desynchronize the sites' update filters.
fn broadcast_all(fan: &mut Fanout<'_>, msg: Message) -> Result<(), Error> {
    for (x, reply) in fan.broadcast(|_| true, &msg) {
        reply.map_err(|e| site_failed(x, e))?;
    }
    Ok(())
}

/// Replicates `replica` to every site in `config`'s wire layout.
fn sync_replicas(
    fan: &mut Fanout<'_>,
    replica: &[TupleMsg],
    config: &QueryConfig,
) -> Result<(), Error> {
    for i in 0..fan.len() {
        let msg = match config.wire {
            WireFormat::Legacy => Message::ReplicaSync(replica.to_vec()),
            WireFormat::Columnar => Message::ReplicaSyncC(dsud_net::TupleBlock::from_msgs(replica)),
        };
        fan.call(i, msg).map_err(|e| site_failed(i, e))?;
    }
    Ok(())
}

/// Convenience entry point used by the Fig. 14 experiment: applies a batch
/// of updates under the chosen strategy and returns the maintained skyline.
///
/// # Errors
///
/// Propagates protocol failures.
pub fn apply_batch(
    maintainer: &mut Maintainer,
    fan: &mut Fanout<'_>,
    meter: &BandwidthMeter,
    ops: &[UpdateOp],
    incremental: bool,
) -> Result<Vec<SkylineEntry>, Error> {
    if incremental {
        for op in ops {
            maintainer.apply_incremental(fan, op)?;
        }
    } else {
        for op in ops {
            Maintainer::apply_local_only(fan, op)?;
        }
        maintainer.refresh_naive(fan, meter)?;
    }
    Ok(maintainer.skyline())
}

// The heavier integration tests for this module (equivalence of both
// strategies against a from-scratch recomputation on random workloads)
// live in `tests/updates_equivalence.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use dsud_uncertain::{Probability, TupleId};

    fn tuple(site: u32, seq: u64, values: Vec<f64>, p: f64) -> UncertainTuple {
        UncertainTuple::new(TupleId::new(site, seq), values, Probability::new(p).unwrap()).unwrap()
    }

    #[test]
    fn update_op_reports_home_site() {
        let t = tuple(3, 0, vec![1.0, 1.0], 0.5);
        assert_eq!(UpdateOp::Insert(t.clone()).site(), 3);
        assert_eq!(UpdateOp::Delete(t).site(), 3);
    }
}
