//! A site's pending local-skyline candidates for one query, and the box
//! index that finds the ones a feedback tuple dominates.
//!
//! Local-Pruning (Section 5.1) tests every foreign feedback tuple against
//! the pending candidates, and almost no test is a hit. [`PendingSet`]
//! keeps the candidates in upload order and, from the first feedback on,
//! a [`BoxIndex`] over them: candidates packed into boxes of [`RUN`]
//! entries, boxes into groups of [`RUN`] boxes, each with an upper corner
//! `U` on the query's mask. A feedback tuple `t` opens only the boxes with
//! `t ≤ U` on every mask dimension; that is exact, because `t ≺ c` implies
//! `t_d ≤ c_d ≤ U_d`. Hits are applied in ascending upload order, so every
//! discount, prune count and the order of the pruned list are those of a
//! scan over the whole queue.

use dsud_uncertain::{dominates, SubspaceMask, TupleId, UncertainTuple};

/// Entries per box, and boxes per group, of a [`BoxIndex`].
const RUN: usize = 8;

#[derive(Debug)]
pub(crate) struct PendingCandidate {
    pub(crate) tuple: UncertainTuple,
    pub(crate) local_prob: f64,
    /// Per-feedback discounts: each foreign feedback tuple that dominates
    /// this candidate contributes `(id, 1 − P(t))`. The product is the
    /// upper-bound discount on the candidate's global probability used by
    /// the Local-Pruning phase.
    pub(crate) discounted_by: Vec<(TupleId, f64)>,
}

impl PendingCandidate {
    fn discount(&self) -> f64 {
        self.discounted_by.iter().map(|(_, f)| f).product()
    }

    fn bound(&self) -> f64 {
        self.local_prob * self.discount()
    }

    /// Removes a deleted feedback tuple's factor; returns whether the
    /// candidate's bound crossed back over `q`.
    pub(crate) fn forget(&mut self, id: TupleId, q: f64) -> bool {
        let before = self.bound();
        self.discounted_by.retain(|(d, _)| *d != id);
        before < q && self.bound() >= q
    }
}

/// The candidates of one query not yet uploaded or pruned, in upload
/// order (descending local probability).
#[derive(Debug)]
pub(crate) struct PendingSet {
    /// Every candidate of the query at its upload position; a popped or
    /// pruned candidate leaves a tombstone (`None`).
    slots: Vec<Option<PendingCandidate>>,
    /// Upload position of the next candidate to pop; no slot before it
    /// is live.
    head: usize,
    /// Number of live slots.
    live: usize,
    /// Built at the first feedback, so Start's reply never waits on it,
    /// and rebuilt over the live slots as they thin out.
    index: Option<BoxIndex>,
    /// Finds hits with the plain scan over the queue instead of the index:
    /// the reference the index is tested against.
    #[cfg(test)]
    pub(crate) reference: bool,
}

impl PendingSet {
    pub(crate) fn new(candidates: impl IntoIterator<Item = PendingCandidate>) -> Self {
        let slots: Vec<_> = candidates.into_iter().map(Some).collect();
        PendingSet {
            live: slots.len(),
            slots,
            head: 0,
            index: None,
            #[cfg(test)]
            reference: false,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn pop_front(&mut self) -> Option<PendingCandidate> {
        while let Some(slot) = self.slots.get_mut(self.head) {
            self.head += 1;
            if let Some(c) = slot.take() {
                self.live -= 1;
                return Some(c);
            }
        }
        None
    }

    /// Local-Pruning for one foreign feedback tuple `(id, values)` with
    /// discount `factor = 1 − P(t)`: every live candidate it dominates on
    /// `mask` takes the factor, and those whose bound falls below `q` move
    /// to `pruned`, in upload order. Returns how many moved.
    pub(crate) fn prune(
        &mut self,
        id: TupleId,
        factor: f64,
        values: &[f64],
        mask: SubspaceMask,
        q: f64,
        pruned: &mut Vec<PendingCandidate>,
    ) -> u64 {
        if self.live == 0 {
            return 0;
        }
        #[cfg(test)]
        if self.reference {
            return self.prune_by_scan(id, factor, values, mask, q, pruned);
        }
        let mut index = self.index.take().unwrap_or_else(|| BoxIndex::new(mask));
        // Built at the first feedback, and again once half of its entries
        // are tombstones: a search never walks more dead entries than live
        // ones, and each rebuild at most halves the set, so all rebuilds
        // together cost one build.
        if index.pos.is_empty() || index.pos.len() > 2 * self.live {
            index.build(&self.slots, self.head, self.live);
        }
        index.find_hits(values, &self.slots);
        let mut count = 0;
        for &p in &index.hits {
            count += u64::from(self.hit(p, id, factor, q, pruned));
        }
        self.index = Some(index);
        count
    }

    /// The reference for [`PendingSet::prune`]: `dominates_in` against
    /// every live candidate, in upload order, filing each hit itself.
    #[cfg(test)]
    fn prune_by_scan(
        &mut self,
        id: TupleId,
        factor: f64,
        values: &[f64],
        mask: SubspaceMask,
        q: f64,
        pruned: &mut Vec<PendingCandidate>,
    ) -> u64 {
        let mut count = 0;
        for slot in &mut self.slots[self.head..] {
            let Some(c) = slot else { continue };
            if dsud_uncertain::dominates_in(values, c.tuple.values(), mask) {
                c.discounted_by.push((id, factor));
                if c.bound() < q {
                    count += 1;
                    pruned.extend(slot.take());
                    self.live -= 1;
                }
            }
        }
        count
    }

    /// Files one feedback hit on the live candidate at upload position
    /// `p`; returns whether it was pruned.
    fn hit(
        &mut self,
        p: usize,
        id: TupleId,
        factor: f64,
        q: f64,
        pruned: &mut Vec<PendingCandidate>,
    ) -> bool {
        let slot = &mut self.slots[p];
        let c = slot.as_mut().expect("hits are live candidates");
        c.discounted_by.push((id, factor));
        if c.bound() < q {
            pruned.extend(slot.take());
            self.live -= 1;
            return true;
        }
        false
    }
}

/// A two-level packed box index over the candidates that were live when
/// it was built. Tombstones stay indexed: a box's corner still bounds its
/// live entries, and an entry whose slot is empty is no hit.
#[derive(Debug)]
struct BoxIndex {
    /// The query mask's dimensions, ascending.
    dims: Vec<usize>,
    /// Upload position of each entry, in packed order.
    pos: Vec<usize>,
    /// Mask-projected coordinates, `dims.len()` per entry, in packed order.
    coords: Vec<f64>,
    /// Upper corner of each run of [`RUN`] entries, `dims.len()` per box.
    boxes: Vec<f64>,
    /// Upper corner of each run of [`RUN`] boxes, `dims.len()` per group.
    groups: Vec<f64>,
    /// The feedback tuple's mask-projected coordinates.
    probe: Vec<f64>,
    /// Upload positions of the last feedback's hits, ascending.
    hits: Vec<usize>,
}

impl BoxIndex {
    /// An index for `mask` that holds nothing yet.
    fn new(mask: SubspaceMask) -> Self {
        BoxIndex {
            dims: mask.dims().collect(),
            pos: Vec::new(),
            coords: Vec::new(),
            boxes: Vec::new(),
            groups: Vec::new(),
            probe: Vec::new(),
            hits: Vec::new(),
        }
    }

    /// Indexes the `live` live slots from `head` on, in place of whatever
    /// the index held (a rebuild reuses its buffers), packed
    /// sort-tile-recursive: slabs on the first mask dimension, slabs of
    /// those on the next, and so on, so that consecutive entries lie
    /// close on every dimension.
    fn build(&mut self, slots: &[Option<PendingCandidate>], head: usize, live: usize) {
        let BoxIndex { dims, pos, coords, boxes, groups, .. } = self;
        let k = dims.len();
        let values =
            |p: usize| slots[p].as_ref().expect("only live slots are indexed").tuple.values();
        pos.clear();
        pos.reserve(live);
        pos.extend((head..slots.len()).filter(|&p| slots[p].is_some()));
        pack(pos, &|p, j| values(p)[dims[j]], k, 0);
        coords.clear();
        coords.reserve(live * k);
        coords.extend(pos.iter().flat_map(|&p| dims.iter().map(move |&d| values(p)[d])));
        upper_corners(boxes, pos.len(), k, |e, j| coords[e * k + j]);
        upper_corners(groups, pos.len().div_ceil(RUN), k, |b, j| boxes[b * k + j]);
    }

    /// Fills `hits` with the upload positions of the live entries that
    /// `values` dominates on the mask, ascending.
    fn find_hits(&mut self, values: &[f64], slots: &[Option<PendingCandidate>]) {
        self.hits.clear();
        // `dominates_in` reads the mask's dimensions in ascending order and
        // stops at the first one past the end of either tuple; candidates
        // have them all, so the tests read the dimensions `values` has.
        self.probe.clear();
        self.probe.extend(self.dims.iter().take_while(|&&d| d < values.len()).map(|&d| values[d]));
        let (k, kt, probe) = (self.dims.len(), self.probe.len(), &self.probe[..]);
        // `t_d > U_d` on one dimension rules out the whole box; a NaN
        // coordinate never does, as it fails no single entry either.
        let closed = |upper: &[f64]| probe.iter().zip(upper).any(|(t, u)| t > u);
        let n = self.pos.len();
        for g in 0..n.div_ceil(RUN * RUN) {
            if closed(&self.groups[g * k..(g + 1) * k]) {
                continue;
            }
            for b in g * RUN..((g + 1) * RUN).min(n.div_ceil(RUN)) {
                if closed(&self.boxes[b * k..(b + 1) * k]) {
                    continue;
                }
                for e in b * RUN..((b + 1) * RUN).min(n) {
                    let p = self.pos[e];
                    if dominates(probe, &self.coords[e * k..e * k + kt]) && slots[p].is_some() {
                        self.hits.push(p);
                    }
                }
            }
        }
        self.hits.sort_unstable();
    }
}

/// Sort-tile-recursive packing of the upload positions `pos` from mask
/// dimension `j` on; `coord(p, j)` is the candidate at `p` on the `j`-th
/// mask dimension. Ties fall back to the position, so the packing is
/// deterministic.
fn pack(pos: &mut [usize], coord: &impl Fn(usize, usize) -> f64, k: usize, j: usize) {
    if j == k {
        return;
    }
    pos.sort_unstable_by(|&a, &b| coord(a, j).total_cmp(&coord(b, j)).then(a.cmp(&b)));
    if j + 1 == k || pos.len() <= RUN {
        return;
    }
    let runs = pos.len().div_ceil(RUN);
    let slabs = (runs as f64).powf(1.0 / (k - j) as f64).ceil() as usize;
    for slab in pos.chunks_mut(runs.div_ceil(slabs.max(1)) * RUN) {
        pack(slab, coord, k, j + 1);
    }
}

/// Fills `corners` with the coordinate-wise maximum of each run of
/// [`RUN`] of `n` points, `k` values per run; `coord(i, j)` is point `i`'s
/// `j`-th value.
fn upper_corners(corners: &mut Vec<f64>, n: usize, k: usize, coord: impl Fn(usize, usize) -> f64) {
    corners.clear();
    for start in (0..n).step_by(RUN) {
        let run = start..(start + RUN).min(n);
        corners.extend(
            (0..k).map(|j| run.clone().map(|i| coord(i, j)).fold(f64::NEG_INFINITY, f64::max)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_corners_bound_each_run() {
        let points: Vec<[f64; 2]> = (0..20).map(|i| [i as f64, (20 - i) as f64]).collect();
        let mut corners = vec![-1.0; 9];
        upper_corners(&mut corners, points.len(), 2, |i, j| points[i][j]);
        assert_eq!(corners, vec![7.0, 20.0, 15.0, 12.0, 19.0, 4.0]);
    }

    #[test]
    fn packing_keeps_every_entry_once() {
        let coord = |p: usize, j: usize| ((p * 3 + j) * 37 % 11) as f64;
        let mut pos: Vec<usize> = (0..100).collect();
        pack(&mut pos, &coord, 3, 0);
        let mut seen = pos.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<usize>>());
    }
}
