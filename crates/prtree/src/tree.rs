//! The PR-tree proper (paper Section 6.1, Fig. 5).
//!
//! An arena-allocated R-tree whose entries carry probability summaries
//! (`P1`/`P2` plus the subtree survival product). Construction is either
//! STR bulk loading or incremental insert/delete with quadratic splits —
//! the latter is what the Section 5.4 update maintenance relies on. Query
//! procedures: [`PrTree::survival_product`] (the dominator-window product
//! of Section 6.3, Fig. 6), [`PrTree::dominators`], and range scans; the
//! BBS local-skyline traversal lives in [`crate::bbs`].

use dsud_obs::{Counter, Recorder};
use dsud_uncertain::{ProbeSet, SubspaceMask, TupleId, UncertainTuple};

use crate::node::{Node, NodeBody};
use crate::{Error, Summary};

/// Default node fan-out (the paper's Fig. 5 uses capacity 3 for
/// illustration; real trees use a few dozen).
pub const DEFAULT_MAX_ENTRIES: usize = 32;

/// Tuples per corner of a [`PrTree::dominance_cover`]: a full leaf yields
/// four corners. Shorter runs prove more skips and ship more corners; see
/// EXPERIMENTS.md, "Feedback to drained sites", for how eight was chosen
/// against runs of four and whole leaves.
pub const COVER_RUN: usize = 8;

/// Reusable buffers for [`PrTree::survival_products`], the multi-probe
/// dominator-window traversal.
///
/// One level of buffers is kept per tree depth (the recursion reuses the
/// level of the node it is visiting), so after the first call at a given
/// depth the traversal allocates nothing. The buffers are cleared on
/// entry; reuse never changes results.
#[derive(Debug, Default)]
pub struct MultiProbeScratch {
    /// Probe indices still active at the traversal root.
    roots: Vec<u32>,
    /// Per-depth active sets and child partial products.
    levels: Vec<MultiProbeLevel>,
    /// Nodes visited by the current traversal.
    visited: u64,
}

impl MultiProbeScratch {
    /// Total reserved capacity, in buffer elements, across every internal
    /// buffer.
    ///
    /// This is a steady-state probe for tests and diagnostics: once a
    /// scratch has served a traversal at a given probe count and tree
    /// depth, serving further traversals no larger than that must leave
    /// the footprint unchanged — i.e. the reuse really is allocation-free.
    pub fn footprint(&self) -> usize {
        self.roots.capacity()
            + self.levels.capacity()
            + self.levels.iter().map(|l| l.active.capacity() + l.products.capacity()).sum::<usize>()
    }
}

#[derive(Debug, Default)]
struct MultiProbeLevel {
    /// Probes that must recurse into the child under consideration.
    active: Vec<u32>,
    /// The child's standalone subtree factor per probe.
    products: Vec<f64>,
}

/// A probabilistic R-tree over uncertain tuples.
///
/// Supports STR bulk loading, incremental insertion and deletion (needed by
/// the paper's Section 5.4 update maintenance), dominator-window survival
/// products (Section 6.3), and serves as the substrate for the BBS local
/// skyline procedure (Section 6.2, [`crate::bbs::local_skyline`]).
///
/// Nodes are arena-allocated inside the tree; all structural invariants
/// (summary freshness, entry counts) are maintained on every mutation and
/// checked by `debug_assert`s plus the `check_invariants` test helper.
#[derive(Debug, Clone)]
pub struct PrTree {
    dims: usize,
    max_entries: usize,
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    root: Option<usize>,
    len: usize,
    recorder: Recorder,
}

impl PrTree {
    /// Creates an empty tree of the given dimensionality with the default
    /// node capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimensionality`] if `dims` is zero.
    pub fn new(dims: usize) -> Result<Self, Error> {
        Self::with_capacity(dims, DEFAULT_MAX_ENTRIES)
    }

    /// Creates an empty tree with an explicit node capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimensionality`] for `dims == 0` or
    /// [`Error::InvalidCapacity`] for `max_entries < 2`.
    pub fn with_capacity(dims: usize, max_entries: usize) -> Result<Self, Error> {
        if dims == 0 {
            return Err(Error::InvalidDimensionality(dims));
        }
        if max_entries < 2 {
            return Err(Error::InvalidCapacity(max_entries));
        }
        Ok(PrTree {
            dims,
            max_entries,
            nodes: Vec::new(),
            free: Vec::new(),
            root: None,
            len: 0,
            recorder: Recorder::default(),
        })
    }

    /// Bulk loads a tree from tuples using Sort-Tile-Recursive packing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if any tuple's dimensionality
    /// differs from `dims`.
    pub fn bulk_load(dims: usize, tuples: Vec<UncertainTuple>) -> Result<Self, Error> {
        Self::bulk_load_with(dims, tuples, DEFAULT_MAX_ENTRIES)
    }

    /// Bulk loads with an explicit node capacity.
    ///
    /// # Errors
    ///
    /// Same as [`PrTree::bulk_load`], plus [`Error::InvalidCapacity`].
    pub fn bulk_load_with(
        dims: usize,
        tuples: Vec<UncertainTuple>,
        max_entries: usize,
    ) -> Result<Self, Error> {
        let mut tree = Self::with_capacity(dims, max_entries)?;
        if let Some(bad) = tuples.iter().find(|t| t.dims() != dims) {
            return Err(Error::DimensionMismatch { expected: dims, actual: bad.dims() });
        }
        if tuples.is_empty() {
            return Ok(tree);
        }
        tree.len = tuples.len();

        // STR: recursively tile the points into leaf-sized groups, then
        // build each leaf (columnar batch + summary) on the pool. Arena
        // allocation stays sequential so node indices are deterministic;
        // the group order itself is pool-size independent (the parallel
        // sort is stable and slabs are processed in slab order).
        let groups = str_tiles(tuples, 0, dims, max_entries);
        let built = threadpool::parallel_map_vec(groups, |_, g| {
            let node = Node::leaf(g);
            let summary = node.summary().expect("STR groups are non-empty");
            (node, summary)
        });
        let mut level: Vec<(usize, Summary)> =
            built.into_iter().map(|(node, summary)| (tree.alloc(node), summary)).collect();

        // Pack upper levels from consecutive (already spatially clustered)
        // children until a single root remains.
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(max_entries));
            for chunk in level.chunks(max_entries) {
                let node = Node::internal(chunk.to_vec());
                let summary = node.summary().expect("chunks are non-empty");
                next.push((tree.alloc(node), summary));
            }
            level = next;
        }
        tree.root = Some(level[0].0);
        Ok(tree)
    }

    /// Attaches an observability recorder: BBS traversals over this tree
    /// will count visited nodes, pruned subtrees, and local-skyline sizes
    /// against it. The default recorder is disabled (no-op).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The recorder attached to this tree (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Dimensionality of the indexed space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of tuples stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Aggregate summary of the whole tree, or `None` if empty.
    pub fn summary(&self) -> Option<Summary> {
        self.root.and_then(|r| self.node(r).summary())
    }

    /// Inserts a tuple.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] for a tuple of the wrong
    /// dimensionality, or [`Error::DuplicateId`] if a tuple with the same
    /// id is already stored at the same point.
    pub fn insert(&mut self, tuple: UncertainTuple) -> Result<(), Error> {
        if tuple.dims() != self.dims {
            return Err(Error::DimensionMismatch { expected: self.dims, actual: tuple.dims() });
        }
        if self.get(tuple.id(), tuple.values()).is_some() {
            return Err(Error::DuplicateId);
        }
        match self.root {
            None => {
                let idx = self.alloc(Node::leaf(vec![tuple]));
                self.root = Some(idx);
            }
            Some(root) => {
                if let Some((split_idx, split_summary)) = self.insert_rec(root, tuple) {
                    // Root split: grow the tree by one level.
                    let old_summary = self.node(root).summary().expect("split roots are non-empty");
                    let new_root =
                        Node::internal(vec![(root, old_summary), (split_idx, split_summary)]);
                    let idx = self.alloc(new_root);
                    self.root = Some(idx);
                }
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Removes the tuple with the given id located at `point`.
    ///
    /// Returns the removed tuple, or `None` if no such tuple exists. The
    /// point must match the tuple's stored values (callers in the update
    /// workflow always know the full tuple).
    pub fn remove(&mut self, id: TupleId, point: &[f64]) -> Option<UncertainTuple> {
        let root = self.root?;
        let removed = self.remove_rec(root, id, point)?;
        self.len -= 1;
        // Collapse trivial roots.
        while let Some(root) = self.root {
            match &self.node(root).body {
                NodeBody::Leaf(leaf) => {
                    if leaf.is_empty() {
                        self.dealloc(root);
                        self.root = None;
                    }
                    break;
                }
                NodeBody::Internal(children) => match children.len() {
                    0 => {
                        self.dealloc(root);
                        self.root = None;
                        break;
                    }
                    1 => {
                        let only = children[0].0;
                        self.dealloc(root);
                        self.root = Some(only);
                    }
                    _ => break,
                },
            }
        }
        Some(removed)
    }

    /// Looks up a tuple by id and location.
    pub fn get(&self, id: TupleId, point: &[f64]) -> Option<&UncertainTuple> {
        let root = self.root?;
        self.get_rec(root, id, point)
    }

    /// The survival product `∏ (1 − P(t))` over all stored tuples `t` that
    /// strictly dominate `point` on the masked dimensions.
    ///
    /// This is the paper's Section 6.3 window query (Fig. 6): subtrees whose
    /// MBR lies entirely inside the dominator window contribute their
    /// pre-aggregated product; only boundary nodes are opened.
    pub fn survival_product(&self, point: &[f64], mask: SubspaceMask) -> f64 {
        match self.root {
            None => 1.0,
            Some(root) => self.survival_rec(root, point, mask),
        }
    }

    /// `scale × survival_product(point, mask)` when it reaches `q`, else
    /// `None`: a tuple's local skyline probability (`scale = P(t)`) or an
    /// entry's pruning bound (`scale = P2(e)`, `point` its lower corner).
    ///
    /// Every survival product is at most 1, so a `scale` below `q` reads
    /// no window at all. Otherwise the root's children are folded in the
    /// same order as [`PrTree::survival_product`], and the fold stops with
    /// `None` as soon as `scale × partial < q`. Every factor is at most 1
    /// and rounded multiplication is monotone, so `scale × product` never
    /// exceeds `scale × partial`: a point that passes never stops early,
    /// and its value has the bits of the ungated `scale ×
    /// survival_product(point, mask)`. A check below the root would have
    /// to multiply in the final product's own association, `scale ×
    /// (partial_root × (partial_child × …))`, never a re-associated chain;
    /// the check stays at the root, where the partial product *is* that
    /// association.
    pub(crate) fn survival_product_above(
        &self,
        point: &[f64],
        mask: SubspaceMask,
        scale: f64,
        q: f64,
    ) -> Option<f64> {
        if scale < q {
            return None;
        }
        let product = match self.root.map(|root| &self.node(root).body) {
            Some(NodeBody::Internal(children)) => {
                self.fold_children(children, point, mask, |partial| scale * partial < q)?
            }
            _ => self.survival_product(point, mask),
        };
        let p = scale * product;
        (p >= q).then_some(p)
    }

    /// A dominance cover of the stored tuples: the lower corner (per
    /// dimension minimum) of each run of [`COVER_RUN`] consecutive tuples
    /// in each leaf, row-major, `dims()` values per corner. Every stored
    /// tuple is no smaller than its run's corner on any dimension, so a
    /// point that no corner dominates on a subspace has no dominator in
    /// the tree there, and its [`PrTree::survival_product`] is exactly
    /// `1.0`. One pass over the tuples: `O(n·d)`.
    pub fn dominance_cover(&self) -> Vec<f64> {
        let mut corners = Vec::with_capacity(self.len.div_ceil(COVER_RUN) * self.dims);
        let mut stack: Vec<usize> = self.root.into_iter().collect();
        while let Some(idx) = stack.pop() {
            match &self.node(idx).body {
                NodeBody::Leaf(leaf) => {
                    for run in leaf.tuples().chunks(COVER_RUN) {
                        let start = corners.len();
                        corners.extend_from_slice(run[0].values());
                        for t in &run[1..] {
                            for (c, &v) in corners[start..].iter_mut().zip(t.values()) {
                                *c = c.min(v);
                            }
                        }
                    }
                }
                NodeBody::Internal(children) => stack.extend(children.iter().map(|(c, _)| *c)),
            }
        }
        corners
    }

    /// The survival products of `K` probe points in a *single* shared
    /// traversal: each tree node is visited at most once no matter how many
    /// probes need it, and a subtree is skipped only when it is prunable
    /// (outside the dominator window, or fully inside it with its
    /// pre-aggregated product usable) for *every* still-active probe.
    ///
    /// `out` is cleared and filled so that `out[k]` is bit-identical to
    /// `self.survival_product(probes[k], mask)`: per probe, child subtree
    /// factors are multiplied in exactly the same nested order as the
    /// single-probe recursion, and leaf products come from the same
    /// columnar kernel. Batching changes how many nodes are touched, never
    /// what any probe observes.
    ///
    /// `scratch` holds the per-level active sets and partial products; it
    /// is reused across calls so steady-state traversals allocate nothing.
    /// When the tree's recorder is enabled, each visited node bumps
    /// [`Counter::MultiProbeNodeVisits`] once per traversal.
    ///
    /// `probes` is any [`ProbeSet`]: a slice of probe rows, or a flat
    /// row-major [`dsud_uncertain::ProbeRows`] buffer gathered from a
    /// columnar wire frame — the traversal only ever asks for probe `k` as
    /// a row, so the storage shape cannot affect results.
    pub fn survival_products<P: ProbeSet + ?Sized>(
        &self,
        probes: &P,
        mask: SubspaceMask,
        scratch: &mut MultiProbeScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(probes.len(), 1.0);
        let Some(root) = self.root else { return };
        if probes.is_empty() {
            return;
        }
        scratch.visited = 0;
        scratch.roots.clear();
        scratch.roots.extend(0..probes.len() as u32);
        let roots = std::mem::take(&mut scratch.roots);
        self.survival_products_rec(root, probes, &roots, mask, out, scratch, 0);
        scratch.roots = roots;
        if self.recorder.is_enabled() {
            self.recorder.add(Counter::MultiProbeNodeVisits, scratch.visited);
        }
    }

    // One recursion step carries the whole traversal state; bundling it
    // into a struct would only move these fields behind a borrow.
    #[allow(clippy::too_many_arguments)]
    fn survival_products_rec<P: ProbeSet + ?Sized>(
        &self,
        idx: usize,
        probes: &P,
        active: &[u32],
        mask: SubspaceMask,
        out: &mut [f64],
        scratch: &mut MultiProbeScratch,
        depth: usize,
    ) {
        scratch.visited += 1;
        match &self.node(idx).body {
            // Per probe, the leaf product is the same columnar-kernel call
            // the single-probe recursion makes, so it is bit-identical.
            NodeBody::Leaf(leaf) => {
                for &k in active {
                    out[k as usize] = leaf.batch().survival_product(probes.probe(k as usize), mask);
                }
            }
            NodeBody::Internal(children) => {
                for &k in active {
                    out[k as usize] = 1.0;
                }
                if scratch.levels.len() <= depth {
                    scratch.levels.resize_with(depth + 1, MultiProbeLevel::default);
                }
                let mut level = std::mem::take(&mut scratch.levels[depth]);
                for (child, s) in children {
                    level.active.clear();
                    for &k in active {
                        let probe = probes.probe(k as usize);
                        if !s.mbr.may_contain_dominator(probe, mask) {
                            continue;
                        }
                        if s.mbr.fully_dominates(probe, mask) {
                            out[k as usize] *= s.survival;
                        } else {
                            level.active.push(k);
                        }
                    }
                    if !level.active.is_empty() {
                        // The child's subtree factor must be computed as a
                        // standalone nested product (starting at 1.0) and
                        // only then multiplied in — flattening the
                        // accumulation would change rounding.
                        level.products.clear();
                        level.products.resize(probes.len(), 1.0);
                        self.survival_products_rec(
                            *child,
                            probes,
                            &level.active,
                            mask,
                            &mut level.products,
                            scratch,
                            depth + 1,
                        );
                        for &k in &level.active {
                            out[k as usize] *= level.products[k as usize];
                        }
                    }
                }
                scratch.levels[depth] = level;
            }
        }
    }

    /// All stored tuples that strictly dominate `point` on the masked
    /// dimensions (the shaded window of the paper's Fig. 6).
    pub fn dominators(&self, point: &[f64], mask: SubspaceMask) -> Vec<&UncertainTuple> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.dominators_rec(root, point, mask, &mut out);
        }
        out
    }

    /// All stored tuples whose values lie inside the closed box
    /// `[lower, upper]` (componentwise). Complements the dominance-window
    /// queries for general spatial workloads.
    pub fn range_query(&self, lower: &[f64], upper: &[f64]) -> Vec<&UncertainTuple> {
        let mut out = Vec::new();
        let Some(root) = self.root else { return out };
        let mut stack = vec![root];
        while let Some(idx) = stack.pop() {
            match &self.node(idx).body {
                NodeBody::Leaf(leaf) => out.extend(leaf.tuples().iter().filter(|t| {
                    t.values()
                        .iter()
                        .zip(lower.iter().zip(upper))
                        .all(|(&v, (&lo, &hi))| lo <= v && v <= hi)
                })),
                NodeBody::Internal(children) => {
                    for (child, s) in children {
                        let intersects = s
                            .mbr
                            .lower()
                            .iter()
                            .zip(s.mbr.upper())
                            .zip(lower.iter().zip(upper))
                            .all(|((&blo, &bhi), (&lo, &hi))| blo <= hi && bhi >= lo);
                        if intersects {
                            stack.push(*child);
                        }
                    }
                }
            }
        }
        out
    }

    /// Structural statistics: `(height, node_count)`. Height 0 means an
    /// empty tree; a lone leaf has height 1.
    pub fn shape(&self) -> (usize, usize) {
        fn walk(tree: &PrTree, idx: usize) -> (usize, usize) {
            match &tree.node(idx).body {
                NodeBody::Leaf(_) => (1, 1),
                NodeBody::Internal(children) => {
                    let mut height = 0;
                    let mut nodes = 1;
                    for (child, _) in children {
                        let (h, n) = walk(tree, *child);
                        height = height.max(h);
                        nodes += n;
                    }
                    (height + 1, nodes)
                }
            }
        }
        match self.root {
            None => (0, 0),
            Some(root) => walk(self, root),
        }
    }

    /// Iterates over every stored tuple (arbitrary order).
    pub fn iter(&self) -> Iter<'_> {
        Iter { tree: self, stack: self.root.into_iter().collect(), leaf: None }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    pub(crate) fn node(&self, idx: usize) -> &Node {
        self.nodes[idx].as_ref().expect("live node index")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node {
        self.nodes[idx].as_mut().expect("live node index")
    }

    pub(crate) fn root_index(&self) -> Option<usize> {
        self.root
    }

    fn alloc(&mut self, node: Node) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Some(node);
            idx
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    fn dealloc(&mut self, idx: usize) {
        self.nodes[idx] = None;
        self.free.push(idx);
    }

    /// Recursive insert; returns `Some((node, summary))` when this node was
    /// split and the new sibling must be linked into the parent.
    fn insert_rec(&mut self, idx: usize, tuple: UncertainTuple) -> Option<(usize, Summary)> {
        let is_leaf = matches!(self.node(idx).body, NodeBody::Leaf(_));
        if is_leaf {
            let max = self.max_entries;
            let NodeBody::Leaf(leaf) = &mut self.node_mut(idx).body else { unreachable!() };
            leaf.push(tuple);
            if leaf.len() <= max {
                return None;
            }
            // Split: sort on the widest dimension and halve.
            let mut moved = leaf.take_tuples();
            let dim = widest_dim(moved.iter().map(|t| t.values()), self.dims);
            moved.sort_by(|a, b| {
                a.values()[dim].partial_cmp(&b.values()[dim]).expect("finite values")
            });
            let right = moved.split_off(moved.len() / 2);
            let NodeBody::Leaf(leaf) = &mut self.node_mut(idx).body else { unreachable!() };
            leaf.set_tuples(moved);
            let right_node = Node::leaf(right);
            let right_summary = right_node.summary().expect("split halves are non-empty");
            let right_idx = self.alloc(right_node);
            Some((right_idx, right_summary))
        } else {
            // Choose the child whose MBR needs least enlargement.
            let chosen = {
                let NodeBody::Internal(children) = &self.node(idx).body else { unreachable!() };
                let mut best = 0;
                let mut best_cost = f64::INFINITY;
                for (pos, (_, s)) in children.iter().enumerate() {
                    let cost = s.mbr.enlargement_for(tuple.values());
                    if cost < best_cost {
                        best_cost = cost;
                        best = pos;
                    }
                }
                best
            };
            let child_idx = {
                let NodeBody::Internal(children) = &self.node(idx).body else { unreachable!() };
                children[chosen].0
            };
            let split = self.insert_rec(child_idx, tuple);
            // Refresh the chosen child's summary.
            let child_summary = self.node(child_idx).summary().expect("child is non-empty");
            let max = self.max_entries;
            let NodeBody::Internal(children) = &mut self.node_mut(idx).body else { unreachable!() };
            children[chosen].1 = child_summary;
            if let Some(entry) = split {
                children.push(entry);
            }
            if children.len() <= max {
                return None;
            }
            // Split the internal node on the widest dimension of child
            // MBR centers.
            let mut moved = std::mem::take(children);
            let dim = widest_dim(moved.iter().map(|(_, s)| s.mbr.lower()), self.dims);
            moved.sort_by(|a, b| {
                let ca = (a.1.mbr.lower()[dim] + a.1.mbr.upper()[dim]) / 2.0;
                let cb = (b.1.mbr.lower()[dim] + b.1.mbr.upper()[dim]) / 2.0;
                ca.partial_cmp(&cb).expect("finite values")
            });
            let right = moved.split_off(moved.len() / 2);
            let NodeBody::Internal(children) = &mut self.node_mut(idx).body else { unreachable!() };
            *children = moved;
            let right_node = Node::internal(right);
            let right_summary = right_node.summary().expect("split halves are non-empty");
            let right_idx = self.alloc(right_node);
            Some((right_idx, right_summary))
        }
    }

    fn remove_rec(&mut self, idx: usize, id: TupleId, point: &[f64]) -> Option<UncertainTuple> {
        let is_leaf = matches!(self.node(idx).body, NodeBody::Leaf(_));
        if is_leaf {
            let NodeBody::Leaf(leaf) = &mut self.node_mut(idx).body else { unreachable!() };
            let pos = leaf.tuples().iter().position(|t| t.id() == id)?;
            return Some(leaf.swap_remove(pos));
        }
        // Try each child whose MBR contains the point.
        let candidates: Vec<(usize, usize)> = {
            let NodeBody::Internal(children) = &self.node(idx).body else { unreachable!() };
            children
                .iter()
                .enumerate()
                .filter(|(_, (_, s))| s.mbr.contains_point(point))
                .map(|(pos, (child, _))| (pos, *child))
                .collect()
        };
        for (pos, child_idx) in candidates {
            if let Some(removed) = self.remove_rec(child_idx, id, point) {
                match self.node(child_idx).summary() {
                    Some(s) => {
                        let NodeBody::Internal(children) = &mut self.node_mut(idx).body else {
                            unreachable!()
                        };
                        children[pos].1 = s;
                    }
                    None => {
                        // Child became empty: unlink and free it.
                        self.dealloc(child_idx);
                        let NodeBody::Internal(children) = &mut self.node_mut(idx).body else {
                            unreachable!()
                        };
                        children.swap_remove(pos);
                    }
                }
                return Some(removed);
            }
        }
        None
    }

    fn get_rec(&self, idx: usize, id: TupleId, point: &[f64]) -> Option<&UncertainTuple> {
        match &self.node(idx).body {
            NodeBody::Leaf(leaf) => leaf.tuples().iter().find(|t| t.id() == id),
            NodeBody::Internal(children) => children
                .iter()
                .filter(|(_, s)| s.mbr.contains_point(point))
                .find_map(|(child, _)| self.get_rec(*child, id, point)),
        }
    }

    fn survival_rec(&self, idx: usize, point: &[f64], mask: SubspaceMask) -> f64 {
        match &self.node(idx).body {
            // The batch kernel multiplies complements in ascending row
            // order — exactly the order of the scalar filter/product loop
            // it replaced, so leaf products are bit-identical.
            NodeBody::Leaf(leaf) => leaf.batch().survival_product(point, mask),
            NodeBody::Internal(children) => {
                self.fold_children(children, point, mask, |_| false).unwrap_or(1.0)
            }
        }
    }

    /// Folds the dominator-window factors of `children` in entry order,
    /// the one multiplication order of every single-probe product, and
    /// stops with `None` as soon as `doomed(partial)` holds.
    fn fold_children(
        &self,
        children: &[(usize, Summary)],
        point: &[f64],
        mask: SubspaceMask,
        doomed: impl Fn(f64) -> bool,
    ) -> Option<f64> {
        let mut product = 1.0;
        for (child, s) in children {
            if !s.mbr.may_contain_dominator(point, mask) {
                continue;
            }
            if s.mbr.fully_dominates(point, mask) {
                product *= s.survival;
            } else {
                product *= self.survival_rec(*child, point, mask);
            }
            if doomed(product) {
                return None;
            }
        }
        Some(product)
    }

    fn dominators_rec<'a>(
        &'a self,
        idx: usize,
        point: &[f64],
        mask: SubspaceMask,
        out: &mut Vec<&'a UncertainTuple>,
    ) {
        match &self.node(idx).body {
            NodeBody::Leaf(leaf) => {
                let mut rows = Vec::new();
                leaf.batch().dominators_of(point, mask, &mut rows);
                out.extend(rows.into_iter().map(|i| &leaf.tuples()[i]));
            }
            NodeBody::Internal(children) => {
                for (child, s) in children {
                    if s.mbr.may_contain_dominator(point, mask) {
                        self.dominators_rec(*child, point, mask, out);
                    }
                }
            }
        }
    }

    /// Verifies structural invariants; used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let Some(root) = self.root else {
            assert_eq!(self.len, 0, "empty tree must have len 0");
            return;
        };
        let count = self.check_rec(root);
        assert_eq!(count, self.len, "stored len must match tuple count");
    }

    fn check_rec(&self, idx: usize) -> usize {
        match &self.node(idx).body {
            NodeBody::Leaf(leaf) => leaf.len(),
            NodeBody::Internal(children) => {
                assert!(!children.is_empty(), "internal nodes are never empty");
                let mut total = 0;
                for (child, summary) in children {
                    let fresh = self.node(*child).summary().expect("children are non-empty");
                    assert_eq!(&fresh.mbr, &summary.mbr, "stale MBR");
                    assert_eq!(fresh.count, summary.count, "stale count");
                    assert!(
                        (fresh.survival - summary.survival).abs() < 1e-9,
                        "stale survival product"
                    );
                    total += self.check_rec(*child);
                }
                total
            }
        }
    }
}

/// Iterator over all tuples of a [`PrTree`].
#[derive(Debug)]
pub struct Iter<'a> {
    tree: &'a PrTree,
    stack: Vec<usize>,
    leaf: Option<(usize, usize)>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a UncertainTuple;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((node, pos)) = self.leaf {
                let NodeBody::Leaf(leaf) = &self.tree.node(node).body else { unreachable!() };
                if pos < leaf.len() {
                    self.leaf = Some((node, pos + 1));
                    return Some(&leaf.tuples()[pos]);
                }
                self.leaf = None;
            }
            let idx = self.stack.pop()?;
            match &self.tree.node(idx).body {
                NodeBody::Leaf(_) => self.leaf = Some((idx, 0)),
                NodeBody::Internal(children) => {
                    self.stack.extend(children.iter().map(|(c, _)| *c));
                }
            }
        }
    }
}

impl<'a> IntoIterator for &'a PrTree {
    type Item = &'a UncertainTuple;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Finds the dimension with the greatest coordinate spread.
fn widest_dim<'a, I>(points: I, dims: usize) -> usize
where
    I: Iterator<Item = &'a [f64]>,
{
    let mut lo = vec![f64::INFINITY; dims];
    let mut hi = vec![f64::NEG_INFINITY; dims];
    for p in points {
        for d in 0..dims {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    (0..dims)
        .max_by(|&a, &b| (hi[a] - lo[a]).partial_cmp(&(hi[b] - lo[b])).expect("finite spreads"))
        .unwrap_or(0)
}

/// Sort-Tile-Recursive partitioning into groups of at most `cap` tuples.
///
/// The top-level sort runs on the [`threadpool`] (stable parallel merge
/// sort, identical output to `sort_by`), and the first round of slabs is
/// tiled concurrently. Group order and contents are independent of the
/// pool size.
fn str_tiles(
    mut items: Vec<UncertainTuple>,
    dim: usize,
    dims: usize,
    cap: usize,
) -> Vec<Vec<UncertainTuple>> {
    if items.len() <= cap {
        return vec![items];
    }
    threadpool::par_sort_by(&mut items, |a, b| {
        a.values()[dim].partial_cmp(&b.values()[dim]).expect("finite values")
    });
    if dim + 1 == dims {
        return items.chunks(cap).map(|c| c.to_vec()).collect();
    }
    let n_groups = items.len().div_ceil(cap);
    let remaining = (dims - dim) as f64;
    let n_slabs = (n_groups as f64).powf(1.0 / remaining).ceil() as usize;
    let slab_size = items.len().div_ceil(n_slabs.max(1));
    let mut slabs = Vec::new();
    let mut rest = items;
    while !rest.is_empty() {
        let take = slab_size.min(rest.len());
        slabs.push(rest.drain(..take).collect::<Vec<UncertainTuple>>());
    }
    if dim == 0 {
        // Fan the independent slabs across the pool; recursion below the
        // first dimension stays sequential inside each worker.
        threadpool::parallel_map_vec(slabs, |_, slab| str_tiles(slab, dim + 1, dims, cap))
            .into_iter()
            .flatten()
            .collect()
    } else {
        slabs.into_iter().flat_map(|slab| str_tiles(slab, dim + 1, dims, cap)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsud_uncertain::{dominates, Probability, UncertainDb};

    fn tuple(seq: u64, values: Vec<f64>, p: f64) -> UncertainTuple {
        UncertainTuple::new(TupleId::new(0, seq), values, Probability::new(p).unwrap()).unwrap()
    }

    fn full(d: usize) -> SubspaceMask {
        SubspaceMask::full(d).unwrap()
    }

    /// Deterministic pseudo-random tuples (LCG; no external deps needed).
    fn random_tuples(n: usize, dims: usize, seed: u64) -> Vec<UncertainTuple> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|i| {
                let values = (0..dims).map(|_| (next() * 1000.0).round() / 10.0).collect();
                let p = (next() * 0.99 + 0.005).clamp(0.005, 1.0);
                tuple(i as u64, values, p)
            })
            .collect()
    }

    #[test]
    fn empty_tree_behaviour() {
        let tree = PrTree::new(2).unwrap();
        assert!(tree.is_empty());
        assert_eq!(tree.survival_product(&[1.0, 1.0], full(2)), 1.0);
        assert!(tree.dominators(&[1.0, 1.0], full(2)).is_empty());
        assert!(tree.summary().is_none());
        assert_eq!(tree.iter().count(), 0);
        tree.check_invariants();
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(PrTree::new(0).is_err());
        assert!(PrTree::with_capacity(2, 1).is_err());
        let mut tree = PrTree::new(2).unwrap();
        assert!(matches!(
            tree.insert(tuple(0, vec![1.0], 0.5)),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            PrTree::bulk_load(3, vec![tuple(0, vec![1.0, 2.0], 0.5)]),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_id() {
        let mut tree = PrTree::new(2).unwrap();
        tree.insert(tuple(5, vec![1.0, 2.0], 0.5)).unwrap();
        assert_eq!(tree.insert(tuple(5, vec![1.0, 2.0], 0.7)), Err(Error::DuplicateId));
    }

    #[test]
    fn bulk_load_indexes_everything() {
        for n in [0, 1, 5, 33, 200, 1111] {
            let tuples = random_tuples(n, 3, 42);
            let tree = PrTree::bulk_load(3, tuples.clone()).unwrap();
            assert_eq!(tree.len(), n);
            tree.check_invariants();
            let mut seen: Vec<u64> = tree.iter().map(|t| t.id().seq).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn survival_matches_linear_scan() {
        for dims in [2, 3, 4] {
            let tuples = random_tuples(500, dims, 7 + dims as u64);
            let db = UncertainDb::from_tuples(dims, tuples.clone()).unwrap();
            let tree = PrTree::bulk_load(dims, tuples).unwrap();
            let mask = full(dims);
            for probe in random_tuples(50, dims, 99) {
                let expected = db.survival_product(probe.values());
                let got = tree.survival_product(probe.values(), mask);
                assert!((expected - got).abs() < 1e-9, "dims {dims}: {expected} vs {got}");
            }
        }
    }

    /// The early-exit product returns the exact bits of `scale × exact`
    /// whenever that reaches `q`, including at the tie `q = scale ×
    /// exact`, and `None` otherwise — on one-leaf, two-level and deeper
    /// trees, full space and subspace.
    #[test]
    fn survival_product_above_keeps_exact_bits_or_exits() {
        let tuples = random_tuples(400, 3, 77);
        let probes = random_tuples(60, 3, 78);
        for (n, cap) in [(20, 32), (400, 32), (400, 4)] {
            let tree = PrTree::bulk_load_with(3, tuples[..n].to_vec(), cap).unwrap();
            for mask in [full(3), SubspaceMask::from_dims(&[0, 2]).unwrap()] {
                for probe in &probes {
                    let exact = tree.survival_product(probe.values(), mask);
                    for scale in [1.0, probe.prob().get(), 0.5] {
                        let p = scale * exact;
                        for q in [p, p.next_up(), p.next_down(), 0.25, 1.0] {
                            if q <= 0.0 {
                                continue;
                            }
                            let got = tree.survival_product_above(probe.values(), mask, scale, q);
                            if p >= q {
                                assert_eq!(got.map(f64::to_bits), Some(p.to_bits()));
                            } else {
                                assert_eq!(got, None, "p {p} below q {q}");
                            }
                        }
                    }
                }
            }
        }
        let empty = PrTree::new(2).unwrap();
        assert_eq!(empty.survival_product_above(&[1.0, 1.0], full(2), 0.5, 0.5), Some(0.5));
        assert_eq!(empty.survival_product_above(&[1.0, 1.0], full(2), 0.4, 0.5), None);
    }

    #[test]
    fn survival_matches_on_subspaces() {
        let tuples = random_tuples(300, 4, 11);
        let db = UncertainDb::from_tuples(4, tuples.clone()).unwrap();
        let tree = PrTree::bulk_load(4, tuples).unwrap();
        for mask in [
            SubspaceMask::from_dims(&[0]).unwrap(),
            SubspaceMask::from_dims(&[1, 3]).unwrap(),
            SubspaceMask::from_dims(&[0, 1, 2]).unwrap(),
        ] {
            for probe in random_tuples(20, 4, 5) {
                let expected = db.survival_product_in(probe.values(), mask);
                let got = tree.survival_product(probe.values(), mask);
                assert!((expected - got).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn multi_probe_survivals_are_bit_identical_to_single_probe() {
        for dims in [2, 3, 4] {
            let tuples = random_tuples(600, dims, 21 + dims as u64);
            let tree = PrTree::bulk_load(dims, tuples).unwrap();
            let mask = full(dims);
            let probe_tuples = random_tuples(37, dims, 123);
            let probes: Vec<&[f64]> = probe_tuples.iter().map(|t| t.values()).collect();
            let mut scratch = MultiProbeScratch::default();
            let mut out = Vec::new();
            tree.survival_products(&probes, mask, &mut scratch, &mut out);
            assert_eq!(out.len(), probes.len());
            for (k, probe) in probes.iter().enumerate() {
                let single = tree.survival_product(probe, mask);
                assert_eq!(
                    out[k].to_bits(),
                    single.to_bits(),
                    "dims {dims}, probe {k}: batched {} vs single {single}",
                    out[k]
                );
            }
        }
    }

    #[test]
    fn multi_probe_survivals_match_on_subspaces() {
        let tuples = random_tuples(400, 4, 31);
        let tree = PrTree::bulk_load(4, tuples).unwrap();
        let probe_tuples = random_tuples(16, 4, 17);
        let probes: Vec<&[f64]> = probe_tuples.iter().map(|t| t.values()).collect();
        let mut scratch = MultiProbeScratch::default();
        let mut out = Vec::new();
        for mask in [
            SubspaceMask::from_dims(&[0]).unwrap(),
            SubspaceMask::from_dims(&[1, 3]).unwrap(),
            SubspaceMask::from_dims(&[0, 1, 2]).unwrap(),
        ] {
            tree.survival_products(&probes, mask, &mut scratch, &mut out);
            for (k, probe) in probes.iter().enumerate() {
                assert_eq!(out[k].to_bits(), tree.survival_product(probe, mask).to_bits());
            }
        }
    }

    #[test]
    fn multi_probe_on_empty_inputs() {
        let tree = PrTree::new(2).unwrap();
        let mut scratch = MultiProbeScratch::default();
        let mut out = vec![0.25; 3];
        // Empty tree: every probe survives with product 1.
        let probes: &[&[f64]] = &[&[1.0, 1.0], &[2.0, 2.0]];
        tree.survival_products(probes, full(2), &mut scratch, &mut out);
        assert_eq!(out, vec![1.0, 1.0]);
        // Empty probe set: output empties.
        let loaded = PrTree::bulk_load(2, random_tuples(50, 2, 3)).unwrap();
        loaded.survival_products(&Vec::<&[f64]>::new(), full(2), &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn multi_probe_shares_node_visits_and_counts_them() {
        use dsud_obs::Recorder;
        let mut tree = PrTree::bulk_load(3, random_tuples(2000, 3, 55)).unwrap();
        let rec = Recorder::enabled();
        tree.set_recorder(rec.clone());
        let probe_tuples = random_tuples(8, 3, 77);
        let probes: Vec<&[f64]> = probe_tuples.iter().map(|t| t.values()).collect();
        let mut scratch = MultiProbeScratch::default();
        let mut out = Vec::new();
        tree.survival_products(&probes, full(3), &mut scratch, &mut out);
        let shared = rec.counter(Counter::MultiProbeNodeVisits);
        assert!(shared >= 1, "traversal must visit at least the root");
        // Shared traversal can never visit more nodes than the probes
        // would visit independently, and each node at most once per call.
        let (_, node_count) = tree.shape();
        assert!(shared <= node_count as u64);
    }

    #[test]
    fn incremental_insert_matches_bulk_load() {
        let tuples = random_tuples(400, 2, 3);
        let bulk = PrTree::bulk_load(2, tuples.clone()).unwrap();
        let mut incr = PrTree::new(2).unwrap();
        for t in tuples.clone() {
            incr.insert(t).unwrap();
        }
        incr.check_invariants();
        assert_eq!(incr.len(), bulk.len());
        let mask = full(2);
        for probe in random_tuples(30, 2, 77) {
            let a = bulk.survival_product(probe.values(), mask);
            let b = incr.survival_product(probe.values(), mask);
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn remove_then_query_stays_consistent() {
        let tuples = random_tuples(300, 2, 5);
        let mut tree = PrTree::bulk_load(2, tuples.clone()).unwrap();
        // Remove every third tuple.
        let mut remaining = Vec::new();
        for (i, t) in tuples.iter().enumerate() {
            if i % 3 == 0 {
                let removed = tree.remove(t.id(), t.values()).expect("tuple is present");
                assert_eq!(removed.id(), t.id());
            } else {
                remaining.push(t.clone());
            }
        }
        tree.check_invariants();
        assert_eq!(tree.len(), remaining.len());
        let db = UncertainDb::from_tuples(2, remaining).unwrap();
        let mask = full(2);
        for probe in random_tuples(30, 2, 123) {
            let expected = db.survival_product(probe.values());
            let got = tree.survival_product(probe.values(), mask);
            assert!((expected - got).abs() < 1e-9);
        }
    }

    #[test]
    fn remove_everything_empties_tree() {
        let tuples = random_tuples(100, 3, 9);
        let mut tree = PrTree::bulk_load(3, tuples.clone()).unwrap();
        for t in &tuples {
            assert!(tree.remove(t.id(), t.values()).is_some());
        }
        assert!(tree.is_empty());
        assert!(tree.root_index().is_none());
        tree.check_invariants();
        // And it can be refilled.
        for t in tuples {
            tree.insert(t).unwrap();
        }
        assert_eq!(tree.len(), 100);
        tree.check_invariants();
    }

    #[test]
    fn remove_missing_returns_none() {
        let tuples = random_tuples(50, 2, 21);
        let mut tree = PrTree::bulk_load(2, tuples).unwrap();
        assert!(tree.remove(TupleId::new(9, 9), &[1.0, 1.0]).is_none());
        assert_eq!(tree.len(), 50);
    }

    #[test]
    fn get_finds_stored_tuples() {
        let tuples = random_tuples(200, 2, 31);
        let tree = PrTree::bulk_load(2, tuples.clone()).unwrap();
        for t in &tuples {
            let found = tree.get(t.id(), t.values()).expect("tuple stored");
            assert_eq!(found, t);
        }
        assert!(tree.get(TupleId::new(1, 1), &[0.0, 0.0]).is_none());
    }

    #[test]
    fn range_query_matches_scan() {
        let tuples = random_tuples(400, 3, 51);
        let tree = PrTree::bulk_load(3, tuples.clone()).unwrap();
        for (lower, upper) in [
            (vec![0.0, 0.0, 0.0], vec![100.0, 100.0, 100.0]),
            (vec![20.0, 30.0, 10.0], vec![70.0, 60.0, 90.0]),
            (vec![99.0, 99.0, 99.0], vec![99.5, 99.5, 99.5]),
        ] {
            let mut got: Vec<u64> =
                tree.range_query(&lower, &upper).iter().map(|t| t.id().seq).collect();
            got.sort_unstable();
            let mut expected: Vec<u64> = tuples
                .iter()
                .filter(|t| {
                    t.values()
                        .iter()
                        .zip(lower.iter().zip(&upper))
                        .all(|(&v, (&lo, &hi))| lo <= v && v <= hi)
                })
                .map(|t| t.id().seq)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "box {lower:?}..{upper:?}");
        }
    }

    #[test]
    fn shape_reports_height_and_nodes() {
        let empty = PrTree::new(2).unwrap();
        assert_eq!(empty.shape(), (0, 0));
        let small = PrTree::bulk_load(2, random_tuples(5, 2, 1)).unwrap();
        assert_eq!(small.shape(), (1, 1));
        let big = PrTree::bulk_load_with(2, random_tuples(1000, 2, 2), 8).unwrap();
        let (height, nodes) = big.shape();
        assert!(height >= 3, "height {height}");
        assert!(nodes >= 1000 / 8, "nodes {nodes}");
    }

    #[test]
    fn bulk_load_is_pool_size_invariant() {
        let tuples = random_tuples(2000, 3, 123);
        let reference =
            threadpool::with_pool_size(1, || PrTree::bulk_load(3, tuples.clone())).unwrap();
        let ref_order: Vec<u64> = reference.iter().map(|t| t.id().seq).collect();
        for pool in [2usize, 8] {
            let tree =
                threadpool::with_pool_size(pool, || PrTree::bulk_load(3, tuples.clone())).unwrap();
            tree.check_invariants();
            assert_eq!(tree.shape(), reference.shape(), "pool {pool}");
            let order: Vec<u64> = tree.iter().map(|t| t.id().seq).collect();
            assert_eq!(order, ref_order, "pool {pool}");
        }
    }

    #[test]
    fn single_leaf_survival_is_bit_identical_to_scalar() {
        // With all tuples in one leaf, the tree product is exactly the
        // kernel's leaf product, which must equal the scalar loop with ==.
        let tuples = random_tuples(300, 3, 9);
        let tree = PrTree::bulk_load_with(3, tuples.clone(), 512).unwrap();
        assert_eq!(tree.shape(), (1, 1));
        let mask = full(3);
        for probe in random_tuples(40, 3, 31) {
            let scalar: f64 = tuples
                .iter()
                .filter(|t| dsud_uncertain::dominates_in(t.values(), probe.values(), mask))
                .map(|t| t.prob().complement())
                .product();
            let got = tree.survival_product(probe.values(), mask);
            assert_eq!(got.to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn dominators_match_definition() {
        let tuples = random_tuples(200, 2, 17);
        let tree = PrTree::bulk_load(2, tuples.clone()).unwrap();
        let mask = full(2);
        let probe = [500.0, 500.0];
        let mut got: Vec<u64> = tree.dominators(&probe, mask).iter().map(|t| t.id().seq).collect();
        got.sort_unstable();
        let mut expected: Vec<u64> =
            tuples.iter().filter(|t| dominates(t.values(), &probe)).map(|t| t.id().seq).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}
