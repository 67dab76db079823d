//! The R-tree proper: insert, delete, bulk load, and its
//! [`SpatialBackend`] implementation (the batched and epoch recursions it
//! calls live in [`crate::bulk`] and [`crate::epoch`]).

use crate::bulk::BULK_MIN;
use crate::epoch::{EpochProbe, ProbeOutcome};
use crate::node::{Branch, Epoch, LeafEntry, Node, NodeIdx, NodeKind};
use crate::stats::Stats;
use crate::{SpatialBackend, MAX_ENTRIES, MIN_ENTRIES};
use disc_geom::{Aabb, FxHashMap, Point, PointId};

/// An in-memory R-tree over `D`-dimensional points.
///
/// ```
/// use disc_geom::{Point, PointId};
/// use disc_index::{RTree, SpatialBackend};
///
/// let mut tree: RTree<2> = RTree::new();
/// tree.insert(PointId(0), Point::new([0.0, 0.0]));
/// tree.insert(PointId(1), Point::new([0.5, 0.0]));
/// tree.insert(PointId(2), Point::new([9.0, 9.0]));
/// assert_eq!(tree.ball_count(&Point::new([0.0, 0.0]), 1.0), 2);
/// assert!(tree.remove(PointId(1), Point::new([0.5, 0.0])));
/// assert_eq!(tree.len(), 2);
/// ```
///
/// Nodes live in an arena (`Vec<Node>` plus a free list) so the tree is a
/// single allocation-friendly structure with `u32` child links. The tree
/// stores `(PointId, Point<D>)` pairs; duplicate coordinates are allowed
/// (ids disambiguate), which matters for GPS-style streams where repeated
/// fixes are common.
pub struct RTree<const D: usize> {
    pub(crate) nodes: Vec<Node<D>>,
    pub(crate) root: NodeIdx,
    free: Vec<NodeIdx>,
    pub(crate) len: usize,
    pub(crate) height: usize,
    /// Monotone counter handing out epoch ticks to MS-BFS instances.
    tick_counter: u64,
    pub(crate) stats: Stats,
}

impl<const D: usize> Default for RTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> RTree<D> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        let root_node = Node::new_leaf();
        RTree {
            nodes: vec![root_node],
            root: 0,
            free: Vec::new(),
            len: 0,
            height: 1,
            tick_counter: 0,
            stats: Stats::default(),
        }
    }

    /// Height of the tree (1 for a single leaf root).
    pub fn height(&self) -> usize {
        self.height
    }

    pub(crate) fn alloc(&mut self, node: Node<D>) -> NodeIdx {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeIdx
        }
    }

    pub(crate) fn dealloc(&mut self, idx: NodeIdx) {
        // Leave a cheap tombstone; the slot is recycled via the free list.
        self.nodes[idx as usize] = Node {
            kind: NodeKind::Leaf(Vec::new()),
        };
        self.free.push(idx);
    }

    pub(crate) fn node(&self, idx: NodeIdx) -> &Node<D> {
        &self.nodes[idx as usize]
    }

    pub(crate) fn node_mut(&mut self, idx: NodeIdx) -> &mut Node<D> {
        &mut self.nodes[idx as usize]
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    pub(crate) fn grow_root(&mut self, sib_mbr: Aabb<D>, sib: NodeIdx) {
        let old_root = self.root;
        let old_mbr = self.node(old_root).mbr();
        let mut new_root = Node::new_internal();
        if let NodeKind::Internal(v) = &mut new_root.kind {
            v.push(Branch {
                mbr: old_mbr,
                child: old_root,
                epoch: Epoch::CLEAR,
            });
            v.push(Branch {
                mbr: sib_mbr,
                child: sib,
                epoch: Epoch::CLEAR,
            });
        }
        self.root = self.alloc(new_root);
        self.height += 1;
    }

    /// Recursive insert of a leaf entry (a new point, or one re-inserted
    /// with its id, point and epoch mark); returns the new sibling
    /// `(mbr, node)` when the visited node split.
    pub(crate) fn insert_rec_entry(
        &mut self,
        idx: NodeIdx,
        level: usize,
        entry: LeafEntry<D>,
    ) -> Option<(Aabb<D>, NodeIdx)> {
        let point = entry.point;
        if level == 1 {
            if let NodeKind::Leaf(entries) = &mut self.nodes[idx as usize].kind {
                entries.push(entry);
                if entries.len() > MAX_ENTRIES {
                    return Some(self.split_leaf(idx));
                }
            } else {
                unreachable!();
            }
            return None;
        }
        let chosen = self.choose_subtree(idx, &point);
        let child = match &self.nodes[idx as usize].kind {
            NodeKind::Internal(v) => v[chosen].child,
            NodeKind::Leaf(_) => unreachable!(),
        };
        let child_split = self.insert_rec_entry(child, level - 1, entry);

        // Refresh the chosen branch's box to cover the new point.
        if let NodeKind::Internal(v) = &mut self.nodes[idx as usize].kind {
            v[chosen].mbr.extend_point(&point);
            // The child gained an entry: its subtree can no longer be
            // considered fully visited by any live MS-BFS instance.
            v[chosen].epoch = Epoch::CLEAR;
        }

        if let Some((sib_mbr, sib)) = child_split {
            // The split invalidated the chosen branch's box; recompute it.
            let new_child_mbr = self.node(child).mbr();
            if let NodeKind::Internal(v) = &mut self.nodes[idx as usize].kind {
                v[chosen].mbr = new_child_mbr;
                v.push(Branch {
                    mbr: sib_mbr,
                    child: sib,
                    epoch: Epoch::CLEAR,
                });
                if v.len() > MAX_ENTRIES {
                    return Some(self.split_internal(idx));
                }
            }
        }
        None
    }

    /// Least-enlargement subtree choice (ties: smaller volume, then fewer
    /// entries is irrelevant at this fan-out — first wins).
    fn choose_subtree(&self, idx: NodeIdx, point: &Point<D>) -> usize {
        let NodeKind::Internal(v) = &self.node(idx).kind else {
            unreachable!("choose_subtree on a leaf");
        };
        Self::choose_branch(v, point)
    }

    /// Static form of the least-enlargement choice, usable while the caller
    /// holds a mutable borrow of the branch list (bulk insert path).
    pub(crate) fn choose_branch(v: &[Branch<D>], point: &Point<D>) -> usize {
        let target = Aabb::from_point(*point);
        let mut best = 0usize;
        let mut best_enl = f64::INFINITY;
        let mut best_vol = f64::INFINITY;
        for (i, b) in v.iter().enumerate() {
            let enl = b.mbr.enlargement(&target);
            let vol = b.mbr.volume();
            if enl < best_enl || (enl == best_enl && vol < best_vol) {
                best = i;
                best_enl = enl;
                best_vol = vol;
            }
        }
        best
    }

    // ------------------------------------------------------------------
    // Quadratic split
    // ------------------------------------------------------------------

    fn split_leaf(&mut self, idx: NodeIdx) -> (Aabb<D>, NodeIdx) {
        let entries = match &mut self.nodes[idx as usize].kind {
            NodeKind::Leaf(v) => std::mem::take(v),
            NodeKind::Internal(_) => unreachable!(),
        };
        let boxes: Vec<Aabb<D>> = entries.iter().map(|e| Aabb::from_point(e.point)).collect();
        let (left_ids, right_ids) = quadratic_partition(&boxes);
        let mut left = Vec::with_capacity(left_ids.len());
        let mut right = Vec::with_capacity(right_ids.len());
        let mut entries: Vec<Option<LeafEntry<D>>> = entries.into_iter().map(Some).collect();
        for i in left_ids {
            left.push(entries[i].take().expect("entry consumed twice"));
        }
        for i in right_ids {
            right.push(entries[i].take().expect("entry consumed twice"));
        }
        *self.node_mut(idx) = Node {
            kind: NodeKind::Leaf(left),
        };
        let sib = self.alloc(Node {
            kind: NodeKind::Leaf(right),
        });
        (self.node(sib).mbr(), sib)
    }

    fn split_internal(&mut self, idx: NodeIdx) -> (Aabb<D>, NodeIdx) {
        let entries = match &mut self.nodes[idx as usize].kind {
            NodeKind::Internal(v) => std::mem::take(v),
            NodeKind::Leaf(_) => unreachable!(),
        };
        let boxes: Vec<Aabb<D>> = entries.iter().map(|b| b.mbr).collect();
        let (left_ids, right_ids) = quadratic_partition(&boxes);
        let mut left = Vec::with_capacity(left_ids.len());
        let mut right = Vec::with_capacity(right_ids.len());
        let mut entries: Vec<Option<Branch<D>>> = entries.into_iter().map(Some).collect();
        for i in left_ids {
            left.push(entries[i].take().expect("entry consumed twice"));
        }
        for i in right_ids {
            right.push(entries[i].take().expect("entry consumed twice"));
        }
        *self.node_mut(idx) = Node {
            kind: NodeKind::Internal(left),
        };
        let sib = self.alloc(Node {
            kind: NodeKind::Internal(right),
        });
        (self.node(sib).mbr(), sib)
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    fn remove_rec(
        &mut self,
        idx: NodeIdx,
        level: usize,
        id: PointId,
        point: &Point<D>,
        orphans: &mut Vec<LeafEntry<D>>,
    ) -> bool {
        if level == 1 {
            let NodeKind::Leaf(entries) = &mut self.nodes[idx as usize].kind else {
                unreachable!();
            };
            if let Some(pos) = entries.iter().position(|e| e.id == id) {
                debug_assert_eq!(entries[pos].point, *point, "id located at stale position");
                entries.swap_remove(pos);
                return true;
            }
            return false;
        }

        // Scan children whose box could contain the point.
        let candidates: Vec<(usize, NodeIdx)> = match &self.node(idx).kind {
            NodeKind::Internal(v) => v
                .iter()
                .enumerate()
                .filter(|(_, b)| b.mbr.contains_point(point))
                .map(|(i, b)| (i, b.child))
                .collect(),
            NodeKind::Leaf(_) => unreachable!(),
        };

        for (slot, child) in candidates {
            if self.remove_rec(child, level - 1, id, point, orphans) {
                let child_len = self.node(child).len();
                if child_len < MIN_ENTRIES {
                    // Condense: orphan the whole subtree and drop the branch.
                    self.collect_subtree(child, orphans);
                    if let NodeKind::Internal(v) = &mut self.nodes[idx as usize].kind {
                        v.swap_remove(slot);
                    }
                } else {
                    let new_mbr = self.node(child).mbr();
                    if let NodeKind::Internal(v) = &mut self.nodes[idx as usize].kind {
                        v[slot].mbr = new_mbr;
                    }
                }
                return true;
            }
        }
        false
    }

    /// Moves every leaf entry stored under `idx` into `orphans` and frees
    /// the subtree's nodes.
    pub(crate) fn collect_subtree(&mut self, idx: NodeIdx, orphans: &mut Vec<LeafEntry<D>>) {
        match std::mem::replace(
            &mut self.nodes[idx as usize].kind,
            NodeKind::Leaf(Vec::new()),
        ) {
            NodeKind::Leaf(entries) => orphans.extend(entries),
            NodeKind::Internal(branches) => {
                for b in branches {
                    self.collect_subtree(b.child, orphans);
                }
            }
        }
        self.dealloc(idx);
    }

    /// Shrinks the root while it is an internal node with a single child.
    pub(crate) fn shrink_root(&mut self) {
        while self.height > 1 {
            let only_child = match &self.node(self.root).kind {
                NodeKind::Internal(v) if v.len() == 1 => v[0].child,
                _ => break,
            };
            let old_root = self.root;
            self.root = only_child;
            self.dealloc(old_root);
            self.height -= 1;
        }
    }

    // ------------------------------------------------------------------
    // Bulk load (STR)
    // ------------------------------------------------------------------

    /// Builds a tree from scratch with Sort-Tile-Recursive packing: a
    /// batched insert into an empty tree, whose root-leaf overflow and the
    /// levels grown above it are all packed by the one STR tiler.
    ///
    /// Used to fill the first sliding window quickly; subsequent strides go
    /// through `insert`/`remove`. Counts as `items.len()` inserts and no
    /// batch.
    pub fn bulk_load(items: Vec<(PointId, Point<D>)>) -> Self {
        let mut tree = RTree::new();
        let n = items.len() as u64;
        tree.bulk_insert(items);
        tree.stats = Stats {
            inserts: n,
            ..Stats::default()
        };
        tree
    }

    /// Allocation-free read-only descent (hot path: one call per node).
    fn ball_rec(
        nodes: &[Node<D>],
        idx: NodeIdx,
        center: &Point<D>,
        eps2: f64,
        f: &mut impl FnMut(PointId, &Point<D>),
        counters: &mut (u64, u64),
    ) {
        counters.0 += 1;
        match &nodes[idx as usize].kind {
            NodeKind::Leaf(entries) => {
                counters.1 += entries.len() as u64;
                for e in entries {
                    if center.dist2(&e.point) <= eps2 {
                        f(e.id, &e.point);
                    }
                }
            }
            NodeKind::Internal(branches) => {
                for b in branches {
                    if b.mbr.dist2_to_point(center) <= eps2 {
                        Self::ball_rec(nodes, b.child, center, eps2, f, counters);
                    }
                }
            }
        }
    }

    fn for_each_rec(&self, idx: NodeIdx, f: &mut impl FnMut(PointId, &Point<D>)) {
        match &self.node(idx).kind {
            NodeKind::Leaf(entries) => {
                for e in entries {
                    f(e.id, &e.point);
                }
            }
            NodeKind::Internal(branches) => {
                for b in branches {
                    self.for_each_rec(b.child, f);
                }
            }
        }
    }

    fn check_rec(&self, idx: NodeIdx, level: usize, is_root: bool) -> usize {
        let node = self.node(idx);
        if level == 1 {
            assert!(node.is_leaf(), "leaf expected at level 1");
        } else {
            assert!(!node.is_leaf(), "internal expected above level 1");
        }
        if !is_root {
            assert!(
                node.len() >= 1,
                "non-root node must hold at least one entry"
            );
            assert!(node.len() <= MAX_ENTRIES, "node overflow");
        }
        match &node.kind {
            NodeKind::Leaf(entries) => entries.len(),
            NodeKind::Internal(branches) => {
                let mut total = 0;
                for b in branches {
                    let child_mbr = self.node(b.child).mbr();
                    assert!(
                        b.mbr.contains(&child_mbr),
                        "branch box must cover its child"
                    );
                    total += self.check_rec(b.child, level - 1, false);
                }
                total
            }
        }
    }
}

impl<const D: usize> SpatialBackend<D> for RTree<D> {
    const NAME: &'static str = "rtree";

    fn with_eps_hint(_eps_hint: f64) -> Self {
        RTree::new()
    }

    fn from_batch(_eps_hint: f64, items: Vec<(PointId, Point<D>)>) -> Self {
        RTree::bulk_load(items)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    fn insert(&mut self, id: PointId, point: Point<D>) {
        debug_assert!(point.is_finite(), "refusing to index a non-finite point");
        self.stats.inserts += 1;
        let entry = LeafEntry {
            point,
            id,
            epoch: Epoch::CLEAR,
        };
        let split = self.insert_rec_entry(self.root, self.height, entry);
        if let Some((sib_mbr, sib)) = split {
            self.grow_root(sib_mbr, sib);
        }
        self.len += 1;
    }

    /// Underfull nodes are condensed: their surviving points are collected
    /// and reinserted, the classic Guttman treatment, which keeps the tree
    /// healthy under the heavy delete churn of a sliding window.
    fn remove(&mut self, id: PointId, point: Point<D>) -> bool {
        let mut orphans: Vec<LeafEntry<D>> = Vec::new();
        if !self.remove_rec(self.root, self.height, id, &point, &mut orphans) {
            debug_assert!(orphans.is_empty());
            return false;
        }
        self.stats.removes += 1;
        self.len -= 1;
        self.shrink_root();
        // Reinsert points orphaned by condensed nodes. Each reinsert keeps
        // its original epoch mark (the point's visited status is a property
        // of the point, not of its slot) and is not counted again.
        for e in orphans {
            let split = self.insert_rec_entry(self.root, self.height, e);
            if let Some((mbr, sib)) = split {
                self.grow_root(mbr, sib);
            }
        }
        true
    }

    /// Batches smaller than `BULK_MIN` take the per-point path. Larger ones
    /// are sorted by a cheap spatial key so runs of nearby points share the
    /// choose-subtree descent, and overflowing nodes are re-tiled once into
    /// multiple siblings instead of splitting repeatedly.
    fn bulk_insert(&mut self, items: Vec<(PointId, Point<D>)>) {
        if items.len() < BULK_MIN {
            for (id, p) in items {
                self.insert(id, p);
            }
            return;
        }
        self.stats.bulk_insert_batches += 1;
        self.stats.inserts += items.len() as u64;
        self.len += items.len();
        let entries: Vec<LeafEntry<D>> = items
            .into_iter()
            .map(|(id, point)| {
                debug_assert!(point.is_finite(), "refusing to index a non-finite point");
                LeafEntry {
                    point,
                    id,
                    epoch: Epoch::CLEAR,
                }
            })
            .collect();
        self.bulk_insert_entries(entries);
    }

    /// One top-down traversal with deferred condensation: underfull nodes
    /// discovered on the unwind are collected into a single orphan list,
    /// dropped from their parents, and the surviving entries reinserted in
    /// one grouped pass at the end — instead of `remove`'s per-delete
    /// orphan/reinsert storm. Orphans keep their epoch marks.
    fn bulk_remove(&mut self, items: &[(PointId, Point<D>)]) -> usize {
        if items.len() < BULK_MIN {
            return items.iter().filter(|(id, p)| self.remove(*id, *p)).count();
        }
        self.stats.bulk_remove_batches += 1;
        let mut pending: FxHashMap<PointId, Point<D>> =
            items.iter().map(|(id, p)| (*id, *p)).collect();
        let mut orphans: Vec<LeafEntry<D>> = Vec::new();
        let removed =
            self.bulk_remove_rec(self.root, self.height, items, &mut pending, &mut orphans);
        self.stats.removes += removed as u64;
        self.len -= removed;

        // A batched delete can condense away *every* branch of an internal
        // root (all entries end up in `orphans`); restart from an empty leaf.
        if self.height > 1 && self.node(self.root).len() == 0 {
            let old_root = self.root;
            self.dealloc(old_root);
            self.root = self.alloc(Node::new_leaf());
            self.height = 1;
        }
        self.shrink_root();
        self.bulk_insert_entries(orphans);
        removed
    }

    fn scan_ball<F: FnMut(PointId, &Point<D>)>(
        &self,
        center: &Point<D>,
        eps: f64,
        mut f: F,
        stats: &mut Stats,
    ) {
        stats.range_searches += 1;
        let eps2 = eps * eps;
        let mut counters = (0u64, 0u64); // (nodes visited, distance checks)
        Self::ball_rec(&self.nodes, self.root, center, eps2, &mut f, &mut counters);
        stats.nodes_visited += counters.0;
        stats.distance_checks += counters.1;
    }

    /// One traversal serves all centers: each node is visited at most once,
    /// with the active-center list narrowed per branch, so upper-level nodes
    /// shared by many balls are descended once instead of once per center.
    fn scan_balls<F: FnMut(usize, PointId, &Point<D>)>(
        &self,
        centers: &[Point<D>],
        eps: f64,
        mut f: F,
        stats: &mut Stats,
    ) {
        if centers.is_empty() {
            return;
        }
        stats.range_searches += centers.len() as u64;
        stats.multi_ball_queries += 1;
        stats.multi_ball_centers += centers.len() as u64;
        let eps2 = eps * eps;
        let mut nodes_visited = 0u64;
        let mut leaf_scans = 0u64;
        // Explicit-stack DFS; active-center sublists are pooled so the walk
        // does not allocate per branch.
        let mut stack: Vec<(NodeIdx, Vec<u32>)> =
            vec![(self.root, (0..centers.len() as u32).collect())];
        let mut pool: Vec<Vec<u32>> = Vec::new();
        while let Some((idx, active)) = stack.pop() {
            nodes_visited += 1;
            match &self.nodes[idx as usize].kind {
                NodeKind::Leaf(entries) => {
                    leaf_scans += entries.len() as u64;
                    // Center-major so each center stays in registers across
                    // the entry scan, matching the single-center loop shape.
                    for &ci in &active {
                        let c = &centers[ci as usize];
                        for e in entries {
                            if c.dist2(&e.point) <= eps2 {
                                f(ci as usize, e.id, &e.point);
                            }
                        }
                    }
                }
                NodeKind::Internal(branches) => {
                    // Cheap whole-branch reject against the union box of the
                    // active balls before the per-center distance tests.
                    let mut union_box = Aabb::empty();
                    for &ci in &active {
                        union_box.extend(&Aabb::ball_bounds(&centers[ci as usize], eps));
                    }
                    for b in branches {
                        if !b.mbr.intersects(&union_box) {
                            continue;
                        }
                        let mut sub = pool.pop().unwrap_or_default();
                        sub.clear();
                        sub.extend(
                            active
                                .iter()
                                .copied()
                                .filter(|&ci| b.mbr.dist2_to_point(&centers[ci as usize]) <= eps2),
                        );
                        if sub.is_empty() {
                            pool.push(sub);
                        } else {
                            stack.push((b.child, sub));
                        }
                    }
                }
            }
            pool.push(active);
        }
        stats.bulk_nodes_visited += nodes_visited;
        stats.bulk_leaf_scans += leaf_scans;
    }

    fn for_each<F: FnMut(PointId, &Point<D>)>(&self, mut f: F) {
        self.for_each_rec(self.root, &mut f);
    }

    fn begin_epoch(&mut self) -> EpochProbe {
        self.tick_counter += 1;
        EpochProbe::with_tick(self.tick_counter)
    }

    fn mark_visited(
        &mut self,
        probe: EpochProbe,
        center: &Point<D>,
        id: PointId,
        owner: u32,
    ) -> bool {
        self.mark_rec(self.root, probe.tick(), center, id, owner)
    }

    fn epoch_probe(
        &mut self,
        probe: EpochProbe,
        center: &Point<D>,
        eps: f64,
        thread: u32,
        resolve: &mut dyn FnMut(u32) -> u32,
        is_vertex: &mut dyn FnMut(PointId) -> bool,
        out: &mut ProbeOutcome<D>,
    ) {
        self.stats.range_searches += 1;
        self.stats.epoch_probes += 1;
        let root = self.root;
        let eps2 = eps * eps;
        self.probe_rec(
            root,
            probe.tick(),
            center,
            eps2,
            thread,
            resolve,
            is_vertex,
            out,
        );
    }

    fn check_invariants(&self) {
        let n = self.check_rec(self.root, self.height, true);
        assert_eq!(n, self.len, "len out of sync with stored entries");
    }
}

/// Guttman's quadratic split: picks the pair of entries whose combined box
/// wastes the most space as seeds, then assigns the rest greedily by least
/// enlargement, honouring the minimum fill of both groups.
///
/// Returns the index sets of the two groups.
pub(crate) fn quadratic_partition<const D: usize>(boxes: &[Aabb<D>]) -> (Vec<usize>, Vec<usize>) {
    let n = boxes.len();
    debug_assert!(n >= 2);

    // Seed selection: maximal dead space when paired.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = boxes[i].merge(&boxes[j]).volume() - boxes[i].volume() - boxes[j].volume();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }

    let mut left = vec![s1];
    let mut right = vec![s2];
    let mut left_mbr = boxes[s1];
    let mut right_mbr = boxes[s2];
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();

    while let Some(pos) = pick_next(&remaining, boxes, &left_mbr, &right_mbr) {
        let i = remaining.swap_remove(pos);
        // Forced assignment keeps both groups above the minimum fill.
        let left_deficit = MIN_ENTRIES.saturating_sub(left.len());
        let right_deficit = MIN_ENTRIES.saturating_sub(right.len());
        let slack = remaining.len() + 1;
        let to_left = if left_deficit >= slack {
            true
        } else if right_deficit >= slack {
            false
        } else {
            let le = left_mbr.enlargement(&boxes[i]);
            let re = right_mbr.enlargement(&boxes[i]);
            if le != re {
                le < re
            } else {
                left_mbr.volume() <= right_mbr.volume()
            }
        };
        if to_left {
            left.push(i);
            left_mbr.extend(&boxes[i]);
        } else {
            right.push(i);
            right_mbr.extend(&boxes[i]);
        }
    }
    (left, right)
}

/// Picks the remaining entry with the greatest preference for one group
/// (max |d1 - d2| in Guttman's terms). Returns its position in `remaining`.
fn pick_next<const D: usize>(
    remaining: &[usize],
    boxes: &[Aabb<D>],
    left: &Aabb<D>,
    right: &Aabb<D>,
) -> Option<usize> {
    if remaining.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_pref = f64::NEG_INFINITY;
    for (pos, &i) in remaining.iter().enumerate() {
        let pref = (left.enlargement(&boxes[i]) - right.enlargement(&boxes[i])).abs();
        if pref > best_pref {
            best_pref = pref;
            best = pos;
        }
    }
    Some(best)
}

impl<const D: usize> disc_telemetry::MemoryFootprint for RTree<D> {
    /// Arena accounting: the node slab (plus free list), per-node entry
    /// vectors, and the epoch marks embedded in every entry (reported
    /// separately so their overhead is visible, though they live inline).
    fn footprint(&self) -> disc_telemetry::FootprintNode {
        use disc_telemetry::FootprintNode;
        let epoch = std::mem::size_of::<Epoch>();
        let mut entry_bytes = 0usize;
        let mut marks = 0usize;
        for n in &self.nodes {
            let (cap, each) = match &n.kind {
                NodeKind::Leaf(v) => (v.capacity(), std::mem::size_of::<LeafEntry<D>>()),
                NodeKind::Internal(v) => (v.capacity(), std::mem::size_of::<Branch<D>>()),
            };
            entry_bytes += cap * (each - epoch);
            marks += cap * epoch;
        }
        let arena = self.nodes.capacity() * std::mem::size_of::<Node<D>>()
            + self.free.capacity() * std::mem::size_of::<NodeIdx>();
        FootprintNode::branch(
            "rtree",
            vec![
                FootprintNode::leaf("nodes", arena),
                FootprintNode::leaf("entries", entry_bytes),
                FootprintNode::leaf("epoch_marks", marks),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids within `eps` of `q`, sorted.
    fn ids(t: &mut RTree<2>, q: &Point<2>, eps: f64) -> Vec<PointId> {
        let mut out = Vec::new();
        t.ball_ids_into(q, eps, &mut out);
        out.sort();
        out
    }

    fn pts(n: u64) -> Vec<(PointId, Point<2>)> {
        // Deterministic pseudo-random points via a simple LCG.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n)
            .map(|i| (PointId(i), Point::new([next() * 100.0, next() * 100.0])))
            .collect()
    }

    #[test]
    fn empty_tree_basics() {
        let mut t: RTree<2> = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.ball_count(&Point::origin(), 10.0), 0);
        assert!(!t.remove(PointId(0), Point::origin()));
        t.check_invariants();
    }

    #[test]
    fn insert_then_query_small() {
        let mut t: RTree<2> = RTree::new();
        t.insert(PointId(1), Point::new([0.0, 0.0]));
        t.insert(PointId(2), Point::new([1.0, 0.0]));
        t.insert(PointId(3), Point::new([5.0, 5.0]));
        assert_eq!(t.len(), 3);
        assert_eq!(
            ids(&mut t, &Point::new([0.0, 0.0]), 1.5),
            vec![PointId(1), PointId(2)]
        );
        t.check_invariants();
    }

    #[test]
    fn query_matches_linear_scan_after_many_inserts() {
        let items = pts(500);
        let mut t: RTree<2> = RTree::new();
        for (id, p) in &items {
            t.insert(*id, *p);
        }
        t.check_invariants();
        for (qi, (_, q)) in items.iter().enumerate().step_by(37) {
            let _ = qi;
            let got = ids(&mut t, q, 7.5);
            let mut want: Vec<PointId> = items
                .iter()
                .filter(|(_, p)| q.within(p, 7.5))
                .map(|(id, _)| *id)
                .collect();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn remove_half_then_queries_still_match() {
        let items = pts(400);
        let mut t: RTree<2> = RTree::new();
        for (id, p) in &items {
            t.insert(*id, *p);
        }
        for (id, p) in items.iter().filter(|(id, _)| id.raw() % 2 == 0) {
            assert!(t.remove(*id, *p), "must find {id}");
        }
        t.check_invariants();
        assert_eq!(t.len(), 200);
        let live: Vec<&(PointId, Point<2>)> =
            items.iter().filter(|(id, _)| id.raw() % 2 == 1).collect();
        for (_, q) in live.iter().step_by(19) {
            let got = ids(&mut t, q, 9.0);
            let mut want: Vec<PointId> = live
                .iter()
                .filter(|(_, p)| q.within(p, 9.0))
                .map(|(id, _)| *id)
                .collect();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn remove_everything_leaves_an_empty_tree() {
        let items = pts(300);
        let mut t: RTree<2> = RTree::new();
        for (id, p) in &items {
            t.insert(*id, *p);
        }
        for (id, p) in &items {
            assert!(t.remove(*id, *p));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1, "root must collapse back to a single leaf");
        t.check_invariants();
        assert_eq!(t.ball_count(&Point::new([50.0, 50.0]), 1000.0), 0);
    }

    #[test]
    fn duplicate_coordinates_are_distinguished_by_id() {
        let mut t: RTree<2> = RTree::new();
        let p = Point::new([1.0, 1.0]);
        for i in 0..40 {
            t.insert(PointId(i), p);
        }
        assert_eq!(t.ball_count(&p, 0.0), 40);
        assert!(t.remove(PointId(17), p));
        assert_eq!(t.ball_count(&p, 0.0), 39);
        assert!(!t.remove(PointId(17), p), "already gone");
        t.check_invariants();
    }

    #[test]
    fn bulk_load_equals_incremental_inserts_for_queries() {
        let items = pts(800);
        let bulk = RTree::bulk_load(items.clone());
        bulk.check_invariants();
        assert_eq!(bulk.len(), items.len());
        let mut bulk = bulk;
        let mut incr: RTree<2> = RTree::new();
        for (id, p) in &items {
            incr.insert(*id, *p);
        }
        for (_, q) in items.iter().step_by(53) {
            assert_eq!(ids(&mut bulk, q, 6.0), ids(&mut incr, q, 6.0));
        }
    }

    #[test]
    fn bulk_load_then_mutate() {
        let items = pts(600);
        let mut t = RTree::bulk_load(items.clone());
        for (id, p) in items.iter().take(200) {
            assert!(t.remove(*id, *p));
        }
        for i in 0..100u64 {
            t.insert(PointId(10_000 + i), Point::new([i as f64, i as f64]));
        }
        t.check_invariants();
        assert_eq!(t.len(), 600 - 200 + 100);
    }

    #[test]
    fn stats_count_range_searches() {
        let mut t: RTree<2> = RTree::new();
        for (id, p) in pts(50) {
            t.insert(id, p);
        }
        t.reset_stats();
        let _ = t.ball_count(&Point::new([1.0, 1.0]), 2.0);
        let _ = ids(&mut t, &Point::new([2.0, 2.0]), 2.0);
        assert_eq!(t.stats().range_searches, 2);
        assert_eq!(t.stats().epoch_probes, 0);
        assert!(t.stats().nodes_visited >= 2);
    }

    #[test]
    fn quadratic_partition_respects_min_fill() {
        let boxes: Vec<Aabb<2>> = (0..(MAX_ENTRIES + 1))
            .map(|i| Aabb::from_point(Point::new([i as f64, 0.0])))
            .collect();
        let (l, r) = quadratic_partition(&boxes);
        assert_eq!(l.len() + r.len(), MAX_ENTRIES + 1);
        assert!(l.len() >= MIN_ENTRIES.min(l.len() + r.len() - MIN_ENTRIES));
        assert!(!l.is_empty() && !r.is_empty());
        assert!(l.len() >= MIN_ENTRIES || r.len() >= MIN_ENTRIES);
        // All indices accounted for exactly once.
        let mut all: Vec<usize> = l.iter().chain(r.iter()).copied().collect();
        all.sort();
        assert_eq!(all, (0..=MAX_ENTRIES).collect::<Vec<_>>());
    }

    #[test]
    fn four_dimensional_tree_works() {
        let mut t: RTree<4> = RTree::new();
        for i in 0..200u64 {
            let f = i as f64;
            t.insert(PointId(i), Point::new([f, f * 0.5, -f, f.sin()]));
        }
        t.check_invariants();
        let hits = t.ball_count(&Point::new([10.0, 5.0, -10.0, 0.0]), 2.0);
        assert!(hits >= 1);
    }
}
