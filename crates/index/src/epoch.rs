//! Epoch-based probing of the R-tree (paper §IV-B, Alg. 4).
//!
//! During one MS-BFS connectivity check, every range search wants only the
//! *unvisited* core points in range. Storing visited flags in a side table
//! does not make the search cheaper — the paper's observation is that the
//! flags must live in the index so that entire already-visited subtrees can
//! be skipped. Epochs (a monotone tick per MS-BFS instance) avoid resetting
//! flags between instances.
//!
//! ## Deviation from the paper, and why
//!
//! Alg. 4 in the paper stores a bare epoch and propagates the **minimum** of
//! the children's epochs to the parent entry, pruning any entry whose epoch
//! equals the current tick. Taken literally this breaks MS-BFS: if a subtree
//! was fully visited by thread *t*, a probe by a different thread *s* would
//! prune it and the two searches could never observe that they met there —
//! MS-BFS would report a split that did not happen.
//!
//! We therefore store an *(tick, owner)* pair. `owner` is an MS-BFS thread
//! slot, resolved through the caller-provided union-find (`resolve`) so that
//! merged threads count as the same owner:
//!
//! * an entry is pruned only when its owner resolves to the probing thread —
//!   always safe, nothing new can be learned inside;
//! * a subtree owned by a *different* thread is descended, and its in-range
//!   leaf entries are reported as `foreign` hits so the caller can merge the
//!   two threads; after the merge the owners resolve equal and subsequent
//!   probes prune the subtree as the paper intends.
//!
//! A parent entry is stamped on backtrack when **all** of its child's
//! entries carry the current tick and a single resolved owner — the
//! owner-aware analogue of the paper's min-propagation.

use crate::node::{Epoch, NodeIdx, NodeKind};
use crate::tree::RTree;
use disc_geom::{Point, PointId};

/// Result of one epoch probe.
///
/// Buffers are caller-owned so the hot loop never reallocates.
#[derive(Debug, Default)]
pub struct ProbeOutcome<const D: usize> {
    /// In-range vertices not previously visited by this MS-BFS instance;
    /// they are now marked as visited by the probing thread.
    pub fresh: Vec<(PointId, Point<D>)>,
    /// In-range vertices already visited by a *different* thread of this
    /// instance: `(point, resolved owner)` pairs — merge signals.
    pub foreign: Vec<(PointId, u32)>,
}

impl<const D: usize> ProbeOutcome<D> {
    /// Empties both buffers, keeping capacity.
    pub fn clear(&mut self) {
        self.fresh.clear();
        self.foreign.clear();
    }
}

/// A running MS-BFS instance's handle on the index epochs.
#[derive(Debug, Clone, Copy)]
pub struct EpochProbe {
    tick: u64,
}

impl EpochProbe {
    /// Wraps a raw tick — backends mint probes through this from their own
    /// tick counters.
    pub(crate) fn with_tick(tick: u64) -> Self {
        EpochProbe { tick }
    }

    /// The instance's tick (diagnostics).
    pub fn tick(&self) -> u64 {
        self.tick
    }
}

impl<const D: usize> RTree<D> {
    /// Marks the entry for `id` under `idx` as visited by `owner` at
    /// `tick`; returns whether it was found.
    pub(crate) fn mark_rec(
        &mut self,
        idx: NodeIdx,
        tick: u64,
        center: &Point<D>,
        id: PointId,
        owner: u32,
    ) -> bool {
        match &mut self.nodes[idx as usize].kind {
            NodeKind::Leaf(entries) => {
                for e in entries {
                    if e.id == id {
                        e.epoch = Epoch { tick, owner };
                        return true;
                    }
                }
                false
            }
            NodeKind::Internal(v) => {
                // Re-borrow per slot, as `probe_rec` does: marking runs
                // once per starter and must not allocate per node.
                let n = v.len();
                for slot in 0..n {
                    let child = match &self.nodes[idx as usize].kind {
                        NodeKind::Internal(v) if v[slot].mbr.contains_point(center) => {
                            v[slot].child
                        }
                        NodeKind::Internal(_) => continue,
                        NodeKind::Leaf(_) => unreachable!(),
                    };
                    if self.mark_rec(child, tick, center, id, owner) {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// The recursion behind
    /// [`SpatialBackend::epoch_probe`](crate::SpatialBackend::epoch_probe):
    /// marks fresh vertices under `idx`, reports foreign ones, prunes
    /// branches stamped by `thread`, and stamps branches on backtrack.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_rec(
        &mut self,
        idx: NodeIdx,
        tick: u64,
        center: &Point<D>,
        eps2: f64,
        thread: u32,
        resolve: &mut dyn FnMut(u32) -> u32,
        is_vertex: &mut dyn FnMut(PointId) -> bool,
        out: &mut ProbeOutcome<D>,
    ) {
        self.stats.nodes_visited += 1;
        match &mut self.nodes[idx as usize].kind {
            NodeKind::Leaf(entries) => {
                self.stats.distance_checks += entries.len() as u64;
                for e in entries {
                    if center.dist2(&e.point) > eps2 || !is_vertex(e.id) {
                        continue;
                    }
                    if e.epoch.tick == tick {
                        let owner = resolve(e.epoch.owner);
                        if owner != thread {
                            out.foreign.push((e.id, owner));
                        }
                        // Same thread: already in its visited set, skip.
                    } else {
                        e.epoch = Epoch {
                            tick,
                            owner: thread,
                        };
                        out.fresh.push((e.id, e.point));
                    }
                }
            }
            NodeKind::Internal(v) => {
                // Re-borrow per slot instead of collecting candidates: the
                // probe is the hot path and must not allocate per node.
                let n = v.len();
                for slot in 0..n {
                    let (child, epoch, in_range, covered) = match &self.nodes[idx as usize].kind {
                        NodeKind::Internal(v) => {
                            let b = &v[slot];
                            (
                                b.child,
                                b.epoch,
                                b.mbr.dist2_to_point(center) <= eps2,
                                b.mbr.max_dist2_to_point(center) <= eps2,
                            )
                        }
                        NodeKind::Leaf(_) => unreachable!(),
                    };
                    if !in_range {
                        continue;
                    }
                    if epoch.tick == tick && resolve(epoch.owner) == thread {
                        // Whole subtree already visited by this (merged)
                        // thread: nothing new below.
                        self.stats.subtrees_pruned += 1;
                        continue;
                    }
                    self.probe_rec(child, tick, center, eps2, thread, resolve, is_vertex, out);
                    // Backtrack: stamp the branch if the child is now
                    // uniformly owned at this tick. Only worth scanning the
                    // child when this probe's ball covered its whole box or
                    // the branch was already stamped at this tick — partial
                    // coverage almost never completes a subtree and the
                    // scan costs O(fan-out) per node.
                    if covered || epoch.tick == tick {
                        if let Some(owner) = self.uniform_owner(child, tick, resolve) {
                            if let NodeKind::Internal(v) = &mut self.nodes[idx as usize].kind {
                                v[slot].epoch = Epoch { tick, owner };
                            }
                        }
                    }
                }
            }
        }
    }

    /// If every entry of `idx` carries `tick` and a single resolved owner,
    /// returns that owner.
    fn uniform_owner(
        &self,
        idx: NodeIdx,
        tick: u64,
        resolve: &mut dyn FnMut(u32) -> u32,
    ) -> Option<u32> {
        match &self.nodes[idx as usize].kind {
            NodeKind::Leaf(entries) => {
                let mut owner = None;
                for e in entries {
                    if e.epoch.tick != tick {
                        return None;
                    }
                    let o = resolve(e.epoch.owner);
                    match owner {
                        None => owner = Some(o),
                        Some(prev) if prev != o => return None,
                        Some(_) => {}
                    }
                }
                owner
            }
            NodeKind::Internal(branches) => {
                let mut owner = None;
                for b in branches {
                    if b.epoch.tick != tick {
                        return None;
                    }
                    let o = resolve(b.epoch.owner);
                    match owner {
                        None => owner = Some(o),
                        Some(prev) if prev != o => return None,
                        Some(_) => {}
                    }
                }
                owner
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatialBackend;
    use disc_geom::Point;

    fn grid_tree(n: usize) -> RTree<2> {
        // n x n unit grid.
        let mut tree = RTree::new();
        let mut id = 0u64;
        for x in 0..n {
            for y in 0..n {
                tree.insert(PointId(id), Point::new([x as f64, y as f64]));
                id += 1;
            }
        }
        tree
    }

    #[test]
    fn probe_returns_each_vertex_once_per_instance() {
        let mut tree = grid_tree(8);
        let probe = tree.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        let c = Point::new([3.5, 3.5]);
        tree.epoch_probe(probe, &c, 2.0, 0, &mut resolve, &mut all, &mut out);
        let first = out.fresh.len();
        assert!(first > 0);
        assert!(out.foreign.is_empty());
        out.clear();
        tree.epoch_probe(probe, &c, 2.0, 0, &mut resolve, &mut all, &mut out);
        assert_eq!(out.fresh.len(), 0, "second probe must see nothing fresh");
        assert!(out.foreign.is_empty(), "same thread never reports foreign");
    }

    #[test]
    fn new_instance_sees_everything_again() {
        let mut tree = grid_tree(6);
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        let c = Point::new([2.0, 2.0]);
        let p1 = tree.begin_epoch();
        tree.epoch_probe(p1, &c, 1.5, 0, &mut resolve, &mut all, &mut out);
        let n1 = out.fresh.len();
        out.clear();
        let p2 = tree.begin_epoch();
        tree.epoch_probe(p2, &c, 1.5, 0, &mut resolve, &mut all, &mut out);
        assert_eq!(out.fresh.len(), n1);
    }

    #[test]
    fn foreign_thread_is_reported_not_hidden() {
        let mut tree = grid_tree(8);
        let probe = tree.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        // Thread 0 visits a ball, then thread 1 probes an overlapping ball.
        tree.epoch_probe(
            probe,
            &Point::new([2.0, 2.0]),
            1.5,
            0,
            &mut resolve,
            &mut all,
            &mut out,
        );
        let visited_by_0: Vec<PointId> = out.fresh.iter().map(|(id, _)| *id).collect();
        out.clear();
        tree.epoch_probe(
            probe,
            &Point::new([3.0, 2.0]),
            1.5,
            1,
            &mut resolve,
            &mut all,
            &mut out,
        );
        assert!(
            !out.foreign.is_empty(),
            "overlap with thread 0 must surface as foreign hits"
        );
        for (id, owner) in &out.foreign {
            assert_eq!(*owner, 0);
            assert!(visited_by_0.contains(id));
        }
        // Fresh + foreign must cover the overlap exactly once each.
        for (id, _) in &out.fresh {
            assert!(!visited_by_0.contains(id));
        }
    }

    #[test]
    fn merged_threads_prune_each_others_subtrees() {
        let mut tree = grid_tree(8);
        let probe = tree.begin_epoch();
        let mut out = ProbeOutcome::default();
        // Union-find stub: after the merge both 0 and 1 resolve to 0.
        #[allow(unused_assignments)]
        let mut merged = false;
        let mut all = |_: PointId| true;
        {
            let mut resolve = |o: u32| o;
            tree.epoch_probe(
                probe,
                &Point::new([2.0, 2.0]),
                2.0,
                0,
                &mut resolve,
                &mut all,
                &mut out,
            );
        }
        merged = true;
        out.clear();
        {
            let mut resolve = |o: u32| if merged { 0 } else { o };
            // Thread 1 (now resolving to 0) re-probes the same region: all
            // marks owned by 0 == its own root, so nothing is fresh or
            // foreign.
            tree.epoch_probe(
                probe,
                &Point::new([2.0, 2.0]),
                2.0,
                0,
                &mut resolve,
                &mut all,
                &mut out,
            );
        }
        assert!(out.fresh.is_empty());
        assert!(out.foreign.is_empty());
    }

    #[test]
    fn non_vertices_are_invisible_to_probes() {
        let mut tree = grid_tree(4);
        let probe = tree.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        // Only even ids are vertices.
        let mut even = |id: PointId| id.raw().is_multiple_of(2);
        tree.epoch_probe(
            probe,
            &Point::new([1.5, 1.5]),
            5.0,
            0,
            &mut resolve,
            &mut even,
            &mut out,
        );
        assert!(out.fresh.iter().all(|(id, _)| id.raw() % 2 == 0));
        assert_eq!(out.fresh.len(), 8, "16 grid points, half are vertices");
        // Odd ids stay unmarked: a later probe that counts everything as a
        // vertex must see them fresh.
        out.clear();
        let mut all = |_: PointId| true;
        tree.epoch_probe(
            probe,
            &Point::new([1.5, 1.5]),
            5.0,
            0,
            &mut resolve,
            &mut all,
            &mut out,
        );
        assert_eq!(out.fresh.len(), 8, "the odd half is still fresh");
    }

    #[test]
    fn pruning_happens_for_repeat_probes() {
        let mut tree = grid_tree(16);
        let probe = tree.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        // A ball covering the whole grid guarantees every leaf is fully
        // visited and therefore stamped for pruning.
        let c = Point::new([8.0, 8.0]);
        tree.epoch_probe(probe, &c, 25.0, 0, &mut resolve, &mut all, &mut out);
        assert_eq!(out.fresh.len(), 256);
        let before = tree.stats().subtrees_pruned;
        out.clear();
        tree.epoch_probe(probe, &c, 25.0, 0, &mut resolve, &mut all, &mut out);
        let after = tree.stats().subtrees_pruned;
        assert!(
            after > before,
            "a repeat probe over a fully-visited region must prune subtrees"
        );
    }
}
