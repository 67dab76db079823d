//! The R-tree's batched layer: the recursions behind
//! [`SpatialBackend::bulk_insert`] and [`SpatialBackend::bulk_remove`], and
//! the Sort-Tile-Recursive packer every overflow goes through.
//!
//! The per-point slide path pays one root-to-leaf traversal per element:
//! every insert descends the tree once, every delete walks its candidate
//! branches and may trigger an orphan/reinsert storm, and every ε-query
//! starts over at the root. For a stride of `s` points over a window of `n`
//! that is `O(s·log n)` traversals with heavily overlapping paths. The
//! batched layer amortises the overlap — one traversal per *batch*:
//!
//! * `bulk_insert` sorts the stride by a cheap spatial key so consecutive
//!   points land in the same subtree, shares the choose-subtree descent
//!   across each run, and resolves overflow with a single multi-way
//!   re-tile per node instead of a cascade of binary splits.
//! * `bulk_remove` partitions the outgoing set across children in one
//!   top-down pass and defers condensation: underfull nodes found on the
//!   unwind are collected once and their survivors reinserted in a single
//!   grouped pass at the end (the teardown-tree treatment).
//! * `scan_balls` (in the R-tree's trait impl) answers many ε-balls in one
//!   walk, narrowing the active-center list per branch, so shared
//!   upper-level nodes are visited once instead of once per center.
//!
//! All three are exact: they produce the same answer set (and, for the
//! mutations, a structurally valid tree over the same entries) as their
//! per-point counterparts — only the traversal order differs. Work done
//! here is accounted in the `bulk_*` counters of [`crate::Stats`] so the
//! per-point and batched costs can be compared side by side.
//!
//! [`SpatialBackend::bulk_insert`]: crate::SpatialBackend::bulk_insert
//! [`SpatialBackend::bulk_remove`]: crate::SpatialBackend::bulk_remove

use crate::node::{Branch, Epoch, LeafEntry, Node, NodeIdx, NodeKind};
use crate::tree::RTree;
use crate::{MAX_ENTRIES, MIN_ENTRIES};
use disc_geom::{Aabb, FxHashMap, Point, PointId};

/// Batches smaller than this take the per-point path: the shared descent
/// only pays for itself once a few entries ride the same traversal.
pub(crate) const BULK_MIN: usize = 8;

/// Target fill of `tile`'s groups, leaving slack for subsequent inserts
/// (`bulk_load` packs through `tile` too).
const BULK_FILL: usize = MAX_ENTRIES * 3 / 4;

impl<const D: usize> RTree<D> {
    /// Core of the batched insert. Entries keep whatever epoch marks they
    /// carry (a reinserted orphan's visited status is a property of the
    /// point, not of its slot) and `len`/`inserts` bookkeeping is the
    /// caller's job — this is shared between `bulk_insert` and the orphan
    /// pass of `bulk_remove`.
    pub(crate) fn bulk_insert_entries(&mut self, mut entries: Vec<LeafEntry<D>>) {
        if entries.len() < BULK_MIN {
            for e in entries {
                let split = self.insert_rec_entry(self.root, self.height, e);
                if let Some((mbr, sib)) = split {
                    self.grow_root(mbr, sib);
                }
            }
            return;
        }
        // Sort by the first axis so consecutive entries tend to choose the
        // same branch and the cached choice below keeps hitting. Packing
        // is `tile`'s job: an overflowing node is re-tiled along every axis.
        entries.sort_by(|a, b| a.point[0].partial_cmp(&b.point[0]).unwrap());
        let sibs = self.bulk_insert_rec(self.root, self.height, entries);
        self.adopt_root_siblings(sibs);
    }

    /// Recursive batched insert. Distributes `entries` over the children of
    /// `idx`, recursing once per touched child, and resolves overflow with a
    /// single multi-way re-tile. Returns the extra sibling nodes created at
    /// this level; the visited node keeps the first tile.
    fn bulk_insert_rec(
        &mut self,
        idx: NodeIdx,
        level: usize,
        entries: Vec<LeafEntry<D>>,
    ) -> Vec<(Aabb<D>, NodeIdx)> {
        self.stats.bulk_nodes_visited += 1;
        if level == 1 {
            let overflow = {
                let NodeKind::Leaf(v) = &mut self.nodes[idx as usize].kind else {
                    unreachable!("level 1 node must be a leaf");
                };
                v.extend(entries);
                if v.len() <= MAX_ENTRIES {
                    return Vec::new();
                }
                std::mem::take(v)
            };
            let mut groups = tile(overflow, |e, axis| e.point[axis], D).into_iter();
            let first = groups.next().expect("tile yields at least one group");
            *self.node_mut(idx) = Node {
                kind: NodeKind::Leaf(first),
            };
            return groups
                .map(|g| {
                    let mut mbr = Aabb::empty();
                    for e in &g {
                        mbr.extend_point(&e.point);
                    }
                    let sib = self.alloc(Node {
                        kind: NodeKind::Leaf(g),
                    });
                    (mbr, sib)
                })
                .collect();
        }

        // Assign each entry to a child by least enlargement, exactly as the
        // per-point path would, but reuse the previous entry's choice while
        // the sorted run stays inside the same branch box (containment means
        // zero enlargement, which is already minimal).
        let n_branches = match &self.node(idx).kind {
            NodeKind::Internal(v) => v.len(),
            NodeKind::Leaf(_) => unreachable!("internal level node must be internal"),
        };
        let mut buckets: Vec<Vec<LeafEntry<D>>> = (0..n_branches).map(|_| Vec::new()).collect();
        {
            let NodeKind::Internal(v) = &mut self.nodes[idx as usize].kind else {
                unreachable!();
            };
            let mut last: Option<usize> = None;
            for e in entries {
                let slot = match last {
                    Some(s) if v[s].mbr.contains_point(&e.point) => s,
                    _ => Self::choose_branch(v, &e.point),
                };
                // Extend eagerly so later choices see the grown box, same as
                // sequential inserts would.
                v[slot].mbr.extend_point(&e.point);
                // The child gains unvisited entries: its subtree can no
                // longer be considered fully visited by a live MS-BFS.
                v[slot].epoch = Epoch::CLEAR;
                last = Some(slot);
                buckets[slot].push(e);
            }
        }

        for (slot, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let child = match &self.node(idx).kind {
                NodeKind::Internal(v) => v[slot].child,
                NodeKind::Leaf(_) => unreachable!(),
            };
            let extra = self.bulk_insert_rec(child, level - 1, bucket);
            if !extra.is_empty() {
                // The child re-tiled; its box changed arbitrarily.
                let child_mbr = self.node(child).mbr();
                let NodeKind::Internal(v) = &mut self.nodes[idx as usize].kind else {
                    unreachable!();
                };
                v[slot].mbr = child_mbr;
                for (mbr, sib) in extra {
                    v.push(Branch {
                        mbr,
                        child: sib,
                        epoch: Epoch::CLEAR,
                    });
                }
            }
        }

        if self.node(idx).len() <= MAX_ENTRIES {
            return Vec::new();
        }
        let overflow = {
            let NodeKind::Internal(v) = &mut self.nodes[idx as usize].kind else {
                unreachable!();
            };
            std::mem::take(v)
        };
        let mut groups = tile(overflow, |b, axis| b.mbr.center_along(axis), D).into_iter();
        let first = groups.next().expect("tile yields at least one group");
        *self.node_mut(idx) = Node {
            kind: NodeKind::Internal(first),
        };
        groups
            .map(|g| {
                let mut mbr = Aabb::empty();
                for b in &g {
                    mbr.extend(&b.mbr);
                }
                let sib = self.alloc(Node {
                    kind: NodeKind::Internal(g),
                });
                (mbr, sib)
            })
            .collect()
    }

    /// Grows the tree upward until the root plus its overflow siblings fit
    /// under a single node (a batched insert can spawn several siblings at
    /// once, unlike the per-point path's single split).
    fn adopt_root_siblings(&mut self, sibs: Vec<(Aabb<D>, NodeIdx)>) {
        if sibs.is_empty() {
            return;
        }
        let mut level: Vec<(Aabb<D>, NodeIdx)> = Vec::with_capacity(sibs.len() + 1);
        level.push((self.node(self.root).mbr(), self.root));
        level.extend(sibs);
        while level.len() > 1 {
            let branches: Vec<Branch<D>> = level
                .into_iter()
                .map(|(mbr, child)| Branch {
                    mbr,
                    child,
                    epoch: Epoch::CLEAR,
                })
                .collect();
            let groups = if branches.len() <= MAX_ENTRIES {
                vec![branches]
            } else {
                tile(branches, |b, axis| b.mbr.center_along(axis), D)
            };
            level = groups
                .into_iter()
                .map(|g| {
                    let mut mbr = Aabb::empty();
                    for b in &g {
                        mbr.extend(&b.mbr);
                    }
                    let idx = self.alloc(Node {
                        kind: NodeKind::Internal(g),
                    });
                    (mbr, idx)
                })
                .collect();
            self.height += 1;
        }
        self.root = level[0].1;
    }

    /// Recursive batched remove. `cands` is the subset of the batch that can
    /// live under `idx`; `pending` tracks ids not yet found anywhere.
    /// Returns the number of entries removed under this node.
    pub(crate) fn bulk_remove_rec(
        &mut self,
        idx: NodeIdx,
        level: usize,
        cands: &[(PointId, Point<D>)],
        pending: &mut FxHashMap<PointId, Point<D>>,
        orphans: &mut Vec<LeafEntry<D>>,
    ) -> usize {
        self.stats.bulk_nodes_visited += 1;
        if level == 1 {
            let NodeKind::Leaf(entries) = &mut self.nodes[idx as usize].kind else {
                unreachable!("level 1 node must be a leaf");
            };
            self.stats.bulk_leaf_scans += entries.len() as u64;
            let mut removed = 0usize;
            entries.retain(|e| match pending.remove(&e.id) {
                Some(p) => {
                    debug_assert_eq!(e.point, p, "id located at stale position");
                    removed += 1;
                    false
                }
                None => true,
            });
            return removed;
        }

        // Partition the candidates across children whose box could contain
        // them; recurse only where candidates remain.
        let branch_info: Vec<(usize, NodeIdx, Aabb<D>)> = match &self.node(idx).kind {
            NodeKind::Internal(v) => v
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.child, b.mbr))
                .collect(),
            NodeKind::Leaf(_) => unreachable!("internal level node must be internal"),
        };
        let mut removed = 0usize;
        let mut drops: Vec<usize> = Vec::new();
        let mut new_mbrs: Vec<(usize, Aabb<D>)> = Vec::new();
        let mut sub: Vec<(PointId, Point<D>)> = Vec::new();
        for (slot, child, mbr) in branch_info {
            sub.clear();
            sub.extend(
                cands
                    .iter()
                    .filter(|(id, p)| pending.contains_key(id) && mbr.contains_point(p)),
            );
            if sub.is_empty() {
                continue;
            }
            let r = self.bulk_remove_rec(child, level - 1, &sub, pending, orphans);
            if r == 0 {
                continue;
            }
            removed += r;
            if self.node(child).len() < MIN_ENTRIES {
                // Condense: orphan the whole subtree and drop the branch.
                self.collect_subtree(child, orphans);
                drops.push(slot);
            } else {
                new_mbrs.push((slot, self.node(child).mbr()));
            }
        }

        if removed > 0 {
            let NodeKind::Internal(v) = &mut self.nodes[idx as usize].kind else {
                unreachable!();
            };
            for (slot, mbr) in new_mbrs {
                v[slot].mbr = mbr;
            }
            if !drops.is_empty() {
                let mut keep = vec![true; v.len()];
                for slot in drops {
                    keep[slot] = false;
                }
                let mut flags = keep.into_iter();
                v.retain(|_| flags.next().expect("one flag per branch"));
            }
        }
        removed
    }
}

/// Sort-Tile-Recursive packing of an overflowing entry list (Leutenegger
/// et al., ICDE 1997) into near-equal groups of at most [`BULK_FILL`];
/// with `n > MAX_ENTRIES` every group lands within
/// `[MIN_ENTRIES, MAX_ENTRIES]`. See [`str_order`] for the cuts. Built from
/// empty, this gives one packed tree rather than a stack of thin slabs.
fn tile<T>(mut items: Vec<T>, coord: impl Fn(&T, usize) -> f64, dims: usize) -> Vec<Vec<T>> {
    debug_assert!(items.len() > MAX_ENTRIES);
    let n = items.len();
    let g = n.div_ceil(BULK_FILL);
    let base = n / g;
    let rem = n % g;
    debug_assert!(base >= MIN_ENTRIES, "tile group below minimum fill");
    let sizes: Vec<usize> = (0..g).map(|gi| base + usize::from(gi < rem)).collect();
    let axes: Vec<usize> = (0..dims).collect();
    str_order(&mut items, &sizes, &axes, &coord);

    let mut out = Vec::with_capacity(g);
    let mut it = items.into_iter();
    for take in sizes {
        out.push(it.by_ref().take(take).collect());
    }
    out
}

/// Orders `items` so that cutting them by `sizes` in sequence yields the
/// STR groups. Sorts along the axis of widest spread (of `coord(item,
/// axis)`, the first on ties), cuts the groups into slabs of whole groups
/// along it and recurses per slab on the remaining `axes`; the last axis
/// cuts the groups themselves.
///
/// The slab count aims at square tiles: side `(volume / g)^(1/k)` over the
/// items' extent, `k` axes left. That is STR's `⌈g^(1/k)⌉` for a square
/// set, and one group per slab for a flat one such as a stretch of
/// trajectory, which cutting across its thin axis would turn into
/// overlapping strips. Two groups always split once along the widest axis.
fn str_order<T>(
    items: &mut [T],
    sizes: &[usize],
    axes: &[usize],
    coord: &impl Fn(&T, usize) -> f64,
) {
    let g = sizes.len();
    if g < 2 {
        return;
    }
    let spread: Vec<f64> = axes
        .iter()
        .map(|&a| {
            let (lo, hi) = items
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), it| {
                    let c = coord(it, a);
                    (lo.min(c), hi.max(c))
                });
            hi - lo
        })
        .collect();
    let widest = (1..axes.len()).fold(0, |w, i| if spread[i] > spread[w] { i } else { w });
    let axis = axes[widest];
    items.sort_by(|a, b| coord(a, axis).total_cmp(&coord(b, axis)));
    if axes.len() == 1 {
        return;
    }

    let side = (spread.iter().product::<f64>() / g as f64).powf(1.0 / axes.len() as f64);
    let slabs = if side > 0.0 {
        ((spread[widest] / side).ceil() as usize).clamp(2, g)
    } else {
        g
    };
    let rest: Vec<usize> = axes.iter().copied().filter(|&a| a != axis).collect();
    let (per, extra) = (g / slabs, g % slabs);
    let (mut first_group, mut first_item) = (0usize, 0usize);
    for si in 0..slabs {
        let groups = &sizes[first_group..first_group + per + usize::from(si < extra)];
        let len: usize = groups.iter().sum();
        str_order(
            &mut items[first_item..first_item + len],
            groups,
            &rest,
            coord,
        );
        first_group += groups.len();
        first_item += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatialBackend;

    fn pts(n: u64, salt: u64) -> Vec<(PointId, Point<2>)> {
        let mut state = 0x2545_f491_4f6c_dd1du64 ^ salt;
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

    fn sorted_ids(tree: &mut RTree<2>, q: &Point<2>, eps: f64) -> Vec<PointId> {
        let mut ids = Vec::new();
        tree.ball_ids_into(q, eps, &mut ids);
        ids.sort();
        ids
    }

    #[test]
    fn bulk_insert_matches_per_point_inserts() {
        let items = pts(700, 1);
        let mut bulk: RTree<2> = RTree::new();
        let mut per: RTree<2> = RTree::new();
        for chunk in items.chunks(90) {
            bulk.bulk_insert(chunk.to_vec());
            bulk.check_invariants();
            for (id, p) in chunk {
                per.insert(*id, *p);
            }
        }
        assert_eq!(bulk.len(), items.len());
        for (_, q) in items.iter().step_by(41) {
            assert_eq!(sorted_ids(&mut bulk, q, 6.0), sorted_ids(&mut per, q, 6.0));
        }
    }

    #[test]
    fn bulk_insert_into_empty_tree() {
        let items = pts(300, 2);
        let mut t: RTree<2> = RTree::new();
        t.bulk_insert(items.clone());
        t.check_invariants();
        assert_eq!(t.len(), 300);
        for (_, q) in items.iter().step_by(29) {
            let want: usize = items.iter().filter(|(_, p)| q.within(p, 5.0)).count();
            assert_eq!(t.ball_count(q, 5.0), want);
        }
    }

    #[test]
    fn tiny_batches_fall_back_to_per_point() {
        let items = pts(BULK_MIN as u64 - 1, 3);
        let mut t: RTree<2> = RTree::new();
        t.bulk_insert(items.clone());
        assert_eq!(t.len(), items.len());
        assert_eq!(t.stats().bulk_insert_batches, 0);
        assert_eq!(t.stats().inserts, items.len() as u64);
        let removed = t.bulk_remove(&items);
        assert_eq!(removed, items.len());
        assert_eq!(t.stats().bulk_remove_batches, 0);
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn bulk_remove_matches_per_point_removes() {
        let items = pts(600, 4);
        let mut bulk = RTree::bulk_load(items.clone());
        let mut per = RTree::bulk_load(items.clone());
        for chunk in items.chunks(75) {
            let removed = bulk.bulk_remove(chunk);
            assert_eq!(removed, chunk.len());
            bulk.check_invariants();
            for (id, p) in chunk {
                assert!(per.remove(*id, *p));
            }
            let probe = Point::new([50.0, 50.0]);
            assert_eq!(
                sorted_ids(&mut bulk, &probe, 30.0),
                sorted_ids(&mut per, &probe, 30.0)
            );
        }
        assert!(bulk.is_empty());
        assert_eq!(bulk.height(), 1, "root must collapse back to a single leaf");
    }

    #[test]
    fn bulk_remove_skips_missing_ids() {
        let items = pts(100, 5);
        let mut t = RTree::bulk_load(items.clone());
        let mut batch: Vec<(PointId, Point<2>)> = items[..40].to_vec();
        batch.push((PointId(9_999), Point::new([1.0, 1.0])));
        assert_eq!(t.bulk_remove(&batch), 40);
        assert_eq!(t.len(), 60);
        t.check_invariants();
    }

    #[test]
    fn interleaved_bulk_slides_stay_consistent() {
        // Mimic the sliding-window pattern: remove the oldest stride, insert
        // a fresh one, repeatedly, and compare against a linear scan.
        let window = 400usize;
        let stride = 50usize;
        let all = pts(1200, 6);
        let mut t = RTree::bulk_load(all[..window].to_vec());
        let mut lo = 0usize;
        let mut hi = window;
        while hi + stride <= all.len() {
            assert_eq!(t.bulk_remove(&all[lo..lo + stride]), stride);
            t.bulk_insert(all[hi..hi + stride].to_vec());
            lo += stride;
            hi += stride;
            t.check_invariants();
            assert_eq!(t.len(), window);
            let q = all[lo + window / 2].1;
            let got = sorted_ids(&mut t, &q, 8.0);
            let mut want: Vec<PointId> = all[lo..hi]
                .iter()
                .filter(|(_, p)| q.within(p, 8.0))
                .map(|(id, _)| *id)
                .collect();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn multi_center_traversal_matches_repeated_single_queries() {
        let items = pts(500, 7);
        let mut t = RTree::bulk_load(items.clone());
        let centers: Vec<Point<2>> = items.iter().step_by(11).map(|(_, p)| *p).collect();
        let mut got: Vec<(usize, PointId)> = Vec::new();
        t.for_each_in_balls(&centers, 7.0, |ci, id, _| got.push((ci, id)));
        got.sort();
        let mut want: Vec<(usize, PointId)> = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            t.for_each_in_ball(c, 7.0, |id, _| want.push((ci, id)));
        }
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn multi_center_traversal_visits_fewer_nodes_than_per_point() {
        // Clustered centers share upper-level nodes; the batched walk must
        // descend them once, not once per center.
        let items = pts(2000, 8);
        let mut t = RTree::bulk_load(items.clone());
        let centers: Vec<Point<2>> = items[..100].iter().map(|(_, p)| *p).collect();
        t.reset_stats();
        t.for_each_in_balls(&centers, 2.0, |_, _, _| {});
        let batched = t.stats().bulk_nodes_visited;
        assert_eq!(t.stats().range_searches, centers.len() as u64);
        assert_eq!(t.stats().multi_ball_queries, 1);
        t.reset_stats();
        for c in &centers {
            t.for_each_in_ball(c, 2.0, |_, _| {});
        }
        let per_point = t.stats().nodes_visited;
        assert!(
            batched < per_point,
            "batched walk visited {batched} nodes, per-point {per_point}"
        );
    }

    #[test]
    fn empty_center_list_is_a_no_op() {
        let mut t = RTree::bulk_load(pts(50, 9));
        t.reset_stats();
        t.for_each_in_balls(&[], 5.0, |_, _, _| panic!("no centers, no calls"));
        assert_eq!(t.stats().range_searches, 0);
        assert_eq!(t.stats().multi_ball_queries, 0);
    }

    #[test]
    fn bulk_counters_track_batches() {
        let items = pts(300, 10);
        let mut t: RTree<2> = RTree::new();
        t.bulk_insert(items.clone());
        assert_eq!(t.stats().bulk_insert_batches, 1);
        assert_eq!(t.stats().inserts, 300);
        assert!(t.stats().bulk_nodes_visited > 0);
        let removed = t.bulk_remove(&items[..150]);
        assert_eq!(removed, 150);
        assert_eq!(t.stats().bulk_remove_batches, 1);
        assert_eq!(t.stats().removes, 150);
        assert!(t.stats().bulk_leaf_scans > 0);
    }

    /// Extent of each group along `axis`, in group order.
    fn extents(groups: &[Vec<Point<2>>], axis: usize) -> Vec<(f64, f64)> {
        groups
            .iter()
            .map(|g| {
                let lo = g.iter().map(|p| p[axis]).fold(f64::INFINITY, f64::min);
                let hi = g.iter().map(|p| p[axis]).fold(f64::NEG_INFINITY, f64::max);
                (lo, hi)
            })
            .collect()
    }

    #[test]
    fn tile_cuts_a_square_set_along_both_axes() {
        // 12 × 12 lattice: 12 groups of 12, in 4 slabs of 3.
        let items: Vec<Point<2>> = (0..144)
            .map(|i| Point::new([(i % 12) as f64, (i / 12) as f64]))
            .collect();
        let groups = tile(items, |p, axis| p[axis], 2);
        assert_eq!(groups.len(), 12);
        for (x, y) in extents(&groups, 0).into_iter().zip(extents(&groups, 1)) {
            assert!(x.1 - x.0 <= 3.0 && y.1 - y.0 <= 4.0, "{x:?} × {y:?}");
        }
    }

    #[test]
    fn tile_keeps_a_flat_run_in_one_row() {
        // A thin horizontal stretch: cutting it across y would give
        // overlapping strips, so every group takes its own x-interval.
        let items: Vec<Point<2>> = (0..48)
            .map(|i| Point::new([i as f64, 0.01 * (i % 3) as f64]))
            .collect();
        let groups = tile(items, |p, axis| p[axis], 2);
        assert_eq!(groups.len(), 4);
        let xs = extents(&groups, 0);
        assert!(xs.windows(2).all(|w| w[0].1 < w[1].0), "{xs:?}");
    }

    #[test]
    fn tile_respects_fill_bounds() {
        for n in (MAX_ENTRIES + 1)..=(MAX_ENTRIES * 6) {
            let items: Vec<Point<2>> = (0..n)
                .map(|i| Point::new([i as f64, (i * 7 % 13) as f64]))
                .collect();
            let groups = tile(items, |p, axis| p[axis], 2);
            let total: usize = groups.iter().map(Vec::len).sum();
            assert_eq!(total, n);
            for g in &groups {
                assert!(
                    g.len() >= MIN_ENTRIES,
                    "n={n}: group of {} too small",
                    g.len()
                );
                assert!(
                    g.len() <= MAX_ENTRIES,
                    "n={n}: group of {} too large",
                    g.len()
                );
            }
        }
    }

    #[test]
    fn duplicate_coordinates_survive_bulk_paths() {
        let p = Point::new([1.0, 1.0]);
        let items: Vec<(PointId, Point<2>)> = (0..60).map(|i| (PointId(i), p)).collect();
        let mut t: RTree<2> = RTree::new();
        t.bulk_insert(items.clone());
        t.check_invariants();
        assert_eq!(t.ball_count(&p, 0.0), 60);
        assert_eq!(t.bulk_remove(&items[10..30]), 20);
        t.check_invariants();
        assert_eq!(t.ball_count(&p, 0.0), 40);
    }
}
