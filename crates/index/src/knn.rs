//! k-nearest-neighbour search (best-first branch-and-bound).
//!
//! Used by the parameter-estimation helper (`disc-core::kdistance`): the
//! paper selects ε via the K-distance graph method of Ester et al. /
//! Schubert et al., which needs the distance to each point's k-th
//! neighbour.

use crate::node::{NodeIdx, NodeKind};
use crate::tree::RTree;
use disc_geom::{Point, PointId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap entry over candidate results.
struct Candidate {
    dist2: f64,
    id: PointId,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist2.total_cmp(&other.dist2)
    }
}

/// Min-heap entry over tree nodes, keyed by the lower bound on distance.
struct Frontier {
    bound2: f64,
    node: NodeIdx,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.bound2 == other.bound2
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the nearest node.
        other.bound2.total_cmp(&self.bound2)
    }
}

impl<const D: usize> RTree<D> {
    /// The `k` indexed points nearest to `center` (including an indexed
    /// point at the query location itself, if any), as `(id, distance)`
    /// sorted by ascending distance. Returns fewer than `k` entries only
    /// when the tree is smaller than `k`.
    pub fn nearest(&mut self, center: &Point<D>, k: usize) -> Vec<(PointId, f64)> {
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        self.stats.range_searches += 1;
        let mut best: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
        let mut frontier: BinaryHeap<Frontier> = BinaryHeap::new();
        frontier.push(Frontier {
            bound2: 0.0,
            node: self.root,
        });

        while let Some(Frontier { bound2, node }) = frontier.pop() {
            if best.len() == k && bound2 > best.peek().expect("non-empty").dist2 {
                break; // every remaining node is farther than the k-th best
            }
            self.stats.nodes_visited += 1;
            match &self.nodes[node as usize].kind {
                NodeKind::Leaf(entries) => {
                    self.stats.distance_checks += entries.len() as u64;
                    for e in entries {
                        let d2 = center.dist2(&e.point);
                        if best.len() < k {
                            best.push(Candidate {
                                dist2: d2,
                                id: e.id,
                            });
                        } else if d2 < best.peek().expect("non-empty").dist2 {
                            best.pop();
                            best.push(Candidate {
                                dist2: d2,
                                id: e.id,
                            });
                        }
                    }
                }
                NodeKind::Internal(branches) => {
                    for b in branches {
                        let lb = b.mbr.dist2_to_point(center);
                        if best.len() < k || lb <= best.peek().expect("non-empty").dist2 {
                            frontier.push(Frontier {
                                bound2: lb,
                                node: b.child,
                            });
                        }
                    }
                }
            }
        }

        let mut out: Vec<(PointId, f64)> = best
            .into_sorted_vec()
            .into_iter()
            .map(|c| (c.id, c.dist2.sqrt()))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }

    /// Distance from `center` to its k-th nearest indexed point
    /// (1-indexed: `k = 1` is the nearest). `None` if fewer than `k`
    /// points are indexed.
    pub fn kth_distance(&mut self, center: &Point<D>, k: usize) -> Option<f64> {
        let nn = self.nearest(center, k);
        if nn.len() < k {
            None
        } else {
            Some(nn[k - 1].1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatialBackend;

    fn grid(n: usize) -> RTree<2> {
        let mut t = RTree::new();
        let mut id = 0u64;
        for x in 0..n {
            for y in 0..n {
                t.insert(PointId(id), Point::new([x as f64, y as f64]));
                id += 1;
            }
        }
        t
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let mut t = grid(12);
        let pts: Vec<(PointId, Point<2>)> = {
            let mut v = Vec::new();
            t.for_each(|id, p| v.push((id, *p)));
            v
        };
        for (qx, qy) in [(0.2, 0.7), (5.5, 5.5), (11.9, 0.1), (-3.0, 6.0)] {
            let q = Point::new([qx, qy]);
            let got = t.nearest(&q, 7);
            let mut want: Vec<(PointId, f64)> =
                pts.iter().map(|(id, p)| (*id, q.dist(p))).collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1));
            want.truncate(7);
            assert_eq!(got.len(), 7);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.1 - w.1).abs() < 1e-12, "{got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn k_larger_than_tree_returns_everything() {
        let mut t = grid(2);
        let got = t.nearest(&Point::new([0.0, 0.0]), 10);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].1, 0.0);
    }

    #[test]
    fn kth_distance_is_sorted_cutoff() {
        let mut t = grid(5);
        let q = Point::new([2.0, 2.0]);
        assert_eq!(t.kth_distance(&q, 1), Some(0.0));
        assert_eq!(t.kth_distance(&q, 2), Some(1.0));
        assert_eq!(t.kth_distance(&q, 5), Some(1.0));
        assert!((t.kth_distance(&q, 6).unwrap() - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(t.kth_distance(&q, 26), None);
    }

    #[test]
    fn zero_k_and_empty_tree() {
        let mut t: RTree<2> = RTree::new();
        assert!(t.nearest(&Point::new([0.0, 0.0]), 3).is_empty());
        let mut t = grid(3);
        assert!(t.nearest(&Point::new([0.0, 0.0]), 0).is_empty());
    }
}
