//! Property tests: the R-tree must agree with a linear-scan oracle under
//! arbitrary interleavings of inserts and deletes, and the epoch probe must
//! return exactly the unvisited subset.

use disc_geom::{Point, PointId};
use disc_index::{ProbeOutcome, RTree, SpatialBackend};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        x: f64,
        y: f64,
    },
    /// Remove the k-th live point (mod live count).
    Remove(usize),
    Query {
        x: f64,
        y: f64,
        eps: f64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (-50.0..50.0f64, -50.0..50.0f64).prop_map(|(x, y)| Op::Insert { x, y }),
        1 => (0usize..1000).prop_map(Op::Remove),
        2 => (-50.0..50.0f64, -50.0..50.0f64, 0.1..20.0f64)
            .prop_map(|(x, y, eps)| Op::Query { x, y, eps }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_matches_linear_scan(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut tree: RTree<2> = RTree::new();
        let mut oracle: Vec<(PointId, Point<2>)> = Vec::new();
        let mut next_id = 0u64;

        for op in ops {
            match op {
                Op::Insert { x, y } => {
                    let id = PointId(next_id);
                    next_id += 1;
                    let p = Point::new([x, y]);
                    tree.insert(id, p);
                    oracle.push((id, p));
                }
                Op::Remove(k) => {
                    if oracle.is_empty() {
                        continue;
                    }
                    let (id, p) = oracle.swap_remove(k % oracle.len());
                    prop_assert!(tree.remove(id, p));
                }
                Op::Query { x, y, eps } => {
                    let q = Point::new([x, y]);
                    let mut got = Vec::new();
                    tree.ball_ids_into(&q, eps, &mut got);
                    got.sort();
                    let mut want: Vec<PointId> = oracle
                        .iter()
                        .filter(|(_, p)| q.within(p, eps))
                        .map(|(id, _)| *id)
                        .collect();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), oracle.len());
        }
        tree.check_invariants();
    }

    #[test]
    fn bulk_mutations_match_per_point_mutations(
        strides in prop::collection::vec(
            prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 1..60),
            1..8,
        ),
        queries in prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64, 0.5..20.0f64), 1..10),
    ) {
        // Two trees fed the same random strides, one through the batched
        // mutations and one per point, must answer every ball query
        // identically and both stay structurally valid. Strides slide:
        // each round inserts the new stride and removes the previous one.
        let mut bulk: RTree<2> = RTree::new();
        let mut per: RTree<2> = RTree::new();
        let mut next_id = 0u64;
        let mut prev: Vec<(PointId, Point<2>)> = Vec::new();

        for stride in strides {
            let items: Vec<(PointId, Point<2>)> = stride
                .iter()
                .map(|&(x, y)| {
                    let id = PointId(next_id);
                    next_id += 1;
                    (id, Point::new([x, y]))
                })
                .collect();
            bulk.bulk_insert(items.clone());
            for (id, p) in &items {
                per.insert(*id, *p);
            }
            prop_assert_eq!(bulk.bulk_remove(&prev), prev.len());
            for (id, p) in &prev {
                prop_assert!(per.remove(*id, *p));
            }
            bulk.check_invariants();
            prop_assert_eq!(bulk.len(), per.len());
            prev = items;

            for &(x, y, eps) in &queries {
                let q = Point::new([x, y]);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                bulk.ball_ids_into(&q, eps, &mut got);
                got.sort();
                per.ball_ids_into(&q, eps, &mut want);
                want.sort();
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn multi_center_traversal_matches_per_center_queries(
        points in prop::collection::vec((-30.0..30.0f64, -30.0..30.0f64), 1..150),
        centers in prop::collection::vec((-30.0..30.0f64, -30.0..30.0f64), 1..40),
        eps in 0.5..15.0f64,
    ) {
        let items: Vec<(PointId, Point<2>)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (PointId(i as u64), Point::new([x, y])))
            .collect();
        let mut tree = RTree::bulk_load(items.clone());
        let centers: Vec<Point<2>> = centers
            .iter()
            .map(|&(x, y)| Point::new([x, y]))
            .collect();
        let mut got: Vec<(usize, PointId)> = Vec::new();
        tree.for_each_in_balls(&centers, eps, |ci, id, _| got.push((ci, id)));
        got.sort();
        let mut want: Vec<(usize, PointId)> = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            tree.for_each_in_ball(c, eps, |id, _| want.push((ci, id)));
        }
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn epoch_probe_partitions_hits(
        points in prop::collection::vec((-20.0..20.0f64, -20.0..20.0f64), 5..120),
        queries in prop::collection::vec((-20.0..20.0f64, -20.0..20.0f64, 1.0..15.0f64), 1..20),
    ) {
        let items: Vec<(PointId, Point<2>)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (PointId(i as u64), Point::new([x, y])))
            .collect();
        let mut tree = RTree::bulk_load(items.clone());
        let probe = tree.begin_epoch();
        let mut seen: std::collections::BTreeSet<PointId> = Default::default();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;

        // All probes from the same "thread": across the whole instance every
        // in-range point must be reported fresh exactly once, never foreign.
        for (x, y, eps) in queries {
            let q = Point::new([x, y]);
            out.clear();
            tree.epoch_probe(probe, &q, eps, 0, &mut resolve, &mut all, &mut out);
            prop_assert!(out.foreign.is_empty());
            let in_range: std::collections::BTreeSet<PointId> = items
                .iter()
                .filter(|(_, p)| q.within(p, eps))
                .map(|(id, _)| *id)
                .collect();
            let fresh: std::collections::BTreeSet<PointId> =
                out.fresh.iter().map(|(id, _)| *id).collect();
            // fresh == in_range minus already-seen
            let expected: std::collections::BTreeSet<PointId> =
                in_range.difference(&seen).copied().collect();
            prop_assert_eq!(&fresh, &expected);
            seen.extend(in_range);
        }
    }

    #[test]
    fn two_threads_cover_without_overlap(
        points in prop::collection::vec((-20.0..20.0f64, -20.0..20.0f64), 10..100),
    ) {
        // Thread 0 probes the left half, thread 1 the right half, both with
        // balls big enough to overlap in the middle: fresh sets must be
        // disjoint and foreign hits must point at the other thread.
        let items: Vec<(PointId, Point<2>)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (PointId(i as u64), Point::new([x, y])))
            .collect();
        let mut tree = RTree::bulk_load(items.clone());
        let probe = tree.begin_epoch();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;

        let mut out0 = ProbeOutcome::default();
        tree.epoch_probe(probe, &Point::new([-5.0, 0.0]), 25.0, 0, &mut resolve, &mut all, &mut out0);
        let mut out1 = ProbeOutcome::default();
        tree.epoch_probe(probe, &Point::new([5.0, 0.0]), 25.0, 1, &mut resolve, &mut all, &mut out1);

        let f0: std::collections::BTreeSet<PointId> = out0.fresh.iter().map(|(id, _)| *id).collect();
        let f1: std::collections::BTreeSet<PointId> = out1.fresh.iter().map(|(id, _)| *id).collect();
        prop_assert!(f0.is_disjoint(&f1));
        for (id, owner) in &out1.foreign {
            prop_assert_eq!(*owner, 0u32);
            prop_assert!(f0.contains(id));
        }
        // Every point of thread-1's ball is either fresh for 1 or foreign.
        let q1 = Point::new([5.0, 0.0]);
        for (id, p) in &items {
            if q1.within(p, 25.0) {
                let foreign_ids: Vec<PointId> = out1.foreign.iter().map(|(id, _)| *id).collect();
                prop_assert!(f1.contains(id) || foreign_ids.contains(id));
            }
        }
    }
}
