//! Tree quality of from-scratch builds: a tree packed in one go (a batched
//! insert into an empty tree, or `bulk_load`) must answer ε-queries at
//! least as cheaply as one grown by per-point inserts. A packer that cuts
//! along one axis only builds thin slabs, and every query then crosses
//! several of them.

use disc_geom::{Point, PointId};
use disc_index::{RTree, SpatialBackend, Stats};

const EPS: f64 = 0.6;

/// 16 000 points in 64 Gaussian clusters (σ = 1.5) over a 100 × 100
/// square, in cluster-interleaved order like a stream's arrivals.
fn clustered() -> Vec<(PointId, Point<2>)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    };
    let centers: Vec<[f64; 2]> = (0..64)
        .map(|_| [5.0 + 90.0 * unit(), 5.0 + 90.0 * unit()])
        .collect();
    (0..16_000u64)
        .map(|i| {
            let c = centers[(i % 64) as usize];
            // Box–Muller: two independent standard normals.
            let r = (-2.0 * unit().ln()).sqrt() * 1.5;
            let t = std::f64::consts::TAU * unit();
            (
                PointId(i),
                Point::new([c[0] + r * t.cos(), c[1] + r * t.sin()]),
            )
        })
        .collect()
}

/// Query cost of ε-balls centred on every 8th point.
fn query_cost(tree: &mut RTree<2>, items: &[(PointId, Point<2>)]) -> Stats {
    tree.reset_stats();
    for (_, q) in items.iter().step_by(8) {
        tree.ball_count(q, EPS);
    }
    *tree.stats()
}

#[test]
fn packed_builds_query_no_worse_than_per_point_inserts() {
    let items = clustered();
    let mut per_point: RTree<2> = RTree::new();
    for (id, p) in &items {
        per_point.insert(*id, *p);
    }
    let mut bulk_insert: RTree<2> = RTree::new();
    bulk_insert.bulk_insert(items.clone());
    let mut bulk_load = RTree::bulk_load(items.clone());
    for t in [&per_point, &bulk_insert, &bulk_load] {
        t.check_invariants();
        assert_eq!(t.len(), items.len());
    }

    let base = query_cost(&mut per_point, &items);
    for (name, tree) in [
        ("bulk_insert", &mut bulk_insert),
        ("bulk_load", &mut bulk_load),
    ] {
        let got = query_cost(tree, &items);
        assert_eq!(got.range_searches, base.range_searches);
        assert!(
            got.distance_checks <= base.distance_checks,
            "{name}: {} distance checks against {} for per-point inserts",
            got.distance_checks,
            base.distance_checks
        );
        assert!(
            got.nodes_visited <= base.nodes_visited,
            "{name}: {} nodes visited against {} for per-point inserts",
            got.nodes_visited,
            base.nodes_visited
        );
    }
}
