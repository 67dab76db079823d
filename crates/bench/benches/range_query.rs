//! Criterion micro-bench: R-tree ε-range queries, plain vs epoch-probed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use disc_geom::{Point, PointId};
use disc_index::{ProbeOutcome, RTree, SpatialBackend};
use disc_window::datasets;

fn build_tree(n: usize) -> (RTree<2>, Vec<Point<2>>) {
    let recs = datasets::dtg_like(n, 7);
    let items: Vec<(PointId, Point<2>)> = recs
        .iter()
        .enumerate()
        .map(|(i, r)| (PointId(i as u64), r.point))
        .collect();
    let queries: Vec<Point<2>> = recs.iter().step_by(97).map(|r| r.point).collect();
    (RTree::bulk_load(items), queries)
}

fn bench_plain_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_query/plain");
    for n in [4_000usize, 16_000] {
        let (mut tree, queries) = build_tree(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut qi = 0usize;
            b.iter(|| {
                let q = &queries[qi % queries.len()];
                qi += 1;
                std::hint::black_box(tree.ball_count(q, 0.45))
            });
        });
    }
    group.finish();
}

fn bench_epoch_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_query/epoch_probe");
    for n in [4_000usize, 16_000] {
        let (mut tree, queries) = build_tree(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut out = ProbeOutcome::default();
            let mut qi = 0usize;
            b.iter(|| {
                // Fresh instance per iteration: measures the probe itself.
                let probe = tree.begin_epoch();
                let q = &queries[qi % queries.len()];
                qi += 1;
                out.clear();
                let mut resolve = |o: u32| o;
                let mut all = |_: PointId| true;
                tree.epoch_probe(probe, q, 0.45, 0, &mut resolve, &mut all, &mut out);
                std::hint::black_box(out.fresh.len())
            });
        });
    }
    group.finish();
}

fn bench_insert_remove(c: &mut Criterion) {
    c.bench_function("range_query/insert_remove_cycle", |b| {
        let (mut tree, _) = build_tree(8_000);
        let mut i = 1_000_000u64;
        b.iter(|| {
            let p = Point::new([50.0 + (i % 97) as f64 * 0.01, 50.0]);
            tree.insert(PointId(i), p);
            assert!(tree.remove(PointId(i), p));
            i += 1;
        });
    });
}

criterion_group!(
    benches,
    bench_plain_query,
    bench_epoch_probe,
    bench_insert_remove
);
criterion_main!(benches);
