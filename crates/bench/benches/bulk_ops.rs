//! Criterion micro-bench: batched slide mutations vs per-point, and
//! multi-center ε-ball traversal vs repeated single-center queries.
//!
//! Covers stride ratios of 1%, 5% and 10% at windows of 4k and 32k points,
//! mirroring `slide_update.rs` conventions (dtg-like data, ε = 0.45). A
//! final non-timed target prints the `Stats` node-visit counters at the 5%
//! stride so the traversal saving is visible next to the wall-clock numbers.

use std::collections::VecDeque;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use disc_geom::{Point, PointId};
use disc_index::{RTree, SpatialBackend};
use disc_window::datasets;

const EPS: f64 = 0.45;
const WINDOWS: [usize; 2] = [4_000, 32_000];
const STRIDE_PCTS: [usize; 3] = [1, 5, 10];

/// Endless stream of stride-sized batches with fresh, increasing ids.
struct StrideStream {
    pts: Vec<Point<2>>,
    pos: usize,
    next_id: u64,
    stride: usize,
}

impl StrideStream {
    fn new(window: usize, stride: usize) -> Self {
        let recs = datasets::dtg_like(window + stride * 64, 7);
        StrideStream {
            pts: recs.iter().map(|r| r.point).collect(),
            pos: 0,
            next_id: 0,
            stride,
        }
    }

    fn next_stride(&mut self) -> Vec<(PointId, Point<2>)> {
        (0..self.stride)
            .map(|_| {
                let p = self.pts[self.pos];
                self.pos = (self.pos + 1) % self.pts.len();
                let id = PointId(self.next_id);
                self.next_id += 1;
                (id, p)
            })
            .collect()
    }
}

/// Builds a window-sized tree plus the queue of strides it holds.
fn fill(
    window: usize,
    stride: usize,
) -> (RTree<2>, VecDeque<Vec<(PointId, Point<2>)>>, StrideStream) {
    let mut stream = StrideStream::new(window, stride);
    let mut queue: VecDeque<Vec<(PointId, Point<2>)>> = VecDeque::new();
    let mut all: Vec<(PointId, Point<2>)> = Vec::with_capacity(window);
    for _ in 0..window / stride {
        let s = stream.next_stride();
        all.extend_from_slice(&s);
        queue.push_back(s);
    }
    (RTree::bulk_load(all), queue, stream)
}

fn bench_slide_mutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulk_ops/slide_mutation");
    for window in WINDOWS {
        for pct in STRIDE_PCTS {
            let stride = window * pct / 100;
            let tag = format!("{window}x{pct}pct");
            group.bench_with_input(BenchmarkId::new("per_point", &tag), &stride, |b, _| {
                let (mut tree, mut queue, mut stream) = fill(window, stride);
                b.iter(|| {
                    let incoming = stream.next_stride();
                    for (id, p) in &incoming {
                        tree.insert(*id, *p);
                    }
                    let outgoing = queue.pop_front().expect("window holds strides");
                    for (id, p) in &outgoing {
                        assert!(tree.remove(*id, *p));
                    }
                    queue.push_back(incoming);
                    std::hint::black_box(tree.len())
                });
            });
            group.bench_with_input(BenchmarkId::new("bulk", &tag), &stride, |b, _| {
                let (mut tree, mut queue, mut stream) = fill(window, stride);
                b.iter(|| {
                    let incoming = stream.next_stride();
                    tree.bulk_insert(incoming.clone());
                    let outgoing = queue.pop_front().expect("window holds strides");
                    assert_eq!(tree.bulk_remove(&outgoing), outgoing.len());
                    queue.push_back(incoming);
                    std::hint::black_box(tree.len())
                });
            });
        }
    }
    group.finish();
}

/// One stride's worth of query centers. Taken as a contiguous chunk of the
/// stream, exactly like the COLLECT phases do: a stride is temporally
/// adjacent, so its points are spatially clustered and the multi-center
/// walk can retire centers early.
fn centers_for(tree_pts: &[Point<2>], stride: usize) -> Vec<Point<2>> {
    tree_pts[..stride.min(tree_pts.len())].to_vec()
}

fn bench_ball_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulk_ops/ball_queries");
    for window in WINDOWS {
        for pct in STRIDE_PCTS {
            let stride = window * pct / 100;
            let tag = format!("{window}x{pct}pct");
            let recs = datasets::dtg_like(window, 7);
            let pts: Vec<Point<2>> = recs.iter().map(|r| r.point).collect();
            let items: Vec<(PointId, Point<2>)> = pts
                .iter()
                .enumerate()
                .map(|(i, p)| (PointId(i as u64), *p))
                .collect();
            let centers = centers_for(&pts, stride);
            group.bench_with_input(BenchmarkId::new("single_center", &tag), &stride, |b, _| {
                let mut tree = RTree::bulk_load(items.clone());
                b.iter(|| {
                    let mut hits = 0usize;
                    for cpos in &centers {
                        tree.for_each_in_ball(cpos, EPS, |_, _| hits += 1);
                    }
                    std::hint::black_box(hits)
                });
            });
            group.bench_with_input(BenchmarkId::new("multi_center", &tag), &stride, |b, _| {
                let mut tree = RTree::bulk_load(items.clone());
                b.iter(|| {
                    let mut hits = 0usize;
                    tree.for_each_in_balls(&centers, EPS, |_, _, _| hits += 1);
                    std::hint::black_box(hits)
                });
            });
        }
    }
    group.finish();
}

/// Not a timing target: prints the node-visit counters at the 5% stride so
/// the structural saving of the shared traversal is on record alongside the
/// criterion numbers.
fn report_node_visits(_c: &mut Criterion) {
    println!("\nnode visits at 5% stride (Stats counters, one query round)");
    for window in WINDOWS {
        let stride = window / 20;
        let recs = datasets::dtg_like(window, 7);
        let pts: Vec<Point<2>> = recs.iter().map(|r| r.point).collect();
        let items: Vec<(PointId, Point<2>)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (PointId(i as u64), *p))
            .collect();
        let centers = centers_for(&pts, stride);
        let mut tree = RTree::bulk_load(items);

        tree.reset_stats();
        let mut hits_single = 0usize;
        for cpos in &centers {
            tree.for_each_in_ball(cpos, EPS, |_, _| hits_single += 1);
        }
        let per_point = tree.stats().nodes_visited;

        tree.reset_stats();
        let mut hits_multi = 0usize;
        tree.for_each_in_balls(&centers, EPS, |_, _, _| hits_multi += 1);
        let batched = tree.stats().bulk_nodes_visited;

        assert_eq!(hits_single, hits_multi, "traversals must agree");
        let ratio = per_point as f64 / batched.max(1) as f64;
        println!(
            "  window {window:>6}, {len:>5} centers: per-point {per_point:>8} visits, \
             batched {batched:>8} visits ({ratio:.2}x fewer)",
            len = centers.len(),
        );
    }
    println!();
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(10);
    targets = bench_slide_mutation, bench_ball_queries, report_node_visits
}
criterion_main!(group);
