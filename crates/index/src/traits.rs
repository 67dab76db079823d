//! The pluggable spatial-backend contract.
//!
//! DISC's COLLECT/CLUSTER/MS-BFS machinery (Algs. 1–4) never depends on the
//! *structure* of the neighbourhood index — only on exact ε-range answers,
//! batched mutation, and epoch-stamped "visited" probing. [`SpatialBackend`]
//! captures exactly that contract so the engine can be instantiated over any
//! index: the paper's R-tree ([`RTree`]), the uniform grid
//! ([`GridIndex`](crate::GridIndex)), or future backends.
//!
//! ## Contract
//!
//! * **Exactness** — every ball query reports *exactly* the stored points
//!   within Euclidean distance `eps` of the center (inclusive, matching
//!   `N_ε`). No backend may approximate.
//! * **Accounting** — every query entry point updates the shared [`Stats`]
//!   counters. `nodes_visited` counts whatever the backend's traversal unit
//!   is (tree nodes, grid cells); `distance_checks` counts point-to-point
//!   distance evaluations. The Fig. 7 comparisons read these.
//! * **Epoch marks** — visited marks live *inside* the index as
//!   `(tick, owner)` pairs (the owner-aware deviation from the paper's
//!   Alg. 4, see [`crate::epoch`]). [`begin_epoch`] starts an MS-BFS
//!   instance; [`epoch_probe`] reports unvisited in-range vertices as
//!   `fresh` (marking them), already-visited vertices of *another* thread
//!   as `foreign`, and prunes whole regions uniformly owned by the probing
//!   thread. Owners are resolved through the caller-provided union-find so
//!   merged threads count as one.
//! * **`eps_hint`** — the ε every ball query of the owning engine will use.
//!   Cell-based backends size their partition from it; others ignore it.
//!   Queries with a *different* eps remain legal and exact everywhere.
//!
//! [`begin_epoch`]: SpatialBackend::begin_epoch
//! [`epoch_probe`]: SpatialBackend::epoch_probe

use crate::epoch::{EpochProbe, ProbeOutcome};
use crate::stats::Stats;
use crate::tree::RTree;
use disc_geom::{Point, PointId};

/// An exact ε-range index over `D`-dimensional points, with the batched
/// mutation and epoch-probe entry points DISC needs.
///
/// Closure-taking methods are generic (not `dyn`) so call sites written
/// against the concrete [`RTree`] keep compiling unchanged; the trait is
/// consequently not object-safe — backends are selected by type parameter,
/// which is also what lets the compiler specialise the hot paths.
///
/// `Send + Sync` is part of the contract: the parallel slide engine shares a
/// frozen `&B` snapshot across workers during its read-only scan phases
/// ([`scan_ball`](Self::scan_ball) / [`scan_balls`](Self::scan_balls)). Both
/// shipped backends are plain owned data, so the bounds are free.
///
/// [`MemoryFootprint`](disc_telemetry::MemoryFootprint) is likewise part of
/// the contract: the engine publishes per-component byte gauges every slide,
/// and the paper's headline claim is a *memory* comparison — a backend that
/// cannot account for its own bytes cannot participate in the ablation.
pub trait SpatialBackend<const D: usize>: Send + Sync + disc_telemetry::MemoryFootprint {
    /// Short name for reports and ablation tables (e.g. `"rtree"`).
    const NAME: &'static str;

    /// Creates an empty index. `eps_hint` is the ε the owning engine will
    /// query with (see the module docs); it must be positive and finite.
    fn with_eps_hint(eps_hint: f64) -> Self;

    /// Builds an index over `items` in one shot (rebuild-per-slide
    /// baselines). Counts `items.len()` inserts.
    fn from_batch(eps_hint: f64, items: Vec<(PointId, Point<D>)>) -> Self
    where
        Self: Sized,
    {
        let mut index = Self::with_eps_hint(eps_hint);
        index.bulk_insert(items);
        index
    }

    /// Number of stored points.
    fn len(&self) -> usize;

    /// Whether the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read access to the operation counters.
    fn stats(&self) -> &Stats;

    /// Resets the operation counters.
    fn reset_stats(&mut self);

    /// Mutable access to the operation counters, so per-worker [`Stats`]
    /// deltas from the `scan_*` methods can be merged back (in task order —
    /// see [`Stats::merge`]) after a parallel phase.
    fn stats_mut(&mut self) -> &mut Stats;

    /// Inserts a point. Duplicate `(id, point)` pairs are the caller's
    /// responsibility.
    fn insert(&mut self, id: PointId, point: Point<D>);

    /// Removes the entry for `id` at `point`; returns whether it was found.
    fn remove(&mut self, id: PointId, point: Point<D>) -> bool;

    /// Inserts a batch, amortising traversal work where the backend can.
    fn bulk_insert(&mut self, items: Vec<(PointId, Point<D>)>);

    /// Removes a batch; returns how many entries were found and removed.
    fn bulk_remove(&mut self, items: &[(PointId, Point<D>)]) -> usize;

    /// Calls `f(id, point)` for every stored point within `eps` of
    /// `center` (inclusive), in unspecified order.
    fn for_each_in_ball<F: FnMut(PointId, &Point<D>)>(&mut self, center: &Point<D>, eps: f64, f: F);

    /// Read-only flavour of [`for_each_in_ball`](Self::for_each_in_ball):
    /// identical answers and traversal order, but counters accumulate into
    /// the caller-supplied `stats` instead of the index's own. This is the
    /// parallel-engine entry point — many workers may scan one shared `&self`
    /// concurrently, each with a private `Stats`, merged afterwards.
    fn scan_ball<F: FnMut(PointId, &Point<D>)>(
        &self,
        center: &Point<D>,
        eps: f64,
        f: F,
        stats: &mut Stats,
    );

    /// Clears `out` and fills it with the ids within `eps` of `center`.
    fn ball_ids_into(&mut self, center: &Point<D>, eps: f64, out: &mut Vec<PointId>) {
        out.clear();
        self.for_each_in_ball(center, eps, |id, _| out.push(id));
    }

    /// Counts the points within `eps` of `center`.
    fn ball_count(&mut self, center: &Point<D>, eps: f64) -> usize {
        let mut n = 0usize;
        self.for_each_in_ball(center, eps, |_, _| n += 1);
        n
    }

    /// Multi-center ε-ball traversal: calls `f(ci, id, point)` for every
    /// `(center index, stored point)` pair with `point` within `eps` of
    /// `centers[ci]`. A point in range of several centers is reported once
    /// per center. Backends overlap the per-center work where they can.
    fn for_each_in_balls<F: FnMut(usize, PointId, &Point<D>)>(
        &mut self,
        centers: &[Point<D>],
        eps: f64,
        f: F,
    );

    /// Read-only flavour of [`for_each_in_balls`](Self::for_each_in_balls)
    /// with caller-supplied counters; same sharing contract as
    /// [`scan_ball`](Self::scan_ball).
    fn scan_balls<F: FnMut(usize, PointId, &Point<D>)>(
        &self,
        centers: &[Point<D>],
        eps: f64,
        f: F,
        stats: &mut Stats,
    );

    /// Iterates over every stored `(id, point)` pair (diagnostics/tests).
    fn for_each<F: FnMut(PointId, &Point<D>)>(&self, f: F);

    /// Starts a new MS-BFS instance: allocates a fresh tick, implicitly
    /// staling every mark of earlier instances.
    fn begin_epoch(&mut self) -> EpochProbe;

    /// Marks the entry for `id` (stored at `center`) as visited by `owner`
    /// for this instance; returns whether the entry was found.
    fn mark_visited(
        &mut self,
        probe: EpochProbe,
        center: &Point<D>,
        id: PointId,
        owner: u32,
    ) -> bool;

    /// One epoch-based ε-range search on behalf of MS-BFS thread `thread`
    /// (its *current union-find root*). See the module docs for the
    /// fresh/foreign/prune semantics shared by all backends.
    #[allow(clippy::too_many_arguments)]
    fn epoch_probe(
        &mut self,
        probe: EpochProbe,
        center: &Point<D>,
        eps: f64,
        thread: u32,
        resolve: &mut dyn FnMut(u32) -> u32,
        is_vertex: &mut dyn FnMut(PointId) -> bool,
        out: &mut ProbeOutcome<D>,
    );

    /// Validates internal invariants exhaustively (test helper).
    fn check_invariants(&self);
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
        RTree::len(self)
    }

    fn stats(&self) -> &Stats {
        RTree::stats(self)
    }

    fn reset_stats(&mut self) {
        RTree::reset_stats(self)
    }

    fn stats_mut(&mut self) -> &mut Stats {
        RTree::stats_mut(self)
    }

    fn insert(&mut self, id: PointId, point: Point<D>) {
        RTree::insert(self, id, point)
    }

    fn remove(&mut self, id: PointId, point: Point<D>) -> bool {
        RTree::remove(self, id, point)
    }

    fn bulk_insert(&mut self, items: Vec<(PointId, Point<D>)>) {
        RTree::bulk_insert(self, items)
    }

    fn bulk_remove(&mut self, items: &[(PointId, Point<D>)]) -> usize {
        RTree::bulk_remove(self, items)
    }

    fn for_each_in_ball<F: FnMut(PointId, &Point<D>)>(
        &mut self,
        center: &Point<D>,
        eps: f64,
        f: F,
    ) {
        RTree::for_each_in_ball(self, center, eps, f)
    }

    fn scan_ball<F: FnMut(PointId, &Point<D>)>(
        &self,
        center: &Point<D>,
        eps: f64,
        f: F,
        stats: &mut Stats,
    ) {
        RTree::scan_ball(self, center, eps, f, stats)
    }

    fn ball_ids_into(&mut self, center: &Point<D>, eps: f64, out: &mut Vec<PointId>) {
        RTree::ball_ids_into(self, center, eps, out)
    }

    fn ball_count(&mut self, center: &Point<D>, eps: f64) -> usize {
        RTree::ball_count(self, center, eps)
    }

    fn for_each_in_balls<F: FnMut(usize, PointId, &Point<D>)>(
        &mut self,
        centers: &[Point<D>],
        eps: f64,
        f: F,
    ) {
        RTree::for_each_in_balls(self, centers, eps, f)
    }

    fn scan_balls<F: FnMut(usize, PointId, &Point<D>)>(
        &self,
        centers: &[Point<D>],
        eps: f64,
        f: F,
        stats: &mut Stats,
    ) {
        RTree::scan_balls(self, centers, eps, f, stats)
    }

    fn for_each<F: FnMut(PointId, &Point<D>)>(&self, f: F) {
        RTree::for_each(self, f)
    }

    fn begin_epoch(&mut self) -> EpochProbe {
        RTree::begin_epoch(self)
    }

    fn mark_visited(
        &mut self,
        probe: EpochProbe,
        center: &Point<D>,
        id: PointId,
        owner: u32,
    ) -> bool {
        RTree::mark_visited(self, probe, center, id, owner)
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
        RTree::epoch_probe(self, probe, center, eps, thread, resolve, is_vertex, out)
    }

    fn check_invariants(&self) {
        RTree::check_invariants(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a backend through the whole contract generically; both
    /// implementors go through the same motions.
    fn exercise<B: SpatialBackend<2>>() {
        let mut ix = B::with_eps_hint(1.0);
        assert!(ix.is_empty());
        for i in 0..20u64 {
            ix.insert(PointId(i), Point::new([i as f64 * 0.5, 0.0]));
        }
        assert_eq!(ix.len(), 20);
        assert!(!ix.is_empty());

        // Exact inclusive ball answers.
        let mut ids = Vec::new();
        ix.ball_ids_into(&Point::new([2.0, 0.0]), 1.0, &mut ids);
        ids.sort_unstable();
        assert_eq!(
            ids,
            vec![PointId(2), PointId(3), PointId(4), PointId(5), PointId(6)]
        );
        assert_eq!(ix.ball_count(&Point::new([2.0, 0.0]), 1.0), 5);

        // The read-only scan flavour answers identically on `&self`, and its
        // caller-side counter delta merges back into the index's totals.
        let before = *ix.stats();
        let mut delta = Stats::default();
        let mut scan_ids = Vec::new();
        ix.scan_ball(
            &Point::new([2.0, 0.0]),
            1.0,
            |id, _| scan_ids.push(id),
            &mut delta,
        );
        scan_ids.sort_unstable();
        assert_eq!(scan_ids, ids);
        assert_eq!(delta.range_searches, 1);
        ix.stats_mut().merge(&delta);
        assert_eq!(ix.stats().range_searches, before.range_searches + 1);

        // Multi-center traversal covers each center exactly.
        let centers = [Point::new([0.0, 0.0]), Point::new([9.5, 0.0])];
        let mut per_center = [0usize; 2];
        ix.for_each_in_balls(&centers, 1.0, |ci, _, _| per_center[ci] += 1);
        assert_eq!(per_center, [3, 3]);

        // Same for the multi-center scan: identical per-center coverage.
        let mut scan_per_center = [0usize; 2];
        let mut delta = Stats::default();
        ix.scan_balls(
            &centers,
            1.0,
            |ci, _, _| scan_per_center[ci] += 1,
            &mut delta,
        );
        assert_eq!(scan_per_center, per_center);
        assert_eq!(delta.multi_ball_queries, 1);
        ix.stats_mut().merge(&delta);

        // Epoch probe: everything fresh once, nothing twice.
        let probe = ix.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        ix.epoch_probe(
            probe,
            &Point::new([2.0, 0.0]),
            1.0,
            0,
            &mut resolve,
            &mut all,
            &mut out,
        );
        assert_eq!(out.fresh.len(), 5);
        out.clear();
        ix.epoch_probe(
            probe,
            &Point::new([2.0, 0.0]),
            1.0,
            0,
            &mut resolve,
            &mut all,
            &mut out,
        );
        assert!(out.fresh.is_empty() && out.foreign.is_empty());

        // Mutation keeps answers exact.
        assert!(ix.remove(PointId(4), Point::new([2.0, 0.0])));
        assert!(!ix.remove(PointId(4), Point::new([2.0, 0.0])));
        assert_eq!(ix.ball_count(&Point::new([2.0, 0.0]), 1.0), 4);
        ix.bulk_insert(vec![(PointId(100), Point::new([2.0, 0.1]))]);
        assert_eq!(ix.bulk_remove(&[(PointId(100), Point::new([2.0, 0.1]))]), 1);
        assert_eq!(ix.len(), 19);

        let mut seen = 0usize;
        ix.for_each(|_, _| seen += 1);
        assert_eq!(seen, 19);
        ix.check_invariants();

        // Every backend accounts for its bytes: a populated index reports a
        // nonzero footprint whose root total equals the sum over the tree,
        // and flatten() exposes at least one child component.
        let fp = ix.footprint();
        assert!(fp.total() > 0, "populated {} reports zero bytes", B::NAME);
        assert_eq!(fp.total(), ix.mem_bytes());
        let flat = fp.flatten();
        assert!(flat.len() > 1, "{} footprint has no components", B::NAME);
        assert_eq!(flat[0].1, fp.total());
        assert!(ix.stats().range_searches > 0);
        ix.reset_stats();
        assert_eq!(ix.stats().range_searches, 0);
    }

    #[test]
    fn rtree_satisfies_the_contract() {
        exercise::<RTree<2>>();
    }

    #[test]
    fn grid_satisfies_the_contract() {
        exercise::<crate::GridIndex<2>>();
    }

    /// Runs one identical instrumented workload — bulk load, plain and
    /// multi-center queries, epoch probes over a fully-visited region (so
    /// pruning fires), point mutation, bulk removal — and returns the
    /// accumulated counters.
    fn counter_workload<B: SpatialBackend<2>>() -> Stats {
        let mut ix = B::with_eps_hint(1.0);
        let items: Vec<(PointId, Point<2>)> = (0..64u64)
            .map(|i| {
                (
                    PointId(i),
                    Point::new([(i % 8) as f64 * 0.4, (i / 8) as f64 * 0.4]),
                )
            })
            .collect();
        ix.bulk_insert(items.clone());
        ix.ball_count(&Point::new([1.4, 1.4]), 1.0);
        ix.for_each_in_balls(
            &[Point::new([0.0, 0.0]), Point::new([2.8, 2.8])],
            1.0,
            |_, _, _| {},
        );
        // Two probes over a ball covering the whole extent: the first marks
        // every entry for thread 0, the second must prune the now uniformly
        // owned regions (subtrees / cells).
        let probe = ix.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        for _ in 0..2 {
            ix.epoch_probe(
                probe,
                &Point::new([1.4, 1.4]),
                5.0,
                0,
                &mut resolve,
                &mut all,
                &mut out,
            );
            out.clear();
        }
        ix.insert(PointId(999), Point::new([5.0, 5.0]));
        ix.remove(PointId(999), Point::new([5.0, 5.0]));
        assert_eq!(ix.bulk_remove(&items), items.len());
        *ix.stats()
    }

    #[test]
    fn backends_populate_the_same_counters() {
        // Counter symmetry: after the same workload, every Stats field a
        // backend can meaningfully report is nonzero for ALL backends —
        // an ablation never compares a populated counter against an
        // unpopulated zero.
        let r = counter_workload::<RTree<2>>();
        let g = counter_workload::<crate::GridIndex<2>>();
        for (backend, s) in [("rtree", &r), ("grid", &g)] {
            for (name, v) in [
                ("range_searches", s.range_searches),
                ("epoch_probes", s.epoch_probes),
                ("nodes_visited", s.nodes_visited),
                ("distance_checks", s.distance_checks),
                ("subtrees_pruned", s.subtrees_pruned),
                ("inserts", s.inserts),
                ("removes", s.removes),
                ("bulk_insert_batches", s.bulk_insert_batches),
                ("bulk_remove_batches", s.bulk_remove_batches),
                ("multi_ball_queries", s.multi_ball_queries),
                ("multi_ball_centers", s.multi_ball_centers),
                ("bulk_nodes_visited", s.bulk_nodes_visited),
                ("bulk_leaf_scans", s.bulk_leaf_scans),
            ] {
                assert!(v > 0, "{backend} left {name} unpopulated");
            }
        }
        // Exact-count symmetry where the unit is backend-independent.
        assert_eq!(r.range_searches, g.range_searches);
        assert_eq!(r.epoch_probes, g.epoch_probes);
        assert_eq!(r.inserts, g.inserts);
        assert_eq!(r.removes, g.removes);
        assert_eq!(r.multi_ball_queries, g.multi_ball_queries);
        assert_eq!(r.multi_ball_centers, g.multi_ball_centers);
    }

    #[test]
    fn from_batch_matches_incremental_build() {
        let items: Vec<(PointId, Point<2>)> = (0..50u64)
            .map(|i| (PointId(i), Point::new([(i % 7) as f64, (i / 7) as f64])))
            .collect();
        let mut a = RTree::<2>::from_batch(1.0, items.clone());
        let mut b = crate::GridIndex::<2>::from_batch(1.0, items);
        let c = Point::new([3.0, 3.0]);
        let mut ia = Vec::new();
        let mut ib = Vec::new();
        a.ball_ids_into(&c, 2.0, &mut ia);
        b.ball_ids_into(&c, 2.0, &mut ib);
        ia.sort_unstable();
        ib.sort_unstable();
        assert_eq!(ia, ib);
        assert_eq!(a.len(), b.len());
    }
}
