//! The pluggable spatial-backend contract.
//!
//! DISC's COLLECT/CLUSTER/MS-BFS machinery (Algs. 1–4) never depends on the
//! *structure* of the neighbourhood index — only on exact ε-range answers,
//! batched mutation, and epoch-stamped "visited" probing. [`SpatialBackend`]
//! captures exactly that contract so the engine can be instantiated over any
//! index: the paper's R-tree ([`RTree`](crate::RTree)), the uniform grid
//! ([`GridIndex`](crate::GridIndex)), or future backends.
//!
//! The trait is the index API: every operation it names is defined once per
//! backend, inside that backend's `impl SpatialBackend`, and nowhere else.
//! Callers bring it into scope (`use disc_index::SpatialBackend`) to query a
//! concrete `RTree` or `GridIndex`.
//!
//! ## Required and provided methods
//!
//! * **Required** — each backend implements `len`, `stats`, `stats_mut`,
//!   `insert`, `remove`, `bulk_insert`, `bulk_remove`, the two read-only
//!   scans `scan_ball` / `scan_balls`, `for_each`, the epoch trio
//!   `begin_epoch` / `mark_visited` / `epoch_probe`, and
//!   `check_invariants`.
//! * **Provided** — `is_empty`, `reset_stats`, `from_batch` and the four
//!   counted queries `for_each_in_ball`, `ball_ids_into`, `ball_count` and
//!   `for_each_in_balls` are written once here, over `scan_*` and
//!   `stats_mut`: each runs the scan against a copy of the index's
//!   counters and stores the copy back, so it answers and counts exactly
//!   as its `scan_*` twin. The R-tree overrides `from_batch` with its
//!   `bulk_load`, which counts the build as plain inserts.
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
use disc_geom::{Point, PointId};

/// An exact ε-range index over `D`-dimensional points, with the batched
/// mutation and epoch-probe entry points DISC needs.
///
/// Closure-taking methods are generic (not `dyn`), so every call site is
/// monomorphic and the compiler can specialise the hot paths; the trait is
/// consequently not object-safe — backends are selected by type parameter.
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

    /// Mutable access to the operation counters, so per-worker [`Stats`]
    /// deltas from the `scan_*` methods can be merged back (in task order —
    /// see [`Stats::merge`]) after a parallel phase.
    fn stats_mut(&mut self) -> &mut Stats;

    /// Resets the operation counters.
    fn reset_stats(&mut self) {
        self.stats_mut().reset();
    }

    /// Inserts a point. Duplicate `(id, point)` pairs are the caller's
    /// responsibility; the index stores whatever it is given.
    fn insert(&mut self, id: PointId, point: Point<D>);

    /// Removes the entry for `id` at `point`; returns whether it was found.
    fn remove(&mut self, id: PointId, point: Point<D>) -> bool;

    /// Inserts a batch, amortising traversal work where the backend can.
    fn bulk_insert(&mut self, items: Vec<(PointId, Point<D>)>);

    /// Removes a batch; returns how many entries were found and removed
    /// (ids absent from the index are skipped).
    fn bulk_remove(&mut self, items: &[(PointId, Point<D>)]) -> usize;

    /// Calls `f(id, point)` for every stored point within `eps` of `center`
    /// (inclusive), in the backend's traversal order, adding one range
    /// search and the traversal's work to `stats` instead of the index's
    /// own counters. Only reads the index, so many workers may scan one
    /// shared `&self` concurrently, each with a private `Stats` merged
    /// afterwards.
    fn scan_ball<F: FnMut(PointId, &Point<D>)>(
        &self,
        center: &Point<D>,
        eps: f64,
        f: F,
        stats: &mut Stats,
    );

    /// Multi-center flavour of [`scan_ball`](Self::scan_ball): calls
    /// `f(ci, id, point)` for every `(center index, stored point)` pair with
    /// `point` within `eps` of `centers[ci]`, so a point in range of several
    /// centers is reported once per center. Counts `centers.len()` range
    /// searches — one per center, the paper's Fig. 7 unit — and one
    /// multi-ball query; backends overlap the per-center work where they
    /// can, and that traversal shows up in the `bulk_*` counters.
    fn scan_balls<F: FnMut(usize, PointId, &Point<D>)>(
        &self,
        centers: &[Point<D>],
        eps: f64,
        f: F,
        stats: &mut Stats,
    );

    /// [`scan_ball`](Self::scan_ball) counted into the index's own
    /// [`Stats`].
    fn for_each_in_ball<F: FnMut(PointId, &Point<D>)>(
        &mut self,
        center: &Point<D>,
        eps: f64,
        f: F,
    ) {
        let mut stats = *self.stats();
        self.scan_ball(center, eps, f, &mut stats);
        *self.stats_mut() = stats;
    }

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

    /// [`scan_balls`](Self::scan_balls) counted into the index's own
    /// [`Stats`].
    fn for_each_in_balls<F: FnMut(usize, PointId, &Point<D>)>(
        &mut self,
        centers: &[Point<D>],
        eps: f64,
        f: F,
    ) {
        let mut stats = *self.stats();
        self.scan_balls(centers, eps, f, &mut stats);
        *self.stats_mut() = stats;
    }

    /// Iterates over every stored `(id, point)` pair (diagnostics/tests).
    fn for_each<F: FnMut(PointId, &Point<D>)>(&self, f: F);

    /// Starts a new MS-BFS instance: allocates a fresh tick, implicitly
    /// staling every mark of earlier instances.
    fn begin_epoch(&mut self) -> EpochProbe;

    /// Marks the entry for `id` (stored at `center`) as visited by `owner`
    /// for this instance; returns whether the entry was found. MS-BFS seeds
    /// its starters with this (Alg. 3 line 4 enqueues every starter as
    /// already visited), so a probe that reaches another thread's starter
    /// reports it as foreign and the threads merge on first contact.
    fn mark_visited(
        &mut self,
        probe: EpochProbe,
        center: &Point<D>,
        id: PointId,
        owner: u32,
    ) -> bool;

    /// One epoch-based ε-range search on behalf of MS-BFS thread `thread`
    /// (its *current union-find root*), counted as a range search and an
    /// epoch probe.
    ///
    /// * `resolve` maps a stored owner slot to its current union-find root.
    /// * `is_vertex` restricts the search to graph vertices (core points);
    ///   non-vertex points in range are ignored and never marked, so they
    ///   can never produce spurious thread meetings.
    ///
    /// Fresh vertices are marked `(tick, thread)`; foreign vertices are
    /// reported but left untouched (they belong to the other thread — the
    /// union-find merge makes ownership consistent). See the module docs
    /// for the pruning rule shared by all backends.
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

    /// Validates internal invariants exhaustively; panics on a breach
    /// (test helper, O(n)).
    fn check_invariants(&self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTree;

    /// Each provided query answers with the ids of its `scan_*` twin, in the
    /// same order, and moves the index's counters by exactly the delta the
    /// twin reports into caller-side `Stats`.
    fn provided_queries_match_their_scans<B: SpatialBackend<2>>(ix: &mut B, centers: &[Point<2>]) {
        let eps = 1.0;
        for c in centers {
            let (mut want, mut delta) = (Vec::new(), Stats::default());
            ix.scan_ball(c, eps, |id, _| want.push(id), &mut delta);
            assert_eq!(delta.range_searches, 1);

            let (before, mut got) = (*ix.stats(), Vec::new());
            ix.for_each_in_ball(c, eps, |id, _| got.push(id));
            assert_eq!((&got, ix.stats().since(&before)), (&want, delta));

            let before = *ix.stats();
            ix.ball_ids_into(c, eps, &mut got);
            assert_eq!((&got, ix.stats().since(&before)), (&want, delta));

            let before = *ix.stats();
            assert_eq!(ix.ball_count(c, eps), want.len());
            assert_eq!(ix.stats().since(&before), delta);
        }

        let (mut want, mut delta) = (Vec::new(), Stats::default());
        ix.scan_balls(centers, eps, |ci, id, _| want.push((ci, id)), &mut delta);
        assert_eq!(delta.multi_ball_centers, centers.len() as u64);
        let (before, mut got) = (*ix.stats(), Vec::new());
        ix.for_each_in_balls(centers, eps, |ci, id, _| got.push((ci, id)));
        assert_eq!((got, ix.stats().since(&before)), (want, delta));
    }

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
        // Centers in dense, sparse and empty space, one repeated.
        let probes = [[2.0, 0.0], [0.0, 0.0], [9.5, 0.3], [2.0, 0.0], [50.0, 50.0]];
        provided_queries_match_their_scans(&mut ix, &probes.map(Point::new));

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
        let centers: Vec<Point<2>> = items.iter().step_by(5).map(|(_, p)| *p).collect();
        provided_queries_match_their_scans(&mut ix, &centers);
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
