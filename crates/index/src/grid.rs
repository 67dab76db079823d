//! A uniform-grid spatial backend with ε-aligned cells.
//!
//! The standard fast path for low-dimensional density clustering: space is
//! partitioned into axis-aligned cubic cells of edge length ε (the engine's
//! query radius), stored sparsely in a hash map keyed by integer cell
//! coordinates. An ε-ball query then touches at most the 3^D cells of the
//! center's neighbourhood — O(1) in the window size — and every mutation is
//! a hash-map update, with none of the R-tree's rebalancing.
//!
//! The trade-offs against the R-tree, measured by the `backend` bench suite:
//!
//! * mutations are O(1) vs. O(log n) descent + split/condense;
//! * range answering scans whole cells, so the grid examines more candidate
//!   points per query than the R-tree's tight boxes when data is very
//!   non-uniform within cells (skew concentrates many points in one cell);
//! * queries with `eps` much larger than the cell width degrade (the cell
//!   range grows as `(2⌈eps/cell⌉+1)^D`), so the grid is sized from the
//!   engine's ε hint and shines when queries use that ε.
//!
//! Epoch marks are grid-native: each cell entry carries the same
//! `(tick, owner)` pair as an R-tree leaf entry, and each *cell* carries the
//! analogue of a branch stamp — when every entry of a cell is visited at the
//! current tick by one resolved owner, the cell is stamped and later probes
//! by that (merged) thread skip it wholesale (counted in
//! [`Stats::subtrees_pruned`]).

use crate::epoch::{EpochProbe, ProbeOutcome};
use crate::node::Epoch;
use crate::stats::Stats;
use crate::SpatialBackend;
use disc_geom::{Aabb, FxHashMap, Point, PointId};

/// One stored point plus its epoch mark.
#[derive(Clone, Debug)]
struct GridEntry<const D: usize> {
    id: PointId,
    point: Point<D>,
    epoch: Epoch,
}

/// One occupied cell. Cells are created on first insert and dropped when
/// their last entry leaves, so the map only ever holds occupied cells.
#[derive(Clone, Debug)]
struct Cell<const D: usize> {
    entries: Vec<GridEntry<D>>,
    /// Cell-level stamp: set when every entry carries the current tick and
    /// one resolved owner (the grid analogue of a branch epoch).
    epoch: Epoch,
}

impl<const D: usize> Cell<D> {
    fn new() -> Self {
        Cell {
            entries: Vec::new(),
            epoch: Epoch::CLEAR,
        }
    }
}

/// A uniform grid over `D`-dimensional points with ε-aligned cells.
///
/// Construct through [`SpatialBackend::with_eps_hint`] or
/// [`GridIndex::with_cell`]; the cell edge length should equal the ε the
/// owning engine queries with.
#[derive(Clone, Debug)]
pub struct GridIndex<const D: usize> {
    /// Cell edge length.
    cell: f64,
    /// `1.0 / cell`, precomputed for the key mapping.
    inv_cell: f64,
    cells: FxHashMap<[i64; D], Cell<D>>,
    len: usize,
    tick_counter: u64,
    stats: Stats,
}

impl<const D: usize> GridIndex<D> {
    /// Creates an empty grid with the given cell edge length.
    pub fn with_cell(cell: f64) -> Self {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "grid cell width must be positive and finite"
        );
        GridIndex {
            cell,
            inv_cell: 1.0 / cell,
            cells: FxHashMap::default(),
            len: 0,
            tick_counter: 0,
            stats: Stats::default(),
        }
    }

    /// The cell edge length in force.
    pub fn cell_width(&self) -> f64 {
        self.cell
    }

    /// Number of occupied cells (diagnostics; memory is proportional).
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Integer cell coordinates of `point`.
    #[inline]
    fn key_of(&self, point: &Point<D>) -> [i64; D] {
        let mut key = [0i64; D];
        for (d, k) in key.iter_mut().enumerate() {
            *k = (point[d] * self.inv_cell).floor() as i64;
        }
        key
    }

    /// The closed box covered by cell `key`.
    #[inline]
    fn cell_box(&self, key: &[i64; D]) -> Aabb<D> {
        let mut lo = Point::origin();
        let mut hi = Point::origin();
        for d in 0..D {
            lo[d] = key[d] as f64 * self.cell;
            hi[d] = (key[d] + 1) as f64 * self.cell;
        }
        Aabb::new(lo, hi)
    }

    /// Visits every cell key of the integer box covering the ε-ball around
    /// `center` (the 3^D neighbourhood when `eps == cell`).
    #[inline]
    fn for_each_cell_in_range(
        center: &Point<D>,
        eps: f64,
        inv_cell: f64,
        mut visit: impl FnMut([i64; D]),
    ) {
        let mut lo = [0i64; D];
        let mut hi = [0i64; D];
        for d in 0..D {
            lo[d] = ((center[d] - eps) * inv_cell).floor() as i64;
            hi[d] = ((center[d] + eps) * inv_cell).floor() as i64;
        }
        let mut key = lo;
        loop {
            visit(key);
            // Odometer increment over the D axes.
            let mut d = 0;
            loop {
                key[d] += 1;
                if key[d] <= hi[d] {
                    break;
                }
                key[d] = lo[d];
                d += 1;
                if d == D {
                    return;
                }
            }
        }
    }
}

impl<const D: usize> SpatialBackend<D> for GridIndex<D> {
    const NAME: &'static str = "grid";

    fn with_eps_hint(eps_hint: f64) -> Self {
        GridIndex::with_cell(eps_hint)
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
        let key = self.key_of(&point);
        let cell = self.cells.entry(key).or_insert_with(Cell::new);
        cell.entries.push(GridEntry {
            id,
            point,
            epoch: Epoch::CLEAR,
        });
        // A fresh (unvisited) entry invalidates any uniform-ownership stamp.
        cell.epoch = Epoch::CLEAR;
        self.len += 1;
    }

    fn remove(&mut self, id: PointId, point: Point<D>) -> bool {
        let key = self.key_of(&point);
        let Some(cell) = self.cells.get_mut(&key) else {
            return false;
        };
        let Some(pos) = cell.entries.iter().position(|e| e.id == id) else {
            return false;
        };
        cell.entries.swap_remove(pos);
        if cell.entries.is_empty() {
            self.cells.remove(&key);
        }
        self.stats.removes += 1;
        self.len -= 1;
        true
    }

    /// Grid inserts are already O(1), so this is the plain loop; it still
    /// counts as one batched mutation for the accounting, and one traversal
    /// unit (cell access) per item so the counter stays comparable with the
    /// R-tree's batched-descent accounting.
    fn bulk_insert(&mut self, items: Vec<(PointId, Point<D>)>) {
        if items.is_empty() {
            return;
        }
        self.stats.bulk_insert_batches += 1;
        self.stats.bulk_nodes_visited += items.len() as u64;
        for (id, p) in items {
            self.insert(id, p);
        }
    }

    /// Accounting mirrors the R-tree bulk path: every cell access is a
    /// `bulk_nodes_visited` unit, every entry examined while locating an id
    /// (the whole cell on a miss) is a `bulk_leaf_scans` unit.
    fn bulk_remove(&mut self, items: &[(PointId, Point<D>)]) -> usize {
        if items.is_empty() {
            return 0;
        }
        self.stats.bulk_remove_batches += 1;
        let mut removed = 0;
        for (id, p) in items {
            self.stats.bulk_nodes_visited += 1;
            let key = self.key_of(p);
            let Some(cell) = self.cells.get_mut(&key) else {
                continue;
            };
            let pos = cell.entries.iter().position(|e| e.id == *id);
            self.stats.bulk_leaf_scans += match pos {
                Some(p) => p as u64 + 1,
                None => cell.entries.len() as u64,
            };
            let Some(pos) = pos else {
                continue;
            };
            cell.entries.swap_remove(pos);
            if cell.entries.is_empty() {
                self.cells.remove(&key);
            }
            self.stats.removes += 1;
            self.len -= 1;
            removed += 1;
        }
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
        let mut cells_visited = 0u64;
        let mut dist_checks = 0u64;
        let cells = &self.cells;
        let inv_cell = self.inv_cell;
        let cell_w = self.cell;
        Self::for_each_cell_in_range(center, eps, inv_cell, |key| {
            let Some(cell) = cells.get(&key) else { return };
            if cell_min_dist2(&key, cell_w, center) > eps2 {
                return; // corner cell of the box, entirely out of range
            }
            cells_visited += 1;
            dist_checks += cell.entries.len() as u64;
            for e in &cell.entries {
                if center.dist2(&e.point) <= eps2 {
                    f(e.id, &e.point);
                }
            }
        });
        stats.nodes_visited += cells_visited;
        stats.distance_checks += dist_checks;
    }

    /// Cells have no shared upper levels to amortise, so the centers are
    /// served one by one; the batched-path counters still record the call so
    /// the ablation tables can compare like with like.
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
        let mut cells_visited = 0u64;
        let mut leaf_scans = 0u64;
        let cells = &self.cells;
        let inv_cell = self.inv_cell;
        let cell_w = self.cell;
        for (ci, center) in centers.iter().enumerate() {
            Self::for_each_cell_in_range(center, eps, inv_cell, |key| {
                let Some(cell) = cells.get(&key) else { return };
                if cell_min_dist2(&key, cell_w, center) > eps2 {
                    return;
                }
                cells_visited += 1;
                leaf_scans += cell.entries.len() as u64;
                for e in &cell.entries {
                    if center.dist2(&e.point) <= eps2 {
                        f(ci, e.id, &e.point);
                    }
                }
            });
        }
        stats.bulk_nodes_visited += cells_visited;
        stats.bulk_leaf_scans += leaf_scans;
    }

    fn for_each<F: FnMut(PointId, &Point<D>)>(&self, mut f: F) {
        for cell in self.cells.values() {
            for e in &cell.entries {
                f(e.id, &e.point);
            }
        }
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
        let key = self.key_of(center);
        let Some(cell) = self.cells.get_mut(&key) else {
            return false;
        };
        let Some(e) = cell.entries.iter_mut().find(|e| e.id == id) else {
            return false;
        };
        e.epoch = Epoch {
            tick: probe.tick(),
            owner,
        };
        // The mark may break a same-tick uniform-ownership stamp (a starter
        // seeded into a cell another thread already swept), so drop it; it
        // is re-derived on the next covering probe.
        cell.epoch = Epoch::CLEAR;
        true
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
        let tick = probe.tick();
        let eps2 = eps * eps;
        let mut cells_visited = 0u64;
        let mut dist_checks = 0u64;
        let mut pruned = 0u64;
        let cells = &mut self.cells;
        let inv_cell = self.inv_cell;
        let cell_w = self.cell;
        Self::for_each_cell_in_range(center, eps, inv_cell, |key| {
            let Some(cell) = cells.get_mut(&key) else {
                return;
            };
            if cell_min_dist2(&key, cell_w, center) > eps2 {
                return;
            }
            cells_visited += 1;
            // Whole cell already visited by this (merged) thread: nothing
            // new inside.
            if cell.epoch.tick == tick && resolve(cell.epoch.owner) == thread {
                pruned += 1;
                return;
            }
            dist_checks += cell.entries.len() as u64;
            for e in &mut cell.entries {
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
            // Stamp the cell when every entry now carries this tick and one
            // resolved owner — only worth scanning when the ball covered the
            // whole cell or a stamp at this tick already existed, mirroring
            // the R-tree's backtrack rule.
            let covered = cell_max_dist2(&key, cell_w, center) <= eps2;
            if covered || cell.epoch.tick == tick {
                let mut owner: Option<u32> = None;
                for e in &cell.entries {
                    if e.epoch.tick != tick {
                        owner = None;
                        break;
                    }
                    let o = resolve(e.epoch.owner);
                    match owner {
                        None => owner = Some(o),
                        Some(prev) if prev != o => {
                            owner = None;
                            break;
                        }
                        Some(_) => {}
                    }
                }
                if let Some(owner) = owner {
                    cell.epoch = Epoch { tick, owner };
                }
            }
        });
        self.stats.nodes_visited += cells_visited;
        self.stats.distance_checks += dist_checks;
        self.stats.subtrees_pruned += pruned;
    }

    fn check_invariants(&self) {
        let mut n = 0usize;
        for (key, cell) in &self.cells {
            assert!(!cell.entries.is_empty(), "empty cell survived at {key:?}");
            let cbox = self.cell_box(key);
            for e in &cell.entries {
                assert_eq!(
                    &self.key_of(&e.point),
                    key,
                    "entry {} filed in the wrong cell",
                    e.id
                );
                assert!(
                    cbox.contains_point(&e.point) || cbox.dist2_to_point(&e.point) < 1e-12,
                    "entry {} outside its cell box",
                    e.id
                );
            }
            n += cell.entries.len();
        }
        assert_eq!(n, self.len, "len out of sync with stored entries");
    }
}

impl<const D: usize> disc_telemetry::MemoryFootprint for GridIndex<D> {
    fn footprint(&self) -> disc_telemetry::FootprintNode {
        use disc_telemetry::FootprintNode;
        let epoch = std::mem::size_of::<Epoch>();
        let per_entry = std::mem::size_of::<GridEntry<D>>();
        // The map's own table (keys + Cell headers, including the cell-level
        // stamp which lives inline in the Cell struct).
        let table = disc_telemetry::map_bytes(
            self.cells.capacity(),
            std::mem::size_of::<([i64; D], Cell<D>)>(),
        );
        // Per-cell entry vectors, split so epoch marks show up as their own
        // line while the sum stays exact: every slot is (payload + mark).
        let mut slots = 0usize;
        for cell in self.cells.values() {
            slots += cell.entries.capacity();
        }
        FootprintNode::branch(
            "grid",
            vec![
                FootprintNode::leaf("cells", table + slots * (per_entry - epoch)),
                FootprintNode::leaf("stamps", slots * epoch),
            ],
        )
    }
}

/// Squared distance from `center` to the closed box of cell `key` (0 when
/// inside). Free function so closures over the cell map can use it without
/// borrowing the whole index.
#[inline]
fn cell_min_dist2<const D: usize>(key: &[i64; D], cell: f64, center: &Point<D>) -> f64 {
    let mut acc = 0.0;
    for d in 0..D {
        let lo = key[d] as f64 * cell;
        let hi = (key[d] + 1) as f64 * cell;
        let c = center[d];
        let delta = if c < lo {
            lo - c
        } else if c > hi {
            c - hi
        } else {
            0.0
        };
        acc += delta * delta;
    }
    acc
}

/// Squared distance from `center` to the farthest corner of cell `key`.
#[inline]
fn cell_max_dist2<const D: usize>(key: &[i64; D], cell: f64, center: &Point<D>) -> f64 {
    let mut acc = 0.0;
    for d in 0..D {
        let lo = key[d] as f64 * cell;
        let hi = (key[d] + 1) as f64 * cell;
        let c = center[d];
        let delta = (c - lo).abs().max((c - hi).abs());
        acc += delta * delta;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_of(n: usize) -> GridIndex<2> {
        // n x n unit-spaced points, cell width 1.5.
        let mut g = GridIndex::with_cell(1.5);
        let mut id = 0u64;
        for x in 0..n {
            for y in 0..n {
                g.insert(PointId(id), Point::new([x as f64, y as f64]));
                id += 1;
            }
        }
        g
    }

    /// Brute-force oracle for ball answers.
    fn oracle(g: &GridIndex<2>, center: Point<2>, eps: f64) -> Vec<PointId> {
        let mut out = Vec::new();
        g.for_each(|id, p| {
            if center.within(p, eps) {
                out.push(id);
            }
        });
        out.sort_unstable();
        out
    }

    #[test]
    fn ball_answers_match_brute_force() {
        let mut g = grid_of(12);
        for (cx, cy, eps) in [
            (5.5, 5.5, 1.5),
            (0.0, 0.0, 2.0),
            (11.0, 11.0, 1.0),
            (-3.0, 4.0, 5.0),
            (6.0, 6.0, 0.0),
            (3.3, 8.7, 4.25),
        ] {
            let c = Point::new([cx, cy]);
            let want = oracle(&g, c, eps);
            let mut got = Vec::new();
            g.ball_ids_into(&c, eps, &mut got);
            got.sort_unstable();
            assert_eq!(got, want, "center {c:?} eps {eps}");
            assert_eq!(g.ball_count(&c, eps), want.len());
        }
    }

    #[test]
    fn ball_answers_are_exact_for_negative_coordinates() {
        let mut g = GridIndex::<2>::with_cell(1.0);
        for (i, xy) in [(-2.5, -2.5), (-0.5, -0.5), (0.5, 0.5), (-1.0, 0.0)]
            .iter()
            .enumerate()
        {
            g.insert(PointId(i as u64), Point::new([xy.0, xy.1]));
        }
        let c = Point::new([-0.75, -0.25]);
        let want = oracle(&g, c, 1.1);
        let mut got = Vec::new();
        g.ball_ids_into(&c, 1.1, &mut got);
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn insert_remove_roundtrip_keeps_invariants() {
        let mut g = grid_of(6);
        assert_eq!(g.len(), 36);
        g.check_invariants();
        for id in 0..18u64 {
            let p = Point::new([(id / 6) as f64, (id % 6) as f64]);
            assert!(g.remove(PointId(id), p));
        }
        assert_eq!(g.len(), 18);
        g.check_invariants();
        assert!(!g.remove(PointId(0), Point::new([0.0, 0.0])));
        assert!(!g.remove(PointId(999), Point::new([50.0, 50.0])));
    }

    #[test]
    fn bulk_paths_count_batches() {
        let mut g = GridIndex::<2>::with_cell(1.0);
        let items: Vec<(PointId, Point<2>)> = (0..10u64)
            .map(|i| (PointId(i), Point::new([i as f64, 0.0])))
            .collect();
        g.bulk_insert(items.clone());
        assert_eq!(g.stats().bulk_insert_batches, 1);
        assert_eq!(g.stats().inserts, 10);
        assert_eq!(g.bulk_remove(&items), 10);
        assert_eq!(g.stats().bulk_remove_batches, 1);
        assert!(g.is_empty());
        assert_eq!(g.occupied_cells(), 0);
    }

    #[test]
    fn multi_center_traversal_matches_per_center_queries() {
        let mut g = grid_of(10);
        let centers = [
            Point::new([2.0, 2.0]),
            Point::new([7.5, 7.5]),
            Point::new([2.0, 2.0]), // duplicate center: reported twice
        ];
        let mut got: Vec<Vec<PointId>> = vec![Vec::new(); centers.len()];
        g.for_each_in_balls(&centers, 1.6, |ci, id, _| got[ci].push(id));
        for (ci, c) in centers.iter().enumerate() {
            let mut want = Vec::new();
            g.ball_ids_into(c, 1.6, &mut want);
            want.sort_unstable();
            got[ci].sort_unstable();
            assert_eq!(got[ci], want, "center {ci}");
        }
        assert_eq!(g.stats().multi_ball_queries, 1);
        assert_eq!(g.stats().multi_ball_centers, 3);
    }

    #[test]
    fn probe_returns_each_vertex_once_per_instance() {
        let mut g = grid_of(8);
        let probe = g.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        let c = Point::new([3.5, 3.5]);
        g.epoch_probe(probe, &c, 2.0, 0, &mut resolve, &mut all, &mut out);
        let first = out.fresh.len();
        assert!(first > 0);
        assert!(out.foreign.is_empty());
        out.clear();
        g.epoch_probe(probe, &c, 2.0, 0, &mut resolve, &mut all, &mut out);
        assert_eq!(out.fresh.len(), 0, "second probe must see nothing fresh");
        assert!(out.foreign.is_empty(), "same thread never reports foreign");
    }

    #[test]
    fn new_instance_sees_everything_again() {
        let mut g = grid_of(6);
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        let c = Point::new([2.0, 2.0]);
        let p1 = g.begin_epoch();
        g.epoch_probe(p1, &c, 1.5, 0, &mut resolve, &mut all, &mut out);
        let n1 = out.fresh.len();
        out.clear();
        let p2 = g.begin_epoch();
        g.epoch_probe(p2, &c, 1.5, 0, &mut resolve, &mut all, &mut out);
        assert_eq!(out.fresh.len(), n1);
    }

    #[test]
    fn foreign_thread_is_reported_not_hidden() {
        let mut g = grid_of(8);
        let probe = g.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        g.epoch_probe(
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
        g.epoch_probe(
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
        for (id, _) in &out.fresh {
            assert!(!visited_by_0.contains(id));
        }
    }

    #[test]
    fn merged_threads_prune_each_others_cells() {
        let mut g = grid_of(8);
        let probe = g.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut all = |_: PointId| true;
        {
            let mut resolve = |o: u32| o;
            g.epoch_probe(
                probe,
                &Point::new([2.0, 2.0]),
                2.0,
                0,
                &mut resolve,
                &mut all,
                &mut out,
            );
        }
        out.clear();
        {
            // After a merge both slots resolve to 0: re-probing the same
            // region yields nothing fresh and nothing foreign.
            let mut resolve = |_: u32| 0;
            g.epoch_probe(
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
        let mut g = grid_of(4);
        let probe = g.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut even = |id: PointId| id.raw().is_multiple_of(2);
        g.epoch_probe(
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
        out.clear();
        let mut all = |_: PointId| true;
        g.epoch_probe(
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
        let mut g = grid_of(16);
        let probe = g.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        // A ball covering the whole grid guarantees every cell is fully
        // visited and therefore stamped for pruning.
        let c = Point::new([8.0, 8.0]);
        g.epoch_probe(probe, &c, 25.0, 0, &mut resolve, &mut all, &mut out);
        assert_eq!(out.fresh.len(), 256);
        let before = g.stats().subtrees_pruned;
        out.clear();
        g.epoch_probe(probe, &c, 25.0, 0, &mut resolve, &mut all, &mut out);
        let after = g.stats().subtrees_pruned;
        assert!(
            after > before,
            "a repeat probe over a fully-visited region must prune cells"
        );
    }

    #[test]
    fn insert_into_stamped_cell_unstamps_it() {
        let mut g = grid_of(4);
        let probe = g.begin_epoch();
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        let c = Point::new([2.0, 2.0]);
        // Cover everything so cells get stamped.
        g.epoch_probe(probe, &c, 10.0, 0, &mut resolve, &mut all, &mut out);
        assert_eq!(out.fresh.len(), 16);
        // A new arrival lands in a stamped cell; the same instance must
        // still discover it.
        g.insert(PointId(99), Point::new([2.1, 2.1]));
        out.clear();
        g.epoch_probe(probe, &c, 10.0, 0, &mut resolve, &mut all, &mut out);
        assert_eq!(out.fresh.len(), 1);
        assert_eq!(out.fresh[0].0, PointId(99));
    }

    #[test]
    fn mark_visited_seeds_starters() {
        let mut g = grid_of(4);
        let probe = g.begin_epoch();
        let p = Point::new([1.0, 1.0]);
        assert!(g.mark_visited(probe, &p, PointId(5), 3));
        assert!(!g.mark_visited(probe, &p, PointId(77), 3), "unknown id");
        let mut out = ProbeOutcome::default();
        let mut resolve = |o: u32| o;
        let mut all = |_: PointId| true;
        g.epoch_probe(probe, &p, 1.0, 0, &mut resolve, &mut all, &mut out);
        // The marked starter shows up as a foreign hit of thread 3.
        assert!(out.foreign.contains(&(PointId(5), 3)));
        assert!(out.fresh.iter().all(|(id, _)| *id != PointId(5)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_width_is_rejected() {
        let _ = GridIndex::<2>::with_cell(0.0);
    }
}
