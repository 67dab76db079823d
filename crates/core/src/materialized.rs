//! The materialised-graph strawman (paper §IV, first paragraph).
//!
//! > "Note that range searches against the R-tree index could be avoided
//! > entirely if the ε-neighbor relations between cores were materialized
//! > in a graph. Then the reachability checks could be done more quickly by
//! > traversing the materialized graph. However, we choose not to do that
//! > because the O(n²) cost of maintaining a materialized graph can be too
//! > high."
//!
//! This module implements exactly that rejected design so the trade-off is
//! measurable: [`GraphDisc`] produces the same DBSCAN-equivalent clustering
//! as [`Disc`], but keeps every point's ε-adjacency list materialised. One
//! range search per *arrival* discovers the new edges (departures walk the
//! lists); every connectivity check and every label resolution is a pure
//! graph traversal with zero index probes. The price is Θ(Σ deg) memory and
//! Θ(deg) list surgery per update — the quadratic blow-up the paper warns
//! about materialises as soon as ε grows or data densifies (see the
//! `graph_ablation` experiment).
//!
//! [`Disc`]: crate::Disc

use crate::config::DiscConfig;
use crate::dsu::Dsu;
use crate::label::{ClusterId, PointLabel};
use disc_geom::{FxHashMap, FxHashSet, Point, PointId};
use disc_index::{RTree, SpatialBackend};
use disc_window::SlideBatch;
use std::collections::VecDeque;

struct Vertex<const D: usize> {
    point: Point<D>,
    /// Materialised ε-adjacency (live points only; maintained eagerly).
    neigh: Vec<PointId>,
    /// Raw cluster id while a core (resolve through the DSU).
    cid: ClusterId,
    prev_core: bool,
}

impl<const D: usize> Vertex<D> {
    fn n_eps(&self) -> usize {
        self.neigh.len() + 1 // self-inclusive
    }
}

/// DISC on a materialised ε-graph: identical output, different costs.
///
/// Like [`Disc`](crate::Disc), generic over the arrival-discovery index
/// with the R-tree as the default.
pub struct GraphDisc<const D: usize, B: SpatialBackend<D> = RTree<D>> {
    cfg: DiscConfig,
    vertices: FxHashMap<PointId, Vertex<D>>,
    /// Index used ONLY to discover a newcomer's neighbourhood (one search
    /// per arrival). All other work is graph traversal.
    tree: B,
    clusters: Dsu,
    /// Telemetry destination (no-op by default; see [`set_recorder`]).
    ///
    /// [`set_recorder`]: GraphDisc::set_recorder
    recorder: disc_telemetry::SharedRecorder,
    slide_seq: u64,
    /// Span tracer (disabled by default). Spans: `slide → departures /
    /// arrivals / splits / merges` — coarser than [`Disc`](crate::Disc)'s
    /// tree because there are no search phases to attribute.
    tracer: disc_telemetry::Tracer,
    /// Provenance buffered during `apply`, published once the slide is
    /// done. GraphDisc resolves border labels lazily, so it emits no
    /// `adoption` events; everything else matches `Disc`'s vocabulary.
    prov: Vec<disc_telemetry::ProvenanceEvent>,
    prov_on: bool,
}

impl<const D: usize> GraphDisc<D> {
    /// Creates an engine with an empty window over the default R-tree
    /// backend (same inference rationale as [`Disc::new`](crate::Disc::new)).
    pub fn new(cfg: DiscConfig) -> Self {
        GraphDisc::with_index(cfg)
    }
}

impl<const D: usize, B: SpatialBackend<D>> GraphDisc<D, B> {
    /// Creates an engine with an empty window over backend `B`.
    pub fn with_index(cfg: DiscConfig) -> Self {
        GraphDisc {
            cfg,
            vertices: FxHashMap::default(),
            tree: B::with_eps_hint(cfg.eps),
            clusters: Dsu::new(),
            recorder: disc_telemetry::noop(),
            slide_seq: 0,
            tracer: disc_telemetry::Tracer::disabled(),
            prov: Vec::new(),
            prov_on: false,
        }
    }

    /// Builder-style [`set_tracer`](GraphDisc::set_tracer).
    pub fn with_tracer(mut self, tracer: disc_telemetry::Tracer) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// Installs a span tracer (see [`Disc::set_tracer`](crate::Disc::set_tracer)).
    pub fn set_tracer(&mut self, tracer: disc_telemetry::Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer.
    pub fn tracer(&self) -> &disc_telemetry::Tracer {
        &self.tracer
    }

    /// Takes all spans recorded so far; ids stay unique across drains.
    pub fn drain_spans(&mut self) -> Vec<disc_telemetry::SpanRecord> {
        self.tracer.drain()
    }

    #[inline]
    fn emit_prov(&mut self, kind: disc_telemetry::ProvenanceKind) {
        if self.prov_on {
            self.prov.push(disc_telemetry::ProvenanceEvent {
                slide: self.slide_seq + 1,
                kind,
            });
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DiscConfig {
        &self.cfg
    }

    /// Builder-style [`set_recorder`](GraphDisc::set_recorder).
    pub fn with_recorder(mut self, recorder: disc_telemetry::SharedRecorder) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// Routes this engine's telemetry to `recorder`. GraphDisc keeps no
    /// per-phase breakdown (the whole point is that there *are* no search
    /// phases) — it publishes whole-slide latency, the mutation counters,
    /// and the index counters of its arrival-discovery searches.
    pub fn set_recorder(&mut self, recorder: disc_telemetry::SharedRecorder) {
        self.recorder = recorder;
    }

    /// Number of points in the current window.
    pub fn window_len(&self) -> usize {
        self.vertices.len()
    }

    /// Total ε-range searches executed (exactly one per arrival).
    pub fn range_searches(&self) -> u64 {
        self.tree.stats().range_searches
    }

    /// Materialised-graph memory estimate in bytes — the quantity the
    /// paper's O(n²) warning is about. The footprint total over the vertex
    /// table, adjacency lists, index and DSU.
    pub fn memory_bytes(&self) -> usize {
        use disc_telemetry::MemoryFootprint;
        self.mem_bytes() as usize
    }

    fn is_core(&self, v: &Vertex<D>) -> bool {
        v.n_eps() >= self.cfg.tau
    }

    /// Advances the window by one slide; same contract as [`Disc::apply`].
    ///
    /// [`Disc::apply`]: crate::Disc::apply
    pub fn apply(&mut self, batch: &SlideBatch<D>) {
        let eps = self.cfg.eps;
        let start = std::time::Instant::now();
        let index_before = *self.tree.stats();
        self.prov.clear();
        self.prov_on = self.recorder.enabled();
        let sp_slide = self.tracer.begin("slide");

        // --- Departures: pure list surgery -------------------------------
        let sp = self.tracer.begin("departures");
        let mut ex_cores: Vec<PointId> = Vec::new();
        let mut touched: FxHashSet<PointId> = FxHashSet::default();
        for (id, _) in &batch.outgoing {
            let v = self
                .vertices
                .remove(id)
                .unwrap_or_else(|| panic!("outgoing {id} not in window"));
            self.tree.remove(*id, v.point);
            if v.prev_core {
                ex_cores.push(*id); // its neighbours keep the record below
            }
            for q in &v.neigh {
                if let Some(qv) = self.vertices.get_mut(q) {
                    // Θ(deg) removal — the maintenance cost in question.
                    if let Some(pos) = qv.neigh.iter().position(|x| x == id) {
                        qv.neigh.swap_remove(pos);
                    }
                    touched.insert(*q);
                }
            }
        }

        self.tracer
            .end_with_args(sp, &[("outgoing", batch.outgoing.len() as u64)]);

        // --- Arrivals: one range search each ------------------------------
        let sp = self.tracer.begin("arrivals");
        for (id, point) in &batch.incoming {
            self.tree.insert(*id, *point);
            let mut neigh: Vec<PointId> = Vec::new();
            let me = *id;
            self.tree.for_each_in_ball(point, eps, |q, _| {
                if q != me {
                    neigh.push(q);
                }
            });
            for q in &neigh {
                self.vertices
                    .get_mut(q)
                    .expect("indexed point missing")
                    .neigh
                    .push(me);
                touched.insert(*q);
            }
            self.vertices.insert(
                me,
                Vertex {
                    point: *point,
                    neigh,
                    cid: ClusterId(u32::MAX),
                    prev_core: false,
                },
            );
            touched.insert(me);
        }

        self.tracer
            .end_with_args(sp, &[("incoming", batch.incoming.len() as u64)]);

        // --- Classification ------------------------------------------------
        // Ghost ex-cores are gone from the graph; in-window ex-cores and
        // neo-cores come from the touched set.
        let mut neo_cores: Vec<PointId> = Vec::new();
        touched.retain(|id| self.vertices.contains_key(id));
        for id in &touched {
            let v = &self.vertices[id];
            let core = self.is_core(v);
            if v.prev_core && !core {
                ex_cores.push(*id);
            } else if !v.prev_core && core {
                neo_cores.push(*id);
            }
        }
        if self.prov_on {
            for ex in &ex_cores {
                let id = ex.0;
                self.emit_prov(disc_telemetry::ProvenanceKind::ExCoreDetected { id });
            }
            for neo in &neo_cores {
                let id = neo.0;
                self.emit_prov(disc_telemetry::ProvenanceKind::NeoCoreDetected { id });
            }
        }

        // --- Splits: graph connectivity over bonding cores ----------------
        // With the graph materialised, M⁻ is just the surviving-core
        // neighbours of each ex-core region and the check is a plain BFS.
        let mut affected: FxHashSet<PointId> = FxHashSet::default();
        for ex in &ex_cores {
            match self.vertices.get(ex) {
                Some(v) => {
                    for q in &v.neigh {
                        let qv = &self.vertices[q];
                        if qv.prev_core && self.is_core(qv) {
                            affected.insert(*q);
                        }
                    }
                }
                None => {
                    // Departed ex-core: its old neighbours were all touched;
                    // collect surviving cores among them.
                    // (Handled below via the touched set.)
                }
            }
        }
        for id in &touched {
            let v = &self.vertices[id];
            if v.prev_core && self.is_core(v) {
                affected.insert(*id);
            }
        }

        // Group the affected bonding cores by previous cluster and check
        // each group's connectedness with one multi-source BFS over the
        // materialised graph.
        let sp = self.tracer.begin("splits");
        let mut by_root: FxHashMap<u32, Vec<PointId>> = FxHashMap::default();
        for id in affected {
            let root = self.clusters.find(self.vertices[&id].cid.0);
            by_root.entry(root).or_default().push(id);
        }
        for (root, starters) in by_root {
            if starters.len() < 2 {
                continue;
            }
            self.recheck_group(root, &starters);
        }
        self.tracer.end(sp);

        // --- Merges / emergence over neo-cores ----------------------------
        let sp = self.tracer.begin("merges");
        let mut pending: FxHashSet<PointId> = neo_cores.iter().copied().collect();
        while let Some(&seed) = pending.iter().next() {
            pending.remove(&seed);
            // Gather the nascent-reachable class by graph BFS.
            let mut class = vec![seed];
            let mut queue = VecDeque::from([seed]);
            let mut m_roots: Vec<u32> = Vec::new();
            while let Some(r) = queue.pop_front() {
                let v = &self.vertices[&r];
                let neighbours = v.neigh.clone();
                for q in neighbours {
                    let qv = &self.vertices[&q];
                    if !self.is_core(qv) {
                        continue;
                    }
                    if !qv.prev_core {
                        if pending.remove(&q) {
                            class.push(q);
                            queue.push_back(q);
                        }
                    } else {
                        m_roots.push(self.clusters.find(qv.cid.0));
                    }
                }
            }
            let assigned = if m_roots.is_empty() {
                let fresh = ClusterId(self.clusters.alloc());
                self.emit_prov(disc_telemetry::ProvenanceKind::ClusterEmerged {
                    cluster: fresh.0 as u64,
                    rep: seed.0,
                    size: class.len() as u64,
                });
                fresh
            } else {
                let mut root = self.clusters.find(m_roots[0]);
                let mut distinct = 1u64;
                for &r in &m_roots[1..] {
                    let rr = self.clusters.find(r);
                    if rr != root {
                        distinct += 1;
                        root = self.clusters.union(root, rr);
                    }
                }
                if distinct > 1 {
                    self.emit_prov(disc_telemetry::ProvenanceKind::ClusterMerge {
                        winner: root as u64,
                        merged: distinct,
                        rep: seed.0,
                    });
                }
                ClusterId(root)
            };
            for id in class {
                self.vertices.get_mut(&id).expect("neo vanished").cid = assigned;
            }
        }
        self.tracer.end(sp);

        // --- Freeze core status -------------------------------------------
        for id in touched {
            let core = self.is_core(&self.vertices[&id]);
            self.vertices
                .get_mut(&id)
                .expect("touched vanished")
                .prev_core = core;
        }

        self.slide_seq += 1;
        self.tracer
            .end_with_args(sp_slide, &[("seq", self.slide_seq)]);
        if self.recorder.enabled() {
            use disc_telemetry::MemoryFootprint;
            let fp = self.footprint();
            let mem_bytes = fp.total();
            for (component, bytes) in fp.flatten() {
                self.recorder.gauge_set_labeled(
                    "disc_mem_bytes",
                    "component",
                    &component,
                    bytes as f64,
                );
            }
            if let Some(rss) = disc_telemetry::rss_bytes() {
                self.recorder.gauge_set("disc_rss_bytes", rss as f64);
            }
            // Census gauges for the health layer, gated like the footprint
            // walk so an uninstrumented engine never pays for them.
            let (core, border, noise) = self.census();
            self.recorder.gauge_set("disc_core_points", core as f64);
            self.recorder.gauge_set("disc_border_points", border as f64);
            self.recorder.gauge_set("disc_noise_points", noise as f64);
            self.recorder
                .gauge_set("disc_cluster_count", self.num_clusters() as f64);
            let rec = self.recorder.as_ref();
            let elapsed = start.elapsed();
            rec.counter_add("disc_slides_total", 1);
            rec.counter_add("disc_points_inserted_total", batch.incoming.len() as u64);
            rec.counter_add("disc_points_removed_total", batch.outgoing.len() as u64);
            rec.record_duration("disc_slide_seconds", elapsed);
            rec.gauge_set("disc_window_points", self.vertices.len() as f64);
            let index = self.tree.stats().since(&index_before);
            index.publish_to(rec);
            rec.emit(&disc_telemetry::SlideEvent {
                seq: self.slide_seq,
                engine: "graphdisc",
                backend: B::NAME,
                window_len: self.vertices.len(),
                inserted: batch.incoming.len(),
                removed: batch.outgoing.len(),
                total_ns: elapsed.as_nanos() as u64,
                range_searches: index.range_searches,
                epoch_probes: index.epoch_probes,
                nodes_visited: index.nodes_visited,
                distance_checks: index.distance_checks,
                subtrees_pruned: index.subtrees_pruned,
                mem_bytes,
                ..disc_telemetry::SlideEvent::default()
            });
            for ev in self.prov.drain(..) {
                rec.emit_provenance(&ev);
            }
        }
    }

    /// Re-derives the components of a bonding-core group by multi-source
    /// BFS over the graph; detached components get fresh ids. `root` is the
    /// group's previous cluster, named in the split provenance.
    fn recheck_group(&mut self, root: u32, starters: &[PointId]) {
        let mut comp_of: FxHashMap<PointId, usize> = FxHashMap::default();
        let mut comps: Vec<Vec<PointId>> = Vec::new();
        for &s in starters {
            if comp_of.contains_key(&s) {
                continue;
            }
            let idx = comps.len();
            let mut comp = vec![s];
            comp_of.insert(s, idx);
            let mut queue = VecDeque::from([s]);
            while let Some(r) = queue.pop_front() {
                let neighbours = self.vertices[&r].neigh.clone();
                for q in neighbours {
                    if comp_of.contains_key(&q) {
                        continue;
                    }
                    let qv = &self.vertices[&q];
                    if self.is_core(qv) {
                        comp_of.insert(q, idx);
                        comp.push(q);
                        queue.push_back(q);
                    }
                }
            }
            comps.push(comp);
        }
        // First component keeps the old id, the rest get fresh ids.
        if comps.len() > 1 {
            self.emit_prov(disc_telemetry::ProvenanceKind::ClusterSplit {
                old: root as u64,
                parts: comps.len() as u64,
                rep: comps[0][0].0,
            });
        }
        for comp in comps.iter().skip(1) {
            let fresh = ClusterId(self.clusters.alloc());
            for id in comp {
                self.vertices.get_mut(id).expect("core vanished").cid = fresh;
            }
        }
    }

    /// `(id, cluster)` assignments sorted by arrival id, `-1` for noise.
    pub fn assignments(&self) -> Vec<(PointId, i64)> {
        let tau = self.cfg.tau;
        let mut out: Vec<(PointId, i64)> = self
            .vertices
            .iter()
            .map(|(id, v)| {
                let label = if v.n_eps() >= tau {
                    self.clusters.find_immutable(v.cid.0) as i64
                } else {
                    // Border: any core neighbour adopts (graph lookup, no
                    // searches).
                    v.neigh
                        .iter()
                        .find(|q| {
                            let qv = &self.vertices[q];
                            qv.n_eps() >= tau
                        })
                        .map(|q| self.clusters.find_immutable(self.vertices[q].cid.0) as i64)
                        .unwrap_or(-1)
                };
                (*id, label)
            })
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// The label of one window point.
    pub fn label_of(&self, id: PointId) -> Option<PointLabel> {
        let v = self.vertices.get(&id)?;
        let tau = self.cfg.tau;
        if v.n_eps() >= tau {
            return Some(PointLabel::Core(ClusterId(
                self.clusters.find_immutable(v.cid.0),
            )));
        }
        for q in &v.neigh {
            let qv = &self.vertices[q];
            if qv.n_eps() >= tau {
                return Some(PointLabel::Border(ClusterId(
                    self.clusters.find_immutable(qv.cid.0),
                )));
            }
        }
        Some(PointLabel::Noise)
    }

    /// Number of distinct clusters.
    pub fn num_clusters(&self) -> usize {
        let tau = self.cfg.tau;
        let mut roots: FxHashSet<u32> = FxHashSet::default();
        for v in self.vertices.values() {
            if v.n_eps() >= tau {
                roots.insert(self.clusters.find_immutable(v.cid.0));
            }
        }
        roots.len()
    }

    /// `(core, border, noise)` counts over the window — O(window) via the
    /// materialised adjacency, no searches.
    pub fn census(&self) -> (usize, usize, usize) {
        let tau = self.cfg.tau;
        let (mut core, mut border, mut noise) = (0, 0, 0);
        for v in self.vertices.values() {
            if v.n_eps() >= tau {
                core += 1;
            } else if v.neigh.iter().any(|q| self.vertices[q].n_eps() >= tau) {
                border += 1;
            } else {
                noise += 1;
            }
        }
        (core, border, noise)
    }
}

impl<const D: usize, B: SpatialBackend<D>> disc_telemetry::MemoryFootprint for GraphDisc<D, B> {
    /// The materialised graph's bytes: the vertex table, the adjacency
    /// lists (the component the paper's O(n²) warning targets), and the
    /// shared index + DSU. Decomposed so the `disc_mem_bytes` gauges show
    /// the adjacency blow-up as its own line.
    fn footprint(&self) -> disc_telemetry::FootprintNode {
        use disc_telemetry::{map_bytes, FootprintNode};
        let table = map_bytes(
            self.vertices.capacity(),
            std::mem::size_of::<(PointId, Vertex<D>)>(),
        );
        let adjacency: usize = self
            .vertices
            .values()
            .map(|v| v.neigh.capacity() * std::mem::size_of::<PointId>())
            .sum();
        FootprintNode::branch(
            "graph",
            vec![
                FootprintNode::leaf("vertices", table),
                FootprintNode::leaf("adjacency", adjacency),
                self.tree.footprint(),
                self.clusters.footprint(),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Disc, DiscConfig};
    use disc_metrics::ari;
    use disc_window::{datasets, SlidingWindow};

    fn agree(
        records: Vec<disc_window::Record<2>>,
        window: usize,
        stride: usize,
        eps: f64,
        tau: usize,
    ) {
        let mut w = SlidingWindow::new(records, window, stride);
        let mut graph = GraphDisc::new(DiscConfig::new(eps, tau));
        let mut disc = Disc::new(DiscConfig::new(eps, tau));
        let fill = w.fill();
        graph.apply(&fill);
        disc.apply(&fill);
        loop {
            let a: Vec<i64> = graph.assignments().into_iter().map(|(_, l)| l).collect();
            let b: Vec<i64> = disc.assignments().into_iter().map(|(_, l)| l).collect();
            // Core partitions identical ⇒ ARI over non-noise flags must be
            // 1.0 when borders are unambiguous; tolerate border flips by
            // checking noise agreement plus cluster-count equality plus a
            // very high ARI.
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(*x < 0, *y < 0, "noise flag diverged");
            }
            let ca: std::collections::HashSet<i64> =
                a.iter().copied().filter(|&l| l >= 0).collect();
            let cb: std::collections::HashSet<i64> =
                b.iter().copied().filter(|&l| l >= 0).collect();
            assert_eq!(ca.len(), cb.len(), "cluster count diverged");
            assert!(ari(&a, &b) > 0.999, "partitions diverged: {}", ari(&a, &b));
            match w.advance() {
                Some(batch) => {
                    graph.apply(&batch);
                    disc.apply(&batch);
                }
                None => break,
            }
        }
    }

    #[test]
    fn matches_disc_on_maze() {
        agree(datasets::maze(1500, 10, 3), 400, 80, 0.6, 5);
    }

    #[test]
    fn matches_disc_on_noisy_covid() {
        agree(datasets::covid_like(1200, 11), 400, 100, 1.2, 5);
    }

    #[test]
    fn matches_disc_on_blobs_full_turnover() {
        agree(
            datasets::gaussian_blobs::<2>(900, 3, 0.6, 9),
            300,
            300,
            1.0,
            5,
        );
    }

    #[test]
    fn traces_and_provenance_mirror_disc_vocabulary() {
        use disc_geom::Point;
        use disc_telemetry::{
            JsonlRecord, MemorySink, ProvenanceEvent, ProvenanceKind, Registry, Tracer,
        };
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::<ProvenanceEvent>::new());
        let reg = Arc::new(Registry::new().with_provenance(Box::new(sink.clone())));
        let mut g: GraphDisc<2> = GraphDisc::new(DiscConfig::new(0.6, 3))
            .with_recorder(reg.clone())
            .with_tracer(Tracer::new());
        let line = SlideBatch {
            incoming: (0..9u64)
                .map(|i| (PointId(i), Point::new([i as f64 * 0.5, 0.0])))
                .collect(),
            outgoing: vec![],
        };
        g.apply(&line);
        let cut = SlideBatch {
            incoming: vec![],
            outgoing: vec![(PointId(4), Point::new([2.0, 0.0]))],
        };
        g.apply(&cut);

        let spans = g.drain_spans();
        for name in ["slide", "departures", "arrivals", "splits", "merges"] {
            assert!(spans.iter().any(|s| s.name == name), "missing {name}");
        }
        disc_telemetry::validate_chrome_trace(&disc_telemetry::chrome_trace_json(&spans)).unwrap();

        let evs = sink.events();
        assert!(evs
            .iter()
            .any(|e| e.slide == 1 && matches!(e.kind, ProvenanceKind::ClusterEmerged { .. })));
        assert!(evs
            .iter()
            .any(|e| e.slide == 2 && matches!(e.kind, ProvenanceKind::ExCoreDetected { id: 4 })));
        assert!(evs.iter().any(
            |e| e.slide == 2 && matches!(e.kind, ProvenanceKind::ClusterSplit { parts: 2, .. })
        ));
        for e in &evs {
            ProvenanceEvent::validate_jsonl(&e.to_jsonl()).unwrap();
        }
    }

    #[test]
    fn one_search_per_arrival() {
        let recs = datasets::gaussian_blobs::<2>(600, 3, 0.5, 5);
        let n = recs.len() as u64;
        let mut w = SlidingWindow::new(recs, 200, 50);
        let mut g = GraphDisc::new(DiscConfig::new(1.0, 4));
        g.apply(&w.fill());
        while let Some(b) = w.advance() {
            g.apply(&b);
        }
        assert_eq!(g.range_searches(), n);
    }

    #[test]
    fn memory_scales_with_density() {
        // Same points, two ε values: the materialised graph's memory grows
        // with the neighbourhood size — the paper's O(n²) concern.
        let recs = datasets::gaussian_blobs::<2>(800, 1, 1.0, 7);
        let mem_at = |eps: f64| {
            let mut w = SlidingWindow::new(recs.clone(), 800, 800);
            let mut g = GraphDisc::new(DiscConfig::new(eps, 4));
            g.apply(&w.fill());
            g.memory_bytes()
        };
        let sparse = mem_at(0.2);
        let dense = mem_at(4.0);
        assert!(
            dense > sparse * 5,
            "denser ε must inflate the graph: {dense} vs {sparse}"
        );
    }
}
