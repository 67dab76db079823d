//! The public `Disc` engine.

use crate::balls::BallStore;
use crate::config::DiscConfig;
use crate::dsu::Dsu;
use crate::label::{ClusterId, PointLabel};
use crate::record::PointMeta;
use crate::stats::SlideStats;
use crate::store::PointStore;
use disc_geom::{FxHashMap, FxHashSet, Point, PointId};
use disc_index::{RTree, SpatialBackend};
use disc_telemetry::MemoryFootprint;
use disc_window::SlideBatch;
use std::cell::RefCell;

/// A slide batch that cannot be applied (driver bug).
///
/// Returned by [`Disc::try_apply`]; [`Disc::apply`] panics on the same
/// conditions instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlideError {
    /// An outgoing id is not in the current window.
    UnknownOutgoing(PointId),
    /// An outgoing id appears twice in the batch. A driver never emits
    /// this, but a replayed journal/WAL batch that decoded cleanly can
    /// still carry it (admission-layer hardening, DESIGN.md §16): retiring
    /// the same point twice would corrupt the window, so it is rejected
    /// before any state changes.
    DuplicateOutgoing(PointId),
    /// An incoming id is already in the window (or appears twice in the
    /// batch).
    DuplicateIncoming(PointId),
    /// An incoming point has a NaN or infinite coordinate. Such points have
    /// no meaningful ε-neighbourhood and would poison every index they
    /// touch, so they are rejected before any state changes.
    NonFinite(PointId),
    /// An incoming id is that of a core departing in the same batch. A
    /// departed core stays indexed under its id until CLUSTER has examined
    /// its class (`C_out`, Alg. 2 line 8), so the arrival would put two
    /// points under one id. A departing border or noise id may re-enter.
    ReenteringCore(PointId),
}

impl std::fmt::Display for SlideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlideError::UnknownOutgoing(id) => {
                write!(f, "outgoing point {id} is not in the window")
            }
            SlideError::DuplicateOutgoing(id) => {
                write!(f, "outgoing point {id} appears twice in the batch")
            }
            SlideError::DuplicateIncoming(id) => {
                write!(f, "incoming point {id} already in the window")
            }
            SlideError::NonFinite(id) => {
                write!(f, "incoming point {id} has non-finite coordinates")
            }
            SlideError::ReenteringCore(id) => {
                write!(f, "incoming point {id} reuses the id of a departing core")
            }
        }
    }
}

impl std::error::Error for SlideError {}

/// An incremental DBSCAN-equivalent clusterer for sliding windows.
///
/// Feed it the [`SlideBatch`]es produced by
/// [`disc_window::SlidingWindow`]; after every [`apply`] the engine holds
/// the exact density-based clustering of the current window.
///
/// The second type parameter selects the neighbourhood index — any
/// [`SpatialBackend`], defaulting to the paper's [`RTree`] so existing
/// `Disc<D>` code compiles unchanged. `Disc<D, GridIndex<D>>` runs the same
/// algorithm over the uniform grid:
///
/// ```
/// use disc_core::{Disc, DiscConfig};
/// use disc_index::GridIndex;
///
/// let mut disc: Disc<2, GridIndex<2>> = Disc::with_index(DiscConfig::new(1.0, 5));
/// # let _ = &mut disc;
/// ```
///
/// See the crate docs for an end-to-end example.
///
/// [`apply`]: Disc::apply
pub struct Disc<const D: usize, B: SpatialBackend<D> = RTree<D>> {
    pub(crate) cfg: DiscConfig,
    /// Per-point state, keyed by arrival id. After each `apply` this holds
    /// exactly the points of the current window.
    pub(crate) points: PointStore<D>,
    /// Spatial index over the window (plus `C_out` ghosts mid-slide).
    pub(crate) tree: B,
    /// Union-find over cluster ids; the canonical id is the root.
    pub(crate) clusters: Dsu,
    /// Non-cores the final adoption pass must search for a core: borders
    /// whose adopter left the window or lost core status this slide. Any
    /// other unadopted non-core has either no core in range or a neo-core
    /// that adopts it in the neo-core phase (DESIGN.md §3, "Border
    /// adoption"), so it is never queued.
    /// A point enters at most once: the release that queues it also clears
    /// its adopter.
    pub(crate) needs_adoption: Vec<PointId>,
    /// Points whose `n_ε` changed this slide (candidate ex-/neo-cores),
    /// each listed once: the first touch marks it with the slide's stamp.
    pub(crate) touched: Vec<PointId>,
    /// The last stamp drawn (see [`fresh_stamps`](Disc::fresh_stamps)).
    stamp: u32,
    /// The ε-balls this slide's COLLECT enumerated, read by CLUSTER
    /// instead of searching again (`balls.rs`). Empty between slides.
    pub(crate) balls: BallStore,
    /// Memoised DSU-root resolution shared by every `&self` inspection
    /// method between slides; invalidated by `apply` (the only place unions
    /// happen). A bench loop calling `labels()`, `num_clusters()` and
    /// `census()` per slide walks each parent chain once, not three times.
    root_cache: RefCell<FxHashMap<u32, u32>>,
    last_stats: SlideStats,
    /// Telemetry destination. Defaults to the no-op recorder, whose
    /// `enabled() == false` makes publication one virtual call and a branch
    /// per slide — the algorithm itself is never instrumented inline.
    recorder: disc_telemetry::SharedRecorder,
    /// Committed slides so far (1-based sequence number of the next event).
    slide_seq: u64,
    /// Span tracer. Disabled by default; every span site costs one branch
    /// when off (see [`Tracer::begin`](disc_telemetry::Tracer::begin)).
    pub(crate) tracer: disc_telemetry::Tracer,
    /// Provenance events buffered during the current slide; published to
    /// the recorder only after the slide commits, so rejected batches leak
    /// nothing into the causal stream.
    pub(crate) prov: Vec<disc_telemetry::ProvenanceEvent>,
    /// Whether the current slide buffers provenance (recorder enabled).
    pub(crate) prov_on: bool,
    /// Worker pool for COLLECT's ε-ball gather, sized from
    /// `cfg.effective_threads()` at construction. Width 1 (the default)
    /// gathers inline; any wider and the gather fans out over chunks of
    /// centers while all state mutation stays sequential — output is
    /// bit-identical either way (DESIGN.md §12).
    pub(crate) pool: disc_par::Pool,
}

impl<const D: usize> Disc<D> {
    /// Creates an engine with an empty window over the default R-tree
    /// backend. Defined on the default instantiation (rather than the
    /// generic one) so `Disc::new(cfg)` keeps inferring `Disc<D>` at call
    /// sites that never name a backend.
    pub fn new(cfg: DiscConfig) -> Self {
        Disc::with_index(cfg)
    }
}

impl<const D: usize, B: SpatialBackend<D>> Disc<D, B> {
    /// Creates an engine with an empty window over backend `B`. The backend
    /// is constructed with the configured ε as its sizing hint.
    pub fn with_index(cfg: DiscConfig) -> Self {
        let pool = disc_par::Pool::new(cfg.effective_threads());
        Disc {
            cfg,
            points: PointStore::new(),
            tree: B::with_eps_hint(cfg.eps),
            clusters: Dsu::new(),
            needs_adoption: Vec::new(),
            touched: Vec::new(),
            stamp: 0,
            balls: BallStore::default(),
            root_cache: RefCell::new(FxHashMap::default()),
            last_stats: SlideStats::default(),
            recorder: disc_telemetry::noop(),
            slide_seq: 0,
            tracer: disc_telemetry::Tracer::disabled(),
            prov: Vec::new(),
            prov_on: false,
            pool,
        }
    }

    /// The effective worker count of this engine (resolved from
    /// [`DiscConfig::threads`]; 1 = sequential).
    pub fn worker_width(&self) -> usize {
        self.pool.width()
    }

    /// Re-targets the worker pool (0 = auto). Safe at any slide boundary:
    /// the width is a host-execution knob that never reaches the
    /// clustering state, so a checkpointed run can resume at a different
    /// width — `disc resume --threads N` — and stay exact.
    pub fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads;
        self.pool = disc_par::Pool::new(self.cfg.effective_threads());
    }

    /// Scans `centers`' ε-balls in parallel over fixed-size chunks of the
    /// frozen index snapshot and returns the raw hits as `(center index,
    /// id)` pairs, concatenated in chunk order. Per-task index counters are
    /// merged back in task order, so the totals are independent of worker
    /// count. The chunk size is a constant (not derived from the width) so
    /// the chunk boundaries — and with them every per-chunk counter — are
    /// thread-count-invariant.
    ///
    /// Callers replay the returned hits sequentially; every COLLECT effect
    /// is commutative across hits (counts, first-touch marks, min-id adopter
    /// selection), so chunked hit order is as good as the single bulk
    /// traversal's. This is the engine's only parallel phase.
    pub(crate) fn par_ball_hits(&mut self, centers: &[Point<D>]) -> Vec<(u32, PointId)> {
        const CHUNK: usize = 256;
        let eps = self.cfg.eps;
        let n_chunks = centers.len().div_ceil(CHUNK);
        let tree = &self.tree;
        let tasks = self.pool.run(n_chunks, |c| {
            let base = c * CHUNK;
            let slice = &centers[base..(base + CHUNK).min(centers.len())];
            let mut hits: Vec<(u32, PointId)> = Vec::new();
            let mut stats = disc_index::Stats::default();
            tree.scan_balls(
                slice,
                eps,
                |ci, qid, _| hits.push(((base + ci) as u32, qid)),
                &mut stats,
            );
            (hits, stats)
        });
        let mut all: Vec<(u32, PointId)> = Vec::new();
        for (hits, stats) in tasks {
            self.tree.stats_mut().merge(&stats);
            all.extend(hits);
        }
        all
    }

    /// Reserves `n` consecutive stamps and returns the first. Each is
    /// larger than every stamp a point carries, so marking a point with one
    /// is a visited-mark that needs no clearing (the paper's epoch trick,
    /// Alg. 4, applied to the slide's own bookkeeping). When the counter
    /// would wrap, every stamp in the store is blanked first; a phase draws
    /// all its stamps in one call, so that never happens mid-phase.
    pub(crate) fn fresh_stamps(&mut self, n: usize) -> u32 {
        let n = u32::try_from(n).expect("stamp draw exceeds u32");
        if u32::MAX - self.stamp < n {
            self.points.clear_stamps();
            self.stamp = 0;
        }
        let first = self.stamp + 1;
        self.stamp += n;
        first
    }

    /// Starts the stamp counter at `last`, as if that many had been drawn.
    #[cfg(test)]
    pub(crate) fn set_stamp_counter(&mut self, last: u32) {
        self.stamp = last;
    }

    /// Builder-style [`set_recorder`](Disc::set_recorder).
    pub fn with_recorder(mut self, recorder: disc_telemetry::SharedRecorder) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// Routes this engine's telemetry to `recorder`. Every *committed*
    /// slide publishes per-phase latency histograms, evolution and index
    /// counters, and one structured [`SlideEvent`] — rejected batches
    /// ([`try_apply`](Disc::try_apply) errors) publish nothing.
    ///
    /// [`SlideEvent`]: disc_telemetry::SlideEvent
    pub fn set_recorder(&mut self, recorder: disc_telemetry::SharedRecorder) {
        self.recorder = recorder;
    }

    /// Builder-style [`set_tracer`](Disc::set_tracer).
    pub fn with_tracer(mut self, tracer: disc_telemetry::Tracer) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// Installs a span tracer. An enabled tracer records one hierarchical
    /// span tree per committed slide (`slide → collect/cluster/adoption →
    /// msbfs / range-search groups`); collect via
    /// [`drain_spans`](Disc::drain_spans) or [`tracer`](Disc::tracer).
    /// Rejected batches record nothing.
    pub fn set_tracer(&mut self, tracer: disc_telemetry::Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (read access to recorded spans).
    pub fn tracer(&self) -> &disc_telemetry::Tracer {
        &self.tracer
    }

    /// Takes all spans recorded so far, leaving the tracer armed. Span ids
    /// stay unique across drains, so per-slide drains can be concatenated
    /// into one export batch.
    pub fn drain_spans(&mut self) -> Vec<disc_telemetry::SpanRecord> {
        self.tracer.drain()
    }

    /// Buffers one provenance event for the slide being applied. Published
    /// to the recorder only when the slide commits.
    #[inline]
    pub(crate) fn emit_prov(&mut self, kind: disc_telemetry::ProvenanceKind) {
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

    /// The backend's short name (`"rtree"`, `"grid"`).
    pub fn backend_name(&self) -> &'static str {
        B::NAME
    }

    /// Number of points in the current window.
    pub fn window_len(&self) -> usize {
        self.points.len()
    }

    /// Statistics of the most recent [`apply`](Disc::apply).
    pub fn last_stats(&self) -> &SlideStats {
        &self.last_stats
    }

    /// Cumulative index statistics (range searches etc.).
    pub fn index_stats(&self) -> &disc_index::Stats {
        self.tree.stats()
    }

    /// Advances the window by one slide: retires `batch.outgoing`, admits
    /// `batch.incoming`, and updates the clustering so it matches a
    /// from-scratch DBSCAN of the new window.
    ///
    /// Panics if an outgoing id is not in the window or an incoming id is
    /// already present — both indicate a driver bug. Use
    /// [`try_apply`](Disc::try_apply) to get a typed error instead.
    pub fn apply(&mut self, batch: &SlideBatch<D>) -> SlideStats {
        match self.try_apply(batch) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`apply`](Disc::apply): validates the batch first and
    /// returns a [`SlideError`] instead of panicking. On `Err` the engine
    /// is untouched and remains usable.
    pub fn try_apply(&mut self, batch: &SlideBatch<D>) -> Result<SlideStats, SlideError> {
        self.validate(batch)?;
        self.root_cache.borrow_mut().clear();
        self.prov.clear();
        self.prov_on = self.recorder.enabled();

        let start = std::time::Instant::now();
        let index_before = *self.tree.stats();
        let mut stats = SlideStats {
            inserted: batch.incoming.len(),
            removed: batch.outgoing.len(),
            ..SlideStats::default()
        };

        let sp_slide = self.tracer.begin("slide");

        let sp = self.tracer.begin("collect");
        let outcome = self.collect(batch);
        stats.ex_cores = outcome.ex_cores.len();
        stats.neo_cores = outcome.neo_cores.len();
        stats.collect_time = start.elapsed();
        self.tracer.end_with_args(
            sp,
            &[
                ("ex_cores", stats.ex_cores as u64),
                ("neo_cores", stats.neo_cores as u64),
            ],
        );

        let t_cluster = std::time::Instant::now();
        let sp = self.tracer.begin("cluster");
        self.cluster(&outcome, &mut stats);
        stats.cluster_time = t_cluster.elapsed();
        self.tracer.end_with_args(
            sp,
            &[
                ("splits", stats.splits as u64),
                ("merges", stats.merges as u64),
                ("emerged", stats.emerged as u64),
            ],
        );

        let t_adoption = std::time::Instant::now();
        let sp = self.tracer.begin("adoption");
        self.adoption_pass(&mut stats);
        stats.adoption_time = t_adoption.elapsed();
        self.tracer
            .end_with_args(sp, &[("searches", stats.adoption_searches as u64)]);

        // Freeze core status for the next slide and drop any remaining
        // bookkeeping. Ghost records were dropped by the cluster step.
        let tau = self.cfg.tau;
        for id in self.touched.drain(..) {
            if let Some(rec) = self.points.get_mut(id) {
                rec.prev_core = rec.in_window && rec.n_eps as usize >= tau;
            }
        }

        stats.index = self.tree.stats().since(&index_before);
        stats.elapsed = start.elapsed();
        // Byte accounting rides the same enabled() gate as the rest of the
        // telemetry: an uninstrumented engine never walks its footprint.
        let footprint = self.recorder.enabled().then(|| self.footprint());
        if let Some(fp) = &footprint {
            stats.mem_bytes = fp.total();
        }
        self.last_stats = stats;
        self.slide_seq += 1;
        self.tracer.end_with_args(
            sp_slide,
            &[
                ("seq", self.slide_seq),
                ("inserted", stats.inserted as u64),
                ("removed", stats.removed as u64),
                ("window", self.points.len() as u64),
            ],
        );
        if let Some(fp) = &footprint {
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
            // Census gauges for the health layer: O(window), so they ride
            // the same gate as the footprint walk.
            let ((core, border, noise), clusters) = self.census_and_clusters();
            self.recorder.gauge_set("disc_core_points", core as f64);
            self.recorder.gauge_set("disc_border_points", border as f64);
            self.recorder.gauge_set("disc_noise_points", noise as f64);
            self.recorder
                .gauge_set("disc_cluster_count", clusters as f64);
        }
        stats.publish_to(
            self.recorder.as_ref(),
            self.slide_seq,
            "disc",
            B::NAME,
            self.points.len(),
        );
        // The slide is committed: release the buffered causal narrative.
        for ev in self.prov.drain(..) {
            self.recorder.emit_provenance(&ev);
        }
        Ok(stats)
    }

    /// Rejects batches that [`apply`](Disc::apply) would panic on, before
    /// any state is touched. An incoming id may reuse the id of a border or
    /// noise point departing in the same batch (outgoing retires first),
    /// but not that of a departing core.
    fn validate(&self, batch: &SlideBatch<D>) -> Result<(), SlideError> {
        // Sorted scratch id lists, not hash tables: each side is scanned in
        // order and the first offence wins.
        let in_window = |id: &PointId| self.points.meta_of(*id).filter(|m| m.in_window);
        let (outgoing, repeat) = sorted_ids(batch.outgoing.iter().map(|(id, _)| *id));
        for (i, (id, _)) in batch.outgoing.iter().enumerate() {
            if in_window(id).is_none() {
                return Err(SlideError::UnknownOutgoing(*id));
            }
            if repeat == Some(i) {
                return Err(SlideError::DuplicateOutgoing(*id));
            }
        }
        let (_, repeat) = sorted_ids(batch.incoming.iter().map(|(id, _)| *id));
        for (i, (id, point)) in batch.incoming.iter().enumerate() {
            if !point.is_finite() {
                return Err(SlideError::NonFinite(*id));
            }
            // Every departing id is a window point (checked above), so only
            // a window point needs the search.
            let present = in_window(id);
            let departing =
                present.is_some() && outgoing.binary_search_by_key(id, |&(out, _)| out).is_ok();
            if departing && present.is_some_and(|m| m.prev_core) {
                return Err(SlideError::ReenteringCore(*id));
            }
            if (present.is_some() && !departing) || repeat == Some(i) {
                return Err(SlideError::DuplicateIncoming(*id));
            }
        }
        Ok(())
    }

    /// Committed slides so far. The initial window fill counts as slide 1,
    /// so this equals the 1-based sequence number carried by the last
    /// published [`SlideEvent`](disc_telemetry::SlideEvent).
    pub fn slide_seq(&self) -> u64 {
        self.slide_seq
    }

    /// Restores the slide counter (checkpoint restore path).
    pub(crate) fn set_slide_seq(&mut self, seq: u64) {
        self.slide_seq = seq;
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// Whether `id` is currently a core point.
    pub fn is_core(&self, id: PointId) -> bool {
        self.points
            .get(id)
            .map(|r| r.is_core(self.cfg.tau))
            .unwrap_or(false)
    }

    /// The label of one window point (`None` if not in the window).
    pub fn label_of(&self, id: PointId) -> Option<PointLabel> {
        let meta = self.points.meta_of(id)?;
        Some(self.resolver().label(meta))
    }

    /// The one label resolver behind every read path, borrowing the
    /// memoised root cache for as long as it lives.
    fn resolver(&self) -> LabelResolver<'_, D> {
        LabelResolver {
            points: &self.points,
            clusters: &self.clusters,
            tau: self.cfg.tau,
            cache: self.root_cache.borrow_mut(),
        }
    }

    /// Resolves every window point's label in store-slot order, reading
    /// only the id and meta columns.
    fn for_each_label(&self, mut f: impl FnMut(PointId, PointLabel)) {
        let mut resolver = self.resolver();
        for (id, meta) in self.points.iter_meta() {
            f(id, resolver.label(meta));
        }
    }

    /// Labels of every window point, in unspecified order.
    pub fn labels(&self) -> Vec<(PointId, PointLabel)> {
        let mut out = Vec::with_capacity(self.points.len());
        self.for_each_label(|id, label| out.push((id, label)));
        out
    }

    /// `(id, cluster)` assignments sorted by arrival id, with `-1` for
    /// noise — the exchange format of the metrics crate and CSV dumps.
    pub fn assignments(&self) -> Vec<(PointId, i64)> {
        let mut out = Vec::with_capacity(self.points.len());
        self.for_each_label(|id, label| out.push((id, label.as_i64())));
        into_id_order(&mut out, |(id, _)| *id);
        out
    }

    /// `(point, cluster)` rows for snapshot dumps (Fig. 12).
    pub fn snapshot(&self) -> Vec<(Point<D>, i64)> {
        let mut rows = Vec::with_capacity(self.points.len());
        self.for_each_label(|id, label| rows.push((id, label.as_i64())));
        into_id_order(&mut rows, |(id, _)| *id);
        rows.into_iter()
            .map(|(id, label)| (self.points.point_at(id), label))
            .collect()
    }

    /// Number of distinct clusters in the current window.
    pub fn num_clusters(&self) -> usize {
        let mut roots: FxHashSet<u32> = FxHashSet::default();
        self.for_each_label(|_, label| {
            if let PointLabel::Core(c) = label {
                roots.insert(c.0);
            }
        });
        roots.len()
    }

    /// Number of core / border / noise points (diagnostics).
    pub fn census(&self) -> (usize, usize, usize) {
        let (mut core, mut border, mut noise) = (0, 0, 0);
        self.for_each_label(|_, label| match label {
            PointLabel::Core(_) => core += 1,
            PointLabel::Border(_) => border += 1,
            PointLabel::Noise => noise += 1,
        });
        (core, border, noise)
    }

    /// [`census`](Disc::census) and [`num_clusters`](Disc::num_clusters)
    /// in one walk of the meta column. A border or noise point needs only
    /// its adopter's presence, never a root, and each distinct raw cluster
    /// id is resolved once, however many cores carry it.
    fn census_and_clusters(&self) -> ((usize, usize, usize), usize) {
        let tau = self.cfg.tau;
        let mut resolver = self.resolver();
        let (mut core, mut border, mut noise) = (0, 0, 0);
        let mut raw_seen: FxHashSet<u32> = FxHashSet::default();
        let mut roots: FxHashSet<u32> = FxHashSet::default();
        // Neighbouring slots mostly share a raw id: skip the set for them.
        let mut last_raw = None;
        for (_, meta) in self.points.iter_meta() {
            if meta.is_core(tau) {
                core += 1;
                if last_raw != Some(meta.cid) && raw_seen.insert(meta.cid.0) {
                    roots.insert(resolver.root(meta.cid).0);
                }
                last_raw = Some(meta.cid);
            } else if meta.adopter.is_some_and(|a| self.points.contains(a)) {
                border += 1;
            } else {
                noise += 1;
            }
        }
        ((core, border, noise), roots.len())
    }

    /// Validates internal invariants exhaustively — O(n · range search).
    /// Test-only helper.
    pub fn check_invariants(&mut self) {
        self.tree.check_invariants();
        assert_eq!(self.tree.len(), self.points.len(), "tree/map desync");
        let tau = self.cfg.tau;
        let eps = self.cfg.eps;
        let ids: Vec<(PointId, Point<D>)> =
            self.points.iter().map(|(id, r)| (id, r.point)).collect();
        for (id, pos) in ids {
            let n = self.tree.ball_count(&pos, eps);
            let rec = self.points.at(id);
            assert!(rec.in_window, "ghost survived the slide: {id}");
            assert_eq!(
                rec.n_eps as usize, n,
                "n_eps out of date for {id} at {pos:?}"
            );
            assert_eq!(rec.prev_core, rec.is_core(tau), "prev_core not frozen");
            if !rec.is_core(tau) {
                if let Some(a) = rec.adopter {
                    let arec = self.points.get(a).expect("adopter left the window");
                    assert!(arec.is_core(tau), "adopter of {id} is not a core");
                    assert!(
                        rec.point.within(&arec.point, eps),
                        "adopter of {id} is out of range"
                    );
                } else {
                    // Invariant I, which lets the adoption pass skip stale
                    // noise: an unadopted non-core has no core in range.
                    let mut ball: Vec<PointId> = Vec::new();
                    self.tree
                        .for_each_in_ball(&pos, eps, |qid, _| ball.push(qid));
                    let core = ball.into_iter().find(|&q| self.is_core(q));
                    assert!(core.is_none(), "noise {id} has core {core:?} in range");
                }
            }
        }
    }
}

/// Resolves window labels from the meta column alone: a core's label is
/// the DSU root of its raw cluster id, a border's is its adopter's, found
/// with a meta-only lookup. Roots are memoised in the engine's root cache,
/// which stays valid until the next slide.
struct LabelResolver<'a, const D: usize> {
    points: &'a PointStore<D>,
    clusters: &'a Dsu,
    tau: usize,
    cache: std::cell::RefMut<'a, FxHashMap<u32, u32>>,
}

impl<const D: usize> LabelResolver<'_, D> {
    #[inline]
    fn root(&mut self, cid: ClusterId) -> ClusterId {
        ClusterId(self.clusters.find_cached(cid.0, &mut self.cache))
    }

    #[inline]
    fn label(&mut self, meta: &PointMeta) -> PointLabel {
        if meta.is_core(self.tau) {
            return PointLabel::Core(self.root(meta.cid));
        }
        match meta.adopter.and_then(|a| self.points.meta_of(a)) {
            Some(core) => {
                debug_assert!(core.is_core(self.tau), "stale adopter {:?}", meta.adopter);
                PointLabel::Border(self.root(core.cid))
            }
            None => PointLabel::Noise,
        }
    }
}

/// One side of a batch as `(id, position)` pairs sorted by id, plus the
/// earliest position whose id already occurred before it: the
/// `Duplicate*` offence an in-order scan of that side meets first.
fn sorted_ids(ids: impl Iterator<Item = PointId>) -> (Vec<(PointId, usize)>, Option<usize>) {
    let mut sorted: Vec<(PointId, usize)> = ids.enumerate().map(|(i, id)| (id, i)).collect();
    sorted.sort_unstable();
    let repeat = sorted
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1].1)
        .min();
    (sorted, repeat)
}

/// Puts rows read out in ring-slot order into arrival-id order. Under a
/// count window the live ids span less than the store's capacity, so slot
/// order is id order rotated at the wrap: rotating at the smallest id
/// sorts it in O(n). Any other layout (a time window whose id span exceeds
/// the capacity) fails the sortedness check and is sorted.
fn into_id_order<T>(rows: &mut [T], id: impl Fn(&T) -> PointId) {
    if let Some(first) = (0..rows.len()).min_by_key(|&i| id(&rows[i])) {
        rows.rotate_left(first);
    }
    if !rows.windows(2).all(|w| id(&w[0]) < id(&w[1])) {
        rows.sort_unstable_by_key(id);
    }
}

impl<const D: usize, B: SpatialBackend<D>> disc_telemetry::MemoryFootprint for Disc<D, B> {
    /// Engine-state heap bytes, decomposed into the components the
    /// `disc_mem_bytes{component=...}` gauges publish: point store, spatial
    /// index, cluster DSU, the per-slide bookkeeping lists, and the
    /// memoised root cache. Thread-pool stacks and transient slide scratch
    /// are out of scope — this accounts for what the window *retains*. The
    /// lists are empty between slides but keep their capacity, so they
    /// count.
    fn footprint(&self) -> disc_telemetry::FootprintNode {
        use disc_telemetry::{map_bytes, FootprintNode};
        let lists = (self.needs_adoption.capacity() + self.touched.capacity())
            * std::mem::size_of::<PointId>();
        let cache = map_bytes(
            self.root_cache.borrow().capacity(),
            std::mem::size_of::<(u32, u32)>(),
        );
        FootprintNode::branch(
            "engine",
            vec![
                self.points.footprint(),
                self.tree.footprint(),
                self.clusters.footprint(),
                FootprintNode::leaf("slide_lists", lists),
                FootprintNode::leaf("root_cache", cache),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_geom::Point;
    use disc_index::GridIndex;
    use disc_window::{datasets, Record, SlidingWindow};

    /// The read-out as it was computed before the column walk: full records
    /// from `PointStore::iter`, one un-memoised `find_immutable` per point,
    /// sorted by id. The reference every read path must equal.
    fn reference_labels<const D: usize, B: SpatialBackend<D>>(
        disc: &Disc<D, B>,
    ) -> Vec<(PointId, PointLabel)> {
        let tau = disc.cfg.tau;
        let root = |cid: ClusterId| ClusterId(disc.clusters.find_immutable(cid.0));
        let mut out: Vec<(PointId, PointLabel)> = disc
            .points
            .iter()
            .map(|(id, rec)| {
                let label = if rec.is_core(tau) {
                    PointLabel::Core(root(rec.cid))
                } else {
                    match rec.adopter.and_then(|a| disc.points.get(a)) {
                        Some(core) => PointLabel::Border(root(core.cid)),
                        None => PointLabel::Noise,
                    }
                };
                (id, label)
            })
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    fn assert_readout_matches_reference<const D: usize, B: SpatialBackend<D>>(
        disc: &Disc<D, B>,
        slide: usize,
    ) {
        let reference = reference_labels(disc);
        let expected: Vec<(PointId, i64)> =
            reference.iter().map(|&(id, l)| (id, l.as_i64())).collect();
        assert_eq!(disc.assignments(), expected, "assignments, slide {slide}");
        let mut labels = disc.labels();
        labels.sort_unstable_by_key(|&(id, _)| id);
        assert_eq!(labels, reference, "labels, slide {slide}");
        let snapshot = disc.snapshot();
        assert_eq!(snapshot.len(), reference.len());
        for ((p, l), &(id, want)) in snapshot.iter().zip(&reference) {
            assert_eq!(p.coords(), disc.points.point_at(id).coords());
            assert_eq!(*l, want.as_i64(), "snapshot row {id}, slide {slide}");
        }
        let count = |f: fn(&PointLabel) -> bool| reference.iter().filter(|(_, l)| f(l)).count();
        let census = (
            count(|l| matches!(l, PointLabel::Core(_))),
            count(|l| matches!(l, PointLabel::Border(_))),
            count(|l| matches!(l, PointLabel::Noise)),
        );
        assert_eq!(disc.census(), census, "census, slide {slide}");
        let roots: FxHashSet<u32> = reference
            .iter()
            .filter_map(|(_, l)| match l {
                PointLabel::Core(c) => Some(c.0),
                _ => None,
            })
            .collect();
        assert_eq!(disc.num_clusters(), roots.len(), "clusters, slide {slide}");
        for &(id, want) in &reference {
            assert_eq!(disc.label_of(id), Some(want));
        }
    }

    fn readout_matches_on<const D: usize, B: SpatialBackend<D>>(
        records: Vec<Record<D>>,
        window: usize,
        stride: usize,
        eps: f64,
        tau: usize,
    ) {
        let mut w = SlidingWindow::new(records, window, stride);
        let mut disc: Disc<D, B> = Disc::with_index(DiscConfig::new(eps, tau));
        disc.apply(&w.fill());
        assert_readout_matches_reference(&disc, 1);
        let mut slide = 1;
        while let Some(batch) = w.advance() {
            disc.apply(&batch);
            slide += 1;
            assert_readout_matches_reference(&disc, slide);
        }
    }

    fn readout_matches_on_every_backend<const D: usize>(
        records: Vec<Record<D>>,
        window: usize,
        stride: usize,
        eps: f64,
        tau: usize,
    ) {
        readout_matches_on::<D, RTree<D>>(records.clone(), window, stride, eps, tau);
        readout_matches_on::<D, GridIndex<D>>(records, window, stride, eps, tau);
    }

    /// Every read path equals the reference on every slide of the
    /// exactness datasets (same parameters as `tests/exactness.rs`), on both
    /// backends.
    #[test]
    fn readout_equals_reference_on_exactness_datasets() {
        let blobs = datasets::gaussian_blobs::<2>(1200, 4, 0.6, 7);
        readout_matches_on_every_backend(blobs, 300, 60, 1.0, 5);
        readout_matches_on_every_backend(datasets::maze(1500, 12, 3), 400, 80, 0.6, 5);
        readout_matches_on_every_backend(datasets::dtg_like(1500, 5), 500, 100, 0.6, 4);
        readout_matches_on_every_backend(datasets::covid_like(1200, 11), 400, 50, 1.2, 5);
        readout_matches_on_every_backend(datasets::iris_like(900, 13), 300, 60, 2.0, 5);
        readout_matches_on_every_backend(datasets::geolife_like(900, 17), 300, 60, 1.0, 5);
    }

    fn batch(incoming: &[(u64, [f64; 2])], outgoing: &[(u64, [f64; 2])]) -> SlideBatch<2> {
        SlideBatch {
            incoming: incoming
                .iter()
                .map(|&(i, c)| (PointId(i), Point::new(c)))
                .collect(),
            outgoing: outgoing
                .iter()
                .map(|&(i, c)| (PointId(i), Point::new(c)))
                .collect(),
        }
    }

    #[test]
    fn empty_engine_reports_empty_everything() {
        let disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        assert_eq!(disc.window_len(), 0);
        assert_eq!(disc.num_clusters(), 0);
        assert!(disc.labels().is_empty());
        assert!(disc.assignments().is_empty());
        assert!(disc.snapshot().is_empty());
        assert_eq!(disc.label_of(PointId(0)), None);
        assert!(!disc.is_core(PointId(0)));
        assert_eq!(disc.census(), (0, 0, 0));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        disc.apply(&batch(
            &[(0, [0.0, 0.0]), (1, [0.5, 0.0]), (2, [1.0, 0.0])],
            &[],
        ));
        let before = disc.assignments();
        let stats = disc.apply(&SlideBatch::default());
        assert_eq!(stats.inserted, 0);
        assert_eq!(stats.removed, 0);
        assert_eq!(disc.assignments(), before);
        disc.check_invariants();
    }

    #[test]
    fn assignments_sorted_and_snapshot_parallel() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(
            &[(5, [0.0, 0.0]), (1, [0.5, 0.0]), (9, [100.0, 0.0])],
            &[],
        ));
        let a = disc.assignments();
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        let snap = disc.snapshot();
        assert_eq!(snap.len(), 3);
        // Snapshot rows follow the same id order: row 0 = id 1 at (0.5, 0).
        assert_eq!(snap[0].0, Point::new([0.5, 0.0]));
        assert_eq!(snap[0].1, a[0].1);
    }

    #[test]
    fn read_out_is_id_ordered_across_the_ring_wrap_and_sparse_spans() {
        // The store starts with 1024 slots. Ids 1020..1030 wrap the ring
        // (slot order 1024..1030, 1020..1023); adding 2 and 5000 makes the
        // live span exceed the capacity, so rotation alone cannot sort.
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        let wrapped: Vec<(u64, [f64; 2])> = (1020..1030).map(|i| (i, [i as f64, 0.0])).collect();
        disc.apply(&batch(&wrapped, &[]));
        let ids = |d: &Disc<2>| {
            d.assignments()
                .iter()
                .map(|(id, _)| id.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&disc), (1020..1030).collect::<Vec<_>>());
        disc.apply(&batch(&[(2, [2.0, 0.0]), (5000, [5000.0, 0.0])], &[]));
        let mut want: Vec<u64> = (1020..1030).collect();
        want.insert(0, 2);
        want.push(5000);
        assert_eq!(ids(&disc), want);
        let xs: Vec<f64> = disc.snapshot().iter().map(|(p, _)| p[0]).collect();
        assert_eq!(xs, want.iter().map(|&i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn last_stats_reflects_latest_apply() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[(0, [0.0, 0.0]), (1, [0.5, 0.0])], &[]));
        let s = disc.apply(&batch(&[(2, [1.0, 0.0])], &[(0, [0.0, 0.0])]));
        assert_eq!(disc.last_stats(), &s);
        assert_eq!(s.inserted, 1);
        assert_eq!(s.removed, 1);
    }

    #[test]
    fn phase_durations_sum_below_elapsed() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        let s = disc.apply(&batch(&[(0, [0.0, 0.0]), (1, [0.5, 0.0])], &[]));
        assert!(s.collect_time + s.cluster_time + s.adoption_time <= s.elapsed);
    }

    #[test]
    #[should_panic(expected = "not in the window")]
    fn removing_unknown_point_panics() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[], &[(7, [0.0, 0.0])]));
    }

    #[test]
    #[should_panic(expected = "already in the window")]
    fn inserting_duplicate_point_panics() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[(0, [0.0, 0.0])], &[]));
        disc.apply(&batch(&[(0, [1.0, 0.0])], &[]));
    }

    #[test]
    fn try_apply_reports_unknown_outgoing_and_leaves_engine_usable() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[(0, [0.0, 0.0]), (1, [0.5, 0.0])], &[]));
        let before = disc.assignments();
        let err = disc
            .try_apply(&batch(&[(2, [1.0, 0.0])], &[(7, [0.0, 0.0])]))
            .unwrap_err();
        assert_eq!(err, SlideError::UnknownOutgoing(PointId(7)));
        assert_eq!(err.to_string(), "outgoing point p7 is not in the window");
        // The failed batch must not have touched anything.
        assert_eq!(disc.assignments(), before);
        assert_eq!(disc.window_len(), 2);
        assert!(disc
            .try_apply(&batch(&[(2, [1.0, 0.0])], &[(0, [0.0, 0.0])]))
            .is_ok());
        disc.check_invariants();
    }

    #[test]
    fn try_apply_reports_duplicate_outgoing_and_leaves_engine_usable() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[(0, [0.0, 0.0]), (1, [0.5, 0.0])], &[]));
        let before = disc.assignments();
        // A batch that decodes cleanly but retires the same point twice —
        // the shape a damaged-but-CRC-clean replay could produce.
        let err = disc
            .try_apply(&batch(&[], &[(0, [0.0, 0.0]), (0, [0.0, 0.0])]))
            .unwrap_err();
        assert_eq!(err, SlideError::DuplicateOutgoing(PointId(0)));
        assert_eq!(
            err.to_string(),
            "outgoing point p0 appears twice in the batch"
        );
        assert_eq!(disc.assignments(), before);
        assert_eq!(disc.window_len(), 2);
        assert!(disc.try_apply(&batch(&[], &[(0, [0.0, 0.0])])).is_ok());
        disc.check_invariants();
    }

    #[test]
    fn try_apply_reports_duplicate_incoming() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[(0, [0.0, 0.0])], &[]));
        // Already in the window.
        let err = disc.try_apply(&batch(&[(0, [1.0, 0.0])], &[])).unwrap_err();
        assert_eq!(err, SlideError::DuplicateIncoming(PointId(0)));
        // Repeated inside one batch.
        let err = disc
            .try_apply(&batch(&[(5, [1.0, 0.0]), (5, [2.0, 0.0])], &[]))
            .unwrap_err();
        assert_eq!(err, SlideError::DuplicateIncoming(PointId(5)));
        // Reusing an id that departs in the same batch is legal.
        assert!(disc
            .try_apply(&batch(&[(0, [3.0, 0.0])], &[(0, [0.0, 0.0])]))
            .is_ok());
        assert_eq!(disc.window_len(), 1);
    }

    /// `validate` as it was written over a hash map of departures and a
    /// hash set of arrivals: the reference for the sorted-list version.
    fn validate_with_hash_sets(disc: &Disc<2>, batch: &SlideBatch<2>) -> Result<(), SlideError> {
        let mut outgoing: FxHashMap<PointId, bool> = FxHashMap::default();
        for (id, _) in &batch.outgoing {
            let Some(rec) = disc.points.get(*id).filter(|r| r.in_window) else {
                return Err(SlideError::UnknownOutgoing(*id));
            };
            if outgoing.insert(*id, rec.prev_core).is_some() {
                return Err(SlideError::DuplicateOutgoing(*id));
            }
        }
        let mut fresh: FxHashSet<PointId> = FxHashSet::default();
        for (id, point) in &batch.incoming {
            if !point.is_finite() {
                return Err(SlideError::NonFinite(*id));
            }
            if outgoing.get(id) == Some(&true) {
                return Err(SlideError::ReenteringCore(*id));
            }
            let present = disc.points.get(*id).map(|r| r.in_window).unwrap_or(false);
            if (present && !outgoing.contains_key(id)) || !fresh.insert(*id) {
                return Err(SlideError::DuplicateIncoming(*id));
            }
        }
        Ok(())
    }

    #[test]
    fn validate_matches_the_hash_set_reference_on_random_batches() {
        // Ids 0..40 in the window: a dense run of cores and sparse noise,
        // so departures include cores and non-cores. Batches draw ids from
        // 0..56, repeat them and poison coordinates at random.
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        let fill: Vec<(u64, [f64; 2])> = (0..40u64)
            .map(|i| match i % 2 {
                0 => (i, [i as f64 * 0.1, 0.0]),
                _ => (i, [i as f64 * 10.0, 50.0]),
            })
            .collect();
        disc.apply(&batch(&fill, &[]));
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut seen = FxHashMap::default();
        for _ in 0..4000 {
            let mut side = |poison: bool| -> Vec<(u64, [f64; 2])> {
                (0..next(6))
                    .map(|_| {
                        let x = if poison && next(12) == 0 {
                            f64::NAN
                        } else {
                            0.0
                        };
                        (next(56), [x, 0.0])
                    })
                    .collect()
            };
            let (incoming, outgoing) = (side(true), side(false));
            let b = batch(&incoming, &outgoing);
            let want = validate_with_hash_sets(&disc, &b);
            assert_eq!(disc.validate(&b), want, "batch {incoming:?} / {outgoing:?}");
            let outcome = want.err().map(|e| std::mem::discriminant(&e));
            *seen.entry(outcome).or_insert(0usize) += 1;
        }
        assert_eq!(
            seen.len(),
            6,
            "every outcome, Ok and each error, was drawn: {seen:?}"
        );
    }

    #[test]
    fn try_apply_rejects_non_finite_points_untouched() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[(0, [0.0, 0.0]), (1, [0.5, 0.0])], &[]));
        let before = disc.assignments();
        for coords in [
            [f64::NAN, 0.0],
            [0.0, f64::INFINITY],
            [f64::NEG_INFINITY, 0.0],
        ] {
            let err = disc.try_apply(&batch(&[(9, coords)], &[])).unwrap_err();
            assert_eq!(err, SlideError::NonFinite(PointId(9)));
            assert_eq!(
                err.to_string(),
                "incoming point p9 has non-finite coordinates"
            );
        }
        // Rejection happens before any deletion: a batch that also retires
        // a point leaves the outgoing point in place.
        let err = disc
            .try_apply(&batch(&[(9, [f64::NAN, 0.0])], &[(0, [0.0, 0.0])]))
            .unwrap_err();
        assert_eq!(err, SlideError::NonFinite(PointId(9)));
        assert_eq!(disc.assignments(), before);
        assert_eq!(disc.window_len(), 2);
        disc.check_invariants();
        // The engine stays usable.
        assert!(disc.try_apply(&batch(&[(2, [1.0, 0.0])], &[])).is_ok());
    }

    #[test]
    #[should_panic(expected = "incoming point p13 has non-finite coordinates")]
    fn apply_panic_names_the_non_finite_point() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[(13, [f64::NAN, 1.0])], &[]));
    }

    #[test]
    fn cumulative_index_stats_grow() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[(0, [0.0, 0.0])], &[]));
        let first = disc.index_stats().range_searches;
        disc.apply(&batch(&[(1, [0.5, 0.0])], &[]));
        assert!(disc.index_stats().range_searches > first);
    }

    #[test]
    fn committed_slides_publish_telemetry() {
        use disc_telemetry::{JsonlRecord, MemorySink, Registry};
        use std::sync::Arc;

        let sink: Arc<MemorySink> = Arc::new(MemorySink::new());
        let reg = Arc::new(Registry::with_sink(Box::new(sink.clone())));
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2)).with_recorder(reg.clone());
        disc.apply(&batch(&[(0, [0.0, 0.0]), (1, [0.5, 0.0])], &[]));
        disc.apply(&batch(&[(2, [1.0, 0.0])], &[(0, [0.0, 0.0])]));

        assert_eq!(reg.counter_value("disc_slides_total"), 2);
        assert_eq!(reg.counter_value("disc_points_inserted_total"), 3);
        assert_eq!(reg.counter_value("disc_points_removed_total"), 1);
        assert!(reg.counter_value("disc_index_range_searches_total") > 0);
        assert_eq!(reg.gauge_value("disc_window_points"), Some(2.0));
        let slide = reg.histogram_snapshot("disc_slide_seconds").unwrap();
        assert_eq!(slide.count, 2);
        assert!(slide.max > 0);
        assert!(reg.histogram_snapshot("disc_collect_seconds").is_some());
        assert!(reg.histogram_snapshot("disc_cluster_seconds").is_some());
        assert!(reg.histogram_snapshot("disc_adoption_seconds").is_some());

        // Structured events: sequenced, labelled, consistent with stats.
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert_eq!(events[1].engine, "disc");
        assert_eq!(events[1].backend, "rtree");
        assert_eq!(events[1].window_len, 2);
        assert_eq!(events[1].inserted, 1);
        assert_eq!(events[1].removed, 1);
        assert!(events[1].total_ns > 0);
        assert_eq!(
            events[1].range_searches,
            disc.last_stats().index.range_searches
        );
        disc_telemetry::SlideEvent::validate_jsonl(&events[1].to_jsonl()).unwrap();
    }

    #[test]
    fn census_gauges_equal_the_public_read_out() {
        use disc_telemetry::Registry;
        use std::sync::Arc;

        for recs in [
            datasets::maze(3_000, 6, 5),
            datasets::gaussian_blobs::<2>(3_000, 5, 0.7, 9),
        ] {
            let reg = Arc::new(Registry::new());
            let mut disc: Disc<2> = Disc::new(DiscConfig::new(0.6, 5)).with_recorder(reg.clone());
            let mut w = SlidingWindow::new(recs, 800, 100);
            let mut batch = Some(w.fill());
            while let Some(b) = batch {
                disc.apply(&b);
                let (core, border, noise) = disc.census();
                let gauge = |name: &str| reg.gauge_value(name).unwrap() as usize;
                assert_eq!(gauge("disc_core_points"), core);
                assert_eq!(gauge("disc_border_points"), border);
                assert_eq!(gauge("disc_noise_points"), noise);
                assert_eq!(gauge("disc_cluster_count"), disc.num_clusters());
                batch = w.advance();
            }
        }
    }

    #[test]
    fn rejected_slides_publish_nothing() {
        use disc_telemetry::{MemorySink, Registry};
        use std::sync::Arc;

        let reg = Arc::new(Registry::new());
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2)).with_recorder(reg.clone());
        disc.apply(&batch(&[(0, [0.0, 0.0]), (1, [0.5, 0.0])], &[]));
        let before_counters = reg.counter_value("disc_slides_total");
        let before_events = reg.events_emitted();
        let before_assignments = disc.assignments();

        // Both error paths: engine state unchanged, no partial slide in the
        // telemetry stream.
        assert!(disc
            .try_apply(&batch(&[(5, [1.0, 0.0])], &[(7, [0.0, 0.0])]))
            .is_err());
        assert!(disc.try_apply(&batch(&[(0, [1.0, 0.0])], &[])).is_err());
        assert_eq!(reg.counter_value("disc_slides_total"), before_counters);
        assert_eq!(reg.counter_value("disc_points_inserted_total"), 2);
        assert_eq!(reg.events_emitted(), before_events);
        assert_eq!(
            reg.histogram_snapshot("disc_slide_seconds").unwrap().count,
            1
        );
        assert_eq!(disc.assignments(), before_assignments);

        // The next committed slide continues the sequence with no gap.
        let sink: Arc<MemorySink> = Arc::new(MemorySink::new());
        let reg2 = Arc::new(Registry::with_sink(Box::new(sink.clone())));
        disc.set_recorder(reg2);
        disc.apply(&batch(&[(2, [1.0, 0.0])], &[]));
        assert_eq!(sink.events()[0].seq, 2);
    }

    #[test]
    fn tracer_records_the_slide_hierarchy() {
        use disc_telemetry::Tracer;
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2)).with_tracer(Tracer::new());
        disc.apply(&batch(&[(0, [0.0, 0.0]), (1, [0.5, 0.0])], &[]));
        let spans = disc.drain_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"slide"));
        assert!(names.contains(&"collect"));
        assert!(names.contains(&"cluster"));
        assert!(names.contains(&"adoption"));
        assert!(names.contains(&"delete"));
        assert!(names.contains(&"insert"));
        // collect/cluster/adoption are children of slide; delete/insert of
        // collect.
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let slide = by_name("slide");
        assert_eq!(slide.parent, 0, "slide is a root span");
        assert_eq!(by_name("collect").parent, slide.id);
        assert_eq!(by_name("cluster").parent, slide.id);
        assert_eq!(by_name("adoption").parent, slide.id);
        assert_eq!(by_name("insert").parent, by_name("collect").id);
        // The insert phase touched the index: its span carries the diff.
        assert!(by_name("insert")
            .args
            .iter()
            .any(|&(k, v)| k == "inserts" && v == 2));
        // Slide args identify the slide.
        assert!(slide.args.contains(&("seq", 1)));
        assert!(slide.args.contains(&("inserted", 2)));
        // The export pipeline accepts the batch.
        disc_telemetry::validate_chrome_trace(&disc_telemetry::chrome_trace_json(&spans)).unwrap();

        // Splitting slides nest an msbfs span under cluster.
        let pts: Vec<(u64, [f64; 2])> = (0..9).map(|i| (i, [i as f64 * 0.5, 0.0])).collect();
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(0.6, 3)).with_tracer(Tracer::new());
        disc.apply(&batch(&pts, &[]));
        disc.drain_spans();
        disc.apply(&batch(&[], &[(4, [2.0, 0.0])]));
        let spans = disc.drain_spans();
        let cluster = spans.iter().find(|s| s.name == "cluster").unwrap();
        let msbfs = spans.iter().find(|s| s.name == "msbfs").unwrap();
        assert_eq!(msbfs.parent, cluster.id);
        assert!(msbfs.args.iter().any(|&(k, _)| k == "rounds"));
        assert!(msbfs.args.iter().any(|&(k, v)| k == "ncc" && v == 2));
    }

    #[test]
    fn disabled_tracer_records_no_spans() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[(0, [0.0, 0.0]), (1, [0.5, 0.0])], &[]));
        assert!(disc.tracer().is_empty());
        assert!(disc.drain_spans().is_empty());
    }

    #[test]
    fn committed_slides_emit_the_causal_narrative() {
        use disc_telemetry::{JsonlRecord, MemorySink, ProvenanceEvent, ProvenanceKind, Registry};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::<ProvenanceEvent>::new());
        let reg = Arc::new(Registry::new().with_provenance(Box::new(sink.clone())));
        let pts: Vec<(u64, [f64; 2])> = (0..9).map(|i| (i, [i as f64 * 0.5, 0.0])).collect();
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(0.6, 3)).with_recorder(reg.clone());
        disc.apply(&batch(&pts, &[]));

        // Slide 1: the line emerges — neo-cores detected, one emergence.
        let evs = sink.events();
        assert!(evs
            .iter()
            .any(|e| matches!(e.kind, ProvenanceKind::NeoCoreDetected { id: 4 })));
        assert!(evs.iter().all(|e| e.slide == 1));
        let emerged: Vec<_> = evs
            .iter()
            .filter(|e| matches!(e.kind, ProvenanceKind::ClusterEmerged { .. }))
            .collect();
        assert_eq!(emerged.len(), 1);

        // Slide 2: cutting the bridge names the ex-core and the split.
        disc.apply(&batch(&[], &[(4, [2.0, 0.0])]));
        let evs = sink.events();
        let slide2: Vec<_> = evs.iter().filter(|e| e.slide == 2).collect();
        assert!(slide2
            .iter()
            .any(|e| matches!(e.kind, ProvenanceKind::ExCoreDetected { id: 4 })));
        assert!(slide2
            .iter()
            .any(|e| matches!(e.kind, ProvenanceKind::RetroClassFormed { .. })));
        assert!(slide2
            .iter()
            .any(|e| matches!(e.kind, ProvenanceKind::MsBfsStarted { .. })));
        let split = slide2
            .iter()
            .find_map(|e| match e.kind {
                ProvenanceKind::ClusterSplit { old, parts, rep } => Some((old, parts, rep)),
                _ => None,
            })
            .expect("split event");
        assert_eq!(split.1, 2, "the line breaks in two");
        // The terminated event explains why the search stopped.
        let term = slide2
            .iter()
            .find_map(|e| match e.kind {
                ProvenanceKind::MsBfsTerminated { reason, rounds, .. } => Some((reason, rounds)),
                _ => None,
            })
            .expect("terminated event");
        assert_eq!(term.0, disc_telemetry::MsBfsReason::Exhausted);
        assert!(term.1 >= 1);
        // Every event round-trips through the JSONL schema.
        for e in &evs {
            ProvenanceEvent::validate_jsonl(&e.to_jsonl()).unwrap();
        }
        assert_eq!(reg.provenance_emitted(), evs.len() as u64);
    }

    #[test]
    fn rejected_slides_leak_no_spans_or_provenance() {
        use disc_telemetry::{Registry, Tracer};
        use std::sync::Arc;

        let reg = Arc::new(Registry::new());
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2))
            .with_recorder(reg.clone())
            .with_tracer(Tracer::new());
        disc.apply(&batch(&[(0, [0.0, 0.0]), (1, [0.5, 0.0])], &[]));
        let spans_before = disc.tracer().len();
        let prov_before = reg.provenance_emitted();

        assert!(disc
            .try_apply(&batch(&[(5, [1.0, 0.0])], &[(7, [0.0, 0.0])]))
            .is_err());
        assert!(disc.try_apply(&batch(&[(0, [1.0, 0.0])], &[])).is_err());

        assert_eq!(disc.tracer().len(), spans_before, "no spans leaked");
        assert_eq!(reg.provenance_emitted(), prov_before, "no events leaked");
        // The next committed slide resumes cleanly: exactly one new slide
        // span tree, still exporting a valid trace.
        disc.apply(&batch(&[(2, [1.0, 0.0])], &[]));
        let spans = disc.drain_spans();
        assert_eq!(spans.iter().filter(|s| s.name == "slide").count(), 2);
        disc_telemetry::validate_chrome_trace(&disc_telemetry::chrome_trace_json(&spans)).unwrap();
    }

    #[test]
    fn msbfs_counters_reach_slide_stats() {
        // A bridge point leaves, splitting one line cluster in two: the
        // slide must run at least one connectivity check and report its
        // starters and rounds.
        let pts: Vec<(u64, [f64; 2])> = (0..9).map(|i| (i, [i as f64 * 0.5, 0.0])).collect();
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(0.6, 3));
        disc.apply(&batch(&pts, &[]));
        let s = disc.apply(&batch(&[], &[(4, [2.0, 0.0])]));
        assert_eq!(s.splits, 1);
        assert!(s.msbfs_instances >= 1, "stats {s:?}");
        assert!(s.msbfs_starters >= 2);
        assert!(s.msbfs_rounds >= 1);
    }

    #[test]
    fn stamp_counter_wraps_without_changing_a_label_or_the_state() {
        // Start the counter just short of u32::MAX at several offsets, so
        // the wrap falls in different phases of the 53 slides. The
        // stamp is scratch: labels, counters and the exported state (the
        // checkpoint's content) must equal those of an engine that never
        // wrapped, slide by slide.
        let recs = datasets::maze(3_400, 6, 5);
        let slides = |last: Option<u32>| {
            let mut disc: Disc<2> = Disc::new(DiscConfig::new(0.6, 5));
            if let Some(last) = last {
                disc.set_stamp_counter(last);
            }
            let mut w = SlidingWindow::new(recs.clone(), 800, 50);
            let mut batch = Some(w.fill());
            let mut seen = Vec::new();
            while let Some(b) = batch {
                let stats = disc.apply(&b);
                disc.check_invariants();
                let counters = (
                    stats.ex_cores,
                    stats.neo_cores,
                    stats.adoption_searches,
                    stats.index.range_searches,
                );
                seen.push((disc.assignments(), counters, disc.export_state()));
                batch = w.advance();
            }
            (seen, disc.stamp)
        };
        let (fresh, _) = slides(None);
        assert_eq!(fresh.len(), 53);
        for offset in [0, 1, 2, 3, 40, 57, 100, 1_000] {
            let start = u32::MAX - offset;
            let (wrapped, last) = slides(Some(start));
            assert!(last < start, "offset {offset}: the counter never wrapped");
            for (slide, (a, b)) in wrapped.iter().zip(&fresh).enumerate() {
                assert_eq!(a.0, b.0, "offset {offset}, slide {slide}: labels");
                assert_eq!(a.1, b.1, "offset {offset}, slide {slide}: counters");
                assert_eq!(a.2, b.2, "offset {offset}, slide {slide}: state");
            }
        }
    }

    #[test]
    fn grid_backend_clusters_like_the_default() {
        let pts: Vec<(u64, [f64; 2])> = (0..12)
            .map(|i| (i, [(i % 4) as f64 * 0.5, (i / 4) as f64 * 0.5]))
            .chain((20..24).map(|i| (i, [50.0 + (i % 4) as f64 * 0.5, 0.0])))
            .collect();
        let b = batch(&pts, &[]);
        let mut rtree: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        let mut grid: Disc<2, GridIndex<2>> = Disc::with_index(DiscConfig::new(1.0, 3));
        assert_eq!(rtree.backend_name(), "rtree");
        assert_eq!(grid.backend_name(), "grid");
        rtree.apply(&b);
        grid.apply(&b);
        assert_eq!(rtree.assignments(), grid.assignments());
        assert_eq!(rtree.num_clusters(), grid.num_clusters());
        grid.check_invariants();
    }
}
