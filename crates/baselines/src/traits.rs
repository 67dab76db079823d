//! The uniform driver interface for all clustering methods.

use disc_core::Disc;
use disc_geom::PointId;
use disc_index::SpatialBackend;
use disc_window::SlideBatch;

/// A clustering method that consumes sliding-window batches.
///
/// The benchmark harness drives every method — exact and approximate —
/// through this interface, measuring per-slide wall time, range searches,
/// and the quality of [`assignments`](WindowClusterer::assignments).
pub trait WindowClusterer<const D: usize> {
    /// Human-readable method name, as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Ingests one slide (`Δin` + `Δout`). Insertion-only summarisation
    /// methods ignore `Δout` (their state decays instead), matching how
    /// the paper measures them.
    fn apply(&mut self, batch: &SlideBatch<D>);

    /// [`apply`](WindowClusterer::apply), but a batch the method cannot
    /// take is reported instead of panicking, with the state unchanged.
    /// Methods that validate nothing apply unconditionally (the default).
    fn try_apply(&mut self, batch: &SlideBatch<D>) -> Result<(), String> {
        self.apply(batch);
        Ok(())
    }

    /// Cluster assignment of every current-window point, sorted by arrival
    /// id; `-1` is noise. For decaying methods the "window" is whatever
    /// point set the driver last told them about via `assign_window`.
    fn assignments(&self) -> Vec<(PointId, i64)>;

    /// Total ε-range searches executed so far (0 for methods that do not
    /// use a spatial index).
    fn range_searches(&self) -> u64 {
        0
    }

    /// Approximate resident state size in bytes (used to demonstrate
    /// EXTRA-N's memory blow-up, Fig. 5).
    fn memory_bytes(&self) -> usize {
        0
    }

    /// Routes the method's telemetry to `recorder`. Methods without
    /// instrumentation ignore the call (the default) — drivers can hand
    /// every boxed clusterer the same recorder unconditionally.
    fn set_recorder(&mut self, recorder: disc_telemetry::SharedRecorder) {
        let _ = recorder;
    }

    /// Arms span tracing. Methods without span instrumentation ignore the
    /// call (the default), so drivers can request tracing unconditionally
    /// and just find [`drain_spans`](WindowClusterer::drain_spans) empty.
    fn enable_tracing(&mut self) {}

    /// Takes all spans recorded since the last drain (empty for methods
    /// without span instrumentation). Ids stay unique across drains, so
    /// per-slide drains concatenate into one export batch.
    fn drain_spans(&mut self) -> Vec<disc_telemetry::SpanRecord> {
        Vec::new()
    }

    /// The method's state as a checkpointable image, or `None` for methods
    /// that cannot be checkpointed (the default).
    fn export_state(&self) -> Option<disc_core::EngineState<D>> {
        None
    }
}

impl<const D: usize, B: SpatialBackend<D>> WindowClusterer<D> for Disc<D, B> {
    fn name(&self) -> &'static str {
        // The default backend keeps the paper's plain method name; other
        // backends are tagged so ablation tables stay unambiguous.
        match B::NAME {
            "rtree" => "DISC",
            "grid" => "DISC(grid)",
            other => other,
        }
    }

    fn apply(&mut self, batch: &SlideBatch<D>) {
        Disc::apply(self, batch);
    }

    fn try_apply(&mut self, batch: &SlideBatch<D>) -> Result<(), String> {
        Disc::try_apply(self, batch)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn assignments(&self) -> Vec<(PointId, i64)> {
        Disc::assignments(self)
    }

    fn range_searches(&self) -> u64 {
        self.index_stats().range_searches
    }

    fn memory_bytes(&self) -> usize {
        // The real accounted footprint (points + index + DSU + sets), not
        // the old per-point guess — comparable against EXTRA-N's equally
        // accounted total.
        use disc_telemetry::MemoryFootprint;
        self.mem_bytes() as usize
    }

    fn set_recorder(&mut self, recorder: disc_telemetry::SharedRecorder) {
        Disc::set_recorder(self, recorder);
    }

    fn enable_tracing(&mut self) {
        Disc::set_tracer(self, disc_telemetry::Tracer::new());
    }

    fn drain_spans(&mut self) -> Vec<disc_telemetry::SpanRecord> {
        Disc::drain_spans(self)
    }

    fn export_state(&self) -> Option<disc_core::EngineState<D>> {
        Some(Disc::export_state(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::DiscConfig;
    use disc_window::{datasets, SlidingWindow};

    #[test]
    fn disc_implements_the_driver_interface() {
        let recs = datasets::gaussian_blobs::<2>(400, 2, 0.5, 1);
        let mut w = SlidingWindow::new(recs, 200, 50);
        let mut m: Box<dyn WindowClusterer<2>> = Box::new(Disc::new(DiscConfig::new(1.0, 4)));
        m.apply(&w.fill());
        while let Some(b) = w.advance() {
            m.apply(&b);
        }
        assert_eq!(m.name(), "DISC");
        assert_eq!(m.assignments().len(), 200);
        assert!(m.range_searches() > 0);
        assert!(m.memory_bytes() > 0);
    }

    #[test]
    fn recorder_threads_through_boxed_clusterers() {
        use crate::dbscan::Dbscan;
        use crate::extran::ExtraN;
        use disc_telemetry::Registry;
        use std::sync::Arc;

        let recs = datasets::gaussian_blobs::<2>(300, 2, 0.5, 3);
        let methods: Vec<Box<dyn WindowClusterer<2>>> = vec![
            Box::new(Disc::new(DiscConfig::new(1.0, 4))),
            Box::new(Dbscan::new(1.0, 4)),
            Box::new(ExtraN::new(1.0, 4, 150, 50)),
        ];
        for mut m in methods {
            let reg = Arc::new(Registry::new());
            m.set_recorder(reg.clone());
            let mut w = SlidingWindow::new(recs.clone(), 150, 50);
            m.apply(&w.fill());
            while let Some(b) = w.advance() {
                m.apply(&b);
            }
            assert_eq!(reg.counter_value("disc_slides_total"), 4, "{}", m.name());
            assert_eq!(
                reg.histogram_snapshot("disc_slide_seconds").unwrap().count,
                4,
                "{}",
                m.name()
            );
            assert!(
                reg.counter_value("disc_index_range_searches_total") > 0,
                "{}",
                m.name()
            );
            assert_eq!(reg.events_emitted(), 4, "{}", m.name());
        }
        // Methods without instrumentation accept (and ignore) a recorder.
        let mut inc: Box<dyn WindowClusterer<2>> =
            Box::new(crate::incdbscan::IncDbscan::new(1.0, 4));
        inc.set_recorder(Arc::new(Registry::new()));
    }

    #[test]
    fn tracing_threads_through_boxed_clusterers() {
        let recs = datasets::gaussian_blobs::<2>(300, 2, 0.5, 3);
        let mut m: Box<dyn WindowClusterer<2>> = Box::new(Disc::new(DiscConfig::new(1.0, 4)));
        m.enable_tracing();
        let mut w = SlidingWindow::new(recs, 150, 50);
        m.apply(&w.fill());
        let first = m.drain_spans();
        assert!(first.iter().any(|s| s.name == "slide"));
        while let Some(b) = w.advance() {
            m.apply(&b);
        }
        let rest = m.drain_spans();
        assert_eq!(rest.iter().filter(|s| s.name == "slide").count(), 3);
        // Ids from successive drains never collide: concatenation exports.
        let mut ids: Vec<u32> = first.iter().chain(rest.iter()).map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), first.len() + rest.len());

        // Uninstrumented methods stay silent instead of failing.
        let mut inc: Box<dyn WindowClusterer<2>> =
            Box::new(crate::incdbscan::IncDbscan::new(1.0, 4));
        inc.enable_tracing();
        assert!(inc.drain_spans().is_empty());
    }
}
