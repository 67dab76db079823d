//! Per-slide statistics.

use disc_index::Stats as IndexStats;

/// What happened during one [`Disc::apply`] call.
///
/// The cluster-evolution counters follow the taxonomy of §III-C: splits and
/// shrinks/dissipations are driven by ex-cores; merges, expansions and
/// emergences by neo-cores.
///
/// [`Disc::apply`]: crate::Disc::apply
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SlideStats {
    /// Points that entered the window this slide.
    pub inserted: usize,
    /// Points that left the window this slide.
    pub removed: usize,
    /// Ex-cores identified (Def. 1).
    pub ex_cores: usize,
    /// Neo-cores identified (Def. 2).
    pub neo_cores: usize,
    /// Retro-reachable ex-core classes actually examined (≤ `ex_cores`;
    /// the gap is the redundant work Theorem 1 eliminates).
    pub ex_classes: usize,
    /// Nascent-reachable neo-core classes examined.
    pub neo_classes: usize,
    /// Cluster splits observed.
    pub splits: usize,
    /// Cluster mergers observed.
    pub merges: usize,
    /// New clusters that emerged.
    pub emerged: usize,
    /// ε-ball searches run by the final adoption pass: one per border
    /// whose adopter left the window or became an ex-core.
    pub adoption_searches: usize,
    /// Connectivity-check instances run (MS-BFS, Alg. 3).
    pub msbfs_instances: usize,
    /// Starters across all connectivity checks (one BFS thread each).
    pub msbfs_starters: usize,
    /// Queue expansions (vertex pops) across all connectivity checks —
    /// the same accounting for every search strategy, so ablation variants
    /// are directly comparable. Early termination pops fewer vertices.
    pub msbfs_rounds: usize,
    /// Index counters accumulated during this slide.
    pub index: IndexStats,
    /// Wall-clock duration of the whole `apply` call.
    pub elapsed: std::time::Duration,
    /// Time spent in COLLECT (Alg. 1): `n_ε` maintenance, index updates,
    /// ex-/neo-core identification.
    pub collect_time: std::time::Duration,
    /// Time spent in CLUSTER (Alg. 2): ex-core and neo-core phases,
    /// connectivity checks, ghost eviction.
    pub cluster_time: std::time::Duration,
    /// Time spent in the final adoption pass (§V label maintenance).
    pub adoption_time: std::time::Duration,
    /// Estimated engine-state heap bytes after the slide committed (the
    /// [`MemoryFootprint`](disc_telemetry::MemoryFootprint) total over
    /// points, index, DSU and bookkeeping lists). Zero when the engine does
    /// not account (recorder disabled skips the walk).
    pub mem_bytes: u64,
}

impl SlideStats {
    /// Range searches executed during the slide (the paper's Fig. 7 metric).
    pub fn range_searches(&self) -> u64 {
        self.index.range_searches
    }

    /// Renders this slide as a structured telemetry event (the JSONL /
    /// event-sink schema). `seq` is the engine's slide sequence number and
    /// `window_len` the window size after the slide.
    pub fn to_event(
        &self,
        seq: u64,
        engine: &'static str,
        backend: &'static str,
        window_len: usize,
    ) -> disc_telemetry::SlideEvent {
        disc_telemetry::SlideEvent {
            seq,
            engine,
            backend,
            window_len,
            inserted: self.inserted,
            removed: self.removed,
            ex_cores: self.ex_cores,
            neo_cores: self.neo_cores,
            ex_classes: self.ex_classes,
            neo_classes: self.neo_classes,
            splits: self.splits,
            merges: self.merges,
            emerged: self.emerged,
            adoption_searches: self.adoption_searches,
            msbfs_instances: self.msbfs_instances,
            msbfs_starters: self.msbfs_starters,
            msbfs_rounds: self.msbfs_rounds,
            collect_ns: self.collect_time.as_nanos() as u64,
            cluster_ns: self.cluster_time.as_nanos() as u64,
            adoption_ns: self.adoption_time.as_nanos() as u64,
            total_ns: self.elapsed.as_nanos() as u64,
            range_searches: self.index.range_searches,
            epoch_probes: self.index.epoch_probes,
            nodes_visited: self.index.nodes_visited,
            distance_checks: self.index.distance_checks,
            subtrees_pruned: self.index.subtrees_pruned,
            mem_bytes: self.mem_bytes,
        }
    }

    /// Publishes this slide to `rec`: per-phase latency histograms, the
    /// engine's evolution counters, and the index counter deltas. One call
    /// per slide, after the slide committed — errors abort before this
    /// point, so a failed slide records nothing.
    pub fn publish_to(
        &self,
        rec: &dyn disc_telemetry::Recorder,
        seq: u64,
        engine: &'static str,
        backend: &'static str,
        window_len: usize,
    ) {
        if !rec.enabled() {
            return;
        }
        rec.counter_add("disc_slides_total", 1);
        rec.counter_add("disc_points_inserted_total", self.inserted as u64);
        rec.counter_add("disc_points_removed_total", self.removed as u64);
        rec.counter_add("disc_ex_cores_total", self.ex_cores as u64);
        rec.counter_add("disc_neo_cores_total", self.neo_cores as u64);
        rec.counter_add("disc_ex_classes_total", self.ex_classes as u64);
        rec.counter_add("disc_neo_classes_total", self.neo_classes as u64);
        rec.counter_add("disc_cluster_splits_total", self.splits as u64);
        rec.counter_add("disc_cluster_merges_total", self.merges as u64);
        rec.counter_add("disc_clusters_emerged_total", self.emerged as u64);
        rec.counter_add(
            "disc_adoption_searches_total",
            self.adoption_searches as u64,
        );
        rec.counter_add("disc_msbfs_instances_total", self.msbfs_instances as u64);
        rec.counter_add("disc_msbfs_starters_total", self.msbfs_starters as u64);
        rec.counter_add("disc_msbfs_rounds_total", self.msbfs_rounds as u64);
        rec.record_duration("disc_slide_seconds", self.elapsed);
        rec.record_duration("disc_collect_seconds", self.collect_time);
        rec.record_duration("disc_cluster_seconds", self.cluster_time);
        rec.record_duration("disc_adoption_seconds", self.adoption_time);
        rec.gauge_set("disc_window_points", window_len as f64);
        self.index.publish_to(rec);
        rec.emit(&self.to_event(seq, engine, backend, window_len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_searches_delegates_to_index_stats() {
        let mut s = SlideStats::default();
        s.index.range_searches = 42;
        assert_eq!(s.range_searches(), 42);
    }
}
