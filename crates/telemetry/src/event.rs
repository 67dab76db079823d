//! Structured per-slide span events.
//!
//! One [`SlideEvent`] is emitted per engine slide, carrying the full span
//! breakdown of the pipeline (stride apply → COLLECT → CLUSTER → adoption)
//! plus the index and MS-BFS work counters accumulated inside the slide.
//! Events flow through an [`EventSink`](crate::EventSink); the JSONL sink
//! writes one [`to_jsonl`](JsonlRecord::to_jsonl) line per event, which
//! is the repo's offline-analysis exchange format (`--metrics-out`).

use crate::record::{field, Field, JsonlRecord};

/// Everything observable about one slide, as a flat record.
///
/// Durations are nanoseconds; counters are deltas *for this slide* (the
/// cumulative totals live in the [`Registry`](crate::Registry)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlideEvent {
    /// Slide sequence number (1-based; the initial window fill is slide 1).
    pub seq: u64,
    /// Engine that produced the event (`"disc"`, `"dbscan"`, `"extran"`).
    pub engine: &'static str,
    /// Spatial backend in use (`"rtree"`, `"grid"`, or `""`).
    pub backend: &'static str,
    /// Window size after the slide.
    pub window_len: usize,
    /// Points admitted this slide.
    pub inserted: usize,
    /// Points retired this slide.
    pub removed: usize,
    /// Ex-cores identified (Def. 1).
    pub ex_cores: usize,
    /// Neo-cores identified (Def. 2).
    pub neo_cores: usize,
    /// Retro-reachable ex-core classes examined (Theorem 1 numerator).
    pub ex_classes: usize,
    /// Nascent-reachable neo-core classes examined.
    pub neo_classes: usize,
    /// Cluster splits observed.
    pub splits: usize,
    /// Cluster merges observed.
    pub merges: usize,
    /// Clusters that emerged.
    pub emerged: usize,
    /// Fallback adoption searches run.
    pub adoption_searches: usize,
    /// Connectivity-check instances run (MS-BFS or sequential).
    pub msbfs_instances: usize,
    /// Starters across all connectivity checks.
    pub msbfs_starters: usize,
    /// Queue expansions (vertex pops) across all connectivity checks.
    pub msbfs_rounds: usize,
    /// COLLECT phase duration (ns).
    pub collect_ns: u64,
    /// CLUSTER phase duration (ns).
    pub cluster_ns: u64,
    /// Adoption pass duration (ns).
    pub adoption_ns: u64,
    /// Whole-slide duration (ns).
    pub total_ns: u64,
    /// ε-range searches executed during the slide.
    pub range_searches: u64,
    /// Of which epoch-based probes.
    pub epoch_probes: u64,
    /// Index traversal units visited (tree nodes / grid cells).
    pub nodes_visited: u64,
    /// Point-to-point distance evaluations.
    pub distance_checks: u64,
    /// Subtrees / cells skipped by epoch pruning.
    pub subtrees_pruned: u64,
    /// Engine-state heap footprint after the slide, in bytes (the
    /// `MemoryFootprint` estimate; 0 when the engine does not account).
    pub mem_bytes: u64,
}

/// The engine names slide events carry (`""` when unset).
const ENGINES: &[&str] = &["", "disc", "graphdisc", "dbscan", "extran"];

/// The backend names slide events carry (`""` when unset).
const BACKENDS: &[&str] = &["", "rtree", "grid"];

/// The line: `engine`/`backend` out of the names the engines emit, every
/// other key a non-negative integer.
impl JsonlRecord for SlideEvent {
    const NAME: &'static str = "slide-event";
    const FIELDS: &'static [Field<Self>] = &[
        field!(uint seq),
        field!(one_of engine, ENGINES),
        field!(one_of backend, BACKENDS),
        field!(uint window_len),
        field!(uint inserted),
        field!(uint removed),
        field!(uint ex_cores),
        field!(uint neo_cores),
        field!(uint ex_classes),
        field!(uint neo_classes),
        field!(uint splits),
        field!(uint merges),
        field!(uint emerged),
        field!(uint adoption_searches),
        field!(uint msbfs_instances),
        field!(uint msbfs_starters),
        field!(uint msbfs_rounds),
        field!(uint collect_ns),
        field!(uint cluster_ns),
        field!(uint adoption_ns),
        field!(uint total_ns),
        field!(uint range_searches),
        field!(uint epoch_probes),
        field!(uint nodes_visited),
        field!(uint distance_checks),
        field!(uint subtrees_pruned),
        field!(uint mem_bytes),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SlideEvent {
        SlideEvent {
            seq: 7,
            engine: "disc",
            backend: "grid",
            window_len: 1000,
            inserted: 50,
            removed: 50,
            ex_cores: 4,
            neo_cores: 6,
            ex_classes: 2,
            neo_classes: 3,
            splits: 1,
            merges: 0,
            emerged: 1,
            adoption_searches: 5,
            msbfs_instances: 2,
            msbfs_starters: 5,
            msbfs_rounds: 17,
            collect_ns: 120_000,
            cluster_ns: 80_000,
            adoption_ns: 9_000,
            total_ns: 215_000,
            range_searches: 160,
            epoch_probes: 30,
            nodes_visited: 900,
            distance_checks: 4_000,
            subtrees_pruned: 12,
            mem_bytes: 1_048_576,
        }
    }

    #[test]
    fn jsonl_line_validates_and_round_trips() {
        let ev = sample();
        let line = ev.to_jsonl();
        SlideEvent::validate_jsonl(&line).unwrap();
        assert_eq!(SlideEvent::from_jsonl(&line).unwrap(), ev);
    }

    #[test]
    fn default_event_is_schema_complete() {
        let line = SlideEvent::default().to_jsonl();
        SlideEvent::validate_jsonl(&line).unwrap();
    }

    #[test]
    fn validator_rejects_missing_and_unknown_keys() {
        let line = sample().to_jsonl();
        let missing = line.replace("\"splits\":1,", "");
        assert!(SlideEvent::validate_jsonl(&missing)
            .unwrap_err()
            .contains("splits"));
        let unknown = line.replace("\"splits\":1", "\"splits\":1,\"bogus\":2");
        assert!(SlideEvent::validate_jsonl(&unknown)
            .unwrap_err()
            .contains("bogus"));
        // A pre-mem_bytes (schema 24-key) line no longer validates.
        let old_schema = line.replace(",\"mem_bytes\":1048576", "");
        assert!(SlideEvent::validate_jsonl(&old_schema)
            .unwrap_err()
            .contains("mem_bytes"));
        let wrong_type = line.replace("\"splits\":1", "\"splits\":\"one\"");
        assert!(SlideEvent::validate_jsonl(&wrong_type).is_err());
        assert!(SlideEvent::validate_jsonl("[1,2]").is_err());
        assert!(SlideEvent::validate_jsonl("not json").is_err());
    }
}
