//! Structured per-slide span events.
//!
//! One [`SlideEvent`] is emitted per engine slide, carrying the full span
//! breakdown of the pipeline (stride apply → COLLECT → CLUSTER → adoption)
//! plus the index and MS-BFS work counters accumulated inside the slide.
//! Events flow through an [`EventSink`](crate::EventSink); the JSONL sink
//! writes one [`to_jsonl`](SlideEvent::to_jsonl) line per event, which is
//! the repo's offline-analysis exchange format (`--metrics-out`).

use crate::json::Json;

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

/// The JSONL schema: every emitted line carries exactly these keys.
/// `engine`/`backend` are strings; everything else is a non-negative
/// integer. [`SlideEvent::validate_jsonl`] enforces this.
pub const SCHEMA_STR_KEYS: [&str; 2] = ["engine", "backend"];

/// Numeric keys of the JSONL schema (see [`SCHEMA_STR_KEYS`]).
pub const SCHEMA_NUM_KEYS: [&str; 25] = [
    "seq",
    "window_len",
    "inserted",
    "removed",
    "ex_cores",
    "neo_cores",
    "ex_classes",
    "neo_classes",
    "splits",
    "merges",
    "emerged",
    "adoption_searches",
    "msbfs_instances",
    "msbfs_starters",
    "msbfs_rounds",
    "collect_ns",
    "cluster_ns",
    "adoption_ns",
    "total_ns",
    "range_searches",
    "epoch_probes",
    "nodes_visited",
    "distance_checks",
    "subtrees_pruned",
    "mem_bytes",
];

impl SlideEvent {
    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"seq\":{},\"engine\":\"{}\",\"backend\":\"{}\",\"window_len\":{},\
             \"inserted\":{},\"removed\":{},\"ex_cores\":{},\"neo_cores\":{},\
             \"ex_classes\":{},\"neo_classes\":{},\"splits\":{},\"merges\":{},\
             \"emerged\":{},\"adoption_searches\":{},\"msbfs_instances\":{},\
             \"msbfs_starters\":{},\"msbfs_rounds\":{},\"collect_ns\":{},\
             \"cluster_ns\":{},\"adoption_ns\":{},\"total_ns\":{},\
             \"range_searches\":{},\"epoch_probes\":{},\"nodes_visited\":{},\
             \"distance_checks\":{},\"subtrees_pruned\":{},\"mem_bytes\":{}}}",
            self.seq,
            crate::json::escape(self.engine),
            crate::json::escape(self.backend),
            self.window_len,
            self.inserted,
            self.removed,
            self.ex_cores,
            self.neo_cores,
            self.ex_classes,
            self.neo_classes,
            self.splits,
            self.merges,
            self.emerged,
            self.adoption_searches,
            self.msbfs_instances,
            self.msbfs_starters,
            self.msbfs_rounds,
            self.collect_ns,
            self.cluster_ns,
            self.adoption_ns,
            self.total_ns,
            self.range_searches,
            self.epoch_probes,
            self.nodes_visited,
            self.distance_checks,
            self.subtrees_pruned,
            self.mem_bytes,
        )
    }

    /// Validates one JSONL line against the slide-event schema: parses as
    /// an object, every schema key present with the right type, no unknown
    /// keys. This is the checker the CI smoke job and the CLI tests run.
    pub fn validate_jsonl(line: &str) -> Result<(), String> {
        let doc = Json::parse(line)?;
        let Json::Obj(members) = &doc else {
            return Err("event line is not a JSON object".to_string());
        };
        for key in SCHEMA_STR_KEYS {
            match doc.get(key) {
                Some(Json::Str(_)) => {}
                Some(_) => return Err(format!("key {key:?} is not a string")),
                None => return Err(format!("missing key {key:?}")),
            }
        }
        for key in SCHEMA_NUM_KEYS {
            match doc.get(key) {
                Some(v) if v.as_u64().is_some() => {}
                Some(_) => return Err(format!("key {key:?} is not a non-negative integer")),
                None => return Err(format!("missing key {key:?}")),
            }
        }
        let known = |k: &str| SCHEMA_STR_KEYS.contains(&k) || SCHEMA_NUM_KEYS.contains(&k);
        if let Some((k, _)) = members.iter().find(|(k, _)| !known(k)) {
            return Err(format!("unknown key {k:?}"));
        }
        Ok(())
    }

    /// Panicking form of [`validate_jsonl`](Self::validate_jsonl) for
    /// tests and CI checkers, where an invalid line should abort with the
    /// offending content in the message rather than thread a `Result`.
    pub fn assert_valid_jsonl(line: &str) {
        if let Err(e) = Self::validate_jsonl(line) {
            panic!("invalid slide-event JSONL line {line:?}: {e}");
        }
    }

    /// Parses a previously-emitted JSONL line back into an event
    /// (round-trip helper for offline analysis and tests).
    pub fn from_jsonl(line: &str) -> Result<SlideEvent, String> {
        Self::validate_jsonl(line)?;
        let doc = Json::parse(line)?;
        let num = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap();
        let stat = |k: &str| -> &'static str {
            // Events only ever carry the engine/backend names baked into
            // the binaries; map them back to the static strings.
            match doc.get(k).and_then(Json::as_str).unwrap() {
                "disc" => "disc",
                "graphdisc" => "graphdisc",
                "dbscan" => "dbscan",
                "extran" => "extran",
                "rtree" => "rtree",
                "grid" => "grid",
                _ => "",
            }
        };
        Ok(SlideEvent {
            seq: num("seq"),
            engine: stat("engine"),
            backend: stat("backend"),
            window_len: num("window_len") as usize,
            inserted: num("inserted") as usize,
            removed: num("removed") as usize,
            ex_cores: num("ex_cores") as usize,
            neo_cores: num("neo_cores") as usize,
            ex_classes: num("ex_classes") as usize,
            neo_classes: num("neo_classes") as usize,
            splits: num("splits") as usize,
            merges: num("merges") as usize,
            emerged: num("emerged") as usize,
            adoption_searches: num("adoption_searches") as usize,
            msbfs_instances: num("msbfs_instances") as usize,
            msbfs_starters: num("msbfs_starters") as usize,
            msbfs_rounds: num("msbfs_rounds") as usize,
            collect_ns: num("collect_ns"),
            cluster_ns: num("cluster_ns"),
            adoption_ns: num("adoption_ns"),
            total_ns: num("total_ns"),
            range_searches: num("range_searches"),
            epoch_probes: num("epoch_probes"),
            nodes_visited: num("nodes_visited"),
            distance_checks: num("distance_checks"),
            subtrees_pruned: num("subtrees_pruned"),
            mem_bytes: num("mem_bytes"),
        })
    }
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
