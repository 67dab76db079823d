//! Causal slide provenance in the paper's vocabulary.
//!
//! Aggregate counters say *how many* splits happened; provenance says
//! *which* ex-core caused *which* cluster to split into *how many* parts.
//! Engines emit one [`ProvenanceEvent`] per structural decision — ex-/
//! neo-core detection, retro-reachable class formation (Theorem 1's unit
//! of work), MS-BFS start/termination, cluster split/merge/emergence/
//! dissipation, and border adoption — tagged with the slide they belong
//! to. Events ride the existing [`Recorder`](crate::Recorder) plumbing
//! (`emit_provenance`) and are written by the one JSONL codec
//! ([`JsonlRecord`]) every telemetry stream uses; the CLI's `explain`
//! subcommand reconstructs a causal narrative from the stream.
//!
//! # JSONL schema
//!
//! Every line is a flat object with exactly six keys so downstream
//! tooling never needs schema-per-kind dispatch:
//!
//! | key      | type   | meaning                                          |
//! |----------|--------|--------------------------------------------------|
//! | `slide`  | number | 1-based slide sequence number                    |
//! | `kind`   | string | [`ProvenanceKind::name`], e.g. `cluster_split`   |
//! | `id`     | number | primary subject (point or cluster id; 0 if n/a)  |
//! | `rep`    | number | secondary subject / class representative         |
//! | `n`      | number | cardinality (size, starters, rounds, parts, …)   |
//! | `reason` | string | MS-BFS termination reason (`""` otherwise)       |

use crate::record::{field, Field, JsonlRecord, Kind, Value};

/// Why an MS-BFS instance stopped (Alg. 3's two exits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsBfsReason {
    /// Every starter met every other one — the class is connected and the
    /// search quit early (the common, cheap case).
    AllMet,
    /// Some traversal exhausted its component without meeting the rest —
    /// the class is disconnected (a split follows).
    Exhausted,
}

impl MsBfsReason {
    /// The schema string (`"all_met"` / `"exhausted"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            MsBfsReason::AllMet => "all_met",
            MsBfsReason::Exhausted => "exhausted",
        }
    }
}

/// What happened (one structural decision), in the paper's vocabulary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProvenanceKind {
    /// Point `id` was a core in the previous window but is not one now.
    ExCoreDetected {
        /// The demoted point.
        id: u64,
    },
    /// Point `id` became a core this slide.
    NeoCoreDetected {
        /// The promoted point.
        id: u64,
    },
    /// A retro-reachable class `R⁻` was assembled around representative
    /// `rep`; Theorem 1 lets CLUSTER run one connectivity check for all
    /// `size` ex-cores in it instead of one each.
    RetroClassFormed {
        /// The class representative (its first discovered ex-core).
        rep: u64,
        /// Number of ex-cores in the class.
        size: u64,
    },
    /// An MS-BFS instance launched over class `rep`'s minimal bonding
    /// cores `M⁻`.
    MsBfsStarted {
        /// The class representative.
        rep: u64,
        /// Number of simultaneous BFS starters (`|M⁻|`).
        starters: u64,
    },
    /// The MS-BFS instance over class `rep` stopped after `rounds`
    /// queue expansions.
    MsBfsTerminated {
        /// The class representative.
        rep: u64,
        /// Why it stopped.
        reason: MsBfsReason,
        /// Queue expansions performed (see `Connectivity::rounds`).
        rounds: u64,
    },
    /// Cluster `old` split into `parts` connected components; the
    /// component containing core `rep` kept the old label.
    ClusterSplit {
        /// The pre-slide cluster id.
        old: u64,
        /// Number of resulting components.
        parts: u64,
        /// A core in the surviving (label-keeping) component.
        rep: u64,
    },
    /// Neo-core `rep` bonded `merged` distinct clusters; `winner` is the
    /// cluster id that absorbed the rest.
    ClusterMerge {
        /// The absorbing cluster id.
        winner: u64,
        /// How many distinct clusters were united (≥ 2).
        merged: u64,
        /// The neo-core class representative that caused the merge.
        rep: u64,
    },
    /// Neo-core class `rep` touched no existing cluster; a fresh cluster
    /// `cluster` of `size` cores emerged.
    ClusterEmerged {
        /// The newly allocated cluster id.
        cluster: u64,
        /// The neo-core class representative.
        rep: u64,
        /// Number of cores in the emerging class.
        size: u64,
    },
    /// Retro class `rep` kept no bonding core (`M⁻ = ∅`): its region
    /// dissipated (the paper's dissipation condition).
    ClusterDied {
        /// The class representative (an ex-core of the dead region).
        rep: u64,
        /// Number of ex-cores that went down with it.
        size: u64,
    },
    /// Border point `border` was (re-)attached to core `core` by the
    /// adoption pass (§V).
    Adoption {
        /// The adopted border point.
        border: u64,
        /// The adopting core.
        core: u64,
    },
}

impl ProvenanceKind {
    /// The schema `kind` string for this event.
    pub fn name(&self) -> &'static str {
        match self {
            ProvenanceKind::ExCoreDetected { .. } => "ex_core_detected",
            ProvenanceKind::NeoCoreDetected { .. } => "neo_core_detected",
            ProvenanceKind::RetroClassFormed { .. } => "retro_class_formed",
            ProvenanceKind::MsBfsStarted { .. } => "msbfs_started",
            ProvenanceKind::MsBfsTerminated { .. } => "msbfs_terminated",
            ProvenanceKind::ClusterSplit { .. } => "cluster_split",
            ProvenanceKind::ClusterMerge { .. } => "cluster_merge",
            ProvenanceKind::ClusterEmerged { .. } => "cluster_emerged",
            ProvenanceKind::ClusterDied { .. } => "cluster_died",
            ProvenanceKind::Adoption { .. } => "adoption",
        }
    }

    /// The flat `(id, rep, n, reason)` field encoding for the schema.
    fn fields(&self) -> (u64, u64, u64, &'static str) {
        match *self {
            ProvenanceKind::ExCoreDetected { id } => (id, 0, 0, ""),
            ProvenanceKind::NeoCoreDetected { id } => (id, 0, 0, ""),
            ProvenanceKind::RetroClassFormed { rep, size } => (0, rep, size, ""),
            ProvenanceKind::MsBfsStarted { rep, starters } => (0, rep, starters, ""),
            ProvenanceKind::MsBfsTerminated {
                rep,
                reason,
                rounds,
            } => (0, rep, rounds, reason.as_str()),
            ProvenanceKind::ClusterSplit { old, parts, rep } => (old, rep, parts, ""),
            ProvenanceKind::ClusterMerge {
                winner,
                merged,
                rep,
            } => (winner, rep, merged, ""),
            ProvenanceKind::ClusterEmerged { cluster, rep, size } => (cluster, rep, size, ""),
            ProvenanceKind::ClusterDied { rep, size } => (0, rep, size, ""),
            ProvenanceKind::Adoption { border, core } => (border, core, 0, ""),
        }
    }

    /// The kind named `name` (a schema `kind` string), built from the flat
    /// `(id, rep, n, reason)` encoding — the inverse of `fields`.
    fn from_fields(name: &str, (id, rep, n, reason): (u64, u64, u64, &str)) -> ProvenanceKind {
        match name {
            "ex_core_detected" => ProvenanceKind::ExCoreDetected { id },
            "neo_core_detected" => ProvenanceKind::NeoCoreDetected { id },
            "retro_class_formed" => ProvenanceKind::RetroClassFormed { rep, size: n },
            "msbfs_started" => ProvenanceKind::MsBfsStarted { rep, starters: n },
            "msbfs_terminated" => ProvenanceKind::MsBfsTerminated {
                rep,
                reason: match reason {
                    "all_met" => MsBfsReason::AllMet,
                    _ => MsBfsReason::Exhausted,
                },
                rounds: n,
            },
            "cluster_split" => ProvenanceKind::ClusterSplit {
                old: id,
                parts: n,
                rep,
            },
            "cluster_merge" => ProvenanceKind::ClusterMerge {
                winner: id,
                merged: n,
                rep,
            },
            "cluster_emerged" => ProvenanceKind::ClusterEmerged {
                cluster: id,
                rep,
                size: n,
            },
            "cluster_died" => ProvenanceKind::ClusterDied { rep, size: n },
            _ => ProvenanceKind::Adoption {
                border: id,
                core: rep,
            },
        }
    }

    /// Rebuilds this kind with one slot of its flat encoding edited.
    fn edit(&mut self, slot: impl FnOnce(&mut (u64, u64, u64, &'static str))) {
        let mut flat = self.fields();
        slot(&mut flat);
        *self = ProvenanceKind::from_fields(self.name(), flat);
    }
}

/// One structural decision, tagged with the slide it happened in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenanceEvent {
    /// 1-based slide sequence number (matches `SlideEvent::seq`).
    pub slide: u64,
    /// The decision.
    pub kind: ProvenanceKind,
}

impl Default for ProvenanceEvent {
    fn default() -> Self {
        ProvenanceEvent {
            slide: 0,
            kind: ProvenanceKind::ExCoreDetected { id: 0 },
        }
    }
}

/// Slot `$i` of the flat `(id, rep, n, reason)` encoding, as a field.
macro_rules! slot {
    ($key:literal, $i:tt, $kind:expr, $value:ident, $read:ident) => {
        Field {
            key: $key,
            kind: $kind,
            get: |e| Value::$value(e.kind.fields().$i),
            set: |e, v| e.kind.edit(|f| f.$i = v.$read()),
        }
    };
}

/// The six-key line of the module table. The setters run in table order,
/// so `kind` picks the variant before `id`/`rep`/`n`/`reason` fill it.
impl JsonlRecord for ProvenanceEvent {
    const NAME: &'static str = "provenance";
    const FIELDS: &'static [Field<Self>] = &[
        field!(uint slide),
        Field {
            key: "kind",
            kind: Kind::OneOf(&[
                "ex_core_detected",
                "neo_core_detected",
                "retro_class_formed",
                "msbfs_started",
                "msbfs_terminated",
                "cluster_split",
                "cluster_merge",
                "cluster_emerged",
                "cluster_died",
                "adoption",
            ]),
            get: |e| Value::Name(e.kind.name()),
            set: |e, v| e.kind = ProvenanceKind::from_fields(v.name(), e.kind.fields()),
        },
        slot!("id", 0, Kind::Uint, Uint, uint),
        slot!("rep", 1, Kind::Uint, Uint, uint),
        slot!("n", 2, Kind::Uint, Uint, uint),
        slot!(
            "reason",
            3,
            Kind::OneOf(&["", "all_met", "exhausted"]),
            Name,
            name
        ),
    ];

    /// A reason on `msbfs_terminated` lines only, and always there.
    fn check<'a>(value: impl Fn(&str) -> Value<'a>) -> Result<(), String> {
        match (value("kind").str(), value("reason").str()) {
            ("msbfs_terminated", "") => Err("msbfs_terminated without a reason".to_string()),
            ("msbfs_terminated", _) | (_, "") => Ok(()),
            (kind, reason) => Err(format!(
                "reason {reason:?} on non-termination kind {kind:?}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{JsonlSink, MemorySink, Sink};

    fn samples() -> Vec<ProvenanceEvent> {
        use ProvenanceKind::*;
        let kinds = vec![
            ExCoreDetected { id: 4 },
            NeoCoreDetected { id: 33 },
            RetroClassFormed { rep: 4, size: 3 },
            MsBfsStarted {
                rep: 4,
                starters: 3,
            },
            MsBfsTerminated {
                rep: 4,
                reason: MsBfsReason::Exhausted,
                rounds: 14,
            },
            MsBfsTerminated {
                rep: 9,
                reason: MsBfsReason::AllMet,
                rounds: 2,
            },
            ClusterSplit {
                old: 5,
                parts: 2,
                rep: 7,
            },
            ClusterMerge {
                winner: 3,
                merged: 2,
                rep: 33,
            },
            ClusterEmerged {
                cluster: 11,
                rep: 40,
                size: 5,
            },
            ClusterDied { rep: 8, size: 1 },
            Adoption {
                border: 40,
                core: 7,
            },
        ];
        kinds
            .into_iter()
            .map(|kind| ProvenanceEvent { slide: 17, kind })
            .collect()
    }

    #[test]
    fn every_kind_round_trips_through_jsonl() {
        for ev in samples() {
            let line = ev.to_jsonl();
            ProvenanceEvent::validate_jsonl(&line).unwrap_or_else(|e| {
                panic!("invalid line for {:?}: {e}\n{line}", ev.kind.name());
            });
            assert_eq!(ProvenanceEvent::from_jsonl(&line).unwrap(), ev);
        }
    }

    #[test]
    fn validator_rejects_schema_violations() {
        let good = ProvenanceEvent {
            slide: 1,
            kind: ProvenanceKind::ExCoreDetected { id: 2 },
        }
        .to_jsonl();
        ProvenanceEvent::validate_jsonl(&good).unwrap();
        for bad in [
            // wrong kind
            good.replace("ex_core_detected", "excore"),
            // unknown key
            good.replace("\"reason\":\"\"", "\"reason\":\"\",\"extra\":1"),
            // negative number
            good.replace("\"id\":2", "\"id\":-2"),
            // string where number expected
            good.replace("\"id\":2", "\"id\":\"2\""),
            // reason on non-termination kind
            good.replace("\"reason\":\"\"", "\"reason\":\"all_met\""),
            // not an object
            "[1, 2]".to_string(),
        ] {
            assert!(
                ProvenanceEvent::validate_jsonl(&bad).is_err(),
                "accepted {bad}"
            );
        }
        // termination must carry a recognised reason
        let term = ProvenanceEvent {
            slide: 1,
            kind: ProvenanceKind::MsBfsTerminated {
                rep: 1,
                reason: MsBfsReason::AllMet,
                rounds: 1,
            },
        }
        .to_jsonl();
        assert!(ProvenanceEvent::validate_jsonl(&term.replace("all_met", "done")).is_err());
        assert!(ProvenanceEvent::validate_jsonl(&term.replace("all_met", "")).is_err());
    }

    #[test]
    fn jsonl_sink_writes_valid_lines() {
        let mut out = Vec::new();
        let sink = JsonlSink::new(&mut out);
        for ev in samples() {
            sink.emit(&ev);
        }
        drop(sink);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), samples().len());
        for line in text.lines() {
            ProvenanceEvent::validate_jsonl(line).unwrap();
        }
    }

    #[test]
    fn memory_sink_accumulates() {
        let sink = MemorySink::<ProvenanceEvent>::new();
        assert!(sink.is_empty());
        for ev in samples() {
            sink.emit(&ev);
        }
        assert_eq!(sink.len(), samples().len());
        assert_eq!(sink.events(), samples());
    }
}
