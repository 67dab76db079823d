//! # DISC — Density-Based Incremental Clustering by Striding
//!
//! A production-quality Rust reproduction of *DISC: Density-Based
//! Incremental Clustering by Striding over Streaming Data* (ICDE 2021).
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`](mod@core) — the DISC engine ([`Disc`]): exact incremental
//!   DBSCAN over sliding windows, with MS-BFS and epoch-based R-tree
//!   probing;
//! * [`index`] — the in-memory R-tree substrate;
//! * [`window`] — sliding-window drivers, synthetic dataset generators,
//!   and the disorder-tolerant admission layer (reorder buffer,
//!   watermarks, late/duplicate/malformed policies, overload shedding)
//!   plus its seeded chaos transformer (see `DESIGN.md` §16);
//! * [`baselines`] — DBSCAN, IncDBSCAN, EXTRA-N, ρ₂-DBSCAN, DBSTREAM,
//!   EDMStream;
//! * [`metrics`] — ARI/NMI/purity and the DBSCAN-equivalence oracle;
//! * [`telemetry`] — recorders, latency histograms, Prometheus/JSONL
//!   exporters (see `DESIGN.md` §9);
//! * [`geom`] — points, boxes and small utilities.
//!
//! ## Quick start
//!
//! ```
//! use disc::prelude::*;
//!
//! // A labelled synthetic stream: 3 Gaussian blobs, round-robin emission.
//! let records = datasets::gaussian_blobs::<2>(3_000, 3, 0.5, 7);
//! let mut window = SlidingWindow::new(records, 1_000, 100);
//!
//! let mut disc = Disc::new(DiscConfig::new(1.0, 5));
//! disc.apply(&window.fill());
//! while let Some(batch) = window.advance() {
//!     let stats = disc.apply(&batch);
//!     assert!(stats.range_searches() > 0);
//! }
//! assert!(disc.num_clusters() >= 3);
//! ```

pub use disc_baselines as baselines;
pub use disc_core as core;
pub use disc_geom as geom;
pub use disc_index as index;
pub use disc_metrics as metrics;
pub use disc_telemetry as telemetry;
pub use disc_window as window;

pub use disc_core::{Disc, DiscConfig, PointLabel, SlideStats};

/// Everything needed by typical consumers, in one import.
pub mod prelude {
    pub use crate::baselines::{
        DbStream, DbStreamConfig, Dbscan, EdmStream, EdmStreamConfig, ExtraN, IncDbscan, RhoDbscan,
        WindowClusterer,
    };
    pub use crate::core::{Disc, DiscConfig, GraphDisc, PointLabel, SlideStats};
    pub use crate::geom::{Point, PointId};
    pub use crate::metrics::{ari, nmi, purity};
    pub use crate::telemetry::{
        IngestEvent, JsonlRecord, Recorder, Registry, SharedRecorder, SlideEvent,
    };
    pub use crate::window::{
        datasets, AdmissionConfig, Decision, DisorderConfig, HostileRecord, Ingest, IngestStats,
        LatePolicy, Record, SlideBatch, SlidingWindow, TimeWindow, TimeWindowError, TimedRecord,
    };
}
