//! Sliding-window streaming machinery and workload generators.
//!
//! The paper evaluates DISC under the **count-based sliding window** model:
//! the window holds the most recent `window` points and advances by
//! `stride` points at a time; one advance retires the oldest stride
//! (`Δout`) and admits the newest (`Δin`). This crate provides:
//!
//! * [`SlidingWindow`] — turns any finite record stream into a sequence of
//!   [`SlideBatch`]es (the `Δin`/`Δout` pairs every clustering method in the
//!   workspace consumes);
//! * [`datasets`] — synthetic generators standing in for the paper's four
//!   real datasets (DTG, GeoLife, COVID-19, IRIS) plus a faithful
//!   re-implementation of the synthetic **Maze** workload, each documented
//!   with the structural property it preserves;
//! * [`csv`] — minimal CSV import/export for cluster snapshots (Fig. 12);
//! * [`reorder`] — the disorder-tolerant admission layer: a bounded
//!   reorder buffer behind a watermark, with late/duplicate/malformed
//!   policies and overload shedding (DESIGN.md §16);
//! * [`disorder`](mod@disorder) — the seeded chaos transformer that manufactures
//!   hostile arrival sequences for the property suites.

pub mod csv;
pub mod datasets;
pub mod disorder;
pub mod reorder;
pub mod stream;
pub mod timewindow;
pub mod window;

pub use disorder::{disorder, DisorderConfig, HostileRecord};
pub use reorder::{AdmissionConfig, Decision, Ingest, IngestSnapshot, IngestStats, LatePolicy};
pub use stream::Record;
pub use timewindow::{TimeWindow, TimeWindowError, TimedRecord};
pub use window::{SlideBatch, SlidingWindow};
