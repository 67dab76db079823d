//! `disc-telemetry` — zero-dependency observability for the DISC stack.
//!
//! The paper's whole evaluation reasons about cost through observable
//! proxies — range-search counts, epoch-probe savings, per-phase latency —
//! and a production streaming service is judged on sustained per-update
//! latency and its *tail*. This crate is the instrumentation layer that
//! makes those quantities measurable at runtime, cheaply:
//!
//! * [`LogHistogram`] — allocation-free log-bucketed (HDR-style) latency
//!   histograms with p50/p90/p99/max (≈3% bucket error).
//! * [`Recorder`] — the one trait engines publish to: monotone counters,
//!   gauges, duration histograms, and structured [`SlideEvent`]s. The
//!   default [`NoopRecorder`] reports `enabled() == false`, so an
//!   uninstrumented engine pays one virtual call and a branch per slide.
//! * [`Registry`] — the standard recorder: named metrics behind a mutex,
//!   rendered on demand as Prometheus text exposition
//!   ([`Registry::render_prometheus`], validated by
//!   [`prom::parse_prometheus`]), with an optional [`EventSink`].
//! * [`JsonlRecord`] — the one JSONL codec: each event stream (slide,
//!   health, ingest, alert, provenance) is a field table, and the trait
//!   renders, validates and parses every line from it.
//! * [`JsonlSink`] — one JSON line per event for offline analysis (the
//!   CLI's `--metrics-out` and `--provenance-out`).
//! * `http` feature — [`PromServer`], a tiny std-only scrape endpoint.
//!
//! # Conventions
//!
//! Metric names are Prometheus snake case with unit suffixes
//! (`disc_slide_seconds`, `disc_index_range_searches_total`). Histogram
//! samples are recorded in **nanoseconds**; the exporter divides metrics
//! named `*_seconds` by 1e9 at render time, so scrapes see base units.
//!
//! # Wiring
//!
//! ```
//! use disc_telemetry::{Recorder, Registry, SlideEvent};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! // An engine publishes per slide:
//! registry.counter_add("disc_slides_total", 1);
//! registry.record_nanos("disc_slide_seconds", 42_000);
//! registry.emit(&SlideEvent { seq: 1, engine: "disc", ..Default::default() });
//! // An exporter renders on demand:
//! let text = registry.render_prometheus();
//! assert!(text.contains("disc_slides_total 1"));
//! ```

pub mod alert;
pub mod chrome;
pub mod event;
pub mod folded;
pub mod health;
pub mod hist;
#[cfg(feature = "http")]
pub mod http;
pub mod ingest;
pub mod json;
pub mod mem;
pub mod prom;
pub mod provenance;
pub mod record;
pub mod recorder;
pub mod registry;
pub mod sink;
pub mod span;

pub use alert::{parse_rules, AlertEngine, AlertEvent, AlertOp, AlertRule};
pub use chrome::{chrome_trace_json, validate_chrome_trace};
pub use event::SlideEvent;
pub use folded::folded_stacks;
pub use health::{
    from_ppm, ppm, ClusterDeath, ClusterRecord, DriftDetector, DriftMonitor, DriftVerdict, Ewma,
    HealthEvent, LifecycleAnalytics, LifecycleStats, PageHinkley,
};
pub use hist::{HistSnapshot, LogHistogram};
#[cfg(feature = "http")]
pub use http::PromServer;
pub use ingest::{lag_ppm, IngestEvent};
pub use json::Json;
pub use mem::{fmt_bytes, map_bytes, rss_bytes, FootprintNode, MemoryFootprint};
pub use prom::{parse_prometheus, parse_prometheus_strict, MetricKind, Sample};
pub use provenance::{MsBfsReason, ProvenanceEvent, ProvenanceKind};
pub use record::JsonlRecord;
pub use recorder::{noop, NoopRecorder, Recorder};
pub use registry::Registry;
pub use sink::{EventSink, JsonlSink, MemorySink, ProvenanceSink, Sink};
pub use span::{SpanId, SpanRecord, Tracer};

/// The trait-object handle engines store: cheap to clone, shareable with
/// exporter threads.
pub type SharedRecorder = std::sync::Arc<dyn Recorder>;
