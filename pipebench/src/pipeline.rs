//! One slide through the pipeline the CLI composes: admission → ingest
//! journal → window → WAL → engine → label read-out → health signals →
//! telemetry → checkpoint. Every stage is a call into a library crate,
//! wrapped in a span named after the layer it belongs to.

use crate::feed::{Cyclic, Feed, Hostile};
use crate::recorder::TimedRecorder;
use disc_core::{Disc, SlideStats};
use disc_geom::PointId;
use disc_index::SpatialBackend;
use disc_persist::{
    checkpoint_path, metrics, write_checkpoint_to, Checkpoint, FsyncPolicy, IngestJournalWriter,
    WalWriter,
};
use disc_telemetry::{DriftMonitor, Recorder, Registry, SharedRecorder, Tracer};
use disc_window::TimedRecord;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Span names, one per layer call the benchmark times. `slide` is the
/// root; every other span is its direct child.
pub const SLIDE: &str = "slide";
pub const INGEST: &str = "window.ingest";
pub const JOURNAL: &str = "persist.journal";
pub const BATCH: &str = "window.batch";
pub const WAL_APPEND: &str = "persist.wal_append";
pub const APPLY: &str = "core.apply";
pub const LABELS: &str = "core.labels";
pub const HEALTH: &str = "metrics.health";
pub const PUBLISH: &str = "telemetry.publish";
pub const CHECKPOINT: &str = "persist.checkpoint";

/// Span argument carrying the nanoseconds a child span spent inside the
/// recorder, which belong to the telemetry layer rather than the child.
pub const RECORDER_NS: &str = "recorder_ns";

/// Where the stride's records come from.
pub enum Source {
    Clean(Cyclic),
    Hostile(Box<Hostile>),
}

/// The registry the durable workloads publish to, with its JSONL sink.
pub struct Telemetry {
    pub registry: Arc<Registry>,
    /// What the engine and the health stage publish through: the registry
    /// itself, or the timing proxy around it in a traced run.
    pub recorder: SharedRecorder,
    pub proxy: Option<Arc<TimedRecorder>>,
    pub jsonl_bytes: Arc<AtomicU64>,
}

/// WAL, ingest journal and checkpoints, kept in one directory.
///
/// The CLI keeps every checkpoint. A run of thousands of slides would
/// leave hundreds of them behind, so after each checkpoint the benchmark
/// deletes the one before it — between slides, untimed: that housekeeping
/// is the benchmark's, not the pipeline's. The logs are never rotated,
/// since a fresh segment costs an fsync.
pub struct Durable {
    pub dir: PathBuf,
    pub wal: WalWriter<2>,
    pub wal_path: PathBuf,
    pub journal: Option<IngestJournalWriter>,
    last_checkpoint: Option<u64>,
    pub every: u64,
}

impl Durable {
    /// Creates the logs, whose first slide is `first_seq`.
    pub fn create(dir: &Path, first_seq: u64, journal: bool, every: u64) -> Result<Self, String> {
        let wal_path = dir.join(format!("wal-{first_seq:012}.log"));
        let wal = WalWriter::create(&wal_path, FsyncPolicy::Never)
            .map_err(|e| format!("{}: {e}", wal_path.display()))?;
        let journal = if journal {
            let path = dir.join("ingest.journal");
            let w = IngestJournalWriter::create(&path, FsyncPolicy::Never)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Some(w)
        } else {
            None
        };
        Ok(Durable {
            dir: dir.to_path_buf(),
            wal,
            wal_path,
            journal,
            last_checkpoint: None,
            every,
        })
    }

    /// After checkpoint `seq`: deletes the checkpoint before it.
    pub fn prune(&mut self, seq: u64) -> Result<(), String> {
        if let Some(old) = self.last_checkpoint.replace(seq) {
            let path = checkpoint_path(&self.dir, old);
            std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// Writes checkpoint `seq` as `save_checkpoint` does — encode, write to a
/// temporary name, rename — minus its two fsyncs. Device flush latency is
/// outside what the benchmark measures; on a tmpfs it is nil anyway.
pub fn write_checkpoint<B: SpatialBackend<2>>(
    dir: &Path,
    disc: &Disc<2, B>,
    feed: &Feed,
) -> Result<u64, String> {
    let ckpt = Checkpoint {
        state: disc.export_state(),
        driver: Some(feed.driver()),
    };
    let path = checkpoint_path(dir, disc.slide_seq());
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let bytes =
        write_checkpoint_to(&mut file, &ckpt).map_err(|e| format!("{}: {e}", tmp.display()))?;
    drop(file);
    std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(bytes)
}

/// The per-slide health signals the CLI's health stage computes.
pub struct Health {
    prev: Vec<(PointId, i64)>,
    drift: DriftMonitor,
}

impl Health {
    pub fn new(first: Vec<(PointId, i64)>) -> Self {
        let mut drift = DriftMonitor::new();
        for name in ["label_churn", "noise_fraction", "cluster_count"] {
            drift.track(name, 32);
        }
        Health { prev: first, drift }
    }

    pub fn observe(&mut self, labels: Vec<(PointId, i64)>, rec: &dyn Recorder) {
        let churn = disc_metrics::label_churn(&self.prev, &labels);
        let noise = disc_metrics::noise_fraction(&labels);
        let clusters = disc_metrics::cluster_sizes(&labels).len() as f64;
        let verdict = self.drift.observe(&[
            ("label_churn", churn),
            ("noise_fraction", noise),
            ("cluster_count", clusters),
        ]);
        rec.gauge_set("disc_label_churn", churn);
        rec.gauge_set("disc_noise_fraction", noise);
        rec.gauge_set("disc_cluster_count", clusters);
        rec.gauge_set("disc_drift_score", verdict.score);
        if verdict.changed.is_some() {
            rec.counter_add("disc_drift_changes_total", 1);
        }
        self.prev = labels;
    }
}

/// What one slide produced, for the harness's books.
pub struct SlideOut {
    pub stats: SlideStats,
    pub wal_bytes: u64,
    pub checkpoint_bytes: Option<u64>,
    /// The records admission released for this slide (hostile source).
    pub admitted: Vec<TimedRecord<2>>,
}

/// The composed pipeline. Optional stages are `None` on workloads that
/// do not run them.
pub struct Pipeline<B: SpatialBackend<2>> {
    pub disc: Disc<2, B>,
    pub feed: Feed,
    pub source: Source,
    pub durable: Option<Durable>,
    pub telemetry: Option<Telemetry>,
    pub health: Option<Health>,
}

/// Opens `name` under the slide span, runs `f`, and closes the span with
/// the recorder time `f` caused attached.
fn span<R>(
    tracer: &mut Tracer,
    proxy: Option<&TimedRecorder>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let before = proxy.map_or(0, |p| p.nanos());
    let id = tracer.begin(name);
    let out = f();
    let recorder = proxy.map_or(0, |p| p.nanos()) - before;
    if recorder > 0 {
        tracer.end_with_args(id, &[(RECORDER_NS, recorder)]);
    } else {
        tracer.end(id);
    }
    out
}

impl<B: SpatialBackend<2>> Pipeline<B> {
    /// Runs one stride through every stage, ending once the slide's labels
    /// have been read and every stage after them has run.
    pub fn slide(&mut self, stride: usize, tracer: &mut Tracer) -> Result<SlideOut, String> {
        let root = tracer.begin(SLIDE);
        let proxy = self.telemetry.as_ref().and_then(|t| t.proxy.clone());
        let proxy = proxy.as_deref();
        let noop = disc_telemetry::noop();
        let rec: &dyn Recorder = self.telemetry.as_ref().map_or(&*noop, |t| &*t.recorder);
        let feed = &mut self.feed;

        let (batch, admitted) = match &mut self.source {
            Source::Clean(src) => {
                let batch = span(tracer, proxy, BATCH, || {
                    feed.admit(src.take(feed.next_id(), stride))
                });
                (batch, Vec::new())
            }
            Source::Hostile(h) => {
                let admitted = span(tracer, proxy, INGEST, || h.admit(stride));
                if let Some(journal) = self.durable.as_mut().and_then(|d| d.journal.as_mut()) {
                    span(tracer, proxy, JOURNAL, || h.journal(journal))?;
                }
                let batch = span(tracer, proxy, BATCH, || {
                    feed.admit(admitted.iter().map(|r| r.record.point))
                });
                (batch, admitted)
            }
        };

        let disc = &mut self.disc;
        let seq = disc.slide_seq() + 1;
        let mut wal_bytes = 0;
        if let Some(d) = &mut self.durable {
            wal_bytes = span(tracer, proxy, WAL_APPEND, || {
                let bytes = d
                    .wal
                    .append(seq, &batch)
                    .map_err(|e| format!("WAL append of slide {seq}: {e}"))?;
                metrics::publish_wal_append(rec, bytes, d.wal.len_bytes());
                Ok::<u64, String>(bytes)
            })?;
        }
        let stats = span(tracer, proxy, APPLY, || disc.try_apply(&batch))
            .map_err(|e| format!("slide {seq} rejected: {e}"))?;
        let labels = span(tracer, proxy, LABELS, || disc.assignments());
        match &mut self.health {
            Some(h) => span(tracer, proxy, HEALTH, || h.observe(labels, rec)),
            None => drop(std::hint::black_box(labels)),
        }
        if let (Source::Hostile(h), Some(t)) = (&mut self.source, &self.telemetry) {
            span(tracer, proxy, PUBLISH, || h.ingest.publish(&t.registry));
        }
        let mut checkpoint_bytes = None;
        if let Some(d) = &self.durable {
            if seq.is_multiple_of(d.every) {
                let started = std::time::Instant::now();
                let bytes = span(tracer, proxy, CHECKPOINT, || {
                    let bytes = write_checkpoint(&d.dir, disc, feed)?;
                    metrics::publish_checkpoint(rec, bytes, started.elapsed());
                    Ok::<u64, String>(bytes)
                })?;
                checkpoint_bytes = Some(bytes);
            }
        }
        tracer.end(root);
        Ok(SlideOut {
            stats,
            wal_bytes,
            checkpoint_bytes,
            admitted,
        })
    }

    /// The JSONL bytes written so far, after flushing the sink.
    pub fn jsonl_bytes(&self) -> u64 {
        self.telemetry.as_ref().map_or(0, |t| {
            t.registry.flush();
            t.jsonl_bytes.load(Relaxed)
        })
    }

    /// Recorder calls forwarded so far (traced runs only).
    pub fn recorder_calls(&self) -> u64 {
        self.telemetry
            .as_ref()
            .and_then(|t| t.proxy.as_ref())
            .map_or(0, |p| p.calls())
    }
}
