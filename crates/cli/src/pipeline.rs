//! The slide pipeline behind `disc cluster`, its durable mode
//! (`--checkpoint-dir`/`--wal`) and `disc resume`.
//!
//! The three commands differ only in how they build a [`Run`]: a fresh
//! engine over a new window driver; the same plus a checkpoint directory
//! and WAL; or an engine recovered from checkpoint + WAL over a driver
//! positioned after its last committed slide. [`drive`] then takes every
//! slide through the same stages in one order and finishes every run the
//! same way, so no output flag depends on which command started the run.

use crate::cmd::stats_summary;
use crate::health::Health;
use crate::ingest::IngestPipeline;
use crate::Opts;
use disc_baselines::{Dbscan, ExtraN, IncDbscan, RhoDbscan, WindowClusterer};
use disc_core::{Disc, DiscConfig, IndexBackend};
use disc_index::{GridIndex, RTree, SpatialBackend};
use disc_persist::{
    checkpoint_path, metrics, recover_engine, save_checkpoint, Checkpoint, DriverState,
    FsyncPolicy, RecoveryReport, WalWriter,
};
use disc_telemetry::{
    chrome_trace_json, folded_stacks, JsonlSink, MemoryFootprint, PromServer, ProvenanceSink,
    Recorder, Registry, Sink,
};
use disc_window::{csv, SlidingWindow};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The `--fsync` policy of the WAL and the ingest journal.
pub(crate) fn fsync_policy(opts: &Opts) -> Result<FsyncPolicy, String> {
    let spec = opts.fsync.as_deref().unwrap_or("always");
    FsyncPolicy::parse(spec)
        .ok_or_else(|| format!("--fsync {spec:?}: expected always, never, or every=N"))
}

/// Where a run's engine comes from.
pub(crate) enum Origin<'a> {
    /// Built empty from `--method` and `(eps, tau, window, stride)`.
    Fresh(f64, usize, usize, usize),
    /// Restored from the newest checkpoint in a directory plus the tail
    /// of an optional WAL.
    Recovered(&'a Path, Option<&'a Path>),
}

/// Builds the engine over `backend` — the one place an index backend
/// becomes a type. Recovery also returns its report.
pub(crate) fn build_engine<const D: usize>(
    backend: IndexBackend,
    origin: Origin,
    opts: &Opts,
    workers: usize,
) -> Result<(Box<dyn WindowClusterer<D>>, Option<RecoveryReport>), String> {
    match backend {
        IndexBackend::RTree => build_on::<D, RTree<D>>(backend, origin, opts, workers),
        IndexBackend::Grid => build_on::<D, GridIndex<D>>(backend, origin, opts, workers),
    }
}

fn build_on<const D: usize, B: SpatialBackend<D> + 'static>(
    backend: IndexBackend,
    origin: Origin,
    opts: &Opts,
    workers: usize,
) -> Result<(Box<dyn WindowClusterer<D>>, Option<RecoveryReport>), String> {
    let (eps, tau, window, stride) = match origin {
        Origin::Fresh(eps, tau, window, stride) => (eps, tau, window, stride),
        Origin::Recovered(dir, wal) => {
            let (mut disc, _, report) =
                recover_engine::<D, B>(dir, wal).map_err(|e| format!("recovery failed: {e}"))?;
            // Worker width is deliberately not part of the checkpoint image,
            // so a run checkpointed on one machine can resume at another's.
            disc.set_threads(workers);
            return Ok((Box::new(disc), Some(report)));
        }
    };
    let engine: Box<dyn WindowClusterer<D>> = match opts.method.as_str() {
        "disc" => Box::new(Disc::<D, B>::with_index(
            DiscConfig::new(eps, tau)
                .with_backend(backend)
                .with_threads(workers),
        )),
        "extran" => Box::new(ExtraN::<D, B>::with_backend(eps, tau, window, stride)),
        "dbscan" => Box::new(Dbscan::<D, B>::with_backend(eps, tau)),
        "incdbscan" => Box::new(IncDbscan::new(eps, tau)),
        "rho2" => Box::new(RhoDbscan::new(eps, tau, opts.rho)),
        other => return Err(format!("unknown --method {other:?}")),
    };
    Ok((engine, None))
}

/// A durable run's checkpoint directory, cadence and optional WAL.
pub(crate) struct Durable<const D: usize> {
    dir: PathBuf,
    every: u64,
    wal: Option<WalWriter<D>>,
}

impl<const D: usize> Durable<D> {
    /// Durability per `--checkpoint-dir`/`--checkpoint-every`/`--wal`/
    /// `--fsync`; `None` without `--checkpoint-dir`. A fresh run creates
    /// the WAL, a resumed one (`resume`) appends to it.
    pub(crate) fn from_opts(opts: &Opts, resume: bool) -> Result<Option<Self>, String> {
        let Some(dir) = &opts.checkpoint_dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let wal = match &opts.wal {
            Some(path) => {
                let policy = fsync_policy(opts)?;
                let wal = if resume {
                    WalWriter::<D>::open_append(path, policy).map(|(w, _)| w)
                } else {
                    WalWriter::<D>::create(path, policy)
                };
                Some(wal.map_err(|e| format!("{}: {e}", path.display()))?)
            }
            None => None,
        };
        Ok(Some(Durable {
            dir: dir.clone(),
            every: opts.checkpoint_every.unwrap_or(1).max(1),
            wal,
        }))
    }

    /// Writes checkpoint `seq` (engine image + driver position) and
    /// publishes its size and duration.
    fn checkpoint(
        &self,
        engine: &dyn WindowClusterer<D>,
        w: &SlidingWindow<D>,
        seq: u64,
        registry: &Registry,
    ) -> Result<(), String> {
        let started = std::time::Instant::now();
        let ckpt = Checkpoint {
            state: engine
                .export_state()
                .ok_or("checkpoints need --method disc")?,
            driver: Some(DriverState {
                window: w.window_size() as u64,
                stride: w.stride() as u64,
                start: w.start().expect("checkpoint after the fill") as u64,
            }),
        };
        let path = checkpoint_path(&self.dir, seq);
        let bytes =
            save_checkpoint(&path, &ckpt).map_err(|e| format!("{}: {e}", path.display()))?;
        metrics::publish_checkpoint(registry, bytes, started.elapsed());
        Ok(())
    }
}

/// Everything one run of the pipeline needs besides the flags.
pub(crate) struct Run<const D: usize> {
    pub engine: Box<dyn WindowClusterer<D>>,
    /// Unfilled for a fresh run; positioned after the last recovered
    /// slide for a resumed one.
    pub window: SlidingWindow<D>,
    pub durable: Option<Durable<D>>,
    pub ingest: Option<IngestPipeline>,
    pub recovery: Option<RecoveryReport>,
    /// The engine's thresholds, for the health auditor's oracle.
    pub eps: f64,
    pub tau: usize,
    pub workers: usize,
}

/// A `--*-out` JSONL file's sink, shared by whoever emits its events and
/// the [`JsonlFiles`] that checks it.
pub(crate) type JsonlFile = Arc<JsonlSink<std::fs::File>>;

/// Every JSONL file a run opened, under the flag that named it. A sink
/// keeps its first I/O error; [`drive`] checks them all after every slide
/// and at the final flush, and fails the run as `--flag path: error`.
#[derive(Default)]
pub(crate) struct JsonlFiles(Vec<(&'static str, PathBuf, JsonlFile)>);

impl JsonlFiles {
    /// Creates (truncating) `flag`'s file; `None` without a path.
    pub(crate) fn open(
        &mut self,
        flag: &'static str,
        path: &Option<PathBuf>,
    ) -> Result<Option<JsonlFile>, String> {
        let Some(path) = path else {
            return Ok(None);
        };
        let sink =
            JsonlSink::create(path).map_err(|e| format!("{flag} {}: {e}", path.display()))?;
        let sink = Arc::new(sink);
        self.0.push((flag, path.clone(), sink.clone()));
        Ok(Some(sink))
    }

    /// The first sink's error, if any; `flush` writes each buffer out
    /// first.
    fn check(&self, flush: bool) -> Result<(), String> {
        for (flag, path, sink) in &self.0 {
            if flush {
                JsonlSink::flush(sink);
            }
            if let Some(e) = sink.error() {
                return Err(format!("{flag} {}: {e}", path.display()));
            }
        }
        Ok(())
    }
}

/// The registry every sink shares: the `--metrics-out` JSONL stream, and
/// the provenance stream, teed through the health driver's lifecycle fold
/// (when health is on) before the optional `--provenance-out` export.
fn registry<const D: usize>(
    opts: &Opts,
    health: Option<&Health<D>>,
    files: &mut JsonlFiles,
) -> Result<Registry, String> {
    let mut registry = match files.open("--metrics-out", &opts.metrics_out)? {
        Some(sink) => Registry::with_sink(Box::new(sink)),
        None => Registry::new(),
    };
    let export = files.open("--provenance-out", &opts.provenance_out)?;
    let export = export.map(|sink| Box::new(sink) as Box<dyn ProvenanceSink>);
    let provenance = match health {
        Some(h) => Some(h.provenance_tee(export)),
        None => export,
    };
    if let Some(sink) = provenance {
        registry = registry.with_provenance(sink);
    }
    Ok(registry)
}

/// Drives `run` to the end of its stream. Each slide, the fill being
/// slide 1: WAL append, apply, window gauge and span drain, checkpoint
/// every N slides, ingest timeline, health, `--stats-every`, progress.
/// Then: final checkpoint, WAL sync, summary and every requested output,
/// with the health verdict (which may fail the run) last.
pub(crate) fn drive<const D: usize>(opts: &Opts, run: Run<D>) -> Result<(), String> {
    let (mut engine, mut w, mut durable, mut ingest) =
        (run.engine, run.window, run.durable, run.ingest);
    let mut files = JsonlFiles::default();
    let mut health = Health::<D>::from_opts(opts, run.eps, run.tau, &mut files)?;
    let registry = Arc::new(registry(opts, health.as_ref(), &mut files)?);
    let ingest_out = files.open("--ingest-out", &opts.ingest_out)?;
    let prom = match &opts.prom_addr {
        Some(addr) => {
            let server = PromServer::spawn(addr, registry.clone())
                .map_err(|e| format!("--prom-addr {addr}: {e}"))?;
            if !opts.quiet {
                eprintln!(
                    "serving Prometheus metrics on http://{}/metrics",
                    server.local_addr()
                );
            }
            Some(server)
        }
        None => None,
    };
    if let Some(report) = &run.recovery {
        metrics::publish_recovery(&*registry, report);
    }
    engine.set_recorder(registry.clone());
    let tracing = opts.trace_out.is_some() || opts.folded_out.is_some();
    if tracing {
        engine.enable_tracing();
    }
    let mut spans = Vec::new();
    let mut seq = run.recovery.map_or(0, |r| r.checkpoint_seq + r.replayed);
    let next = |w: &mut SlidingWindow<D>| match w.start() {
        None => Some(w.fill()),
        Some(_) => w.advance(),
    };

    let start = std::time::Instant::now();
    while let Some(batch) = next(&mut w) {
        seq += 1;
        // Append before apply: a slide the engine may have half-applied
        // when the process died is still replayable.
        if let Some(wal) = durable.as_mut().and_then(|d| d.wal.as_mut()) {
            let bytes = wal
                .append(seq, &batch)
                .map_err(|e| format!("WAL append failed: {e}"))?;
            metrics::publish_wal_append(&*registry, bytes, wal.len_bytes());
        }
        engine
            .try_apply(&batch)
            .map_err(|e| format!("slide {seq} rejected: {e}"))?;
        // The raw window buffer is CLI state, not engine state: its gauge
        // row is published here, next to the engine's own components.
        for (component, bytes) in w.footprint().flatten() {
            registry.gauge_set_labeled("disc_mem_bytes", "component", &component, bytes as f64);
        }
        // Drained per slide (ids stay unique across drains) so the span
        // buffer never grows beyond one slide between collections.
        if tracing {
            spans.extend(engine.drain_spans());
        }
        if let Some(d) = &durable {
            if seq.is_multiple_of(d.every) {
                d.checkpoint(&*engine, &w, seq, &registry)?;
            }
        }
        if let Some(ing) = &mut ingest {
            let event = ing.on_slide(seq, &registry);
            if let Some(out) = &ingest_out {
                out.emit(&event);
            }
        }
        let assignments = if health.is_some() || !opts.quiet {
            engine.assignments()
        } else {
            Vec::new()
        };
        if let Some(h) = &mut health {
            h.observe(seq, &assignments, &w, &batch, &registry);
        }
        if opts.stats_every > 0 && seq.is_multiple_of(opts.stats_every) {
            stats_summary(
                &registry,
                seq,
                run.workers,
                health.as_ref().map(|h| h.summary()),
            );
        }
        if !opts.quiet {
            eprintln!(
                "slide {seq}: {} clusters",
                disc_metrics::cluster_count(&assignments)
            );
        }
        files.check(false)?;
    }
    if let Some(d) = &mut durable {
        d.checkpoint(&*engine, &w, seq, &registry)?;
        if let Some(wal) = &mut d.wal {
            wal.sync().map_err(|e| format!("WAL sync failed: {e}"))?;
        }
    }
    let elapsed = start.elapsed();
    // Every sink the registry holds is one of `files`.
    files.check(true)?;
    if let Some(server) = &prom {
        server.shutdown();
    }

    let assignments = engine.assignments();
    println!(
        "{}",
        summary_line(
            engine.name(),
            seq,
            &assignments,
            elapsed,
            engine.range_searches(),
            run.recovery,
        )
    );
    if let Some(d) = &durable {
        println!(
            "checkpoints in {} (latest: slide {seq}), {} checkpoint bytes total",
            d.dir.display(),
            registry.counter_value("disc_checkpoint_bytes_total"),
        );
    }
    if let Some(out) = &opts.out {
        let pos: disc_geom::FxHashMap<disc_geom::PointId, disc_geom::Point<D>> =
            w.current().collect();
        let rows: Vec<(disc_geom::Point<D>, i64)> =
            assignments.iter().map(|(id, l)| (pos[id], *l)).collect();
        csv::write_snapshot(out, &rows).map_err(|e| format!("--out {}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }
    if let Some(path) = &opts.metrics_out {
        println!("wrote per-slide metrics to {}", path.display());
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, chrome_trace_json(&spans))
            .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
        println!(
            "wrote {} spans to {} (load in chrome://tracing)",
            spans.len(),
            path.display()
        );
    }
    if let Some(path) = &opts.folded_out {
        std::fs::write(path, folded_stacks(&spans))
            .map_err(|e| format!("--folded-out {}: {e}", path.display()))?;
        println!("wrote folded stacks to {}", path.display());
    }
    if let Some(path) = &opts.provenance_out {
        println!(
            "wrote {} provenance events to {}",
            registry.provenance_emitted(),
            path.display()
        );
    }
    if let (Some(ing), false) = (&ingest, opts.quiet) {
        ing.summary();
        if let Some(path) = &opts.ingest_out {
            println!("wrote per-slide ingest events to {}", path.display());
        }
    }
    // Last, so a fatal alert still leaves every output (snapshot,
    // checkpoints, traces, JSONL streams) complete on disk for CI.
    if let Some(h) = &health {
        h.finish()?;
    }
    Ok(())
}

/// The run's closing summary. `seq` counts every slide of the run. A
/// resumed run names the narrower spans of its other two figures: `elapsed`
/// times only the slides applied after recovery (the `recovered slide`
/// line times recovery itself), and a recovered engine counts range
/// searches from its checkpoint on, WAL replay included. Plain and durable
/// runs count all three from slide 1.
fn summary_line(
    engine: &str,
    seq: u64,
    assignments: &[(disc_geom::PointId, i64)],
    elapsed: std::time::Duration,
    range_searches: u64,
    recovery: Option<RecoveryReport>,
) -> String {
    let span = match recovery {
        Some(r) => format!(
            "for the {} slides after recovery",
            seq - r.checkpoint_seq - r.replayed
        ),
        None => "total".to_string(),
    };
    let mut line = format!(
        "{engine}: {seq} slides, {} window points, {} clusters, {} noise, {elapsed:?} {span}, \
         {range_searches} range searches",
        assignments.len(),
        disc_metrics::cluster_count(assignments),
        assignments.iter().filter(|(_, l)| *l < 0).count(),
    );
    if let Some(r) = recovery {
        line.push_str(&format!(" since checkpoint {}", r.checkpoint_seq));
    }
    line
}

#[cfg(test)]
mod tests {
    use disc_telemetry::{
        AlertEvent, HealthEvent, IngestEvent, JsonlRecord, ProvenanceEvent, SlideEvent,
    };
    use std::io::{Read, Write};
    use std::path::Path;

    /// The output flags every run path shares.
    const OUTPUTS: [&str; 9] = [
        "--out",
        "--metrics-out",
        "--provenance-out",
        "--trace-out",
        "--folded-out",
        "--prom-addr",
        "--health-out",
        "--alerts-out",
        "--ingest-out",
    ];
    const PARAMS: [&str; 9] = [
        "--eps", "1.0", "--tau", "4", "--window", "300", "--stride", "20", "--quiet",
    ];

    fn disc(args: &[&str]) -> Result<(), String> {
        crate::run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn p(path: &Path) -> &str {
        path.to_str().unwrap()
    }

    /// Generates `n` blob points (timed or not) and a prefix of `keep` of them.
    fn stream(dir: &Path, name: &str, n: usize, keep: usize, timed: bool) {
        let full = dir.join(format!("{name}.csv"));
        let n = n.to_string();
        let mut args = vec![
            "generate",
            "--dataset",
            "blobs",
            "--n",
            &n,
            "--out",
            p(&full),
        ];
        if timed {
            args.push("--timed");
        }
        disc(&args).unwrap();
        let text = std::fs::read_to_string(&full).unwrap();
        let head: Vec<&str> = text.lines().take(keep).collect();
        std::fs::write(
            dir.join(format!("{name}_prefix.csv")),
            head.join("\n") + "\n",
        )
        .unwrap();
    }

    /// Runs `mode` (plain, durable or resume) over stream `name` with
    /// `extra` flags in `cell`. A resume row first runs the stream's prefix
    /// durably, then resumes with the same parameters (equal values are
    /// accepted) against the full stream.
    fn run_mode(
        dir: &Path,
        cell: &Path,
        mode: &str,
        name: &str,
        extra: &[&str],
    ) -> Result<(), String> {
        std::fs::create_dir_all(cell).unwrap();
        let full = dir.join(format!("{name}.csv"));
        let prefix = dir.join(format!("{name}_prefix.csv"));
        let (ck, wal) = (cell.join("ck"), cell.join("slides.wal"));
        let durable = ["--checkpoint-dir", p(&ck), "--wal", p(&wal)];
        let timed: &[&str] = if name.contains("timed") {
            &["--timed"]
        } else {
            &[]
        };
        let mut args = match mode {
            "plain" => vec!["cluster", "--input", p(&full)],
            "durable" => [&["cluster", "--input", p(&full)], &durable[..]].concat(),
            _ => {
                let first = [
                    &["cluster", "--input", p(&prefix)],
                    &durable[..],
                    &PARAMS,
                    timed,
                ]
                .concat();
                disc(&first).unwrap();
                [&["resume", "--input", p(&full)], &durable[..]].concat()
            }
        };
        args.extend_from_slice(&PARAMS);
        args.extend_from_slice(timed);
        args.extend_from_slice(extra);
        disc(&args)
    }

    /// Checks the artifact `flag` wrote to `path` with its own validator.
    fn validate(flag: &str, path: &Path) -> Result<(), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{flag}: {e}"))?;
        if text.trim().is_empty() {
            return Err(format!("{flag} wrote an empty file"));
        }
        let each = |check: fn(&str) -> Result<(), String>| text.lines().try_for_each(check);
        match flag {
            "--out" => match disc_window::csv::read_snapshot::<2>(path) {
                Ok(rows) if rows.len() == 300 => Ok(()),
                other => Err(format!("--out: {other:?}")),
            },
            "--metrics-out" => each(SlideEvent::validate_jsonl),
            "--provenance-out" => each(|l| ProvenanceEvent::from_jsonl(l).map(|_| ())),
            "--trace-out" => disc_telemetry::validate_chrome_trace(&text).map(|_| ()),
            "--folded-out" if text.contains("slide;collect") => Ok(()),
            "--health-out" => each(HealthEvent::validate_jsonl),
            "--alerts-out" => each(AlertEvent::validate_jsonl),
            "--ingest-out" => each(IngestEvent::validate_jsonl),
            _ => Err(format!("{flag}: unexpected content {text:?}")),
        }
    }

    /// Runs `mode` with `--prom-addr` on a background thread and scrapes
    /// the endpoint while it runs; the scrape must parse as Prometheus text.
    fn scrape_while_running(dir: &Path, cell: &Path, mode: &str) -> Result<(), String> {
        // Reserve a free port, then hand it to the run.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap()
            .to_string();
        let (dir, cell, mode, flag_addr) = (
            dir.to_owned(),
            cell.to_owned(),
            mode.to_owned(),
            addr.clone(),
        );
        let run = std::thread::spawn(move || {
            run_mode(&dir, &cell, &mode, "long", &["--prom-addr", &flag_addr])
        });
        let mut body = None;
        while body.is_none() && !run.is_finished() {
            let Ok(mut conn) = std::net::TcpStream::connect(&addr) else {
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            };
            let mut response = String::new();
            let _ = write!(conn, "GET /metrics HTTP/1.1\r\n\r\n");
            let _ = conn.read_to_string(&mut response);
            body = response
                .split_once("\r\n\r\n")
                .map(|(_, b)| b.to_string())
                .filter(|b| b.contains("disc_"));
        }
        run.join().unwrap()?;
        let body = body.ok_or("--prom-addr: the run ended before a scrape answered")?;
        disc_telemetry::parse_prometheus(&body).map(|_| ())
    }

    /// Every output flag on every run path — plain, durable, resumed —
    /// writes an artifact that passes its validator: none is accepted and
    /// then dropped.
    #[test]
    fn flag_matrix_every_output_on_every_run_path() {
        let dir = std::env::temp_dir().join("disc_cli_flag_matrix");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        stream(&dir, "blobs", 600, 400, false);
        stream(&dir, "blobs_timed", 600, 400, true);
        // Long enough for a scrape to land mid-run; the resumed half too.
        stream(&dir, "long", 6000, 1000, false);
        let rules = dir.join("rules.toml");
        // Blobs always hold a cluster, so the rule fires on slide 1.
        std::fs::write(
            &rules,
            "[[rule]]\nname = \"any\"\nmetric = \"disc_cluster_count\"\nop = \"gt\"\n\
             threshold = 0.5\nfor_slides = 1\nclear_slides = 1\n",
        )
        .unwrap();
        for mode in ["plain", "durable", "resume"] {
            for flag in OUTPUTS {
                let cell = dir.join(format!("{mode}{flag}"));
                let artifact = cell.join("artifact");
                let outcome = match flag {
                    "--prom-addr" => scrape_while_running(&dir, &cell, mode),
                    _ => {
                        let mut extra = vec![flag, p(&artifact)];
                        if flag == "--alerts-out" {
                            extra.extend(["--alerts", p(&rules)]);
                        }
                        let name = if flag == "--ingest-out" {
                            "blobs_timed"
                        } else {
                            "blobs"
                        };
                        run_mode(&dir, &cell, mode, name, &extra)
                            .and_then(|()| validate(flag, &artifact))
                    }
                };
                // Every cell is supported, so a refusal here is a failure too.
                outcome.unwrap_or_else(|e| panic!("{mode} {flag}: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every output flag pointed at a full device, on every run path,
    /// stops the run with an error that names the flag and the path: no
    /// write error is dropped.
    #[cfg(target_os = "linux")]
    #[test]
    fn flag_matrix_every_output_fails_loudly_on_a_full_device() {
        let dir = std::env::temp_dir().join("disc_cli_flag_matrix_full");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        stream(&dir, "blobs", 600, 400, false);
        stream(&dir, "blobs_timed", 600, 400, true);
        let rules = dir.join("rules.toml");
        std::fs::write(
            &rules,
            "[[rule]]\nname = \"any\"\nmetric = \"disc_cluster_count\"\nop = \"gt\"\n\
             threshold = 0.5\n",
        )
        .unwrap();
        for mode in ["plain", "durable", "resume"] {
            for flag in OUTPUTS.iter().filter(|&&f| f != "--prom-addr") {
                let cell = dir.join(format!("{mode}{flag}"));
                let mut extra = vec![*flag, "/dev/full"];
                if *flag == "--alerts-out" {
                    extra.extend(["--alerts", p(&rules)]);
                }
                let name = if *flag == "--ingest-out" {
                    "blobs_timed"
                } else {
                    "blobs"
                };
                let err = run_mode(&dir, &cell, mode, name, &extra)
                    .err()
                    .unwrap_or_else(|| panic!("{mode} {flag}: the run succeeded"));
                assert!(
                    err.starts_with(&format!("{flag} /dev/full: ")),
                    "{mode} {flag}: {err}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The refusals: orphan durability flags, resume parameters the
    /// checkpoint overrides, span/provenance outputs of methods that record
    /// neither, and slide events of methods that publish none. Each error
    /// names the flag; nothing is written.
    #[test]
    fn flag_matrix_refuses_flags_it_would_drop() {
        let dir = std::env::temp_dir().join("disc_cli_flag_matrix_refusals");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        stream(&dir, "blobs", 600, 400, false);
        let cell = dir.join("cell");
        let refused = |extra: &[&str], mode: &str, named: &[&str]| {
            let _ = std::fs::remove_dir_all(&cell);
            let err = run_mode(&dir, &cell, mode, "blobs", extra).unwrap_err();
            for part in named {
                assert!(err.contains(part), "{mode} {extra:?}: {err}");
            }
        };
        refused(
            &["--checkpoint-every", "3"],
            "plain",
            &["--checkpoint-every"],
        );
        refused(&["--fsync", "never"], "plain", &["--fsync"]);
        refused(&["--stride", "400"], "plain", &["--stride 400", "300"]);
        refused(
            &["--wal", p(&dir.join("w.wal"))],
            "plain",
            &["--checkpoint-dir"],
        );
        refused(&["--eps", "9"], "resume", &["--eps", "9", "1"]);
        refused(&["--tau", "100"], "resume", &["--tau", "100", "4"]);
        refused(&["--window", "5"], "resume", &["--window", "5", "300"]);
        refused(&["--stride", "7"], "resume", &["--stride", "7", "20"]);
        refused(
            &["--index", "grid"],
            "resume",
            &["--index", "grid", "rtree"],
        );
        refused(
            &["--method", "dbscan"],
            "resume",
            &["--method disc", "dbscan"],
        );
        for method in ["incdbscan", "extran", "dbscan", "rho2"] {
            for flag in ["--trace-out", "--folded-out", "--provenance-out"] {
                let artifact = dir.join("artifact");
                refused(
                    &["--method", method, flag, p(&artifact)],
                    "plain",
                    &[flag, "--method disc", method],
                );
                assert!(
                    !artifact.exists(),
                    "{method} {flag} wrote {}",
                    artifact.display()
                );
            }
        }
        for method in ["incdbscan", "rho2"] {
            let artifact = dir.join("artifact");
            refused(
                &["--method", method, "--metrics-out", p(&artifact)],
                "plain",
                &["--metrics-out", "--method disc", method],
            );
            assert!(
                !artifact.exists(),
                "{method} --metrics-out wrote {}",
                artifact.display()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A resumed engine counts range searches from its checkpoint on, WAL
    /// replay included: the restored engine starts at zero and the count
    /// covers only the slides after the checkpoint. The resumed summary
    /// names that span; the plain and durable summaries keep their format.
    #[test]
    fn resumed_summary_names_the_span_its_range_searches_cover() {
        use disc_baselines::WindowClusterer;
        use disc_core::{Disc, DiscConfig};
        use disc_geom::PointId;
        use disc_window::{datasets, SlidingWindow};
        use std::time::Duration;

        let recs = datasets::gaussian_blobs::<2>(900, 4, 0.6, 7);
        let mut w = SlidingWindow::new(recs, 300, 60);
        let mut full: Disc<2> = Disc::new(DiscConfig::new(1.0, 5));
        full.apply(&w.fill());
        full.apply(&w.advance().unwrap());
        let checkpoint = full.export_state();
        let at_checkpoint = full.range_searches();
        let restored = Disc::<2>::from_state(checkpoint.clone()).unwrap();
        assert_eq!(restored.range_searches(), 0, "restoring searches nothing");
        let tail: Vec<_> = std::iter::from_fn(|| w.advance()).collect();
        for batch in &tail {
            full.apply(batch);
        }
        let (resumed, replayed) = Disc::<2>::recover(checkpoint, tail).unwrap();
        assert_eq!(replayed, 9);
        // Replay re-does the tail's searches (up to traversal order, which
        // the rebuilt index may change), never the checkpoint's prefix.
        let after = full.range_searches() - at_checkpoint;
        assert!(resumed.range_searches() > 0);
        assert!(resumed.range_searches().abs_diff(after) * 100 < after);

        let labels = [(PointId(1), 0), (PointId(2), 0), (PointId(3), -1)];
        let ms = Duration::from_millis(3);
        assert_eq!(
            super::summary_line("disc", 9, &labels, ms, 42, None),
            "disc: 9 slides, 3 window points, 1 clusters, 1 noise, 3ms total, \
             42 range searches"
        );
        // Checkpoint 2 plus 3 replayed WAL slides recover slide 5; the
        // elapsed time covers slides 6 to 9 only.
        let recovery = disc_persist::RecoveryReport {
            checkpoint_seq: 2,
            replayed: 3,
            wal_records: 5,
            torn_tail: false,
        };
        assert_eq!(
            super::summary_line("disc", 9, &labels, ms, 42, Some(recovery)),
            "disc: 9 slides, 3 window points, 1 clusters, 1 noise, \
             3ms for the 4 slides after recovery, 42 range searches since checkpoint 2"
        );
    }
}
