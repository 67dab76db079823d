//! The three workloads: input generation, set-up, the timed closed loop,
//! the output checks, and the metrics each run reports.

use crate::feed::{Cyclic, Feed, Hostile};
use crate::pipeline::{self, Durable, Health, Pipeline, Source, Telemetry};
use crate::probe::{self, HostProbe};
use crate::procfs::{self, CpuClock};
use crate::recorder::{CountingWriter, TimedRecorder};
use crate::stats::{median, percentile};
use disc_baselines::Dbscan;
use disc_core::{Disc, DiscConfig, IndexBackend};
use disc_geom::{Point, PointId};
use disc_index::{GridIndex, RTree, SpatialBackend};
use disc_metrics::{dbscan_equivalent, Labeling};
use disc_persist::{recover_engine, save_checkpoint, Checkpoint, FsyncPolicy, WalWriter};
use disc_telemetry::{JsonlSink, Registry, SharedRecorder, SpanRecord, Tracer};
use disc_window::{
    csv, datasets, disorder, AdmissionConfig, DisorderConfig, Ingest, IngestStats, TimedRecord,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// dtg, grid backend, engine only: no recorder, persistence or ingest.
    DtgPlain,
    /// The same dtg stream through disorder, admission, the ingest
    /// journal, the WAL, the registry with a JSONL sink, health signals
    /// and periodic checkpoints.
    DtgDurableHostile,
    /// maze on the rtree backend, recovered from a checkpoint and WAL
    /// tail, then run durably in order.
    MazeResume,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DtgPlain,
        Workload::DtgDurableHostile,
        Workload::MazeResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DtgPlain => "dtg-plain",
            Workload::DtgDurableHostile => "dtg-durable-hostile",
            Workload::MazeResume => "maze-resume",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// (ε, τ) of the stream.
    fn eps_tau(self) -> (f64, usize) {
        match self {
            Workload::MazeResume => (0.6, 6),
            _ => (0.45, 12),
        }
    }
}

/// Sizes of a run. Tests shrink them; the benchmark uses [`Shape::FULL`].
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub window: usize,
    pub stride: usize,
    /// Records in the generated base stream, replayed cyclically.
    pub base: usize,
    /// Checkpoint period in slides on the durable workloads.
    pub checkpoint_every: u64,
    /// WAL slides written after the checkpoint `maze-resume` recovers.
    pub resume_tail: u64,
    /// Set-ups per run; `setup_s` is their median. The first half runs
    /// before the timed loop and the rest after the output checks, so the
    /// median spans the whole run rather than its first seconds.
    pub setup_reps: usize,
    /// Per-slide counts are averaged over this many leading slides, so
    /// they repeat exactly for a seed whatever the run's length.
    pub count_slides: usize,
    /// Slides per block; traced runs interleave traced and untraced blocks
    /// so the tracing overhead is measured under the same machine state.
    pub trace_block: usize,
    /// Untimed slides between set-up and the timed loop.
    pub warmup_slides: usize,
    /// The host-speed probe runs before every slide whose sequence number
    /// is `probe_phase` modulo `probe_every`. With the phase at half the
    /// period and a period that divides `checkpoint_every`, the slide
    /// after a probe, which the samples leave out, is never a checkpoint.
    pub probe_every: u64,
    pub probe_phase: u64,
}

impl Shape {
    /// Window 16 000 / stride 800 (the paper's 5% stride); a base stream
    /// of 200 strides per cycle.
    pub const FULL: Shape = Shape {
        window: 16_000,
        stride: 800,
        base: 160_000,
        checkpoint_every: 16,
        resume_tail: 32,
        setup_reps: 8,
        count_slides: 1_000,
        trace_block: 64,
        warmup_slides: 100,
        probe_every: 8,
        probe_phase: 4,
    };
}

/// When the timed loop stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    After(Duration),
    #[cfg_attr(not(test), allow(dead_code))]
    Slides(usize),
}

#[derive(Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub stop: Stop,
    pub trace: bool,
    pub shape: Shape,
    /// Where inputs, logs and checkpoints go; the run removes its own
    /// subdirectory when done.
    pub state: PathBuf,
}

/// Cumulative counts over the leading `count_slides` slides.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub slides: u64,
    pub range_searches: u64,
    pub adoption_searches: u64,
    pub msbfs_rounds: u64,
    pub ex_cores: u64,
    pub ex_classes: u64,
    pub nodes_visited: u64,
    pub distance_checks: u64,
    pub subtrees_pruned: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub recorder_calls: u64,
    pub jsonl_bytes: u64,
    pub ingest: IngestStats,
    pub ingest_buffer_max: u64,
}

/// Set-up timings of one repetition, in seconds of the thread's CPU clock.
#[derive(Clone, Copy, Debug, Default)]
struct SetupTimes {
    total: f64,
    parse: f64,
    /// The engine's fill (apply plus first labels), or `recover_engine`.
    fill: f64,
    /// `recover_engine` without the WAL tail: checkpoint decode and
    /// engine restore only (traced `maze-resume` runs).
    restore: f64,
    /// The host-speed factor from the probes run just before and just
    /// after this set-up.
    host_scale: f64,
}

/// One timed slide's latency on both clocks, in µs.
#[derive(Clone, Copy, Debug)]
pub struct SlideTime {
    /// On the pipeline thread's CPU clock, unscaled; the end-to-end
    /// metrics scale it by the host-speed probes around it.
    pub cpu_us: f64,
    pub wall_us: f64,
    pub traced: bool,
    /// Run right after a host-speed probe, with the engine's data evicted
    /// from the private cache: left out of every latency sample.
    pub after_probe: bool,
}

/// Everything a run measured, before it is reduced to metrics.
pub struct Run {
    pub workload: Workload,
    setups: Vec<SetupTimes>,
    /// Per timed slide, in order.
    pub latencies: Vec<SlideTime>,
    /// Host-speed probes of the timed loop: the index in `latencies` of
    /// the slide that ran right after each, and its time in µs.
    pub probes: Vec<(usize, f64)>,
    /// Per traced slide: COLLECT, CLUSTER and adoption time in µs, and
    /// the whole `apply` as the engine timed it.
    phases: Vec<[f64; 4]>,
    pub counts: Counts,
    spans: Vec<SpanRecord>,
    /// `apply` times in µs at width 2 (traced `dtg-plain` only).
    width2_apply: Vec<f64>,
    cpu_util: f64,
    peak_rss: u64,
    pub attempted: u64,
    pub committed: u64,
    /// Failed output checks; empty when every check passed.
    pub check_failures: Vec<String>,
    /// Canonical labels of the final window.
    #[cfg_attr(not(test), allow(dead_code))]
    pub final_labels: Vec<(PointId, i64)>,
    #[cfg_attr(not(test), allow(dead_code))]
    pub final_points: Vec<(PointId, Point<2>)>,
    pub notes: Vec<String>,
}

/// The inputs a run generated, plus what its checks compare against.
struct Input {
    csv: PathBuf,
    /// The clean stream in event-time order (hostile workload).
    clean: Vec<Point<2>>,
    /// Checkpoint directory and WAL tail `maze-resume` recovers from.
    resume_from: Option<(PathBuf, PathBuf)>,
}

/// Runs one workload end to end.
pub fn execute(opts: &Options) -> Result<Run, String> {
    // Every end-to-end run times the engine at width 1; the traced width-2
    // phase checks its own width when it starts.
    procfs::check_width(1)?;
    let dir = opts
        .state
        .join(format!("{}-{}", opts.workload.name(), std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = match opts.workload {
        Workload::MazeResume => execute_on::<RTree<2>>(opts, &dir),
        _ => execute_on::<GridIndex<2>>(opts, &dir),
    };
    let cleaned = std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()));
    let run = out?;
    cleaned?;
    Ok(run)
}

fn config<B: SpatialBackend<2>>(w: Workload) -> Result<DiscConfig, String> {
    let (eps, tau) = w.eps_tau();
    let backend =
        IndexBackend::parse(B::NAME).ok_or_else(|| format!("unknown backend {}", B::NAME))?;
    Ok(DiscConfig::new(eps, tau)
        .with_backend(backend)
        .with_threads(1))
}

fn io<T, E: std::fmt::Display>(path: &Path, r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| format!("{}: {e}", path.display()))
}

/// Generates the workload's input file (and `maze-resume`'s recovery
/// state) from the seed. Untimed.
fn prepare<B: SpatialBackend<2>>(opts: &Options, dir: &Path) -> Result<Input, String> {
    let shape = &opts.shape;
    let csv_path = dir.join("input.csv");
    match opts.workload {
        Workload::DtgPlain => {
            let records = datasets::dtg_like(shape.base, opts.seed);
            io(&csv_path, csv::write_records(&csv_path, &records))?;
            Ok(Input {
                csv: csv_path,
                clean: Vec::new(),
                resume_from: None,
            })
        }
        Workload::DtgDurableHostile => {
            let timed = disorder::stamp_unit(datasets::dtg_like(shape.base, opts.seed));
            let hostile = disorder(
                &timed,
                &DisorderConfig {
                    seed: opts.seed,
                    skew: 64.0,
                    dup_prob: 0.01,
                    corrupt_prob: 0.001,
                },
            );
            io(&csv_path, csv::write_hostile_records(&csv_path, &hostile))?;
            Ok(Input {
                csv: csv_path,
                clean: timed.iter().map(|r| r.record.point).collect(),
                resume_from: None,
            })
        }
        Workload::MazeResume => {
            let records = datasets::maze(shape.base, 60, opts.seed);
            io(&csv_path, csv::write_records(&csv_path, &records))?;
            // A checkpoint right after the fill, then a WAL tail.
            let ckpt_dir = dir.join("resume-from");
            io(&ckpt_dir, std::fs::create_dir_all(&ckpt_dir))?;
            let wal_path = ckpt_dir.join("tail.wal");
            let source = Cyclic::new(records.iter().map(|r| r.point).collect());
            let mut feed = Feed::new(shape.window, shape.stride);
            let mut disc: Disc<2, B> = Disc::with_index(config::<B>(opts.workload)?);
            disc.try_apply(&feed.admit(source.take(0, shape.window)))
                .map_err(|e| format!("fill rejected: {e}"))?;
            let ckpt = Checkpoint {
                state: disc.export_state(),
                driver: Some(feed.driver()),
            };
            let path = disc_persist::checkpoint_path(&ckpt_dir, disc.slide_seq());
            io(&path, save_checkpoint(&path, &ckpt))?;
            let mut wal = io(&wal_path, WalWriter::create(&wal_path, FsyncPolicy::Never))?;
            for _ in 0..shape.resume_tail {
                let batch = feed.admit(source.take(feed.next_id(), shape.stride));
                io(&wal_path, wal.append(disc.slide_seq() + 1, &batch))?;
                disc.try_apply(&batch)
                    .map_err(|e| format!("WAL tail slide rejected: {e}"))?;
            }
            Ok(Input {
                csv: csv_path,
                clean: Vec::new(),
                resume_from: Some((ckpt_dir, wal_path)),
            })
        }
    }
}

/// Builds the registry, its JSONL sink and the recorder the engine gets.
fn telemetry(dir: &Path, traced: bool) -> Result<Telemetry, String> {
    let path = dir.join("slides.jsonl");
    let file = io(&path, std::fs::File::create(&path))?;
    let (writer, jsonl_bytes) = CountingWriter::new(file);
    let registry = Arc::new(Registry::with_sink(Box::new(JsonlSink::new(writer))));
    let proxy = traced.then(|| Arc::new(TimedRecorder::new(registry.clone())));
    let recorder: SharedRecorder = match &proxy {
        Some(p) => p.clone(),
        None => registry.clone(),
    };
    Ok(Telemetry {
        registry,
        recorder,
        proxy,
        jsonl_bytes,
    })
}

/// One set-up: from the start of input parsing to the first labels.
fn setup<B: SpatialBackend<2>>(
    opts: &Options,
    input: &Input,
    dir: &Path,
) -> Result<(Pipeline<B>, SetupTimes), String> {
    let shape = &opts.shape;
    let w = opts.workload;
    let run_dir = dir.join("run");
    if run_dir.exists() {
        io(&run_dir, std::fs::remove_dir_all(&run_dir))?;
    }
    io(&run_dir, std::fs::create_dir_all(&run_dir))?;
    // Output files are opened before the clock starts, as a service
    // opens its logs before it takes input.
    let durable = match w {
        Workload::DtgPlain => None,
        Workload::DtgDurableHostile => {
            Some(Durable::create(&run_dir, 1, true, shape.checkpoint_every)?)
        }
        Workload::MazeResume => Some(Durable::create(
            &run_dir,
            shape.resume_tail + 2,
            false,
            shape.checkpoint_every,
        )?),
    };
    let telemetry = match w {
        Workload::DtgPlain => None,
        _ => Some(telemetry(&run_dir, opts.trace)?),
    };

    let started = CpuClock::start();
    let mut times = SetupTimes::default();
    let mut pipe = match w {
        Workload::DtgPlain | Workload::MazeResume => {
            let records = io(&input.csv, csv::read_records::<2>(&input.csv))?;
            times.parse = started.elapsed().as_secs_f64();
            let source = Cyclic::new(records.into_iter().map(|r| r.point).collect());
            let fill_started = CpuClock::start();
            let (disc, feed) = match &input.resume_from {
                None => {
                    let mut disc: Disc<2, B> = Disc::with_index(config::<B>(w)?);
                    let mut feed = Feed::new(shape.window, shape.stride);
                    disc.try_apply(&feed.admit(source.take(0, shape.window)))
                        .map_err(|e| format!("fill rejected: {e}"))?;
                    (disc, feed)
                }
                Some((ckpt_dir, wal)) => {
                    let (mut disc, driver, report) =
                        io(ckpt_dir, recover_engine::<2, B>(ckpt_dir, Some(wal)))?;
                    disc.set_threads(1);
                    let driver = driver.ok_or("checkpoint carries no driver position")?;
                    (disc, Feed::resume(&driver, report.replayed, &source))
                }
            };
            std::hint::black_box(disc.assignments());
            times.fill = fill_started.elapsed().as_secs_f64();
            Pipeline {
                disc,
                feed,
                source: Source::Clean(source),
                durable,
                telemetry,
                health: None,
            }
        }
        Workload::DtgDurableHostile => {
            let rows = io(&input.csv, csv::read_timed_records_lossy::<2>(&input.csv))?;
            times.parse = started.elapsed().as_secs_f64();
            let admission = AdmissionConfig {
                lateness: 64.0,
                dedup: 64,
                ..AdmissionConfig::default()
            };
            let mut hostile = Hostile::new(rows, shape.base, Ingest::new(admission));
            let mut durable = durable.expect("durable workload");
            let telemetry = telemetry.expect("durable workload");
            let mut disc: Disc<2, B> = Disc::with_index(config::<B>(w)?);
            disc.set_recorder(telemetry.recorder.clone());
            let mut feed = Feed::new(shape.window, shape.stride);
            let admitted = hostile.admit(shape.window);
            let journal = durable.journal.as_mut().expect("hostile workload journals");
            hostile.journal(journal)?;
            let fill = feed.admit(admitted.iter().map(|r| r.record.point));
            io(&durable.wal_path, durable.wal.append(1, &fill))?;
            let fill_started = CpuClock::start();
            disc.try_apply(&fill)
                .map_err(|e| format!("fill rejected: {e}"))?;
            let labels = disc.assignments();
            times.fill = fill_started.elapsed().as_secs_f64();
            hostile.ingest.publish(&telemetry.registry);
            Pipeline {
                disc,
                feed,
                source: Source::Hostile(Box::new(hostile)),
                durable: Some(durable),
                telemetry: Some(telemetry),
                health: Some(Health::new(labels)),
            }
        }
    };
    times.total = started.elapsed().as_secs_f64();

    if let (Some(t), Some((ckpt_dir, _))) = (&pipe.telemetry, &input.resume_from) {
        pipe.disc.set_recorder(t.recorder.clone());
        if opts.trace {
            let restore_started = CpuClock::start();
            io(ckpt_dir, recover_engine::<2, B>(ckpt_dir, None))?;
            times.restore = restore_started.elapsed().as_secs_f64();
        }
    }
    Ok((pipe, times))
}

/// Checks the admitted records against the clean stream: the `k`-th
/// admitted record (0-based) must carry event time `k + 1` and the `k`-th
/// clean point. Returns the number of mismatches.
fn check_admitted(clean: &[Point<2>], first: u64, admitted: &[TimedRecord<2>]) -> u64 {
    admitted
        .iter()
        .zip(first..)
        .filter(|(r, k)| {
            r.time != (k + 1) as f64 || r.record.point != clean[(k % clean.len() as u64) as usize]
        })
        .count() as u64
}

/// Running comparison of the admitted stream with the clean one.
struct AdmissionCheck<'a> {
    clean: &'a [Point<2>],
    /// Records admitted so far.
    seen: u64,
    /// Of those, records that differ from the clean stream.
    bad: u64,
}

/// One slide, then the untimed bookkeeping after it: checkpoint pruning
/// and the admission check. Returns the slide and its latency on the CPU
/// and the wall clock.
fn step<B: SpatialBackend<2>>(
    pipe: &mut Pipeline<B>,
    stride: usize,
    tracer: &mut Tracer,
    admission: &mut AdmissionCheck<'_>,
) -> Result<(pipeline::SlideOut, Duration, Duration), String> {
    let (cpu, wall) = (CpuClock::start(), Instant::now());
    let out = pipe.slide(stride, tracer)?;
    let latency = (cpu.elapsed(), wall.elapsed());
    if out.checkpoint_bytes.is_some() {
        let seq = pipe.disc.slide_seq();
        if let Some(d) = &mut pipe.durable {
            d.prune(seq)?;
        }
    }
    admission.bad += check_admitted(admission.clean, admission.seen, &out.admitted);
    admission.seen += out.admitted.len() as u64;
    Ok((out, latency.0, latency.1))
}

/// Renumbers clusters by first appearance in id order, so two labelings
/// of one partition compare equal whatever ids their engines allocated.
pub fn canonical(mut labels: Vec<(PointId, i64)>) -> Vec<(PointId, i64)> {
    labels.sort_unstable_by_key(|(id, _)| *id);
    let mut rename = std::collections::HashMap::new();
    for (_, l) in labels.iter_mut() {
        if *l >= 0 {
            let next = rename.len() as i64;
            *l = *rename.entry(*l).or_insert(next);
        }
    }
    labels
}

/// Sets the pipeline up `reps` times, one after another, appends the
/// times to `setups` and returns the last pipeline.
fn set_up<B: SpatialBackend<2>>(
    opts: &Options,
    input: &Input,
    dir: &Path,
    reps: usize,
    setups: &mut Vec<SetupTimes>,
    host: &mut HostProbe,
) -> Result<Pipeline<B>, String> {
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous repetition's pipeline first: its files live in
        // the directory the next set-up recreates.
        drop(last.take());
        let before = host.measure();
        let (pipe, mut times) = setup::<B>(opts, input, dir)?;
        times.host_scale = probe::scale(before, host.measure());
        setups.push(times);
        last = Some(pipe);
    }
    Ok(last.expect("at least one set-up"))
}

fn execute_on<B: SpatialBackend<2>>(opts: &Options, dir: &Path) -> Result<Run, String> {
    let shape = opts.shape;
    let input = prepare::<B>(opts, dir)?;

    let mut host = HostProbe::new();
    let mut setups = Vec::with_capacity(shape.setup_reps);
    let mut pipe = set_up::<B>(
        opts,
        &input,
        dir,
        shape.setup_reps.div_ceil(2),
        &mut setups,
        &mut host,
    )?;

    // The fill's records were admitted during set-up.
    let fill: Vec<Point<2>> = match &pipe.source {
        Source::Hostile(_) => pipe.feed.points().iter().map(|(_, p)| *p).collect(),
        Source::Clean(_) => Vec::new(),
    };
    let mut admission = AdmissionCheck {
        clean: &input.clean,
        seen: fill.len() as u64,
        bad: fill
            .iter()
            .zip(&input.clean)
            .filter(|(a, b)| a != b)
            .count() as u64,
    };

    let (main_phase, width2_phase) = match (opts.stop, opts.trace, opts.workload) {
        // The traced dtg-plain run spends its last quarter at width 2.
        (Stop::After(d), true, Workload::DtgPlain) => (
            Stop::After(d.mul_f64(0.75)),
            Some(Stop::After(d.mul_f64(0.25))),
        ),
        (Stop::Slides(n), true, Workload::DtgPlain) => (Stop::Slides(n), Some(Stop::Slides(n / 4))),
        (stop, _, _) => (stop, None),
    };

    let mut tracer = Tracer::new();
    let mut untraced = Tracer::disabled();
    // Warm-up, untimed: the first slides after a fill or recovery grow
    // the engine's tables and are slower than the steady state.
    for _ in 0..shape.warmup_slides {
        step(&mut pipe, shape.stride, &mut untraced, &mut admission)?;
    }
    let mut attempted = shape.warmup_slides as u64;
    let mut counts = Counts::default();
    let ingest_at_start = match &pipe.source {
        Source::Hostile(h) => *h.ingest.stats(),
        Source::Clean(_) => IngestStats::default(),
    };
    let (calls_at_start, jsonl_at_start) = (pipe.recorder_calls(), pipe.jsonl_bytes());
    let mut latencies = Vec::new();
    let mut probes = Vec::new();
    let mut phases = Vec::new();
    let mut failure = None;
    let cpu_started = procfs::cpu_seconds()?;
    let started = Instant::now();
    let done = |stop: Stop, started: Instant, slides: usize| match stop {
        Stop::After(d) => started.elapsed() >= d,
        Stop::Slides(n) => slides >= n,
    };
    while !done(main_phase, started, latencies.len()) {
        let i = latencies.len();
        // Three traced blocks, then one untraced.
        let traced = opts.trace && (i / shape.trace_block) % 4 != 3;
        if let Some(p) = pipe.telemetry.as_ref().and_then(|t| t.proxy.as_ref()) {
            p.set_timing(traced);
        }
        let t = if traced { &mut tracer } else { &mut untraced };
        let after_probe = (pipe.disc.slide_seq() + 1) % shape.probe_every == shape.probe_phase;
        if after_probe {
            probes.push((i, host.measure()));
        }
        attempted += 1;
        let (out, cpu, wall) = match step(&mut pipe, shape.stride, t, &mut admission) {
            Ok(out) => out,
            Err(e) => {
                failure = Some(e);
                break;
            }
        };
        latencies.push(SlideTime {
            cpu_us: cpu.as_secs_f64() * 1e6,
            wall_us: wall.as_secs_f64() * 1e6,
            traced,
            after_probe,
        });
        let s = &out.stats;
        if traced {
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            phases.push([
                us(s.collect_time),
                us(s.cluster_time),
                us(s.adoption_time),
                us(s.elapsed),
            ]);
        }
        if i < shape.count_slides {
            counts.slides += 1;
            counts.range_searches += s.index.range_searches;
            counts.adoption_searches += s.adoption_searches as u64;
            counts.msbfs_rounds += s.msbfs_rounds as u64;
            counts.ex_cores += s.ex_cores as u64;
            counts.ex_classes += s.ex_classes as u64;
            counts.nodes_visited += s.index.nodes_visited;
            counts.distance_checks += s.index.distance_checks;
            counts.subtrees_pruned += s.index.subtrees_pruned;
            counts.wal_bytes += out.wal_bytes;
            if let Some(b) = out.checkpoint_bytes {
                counts.checkpoints += 1;
                counts.checkpoint_bytes += b;
            }
            if i + 1 == shape.count_slides {
                counts.recorder_calls = pipe.recorder_calls() - calls_at_start;
                counts.jsonl_bytes = pipe.jsonl_bytes() - jsonl_at_start;
                if let Source::Hostile(h) = &pipe.source {
                    let (now, then) = (h.ingest.stats(), ingest_at_start);
                    counts.ingest = IngestStats {
                        pushed: now.pushed - then.pushed,
                        admitted: now.admitted - then.admitted,
                        reordered: now.reordered - then.reordered,
                        late_dropped: now.late_dropped - then.late_dropped,
                        dead_lettered: now.dead_lettered - then.dead_lettered,
                        late_upserts: now.late_upserts - then.late_upserts,
                        deduped: now.deduped - then.deduped,
                        shed: now.shed - then.shed,
                        malformed: now.malformed - then.malformed,
                    };
                    counts.ingest_buffer_max = h.buffer_max as u64;
                }
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu_util = (procfs::cpu_seconds()? - cpu_started) / wall.max(1e-9);
    let peak_rss = procfs::peak_rss_bytes()?;
    if let Some(p) = pipe.telemetry.as_ref().and_then(|t| t.proxy.as_ref()) {
        p.set_timing(false);
    }
    let mut committed = shape.warmup_slides as u64 + latencies.len() as u64;

    let mut width2_apply = Vec::new();
    if let (Some(stop), None) = (width2_phase, &failure) {
        procfs::check_width(2)?;
        pipe.disc.set_threads(2);
        let started = Instant::now();
        while !done(stop, started, width2_apply.len()) {
            attempted += 1;
            match step(&mut pipe, shape.stride, &mut untraced, &mut admission) {
                Ok((out, _, _)) => width2_apply.push(out.stats.elapsed.as_secs_f64() * 1e6),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            committed += 1;
        }
        pipe.disc.set_threads(1);
    }

    // Output checks, untimed.
    let mut check_failures = Vec::new();
    if let Some(e) = failure {
        check_failures.push(e);
    }
    let (eps, tau) = opts.workload.eps_tau();
    let final_points = pipe.feed.points();
    let live = pipe.disc.assignments();
    let (oracle, _) = Dbscan::<2, GridIndex<2>>::run_with(&final_points, eps, tau);
    let oracle: Vec<(PointId, i64)> = oracle.into_iter().collect();
    if let Err(e) = dbscan_equivalent(
        &Labeling {
            points: &final_points,
            assignment: &live,
        },
        &Labeling {
            points: &final_points,
            assignment: &oracle,
        },
        eps,
        tau,
    ) {
        check_failures.push(format!(
            "final window differs from the DBSCAN oracle: {e:?}"
        ));
    }
    if let Source::Hostile(h) = &pipe.source {
        let s = h.ingest.stats();
        if admission.bad > 0 || s.late_dropped > 0 || s.shed > 0 {
            check_failures.push(format!(
                "admitted stream differs from the clean sorted stream: {} of {} records \
                 differ, {} late drops, {} shed",
                admission.bad, admission.seen, s.late_dropped, s.shed
            ));
        }
    }
    if let Some(d) = &pipe.durable {
        match recover_engine::<2, B>(&d.dir, Some(&d.wal_path)) {
            Ok((recovered, _, _)) => {
                if canonical(recovered.assignments()) != canonical(live.clone()) {
                    check_failures
                        .push("recovery from the run's own checkpoint and WAL differs".into());
                }
            }
            Err(e) => check_failures.push(format!("recovery failed: {e}")),
        }
    }
    let fs = procfs::fs_type(dir)?;
    let spans = if opts.trace {
        tracer.drain()
    } else {
        Vec::new()
    };
    // The rest of the set-ups. They recreate the live pipeline's
    // directory, so it goes first.
    drop(pipe);
    if setups.len() < shape.setup_reps {
        set_up::<B>(
            opts,
            &input,
            dir,
            shape.setup_reps - setups.len(),
            &mut setups,
            &mut host,
        )?;
    }
    Ok(Run {
        workload: opts.workload,
        setups,
        latencies,
        probes,
        phases,
        counts,
        spans,
        width2_apply,
        cpu_util,
        peak_rss,
        attempted,
        committed,
        check_failures,
        final_labels: canonical(live),
        final_points,
        notes: vec![format!("state files on {fs}")],
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

impl Run {
    /// Slides that committed and whose outputs passed every check.
    pub fn ok_slides(&self) -> u64 {
        if self.check_failures.is_empty() {
            self.committed
        } else {
            0
        }
    }

    /// Each sampled slide's CPU time in µs, raw and in reference-host µs:
    /// scaled by the mean of the host-speed probes just before and just
    /// after its block of slides. Slides right after a probe are left out.
    pub fn slide_times(&self) -> Result<(Vec<f64>, Vec<f64>), String> {
        if self.probes.is_empty() {
            return Err("the timed loop ran no host-speed probe".into());
        }
        let (mut raw, mut scaled) = (Vec::new(), Vec::new());
        for (i, l) in self.latencies.iter().enumerate() {
            if l.after_probe {
                continue;
            }
            let next = self.probes.partition_point(|&(at, _)| at <= i);
            let after = self.probes[next.min(self.probes.len() - 1)].1;
            let before = self.probes[next.saturating_sub(1)].1;
            raw.push(l.cpu_us);
            scaled.push(l.cpu_us * probe::scale(before, after));
        }
        Ok((raw, scaled))
    }

    /// The end-to-end metrics of an untraced run, on the pipeline
    /// thread's CPU clock in reference-host µs (see `probe.rs`).
    pub fn end_to_end(&self, stride: usize) -> Result<Vec<Metric>, String> {
        let (raw, lat) = self.slide_times()?;
        let (p50, _) = percentile(&lat, 0.5)?;
        let (p99, beyond) = percentile(&lat, 0.99)?;
        let busy_s: f64 = lat.iter().sum::<f64>() / 1e6;
        let setup: Vec<f64> = self.setups.iter().map(|s| s.total * s.host_scale).collect();
        println!(
            "{}: {} sampled slides, p99 rests on {beyond} slides beyond it; {} set-ups",
            self.workload.name(),
            lat.len(),
            self.setups.len()
        );
        let raw_setup: Vec<f64> = self.setups.iter().map(|s| s.total).collect();
        println!(
            "{}: unscaled: throughput_rps {:.1} slide_p50_us {:.1} slide_p99_us {:.1} \
             setup_s {:.5}; host probe p50 {:.1} us (reference {:.0} us)",
            self.workload.name(),
            (raw.len() * stride) as f64 * 1e6 / raw.iter().sum::<f64>(),
            percentile(&raw, 0.5)?.0,
            percentile(&raw, 0.99)?.0,
            median(&raw_setup),
            median(&self.probes.iter().map(|p| p.1).collect::<Vec<_>>()),
            probe::REFERENCE_US,
        );
        Ok(vec![
            metric(
                "throughput_rps",
                (lat.len() * stride) as f64 / busy_s,
                "records/s",
            ),
            metric("slide_p50_us", p50, "us"),
            metric("slide_p99_us", p99, "us"),
            metric("setup_s", median(&setup), "s"),
            metric(
                "peak_rss_mb",
                self.peak_rss.saturating_sub(probe::BYTES) as f64 / (1024.0 * 1024.0),
                "MiB",
            ),
            metric(
                "slide_ok_frac",
                self.ok_slides() as f64 / self.attempted.max(1) as f64,
                "fraction",
            ),
        ])
    }

    /// The per-layer metrics of a traced run.
    pub fn per_layer(&self) -> Result<Vec<Metric>, String> {
        let layers = LayerTimes::of(&self.spans);
        let c = &self.counts;
        let per_slide = |v: u64| v as f64 / c.slides.max(1) as f64;
        let setup =
            |f: fn(&SetupTimes) -> f64| median(&self.setups.iter().map(f).collect::<Vec<_>>());
        let p50 = |name: &str| median(layers.get(name));
        let p99 = |name: &str| -> Result<f64, String> {
            let v = layers.get(name);
            if v.is_empty() {
                return Ok(0.0);
            }
            percentile(v, 0.99)
                .map(|(p, _)| p)
                .map_err(|e| format!("{name}: {e}"))
        };
        let phase = |i: usize| median(&self.phases.iter().map(|p| p[i]).collect::<Vec<_>>());
        let resume = self.workload == Workload::MazeResume;
        let recover = if resume { setup(|s| s.fill) } else { 0.0 };
        let restore = if resume { setup(|s| s.restore) } else { 0.0 };
        let (traced, untraced): (Vec<f64>, Vec<f64>) = {
            let pick = |t: bool| {
                self.latencies
                    .iter()
                    .filter(move |l| l.traced == t && !l.after_probe)
                    .map(|l| l.cpu_us)
            };
            (pick(true).collect(), pick(false).collect())
        };
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let overhead = if untraced.is_empty() {
            0.0
        } else {
            (mean(&traced) / mean(&untraced) - 1.0) * 100.0
        };
        let wall: Vec<f64> = self
            .latencies
            .iter()
            .filter(|l| !l.after_probe)
            .map(|l| l.wall_us)
            .collect();
        let (wall_p50, _) = percentile(&wall, 0.5)?;
        let (wall_p99, _) = percentile(&wall, 0.99)?;
        let w1_apply = phase(3);
        let w2_apply = median(&self.width2_apply);
        let speedup = if w2_apply > 0.0 {
            w1_apply / w2_apply
        } else {
            0.0
        };
        Ok(vec![
            metric("window.parse_s", setup(|s| s.parse), "s"),
            metric("window.batch_us_p50", p50(pipeline::BATCH), "us"),
            metric("window.ingest_us_p50", p50(pipeline::INGEST), "us"),
            metric("window.ingest_us_p99", p99(pipeline::INGEST)?, "us"),
            metric(
                "window.ingest_reordered",
                per_slide(c.ingest.reordered),
                "count",
            ),
            metric(
                "window.ingest_deduped",
                per_slide(c.ingest.deduped),
                "count",
            ),
            metric(
                "window.ingest_malformed",
                per_slide(c.ingest.malformed),
                "count",
            ),
            metric(
                "window.ingest_late",
                per_slide(c.ingest.late_dropped),
                "count",
            ),
            metric(
                "window.ingest_buffer_max",
                c.ingest_buffer_max as f64,
                "count",
            ),
            metric("persist.journal_us_p50", p50(pipeline::JOURNAL), "us"),
            metric("persist.wal_append_us_p50", p50(pipeline::WAL_APPEND), "us"),
            metric(
                "persist.wal_bytes_per_slide",
                per_slide(c.wal_bytes),
                "bytes",
            ),
            metric(
                "persist.ckpt_save_ms_p50",
                p50(pipeline::CHECKPOINT) / 1e3,
                "ms",
            ),
            metric(
                "persist.ckpt_bytes",
                c.checkpoint_bytes as f64 / c.checkpoints.max(1) as f64,
                "bytes",
            ),
            metric("persist.recover_ms", recover * 1e3, "ms"),
            metric(
                "persist.replay_ms",
                (recover - restore).max(0.0) * 1e3,
                "ms",
            ),
            metric(
                "core.fill_ms",
                if resume { 0.0 } else { setup(|s| s.fill) * 1e3 },
                "ms",
            ),
            metric("core.apply_us_p50", p50(pipeline::APPLY), "us"),
            metric("core.apply_us_p99", p99(pipeline::APPLY)?, "us"),
            metric("core.collect_us_p50", phase(0), "us"),
            metric("core.cluster_us_p50", phase(1), "us"),
            metric("core.adoption_us_p50", phase(2), "us"),
            metric("core.labels_us_p50", p50(pipeline::LABELS), "us"),
            metric("core.range_searches", per_slide(c.range_searches), "count"),
            metric(
                "core.adoption_searches",
                per_slide(c.adoption_searches),
                "count",
            ),
            metric("core.msbfs_rounds", per_slide(c.msbfs_rounds), "count"),
            metric(
                "core.ex_class_ratio",
                c.ex_classes as f64 / c.ex_cores.max(1) as f64,
                "ratio",
            ),
            metric("index.nodes_visited", per_slide(c.nodes_visited), "count"),
            metric(
                "index.distance_checks",
                per_slide(c.distance_checks),
                "count",
            ),
            metric(
                "index.subtrees_pruned",
                per_slide(c.subtrees_pruned),
                "count",
            ),
            metric("telemetry.recorder_us_p50", median(&layers.telemetry), "us"),
            metric(
                "telemetry.recorder_calls",
                per_slide(c.recorder_calls),
                "count",
            ),
            metric(
                "telemetry.jsonl_bytes_per_slide",
                per_slide(c.jsonl_bytes),
                "bytes",
            ),
            metric("metrics.health_us_p50", p50(pipeline::HEALTH), "us"),
            metric("par.apply_w2_us_p50", w2_apply, "us"),
            metric("par.speedup_w2", speedup, "ratio"),
            metric("proc.cpu_util", self.cpu_util, "ratio"),
            metric("proc.wall_slide_p50_us", wall_p50, "us"),
            metric("proc.wall_slide_p99_us", wall_p99, "us"),
            metric("trace.slides", traced.len() as f64, "count"),
            metric("trace.coverage_pct", layers.coverage_pct(), "%"),
            metric("trace.overhead_pct", overhead, "%"),
        ])
    }
}

/// Per-layer self times (µs) of the traced slides, from the span tree.
struct LayerTimes {
    by_layer: std::collections::BTreeMap<&'static str, Vec<f64>>,
    /// Per slide: recorder time inside child spans plus `telemetry.publish`.
    telemetry: Vec<f64>,
    slide_ns: u64,
    covered_ns: u64,
}

impl LayerTimes {
    fn of(spans: &[SpanRecord]) -> LayerTimes {
        let mut out = LayerTimes {
            by_layer: Default::default(),
            telemetry: Vec::new(),
            slide_ns: 0,
            covered_ns: 0,
        };
        // Spans are stored in begin order, so a slide's children follow
        // its root.
        for s in spans {
            if s.name == pipeline::SLIDE {
                out.slide_ns += s.dur_ns;
                out.telemetry.push(0.0);
                continue;
            }
            let recorder = s
                .args
                .iter()
                .find(|(k, _)| *k == pipeline::RECORDER_NS)
                .map_or(0, |&(_, v)| v);
            out.covered_ns += s.dur_ns;
            let self_ns = s.dur_ns.saturating_sub(recorder);
            let tel = out
                .telemetry
                .last_mut()
                .expect("child span before its slide");
            *tel += recorder as f64 / 1e3;
            if s.name == pipeline::PUBLISH {
                *tel += self_ns as f64 / 1e3;
            }
            out.by_layer
                .entry(s.name)
                .or_default()
                .push(self_ns as f64 / 1e3);
        }
        out
    }

    fn get(&self, name: &str) -> &[f64] {
        self.by_layer.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Share of traced slide time that layer spans account for.
    fn coverage_pct(&self) -> f64 {
        self.covered_ns as f64 / self.slide_ns.max(1) as f64 * 100.0
    }
}

/// Writes the traced run's spans as a Chrome trace.
pub fn write_trace(run: &Run, path: &Path) -> Result<(), String> {
    io(
        path,
        std::fs::write(path, disc_telemetry::chrome_trace_json(&run.spans)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        window: 1_200,
        stride: 60,
        base: 6_000,
        checkpoint_every: 4,
        resume_tail: 3,
        setup_reps: 2,
        count_slides: 30,
        trace_block: 8,
        warmup_slides: 5,
        probe_every: 4,
        probe_phase: 2,
    };

    fn run(workload: Workload, seed: u64, trace: bool) -> Run {
        let state = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.pipebench/test")
            .join(format!("{}-{seed}-{trace}", workload.name()));
        execute(&Options {
            workload,
            seed,
            stop: Stop::Slides(40),
            trace,
            shape: TINY,
            state,
        })
        .expect("run completes")
    }

    #[test]
    fn every_workload_passes_its_output_checks() {
        for w in Workload::ALL {
            let r = run(w, 3, false);
            assert!(
                r.check_failures.is_empty(),
                "{}: {:?}",
                w.name(),
                r.check_failures
            );
            assert_eq!(r.ok_slides(), r.attempted);
            assert_eq!(r.latencies.len(), 40);
        }
    }

    #[test]
    fn same_seed_repeats_counts_and_labels_and_another_seed_differs() {
        for w in Workload::ALL {
            let (a, b, c) = (run(w, 7, true), run(w, 7, true), run(w, 8, true));
            let mut ca = a.counts;
            let mut cb = b.counts;
            // JSONL lines carry wall-clock fields, so their length varies.
            ca.jsonl_bytes = 0;
            cb.jsonl_bytes = 0;
            assert_eq!(ca, cb, "{}", w.name());
            assert_eq!(a.final_labels, b.final_labels, "{}", w.name());
            assert_eq!(a.final_points, b.final_points, "{}", w.name());
            assert_ne!(a.final_points, c.final_points, "{}", w.name());
        }
    }

    #[test]
    fn traced_runs_report_every_layer_that_runs() {
        let r = run(Workload::DtgDurableHostile, 5, true);
        assert!(r.check_failures.is_empty(), "{:?}", r.check_failures);
        let layers = LayerTimes::of(&r.spans);
        for name in [
            pipeline::INGEST,
            pipeline::JOURNAL,
            pipeline::BATCH,
            pipeline::WAL_APPEND,
            pipeline::APPLY,
            pipeline::LABELS,
            pipeline::HEALTH,
            pipeline::PUBLISH,
            pipeline::CHECKPOINT,
        ] {
            assert!(!layers.get(name).is_empty(), "{name} never ran");
        }
        assert!(r.counts.ingest.deduped + r.counts.ingest.reordered > 0);
        assert_eq!(r.counts.ingest.late_dropped, 0);
        assert!(r.counts.recorder_calls > 0 && r.counts.jsonl_bytes > 0);
        let plain = run(Workload::DtgPlain, 5, true);
        assert!(!plain.width2_apply.is_empty());
    }

    #[test]
    fn reported_metrics_are_the_ones_benchmark_json_declares() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = disc_telemetry::Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(|v| v.as_str()).expect("name and unit");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let reported = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics
                .into_iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str())
                    .expect("workload name")
            })
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name()));

        // A synthetic run long enough for every percentile; the names and
        // units do not depend on the values.
        let mut r = run(Workload::DtgPlain, 1, true);
        r.latencies = (0..2_000)
            .map(|i| SlideTime {
                cpu_us: f64::from(i),
                wall_us: f64::from(i),
                traced: i % 4 != 3,
                after_probe: i % 8 == 0,
            })
            .collect();
        r.probes = (0..2_000).step_by(8).map(|i| (i, 900.0)).collect();
        r.spans.clear();
        assert_eq!(reported(r.end_to_end(60).unwrap()), declared("end_to_end"));
        assert_eq!(reported(r.per_layer().unwrap()), declared("per_layer"));
    }

    #[test]
    fn admission_check_catches_a_corrupted_record() {
        let clean = [Point::new([0.0, 0.0]), Point::new([1.0, 1.0])];
        let rec = |t: f64, p: Point<2>| TimedRecord {
            time: t,
            record: disc_window::Record::unlabelled(p),
        };
        assert_eq!(
            check_admitted(&clean, 0, &[rec(1.0, clean[0]), rec(2.0, clean[1])]),
            0
        );
        // Cycles wrap onto the base stream.
        assert_eq!(check_admitted(&clean, 2, &[rec(3.0, clean[0])]), 0);
        assert_eq!(check_admitted(&clean, 0, &[rec(1.0, clean[1])]), 1);
        assert_eq!(check_admitted(&clean, 0, &[rec(2.0, clean[0])]), 1);
    }

    #[test]
    fn canonical_labels_ignore_cluster_ids() {
        let id = PointId;
        let a = vec![(id(2), 7), (id(1), 7), (id(3), -1), (id(4), 3)];
        let b = vec![(id(1), 0), (id(2), 0), (id(3), -1), (id(4), 9)];
        assert_eq!(canonical(a), canonical(b.clone()));
        assert_ne!(
            canonical(vec![(id(1), 0), (id(2), 1), (id(3), -1), (id(4), 9)]),
            canonical(b)
        );
    }
}
