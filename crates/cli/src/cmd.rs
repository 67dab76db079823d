//! CLI command implementations.

use crate::pipeline::{build_engine, drive, Durable, Origin, Run};
use crate::Opts;
use disc_core::{kdistance, DiscConfig, IndexBackend};
use disc_telemetry::{JsonlRecord, ProvenanceEvent, ProvenanceKind, Registry};
use disc_window::{csv, datasets, Record, SlidingWindow};
use std::path::Path;

/// A command that is generic over the point dimension.
pub trait DimCommand {
    /// Runs the command for one concrete dimension.
    fn run<const D: usize>(&self, opts: &Opts) -> Result<(), String>;
}

/// Resolves `--threads` to the worker count the engine will actually run
/// (0 = auto = the host's available parallelism), warning once — unless
/// `--quiet` — when the request oversubscribes the machine. Oversubscribing
/// is allowed (it is how the exactness tests exercise real interleavings on
/// small hosts), it just should not happen silently.
pub(crate) fn effective_workers(opts: &Opts) -> usize {
    let requested = opts.threads.unwrap_or_else(DiscConfig::default_threads);
    let avail = disc_par::available_parallelism();
    let effective = if requested == 0 { avail } else { requested };
    if effective > avail && !opts.quiet {
        eprintln!(
            "note: --threads {effective} oversubscribes the host \
             ({avail} available); output is identical, throughput may suffer"
        );
    }
    effective
}

pub(crate) fn load<const D: usize>(opts: &Opts) -> Result<Vec<Record<D>>, String> {
    let input = &opts.input;
    // `--timed` outside the admission pipeline (e.g. `disc estimate`)
    // still parses the timed layout, strictly, and strips the times.
    let records = if opts.timed {
        csv::read_timed_records::<D>(input)
            .map(|timed| timed.into_iter().map(|tr| tr.record).collect())
            .map_err(|e| format!("{}: {e}", input.display()))?
    } else {
        csv::read_records::<D>(input).map_err(|e| format!("{}: {e}", input.display()))?
    };
    if records.is_empty() {
        return Err("input stream is empty".to_string());
    }
    Ok(records)
}

/// `disc cluster` — stream a CSV through a sliding window, durably under
/// `--checkpoint-dir`.
pub struct ClusterCmd;

impl DimCommand for ClusterCmd {
    fn run<const D: usize>(&self, opts: &Opts) -> Result<(), String> {
        let index = opts.index.as_deref().unwrap_or("rtree");
        let backend = IndexBackend::parse(index)
            .ok_or_else(|| format!("unknown --index {index:?} (rtree or grid)"))?;
        let required = "the flag table requires --eps, --tau, --window and --stride";
        let (eps, tau) = (opts.eps.expect(required), opts.tau.expect(required));
        let (window, stride) = (opts.window.expect(required), opts.stride.expect(required));
        if stride == 0 || stride > window {
            return Err(format!(
                "--stride {stride} must be in 1..=--window {window}"
            ));
        }
        let workers = effective_workers(opts);
        let fresh = Origin::Fresh(eps, tau, window, stride);
        let (engine, _) = build_engine::<D>(backend, fresh, opts, workers)?;
        let (records, ingest) = crate::ingest::load_stream::<D>(opts, window, stride, false)?;
        if window > records.len() {
            return Err(format!(
                "window {window} exceeds the stream ({} points)",
                records.len()
            ));
        }
        let run = Run {
            engine,
            window: SlidingWindow::new(records, window, stride),
            durable: Durable::from_opts(opts, false)?,
            ingest,
            recovery: None,
            eps,
            tau,
            workers,
        };
        drive(opts, run)
    }
}

/// `disc explain` — reconstruct the causal narrative of a run (or one
/// slide of it) from a `--provenance-out` JSONL stream.
pub fn explain(opts: &Opts) -> Result<(), String> {
    let path = &opts.trace;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut events: Vec<ProvenanceEvent> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let ev = ProvenanceEvent::from_jsonl(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        events.push(ev);
    }
    // A resume with no slide left to apply writes an empty stream: there is
    // nothing to narrate, but the file is valid.
    if events.is_empty() {
        if let Some(slide) = opts.slide {
            return Err(format!(
                "slide {slide} not in {}: the file covers no slides",
                path.display()
            ));
        }
        return say!("{}: 0 provenance events", path.display());
    }
    match opts.slide {
        Some(slide) => {
            let picked: Vec<&ProvenanceEvent> =
                events.iter().filter(|e| e.slide == slide).collect();
            if picked.is_empty() {
                let last = events.iter().map(|e| e.slide).max().unwrap_or(0);
                return Err(format!(
                    "slide {slide} not in {} (events cover slides 1..={last})",
                    path.display()
                ));
            }
            say!("slide {slide}: {} structural events", picked.len())?;
            for ev in picked {
                say!("  {}", narrate(&ev.kind))?;
            }
        }
        None => {
            let last = events.iter().map(|e| e.slide).max().unwrap();
            for slide in 1..=last {
                let n = events.iter().filter(|e| e.slide == slide).count();
                if n == 0 {
                    continue;
                }
                let c = |pred: &dyn Fn(&ProvenanceKind) -> bool| {
                    events
                        .iter()
                        .filter(|e| e.slide == slide && pred(&e.kind))
                        .count()
                };
                say!(
                    "slide {slide}: {n} events ({} ex-cores, {} neo-cores, \
                     {} splits, {} merges, {} emerged, {} died, {} adoptions)",
                    c(&|k| matches!(k, ProvenanceKind::ExCoreDetected { .. })),
                    c(&|k| matches!(k, ProvenanceKind::NeoCoreDetected { .. })),
                    c(&|k| matches!(k, ProvenanceKind::ClusterSplit { .. })),
                    c(&|k| matches!(k, ProvenanceKind::ClusterMerge { .. })),
                    c(&|k| matches!(k, ProvenanceKind::ClusterEmerged { .. })),
                    c(&|k| matches!(k, ProvenanceKind::ClusterDied { .. })),
                    c(&|k| matches!(k, ProvenanceKind::Adoption { .. })),
                )?;
            }
            say!("(re-run with --slide N for the per-event narrative)")?;
        }
    }
    Ok(())
}

/// One narrative line per event, in the paper's vocabulary.
fn narrate(kind: &ProvenanceKind) -> String {
    match *kind {
        ProvenanceKind::ExCoreDetected { id } => {
            format!("point {id} lost core status (ex-core, Def. 1)")
        }
        ProvenanceKind::NeoCoreDetected { id } => {
            format!("point {id} gained core status (neo-core, Def. 2)")
        }
        ProvenanceKind::RetroClassFormed { rep, size } => format!(
            "retro-reachable class of {size} ex-core(s) formed around point {rep} \
             (one connectivity check covers them all, Thm. 1)"
        ),
        ProvenanceKind::MsBfsStarted { rep, starters } => {
            format!("MS-BFS launched over class of point {rep} with {starters} starter(s)")
        }
        ProvenanceKind::MsBfsTerminated {
            rep,
            reason,
            rounds,
        } => format!(
            "MS-BFS over class of point {rep} stopped after {rounds} round(s): {}",
            match reason {
                disc_telemetry::MsBfsReason::AllMet => "all starters met — still one cluster",
                disc_telemetry::MsBfsReason::Exhausted =>
                    "a traversal exhausted its component — the cluster is disconnected",
            }
        ),
        ProvenanceKind::ClusterSplit { old, parts, rep } => format!(
            "cluster {old} split into {parts} parts; the component of point {rep} \
             kept the label"
        ),
        ProvenanceKind::ClusterMerge {
            winner,
            merged,
            rep,
        } => format!(
            "{merged} clusters merged into cluster {winner}, bonded by the \
             neo-core class of point {rep}"
        ),
        ProvenanceKind::ClusterEmerged { cluster, rep, size } => {
            format!("cluster {cluster} emerged from {size} neo-core(s) around point {rep}")
        }
        ProvenanceKind::ClusterDied { rep, size } => format!(
            "the region of point {rep} dissipated ({size} ex-core(s), no bonding \
             core survived)"
        ),
        ProvenanceKind::Adoption { border, core } => {
            format!("border point {border} was adopted by core {core}")
        }
    }
}

/// One `--stats-every` summary line, computed from the cumulative registry.
///
/// The two ratios are the paper's headline efficiency arguments: Theorem 1
/// says CLUSTER runs one connectivity check per retro-reachable *class*
/// rather than per ex-core (`ex_classes / ex_cores`, lower is better), and
/// epoch-based probing (Alg. 4) skips index subtrees whole (`pruned /
/// (visited + pruned)`, higher is better).
pub(crate) fn stats_summary(
    registry: &Registry,
    slide: u64,
    workers: usize,
    health: Option<String>,
) {
    let lat = registry
        .histogram_snapshot("disc_slide_seconds")
        .unwrap_or_default();
    let ex_cores = registry.counter_value("disc_ex_cores_total");
    let ex_classes = registry.counter_value("disc_ex_classes_total");
    let pruned = registry.counter_value("disc_index_subtrees_pruned_total");
    let visited = registry.counter_value("disc_index_nodes_visited_total");
    // Root component gauges (paths without a '/') partition the accounted
    // state, so their sum is the total without double-counting subtrees.
    let accounted: u64 = registry
        .labeled_gauge_samples("disc_mem_bytes")
        .iter()
        .filter(|((_, component), _)| !component.contains('/'))
        .map(|(_, bytes)| *bytes as u64)
        .sum();
    let mem = if accounted == 0 {
        "n/a".to_string()
    } else {
        disc_telemetry::fmt_bytes(accounted)
    };
    let rss = match registry.gauge_value("disc_rss_bytes") {
        Some(b) => disc_telemetry::fmt_bytes(b as u64),
        None => "n/a".to_string(),
    };
    let health = match health {
        Some(fragment) => format!(" | {fragment}"),
        None => String::new(),
    };
    eprintln!(
        "stats @ slide {slide}: workers {workers} | \
         latency p50 {:?} p99 {:?} max {:?} | \
         range searches {} (epoch probes {}) | \
         theorem-1 savings {ex_classes}/{ex_cores} = {} | epoch-prune ratio {} | \
         mem {mem} (rss {rss}){health}",
        std::time::Duration::from_nanos(lat.p50),
        std::time::Duration::from_nanos(lat.p99),
        std::time::Duration::from_nanos(lat.max),
        registry.counter_value("disc_index_range_searches_total"),
        registry.counter_value("disc_index_epoch_probes_total"),
        ratio(ex_classes, ex_cores),
        ratio(pruned, visited + pruned),
    );
}

/// `num / den` to three decimals, or `n/a` before any work has happened.
fn ratio(num: u64, den: u64) -> String {
    if den == 0 {
        "n/a".to_string()
    } else {
        format!("{:.3}", num as f64 / den as f64)
    }
}

/// `disc estimate` — suggest (ε, τ) via the K-distance method.
pub struct EstimateCmd;

impl DimCommand for EstimateCmd {
    fn run<const D: usize>(&self, opts: &Opts) -> Result<(), String> {
        let records = load::<D>(opts)?;
        let est = kdistance::estimate(&records, opts.sample);
        say!(
            "suggested parameters (K-distance, k = {}): --eps {:.6} --tau {}",
            est.k,
            est.eps,
            est.tau
        )?;
        Ok(())
    }
}

/// `disc generate` — write a synthetic stream to CSV. With `--timed` the
/// stream carries unit-spaced event times; `--disorder`/`--dup-prob`/
/// `--corrupt-prob` run it through the seeded chaos transformer and write
/// a hostile timed stream (the input format of `disc run --timed`).
pub fn generate(opts: &Opts) -> Result<(), String> {
    let dataset = &opts.dataset;
    let out = opts.out.as_ref().expect("the flag table requires --out");
    let n = opts.n;
    let seed = opts.seed;
    match dataset.as_str() {
        "maze" => write(opts, out, datasets::maze(n, 60, seed)),
        "dtg" => write(opts, out, datasets::dtg_like(n, seed)),
        "geolife" => write(opts, out, datasets::geolife_like(n, seed)),
        "covid" => write(opts, out, datasets::covid_like(n, seed)),
        "iris" => write(opts, out, datasets::iris_like(n, seed)),
        "netflow" => write(opts, out, datasets::netflow_like(n, seed)),
        "blobs" => write(opts, out, datasets::gaussian_blobs::<2>(n, 4, 0.5, seed)),
        "split_merge" => write(opts, out, datasets::split_merge(n, seed)),
        other => Err(format!("unknown --dataset {other:?}")),
    }
}

fn write<const D: usize>(opts: &Opts, out: &Path, records: Vec<Record<D>>) -> Result<(), String> {
    let hostile = opts.disorder.is_some() || opts.dup_prob > 0.0 || opts.corrupt_prob > 0.0;
    if hostile {
        let cfg = disc_window::DisorderConfig {
            seed: opts.seed,
            skew: opts.disorder.unwrap_or(0.0),
            dup_prob: opts.dup_prob,
            corrupt_prob: opts.corrupt_prob,
        };
        if !(cfg.skew >= 0.0 && cfg.skew.is_finite()) {
            return Err(format!(
                "--disorder {}: skew must be finite and >= 0",
                cfg.skew
            ));
        }
        if !(0.0..=1.0).contains(&cfg.dup_prob) {
            return Err(format!("--dup-prob {}: must be in [0, 1]", cfg.dup_prob));
        }
        if !(0.0..=1.0).contains(&cfg.corrupt_prob) {
            return Err(format!(
                "--corrupt-prob {}: must be in [0, 1]",
                cfg.corrupt_prob
            ));
        }
        let timed = disc_window::disorder::stamp_unit(records);
        let lines = disc_window::disorder::disorder(&timed, &cfg);
        csv::write_hostile_records(out, &lines).map_err(|e| format!("{}: {e}", out.display()))?;
        say!(
            "wrote {} hostile timed lines ({} clean records) to {}",
            lines.len(),
            timed.len(),
            out.display()
        )?;
    } else if opts.timed {
        let timed = disc_window::disorder::stamp_unit(records);
        csv::write_timed_records(out, &timed).map_err(|e| format!("{}: {e}", out.display()))?;
        say!("wrote {} timed records to {}", timed.len(), out.display())?;
    } else {
        csv::write_records(out, &records).map_err(|e| format!("{}: {e}", out.display()))?;
        say!("wrote {} records to {}", records.len(), out.display())?;
    }
    Ok(())
}
