//! Extension experiment — spatial-backend ablation.
//!
//! DISC's COLLECT/CLUSTER phases only see the [`SpatialBackend`] trait, so
//! the R-tree and the uniform grid are interchangeable. This suite drives
//! both backends over the same DTG workload across window and stride sizes
//! and compares the index work (range searches, node/cell visits) and the
//! per-phase slide latency. Besides the usual CSV, it writes
//! `out/backend_ablation.json` with the per-phase duration breakdown so
//! downstream tooling can plot collect/cluster/adoption shares.
//!
//! [`SpatialBackend`]: disc_index::SpatialBackend

use crate::report::{fmt_duration, Table};
use crate::runner::{records_needed, slides_for, tile};
use crate::suites::SEED;
use crate::Scale;
use disc_core::{Disc, DiscConfig, SlideStats};
use disc_geom::PointId;
use disc_index::{GridIndex, SpatialBackend};
use disc_telemetry::{HistSnapshot, LogHistogram, MemoryFootprint};
use disc_window::{datasets, Record, SlidingWindow};
use std::io::Write;
use std::time::Duration;

/// Averaged per-slide measurements for one backend on one configuration.
struct Run {
    backend: &'static str,
    window: usize,
    stride: usize,
    /// Worker threads the engine ran with (1 = sequential).
    threads: usize,
    /// Mean CPU utilization over the measurement: process CPU time /
    /// wall time, so 1.0 = one core fully busy and a perfectly scaling
    /// width-4 run reads ~4.0. 0.0 when the platform cannot report it
    /// (no procfs).
    cpu_util: f64,
    /// Total measured slides — `REPS` fresh passes merged, so this is the
    /// sample count behind the percentiles, not the stream length.
    slides: u32,
    avg_slide: Duration,
    /// Exact worst slide, accumulated directly — the headline summary must
    /// not inherit any histogram bucketing, however small.
    max_slide: Duration,
    /// Per-slide latency distribution (ns) — tails, not just the mean.
    latency: HistSnapshot,
    avg_collect: Duration,
    avg_cluster: Duration,
    avg_adoption: Duration,
    searches_per_slide: f64,
    visits_per_slide: f64,
    /// Stride-eviction cost (ns per evicted point): tearing the oldest
    /// stride out of a `window`-sized index, measured in isolation so the
    /// number reflects the backend's bulk-remove path alone.
    evict_ns_per_point: f64,
    /// Largest accounted engine footprint observed at any slide boundary
    /// across the repetitions (the `MemoryFootprint` estimate, bytes).
    peak_bytes: u64,
    /// ARI of the engine's final window against a from-scratch DBSCAN
    /// oracle over the same points — an advisory quality column (the
    /// engine is exact, so anything below 1.0 is a finding, but the gate
    /// never judges it).
    quality_ari: f64,
    /// Noise fraction of the final window. Advisory context for the ARI:
    /// a stream that is mostly noise makes agreement cheap.
    noise_frac: f64,
}

impl Run {
    /// Peak footprint normalised per window point — the paper-style memory
    /// curve's y-axis, comparable across window sizes.
    fn bytes_per_point(&self) -> f64 {
        self.peak_bytes as f64 / self.window.max(1) as f64
    }
}

/// Process CPU time (user + system, all threads) at nanosecond resolution;
/// `None` off 64-bit Linux (the suite then reports utilization 0.0 instead of
/// guessing). procfs's 10 ms ticks are too coarse here: a fast
/// configuration's run can be shorter than one tick.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn proc_cpu_time() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is one the kernel always
    // supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn proc_cpu_time() -> Option<Duration> {
    None
}

/// Repetitions per configuration: tail percentiles from one 5-slide pass
/// are noise, so each row merges the latency distributions of this many
/// fresh passes over the same stream.
const REPS: u32 = 3;

/// Measures the stride-eviction cost in isolation: fill the index with the
/// first `window` points (the bulk path, as the engine would), then time
/// one `bulk_remove` of the oldest stride. Best of `REPS` builds, in ns per
/// point actually removed — the slide loop cannot separate this from
/// COLLECT, so it gets its own clock.
fn evict_cost_ns<const D: usize, B: SpatialBackend<D>>(
    recs: &[Record<D>],
    eps: f64,
    window: usize,
    stride: usize,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let items: Vec<(PointId, disc_geom::Point<D>)> = recs[..window]
            .iter()
            .enumerate()
            .map(|(i, r)| (PointId(i as u64), r.point))
            .collect();
        let evict = items[..stride].to_vec();
        let mut idx = B::from_batch(eps, items);
        let started = std::time::Instant::now();
        let removed = idx.bulk_remove(&evict);
        let ns = started.elapsed().as_nanos() as f64 / removed.max(1) as f64;
        best = best.min(ns);
    }
    best
}

fn drive<const D: usize, B: SpatialBackend<D>>(
    recs: &[Record<D>],
    eps: f64,
    tau: usize,
    window: usize,
    stride: usize,
    threads: usize,
    max_slides: u32,
) -> Run {
    let cpu_before = proc_cpu_time();
    let wall = std::time::Instant::now();

    let mut slides = 0u32;
    let mut total = Duration::ZERO;
    let mut max_slide = Duration::ZERO;
    let mut hist = LogHistogram::new();
    let mut collect = Duration::ZERO;
    let mut cluster = Duration::ZERO;
    let mut adoption = Duration::ZERO;
    let mut searches = 0u64;
    let mut visits = 0u64;
    let mut peak_bytes = 0u64;
    let mut last_window: Option<Vec<(PointId, disc_geom::Point<D>)>> = None;
    let mut last_assignments: Option<Vec<(PointId, i64)>> = None;
    for _ in 0..REPS {
        let mut w = SlidingWindow::new(recs.to_vec(), window, stride);
        let mut disc: Disc<D, B> =
            Disc::with_index(DiscConfig::new(eps, tau).with_threads(threads));
        disc.apply(&w.fill());
        peak_bytes = peak_bytes.max(disc.mem_bytes());
        let mut rep_slides = 0u32;
        while rep_slides < max_slides {
            let Some(batch) = w.advance() else { break };
            let s: SlideStats = disc.apply(&batch);
            total += s.elapsed;
            max_slide = max_slide.max(s.elapsed);
            hist.record(s.elapsed.as_nanos() as u64);
            collect += s.collect_time;
            cluster += s.cluster_time;
            adoption += s.adoption_time;
            searches += s.index.range_searches;
            visits += s.index.nodes_visited + s.index.bulk_nodes_visited;
            // Outside the timed section: accounting must not cost latency.
            peak_bytes = peak_bytes.max(disc.mem_bytes());
            rep_slides += 1;
        }
        slides += rep_slides;
        last_window = Some(w.current().collect());
        last_assignments = Some(disc.assignments());
    }
    let wall = wall.elapsed();
    let cpu_util = match (cpu_before, proc_cpu_time()) {
        (Some(a), Some(b)) if wall > Duration::ZERO => {
            b.saturating_sub(a).as_secs_f64() / wall.as_secs_f64()
        }
        _ => 0.0,
    };
    // Advisory quality: score the last rep's final window against a
    // from-scratch DBSCAN oracle (outside the timed section).
    let (quality_ari, noise_frac) = match (&last_window, &last_assignments) {
        (Some(window), Some(assignments)) if !window.is_empty() => {
            let (oracle, _) = disc_baselines::Dbscan::<D>::run(window, eps, tau);
            let engine_of: disc_geom::FxHashMap<PointId, i64> =
                assignments.iter().copied().collect();
            let (mut truth, mut pred) = (Vec::new(), Vec::new());
            for (id, _) in window {
                truth.push(oracle.get(id).copied().unwrap_or(-1));
                pred.push(engine_of.get(id).copied().unwrap_or(-1));
            }
            (
                disc_metrics::ari(&truth, &pred),
                disc_metrics::noise_fraction(assignments),
            )
        }
        _ => (0.0, 0.0),
    };
    let n = slides.max(1);
    Run {
        backend: B::NAME,
        window,
        stride,
        threads,
        cpu_util,
        slides,
        avg_slide: total / n,
        max_slide,
        latency: hist.snapshot(),
        avg_collect: collect / n,
        avg_cluster: cluster / n,
        avg_adoption: adoption / n,
        searches_per_slide: searches as f64 / n as f64,
        visits_per_slide: visits as f64 / n as f64,
        evict_ns_per_point: 0.0,
        peak_bytes,
        quality_ari,
        noise_frac,
    }
}

/// The worker widths every configuration is measured at. Width 1 is the
/// sequential engine (the regression gate's anchor); the wide rows show
/// what the parallel slide engine buys on this host.
const THREAD_WIDTHS: [usize; 3] = [1, 2, 4];

/// Drives both backends over the five window/stride configurations at
/// each worker width. The eviction microbenchmark is width-independent
/// (bulk_remove is sequential on every backend), so it runs once per
/// (backend, config) and is stamped onto each width's row.
fn measure_configs(scale: Scale) -> Vec<Run> {
    let prof = datasets::DTG_PROFILE;
    let base = scale.apply(prof.window);
    let mut runs: Vec<Run> = Vec::new();
    for (wf, sf) in [(0.5, 0.05), (0.5, 0.2), (1.0, 0.05), (1.0, 0.2), (1.0, 0.5)] {
        let target = ((base as f64) * wf) as usize;
        let (window, stride) = tile(target.max(64), ((target as f64 * sf) as usize).max(1));
        let slides = slides_for(stride).min(40);
        let n = records_needed(window, stride, slides);
        let recs = datasets::dtg_like(n, SEED);
        let evict = [
            evict_cost_ns::<2, disc_index::RTree<2>>(&recs, prof.eps, window, stride),
            evict_cost_ns::<2, GridIndex<2>>(&recs, prof.eps, window, stride),
        ];
        for threads in THREAD_WIDTHS {
            runs.push(Run {
                evict_ns_per_point: evict[0],
                ..drive::<2, disc_index::RTree<2>>(
                    &recs, prof.eps, prof.tau, window, stride, threads, slides,
                )
            });
            runs.push(Run {
                evict_ns_per_point: evict[1],
                ..drive::<2, GridIndex<2>>(
                    &recs, prof.eps, prof.tau, window, stride, threads, slides,
                )
            });
        }
    }
    runs
}

/// Runs the backend ablation across window/stride sizes.
pub fn run(scale: Scale) -> Table {
    let mut t = Table::new(
        "Extension: R-tree vs grid backend (DTG)",
        &[
            "backend", "window", "stride", "thr", "cpu", "slide", "p50", "p99", "collect",
            "cluster", "adoption", "searches", "visits", "evict/pt", "peak mem", "B/pt",
        ],
    );
    let runs = measure_configs(scale);

    for r in &runs {
        t.row(vec![
            r.backend.to_string(),
            r.window.to_string(),
            r.stride.to_string(),
            r.threads.to_string(),
            format!("{:.2}", r.cpu_util),
            fmt_duration(r.avg_slide),
            fmt_duration(Duration::from_nanos(r.latency.p50)),
            fmt_duration(Duration::from_nanos(r.latency.p99)),
            fmt_duration(r.avg_collect),
            fmt_duration(r.avg_cluster),
            fmt_duration(r.avg_adoption),
            format!("{:.0}", r.searches_per_slide),
            format!("{:.0}", r.visits_per_slide),
            format!("{:.0}ns", r.evict_ns_per_point),
            crate::report::fmt_bytes(r.peak_bytes as usize),
            format!("{:.0}", r.bytes_per_point()),
        ]);
    }
    t.print();
    let _ = t.write_csv("backend_ablation");
    let _ = write_json(&runs);
    t
}

/// Hand-rolled JSON report with the per-phase duration breakdown, the
/// latency tail, memory and advisory quality (no serde in the workspace).
/// `max_slide_us` comes from the run's direct accumulator, never the
/// latency histogram, so the reported worst case is exact.
fn write_json(runs: &[Run]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("backend_ablation.json");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "[")?;
    for (i, r) in runs.iter().enumerate() {
        let sep = if i + 1 == runs.len() { "" } else { "," };
        writeln!(
            f,
            "  {{\"backend\": \"{}\", \"window\": {}, \"stride\": {}, \"threads\": {}, \
             \"cpu_util\": {:.2}, \"slides\": {}, \
             \"avg_slide_us\": {:.3}, \"avg_collect_us\": {:.3}, \"avg_cluster_us\": {:.3}, \
             \"avg_adoption_us\": {:.3}, \"searches_per_slide\": {:.1}, \
             \"visits_per_slide\": {:.1}, \"evict_ns_per_point\": {:.1}, \
             \"p50_slide_us\": {:.3}, \"p99_slide_us\": {:.3}, \"max_slide_us\": {:.3}, \
             \"peak_bytes\": {}, \"bytes_per_point\": {:.1}, \"quality_ari\": {:.4}, \
             \"noise_frac\": {:.4}}}{}",
            r.backend,
            r.window,
            r.stride,
            r.threads,
            r.cpu_util,
            r.slides,
            r.avg_slide.as_secs_f64() * 1e6,
            r.avg_collect.as_secs_f64() * 1e6,
            r.avg_cluster.as_secs_f64() * 1e6,
            r.avg_adoption.as_secs_f64() * 1e6,
            r.searches_per_slide,
            r.visits_per_slide,
            r.evict_ns_per_point,
            r.latency.p50 as f64 / 1e3,
            r.latency.p99 as f64 / 1e3,
            r.max_slide.as_secs_f64() * 1e6,
            r.peak_bytes,
            r.bytes_per_point(),
            r.quality_ari,
            r.noise_frac,
            sep,
        )?;
    }
    writeln!(f, "]")?;
    f.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dev-loop profiling of the acceptance row (window=8000, stride=1600);
    /// run with `--ignored --nocapture` in release to iterate on eviction
    /// cost without re-measuring the full 30-row suite.
    #[test]
    #[ignore]
    fn evict_profile_acceptance_row() {
        let recs = datasets::dtg_like(8000, SEED);
        for _ in 0..3 {
            let r = evict_cost_ns::<2, disc_index::RTree<2>>(&recs, 0.45, 8000, 1600);
            let g = evict_cost_ns::<2, GridIndex<2>>(&recs, 0.45, 8000, 1600);
            eprintln!("rtree={r:.1}ns grid={g:.1}ns");
        }
    }

    #[test]
    fn small_scale_run_measures_all_backends() {
        let t = run(Scale(0.1));
        assert_eq!(t.rows.len(), 30, "5 configs x 2 backends x 3 widths");
        let backends: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(backends.contains(&"rtree") && backends.contains(&"grid"));
        let widths: Vec<&str> = t.rows.iter().map(|r| r[3].as_str()).collect();
        assert!(widths.contains(&"1") && widths.contains(&"2") && widths.contains(&"4"));
        let json = std::fs::read_to_string("out/backend_ablation.json").unwrap();
        let rows = disc_telemetry::Json::parse(&json).unwrap();
        let rows = rows.as_array().unwrap();
        assert_eq!(rows.len(), 30);
        for row in rows {
            let num = |key: &str| {
                row.get(key)
                    .and_then(disc_telemetry::Json::as_f64)
                    .unwrap_or_else(|| panic!("missing {key}"))
            };
            for key in [
                "avg_collect_us",
                "threads",
                "searches_per_slide",
                "cpu_util",
                "evict_ns_per_point",
                "quality_ari",
                "noise_frac",
            ] {
                num(key);
            }
            // The max is the exact accumulator, never below the
            // histogram's conservative p99.
            assert!(num("p50_slide_us") > 0.0);
            assert!(num("p50_slide_us") <= num("p99_slide_us") + 1e-6);
            assert!(num("p99_slide_us") <= num("max_slide_us") + 1e-6, "{row:?}");
            // Every backend accounts its memory, so no row may report zero.
            assert!(num("peak_bytes") > 0.0);
            assert!((num("bytes_per_point") - num("peak_bytes") / num("window")).abs() < 1.0);
        }
    }

    /// On Linux the CPU clock is available and a busy measurement reads a
    /// plausible utilization; elsewhere the suite reports exactly 0.0.
    #[test]
    fn cpu_utilization_is_measured_or_cleanly_absent() {
        let recs = datasets::dtg_like(1500, SEED);
        let r = drive::<2, GridIndex<2>>(&recs, 0.5, 4, 800, 200, 1, 3);
        if proc_cpu_time().is_some() {
            // USER_HZ ticks are 10ms; a short run can round to 0, but it
            // can never exceed the machine (with slack for tick rounding).
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            assert!(
                r.cpu_util >= 0.0 && r.cpu_util <= cores as f64 + 1.0,
                "implausible utilization {}",
                r.cpu_util
            );
        } else {
            assert_eq!(r.cpu_util, 0.0);
        }
    }
}
