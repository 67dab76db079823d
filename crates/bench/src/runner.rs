//! Shared measurement machinery.

use disc_baselines::WindowClusterer;
use disc_telemetry::{HistSnapshot, LogHistogram};
use disc_window::{Record, SlidingWindow};
use std::time::{Duration, Instant};

/// One method's per-slide measurement over a windowed stream.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Method name.
    pub name: String,
    /// Mean wall time per slide.
    pub avg_slide: Duration,
    /// Mean wall time per *point* of the slide (`avg_slide / stride`).
    pub per_point: Duration,
    /// Per-slide wall-time distribution (nanoseconds): p50/p90/p99/max.
    /// Means hide tail stalls — a slide that triggers a big merge costs
    /// orders of magnitude more than the median — so reports carry both.
    pub latency: HistSnapshot,
    /// Exact worst slide, accumulated directly from the timer rather than
    /// read back out of the histogram.
    pub max_slide: Duration,
    /// Mean ε-range searches per slide.
    pub searches_per_slide: f64,
    /// Resident state estimate after the last slide.
    pub memory: usize,
    /// Largest resident state estimate observed at any slide boundary
    /// (sampled after the fill and after every measured slide). The paper's
    /// memory claim is about growth *during* the run, so the peak — not the
    /// final value — is what the memory curves report.
    pub peak_memory: usize,
    /// Slides measured.
    pub slides: u32,
    /// Final assignments (for quality measurements).
    pub assignments: Vec<(disc_geom::PointId, i64)>,
}

impl Measurement {
    /// Median per-slide wall time.
    pub fn p50_slide(&self) -> Duration {
        Duration::from_nanos(self.latency.p50)
    }

    /// 99th-percentile per-slide wall time.
    pub fn p99_slide(&self) -> Duration {
        Duration::from_nanos(self.latency.p99)
    }
}

/// One measured pass: fill (unmeasured), then up to `max_slides` timed
/// slides recorded into `hist`.
struct Pass {
    total: Duration,
    max_slide: Duration,
    slides: u32,
    searches: u64,
    peak_memory: usize,
}

fn drive_pass<const D: usize, M: WindowClusterer<D>>(
    method: &mut M,
    w: &mut SlidingWindow<D>,
    max_slides: u32,
    hist: &mut LogHistogram,
) -> Pass {
    method.apply(&w.fill());
    let searches_before = method.range_searches();
    let mut total = Duration::ZERO;
    let mut max_slide = Duration::ZERO;
    let mut slides = 0u32;
    // Sampled outside the timed region: byte accounting is capacity
    // arithmetic, but it must not leak into the latency histogram.
    let mut peak_memory = method.memory_bytes();
    while slides < max_slides {
        let Some(batch) = w.advance() else { break };
        let t = Instant::now();
        method.apply(&batch);
        let dt = t.elapsed();
        total += dt;
        max_slide = max_slide.max(dt);
        hist.record(dt.as_nanos() as u64);
        peak_memory = peak_memory.max(method.memory_bytes());
        slides += 1;
    }
    Pass {
        total,
        max_slide,
        slides,
        searches: method.range_searches() - searches_before,
        peak_memory,
    }
}

fn finish<const D: usize, M: WindowClusterer<D>>(
    method: &M,
    pass: &Pass,
    hist: &LogHistogram,
    stride: usize,
) -> Measurement {
    let avg = if pass.slides > 0 {
        pass.total / pass.slides
    } else {
        Duration::ZERO
    };
    Measurement {
        name: method.name().to_string(),
        avg_slide: avg,
        per_point: avg / stride.max(1) as u32,
        latency: hist.snapshot(),
        max_slide: pass.max_slide,
        searches_per_slide: if pass.slides > 0 {
            pass.searches as f64 / pass.slides as f64
        } else {
            0.0
        },
        memory: method.memory_bytes(),
        peak_memory: pass.peak_memory.max(method.memory_bytes()),
        slides: pass.slides,
        assignments: method.assignments(),
    }
}

/// Drives `method` over `records` with the given window/stride, measuring
/// up to `max_slides` slides (the fill is setup, not measured).
pub fn measure<const D: usize, M: WindowClusterer<D>>(
    mut method: M,
    records: &[Record<D>],
    window: usize,
    stride: usize,
    max_slides: u32,
) -> Measurement {
    let mut w = SlidingWindow::new(records.to_vec(), window, stride);
    let mut hist = LogHistogram::new();
    let pass = drive_pass(&mut method, &mut w, max_slides, &mut hist);
    finish(&method, &pass, &hist, stride)
}

/// Like [`measure`], also returning the driven window so callers can read
/// ground truth for quality metrics.
pub fn measure_with_window<const D: usize, M: WindowClusterer<D>>(
    mut method: M,
    records: &[Record<D>],
    window: usize,
    stride: usize,
    max_slides: u32,
) -> (Measurement, SlidingWindow<D>) {
    let mut w = SlidingWindow::new(records.to_vec(), window, stride);
    let mut hist = LogHistogram::new();
    let pass = drive_pass(&mut method, &mut w, max_slides, &mut hist);
    let m = finish(&method, &pass, &hist, stride);
    (m, w)
}

/// Rounds `window` so that `stride` tiles it (EXTRA-N requirement); keeps
/// the stride and adjusts the window to the nearest multiple.
pub fn tile(window: usize, stride: usize) -> (usize, usize) {
    let stride = stride.max(1).min(window);
    let mult = (window as f64 / stride as f64).round().max(1.0) as usize;
    (stride * mult, stride)
}

/// Slide budget for a stride: tiny strides need many slides for a stable
/// mean (each slide is microseconds), large strides need few.
pub fn slides_for(stride: usize) -> u32 {
    ((2_000 / stride.max(1)) as u32).clamp(5, 250)
}

/// How many records a run needs: fill plus `slides` strides.
pub fn records_needed(window: usize, stride: usize, slides: u32) -> usize {
    window + stride * slides as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{Disc, DiscConfig};
    use disc_window::datasets;

    #[test]
    fn tile_produces_divisible_pairs() {
        for (w, s) in [(1000, 37), (1000, 250), (16_000, 16), (100, 100)] {
            let (tw, ts) = tile(w, s);
            assert_eq!(tw % ts, 0);
            assert!(ts <= tw);
            // Window changed by less than one stride's rounding.
            assert!((tw as f64 - w as f64).abs() <= s as f64 / 2.0 + 1.0);
        }
    }

    #[test]
    fn measure_reports_sane_numbers() {
        let recs = datasets::gaussian_blobs::<2>(2_000, 3, 0.5, 3);
        let m = measure(Disc::new(DiscConfig::new(1.0, 5)), &recs, 500, 100, 5);
        assert_eq!(m.slides, 5);
        assert_eq!(m.assignments.len(), 500);
        assert!(m.searches_per_slide > 0.0);
        assert!(m.avg_slide > Duration::ZERO);
        assert!(m.per_point <= m.avg_slide);
        assert_eq!(m.latency.count, 5, "one histogram sample per slide");
        assert!(m.p50_slide() > Duration::ZERO);
        assert!(m.p50_slide() <= m.p99_slide());
        assert!(m.latency.p99 <= m.latency.max);
        // The direct accumulator agrees with the histogram's exact max.
        assert_eq!(m.max_slide.as_nanos() as u64, m.latency.max);
        // Peak memory is sampled at every slide boundary, so it can never
        // read below the final resident estimate.
        assert!(m.peak_memory >= m.memory);
        assert!(m.memory > 0, "DISC accounts its bytes");
    }

    #[test]
    fn short_stream_caps_slides() {
        let recs = datasets::gaussian_blobs::<2>(700, 3, 0.5, 3);
        let m = measure(Disc::new(DiscConfig::new(1.0, 5)), &recs, 500, 100, 100);
        assert_eq!(m.slides, 2);
    }
}
