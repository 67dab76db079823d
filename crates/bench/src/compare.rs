//! The perf-regression gate: diff a fresh bench summary against the
//! committed baseline.
//!
//! `BENCH_disc.json` (repo root) is the committed headline summary — one
//! record per `(suite, backend, window, stride, threads)` with per-slide
//! tail latencies. `experiments compare` re-measures (or reads `--fresh`),
//! matches rows by key, and fails when `p50_slide_us` grew beyond the
//! tolerance (default 25%). Rows present in the baseline but missing from
//! the fresh run also fail — a gate that silently loses coverage is no
//! gate. Improvements beyond the tolerance are reported (the baseline is
//! stale) but do not fail.
//!
//! Only the **median** is gated. `p99_slide_us` over a handful of merged
//! repetitions is close to a max statistic: on a single-core shared host
//! it swings 2x run to run from scheduler noise alone, while the median
//! stays within a few percent. Tail movement beyond the tolerance is
//! still reported, as advisory `tail p99` lines, so genuine tail
//! regressions remain visible without making the gate flaky.

use disc_telemetry::Json;

/// One record of the headline summary (`BENCH_disc.json` schema).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    /// Suite that produced the row (e.g. `backend_ablation`).
    pub suite: String,
    /// Spatial backend under test.
    pub backend: String,
    /// Window size.
    pub window: u64,
    /// Stride size.
    pub stride: u64,
    /// Worker threads the engine ran with (1 = sequential).
    pub threads: u64,
    /// Slides measured.
    pub slides: u64,
    /// Median per-slide latency (µs).
    pub p50_us: f64,
    /// 99th-percentile per-slide latency (µs).
    pub p99_us: f64,
    /// Exact worst per-slide latency (µs).
    pub max_us: f64,
    /// Mean ε-range searches per slide.
    pub searches_per_slide: f64,
    /// Mean CPU utilization over the measurement (cores busy; 1.0 means
    /// one core fully used). 0.0 when the platform could not report it.
    /// Informational — latency is what the gate judges.
    pub cpu_util: f64,
    /// Stride-eviction cost (ns per evicted point). Informational; 0.0 in
    /// summaries written before the column existed.
    pub evict_ns_per_point: f64,
    /// Peak accounted engine footprint over the run (bytes). Informational;
    /// 0.0 in summaries written before byte accounting.
    pub peak_bytes: f64,
    /// `peak_bytes / window` — the paper-style memory curve's y-axis.
    /// 0.0 in summaries written before byte accounting.
    pub bytes_per_point: f64,
    /// Final-window ARI against a from-scratch DBSCAN oracle. Advisory
    /// only (the engine is exact, so anything below 1.0 is a finding for
    /// a human, never a gate); 0.0 in summaries written before the
    /// stream-health PR.
    pub quality_ari: f64,
    /// Final-window noise fraction. Advisory context for the quality
    /// column; 0.0 in older summaries.
    pub noise_frac: f64,
}

impl BenchRow {
    /// The identity a row is matched on across runs. `threads` is part of
    /// the key: a width-4 row regressing against a width-1 baseline would
    /// be noise, not signal.
    pub fn key(&self) -> String {
        format!(
            "{}/{} w={} s={} t={}",
            self.suite, self.backend, self.window, self.stride, self.threads
        )
    }

    /// The identity spelled out field by field — for messages where a
    /// human has to reconstruct the absent row, not just grep for it.
    pub fn tuple(&self) -> String {
        format!(
            "(suite={}, backend={}, window={}, stride={}, threads={})",
            self.suite, self.backend, self.window, self.stride, self.threads
        )
    }
}

/// Parses a `BENCH_disc.json` document into rows.
pub fn parse_rows(text: &str) -> Result<Vec<BenchRow>, String> {
    let doc = Json::parse(text)?;
    let items = doc
        .as_array()
        .ok_or_else(|| "bench summary is not a JSON array".to_string())?;
    let mut rows = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let str_field = |key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row {i}: missing string {key:?}"))
        };
        let num = |key: &str| {
            item.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row {i}: missing number {key:?}"))
        };
        // `threads` became part of the row identity with the parallel
        // slide engine; a summary without it cannot be matched against
        // one that has it, so refuse it with a pointer at the fix rather
        // than guessing a width.
        let threads = item.get("threads").and_then(Json::as_f64).ok_or_else(|| {
            format!(
                "row {i}: missing number \"threads\" — this summary predates the \
                 parallel slide engine and its rows cannot be keyed; regenerate the \
                 baseline with `cargo run --release -p disc-bench --bin experiments \
                 -- backend`"
            )
        })?;
        rows.push(BenchRow {
            suite: str_field("suite")?,
            backend: str_field("backend")?,
            window: num("window")? as u64,
            stride: num("stride")? as u64,
            threads: threads as u64,
            slides: num("slides")? as u64,
            p50_us: num("p50_slide_us")?,
            p99_us: num("p99_slide_us")?,
            max_us: num("max_slide_us")?,
            searches_per_slide: num("searches_per_slide")?,
            // Older summaries lack the utilization and eviction columns;
            // both are informational, so default rather than reject.
            cpu_util: item.get("cpu_util").and_then(Json::as_f64).unwrap_or(0.0),
            evict_ns_per_point: item
                .get("evict_ns_per_point")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            peak_bytes: item.get("peak_bytes").and_then(Json::as_f64).unwrap_or(0.0),
            bytes_per_point: item
                .get("bytes_per_point")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            quality_ari: item
                .get("quality_ari")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            noise_frac: item.get("noise_frac").and_then(Json::as_f64).unwrap_or(0.0),
        });
    }
    Ok(rows)
}

/// One metric of one row moving past the tolerance, in either direction.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Row identity (`suite/backend w=.. s=..`).
    pub key: String,
    /// Which latency metric moved (`p50` or `p99`).
    pub metric: &'static str,
    /// Baseline value (µs).
    pub baseline_us: f64,
    /// Fresh value (µs).
    pub fresh_us: f64,
}

impl Delta {
    /// `fresh / baseline` (∞ when the baseline is zero).
    pub fn ratio(&self) -> f64 {
        if self.baseline_us <= 0.0 {
            f64::INFINITY
        } else {
            self.fresh_us / self.baseline_us
        }
    }
}

/// Outcome of one baseline-vs-fresh comparison.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Metrics that got slower than the tolerance allows (gate failures).
    pub regressions: Vec<Delta>,
    /// Metrics that got faster than the tolerance — the baseline is stale.
    pub improvements: Vec<Delta>,
    /// Tail (p99) moves beyond the tolerance, either direction. Advisory:
    /// the tail of a small sample is too noisy to gate, but worth eyes.
    pub tail_drift: Vec<Delta>,
    /// Peak-memory moves beyond the tolerance, either direction (values in
    /// bytes, not µs). Advisory: byte accounting is an estimate and only
    /// rows measured since accounting landed carry it, but a footprint
    /// quietly doubling deserves eyes just like a tail spike.
    pub mem_drift: Vec<Delta>,
    /// Baseline rows with no fresh counterpart (gate failures), spelled
    /// out as full `(suite, backend, window, stride, threads)` tuples.
    pub missing: Vec<String>,
    /// Fresh keys with no baseline counterpart (informational), excluding
    /// rows covered by `new_backends`.
    pub added: Vec<String>,
    /// Backends present in the fresh run but absent from the baseline
    /// *entirely* — a new backend column, not a stray row. One entry per
    /// backend with its row count, so the regeneration hint prints once
    /// instead of once per row.
    pub new_backends: Vec<(String, usize)>,
    /// Rows matched and checked.
    pub checked: usize,
    /// Tolerance used (fraction, e.g. 0.25).
    pub tolerance: f64,
}

impl CompareReport {
    /// Whether the gate passes (no regressions, no lost coverage).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Human-readable report, one line per finding.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let pct = self.tolerance * 100.0;
        let _ = writeln!(
            out,
            "bench compare: {} row(s) checked, tolerance {pct:.0}%",
            self.checked
        );
        for d in &self.regressions {
            let _ = writeln!(
                out,
                "  REGRESSION {} {}: {:.1}us -> {:.1}us ({:.2}x)",
                d.key,
                d.metric,
                d.baseline_us,
                d.fresh_us,
                d.ratio()
            );
        }
        for tuple in &self.missing {
            let _ = writeln!(out, "  MISSING    {tuple}: baseline row not re-measured");
        }
        for d in &self.improvements {
            let _ = writeln!(
                out,
                "  improved   {} {}: {:.1}us -> {:.1}us ({:.2}x) — consider refreshing the baseline",
                d.key,
                d.metric,
                d.baseline_us,
                d.fresh_us,
                d.ratio()
            );
        }
        for d in &self.tail_drift {
            let _ = writeln!(
                out,
                "  tail p99   {}: {:.1}us -> {:.1}us ({:.2}x) — advisory, tails are not gated",
                d.key,
                d.baseline_us,
                d.fresh_us,
                d.ratio()
            );
        }
        for d in &self.mem_drift {
            let _ = writeln!(
                out,
                "  mem peak   {}: {} -> {} ({:.2}x) — advisory, memory is not gated",
                d.key,
                crate::report::fmt_bytes(d.baseline_us as usize),
                crate::report::fmt_bytes(d.fresh_us as usize),
                d.ratio()
            );
        }
        for key in &self.added {
            let _ = writeln!(out, "  new row    {key}: not in the baseline");
        }
        for (backend, rows) in &self.new_backends {
            let _ = writeln!(
                out,
                "  new backend {backend:?}: {rows} fresh row(s) with no baseline column — \
                 refresh the baseline with `cargo run --release -p disc-bench \
                 --bin experiments -- backend`"
            );
        }
        let _ = writeln!(
            out,
            "  verdict: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Diffs `fresh` against `baseline` with a fractional `tolerance`:
/// `p50_slide_us` is gated per matched row; `p99_slide_us` movement is
/// collected as advisory tail drift.
pub fn compare(baseline: &[BenchRow], fresh: &[BenchRow], tolerance: f64) -> CompareReport {
    let mut report = CompareReport {
        tolerance,
        ..CompareReport::default()
    };
    let find = |rows: &[BenchRow], key: &str| rows.iter().find(|r| r.key() == key).cloned();
    for b in baseline {
        let key = b.key();
        let Some(f) = find(fresh, &key) else {
            report.missing.push(b.tuple());
            continue;
        };
        report.checked += 1;
        let p50 = Delta {
            key: key.clone(),
            metric: "p50",
            baseline_us: b.p50_us,
            fresh_us: f.p50_us,
        };
        if f.p50_us > b.p50_us * (1.0 + tolerance) {
            report.regressions.push(p50);
        } else if f.p50_us < b.p50_us * (1.0 - tolerance) {
            report.improvements.push(p50);
        }
        if f.p99_us > b.p99_us * (1.0 + tolerance) || f.p99_us < b.p99_us * (1.0 - tolerance) {
            report.tail_drift.push(Delta {
                key: key.clone(),
                metric: "p99",
                baseline_us: b.p99_us,
                fresh_us: f.p99_us,
            });
        }
        // Memory is only comparable when both sides carry the accounting
        // column; a zero baseline just means it predates byte accounting.
        if b.peak_bytes > 0.0
            && f.peak_bytes > 0.0
            && (f.peak_bytes > b.peak_bytes * (1.0 + tolerance)
                || f.peak_bytes < b.peak_bytes * (1.0 - tolerance))
        {
            report.mem_drift.push(Delta {
                key,
                metric: "peak_bytes",
                baseline_us: b.peak_bytes,
                fresh_us: f.peak_bytes,
            });
        }
    }
    // A whole backend column absent from the baseline is one finding, not
    // one per row: collapse those into `new_backends` so the render prints
    // the regeneration hint once.
    let baseline_backends: std::collections::BTreeSet<&str> =
        baseline.iter().map(|r| r.backend.as_str()).collect();
    let mut new_backend_rows: std::collections::BTreeMap<String, usize> = Default::default();
    for f in fresh {
        if find(baseline, &f.key()).is_none() {
            if baseline_backends.contains(f.backend.as_str()) {
                report.added.push(f.key());
            } else {
                *new_backend_rows.entry(f.backend.clone()).or_default() += 1;
            }
        }
    }
    report.new_backends = new_backend_rows.into_iter().collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(backend: &str, stride: u64, p50: f64, p99: f64) -> BenchRow {
        BenchRow {
            suite: "backend_ablation".to_string(),
            backend: backend.to_string(),
            window: 8000,
            stride,
            threads: 1,
            slides: 5,
            p50_us: p50,
            p99_us: p99,
            max_us: p99,
            searches_per_slide: 100.0,
            cpu_util: 1.0,
            evict_ns_per_point: 50.0,
            peak_bytes: 1_000_000.0,
            bytes_per_point: 125.0,
            quality_ari: 1.0,
            noise_frac: 0.05,
        }
    }

    #[test]
    fn committed_baseline_parses() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_disc.json");
        let text = std::fs::read_to_string(path).unwrap();
        let rows = parse_rows(&text).unwrap();
        assert!(!rows.is_empty());
        for r in &rows {
            assert_eq!(r.suite, "backend_ablation");
            assert!(r.p50_us > 0.0 && r.p50_us <= r.p99_us);
            assert!(r.p99_us <= r.max_us + 1e-9);
            // Byte accounting landed with the memory-observability PR; a
            // baseline regenerated since then always carries the columns.
            assert!(r.peak_bytes > 0.0, "{}: no peak_bytes", r.key());
            assert!(
                (r.bytes_per_point - r.peak_bytes / r.window as f64).abs() < 1.0,
                "{}: bytes_per_point inconsistent",
                r.key()
            );
        }
        // Keys are unique — the matcher relies on it.
        let mut keys: Vec<String> = rows.iter().map(BenchRow::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), rows.len());
    }

    #[test]
    fn identical_runs_pass() {
        let rows = vec![
            row("rtree", 400, 1000.0, 2000.0),
            row("grid", 400, 500.0, 900.0),
        ];
        let report = compare(&rows, &rows, 0.25);
        assert!(report.passed());
        assert_eq!(report.checked, 2);
        assert!(report.regressions.is_empty() && report.improvements.is_empty());
        assert!(report.render().contains("PASS"));
    }

    /// The acceptance gate: against a baseline doctored to half the real
    /// latency, the fresh run reads as a 2x regression and fails.
    #[test]
    fn doctored_2x_baseline_fails_the_gate() {
        let fresh = vec![row("rtree", 400, 1000.0, 2000.0)];
        let doctored = vec![row("rtree", 400, 500.0, 1000.0)];
        let report = compare(&doctored, &fresh, 0.25);
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1, "p50 doubled");
        assert!((report.regressions[0].ratio() - 2.0).abs() < 1e-9);
        assert_eq!(report.tail_drift.len(), 1, "p99 doubling is advisory");
        let text = report.render();
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
    }

    /// A tail-only spike must not fail the gate — p99 over a few merged
    /// repetitions is a max statistic and swings 2x from host noise — but
    /// it must be surfaced as advisory drift.
    #[test]
    fn tail_only_spike_reports_but_does_not_fail() {
        let base = vec![row("rtree", 400, 1000.0, 2000.0)];
        let fresh = vec![row("rtree", 400, 1050.0, 6000.0)];
        let report = compare(&base, &fresh, 0.25);
        assert!(report.passed());
        assert!(report.regressions.is_empty());
        assert_eq!(report.tail_drift.len(), 1);
        assert!((report.tail_drift[0].ratio() - 3.0).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("tail p99"), "{text}");
        assert!(text.contains("advisory"), "{text}");
        assert!(text.contains("PASS"), "{text}");
    }

    /// A memory blow-up alone is advisory — it must surface in the report
    /// without failing the gate, and baselines that predate byte
    /// accounting (peak_bytes 0) must stay silent rather than divide by
    /// zero into an ∞-ratio finding.
    #[test]
    fn memory_drift_reports_but_does_not_fail() {
        let base = vec![row("rtree", 400, 1000.0, 2000.0)];
        let mut bloated = row("rtree", 400, 1000.0, 2000.0);
        bloated.peak_bytes = 3_000_000.0;
        let report = compare(&base, &[bloated.clone()], 0.25);
        assert!(report.passed());
        assert_eq!(report.mem_drift.len(), 1);
        assert!((report.mem_drift[0].ratio() - 3.0).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("mem peak"), "{text}");
        assert!(text.contains("976.6KiB -> 2.9MiB"), "{text}");
        assert!(text.contains("PASS"), "{text}");
        // Accounting-era fresh rows vs a pre-accounting baseline: silent.
        let mut old = row("rtree", 400, 1000.0, 2000.0);
        old.peak_bytes = 0.0;
        let report = compare(&[old], &[bloated], 0.25);
        assert!(report.mem_drift.is_empty());
    }

    #[test]
    fn small_jitter_stays_inside_the_tolerance() {
        let base = vec![row("rtree", 400, 1000.0, 2000.0)];
        let fresh = vec![row("rtree", 400, 1100.0, 2200.0)];
        assert!(compare(&base, &fresh, 0.25).passed());
        // ...but a tightened tolerance catches the same drift.
        assert!(!compare(&base, &fresh, 0.05).passed());
    }

    #[test]
    fn improvements_report_but_do_not_fail() {
        let base = vec![row("rtree", 400, 1000.0, 2000.0)];
        let fresh = vec![row("rtree", 400, 400.0, 800.0)];
        let report = compare(&base, &fresh, 0.25);
        assert!(report.passed());
        assert_eq!(report.improvements.len(), 1, "p50 improvement");
        assert_eq!(report.tail_drift.len(), 1, "p99 move is advisory");
        assert!(report.render().contains("refreshing the baseline"));
    }

    #[test]
    fn lost_coverage_fails_and_new_rows_inform() {
        let base = vec![
            row("rtree", 400, 1000.0, 2000.0),
            row("grid", 400, 1.0, 2.0),
        ];
        let fresh = vec![
            row("rtree", 400, 1000.0, 2000.0),
            row("rtree", 800, 1.0, 2.0),
        ];
        let report = compare(&base, &fresh, 0.25);
        assert!(!report.passed());
        assert_eq!(report.missing.len(), 1);
        assert_eq!(report.added.len(), 1);
        let text = report.render();
        assert!(text.contains("MISSING"));
        // The absent row is spelled out field by field, not just keyed.
        assert!(
            text.contains(
                "(suite=backend_ablation, backend=grid, window=8000, stride=400, threads=1)"
            ),
            "{text}"
        );
    }

    /// A backend column that is entirely new to the fresh run (the shape
    /// of a backend's rollout) collapses into one hint line; a stray new
    /// row of a known backend still reports per-row.
    #[test]
    fn whole_new_backend_column_hints_once_not_per_row() {
        let base = vec![
            row("rtree", 400, 1000.0, 2000.0),
            row("grid", 400, 1.0, 2.0),
        ];
        let fresh = vec![
            row("rtree", 400, 1000.0, 2000.0),
            row("grid", 400, 1.0, 2.0),
            row("kdtree", 400, 1.0, 2.0),
            row("kdtree", 800, 1.0, 2.0),
            row("kdtree", 1600, 1.0, 2.0),
        ];
        let report = compare(&base, &fresh, 0.25);
        assert!(report.passed(), "new rows never fail the gate");
        assert!(
            report.added.is_empty(),
            "column rows collapse into the hint"
        );
        assert_eq!(report.new_backends, vec![("kdtree".to_string(), 3)]);
        let text = report.render();
        assert_eq!(
            text.matches("refresh the baseline").count(),
            1,
            "hint must print once, not per row: {text}"
        );
        assert!(
            text.contains("new backend \"kdtree\": 3 fresh row(s)"),
            "{text}"
        );
    }

    #[test]
    fn parser_rejects_malformed_summaries() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("[{\"suite\": \"x\"}]").is_err());
        assert!(parse_rows("[{\"suite\": 3}]").is_err());
        let ok = "[{\"suite\": \"s\", \"backend\": \"b\", \"window\": 10, \"stride\": 2, \
                  \"threads\": 4, \"slides\": 5, \"p50_slide_us\": 1.0, \"p99_slide_us\": 2.0, \
                  \"max_slide_us\": 2.5, \"searches_per_slide\": 7.0, \"cpu_util\": 2.5}]";
        let rows = parse_rows(ok).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key(), "s/b w=10 s=2 t=4");
        assert_eq!(rows[0].max_us, 2.5);
        assert_eq!(rows[0].cpu_util, 2.5);
    }

    /// A baseline written before the parallel slide engine has no
    /// `threads` column; the gate must refuse it with a regeneration
    /// hint, not silently match rows across different widths.
    #[test]
    fn threadless_baseline_fails_loudly_with_a_hint() {
        let stale = "[{\"suite\": \"s\", \"backend\": \"b\", \"window\": 10, \"stride\": 2, \
                     \"slides\": 5, \"p50_slide_us\": 1.0, \"p99_slide_us\": 2.0, \
                     \"max_slide_us\": 2.5, \"searches_per_slide\": 7.0}]";
        let err = parse_rows(stale).unwrap_err();
        assert!(err.contains("threads"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
        // `cpu_util`, by contrast, is informational and may be absent.
        let ok = "[{\"suite\": \"s\", \"backend\": \"b\", \"window\": 10, \"stride\": 2, \
                  \"threads\": 1, \"slides\": 5, \"p50_slide_us\": 1.0, \"p99_slide_us\": 2.0, \
                  \"max_slide_us\": 2.5, \"searches_per_slide\": 7.0}]";
        assert_eq!(parse_rows(ok).unwrap()[0].cpu_util, 0.0);
    }
}
