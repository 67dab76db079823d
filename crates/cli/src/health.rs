//! The stream-health driver behind `disc run --audit-every/--alerts/
//! --health-out`.
//!
//! One [`Health`] value rides the slide loop (plain and durable alike) and
//! composes the pieces the workspace already has:
//!
//! * per-slide signals from `disc-metrics::stream` (label churn, noise
//!   fraction, cluster census), published as gauges;
//! * the periodic quality audit — a from-scratch DBSCAN oracle pass over a
//!   deterministic sample of the window, scored with `ari`/`nmi`/`purity`
//!   against the engine's own labels (`disc_quality_*` gauges);
//! * drift detection via `disc-telemetry`'s EWMA + Page–Hinkley monitor
//!   over mean ε-neighbor count, noise fraction and arrival geometry
//!   (`disc_drift_score`, `disc_drift_changes_total`);
//! * cluster lifecycle analytics fed by the provenance stream (through a
//!   tee sink) and the per-slide census (`disc_cluster_lifetime_slides`,
//!   `disc_cluster_size_at_death` histograms);
//! * the declarative alert engine (`--alerts rules.toml`), with a JSONL
//!   alert sink (`--alerts-out`), `disc_alert_active{rule=...}` gauges and
//!   the `--alerts-fatal` CI exit mode;
//! * one `HealthEvent` JSONL line per slide (`--health-out`) for
//!   `disc top --health`.

use crate::Opts;
use disc_baselines::Dbscan;
use disc_geom::{FxHashMap, Point, PointId};
use disc_telemetry::{
    health::ppm, AlertEngine, AlertEvent, DriftMonitor, HealthEvent, JsonlRecord,
    LifecycleAnalytics, ProvenanceEvent, ProvenanceSink, Recorder, Registry, Sink,
};
use disc_window::{SlideBatch, SlidingWindow};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Window points sampled per quality audit (the oracle pass is O(n²) in
/// the sample via the rebuilt index; 4096 keeps it sub-second).
const AUDIT_SAMPLE: usize = 4096;
/// Window points sampled per neighbor-count probe.
const NEIGHBOR_WINDOW_SAMPLE: usize = 256;
/// Incoming points probed for the mean ε-neighbor signal.
const NEIGHBOR_PROBES: usize = 32;
/// Calibration slides before the drift detectors may fire.
const DRIFT_WARMUP: u64 = 16;

/// Every `k`-th element of `items`, `k` chosen so at most `cap` survive.
/// Deterministic (no RNG): the sample is a fixed stride over the input
/// order, so re-running the auditor on the same slide reproduces it.
fn stride_sample<T: Copy>(items: &[T], cap: usize) -> Vec<T> {
    if items.len() <= cap {
        return items.to_vec();
    }
    let step = items.len().div_ceil(cap);
    items.iter().copied().step_by(step).collect()
}

/// A buffered JSONL file sink (`--health-out`, `--alerts-out`,
/// `--ingest-out`) whose errors name its file.
#[derive(Debug)]
pub(crate) struct JsonlWriter {
    out: std::io::BufWriter<std::fs::File>,
    pub(crate) path: std::path::PathBuf,
}

impl JsonlWriter {
    pub(crate) fn create(path: &Path) -> Result<Self, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(JsonlWriter {
            out: std::io::BufWriter::new(file),
            path: path.to_path_buf(),
        })
    }

    pub(crate) fn line(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.out, "{line}").map_err(|e| format!("{}: {e}", self.path.display()))
    }

    pub(crate) fn flush(&mut self) -> Result<(), String> {
        self.out
            .flush()
            .map_err(|e| format!("{}: {e}", self.path.display()))
    }
}

/// A provenance sink that feeds the lifecycle fold, forwarding to an
/// optional inner sink (`--provenance-out`), so health analytics and the
/// JSONL export share one event stream.
struct LifecycleTee {
    lifecycle: Arc<Mutex<LifecycleAnalytics>>,
    inner: Option<Box<dyn ProvenanceSink>>,
}

impl Sink<ProvenanceEvent> for LifecycleTee {
    fn emit(&self, event: &ProvenanceEvent) {
        self.lifecycle
            .lock()
            .expect("lifecycle poisoned")
            .observe_provenance(event);
        if let Some(inner) = &self.inner {
            inner.emit(event);
        }
    }

    fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.flush();
        }
    }
}

/// The per-run stream-health state machine. Constructed by
/// [`Health::from_opts`] when any health flag is present; observed once
/// per slide; finished after the stream drains.
pub struct Health<const D: usize> {
    eps: f64,
    tau: usize,
    audit_every: u64,
    alerts_fatal: bool,
    quiet: bool,
    engine: Option<AlertEngine>,
    alerts_out: Option<JsonlWriter>,
    health_out: Option<JsonlWriter>,
    monitor: DriftMonitor,
    lifecycle: Arc<Mutex<LifecycleAnalytics>>,
    prev: Vec<(PointId, i64)>,
    prev_centroid: Option<[f64; D]>,
    prev_ex_cores: u64,
    /// Latest audit result, sticky between audits for the summary line.
    quality: Option<(f64, f64, f64)>,
    /// Latest cheap signals, for the `--stats-every` fragment.
    last: (f64, f64, f64), // churn, noise, drift score
}

impl<const D: usize> Health<D> {
    /// Builds the driver when any health flag is on; `None` otherwise.
    /// `eps`/`tau` parameterise the audit oracle (the engine's own
    /// thresholds — on a durable resume they come from the checkpoint).
    pub fn from_opts(opts: &Opts, eps: f64, tau: usize) -> Result<Option<Self>, String> {
        let active = opts.audit_every > 0 || opts.alerts.is_some() || opts.health_out.is_some();
        if !active {
            return Ok(None);
        }
        let engine = match &opts.alerts {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("--alerts {}: {e}", path.display()))?;
                let rules = disc_telemetry::parse_rules(&text)
                    .map_err(|e| format!("--alerts {}: {e}", path.display()))?;
                Some(AlertEngine::new(rules))
            }
            None => None,
        };
        let create = |p: &Option<PathBuf>| p.as_deref().map(JsonlWriter::create).transpose();
        Ok(Some(Health {
            eps,
            tau,
            audit_every: opts.audit_every,
            alerts_fatal: opts.alerts_fatal,
            quiet: opts.quiet,
            engine,
            alerts_out: create(&opts.alerts_out)?,
            health_out: create(&opts.health_out)?,
            monitor: DriftMonitor::standard(DRIFT_WARMUP),
            lifecycle: Arc::new(Mutex::new(LifecycleAnalytics::new())),
            prev: Vec::new(),
            prev_centroid: None,
            prev_ex_cores: 0,
            quality: None,
            last: (0.0, 0.0, 0.0),
        }))
    }

    /// A provenance sink feeding this driver's lifecycle fold, forwarding
    /// to `inner` (the `--provenance-out` JSONL sink) when given. Attach
    /// via `Registry::with_provenance`.
    pub fn provenance_tee(
        &self,
        inner: Option<Box<dyn ProvenanceSink>>,
    ) -> Box<dyn ProvenanceSink> {
        Box::new(LifecycleTee {
            lifecycle: self.lifecycle.clone(),
            inner,
        })
    }

    /// Folds one committed slide in: cheap signals, lifecycle census,
    /// drift, the periodic audit, alert evaluation, and the `--health-out`
    /// line. `slide` is 1-based with the initial fill as slide 1.
    pub fn observe(
        &mut self,
        slide: u64,
        assignments: &[(PointId, i64)],
        w: &SlidingWindow<D>,
        batch: &SlideBatch<D>,
        registry: &Registry,
    ) -> Result<(), String> {
        // --- Cheap per-slide signals ----------------------------------
        let churn = disc_metrics::label_churn(&self.prev, assignments);
        let noise = disc_metrics::noise_fraction(assignments);
        let census = disc_metrics::cluster_sizes(assignments);
        registry.gauge_set("disc_label_churn", churn);
        registry.gauge_set("disc_noise_fraction", noise);
        registry.gauge_set("disc_cluster_count", census.len() as f64);
        // Ex-core ratio: this slide's demotions over the current core
        // population (engines publish both; baselines publish neither, in
        // which case the gauge reads 0 over the non-noise count).
        let ex_cores = registry.counter_value("disc_ex_cores_total");
        let ex_delta = ex_cores.saturating_sub(self.prev_ex_cores);
        self.prev_ex_cores = ex_cores;
        let cores = registry
            .gauge_value("disc_core_points")
            .unwrap_or_else(|| assignments.iter().filter(|&&(_, l)| l >= 0).count() as f64);
        let excore_ratio = ex_delta as f64 / cores.max(1.0);
        registry.gauge_set("disc_excore_ratio", excore_ratio);

        // --- Lifecycle census -----------------------------------------
        let deaths = self
            .lifecycle
            .lock()
            .expect("lifecycle poisoned")
            .observe_clusters(slide, &census);
        for death in deaths {
            registry.record_nanos("disc_cluster_lifetime_slides", death.lifetime);
            registry.record_nanos("disc_cluster_size_at_death", death.size);
        }

        // --- Drift signals --------------------------------------------
        let neighbor_mean = self.neighbor_mean(w, batch);
        let arrival_shift = self.arrival_shift(batch);
        let verdict = self.monitor.observe(&[
            ("neighbor_mean", neighbor_mean),
            ("noise_fraction", noise),
            ("arrival_shift", arrival_shift),
        ]);
        registry.gauge_set("disc_drift_score", verdict.score);
        if let Some(signal) = verdict.changed {
            registry.counter_add("disc_drift_changes_total", 1);
            if !self.quiet {
                eprintln!(
                    "drift @ slide {slide}: change-point in {signal} (score {:.2}σ)",
                    verdict.score
                );
            }
        }

        // --- Periodic quality audit -----------------------------------
        let audited = self.audit_every > 0 && slide.is_multiple_of(self.audit_every);
        if audited {
            self.audit(assignments, w, registry);
        }

        // --- Alert evaluation -----------------------------------------
        let mut active = 0u64;
        if let Some(engine) = &mut self.engine {
            let lookup = |name: &str| {
                registry.gauge_value(name).or_else(|| {
                    registry
                        .counter_names()
                        .contains(&name)
                        .then(|| registry.counter_value(name) as f64)
                })
            };
            let events = engine.evaluate(slide, &lookup);
            engine.publish(registry);
            active = engine.active().len() as u64;
            for ev in &events {
                debug_assert!(AlertEvent::validate_jsonl(&ev.to_jsonl()).is_ok());
                if let Some(out) = &mut self.alerts_out {
                    out.line(&ev.to_jsonl())?;
                }
                if !self.quiet {
                    eprintln!(
                        "alert @ slide {slide}: {} {} ({} {} {} {}, value {:.4})",
                        ev.rule, ev.state, ev.metric, ev.op, ev.threshold, ev.severity, ev.value
                    );
                }
            }
        }

        // --- Health event ---------------------------------------------
        self.last = (churn, noise, verdict.score);
        if let Some(out) = &mut self.health_out {
            let (ari, nmi, purity) = self.quality.unwrap_or((0.0, 0.0, 0.0));
            let ev = HealthEvent {
                slide,
                clusters: census.len() as u64,
                churn_ppm: ppm(churn),
                noise_ppm: ppm(noise),
                excore_ratio_ppm: ppm(excore_ratio),
                drift_ppm: (verdict.score * 1e6).min(1e9) as u64,
                drift_changed: verdict.changed.is_some() as u64,
                audited: audited as u64,
                ari_ppm: ppm(ari),
                nmi_ppm: ppm(nmi),
                purity_ppm: ppm(purity),
                alerts_active: active,
            };
            out.line(&ev.to_jsonl())?;
        }
        self.prev = assignments.to_vec();
        Ok(())
    }

    /// Mean ε-neighbor count around this slide's arrivals, estimated from
    /// a deterministic sample: up to [`NEIGHBOR_PROBES`] incoming points
    /// probed against up to [`NEIGHBOR_WINDOW_SAMPLE`] window points, the
    /// counts scaled back up by the window sampling ratio.
    fn neighbor_mean(&self, w: &SlidingWindow<D>, batch: &SlideBatch<D>) -> f64 {
        let probes = stride_sample(&batch.incoming, NEIGHBOR_PROBES);
        if probes.is_empty() {
            return 0.0;
        }
        let window: Vec<(PointId, Point<D>)> = w.current().collect();
        let sample = stride_sample(&window, NEIGHBOR_WINDOW_SAMPLE);
        if sample.is_empty() {
            return 0.0;
        }
        let scale = window.len() as f64 / sample.len() as f64;
        let eps = self.eps;
        let total: usize = probes
            .iter()
            .map(|(pid, p)| {
                sample
                    .iter()
                    .filter(|(qid, q)| qid != pid && p.dist(q) <= eps)
                    .count()
            })
            .sum();
        scale * total as f64 / probes.len() as f64
    }

    /// Displacement of the arrival centroid from the previous slide's — a
    /// scale-free "where is the data coming from" signal.
    fn arrival_shift(&mut self, batch: &SlideBatch<D>) -> f64 {
        if batch.incoming.is_empty() {
            return 0.0;
        }
        let mut centroid = [0.0f64; D];
        for (_, p) in &batch.incoming {
            for (c, x) in centroid.iter_mut().zip(p.coords().iter()) {
                *c += x;
            }
        }
        for c in &mut centroid {
            *c /= batch.incoming.len() as f64;
        }
        let shift = match self.prev_centroid {
            Some(prev) => centroid
                .iter()
                .zip(prev.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt(),
            None => 0.0,
        };
        self.prev_centroid = Some(centroid);
        shift
    }

    /// The from-scratch oracle pass: DBSCAN over a deterministic window
    /// sample, scored against the engine's labels on the same sample.
    fn audit(&mut self, assignments: &[(PointId, i64)], w: &SlidingWindow<D>, registry: &Registry) {
        let mut window: Vec<(PointId, Point<D>)> = w.current().collect();
        window.sort_unstable_by_key(|(id, _)| *id);
        let sample = stride_sample(&window, AUDIT_SAMPLE);
        if sample.is_empty() {
            return;
        }
        let (oracle, _) = Dbscan::<D>::run(&sample, self.eps, self.tau);
        let engine_of: FxHashMap<PointId, i64> = assignments.iter().copied().collect();
        let (mut truth, mut pred) = (Vec::new(), Vec::new());
        for (id, _) in &sample {
            truth.push(oracle.get(id).copied().unwrap_or(-1));
            pred.push(engine_of.get(id).copied().unwrap_or(-1));
        }
        let (ari, nmi, purity) = (
            disc_metrics::ari(&truth, &pred),
            disc_metrics::nmi(&truth, &pred),
            disc_metrics::purity(&truth, &pred),
        );
        registry.gauge_set("disc_quality_ari", ari);
        registry.gauge_set("disc_quality_nmi", nmi);
        registry.gauge_set("disc_quality_purity", purity);
        registry.gauge_set("disc_quality_sample_points", sample.len() as f64);
        registry.counter_add("disc_quality_audits_total", 1);
        self.quality = Some((ari, nmi, purity));
    }

    /// The `--stats-every` fragment: latest quality (when audited), churn,
    /// noise and drift, plus the firing-alert count.
    pub fn summary(&self) -> String {
        let (churn, noise, drift) = self.last;
        let quality = match self.quality {
            Some((ari, nmi, _)) => format!("quality ari={ari:.3} nmi={nmi:.3} "),
            None => String::new(),
        };
        let alerts = self.engine.as_ref().map(|e| e.active().len()).unwrap_or(0);
        format!(
            "{quality}churn={churn:.3} noise={noise:.3} drift={drift:.2}\u{3c3} alerts={alerts}"
        )
    }

    /// Flushes the sinks, prints the lifecycle recap, and enforces
    /// `--alerts-fatal`. Call once after the stream drains.
    pub fn finish(&mut self, registry: &Registry) -> Result<(), String> {
        if let Some(out) = &mut self.alerts_out {
            out.flush()?;
        }
        if let Some(out) = &mut self.health_out {
            out.flush()?;
        }
        let stats = self.lifecycle.lock().expect("lifecycle poisoned").stats();
        if !self.quiet {
            eprintln!(
                "lifecycle: {} clusters born, {} died (median lifetime {} slides), \
                 {} alive | splits/slide {:.3} merges/slide {:.3}",
                stats.born,
                stats.died,
                stats.lifetime.p50,
                stats.alive,
                stats.split_rate,
                stats.merge_rate
            );
        }
        if let Some(engine) = &self.engine {
            let active = engine.active();
            if !self.quiet {
                eprintln!(
                    "alerts: {} firing transition(s), {} still active{}{}",
                    engine.fired_total(),
                    active.len(),
                    if active.is_empty() { "" } else { ": " },
                    active.join(", ")
                );
            }
            let _ = registry; // gauges already published per slide
            if self.alerts_fatal && engine.fired_total() > 0 {
                return Err(format!(
                    "--alerts-fatal: {} alert(s) fired during the run",
                    engine.fired_total()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_sample_is_deterministic_and_capped() {
        let items: Vec<u64> = (0..1000).collect();
        let s = stride_sample(&items, 256);
        assert!(s.len() <= 256 && s.len() >= 200, "got {}", s.len());
        assert_eq!(s, stride_sample(&items, 256));
        assert_eq!(s[0], 0);
        // Small inputs pass through whole.
        assert_eq!(stride_sample(&items[..10], 256).len(), 10);
        let empty: Vec<u64> = Vec::new();
        assert!(stride_sample(&empty, 16).is_empty());
    }

    #[test]
    fn inactive_when_no_health_flags() {
        let opts = crate::flags::parse_cluster(&[]).unwrap();
        assert!(Health::<2>::from_opts(&opts, 1.0, 4).unwrap().is_none());
    }

    #[test]
    fn alerts_fatal_without_rules_is_an_error() {
        let args: Vec<String> = vec!["--alerts-fatal".into()];
        let err = crate::Opts::parse("cluster", &args).err().unwrap();
        assert!(err.contains("--alerts"), "{err}");
    }

    /// The acceptance bar for the auditor: the `disc_quality_ari` gauge it
    /// publishes equals the offline `disc_metrics::ari` oracle bit-for-bit
    /// on the audited slide, and the health gauges survive a Prometheus
    /// render → parse round trip (including the labeled alert gauge).
    #[test]
    fn audit_matches_offline_oracle_and_prom_round_trips() {
        use disc_telemetry::{parse_prometheus, Registry};
        use disc_window::{datasets, SlidingWindow};
        let dir = std::env::temp_dir().join("disc_health_audit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("always.toml");
        std::fs::write(
            &rules,
            "[[rule]]\nname = \"always\"\nmetric = \"disc_noise_fraction\"\n\
             op = \"ge\"\nthreshold = 0.0\n",
        )
        .unwrap();
        let args = ["--audit-every", "1", "--alerts", rules.to_str().unwrap()];
        let opts = crate::flags::parse_cluster(&args).unwrap();
        let (eps, tau) = (0.8, 4);
        let mut h = Health::<2>::from_opts(&opts, eps, tau).unwrap().unwrap();
        let registry = Registry::new();
        let records = datasets::gaussian_blobs::<2>(600, 4, 0.5, 7);
        let mut w = SlidingWindow::new(records, 300, 100);
        let fill = w.fill();
        // Deliberately imperfect "engine" labels: one giant cluster.
        let assignments: Vec<(PointId, i64)> = w.current().map(|(id, _)| (id, 0)).collect();
        h.observe(1, &assignments, &w, &fill, &registry).unwrap();

        // Offline oracle, replicating the audit's deterministic alignment.
        let mut window: Vec<(PointId, Point<2>)> = w.current().collect();
        window.sort_unstable_by_key(|(id, _)| *id);
        let (oracle, _) = Dbscan::<2>::run(&window, eps, tau);
        let engine_of: FxHashMap<PointId, i64> = assignments.iter().copied().collect();
        let (mut truth, mut pred) = (Vec::new(), Vec::new());
        for (id, _) in &window {
            truth.push(oracle[id]);
            pred.push(engine_of[id]);
        }
        let offline = disc_metrics::ari(&truth, &pred);
        let gauge = registry.gauge_value("disc_quality_ari").unwrap();
        assert_eq!(gauge, offline, "gauge must equal the oracle exactly");
        assert!(
            gauge < 1.0,
            "one-cluster labels cannot match a 4-blob oracle"
        );

        let text = registry.render_prometheus();
        let samples = parse_prometheus(&text).unwrap();
        for name in ["disc_quality_ari", "disc_quality_nmi", "disc_drift_score"] {
            let s = samples.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.value, registry.gauge_value(name).unwrap(), "{name}");
        }
        let alert = samples
            .iter()
            .find(|s| s.name == "disc_alert_active" && s.label("rule") == Some("always"))
            .unwrap();
        assert_eq!(alert.value, 1.0, "ge-0 rule fires on slide 1");
    }

    #[test]
    fn bad_rules_file_is_reported_with_path() {
        let dir = std::env::temp_dir().join("disc_health_rules_test");
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("bad.toml");
        std::fs::write(&rules, "[[rule]]\nname = \"x\"\n").unwrap();
        let opts = crate::flags::parse_cluster(&["--alerts", rules.to_str().unwrap()]).unwrap();
        let err = Health::<2>::from_opts(&opts, 1.0, 4).err().unwrap();
        assert!(err.contains("bad.toml") && err.contains("metric"), "{err}");
    }
}
