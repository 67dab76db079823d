//! Stream-health primitives: drift detectors, cluster lifecycle analytics,
//! and the per-slide health event schema.
//!
//! The engine's existing telemetry answers "how fast is the stream?"
//! (latency histograms, work counters) and "how big is it?" (the byte
//! accounting of `mem`). This module answers "is the clustering still
//! *good*?" with three layers:
//!
//! * [`DriftMonitor`] — an EWMA z-score plus a two-sided Page–Hinkley test
//!   per signal, folded into one `disc_drift_score` gauge and a change-point
//!   verdict. Signals are plain `f64`s, so the monitor is engine-agnostic.
//! * [`LifecycleAnalytics`] — folds the provenance stream and per-slide
//!   cluster censuses into birth/death records, lifetime and size-at-death
//!   histograms, and split/merge churn rates.
//! * [`HealthEvent`] — the flat JSONL record the CLI appends per slide
//!   (`--health-out`), read and written by the one JSONL codec
//!   ([`JsonlRecord`]) like every other stream.

use crate::hist::{HistSnapshot, LogHistogram};
use crate::provenance::{ProvenanceEvent, ProvenanceKind};
use crate::record::{field, Field, JsonlRecord};
use std::collections::BTreeMap;

/// Exponentially weighted mean/variance tracker.
///
/// `observe` returns the *signed* z-score of the sample against the
/// statistics accumulated so far (0.0 until the estimate has warmed up),
/// then folds the sample in. The standard deviation is floored at a small
/// fraction of the running mean so near-constant signals do not turn
/// floating-point jitter into huge scores.
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    mean: f64,
    var: f64,
    n: u64,
}

impl Ewma {
    /// A tracker with smoothing factor `alpha` in `(0, 1]` (smaller adapts
    /// more slowly, making step changes stand out longer).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        Ewma {
            alpha,
            mean: 0.0,
            var: 0.0,
            n: 0,
        }
    }

    /// Current mean estimate.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Samples observed so far.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Scores `x` against the current estimate, then updates it.
    pub fn observe(&mut self, x: f64) -> f64 {
        if !x.is_finite() {
            return 0.0;
        }
        if self.n == 0 {
            self.mean = x;
            self.n = 1;
            return 0.0;
        }
        let floor = 0.02 * self.mean.abs().max(0.02);
        let std = self.var.sqrt().max(floor);
        let z = ((x - self.mean) / std).clamp(-1e3, 1e3);
        // Winsorized update once calibrated: a gross outlier moves the
        // estimate as if it were a 4σ sample. Without this, a step change
        // balloons the variance within two slides and masks itself from
        // the change-point layer before it can accumulate. The first
        // samples update raw — winsorizing against the still-floored σ
        // would keep the variance from ever learning the signal's scale.
        let diff = if self.n >= 16 {
            (x - self.mean).clamp(-4.0 * std, 4.0 * std)
        } else {
            x - self.mean
        };
        let incr = self.alpha * diff;
        self.mean += incr;
        self.var = (1.0 - self.alpha) * (self.var + diff * incr);
        self.n += 1;
        z
    }
}

/// Two-sided Page–Hinkley change-point test over a z-scored signal.
///
/// Maintains the cumulative deviation `m_t = Σ (zᵢ − δ·sign)` in both
/// directions and fires when the excursion from its running extremum
/// exceeds `λ`. Over a stationary z-score sequence the walk drifts back
/// toward the extremum at rate `δ` per slide, so false fires need an
/// excursion of `λ` against that drift (probability ≈ `exp(−2δλ)`).
/// After a fire the test resets and re-arms.
#[derive(Clone, Debug)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    up: f64,
    up_min: f64,
    down: f64,
    down_max: f64,
}

impl PageHinkley {
    /// A test with tolerance `delta` (per-slide drift allowance) and
    /// threshold `lambda` (cumulative excursion that declares a change).
    pub fn new(delta: f64, lambda: f64) -> Self {
        assert!(delta >= 0.0 && lambda > 0.0);
        PageHinkley {
            delta,
            lambda,
            up: 0.0,
            up_min: 0.0,
            down: 0.0,
            down_max: 0.0,
        }
    }

    /// Folds one z-score in; true when a change-point fires (then resets).
    pub fn observe(&mut self, z: f64) -> bool {
        self.up += z - self.delta;
        self.up_min = self.up_min.min(self.up);
        self.down += z + self.delta;
        self.down_max = self.down_max.max(self.down);
        let fired = self.up - self.up_min > self.lambda || self.down_max - self.down > self.lambda;
        if fired {
            self.up = 0.0;
            self.up_min = 0.0;
            self.down = 0.0;
            self.down_max = 0.0;
        }
        fired
    }
}

/// One named signal's detector: EWMA z-scoring feeding Page–Hinkley.
#[derive(Clone, Debug)]
pub struct DriftDetector {
    /// Signal name (shows up in the change-point report).
    pub name: &'static str,
    ewma: Ewma,
    ph: PageHinkley,
    warmup: u64,
    seen: u64,
    last_z: f64,
}

/// Cap on the z-score fed into Page–Hinkley. With λ = 12 a single slide
/// can contribute at most `Z_CAP − δ = 2.5` toward a fire, so no spike —
/// however extreme — declares a change alone; it takes ≥ 5 consecutive
/// saturated slides. The *reported* score stays unclamped.
const Z_CAP: f64 = 4.0;

impl DriftDetector {
    /// A detector with the workspace's default parameters: slow EWMA
    /// (α = 0.05, a ~20-slide time constant so steps stay anomalous long
    /// enough to accumulate), Page–Hinkley δ = 1.5, λ = 12. δ of 1.5σ
    /// tolerates the autocorrelated swings stationary streams produce
    /// (orbiting trajectories wander density by ~1.4σ for dozens of
    /// slides); the false-fire probability per stationary excursion is
    /// ≈`exp(−2δλ)` = `exp(−36)`, while a genuine step saturating the
    /// z-cap fires in ⌈λ/(4−δ)⌉ = 5 slides. `warmup` calibration slides
    /// fire nothing.
    pub fn new(name: &'static str, warmup: u64) -> Self {
        DriftDetector {
            name,
            ewma: Ewma::new(0.05),
            ph: PageHinkley::new(1.5, 12.0),
            warmup,
            seen: 0,
            last_z: 0.0,
        }
    }

    /// Scores one sample: `(|z|, fired)`.
    pub fn observe(&mut self, x: f64) -> (f64, bool) {
        let z = self.ewma.observe(x);
        self.seen += 1;
        if self.seen <= self.warmup {
            self.last_z = 0.0;
            return (0.0, false);
        }
        self.last_z = z.abs();
        (z.abs(), self.ph.observe(z.clamp(-Z_CAP, Z_CAP)))
    }

    /// |z| of the most recent sample (0 during warmup).
    pub fn last_score(&self) -> f64 {
        self.last_z
    }
}

/// Verdict of one [`DriftMonitor::observe`] round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftVerdict {
    /// Max |z| across the signals this slide (σ units).
    pub score: f64,
    /// The signal whose Page–Hinkley test fired, if any.
    pub changed: Option<&'static str>,
}

/// A bundle of [`DriftDetector`]s over named signals.
///
/// The published `disc_drift_score` is the max |z| across signals: ≈1.0 is
/// ordinary variation, ≥3.0 a three-sigma excursion. A change-point is
/// only declared by the Page–Hinkley layer, which needs the excursion to
/// *persist* — single-slide spikes score high but do not fire.
#[derive(Clone, Debug, Default)]
pub struct DriftMonitor {
    detectors: Vec<DriftDetector>,
    changes: u64,
    last: f64,
}

impl DriftMonitor {
    /// An empty monitor; add signals with [`track`](DriftMonitor::track).
    pub fn new() -> Self {
        DriftMonitor::default()
    }

    /// The monitor the CLI runs: mean ε-neighbor count, noise fraction and
    /// arrival-geometry shift, calibrated over `warmup` slides.
    pub fn standard(warmup: u64) -> Self {
        let mut m = DriftMonitor::new();
        for name in ["neighbor_mean", "noise_fraction", "arrival_shift"] {
            m.track(name, warmup);
        }
        m
    }

    /// Registers a signal.
    pub fn track(&mut self, name: &'static str, warmup: u64) {
        self.detectors.push(DriftDetector::new(name, warmup));
    }

    /// Folds one slide's samples in, by signal name (unknown names are
    /// ignored; missing signals simply do not advance their detector).
    pub fn observe(&mut self, samples: &[(&str, f64)]) -> DriftVerdict {
        let mut score = 0.0f64;
        let mut changed = None;
        for d in &mut self.detectors {
            let Some((_, x)) = samples.iter().find(|(n, _)| *n == d.name) else {
                continue;
            };
            let (s, fired) = d.observe(*x);
            score = score.max(s);
            if fired && changed.is_none() {
                changed = Some(d.name);
            }
        }
        if changed.is_some() {
            self.changes += 1;
        }
        self.last = score;
        DriftVerdict { score, changed }
    }

    /// The most recent composite score.
    pub fn score(&self) -> f64 {
        self.last
    }

    /// Change-points declared so far.
    pub fn changes(&self) -> u64 {
        self.changes
    }
}

/// A cluster's birth/death record, keyed by its (engine-stable) label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterRecord {
    /// Slide the label first appeared.
    pub born: u64,
    /// Slide the label was last observed alive.
    pub last_seen: u64,
    /// Slide the label disappeared (None while alive).
    pub died: Option<u64>,
    /// Size at the last observation.
    pub last_size: u64,
    /// Largest observed size.
    pub peak_size: u64,
}

/// A death notice drained from [`LifecycleAnalytics::observe_clusters`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterDeath {
    /// The label that disappeared.
    pub label: i64,
    /// Slides from birth to death.
    pub lifetime: u64,
    /// Member count at the last sighting.
    pub size: u64,
}

/// Aggregated lifecycle statistics (see [`LifecycleAnalytics::stats`]).
#[derive(Clone, Debug, Default)]
pub struct LifecycleStats {
    /// Labels ever observed.
    pub born: u64,
    /// Labels that have disappeared.
    pub died: u64,
    /// Labels alive at the latest census.
    pub alive: u64,
    /// Distribution of lifetimes (slides) over dead clusters.
    pub lifetime: HistSnapshot,
    /// Distribution of sizes at death.
    pub size_at_death: HistSnapshot,
    /// Splits per censused slide.
    pub split_rate: f64,
    /// Merges per censused slide.
    pub merge_rate: f64,
}

/// Folds cluster evolution into per-cluster birth/death records.
///
/// Two feeds compose: [`observe_provenance`](Self::observe_provenance)
/// consumes the engine's causal stream (split/merge/emerge/dissipate
/// events — the churn-rate numerators, plus births for emerged clusters),
/// and [`observe_clusters`](Self::observe_clusters) takes a per-slide
/// census of `(label, size)` pairs, which pins down exact birth and death
/// slides for *every* label including those present since the initial
/// fill.
#[derive(Clone, Debug, Default)]
pub struct LifecycleAnalytics {
    clusters: BTreeMap<i64, ClusterRecord>,
    lifetimes: LogHistogram,
    death_sizes: LogHistogram,
    splits: u64,
    merges: u64,
    emerged: u64,
    dissipated: u64,
    slides: u64,
}

impl LifecycleAnalytics {
    /// An empty fold.
    pub fn new() -> Self {
        LifecycleAnalytics::default()
    }

    /// Folds one provenance event in (structural churn counters; births
    /// for clusters that emerge mid-stream).
    pub fn observe_provenance(&mut self, ev: &ProvenanceEvent) {
        match ev.kind {
            ProvenanceKind::ClusterSplit { .. } => self.splits += 1,
            ProvenanceKind::ClusterMerge { .. } => self.merges += 1,
            ProvenanceKind::ClusterEmerged { cluster, size, .. } => {
                self.emerged += 1;
                self.clusters
                    .entry(cluster as i64)
                    .or_insert(ClusterRecord {
                        born: ev.slide,
                        last_seen: ev.slide,
                        died: None,
                        last_size: size,
                        peak_size: size,
                    });
            }
            ProvenanceKind::ClusterDied { .. } => self.dissipated += 1,
            _ => {}
        }
    }

    /// Takes one slide's census of `(label, size)` pairs, returning the
    /// death notices for labels that vanished since the previous census.
    pub fn observe_clusters(&mut self, slide: u64, census: &[(i64, u64)]) -> Vec<ClusterDeath> {
        self.slides += 1;
        for &(label, size) in census {
            let rec = self.clusters.entry(label).or_insert(ClusterRecord {
                born: slide,
                last_seen: slide,
                died: None,
                last_size: size,
                peak_size: size,
            });
            rec.last_seen = slide;
            rec.died = None;
            rec.last_size = size;
            rec.peak_size = rec.peak_size.max(size);
        }
        let mut deaths = Vec::new();
        for (&label, rec) in self.clusters.iter_mut() {
            if rec.died.is_none() && rec.last_seen < slide {
                rec.died = Some(slide);
                let lifetime = slide - rec.born;
                self.lifetimes.record(lifetime);
                self.death_sizes.record(rec.last_size);
                deaths.push(ClusterDeath {
                    label,
                    lifetime,
                    size: rec.last_size,
                });
            }
        }
        deaths
    }

    /// The record for `label`, if ever observed.
    pub fn record(&self, label: i64) -> Option<&ClusterRecord> {
        self.clusters.get(&label)
    }

    /// Aggregated statistics over everything folded so far.
    pub fn stats(&self) -> LifecycleStats {
        let died = self.clusters.values().filter(|r| r.died.is_some()).count() as u64;
        let slides = self.slides.max(1) as f64;
        LifecycleStats {
            born: self.clusters.len() as u64,
            died,
            alive: self.clusters.len() as u64 - died,
            lifetime: self.lifetimes.snapshot(),
            size_at_death: self.death_sizes.snapshot(),
            split_rate: self.splits as f64 / slides,
            merge_rate: self.merges as f64 / slides,
        }
    }

    /// Structural churn counters folded from provenance:
    /// `(splits, merges, emerged, dissipated)`.
    pub fn churn_counts(&self) -> (u64, u64, u64, u64) {
        (self.splits, self.merges, self.emerged, self.dissipated)
    }
}

/// Clamps a unit-interval value to parts-per-million (the JSONL schema is
/// integer-only, like the slide-event schema).
pub fn ppm(v: f64) -> u64 {
    if !v.is_finite() || v <= 0.0 {
        0
    } else {
        (v * 1e6).round().min(1e6) as u64
    }
}

/// Parts-per-million back to the unit interval.
pub fn from_ppm(v: u64) -> f64 {
    v as f64 / 1e6
}

/// One slide's health record, as a flat integer JSONL line.
///
/// Fractions are parts-per-million (`*_ppm`); `drift_ppm` is the drift
/// score × 10⁶ saturated at 10⁹ (scores are σ units, not fractions).
/// `ari_ppm`/`nmi_ppm`/`purity_ppm` are only meaningful when `audited`
/// is 1 — the auditor ran on this slide.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthEvent {
    /// Slide sequence number (matches the slide-event `seq`).
    pub slide: u64,
    /// Distinct clusters in the window.
    pub clusters: u64,
    /// Label churn among window-surviving points, ppm.
    pub churn_ppm: u64,
    /// Noise fraction of the window, ppm.
    pub noise_ppm: u64,
    /// Ex-cores this slide over current cores, ppm.
    pub excore_ratio_ppm: u64,
    /// Drift score × 10⁶ (saturated).
    pub drift_ppm: u64,
    /// 1 when a drift change-point fired this slide.
    pub drift_changed: u64,
    /// 1 when the quality auditor ran this slide.
    pub audited: u64,
    /// Adjusted Rand index vs the DBSCAN oracle, ppm.
    pub ari_ppm: u64,
    /// Normalised mutual information vs the oracle, ppm.
    pub nmi_ppm: u64,
    /// Purity vs the oracle, ppm.
    pub purity_ppm: u64,
    /// Alert rules currently firing.
    pub alerts_active: u64,
}

/// The line: every key a non-negative integer.
impl JsonlRecord for HealthEvent {
    const NAME: &'static str = "health";
    const FIELDS: &'static [Field<Self>] = &[
        field!(uint slide),
        field!(uint clusters),
        field!(uint churn_ppm),
        field!(uint noise_ppm),
        field!(uint excore_ratio_ppm),
        field!(uint drift_ppm),
        field!(uint drift_changed),
        field!(uint audited),
        field!(uint ari_ppm),
        field!(uint nmi_ppm),
        field!(uint purity_ppm),
        field!(uint alerts_active),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_tracks_mean_and_scores_outliers() {
        let mut e = Ewma::new(0.1);
        for _ in 0..50 {
            e.observe(10.0);
        }
        assert!((e.mean() - 10.0).abs() < 1e-9);
        // A constant signal scores its own value at zero…
        assert_eq!(e.observe(10.0), 0.0);
        // …and a big excursion at a large positive z.
        assert!(e.observe(20.0) > 3.0);
        // Negative excursions score negative.
        let mut e = Ewma::new(0.1);
        for i in 0..100 {
            e.observe(10.0 + if i % 2 == 0 { 0.5 } else { -0.5 });
        }
        assert!(e.observe(5.0) < -3.0);
    }

    #[test]
    fn page_hinkley_needs_persistence_not_spikes() {
        let mut ph = PageHinkley::new(0.4, 15.0);
        // One huge spike followed by stationarity: no fire.
        assert!(!ph.observe(10.0));
        for _ in 0..100 {
            assert!(!ph.observe(0.0), "stationary tail must not fire");
        }
        // A persistent 2σ shift fires within a bounded number of slides.
        let mut ph = PageHinkley::new(0.4, 15.0);
        let mut fired_at = None;
        for i in 0..100 {
            if ph.observe(2.0) {
                fired_at = Some(i);
                break;
            }
        }
        assert!(fired_at.unwrap() <= 12, "fired at {fired_at:?}");
        // And symmetric downward shifts fire too.
        let mut ph = PageHinkley::new(0.4, 15.0);
        assert!((0..100).any(|_| ph.observe(-2.0)));
    }

    #[test]
    fn drift_monitor_scores_and_fires_on_step_change() {
        let mut m = DriftMonitor::standard(8);
        // Warmup + stationary phase: nothing fires, scores stay small.
        for _ in 0..200 {
            let v = m.observe(&[
                ("neighbor_mean", 40.0),
                ("noise_fraction", 0.1),
                ("arrival_shift", 0.5),
            ]);
            assert_eq!(v.changed, None);
        }
        // Step change in the neighbor count: fires within bounded slides.
        let mut fired = None;
        for i in 0..50 {
            let v = m.observe(&[
                ("neighbor_mean", 4.0),
                ("noise_fraction", 0.1),
                ("arrival_shift", 0.5),
            ]);
            assert!(v.score > 1.0, "step must score high");
            if let Some(signal) = v.changed {
                fired = Some((i, signal));
                break;
            }
        }
        let (at, signal) = fired.expect("step change must fire");
        assert!(at <= 20, "fired at {at}");
        assert_eq!(signal, "neighbor_mean");
        assert_eq!(m.changes(), 1);
    }

    #[test]
    fn drift_monitor_is_quiet_during_warmup() {
        let mut m = DriftMonitor::standard(32);
        for i in 0..32 {
            // Wild swings during calibration neither score nor fire.
            let v = m.observe(&[("neighbor_mean", if i % 2 == 0 { 1.0 } else { 100.0 })]);
            assert_eq!(v.score, 0.0);
            assert_eq!(v.changed, None);
        }
    }

    #[test]
    fn lifecycle_census_tracks_births_deaths_and_lifetimes() {
        let mut lc = LifecycleAnalytics::new();
        assert!(lc.observe_clusters(1, &[(0, 50), (1, 30)]).is_empty());
        assert!(lc.observe_clusters(2, &[(0, 55), (1, 10)]).is_empty());
        // Cluster 1 vanishes at slide 3; cluster 2 is born.
        let deaths = lc.observe_clusters(3, &[(0, 60), (2, 20)]);
        assert_eq!(
            deaths,
            vec![ClusterDeath {
                label: 1,
                lifetime: 2,
                size: 10
            }]
        );
        // A dead label is only reported once.
        assert!(lc.observe_clusters(4, &[(0, 60), (2, 25)]).is_empty());
        let s = lc.stats();
        assert_eq!((s.born, s.died, s.alive), (3, 1, 2));
        assert_eq!(s.lifetime.count, 1);
        assert_eq!(s.size_at_death.max, 10);
        let rec = lc.record(0).unwrap();
        assert_eq!((rec.born, rec.last_seen, rec.died), (1, 4, None));
        assert_eq!(rec.peak_size, 60);
    }

    #[test]
    fn lifecycle_folds_provenance_churn() {
        let mut lc = LifecycleAnalytics::new();
        let ev = |slide, kind| ProvenanceEvent { slide, kind };
        lc.observe_provenance(&ev(
            2,
            ProvenanceKind::ClusterEmerged {
                cluster: 7,
                rep: 1,
                size: 4,
            },
        ));
        lc.observe_provenance(&ev(
            3,
            ProvenanceKind::ClusterSplit {
                old: 7,
                parts: 2,
                rep: 1,
            },
        ));
        lc.observe_provenance(&ev(
            4,
            ProvenanceKind::ClusterMerge {
                winner: 7,
                merged: 2,
                rep: 1,
            },
        ));
        lc.observe_provenance(&ev(5, ProvenanceKind::ClusterDied { rep: 9, size: 3 }));
        assert_eq!(lc.churn_counts(), (1, 1, 1, 1));
        assert_eq!(lc.record(7).unwrap().born, 2);
        // Census slides set the churn-rate denominator.
        lc.observe_clusters(3, &[(7, 4)]);
        lc.observe_clusters(4, &[(7, 4)]);
        let s = lc.stats();
        assert_eq!(s.split_rate, 0.5);
        assert_eq!(s.merge_rate, 0.5);
    }

    #[test]
    fn ppm_clamps_and_round_trips() {
        assert_eq!(ppm(0.5), 500_000);
        assert_eq!(ppm(-0.1), 0);
        assert_eq!(ppm(2.0), 1_000_000);
        assert_eq!(ppm(f64::NAN), 0);
        assert!((from_ppm(ppm(0.123456)) - 0.123456).abs() < 1e-6);
    }

    #[test]
    fn health_event_round_trips_and_validates_strictly() {
        let ev = HealthEvent {
            slide: 9,
            clusters: 4,
            churn_ppm: 12_000,
            noise_ppm: 81_000,
            excore_ratio_ppm: 5_000,
            drift_ppm: 2_400_000,
            drift_changed: 1,
            audited: 1,
            ari_ppm: 993_000,
            nmi_ppm: 981_000,
            purity_ppm: 1_000_000,
            alerts_active: 2,
        };
        let line = ev.to_jsonl();
        HealthEvent::assert_valid_jsonl(&line);
        assert_eq!(HealthEvent::from_jsonl(&line).unwrap(), ev);
        HealthEvent::assert_valid_jsonl(&HealthEvent::default().to_jsonl());

        let missing = line.replace("\"audited\":1,", "");
        assert!(HealthEvent::validate_jsonl(&missing)
            .unwrap_err()
            .contains("audited"));
        let unknown = line.replace("\"audited\":1", "\"audited\":1,\"bogus\":2");
        assert!(HealthEvent::validate_jsonl(&unknown)
            .unwrap_err()
            .contains("bogus"));
        let wrong = line.replace("\"audited\":1", "\"audited\":-1");
        assert!(HealthEvent::validate_jsonl(&wrong).is_err());
        assert!(HealthEvent::validate_jsonl("[]").is_err());
    }
}
