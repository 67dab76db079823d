//! The standard [`Recorder`] implementation: a named-metric registry.

use crate::event::SlideEvent;
use crate::hist::{HistSnapshot, LogHistogram};
use crate::provenance::ProvenanceEvent;
use crate::recorder::Recorder;
use crate::sink::{EventSink, ProvenanceSink};
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    /// Labeled gauge families: name → (label_key, label_value) → sample.
    labeled_gauges: BTreeMap<&'static str, BTreeMap<(&'static str, String), f64>>,
    histograms: BTreeMap<&'static str, LogHistogram>,
    events_emitted: u64,
    provenance_emitted: u64,
}

/// A thread-safe metric registry plus an optional event sink.
///
/// Engines publish through the [`Recorder`] trait; exporters read back via
/// [`render_prometheus`](Registry::render_prometheus) (exposition text) or
/// the typed accessors. Names are `&'static str`, sorted deterministically
/// (BTreeMap) so renders are stable across runs.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
    sink: Option<Box<dyn EventSink>>,
    prov_sink: Option<Box<dyn ProvenanceSink>>,
}

impl Registry {
    /// An empty registry with no event sink.
    pub fn new() -> Self {
        Registry::default()
    }

    /// An empty registry forwarding slide events to `sink`.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            sink: Some(sink),
            prov_sink: None,
        }
    }

    /// Builder: forwards provenance events to `sink` (call before sharing
    /// the registry behind an `Arc`).
    pub fn with_provenance(mut self, sink: Box<dyn ProvenanceSink>) -> Self {
        self.prov_sink = Some(sink);
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("telemetry registry poisoned")
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Current value of the `{label_key="label_value"}` sample of gauge
    /// family `name`.
    pub fn labeled_gauge_value(
        &self,
        name: &str,
        label_key: &str,
        label_value: &str,
    ) -> Option<f64> {
        self.lock()
            .labeled_gauges
            .get(name)?
            .iter()
            .find(|((k, v), _)| *k == label_key && v == label_value)
            .map(|(_, value)| *value)
    }

    /// All samples of gauge family `name`, as
    /// `((label_key, label_value), sample)` in label order.
    pub fn labeled_gauge_samples(&self, name: &str) -> Vec<((&'static str, String), f64)> {
        self.lock()
            .labeled_gauges
            .get(name)
            .map(|family| family.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// Summary snapshot of histogram `name`.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistSnapshot> {
        self.lock().histograms.get(name).map(|h| h.snapshot())
    }

    /// Events emitted through this registry so far.
    pub fn events_emitted(&self) -> u64 {
        self.lock().events_emitted
    }

    /// Provenance events emitted through this registry so far.
    pub fn provenance_emitted(&self) -> u64 {
        self.lock().provenance_emitted
    }

    /// Names of all counters touched so far.
    pub fn counter_names(&self) -> Vec<&'static str> {
        self.lock().counters.keys().copied().collect()
    }

    /// Renders the whole registry in Prometheus text exposition format
    /// (version 0.0.4). Histograms named `*_seconds` have their
    /// nanosecond samples converted to seconds.
    pub fn render_prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, value) in &inner.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &inner.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, family) in &inner.labeled_gauges {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for ((key, label), value) in family {
                out.push_str(&format!("{name}{{{key}=\"{label}\"}} {value}\n"));
            }
        }
        for (name, hist) in &inner.histograms {
            let scale = if name.ends_with("_seconds") {
                1e-9
            } else {
                1.0
            };
            out.push_str(&format!("# TYPE {name} histogram\n"));
            hist.for_each_cumulative(|le, cum| {
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    le as f64 * scale
                ));
            });
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", hist.count()));
            out.push_str(&format!("{name}_sum {}\n", hist.sum() as f64 * scale));
            out.push_str(&format!("{name}_count {}\n", hist.count()));
        }
        out
    }

    /// Flushes the attached sinks, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
        if let Some(sink) = &self.prov_sink {
            sink.flush();
        }
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Recorder for Registry {
    fn counter_add(&self, name: &'static str, delta: u64) {
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.lock().gauges.insert(name, value);
    }

    fn gauge_set_labeled(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: &str,
        value: f64,
    ) {
        // A family must be plain or labeled, never both, or the exposition
        // would carry two `# TYPE` headers for one name.
        self.lock()
            .labeled_gauges
            .entry(name)
            .or_default()
            .insert((label_key, label_value.to_string()), value);
    }

    fn record_nanos(&self, name: &'static str, nanos: u64) {
        self.lock()
            .histograms
            .entry(name)
            .or_default()
            .record(nanos);
    }

    fn emit(&self, event: &SlideEvent) {
        self.lock().events_emitted += 1;
        if let Some(sink) = &self.sink {
            sink.emit(event);
        }
    }

    fn emit_provenance(&self, event: &ProvenanceEvent) {
        self.lock().provenance_emitted += 1;
        if let Some(sink) = &self.prov_sink {
            sink.emit(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use std::sync::Arc;

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let r = Registry::new();
        r.counter_add("a_total", 2);
        r.counter_add("a_total", 3);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        for v in [100u64, 200, 300] {
            r.record_nanos("h_seconds", v);
        }
        assert_eq!(r.counter_value("a_total"), 5);
        assert_eq!(r.counter_value("untouched"), 0);
        assert_eq!(r.gauge_value("g"), Some(2.5));
        let h = r.histogram_snapshot("h_seconds").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 600);
        assert_eq!(h.max, 300);
        assert_eq!(r.counter_names(), vec!["a_total"]);
    }

    #[test]
    fn labeled_gauges_store_and_render_per_label() {
        let r = Registry::new();
        r.gauge_set_labeled("disc_mem_bytes", "component", "points", 100.0);
        r.gauge_set_labeled("disc_mem_bytes", "component", "index", 50.0);
        r.gauge_set_labeled("disc_mem_bytes", "component", "points", 120.0);
        assert_eq!(
            r.labeled_gauge_value("disc_mem_bytes", "component", "points"),
            Some(120.0)
        );
        assert_eq!(
            r.labeled_gauge_value("disc_mem_bytes", "component", "missing"),
            None
        );
        let samples = r.labeled_gauge_samples("disc_mem_bytes");
        assert_eq!(samples.len(), 2);
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE disc_mem_bytes gauge").count(), 1);
        assert!(text.contains("disc_mem_bytes{component=\"points\"} 120\n"));
        assert!(text.contains("disc_mem_bytes{component=\"index\"} 50\n"));
        // The render round-trips through the workspace's own parser.
        crate::prom::parse_prometheus(&text).unwrap();
    }

    #[test]
    fn emit_counts_and_forwards_to_sink() {
        let sink: Arc<MemorySink> = Arc::new(MemorySink::new());
        let r = Registry::with_sink(Box::new(sink.clone()));
        assert_eq!(r.events_emitted(), 0);
        r.emit(&SlideEvent::default());
        assert_eq!(r.events_emitted(), 1);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn provenance_counts_and_forwards_to_its_sink() {
        use crate::provenance::ProvenanceKind;
        let sink = Arc::new(MemorySink::<ProvenanceEvent>::new());
        let r = Registry::new().with_provenance(Box::new(sink.clone()));
        assert_eq!(r.provenance_emitted(), 0);
        r.emit_provenance(&ProvenanceEvent {
            slide: 3,
            kind: ProvenanceKind::NeoCoreDetected { id: 9 },
        });
        assert_eq!(r.provenance_emitted(), 1);
        assert_eq!(r.events_emitted(), 0, "slide-event channel untouched");
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events()[0].slide, 3);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    r.counter_add("t_total", 1);
                    r.record_nanos("t_seconds", 1000);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter_value("t_total"), 400);
        assert_eq!(r.histogram_snapshot("t_seconds").unwrap().count, 400);
    }
}
