//! The telemetry layer as the benchmark drives it: a timing proxy around
//! the `Registry`, and a byte-counting writer under the JSONL sink.

use disc_telemetry::{ProvenanceEvent, Recorder, Registry, SlideEvent};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Forwards every call to a [`Registry`], counting the calls and, while
/// timing is on, the nanoseconds spent inside them. The counters are
/// statistics that publish no other data, hence `Relaxed`.
pub struct TimedRecorder {
    inner: Arc<Registry>,
    timing: AtomicBool,
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl TimedRecorder {
    pub fn new(inner: Arc<Registry>) -> Self {
        TimedRecorder {
            inner,
            timing: AtomicBool::new(false),
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Turns the clock around forwarded calls on or off.
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Relaxed);
    }

    /// Nanoseconds spent inside the registry while timing was on.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Relaxed)
    }

    /// Calls forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    fn forward(&self, call: impl FnOnce(&Registry)) {
        self.calls.fetch_add(1, Relaxed);
        if self.timing.load(Relaxed) {
            let started = Instant::now();
            call(&self.inner);
            self.nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        } else {
            call(&self.inner);
        }
    }
}

impl Recorder for TimedRecorder {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.forward(|r| r.counter_add(name, delta));
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.forward(|r| r.gauge_set(name, value));
    }

    fn gauge_set_labeled(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: &str,
        value: f64,
    ) {
        self.forward(|r| r.gauge_set_labeled(name, label_key, label_value, value));
    }

    fn record_nanos(&self, name: &'static str, nanos: u64) {
        self.forward(|r| r.record_nanos(name, nanos));
    }

    fn emit(&self, event: &SlideEvent) {
        self.forward(|r| r.emit(event));
    }

    fn emit_provenance(&self, event: &ProvenanceEvent) {
        self.forward(|r| r.emit_provenance(event));
    }
}

/// A writer that counts the bytes it passes on.
pub struct CountingWriter<W> {
    inner: W,
    bytes: Arc<AtomicU64>,
}

impl<W> CountingWriter<W> {
    /// Wraps `inner`; returns the writer and its shared byte count.
    pub fn new(inner: W) -> (Self, Arc<AtomicU64>) {
        let bytes = Arc::new(AtomicU64::new(0));
        (
            CountingWriter {
                inner,
                bytes: bytes.clone(),
            },
            bytes,
        )
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.fetch_add(n as u64, Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{Disc, DiscConfig};
    use disc_index::GridIndex;
    use disc_telemetry::{JsonlSink, SharedRecorder};
    use disc_window::{datasets, SlidingWindow};
    use std::sync::Mutex;

    /// A `Write` target whose contents the test can read back.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .expect("test buffer poisoned")
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Runs a short dtg stream with the registry behind `wrap`; returns the
    /// registry's exposition text and the JSONL lines without their
    /// wall-clock fields.
    fn run(wrap: impl Fn(Arc<Registry>) -> SharedRecorder) -> (String, Vec<String>) {
        let out = Shared::default();
        let registry = Arc::new(Registry::with_sink(Box::new(JsonlSink::new(out.clone()))));
        let mut disc: Disc<2, GridIndex<2>> = Disc::with_index(DiscConfig::new(0.45, 12));
        disc.set_recorder(wrap(registry.clone()));
        let mut w = SlidingWindow::new(datasets::dtg_like(6_000, 5), 2_000, 100);
        disc.apply(&w.fill());
        while let Some(batch) = w.advance() {
            disc.apply(&batch);
        }
        registry.flush();
        // Timings and the process RSS differ between any two runs;
        // everything else must not.
        let timeless = |text: &str| -> String {
            text.lines()
                .filter(|l| !l.contains("seconds") && !l.contains("rss"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let bytes = out.0.lock().expect("test buffer poisoned").clone();
        let lines = String::from_utf8(bytes)
            .expect("JSONL is UTF-8")
            .lines()
            .map(|l| {
                l.split(',')
                    .filter(|f| !f.contains("_ns\":"))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        (timeless(&registry.render_prometheus()), lines)
    }

    #[test]
    fn timing_proxy_changes_nothing_the_registry_records() {
        let direct = run(|r| r);
        let proxy = Arc::new(Mutex::new(None::<Arc<TimedRecorder>>));
        let proxied = run(|r| {
            let p = Arc::new(TimedRecorder::new(r));
            p.set_timing(true);
            *proxy.lock().expect("test slot poisoned") = Some(p.clone());
            p
        });
        assert!(!direct.0.is_empty() && !direct.1.is_empty());
        assert_eq!(direct, proxied);
        let p = proxy
            .lock()
            .expect("test slot poisoned")
            .clone()
            .expect("proxy built");
        assert!(p.calls() > 0 && p.nanos() > 0);
    }

    #[test]
    fn counting_writer_counts_what_it_passes_on() {
        let (mut w, bytes) = CountingWriter::new(Vec::new());
        w.write_all(b"hello\n").unwrap();
        w.write_all(b"world").unwrap();
        assert_eq!(bytes.load(Relaxed), 11);
        assert_eq!(w.inner, b"hello\nworld");
    }
}
