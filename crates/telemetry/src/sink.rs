//! Pluggable sinks for the structured event streams: one trait, one JSONL
//! writer and one in-memory buffer, each generic over the event it carries.

use crate::event::SlideEvent;
use crate::provenance::ProvenanceEvent;
use crate::record::JsonlRecord;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Receives every event of type `E` a recorder is asked to emit. Sinks
/// must be shareable across threads (the engine publishes, an exporter
/// thread may flush).
pub trait Sink<E>: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &E);

    /// Flushes any buffering (called on drop of the owning registry and by
    /// drivers at end of run).
    fn flush(&self) {}
}

/// A sink of [`SlideEvent`]s, as [`crate::Registry::with_sink`] takes it.
pub trait EventSink: Sink<SlideEvent> {}
impl<S: Sink<SlideEvent> + ?Sized> EventSink for S {}

/// A sink of [`ProvenanceEvent`]s, as [`crate::Registry::with_provenance`] takes it.
pub trait ProvenanceSink: Sink<ProvenanceEvent> {}
impl<S: Sink<ProvenanceEvent> + ?Sized> ProvenanceSink for S {}

/// A shared sink: the registry owns one handle, a test or the CLI keeps
/// another to read back what was emitted.
impl<E, S: Sink<E> + ?Sized> Sink<E> for Arc<S> {
    fn emit(&self, event: &E) {
        (**self).emit(event);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

/// Writes one JSON line per event to any `Write` target — the
/// `--metrics-out` and `--provenance-out` sink. An I/O error drops the
/// line: telemetry must never take the engine down.
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<std::io::BufWriter<W>>,
}

impl JsonlSink<std::fs::File> {
    /// Creates (truncating) `path` and writes events to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(std::fs::File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Mutex::new(std::io::BufWriter::new(out)),
        }
    }
}

impl<W: Write + Send, R: JsonlRecord> Sink<R> for JsonlSink<W> {
    fn emit(&self, event: &R) {
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        let _ = writeln!(out, "{}", event.to_jsonl());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Buffers events of type `E` in memory — the test sink.
pub struct MemorySink<E = SlideEvent> {
    events: Mutex<Vec<E>>,
}

impl<E> Default for MemorySink<E> {
    fn default() -> Self {
        MemorySink {
            events: Mutex::new(Vec::new()),
        }
    }
}

impl<E: Clone> MemorySink<E> {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A copy of everything emitted so far.
    pub fn events(&self) -> Vec<E> {
        self.lock().clone()
    }

    /// Number of events emitted so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<E>> {
        self.events.lock().expect("memory sink poisoned")
    }
}

impl<E: Clone + Send> Sink<E> for MemorySink<E> {
    fn emit(&self, event: &E) {
        self.lock().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_valid_lines() {
        let buf: Vec<u8> = Vec::new();
        let sink = JsonlSink::new(buf);
        let ev = SlideEvent {
            seq: 1,
            engine: "disc",
            backend: "rtree",
            ..SlideEvent::default()
        };
        sink.emit(&ev);
        sink.emit(&ev);
        let out = sink.out.into_inner().unwrap().into_inner().unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            SlideEvent::validate_jsonl(line).unwrap();
        }
    }

    #[test]
    fn memory_sink_accumulates() {
        let sink: MemorySink = MemorySink::new();
        assert!(sink.is_empty());
        sink.emit(&SlideEvent::default());
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events()[0], SlideEvent::default());
    }
}
