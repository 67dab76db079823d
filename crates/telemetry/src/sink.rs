//! Pluggable sinks for the structured event streams: one trait, one JSONL
//! writer and one in-memory buffer, each generic over the event it carries.
//!
//! A sink never returns an error to the emitter. [`JsonlSink`] records
//! its first I/O error instead; whoever opened the file checks
//! [`JsonlSink::error`] and fails the run.

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

/// Writes one JSON line per event to any `Write` target — the CLI's five
/// `--*-out` streams. An I/O error never reaches the emitter (telemetry
/// must not take the engine down): the sink keeps the first one, writes
/// nothing after it, and reports it through [`JsonlSink::error`], so a
/// caller can fail the run that asked for the file.
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<(std::io::BufWriter<W>, Option<std::io::Error>)>,
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
            out: Mutex::new((std::io::BufWriter::new(out), None)),
        }
    }

    /// The first I/O error a write or flush hit, if any (a copy: the sink
    /// keeps it).
    pub fn error(&self) -> Option<std::io::Error> {
        let (_, error) = &*self.out.lock().expect("jsonl sink poisoned");
        error
            .as_ref()
            .map(|e| std::io::Error::new(e.kind(), e.to_string()))
    }

    /// Writes the buffer out, keeping the error if that fails.
    pub fn flush(&self) {
        self.write(|out| out.flush());
    }

    /// Runs `op` on the writer unless an earlier one failed, keeping its
    /// error.
    fn write(&self, op: impl FnOnce(&mut std::io::BufWriter<W>) -> std::io::Result<()>) {
        let (out, error) = &mut *self.out.lock().expect("jsonl sink poisoned");
        if error.is_none() {
            *error = op(out).err();
        }
    }
}

impl<W: Write + Send, R: JsonlRecord> Sink<R> for JsonlSink<W> {
    fn emit(&self, event: &R) {
        self.write(|out| writeln!(out, "{}", event.to_jsonl()));
    }

    fn flush(&self) {
        JsonlSink::flush(self);
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
        let out = sink.out.into_inner().unwrap().0.into_inner().unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            SlideEvent::validate_jsonl(line).unwrap();
        }
    }

    /// A writer that takes `room` bytes, then fails every write.
    struct Full {
        room: usize,
        writes: usize,
    }

    impl Write for Full {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if buf.len() > self.room {
                return Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "full"));
            }
            self.room -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_keeps_its_first_io_error_and_stops_writing() {
        let sink = JsonlSink::new(Full {
            room: 10,
            writes: 0,
        });
        let ev = SlideEvent::default();
        sink.emit(&ev);
        assert!(sink.error().is_none(), "the line is still buffered");
        sink.flush();
        let err = sink.error().expect("the flush hit the full writer");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert_eq!(err.to_string(), "full");
        // Nothing is attempted after the first error, and it stays put.
        sink.emit(&ev);
        Sink::<SlideEvent>::flush(&sink);
        assert_eq!(sink.error().unwrap().to_string(), "full");
        let (out, _) = sink.out.into_inner().unwrap();
        assert_eq!(out.get_ref().writes, 1);
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
