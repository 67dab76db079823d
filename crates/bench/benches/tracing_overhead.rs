//! Criterion micro-bench: cost of the tracing instrumentation.
//!
//! Three variants of the same DISC slide workload: tracer disabled (the
//! default — every span site must cost no more than one branch), tracer
//! enabled with per-slide drains (the `--trace-out` configuration), and
//! tracer enabled with provenance recording on top. The disabled/absent
//! gap is the number the "tracing is free when off" claim rests on.

use criterion::{criterion_group, criterion_main, Criterion};
use disc_core::{Disc, DiscConfig};
use disc_telemetry::{ProvenanceEvent, Registry, Sink, Tracer};
use disc_window::{datasets, SlidingWindow};
use std::hint::black_box;
use std::sync::Arc;

const WINDOW: usize = 4_000;
const STRIDE: usize = 200;
const EPS: f64 = 0.45;
const TAU: usize = 8;

/// Swallows events so the bench measures emission, not I/O.
struct NullSink;
impl Sink<ProvenanceEvent> for NullSink {
    fn emit(&self, _event: &ProvenanceEvent) {}
}

fn bench_variant<F>(c: &mut Criterion, name: &str, make: F)
where
    F: Fn() -> Disc<2>,
{
    let recs = datasets::dtg_like(WINDOW + STRIDE * 600, 7);
    let drain = name != "disabled";
    c.bench_function(&format!("tracing_overhead/{name}"), |b| {
        let mut w = SlidingWindow::new(recs.clone(), WINDOW, STRIDE);
        let mut m = make();
        m.apply(&w.fill());
        b.iter(|| {
            let batch = match w.advance() {
                Some(b) => b,
                None => {
                    w = SlidingWindow::new(recs.clone(), WINDOW, STRIDE);
                    m = make();
                    let fill = w.fill();
                    m.apply(&fill);
                    w.advance().expect("fresh stream has slides")
                }
            };
            m.apply(&batch);
            if drain {
                // Per-slide drain, exactly as the CLI collects spans.
                black_box(m.drain_spans());
            }
        });
    });
}

fn benches(c: &mut Criterion) {
    bench_variant(c, "disabled", || Disc::new(DiscConfig::new(EPS, TAU)));
    bench_variant(c, "spans", || {
        Disc::new(DiscConfig::new(EPS, TAU)).with_tracer(Tracer::new())
    });
    bench_variant(c, "spans_and_provenance", || {
        let reg = Arc::new(Registry::new().with_provenance(Box::new(NullSink)));
        Disc::new(DiscConfig::new(EPS, TAU))
            .with_recorder(reg)
            .with_tracer(Tracer::new())
    });
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(group);
