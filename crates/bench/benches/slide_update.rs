//! Criterion micro-bench: one sliding-window update per method.
//!
//! The per-slide counterpart of the paper's Fig. 4 at a fixed 5% stride,
//! for regression tracking of the hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use disc_baselines::{Dbscan, ExtraN, IncDbscan, RhoDbscan, WindowClusterer};
use disc_core::{Disc, DiscConfig};
use disc_window::{datasets, SlidingWindow};

const WINDOW: usize = 4_000;
const STRIDE: usize = 200;
const EPS: f64 = 0.45;
const TAU: usize = 8;

fn bench_method<M, F>(c: &mut Criterion, name: &str, make: F)
where
    M: WindowClusterer<2>,
    F: Fn() -> M,
{
    let recs = datasets::dtg_like(WINDOW + STRIDE * 600, 7);
    c.bench_function(&format!("slide_update/{name}"), |b| {
        // One long stream; each iteration applies the next slide. Setup
        // (fill) happens outside the timed region.
        let mut w = SlidingWindow::new(recs.clone(), WINDOW, STRIDE);
        let mut m = make();
        m.apply(&w.fill());
        b.iter(|| {
            let batch = match w.advance() {
                Some(b) => b,
                None => {
                    // Stream exhausted: restart.
                    w = SlidingWindow::new(recs.clone(), WINDOW, STRIDE);
                    m = make();
                    let fill = w.fill();
                    m.apply(&fill);
                    w.advance().expect("fresh stream has slides")
                }
            };
            m.apply(&batch);
        });
    });
}

fn benches(c: &mut Criterion) {
    bench_method(c, "disc", || Disc::new(DiscConfig::new(EPS, TAU)));
    bench_method(c, "disc_no_opts", || {
        Disc::new(
            DiscConfig::new(EPS, TAU)
                .without_msbfs()
                .without_epoch_probe(),
        )
    });
    bench_method(c, "incdbscan", || IncDbscan::new(EPS, TAU));
    bench_method(c, "extran", || ExtraN::new(EPS, TAU, WINDOW, STRIDE));
    bench_method(c, "rho2_dbscan", || RhoDbscan::new(EPS, TAU, 0.001));
    bench_method(c, "dbscan_scratch", || Dbscan::new(EPS, TAU));
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(group);
