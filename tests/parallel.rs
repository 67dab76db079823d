//! Tier-1 smoke for the parallel slide engine, through the `disc` facade:
//! the wide engine must produce bit-identical output to the sequential
//! one at every width, on both backends. The exhaustive matrix (five
//! datasets, randomised streams, provenance multisets) lives in
//! `crates/core/tests/parallel_exactness.rs`; this keeps a representative
//! slice in the default `cargo test` tier so the guarantee cannot rot
//! unnoticed.

use disc::index::{GridIndex, RTree, SpatialBackend};
use disc::prelude::*;

fn lockstep<const D: usize, B: SpatialBackend<D>>(records: Vec<Record<D>>) {
    let widths = [2usize, 4];
    let mut oracle: Disc<D, B> = Disc::with_index(DiscConfig::new(1.0, 5).with_threads(1));
    let mut wide: Vec<Disc<D, B>> = widths
        .iter()
        .map(|&t| Disc::with_index(DiscConfig::new(1.0, 5).with_threads(t)))
        .collect();
    let mut w = SlidingWindow::new(records, 250, 60);
    let mut batch = Some(w.fill());
    let mut slides = 0;
    while let Some(b) = batch {
        slides += 1;
        let want = oracle.apply(&b);
        for (d, &t) in wide.iter_mut().zip(&widths) {
            let got = d.apply(&b);
            assert_eq!(got.ex_cores, want.ex_cores, "width {t}");
            assert_eq!(got.neo_cores, want.neo_cores, "width {t}");
            assert_eq!(
                d.assignments(),
                oracle.assignments(),
                "width {t} diverged at slide {slides}"
            );
        }
        batch = w.advance();
    }
    assert!(slides > 3, "stream too short to exercise evolution");
}

#[test]
fn wide_engine_is_bit_identical_on_rtree() {
    lockstep::<2, RTree<2>>(datasets::gaussian_blobs::<2>(900, 4, 0.6, 7));
}

#[test]
fn wide_engine_is_bit_identical_on_grid() {
    lockstep::<2, GridIndex<2>>(datasets::gaussian_blobs::<2>(900, 4, 0.6, 7));
}
