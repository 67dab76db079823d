//! Parallel exactness: the wide slide engine must be **bit-identical** to
//! the sequential oracle, slide by slide, at every worker width.
//!
//! Only COLLECT's ε-ball gather runs wide; every other phase takes the same
//! sequential code at every width. The sequential engine (`threads = 1`)
//! gathers inline with one bulk traversal, so it serves as the oracle
//! here, and is itself certified DBSCAN-equivalent by `exactness.rs`. A
//! wide engine must then reproduce, for every slide:
//!
//! * the exact label vector — cluster-id choices included, not merely the
//!   induced partition;
//! * the algorithmic slide counters (ex-/neo-cores, classes, splits,
//!   merges, emergences, adoptions, MS-BFS instances/starters/rounds), the
//!   index mutation counters (inserts/removes) and the search counters
//!   (`range_searches`, `epoch_probes`);
//! * the provenance event multiset.
//!
//! Deliberately *not* compared: `nodes_visited`, `distance_checks` and
//! `subtrees_pruned`. The wide gather splits the multi-ball traversal into
//! fixed chunks of centers, so those counters measure a different — equally
//! valid — walk over the same index. The *answers*, every search and every
//! mutation must still coincide.

use disc_core::{Disc, DiscConfig, SlideStats};
use disc_index::{GridIndex, RTree, SpatialBackend};
use disc_telemetry::{JsonlRecord, MemorySink, ProvenanceEvent, Registry};
use disc_window::{datasets, Record, SlidingWindow};
use proptest::prelude::*;
use std::sync::Arc;

fn instrumented<const D: usize, B: SpatialBackend<D>>(
    cfg: DiscConfig,
) -> (Disc<D, B>, Arc<MemorySink<ProvenanceEvent>>) {
    let sink = Arc::new(MemorySink::new());
    let reg = Arc::new(Registry::new().with_provenance(Box::new(sink.clone())));
    (Disc::with_index(cfg).with_recorder(reg), sink)
}

/// The slide counters that describe *what the algorithm decided* and which
/// searches it ran, as opposed to how the index happened to be walked.
fn algo_sig(s: &SlideStats) -> [u64; 17] {
    [
        s.inserted as u64,
        s.removed as u64,
        s.ex_cores as u64,
        s.neo_cores as u64,
        s.ex_classes as u64,
        s.neo_classes as u64,
        s.splits as u64,
        s.merges as u64,
        s.emerged as u64,
        s.adoption_searches as u64,
        s.msbfs_instances as u64,
        s.msbfs_starters as u64,
        s.msbfs_rounds as u64,
        s.index.inserts,
        s.index.removes,
        s.index.range_searches,
        s.index.epoch_probes,
    ]
}

/// The provenance stream as a canonical multiset (sorted JSONL lines).
fn prov_multiset(sink: &MemorySink<ProvenanceEvent>) -> Vec<String> {
    let mut lines: Vec<String> = sink.events().iter().map(|e| e.to_jsonl()).collect();
    lines.sort_unstable();
    lines
}

/// Drives one sequential engine and one wide engine per width in lockstep
/// over the stream, asserting bit-identity after every slide.
fn lockstep<const D: usize, B: SpatialBackend<D>>(
    records: Vec<Record<D>>,
    window: usize,
    stride: usize,
    eps: f64,
    tau: usize,
    widths: &[usize],
    tag: &str,
) {
    let (mut oracle, oracle_sink) = instrumented::<D, B>(DiscConfig::new(eps, tau).with_threads(1));
    let mut wide: Vec<(usize, Disc<D, B>, Arc<MemorySink<ProvenanceEvent>>)> = widths
        .iter()
        .map(|&t| {
            let (d, s) = instrumented::<D, B>(DiscConfig::new(eps, tau).with_threads(t));
            assert_eq!(d.worker_width(), t);
            (t, d, s)
        })
        .collect();

    let mut w = SlidingWindow::new(records, window, stride);
    let mut slide = 0u64;
    let mut batch = Some(w.fill());
    while let Some(b) = batch {
        slide += 1;
        let want = algo_sig(&oracle.apply(&b));
        for (t, d, sink) in &mut wide {
            let got = algo_sig(&d.apply(&b));
            assert_eq!(
                got, want,
                "{tag}: slide {slide} counters diverged at width {t}"
            );
            assert_eq!(
                d.labels(),
                oracle.labels(),
                "{tag}: slide {slide} labels diverged at width {t}"
            );
            assert_eq!(
                d.assignments(),
                oracle.assignments(),
                "{tag}: slide {slide} assignments diverged at width {t}"
            );
            assert_eq!(
                prov_multiset(sink),
                prov_multiset(&oracle_sink),
                "{tag}: slide {slide} provenance diverged at width {t}"
            );
            d.check_invariants();
        }
        oracle.check_invariants();
        batch = w.advance();
    }
    assert!(slide > 3, "{tag}: stream too short to exercise evolution");
}

/// Both backends, all widths, one dataset.
fn lockstep_both<const D: usize>(
    records: Vec<Record<D>>,
    window: usize,
    stride: usize,
    eps: f64,
    tau: usize,
    tag: &str,
) {
    let widths = [2usize, 4, 8];
    lockstep::<D, RTree<D>>(
        records.clone(),
        window,
        stride,
        eps,
        tau,
        &widths,
        &format!("{tag}/rtree"),
    );
    lockstep::<D, GridIndex<D>>(
        records,
        window,
        stride,
        eps,
        tau,
        &widths,
        &format!("{tag}/grid"),
    );
}

// The five fixed datasets of the acceptance matrix: blobs (stable
// clusters), maze (splits/merges on corridors), dtg (trajectory drift),
// covid (heavy noise churn), multi-density (order-of-magnitude density
// contrast). Each runs both backends at widths {1, 2, 4, 8}.

#[test]
fn parallel_matches_sequential_on_blobs() {
    let recs = datasets::gaussian_blobs::<2>(900, 4, 0.6, 7);
    lockstep_both(recs, 250, 60, 1.0, 5, "blobs");
}

#[test]
fn parallel_matches_sequential_on_maze() {
    let recs = datasets::maze(900, 12, 3);
    lockstep_both(recs, 250, 60, 0.6, 5, "maze");
}

#[test]
fn parallel_matches_sequential_on_dtg() {
    let recs = datasets::dtg_like(900, 5);
    lockstep_both(recs, 300, 75, 0.6, 4, "dtg");
}

#[test]
fn parallel_matches_sequential_on_covid() {
    let recs = datasets::covid_like(900, 11);
    lockstep_both(recs, 250, 50, 1.2, 5, "covid");
}

#[test]
fn parallel_matches_sequential_on_multi_density() {
    let recs = datasets::multi_density::<2>(900, 3, 47);
    lockstep_both(recs, 300, 80, 0.8, 4, "multi_density");
}

/// Higher dimensions exercise different ball geometries (and the 4-D grid
/// cells are much coarser relative to ε).
#[test]
fn parallel_matches_sequential_in_3d_and_4d() {
    lockstep_both(
        datasets::geolife_like(700, 17),
        250,
        60,
        1.0,
        5,
        "geolife3d",
    );
    lockstep_both(datasets::iris_like(700, 13), 250, 60, 2.0, 5, "iris4d");
}

/// Full-turnover and tiny-stride edges: stride == window rebuilds the
/// whole population every slide (COLLECT dominates); stride ≪ window
/// maximises incremental churn (CLUSTER + adoption dominate).
#[test]
fn parallel_matches_sequential_at_stride_extremes() {
    let recs = datasets::gaussian_blobs::<2>(700, 3, 0.5, 41);
    lockstep_both(recs.clone(), 175, 175, 1.0, 5, "turnover");
    lockstep_both(recs, 200, 10, 1.0, 5, "tiny_stride");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised streams (clusters + heavy uniform noise in a small box,
    /// so splits and merges fire constantly), random ε/τ/window/stride and
    /// a random width: the wide engine must stay in bit-identical lockstep
    /// with the sequential oracle on both backends.
    #[test]
    fn random_streams_are_width_invariant(
        seed in 0u64..5000,
        eps in 0.6..2.0f64,
        tau in 2usize..6,
        window in 60usize..160,
        stride_frac in 1usize..10,
        width in 2usize..9,
    ) {
        let stride = (window * stride_frac / 10).max(1);
        let mut recs = datasets::gaussian_blobs::<2>(400, 3, 1.0, seed);
        let noise = datasets::uniform::<2>(100, 25.0, seed ^ 0xdead);
        for (i, n) in noise.into_iter().enumerate() {
            recs.insert((i * 5) % recs.len(), n);
        }
        let widths = [width];
        lockstep::<2, RTree<2>>(
            recs.clone(), window, stride, eps, tau, &widths, "prop/rtree",
        );
        lockstep::<2, GridIndex<2>>(
            recs, window, stride, eps, tau, &widths, "prop/grid",
        );
    }
}

/// Width 0 resolves to the host's parallelism; whatever that is, the
/// result must match the oracle (the lockstep above pins explicit widths,
/// this pins the auto path end to end).
#[test]
fn auto_width_matches_sequential() {
    let recs = datasets::gaussian_blobs::<2>(600, 3, 0.6, 23);
    let mut w = SlidingWindow::new(recs, 200, 50);
    let mut seq: Disc<2> = Disc::new(DiscConfig::new(1.0, 5).with_threads(1));
    let mut auto: Disc<2> = Disc::new(DiscConfig::new(1.0, 5).with_threads(0));
    assert!(auto.worker_width() >= 1);
    let fill = w.fill();
    seq.apply(&fill);
    auto.apply(&fill);
    assert_eq!(seq.assignments(), auto.assignments());
    while let Some(b) = w.advance() {
        seq.apply(&b);
        auto.apply(&b);
        assert_eq!(seq.assignments(), auto.assignments());
    }
}
