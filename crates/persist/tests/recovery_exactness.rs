//! Recovery exactness: for every exactness-harness dataset, both index
//! backends, and *every* checkpoint slide `k`, an engine recovered from
//! the checkpoint at `k` plus the WAL tail must finish the stream with
//! the same clustering as the uninterrupted run.
//!
//! Two equalities are asserted, at the determinism boundary the engine
//! actually guarantees:
//!
//! - **At the restore point** the image is raw-identical: cluster ids,
//!   DSU, census — byte-for-byte what the crashed engine had.
//! - **After replaying further slides**, raw cluster-id *allocation* may
//!   legitimately diverge (hash-set iteration order depends on capacity
//!   history), so the induced partition is compared after canonical
//!   renumbering — the same criterion the core exactness suite uses for
//!   cross-backend agreement.

use disc_core::{Disc, DiscConfig};
use disc_geom::PointId;
use disc_index::{GridIndex, RTree, SpatialBackend};
use disc_persist::{
    checkpoint_path, read_wal, recover_engine, save_checkpoint, Checkpoint, FsyncPolicy, WalWriter,
};
use disc_window::{datasets, Record, SlidingWindow};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("disc_persist_exactness")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Canonical partition: renumber cluster ids by first appearance in
/// ascending point-id order, noise to -1.
fn canonical(assignments: &[(PointId, i64)]) -> Vec<(PointId, i64)> {
    let mut rename: std::collections::BTreeMap<i64, i64> = Default::default();
    assignments
        .iter()
        .map(|&(id, l)| {
            if l < 0 {
                (id, -1)
            } else {
                let next = rename.len() as i64;
                (id, *rename.entry(l).or_insert(next))
            }
        })
        .collect()
}

/// Runs `records` through a durable DISC (checkpoint at every slide, WAL
/// of every slide), then for each checkpoint `k` recovers and replays to
/// the end, comparing against the uninterrupted run.
fn assert_recovery_exact<const D: usize, B: SpatialBackend<D>>(
    name: &str,
    records: Vec<Record<D>>,
    window: usize,
    stride: usize,
    eps: f64,
    tau: usize,
) {
    let dir = tmpdir(name);
    let wal_path = dir.join("slides.wal");
    let cfg = DiscConfig::new(eps, tau);

    // Uninterrupted reference run, remembering raw assignments after each
    // slide (for restore-point identity) and the final clustering.
    let mut w = SlidingWindow::new(records, window, stride);
    let mut reference: Disc<D, B> = Disc::with_index(cfg);
    let mut wal = WalWriter::<D>::create(&wal_path, FsyncPolicy::Never).unwrap();
    let mut per_slide_raw = Vec::new();

    let fill = w.fill();
    wal.append(reference.slide_seq() + 1, &fill).unwrap();
    reference.apply(&fill);
    per_slide_raw.push(reference.assignments());
    save_checkpoint(
        &checkpoint_path(&dir, reference.slide_seq()),
        &Checkpoint {
            state: reference.export_state(),
            driver: None,
        },
    )
    .unwrap();
    while let Some(batch) = w.advance() {
        wal.append(reference.slide_seq() + 1, &batch).unwrap();
        reference.apply(&batch);
        per_slide_raw.push(reference.assignments());
        save_checkpoint(
            &checkpoint_path(&dir, reference.slide_seq()),
            &Checkpoint {
                state: reference.export_state(),
                driver: None,
            },
        )
        .unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    let total_slides = reference.slide_seq();
    assert!(
        total_slides >= 5,
        "{name}: stream too short to be meaningful"
    );
    let final_canonical = canonical(&reference.assignments());
    let final_census = reference.census();

    let scan = read_wal::<D>(&wal_path).unwrap();
    assert_eq!(scan.records.len() as u64, total_slides);
    assert!(scan.torn_tail_at.is_none());

    // Recover from EVERY checkpoint k and replay the tail to the end.
    for k in 1..=total_slides {
        let ckpt = disc_persist::load_checkpoint::<D>(&checkpoint_path(&dir, k)).unwrap();

        // Restore-point identity: raw-identical assignments and census.
        let restored: Disc<D, B> = Disc::recover(ckpt.state.clone(), Vec::new()).unwrap().0;
        assert_eq!(restored.slide_seq(), k, "{name}: k={k}");
        assert_eq!(
            restored.assignments(),
            per_slide_raw[(k - 1) as usize],
            "{name}: restore point k={k} is not raw-identical"
        );

        // Replay to the end: canonical partition + census must match.
        let tail: Vec<_> = scan
            .records
            .iter()
            .filter(|(seq, _)| *seq > k)
            .map(|(_, b)| b.clone())
            .collect();
        let (mut recovered, replayed) = Disc::<D, B>::recover(ckpt.state, tail).unwrap();
        assert_eq!(replayed, total_slides - k, "{name}: k={k}");
        assert_eq!(recovered.slide_seq(), total_slides, "{name}: k={k}");
        assert_eq!(
            canonical(&recovered.assignments()),
            final_canonical,
            "{name}: k={k} final partition diverged"
        );
        assert_eq!(recovered.census(), final_census, "{name}: k={k}");
        recovered.check_invariants();
    }

    // The full directory-level path must pick the newest checkpoint and
    // replay nothing.
    let (rec, _, report) = recover_engine::<D, B>(&dir, Some(&wal_path)).unwrap();
    assert_eq!(report.checkpoint_seq, total_slides);
    assert_eq!(report.replayed, 0);
    assert_eq!(rec.assignments(), reference.assignments());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn blobs_recovery_is_exact_on_rtree() {
    let recs = datasets::gaussian_blobs::<2>(450, 4, 0.6, 7);
    assert_recovery_exact::<2, RTree<2>>("blobs-rtree", recs, 150, 30, 1.0, 5);
}

#[test]
fn blobs_recovery_is_exact_on_grid() {
    let recs = datasets::gaussian_blobs::<2>(450, 4, 0.6, 7);
    assert_recovery_exact::<2, GridIndex<2>>("blobs-grid", recs, 150, 30, 1.0, 5);
}

#[test]
fn maze_recovery_is_exact_on_rtree() {
    let recs = datasets::maze(500, 12, 3);
    assert_recovery_exact::<2, RTree<2>>("maze-rtree", recs, 180, 40, 0.6, 5);
}

#[test]
fn maze_recovery_is_exact_on_grid() {
    let recs = datasets::maze(500, 12, 3);
    assert_recovery_exact::<2, GridIndex<2>>("maze-grid", recs, 180, 40, 0.6, 5);
}

#[test]
fn covid_heavy_noise_recovery_is_exact() {
    let recs = datasets::covid_like(500, 11);
    assert_recovery_exact::<2, RTree<2>>("covid-rtree", recs, 180, 30, 1.2, 5);
}

#[test]
fn iris_4d_recovery_is_exact_on_all_backends() {
    let recs = datasets::iris_like(400, 13);
    assert_recovery_exact::<4, RTree<4>>("iris-rtree", recs.clone(), 150, 30, 2.0, 5);
    assert_recovery_exact::<4, GridIndex<4>>("iris-grid", recs, 150, 30, 2.0, 5);
}

#[test]
fn geolife_3d_recovery_is_exact() {
    let recs = datasets::geolife_like(400, 17);
    assert_recovery_exact::<3, RTree<3>>("geolife-rtree", recs, 150, 30, 1.0, 5);
}

#[test]
fn full_turnover_recovery_is_exact() {
    // stride == window: checkpoints land between total population swaps.
    let recs = datasets::gaussian_blobs::<2>(800, 3, 0.5, 41);
    assert_recovery_exact::<2, RTree<2>>("turnover-rtree", recs, 100, 100, 1.0, 5);
}

/// A checkpoint written under one backend restores into an engine over any
/// other: the index is rebuilt from points, so the image is
/// backend-portable, and the declared backend travels in the config for
/// drivers that want to honour it. Both *ordered* pairs of
/// {rtree, grid} are exercised — checkpoint under the source, move,
/// resume under the destination — plus a replayed tail (`resume_at`-style)
/// so portability covers both the restore point and continued evolution.
#[test]
fn checkpoints_are_backend_portable_across_all_ordered_pairs() {
    use disc_core::IndexBackend;

    /// Runs the stream under `SRC`, checkpoints mid-stream, finishes the
    /// run; then restores the checkpoint into `DST` and replays the same
    /// tail, asserting identity at the restore point and at the end.
    fn portability_pair<S: SpatialBackend<2>, T: SpatialBackend<2>>(src: IndexBackend) {
        let recs = datasets::gaussian_blobs::<2>(450, 4, 0.6, 7);
        let mut w = SlidingWindow::new(recs, 150, 30);
        let cfg = DiscConfig::new(1.0, 5).with_backend(src);
        let mut source: Disc<2, S> = Disc::with_index(cfg);
        source.apply(&w.fill());
        for _ in 0..3 {
            source.apply(&w.advance().unwrap());
        }
        let state = source.export_state();
        assert_eq!(disc_core::backend_of(&state), src);

        // Restore point: raw-identical observables under the other backend.
        let restored: Disc<2, T> = Disc::recover(state.clone(), Vec::new()).unwrap().0;
        assert_eq!(restored.assignments(), source.assignments());
        assert_eq!(restored.census(), source.census());

        // Continue both engines over the same tail (the `resume_at` path
        // re-pins the stream and replays batches exactly like this).
        let mut tail = Vec::new();
        while let Some(batch) = w.advance() {
            tail.push(batch);
        }
        assert!(tail.len() >= 3, "stream too short for a meaningful tail");
        let (mut moved, replayed) = Disc::<2, T>::recover(state, tail.clone()).unwrap();
        assert_eq!(replayed, tail.len() as u64);
        for batch in &tail {
            source.apply(batch);
        }
        assert_eq!(
            canonical(&moved.assignments()),
            canonical(&source.assignments()),
            "{}->{} final partition diverged",
            S::NAME,
            T::NAME
        );
        assert_eq!(moved.census(), source.census());
        moved.check_invariants();
    }

    portability_pair::<RTree<2>, GridIndex<2>>(IndexBackend::RTree);
    portability_pair::<GridIndex<2>, RTree<2>>(IndexBackend::Grid);
}
