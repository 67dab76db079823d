//! Checkpoint directory layout and crash recovery.
//!
//! A checkpoint directory holds files named `ckpt-{seq:012}.disc`, one per
//! checkpointed slide sequence. Recovery picks the newest by sequence,
//! restores the engine from it, then replays the WAL records *after* that
//! sequence — in order, requiring contiguity: a gap means the WAL and
//! checkpoint directory do not belong together and recovery fails with
//! [`PersistError::WalGap`] rather than silently producing a window that
//! never existed.

use crate::checkpoint::{load_checkpoint, Checkpoint, DriverState};
use crate::error::PersistError;
use crate::wal::read_wal;
use disc_core::{Disc, StateError};
use disc_index::SpatialBackend;
use std::path::{Path, PathBuf};

/// The canonical checkpoint file name for slide sequence `seq`.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{seq:012}.disc"))
}

/// Scans `dir` for checkpoint files and returns the highest slide
/// sequence found, or `None` if the directory holds no checkpoints.
pub fn latest_checkpoint_seq(dir: &Path) -> Result<Option<u64>, PersistError> {
    let mut best = None;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("ckpt-") else {
            continue;
        };
        let Some(digits) = rest.strip_suffix(".disc") else {
            continue;
        };
        let Ok(seq) = digits.parse::<u64>() else {
            continue;
        };
        if best.is_none_or(|b| seq > b) {
            best = Some(seq);
        }
    }
    Ok(best)
}

/// What a successful recovery did, for logs and telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Slide sequence of the checkpoint that was restored.
    pub checkpoint_seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Total complete records found in the WAL.
    pub wal_records: u64,
    /// Whether the WAL ended in a torn (incomplete) record, i.e. the
    /// previous process died mid-append.
    pub torn_tail: bool,
}

/// Restores an engine from the newest checkpoint in `dir`, then replays
/// the WAL tail at `wal` (if given).
///
/// WAL records at or before the checkpoint's sequence are skipped; the
/// remainder must continue the checkpoint contiguously. Returns the
/// recovered engine, the driver position saved with the checkpoint, and a
/// [`RecoveryReport`].
pub fn recover_engine<const D: usize, B: SpatialBackend<D>>(
    dir: &Path,
    wal: Option<&Path>,
) -> Result<(Disc<D, B>, Option<DriverState>, RecoveryReport), PersistError> {
    let seq = latest_checkpoint_seq(dir)?.ok_or(PersistError::NoCheckpoint)?;
    let ckpt: Checkpoint<D> = load_checkpoint(&checkpoint_path(dir, seq))?;
    let driver = ckpt.driver;

    let mut tail = Vec::new();
    let mut wal_records = 0;
    let mut torn_tail = false;
    if let Some(wal_path) = wal {
        let scan = read_wal::<D>(wal_path)?;
        wal_records = scan.records.len() as u64;
        torn_tail = scan.torn_tail_at.is_some();
        let mut expected = seq + 1;
        for (rec_seq, batch) in scan.records {
            if rec_seq <= seq {
                continue;
            }
            if rec_seq != expected {
                return Err(PersistError::WalGap {
                    expected,
                    found: rec_seq,
                });
            }
            expected += 1;
            tail.push(batch);
        }
    }

    let (disc, replayed) =
        Disc::<D, B>::recover(ckpt.state, tail).map_err(|e: StateError| PersistError::State(e))?;
    Ok((
        disc,
        driver,
        RecoveryReport {
            checkpoint_seq: seq,
            replayed,
            wal_records,
            torn_tail,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::save_checkpoint;
    use crate::{FsyncPolicy, WalWriter};
    use disc_core::DiscConfig;
    use disc_geom::{Point, PointId};
    use disc_index::RTree;
    use disc_window::SlideBatch;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("disc_persist_recover_test")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn pt(i: u64) -> (PointId, Point<2>) {
        (
            PointId(i),
            Point::new([(i % 7) as f64 * 0.5, (i / 7) as f64 * 0.5]),
        )
    }

    fn fill(disc: &mut Disc<2>, ids: std::ops::Range<u64>) {
        let batch = SlideBatch {
            incoming: ids.map(pt).collect(),
            outgoing: vec![],
        };
        disc.apply(&batch);
    }

    fn slide(lo_out: u64, n: u64) -> SlideBatch<2> {
        SlideBatch {
            incoming: (lo_out + 30..lo_out + 30 + n).map(pt).collect(),
            outgoing: (lo_out..lo_out + n).map(pt).collect(),
        }
    }

    #[test]
    fn checkpoint_names_sort_by_sequence() {
        let dir = tmpdir("names");
        assert_eq!(latest_checkpoint_seq(&dir).unwrap(), None);
        for seq in [3u64, 12, 7] {
            std::fs::write(checkpoint_path(&dir, seq), b"x").unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        std::fs::write(dir.join("ckpt-garbage.disc"), b"ignored").unwrap();
        assert_eq!(latest_checkpoint_seq(&dir).unwrap(), Some(12));
    }

    #[test]
    fn recover_restores_checkpoint_and_replays_wal_tail() {
        let dir = tmpdir("replay");
        let wal_path = dir.join("slides.wal");
        let cfg = DiscConfig::new(0.9, 3);

        // Uninterrupted reference run: fill + 6 slides.
        let mut reference = Disc::<2>::new(cfg);
        fill(&mut reference, 0..30);
        for k in 0..6u64 {
            reference.apply(&slide(k * 5, 5));
        }

        // Durable run: checkpoint after slide 3, WAL holds all 6.
        let mut durable = Disc::<2>::new(cfg);
        fill(&mut durable, 0..30);
        let mut wal = WalWriter::<2>::create(&wal_path, FsyncPolicy::Always).unwrap();
        for k in 0..6u64 {
            let b = slide(k * 5, 5);
            wal.append(durable.slide_seq() + 1, &b).unwrap();
            durable.apply(&b);
            if k == 2 {
                let ckpt = Checkpoint {
                    state: durable.export_state(),
                    driver: Some(DriverState {
                        window: 30,
                        stride: 5,
                        start: 15,
                    }),
                };
                save_checkpoint(&checkpoint_path(&dir, durable.slide_seq()), &ckpt).unwrap();
            }
        }
        drop(wal);

        let (rec, driver, report) = recover_engine::<2, RTree<2>>(&dir, Some(&wal_path)).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.wal_records, 6);
        assert!(!report.torn_tail);
        assert_eq!(driver.unwrap().stride, 5);
        assert_eq!(rec.slide_seq(), reference.slide_seq());
        assert_eq!(rec.assignments(), reference.assignments());
        assert_eq!(rec.num_clusters(), reference.num_clusters());
    }

    #[test]
    fn gaps_and_missing_checkpoints_are_loud() {
        let dir = tmpdir("gaps");
        assert!(matches!(
            recover_engine::<2, RTree<2>>(&dir, None),
            Err(PersistError::NoCheckpoint)
        ));

        let cfg = DiscConfig::new(0.9, 3);
        let mut disc = Disc::<2>::new(cfg);
        fill(&mut disc, 0..30);
        let ckpt = Checkpoint {
            state: disc.export_state(),
            driver: None,
        };
        save_checkpoint(&checkpoint_path(&dir, disc.slide_seq()), &ckpt).unwrap();

        // WAL that skips a sequence: ckpt is at seq 1, log holds 3.
        let wal_path = dir.join("gap.wal");
        let mut wal = WalWriter::<2>::create(&wal_path, FsyncPolicy::Never).unwrap();
        wal.append(3, &slide(0, 5)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        match recover_engine::<2, RTree<2>>(&dir, Some(&wal_path)) {
            Err(PersistError::WalGap { expected, found: 3 }) => {
                assert_eq!(expected, disc.slide_seq() + 1)
            }
            Err(other) => panic!("expected WalGap, got {other:?}"),
            Ok(_) => panic!("expected WalGap, recovery succeeded"),
        }
    }
}
