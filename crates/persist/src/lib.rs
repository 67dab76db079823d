//! Durability for DISC: checkpoints, a slide write-ahead log, and crash
//! recovery.
//!
//! The engine in `disc-core` is purely in-memory; this crate makes a
//! long-running stream survivable:
//!
//! - [`checkpoint`] — a versioned, per-section-checksummed binary image
//!   of the full engine state ([`save_checkpoint`] / [`load_checkpoint`]),
//!   written atomically (temp file + fsync + rename).
//! - [`wal`] — the slide write-ahead log of committed slide batches
//!   ([`WalWriter`] / [`read_wal`]), appended *before* each batch is
//!   applied, with a configurable [`FsyncPolicy`].
//! - [`recover`] — [`recover_engine`] loads the newest checkpoint in a
//!   directory and replays the WAL tail after it, yielding an engine
//!   identical to the one that crashed.
//! - [`ingest`] — the admission-decision journal for hostile-stream runs
//!   ([`IngestJournalWriter`] / [`verify_replay`]): recovery re-derives
//!   every admit/drop/reorder choice from the raw stream and checks it
//!   against the journal bit-for-bit (DESIGN.md §16).
//!
//! The WAL and the ingest journal are codecs over one append-only log:
//! frames of `len u32 | payload | crc32(payload) u32` behind a header whose
//! check checkpoints share. Corruption is never silent: a truncated or
//! bit-flipped checkpoint, a damaged frame (a failed CRC, or a length no
//! record can have), or a WAL that does not continue its checkpoint each
//! fail with a distinct [`PersistError`] variant. The one tolerated anomaly
//! is a *torn tail*, an incomplete final frame left by a crash mid-append,
//! which by write-ahead ordering was never applied and is safely discarded.
//!
//! ```no_run
//! use disc_core::{Disc, DiscConfig};
//! use disc_persist::{
//!     checkpoint_path, recover_engine, save_checkpoint, Checkpoint, FsyncPolicy, WalWriter,
//! };
//! use std::path::Path;
//!
//! let dir = Path::new("state");
//! let wal_path = dir.join("slides.wal");
//! let mut disc = Disc::<2>::new(DiscConfig::new(0.5, 4));
//! let mut wal = WalWriter::<2>::create(&wal_path, FsyncPolicy::Always)?;
//! # let batches: Vec<disc_window::SlideBatch<2>> = vec![];
//! for batch in batches {
//!     wal.append(disc.slide_seq() + 1, &batch)?; // log first...
//!     disc.apply(&batch); // ...then apply
//!     let ckpt = Checkpoint { state: disc.export_state(), driver: None };
//!     save_checkpoint(&checkpoint_path(dir, disc.slide_seq()), &ckpt)?;
//! }
//! // After a crash:
//! let (restored, _driver, report) =
//!     recover_engine::<2, disc_index::RTree<2>>(dir, Some(&wal_path))?;
//! # Ok::<(), disc_persist::PersistError>(())
//! ```

mod codec;
mod crc;
mod log;

pub mod checkpoint;
pub mod error;
pub mod ingest;
pub mod metrics;
pub mod recover;
pub mod wal;

pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, load_checkpoint, save_checkpoint, write_checkpoint_to,
    Checkpoint, DriverState,
};
pub use error::PersistError;
pub use ingest::{read_ingest_journal, verify_replay, IngestJournalWriter, IngestScan};
pub use log::FsyncPolicy;
pub use recover::{checkpoint_path, latest_checkpoint_seq, recover_engine, RecoveryReport};
pub use wal::{read_wal, WalScan, WalWriter};
