//! The typed error surface of the durability layer.
//!
//! Every way a checkpoint or WAL can be unusable maps to a distinct
//! [`PersistError`] variant, so callers (and the crash-injection tests) can
//! distinguish "the file was torn mid-write" from "a bit flipped at rest"
//! from "the image decoded but fails engine validation". Nothing in this
//! crate ever panics on hostile bytes, and nothing ever returns a
//! partially-restored state.

use disc_core::StateError;
use std::io;

/// Why a checkpoint or WAL operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with the expected magic bytes — it is not a
    /// DISC checkpoint / WAL at all (or its first sector was destroyed).
    BadMagic {
        /// Which artifact was being read (`"checkpoint"`, `"wal"`,
        /// `"ingest journal"`).
        kind: &'static str,
    },
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// Which artifact was being read.
        kind: &'static str,
        /// The version found in the header.
        found: u32,
    },
    /// The file was written for a different point dimension.
    DimensionMismatch {
        /// Dimension this reader was instantiated for.
        expected: usize,
        /// Dimension recorded in the header.
        found: usize,
    },
    /// The file ends before the named section is complete.
    Truncated {
        /// Section (or header field) that was cut short.
        section: String,
    },
    /// A section's payload does not match its stored CRC — bytes were
    /// flipped at rest or the write was torn mid-section.
    ChecksumMismatch {
        /// Section whose checksum failed.
        section: String,
    },
    /// The bytes decoded but violate the format's structural rules.
    Corrupt {
        /// Section where the violation was found.
        section: String,
        /// What rule was violated.
        detail: String,
    },
    /// The checkpoint decoded cleanly but the engine refused the image
    /// (see [`StateError`]).
    State(StateError),
    /// A complete record of an append-only log (the WAL or the ingest
    /// journal) failed its CRC, broke the log's record rules, or has a
    /// length field no record can have. Unlike a torn tail, this is damage
    /// and recovery must not proceed past it silently.
    WalCorrupt {
        /// Which log (`"wal"`, `"ingest journal"`).
        kind: &'static str,
        /// Byte offset of the broken record.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// WAL replay found a sequence gap: the log does not continue the
    /// checkpoint it was paired with.
    WalGap {
        /// The slide sequence the engine needed next.
        expected: u64,
        /// The sequence the next WAL record carried.
        found: u64,
    },
    /// No checkpoint exists in the directory being recovered from.
    NoCheckpoint,
    /// Replaying the raw stream through the admission pipeline derived a
    /// different decision than the ingest journal recorded — the stream,
    /// the admission configuration, or the journal changed since the
    /// crash, and recovery must not proceed on a diverged admission
    /// history.
    IngestMismatch {
        /// 1-based arrival index of the first divergence.
        arrival: u64,
        /// Decision recorded in the journal (`"<none>"` past its end).
        journaled: String,
        /// Decision derived by the replay (`"<none>"` past the stream).
        derived: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic { kind } => write!(f, "not a DISC {kind}: bad magic"),
            PersistError::UnsupportedVersion { kind, found } => {
                write!(f, "unsupported {kind} format version {found}")
            }
            PersistError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "dimension mismatch: file is {found}-d, reader is {expected}-d"
                )
            }
            PersistError::Truncated { section } => {
                write!(f, "truncated file: section {section:?} is incomplete")
            }
            PersistError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            PersistError::Corrupt { section, detail } => {
                write!(f, "corrupt section {section:?}: {detail}")
            }
            PersistError::State(e) => write!(f, "checkpoint rejected by the engine: {e}"),
            PersistError::WalCorrupt {
                kind,
                offset,
                detail,
            } => write!(f, "corrupt {kind} record at byte {offset}: {detail}"),
            PersistError::WalGap { expected, found } => {
                write!(
                    f,
                    "WAL does not continue the checkpoint: needed slide {expected}, found {found}"
                )
            }
            PersistError::NoCheckpoint => write!(f, "no checkpoint found"),
            PersistError::IngestMismatch {
                arrival,
                journaled,
                derived,
            } => write!(
                f,
                "admission replay diverged at arrival {arrival}: journal \
                 says {journaled}, replay derived {derived}"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<StateError> for PersistError {
    fn from(e: StateError) -> Self {
        PersistError::State(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let cases: Vec<(PersistError, &str)> = vec![
            (PersistError::BadMagic { kind: "checkpoint" }, "bad magic"),
            (
                PersistError::UnsupportedVersion {
                    kind: "wal",
                    found: 9,
                },
                "version 9",
            ),
            (
                PersistError::DimensionMismatch {
                    expected: 2,
                    found: 3,
                },
                "3-d",
            ),
            (
                PersistError::Truncated {
                    section: "points".into(),
                },
                "points",
            ),
            (
                PersistError::ChecksumMismatch {
                    section: "dsu".into(),
                },
                "dsu",
            ),
            (
                PersistError::WalCorrupt {
                    kind: "wal",
                    offset: 17,
                    detail: "crc".into(),
                },
                "corrupt wal record at byte 17",
            ),
            (
                PersistError::WalGap {
                    expected: 4,
                    found: 7,
                },
                "needed slide 4",
            ),
            (PersistError::NoCheckpoint, "no checkpoint"),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text:?} missing {needle:?}");
        }
    }
}
