//! The admission-decision journal.
//!
//! When a durable run ingests a hostile stream, every admission verdict
//! ([`Decision`]) is journaled here **before** its effects reach the
//! engine, under the same discipline as the slide WAL: append-then-apply,
//! CRC per record, torn tail tolerated and truncated on reopen, damage
//! loud. Because admission is a pure function of the raw record
//! prefix (see `disc_window::reorder`), crash recovery re-runs the
//! pipeline over the raw stream and [`verify_replay`] checks the derived
//! decisions against the journal bit-for-bit — a diverged stream, config,
//! or journal surfaces as [`PersistError::IngestMismatch`] instead of a
//! silently different clustering.
//!
//! # File format (version 2)
//!
//! A codec over the crate's one append-only log (`log.rs`), the WAL's:
//!
//! ```text
//! header  := magic "DISCINGJ" (8 bytes) | version u32
//! frame   := len u32 (= 9) | payload | crc32(payload) u32
//! payload := arrival u64 | code u8
//! ```
//!
//! Every frame is 17 bytes, and a complete length field other than 9 is
//! damage, so every single bit flip in a committed frame is loud. Arrivals
//! are 1-based and contiguous; a sequence break in a CRC-clean record is
//! corruption, not a torn tail. Version 1 journals (a 13-byte payload of
//! `arrival | code | 4 zero bytes` and its CRC, no length) are refused.

use crate::codec::Dec;
use crate::error::PersistError;
use crate::log::{self, Format, FsyncPolicy, Header, LogWriter};
use disc_window::Decision;
use std::path::Path;

/// Ingest journal file magic.
pub const MAGIC: &[u8; 8] = b"DISCINGJ";
/// Current journal format version.
pub const VERSION: u32 = 2;

const KIND: &str = "ingest journal";
const PAYLOAD_LEN: usize = 9;
const FORMAT: Format = Format {
    header: Header {
        kind: KIND,
        magic: MAGIC,
        version: VERSION,
        dim: None,
    },
    len_ok: |len| len == PAYLOAD_LEN,
};

/// Decodes one CRC-clean payload as the verdict on arrival
/// `decisions.len() + 1` and pushes it.
fn decode_into(decisions: &mut Vec<Decision>, at: u64, payload: &[u8]) -> Result<(), PersistError> {
    let mut d = Dec::new(payload, "ingest journal record");
    let (arrival, code) = (d.u64()?, d.u8()?);
    let corrupt = |detail| PersistError::WalCorrupt {
        kind: KIND,
        offset: at,
        detail,
    };
    let expected = decisions.len() as u64 + 1;
    if arrival != expected {
        let break_ = format!("arrival sequence break: expected {expected}, found {arrival}");
        return Err(corrupt(break_));
    }
    let unknown = || corrupt(format!("unknown decision code {code}"));
    decisions.push(Decision::from_code(code).ok_or_else(unknown)?);
    Ok(())
}

/// Appends admission decisions to a journal file.
pub struct IngestJournalWriter {
    log: LogWriter,
    /// Next arrival index to be journaled (1-based).
    next_arrival: u64,
}

impl IngestJournalWriter {
    /// Creates a fresh journal at `path` (truncating any existing file).
    pub fn create(path: &Path, policy: FsyncPolicy) -> Result<Self, PersistError> {
        let log = LogWriter::create(path, &FORMAT.header, policy)?;
        Ok(IngestJournalWriter {
            log,
            next_arrival: 1,
        })
    }

    /// Opens an existing journal for appending, validating the header and
    /// truncating a torn tail. Returns the writer (positioned after the
    /// surviving records) plus the scan for replay verification.
    pub fn open_append(
        path: &Path,
        policy: FsyncPolicy,
    ) -> Result<(Self, IngestScan), PersistError> {
        let scan = read_ingest_journal(path)?;
        let log = LogWriter::reopen(path, scan.torn_tail_at, policy)?;
        let next_arrival = scan.decisions.len() as u64 + 1;
        Ok((IngestJournalWriter { log, next_arrival }, scan))
    }

    /// Journals the verdict for the next raw arrival. Call **before**
    /// letting the decision's effects reach the engine.
    pub fn append(&mut self, decision: Decision) -> Result<(), PersistError> {
        let mut payload = [0u8; PAYLOAD_LEN];
        payload[..8].copy_from_slice(&self.next_arrival.to_le_bytes());
        payload[8] = decision.code();
        self.log.append(&payload)?;
        self.next_arrival += 1;
        Ok(())
    }

    /// Forces an fsync regardless of policy.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.log.sync()
    }
}

/// The result of scanning an ingest journal.
#[derive(Debug)]
pub struct IngestScan {
    /// CRC-verified decisions, arrival order (arrival `i+1` at index `i`).
    pub decisions: Vec<Decision>,
    /// Byte offset of an incomplete final record, if any.
    pub torn_tail_at: Option<u64>,
}

/// Reads and verifies an entire ingest journal. A torn tail is tolerated
/// and reported; a complete record with a bad CRC or length, an unknown
/// decision code, or an arrival-sequence break is an error.
pub fn read_ingest_journal(path: &Path) -> Result<IngestScan, PersistError> {
    let mut decisions = Vec::new();
    let torn_tail_at = log::scan(&std::fs::read(path)?, &FORMAT, |at, payload| {
        decode_into(&mut decisions, at, payload)
    })?;
    Ok(IngestScan {
        decisions,
        torn_tail_at,
    })
}

/// Checks that re-derived admission decisions reproduce the journaled
/// prefix bit-for-bit. `derived` may extend past the journal (the crash
/// happened mid-stream; the replay continues), but every journaled
/// decision must match, and the journal must not outrun the stream.
pub fn verify_replay(journaled: &[Decision], derived: &[Decision]) -> Result<(), PersistError> {
    for (i, j) in journaled.iter().enumerate() {
        let d = derived.get(i);
        if d != Some(j) {
            return Err(PersistError::IngestMismatch {
                arrival: i as u64 + 1,
                journaled: j.as_str().to_string(),
                derived: d.map_or("<none>".to_string(), |d| d.as_str().to_string()),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER_LEN: usize = 12;
    const RECORD_LEN: usize = 17;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("disc_persist_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    const SAMPLE: &[Decision] = &[
        Decision::Admit,
        Decision::AdmitReordered,
        Decision::LateDrop,
        Decision::Duplicate,
        Decision::Shed,
        Decision::Malformed,
        Decision::LateUpsert,
        Decision::LateDeadLetter,
    ];

    #[test]
    fn journal_roundtrips_every_decision() {
        let path = tmp("roundtrip.ingj");
        let mut w = IngestJournalWriter::create(&path, FsyncPolicy::Always).unwrap();
        for &d in SAMPLE {
            w.append(d).unwrap();
        }
        let on_disk = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(on_disk, HEADER_LEN + SAMPLE.len() * RECORD_LEN);
        drop(w);
        let scan = read_ingest_journal(&path).unwrap();
        assert_eq!(scan.torn_tail_at, None);
        assert_eq!(scan.decisions, SAMPLE);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_tolerated_at_every_cut_and_truncated_on_reopen() {
        let path = tmp("torn.ingj");
        let mut w = IngestJournalWriter::create(&path, FsyncPolicy::Never).unwrap();
        for &d in SAMPLE {
            w.append(d).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let last_start = HEADER_LEN + (SAMPLE.len() - 1) * RECORD_LEN;
        for cut in last_start + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = read_ingest_journal(&path).unwrap();
            assert_eq!(scan.decisions.len(), SAMPLE.len() - 1, "cut at {cut}");
            assert_eq!(scan.torn_tail_at, Some(last_start as u64), "cut at {cut}");
        }
        // Reopen truncates the tear and continues the arrival sequence.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (mut w, scan) = IngestJournalWriter::open_append(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(scan.decisions.len(), SAMPLE.len() - 1);
        w.append(Decision::Admit).unwrap();
        drop(w);
        let scan = read_ingest_journal(&path).unwrap();
        assert_eq!(scan.torn_tail_at, None);
        assert_eq!(scan.decisions.len(), SAMPLE.len());
        assert_eq!(scan.decisions.last(), Some(&Decision::Admit));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_journal_damage_is_loud() {
        let path = tmp("corrupt.ingj");
        let mut w = IngestJournalWriter::create(&path, FsyncPolicy::Never).unwrap();
        for &d in SAMPLE {
            w.append(d).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 4 + 2] ^= 0x10; // inside record 1's arrival field
        std::fs::write(&path, &bytes).unwrap();
        match read_ingest_journal(&path) {
            Err(PersistError::WalCorrupt { offset, .. }) => {
                assert_eq!(offset, HEADER_LEN as u64)
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damage_names_the_journal() {
        let path = tmp("named.ingj");
        let mut w = IngestJournalWriter::create(&path, FsyncPolicy::Never).unwrap();
        for &d in SAMPLE {
            w.append(d).unwrap();
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + RECORD_LEN + 12] ^= 0x01; // record 2's code byte
        std::fs::write(&path, &bytes).unwrap();
        let err = read_ingest_journal(&path).unwrap_err().to_string();
        assert_eq!(
            err,
            "corrupt ingest journal record at byte 29: checksum mismatch on a complete record"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// One frame's bytes, pinned: the header, then arrival 1 judged
    /// `late-drop` (code 2).
    #[test]
    fn one_frame_has_the_pinned_bytes() {
        #[rustfmt::skip]
        const GOLDEN: &[u8] = &[
            b'D', b'I', b'S', b'C', b'I', b'N', b'G', b'J', // magic
            2, 0, 0, 0, // version
            9, 0, 0, 0, // len
            1, 0, 0, 0, 0, 0, 0, 0, // arrival
            2, // code
            0xc1, 0x61, 0x7c, 0x1f, // crc32(payload)
        ];
        let path = tmp("golden.ingj");
        let mut w = IngestJournalWriter::create(&path, FsyncPolicy::Never).unwrap();
        w.append(Decision::LateDrop).unwrap();
        drop(w);
        assert_eq!(std::fs::read(&path).unwrap(), GOLDEN);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_version_1_journal_is_refused_by_name() {
        let path = tmp("v1.ingj");
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        let mut record = [0u8; 13];
        record[0] = 1; // arrival 1, code 0 (admit), 4 zero bytes
        v1.extend_from_slice(&record);
        v1.extend_from_slice(&crate::crc::crc32(&record).to_le_bytes());
        std::fs::write(&path, &v1).unwrap();
        let err = read_ingest_journal(&path).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::UnsupportedVersion {
                    kind: "ingest journal",
                    found: 1
                }
            ),
            "{err:?}"
        );
        assert!(IngestJournalWriter::open_append(&path, FsyncPolicy::Never).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_guards_fire() {
        let path = tmp("badheader.ingj");
        std::fs::write(&path, b"DISCWAL\0\x01\0\0\0").unwrap();
        assert!(matches!(
            read_ingest_journal(&path),
            Err(PersistError::BadMagic {
                kind: "ingest journal"
            })
        ));
        let mut v9 = MAGIC.to_vec();
        v9.extend_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &v9).unwrap();
        assert!(matches!(
            read_ingest_journal(&path),
            Err(PersistError::UnsupportedVersion {
                kind: "ingest journal",
                found: 9
            })
        ));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            read_ingest_journal(&path),
            Err(PersistError::Truncated { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_replay_pins_divergence() {
        use Decision::*;
        assert!(verify_replay(&[Admit, Shed], &[Admit, Shed, Admit]).is_ok());
        assert!(verify_replay(&[], &[Admit]).is_ok());
        match verify_replay(&[Admit, Shed], &[Admit, Admit]) {
            Err(PersistError::IngestMismatch {
                arrival,
                journaled,
                derived,
            }) => {
                assert_eq!(arrival, 2);
                assert_eq!(journaled, "shed");
                assert_eq!(derived, "admit");
            }
            other => panic!("expected IngestMismatch, got {other:?}"),
        }
        // The journal must never outrun the stream.
        match verify_replay(&[Admit, Shed], &[Admit]) {
            Err(PersistError::IngestMismatch {
                arrival, derived, ..
            }) => {
                assert_eq!(arrival, 2);
                assert_eq!(derived, "<none>");
            }
            other => panic!("expected IngestMismatch, got {other:?}"),
        }
    }
}
