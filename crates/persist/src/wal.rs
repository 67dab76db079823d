//! The slide write-ahead log, a codec over the crate's one append-only log
//! (`log.rs`).
//!
//! # File format (version 1)
//!
//! ```text
//! header  := magic "DISCWAL\0" (8 bytes) | version u32 | dim u32
//! frame   := len u32 | payload | crc32(payload) u32
//! payload := seq u64 | n_in u32 | n_out u32
//!          | n_in × (id u64, D × f64)      incoming
//!          | n_out × (id u64, D × f64)     outgoing
//! ```
//!
//! A payload is `16 + k·(8 + 8D)` bytes for `k = n_in + n_out`. A batch is
//! appended **before** it is applied to the engine, so every committed
//! slide is in the log or was never applied. A torn tail is tolerated and
//! cut off by [`WalWriter::open_append`]; damage is
//! [`PersistError::WalCorrupt`] and stops recovery.

use crate::codec::{Dec, Enc};
use crate::error::PersistError;
use crate::log::{self, Format, FsyncPolicy, Header, LogWriter};
use disc_geom::{Point, PointId};
use disc_window::SlideBatch;
use std::path::Path;

/// WAL file magic.
pub const MAGIC: &[u8; 8] = b"DISCWAL\0";
/// Current WAL format version.
pub const VERSION: u32 = 1;

const KIND: &str = "wal";

fn format<const D: usize>() -> Format {
    let header = Header {
        kind: KIND,
        magic: MAGIC,
        version: VERSION,
        dim: Some(D),
    };
    let len_ok = payload_len_ok::<D>;
    Format { header, len_ok }
}

/// The payload lengths a `D`-dimensional record can have: `16 + k·(8 + 8D)`.
fn payload_len_ok<const D: usize>(len: usize) -> bool {
    len >= 16 && (len - 16).is_multiple_of(8 + 8 * D)
}

fn encode_record<const D: usize>(seq: u64, batch: &SlideBatch<D>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(seq);
    e.u32(batch.incoming.len() as u32);
    e.u32(batch.outgoing.len() as u32);
    for (id, p) in batch.incoming.iter().chain(&batch.outgoing) {
        e.u64(id.raw());
        for i in 0..D {
            e.f64(p[i]);
        }
    }
    e.into_bytes()
}

/// Decodes a CRC-clean payload whose length `payload_len_ok` accepted, so
/// no read below runs short once the entry counts fit the length.
fn decode_record<const D: usize>(
    payload: &[u8],
    offset: u64,
) -> Result<(u64, SlideBatch<D>), PersistError> {
    let mut d = Dec::new(payload, "wal record");
    let (seq, n_in, n_out) = (d.u64()?, d.u32()? as usize, d.u32()? as usize);
    let len = payload.len();
    if len != 16 + (n_in + n_out) * (8 + 8 * D) {
        let detail = format!("payload of {len} bytes does not fit {n_in}+{n_out} entries");
        return Err(PersistError::WalCorrupt {
            kind: KIND,
            offset,
            detail,
        });
    }
    let mut read_entries = |n: usize| -> Result<Vec<(PointId, Point<D>)>, PersistError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let id = PointId(d.u64()?);
            let mut coords = [0.0f64; D];
            for c in coords.iter_mut() {
                *c = d.f64()?;
            }
            out.push((id, Point::new(coords)));
        }
        Ok(out)
    };
    let incoming = read_entries(n_in)?;
    let outgoing = read_entries(n_out)?;
    Ok((seq, SlideBatch { incoming, outgoing }))
}

/// Appends slide records to a WAL file.
pub struct WalWriter<const D: usize> {
    log: LogWriter,
}

impl<const D: usize> WalWriter<D> {
    /// Creates a fresh WAL at `path` (truncating any existing file) and
    /// writes the header.
    pub fn create(path: &Path, policy: FsyncPolicy) -> Result<Self, PersistError> {
        let log = LogWriter::create(path, &format::<D>().header, policy)?;
        Ok(WalWriter { log })
    }

    /// Opens an existing WAL for appending: checks its header and every
    /// frame's CRC, and truncates a torn tail left by a crash mid-append.
    /// Records are not decoded; [`read_wal`] does that for replay.
    pub fn open_append(path: &Path, policy: FsyncPolicy) -> Result<Self, PersistError> {
        let torn_tail_at = log::scan(&std::fs::read(path)?, &format::<D>(), |_, _| Ok(()))?;
        let log = LogWriter::reopen(path, torn_tail_at, policy)?;
        Ok(WalWriter { log })
    }

    /// Appends one committed slide. Call **before** applying the batch to
    /// the engine. Returns the record's size in bytes.
    pub fn append(&mut self, seq: u64, batch: &SlideBatch<D>) -> Result<u64, PersistError> {
        self.log.append(&encode_record(seq, batch))
    }

    /// Forces an fsync regardless of policy.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.log.sync()
    }

    /// Current WAL on-disk size in bytes (header + every record, including
    /// ones inherited through [`open_append`](WalWriter::open_append)).
    pub fn len_bytes(&self) -> u64 {
        self.log.len_bytes()
    }
}

/// The result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan<const D: usize> {
    /// Complete, checksum-verified records in file order.
    pub records: Vec<(u64, SlideBatch<D>)>,
    /// Byte offset of an incomplete final record, if the file ends
    /// mid-append. `None` means the file ends cleanly on a record
    /// boundary.
    pub torn_tail_at: Option<u64>,
}

/// Reads and verifies an entire WAL file.
///
/// A torn tail (EOF before the last record is complete) is tolerated and
/// reported via [`WalScan::torn_tail_at`]; a header problem, a complete
/// record with a bad CRC, or a length no record can have is an error.
pub fn read_wal<const D: usize>(path: &Path) -> Result<WalScan<D>, PersistError> {
    let mut records = Vec::new();
    let torn_tail_at = log::scan(&std::fs::read(path)?, &format::<D>(), |offset, payload| {
        records.push(decode_record::<D>(payload, offset)?);
        Ok(())
    })?;
    Ok(WalScan {
        records,
        torn_tail_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("disc_persist_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn batch(seq: u64) -> SlideBatch<2> {
        SlideBatch {
            incoming: vec![
                (PointId(seq * 10), Point::new([seq as f64, 0.5])),
                (PointId(seq * 10 + 1), Point::new([seq as f64, 1.5])),
            ],
            outgoing: vec![(PointId(seq * 10 - 5), Point::new([-1.0, -2.0]))],
        }
    }

    fn batches_eq(a: &SlideBatch<2>, b: &SlideBatch<2>) -> bool {
        a.incoming == b.incoming && a.outgoing == b.outgoing
    }

    #[test]
    fn append_and_read_roundtrips() {
        let path = tmp("roundtrip.wal");
        let mut w = WalWriter::<2>::create(&path, FsyncPolicy::Always).unwrap();
        for seq in 1..=5 {
            w.append(seq, &batch(seq)).unwrap();
        }
        drop(w);
        let scan = read_wal::<2>(&path).unwrap();
        assert_eq!(scan.torn_tail_at, None);
        assert_eq!(scan.records.len(), 5);
        for (i, (seq, b)) in scan.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert!(batches_eq(b, &batch(*seq)));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_cut() {
        let path = tmp("torn.wal");
        let mut w = WalWriter::<2>::create(&path, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            w.append(seq, &batch(seq)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let header_len = MAGIC.len() + 8;
        // Find where record 3 starts: re-scan record lengths.
        let mut starts = vec![header_len];
        let mut pos = header_len;
        while pos < full.len() {
            let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
            starts.push(pos);
        }
        let last_start = starts[starts.len() - 2];
        for cut in last_start + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = read_wal::<2>(&path).unwrap();
            assert_eq!(scan.records.len(), 2, "cut at {cut}");
            assert_eq!(scan.torn_tail_at, Some(last_start as u64), "cut at {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_loud() {
        let path = tmp("corrupt.wal");
        let mut w = WalWriter::<2>::create(&path, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            w.append(seq, &batch(seq)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the *first* record's payload: a complete record
        // with a bad CRC, not a torn tail.
        let target = MAGIC.len() + 8 + 4 + 3;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match read_wal::<2>(&path) {
            Err(PersistError::WalCorrupt { offset, .. }) => {
                assert_eq!(offset, (MAGIC.len() + 8) as u64)
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_append_truncates_the_torn_tail_and_continues() {
        let path = tmp("reopen.wal");
        let mut w = WalWriter::<2>::create(&path, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            w.append(seq, &batch(seq)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Tear the last record: drop its final 5 bytes.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let mut w = WalWriter::<2>::open_append(&path, FsyncPolicy::Always).unwrap();
        let two_records = (MAGIC.len() + 8) as u64 + 2 * (16 + 3 * 24 + 8);
        assert_eq!(w.len_bytes(), two_records);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), two_records);
        w.append(3, &batch(3)).unwrap();
        w.append(4, &batch(4)).unwrap();
        drop(w);

        let scan = read_wal::<2>(&path).unwrap();
        assert_eq!(scan.torn_tail_at, None);
        let seqs: Vec<u64> = scan.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_guards_fire() {
        let path = tmp("badheader.wal");
        std::fs::write(&path, b"NOTAWAL!").unwrap();
        assert!(matches!(
            read_wal::<2>(&path),
            Err(PersistError::Truncated { .. })
        ));
        std::fs::write(&path, b"NOTAWAL!\x01\0\0\0\x02\0\0\0").unwrap();
        assert!(matches!(
            read_wal::<2>(&path),
            Err(PersistError::BadMagic { kind: "wal" })
        ));
        let mut good = MAGIC.to_vec();
        good.extend_from_slice(&9u32.to_le_bytes());
        good.extend_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &good).unwrap();
        assert!(matches!(
            read_wal::<2>(&path),
            Err(PersistError::UnsupportedVersion {
                kind: "wal",
                found: 9
            })
        ));
        let mut wrongdim = MAGIC.to_vec();
        wrongdim.extend_from_slice(&VERSION.to_le_bytes());
        wrongdim.extend_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &wrongdim).unwrap();
        assert!(matches!(
            read_wal::<2>(&path),
            Err(PersistError::DimensionMismatch {
                expected: 2,
                found: 3
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn len_bytes_tracks_the_real_file_size() {
        let path = tmp("lenbytes.wal");
        let mut w = WalWriter::<2>::create(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(w.len_bytes(), (MAGIC.len() + 8) as u64);
        for seq in 1..=4 {
            w.append(seq, &batch(seq)).unwrap();
            let on_disk = std::fs::metadata(&path).unwrap().len();
            assert_eq!(w.len_bytes(), on_disk, "after append {seq}");
        }
        drop(w);
        // Reopening inherits the existing length.
        let mut w = WalWriter::<2>::open_append(&path, FsyncPolicy::Always).unwrap();
        let before = w.len_bytes();
        assert_eq!(before, std::fs::metadata(&path).unwrap().len());
        w.append(5, &batch(5)).unwrap();
        assert_eq!(w.len_bytes(), std::fs::metadata(&path).unwrap().len());
        assert!(w.len_bytes() > before);
        drop(w);
        std::fs::remove_file(&path).unwrap();
    }

    /// One record's bytes, pinned: the header, then a frame around
    /// `seq 1 | n_in 1 | n_out 1 | (7, [1.5, -2.0]) | (2, [0.25, 4.0])`.
    #[test]
    fn one_record_has_the_pinned_bytes() {
        #[rustfmt::skip]
        const GOLDEN: &[u8] = &[
            b'D', b'I', b'S', b'C', b'W', b'A', b'L', 0, // magic
            1, 0, 0, 0, // version
            2, 0, 0, 0, // dim
            64, 0, 0, 0, // len
            1, 0, 0, 0, 0, 0, 0, 0, // seq
            1, 0, 0, 0, // n_in
            1, 0, 0, 0, // n_out
            7, 0, 0, 0, 0, 0, 0, 0, // id
            0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // 1.5
            0, 0, 0, 0, 0, 0, 0, 0xc0, // -2.0
            2, 0, 0, 0, 0, 0, 0, 0, // id
            0, 0, 0, 0, 0, 0, 0xd0, 0x3f, // 0.25
            0, 0, 0, 0, 0, 0, 0x10, 0x40, // 4.0
            0xf5, 0xeb, 0xfb, 0xcf, // crc32(payload)
        ];
        let path = tmp("golden.wal");
        let mut w = WalWriter::<2>::create(&path, FsyncPolicy::Never).unwrap();
        let one = SlideBatch {
            incoming: vec![(PointId(7), Point::new([1.5, -2.0]))],
            outgoing: vec![(PointId(2), Point::new([0.25, 4.0]))],
        };
        assert_eq!(w.append(1, &one).unwrap(), 72);
        drop(w);
        assert_eq!(std::fs::read(&path).unwrap(), GOLDEN);
        std::fs::remove_file(&path).unwrap();
    }

    /// A record length `16 + k·(8 + 8D)` with one bit flipped is never
    /// another such length when D is 2 or 4, so the flip is loud.
    #[test]
    fn no_single_bit_flip_turns_a_record_length_into_another() {
        fn check<const D: usize>() {
            for k in 0..4096 {
                let len = 16 + k * (8 + 8 * D);
                for bit in 0..32 {
                    let flipped = (len as u32 ^ (1 << bit)) as usize;
                    assert!(!payload_len_ok::<D>(flipped), "D={D} k={k} bit {bit}");
                }
            }
        }
        check::<2>();
        check::<4>();
    }

    /// A flipped length bit in the last complete record must not read as
    /// a torn tail: that would silently drop a committed slide.
    #[test]
    fn a_flipped_length_bit_in_the_last_record_is_loud() {
        let path = tmp("lenflip.wal");
        let mut w = WalWriter::<2>::create(&path, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            w.append(seq, &batch(seq)).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let last = MAGIC.len() + 8 + 2 * (16 + 3 * 24 + 8);
        for bit in 0..32 {
            let mut bytes = full.clone();
            bytes[last + bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            match read_wal::<2>(&path) {
                Err(PersistError::WalCorrupt { kind, offset, .. }) => {
                    assert_eq!((kind, offset), ("wal", last as u64), "bit {bit}")
                }
                other => panic!("bit {bit}: expected WalCorrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_policies_parse() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every=8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(FsyncPolicy::parse("every=0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
