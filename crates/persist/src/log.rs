//! The one append-only log, which the slide WAL ([`crate::wal`]) and the
//! ingest journal ([`crate::ingest`]) encode their records into:
//!
//! ```text
//! header := magic (8 bytes) | version u32 [| dim u32]
//! frame  := len u32 | payload (len bytes) | crc32(payload) u32
//! ```
//!
//! Each append writes one frame, flushes it to the OS and fsyncs it per
//! [`FsyncPolicy`]. Callers append **before** a record takes effect, so an
//! incomplete final frame (a crash mid-append) was never acted on: a *torn
//! tail*, reported by [`scan`] and cut off by [`LogWriter::reopen`]. A complete
//! frame whose CRC fails is [`PersistError::WalCorrupt`], and so is a
//! complete length field the codec cannot produce, or a flipped length bit
//! in a late frame would read as a torn tail and drop committed records.

use crate::crc::crc32;
use crate::error::PersistError;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

/// When a log writer calls `fsync` after an append.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every record: no committed record can be lost, at the
    /// cost of one disk flush per record.
    Always,
    /// Fsync after every `k`-th record: bounds loss to at most `k` records.
    EveryN(u64),
    /// Never fsync explicitly; the OS flushes on its own schedule.
    /// Fastest, loses up to the page-cache window on power failure.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `always`, `never`, or `every=N`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => {
                let n: u64 = s.strip_prefix("every=")?.parse().ok()?;
                if n == 0 {
                    None
                } else {
                    Some(FsyncPolicy::EveryN(n))
                }
            }
        }
    }
}

/// A file header, `magic | version [| dim]`; the checkpoint's too.
pub(crate) struct Header {
    /// What the file is, for errors (`"wal"`, `"ingest journal"`,
    /// `"checkpoint"`).
    pub kind: &'static str,
    pub magic: &'static [u8; 8],
    pub version: u32,
    /// The point dimension, for files that record one.
    pub dim: Option<usize>,
}

impl Header {
    /// The header's bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.magic.to_vec();
        out.extend_from_slice(&self.version.to_le_bytes());
        if let Some(dim) = self.dim {
            out.extend_from_slice(&(dim as u32).to_le_bytes());
        }
        out
    }

    /// Checks the header at the start of `bytes`; returns its size.
    pub fn check(&self, bytes: &[u8]) -> Result<usize, PersistError> {
        let (kind, want) = (self.kind, self.encode());
        let Some(header) = bytes.get(..want.len()) else {
            let section = format!("{kind} header");
            return Err(PersistError::Truncated { section });
        };
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
        if header[..8] != want[..8] {
            Err(PersistError::BadMagic { kind })
        } else if word(8) != self.version {
            let found = word(8);
            Err(PersistError::UnsupportedVersion { kind, found })
        } else if let Some(expected) = self.dim.filter(|_| header != want) {
            let found = word(12) as usize;
            Err(PersistError::DimensionMismatch { expected, found })
        } else {
            Ok(want.len())
        }
    }
}

/// One log's format: its header and the payload lengths its codec writes.
pub(crate) struct Format {
    pub header: Header,
    pub len_ok: fn(usize) -> bool,
}

/// Checks the header of the log image `bytes` and hands each complete,
/// CRC-clean frame's `(offset, payload)` to `visit`, in order. Returns the
/// offset of a torn tail, or `None` when the log ends on a frame boundary.
pub(crate) fn scan(
    bytes: &[u8],
    format: &Format,
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), PersistError>,
) -> Result<Option<u64>, PersistError> {
    let kind = format.header.kind;
    let mut pos = format.header.check(bytes)?;
    loop {
        let (rest, offset) = (&bytes[pos..], pos as u64);
        let corrupt = |detail| PersistError::WalCorrupt {
            kind,
            offset,
            detail,
        };
        let Some(len) = rest.get(..4) else {
            return Ok((!rest.is_empty()).then_some(offset));
        };
        let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
        if !(format.len_ok)(len) {
            return Err(corrupt(format!("no {kind} record is {len} bytes long")));
        }
        let Some(frame) = rest.get(4..len + 8) else {
            return Ok(Some(offset));
        };
        let (payload, stored) = frame.split_at(len);
        if crc32(payload).to_le_bytes() != stored {
            return Err(corrupt("checksum mismatch on a complete record".into()));
        }
        visit(offset, payload)?;
        pos += len + 8;
    }
}

/// Appends frames to a log file.
pub(crate) struct LogWriter {
    file: BufWriter<File>,
    policy: FsyncPolicy,
    appended_since_sync: u64,
    /// On-disk size, maintained incrementally.
    len_bytes: u64,
}

impl LogWriter {
    /// Creates a log at `path` (truncating any existing file) and writes
    /// and fsyncs its header.
    pub fn create(path: &Path, header: &Header, policy: FsyncPolicy) -> Result<Self, PersistError> {
        let header = header.encode();
        let mut file = File::create(path)?;
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(Self::new(file, policy, header.len() as u64))
    }

    /// Reopens the log at `path` for appending, after a [`scan`] of it
    /// found `torn_tail_at`: cuts that tail off and positions the writer at
    /// the clean length.
    pub fn reopen(
        path: &Path,
        torn_tail_at: Option<u64>,
        policy: FsyncPolicy,
    ) -> Result<Self, PersistError> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        if let Some(offset) = torn_tail_at {
            file.set_len(offset)?;
            file.sync_all()?;
        }
        let len_bytes = file.seek(SeekFrom::End(0))?;
        Ok(Self::new(file, policy, len_bytes))
    }

    fn new(file: File, policy: FsyncPolicy, len_bytes: u64) -> Self {
        LogWriter {
            file: BufWriter::new(file),
            policy,
            appended_since_sync: 0,
            len_bytes,
        }
    }

    /// Appends one frame around `payload`, flushes it to the OS, and fsyncs
    /// when the policy says so. Returns the frame's size in bytes.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, PersistError> {
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file.write_all(payload)?;
        self.file.write_all(&crc32(payload).to_le_bytes())?;
        self.file.flush()?;
        self.appended_since_sync += 1;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(k) => self.appended_since_sync >= k,
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        let frame = payload.len() as u64 + 8;
        self.len_bytes += frame;
        Ok(frame)
    }

    /// Forces an fsync regardless of policy.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Current on-disk size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-byte-payload test codec with a dimension in its header.
    const FORMAT: Format = Format {
        header: Header {
            kind: "test log",
            magic: b"DISCTEST",
            version: 3,
            dim: Some(2),
        },
        len_ok: two_bytes,
    };

    fn two_bytes(len: usize) -> bool {
        len == 2
    }

    /// The header and two frames, `[1, 2]` and `[3, 4]`.
    fn image() -> Vec<u8> {
        let mut out = FORMAT.header.encode();
        for payload in [[1u8, 2], [3, 4]] {
            out.extend_from_slice(&2u32.to_le_bytes());
            out.extend_from_slice(&payload);
            out.extend_from_slice(&crc32(&payload).to_le_bytes());
        }
        out
    }

    /// Each frame's `(offset, payload)`, and the torn tail's offset.
    type Frames = (Vec<(u64, Vec<u8>)>, Option<u64>);

    fn frames(bytes: &[u8]) -> Result<Frames, PersistError> {
        let mut seen = Vec::new();
        let torn = scan(bytes, &FORMAT, |offset, payload| {
            seen.push((offset, payload.to_vec()));
            Ok(())
        })?;
        Ok((seen, torn))
    }

    #[test]
    fn header_and_frames_have_the_documented_bytes() {
        let bytes = image();
        assert_eq!(&bytes[..16], b"DISCTEST\x03\0\0\0\x02\0\0\0");
        assert_eq!(&bytes[16..22], &[2, 0, 0, 0, 1, 2]);
        assert_eq!(bytes.len(), 16 + 2 * 10);
        let (seen, torn) = frames(&bytes).unwrap();
        assert_eq!(seen, vec![(16, vec![1, 2]), (26, vec![3, 4])]);
        assert_eq!(torn, None);
    }

    #[test]
    fn every_cut_inside_the_last_frame_is_a_torn_tail() {
        let bytes = image();
        for cut in 27..bytes.len() {
            let (seen, torn) = frames(&bytes[..cut]).unwrap();
            assert_eq!(seen.len(), 1, "cut at {cut}");
            assert_eq!(torn, Some(26), "cut at {cut}");
        }
    }

    #[test]
    fn every_bit_flip_after_the_header_is_loud() {
        let bytes = image();
        for at in 16..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                match frames(&flipped) {
                    Err(PersistError::WalCorrupt { kind, offset, .. }) => {
                        assert_eq!(kind, "test log");
                        assert_eq!(offset, if at < 26 { 16 } else { 26 });
                    }
                    other => panic!("flip at {at}:{bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn header_check_names_each_failure() {
        let bytes = image();
        assert!(matches!(
            FORMAT.header.check(&bytes[..15]),
            Err(PersistError::Truncated { section }) if section == "test log header"
        ));
        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert!(matches!(
            FORMAT.header.check(&magic),
            Err(PersistError::BadMagic { kind: "test log" })
        ));
        let mut version = bytes.clone();
        version[8] = 1;
        assert!(matches!(
            FORMAT.header.check(&version),
            Err(PersistError::UnsupportedVersion {
                kind: "test log",
                found: 1
            })
        ));
        let mut dim = bytes.clone();
        dim[12] = 4;
        assert!(matches!(
            FORMAT.header.check(&dim),
            Err(PersistError::DimensionMismatch {
                expected: 2,
                found: 4
            })
        ));
        assert_eq!(FORMAT.header.check(&bytes).unwrap(), 16);
    }

    #[test]
    fn reopen_cuts_the_torn_tail_and_writer_tracks_the_length() {
        let dir = std::env::temp_dir().join("disc_persist_log_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.log");
        let mut w = LogWriter::create(&path, &FORMAT.header, FsyncPolicy::EveryN(2)).unwrap();
        assert_eq!(w.len_bytes(), 16);
        assert_eq!(w.append(&[1, 2]).unwrap(), 10);
        assert_eq!(w.append(&[3, 4]).unwrap(), 10);
        assert_eq!(w.len_bytes(), std::fs::metadata(&path).unwrap().len());
        drop(w);
        assert_eq!(std::fs::read(&path).unwrap(), image());

        std::fs::write(&path, &image()[..30]).unwrap();
        let (seen, torn) = frames(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!((seen.len(), torn), (1, Some(26)));
        let mut w = LogWriter::reopen(&path, torn, FsyncPolicy::Always).unwrap();
        assert_eq!(w.len_bytes(), 26);
        w.append(&[3, 4]).unwrap();
        assert_eq!(w.len_bytes(), 36);
        drop(w);
        assert_eq!(std::fs::read(&path).unwrap(), image());
        std::fs::remove_file(&path).unwrap();
    }
}
