//! The versioned, checksummed checkpoint codec.
//!
//! # File format (version 1)
//!
//! ```text
//! header   := magic "DISCKPT\0" (8 bytes) | version u32 | dim u32 | sections u32
//! section  := name_len u8 | name | payload_len u64 | payload | crc32(payload) u32
//! ```
//!
//! All integers little-endian. Sections (in order): `config`, `engine`,
//! `points`, `dsu`, and optionally `driver`. Every section carries its own
//! CRC-32, so a truncated file fails with [`PersistError::Truncated`] and a
//! bit-flipped one with [`PersistError::ChecksumMismatch`] naming the
//! damaged section — decoding never yields garbage state.
//!
//! The spatial index is not serialized: the engine rebuilds it from the
//! `points` section via `bulk_insert` on restore, which is what keeps one
//! checkpoint restorable into either backend instantiation.
//!
//! [`save_checkpoint`] writes atomically — temp file, fsync, rename — so a
//! crash *during* a checkpoint can never leave a half-written file under
//! the final name: recovery either sees the previous complete checkpoint
//! or the new complete one.

use crate::codec::{Dec, Enc};
use crate::crc::crc32;
use crate::error::PersistError;
use crate::log::Header;
use disc_core::{DiscConfig, EngineState, IndexBackend, PointState};
use disc_geom::{Point, PointId};
use std::io::Write;
use std::path::Path;

/// Checkpoint file magic.
pub const MAGIC: &[u8; 8] = b"DISCKPT\0";
/// Current checkpoint format version.
pub const VERSION: u32 = 1;

fn header<const D: usize>() -> Header {
    Header {
        kind: "checkpoint",
        magic: MAGIC,
        version: VERSION,
        dim: Some(D),
    }
}

/// The sliding-window driver's position, carried alongside the engine
/// state so `disc resume` can fast-forward the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriverState {
    /// Window size in points.
    pub window: u64,
    /// Stride size in points.
    pub stride: u64,
    /// Index of the first record of the current window.
    pub start: u64,
}

/// Everything a checkpoint stores: the engine image plus (for CLI runs)
/// the driver position.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint<const D: usize> {
    /// The engine image (see [`EngineState`]).
    pub state: EngineState<D>,
    /// Stream-driver position; `None` for library users that drive their
    /// own batches.
    pub driver: Option<DriverState>,
}

fn encode_config(cfg: &DiscConfig) -> Vec<u8> {
    let mut e = Enc::new();
    e.f64(cfg.eps);
    e.u64(cfg.tau as u64);
    let mut flags = 0u8;
    if cfg.enable_msbfs {
        flags |= 1;
    }
    if cfg.enable_epoch_probe {
        flags |= 2;
    }
    // Bit 4 once flagged a batched COLLECT that could be switched off. It
    // is the only COLLECT now: always written, so checkpoints keep their
    // bytes, and ignored on read.
    flags |= 4;
    e.u8(flags);
    e.u8(match cfg.backend {
        IndexBackend::RTree => 0,
        IndexBackend::Grid => 1,
    });
    e.into_bytes()
}

fn decode_config(bytes: &[u8]) -> Result<DiscConfig, PersistError> {
    let mut d = Dec::new(bytes, "config");
    let eps = d.f64()?;
    let tau = d.u64()?;
    let flags = d.u8()?;
    if flags & !0b111 != 0 {
        return Err(PersistError::Corrupt {
            section: "config".into(),
            detail: format!("unknown flag bits {flags:#x}"),
        });
    }
    let backend = match d.u8()? {
        0 => IndexBackend::RTree,
        1 => IndexBackend::Grid,
        other => {
            return Err(PersistError::Corrupt {
                section: "config".into(),
                detail: format!("unknown backend tag {other}"),
            })
        }
    };
    d.finish()?;
    if !(eps > 0.0 && eps.is_finite()) || tau < 1 || tau > usize::MAX as u64 {
        return Err(PersistError::Corrupt {
            section: "config".into(),
            detail: format!("eps {eps} / tau {tau} out of range"),
        });
    }
    Ok(DiscConfig {
        eps,
        tau: tau as usize,
        enable_msbfs: flags & 1 != 0,
        enable_epoch_probe: flags & 2 != 0,
        backend,
        // Deliberately NOT persisted: worker count is a host-execution knob
        // with no effect on clustering output, and the restoring host may
        // have different parallelism than the checkpointing one. Both encode
        // and decode sides see the same process-stable ambient default, so
        // config round-trips stay exact.
        threads: DiscConfig::default_threads(),
    })
}

fn encode_points<const D: usize>(points: &[PointState<D>]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(points.len() as u64);
    for p in points {
        e.u64(p.id.raw());
        for i in 0..D {
            e.f64(p.point[i]);
        }
        e.u32(p.n_eps);
        e.bool(p.prev_core);
        e.u32(p.cid);
        match p.adopter {
            Some(a) => {
                e.u8(1);
                e.u64(a.raw());
            }
            None => e.u8(0),
        }
    }
    e.into_bytes()
}

fn decode_points<const D: usize>(bytes: &[u8]) -> Result<Vec<PointState<D>>, PersistError> {
    let mut d = Dec::new(bytes, "points");
    // id + coords + n_eps + prev_core + cid + adopter flag.
    let min_each = 8 + 8 * D + 4 + 1 + 4 + 1;
    let raw_count = d.u64()?;
    let count = d.checked_count(raw_count, min_each)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let id = PointId(d.u64()?);
        let mut coords = [0.0f64; D];
        for c in coords.iter_mut() {
            *c = d.f64()?;
        }
        let n_eps = d.u32()?;
        let prev_core = d.bool()?;
        let cid = d.u32()?;
        let adopter = match d.u8()? {
            0 => None,
            1 => Some(PointId(d.u64()?)),
            other => {
                return Err(PersistError::Corrupt {
                    section: "points".into(),
                    detail: format!("adopter flag {other}"),
                })
            }
        };
        out.push(PointState {
            id,
            point: Point::new(coords),
            n_eps,
            prev_core,
            cid,
            adopter,
        });
    }
    d.finish()?;
    Ok(out)
}

fn encode_dsu(parent: &[u32], size: &[u32]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(parent.len() as u64);
    for &p in parent {
        e.u32(p);
    }
    for &s in size {
        e.u32(s);
    }
    e.into_bytes()
}

fn decode_dsu(bytes: &[u8]) -> Result<(Vec<u32>, Vec<u32>), PersistError> {
    let mut d = Dec::new(bytes, "dsu");
    let raw_count = d.u64()?;
    let count = d.checked_count(raw_count, 8)?;
    let mut parent = Vec::with_capacity(count);
    for _ in 0..count {
        parent.push(d.u32()?);
    }
    let mut size = Vec::with_capacity(count);
    for _ in 0..count {
        size.push(d.u32()?);
    }
    d.finish()?;
    Ok((parent, size))
}

fn encode_driver(drv: &DriverState) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(drv.window);
    e.u64(drv.stride);
    e.u64(drv.start);
    e.into_bytes()
}

fn decode_driver(bytes: &[u8]) -> Result<DriverState, PersistError> {
    let mut d = Dec::new(bytes, "driver");
    let drv = DriverState {
        window: d.u64()?,
        stride: d.u64()?,
        start: d.u64()?,
    };
    d.finish()?;
    if drv.window == 0 || drv.stride == 0 || drv.stride > drv.window {
        return Err(PersistError::Corrupt {
            section: "driver".into(),
            detail: format!(
                "window {} / stride {} violate the sliding-window model",
                drv.window, drv.stride
            ),
        });
    }
    Ok(drv)
}

fn push_section(out: &mut Vec<u8>, name: &str, payload: &[u8]) {
    debug_assert!(name.len() <= u8::MAX as usize);
    out.push(name.len() as u8);
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Encodes a checkpoint into its on-disk byte image.
pub fn encode_checkpoint<const D: usize>(ckpt: &Checkpoint<D>) -> Vec<u8> {
    let mut out = header::<D>().encode();
    let sections = if ckpt.driver.is_some() { 5u32 } else { 4 };
    out.extend_from_slice(&sections.to_le_bytes());
    push_section(&mut out, "config", &encode_config(&ckpt.state.config));
    let mut engine = Enc::new();
    engine.u64(ckpt.state.slide_seq);
    push_section(&mut out, "engine", &engine.into_bytes());
    push_section(&mut out, "points", &encode_points(&ckpt.state.points));
    push_section(
        &mut out,
        "dsu",
        &encode_dsu(&ckpt.state.dsu_parent, &ckpt.state.dsu_size),
    );
    if let Some(drv) = &ckpt.driver {
        push_section(&mut out, "driver", &encode_driver(drv));
    }
    out
}

/// Decodes a checkpoint byte image, verifying magic, version, dimension,
/// and every section CRC.
pub fn decode_checkpoint<const D: usize>(bytes: &[u8]) -> Result<Checkpoint<D>, PersistError> {
    let at = header::<D>().check(bytes)?;
    let mut d = Dec::new(&bytes[at..], "header");
    let sections = d.u32()?;
    if sections > 16 {
        return Err(PersistError::Corrupt {
            section: "header".into(),
            detail: format!("{sections} sections"),
        });
    }

    let mut config = None;
    let mut slide_seq = None;
    let mut points = None;
    let mut dsu = None;
    let mut driver = None;
    for _ in 0..sections {
        let name_len = d.u8()? as usize;
        let name: String = d.bytes(name_len)?.iter().map(|&b| b as char).collect();
        let raw_len = d.u64()?;
        let len = d.checked_count(raw_len, 1)?;
        let payload = d.bytes(len)?;
        if crc32(payload) != d.u32()? {
            return Err(PersistError::ChecksumMismatch { section: name });
        }
        match name.as_str() {
            "config" => config = Some(decode_config(payload)?),
            "engine" => {
                let mut ed = Dec::new(payload, "engine");
                slide_seq = Some(ed.u64()?);
                ed.finish()?;
            }
            "points" => points = Some(decode_points::<D>(payload)?),
            "dsu" => dsu = Some(decode_dsu(payload)?),
            "driver" => driver = Some(decode_driver(payload)?),
            other => {
                return Err(PersistError::Corrupt {
                    section: other.to_string(),
                    detail: "unknown section".into(),
                })
            }
        }
    }
    d.finish()?;

    let missing = |what: &str| PersistError::Corrupt {
        section: what.to_string(),
        detail: "section missing".into(),
    };
    let (dsu_parent, dsu_size) = dsu.ok_or_else(|| missing("dsu"))?;
    Ok(Checkpoint {
        state: EngineState {
            config: config.ok_or_else(|| missing("config"))?,
            slide_seq: slide_seq.ok_or_else(|| missing("engine"))?,
            points: points.ok_or_else(|| missing("points"))?,
            dsu_parent,
            dsu_size,
        },
        driver,
    })
}

/// Streams the encoded checkpoint into `w`; returns the byte count.
///
/// Exposed separately from [`save_checkpoint`] so tests can inject write
/// failures (the `FailingWriter` harness) without touching the atomic
/// rename path.
pub fn write_checkpoint_to<W: Write, const D: usize>(
    w: &mut W,
    ckpt: &Checkpoint<D>,
) -> Result<u64, PersistError> {
    let bytes = encode_checkpoint(ckpt);
    w.write_all(&bytes)?;
    Ok(bytes.len() as u64)
}

/// Atomically writes a checkpoint to `path`: encode, write to
/// `path.tmp`, fsync, rename over `path`. Returns the byte count. A crash
/// at any step leaves either the old file or the new one — never a
/// partial image under the final name.
pub fn save_checkpoint<const D: usize>(
    path: &Path,
    ckpt: &Checkpoint<D>,
) -> Result<u64, PersistError> {
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    let len = write_checkpoint_to(&mut f, ckpt)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    // Best-effort directory sync so the rename itself is durable.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(len)
}

/// Loads and fully verifies a checkpoint from `path`.
pub fn load_checkpoint<const D: usize>(path: &Path) -> Result<Checkpoint<D>, PersistError> {
    let bytes = std::fs::read(path)?;
    decode_checkpoint(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint<2> {
        Checkpoint {
            state: EngineState {
                config: DiscConfig::new(0.75, 4).with_backend(IndexBackend::Grid),
                slide_seq: 17,
                points: vec![
                    PointState {
                        id: PointId(3),
                        point: Point::new([1.5, -2.0]),
                        n_eps: 5,
                        prev_core: true,
                        cid: 0,
                        adopter: None,
                    },
                    PointState {
                        id: PointId(4),
                        point: Point::new([1.6, -2.0]),
                        n_eps: 2,
                        prev_core: false,
                        cid: u32::MAX,
                        adopter: Some(PointId(3)),
                    },
                ],
                dsu_parent: vec![0, 0],
                dsu_size: vec![2, 1],
            },
            driver: Some(DriverState {
                window: 100,
                stride: 10,
                start: 70,
            }),
        }
    }

    #[test]
    fn encode_decode_roundtrips() {
        let ckpt = sample();
        let bytes = encode_checkpoint(&ckpt);
        let back = decode_checkpoint::<2>(&bytes).unwrap();
        assert_eq!(back, ckpt);

        // Without the driver section too.
        let mut ckpt = ckpt;
        ckpt.driver = None;
        let back = decode_checkpoint::<2>(&encode_checkpoint(&ckpt)).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn save_load_roundtrips_on_disk() {
        let dir = std::env::temp_dir().join("disc_persist_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.disc");
        let ckpt = sample();
        let bytes = save_checkpoint(&path, &ckpt).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(load_checkpoint::<2>(&path).unwrap(), ckpt);
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file must not survive"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let bytes = encode_checkpoint(&sample());
        for cut in 0..bytes.len() {
            let err = decode_checkpoint::<2>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::BadMagic { .. }
                        | PersistError::ChecksumMismatch { .. }
                        | PersistError::Corrupt { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_or_harmless() {
        // Flipping any single bit must either be detected (the usual case)
        // or produce an image identical in meaning — it must never decode
        // into *different* state. Flips in section payloads are caught by
        // CRC; flips in headers by magic/version/dim/structure checks.
        let ckpt = sample();
        let bytes = encode_checkpoint(&ckpt);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                match decode_checkpoint::<2>(&flipped) {
                    Err(_) => {}
                    Ok(decoded) => {
                        assert_eq!(decoded, ckpt, "flip at {byte}:{bit} silently changed state")
                    }
                }
            }
        }
    }

    #[test]
    fn dimension_and_version_guards_fire() {
        let bytes = encode_checkpoint(&sample());
        assert!(matches!(
            decode_checkpoint::<3>(&bytes),
            Err(PersistError::DimensionMismatch {
                expected: 3,
                found: 2
            })
        ));
        let mut v9 = bytes.clone();
        v9[8] = 9;
        assert!(matches!(
            decode_checkpoint::<2>(&v9),
            Err(PersistError::UnsupportedVersion {
                kind: "checkpoint",
                found: 9
            })
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_checkpoint::<2>(&bad),
            Err(PersistError::BadMagic { kind: "checkpoint" })
        ));
        // A backend tag this build does not know — including 2, which an
        // older build wrote for its since-removed curve backend — fails as
        // a named corruption, never a panic, even under a valid CRC.
        let at = 20 + 1 + "config".len() + 8; // header, name, length
        let cfg_len = encode_config(&sample().state.config).len();
        for tag in [2u8, 3, u8::MAX] {
            let mut bad = bytes.clone();
            bad[at + cfg_len - 1] = tag;
            let crc = crc32(&bad[at..at + cfg_len]).to_le_bytes();
            bad[at + cfg_len..at + cfg_len + 4].copy_from_slice(&crc);
            match decode_checkpoint::<2>(&bad) {
                Err(PersistError::Corrupt { section, detail }) => {
                    assert_eq!(section, "config");
                    assert_eq!(detail, format!("unknown backend tag {tag}"));
                }
                other => panic!("backend tag {tag}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn config_flag_bit_4_is_ignored_and_unknown_bits_are_corrupt() {
        // Rewrites the config's flags byte under a valid CRC.
        let bytes = encode_checkpoint(&sample());
        let at = 20 + 1 + "config".len() + 8; // header, name, length
        let cfg_len = encode_config(&sample().state.config).len();
        let flags_at = at + 8 + 8; // eps, tau
        assert_eq!(bytes[flags_at], 0b111, "default configs write bit 4 set");
        let with_flags = |flags: u8| {
            let mut b = bytes.clone();
            b[flags_at] = flags;
            let crc = crc32(&b[at..at + cfg_len]).to_le_bytes();
            b[at + cfg_len..at + cfg_len + 4].copy_from_slice(&crc);
            decode_checkpoint::<2>(&b)
        };
        // Bit 4 clear: what a build with a switchable batched COLLECT
        // wrote when it was off. It loads as the same config.
        assert_eq!(with_flags(0b011).unwrap(), sample());
        for flags in [0b1111u8, 0x80] {
            match with_flags(flags) {
                Err(PersistError::Corrupt { section, detail }) => {
                    assert_eq!(section, "config");
                    assert_eq!(detail, format!("unknown flag bits {flags:#x}"));
                }
                other => panic!("flags {flags:#x}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn failing_writer_surfaces_io_errors() {
        struct FailAfter {
            left: usize,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.left == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                let n = buf.len().min(self.left);
                self.left -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let ckpt = sample();
        let mut w = FailAfter { left: 10 };
        assert!(matches!(
            write_checkpoint_to(&mut w, &ckpt),
            Err(PersistError::Io(_))
        ));
        let mut ok = Vec::new();
        assert!(write_checkpoint_to(&mut ok, &ckpt).is_ok());
    }
}
