//! Little-endian primitive codec shared by the checkpoint and WAL formats.
//!
//! [`Enc`] builds a payload in memory; [`Dec`] consumes one with
//! bounds-checked reads that turn premature EOF into
//! [`PersistError::Truncated`] naming the section being decoded — the
//! reader never indexes past the buffer and never panics on hostile bytes.

use crate::error::PersistError;

/// An in-memory payload builder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty payload.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
}

/// A bounds-checked payload reader.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> Dec<'a> {
    /// Wraps `buf`, attributing decode failures to `section`.
    pub fn new(buf: &'a [u8], section: &'a str) -> Self {
        Dec {
            buf,
            pos: 0,
            section,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                section: self.section.to_string(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a bool byte, rejecting values other than 0/1.
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Corrupt {
                section: self.section.to_string(),
                detail: format!("bool byte {other}"),
            }),
        }
    }

    /// Asserts the payload was fully consumed (trailing garbage is as
    /// suspicious as missing bytes).
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::Corrupt {
                section: self.section.to_string(),
                detail: format!("{} trailing bytes", self.remaining()),
            });
        }
        Ok(())
    }

    /// A length prefix about to drive an allocation: rejects counts that
    /// could not possibly fit in the remaining payload, so a corrupt count
    /// cannot trigger a multi-gigabyte `Vec` reservation.
    pub fn checked_count(&self, count: u64, min_bytes_each: usize) -> Result<usize, PersistError> {
        let need = (count as u128) * (min_bytes_each as u128);
        if need > self.remaining() as u128 {
            return Err(PersistError::Corrupt {
                section: self.section.to_string(),
                detail: format!(
                    "count {count} needs {need} bytes but only {} remain",
                    self.remaining()
                ),
            });
        }
        Ok(count as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.f64(-1.5);
        e.bool(true);
        e.bool(false);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), -1.5);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        d.finish().unwrap();
    }

    #[test]
    fn truncation_names_the_section() {
        let mut d = Dec::new(&[1, 2], "points");
        match d.u32() {
            Err(PersistError::Truncated { section }) => assert_eq!(section, "points"),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bad_bool_and_trailing_bytes_are_corrupt() {
        let mut d = Dec::new(&[9], "flags");
        assert!(matches!(d.bool(), Err(PersistError::Corrupt { .. })));
        let d = Dec::new(&[0, 0], "flags");
        assert!(matches!(d.finish(), Err(PersistError::Corrupt { .. })));
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        let bytes = [0u8; 16];
        let d = Dec::new(&bytes, "points");
        assert!(d.checked_count(2, 8).is_ok());
        assert!(matches!(
            d.checked_count(u64::MAX, 8),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
