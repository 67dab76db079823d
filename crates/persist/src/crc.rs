//! CRC-32 (IEEE 802.3), the per-section / per-record integrity check.
//!
//! Slicing-by-8: eight 256-entry tables, built at compile time by `const`
//! evaluation, fold eight input bytes per step with eight independent
//! lookups instead of a serial chain of eight. `TABLES[0]` is the classic
//! bytewise table, which also finishes the sub-8-byte tail. The polynomial
//! and bit order match zlib's `crc32`, so checkpoints and WAL records can
//! be verified with standard tooling
//! (`python3 -c 'import zlib, sys; ...'`).

/// `TABLES[k][b]` is the CRC register contribution of byte `b` followed
/// by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `bytes` (IEEE polynomial, reflected, init/xorout `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table-driven CRC this module used before slicing-by-8:
    /// the reference every fast-path result must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Bit-at-a-time CRC straight from the polynomial, independent of any
    /// table, so a wrong `TABLES[0]` cannot hide behind the reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    fn pseudo_random_bytes(n: usize, mut s: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn matches_the_standard_check_value() {
        // The universal CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the window holds the most recent points".to_vec();
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), good, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn slicing_by_8_equals_bytewise_at_every_length_and_offset() {
        let data = pseudo_random_bytes(308, 0x9e37_79b9_7f4a_7c15);
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        assert_eq!(crc32_bytewise(&data), crc32_bitwise(&data));
    }

    #[test]
    fn large_buffer_matches_zlib() {
        // 64 KiB + 3 of `i * 31 + 7` bytes; the expected value is
        // `zlib.crc32(bytes((i * 31 + 7) % 256 for i in range(65539)))`.
        let data: Vec<u8> = (0..65_539u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(crc32(&data), crc32_bitwise(&data));
        assert_eq!(crc32(&data), 0x5736_9999);
    }
}
