"""Re-verifies every complete frame of a DISC append-only log with zlib.

Usage: python3 .github/scripts/verify_log.py LOG

The slide WAL (magic DISCWAL\\0, 16-byte header) and the ingest journal
(magic DISCINGJ, 12-byte header) share one frame:
len u32 | payload | crc32(payload) u32. crc.rs promises zlib-compatible
CRC-32, so zlib.crc32 must accept every complete frame. A torn final frame
(a kill landed mid-append) is tolerated, as the reader does.
"""

import struct
import sys
import zlib

HEADER_LEN = {b"DISCWAL\0": 16, b"DISCINGJ": 12}

path = sys.argv[1]
data = open(path, "rb").read()
magic = data[:8]
assert magic in HEADER_LEN, f"{path}: unknown magic {magic!r}"
pos, frames = HEADER_LEN[magic], 0
while pos + 4 <= len(data):
    (n,) = struct.unpack_from("<I", data, pos)
    if pos + 4 + n + 4 > len(data):
        print(f"{path}: torn tail at byte {pos}")
        break
    payload = data[pos + 4 : pos + 4 + n]
    (crc,) = struct.unpack_from("<I", data, pos + 4 + n)
    assert zlib.crc32(payload) == crc, f"{path}: CRC mismatch in the frame at byte {pos}"
    pos, frames = pos + 8 + n, frames + 1
assert frames > 0, f"{path}: no complete frame"
print(f"{path}: {frames} frames verified with zlib.crc32")
