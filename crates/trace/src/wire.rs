//! Low-level wire primitives of the `.cgt` format: LEB128 varints,
//! length-prefixed strings, and the CRC32 used for per-chunk integrity.
//!
//! Everything here is dependency-free and deliberately boring: the format
//! must stay readable by any future version of this crate, so the encoding
//! is the plainest possible — unsigned LEB128 for every integer, UTF-8
//! bytes with a varint length prefix for strings, and IEEE CRC32
//! (reflected, polynomial `0xEDB88320`) over stored chunk payloads.

use std::io::{self, Read, Write};

/// Appends `value` as an unsigned LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a `usize` as a varint.
pub fn put_varint_usize(buf: &mut Vec<u8>, value: usize) {
    put_varint(buf, value as u64);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint_usize(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

/// Appends an `Option<u64>` (0 = `None`, otherwise `value + 1`).
pub fn put_opt_u64(buf: &mut Vec<u8>, value: Option<u64>) {
    match value {
        None => put_varint(buf, 0),
        Some(v) => {
            // +1 cannot overflow in practice: the encoded values are event
            // counts and byte sizes, never u64::MAX.
            put_varint(buf, v.checked_add(1).expect("optional value overflow"));
        }
    }
}

/// A cursor over a decoded byte slice.
///
/// Every read reports a clean error on truncation instead of panicking, so
/// corrupt or hostile inputs surface as [`TraceIoError`](crate::TraceIoError)
/// rather than aborts.
#[derive(Clone)]
pub struct SliceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// A structural decoding failure: what was being read when the bytes ran
/// out or were malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<'a> SliceReader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| WireError(format!("truncated while reading {what}")))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// Event streams are almost entirely one- to three-byte varints (tags,
    /// handle deltas, frame fields), so those lengths decode from a single
    /// bounds-checked window; anything longer, truncated or malformed takes
    /// [`varint_loop`], which also owns every error message.  Forced inline
    /// (and the loop handed the cursor by value) so that a decoder built
    /// from these calls keeps its cursor in a register.
    #[inline(always)]
    pub fn varint(&mut self, what: &str) -> Result<u64, WireError> {
        if let Some(&[a, b, c]) = self.bytes.get(self.pos..self.pos + 3) {
            if a < 0x80 {
                self.pos += 1;
                return Ok(u64::from(a));
            }
            let low = u64::from(a & 0x7f);
            if b < 0x80 {
                self.pos += 2;
                return Ok(low | u64::from(b) << 7);
            }
            if c < 0x80 {
                self.pos += 3;
                return Ok(low | u64::from(b & 0x7f) << 7 | u64::from(c) << 14);
            }
        }
        let (value, pos) = varint_loop(self.bytes, self.pos, what)?;
        self.pos = pos;
        Ok(value)
    }

    /// Reads a varint and converts it to `usize`, bounding it by `limit` to
    /// keep corrupt length prefixes from provoking huge allocations.
    pub fn bounded_len(&mut self, what: &str, limit: usize) -> Result<usize, WireError> {
        let v = self.varint(what)?;
        if v > limit as u64 {
            return Err(WireError(format!(
                "implausible length {v} for {what} (limit {limit})"
            )));
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.bounded_len(what, 1 << 20)?;
        if self.remaining() < len {
            return Err(WireError(format!("truncated while reading {what}")));
        }
        let bytes = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError(format!("invalid UTF-8 in {what}")))
    }

    /// Reads an `Option<u64>` (see [`put_opt_u64`]).
    pub fn opt_u64(&mut self, what: &str) -> Result<Option<u64>, WireError> {
        let raw = self.varint(what)?;
        Ok(if raw == 0 { None } else { Some(raw - 1) })
    }
}

/// The general varint decoder, one byte per iteration: the varint starting
/// at `bytes[pos]`, of any length up to ten bytes, and the position just
/// past it — or the truncation, overflow or over-length error.
#[inline(never)]
fn varint_loop(bytes: &[u8], mut pos: usize, what: &str) -> Result<(u64, usize), WireError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(pos)
            .ok_or_else(|| WireError(format!("truncated while reading {what}")))?;
        pos += 1;
        if shift == 63 && byte > 1 {
            return Err(WireError(format!("varint overflow while reading {what}")));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, pos));
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError(format!("varint too long while reading {what}")));
        }
    }
}

/// The slice-by-8 CRC32 tables (IEEE, reflected).  `CRC_TABLES[0]` is the
/// classic one-byte table; `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets eight input bytes fold into the
/// state with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `bytes` into `state` one table lookup per byte.
fn crc32_bytewise(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// IEEE CRC32 of `bytes` (the zlib/PNG polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xffff_ffff, bytes)
}

/// One step of an incremental [`crc32`]: feed `bytes` into the running
/// state.  Start from `0xffff_ffff`, fold each chunk, and complement
/// (`!state`) to finish — `!crc32_update(0xffff_ffff, all_bytes)` equals
/// `crc32(all_bytes)` however the bytes were split.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    crc32_bytewise(crc, words.remainder())
}

/// Reads exactly `buf.len()` bytes, mapping EOF to `Ok(false)` when nothing
/// was read at all (clean end of stream) and to an error when the stream
/// ends mid-record.
pub fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended mid-record",
            ));
        }
        filled += n;
    }
    Ok(true)
}

/// Writes a `u32` little-endian.
pub fn write_u32<W: Write>(w: &mut W, value: u32) -> io::Result<()> {
    w.write_all(&value.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_testutil::TestRng;

    fn round_trip(value: u64) {
        let mut buf = Vec::new();
        put_varint(&mut buf, value);
        let mut r = SliceReader::new(&buf);
        assert_eq!(r.varint("v").unwrap(), value);
        assert!(r.is_empty());
    }

    #[test]
    fn varints_round_trip() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            round_trip(v);
        }
    }

    #[test]
    fn varint_encoding_is_minimal_for_small_values() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10, "u64::MAX takes the full 10 LEB128 bytes");
    }

    #[test]
    fn truncated_varint_is_an_error() {
        let mut r = SliceReader::new(&[0x80]);
        let err = r.varint("field").unwrap_err();
        assert!(err.0.contains("truncated"), "{err}");
    }

    #[test]
    fn overlong_varint_is_an_error() {
        let bytes = [0xff; 11];
        let mut r = SliceReader::new(&bytes);
        assert!(r.varint("field").is_err());
    }

    #[test]
    fn strings_round_trip() {
        let mut buf = Vec::new();
        put_string(&mut buf, "javac/1");
        put_string(&mut buf, "");
        let mut r = SliceReader::new(&buf);
        assert_eq!(r.string("a").unwrap(), "javac/1");
        assert_eq!(r.string("b").unwrap(), "");
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let buf = vec![2, 0xff, 0xfe];
        let mut r = SliceReader::new(&buf);
        assert!(r.string("s").unwrap_err().0.contains("UTF-8"));
    }

    #[test]
    fn options_round_trip() {
        let mut buf = Vec::new();
        put_opt_u64(&mut buf, None);
        put_opt_u64(&mut buf, Some(0));
        put_opt_u64(&mut buf, Some(25_000));
        let mut r = SliceReader::new(&buf);
        assert_eq!(r.opt_u64("a").unwrap(), None);
        assert_eq!(r.opt_u64("b").unwrap(), Some(0));
        assert_eq!(r.opt_u64("c").unwrap(), Some(25_000));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
        // Long enough for the eight-byte folding to run (zlib's values).
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xffu8; 32]), 0xFF6C_AB0B);
    }

    /// The windowed `varint` against the byte loop it replaced on the hot
    /// path: same value, same cursor, same error text, for every encoded
    /// length, every truncation, and over-long / overflowing encodings.
    #[test]
    fn fast_varint_agrees_with_the_byte_loop() {
        fn both(bytes: &[u8]) {
            let mut fast = SliceReader::new(bytes);
            let fast = fast.varint("v").map(|value| (value, fast.pos));
            assert_eq!(fast, varint_loop(bytes, 0, "v"), "{bytes:02x?}");
        }
        let mut rng = TestRng::new(23);
        for len in 1..=10u32 {
            let lo = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
            let hi = if len == 10 {
                u64::MAX
            } else {
                (1u64 << (7 * len)) - 1
            };
            let mut values = vec![lo, hi];
            values.extend((0..50).map(|_| lo + rng.next_u64() % (hi - lo + 1)));
            for value in values {
                let mut buf = Vec::new();
                put_varint(&mut buf, value);
                assert_eq!(buf.len(), len as usize);
                assert_eq!(SliceReader::new(&buf).varint("v"), Ok(value));
                // Followed by 0..3 further bytes, so the window sees both a
                // short and a full slice, and truncated at every byte.
                for tail in 0..=3 {
                    let mut padded = buf.clone();
                    padded.extend(std::iter::repeat_n(0x81, tail));
                    both(&padded);
                }
                for cut in 0..buf.len() {
                    both(&buf[..cut]);
                }
            }
        }
        // Non-minimal, over-long (11+ bytes) and overflowing (10th byte > 1).
        both(&[0x80, 0x00]);
        both(&[0x80, 0x80, 0x00]);
        both(&[0x80, 0x80, 0x80, 0x00]);
        both(&[0xff; 10]);
        both(&[0xff; 11]);
        both(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
        both(&[
            0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81, 0x00,
        ]);
    }

    /// Slice-by-8 against one lookup per byte: every length 0..64 at every
    /// alignment within a word, and every split of an incremental update.
    #[test]
    fn sliced_crc_agrees_with_the_bytewise_table() {
        let mut rng = TestRng::new(29);
        let data: Vec<u8> = (0..80).map(|_| rng.next_u64() as u8).collect();
        for offset in 0..8 {
            for len in 0..64 {
                let bytes = &data[offset..offset + len];
                let state = rng.next_u64() as u32;
                assert_eq!(
                    crc32_update(state, bytes),
                    crc32_bytewise(state, bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let (head, tail) = data.split_at(split);
            let state = crc32_update(0xffff_ffff, head);
            assert_eq!(!crc32_update(state, tail), whole, "split at {split}");
        }
    }

    #[test]
    fn bounded_len_rejects_implausible_lengths() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        let mut r = SliceReader::new(&buf);
        assert!(r
            .bounded_len("len", 1 << 20)
            .unwrap_err()
            .0
            .contains("implausible"));
    }
}
