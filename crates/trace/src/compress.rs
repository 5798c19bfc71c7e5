//! Per-chunk LZ compression for the `.cgt` format.
//!
//! Event streams are extremely repetitive — the same handful of event
//! shapes, nearby handles and frame ids recur for millions of events — so
//! even a very small LZ pass shrinks a chunk severalfold.  The container
//! has no crates.io access, so this is a deliberately tiny, dependency-free
//! LZSS variant rather than a binding to a real codec:
//!
//! * tokens are grouped eight per **control byte** (LSB first; bit set =
//!   match, clear = literal);
//! * a literal is one raw byte;
//! * a match is three bytes: a little-endian `u16` backward distance
//!   (1–65535) and a length byte encoding lengths 4–259.
//!
//! The encoder is greedy with a 64 KiB window: it hashes the next four
//! bytes and walks that slot's chain of earlier positions, up to
//! `MAX_CHAIN` candidates deep, keeping the longest match, and compares
//! candidates eight bytes at a time.  Its hash tables live in a
//! [`Compressor`] that a writer keeps from chunk to chunk, so they are
//! allocated and cleared once rather than once per chunk.  The decoder
//! expands into a caller-owned buffer with block copies — eight literals at
//! a time under an all-literal control byte, one `copy_within` for a match
//! that does not overlap itself — and replicates the period of an
//! overlapping match (distance < length), as every LZ77 family codec must.
//! Compression is deterministic, which the golden corpus relies on: each
//! committed trace re-encodes to its own bytes (a tier-1 test and a CI
//! step check it).
//!
//! Chunks store the codec id, so `.cgt` readers stay compatible if a chunk
//! was written raw (the writer falls back to raw whenever compression does
//! not help).

/// Shortest match worth encoding (a match token costs 3 bytes + control
/// bit; literals cost 1 byte + control bit, so 4 is the break-even point).
const MIN_MATCH: usize = 4;

/// Longest encodable match (`MIN_MATCH + 255`).
const MAX_MATCH: usize = MIN_MATCH + 255;

/// Window size: matches may reach back at most this far (encoded distance
/// is a non-zero `u16`).
const MAX_DISTANCE: usize = u16::MAX as usize;

/// Entries of the chain table, one per window position.
const WINDOW: usize = MAX_DISTANCE + 1;

/// Hash-table size for the four-byte prefix hash.
const HASH_BITS: u32 = 15;

/// Candidates examined per position (hash-chain depth).  Deeper chains
/// find longer matches at the cost of encode time; 16 is a good balance
/// for varint event streams.
const MAX_CHAIN: usize = 16;

fn hash4(bytes: &[u8]) -> usize {
    // Fibonacci hashing over the next four bytes.
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B9) >> (32 - HASH_BITS)) as usize
}

/// The encoder's hash tables, kept from one chunk to the next.
///
/// `head` holds the most recent position per hash slot and `prev[p %
/// WINDOW]` the position before `p` in the same chain.  A position is
/// stored as `base + p`, where `base` grows by each chunk's length, so an
/// entry below the current chunk's `base` was written for an earlier chunk
/// and counts as empty: the tables are never cleared between chunks, only
/// when `base` would wrap.  The output is exactly what a fresh, empty pair
/// of tables per chunk would give.  The tables are allocated by the first
/// chunk.
#[derive(Debug, Clone, Default)]
pub struct Compressor {
    head: Vec<u32>,
    prev: Vec<u32>,
    base: u32,
}

impl Compressor {
    /// Compresses `src`, appending the token stream to `out` (whose
    /// earlier bytes are left as they are, so a caller can frame the
    /// tokens in place).
    ///
    /// The tokens may outnumber the input bytes for incompressible data;
    /// the caller ([`io`](crate::io)) compares sizes and stores whichever
    /// encoding is smaller.  They depend on `src` alone, not on what was
    /// compressed before.
    ///
    /// # Panics
    ///
    /// Panics if `src` is 4 GiB or longer.
    pub fn compress_into(&mut self, src: &[u8], out: &mut Vec<u8>) {
        let n = u32::try_from(src.len())
            .ok()
            .filter(|&n| n < u32::MAX)
            .expect("a chunk is shorter than 4 GiB");
        if self.head.is_empty() || self.base.checked_add(n).is_none() {
            // First use, or the positions would wrap: start over empty.
            self.head = vec![0; 1 << HASH_BITS];
            self.prev = vec![0; WINDOW];
            self.base = 1;
        }
        let base = self.base;
        self.base += n;
        let (head, prev) = (&mut self.head[..], &mut self.prev[..]);
        let insert = |head: &mut [u32], prev: &mut [u32], p: usize| {
            if p + MIN_MATCH <= src.len() {
                let slot = hash4(&src[p..]);
                prev[p % WINDOW] = head[slot];
                head[slot] = base + p as u32;
            }
        };

        out.reserve(src.len() / 2 + 16);
        let mut control_at = usize::MAX;
        let mut control_bit = 8u8;
        let mut emit_flag = |out: &mut Vec<u8>, is_match: bool| {
            if control_bit == 8 {
                control_at = out.len();
                out.push(0);
                control_bit = 0;
            }
            if is_match {
                out[control_at] |= 1 << control_bit;
            }
            control_bit += 1;
        };

        let mut pos = 0;
        while pos < src.len() {
            let mut best_len = 0;
            let mut best_dist = 0;
            if pos + MIN_MATCH <= src.len() {
                let limit = (src.len() - pos).min(MAX_MATCH);
                let mut entry = head[hash4(&src[pos..])];
                let mut probes = 0;
                while entry >= base && probes < MAX_CHAIN {
                    let candidate = (entry - base) as usize;
                    let dist = pos - candidate;
                    if dist > MAX_DISTANCE {
                        break; // chain only gets older from here
                    }
                    // Cheap rejection: a longer match must agree at best_len
                    // (which is below `limit`, so both bytes exist).
                    if best_len == 0 || src[candidate + best_len] == src[pos + best_len] {
                        let len = match_len(src, candidate, pos, limit);
                        if len > best_len {
                            best_len = len;
                            best_dist = dist;
                            if len == limit {
                                break;
                            }
                        }
                    }
                    entry = prev[candidate % WINDOW];
                    probes += 1;
                }
            }
            if best_len >= MIN_MATCH {
                emit_flag(out, true);
                out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                out.push((best_len - MIN_MATCH) as u8);
                // Index the covered positions so later matches can reach
                // into this run.
                for p in pos..pos + best_len {
                    insert(head, prev, p);
                }
                pos += best_len;
            } else {
                emit_flag(out, false);
                out.push(src[pos]);
                insert(head, prev, pos);
                pos += 1;
            }
        }
    }
}

/// How many bytes from `at` repeat those from `earlier`, up to `limit`
/// (`at + limit` must not pass the end of `src`), compared eight at a time.
#[inline(always)]
fn match_len(src: &[u8], earlier: usize, at: usize, limit: usize) -> usize {
    let word = |i: usize| u64::from_le_bytes(src[i..i + 8].try_into().expect("eight bytes"));
    let mut len = 0;
    while len + 8 <= limit {
        let diff = word(earlier + len) ^ word(at + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && src[earlier + len] == src[at + len] {
        len += 1;
    }
    len
}

/// An upper bound on what a token stream of `stored_len` bytes can expand
/// to: no token does better than a maximal match, 3 stored bytes for
/// `MAX_MATCH` output bytes (a literal is one for one, and control bytes
/// only lower the ratio).
///
/// Chunk framing declares both lengths outside any checksum, so readers
/// reject a declared raw length above this bound before sizing a buffer
/// for it.
pub fn max_expansion(stored_len: usize) -> usize {
    stored_len.saturating_mul(MAX_MATCH) / 3
}

/// Decompresses a token stream produced by [`Compressor::compress_into`] into
/// `out`, which is overwritten and ends up exactly `expected_len` bytes
/// long (its capacity is reused from call to call).
///
/// `out` is sized to `expected_len` up front: a caller holding a length it
/// has not produced itself bounds it by [`max_expansion`] first.
///
/// # Errors
///
/// Returns a descriptive error on any malformed input (bad distance,
/// truncated token, wrong output size) instead of panicking — corrupt
/// chunks must surface as clean trace errors.  `out`'s contents are then
/// unspecified.
pub fn decompress_into(src: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<(), String> {
    const OVERRUN: &str = "decompressed output exceeds declared size";
    // No clear first: success overwrites every byte, failure leaves them
    // unspecified, so only growth needs filling.
    out.resize(expected_len, 0);
    let out = out.as_mut_slice();
    // `pos` reads `src`; `len` counts the bytes of `out` decoded so far.
    let (mut pos, mut len) = (0, 0);
    while pos < src.len() {
        let control = src[pos];
        pos += 1;
        if control == 0 {
            // Eight literals in one copy when both sides have the room;
            // otherwise the token loop below handles (or rejects) the tail.
            if let (Some(from), Some(to)) = (src.get(pos..pos + 8), out.get_mut(len..len + 8)) {
                to.copy_from_slice(from);
                pos += 8;
                len += 8;
                continue;
            }
        }
        for bit in 0..8 {
            if pos >= src.len() {
                break;
            }
            if control & (1 << bit) == 0 {
                *out.get_mut(len).ok_or(OVERRUN)? = src[pos];
                pos += 1;
                len += 1;
            } else {
                let Some(&[lo, hi, extra]) = src.get(pos..pos + 3) else {
                    return Err("truncated match token".to_string());
                };
                let dist = u16::from_le_bytes([lo, hi]) as usize;
                let run = extra as usize + MIN_MATCH;
                pos += 3;
                if dist == 0 || dist > len {
                    return Err(format!("match distance {dist} exceeds {len} decoded bytes"));
                }
                if len + run > expected_len {
                    return Err(OVERRUN.to_string());
                }
                // The `dist` bytes before `len` repeat for `run` bytes.
                // Each copy takes all of the period decoded so far, so the
                // source never overlaps the destination and an overlapping
                // match (dist < run) doubles its way through the run.
                let start = len - dist;
                let end = len + run;
                while len < end {
                    let n = (end - len).min(len - start);
                    out.copy_within(start..start + n, len);
                    len += n;
                }
            }
        }
    }
    if len != expected_len {
        return Err(format!(
            "decompressed to {len} bytes, expected {expected_len}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_testutil::TestRng;

    /// [`Compressor::compress_into`] a fresh buffer.
    fn compress_with(lz: &mut Compressor, src: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        lz.compress_into(src, &mut out);
        out
    }

    /// [`compress_with`] fresh tables.
    fn compress(src: &[u8]) -> Vec<u8> {
        compress_with(&mut Compressor::default(), src)
    }

    /// The encoder this module shipped before [`Compressor`] kept its
    /// tables: fresh `usize` tables per call and a byte-at-a-time match loop.
    /// Kept as the reference model the table-keeping encoder must match byte
    /// for byte.
    fn compress_reference(src: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(src.len() / 2 + 16);
        // Hash-chain matcher: `head` holds the most recent position per hash
        // slot, `prev[p % window]` the position before `p` in the same chain.
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; MAX_DISTANCE + 1];

        let mut control_at = usize::MAX;
        let mut control_bit = 8u8;
        let mut emit_flag = |out: &mut Vec<u8>, is_match: bool| {
            if control_bit == 8 {
                control_at = out.len();
                out.push(0);
                control_bit = 0;
            }
            if is_match {
                out[control_at] |= 1 << control_bit;
            }
            control_bit += 1;
        };

        let insert = |head: &mut [usize], prev: &mut [usize], src: &[u8], p: usize| {
            if p + MIN_MATCH <= src.len() {
                let slot = hash4(&src[p..]);
                prev[p % (MAX_DISTANCE + 1)] = head[slot];
                head[slot] = p;
            }
        };

        let mut pos = 0;
        while pos < src.len() {
            let mut best_len = 0;
            let mut best_dist = 0;
            if pos + MIN_MATCH <= src.len() {
                let limit = (src.len() - pos).min(MAX_MATCH);
                let mut candidate = head[hash4(&src[pos..])];
                let mut probes = 0;
                while candidate != usize::MAX && probes < MAX_CHAIN {
                    let dist = pos - candidate;
                    if dist > MAX_DISTANCE {
                        break; // chain only gets older from here
                    }
                    // Cheap rejection: a longer match must agree at best_len.
                    if best_len == 0 || src.get(candidate + best_len) == src.get(pos + best_len) {
                        let mut len = 0;
                        while len < limit && src[candidate + len] == src[pos + len] {
                            len += 1;
                        }
                        if len > best_len {
                            best_len = len;
                            best_dist = dist;
                            if len == limit {
                                break;
                            }
                        }
                    }
                    candidate = prev[candidate % (MAX_DISTANCE + 1)];
                    probes += 1;
                }
            }
            if best_len >= MIN_MATCH {
                emit_flag(&mut out, true);
                out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                out.push((best_len - MIN_MATCH) as u8);
                // Index the covered positions so later matches can reach into
                // this run.
                for p in pos..pos + best_len {
                    insert(&mut head, &mut prev, src, p);
                }
                pos += best_len;
            } else {
                emit_flag(&mut out, false);
                out.push(src[pos]);
                insert(&mut head, &mut prev, src, pos);
                pos += 1;
            }
        }
        out
    }

    /// [`decompress_into`] a fresh buffer.
    fn decompress(src: &[u8], expected_len: usize) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        decompress_into(src, expected_len, &mut out)?;
        Ok(out)
    }

    fn round_trip(data: &[u8]) {
        let packed = compress(data);
        let unpacked = decompress(&packed, data.len()).expect("decompress");
        assert_eq!(unpacked, data);
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_input_round_trips_and_shrinks() {
        let data: Vec<u8> = (0..10_000u32)
            .flat_map(|i| [3u8, (i % 7) as u8, 0, 42, 1])
            .collect();
        let packed = compress(&data);
        assert!(
            packed.len() * 3 < data.len(),
            "repetitive data must shrink well: {} vs {}",
            packed.len(),
            data.len()
        );
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn overlapping_run_round_trips() {
        // A run of one byte forces dist=1 overlapping copies.
        let data = vec![7u8; 4096];
        round_trip(&data);
    }

    #[test]
    fn incompressible_input_round_trips() {
        // A cheap xorshift keeps this deterministic without a rand dep.
        let mut state = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn long_matches_beyond_one_token_round_trip() {
        let mut data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let phrase = data.clone();
        for _ in 0..100 {
            data.extend_from_slice(&phrase);
        }
        round_trip(&data);
    }

    #[test]
    fn corrupt_streams_are_rejected_cleanly() {
        let data = vec![7u8; 64];
        let packed = compress(&data);
        // Wrong expected length.
        assert!(decompress(&packed, 63).is_err());
        assert!(decompress(&packed, 65).is_err());
        // Truncated token stream.
        assert!(decompress(&packed[..packed.len() - 1], 64).is_err());
        // A match before any literal has an invalid distance.
        let bogus = vec![0b0000_0001, 5, 0, 0];
        assert!(decompress(&bogus, 9).unwrap_err().contains("distance"));
    }

    /// The decoder this module shipped before block copies: one byte per
    /// push, a fresh vector per call.  Kept as the reference model the
    /// block-copy decoder is driven against.
    fn decompress_bytewise(src: &[u8], expected_len: usize) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < src.len() {
            let control = src[pos];
            pos += 1;
            for bit in 0..8 {
                if pos >= src.len() {
                    break;
                }
                if control & (1 << bit) == 0 {
                    out.push(src[pos]);
                    pos += 1;
                } else {
                    if pos + 3 > src.len() {
                        return Err("truncated match token".to_string());
                    }
                    let dist = u16::from_le_bytes([src[pos], src[pos + 1]]) as usize;
                    let len = src[pos + 2] as usize + MIN_MATCH;
                    pos += 3;
                    if dist == 0 || dist > out.len() {
                        return Err(format!(
                            "match distance {dist} exceeds {} decoded bytes",
                            out.len()
                        ));
                    }
                    if out.len() + len > expected_len {
                        return Err("decompressed output exceeds declared size".to_string());
                    }
                    let start = out.len() - dist;
                    for i in 0..len {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
                if out.len() > expected_len {
                    return Err("decompressed output exceeds declared size".to_string());
                }
            }
        }
        if out.len() != expected_len {
            return Err(format!(
                "decompressed to {} bytes, expected {expected_len}",
                out.len()
            ));
        }
        Ok(out)
    }

    /// Same `Ok` bytes or same `Err` text from both decoders, with the
    /// block-copy one reusing a dirty buffer.
    fn assert_decoders_agree(src: &[u8], expected_len: usize, scratch: &mut Vec<u8>) {
        let reference = decompress_bytewise(src, expected_len);
        let fast = decompress_into(src, expected_len, scratch).map(|()| scratch.clone());
        assert_eq!(
            fast, reference,
            "stream {src:02x?}, expecting {expected_len}"
        );
    }

    /// Inputs that exercise each copy shape: incompressible bytes (all
    /// literals, the eight-at-once path), long runs and short periods
    /// (overlapping matches of every small distance), and repeated phrases
    /// at a distance (non-overlapping matches).
    fn corpus(rng: &mut TestRng) -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = vec![Vec::new(), vec![1], vec![1; 8], vec![1; 9]];
        for round in 0..24 {
            let len = rng.gen_range(1, 3000);
            let noise: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let period = 1 + round % 12;
            let runs: Vec<u8> = (0..len).map(|i| noise[i % period]).collect();
            let mut phrases = Vec::new();
            while phrases.len() < len {
                let at = rng.gen_range(0, len);
                let n = rng.gen_range(1, 300).min(len - at);
                if rng.gen_bool(0.5) {
                    phrases.extend_from_slice(&noise[at..at + n]);
                } else {
                    phrases.extend(std::iter::repeat_n(noise[at], n));
                }
            }
            inputs.extend([noise, runs, phrases]);
        }
        inputs
    }

    #[test]
    fn block_copy_decoder_agrees_with_the_bytewise_one() {
        let mut rng = TestRng::new(31);
        let mut scratch = vec![0xAA; 17];
        for data in corpus(&mut rng) {
            let packed = compress(&data);
            assert_eq!(decompress(&packed, data.len()).as_deref(), Ok(&data[..]));
            assert!(data.len() <= max_expansion(packed.len()));
            // Every truncation of the valid stream, against the true length
            // and against lengths one either side of what the prefix holds.
            for cut in 0..=packed.len() {
                assert_decoders_agree(&packed[..cut], data.len(), &mut scratch);
            }
            for wrong in [data.len().saturating_sub(1), data.len() + 1, 0] {
                assert_decoders_agree(&packed, wrong, &mut scratch);
            }
            // Damaged streams: the two must fail (or succeed) identically.
            for _ in 0..32 {
                if packed.is_empty() {
                    break;
                }
                let mut bad = packed.clone();
                let at = rng.gen_range(0, bad.len());
                bad[at] ^= 1 << rng.gen_range(0, 8);
                assert_decoders_agree(&bad, data.len(), &mut scratch);
            }
        }
    }

    #[test]
    fn hand_built_overlapping_matches_replicate_their_period() {
        let mut scratch = Vec::new();
        for dist in 1..=9usize {
            for run in [MIN_MATCH, 7, 8, 9, 64, MAX_MATCH] {
                // `dist` literal tokens, then one match token reaching back
                // over all of them, eight tokens to a control byte.
                let seed: Vec<u8> = (1..=dist as u8).collect();
                let mut src = Vec::new();
                let mut control_at = 0;
                let tokens = seed.iter().map(Some).chain([None]);
                for (token, literal) in tokens.enumerate() {
                    if token % 8 == 0 {
                        control_at = src.len();
                        src.push(0);
                    }
                    match literal {
                        Some(&byte) => src.push(byte),
                        None => {
                            src[control_at] |= 1 << (token % 8);
                            src.extend_from_slice(&(dist as u16).to_le_bytes());
                            src.push((run - MIN_MATCH) as u8);
                        }
                    }
                }
                assert_decoders_agree(&src, dist + run, &mut scratch);
                let expected: Vec<u8> = (0..dist + run).map(|i| seed[i % dist]).collect();
                assert_eq!(scratch, expected, "dist {dist}, run {run}");
            }
        }
    }

    #[test]
    fn max_expansion_bounds_every_token_mix() {
        assert_eq!(max_expansion(0), 0);
        // One control byte and one literal.
        assert!(max_expansion(2) >= 1);
        // One control byte and one maximal match is the densest stream.
        assert!(max_expansion(4) >= MAX_MATCH);
        assert_eq!(max_expansion(usize::MAX), usize::MAX / 3);
    }

    #[test]
    fn compression_is_deterministic() {
        let data: Vec<u8> = (0..50_000u32).flat_map(|i| i.to_le_bytes()).collect();
        assert_eq!(compress(&data), compress(&data));
    }

    #[test]
    fn kept_tables_encode_exactly_like_fresh_ones() {
        // One encoder over the whole corpus, each input twice in a row: an
        // entry left by the previous chunk must never be taken for a match
        // candidate, even when that chunk was the very same bytes.
        let mut rng = TestRng::new(57);
        let mut kept = Compressor::default();
        for data in corpus(&mut rng) {
            let reference = compress_reference(&data);
            assert_eq!(compress_with(&mut kept, &data), reference);
            assert_eq!(compress_with(&mut kept, &data), reference);
        }
    }

    #[test]
    fn compress_into_appends_after_what_out_holds() {
        let data: Vec<u8> = (0..5_000u32).flat_map(|i| [1, (i % 9) as u8, 2]).collect();
        let mut out = b"head".to_vec();
        Compressor::default().compress_into(&data, &mut out);
        assert_eq!(&out[..4], b"head");
        assert_eq!(out[4..], compress_reference(&data));
    }

    #[test]
    fn kept_tables_start_over_when_positions_would_wrap() {
        let data: Vec<u8> = (0..70_000u32)
            .map(|i| (i % 251) as u8 ^ (i / 997) as u8)
            .collect();
        let reference = compress_reference(&data);
        let n = data.len() as u32;
        // Just fits below the wrap, then does not fit, then starts over.
        let mut kept = Compressor::default();
        compress_with(&mut kept, b"warm the tables up with a few bytes");
        kept.base = u32::MAX - n;
        assert_eq!(compress_with(&mut kept, &data), reference);
        assert_eq!(kept.base, u32::MAX);
        assert_eq!(compress_with(&mut kept, &data), reference);
        assert_eq!(kept.base, 1 + n);
        assert_eq!(compress_with(&mut kept, &data), reference);
    }
}
