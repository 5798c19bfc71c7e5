//! Streaming `.cgt` readers and writers.
//!
//! [`TraceWriter`] and [`TraceReader`] move events through `std::io` one
//! chunk at a time: the writer buffers at most one chunk's worth of encoded
//! events before framing (CRC32, optional LZ compression) and flushing; the
//! reader holds at most one chunk's bytes, in two buffers it reuses for the
//! whole stream, and decodes each event out of them when it is asked for.
//! Neither ever materializes the full event vector, so recording or
//! replaying a multi-gigabyte trace holds O(chunk) memory — see
//! [`TraceReader::max_buffered_events`], which the streaming-equivalence
//! tests assert on.  A recording kept in memory is the same bytes in a
//! `Vec<u8>`: write it through a `TraceWriter<Vec<u8>>` and read it back
//! through a `TraceReader<&[u8]>`.
//!
//! The reader tallies every event it decodes by kind, and a stream whose
//! footer census (or header `declared_events`) disagrees with that tally
//! fails at the footer, so no route can report statistics for events a
//! stream lost.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use cg_vm::{EventKind, GcEvent};

use crate::compress;
use crate::format::{
    self, EventCodec, FooterSection, StreamKind, TraceFooter, TraceIoError, TraceMeta,
    CHUNK_EVENTS_KIND, CHUNK_FOOTER_KIND, CODEC_LZ, CODEC_RAW, DEFAULT_CHUNK_EVENTS,
    FORMAT_VERSION, MAGIC,
};
use crate::partition::ShardEvent;
use crate::trace::TraceStats;
use crate::wire::{self, SliceReader, WireError};

/// Flush the pending chunk when its encoded payload reaches this size even
/// if the event cap has not been hit (root-set snapshots can be large).
const CHUNK_BYTES_TARGET: usize = 256 * 1024;

/// Skip compression for payloads smaller than this (framing overhead
/// dominates).
const MIN_COMPRESS_BYTES: usize = 64;

/// A streaming `.cgt` writer over any [`Write`].
///
/// Events are encoded into an internal chunk buffer and framed out every
/// [`DEFAULT_CHUNK_EVENTS`] events (configurable); [`TraceWriter::finish`]
/// flushes the final partial chunk and appends the footer.  Dropping a
/// writer without calling `finish` leaves a truncated stream — readers
/// detect that (no footer) and report [`TraceIoError::Truncated`].
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    buf: Vec<u8>,
    buffered_events: usize,
    chunk_events: usize,
    /// The LZ encoder, its tables reused by every chunk; `None` when
    /// compression is off.
    lz: Option<compress::Compressor>,
    stats: TraceStats,
    sections: Vec<FooterSection>,
    is_shard: bool,
    /// Handle-delta state, reset at every chunk boundary so chunks decode
    /// independently.
    codec: EventCodec,
    prev_seq: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and writes the header immediately.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the header cannot be written.
    pub fn new(w: W, meta: &TraceMeta) -> Result<Self, TraceIoError> {
        Self::with_chunk_events(w, meta, DEFAULT_CHUNK_EVENTS)
    }

    /// Creates a writer with a custom events-per-chunk cap.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the header cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_events` is zero.
    pub fn with_chunk_events(
        mut w: W,
        meta: &TraceMeta,
        chunk_events: usize,
    ) -> Result<Self, TraceIoError> {
        assert!(chunk_events > 0, "chunk must hold at least one event");
        let header = format::encode_header(meta);
        let mut prefix = Vec::with_capacity(header.len() + 16);
        prefix.extend_from_slice(&MAGIC);
        prefix.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        wire::put_varint_usize(&mut prefix, header.len());
        prefix.extend_from_slice(&header);
        w.write_all(&prefix)?;
        wire::write_u32(&mut w, wire::crc32(&header))?;
        Ok(Self {
            w,
            buf: Vec::with_capacity(CHUNK_BYTES_TARGET / 2),
            buffered_events: 0,
            chunk_events,
            lz: Some(compress::Compressor::default()),
            stats: TraceStats::default(),
            sections: Vec::new(),
            is_shard: matches!(meta.stream, StreamKind::Shard { .. }),
            codec: EventCodec::default(),
            prev_seq: 0,
        })
    }

    /// Disables per-chunk compression (chunks are stored raw).
    pub fn set_compression(&mut self, enabled: bool) {
        self.lz = enabled.then(compress::Compressor::default);
    }

    /// Appends one event to a plain stream.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if a full chunk fails to flush.
    ///
    /// # Panics
    ///
    /// Panics if this writer was opened for a shard stream (use
    /// [`TraceWriter::push_shard`]).
    pub fn push(&mut self, event: &GcEvent) -> Result<(), TraceIoError> {
        assert!(!self.is_shard, "shard streams take push_shard");
        self.stats.record(event.kind());
        format::encode_event(&mut self.codec, &mut self.buf, event);
        self.after_event()
    }

    /// Appends one shard event to a shard stream.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if a full chunk fails to flush.
    ///
    /// # Panics
    ///
    /// Panics if this writer was opened for a plain stream, or if the
    /// event's sequence number is not ascending.
    pub fn push_shard(&mut self, ev: &ShardEvent) -> Result<(), TraceIoError> {
        assert!(self.is_shard, "plain streams take push");
        self.stats.record(ev.event.kind());
        format::encode_shard_event(&mut self.codec, &mut self.buf, &mut self.prev_seq, ev);
        self.after_event()
    }

    fn after_event(&mut self) -> Result<(), TraceIoError> {
        self.buffered_events += 1;
        if self.buffered_events >= self.chunk_events || self.buf.len() >= CHUNK_BYTES_TARGET {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Per-kind counts of everything pushed so far.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Adds a named footer section (written by [`TraceWriter::finish`]).
    /// A section with the same name replaces the previous one.
    pub fn add_section(&mut self, section: FooterSection) {
        self.sections.retain(|s| s.name != section.name);
        self.sections.push(section);
    }

    fn flush_chunk(&mut self) -> Result<(), TraceIoError> {
        if self.buffered_events == 0 {
            return Ok(());
        }
        write_chunk(
            &mut self.w,
            CHUNK_EVENTS_KIND,
            self.buffered_events as u64,
            &self.buf,
            self.lz.as_mut(),
        )?;
        self.buf.clear();
        self.buffered_events = 0;
        self.codec = EventCodec::default();
        Ok(())
    }

    /// Flushes the final partial chunk, writes the footer and returns the
    /// underlying writer together with the final per-kind census.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed write or flush.
    pub fn finish(mut self) -> Result<(W, TraceStats), TraceIoError> {
        self.flush_chunk()?;
        let footer = TraceFooter {
            counts: self.stats.counts(),
            sections: std::mem::take(&mut self.sections),
        };
        let body = format::encode_footer(&footer);
        write_chunk(&mut self.w, CHUNK_FOOTER_KIND, 0, &body, self.lz.as_mut())?;
        self.w.flush()?;
        Ok((self.w, self.stats))
    }
}

/// Frames one chunk: kind, event count, raw length, stored length, codec,
/// payload, CRC32 of the stored payload.  The payload is offered to `lz`,
/// if given, and stored compressed when that is smaller.
fn write_chunk<W: Write>(
    w: &mut W,
    kind: u8,
    event_count: u64,
    raw: &[u8],
    lz: Option<&mut compress::Compressor>,
) -> Result<(), TraceIoError> {
    let packed;
    let (codec, stored): (u8, &[u8]) = match lz.filter(|_| raw.len() >= MIN_COMPRESS_BYTES) {
        Some(lz) => {
            packed = lz.compress(raw);
            if packed.len() < raw.len() {
                (CODEC_LZ, &packed)
            } else {
                (CODEC_RAW, raw)
            }
        }
        None => (CODEC_RAW, raw),
    };
    let mut head = Vec::with_capacity(24);
    head.push(kind);
    wire::put_varint(&mut head, event_count);
    wire::put_varint_usize(&mut head, raw.len());
    wire::put_varint_usize(&mut head, stored.len());
    head.push(codec);
    w.write_all(&head)?;
    w.write_all(stored)?;
    wire::write_u32(w, wire::crc32(stored))?;
    Ok(())
}

/// Reads a varint byte-by-byte from a [`Read`].  Returns `Ok(None)` on
/// clean EOF before the first byte.
fn read_varint<R: Read>(r: &mut R, what: &str) -> Result<Option<u64>, TraceIoError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    let mut byte = [0u8; 1];
    loop {
        if !wire::read_exact_or_eof(r, &mut byte)? {
            if shift == 0 {
                return Ok(None);
            }
            return Err(TraceIoError::Truncated {
                context: format!("stream ended inside {what}"),
            });
        }
        if shift == 63 && byte[0] > 1 {
            return Err(TraceIoError::Malformed {
                chunk: None,
                detail: format!("varint overflow in {what}"),
            });
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(value));
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceIoError::Malformed {
                chunk: None,
                detail: format!("varint too long in {what}"),
            });
        }
    }
}

/// The event chunk being decoded and the cursor into it.
///
/// Deliberately not generic over the stream: [`TraceReader`]'s per-event
/// calls land in the two `next_*` methods below, which are compiled once, in
/// this crate, with the event decoders inlined into them — a reader
/// instantiated for some `R` in another crate only contributes the chunk
/// I/O around them.
#[derive(Debug, Default)]
struct ChunkCursor {
    /// Zero-based index of this chunk in the stream, for error reports.
    index: u64,
    /// The chunk's encoded events.  Reused for every chunk.
    body: Vec<u8>,
    /// Read position in `body`: the first byte of the next event.
    pos: usize,
    /// Events of this chunk not yet decoded.
    pending: u64,
    /// Handle-delta state (reset at every chunk).
    codec: EventCodec,
    /// Shard streams: the previous event's global sequence number, which
    /// runs on across chunks.
    prev_seq: u64,
    /// Events decoded so far, over the whole stream.
    decoded: u64,
    /// Those events by kind (indexed by tag), checked against the footer's
    /// census.
    census: [u64; EventKind::ALL.len()],
}

impl ChunkCursor {
    /// Points the cursor at the start of chunk `index`, whose `events`
    /// events have just been placed in `body`.
    fn start(&mut self, index: u64, events: u64) -> Result<(), TraceIoError> {
        self.index = index;
        self.pos = 0;
        self.pending = events;
        self.codec = EventCodec::default();
        if events == 0 {
            self.check_drained()?;
        }
        Ok(())
    }

    /// A chunk's declared events must account for every byte of its body.
    fn check_drained(&self) -> Result<(), TraceIoError> {
        match self.body.len() - self.pos {
            0 => Ok(()),
            trailing => Err(TraceIoError::Malformed {
                chunk: Some(self.index),
                detail: format!("{trailing} trailing bytes after chunk events"),
            }),
        }
    }

    /// Decodes the next of the `pending` records with `decode`.
    #[inline(always)]
    fn next_with<T>(
        &mut self,
        decode: impl FnOnce(&mut EventCodec, &mut SliceReader<'_>, &mut u64) -> Result<T, WireError>,
    ) -> Result<T, TraceIoError> {
        debug_assert!(self.pending > 0, "the reader refills before it decodes");
        let mut r = SliceReader::new(&self.body[self.pos..]);
        let record = decode(&mut self.codec, &mut r, &mut self.prev_seq)
            .map_err(|e| TraceIoError::malformed(Some(self.index), e))?;
        self.pos = self.body.len() - r.remaining();
        self.pending -= 1;
        if self.pending == 0 {
            self.check_drained()?;
        }
        self.decoded += 1;
        Ok(record)
    }

    fn next_event(&mut self) -> Result<Option<GcEvent>, TraceIoError> {
        let event = self.next_with(|codec, r, _| format::decode_event(codec, r))?;
        self.census[event.kind().tag() as usize] += 1;
        Ok(Some(event))
    }

    fn next_shard_event(&mut self) -> Result<Option<ShardEvent>, TraceIoError> {
        let ev = self.next_with(format::decode_shard_event)?;
        self.census[ev.event.kind().tag() as usize] += 1;
        Ok(Some(ev))
    }

    /// The footer's census and the header's declared count must both
    /// match the events this stream actually held.
    fn check_census(
        &self,
        chunk: u64,
        footer: &TraceFooter,
        declared: Option<u64>,
    ) -> Result<(), TraceIoError> {
        let malformed = |detail| TraceIoError::Malformed {
            chunk: Some(chunk),
            detail,
        };
        if footer.counts != self.census {
            return Err(malformed(format!(
                "footer census counts {} events but the stream holds {}",
                footer.total_events(),
                self.decoded
            )));
        }
        match declared {
            Some(declared) if declared != self.decoded => Err(malformed(format!(
                "header declares {declared} events but the stream holds {}",
                self.decoded
            ))),
            _ => Ok(()),
        }
    }
}

/// A streaming `.cgt` reader over any [`Read`].
///
/// Reads one chunk's bytes at a time and decodes each event on demand;
/// after the last event the footer becomes available through
/// [`TraceReader::footer`].
///
/// # Where errors surface
///
/// A chunk's framing, CRC and decompression are checked when the chunk is
/// read — before its first event is returned.  Its *events* are decoded one
/// per call, so a chunk that passes its CRC but is structurally bad inside
/// fails at the offending event: every event before it has already been
/// returned, and the error replaces the bad one.  Bytes left over after the
/// declared event count ("trailing bytes after chunk events") are reported
/// in place of the chunk's last event.  Either way the error names the
/// chunk's index, and the reader must not be used again after any error.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    meta: TraceMeta,
    chunk: ChunkCursor,
    /// Where a chunk's stored bytes land before they are decompressed into
    /// the cursor's body (a raw chunk's are swapped in instead).  Reused
    /// for every chunk.
    stored: Vec<u8>,
    footer: Option<TraceFooter>,
    chunk_index: u64,
    max_buffered: usize,
}

impl<R: Read> TraceReader<R> {
    /// Opens a stream: reads and validates the magic, version and header.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::BadMagic`] or [`TraceIoError::UnsupportedVersion`]
    /// for foreign or future files, [`TraceIoError::Truncated`] /
    /// [`TraceIoError::Malformed`] for damaged headers, or the underlying
    /// I/O error.
    pub fn new(mut r: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        if !wire::read_exact_or_eof(&mut r, &mut magic)? {
            return Err(TraceIoError::Truncated {
                context: "empty file".to_string(),
            });
        }
        if magic != MAGIC {
            return Err(TraceIoError::BadMagic);
        }
        let mut version = [0u8; 2];
        if !wire::read_exact_or_eof(&mut r, &mut version)? {
            return Err(TraceIoError::Truncated {
                context: "stream ended before the format version".to_string(),
            });
        }
        let version = u16::from_le_bytes(version);
        if version != FORMAT_VERSION {
            return Err(TraceIoError::UnsupportedVersion { found: version });
        }
        let header_len =
            read_varint(&mut r, "header length")?.ok_or_else(|| TraceIoError::Truncated {
                context: "stream ended before the header".to_string(),
            })?;
        if header_len > (1 << 20) {
            return Err(TraceIoError::Malformed {
                chunk: None,
                detail: format!("implausible header length {header_len}"),
            });
        }
        let mut header = vec![0u8; header_len as usize];
        if !wire::read_exact_or_eof(&mut r, &mut header)? && header_len > 0 {
            return Err(TraceIoError::Truncated {
                context: "stream ended inside the header".to_string(),
            });
        }
        let mut crc = [0u8; 4];
        if !wire::read_exact_or_eof(&mut r, &mut crc)? {
            return Err(TraceIoError::Truncated {
                context: "stream ended before the header CRC".to_string(),
            });
        }
        if u32::from_le_bytes(crc) != wire::crc32(&header) {
            return Err(TraceIoError::Malformed {
                chunk: None,
                detail: "header CRC32 mismatch".to_string(),
            });
        }
        let meta = format::decode_header(&header).map_err(|e| TraceIoError::malformed(None, e))?;
        Ok(Self {
            r,
            meta,
            chunk: ChunkCursor::default(),
            stored: Vec::new(),
            footer: None,
            chunk_index: 0,
            max_buffered: 0,
        })
    }

    /// Header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The footer, available once the stream has been fully read.
    pub fn footer(&self) -> Option<&TraceFooter> {
        self.footer.as_ref()
    }

    /// Events decoded so far.
    pub fn events_read(&self) -> u64 {
        self.chunk.decoded
    }

    /// Chunks consumed so far (including the footer chunk once read).  An
    /// event chunk counts from the moment its bytes have been read and
    /// checked, before its first event is decoded.
    pub fn chunks_read(&self) -> u64 {
        self.chunk_index
    }

    /// The most events this reader has ever held at once — the event count
    /// of the largest chunk read so far, which is the O(chunk) bound the
    /// streaming evaluation relies on.  (They are held as the chunk's
    /// encoded bytes, at least one byte each, never as a decoded vector.)
    pub fn max_buffered_events(&self) -> usize {
        self.max_buffered
    }

    /// Whether this stream is a per-shard sub-stream.
    pub fn is_shard_stream(&self) -> bool {
        matches!(self.meta.stream, StreamKind::Shard { .. })
    }

    /// Next event of a plain stream, or `None` after the last one (the
    /// footer is then available).
    ///
    /// # Errors
    ///
    /// Any [`TraceIoError`]; also when called on a shard stream (use
    /// [`TraceReader::next_shard_event`]).
    pub fn next_event(&mut self) -> Result<Option<GcEvent>, TraceIoError> {
        if self.is_shard_stream() {
            return Err(TraceIoError::Malformed {
                chunk: None,
                detail: "this is a shard sub-stream; read it with next_shard_event".to_string(),
            });
        }
        if !self.refill()? {
            return Ok(None);
        }
        self.chunk.next_event()
    }

    /// Next event of a shard sub-stream, or `None` after the last one.
    ///
    /// # Errors
    ///
    /// Any [`TraceIoError`]; also when called on a plain stream.
    pub fn next_shard_event(&mut self) -> Result<Option<ShardEvent>, TraceIoError> {
        if !self.is_shard_stream() {
            return Err(TraceIoError::Malformed {
                chunk: None,
                detail: "this is a plain stream; read it with next_event".to_string(),
            });
        }
        if !self.refill()? {
            return Ok(None);
        }
        self.chunk.next_shard_event()
    }

    /// The remaining events of a plain stream, as an iterator over
    /// [`TraceReader::next_event`]: it ends after the last event, when the
    /// footer is available.  As with `next_event`, stop at the first
    /// error (`collect` into a `Result`, or `?` on each item).
    pub fn events(&mut self) -> impl Iterator<Item = Result<GcEvent, TraceIoError>> + '_ {
        std::iter::from_fn(|| self.next_event().transpose())
    }

    /// The remaining events of a shard sub-stream, as an iterator over
    /// [`TraceReader::next_shard_event`] that ends like
    /// [`TraceReader::events`].
    pub fn shard_events(&mut self) -> impl Iterator<Item = Result<ShardEvent, TraceIoError>> + '_ {
        std::iter::from_fn(|| self.next_shard_event().transpose())
    }

    /// Makes sure the cursor has an event pending, reading chunks as
    /// needed; `false` once the footer has been read instead.
    #[inline]
    fn refill(&mut self) -> Result<bool, TraceIoError> {
        while self.chunk.pending == 0 {
            if self.footer.is_some() {
                return Ok(false);
            }
            self.read_chunk()?;
        }
        Ok(true)
    }

    /// Reads and validates the next chunk: an event chunk's bytes end up in
    /// the cursor ready to decode, a footer chunk is decoded here.
    #[inline(never)]
    fn read_chunk(&mut self) -> Result<(), TraceIoError> {
        let chunk = self.chunk_index;
        let malformed = |detail: String| TraceIoError::Malformed {
            chunk: Some(chunk),
            detail,
        };
        let mut kind = [0u8; 1];
        if !wire::read_exact_or_eof(&mut self.r, &mut kind)? {
            return Err(TraceIoError::Truncated {
                context: format!("stream ended after {chunk} chunk(s), before the footer"),
            });
        }
        let event_count = require(read_varint(&mut self.r, "chunk event count")?, chunk)?;
        let raw_len = require(read_varint(&mut self.r, "chunk raw length")?, chunk)?;
        let stored_len = require(read_varint(&mut self.r, "chunk stored length")?, chunk)?;
        // The three lengths sit outside the payload CRC, so nothing is sized
        // from them until they are consistent with each other and with the
        // bytes the stream actually delivers.
        if raw_len > (1 << 30) || stored_len > (1 << 30) {
            return Err(malformed(format!(
                "implausible chunk size (raw {raw_len}, stored {stored_len})"
            )));
        }
        let (raw_len, stored_len) = (raw_len as usize, stored_len as usize);
        if event_count > raw_len as u64 {
            return Err(malformed(format!(
                "chunk declares {event_count} events in {raw_len} bytes (an event is at least one)"
            )));
        }
        let mut codec = [0u8; 1];
        if !wire::read_exact_or_eof(&mut self.r, &mut codec)? {
            return Err(TraceIoError::Truncated {
                context: format!("stream ended inside chunk {chunk}'s framing"),
            });
        }
        if codec[0] == CODEC_LZ && raw_len > compress::max_expansion(stored_len) {
            return Err(malformed(format!(
                "no {stored_len}-byte compressed chunk expands to {raw_len} bytes"
            )));
        }
        self.stored.clear();
        self.stored.resize(stored_len, 0);
        if !wire::read_exact_or_eof(&mut self.r, &mut self.stored)? && stored_len > 0 {
            return Err(TraceIoError::Truncated {
                context: format!("stream ended inside chunk {chunk}'s payload"),
            });
        }
        let mut crc = [0u8; 4];
        if !wire::read_exact_or_eof(&mut self.r, &mut crc)? {
            return Err(TraceIoError::Truncated {
                context: format!("stream ended before chunk {chunk}'s CRC"),
            });
        }
        if u32::from_le_bytes(crc) != wire::crc32(&self.stored) {
            return Err(TraceIoError::CrcMismatch { chunk });
        }
        match codec[0] {
            CODEC_RAW if raw_len != stored_len => {
                return Err(malformed("raw chunk with mismatching lengths".to_string()));
            }
            CODEC_RAW => std::mem::swap(&mut self.chunk.body, &mut self.stored),
            CODEC_LZ => compress::decompress_into(&self.stored, raw_len, &mut self.chunk.body)
                .map_err(malformed)?,
            other => return Err(malformed(format!("unknown chunk codec {other}"))),
        }
        match kind[0] {
            CHUNK_EVENTS_KIND => {
                self.max_buffered = self.max_buffered.max(event_count as usize);
                self.chunk_index += 1;
                self.chunk.start(chunk, event_count)
            }
            CHUNK_FOOTER_KIND => {
                let footer = format::decode_footer(&self.chunk.body)
                    .map_err(|e| TraceIoError::malformed(Some(chunk), e))?;
                // Nothing may follow the footer.
                let mut probe = [0u8; 1];
                if wire::read_exact_or_eof(&mut self.r, &mut probe)? {
                    return Err(malformed("data after the footer chunk".to_string()));
                }
                self.chunk
                    .check_census(chunk, &footer, self.meta.declared_events)?;
                self.footer = Some(footer);
                self.chunk_index += 1;
                Ok(())
            }
            other => Err(malformed(format!("unknown chunk kind {other}"))),
        }
    }
}

fn require(v: Option<u64>, chunk: u64) -> Result<u64, TraceIoError> {
    v.ok_or_else(|| TraceIoError::Truncated {
        context: format!("stream ended inside chunk {chunk}'s framing"),
    })
}

// ---------------------------------------------------------------------------
// Stream rewriting
// ---------------------------------------------------------------------------

/// How [`rewrite_trace`] should re-frame a stream.
#[derive(Debug, Clone)]
pub struct RewriteOptions {
    /// Events per chunk in the output.
    pub chunk_events: usize,
    /// Whether to LZ-compress output chunks.
    pub compress: bool,
    /// Whether to carry the source footer's sections over.
    pub keep_sections: bool,
    /// Sections to add (replacing same-named carried-over ones).
    pub add_sections: Vec<FooterSection>,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        Self {
            chunk_events: DEFAULT_CHUNK_EVENTS,
            compress: true,
            keep_sections: true,
            add_sections: Vec::new(),
        }
    }
}

/// Streams a `.cgt` file into a fresh one — re-chunked, re-compressed,
/// with footer sections carried over and/or replaced — holding O(chunk)
/// memory.  Works for plain traces and shard sub-streams alike.
///
/// The output is written to a temporary sibling of `dst` and renamed over
/// `dst` only once the whole source has been read and checked, so `dst`
/// is never left half-written and `src` may be `dst` itself; on any error
/// the temporary file is removed and `dst` is untouched.
///
/// Returns the source's header metadata and the per-kind census.
///
/// # Errors
///
/// Any [`TraceIoError`] from either side.
pub fn rewrite_trace(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    opts: &RewriteOptions,
) -> Result<(TraceMeta, TraceStats), TraceIoError> {
    let dst = dst.as_ref();
    let mut tmp = dst.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = rewrite_into(src.as_ref(), &tmp, opts).and_then(|done| {
        std::fs::rename(&tmp, dst)?;
        Ok(done)
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// [`rewrite_trace`]'s body: streams `src` into a freshly created `dst`.
fn rewrite_into(
    src: &Path,
    dst: &Path,
    opts: &RewriteOptions,
) -> Result<(TraceMeta, TraceStats), TraceIoError> {
    let mut reader = open_trace(src)?;
    let meta = reader.meta().clone();
    let out = File::create(dst)?;
    let mut writer = TraceWriter::with_chunk_events(BufWriter::new(out), &meta, opts.chunk_events)?;
    writer.set_compression(opts.compress);
    if reader.is_shard_stream() {
        for ev in reader.shard_events() {
            writer.push_shard(&ev?)?;
        }
    } else {
        for event in reader.events() {
            writer.push(&event?)?;
        }
    }
    let footer = reader
        .footer()
        .expect("stream iterated to completion, so the footer was read");
    if opts.keep_sections {
        for section in &footer.sections {
            writer.add_section(section.clone());
        }
    }
    for section in &opts.add_sections {
        writer.add_section(section.clone());
    }
    let (w, stats) = writer.finish()?;
    w.into_inner().map_err(|e| e.into_error())?;
    Ok((meta, stats))
}

/// Opens a `.cgt` file for streaming reads.
///
/// # Errors
///
/// Any [`TraceIoError`] from reading the header.
pub fn open_trace(path: impl AsRef<Path>) -> Result<TraceReader<BufReader<File>>, TraceIoError> {
    TraceReader::new(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_vm::{FrameId, FrameInfo, MethodId, RootSet, ThreadId};

    fn frame(id: u64) -> FrameInfo {
        FrameInfo {
            id: FrameId::new(id),
            depth: 1,
            thread: ThreadId::MAIN,
            method: MethodId::new(0),
        }
    }

    fn synthetic_events(events: usize) -> Vec<GcEvent> {
        let mut t = vec![GcEvent::FramePush { frame: frame(1) }];
        for i in 0..events {
            t.push(GcEvent::SlotWrite {
                object: cg_vm::Handle::from_index((i % 977) as u32),
                slot: i % 13,
                value: None,
                element: i % 2 == 0,
            });
        }
        t.push(GcEvent::FramePop { frame: frame(1) });
        t.push(GcEvent::ProgramEnd {
            roots: Box::new(RootSet::default()),
        });
        t
    }

    fn census(events: &[GcEvent]) -> TraceStats {
        let mut stats = TraceStats::default();
        for event in events {
            stats.record(event.kind());
        }
        stats
    }

    /// `events` as a `.cgt` stream with `chunk_events` per chunk.
    fn write_events(events: &[GcEvent], meta: &TraceMeta, chunk_events: usize) -> Vec<u8> {
        let mut writer =
            TraceWriter::with_chunk_events(Vec::new(), meta, chunk_events).expect("writer");
        for event in events {
            writer.push(event).expect("push");
        }
        writer.finish().expect("finish").0
    }

    /// Decodes a whole plain stream.
    fn read_all(bytes: &[u8]) -> Result<(Vec<GcEvent>, TraceMeta, TraceFooter), TraceIoError> {
        let mut reader = TraceReader::new(bytes)?;
        let events = reader.events().collect::<Result<Vec<_>, _>>()?;
        let footer = reader.footer().cloned().expect("the footer was read");
        Ok((events, reader.meta().clone(), footer))
    }

    #[test]
    fn whole_trace_round_trips_through_bytes() {
        let events = synthetic_events(10_000);
        let meta = TraceMeta {
            name: "synthetic".to_string(),
            gc_every: Some(25_000),
            declared_events: Some(events.len() as u64),
            ..TraceMeta::default()
        };
        let bytes = write_events(&events, &meta, DEFAULT_CHUNK_EVENTS);
        let (decoded, meta2, footer) = read_all(&bytes).expect("read");
        assert_eq!(decoded, events);
        assert_eq!(meta2.name, "synthetic");
        assert_eq!(meta2.gc_every, Some(25_000));
        assert_eq!(meta2.declared_events, Some(events.len() as u64));
        assert_eq!(footer.total_events(), events.len() as u64);
        assert_eq!(footer.counts, census(&events).counts());
    }

    #[test]
    fn compression_makes_event_chunks_smaller_than_raw() {
        let events = synthetic_events(50_000);
        let meta = TraceMeta::default();
        let compressed = write_events(&events, &meta, DEFAULT_CHUNK_EVENTS);
        let raw = {
            let mut writer = TraceWriter::new(Vec::new(), &meta).expect("writer");
            writer.set_compression(false);
            for event in &events {
                writer.push(event).expect("push");
            }
            writer.finish().expect("finish").0
        };
        assert!(
            compressed.len() * 2 < raw.len(),
            "expected at least 2x: compressed {} vs raw {}",
            compressed.len(),
            raw.len()
        );
        // Both decode to the same events.
        assert_eq!(read_all(&compressed).unwrap().0, events);
        assert_eq!(read_all(&raw).unwrap().0, events);
    }

    #[test]
    fn streaming_reader_buffers_at_most_one_chunk() {
        let events = synthetic_events(20_000);
        let mut writer =
            TraceWriter::with_chunk_events(Vec::new(), &TraceMeta::default(), 512).expect("writer");
        for event in &events {
            writer.push(event).expect("push");
        }
        let (bytes, stats) = writer.finish().expect("finish");
        assert_eq!(stats, census(&events));

        let mut reader = TraceReader::new(&bytes[..]).expect("open");
        let mut count = 0usize;
        while let Some(event) = reader.next_event().expect("event") {
            assert_eq!(&event, &events[count]);
            count += 1;
        }
        assert_eq!(count, events.len());
        assert!(
            reader.max_buffered_events() <= 512,
            "buffered {} events, chunk cap is 512",
            reader.max_buffered_events()
        );
        assert!(reader.chunks_read() > 10, "many chunks expected");
        assert_eq!(reader.footer().unwrap().counts, stats.counts());
    }

    /// A header for `meta`, then hand-framed raw event chunks (each a
    /// declared event count over a body), then a footer with `counts`: a
    /// stream whose CRCs all hold whatever the chunks say.
    fn framed_chunks(meta: &TraceMeta, chunks: &[(u64, &[u8])], counts: TraceStats) -> Vec<u8> {
        let mut bytes = TraceWriter::new(Vec::new(), meta).expect("header").w;
        for (declared, body) in chunks {
            write_chunk(&mut bytes, CHUNK_EVENTS_KIND, *declared, body, None).expect("chunk");
        }
        let footer = format::encode_footer(&TraceFooter {
            counts: counts.counts(),
            sections: Vec::new(),
        });
        write_chunk(&mut bytes, CHUNK_FOOTER_KIND, 0, &footer, None).expect("footer");
        bytes
    }

    /// One chunk declaring `declared` events over `body`, then an empty
    /// footer.
    fn framed(stream: StreamKind, declared: u64, body: &[u8]) -> Vec<u8> {
        let meta = TraceMeta {
            stream,
            ..TraceMeta::default()
        };
        framed_chunks(&meta, &[(declared, body)], TraceStats::default())
    }

    /// `count` encoded slot writes, as a plain or a shard chunk body,
    /// numbered (handle and sequence) from `first`.
    fn encoded_events_from(shard: bool, first: u64, count: u64) -> Vec<u8> {
        let (mut codec, mut buf, mut prev_seq) =
            (EventCodec::default(), Vec::new(), first.saturating_sub(1));
        for seq in first..first + count {
            let event = GcEvent::SlotWrite {
                object: cg_vm::Handle::from_index(seq as u32),
                slot: 1,
                value: None,
                element: false,
            };
            if shard {
                let ev = ShardEvent {
                    seq,
                    waits: Vec::new(),
                    event,
                };
                format::encode_shard_event(&mut codec, &mut buf, &mut prev_seq, &ev);
            } else {
                format::encode_event(&mut codec, &mut buf, &event);
            }
        }
        buf
    }

    fn encoded_events(shard: bool, count: u64) -> Vec<u8> {
        encoded_events_from(shard, 0, count)
    }

    /// Reads `bytes` to the first error: the events delivered before it,
    /// the error, and the chunks the reader had counted by then.
    fn read_to_error(bytes: &[u8]) -> (u64, TraceIoError, u64) {
        let mut reader = TraceReader::new(bytes).expect("open");
        loop {
            let step = if reader.is_shard_stream() {
                reader.next_shard_event().map(|e| e.is_some())
            } else {
                reader.next_event().map(|e| e.is_some())
            };
            match step {
                Ok(true) => {}
                Ok(false) => panic!("the stream must not read to its end"),
                Err(e) => return (reader.events_read(), e, reader.chunks_read()),
            }
        }
    }

    const SHARD_0_OF_2: StreamKind = StreamKind::Shard {
        shard: 0,
        shard_count: 2,
    };

    #[test]
    fn a_bad_event_inside_a_valid_chunk_fails_where_it_sits() {
        // Plain and shard streams run the same cursor; both must deliver
        // the good prefix, then name the chunk.
        for (shard, stream) in [(false, StreamKind::Plain), (true, SHARD_0_OF_2)] {
            // Five good events, then a tag no event kind has.
            let mut body = encoded_events(shard, 5);
            if shard {
                body.extend([1, 0]); // seq delta, no waits
            }
            body.push(0xEE);
            let (delivered, err, chunks) = read_to_error(&framed(stream.clone(), 6, &body));
            assert_eq!((delivered, chunks), (5, 1), "shard stream: {shard}");
            assert!(
                matches!(&err, TraceIoError::Malformed { chunk: Some(0), detail }
                    if detail.contains("unknown event tag")),
                "{err}"
            );

            // Six events under a count of five: the fifth is withheld and
            // the leftover bytes reported in its place.
            let body = encoded_events(shard, 6);
            let (delivered, err, _) = read_to_error(&framed(stream.clone(), 5, &body));
            assert_eq!(delivered, 4, "shard stream: {shard}");
            assert!(
                matches!(&err, TraceIoError::Malformed { chunk: Some(0), detail }
                    if detail.contains("trailing bytes after chunk events")),
                "{err}"
            );

            // A count of zero over a non-empty body is the same complaint,
            // made before any event.
            let (delivered, err, _) = read_to_error(&framed(stream.clone(), 0, &body));
            assert_eq!(delivered, 0);
            assert!(err.to_string().contains("trailing bytes"), "{err}");

            // More events declared than bytes to hold them: refused from
            // the framing alone.
            let (delivered, err, chunks) = read_to_error(&framed(stream, 1 << 50, &body));
            assert_eq!((delivered, chunks), (0, 0));
            assert!(
                matches!(&err, TraceIoError::Malformed { chunk: Some(0), detail }
                    if detail.contains("events in")),
                "{err}"
            );
        }
    }

    /// Two chunks of slot writes whose footer census counts both: the
    /// stream reads clean, and with the second chunk cut out — every CRC
    /// still valid — it fails at the footer instead of reporting fewer
    /// events than its census.
    #[test]
    fn a_census_that_disagrees_with_the_events_is_malformed() {
        for (shard, stream) in [(false, StreamKind::Plain), (true, SHARD_0_OF_2)] {
            let meta = TraceMeta {
                stream,
                ..TraceMeta::default()
            };
            let (first, second) = (
                encoded_events_from(shard, 0, 9),
                encoded_events_from(shard, 9, 7),
            );
            let counts = TraceStats {
                slot_writes: 16,
                ..TraceStats::default()
            };
            let whole = framed_chunks(&meta, &[(9, &first), (7, &second)], counts);
            let mut reader = TraceReader::new(&whole[..]).expect("open");
            let read: Result<Vec<()>, _> = if shard {
                reader.shard_events().map(|ev| ev.map(|_| ())).collect()
            } else {
                reader.events().map(|ev| ev.map(|_| ())).collect()
            };
            assert_eq!(read.expect("the whole stream reads").len(), 16);
            assert!(reader.footer().is_some());

            let dropped = framed_chunks(&meta, &[(9, &first)], counts);
            let (delivered, err, chunks) = read_to_error(&dropped);
            assert_eq!((delivered, chunks), (9, 1), "shard stream: {shard}");
            assert!(
                matches!(&err, TraceIoError::Malformed { chunk: Some(1), detail }
                    if detail.contains("census counts 16 events but the stream holds 9")),
                "{err}"
            );
        }
    }

    #[test]
    fn a_declared_count_that_disagrees_with_the_events_is_malformed() {
        let events = synthetic_events(10);
        let meta = TraceMeta {
            declared_events: Some(events.len() as u64 + 1),
            ..TraceMeta::default()
        };
        let bytes = write_events(&events, &meta, DEFAULT_CHUNK_EVENTS);
        let (delivered, err, _) = read_to_error(&bytes);
        assert_eq!(delivered, events.len() as u64);
        assert!(
            err.to_string()
                .contains("header declares 14 events but the stream holds 13"),
            "{err}"
        );
    }

    #[test]
    fn max_buffered_events_is_the_largest_chunk_held() {
        let events = synthetic_events(1000);
        let bytes = write_events(&events, &TraceMeta::default(), 300);
        let mut reader = TraceReader::new(&bytes[..]).expect("open");
        assert_eq!(reader.max_buffered_events(), 0);
        assert!(reader.next_event().expect("first event").is_some());
        // One chunk is held from the moment its first event is asked for...
        assert_eq!(
            (reader.max_buffered_events(), reader.chunks_read()),
            (300, 1)
        );
        while reader.next_event().expect("event").is_some() {}
        // ...and the 103-event tail never raises the high-water mark.
        assert_eq!(reader.max_buffered_events(), 300);
        assert_eq!(reader.events_read(), events.len() as u64);
        assert_eq!(reader.chunks_read(), 4 + 1);
    }

    #[test]
    fn writer_without_finish_leaves_a_detectably_truncated_stream() {
        let meta = TraceMeta::default();
        let mut writer = TraceWriter::new(Vec::new(), &meta).expect("writer");
        writer
            .push(&GcEvent::FramePush { frame: frame(1) })
            .expect("push");
        // Dropping a writer without `finish` leaves only what it flushed:
        // here the header, the event still being buffered.
        let TraceWriter { w: header_only, .. } = writer;
        let err = read_all(&header_only).unwrap_err();
        assert!(
            matches!(err, TraceIoError::Truncated { .. }),
            "unfinished stream must read as truncated, got {err}"
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = write_events(&[], &TraceMeta::default(), DEFAULT_CHUNK_EVENTS);
        let (decoded, _, footer) = read_all(&bytes).expect("read");
        assert!(decoded.is_empty());
        assert_eq!(footer.total_events(), 0);
    }

    #[test]
    fn footer_sections_round_trip() {
        let meta = TraceMeta::default();
        let mut writer = TraceWriter::new(Vec::new(), &meta).expect("writer");
        writer.add_section(FooterSection {
            name: "vm".into(),
            entries: vec![("instructions".into(), 123)],
        });
        writer.add_section(FooterSection {
            name: "vm".into(),
            entries: vec![("instructions".into(), 456)],
        });
        let (bytes, _) = writer.finish().expect("finish");
        let (_, _, footer) = read_all(&bytes).expect("read");
        assert_eq!(footer.sections.len(), 1, "same-name section replaces");
        assert_eq!(
            footer.section("vm").unwrap().entries,
            vec![("instructions".to_string(), 456)]
        );
    }
}
