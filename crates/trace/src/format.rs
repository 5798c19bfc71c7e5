//! The `.cgt` persistent trace format: header, event and footer encodings.
//!
//! # Layout
//!
//! ```text
//! file    := magic(4) version(u16 LE) header_len(varint) header crc32(header)
//!            chunk* footer-chunk
//! chunk   := kind(u8) event_count(varint) raw_len(varint) stored_len(varint)
//!            codec(u8) payload[stored_len] crc32(payload as stored)
//! footer-chunk := same framing, kind = FOOTER, payload = footer body
//! ```
//!
//! * **magic** is `\x89CGT` (a non-ASCII first byte keeps the file from
//!   being mistaken for text, as PNG does).
//! * **header** carries the format version's metadata: trace name, optional
//!   workload identity (benchmark name + SPEC size), the recording heap
//!   configuration, the periodic-collection interval and — for per-shard
//!   streams written by `partition_streaming` — the shard topology.
//! * **events** are LEB128-varint encoded with one stable tag byte per
//!   [`GcEvent`] variant (the tags are [`EventKind`]'s discriminants).
//! * every chunk ends with a CRC32 of its stored payload, so corruption is
//!   detected — and localized to one chunk — before decoding is attempted.
//! * the **footer** is the authoritative per-kind event census plus named
//!   `u64` sections ("vm" = interpreter statistics of the recording run,
//!   "cg" = the canonical collector's replay statistics); `cgt verify`
//!   replays the stream and compares against the "cg" section byte for
//!   byte.
//!
//! Unknown *versions* fail with a clean [`TraceIoError::UnsupportedVersion`]
//! (never a panic); unknown footer *sections* are preserved but ignored, so
//! minor additions do not break old readers.

use std::io;

use cg_heap::{AllocPolicy, HandleRepr, HeapConfig};
use cg_vm::{
    AllocKind, EventKind, FrameId, FrameInfo, FrameRoots, GcEvent, Handle, MethodId, RootSet,
    ThreadId,
};

use crate::partition::{ShardEvent, ShardWait};
use crate::wire::{self, SliceReader, WireError};

/// The four magic bytes opening every `.cgt` file.
pub const MAGIC: [u8; 4] = [0x89, b'C', b'G', b'T'];

/// Current format version.  Bump on any incompatible change.
pub const FORMAT_VERSION: u16 = 1;

/// Number of event kinds (and footer count slots).
const EVENT_KIND_COUNT: usize = EventKind::ALL.len();

/// Default number of events per chunk.
///
/// Streaming readers buffer at most one decoded chunk, so this bounds the
/// resident event memory of a streaming replay regardless of trace length.
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

/// Chunk kind: a batch of events.
pub const CHUNK_EVENTS_KIND: u8 = 1;
/// Chunk kind: the trailing footer.
pub const CHUNK_FOOTER_KIND: u8 = 2;

/// Codec byte: payload stored raw.
pub const CODEC_RAW: u8 = 0;
/// Codec byte: payload stored LZ-compressed (see [`crate::compress`]).
pub const CODEC_LZ: u8 = 1;

/// Why reading or writing a `.cgt` stream failed.
#[derive(Debug)]
pub enum TraceIoError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `.cgt` magic bytes.
    BadMagic,
    /// The file declares a format version this reader does not understand.
    UnsupportedVersion {
        /// The version the file declares.
        found: u16,
    },
    /// The stream ended before the footer chunk (a complete `.cgt` file
    /// always ends with one).
    Truncated {
        /// What was being read when the stream ended.
        context: String,
    },
    /// A chunk's CRC32 does not match its payload: the chunk is corrupt.
    CrcMismatch {
        /// Zero-based index of the corrupt chunk.
        chunk: u64,
    },
    /// The bytes are structurally malformed (bad tag, overlong varint,
    /// invalid UTF-8, impossible length, ...).
    Malformed {
        /// Zero-based index of the chunk being decoded, if known.
        chunk: Option<u64>,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O failed: {e}"),
            TraceIoError::BadMagic => write!(f, "not a .cgt trace (bad magic bytes)"),
            TraceIoError::UnsupportedVersion { found } => write!(
                f,
                "unsupported .cgt format version {found} (this reader understands \
                 versions up to {FORMAT_VERSION})"
            ),
            TraceIoError::Truncated { context } => {
                write!(f, "truncated .cgt stream ({context})")
            }
            TraceIoError::CrcMismatch { chunk } => {
                write!(f, "chunk {chunk} is corrupt (CRC32 mismatch)")
            }
            TraceIoError::Malformed {
                chunk: Some(c),
                detail,
            } => {
                write!(f, "malformed .cgt data in chunk {c}: {detail}")
            }
            TraceIoError::Malformed {
                chunk: None,
                detail,
            } => {
                write!(f, "malformed .cgt data: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl TraceIoError {
    pub(crate) fn malformed(chunk: Option<u64>, err: WireError) -> Self {
        TraceIoError::Malformed {
            chunk,
            detail: err.0,
        }
    }
}

/// The workload a trace was recorded from, when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadRef {
    /// Benchmark name (`"javac"`, ...).
    pub name: String,
    /// SPEC problem size number (1, 10 or 100).
    pub size: u32,
}

/// Whether a `.cgt` file holds a whole trace or one shard's sub-stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StreamKind {
    /// A complete event stream, in emission order.
    #[default]
    Plain,
    /// One shard's sub-stream of a partitioned trace (events carry their
    /// global sequence number and cross-shard wait edges).  Whole-partition
    /// totals live in the footer's `"shard"` section, because a streaming
    /// partitioner does not know them when it writes the header.
    Shard {
        /// This stream's shard index.
        shard: u32,
        /// Total number of shards in the partition.
        shard_count: u32,
    },
}

/// Header metadata of a `.cgt` stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// The trace's name (typically `workload/size`).
    pub name: String,
    /// The workload identity, when the trace was recorded by `cgt record`
    /// or the bench runner (enables `cgt verify --re-record`).
    pub workload: Option<WorkloadRef>,
    /// The periodic forced-collection interval the recording ran with.
    pub gc_every: Option<u64>,
    /// The heap configuration of the recording run; replays use the same.
    pub heap: Option<HeapConfig>,
    /// Event count declared up front (known when writing an in-memory
    /// trace; `None` for streams written as they are recorded — the footer
    /// carries the authoritative census either way).
    pub declared_events: Option<u64>,
    /// Plain trace or per-shard sub-stream.
    pub stream: StreamKind,
}

/// One named section of `u64` entries in the footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FooterSection {
    /// Section name (`"vm"`, `"cg"`, ...).
    pub name: String,
    /// Ordered key/value entries.  Order is part of the canonical encoding:
    /// two sections are byte-identical iff these vectors are equal.
    pub entries: Vec<(String, u64)>,
}

/// The trailing footer of a `.cgt` stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceFooter {
    /// Per-kind event counts, indexed by [`EventKind`] tag.
    pub counts: [u64; EVENT_KIND_COUNT],
    /// Named stats sections.  Unknown sections are preserved on read.
    pub sections: Vec<FooterSection>,
}

impl TraceFooter {
    /// Total events across all kinds.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The named section, if present.
    pub fn section(&self, name: &str) -> Option<&FooterSection> {
        self.sections.iter().find(|s| s.name == name)
    }
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

fn handle_repr_tag(repr: HandleRepr) -> u8 {
    match repr {
        HandleRepr::Jdk => 0,
        HandleRepr::CgWide => 1,
        HandleRepr::CgPacked => 2,
    }
}

fn handle_repr_from(tag: u8) -> Result<HandleRepr, WireError> {
    match tag {
        0 => Ok(HandleRepr::Jdk),
        1 => Ok(HandleRepr::CgWide),
        2 => Ok(HandleRepr::CgPacked),
        other => Err(WireError(format!("unknown handle representation {other}"))),
    }
}

fn alloc_policy_tag(policy: AllocPolicy) -> u8 {
    match policy {
        AllocPolicy::FirstFitRover => 0,
        AllocPolicy::SegregatedFit => 1,
    }
}

fn alloc_policy_from(tag: u8) -> Result<AllocPolicy, WireError> {
    match tag {
        0 => Ok(AllocPolicy::FirstFitRover),
        1 => Ok(AllocPolicy::SegregatedFit),
        other => Err(WireError(format!("unknown allocation policy {other}"))),
    }
}

/// Encodes the header payload (everything between the version and the
/// header CRC).
pub fn encode_header(meta: &TraceMeta) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    wire::put_string(&mut buf, &meta.name);
    match &meta.workload {
        None => buf.push(0),
        Some(w) => {
            buf.push(1);
            wire::put_string(&mut buf, &w.name);
            wire::put_varint(&mut buf, u64::from(w.size));
        }
    }
    wire::put_opt_u64(&mut buf, meta.gc_every);
    match &meta.heap {
        None => buf.push(0),
        Some(h) => {
            buf.push(1);
            wire::put_varint_usize(&mut buf, h.object_space_bytes);
            wire::put_varint_usize(&mut buf, h.handle_space_bytes);
            buf.push(handle_repr_tag(h.handle_repr));
            wire::put_varint_usize(&mut buf, h.object_header_words);
            buf.push(alloc_policy_tag(h.alloc_policy));
        }
    }
    wire::put_opt_u64(&mut buf, meta.declared_events);
    match &meta.stream {
        StreamKind::Plain => buf.push(0),
        StreamKind::Shard { shard, shard_count } => {
            buf.push(1);
            wire::put_varint(&mut buf, u64::from(*shard));
            wire::put_varint(&mut buf, u64::from(*shard_count));
        }
    }
    buf
}

/// Decodes a header payload.
pub fn decode_header(bytes: &[u8]) -> Result<TraceMeta, WireError> {
    let mut r = SliceReader::new(bytes);
    let name = r.string("trace name")?;
    let workload = match r.u8("workload flag")? {
        0 => None,
        1 => Some(WorkloadRef {
            name: r.string("workload name")?,
            size: r.varint("workload size")? as u32,
        }),
        other => return Err(WireError(format!("bad workload flag {other}"))),
    };
    let gc_every = r.opt_u64("gc_every")?;
    let heap = match r.u8("heap flag")? {
        0 => None,
        1 => {
            let object_space_bytes = r.varint("object space bytes")? as usize;
            let handle_space_bytes = r.varint("handle space bytes")? as usize;
            let handle_repr = handle_repr_from(r.u8("handle repr")?)?;
            let object_header_words = r.varint("object header words")? as usize;
            let alloc_policy = alloc_policy_from(r.u8("alloc policy")?)?;
            Some(HeapConfig {
                object_space_bytes,
                handle_space_bytes,
                handle_repr,
                object_header_words,
                alloc_policy,
                // Fault injection is a process-local test aid, never part
                // of the wire format.
                alloc_failure_at: None,
            })
        }
        other => return Err(WireError(format!("bad heap flag {other}"))),
    };
    let declared_events = r.opt_u64("declared events")?;
    let stream = match r.u8("stream kind")? {
        0 => StreamKind::Plain,
        1 => StreamKind::Shard {
            shard: r.varint("shard index")? as u32,
            shard_count: r.varint("shard count")? as u32,
        },
        other => return Err(WireError(format!("bad stream kind {other}"))),
    };
    Ok(TraceMeta {
        name,
        workload,
        gc_every,
        heap,
        declared_events,
        stream,
    })
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

fn put_frame(buf: &mut Vec<u8>, frame: &FrameInfo) {
    wire::put_varint(buf, frame.id.raw());
    wire::put_varint_usize(buf, frame.depth);
    wire::put_varint(buf, u64::from(frame.thread.raw()));
    wire::put_varint(buf, frame.method.index() as u64);
}

#[inline(always)]
fn read_frame(r: &mut SliceReader<'_>) -> Result<FrameInfo, WireError> {
    Ok(FrameInfo {
        id: FrameId::new(r.varint("frame id")?),
        depth: r.varint("frame depth")? as usize,
        thread: ThreadId::new(r.varint("frame thread")? as u32),
        method: MethodId::new(r.varint("frame method")? as u32),
    })
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Per-chunk event codec state.
///
/// Handles are delta-encoded (zigzag varint against the previously coded
/// handle): consecutive events overwhelmingly touch nearby handles, so
/// most handle references shrink from 3–5 varint bytes to one, and the
/// delta stream is far more repetitive for the LZ pass.  The state resets
/// at every chunk boundary, keeping chunks independently decodable — a
/// corrupt chunk cannot skew the decoding of its neighbours.
#[derive(Debug, Default)]
pub struct EventCodec {
    last_handle: i64,
}

impl EventCodec {
    fn put_handle(&mut self, buf: &mut Vec<u8>, handle: Handle) {
        let v = i64::from(handle.index());
        wire::put_varint(buf, zigzag(v - self.last_handle));
        self.last_handle = v;
    }

    #[inline(always)]
    fn read_handle(&mut self, r: &mut SliceReader<'_>, what: &str) -> Result<Handle, WireError> {
        let v = self.last_handle + unzigzag(r.varint(what)?);
        if v < 0 || v > i64::from(u32::MAX) {
            return Err(WireError(format!("handle delta escapes u32 in {what}")));
        }
        self.last_handle = v;
        Ok(Handle::from_index(v as u32))
    }

    fn put_roots(&mut self, buf: &mut Vec<u8>, roots: &RootSet) {
        wire::put_varint_usize(buf, roots.frames.len());
        for fr in &roots.frames {
            put_frame(buf, &fr.frame);
            wire::put_varint_usize(buf, fr.refs.len());
            for &h in &fr.refs {
                self.put_handle(buf, h);
            }
        }
        wire::put_varint_usize(buf, roots.statics.len());
        for &h in &roots.statics {
            self.put_handle(buf, h);
        }
        wire::put_varint_usize(buf, roots.interpreter.len());
        for &h in &roots.interpreter {
            self.put_handle(buf, h);
        }
    }
}

/// Upper bound used when validating decoded collection lengths (frames,
/// roots, waits).  Far above anything a real trace produces, low enough to
/// keep corrupt lengths from provoking huge allocations.
const LEN_LIMIT: usize = 1 << 28;

fn read_roots(codec: &mut EventCodec, r: &mut SliceReader<'_>) -> Result<RootSet, WireError> {
    let frame_count = r.bounded_len("root frame count", LEN_LIMIT)?;
    let mut frames = Vec::with_capacity(frame_count.min(1024));
    for _ in 0..frame_count {
        let frame = read_frame(r)?;
        let ref_count = r.bounded_len("frame root count", LEN_LIMIT)?;
        let mut refs = Vec::with_capacity(ref_count.min(1024));
        for _ in 0..ref_count {
            refs.push(codec.read_handle(r, "frame root")?);
        }
        frames.push(FrameRoots { frame, refs });
    }
    let static_count = r.bounded_len("static root count", LEN_LIMIT)?;
    let mut statics = Vec::with_capacity(static_count.min(1024));
    for _ in 0..static_count {
        statics.push(codec.read_handle(r, "static root")?);
    }
    let interp_count = r.bounded_len("interpreter root count", LEN_LIMIT)?;
    let mut interpreter = Vec::with_capacity(interp_count.min(1024));
    for _ in 0..interp_count {
        interpreter.push(codec.read_handle(r, "interpreter root")?);
    }
    Ok(RootSet {
        frames,
        statics,
        interpreter,
    })
}

/// [`read_roots`] for [`decode_event`]: out of line and on its own copy of
/// the cursor, handed back advanced, so that this rare, looping decoder
/// does not force the event decoder's cursor out of its register.
#[inline(never)]
fn read_boxed_roots<'a>(
    codec: &mut EventCodec,
    mut r: SliceReader<'a>,
) -> Result<(Box<RootSet>, SliceReader<'a>), WireError> {
    let roots = read_roots(codec, &mut r)?;
    Ok((Box::new(roots), r))
}

/// Flag bits of the `Allocate` encoding.
const ALLOC_RECYCLED: u8 = 1;
const ALLOC_ARRAY: u8 = 2;

/// Flag bits of the `SlotWrite` encoding.
const SLOT_ELEMENT: u8 = 1;
const SLOT_HAS_VALUE: u8 = 2;

/// Appends one event (tag byte + payload).
pub fn encode_event(codec: &mut EventCodec, buf: &mut Vec<u8>, event: &GcEvent) {
    buf.push(event.kind().tag());
    match event {
        GcEvent::Allocate {
            handle,
            class,
            kind,
            frame,
            recycled,
        } => {
            let mut flags = 0u8;
            if *recycled {
                flags |= ALLOC_RECYCLED;
            }
            let size = match kind {
                AllocKind::Instance { field_count } => *field_count,
                AllocKind::Array { length } => {
                    flags |= ALLOC_ARRAY;
                    *length
                }
            };
            buf.push(flags);
            codec.put_handle(buf, *handle);
            wire::put_varint(buf, u64::from(class.index()));
            wire::put_varint_usize(buf, size);
            put_frame(buf, frame);
        }
        GcEvent::SlotWrite {
            object,
            slot,
            value,
            element,
        } => {
            let mut flags = 0u8;
            if *element {
                flags |= SLOT_ELEMENT;
            }
            if value.is_some() {
                flags |= SLOT_HAS_VALUE;
            }
            buf.push(flags);
            codec.put_handle(buf, *object);
            wire::put_varint_usize(buf, *slot);
            if let Some(v) = value {
                codec.put_handle(buf, *v);
            }
        }
        GcEvent::ObjectAccess { handle, thread } => {
            codec.put_handle(buf, *handle);
            wire::put_varint(buf, u64::from(thread.raw()));
        }
        GcEvent::ReferenceStore {
            source,
            target,
            frame,
        } => {
            codec.put_handle(buf, *source);
            codec.put_handle(buf, *target);
            put_frame(buf, frame);
        }
        GcEvent::StaticStore { target } => {
            codec.put_handle(buf, *target);
        }
        GcEvent::ReturnValue {
            value,
            caller,
            callee,
        } => {
            codec.put_handle(buf, *value);
            put_frame(buf, caller);
            put_frame(buf, callee);
        }
        GcEvent::FramePush { frame } | GcEvent::FramePop { frame } => {
            put_frame(buf, frame);
        }
        GcEvent::Collect { roots } | GcEvent::ProgramEnd { roots } => {
            codec.put_roots(buf, roots);
        }
    }
}

/// Decodes one event.
///
/// Forced inline: the reader's per-event functions are the only hot
/// callers, and folding the decoder into them keeps the cursor in registers
/// and builds the event in the caller's return slot.
#[inline(always)]
pub fn decode_event(codec: &mut EventCodec, r: &mut SliceReader<'_>) -> Result<GcEvent, WireError> {
    let tag = r.u8("event tag")?;
    let kind =
        EventKind::from_tag(tag).ok_or_else(|| WireError(format!("unknown event tag {tag}")))?;
    Ok(match kind {
        EventKind::Allocate => {
            let flags = r.u8("alloc flags")?;
            let handle = codec.read_handle(r, "alloc handle")?;
            let class = cg_heap::ClassId::new(r.varint("alloc class")? as u32);
            let size = r.varint("alloc size")? as usize;
            let frame = read_frame(r)?;
            let kind = if flags & ALLOC_ARRAY != 0 {
                AllocKind::Array { length: size }
            } else {
                AllocKind::Instance { field_count: size }
            };
            GcEvent::Allocate {
                handle,
                class,
                kind,
                frame,
                recycled: flags & ALLOC_RECYCLED != 0,
            }
        }
        EventKind::SlotWrite => {
            let flags = r.u8("slot flags")?;
            let object = codec.read_handle(r, "slot object")?;
            let slot = r.varint("slot index")? as usize;
            let value = if flags & SLOT_HAS_VALUE != 0 {
                Some(codec.read_handle(r, "slot value")?)
            } else {
                None
            };
            GcEvent::SlotWrite {
                object,
                slot,
                value,
                element: flags & SLOT_ELEMENT != 0,
            }
        }
        EventKind::ObjectAccess => GcEvent::ObjectAccess {
            handle: codec.read_handle(r, "access handle")?,
            thread: ThreadId::new(r.varint("access thread")? as u32),
        },
        EventKind::ReferenceStore => GcEvent::ReferenceStore {
            source: codec.read_handle(r, "store source")?,
            target: codec.read_handle(r, "store target")?,
            frame: read_frame(r)?,
        },
        EventKind::StaticStore => GcEvent::StaticStore {
            target: codec.read_handle(r, "static target")?,
        },
        EventKind::ReturnValue => GcEvent::ReturnValue {
            value: codec.read_handle(r, "return value")?,
            caller: read_frame(r)?,
            callee: read_frame(r)?,
        },
        EventKind::FramePush => GcEvent::FramePush {
            frame: read_frame(r)?,
        },
        EventKind::FramePop => GcEvent::FramePop {
            frame: read_frame(r)?,
        },
        EventKind::Collect | EventKind::ProgramEnd => {
            let (roots, rest) = read_boxed_roots(codec, r.clone())?;
            *r = rest;
            if kind == EventKind::Collect {
                GcEvent::Collect { roots }
            } else {
                GcEvent::ProgramEnd { roots }
            }
        }
    })
}

/// Appends one shard event: global sequence number (delta-encoded against
/// the previous event in the same stream), wait edges, then the event.
pub fn encode_shard_event(
    codec: &mut EventCodec,
    buf: &mut Vec<u8>,
    prev_seq: &mut u64,
    ev: &ShardEvent,
) {
    // Streams are seq-ascending, so the delta is non-negative; the first
    // event stores its absolute seq (delta against 0 with a +1 bias to
    // distinguish "first" cheaply is unnecessary — absolute works).
    let delta = ev.seq - *prev_seq;
    *prev_seq = ev.seq;
    wire::put_varint(buf, delta);
    wire::put_varint_usize(buf, ev.waits.len());
    for w in &ev.waits {
        wire::put_varint(buf, u64::from(w.shard));
        wire::put_varint(buf, w.processed);
    }
    encode_event(codec, buf, &ev.event);
}

/// Decodes one shard event (see [`encode_shard_event`]).
pub fn decode_shard_event(
    codec: &mut EventCodec,
    r: &mut SliceReader<'_>,
    prev_seq: &mut u64,
) -> Result<ShardEvent, WireError> {
    let delta = r.varint("seq delta")?;
    let seq = prev_seq
        .checked_add(delta)
        .ok_or_else(|| WireError("shard seq delta overflows u64".to_string()))?;
    *prev_seq = seq;
    let wait_count = r.bounded_len("wait count", LEN_LIMIT)?;
    let mut waits = Vec::with_capacity(wait_count.min(64));
    for _ in 0..wait_count {
        waits.push(ShardWait {
            shard: r.varint("wait shard")? as u32,
            processed: r.varint("wait processed")?,
        });
    }
    let event = decode_event(codec, r)?;
    Ok(ShardEvent { seq, waits, event })
}

// ---------------------------------------------------------------------------
// Footer
// ---------------------------------------------------------------------------

/// Encodes the footer body.
pub fn encode_footer(footer: &TraceFooter) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    for &count in &footer.counts {
        wire::put_varint(&mut buf, count);
    }
    wire::put_varint_usize(&mut buf, footer.sections.len());
    for section in &footer.sections {
        wire::put_string(&mut buf, &section.name);
        wire::put_varint_usize(&mut buf, section.entries.len());
        for (key, value) in &section.entries {
            wire::put_string(&mut buf, key);
            wire::put_varint(&mut buf, *value);
        }
    }
    buf
}

/// Decodes a footer body.
pub fn decode_footer(bytes: &[u8]) -> Result<TraceFooter, WireError> {
    let mut r = SliceReader::new(bytes);
    let mut counts = [0u64; EVENT_KIND_COUNT];
    for count in &mut counts {
        *count = r.varint("footer count")?;
    }
    let section_count = r.bounded_len("footer section count", 1 << 16)?;
    let mut sections = Vec::with_capacity(section_count.min(16));
    for _ in 0..section_count {
        let name = r.string("footer section name")?;
        let entry_count = r.bounded_len("footer entry count", 1 << 20)?;
        let mut entries = Vec::with_capacity(entry_count.min(256));
        for _ in 0..entry_count {
            let key = r.string("footer entry key")?;
            let value = r.varint("footer entry value")?;
            entries.push((key, value));
        }
        sections.push(FooterSection { name, entries });
    }
    if !r.is_empty() {
        return Err(WireError(format!(
            "{} trailing bytes after footer body",
            r.remaining()
        )));
    }
    Ok(TraceFooter { counts, sections })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_heap::ClassId;

    fn frame(id: u64, depth: usize, thread: u32) -> FrameInfo {
        FrameInfo {
            id: FrameId::new(id),
            depth,
            thread: ThreadId::new(thread),
            method: MethodId::new(7),
        }
    }

    fn sample_events() -> Vec<GcEvent> {
        let f = frame(3, 2, 1);
        vec![
            GcEvent::Allocate {
                handle: Handle::from_index(5),
                class: ClassId::new(2),
                kind: AllocKind::Instance { field_count: 4 },
                frame: f,
                recycled: false,
            },
            GcEvent::Allocate {
                handle: Handle::from_index(6),
                class: ClassId::new(3),
                kind: AllocKind::Array { length: 128 },
                frame: f,
                recycled: true,
            },
            GcEvent::SlotWrite {
                object: Handle::from_index(5),
                slot: 2,
                value: Some(Handle::from_index(6)),
                element: false,
            },
            GcEvent::SlotWrite {
                object: Handle::from_index(6),
                slot: 100,
                value: None,
                element: true,
            },
            GcEvent::ObjectAccess {
                handle: Handle::from_index(5),
                thread: ThreadId::new(3),
            },
            GcEvent::ReferenceStore {
                source: Handle::from_index(5),
                target: Handle::from_index(6),
                frame: f,
            },
            GcEvent::StaticStore {
                target: Handle::from_index(6),
            },
            GcEvent::ReturnValue {
                value: Handle::from_index(5),
                caller: frame(2, 1, 1),
                callee: f,
            },
            GcEvent::FramePush { frame: f },
            GcEvent::FramePop { frame: f },
            GcEvent::Collect {
                roots: Box::new(RootSet {
                    frames: vec![FrameRoots {
                        frame: f,
                        refs: vec![Handle::from_index(5), Handle::from_index(6)],
                    }],
                    statics: vec![Handle::from_index(6)],
                    interpreter: vec![],
                }),
            },
            GcEvent::ProgramEnd {
                roots: Box::new(RootSet::default()),
            },
        ]
    }

    #[test]
    fn every_event_variant_round_trips() {
        for event in sample_events() {
            let mut buf = Vec::new();
            encode_event(&mut EventCodec::default(), &mut buf, &event);
            let mut r = SliceReader::new(&buf);
            let decoded = decode_event(&mut EventCodec::default(), &mut r).expect("decode");
            assert!(r.is_empty(), "{event:?} left bytes");
            assert_eq!(decoded, event);
        }
    }

    #[test]
    fn event_sequences_share_delta_coded_handles() {
        // Encoding a sequence with one codec and decoding with a fresh one
        // must reproduce it exactly (deltas chain across events).
        let events = sample_events();
        let mut buf = Vec::new();
        let mut enc = EventCodec::default();
        for event in &events {
            encode_event(&mut enc, &mut buf, event);
        }
        let mut r = SliceReader::new(&buf);
        let mut dec = EventCodec::default();
        for event in &events {
            assert_eq!(&decode_event(&mut dec, &mut r).expect("decode"), event);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn unknown_event_tag_is_rejected() {
        let mut r = SliceReader::new(&[200]);
        assert!(decode_event(&mut EventCodec::default(), &mut r)
            .unwrap_err()
            .0
            .contains("unknown event tag"));
    }

    #[test]
    fn headers_round_trip() {
        let metas = [
            TraceMeta {
                name: "javac/1".into(),
                workload: Some(WorkloadRef {
                    name: "javac".into(),
                    size: 1,
                }),
                gc_every: Some(25_000),
                heap: Some(HeapConfig::small()),
                declared_events: Some(43_658),
                stream: StreamKind::Plain,
            },
            TraceMeta {
                name: "shard".into(),
                workload: None,
                gc_every: None,
                heap: None,
                declared_events: None,
                stream: StreamKind::Shard {
                    shard: 2,
                    shard_count: 4,
                },
            },
            TraceMeta::default(),
        ];
        for meta in metas {
            let bytes = encode_header(&meta);
            assert_eq!(decode_header(&bytes).expect("decode"), meta);
        }
    }

    #[test]
    fn shard_events_round_trip_with_delta_seqs() {
        let events = vec![
            ShardEvent {
                seq: 4,
                waits: vec![],
                event: GcEvent::FramePush {
                    frame: frame(1, 1, 0),
                },
            },
            ShardEvent {
                seq: 9,
                waits: vec![
                    ShardWait {
                        shard: 1,
                        processed: 3,
                    },
                    ShardWait {
                        shard: 2,
                        processed: 7,
                    },
                ],
                event: GcEvent::StaticStore {
                    target: Handle::from_index(0),
                },
            },
        ];
        let mut buf = Vec::new();
        let mut prev = 0u64;
        let mut enc = EventCodec::default();
        for ev in &events {
            encode_shard_event(&mut enc, &mut buf, &mut prev, ev);
        }
        let mut r = SliceReader::new(&buf);
        let mut prev = 0u64;
        let mut dec = EventCodec::default();
        for ev in &events {
            assert_eq!(
                &decode_shard_event(&mut dec, &mut r, &mut prev).unwrap(),
                ev
            );
        }
        assert!(r.is_empty());
    }

    #[test]
    fn footers_round_trip_and_reject_trailing_bytes() {
        let footer = TraceFooter {
            counts: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            sections: vec![FooterSection {
                name: "cg".into(),
                entries: vec![("objects_created".into(), 42), ("unions".into(), 7)],
            }],
        };
        let mut bytes = encode_footer(&footer);
        assert_eq!(decode_footer(&bytes).expect("decode"), footer);
        assert_eq!(footer.total_events(), 55);
        assert_eq!(footer.section("cg").unwrap().entries.len(), 2);
        assert!(footer.section("vm").is_none());
        bytes.push(0);
        assert!(decode_footer(&bytes).unwrap_err().0.contains("trailing"));
    }
}
