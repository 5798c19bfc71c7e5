//! The `cgtd` wire protocol: length-prefixed, CRC'd frames over a byte
//! stream (TCP in practice), carrying `.cgt` uploads or live event streams
//! to a trace-evaluation daemon and stats/metrics back.
//!
//! # Connection shape
//!
//! ```text
//! client                                 server
//!   |-- preamble: magic(4) version(2) -->|
//!   |-- SUBMIT tenant ------------------>|
//!   |<------------- ACCEPTED (or BUSY) --|
//!   |-- DATA bytes... ------------------>|   (the .cgt stream, any split)
//!   |-- END ---------------------------->|
//!   |<------------ STATS (or ERROR) -----|
//! ```
//!
//! or, for a metrics scrape, `preamble` + `METRICS` → `METRICS_REPLY`.
//!
//! A *live* session opens with `STREAM` instead of `SUBMIT`: the body
//! framing is identical (`DATA`… + `END`), but the server evaluates each
//! chunk as it lands — in O(chunk) memory, never spooling the stream —
//! and interleaves periodic `PROGRESS` frames back while the upload is
//! still in flight:
//!
//! ```text
//! client                                 server
//!   |-- preamble: magic(4) version(2) -->|
//!   |-- STREAM tenant ------------------>|
//!   |<------------- ACCEPTED (or BUSY) --|
//!   |-- DATA bytes... ------------------>|   (events as they are recorded)
//!   |<-------- PROGRESS events bytes ----|   (periodic, while streaming)
//!   |-- DATA bytes... ------------------>|
//!   |<-------- PROGRESS events bytes ----|
//!   |-- END ---------------------------->|
//!   |<------------ STATS (or ERROR) -----|
//! ```
//!
//! # Frame layout
//!
//! ```text
//! frame := kind(u8) len(u32 LE) payload[len] crc32(payload)(u32 LE)
//! ```
//!
//! The same IEEE CRC32 that guards `.cgt` chunks guards every frame
//! payload, and `len` is validated against the 1 MiB payload cap *before*
//! any allocation — an adversarial length prefix cannot balloon memory.
//! The `.cgt` bytes inside [`Frame::Data`] payloads reuse the chunk wire
//! format from [`crate::format`] unchanged: a session body is exactly the
//! byte stream a [`crate::TraceWriter`] produces, split at arbitrary
//! boundaries, so memory stays O(chunk) end to end.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use crate::limits::EvalError;
use crate::wire::{self, SliceReader};

/// Connection preamble magic (distinct from the `.cgt` file magic).
const PROTO_MAGIC: [u8; 4] = *b"\x89CGP";

/// Protocol version carried in the preamble.
const PROTO_VERSION: u16 = 1;

/// Hard cap on a frame payload; larger length prefixes are rejected before
/// allocation.
const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Recommended [`Frame::Data`] payload size: matches the `.cgt` writer's
/// chunk target so one frame ≈ one chunk.
const DATA_CHUNK_BYTES: usize = 256 * 1024;

const KIND_SUBMIT: u8 = 0x01;
const KIND_DATA: u8 = 0x02;
const KIND_END: u8 = 0x03;
const KIND_METRICS: u8 = 0x04;
const KIND_STREAM: u8 = 0x05;
const KIND_ACCEPTED: u8 = 0x81;
const KIND_BUSY: u8 = 0x82;
const KIND_STATS: u8 = 0x83;
const KIND_ERROR: u8 = 0x84;
const KIND_METRICS_REPLY: u8 = 0x85;
const KIND_PROGRESS: u8 = 0x86;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: open an evaluation session for `tenant`.
    Submit {
        /// Tenant name the session is accounted (and rate-limited) under.
        tenant: String,
    },
    /// Client → server: a slice of the session's `.cgt` byte stream.
    Data(Vec<u8>),
    /// Client → server: the byte stream is complete; evaluate.
    End,
    /// Client → server: request a metrics snapshot.
    Metrics,
    /// Client → server: open a *live* evaluation session for `tenant`.
    ///
    /// The body framing is the same as after [`Frame::Submit`], but the
    /// server evaluates incrementally and interleaves [`Frame::Progress`]
    /// replies while the client is still sending.
    Stream {
        /// Tenant name the session is accounted (and rate-limited) under.
        tenant: String,
    },
    /// Server → client: session admitted; start streaming.
    Accepted,
    /// Server → client: queue full — explicit backpressure, try later.
    Busy {
        /// Which bound was hit (for operators; clients just back off).
        reason: String,
    },
    /// Server → client: evaluation finished; the canonical stats text.
    Stats {
        /// Whether the result came from the memoized result cache.
        cached: bool,
        /// Plaintext `key value` lines (see `cg-server` for the schema).
        text: String,
    },
    /// Server → client: the session failed.
    Error {
        /// Coarse failure class (stable across message wording changes).
        class: ErrorClass,
        /// Human-readable detail.
        message: String,
    },
    /// Server → client: plaintext metrics snapshot.
    MetricsReply {
        /// `key value` lines.
        text: String,
    },
    /// Server → client: periodic progress on a live ([`Frame::Stream`])
    /// session.
    Progress {
        /// Events evaluated so far.
        events: u64,
        /// `.cgt` bytes consumed so far.
        bytes: u64,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Submit { .. } => KIND_SUBMIT,
            Frame::Data(_) => KIND_DATA,
            Frame::End => KIND_END,
            Frame::Metrics => KIND_METRICS,
            Frame::Stream { .. } => KIND_STREAM,
            Frame::Accepted => KIND_ACCEPTED,
            Frame::Busy { .. } => KIND_BUSY,
            Frame::Stats { .. } => KIND_STATS,
            Frame::Error { .. } => KIND_ERROR,
            Frame::MetricsReply { .. } => KIND_METRICS_REPLY,
            Frame::Progress { .. } => KIND_PROGRESS,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Frame::Submit { tenant } | Frame::Stream { tenant } => {
                wire::put_string(&mut buf, tenant)
            }
            Frame::Data(bytes) => buf.extend_from_slice(bytes),
            Frame::End | Frame::Metrics | Frame::Accepted => {}
            Frame::Busy { reason } => wire::put_string(&mut buf, reason),
            Frame::Stats { cached, text } => {
                buf.push(u8::from(*cached));
                wire::put_string(&mut buf, text);
            }
            Frame::Error { class, message } => {
                buf.push(class.code());
                wire::put_string(&mut buf, message);
            }
            Frame::MetricsReply { text } => wire::put_string(&mut buf, text),
            Frame::Progress { events, bytes } => {
                wire::put_varint(&mut buf, *events);
                wire::put_varint(&mut buf, *bytes);
            }
        }
        buf
    }

    fn decode(kind: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
        let mut r = SliceReader::new(payload);
        let frame = match kind {
            KIND_SUBMIT => Frame::Submit {
                tenant: r.string("tenant").map_err(malformed)?,
            },
            KIND_DATA => return Ok(Frame::Data(payload.to_vec())),
            KIND_END => Frame::End,
            KIND_METRICS => Frame::Metrics,
            KIND_STREAM => Frame::Stream {
                tenant: r.string("tenant").map_err(malformed)?,
            },
            KIND_ACCEPTED => Frame::Accepted,
            KIND_BUSY => Frame::Busy {
                reason: r.string("reason").map_err(malformed)?,
            },
            KIND_STATS => Frame::Stats {
                cached: r.u8("cached").map_err(malformed)? != 0,
                text: r.string("stats").map_err(malformed)?,
            },
            KIND_ERROR => Frame::Error {
                class: ErrorClass::from_code(r.u8("class").map_err(malformed)?),
                message: r.string("message").map_err(malformed)?,
            },
            KIND_METRICS_REPLY => Frame::MetricsReply {
                text: r.string("metrics").map_err(malformed)?,
            },
            KIND_PROGRESS => Frame::Progress {
                events: r.varint("events").map_err(malformed)?,
                bytes: r.varint("bytes").map_err(malformed)?,
            },
            other => return Err(ProtoError::UnknownKind(other)),
        };
        if !r.is_empty() {
            return Err(ProtoError::Malformed(format!(
                "{} trailing bytes after frame payload",
                r.remaining()
            )));
        }
        Ok(frame)
    }
}

fn malformed(e: wire::WireError) -> ProtoError {
    ProtoError::Malformed(e.0)
}

/// Why a protocol exchange failed.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed (or timed out).
    Io(io::Error),
    /// The connection preamble did not start with the magic `\x89CGP`.
    BadMagic,
    /// The preamble carried a version this side does not speak.
    UnsupportedVersion(u16),
    /// The stream ended mid-frame (torn frame / mid-stream disconnect).
    Truncated(&'static str),
    /// The length prefix exceeds the 1 MiB payload cap.
    Oversized {
        /// The declared payload length.
        len: u64,
    },
    /// The payload CRC did not match.
    CrcMismatch,
    /// The frame kind byte is not part of the protocol.
    UnknownKind(u8),
    /// The payload did not decode as its kind's schema.
    Malformed(String),
    /// The peer sent a frame that is valid but not legal in this state
    /// (e.g. `DATA` before `SUBMIT`).
    Unexpected(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "protocol i/o: {e}"),
            ProtoError::BadMagic => write!(f, "not a cgtd connection (bad preamble magic)"),
            ProtoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (speaking {PROTO_VERSION})"
                )
            }
            ProtoError::Truncated(what) => write!(f, "stream ended mid-frame ({what})"),
            ProtoError::Oversized { len } => write!(
                f,
                "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
            ),
            ProtoError::CrcMismatch => write!(f, "frame payload failed its CRC"),
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtoError::Malformed(detail) => write!(f, "malformed frame payload: {detail}"),
            ProtoError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated("frame body")
        } else {
            ProtoError::Io(e)
        }
    }
}

/// Coarse failure classes carried in [`Frame::Error`] and counted by the
/// daemon's metrics.  Stable codes: clients and dashboards key on these,
/// not on message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// The client broke the frame protocol (torn frame, bad CRC, wrong
    /// state, oversized length prefix).
    Protocol,
    /// The uploaded `.cgt` stream was corrupt or truncated.
    Corrupt,
    /// The trace decoded but replay failed (bad handles, heap errors…).
    Replay,
    /// A [`crate::ResourceLimits`] budget tripped.
    Limit,
    /// The evaluation deadline passed (including stalled uploads).
    Deadline,
    /// The evaluation was cancelled by the operator.
    Cancelled,
    /// A parallel evaluation shard panicked or stalled.
    Shard,
    /// The server's own I/O failed (disk full, spool errors).
    Io,
    /// Anything else — a server-side bug if ever observed.
    Internal,
}

/// Every class, in metrics display order.
pub const ERROR_CLASSES: [ErrorClass; 9] = [
    ErrorClass::Protocol,
    ErrorClass::Corrupt,
    ErrorClass::Replay,
    ErrorClass::Limit,
    ErrorClass::Deadline,
    ErrorClass::Cancelled,
    ErrorClass::Shard,
    ErrorClass::Io,
    ErrorClass::Internal,
];

impl ErrorClass {
    /// The wire code.
    pub fn code(self) -> u8 {
        match self {
            ErrorClass::Protocol => 0,
            ErrorClass::Corrupt => 1,
            ErrorClass::Replay => 2,
            ErrorClass::Limit => 3,
            ErrorClass::Deadline => 4,
            ErrorClass::Cancelled => 5,
            ErrorClass::Shard => 6,
            ErrorClass::Io => 7,
            ErrorClass::Internal => 8,
        }
    }

    /// The inverse of [`ErrorClass::code`]; unknown codes decode as
    /// [`ErrorClass::Internal`] so old clients survive new classes.
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => ErrorClass::Protocol,
            1 => ErrorClass::Corrupt,
            2 => ErrorClass::Replay,
            3 => ErrorClass::Limit,
            4 => ErrorClass::Deadline,
            5 => ErrorClass::Cancelled,
            6 => ErrorClass::Shard,
            7 => ErrorClass::Io,
            _ => ErrorClass::Internal,
        }
    }

    /// Stable lowercase name (metrics keys, log lines).
    pub fn name(self) -> &'static str {
        match self {
            ErrorClass::Protocol => "protocol",
            ErrorClass::Corrupt => "corrupt",
            ErrorClass::Replay => "replay",
            ErrorClass::Limit => "limit",
            ErrorClass::Deadline => "deadline",
            ErrorClass::Cancelled => "cancelled",
            ErrorClass::Shard => "shard",
            ErrorClass::Io => "io",
            ErrorClass::Internal => "internal",
        }
    }

    /// The class an [`EvalError`] reports as.
    pub fn from_eval(e: &EvalError) -> Self {
        match e {
            EvalError::Trace(crate::TraceIoError::Io(_)) => ErrorClass::Io,
            EvalError::Trace(_) => ErrorClass::Corrupt,
            EvalError::Replay(_) => ErrorClass::Replay,
            EvalError::LimitExceeded { .. } => ErrorClass::Limit,
            EvalError::DeadlineExceeded { .. } => ErrorClass::Deadline,
            EvalError::Cancelled => ErrorClass::Cancelled,
            EvalError::ShardPanicked { .. } | EvalError::ShardStalled { .. } => ErrorClass::Shard,
        }
    }
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Writes the connection preamble (client side, once per connection).
///
/// # Errors
///
/// Propagates stream write failures.
pub fn write_preamble<W: Write>(w: &mut W) -> io::Result<()> {
    w.write_all(&PROTO_MAGIC)?;
    w.write_all(&PROTO_VERSION.to_le_bytes())
}

/// Reads and validates the connection preamble (server side).
///
/// # Errors
///
/// [`ProtoError::BadMagic`] / [`ProtoError::UnsupportedVersion`] on a
/// stranger's bytes, [`ProtoError::Truncated`] if the stream dies inside
/// the six preamble bytes.
pub fn read_preamble<R: Read>(r: &mut R) -> Result<(), ProtoError> {
    let mut magic = [0u8; 4];
    if !wire::read_exact_or_eof(r, &mut magic)? {
        return Err(ProtoError::Truncated("preamble"));
    }
    if magic != PROTO_MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let mut version = [0u8; 2];
    if !wire::read_exact_or_eof(r, &mut version)? {
        return Err(ProtoError::Truncated("preamble version"));
    }
    let version = u16::from_le_bytes(version);
    if version != PROTO_VERSION {
        return Err(ProtoError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Writes one frame: kind, length prefix, payload, payload CRC.
///
/// # Errors
///
/// Propagates stream write failures.
///
/// # Panics
///
/// Panics if the encoded payload exceeds the 1 MiB cap — callers split
/// [`Frame::Data`] at 256 KiB, far below it.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let payload = frame.payload();
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD,
        "frame payload of {} bytes exceeds the protocol cap",
        payload.len()
    );
    w.write_all(&[frame.kind()])?;
    wire::write_u32(w, payload.len() as u32)?;
    w.write_all(&payload)?;
    wire::write_u32(w, wire::crc32(&payload))
}

/// Reads one frame; `Ok(None)` means the stream ended cleanly *between*
/// frames.  The length prefix is validated against the 1 MiB payload cap
/// before the payload buffer is allocated.
///
/// # Errors
///
/// [`ProtoError::Truncated`] if the stream ends inside a frame, plus the
/// CRC / kind / schema errors described on [`ProtoError`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, ProtoError> {
    let mut kind = [0u8; 1];
    if !wire::read_exact_or_eof(r, &mut kind)? {
        return Ok(None);
    }
    let mut len = [0u8; 4];
    if !wire::read_exact_or_eof(r, &mut len)? {
        return Err(ProtoError::Truncated("length prefix"));
    }
    let len = u32::from_le_bytes(len) as u64;
    if len > MAX_FRAME_PAYLOAD as u64 {
        return Err(ProtoError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    if !wire::read_exact_or_eof(r, &mut payload)? {
        return Err(ProtoError::Truncated("payload"));
    }
    let mut crc = [0u8; 4];
    if !wire::read_exact_or_eof(r, &mut crc)? {
        return Err(ProtoError::Truncated("payload crc"));
    }
    if u32::from_le_bytes(crc) != wire::crc32(&payload) {
        return Err(ProtoError::CrcMismatch);
    }
    Frame::decode(kind[0], &payload).map(Some)
}

/// Server-side streaming session reader: presents the concatenated
/// [`Frame::Data`] payloads of one session as an [`io::Read`], until the
/// client's [`Frame::End`].
///
/// Memory is O(frame): one payload is buffered at a time.  While reading,
/// it folds a running CRC32 and FNV-1a 64 over the byte stream — together
/// with the length they form the content key the daemon memoizes results
/// under.  Any non-`DATA` frame before `END`, or a clean disconnect before
/// `END`, surfaces as an [`io::Error`] (wrapping the [`ProtoError`]), so a
/// `TraceReader` stacked on top reports it as a structured I/O failure.
#[derive(Debug)]
pub struct SessionReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    done: bool,
    bytes: u64,
    crc_state: u32,
    fnv_state: u64,
}

impl<R: Read> SessionReader<R> {
    /// Wraps a frame stream positioned just after the `SUBMIT` frame.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            pos: 0,
            done: false,
            bytes: 0,
            crc_state: 0xffff_ffff,
            fnv_state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Total `.cgt` bytes delivered so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }

    /// Whether the client's `END` frame has been consumed.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// CRC32 of all bytes delivered so far.
    pub fn crc32(&self) -> u32 {
        !self.crc_state
    }

    /// FNV-1a 64 of all bytes delivered so far.
    pub fn fnv64(&self) -> u64 {
        self.fnv_state
    }

    /// The wrapped stream (e.g. to keep talking on the socket after `END`).
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn fill(&mut self) -> io::Result<()> {
        loop {
            match read_frame(&mut self.inner) {
                Ok(Some(Frame::Data(bytes))) => {
                    self.bytes += bytes.len() as u64;
                    self.crc_state = wire::crc32_update(self.crc_state, &bytes);
                    for &b in &bytes {
                        self.fnv_state =
                            (self.fnv_state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                    self.buf = bytes;
                    self.pos = 0;
                    // Zero-length DATA frames are legal; keep pulling.
                    if !self.buf.is_empty() {
                        return Ok(());
                    }
                }
                Ok(Some(Frame::End)) => {
                    self.done = true;
                    return Ok(());
                }
                Ok(Some(_)) => {
                    return Err(proto_io_error(ProtoError::Unexpected(
                        "only DATA or END are legal inside a session body",
                    )))
                }
                Ok(None) => {
                    return Err(proto_io_error(ProtoError::Truncated(
                        "client disconnected before END",
                    )))
                }
                Err(e) => return Err(proto_io_error(e)),
            }
        }
    }
}

/// Wraps a [`ProtoError`] as an [`io::Error`] (recoverable downstream via
/// [`session_error`]).
fn proto_io_error(e: ProtoError) -> io::Error {
    match e {
        ProtoError::Io(inner) => inner,
        other => io::Error::new(io::ErrorKind::InvalidData, other),
    }
}

/// Recovers the [`ProtoError`] a [`SessionReader`] folded into an
/// [`io::Error`], if there is one (for error classification).
pub fn session_error(e: &io::Error) -> Option<&ProtoError> {
    e.get_ref().and_then(|inner| inner.downcast_ref())
}

impl<R: Read> Read for SessionReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.buf.len() {
            if self.done {
                return Ok(0);
            }
            self.fill()?;
            if self.done {
                return Ok(0);
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Streams a reader's bytes to `w` as `DATA` frames of at most 256 KiB
/// (one `.cgt` chunk), followed by `END` (the client half of a session
/// body).  Returns the byte count sent.
///
/// # Errors
///
/// Propagates read and write failures.
pub fn write_session_body<R: Read, W: Write>(r: &mut R, w: &mut W) -> io::Result<u64> {
    let mut chunk = vec![0u8; DATA_CHUNK_BYTES];
    let mut sent = 0u64;
    loop {
        let n = r.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        write_frame(w, &Frame::Data(chunk[..n].to_vec()))?;
        sent += n as u64;
    }
    write_frame(w, &Frame::End)?;
    w.flush()?;
    Ok(sent)
}

/// Why a client-side exchange with `cgtd` failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing failed.
    Proto(ProtoError),
    /// The server bounced the submission — back off and retry.
    Busy {
        /// The server's reason string.
        reason: String,
    },
    /// The server evaluated (or tried to) and reported a failure.
    Server {
        /// The failure class.
        class: ErrorClass,
        /// The server's message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Busy { reason } => write!(f, "server busy: {reason}"),
            ClientError::Server { class, message } => {
                write!(f, "server error [{class}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::from(e))
    }
}

/// A successful submission's response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// Whether the server answered from its memoized result cache.
    pub cached: bool,
    /// The plaintext stats body (`events N` + `cg.<counter> <value>` lines).
    pub text: String,
}

impl SubmitOutcome {
    /// The `cg.*` stats entries, parsed back into `(name, value)` pairs in
    /// response order — the shape of a footer section, for byte-for-byte
    /// comparison against a local `.cgt` footer.
    pub fn cg_entries(&self) -> Vec<(String, u64)> {
        self.text
            .lines()
            .filter_map(|line| {
                let rest = line.strip_prefix("cg.")?;
                let (name, value) = rest.split_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect()
    }

    /// The `events` line.
    pub fn events(&self) -> Option<u64> {
        self.text
            .lines()
            .next()?
            .strip_prefix("events ")?
            .parse()
            .ok()
    }
}

/// A client connection's buffered read and write halves.
type Connection = (io::BufReader<TcpStream>, io::BufWriter<TcpStream>);

/// Connects to a `cgtd` at `addr` and sends the preamble and the opening
/// frame.  `timeout` bounds each socket read/write.
fn open(
    addr: &str,
    opening: &Frame,
    timeout: Option<std::time::Duration>,
) -> Result<Connection, ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    stream.set_nodelay(true)?;
    let reader = io::BufReader::new(stream.try_clone().map_err(ProtoError::Io)?);
    let mut writer = io::BufWriter::new(stream);
    write_preamble(&mut writer)?;
    write_frame(&mut writer, opening)?;
    writer.flush().map_err(ProtoError::Io)?;
    Ok((reader, writer))
}

/// Opens a session (`SUBMIT` or `STREAM`) and waits for `ACCEPTED`.
fn open_session(
    addr: &str,
    opening: &Frame,
    timeout: Option<std::time::Duration>,
) -> Result<Connection, ClientError> {
    let (mut reader, writer) = open(addr, opening, timeout)?;
    match read_frame(&mut reader)? {
        Some(Frame::Accepted) => Ok((reader, writer)),
        Some(Frame::Busy { reason }) => Err(ClientError::Busy { reason }),
        Some(Frame::Error { class, message }) => Err(ClientError::Server { class, message }),
        Some(_) => Err(ProtoError::Unexpected("wanted ACCEPTED or BUSY").into()),
        None => Err(ProtoError::Truncated("server reply").into()),
    }
}

/// Reads a session's verdict, handing every `PROGRESS` frame before it to
/// `on_progress`.
fn read_verdict<R: Read>(
    reader: &mut R,
    mut on_progress: impl FnMut(StreamProgress),
) -> Result<SubmitOutcome, ClientError> {
    loop {
        match read_frame(reader)? {
            Some(Frame::Progress { events, bytes }) => {
                on_progress(StreamProgress { events, bytes });
            }
            Some(Frame::Stats { cached, text }) => return Ok(SubmitOutcome { cached, text }),
            Some(Frame::Error { class, message }) => {
                return Err(ClientError::Server { class, message })
            }
            Some(_) => return Err(ProtoError::Unexpected("wanted STATS or ERROR").into()),
            None => return Err(ProtoError::Truncated("server verdict").into()),
        }
    }
}

/// Submits a `.cgt` byte stream to a `cgtd` at `addr` under `tenant` and
/// waits for the verdict.  `timeout` bounds each socket read/write
/// (`None` = wait forever).
///
/// # Errors
///
/// [`ClientError::Busy`] when bounced by backpressure,
/// [`ClientError::Server`] when the evaluation failed, and
/// [`ClientError::Proto`] for transport/framing trouble.
pub fn submit_stream<R: Read>(
    addr: &str,
    tenant: &str,
    body: &mut R,
    timeout: Option<std::time::Duration>,
) -> Result<SubmitOutcome, ClientError> {
    let submit = Frame::Submit {
        tenant: tenant.to_string(),
    };
    let (mut reader, mut writer) = open_session(addr, &submit, timeout)?;
    write_session_body(body, &mut writer)?;
    read_verdict(&mut reader, |_| {})
}

/// [`submit_stream`] for a `.cgt` file on disk.
///
/// # Errors
///
/// As [`submit_stream`]; local open failures arrive as
/// [`ClientError::Proto`].
pub fn submit_path(
    addr: &str,
    tenant: &str,
    path: &std::path::Path,
    timeout: Option<std::time::Duration>,
) -> Result<SubmitOutcome, ClientError> {
    let mut file = std::fs::File::open(path).map_err(ProtoError::Io)?;
    submit_stream(addr, tenant, &mut file, timeout)
}

/// One [`Frame::Progress`] report from a live session, handed to the
/// [`stream_events`] progress callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamProgress {
    /// Events the server has evaluated so far.
    pub events: u64,
    /// `.cgt` bytes the server has consumed so far.
    pub bytes: u64,
}

/// Opens a *live* session: streams `body` to a `cgtd` at `addr` under
/// `tenant` while the server evaluates it incrementally, invoking
/// `on_progress` for every [`Frame::Progress`] the server interleaves,
/// and returns the final verdict.
///
/// The upload runs on a scoped writer thread so progress frames are
/// consumed while data is still in flight — a long-lived stream never
/// fills the server's send buffer.  If the server fails the session
/// mid-stream, the writer's broken pipe is discarded in favour of the
/// server's structured verdict.
///
/// # Errors
///
/// [`ClientError::Busy`] when bounced by backpressure,
/// [`ClientError::Server`] when the evaluation failed, and
/// [`ClientError::Proto`] for transport/framing trouble.
pub fn stream_events<R: Read + Send>(
    addr: &str,
    tenant: &str,
    body: &mut R,
    timeout: Option<std::time::Duration>,
    on_progress: impl FnMut(StreamProgress),
) -> Result<SubmitOutcome, ClientError> {
    let stream = Frame::Stream {
        tenant: tenant.to_string(),
    };
    let (mut reader, mut writer) = open_session(addr, &stream, timeout)?;
    std::thread::scope(|scope| {
        let upload = scope.spawn(move || write_session_body(body, &mut writer));
        let verdict = read_verdict(&mut reader, on_progress);
        // A server-side abort races the upload: the verdict frame wins and
        // the writer's broken pipe (if any) is noise.  Only surface the
        // upload failure when the server never answered at all.
        match (upload.join().expect("upload thread"), verdict) {
            (Err(e), Err(ClientError::Proto(_))) => Err(ClientError::Proto(ProtoError::from(e))),
            (_, verdict) => verdict,
        }
    })
}

/// Scrapes the plaintext metrics snapshot from a `cgtd` at `addr`.
///
/// # Errors
///
/// [`ClientError::Proto`] on transport/framing trouble.
pub fn fetch_metrics(
    addr: &str,
    timeout: Option<std::time::Duration>,
) -> Result<String, ClientError> {
    let (mut reader, _writer) = open(addr, &Frame::Metrics, timeout)?;
    match read_frame(&mut reader)? {
        Some(Frame::MetricsReply { text }) => Ok(text),
        Some(Frame::Error { class, message }) => Err(ClientError::Server { class, message }),
        Some(_) => Err(ProtoError::Unexpected("wanted METRICS_REPLY").into()),
        None => Err(ProtoError::Truncated("metrics reply").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut r = io::Cursor::new(buf);
        let back = read_frame(&mut r).unwrap().expect("one frame");
        assert_eq!(back, frame);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after");
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Submit {
            tenant: "acme".to_string(),
        });
        round_trip(Frame::Data(vec![1, 2, 3, 255]));
        round_trip(Frame::Data(Vec::new()));
        round_trip(Frame::End);
        round_trip(Frame::Metrics);
        round_trip(Frame::Accepted);
        round_trip(Frame::Busy {
            reason: "tenant queue full (4/4)".to_string(),
        });
        round_trip(Frame::Stats {
            cached: true,
            text: "events 12\ncg.objects_created 3\n".to_string(),
        });
        round_trip(Frame::Error {
            class: ErrorClass::Limit,
            message: "event budget exceeded".to_string(),
        });
        round_trip(Frame::MetricsReply {
            text: "cgtd.workers 4\n".to_string(),
        });
        round_trip(Frame::Stream {
            tenant: "live-tenant".to_string(),
        });
        round_trip(Frame::Progress {
            events: 1_234_567,
            bytes: u64::MAX >> 1,
        });
    }

    #[test]
    fn stream_and_submit_share_a_payload_schema_but_not_a_kind() {
        let mut submit = Vec::new();
        write_frame(
            &mut submit,
            &Frame::Submit {
                tenant: "t".to_string(),
            },
        )
        .unwrap();
        let mut stream = Vec::new();
        write_frame(
            &mut stream,
            &Frame::Stream {
                tenant: "t".to_string(),
            },
        )
        .unwrap();
        assert_eq!(submit[0], KIND_SUBMIT);
        assert_eq!(stream[0], KIND_STREAM);
        assert_eq!(submit[1..], stream[1..], "identical payload encoding");
    }

    #[test]
    fn preamble_round_trips_and_rejects_strangers() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        assert_eq!(buf.len(), 6);
        read_preamble(&mut io::Cursor::new(&buf)).unwrap();

        let http = b"GET / HTTP/1.1\r\n";
        assert!(matches!(
            read_preamble(&mut io::Cursor::new(&http[..])),
            Err(ProtoError::BadMagic)
        ));

        let mut wrong_version = buf.clone();
        wrong_version[4] = 0xff;
        assert!(matches!(
            read_preamble(&mut io::Cursor::new(&wrong_version)),
            Err(ProtoError::UnsupportedVersion(_))
        ));

        assert!(matches!(
            read_preamble(&mut io::Cursor::new(&buf[..3])),
            Err(ProtoError::Truncated(_))
        ));
    }

    #[test]
    fn flipped_bit_fails_crc() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Submit {
                tenant: "acme".to_string(),
            },
        )
        .unwrap();
        // Flip one payload bit (past kind + length prefix).
        buf[6] ^= 0x40;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&buf)),
            Err(ProtoError::CrcMismatch)
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = vec![KIND_DATA];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&buf)),
            Err(ProtoError::Oversized { len }) if len == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn torn_frame_reports_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Data(vec![7; 100])).unwrap();
        for cut in [1, 3, 5, 50, buf.len() - 1] {
            assert!(
                matches!(
                    read_frame(&mut io::Cursor::new(&buf[..cut])),
                    Err(ProtoError::Truncated(_))
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let mut buf = vec![0x7f];
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&wire::crc32(b"").to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&buf)),
            Err(ProtoError::UnknownKind(0x7f))
        ));
    }

    #[test]
    fn session_reader_reassembles_and_hashes_the_stream() {
        let body: Vec<u8> = (0u32..10_000).map(|i| (i % 251) as u8).collect();
        let mut framed = Vec::new();
        write_session_body(&mut io::Cursor::new(&body), &mut framed).unwrap();
        // Also prove frames can be split small: re-frame at 7-byte chunks.
        let mut tiny = Vec::new();
        for chunk in body.chunks(7) {
            write_frame(&mut tiny, &Frame::Data(chunk.to_vec())).unwrap();
        }
        write_frame(&mut tiny, &Frame::End).unwrap();

        for stream in [framed, tiny] {
            let mut reader = SessionReader::new(io::Cursor::new(stream));
            let mut out = Vec::new();
            reader.read_to_end(&mut out).unwrap();
            assert_eq!(out, body);
            assert!(reader.finished());
            assert_eq!(reader.bytes_read(), body.len() as u64);
            assert_eq!(reader.crc32(), wire::crc32(&body));
        }
    }

    #[test]
    fn session_reader_surfaces_disconnect_before_end() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &Frame::Data(vec![1, 2, 3])).unwrap();
        // No END: the "client" vanished.
        let mut reader = SessionReader::new(io::Cursor::new(framed));
        let mut out = Vec::new();
        let err = reader.read_to_end(&mut out).unwrap_err();
        assert!(matches!(
            session_error(&err),
            Some(ProtoError::Truncated(_))
        ));
    }

    #[test]
    fn session_reader_rejects_frames_outside_the_body() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &Frame::Metrics).unwrap();
        let mut reader = SessionReader::new(io::Cursor::new(framed));
        let mut out = Vec::new();
        let err = reader.read_to_end(&mut out).unwrap_err();
        assert!(matches!(
            session_error(&err),
            Some(ProtoError::Unexpected(_))
        ));
    }

    #[test]
    fn submit_outcome_parses_stats_text() {
        let outcome = SubmitOutcome {
            cached: false,
            text: "events 42\ncg.objects_created 7\ncg.collections 2\n".to_string(),
        };
        assert_eq!(outcome.events(), Some(42));
        assert_eq!(
            outcome.cg_entries(),
            vec![
                ("objects_created".to_string(), 7),
                ("collections".to_string(), 2),
            ]
        );
    }

    #[test]
    fn error_class_codes_round_trip() {
        for class in ERROR_CLASSES {
            assert_eq!(ErrorClass::from_code(class.code()), class);
        }
        assert_eq!(ErrorClass::from_code(200), ErrorClass::Internal);
    }
}
