//! One session's evaluation.  Every route reads the session body through
//! one guarded reader that checks the upload cap, the governor's deadline
//! and cancellation on every read, so a client that drips bytes gets its
//! worker slot back within the deadline plus one idle timeout.
//!
//! **Single-shard sessions are evaluated as the bytes arrive**, decoded
//! event by event (one chunk held at a time) into the library's one replay
//! loop, [`replay_events_governed`].  A live `STREAM`
//! ([`evaluate_stream_session`]) reports `PROGRESS` on the way; an upload
//! ([`evaluate_session`]) takes the same route whenever no feature needs
//! the whole file — memoization off and a serving-shard grant of 1.
//!
//! **The spool**, a temporary copy of the upload under
//! `<cache_dir>/uploads/`, stays for the two features that do.  The
//! memoized result cache keys entries by content — `(length, CRC32, FNV-1a
//! 64)` of the full uploaded byte stream, known only at the last byte — so
//! a repeated upload is answered without replaying an event, and a trace
//! that differs anywhere cannot collide into a wrong answer short of a
//! simultaneous 96-bit hash collision.  Entries publish atomically (see
//! [`crate::spool`]).  The **sharded** route (a `shards` budget ≥ 2 and an
//! upload over [`EvalConfig::shard_min_bytes`]) decodes the spool once, on
//! the worker thread, and routes each event by recording thread to one OS
//! thread per shard through bounded in-memory queues
//! ([`parallel_eval_routed_governed`]); nothing but the spool touches the
//! disk.  It is sound because contaminated GC's per-thread frame/block
//! locality (§3.3) keeps shard state independent up to explicit
//! cross-shard waits, and byte-identical to the single-shard replay.  A
//! stream that is corrupt, over its event budget, past its deadline or
//! cancelled fails with the single-shard route's error class; shard
//! failures surface as [`SessionError::Shards`] with the completed shards'
//! partial statistics in the error message.

use std::cell::RefCell;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::spool::{sweep_stale_tmps, unique_tmp_path, TMP_SWEEP_TTL};
use cg_trace::footer::{canonical_collector, canonical_config, cg_section};
use cg_trace::proto::{session_error, ErrorClass, ProtoError, SessionReader};
use cg_trace::{
    open_trace, parallel_eval_routed_governed, replay_events_governed, EvalError, FooterSection,
    Governor, ParallelError, ResourceLimits, TraceIoError, TraceReader,
};

/// Most shard threads one session may occupy, regardless of the tenant's
/// `shards` budget — the serving-side sanity clamp (the bench harness has
/// no such clamp; a daemon sharing a machine does).
const MAX_SERVING_SHARDS: usize = 16;

/// A live stream reports `PROGRESS` every this many events (plus once
/// right after the header parses, so every watcher sees at least one).
const PROGRESS_EVERY_EVENTS: u64 = 4096;

/// How a session's evaluation is configured (shared by all workers).
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Root directory for spools and memoized results.
    pub cache_dir: PathBuf,
    /// Whether to memoize results (on by default; off forces re-replay).
    pub memoize: bool,
    /// Hard cap on the uploaded byte stream.
    pub max_upload_bytes: u64,
    /// Smallest upload a sharding grant applies to; below it the
    /// single-shard path runs.  Routing to 2 shards on a 2-core machine
    /// (the `serving_shards` bench's golden-corpus table) lost to
    /// single-shard on 4 of the 8 goldens, the largest (1.2 MiB) among
    /// them, and won by at most 1.17x on the others: no golden is large
    /// enough to pay reliably, so the default stays 4 MiB.
    pub shard_min_bytes: u64,
}

/// Shard threads one session may use under `limits`: the tenant's
/// `shards` budget clamped to 16 (`MAX_SERVING_SHARDS`), never zero.  The
/// budget is honored even on machines with fewer cores — byte-identity
/// holds at any shard count and an explicit grant should behave the same
/// everywhere; the speedup (not the answer) is what scales with cores.
/// The scheduler charges this many worker-equivalent slots at admission
/// (see [`crate::scheduler`]).
pub fn serving_shards(limits: &ResourceLimits) -> usize {
    let budget = limits.max_shards.unwrap_or(u64::MAX);
    budget.min(MAX_SERVING_SHARDS as u64).max(1) as usize
}

impl EvalConfig {
    /// Creates the spool/result directories and sweeps expired tmps left
    /// by evaluators that died mid-publish.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn prepare(&self) -> io::Result<()> {
        for sub in ["uploads", "results"] {
            let dir = self.cache_dir.join(sub);
            std::fs::create_dir_all(&dir)?;
            sweep_stale_tmps(&dir, TMP_SWEEP_TTL);
        }
        Ok(())
    }

    fn result_path(&self, len: u64, crc: u32, fnv: u64) -> PathBuf {
        self.cache_dir
            .join("results")
            .join(format!("{len:x}-{crc:08x}-{fnv:016x}.stats"))
    }
}

/// A successful evaluation, ready to frame as `STATS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionResult {
    /// The plaintext stats body: `events N` then `cg.<counter> <value>`
    /// lines in the canonical footer-section order.
    pub text: String,
    /// Whether it came from the memoized result cache.
    pub cached: bool,
    /// Events replayed (from the `events` line; the recorded count when
    /// answered from cache).
    pub events: u64,
    /// Shard threads the evaluation used (1 for the single-shard path,
    /// live streams and cache hits).
    pub shards: usize,
}

/// Why a session failed, with enough structure to pick the wire
/// [`ErrorClass`] and a metrics bucket.
#[derive(Debug)]
pub enum SessionError {
    /// The client broke the frame protocol mid-body.
    Proto(ProtoError),
    /// The client stopped sending bytes (socket idle timeout).
    Stalled,
    /// The upload exceeded the configured byte cap.
    UploadTooLarge {
        /// The configured cap.
        limit: u64,
    },
    /// The server's own disk I/O failed.
    Io(io::Error),
    /// The governed replay rejected or aborted the trace.
    Eval(EvalError),
    /// One or more shards of a parallel evaluation failed; the completed
    /// shards' partial statistics travel in the error message.
    Shards(ParallelError),
}

impl SessionError {
    /// The wire error class this failure reports as.
    pub fn class(&self) -> ErrorClass {
        match self {
            SessionError::Proto(_) => ErrorClass::Protocol,
            SessionError::Stalled => ErrorClass::Deadline,
            SessionError::UploadTooLarge { .. } => ErrorClass::Limit,
            SessionError::Io(_) => ErrorClass::Io,
            SessionError::Eval(e) => ErrorClass::from_eval(e),
            SessionError::Shards(e) => ErrorClass::from_eval(e.primary()),
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Proto(e) => write!(f, "{e}"),
            SessionError::Stalled => write!(f, "session stalled: no bytes within the idle timeout"),
            SessionError::UploadTooLarge { limit } => {
                write!(f, "upload exceeds the {limit}-byte cap")
            }
            SessionError::Io(e) => write!(f, "server i/o: {e}"),
            SessionError::Eval(e) => write!(f, "{e}"),
            SessionError::Shards(e) => {
                write!(f, "{e}")?;
                if let Some(p) = e.partial() {
                    write!(
                        f,
                        "; partial stats: events={} live_at_exit={} freed_objects={}",
                        p.events_replayed, p.live_at_exit, p.collector_freed_objects
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Classifies a [`SessionReader`] read failure: a wrapped [`ProtoError`]
/// is a protocol violation, a timeout is a stalled client, anything else
/// is transport I/O (mid-stream disconnects arrive as `Truncated`).
fn classify_read(e: io::Error) -> SessionError {
    if matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    ) {
        return SessionError::Stalled;
    }
    match session_error(&e) {
        Some(_) => {
            // Take the ProtoError back out of the io::Error wrapper.
            let inner = e
                .into_inner()
                .expect("session_error saw an inner error")
                .downcast::<ProtoError>()
                .expect("session_error checked the type");
            SessionError::Proto(*inner)
        }
        None => SessionError::Proto(ProtoError::Io(e)),
    }
}

/// A session body as every route reads it.  Each read first checks the
/// governor's deadline and cancellation, and then the upload cap once the
/// bytes are in.  Reads go through `&Body`, so the evaluator can still
/// ask for [`Body::bytes_read`] while the trace reader consumes the body.
/// The first failed read is kept for [`Body::failure`], and every later
/// read fails too.
struct Body<'a, R: Read> {
    reader: RefCell<&'a mut SessionReader<R>>,
    governor: &'a Governor,
    cap: u64,
    stopped: RefCell<Option<SessionError>>,
}

impl<'a, R: Read> Body<'a, R> {
    fn new(reader: &'a mut SessionReader<R>, governor: &'a Governor, config: &EvalConfig) -> Self {
        Self {
            reader: RefCell::new(reader),
            governor,
            cap: config.max_upload_bytes,
            stopped: RefCell::new(None),
        }
    }

    fn bytes_read(&self) -> u64 {
        self.reader.borrow().bytes_read()
    }

    /// The memo cache's content key of the bytes read so far.
    fn content_key(&self) -> (u64, u32, u64) {
        let reader = self.reader.borrow();
        (reader.bytes_read(), reader.crc32(), reader.fnv64())
    }

    fn read_checked(&self, buf: &mut [u8]) -> Result<usize, SessionError> {
        self.governor.check_deadline().map_err(SessionError::Eval)?;
        self.governor
            .check_cancelled()
            .map_err(SessionError::Eval)?;
        let mut reader = self.reader.borrow_mut();
        let n = reader.read(buf).map_err(classify_read)?;
        if reader.bytes_read() > self.cap {
            return Err(SessionError::UploadTooLarge { limit: self.cap });
        }
        Ok(n)
    }

    /// What a session reports for an I/O error `e` met while reading the
    /// body: the failure the body kept, or the client's transport for an
    /// error no read produced (a `PROGRESS` write, a record cut off by
    /// `END`).
    fn failure(&self, e: io::Error) -> SessionError {
        self.stopped.take().unwrap_or_else(|| classify_read(e))
    }

    /// What an upload whose evaluation failed with `e` reports.  The rest
    /// of the body is read first, as the spool would have read it: a
    /// transport failure on the way is the verdict, and a client that is
    /// still writing gets to read its `ERROR` instead of a reset.
    fn failure_after_end(&self, e: EvalError) -> SessionError {
        if !self.reader.borrow().finished() {
            let _ = io::copy(&mut &*self, &mut io::sink());
        }
        self.stopped.take().unwrap_or(SessionError::Eval(e))
    }
}

impl<R: Read> Read for &Body<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut stopped = self.stopped.borrow_mut();
        if stopped.is_none() {
            match self.read_checked(buf) {
                Ok(n) => return Ok(n),
                Err(e) => *stopped = Some(e),
            }
        }
        Err(io::Error::other("the session body failed"))
    }
}

/// Runs one upload's body to a verdict.  When memoization is off and the
/// tenant's serving-shard grant is 1, nothing needs the whole file, so
/// the body is evaluated as it arrives — [`evaluate_stream_session`]'s
/// evaluator without the `PROGRESS` frames.  Otherwise it is spooled,
/// looked up in the memo cache, and evaluated from the spool, single-shard
/// or sharded.  Either way the verdict follows `END`.
///
/// The governor's deadline covers the whole session — a client that
/// uploads slowly eats into its own evaluation budget, and every read of
/// the body checks it, so a worker slot is always reclaimed within the
/// deadline plus one idle timeout.
///
/// # Errors
///
/// A [`SessionError`]; the worker frames it as an `ERROR` response.
pub fn evaluate_session<R: Read>(
    body: &mut SessionReader<R>,
    governor: &Governor,
    config: &EvalConfig,
) -> Result<SessionResult, SessionError> {
    let body = Body::new(body, governor, config);
    if !config.memoize && serving_shards(governor.limits()) == 1 {
        return eval_single(&body, governor, |_| Ok(())).map_err(|e| body.failure_after_end(e));
    }
    let uploads = config.cache_dir.join("uploads");
    std::fs::create_dir_all(&uploads).map_err(SessionError::Io)?;
    let spool_path = unique_tmp_path(&uploads.join("session.cgt"));
    let result = spool_and_eval(&body, governor, config, &spool_path);
    let _ = std::fs::remove_file(&spool_path);
    result
}

/// Runs one live `STREAM` session: the body is evaluated as it arrives,
/// like an upload that needs no spool, except that a failure is answered at
/// once.  `progress` is called with `(events, bytes)` once after the
/// header parses and then every 4096 events (`PROGRESS_EVERY_EVENTS`) — the
/// worker turns each call into a `PROGRESS` frame; a callback error means
/// the client stopped draining and ends the session.  Live streams bypass
/// the memoized result cache, whose key is known only at the last byte.
///
/// # Errors
///
/// A [`SessionError`]; the worker frames it as an `ERROR` response.
pub fn evaluate_stream_session<R: Read>(
    mut reader: SessionReader<R>,
    governor: &Governor,
    config: &EvalConfig,
    mut progress: impl FnMut(u64, u64) -> io::Result<()>,
) -> Result<SessionResult, SessionError> {
    let body = Body::new(&mut reader, governor, config);
    eval_single(&body, governor, |events| {
        progress(events, body.bytes_read())
    })
    .map_err(|e| match e {
        EvalError::Trace(TraceIoError::Io(io)) => body.failure(io),
        e => SessionError::Eval(e),
    })
}

fn spool_and_eval<R: Read>(
    body: &Body<'_, R>,
    governor: &Governor,
    config: &EvalConfig,
    spool_path: &Path,
) -> Result<SessionResult, SessionError> {
    // Spool the framed byte stream to disk: memory stays at one frame
    // plus this copy buffer regardless of trace size.
    let spool = File::create(spool_path).map_err(SessionError::Io)?;
    let mut spool = BufWriter::new(spool);
    let mut buf = vec![0u8; 64 * 1024];
    let mut source = body;
    loop {
        let n = source.read(&mut buf).map_err(|e| body.failure(e))?;
        if n == 0 {
            break;
        }
        spool.write_all(&buf[..n]).map_err(SessionError::Io)?;
    }
    spool
        .into_inner()
        .map_err(|e| SessionError::Io(e.into_error()))?;

    // Memoization: same bytes, same answer — skip the replay entirely.
    let (len, crc, fnv) = body.content_key();
    let result_path = config.result_path(len, crc, fnv);
    if config.memoize {
        if let Some(hit) = load_result(&result_path) {
            return Ok(hit);
        }
    }

    // Route: the sharded path when the tenant's budget allows it and the
    // upload is large enough to pay for the partition pass.
    let shards = if len >= config.shard_min_bytes {
        serving_shards(governor.limits())
    } else {
        1
    };
    let result = if shards >= 2 {
        eval_sharded(spool_path, shards, governor)?
    } else {
        let spool = File::open(spool_path).map_err(SessionError::Io)?;
        eval_single(BufReader::new(spool), governor, |_| Ok(())).map_err(SessionError::Eval)?
    };
    if config.memoize {
        store_result(&result_path, &result.text);
    }
    Ok(result)
}

/// A fresh answer: the canonical stats body — `events N` then the
/// footer-section entries.
fn answer(events: u64, section: &FooterSection, shards: usize) -> SessionResult {
    let mut text = format!("events {events}\n");
    for (name, value) in &section.entries {
        text.push_str(&format!("cg.{name} {value}\n"));
    }
    SessionResult {
        text,
        cached: false,
        events,
        shards,
    }
}

/// Checks `reader`'s header before any event is evaluated: it must carry
/// a heap configuration, and its declared event count (if any) must fit
/// the budget.
fn check_header<R: Read>(reader: &TraceReader<R>, governor: &Governor) -> Result<(), EvalError> {
    if reader.meta().heap.is_none() {
        return Err(TraceIoError::Malformed {
            chunk: None,
            detail: "trace header carries no heap configuration".to_string(),
        }
        .into());
    }
    if let Some(declared) = reader.meta().declared_events {
        governor.validate_declared_events(declared)?;
    }
    Ok(())
}

/// The single-shard evaluator every route but the sharded one runs, and
/// the byte-identity reference for that one: decodes `source` event by
/// event into the library's replay loop.  `progress` is called with the
/// events replayed so far once after the header, then after every
/// `PROGRESS_EVERY_EVENTS` events, each time after that event's governor
/// checkpoint.
fn eval_single<S: Read>(
    source: S,
    governor: &Governor,
    mut progress: impl FnMut(u64) -> io::Result<()>,
) -> Result<SessionResult, EvalError> {
    let mut reader = TraceReader::new(source)?;
    check_header(&reader, governor)?;
    let heap = reader.meta().heap.expect("checked");
    let mut yielded = 0u64;
    let events = std::iter::from_fn(|| {
        if yielded.is_multiple_of(PROGRESS_EVERY_EVENTS) {
            if let Err(e) = progress(yielded) {
                return Some(Err(e.into()));
            }
        }
        yielded += 1;
        reader.next_event().transpose()
    });
    let replayed = replay_events_governed(events, heap, canonical_collector(), governor)?;
    let mut collector = replayed.collector;
    let breakdown = collector.breakdown();
    let section = cg_section(collector.stats(), &breakdown);
    Ok(answer(replayed.outcome.events_replayed as u64, &section, 1))
}

/// The sharded path: this thread decodes the spool and routes its events
/// in memory to one OS thread per shard
/// ([`parallel_eval_routed_governed`]), which aggregate.  Identical output
/// to [`eval_single`] by the shard-equivalence invariant, and the same
/// error class for a stream that is corrupt, over budget, past its
/// deadline or cancelled.
fn eval_sharded(
    spool_path: &Path,
    shards: usize,
    governor: &Governor,
) -> Result<SessionResult, SessionError> {
    let mut reader = open_trace(spool_path).map_err(|e| SessionError::Eval(e.into()))?;
    check_header(&reader, governor).map_err(SessionError::Eval)?;
    let heap = reader.meta().heap.expect("checked");
    let outcome =
        parallel_eval_routed_governed(reader.events(), shards, heap, canonical_config(), governor)
            .map_err(|e| match e {
                ParallelError::Rejected(e) | ParallelError::Stream(e) => SessionError::Eval(e),
                failed @ ParallelError::Shards { .. } => SessionError::Shards(failed),
            })?;
    let section = cg_section(&outcome.stats, &outcome.breakdown);
    Ok(answer(outcome.events_replayed as u64, &section, shards))
}

/// Loads a memoized result; `None` on absence or any damage (a damaged
/// entry just costs a re-replay).
fn load_result(path: &Path) -> Option<SessionResult> {
    let text = std::fs::read_to_string(path).ok()?;
    let events = text
        .lines()
        .next()?
        .strip_prefix("events ")?
        .parse::<u64>()
        .ok()?;
    if !text.lines().skip(1).all(|l| l.starts_with("cg.")) || text.lines().count() < 2 {
        return None;
    }
    Some(SessionResult {
        text,
        cached: true,
        events,
        shards: 1,
    })
}

/// Publishes a result atomically (tmp sibling + rename).  Best-effort: a
/// failure here only loses the memoization, never the response.
fn store_result(path: &Path, text: &str) {
    let tmp = unique_tmp_path(path);
    let publish = || -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    if publish().is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_trace::proto::{write_session_body, Frame};
    use cg_trace::ResourceLimits;

    fn test_config(tag: &str) -> EvalConfig {
        let dir = std::env::temp_dir().join(format!("cgtd-eval-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EvalConfig {
            cache_dir: dir,
            memoize: true,
            max_upload_bytes: 64 << 20,
            shard_min_bytes: 4 << 20,
        };
        config.prepare().expect("prepare");
        config
    }

    /// A tiny but real `.cgt` stream: jess at size 1, recorded once per
    /// test process.
    fn small_trace_bytes() -> Vec<u8> {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES
            .get_or_init(|| {
                let workload = cg_workloads::Workload::by_name("jess").expect("jess exists");
                let config =
                    cg_vm::VmConfig::default().with_heap(cg_trace::footer::canonical_heap());
                let (.., bytes) = cg_trace::record_streaming(
                    &cg_trace::TraceMeta::default(),
                    workload.program(cg_workloads::Size::S1),
                    config,
                    cg_vm::NoopCollector::new(),
                    Vec::new(),
                )
                .expect("record");
                bytes
            })
            .clone()
    }

    fn frame_body(bytes: &[u8]) -> Vec<u8> {
        let mut framed = Vec::new();
        write_session_body(&mut io::Cursor::new(bytes), &mut framed).expect("frame");
        framed
    }

    #[test]
    fn evaluates_then_memoizes_byte_identically() {
        let config = test_config("memo");
        let governor = Governor::new(ResourceLimits::untrusted());
        let bytes = small_trace_bytes();

        let mut first = SessionReader::new(io::Cursor::new(frame_body(&bytes)));
        let a = evaluate_session(&mut first, &governor, &config).expect("first eval");
        assert!(!a.cached);
        assert!(a.events > 0);
        assert!(a.text.starts_with("events "));
        assert!(a.text.contains("cg.objects_created"), "{}", a.text);

        let mut second = SessionReader::new(io::Cursor::new(frame_body(&bytes)));
        let b = evaluate_session(&mut second, &governor, &config).expect("second eval");
        assert!(b.cached, "repeat upload answered from cache");
        assert_eq!(a.text, b.text, "cached answer is byte-identical");

        // No spool leftovers.
        let leftovers = std::fs::read_dir(config.cache_dir.join("uploads"))
            .expect("uploads dir")
            .count();
        assert_eq!(leftovers, 0, "spools are always reclaimed");
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    /// Evaluates `framed` as an upload under `spec` plus a serving-shard
    /// grant, on every upload route: spooled (single-shard, memoizing),
    /// direct (single-shard, no memoization, evaluated as it arrives) and
    /// sharded (a 2-shard grant, routed from the spool).
    fn upload_routes(
        config: &EvalConfig,
        spec: &str,
        framed: &[u8],
    ) -> [(&'static str, Result<SessionResult, SessionError>); 3] {
        [
            ("spooled", 1, true),
            ("direct", 1, false),
            ("sharded", 2, false),
        ]
        .map(|(route, shards, memoize)| {
            let spec = if spec.is_empty() {
                format!("shards={shards}")
            } else {
                format!("{spec},shards={shards}")
            };
            let governor = Governor::new(ResourceLimits::parse(&spec).expect("spec"));
            let config = EvalConfig {
                memoize,
                shard_min_bytes: 0,
                ..config.clone()
            };
            let mut body = SessionReader::new(io::Cursor::new(framed));
            let result = evaluate_session(&mut body, &governor, &config);
            if let Ok(answer) = &result {
                assert_eq!(answer.shards, shards, "{route}");
            }
            (route, result)
        })
    }

    /// The small trace re-chunked to 16 raw events a chunk, with its last
    /// event chunk cut out: every CRC still holds, but the footer's census
    /// counts events the stream no longer has.
    fn dropped_chunk_bytes() -> Vec<u8> {
        let bytes = small_trace_bytes();
        let mut reader = TraceReader::new(&bytes[..]).expect("header");
        let mut writer = cg_trace::TraceWriter::with_chunk_events(Vec::new(), reader.meta(), 16)
            .expect("header");
        writer.set_compression(false);
        for event in reader.events() {
            writer.push(&event.expect("decode")).expect("push");
        }
        let (bytes, _) = writer.finish().expect("finish");
        // Walk the framing: magic and version, the length-prefixed header
        // and its CRC, then chunks of kind, event count, raw and stored
        // lengths, codec, payload and CRC.
        let varint = |at: &mut usize| {
            let (mut value, mut shift) = (0, 0);
            loop {
                let byte = bytes[*at];
                *at += 1;
                value |= usize::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    return value;
                }
                shift += 7;
            }
        };
        let mut at = 6;
        at += varint(&mut at) + 4;
        let mut chunks = Vec::new();
        while at < bytes.len() {
            let start = at;
            at += 1;
            varint(&mut at);
            varint(&mut at);
            at += varint(&mut at) + 1 + 4;
            chunks.push(start..at);
        }
        let last_events = chunks[chunks.len() - 2].clone();
        [&bytes[..last_events.start], &bytes[last_events.end..]].concat()
    }

    #[test]
    fn corrupt_stream_reports_corrupt_class() {
        let config = test_config("corrupt");
        let governor = Governor::new(ResourceLimits::untrusted());
        let mut bytes = small_trace_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        let mut body = SessionReader::new(io::Cursor::new(frame_body(&bytes)));
        let err = evaluate_session(&mut body, &governor, &config).expect_err("corrupt");
        assert_eq!(err.class(), ErrorClass::Corrupt, "{err}");
        for bytes in [bytes, dropped_chunk_bytes()] {
            for (route, result) in upload_routes(&config, "", &frame_body(&bytes)) {
                let err = result.expect_err(route);
                assert_eq!(err.class(), ErrorClass::Corrupt, "{route}: {err}");
            }
        }
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    #[test]
    fn event_budget_trips_limit_class() {
        let config = test_config("limit");
        let governor = Governor::new(ResourceLimits::parse("events=10").expect("spec"));
        let bytes = small_trace_bytes();
        let mut body = SessionReader::new(io::Cursor::new(frame_body(&bytes)));
        let err = evaluate_session(&mut body, &governor, &config).expect_err("limited");
        assert_eq!(err.class(), ErrorClass::Limit, "{err}");
        for (route, result) in upload_routes(&config, "events=10", &frame_body(&bytes)) {
            let err = result.expect_err(route);
            assert_eq!(err.class(), ErrorClass::Limit, "{route}: {err}");
        }
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    #[test]
    fn upload_cap_trips_before_disk_fills() {
        let config = EvalConfig {
            max_upload_bytes: 1024,
            ..test_config("cap")
        };
        let governor = Governor::new(ResourceLimits::untrusted());
        let mut framed = Vec::new();
        for _ in 0..10 {
            cg_trace::proto::write_frame(&mut framed, &Frame::Data(vec![0u8; 512])).unwrap();
        }
        cg_trace::proto::write_frame(&mut framed, &Frame::End).unwrap();
        let mut body = SessionReader::new(io::Cursor::new(framed.clone()));
        let err = evaluate_session(&mut body, &governor, &config).expect_err("capped");
        assert_eq!(err.class(), ErrorClass::Limit, "{err}");
        // The direct route fails on the bad magic first, then reads on to
        // END before answering, and the cap is what it meets on the way.
        for (route, result) in upload_routes(&config, "", &framed) {
            let err = result.expect_err(route);
            assert_eq!(err.class(), ErrorClass::Limit, "{route}: {err}");
        }
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    /// Every route answers byte-identically: the spooled upload (the
    /// reference, memoizing into an empty cache), the direct upload, the
    /// sharded upload and the live stream.
    #[test]
    fn sharded_and_streamed_answers_match_single_shard_byte_for_byte() {
        let config = test_config("identity");
        let bytes = small_trace_bytes();
        let single_shard = Governor::new(ResourceLimits::parse("shards=1").expect("spec"));

        let mut body = SessionReader::new(io::Cursor::new(frame_body(&bytes)));
        let reference = evaluate_session(&mut body, &single_shard, &config).expect("spooled");
        assert!(!reference.cached, "the cache starts empty");
        assert_eq!(reference.shards, 1, "small upload stays single-shard");

        // Direct: nothing needs the whole file, so no spool.
        let direct_config = EvalConfig {
            memoize: false,
            ..config.clone()
        };
        let mut body = SessionReader::new(io::Cursor::new(frame_body(&bytes)));
        let direct = evaluate_session(&mut body, &single_shard, &direct_config).expect("direct");

        // Sharded: force the route with a zero size floor and a 4-shard
        // budget.
        let sharded_config = EvalConfig {
            shard_min_bytes: 0,
            ..direct_config.clone()
        };
        let governor = Governor::new(ResourceLimits::parse("shards=4").expect("spec"));
        let mut body = SessionReader::new(io::Cursor::new(frame_body(&bytes)));
        let sharded = evaluate_session(&mut body, &governor, &sharded_config).expect("sharded");
        assert_eq!(sharded.shards, 4, "the sharded route honors the budget");
        let uploads = std::fs::read_dir(config.cache_dir.join("uploads"))
            .expect("uploads dir")
            .count();
        assert_eq!(
            uploads, 0,
            "the sharded route leaves no spool or shard file"
        );

        // Streamed: same bytes through the live evaluator.
        let governor = Governor::new(ResourceLimits::untrusted());
        let body = SessionReader::new(io::Cursor::new(frame_body(&bytes)));
        let mut frames = 0u32;
        let mut last = (0u64, 0u64);
        let streamed = evaluate_stream_session(body, &governor, &config, |events, bytes| {
            frames += 1;
            assert!(
                (events, bytes) >= last,
                "progress is monotonic: {last:?} then ({events}, {bytes})"
            );
            last = (events, bytes);
            Ok(())
        })
        .expect("streamed");
        assert!(frames >= 1, "at least the post-header progress frame fires");

        for (route, answer) in [
            ("direct", &direct),
            ("sharded", &sharded),
            ("streamed", &streamed),
        ] {
            assert_eq!(
                answer.text, reference.text,
                "{route} answer is byte-identical"
            );
            assert_eq!(answer.events, reference.events, "{route}");
            assert!(!answer.cached, "{route} bypasses the result cache");
        }
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    /// A single-shard upload with memoization off is evaluated from the
    /// socket: with `uploads/` replaced by a regular file no spool can be
    /// created, yet it answers, while a memoizing config or a sharded grant
    /// (which must spool) fails with `Io`.
    #[test]
    fn direct_uploads_never_touch_the_disk() {
        let config = test_config("no-disk");
        let uploads = config.cache_dir.join("uploads");
        std::fs::remove_dir_all(&uploads).expect("remove uploads/");
        std::fs::write(&uploads, b"not a directory").expect("plant a file");
        let framed = frame_body(&small_trace_bytes());

        let [(_, spooled), (_, direct), (_, sharded)] = upload_routes(&config, "", &framed);
        let direct = direct.expect("the direct route needs no spool");
        assert!(direct.events > 0);
        assert!(
            direct.text.contains("cg.objects_created"),
            "{}",
            direct.text
        );
        for spooling in [spooled, sharded] {
            let err = spooling.expect_err("the spool cannot be created");
            assert_eq!(err.class(), ErrorClass::Io, "{err}");
        }
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    #[test]
    fn stream_exceeding_event_budget_trips_limit_mid_flight() {
        let config = test_config("stream-limit");
        let governor = Governor::new(ResourceLimits::parse("events=10").expect("spec"));
        let body = SessionReader::new(io::Cursor::new(frame_body(&small_trace_bytes())));
        let err =
            evaluate_stream_session(body, &governor, &config, |_, _| Ok(())).expect_err("limited");
        assert_eq!(err.class(), ErrorClass::Limit, "{err}");
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    #[test]
    fn stream_disconnect_mid_body_is_a_protocol_error() {
        let config = test_config("stream-disconnect");
        let governor = Governor::new(ResourceLimits::untrusted());
        let bytes = small_trace_bytes();
        let mut framed = Vec::new();
        write_session_body(&mut io::Cursor::new(&bytes[..]), &mut framed).expect("frame");
        framed.truncate(framed.len() / 2); // the client vanished mid-stream
        let body = SessionReader::new(io::Cursor::new(framed));
        let err =
            evaluate_stream_session(body, &governor, &config, |_, _| Ok(())).expect_err("gone");
        assert_eq!(err.class(), ErrorClass::Protocol, "{err}");
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    #[test]
    fn stream_upload_cap_trips_limit() {
        let config = EvalConfig {
            max_upload_bytes: 512,
            ..test_config("stream-cap")
        };
        let governor = Governor::new(ResourceLimits::untrusted());
        let body = SessionReader::new(io::Cursor::new(frame_body(&small_trace_bytes())));
        let err =
            evaluate_stream_session(body, &governor, &config, |_, _| Ok(())).expect_err("capped");
        assert_eq!(err.class(), ErrorClass::Limit, "{err}");
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    #[test]
    fn shard_failure_preserves_partial_stats_in_the_error() {
        // A 4-shard budget but a tiny event budget: at least one shard
        // trips the governor while others may complete; either way the
        // failure must carry the Shard-or-Limit structure, not a panic.
        let config = EvalConfig {
            shard_min_bytes: 0,
            memoize: false,
            ..test_config("shard-partial")
        };
        let governor = Governor::new(ResourceLimits::parse("shards=4,events=10").expect("spec"));
        let mut body = SessionReader::new(io::Cursor::new(frame_body(&small_trace_bytes())));
        let err = evaluate_session(&mut body, &governor, &config).expect_err("limited");
        assert_eq!(err.class(), ErrorClass::Limit, "{err}");
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    #[test]
    fn disconnect_mid_body_is_a_protocol_error() {
        let config = test_config("disconnect");
        let governor = Governor::new(ResourceLimits::untrusted());
        let mut framed = Vec::new();
        cg_trace::proto::write_frame(&mut framed, &Frame::Data(vec![1, 2, 3])).unwrap();
        // No END frame: the client vanished.
        let mut body = SessionReader::new(io::Cursor::new(framed.clone()));
        let err = evaluate_session(&mut body, &governor, &config).expect_err("gone");
        assert_eq!(err.class(), ErrorClass::Protocol, "{err}");
        // The direct route fails on the bad magic first; the disconnect it
        // meets reading on to END is the verdict.
        for (route, result) in upload_routes(&config, "", &framed) {
            let err = result.expect_err(route);
            assert_eq!(err.class(), ErrorClass::Protocol, "{route}: {err}");
        }
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }
}
