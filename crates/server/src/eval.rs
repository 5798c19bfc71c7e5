//! One session's evaluation: spool the uploaded `.cgt` byte stream to
//! disk with O(chunk) memory, answer repeated workloads from the memoized
//! result cache, otherwise replay under the session's [`Governor`] via the
//! governed streaming path and publish the result for next time.
//!
//! Large uploads take the **sharded** path: when the tenant's `shards`
//! budget allows ≥ 2 shards and the spool crosses
//! [`EvalConfig::shard_min_bytes`], the spool is split per thread with
//! [`partition_path_streaming`] and evaluated on one OS thread per shard
//! via [`parallel_eval_streaming_governed`] — sound because contaminated
//! GC's per-thread frame/block locality (§3.3) keeps shard state
//! independent up to explicit cross-shard waits, and byte-identical to
//! the single-shard replay by the shard-equivalence invariant.  Shard
//! failures surface as [`SessionError::Shards`] with the completed
//! shards' partial statistics preserved in the error message.
//!
//! **Live streams** ([`evaluate_stream_session`]) never spool at all: the
//! framed body is decoded event-by-event as it arrives and applied to the
//! shadow heap incrementally, so a stream of any length evaluates in
//! O(chunk) memory, with periodic `PROGRESS` callbacks for the client.
//!
//! The result cache publishes atomically (collision-proof tmp sibling +
//! rename, expired tmps swept on startup; see [`crate::spool`]).
//! Entries are keyed by content — `(length, CRC32, FNV-1a 64)` of the full
//! uploaded byte stream — so a repeated upload of the same workload trace
//! is answered without replaying a single event, and a trace that differs
//! anywhere (header, events, footer) can never collide into a wrong
//! answer short of a simultaneous 96-bit hash collision.

use std::cell::RefCell;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::spool::{sweep_stale_tmps, unique_tmp_path, TMP_SWEEP_TTL};
use cg_heap::Heap;
use cg_trace::footer::{canonical_collector, canonical_config, cg_section};
use cg_trace::proto::{session_error, ErrorClass, ProtoError, SessionReader};
use cg_trace::{
    apply_event, open_trace, parallel_eval_streaming_governed, partition_path_streaming,
    replay_path_governed, EvalError, FooterSection, Governor, ParallelError, ReplayOutcome,
    ResourceLimits, TraceIoError, TraceReader, GOVERNOR_CHECK_EVENTS,
};

/// Most shard threads one session may occupy, regardless of the tenant's
/// `shards` budget — the serving-side sanity clamp (the bench harness has
/// no such clamp; a daemon sharing a machine does).
pub const MAX_SERVING_SHARDS: usize = 16;

/// A live stream reports `PROGRESS` every this many events (plus once
/// right after the header parses, so every watcher sees at least one).
pub const PROGRESS_EVERY_EVENTS: u64 = 4096;

/// How a session's evaluation is configured (shared by all workers).
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Root directory for spools and memoized results.
    pub cache_dir: PathBuf,
    /// Whether to memoize results (on by default; off forces re-replay).
    pub memoize: bool,
    /// Hard cap on the uploaded byte stream.
    pub max_upload_bytes: u64,
    /// Smallest upload worth sharding: below this the partition cost
    /// outweighs the parallel win and the single-shard path runs instead.
    pub shard_min_bytes: u64,
}

/// Shard threads one session may use under `limits`: the tenant's
/// `shards` budget clamped by [`MAX_SERVING_SHARDS`], never zero.  The
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

/// Runs one session body to completion: spools, memoizes, evaluates.
///
/// The governor's deadline covers the whole session — a client that
/// uploads slowly eats into its own evaluation budget, so a worker slot
/// is always reclaimed within the deadline plus one idle timeout.
///
/// # Errors
///
/// A [`SessionError`]; the worker frames it as an `ERROR` response.
pub fn evaluate_session<R: Read>(
    body: &mut SessionReader<R>,
    governor: &Governor,
    config: &EvalConfig,
) -> Result<SessionResult, SessionError> {
    let uploads = config.cache_dir.join("uploads");
    std::fs::create_dir_all(&uploads).map_err(SessionError::Io)?;
    let spool_path = unique_tmp_path(&uploads.join("session.cgt"));
    let result = spool_and_eval(body, governor, config, &spool_path);
    let _ = std::fs::remove_file(&spool_path);
    result
}

/// The marker error [`SharedSession`] raises when a stream crosses the
/// upload byte cap, so [`classify_stream`] can tell the cap apart from
/// transport failures after the error has passed through the trace
/// reader.
#[derive(Debug)]
struct CapExceeded;

impl fmt::Display for CapExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream exceeds the upload byte cap")
    }
}

impl std::error::Error for CapExceeded {}

/// A [`SessionReader`] behind a shared handle, so the trace reader can
/// consume it while the evaluation loop still observes `bytes_read` for
/// progress frames and drains the tail after the footer.  Enforces the
/// upload cap on every read.
struct SharedSession<R: Read> {
    inner: Rc<RefCell<SessionReader<R>>>,
    cap: u64,
}

impl<R: Read> Read for SharedSession<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut inner = self.inner.borrow_mut();
        let n = inner.read(buf)?;
        if inner.bytes_read() > self.cap {
            return Err(io::Error::other(CapExceeded));
        }
        Ok(n)
    }
}

/// Classifies a failure from the incremental trace reader: the cap marker
/// planted by [`SharedSession`], a client transport failure (stall,
/// disconnect, torn frame), or genuine stream damage.
fn classify_stream(e: TraceIoError, limit: u64) -> SessionError {
    match e {
        TraceIoError::Io(io) => {
            if io.get_ref().is_some_and(|inner| inner.is::<CapExceeded>()) {
                SessionError::UploadTooLarge { limit }
            } else {
                classify_read(io)
            }
        }
        damaged => SessionError::Eval(EvalError::Trace(damaged)),
    }
}

/// Runs one live `STREAM` session: decodes the framed `.cgt` body
/// event-by-event as it arrives and applies each event to the shadow heap
/// immediately, so memory stays O(chunk) no matter how long the client
/// records.  `progress` is called with `(events, bytes)` once after the
/// header parses and then every [`PROGRESS_EVERY_EVENTS`] events — the
/// worker turns each call into a `PROGRESS` frame; a callback error means
/// the client stopped draining and ends the session.
///
/// Live streams bypass the memoized result cache: the daemon never holds
/// the full byte stream, so there is no content key to look up.  The
/// governed checkpoints are the same as the spooled path's, so budgets
/// and deadlines trip identically.
///
/// # Errors
///
/// A [`SessionError`]; the worker frames it as an `ERROR` response.
pub fn evaluate_stream_session<R: Read>(
    body: SessionReader<R>,
    governor: &Governor,
    config: &EvalConfig,
    mut progress: impl FnMut(u64, u64) -> io::Result<()>,
) -> Result<SessionResult, SessionError> {
    let session = Rc::new(RefCell::new(body));
    let cap = config.max_upload_bytes;
    let mut reader = TraceReader::new(SharedSession {
        inner: Rc::clone(&session),
        cap,
    })
    .map_err(|e| classify_stream(e, cap))?;

    let heap_config = reader.meta().heap.ok_or_else(|| {
        SessionError::Eval(EvalError::Trace(TraceIoError::Malformed {
            chunk: None,
            detail: "stream header carries no heap configuration".to_string(),
        }))
    })?;
    governor
        .validate_heap(&heap_config)
        .map_err(SessionError::Eval)?;
    if let Some(declared) = reader.meta().declared_events {
        governor
            .validate_declared_events(declared)
            .map_err(SessionError::Eval)?;
    }

    let mut heap = Heap::new(heap_config);
    let mut collector = canonical_collector();
    let mut outcome = ReplayOutcome::default();
    progress(0, session.borrow().bytes_read()).map_err(classify_read)?;
    loop {
        match reader.next_event() {
            Ok(Some(event)) => {
                apply_event(&event, &mut heap, &mut collector, &mut outcome)
                    .map_err(|e| SessionError::Eval(EvalError::Replay(e)))?;
                let n = outcome.events_replayed as u64;
                if n.is_multiple_of(GOVERNOR_CHECK_EVENTS) {
                    governor.checkpoint(n, &heap).map_err(SessionError::Eval)?;
                }
                if n.is_multiple_of(PROGRESS_EVERY_EVENTS) {
                    progress(n, session.borrow().bytes_read()).map_err(classify_read)?;
                }
            }
            Ok(None) => break,
            Err(e) => return Err(classify_stream(e, cap)),
        }
    }
    let events = outcome.events_replayed as u64;
    governor
        .checkpoint(events, &heap)
        .map_err(SessionError::Eval)?;
    drop(reader);

    // Drain to the END frame so the response is never raced by an unread
    // tail (a close with buffered receive data can turn into a reset that
    // eats the STATS frame).
    let mut sink = [0u8; 4096];
    loop {
        let mut inner = session.borrow_mut();
        let n = inner.read(&mut sink).map_err(classify_read)?;
        if inner.bytes_read() > cap {
            return Err(SessionError::UploadTooLarge { limit: cap });
        }
        if n == 0 {
            break;
        }
    }

    let breakdown = collector.breakdown();
    let section = cg_section(collector.stats(), &breakdown);
    Ok(SessionResult {
        text: stats_text(events, &section),
        cached: false,
        events,
        shards: 1,
    })
}

fn spool_and_eval<R: Read>(
    body: &mut SessionReader<R>,
    governor: &Governor,
    config: &EvalConfig,
    spool_path: &Path,
) -> Result<SessionResult, SessionError> {
    // Spool the framed byte stream to disk: memory stays at one frame
    // plus this copy buffer regardless of trace size.
    let spool = File::create(spool_path).map_err(SessionError::Io)?;
    let mut spool = BufWriter::new(spool);
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        governor.check_deadline().map_err(SessionError::Eval)?;
        governor.check_cancelled().map_err(SessionError::Eval)?;
        let n = body.read(&mut buf).map_err(classify_read)?;
        if n == 0 {
            break;
        }
        if body.bytes_read() > config.max_upload_bytes {
            return Err(SessionError::UploadTooLarge {
                limit: config.max_upload_bytes,
            });
        }
        spool.write_all(&buf[..n]).map_err(SessionError::Io)?;
    }
    spool
        .into_inner()
        .map_err(|e| SessionError::Io(e.into_error()))?;

    // Memoization: same bytes, same answer — skip the replay entirely.
    let result_path = config.result_path(body.bytes_read(), body.crc32(), body.fnv64());
    if config.memoize {
        if let Some(hit) = load_result(&result_path) {
            return Ok(SessionResult {
                cached: true,
                ..hit
            });
        }
    }

    // Route: the sharded path when the tenant's budget allows it and the
    // upload is large enough to pay for the partition pass.
    let shards = if body.bytes_read() >= config.shard_min_bytes {
        serving_shards(governor.limits())
    } else {
        1
    };
    let (text, events) = if shards >= 2 {
        eval_sharded(spool_path, shards, governor)?
    } else {
        eval_single(spool_path, governor)?
    };
    if config.memoize {
        store_result(&result_path, &text);
    }
    Ok(SessionResult {
        text,
        cached: false,
        events,
        shards,
    })
}

/// The canonical stats body: `events N` then the footer-section entries.
fn stats_text(events: u64, section: &FooterSection) -> String {
    let mut text = format!("events {events}\n");
    for (name, value) in &section.entries {
        text.push_str(&format!("cg.{name} {value}\n"));
    }
    text
}

/// The single-shard whole-file path — the byte-identity reference for
/// both the sharded and the streamed evaluators.
fn eval_single(spool_path: &Path, governor: &Governor) -> Result<(String, u64), SessionError> {
    let evaluated = replay_path_governed(spool_path, None, canonical_collector(), governor)
        .map_err(SessionError::Eval)?;
    let mut collector = evaluated.replayed.collector;
    let breakdown = collector.breakdown();
    let section = cg_section(collector.stats(), &breakdown);
    let events = evaluated.replayed.outcome.events_replayed as u64;
    Ok((stats_text(events, &section), events))
}

/// The sharded path: partition the spool per recording thread, evaluate
/// one OS thread per shard, aggregate.  Identical output to
/// [`eval_single`] by the shard-equivalence invariant.
fn eval_sharded(
    spool_path: &Path,
    shards: usize,
    governor: &Governor,
) -> Result<(String, u64), SessionError> {
    let reader = open_trace(spool_path).map_err(|e| SessionError::Eval(EvalError::Trace(e)))?;
    let heap = reader.meta().heap.ok_or_else(|| {
        SessionError::Eval(EvalError::Trace(TraceIoError::Malformed {
            chunk: None,
            detail: "trace header carries no heap configuration".to_string(),
        }))
    })?;
    if let Some(declared) = reader.meta().declared_events {
        governor
            .validate_declared_events(declared)
            .map_err(SessionError::Eval)?;
    }
    drop(reader);

    // Append to the full spool name (which carries the per-session unique
    // tmp suffix) — `with_extension` would replace that suffix and make
    // every concurrent session partition into the same directory.
    let mut shard_dir = spool_path.as_os_str().to_owned();
    shard_dir.push(".shards");
    let shard_dir = std::path::PathBuf::from(shard_dir);
    std::fs::create_dir_all(&shard_dir).map_err(SessionError::Io)?;
    let result = (|| {
        let parts = partition_path_streaming(spool_path, shards, &shard_dir)
            .map_err(|e| SessionError::Eval(EvalError::Trace(e)))?;
        // The partition pass counted every event, so the budget check here
        // is exact even when the header declared nothing.
        governor
            .validate_declared_events(parts.total_events)
            .map_err(SessionError::Eval)?;
        let outcome =
            parallel_eval_streaming_governed(&parts.paths, heap, canonical_config(), governor)
                .map_err(|e| match e {
                    ParallelError::Rejected(e) => SessionError::Eval(e),
                    failed @ ParallelError::Shards { .. } => SessionError::Shards(failed),
                })?;
        let section = cg_section(&outcome.stats, &outcome.breakdown);
        let events = outcome.events_replayed as u64;
        Ok((stats_text(events, &section), events))
    })();
    let _ = std::fs::remove_dir_all(&shard_dir);
    result
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
        let mut body = SessionReader::new(io::Cursor::new(framed));
        let err = evaluate_session(&mut body, &governor, &config).expect_err("capped");
        assert_eq!(err.class(), ErrorClass::Limit, "{err}");
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }

    /// The invariant of the whole PR: sharded and streamed evaluations of
    /// the same trace answer byte-identically to the single-shard path.
    #[test]
    fn sharded_and_streamed_answers_match_single_shard_byte_for_byte() {
        let config = EvalConfig {
            memoize: false,
            ..test_config("identity")
        };
        let bytes = small_trace_bytes();

        let mut single = SessionReader::new(io::Cursor::new(frame_body(&bytes)));
        let governor = Governor::new(ResourceLimits::untrusted());
        let reference = evaluate_session(&mut single, &governor, &config).expect("single");
        assert_eq!(reference.shards, 1, "small upload stays single-shard");

        // Sharded: force the route with a zero size floor and a 4-shard
        // budget.
        let sharded_config = EvalConfig {
            shard_min_bytes: 0,
            ..config.clone()
        };
        let governor = Governor::new(ResourceLimits::parse("shards=4").expect("spec"));
        let mut body = SessionReader::new(io::Cursor::new(frame_body(&bytes)));
        let sharded = evaluate_session(&mut body, &governor, &sharded_config).expect("sharded");
        assert_eq!(sharded.shards, 4, "the sharded route honors the budget");
        assert_eq!(
            sharded.text, reference.text,
            "sharded answer is byte-identical"
        );
        assert_eq!(sharded.events, reference.events);

        // Streamed: same bytes through the incremental evaluator.
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
        assert_eq!(
            streamed.text, reference.text,
            "streamed answer is byte-identical"
        );
        assert!(frames >= 1, "at least the post-header progress frame fires");
        assert!(!streamed.cached, "live streams bypass the result cache");
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
        let mut body = SessionReader::new(io::Cursor::new(framed));
        let err = evaluate_session(&mut body, &governor, &config).expect_err("gone");
        assert_eq!(err.class(), ErrorClass::Protocol, "{err}");
        let _ = std::fs::remove_dir_all(&config.cache_dir);
    }
}
