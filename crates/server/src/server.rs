//! The daemon itself: TCP accept loop, per-connection handshake, and the
//! fixed worker pool that runs sessions.
//!
//! Threading model:
//!
//! * one **acceptor** (the thread that calls [`Server::run`]);
//! * a short-lived **handshake** thread per connection, bounded in count,
//!   which reads the preamble and first frame, answers metrics scrapes
//!   inline, and hands submissions to the scheduler (or bounces BUSY);
//! * `workers` long-lived **evaluator** threads that each own one session
//!   at a time — admission control [`crate::scheduler::Scheduler`] is the
//!   only queue, so memory and concurrency are bounded by construction.
//!
//! A worker slot can never be held hostage: every socket read carries the
//! idle timeout, and the per-tenant governor deadline covers the whole
//! session (upload included), so torn frames, slowloris drips and
//! mid-stream disconnects all surface as structured errors and free the
//! slot.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cg_trace::proto::{read_frame, read_preamble, write_frame, ErrorClass, Frame, SessionReader};
use cg_trace::{Governor, ResourceLimits};

use crate::eval::{evaluate_session, evaluate_stream_session, serving_shards, EvalConfig};
use crate::metrics::{Metrics, SessionShape};
use crate::scheduler::{QueuedSession, Scheduler, SessionKind};

/// Longest tenant name the daemon accepts.
pub const MAX_TENANT_LEN: usize = 64;

/// Everything a `cgtd` needs to know before binding.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Evaluator threads — the fixed worker pool size.
    pub workers: usize,
    /// Max sessions queued per tenant (beyond running ones).
    pub tenant_queue: usize,
    /// Max sessions queued across all tenants; `0` means `workers * 4`.
    pub global_queue: usize,
    /// Budget for tenants without an explicit entry in `tenant_limits`.
    pub default_limits: ResourceLimits,
    /// Per-tenant budget overrides.
    pub tenant_limits: HashMap<String, ResourceLimits>,
    /// Hard cap on one session's uploaded bytes.
    pub max_upload_bytes: u64,
    /// Smallest upload routed through the sharded evaluator (when the
    /// tenant's `shards` budget allows ≥ 2); see
    /// [`EvalConfig::shard_min_bytes`](crate::EvalConfig::shard_min_bytes)
    /// for why the default is 4 MiB.
    pub shard_min_bytes: u64,
    /// Socket read/write timeout — a silent peer is cut off after this.
    pub idle_timeout: Duration,
    /// Spool/result-cache root; `None` means `<trace cache dir>/cgtd`.
    pub cache_dir: Option<PathBuf>,
    /// Memoize repeated uploads through the disk result cache.
    pub memoize: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4270".to_string(),
            workers: 4,
            tenant_queue: 4,
            global_queue: 0,
            // Sharded serving is an explicit grant: the stock daemon
            // evaluates single-shard (and admits every upload at weight 1)
            // until the operator widens `shards` via `--limits`/`--tenant`.
            default_limits: ResourceLimits {
                max_shards: Some(1),
                ..ResourceLimits::untrusted()
            },
            tenant_limits: HashMap::new(),
            max_upload_bytes: 256 << 20,
            shard_min_bytes: 4 << 20,
            idle_timeout: Duration::from_secs(30),
            cache_dir: None,
            memoize: true,
        }
    }
}

/// Shared state between acceptor, handshake threads and workers.
#[derive(Debug)]
struct Shared {
    scheduler: Scheduler,
    metrics: Metrics,
    eval: EvalConfig,
    default_limits: ResourceLimits,
    tenant_limits: HashMap<String, ResourceLimits>,
    idle_timeout: Duration,
    shutdown: AtomicBool,
    handshakes: AtomicUsize,
    handshake_cap: usize,
}

impl Shared {
    fn limits_for(&self, tenant: &str) -> ResourceLimits {
        self.tenant_limits
            .get(tenant)
            .copied()
            .unwrap_or(self.default_limits)
    }
}

/// A handle for observing and stopping a running [`Server`] from another
/// thread (tests, signal handlers).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Sessions currently queued.
    pub fn queue_depth(&self) -> usize {
        self.shared.scheduler.depth()
    }

    /// Asks the server to stop: new submissions bounce, queued sessions
    /// drain, workers then exit and [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.scheduler.close();
        // Unblock the acceptor with a no-op connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound, not-yet-running daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
}

impl Server {
    /// Binds the listen socket and prepares the cache directories.
    ///
    /// # Errors
    ///
    /// Bind or cache-directory failures.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let workers = config.workers.max(1);
        let global_queue = if config.global_queue == 0 {
            workers * 4
        } else {
            config.global_queue
        };
        let eval = EvalConfig {
            cache_dir: config
                .cache_dir
                .unwrap_or_else(crate::spool::default_cache_dir),
            memoize: config.memoize,
            max_upload_bytes: config.max_upload_bytes,
            shard_min_bytes: config.shard_min_bytes,
        };
        eval.prepare()?;
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new(global_queue, config.tenant_queue),
            metrics: Metrics::new(workers),
            eval,
            default_limits: config.default_limits,
            tenant_limits: config.tenant_limits,
            idle_timeout: config.idle_timeout,
            shutdown: AtomicBool::new(false),
            handshakes: AtomicUsize::new(0),
            // Enough for every queue slot plus every worker to have a
            // connection mid-handshake, with headroom for metrics scrapes.
            handshake_cap: global_queue + workers + 16,
        });
        Ok(Server {
            listener,
            shared,
            workers,
        })
    }

    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle, cloneable across threads.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.local_addr()?,
        })
    }

    /// Runs the daemon on the calling thread until [`ServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Fatal accept-loop failures only; per-connection trouble is handled
    /// (and counted) internally.
    pub fn run(self) -> io::Result<()> {
        // Every worker is running before the first connection is accepted.
        // A thread draws its allocator arena when it starts, from the ones
        // exited threads left behind; a worker that starts after the first
        // session's handshake thread draws the arena a previous evaluation's
        // shard grew, and that evaluation's next shard grows another — tens
        // of MiB of resident memory decided by a start-up race.
        let started = Arc::new(Barrier::new(self.workers + 1));
        let mut workers = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let shared = Arc::clone(&self.shared);
            let started = Arc::clone(&started);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cgtd-worker-{i}"))
                    .spawn(move || {
                        started.wait();
                        worker_loop(&shared)
                    })?,
            );
        }
        started.wait();
        for conn in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                // Transient accept errors (EMFILE, resets) must not kill
                // the daemon.
                Err(_) => continue,
            };
            let shared = Arc::clone(&self.shared);
            if shared.handshakes.fetch_add(1, Ordering::SeqCst) >= shared.handshake_cap {
                shared.handshakes.fetch_sub(1, Ordering::SeqCst);
                reject_overload(stream, &shared);
                continue;
            }
            let spawned = std::thread::Builder::new()
                .name("cgtd-handshake".to_string())
                .spawn(move || {
                    handshake(stream, &shared);
                    shared.handshakes.fetch_sub(1, Ordering::SeqCst);
                });
            if spawned.is_err() {
                self.shared.handshakes.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.shared.scheduler.close();
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Over the handshake cap: answer BUSY without spawning anything.
fn reject_overload(stream: TcpStream, shared: &Shared) {
    shared.metrics.on_busy_overload();
    let mut writer = BufWriter::new(stream);
    let _ = write_frame(
        &mut writer,
        &Frame::Busy {
            reason: "too many connections".to_string(),
        },
    );
    let _ = writer.flush();
}

/// Reads the preamble and first frame; dispatches to metrics or admission.
fn handshake(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    let _ = stream.set_write_timeout(Some(shared.idle_timeout));
    let reader_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);

    if let Err(e) = read_preamble(&mut reader) {
        refuse(&mut writer, shared, e.to_string());
        return;
    }
    match read_frame(&mut reader) {
        Ok(Some(Frame::Metrics)) => {
            let text = shared.metrics.render(&shared.scheduler.depths());
            let _ = write_frame(&mut writer, &Frame::MetricsReply { text });
            let _ = writer.flush();
        }
        Ok(Some(Frame::Submit { tenant })) => {
            admit(reader, writer, shared, tenant, SessionKind::Upload);
        }
        Ok(Some(Frame::Stream { tenant })) => {
            admit(reader, writer, shared, tenant, SessionKind::Stream);
        }
        Ok(Some(_)) => refuse(
            &mut writer,
            shared,
            "expected SUBMIT, STREAM or METRICS".to_string(),
        ),
        Ok(None) => shared.metrics.on_handshake_error(),
        Err(e) => refuse(&mut writer, shared, e.to_string()),
    }
}

/// Answers a connection that broke the handshake with a `Protocol`
/// `ERROR`, and counts it.
fn refuse(writer: &mut BufWriter<TcpStream>, shared: &Shared, message: String) {
    shared.metrics.on_handshake_error();
    let _ = write_frame(
        writer,
        &Frame::Error {
            class: ErrorClass::Protocol,
            message,
        },
    );
    let _ = writer.flush();
}

/// Validates the tenant name and hands the connection to the scheduler
/// (or bounces BUSY).  The session is charged its worker-equivalent
/// weight at admission: the tenant's serving shard budget for uploads,
/// one slot for live streams, which always evaluate single-threaded.
fn admit(
    reader: BufReader<TcpStream>,
    mut writer: BufWriter<TcpStream>,
    shared: &Shared,
    tenant: String,
    kind: SessionKind,
) {
    if tenant.is_empty()
        || tenant.len() > MAX_TENANT_LEN
        || !tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
    {
        refuse(
            &mut writer,
            shared,
            format!(
                "tenant names are 1..={MAX_TENANT_LEN} ascii \
                 alphanumeric/dash/underscore/dot characters"
            ),
        );
        return;
    }
    // Reunite the halves: the worker owns the whole socket.  Any
    // bytes the buffered reader pulled past the SUBMIT frame (a
    // client that streamed without waiting for ACCEPTED) travel
    // with the session so nothing is swallowed.
    let leftover = reader.buffer().to_vec();
    drop(reader);
    let stream = match writer.into_inner() {
        Ok(stream) => stream,
        Err(_) => return,
    };
    // Keep a reply handle: on rejection the session (and its
    // socket) has been consumed by value.
    let reply = stream.try_clone().ok();
    let slots = match kind {
        SessionKind::Upload => serving_shards(&shared.limits_for(&tenant)),
        SessionKind::Stream => 1,
    };
    if let Err(rejected) = shared.scheduler.try_enqueue(QueuedSession {
        tenant: tenant.clone(),
        stream,
        leftover,
        kind,
        slots,
    }) {
        shared.metrics.on_busy(&tenant);
        if let Some(reply) = reply {
            let mut writer = BufWriter::new(reply);
            let _ = write_frame(
                &mut writer,
                &Frame::Busy {
                    reason: rejected.reason(),
                },
            );
            let _ = writer.flush();
        }
    }
}

/// One evaluator thread: pull, run, repeat until the scheduler closes.
fn worker_loop(shared: &Shared) {
    while let Some(session) = shared.scheduler.dequeue() {
        shared.metrics.on_session_start(&session.tenant);
        run_session(session, shared);
    }
}

/// Runs one admitted session to its response frame.
fn run_session(session: QueuedSession, shared: &Shared) {
    let QueuedSession {
        tenant,
        stream,
        leftover,
        kind,
        slots: _,
    } = session;
    let started = Instant::now();
    let governor = Governor::new(shared.limits_for(&tenant));

    let outcome = (|| -> Result<_, crate::eval::SessionError> {
        let reader_stream = stream.try_clone().map_err(crate::eval::SessionError::Io)?;
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, &Frame::Accepted)
            .and_then(|()| writer.flush())
            .map_err(crate::eval::SessionError::Io)?;
        // Bytes buffered during the handshake come first, then the socket.
        let source = io::Cursor::new(leftover).chain(reader_stream);
        let result = match kind {
            SessionKind::Upload => {
                let mut body = SessionReader::new(BufReader::new(source));
                evaluate_session(&mut body, &governor, &shared.eval)
            }
            SessionKind::Stream => {
                let body = SessionReader::new(BufReader::new(source));
                evaluate_stream_session(body, &governor, &shared.eval, |events, bytes| {
                    write_frame(&mut writer, &Frame::Progress { events, bytes })?;
                    writer.flush()
                })
            }
        };
        Ok((writer, result))
    })();

    match outcome {
        Ok((mut writer, Ok(result))) => {
            shared.metrics.on_session_ok(
                &tenant,
                result.events,
                started.elapsed(),
                SessionShape {
                    cached: result.cached,
                    shards: result.shards,
                    streamed: kind == SessionKind::Stream,
                },
            );
            let _ = write_frame(
                &mut writer,
                &Frame::Stats {
                    cached: result.cached,
                    text: result.text,
                },
            );
            let _ = writer.flush();
        }
        Ok((mut writer, Err(e))) => {
            shared
                .metrics
                .on_session_error(&tenant, e.class(), started.elapsed());
            let _ = write_frame(
                &mut writer,
                &Frame::Error {
                    class: e.class(),
                    message: e.to_string(),
                },
            );
            let _ = writer.flush();
        }
        Err(e) => {
            // Could not even greet the client (it is usually gone).
            shared
                .metrics
                .on_session_error(&tenant, e.class(), started.elapsed());
        }
    }
}

/// Binds and runs a server on a background thread; returns the handle and
/// the join handle.  The convenience entry point for tests and `cgtd`.
///
/// # Errors
///
/// Propagates [`Server::bind`] failures.
pub fn spawn(config: ServerConfig) -> io::Result<(ServerHandle, std::thread::JoinHandle<()>)> {
    let server = Server::bind(config)?;
    let handle = server.handle()?;
    let join = std::thread::Builder::new()
        .name("cgtd-acceptor".to_string())
        .spawn(move || {
            let _ = server.run();
        })?;
    Ok((handle, join))
}
