//! Serve-side layers: `cg-server` seen from the client (admit / upload /
//! verdict spans per session, the daemon's own counters read once at the
//! end), the session protocol framing, and the partition + sharded
//! evaluation the sharded route is made of.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use cg_server::{evaluate_session, EvalConfig, ServerConfig};
use cg_trace::footer::canonical_config;
use cg_trace::proto::{
    read_frame, write_frame, write_preamble, write_session_body, Frame, SessionReader,
    SubmitOutcome,
};
use cg_trace::{
    open_trace, parallel_eval_streaming_governed, partition_path_streaming, Governor,
    ResourceLimits,
};

use super::replay;
use super::{best_of, record, timed, Ctx};
use crate::daemon::{Daemon, DaemonShape};
use crate::ops::{self, Route, SESSION_TIMEOUT, TENANT};
use crate::reference::Reference;
use crate::spans::Tracer;
use crate::util::{mean, median, ratio};
use crate::workloads::{self, Prepared, TraceFile};

fn expect_accepted(reader: &mut impl Read) -> Result<(), String> {
    match read_frame(reader).map_err(|e| e.to_string())? {
        Some(Frame::Accepted) => Ok(()),
        Some(Frame::Busy { reason }) => Err(format!("server busy: {reason}")),
        Some(Frame::Error { class, message }) => Err(format!("server error [{class}]: {message}")),
        other => Err(format!("wanted ACCEPTED, got {other:?}")),
    }
}

fn expect_stats(reader: &mut impl Read) -> Result<SubmitOutcome, String> {
    loop {
        match read_frame(reader).map_err(|e| e.to_string())? {
            Some(Frame::Progress { .. }) => {}
            Some(Frame::Stats { cached, text }) => return Ok(SubmitOutcome { cached, text }),
            Some(Frame::Error { class, message }) => {
                return Err(format!("server error [{class}]: {message}"))
            }
            other => return Err(format!("wanted STATS, got {other:?}")),
        }
    }
}

/// One client session made of the public frame calls `submit_stream` /
/// `stream_events` are made of, with a span around each phase:
/// connect → `ACCEPTED` (admit), body → `END` (upload), `END` → `STATS`
/// (verdict).
fn traced_session(
    tracer: &Tracer,
    session: u64,
    addr: &str,
    path: &Path,
    route: Route,
) -> Result<SubmitOutcome, String> {
    tracer.span(None, session, "unattributed", "session", |root| {
        let (mut reader, mut writer) =
            tracer.span(Some(root), session, "cg-server", "admit", |_| {
                let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let io = |e: std::io::Error| format!("handshake: {e}");
                stream.set_read_timeout(SESSION_TIMEOUT).map_err(io)?;
                stream.set_write_timeout(SESSION_TIMEOUT).map_err(io)?;
                stream.set_nodelay(true).map_err(io)?;
                let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
                let mut writer = BufWriter::new(stream);
                let tenant = TENANT.to_string();
                write_preamble(&mut writer).map_err(io)?;
                let open = match route {
                    Route::Submit => Frame::Submit { tenant },
                    Route::Stream => Frame::Stream { tenant },
                };
                write_frame(&mut writer, &open).map_err(io)?;
                writer.flush().map_err(io)?;
                expect_accepted(&mut reader)?;
                Ok::<_, String>((reader, writer))
            })?;
        let mut file = std::fs::File::open(path).map_err(|e| format!("open: {e}"))?;
        match route {
            Route::Submit => {
                tracer.span(Some(root), session, "cg-server", "upload", |_| {
                    write_session_body(&mut file, &mut writer).map_err(|e| format!("upload: {e}"))
                })?;
                tracer.span(Some(root), session, "cg-server", "verdict", |_| {
                    expect_stats(&mut reader)
                })
            }
            // A live session: the server evaluates while the body is still
            // in flight, so the upload runs on its own thread and the
            // verdict span is what is left after the last byte went out.
            Route::Stream => std::thread::scope(|scope| {
                let upload = scope.spawn(move || {
                    tracer.span(Some(root), session, "cg-server", "upload", |_| {
                        let sent = write_session_body(&mut file, &mut writer);
                        (sent, tracer.now_ns())
                    })
                });
                let verdict = expect_stats(&mut reader);
                let (sent, uploaded_ns) = upload.join().expect("upload thread");
                tracer.record(
                    Some(root),
                    session,
                    "cg-server",
                    "verdict",
                    uploaded_ns,
                    tracer.now_ns().max(uploaded_ns),
                );
                sent.map_err(|e| format!("upload: {e}"))?;
                verdict
            }),
        }
    })
}

fn worker_busy(daemon: &Daemon) -> Duration {
    let tenant = daemon.handle().metrics().tenant(TENANT);
    tenant.map_or(Duration::ZERO, |t| t.busy)
}

/// The daemon's own counters, read once at the end of a window that began
/// when its workers had been busy for `busy_before`.
fn server_counters(
    ctx: &mut Ctx,
    daemon: &Daemon,
    window: Duration,
    busy_before: Duration,
    attempts: u64,
) {
    let metrics = daemon.handle().metrics();
    let tenant = metrics.tenant(TENANT).unwrap_or_default();
    ctx.put(
        "server.worker_busy_share",
        ratio(
            (tenant.busy - busy_before).as_secs_f64(),
            window.as_secs_f64() * daemon.workers as f64,
        ),
    );
    ctx.put(
        "server.busy_share",
        ratio(metrics.busy_rejected() as f64, attempts as f64),
    );
    ctx.put("server.sessions_total", metrics.sessions_total() as f64);
    ctx.put(
        "server.sessions_streamed",
        metrics.sessions_streamed() as f64,
    );
    ctx.put("server.sessions_sharded", metrics.sessions_sharded() as f64);
    ctx.put("server.cache_hits", metrics.cache_hits() as f64);
    ctx.put("server.errors_total", tenant.errors as f64);
}

fn phase_metrics(ctx: &mut Ctx) {
    for (metric, span) in [
        ("server.admit_ms", "admit"),
        ("server.upload_ms", "upload"),
        ("server.verdict_ms", "verdict"),
    ] {
        let value = ctx.tracer.mean_ms(span);
        ctx.put(metric, value);
    }
}

/// `evaluate_session` on an in-memory framed body: spool + replay with no
/// socket, scheduler or worker pool.  Returns the mean ms per file.
fn evaluate_in_memory(
    ctx: &mut Ctx,
    files: &[TraceFile],
    dir: &Path,
    shards: u64,
) -> Result<f64, String> {
    let defaults = ServerConfig::default();
    let config = EvalConfig {
        cache_dir: dir.join("evaluate"),
        memoize: false,
        max_upload_bytes: defaults.max_upload_bytes,
        shard_min_bytes: if shards > 1 {
            0
        } else {
            defaults.shard_min_bytes
        },
    };
    config.prepare().map_err(|e| format!("prepare: {e}"))?;
    let limits = ResourceLimits {
        max_shards: Some(shards),
        ..defaults.default_limits
    };
    let mut framed = Vec::new();
    for input in files {
        let mut file = std::fs::File::open(&input.path).map_err(|e| format!("open: {e}"))?;
        let mut body = Vec::new();
        write_session_body(&mut file, &mut body).map_err(|e| format!("frame: {e}"))?;
        framed.push(body);
    }
    let total_ns = ctx.probe("cg-server", "probe:evaluate_session", |ctx| {
        best_of(|| {
            let mut total = Duration::ZERO;
            for (input, body) in files.iter().zip(&framed) {
                let (result, took) = timed(|| {
                    let mut reader = SessionReader::new(&body[..]);
                    evaluate_session(&mut reader, &Governor::new(limits), &config)
                        .map_err(|e| format!("evaluate_session: {e}"))
                })?;
                total += took;
                let outcome = SubmitOutcome {
                    cached: result.cached,
                    text: result.text,
                };
                ctx.check(
                    "evaluate_session probe",
                    ops::check_verdict(&outcome, input.events, &input.cg),
                );
            }
            Ok(total)
        })
    })?;
    Ok(total_ns / 1e6 / files.len() as f64)
}

/// Session framing alone: `write_session_body` into memory, drained back
/// through a `SessionReader` (framing + CRC32 + FNV, no socket).
fn proto_probe(ctx: &mut Ctx, files: &[TraceFile]) -> Result<(), String> {
    let bodies = files
        .iter()
        .map(|f| std::fs::read(&f.path).map_err(|e| format!("read: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mib = bodies.iter().map(Vec::len).sum::<usize>() as f64 / (1 << 20) as f64;
    let ns = ctx.probe("cg-trace", "probe:proto_frame", |_| {
        best_of(|| {
            let start = Instant::now();
            for body in &bodies {
                let mut framed = Vec::with_capacity(body.len() + 1024);
                write_session_body(&mut &body[..], &mut framed).map_err(|e| e.to_string())?;
                let mut reader = SessionReader::new(&framed[..]);
                let drained =
                    std::io::copy(&mut reader, &mut std::io::sink()).map_err(|e| e.to_string())?;
                if drained != body.len() as u64 || !reader.finished() {
                    return Err("session framing lost bytes".to_string());
                }
            }
            Ok(start.elapsed())
        })
    })?;
    ctx.put("trace.proto_frame_ns_per_mib", ns / mib);
    Ok(())
}

fn trace_mixed(ctx: &mut Ctx, dir: &Path) -> Result<(), String> {
    // The workload's own set-up: goldens, daemon, one warm-up pass.
    let Prepared::ServeMixed { daemon, files } = workloads::prepare("serve_mixed", dir)? else {
        unreachable!("serve_mixed prepares a daemon and the goldens");
    };
    let (started, busy_before) = (Instant::now(), worker_busy(&daemon));
    let addr = daemon.addr();
    let (seed, budget) = (ctx.seed, ctx.traced_budget());

    // The workload's own client loop, first through the public client
    // calls (the untraced reference), then with every session traced.
    let (untraced, whole) = workloads::mixed_sessions(&files, seed, budget, |_, file, route| {
        ops::session(addr, &file.path, route)
    });
    let attempts = untraced.len();
    let mut untraced_ms = Vec::new();
    for (i, done) in untraced.into_iter().enumerate() {
        ctx.check("untraced session", done.result);
        if i < whole {
            untraced_ms.push(done.op);
        }
    }
    let tracer = &ctx.tracer;
    let (traced, whole) = workloads::mixed_sessions(&files, seed, budget, |index, file, route| {
        traced_session(tracer, index as u64 + 1, addr, &file.path, route)
    });
    let window = started.elapsed();
    let attempts = (attempts + traced.len()) as u64;
    let mut by_route = [Vec::new(), Vec::new()];
    let mut traced_ms = Vec::new();
    for (i, done) in traced.into_iter().enumerate() {
        ctx.check("traced session", done.result);
        if i < whole {
            by_route[usize::from(done.route == Route::Stream)].push(done.op);
            traced_ms.push(done.op);
        }
    }
    ctx.put("server.submit_session_ms_p50", median(&by_route[0]));
    ctx.put("server.stream_session_ms_p50", median(&by_route[1]));
    ctx.put(
        "bench.trace_overhead_ratio",
        ratio(mean(&traced_ms), mean(&untraced_ms)),
    );
    phase_metrics(ctx);
    server_counters(ctx, &daemon, window, busy_before, attempts);
    ctx.check("daemon hygiene", daemon.stop());

    // A second, memoizing daemon: each golden submitted twice, second timed.
    let cached_daemon = Daemon::start(&dir.join("cgtd-cached"), DaemonShape::MEMOIZING)?;
    let mut cached = Vec::new();
    for file in &files {
        ops::session(cached_daemon.addr(), &file.path, Route::Submit)?;
        let (outcome, took) =
            timed(|| ops::session(cached_daemon.addr(), &file.path, Route::Submit))?;
        cached.push(took.as_secs_f64() * 1e3);
        ctx.check(
            "cached session",
            if outcome.cached {
                crate::reference::diff("cg", &file.cg, &outcome.cg_entries())
            } else {
                Err("second submission missed the result cache".to_string())
            },
        );
    }
    ctx.put("server.cached_session_ms_p50", median(&cached));
    ctx.put(
        "server.cache_hits",
        cached_daemon.handle().metrics().cache_hits() as f64,
    );
    ctx.check("cached daemon hygiene", cached_daemon.stop());

    let evaluate_ms = evaluate_in_memory(ctx, &files, dir, 1)?;
    ctx.put("server.evaluate_session_ms", evaluate_ms);
    ctx.put(
        "server.proto_overhead_ms",
        (mean(&by_route[0]) - evaluate_ms).max(0.0),
    );
    proto_probe(ctx, &files)?;

    // What a session's evaluation is made of: the replay-side layers over
    // the same eight files.
    let loaded = replay::decode_probes(ctx, &files, dir)?;
    replay::eval_probes(ctx, &files, &loaded, "probe:replay", 0.0)?;
    Ok(())
}

fn trace_sharded(ctx: &mut Ctx, dir: &Path) -> Result<(), String> {
    let reference = Reference::load(ops::MTRT_10.spec)?;
    let path = dir.join("input.cgt");
    record::synthesize_and_record(ctx, &ops::MTRT_10, &reference, &path)?;
    let shape = DaemonShape::sharded();
    let shards = shape.shards as usize;
    let daemon = Daemon::start(&dir.join("cgtd"), shape)?;
    let daemon_started = Instant::now();
    let events = reference.events();

    let mut untraced = Vec::new();
    for round in 0..3 {
        let (outcome, took) = timed(|| ops::session(daemon.addr(), &path, Route::Submit))?;
        if round > 0 {
            untraced.push(took.as_secs_f64() * 1e3);
        }
        ctx.check(
            "untraced session",
            ops::check_verdict(&outcome, events, &reference.cg),
        );
    }
    let started = Instant::now();
    let mut traced = Vec::new();
    loop {
        let session = traced.len() as u64 + 1;
        let (outcome, took) =
            timed(|| traced_session(&ctx.tracer, session, daemon.addr(), &path, Route::Submit))?;
        traced.push(took.as_secs_f64() * 1e3);
        ctx.check(
            "traced session",
            ops::check_verdict(&outcome, events, &reference.cg),
        );
        if started.elapsed().as_secs_f64() >= ctx.traced_budget() {
            break;
        }
    }
    let window = daemon_started.elapsed();
    ctx.put("server.sharded_session_ms_p50", median(&traced));
    ctx.put(
        "bench.trace_overhead_ratio",
        ratio(median(&traced), median(&untraced)),
    );
    phase_metrics(ctx);
    let attempts = (1 + untraced.len() + traced.len()) as u64;
    server_counters(ctx, &daemon, window, Duration::ZERO, attempts);
    ctx.check("daemon hygiene", daemon.stop());

    let inputs = [TraceFile::from_reference(&path, &reference)];
    let evaluate_ms = evaluate_in_memory(ctx, &inputs, dir, shards as u64)?;
    ctx.put("server.evaluate_session_ms", evaluate_ms);
    ctx.put(
        "server.proto_overhead_ms",
        (median(&traced) - evaluate_ms).max(0.0),
    );
    proto_probe(ctx, &inputs)?;
    let loaded = replay::decode_probes(ctx, &inputs, dir)?;

    // The sharded route's own two passes, and the single pass they replace.
    let shard_dir = dir.join("shards");
    let mut parts = None;
    let partition_ns = ctx.probe("cg-trace", "probe:partition", |_| {
        best_of(|| {
            let (made, took) = timed(|| {
                partition_path_streaming(&path, shards, &shard_dir)
                    .map_err(|e| format!("partition: {e}"))
            })?;
            parts = Some(made);
            Ok(took)
        })
    })?;
    let parts = parts.expect("a partition pass completed");
    ctx.put("trace.partition_ns_per_event", partition_ns / loaded.events);
    let written: u64 = parts
        .paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    ctx.put("trace.partition_bytes_written", written as f64);
    let mut per_shard = Vec::new();
    for shard in &parts.paths {
        let mut reader = open_trace(shard).map_err(|e| format!("open shard: {e}"))?;
        while reader
            .next_shard_event()
            .map_err(|e| format!("read shard: {e}"))?
            .is_some()
        {}
        per_shard.push(reader.events_read() as f64);
    }
    ctx.put(
        "trace.shard_skew",
        ratio(
            per_shard.iter().copied().fold(0.0, f64::max),
            mean(&per_shard),
        ),
    );
    let heap = open_trace(&path)
        .map_err(|e| format!("open: {e}"))?
        .meta()
        .heap
        .ok_or("trace header carries no heap configuration")?;
    let sharded_ns = ctx.probe("cg-trace", "probe:sharded_eval", |ctx| {
        best_of(|| {
            let (outcome, took) = timed(|| {
                parallel_eval_streaming_governed(
                    &parts.paths,
                    heap,
                    canonical_config(),
                    &Governor::unlimited(),
                )
                .map_err(|e| format!("sharded eval: {e}"))
            })?;
            let section = cg_trace::footer::cg_section(&outcome.stats, &outcome.breakdown);
            ctx.check("sharded eval probe", reference.check_cg(&section.entries));
            Ok(took)
        })
    })?;
    ctx.put(
        "trace.sharded_eval_ns_per_event",
        sharded_ns / loaded.events,
    );
    let single_ns = best_of(|| timed(|| ops::verify_replay(&path)).map(|(_, took)| took))?;
    ctx.put(
        "trace.sharded_vs_single_ratio",
        ratio(single_ns, partition_ns + sharded_ns),
    );
    Ok(())
}

/// The traced run of `serve_mixed` / `serve_sharded`.
pub fn trace(ctx: &mut Ctx, workload: &str, dir: &Path) -> Result<&'static str, String> {
    if workload == "serve_mixed" {
        trace_mixed(ctx, dir)?;
    } else {
        trace_sharded(ctx, dir)?;
    }
    Ok("session")
}
