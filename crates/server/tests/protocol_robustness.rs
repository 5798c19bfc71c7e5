//! Satellite coverage: hostile and broken clients against a live daemon.
//!
//! Every abuse pattern — wrong preamble, torn frames, oversized length
//! prefixes, slowloris drips, mid-stream disconnects — must surface as a
//! structured `ERROR` frame (or a counted handshake failure) and must
//! free the worker slot: after each attack the same daemon still serves
//! a clean session to completion.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cg_server::{spawn, ServerConfig, ServerHandle};
use cg_trace::proto::{self, read_frame, write_frame, write_preamble, ErrorClass, Frame};

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../trace/golden/compress-s1.cgt")
}

/// One worker and short idle timeout: a held slot shows up immediately
/// and a stalled client is cut off fast.
fn test_server(tag: &str) -> (ServerHandle, std::thread::JoinHandle<()>) {
    test_server_with(tag, ServerConfig::default())
}

/// Like [`test_server`] but layered over a caller-tuned config (limits,
/// queue sizes) — the robustness defaults still win where they matter.
fn test_server_with(
    tag: &str,
    config: ServerConfig,
) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let dir = std::env::temp_dir().join(format!("cgtd-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        idle_timeout: Duration::from_millis(300),
        cache_dir: Some(dir),
        memoize: false,
        ..config
    })
    .expect("spawn server")
}

/// Connects, completes the handshake with `open`, and waits for ACCEPTED.
fn accepted_with(addr: &str, open: Frame) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    write_preamble(&mut writer).expect("preamble");
    write_frame(&mut writer, &open).expect("open frame");
    writer.flush().expect("flush");
    match read_frame(&mut reader).expect("reply").expect("frame") {
        Frame::Accepted => (reader, writer),
        other => panic!("expected ACCEPTED, got {other:?}"),
    }
}

/// An accepted `SUBMIT` (whole-upload) session for `tenant`.
fn accepted_session(addr: &str, tenant: &str) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
    accepted_with(
        addr,
        Frame::Submit {
            tenant: tenant.to_string(),
        },
    )
}

/// An accepted live `STREAM` session for `tenant`.
fn accepted_stream(addr: &str, tenant: &str) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
    accepted_with(
        addr,
        Frame::Stream {
            tenant: tenant.to_string(),
        },
    )
}

/// Reads the session verdict and asserts it is an ERROR of `want`.
fn expect_error_class(reader: &mut BufReader<TcpStream>, want: ErrorClass, what: &str) {
    match read_frame(reader).expect("verdict").expect("frame") {
        Frame::Error { class, message } => {
            assert_eq!(class, want, "{what}: server said {class:?}: {message}");
        }
        other => panic!("{what}: expected ERROR, got {other:?}"),
    }
}

/// The daemon still serves a clean session — the abused worker slot was
/// freed, not wedged.
fn assert_recovered(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match proto::submit_path(addr, "clean", &golden(), Some(Duration::from_secs(60))) {
            Ok(outcome) => {
                assert!(outcome.events().unwrap_or(0) > 0);
                return;
            }
            Err(proto::ClientError::Busy { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("daemon did not recover: {e}"),
        }
    }
}

#[test]
fn wrong_preamble_is_refused_with_a_protocol_error() {
    let (handle, join) = test_server("preamble");
    let addr = handle.addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    writer.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    writer.flush().expect("flush");
    expect_error_class(&mut reader, ErrorClass::Protocol, "http client");

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn torn_frame_then_half_close_is_a_structured_protocol_error() {
    let (handle, join) = test_server("torn");
    let addr = handle.addr().to_string();

    let (mut reader, mut writer) = accepted_session(&addr, "torn");
    // A DATA frame header promising 1000 payload bytes, then only 10,
    // then a half-close: the stream ends mid-frame.
    writer.write_all(&[0x02]).expect("kind");
    writer.write_all(&1000u32.to_le_bytes()).expect("len");
    writer.write_all(&[0xAA; 10]).expect("partial payload");
    writer.flush().expect("flush");
    writer
        .get_ref()
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    expect_error_class(&mut reader, ErrorClass::Protocol, "torn frame");

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let (handle, join) = test_server("oversized");
    let addr = handle.addr().to_string();

    let (mut reader, mut writer) = accepted_session(&addr, "oversized");
    // A DATA frame claiming a 4 GiB payload: the length must be rejected
    // on sight, not buffered.
    writer.write_all(&[0x02]).expect("kind");
    writer.write_all(&u32::MAX.to_le_bytes()).expect("len");
    writer.flush().expect("flush");
    expect_error_class(&mut reader, ErrorClass::Protocol, "oversized frame");

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn corrupt_frame_crc_is_a_structured_protocol_error() {
    let (handle, join) = test_server("crc");
    let addr = handle.addr().to_string();

    let (mut reader, mut writer) = accepted_session(&addr, "crc");
    // A well-formed DATA frame with its trailing CRC32 flipped.
    let mut framed = Vec::new();
    write_frame(&mut framed, &Frame::Data(vec![1, 2, 3, 4])).expect("encode");
    let last = framed.len() - 1;
    framed[last] ^= 0xFF;
    writer.write_all(&framed).expect("write");
    writer.flush().expect("flush");
    expect_error_class(&mut reader, ErrorClass::Protocol, "bad frame crc");

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn slowloris_is_cut_off_and_the_slot_freed() {
    let (handle, join) = test_server("slowloris");
    let addr = handle.addr().to_string();

    // Accepted, then silent: the 300ms idle timeout must reclaim the
    // worker, reported as a deadline-class error.
    let (mut reader, _writer) = accepted_session(&addr, "drip");
    expect_error_class(&mut reader, ErrorClass::Deadline, "slowloris");
    assert_eq!(handle.metrics().errors_of(ErrorClass::Deadline), 1);

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn mid_stream_disconnect_frees_the_slot() {
    let (handle, join) = test_server("disconnect");
    let addr = handle.addr().to_string();

    {
        let (_reader, mut writer) = accepted_session(&addr, "vanish");
        // One valid DATA frame, then the client process "dies".
        write_frame(&mut writer, &Frame::Data(vec![0u8; 128])).expect("data");
        writer.flush().expect("flush");
    } // both halves drop: RST/EOF mid-session

    // The worker sees a truncated session; its slot must come back.  The
    // error frame is unobservable (the client is gone), so watch metrics.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.metrics().errors_of(ErrorClass::Protocol) == 0 {
        assert!(Instant::now() < deadline, "disconnect never surfaced");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.metrics().sessions_active(), 0);

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn data_before_submit_is_refused() {
    let (handle, join) = test_server("early-data");
    let addr = handle.addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    write_preamble(&mut writer).expect("preamble");
    write_frame(&mut writer, &Frame::Data(vec![1, 2, 3])).expect("data");
    writer.flush().expect("flush");
    expect_error_class(&mut reader, ErrorClass::Protocol, "data before submit");

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

/// Reads frames until the session verdict, skipping any `PROGRESS` the
/// incremental evaluator emitted first, and asserts an ERROR of `want`.
fn expect_stream_error_class(reader: &mut BufReader<TcpStream>, want: ErrorClass, what: &str) {
    loop {
        match read_frame(reader).expect("verdict").expect("frame") {
            Frame::Progress { .. } => continue,
            Frame::Error { class, message } => {
                assert_eq!(class, want, "{what}: server said {class:?}: {message}");
                return;
            }
            other => panic!("{what}: expected ERROR, got {other:?}"),
        }
    }
}

/// A live stream whose client vanishes mid-body: the incremental
/// evaluator sees a truncated session, counts a protocol error, and the
/// worker slot comes back.
#[test]
fn stream_disconnect_mid_flight_frees_the_slot() {
    let (handle, join) = test_server("stream-disconnect");
    let addr = handle.addr().to_string();

    {
        let (_reader, mut writer) = accepted_stream(&addr, "vanish");
        // The first bytes of a real trace so the server is mid-parse,
        // then the client process "dies".
        let body = std::fs::read(golden()).expect("read golden");
        write_frame(
            &mut writer,
            &Frame::Data(body[..256.min(body.len())].to_vec()),
        )
        .expect("data");
        writer.flush().expect("flush");
    } // both halves drop: RST/EOF mid-stream

    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.metrics().errors_of(ErrorClass::Protocol) == 0 {
        assert!(
            Instant::now() < deadline,
            "stream disconnect never surfaced"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.metrics().sessions_active(), 0, "slot freed");

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

/// A live stream that goes silent: the idle timeout must cut it off with
/// a deadline-class error, exactly like a stalled upload.
#[test]
fn stalled_stream_hits_the_idle_timeout() {
    let (handle, join) = test_server("stream-stall");
    let addr = handle.addr().to_string();

    let (mut reader, _writer) = accepted_stream(&addr, "drip");
    expect_stream_error_class(&mut reader, ErrorClass::Deadline, "stalled stream");
    assert_eq!(handle.metrics().errors_of(ErrorClass::Deadline), 1);

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

/// A live stream that blows through `max_events` *mid-flight*: the
/// incremental evaluator must stop at the budget with a limit-class
/// error instead of replaying to the end first.
#[test]
fn stream_exceeding_max_events_trips_the_limit_mid_flight() {
    let (handle, join) = test_server_with(
        "stream-limit",
        ServerConfig {
            default_limits: cg_trace::ResourceLimits {
                max_events: Some(10),
                ..cg_trace::ResourceLimits::untrusted()
            },
            // `assert_recovered` replays a full golden as tenant "clean";
            // exempt it from the 10-event budget under test.
            tenant_limits: std::collections::HashMap::from([(
                "clean".to_string(),
                cg_trace::ResourceLimits::untrusted(),
            )]),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    let (mut reader, mut writer) = accepted_stream(&addr, "hog");
    // Stream the whole golden; the server may answer (and hang up) while
    // bytes are still in flight, so write errors past that point are
    // expected, not failures.
    let body = std::fs::read(golden()).expect("read golden");
    for chunk in body.chunks(4096) {
        if write_frame(&mut writer, &Frame::Data(chunk.to_vec())).is_err() {
            break;
        }
    }
    let _ = write_frame(&mut writer, &Frame::End);
    let _ = writer.flush();
    expect_stream_error_class(&mut reader, ErrorClass::Limit, "event budget");
    assert_eq!(handle.metrics().sessions_active(), 0, "slot freed");

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

/// `golden()`'s bytes with the first chunk's event count — a varint in the
/// chunk framing, outside every CRC — rewritten to `count`.
fn golden_with_first_event_count(count: u64) -> Vec<u8> {
    let bytes = std::fs::read(golden()).expect("read golden");
    let varint_len = |at: usize| 1 + bytes[at..].iter().take_while(|b| **b & 0x80 != 0).count();
    // magic(4) version(2) header_len(varint) header crc(4) kind(1) count(varint)
    assert_eq!(varint_len(6), 1, "the golden's header is under 128 bytes");
    let count_at = 6 + 1 + usize::from(bytes[6]) + 4 + 1;
    let mut hostile = bytes[..count_at].to_vec();
    let mut rest = count;
    while rest >= 0x80 {
        hostile.push(rest as u8 | 0x80);
        rest >>= 7;
    }
    hostile.push(rest as u8);
    hostile.extend_from_slice(&bytes[count_at + varint_len(count_at)..]);
    hostile
}

/// A trace whose first chunk claims 2^50 events used to make the reader
/// size a vector for them and abort the whole daemon.  Both routes must
/// answer with a structured `ERROR` and leave the daemon serving.
#[test]
fn hostile_chunk_event_count_is_an_error_frame_and_the_daemon_keeps_serving() {
    let (handle, join) = test_server("hostile-count");
    let addr = handle.addr().to_string();
    let hostile = golden_with_first_event_count(1 << 50);
    let timeout = Some(Duration::from_secs(60));

    let path = std::env::temp_dir().join(format!("cgtd-hostile-{}.cgt", std::process::id()));
    std::fs::write(&path, &hostile).expect("write hostile trace");
    let uploaded = proto::submit_path(&addr, "hostile", &path, timeout);
    let _ = std::fs::remove_file(&path);
    let streamed = proto::stream_events(&addr, "hostile", &mut &hostile[..], timeout, |_| {});
    for (route, result) in [("upload", uploaded), ("stream", streamed)] {
        match result {
            Err(proto::ClientError::Server {
                class: ErrorClass::Corrupt,
                message,
            }) => assert!(message.contains("chunk 0"), "{route}: {message}"),
            other => panic!("{route}: expected a Corrupt ERROR, got {other:?}"),
        }
    }
    assert_eq!(handle.metrics().sessions_active(), 0, "slots freed");

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}

/// A torn session must not poison the *next* session on a fresh
/// connection even when both race the same single worker.
#[test]
fn interleaved_abuse_and_clean_sessions_all_resolve() {
    let (handle, join) = test_server("interleaved");
    let addr = handle.addr().to_string();

    let mut abusers = Vec::new();
    for i in 0..4 {
        let addr = addr.clone();
        abusers.push(std::thread::spawn(move || {
            let (mut reader, mut writer) = accepted_session(&addr, &format!("abuser-{i}"));
            writer.write_all(&[0x02]).expect("kind");
            writer.write_all(&64u32.to_le_bytes()).expect("len");
            writer.write_all(&[0u8; 16]).expect("partial");
            writer.flush().expect("flush");
            writer
                .get_ref()
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            expect_error_class(&mut reader, ErrorClass::Protocol, "torn frame");
        }));
    }
    for t in abusers {
        t.join().expect("abuser thread");
    }
    assert_recovered(&addr);
    assert_eq!(handle.metrics().sessions_active(), 0, "no slot leaked");

    handle.shutdown();
    join.join().expect("server thread");
}

/// Opens a session with `open`, then sends the golden trace one byte per
/// `DATA` frame every 100 ms — never idle long enough for the idle timeout
/// — until the server answers.  Returns the first read that is not a
/// `PROGRESS` frame and how long after `ACCEPTED` it came.
fn drip_until_verdict(
    addr: &str,
    open: Frame,
) -> (Result<Option<Frame>, proto::ProtoError>, Duration) {
    let (mut reader, mut writer) = accepted_with(addr, open);
    let accepted = Instant::now();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let body = std::fs::read(golden()).expect("read golden");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for &byte in &body {
                if stop.load(std::sync::atomic::Ordering::SeqCst)
                    || write_frame(&mut writer, &Frame::Data(vec![byte])).is_err()
                    || writer.flush().is_err()
                {
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let verdict = loop {
            match read_frame(&mut reader) {
                Ok(Some(Frame::Progress { .. })) => continue,
                other => break other,
            }
        };
        let took = accepted.elapsed();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        (verdict, took)
    })
}

/// A client that drips one byte every 100 ms never trips the 300 ms idle
/// timeout, so only the governor's deadline can end its session.  Both
/// session kinds must answer `ERROR(Deadline)` within the deadline plus
/// one idle timeout — the bound the daemon promises for giving a worker
/// slot back.
#[test]
fn dripping_sessions_meet_their_deadline() {
    let deadline = Duration::from_secs(1);
    let defaults = ServerConfig::default().default_limits;
    let (handle, join) = test_server_with(
        "drip-deadline",
        ServerConfig {
            default_limits: cg_trace::ResourceLimits {
                deadline: Some(deadline),
                ..defaults
            },
            tenant_limits: std::collections::HashMap::from([("clean".to_string(), defaults)]),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr().to_string();
    let bound = deadline + Duration::from_millis(300);

    let tenant = "drip".to_string();
    for open in [
        Frame::Submit {
            tenant: tenant.clone(),
        },
        Frame::Stream { tenant },
    ] {
        let what = format!("{open:?}");
        let (verdict, took) = drip_until_verdict(&addr, open);
        match verdict {
            Ok(Some(Frame::Error { class, message })) => {
                assert_eq!(class, ErrorClass::Deadline, "{what}: {message}")
            }
            other => panic!("{what}: expected ERROR after {took:?}, got {other:?}"),
        }
        assert!(
            took <= bound,
            "{what}: answered after {took:?}, bound {bound:?}"
        );
    }
    assert_eq!(handle.metrics().errors_of(ErrorClass::Deadline), 2);

    assert_recovered(&addr);
    handle.shutdown();
    join.join().expect("server thread");
}
