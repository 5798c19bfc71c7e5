//! Hostile chunk framing: the three varints in front of every chunk payload
//! (`event_count`, `raw_len`, `stored_len`) sit outside the payload CRC, so
//! a six-byte edit can make them say anything.  Whatever they say — and
//! whatever any other single byte of the file is changed to — the reader
//! and `replay_path_governed` must come back with a structured error or a
//! clean result: never a panic, never an abort, never an allocation sized by
//! a number the stream has not paid for, and promptly.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cg_heap::HeapConfig;
use cg_trace::footer::canonical_collector;
use cg_trace::{
    partition_streaming, replay_path_governed, EvalError, Governor, TraceIoError, TraceMeta,
    TraceWriter,
};
use cg_vm::{AllocKind, ClassId, FrameId, FrameInfo, GcEvent, Handle, MethodId, RootSet, ThreadId};

/// Counts the bytes each thread requests, so a test can bound what one
/// call allocated whatever its neighbours are doing.
#[path = "../../testutil/counting_alloc.rs"]
mod counting_alloc;

fn frame(id: u64) -> FrameInfo {
    FrameInfo {
        id: FrameId::new(id),
        depth: 1,
        thread: ThreadId::MAIN,
        method: MethodId::new(0),
    }
}

/// A small replayable trace: `allocs` objects, reference writes among them,
/// a frame pop that lets the collector free them, and the program end.
fn small_trace(allocs: u32, writes: u32) -> Vec<GcEvent> {
    let mut t = Vec::new();
    t.push(GcEvent::FramePush { frame: frame(1) });
    for i in 0..allocs {
        t.push(GcEvent::Allocate {
            handle: Handle::from_index(i),
            class: ClassId::new(0),
            kind: AllocKind::Instance { field_count: 2 },
            frame: frame(1),
            recycled: false,
        });
    }
    for i in 0..writes {
        t.push(GcEvent::SlotWrite {
            object: Handle::from_index(i % allocs),
            slot: (i % 2) as usize,
            value: (i % 3 == 0).then(|| Handle::from_index((i + 1) % allocs)),
            element: false,
        });
    }
    t.push(GcEvent::FramePop { frame: frame(1) });
    t.push(GcEvent::ProgramEnd {
        roots: Box::new(RootSet::default()),
    });
    t
}

fn meta() -> TraceMeta {
    TraceMeta {
        name: "hostile".to_string(),
        heap: Some(HeapConfig::small()),
        ..TraceMeta::default()
    }
}

/// `trace` as `.cgt` bytes, `chunk_events` events to a chunk.
fn plain_bytes(trace: &[GcEvent], chunk_events: usize) -> Vec<u8> {
    let mut writer =
        TraceWriter::with_chunk_events(Vec::new(), &meta(), chunk_events).expect("writer");
    for event in trace {
        writer.push(event).expect("push");
    }
    writer.finish().expect("finish").0
}

/// Shard 0 of `trace` partitioned in two, as `.cgt` bytes.
fn shard_bytes(trace: &[GcEvent]) -> Vec<u8> {
    let (mut shards, _) =
        partition_streaming(trace.iter().cloned().map(Ok), &meta(), vec![Vec::new(); 2])
            .expect("partition");
    shards.swap_remove(0)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgt-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The LEB128 varint at `bytes[at..]`: its value and encoded length.
fn varint_at(bytes: &[u8], at: usize) -> (u64, usize) {
    let (mut value, mut len) = (0u64, 0);
    loop {
        let byte = bytes[at + len];
        value |= u64::from(byte & 0x7f) << (7 * len);
        len += 1;
        if byte & 0x80 == 0 {
            return (value, len);
        }
    }
}

fn varint_bytes(mut value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// One framing varint of a well-formed file: what it is and where.
struct FramingVarint {
    what: &'static str,
    chunk: u64,
    at: usize,
    len: usize,
}

/// Walks a well-formed file's framing (see the layout in `format.rs`) and
/// lists the header length plus every chunk's three length varints.
fn framing_varints(bytes: &[u8]) -> Vec<FramingVarint> {
    let mut found = Vec::new();
    let mut at = 4 + 2;
    let (header_len, len) = varint_at(bytes, at);
    found.push(FramingVarint {
        what: "header_len",
        chunk: 0,
        at,
        len,
    });
    at += len + header_len as usize + 4;
    let mut chunk = 0;
    while at < bytes.len() {
        at += 1; // kind
        let mut stored_len = 0;
        for what in ["event_count", "raw_len", "stored_len"] {
            let (value, len) = varint_at(bytes, at);
            found.push(FramingVarint {
                what,
                chunk,
                at,
                len,
            });
            at += len;
            stored_len = value as usize;
        }
        at += 1 + stored_len + 4; // codec, payload, crc
        chunk += 1;
    }
    assert_eq!(at, bytes.len(), "the walk must land on the end of the file");
    found
}

fn with_varint(bytes: &[u8], target: &FramingVarint, value: u64) -> Vec<u8> {
    let mut out = bytes[..target.at].to_vec();
    out.extend(varint_bytes(value));
    out.extend_from_slice(&bytes[target.at + target.len..]);
    out
}

/// Drains `bytes` through a `TraceReader` with the call matching its
/// stream kind.
fn drain(bytes: &[u8]) -> Result<u64, TraceIoError> {
    let mut reader = cg_trace::TraceReader::new(bytes)?;
    if reader.is_shard_stream() {
        while reader.next_shard_event()?.is_some() {}
    } else {
        while reader.next_event()?.is_some() {}
    }
    Ok(reader.events_read())
}

/// One damaged file through both entry points.  Neither may panic (the test
/// would fail) or abort (the test binary would die); both must be prompt;
/// and when they fail they must fail with the structured error types.
fn survive(case: &str, bytes: &[u8], path: &Path) {
    let started = Instant::now();
    let drained = drain(bytes);
    std::fs::write(path, bytes).expect("write damaged file");
    let replayed = replay_path_governed(path, None, canonical_collector(), &Governor::unlimited());
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "{case}: took {took:?}");
    if let (Ok(events), Ok(replayed)) = (&drained, &replayed) {
        assert_eq!(
            *events, replayed.replayed.outcome.events_replayed as u64,
            "{case}: reader and replay disagree on a file both accept"
        );
    }
    if let Err(e) = replayed {
        assert!(
            matches!(e, EvalError::Trace(_) | EvalError::Replay(_)),
            "{case}: unlimited governor reported {e}"
        );
    }
}

#[test]
fn rewritten_event_count_is_malformed_not_an_abort() {
    // The reproducer: five events, the first chunk's count rewritten to
    // 2^50.  Sizing a vector from it asked for 63 PB and aborted.
    let dir = scratch_dir("count");
    let trace = small_trace(2, 0);
    assert_eq!(trace.len(), 5);
    for (kind, bytes) in [
        ("plain", plain_bytes(&trace, 4096)),
        ("shard", shard_bytes(&trace)),
    ] {
        let count = framing_varints(&bytes)
            .into_iter()
            .find(|v| v.what == "event_count")
            .expect("a first chunk");
        let hostile = with_varint(&bytes, &count, 1 << 50);
        // Best of a few attempts, so a descheduled test thread does not
        // read as a slow reader.
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let before = counting_alloc::bytes_allocated();
            let started = Instant::now();
            let err = drain(&hostile).expect_err("a 2^50-event chunk must not read");
            best = best.min(started.elapsed());
            let requested = counting_alloc::bytes_allocated() - before;
            assert!(
                matches!(err, TraceIoError::Malformed { chunk: Some(0), .. }),
                "{kind}: {err}"
            );
            assert!(
                requested < 1 << 20,
                "{kind}: allocated {requested} bytes on the way to the error"
            );
        }
        assert!(best < Duration::from_millis(10), "{kind}: took {best:?}");

        let path = dir.join(format!("{kind}.cgt"));
        std::fs::write(&path, &hostile).expect("write hostile file");
        if kind == "plain" {
            let err =
                replay_path_governed(&path, None, canonical_collector(), &Governor::unlimited())
                    .expect_err("the replay must refuse it too");
            assert!(
                matches!(
                    err,
                    EvalError::Trace(TraceIoError::Malformed { chunk: Some(0), .. })
                ),
                "{err}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn impossible_expansion_is_refused_before_the_buffer_is_sized() {
    // A compressed chunk whose raw length is rewritten to the 1 GiB cap:
    // no token stream of its stored size expands that far, and the reader
    // must say so without first zeroing a gigabyte.
    let trace = small_trace(24, 200);
    let bytes = plain_bytes(&trace, 4096);
    let raw_len = framing_varints(&bytes)
        .into_iter()
        .find(|v| v.what == "raw_len")
        .expect("a first chunk");
    let hostile = with_varint(&bytes, &raw_len, 1 << 30);
    let before = counting_alloc::bytes_allocated();
    let err = drain(&hostile).expect_err("must not read");
    let requested = counting_alloc::bytes_allocated() - before;
    assert!(
        matches!(&err, TraceIoError::Malformed { chunk: Some(0), detail } if detail.contains("expands")),
        "{err}"
    );
    assert!(requested < 1 << 20, "allocated {requested} bytes");
}

#[test]
fn every_framing_varint_rewritten_to_every_hostile_value_fails_cleanly() {
    let dir = scratch_dir("varints");
    let path = dir.join("damaged.cgt");
    let trace = small_trace(24, 200);
    for (kind, bytes) in [
        ("plain", plain_bytes(&trace, 64)),
        ("shard", shard_bytes(&trace)),
    ] {
        let varints = framing_varints(&bytes);
        // The header length, then three lengths per chunk: at least one
        // event chunk (several in the plain file) and the footer chunk.
        let chunks = if kind == "plain" { 5 } else { 2 };
        assert!(varints.len() > 3 * chunks, "{kind}: {}", varints.len());
        for target in &varints {
            for value in [0, 1, 1 << 21, 1 << 32, (1 << 63) - 1] {
                let case = format!("{kind}: chunk {} {} := {value}", target.chunk, target.what);
                survive(&case, &with_varint(&bytes, target, value), &path);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_byte_flip_fails_cleanly() {
    let dir = scratch_dir("flips");
    let path = dir.join("damaged.cgt");
    let trace = small_trace(24, 200);
    for (kind, bytes) in [
        ("plain", plain_bytes(&trace, 64)),
        ("shard", shard_bytes(&trace)),
    ] {
        // The undamaged file is the control.
        assert!(drain(&bytes).expect("clean file reads") > 0, "{kind}");
        let mut damaged = bytes.clone();
        for at in 0..bytes.len() {
            for mask in [0xff, 0x01, 0x80] {
                damaged[at] = bytes[at] ^ mask;
                survive(&format!("{kind}: byte {at} ^ {mask:#04x}"), &damaged, &path);
            }
            damaged[at] = bytes[at];
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
