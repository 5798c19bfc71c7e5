//! Fault-injection matrix: every `.cgt` read/write path driven through
//! [`FaultyReader`]/[`FaultyWriter`], plus an allocation-failure sweep.
//! Every injected fault — short reads, torn writes, bit flips, hard I/O
//! errors, heap exhaustion at an arbitrary allocation — must degrade to a
//! structured error ([`TraceIoError`], [`ReplayError`], [`EvalError`]),
//! never a panic, never a silent misread.

use cg_core::ContaminatedGc;
use cg_heap::HeapConfig;
use cg_trace::footer::canonical_collector;
use cg_trace::{
    replay_events_governed, replay_path_governed, rewrite_trace, EvalError, FaultPlan,
    FaultyReader, FaultyWriter, Governor, ReplayError, Replayed, RewriteOptions, TraceIoError,
    TraceMeta, TraceReader, TraceWriter,
};
use cg_vm::{AllocKind, ClassId, FrameId, FrameInfo, GcEvent, Handle, MethodId, RootSet, ThreadId};
use std::io::{Read, Write};
use std::path::PathBuf;

fn frame(id: u64) -> FrameInfo {
    FrameInfo {
        id: FrameId::new(id),
        depth: 1,
        thread: ThreadId::MAIN,
        method: MethodId::new(0),
    }
}

/// A trace that allocates `allocs` objects and then writes references among
/// them; handles are minted sequentially, so a fresh shadow heap replays it
/// exactly.
fn allocating_trace(allocs: u32, writes: u32) -> Vec<GcEvent> {
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

/// Writes `events` as a `.cgt` stream whose header declares their count.
fn write_trace<W: Write>(w: W, events: &[GcEvent]) -> Result<W, TraceIoError> {
    let meta = TraceMeta {
        declared_events: Some(events.len() as u64),
        ..TraceMeta::default()
    };
    let mut writer = TraceWriter::new(w, &meta)?;
    for event in events {
        writer.push(event)?;
    }
    Ok(writer.finish()?.0)
}

/// Reads a whole plain stream, to and including its footer.
fn read_trace(r: impl Read) -> Result<Vec<GcEvent>, TraceIoError> {
    let mut reader = TraceReader::new(r)?;
    reader.events().collect()
}

/// Replays decoded events under the canonical collector.
fn replay(events: &[GcEvent], heap: HeapConfig) -> Result<Replayed<ContaminatedGc>, EvalError> {
    replay_events_governed(
        events.iter().map(Ok),
        heap,
        canonical_collector(),
        &Governor::unlimited(),
    )
}

/// A multi-chunk serialized trace for the I/O fault matrix.
fn matrix_bytes() -> (Vec<GcEvent>, Vec<u8>) {
    let trace = allocating_trace(512, 15_000);
    let bytes = write_trace(Vec::new(), &trace).expect("write");
    (trace, bytes)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgt-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn short_reads_of_every_size_decode_identically() {
    // A reader that delivers as little as one byte per call is legal I/O
    // behaviour, not corruption: every read path must loop, not assume
    // full buffers.
    let (trace, bytes) = matrix_bytes();
    for max_io in [1, 2, 3, 5, 7, 13, 64, 4096] {
        let reader = FaultyReader::new(&bytes[..], FaultPlan::short(max_io));
        let decoded = read_trace(reader)
            .unwrap_or_else(|e| panic!("short reads of {max_io} must still decode: {e}"));
        assert_eq!(decoded, trace, "short reads of {max_io} changed the trace");
    }
}

#[test]
fn injected_read_errors_at_every_region_are_clean() {
    // March a hard I/O failure across the file: header, chunk bodies,
    // footer. Every position must surface as a structured TraceIoError.
    let (_, bytes) = matrix_bytes();
    let stride = (bytes.len() / 97).max(1);
    for offset in (0..bytes.len() as u64).step_by(stride) {
        let reader = FaultyReader::new(&bytes[..], FaultPlan::error(offset));
        let err = read_trace(reader).expect_err("an injected I/O error must not parse");
        assert!(
            matches!(err, TraceIoError::Io(_) | TraceIoError::Truncated { .. }),
            "offset {offset}: unexpected error {err}"
        );
    }
}

#[test]
fn bit_flips_never_silently_corrupt_a_decode() {
    // Flip one bit at a stride of offsets through the whole file.  The
    // CRC framing must either reject the stream or (never observed, but
    // the property we actually care about) decode it to the identical
    // trace — a *different* trace decoding successfully is the one
    // unacceptable outcome.
    let (trace, bytes) = matrix_bytes();
    let stride = (bytes.len() / 211).max(1);
    let mut rejected = 0u32;
    let mut total = 0u32;
    for offset in (0..bytes.len() as u64).step_by(stride) {
        for mask in [0x01u8, 0x80u8] {
            total += 1;
            let reader = FaultyReader::new(&bytes[..], FaultPlan::flip(offset, mask));
            match read_trace(reader) {
                Err(_) => rejected += 1,
                Ok(decoded) => assert_eq!(
                    decoded, trace,
                    "flip at {offset} mask {mask:#x} silently corrupted the decode"
                ),
            }
        }
    }
    assert!(
        rejected * 10 >= total * 9,
        "CRC framing should catch nearly every flip ({rejected}/{total} caught)"
    );
}

#[test]
fn short_writes_still_produce_a_valid_stream() {
    // A writer that accepts a few bytes per call (pipe, socket, nearly
    // full buffer) must not tear the format: write paths must use
    // write_all semantics.
    let (trace, bytes) = matrix_bytes();
    let writer = FaultyWriter::new(Vec::new(), FaultPlan::short(3));
    let written = write_trace(writer, &trace)
        .expect("short writes must still succeed")
        .into_inner();
    assert_eq!(written, bytes, "short writes changed the serialized bytes");
}

#[test]
fn torn_writes_error_cleanly_and_the_torn_prefix_never_parses() {
    let (trace, bytes) = matrix_bytes();
    let stride = (bytes.len() / 53).max(1);
    for offset in (0..bytes.len() as u64).step_by(stride) {
        let writer = FaultyWriter::new(Vec::new(), FaultPlan::error(offset));
        let err = write_trace(writer, &trace)
            .err()
            .unwrap_or_else(|| panic!("write must fail at torn offset {offset}"));
        assert!(
            matches!(err, TraceIoError::Io(_)),
            "offset {offset}: unexpected error {err}"
        );
        // What such a crash leaves on disk is exactly the first `offset`
        // bytes; reading that prefix back must fail structurally too.
        if (offset as usize) < bytes.len() {
            read_trace(&bytes[..offset as usize])
                .expect_err("a torn prefix must never parse as a full trace");
        }
    }
}

#[test]
fn flips_injected_at_write_time_are_caught_at_read_time() {
    // Corruption introduced on the write side (controller bug, bad cable)
    // is indistinguishable on disk from read-side corruption; the CRCs
    // must catch it just the same.
    let (trace, clean) = matrix_bytes();
    for offset in [40u64, 200, 2_000, 20_000] {
        let writer = FaultyWriter::new(Vec::new(), FaultPlan::flip(offset, 0x10));
        let written = write_trace(writer, &trace)
            .expect("flips do not fail the write itself")
            .into_inner();
        if (offset as usize) < clean.len() {
            assert_ne!(written, clean, "flip at {offset} must land");
            match read_trace(&written[..]) {
                Err(_) => {}
                Ok(decoded) => assert_eq!(
                    decoded, trace,
                    "write-side flip at {offset} silently corrupted the decode"
                ),
            }
        }
    }
}

#[test]
fn corrupt_files_fail_structurally_through_rewrite_and_governed_replay() {
    // The path-based entry points (`rewrite_trace`, `replay_path_governed`)
    // sit above the same decoder; a corrupt file must surface as a
    // structured error from both — and from the governed path as
    // `EvalError::Trace`, before any replay work happens.
    let (_, bytes) = matrix_bytes();
    let dir = scratch_dir("paths");
    let src = dir.join("corrupt.cgt");
    let dst = dir.join("rewritten.cgt");
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x08;
    std::fs::write(&src, &corrupt).expect("write corrupt file");

    let err = rewrite_trace(&src, &dst, &RewriteOptions::default())
        .expect_err("rewriting a corrupt trace must fail");
    assert!(
        matches!(
            err,
            TraceIoError::CrcMismatch { .. }
                | TraceIoError::Malformed { .. }
                | TraceIoError::Truncated { .. }
        ),
        "unexpected rewrite error {err}"
    );

    let err = replay_path_governed(
        &src,
        Some(HeapConfig::small()),
        canonical_collector(),
        &Governor::unlimited(),
    )
    .expect_err("replaying a corrupt trace must fail");
    assert!(
        matches!(err, EvalError::Trace(_)),
        "unexpected replay error {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_writes_through_the_streaming_writer_error_cleanly() {
    // Drive the chunked TraceWriter directly over a failing sink: the
    // failure may surface on push (chunk flush) or on finish (footer
    // write), but always as a TraceIoError.  The short trace fits in one
    // chunk, framed inline; the long one spans five, so every offset past
    // its first chunk fails a write of a chunk its compressor thread
    // framed.
    for trace in [allocating_trace(64, 2_000), allocating_trace(64, 20_000)] {
        // Baseline length through the very same streaming path
        // (write_trace would declare the event count in the header and
        // come out longer).
        let full_len = {
            let mut writer = cg_trace::TraceWriter::new(Vec::new(), &TraceMeta::default())
                .expect("clean writer");
            for event in &trace {
                writer.push(event).expect("clean push");
            }
            let (bytes, _) = writer.finish().expect("clean finish");
            bytes.len() as u64
        };
        let offsets = [
            0,
            full_len / 7,
            full_len / 3,
            full_len / 2,
            full_len * 4 / 5,
            full_len - 1,
        ];
        for offset in offsets {
            assert!(
                offset < full_len,
                "fault offset must land inside the stream"
            );
            let sink = FaultyWriter::new(Vec::new(), FaultPlan::error(offset));
            let result = (|| {
                let mut writer = cg_trace::TraceWriter::new(sink, &TraceMeta::default())?;
                for event in &trace {
                    writer.push(event)?;
                }
                writer.finish().map(|_| ())
            })();
            let err = result.expect_err("a failing sink must fail the write");
            assert!(
                matches!(err, TraceIoError::Io(_)),
                "{} events, offset {offset}: unexpected error {err}",
                trace.len()
            );
        }
    }
}

#[test]
fn allocation_failure_at_every_attempt_propagates_cleanly() {
    // Sweep the injected heap failure across every allocation the trace
    // performs: each must come back as ReplayError::Heap — no panic, no
    // partial-state corruption — and the first attempt past the end must
    // replay to the exact baseline statistics.
    const ALLOCS: u32 = 64;
    let trace = allocating_trace(ALLOCS, 500);
    let heap = HeapConfig::small();
    let baseline = replay(&trace, heap).expect("baseline replays");

    for k in 0..u64::from(ALLOCS) {
        let failing = heap.with_alloc_failure_at(k);
        let err = replay(&trace, failing)
            .err()
            .unwrap_or_else(|| panic!("attempt {k} must fail"));
        assert!(
            matches!(err, EvalError::Replay(ReplayError::Heap(_))),
            "attempt {k}: unexpected error {err}"
        );
    }

    // One past the last allocation: the sweep is exhaustive, so this must
    // succeed — and identically to the baseline.
    let past_end = heap.with_alloc_failure_at(u64::from(ALLOCS));
    let replayed =
        replay(&trace, past_end).expect("an injection past the last allocation never fires");
    assert_eq!(
        replayed.outcome.events_replayed,
        baseline.outcome.events_replayed
    );
    assert_eq!(replayed.outcome.live_at_exit, baseline.outcome.live_at_exit);
    assert_eq!(replayed.heap.live_count(), baseline.heap.live_count());
}

#[test]
fn governed_replay_reports_allocation_failure_as_a_replay_error() {
    // The same sweep through the governed entry point: the structured
    // taxonomy wraps the heap failure, it does not panic or misclassify
    // it as a limit trip.
    let trace = allocating_trace(16, 100);
    let failing = HeapConfig::small().with_alloc_failure_at(7);
    let err = replay(&trace, failing).expect_err("the injected failure must fail the replay");
    assert!(
        matches!(err, EvalError::Replay(ReplayError::Heap(_))),
        "unexpected error {err}"
    );
}
