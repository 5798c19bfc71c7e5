//! A `TraceWriter` starts at most one compressor thread, only once a
//! compressed stream fills its second chunk, and no such thread outlives
//! its writer: not after `finish`, not after a drop without `finish`, not
//! after a failed write.
//!
//! The threads are counted by name in `/proc/self/task`, so this file holds
//! a single test: no other test of the binary can start writers meanwhile.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use cg_trace::{FaultPlan, FaultyWriter, TraceMeta, TraceWriter};
use cg_vm::{FrameId, FrameInfo, GcEvent, Handle, MethodId, ThreadId};

/// The name the writer gives its compressor thread.
const THREAD_NAME: &str = "cgt-compress";

/// Compressor threads of this process now.
fn compressor_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == THREAD_NAME)
        .count()
}

/// Waits until no compressor thread is left, for at most five seconds: a
/// joined thread's task entry can outlast the join by a moment.
fn assert_none_left(context: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while compressor_threads() > 0 {
        assert!(
            Instant::now() < deadline,
            "{context}: a compressor thread outlived its writer"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn events(count: u32) -> Vec<GcEvent> {
    let frame = FrameInfo {
        id: FrameId::new(1),
        depth: 1,
        thread: ThreadId::MAIN,
        method: MethodId::new(0),
    };
    let mut t = vec![GcEvent::FramePush { frame }];
    t.extend((0..count).map(|i| GcEvent::SlotWrite {
        object: Handle::from_index(i % 977),
        slot: (i % 13) as usize,
        value: None,
        element: i % 2 == 0,
    }));
    t
}

/// A writer over `w` with `events` pushed, and how many compressor
/// threads ran once they were.
fn written<W: std::io::Write>(w: W, events: &[GcEvent], compress: bool) -> (TraceWriter<W>, usize) {
    let mut writer = TraceWriter::with_chunk_events(w, &TraceMeta::default(), 256).expect("header");
    writer.set_compression(compress);
    for event in events {
        writer.push(event).expect("push");
    }
    (writer, compressor_threads())
}

#[test]
fn no_compressor_thread_outlives_its_writer() {
    assert_eq!(compressor_threads(), 0);
    let (short, long) = (events(400), events(5_000));

    // A stream shorter than two chunks, and an uncompressed one, frame
    // inline.
    let (writer, running) = written(Vec::new(), &short, true);
    assert_eq!(running, 0, "one full chunk is framed inline");
    writer.finish().expect("finish");
    let (writer, running) = written(Vec::new(), &long, false);
    assert_eq!(running, 0, "compression is off");
    writer.finish().expect("finish");

    // One thread per writer, from the second full chunk until `finish`...
    let (writer, running) = written(Vec::new(), &long, true);
    assert_eq!(running, 1);
    let (second, running) = written(Vec::new(), &long, true);
    assert_eq!(running, 2, "each writer owns its thread");
    writer.finish().expect("finish");
    second.finish().expect("finish");
    assert_none_left("after finish");

    // ...or until the writer is dropped unfinished,
    let (writer, running) = written(Vec::new(), &long, true);
    assert_eq!(running, 1);
    drop(writer);
    assert_none_left("after a drop without finish");

    // or until a write of a chunk the thread framed fails.
    let sink = FaultyWriter::new(Vec::new(), FaultPlan::error(2_000));
    let mut writer =
        TraceWriter::with_chunk_events(sink, &TraceMeta::default(), 256).expect("header");
    let failed = long
        .iter()
        .map(|event| writer.push(event))
        .find(Result::is_err);
    assert!(failed.is_some(), "the sink fails inside the stream");
    assert_none_left("after a failed write");
    drop(writer);
    assert_none_left("after the failed writer's drop");
}
