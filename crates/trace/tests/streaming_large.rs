//! The acceptance bar for the streaming path: a javac-style trace of over
//! a million events must record straight to disk, replay chunk-by-chunk
//! with O(chunk) resident trace memory, and produce `CgStats` /
//! `ObjectBreakdown` byte-identical to a replay of the same events decoded
//! into memory first.
//!
//! javac at SPEC size 100 yields ~8.5M events.  The test is ignored in
//! debug builds (interpreting size 100 unoptimized takes minutes); CI runs
//! it with `cargo test --release -p cg-trace --test streaming_large`.

use cg_heap::{HandleRepr, HeapConfig};
use cg_trace::footer::{canonical_collector, cg_section, CG_SECTION};
use cg_trace::{
    open_trace, record_streaming, replay_events_governed, replay_path_governed, rewrite_trace,
    Governor, RewriteOptions, TraceMeta, WorkloadRef, DEFAULT_CHUNK_EVENTS,
};
use cg_vm::{NoopCollector, VmConfig};
use cg_workloads::{Size, Workload};

#[test]
#[cfg_attr(debug_assertions, ignore = "size-100 interpretation is release-only")]
fn million_event_javac_trace_streams_with_bounded_memory() {
    let workload = Workload::by_name("javac").expect("javac exists");
    // The passive recording collector never frees, so size 100 needs a
    // heap it cannot exhaust.
    let mut heap = HeapConfig::with_object_space(128 * 1024 * 1024, HandleRepr::CgWide);
    heap.handle_space_bytes = 256 * 1024 * 1024;
    let config = VmConfig {
        heap,
        ..VmConfig::default()
    };

    let dir = std::env::temp_dir().join(format!("cgt-large-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("javac-s100.cgt");

    // Record straight to disk (O(chunk) memory on the recording side).
    let meta = TraceMeta {
        name: "javac/100".to_string(),
        workload: Some(WorkloadRef {
            name: "javac".to_string(),
            size: 100,
        }),
        ..TraceMeta::default()
    };
    let file = std::fs::File::create(&path).expect("create trace file");
    let (outcome, stats, _, w) = record_streaming(
        &meta,
        workload.program(Size::S100),
        config,
        NoopCollector::new(),
        std::io::BufWriter::new(file),
    )
    .expect("recording javac/100 succeeds");
    drop(w);
    assert!(
        stats.total() >= 1_000_000,
        "javac/100 must exceed a million events, got {}",
        stats.total()
    );
    assert_eq!(
        outcome.stats.objects_allocated + outcome.stats.arrays_allocated,
        stats.allocations
    );

    // Streaming replay: chunk-by-chunk, never the whole vector.
    let streamed = replay_path_governed(&path, None, canonical_collector(), &Governor::unlimited())
        .expect("streaming replay succeeds");
    assert!(
        streamed.max_buffered_events <= DEFAULT_CHUNK_EVENTS,
        "streaming replay held {} events at once; the chunk cap is {}",
        streamed.max_buffered_events,
        DEFAULT_CHUNK_EVENTS
    );

    // Replay of the same file decoded into memory first.
    let mut reader = open_trace(&path).expect("open the recording");
    let heap = reader.meta().heap.expect("header embeds the heap");
    let events = reader
        .events()
        .collect::<Result<Vec<_>, _>>()
        .expect("whole-trace read");
    assert_eq!(events.len() as u64, stats.total());
    let in_memory = replay_events_governed(
        events.iter().map(Ok),
        heap,
        canonical_collector(),
        &Governor::unlimited(),
    )
    .expect("in-memory replay succeeds");

    // Byte-identical statistics and breakdown.
    let mut streamed_collector = streamed.replayed.collector;
    let mut memory_collector = in_memory.collector;
    assert_eq!(streamed_collector.stats(), memory_collector.stats());
    assert_eq!(streamed_collector.breakdown(), memory_collector.breakdown());
    assert_eq!(
        streamed.replayed.outcome.live_at_exit,
        in_memory.outcome.live_at_exit
    );
    assert_eq!(
        streamed.replayed.outcome.collector_freed_objects,
        in_memory.outcome.collector_freed_objects
    );

    // And the stats footer a `cgt record` would embed matches both.
    let breakdown = streamed_collector.breakdown();
    let section = cg_section(streamed_collector.stats(), &breakdown);
    let rewritten = dir.join("javac-s100-footer.cgt");
    rewrite_trace(
        &path,
        &rewritten,
        &RewriteOptions {
            add_sections: vec![section.clone()],
            ..RewriteOptions::default()
        },
    )
    .expect("rewrite with footer");
    let mut reader = open_trace(&rewritten).expect("open the rewritten trace");
    reader
        .events()
        .try_for_each(|event| event.map(drop))
        .expect("rewritten trace reads");
    assert_eq!(reader.events_read(), stats.total());
    let footer = reader
        .footer()
        .expect("rewritten trace reads to its footer");
    assert_eq!(
        footer.section(CG_SECTION).expect("stats footer").entries,
        section.entries
    );

    let _ = std::fs::remove_dir_all(&dir);
}
