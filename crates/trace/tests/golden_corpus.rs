//! The committed golden-trace corpus (`crates/trace/golden/*.cgt`) must
//! stay readable and truthful: every file parses, every chunk CRC holds,
//! and replaying the stream under the canonical collector reproduces the
//! embedded stats footer entry for entry.
//!
//! The CI golden-trace job runs the stronger form (`cgt verify
//! --re-record`: a live re-interpretation of each workload must also be
//! byte-identical); [`recording_db_live_matches_its_golden_trace`] keeps a
//! cheap one-workload version of that in the ordinary test suite.  The
//! encoder is deterministic, so re-encoding a golden's events must give
//! back its committed bytes exactly.

use std::path::PathBuf;

use cg_trace::footer::{
    canonical_collector, canonical_heap, cg_section, vm_stats_from_section, CG_SECTION, VM_SECTION,
};
use cg_trace::{
    open_trace, record_streaming, replay_events_governed, replay_path_governed, Governor,
    StreamKind, TraceFooter, TraceMeta, TraceReader, TraceWriter,
};
use cg_vm::{GcEvent, NoopCollector};
use cg_workloads::{Size, Workload};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Decodes a whole `.cgt` stream: its events, header and footer.
fn read_all(mut reader: TraceReader<impl std::io::Read>) -> (Vec<GcEvent>, TraceMeta, TraceFooter) {
    let events = reader
        .events()
        .collect::<Result<Vec<_>, _>>()
        .expect("trace decodes");
    let footer = reader.footer().cloned().expect("the footer was read");
    (events, reader.meta().clone(), footer)
}

fn golden_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(golden_dir())
        .expect("golden corpus directory exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cgt"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_covers_all_eight_workloads() {
    let files = golden_files();
    assert_eq!(files.len(), 8, "one golden trace per workload: {files:?}");
    let mut covered: Vec<String> = Vec::new();
    for file in &files {
        let (_, meta, _) = read_all(open_trace(file).expect("golden trace opens"));
        let workload = meta.workload.expect("golden traces name their workload");
        assert_eq!(workload.size, 1, "golden corpus records size 1");
        covered.push(workload.name);
    }
    covered.sort();
    let mut expected: Vec<String> = Workload::all()
        .into_iter()
        .map(|w| w.name().to_string())
        .collect();
    expected.sort();
    assert_eq!(covered, expected);
}

#[test]
fn every_golden_trace_replays_to_its_embedded_footer() {
    for file in golden_files() {
        // Streaming read: validates magic, header CRC, every chunk CRC and
        // the footer census, while replaying under the canonical collector.
        let streamed =
            replay_path_governed(&file, None, canonical_collector(), &Governor::unlimited())
                .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let mut collector = streamed.replayed.collector;
        let breakdown = collector.breakdown();
        let fresh = cg_section(collector.stats(), &breakdown);
        let stored = streamed
            .footer
            .section(CG_SECTION)
            .unwrap_or_else(|| panic!("{}: no stats footer", file.display()));
        assert_eq!(
            stored.entries,
            fresh.entries,
            "{}: replay statistics must match the stats footer byte for byte",
            file.display()
        );
        assert!(
            matches!(streamed.meta.stream, StreamKind::Plain),
            "golden traces are plain streams"
        );
        assert!(
            streamed.meta.heap.is_some(),
            "golden traces embed their heap configuration"
        );
        // The footer also carries the recording run's interpreter stats.
        let vm = streamed
            .footer
            .section(VM_SECTION)
            .and_then(vm_stats_from_section)
            .unwrap_or_else(|| panic!("{}: no vm stats footer", file.display()));
        assert_eq!(
            vm.objects_allocated + vm.arrays_allocated,
            streamed.footer.counts[cg_vm::EventKind::Allocate.tag() as usize],
            "{}: vm stats must agree with the event census",
            file.display()
        );
    }
}

#[test]
fn streaming_and_in_memory_replay_agree_on_golden_traces() {
    let unlimited = Governor::unlimited();
    // One smaller file keeps this cheap in debug builds; the full sweep
    // happens in the bench crate's streaming-equivalence test.
    let file = golden_dir().join("javac-s1.cgt");
    let (events, meta, _) = read_all(open_trace(&file).expect("javac golden trace opens"));
    let heap = meta.heap.expect("golden traces embed their heap");
    let in_memory = replay_events_governed(
        events.iter().map(Ok),
        heap,
        canonical_collector(),
        &unlimited,
    )
    .expect("in-memory replay");
    let streamed = replay_path_governed(&file, None, canonical_collector(), &unlimited)
        .expect("streaming replay");
    let mut a = in_memory.collector;
    let mut b = streamed.replayed.collector;
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.breakdown(), b.breakdown());
    assert_eq!(
        in_memory.outcome.live_at_exit,
        streamed.replayed.outcome.live_at_exit
    );
    assert!(
        streamed.max_buffered_events <= cg_trace::DEFAULT_CHUNK_EVENTS,
        "streaming replay buffered {} events (chunk cap {})",
        streamed.max_buffered_events,
        cg_trace::DEFAULT_CHUNK_EVENTS
    );
}

#[test]
fn recording_db_live_matches_its_golden_trace() {
    let unlimited = Governor::unlimited();
    // The in-suite miniature of the CI `cgt verify --re-record` gate: a
    // fresh live interpretation of db/1 must reproduce the committed
    // trace's event census and canonical statistics exactly.
    let file = golden_dir().join("db-s1.cgt");
    let (golden, meta, footer) = read_all(open_trace(&file).expect("db golden trace opens"));
    let workload = Workload::by_name("db").expect("db exists");
    let config = cg_vm::VmConfig {
        heap: meta.heap.expect("golden traces embed their heap"),
        gc_every_instructions: meta.gc_every,
        ..cg_vm::VmConfig::default()
    };
    assert_eq!(config.heap, canonical_heap());
    let (.., bytes) = record_streaming(
        &meta,
        workload.program(Size::S1),
        config,
        NoopCollector::new(),
        Vec::new(),
    )
    .expect("re-recording db/1 succeeds");
    let (fresh, ..) = read_all(TraceReader::new(&bytes[..]).expect("fresh recording opens"));
    assert_eq!(fresh, golden, "event streams must be identical");
    let replayed = replay_events_governed(
        fresh.iter().map(Ok),
        config.heap,
        canonical_collector(),
        &unlimited,
    )
    .expect("replay");
    let mut collector = replayed.collector;
    let breakdown = collector.breakdown();
    assert_eq!(
        footer.section(CG_SECTION).expect("stats footer").entries,
        cg_section(collector.stats(), &breakdown).entries,
        "live re-record must replay to byte-identical statistics"
    );
}

#[test]
fn every_golden_trace_re_encodes_to_its_committed_bytes() {
    for file in golden_files() {
        let committed = std::fs::read(&file).expect("golden trace reads");
        let reader = TraceReader::new(&committed[..]).expect("golden trace opens");
        let (events, meta, footer) = read_all(reader);
        let mut writer = TraceWriter::new(Vec::new(), &meta).expect("header");
        for event in &events {
            writer.push(event).expect("in-memory write");
        }
        for section in &footer.sections {
            writer.add_section(section.clone());
        }
        let (bytes, _) = writer.finish().expect("in-memory write");
        assert!(
            bytes == committed,
            "{}: re-encoding its events changed the file ({} bytes, was {})",
            file.display(),
            bytes.len(),
            committed.len()
        );
    }
}
