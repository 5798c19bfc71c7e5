//! Property-style `.cgt` round-trip over fuzz-generated traces: for random
//! programs from all six generator profiles, encode→decode is the identity
//! on the recorded event stream — through in-memory bytes, compressed and
//! raw, and through the streaming partitioner's per-shard files.  The
//! reference is the event stream captured straight from the live VM by a
//! plain vector sink, independent of the codec under test.  This is the
//! corpus-facing guarantee: any stream the VM can emit survives
//! persistence bit-for-bit.

use std::cell::RefCell;
use std::rc::Rc;

use cg_fuzz::{fuzz_vm_config, generate, GenProfile};
use cg_trace::{
    partition_path_streaming, record_streaming, TraceMeta, TraceReader, TraceStats, TraceWriter,
};
use cg_vm::{EventSink, GcEvent, NoopCollector, Program, Vm, VmConfig};

/// Keeps a copy of every event the VM emits.
#[derive(Debug, Default, Clone)]
struct Capture(Rc<RefCell<Vec<GcEvent>>>);

impl EventSink for Capture {
    fn record(&mut self, event: &GcEvent) {
        self.0.borrow_mut().push(event.clone());
    }
}

/// A generated program and the configuration it records under.
fn generated(seed: u64, profile: &GenProfile) -> (Program, VmConfig) {
    // Every other seed adds forced periodic collections so Collect events
    // (with their root-set snapshots) are exercised by the round-trip too.
    let forced_gc = seed.is_multiple_of(2).then_some(512);
    (generate(seed, profile), fuzz_vm_config(forced_gc))
}

/// The events a live run of `program` emits, as a plain vector.
fn captured(program: &Program, config: VmConfig) -> Vec<GcEvent> {
    let capture = Capture::default();
    let mut vm = Vm::new(program.clone(), config, NoopCollector::new());
    vm.set_event_sink(Box::new(capture.clone()));
    vm.run().expect("generated programs terminate");
    drop(vm.take_event_sink());
    capture.0.take()
}

/// `program` recorded as `.cgt` bytes.
fn recorded(program: &Program, config: VmConfig) -> Vec<u8> {
    let meta = TraceMeta {
        name: program.name().to_string(),
        ..TraceMeta::default()
    };
    let (.., bytes) = record_streaming(
        &meta,
        program.clone(),
        config,
        NoopCollector::new(),
        Vec::new(),
    )
    .expect("generated programs terminate and record");
    bytes
}

fn census(events: &[GcEvent]) -> TraceStats {
    let mut stats = TraceStats::default();
    for event in events {
        stats.record(event.kind());
    }
    stats
}

#[test]
fn fuzz_traces_round_trip_through_cgt_bytes() {
    for profile in GenProfile::all() {
        for seed in 0..8u64 {
            let (program, config) = generated(seed ^ 0xC61_7A5E, profile);
            let live = captured(&program, config);
            let bytes = recorded(&program, config);
            let mut reader = TraceReader::new(&bytes[..]).expect("header");
            let decoded = reader
                .events()
                .collect::<Result<Vec<_>, _>>()
                .expect("decode");
            assert_eq!(decoded, live, "{}/{seed}", profile.name);
            assert_eq!(reader.meta().name, program.name());
            let footer = reader.footer().expect("footer");
            assert_eq!(footer.counts, census(&live).counts(), "{}", profile.name);
        }
    }
}

#[test]
fn fuzz_traces_round_trip_uncompressed() {
    // The raw codec path (chunks stored verbatim) must be lossless too.
    for profile in GenProfile::all() {
        let (program, config) = generated(99, profile);
        let live = captured(&program, config);
        let mut writer = TraceWriter::new(Vec::new(), &TraceMeta::default()).expect("writer");
        writer.set_compression(false);
        for event in &live {
            writer.push(event).expect("push");
        }
        let (bytes, _) = writer.finish().expect("finish");
        let decoded = TraceReader::new(&bytes[..])
            .and_then(|mut reader| reader.events().collect::<Result<Vec<_>, _>>())
            .expect("read");
        assert_eq!(decoded, live, "{}", profile.name);
    }
}

#[test]
fn fuzz_traces_partition_to_disk_and_back() {
    let dir = std::env::temp_dir().join(format!("cgt-fuzz-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for profile in GenProfile::all() {
        // The threads profile exercises real cross-shard wait edges; the
        // others mostly stay single-threaded — both shapes must survive.
        let (program, config) = generated(7, profile);
        let live = captured(&program, config);
        let src = dir.join(format!("{}.cgt", profile.name));
        std::fs::write(&src, recorded(&program, config)).expect("write recording");
        for shards in [1, 2, 3] {
            let sub = dir.join(format!("{}-{shards}", profile.name));
            let placed = partition_path_streaming(&src, shards, &sub).expect("partition to disk");
            // Every shard event back at its global sequence number.
            let mut slots: Vec<Option<GcEvent>> = vec![None; live.len()];
            for path in &placed.paths {
                let file = std::fs::File::open(path).expect("shard file");
                let mut reader = TraceReader::new(std::io::BufReader::new(file)).expect("header");
                for ev in reader.shard_events() {
                    let ev = ev.expect("shard decodes");
                    let slot = &mut slots[ev.seq as usize];
                    assert!(slot.is_none(), "seq {} routed twice", ev.seq);
                    *slot = Some(ev.event);
                }
            }
            let merged: Vec<GcEvent> = slots.into_iter().map(|e| e.expect("routed")).collect();
            assert_eq!(merged, live, "{}/{shards}", profile.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
