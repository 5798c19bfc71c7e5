//! Property: partitioning a trace into `n` shard streams and putting every
//! decoded shard event back at its sequence number is the identity on
//! fuzz-generated traces — not just on the workload traces `cg-bench`
//! already pins — including the degenerate shapes: traces with zero
//! cross-shard syncs and all-static traces.

use cg_fuzz::{check_round_trip, fuzz_vm_config, generate, GenProfile};
use cg_trace::{partition_streaming, record_streaming, TraceMeta, TraceReader};
use cg_vm::{GcEvent, NoopCollector};

const SHARDS: [usize; 5] = [1, 2, 3, 4, 8];

fn record_trace(profile: &GenProfile, seed: u64) -> Vec<GcEvent> {
    let program = generate(seed, profile);
    let meta = TraceMeta {
        name: program.name().to_string(),
        ..TraceMeta::default()
    };
    let (.., bytes) = record_streaming(
        &meta,
        program,
        fuzz_vm_config(Some(512)),
        NoopCollector::new(),
        Vec::new(),
    )
    .expect("generated programs run");
    TraceReader::new(&bytes[..])
        .and_then(|mut reader| reader.events().collect())
        .expect("recording decodes")
}

/// Partitions `trace` into `shards` in-memory shard streams: how many
/// events each holds, and the cross-thread synchronisation count.
fn shard_sizes(trace: &[GcEvent], shards: usize) -> (Vec<u64>, u64) {
    let (streams, syncs) = partition_streaming(
        trace.iter().cloned().map(Ok),
        &TraceMeta::default(),
        vec![Vec::new(); shards],
    )
    .expect("in-memory partition");
    let sizes = streams
        .iter()
        .map(|bytes| {
            let mut reader = TraceReader::new(&bytes[..]).expect("shard header");
            reader
                .shard_events()
                .try_for_each(|ev| ev.map(drop))
                .expect("shard decodes");
            reader.events_read()
        })
        .collect();
    (sizes, syncs)
}

#[test]
fn fuzz_traces_round_trip_for_every_profile() {
    for profile in GenProfile::all() {
        for seed in 40..52u64 {
            let trace = record_trace(profile, seed);
            check_round_trip(&trace, &SHARDS)
                .unwrap_or_else(|e| panic!("{}/{seed}: {e}", profile.name));
        }
    }
}

/// A single-threaded trace with its barriers stripped has zero cross-shard
/// synchronisation points for any shard count (all events route to the main
/// thread's shard), and still round-trips.
#[test]
fn zero_sync_traces_round_trip() {
    // deep-calls never spawns threads, so every event belongs to thread 0;
    // scan a few seeds for a trace of useful size.
    let full = (0..32u64)
        .map(|seed| record_trace(&cg_fuzz::generator::DEEP_CALLS, seed))
        .find(|t| t.len() > 80)
        .expect("some deep-calls seed yields a non-trivial trace");
    let stripped: Vec<GcEvent> = full
        .into_iter()
        .filter(|event| !matches!(event, GcEvent::Collect { .. } | GcEvent::ProgramEnd { .. }))
        .collect();
    assert!(stripped.len() > 50, "stripped trace is too trivial");
    for n in SHARDS {
        let (sizes, syncs) = shard_sizes(&stripped, n);
        assert_eq!(
            syncs, 0,
            "{n} shards: single-threaded barrier-free trace must need no syncs"
        );
        // Everything routed to thread 0's shard.
        let occupied = sizes.iter().filter(|&&size| size > 0).count();
        assert_eq!(occupied, 1, "{n} shards");
    }
    check_round_trip(&stripped, &SHARDS).expect("round trip");
}

/// An all-static trace: every allocation is immediately pinned by a static
/// store, so every block lives in the static domain.  Partition/merge must
/// still be the identity.
#[test]
fn all_static_traces_round_trip() {
    use cg_vm::{AllocKind, ClassId, FrameId, FrameInfo, Handle, MethodId, RootSet, ThreadId};
    let frame = |thread: u32| FrameInfo {
        id: FrameId::new(1 + u64::from(thread)),
        depth: 1,
        thread: ThreadId::new(thread),
        method: MethodId::new(0),
    };
    let mut trace = Vec::new();
    for t in 0..3u32 {
        trace.push(GcEvent::FramePush { frame: frame(t) });
    }
    for i in 0..30u32 {
        let thread = i % 3;
        let handle = Handle::from_index(i);
        trace.push(GcEvent::Allocate {
            handle,
            class: ClassId::new(0),
            kind: AllocKind::Instance { field_count: 1 },
            frame: frame(thread),
            recycled: false,
        });
        trace.push(GcEvent::StaticStore { target: handle });
        if i >= 3 {
            // Static x static stores across threads.
            trace.push(GcEvent::ReferenceStore {
                source: handle,
                target: Handle::from_index(i - 3),
                frame: frame(thread),
            });
        }
    }
    for t in 0..3u32 {
        trace.push(GcEvent::FramePop { frame: frame(t) });
    }
    trace.push(GcEvent::ProgramEnd {
        roots: Box::new(RootSet::default()),
    });
    check_round_trip(&trace, &SHARDS).expect("all-static round trip");
    // The cross-thread static stores are explicit sync points.
    assert!(shard_sizes(&trace, 3).1 > 0);
}
