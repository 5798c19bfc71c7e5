//! Failure isolation under hostile or unlucky conditions: a panicking
//! shard must become a structured report (with the surviving shards'
//! partial statistics), a dead sibling must not hang its waiters, a
//! cancelled evaluation must stop, and a lying header must be rejected
//! before a single byte of heap is allocated.

use std::time::{Duration, Instant};

use cg_bench::partition_events;
use cg_core::CgConfig;
use cg_heap::HeapConfig;
use cg_trace::footer::canonical_collector;
use cg_trace::{
    parallel_eval_governed, replay_events_governed, replay_path_governed, CancelToken, EvalError,
    Governor, LimitKind, ParallelError, ResourceLimits, ShardEvent, ShardWait, StreamKind,
    TraceMeta, TraceWriter,
};
use cg_vm::{
    AllocKind, ClassId, FrameId, FrameInfo, GcEvent, Handle, MethodId, RootSet, ThreadId, VmConfig,
};
use cg_workloads::{Size, Workload};

fn frame(id: u64, thread: u32) -> FrameInfo {
    FrameInfo {
        id: FrameId::new(id),
        depth: 1,
        thread: ThreadId::new(thread),
        method: MethodId::new(0),
    }
}

fn alloc(handle: u32, thread: u32) -> GcEvent {
    GcEvent::Allocate {
        handle: Handle::from_index(handle),
        class: ClassId::new(0),
        kind: AllocKind::Instance { field_count: 1 },
        frame: frame(1 + u64::from(thread), thread),
        recycled: false,
    }
}

/// A ten-second budget: generous enough that trips in these tests always
/// mean a real failure path fired, tight enough that a hang would fail
/// the test run instead of wedging it.
fn test_limits() -> ResourceLimits {
    ResourceLimits {
        deadline: Some(Duration::from_secs(10)),
        ..ResourceLimits::unlimited()
    }
}

/// A two-thread stream whose second shard panics on the §3.3
/// pre-escalation invariant (a foreign store with no preceding
/// cross-thread access), while the first shard's stream is complete and
/// self-contained.  No trailing `ProgramEnd` barrier: shard 0 must not
/// owe shard 1 anything, so its statistics survive the wreck.
fn trace_with_poisoned_second_shard() -> Vec<GcEvent> {
    vec![
        alloc(0, 0),
        alloc(1, 1),
        GcEvent::ReferenceStore {
            source: Handle::from_index(1),
            target: Handle::from_index(0),
            frame: frame(2, 1),
        },
    ]
}

#[test]
fn a_panicking_shard_becomes_a_report_with_partial_stats() {
    let streams = partition_events(&trace_with_poisoned_second_shard(), 2);
    let _quiet = cg_fuzz::QuietPanics::install();

    let started = Instant::now();
    let err = parallel_eval_governed(
        streams.iter().map(Vec::as_slice),
        HeapConfig::small(),
        CgConfig::default(),
        &Governor::new(test_limits()),
    )
    .expect_err("the poisoned shard must fail the evaluation");
    let elapsed = started.elapsed();

    // The panic was caught at the shard boundary and nothing hung: the
    // call returned well inside the deadline, as an error value.
    assert!(
        elapsed < Duration::from_secs(10),
        "returned in {elapsed:?}, not by deadline trip"
    );
    let ParallelError::Shards {
        shard_errors,
        partial,
    } = &err
    else {
        panic!("expected per-shard failures, got {err}");
    };
    assert_eq!(shard_errors.len(), 1, "exactly one shard fails: {err}");
    let (shard, eval) = &shard_errors[0];
    assert_eq!(*shard, 1);
    let EvalError::ShardPanicked { shard: 1, message } = eval else {
        panic!("expected ShardPanicked, got {eval}");
    };
    assert!(
        message.contains("pre-escalation invariant"),
        "panic payload survives into the report: {message}"
    );

    // The healthy shard's work is reported, not discarded.
    let partial = partial.as_deref().expect("shard 0 completed");
    assert_eq!(partial.shard_count, 1, "one shard completed");
    assert_eq!(
        partial.events_replayed, 1,
        "shard 0 replayed its allocation"
    );
    assert_eq!(partial.stats.objects_created, 1);
}

#[test]
fn a_dead_sibling_stalls_the_waiter_into_a_structured_error() {
    // A healthy two-shard stream (one allocation per thread)...
    let shard = |shard: u32, seq: u64, waits: Vec<ShardWait>| {
        let meta = TraceMeta {
            stream: StreamKind::Shard {
                shard,
                shard_count: 2,
            },
            ..TraceMeta::default()
        };
        let mut writer = TraceWriter::new(Vec::new(), &meta).expect("header");
        let event = alloc(shard, shard);
        writer
            .push_shard(&ShardEvent { seq, waits, event })
            .expect("push");
        writer.finish().expect("finish").0
    };
    // ...except shard 0's event demands progress shard 1 will never make —
    // the partitioned equivalent of a sibling that died mid-file.
    let never = ShardWait {
        shard: 1,
        processed: u64::MAX,
    };
    let streams = [shard(0, 0, vec![never]), shard(1, 1, Vec::new())];

    let deadline = Duration::from_millis(300);
    let limits = ResourceLimits {
        deadline: Some(deadline),
        ..ResourceLimits::unlimited()
    };
    let started = Instant::now();
    let err = parallel_eval_governed(
        streams.iter().map(Vec::as_slice),
        HeapConfig::small(),
        CgConfig::default(),
        &Governor::new(limits),
    )
    .expect_err("the unsatisfiable wait must fail the evaluation");
    let elapsed = started.elapsed();

    assert!(
        elapsed < Duration::from_secs(10),
        "the stalled shard gave up at the deadline, not never: {elapsed:?}"
    );
    let ParallelError::Shards { shard_errors, .. } = &err else {
        panic!("expected per-shard failures, got {err}");
    };
    let stalled = shard_errors
        .iter()
        .find_map(|(_, e)| match e {
            EvalError::ShardStalled {
                shard, waiting_on, ..
            } => Some((*shard, *waiting_on)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected a ShardStalled report, got {err}"));
    assert_eq!(stalled, (0, 1), "shard 0 reports the sibling it waited on");
}

#[test]
fn cancellation_interrupts_a_governed_replay() {
    let db = Workload::by_name("db").expect("db exists");
    let config = VmConfig::default();
    let (trace, _) =
        cg_bench::record_events("db/cancel", db.program(Size::S1), config).expect("recording db/1");

    let cancel = CancelToken::new();
    cancel.cancel();
    let governor = Governor::with_cancel(ResourceLimits::unlimited(), cancel);
    let err = replay_events_governed(
        trace.iter().map(Ok),
        config.heap,
        canonical_collector(),
        &governor,
    )
    .expect_err("a cancelled evaluation must not complete");
    assert!(
        matches!(err, EvalError::Cancelled),
        "expected Cancelled, got {err}"
    );
}

#[test]
fn an_oversized_header_heap_is_rejected_before_allocation() {
    // A tiny, perfectly valid event stream whose header demands an
    // absurd heap.  If admission control ever ran *after* heap
    // construction, this test would not fail an assertion — it would
    // take the test process down with it.
    let trace = [
        alloc(0, 0),
        GcEvent::ProgramEnd {
            roots: Box::new(RootSet::default()),
        },
    ];
    let huge = HeapConfig {
        object_space_bytes: usize::MAX / 4,
        handle_space_bytes: usize::MAX / 4,
        ..HeapConfig::small()
    };
    let meta = TraceMeta {
        name: "liar".to_string(),
        heap: Some(huge),
        declared_events: Some(trace.len() as u64),
        ..TraceMeta::default()
    };
    let mut writer = TraceWriter::new(Vec::new(), &meta).expect("header");
    for event in &trace {
        writer.push(event).expect("push");
    }
    let (bytes, _) = writer.finish().expect("serialize");
    let dir = std::env::temp_dir().join(format!("cg-robustness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("liar.cgt");
    std::fs::write(&path, &bytes).expect("write trace");

    let governor = Governor::new(ResourceLimits::untrusted());
    let started = Instant::now();
    let err = replay_path_governed(&path, None, canonical_collector(), &governor)
        .expect_err("the lying header must be rejected");
    assert!(
        matches!(
            err,
            EvalError::LimitExceeded {
                kind: LimitKind::HeapBytes,
                ..
            }
        ),
        "expected a heap-byte budget rejection, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "rejection happened at admission, not after an allocation attempt"
    );

    // The parallel entry point applies the same admission check.
    let streams = partition_events(&trace, 2);
    let err = parallel_eval_governed(
        streams.iter().map(Vec::as_slice),
        huge,
        CgConfig::default(),
        &governor,
    )
    .expect_err("the oversized config must be rejected");
    let ParallelError::Rejected(EvalError::LimitExceeded {
        kind: LimitKind::HeapBytes,
        ..
    }) = &err
    else {
        panic!("expected a pre-spawn rejection, got {err}");
    };

    let _ = std::fs::remove_dir_all(&dir);
}
