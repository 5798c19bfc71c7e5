//! The sharded-evaluation invariant, pinned down end to end:
//!
//! for **every** recorded workload trace and **every** shard count in
//! {1, 2, 4, 8}, the parallel sharded evaluation's aggregated `CgStats` and
//! `ObjectBreakdown` are byte-identical to a single-threaded replay of the
//! same trace — and putting the shard streams' events back at their
//! sequence numbers reproduces the original event order exactly.  The
//! routed evaluation `cgtd` runs (one decoded stream, routed in memory to
//! the shard threads) answers the same at 2 and 4 shards.

use cg_bench::{partition_events, record_events};
use cg_core::{CgConfig, ContaminatedGc};
use cg_trace::{
    parallel_eval_governed, parallel_eval_routed_governed, replay_events_governed, EvalError,
    Governor, ParallelError, ParallelOutcome, TraceReader,
};
use cg_vm::{GcEvent, VmConfig};
use cg_workloads::{Size, Workload};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Shard counts the routed evaluation is checked at.
const ROUTED_SHARD_COUNTS: [usize; 2] = [2, 4];

/// The routed evaluation of `trace` on `shards` shard threads.
fn routed(
    trace: &[GcEvent],
    shards: usize,
    heap: cg_heap::HeapConfig,
    config: CgConfig,
) -> ParallelOutcome {
    parallel_eval_routed_governed(
        trace.iter().cloned().map(Ok),
        shards,
        heap,
        config,
        &Governor::unlimited(),
    )
    .unwrap_or_else(|e| panic!("routed ({shards} shards): {e}"))
}

/// Decodes every shard stream and puts each event back at its sequence
/// number.
fn merge(shards: &[Vec<u8>]) -> Vec<GcEvent> {
    let mut events = Vec::new();
    for bytes in shards {
        let mut reader = TraceReader::new(&bytes[..]).expect("shard header");
        for ev in reader.shard_events() {
            events.push(ev.expect("shard decodes"));
        }
    }
    events.sort_by_key(|ev| ev.seq);
    assert!(
        events.iter().enumerate().all(|(i, ev)| ev.seq == i as u64),
        "every sequence number is routed to exactly one shard"
    );
    events.into_iter().map(|ev| ev.event).collect()
}

fn cg_config() -> CgConfig {
    CgConfig {
        // The soundness verifier is a debug aid; equivalence is about the
        // statistics.
        verify_tainted: false,
        ..CgConfig::preferred()
    }
}

#[test]
fn sharded_evaluation_is_byte_identical_for_every_workload_and_shard_count() {
    let unlimited = Governor::unlimited();
    let vm_config = VmConfig::default().with_heap(cg_bench::runner::experiment_heap());
    for workload in Workload::all() {
        let (trace, _) = record_events(
            format!("{}/1", workload.name()),
            workload.program(Size::S1),
            vm_config,
        )
        .unwrap_or_else(|e| panic!("{} records: {e}", workload.name()));

        let single = replay_events_governed(
            trace.iter().map(Ok),
            vm_config.heap,
            ContaminatedGc::with_config(cg_config()),
            &unlimited,
        )
        .unwrap_or_else(|e| panic!("{} replays: {e}", workload.name()));
        let mut single_collector = single.collector;
        let single_breakdown = single_collector.breakdown();

        for shards in SHARD_COUNTS {
            let streams = partition_events(&trace, shards);

            // Partition -> merge by sequence number is the identity.
            assert!(
                merge(&streams) == trace,
                "{}: merge must reproduce the original order ({shards} shards)",
                workload.name()
            );

            // Parallel aggregated statistics are byte-identical.
            let outcome = parallel_eval_governed(
                streams.iter().map(Vec::as_slice),
                vm_config.heap,
                cg_config(),
                &unlimited,
            )
            .unwrap_or_else(|e| panic!("{} parallel ({shards} shards): {e}", workload.name()));
            assert_eq!(
                outcome.stats,
                *single_collector.stats(),
                "{}: CgStats diverged at {shards} shards",
                workload.name()
            );
            assert_eq!(
                outcome.breakdown,
                single_breakdown,
                "{}: ObjectBreakdown diverged at {shards} shards",
                workload.name()
            );
            assert_eq!(outcome.events_replayed, trace.len());
            assert_eq!(
                outcome.collector_freed_objects,
                single.outcome.collector_freed_objects
            );
            assert_eq!(
                outcome.collector_freed_bytes,
                single.outcome.collector_freed_bytes
            );
            assert_eq!(outcome.live_at_exit, single.outcome.live_at_exit);
        }

        for shards in ROUTED_SHARD_COUNTS {
            let outcome = routed(&trace, shards, vm_config.heap, cg_config());
            let name = workload.name();
            assert_eq!(
                outcome.stats,
                *single_collector.stats(),
                "{name}: routed CgStats diverged at {shards} shards"
            );
            assert_eq!(
                outcome.breakdown, single_breakdown,
                "{name}: routed ObjectBreakdown diverged at {shards} shards"
            );
            assert_eq!(outcome.events_replayed, trace.len(), "{name}");
            assert_eq!(
                outcome.collector_freed_objects, single.outcome.collector_freed_objects,
                "{name}"
            );
            assert_eq!(outcome.live_at_exit, single.outcome.live_at_exit, "{name}");
        }
    }
}

#[test]
fn sharded_evaluation_matches_without_the_static_optimisation() {
    let unlimited = Governor::unlimited();
    // The §3.4-off configuration exercises the drag-into-static union paths
    // the optimisation normally skips.
    let vm_config = VmConfig::default().with_heap(cg_bench::runner::experiment_heap());
    let config = CgConfig {
        verify_tainted: false,
        ..CgConfig::without_static_opt()
    };
    let workload = Workload::by_name("javac").expect("javac exists");
    let (trace, _) = record_events("javac/1", workload.program(Size::S1), vm_config)
        .expect("recording succeeds");
    let single = replay_events_governed(
        trace.iter().map(Ok),
        vm_config.heap,
        ContaminatedGc::with_config(config),
        &unlimited,
    )
    .expect("single replay succeeds");
    for shards in SHARD_COUNTS {
        let streams = partition_events(&trace, shards);
        let outcome = parallel_eval_governed(
            streams.iter().map(Vec::as_slice),
            vm_config.heap,
            config,
            &unlimited,
        )
        .expect("parallel succeeds");
        assert_eq!(
            outcome.stats,
            *single.collector.stats(),
            "no-opt CgStats diverged at {shards} shards"
        );
    }
}

/// A panic in one shard must come back as a structured
/// [`EvalError::ShardPanicked`] report (the abort guard releases the
/// siblings during unwinding) instead of deadlocking the evaluation or
/// re-raising the panic in the caller.
#[test]
fn shard_panic_reports_instead_of_hanging() {
    let unlimited = Governor::unlimited();
    use cg_vm::{AllocKind, ClassId, FrameId, FrameInfo, Handle, MethodId, RootSet, ThreadId};
    let frame = |id: u64, thread: u32| FrameInfo {
        id: FrameId::new(id),
        depth: 1,
        thread: ThreadId::new(thread),
        method: MethodId::new(0),
    };
    let alloc = |handle: u32, thread: u32| GcEvent::Allocate {
        handle: Handle::from_index(handle),
        class: ClassId::new(0),
        kind: AllocKind::Instance { field_count: 1 },
        frame: frame(1 + thread as u64, thread),
        recycled: false,
    };
    // An ill-formed stream: thread 1 stores thread 0's object without
    // the preceding cross-thread ObjectAccess, so shard 1 panics on the
    // §3.3 invariant — while shard 0's ProgramEnd barrier waits on it.
    let trace = [
        alloc(0, 0),
        alloc(1, 1),
        GcEvent::ReferenceStore {
            source: Handle::from_index(1),
            target: Handle::from_index(0),
            frame: frame(2, 1),
        },
        GcEvent::ProgramEnd {
            roots: Box::new(RootSet::default()),
        },
    ];
    let streams = partition_events(&trace, 2);
    let _quiet = cg_fuzz::QuietPanics::install();
    let err = parallel_eval_governed(
        streams.iter().map(Vec::as_slice),
        cg_heap::HeapConfig::small(),
        CgConfig::default(),
        &unlimited,
    )
    .expect_err("the ill-formed stream must fail");
    match &err {
        ParallelError::Shards { shard_errors, .. } => {
            assert_eq!(shard_errors.len(), 1, "exactly one shard fails: {err}");
            let (shard, eval) = &shard_errors[0];
            assert_eq!(*shard, 1, "the storing shard is the one that panics");
            match eval {
                EvalError::ShardPanicked { shard: 1, message } => {
                    assert!(
                        message.contains("pre-escalation invariant"),
                        "panic message survives: {message}"
                    );
                }
                other => panic!("expected ShardPanicked, got {other}"),
            }
        }
        ParallelError::Rejected(other) | ParallelError::Stream(other) => {
            panic!("expected shard failures, got {other}")
        }
    }
}

#[test]
fn parallel_eval_matches_single_threaded_replay_on_mtrt() {
    let unlimited = Governor::unlimited();
    let workload = Workload::by_name("mtrt").expect("mtrt exists");
    let config = VmConfig::default().with_heap(cg_bench::runner::experiment_heap());
    let (trace, _) =
        record_events("mtrt/1", workload.program(Size::S1), config).expect("recording succeeds");
    let collector = ContaminatedGc::with_config(cg_config());
    let single = replay_events_governed(trace.iter().map(Ok), config.heap, collector, &unlimited)
        .expect("single replay succeeds");
    let mut single_collector = single.collector;
    let single_breakdown = single_collector.breakdown();
    for shards in [1, 2, 4] {
        let streams = partition_events(&trace, shards);
        let outcome = parallel_eval_governed(
            streams.iter().map(Vec::as_slice),
            config.heap,
            cg_config(),
            &unlimited,
        )
        .expect("parallel succeeds");
        assert_eq!(outcome.stats, *single_collector.stats(), "{shards} shards");
        assert_eq!(outcome.breakdown, single_breakdown, "{shards} shards");
        assert_eq!(outcome.events_replayed, trace.len());
        assert_eq!(
            outcome.collector_freed_objects,
            single.outcome.collector_freed_objects
        );
        assert_eq!(outcome.live_at_exit, single.outcome.live_at_exit);
    }
    for shards in ROUTED_SHARD_COUNTS {
        let outcome = routed(&trace, shards, config.heap, cg_config());
        let case = format!("routed, {shards} shards");
        assert_eq!(outcome.stats, *single_collector.stats(), "{case}");
        assert_eq!(outcome.breakdown, single_breakdown, "{case}");
        assert_eq!(outcome.events_replayed, trace.len(), "{case}");
        assert_eq!(outcome.live_at_exit, single.outcome.live_at_exit, "{case}");
    }
}
