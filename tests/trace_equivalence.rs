//! The event-stream layer's contract: replaying a recorded workload against
//! a collector yields *byte-identical* statistics to running that collector
//! live inside the interpreter.
//!
//! Each test records a `cg_workloads` program once under the passive
//! [`NoopCollector`] (so the trace's allocation decisions are
//! collector-independent) as `.cgt` bytes, checks that they decode to the
//! event stream a plain vector sink captures from a live run, runs the same
//! program live under the collector being checked, replays the recording
//! against a fresh instance of that collector, and compares the full
//! statistics structures with `==` — every counter and both histograms must
//! match exactly.

use std::cell::RefCell;
use std::rc::Rc;

use cg_core::{CgConfig, ContaminatedGc, HybridCollector, HybridConfig};
use cg_trace::{
    record_streaming, replay_events_governed, Governor, ReplayError, Replayed, TraceMeta,
    TraceReader,
};
use cg_vm::{Collector, EventSink, GcEvent, NoopCollector, Vm, VmConfig};
use cg_workloads::{Size, Workload};

/// Keeps a copy of every event the VM emits: the codec-independent
/// reference a decoded recording must equal.
#[derive(Debug, Default, Clone)]
struct Capture(Rc<RefCell<Vec<GcEvent>>>);

impl EventSink for Capture {
    fn record(&mut self, event: &GcEvent) {
        self.0.borrow_mut().push(event.clone());
    }
}

/// The VM configuration both the recording and the live runs use.  The heap
/// is the default (ample) size: allocation-failure collections are collector
/// behaviour, not workload behaviour, and would make the stream
/// collector-dependent.
fn config() -> VmConfig {
    VmConfig::default()
}

/// Records `name` at size 1 as `.cgt` bytes and decodes them, checking
/// the decoded stream against the one a live run emits.
fn record_workload(name: &str, config: VmConfig) -> Vec<GcEvent> {
    let workload = Workload::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let meta = TraceMeta {
        name: format!("{name}/1"),
        ..TraceMeta::default()
    };
    let (.., bytes) = record_streaming(
        &meta,
        workload.program(Size::S1),
        config,
        NoopCollector::new(),
        Vec::new(),
    )
    .unwrap_or_else(|e| panic!("{name}: recording failed: {e}"));
    let trace = TraceReader::new(&bytes[..])
        .and_then(|mut reader| reader.events().collect::<Result<Vec<_>, _>>())
        .unwrap_or_else(|e| panic!("{name}: decoding failed: {e}"));

    let capture = Capture::default();
    let mut live = Vm::new(workload.program(Size::S1), config, NoopCollector::new());
    live.set_event_sink(Box::new(capture.clone()));
    live.run()
        .unwrap_or_else(|e| panic!("{name}: live run failed: {e}"));
    assert!(
        trace == *capture.0.borrow(),
        "{name}: the decoded recording must be the live event stream"
    );
    assert!(
        matches!(trace.last(), Some(GcEvent::ProgramEnd { .. })),
        "{name}: trace must end with ProgramEnd"
    );
    trace
}

/// Replays decoded events against `collector`.
fn replay<C: Collector>(
    trace: &[GcEvent],
    heap: cg_heap::HeapConfig,
    collector: C,
    governor: &Governor,
) -> Result<Replayed<C>, cg_trace::EvalError> {
    replay_events_governed(trace.iter().map(Ok), heap, collector, governor)
}

#[test]
fn replaying_a_trace_reproduces_live_contaminated_gc_stats_exactly() {
    let unlimited = Governor::unlimited();
    for name in ["db", "jess", "raytrace"] {
        let workload = Workload::by_name(name).unwrap();
        let trace = record_workload(name, config());

        // Live: interpret the program with CG installed.
        let mut live_vm = Vm::new(workload.program(Size::S1), config(), ContaminatedGc::new());
        live_vm
            .run()
            .unwrap_or_else(|e| panic!("{name}: live run failed: {e}"));

        // Replay: drive a fresh CG from the recording, no interpretation.
        let replayed = replay(&trace, config().heap, ContaminatedGc::new(), &unlimited)
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));

        // Byte-identical statistics: every counter, both histograms.
        assert_eq!(
            live_vm.collector().stats(),
            replayed.collector.stats(),
            "{name}: replayed CgStats must equal the live run's"
        );
        // And the shadow heap agrees with the live heap on survivors.
        assert_eq!(
            live_vm.heap().live_count(),
            replayed.heap.live_count(),
            "{name}"
        );
        assert_eq!(
            live_vm.stats().collector_freed_objects,
            replayed.outcome.collector_freed_objects,
            "{name}"
        );
        assert_eq!(
            live_vm.stats().collector_freed_bytes,
            replayed.outcome.collector_freed_bytes,
            "{name}"
        );
    }
}

#[test]
fn replaying_a_trace_reproduces_live_hybrid_collector_stats_exactly() {
    // Periodic forced collections (§4.7) exercise the recorded `Collect`
    // events: the hybrid's mark-sweep and resetting passes must behave
    // identically on the shadow heap.
    let periodic = config().with_gc_every(10_000);
    for name in ["db", "jess"] {
        let workload = Workload::by_name(name).unwrap();
        let trace = record_workload(name, periodic);

        let hybrid = || HybridCollector::new(HybridConfig::default());
        let mut live_vm = Vm::new(workload.program(Size::S1), periodic, hybrid());
        live_vm
            .run()
            .unwrap_or_else(|e| panic!("{name}: live run failed: {e}"));

        let replayed = replay(&trace, periodic.heap, hybrid(), &Governor::unlimited())
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));

        assert_eq!(
            live_vm.collector().cg().stats(),
            replayed.collector.cg().stats(),
            "{name}: replayed CgStats must equal the live run's"
        );
        assert_eq!(
            live_vm.collector().msa_stats(),
            replayed.collector.msa_stats(),
            "{name}: replayed MarkSweepStats must equal the live run's"
        );
        assert!(
            replayed.collector.cg().stats().resets > 0,
            "{name}: resets must fire"
        );
        assert_eq!(
            live_vm.heap().live_count(),
            replayed.heap.live_count(),
            "{name}"
        );
        assert_eq!(
            live_vm.stats().gc_cycles,
            replayed.outcome.gc_cycles,
            "{name}"
        );
    }
}

#[test]
fn allocation_policy_never_affects_collector_statistics() {
    let unlimited = Governor::unlimited();
    // The collector is heap-address-agnostic: handles are minted densely in
    // allocation order regardless of where the object space places blocks,
    // so the same recorded stream replayed over shadow heaps with different
    // allocation policies must drive the collector to byte-identical
    // statistics — and both must equal the live run's.
    use cg_heap::AllocPolicy;

    for name in ["db", "jess"] {
        let workload = Workload::by_name(name).unwrap();
        let trace = record_workload(name, config());

        let mut live_vm = Vm::new(workload.program(Size::S1), config(), ContaminatedGc::new());
        live_vm
            .run()
            .unwrap_or_else(|e| panic!("{name}: live run failed: {e}"));

        for cg_config in [CgConfig::preferred(), CgConfig::without_static_opt()] {
            let first_fit = replay(
                &trace,
                config().heap.with_alloc_policy(AllocPolicy::FirstFitRover),
                ContaminatedGc::with_config(cg_config),
                &unlimited,
            )
            .unwrap_or_else(|e| panic!("{name}: first-fit replay failed: {e}"));
            let segregated = replay(
                &trace,
                config().heap.with_alloc_policy(AllocPolicy::SegregatedFit),
                ContaminatedGc::with_config(cg_config),
                &unlimited,
            )
            .unwrap_or_else(|e| panic!("{name}: segregated replay failed: {e}"));

            assert_eq!(
                first_fit.collector.stats(),
                segregated.collector.stats(),
                "{name}: CgStats must not depend on the allocation policy"
            );
            assert_eq!(
                first_fit.heap.live_count(),
                segregated.heap.live_count(),
                "{name}"
            );
            if cg_config == CgConfig::preferred() {
                assert_eq!(
                    live_vm.collector().stats(),
                    segregated.collector.stats(),
                    "{name}: replayed stats must equal the live run's"
                );
            }
        }
    }
}

#[test]
fn live_runs_agree_across_allocation_policies() {
    // With ample space (no allocation-failure collections) the event stream
    // the interpreter emits is identical under either object-space policy,
    // so two *live* runs must also produce byte-identical CgStats.
    use cg_heap::AllocPolicy;

    let workload = Workload::by_name("raytrace").unwrap();
    let mut seg_config = config();
    seg_config.heap = seg_config
        .heap
        .with_alloc_policy(AllocPolicy::SegregatedFit);

    let mut first_fit = Vm::new(workload.program(Size::S1), config(), ContaminatedGc::new());
    first_fit.run().expect("first-fit live run");
    let mut segregated = Vm::new(
        workload.program(Size::S1),
        seg_config,
        ContaminatedGc::new(),
    );
    segregated.run().expect("segregated live run");

    assert_eq!(
        first_fit.collector().stats(),
        segregated.collector().stats()
    );
    assert_eq!(
        first_fit.heap().live_count(),
        segregated.heap().live_count()
    );
    // The policies did place blocks differently (different search orders)…
    // …but agree on every byte of accounting.
    assert_eq!(
        first_fit.heap().bytes_in_use(),
        segregated.heap().bytes_in_use()
    );
}

#[test]
fn a_recycling_recording_replays_exactly_under_the_recycling_collector() {
    // §3.7: a recording made under the (first-fit) recycling collector
    // carries its reuse decisions.  Replay offers every instance
    // allocation to the recycle list, as the VM does, so the same
    // configuration must reuse exactly the recorded objects and end with
    // the live run's statistics.
    let unlimited = Governor::unlimited();
    let recycling = || ContaminatedGc::with_config(CgConfig::with_recycling());
    let mut diverged = Vec::new();
    let mut recycled = Vec::new();
    for workload in Workload::all() {
        let name = workload.name();
        let meta = TraceMeta {
            name: format!("{name}/1"),
            ..TraceMeta::default()
        };
        let (outcome, _, live, bytes) = record_streaming(
            &meta,
            workload.program(Size::S1),
            config(),
            recycling(),
            Vec::new(),
        )
        .unwrap_or_else(|e| panic!("{name}: recording failed: {e}"));
        let trace = TraceReader::new(&bytes[..])
            .and_then(|mut reader| reader.events().collect::<Result<Vec<_>, _>>())
            .unwrap_or_else(|e| panic!("{name}: decoding failed: {e}"));
        let live_stats = live.collector().stats();
        if live_stats.objects_recycled > 0 {
            recycled.push(name);
        }
        let same = match replay(&trace, config().heap, recycling(), &unlimited) {
            Ok(replayed) => {
                replayed.collector.stats() == live_stats
                    && replayed.collector.recycle_list_len() == live.collector().recycle_list_len()
                    && replayed.heap.live_count() == live.heap().live_count()
                    && replayed.outcome.collector_freed_objects
                        == outcome.stats.collector_freed_objects
            }
            Err(_) => false,
        };
        if !same {
            diverged.push(name);
        }
    }
    assert_eq!(
        diverged,
        Vec::<&str>::new(),
        "replay differs from the live run"
    );
    for name in ["raytrace", "jack", "jess"] {
        assert!(recycled.contains(&name), "{name} recycles at size 1");
    }

    // A passive recording under a recycling collector fails at the first
    // dead object the collector offers, instead of reusing it silently.
    let trace = record_workload("raytrace", config());
    match replay(&trace, config().heap, recycling(), &unlimited) {
        Err(cg_trace::EvalError::Replay(ReplayError::RecycleDiverged { .. })) => {}
        other => panic!("expected a recycling divergence, got {:?}", other.err()),
    }
}

#[test]
fn one_recording_serves_many_collectors() {
    let unlimited = Governor::unlimited();
    // The architectural payoff: one interpretation, N collector evaluations.
    let trace = record_workload("db", config());

    let cg = replay(&trace, config().heap, ContaminatedGc::new(), &unlimited).expect("cg replay");
    let no_opt = replay(
        &trace,
        config().heap,
        ContaminatedGc::with_config(CgConfig::without_static_opt()),
        &unlimited,
    )
    .expect("no-opt replay");
    let msa = replay(
        &trace,
        config().heap,
        cg_core::marksweep::MarkSweep::new(),
        &unlimited,
    )
    .expect("msa replay");

    // All three replays observed the same workload...
    assert_eq!(
        cg.collector.stats().objects_created,
        no_opt.collector.stats().objects_created
    );
    // ...but reached their own conclusions: the §3.4 optimisation collects
    // strictly more, and the baseline (never asked to collect — no memory
    // pressure was recorded) keeps everything alive.
    assert!(
        cg.collector.stats().objects_collected > no_opt.collector.stats().objects_collected,
        "static optimisation must collect more ({} vs {})",
        cg.collector.stats().objects_collected,
        no_opt.collector.stats().objects_collected,
    );
    assert_eq!(msa.collector.stats().cycles, 0);
    assert!(msa.heap.live_count() > cg.heap.live_count());
}
