//! The collector's per-event hot path, measured in isolation.
//!
//! Every benchmark here drives the collector hooks directly — no interpreter
//! in the loop — so the numbers are the per-event costs the paper argues
//! about: the store barrier (§3.1.3), the frame-pop collection (§2.2), the
//! recycle-list search (§3.7) and the allocator's free-block search the
//! recycling argument is measured against (§4.8).
//!
//! Each label is timed into `BENCH_gc_hot_path.json` and counted once,
//! untimed: the collector's work counters (`cg_bench::cg_counts`), the
//! allocator's free-block `search_steps` and the heap allocations of one
//! iteration — for the `replay/*` labels also the most heap bytes it held
//! at once (`peak_bytes`) — must equal its line in `EXPECTED`.
//!
//! The suite also proves the optimisations are behaviour-preserving: before
//! timing anything it records a workload trace and asserts that replaying it
//! under every collector configuration × allocation policy pair produces
//! byte-identical `CgStats` (see `verify_replay_equivalence`).

mod common;

use std::hint::black_box;

use cg_bench::{cg_counts, counts_since, record_events, BenchHarness};
use cg_core::{CgConfig, ContaminatedGc};
use cg_heap::{AllocPolicy, ClassId, Heap, HeapConfig, Value};
use cg_trace::{replay_events_governed, Governor};
use cg_vm::{Collector, FrameId, FrameInfo, GcEvent, MethodId, ThreadId, Vm, VmConfig};
use cg_workloads::{Size, Workload};

/// One line per label: its counts, zero counters omitted.
const EXPECTED: &[&str] = &[
    "stores/cg/same_block contaminations=1",
    "stores/cg/union_chain_256 unions=255 contaminations=255 search_steps=256 allocations=575",
    "stores/cg/union_storm_4096 unions=4095 contaminations=4095 allocations=4171",
    "stores/cg/static_opt_skip contaminations=1 static_opt_skips=1",
    "pops/cg/pop_64_singletons objects_collected=64 search_steps=64 allocations=173",
    "pops/cg/pop_1024_singletons objects_collected=1024 search_steps=1024 allocations=2120",
    "allocs/first_fit/alloc_free_churn_256 search_steps=256 allocations=268",
    "allocs/segregated/alloc_free_churn_256 search_steps=256 allocations=301",
    "allocs/first_fit/churn_behind_16k_live search_steps=64 allocations=73",
    "allocs/segregated/churn_behind_16k_live search_steps=64 allocations=77",
    "recycle/first_fit/miss_scan_1024 recycle_probes=1024",
    "recycle/segregated/miss_scan_1024",
    "recycle/first_fit/churn_hit_64 objects_collected=256 recycle_probes=519 objects_recycled=189 search_steps=67 allocations=380",
    "recycle/segregated/churn_hit_64 objects_collected=256 recycle_probes=280 objects_recycled=191 search_steps=65 allocations=384",
    "replay/cg/first_fit/db_s1 events_replayed=12167 unions=1659 contaminations=2304 static_opt_skips=645 objects_collected=690 search_steps=1897 peak_bytes=409529 allocations=4385",
    "replay/cg/segregated/db_s1 events_replayed=12167 unions=1659 contaminations=2304 static_opt_skips=645 objects_collected=690 search_steps=2581 peak_bytes=410329 allocations=4390",
];

/// What `cg` and its heap have done so far.
fn work(cg: &ContaminatedGc, heap: &Heap) -> [(&'static str, u64); 7] {
    let [a, b, c, d, e, f] = cg_counts(cg.stats());
    let search_steps = heap.object_space().search_steps();
    [a, b, c, d, e, f, ("search_steps", search_steps)]
}

fn frame(id: u64, depth: usize) -> FrameInfo {
    FrameInfo {
        id: FrameId::new(id),
        depth,
        thread: ThreadId::MAIN,
        method: MethodId::new(0),
    }
}

fn class() -> ClassId {
    ClassId::new(0)
}

/// A heap plus collector with `count` registered singleton objects in
/// `frame`.
fn populated(
    config: CgConfig,
    heap_config: HeapConfig,
    count: usize,
    f: &FrameInfo,
) -> (Heap, ContaminatedGc, Vec<cg_heap::Handle>) {
    let mut heap = Heap::new(heap_config);
    let mut cg = ContaminatedGc::with_config(config);
    let handles: Vec<_> = (0..count)
        .map(|_| {
            let h = heap.allocate(class(), 2).expect("fits");
            cg.on_allocate(h, f, &heap);
            h
        })
        .collect();
    (heap, cg, handles)
}

/// The store barrier on an already-merged block: one `elem` lookup per
/// operand plus the root finds — the paper's "nearly constant work per
/// store".
fn bench_store_same_block(h: &mut BenchHarness, label: &str, config: CgConfig) {
    let f = frame(1, 1);
    let (mut heap, mut cg, handles) = populated(config, HeapConfig::spacious(), 2, &f);
    let (a, b) = (handles[0], handles[1]);
    heap.set_field(a, 0, Value::from(b)).unwrap();
    cg.on_reference_store(a, b, &f, &heap);
    let label = format!("stores/{label}/same_block");
    h.count(&label, || {
        let before = work(&cg, &heap);
        cg.on_reference_store(a, b, &f, &heap);
        counts_since(work(&cg, &heap), before)
    });
    h.bench(label, 1_000_000, || {
        cg.on_reference_store(black_box(a), black_box(b), &f, &heap);
    });
}

/// A union-heavy store storm: 256 singletons chained into one block.  Every
/// store detaches two blocks from the frame index, unions them and
/// re-attaches the winner — the worst case for the per-frame bookkeeping.
fn bench_store_union_heavy(h: &mut BenchHarness, label: &str, config: CgConfig) {
    let f = frame(1, 1);
    h.bench_counted(format!("stores/{label}/union_chain_256"), 2_000, || {
        let (mut heap, mut cg, handles) = populated(config, HeapConfig::spacious(), 256, &f);
        for pair in handles.windows(2) {
            heap.set_field(pair[0], 0, Value::from(pair[1])).unwrap();
            cg.on_reference_store(pair[0], pair[1], &f, &heap);
        }
        work(&cg, &heap)
    });
}

/// The collector-only union storm: the heap is populated once outside the
/// timing loop, so each iteration measures exactly the collector's work for
/// a reference-store-heavy event stream — 4096 registrations followed by
/// 4095 contaminating stores (the store barrier never reads the heap).
fn bench_store_storm_collector_only(h: &mut BenchHarness, label: &str, config: CgConfig) {
    let f = frame(1, 1);
    let mut heap = Heap::new(HeapConfig::spacious());
    let handles: Vec<_> = (0..4096)
        .map(|_| heap.allocate(class(), 2).expect("fits"))
        .collect();
    h.bench_counted(format!("stores/{label}/union_storm_4096"), 500, || {
        let mut cg = ContaminatedGc::with_config(config);
        for &handle in &handles {
            cg.on_allocate(handle, &f, &heap);
        }
        for pair in handles.windows(2) {
            cg.on_reference_store(pair[0], pair[1], &f, &heap);
        }
        cg_counts(cg.stats())
    });
}

/// The §3.4 static-optimisation skip: storing a static object into a local
/// one costs two root probes and no union.
fn bench_store_static_skip(h: &mut BenchHarness, label: &str, config: CgConfig) {
    let f = frame(1, 1);
    let (mut heap, mut cg, handles) = populated(config, HeapConfig::spacious(), 2, &f);
    let (local, global) = (handles[0], handles[1]);
    cg.on_static_store(global, &heap);
    heap.set_field(local, 0, Value::from(global)).unwrap();
    let label = format!("stores/{label}/static_opt_skip");
    h.count(&label, || {
        let before = work(&cg, &heap);
        cg.on_reference_store(local, global, &f, &heap);
        counts_since(work(&cg, &heap), before)
    });
    h.bench(label, 1_000_000, || {
        cg.on_reference_store(black_box(local), black_box(global), &f, &heap);
    });
}

/// Frame pop with many singleton blocks: the cost of draining the per-frame
/// block list and freeing every member.
fn bench_frame_pop(h: &mut BenchHarness, label: &str, config: CgConfig, count: usize) {
    let f = frame(2, 2);
    h.bench_counted(
        format!("pops/{label}/pop_{count}_singletons"),
        200_000 / count as u64,
        || {
            let (mut heap, mut cg, _) = populated(config, HeapConfig::spacious(), count, &f);
            cg.on_frame_pop(&f, &mut heap);
            work(&cg, &heap)
        },
    );
}

/// Allocator throughput: allocate-then-free churn straight against the
/// heap's object space (no collector), per allocation policy.
fn bench_alloc_churn(h: &mut BenchHarness, label: &str, heap_config: HeapConfig) {
    h.bench_counted(
        format!("allocs/{label}/alloc_free_churn_256"),
        2_000,
        || {
            let mut heap = Heap::new(heap_config);
            let mut handles = Vec::with_capacity(256);
            for i in 0..256 {
                // Mixed sizes so a segregated policy has classes to separate.
                handles.push(heap.allocate(class(), 1 + (i % 8)).expect("fits"));
            }
            for handle in handles {
                heap.free(handle).expect("live");
            }
            [("search_steps", heap.object_space().search_steps())]
        },
    );
}

/// Allocation behind a wall of survivors: 16 k long-lived objects fill the
/// space with a 64-object working set spread evenly between them, and every
/// iteration frees and re-allocates the working set — the shape a javac or
/// jack trace leaves behind once contamination has pinned most of the heap.
/// The space is exactly full, so the rover wraps once per iteration and each
/// search has to get past the 256 survivors between one hole and the next.
fn bench_alloc_churn_behind_live(h: &mut BenchHarness, policy: AllocPolicy) {
    const LIVE: usize = 16 * 1024;
    const CHURN: usize = 64;
    let mut config = HeapConfig::default().with_alloc_policy(policy);
    config.object_space_bytes = LIVE * config.instance_bytes(2) + CHURN * config.instance_bytes(6);
    let mut heap = Heap::new(config);
    let mut working_set = Vec::with_capacity(CHURN);
    for i in 0..LIVE {
        if i % (LIVE / CHURN) == 0 {
            working_set.push(heap.allocate(class(), 6).expect("fits"));
        }
        heap.allocate(class(), 2).expect("fits");
    }
    assert_eq!(heap.free_bytes(), 0);
    let churn = |heap: &mut Heap| {
        for &handle in &working_set {
            heap.free(handle).expect("live");
        }
        // Re-allocated under the same handles so the handle table stays flat.
        for &handle in &working_set {
            heap.allocate_at(handle, class(), 6).expect("a hole fits");
        }
        heap.live_count()
    };
    let label = format!("allocs/{}/churn_behind_16k_live", policy.label());
    h.count(&label, || {
        let before = heap.object_space().search_steps();
        churn(&mut heap);
        [("search_steps", heap.object_space().search_steps() - before)]
    });
    h.bench(label, 2_000, || churn(&mut heap));
}

/// Recycle-list miss: every probe scans the whole list and finds nothing
/// that fits (1024 one-field corpses, four-field requests).
fn bench_recycle_miss(h: &mut BenchHarness, label: &str, config: CgConfig) {
    let f = frame(2, 2);
    let mut heap = Heap::new(HeapConfig::spacious());
    let mut cg = ContaminatedGc::with_config(config);
    for _ in 0..1024 {
        let handle = heap.allocate(class(), 1).expect("fits");
        cg.on_allocate(handle, &f, &heap);
    }
    cg.on_frame_pop(&f, &mut heap);
    assert_eq!(cg.recycle_list_len(), 1024);
    let label = format!("recycle/{label}/miss_scan_1024");
    h.count(&label, || {
        let before = work(&cg, &heap);
        cg.try_recycled_alloc(class(), 4, &f, &mut heap);
        counts_since(work(&cg, &heap), before)
    });
    h.bench(label, 10_000, || {
        cg.try_recycled_alloc(class(), 4, &f, &mut heap)
    });
}

/// Recycle churn: a frame's worth of corpses is reused by the next frame,
/// over and over (the §3.7 steady state).
fn bench_recycle_churn(h: &mut BenchHarness, label: &str, config: CgConfig) {
    h.bench_counted(format!("recycle/{label}/churn_hit_64"), 2_000, || {
        let mut heap = Heap::new(HeapConfig::spacious());
        let mut cg = ContaminatedGc::with_config(config);
        for round in 0..4u64 {
            let f = frame(10 + round, 2);
            for i in 0..64 {
                let handle = cg
                    .try_recycled_alloc(class(), 1 + (i % 4), &f, &mut heap)
                    .unwrap_or_else(|| heap.allocate(class(), 1 + (i % 4)).expect("fits"));
                cg.on_allocate(handle, &f, &heap);
            }
            cg.on_frame_pop(&f, &mut heap);
        }
        work(&cg, &heap)
    });
}

/// End-to-end replay throughput: events/sec driving the collector from a
/// recorded workload stream (the trace-driven evaluation mode of PR 1).
fn bench_trace_replay(h: &mut BenchHarness, trace: &[GcEvent], policy: AllocPolicy) {
    let unlimited = Governor::unlimited();
    let heap_config = VmConfig::default().heap.with_alloc_policy(policy);
    let events = trace.len() as f64;
    let label = format!("replay/cg/{}/db_s1", policy.label());
    let ns = h.bench_counted(&label, 3, || {
        common::reset_peak();
        let replayed = replay_events_governed(
            trace.iter().map(Ok),
            heap_config,
            ContaminatedGc::new(),
            &unlimited,
        )
        .expect("replay succeeds");
        let events = replayed.outcome.events_replayed as u64;
        let work = work(&replayed.collector, &replayed.heap);
        [("events_replayed", events)]
            .into_iter()
            .chain(work)
            .chain([("peak_bytes", common::peak_bytes())])
    });
    println!(
        "{label}: {:.1} ns per replayed event ({events} events)",
        ns / events
    );
}

/// Before timing anything: replaying the recorded stream must produce
/// byte-identical `CgStats` to a live interpreted run, for every collector
/// configuration × allocation policy pair.  This is the proof that the
/// hot-path rebuild changed costs, not behaviour.
fn verify_replay_equivalence(trace: &[GcEvent], program: &cg_vm::Program) {
    let unlimited = Governor::unlimited();
    for policy in [AllocPolicy::FirstFitRover, AllocPolicy::SegregatedFit] {
        for cg_config in [CgConfig::preferred(), CgConfig::without_static_opt()] {
            let vm_config =
                VmConfig::default().with_heap(VmConfig::default().heap.with_alloc_policy(policy));
            let mut live = Vm::new(
                program.clone(),
                vm_config,
                ContaminatedGc::with_config(cg_config),
            );
            live.run().expect("live run succeeds");
            let replayed = replay_events_governed(
                trace.iter().map(Ok),
                vm_config.heap,
                ContaminatedGc::with_config(cg_config),
                &unlimited,
            )
            .expect("replay succeeds");
            assert_eq!(
                live.collector().stats(),
                replayed.collector.stats(),
                "CgStats diverged for {policy:?} / {cg_config:?}"
            );
        }
    }
    println!("replay equivalence: CgStats byte-identical across 2 configs x 2 policies");
}

fn main() {
    let workload = Workload::by_name("db").expect("known workload");
    let program = workload.program(Size::S1);
    let (trace, _) =
        record_events("db/1", program.clone(), VmConfig::default()).expect("recording succeeds");
    verify_replay_equivalence(&trace, &program);

    let mut harness = BenchHarness::new("gc_hot_path").with_counts(EXPECTED, common::allocations);
    let cg = CgConfig {
        verify_tainted: false,
        ..CgConfig::preferred()
    };
    let recycle = CgConfig {
        verify_tainted: false,
        ..CgConfig::with_recycling()
    };
    let recycle_seg = CgConfig {
        verify_tainted: false,
        ..CgConfig::with_segregated_recycling()
    };

    bench_store_same_block(&mut harness, "cg", cg);
    bench_store_union_heavy(&mut harness, "cg", cg);
    bench_store_storm_collector_only(&mut harness, "cg", cg);
    bench_store_static_skip(&mut harness, "cg", cg);
    bench_frame_pop(&mut harness, "cg", cg, 64);
    bench_frame_pop(&mut harness, "cg", cg, 1024);
    for policy in [AllocPolicy::FirstFitRover, AllocPolicy::SegregatedFit] {
        bench_alloc_churn(
            &mut harness,
            policy.label(),
            HeapConfig::spacious().with_alloc_policy(policy),
        );
    }
    for policy in [AllocPolicy::FirstFitRover, AllocPolicy::SegregatedFit] {
        bench_alloc_churn_behind_live(&mut harness, policy);
    }
    bench_recycle_miss(&mut harness, "first_fit", recycle);
    bench_recycle_miss(&mut harness, "segregated", recycle_seg);
    bench_recycle_churn(&mut harness, "first_fit", recycle);
    bench_recycle_churn(&mut harness, "segregated", recycle_seg);
    for policy in [AllocPolicy::FirstFitRover, AllocPolicy::SegregatedFit] {
        bench_trace_replay(&mut harness, &trace, policy);
    }

    harness.finish([]);
}
