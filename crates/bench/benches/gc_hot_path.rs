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
//! at once (`peak_bytes`) and the bytes it requested (`bytes_allocated`) —
//! must equal its line in `EXPECTED`.  Each replay label also prints its
//! `peak_bytes` per object created and per peak-live object.
//!
//! `capacity/cg/short_lived_5m` replays 5 M objects that die in frames of
//! 500 and is counted only, not timed: the collector's memory must stay
//! within four live records per peak-live object plus one page per table,
//! however many objects the trace creates.
//!
//! The suite also proves the optimisations are behaviour-preserving: before
//! timing anything it records a workload trace and asserts that replaying it
//! under every collector configuration × allocation policy pair produces
//! byte-identical `CgStats` (see `verify_replay_equivalence`).

mod common;

use std::hint::black_box;

use cg_bench::{
    cg_counts, counts_since, record_events, short_lived_stream, BenchHarness, PAGE_PER_TABLE_BYTES,
};
use cg_core::{CgConfig, ContaminatedGc};
use cg_heap::{AllocPolicy, ClassId, Heap, HeapConfig, Value};
use cg_trace::{replay_events_governed, Governor};
use cg_vm::{Collector, FrameId, FrameInfo, GcEvent, MethodId, ThreadId, Vm, VmConfig};
use cg_workloads::{Size, Workload};

/// One line per label: its counts, zero counters omitted.
const EXPECTED: &[&str] = &[
    "stores/cg/same_block contaminations=1",
    "stores/cg/union_chain_256 unions=255 contaminations=255 search_steps=256 allocations=562",
    "stores/cg/union_storm_4096 unions=4095 contaminations=4095 allocations=4179",
    "stores/cg/static_opt_skip contaminations=1 static_opt_skips=1",
    "pops/cg/pop_64_singletons objects_collected=64 search_steps=64 allocations=168",
    "pops/cg/pop_1024_singletons objects_collected=1024 search_steps=1024 allocations=2114",
    "allocs/first_fit/alloc_free_churn_256 search_steps=256 allocations=260",
    "allocs/segregated/alloc_free_churn_256 search_steps=256 allocations=293",
    "allocs/first_fit/churn_behind_16k_live search_steps=64 allocations=73",
    "allocs/segregated/churn_behind_16k_live search_steps=64 allocations=77",
    "recycle/first_fit/miss_scan_1024 recycle_probes=1024",
    "recycle/first_fit/churn_hit_64 objects_collected=256 recycle_probes=519 objects_recycled=189 search_steps=67 allocations=368",
    "replay/cg/first_fit/db_s1 events_replayed=12167 unions=1659 contaminations=2304 static_opt_skips=645 objects_collected=690 search_steps=1897 peak_bytes=333365 bytes_allocated=549661 allocations=4375",
    "replay/cg/segregated/db_s1 events_replayed=12167 unions=1659 contaminations=2304 static_opt_skips=645 objects_collected=690 search_steps=2581 peak_bytes=334165 bytes_allocated=550461 allocations=4380",
    "replay/cg/first_fit/javac_s1 events_replayed=43658 unions=5439 contaminations=6071 static_opt_skips=632 objects_collected=1600 search_steps=6434 peak_bytes=1247117 bytes_allocated=2068049 allocations=13730",
    "replay/cg/first_fit/mtrt_s1 events_replayed=441678 unions=46299 contaminations=52224 static_opt_skips=5925 objects_collected=67800 search_steps=68903 peak_bytes=346781 bytes_allocated=3533997 allocations=160793",
    "capacity/cg/short_lived_5m events_replayed=7520002 unions=2500000 contaminations=2500000 objects_collected=5000000 search_steps=5000000 peak_bytes=101874 bytes_allocated=276752590 allocations=12519120",
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
fn bench_recycle_miss(h: &mut BenchHarness, config: CgConfig) {
    let f = frame(2, 2);
    let mut heap = Heap::new(HeapConfig::spacious());
    let mut cg = ContaminatedGc::with_config(config);
    for _ in 0..1024 {
        let handle = heap.allocate(class(), 1).expect("fits");
        cg.on_allocate(handle, &f, &heap);
    }
    cg.on_frame_pop(&f, &mut heap);
    assert_eq!(cg.recycle_list_len(), 1024);
    let label = "recycle/first_fit/miss_scan_1024";
    h.count(label, || {
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
fn bench_recycle_churn(h: &mut BenchHarness, config: CgConfig) {
    h.bench_counted("recycle/first_fit/churn_hit_64", 2_000, || {
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

/// The memory a replay took.
#[derive(Default)]
struct ReplayMemory {
    /// The most bytes held at once.
    peak_bytes: u64,
    /// Objects the collector registered.
    created: u64,
    /// The heap's peak live object count.
    peak_live: u64,
}

impl ReplayMemory {
    fn report(&self, label: &str) {
        println!(
            "{label}: {} peak bytes, {:.2} B per created object ({}), \
             {:.1} B per peak-live object ({})",
            self.peak_bytes,
            self.peak_bytes as f64 / self.created as f64,
            self.created,
            self.peak_bytes as f64 / self.peak_live as f64,
            self.peak_live
        );
    }
}

/// Replays `events` under a fresh `cg`: what it did (with its `peak_bytes`
/// and `bytes_allocated`), and the memory it took.
fn replay_counts<I, E>(
    events: I,
    heap_config: HeapConfig,
) -> (Vec<(&'static str, u64)>, ReplayMemory)
where
    I: IntoIterator<Item = Result<E, cg_trace::TraceIoError>>,
    E: std::borrow::Borrow<GcEvent>,
{
    let unlimited = Governor::unlimited();
    common::reset_peak();
    let bytes_before = common::bytes_allocated();
    let replayed = replay_events_governed(events, heap_config, ContaminatedGc::new(), &unlimited)
        .expect("replay succeeds");
    let memory = ReplayMemory {
        peak_bytes: common::peak_bytes(),
        created: replayed.collector.stats().objects_created,
        peak_live: replayed.heap.stats().peak_live_objects,
    };
    let counts = [("events_replayed", replayed.outcome.events_replayed as u64)]
        .into_iter()
        .chain(work(&replayed.collector, &replayed.heap))
        .chain([
            ("peak_bytes", memory.peak_bytes),
            ("bytes_allocated", common::bytes_allocated() - bytes_before),
        ])
        .collect();
    (counts, memory)
}

/// End-to-end replay throughput: events/sec driving the collector from a
/// recorded workload stream (the trace-driven evaluation mode of PR 1).
fn bench_trace_replay(h: &mut BenchHarness, name: &str, trace: &[GcEvent], policy: AllocPolicy) {
    let heap_config = VmConfig::default().heap.with_alloc_policy(policy);
    let events = trace.len() as f64;
    let label = format!("replay/cg/{}/{name}", policy.label());
    let mut memory = ReplayMemory::default();
    h.count(&label, || {
        let (counts, taken) = replay_counts(trace.iter().map(Ok), heap_config);
        memory = taken;
        counts
    });
    memory.report(&label);
    let ns = h.bench(&label, 3, || {
        replay_counts(trace.iter().map(Ok), heap_config)
    });
    println!(
        "{label}: {:.1} ns per replayed event ({events} events)",
        ns / events
    );
}

/// Objects per frame in the capacity stream: its peak live set.
const CAPACITY_PER_FRAME: u64 = 500;

/// What one live object costs at most across the heap's and the
/// collector's tables: heap slot 56 B, object-space block entries ≈ 64 B,
/// collector record 16 B, forest word 4 B, block record 56 B, attach slot
/// 12 B and member list ≈ 16 B, rounded up.
const LIVE_RECORD_BYTES: u64 = 256;

/// The capacity bound on 5 M created objects with 500 live at a time:
/// `peak_bytes ≤ 4 × peak_live × LIVE_RECORD_BYTES + one page per table`.
fn count_capacity(h: &mut BenchHarness) {
    const OBJECTS: u64 = 5_000_000;
    let mut heap_config = HeapConfig::spacious();
    heap_config.handle_space_bytes = OBJECTS as usize * heap_config.handle_repr.bytes();
    let label = "capacity/cg/short_lived_5m";
    let mut memory = ReplayMemory::default();
    h.count(label, || {
        let (counts, taken) =
            replay_counts(short_lived_stream(OBJECTS, CAPACITY_PER_FRAME), heap_config);
        memory = taken;
        counts
    });
    memory.report(label);
    let peak = memory.peak_bytes;
    let bound = 4 * memory.peak_live * LIVE_RECORD_BYTES + PAGE_PER_TABLE_BYTES;
    assert!(
        peak <= bound,
        "replaying {OBJECTS} short-lived objects held {peak} bytes at once, over the bound {bound}"
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

/// A size-1 workload's recorded event stream, and its program.
fn record(name: &str) -> (Vec<GcEvent>, cg_vm::Program) {
    let program = Workload::by_name(name)
        .expect("known workload")
        .program(Size::S1);
    let (trace, _) = record_events(format!("{name}/1"), program.clone(), VmConfig::default())
        .expect("recording succeeds");
    (trace, program)
}

fn main() {
    let (trace, program) = record("db");
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
    bench_recycle_miss(&mut harness, recycle);
    bench_recycle_churn(&mut harness, recycle);
    for policy in [AllocPolicy::FirstFitRover, AllocPolicy::SegregatedFit] {
        bench_trace_replay(&mut harness, "db_s1", &trace, policy);
    }
    for name in ["javac", "mtrt"] {
        let (trace, _) = record(name);
        bench_trace_replay(
            &mut harness,
            &format!("{name}_s1"),
            &trace,
            AllocPolicy::FirstFitRover,
        );
    }
    count_capacity(&mut harness);

    harness.finish([]);
}
