//! Shard-count scaling of the parallel trace evaluation.
//!
//! Two thread-heavy workload profiles — a `javac`-style one (shared AST
//! batch + per-method compile temporaries) and an `mtrt`-style one (private
//! rendering temporaries over a shared scene) — are recorded once, spread
//! over 8 VM threads, and then evaluated with 1, 2, 4 and 8 collector
//! shards on real OS threads (`cg_trace::parallel_eval_governed`).
//!
//! Before timing anything the suite proves the point of the exercise: for
//! every shard count the aggregated `CgStats`/`ObjectBreakdown` are
//! byte-identical to a single-threaded replay.  The timings then show how
//! the evaluation scales with shards.  **The speedup is hardware-bound**: on
//! a multi-core machine the 4-shard run should approach the per-shard share
//! of the work (≥ 2x over 1 shard); on a single-core container the numbers
//! instead document the coordination overhead (progress counters, wait
//! edges, domain locks), which is the regression this bench's baseline
//! gates in CI.
//!
//! Results land in `BENCH_shard_scaling.json`; CI replays the suite with
//! `--check baselines/shard_scaling.json` (2x speed-normalised gate, same
//! mechanism as `gc_hot_path`).

use std::hint::black_box;

use cg_bench::BenchHarness;
use cg_core::{CgConfig, ContaminatedGc};
use cg_trace::{parallel_eval_governed, partition, record, replay_governed, Governor, Trace};
use cg_vm::{NoopCollector, VmConfig};
use cg_workloads::{synthesize, Profile};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const CALIBRATION_LABEL: &str = "calibration/spin_1k";

/// A `javac`-style profile: a large shared batch handed to a loader thread
/// (over half the small run's objects go thread-shared, Appendix A.2) plus
/// per-method compile temporaries, spread over 7 worker threads.
fn javac_style() -> Profile {
    Profile {
        name: "javac_style".to_string(),
        description: "javac-style: shared AST batch + compile temporaries over 8 threads"
            .to_string(),
        static_setup: 1_000,
        interned: 32,
        iterations: 12_000,
        leaf_temps: 3,
        chained_temps: 4,
        static_touching_temps: 2,
        returned_temps: 1,
        escape_depth: 1,
        leaked_per_iteration: 0,
        compute_per_iteration: 8,
        shared_objects: 2_000,
        worker_threads: 7,
    }
}

/// An `mtrt`-style profile: thread-private rendering temporaries dominated
/// by singleton and small chained blocks, over a shared static scene, with 7
/// rendering threads (the paper's mtrt runs two; we scale the thread count
/// so 8 shards have work).
fn mtrt_style() -> Profile {
    Profile {
        name: "mtrt_style".to_string(),
        description: "mtrt-style: private ray temporaries over a shared scene, 8 threads"
            .to_string(),
        static_setup: 600,
        interned: 8,
        iterations: 16_000,
        leaf_temps: 5,
        chained_temps: 3,
        static_touching_temps: 1,
        returned_temps: 2,
        escape_depth: 2,
        leaked_per_iteration: 0,
        compute_per_iteration: 6,
        shared_objects: 200,
        worker_threads: 7,
    }
}

fn cg_config() -> CgConfig {
    CgConfig {
        verify_tainted: false,
        ..CgConfig::preferred()
    }
}

/// Records the profile's event stream once (passive collector).
fn record_profile(profile: &Profile, vm_config: VmConfig) -> Trace {
    let (trace, outcome, _) = record(
        profile.name.clone(),
        synthesize(profile),
        vm_config,
        NoopCollector::new(),
    )
    .expect("recording succeeds");
    println!(
        "{}: {} events, {} objects, {} threads",
        profile.name,
        trace.len(),
        outcome.stats.objects_allocated + outcome.stats.arrays_allocated,
        1 + outcome.stats.threads_spawned,
    );
    trace
}

/// Proves the invariant before timing it: aggregated sharded statistics are
/// byte-identical to the single-threaded replay for every shard count.
fn verify_equivalence(trace: &Trace, vm_config: VmConfig) {
    let unlimited = Governor::unlimited();
    let single = replay_governed(
        trace,
        vm_config.heap,
        ContaminatedGc::with_config(cg_config()),
        &unlimited,
    )
    .expect("single replay succeeds");
    for shards in SHARD_COUNTS {
        let pt = partition(trace, shards);
        let outcome = parallel_eval_governed(&pt, vm_config.heap, cg_config(), &unlimited)
            .expect("parallel succeeds");
        assert_eq!(
            outcome.stats,
            *single.collector.stats(),
            "CgStats diverged at {shards} shards"
        );
        assert_eq!(pt.merge(), *trace, "merge must reproduce the trace");
    }
    println!(
        "{}: sharded CgStats byte-identical across shard counts {SHARD_COUNTS:?}",
        trace.name()
    );
}

fn bench_scaling(h: &mut BenchHarness, name: &str, trace: &Trace, vm_config: VmConfig) {
    let unlimited = Governor::unlimited();
    let mut one_shard_ns = None;
    for shards in SHARD_COUNTS {
        // Partitioning is a one-time preprocessing cost; the timed region is
        // the parallel evaluation itself.
        let pt = partition(trace, shards);
        let label = format!("shard_scaling/{name}/shards_{shards}");
        let ns = h.bench(&label, 3, || {
            parallel_eval_governed(black_box(&pt), vm_config.heap, cg_config(), &unlimited)
                .expect("parallel eval succeeds")
                .events_replayed
        });
        match one_shard_ns {
            None => one_shard_ns = Some(ns),
            Some(base) => println!(
                "  {name}: {shards} shards -> {:.2}x speedup over 1 shard",
                base / ns
            ),
        }
    }
}

fn main() {
    let check = cg_bench::parse_check_arg();
    let vm_config = VmConfig::default().with_heap(cg_bench::runner::experiment_heap());

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("shard_scaling: {cores} hardware thread(s) available");
    if cores < 4 {
        println!(
            "  note: speedup from sharding needs cores; on {cores} core(s) these numbers \
             measure coordination overhead, not parallelism"
        );
    }

    let mut harness = BenchHarness::new("shard_scaling");
    harness.bench(CALIBRATION_LABEL, 200_000, || {
        (0..1000u64).fold(0u64, |acc, i| {
            acc.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(black_box(i))
        })
    });

    for profile in [javac_style(), mtrt_style()] {
        let trace = record_profile(&profile, vm_config);
        verify_equivalence(&trace, vm_config);
        bench_scaling(&mut harness, &profile.name, &trace, vm_config);
    }

    harness.write_json();

    if let Some(path) = check {
        cg_bench::check_against_baseline(&harness, &path, CALIBRATION_LABEL);
    }
}
