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
//! edges, domain locks).
//!
//! Results land in `BENCH_shard_scaling.json`.  Each label is also counted
//! once, untimed: events replayed, the collector's work counters and the
//! calling thread's heap allocations must equal the label's line in
//! `EXPECTED` (see `cg_bench::microbench`).

mod common;

use std::hint::black_box;

use cg_bench::runner::{javac_style, mtrt_style};
use cg_bench::{cg_counts, BenchHarness};
use cg_core::{CgConfig, ContaminatedGc};
use cg_trace::{parallel_eval_governed, partition, record, replay_governed, Governor, Trace};
use cg_vm::{NoopCollector, VmConfig};
use cg_workloads::{synthesize, Profile};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One line per label: its counts, zero counters omitted.
const EXPECTED: &[&str] = &[
    "shard_scaling/javac_style/shards_1 events_replayed=598129 unions=50999 contaminations=75249 static_opt_skips=24250 objects_collected=120000 allocations=25",
    "shard_scaling/javac_style/shards_2 events_replayed=598129 unions=50999 contaminations=75249 static_opt_skips=24250 objects_collected=120000 allocations=25",
    "shard_scaling/javac_style/shards_4 events_replayed=598129 unions=50999 contaminations=75249 static_opt_skips=24250 objects_collected=120000 allocations=25",
    "shard_scaling/javac_style/shards_8 events_replayed=598129 unions=50999 contaminations=75249 static_opt_skips=24250 objects_collected=120000 allocations=25",
    "shard_scaling/mtrt_style/shards_1 events_replayed=709281 unions=48799 contaminations=64949 static_opt_skips=16150 objects_collected=176000 allocations=23",
    "shard_scaling/mtrt_style/shards_2 events_replayed=709281 unions=48799 contaminations=64949 static_opt_skips=16150 objects_collected=176000 allocations=23",
    "shard_scaling/mtrt_style/shards_4 events_replayed=709281 unions=48799 contaminations=64949 static_opt_skips=16150 objects_collected=176000 allocations=23",
    "shard_scaling/mtrt_style/shards_8 events_replayed=709281 unions=48799 contaminations=64949 static_opt_skips=16150 objects_collected=176000 allocations=23",
];

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
        let ns = h.bench_counted(label, 3, || {
            let outcome =
                parallel_eval_governed(black_box(&pt), vm_config.heap, cg_config(), &unlimited)
                    .expect("parallel eval succeeds");
            [("events_replayed", outcome.events_replayed as u64)]
                .into_iter()
                .chain(cg_counts(&outcome.stats))
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

    let mut harness = BenchHarness::new("shard_scaling").with_counts(EXPECTED, common::allocations);

    for profile in [javac_style(), mtrt_style(16_000)] {
        let trace = record_profile(&profile, vm_config);
        verify_equivalence(&trace, vm_config);
        bench_scaling(&mut harness, &profile.name, &trace, vm_config);
    }

    harness.finish([]);
}
