//! The `cgtd` serving path, single-shard vs sharded: a recorded `.cgt`
//! spool evaluated whole-file (`replay_path_governed`, exactly what the
//! daemon's single-shard route runs) against the sharded route
//! (`partition_path_streaming` + `parallel_eval_streaming_governed` with
//! 4 shards, exactly what a `shards=4` budget buys).
//!
//! Before timing anything the suite proves the serving invariant: the
//! canonical `cg` footer section aggregated from 4 shards is
//! byte-identical to the whole-file replay — the daemon may answer from
//! either route.  The timings then document what the budget is worth:
//! on a ≥ 4-core runner the sharded evaluation (the timed region; the
//! one-pass partition is reported separately) must be **at least 1.5x**
//! faster than single-shard, and the bench asserts exactly that.  On
//! fewer cores the assertion disarms and the numbers instead track the
//! coordination overhead.
//!
//! Results land in `BENCH_serving_shards.json`.  Each label is also
//! counted once, untimed: events and bytes partitioned, events replayed,
//! the collector's work counters and the calling thread's heap allocations
//! must equal the label's line in `EXPECTED` (see `cg_bench::microbench`).

mod common;

use std::hint::black_box;
use std::path::{Path, PathBuf};

use cg_bench::runner::javac_style;
use cg_bench::{cg_counts, BenchHarness};
use cg_trace::footer::{canonical_collector, canonical_config, cg_section};
use cg_trace::{
    parallel_eval_streaming_governed, partition_path_streaming, record, replay_path_governed,
    write_trace_to_path, Governor, ResourceLimits, TraceMeta,
};
use cg_vm::{NoopCollector, VmConfig};
use cg_workloads::{synthesize, Profile};

const SERVING_SHARDS: usize = 4;

/// One line per label: its counts, zero counters omitted.
const EXPECTED: &[&str] = &[
    "serving_shards/javac_style/partition_4 events=598129 bytes=1880085 allocations=30722",
    "serving_shards/javac_style/single events_replayed=598129 allocations=271543",
    "serving_shards/javac_style/sharded_4 events_replayed=598129 unions=50999 contaminations=75249 static_opt_skips=24250 objects_collected=120000 allocations=25",
];

/// Records the profile and spools it to a `.cgt` exactly as `cgtd` would
/// hold an upload on disk.
fn spool_profile(profile: &Profile, vm_config: VmConfig, dir: &Path) -> PathBuf {
    let (trace, outcome, _) = record(
        profile.name.clone(),
        synthesize(profile),
        vm_config,
        NoopCollector::new(),
    )
    .expect("recording succeeds");
    println!(
        "{}: {} events, {} threads",
        profile.name,
        trace.len(),
        1 + outcome.stats.threads_spawned,
    );
    let meta = TraceMeta {
        name: profile.name.clone(),
        heap: Some(vm_config.heap),
        declared_events: Some(trace.len() as u64),
        ..TraceMeta::default()
    };
    let path = dir.join(format!("{}.cgt", profile.name));
    write_trace_to_path(&path, &trace, &meta).expect("spool trace");
    path
}

/// The daemon's single-shard route on the spool.
fn eval_single(spool: &Path, governor: &Governor) -> (u64, cg_trace::FooterSection) {
    let evaluated = replay_path_governed(spool, None, canonical_collector(), governor)
        .expect("single replay succeeds");
    let mut collector = evaluated.replayed.collector;
    let breakdown = collector.breakdown();
    (
        evaluated.replayed.outcome.events_replayed as u64,
        cg_section(collector.stats(), &breakdown),
    )
}

fn main() {
    let vm_config = VmConfig::default().with_heap(cg_bench::runner::experiment_heap());
    let governor = Governor::new(ResourceLimits::unlimited());

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("serving_shards: {cores} hardware thread(s) available");

    let dir = std::env::temp_dir().join(format!("cg-serving-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench spool dir");

    let profile = javac_style();
    let spool = spool_profile(&profile, vm_config, &dir);

    // The serving invariant first: both routes answer byte-identically.
    let (single_events, single_section) = eval_single(&spool, &governor);
    let shard_dir = dir.join("shards");
    std::fs::create_dir_all(&shard_dir).expect("shard dir");
    let parts =
        partition_path_streaming(&spool, SERVING_SHARDS, &shard_dir).expect("partition succeeds");
    let outcome = parallel_eval_streaming_governed(
        &parts.paths,
        vm_config.heap,
        canonical_config(),
        &governor,
    )
    .expect("sharded eval succeeds");
    assert_eq!(outcome.shard_count, SERVING_SHARDS);
    assert_eq!(outcome.events_replayed as u64, single_events);
    assert_eq!(
        cg_section(&outcome.stats, &outcome.breakdown),
        single_section,
        "sharded cg section diverged from the whole-file replay"
    );
    println!(
        "{}: {SERVING_SHARDS}-shard cg section byte-identical to single-shard",
        profile.name
    );

    let mut harness =
        BenchHarness::new("serving_shards").with_counts(EXPECTED, common::allocations);

    // The one-pass partition is a per-upload preprocessing cost the
    // sharded route pays once; report it on its own label so it is tracked
    // without folding sequential I/O into the parallel timing.
    let name = &profile.name;
    harness.bench_counted(format!("serving_shards/{name}/partition_4"), 3, || {
        let dir = shard_dir.join("timed");
        let parts =
            partition_path_streaming(black_box(&spool), SERVING_SHARDS, &dir).expect("partition");
        let bytes: u64 = parts
            .paths
            .iter()
            .map(|p| std::fs::metadata(p).expect("shard file").len())
            .sum();
        let _ = std::fs::remove_dir_all(&dir);
        [("events", parts.total_events), ("bytes", bytes)]
    });
    let single_ns = harness.bench_counted(format!("serving_shards/{name}/single"), 3, || {
        [(
            "events_replayed",
            eval_single(black_box(&spool), &governor).0,
        )]
    });
    let sharded_ns = harness.bench_counted(format!("serving_shards/{name}/sharded_4"), 3, || {
        let outcome = parallel_eval_streaming_governed(
            black_box(&parts.paths),
            vm_config.heap,
            canonical_config(),
            &governor,
        )
        .expect("sharded eval succeeds");
        [("events_replayed", outcome.events_replayed as u64)]
            .into_iter()
            .chain(cg_counts(&outcome.stats))
    });
    let speedup = single_ns / sharded_ns;
    println!("  {name}: {SERVING_SHARDS} shards -> {speedup:.2}x speedup over single-shard");
    if cores >= 4 {
        assert!(
            speedup >= 1.5,
            "a shards={SERVING_SHARDS} budget must buy >= 1.5x on {cores} cores, got {speedup:.2}x"
        );
    } else {
        println!("  note: < 4 cores, the 1.5x speedup assertion is disarmed");
    }

    let _ = std::fs::remove_dir_all(&dir);
    harness.finish([("cores", cg_stats::Json::Num(cores as f64))]);
}
