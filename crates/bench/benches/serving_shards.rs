//! The `cgtd` serving path, single-shard vs sharded: a recorded `.cgt`
//! spool evaluated whole-file (`replay_path_governed`, exactly what the
//! daemon's single-shard route runs) against the sharded routes with 4
//! shards.  `routed_4` is exactly what a `shards=4` budget buys today: the
//! spool decoded once on the calling thread and its events routed in
//! memory to the shard threads (`parallel_eval_routed_governed`).
//! `partition_4` + `sharded_4` is the offline form of the same evaluation,
//! which writes one `.cgt` file per shard and evaluates each on its own
//! thread (`partition_path_streaming` + `parallel_eval_streaming_governed`).
//!
//! Before timing anything the suite proves the serving invariant: the
//! canonical `cg` footer section aggregated from 4 shards, by either route,
//! is byte-identical to the whole-file replay — the daemon may answer from
//! any of them.  The timings then document what the budget is worth: on a
//! ≥ 4-core runner the file-fed sharded evaluation (the timed region; the
//! one-pass partition is reported separately) must be **at least 1.5x**
//! faster than single-shard, and the bench asserts exactly that.  On fewer
//! cores the assertion disarms and the numbers instead track the
//! coordination overhead.
//!
//! Results land in `BENCH_serving_shards.json`.  Each label is also
//! counted once, untimed: events and bytes partitioned, events replayed,
//! the collector's work counters and the calling thread's heap allocations
//! must equal the label's line in `EXPECTED` (see `cg_bench::microbench`).
//! `routed_4`'s allocations pin that the router allocates per batch, never
//! per event.

mod common;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cg_bench::runner::javac_style;
use cg_bench::{cg_counts, record_events, BenchHarness};
use cg_trace::footer::{canonical_collector, canonical_config, cg_section};
use cg_trace::{
    open_trace, parallel_eval_routed_governed, parallel_eval_streaming_governed,
    partition_path_streaming, replay_path_governed, Governor, ParallelOutcome, ResourceLimits,
    TraceMeta, TraceWriter,
};
use cg_vm::VmConfig;
use cg_workloads::{synthesize, Profile};

const SERVING_SHARDS: usize = 4;

/// One line per label: its counts, zero counters omitted.
const EXPECTED: &[&str] = &[
    "serving_shards/javac_style/partition_4 events=598129 bytes=1880085 allocations=30430",
    "serving_shards/javac_style/single events_replayed=598129 allocations=271055",
    "serving_shards/javac_style/sharded_4 events_replayed=598129 unions=50999 contaminations=75249 static_opt_skips=24250 objects_collected=120000 allocations=25",
    "serving_shards/javac_style/routed_4 events_replayed=598129 unions=50999 contaminations=75249 static_opt_skips=24250 objects_collected=120000 allocations=152",
];

/// Records the profile and spools it to a `.cgt` exactly as `cgtd` would
/// hold an upload on disk.
fn spool_profile(profile: &Profile, vm_config: VmConfig, dir: &Path) -> PathBuf {
    let (trace, outcome) = record_events(profile.name.clone(), synthesize(profile), vm_config)
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
    let file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create spool"));
    let mut writer = TraceWriter::new(file, &meta).expect("spool header");
    for event in &trace {
        writer.push(event).expect("spool event");
    }
    let (file, _) = writer.finish().expect("spool footer");
    file.into_inner().expect("spool flush");
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

/// Median wall time of `f` in milliseconds, over enough runs to fill about
/// a third of a second.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64();
    let runs = ((0.3 / once.max(1e-6)) as usize).clamp(5, 501);
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[runs / 2]
}

/// Where a 2-shard grant starts to pay on the committed golden traces: each
/// golden's single-shard replay against its routed 2-shard evaluation,
/// both from the file the daemon would spool.  Printed, not gated — the
/// figure behind the default of `cgtd --shard-min-kib`.
fn golden_crossover(governor: &Governor) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../trace/golden");
    let mut goldens: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("golden corpus")
        .map(|entry| entry.expect("golden entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "cgt"))
        .collect();
    goldens.sort_by_key(|path| std::fs::metadata(path).expect("golden size").len());
    println!("golden corpus: single-shard vs routed 2-shard, median ms");
    for path in goldens {
        let kib = std::fs::metadata(&path).expect("golden size").len() as f64 / 1024.0;
        let single = median_ms(|| {
            black_box(eval_single(&path, governor));
        });
        let routed = median_ms(|| {
            black_box(eval_routed(&path, 2, governor));
        });
        let name = path.file_stem().expect("golden name").to_string_lossy();
        println!(
            "  {name:<16} {kib:>8.1} KiB  single {single:>8.3}  routed_2 {routed:>8.3}  {:.2}x",
            single / routed
        );
    }
}

/// The daemon's sharded route on the spool: decoded on this thread and
/// routed in memory to `shards` shard threads.
fn eval_routed(spool: &Path, shards: usize, governor: &Governor) -> ParallelOutcome {
    let mut reader = open_trace(spool).expect("open spool");
    let heap = reader
        .meta()
        .heap
        .expect("the spool header carries the heap");
    parallel_eval_routed_governed(reader.events(), shards, heap, canonical_config(), governor)
        .expect("routed eval succeeds")
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
    let routed = eval_routed(&spool, SERVING_SHARDS, &governor);
    assert_eq!(routed.shard_count, SERVING_SHARDS);
    assert_eq!(routed.events_replayed as u64, single_events);
    assert_eq!(
        cg_section(&routed.stats, &routed.breakdown),
        single_section,
        "routed cg section diverged from the whole-file replay"
    );
    println!(
        "{}: {SERVING_SHARDS}-shard cg sections (files, routed) byte-identical to single-shard",
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
    let routed_ns = harness.bench_counted(format!("serving_shards/{name}/routed_4"), 3, || {
        let outcome = eval_routed(black_box(&spool), SERVING_SHARDS, &governor);
        [("events_replayed", outcome.events_replayed as u64)]
            .into_iter()
            .chain(cg_counts(&outcome.stats))
    });
    println!(
        "  {name}: {SERVING_SHARDS} shards -> {:.2}x (files, after the partition) and {:.2}x \
         (routed) the speed of single-shard",
        single_ns / sharded_ns,
        single_ns / routed_ns
    );
    let speedup = single_ns / sharded_ns;
    if cores >= 4 {
        assert!(
            speedup >= 1.5,
            "a shards={SERVING_SHARDS} budget must buy >= 1.5x on {cores} cores, got {speedup:.2}x"
        );
    } else {
        println!("  note: < 4 cores, the 1.5x speedup assertion is disarmed");
    }

    let _ = std::fs::remove_dir_all(&dir);
    golden_crossover(&governor);
    harness.finish([("cores", cg_stats::Json::Num(cores as f64))]);
}
