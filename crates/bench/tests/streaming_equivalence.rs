//! The streaming path must be invisible in the numbers: for every
//! workload, driving a collector from a persisted `.cgt` file
//! chunk-by-chunk (`replay_path_governed`) produces collector statistics,
//! heap statistics and replay accounting byte-identical to replaying the
//! events decoded into memory first (`replay_events_governed`) — and the
//! parallel evaluator fed from per-shard `.cgt` files matches the same
//! partition held in memory exactly.

use std::path::{Path, PathBuf};

use cg_bench::{record_workload_trace, CollectorChoice, WorkloadTrace};
use cg_core::marksweep::MarkSweep;
use cg_core::{CgConfig, HybridCollector, HybridConfig};
use cg_trace::footer::{vm_stats_from_section, VM_SECTION};
use cg_trace::{
    open_trace, parallel_eval_governed, parallel_eval_streaming_governed, partition_path_streaming,
    partition_streaming, record_streaming, replay_events_governed, replay_path_governed, Governor,
    ReplayOutcome, Replayed, TraceMeta,
};
use cg_vm::{Collector, NoopCollector, VmConfig};
use cg_workloads::{Size, Workload};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-bench-stream-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Records `workload` at size 1 straight to `path`, under the experiment
/// heap — the file-side twin of `record_workload_trace`.
fn record_to_path(workload: Workload, path: &Path) {
    let config = VmConfig::default().with_heap(cg_bench::runner::experiment_heap());
    let file = std::io::BufWriter::new(std::fs::File::create(path).expect("create"));
    let meta = TraceMeta {
        name: format!("{}/1", workload.name()),
        ..TraceMeta::default()
    };
    record_streaming(
        &meta,
        workload.program(Size::S1),
        config,
        NoopCollector::new(),
        file,
    )
    .unwrap_or_else(|e| panic!("{}: record failed: {e}", workload.name()));
}

fn cg_config(base: CgConfig) -> CgConfig {
    CgConfig {
        verify_tainted: false,
        ..base
    }
}

/// Replays `collector()` from the file and from memory and checks that
/// everything but the wall clock agrees; `summary` extracts the
/// collector's own statistics.
fn assert_file_matches_memory<C: Collector, S: PartialEq + std::fmt::Debug>(
    label: &str,
    path: &Path,
    recorded: &WorkloadTrace,
    collector: impl Fn() -> C,
    summary: impl Fn(C) -> S,
) {
    let unlimited = Governor::unlimited();
    let streamed = replay_path_governed(path, None, collector(), &unlimited)
        .unwrap_or_else(|e| panic!("{label}: streaming failed: {e}"));
    let in_memory = replay_events_governed(
        recorded.events.iter().map(Ok),
        recorded.heap,
        collector(),
        &unlimited,
    )
    .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));
    let vm = streamed.footer.section(VM_SECTION);
    assert_eq!(
        vm.and_then(vm_stats_from_section),
        Some(recorded.vm),
        "{label}: interpreter statistics"
    );
    let facts = |r: Replayed<C>| {
        let outcome = ReplayOutcome {
            elapsed_seconds: 0.0,
            ..r.outcome
        };
        (outcome, *r.heap.stats(), summary(r.collector))
    };
    assert_eq!(facts(streamed.replayed), facts(in_memory), "{label}");
}

#[test]
fn streaming_replay_matches_in_memory_replay_for_all_workloads() {
    let dir = scratch("replay");
    for workload in Workload::all() {
        let path = dir.join(format!("{}.cgt", workload.name()));
        record_to_path(workload, &path);
        let recorded = record_workload_trace(workload, Size::S1, CollectorChoice::Cg)
            .unwrap_or_else(|e| panic!("{}: record failed: {e}", workload.name()));
        let cg_summary = |mut c: HybridCollector| {
            let breakdown = c.cg_mut().breakdown();
            (c.cg().stats().clone(), breakdown, *c.msa_stats())
        };
        for (name, cg) in [
            ("cg", CgConfig::preferred()),
            ("cg-noopt", CgConfig::without_static_opt()),
        ] {
            let label = format!("{}/{name}", workload.name());
            let hybrid = || {
                HybridCollector::new(HybridConfig {
                    cg: cg_config(cg),
                    reset_on_collect: false,
                })
            };
            assert_file_matches_memory(&label, &path, &recorded, hybrid, cg_summary);
        }
        let label = format!("{}/jdk-msa", workload.name());
        assert_file_matches_memory(&label, &path, &recorded, MarkSweep::new, |c| *c.stats());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_eval_streaming_rejects_an_incomplete_shard_set_cleanly() {
    let dir = scratch("partial-shards");
    let src = dir.join("db.cgt");
    record_to_path(Workload::by_name("db").expect("db exists"), &src);
    let placed = partition_path_streaming(&src, 4, dir.join("shards")).expect("partition");
    let heap = cg_bench::runner::experiment_heap();
    // Feeding only half the shard files must be a clean error (the files
    // declare a 4-shard topology), not an index-out-of-bounds panic.
    let err = parallel_eval_streaming_governed(
        &placed.paths[..2],
        heap,
        cg_config(CgConfig::preferred()),
        &Governor::unlimited(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("shard"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_eval_from_disk_matches_in_memory_partition() {
    let dir = scratch("parallel");
    let workload = Workload::by_name("mtrt").expect("mtrt exists");
    let src = dir.join("mtrt.cgt");
    record_to_path(workload, &src);
    let recorded = record_workload_trace(workload, Size::S1, CollectorChoice::Cg).expect("record");
    let cg_config = cg_config(CgConfig::preferred());
    let heap = cg_bench::runner::experiment_heap();
    let unlimited = Governor::unlimited();
    let meta = open_trace(&src).expect("open recording").meta().clone();
    for shards in [1, 2, 4] {
        let shard_dir = dir.join(format!("shards-{shards}"));
        let placed = partition_path_streaming(&src, shards, &shard_dir).expect("partition to disk");
        assert_eq!(placed.total_events, recorded.events.len() as u64);

        // The shard files hold exactly the bytes the same partition writes
        // into memory.
        let (in_memory_partition, syncs) = partition_streaming(
            recorded.events.iter().cloned().map(Ok),
            &meta,
            vec![Vec::new(); shards],
        )
        .expect("in-memory partition");
        assert_eq!(placed.cross_thread_syncs, syncs, "{shards} shards");
        for (path, bytes) in placed.paths.iter().zip(&in_memory_partition) {
            let on_disk = std::fs::read(path).expect("read shard file");
            assert!(on_disk == *bytes, "{}: {shards} shards", path.display());
        }

        // And the parallel evaluators agree byte-for-byte.
        let from_disk =
            parallel_eval_streaming_governed(&placed.paths, heap, cg_config, &unlimited)
                .expect("streaming eval");
        let from_memory = parallel_eval_governed(
            in_memory_partition.iter().map(Vec::as_slice),
            heap,
            cg_config,
            &unlimited,
        )
        .expect("eval");
        assert_eq!(from_disk.stats, from_memory.stats, "{shards} shards");
        assert_eq!(from_disk.breakdown, from_memory.breakdown);
        assert_eq!(from_disk.events_replayed, from_memory.events_replayed);
        assert_eq!(from_disk.live_at_exit, from_memory.live_at_exit);
        assert_eq!(
            from_disk.collector_freed_objects,
            from_memory.collector_freed_objects
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
