//! The trace-driven runner: interpret each workload once, evaluate every
//! collector by replay.
//!
//! Usage:
//!
//! ```text
//! trace_eval [workload...] [--size 1|10|100] [--collectors cg,jdk-msa,...]
//! ```
//!
//! With no workloads, all eight SPEC-like benchmarks run.  For each workload
//! the event stream is recorded under a passive collector (one
//! interpretation), then each requested collector is driven from the
//! recording — no re-interpretation.  `cg-recycle` (not in the default
//! set) and `cg-reset` each record once more: recycling under the
//! recycling collector itself, whose recycled allocations the stream then
//! carries, and resetting with its periodic collections.  The table reports
//! each collector's headline statistics plus the recording and replay
//! times, and the raw numbers are written to `BENCH_trace_eval.json`.
//!
//! The passive recording frees nothing, so it must fit the whole allocation
//! history in the 12 MiB experiment heap.  At `--size 100` raytrace, javac,
//! mtrt and jack do not (`trace_eval javac --size 100` fails with
//! "recording failed: out of memory allocating 16 bytes for class c0");
//! their size-100 rows can only come from live runs.  Every workload
//! records at sizes 1 and 10.

use cg_bench::{replay_run, TraceCache};
use cg_stats::{Cell, Json, Table};
use cg_workloads::Workload;

fn main() {
    let options = cg_bench::parse_trace_eval(std::env::args().skip(1));
    let workloads: Vec<Workload> = if options.workloads.is_empty() {
        Workload::all()
    } else {
        options
            .workloads
            .iter()
            .map(|name| {
                Workload::by_name(name).unwrap_or_else(|| panic!("unknown workload '{name}'"))
            })
            .collect()
    };

    let mut cache = TraceCache::new();
    let mut table = Table::new(
        format!("Trace-driven evaluation (size {})", options.size),
        &[
            "benchmark",
            "collector",
            "objects",
            "collectable",
            "GC cycles",
            "trace events",
            "replay (s)",
        ],
    );
    let mut json_runs = Vec::new();

    for workload in &workloads {
        for &choice in &options.collectors {
            let recorded = cache
                .for_choice(*workload, options.size, choice)
                .unwrap_or_else(|e| panic!("{}: recording failed: {e}", workload.name()));
            let result = replay_run(&recorded, choice)
                .unwrap_or_else(|e| panic!("{}: replay failed: {e}", workload.name()));
            table.push_row(vec![
                Cell::text(workload.name()),
                Cell::text(choice.label()),
                Cell::count(result.objects_created()),
                Cell::percent(result.collectable_percent()),
                Cell::count(result.msa.map(|m| m.cycles).unwrap_or(0)),
                Cell::count(recorded.events.len() as u64),
                Cell::seconds(result.elapsed_seconds),
            ]);
            json_runs.push(Json::obj([
                ("workload", Json::Str(workload.name().to_string())),
                ("size", Json::Num(options.size.spec_number() as f64)),
                ("collector", Json::Str(choice.label().to_string())),
                (
                    "objects_created",
                    Json::Num(result.objects_created() as f64),
                ),
                (
                    "collectable_percent",
                    Json::Num(result.collectable_percent()),
                ),
                ("trace_events", Json::Num(recorded.events.len() as f64)),
                ("replay_seconds", Json::Num(result.elapsed_seconds)),
                ("live_at_exit", Json::Num(result.live_at_exit as f64)),
            ]));
        }
    }

    println!("{}", table.render_text());
    println!(
        "{} workload recording(s) served {} collector evaluation(s)",
        cache.len(),
        json_runs.len()
    );

    let json = Json::obj([("runs", Json::Arr(json_runs))]);
    let path = "BENCH_trace_eval.json";
    match std::fs::write(path, json.render_pretty()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
