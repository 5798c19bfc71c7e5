//! End-to-end timing benches behind Figures 4.7, 4.8 and 4.12, plus the
//! live-vs-replay comparison of the trace runner.
//!
//! Three representative size-1 workloads run under the traditional
//! collector, contaminated GC, and contaminated GC with recycling.  The full
//! per-benchmark timing tables (all eight workloads, all three problem
//! sizes, five repetitions) are produced by `repro_all fig4_7 fig4_8 fig4_10
//! fig4_12`; these benches exist so the relative collector costs are tracked run over run
//! in `BENCH_timing.json`.
//!
//! The `trace/` group times the two halves of the trace-driven runner on
//! `db`: recording a workload (one interpretation) and replaying its stream
//! against the contaminated collector.  Replay must beat live interpretation
//! (`timing_size1/db/cg`) — that is the point of the event-stream layer:
//! evaluating another collector costs a replay, not a re-interpretation.
//!
//! Each label is also counted once, untimed: the counts of one run must
//! equal its line in `EXPECTED` (see `cg_bench::microbench`); the
//! recording label also counts the most heap bytes it held at once
//! (`peak_bytes`).

mod common;

use cg_bench::{
    record_workload_trace, replay_run, run_once, BenchHarness, CollectorChoice, RunResult,
};
use cg_workloads::{Size, Workload};

/// One line per label: its counts, zero counters omitted.
const EXPECTED: &[&str] = &[
    "timing_size1/db/jdk-msa instructions=49368 objects_created=1897 allocations=2039",
    "timing_size1/db/cg instructions=49368 objects_created=1897 objects_freed=690 allocations=4510",
    "timing_size1/db/cg-recycle instructions=49368 objects_created=1897 allocations=3824",
    "timing_size1/jess/jdk-msa instructions=186296 objects_created=11467 allocations=11706",
    "timing_size1/jess/cg instructions=186296 objects_created=11467 objects_freed=7000 allocations=26154",
    "timing_size1/jess/cg-recycle instructions=186296 objects_created=11467 allocations=19163",
    "timing_size1/compress/jdk-msa instructions=3409194 objects_created=1245 allocations=1406",
    "timing_size1/compress/cg instructions=3409194 objects_created=1245 objects_freed=136 allocations=2995",
    "timing_size1/compress/cg-recycle instructions=3409194 objects_created=1245 allocations=2863",
    "trace/db_record_once events=12167 peak_bytes=991644 allocations=2123",
    "trace/db_replay_cg instructions=49368 objects_created=1897 objects_freed=690 allocations=4380",
];

/// Representative subset: one record-heavy benchmark (db), one
/// rule-engine-style allocator (jess) and one compute-bound benchmark
/// (compress).
const SUBSET: [&str; 3] = ["db", "jess", "compress"];

/// What one run did: interpretation, allocation and collection work.
fn run_counts(run: &RunResult) -> [(&'static str, u64); 4] {
    [
        ("instructions", run.vm.instructions),
        ("objects_created", run.objects_created()),
        ("objects_freed", run.vm.collector_freed_objects),
        ("gc_cycles", run.vm.gc_cycles),
    ]
}

fn bench_collectors(h: &mut BenchHarness) {
    for name in SUBSET {
        let workload = Workload::by_name(name).expect("known benchmark");
        for choice in [
            CollectorChoice::Baseline,
            CollectorChoice::Cg,
            CollectorChoice::CgRecycle,
        ] {
            let label = format!("timing_size1/{name}/{}", choice.label());
            h.bench_counted(label, 3, || {
                run_counts(&run_once(workload, Size::S1, choice).expect("run succeeds"))
            });
        }
    }
}

fn bench_trace_runner(h: &mut BenchHarness) {
    let workload = Workload::by_name("db").expect("known benchmark");
    h.bench_counted("trace/db_record_once", 3, || {
        common::reset_peak();
        let recorded = record_workload_trace(workload, Size::S1, CollectorChoice::Cg)
            .expect("recording succeeds");
        [
            ("events", recorded.events.len() as u64),
            ("peak_bytes", common::peak_bytes()),
        ]
    });
    let recorded =
        record_workload_trace(workload, Size::S1, CollectorChoice::Cg).expect("recording succeeds");
    let replay = h.bench_counted("trace/db_replay_cg", 3, || {
        run_counts(&replay_run(&recorded, CollectorChoice::Cg).expect("replay succeeds"))
    });
    let live = h.ns_of("timing_size1/db/cg").expect("live db run benched");
    println!(
        "trace runner: replaying CG is {:.2}x the speed of live interpretation",
        live / replay.max(f64::MIN_POSITIVE)
    );
    if replay >= live {
        eprintln!("WARNING: replay was not faster than live interpretation on this machine");
    }
}

fn main() {
    let mut harness = BenchHarness::new("timing").with_counts(EXPECTED, common::allocations);
    bench_collectors(&mut harness);
    bench_trace_runner(&mut harness);
    harness.finish([]);
}
