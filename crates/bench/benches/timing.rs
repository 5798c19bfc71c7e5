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
//! — that is the point of the event-stream layer: evaluating another
//! collector costs a replay, not a re-interpretation.

use cg_bench::{record_workload_trace, replay_run, run_once, BenchHarness, CollectorChoice};
use cg_workloads::{Size, Workload};

/// Representative subset: one record-heavy benchmark (db), one
/// rule-engine-style allocator (jess) and one compute-bound benchmark
/// (compress).
const SUBSET: [&str; 3] = ["db", "jess", "compress"];

fn bench_collectors(h: &mut BenchHarness) {
    for name in SUBSET {
        let workload = Workload::by_name(name).expect("known benchmark");
        for choice in [
            CollectorChoice::Baseline,
            CollectorChoice::Cg,
            CollectorChoice::CgRecycle,
        ] {
            h.bench(format!("timing_size1/{name}/{}", choice.label()), 3, || {
                let result = run_once(workload, Size::S1, choice).expect("run succeeds");
                result.objects_created()
            });
        }
    }
}

fn bench_trace_runner(h: &mut BenchHarness) {
    let workload = Workload::by_name("db").expect("known benchmark");
    let live = h.bench("trace/db_live_cg_run", 3, || {
        run_once(workload, Size::S1, CollectorChoice::Cg)
            .expect("live run succeeds")
            .objects_created()
    });
    h.bench("trace/db_record_once", 3, || {
        record_workload_trace(workload, Size::S1, None)
            .expect("recording succeeds")
            .trace
            .len()
    });
    let recorded = record_workload_trace(workload, Size::S1, None).expect("recording succeeds");
    let replay = h.bench("trace/db_replay_cg", 3, || {
        replay_run(&recorded, CollectorChoice::Cg)
            .expect("replay succeeds")
            .objects_created()
    });
    println!(
        "trace runner: replaying CG is {:.2}x the speed of live interpretation",
        live / replay.max(f64::MIN_POSITIVE)
    );
    if replay >= live {
        eprintln!("WARNING: replay was not faster than live interpretation on this machine");
    }
}

fn main() {
    let mut harness = BenchHarness::new("timing");
    bench_collectors(&mut harness);
    bench_trace_runner(&mut harness);
    harness.write_json();
}
