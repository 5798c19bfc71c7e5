//! Experiment harness reproducing every table and figure of the
//! contaminated-GC paper's evaluation (thesis Chapter 4 and Appendix A).
//!
//! The crate has three layers:
//!
//! * [`runner`] — runs one synthetic SPEC workload under one collector
//!   configuration and returns a uniform [`runner::RunResult`].
//! * [`paper`] — the values the paper reports, transcribed from the thesis,
//!   used to produce paper-vs-measured records in every report.
//! * [`experiments`] — one function per table/figure that runs the required
//!   configurations and renders the paper-style table plus comparison
//!   records.
//!
//! The `repro_all` binary in `src/bin/` is a thin wrapper around
//! [`experiments`]: `repro_all` runs everything and `repro_all <id>...`
//! (ids in [`REPORT_IDS`]) a selection; it writes `experiments_output.md`
//! and machine-readable `BENCH_repro.json`.  The `trace_eval` binary
//! demonstrates the trace-driven runner mode: each workload is interpreted
//! once (recording its event stream via `cg-trace`) and every collector is
//! then evaluated by replay through [`replay_run`].  The evaluator itself —
//! single-threaded and sharded — lives in `cg-trace`
//! (`cg_trace::{replay_governed, replay_path_governed,
//! parallel_eval_governed, …}`); nothing outside this crate depends on it.
//! The benches in `benches/` (hand-rolled harness in [`microbench`]; the
//! build environment has no crates.io access for criterion) cover the
//! micro-costs (union/find, store barrier, frame pop, allocation,
//! interpreter dispatch) and the end-to-end timing comparisons behind
//! Figures 4.7, 4.8 and 4.12.  `cargo bench -p cg-bench` runs them all;
//! each label is timed but gated only on exact work counts ([`microbench`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod microbench;
pub mod paper;
pub mod runner;

pub use cli::{parse_options, parse_trace_eval, TraceEvalOptions};
pub use experiments::{all_reports, report_by_id, ExperimentOptions, REPORT_IDS};
pub use microbench::{cg_counts, counts_since, BenchHarness, BenchResult};
pub use runner::{
    record_workload_trace, replay_run, run_once, CollectorChoice, RunResult, TraceCache,
    WorkloadTrace,
};
