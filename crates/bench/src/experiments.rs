//! One function per table/figure of the paper's evaluation.
//!
//! Every function runs the required workload/collector configurations and
//! returns an [`ExperimentReport`] containing the paper-style table(s) plus
//! paper-vs-measured records.  `repro_all [id...]` prints these reports.

use cg_stats::{percent, Cell, ExperimentRecord, ExperimentReport, RunTimings, Table};
use cg_workloads::{Size, Workload};

use crate::paper;
use crate::runner::{run_once, run_repeated, CollectorChoice, RunResult};

/// Options controlling how much work the experiment functions do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Timing repetitions per configuration (the paper uses 5).
    pub repetitions: usize,
    /// Include the size-10 ("medium") runs.
    pub include_medium: bool,
    /// Include the size-100 ("large") runs (the slowest part of the suite).
    pub include_large: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            repetitions: 3,
            include_medium: true,
            include_large: true,
        }
    }
}

impl ExperimentOptions {
    /// A quick configuration for smoke tests: size 1 only, one repetition.
    pub fn quick() -> Self {
        Self {
            repetitions: 1,
            include_medium: false,
            include_large: false,
        }
    }

    /// The sizes selected by these options.
    pub fn sizes(&self) -> Vec<Size> {
        let mut sizes = vec![Size::S1];
        if self.include_medium {
            sizes.push(Size::S10);
        }
        if self.include_large {
            sizes.push(Size::S100);
        }
        sizes
    }
}

fn workloads() -> Vec<Workload> {
    Workload::all()
}

fn cg_run(workload: Workload, size: Size, choice: CollectorChoice) -> RunResult {
    run_once(workload, size, choice).unwrap_or_else(|e| {
        panic!(
            "{} (size {size}, {:?}) failed: {e}",
            workload.name(),
            choice
        )
    })
}

// ----------------------------------------------------------------------
// Figure 4.1 — collectable objects, with and without the §3.4 optimisation
// ----------------------------------------------------------------------

/// Figure 4.1: percentage of objects collectable by CG, without and with the
/// static optimisation, at SPEC size 1.
fn fig4_1() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Fig 4.1",
        "Percentage of objects collectable by CG, without and with the §3.4 optimisation (size 1)",
    );
    let mut table = Table::new(
        "Figure 4.1 — collectable objects (size 1)",
        &[
            "benchmark",
            "objects created",
            "collectable (no opt)",
            "collectable (with opt)",
        ],
    );
    for workload in workloads() {
        let with_opt = cg_run(workload, Size::S1, CollectorChoice::Cg);
        let no_opt = cg_run(workload, Size::S1, CollectorChoice::CgNoOpt);
        table.push_row(vec![
            Cell::text(workload.name()),
            Cell::count(with_opt.objects_created()),
            Cell::percent(no_opt.collectable_percent()),
            Cell::percent(with_opt.collectable_percent()),
        ]);
        if let Some((_, _, paper_noopt, paper_opt)) = paper::FIG4_1
            .iter()
            .copied()
            .find(|(n, ..)| *n == workload.name())
        {
            report.add_record(ExperimentRecord::with_paper(
                "Fig 4.1",
                format!("{} % collectable (with opt)", workload.name()),
                paper_opt,
                with_opt.collectable_percent(),
            ));
            report.add_record(ExperimentRecord::with_paper(
                "Fig 4.1",
                format!("{} % collectable (no opt)", workload.name()),
                paper_noopt,
                no_opt.collectable_percent(),
            ));
        }
    }
    report.add_table(table);
    report
}

// ----------------------------------------------------------------------
// Figures 4.2–4.4 — static / thread-shared / collectable shares by size
// ----------------------------------------------------------------------

/// Figures 4.2–4.4: per benchmark and problem size, the percentage of
/// objects that end up collectable, static, and thread-shared.
fn fig4_2_4(options: ExperimentOptions) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Fig 4.2-4.4",
        "Share of objects collectable vs static vs thread-shared, by problem size",
    );
    for size in options.sizes() {
        let mut table = Table::new(
            format!(
                "Figure 4.{} — object disposition (size {size})",
                match size {
                    Size::S1 => 2,
                    Size::S10 => 3,
                    Size::S100 => 4,
                }
            ),
            &[
                "benchmark",
                "objects",
                "collectable %",
                "static %",
                "thread-shared %",
            ],
        );
        for workload in workloads() {
            let run = cg_run(workload, size, CollectorChoice::Cg);
            let cg = run.cg.as_ref().expect("cg run");
            let total = cg.breakdown.total().max(1);
            table.push_row(vec![
                Cell::text(workload.name()),
                Cell::count(run.objects_created()),
                Cell::percent(percent(cg.breakdown.popped, total)),
                Cell::percent(percent(cg.breakdown.static_objects, total)),
                Cell::percent(percent(cg.breakdown.thread_shared, total)),
            ]);
            if size == Size::S1 && workload.name() == "javac" {
                report.add_record(
                    ExperimentRecord::with_paper(
                        "Fig 4.2",
                        "javac % thread-shared (size 1)",
                        percent(14_255, 26_111),
                        percent(cg.breakdown.thread_shared, total),
                    )
                    .note("javac's class-loader thread dominates the small run"),
                );
            }
        }
        report.add_table(table);
    }
    report
}

// ----------------------------------------------------------------------
// Figure 4.5 — distribution of equilive block sizes
// ----------------------------------------------------------------------

/// Figure 4.5: distribution of collected block sizes and the percentage of
/// collectable objects in singleton (exact) blocks, at size 1.
fn fig4_5() -> ExperimentReport {
    let mut report =
        ExperimentReport::new("Fig 4.5", "Distribution of equilive block sizes (size 1)");
    let mut table = Table::new(
        "Figure 4.5 — block sizes at collection (size 1)",
        &[
            "benchmark",
            "collectable",
            "1",
            "2",
            "3",
            "4",
            "5",
            "6-10",
            ">10",
            "percent exact",
        ],
    );
    for workload in workloads() {
        let run = cg_run(workload, Size::S1, CollectorChoice::Cg);
        let cg = run.cg.as_ref().expect("cg run");
        let h = &cg.stats.block_sizes;
        let exact_percent = percent(
            cg.stats.objects_collected_exactly,
            cg.stats.objects_collected,
        );
        table.push_row(vec![
            Cell::text(workload.name()),
            Cell::count(cg.stats.objects_collected),
            Cell::count(h.bucket_count(0)),
            Cell::count(h.bucket_count(1)),
            Cell::count(h.bucket_count(2)),
            Cell::count(h.bucket_count(3)),
            Cell::count(h.bucket_count(4)),
            Cell::count(h.bucket_count(5)),
            Cell::count(h.overflow()),
            Cell::percent(exact_percent),
        ]);
        if let Some(paper_exact) = paper::lookup(&paper::FIG4_5_PERCENT_EXACT, workload.name()) {
            report.add_record(ExperimentRecord::with_paper(
                "Fig 4.5",
                format!("{} % exact", workload.name()),
                paper_exact,
                exact_percent,
            ));
        }
    }
    report.add_table(table);
    report
}

// ----------------------------------------------------------------------
// Figure 4.6 — age at death
// ----------------------------------------------------------------------

/// Figure 4.6: frame distance between an object's birth and the frame whose
/// pop collects it, at size 1.
fn fig4_6() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Fig 4.6",
        "Age at death of collected objects, in frames (size 1)",
    );
    let mut table = Table::new(
        "Figure 4.6 — distance from birth to death frame (size 1)",
        &["benchmark", "0", "1", "2", "3", "4", "5", ">5"],
    );
    for workload in workloads() {
        let run = cg_run(workload, Size::S1, CollectorChoice::Cg);
        let cg = run.cg.as_ref().expect("cg run");
        let h = &cg.stats.age_at_death;
        table.push_row(vec![
            Cell::text(workload.name()),
            Cell::count(h.bucket_count(0)),
            Cell::count(h.bucket_count(1)),
            Cell::count(h.bucket_count(2)),
            Cell::count(h.bucket_count(3)),
            Cell::count(h.bucket_count(4)),
            Cell::count(h.bucket_count(5)),
            Cell::count(h.overflow()),
        ]);
        if workload.name() == "raytrace" {
            let total = h.total().max(1);
            report.add_record(
                ExperimentRecord::with_paper(
                    "Fig 4.6",
                    "raytrace % dying >5 frames from birth",
                    percent(152_133, 272_316),
                    percent(h.overflow(), total),
                )
                .note("deep shading recursion carries results far from their birth frame"),
            );
        }
        if workload.name() == "jack" {
            let total = h.total().max(1);
            report.add_record(
                ExperimentRecord::with_paper(
                    "Fig 4.6",
                    "jack % dying within 1 frame of birth",
                    percent(63_230 + 263_574, 349_936),
                    percent(h.bucket_count(0) + h.bucket_count(1), total),
                )
                .note("token temporaries die almost immediately"),
            );
        }
    }
    report.add_table(table);
    report
}

// ----------------------------------------------------------------------
// Figures 4.7 / 4.8 / 4.10 / A.5–A.7 — timing
// ----------------------------------------------------------------------

/// Timing of one benchmark under CG and under the baseline, averaged over
/// repetitions.
struct TimingRow {
    benchmark: &'static str,
    cg: RunTimings,
    jdk: RunTimings,
}

fn time_benchmarks(size: Size, repetitions: usize) -> Vec<TimingRow> {
    workloads()
        .into_iter()
        .map(|workload| {
            let cg_runs = run_repeated(workload, size, CollectorChoice::Cg, repetitions)
                .unwrap_or_else(|e| panic!("{} cg timing failed: {e}", workload.name()));
            let jdk_runs = run_repeated(workload, size, CollectorChoice::Baseline, repetitions)
                .unwrap_or_else(|e| panic!("{} baseline timing failed: {e}", workload.name()));
            let mut cg = RunTimings::new(format!("{}/cg", workload.name()));
            let mut jdk = RunTimings::new(format!("{}/jdk", workload.name()));
            for run in &cg_runs {
                cg.push_seconds(run.elapsed_seconds);
            }
            for run in &jdk_runs {
                jdk.push_seconds(run.elapsed_seconds);
            }
            TimingRow {
                benchmark: workload.name(),
                cg,
                jdk,
            }
        })
        .collect()
}

fn timing_report(
    id: &str,
    description: &str,
    size: Size,
    repetitions: usize,
    paper_speedups: &[(&str, f64)],
) -> ExperimentReport {
    let mut report = ExperimentReport::new(id, description);
    let mut table = Table::new(
        format!("{id} — timing, size {size} ({repetitions} repetitions)"),
        &["benchmark", "CG (s)", "JDK (s)", "speedup"],
    );
    for row in time_benchmarks(size, repetitions) {
        let speedup = cg_stats::speedup(row.jdk.mean_seconds(), row.cg.mean_seconds());
        table.push_row(vec![
            Cell::text(row.benchmark),
            Cell::seconds(row.cg.mean_seconds()),
            Cell::seconds(row.jdk.mean_seconds()),
            Cell::ratio(speedup),
        ]);
        if let Some(paper_speedup) = paper::lookup(paper_speedups, row.benchmark) {
            report.add_record(
                ExperimentRecord::with_paper(
                    id,
                    format!("{} speedup (size {size})", row.benchmark),
                    paper_speedup,
                    speedup,
                )
                .note(
                    "ratios of wall-clock time; absolute times are not comparable to 1999 hardware",
                ),
            );
        }
    }
    report.add_table(table);
    report
}

/// Figure 4.7: CG vs base-system timing at size 1.
fn fig4_7(options: ExperimentOptions) -> ExperimentReport {
    timing_report(
        "Fig 4.7",
        "Timing of CG vs the traditional collector, size 1",
        Size::S1,
        options.repetitions,
        &paper::FIG4_7_SPEEDUP,
    )
}

/// Figure 4.8: CG vs base-system timing at size 10.
fn fig4_8(options: ExperimentOptions) -> ExperimentReport {
    timing_report(
        "Fig 4.8",
        "Timing of CG vs the traditional collector, size 10",
        Size::S10,
        options.repetitions,
        &paper::FIG4_8_SPEEDUP,
    )
}

/// Figure 4.10: speedup of CG over the base system across all problem sizes.
fn fig4_10(options: ExperimentOptions) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Fig 4.10",
        "Speedup of CG over the traditional collector across problem sizes",
    );
    let mut table = Table::new(
        "Figure 4.10 — speedup by size",
        &["benchmark", "size 1", "size 10", "size 100"],
    );
    let sizes = options.sizes();
    let mut per_size: Vec<(Size, Vec<(String, f64)>)> = Vec::new();
    for &size in &sizes {
        let rows = time_benchmarks(size, options.repetitions);
        let speedups = rows
            .iter()
            .map(|row| {
                (
                    row.benchmark.to_string(),
                    cg_stats::speedup(row.jdk.mean_seconds(), row.cg.mean_seconds()),
                )
            })
            .collect();
        per_size.push((size, speedups));
    }
    for workload in workloads() {
        let mut cells = vec![Cell::text(workload.name())];
        for size in [Size::S1, Size::S10, Size::S100] {
            let value = per_size
                .iter()
                .find(|(s, _)| *s == size)
                .and_then(|(_, rows)| rows.iter().find(|(n, _)| n == workload.name()))
                .map(|(_, v)| *v);
            cells.push(value.map(Cell::ratio).unwrap_or(Cell::Missing));
        }
        table.push_row(cells);
        if sizes.contains(&Size::S100) {
            if let Some(paper_speedup) =
                paper::lookup(&paper::FIG4_10_LARGE_SPEEDUP, workload.name())
            {
                let measured = per_size
                    .iter()
                    .find(|(s, _)| *s == Size::S100)
                    .and_then(|(_, rows)| rows.iter().find(|(n, _)| n == workload.name()))
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0);
                report.add_record(
                    ExperimentRecord::with_paper(
                        "Fig 4.10",
                        format!("{} speedup (size 100)", workload.name()),
                        paper_speedup,
                        measured,
                    )
                    .note("allocation-heavy benchmarks should favour CG on large runs"),
                );
            }
        }
    }
    report.add_table(table);
    report
}

/// Appendix A.5–A.7: the raw per-repetition timings behind the timing
/// figures.
fn fig_a5_7(options: ExperimentOptions) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Fig A.5-A.7",
        "Raw per-repetition timings for CG and the traditional collector",
    );
    for size in options.sizes() {
        let mut table = Table::new(
            format!("Appendix A — raw timings, size {size}"),
            &["benchmark", "repetition", "CG (s)", "JDK (s)"],
        );
        for row in time_benchmarks(size, options.repetitions) {
            for (i, (cg, jdk)) in row.cg.seconds().iter().zip(row.jdk.seconds()).enumerate() {
                table.push_row(vec![
                    Cell::text(row.benchmark),
                    Cell::count(i as u64 + 1),
                    Cell::seconds(*cg),
                    Cell::seconds(*jdk),
                ]);
            }
        }
        report.add_table(table);
    }
    report
}

// ----------------------------------------------------------------------
// Figure 4.9 — large runs
// ----------------------------------------------------------------------

/// Figure 4.9: object counts and collectable percentages on the large
/// (size 100) runs.
fn fig4_9() -> ExperimentReport {
    let mut report = ExperimentReport::new("Fig 4.9", "SPEC benchmarks, large runs (size 100)");
    let mut table = Table::new(
        "Figure 4.9 — large runs",
        &[
            "benchmark",
            "objects created",
            "collectable (with opt)",
            "exactly collectable",
        ],
    );
    for workload in workloads() {
        let run = cg_run(workload, Size::S100, CollectorChoice::Cg);
        let cg = run.cg.as_ref().expect("cg run");
        table.push_row(vec![
            Cell::text(workload.name()),
            Cell::count(run.objects_created()),
            Cell::percent(cg.stats.collectable_percent()),
            Cell::percent(cg.stats.exactly_collectable_percent()),
        ]);
        if let Some((_, _, paper_collectable, _)) = paper::FIG4_9
            .iter()
            .copied()
            .find(|(n, ..)| *n == workload.name())
        {
            report.add_record(ExperimentRecord::with_paper(
                "Fig 4.9",
                format!("{} % collectable (size 100)", workload.name()),
                paper_collectable,
                cg.stats.collectable_percent(),
            ));
        }
    }
    report.add_table(table);
    report
}

// ----------------------------------------------------------------------
// Figure 4.11 — resetting during traditional collection
// ----------------------------------------------------------------------

/// Figure 4.11: the resetting experiment — run the traditional collector
/// every 100 000 instructions, resetting CG structures during its mark phase.
fn fig4_11() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Fig 4.11",
        "Resetting CG structures during traditional collection (periodic forced MSA, size 1)",
    );
    let mut table = Table::new(
        "Figure 4.11 — resetting results (size 1)",
        &["benchmark", "collected by MSA", "less live", "GC cycles"],
    );
    for workload in workloads() {
        let run = cg_run(workload, Size::S1, CollectorChoice::CgReset);
        let cg = run.cg.as_ref().expect("cg run");
        let msa = run.msa.expect("hybrid run has MSA stats");
        table.push_row(vec![
            Cell::text(workload.name()),
            Cell::count(cg.stats.reset_collected_by_msa),
            Cell::count(cg.stats.reset_less_live),
            Cell::count(msa.cycles),
        ]);
        report.add_record(ExperimentRecord::measured_only(
            "Fig 4.11",
            format!("{} objects collected by MSA", workload.name()),
            cg.stats.reset_collected_by_msa as f64,
        ));
    }
    report.add_table(table);
    report
}

// ----------------------------------------------------------------------
// Figures 4.12 / 4.13 — recycling
// ----------------------------------------------------------------------

/// Figure 4.12: timing of CG with object recycling vs plain CG, at size 1.
fn fig4_12(options: ExperimentOptions) -> ExperimentReport {
    let mut report = ExperimentReport::new("Fig 4.12", "Recycle timing, small runs (size 1)");
    let mut table = Table::new(
        "Figure 4.12 — recycling timing (size 1)",
        &["benchmark", "CG (s)", "CG + recycling (s)", "speedup"],
    );
    for workload in workloads() {
        let plain: Vec<RunResult> =
            run_repeated(workload, Size::S1, CollectorChoice::Cg, options.repetitions)
                .expect("cg run");
        let recycled: Vec<RunResult> = run_repeated(
            workload,
            Size::S1,
            CollectorChoice::CgRecycle,
            options.repetitions,
        )
        .expect("recycle run");
        let plain_mean = plain.iter().map(|r| r.elapsed_seconds).sum::<f64>() / plain.len() as f64;
        let recycled_mean =
            recycled.iter().map(|r| r.elapsed_seconds).sum::<f64>() / recycled.len() as f64;
        let speedup = cg_stats::speedup(plain_mean, recycled_mean);
        table.push_row(vec![
            Cell::text(workload.name()),
            Cell::seconds(plain_mean),
            Cell::seconds(recycled_mean),
            Cell::ratio(speedup),
        ]);
        if let Some(paper_speedup) = paper::lookup(&paper::FIG4_12_RECYCLE_SPEEDUP, workload.name())
        {
            report.add_record(ExperimentRecord::with_paper(
                "Fig 4.12",
                format!("{} recycling speedup", workload.name()),
                paper_speedup,
                speedup,
            ));
        }
    }
    report.add_table(table);
    report
}

/// Figure 4.13: how many objects the recycling allocator reused, at size 1.
fn fig4_13() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Fig 4.13",
        "Number of objects recycled, small runs (size 1)",
    );
    let mut table = Table::new(
        "Figure 4.13 — objects recycled (size 1)",
        &["benchmark", "objects recycled", "percent of total"],
    );
    for workload in workloads() {
        let run = cg_run(workload, Size::S1, CollectorChoice::CgRecycle);
        let cg = run.cg.as_ref().expect("cg run");
        let recycled_percent = cg.stats.recycled_percent();
        table.push_row(vec![
            Cell::text(workload.name()),
            Cell::count(cg.stats.objects_recycled),
            Cell::percent(recycled_percent),
        ]);
        if let Some(paper_percent) =
            paper::lookup(&paper::FIG4_13_PERCENT_RECYCLED, workload.name())
        {
            report.add_record(ExperimentRecord::with_paper(
                "Fig 4.13",
                format!("{} % recycled", workload.name()),
                paper_percent,
                recycled_percent,
            ));
        }
    }
    report.add_table(table);
    report
}

// ----------------------------------------------------------------------
// Appendix A.1–A.4 — static and thread-shared breakdowns
// ----------------------------------------------------------------------

/// Appendix A.1: share of static objects that are static only because of
/// thread sharing, at size 1.
fn fig_a1() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Fig A.1",
        "Percentage of static objects that are static because of thread sharing (size 1)",
    );
    let mut table = Table::new(
        "Appendix A.1 — thread-shared share of static objects (size 1)",
        &["benchmark", "static objects", "% due to threads"],
    );
    for workload in workloads() {
        let run = cg_run(workload, Size::S1, CollectorChoice::Cg);
        let cg = run.cg.as_ref().expect("cg run");
        let static_total = cg.breakdown.static_objects + cg.breakdown.thread_shared;
        let thread_percent = percent(cg.breakdown.thread_shared, static_total);
        table.push_row(vec![
            Cell::text(workload.name()),
            Cell::count(static_total),
            Cell::percent(thread_percent),
        ]);
        if workload.name() == "javac" {
            report.add_record(ExperimentRecord::with_paper(
                "Fig A.1",
                "javac % of static objects due to threads",
                72.0,
                thread_percent,
            ));
        }
    }
    report.add_table(table);
    report
}

/// Appendix A.2–A.4: the popped / static / thread-shared breakdown per size.
fn fig_a2_4(options: ExperimentOptions) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Fig A.2-A.4",
        "Object breakdown (popped / static / thread-shared) by problem size",
    );
    for size in options.sizes() {
        let mut table = Table::new(
            format!("Appendix A — object breakdown, size {size}"),
            &["benchmark", "popped", "static", "thread"],
        );
        for workload in workloads() {
            let run = cg_run(workload, size, CollectorChoice::Cg);
            let cg = run.cg.as_ref().expect("cg run");
            table.push_row(vec![
                Cell::text(workload.name()),
                Cell::count(cg.breakdown.popped),
                Cell::count(cg.breakdown.static_objects),
                Cell::count(cg.breakdown.thread_shared),
            ]);
            if size == Size::S1 {
                if let Some((_, popped, statics, _thread)) = paper::FIGA_2_BREAKDOWN_SMALL
                    .iter()
                    .copied()
                    .find(|(n, ..)| *n == workload.name())
                {
                    report.add_record(ExperimentRecord::with_paper(
                        "Fig A.2",
                        format!("{} popped share (size 1)", workload.name()),
                        percent(popped, popped + statics + _thread),
                        percent(cg.breakdown.popped, cg.breakdown.total().max(1)),
                    ));
                }
            }
        }
        report.add_table(table);
    }
    report
}

// ----------------------------------------------------------------------
// registry
// ----------------------------------------------------------------------

/// Identifiers accepted by [`report_by_id`] and the `repro_all` binary.
pub const REPORT_IDS: [&str; 14] = [
    "fig4_1", "fig4_2_4", "fig4_5", "fig4_6", "fig4_7", "fig4_8", "fig4_9", "fig4_10", "fig4_11",
    "fig4_12", "fig4_13", "figA_1", "figA_2_4", "figA_5_7",
];

/// Runs the experiment with the given identifier.
///
/// # Panics
///
/// Panics if `id` is not one of [`REPORT_IDS`].
pub fn report_by_id(id: &str, options: ExperimentOptions) -> ExperimentReport {
    match id {
        "fig4_1" => fig4_1(),
        "fig4_2_4" => fig4_2_4(options),
        "fig4_5" => fig4_5(),
        "fig4_6" => fig4_6(),
        "fig4_7" => fig4_7(options),
        "fig4_8" => fig4_8(options),
        "fig4_9" => fig4_9(),
        "fig4_10" => fig4_10(options),
        "fig4_11" => fig4_11(),
        "fig4_12" => fig4_12(options),
        "fig4_13" => fig4_13(),
        "figA_1" => fig_a1(),
        "figA_2_4" => fig_a2_4(options),
        "figA_5_7" => fig_a5_7(options),
        other => panic!("unknown experiment id '{other}' (expected one of {REPORT_IDS:?})"),
    }
}

/// Runs every experiment and returns the reports in paper order.
pub fn all_reports(options: ExperimentOptions) -> Vec<ExperimentReport> {
    REPORT_IDS
        .iter()
        .map(|id| report_by_id(id, options))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_1_has_all_benchmarks_and_opt_never_hurts() {
        let report = fig4_1();
        let table = &report.tables()[0];
        assert_eq!(table.len(), 8);
        for row in table.rows() {
            let no_opt = match row[2] {
                Cell::Percent(p) => p,
                _ => panic!("expected percent"),
            };
            let with_opt = match row[3] {
                Cell::Percent(p) => p,
                _ => panic!("expected percent"),
            };
            assert!(
                with_opt + 1e-9 >= no_opt,
                "optimisation must never collect less"
            );
        }
        assert!(!report.records().is_empty());
    }

    #[test]
    fn fig4_5_percent_exact_is_within_range() {
        let report = fig4_5();
        for record in report.records() {
            assert!(record.measured >= 0.0 && record.measured <= 100.0);
        }
    }

    #[test]
    fn fig4_13_recycles_objects_for_allocation_heavy_benchmarks() {
        let report = fig4_13();
        let table = &report.tables()[0];
        let jack = table.row_by_label("jack").expect("jack row");
        match jack[1] {
            Cell::Count(n) => assert!(n > 1_000, "jack should recycle many objects, got {n}"),
            _ => panic!("expected count"),
        }
    }

    #[test]
    fn report_registry_is_consistent() {
        assert_eq!(REPORT_IDS.len(), 14);
        // Quick structural check on one cheap report via the registry.
        let report = report_by_id("figA_1", ExperimentOptions::quick());
        assert_eq!(report.id(), "Fig A.1");
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_report_id_panics() {
        let _ = report_by_id("fig9_9", ExperimentOptions::quick());
    }
}
