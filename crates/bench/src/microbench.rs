//! A tiny benchmarking harness that times every label and gates on counts.
//!
//! The build environment has no crates.io access, so the `benches/` targets
//! cannot use criterion; they use this harness instead (`harness = false` in
//! the manifest gives each bench its own `main`).  It does three things:
//!
//! * [`BenchHarness::bench`] times a label: a median-of-rounds
//!   nanoseconds-per-iteration figure, printed to stdout and written to
//!   `BENCH_<name>.json` so the perf trajectory can be tracked run over run.
//!   A timing is never compared against a stored number: on a shared
//!   2-vCPU machine the same binary reads 2x apart from one run to the
//!   next, and the same source 3.5x apart from one build directory to the
//!   next.
//! * [`BenchHarness::count`] runs one untimed iteration of a label and keeps
//!   exact counts of the work it did: union operations, recycle probes,
//!   free-block search steps, instructions, events, and — through the bench
//!   binary's counting global allocator — heap allocations.
//! * [`BenchHarness::finish`] writes the JSON, then checks every label's
//!   counts against the table committed in the bench source and exits
//!   non-zero listing each (label, counter, expected, got) that differs.
//!
//! # The count table
//!
//! Each table line is a label followed by its `counter=value` pairs; a
//! counter the line does not name is expected to be zero.  [`count`] prints
//! every label's counts as a ready-made table line, so refreshing a count
//! after an intended change means pasting the printed line over the old
//! one — the new number then shows up in review.
//!
//! [`count`]: BenchHarness::count

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use cg_core::CgStats;
use cg_stats::Json;

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// `group/name` label.
    pub label: String,
    /// Iterations per measurement round.
    pub iters: u64,
    /// Median nanoseconds per iteration across rounds.
    pub ns_per_iter: f64,
}

/// A counter whose value differs from the committed table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMismatch {
    /// The bench label.
    pub label: String,
    /// The counter (`*` when the label was never counted at all).
    pub counter: &'static str,
    /// The table's value; `None` when the table has no line for the label.
    pub expected: Option<u64>,
    /// The measured value; `None` when the label did not report it.
    pub got: Option<u64>,
}

impl fmt::Display for CountMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |value: Option<u64>| value.map_or("none".to_string(), |v| v.to_string());
        let (expected, got) = (show(self.expected), show(self.got));
        write!(
            f,
            "{} {}: expected {expected}, got {got}",
            self.label, self.counter
        )
    }
}

/// Collects results for one bench binary and writes the summary file.
#[derive(Debug, Default)]
pub struct BenchHarness {
    name: String,
    results: Vec<BenchResult>,
    expected: &'static [&'static str],
    allocations: Option<fn() -> u64>,
    /// Each counted label's `(counter, value)` pairs.
    counts: Vec<(String, Vec<(&'static str, u64)>)>,
}

/// Number of timed rounds per benchmark; the reported figure is the median.
const ROUNDS: usize = 7;

impl BenchHarness {
    /// Creates a harness; `name` becomes the `BENCH_<name>.json` file stem.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Checks counts against `expected`, one line per label (see the module
    /// docs), and adds an `allocations` counter to every label, read from
    /// `allocations` — the calling thread's running allocation count.
    pub fn with_counts(
        mut self,
        expected: &'static [&'static str],
        allocations: fn() -> u64,
    ) -> Self {
        self.expected = expected;
        self.allocations = Some(allocations);
        self
    }

    /// Measures `f`, which performs **one** iteration per call.
    ///
    /// Runs one warm-up round plus `ROUNDS` (7) timed rounds of `iters`
    /// iterations and records the median.  The closure's result is passed
    /// through [`black_box`] so the optimizer cannot delete the work.
    ///
    /// # Panics
    ///
    /// Panics if `iters` is zero (the per-iteration figure would be NaN).
    pub fn bench<T>(
        &mut self,
        label: impl Into<String>,
        iters: u64,
        mut f: impl FnMut() -> T,
    ) -> f64 {
        assert!(iters > 0, "bench needs at least one iteration per round");
        let label = label.into();
        let mut round_ns = Vec::with_capacity(ROUNDS);
        for round in 0..=ROUNDS {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as f64 / iters as f64;
            // Round 0 is the warm-up.
            if round > 0 {
                round_ns.push(elapsed);
            }
        }
        round_ns.sort_by(f64::total_cmp);
        let median = round_ns[round_ns.len() / 2];
        println!("{label:<55} {median:>12.1} ns/iter   ({iters} iters x {ROUNDS} rounds)");
        self.results.push(BenchResult {
            label,
            iters,
            ns_per_iter: median,
        });
        median
    }

    /// Runs `f` once, untimed, and records the counts it returns plus the
    /// heap allocations it made.  The counts are printed as a table line.
    pub fn count<C>(&mut self, label: impl Into<String>, f: impl FnOnce() -> C)
    where
        C: IntoIterator<Item = (&'static str, u64)>,
    {
        let label = label.into();
        let before = self.allocations.map(|read| read());
        let reported = f();
        let allocations = self.allocations.zip(before).map(|(read, b)| read() - b);
        let mut counts: Vec<_> = reported.into_iter().collect();
        counts.extend(allocations.map(|n| ("allocations", n)));
        let line: String = counts
            .iter()
            .filter(|&&(_, value)| value != 0)
            .map(|(counter, value)| format!(" {counter}={value}"))
            .collect();
        println!("  counts \"{label}{line}\",");
        self.counts.push((label, counts));
    }

    /// [`Self::count`]s one iteration of `f`, whose result is that
    /// iteration's counts, then [`Self::bench`]es it.
    pub fn bench_counted<C>(
        &mut self,
        label: impl Into<String>,
        iters: u64,
        mut f: impl FnMut() -> C,
    ) -> f64
    where
        C: IntoIterator<Item = (&'static str, u64)>,
    {
        let label = label.into();
        self.count(&label, &mut f);
        self.bench(label, iters, f)
    }

    /// The median for a previously measured label.
    pub fn ns_of(&self, label: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.ns_per_iter)
    }

    /// Every counter that differs from the table, every label the table has
    /// no line for, and every timed or tabled label that was never counted.
    ///
    /// # Panics
    ///
    /// Panics on a malformed table line.
    pub fn count_mismatches(&self) -> Vec<CountMismatch> {
        let table: Vec<(&str, Vec<(&str, u64)>)> =
            self.expected.iter().map(|line| parse_line(line)).collect();
        let mismatch = |label: &str, counter, expected, got| CountMismatch {
            label: label.to_string(),
            counter,
            expected,
            got,
        };
        let mut out = Vec::new();
        for (label, got) in &self.counts {
            let Some((_, want)) = table.iter().find(|(l, _)| l == label) else {
                out.extend(got.iter().map(|&(c, v)| mismatch(label, c, None, Some(v))));
                continue;
            };
            for &(counter, value) in got {
                let expected = want.iter().find(|(c, _)| *c == counter).map_or(0, |e| e.1);
                if expected != value {
                    out.push(mismatch(label, counter, Some(expected), Some(value)));
                }
            }
            for &(counter, expected) in want {
                if !got.iter().any(|(c, _)| *c == counter) {
                    out.push(mismatch(label, counter, Some(expected), None));
                }
            }
        }
        let labels = table.iter().map(|(label, _)| *label);
        for label in labels.chain(self.results.iter().map(|r| r.label.as_str())) {
            let counted = self.counts.iter().any(|(l, _)| l == label);
            if !counted && !out.iter().any(|m| m.label == label) {
                out.push(mismatch(label, "*", None, None));
            }
        }
        out
    }

    /// The results, each with its counts, as a JSON document with `extra`
    /// top-level fields appended — benches use these to record environment
    /// facts (e.g. the core count) needed to interpret multi-threaded
    /// timings.
    pub fn to_json(&self, extra: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        let result = |r: &BenchResult| {
            let counts = self.counts.iter().find(|(l, _)| *l == r.label);
            let counts =
                counts.map(|(_, c)| Json::obj(c.iter().map(|&(k, v)| (k, Json::Num(v as f64)))));
            Json::obj(
                [
                    ("label", Json::Str(r.label.clone())),
                    ("iters", Json::Num(r.iters as f64)),
                    ("ns_per_iter", Json::Num(r.ns_per_iter)),
                ]
                .into_iter()
                .chain(counts.map(|c| ("counts", c))),
            )
        };
        Json::obj(
            [
                ("bench", Json::Str(self.name.clone())),
                (
                    "results",
                    Json::Arr(self.results.iter().map(result).collect()),
                ),
            ]
            .into_iter()
            .chain(extra),
        )
    }

    /// Writes `BENCH_<name>.json` into the current directory (a write
    /// failure is reported but not fatal), then checks the counts: every
    /// mismatch is listed and the process exits with status 1.
    pub fn finish(&self, extra: impl IntoIterator<Item = (&'static str, Json)>) {
        let path = format!("BENCH_{}.json", self.name);
        match std::fs::write(&path, self.to_json(extra).render_pretty()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        let mismatches = self.count_mismatches();
        eprintln!("{}: {} count mismatches", self.name, mismatches.len());
        for mismatch in &mismatches {
            eprintln!("  {mismatch}");
        }
        if !mismatches.is_empty() {
            std::process::exit(1);
        }
    }
}

/// Splits a table line into its label and `counter=value` pairs.
fn parse_line(line: &'static str) -> (&'static str, Vec<(&'static str, u64)>) {
    let mut words = line.split_whitespace();
    let label = words.next().expect("count table line has a label");
    let counts = words
        .map(|word| {
            word.split_once('=')
                .and_then(|(counter, value)| Some((counter, value.parse().ok()?)))
                .unwrap_or_else(|| panic!("count table line {line:?}: bad pair {word:?}"))
        })
        .collect();
    (label, counts)
}

/// The contaminated collector's work counters: union operations and
/// contaminating stores (§3.1), static-optimisation skips (§3.4), objects
/// freed at frame pops (§2.2), and recycle-list probes and reuses (§3.7).
pub fn cg_counts(stats: &CgStats) -> [(&'static str, u64); 6] {
    [
        ("unions", stats.unions),
        ("contaminations", stats.contaminations),
        ("static_opt_skips", stats.static_opt_skips),
        ("objects_collected", stats.objects_collected),
        ("recycle_probes", stats.recycle_probes),
        ("objects_recycled", stats.objects_recycled),
    ]
}

/// `after - before`, counter by counter: the work done between two reads
/// of the same cumulative counters.
pub fn counts_since<const N: usize>(
    after: [(&'static str, u64); N],
    before: [(&'static str, u64); N],
) -> [(&'static str, u64); N] {
    let mut delta = after;
    for (d, b) in delta.iter_mut().zip(before) {
        d.1 -= b.1;
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_records() {
        let mut harness = BenchHarness::new("selftest");
        let ns = harness.bench("group/busy_loop", 100, || {
            (0..100u64).fold(0u64, |a, b| a.wrapping_add(b * b))
        });
        assert!(ns >= 0.0);
        assert_eq!(harness.ns_of("group/busy_loop"), Some(ns));
        assert_eq!(harness.ns_of("missing"), None);
        let json = harness.to_json([]);
        assert_eq!(json.get("bench").and_then(Json::as_str), Some("selftest"));
        assert_eq!(
            json.get("results")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn count_check_reports_every_mismatch_in_one_run() {
        fn allocations() -> u64 {
            7
        }
        let mut harness = BenchHarness::new("selftest").with_counts(
            &[
                "probes/higher probes=2",
                "probes/lower probes=5 unions=1",
                "probes/equal probes=1",
                "probes/never_run probes=1",
            ],
            allocations,
        );
        harness.count("probes/higher", || [("probes", 3)]);
        harness.count("probes/lower", || [("probes", 4), ("unions", 1)]);
        harness.count("probes/untabled", || [("probes", 1)]);
        harness.count("probes/equal", || [("probes", 1), ("unions", 0)]);
        harness.bench("probes/timed_only", 1, || 0);
        let mismatch = |label: &str, counter, expected, got| CountMismatch {
            label: label.to_string(),
            counter,
            expected,
            got,
        };
        assert_eq!(
            harness.count_mismatches(),
            [
                mismatch("probes/higher", "probes", Some(2), Some(3)),
                mismatch("probes/lower", "probes", Some(5), Some(4)),
                mismatch("probes/untabled", "probes", None, Some(1)),
                mismatch("probes/untabled", "allocations", None, Some(0)),
                mismatch("probes/never_run", "*", None, None),
                mismatch("probes/timed_only", "*", None, None),
            ]
        );
        assert_eq!(
            harness.count_mismatches()[0].to_string(),
            "probes/higher probes: expected 2, got 3"
        );
        let json = harness.to_json([]);
        let results = json.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results[0].get("counts"), None, "timed_only has no counts");
    }
}
