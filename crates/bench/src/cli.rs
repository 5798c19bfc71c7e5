//! Tiny command-line parsing shared by the `repro_all` and `trace_eval`
//! binaries.

use crate::experiments::ExperimentOptions;
use crate::runner::CollectorChoice;
use cg_workloads::Size;

/// Parses the flags the reproduction binaries accept:
///
/// * `--quick` — size 1 only, one repetition (smoke-test mode).
/// * `--reps N` — timing repetitions (default 3; the paper uses 5).
/// * `--no-medium` — skip the size-10 runs.
/// * `--no-large` — skip the size-100 runs (the slowest part).
///
/// Unrecognised arguments are returned so callers (such as `repro_all`) can
/// interpret them as experiment ids.
pub fn parse_options<I: IntoIterator<Item = String>>(args: I) -> (ExperimentOptions, Vec<String>) {
    let mut options = ExperimentOptions::default();
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options = ExperimentOptions::quick(),
            "--no-large" => options.include_large = false,
            "--no-medium" => options.include_medium = false,
            "--reps" => {
                let value = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .expect("--reps requires a positive integer");
                options.repetitions = value.max(1);
            }
            other => rest.push(other.to_string()),
        }
    }
    (options, rest)
}

/// Options of the trace-driven runner (`trace_eval`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvalOptions {
    /// Workloads to evaluate (empty = all eight).
    pub workloads: Vec<String>,
    /// Problem size.
    pub size: Size,
    /// Collector configurations to drive from each recorded trace.
    pub collectors: Vec<CollectorChoice>,
}

impl Default for TraceEvalOptions {
    fn default() -> Self {
        Self {
            workloads: Vec::new(),
            size: Size::S1,
            collectors: vec![
                CollectorChoice::Baseline,
                CollectorChoice::Cg,
                CollectorChoice::CgNoOpt,
                CollectorChoice::CgReset,
            ],
        }
    }
}

/// Parses the `trace_eval` flags:
///
/// * `--size N` — SPEC problem size 1/10/100 (default 1).
/// * `--collectors a,b,c` — comma-separated [`CollectorChoice::label`]s.
/// * anything else — a workload name.
///
/// # Panics
///
/// Panics with a usage message on malformed sizes or unknown collector
/// labels (these binaries are developer tools; failing loudly beats running
/// the wrong experiment).
pub fn parse_trace_eval<I: IntoIterator<Item = String>>(args: I) -> TraceEvalOptions {
    let mut options = TraceEvalOptions::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => {
                let value = args.next().expect("--size requires 1, 10 or 100");
                options.size = Size::parse(&value)
                    .unwrap_or_else(|| panic!("--size must be 1, 10 or 100, got '{value}'"));
            }
            "--collectors" => {
                let value = args
                    .next()
                    .expect("--collectors requires a comma-separated list");
                options.collectors = value
                    .split(',')
                    .map(|label| {
                        CollectorChoice::parse(label.trim())
                            .unwrap_or_else(|| panic!("unknown collector label '{label}'"))
                    })
                    .collect();
            }
            workload => options.workloads.push(workload.to_string()),
        }
    }
    options
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> (ExperimentOptions, Vec<String>) {
        parse_options(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_include_everything() {
        let (options, rest) = parse(&[]);
        assert_eq!(options, ExperimentOptions::default());
        assert!(rest.is_empty());
    }

    #[test]
    fn quick_flag_switches_to_smoke_mode() {
        let (options, _) = parse(&["--quick"]);
        assert_eq!(options, ExperimentOptions::quick());
    }

    #[test]
    fn reps_and_size_flags() {
        let (options, rest) = parse(&["--reps", "5", "--no-large", "fig4_1"]);
        assert_eq!(options.repetitions, 5);
        assert!(!options.include_large);
        assert!(options.include_medium);
        assert_eq!(rest, vec!["fig4_1".to_string()]);
    }

    #[test]
    #[should_panic(expected = "--reps requires")]
    fn reps_without_value_panics() {
        let _ = parse(&["--reps"]);
    }

    fn parse_eval(args: &[&str]) -> TraceEvalOptions {
        parse_trace_eval(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn trace_eval_defaults() {
        let options = parse_eval(&[]);
        assert!(options.workloads.is_empty());
        assert_eq!(options.size, Size::S1);
        assert!(options.collectors.contains(&CollectorChoice::Cg));
        assert!(!options.collectors.contains(&CollectorChoice::CgRecycle));
    }

    #[test]
    fn trace_eval_flags() {
        let options = parse_eval(&["db", "--size", "10", "--collectors", "cg, jdk-msa", "jess"]);
        assert_eq!(
            options.workloads,
            vec!["db".to_string(), "jess".to_string()]
        );
        assert_eq!(options.size, Size::S10);
        assert_eq!(
            options.collectors,
            vec![CollectorChoice::Cg, CollectorChoice::Baseline]
        );
    }

    #[test]
    #[should_panic(expected = "unknown collector label")]
    fn trace_eval_rejects_unknown_collectors() {
        let _ = parse_eval(&["--collectors", "zgc"]);
    }
}
