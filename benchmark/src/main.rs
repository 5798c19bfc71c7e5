//! `cg-benchmark` — the repo benchmark (see README.md, ../BENCHMARK.json).
//!
//! ```text
//! cg-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! cg-benchmark run       [--seed N] [--seconds S]
//! cg-benchmark trace     [--seed N] [--seconds S]
//! cg-benchmark selfcheck [--seed N] [--seconds S]
//! cg-benchmark manifest
//! cg-benchmark expected <workload>/<size>
//! ```
//!
//! The first form runs one workload in this process and prints one JSON
//! result object as the last line of stdout: end-to-end metrics with
//! `--trace 0` (tracing off), per-layer metrics with `--trace 1`.  `run`,
//! `trace` and `selfcheck` run every workload that way, each in its own
//! child process, and print the tables.

mod daemon;
mod layers;
mod ops;
mod reference;
mod report;
mod spans;
mod spec;
mod util;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use cg_stats::Json;

use crate::util::{median, TempDir};
use crate::workloads::SETUP_REPEATS;

/// Parsed `--flag value` arguments.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub positional: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cg-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
         cg-benchmark run|trace|selfcheck [--seed N] [--seconds S]\n       \
         cg-benchmark manifest | expected <workload>/<size>\n\
         workloads: {}",
        spec::workload_names().collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| "--seconds must be a positive number".to_string())?;
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

/// The one-line result object the driver reads.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

fn metrics_json<'a>(
    named: impl Iterator<Item = (&'a str, &'a str)>,
    values: &[(&'static str, f64)],
) -> Json {
    Json::Obj(
        named
            .map(|(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Runs one workload in this process: the untraced run for the end-to-end
/// metrics, or the traced run for the per-layer ones.
fn run_workload(args: &Args, workload: &str) -> Result<(), String> {
    if !spec::workload_names().any(|w| w == workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    println!(
        "# cg-benchmark {workload} seed={} seconds={} trace={} stamp={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::machine_stamp(args.seed, false).render()
    );
    let tmp = TempDir::create(workload).map_err(|e| format!("temp dir: {e}"))?;

    if workload == "serve_sharded" && util::nproc() < 2 {
        // A 2-shard grant on one core measures scheduling, not sharding.
        println!("# serve_sharded UNARMED(cores<2): running its single client against 1 worker");
    }

    if args.trace {
        let traced = layers::trace_workload(workload, tmp.path(), args.seed, args.seconds)?;
        for note in &traced.notes {
            println!("# {note}");
        }
        let metrics = metrics_json(
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)),
            &traced.metrics,
        );
        println!(
            "{}",
            result_line(traced.failed == 0, traced.attempted, traced.failed, metrics)
        );
        return Ok(());
    }

    // Set up several times and report the median, so `setup_s` is steady;
    // the last set-up is the one measured.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for round in 0..SETUP_REPEATS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(workloads::prepare(
            workload,
            &tmp.path().join(format!("setup-{round}")),
        )?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_REPEATS >= 1");
    let mut measured = workloads::measure(&prepared, args.seed, args.seconds);
    if let Err(message) = workloads::finish(prepared) {
        measured.attempted += 1;
        measured.fail(message);
    }
    for failure in &measured.failures {
        println!("# FAILED: {failure}");
    }
    let ms = &measured.ops;
    println!(
        "# {} timed operation(s) over {:.3} s; {} attempted, {} failed; \
         operation ms min {:.1} p25 {:.1} p50 {:.1} p95 {:.1}; set-ups {:.3?}",
        measured.ops.len(),
        measured.unit_s.iter().sum::<f64>(),
        measured.attempted,
        measured.failed,
        util::percentile(ms, 0.0),
        util::percentile(ms, 25.0),
        median(ms),
        util::percentile(ms, 95.0),
        setups
    );
    if measured.ops.is_empty() {
        return Err("no operation completed".to_string());
    }
    let values = workloads::end_to_end(&measured, median(&setups));
    let metrics = metrics_json(spec::END_TO_END.iter().map(|m| (m.name, m.unit)), &values);
    println!(
        "{}",
        result_line(
            measured.failed == 0,
            measured.attempted,
            measured.failed,
            metrics
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "selfcheck" | "manifest" | "expected")) => (c, &raw[1..]),
        _ => ("workload", &raw[..]),
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return usage();
        }
    };
    let result = match command {
        "workload" => match args.workload.clone() {
            Some(workload) => run_workload(&args, &workload),
            None => return usage(),
        },
        "run" => report::run(&args),
        "trace" => report::trace(&args),
        "selfcheck" => report::selfcheck(&args),
        "manifest" => {
            println!("{}", spec::manifest().render_pretty());
            Ok(())
        }
        "expected" => match args.positional.as_slice() {
            [spec] => report::expected(spec),
            _ => return usage(),
        },
        _ => unreachable!("command was matched above"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
