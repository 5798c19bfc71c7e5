//! `run`, `trace`, `selfcheck` and `expected`: every workload in its own
//! child process, the tables, and the `out/*.json` files.

use std::process::{Command, Stdio};
use std::time::Instant;

use cg_stats::Json;
use cg_trace::footer::VM_SECTION;

use crate::ops::{self, InputSpec};
use crate::reference;
use crate::spec::{self, Better, END_TO_END, LAYER_SHARES, PER_LAYER};
use crate::util::{self, TempDir};
use crate::workloads::SETUP_REPEATS;
use crate::Args;

/// One child run of one workload.
struct Child {
    workload: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    /// The `#` lines the child printed before its result (stamp, counts,
    /// failures, layer shares).
    notes: Vec<String>,
    wall_s: f64,
}

impl Child {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Timed operations, from the child's own count line.
    fn samples(&self) -> String {
        self.notes
            .iter()
            .find_map(|n| n.strip_prefix("# ")?.split_once(" timed operation"))
            .map_or_else(|| "?".to_string(), |(count, _)| count.to_string())
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.to_string())),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::Num(*value)))
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ])
    }
}

fn run_child(workload: &'static str, args: &Args, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let result = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let field = |key: &str| {
        result
            .get(key)
            .ok_or_else(|| format!("{workload}: result lacks '{key}'"))
    };
    let metrics = match field("metrics")? {
        Json::Obj(members) => members
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                (name.clone(), value)
            })
            .collect(),
        _ => return Err(format!("{workload}: 'metrics' is not an object")),
    };
    Ok(Child {
        workload,
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
        notes: lines.iter().map(|l| l.to_string()).collect(),
        wall_s,
    })
}

fn run_set(args: &Args, trace: bool) -> Result<Vec<Child>, String> {
    spec::workload_names()
        .map(|workload| {
            eprintln!(
                "[cg-benchmark] {workload} ({}) ...",
                if trace { "traced" } else { "untraced" }
            );
            run_child(workload, args, trace)
        })
        .collect()
}

fn write_out(name: &str, document: &Json) -> Result<(), String> {
    let dir = util::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, document.render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn document(kind: &str, stamp: &Json, args: &Args, children: &[Child]) -> Json {
    Json::obj([
        ("kind", Json::Str(kind.to_string())),
        ("stamp", stamp.clone()),
        ("seconds", Json::Num(args.seconds)),
        (
            "workloads",
            Json::Arr(children.iter().map(Child::to_json).collect()),
        ),
        ("claim", Json::Null),
    ])
}

/// `BENCHMARK.json` must say what `spec.rs` says.
fn check_manifest() -> Result<(), String> {
    let path = util::bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let on_disk = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if on_disk == spec::manifest() {
        Ok(())
    } else {
        Err(format!(
            "{} is out of date with benchmark/src/spec.rs; regenerate it with \
             `cg-benchmark manifest`",
            path.display()
        ))
    }
}

fn unarmed(workload: &str) -> bool {
    workload == "serve_sharded" && util::nproc() < 2
}

fn print_end_to_end(children: &[Child]) {
    println!(
        "{:<15} {:<16} {:>16} {:<5} {:>8} {:>7}",
        "workload", "metric", "value", "unit", "samples", "bound"
    );
    for child in children {
        if unarmed(child.workload) {
            println!("{:<15} UNARMED(cores<2)", child.workload);
            continue;
        }
        for m in &END_TO_END {
            let sign = if m.better == Better::Higher { '-' } else { '+' };
            let samples = match m.name {
                "setup_s" => SETUP_REPEATS.to_string(),
                "peak_rss_mib" => "1".to_string(),
                _ => child.samples(),
            };
            println!(
                "{:<15} {:<16} {:>16.4} {:<5} {:>8} {:>6}%",
                child.workload,
                m.name,
                child.metric(m.name),
                m.unit,
                samples,
                format!("{sign}{:.0}", m.bound * 100.0),
            );
        }
        println!(
            "{:<15} {:<16} {:>16.4} {:<5} {:>8} {:>7}",
            child.workload,
            "failed_share",
            child.failed as f64 / child.attempted.max(1) as f64,
            "ratio",
            child.attempted,
            "=0",
        );
    }
}

fn verdict(children: &[Child]) -> Result<(), String> {
    let bad: Vec<&str> = children
        .iter()
        .filter(|c| !c.correct || c.failed > 0)
        .map(|c| c.workload)
        .collect();
    for child in children {
        for note in child.notes.iter().filter(|n| n.contains("FAILED")) {
            println!("{}: {note}", child.workload);
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("failed operations on: {}", bad.join(", ")))
    }
}

/// The untraced set: every end-to-end metric of every workload.
pub fn run(args: &Args) -> Result<(), String> {
    check_manifest()?;
    let stamp = util::machine_stamp(args.seed, true);
    println!("machine stamp: {}", stamp.render());
    let start = Instant::now();
    let children = run_set(args, false)?;
    print_end_to_end(&children);
    println!(
        "untraced set: {:.1} s including set-up",
        start.elapsed().as_secs_f64()
    );
    write_out(
        &format!("run-seed{}.json", args.seed),
        &document("run", &stamp, args, &children),
    )?;
    verdict(&children)
}

/// The traced set: every per-layer metric, one column per workload.
pub fn trace(args: &Args) -> Result<(), String> {
    check_manifest()?;
    let stamp = util::machine_stamp(args.seed, true);
    println!("machine stamp: {}", stamp.render());
    let children = run_set(args, true)?;
    print_per_layer(&children);
    write_out(
        &format!("trace-seed{}.json", args.seed),
        &document("trace", &stamp, args, &children),
    )?;
    verdict(&children)
}

fn print_per_layer(children: &[Child]) {
    print!("{:<38} {:<6}", "per-layer metric", "unit");
    for child in children {
        print!(" {:>14}", child.workload);
    }
    println!();
    for m in &PER_LAYER {
        print!("{:<38} {:<6}", m.name, m.unit);
        for child in children {
            let value = child.metric(m.name);
            if value == 0.0 {
                print!(" {:>14}", "-");
            } else if value.fract() == 0.0 {
                print!(" {:>14.0}", value);
            } else {
                print!(" {:>14.4}", value);
            }
        }
        println!();
    }
    println!(
        "\nwho does the work where (layer self time as a share of the traced operation, \
         net of the tracing's own `bench` cost; checked to add up):"
    );
    for child in children {
        let net = 1.0 - child.metric("share.bench");
        let shares: Vec<String> = LAYER_SHARES
            .iter()
            .filter(|(layer, metric)| *layer != "bench" && child.metric(metric) > 0.0)
            .map(|(layer, metric)| format!("{layer} {:.1}%", 100.0 * child.metric(metric) / net))
            .collect();
        println!(
            "  {:<15} {}; tracing itself {:.1}% of the traced time, unattributed {:.1}%, \
             traced/untraced {:.2}x",
            child.workload,
            shares.join(", "),
            100.0 * child.metric("share.bench"),
            100.0 * child.metric("bench.unattributed_share"),
            child.metric("bench.trace_overhead_ratio"),
        );
    }
}

/// Runs the untraced set twice back to back, and the traced set on two
/// seeds; passes only if every end-to-end median pair agrees within that
/// metric's own bound and every exact count is bit-identical.
pub fn selfcheck(args: &Args) -> Result<(), String> {
    check_manifest()?;
    let stamp = util::machine_stamp(args.seed, true);
    println!("machine stamp: {}", stamp.render());
    let first = run_set(args, false)?;
    let second = run_set(args, false)?;
    let mut breaches = Vec::new();
    println!(
        "{:<15} {:<16} {:>16} {:>16} {:>8} {:>7}",
        "workload", "metric", "run 1", "run 2", "gap", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        if unarmed(a.workload) {
            println!("{:<15} UNARMED(cores<2)", a.workload);
            continue;
        }
        for m in &END_TO_END {
            let (x, y) = (a.metric(m.name), b.metric(m.name));
            let gap = (x - y).abs() / x.min(y);
            let ok = gap <= m.bound;
            println!(
                "{:<15} {:<16} {:>16.4} {:>16.4} {:>7.2}% {:>6.0}%{}",
                a.workload,
                m.name,
                x,
                y,
                gap * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  BREACH" }
            );
            if !ok {
                breaches.push(format!("{}/{}", a.workload, m.name));
            }
        }
    }

    let other_seed = Args {
        seed: args.seed + 1,
        workload: None,
        positional: Vec::new(),
        ..*args
    };
    let traced_a = run_set(args, true)?;
    let traced_b = run_set(&other_seed, true)?;
    let mut exact = 0;
    for (a, b) in traced_a.iter().zip(&traced_b) {
        for m in PER_LAYER.iter().filter(|m| spec::is_exact(m.name)) {
            exact += 1;
            let (x, y) = (a.metric(m.name), b.metric(m.name));
            if x.to_bits() != y.to_bits() {
                println!(
                    "{:<15} {:<38} {x} != {y} (seeds {} / {})  BREACH",
                    a.workload, m.name, args.seed, other_seed.seed
                );
                breaches.push(format!("{}/{}", a.workload, m.name));
            }
        }
    }
    println!(
        "{exact} exact per-layer counts compared across seeds {} and {}",
        args.seed, other_seed.seed
    );
    write_out(
        &format!("selfcheck-seed{}.json", args.seed),
        &Json::obj([
            ("stamp", stamp.clone()),
            ("run_1", document("run", &stamp, args, &first)),
            ("run_2", document("run", &stamp, args, &second)),
            ("trace_1", document("trace", &stamp, args, &traced_a)),
            ("trace_2", document("trace", &stamp, &other_seed, &traced_b)),
            ("claim", Json::Null),
        ]),
    )?;
    for set in [&first, &second, &traced_a, &traced_b] {
        verdict(set)?;
    }
    if breaches.is_empty() {
        println!("selfcheck passed");
        Ok(())
    } else {
        Err(format!("selfcheck failed: {}", breaches.join(", ")))
    }
}

/// Prints the reference file for `<workload>/<size>` as computed by the
/// code as it stands (to regenerate `expected/*.txt` on purpose).
pub fn expected(spec: &str) -> Result<(), String> {
    let input = InputSpec::by_spec(spec)
        .ok_or_else(|| format!("'{spec}' is not one of the benchmark's recorded inputs"))?;
    let tmp = TempDir::create("expected").map_err(|e| format!("temp dir: {e}"))?;
    let path = tmp.path().join("input.cgt");
    ops::record_to_file(&input, &path)?;
    let verified = ops::verify_replay(&path)?;
    let vm = verified
        .footer
        .section(VM_SECTION)
        .ok_or("recording carries no \"vm\" section")?;
    print!(
        "{}",
        reference::render(spec, &verified.footer, &verified.cg, vm)
    );
    Ok(())
}
