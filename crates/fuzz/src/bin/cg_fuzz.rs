//! The `cg-fuzz` binary: generate, check, minimise, replay.
//!
//! ```text
//! cg-fuzz [--seed N|0xHEX] [--iters N] [--profile NAME|all]
//!         [--forced-gc N] [--fault skip-contamination] [--domain atomic|mutex]
//!         [--minimize] [--out PATH] [--replay FILE] [--mutate-trace]
//! ```
//!
//! The primary oracle legs run with inline caches on unless `CG_VM_FUSION`
//! is `off`; the oracle's inline-cache differential leg re-records each
//! program with the opposite setting, so byte identity is checked either
//! way.
//!
//! Exit code 0 means every checked program passed the oracle; 1 means a
//! counterexample was found (printed, and written to `--out` when
//! `--minimize` is given); 2 means bad usage.
//!
//! `--mutate-trace` switches to the adversarial trace-mutation campaign:
//! valid traces recorded from all eight workload shapes are corrupted at
//! the byte and event level and replayed under resource limits; `--iters`
//! is the total mutated-case budget and `--out` receives the failing
//! `.cgt` artifact if a case panics, hangs or silently misdecodes.
//!
//! `--mutate-proto` attacks the `cgtd` frame protocol instead: wire-valid
//! client sessions are corrupted at the byte and frame level and fed
//! through the frame parser and session reassembler, which must decode
//! them exactly or reject them with a structured error — never panic,
//! hang, or mis-hash.

use std::process::ExitCode;

use cg_core::{DomainImpl, FaultInjection};
use cg_fuzz::{
    check_program, generate, instruction_count, parse, run_mutation_campaign, run_proto_campaign,
    serialize, shrink, GenProfile, MutationOptions, OracleOptions, ProtoMutationOptions,
    QuietPanics,
};
use cg_testutil::TestRng;

struct Options {
    seed: u64,
    iters: u64,
    profiles: Vec<&'static GenProfile>,
    forced_gc: Option<u64>,
    fault: FaultInjection,
    minimize: bool,
    out: String,
    replay: Option<String>,
    case_seed: Option<u64>,
    domain: DomainImpl,
    mutate_trace: bool,
    mutate_proto: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            iters: 100,
            profiles: GenProfile::all(),
            forced_gc: None,
            fault: FaultInjection::None,
            minimize: false,
            out: "cg-fuzz-counterexample.cgp".to_string(),
            replay: None,
            case_seed: None,
            domain: DomainImpl::default(),
            mutate_trace: false,
            mutate_proto: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cg-fuzz [--seed N|0xHEX] [--iters N] [--profile NAME|all] \
         [--forced-gc N] [--fault skip-contamination] [--domain atomic|mutex] \
         [--minimize] [--out PATH] [--replay FILE] \
         [--case-seed N|0xHEX] [--mutate-trace] [--mutate-proto]\n\n\
         CG_VM_FUSION=off runs the primary legs without inline caches; the\n\
         differential leg re-records with them either way.\n\
         Exit codes: 0 pass, 1 counterexample, 2 bad usage.\n\nprofiles:"
    );
    for p in GenProfile::all() {
        eprintln!("  {:<14} {}", p.name, p.description);
    }
    std::process::exit(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args() -> Options {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                options.seed = parse_seed(&v).unwrap_or_else(|| usage());
            }
            "--iters" => {
                let v = args.next().unwrap_or_else(|| usage());
                options.iters = v.parse().unwrap_or_else(|_| usage());
            }
            "--profile" => {
                let v = args.next().unwrap_or_else(|| usage());
                if v != "all" {
                    options.profiles = vec![GenProfile::by_name(&v).unwrap_or_else(|| {
                        eprintln!("unknown profile '{v}'");
                        usage()
                    })];
                }
            }
            "--forced-gc" => {
                let v = args.next().unwrap_or_else(|| usage());
                options.forced_gc = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--fault" => {
                let v = args.next().unwrap_or_else(|| usage());
                options.fault = match v.as_str() {
                    "none" => FaultInjection::None,
                    "skip-contamination" => FaultInjection::SkipContamination,
                    _ => {
                        eprintln!("unknown fault '{v}'");
                        usage()
                    }
                };
            }
            "--domain" => {
                let v = args.next().unwrap_or_else(|| usage());
                options.domain = match v.as_str() {
                    "atomic" => DomainImpl::Atomic,
                    "mutex" => DomainImpl::Mutex,
                    _ => {
                        eprintln!("unknown domain implementation '{v}'");
                        usage()
                    }
                };
            }
            "--case-seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                options.case_seed = Some(parse_seed(&v).unwrap_or_else(|| usage()));
            }
            "--minimize" => options.minimize = true,
            "--mutate-trace" => options.mutate_trace = true,
            "--mutate-proto" => options.mutate_proto = true,
            "--out" => options.out = args.next().unwrap_or_else(|| usage()),
            "--replay" => options.replay = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
    }
    options
}

fn oracle_options(options: &Options) -> OracleOptions {
    let mut oracle = OracleOptions::default();
    oracle.cg.fault = options.fault;
    // The primary static-domain implementation; the oracle's differential
    // leg exercises the other one as well.
    oracle.cg.domain_impl = options.domain;
    // `--forced-gc 0` disables the periodic barriers; absent, the oracle
    // default (1024) stands.
    match options.forced_gc {
        Some(0) => oracle.forced_gc = None,
        Some(n) => oracle.forced_gc = Some(n),
        None => {}
    }
    oracle
}

fn replay_file(path: &str, oracle: &OracleOptions) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let program = match parse(&text) {
        Ok(program) => program,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {path}: '{}' ({} instructions)",
        program.name(),
        instruction_count(&program)
    );
    match check_program(&program, oracle) {
        Ok(report) => {
            println!(
                "PASS: {} events, {} instructions, {} objects, {} spawned threads",
                report.trace_events,
                report.instructions,
                report.objects_created,
                report.threads_spawned
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            println!("FAIL [{}]: {failure}", failure.class());
            ExitCode::FAILURE
        }
    }
}

fn mutate_traces(options: &Options) -> ExitCode {
    // `--iters` is the total case budget, spread across all eight shapes.
    let cases_per_workload = (options.iters / 8).max(1);
    let campaign = MutationOptions {
        seed: options.seed,
        cases_per_workload,
        ..MutationOptions::default()
    };
    let start = std::time::Instant::now();
    let report = run_mutation_campaign(&campaign);
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "mutation campaign: {} cases across 8 workloads in {elapsed:.1}s \
         ({} clean passes, {} structured errors, longest case {:.2}s)",
        report.cases,
        report.clean_passes,
        report.structured_errors,
        report.max_case.as_secs_f64()
    );
    if report.failures.is_empty() {
        println!("PASS: every mutant terminated with correct stats or a structured error");
        return ExitCode::SUCCESS;
    }
    for failure in &report.failures {
        println!(
            "FAIL: workload={} mutation={} case-seed={:#x}: {}",
            failure.workload, failure.mutation, failure.case_seed, failure.detail
        );
    }
    // Preserve the first reproducible artifact for CI upload.
    if let Some(bytes) = report.failures.iter().find_map(|f| f.artifact.as_ref()) {
        let path = format!("{}.cgt", options.out.trim_end_matches(".cgp"));
        match std::fs::write(&path, bytes) {
            Ok(()) => println!("  wrote failing mutant to {path}"),
            Err(e) => eprintln!("  could not write {path}: {e}"),
        }
    }
    ExitCode::FAILURE
}

fn mutate_proto(options: &Options) -> ExitCode {
    let campaign = ProtoMutationOptions {
        seed: options.seed,
        cases: options.iters,
    };
    let start = std::time::Instant::now();
    let report = run_proto_campaign(&campaign);
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "protocol campaign: {} cases in {elapsed:.1}s \
         ({} clean passes, {} structured errors, longest case {:.2}s)",
        report.cases,
        report.clean_passes,
        report.structured_errors,
        report.max_case.as_secs_f64()
    );
    if report.failures.is_empty() {
        println!("PASS: every mutated stream decoded exactly or failed with a structured error");
        return ExitCode::SUCCESS;
    }
    for failure in &report.failures {
        println!(
            "FAIL: mutation={} case-seed={:#x}: {}",
            failure.mutation, failure.case_seed, failure.detail
        );
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let options = parse_args();
    let oracle = oracle_options(&options);
    let _quiet = QuietPanics::install();

    if options.mutate_trace {
        return mutate_traces(&options);
    }
    if options.mutate_proto {
        return mutate_proto(&options);
    }
    if let Some(path) = &options.replay {
        return replay_file(path, &oracle);
    }

    let base = TestRng::new(options.seed);
    let start = std::time::Instant::now();
    let mut checked = 0u64;
    let mut events = 0u64;
    let mut instructions = 0u64;

    let iters = if options.case_seed.is_some() {
        options.profiles.len() as u64
    } else {
        options.iters
    };
    for iter in 0..iters {
        let profile = options.profiles[(iter as usize) % options.profiles.len()];
        // An independent, reproducible seed per iteration: re-running with
        // the printed `--case-seed` and `--profile` replays the exact
        // program.
        let case_seed = match options.case_seed {
            Some(seed) => seed,
            None => {
                let mut child = base.derive(iter);
                child.next_u64()
            }
        };
        let program = generate(case_seed, profile);
        checked += 1;
        match check_program(&program, &oracle) {
            Ok(report) => {
                events += report.trace_events as u64;
                instructions += report.instructions;
            }
            Err(failure) => {
                println!(
                    "FAIL at iteration {iter}: profile={} seed={case_seed:#x} class={}",
                    profile.name,
                    failure.class()
                );
                println!("  {failure}");
                println!(
                    "  reproduce: cg-fuzz --profile {} --case-seed {case_seed:#x}",
                    profile.name
                );
                let to_write = if options.minimize {
                    let oracle = &oracle;
                    let outcome = shrink(&program, |p| {
                        check_program(p, oracle)
                            .err()
                            .map(|f| f.class().to_string())
                    })
                    .expect("the program just failed");
                    println!(
                        "  minimised {} -> {} instructions in {} oracle runs",
                        outcome.original_instructions, outcome.final_instructions, outcome.attempts
                    );
                    outcome.program
                } else {
                    program
                };
                let text = serialize(&to_write);
                match std::fs::write(&options.out, &text) {
                    Ok(()) => println!("  wrote {}", options.out),
                    Err(e) => eprintln!("  could not write {}: {e}", options.out),
                }
                return ExitCode::FAILURE;
            }
        }
    }

    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "PASS: {checked} programs across {} profile(s), {events} trace events, \
         {instructions} instructions in {elapsed:.2}s ({:.0} programs/s)",
        options.profiles.len(),
        checked as f64 / elapsed.max(1e-9)
    );
    ExitCode::SUCCESS
}
