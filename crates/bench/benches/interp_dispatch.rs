//! Dispatch-loop benchmarks: inline caches and the live-vs-replay
//! interpretation gap (`BENCH_interp_dispatch.json`).
//!
//! The `call_heavy` kernel — a tight loop calling a tiny leaf method —
//! isolates what the inline-cache pass buys (the per-site cache and the
//! pooled-locals frame push); it is interpreted live with the pass on
//! (`fused`) and off (`unfused`).
//!
//! An end-to-end leg records `javac/1` and times live interpretation
//! (cached and uncached, under the canonical contaminated collector)
//! against replaying the recorded stream — the "live interpretation gap".
//! The gap and the call-heavy speedup are embedded in the JSON alongside a
//! `dispatch_profile` section (per-opcode counts are populated when the
//! `profile` cargo feature is on; inline-cache hit and miss totals are
//! always live).
//!
//! Before timing anything the suite asserts the invariant: the kernel and
//! the javac workload record **byte-identical** event streams and
//! statistics with the pass on and off.
//!
//! CI re-runs the suite with `--check baselines/interp_dispatch.json` and
//! fails if any shared label regressed more than 2x (speed-normalised).

use std::hint::black_box;

use cg_bench::BenchHarness;
use cg_core::{CgConfig, ContaminatedGc};
use cg_stats::Json;
use cg_trace::{record, replay_governed, Governor};
use cg_vm::{ArithOp, Cond, Insn, MethodDef, NoopCollector, Operand, Program, Vm, VmConfig};
use cg_workloads::{Size, Workload};

const CALIBRATION_LABEL: &str = "calibration/spin_1k";

/// A tight loop of `iters` calls to a two-instruction leaf method; the call
/// gets an inline-cached, pooled-locals frame push.  The leaf declares a
/// javac-sized frame (32 locals): the unfused push pays a fresh
/// `vec![NULL; 32]` per call, the cached push recycles one from the pool —
/// the cost this kernel isolates.
fn call_heavy(iters: i64) -> Program {
    let mut p = Program::named("call_heavy");
    let leaf = p.add_method(MethodDef::new(
        "leaf",
        1,
        32,
        vec![
            Insn::Arith {
                op: ArithOp::Add,
                dst: 1,
                a: Operand::Local(0),
                b: Operand::Imm(1),
            },
            Insn::Return { value: Some(1) },
        ],
    ));
    let main = p.add_method(MethodDef::new(
        "main",
        0,
        6,
        vec![
            Insn::Const { dst: 0, value: 0 },
            // Loop head.
            Insn::Const { dst: 1, value: 41 },
            Insn::Call {
                method: leaf,
                args: vec![1],
                dst: Some(2),
            },
            Insn::Arith {
                op: ArithOp::Add,
                dst: 0,
                a: Operand::Local(0),
                b: Operand::Imm(1),
            },
            Insn::Branch {
                cond: Cond::Lt,
                a: Operand::Local(0),
                b: Operand::Imm(iters),
                target: 1,
            },
            Insn::Return { value: None },
        ],
    ));
    p.set_entry(main);
    p
}

/// Records `program` under a passive collector with fusion set as given.
fn record_with(program: &Program, config: VmConfig, fusion: bool) -> cg_trace::Trace {
    let (trace, _, _) = record(
        program.name().to_string(),
        program.clone(),
        config.with_fusion(fusion),
        NoopCollector::new(),
    )
    .expect("program records");
    trace
}

/// The tentpole invariant, asserted before anything is timed: fusion on
/// and off record the same bytes.
fn assert_byte_identical(program: &Program, config: VmConfig) {
    let fused = record_with(program, config, true);
    let unfused = record_with(program, config, false);
    assert_eq!(
        fused,
        unfused,
        "{}: fused and unfused event streams must be byte-identical",
        program.name()
    );
}

/// Runs `program` live to completion, returning executed instructions.
fn run_live(program: &Program, config: VmConfig) -> u64 {
    let mut vm = Vm::new(program.clone(), config, NoopCollector::new());
    let outcome = vm.run().expect("program runs");
    outcome.stats.instructions
}

/// The fused-over-unfused speedup, measured as the median of per-round
/// ratios with the two configurations interleaved back-to-back.  The
/// sequential harness labels are seconds apart, so a load spike on a
/// shared runner lands on one side only and skews the ratio; a paired
/// round sees the same machine state on both sides.
fn paired_speedup(program: &Program, config: VmConfig, rounds: usize) -> f64 {
    let time = |fusion: bool| {
        let start = std::time::Instant::now();
        black_box(run_live(program, config.with_fusion(fusion)));
        start.elapsed().as_secs_f64()
    };
    time(true);
    time(false);
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let fused = time(true);
            let unfused = time(false);
            unfused / fused
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

fn bench_call_heavy(h: &mut BenchHarness) -> f64 {
    let config = VmConfig::default();
    let program = call_heavy(60_000);
    assert_byte_identical(&program, config);
    for fusion in [true, false] {
        let label = format!(
            "interp_dispatch/call_heavy/{}",
            if fusion { "fused" } else { "unfused" }
        );
        h.bench(&label, 5, || {
            black_box(run_live(&program, config.with_fusion(fusion)))
        });
    }

    // The acceptance gate: call-heavy dispatch — the pattern the inline
    // caches and pooled frame pushes exist for — must be at least 1.5x.
    // Measured paired (fused/unfused back-to-back per round) so load drift
    // on a shared runner cannot fake a regression.
    let speedup = paired_speedup(&program, config, 9);
    assert!(
        speedup >= 1.5,
        "call-heavy fused dispatch must be >= 1.5x the unfused loop (got {speedup:.2}x paired)"
    );
    println!("call_heavy: {speedup:.2}x fused over unfused, paired (gate: >= 1.5x)");
    speedup
}

/// The end-to-end leg: live interpretation of javac/1 under the canonical
/// contaminated collector, fused and unfused, against replaying the
/// recorded stream.  Returns the fused live-vs-replay gap.
fn bench_javac_gap(h: &mut BenchHarness) -> f64 {
    let unlimited = Governor::unlimited();
    let workload = Workload::by_name("javac").expect("javac exists");
    let program = workload.program(Size::S1);
    let vm_config = VmConfig::default().with_heap(cg_bench::runner::experiment_heap());
    assert_byte_identical(&program, vm_config);

    let cg = CgConfig {
        verify_tainted: false,
        ..CgConfig::preferred()
    };
    let (trace, _, _) = record(
        "javac/1".to_string(),
        program.clone(),
        vm_config,
        NoopCollector::new(),
    )
    .expect("javac records");

    for fusion in [true, false] {
        let label = format!(
            "interp_dispatch/javac1/live_{}",
            if fusion { "fused" } else { "unfused" }
        );
        h.bench(&label, 3, || {
            let mut vm = Vm::new(
                program.clone(),
                vm_config.with_fusion(fusion),
                ContaminatedGc::with_config(cg),
            );
            vm.run().expect("javac runs");
            black_box(vm.collector().stats().objects_created)
        });
    }
    h.bench("interp_dispatch/javac1/replay_cg", 3, || {
        let outcome = replay_governed(
            &trace,
            vm_config.heap,
            ContaminatedGc::with_config(cg),
            &unlimited,
        )
        .expect("javac replays");
        black_box(outcome.collector.stats().objects_created)
    });

    let live_fused = h.ns_of("interp_dispatch/javac1/live_fused").unwrap();
    let live_unfused = h.ns_of("interp_dispatch/javac1/live_unfused").unwrap();
    let replay_ns = h.ns_of("interp_dispatch/javac1/replay_cg").unwrap();
    let gap_fused = live_fused / replay_ns;
    let gap_unfused = live_unfused / replay_ns;
    println!(
        "javac/1: live-vs-replay gap {gap_fused:.2}x fused, {gap_unfused:.2}x unfused \
         (the PR target is ~1.1x fused)"
    );
    if gap_fused > 1.2 {
        println!(
            "WARNING javac/1: fused live interpretation is {gap_fused:.2}x replay on this \
             machine (target ~1.1x)"
        );
    }
    gap_fused
}

/// One profiled fused run of the call-heavy kernel for the JSON section.
/// Opcode counts need the `profile` cargo feature; the inline-cache
/// counters are always maintained.
fn dispatch_profile_section() -> Json {
    let program = call_heavy(60_000);
    let mut vm = Vm::new(program, VmConfig::default(), NoopCollector::new());
    vm.run().expect("profiled run completes");
    let profile = vm.dispatch_profile();
    let opcodes: Vec<Json> = profile
        .hot_opcodes()
        .into_iter()
        .map(|(name, count)| {
            Json::Obj(vec![
                ("opcode".to_string(), Json::Str(name.to_string())),
                ("count".to_string(), Json::Num(count as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("kernel".to_string(), Json::Str("call_heavy".to_string())),
        (
            "opcode_counts_enabled".to_string(),
            Json::Bool(cfg!(feature = "profile")),
        ),
        ("hot_opcodes".to_string(), Json::Arr(opcodes)),
        (
            "call_site_hits".to_string(),
            Json::Num(profile.call_site_hits as f64),
        ),
        (
            "call_site_misses".to_string(),
            Json::Num(profile.call_site_misses as f64),
        ),
    ])
}

fn main() {
    let check = cg_bench::parse_check_arg();
    let mut harness = BenchHarness::new("interp_dispatch");
    harness.bench(CALIBRATION_LABEL, 200_000, || {
        (0..1000u64).fold(0u64, |acc, i| {
            acc.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(black_box(i))
        })
    });

    let call_heavy_speedup = bench_call_heavy(&mut harness);
    let live_replay_gap = bench_javac_gap(&mut harness);

    harness.write_json_with([
        ("call_heavy_speedup", Json::Num(call_heavy_speedup)),
        ("javac1_live_replay_gap", Json::Num(live_replay_gap)),
        ("dispatch_profile", dispatch_profile_section()),
    ]);

    if let Some(path) = check {
        cg_bench::check_against_baseline(&harness, &path, CALIBRATION_LABEL);
    }
}
