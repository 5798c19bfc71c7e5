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
//! The gap and the call-heavy speedup are embedded in the JSON alongside
//! the kernel's `hot_opcodes` (per-opcode dispatch counts, populated when
//! the `profile` cargo feature is on).
//!
//! Before timing anything the suite asserts the invariant: the kernel and
//! the javac workload record **byte-identical** event streams and
//! statistics with the pass on and off.
//!
//! Each label is also counted once, untimed: instructions, method calls,
//! inline-cache hits and misses, the collector's work counters and the heap
//! allocations must equal the label's line in `EXPECTED` (see
//! `cg_bench::microbench`).

mod common;

use std::hint::black_box;

use cg_bench::{cg_counts, BenchHarness};
use cg_core::{CgConfig, ContaminatedGc};
use cg_stats::Json;
use cg_trace::{record, replay_governed, Governor};
use cg_vm::{ArithOp, Cond, Insn, MethodDef, NoopCollector, Operand, Program, Vm, VmConfig};
use cg_workloads::{Size, Workload};

/// One line per label: its counts, zero counters omitted.
const EXPECTED: &[&str] = &[
    "interp_dispatch/call_heavy/fused instructions=360002 method_calls=60001 call_site_hits=59999 call_site_misses=1 allocations=31",
    "interp_dispatch/call_heavy/unfused instructions=360002 method_calls=60001 allocations=120026",
    "interp_dispatch/javac1/live_fused instructions=97297 method_calls=485 call_site_hits=477 call_site_misses=6 unions=5439 contaminations=6071 static_opt_skips=632 objects_collected=1600 allocations=13939",
    "interp_dispatch/javac1/live_unfused instructions=97297 method_calls=485 unions=5439 contaminations=6071 static_opt_skips=632 objects_collected=1600 allocations=14399",
    "interp_dispatch/javac1/replay_cg events_replayed=43658 search_steps=6434 unions=5439 contaminations=6071 static_opt_skips=632 objects_collected=1600 allocations=13729",
];

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

/// What a finished interpreter did: instructions, calls and inline-cache
/// traffic.
fn vm_counts<C: cg_vm::Collector>(vm: &Vm<C>) -> [(&'static str, u64); 4] {
    let profile = vm.dispatch_profile();
    [
        ("instructions", vm.stats().instructions),
        ("method_calls", vm.stats().method_calls),
        ("call_site_hits", profile.call_site_hits),
        ("call_site_misses", profile.call_site_misses),
    ]
}

/// Runs `program` live to completion, returning what it did.
fn run_live(program: &Program, config: VmConfig) -> [(&'static str, u64); 4] {
    let mut vm = Vm::new(program.clone(), config, NoopCollector::new());
    vm.run().expect("program runs");
    vm_counts(&vm)
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
        h.bench_counted(label, 5, || run_live(&program, config.with_fusion(fusion)));
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
        h.bench_counted(label, 3, || {
            let mut vm = Vm::new(
                program.clone(),
                vm_config.with_fusion(fusion),
                ContaminatedGc::with_config(cg),
            );
            vm.run().expect("javac runs");
            vm_counts(&vm)
                .into_iter()
                .chain(cg_counts(vm.collector().stats()))
        });
    }
    h.bench_counted("interp_dispatch/javac1/replay_cg", 3, || {
        let replayed = replay_governed(
            &trace,
            vm_config.heap,
            ContaminatedGc::with_config(cg),
            &unlimited,
        )
        .expect("javac replays");
        let events = replayed.outcome.events_replayed as u64;
        let search_steps = replayed.heap.object_space().search_steps();
        [("events_replayed", events), ("search_steps", search_steps)]
            .into_iter()
            .chain(cg_counts(replayed.collector.stats()))
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

/// The fused call-heavy kernel's dispatches per opcode, hottest first, for
/// the JSON; empty unless built with the `profile` cargo feature.
fn hot_opcodes() -> Json {
    let mut vm = Vm::new(
        call_heavy(60_000),
        VmConfig::default(),
        NoopCollector::new(),
    );
    vm.run().expect("profiled run completes");
    let opcodes = vm.dispatch_profile().hot_opcodes().into_iter();
    Json::obj(opcodes.map(|(name, count)| (name, Json::Num(count as f64))))
}

fn main() {
    let mut harness =
        BenchHarness::new("interp_dispatch").with_counts(EXPECTED, common::allocations);

    let call_heavy_speedup = bench_call_heavy(&mut harness);
    let live_replay_gap = bench_javac_gap(&mut harness);

    harness.finish([
        ("call_heavy_speedup", Json::Num(call_heavy_speedup)),
        ("javac1_live_replay_gap", Json::Num(live_replay_gap)),
        ("hot_opcodes", hot_opcodes()),
    ]);
}
