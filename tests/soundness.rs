//! Soundness of the contaminated collector: it must never reclaim an object
//! the program can still reach.
//!
//! The collector itself checks this at runtime when `verify_tainted` is on
//! (it panics if a "dead" object is touched again), and the interpreter
//! would report a `DeadHandle` heap error if a freed object were accessed.
//! These tests drive randomly generated demographic profiles — including
//! multi-threaded and recycling configurations — through full runs and also
//! cross-check the contaminated collector against an independent
//! reachability trace at program end.
//!
//! Randomness comes from `cg-testutil`'s seeded generator (the build
//! environment has no crates.io access for `proptest`); each property runs
//! over a fixed seed range, so a failure names the seed to replay.

use cg_core::marksweep::trace_live;
use cg_core::{CgConfig, ContaminatedGc, HybridCollector, HybridConfig};
use cg_testutil::TestRng;
use cg_vm::{Vm, VmConfig};
use cg_workloads::{synthesize, Profile};

const CASES: u64 = 24;

/// Builds a small random profile.  Kept deliberately tiny so the full seed
/// sweep stays fast while still exercising every demographic knob.
fn random_profile(rng: &mut TestRng) -> Profile {
    Profile {
        name: "random".to_string(),
        description: "randomly generated demographic".to_string(),
        static_setup: rng.gen_range(0, 40) as u32,
        interned: rng.gen_range(0, 4) as u32,
        iterations: rng.gen_range(1, 40) as u64,
        leaf_temps: rng.gen_range(0, 4) as u32,
        chained_temps: rng.gen_range(0, 4) as u32,
        static_touching_temps: rng.gen_range(0, 4) as u32,
        returned_temps: rng.gen_range(0, 3) as u32,
        escape_depth: rng.gen_range(1, 4) as u32,
        leaked_per_iteration: rng.gen_range(0, 2) as u32,
        compute_per_iteration: 0,
        shared_objects: rng.gen_range(0, 12) as u32,
        worker_threads: rng.gen_range(0, 3) as u32,
    }
}

fn verified_config() -> CgConfig {
    CgConfig {
        verify_tainted: true,
        ..CgConfig::preferred()
    }
}

/// Random demographics run to completion under the contaminated collector
/// with runtime soundness verification enabled, and every object that is
/// reachable at program end is still live in the heap.
#[test]
fn cg_never_frees_reachable_objects() {
    for seed in 0..CASES {
        let profile = random_profile(&mut TestRng::new(seed));
        let program = synthesize(&profile);
        let mut vm = Vm::new(
            program,
            VmConfig::small(),
            ContaminatedGc::with_config(verified_config()),
        );
        let outcome = vm
            .run()
            .unwrap_or_else(|e| panic!("seed {seed}: run must not fail: {e}"));
        assert_eq!(
            outcome.stats.objects_allocated + outcome.stats.arrays_allocated,
            profile.expected_objects(),
            "seed {seed}"
        );
        // Everything reachable from the final roots must still be live.
        let roots = vm.build_roots();
        let live = trace_live(&roots, vm.heap());
        for (index, reachable) in live.iter().enumerate() {
            if *reachable {
                assert!(
                    vm.heap().is_live(cg_heap::Handle::from_index(index as u32)),
                    "seed {seed}: reachable object h{index} was freed"
                );
            }
        }
        // And CG accounts for every created object exactly once.
        let created = vm.collector().stats().objects_created;
        let breakdown = vm.collector_mut().breakdown();
        assert_eq!(breakdown.total(), created, "seed {seed}");
    }
}

/// The same property holds with the static optimisation disabled, with
/// recycling enabled, and under the hybrid collector with periodic resets.
#[test]
fn all_configurations_are_sound() {
    for seed in 0..CASES {
        let profile = random_profile(&mut TestRng::new(seed));
        let configs = [
            CgConfig {
                verify_tainted: true,
                ..CgConfig::without_static_opt()
            },
            CgConfig {
                verify_tainted: true,
                ..CgConfig::with_recycling()
            },
        ];
        for config in configs {
            let program = synthesize(&profile);
            let mut vm = Vm::new(
                program,
                VmConfig::small(),
                ContaminatedGc::with_config(config),
            );
            vm.run()
                .unwrap_or_else(|e| panic!("seed {seed}: run must not fail: {e}"));
        }
        // Hybrid with forced periodic collections and resetting.
        let program = synthesize(&profile);
        let hybrid = HybridCollector::new(HybridConfig {
            cg: verified_config(),
            reset_on_collect: true,
        });
        let mut vm = Vm::new(program, VmConfig::small().with_gc_every(500), hybrid);
        vm.run()
            .unwrap_or_else(|e| panic!("seed {seed}: hybrid run must not fail: {e}"));
    }
}

/// The contaminated collector is conservative with respect to real
/// reachability: at program end, the set of objects it still considers live
/// (not collected) is a superset of the objects that are actually reachable.
#[test]
fn cg_liveness_is_conservative() {
    for seed in 0..CASES {
        let profile = random_profile(&mut TestRng::new(seed));
        let program = synthesize(&profile);
        let mut vm = Vm::new(
            program,
            VmConfig::small(),
            ContaminatedGc::with_config(verified_config()),
        );
        vm.run()
            .unwrap_or_else(|e| panic!("seed {seed}: run must not fail: {e}"));
        let roots = vm.build_roots();
        let reachable = trace_live(&roots, vm.heap());
        let reachable_count = reachable.iter().filter(|&&m| m).count();
        // Objects CG kept = created - collected; it must be at least the
        // number of truly reachable objects.
        let stats = vm.collector().stats();
        let kept = stats.objects_created - stats.objects_collected;
        assert!(
            kept as usize >= reachable_count,
            "seed {seed}: kept {kept} < reachable {reachable_count}"
        );
    }
}

/// A deterministic regression for the same property on the real workloads
/// (size 1 of the two cheapest benchmarks), with verification enabled.
#[test]
fn real_workloads_run_with_verification() {
    for name in ["db", "compress"] {
        let workload = cg_workloads::Workload::by_name(name).unwrap();
        let mut vm = Vm::new(
            workload.program(cg_workloads::Size::S1),
            VmConfig::default(),
            ContaminatedGc::with_config(verified_config()),
        );
        vm.run().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
