//! The synthetic SPEC workloads must reproduce the *shape* of the paper's
//! per-benchmark results: which benchmarks are highly collectable, which are
//! dominated by static or thread-shared objects, where the §3.4 optimisation
//! matters, and how the shares move as the problem size grows.

use cg_core::{CgConfig, ContaminatedGc};
use cg_stats::percent;
use cg_vm::{Vm, VmConfig};
use cg_workloads::{Size, Workload};

struct Shape {
    collectable: f64,
    collectable_no_opt: f64,
    static_percent: f64,
    thread_percent: f64,
    exact_percent_of_collected: f64,
    objects: u64,
}

fn measure(name: &str, size: Size) -> Shape {
    let workload = Workload::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let run = |config: CgConfig| {
        let mut vm = Vm::new(
            workload.program(size),
            VmConfig::default(),
            ContaminatedGc::with_config(config),
        );
        vm.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        vm
    };
    let mut with_opt = run(CgConfig::preferred());
    let no_opt = run(CgConfig::without_static_opt());
    let breakdown = with_opt.collector_mut().breakdown();
    let stats = with_opt.collector().stats();
    Shape {
        collectable: stats.collectable_percent(),
        collectable_no_opt: no_opt.collector().stats().collectable_percent(),
        static_percent: percent(breakdown.static_objects, stats.objects_created),
        thread_percent: percent(breakdown.thread_shared, stats.objects_created),
        exact_percent_of_collected: percent(
            stats.objects_collected_exactly,
            stats.objects_collected,
        ),
        objects: stats.objects_created,
    }
}

#[test]
fn compress_and_mpegaudio_are_mostly_long_lived() {
    for name in ["compress", "mpegaudio"] {
        let shape = measure(name, Size::S1);
        assert!(
            shape.collectable < 20.0,
            "{name}: collectable {:.1}%",
            shape.collectable
        );
        assert!(
            shape.static_percent > 75.0,
            "{name}: static {:.1}%",
            shape.static_percent
        );
        assert!(shape.objects < 10_000, "{name}: {} objects", shape.objects);
    }
}

#[test]
fn raytrace_and_mtrt_are_almost_entirely_collectable() {
    for name in ["raytrace", "mtrt"] {
        let shape = measure(name, Size::S1);
        assert!(
            shape.collectable > 90.0,
            "{name}: collectable {:.1}%",
            shape.collectable
        );
        // Thread sharing stays negligible even for the threaded tracer
        // (paper: about 1% of the static set).
        assert!(
            shape.thread_percent < 5.0,
            "{name}: thread {:.1}%",
            shape.thread_percent
        );
    }
}

#[test]
fn db_and_jess_depend_heavily_on_the_static_optimisation() {
    // Paper Figure 4.1: db 18% -> 36%, jess 35% -> 61%.
    for (name, min_gain) in [("db", 10.0), ("jess", 15.0)] {
        let shape = measure(name, Size::S1);
        let gain = shape.collectable - shape.collectable_no_opt;
        assert!(
            gain > min_gain,
            "{name}: optimisation gain {:.1}% (with {:.1}%, without {:.1}%)",
            gain,
            shape.collectable,
            shape.collectable_no_opt
        );
    }
}

#[test]
fn javac_is_dominated_by_thread_shared_objects_at_size_1() {
    let shape = measure("javac", Size::S1);
    assert!(
        shape.thread_percent > 40.0,
        "thread {:.1}%",
        shape.thread_percent
    );
    assert!(
        shape.collectable < 40.0,
        "collectable {:.1}%",
        shape.collectable
    );
}

#[test]
fn jack_is_highly_collectable_with_many_exact_blocks() {
    let shape = measure("jack", Size::S1);
    assert!(
        shape.collectable > 80.0,
        "collectable {:.1}%",
        shape.collectable
    );
    assert!(
        (15.0..45.0).contains(&shape.exact_percent_of_collected),
        "exact {:.1}%",
        shape.exact_percent_of_collected
    );
    assert!(shape.collectable - shape.collectable_no_opt > 10.0);
}

#[test]
fn collectable_share_grows_with_problem_size() {
    // Paper Figures 4.2-4.4 / 4.9: the dynamically allocated population
    // grows with the problem size while the static setup does not, so the
    // collectable share improves markedly for the allocation-heavy
    // benchmarks.
    for name in ["db", "jess"] {
        let small = measure(name, Size::S1);
        let medium = measure(name, Size::S10);
        assert!(
            medium.collectable > small.collectable + 20.0,
            "{name}: {:.1}% -> {:.1}%",
            small.collectable,
            medium.collectable
        );
        assert!(medium.objects > 5 * small.objects);
    }
}

#[test]
fn optimisation_never_reduces_collectable_share() {
    // A representative subset keeps this check cheap; the full sweep over
    // all eight benchmarks is exercised by `repro_all fig4_1`.
    for name in ["compress", "db", "jess", "javac"] {
        let shape = measure(name, Size::S1);
        assert!(
            shape.collectable + 1e-9 >= shape.collectable_no_opt,
            "{name}: with {:.1}% < without {:.1}%",
            shape.collectable,
            shape.collectable_no_opt
        );
    }
}
