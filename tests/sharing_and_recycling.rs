//! Workload-level coverage for two collector behaviours the unit tests only
//! touch structurally: cross-thread static promotion (§3.3) and the
//! recycling allocator path (§3.7).

use contaminated_gc::collector::{CgConfig, ContaminatedGc};
use contaminated_gc::vm::{Insn, Program, Vm, VmConfig};
use contaminated_gc::workloads::{CodeBuilder, ProgramBuilder};

/// Builds a program where `main` allocates two objects in a helper frame:
/// one is handed to a spawned worker thread (becoming thread-shared), the
/// other stays frame-local.  Both are allocated in the same frame, so
/// frame-pop collection must take the private one and skip the shared one.
fn shared_vs_private_program() -> Program {
    let mut pb = ProgramBuilder::new("shared-vs-private");
    let node = pb.class("Node", 1);

    // worker(shared): touch the argument from the second thread.
    let worker = {
        let mut code = CodeBuilder::new();
        code.push(Insn::GetField {
            object: 0,
            field: 0,
            dst: 1,
        });
        code.return_none();
        pb.method("worker", 1, 2, code.into_code())
    };

    // helper(): locals 0 = shared object, 1 = private object.
    let helper = {
        let mut code = CodeBuilder::new();
        code.push(Insn::New {
            class: node,
            dst: 0,
        });
        code.push(Insn::New {
            class: node,
            dst: 1,
        });
        code.push(Insn::SpawnThread {
            method: worker,
            args: vec![0],
        });
        code.return_none();
        pb.method("helper", 0, 2, code.into_code())
    };

    let main = {
        let mut code = CodeBuilder::new();
        code.push(Insn::Call {
            method: helper,
            args: vec![],
            dst: None,
        });
        code.return_none();
        pb.method("main", 0, 1, code.into_code())
    };
    pb.set_entry(main);
    pb.build()
}

#[test]
fn cross_thread_sharing_excludes_an_object_from_frame_pop_collection() {
    let mut vm = Vm::new(
        shared_vs_private_program(),
        VmConfig::small(),
        ContaminatedGc::new(),
    );
    vm.run().expect("program runs");

    let created = vm.collector().stats().objects_created;
    let collected = vm.collector().stats().objects_collected;
    assert_eq!(created, 2);
    // The private object died when helper's frame popped; the shared object
    // was promoted to the static set (§3.3) and survived the pop.
    assert_eq!(collected, 1, "only the private object is collectable");
    assert_eq!(
        vm.heap().live_count(),
        1,
        "the shared object must still be live"
    );

    let thread_shared = vm.collector().stats().objects_thread_shared;
    assert_eq!(
        thread_shared, 1,
        "the survivor is accounted as thread-shared"
    );
    let breakdown = vm.collector_mut().breakdown();
    assert_eq!(breakdown.popped, 1);
    assert_eq!(breakdown.thread_shared, 1);
    assert_eq!(breakdown.static_objects, 0);
}

#[test]
fn without_sharing_the_same_shape_collects_everything() {
    // Control: the identical allocation pattern minus the thread hand-off
    // collects both objects, pinning the exclusion above on sharing alone.
    let mut pb = ProgramBuilder::new("no-sharing");
    let node = pb.class("Node", 1);
    let helper = {
        let mut code = CodeBuilder::new();
        code.push(Insn::New {
            class: node,
            dst: 0,
        });
        code.push(Insn::New {
            class: node,
            dst: 1,
        });
        code.return_none();
        pb.method("helper", 0, 2, code.into_code())
    };
    let main = {
        let mut code = CodeBuilder::new();
        code.push(Insn::Call {
            method: helper,
            args: vec![],
            dst: None,
        });
        code.return_none();
        pb.method("main", 0, 1, code.into_code())
    };
    pb.set_entry(main);

    let mut vm = Vm::new(pb.build(), VmConfig::small(), ContaminatedGc::new());
    vm.run().expect("program runs");
    assert_eq!(vm.collector().stats().objects_collected, 2);
    assert_eq!(vm.heap().live_count(), 0);
}

/// A churn program whose helper allocates one short-lived object per call.
fn churn_program(calls: usize) -> Program {
    let mut pb = ProgramBuilder::new("churn");
    let node = pb.class("Node", 2);
    let helper = {
        let mut code = CodeBuilder::new();
        code.push(Insn::New {
            class: node,
            dst: 0,
        });
        code.return_none();
        pb.method("helper", 0, 1, code.into_code())
    };
    let main = {
        let mut code = CodeBuilder::new();
        for _ in 0..calls {
            code.push(Insn::Call {
                method: helper,
                args: vec![],
                dst: None,
            });
        }
        code.return_none();
        pb.method("main", 0, 1, code.into_code())
    };
    pb.set_entry(main);
    pb.build()
}

#[test]
fn recycle_list_hits_are_observable_in_cg_stats() {
    let mut vm = Vm::new(
        churn_program(10),
        VmConfig::small(),
        ContaminatedGc::with_config(CgConfig::with_recycling()),
    );
    vm.run().expect("program runs");

    let stats = vm.collector().stats();
    assert_eq!(stats.objects_created, 10);
    // The first call allocates fresh storage; every later call is served
    // from the recycle list, and each hit is visible in the statistics.
    assert_eq!(stats.objects_recycled, 9, "recycle-list hits in CgStats");
    assert!(stats.recycle_probes >= 9, "first-fit probes are accounted");
    // The interpreter and the heap agree with the collector's accounting.
    assert_eq!(vm.stats().recycled_allocations, 9);
    assert_eq!(vm.heap().stats().objects_recycled, 9);
    assert_eq!(
        vm.heap().stats().objects_allocated,
        1,
        "only one fresh heap allocation"
    );
    // One object is parked on the recycle list at exit (dead but reusable).
    assert_eq!(vm.collector().recycle_list_len(), 1);
}

#[test]
fn recycling_is_off_by_default_and_stats_stay_zero() {
    let mut vm = Vm::new(churn_program(10), VmConfig::small(), ContaminatedGc::new());
    vm.run().expect("program runs");
    let stats = vm.collector().stats();
    assert_eq!(stats.objects_recycled, 0);
    assert_eq!(stats.recycle_probes, 0);
    assert_eq!(vm.stats().recycled_allocations, 0);
    assert_eq!(vm.heap().stats().objects_allocated, 10);
}
