//! End-to-end integration of the collectors with the virtual machine:
//! memory pressure, recycling, resetting, and the facade crate's public API.

use contaminated_gc::collector::marksweep::{trace_live, MarkSweep};
use contaminated_gc::collector::{CgConfig, ContaminatedGc, HybridCollector, HybridConfig};
use contaminated_gc::heap::{HandleRepr, HeapConfig};
use contaminated_gc::vm::{Insn, Operand, Vm, VmConfig, VmError};
use contaminated_gc::workloads::{CodeBuilder, ProgramBuilder, Size, Workload};

/// A program that churns through `iterations` short-lived pairs inside a
/// helper call; total garbage far exceeds the heap used in the tests below.
fn churn_program(iterations: i64) -> contaminated_gc::vm::Program {
    let mut pb = ProgramBuilder::new("churn");
    let node = pb.class("Node", 1);

    // helper(): one pair, linked, dropped.
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
        code.push(Insn::PutField {
            object: 0,
            field: 0,
            value: 1,
        });
        code.return_none();
        pb.method("helper", 0, 2, code.into_code())
    };

    let mut code = CodeBuilder::new();
    code.counted_loop(0, Operand::Imm(iterations), |body| {
        body.push(Insn::Call {
            method: helper,
            args: vec![],
            dst: None,
        });
    });
    code.return_none();
    let main = pb.method("main", 0, 1, code.into_code());
    pb.set_entry(main);
    pb.build()
}

fn tight_heap() -> HeapConfig {
    let mut heap = HeapConfig::with_object_space(4 * 1024, HandleRepr::CgWide);
    heap.handle_space_bytes = 1 << 20;
    heap
}

#[test]
fn contaminated_gc_alone_survives_pressure_that_kills_the_noop_collector() {
    let config = VmConfig::small().with_heap(tight_heap());

    // Without any collection the churn overflows the 4 KiB heap.
    let mut no_gc = Vm::new(
        churn_program(2_000),
        config,
        contaminated_gc::vm::NoopCollector::new(),
    );
    assert!(matches!(no_gc.run(), Err(VmError::OutOfMemory { .. })));

    // The contaminated collector reclaims each pair at the helper's return,
    // so the same program completes without ever invoking a marking pass.
    let mut cg = Vm::new(churn_program(2_000), config, ContaminatedGc::new());
    let outcome = cg.run().expect("CG keeps the heap bounded");
    assert_eq!(outcome.stats.objects_allocated, 4_000);
    assert_eq!(cg.collector().stats().objects_collected, 4_000);
    assert_eq!(
        outcome.stats.gc_cycles, 0,
        "no full collection was ever needed"
    );
    assert_eq!(outcome.live_at_exit, 0);
}

#[test]
fn mark_sweep_also_survives_but_pays_with_marking_passes() {
    let config = VmConfig::small().with_heap(tight_heap());
    let mut msa = Vm::new(churn_program(2_000), config, MarkSweep::new());
    let outcome = msa.run().expect("mark-sweep keeps the program alive");
    assert_eq!(outcome.stats.objects_allocated, 4_000);
    let stats = msa.collector().stats();
    assert!(
        stats.cycles > 5,
        "expected many collection cycles, got {}",
        stats.cycles
    );
    assert!(stats.objects_swept > 3_000);
}

#[test]
fn recycling_reuses_storage_instead_of_freeing_it() {
    let plain_config = CgConfig::preferred();
    let recycle_config = CgConfig::with_recycling();

    let mut plain = Vm::new(
        churn_program(500),
        VmConfig::small(),
        ContaminatedGc::with_config(plain_config),
    );
    plain.run().expect("plain CG run");
    let mut recycled = Vm::new(
        churn_program(500),
        VmConfig::small(),
        ContaminatedGc::with_config(recycle_config),
    );
    recycled.run().expect("recycling CG run");

    // Same program-visible behaviour...
    assert_eq!(
        plain.collector().stats().objects_created,
        recycled.collector().stats().objects_created
    );
    // ...but the recycling configuration takes almost nothing from the heap
    // after the first pair.
    assert!(recycled.collector().stats().objects_recycled > 900);
    assert!(recycled.heap().stats().objects_allocated < 20);
    assert!(plain.heap().stats().objects_allocated == 1_000);
}

#[test]
fn hybrid_reset_and_baseline_agree_on_the_final_live_set() {
    // Run the db workload under the baseline and under the hybrid collector
    // with periodic resets; whatever survives at the end must be the same
    // number of reachable objects.
    let workload = Workload::by_name("db").unwrap();

    let mut baseline = Vm::new(
        workload.program(Size::S1),
        VmConfig::default(),
        MarkSweep::new(),
    );
    baseline.run().expect("baseline run");
    let baseline_reachable = {
        let roots = baseline.build_roots();
        trace_live(&roots, baseline.heap())
            .iter()
            .filter(|&&m| m)
            .count()
    };

    let hybrid = HybridCollector::new(HybridConfig {
        cg: CgConfig::preferred(),
        reset_on_collect: true,
    });
    let mut hybrid_vm = Vm::new(
        workload.program(Size::S1),
        VmConfig::default().with_gc_every(10_000),
        hybrid,
    );
    hybrid_vm.run().expect("hybrid run");
    let hybrid_reachable = {
        let roots = hybrid_vm.build_roots();
        trace_live(&roots, hybrid_vm.heap())
            .iter()
            .filter(|&&m| m)
            .count()
    };

    assert_eq!(baseline_reachable, hybrid_reachable);
    assert!(hybrid_vm.collector().cg().stats().resets > 0);
}

#[test]
fn facade_reexports_cover_the_whole_api_surface() {
    // Build, run and measure using only the facade crate's module paths.
    let workload = contaminated_gc::workloads::Workload::by_name("compress").unwrap();
    let mut vm = contaminated_gc::vm::Vm::new(
        workload.program(contaminated_gc::workloads::Size::S1),
        contaminated_gc::vm::VmConfig::default(),
        contaminated_gc::collector::ContaminatedGc::new(),
    );
    vm.run().expect("facade-driven run");
    let stats = vm.collector().stats();
    let mut table = contaminated_gc::stats::Table::new("facade", &["benchmark", "collectable"]);
    table.push_row(vec![
        contaminated_gc::stats::Cell::text(workload.name()),
        contaminated_gc::stats::Cell::percent(stats.collectable_percent()),
    ]);
    assert!(table.render_text().contains("compress"));
    // The collector's forests are private; the reference union-find model
    // comes from cg-testutil.  The heap substrate is usable directly through
    // the facade.
    let mut sets = cg_testutil::DisjointSets::new();
    let a = sets.make_set();
    let b = sets.make_set();
    sets.union(a, b);
    assert!(sets.same_set(a, b));
    let mut heap = contaminated_gc::heap::Heap::new(contaminated_gc::heap::HeapConfig::small());
    let h = heap
        .allocate(contaminated_gc::heap::ClassId::new(0), 1)
        .unwrap();
    assert!(heap.is_live(h));
}

#[test]
fn deep_recursion_collects_everything_on_the_way_down() {
    // A recursive method that allocates one object per level; every object
    // is collected as its frame pops, so even a 300-deep recursion keeps the
    // live set tiny.
    let mut pb = ProgramBuilder::new("deep");
    let node = pb.class("Node", 1);
    let recurse = pb.declare("recurse", 1);
    {
        let mut code = CodeBuilder::new();
        code.push(Insn::New {
            class: node,
            dst: 1,
        });
        code.push(Insn::Branch {
            cond: contaminated_gc::vm::Cond::Le,
            a: Operand::Local(0),
            b: Operand::Imm(0),
            target: 4,
        });
        code.push(Insn::Arith {
            op: contaminated_gc::vm::ArithOp::Sub,
            dst: 0,
            a: Operand::Local(0),
            b: Operand::Imm(1),
        });
        code.push(Insn::Call {
            method: recurse,
            args: vec![0],
            dst: None,
        });
        code.return_none();
        pb.define(recurse, 2, code.into_code());
    }
    let main = pb.method(
        "main",
        0,
        1,
        vec![
            Insn::Const { dst: 0, value: 300 },
            Insn::Call {
                method: recurse,
                args: vec![0],
                dst: None,
            },
            Insn::Return { value: None },
        ],
    );
    pb.set_entry(main);

    let mut vm = Vm::new(pb.build(), VmConfig::small(), ContaminatedGc::new());
    let outcome = vm.run().expect("deep recursion runs");
    assert_eq!(outcome.stats.max_stack_depth, 302);
    assert_eq!(vm.collector().stats().objects_created, 301);
    assert_eq!(vm.collector().stats().objects_collected, 301);
    assert_eq!(outcome.live_at_exit, 0);
}
