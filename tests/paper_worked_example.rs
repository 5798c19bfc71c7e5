//! The paper's worked example (thesis §2.1, Figures 2.1 and 2.2), encoded as
//! executable tests.
//!
//! Figure 2.1 sets up five heap objects referenced from a stack of frames
//! numbered 0 (oldest, never popped) to 5 (youngest, currently active):
//!
//! | object | referencing frames | earliest frame |
//! |---|---|---|
//! | A | 3, 5 | 3 |
//! | B | 2, 5 | 2 |
//! | C | 1, 5 | 1 |
//! | D | 4, 5 | 4 |
//! | E | 0 (static) | 0 |
//!
//! Figure 2.2 then executes five stores in frame 5 and the text walks through
//! how each one changes the objects' dependent frames:
//!
//! 1. `B.f = A`  → A becomes dependent on frame 2 (B's frame).
//! 2. `C.f = B`  → A and B become dependent on frame 1.
//! 3. `D.f = C`  → no frame changes (D's frame 4 is younger), but D joins
//!    the block and is conservatively dependent on frame 1 from now on.
//! 4. `E.f = D`  → everything becomes dependent on frame 0 (static).
//! 5. `E.f = null` → nothing improves: contamination cannot be undone.
//!
//! The tests below build exactly this frame/reference structure with the
//! program-builder DSL and check the collector reaches the same conclusions.

use contaminated_gc::collector::{CgConfig, ContaminatedGc};
use contaminated_gc::vm::{Insn, Program, Vm, VmConfig};
use contaminated_gc::workloads::{CodeBuilder, ProgramBuilder};

/// Builds the Figure 2.1 stack: main (frame 1) allocates C, m2 (frame 2)
/// allocates B, m3 (frame 3) allocates A, m4 (frame 4) allocates D, and m5
/// (frame 5) receives references to all four plus access to the static E and
/// performs the first `steps` stores of Figure 2.2.
///
/// The paper numbers its frames 0..5 with 0 the static pseudo-frame; here
/// frame 0 is the collector's static frame and the method frames have depths
/// 1..5, so "frame k" in the paper corresponds to depth k.
fn figure_2_program(steps: usize) -> Program {
    assert!(steps <= 5);
    let mut pb = ProgramBuilder::new("figure-2");
    // One reference field is all the example needs.
    let node = pb.class("Node", 1);
    let e_static = pb.static_slot();

    let m5 = pb.declare("m5", 4); // args: C, B, A, D
    {
        // Locals: 0=C, 1=B, 2=A, 3=D, 4=E, 5=null scratch.
        let mut code = CodeBuilder::new();
        let stores: [Insn; 5] = [
            // 1: B.f = A
            Insn::PutField {
                object: 1,
                field: 0,
                value: 2,
            },
            // 2: C.f = B
            Insn::PutField {
                object: 0,
                field: 0,
                value: 1,
            },
            // 3: D.f = C
            Insn::PutField {
                object: 3,
                field: 0,
                value: 0,
            },
            // 4: E.f = D
            Insn::PutField {
                object: 4,
                field: 0,
                value: 3,
            },
            // 5: E.f = null
            Insn::PutField {
                object: 4,
                field: 0,
                value: 5,
            },
        ];
        code.push(Insn::GetStatic {
            static_id: e_static,
            dst: 4,
        });
        code.push(Insn::LoadNull { dst: 5 });
        for insn in stores.into_iter().take(steps) {
            code.push(insn);
        }
        code.return_none();
        pb.define(m5, 6, code.into_code());
    }

    // m4 allocates D (earliest referencing frame 4) and calls m5.
    let m4 = pb.method(
        "m4",
        3,
        4,
        vec![
            Insn::New {
                class: node,
                dst: 3,
            },
            Insn::Call {
                method: m5,
                args: vec![0, 1, 2, 3],
                dst: None,
            },
            Insn::Return { value: None },
        ],
    );
    // m3 allocates A (earliest frame 3).
    let m3 = pb.method(
        "m3",
        2,
        3,
        vec![
            Insn::New {
                class: node,
                dst: 2,
            },
            Insn::Call {
                method: m4,
                args: vec![0, 1, 2],
                dst: None,
            },
            Insn::Return { value: None },
        ],
    );
    // m2 allocates B (earliest frame 2).
    let m2 = pb.method(
        "m2",
        1,
        2,
        vec![
            Insn::New {
                class: node,
                dst: 1,
            },
            Insn::Call {
                method: m3,
                args: vec![0, 1],
                dst: None,
            },
            Insn::Return { value: None },
        ],
    );
    // main (frame 1) allocates E (made static) and C, then starts the chain.
    let main = pb.method(
        "main",
        0,
        2,
        vec![
            Insn::New {
                class: node,
                dst: 0,
            },
            Insn::PutStatic {
                static_id: e_static,
                value: 0,
            },
            Insn::New {
                class: node,
                dst: 0,
            }, // C
            Insn::Call {
                method: m2,
                args: vec![0],
                dst: None,
            },
            Insn::Return { value: None },
        ],
    );
    pb.set_entry(main);
    pb.build()
}

fn run(steps: usize) -> Vm<ContaminatedGc> {
    let mut vm = Vm::new(
        figure_2_program(steps),
        VmConfig::small(),
        ContaminatedGc::with_config(CgConfig {
            verify_tainted: true,
            ..CgConfig::preferred()
        }),
    );
    vm.run().expect("the worked example runs");
    vm
}

#[test]
fn without_any_stores_each_object_dies_with_its_earliest_frame() {
    // No contamination at all: A dies when frame 3 pops, B with frame 2,
    // C with frame 1, D with frame 4; E stays static.
    let mut vm = run(0);
    let stats = vm.collector().stats();
    assert_eq!(stats.objects_created, 5);
    assert_eq!(stats.objects_collected, 4);
    assert_eq!(stats.objects_collected_exactly, 4);
    assert_eq!(stats.unions, 0);
    let breakdown = vm.collector_mut().breakdown();
    assert_eq!(breakdown.static_objects, 1); // E
    assert_eq!(vm.heap().live_count(), 1);
}

#[test]
fn steps_1_to_3_tie_everything_to_frame_1() {
    // After D.f = C (step 3) the objects A, B, C and D are all in one block
    // dependent on frame 1 (main); they die together when main returns, as
    // one block of size four.
    let mut vm = run(3);
    let stats = vm.collector().stats();
    assert_eq!(stats.objects_created, 5);
    assert_eq!(stats.objects_collected, 4);
    // One four-object block, nothing exact.
    assert_eq!(stats.objects_collected_exactly, 0);
    assert_eq!(stats.block_sizes.bucket_count(3), 1);
    assert_eq!(stats.unions, 3);
    // A was born in frame 3 and died when frame 1 popped: distance 2.
    // B: born 2 → died 1 (distance 1); C and D likewise recorded.
    assert_eq!(stats.age_at_death.bucket_count(2), 1); // A
    assert_eq!(stats.age_at_death.bucket_count(1), 1); // B
    assert_eq!(stats.age_at_death.bucket_count(3), 1); // D (born 4, died 1)
    assert_eq!(stats.age_at_death.bucket_count(0), 1); // C died in its frame
    let breakdown = vm.collector_mut().breakdown();
    assert_eq!(breakdown.static_objects, 1); // only E survives
    assert_eq!(vm.heap().live_count(), 1);
}

#[test]
fn step_4_contaminates_everything_into_the_static_set() {
    // E.f = D drags the whole block to frame 0: nothing is ever collected.
    let mut vm = run(4);
    let stats = vm.collector().stats();
    assert_eq!(stats.objects_created, 5);
    assert_eq!(stats.objects_collected, 0);
    let breakdown = vm.collector_mut().breakdown();
    assert_eq!(breakdown.static_objects, 5);
    assert_eq!(vm.heap().live_count(), 5);
}

#[test]
fn step_5_pointing_away_does_not_undo_contamination() {
    // Even though E no longer references D at the end, the contamination of
    // step 4 is permanent (the paper's key conservatism): all five objects
    // remain in the static set and stay live.
    let mut vm = run(5);
    assert_eq!(vm.collector().stats().objects_collected, 0);
    let breakdown = vm.collector_mut().breakdown();
    assert_eq!(breakdown.static_objects, 5);
    assert_eq!(vm.heap().live_count(), 5);
    // A traditional collector *would* reclaim A–D here, which is exactly
    // what the §3.6 resetting experiment exploits.
    let roots = vm.build_roots();
    let reachable = cg_core::marksweep::trace_live(&roots, vm.heap());
    assert_eq!(reachable.iter().filter(|&&m| m).count(), 1); // only E
}

#[test]
fn static_optimisation_changes_nothing_in_this_example() {
    // The stores in Figure 2.2 never store a reference *to* E into another
    // object before E itself contaminates D, so the §3.4 optimisation has no
    // effect on the outcome — a useful check that it only fires where it
    // should.
    for steps in 0..=5 {
        let mut with_opt = Vm::new(
            figure_2_program(steps),
            VmConfig::small(),
            ContaminatedGc::with_config(CgConfig::preferred()),
        );
        with_opt.run().unwrap();
        let mut without_opt = Vm::new(
            figure_2_program(steps),
            VmConfig::small(),
            ContaminatedGc::with_config(CgConfig::without_static_opt()),
        );
        without_opt.run().unwrap();
        assert_eq!(
            with_opt.collector().stats().objects_collected,
            without_opt.collector().stats().objects_collected,
            "step count {steps}"
        );
        assert_eq!(
            with_opt.collector_mut().breakdown(),
            without_opt.collector_mut().breakdown(),
            "step count {steps}"
        );
    }
}
