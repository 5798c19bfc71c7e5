//! The hybrid collector: contaminated GC working in concert with a
//! traditional mark-sweep collector.
//!
//! §3.6 of the thesis argues that when the traditional collector runs anyway,
//! it can *reset* the contaminated collector's structures: the mark phase
//! rediscovers exactly which frame each object is really reachable from,
//! undoing the conservatism the equilive relation accumulated.  §4.7
//! evaluates this by forcing a traditional collection every 100 000 VM
//! instructions and counting how much the reset improves things.

use cg_vm::{ClassId, CollectOutcome, Collector, FrameInfo, Handle, Heap, RootSet, ThreadId};

use crate::collector::{CgConfig, ContaminatedGc};
use crate::marksweep::{trace_live, MarkSweepStats};

/// Configuration of the [`HybridCollector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridConfig {
    /// Configuration of the embedded contaminated collector.
    pub cg: CgConfig,
    /// Whether a traditional collection also resets the CG structures
    /// (§3.6).  When false the traditional collector still informs CG of the
    /// objects it sweeps (so CG never frees them twice) but the equilive
    /// relation keeps its accumulated conservatism.
    pub reset_on_collect: bool,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            cg: CgConfig::default(),
            reset_on_collect: true,
        }
    }
}

/// Contaminated GC plus a mark-sweep backstop.
///
/// All incremental work (frame pops, contamination tracking, recycling) is
/// delegated to the embedded [`ContaminatedGc`]; full collections run a mark
/// phase, optionally reset the CG structures from the marking (§3.6), and
/// sweep whatever is unreachable.
///
/// # Example
///
/// ```
/// use cg_core::{HybridCollector, HybridConfig};
/// use cg_vm::{Program, ClassDef, MethodDef, Insn, Vm, VmConfig};
///
/// let mut program = Program::new();
/// let class = program.add_class(ClassDef::new("Obj", 1));
/// let main = program.add_method(MethodDef::new("main", 0, 1, vec![
///     Insn::New { class, dst: 0 },
///     Insn::Return { value: None },
/// ]));
/// program.set_entry(main);
///
/// // Force a traditional collection every 1000 instructions, as in §4.7.
/// let config = VmConfig::default().with_gc_every(1000);
/// let mut vm = Vm::new(program, config, HybridCollector::new(HybridConfig::default()));
/// vm.run()?;
/// # Ok::<(), cg_vm::VmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HybridCollector {
    cg: ContaminatedGc,
    config: HybridConfig,
    msa_stats: MarkSweepStats,
}

impl HybridCollector {
    /// Creates a hybrid collector.
    pub fn new(config: HybridConfig) -> Self {
        Self {
            cg: ContaminatedGc::with_config(config.cg),
            config,
            msa_stats: MarkSweepStats::default(),
        }
    }

    /// The embedded contaminated collector (for its statistics).
    pub fn cg(&self) -> &ContaminatedGc {
        &self.cg
    }

    /// Mutable access to the embedded contaminated collector.
    pub fn cg_mut(&mut self) -> &mut ContaminatedGc {
        &mut self.cg
    }

    /// Statistics of the traditional (mark-sweep) side.
    pub fn msa_stats(&self) -> &MarkSweepStats {
        &self.msa_stats
    }

    /// The hybrid configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }
}

impl Default for HybridCollector {
    fn default() -> Self {
        Self::new(HybridConfig::default())
    }
}

impl Collector for HybridCollector {
    fn name(&self) -> &str {
        if self.config.reset_on_collect {
            "cg+msa+reset"
        } else {
            "cg+msa"
        }
    }

    fn on_allocate(&mut self, handle: Handle, frame: &FrameInfo, heap: &Heap) {
        self.cg.on_allocate(handle, frame, heap);
    }

    fn on_reference_store(
        &mut self,
        source: Handle,
        target: Handle,
        frame: &FrameInfo,
        heap: &Heap,
    ) {
        self.cg.on_reference_store(source, target, frame, heap);
    }

    fn on_static_store(&mut self, target: Handle, heap: &Heap) {
        self.cg.on_static_store(target, heap);
    }

    fn on_return_value(&mut self, value: Handle, caller: &FrameInfo, callee: &FrameInfo) {
        self.cg.on_return_value(value, caller, callee);
    }

    fn on_frame_push(&mut self, frame: &FrameInfo) {
        self.cg.on_frame_push(frame);
    }

    fn on_frame_pop(&mut self, frame: &FrameInfo, heap: &mut Heap) -> CollectOutcome {
        self.cg.on_frame_pop(frame, heap)
    }

    fn on_object_access(&mut self, handle: Handle, thread: ThreadId, heap: &Heap) {
        self.cg.on_object_access(handle, thread, heap);
    }

    fn try_recycled_alloc(
        &mut self,
        class: ClassId,
        field_count: usize,
        frame: &FrameInfo,
        heap: &mut Heap,
    ) -> Option<Handle> {
        self.cg.try_recycled_alloc(class, field_count, frame, heap)
    }

    fn collect(&mut self, roots: &RootSet, heap: &mut Heap) -> CollectOutcome {
        // Mark.
        let live = trace_live(roots, heap);
        let marked = live.iter().filter(|&&m| m).count() as u64;

        // Reset or at least purge the contaminated collector's structures so
        // it never tries to free an object the sweep already reclaimed.
        if self.config.reset_on_collect {
            self.cg.reset_from_roots(roots, heap, &live);
        } else {
            self.cg.purge_unreachable(&live);
        }

        // Sweep.
        let victims: Vec<Handle> = heap
            .live_handles()
            .filter(|h| !live[h.index_usize()])
            .collect();
        let freed_objects = victims.len() as u64;
        let mut freed_bytes = 0u64;
        for victim in victims {
            freed_bytes += heap.free(victim).expect("victim was live") as u64;
        }

        self.msa_stats.cycles += 1;
        self.msa_stats.objects_marked += marked;
        self.msa_stats.objects_swept += freed_objects;
        self.msa_stats.bytes_swept += freed_bytes;
        self.msa_stats.peak_marked_in_cycle = self.msa_stats.peak_marked_in_cycle.max(marked);

        CollectOutcome {
            freed_objects,
            freed_bytes,
            marked_objects: marked,
        }
    }

    fn on_program_end(&mut self, roots: &RootSet, heap: &mut Heap) {
        self.cg.on_program_end(roots, heap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_vm::{ClassDef, Cond, Insn, MethodDef, Operand, Program, Vm, VmConfig};

    /// A program whose helper churns through `n` temporary objects while a
    /// long-lived static structure persists.
    fn churn_program(n: i64) -> Program {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Temp", 1));
        let s = p.add_static();
        let helper = p.add_method(MethodDef::new(
            "helper",
            0,
            3,
            vec![
                Insn::Const { dst: 1, value: 0 },
                Insn::Branch {
                    cond: Cond::Ge,
                    a: Operand::Local(1),
                    b: Operand::Imm(n),
                    target: 5,
                },
                Insn::New { class: c, dst: 0 },
                Insn::Arith {
                    op: cg_vm::ArithOp::Add,
                    dst: 1,
                    a: Operand::Local(1),
                    b: Operand::Imm(1),
                },
                Insn::Jump { target: 1 },
                Insn::Return { value: None },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::PutStatic {
                    static_id: s,
                    value: 0,
                },
                Insn::Call {
                    method: helper,
                    args: vec![],
                    dst: None,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        p
    }

    #[test]
    fn hybrid_names_reflect_reset_mode() {
        assert_eq!(
            HybridCollector::new(HybridConfig::default()).name(),
            "cg+msa+reset"
        );
        let no_reset = HybridConfig {
            reset_on_collect: false,
            ..HybridConfig::default()
        };
        assert_eq!(HybridCollector::new(no_reset).name(), "cg+msa");
    }

    #[test]
    fn periodic_collections_run_and_program_survives() {
        let config = VmConfig::small().with_gc_every(50);
        let mut vm = Vm::new(churn_program(200), config, HybridCollector::default());
        vm.run().expect("hybrid keeps the program alive");
        let hybrid = vm.collector();
        assert!(hybrid.msa_stats().cycles > 0);
        assert!(hybrid.cg().stats().resets > 0);
        // CG still collects the temporaries at the frame pop; the static
        // object survives.
        assert_eq!(vm.heap().live_count(), 1);
    }

    #[test]
    fn reset_mode_vs_purge_mode_both_remain_sound() {
        for reset in [true, false] {
            let config = VmConfig::small().with_gc_every(37);
            let hybrid = HybridCollector::new(HybridConfig {
                reset_on_collect: reset,
                ..HybridConfig::default()
            });
            let mut vm = Vm::new(churn_program(150), config, hybrid);
            vm.run().unwrap_or_else(|e| panic!("reset={reset}: {e}"));
            assert_eq!(vm.heap().live_count(), 1, "reset={reset}");
        }
    }

    #[test]
    fn hybrid_under_memory_pressure_sweeps_unreachable_objects() {
        // A tight heap forces allocation-failure collections; CG alone would
        // not reclaim objects that escape into a long-lived structure that
        // later becomes garbage, but the MSA backstop does.
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Node", 1));
        let s = p.add_static();
        // main repeatedly overwrites the static with a freshly built pair;
        // the old pair becomes unreachable garbage that only MSA can find
        // (it is in the static set as far as CG is concerned).
        let code = vec![
            Insn::Const { dst: 2, value: 0 },
            Insn::Branch {
                cond: Cond::Ge,
                a: Operand::Local(2),
                b: Operand::Imm(300),
                target: 8,
            },
            Insn::New { class: c, dst: 0 },
            Insn::New { class: c, dst: 1 },
            Insn::PutField {
                object: 0,
                field: 0,
                value: 1,
            },
            Insn::PutStatic {
                static_id: s,
                value: 0,
            },
            Insn::Arith {
                op: cg_vm::ArithOp::Add,
                dst: 2,
                a: Operand::Local(2),
                b: Operand::Imm(1),
            },
            Insn::Jump { target: 1 },
            Insn::Return { value: None },
        ];
        let main = p.add_method(MethodDef::new("main", 0, 3, code));
        p.set_entry(main);

        let mut config = VmConfig::small();
        config.heap = cg_heap::HeapConfig::tight(2048);
        config.heap.handle_space_bytes = 1 << 22;
        let mut vm = Vm::new(p, config, HybridCollector::default());
        let outcome = vm.run().expect("hybrid survives memory pressure");
        assert_eq!(outcome.stats.objects_allocated, 600);
        let hybrid = vm.collector();
        assert!(hybrid.msa_stats().cycles > 0);
        assert!(hybrid.msa_stats().objects_swept > 100);
        assert!(hybrid.cg().stats().reset_collected_by_msa > 0);
        // Only the pairs allocated since the last collection remain live —
        // far fewer than the 600 the program created.
        assert!(
            vm.heap().live_count() < 200,
            "live = {}",
            vm.heap().live_count()
        );
        // And of those, only the final pair is actually reachable.
        let live = trace_live(&vm.build_roots(), vm.heap());
        assert_eq!(live.iter().filter(|&&m| m).count(), 2);
    }

    #[test]
    fn reset_improves_liveness_information() {
        // Build the paper's "static finger" pathology: a static object
        // touches a fresh object and then points away, every iteration.
        // Without resetting, every touched object stays static; a reset
        // discovers they are plain garbage.
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Node", 1));
        let s = p.add_static();
        let code = vec![
            Insn::New { class: c, dst: 0 },
            Insn::PutStatic {
                static_id: s,
                value: 0,
            },
            Insn::Const { dst: 2, value: 0 },
            Insn::Branch {
                cond: Cond::Ge,
                a: Operand::Local(2),
                b: Operand::Imm(100),
                target: 11,
            },
            Insn::New { class: c, dst: 1 },
            Insn::GetStatic {
                static_id: s,
                dst: 0,
            },
            Insn::PutField {
                object: 0,
                field: 0,
                value: 1,
            },
            Insn::LoadNull { dst: 3 },
            Insn::PutField {
                object: 0,
                field: 0,
                value: 3,
            },
            Insn::Arith {
                op: cg_vm::ArithOp::Add,
                dst: 2,
                a: Operand::Local(2),
                b: Operand::Imm(1),
            },
            Insn::Jump { target: 3 },
            Insn::Return { value: None },
        ];
        let main = p.add_method(MethodDef::new("main", 0, 4, code));
        p.set_entry(main);

        let config = VmConfig::small().with_gc_every(100);
        let mut vm = Vm::new(p, config, HybridCollector::default());
        vm.run().expect("program runs");
        let hybrid = vm.collector();
        // The periodic traditional collections caught the statically
        // "contaminated" garbage and reset structures.
        assert!(hybrid.cg().stats().resets > 0);
        assert!(hybrid.msa_stats().objects_swept > 50);
        assert!(hybrid.cg().stats().reset_collected_by_msa > 50);
        // Everything allocated before the last traditional collection has
        // been reclaimed; only the static root plus the handful of nodes
        // allocated since then remain.
        assert!(
            vm.heap().live_count() <= 20,
            "live = {}",
            vm.heap().live_count()
        );
        let live = trace_live(&vm.build_roots(), vm.heap());
        assert_eq!(live.iter().filter(|&&m| m).count(), 1);
    }
}
