//! The mark-sweep (MSA) baseline collector.
//!
//! The paper compares the contaminated collector against Sun's JDK 1.1.8
//! system, whose traditional collector is a non-generational mark-sweep
//! ("MSA" in the thesis).  This module provides:
//!
//! * [`MarkSweep`] — the MSA baseline: mark from the roots, sweep everything
//!   unmarked back to the object-space free list, no compaction (the paper's
//!   timing runs avoid heap compaction, §4.5).
//! * [`trace_live`] — the reusable marking pass, also used by the hybrid
//!   contaminated collector when it resets its structures during a
//!   traditional collection (§3.6) and by tests that check the contaminated
//!   collector never frees a reachable object.
//!
//! The "GC disabled, plenty of storage" configuration §4.5 uses to isolate
//! CG's bookkeeping overhead is [`cg_vm::NoopCollector`].
//!
//! # Example
//!
//! ```
//! use cg_vm::{Program, ClassDef, MethodDef, Insn, Vm, VmConfig};
//! use cg_core::marksweep::MarkSweep;
//!
//! let mut program = Program::new();
//! let class = program.add_class(ClassDef::new("Node", 1));
//! let main = program.add_method(MethodDef::new("main", 0, 2, vec![
//!     Insn::New { class, dst: 0 },
//!     Insn::New { class, dst: 1 },
//!     Insn::Return { value: None },
//! ]));
//! program.set_entry(main);
//!
//! let mut vm = Vm::new(program, VmConfig::default(), MarkSweep::new());
//! vm.run()?;
//! # Ok::<(), cg_vm::VmError>(())
//! ```

use cg_vm::{CollectOutcome, Collector, Handle, Heap, RootSet};

/// Statistics accumulated by the [`MarkSweep`] collector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarkSweepStats {
    /// Full collections performed.
    pub cycles: u64,
    /// Objects visited by the mark phase, summed over all cycles.
    pub objects_marked: u64,
    /// Objects swept (freed), summed over all cycles.
    pub objects_swept: u64,
    /// Bytes returned to the free list, summed over all cycles.
    pub bytes_swept: u64,
    /// The largest number of objects marked in a single cycle — a proxy for
    /// the cache-polluting working set the paper's introduction complains
    /// about.
    pub peak_marked_in_cycle: u64,
}

/// Computes the set of handles reachable from `roots`, as a dense bitmap
/// indexed by handle index.
///
/// The traversal is an explicit work-list depth-first search so deep object
/// graphs cannot overflow the Rust stack.
///
/// # Example
///
/// ```
/// use cg_heap::{Heap, HeapConfig, ClassId, Value};
/// use cg_vm::RootSet;
/// use cg_core::marksweep::trace_live;
///
/// let mut heap = Heap::new(HeapConfig::small());
/// let a = heap.allocate(ClassId::new(0), 1)?;
/// let b = heap.allocate(ClassId::new(0), 0)?;
/// let c = heap.allocate(ClassId::new(0), 0)?;
/// heap.set_field(a, 0, Value::from(b))?;
/// let roots = RootSet { statics: vec![a], ..RootSet::default() };
/// let live = trace_live(&roots, &heap);
/// assert!(live[a.index_usize()] && live[b.index_usize()]);
/// assert!(!live[c.index_usize()]);
/// # Ok::<(), cg_heap::HeapError>(())
/// ```
pub fn trace_live(roots: &RootSet, heap: &Heap) -> Vec<bool> {
    let mut marked = vec![false; heap.handles_minted()];
    let mut worklist: Vec<Handle> = Vec::new();
    for root in roots.all_roots() {
        if heap.is_live(root) && !marked[root.index_usize()] {
            marked[root.index_usize()] = true;
            worklist.push(root);
        }
    }
    while let Some(handle) = worklist.pop() {
        // The borrowing iterator avoids allocating a Vec per marked object.
        for target in heap.references_iter(handle) {
            if heap.is_live(target) && !marked[target.index_usize()] {
                marked[target.index_usize()] = true;
                worklist.push(target);
            }
        }
    }
    marked
}

/// The traditional mark-sweep collector of the base JDK 1.1.8 system.
///
/// It ignores every incremental hook and only acts when the VM asks for a
/// full collection (allocation failure or a configured periodic trigger):
/// mark everything reachable from the roots, then sweep every unmarked live
/// object back to the free list.  Objects are not moved (no compaction),
/// matching the configuration the paper uses for its timing comparisons.
#[derive(Debug, Clone, Default)]
pub struct MarkSweep {
    stats: MarkSweepStats,
}

impl MarkSweep {
    /// Creates a mark-sweep collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics over all collections performed so far.
    pub fn stats(&self) -> &MarkSweepStats {
        &self.stats
    }
}

impl Collector for MarkSweep {
    fn name(&self) -> &str {
        "msa"
    }

    fn collect(&mut self, roots: &RootSet, heap: &mut Heap) -> CollectOutcome {
        let marked = trace_live(roots, heap);
        let marked_count = marked.iter().filter(|&&m| m).count() as u64;

        let victims: Vec<Handle> = heap
            .live_handles()
            .filter(|h| !marked[h.index_usize()])
            .collect();
        let mut freed_bytes = 0u64;
        let freed_objects = victims.len() as u64;
        for victim in victims {
            freed_bytes += heap.free(victim).expect("victim was live") as u64;
        }

        self.stats.cycles += 1;
        self.stats.objects_marked += marked_count;
        self.stats.objects_swept += freed_objects;
        self.stats.bytes_swept += freed_bytes;
        self.stats.peak_marked_in_cycle = self.stats.peak_marked_in_cycle.max(marked_count);

        CollectOutcome {
            freed_objects,
            freed_bytes,
            marked_objects: marked_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_heap::{ClassId, HeapConfig, Value};
    use cg_vm::{FrameId, FrameInfo, FrameRoots, MethodId, ThreadId};

    fn heap() -> Heap {
        Heap::new(HeapConfig::small())
    }

    fn class() -> ClassId {
        ClassId::new(0)
    }

    fn frame_roots(refs: Vec<Handle>) -> RootSet {
        RootSet {
            frames: vec![FrameRoots {
                frame: FrameInfo {
                    id: FrameId::new(1),
                    depth: 1,
                    thread: ThreadId::MAIN,
                    method: MethodId::new(0),
                },
                refs,
            }],
            ..RootSet::default()
        }
    }

    #[test]
    fn trace_live_follows_transitive_references() {
        let mut h = heap();
        let a = h.allocate(class(), 1).unwrap();
        let b = h.allocate(class(), 1).unwrap();
        let c = h.allocate(class(), 0).unwrap();
        let d = h.allocate(class(), 0).unwrap();
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.set_field(b, 0, Value::from(c)).unwrap();
        let live = trace_live(&frame_roots(vec![a]), &h);
        assert!(live[a.index_usize()]);
        assert!(live[b.index_usize()]);
        assert!(live[c.index_usize()]);
        assert!(!live[d.index_usize()]);
    }

    #[test]
    fn trace_live_handles_cycles() {
        let mut h = heap();
        let a = h.allocate(class(), 1).unwrap();
        let b = h.allocate(class(), 1).unwrap();
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.set_field(b, 0, Value::from(a)).unwrap();
        let live = trace_live(&frame_roots(vec![a]), &h);
        assert!(live[a.index_usize()] && live[b.index_usize()]);
    }

    #[test]
    fn trace_live_with_no_roots_marks_nothing() {
        let mut h = heap();
        let _a = h.allocate(class(), 0).unwrap();
        let live = trace_live(&RootSet::default(), &h);
        assert!(live.iter().all(|&m| !m));
    }

    #[test]
    fn collect_frees_unreachable_objects() {
        let mut h = heap();
        let a = h.allocate(class(), 1).unwrap();
        let b = h.allocate(class(), 0).unwrap();
        let dead1 = h.allocate(class(), 0).unwrap();
        let dead2 = h.allocate(class(), 2).unwrap();
        h.set_field(a, 0, Value::from(b)).unwrap();
        let mut msa = MarkSweep::new();
        let outcome = msa.collect(&frame_roots(vec![a]), &mut h);
        assert_eq!(outcome.freed_objects, 2);
        assert_eq!(outcome.marked_objects, 2);
        assert!(outcome.freed_bytes >= 8 + 16);
        assert!(h.is_live(a) && h.is_live(b));
        assert!(!h.is_live(dead1) && !h.is_live(dead2));
        assert_eq!(msa.stats().cycles, 1);
        assert_eq!(msa.stats().objects_swept, 2);
    }

    #[test]
    fn collect_twice_accumulates_stats() {
        let mut h = heap();
        let _dead = h.allocate(class(), 0).unwrap();
        let mut msa = MarkSweep::new();
        msa.collect(&RootSet::default(), &mut h);
        let _dead2 = h.allocate(class(), 0).unwrap();
        msa.collect(&RootSet::default(), &mut h);
        assert_eq!(msa.stats().cycles, 2);
        assert_eq!(msa.stats().objects_swept, 2);
        assert_eq!(msa.stats().peak_marked_in_cycle, 0);
    }

    #[test]
    fn cycles_in_garbage_are_collected() {
        let mut h = heap();
        let a = h.allocate(class(), 1).unwrap();
        let b = h.allocate(class(), 1).unwrap();
        h.set_field(a, 0, Value::from(b)).unwrap();
        h.set_field(b, 0, Value::from(a)).unwrap();
        let keep = h.allocate(class(), 0).unwrap();
        let mut msa = MarkSweep::new();
        let outcome = msa.collect(&frame_roots(vec![keep]), &mut h);
        assert_eq!(outcome.freed_objects, 2);
        assert!(h.is_live(keep));
        assert!(!h.is_live(a) && !h.is_live(b));
    }

    #[test]
    fn interpreter_and_static_roots_are_respected() {
        let mut h = heap();
        let s = h.allocate(class(), 0).unwrap();
        let i = h.allocate(class(), 0).unwrap();
        let dead = h.allocate(class(), 0).unwrap();
        let roots = RootSet {
            statics: vec![s],
            interpreter: vec![i],
            ..RootSet::default()
        };
        let mut msa = MarkSweep::new();
        msa.collect(&roots, &mut h);
        assert!(h.is_live(s) && h.is_live(i));
        assert!(!h.is_live(dead));
    }

    #[test]
    fn default_is_a_fresh_collector() {
        let msa = MarkSweep::default();
        assert_eq!(msa.stats(), &MarkSweepStats::default());
        assert_eq!(msa.name(), "msa");
    }

    /// The oracle's own check: `trace_live` agrees with an independently
    /// written reachability computation (a naive fixed-point iteration, no
    /// shared code with the worklist DFS), and a collection then keeps
    /// exactly the reachable set — on randomly built object graphs.
    ///
    /// `cg-fuzz` leans on mark-sweep as precise ground truth, so the ground
    /// truth needs a witness that does not share its traversal logic.
    #[test]
    fn trace_live_matches_independent_fixed_point_on_random_graphs() {
        use cg_testutil::TestRng;

        for seed in 0..48u64 {
            let mut rng = TestRng::new(seed);
            let mut h = heap();
            let count = rng.gen_range(3, 40);
            let mut handles = Vec::with_capacity(count);
            for _ in 0..count {
                let fields = rng.gen_range(0, 4);
                handles.push(h.allocate(class(), fields).unwrap());
            }
            // Random edges (including self-loops and cycles).
            for _ in 0..rng.gen_range(0, 3 * count) {
                let src = *rng.pick(&handles);
                let dst = *rng.pick(&handles);
                let slots = h.get(src).unwrap().slot_count();
                if slots > 0 {
                    h.set_field(src, rng.gen_range(0, slots), Value::from(dst))
                        .unwrap();
                }
            }
            // A few objects freed up front: dead handles must stay dead.
            let mut freed = vec![false; count];
            for _ in 0..rng.gen_range(0, count / 3 + 1) {
                let i = rng.gen_range(0, count);
                if !freed[i] {
                    h.free(handles[i]).unwrap();
                    freed[i] = true;
                }
            }
            let roots: Vec<Handle> = handles
                .iter()
                .enumerate()
                .filter(|&(i, _)| !freed[i] && rng.gen_bool(0.25))
                .map(|(_, &handle)| handle)
                .collect();
            let root_set = RootSet {
                statics: roots.clone(),
                ..RootSet::default()
            };

            // Independent model: iterate to a fixed point over the live
            // objects' reference lists.
            let mut model = vec![false; h.handles_minted()];
            for &root in &roots {
                model[root.index_usize()] = true;
            }
            loop {
                let mut changed = false;
                for src in h.live_handles() {
                    if !model[src.index_usize()] {
                        continue;
                    }
                    for dst in h.references_of(src) {
                        if h.is_live(dst) && !model[dst.index_usize()] {
                            model[dst.index_usize()] = true;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }

            let marked = trace_live(&root_set, &h);
            assert_eq!(marked, model, "seed {seed}");

            // A collection keeps exactly the marked set.
            let mut msa = MarkSweep::default();
            let reachable_count = model.iter().filter(|&&m| m).count();
            msa.collect(&root_set, &mut h);
            assert_eq!(h.live_count(), reachable_count, "seed {seed}");
            for (i, &keep) in model.iter().enumerate() {
                assert_eq!(
                    h.is_live(Handle::from_index(i as u32)),
                    keep,
                    "seed {seed}, handle {i}"
                );
            }
        }
    }

    /// End-to-end: a VM under memory pressure survives because mark-sweep
    /// reclaims unreachable objects at allocation failure.
    #[test]
    fn vm_survives_memory_pressure_with_marksweep() {
        use cg_vm::{ClassDef, Cond, Insn, MethodDef, Operand, Program, Vm, VmConfig};

        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Temp", 1));
        // Allocate 2000 short-lived objects in a loop; the heap holds ~64.
        let code = vec![
            Insn::Const { dst: 1, value: 0 },
            Insn::Branch {
                cond: Cond::Ge,
                a: Operand::Local(1),
                b: Operand::Imm(2000),
                target: 6,
            },
            Insn::New { class: c, dst: 0 },
            Insn::PutField {
                object: 0,
                field: 0,
                value: 0,
            },
            Insn::Arith {
                op: cg_vm::ArithOp::Add,
                dst: 1,
                a: Operand::Local(1),
                b: Operand::Imm(1),
            },
            Insn::Jump { target: 1 },
            Insn::Return { value: None },
        ];
        let m = p.add_method(MethodDef::new("main", 0, 2, code));
        p.set_entry(m);

        let mut config = VmConfig::small();
        config.heap = cg_heap::HeapConfig::tight(1024);
        config.heap.handle_space_bytes = 1 << 20;
        let mut vm = Vm::new(p, config, MarkSweep::new());
        let outcome = vm.run().expect("mark-sweep keeps the program alive");
        assert_eq!(outcome.stats.objects_allocated, 2000);
        assert!(vm.collector().stats().cycles > 0);
        assert!(vm.collector().stats().objects_swept > 1000);
    }
}
