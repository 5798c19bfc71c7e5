//! The contaminated garbage collector.

use cg_vm::{ClassId, CollectOutcome, Collector, FrameInfo, Handle, Heap, RootSet, ThreadId};

use crate::equilive::EquiliveSets;
use crate::shard::CollectorShard;
use crate::static_domain::{DomainImpl, StaticDomain};
use crate::stats::{CgStats, ObjectBreakdown};

/// A deliberate, test-only defect injected into the collector.
///
/// The differential fuzzer (`cg-fuzz`) checks the collector against a
/// precise reachability oracle; fault injection is how the *oracle itself*
/// is validated — a harness that cannot catch a collector with its
/// contamination rule ripped out is not testing anything.  Production code
/// never sets anything but [`FaultInjection::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultInjection {
    /// No fault: the collector behaves as the paper specifies.
    #[default]
    None,
    /// Drop every contamination event: `on_reference_store` records its
    /// statistics but never merges blocks, so an object stored into a
    /// longer-lived container still dies with its birth frame — a textbook
    /// soundness violation the oracle must catch.
    SkipContamination,
}

/// Configuration of the contaminated collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CgConfig {
    /// Enable the §3.4 static optimisation: storing a reference *to* an
    /// already-static object does not contaminate the storing object.
    pub static_opt: bool,
    /// Enable §3.7 object recycling: dead equilive blocks are kept on a
    /// recycle list, first-fit-scanned in collection order, and reused to
    /// satisfy later allocations instead of being freed immediately.
    pub recycling: bool,
    /// Verify that the program never touches an object the collector
    /// considers dead (the "tainted" list of §3.1.4, read off the
    /// collector's records, the heap and the recycle list).  Violations
    /// indicate a soundness bug and panic.
    pub verify_tainted: bool,
    /// Test-only deliberate defect (see [`FaultInjection`]); always
    /// [`FaultInjection::None`] outside the fuzzer's self-check.
    pub fault: FaultInjection,
    /// Which [`StaticDomain`] implementation backs the shared static set:
    /// the lock-free forest (the default) or the retained global-lock model
    /// the fuzzer uses as the differential reference.
    pub domain_impl: DomainImpl,
}

impl Default for CgConfig {
    fn default() -> Self {
        Self {
            static_opt: true,
            recycling: false,
            verify_tainted: cfg!(debug_assertions),
            fault: FaultInjection::None,
            domain_impl: DomainImpl::default(),
        }
    }
}

impl CgConfig {
    /// The paper's preferred configuration (static optimisation on, no
    /// recycling).
    pub fn preferred() -> Self {
        Self::default()
    }

    /// The unoptimised configuration used for the "no opt" column of
    /// Figure 4.1.
    pub fn without_static_opt() -> Self {
        Self {
            static_opt: false,
            ..Self::default()
        }
    }

    /// The recycling configuration of §3.7 / Figures 4.12–4.13 (first-fit
    /// search of the recycle list, as in the paper).
    pub fn with_recycling() -> Self {
        Self {
            recycling: true,
            ..Self::default()
        }
    }

    /// The same configuration with a deliberate defect injected (test-only;
    /// see [`FaultInjection`]).
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = fault;
        self
    }

    /// The same configuration on an explicit [`StaticDomain`]
    /// implementation (the fuzzer and the contention bench run both).
    pub fn with_domain_impl(mut self, which: DomainImpl) -> Self {
        self.domain_impl = which;
        self
    }
}

/// The contaminated garbage collector (the paper's contribution).
///
/// Objects are grouped into equilive blocks; each block depends on a stack
/// frame; popping the frame collects the block.  See the crate documentation
/// for the full set of rules and the
/// [`Collector`] implementation below for how each VM event maps onto them.
///
/// Internally this is the **1-shard instantiation** of the sharded collector
/// code path: one [`CollectorShard`] holding all per-thread state (equilive
/// forest, frame index, per-object records, recycle list) plus a private
/// [`StaticDomain`] holding the §3.3 static set.  A multi-shard evaluation
/// (see [`ShardedGc`](crate::ShardedGc) and `cg-trace`'s
/// `parallel_eval_governed`) runs exactly the same per-event code over N
/// shards sharing one domain.
///
/// # Example
///
/// ```
/// use cg_vm::{Program, ClassDef, MethodDef, Insn, Vm, VmConfig};
/// use cg_core::ContaminatedGc;
///
/// let mut program = Program::new();
/// let class = program.add_class(ClassDef::new("Temp", 1));
/// // A helper method that allocates an object which never escapes.
/// let helper = program.add_method(MethodDef::new("helper", 0, 1, vec![
///     Insn::New { class, dst: 0 },
///     Insn::Return { value: None },
/// ]));
/// let main = program.add_method(MethodDef::new("main", 0, 1, vec![
///     Insn::Call { method: helper, args: vec![], dst: None },
///     Insn::Return { value: None },
/// ]));
/// program.set_entry(main);
///
/// let mut vm = Vm::new(program, VmConfig::default(), ContaminatedGc::new());
/// vm.run()?;
/// // The helper's object was collected the moment the helper returned.
/// assert_eq!(vm.collector().stats().objects_collected, 1);
/// # Ok::<(), cg_vm::VmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContaminatedGc {
    config: CgConfig,
    /// The one shard: all per-thread collector state.
    shard: CollectorShard,
    /// The private static set (§3.3); shared by reference in multi-shard
    /// evaluations, owned here.
    domain: StaticDomain,
    /// Final object disposition, computed when the program ends.
    breakdown: Option<ObjectBreakdown>,
}

impl Default for ContaminatedGc {
    fn default() -> Self {
        Self::new()
    }
}

impl ContaminatedGc {
    /// Creates a collector with the paper's preferred configuration.
    pub fn new() -> Self {
        Self::with_config(CgConfig::default())
    }

    /// Creates a collector with an explicit configuration.
    pub fn with_config(config: CgConfig) -> Self {
        Self {
            config,
            shard: CollectorShard::new(config),
            domain: StaticDomain::with_impl(config.domain_impl),
            breakdown: None,
        }
    }

    /// The collector's configuration.
    pub fn config(&self) -> &CgConfig {
        &self.config
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &CgStats {
        self.shard.stats()
    }

    /// The equilive relation (for inspection in tests and experiments).
    pub fn sets(&self) -> &EquiliveSets {
        self.shard.sets()
    }

    /// The static domain (for inspection in tests and experiments).
    pub fn domain(&self) -> &StaticDomain {
        &self.domain
    }

    /// Number of dead objects currently awaiting reuse on the recycle list.
    pub fn recycle_list_len(&self) -> usize {
        self.shard.recycle_list_len()
    }

    /// Final disposition of every created object (popped / static /
    /// thread-shared).  Available after the program ends; computed on demand
    /// otherwise.
    pub fn breakdown(&mut self) -> ObjectBreakdown {
        match self.breakdown {
            Some(b) => b,
            None => self.compute_breakdown(),
        }
    }

    fn compute_breakdown(&mut self) -> ObjectBreakdown {
        let mut breakdown = ObjectBreakdown {
            popped: self.shard.stats().objects_collected,
            ..ObjectBreakdown::default()
        };
        self.shard
            .accumulate_breakdown(&self.domain, &mut breakdown);
        breakdown
    }

    // ------------------------------------------------------------------
    // resetting (§3.6) and cooperation with a traditional collector
    // ------------------------------------------------------------------

    /// Drops every object that a traditional collection found unreachable
    /// (`live[handle] == false`) from the collector's structures, counting
    /// them as "collected by MSA" (Figure 4.11).  Also purges them from the
    /// recycle list.
    pub fn purge_unreachable(&mut self, live: &[bool]) {
        self.shard.purge_unreachable(live);
    }

    /// Rebuilds the equilive relation from the live object graph during a
    /// traditional collection (§3.6).  See
    /// [`CollectorShard::reset_from_roots`].
    pub fn reset_from_roots(&mut self, roots: &RootSet, heap: &Heap, live: &[bool]) {
        self.shard.reset_from_roots(roots, heap, live, &self.domain);
    }
}

impl Collector for ContaminatedGc {
    fn name(&self) -> &str {
        if self.config.recycling {
            "cg+recycle"
        } else {
            "cg"
        }
    }

    fn on_allocate(&mut self, handle: Handle, frame: &FrameInfo, _heap: &Heap) {
        self.shard.on_allocate(handle, frame, &self.domain);
    }

    fn on_reference_store(
        &mut self,
        source: Handle,
        target: Handle,
        frame: &FrameInfo,
        heap: &Heap,
    ) {
        self.shard
            .on_reference_store(source, target, frame, heap, &self.domain);
    }

    fn on_static_store(&mut self, target: Handle, heap: &Heap) {
        self.shard.on_static_store(target, heap, &self.domain);
    }

    fn on_return_value(&mut self, value: Handle, caller: &FrameInfo, callee: &FrameInfo) {
        self.shard
            .on_return_value(value, caller, callee, &self.domain);
    }

    fn on_frame_pop(&mut self, frame: &FrameInfo, heap: &mut Heap) -> CollectOutcome {
        self.shard.on_frame_pop(frame, heap)
    }

    fn on_object_access(&mut self, handle: Handle, thread: ThreadId, heap: &Heap) {
        self.shard
            .on_object_access(handle, thread, heap, &self.domain);
    }

    fn try_recycled_alloc(
        &mut self,
        class: ClassId,
        field_count: usize,
        _frame: &FrameInfo,
        heap: &mut Heap,
    ) -> Option<Handle> {
        self.shard.try_recycled_alloc(class, field_count, heap)
    }

    fn on_program_end(&mut self, _roots: &RootSet, _heap: &mut Heap) {
        let breakdown = self.compute_breakdown();
        self.shard.stats_mut().objects_thread_shared = breakdown.thread_shared;
        self.breakdown = Some(breakdown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_vm::{ClassDef, Cond, Insn, MethodDef, Operand, Program, Vm, VmConfig};

    /// Runs `program` under a contaminated collector with `config` and
    /// returns the VM for inspection.
    fn run_with(program: Program, config: CgConfig) -> Vm<ContaminatedGc> {
        let mut vm = Vm::new(
            program,
            VmConfig::small(),
            ContaminatedGc::with_config(config),
        );
        vm.run().expect("program runs");
        vm
    }

    fn run(program: Program) -> Vm<ContaminatedGc> {
        run_with(program, CgConfig::default())
    }

    /// main calls helper(); helper allocates `n` objects that never escape.
    fn non_escaping_program(n: i64) -> Program {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Temp", 1));
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
    fn non_escaping_objects_are_collected_at_frame_pop() {
        let vm = run(non_escaping_program(50));
        let stats = vm.collector().stats();
        assert_eq!(stats.objects_created, 50);
        assert_eq!(stats.objects_collected, 50);
        assert_eq!(stats.objects_collected_exactly, 50);
        assert_eq!(vm.heap().live_count(), 0);
        // All blocks were singletons and died in their birth frame.
        assert_eq!(stats.block_sizes.bucket_count(0), 50);
        assert_eq!(stats.age_at_death.bucket_count(0), 50);
    }

    #[test]
    fn returned_objects_survive_their_birth_frame() {
        // helper() returns a fresh object; main keeps it in a local.
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Box", 1));
        let helper = p.add_method(MethodDef::new(
            "helper",
            0,
            1,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::Return { value: Some(0) },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            2,
            vec![
                Insn::Call {
                    method: helper,
                    args: vec![],
                    dst: Some(0),
                },
                // Touch the object to prove it is still alive.
                Insn::GetField {
                    object: 0,
                    field: 0,
                    dst: 1,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let mut vm = run(p);
        let stats = vm.collector().stats().clone();
        assert_eq!(stats.objects_created, 1);
        // Collected when main itself pops (frame distance 1), not before.
        assert_eq!(stats.objects_collected, 1);
        assert_eq!(stats.returns_retargeted, 1);
        assert_eq!(stats.age_at_death.bucket_count(1), 1);
        assert_eq!(vm.heap().live_count(), 0);
        assert_eq!(vm.collector_mut().breakdown().popped, 1);
    }

    #[test]
    fn contamination_extends_lifetime_to_older_frame() {
        // main allocates a container; helper(container) allocates an object
        // and stores it into the container: the object must survive helper.
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Node", 1));
        let helper = p.add_method(MethodDef::new(
            "helper",
            1,
            2,
            vec![
                Insn::New { class: c, dst: 1 },
                Insn::PutField {
                    object: 0,
                    field: 0,
                    value: 1,
                },
                Insn::Return { value: None },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            2,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::Call {
                    method: helper,
                    args: vec![0],
                    dst: None,
                },
                Insn::GetField {
                    object: 0,
                    field: 0,
                    dst: 1,
                },
                Insn::GetField {
                    object: 1,
                    field: 0,
                    dst: 1,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let vm = run(p);
        let stats = vm.collector().stats();
        assert_eq!(stats.objects_created, 2);
        assert_eq!(stats.objects_collected, 2);
        assert_eq!(stats.unions, 1);
        // Both objects die together when main pops: one block of size 2.
        assert_eq!(stats.block_sizes.bucket_count(1), 1);
        assert_eq!(vm.heap().live_count(), 0);
    }

    #[test]
    fn static_objects_are_never_collected() {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Global", 1));
        let s = p.add_static();
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            2,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::PutStatic {
                    static_id: s,
                    value: 0,
                },
                Insn::New { class: c, dst: 1 },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let mut vm = run(p);
        let breakdown = vm.collector_mut().breakdown();
        assert_eq!(breakdown.popped, 1);
        assert_eq!(breakdown.static_objects, 1);
        assert_eq!(vm.heap().live_count(), 1);
    }

    #[test]
    fn static_optimization_avoids_contaminating_the_referencer() {
        // A static object is stored INTO a local object: with the §3.4
        // optimisation the local object must still be collectable.
        let build = || {
            let mut p = Program::new();
            let c = p.add_class(ClassDef::new("Node", 1));
            let s = p.add_static();
            let helper = p.add_method(MethodDef::new(
                "helper",
                0,
                3,
                vec![
                    // local object
                    Insn::New { class: c, dst: 0 },
                    // read the static and store it into the local object
                    Insn::GetStatic {
                        static_id: s,
                        dst: 1,
                    },
                    Insn::PutField {
                        object: 0,
                        field: 0,
                        value: 1,
                    },
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
        };

        let vm_opt = run_with(build(), CgConfig::default());
        let vm_noopt = run_with(build(), CgConfig::without_static_opt());

        // With the optimisation: the helper's object dies when helper pops.
        assert_eq!(vm_opt.collector().stats().objects_collected, 1);
        assert_eq!(vm_opt.collector().stats().static_opt_skips, 1);
        // Without it: the helper's object is dragged into the static set.
        assert_eq!(vm_noopt.collector().stats().objects_collected, 0);
        assert!(vm_noopt.collector().stats().static_opt_skips == 0);
    }

    #[test]
    fn contamination_cannot_be_undone() {
        // E (static) contaminates D, then points away (step 5 of Figure 2.2):
        // D stays static even though nothing references it any more.
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Node", 1));
        let s = p.add_static();
        let helper = p.add_method(MethodDef::new(
            "helper",
            0,
            3,
            vec![
                Insn::New { class: c, dst: 0 }, // D
                Insn::GetStatic {
                    static_id: s,
                    dst: 1,
                }, // E
                Insn::PutField {
                    object: 1,
                    field: 0,
                    value: 0,
                }, // E.f = D  (contaminates D)
                Insn::LoadNull { dst: 2 },
                Insn::PutField {
                    object: 1,
                    field: 0,
                    value: 2,
                }, // E.f = null (points away)
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
        let mut vm = run(p);
        // D was contaminated by a static object: it is never collected,
        // even though it is actually garbage after step 5.
        assert_eq!(vm.collector().stats().objects_collected, 0);
        let breakdown = vm.collector_mut().breakdown();
        assert_eq!(breakdown.static_objects, 2);
        assert_eq!(vm.heap().live_count(), 2);
    }

    #[test]
    fn thread_shared_objects_become_static() {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Shared", 1));
        let worker = p.add_method(MethodDef::new(
            "worker",
            1,
            2,
            vec![
                Insn::New { class: c, dst: 1 },
                Insn::PutField {
                    object: 0,
                    field: 0,
                    value: 1,
                },
                Insn::Return { value: None },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::SpawnThread {
                    method: worker,
                    args: vec![0],
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let mut vm = run(p);
        let breakdown = vm.collector_mut().breakdown();
        // The shared object is pinned as thread-shared; the worker's own
        // object contaminated it (stored into it) and is dragged along
        // unless the static optimisation applies — it does, since the shared
        // object is already static when the worker stores into it... the
        // worker stores its object INTO the shared one (shared.f = mine), so
        // the source is the shared (static) object and the optimisation does
        // not apply: both end up static.
        assert_eq!(breakdown.thread_shared, 2);
        assert_eq!(breakdown.popped, 0);
        assert!(vm.collector().stats().objects_thread_shared >= 1);
    }

    #[test]
    fn interned_objects_are_static() {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Str", 1));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            2,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::Intern {
                    key: 42,
                    src: 0,
                    dst: 1,
                },
                Insn::New { class: c, dst: 0 },
                Insn::Intern {
                    key: 42,
                    src: 0,
                    dst: 1,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let mut vm = run(p);
        let breakdown = vm.collector_mut().breakdown();
        // The first object is interned (static); the second maps to the
        // first and itself dies with main.
        assert_eq!(breakdown.static_objects, 1);
        assert_eq!(breakdown.popped, 1);
    }

    #[test]
    fn recycling_reuses_dead_objects() {
        // helper() allocates an object that dies on return; called many
        // times, later allocations must be served from the recycle list.
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Temp", 2));
        let helper = p.add_method(MethodDef::new(
            "helper",
            0,
            1,
            vec![Insn::New { class: c, dst: 0 }, Insn::Return { value: None }],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![
                Insn::Call {
                    method: helper,
                    args: vec![],
                    dst: None,
                },
                Insn::Call {
                    method: helper,
                    args: vec![],
                    dst: None,
                },
                Insn::Call {
                    method: helper,
                    args: vec![],
                    dst: None,
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
        let vm = run_with(p, CgConfig::with_recycling());
        let stats = vm.collector().stats();
        assert_eq!(stats.objects_created, 4);
        // The first call allocates fresh; the remaining three reuse it.
        assert_eq!(stats.objects_recycled, 3);
        assert_eq!(vm.stats().recycled_allocations, 3);
        // Only one object was ever taken from the heap.
        assert_eq!(vm.heap().stats().objects_allocated, 1);
    }

    #[test]
    fn skip_contamination_fault_disables_unions() {
        // main's container receives the helper's temporary; normally the
        // store unions their blocks and the temp survives the helper.  With
        // the injected fault the store is dropped and the temp dies (wrongly)
        // at the helper's pop — exactly the defect the fuzz oracle hunts.
        let build = || {
            let mut p = Program::new();
            let c = p.add_class(ClassDef::new("Node", 1));
            let helper = p.add_method(MethodDef::new(
                "helper",
                1,
                2,
                vec![
                    Insn::New { class: c, dst: 1 },
                    Insn::PutField {
                        object: 0,
                        field: 0,
                        value: 1,
                    },
                    Insn::Return { value: None },
                ],
            ));
            let main = p.add_method(MethodDef::new(
                "main",
                0,
                1,
                vec![
                    Insn::New { class: c, dst: 0 },
                    Insn::Call {
                        method: helper,
                        args: vec![0],
                        dst: None,
                    },
                    Insn::Return { value: None },
                ],
            ));
            p.set_entry(main);
            p
        };
        let sound = run_with(build(), CgConfig::default());
        assert_eq!(sound.collector().stats().unions, 1);
        let faulty = run_with(
            build(),
            CgConfig::default().with_fault(FaultInjection::SkipContamination),
        );
        let stats = faulty.collector().stats();
        assert_eq!(stats.unions, 0);
        assert_eq!(stats.contaminations, 1);
        // The temp was freed at the helper's pop even though the container
        // still referenced it.
        assert!(!faulty.heap().is_live(Handle::from_index(1)));
    }

    #[test]
    fn collector_name_reflects_configuration() {
        assert_eq!(ContaminatedGc::new().name(), "cg");
        assert_eq!(
            ContaminatedGc::with_config(CgConfig::with_recycling()).name(),
            "cg+recycle"
        );
        assert!(CgConfig::preferred().static_opt);
        assert!(!CgConfig::without_static_opt().static_opt);
    }

    #[test]
    fn deep_call_chains_record_age_at_death() {
        // A chain of calls each returning an object allocated at the bottom:
        // the object climbs several frames before dying.
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Deep", 1));
        // depth3() -> new object
        let depth3 = p.add_method(MethodDef::new(
            "depth3",
            0,
            1,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::Return { value: Some(0) },
            ],
        ));
        let depth2 = p.add_method(MethodDef::new(
            "depth2",
            0,
            1,
            vec![
                Insn::Call {
                    method: depth3,
                    args: vec![],
                    dst: Some(0),
                },
                Insn::Return { value: Some(0) },
            ],
        ));
        let depth1 = p.add_method(MethodDef::new(
            "depth1",
            0,
            1,
            vec![
                Insn::Call {
                    method: depth2,
                    args: vec![],
                    dst: Some(0),
                },
                Insn::Return { value: Some(0) },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![
                Insn::Call {
                    method: depth1,
                    args: vec![],
                    dst: Some(0),
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let vm = run(p);
        let stats = vm.collector().stats();
        assert_eq!(stats.objects_created, 1);
        assert_eq!(stats.objects_collected, 1);
        // Born at depth 4 (main=1, depth1=2, depth2=3, depth3=4), dies when
        // main (depth 1) pops: frame distance 3.
        assert_eq!(stats.age_at_death.bucket_count(3), 1);
        assert_eq!(stats.returns_retargeted, 3);
    }

    #[test]
    fn purge_unreachable_counts_msa_collected() {
        let vm = run(non_escaping_program(1));
        let mut cg = vm.collector().clone();
        // Simulate a traditional collection that finds nothing live.
        let live = vec![false; 1];
        let before = cg.stats().reset_collected_by_msa;
        cg.purge_unreachable(&live);
        // The single object was already collected by CG, so nothing new.
        assert_eq!(cg.stats().reset_collected_by_msa, before);
    }

    #[test]
    fn breakdown_accounts_for_every_object() {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Mix", 1));
        let s = p.add_static();
        let helper = p.add_method(MethodDef::new(
            "helper",
            0,
            1,
            vec![Insn::New { class: c, dst: 0 }, Insn::Return { value: None }],
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
                Insn::Call {
                    method: helper,
                    args: vec![],
                    dst: None,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let mut vm = run(p);
        let created = vm.collector().stats().objects_created;
        let breakdown = vm.collector_mut().breakdown();
        assert_eq!(breakdown.total(), created);
        assert_eq!(breakdown.popped, 2);
        assert_eq!(breakdown.static_objects, 1);
    }
}
