//! The bytecode interpreter.
//!
//! Execution state lives in `Exec` (private), separate from the immutable
//! [`Program`], so the dispatch loop can hold a borrow of the current
//! method's code across instruction execution: instructions are *borrowed*,
//! never cloned, which keeps `Call`-heavy workloads off the allocator (the
//! seed interpreter cloned every executed instruction, `args` vectors
//! included).
//!
//! Every collector-visible action is emitted through a single seam,
//! `Exec::dispatch`, as a typed [`GcEvent`]: the event is offered to an
//! optional [`EventSink`] (the record side of `cg-trace`) and then routed to
//! the matching [`Collector`] hook.  The interpreter never calls a collector
//! hook directly.

use std::collections::HashMap;

use crate::collector::{CollectOutcome, Collector, FrameRoots, RootSet};
use crate::event::{AllocKind, EventSink, GcEvent};
use crate::frame::{Frame, FrameId, FrameInfo, ThreadId, ThreadState, ThreadStatus};
use crate::insn::{ArithOp, Insn, LocalIdx, Operand, OPCODE_NAMES};
use crate::program::{FuseReport, MethodId, Program, ProgramError, StaticId};
use cg_heap::{ClassId, Handle, Heap, HeapConfig, HeapError, HeapStats, Value};

/// Interpreter configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmConfig {
    /// Heap sizing.
    pub heap: HeapConfig,
    /// Instructions executed per thread before the scheduler rotates to the
    /// next runnable thread.
    pub thread_quantum: usize,
    /// If set, force a full collection every `n` executed instructions.  The
    /// resetting experiment (§4.7) runs the traditional collector every
    /// 100 000 instructions this way.
    pub gc_every_instructions: Option<u64>,
    /// Safety limit on total executed instructions.
    pub max_instructions: u64,
    /// Safety limit on per-thread stack depth.
    pub max_stack_depth: usize,
    /// Maximum number of threads (including main) the VM will run.  Defaults
    /// to the full 32-bit thread-id space; spawning past the limit raises
    /// [`VmError::TooManyThreads`].
    pub max_threads: usize,
    /// Whether to run the inline-cache pass ([`Program::fused`]) when the VM
    /// is built, giving every `Call` its own [`CallSite`] slot.  Defaults to
    /// on, unless the `CG_VM_FUSION` environment variable is
    /// `off`/`0`/`false` — CI uses that toggle to run the whole suite
    /// uncached.  The pass is observationally invisible: the emitted event
    /// stream and final statistics are byte-identical either way.
    pub fusion: bool,
}

/// The process-wide default for [`VmConfig::fusion`], read once from the
/// `CG_VM_FUSION` environment variable.
fn fusion_default() -> bool {
    static FUSION: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FUSION.get_or_init(|| {
        !matches!(
            std::env::var("CG_VM_FUSION").ok().as_deref(),
            Some("off") | Some("0") | Some("false")
        )
    })
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            heap: HeapConfig::default(),
            thread_quantum: 64,
            gc_every_instructions: None,
            max_instructions: 2_000_000_000,
            max_stack_depth: 4096,
            // The full 32-bit thread-id space, computed in u64 so the
            // default cannot overflow usize on 32-bit targets (where it
            // saturates to usize::MAX — unreachable anyway, since each
            // thread costs far more than one byte).
            max_threads: (u64::from(u32::MAX) + 1).min(usize::MAX as u64) as usize,
            fusion: fusion_default(),
        }
    }
}

impl VmConfig {
    /// A configuration with a small heap, suitable for tests.
    pub fn small() -> Self {
        Self {
            heap: HeapConfig::small(),
            ..Self::default()
        }
    }

    /// Replaces the heap configuration, builder style.
    pub fn with_heap(mut self, heap: HeapConfig) -> Self {
        self.heap = heap;
        self
    }

    /// Sets a periodic forced collection interval, builder style.
    pub fn with_gc_every(mut self, instructions: u64) -> Self {
        self.gc_every_instructions = Some(instructions);
        self
    }

    /// Enables or disables the inline-cache pass, builder style.
    pub fn with_fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }
}

/// Execution statistics accumulated by a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Total instructions executed.
    pub instructions: u64,
    /// Method invocations (including thread entry methods).
    pub method_calls: u64,
    /// Instances allocated by the program.
    pub objects_allocated: u64,
    /// Arrays allocated by the program.
    pub arrays_allocated: u64,
    /// Allocations satisfied from the collector's recycle list (§3.7).
    pub recycled_allocations: u64,
    /// Frames popped.
    pub frames_popped: u64,
    /// Threads spawned beyond the main thread.
    pub threads_spawned: u64,
    /// Deepest stack observed on any thread.
    pub max_stack_depth: usize,
    /// Full collections run (allocation failure or periodic trigger).
    pub gc_cycles: u64,
    /// Allocations that failed once and were retried after a collection.
    pub allocation_retries: u64,
    /// Objects freed by the collector (frame pops plus full collections).
    pub collector_freed_objects: u64,
    /// Bytes freed by the collector.
    pub collector_freed_bytes: u64,
    /// Objects marked by the collector's full collections.
    pub collector_marked_objects: u64,
}

/// One inline-cache slot: the last method resolved at a call site, plus its
/// frame shape so repeated calls skip both method-table lookups.
///
/// A site's target is re-checked on every dispatch, so a site whose cached
/// method no longer matches (possible when corpus text assigns one site id to
/// several call instructions) simply misses and re-resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Raw index of the cached callee, or `u32::MAX` when empty.
    pub cached_method: u32,
    /// The cached callee's `max_locals`, valid when `cached_method` is set.
    pub max_locals: u32,
    /// Dispatches that hit the cache.
    pub hits: u32,
    /// Dispatches that missed and re-resolved.
    pub misses: u32,
}

impl CallSite {
    const EMPTY: CallSite = CallSite {
        cached_method: u32::MAX,
        max_locals: 0,
        hits: 0,
        misses: 0,
    };
}

/// Where dispatch time goes: per-opcode dispatch counts and aggregate
/// inline-cache hit/miss totals.
///
/// Per-opcode counts are only collected when the crate is built with the
/// `profile` feature (they stay zero otherwise); cache hit/miss totals are
/// always collected because the counters live in the per-site slots anyway.
/// Kept separate from [`VmStats`] so the trace format (which embeds
/// `VmStats`) is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchProfile {
    /// Dispatch count per opcode, indexed like [`OPCODE_NAMES`].
    pub opcode_counts: [u64; OPCODE_NAMES.len()],
    /// Inline-cache hits summed over all call sites.
    pub call_site_hits: u64,
    /// Inline-cache misses summed over all call sites.
    pub call_site_misses: u64,
}

impl Default for DispatchProfile {
    fn default() -> Self {
        Self {
            opcode_counts: [0; OPCODE_NAMES.len()],
            call_site_hits: 0,
            call_site_misses: 0,
        }
    }
}

impl DispatchProfile {
    /// `(name, count)` rows for every opcode that was dispatched at least
    /// once, hottest first.
    pub fn hot_opcodes(&self) -> Vec<(&'static str, u64)> {
        let mut rows: Vec<(&'static str, u64)> = OPCODE_NAMES
            .iter()
            .zip(self.opcode_counts.iter())
            .filter(|(_, &count)| count > 0)
            .map(|(&name, &count)| (name, count))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }
}

/// The result of running a program to completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Interpreter statistics.
    pub stats: VmStats,
    /// Final heap statistics.
    pub heap: HeapStats,
    /// Objects still live when the program ended.
    pub live_at_exit: usize,
    /// Wall-clock seconds spent inside [`Vm::run`].
    pub elapsed_seconds: f64,
}

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// The program failed validation.
    Program(ProgramError),
    /// A heap operation failed unexpectedly (e.g. accessing a freed object —
    /// which would indicate a collector incorrectly freed a live object).
    Heap(HeapError),
    /// Allocation failed even after running the collector.
    OutOfMemory {
        /// Class being allocated when memory ran out.
        class: ClassId,
        /// Bytes requested.
        requested: usize,
    },
    /// A reference-typed operand was null.
    NullReference {
        /// Method executing.
        method: MethodId,
        /// Instruction index.
        pc: usize,
    },
    /// An operand had the wrong type for the instruction.
    TypeError {
        /// Method executing.
        method: MethodId,
        /// Instruction index.
        pc: usize,
        /// What was expected ("int", "reference", ...).
        expected: &'static str,
    },
    /// Integer division or remainder by zero.
    DivideByZero {
        /// Method executing.
        method: MethodId,
        /// Instruction index.
        pc: usize,
    },
    /// The configured instruction limit was exceeded.
    InstructionLimit(u64),
    /// The configured stack-depth limit was exceeded.
    StackOverflow(usize),
    /// Spawning another thread would exceed [`VmConfig::max_threads`] (by
    /// default the 32-bit thread-id space).
    TooManyThreads {
        /// The maximum number of threads the configuration allows.
        limit: u64,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Program(e) => write!(f, "invalid program: {e}"),
            VmError::Heap(e) => write!(f, "heap error: {e}"),
            VmError::OutOfMemory { class, requested } => {
                write!(
                    f,
                    "out of memory allocating {requested} bytes for class {class}"
                )
            }
            VmError::NullReference { method, pc } => {
                write!(f, "null reference at {method}:{pc}")
            }
            VmError::TypeError {
                method,
                pc,
                expected,
            } => {
                write!(f, "type error at {method}:{pc}: expected {expected}")
            }
            VmError::DivideByZero { method, pc } => write!(f, "division by zero at {method}:{pc}"),
            VmError::InstructionLimit(n) => write!(f, "instruction limit of {n} exceeded"),
            VmError::StackOverflow(n) => write!(f, "stack depth limit of {n} exceeded"),
            VmError::TooManyThreads { limit } => {
                write!(
                    f,
                    "cannot spawn another thread: thread-id space holds {limit} threads"
                )
            }
        }
    }
}

impl std::error::Error for VmError {}

impl From<HeapError> for VmError {
    fn from(e: HeapError) -> Self {
        VmError::Heap(e)
    }
}

impl From<ProgramError> for VmError {
    fn from(e: ProgramError) -> Self {
        VmError::Program(e)
    }
}

/// Evaluates a binary arithmetic op; `None` signals division by zero.
fn arith_eval(op: ArithOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        ArithOp::Add => a.wrapping_add(b),
        ArithOp::Sub => a.wrapping_sub(b),
        ArithOp::Mul => a.wrapping_mul(b),
        ArithOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        ArithOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        ArithOp::Xor => a ^ b,
    })
}

/// What [`Exec::allocate`] is being asked for.
#[derive(Debug, Clone, Copy)]
enum AllocRequest {
    Instance { class: ClassId, field_count: usize },
    Array { class: ClassId, length: usize },
}

impl AllocRequest {
    fn class(self) -> ClassId {
        match self {
            AllocRequest::Instance { class, .. } | AllocRequest::Array { class, .. } => class,
        }
    }

    fn kind(self) -> AllocKind {
        match self {
            AllocRequest::Instance { field_count, .. } => AllocKind::Instance { field_count },
            AllocRequest::Array { length, .. } => AllocKind::Array { length },
        }
    }
}

/// All mutable execution state: heap, collector, threads, statics and
/// statistics.
///
/// Keeping this separate from the [`Program`] is what lets [`Vm::step`]
/// borrow the current method's code (a `&[Insn]` into the program) while
/// freely mutating execution state — the borrow checker sees disjoint
/// fields, so instructions never need to be cloned out of the program.
#[derive(Debug)]
struct Exec<C: Collector> {
    config: VmConfig,
    heap: Heap,
    collector: C,
    statics: Vec<Value>,
    intern_table: HashMap<u32, Handle>,
    native_refs: Vec<Handle>,
    threads: Vec<ThreadState>,
    next_frame_id: u64,
    stats: VmStats,
    sink: Option<Box<dyn EventSink>>,
    /// Inline-cache slots, indexed by the `site` field of cached calls.
    call_sites: Vec<CallSite>,
    /// Retired frames' locals vectors, reused by the cached-call fast path.
    locals_pool: Vec<Vec<Value>>,
    /// Dispatch counters (populated only under the `profile` feature).
    profile: DispatchProfile,
}

/// How many retired locals vectors [`Exec::locals_pool`] keeps around.
const LOCALS_POOL_CAP: usize = 64;

impl<C: Collector> Exec<C> {
    /// The single VM→collector seam: offer the event to the attached sink
    /// (if any), then route it to the matching collector hook.
    fn dispatch(&mut self, event: GcEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&event);
        }
        match event {
            GcEvent::Allocate { handle, frame, .. } => {
                self.collector.on_allocate(handle, &frame, &self.heap);
            }
            // Heap-mirroring only; the store itself already happened.
            GcEvent::SlotWrite { .. } => {}
            GcEvent::ObjectAccess { handle, thread } => {
                self.collector.on_object_access(handle, thread, &self.heap);
            }
            GcEvent::ReferenceStore {
                source,
                target,
                frame,
            } => {
                self.collector
                    .on_reference_store(source, target, &frame, &self.heap);
            }
            GcEvent::StaticStore { target } => {
                self.collector.on_static_store(target, &self.heap);
            }
            GcEvent::ReturnValue {
                value,
                caller,
                callee,
            } => {
                self.collector.on_return_value(value, &caller, &callee);
            }
            GcEvent::FramePush { frame } => {
                self.collector.on_frame_push(&frame);
            }
            GcEvent::FramePop { frame } => {
                let outcome = self.collector.on_frame_pop(&frame, &mut self.heap);
                self.accumulate(outcome);
            }
            GcEvent::Collect { roots } => {
                let outcome = self.collector.collect(&roots, &mut self.heap);
                self.stats.gc_cycles += 1;
                self.accumulate(outcome);
            }
            GcEvent::ProgramEnd { roots } => {
                self.collector.on_program_end(&roots, &mut self.heap);
            }
        }
    }

    fn accumulate(&mut self, outcome: CollectOutcome) {
        self.stats.collector_freed_objects += outcome.freed_objects;
        self.stats.collector_freed_bytes += outcome.freed_bytes;
        self.stats.collector_marked_objects += outcome.marked_objects;
    }

    fn build_roots(&self) -> RootSet {
        let mut frames = Vec::new();
        for thread in &self.threads {
            for frame in &thread.stack {
                frames.push(FrameRoots {
                    frame: frame.info,
                    refs: frame.local_references(),
                });
            }
        }
        let statics = self.statics.iter().filter_map(Value::as_handle).collect();
        // Snapshot the intern table in key order: HashMap iteration order
        // varies per process, and the root snapshot is recorded into traces
        // whose golden-corpus gate demands byte-identical re-recordings.
        let mut interned: Vec<(u32, Handle)> = self
            .intern_table
            .iter()
            .map(|(&key, &handle)| (key, handle))
            .collect();
        interned.sort_unstable_by_key(|&(key, _)| key);
        let mut interpreter: Vec<Handle> = interned.into_iter().map(|(_, h)| h).collect();
        interpreter.extend(self.native_refs.iter().copied());
        RootSet {
            frames,
            statics,
            interpreter,
        }
    }

    fn run_collection(&mut self) {
        let roots = Box::new(self.build_roots());
        self.dispatch(GcEvent::Collect { roots });
    }

    fn local(&self, thread_idx: usize, idx: LocalIdx) -> Value {
        self.threads[thread_idx]
            .current_frame()
            .expect("thread has a frame")
            .locals[idx as usize]
    }

    fn set_local(&mut self, thread_idx: usize, idx: LocalIdx, value: Value) {
        self.threads[thread_idx]
            .current_frame_mut()
            .expect("thread has a frame")
            .locals[idx as usize] = value;
    }

    fn operand_index(
        &self,
        thread_idx: usize,
        op: Operand,
        info: FrameInfo,
        pc: usize,
        expected: &'static str,
    ) -> Result<usize, VmError> {
        let value = match op {
            Operand::Imm(i) => i,
            Operand::Local(l) => self
                .local(thread_idx, l)
                .as_int()
                .ok_or(VmError::TypeError {
                    method: info.method,
                    pc,
                    expected: "int",
                })?,
        };
        usize::try_from(value).map_err(|_| VmError::TypeError {
            method: info.method,
            pc,
            expected,
        })
    }

    fn local_handle(
        &self,
        thread_idx: usize,
        idx: LocalIdx,
        info: FrameInfo,
        pc: usize,
    ) -> Result<Handle, VmError> {
        match self.local(thread_idx, idx) {
            Value::Ref(Some(h)) => Ok(h),
            Value::Ref(None) => Err(VmError::NullReference {
                method: info.method,
                pc,
            }),
            _ => Err(VmError::TypeError {
                method: info.method,
                pc,
                expected: "reference",
            }),
        }
    }

    fn push_frame(
        &mut self,
        program: &Program,
        thread_idx: usize,
        method: MethodId,
        args: &[Value],
        return_dst: Option<LocalIdx>,
    ) -> Result<(), VmError> {
        let def = program
            .method(method)
            .expect("method ids are validated before execution");
        let depth = self.threads[thread_idx].depth() + 1;
        if depth > self.config.max_stack_depth {
            return Err(VmError::StackOverflow(self.config.max_stack_depth));
        }
        let info = FrameInfo {
            id: FrameId::new(self.next_frame_id),
            depth,
            thread: self.threads[thread_idx].id,
            method,
        };
        self.next_frame_id += 1;
        let frame = Frame::new(info, def.max_locals(), args, return_dst);
        self.threads[thread_idx].stack.push(frame);
        self.dispatch(GcEvent::FramePush { frame: info });
        self.stats.method_calls += 1;
        self.stats.max_stack_depth = self.stats.max_stack_depth.max(depth);
        Ok(())
    }

    /// The cached-call counterpart of [`Exec::push_frame`]: resolves the
    /// callee's frame shape through the inline cache and builds the callee
    /// frame from a pooled locals vector, copying arguments straight out of
    /// the caller's frame — no argument vector, no fresh allocation, and at
    /// most one method-table lookup (none on a cache hit).
    ///
    /// Emits exactly the events and statistics `push_frame` would.
    fn push_frame_cached(
        &mut self,
        program: &Program,
        thread_idx: usize,
        method: MethodId,
        args: &[LocalIdx],
        return_dst: Option<LocalIdx>,
        site: u32,
    ) -> Result<(), VmError> {
        let slot = &mut self.call_sites[site as usize];
        let max_locals = if slot.cached_method == method.index() as u32 {
            slot.hits += 1;
            slot.max_locals as usize
        } else {
            let def = program
                .method(method)
                .expect("method ids are validated before execution");
            slot.misses += 1;
            // A hand-crafted method whose max_locals exceeds u32 simply
            // stays uncached rather than storing a truncated shape.
            if let Ok(max_locals) = u32::try_from(def.max_locals()) {
                slot.cached_method = method.index() as u32;
                slot.max_locals = max_locals;
            }
            def.max_locals()
        };
        let depth = self.threads[thread_idx].depth() + 1;
        if depth > self.config.max_stack_depth {
            return Err(VmError::StackOverflow(self.config.max_stack_depth));
        }
        let info = FrameInfo {
            id: FrameId::new(self.next_frame_id),
            depth,
            thread: self.threads[thread_idx].id,
            method,
        };
        self.next_frame_id += 1;
        let mut locals = self.locals_pool.pop().unwrap_or_default();
        locals.clear();
        locals.resize(max_locals, Value::NULL);
        {
            let caller = self.threads[thread_idx]
                .current_frame()
                .expect("calling thread has a frame");
            for (i, &arg) in args.iter().enumerate() {
                locals[i] = caller.locals[arg as usize];
            }
        }
        self.threads[thread_idx]
            .stack
            .push(Frame::with_locals(info, locals, return_dst));
        self.dispatch(GcEvent::FramePush { frame: info });
        self.stats.method_calls += 1;
        self.stats.max_stack_depth = self.stats.max_stack_depth.max(depth);
        Ok(())
    }

    /// Allocates an instance or array: the collector's recycle list is
    /// offered first (instances only, §3.7), then the heap, then — after a
    /// full collection — the heap once more.  This is the single place the
    /// collection-retry policy lives.
    fn allocate(&mut self, request: AllocRequest, info: FrameInfo) -> Result<Handle, VmError> {
        if let AllocRequest::Instance { class, field_count } = request {
            if let Some(handle) =
                self.collector
                    .try_recycled_alloc(class, field_count, &info, &mut self.heap)
            {
                self.stats.recycled_allocations += 1;
                self.stats.objects_allocated += 1;
                self.dispatch(GcEvent::Allocate {
                    handle,
                    class: request.class(),
                    kind: request.kind(),
                    frame: info,
                    recycled: true,
                });
                return Ok(handle);
            }
        }
        let handle = match self.heap_alloc(request) {
            Ok(handle) => handle,
            Err(HeapError::OutOfObjectSpace { requested, .. })
            | Err(HeapError::OutOfHandleSpace {
                capacity: requested,
            }) => {
                self.stats.allocation_retries += 1;
                self.run_collection();
                self.heap_alloc(request).map_err(|_| VmError::OutOfMemory {
                    class: request.class(),
                    requested,
                })?
            }
            Err(e) => return Err(e.into()),
        };
        self.dispatch(GcEvent::Allocate {
            handle,
            class: request.class(),
            kind: request.kind(),
            frame: info,
            recycled: false,
        });
        Ok(handle)
    }

    /// One attempt at a fresh heap allocation, with stats accounting.
    /// Dispatching the `Allocate` event (and thereby `on_allocate`) is the
    /// caller's responsibility — [`Exec::allocate`] is the only caller and
    /// emits it once per successful allocation, retried or not.
    fn heap_alloc(&mut self, request: AllocRequest) -> Result<Handle, HeapError> {
        let handle = match request {
            AllocRequest::Instance { class, field_count } => {
                let handle = self.heap.allocate(class, field_count)?;
                self.stats.objects_allocated += 1;
                handle
            }
            AllocRequest::Array { class, length } => {
                let handle = self.heap.allocate_array(class, length)?;
                self.stats.arrays_allocated += 1;
                handle
            }
        };
        Ok(handle)
    }

    fn write_static(&mut self, static_id: StaticId, value: Value, thread_id: ThreadId) {
        self.statics[static_id.index()] = value;
        if let Some(target) = value.as_handle() {
            self.dispatch(GcEvent::ObjectAccess {
                handle: target,
                thread: thread_id,
            });
            self.dispatch(GcEvent::StaticStore { target });
        }
    }

    fn return_from_frame(
        &mut self,
        thread_idx: usize,
        value: Option<LocalIdx>,
    ) -> Result<(), VmError> {
        let callee = self.threads[thread_idx]
            .stack
            .pop()
            .expect("returning thread has a frame");
        self.stats.frames_popped += 1;

        let return_value = value
            .map(|l| callee.locals[l as usize])
            .unwrap_or(Value::NULL);
        let caller_info = self.threads[thread_idx].current_frame().map(|f| f.info);

        // The areturn event: tell the collector the value now belongs to the
        // caller *before* the callee's dependent objects are collected.
        if let (Some(handle), Some(caller)) = (return_value.as_handle(), caller_info) {
            self.dispatch(GcEvent::ReturnValue {
                value: handle,
                caller,
                callee: callee.info,
            });
        }

        // Deliver the return value.
        if let (Some(dst), Some(frame)) = (
            callee.return_dst,
            self.threads[thread_idx].current_frame_mut(),
        ) {
            frame.locals[dst as usize] = return_value;
        }

        // Now the frame is gone: let the collector reclaim its dependents.
        self.dispatch(GcEvent::FramePop { frame: callee.info });

        // Recycle the callee's locals vector into the pool the cached-call
        // path allocates frames from.  Invisible to the collector.
        if self.locals_pool.len() < LOCALS_POOL_CAP {
            let mut locals = callee.locals;
            locals.clear();
            self.locals_pool.push(locals);
        }

        if self.threads[thread_idx].stack.is_empty() {
            self.threads[thread_idx].status = ThreadStatus::Finished;
        }
        Ok(())
    }
}

/// The virtual machine: a program, a heap, threads and a collector.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Vm<C: Collector> {
    program: Program,
    ex: Exec<C>,
    fuse_report: FuseReport,
}

impl<C: Collector> Vm<C> {
    /// Creates a virtual machine for `program` using the given collector.
    ///
    /// When [`VmConfig::fusion`] is on, every `Call` is given an inline-cache
    /// site through [`Program::fused`] first; execution semantics and the
    /// emitted event stream are identical either way.
    pub fn new(program: Program, config: VmConfig, collector: C) -> Self {
        let (program, fuse_report) = if config.fusion {
            program.fused()
        } else {
            // Even unfused, the program may carry cached calls (e.g. parsed
            // from corpus text); size the cache table to cover them.
            let call_sites = program.max_call_site().map_or(0, |s| s + 1);
            (
                program,
                FuseReport {
                    call_sites,
                    ..FuseReport::default()
                },
            )
        };
        let statics = vec![Value::NULL; program.static_count()];
        Self {
            program,
            ex: Exec {
                config,
                heap: Heap::new(config.heap),
                collector,
                statics,
                intern_table: HashMap::new(),
                native_refs: Vec::new(),
                threads: Vec::new(),
                // Frame id 0 is reserved for the static pseudo-frame.
                next_frame_id: 1,
                stats: VmStats::default(),
                sink: None,
                call_sites: vec![CallSite::EMPTY; fuse_report.call_sites as usize],
                locals_pool: Vec::new(),
                profile: DispatchProfile::default(),
            },
            fuse_report,
        }
    }

    /// What the inline-cache pass rewrote when this VM was built.  With
    /// fusion off `calls_cached` is zero, but `call_sites` still covers any
    /// `CallCached` the program arrived with (e.g. parsed from corpus text).
    pub fn fuse_report(&self) -> FuseReport {
        self.fuse_report
    }

    /// Dispatch counters: per-opcode counts (only populated when built with
    /// the `profile` feature) plus inline-cache hit/miss totals (always
    /// populated).
    pub fn dispatch_profile(&self) -> DispatchProfile {
        let mut profile = self.ex.profile;
        for site in &self.ex.call_sites {
            profile.call_site_hits += u64::from(site.hits);
            profile.call_site_misses += u64::from(site.misses);
        }
        profile
    }

    /// The per-site inline-cache slots (for tests and diagnostics).
    pub fn call_sites(&self) -> &[CallSite] {
        &self.ex.call_sites
    }

    /// The collector installed in this VM.
    pub fn collector(&self) -> &C {
        &self.ex.collector
    }

    /// Mutable access to the collector (for post-run statistics extraction).
    pub fn collector_mut(&mut self) -> &mut C {
        &mut self.ex.collector
    }

    /// Consumes the VM, returning the collector.
    pub fn into_collector(self) -> C {
        self.ex.collector
    }

    /// The heap.
    pub fn heap(&self) -> &Heap {
        &self.ex.heap
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &VmStats {
        &self.ex.stats
    }

    /// Attaches an [`EventSink`] that observes every [`GcEvent`] before the
    /// corresponding collector hook runs (used by `cg-trace` to record runs).
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.ex.sink = Some(sink);
    }

    /// Detaches and returns the current event sink, if one was attached.
    pub fn take_event_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.ex.sink.take()
    }

    /// Runs the program's entry method to completion on the main thread,
    /// interleaving any spawned threads round-robin.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the program is malformed, memory is exhausted
    /// even after collection, an instruction misbehaves (null dereference,
    /// type error, division by zero) or a configured execution limit is hit.
    pub fn run(&mut self) -> Result<RunOutcome, VmError> {
        self.program.validate()?;
        let entry = self.program.entry().expect("validate checked the entry");
        let start = std::time::Instant::now();

        self.ex.threads.push(ThreadState::new(ThreadId::MAIN));
        self.ex.push_frame(&self.program, 0, entry, &[], None)?;

        let mut current = 0usize;
        loop {
            if self
                .ex
                .threads
                .iter()
                .all(|t| t.status == ThreadStatus::Finished)
            {
                break;
            }
            if self.ex.threads[current].status != ThreadStatus::Runnable {
                current = (current + 1) % self.ex.threads.len();
                continue;
            }
            self.run_quantum(current)?;
            current = (current + 1) % self.ex.threads.len();
        }

        let roots = Box::new(self.ex.build_roots());
        self.ex.dispatch(GcEvent::ProgramEnd { roots });

        Ok(RunOutcome {
            stats: self.ex.stats,
            heap: *self.ex.heap.stats(),
            live_at_exit: self.ex.heap.live_count(),
            elapsed_seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Builds the current root set: every thread frame's reference locals,
    /// statics, the intern table and native static references.
    pub fn build_roots(&self) -> RootSet {
        self.ex.build_roots()
    }

    /// Runs up to `thread_quantum` instructions on one thread.
    ///
    /// [`Vm::fast_loop`] executes the collector-invisible instructions
    /// (constants, moves, arithmetic, jumps, branches) against cached frame
    /// and bytecode borrows; anything that touches the heap, the collector
    /// or the frame stack goes to [`Vm::step_slow`], one instruction at a
    /// time.  Both retire every instruction through [`retire`].
    fn run_quantum(&mut self, thread_idx: usize) -> Result<(), VmError> {
        let mut budget = self.ex.config.thread_quantum;
        while budget > 0 && self.ex.threads[thread_idx].status == ThreadStatus::Runnable {
            let boundary = match self.fast_loop(thread_idx, &mut budget)? {
                None => {
                    self.step_slow(thread_idx)?;
                    retire(&mut self.ex.stats, &self.ex.config, &mut budget)?
                }
                boundary => boundary,
            };
            if boundary == Some(Boundary::GcDue) {
                self.ex.run_collection();
            }
        }
        Ok(())
    }

    /// Executes consecutive collector-invisible instructions without
    /// re-borrowing the frame or the bytecode between dispatches (the som-rs
    /// `current_bytecodes` pattern).  Returns the boundary it stopped at, or
    /// `None` when the instruction at the written-back pc needs
    /// [`Vm::step_slow`].
    fn fast_loop(
        &mut self,
        thread_idx: usize,
        budget: &mut usize,
    ) -> Result<Option<Boundary>, VmError> {
        let Exec {
            threads,
            stats,
            config,
            profile,
            ..
        } = &mut self.ex;
        let frame = threads[thread_idx]
            .stack
            .last_mut()
            .expect("runnable thread has a frame");
        let method = frame.info.method;
        let code = self
            .program
            .method(method)
            .expect("validated method")
            .code();
        let mut pc = frame.pc;

        macro_rules! op_int {
            ($op:expr) => {
                match $op {
                    Operand::Imm(i) => *i,
                    Operand::Local(l) => match frame.locals[*l as usize].as_int() {
                        Some(v) => v,
                        None => {
                            return Err(VmError::TypeError {
                                method,
                                pc,
                                expected: "int",
                            })
                        }
                    },
                }
            };
        }

        let exit = loop {
            // Falling off the end of the method is a return: slow path.
            let Some(insn) = code.get(pc) else {
                break None;
            };
            // Every executed instruction is fetched here exactly once, slow
            // ones included.
            if cfg!(feature = "profile") {
                profile.opcode_counts[insn.opcode_index()] += 1;
            }
            pc = match insn {
                Insn::Nop => pc + 1,
                Insn::Const { dst, value } => {
                    frame.locals[*dst as usize] = Value::Int(*value);
                    pc + 1
                }
                Insn::LoadNull { dst } => {
                    frame.locals[*dst as usize] = Value::NULL;
                    pc + 1
                }
                Insn::Move { dst, src } => {
                    frame.locals[*dst as usize] = frame.locals[*src as usize];
                    pc + 1
                }
                Insn::Arith { op, dst, a, b } => {
                    let a = op_int!(a);
                    let b = op_int!(b);
                    match arith_eval(*op, a, b) {
                        Some(result) => frame.locals[*dst as usize] = Value::Int(result),
                        None => return Err(VmError::DivideByZero { method, pc }),
                    }
                    pc + 1
                }
                Insn::Jump { target } => *target,
                Insn::Branch { cond, a, b, target } => {
                    let a = op_int!(a);
                    let b = op_int!(b);
                    if cond.eval(a, b) {
                        *target
                    } else {
                        pc + 1
                    }
                }
                _ => break None,
            };
            if let Some(boundary) = retire(stats, config, budget)? {
                break Some(boundary);
            }
        };
        frame.pc = pc;
        Ok(exit)
    }

    /// Executes the one instruction at the current pc that
    /// [`Vm::fast_loop`] left for it: allocation, field, array and static
    /// traffic, calls, returns and spawns.  The caller retires it.
    fn step_slow(&mut self, thread_idx: usize) -> Result<(), VmError> {
        // One frame lookup yields everything the dispatch needs; the frame's
        // identity, depth and method are cached in the frame itself.
        let (info, pc, thread_id) = {
            let thread = &mut self.ex.threads[thread_idx];
            let thread_id = thread.id;
            let frame = thread
                .current_frame_mut()
                .expect("runnable thread has a frame");
            let pc = frame.pc;
            // Resume after this instruction: calls and spawns push their
            // frame only after this write.
            frame.pc = pc + 1;
            (frame.info, pc, thread_id)
        };
        // `insn` borrows the program's code; execution below mutates only
        // `self.ex`, so nothing is cloned.
        let insn = self
            .program
            .method(info.method)
            .expect("validated method")
            .code()
            .get(pc);

        match insn {
            // Falling off the end of a method behaves like a bare return.
            None => self.ex.return_from_frame(thread_idx, None)?,
            Some(Insn::Return { value }) => self.ex.return_from_frame(thread_idx, *value)?,
            Some(Insn::New { class, dst }) => {
                let field_count = self
                    .program
                    .class(*class)
                    .expect("class ids are validated before execution")
                    .field_count();
                let request = AllocRequest::Instance {
                    class: *class,
                    field_count,
                };
                let handle = self.ex.allocate(request, info)?;
                self.ex.set_local(thread_idx, *dst, Value::from(handle));
            }
            Some(Insn::NewArray { class, length, dst }) => {
                let length = self.ex.operand_index(
                    thread_idx,
                    *length,
                    info,
                    pc,
                    "non-negative array length",
                )?;
                let request = AllocRequest::Array {
                    class: *class,
                    length,
                };
                let handle = self.ex.allocate(request, info)?;
                self.ex.set_local(thread_idx, *dst, Value::from(handle));
            }
            Some(Insn::PutField {
                object,
                field,
                value,
            }) => {
                let object = self.ex.local_handle(thread_idx, *object, info, pc)?;
                let value = self.ex.local(thread_idx, *value);
                self.ex.heap.set_field(object, *field, value)?;
                self.ex.dispatch(GcEvent::SlotWrite {
                    object,
                    slot: *field,
                    value: value.as_handle(),
                    element: false,
                });
                self.ex.dispatch(GcEvent::ObjectAccess {
                    handle: object,
                    thread: thread_id,
                });
                if let Some(target) = value.as_handle() {
                    self.ex.dispatch(GcEvent::ObjectAccess {
                        handle: target,
                        thread: thread_id,
                    });
                    self.ex.dispatch(GcEvent::ReferenceStore {
                        source: object,
                        target,
                        frame: info,
                    });
                }
            }
            Some(Insn::GetField { object, field, dst }) => {
                let object = self.ex.local_handle(thread_idx, *object, info, pc)?;
                let value = self.ex.heap.field(object, *field)?;
                self.ex.dispatch(GcEvent::ObjectAccess {
                    handle: object,
                    thread: thread_id,
                });
                if let Some(target) = value.as_handle() {
                    self.ex.dispatch(GcEvent::ObjectAccess {
                        handle: target,
                        thread: thread_id,
                    });
                }
                self.ex.set_local(thread_idx, *dst, value);
            }
            Some(Insn::ArrayStore {
                array,
                index,
                value,
            }) => {
                let array = self.ex.local_handle(thread_idx, *array, info, pc)?;
                let index = self.ex.operand_index(
                    thread_idx,
                    *index,
                    info,
                    pc,
                    "non-negative array index",
                )?;
                let value = self.ex.local(thread_idx, *value);
                self.ex.heap.set_element(array, index, value)?;
                self.ex.dispatch(GcEvent::SlotWrite {
                    object: array,
                    slot: index,
                    value: value.as_handle(),
                    element: true,
                });
                self.ex.dispatch(GcEvent::ObjectAccess {
                    handle: array,
                    thread: thread_id,
                });
                if let Some(target) = value.as_handle() {
                    self.ex.dispatch(GcEvent::ObjectAccess {
                        handle: target,
                        thread: thread_id,
                    });
                    self.ex.dispatch(GcEvent::ReferenceStore {
                        source: array,
                        target,
                        frame: info,
                    });
                }
            }
            Some(Insn::ArrayLoad { array, index, dst }) => {
                let array = self.ex.local_handle(thread_idx, *array, info, pc)?;
                let index = self.ex.operand_index(
                    thread_idx,
                    *index,
                    info,
                    pc,
                    "non-negative array index",
                )?;
                let value = self.ex.heap.element(array, index)?;
                self.ex.dispatch(GcEvent::ObjectAccess {
                    handle: array,
                    thread: thread_id,
                });
                if let Some(target) = value.as_handle() {
                    self.ex.dispatch(GcEvent::ObjectAccess {
                        handle: target,
                        thread: thread_id,
                    });
                }
                self.ex.set_local(thread_idx, *dst, value);
            }
            Some(Insn::PutStatic { static_id, value }) => {
                let value = self.ex.local(thread_idx, *value);
                self.ex.write_static(*static_id, value, thread_id);
            }
            Some(Insn::GetStatic { static_id, dst }) => {
                let value = self.ex.statics[static_id.index()];
                if let Some(target) = value.as_handle() {
                    self.ex.dispatch(GcEvent::ObjectAccess {
                        handle: target,
                        thread: thread_id,
                    });
                }
                self.ex.set_local(thread_idx, *dst, value);
            }
            Some(Insn::Intern { key, src, dst }) => {
                if let Some(&existing) = self.ex.intern_table.get(key) {
                    self.ex.dispatch(GcEvent::ObjectAccess {
                        handle: existing,
                        thread: thread_id,
                    });
                    self.ex.set_local(thread_idx, *dst, Value::from(existing));
                } else {
                    let handle = self.ex.local_handle(thread_idx, *src, info, pc)?;
                    self.ex.intern_table.insert(*key, handle);
                    // Interned objects are reachable from the interpreter's
                    // hash table for the rest of the program (§3.2).
                    self.ex.dispatch(GcEvent::StaticStore { target: handle });
                    self.ex.set_local(thread_idx, *dst, Value::from(handle));
                }
            }
            Some(Insn::NativeStaticRef { src }) => {
                let handle = self.ex.local_handle(thread_idx, *src, info, pc)?;
                self.ex.native_refs.push(handle);
                self.ex.dispatch(GcEvent::StaticStore { target: handle });
            }
            Some(Insn::Call { method, args, dst }) => {
                let arg_values: Vec<Value> =
                    args.iter().map(|&a| self.ex.local(thread_idx, a)).collect();
                self.ex
                    .push_frame(&self.program, thread_idx, *method, &arg_values, *dst)?;
            }
            Some(Insn::CallCached {
                method,
                args,
                dst,
                site,
            }) => {
                self.ex
                    .push_frame_cached(&self.program, thread_idx, *method, args, *dst, *site)?;
            }
            Some(Insn::SpawnThread { method, args }) => {
                let arg_values: Vec<Value> =
                    args.iter().map(|&a| self.ex.local(thread_idx, a)).collect();
                // Thread ids are 32-bit; the configured cap (defaulting to
                // the id space) turns exhaustion into an error instead of
                // silently wrapping onto an existing thread's identity.
                if self.ex.threads.len() >= self.ex.config.max_threads {
                    return Err(VmError::TooManyThreads {
                        limit: self.ex.config.max_threads as u64,
                    });
                }
                let new_id = u32::try_from(self.ex.threads.len())
                    .map(ThreadId::new)
                    .map_err(|_| VmError::TooManyThreads {
                        limit: u64::from(u32::MAX) + 1,
                    })?;
                self.ex.threads.push(ThreadState::new(new_id));
                let new_idx = self.ex.threads.len() - 1;
                self.ex.stats.threads_spawned += 1;
                // Handing an object to another thread makes it thread-shared
                // from the collector's point of view (§3.3).
                for value in &arg_values {
                    if let Some(handle) = value.as_handle() {
                        self.ex.dispatch(GcEvent::ObjectAccess {
                            handle,
                            thread: new_id,
                        });
                    }
                }
                self.ex
                    .push_frame(&self.program, new_idx, *method, &arg_values, None)?;
            }
            Some(
                fast @ (Insn::Nop
                | Insn::Const { .. }
                | Insn::LoadNull { .. }
                | Insn::Move { .. }
                | Insn::Arith { .. }
                | Insn::Jump { .. }
                | Insn::Branch { .. }),
            ) => unreachable!("{fast:?} runs in the fast loop"),
        }
        Ok(())
    }
}

/// A boundary [`retire`] reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Boundary {
    /// The periodic-GC cadence is due; the caller runs a collection.
    GcDue,
    /// The thread's quantum is spent.
    QuantumEnd,
}

/// Retires one executed instruction: counts it, spends one quantum slot,
/// then checks the instruction limit, the periodic-GC cadence and the
/// quantum.  The only place any of the four is accounted, for fast and slow
/// instructions alike.
#[inline(always)]
fn retire(
    stats: &mut VmStats,
    config: &VmConfig,
    budget: &mut usize,
) -> Result<Option<Boundary>, VmError> {
    stats.instructions += 1;
    *budget -= 1;
    if stats.instructions > config.max_instructions {
        return Err(VmError::InstructionLimit(config.max_instructions));
    }
    if config
        .gc_every_instructions
        .is_some_and(|every| stats.instructions.is_multiple_of(every))
    {
        return Ok(Some(Boundary::GcDue));
    }
    Ok((*budget == 0).then_some(Boundary::QuantumEnd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::NoopCollector;
    use crate::insn::Cond;
    use crate::program::{ClassDef, MethodDef};

    /// Builds a program with one class (`field_count` fields) and the given
    /// main code.
    fn program_with_main(field_count: usize, code: Vec<Insn>) -> (Program, ClassId) {
        let mut p = Program::named("test");
        let c = p.add_class(ClassDef::new("Obj", field_count));
        let m = p.add_method(MethodDef::new("main", 0, 8, code));
        p.set_entry(m);
        (p, c)
    }

    fn run_program(p: Program) -> (RunOutcome, Vm<NoopCollector>) {
        let mut vm = Vm::new(p, VmConfig::small(), NoopCollector::new());
        let outcome = vm.run().expect("program runs");
        (outcome, vm)
    }

    #[test]
    fn allocation_and_field_store() {
        let (p, c) = program_with_main(
            2,
            vec![
                Insn::New {
                    class: c_placeholder(),
                    dst: 0,
                },
                Insn::New {
                    class: c_placeholder(),
                    dst: 1,
                },
                Insn::PutField {
                    object: 0,
                    field: 0,
                    value: 1,
                },
                Insn::GetField {
                    object: 0,
                    field: 0,
                    dst: 2,
                },
                Insn::Return { value: None },
            ],
        );
        // Fix up the class id placeholders.
        let (p, _c) = fixup(p, c);
        let (outcome, vm) = run_program(p);
        assert_eq!(outcome.stats.objects_allocated, 2);
        assert_eq!(outcome.stats.instructions, 5);
        assert_eq!(outcome.live_at_exit, 2);
        assert_eq!(vm.collector().allocations(), 2);
    }

    /// The class id of the first class added by `program_with_main`.
    fn c_placeholder() -> ClassId {
        ClassId::new(0)
    }

    /// No-op: class ids in these tests are always `ClassId::new(0)` already.
    fn fixup(p: Program, c: ClassId) -> (Program, ClassId) {
        (p, c)
    }

    #[test]
    fn arithmetic_loop_computes() {
        // Sum 1..=10 into local 1.
        let code = vec![
            Insn::Const { dst: 0, value: 1 }, // i = 1
            Insn::Const { dst: 1, value: 0 }, // sum = 0
            Insn::Branch {
                cond: Cond::Gt,
                a: Operand::Local(0),
                b: Operand::Imm(10),
                target: 6,
            },
            Insn::Arith {
                op: ArithOp::Add,
                dst: 1,
                a: Operand::Local(1),
                b: Operand::Local(0),
            },
            Insn::Arith {
                op: ArithOp::Add,
                dst: 0,
                a: Operand::Local(0),
                b: Operand::Imm(1),
            },
            Insn::Jump { target: 2 },
            Insn::Return { value: Some(1) },
        ];
        let mut p = Program::new();
        let m = p.add_method(MethodDef::new("main", 0, 2, code));
        p.set_entry(m);
        let (outcome, _) = run_program(p);
        assert!(outcome.stats.instructions > 30);
    }

    #[test]
    fn call_and_return_value_flow() {
        // callee(a) allocates an object, stores a into its field, returns it.
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Box", 1));
        let callee = p.add_method(MethodDef::new(
            "box",
            1,
            2,
            vec![
                Insn::New { class: c, dst: 1 },
                Insn::PutField {
                    object: 1,
                    field: 0,
                    value: 0,
                },
                Insn::Return { value: Some(1) },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            3,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::Call {
                    method: callee,
                    args: vec![0],
                    dst: Some(1),
                },
                Insn::GetField {
                    object: 1,
                    field: 0,
                    dst: 2,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let (outcome, vm) = run_program(p);
        assert_eq!(outcome.stats.method_calls, 2);
        assert_eq!(outcome.stats.frames_popped, 2);
        assert_eq!(outcome.stats.objects_allocated, 2);
        assert_eq!(outcome.stats.max_stack_depth, 2);
        assert_eq!(vm.heap().live_count(), 2);
    }

    #[test]
    fn statics_and_intern() {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Str", 1));
        let s = p.add_static();
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            4,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::PutStatic {
                    static_id: s,
                    value: 0,
                },
                Insn::GetStatic {
                    static_id: s,
                    dst: 1,
                },
                // Interning the same key twice returns the first object.
                Insn::New { class: c, dst: 2 },
                Insn::Intern {
                    key: 7,
                    src: 2,
                    dst: 3,
                },
                Insn::New { class: c, dst: 2 },
                Insn::Intern {
                    key: 7,
                    src: 2,
                    dst: 2,
                },
                Insn::NativeStaticRef { src: 0 },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let (outcome, vm) = run_program(p);
        assert_eq!(outcome.stats.objects_allocated, 3);
        let roots = vm.build_roots();
        // One static root plus intern-table and native-ref roots.
        assert_eq!(roots.statics.len(), 1);
        assert_eq!(roots.interpreter.len(), 2);
    }

    #[test]
    fn arrays_store_and_load() {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Obj", 0));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            4,
            vec![
                Insn::NewArray {
                    class: c,
                    length: Operand::Imm(4),
                    dst: 0,
                },
                Insn::New { class: c, dst: 1 },
                Insn::ArrayStore {
                    array: 0,
                    index: Operand::Imm(2),
                    value: 1,
                },
                Insn::ArrayLoad {
                    array: 0,
                    index: Operand::Imm(2),
                    dst: 2,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let (outcome, vm) = run_program(p);
        assert_eq!(outcome.stats.arrays_allocated, 1);
        assert_eq!(outcome.stats.objects_allocated, 1);
        assert_eq!(vm.heap().live_count(), 2);
    }

    #[test]
    fn spawned_threads_run_to_completion() {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Obj", 1));
        // Worker: allocate a few objects, touch the shared argument.
        let worker = p.add_method(MethodDef::new(
            "worker",
            1,
            3,
            vec![
                Insn::New { class: c, dst: 1 },
                Insn::PutField {
                    object: 0,
                    field: 0,
                    value: 1,
                },
                Insn::New { class: c, dst: 2 },
                Insn::Return { value: None },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            2,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::SpawnThread {
                    method: worker,
                    args: vec![0],
                },
                Insn::SpawnThread {
                    method: worker,
                    args: vec![0],
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let (outcome, vm) = run_program(p);
        assert_eq!(outcome.stats.threads_spawned, 2);
        assert_eq!(outcome.stats.objects_allocated, 1 + 2 * 2);
        // All threads finished.
        assert!(vm
            .ex
            .threads
            .iter()
            .all(|t| t.status == ThreadStatus::Finished));
    }

    #[test]
    fn null_dereference_is_an_error() {
        let (p, _c) = program_with_main(
            1,
            vec![
                Insn::LoadNull { dst: 0 },
                Insn::PutField {
                    object: 0,
                    field: 0,
                    value: 0,
                },
                Insn::Return { value: None },
            ],
        );
        let mut vm = Vm::new(p, VmConfig::small(), NoopCollector::new());
        assert!(matches!(vm.run(), Err(VmError::NullReference { .. })));
    }

    #[test]
    fn type_error_on_non_reference() {
        let (p, _c) = program_with_main(
            1,
            vec![
                Insn::Const { dst: 0, value: 3 },
                Insn::GetField {
                    object: 0,
                    field: 0,
                    dst: 1,
                },
                Insn::Return { value: None },
            ],
        );
        let mut vm = Vm::new(p, VmConfig::small(), NoopCollector::new());
        assert!(matches!(vm.run(), Err(VmError::TypeError { .. })));
    }

    #[test]
    fn divide_by_zero_is_an_error() {
        let (p, _c) = program_with_main(
            0,
            vec![
                Insn::Arith {
                    op: ArithOp::Div,
                    dst: 0,
                    a: Operand::Imm(1),
                    b: Operand::Imm(0),
                },
                Insn::Return { value: None },
            ],
        );
        let mut vm = Vm::new(p, VmConfig::small(), NoopCollector::new());
        assert!(matches!(vm.run(), Err(VmError::DivideByZero { .. })));
    }

    #[test]
    fn out_of_memory_without_collector_is_reported() {
        // 1 KiB object space, 8-byte objects, no collector: about 128 fit.
        let mut config = VmConfig::small();
        config.heap = HeapConfig::tight(1024);
        config.heap.handle_space_bytes = 1 << 20;
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Obj", 0));
        let s = p.add_static();
        // Allocate 200 objects, each stored into the static so they stay
        // reachable; without a working collector this must exhaust memory.
        let code = vec![
            Insn::Const { dst: 1, value: 0 },
            Insn::Branch {
                cond: Cond::Ge,
                a: Operand::Local(1),
                b: Operand::Imm(200),
                target: 6,
            },
            Insn::New { class: c, dst: 0 },
            Insn::PutStatic {
                static_id: s,
                value: 0,
            },
            Insn::Arith {
                op: ArithOp::Add,
                dst: 1,
                a: Operand::Local(1),
                b: Operand::Imm(1),
            },
            Insn::Jump { target: 1 },
            Insn::Return { value: None },
        ];
        let m = p.add_method(MethodDef::new("main", 0, 2, code));
        p.set_entry(m);
        let mut vm = Vm::new(p, config, NoopCollector::new());
        let err = vm.run().unwrap_err();
        assert!(matches!(err, VmError::OutOfMemory { .. }));
        assert!(vm.stats().allocation_retries >= 1);
        assert!(vm.stats().gc_cycles >= 1);
    }

    #[test]
    fn instruction_limit_is_enforced() {
        let (p, _c) = program_with_main(0, vec![Insn::Jump { target: 0 }]);
        let mut config = VmConfig::small();
        config.max_instructions = 1000;
        let mut vm = Vm::new(p, config, NoopCollector::new());
        assert_eq!(vm.run(), Err(VmError::InstructionLimit(1000)));
    }

    #[test]
    fn stack_overflow_is_enforced() {
        let mut p = Program::new();
        // Infinite recursion.
        let m = MethodId::new(0);
        p.add_method(MethodDef::new(
            "recurse",
            0,
            1,
            vec![
                Insn::Call {
                    method: m,
                    args: vec![],
                    dst: None,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(m);
        let mut config = VmConfig::small();
        config.max_stack_depth = 64;
        let mut vm = Vm::new(p, config, NoopCollector::new());
        assert_eq!(vm.run(), Err(VmError::StackOverflow(64)));
    }

    #[test]
    fn too_many_threads_is_an_error() {
        // Main plus one worker fills a 2-thread cap; the second spawn fails.
        let mut p = Program::new();
        let worker = p.add_method(MethodDef::new(
            "worker",
            0,
            1,
            vec![Insn::Return { value: None }],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![
                Insn::SpawnThread {
                    method: worker,
                    args: vec![],
                },
                Insn::SpawnThread {
                    method: worker,
                    args: vec![],
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let mut config = VmConfig::small();
        config.max_threads = 2;
        let mut vm = Vm::new(p, config, NoopCollector::new());
        assert_eq!(vm.run(), Err(VmError::TooManyThreads { limit: 2 }));
        // One spawn succeeded before the limit hit.
        assert_eq!(vm.stats().threads_spawned, 1);
    }

    #[test]
    fn thread_cap_at_default_allows_many_threads() {
        // The default cap is the 32-bit id space: a workload-scale spawn
        // count is far below it.
        let mut p = Program::new();
        let worker = p.add_method(MethodDef::new(
            "worker",
            0,
            1,
            vec![Insn::Return { value: None }],
        ));
        let mut code = Vec::new();
        for _ in 0..16 {
            code.push(Insn::SpawnThread {
                method: worker,
                args: vec![],
            });
        }
        code.push(Insn::Return { value: None });
        let main = p.add_method(MethodDef::new("main", 0, 1, code));
        p.set_entry(main);
        let mut vm = Vm::new(p, VmConfig::small(), NoopCollector::new());
        vm.run().expect("spawning 16 threads is fine");
        assert_eq!(vm.stats().threads_spawned, 16);
    }

    #[test]
    fn periodic_gc_is_triggered() {
        /// A collector that counts full collections.
        #[derive(Default)]
        struct CountingCollector {
            collections: u64,
        }
        impl Collector for CountingCollector {
            fn name(&self) -> &str {
                "counting"
            }
            fn collect(&mut self, _roots: &RootSet, _heap: &mut Heap) -> CollectOutcome {
                self.collections += 1;
                CollectOutcome::default()
            }
        }

        let (p, _c) = program_with_main(
            0,
            vec![
                Insn::Const { dst: 0, value: 0 },
                Insn::Branch {
                    cond: Cond::Ge,
                    a: Operand::Local(0),
                    b: Operand::Imm(500),
                    target: 4,
                },
                Insn::Arith {
                    op: ArithOp::Add,
                    dst: 0,
                    a: Operand::Local(0),
                    b: Operand::Imm(1),
                },
                Insn::Jump { target: 1 },
                Insn::Return { value: None },
            ],
        );
        let config = VmConfig::small().with_gc_every(100);
        let mut vm = Vm::new(p, config, CountingCollector::default());
        vm.run().unwrap();
        assert!(vm.collector().collections >= 10);
        assert_eq!(vm.stats().gc_cycles, vm.collector().collections);
    }

    #[test]
    fn build_roots_reflects_stack_and_statics() {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Obj", 1));
        let s = p.add_static();
        let inner = p.add_method(MethodDef::new(
            "inner",
            1,
            2,
            vec![
                Insn::New { class: c, dst: 1 },
                Insn::Return { value: Some(1) },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            3,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::PutStatic {
                    static_id: s,
                    value: 0,
                },
                Insn::Call {
                    method: inner,
                    args: vec![0],
                    dst: Some(1),
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let mut vm = Vm::new(p, VmConfig::small(), NoopCollector::new());
        vm.run().unwrap();
        // After the program ends the stack is empty but the static root
        // remains.
        let roots = vm.build_roots();
        assert!(roots.frames.is_empty());
        assert_eq!(roots.statics.len(), 1);
    }

    #[test]
    fn event_sink_observes_the_stream_in_order() {
        /// Records the shape of every event.
        #[derive(Debug, Default)]
        struct Tape {
            tags: std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>,
        }
        impl EventSink for Tape {
            fn record(&mut self, event: &GcEvent) {
                let tag = match event {
                    GcEvent::Allocate { .. } => "alloc",
                    GcEvent::SlotWrite { .. } => "write",
                    GcEvent::ObjectAccess { .. } => "access",
                    GcEvent::ReferenceStore { .. } => "refstore",
                    GcEvent::StaticStore { .. } => "static",
                    GcEvent::ReturnValue { .. } => "return",
                    GcEvent::FramePush { .. } => "push",
                    GcEvent::FramePop { .. } => "pop",
                    GcEvent::Collect { .. } => "collect",
                    GcEvent::ProgramEnd { .. } => "end",
                };
                self.tags.borrow_mut().push(tag);
            }
        }

        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Obj", 1));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            2,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::New { class: c, dst: 1 },
                Insn::PutField {
                    object: 0,
                    field: 0,
                    value: 1,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let mut vm = Vm::new(p, VmConfig::small(), NoopCollector::new());
        let tape = Tape::default();
        let tags = std::rc::Rc::clone(&tape.tags);
        vm.set_event_sink(Box::new(tape));
        vm.run().unwrap();
        assert!(vm.take_event_sink().is_some());
        assert_eq!(
            &*tags.borrow(),
            &[
                "push",  // main's frame
                "alloc", // object 0
                "alloc", // object 1
                "write", "access", "access", "refstore", // the putfield
                "pop",      // main returns
                "end",
            ]
        );
    }

    #[test]
    fn vm_error_display() {
        let e = VmError::OutOfMemory {
            class: ClassId::new(1),
            requested: 64,
        };
        assert!(e.to_string().contains("64"));
        assert!(VmError::InstructionLimit(9).to_string().contains("9"));
        assert!(VmError::StackOverflow(4).to_string().contains("4"));
        let e = VmError::TooManyThreads {
            limit: u64::from(u32::MAX) + 1,
        };
        assert!(e.to_string().contains("4294967296"));
    }

    /// Records every event verbatim (the byte-identity tests' probe).
    #[derive(Debug, Default)]
    struct Capture {
        events: std::rc::Rc<std::cell::RefCell<Vec<GcEvent>>>,
    }

    impl EventSink for Capture {
        fn record(&mut self, event: &GcEvent) {
            self.events.borrow_mut().push(event.clone());
        }
    }

    /// Runs `p` under `config`, returning the full event stream and stats.
    fn record_events(p: &Program, config: VmConfig) -> (Vec<GcEvent>, VmStats) {
        let mut vm = Vm::new(p.clone(), config, NoopCollector::new());
        let sink = Capture::default();
        let events = std::rc::Rc::clone(&sink.events);
        vm.set_event_sink(Box::new(sink));
        let outcome = vm.run().expect("program runs");
        let events = events.borrow().clone();
        (events, outcome.stats)
    }

    /// A loop whose head is a cached call, with field traffic on both sides
    /// of it and a spawned thread for cross-thread events.
    fn call_loop_program() -> Program {
        let mut p = Program::named("call-loop");
        let c = p.add_class(ClassDef::new("Obj", 2));
        let helper = p.add_method(MethodDef::new(
            "helper",
            1,
            4,
            vec![
                Insn::GetField {
                    object: 0,
                    field: 0,
                    dst: 1,
                },
                Insn::GetField {
                    object: 0,
                    field: 1,
                    dst: 2,
                },
                Insn::GetField {
                    object: 0,
                    field: 0,
                    dst: 3,
                },
                Insn::PutField {
                    object: 0,
                    field: 1,
                    value: 3,
                },
                Insn::Return { value: Some(1) },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            8,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::New { class: c, dst: 1 },
                Insn::PutField {
                    object: 0,
                    field: 0,
                    value: 1,
                },
                Insn::Const { dst: 2, value: 0 },
                // Loop head: the branch targets it.
                Insn::Const { dst: 3, value: 1 },
                Insn::Call {
                    method: helper,
                    args: vec![0],
                    dst: Some(4),
                },
                Insn::GetField {
                    object: 0,
                    field: 0,
                    dst: 5,
                },
                Insn::GetField {
                    object: 0,
                    field: 1,
                    dst: 6,
                },
                Insn::Arith {
                    op: ArithOp::Add,
                    dst: 2,
                    a: Operand::Local(2),
                    b: Operand::Imm(1),
                },
                Insn::Branch {
                    cond: Cond::Lt,
                    a: Operand::Local(2),
                    b: Operand::Imm(5),
                    target: 4,
                },
                Insn::SpawnThread {
                    method: helper,
                    args: vec![0],
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        p
    }

    #[test]
    fn fused_and_unfused_event_streams_are_byte_identical() {
        // A one-instruction quantum or a collection after every instruction
        // puts a boundary on each `CallCached`: the cached push must still
        // emit exactly what the uncached one does, in the same place.
        let p = call_loop_program();
        assert!(
            Vm::new(
                p.clone(),
                VmConfig::small().with_fusion(true),
                NoopCollector::new()
            )
            .fuse_report()
            .calls_cached
                > 0,
            "the probe program must carry calls to cache"
        );
        for quantum in [1usize, 2, 3, 64] {
            for gc_every in [None, Some(1), Some(3), Some(7), Some(64)] {
                let mut config = VmConfig::small();
                config.thread_quantum = quantum;
                config.gc_every_instructions = gc_every;
                let (fused, fused_stats) = record_events(&p, config.with_fusion(true));
                let (plain, plain_stats) = record_events(&p, config.with_fusion(false));
                assert_eq!(
                    fused, plain,
                    "event streams diverged (quantum={quantum}, gc_every={gc_every:?})"
                );
                assert_eq!(fused_stats, plain_stats);
            }
        }
    }

    #[test]
    fn inline_cache_reresolves_when_a_site_changes_target() {
        // One site shared by calls with *different* targets: the cache must
        // miss, re-resolve and still dispatch correctly.  (The corpus text
        // format can express this directly, so the interpreter cannot
        // assume sites are monomorphic.)
        let mut p = Program::named("ic-invalidate");
        let a = p.add_method(MethodDef::new(
            "a",
            0,
            1,
            vec![
                Insn::Const { dst: 0, value: 10 },
                Insn::Return { value: Some(0) },
            ],
        ));
        let b = p.add_method(MethodDef::new(
            "b",
            0,
            1,
            vec![
                Insn::Const { dst: 0, value: 32 },
                Insn::Return { value: Some(0) },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            8,
            vec![
                Insn::CallCached {
                    method: a,
                    args: vec![],
                    dst: Some(0),
                    site: 0,
                },
                Insn::CallCached {
                    method: a,
                    args: vec![],
                    dst: Some(1),
                    site: 0,
                },
                Insn::CallCached {
                    method: b,
                    args: vec![],
                    dst: Some(2),
                    site: 0,
                },
                Insn::CallCached {
                    method: a,
                    args: vec![],
                    dst: Some(3),
                    site: 0,
                },
                Insn::Arith {
                    op: ArithOp::Add,
                    dst: 4,
                    a: Operand::Local(1),
                    b: Operand::Local(2),
                },
                Insn::Return { value: Some(4) },
            ],
        ));
        p.set_entry(main);
        // `with_fusion(false)` keeps the hand-written sites as-is.
        let mut vm = Vm::new(
            p,
            VmConfig::small().with_fusion(false),
            NoopCollector::new(),
        );
        vm.run().expect("program runs");
        let site = vm.call_sites()[0];
        assert_eq!(
            site.hits + site.misses,
            4,
            "every call goes through the site"
        );
        // Cold miss, hit on `a`, invalidated by `b`, invalidated back to `a`.
        assert_eq!(site.misses, 3);
        assert_eq!(site.hits, 1);
        // Entry frame + the four cached calls.
        assert_eq!(vm.stats().method_calls, 5);
    }

    #[test]
    fn inline_cache_site_is_shared_across_threads() {
        // Two spawned workers and the main thread call through the same
        // site id with the same target: one cold miss, hits after — the
        // cache is per-site, not per-thread, and stays correct either way.
        let mut p = Program::named("ic-cross-thread");
        let helper = p.add_method(MethodDef::new(
            "helper",
            0,
            1,
            vec![
                Insn::Const { dst: 0, value: 7 },
                Insn::Return { value: Some(0) },
            ],
        ));
        let worker = p.add_method(MethodDef::new(
            "worker",
            0,
            2,
            vec![
                Insn::CallCached {
                    method: helper,
                    args: vec![],
                    dst: Some(1),
                    site: 0,
                },
                Insn::Return { value: None },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            2,
            vec![
                Insn::SpawnThread {
                    method: worker,
                    args: vec![],
                },
                Insn::SpawnThread {
                    method: worker,
                    args: vec![],
                },
                Insn::CallCached {
                    method: helper,
                    args: vec![],
                    dst: Some(0),
                    site: 0,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        let mut vm = Vm::new(
            p,
            VmConfig::small().with_fusion(false),
            NoopCollector::new(),
        );
        let outcome = vm.run().expect("program runs");
        assert_eq!(outcome.stats.threads_spawned, 2);
        let site = vm.call_sites()[0];
        assert_eq!(site.misses, 1, "only the cold lookup misses");
        assert_eq!(site.hits, 2);
    }
}
