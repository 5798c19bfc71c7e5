//! Contaminated garbage collection.
//!
//! This crate is the reproduction of the collector described in
//! *Contaminated Garbage Collection* (Cannarozzi, Plezbert & Cytron,
//! PLDI 2000; thesis report WUCSE-2003-40).  The idea:
//!
//! > Each object X is dynamically associated with a stack frame M, such that
//! > X is collectable when M pops.
//!
//! Objects are grouped into **equilive blocks** — an equivalence relation
//! maintained with union/find (union by rank, path compression, parent and
//! rank packed into one word per handle as in §3.5).  The rules:
//!
//! * A new object forms a singleton block dependent on the allocating frame.
//! * When object `a` is made to reference object `b` (a `putfield` or array
//!   store), `a` and `b` *contaminate* each other: their blocks merge and the
//!   merged block depends on the **older** of the two dependent frames.
//!   Contamination is symmetric and can never be undone, which is where the
//!   approach is conservative.
//! * Returning an object (`areturn`) moves its block to the caller's frame
//!   if the caller is older.
//! * Storing an object into a static variable — or any interpreter-generated
//!   static reference such as `String.intern`, class loading or JNI pinning —
//!   makes its block *static* ("frame 0"), never collected by CG.
//! * Objects accessed by more than one thread are treated as static (§3.3).
//! * When a frame pops, every block dependent on it is dead: the objects are
//!   freed with no marking phase at all, or pushed onto a recycle list that
//!   later allocations are served from (§3.7).
//!
//! Two refinements from the thesis are also implemented: the **static
//! optimisation** of §3.4 (referencing an already-static object does not
//! contaminate the referencer) and **resetting** of §3.6 (when a traditional
//! mark-sweep collection runs anyway, rebuild the equilive relation from the
//! live object graph, undoing accumulated conservatism).
//!
//! The main types:
//!
//! * [`ContaminatedGc`] — the collector, a [`cg_vm::Collector`] implementation
//!   (the 1-shard instantiation of the sharded code path).
//! * [`CollectorShard`] / [`StaticDomain`] — one thread's share of the
//!   collector state, and the §3.3 static set shared by all shards.
//! * [`ShardedGc`] — the N-shard collector, routing a live VM's events
//!   across per-thread shards.
//! * [`CgConfig`] — static optimisation / recycling / verification knobs
//!   (`verify_tainted` defaults on only under `debug_assertions`).
//! * [`HybridCollector`] — contaminated GC plus a mark-sweep backstop with
//!   optional structure resetting.
//! * [`marksweep`] — the traditional mark-sweep ("MSA") baseline the paper
//!   compares against, and the marking pass resetting and the soundness
//!   checks share.
//! * [`EquiliveSets`], [`FrameKey`], [`BlockInfo`] — the underlying relation.
//! * [`CgStats`], [`ObjectBreakdown`] — the measurements every experiment in
//!   Chapter 4 reads off.
//!
//! # Example
//!
//! ```
//! use cg_core::{CgConfig, ContaminatedGc};
//! use cg_vm::{Program, ClassDef, MethodDef, Insn, Vm, VmConfig};
//!
//! // A helper that allocates a temporary object which never escapes.
//! let mut program = Program::new();
//! let class = program.add_class(ClassDef::new("Temp", 1));
//! let helper = program.add_method(MethodDef::new("helper", 0, 1, vec![
//!     Insn::New { class, dst: 0 },
//!     Insn::Return { value: None },
//! ]));
//! let main = program.add_method(MethodDef::new("main", 0, 1, vec![
//!     Insn::Call { method: helper, args: vec![], dst: None },
//!     Insn::Call { method: helper, args: vec![], dst: None },
//!     Insn::Return { value: None },
//! ]));
//! program.set_entry(main);
//!
//! let collector = ContaminatedGc::with_config(CgConfig::preferred());
//! let mut vm = Vm::new(program, VmConfig::default(), collector);
//! vm.run()?;
//!
//! let stats = vm.collector().stats();
//! assert_eq!(stats.objects_created, 2);
//! assert_eq!(stats.objects_collected, 2);       // both died at frame pops
//! assert_eq!(stats.objects_collected_exactly, 2); // in singleton blocks
//! # Ok::<(), cg_vm::VmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomic;
pub mod collector;
pub mod equilive;
pub mod frame_index;
pub mod hybrid;
pub mod marksweep;
mod packed;
mod recycle;
pub mod shard;
pub mod sharded;
pub mod static_domain;
pub mod stats;
mod tagged;

pub use collector::{CgConfig, ContaminatedGc, FaultInjection};
pub use equilive::{BlockInfo, EquiliveSets, FrameKey, StaticReason};
pub use frame_index::FrameBlockIndex;
pub use hybrid::{HybridCollector, HybridConfig};
pub use shard::{aggregate_shards, aggregate_stats, CollectorShard, StoreOperand};
pub use sharded::ShardedGc;
pub use static_domain::{merge_reasons, DomainImpl, StaticDomain, StaticNodeId};
pub use stats::{CgStats, ObjectBreakdown};
