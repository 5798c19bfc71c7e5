//! Facade crate for the contaminated garbage collection reproduction.
//!
//! Re-exports the workspace crates under short module names so examples and
//! downstream users have a single dependency. See the individual crates for
//! full documentation:
//!
//! * [`cg_core`] (`collector`) — the contaminated collector (the paper's
//!   contribution), its union/find forests, and the mark-sweep baseline it
//!   is compared against (`collector::marksweep`).
//! * [`cg_vm`] — the JVM-like execution substrate.
//! * [`cg_heap`] — the handle-based heap.
//! * [`cg_trace`] — record/replay for the VM↔collector event stream.
//! * [`cg_workloads`] — synthetic SPECjvm98-like workloads.
//! * [`cg_stats`] — counters, histograms and paper-style tables.

#![forbid(unsafe_code)]

pub use cg_core as collector;
pub use cg_heap as heap;
pub use cg_stats as stats;
pub use cg_trace as trace;
pub use cg_vm as vm;
pub use cg_workloads as workloads;
