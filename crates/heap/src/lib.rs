//! Handle-based object heap modelled on the Sun JDK 1.1.8 interpreter.
//!
//! The contaminated-GC paper implements its collector inside the JDK 1.1.8
//! JVM, whose storage manager has three properties the algorithm depends on:
//!
//! 1. **Handles.**  Every object is reached through a handle; references
//!    between objects indirect through the handle table, so objects can be
//!    relocated (or, for CG, tagged with collector metadata) by touching only
//!    the handle (§3.1).
//! 2. **A split heap.**  The heap is divided into a handle space and an
//!    object space (originally 20% / 80%); the CG implementation widens the
//!    handle space because it grows each handle from 2 words to 16 (or, with
//!    the §3.5 packing, 8) words.
//! 3. **A first-fit free-list allocator.**  The object space allocator does a
//!    linear search from its last allocation point, coalescing adjacent free
//!    blocks, and triggers garbage collection when the search fails (§3.7).
//!
//! This crate reproduces that storage substrate in safe Rust:
//!
//! * [`Handle`] / [`ClassId`] — dense identifiers.
//! * [`Value`] — field/array-element values (references and primitives).
//! * [`Object`] — instances and arrays, with their field storage.
//! * [`ObjectSpace`] — the heap's byte-accounted free-list allocator, with
//!   a pluggable search policy ([`AllocPolicy`]): the paper-faithful
//!   first-fit rover, or segregated size-class bins.  It indexes free
//!   blocks only; the heap's handle slot is the record of an allocated one.
//! * [`Heap`] — the handle table plus object space, allocation, freeing,
//!   reinitialisation (for recycling) and reference traversal.
//! * [`HeapConfig`] / [`HandleRepr`] — sizing knobs reproducing the paper's
//!   space accounting.
//!
//! # Example
//!
//! ```
//! use cg_heap::{Heap, HeapConfig, ClassId, Value};
//!
//! let mut heap = Heap::new(HeapConfig::small());
//! let class = ClassId::new(0);
//! let a = heap.allocate(class, 2)?;
//! let b = heap.allocate(class, 0)?;
//! heap.set_field(a, 0, Value::from(b))?;
//! assert_eq!(heap.references_of(a), vec![b]);
//! # Ok::<(), cg_heap::HeapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod freelist;
pub mod heap;
pub mod layout;
pub mod object;
mod slots;
pub mod value;

pub use error::HeapError;
pub use freelist::{AllocPolicy, BlockAddr, ObjectSpace, SpaceStats};
pub use heap::{Heap, HeapStats};
pub use layout::{HandleRepr, HeapConfig, WORD_BYTES};
pub use object::Object;
pub use slots::SlotTable;
pub use value::{ClassId, Handle, Value};
