//! The VM→collector event stream, reified as data.
//!
//! The paper's collector is driven entirely by a small set of interpreter
//! events (§3.1.3): object creation, `putfield`/array stores, `putstatic`,
//! `areturn`, frame push/pop, cross-thread access and the traditional
//! collector invocation.  The interpreter used to call the matching
//! [`Collector`](crate::Collector) hook directly at each site; every event
//! now flows through a single dispatch seam as a typed [`GcEvent`], which
//! means the stream can be *recorded* (via an [`EventSink`]) and later
//! *replayed* against any collector without re-interpreting the program —
//! see the `cg-trace` crate.
//!
//! Two event kinds exist purely so a replay can reconstruct the heap the
//! collector observes:
//!
//! * [`GcEvent::SlotWrite`] mirrors every field/element store (including
//!   primitive stores, which can overwrite — and thereby sever — a
//!   reference), keeping a replayed heap's reference graph identical to the
//!   live one.  No collector hook fires for it.
//! * [`GcEvent::Collect`] and [`GcEvent::ProgramEnd`] carry a snapshot of the
//!   VM's root set, because a replay has no frames or statics of its own to
//!   rebuild one from.

use crate::collector::RootSet;
use crate::frame::{FrameInfo, ThreadId};
use cg_heap::{ClassId, Handle};

/// The shape of an allocation: an instance with a field count, or an array
/// with a length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// A class instance.
    Instance {
        /// Number of fields.
        field_count: usize,
    },
    /// An array.
    Array {
        /// Number of elements.
        length: usize,
    },
}

/// One event at the VM↔collector boundary.
///
/// Events are emitted in exactly the order the interpreter produces them, so
/// a recorded stream replayed hook-for-hook is indistinguishable — to any
/// [`Collector`](crate::Collector) — from the live run that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum GcEvent {
    /// An object or array was allocated in `frame`.
    ///
    /// `recycled` allocations were satisfied by the collector's recycle list
    /// (§3.7): the handle was reinitialised in place rather than freshly
    /// allocated.
    Allocate {
        /// The new (or recycled) object's handle.
        handle: Handle,
        /// The allocated class.
        class: ClassId,
        /// Instance or array, with its size.
        kind: AllocKind,
        /// The frame executing the allocation.
        frame: FrameInfo,
        /// Whether the §3.7 recycle list satisfied the allocation.
        recycled: bool,
    },
    /// A field or array element of `object` was written (any value, not just
    /// references).  Pure heap-mirroring event: no collector hook fires.
    SlotWrite {
        /// The object written to.
        object: Handle,
        /// Field index or element index.
        slot: usize,
        /// The reference stored, or `None` for null/primitive values.
        value: Option<Handle>,
        /// Whether the write targets an array element.
        element: bool,
    },
    /// `thread` touched `handle` (§3.3 cross-thread detection).
    ObjectAccess {
        /// The object accessed.
        handle: Handle,
        /// The accessing thread.
        thread: ThreadId,
    },
    /// `source` was made to reference `target` — the contamination event
    /// (`putfield` / array store of a reference, executed in `frame`).
    ReferenceStore {
        /// The object written to.
        source: Handle,
        /// The object now referenced.
        target: Handle,
        /// The frame executing the store.
        frame: FrameInfo,
    },
    /// A static variable (or an interpreter-internal static reference, §3.2)
    /// now references `target`.
    StaticStore {
        /// The object that became statically referenced.
        target: Handle,
    },
    /// A method is returning `value` to `caller` (the `areturn` event).
    ReturnValue {
        /// The returned object.
        value: Handle,
        /// The frame receiving the value.
        caller: FrameInfo,
        /// The frame returning it.
        callee: FrameInfo,
    },
    /// A new frame was pushed.
    FramePush {
        /// The new frame.
        frame: FrameInfo,
    },
    /// `frame` was popped; collectors may reclaim its dependents.
    FramePop {
        /// The popped frame.
        frame: FrameInfo,
    },
    /// A full (traditional) collection was requested, either by an
    /// allocation failure or by the periodic §4.7 trigger.
    ///
    /// The root-set snapshot is boxed so these two rare variants don't
    /// inflate the size of every hot-path event (`ObjectAccess`, `SlotWrite`,
    /// …) moved through the dispatch seam per executed instruction.
    Collect {
        /// Snapshot of the root set at the collection point.
        roots: Box<RootSet>,
    },
    /// The program finished.
    ProgramEnd {
        /// Snapshot of the final root set.
        roots: Box<RootSet>,
    },
}

/// The kind of a [`GcEvent`], without its payload.
///
/// The discriminant values are stable: they double as the per-variant tag
/// bytes of the persistent `.cgt` trace format (see the `cg-trace` crate),
/// so reordering or renumbering them is a trace-format break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// [`GcEvent::Allocate`].
    Allocate = 0,
    /// [`GcEvent::SlotWrite`].
    SlotWrite = 1,
    /// [`GcEvent::ObjectAccess`].
    ObjectAccess = 2,
    /// [`GcEvent::ReferenceStore`].
    ReferenceStore = 3,
    /// [`GcEvent::StaticStore`].
    StaticStore = 4,
    /// [`GcEvent::ReturnValue`].
    ReturnValue = 5,
    /// [`GcEvent::FramePush`].
    FramePush = 6,
    /// [`GcEvent::FramePop`].
    FramePop = 7,
    /// [`GcEvent::Collect`].
    Collect = 8,
    /// [`GcEvent::ProgramEnd`].
    ProgramEnd = 9,
}

impl EventKind {
    /// Every kind, in tag order.
    pub const ALL: [EventKind; 10] = [
        EventKind::Allocate,
        EventKind::SlotWrite,
        EventKind::ObjectAccess,
        EventKind::ReferenceStore,
        EventKind::StaticStore,
        EventKind::ReturnValue,
        EventKind::FramePush,
        EventKind::FramePop,
        EventKind::Collect,
        EventKind::ProgramEnd,
    ];

    /// The kind's stable tag byte.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The kind for a tag byte, if the tag is known.
    pub fn from_tag(tag: u8) -> Option<EventKind> {
        Self::ALL.get(tag as usize).copied()
    }

    /// Snake-case label, as used in reports and the trace-stats footer.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Allocate => "allocations",
            EventKind::SlotWrite => "slot_writes",
            EventKind::ObjectAccess => "object_accesses",
            EventKind::ReferenceStore => "reference_stores",
            EventKind::StaticStore => "static_stores",
            EventKind::ReturnValue => "return_values",
            EventKind::FramePush => "frame_pushes",
            EventKind::FramePop => "frame_pops",
            EventKind::Collect => "collects",
            EventKind::ProgramEnd => "program_ends",
        }
    }
}

impl GcEvent {
    /// Whether this event invokes a collector hook when dispatched
    /// ([`GcEvent::SlotWrite`] is heap-mirroring only).
    pub fn invokes_collector(&self) -> bool {
        !matches!(self, GcEvent::SlotWrite { .. })
    }

    /// The event's kind (payload-free discriminant).
    pub fn kind(&self) -> EventKind {
        match self {
            GcEvent::Allocate { .. } => EventKind::Allocate,
            GcEvent::SlotWrite { .. } => EventKind::SlotWrite,
            GcEvent::ObjectAccess { .. } => EventKind::ObjectAccess,
            GcEvent::ReferenceStore { .. } => EventKind::ReferenceStore,
            GcEvent::StaticStore { .. } => EventKind::StaticStore,
            GcEvent::ReturnValue { .. } => EventKind::ReturnValue,
            GcEvent::FramePush { .. } => EventKind::FramePush,
            GcEvent::FramePop { .. } => EventKind::FramePop,
            GcEvent::Collect { .. } => EventKind::Collect,
            GcEvent::ProgramEnd { .. } => EventKind::ProgramEnd,
        }
    }
}

/// A consumer of the event stream, attached to a
/// [`Vm`](crate::Vm) with [`Vm::set_event_sink`](crate::Vm::set_event_sink).
///
/// The sink observes every event *before* the corresponding collector hook
/// runs, in interpreter order.  `cg-trace`'s `StreamingRecorder`, which
/// encodes each event into a `.cgt` stream as it arrives, is the canonical
/// implementation.
pub trait EventSink: std::fmt::Debug {
    /// Called once per event, in emission order.
    fn record(&mut self, event: &GcEvent);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameId;
    use crate::program::MethodId;

    fn frame() -> FrameInfo {
        FrameInfo {
            id: FrameId::new(1),
            depth: 1,
            thread: ThreadId::MAIN,
            method: MethodId::new(0),
        }
    }

    #[test]
    fn slot_writes_do_not_invoke_the_collector() {
        let write = GcEvent::SlotWrite {
            object: Handle::from_index(0),
            slot: 0,
            value: None,
            element: false,
        };
        assert!(!write.invokes_collector());
        let alloc = GcEvent::Allocate {
            handle: Handle::from_index(0),
            class: ClassId::new(0),
            kind: AllocKind::Instance { field_count: 2 },
            frame: frame(),
            recycled: false,
        };
        assert!(alloc.invokes_collector());
        assert!(GcEvent::ProgramEnd {
            roots: Box::new(RootSet::default())
        }
        .invokes_collector());
    }

    #[test]
    fn kinds_round_trip_through_tags() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.tag() as usize, i, "tags are dense and stable");
            assert_eq!(EventKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(EventKind::from_tag(10), None);
        assert_eq!(
            GcEvent::FramePush { frame: frame() }.kind(),
            EventKind::FramePush
        );
        assert_eq!(EventKind::Allocate.label(), "allocations");
    }

    #[test]
    fn events_compare_structurally() {
        let a = GcEvent::FramePush { frame: frame() };
        let b = GcEvent::FramePush { frame: frame() };
        assert_eq!(a, b);
        assert_ne!(a, GcEvent::FramePop { frame: frame() });
    }
}
