//! What a passive heap — one that never frees — holds per object: one
//! handle slot and one exactly sized allocation of the object's slots.  The
//! object space keeps no table of allocated blocks, so nothing else grows
//! with the objects.

#[path = "../../testutil/counting_alloc.rs"]
mod counting_alloc;

use cg_heap::{ClassId, Heap, HeapConfig, Value};

/// Objects per measurement: a whole number of handle-table pages.
const OBJECTS: u64 = 64 * 256;

/// The most bytes a fresh heap holds while `objects` one-field instances
/// are allocated into it.
fn peak_bytes_of(objects: u64) -> u64 {
    counting_alloc::reset_peak();
    let mut heap = Heap::new(HeapConfig::spacious());
    for _ in 0..objects {
        heap.allocate(ClassId::new(0), 1)
            .expect("the heap has room");
    }
    counting_alloc::peak_bytes()
}

#[test]
fn a_passive_heap_holds_a_40_byte_slot_and_its_field_per_instance() {
    let small = peak_bytes_of(OBJECTS);
    let large = peak_bytes_of(2 * OBJECTS);
    // The page directory's growth is the only other term, well under a
    // byte per object.
    let per_object = (large - small) / OBJECTS;
    assert_eq!(per_object, 40 + std::mem::size_of::<Value>() as u64);
}
