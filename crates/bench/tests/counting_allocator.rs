//! The benches' counting global allocator (`benches/common`) gates exact
//! `allocations` counts, so it must count exactly what a closure allocates
//! and nothing else, the same way every time.

#[path = "../benches/common/mod.rs"]
mod common;

use cg_core::ContaminatedGc;
use cg_heap::{ClassId, Heap, HeapConfig};
use cg_vm::{Collector, FrameId, FrameInfo, MethodId, ThreadId};

/// Allocations the calling thread made while running `f`.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = common::allocations();
    f();
    common::allocations() - before
}

/// The shape of a `gc_hot_path` label: a heap and a collector, 64 objects
/// registered in one frame, then the frame's pop frees them.
fn pop_64_singletons() {
    let frame = FrameInfo {
        id: FrameId::new(1),
        depth: 1,
        thread: ThreadId::MAIN,
        method: MethodId::new(0),
    };
    let mut heap = Heap::new(HeapConfig::spacious());
    let mut cg = ContaminatedGc::new();
    for _ in 0..64 {
        let handle = heap.allocate(ClassId::new(0), 2).expect("fits");
        cg.on_allocate(handle, &frame, &heap);
    }
    assert_eq!(cg.on_frame_pop(&frame, &mut heap).freed_objects, 64);
}

#[test]
fn counts_exactly_the_allocations_a_closure_makes() {
    assert_eq!(allocations_of(|| drop(Vec::<u64>::new())), 0);
    assert_eq!(allocations_of(|| drop(Vec::<u64>::with_capacity(4))), 1);
    // Growing from 1 to 2 elements is one allocation plus one reallocation.
    let grown = allocations_of(|| {
        let mut v = Vec::with_capacity(1);
        v.extend([1u64, 2]);
    });
    assert_eq!(grown, 2);
}

#[test]
fn the_same_closure_reports_the_same_count_every_run() {
    let first = allocations_of(pop_64_singletons);
    assert!(first > 64, "each object allocates its slots: {first}");
    for _ in 0..4 {
        assert_eq!(allocations_of(pop_64_singletons), first);
    }
}
