//! The heap-allocation counter behind every bench family's `allocations`
//! count (`BenchHarness::with_counts`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations this thread has made.  Const-initialised and without a
    /// destructor, so touching it from inside the allocator never allocates
    /// or runs after thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations (a `realloc`
/// counts as one) so a count covers the calling thread only, whatever
/// other threads are doing.
struct CountingAllocator;

fn note_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` and `layout` describe a live `System` block because
        // every block this allocator hands out came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
