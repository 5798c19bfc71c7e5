//! The workspace's one counting global allocator, for bench and test
//! binaries: the system allocator plus, per thread, the number of
//! allocations, the bytes requested, the live bytes and their high-water
//! mark.
//!
//! A binary includes this file as a module, which installs the allocator:
//!
//! ```ignore
//! #[path = "../../testutil/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! It is a file and not a module of `cg-testutil` so that every library
//! crate keeps `#![forbid(unsafe_code)]`.
//!
//! Every figure covers the calling thread only, whatever other threads do.
//! A block freed on another thread than the one that allocated it lowers
//! the freeing thread's live bytes, so live and peak bytes are exact for
//! work that allocates and frees on one thread, and only indicative for
//! work that hands memory to other threads.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// One thread's running figures.
#[derive(Clone, Copy)]
struct Counts {
    /// Allocations made (a `realloc` counts as one).
    allocations: u64,
    /// Bytes requested (a `realloc` requests its new size).
    bytes_allocated: u64,
    /// Bytes allocated minus bytes freed.
    live: i64,
    /// The highest `live` since the last [`reset_peak`].
    peak: i64,
    /// `live` at the last [`reset_peak`].
    base: i64,
}

thread_local! {
    /// Const-initialised and without a destructor, so touching it from
    /// inside the allocator never allocates or runs after thread teardown.
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            allocations: 0,
            bytes_allocated: 0,
            live: 0,
            peak: 0,
            base: 0,
        })
    };
}

/// Records one allocation of `requested` bytes that changes the live
/// bytes by `delta`.
fn note(requested: usize, delta: i64) {
    COUNTS.with(|c| {
        let mut n = c.get();
        n.allocations += 1;
        n.bytes_allocated += requested as u64;
        n.live += delta;
        n.peak = n.peak.max(n.live);
        c.set(n);
    });
}

/// The system allocator, counting per thread.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` describe a live `System` block because
        // every block this allocator hands out came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        COUNTS.with(|c| {
            let mut n = c.get();
            n.live -= layout.size() as i64;
            c.set(n);
        });
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    COUNTS.with(|c| c.get().allocations)
}

/// Bytes the calling thread has requested so far.
pub fn bytes_allocated() -> u64 {
    COUNTS.with(|c| c.get().bytes_allocated)
}

/// Bytes the calling thread has allocated and not freed (negative when it
/// freed more than it allocated).
pub fn live_bytes() -> i64 {
    COUNTS.with(|c| c.get().live)
}

/// Starts a new high-water mark at the calling thread's current live
/// bytes.
pub fn reset_peak() {
    COUNTS.with(|c| {
        let mut n = c.get();
        n.peak = n.live;
        n.base = n.live;
        c.set(n);
    });
}

/// The most bytes the calling thread has held at once since the last
/// [`reset_peak`], beyond what it held then.
pub fn peak_bytes() -> u64 {
    COUNTS.with(|c| {
        let n = c.get();
        (n.peak - n.base) as u64
    })
}
