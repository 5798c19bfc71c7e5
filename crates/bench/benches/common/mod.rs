//! The counting global allocator behind every bench family's `allocations`
//! count (`BenchHarness::with_counts`) and `peak_bytes` counts: the
//! workspace's one copy, `crates/testutil/counting_alloc.rs`.

#[path = "../../../testutil/counting_alloc.rs"]
mod counting_alloc;

pub use counting_alloc::*;
