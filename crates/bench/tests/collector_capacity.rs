//! The contaminated collector's memory is proportional to the objects live,
//! not to the objects a trace creates.
//!
//! Replaying `cg_bench::short_lived_stream` — objects dying in frames of
//! [`PER_FRAME`] — under the counting allocator, the most bytes held at once
//! must be the same for 20 k and for 200 k objects, give or take one page of
//! each table indexed by handle: everything the collector and the shadow
//! heap keep per object is given back when the object dies.

#[path = "../benches/common/mod.rs"]
mod common;

use cg_bench::{short_lived_stream, PAGE_PER_TABLE_BYTES};
use cg_core::ContaminatedGc;
use cg_trace::{replay_events_governed, Governor};
use cg_vm::HeapConfig;

/// Objects allocated (and dying) per frame: the peak live set.
const PER_FRAME: u64 = 500;

/// The most bytes the replay of `objects` short-lived objects held at once.
fn replay_peak_bytes(objects: u64) -> u64 {
    let mut heap = HeapConfig::spacious();
    heap.handle_space_bytes = objects as usize * heap.handle_repr.bytes();
    let unlimited = Governor::unlimited();
    common::reset_peak();
    let replayed = replay_events_governed(
        short_lived_stream(objects, PER_FRAME),
        heap,
        ContaminatedGc::new(),
        &unlimited,
    )
    .expect("the synthetic stream replays");
    let peak = common::peak_bytes();
    let stats = replayed.collector.stats();
    assert_eq!(stats.objects_created, objects);
    assert_eq!(stats.objects_collected, objects);
    assert_eq!(replayed.heap.stats().peak_live_objects, PER_FRAME);
    assert_eq!(replayed.outcome.live_at_exit, 0);
    peak
}

#[test]
fn replay_memory_does_not_grow_with_the_objects_created() {
    let small = replay_peak_bytes(20_000);
    let large = replay_peak_bytes(200_000);
    assert!(
        large.abs_diff(small) <= PAGE_PER_TABLE_BYTES,
        "peak bytes went from {small} (20 k objects) to {large} (200 k objects), \
         more than one page per table ({PAGE_PER_TABLE_BYTES} bytes)"
    );
}
