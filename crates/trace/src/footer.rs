//! Canonical stats footers: exact, order-stable serializations of the
//! collector and interpreter statistics a trace's footer embeds.
//!
//! A `.cgt` footer section is a flat list of `(key, u64)` entries
//! ([`FooterSection`]); two sections are byte-identical iff the entry
//! vectors are equal.  This module defines the two canonical sections:
//!
//! * `"cg"` — the [`CgStats`] + [`ObjectBreakdown`] produced by replaying
//!   the trace under the **canonical collector** (contaminated GC with the
//!   preferred §3.4 configuration and the verification pass off — the same
//!   configuration every experiment uses).  `cgt verify` replays the
//!   stream and compares the freshly computed section against the stored
//!   one entry for entry; the golden-trace CI gate re-records the workload
//!   live and does the same.  Histograms are serialized exactly (bucket
//!   counts, total, 128-bit sum, min, max), so a match really is
//!   byte-identical statistics, not a rounded summary.
//! * `"vm"` — the interpreter statistics of the recording run
//!   (instruction and allocation totals are properties of the workload, not
//!   of the collector replayed later), which `cgt diff` compares and the
//!   repo benchmark checks without re-interpreting the program.

use cg_core::{CgConfig, CgStats, ContaminatedGc, ObjectBreakdown};
use cg_heap::{HandleRepr, HeapConfig};
use cg_stats::Histogram;
use cg_vm::VmStats;

use crate::format::FooterSection;

/// Name of the canonical-collector stats section.
pub const CG_SECTION: &str = "cg";
/// Name of the recording-run interpreter stats section.
pub const VM_SECTION: &str = "vm";

/// The canonical collector configuration footers are computed under:
/// preferred (§3.4 static optimisation on, no recycling, no resetting),
/// verification pass off — matching the experiment runs.
pub fn canonical_config() -> CgConfig {
    CgConfig {
        verify_tainted: false,
        ..CgConfig::preferred()
    }
}

/// A fresh canonical collector (see [`canonical_config`]).
pub fn canonical_collector() -> ContaminatedGc {
    ContaminatedGc::with_config(canonical_config())
}

/// The heap sizing golden-corpus recordings use: a 12 MiB object space with
/// a 64 MiB handle table — identical to `cg_bench::runner::experiment_heap`
/// (which delegates here, so the two can never drift).  The header of every
/// `.cgt` file embeds the actual values, so replays never depend on this
/// default.
pub fn canonical_heap() -> HeapConfig {
    let mut config = HeapConfig::with_object_space(12 * 1024 * 1024, HandleRepr::CgWide);
    config.handle_space_bytes = 64 * 1024 * 1024;
    config
}

fn push_histogram(entries: &mut Vec<(String, u64)>, prefix: &str, h: &Histogram) {
    for (i, &count) in h.counts().iter().enumerate() {
        entries.push((format!("{prefix}.bucket{i}"), count));
    }
    entries.push((format!("{prefix}.total"), h.total()));
    let sum = h.sum();
    entries.push((format!("{prefix}.sum_lo"), sum as u64));
    entries.push((format!("{prefix}.sum_hi"), (sum >> 64) as u64));
    // Min/max as recorded; u64::MAX / 0 for an empty histogram, mirroring
    // the histogram's internal empty state so equality is exact.
    entries.push((format!("{prefix}.min"), h.min().unwrap_or(u64::MAX)));
    entries.push((format!("{prefix}.max"), h.max().unwrap_or(0)));
}

/// The canonical `"cg"` footer section for a collector's final statistics.
pub fn cg_section(stats: &CgStats, breakdown: &ObjectBreakdown) -> FooterSection {
    let mut entries = Vec::with_capacity(48);
    let mut n = |key: &str, value: u64| entries.push((key.to_string(), value));
    n("objects_created", stats.objects_created);
    n("objects_collected", stats.objects_collected);
    n("objects_collected_exactly", stats.objects_collected_exactly);
    n("objects_thread_shared", stats.objects_thread_shared);
    n("objects_recycled", stats.objects_recycled);
    n("contaminations", stats.contaminations);
    n("unions", stats.unions);
    n("static_opt_skips", stats.static_opt_skips);
    n("returns_retargeted", stats.returns_retargeted);
    n("reset_collected_by_msa", stats.reset_collected_by_msa);
    n("reset_less_live", stats.reset_less_live);
    n("resets", stats.resets);
    n("recycle_probes", stats.recycle_probes);
    n("breakdown.popped", breakdown.popped);
    n("breakdown.static_objects", breakdown.static_objects);
    n("breakdown.thread_shared", breakdown.thread_shared);
    push_histogram(&mut entries, "block_sizes", &stats.block_sizes);
    push_histogram(&mut entries, "age_at_death", &stats.age_at_death);
    FooterSection {
        name: CG_SECTION.to_string(),
        entries,
    }
}

/// The canonical `"vm"` footer section for a recording run's interpreter
/// statistics.
pub fn vm_section(stats: &VmStats) -> FooterSection {
    let entries = vec![
        ("instructions".to_string(), stats.instructions),
        ("method_calls".to_string(), stats.method_calls),
        ("objects_allocated".to_string(), stats.objects_allocated),
        ("arrays_allocated".to_string(), stats.arrays_allocated),
        (
            "recycled_allocations".to_string(),
            stats.recycled_allocations,
        ),
        ("frames_popped".to_string(), stats.frames_popped),
        ("threads_spawned".to_string(), stats.threads_spawned),
        ("max_stack_depth".to_string(), stats.max_stack_depth as u64),
        ("gc_cycles".to_string(), stats.gc_cycles),
        ("allocation_retries".to_string(), stats.allocation_retries),
        (
            "collector_freed_objects".to_string(),
            stats.collector_freed_objects,
        ),
        (
            "collector_freed_bytes".to_string(),
            stats.collector_freed_bytes,
        ),
        (
            "collector_marked_objects".to_string(),
            stats.collector_marked_objects,
        ),
    ];
    FooterSection {
        name: VM_SECTION.to_string(),
        entries,
    }
}

/// Rebuilds a [`VmStats`] from a `"vm"` footer section.
///
/// Returns `None` when a field is missing (a foreign or future section);
/// unknown extra entries are ignored.
pub fn vm_stats_from_section(section: &FooterSection) -> Option<VmStats> {
    let get = |key: &str| -> Option<u64> {
        section
            .entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    };
    Some(VmStats {
        instructions: get("instructions")?,
        method_calls: get("method_calls")?,
        objects_allocated: get("objects_allocated")?,
        arrays_allocated: get("arrays_allocated")?,
        recycled_allocations: get("recycled_allocations")?,
        frames_popped: get("frames_popped")?,
        threads_spawned: get("threads_spawned")?,
        max_stack_depth: get("max_stack_depth")? as usize,
        gc_cycles: get("gc_cycles")?,
        allocation_retries: get("allocation_retries")?,
        collector_freed_objects: get("collector_freed_objects")?,
        collector_freed_bytes: get("collector_freed_bytes")?,
        collector_marked_objects: get("collector_marked_objects")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_section_round_trips() {
        let stats = VmStats {
            instructions: 1,
            method_calls: 2,
            objects_allocated: 3,
            arrays_allocated: 4,
            recycled_allocations: 5,
            frames_popped: 6,
            threads_spawned: 7,
            max_stack_depth: 8,
            gc_cycles: 9,
            allocation_retries: 10,
            collector_freed_objects: 11,
            collector_freed_bytes: 12,
            collector_marked_objects: 13,
        };
        let section = vm_section(&stats);
        assert_eq!(section.name, VM_SECTION);
        assert_eq!(vm_stats_from_section(&section), Some(stats));
    }

    #[test]
    fn vm_section_with_missing_field_is_rejected() {
        let stats = VmStats::default();
        let mut section = vm_section(&stats);
        section.entries.retain(|(k, _)| k != "gc_cycles");
        assert_eq!(vm_stats_from_section(&section), None);
    }

    #[test]
    fn cg_section_distinguishes_histogram_contents() {
        let mut a = CgStats::new();
        let mut b = CgStats::new();
        // Same bucket (<=10), different samples: only the exact sum/min/max
        // serialization can tell these apart.
        a.block_sizes.record(7);
        b.block_sizes.record(8);
        let breakdown = ObjectBreakdown::default();
        assert_ne!(
            cg_section(&a, &breakdown).entries,
            cg_section(&b, &breakdown).entries
        );
        assert_eq!(
            cg_section(&a, &breakdown).entries,
            cg_section(&a.clone(), &breakdown).entries
        );
    }

    #[test]
    fn canonical_collector_uses_preferred_config_without_verification() {
        let config = canonical_config();
        assert!(!config.verify_tainted);
        let _ = canonical_collector();
    }
}
