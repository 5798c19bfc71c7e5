//! Statistics collected by the contaminated collector.
//!
//! Every experiment in Chapter 4 of the thesis reads off one of these
//! counters or histograms; the field documentation notes which figure each
//! one feeds.

use cg_stats::Histogram;

/// Final disposition of every object the program created, mirroring the
//  popped / static / thread breakdown of Appendix A.2–A.4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectBreakdown {
    /// Objects collected by the contaminated collector when their dependent
    /// frame popped ("popped" in Appendix A).
    pub popped: u64,
    /// Objects still held by static references when the program ended
    /// ("static" in Appendix A).
    pub static_objects: u64,
    /// Objects demoted to the static set because more than one thread
    /// accessed them ("thread" in Appendix A).
    pub thread_shared: u64,
}

impl ObjectBreakdown {
    /// Total number of objects across all dispositions.
    pub fn total(&self) -> u64 {
        self.popped + self.static_objects + self.thread_shared
    }
}

/// Counters and distributions maintained by [`ContaminatedGc`](crate::ContaminatedGc).
///
/// `CgStats` compares by value (all counters and both histograms), which is
/// what the trace-equivalence tests rely on: a replayed run must reproduce a
/// live run's statistics *exactly*, not approximately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CgStats {
    /// Objects (instances + arrays) the program created (Figures 4.1, 4.9).
    pub objects_created: u64,
    /// Objects collected at frame pops — the "collectable" numerator of
    /// Figures 4.1 and 4.9.
    pub objects_collected: u64,
    /// Objects collected in singleton blocks — the "exactly collectable"
    /// column of Figures 4.5 and 4.9.
    pub objects_collected_exactly: u64,
    /// Objects demoted to the static set because a second thread touched
    /// them (Figures 4.2–4.4, A.1).
    pub objects_thread_shared: u64,
    /// Objects recycled through the §3.7 recycle list (Figure 4.13).
    pub objects_recycled: u64,
    /// Reference-store (contamination) events processed.
    pub contaminations: u64,
    /// Union operations actually performed (two distinct blocks merged).
    pub unions: u64,
    /// Contaminations skipped by the §3.4 static optimisation.
    pub static_opt_skips: u64,
    /// `areturn` events that re-targeted a block to the caller's frame.
    pub returns_retargeted: u64,
    /// Blocks freed at frame pops, by size (Figure 4.5: 1,2,3,4,5,6–10,>10).
    pub block_sizes: Histogram,
    /// Frame distance between an object's birth and the frame whose pop
    /// collected it (Figure 4.6: 0,1,2,3,4,5,>5).
    pub age_at_death: Histogram,
    /// Objects that a traditional collection found unreachable while the
    /// contaminated collector still considered them live (Figure 4.11,
    /// "collected by MSA").
    pub reset_collected_by_msa: u64,
    /// Objects whose dependent frame improved (moved younger) during a §3.6
    /// resetting pass (Figure 4.11, "less live").
    pub reset_less_live: u64,
    /// Resetting passes performed.
    pub resets: u64,
    /// First-fit probes of the recycle list (cost accounting for §4.8).
    pub recycle_probes: u64,
}

impl Default for CgStats {
    fn default() -> Self {
        Self {
            objects_created: 0,
            objects_collected: 0,
            objects_collected_exactly: 0,
            objects_thread_shared: 0,
            objects_recycled: 0,
            contaminations: 0,
            unions: 0,
            static_opt_skips: 0,
            returns_retargeted: 0,
            block_sizes: Histogram::new("equilive-block-size", &[1, 2, 3, 4, 5, 10]),
            age_at_death: Histogram::new("age-at-death-frames", &[0, 1, 2, 3, 4, 5]),
            reset_collected_by_msa: 0,
            reset_less_live: 0,
            resets: 0,
            recycle_probes: 0,
        }
    }
}

impl CgStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Percentage of created objects collected by the contaminated collector
    /// (the headline number of Figures 4.1 and 4.9).
    pub fn collectable_percent(&self) -> f64 {
        cg_stats::percent(self.objects_collected, self.objects_created)
    }

    /// Percentage of created objects collected in singleton (exact) blocks
    /// (Figure 4.9, "Exactly Collectable").
    pub fn exactly_collectable_percent(&self) -> f64 {
        cg_stats::percent(self.objects_collected_exactly, self.objects_created)
    }

    /// Percentage of created objects recycled (Figure 4.13).
    pub fn recycled_percent(&self) -> f64 {
        cg_stats::percent(self.objects_recycled, self.objects_created)
    }

    /// Adds another collector's statistics into this one: counters add and
    /// histograms merge bucket-wise.
    ///
    /// This is how a sharded evaluation aggregates per-shard statistics into
    /// the totals a single-threaded run reports.  Every counter is either
    /// per-event (counted by exactly one shard) or per-block (blocks are
    /// owned by exactly one shard), so the sum over shards is exact, not
    /// approximate.
    pub fn merge_from(&mut self, other: &CgStats) {
        self.objects_created += other.objects_created;
        self.objects_collected += other.objects_collected;
        self.objects_collected_exactly += other.objects_collected_exactly;
        self.objects_thread_shared += other.objects_thread_shared;
        self.objects_recycled += other.objects_recycled;
        self.contaminations += other.contaminations;
        self.unions += other.unions;
        self.static_opt_skips += other.static_opt_skips;
        self.returns_retargeted += other.returns_retargeted;
        self.block_sizes.merge(&other.block_sizes);
        self.age_at_death.merge(&other.age_at_death);
        self.reset_collected_by_msa += other.reset_collected_by_msa;
        self.reset_less_live += other.reset_less_live;
        self.resets += other.resets;
        self.recycle_probes += other.recycle_probes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = ObjectBreakdown {
            popped: 10,
            static_objects: 5,
            thread_shared: 2,
        };
        assert_eq!(b.total(), 17);
        assert_eq!(ObjectBreakdown::default().total(), 0);
    }

    #[test]
    fn percentages_follow_counts() {
        let mut s = CgStats::new();
        s.objects_created = 200;
        s.objects_collected = 120;
        s.objects_collected_exactly = 50;
        s.objects_recycled = 20;
        assert!((s.collectable_percent() - 60.0).abs() < 1e-9);
        assert!((s.exactly_collectable_percent() - 25.0).abs() < 1e-9);
        assert!((s.recycled_percent() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_percentages_are_zero() {
        let s = CgStats::new();
        assert_eq!(s.collectable_percent(), 0.0);
        assert_eq!(s.exactly_collectable_percent(), 0.0);
        assert_eq!(s.recycled_percent(), 0.0);
    }

    #[test]
    fn histograms_have_paper_buckets() {
        let s = CgStats::new();
        assert_eq!(s.block_sizes.bounds(), &[1, 2, 3, 4, 5, 10]);
        assert_eq!(s.age_at_death.bounds(), &[0, 1, 2, 3, 4, 5]);
    }
}
