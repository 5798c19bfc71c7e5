//! The per-kind event census: what a `.cgt` footer records and what
//! [`TraceWriter`](crate::TraceWriter) and [`TraceReader`](crate::TraceReader)
//! tally as events pass through them.

use cg_vm::EventKind;

/// Counts of each event kind in a recorded stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// `Allocate` events (instances + arrays, including recycled ones).
    pub allocations: u64,
    /// `SlotWrite` heap-mirroring events.
    pub slot_writes: u64,
    /// `ObjectAccess` events.
    pub object_accesses: u64,
    /// `ReferenceStore` (contamination) events.
    pub reference_stores: u64,
    /// `StaticStore` events.
    pub static_stores: u64,
    /// `ReturnValue` (areturn) events.
    pub return_values: u64,
    /// `FramePush` events.
    pub frame_pushes: u64,
    /// `FramePop` events.
    pub frame_pops: u64,
    /// `Collect` (full collection) events.
    pub collects: u64,
    /// `ProgramEnd` events (1 for a complete run).
    pub program_ends: u64,
}

impl TraceStats {
    /// Counts one event of the given kind.
    pub fn record(&mut self, kind: EventKind) {
        *self.slot_mut(kind) += 1;
    }

    /// The count for one kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        match kind {
            EventKind::Allocate => self.allocations,
            EventKind::SlotWrite => self.slot_writes,
            EventKind::ObjectAccess => self.object_accesses,
            EventKind::ReferenceStore => self.reference_stores,
            EventKind::StaticStore => self.static_stores,
            EventKind::ReturnValue => self.return_values,
            EventKind::FramePush => self.frame_pushes,
            EventKind::FramePop => self.frame_pops,
            EventKind::Collect => self.collects,
            EventKind::ProgramEnd => self.program_ends,
        }
    }

    fn slot_mut(&mut self, kind: EventKind) -> &mut u64 {
        match kind {
            EventKind::Allocate => &mut self.allocations,
            EventKind::SlotWrite => &mut self.slot_writes,
            EventKind::ObjectAccess => &mut self.object_accesses,
            EventKind::ReferenceStore => &mut self.reference_stores,
            EventKind::StaticStore => &mut self.static_stores,
            EventKind::ReturnValue => &mut self.return_values,
            EventKind::FramePush => &mut self.frame_pushes,
            EventKind::FramePop => &mut self.frame_pops,
            EventKind::Collect => &mut self.collects,
            EventKind::ProgramEnd => &mut self.program_ends,
        }
    }

    /// All counts in [`EventKind`] tag order — the `.cgt` footer census.
    pub fn counts(&self) -> [u64; EventKind::ALL.len()] {
        EventKind::ALL.map(|kind| self.count(kind))
    }

    /// Total events across all kinds.
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_census_round_trips() {
        let mut stats = TraceStats::default();
        stats.record(EventKind::FramePush);
        stats.record(EventKind::FramePush);
        stats.record(EventKind::FramePop);
        let counts = stats.counts();
        assert_eq!(counts[EventKind::FramePush.tag() as usize], 2);
        assert_eq!(counts[EventKind::FramePop.tag() as usize], 1);
        assert_eq!(stats.total(), 3);
        assert_eq!(stats.count(EventKind::Collect), 0);
    }
}
