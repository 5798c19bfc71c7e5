//! The §3.7 recycle list.
//!
//! When recycling is enabled, dead (but still allocated) objects wait to be
//! handed back to the allocator instead of being freed.  The paper's
//! implementation keeps them in collection order and first-fit-scans the
//! whole list on every allocation; the §4.8 experiment measures exactly
//! that scan (`CgStats::recycle_probes`) against the heap allocator's
//! search, so the list here does the same.

use cg_vm::Handle;

/// Dead objects awaiting reuse, in collection order.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecycleList {
    corpses: Vec<Handle>,
}

impl RecycleList {
    /// Number of corpses currently waiting.
    pub(crate) fn len(&self) -> usize {
        self.corpses.len()
    }

    /// Whether `handle` is waiting (a linear scan: only the soundness
    /// verifier asks).
    pub(crate) fn contains(&self, handle: Handle) -> bool {
        self.corpses.contains(&handle)
    }

    /// Adds a corpse at the end of the list.
    pub(crate) fn push(&mut self, handle: Handle) {
        self.corpses.push(handle);
    }

    /// Claims the first corpse that `try_claim` accepts (the closure checks
    /// the fit against the heap and reinitialises the object; returning
    /// `true` claims it).  Each examined corpse increments `probes` — that
    /// counter is the §4.8 cost accounting.
    pub(crate) fn take(
        &mut self,
        probes: &mut u64,
        mut try_claim: impl FnMut(Handle) -> bool,
    ) -> Option<Handle> {
        for i in 0..self.corpses.len() {
            *probes += 1;
            let handle = self.corpses[i];
            if try_claim(handle) {
                // Preserve collection order, exactly like the paper's list.
                self.corpses.remove(i);
                return Some(handle);
            }
        }
        None
    }

    /// Keeps only the corpses `keep` accepts (used when a traditional
    /// collection sweeps objects out from under the recycle list).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(Handle) -> bool) {
        self.corpses.retain(|&h| keep(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> Handle {
        Handle::from_index(i)
    }

    #[test]
    fn first_fit_scans_in_collection_order() {
        let mut list = RecycleList::default();
        list.push(h(1));
        list.push(h(2));
        list.push(h(3));
        assert_eq!(list.len(), 3);
        let mut probes = 0;
        // Claim the first corpse with at least 4 slots: h(2), after probing
        // h(1) first.
        let sizes = [0usize, 1, 4, 4];
        let taken = list.take(&mut probes, |handle| sizes[handle.index_usize()] >= 4);
        assert_eq!(taken, Some(h(2)));
        assert_eq!(probes, 2);
        assert_eq!(list.len(), 2);
        assert!(list.contains(h(3)) && !list.contains(h(2)));
        // Order is preserved for the remaining corpses.
        let taken = list.take(&mut probes, |_| true);
        assert_eq!(taken, Some(h(1)));
    }

    #[test]
    fn take_from_empty_returns_none() {
        let mut list = RecycleList::default();
        let mut probes = 0;
        assert_eq!(list.take(&mut probes, |_| true), None);
        assert_eq!(probes, 0);
    }

    #[test]
    fn retain_drops_swept_corpses() {
        let mut list = RecycleList::default();
        for i in 0..10 {
            list.push(h(i));
        }
        list.retain(|handle| handle.index_usize() % 2 == 0);
        assert_eq!(list.len(), 5);
        let mut probes = 0;
        while list.take(&mut probes, |_| true).is_some() {}
        assert_eq!(list.len(), 0);
    }
}
