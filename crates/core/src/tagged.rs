//! Disjoint sets whose roots carry a mergeable payload.

use crate::packed::{ElementId, PackedForest, UnionOutcome};

/// A per-set payload that knows how to merge with another payload when two
/// sets are unioned.
///
/// For the contaminated collector the payload is the equilive block record
/// ([`BlockInfo`](crate::equilive::BlockInfo)): the dependent frame, the
/// block's static-domain node, and its member handles.  When block `P` and
/// block `Q` merge, the paper specifies the merged block depends on the
/// *older* of the two dependent frames — that policy lives in the payload's
/// `merge`, which also appends `Q`'s members after `P`'s.
pub(crate) trait MergePayload: Sized {
    /// Merges `absorbed` into `self`.
    ///
    /// `self` is the payload of the surviving root; after the call the
    /// absorbed root's payload is dropped.
    fn merge(&mut self, absorbed: Self);
}

/// A disjoint-set forest whose roots each carry a payload of type `T`.
///
/// The forest underneath is the packed single-word-per-element
/// representation of §3.5 ([`PackedForest`]); the behavioural model it is
/// verified against is the plain `cg_testutil::DisjointSets`.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaggedSets<T> {
    forest: PackedForest,
    /// Indexed by element id; `Some` only at the roots of live sets.
    payloads: Vec<Option<T>>,
}

impl<T: MergePayload> TaggedSets<T> {
    /// Creates an empty tagged forest.
    pub(crate) fn new() -> Self {
        Self {
            forest: PackedForest::new(),
            payloads: Vec::new(),
        }
    }

    /// Size of the element table: the most elements ever live at once.
    pub(crate) fn len(&self) -> usize {
        self.forest.len()
    }

    /// Whether no elements have been inserted.
    pub(crate) fn is_empty(&self) -> bool {
        self.forest.is_empty()
    }

    /// Number of distinct sets.
    pub(crate) fn set_count(&self) -> usize {
        self.forest.set_count()
    }

    /// Inserts a new singleton set carrying `payload`, returning its id
    /// (a released id if there is one).
    pub(crate) fn insert(&mut self, payload: T) -> ElementId {
        let id = self.forest.make_set();
        match self.payloads.get_mut(id as usize) {
            Some(slot) => {
                debug_assert!(slot.is_none(), "released element {id} kept a payload");
                *slot = Some(payload);
            }
            None => self.payloads.push(Some(payload)),
        }
        id
    }

    /// Releases `id` for reuse by [`insert`](Self::insert), dropping its
    /// payload if it is a root.  The rule of [`PackedForest::release`]
    /// applies: a set is released whole.
    pub(crate) fn release(&mut self, id: ElementId) {
        self.payloads[id as usize] = None;
        self.forest.release(id);
    }

    /// Finds the representative of `id`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never inserted.
    pub(crate) fn find(&mut self, id: ElementId) -> ElementId {
        self.forest.find(id)
    }

    /// Whether two elements are in the same set.
    ///
    /// # Panics
    ///
    /// Panics if either element was never inserted.
    pub(crate) fn same_set(&mut self, a: ElementId, b: ElementId) -> bool {
        self.forest.same_set(a, b)
    }

    /// Unions the sets of `a` and `b`, merging the absorbed root's payload
    /// into the surviving root's payload.
    ///
    /// # Panics
    ///
    /// Panics if either element was never inserted.
    pub(crate) fn union(&mut self, a: ElementId, b: ElementId) -> UnionOutcome {
        let outcome = self.forest.union(a, b);
        self.merge_payloads(outcome);
        outcome
    }

    /// Unions two elements already known to be distinct current roots,
    /// skipping the finds.  The collector's store barrier resolves both
    /// operands' roots exactly once per event and then merges through this.
    ///
    /// # Panics
    ///
    /// Debug-asserts (via the forest) that `ra` and `rb` are distinct
    /// roots; panics if either carries no payload.
    pub(crate) fn union_roots(&mut self, ra: ElementId, rb: ElementId) -> UnionOutcome {
        let outcome = self.forest.union_roots(ra, rb);
        self.merge_payloads(outcome);
        outcome
    }

    fn merge_payloads(&mut self, outcome: UnionOutcome) {
        if let Some(absorbed) = outcome.absorbed {
            let taken = self.payloads[absorbed as usize]
                .take()
                .expect("absorbed root must carry a payload");
            let winner = self.payloads[outcome.root as usize]
                .as_mut()
                .expect("surviving root must carry a payload");
            winner.merge(taken);
        }
    }

    /// Shared access to the payload of `id`'s set.
    ///
    /// Returns `None` only if `id` was never inserted.
    pub(crate) fn payload(&mut self, id: ElementId) -> Option<&T> {
        if !self.forest.contains(id) {
            return None;
        }
        let root = self.forest.find(id);
        self.payloads[root as usize].as_ref()
    }

    /// Read-only payload access without path compression; `id` must be a
    /// current root for this to return `Some`.
    pub(crate) fn payload_of_root(&self, root: ElementId) -> Option<&T> {
        self.payloads.get(root as usize).and_then(|p| p.as_ref())
    }

    /// Mutable payload access without a find; `root` must be a current root
    /// for this to return `Some`.
    pub(crate) fn payload_mut_of_root(&mut self, root: ElementId) -> Option<&mut T> {
        self.payloads
            .get_mut(root as usize)
            .and_then(|p| p.as_mut())
    }

    /// Iterates over `(root, payload)` pairs for every current set.
    #[cfg(test)]
    fn iter_sets(&self) -> impl Iterator<Item = (ElementId, &T)> + '_ {
        self.payloads
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i as ElementId, p)))
    }

    /// Access to the underlying packed forest (e.g. for rank statistics).
    pub(crate) fn forest(&self) -> &PackedForest {
        &self.forest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Block {
        frame: u64,
        size: u64,
    }

    impl MergePayload for Block {
        fn merge(&mut self, other: Self) {
            self.frame = self.frame.min(other.frame);
            self.size += other.size;
        }
    }

    fn block(frame: u64) -> Block {
        Block { frame, size: 1 }
    }

    #[test]
    fn insert_creates_singletons_with_payload() {
        let mut sets: TaggedSets<Block> = TaggedSets::new();
        let a = sets.insert(block(7));
        assert_eq!(sets.len(), 1);
        assert_eq!(sets.set_count(), 1);
        assert_eq!(sets.payload(a), Some(&block(7)));
    }

    #[test]
    fn union_merges_payload_towards_older_frame() {
        let mut sets: TaggedSets<Block> = TaggedSets::new();
        let a = sets.insert(block(3));
        let b = sets.insert(block(5));
        let c = sets.insert(block(1));
        sets.union(a, b);
        assert_eq!(sets.payload(b).unwrap().frame, 3);
        assert_eq!(sets.payload(b).unwrap().size, 2);
        sets.union(b, c);
        assert_eq!(sets.payload(a).unwrap().frame, 1);
        assert_eq!(sets.payload(a).unwrap().size, 3);
        assert_eq!(sets.set_count(), 1);
    }

    #[test]
    fn union_same_set_does_not_touch_payload() {
        let mut sets: TaggedSets<Block> = TaggedSets::new();
        let a = sets.insert(block(2));
        let b = sets.insert(block(4));
        sets.union(a, b);
        let before = sets.payload(a).cloned();
        let out = sets.union(a, b);
        assert!(out.absorbed.is_none());
        assert_eq!(sets.payload(a).cloned(), before);
    }

    #[test]
    fn payload_mut_updates_through_any_member() {
        let mut sets: TaggedSets<Block> = TaggedSets::new();
        let a = sets.insert(block(9));
        let b = sets.insert(block(8));
        sets.union(a, b);
        let root = sets.find(a);
        sets.payload_mut_of_root(root).unwrap().frame = 0;
        assert_eq!(sets.payload(b).unwrap().frame, 0);
    }

    #[test]
    fn payload_of_unknown_element_is_none() {
        let mut sets: TaggedSets<Block> = TaggedSets::new();
        assert!(sets.payload(0).is_none());
        assert!(sets.payload_mut_of_root(3).is_none());
    }

    #[test]
    fn iter_sets_yields_only_roots() {
        let mut sets: TaggedSets<Block> = TaggedSets::new();
        let a = sets.insert(block(1));
        let b = sets.insert(block(2));
        let _c = sets.insert(block(3));
        sets.union(a, b);
        let roots: Vec<_> = sets.iter_sets().collect();
        assert_eq!(roots.len(), 2);
        let total: u64 = roots.iter().map(|(_, p)| p.size).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn released_set_drops_its_payload_and_gives_its_ids_back() {
        let mut sets: TaggedSets<Block> = TaggedSets::new();
        let a = sets.insert(block(1));
        let b = sets.insert(block(2));
        let c = sets.insert(block(3));
        let root = sets.union(a, b).root;
        let other = if root == a { b } else { a };
        sets.release(other);
        sets.release(root);
        assert_eq!(sets.set_count(), 1);
        assert!(sets.payload_of_root(root).is_none());
        // The ids come back, carrying the new payloads.
        assert_eq!(sets.insert(block(7)), root);
        assert_eq!(sets.insert(block(8)), other);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets.payload(root), Some(&block(7)));
        assert_eq!(sets.payload(other), Some(&block(8)));
        assert_eq!(sets.payload(c), Some(&block(3)));
    }

    #[test]
    fn payload_of_root_is_read_only_view() {
        let mut sets: TaggedSets<Block> = TaggedSets::new();
        let a = sets.insert(block(1));
        let b = sets.insert(block(2));
        let out = sets.union(a, b);
        assert!(sets.payload_of_root(out.root).is_some());
        assert!(sets.payload_of_root(out.absorbed.unwrap()).is_none());
        assert!(sets.payload_of_root(99).is_none());
    }

    mod properties {
        use super::*;
        use cg_testutil::{DisjointSets, TestRng};

        /// The sum of set sizes always equals the number of elements, and
        /// each set's frame is the minimum frame of its members, with the
        /// partition taken from the plain `DisjointSets` model driven by the
        /// same unions.
        #[test]
        fn sizes_and_min_frames_are_preserved() {
            for seed in 0..64u64 {
                let mut rng = TestRng::new(seed);
                let n = rng.gen_range(1, 48);
                let frames: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 32) as u64).collect();
                let ops: Vec<(usize, usize)> = (0..rng.gen_range(0, 128))
                    .map(|_| (rng.gen_range(0, n), rng.gen_range(0, n)))
                    .collect();
                let mut sets: TaggedSets<Block> = TaggedSets::new();
                let mut plain = DisjointSets::new();
                for &f in &frames {
                    sets.insert(Block { frame: f, size: 1 });
                    plain.make_set();
                }
                for (a, b) in ops {
                    sets.union(a as ElementId, b as ElementId);
                    plain.union(a as u32, b as u32);
                }
                let total: u64 = sets.iter_sets().map(|(_, p)| p.size).sum();
                assert_eq!(total, n as u64, "seed {seed}");
                // Recompute expected min frame per partition and compare.
                for id in 0..n as ElementId {
                    let root = plain.find(id);
                    let expected_min = (0..n as ElementId)
                        .filter(|&j| plain.find(j) == root)
                        .map(|j| frames[j as usize])
                        .min()
                        .unwrap();
                    assert_eq!(sets.payload(id).unwrap().frame, expected_min, "seed {seed}");
                }
            }
        }
    }
}
