//! The packed disjoint-set forest of §3.5: parent pointer and rank share one
//! machine word per element.
//!
//! The straightforward representation (`cg_testutil::DisjointSets`, the
//! reference model this forest is property-tested against) keeps a parent
//! array and a separate rank array.  The paper observes that
//! union by rank bounds the rank by `log2(n)` — it never exceeded ten on
//! SPECjvm98 — so the production implementation stores the rank in the bits
//! of the parent word itself, halving the per-handle space cost (§3.5,
//! reflected in `HandleRepr::CgPacked`'s accounting) and touching one cache
//! line instead of two on every find.
//!
//! The encoding here uses the top bit of the `u32` word as the root
//! discriminator:
//!
//! * root:     `1 << 31 | rank` — the low bits hold the rank directly;
//! * interior: `parent`         — the element id of the parent (ids are
//!   therefore limited to `2^31 - 1`, far beyond any workload's object
//!   count).
//!
//! This is the hot-path forest: [`find`](PackedForest::find) and
//! [`union`](PackedForest::union) run on every reference store the VM
//! executes, so existence checks are `debug_assert!`s (slice indexing still
//! bounds-checks; the release build simply skips the redundant friendly
//! message) and nothing on the store path allocates or scans.
//! `max_rank` and `set_count` are maintained incrementally instead of by the
//! O(n) root scans the plain forest originally used.

/// Identifier of an element in a forest.
///
/// [`PackedForest::make_set`] hands out the most recently
/// [released](PackedForest::release) id first and otherwise the next unused
/// one, so the ids in use stay dense below the peak number of live
/// elements.  The contaminated collector gives every object *incarnation*
/// its own element and releases the elements of a block when the block
/// dies; an id is therefore not a heap handle, and nothing the collector
/// reports depends on which id an object got.
pub(crate) type ElementId = u32;

/// Result of a [`PackedForest::union`] operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct UnionOutcome {
    /// The representative (root) of the combined set after the union.
    pub(crate) root: ElementId,
    /// The previous root that was absorbed, if the two elements were in
    /// different sets; `None` if they were already in the same set.
    pub(crate) absorbed: Option<ElementId>,
}

/// Top bit of a word: set for roots (low bits = rank), clear for interior
/// nodes (low bits = parent id).  The lock-free forest shares the encoding.
pub(crate) const ROOT_BIT: u32 = 1 << 31;

/// A disjoint-set forest storing parent and rank in a single `u32` word per
/// element (§3.5), with union by rank and iterative path compression.
///
/// Behavioural equivalent of the plain `cg_testutil::DisjointSets` — the
/// property tests in this module drive both against random operation
/// sequences and require identical partitions, set counts and outcomes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PackedForest {
    /// One packed word per element: `ROOT_BIT | rank` or a parent id.
    words: Vec<u32>,
    /// Released ids, handed out again last-in first-out by `make_set`.
    free: Vec<ElementId>,
    /// Maintained incrementally: one new set per `make_set`, one fewer per
    /// merging `union`.
    set_count: usize,
    /// High-water mark of any root's rank, maintained on `union` (rank only
    /// ever grows there): the bound §3.5's packing argument relies on.
    max_rank: u8,
}

impl PackedForest {
    /// Creates an empty forest.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Size of the element table: the most elements ever live at once.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no elements have been created.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of distinct sets currently in the forest (maintained
    /// incrementally; O(1)).
    pub(crate) fn set_count(&self) -> usize {
        self.set_count
    }

    /// The largest rank any root has ever reached (O(1); see the field
    /// documentation for the high-water-mark semantics).
    pub(crate) fn max_rank(&self) -> u8 {
        self.max_rank
    }

    /// Whether `id` names an element of this forest.
    pub(crate) fn contains(&self, id: ElementId) -> bool {
        (id as usize) < self.words.len()
    }

    #[inline]
    fn is_root_word(word: u32) -> bool {
        word & ROOT_BIT != 0
    }

    /// Creates a new singleton set and returns its element id: the most
    /// recently released id, or else the next unused one.
    ///
    /// # Panics
    ///
    /// Panics if the forest already holds `2^31 - 1` elements (the packed
    /// word reserves one bit for the root discriminator).
    pub(crate) fn make_set(&mut self) -> ElementId {
        self.set_count += 1;
        if let Some(id) = self.free.pop() {
            self.words[id as usize] = ROOT_BIT; // root, rank 0
            return id;
        }
        let id = self.words.len() as u32;
        assert!(id < ROOT_BIT, "packed forest is limited to 2^31-1 elements");
        self.words.push(ROOT_BIT);
        id
    }

    /// Returns `id` to the free list; its set is one fewer if `id` is its
    /// root.  A set is released whole — every element of it, and no find
    /// through any of them afterwards — because a surviving element could
    /// otherwise reach a reused id on its parent path.
    pub(crate) fn release(&mut self, id: ElementId) {
        debug_assert!(self.contains(id), "element {id} does not exist");
        if Self::is_root_word(self.words[id as usize]) {
            self.set_count -= 1;
        }
        self.free.push(id);
    }

    /// Finds the representative of the set containing `id`, compressing the
    /// path along the way.
    #[inline]
    pub(crate) fn find(&mut self, id: ElementId) -> ElementId {
        debug_assert!(self.contains(id), "element {id} does not exist");
        // First pass: locate the root.
        let mut root = id;
        let mut word = self.words[root as usize];
        while !Self::is_root_word(word) {
            root = word;
            word = self.words[root as usize];
        }
        // Second pass: point every node on the path directly at the root.
        let mut cur = id;
        while cur != root {
            let next = self.words[cur as usize];
            debug_assert!(!Self::is_root_word(next));
            self.words[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Finds the representative without compressing paths (read-only).
    pub(crate) fn find_immutable(&self, id: ElementId) -> ElementId {
        debug_assert!(self.contains(id), "element {id} does not exist");
        let mut root = id;
        let mut word = self.words[root as usize];
        while !Self::is_root_word(word) {
            root = word;
            word = self.words[root as usize];
        }
        root
    }

    /// Whether two elements are currently in the same set.
    pub(crate) fn same_set(&mut self, a: ElementId, b: ElementId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Unions the sets containing `a` and `b` using union by rank,
    /// returning the surviving root and the absorbed root (if a merge
    /// happened).
    pub(crate) fn union(&mut self, a: ElementId, b: ElementId) -> UnionOutcome {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return UnionOutcome {
                root: ra,
                absorbed: None,
            };
        }
        self.union_roots(ra, rb)
    }

    /// Unions two elements already known to be distinct roots, skipping the
    /// finds.  The collector's store barrier uses this after it has already
    /// resolved both operands' roots once.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `ra` and `rb` are distinct current roots.
    pub(crate) fn union_roots(&mut self, ra: ElementId, rb: ElementId) -> UnionOutcome {
        debug_assert!(ra != rb, "union_roots of the same root");
        let wa = self.words[ra as usize];
        let wb = self.words[rb as usize];
        debug_assert!(Self::is_root_word(wa), "{ra} is not a root");
        debug_assert!(Self::is_root_word(wb), "{rb} is not a root");
        let (winner, loser) = match (wa & !ROOT_BIT).cmp(&(wb & !ROOT_BIT)) {
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Equal => {
                let rank = (wa & !ROOT_BIT) + 1;
                self.words[ra as usize] = ROOT_BIT | rank;
                self.max_rank = self.max_rank.max(rank as u8);
                (ra, rb)
            }
        };
        self.words[loser as usize] = winner;
        self.set_count -= 1;
        UnionOutcome {
            root: winner,
            absorbed: Some(loser),
        }
    }

    /// The current rank of the set rooted at `id`'s representative.
    #[cfg(test)]
    fn rank_of(&mut self, id: ElementId) -> u8 {
        let root = self.find(id);
        (self.words[root as usize] & !ROOT_BIT) as u8
    }

    /// Iterates over the current set representatives, scanning every
    /// element.  The collector never enumerates roots — it keeps its own
    /// per-frame root lists.
    #[cfg(test)]
    fn roots(&self) -> impl Iterator<Item = ElementId> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| Self::is_root_word(w))
            .map(|(i, _)| i as ElementId)
    }

    /// Groups all elements by representative as `(root, members)` pairs.
    ///
    /// Allocates and walks the whole forest; the property tests compare it
    /// with the reference model's.
    #[cfg(test)]
    fn partitions(&mut self) -> Vec<(ElementId, Vec<ElementId>)> {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<ElementId, Vec<ElementId>> = BTreeMap::new();
        for id in 0..self.words.len() as ElementId {
            let root = self.find(id);
            map.entry(root).or_default().push(id);
        }
        map.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_testutil::DisjointSets;

    #[test]
    fn new_forest_is_empty() {
        let sets = PackedForest::new();
        assert!(sets.is_empty());
        assert_eq!(sets.len(), 0);
        assert_eq!(sets.set_count(), 0);
        assert_eq!(sets.max_rank(), 0);
    }

    #[test]
    fn make_set_assigns_dense_ids() {
        let mut sets = PackedForest::new();
        assert_eq!(sets.make_set(), 0);
        assert_eq!(sets.make_set(), 1);
        assert_eq!(sets.make_set(), 2);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets.set_count(), 3);
        assert!(sets.contains(2));
        assert!(!sets.contains(3));
    }

    #[test]
    fn union_merges_and_reports_absorbed_root() {
        let mut sets = PackedForest::new();
        let a = sets.make_set();
        let b = sets.make_set();
        let out = sets.union(a, b);
        assert!(out.absorbed.is_some());
        assert_eq!(out.absorbed, Some(if out.root == a { b } else { a }));
        assert!(sets.same_set(a, b));
        assert_eq!(sets.set_count(), 1);
        assert_eq!(sets.max_rank(), 1);
        // Re-union is a no-op.
        let out = sets.union(a, b);
        assert!(out.absorbed.is_none());
        assert_eq!(sets.set_count(), 1);
    }

    #[test]
    fn union_by_rank_prefers_higher_rank_root() {
        let mut sets = PackedForest::new();
        let a = sets.make_set();
        let b = sets.make_set();
        let c = sets.make_set();
        let first = sets.union(a, b);
        let second = sets.union(c, first.root);
        assert_eq!(second.root, first.root);
        assert_eq!(second.absorbed, Some(c));
        assert_eq!(sets.rank_of(c), 1);
    }

    #[test]
    fn path_compression_flattens() {
        let mut sets = PackedForest::new();
        let ids: Vec<_> = (0..16).map(|_| sets.make_set()).collect();
        for w in ids.windows(2) {
            sets.union(w[0], w[1]);
        }
        let root = sets.find(ids[0]);
        for &id in &ids {
            assert_eq!(sets.find(id), root);
            assert_eq!(sets.find_immutable(id), root);
            if id != root {
                assert_eq!(sets.words[id as usize], root);
            }
        }
    }

    #[test]
    fn roots_and_partitions_enumerate_representatives() {
        let mut sets = PackedForest::new();
        let a = sets.make_set();
        let b = sets.make_set();
        let c = sets.make_set();
        sets.union(a, b);
        let roots: Vec<_> = sets.roots().collect();
        assert_eq!(roots.len(), 2);
        assert!(roots.contains(&c));
        let parts = sets.partitions();
        assert_eq!(parts.len(), 2);
        let sizes: Vec<usize> = parts.iter().map(|(_, m)| m.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn released_ids_are_reused_last_in_first_out() {
        let mut sets = PackedForest::new();
        let a = sets.make_set();
        let b = sets.make_set();
        let c = sets.make_set();
        let root = sets.union(a, b).root;
        // The set {a, b} dies whole; c lives on.
        sets.release(if root == a { b } else { a });
        sets.release(root);
        assert_eq!(sets.set_count(), 1);
        assert_eq!(sets.make_set(), root);
        assert_eq!(sets.make_set(), if root == a { b } else { a });
        assert_eq!(sets.len(), 3);
        assert_eq!(sets.set_count(), 3);
        // Reused ids are fresh rank-0 singletons.
        assert_eq!(sets.find(a), a);
        assert_eq!(sets.find(b), b);
        assert_eq!(sets.rank_of(root), 0);
        assert!(!sets.same_set(a, c));
        assert_eq!(sets.make_set(), 3);
    }

    #[test]
    fn rank_bound_is_logarithmic() {
        let mut sets = PackedForest::new();
        let ids: Vec<_> = (0..1024).map(|_| sets.make_set()).collect();
        let mut layer = ids;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(sets.union(pair[0], pair[1]).root);
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        assert_eq!(sets.set_count(), 1);
        assert!(sets.max_rank() <= 10, "rank {} too high", sets.max_rank());
    }

    mod properties {
        use super::*;
        use cg_testutil::TestRng;

        /// Random `(a, b)` pairs over `n` elements.
        fn random_ops(rng: &mut TestRng, n: usize, max_ops: usize) -> Vec<(u32, u32)> {
            let ops = rng.gen_range(0, max_ops);
            (0..ops)
                .map(|_| (rng.gen_range(0, n) as u32, rng.gen_range(0, n) as u32))
                .collect()
        }

        /// The packed forest is operation-for-operation identical to the
        /// plain `DisjointSets` under random union/find sequences: same
        /// outcomes, same set counts, same partitions, same max rank.
        #[test]
        fn matches_plain_forest_model() {
            for seed in 0..128u64 {
                let mut rng = TestRng::new(seed);
                let n = rng.gen_range(1, 96);
                let mut packed = PackedForest::new();
                let mut plain = DisjointSets::new();
                for _ in 0..n {
                    packed.make_set();
                    plain.make_set();
                }
                for (a, b) in random_ops(&mut rng, n, 300) {
                    // Interleave finds so path compression diverges if the
                    // representations disagree on roots.
                    assert_eq!(packed.find(a), plain.find(a), "seed {seed}");
                    let po = packed.union(a, b);
                    let fo = plain.union(a, b);
                    assert_eq!((po.root, po.absorbed), fo, "seed {seed}: union({a}, {b})");
                    assert_eq!(packed.set_count(), plain.set_count(), "seed {seed}");
                }
                assert_eq!(packed.max_rank(), plain.max_rank(), "seed {seed}");
                let mut plain_clone = plain.clone();
                assert_eq!(packed.partitions(), plain_clone.partitions(), "seed {seed}");
                for id in 0..n as u32 {
                    assert_eq!(
                        packed.find_immutable(id),
                        plain.find_immutable(id),
                        "seed {seed}"
                    );
                }
            }
        }

        /// A forest that releases whole sets and reuses their ids behaves
        /// like the plain forest that gives every element a fresh id: the
        /// same union outcomes, partitions, set counts and max rank, with an
        /// element table no larger than the peak number of live elements.
        #[test]
        fn reusing_released_ids_matches_a_forest_that_never_reuses() {
            use std::collections::HashMap;
            for seed in 0..64u64 {
                let mut rng = TestRng::new(seed);
                let mut packed = PackedForest::new();
                let mut plain = DisjointSets::new();
                // The plain element standing for each live packed id.
                let mut model: Vec<Option<u32>> = Vec::new();
                let mut peak_live = 0;
                for step in 0..300 {
                    let live: Vec<u32> = (0..model.len() as u32)
                        .filter(|&id| model[id as usize].is_some())
                        .collect();
                    let pick = |rng: &mut TestRng| live[rng.gen_range(0, live.len())];
                    match rng.gen_range(0, 5) {
                        0 | 1 if live.len() >= 2 => {
                            let (a, b) = (pick(&mut rng), pick(&mut rng));
                            let (ma, mb) = (model[a as usize].unwrap(), model[b as usize].unwrap());
                            let po = packed.union(a, b);
                            let (root, absorbed) = plain.union(ma, mb);
                            assert_eq!(
                                model[po.root as usize],
                                Some(root),
                                "seed {seed} step {step}"
                            );
                            assert_eq!(
                                po.absorbed.map(|x| model[x as usize].unwrap()),
                                absorbed,
                                "seed {seed} step {step}"
                            );
                        }
                        2 if !live.is_empty() => {
                            let doomed = plain.find(model[pick(&mut rng) as usize].unwrap());
                            for &id in &live {
                                if plain.find(model[id as usize].unwrap()) == doomed {
                                    packed.release(id);
                                    model[id as usize] = None;
                                }
                            }
                        }
                        _ => {
                            let id = packed.make_set() as usize;
                            if model.len() <= id {
                                model.resize(id + 1, None);
                            }
                            assert!(model[id].is_none(), "seed {seed}: live id {id} reissued");
                            model[id] = Some(plain.make_set());
                        }
                    }
                    // Packed roots and plain roots pair up one to one.
                    let mut pairs: HashMap<u32, u32> = HashMap::new();
                    let mut back: HashMap<u32, u32> = HashMap::new();
                    let mut live_count = 0;
                    for id in 0..model.len() as u32 {
                        let Some(m) = model[id as usize] else {
                            continue;
                        };
                        live_count += 1;
                        let (pr, mr) = (packed.find(id), plain.find(m));
                        assert_eq!(
                            *pairs.entry(pr).or_insert(mr),
                            mr,
                            "seed {seed} step {step}"
                        );
                        assert_eq!(*back.entry(mr).or_insert(pr), pr, "seed {seed} step {step}");
                    }
                    assert_eq!(packed.set_count(), pairs.len(), "seed {seed} step {step}");
                    peak_live = peak_live.max(live_count);
                    assert!(packed.len() <= peak_live, "seed {seed} step {step}");
                }
                assert_eq!(packed.max_rank(), plain.max_rank(), "seed {seed}");
            }
        }
    }
}
