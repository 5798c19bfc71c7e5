//! The plain disjoint-set forest: union by rank, iterative path compression.
//!
//! This is the readable reference model for the contaminated collector's
//! equilive relation (thesis §2.2 and §3.1.1): parent and rank stored in
//! separate arrays, every existence check a hard `assert!`.  The collector's
//! own packed forests are property-tested against it, and the micro-benches
//! time it.
//!
//! # Example
//!
//! ```
//! use cg_testutil::DisjointSets;
//!
//! let mut sets = DisjointSets::new();
//! let a = sets.make_set();
//! let b = sets.make_set();
//! let c = sets.make_set();
//! sets.union(a, b);
//! assert!(sets.same_set(a, b));
//! assert!(!sets.same_set(a, c));
//! assert_eq!(sets.set_count(), 2);
//! ```

/// A disjoint-set forest with union by rank and path compression.
///
/// This is the structure the paper embeds in each object handle: one parent
/// pointer plus a small integer rank (§3.1.1).  The paper notes the rank
/// never exceeded ten on SPECjvm98, which lets the production implementation
/// squeeze the rank into the low bits of the parent pointer (§3.5); here rank
/// is stored separately but [`DisjointSets::max_rank`] exposes the bound so
/// the packed-handle accounting in `cg-heap` can rely on it.
///
/// # Example
///
/// ```
/// use cg_testutil::DisjointSets;
///
/// let mut sets = DisjointSets::with_capacity(8);
/// let ids: Vec<_> = (0..8).map(|_| sets.make_set()).collect();
/// for pair in ids.chunks(2) {
///     sets.union(pair[0], pair[1]);
/// }
/// assert_eq!(sets.set_count(), 4);
/// assert!(sets.max_rank() <= 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisjointSets {
    parent: Vec<u32>,
    rank: Vec<u8>,
    set_count: usize,
    /// High-water mark of any root's rank, maintained incrementally on
    /// `union` (rank only ever grows there) instead of by an O(n) root scan.
    max_rank: u8,
}

impl DisjointSets {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty forest with room for `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            parent: Vec::with_capacity(capacity),
            rank: Vec::with_capacity(capacity),
            set_count: 0,
            max_rank: 0,
        }
    }

    /// Number of elements ever created.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no elements have been created.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of distinct sets currently in the forest.
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    /// Whether `id` names an element of this forest.
    pub fn contains(&self, id: u32) -> bool {
        (id as usize) < self.parent.len()
    }

    /// Creates a new singleton set and returns its element id.
    ///
    /// Ids are assigned densely: the first call returns 0, the next 1, and
    /// so on.
    pub fn make_set(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        self.set_count += 1;
        id
    }

    /// Ensures elements `0..=id` all exist, creating singletons as needed.
    ///
    /// The contaminated collector indexes elements by heap handle, and
    /// handles may be minted by the heap without the collector seeing an
    /// allocation event (e.g. VM-internal objects), so it must be able to
    /// materialise an element lazily.
    pub fn ensure(&mut self, id: u32) {
        while self.parent.len() <= id as usize {
            self.make_set();
        }
    }

    /// Finds the representative of the set containing `id`, compressing the
    /// path along the way.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never created.
    pub fn find(&mut self, id: u32) -> u32 {
        assert!(self.contains(id), "element {id} does not exist");
        // First pass: locate the root.
        let mut root = id;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Second pass: point every node on the path directly at the root.
        let mut cur = id;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Finds the representative without compressing paths (read-only).
    ///
    /// # Panics
    ///
    /// Panics if `id` was never created.
    pub fn find_immutable(&self, id: u32) -> u32 {
        assert!(self.contains(id), "element {id} does not exist");
        let mut root = id;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        root
    }

    /// Whether two elements are currently in the same set.
    ///
    /// # Panics
    ///
    /// Panics if either element was never created.
    pub fn same_set(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Unions the sets containing `a` and `b` using union by rank.
    ///
    /// Returns `(root, absorbed)`: the surviving root and, when a merge
    /// happened, the root that was absorbed (`None` if `a` and `b` were
    /// already in the same set).
    ///
    /// # Panics
    ///
    /// Panics if either element was never created.
    pub fn union(&mut self, a: u32, b: u32) -> (u32, Option<u32>) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return (ra, None);
        }
        let (winner, loser) = match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Equal => {
                self.rank[ra as usize] += 1;
                self.max_rank = self.max_rank.max(self.rank[ra as usize]);
                (ra, rb)
            }
        };
        self.parent[loser as usize] = winner;
        self.set_count -= 1;
        (winner, Some(loser))
    }

    /// The current rank of the set rooted at `id`'s representative.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never created.
    pub fn rank_of(&mut self, id: u32) -> u8 {
        let root = self.find(id);
        self.rank[root as usize]
    }

    /// The largest rank any root has ever reached (O(1)).
    ///
    /// The paper observes this stays small (≤ 10 on SPECjvm98), justifying
    /// the packed-handle representation of §3.5.  Maintained incrementally as
    /// a high-water mark: unions can only grow it, `reset_all` clears it,
    /// and [`DisjointSets::detach_into_singleton`] never lowers it.
    pub fn max_rank(&self) -> u8 {
        self.max_rank
    }

    /// Iterates over the current set representatives.
    ///
    /// Cold path only: this scans every element.  Nothing on the
    /// per-event hot path enumerates roots.
    pub fn roots(&self) -> impl Iterator<Item = u32> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter(|(i, &p)| p as usize == *i)
            .map(|(i, _)| i as u32)
    }

    /// Detaches `id` into a fresh singleton set of rank zero.
    ///
    /// Used by the resetting pass (§3.6): during a traditional collection the
    /// contaminated collector dissolves its equilive sets and rebuilds them
    /// from the live object graph.  Note that resetting an interior element
    /// leaves the rest of its former set intact (they keep their old root).
    ///
    /// # Panics
    ///
    /// Panics if `id` was never created, or if other elements still point at
    /// `id` as their parent (i.e. `id` is a non-singleton root); callers must
    /// reset whole partitions via [`DisjointSets::reset_all`] or only detach
    /// leaves they know are safe.
    pub fn detach_into_singleton(&mut self, id: u32) {
        assert!(self.contains(id), "element {id} does not exist");
        let has_children = self
            .parent
            .iter()
            .enumerate()
            .any(|(i, &p)| p == id && i as u32 != id);
        assert!(
            !has_children,
            "cannot detach element {id}: other elements still point at it"
        );
        let was_root = self.parent[id as usize] == id;
        self.parent[id as usize] = id;
        self.rank[id as usize] = 0;
        if !was_root {
            self.set_count += 1;
        }
    }

    /// Resets every element into its own singleton set.
    pub fn reset_all(&mut self) {
        for i in 0..self.parent.len() {
            self.parent[i] = i as u32;
            self.rank[i] = 0;
        }
        self.set_count = self.parent.len();
        self.max_rank = 0;
    }

    /// Groups all elements by their representative, returning
    /// `(root, members)` pairs.  Cold path only (tests and statistics):
    /// allocates and walks the whole forest; never call this per event.
    pub fn partitions(&mut self) -> Vec<(u32, Vec<u32>)> {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for id in 0..self.parent.len() as u32 {
            let root = self.find(id);
            map.entry(root).or_default().push(id);
        }
        map.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_forest_is_empty() {
        let sets = DisjointSets::new();
        assert!(sets.is_empty());
        assert_eq!(sets.len(), 0);
        assert_eq!(sets.set_count(), 0);
        assert_eq!(sets.max_rank(), 0);
    }

    #[test]
    fn make_set_assigns_dense_ids() {
        let mut sets = DisjointSets::new();
        assert_eq!(sets.make_set(), 0);
        assert_eq!(sets.make_set(), 1);
        assert_eq!(sets.make_set(), 2);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets.set_count(), 3);
    }

    #[test]
    fn find_of_singleton_is_itself() {
        let mut sets = DisjointSets::new();
        let a = sets.make_set();
        assert_eq!(sets.find(a), a);
        assert_eq!(sets.find_immutable(a), a);
    }

    #[test]
    fn union_merges_and_reports_absorbed_root() {
        let mut sets = DisjointSets::new();
        let a = sets.make_set();
        let b = sets.make_set();
        let (root, absorbed) = sets.union(a, b);
        assert!(root == a || root == b);
        assert_eq!(absorbed, Some(if root == a { b } else { a }));
        assert!(sets.same_set(a, b));
        assert_eq!(sets.set_count(), 1);
    }

    #[test]
    fn union_of_same_set_is_noop() {
        let mut sets = DisjointSets::new();
        let a = sets.make_set();
        let b = sets.make_set();
        sets.union(a, b);
        assert_eq!(sets.union(a, b).1, None);
        assert_eq!(sets.set_count(), 1);
    }

    #[test]
    fn union_by_rank_prefers_higher_rank_root() {
        let mut sets = DisjointSets::new();
        let a = sets.make_set();
        let b = sets.make_set();
        let c = sets.make_set();
        // a-b gives the winner rank 1.
        let first = sets.union(a, b);
        // Unioning with singleton c keeps the rank-1 root as winner.
        let second = sets.union(c, first.0);
        assert_eq!(second, (first.0, Some(c)));
    }

    #[test]
    fn ensure_materialises_elements() {
        let mut sets = DisjointSets::new();
        sets.ensure(4);
        assert_eq!(sets.len(), 5);
        assert_eq!(sets.set_count(), 5);
        assert!(sets.contains(4));
        assert!(!sets.contains(5));
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn find_of_unknown_element_panics() {
        let mut sets = DisjointSets::new();
        sets.find(0);
    }

    #[test]
    fn path_compression_flattens() {
        let mut sets = DisjointSets::new();
        let ids: Vec<_> = (0..16).map(|_| sets.make_set()).collect();
        // Build a chain via repeated unions.
        for w in ids.windows(2) {
            sets.union(w[0], w[1]);
        }
        let root = sets.find(ids[0]);
        // After find, every element should point directly at the root.
        for &id in &ids {
            assert_eq!(sets.find(id), root);
            assert_eq!(sets.parent[id as usize], root);
        }
    }

    #[test]
    fn rank_bound_is_logarithmic() {
        let mut sets = DisjointSets::new();
        let n = 1024;
        let ids: Vec<_> = (0..n).map(|_| sets.make_set()).collect();
        // Pairwise tournament union maximises rank growth.
        let mut layer = ids;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(sets.union(pair[0], pair[1]).0);
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        assert_eq!(sets.set_count(), 1);
        assert!(
            sets.max_rank() as u32 <= 10,
            "rank {} too high",
            sets.max_rank()
        );
    }

    #[test]
    fn roots_enumerates_representatives() {
        let mut sets = DisjointSets::new();
        let a = sets.make_set();
        let b = sets.make_set();
        let c = sets.make_set();
        sets.union(a, b);
        let roots: Vec<_> = sets.roots().collect();
        assert_eq!(roots.len(), 2);
        assert!(roots.contains(&c));
    }

    #[test]
    fn detach_leaf_into_singleton() {
        let mut sets = DisjointSets::new();
        let a = sets.make_set();
        let b = sets.make_set();
        let leaf = sets.union(a, b).1.unwrap();
        sets.detach_into_singleton(leaf);
        assert!(!sets.same_set(a, b));
        assert_eq!(sets.set_count(), 2);
    }

    #[test]
    #[should_panic(expected = "still point at it")]
    fn detach_root_with_children_panics() {
        let mut sets = DisjointSets::new();
        let a = sets.make_set();
        let b = sets.make_set();
        let (root, _) = sets.union(a, b);
        sets.detach_into_singleton(root);
    }

    #[test]
    fn reset_all_restores_singletons() {
        let mut sets = DisjointSets::new();
        for _ in 0..8 {
            sets.make_set();
        }
        sets.union(0, 1);
        sets.union(2, 3);
        sets.union(0, 2);
        sets.reset_all();
        assert_eq!(sets.set_count(), 8);
        for i in 0..8 {
            assert_eq!(sets.find(i), i);
        }
        assert_eq!(sets.max_rank(), 0);
    }

    #[test]
    fn partitions_reflect_unions() {
        let mut sets = DisjointSets::new();
        for _ in 0..6 {
            sets.make_set();
        }
        sets.union(0, 1);
        sets.union(1, 2);
        sets.union(4, 5);
        let parts = sets.partitions();
        assert_eq!(parts.len(), 3);
        let sizes: Vec<usize> = parts.iter().map(|(_, m)| m.len()).collect();
        assert!(sizes.contains(&3));
        assert!(sizes.contains(&2));
        assert!(sizes.contains(&1));
    }

    mod properties {
        use super::*;
        use crate::TestRng;
        use std::collections::HashMap;

        /// A naive partition model to compare the forest against.
        #[derive(Default)]
        struct Model {
            set_of: Vec<usize>,
            next_set: usize,
        }

        impl Model {
            fn make(&mut self) -> usize {
                let id = self.set_of.len();
                self.set_of.push(self.next_set);
                self.next_set += 1;
                id
            }
            fn union(&mut self, a: usize, b: usize) {
                let (sa, sb) = (self.set_of[a], self.set_of[b]);
                if sa != sb {
                    for s in self.set_of.iter_mut() {
                        if *s == sb {
                            *s = sa;
                        }
                    }
                }
            }
            fn same(&self, a: usize, b: usize) -> bool {
                self.set_of[a] == self.set_of[b]
            }
            fn set_count(&self) -> usize {
                let mut seen: HashMap<usize, ()> = HashMap::new();
                for &s in &self.set_of {
                    seen.insert(s, ());
                }
                seen.len()
            }
        }

        /// Random `(a, b)` union pairs over `n` elements.
        fn random_ops(rng: &mut TestRng, n: usize, max_ops: usize) -> Vec<(usize, usize)> {
            let ops = rng.gen_range(0, max_ops);
            (0..ops)
                .map(|_| (rng.gen_range(0, n), rng.gen_range(0, n)))
                .collect()
        }

        /// The forest's partition always matches a naive model under any
        /// sequence of unions.
        #[test]
        fn matches_naive_model() {
            for seed in 0..64u64 {
                let mut rng = TestRng::new(seed);
                let n = rng.gen_range(1, 64);
                let mut sets = DisjointSets::new();
                let mut model = Model::default();
                for _ in 0..n {
                    sets.make_set();
                    model.make();
                }
                for (a, b) in random_ops(&mut rng, n, 200) {
                    sets.union(a as u32, b as u32);
                    model.union(a, b);
                }
                assert_eq!(sets.set_count(), model.set_count(), "seed {seed}");
                for a in 0..n {
                    for b in 0..n {
                        assert_eq!(
                            sets.same_set(a as u32, b as u32),
                            model.same(a, b),
                            "seed {seed}: elements {a}, {b}"
                        );
                    }
                }
            }
        }

        /// Rank of any root never exceeds log2 of the number of elements.
        #[test]
        fn rank_is_bounded() {
            for seed in 0..64u64 {
                let mut rng = TestRng::new(seed);
                let n = rng.gen_range(1, 128);
                let mut sets = DisjointSets::new();
                for _ in 0..n {
                    sets.make_set();
                }
                for (a, b) in random_ops(&mut rng, n, 400) {
                    sets.union(a as u32, b as u32);
                }
                let bound = (usize::BITS - n.leading_zeros()) as u8;
                assert!(sets.max_rank() <= bound, "seed {seed}");
            }
        }

        /// find is idempotent and stable across repeated calls.
        #[test]
        fn find_is_idempotent() {
            for seed in 0..64u64 {
                let mut rng = TestRng::new(seed);
                let n = rng.gen_range(1, 64);
                let mut sets = DisjointSets::new();
                for _ in 0..n {
                    sets.make_set();
                }
                for (a, b) in random_ops(&mut rng, n, 100) {
                    sets.union(a as u32, b as u32);
                }
                for id in 0..n as u32 {
                    let r1 = sets.find(id);
                    let r2 = sets.find(id);
                    assert_eq!(r1, r2, "seed {seed}");
                    assert_eq!(sets.find(r1), r1, "seed {seed}");
                    assert_eq!(sets.find_immutable(id), r1, "seed {seed}");
                }
            }
        }

        /// set_count plus the number of successful merges equals the
        /// number of elements.
        #[test]
        fn set_count_accounting() {
            for seed in 0..64u64 {
                let mut rng = TestRng::new(seed);
                let n = rng.gen_range(1, 64);
                let mut sets = DisjointSets::new();
                for _ in 0..n {
                    sets.make_set();
                }
                let mut merges = 0usize;
                for (a, b) in random_ops(&mut rng, n, 200) {
                    if sets.union(a as u32, b as u32).1.is_some() {
                        merges += 1;
                    }
                }
                assert_eq!(sets.set_count() + merges, n, "seed {seed}");
            }
        }
    }
}
