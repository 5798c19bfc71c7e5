//! A lock-free, concurrently-usable variant of the packed forest of §3.5.
//!
//! [`AtomicForest`] keeps exactly the `PackedForest` word layout — one
//! `u32` per element, `ROOT_BIT | rank` for roots and the parent id for
//! interior nodes — but stores each word in an [`AtomicU32`] so that many
//! threads can run finds and unions against the same forest without a lock.
//! The shared static domain of the contaminated collector
//! ([`StaticDomain`](crate::StaticDomain)) is the intended client: the §3.3
//! static set is the only cross-shard coupling, and this forest removes the
//! last global lock from it.
//!
//! # Protocol
//!
//! * **find** is wait-free for the caller that only needs *a* root: it walks
//!   parent words with `Acquire` loads until it hits a root, compressing by
//!   *path halving* as it goes — each step best-effort CASes a node's word
//!   from its observed parent to its observed grandparent, which always
//!   points strictly upward in the link order (see
//!   [`find`](AtomicForest::find) for why that, unlike pointing at a
//!   previously-observed root, can never create a cycle under races).  A
//!   failed compression CAS is simply skipped — another thread compressed
//!   or unioned first, and the returned root is still a valid (possibly
//!   former) representative, which is all the callers need.
//! * **union** links *loser root → winner root* with a single
//!   `compare_exchange` on the loser's word; that CAS is the linearisation
//!   point of the union.  The loser is chosen strictly below the winner in
//!   the total order `(rank, id)`: every parent edge ever created points
//!   upward in that order, so racing unions can never form a cycle, and a
//!   successful CAS proves the loser was still a root (a root word
//!   `ROOT_BIT | rank` can never recur once replaced — ranks only grow and
//!   nothing here detaches, so there is no ABA).
//! * **storage** is a fixed ladder of 32 lazily-allocated segments (segment
//!   `k` holds the `2^k` elements `[2^k - 1, 2^(k+1) - 2]`), so `make_set`
//!   never moves existing words and readers never race a reallocation.  The
//!   whole structure is safe Rust (`OnceLock` + atomics); no `unsafe`.
//!
//! # What may be stale
//!
//! `find` can return a node that has since been absorbed into a larger set;
//! [`same_set`](AtomicForest::same_set) is the linearisable way to compare
//! (it re-validates that the first root is still a root).  `set_count` /
//! `max_rank` are monotone counters updated around the linearisation point,
//! exact whenever the forest is quiescent — which is when the collector
//! reads them (aggregation happens after the shard threads join).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use crate::packed::{ElementId, ROOT_BIT};

/// Number of storage segments: segment `k` covers ids
/// `[2^k - 1, 2^(k+1) - 2]`, so 32 segments cover every id below
/// `ROOT_BIT` (the packed-word id limit).
const SEGMENTS: usize = 32;

/// Segment index holding `id`.
#[inline]
fn segment_of(id: u32) -> usize {
    (id + 1).ilog2() as usize
}

/// Offset of `id` inside its segment.
#[inline]
fn offset_in_segment(id: u32, segment: usize) -> usize {
    (id + 1) as usize - (1usize << segment)
}

/// A lock-free disjoint-set forest sharing the §3.5 packed word layout with
/// `PackedForest`: union by rank via CAS, best-effort path compression,
/// wait-free finds.  All operations take `&self`.
pub(crate) struct AtomicForest {
    /// Lazily-allocated word storage; a segment is created filled with
    /// `ROOT_BIT` (root, rank 0) so `make_set` never writes a word.
    segments: [OnceLock<Box<[AtomicU32]>>; SEGMENTS],
    /// Elements ever created (ids are `0..len`, allocated by `fetch_add`).
    len: AtomicU32,
    /// Distinct sets: `+1` per `make_set`, `-1` per successful link CAS.
    set_count: AtomicU32,
    /// High-water mark of any root's rank (monotone, like
    /// `PackedForest::max_rank`).
    max_rank: AtomicU32,
}

impl Default for AtomicForest {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AtomicForest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicForest")
            .field("len", &self.len())
            .field("set_count", &self.set_count())
            .field("max_rank", &self.max_rank())
            .finish()
    }
}

impl AtomicForest {
    /// Creates an empty forest.
    pub(crate) fn new() -> Self {
        Self {
            segments: [const { OnceLock::new() }; SEGMENTS],
            len: AtomicU32::new(0),
            set_count: AtomicU32::new(0),
            max_rank: AtomicU32::new(0),
        }
    }

    /// Number of elements ever created.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    /// Number of distinct sets.  Exact when the forest is quiescent; during
    /// concurrent unions the counter can transiently run ahead of what a
    /// racing reader infers from the words themselves.
    pub(crate) fn set_count(&self) -> usize {
        self.set_count.load(Ordering::Acquire) as usize
    }

    /// The largest rank any root has ever reached (monotone high-water
    /// mark).
    pub(crate) fn max_rank(&self) -> u8 {
        self.max_rank.load(Ordering::Acquire) as u8
    }

    /// Whether `id` names an element of this forest.
    pub(crate) fn contains(&self, id: ElementId) -> bool {
        (id as usize) < self.len()
    }

    /// The atomic word of `id`.  The segment is materialised on first touch;
    /// any thread holding a published id reaches an initialised segment
    /// (publication of an id carries at least release/acquire ordering, and
    /// `OnceLock` initialisation is itself release/acquire).
    #[inline]
    fn word(&self, id: ElementId) -> &AtomicU32 {
        let segment = segment_of(id);
        let cells = self.segments[segment].get_or_init(|| Self::new_segment(segment));
        &cells[offset_in_segment(id, segment)]
    }

    fn new_segment(segment: usize) -> Box<[AtomicU32]> {
        (0..1usize << segment)
            .map(|_| AtomicU32::new(ROOT_BIT))
            .collect()
    }

    #[inline]
    fn is_root_word(word: u32) -> bool {
        word & ROOT_BIT != 0
    }

    /// Creates a new singleton set and returns its element id.  Ids are
    /// dense from zero, in allocation order across all threads.
    ///
    /// # Panics
    ///
    /// Panics if the forest already holds `2^31 - 1` elements (the packed
    /// word reserves one bit for the root discriminator).
    pub(crate) fn make_set(&self) -> ElementId {
        let id = self.len.fetch_add(1, Ordering::AcqRel);
        assert!(id < ROOT_BIT, "packed forest is limited to 2^31-1 elements");
        // Touch the segment so it exists before the id can be published;
        // the word itself is pre-initialised to `ROOT_BIT` (root, rank 0).
        let _ = self.word(id);
        self.set_count.fetch_add(1, Ordering::AcqRel);
        id
    }

    /// Whether `id` is currently a set representative.
    #[inline]
    pub(crate) fn is_root(&self, id: ElementId) -> bool {
        Self::is_root_word(self.word(id).load(Ordering::SeqCst))
    }

    /// Finds a representative of the set containing `id`, compressing the
    /// path by halving on the way.
    ///
    /// The returned node was the set's root at some point during the call;
    /// a concurrent union may have absorbed it by the time the caller looks
    /// at it.  That is sound for every client here: an absorbed root still
    /// leads to the current root, and the static domain's state is monotone
    /// (§3.3 — blocks only ever *join* the static set).  Use
    /// [`same_set`](Self::same_set) for a linearisable comparison.
    ///
    /// Compression is *path halving*: each step tries to CAS `cur`'s word
    /// from its observed parent to its observed grandparent.  Both values
    /// were parent words at the moment they were read, and every parent
    /// word ever stored is strictly greater than its node in the total
    /// order `(rank at link time, id)` — so the installed edge
    /// `cur → grandparent` also points strictly upward, under *any*
    /// interleaving.  (A two-pass "point everything at the pass-1 root"
    /// scheme does not have this property: a racing compression can move
    /// the walk past the pass-1 root, and re-installing that — by then
    /// possibly absorbed — root as a parent of a node above it creates a
    /// cycle.)  A failed CAS is simply skipped; the walk still advances.
    pub(crate) fn find(&self, id: ElementId) -> ElementId {
        debug_assert!(self.contains(id), "element {id} does not exist");
        // Parent edges strictly increase the total order `(rank at link
        // time, id)`, and every step moves `cur` strictly up that order, so
        // this terminates even while other threads re-link words under us.
        let mut cur = id;
        let mut word = self.word(cur).load(Ordering::Acquire);
        loop {
            if Self::is_root_word(word) {
                return cur;
            }
            let parent = word;
            let parent_word = self.word(parent).load(Ordering::Acquire);
            if Self::is_root_word(parent_word) {
                return parent;
            }
            // Halve: swing `cur` past `parent` to the grandparent.  The CAS
            // only succeeds while `cur`'s parent is still the `parent` we
            // read the grandparent from, and grandparent > parent > cur in
            // the link order either way, so acyclicity is preserved.
            let _ = self.word(cur).compare_exchange_weak(
                parent,
                parent_word,
                Ordering::Release,
                Ordering::Relaxed,
            );
            cur = parent_word;
            word = self.word(cur).load(Ordering::Acquire);
        }
    }

    /// Whether two elements are currently in the same set (linearisable:
    /// the answer was true at some instant during the call).
    pub(crate) fn same_set(&self, a: ElementId, b: ElementId) -> bool {
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return true;
            }
            // If `ra` is still a root now, then at the instant `rb` was
            // resolved the two sets really were distinct.  Otherwise a
            // union raced us: retry.
            if Self::is_root_word(self.word(ra).load(Ordering::SeqCst)) {
                return false;
            }
        }
    }

    /// Unions the sets containing `a` and `b`.  Returns the surviving and
    /// absorbed roots as `Some((winner, loser))` if the sets were distinct,
    /// `None` if they were already one set (the effective-union count is
    /// what the collector's statistics need, and it is order-independent:
    /// however concurrent unions interleave, exactly
    /// `initial sets - final sets` of them return `Some`).
    ///
    /// The loser is the root strictly smaller in the order
    /// `(rank, id)` — rank ties break toward the higher id — so every link
    /// points upward in a fixed total order and no interleaving of racing
    /// unions can create a cycle.  The successful CAS on the loser's word
    /// is the linearisation point and is `SeqCst`: the static domain's
    /// reason protocol relies on a single total order of link CASes and
    /// reason-cell updates (see `cg_core::static_domain`).
    pub(crate) fn try_union(&self, a: ElementId, b: ElementId) -> Option<(ElementId, ElementId)> {
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return None;
            }
            let wa = self.word(ra).load(Ordering::SeqCst);
            let wb = self.word(rb).load(Ordering::SeqCst);
            if !Self::is_root_word(wa) || !Self::is_root_word(wb) {
                continue; // a racing union absorbed one side; re-resolve
            }
            let rank_a = wa & !ROOT_BIT;
            let rank_b = wb & !ROOT_BIT;
            // Winner = greater in the total order (rank, id).
            let (winner, loser, loser_word, tie) = if rank_a > rank_b {
                (ra, rb, wb, false)
            } else if rank_a < rank_b {
                (rb, ra, wa, false)
            } else if ra > rb {
                (ra, rb, wb, true)
            } else {
                (rb, ra, wa, true)
            };
            if self
                .word(loser)
                .compare_exchange(loser_word, winner, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                // The loser's rank was bumped or it was absorbed first.
                continue;
            }
            self.set_count.fetch_sub(1, Ordering::AcqRel);
            if tie {
                // Union by rank: a tie bumps the winner.  Best-effort — if
                // the winner's word changed (absorbed, or bumped by a
                // racing tie) the balance heuristic is skipped, which
                // affects tree depth, never correctness.
                let new_rank = rank_a + 1;
                if self
                    .word(winner)
                    .compare_exchange(
                        ROOT_BIT | rank_a,
                        ROOT_BIT | new_rank,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    self.max_rank.fetch_max(new_rank, Ordering::AcqRel);
                }
            }
            return Some((winner, loser));
        }
    }

    /// A point-in-time copy of the forest.
    ///
    /// Every word is read atomically, but the words are read one by one: if
    /// other threads union concurrently, the copy reflects each union
    /// either fully-applied or not-at-all (a link is a single word), and
    /// `set_count` is recomputed from the copied words so the snapshot is
    /// internally consistent.
    ///
    /// The snapshot is also *self-contained*: `len` is read first, and a
    /// racing `make_set` + union can link a copied root to an element
    /// created after that read (a parent id `>= len`).  Such a word is
    /// copied as a fresh root instead, so every `find` inside the copy
    /// stays within `0..len` and never walks into the copy's own
    /// lazily-created (all-root) storage.
    pub(crate) fn snapshot(&self) -> AtomicForest {
        let len = self.len.load(Ordering::Acquire);
        let copy = AtomicForest::new();
        copy.len.store(len, Ordering::Release);
        let mut roots = 0u32;
        for id in 0..len {
            let mut word = self.word(id).load(Ordering::Acquire);
            if !Self::is_root_word(word) && word >= len {
                // Linked past the snapshot boundary by a racing union;
                // re-rootify so the copy is closed under `find`.
                word = ROOT_BIT;
            }
            if Self::is_root_word(word) {
                roots += 1;
            }
            copy.word(id).store(word, Ordering::Release);
        }
        copy.set_count.store(roots, Ordering::Release);
        copy.max_rank
            .store(self.max_rank.load(Ordering::Acquire), Ordering::Release);
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedForest;

    /// Walks the raw parent chain of every element with a step bound: any
    /// cycle a compression/union race could have installed would exceed it.
    /// (A cycle would make `find` itself spin forever, so this check reads
    /// the words directly instead of going through `find`.)
    fn assert_acyclic(forest: &AtomicForest) {
        let len = forest.len() as u32;
        for id in 0..len {
            let mut cur = id;
            let mut steps = 0u32;
            loop {
                let word = forest.word(cur).load(Ordering::SeqCst);
                if AtomicForest::is_root_word(word) {
                    break;
                }
                cur = word;
                steps += 1;
                assert!(steps <= len, "parent cycle reachable from element {id}");
            }
        }
    }

    #[test]
    fn new_forest_is_empty() {
        let forest = AtomicForest::new();
        assert_eq!(forest.len(), 0);
        assert_eq!(forest.set_count(), 0);
        assert_eq!(forest.max_rank(), 0);
    }

    #[test]
    fn make_set_assigns_dense_ids() {
        let forest = AtomicForest::new();
        assert_eq!(forest.make_set(), 0);
        assert_eq!(forest.make_set(), 1);
        assert_eq!(forest.make_set(), 2);
        assert_eq!(forest.len(), 3);
        assert_eq!(forest.set_count(), 3);
        assert!(forest.contains(2));
        assert!(!forest.contains(3));
        assert!(forest.is_root(0));
    }

    #[test]
    fn union_merges_and_reports_roles() {
        let forest = AtomicForest::new();
        let a = forest.make_set();
        let b = forest.make_set();
        let (winner, loser) = forest.try_union(a, b).expect("distinct sets merge");
        assert!(forest.is_root(winner));
        assert!(!forest.is_root(loser));
        assert!(forest.same_set(a, b));
        assert_eq!(forest.set_count(), 1);
        assert_eq!(forest.max_rank(), 1);
        assert!(forest.try_union(a, b).is_none(), "second union is a no-op");
    }

    #[test]
    fn segment_layout_covers_the_id_space() {
        assert_eq!(segment_of(0), 0);
        assert_eq!(segment_of(1), 1);
        assert_eq!(segment_of(2), 1);
        assert_eq!(segment_of(3), 2);
        assert_eq!(segment_of(6), 2);
        assert_eq!(segment_of(7), 3);
        for id in [0u32, 1, 2, 3, 6, 7, 14, 15, 1000, 1 << 20, ROOT_BIT - 1] {
            let seg = segment_of(id);
            assert!(seg < SEGMENTS, "id {id} lands in segment {seg}");
            let offset = offset_in_segment(id, seg);
            assert!(offset < (1usize << seg), "id {id} offset {offset}");
        }
    }

    #[test]
    fn growth_crosses_segment_boundaries() {
        let forest = AtomicForest::new();
        let ids: Vec<_> = (0..5000).map(|_| forest.make_set()).collect();
        for pair in ids.windows(2) {
            forest.try_union(pair[0], pair[1]);
        }
        assert_eq!(forest.set_count(), 1);
        let root = forest.find(0);
        for &id in &ids {
            assert_eq!(forest.find(id), root);
        }
    }

    #[test]
    fn snapshot_is_a_point_in_time_copy() {
        let forest = AtomicForest::new();
        let a = forest.make_set();
        let b = forest.make_set();
        let c = forest.make_set();
        forest.try_union(a, b);
        let copy = forest.snapshot();
        forest.try_union(a, c);
        assert_eq!(copy.set_count(), 2);
        assert!(copy.same_set(a, b));
        assert!(!copy.same_set(a, c));
        assert!(forest.same_set(a, c));
    }

    mod properties {
        use super::*;
        use cg_testutil::TestRng;

        /// Single-threaded, the atomic forest produces the same partitions,
        /// set counts, effective-union outcomes and max rank as the packed
        /// forest under random operation sequences (tie-breaks differ, but
        /// rank evolution depends only on rank comparisons, not identity).
        #[test]
        fn matches_packed_forest_model() {
            for seed in 0..96u64 {
                let mut rng = TestRng::new(seed);
                let n = rng.gen_range(1, 96);
                let atomic = AtomicForest::new();
                let mut packed = PackedForest::new();
                for _ in 0..n {
                    atomic.make_set();
                    packed.make_set();
                }
                for _ in 0..rng.gen_range(0, 300) {
                    let a = rng.gen_range(0, n) as u32;
                    let b = rng.gen_range(0, n) as u32;
                    let ao = atomic.try_union(a, b);
                    let po = packed.union(a, b);
                    assert_eq!(
                        ao.is_some(),
                        po.absorbed.is_some(),
                        "seed {seed}: union({a}, {b}) effectiveness"
                    );
                    assert_eq!(atomic.set_count(), packed.set_count(), "seed {seed}");
                }
                assert_eq!(atomic.max_rank(), packed.max_rank(), "seed {seed}");
                for a in 0..n as u32 {
                    for b in 0..n as u32 {
                        assert_eq!(
                            atomic.same_set(a, b),
                            packed.find_immutable(a) == packed.find_immutable(b),
                            "seed {seed}: {a} vs {b}"
                        );
                    }
                }
            }
        }

        /// Concurrent unions over a fixed edge multiset converge to the
        /// connected components of the edge graph — the same partition a
        /// sequential packed forest computes — regardless of interleaving,
        /// with an exact set count and every surviving `find` target a
        /// root.
        #[test]
        fn concurrent_unions_converge_to_components() {
            const THREADS: usize = 4;
            for seed in 0..24u64 {
                let mut rng = TestRng::new(0xA70B ^ seed);
                let n = rng.gen_range(16, 257);
                let edges: Vec<(u32, u32)> = (0..rng.gen_range(8, 512))
                    .map(|_| (rng.gen_range(0, n) as u32, rng.gen_range(0, n) as u32))
                    .collect();

                let forest = AtomicForest::new();
                for _ in 0..n {
                    forest.make_set();
                }
                let barrier = std::sync::Barrier::new(THREADS);
                let effective = std::sync::atomic::AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for t in 0..THREADS {
                        let forest = &forest;
                        let edges = &edges;
                        let barrier = &barrier;
                        let effective = &effective;
                        scope.spawn(move || {
                            barrier.wait();
                            for (i, &(a, b)) in edges.iter().enumerate() {
                                if i % THREADS == t && forest.try_union(a, b).is_some() {
                                    effective.fetch_add(1, Ordering::Relaxed);
                                }
                                // Interleave reads to stress find/compress.
                                let _ = forest.find(a);
                                let _ = forest.same_set(a, b);
                            }
                        });
                    }
                });

                let mut packed = PackedForest::new();
                for _ in 0..n {
                    packed.make_set();
                }
                for &(a, b) in &edges {
                    packed.union(a, b);
                }
                assert_acyclic(&forest);
                assert_eq!(forest.set_count(), packed.set_count(), "seed {seed}");
                assert_eq!(
                    effective.load(Ordering::Relaxed),
                    n - packed.set_count(),
                    "seed {seed}: effective unions are order-independent"
                );
                for a in 0..n as u32 {
                    assert!(forest.is_root(forest.find(a)), "seed {seed}: stale root");
                    for b in 0..n as u32 {
                        assert_eq!(
                            forest.same_set(a, b),
                            packed.find_immutable(a) == packed.find_immutable(b),
                            "seed {seed}: {a} vs {b}"
                        );
                    }
                }
            }
        }

        /// Dedicated find-vs-union compression race: reader threads hammer
        /// `find` (driving path-halving CASes) while writer threads run the
        /// whole union schedule, including unions that absorb roots the
        /// readers just observed.  The forest must stay acyclic — the
        /// two-pass "point at the pass-1 root" compression this crate used
        /// to do could install a downward edge here and make every later
        /// `find` spin forever.
        #[test]
        fn racing_finds_never_corrupt_the_forest() {
            const UNION_THREADS: usize = 2;
            const FIND_THREADS: usize = 2;
            for seed in 0..16u64 {
                let mut rng = TestRng::new(0xF1AD ^ seed);
                let n = rng.gen_range(64, 513);
                let edges: Vec<(u32, u32)> = (0..n * 2)
                    .map(|_| (rng.gen_range(0, n) as u32, rng.gen_range(0, n) as u32))
                    .collect();

                let forest = AtomicForest::new();
                for _ in 0..n {
                    forest.make_set();
                }
                let barrier = std::sync::Barrier::new(UNION_THREADS + FIND_THREADS);
                let writers_done = std::sync::atomic::AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for t in 0..UNION_THREADS {
                        let (forest, edges) = (&forest, &edges);
                        let (barrier, writers_done) = (&barrier, &writers_done);
                        scope.spawn(move || {
                            barrier.wait();
                            for (i, &(a, b)) in edges.iter().enumerate() {
                                if i % UNION_THREADS == t {
                                    forest.try_union(a, b);
                                }
                            }
                            writers_done.fetch_add(1, Ordering::Release);
                        });
                    }
                    for t in 0..FIND_THREADS {
                        let forest = &forest;
                        let (barrier, writers_done) = (&barrier, &writers_done);
                        scope.spawn(move || {
                            let mut rng = TestRng::new(0xF1AD ^ seed ^ ((t as u64) << 32));
                            barrier.wait();
                            while writers_done.load(Ordering::Acquire) < UNION_THREADS {
                                let id = rng.gen_range(0, n) as u32;
                                let root = forest.find(id);
                                let _ = forest.same_set(id, root);
                            }
                        });
                    }
                });

                assert_acyclic(&forest);
                let mut packed = PackedForest::new();
                for _ in 0..n {
                    packed.make_set();
                }
                for &(a, b) in &edges {
                    packed.union(a, b);
                }
                assert_eq!(forest.set_count(), packed.set_count(), "seed {seed}");
                for a in 0..n as u32 {
                    for b in 0..n as u32 {
                        assert_eq!(
                            forest.same_set(a, b),
                            packed.find_immutable(a) == packed.find_immutable(b),
                            "seed {seed}: {a} vs {b}"
                        );
                    }
                }
            }
        }

        /// Snapshots taken while another thread grows and unions the forest
        /// are self-contained: every `find` inside the copy resolves to an
        /// element below the copy's `len` (a racing link to a
        /// younger-than-the-snapshot element is re-rootified during the
        /// copy), and `set_count` matches the copied words.
        #[test]
        fn snapshot_is_self_contained_under_racing_growth() {
            use std::collections::HashSet;
            const GROWTH: usize = 20_000;
            for seed in 0..4u64 {
                let forest = AtomicForest::new();
                let base = 64u32;
                for _ in 0..base {
                    forest.make_set();
                }
                let grown = std::sync::atomic::AtomicBool::new(false);
                std::thread::scope(|scope| {
                    let (forest, grown) = (&forest, &grown);
                    scope.spawn(move || {
                        let mut rng = TestRng::new(0x5A45 ^ seed);
                        for _ in 0..GROWTH {
                            // Grow, then immediately union the newborn with
                            // an older element — the schedule that can link
                            // a pre-snapshot root to a post-snapshot id.
                            let id = forest.make_set();
                            let old = rng.gen_range(0, id as usize) as u32;
                            forest.try_union(old, id);
                        }
                        grown.store(true, Ordering::Release);
                    });
                    // Snapshot while the grower races us; bounded so the
                    // test terminates even on a single core (at least one
                    // snapshot is taken after growth finishes, as a control).
                    let mut snaps = 0;
                    while snaps < 64 {
                        let done = grown.load(Ordering::Acquire);
                        let copy = forest.snapshot();
                        let len = copy.len() as u32;
                        assert!(len >= base);
                        let mut roots = HashSet::new();
                        for id in 0..len {
                            let root = copy.find(id);
                            assert!(
                                root < len,
                                "seed {seed}: snapshot find({id}) = {root} escapes 0..{len}"
                            );
                            roots.insert(root);
                        }
                        assert_acyclic(&copy);
                        assert_eq!(
                            copy.set_count(),
                            roots.len(),
                            "seed {seed}: snapshot set_count is internally consistent"
                        );
                        snaps += 1;
                        if done {
                            break;
                        }
                    }
                });
            }
        }

        /// `make_set` is itself safe to race: ids come out dense and
        /// distinct, and the set count is exact.
        #[test]
        fn concurrent_make_set_allocates_distinct_ids() {
            const THREADS: usize = 4;
            const PER_THREAD: usize = 1000;
            let forest = AtomicForest::new();
            let ids: Vec<Vec<u32>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        let forest = &forest;
                        scope.spawn(move || {
                            (0..PER_THREAD)
                                .map(|_| forest.make_set())
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut all: Vec<u32> = ids.into_iter().flatten().collect();
            all.sort_unstable();
            let expected: Vec<u32> = (0..(THREADS * PER_THREAD) as u32).collect();
            assert_eq!(all, expected);
            assert_eq!(forest.set_count(), THREADS * PER_THREAD);
            assert!(forest.is_root((THREADS * PER_THREAD) as u32 - 1));
        }
    }
}
