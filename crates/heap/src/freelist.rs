//! The object-space allocator: a free list over a simulated address range,
//! modelled on the JDK 1.1.8 allocator the paper describes, with a pluggable
//! search policy.
//!
//! The original allocator "does a linear search through the object pool to
//! find the first object that is at least as big as requested (and also tries
//! to coalesce two contiguous objects to make a block big enough)" and "keeps
//! track of the last location where it allocated an object from" (§3.7).
//! [`AllocPolicy::FirstFitRover`] reproduces exactly that placement: a rover
//! cursor, first-fit search with wrap-around, block splitting, and coalescing
//! of adjacent free blocks when objects are freed.  It stays the default — the
//! §4.8 recycling experiment contrasts the recycle list's cost against
//! precisely this search, so [`ObjectSpace::search_steps`] must keep meaning
//! "*free* blocks examined by the search".  Allocated blocks are never
//! visited: free blocks live in their own address-ordered index, so a search
//! steps from one free block straight to the next however many live objects
//! sit between them.
//!
//! [`AllocPolicy::SegregatedFit`] is the modern alternative: free blocks are
//! indexed by power-of-two size class, so an allocation probes only bins
//! that could possibly fit instead of walking the address-ordered list.  The
//! bins hold *candidate* addresses and are validated lazily against the
//! free index (a block may have been carved or coalesced since it was
//! binned); stale entries are dropped on discovery, so every free block is
//! reachable through exactly its current size class.

use std::collections::BTreeMap;

/// Address of a block within the object space (byte offset from the start of
/// the space).
pub type BlockAddr = usize;

/// How an [`ObjectSpace`] searches for a free block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocPolicy {
    /// The paper-faithful JDK 1.1.8 search: first fit starting at the rover
    /// (the point of the last allocation), wrapping around to the start of
    /// the space.  O(free blocks) per allocation.
    #[default]
    FirstFitRover,
    /// Segregated free lists: free blocks indexed by power-of-two size
    /// class; an allocation probes the smallest class that can fit and
    /// walks upward.  O(size classes) bin probes per allocation.
    SegregatedFit,
}

impl AllocPolicy {
    /// Short label used in benchmark names and reports.
    pub fn label(self) -> &'static str {
        match self {
            AllocPolicy::FirstFitRover => "first_fit",
            AllocPolicy::SegregatedFit => "segregated",
        }
    }
}

/// Size class of a block: the bit length of its size, so class `c` holds
/// sizes in `[2^(c-1), 2^c)`.  Blocks in classes above `class_of(size)` are
/// always large enough for `size`.
fn class_of(size: usize) -> usize {
    (usize::BITS - size.leading_zeros()) as usize
}

/// Statistics describing the current state of the object space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpaceStats {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Bytes currently allocated.
    pub used: usize,
    /// Bytes currently free (possibly fragmented).
    pub free: usize,
    /// Size of the largest single free block.
    pub largest_free_block: usize,
    /// Number of free blocks (a measure of fragmentation).
    pub free_blocks: usize,
    /// Number of allocated blocks.
    pub allocated_blocks: usize,
}

/// A first-fit, coalescing free-list allocator over `capacity` bytes.
///
/// The space indexes only its *free* blocks.  Its one client is the
/// [`Heap`](crate::Heap), whose handle slot for each object already holds
/// the object's block address and size, so an allocated block is known by
/// that slot alone and is freed with the size the slot names.
///
/// # Example
///
/// ```
/// use cg_heap::{ClassId, Heap, HeapConfig};
///
/// let mut heap = Heap::new(HeapConfig::small());
/// let a = heap.allocate(ClassId::new(0), 2)?;
/// heap.allocate(ClassId::new(0), 2)?;
/// heap.free(a)?;
/// let space = heap.object_space().stats();
/// assert_eq!((space.used, space.allocated_blocks), (16, 1));
/// # Ok::<(), cg_heap::HeapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ObjectSpace {
    capacity: usize,
    /// Free blocks, `addr → size`, in address order — the list the first-fit
    /// search walks.  Adjacent free blocks are always coalesced, so two
    /// entries never touch.  Together with the heap's allocated blocks it
    /// tiles the space.
    free: BTreeMap<BlockAddr, usize>,
    /// The rover: the address just past the most recent allocation, where the
    /// next first-fit search begins.
    rover: BlockAddr,
    used: usize,
    /// Cumulative number of *free* blocks examined by searches (entries of
    /// the free index for first fit, bin entries for segregated fit);
    /// allocated blocks are never visited.  The recycling experiment (§4.8)
    /// contrasts this cost against the recycle list's.
    search_steps: u64,
    allocations: u64,
    frees: u64,
    policy: AllocPolicy,
    /// Candidate free-block addresses per size class (SegregatedFit only;
    /// empty under FirstFitRover).  Entries are validated lazily against
    /// `free`: an entry is *stale* — and dropped on discovery — when its
    /// address no longer starts a free block of that class.
    bins: Vec<Vec<BlockAddr>>,
}

impl ObjectSpace {
    /// Creates an empty object space of `capacity` bytes using `policy` for
    /// free-block searches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn with_policy(capacity: usize, policy: AllocPolicy) -> Self {
        assert!(capacity > 0, "object space capacity must be positive");
        let mut space = Self {
            capacity,
            free: BTreeMap::from([(0, capacity)]),
            rover: 0,
            used: 0,
            search_steps: 0,
            allocations: 0,
            frees: 0,
            policy,
            bins: match policy {
                AllocPolicy::FirstFitRover => Vec::new(),
                AllocPolicy::SegregatedFit => vec![Vec::new(); class_of(capacity) + 1],
            },
        };
        space.bin_insert(0, capacity);
        space
    }

    /// The policy this space searches with.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// Records a newly created/resized free block in its size-class bin
    /// (no-op under FirstFitRover).
    fn bin_insert(&mut self, addr: BlockAddr, size: usize) {
        if self.policy == AllocPolicy::SegregatedFit {
            self.bins[class_of(size)].push(addr);
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> usize {
        self.capacity - self.used
    }

    /// Number of completed allocations.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of completed frees.
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Cumulative number of free blocks (or bin entries) examined during
    /// free-block searches.  Allocated blocks are never visited, so they are
    /// never counted.
    pub fn search_steps(&self) -> u64 {
        self.search_steps
    }

    /// Allocates `size` bytes, returning the block address, or `None` if no
    /// free block is large enough.
    ///
    /// Under [`AllocPolicy::FirstFitRover`] the search is first-fit starting
    /// at the rover (the point of the last allocation) and wraps around to
    /// the beginning of the space, exactly like the JDK 1.1.8 allocator the
    /// paper builds on.  Under [`AllocPolicy::SegregatedFit`] the search
    /// probes the size-class bins instead.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub(crate) fn alloc(&mut self, size: usize) -> Option<BlockAddr> {
        assert!(size > 0, "cannot allocate zero bytes");
        let found = match self.policy {
            AllocPolicy::FirstFitRover => self
                .find_first_fit(self.rover, size)
                .or_else(|| self.find_first_fit(0, size))?,
            AllocPolicy::SegregatedFit => self.find_segregated(size)?,
        };
        self.carve(found, size);
        self.rover = found + size;
        if self.rover >= self.capacity {
            self.rover = 0;
        }
        self.used += size;
        self.allocations += 1;
        Some(found)
    }

    /// Frees the `size`-byte block at `addr` — an address
    /// [`ObjectSpace::alloc`] returned for exactly `size` bytes — coalescing
    /// it with any free neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the block overlaps a free one: it was freed already.  A
    /// double free is a programming error, not a recoverable condition.
    pub(crate) fn free(&mut self, addr: BlockAddr, size: usize) {
        self.coalesce_around(addr, size);
        self.used -= size;
        self.frees += 1;
    }

    /// Current space statistics.
    pub fn stats(&self) -> SpaceStats {
        SpaceStats {
            capacity: self.capacity,
            used: self.used,
            free: self.free_bytes(),
            largest_free_block: self.free.values().copied().max().unwrap_or(0),
            free_blocks: self.free.len(),
            allocated_blocks: (self.allocations - self.frees) as usize,
        }
    }

    /// Finds the first free block at or after `start` that can hold `size`
    /// bytes, in address order.
    fn find_first_fit(&mut self, start: BlockAddr, size: usize) -> Option<BlockAddr> {
        let mut steps = 0u64;
        let found = self
            .free
            .range(start..)
            .find(|&(_, &block_size)| {
                steps += 1;
                block_size >= size
            })
            .map(|(&addr, _)| addr);
        self.search_steps += steps;
        found
    }

    /// Finds a free block that can hold `size` bytes through the size-class
    /// bins, validating candidates against the free index.
    fn find_segregated(&mut self, size: usize) -> Option<BlockAddr> {
        let free = &self.free;
        let (found, steps) = probe_bins(&mut self.bins, size, |addr| free.get(&addr).copied());
        self.search_steps += steps;
        found
    }

    /// Marks `size` bytes at the start of the free block at `addr` as
    /// allocated, splitting off the remainder as a new free block.
    fn carve(&mut self, addr: BlockAddr, size: usize) {
        let block_size = self.free.remove(&addr).expect("the search found it free");
        debug_assert!(block_size >= size);
        let remainder = block_size - size;
        if remainder > 0 {
            self.free.insert(addr + size, remainder);
            self.bin_insert(addr + size, remainder);
        }
    }

    /// Returns the just-freed `size` bytes at `addr` to the free index,
    /// coalesced with free neighbours on both sides.
    fn coalesce_around(&mut self, addr: BlockAddr, mut size: usize) {
        let end = addr + size;
        // Merge with the following block if it is free.
        if let Some(next_size) = self.free.remove(&end) {
            size += next_size;
        }
        // The last free block starting before `end` either ends where this
        // one starts, and this one merges into it, or it overlaps this one:
        // then some of these bytes are free already.
        let start = match self.free.range_mut(..end).next_back() {
            Some((&prev_addr, prev_size)) if prev_addr + *prev_size >= addr => {
                assert!(
                    prev_addr + *prev_size == addr,
                    "double free of block at address {addr}"
                );
                *prev_size += size;
                size = *prev_size;
                prev_addr
            }
            _ => {
                self.free.insert(addr, size);
                addr
            }
        };
        self.bin_insert(start, size);
    }
}

/// Probes the size-class `bins` for a free block that can hold `size` bytes,
/// from the smallest possibly-fitting class upward, dropping stale entries
/// along the way.  `free_size` is the lazy validation: the current size of
/// the free block starting at an address, if one does.  Returns the block
/// found (its entry removed) and the number of bin entries examined.
fn probe_bins(
    bins: &mut [Vec<BlockAddr>],
    size: usize,
    free_size: impl Fn(BlockAddr) -> Option<usize>,
) -> (Option<BlockAddr>, u64) {
    let mut steps = 0u64;
    for (class, bin) in bins.iter_mut().enumerate().skip(class_of(size)) {
        let mut i = 0;
        while i < bin.len() {
            steps += 1;
            let addr = bin[i];
            match free_size(addr) {
                // Live entry: the address still starts a free block of
                // this class.
                Some(block_size) if class_of(block_size) == class => {
                    if block_size >= size {
                        bin.swap_remove(i);
                        return (Some(addr), steps);
                    }
                    // Only the starting class can hold too-small
                    // blocks; keep the entry for smaller requests.
                    i += 1;
                }
                // Stale: carved, coalesced away, or re-classed.
                _ => {
                    bin.swap_remove(i);
                }
            }
        }
    }
    (None, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ObjectSpace {
        /// An empty object space of `capacity` bytes under the default
        /// (paper-faithful first-fit) policy.
        fn new(capacity: usize) -> Self {
            Self::with_policy(capacity, AllocPolicy::FirstFitRover)
        }

        /// Verifies internal invariants against `allocated`, the `(address,
        /// size)` of every block the caller holds: the free index and those
        /// blocks together tile the space (contiguous, no block starting inside
        /// another), no two free blocks are adjacent, the accounting holds and
        /// every free block is reachable from its bin.
        pub(crate) fn check_invariants(
            &self,
            allocated: impl IntoIterator<Item = (BlockAddr, usize)>,
        ) {
            let mut held = BTreeMap::new();
            for (addr, size) in allocated {
                assert!(
                    held.insert(addr, size).is_none(),
                    "block at {addr} is held twice"
                );
            }
            assert_eq!(
                held.len(),
                self.stats().allocated_blocks,
                "blocks held vs allocations not freed"
            );
            let (mut cursor, mut used, mut free_seen, mut allocated_seen) = (0usize, 0, 0, 0);
            let mut prev_free = false;
            while cursor < self.capacity {
                let size = if let Some(&size) = self.free.get(&cursor) {
                    assert!(
                        !held.contains_key(&cursor),
                        "block at {cursor} is both free and allocated"
                    );
                    assert!(
                        !prev_free,
                        "adjacent free blocks were not coalesced at {cursor}"
                    );
                    free_seen += 1;
                    prev_free = true;
                    size
                } else if let Some(&size) = held.get(&cursor) {
                    allocated_seen += 1;
                    used += size;
                    prev_free = false;
                    size
                } else {
                    panic!("blocks must tile the space contiguously: none starts at {cursor}");
                };
                assert!(size > 0, "zero-sized block at {cursor}");
                cursor += size;
            }
            assert_eq!(cursor, self.capacity, "blocks must cover the whole space");
            // The walk reaches every block that starts where another ends, so an
            // entry it never reached starts inside some other block.
            assert_eq!(
                (free_seen, allocated_seen),
                (self.free.len(), held.len()),
                "(free, allocated) entries reached vs held: one starts inside another block"
            );
            assert_eq!(used, self.used, "used-byte accounting drifted");
            if self.policy == AllocPolicy::SegregatedFit {
                // Every free block must be reachable through its current size
                // class — lazy deletion may leave stale entries behind, but a
                // live entry must exist or the block is lost to the allocator.
                for (&addr, &size) in &self.free {
                    assert!(
                        self.bins[class_of(size)].contains(&addr),
                        "free block at {addr} missing from its size-class bin"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_capacity_panics() {
        let _ = ObjectSpace::new(0);
    }

    #[test]
    #[should_panic(expected = "zero bytes")]
    fn zero_alloc_panics() {
        let mut s = ObjectSpace::new(16);
        s.alloc(0);
    }

    #[test]
    fn alloc_until_full_then_fail() {
        let mut s = ObjectSpace::new(64);
        let mut addrs = Vec::new();
        for _ in 0..4 {
            addrs.push(s.alloc(16).unwrap());
        }
        assert_eq!(s.used(), 64);
        assert_eq!(s.free_bytes(), 0);
        assert!(s.alloc(1).is_none());
        // Addresses are distinct and within bounds.
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 4);
        assert!(addrs.iter().all(|&a| a < 64));
        s.check_invariants(addrs.iter().map(|&a| (a, 16)));
    }

    #[test]
    fn free_makes_space_reusable() {
        let mut s = ObjectSpace::new(64);
        let a = s.alloc(32).unwrap();
        let b = s.alloc(32).unwrap();
        assert!(s.alloc(8).is_none());
        s.free(a, 32);
        let c = s.alloc(32).unwrap();
        assert_eq!(c, a);
        s.check_invariants([(b, 32), (c, 32)]);
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut s = ObjectSpace::new(96);
        let a = s.alloc(32).unwrap();
        let b = s.alloc(32).unwrap();
        let c = s.alloc(32).unwrap();
        // Free middle then left: they must coalesce so a 64-byte block fits.
        s.free(b, 32);
        s.free(a, 32);
        s.check_invariants([(c, 32)]);
        assert_eq!(s.stats().largest_free_block, 64);
        let d = s.alloc(64).unwrap();
        assert_eq!(d, a);
        s.free(c, 32);
        s.free(d, 64);
        s.check_invariants([]);
        assert_eq!(s.stats().free_blocks, 1);
        assert_eq!(s.stats().largest_free_block, 96);
    }

    #[test]
    fn rover_advances_past_last_allocation() {
        let mut s = ObjectSpace::new(64);
        let a = s.alloc(16).unwrap();
        let b = s.alloc(16).unwrap();
        s.free(a, 16);
        // First-fit from the rover prefers the block after b even though a is
        // free, matching the JDK allocator's behaviour of continuing from the
        // last allocation point.
        let c = s.alloc(16).unwrap();
        assert!(c > b);
        // Wrap-around finds a once the tail is exhausted.
        let d = s.alloc(16).unwrap();
        let e = s.alloc(16).unwrap();
        assert_eq!([d, e].iter().filter(|&&x| x == a).count(), 1);
        s.check_invariants([b, c, d, e].map(|x| (x, 16)));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut s = ObjectSpace::new(32);
        let a = s.alloc(16).unwrap();
        s.free(a, 16);
        s.free(a, 16);
    }

    #[test]
    fn a_double_free_panics_whatever_happened_to_the_block_since() {
        // The freed block coalesced into a larger free one, or was split
        // again by a smaller allocation: either way it overlaps a free
        // block, which the neighbour lookup sees.
        let build = || {
            let mut s = ObjectSpace::new(96);
            let blocks: Vec<_> = (0..3).map(|_| s.alloc(32).unwrap()).collect();
            (s, blocks)
        };
        let panics = |f: fn(ObjectSpace, Vec<BlockAddr>)| {
            let (s, b) = build();
            std::panic::catch_unwind(|| f(s, b)).is_err()
        };
        assert!(panics(|mut s, b| {
            s.free(b[0], 32);
            s.free(b[1], 32);
            s.free(b[0], 32);
        }));
        assert!(panics(|mut s, b| {
            s.free(b[1], 32);
            s.free(b[2], 32);
            s.free(b[2], 32);
        }));
        assert!(panics(|mut s, b| {
            s.free(b[0], 32);
            s.rover = 0;
            assert_eq!(s.alloc(8), Some(b[0]));
            s.free(b[0], 32);
        }));
    }

    #[test]
    fn stats_track_counts() {
        let mut s = ObjectSpace::new(128);
        let a = s.alloc(16).unwrap();
        let _b = s.alloc(16).unwrap();
        s.free(a, 16);
        let st = s.stats();
        assert_eq!(st.capacity, 128);
        assert_eq!(st.used, 16);
        assert_eq!(st.free, 112);
        assert_eq!(st.allocated_blocks, 1);
        assert!(st.free_blocks >= 1);
        assert_eq!(s.allocations(), 2);
        assert_eq!(s.frees(), 1);
        assert!(s.search_steps() >= 2);
    }

    #[test]
    fn fragmentation_can_cause_failure_despite_total_space() {
        let mut s = ObjectSpace::new(64);
        let a = s.alloc(16).unwrap();
        let b = s.alloc(16).unwrap();
        let c = s.alloc(16).unwrap();
        let d = s.alloc(16).unwrap();
        s.free(a, 16);
        s.free(c, 16);
        // 32 bytes free, but split into two 16-byte holes.
        assert_eq!(s.free_bytes(), 32);
        assert!(s.alloc(32).is_none());
        s.check_invariants([(b, 16), (d, 16)]);
    }

    #[test]
    fn size_classes_partition_sizes() {
        assert_eq!(class_of(1), 1);
        assert_eq!(class_of(2), 2);
        assert_eq!(class_of(3), 2);
        assert_eq!(class_of(4), 3);
        assert_eq!(class_of(7), 3);
        assert_eq!(class_of(8), 4);
        // Every block in a class above class_of(size) fits size.
        for size in 1..256usize {
            for block in 1..512usize {
                if class_of(block) > class_of(size) {
                    assert!(block >= size, "block {block} vs size {size}");
                }
            }
        }
    }

    #[test]
    fn segregated_alloc_reuses_freed_blocks() {
        let mut s = ObjectSpace::with_policy(64, AllocPolicy::SegregatedFit);
        assert_eq!(s.policy(), AllocPolicy::SegregatedFit);
        assert_eq!(s.policy().label(), "segregated");
        let a = s.alloc(32).unwrap();
        let b = s.alloc(32).unwrap();
        assert!(s.alloc(8).is_none());
        s.free(a, 32);
        let c = s.alloc(32).unwrap();
        assert_eq!(c, a);
        s.check_invariants([(b, 32), (c, 32)]);
    }

    #[test]
    fn segregated_coalescing_merges_neighbours() {
        let mut s = ObjectSpace::with_policy(96, AllocPolicy::SegregatedFit);
        let a = s.alloc(32).unwrap();
        let b = s.alloc(32).unwrap();
        let c = s.alloc(32).unwrap();
        s.free(b, 32);
        s.free(a, 32);
        s.check_invariants([(c, 32)]);
        assert_eq!(s.stats().largest_free_block, 64);
        let d = s.alloc(64).unwrap();
        assert_eq!(d, a);
        s.free(c, 32);
        s.free(d, 64);
        s.check_invariants([]);
        assert_eq!(s.stats().free_blocks, 1);
        assert_eq!(s.stats().largest_free_block, 96);
    }

    #[test]
    fn segregated_probes_fewer_blocks_than_first_fit_on_mixed_sizes() {
        // Many small free holes in front of one large block: first fit
        // walks the holes on every large request, segregated fit jumps
        // straight to the big block's class.
        let build = |policy: AllocPolicy| {
            let mut s = ObjectSpace::with_policy(1 << 16, policy);
            let mut small = Vec::new();
            let mut spacers = Vec::new();
            for _ in 0..256 {
                small.push(s.alloc(8).unwrap());
                spacers.push((s.alloc(8).unwrap(), 8)); // prevent coalescing
            }
            for addr in small {
                s.free(addr, 8);
            }
            (s, spacers)
        };
        let (mut first_fit, ff_live) = build(AllocPolicy::FirstFitRover);
        let (mut segregated, seg_live) = build(AllocPolicy::SegregatedFit);
        // Reset the rover to the start so first fit has to walk the holes.
        first_fit.rover = 0;
        let before_ff = first_fit.search_steps();
        let before_seg = segregated.search_steps();
        let ff_big = first_fit.alloc(1024).unwrap();
        let seg_big = segregated.alloc(1024).unwrap();
        let ff_steps = first_fit.search_steps() - before_ff;
        let seg_steps = segregated.search_steps() - before_seg;
        assert!(
            seg_steps * 8 <= ff_steps,
            "segregated fit should probe far fewer blocks ({seg_steps} vs {ff_steps})"
        );
        first_fit.check_invariants(ff_live.into_iter().chain([(ff_big, 1024)]));
        segregated.check_invariants(seg_live.into_iter().chain([(seg_big, 1024)]));
    }

    /// The reference model: the representation this allocator had before
    /// free blocks got their own index — ONE address-ordered map of every
    /// block, allocated and free, which first fit walks filtering out the
    /// allocated ones as it goes.
    struct WholeMapModel {
        blocks: BTreeMap<BlockAddr, (usize, bool)>, // addr → (size, free)
        capacity: usize,
        rover: BlockAddr,
        steps: u64,
        bins: Vec<Vec<BlockAddr>>, // empty under FirstFitRover
    }

    impl WholeMapModel {
        fn set_free(&mut self, addr: BlockAddr, size: usize) {
            self.blocks.insert(addr, (size, true));
            if let Some(bin) = self.bins.get_mut(class_of(size)) {
                bin.push(addr);
            }
        }

        fn walk(&mut self, start: BlockAddr, size: usize) -> Option<BlockAddr> {
            let mut free = self.blocks.range(start..).filter(|(_, block)| block.1);
            let fits = |(_, block): &(_, &(usize, bool))| {
                self.steps += 1;
                block.0 >= size
            };
            free.find(fits).map(|(&addr, _)| addr)
        }

        fn alloc(&mut self, size: usize) -> Option<BlockAddr> {
            let found = if self.bins.is_empty() {
                self.walk(self.rover, size).or_else(|| self.walk(0, size))?
            } else {
                let free_size = |a| self.blocks.get(&a).filter(|b| b.1).map(|b| b.0);
                let (found, steps) = probe_bins(&mut self.bins, size, free_size);
                self.steps += steps;
                found?
            };
            let remainder = self.blocks[&found].0 - size;
            self.blocks.insert(found, (size, false));
            if remainder > 0 {
                self.set_free(found + size, remainder);
            }
            self.rover = (found + size) % self.capacity;
            Some(found)
        }

        fn free(&mut self, addr: BlockAddr) {
            let (mut start, mut size) = (addr, self.blocks[&addr].0);
            if let Some((next_size, true)) = self.blocks.get(&(addr + size)).copied() {
                self.blocks.remove(&(addr + size));
                size += next_size;
            }
            if let Some((&prev, &(prev_size, true))) = self.blocks.range(..addr).next_back() {
                self.blocks.remove(&addr);
                (start, size) = (prev, size + prev_size);
            }
            self.set_free(start, size);
        }
    }

    /// An [`ObjectSpace`] and the [`WholeMapModel`] driven in lockstep: every
    /// operation goes to both and every observable must agree afterwards.
    struct Lockstep {
        space: ObjectSpace,
        model: WholeMapModel,
        /// The allocated blocks, `(address, size)`.
        live: Vec<(BlockAddr, usize)>,
        ops: usize,
    }

    impl Lockstep {
        fn new(capacity: usize, policy: AllocPolicy) -> Self {
            let space = ObjectSpace::with_policy(capacity, policy);
            let mut model = WholeMapModel {
                blocks: BTreeMap::new(),
                capacity,
                rover: 0,
                steps: 0,
                bins: vec![Vec::new(); space.bins.len()],
            };
            model.set_free(0, capacity);
            Self {
                space,
                model,
                live: Vec::new(),
                ops: 0,
            }
        }

        fn alloc(&mut self, size: usize) -> Option<BlockAddr> {
            let got = self.space.alloc(size);
            assert_eq!(got, self.model.alloc(size), "placement of {size} bytes");
            self.live.extend(got.map(|addr| (addr, size)));
            self.check();
            got
        }

        fn free(&mut self, addr: BlockAddr) {
            let at = self.live.iter().position(|&(a, _)| a == addr).unwrap();
            let (_, size) = self.live.swap_remove(at);
            self.space.free(addr, size);
            self.model.free(addr);
            self.check();
        }

        fn check_invariants(&self) {
            self.space.check_invariants(self.live.iter().copied());
        }

        fn check(&mut self) {
            assert_eq!(self.space.search_steps(), self.model.steps);
            let mut expected = SpaceStats {
                capacity: self.model.capacity,
                allocated_blocks: self.live.len(),
                ..SpaceStats::default()
            };
            for &(size, free) in self.model.blocks.values() {
                if free {
                    expected.free += size;
                    expected.free_blocks += 1;
                    expected.largest_free_block = expected.largest_free_block.max(size);
                } else {
                    expected.used += size;
                }
            }
            assert_eq!(self.space.stats(), expected);
            for &(addr, size) in &self.live {
                assert_eq!(self.model.blocks[&addr], (size, false));
            }
            self.ops += 1;
            if self.ops.is_multiple_of(64) {
                self.check_invariants();
            }
        }
    }

    /// Rover wrap, exact fit, the three coalescing shapes and exhaustion, by
    /// construction, each checked against the whole-map model.
    #[test]
    fn scripted_edge_cases_match_the_whole_map_model() {
        for policy in [AllocPolicy::FirstFitRover, AllocPolicy::SegregatedFit] {
            let mut s = Lockstep::new(160, policy);
            let blocks: Vec<_> = (0..5).map(|_| s.alloc(32).unwrap()).collect();
            // The fifth block was an exact fit (no remainder) ending at the
            // capacity, so the rover wrapped to 0 and nothing is left.
            assert_eq!(s.space.rover, 0);
            assert_eq!(s.alloc(1), None);
            s.free(blocks[1]); // no free neighbour
            s.free(blocks[0]); // coalesces right
            s.free(blocks[3]); // no free neighbour
            s.free(blocks[4]); // coalesces left
            assert_eq!(s.space.stats().free_blocks, 2);
            s.free(blocks[2]); // coalesces both ways
            assert_eq!(s.space.stats().largest_free_block, 160);
            // Rover wrap: park the rover in front of a 16-byte tail hole, so
            // a 48-byte request fails the probe from the rover and is placed
            // by the wrapped probe from address 0.
            let a = s.alloc(64).unwrap();
            let b = s.alloc(64).unwrap();
            let c = s.alloc(32).unwrap();
            s.free(c);
            let d = s.alloc(16).unwrap();
            assert_eq!((d, s.space.rover), (c, c + 16));
            s.free(a);
            assert_eq!(s.alloc(48), Some(a));
            // Exhaustion by fragmentation: two 16-byte holes cannot hold 32.
            assert_eq!(s.space.stats().free_blocks, 2);
            assert_eq!(s.alloc(32), None);
            s.free(d);
            s.free(b);
            s.check_invariants();
        }
    }

    mod properties {
        use super::*;
        use cg_testutil::TestRng;

        /// Mixed-size alloc/free workloads on a small space (constant
        /// exhaustion, wrap and coalescing) and a nearly-full larger one
        /// (many holes behind many live blocks) place every block exactly
        /// where the whole-map walk does, at the same search cost.  Any
        /// first fit not answered in address order diverges within a few
        /// operations.
        #[test]
        fn placement_matches_the_whole_map_model() {
            for seed in 0..8u64 {
                for policy in [AllocPolicy::FirstFitRover, AllocPolicy::SegregatedFit] {
                    for (capacity, max_size) in [(512, 96), (1 << 13, 128)] {
                        let mut rng = TestRng::new(seed);
                        let mut s = Lockstep::new(capacity, policy);
                        let mut refused = 0;
                        for _ in 0..10_000 {
                            if s.live.is_empty() || rng.gen_bool(0.55) {
                                let size = rng.gen_range(1, max_size + 1);
                                refused += usize::from(s.alloc(size).is_none());
                            } else {
                                let (addr, _) = s.live[rng.gen_range(0, s.live.len())];
                                s.free(addr);
                            }
                        }
                        assert!(refused > 0, "seed {seed}: the space never filled up");
                        s.check_invariants();
                    }
                }
            }
        }

        /// Random alloc/free interleavings preserve all invariants and
        /// never hand out overlapping blocks, under either policy.
        #[test]
        fn random_workload_preserves_invariants() {
            for seed in 0..64u64 {
                let policy = if seed % 2 == 0 {
                    AllocPolicy::FirstFitRover
                } else {
                    AllocPolicy::SegregatedFit
                };
                let mut rng = TestRng::new(seed);
                let ops = rng.gen_range(10, 200);
                let mut space = ObjectSpace::with_policy(4096, policy);
                let mut live: Vec<(BlockAddr, usize)> = Vec::new();
                for _ in 0..ops {
                    if live.is_empty() || rng.gen_bool(0.6) {
                        let size = rng.gen_range(1, 129);
                        if let Some(addr) = space.alloc(size) {
                            // No overlap with any live block.
                            for &(other, osize) in &live {
                                assert!(
                                    addr + size <= other || other + osize <= addr,
                                    "seed {seed}: overlap: [{},{}) vs [{},{})",
                                    addr,
                                    addr + size,
                                    other,
                                    other + osize
                                );
                            }
                            live.push((addr, size));
                        }
                    } else {
                        let idx = rng.gen_range(0, live.len());
                        let (addr, size) = live.swap_remove(idx);
                        space.free(addr, size);
                    }
                    space.check_invariants(live.iter().copied());
                }
                let live_total: usize = live.iter().map(|&(_, s)| s).sum();
                assert_eq!(space.used(), live_total, "seed {seed}");
            }
        }

        /// The two policies place blocks differently but must agree on all
        /// byte accounting (used, free, live-block count) across random
        /// alloc/free workloads that fit comfortably in the space.
        #[test]
        fn policies_agree_on_accounting() {
            for seed in 0..64u64 {
                let mut rng = TestRng::new(seed);
                let mut first_fit = ObjectSpace::with_policy(1 << 20, AllocPolicy::FirstFitRover);
                let mut segregated = ObjectSpace::with_policy(1 << 20, AllocPolicy::SegregatedFit);
                // Live blocks as (first_fit_addr, segregated_addr, size).
                let mut live: Vec<(BlockAddr, BlockAddr, usize)> = Vec::new();
                for _ in 0..rng.gen_range(20, 300) {
                    if live.is_empty() || rng.gen_bool(0.6) {
                        let size = rng.gen_range(1, 257);
                        // The space is far larger than the workload's
                        // footprint, so both policies must succeed.
                        let fa = first_fit.alloc(size).expect("first fit fits");
                        let sa = segregated.alloc(size).expect("segregated fits");
                        live.push((fa, sa, size));
                    } else {
                        let idx = rng.gen_range(0, live.len());
                        let (fa, sa, size) = live.swap_remove(idx);
                        first_fit.free(fa, size);
                        segregated.free(sa, size);
                    }
                    assert_eq!(first_fit.used(), segregated.used(), "seed {seed}");
                    assert_eq!(
                        first_fit.free_bytes(),
                        segregated.free_bytes(),
                        "seed {seed}"
                    );
                    assert_eq!(
                        first_fit.stats().allocated_blocks,
                        segregated.stats().allocated_blocks,
                        "seed {seed}"
                    );
                    first_fit.check_invariants(live.iter().map(|&(fa, _, size)| (fa, size)));
                    segregated.check_invariants(live.iter().map(|&(_, sa, size)| (sa, size)));
                }
                let live_total: usize = live.iter().map(|&(_, _, s)| s).sum();
                assert_eq!(first_fit.used(), live_total, "seed {seed}");
                assert_eq!(segregated.used(), live_total, "seed {seed}");
                assert_eq!(first_fit.allocations(), segregated.allocations());
                assert_eq!(first_fit.frees(), segregated.frees());
            }
        }

        /// Freeing everything always restores a single maximal free block.
        #[test]
        fn full_free_restores_whole_space() {
            for seed in 0..64u64 {
                let policy = if seed % 2 == 0 {
                    AllocPolicy::FirstFitRover
                } else {
                    AllocPolicy::SegregatedFit
                };
                let mut rng = TestRng::new(seed);
                let mut space = ObjectSpace::with_policy(2048, policy);
                let mut live = Vec::new();
                loop {
                    let size = rng.gen_range(1, 65);
                    let Some(addr) = space.alloc(size) else { break };
                    live.push((addr, size));
                    if live.len() > 200 {
                        break;
                    }
                }
                rng.shuffle(&mut live);
                for (addr, size) in live {
                    space.free(addr, size);
                }
                space.check_invariants([]);
                let st = space.stats();
                assert_eq!(st.used, 0, "seed {seed}");
                assert_eq!(st.free_blocks, 1, "seed {seed}");
                assert_eq!(st.largest_free_block, 2048, "seed {seed}");
            }
        }
    }
}
