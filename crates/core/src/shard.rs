//! One thread's share of the contaminated collector.
//!
//! A [`CollectorShard`] owns everything the collector keeps per thread: the
//! equilive forest ([`EquiliveSets`]), the dense per-frame block index, the
//! per-object records, the recycle list and the statistics.  The only state
//! a shard shares with other shards is the [`StaticDomain`] — the §3.3
//! static set — which every event handler receives by reference.
//!
//! # Sized by live objects
//!
//! A block's members die together, so when a frame pop kills a block the
//! shard gives back everything it kept for them: each member's record
//! leaves the paged handle table ([`SlotTable`]), and each member's forest
//! element returns to the forest's free list for the next allocation.  The
//! forest, the block records, the frame index and the record table are
//! therefore all sized by the peak number of live objects.
//!
//! # Which handles are dead
//!
//! The paper's "tainted" list (§3.1.4) names the objects the collector has
//! declared dead, so that a use of one can be caught.  The heap never
//! re-mints a handle, and it frees what a frame pop or a traditional sweep
//! kills, so the list needs no table of its own:
//!
//! * a handle with a record is dead when the record says so — an object
//!   that a traditional collection purged (§3.6) while its block lives keeps
//!   its record, flagged dead, until the block dies, so its element is
//!   released with the rest;
//! * a handle without one is dead when the heap no longer holds it, or when
//!   it waits on the recycle list (§3.7), and never seen otherwise.
//!
//! Only the `verify_tainted` checks ask the heap and the recycle list.
//!
//! The single-threaded [`ContaminatedGc`](crate::ContaminatedGc) is the
//! 1-shard instantiation of exactly this code path: it owns one shard plus a
//! private domain and forwards every collector hook.  A parallel trace
//! evaluation instantiates N shards (one per OS thread), shares one domain
//! between them, and drives each shard from its partitioned sub-stream.
//!
//! # The cross-shard rule
//!
//! A shard never unions blocks across shard boundaries.  A store whose
//! operands live in different shards *escalates* both operands to the static
//! domain (per §3.3 — the store proves the object is reachable from a
//! foreign thread) and unions their domain nodes there.  In streams recorded
//! from the VM the escalation has always already happened — every
//! cross-thread `ObjectAccess` precedes the store that uses the object, so a
//! foreign operand is static by the time the store arrives — which is what
//! makes the sharded evaluation's aggregated statistics byte-identical to a
//! single-threaded replay.

use cg_heap::SlotTable;
use cg_vm::{ClassId, CollectOutcome, FrameInfo, Handle, Heap, RootSet, ThreadId};

use crate::collector::CgConfig;
use crate::equilive::{EquiliveSets, FrameKey, StaticReason};
use crate::frame_index::FrameBlockIndex;
use crate::packed::ElementId;
use crate::recycle::RecycleList;
use crate::static_domain::{StaticDomain, StaticNodeId};
use crate::stats::{CgStats, ObjectBreakdown};

/// Per-object bookkeeping: one entry per object incarnation whose block is
/// alive.
#[derive(Debug, Clone, Copy)]
struct ObjData {
    /// The object's element in the shard's equilive forest.
    elem: ElementId,
    /// Stack depth of the frame the object was allocated in (Figure 4.6).
    birth_depth: u32,
    /// The thread that allocated the object (§3.3).
    alloc_thread: ThreadId,
    /// Declared dead while its block lives: purged by a traditional
    /// collection, or killed through an older block's stale listing.
    dead: bool,
}

// The flag sits in the record's padding: a slot stays 16 bytes.
const _: () = assert!(std::mem::size_of::<Option<ObjData>>() == 16);

/// A store operand as seen by the processing shard: either an object this
/// shard owns, or a block that already lives in the shared static domain
/// (the only way a foreign object can legally appear in a store, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOperand {
    /// An object owned by (or conservatively registered with) this shard.
    Owned(Handle),
    /// A static block, typically owned by another shard.
    Static(StaticNodeId),
}

/// A resolved operand: a root in this shard's forest or a domain node.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    Local(ElementId),
    Foreign(StaticNodeId),
}

/// One shard of the contaminated collector: a complete per-thread collector
/// state sharing only the [`StaticDomain`] with its siblings.
#[derive(Debug, Clone)]
pub struct CollectorShard {
    config: CgConfig,
    sets: EquiliveSets,
    /// Indexed by handle index: the objects this shard owns whose block is
    /// alive.
    objects: SlotTable<ObjData>,
    frame_index: FrameBlockIndex,
    recycle: RecycleList,
    stats: CgStats,
    /// How to treat a handle with no local bookkeeping: register it
    /// conservatively (the single-shard collector's behaviour) or treat it
    /// as foreign and resolve it through the static domain (sharded replay).
    strict_foreign: bool,
    /// Values `on_return_value` registered without a record, under
    /// `verify_tainted`.  That hook carries no heap, so the callee's pop,
    /// which follows its return, checks that the heap still holds them.
    returned_unchecked: Vec<Handle>,
}

impl CollectorShard {
    /// Creates a shard with the single-shard collector's conservative
    /// treatment of unknown handles.
    pub fn new(config: CgConfig) -> Self {
        Self::with_strictness(config, false)
    }

    /// Creates a shard for a multi-shard evaluation: a handle this shard
    /// does not own is *foreign* and must already be static (§3.3).
    pub fn for_shard(config: CgConfig) -> Self {
        Self::with_strictness(config, true)
    }

    fn with_strictness(config: CgConfig, strict_foreign: bool) -> Self {
        Self {
            config,
            sets: EquiliveSets::new(),
            objects: SlotTable::new(),
            frame_index: FrameBlockIndex::new(),
            recycle: RecycleList::default(),
            stats: CgStats::new(),
            strict_foreign,
            returned_unchecked: Vec::new(),
        }
    }

    /// The shard's configuration.
    pub fn config(&self) -> &CgConfig {
        &self.config
    }

    /// The statistics this shard has accumulated.
    pub fn stats(&self) -> &CgStats {
        &self.stats
    }

    /// Mutable statistics access (the program-end accounting writes the
    /// thread-shared total back).
    pub fn stats_mut(&mut self) -> &mut CgStats {
        &mut self.stats
    }

    /// The shard's equilive relation (for inspection in tests).
    pub fn sets(&self) -> &EquiliveSets {
        &self.sets
    }

    /// Whether this shard owns bookkeeping for `handle`.
    pub fn owns(&self, handle: Handle) -> bool {
        self.data(handle).is_some()
    }

    /// Drops this shard's bookkeeping for a stale incarnation of `handle`
    /// whose ownership moved to another shard (a conservatively registered
    /// handle later allocated by a different thread).  Mirrors the 1-shard
    /// collector, where the re-registration simply overwrites the slot.
    pub fn forget(&mut self, handle: Handle) {
        self.objects.take(handle.index_usize());
    }

    /// Number of dead objects awaiting reuse on this shard's recycle list.
    pub fn recycle_list_len(&self) -> usize {
        self.recycle.len()
    }

    // ------------------------------------------------------------------
    // internal helpers
    // ------------------------------------------------------------------

    fn attach(&mut self, root: ElementId, key: FrameKey) {
        self.frame_index.attach(root, key);
    }

    /// Registers a (possibly recycled) object as a fresh singleton block
    /// dependent on the allocating frame.
    fn register(&mut self, handle: Handle, frame: &FrameInfo, domain: &StaticDomain) -> ElementId {
        let key = FrameKey::frame(frame);
        let elem = self.sets.insert(handle, key);
        if key.is_static() {
            // Conservative registration against the static pseudo-frame
            // (an unseen handle reaching `on_static_store`): the block is
            // static with no definite reason yet.
            let node = domain.insert(StaticReason::NotStatic);
            self.sets.block_mut_of_root(elem).static_node = Some(node);
            domain.register_members(&[handle], node);
        }
        self.attach(elem, key);
        let data = ObjData {
            elem,
            birth_depth: u32::try_from(frame.depth).unwrap_or(u32::MAX),
            alloc_thread: frame.thread,
            dead: false,
        };
        match self.objects.get_mut(handle.index_usize()) {
            // A new incarnation over one whose block still lives (a
            // conservative registration, or reuse of a purged object): the
            // old element stays listed in its block, and that block's pop
            // finds the handle's record no longer its own.
            Some(slot) => *slot = data,
            None => self.objects.insert(handle.index_usize(), data),
        }
        self.stats.objects_created += 1;
        elem
    }

    fn data(&self, handle: Handle) -> Option<&ObjData> {
        self.objects.get(handle.index_usize())
    }

    /// The records of the objects not declared dead, by ascending handle.
    fn live_objects(&self) -> impl Iterator<Item = (Handle, &ObjData)> + '_ {
        self.objects.occupied().filter_map(|index| {
            let data = self.objects.get(index)?;
            (!data.dead).then_some((Handle::from_index(index as u32), data))
        })
    }

    /// Whether the collector declared `handle` dead, given that it holds no
    /// record of it (see the module docs).  The return hook carries no heap
    /// and passes `None`; the callee's pop checks the heap for it.
    fn dead_without_record(&self, handle: Handle, heap: Option<&Heap>) -> bool {
        heap.is_some_and(|heap| !heap.is_live(handle)) || self.recycle.contains(handle)
    }

    /// The element of a live object, registering it conservatively against
    /// the given frame if the collector has somehow never seen it.
    fn elem_of(
        &mut self,
        handle: Handle,
        frame: &FrameInfo,
        heap: Option<&Heap>,
        domain: &StaticDomain,
    ) -> ElementId {
        let declared_dead = match self.data(handle) {
            Some(data) if !data.dead => return data.elem,
            Some(_) => true,
            None => false,
        };
        // A dead object being used again can only mean the collector's
        // deadness conclusion was wrong.
        if self.config.verify_tainted && (declared_dead || self.dead_without_record(handle, heap)) {
            panic!("contaminated GC soundness violation: {handle} was declared dead but is still in use");
        }
        self.register(handle, frame, domain)
    }

    /// Resolves a store operand: a root in this shard's forest, or — for a
    /// handle this shard does not own in strict mode — the static-domain
    /// block the §3.3 invariant guarantees it belongs to.
    fn resolve_operand(
        &mut self,
        handle: Handle,
        frame: &FrameInfo,
        heap: &Heap,
        domain: &StaticDomain,
    ) -> Resolved {
        if self.strict_foreign && !self.owns(handle) {
            let node = domain.node_of(handle).unwrap_or_else(|| {
                panic!(
                    "foreign store operand {handle} is not in the static domain: \
                     the stream violates the §3.3 pre-escalation invariant \
                     (every cross-thread ObjectAccess precedes the store using the object)"
                )
            });
            return Resolved::Foreign(node);
        }
        let elem = self.elem_of(handle, frame, Some(heap), domain);
        Resolved::Local(self.sets.find(elem))
    }

    /// Escalates the block rooted at `root` into the static domain,
    /// returning its node.  On an already-static block this only records the
    /// §3.3 upgrade (thread sharing refines an indefinite reason).
    fn escalate_root(
        &mut self,
        root: ElementId,
        reason: StaticReason,
        domain: &StaticDomain,
    ) -> StaticNodeId {
        if let Some(node) = self.sets.block_of_root(root).static_node {
            if reason == StaticReason::ThreadShared {
                domain.note_thread_shared(node);
            }
            return node;
        }
        self.frame_index.detach(root);
        let node = domain.insert(reason);
        let block = self.sets.block_mut_of_root(root);
        block.key = FrameKey::Static;
        block.static_node = Some(node);
        domain.register_members(&block.members, node);
        self.attach(root, FrameKey::Static);
        node
    }

    /// Escalates `handle`'s block per §3.3 (it is being handed across a
    /// shard boundary) and returns the domain node.  Used by the sequential
    /// sharded collector to pre-escalate a foreign store operand.
    pub fn escalate_for_sharing(
        &mut self,
        handle: Handle,
        frame: &FrameInfo,
        heap: &Heap,
        domain: &StaticDomain,
    ) -> StaticNodeId {
        let elem = self.elem_of(handle, frame, Some(heap), domain);
        let root = self.sets.find(elem);
        self.escalate_root(root, StaticReason::ThreadShared, domain)
    }

    /// Unions the blocks of two elements (the contamination step), keeping
    /// the per-frame index consistent.  Static×static pairs union in the
    /// domain instead of the shard forest.
    fn contaminate(&mut self, a: ElementId, b: ElementId, domain: &StaticDomain) {
        let ra = self.sets.find(a);
        let rb = self.sets.find(b);
        if ra == rb {
            return;
        }
        let an = self.sets.block_of_root(ra).static_node;
        let bn = self.sets.block_of_root(rb).static_node;
        if let (Some(x), Some(y)) = (an, bn) {
            if domain.union(x, y) {
                self.stats.unions += 1;
            }
            return;
        }
        self.contaminate_roots(ra, rb, domain);
    }

    /// The contamination step for two distinct roots of which at most one is
    /// static: a shard-forest union, with the merged block escalated when it
    /// lands on the static pseudo-frame.
    fn contaminate_roots(&mut self, ra: ElementId, rb: ElementId, domain: &StaticDomain) {
        self.frame_index.detach(ra);
        self.frame_index.detach(rb);
        // If exactly one side is static, the other side's members become
        // static with the merge and must be resolvable by foreign shards.
        // The merged member list is the winner's with the absorbed side
        // appended, so the newly static members survive as a contiguous
        // slice of it — no clone on this path.
        let a_static = self.sets.block_of_root(ra).static_node.is_some();
        let b_static = self.sets.block_of_root(rb).static_node.is_some();
        let a_len = self.sets.block_of_root(ra).members.len();
        let b_len = self.sets.block_of_root(rb).members.len();
        let root = self.sets.union_roots(ra, rb);
        let merged_key = self.sets.block_of_root(root).key;
        if merged_key.is_static() {
            match self.sets.block_of_root(root).static_node {
                Some(node) => {
                    if a_static != b_static {
                        let (winner_len, winner_was_static) = if root == ra {
                            (a_len, a_static)
                        } else {
                            (b_len, b_static)
                        };
                        let merged = self.sets.block_of_root(root);
                        let newly_static = if winner_was_static {
                            // The absorbed (non-static) side was appended.
                            &merged.members[winner_len..]
                        } else {
                            // The winner was the non-static side.
                            &merged.members[..winner_len]
                        };
                        domain.register_members(newly_static, node);
                        domain.absorb_nonstatic(node);
                    }
                }
                None => {
                    // Both sides were frame-dependent but on incomparable
                    // (different-thread) frames: the merged block is static
                    // (§3.3) and escalates as a whole.
                    let node = domain.insert(StaticReason::StaticReference);
                    let block = self.sets.block_mut_of_root(root);
                    block.static_node = Some(node);
                    domain.register_members(&block.members, node);
                }
            }
        }
        self.attach(root, merged_key);
        self.stats.unions += 1;
    }

    // ------------------------------------------------------------------
    // event handlers (the Collector hooks, with the domain made explicit)
    // ------------------------------------------------------------------

    /// A new object was allocated in `frame`.
    pub fn on_allocate(&mut self, handle: Handle, frame: &FrameInfo, domain: &StaticDomain) {
        self.register(handle, frame, domain);
    }

    /// The contamination event: `source` now references `target`.
    pub fn on_reference_store(
        &mut self,
        source: Handle,
        target: Handle,
        frame: &FrameInfo,
        heap: &Heap,
        domain: &StaticDomain,
    ) {
        self.stats.contaminations += 1;
        if self.config.fault == crate::collector::FaultInjection::SkipContamination {
            return;
        }
        if !self.strict_foreign {
            // The single-shard hot path: both operands are local by
            // construction.  Resolve each operand's root exactly once and
            // compare before touching any block payload — stores within an
            // already-merged block read nothing else.
            let source_elem = self.elem_of(source, frame, Some(heap), domain);
            let target_elem = self.elem_of(target, frame, Some(heap), domain);
            let source_root = self.sets.find(source_elem);
            let target_root = self.sets.find(target_elem);
            self.store_local_roots(source_root, target_root, domain);
            return;
        }
        let s = self.resolve_operand(source, frame, heap, domain);
        let t = self.resolve_operand(target, frame, heap, domain);
        self.store_resolved(s, t, domain);
    }

    /// The contamination event with pre-classified operands (the sequential
    /// sharded collector resolves foreign operands through their owning
    /// shards and passes the domain nodes here).
    pub fn on_reference_store_between(
        &mut self,
        source: StoreOperand,
        target: StoreOperand,
        frame: &FrameInfo,
        heap: &Heap,
        domain: &StaticDomain,
    ) {
        self.stats.contaminations += 1;
        if self.config.fault == crate::collector::FaultInjection::SkipContamination {
            return;
        }
        let s = match source {
            StoreOperand::Owned(h) => self.resolve_operand(h, frame, heap, domain),
            StoreOperand::Static(n) => Resolved::Foreign(n),
        };
        let t = match target {
            StoreOperand::Owned(h) => self.resolve_operand(h, frame, heap, domain),
            StoreOperand::Static(n) => Resolved::Foreign(n),
        };
        self.store_resolved(s, t, domain);
    }

    /// The store barrier for two locally-resolved roots.
    fn store_local_roots(&mut self, sr: ElementId, tr: ElementId, domain: &StaticDomain) {
        if sr == tr {
            // Already equilive: nothing can change.
            return;
        }
        let sn = self.sets.block_of_root(sr).static_node;
        let tn = self.sets.block_of_root(tr).static_node;
        if let (Some(a), Some(b)) = (sn, tn) {
            // Two static blocks: their identity lives in the domain.
            if domain.union(a, b) {
                self.stats.unions += 1;
            }
            return;
        }
        if self.config.static_opt && tn.is_some() && sn.is_none() {
            // §3.4: referencing an already-static object cannot make it any
            // more live; the referencer stays collectable.
            self.stats.static_opt_skips += 1;
            return;
        }
        self.contaminate_roots(sr, tr, domain);
    }

    /// The store barrier for operands that may be foreign static blocks.
    fn store_resolved(&mut self, s: Resolved, t: Resolved, domain: &StaticDomain) {
        match (s, t) {
            (Resolved::Local(sr), Resolved::Local(tr)) => {
                self.store_local_roots(sr, tr, domain);
            }
            (Resolved::Foreign(a), Resolved::Foreign(b)) => {
                if domain.union(a, b) {
                    self.stats.unions += 1;
                }
            }
            (Resolved::Local(root), Resolved::Foreign(t_node)) => {
                // The target is a foreign static block.
                if let Some(n) = self.sets.block_of_root(root).static_node {
                    if domain.union(n, t_node) {
                        self.stats.unions += 1;
                    }
                    return;
                }
                if self.config.static_opt {
                    self.stats.static_opt_skips += 1;
                    return;
                }
                let n = self.escalate_root(root, StaticReason::StaticReference, domain);
                if domain.union(n, t_node) {
                    self.stats.unions += 1;
                }
            }
            (Resolved::Foreign(s_node), Resolved::Local(root)) => {
                // A foreign static block now references a local object: the
                // local block is dragged into the static set.
                if let Some(n) = self.sets.block_of_root(root).static_node {
                    if domain.union(s_node, n) {
                        self.stats.unions += 1;
                    }
                    return;
                }
                let n = self.escalate_root(root, StaticReason::StaticReference, domain);
                if domain.union(s_node, n) {
                    self.stats.unions += 1;
                }
            }
        }
    }

    /// A static variable (or interpreter-internal static reference) now
    /// references `target`.
    pub fn on_static_store(&mut self, target: Handle, heap: &Heap, domain: &StaticDomain) {
        let elem = self.elem_of(target, &FrameInfo::static_frame(), Some(heap), domain);
        let root = self.sets.find(elem);
        self.escalate_root(root, StaticReason::StaticReference, domain);
    }

    /// The `areturn` event: `value` now belongs to `caller`.
    ///
    /// A value owned by another shard is provably a no-op: its dependent
    /// frame belongs to a different thread (or is static), and frames of
    /// different threads are never comparable, so the retarget condition
    /// cannot hold.  In strict mode the shard therefore skips it outright.
    ///
    /// The hook carries no heap (`Collector::on_return_value` has none), so
    /// the verifier cannot tell a freed value from one never seen here: it
    /// registers it, and the callee's pop, which follows the return, panics
    /// if the heap no longer holds it.
    pub fn on_return_value(
        &mut self,
        value: Handle,
        caller: &FrameInfo,
        _callee: &FrameInfo,
        domain: &StaticDomain,
    ) {
        if self.strict_foreign && !self.owns(value) {
            return;
        }
        if self.config.verify_tainted && !self.owns(value) {
            self.returned_unchecked.push(value);
        }
        let elem = self.elem_of(value, caller, None, domain);
        let root = self.sets.find(elem);
        let current = self.sets.block_of_root(root).key;
        let caller_key = FrameKey::frame(caller);
        // Adjust only if the caller's frame outlives the current dependent
        // frame (§3.1.3, areturn).
        if caller_key.strictly_older_than(current) {
            if caller_key.is_static() {
                // Returning into the static pseudo-frame (interpreter
                // internals); conservative, like a static reference with no
                // definite reason.
                self.escalate_root(root, StaticReason::NotStatic, domain);
            } else {
                self.frame_index.detach(root);
                self.sets.block_mut_of_root(root).key = caller_key;
                self.attach(root, caller_key);
            }
            self.stats.returns_retargeted += 1;
        }
    }

    /// `frame` was popped: every block dependent on it is dead (§2.2).
    pub fn on_frame_pop(&mut self, frame: &FrameInfo, heap: &mut Heap) -> CollectOutcome {
        for handle in self.returned_unchecked.drain(..) {
            if !heap.is_live(handle) {
                panic!("contaminated GC soundness violation: dead object {handle} was returned");
            }
        }
        let mut freed_objects = 0u64;
        let mut freed_bytes = 0u64;
        // Frames pop LIFO, so the bucket at this frame's depth holds exactly
        // this frame's blocks; draining it is pop-after-pop, no hash lookup
        // and no member-list clone.
        while let Some(root) = self.frame_index.pop_frame_block(frame.thread, frame.depth) {
            debug_assert_eq!(self.sets.block_of_root(root).key.frame_id(), Some(frame.id));
            // The block is dying with its frame: move the member list out
            // instead of cloning it, and release the block's elements and
            // records as its members go.
            let members = std::mem::take(&mut self.sets.block_mut_of_root(root).members);
            let block_size = members.len();
            self.stats.block_sizes.record(block_size as u64);
            for handle in members {
                let index = handle.index_usize();
                // No record: the handle is listed twice, or a later
                // incarnation of it already died in another block.
                let Some(&data) = self.objects.get(index) else {
                    continue;
                };
                // The record is this block's unless the handle was
                // registered again while this block lived; then the record
                // stays with the later block, which releases it.
                if self.sets.find(data.elem) == root {
                    self.objects.take(index);
                    if data.elem != root {
                        self.sets.release(data.elem);
                    }
                } else if !data.dead {
                    // The later incarnation dies with this block all the
                    // same.
                    if let Some(record) = self.objects.get_mut(index) {
                        record.dead = true;
                    }
                }
                if data.dead {
                    // Already dead: purged by a traditional collection, or
                    // killed through an older block's stale listing.
                    continue;
                }
                self.stats.objects_collected += 1;
                if block_size == 1 {
                    self.stats.objects_collected_exactly += 1;
                }
                let age = (data.birth_depth as usize).saturating_sub(frame.depth);
                self.stats.age_at_death.record(age as u64);

                if self.config.recycling && heap.get(handle).is_ok_and(|o| !o.is_array()) {
                    // Defer the free: the object waits on the recycle list
                    // and is handed back to the allocator later (§3.7).
                    self.recycle.push(handle);
                } else {
                    let bytes = heap
                        .free(handle)
                        .expect("collected object must still be live");
                    freed_bytes += bytes as u64;
                    freed_objects += 1;
                }
            }
            self.sets.release(root);
        }
        CollectOutcome {
            freed_objects,
            freed_bytes,
            marked_objects: 0,
        }
    }

    /// `thread` touched `handle` (§3.3 cross-thread detection).  Routed to
    /// the shard that owns `handle`.
    pub fn on_object_access(
        &mut self,
        handle: Handle,
        thread: ThreadId,
        heap: &Heap,
        domain: &StaticDomain,
    ) {
        let data = match self.data(handle) {
            Some(data) if !data.dead => *data,
            record => {
                if self.config.verify_tainted
                    && (record.is_some() || self.dead_without_record(handle, Some(heap)))
                {
                    panic!("contaminated GC soundness violation: dead object {handle} accessed by {thread}");
                }
                return;
            }
        };
        if data.alloc_thread != thread {
            // The object is shared between threads; its whole block must be
            // treated as live for the program's duration (§3.3).
            let root = self.sets.find(data.elem);
            self.escalate_root(root, StaticReason::ThreadShared, domain);
        }
    }

    /// Offers a recycled corpse for an allocation (§3.7), searching this
    /// shard's list only.
    pub fn try_recycled_alloc(
        &mut self,
        class: ClassId,
        field_count: usize,
        heap: &mut Heap,
    ) -> Option<Handle> {
        if !self.config.recycling {
            return None;
        }
        // First-fit search of the recycle list (§3.7); every examined
        // corpse is charged to `recycle_probes`.
        let taken = self.recycle.take(&mut self.stats.recycle_probes, |handle| {
            let fits = heap
                .get(handle)
                .map(|o| !o.is_array() && o.slot_count() >= field_count)
                .unwrap_or(false);
            fits && heap.reinitialize(handle, class, field_count).is_ok()
        });
        if let Some(handle) = taken {
            self.stats.objects_recycled += 1;
            // `on_allocate` follows and re-registers the handle as a new
            // object incarnation.
            return Some(handle);
        }
        None
    }

    /// Adds this shard's live objects to an [`ObjectBreakdown`]: every
    /// static object is classified by its domain reason, everything else
    /// counts as static-by-default (mirroring the single-shard collector's
    /// accounting of objects still live at exit).
    pub fn accumulate_breakdown(&mut self, domain: &StaticDomain, out: &mut ObjectBreakdown) {
        let entries: Vec<ElementId> = self.live_objects().map(|(_, data)| data.elem).collect();
        for elem in entries {
            let block = self.sets.block(elem);
            match block.static_node {
                Some(node) => match domain.reason(node) {
                    StaticReason::ThreadShared => out.thread_shared += 1,
                    _ => out.static_objects += 1,
                },
                None => out.static_objects += 1,
            }
        }
    }

    // ------------------------------------------------------------------
    // resetting (§3.6) and cooperation with a traditional collector
    // ------------------------------------------------------------------

    /// Drops every object that a traditional collection found unreachable
    /// (`live[handle] == false`) from the shard's structures, counting them
    /// as "collected by MSA" (Figure 4.11).  Also purges them from the
    /// recycle list.
    pub fn purge_unreachable(&mut self, live: &[bool]) {
        // The records stay, flagged, until their blocks die (see the
        // module docs).
        for (index, data) in self.objects.occupied_mut() {
            if !data.dead && !live.get(index).copied().unwrap_or(false) {
                data.dead = true;
                self.stats.reset_collected_by_msa += 1;
            }
        }
        self.recycle
            .retain(|h| live.get(h.index_usize()).copied().unwrap_or(false));
    }

    /// Rebuilds the equilive relation from the live object graph during a
    /// traditional collection (§3.6).
    ///
    /// The traversal mirrors the paper's description: static (and
    /// interpreter) roots are considered first, then each stack frame oldest
    /// first; every object is re-associated with the frame that first reaches
    /// it and unioned with the objects it points to.  Objects whose dependent
    /// frame becomes *younger* than before are counted as "less live"
    /// (Figure 4.11).
    ///
    /// Resetting is a single-shard operation (it reads the whole root set).
    /// The forest and the frame index are rebuilt from scratch, so the
    /// elements of the old blocks do not outlive it; stale domain nodes from
    /// before the reset are simply abandoned — the member map entries are
    /// overwritten as blocks re-escalate.
    pub fn reset_from_roots(
        &mut self,
        roots: &RootSet,
        heap: &Heap,
        live: &[bool],
        domain: &StaticDomain,
    ) {
        use std::collections::HashMap;
        self.stats.resets += 1;

        // Remember each live object's old dependent frame for the
        // less-live accounting.
        let live_entries: Vec<(Handle, ElementId)> = self
            .live_objects()
            .map(|(handle, data)| (handle, data.elem))
            .collect();
        let mut old_keys: HashMap<Handle, FrameKey> = HashMap::new();
        for (handle, elem) in live_entries {
            let key = self.sets.block(elem).key;
            old_keys.insert(handle, key);
        }

        // Objects the mark phase could not reach drop out of our structures,
        // and so does every dead object's record: its block goes with the
        // old forest.  Every live object gets a fresh element below.
        self.purge_unreachable(live);
        let dead: Vec<usize> = self
            .objects
            .occupied()
            .filter(|&index| self.objects.get(index).is_some_and(|data| data.dead))
            .collect();
        for index in dead {
            self.objects.take(index);
        }
        self.sets = EquiliveSets::new();
        self.frame_index.clear();

        // Breadth of reassignment: handle -> new element.
        let mut new_elem: HashMap<Handle, ElementId> = HashMap::new();

        let assign = |cg: &mut Self,
                      new_elem: &mut HashMap<Handle, ElementId>,
                      handle: Handle,
                      key: FrameKey|
         -> ElementId {
            if let Some(&elem) = new_elem.get(&handle) {
                return elem;
            }
            let elem = cg.sets.insert(handle, key);
            if key.is_static() {
                let node = domain.insert(StaticReason::NotStatic);
                cg.sets.block_mut_of_root(elem).static_node = Some(node);
                domain.register_members(&[handle], node);
            }
            cg.attach(elem, key);
            new_elem.insert(handle, elem);
            if let Some(data) = cg.objects.get_mut(handle.index_usize()) {
                data.elem = elem;
            }
            elem
        };

        // Worklist traversal from a set of roots, assigning `key` to newly
        // reached objects and unioning along every edge.
        let traverse = |cg: &mut Self,
                        new_elem: &mut HashMap<Handle, ElementId>,
                        root: Handle,
                        key: FrameKey| {
            if !heap.is_live(root) {
                return;
            }
            let root_elem = assign(cg, new_elem, root, key);
            let mut worklist = vec![(root, root_elem)];
            while let Some((handle, elem)) = worklist.pop() {
                // The borrowing iterator keeps this traversal from
                // allocating a Vec per visited object.
                for target in heap.references_iter(handle) {
                    if !heap.is_live(target) {
                        continue;
                    }
                    let seen = new_elem.contains_key(&target);
                    let target_elem = assign(cg, new_elem, target, key);
                    cg.contaminate(elem, target_elem, domain);
                    if !seen {
                        worklist.push((target, target_elem));
                    }
                }
            }
        };

        // Statics and interpreter-internal references first: they pin their
        // whole reachable subgraph to the static pseudo-frame.
        for &root in roots.statics.iter().chain(roots.interpreter.iter()) {
            traverse(self, &mut new_elem, root, FrameKey::Static);
        }

        // Then each stack frame, oldest first within each thread (the order
        // `RootSet::frames` is built in).
        for frame_roots in &roots.frames {
            let key = FrameKey::frame(&frame_roots.frame);
            for &root in &frame_roots.refs {
                traverse(self, &mut new_elem, root, key);
            }
        }

        // The mark phase and this traversal start from the same roots, so
        // every surviving record now names an element of the new forest.
        debug_assert!(self
            .objects
            .occupied()
            .all(|index| new_elem.contains_key(&Handle::from_index(index as u32))));

        // Count objects whose liveness estimate improved (moved to a younger
        // frame than before).
        for (handle, &elem) in &new_elem {
            if let Some(old_key) = old_keys.get(handle) {
                let new_key = self.sets.block(elem).key;
                if old_key.strictly_older_than(new_key) {
                    self.stats.reset_less_live += 1;
                }
            }
        }
    }
}

/// Aggregates per-shard statistics into the totals a single-threaded run
/// would report: counters add, histograms merge bucket-wise.
///
/// `objects_thread_shared` is overwritten afterwards from the aggregated
/// [`ObjectBreakdown`] by the caller (the single-threaded collector sets it
/// at program end from its own breakdown); [`aggregate_shards`] does both
/// steps at once.
pub fn aggregate_stats<'a>(shards: impl IntoIterator<Item = &'a CgStats>) -> CgStats {
    let mut total = CgStats::new();
    for s in shards {
        total.merge_from(s);
    }
    total
}

/// Aggregates a sharded run's statistics **and** object breakdown exactly
/// the way the single-shard collector reports them at program end: counters
/// add, histograms merge, `popped` is the total collected, live objects are
/// classified by their static-domain reason, and the thread-shared total is
/// written back into the statistics.
///
/// Both the sequential [`ShardedGc`](crate::ShardedGc) and the parallel
/// trace evaluation go through this one function, so the byte-identical
/// equivalence with [`ContaminatedGc`](crate::ContaminatedGc) is pinned in
/// a single place.
pub fn aggregate_shards<'a>(
    shards: impl IntoIterator<Item = &'a mut CollectorShard>,
    domain: &StaticDomain,
) -> (CgStats, ObjectBreakdown) {
    let mut stats = CgStats::new();
    let mut breakdown = ObjectBreakdown::default();
    for shard in shards {
        breakdown.popped += shard.stats().objects_collected;
        shard.accumulate_breakdown(domain, &mut breakdown);
        stats.merge_from(shard.stats());
    }
    stats.objects_thread_shared = breakdown.thread_shared;
    (stats, breakdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_vm::{FrameId, HeapConfig, MethodId};

    fn frame(id: u64, depth: usize, thread: u32) -> FrameInfo {
        FrameInfo {
            id: FrameId::new(id),
            depth,
            thread: ThreadId::new(thread),
            method: MethodId::new(0),
        }
    }

    fn h(i: u32) -> Handle {
        Handle::from_index(i)
    }

    #[test]
    fn static_static_stores_union_in_the_domain_not_the_forest() {
        let domain = StaticDomain::new();
        let heap = Heap::new(HeapConfig::small());
        let mut shard = CollectorShard::new(CgConfig::default());
        let f = frame(1, 1, 0);
        shard.on_allocate(h(0), &f, &domain);
        shard.on_allocate(h(1), &f, &domain);
        shard.on_static_store(h(0), &heap, &domain);
        shard.on_static_store(h(1), &heap, &domain);
        assert_eq!(domain.block_count(), 2);
        // The store unions their domain nodes, once.
        shard.on_reference_store(h(0), h(1), &f, &heap, &domain);
        assert_eq!(shard.stats().unions, 1);
        assert_eq!(domain.block_count(), 1);
        // Repeating it is a no-op for the union count.
        shard.on_reference_store(h(0), h(1), &f, &heap, &domain);
        assert_eq!(shard.stats().unions, 1);
        assert_eq!(shard.stats().contaminations, 2);
    }

    #[test]
    fn strict_shard_resolves_foreign_operands_through_the_domain() {
        let domain = StaticDomain::new();
        let heap = Heap::new(HeapConfig::small());
        // Owner shard escalates its object (the §3.3 hand-off).
        let mut owner = CollectorShard::for_shard(CgConfig::default());
        let f0 = frame(1, 1, 0);
        owner.on_allocate(h(0), &f0, &domain);
        owner.on_object_access(h(0), ThreadId::new(1), &heap, &domain);
        assert!(domain.node_of(h(0)).is_some());
        // Foreign shard stores the (static) object into its own local one:
        // with the §3.4 optimisation the local object stays collectable.
        let mut other = CollectorShard::for_shard(CgConfig::default());
        let f1 = frame(2, 1, 1);
        other.on_allocate(h(1), &f1, &domain);
        other.on_reference_store(h(1), h(0), &f1, &heap, &domain);
        assert_eq!(other.stats().static_opt_skips, 1);
        assert_eq!(other.stats().unions, 0);
        // The reverse store drags the local object into the static set.
        other.on_reference_store(h(0), h(1), &f1, &heap, &domain);
        assert_eq!(other.stats().unions, 1);
        assert!(domain.node_of(h(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "pre-escalation invariant")]
    fn strict_shard_rejects_non_static_foreign_operands() {
        let domain = StaticDomain::new();
        let heap = Heap::new(HeapConfig::small());
        let mut shard = CollectorShard::for_shard(CgConfig::default());
        let f = frame(1, 1, 0);
        shard.on_allocate(h(0), &f, &domain);
        // h(9) is unknown to the shard and not in the domain.
        shard.on_reference_store(h(0), h(9), &f, &heap, &domain);
    }

    #[test]
    fn cross_thread_frame_merge_escalates_the_merged_block() {
        let domain = StaticDomain::new();
        let heap = Heap::new(HeapConfig::small());
        // One shard hosting two threads (shard_count < thread count): a
        // store between their objects merges to the static pseudo-frame.
        let mut shard = CollectorShard::new(CgConfig::default());
        shard.on_allocate(h(0), &frame(1, 1, 0), &domain);
        shard.on_allocate(h(1), &frame(2, 1, 1), &domain);
        shard.on_reference_store(h(0), h(1), &frame(1, 1, 0), &heap, &domain);
        assert_eq!(shard.stats().unions, 1);
        assert_eq!(domain.block_count(), 1);
        assert!(domain.node_of(h(0)).is_some());
        assert!(domain.node_of(h(1)).is_some());
        let mut breakdown = ObjectBreakdown::default();
        shard.accumulate_breakdown(&domain, &mut breakdown);
        assert_eq!(breakdown.static_objects, 2);
    }

    #[test]
    fn frame_pops_give_back_the_elements_and_records_of_dead_blocks() {
        let domain = StaticDomain::new();
        let mut heap = Heap::new(HeapConfig::spacious());
        let mut shard = CollectorShard::new(CgConfig::default());
        for round in 0..100 {
            let f = frame(round + 1, 1, 0);
            let a = heap.allocate(ClassId::new(0), 1).unwrap();
            let b = heap.allocate(ClassId::new(0), 1).unwrap();
            shard.on_allocate(a, &f, &domain);
            shard.on_allocate(b, &f, &domain);
            shard.on_reference_store(a, b, &f, &heap, &domain);
            shard.on_frame_pop(&f, &mut heap);
            assert!(!shard.owns(a) && !heap.is_live(a));
        }
        assert_eq!(shard.stats().objects_created, 200);
        assert_eq!(shard.stats().objects_collected, 200);
        // Two elements served all 200 objects.
        assert_eq!(shard.sets().len(), 2);
        assert_eq!(shard.sets().block_count(), 0);
    }

    #[test]
    fn a_handle_registered_again_while_its_block_lives_dies_once() {
        let domain = StaticDomain::new();
        let mut heap = Heap::new(HeapConfig::spacious());
        let mut shard = CollectorShard::new(CgConfig::default());
        let (outer, inner) = (frame(1, 1, 0), frame(2, 2, 0));
        let a = heap.allocate(ClassId::new(0), 1).unwrap();
        let b = heap.allocate(ClassId::new(0), 1).unwrap();
        shard.on_allocate(a, &outer, &domain);
        shard.on_allocate(b, &outer, &domain);
        shard.on_reference_store(a, b, &outer, &heap, &domain);
        // `b` is registered again in the inner frame: the outer block still
        // lists it, but its record now belongs to the inner block.
        shard.on_allocate(b, &inner, &domain);
        assert_eq!(shard.on_frame_pop(&inner, &mut heap).freed_objects, 1);
        assert!(!heap.is_live(b) && !shard.owns(b));
        // The outer block frees `a` and skips its stale listing of `b`.
        assert_eq!(shard.on_frame_pop(&outer, &mut heap).freed_objects, 1);
        assert_eq!(shard.stats().objects_collected, 2);
        assert_eq!(heap.live_count(), 0);
        assert_eq!(shard.sets().block_count(), 0);
    }

    #[test]
    fn a_handle_registered_again_in_an_older_frame_dies_with_its_first_block() {
        let domain = StaticDomain::new();
        let mut heap = Heap::new(HeapConfig::spacious());
        let mut shard = CollectorShard::new(CgConfig::default());
        let (outer, inner) = (frame(1, 1, 0), frame(2, 2, 0));
        let a = heap.allocate(ClassId::new(0), 1).unwrap();
        let b = heap.allocate(ClassId::new(0), 1).unwrap();
        shard.on_allocate(a, &outer, &domain);
        shard.on_allocate(b, &inner, &domain);
        // `b` is registered again in the outer frame: the inner block still
        // lists it, and its pop kills the outer incarnation too.
        shard.on_allocate(b, &outer, &domain);
        assert_eq!(shard.on_frame_pop(&inner, &mut heap).freed_objects, 1);
        assert!(!heap.is_live(b) && shard.owns(b));
        // The outer block releases `b`'s record without killing it twice.
        assert_eq!(shard.on_frame_pop(&outer, &mut heap).freed_objects, 1);
        assert_eq!(shard.stats().objects_collected, 2);
        assert!(!shard.owns(b));
        assert_eq!(heap.live_count(), 0);
        assert_eq!(shard.sets().block_count(), 0);
    }

    #[test]
    fn reset_rebuilds_the_forest_from_the_live_objects_only() {
        let domain = StaticDomain::new();
        let mut heap = Heap::new(HeapConfig::spacious());
        let mut shard = CollectorShard::new(CgConfig::default());
        let f = frame(1, 1, 0);
        let handles: Vec<Handle> = (0..50)
            .map(|_| {
                let handle = heap.allocate(ClassId::new(0), 1).unwrap();
                shard.on_allocate(handle, &f, &domain);
                handle
            })
            .collect();
        for pair in handles.chunks(2) {
            shard.on_reference_store(pair[0], pair[1], &f, &heap, &domain);
        }
        // Three objects survive: a frame root, what it references, and a
        // static.
        heap.set_field(handles[0], 0, handles[1].into()).unwrap();
        let roots = RootSet {
            frames: vec![cg_vm::FrameRoots {
                frame: f,
                refs: vec![handles[0]],
            }],
            statics: vec![handles[7]],
            interpreter: Vec::new(),
        };
        let live = crate::marksweep::trace_live(&roots, &heap);
        shard.reset_from_roots(&roots, &heap, &live, &domain);
        assert_eq!(shard.stats().reset_collected_by_msa, 47);
        assert!(shard.sets().len() <= 3, "{} elements", shard.sets().len());
        // The rebuilt blocks still die with their frame; the purged objects
        // are not counted twice and the static one stays.
        shard.on_frame_pop(&f, &mut heap);
        assert_eq!(shard.stats().objects_collected, 2);
        assert!(shard.owns(handles[7]) && !shard.owns(handles[0]));
    }

    #[test]
    fn aggregate_stats_sums_counters_and_histograms() {
        let mut a = CgStats::new();
        a.objects_created = 3;
        a.block_sizes.record(1);
        let mut b = CgStats::new();
        b.objects_created = 5;
        b.block_sizes.record(1);
        b.block_sizes.record(7);
        let total = aggregate_stats([&a, &b]);
        assert_eq!(total.objects_created, 8);
        assert_eq!(total.block_sizes.total(), 3);
        assert_eq!(total.block_sizes.bucket_count(0), 2);
    }
}
