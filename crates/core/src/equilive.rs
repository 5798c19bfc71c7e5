//! The equilive relation: which frame each block of objects depends on.
//!
//! The paper's central data structure is an equivalence relation over heap
//! objects — the *equilive* relation — maintained with union/find.  Every
//! block (equivalence class) carries a *dependent frame*: the oldest frame
//! that can still reach any of its members.  When that frame pops, every
//! member is dead (§2.2).

use cg_vm::{FrameId, FrameInfo, Handle, ThreadId};

use crate::packed::ElementId;
use crate::static_domain::StaticNodeId;
use crate::tagged::{MergePayload, TaggedSets};

/// The frame a block depends on.
///
/// `Static` is the paper's "frame 0": the conceptual oldest frame holding all
/// static references, only popped when the program finishes.  Blocks that are
/// `Static` are never collected by the contaminated collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKey {
    /// Depends on the static pseudo-frame (never collected).
    Static,
    /// Depends on a real stack frame.
    Frame {
        /// The frame's unique identity.
        id: FrameId,
        /// The frame's depth within its thread (smaller = older).
        depth: usize,
        /// The thread owning the frame.
        thread: ThreadId,
    },
}

impl FrameKey {
    /// Builds the key for a concrete frame.
    pub fn frame(info: &FrameInfo) -> Self {
        if info.id.is_static() {
            FrameKey::Static
        } else {
            FrameKey::Frame {
                id: info.id,
                depth: info.depth,
                thread: info.thread,
            }
        }
    }

    /// Whether this is the static pseudo-frame.
    pub fn is_static(self) -> bool {
        matches!(self, FrameKey::Static)
    }

    /// The frame id, if this names a real frame.
    pub fn frame_id(self) -> Option<FrameId> {
        match self {
            FrameKey::Static => None,
            FrameKey::Frame { id, .. } => Some(id),
        }
    }

    /// The depth, if this names a real frame.
    pub fn depth(self) -> Option<usize> {
        match self {
            FrameKey::Static => None,
            FrameKey::Frame { depth, .. } => Some(depth),
        }
    }

    /// Combines two dependent frames into the dependent frame of a merged
    /// block: the *older* of the two (§2.2, "the new block is dependent on
    /// the older of the existing blocks' dependent frames").
    ///
    /// Frames of different threads are not comparable; since an object shared
    /// between threads must be treated as static anyway (§3.3), the merge of
    /// incomparable frames is conservatively `Static`.
    pub fn older(self, other: FrameKey) -> FrameKey {
        match (self, other) {
            (FrameKey::Static, _) | (_, FrameKey::Static) => FrameKey::Static,
            (
                FrameKey::Frame {
                    id: ia,
                    depth: da,
                    thread: ta,
                },
                FrameKey::Frame {
                    id: ib,
                    depth: db,
                    thread: tb,
                },
            ) => {
                if ta != tb {
                    FrameKey::Static
                } else if da <= db {
                    FrameKey::Frame {
                        id: ia,
                        depth: da,
                        thread: ta,
                    }
                } else {
                    FrameKey::Frame {
                        id: ib,
                        depth: db,
                        thread: tb,
                    }
                }
            }
        }
    }

    /// Whether `self` is strictly older (will pop strictly later) than
    /// `other`.  Static is older than everything but itself; frames of
    /// different threads are treated as not older (the caller must demote to
    /// static instead).
    pub fn strictly_older_than(self, other: FrameKey) -> bool {
        match (self, other) {
            (FrameKey::Static, FrameKey::Static) => false,
            (FrameKey::Static, _) => true,
            (_, FrameKey::Static) => false,
            (
                FrameKey::Frame {
                    depth: da,
                    thread: ta,
                    ..
                },
                FrameKey::Frame {
                    depth: db,
                    thread: tb,
                    ..
                },
            ) => ta == tb && da < db,
        }
    }
}

/// Why a block was (or was not) demoted to the static pseudo-frame.  Used to
/// report the static / thread-shared breakdown of Figures 4.2–4.4 and A.1.
///
/// The variants are declared in lattice order — `NotStatic` (no definite
/// reason yet) below `StaticReference` below `ThreadShared` — and the
/// derived `Ord` *is* that lattice: merging the reasons of two blocks takes
/// the maximum (see [`merge_reasons`](crate::static_domain::merge_reasons)),
/// which makes concurrent reason upgrades commute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StaticReason {
    /// The block is not static.
    NotStatic,
    /// A static variable (or interpreter static reference) reaches the block.
    StaticReference,
    /// The block was accessed by more than one thread (§3.3).
    ThreadShared,
}

/// The per-block payload carried on every equilive set root.
///
/// A static block's identity and reason live in the shared
/// [`StaticDomain`](crate::StaticDomain): `static_node` points at the
/// block's domain node, and two static blocks are "the same block" iff their
/// nodes are in the same domain set.  Shards never union static blocks in
/// their own forests — that is what lets the static set be shared across
/// shards while everything else stays shard-private.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockInfo {
    /// The frame this block depends on.
    pub key: FrameKey,
    /// The block's node in the shared static domain; `Some` iff `key` is
    /// [`FrameKey::Static`].
    pub static_node: Option<StaticNodeId>,
    /// Every object in the block.
    pub members: Vec<Handle>,
}

impl BlockInfo {
    /// Creates a singleton block for a freshly allocated object.
    ///
    /// The caller escalates the block into the static domain (assigning
    /// `static_node`) if `key` is already static.
    pub fn singleton(handle: Handle, key: FrameKey) -> Self {
        BlockInfo {
            key,
            static_node: None,
            members: vec![handle],
        }
    }

    /// Number of objects in the block.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the block has no members (never true for blocks created
    /// through the collector, but part of the collection-friendly API).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether the block is static (dependent on frame 0).
    pub fn is_static(&self) -> bool {
        self.key.is_static()
    }
}

impl MergePayload for BlockInfo {
    fn merge(&mut self, absorbed: Self) {
        self.key = self.key.older(absorbed.key);
        // At most one side is static: the store barrier routes static×static
        // pairs to the shared domain instead of unioning them in the shard
        // forest.  When the merged key becomes static with no node (one side
        // was static, or the frames were thread-incomparable), the barrier
        // escalates the merged block right after this merge.
        debug_assert!(
            self.static_node.is_none() || absorbed.static_node.is_none(),
            "static blocks merge in the static domain, not the shard forest"
        );
        self.static_node = self.static_node.or(absorbed.static_node);
        let mut absorbed_members = absorbed.members;
        self.members.append(&mut absorbed_members);
    }
}

/// The equilive relation itself: a tagged union/find forest over the
/// program's objects, keyed by an element id per *object incarnation* (a
/// recycled object gets a fresh element).  A dead block's elements are
/// released and reused, so the forest is sized by the peak number of live
/// objects, not by the objects ever created.
#[derive(Debug, Clone)]
pub struct EquiliveSets {
    sets: TaggedSets<BlockInfo>,
}

impl Default for EquiliveSets {
    fn default() -> Self {
        Self {
            sets: TaggedSets::new(),
        }
    }
}

impl EquiliveSets {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size of the element table: the most elements (object incarnations)
    /// live at once.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether no elements have been inserted.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Number of distinct blocks.
    pub fn block_count(&self) -> usize {
        self.sets.set_count()
    }

    /// Inserts a fresh singleton block for `handle`, dependent on `key`.
    pub fn insert(&mut self, handle: Handle, key: FrameKey) -> ElementId {
        self.sets.insert(BlockInfo::singleton(handle, key))
    }

    /// The representative element of `elem`'s block.
    pub fn find(&mut self, elem: ElementId) -> ElementId {
        self.sets.find(elem)
    }

    /// Releases `elem` for reuse by a later [`insert`](Self::insert),
    /// dropping the block record if `elem` is its root.  A dying block
    /// releases every element it owns, its root included.
    pub fn release(&mut self, elem: ElementId) {
        self.sets.release(elem);
    }

    /// Whether two elements are in the same block.
    pub fn same_block(&mut self, a: ElementId, b: ElementId) -> bool {
        self.sets.same_set(a, b)
    }

    /// Unions the blocks of `a` and `b`; the merged block depends on the
    /// older of the two dependent frames.  Returns the representative of the
    /// merged block.
    pub fn union(&mut self, a: ElementId, b: ElementId) -> ElementId {
        self.sets.union(a, b).root
    }

    /// Unions the blocks of two elements already known to be distinct
    /// current roots, skipping the finds (the store barrier resolves each
    /// operand's root exactly once per event).
    pub fn union_roots(&mut self, ra: ElementId, rb: ElementId) -> ElementId {
        self.sets.union_roots(ra, rb).root
    }

    /// The block containing `elem`.
    pub fn block(&mut self, elem: ElementId) -> &BlockInfo {
        self.sets.payload(elem).expect("element exists")
    }

    /// The block whose representative is `root`, without a find.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a current set representative.
    pub fn block_of_root(&self, root: ElementId) -> &BlockInfo {
        self.sets
            .payload_of_root(root)
            .expect("root carries a block")
    }

    /// Mutable access to the block whose representative is `root`, without
    /// a find.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a current set representative.
    pub fn block_mut_of_root(&mut self, root: ElementId) -> &mut BlockInfo {
        self.sets
            .payload_mut_of_root(root)
            .expect("root carries a block")
    }

    /// The maximum union-by-rank rank in the underlying forest (the paper
    /// observes this stays small, justifying the packed handle of §3.5).
    pub fn max_rank(&self) -> u8 {
        self.sets.forest().max_rank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_vm::MethodId;

    fn frame_key(id: u64, depth: usize) -> FrameKey {
        FrameKey::Frame {
            id: FrameId::new(id),
            depth,
            thread: ThreadId::MAIN,
        }
    }

    fn handle(i: u32) -> Handle {
        Handle::from_index(i)
    }

    #[test]
    fn frame_key_from_frame_info() {
        let info = FrameInfo {
            id: FrameId::new(4),
            depth: 2,
            thread: ThreadId::MAIN,
            method: MethodId::new(0),
        };
        assert_eq!(FrameKey::frame(&info), frame_key(4, 2));
        assert_eq!(
            FrameKey::frame(&FrameInfo::static_frame()),
            FrameKey::Static
        );
        assert!(FrameKey::Static.is_static());
        assert_eq!(FrameKey::Static.frame_id(), None);
        assert_eq!(frame_key(4, 2).frame_id(), Some(FrameId::new(4)));
        assert_eq!(frame_key(4, 2).depth(), Some(2));
    }

    #[test]
    fn older_prefers_smaller_depth() {
        let old = frame_key(1, 1);
        let young = frame_key(9, 5);
        assert_eq!(old.older(young), old);
        assert_eq!(young.older(old), old);
        assert_eq!(old.older(old), old);
    }

    #[test]
    fn older_with_static_is_static() {
        let f = frame_key(2, 3);
        assert_eq!(FrameKey::Static.older(f), FrameKey::Static);
        assert_eq!(f.older(FrameKey::Static), FrameKey::Static);
    }

    #[test]
    fn older_across_threads_is_static() {
        let a = FrameKey::Frame {
            id: FrameId::new(1),
            depth: 1,
            thread: ThreadId::new(0),
        };
        let b = FrameKey::Frame {
            id: FrameId::new(2),
            depth: 2,
            thread: ThreadId::new(1),
        };
        assert_eq!(a.older(b), FrameKey::Static);
    }

    #[test]
    fn strictly_older_ordering() {
        assert!(FrameKey::Static.strictly_older_than(frame_key(1, 1)));
        assert!(!FrameKey::Static.strictly_older_than(FrameKey::Static));
        assert!(frame_key(1, 1).strictly_older_than(frame_key(2, 3)));
        assert!(!frame_key(2, 3).strictly_older_than(frame_key(1, 1)));
        assert!(!frame_key(1, 1).strictly_older_than(FrameKey::Static));
        let other_thread = FrameKey::Frame {
            id: FrameId::new(5),
            depth: 9,
            thread: ThreadId::new(7),
        };
        assert!(!frame_key(1, 1).strictly_older_than(other_thread));
    }

    #[test]
    fn block_merge_takes_older_frame_and_appends_members() {
        let mut a = BlockInfo::singleton(handle(0), frame_key(3, 3));
        let b = BlockInfo::singleton(handle(1), frame_key(2, 2));
        a.merge(b);
        assert_eq!(a.key, frame_key(2, 2));
        assert_eq!(a.members, vec![handle(0), handle(1)]);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(!a.is_static());
    }

    #[test]
    fn block_merge_inherits_the_static_side_node() {
        let mut a = BlockInfo::singleton(handle(0), FrameKey::Static);
        a.static_node = Some(7);
        let b = BlockInfo::singleton(handle(1), frame_key(1, 1));
        a.merge(b);
        assert!(a.is_static());
        assert_eq!(a.static_node, Some(7));
        // Symmetric: the non-static winner inherits the absorbed node.
        let mut c = BlockInfo::singleton(handle(2), frame_key(1, 1));
        let mut d = BlockInfo::singleton(handle(3), FrameKey::Static);
        d.static_node = Some(9);
        c.merge(d);
        assert!(c.is_static());
        assert_eq!(c.static_node, Some(9));
    }

    #[test]
    fn block_merge_across_threads_goes_static_pending_escalation() {
        let mut a = BlockInfo::singleton(
            handle(0),
            FrameKey::Frame {
                id: FrameId::new(1),
                depth: 1,
                thread: ThreadId::new(0),
            },
        );
        let b = BlockInfo::singleton(
            handle(1),
            FrameKey::Frame {
                id: FrameId::new(2),
                depth: 1,
                thread: ThreadId::new(1),
            },
        );
        a.merge(b);
        // Thread-incomparable frames merge to the static pseudo-frame; the
        // store barrier escalates the block into the domain right after.
        assert!(a.is_static());
        assert_eq!(a.static_node, None);
    }

    #[test]
    fn equilive_union_follows_older_frame() {
        let mut eq = EquiliveSets::new();
        let a = eq.insert(handle(0), frame_key(5, 5));
        let b = eq.insert(handle(1), frame_key(2, 2));
        let c = eq.insert(handle(2), frame_key(7, 7));
        assert_eq!(eq.block_count(), 3);
        eq.union(a, b);
        assert_eq!(eq.block(a).key, frame_key(2, 2));
        assert!(eq.same_block(a, b));
        assert!(!eq.same_block(a, c));
        eq.union(c, a);
        assert_eq!(eq.block(c).key, frame_key(2, 2));
        assert_eq!(eq.block(c).len(), 3);
        assert_eq!(eq.block_count(), 1);
        assert_eq!(eq.len(), 3);
        assert!(!eq.is_empty());
        assert!(eq.max_rank() <= 2);
    }

    #[test]
    fn iter_blocks_covers_all_members() {
        let mut eq = EquiliveSets::new();
        let a = eq.insert(handle(0), frame_key(1, 1));
        let b = eq.insert(handle(1), frame_key(2, 2));
        let c = eq.insert(handle(2), frame_key(3, 3));
        eq.union(a, c);
        assert!(!eq.same_block(a, b));
        assert_eq!(eq.block(a).len() + eq.block(b).len(), 3);
    }

    #[test]
    fn block_mut_allows_retargeting() {
        let mut eq = EquiliveSets::new();
        let a = eq.insert(handle(0), frame_key(4, 4));
        let root = eq.find(a);
        eq.block_mut_of_root(root).key = FrameKey::Static;
        eq.block_mut_of_root(root).static_node = Some(0);
        assert!(eq.block(a).is_static());
        assert_eq!(eq.block(a).static_node, Some(0));
    }
}
