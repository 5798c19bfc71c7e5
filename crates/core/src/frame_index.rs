//! The per-frame index of equilive blocks, as dense stacks.
//!
//! Every live equilive block (identified by its root element) depends on
//! exactly one frame; when that frame pops, the block dies (§2.2).  The seed
//! kept this index as `HashMap<FrameId, HashSet<ElementId>>`, paying a hash
//! per attach/detach and a clone-heavy drain per pop.  But frames pop in
//! LIFO order within a thread, so the index is really a *stack of buckets*:
//! one bucket per stack depth per thread, plus one bucket for the static
//! pseudo-frame.  Attach pushes into the bucket at the block's dependent
//! depth; popping a frame drains the bucket at that depth (which is, by
//! LIFO, exactly that frame's blocks); detach is O(1) via a recorded
//! `(thread, depth, index)` slot per root, fixed up on `swap_remove`.
//!
//! Everything on the hot path is an index into a `Vec`; buckets keep their
//! capacity across push/pop cycles, so the steady state allocates nothing.

use cg_vm::ThreadId;

use crate::equilive::FrameKey;
use crate::packed::ElementId;

/// Where a block root is currently attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AttachSlot {
    /// Owning thread index, [`AttachSlot::STATIC`] for the static bucket, or
    /// [`AttachSlot::NONE`] when detached.
    thread: u32,
    /// Frame depth within the thread (unused for static/none).
    depth: u32,
    /// Position within the bucket (fixed up on `swap_remove`).
    index: u32,
}

impl AttachSlot {
    const NONE: u32 = u32::MAX;
    const STATIC: u32 = u32::MAX - 1;

    const DETACHED: AttachSlot = AttachSlot {
        thread: Self::NONE,
        depth: 0,
        index: 0,
    };
}

/// Dense frame-block stacks: the blocks dependent on every live frame, in
/// O(1) attach/detach and allocation-free pop-drain order.
#[derive(Debug, Clone, Default)]
pub struct FrameBlockIndex {
    /// `threads[thread][depth]` holds the roots dependent on the frame at
    /// `depth` of `thread` (depth 0 is never used: it belongs to the static
    /// pseudo-frame, which has its own bucket).
    threads: Vec<Vec<Vec<ElementId>>>,
    /// Roots dependent on the static pseudo-frame ("frame 0").
    statics: Vec<ElementId>,
    /// Current attachment of every element id ever attached (ids are
    /// reused once their block dies, so this is sized by the peak number of
    /// live elements).
    slots: Vec<AttachSlot>,
}

impl FrameBlockIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, root: ElementId) -> AttachSlot {
        self.slots
            .get(root as usize)
            .copied()
            .unwrap_or(AttachSlot::DETACHED)
    }

    /// Whether `root` is currently attached to any bucket.
    fn is_attached(&self, root: ElementId) -> bool {
        self.slot(root).thread != AttachSlot::NONE
    }

    /// Attaches `root` to the bucket of `key`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `root` is not already attached.
    pub fn attach(&mut self, root: ElementId, key: FrameKey) {
        debug_assert!(!self.is_attached(root), "root {root} is already attached");
        if self.slots.len() <= root as usize {
            self.slots.resize(root as usize + 1, AttachSlot::DETACHED);
        }
        match key {
            FrameKey::Static => {
                self.slots[root as usize] = AttachSlot {
                    thread: AttachSlot::STATIC,
                    depth: 0,
                    index: self.statics.len() as u32,
                };
                self.statics.push(root);
            }
            FrameKey::Frame { depth, thread, .. } => {
                let t = thread.raw() as usize;
                if self.threads.len() <= t {
                    self.threads.resize_with(t + 1, Vec::new);
                }
                let stacks = &mut self.threads[t];
                if stacks.len() <= depth {
                    stacks.resize_with(depth + 1, Vec::new);
                }
                let bucket = &mut stacks[depth];
                self.slots[root as usize] = AttachSlot {
                    thread: t as u32,
                    depth: depth as u32,
                    index: bucket.len() as u32,
                };
                bucket.push(root);
            }
        }
    }

    /// Detaches `root` from whatever bucket it is attached to (no-op if
    /// detached — a block absorbed by a union is detached exactly once).
    pub fn detach(&mut self, root: ElementId) {
        let slot = self.slot(root);
        let bucket = match slot.thread {
            AttachSlot::NONE => return,
            AttachSlot::STATIC => &mut self.statics,
            t => &mut self.threads[t as usize][slot.depth as usize],
        };
        let index = slot.index as usize;
        debug_assert_eq!(bucket[index], root, "attachment slot out of sync");
        bucket.swap_remove(index);
        if let Some(&moved) = bucket.get(index) {
            self.slots[moved as usize].index = index as u32;
        }
        self.slots[root as usize] = AttachSlot::DETACHED;
    }

    /// Pops one block root dependent on the frame at `depth` of `thread`,
    /// or `None` once the frame's bucket is drained.  By LIFO popping, the
    /// bucket at `depth` holds exactly the popping frame's blocks.
    pub fn pop_frame_block(&mut self, thread: ThreadId, depth: usize) -> Option<ElementId> {
        let bucket = self
            .threads
            .get_mut(thread.raw() as usize)?
            .get_mut(depth)?;
        let root = bucket.pop()?;
        self.slots[root as usize] = AttachSlot::DETACHED;
        Some(root)
    }

    /// Detaches everything (the §3.6 resetting pass); bucket capacity is
    /// retained.
    pub fn clear(&mut self) {
        for stacks in &mut self.threads {
            for bucket in stacks.iter_mut() {
                bucket.clear();
            }
        }
        self.statics.clear();
        self.slots.fill(AttachSlot::DETACHED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_vm::FrameId;

    fn key(thread: u32, depth: usize) -> FrameKey {
        FrameKey::Frame {
            id: FrameId::new(depth as u64 + 1),
            depth,
            thread: ThreadId::new(thread),
        }
    }

    #[test]
    fn attach_pop_drains_one_frames_blocks() {
        let mut index = FrameBlockIndex::new();
        index.attach(1, key(0, 1));
        index.attach(2, key(0, 2));
        index.attach(3, key(0, 2));
        assert!(index.is_attached(2));
        // Popping depth 2 yields exactly the two blocks attached there.
        let mut drained = Vec::new();
        while let Some(root) = index.pop_frame_block(ThreadId::MAIN, 2) {
            drained.push(root);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![2, 3]);
        assert!(!index.is_attached(2));
        assert!(index.is_attached(1));
        assert_eq!(index.pop_frame_block(ThreadId::MAIN, 2), None);
    }

    #[test]
    fn detach_fixes_up_swapped_slot() {
        let mut index = FrameBlockIndex::new();
        index.attach(10, key(0, 1));
        index.attach(11, key(0, 1));
        index.attach(12, key(0, 1));
        // Removing the first element swap-moves the last into its slot;
        // that element must still detach cleanly afterwards.
        index.detach(10);
        index.detach(12);
        assert!(index.is_attached(11));
        assert_eq!(index.pop_frame_block(ThreadId::MAIN, 1), Some(11));
        assert_eq!(index.pop_frame_block(ThreadId::MAIN, 1), None);
    }

    #[test]
    fn detach_of_detached_root_is_noop() {
        let mut index = FrameBlockIndex::new();
        index.detach(99);
        index.attach(5, FrameKey::Static);
        assert_eq!(index.statics.len(), 1);
        index.detach(5);
        index.detach(5);
        assert_eq!(index.statics.len(), 0);
    }

    #[test]
    fn static_bucket_is_separate_from_frames() {
        let mut index = FrameBlockIndex::new();
        index.attach(1, FrameKey::Static);
        index.attach(2, key(0, 1));
        assert_eq!(index.statics.len(), 1);
        assert_eq!(index.pop_frame_block(ThreadId::MAIN, 1), Some(2));
        // The static bucket never drains through frame pops.
        assert_eq!(index.statics.len(), 1);
    }

    #[test]
    fn threads_do_not_interfere() {
        let mut index = FrameBlockIndex::new();
        index.attach(1, key(0, 1));
        index.attach(2, key(1, 1));
        assert_eq!(index.pop_frame_block(ThreadId::new(1), 1), Some(2));
        assert_eq!(index.pop_frame_block(ThreadId::new(1), 1), None);
        assert_eq!(index.pop_frame_block(ThreadId::MAIN, 1), Some(1));
        // Unknown threads and depths are empty, not errors.
        assert_eq!(index.pop_frame_block(ThreadId::new(7), 3), None);
    }

    #[test]
    fn clear_detaches_everything() {
        let mut index = FrameBlockIndex::new();
        index.attach(1, key(0, 1));
        index.attach(2, FrameKey::Static);
        index.clear();
        assert!(!index.is_attached(1));
        assert!(!index.is_attached(2));
        assert_eq!(index.statics.len(), 0);
        assert_eq!(index.pop_frame_block(ThreadId::MAIN, 1), None);
        // Reattach after clear works (slot table was reset, not truncated).
        index.attach(1, key(0, 2));
        assert!(index.is_attached(1));
    }
}
