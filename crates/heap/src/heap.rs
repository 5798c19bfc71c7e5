//! The heap: handle table plus object space.

use crate::error::HeapError;
use crate::freelist::{BlockAddr, ObjectSpace};
use crate::layout::HeapConfig;
use crate::object::Object;
use crate::slots::SlotTable;
use crate::value::{ClassId, Handle, Value};

/// Cumulative heap activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects ever allocated (instances + arrays), excluding recycled
    /// reinitialisations.
    pub objects_allocated: u64,
    /// Objects freed back to the object space.
    pub objects_freed: u64,
    /// Total bytes ever requested from the object space.
    pub bytes_allocated: u64,
    /// Allocation attempts that failed for lack of object space (before any
    /// collector intervention).
    pub allocation_failures: u64,
    /// Objects handed back to the program by reinitialising a dead object in
    /// place (the §3.7 recycling path).
    pub objects_recycled: u64,
    /// The largest number of simultaneously live objects observed.
    pub peak_live_objects: u64,
}

/// A handle-table entry: the object and where its block starts.  The
/// block's size is the object's `size_bytes`, so the object space keeps no
/// table of its own for allocated blocks.
#[derive(Debug, Clone)]
struct Slot {
    object: Object,
    addr: BlockAddr,
}

// One slot per live object: keep it at five words.
const _: () = assert!(std::mem::size_of::<Option<Slot>>() == 40);

/// The handle-indirected heap: a handle table in front of a first-fit object
/// space, mirroring the JDK 1.1.8 storage manager the paper modifies.
///
/// # Example
///
/// ```
/// use cg_heap::{Heap, HeapConfig, ClassId, Value};
///
/// let mut heap = Heap::new(HeapConfig::small());
/// let list_class = ClassId::new(0);
/// let node = heap.allocate(list_class, 2)?;
/// let payload = heap.allocate(list_class, 0)?;
/// heap.set_field(node, 0, Value::from(payload))?;
/// assert_eq!(heap.references_of(node), vec![payload]);
/// assert_eq!(heap.live_count(), 2);
/// heap.free(payload)?;
/// assert_eq!(heap.live_count(), 1);
/// # Ok::<(), cg_heap::HeapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Heap {
    config: HeapConfig,
    space: ObjectSpace,
    slots: SlotTable<Slot>,
    live: usize,
    stats: HeapStats,
    alloc_attempts: u64,
}

impl Heap {
    /// Creates an empty heap with the given configuration.
    pub fn new(config: HeapConfig) -> Self {
        Self {
            config,
            space: ObjectSpace::with_policy(config.object_space_bytes, config.alloc_policy),
            slots: SlotTable::new(),
            live: 0,
            stats: HeapStats::default(),
            alloc_attempts: 0,
        }
    }

    /// The heap's configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// The underlying object space (for allocator statistics).
    pub fn object_space(&self) -> &ObjectSpace {
        &self.space
    }

    /// Number of currently live objects.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Number of handles ever minted (live + retired).
    pub fn handles_minted(&self) -> usize {
        self.slots.len()
    }

    /// Bytes currently occupied in the object space.
    pub fn bytes_in_use(&self) -> usize {
        self.space.used()
    }

    /// Bytes currently free in the object space.
    pub fn free_bytes(&self) -> usize {
        self.space.free_bytes()
    }

    /// Whether `handle` names a live object.
    #[inline]
    pub fn is_live(&self, handle: Handle) -> bool {
        self.slots.get(handle.index_usize()).is_some()
    }

    /// Allocates an instance of `class` with `field_count` reference/primitive
    /// fields.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfObjectSpace`] when no free block fits and
    /// [`HeapError::OutOfHandleSpace`] when the handle table is full; the VM
    /// reacts by running the installed collector and retrying.
    pub fn allocate(&mut self, class: ClassId, field_count: usize) -> Result<Handle, HeapError> {
        let size = self.config.instance_bytes(field_count);
        self.allocate_object(Object::instance(class, field_count, size))
    }

    /// Allocates an array of `class` with `length` elements.
    ///
    /// # Errors
    ///
    /// Same as [`Heap::allocate`].
    pub fn allocate_array(&mut self, class: ClassId, length: usize) -> Result<Handle, HeapError> {
        let size = self.config.array_bytes(length);
        self.allocate_object(Object::array(class, length, size))
    }

    /// Reserves object space for `object`, charging failed attempts; the
    /// caller installs the slot and calls [`Heap::commit_allocation`].
    fn reserve_space(&mut self, object: &Object) -> Result<BlockAddr, HeapError> {
        let attempt = self.alloc_attempts;
        self.alloc_attempts += 1;
        if self.config.alloc_failure_at == Some(attempt) {
            self.stats.allocation_failures += 1;
            return Err(HeapError::OutOfObjectSpace {
                requested: object.size_bytes(),
                free: self.space.free_bytes(),
            });
        }
        if self.live >= self.config.handle_capacity() {
            self.stats.allocation_failures += 1;
            return Err(HeapError::OutOfHandleSpace {
                capacity: self.config.handle_capacity(),
            });
        }
        let size = object.size_bytes();
        match self.space.alloc(size) {
            Some(addr) => Ok(addr),
            None => {
                self.stats.allocation_failures += 1;
                Err(HeapError::OutOfObjectSpace {
                    requested: size,
                    free: self.space.free_bytes(),
                })
            }
        }
    }

    /// The shared accounting tail of every successful allocation.
    fn commit_allocation(&mut self, size: usize) {
        self.live += 1;
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += size as u64;
        self.stats.peak_live_objects = self.stats.peak_live_objects.max(self.live as u64);
    }

    fn allocate_object(&mut self, object: Object) -> Result<Handle, HeapError> {
        let addr = self.reserve_space(&object)?;
        let size = object.size_bytes();
        let index = self.slots.push(Slot { object, addr });
        self.commit_allocation(size);
        Ok(Handle::from_index(index as u32))
    }

    /// Allocates an instance of `class` under a caller-chosen handle — the
    /// sharded replay mode.
    ///
    /// A parallel trace evaluation gives every shard its own `Heap` (a
    /// private object-space region with its own rover and free list, so
    /// shards never touch each other's free lists); handle identities,
    /// however, were minted globally by the recording run, so each shard
    /// mirrors only its own slice of the handle table and must place each
    /// object at the *recorded* handle index rather than the next sequential
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::HandleInUse`] if the slot already holds a live
    /// object, plus the same exhaustion errors as [`Heap::allocate`].
    pub fn allocate_at(
        &mut self,
        handle: Handle,
        class: ClassId,
        field_count: usize,
    ) -> Result<(), HeapError> {
        let size = self.config.instance_bytes(field_count);
        self.allocate_object_at(handle, Object::instance(class, field_count, size))
    }

    /// Allocates an array under a caller-chosen handle (see
    /// [`Heap::allocate_at`]).
    ///
    /// # Errors
    ///
    /// Same as [`Heap::allocate_at`].
    pub fn allocate_array_at(
        &mut self,
        handle: Handle,
        class: ClassId,
        length: usize,
    ) -> Result<(), HeapError> {
        let size = self.config.array_bytes(length);
        self.allocate_object_at(handle, Object::array(class, length, size))
    }

    fn allocate_object_at(&mut self, handle: Handle, object: Object) -> Result<(), HeapError> {
        let index = handle.index_usize();
        // Placed allocation trusts the caller's index: the replay layers
        // (`validate_event_handles` on both the single-heap and sharded
        // paths) bound every event-named handle by the configured capacity
        // before it reaches the heap, so a hostile index near `u32::MAX`
        // never gets far enough to inflate the slot table's page
        // directory.  Handles may be sparse — capacity bounds the *live
        // count*, not the index space.
        self.slots.mint_through(index);
        if self.slots.get(index).is_some() {
            return Err(HeapError::HandleInUse(handle));
        }
        let addr = self.reserve_space(&object)?;
        let size = object.size_bytes();
        self.slots.insert(index, Slot { object, addr });
        self.commit_allocation(size);
        Ok(())
    }

    /// Frees the object named by `handle`, returning its size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DeadHandle`] if the handle is not live.
    pub fn free(&mut self, handle: Handle) -> Result<usize, HeapError> {
        let slot = self
            .slots
            .take(handle.index_usize())
            .ok_or(HeapError::DeadHandle(handle))?;
        self.space.free(slot.addr, slot.object.size_bytes());
        self.live -= 1;
        self.stats.objects_freed += 1;
        Ok(slot.object.size_bytes())
    }

    /// Reinitialises a live (but logically dead) object in place so it can be
    /// handed out as a fresh instance of `class` with `field_count` fields.
    ///
    /// This is the §3.7 recycling path: the object's storage and handle are
    /// reused without a round-trip through the free list.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DeadHandle`] if the handle is not live and
    /// [`HeapError::RecycleSizeMismatch`] if the dead object cannot hold the
    /// requested instance.
    pub fn reinitialize(
        &mut self,
        handle: Handle,
        class: ClassId,
        field_count: usize,
    ) -> Result<(), HeapError> {
        let requested = self.config.instance_bytes(field_count);
        let slot = self
            .slots
            .get_mut(handle.index_usize())
            .ok_or(HeapError::DeadHandle(handle))?;
        if slot.object.is_array() || slot.object.slot_count() < field_count {
            return Err(HeapError::RecycleSizeMismatch {
                handle,
                class,
                available: slot.object.size_bytes(),
                requested,
            });
        }
        slot.object.reinitialize(class);
        self.stats.objects_recycled += 1;
        Ok(())
    }

    /// Shared access to the object named by `handle`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DeadHandle`] if the handle is not live.
    pub fn get(&self, handle: Handle) -> Result<&Object, HeapError> {
        self.slots
            .get(handle.index_usize())
            .map(|s| &s.object)
            .ok_or(HeapError::DeadHandle(handle))
    }

    /// Mutable access to the object named by `handle`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DeadHandle`] if the handle is not live.
    pub fn get_mut(&mut self, handle: Handle) -> Result<&mut Object, HeapError> {
        self.slots
            .get_mut(handle.index_usize())
            .map(|s| &mut s.object)
            .ok_or(HeapError::DeadHandle(handle))
    }

    /// Reads slot `index` (field or array element) of the object.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DeadHandle`] or [`HeapError::BadField`].
    pub fn slot(&self, handle: Handle, index: usize) -> Result<Value, HeapError> {
        let object = self.get(handle)?;
        object
            .slots()
            .get(index)
            .copied()
            .ok_or(HeapError::BadField {
                handle,
                index,
                len: object.slot_count(),
            })
    }

    /// Writes slot `index` (field or array element) of the object, returning
    /// the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DeadHandle`] or [`HeapError::BadField`].
    fn set_slot(&mut self, handle: Handle, index: usize, value: Value) -> Result<Value, HeapError> {
        let object = self.get_mut(handle)?;
        let len = object.slot_count();
        let slot = object
            .slots_mut()
            .get_mut(index)
            .ok_or(HeapError::BadField { handle, index, len })?;
        Ok(std::mem::replace(slot, value))
    }

    /// Reads a field of an instance object.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::KindMismatch`] for arrays, otherwise as
    /// [`Heap::slot`].
    pub fn field(&self, handle: Handle, index: usize) -> Result<Value, HeapError> {
        if self.get(handle)?.is_array() {
            return Err(HeapError::KindMismatch {
                handle,
                expected: "instance",
            });
        }
        self.slot(handle, index)
    }

    /// Writes a field of an instance object, returning the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::KindMismatch`] for arrays, otherwise
    /// [`HeapError::DeadHandle`] or [`HeapError::BadField`].
    pub fn set_field(
        &mut self,
        handle: Handle,
        index: usize,
        value: Value,
    ) -> Result<Value, HeapError> {
        if self.get(handle)?.is_array() {
            return Err(HeapError::KindMismatch {
                handle,
                expected: "instance",
            });
        }
        self.set_slot(handle, index, value)
    }

    /// Reads an array element.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::KindMismatch`] for non-arrays, otherwise as
    /// [`Heap::slot`].
    pub fn element(&self, handle: Handle, index: usize) -> Result<Value, HeapError> {
        if !self.get(handle)?.is_array() {
            return Err(HeapError::KindMismatch {
                handle,
                expected: "array",
            });
        }
        self.slot(handle, index)
    }

    /// Writes an array element, returning the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::KindMismatch`] for non-arrays, otherwise
    /// [`HeapError::DeadHandle`] or [`HeapError::BadField`].
    pub fn set_element(
        &mut self,
        handle: Handle,
        index: usize,
        value: Value,
    ) -> Result<Value, HeapError> {
        if !self.get(handle)?.is_array() {
            return Err(HeapError::KindMismatch {
                handle,
                expected: "array",
            });
        }
        self.set_slot(handle, index, value)
    }

    /// The handles referenced by the object named by `handle` (empty if the
    /// handle is dead).
    ///
    /// Allocates a fresh `Vec` per call; traversal loops should prefer the
    /// borrowing [`Heap::references_iter`].
    pub fn references_of(&self, handle: Handle) -> Vec<Handle> {
        self.get(handle).map(|o| o.references()).unwrap_or_default()
    }

    /// Iterates over the handles referenced by the object named by `handle`
    /// without allocating (empty if the handle is dead).
    pub fn references_iter(&self, handle: Handle) -> impl Iterator<Item = Handle> + '_ {
        self.get(handle)
            .ok()
            .map(Object::iter_references)
            .into_iter()
            .flatten()
    }

    /// Iterates over all currently live handles.
    pub fn live_handles(&self) -> impl Iterator<Item = Handle> + '_ {
        self.slots.occupied().map(|i| Handle::from_index(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::HandleRepr;

    impl Heap {
        /// Checks the object space against the blocks the live slots name, and
        /// the live count against the slots.
        fn check_invariants(&self) {
            let blocks: Vec<(BlockAddr, usize)> = self
                .slots
                .occupied()
                .map(|i| {
                    let slot = self.slots.get(i).expect("occupied");
                    (slot.addr, slot.object.size_bytes())
                })
                .collect();
            assert_eq!(blocks.len(), self.live, "live count drifted");
            self.space.check_invariants(blocks);
        }
    }

    fn heap() -> Heap {
        Heap::new(HeapConfig::small())
    }

    fn class() -> ClassId {
        ClassId::new(0)
    }

    #[test]
    fn allocate_and_read_back() {
        let mut h = heap();
        let a = h.allocate(class(), 2).unwrap();
        assert!(h.is_live(a));
        assert_eq!(h.live_count(), 1);
        assert_eq!(h.get(a).unwrap().slot_count(), 2);
        assert_eq!(h.stats().objects_allocated, 1);
        assert!(h.bytes_in_use() > 0);
    }

    #[test]
    fn allocate_array_and_elements() {
        let mut h = heap();
        let arr = h.allocate_array(class(), 3).unwrap();
        let obj = h.allocate(class(), 0).unwrap();
        h.set_element(arr, 1, Value::from(obj)).unwrap();
        assert_eq!(h.element(arr, 1).unwrap().as_handle(), Some(obj));
        assert_eq!(h.references_of(arr), vec![obj]);
        // Field accessors reject arrays and vice versa.
        assert!(matches!(
            h.field(arr, 0),
            Err(HeapError::KindMismatch { .. })
        ));
        assert!(matches!(
            h.set_element(obj, 0, Value::NULL),
            Err(HeapError::KindMismatch { .. })
        ));
    }

    #[test]
    fn set_field_returns_previous_value() {
        let mut h = heap();
        let a = h.allocate(class(), 1).unwrap();
        let b = h.allocate(class(), 0).unwrap();
        let prev = h.set_field(a, 0, Value::from(b)).unwrap();
        assert!(prev.is_null());
        let prev = h.set_field(a, 0, Value::Int(5)).unwrap();
        assert_eq!(prev.as_handle(), Some(b));
    }

    #[test]
    fn bad_field_index_is_reported() {
        let mut h = heap();
        let a = h.allocate(class(), 1).unwrap();
        assert!(matches!(
            h.field(a, 7),
            Err(HeapError::BadField {
                index: 7,
                len: 1,
                ..
            })
        ));
        assert!(matches!(
            h.set_field(a, 7, Value::NULL),
            Err(HeapError::BadField { .. })
        ));
    }

    #[test]
    fn free_releases_space_and_retires_handle() {
        let mut h = heap();
        let a = h.allocate(class(), 2).unwrap();
        let used = h.bytes_in_use();
        let freed = h.free(a).unwrap();
        assert_eq!(freed, 16);
        assert_eq!(h.bytes_in_use(), used - 16);
        assert!(!h.is_live(a));
        assert!(matches!(h.get(a), Err(HeapError::DeadHandle(_))));
        assert!(matches!(h.free(a), Err(HeapError::DeadHandle(_))));
        // Handle indices are not reused.
        let b = h.allocate(class(), 0).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn freeing_a_dead_or_unminted_handle_is_an_error_that_changes_nothing() {
        let mut h = heap();
        let a = h.allocate(class(), 2).unwrap();
        let b = h.allocate(class(), 1).unwrap();
        let c = h.allocate(class(), 3).unwrap();
        // Both dead; their blocks coalesced into one free block.
        h.free(b).unwrap();
        h.free(a).unwrap();
        let (used, stats) = (h.bytes_in_use(), *h.stats());
        for handle in [a, b, Handle::from_index(99), Handle::from_index(u32::MAX)] {
            assert_eq!(h.free(handle), Err(HeapError::DeadHandle(handle)));
            assert_eq!((h.bytes_in_use(), *h.stats()), (used, stats));
            h.check_invariants();
        }
        assert_eq!(h.live_handles().collect::<Vec<_>>(), vec![c]);
    }

    #[test]
    fn out_of_object_space_is_reported() {
        // Tiny object space but a roomy handle table, so the object space is
        // what runs out first.
        let mut config = HeapConfig::tight(64);
        config.handle_space_bytes = 1 << 16;
        let mut h = Heap::new(config);
        // Each 2-field object is 16 bytes; 4 fit.
        for _ in 0..4 {
            h.allocate(class(), 2).unwrap();
        }
        let err = h.allocate(class(), 2).unwrap_err();
        assert!(matches!(
            err,
            HeapError::OutOfObjectSpace { requested: 16, .. }
        ));
        assert_eq!(h.stats().allocation_failures, 1);
    }

    #[test]
    fn out_of_handle_space_is_reported() {
        // 1 KiB object space with stock JDK handles: 256 / 8 = 32 handles.
        let config = HeapConfig::with_object_space(1024, HandleRepr::Jdk);
        let mut h = Heap::new(config);
        let capacity = config.handle_capacity();
        for _ in 0..capacity {
            h.allocate(class(), 0).unwrap();
        }
        let err = h.allocate(class(), 0).unwrap_err();
        assert!(matches!(err, HeapError::OutOfHandleSpace { .. }));
    }

    #[test]
    fn freeing_allows_more_handles() {
        let config = HeapConfig::with_object_space(1024, HandleRepr::Jdk);
        let mut h = Heap::new(config);
        let first = h.allocate(class(), 0).unwrap();
        for _ in 1..config.handle_capacity() {
            h.allocate(class(), 0).unwrap();
        }
        h.free(first).unwrap();
        assert!(h.allocate(class(), 0).is_ok());
    }

    #[test]
    fn reinitialize_recycles_in_place() {
        let mut h = heap();
        let a = h.allocate(class(), 3).unwrap();
        let b = h.allocate(class(), 0).unwrap();
        h.set_field(a, 0, Value::from(b)).unwrap();
        let new_class = ClassId::new(9);
        h.reinitialize(a, new_class, 2).unwrap();
        assert_eq!(h.get(a).unwrap().class(), new_class);
        assert!(h.references_of(a).is_empty());
        assert_eq!(h.stats().objects_recycled, 1);
        // Too-large requests are rejected.
        assert!(matches!(
            h.reinitialize(a, new_class, 8),
            Err(HeapError::RecycleSizeMismatch { .. })
        ));
        // Arrays cannot be recycled into instances.
        let arr = h.allocate_array(class(), 4).unwrap();
        assert!(matches!(
            h.reinitialize(arr, new_class, 1),
            Err(HeapError::RecycleSizeMismatch { .. })
        ));
    }

    #[test]
    fn live_handles_iterates_only_live() {
        let mut h = heap();
        let a = h.allocate(class(), 0).unwrap();
        let b = h.allocate(class(), 0).unwrap();
        let c = h.allocate(class(), 0).unwrap();
        h.free(b).unwrap();
        let live: Vec<Handle> = h.live_handles().collect();
        assert_eq!(live, vec![a, c]);
        assert_eq!(h.handles_minted(), 3);
        assert_eq!(h.live_count(), 2);
    }

    #[test]
    fn allocate_at_places_objects_at_recorded_handles() {
        // A shard mirrors only its slice of the handle table: indices 1 and
        // 3 here, as if handles 0 and 2 belong to another shard.
        let mut h = heap();
        h.allocate_at(Handle::from_index(1), class(), 2).unwrap();
        h.allocate_at(Handle::from_index(3), class(), 0).unwrap();
        assert!(h.is_live(Handle::from_index(1)));
        assert!(!h.is_live(Handle::from_index(0)));
        assert!(!h.is_live(Handle::from_index(2)));
        assert_eq!(h.live_count(), 2);
        assert_eq!(h.stats().objects_allocated, 2);
        // The slot is occupied now.
        assert!(matches!(
            h.allocate_at(Handle::from_index(1), class(), 1),
            Err(HeapError::HandleInUse(_))
        ));
        // Freeing and re-placing works (a recycle-free cycle in a shard).
        h.free(Handle::from_index(1)).unwrap();
        h.allocate_at(Handle::from_index(1), class(), 1).unwrap();
        assert_eq!(h.get(Handle::from_index(1)).unwrap().slot_count(), 1);
        // Arrays too.
        h.allocate_array_at(Handle::from_index(7), class(), 4)
            .unwrap();
        assert!(h.get(Handle::from_index(7)).unwrap().is_array());
        assert_eq!(h.live_count(), 3);
    }

    #[test]
    fn allocate_at_reports_exhaustion() {
        let mut config = HeapConfig::tight(64);
        config.handle_space_bytes = 1 << 16;
        let mut h = Heap::new(config);
        for i in 0..4 {
            h.allocate_at(Handle::from_index(i), class(), 2).unwrap();
        }
        assert!(matches!(
            h.allocate_at(Handle::from_index(9), class(), 2),
            Err(HeapError::OutOfObjectSpace { .. })
        ));
        // A failed placement must not leak the reserved slot: the handle
        // stays dead and allocatable later.
        assert!(!h.is_live(Handle::from_index(9)));
        assert_eq!(h.stats().allocation_failures, 1);
    }

    #[test]
    fn allocate_array_at_reports_exhaustion_and_occupied_slots() {
        let mut config = HeapConfig::tight(64);
        config.handle_space_bytes = 1 << 16;
        let mut h = Heap::new(config);
        // A 13-element array needs (2 + 1 + 13) * 4 = 64 bytes: fills the
        // region exactly.
        h.allocate_array_at(Handle::from_index(0), class(), 13)
            .unwrap();
        // The array variant reports HandleInUse like the instance variant...
        assert!(matches!(
            h.allocate_array_at(Handle::from_index(0), class(), 1),
            Err(HeapError::HandleInUse(_))
        ));
        // ...and out-of-region exhaustion on a fresh slot.
        assert!(matches!(
            h.allocate_array_at(Handle::from_index(5), class(), 1),
            Err(HeapError::OutOfObjectSpace { .. })
        ));
        assert!(!h.is_live(Handle::from_index(5)));
        // Freeing the array makes both the space and the slot reusable.
        h.free(Handle::from_index(0)).unwrap();
        h.allocate_array_at(Handle::from_index(0), class(), 13)
            .unwrap();
    }

    #[test]
    fn allocate_at_respects_handle_capacity() {
        // A handle table with room for exactly 2 live handles (JDK repr:
        // 8 bytes per handle).
        let mut config = HeapConfig::with_object_space(1 << 12, HandleRepr::Jdk);
        config.handle_space_bytes = 16;
        let mut h = Heap::new(config);
        h.allocate_at(Handle::from_index(0), class(), 0).unwrap();
        h.allocate_at(Handle::from_index(7), class(), 0).unwrap();
        let err = h
            .allocate_at(Handle::from_index(3), class(), 0)
            .unwrap_err();
        assert_eq!(err, HeapError::OutOfHandleSpace { capacity: 2 });
        // Same for the array variant.
        let err = h
            .allocate_array_at(Handle::from_index(3), class(), 1)
            .unwrap_err();
        assert_eq!(err, HeapError::OutOfHandleSpace { capacity: 2 });
        // Freeing one releases capacity for a placed allocation again.
        h.free(Handle::from_index(7)).unwrap();
        h.allocate_array_at(Handle::from_index(3), class(), 1)
            .unwrap();
    }

    #[test]
    fn injected_allocation_failure_trips_the_exact_attempt() {
        let config = HeapConfig::small().with_alloc_failure_at(2);
        let mut h = Heap::new(config);
        h.allocate(class(), 0).unwrap();
        h.allocate(class(), 1).unwrap();
        let err = h.allocate(class(), 0).unwrap_err();
        assert!(matches!(err, HeapError::OutOfObjectSpace { .. }));
        assert_eq!(h.stats().allocation_failures, 1);
        // The failure fires once; the heap keeps working afterwards.
        h.allocate(class(), 0).unwrap();
        assert_eq!(h.live_count(), 3);
        // The placed-allocation paths share the counter.
        let config = HeapConfig::small().with_alloc_failure_at(0);
        let mut h = Heap::new(config);
        let err = h
            .allocate_at(Handle::from_index(4), class(), 0)
            .unwrap_err();
        assert!(matches!(err, HeapError::OutOfObjectSpace { .. }));
        assert!(!h.is_live(Handle::from_index(4)));
    }

    #[test]
    fn peak_live_tracks_high_water_mark() {
        let mut h = heap();
        let a = h.allocate(class(), 0).unwrap();
        let _b = h.allocate(class(), 0).unwrap();
        h.free(a).unwrap();
        let _c = h.allocate(class(), 0).unwrap();
        assert_eq!(h.stats().peak_live_objects, 2);
    }

    mod properties {
        use super::*;
        use cg_testutil::TestRng;

        /// Heap accounting (live count, bytes in use) always matches the
        /// set of objects the test believes are live, across random
        /// allocate/free/write workloads — and the paged handle table
        /// answers every question the way the flat `Vec<Option<_>>` it
        /// replaced (`flat`, the object sizes by handle index) would,
        /// including placed allocations into pages already released.
        #[test]
        fn accounting_matches_model() {
            for seed in 0..64u64 {
                let mut rng = TestRng::new(seed);
                // Every eighth seed runs long enough to mint, empty and
                // release several pages of the handle table.
                let steps = if seed % 8 == 0 {
                    4000
                } else {
                    rng.gen_range(10, 150)
                };
                let mut h = Heap::new(HeapConfig::with_object_space(1 << 16, HandleRepr::CgWide));
                let mut live: Vec<(Handle, usize)> = Vec::new();
                let mut flat: Vec<Option<usize>> = Vec::new();
                for _ in 0..steps {
                    let roll: f64 = rng.gen_f64();
                    if live.is_empty() || roll < 0.5 {
                        let fields = rng.gen_range(0, 6);
                        if let Ok(handle) = h.allocate(ClassId::new(0), fields) {
                            let size = h.get(handle).unwrap().size_bytes();
                            assert_eq!(handle.index_usize(), flat.len(), "seed {seed}");
                            flat.push(Some(size));
                            live.push((handle, size));
                        }
                    } else if roll < 0.55 {
                        // A placed allocation anywhere up to a few pages past
                        // the front: vacant or not, released page or not.
                        let index = rng.gen_range(0, flat.len() + 600);
                        let handle = Handle::from_index(index as u32);
                        if flat.len() <= index {
                            flat.resize(index + 1, None);
                        }
                        match h.allocate_at(handle, ClassId::new(0), 1) {
                            Ok(()) => {
                                assert_eq!(flat[index], None, "seed {seed}");
                                let size = h.get(handle).unwrap().size_bytes();
                                flat[index] = Some(size);
                                live.push((handle, size));
                            }
                            Err(HeapError::HandleInUse(_)) => {
                                assert!(flat[index].is_some(), "seed {seed}")
                            }
                            Err(e) => assert!(
                                matches!(e, HeapError::OutOfObjectSpace { .. }),
                                "seed {seed}: {e}"
                            ),
                        }
                    } else if roll < 0.85 {
                        // Mostly the oldest objects, so whole pages die.
                        let idx = rng.gen_range(0, live.len().min(8));
                        let (handle, size) = live.remove(idx);
                        assert_eq!(h.free(handle), Ok(size), "seed {seed}");
                        flat[handle.index_usize()] = None;
                    } else {
                        // Random reference store between live objects.
                        let src = live[rng.gen_range(0, live.len())].0;
                        let dst = live[rng.gen_range(0, live.len())].0;
                        let slots = h.get(src).unwrap().slot_count();
                        if slots > 0 {
                            h.set_field(src, rng.gen_range(0, slots), Value::from(dst))
                                .unwrap();
                        }
                    }
                    h.check_invariants();
                    let probe = Handle::from_index(rng.gen_range(0, flat.len() + 300) as u32);
                    let expected = flat.get(probe.index_usize()).copied().flatten();
                    assert_eq!(h.is_live(probe), expected.is_some(), "seed {seed}");
                    assert_eq!(h.get(probe).ok().map(Object::size_bytes), expected);
                    assert_eq!(h.handles_minted(), flat.len(), "seed {seed}");
                }
                assert_eq!(h.live_count(), live.len(), "seed {seed}");
                let expected_bytes: usize = live.iter().map(|&(_, s)| s).sum();
                assert_eq!(h.bytes_in_use(), expected_bytes, "seed {seed}");
                let occupied: Vec<Handle> = (0..flat.len())
                    .filter(|&i| flat[i].is_some())
                    .map(|i| Handle::from_index(i as u32))
                    .collect();
                assert_eq!(
                    h.live_handles().collect::<Vec<_>>(),
                    occupied,
                    "seed {seed}"
                );
                // A dead handle stays dead through a double free.
                if let Some(dead) = (0..flat.len()).find(|&i| flat[i].is_none()) {
                    let dead = Handle::from_index(dead as u32);
                    assert_eq!(h.free(dead), Err(HeapError::DeadHandle(dead)));
                }
            }
        }
    }
}
