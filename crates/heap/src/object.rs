//! Heap objects: instances and arrays.

use crate::value::{ClassId, Handle, Value};

/// A live heap object: its class, its storage, and its accounted size.
///
/// Instances and arrays share one shape — the paper treats an array as just
/// another object, and storing into any element contaminates the whole
/// array (§3.1.1, "Arrays") — so the only difference kept is the flag that
/// tells the field accessors from the element accessors.  The slots are
/// sized exactly: a heap slot holding an object is 40 bytes, plus one
/// allocation of the object's slots.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// The instance's fields or the array's elements, by index.
    slots: Box<[Value]>,
    /// Bytes charged to the object space for this object.
    size_bytes: usize,
    class: ClassId,
    is_array: bool,
}

impl Object {
    fn new(class: ClassId, slot_count: usize, size_bytes: usize, is_array: bool) -> Self {
        Self {
            slots: vec![Value::NULL; slot_count].into_boxed_slice(),
            size_bytes,
            class,
            is_array,
        }
    }

    /// Creates an instance with `field_count` null/zero-initialised fields.
    pub fn instance(class: ClassId, field_count: usize, size_bytes: usize) -> Self {
        Self::new(class, field_count, size_bytes, false)
    }

    /// Creates an array with `length` null-initialised elements.
    pub fn array(class: ClassId, length: usize, size_bytes: usize) -> Self {
        Self::new(class, length, size_bytes, true)
    }

    /// The object's class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Whether the object is an array.
    pub fn is_array(&self) -> bool {
        self.is_array
    }

    /// Bytes charged to the object space for this object.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Number of fields (instance) or elements (array).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Shared access to the object's slots (fields or elements).
    pub fn slots(&self) -> &[Value] {
        &self.slots
    }

    /// Mutable access to the object's slots (fields or elements).
    pub fn slots_mut(&mut self) -> &mut [Value] {
        &mut self.slots
    }

    /// The handles this object references, in slot order, skipping nulls and
    /// primitives.
    ///
    /// Allocates; traversal loops should prefer the borrowing
    /// [`Object::iter_references`].
    pub fn references(&self) -> Vec<Handle> {
        self.iter_references().collect()
    }

    /// Iterates over the handles this object references, in slot order,
    /// skipping nulls and primitives, without allocating.
    pub fn iter_references(&self) -> impl Iterator<Item = Handle> + '_ {
        self.slots().iter().filter_map(Value::as_handle)
    }

    /// Resets every slot to null and retargets the object to a new class,
    /// keeping the storage.  Used by object recycling (§3.7): a dead object
    /// of the right size is handed back to the allocator as a fresh object.
    pub fn reinitialize(&mut self, class: ClassId) {
        self.class = class;
        self.slots.fill(Value::NULL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class() -> ClassId {
        ClassId::new(1)
    }

    #[test]
    fn instance_starts_null_initialised() {
        let o = Object::instance(class(), 3, 20);
        assert_eq!(o.slot_count(), 3);
        assert!(o.slots().iter().all(Value::is_null));
        assert!(!o.is_array());
        assert_eq!(o.class(), class());
        assert_eq!(o.size_bytes(), 20);
    }

    #[test]
    fn array_starts_null_initialised() {
        let a = Object::array(class(), 4, 28);
        assert_eq!(a.slot_count(), 4);
        assert!(a.is_array());
        assert!(a.slots().iter().all(Value::is_null));
    }

    #[test]
    fn references_skip_nulls_and_primitives() {
        let mut o = Object::instance(class(), 4, 24);
        let h1 = Handle::from_index(10);
        let h2 = Handle::from_index(20);
        o.slots_mut()[0] = Value::from(h1);
        o.slots_mut()[1] = Value::Int(7);
        o.slots_mut()[3] = Value::from(h2);
        assert_eq!(o.references(), vec![h1, h2]);
    }

    #[test]
    fn reinitialize_clears_slots_and_changes_class() {
        let mut o = Object::instance(class(), 2, 16);
        o.slots_mut()[0] = Value::from(Handle::from_index(5));
        o.slots_mut()[1] = Value::Int(9);
        let new_class = ClassId::new(2);
        o.reinitialize(new_class);
        assert_eq!(o.class(), new_class);
        assert!(o.slots().iter().all(Value::is_null));
        // Storage (size and slot count) is preserved for recycling.
        assert_eq!(o.slot_count(), 2);
        assert_eq!(o.size_bytes(), 16);
    }

    #[test]
    fn zero_slot_objects_are_legal() {
        let o = Object::instance(class(), 0, 8);
        assert_eq!(o.slot_count(), 0);
        assert!(o.references().is_empty());
    }
}
