//! Handles, class identifiers and the values stored in object fields.

/// A handle naming a heap object.
///
/// Handles are dense `u32` indices into the heap's handle table.  Following
/// the JDK 1.1.8 design the paper builds on, *all* references between objects
/// and from the stack indirect through handles, which is what lets the
/// contaminated collector hang its union/find metadata off the handle
/// (thesis §3.1.1).
///
/// Handle indices are never reused within one [`Heap`](crate::Heap): freeing
/// an object releases its object-space bytes and handle-space accounting, but
/// the index stays retired.  This keeps collector-side tables keyed by handle
/// index unambiguous.  Recycling (§3.7) reuses the *object* under the same
/// handle via [`Heap::reinitialize`](crate::Heap::reinitialize) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle(u32);

impl Handle {
    /// Creates a handle from a raw table index.
    pub fn from_index(index: u32) -> Self {
        Handle(index)
    }

    /// The handle's table index.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The handle's table index as a `usize`.
    pub fn index_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Identifier of a class (or array class) known to the virtual machine.
///
/// The heap only needs the class id to size and describe objects; the class
/// metadata itself (names, field counts, methods) lives in `cg-vm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(u32);

impl ClassId {
    /// Creates a class id from a raw index.
    pub const fn new(index: u32) -> Self {
        ClassId(index)
    }

    /// The class id's raw index.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The class id's raw index as a `usize`.
    pub fn index_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A value stored in an object field, array element, local variable or
/// static variable.
///
/// The JVM distinguishes reference values from primitives; the contaminated
/// collector only ever acts on reference stores, so the primitive variants
/// exist to give the synthetic workloads realistic non-reference traffic
/// (arithmetic-heavy benchmarks like `compress` and `mpegaudio`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A reference: either `null` or a handle.
    Ref(Option<Handle>),
    /// A 64-bit integer (models the JVM's int/long).
    Int(i64),
    /// A 64-bit float (models the JVM's float/double).
    Float(f64),
}

impl Value {
    /// The canonical `null` reference.
    pub const NULL: Value = Value::Ref(None);

    /// Whether this value is the null reference.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Ref(None))
    }

    /// The handle, if this value is a non-null reference.
    pub fn as_handle(&self) -> Option<Handle> {
        match self {
            Value::Ref(h) => *h,
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl Default for Value {
    /// Fields start out as `null`, matching JVM object initialisation.
    fn default() -> Self {
        Value::NULL
    }
}

impl From<Handle> for Value {
    fn from(h: Handle) -> Self {
        Value::Ref(Some(h))
    }
}

impl From<Option<Handle>> for Value {
    fn from(h: Option<Handle>) -> Self {
        Value::Ref(h)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Ref(None) => write!(f, "null"),
            Value::Ref(Some(h)) => write!(f, "{h}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_round_trips_index() {
        let h = Handle::from_index(42);
        assert_eq!(h.index(), 42);
        assert_eq!(h.index_usize(), 42);
        assert_eq!(h.to_string(), "h42");
    }

    #[test]
    fn class_id_round_trips_index() {
        let c = ClassId::new(7);
        assert_eq!(c.index(), 7);
        assert_eq!(c.index_usize(), 7);
        assert_eq!(c.to_string(), "c7");
    }

    #[test]
    fn default_value_is_null() {
        let v = Value::default();
        assert!(v.is_null());
        assert_eq!(v, Value::NULL);
        assert_eq!(v.as_handle(), None);
    }

    #[test]
    fn ref_value_accessors() {
        let h = Handle::from_index(3);
        let v = Value::from(h);
        assert!(!v.is_null());
        assert_eq!(v.as_handle(), Some(h));
        assert_eq!(v.as_int(), None);
    }

    #[test]
    fn primitive_value_accessors() {
        assert_eq!(Value::from(5i64).as_int(), Some(5));
        assert!(!Value::from(5i64).is_null());
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from(2.5f64).as_handle(), None);
    }

    #[test]
    fn option_handle_conversion() {
        assert_eq!(Value::from(None::<Handle>), Value::NULL);
        let h = Handle::from_index(1);
        assert_eq!(Value::from(Some(h)), Value::Ref(Some(h)));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::NULL.to_string(), "null");
        assert_eq!(Value::from(Handle::from_index(9)).to_string(), "h9");
        assert_eq!(Value::from(-3i64).to_string(), "-3");
    }

    #[test]
    fn handles_order_by_index() {
        assert!(Handle::from_index(1) < Handle::from_index(2));
    }
}
