//! Heap sizing and handle-representation accounting.
//!
//! The paper reports its space overhead in terms of *words added to the
//! object handle*: the stock JDK 1.1.8 handle is two words, the straightforward
//! CG handle adds eight words of union/find and list linkage (plus six more
//! used by other collection schemes in their build, §3.1.1), and the packed
//! representation of §3.5 squeezes the CG handle back to eight words total by
//! storing the rank in the low bits of the parent pointer.  To keep the
//! object space unchanged, the implementation widens the handle-space share
//! of the heap proportionally.  [`HeapConfig`] reproduces that accounting.

use crate::freelist::AllocPolicy;

/// Bytes per machine word on the paper's UltraSPARC target (32-bit words in
/// JDK 1.1.8's heap layout).
pub const WORD_BYTES: usize = 4;

/// How much handle-table space each live object consumes.
///
/// This only affects space accounting (when the handle space is considered
/// full); the Rust-side representation is the same for all variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HandleRepr {
    /// The stock JDK 1.1.8 handle: object pointer + method table pointer
    /// (2 words).
    Jdk,
    /// The straightforward contaminated-GC handle described in §3.1.1:
    /// the original 2 words plus 8 CG words plus 6 words used by other
    /// collection schemes in the authors' build (16 words total).
    #[default]
    CgWide,
    /// The packed representation of §3.5: rank stored in the low bits of the
    /// parent pointer, halving the CG handle to 8 words.
    CgPacked,
}

impl HandleRepr {
    /// Handle size in words.
    pub fn words(self) -> usize {
        match self {
            HandleRepr::Jdk => 2,
            HandleRepr::CgWide => 16,
            HandleRepr::CgPacked => 8,
        }
    }

    /// Handle size in bytes.
    pub fn bytes(self) -> usize {
        self.words() * WORD_BYTES
    }

    /// The factor by which the handle space must grow relative to the stock
    /// JDK handle to hold the same number of handles.
    fn expansion_factor(self) -> usize {
        self.words() / HandleRepr::Jdk.words()
    }
}

/// Sizing configuration for a [`Heap`](crate::Heap).
///
/// The JDK 1.1.8 heap is split 20% handle space / 80% object space; when the
/// CG handles are wider the handle space is multiplied by the expansion
/// factor so the object space the program sees is unchanged (§3.1.1).
///
/// # Example
///
/// ```
/// use cg_heap::{HeapConfig, HandleRepr};
///
/// let config = HeapConfig::with_object_space(1 << 20, HandleRepr::CgWide);
/// assert_eq!(config.object_space_bytes, 1 << 20);
/// // 20/80 split: handle space is a quarter of the object space, times the
/// // 8x expansion for the wide CG handle.
/// assert_eq!(config.handle_space_bytes, (1 << 20) / 4 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeapConfig {
    /// Bytes available to the object space (the 80% share).
    pub object_space_bytes: usize,
    /// Bytes available to the handle space (the 20% share, already scaled by
    /// the handle representation's expansion factor).
    pub handle_space_bytes: usize,
    /// The handle representation used for handle-space accounting.
    pub handle_repr: HandleRepr,
    /// Object header size in words (class pointer + flags), charged to every
    /// object in the object space.
    pub object_header_words: usize,
    /// How the object space searches for free blocks.  Defaults to the
    /// paper-faithful first-fit rover; [`AllocPolicy::SegregatedFit`] trades
    /// paper fidelity for O(size classes) searches.
    pub alloc_policy: AllocPolicy,
    /// Fault injection: fail the k-th allocation attempt (0-based, counted
    /// across all allocation entry points) with an out-of-space error.
    /// `None` in every real configuration; the robustness test sweeps set
    /// it to prove allocation failure at any point propagates cleanly.
    /// Never serialized into `.cgt` headers.
    pub alloc_failure_at: Option<u64>,
}

impl HeapConfig {
    /// Default object header: class pointer + length/flags word.
    pub const DEFAULT_HEADER_WORDS: usize = 2;

    /// Builds a configuration from the object-space size, deriving the handle
    /// space from the 20/80 split and the handle representation's expansion.
    pub fn with_object_space(object_space_bytes: usize, handle_repr: HandleRepr) -> Self {
        let base_handle_space = object_space_bytes / 4; // 20% : 80% == 1 : 4
        Self {
            object_space_bytes,
            handle_space_bytes: base_handle_space * handle_repr.expansion_factor(),
            handle_repr,
            object_header_words: Self::DEFAULT_HEADER_WORDS,
            alloc_policy: AllocPolicy::FirstFitRover,
            alloc_failure_at: None,
        }
    }

    /// The same configuration with a different object-space search policy.
    pub fn with_alloc_policy(mut self, policy: AllocPolicy) -> Self {
        self.alloc_policy = policy;
        self
    }

    /// The same configuration with an injected failure at the k-th
    /// allocation attempt (see [`HeapConfig::alloc_failure_at`]).
    pub fn with_alloc_failure_at(mut self, attempt: u64) -> Self {
        self.alloc_failure_at = Some(attempt);
        self
    }

    /// A small heap suitable for unit tests and doctests (64 KiB of object
    /// space).
    pub fn small() -> Self {
        Self::with_object_space(64 * 1024, HandleRepr::CgWide)
    }

    /// The default experimental heap: 64 MiB of object space, wide CG
    /// handles, mirroring the "plenty of storage" runs in §4.5.
    pub fn spacious() -> Self {
        Self::with_object_space(64 * 1024 * 1024, HandleRepr::CgWide)
    }

    /// A deliberately tight heap that forces the traditional collector to
    /// run, used by the resetting experiments (§4.7).
    pub fn tight(object_space_bytes: usize) -> Self {
        Self::with_object_space(object_space_bytes, HandleRepr::CgWide)
    }

    /// Maximum number of live handles the handle space can hold.
    pub fn handle_capacity(&self) -> usize {
        self.handle_space_bytes / self.handle_repr.bytes()
    }

    /// Bytes charged to an instance with `field_count` fields.
    pub fn instance_bytes(&self, field_count: usize) -> usize {
        (self.object_header_words + field_count) * WORD_BYTES
    }

    /// Bytes charged to an array with `length` elements.
    pub fn array_bytes(&self, length: usize) -> usize {
        // Arrays carry an extra length word.
        (self.object_header_words + 1 + length) * WORD_BYTES
    }
}

impl Default for HeapConfig {
    fn default() -> Self {
        Self::spacious()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_repr_sizes_match_paper() {
        assert_eq!(HandleRepr::Jdk.words(), 2);
        assert_eq!(HandleRepr::CgWide.words(), 16);
        assert_eq!(HandleRepr::CgPacked.words(), 8);
        assert_eq!(HandleRepr::CgWide.expansion_factor(), 8);
        assert_eq!(HandleRepr::CgPacked.expansion_factor(), 4);
        assert_eq!(HandleRepr::Jdk.bytes(), 8);
    }

    #[test]
    fn config_derives_handle_space_from_split() {
        let c = HeapConfig::with_object_space(8000, HandleRepr::Jdk);
        assert_eq!(c.handle_space_bytes, 2000);
        let wide = HeapConfig::with_object_space(8000, HandleRepr::CgWide);
        assert_eq!(wide.handle_space_bytes, 16_000);
    }

    #[test]
    fn handle_capacity_counts_handles() {
        let c = HeapConfig::with_object_space(8000, HandleRepr::Jdk);
        assert_eq!(c.handle_capacity(), 2000 / 8);
        let wide = HeapConfig::with_object_space(8000, HandleRepr::CgWide);
        // Wider handles but proportionally more space: same capacity.
        assert_eq!(wide.handle_capacity(), c.handle_capacity());
    }

    #[test]
    fn packed_handles_halve_handle_space() {
        let wide = HeapConfig::with_object_space(8000, HandleRepr::CgWide);
        let packed = HeapConfig::with_object_space(8000, HandleRepr::CgPacked);
        assert_eq!(packed.handle_space_bytes * 2, wide.handle_space_bytes);
        assert_eq!(packed.handle_capacity(), wide.handle_capacity());
    }

    #[test]
    fn object_sizing() {
        let c = HeapConfig::small();
        // Header (2 words) + 2 fields = 16 bytes: the paper's "most objects
        // are 16 bytes" observation corresponds to small instances.
        assert_eq!(c.instance_bytes(2), 16);
        assert_eq!(c.instance_bytes(0), 8);
        assert_eq!(c.array_bytes(0), 12);
        assert_eq!(c.array_bytes(10), 52);
    }

    #[test]
    fn presets_are_ordered() {
        assert!(HeapConfig::small().object_space_bytes < HeapConfig::spacious().object_space_bytes);
        assert_eq!(HeapConfig::tight(1024).object_space_bytes, 1024);
        assert_eq!(HeapConfig::default(), HeapConfig::spacious());
    }
}
