//! A bitset keyed by handle index, paged so that runs of dead handles cost
//! no memory.
//!
//! The collector's "tainted" list (§3.1.4) — objects declared dead — is
//! consulted on the store path and updated on every frame-pop collection and
//! every recycled allocation.  The seed kept it in a `HashSet<Handle>`;
//! handle indices are dense (the heap mints them sequentially), so one bit
//! per handle is both smaller and branch-free to probe.  A handle stays
//! tainted after its object is freed, though, so even one bit per handle
//! grows with every object a trace creates.  Objects die in runs, so the
//! bits are kept in pages of 4096 handles, and a page whose every
//! bit is set collapses to a marker and gives its words back.

use cg_vm::Handle;

const BITS: usize = u64::BITS as usize;

/// Handles per page: a page of words is 512 bytes.
const PAGE_BITS: usize = 4096;
const PAGE_WORDS: usize = PAGE_BITS / BITS;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Page {
    /// No bit set.
    Clear,
    /// Some bits set, `count` of them (never 0 or [`PAGE_BITS`]).
    Mixed {
        words: Box<[u64; PAGE_WORDS]>,
        count: u32,
    },
    /// Every bit set.
    Full,
}

/// A growable bitset over dense handle indices.
#[derive(Debug, Clone, Default)]
pub struct HandleBitSet {
    pages: Vec<Page>,
    len: usize,
    /// The words of the last page that collapsed, kept for the next page
    /// that opens: recycling a dead object reopens a full page, and its
    /// death closes it again.
    spare: Option<Box<[u64; PAGE_WORDS]>>,
}

/// Words for a page that opens, every one `fill`.
fn open_words(spare: &mut Option<Box<[u64; PAGE_WORDS]>>, fill: u64) -> Box<[u64; PAGE_WORDS]> {
    match spare.take() {
        Some(mut words) => {
            words.fill(fill);
            words
        }
        None => Box::new([fill; PAGE_WORDS]),
    }
}

/// Moves a collapsing page's words into `spare`.
fn collapse(page: &mut Page, to: Page, spare: &mut Option<Box<[u64; PAGE_WORDS]>>) {
    if let Page::Mixed { words, .. } = std::mem::replace(page, to) {
        *spare = Some(words);
    }
}

impl HandleBitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of handles currently in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `handle` is in the set.
    #[inline]
    pub fn contains(&self, handle: Handle) -> bool {
        let index = handle.index_usize();
        match self.pages.get(index / PAGE_BITS) {
            Some(Page::Full) => true,
            Some(Page::Mixed { words, .. }) => {
                words[index % PAGE_BITS / BITS] & (1 << (index % BITS)) != 0
            }
            Some(Page::Clear) | None => false,
        }
    }

    /// Inserts `handle`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, handle: Handle) -> bool {
        let index = handle.index_usize();
        let page_index = index / PAGE_BITS;
        if page_index >= self.pages.len() {
            self.pages.resize(page_index + 1, Page::Clear);
        }
        let (word, mask) = (index % PAGE_BITS / BITS, 1 << (index % BITS));
        let page = &mut self.pages[page_index];
        match page {
            Page::Full => return false,
            Page::Clear => {
                let mut words = open_words(&mut self.spare, 0);
                words[word] = mask;
                *page = Page::Mixed { words, count: 1 };
            }
            Page::Mixed { words, count } => {
                if words[word] & mask != 0 {
                    return false;
                }
                words[word] |= mask;
                *count += 1;
                if *count as usize == PAGE_BITS {
                    collapse(page, Page::Full, &mut self.spare);
                }
            }
        }
        self.len += 1;
        true
    }

    /// Removes `handle`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, handle: Handle) -> bool {
        let index = handle.index_usize();
        let Some(page) = self.pages.get_mut(index / PAGE_BITS) else {
            return false;
        };
        let (word, mask) = (index % PAGE_BITS / BITS, 1 << (index % BITS));
        match page {
            Page::Clear => return false,
            Page::Full => {
                let mut words = open_words(&mut self.spare, u64::MAX);
                words[word] &= !mask;
                *page = Page::Mixed {
                    words,
                    count: PAGE_BITS as u32 - 1,
                };
            }
            Page::Mixed { words, count } => {
                if words[word] & mask == 0 {
                    return false;
                }
                words[word] &= !mask;
                *count -= 1;
                if *count == 0 {
                    collapse(page, Page::Clear, &mut self.spare);
                }
            }
        }
        self.len -= 1;
        true
    }

    /// Removes every handle from the set.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> Handle {
        Handle::from_index(i)
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut set = HandleBitSet::new();
        assert!(set.is_empty());
        assert!(!set.contains(h(5)));
        assert!(set.insert(h(5)));
        assert!(!set.insert(h(5)));
        assert!(set.contains(h(5)));
        assert_eq!(set.len(), 1);
        assert!(set.remove(h(5)));
        assert!(!set.remove(h(5)));
        assert!(!set.contains(h(5)));
        assert!(set.is_empty());
    }

    #[test]
    fn grows_across_word_boundaries() {
        let mut set = HandleBitSet::new();
        for i in [0u32, 63, 64, 65, 127, 128, 1000] {
            assert!(set.insert(h(i)));
        }
        assert_eq!(set.len(), 7);
        for i in [0u32, 63, 64, 65, 127, 128, 1000] {
            assert!(set.contains(h(i)));
        }
        assert!(!set.contains(h(999)));
        assert!(!set.contains(h(1001)));
        assert!(!set.contains(h(100_000)));
    }

    #[test]
    fn a_page_of_dead_handles_collapses_and_reopens() {
        let mut set = HandleBitSet::new();
        for i in 0..2 * PAGE_BITS as u32 + 5 {
            assert!(set.insert(h(i)));
        }
        assert_eq!(set.pages[..2], [Page::Full, Page::Full]);
        assert!(matches!(set.pages[2], Page::Mixed { count: 5, .. }));
        assert!(set.contains(h(PAGE_BITS as u32)));
        // Taking one handle out of a full page reopens it.
        assert!(set.remove(h(7)));
        assert!(!set.contains(h(7)) && set.contains(h(8)));
        assert!(matches!(set.pages[0], Page::Mixed { .. }));
        assert!(set.insert(h(7)));
        assert_eq!(set.pages[0], Page::Full);
        for i in 2 * PAGE_BITS as u32..2 * PAGE_BITS as u32 + 5 {
            assert!(set.remove(h(i)));
        }
        assert_eq!(set.pages[2], Page::Clear);
        assert_eq!(set.len(), 2 * PAGE_BITS);
    }

    #[test]
    fn remove_beyond_capacity_is_noop() {
        let mut set = HandleBitSet::new();
        assert!(!set.remove(h(1 << 20)));
        set.insert(h(3));
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(h(3)));
    }

    mod properties {
        use super::*;
        use cg_testutil::TestRng;
        use std::collections::HashSet;

        /// The bitset behaves exactly like a `HashSet<Handle>` under random
        /// insert/remove/query sequences (the representation it replaced).
        #[test]
        fn matches_hash_set_model() {
            for seed in 0..32u64 {
                let mut rng = TestRng::new(seed);
                let mut set = HandleBitSet::new();
                let mut model: HashSet<u32> = HashSet::new();
                // Half the seeds start from two full pages and a third one
                // partly filled, so removals reopen full pages.
                let span = if seed % 2 == 0 { 300 } else { 3 * PAGE_BITS };
                if seed % 2 == 1 {
                    for index in 0..2 * PAGE_BITS as u32 + 100 {
                        assert!(set.insert(h(index)));
                        model.insert(index);
                    }
                }
                for _ in 0..rng.gen_range(10, 2000) {
                    let index = rng.gen_range(0, span) as u32;
                    match rng.gen_range(0, 3) {
                        0 => assert_eq!(set.insert(h(index)), model.insert(index)),
                        1 => assert_eq!(set.remove(h(index)), model.remove(&index)),
                        _ => assert_eq!(set.contains(h(index)), model.contains(&index)),
                    }
                    assert_eq!(set.len(), model.len(), "seed {seed}");
                }
                for index in 0..span as u32 + 1 {
                    assert_eq!(
                        set.contains(h(index)),
                        model.contains(&index),
                        "seed {seed}"
                    );
                }
            }
        }
    }
}
