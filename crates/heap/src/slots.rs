//! The handle table's storage: a sparse, paged array indexed by handle.
//!
//! Handle indices are never reused, so a table indexed by them grows with
//! the number of objects ever *created*, while what it has to hold is the
//! objects *live* — under a collector that frees promptly, a few thousand
//! against millions.  The table is therefore cut into fixed-size pages, and
//! a page is dropped as soon as every slot in it is dead and no fresh handle
//! can land in it any more; a placed insertion into a dropped page simply
//! brings the page back.  A lookup is two indexings (page, then slot) with
//! the slot index masked into range, so it costs one dependent load more
//! than a flat vector and never moves an existing slot.  The page directory
//! starts at the first page still held: once the low indices have all died,
//! it does not keep an entry for each of their pages either.
//!
//! The heap keeps its handle table here, and `cg-core` keeps its
//! per-object collector records in the same table, so both are sized by
//! the objects live rather than by the handles ever minted.

/// Slots per page.  At 40 bytes a heap slot this is a 10 KiB page: small enough
/// that a sparse table wastes little, large enough that the page directory
/// stays three orders of magnitude smaller than the table.
const PAGE_SLOTS: usize = 256;

#[derive(Debug, Clone)]
struct Page<T> {
    /// Occupied slots in this page.
    live: usize,
    slots: Box<[Option<T>; PAGE_SLOTS]>,
}

/// A sparse array of `T` indexed by handle index, behaving like a
/// `Vec<Option<T>>` that only ever grows — minus the memory of the pages
/// whose slots have all been vacated.
#[derive(Debug, Clone)]
pub struct SlotTable<T> {
    /// Pages from `first_page` on, `None` where a page was dropped; the
    /// first entry is always held.
    pages: Vec<Option<Page<T>>>,
    /// The page number of `pages[0]`.
    first_page: usize,
    /// The slots of the last page dropped, all vacant, kept for the next
    /// page created: a table whose live window crosses a page boundary back
    /// and forth does not allocate a page each time.
    spare: Option<Box<[Option<T>; PAGE_SLOTS]>>,
    /// One past the highest index ever minted: the flat vector's `len()`.
    len: usize,
}

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlotTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        SlotTable {
            pages: Vec::new(),
            first_page: 0,
            spare: None,
            len: 0,
        }
    }

    /// One past the highest index ever minted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no index has been minted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `index`, if its slot is occupied.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        let page = (index / PAGE_SLOTS).wrapping_sub(self.first_page);
        self.pages.get(page)?.as_ref()?.slots[index % PAGE_SLOTS].as_ref()
    }

    /// Mutable access to the value at `index`, if its slot is occupied.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        let page = (index / PAGE_SLOTS).wrapping_sub(self.first_page);
        self.pages.get_mut(page)?.as_mut()?.slots[index % PAGE_SLOTS].as_mut()
    }

    /// Grows the table so that `index` is minted (vacant unless already
    /// occupied) — `Vec::resize(index + 1, None)` when that grows.
    pub fn mint_through(&mut self, index: usize) {
        self.len = self.len.max(index + 1);
    }

    /// Occupies the vacant slot `index`, minting it if need be.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied: the heap checks before it reserves
    /// object space for the value.
    pub fn insert(&mut self, index: usize, value: T) {
        self.mint_through(index);
        let page = index / PAGE_SLOTS;
        if self.pages.is_empty() {
            self.first_page = page;
        } else if page < self.first_page {
            // Below the directory's start: extend it downwards.
            let gap = self.first_page - page;
            self.pages
                .splice(0..0, std::iter::repeat_with(|| None).take(gap));
            self.first_page = page;
        }
        let offset = page - self.first_page;
        if self.pages.len() <= offset {
            self.pages.resize_with(offset + 1, || None);
        }
        let spare = &mut self.spare;
        let page = self.pages[offset].get_or_insert_with(|| Page {
            live: 0,
            slots: spare
                .take()
                .unwrap_or_else(|| Box::new(std::array::from_fn(|_| None))),
        });
        let slot = &mut page.slots[index % PAGE_SLOTS];
        assert!(slot.is_none(), "slot {index} is already occupied");
        *slot = Some(value);
        page.live += 1;
    }

    /// Occupies the next never-minted slot and returns its index.
    pub fn push(&mut self, value: T) -> usize {
        let index = self.len;
        self.insert(index, value);
        index
    }

    /// Vacates slot `index`, returning what it held.  The slot's page is
    /// dropped if that leaves it empty with every index in it minted —
    /// [`SlotTable::push`] will never come back to it — and the directory
    /// then sheds its leading dropped pages.
    pub fn take(&mut self, index: usize) -> Option<T> {
        let page_index = index / PAGE_SLOTS;
        let offset = page_index.wrapping_sub(self.first_page);
        let entry = self.pages.get_mut(offset)?;
        let page = entry.as_mut()?;
        let value = page.slots[index % PAGE_SLOTS].take()?;
        page.live -= 1;
        if page.live == 0 && (page_index + 1) * PAGE_SLOTS <= self.len {
            self.spare = entry.take().map(|page| page.slots);
            if offset == 0 {
                let dropped = self.pages.iter().take_while(|p| p.is_none()).count();
                self.pages.drain(..dropped);
                self.first_page += dropped;
            }
        }
        Some(value)
    }

    /// The occupied indices, ascending.
    pub fn occupied(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((self.first_page + p, page.as_ref()?)))
            .flat_map(|(p, page)| {
                page.slots
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, slot)| slot.as_ref().map(|_| p * PAGE_SLOTS + i))
            })
    }

    /// The occupied slots, ascending, with their values.
    pub fn occupied_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> + '_ {
        let first_page = self.first_page;
        self.pages
            .iter_mut()
            .enumerate()
            .filter_map(move |(p, page)| Some((first_page + p, page.as_mut()?)))
            .flat_map(|(p, page)| {
                page.slots
                    .iter_mut()
                    .enumerate()
                    .filter_map(move |(i, slot)| Some((p * PAGE_SLOTS + i, slot.as_mut()?)))
            })
    }

    /// Pages currently held (for tests of the release rule).
    #[cfg(test)]
    fn pages_held(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_testutil::TestRng;

    /// The flat table this module replaced, driven in lock-step.
    struct Lockstep {
        table: SlotTable<u64>,
        model: Vec<Option<u64>>,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                table: SlotTable::new(),
                model: Vec::new(),
            }
        }

        fn push(&mut self, value: u64) {
            self.model.push(Some(value));
            assert_eq!(self.table.push(value), self.model.len() - 1);
        }

        /// `Heap::allocate_object_at`'s sequence: grow, test, then fill.
        fn place(&mut self, index: usize, value: u64) {
            if self.model.len() <= index {
                self.model.resize(index + 1, None);
            }
            self.table.mint_through(index);
            assert_eq!(self.table.get(index), self.model[index].as_ref());
            if self.model[index].is_none() {
                self.model[index] = Some(value);
                self.table.insert(index, value);
            }
        }

        fn take(&mut self, index: usize) {
            let expected = self.model.get_mut(index).and_then(Option::take);
            assert_eq!(self.table.take(index), expected, "take({index})");
        }

        fn check(&mut self, probe: usize) {
            assert_eq!(self.table.len(), self.model.len());
            assert_eq!(
                self.table.get(probe),
                self.model.get(probe).and_then(Option::as_ref)
            );
            assert_eq!(
                self.table.get_mut(probe).copied(),
                self.model.get(probe).copied().flatten()
            );
        }

        fn check_all(&mut self) {
            let occupied: Vec<usize> = (0..self.model.len())
                .filter(|&i| self.model[i].is_some())
                .collect();
            assert_eq!(self.table.occupied().collect::<Vec<_>>(), occupied);
            let values: Vec<(usize, u64)> = self
                .model
                .iter()
                .enumerate()
                .filter_map(|(i, v)| Some((i, (*v)?)))
                .collect();
            let held: Vec<(usize, u64)> = self.table.occupied_mut().map(|(i, v)| (i, *v)).collect();
            assert_eq!(held, values);
            for (i, slot) in self.model.iter().enumerate() {
                assert_eq!(self.table.get(i), slot.as_ref(), "slot {i}");
            }
            let pages_needed = occupied.iter().map(|i| i / PAGE_SLOTS).max();
            assert!(self.table.pages_held() <= self.model.len().div_ceil(PAGE_SLOTS));
            assert!(self.table.pages_held() >= usize::from(pages_needed.is_some()));
            // The directory starts at a held page and covers every slot.
            assert!(self.table.pages.first().is_none_or(Option::is_some));
            if let Some(&lowest) = occupied.first() {
                assert!(self.table.first_page <= lowest / PAGE_SLOTS);
            }
        }
    }

    #[test]
    fn paged_table_matches_a_flat_vector_under_random_traffic() {
        for seed in 0..16u64 {
            let mut rng = TestRng::new(seed);
            let mut t = Lockstep::new();
            // Sparse placement reaches a few pages past the dense front,
            // dense seeds keep a small live window like a replay does.
            let sparse = seed % 2 == 1;
            for step in 0..6000u64 {
                let len = t.model.len();
                match rng.gen_range(0, 10) {
                    0..=3 => t.push(step),
                    4 if sparse => t.place(rng.gen_range(0, len + 3 * PAGE_SLOTS), step),
                    4 => t.place(rng.gen_range(0, len + 1), step),
                    _ if len > 0 => {
                        // Mostly recent indices, so whole pages empty out.
                        let back = rng.gen_range(0, len.min(if sparse { 2000 } else { 40 }));
                        t.take(len - 1 - back);
                    }
                    _ => {}
                }
                t.check(rng.gen_range(0, len + PAGE_SLOTS));
            }
            t.check_all();
        }
    }

    #[test]
    fn a_fully_minted_empty_page_is_released_and_comes_back_on_demand() {
        let mut t = Lockstep::new();
        for i in 0..PAGE_SLOTS as u64 + 10 {
            t.push(i);
        }
        assert_eq!(t.table.pages_held(), 2);
        for i in 0..PAGE_SLOTS {
            t.take(i);
        }
        // Page 0 is fully minted and empty: gone.  Page 1 is neither.
        assert_eq!(t.table.pages_held(), 1);
        t.check_all();
        // Emptying page 1 keeps it: push() will land there next.
        for i in PAGE_SLOTS..PAGE_SLOTS + 10 {
            t.take(i);
        }
        assert_eq!(t.table.pages_held(), 1);
        t.push(77);
        assert_eq!(t.table.len(), PAGE_SLOTS + 11);
        // A placed insertion into the released page re-creates it, a double
        // take of a released slot is a clean miss, and releasing it again
        // works.
        t.take(3);
        t.place(3, 99);
        assert_eq!(t.table.pages_held(), 2);
        assert_eq!(t.table.get(3), Some(&99));
        assert_eq!(t.table.get(4), None);
        t.take(3);
        assert_eq!(t.table.pages_held(), 1);
        t.check_all();
    }

    #[test]
    fn a_window_of_live_slots_keeps_the_directory_small() {
        let mut t = Lockstep::new();
        for i in 0..100 * PAGE_SLOTS {
            t.push(i as u64);
            if i >= 10 {
                t.take(i - 10);
            }
        }
        assert_eq!(t.table.pages_held(), 1);
        assert_eq!(t.table.pages.len(), 1);
        assert_eq!(t.table.first_page, 99);
        t.check_all();
        // Placing far below the window extends the directory downwards.
        t.place(3, 7);
        assert_eq!(t.table.first_page, 0);
        assert_eq!(t.table.pages_held(), 2);
        t.check_all();
        t.take(3);
        assert_eq!(t.table.first_page, 99);
        t.check_all();
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn inserting_over_a_live_slot_panics() {
        let mut table = SlotTable::new();
        table.push(1u64);
        table.insert(0, 2);
    }
}
