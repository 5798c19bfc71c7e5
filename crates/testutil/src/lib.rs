//! Dependency-free test support: deterministic pseudo-randomness and the
//! reference union/find model.
//!
//! The container this workspace builds in has no network access, so the
//! property-style tests cannot use `proptest`/`rand`.  [`TestRng`] is a small
//! splitmix64 generator that gives those tests reproducible randomness: every
//! test iterates over a fixed range of seeds, so a failure report ("seed 17")
//! is enough to replay the exact case.
//!
//! [`DisjointSets`] is the plain union-by-rank, path-compression forest that
//! the collector's packed forests are checked against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod forest;

pub use forest::DisjointSets;

/// A deterministic splitmix64 pseudo-random generator.
///
/// # Example
///
/// ```
/// use cg_testutil::TestRng;
///
/// let mut rng = TestRng::new(42);
/// let a = rng.gen_range(0, 10);
/// assert!(a < 10);
/// let again = TestRng::new(42).gen_range(0, 10);
/// assert_eq!(a, again);
/// ```
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed; equal seeds yield equal sequences.
    pub fn new(seed: u64) -> Self {
        Self {
            // Avoid the all-zero fixed point without changing distinct seeds.
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly distributed `usize` in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "gen_range needs a non-empty range, got {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A float in `[0.0, 1.0)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(0, i + 1);
            items.swap(i, j);
        }
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick needs a non-empty slice");
        &items[self.gen_range(0, items.len())]
    }

    /// An index into `weights`, chosen with probability proportional to the
    /// weight at that index.  Zero-weight entries are never chosen.  This is
    /// the distribution primitive behind the fuzzer's instruction-mix
    /// profiles.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "weighted needs a positive total weight");
        let mut roll = self.next_u64() % total;
        for (index, &w) in weights.iter().enumerate() {
            let w = u64::from(w);
            if roll < w {
                return index;
            }
            roll -= w;
        }
        unreachable!("roll is bounded by the total weight")
    }

    /// Derives an independent generator for sub-stream `index`: the same
    /// (seed, index) pair always yields the same child, and distinct indices
    /// yield uncorrelated streams.  The fuzzer uses this to give every
    /// iteration of a run its own reproducible seed.
    pub fn derive(&self, index: u64) -> TestRng {
        let mut mix = TestRng::new(self.state ^ index.rotate_left(32));
        // Burn one output so child 0 does not mirror the parent.
        let _ = mix.next_u64();
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_deterministic_per_seed() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = TestRng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = TestRng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = TestRng::new(8);
                move |_| r.next_u64()
            })
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3, 9);
            assert!((3..9).contains(&v));
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = TestRng::new(2);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn pick_returns_elements_uniformly_enough() {
        let mut rng = TestRng::new(5);
        let items = [1, 2, 3];
        let mut seen = [0u32; 3];
        for _ in 0..3000 {
            seen[*rng.pick(&items) as usize - 1] += 1;
        }
        assert!(seen.iter().all(|&n| n > 700), "{seen:?}");
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = TestRng::new(6);
        let mut seen = [0u32; 3];
        for _ in 0..10_000 {
            seen[rng.weighted(&[1, 0, 3])] += 1;
        }
        assert_eq!(seen[1], 0, "zero-weight entries are never chosen");
        assert!(seen[2] > 2 * seen[0], "{seen:?}");
        assert!(seen[0] > 1_500, "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn weighted_rejects_zero_total() {
        let _ = TestRng::new(0).weighted(&[0, 0]);
    }

    #[test]
    fn derive_yields_reproducible_uncorrelated_children() {
        let parent = TestRng::new(9);
        let a: Vec<u64> = {
            let mut c = parent.derive(0);
            (0..4).map(|_| c.next_u64()).collect()
        };
        let a_again: Vec<u64> = {
            let mut c = parent.derive(0);
            (0..4).map(|_| c.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut c = parent.derive(1);
            (0..4).map(|_| c.next_u64()).collect()
        };
        assert_eq!(a, a_again);
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = TestRng::new(3);
        let mut items: Vec<u32> = (0..32).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<u32>>());
        assert_ne!(items, sorted, "a 32-element shuffle should move something");
    }
}
