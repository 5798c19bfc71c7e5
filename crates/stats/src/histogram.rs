//! Fixed-bucket histograms.
//!
//! The paper reports two bucketed distributions: equilive block sizes
//! (Figure 4.5: 1, 2, 3, 4, 5, 6–10, >10) and the frame distance between an
//! object's birth and its collection (Figure 4.6: 0..5, >5).  [`Histogram`]
//! supports arbitrary upper-bound buckets plus an overflow bucket so both can
//! be expressed directly.

/// A histogram over `u64` samples with caller-defined bucket upper bounds.
///
/// A histogram constructed with bounds `[1, 2, 5]` has four buckets:
/// `<=1`, `<=2`, `<=5` and `>5` (the overflow bucket).
///
/// # Example
///
/// ```
/// use cg_stats::Histogram;
///
/// // Figure 4.5 buckets: block sizes 1..5, 6-10 and >10.
/// let mut sizes = Histogram::new("block-size", &[1, 2, 3, 4, 5, 10]);
/// sizes.record(1);
/// sizes.record(1);
/// sizes.record(7);
/// sizes.record(64);
/// assert_eq!(sizes.bucket_count(0), 2); // size 1
/// assert_eq!(sizes.bucket_count(5), 1); // 6-10
/// assert_eq!(sizes.overflow(), 1);      // >10
/// assert_eq!(sizes.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    name: String,
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// One count per bound plus a final overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(name: impl Into<String>, bounds: &[u64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            name: name.into(),
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.record_n(sample, 1);
    }

    /// Records `n` identical samples at once.
    fn record_n(&mut self, sample: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| sample <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += n;
        self.total += n;
        self.sum += sample as u128 * n as u128;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// The inclusive upper bounds of the non-overflow buckets.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Count in the `i`-th non-overflow bucket (samples `<= bounds[i]` and
    /// greater than the previous bound).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bounds().len()`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        assert!(i < self.bounds.len(), "bucket index out of range");
        self.counts[i]
    }

    /// Count of samples larger than the last bound.
    pub fn overflow(&self) -> u64 {
        *self
            .counts
            .last()
            .expect("histogram always has an overflow bucket")
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded samples (exact, not derived from buckets).
    ///
    /// Exposed so an exact serialized form of a histogram — such as the
    /// `.cgt` stats footer in `cg-trace` — can round-trip the state that
    /// [`Histogram::mean`] is derived from without losing precision.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of the recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// All bucket counts including the overflow bucket, in order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Merges another histogram with identical bounds into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The histogram as a JSON object (name, bounds, per-bucket counts with
    /// labels, total).
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            (
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| Json::Num(b as f64)).collect()),
            ),
            (
                "labels",
                Json::Arr(self.bucket_labels().into_iter().map(Json::Str).collect()),
            ),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
            ("total", Json::Num(self.total as f64)),
        ])
    }

    /// Human-readable bucket labels, e.g. `["1", "2", "3-5", ">5"]`.
    fn bucket_labels(&self) -> Vec<String> {
        let mut labels = Vec::with_capacity(self.counts.len());
        let mut low = 0u64;
        for &b in &self.bounds {
            if b == low + 1 || b == low || (low == 0 && b == self.bounds[0] && b <= 1) {
                labels.push(format!("{b}"));
            } else {
                labels.push(format!("{}-{}", low + 1, b));
            }
            low = b;
        }
        labels.push(format!(">{low}"));
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_size_histogram() -> Histogram {
        Histogram::new("blocks", &[1, 2, 3, 4, 5, 10])
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn empty_bounds_panic() {
        let _ = Histogram::new("x", &[]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new("x", &[3, 2]);
    }

    #[test]
    fn records_into_correct_buckets() {
        let mut h = block_size_histogram();
        for s in [1, 1, 2, 3, 5, 6, 10, 11, 500] {
            h.record(s);
        }
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.bucket_count(3), 0);
        assert_eq!(h.bucket_count(4), 1);
        assert_eq!(h.bucket_count(5), 2);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 9);
    }

    #[test]
    fn record_n_counts_all() {
        let mut h = block_size_histogram();
        h.record_n(1, 100);
        h.record_n(20, 0);
        assert_eq!(h.total(), 100);
        assert_eq!(h.bucket_count(0), 100);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn stats_track_min_max_mean() {
        let mut h = Histogram::new("x", &[10]);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        h.record(2);
        h.record(4);
        h.record(12);
        assert_eq!(h.min(), Some(2));
        assert_eq!(h.max(), Some(12));
        assert_eq!(h.sum(), 18);
        assert!((h.mean().unwrap() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = block_size_histogram();
        let mut b = block_size_histogram();
        a.record(1);
        b.record(1);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.bucket_count(0), 2);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.max(), Some(100));
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_different_bounds() {
        let mut a = Histogram::new("a", &[1]);
        let b = Histogram::new("b", &[2]);
        a.merge(&b);
    }

    #[test]
    fn labels_cover_all_buckets() {
        let h = block_size_histogram();
        let labels = h.bucket_labels();
        assert_eq!(labels.len(), h.counts().len());
        assert_eq!(labels.last().unwrap(), ">10");
        assert_eq!(labels[5], "6-10");
        assert_eq!(labels[0], "1");
    }

    #[test]
    fn to_json_reports_buckets() {
        let mut h = block_size_histogram();
        h.record(3);
        h.record(64);
        let json = h.to_json();
        assert_eq!(
            json.get("name").and_then(crate::Json::as_str),
            Some("blocks")
        );
        assert_eq!(json.get("total").and_then(crate::Json::as_u64), Some(2));
        let counts: Vec<u64> = json
            .get("counts")
            .and_then(crate::Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .collect();
        assert_eq!(counts, vec![0, 0, 1, 0, 0, 0, 1]);
    }
}
