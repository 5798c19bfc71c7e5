//! Monotone counters and settable gauges.

/// A monotonically increasing event counter.
///
/// Counters are used throughout the collectors to track events such as
/// "objects created", "union operations performed" or "frames popped".
///
/// # Example
///
/// ```
/// use cg_stats::Counter;
///
/// let mut allocations = Counter::new("allocations");
/// allocations.add(1);
/// allocations.add(4);
/// assert_eq!(allocations.value(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a counter with the given name, starting at zero.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: 0,
        }
    }

    /// The counter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Resets the counter to zero.
    ///
    /// Resetting is used between experiment repetitions; during a single run
    /// the counter only grows.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new("counter")
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// A settable integral gauge (e.g. "live objects", "heap bytes in use").
///
/// Unlike [`Counter`], a gauge can decrease.
///
/// # Example
///
/// ```
/// use cg_stats::Gauge;
///
/// let mut live = Gauge::new("live-objects");
/// live.add(10);
/// live.sub(3);
/// assert_eq!(live.value(), 7);
/// live.set(0);
/// assert_eq!(live.value(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Gauge {
    name: String,
    value: i64,
    peak: i64,
}

impl Gauge {
    /// Creates a gauge with the given name, starting at zero.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: 0,
            peak: 0,
        }
    }

    /// The gauge's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// The highest value the gauge has reached.
    pub fn peak(&self) -> i64 {
        self.peak
    }

    /// Sets the gauge to an absolute value.
    pub fn set(&mut self, value: i64) {
        self.value = value;
        self.peak = self.peak.max(value);
    }

    /// Adds `n` to the gauge.
    pub fn add(&mut self, n: i64) {
        self.set(self.value + n);
    }

    /// Subtracts `n` from the gauge.
    pub fn sub(&mut self, n: i64) {
        self.set(self.value - n);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new("gauge")
    }
}

impl std::fmt::Display for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={} (peak {})", self.name, self.value, self.peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_starts_at_zero() {
        let c = Counter::new("x");
        assert_eq!(c.value(), 0);
        assert_eq!(c.name(), "x");
    }

    #[test]
    fn counter_increments_and_adds() {
        let mut c = Counter::new("x");
        c.add(1);
        c.add(1);
        c.add(10);
        assert_eq!(c.value(), 12);
    }

    #[test]
    fn counter_reset() {
        let mut c = Counter::new("x");
        c.add(5);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn counter_display() {
        let mut c = Counter::new("allocs");
        c.add(3);
        assert_eq!(c.to_string(), "allocs=3");
    }

    #[test]
    fn gauge_tracks_peak() {
        let mut g = Gauge::new("live");
        g.add(10);
        g.sub(4);
        g.add(2);
        assert_eq!(g.value(), 8);
        assert_eq!(g.peak(), 10);
    }

    #[test]
    fn gauge_can_go_negative() {
        let mut g = Gauge::new("delta");
        g.sub(3);
        assert_eq!(g.value(), -3);
        assert_eq!(g.peak(), 0);
    }

    #[test]
    fn gauge_set_updates_peak() {
        let mut g = Gauge::new("x");
        g.set(42);
        g.set(7);
        assert_eq!(g.value(), 7);
        assert_eq!(g.peak(), 42);
    }
}
