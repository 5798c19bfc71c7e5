//! Wall-clock timing with repetition support.

use std::time::{Duration, Instant};

use crate::summary::mean;

/// A simple start/stop stopwatch accumulating total elapsed time.
///
/// The collectors use stopwatches to attribute time to phases (store
/// barriers, frame-pop processing, mark, sweep) so the experiment harness can
/// report where the time goes, not just the end-to-end number.
///
/// # Example
///
/// ```
/// use cg_stats::Stopwatch;
///
/// let mut sw = Stopwatch::new("mark-phase");
/// sw.start();
/// // ... work ...
/// sw.stop();
/// assert!(sw.total() < std::time::Duration::from_secs(60));
/// ```
#[derive(Debug, Clone)]
pub struct Stopwatch {
    name: String,
    total: Duration,
    started: Option<Instant>,
}

impl Stopwatch {
    /// Creates a stopped stopwatch with zero accumulated time.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            total: Duration::ZERO,
            started: None,
        }
    }

    /// The stopwatch's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Starts (or restarts) timing.  Starting an already running stopwatch
    /// discards the in-progress lap.
    pub fn start(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Stops timing and accumulates the elapsed lap.
    ///
    /// Stopping a stopwatch that was never started is a no-op.
    pub fn stop(&mut self) {
        if let Some(start) = self.started.take() {
            self.total += start.elapsed();
        }
    }

    /// Runs `f` while timing it, accumulating one lap.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.start();
        let out = f();
        self.stop();
        out
    }

    /// Total accumulated time over all completed laps.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Resets accumulated time; a running lap is discarded.
    pub fn reset(&mut self) {
        self.total = Duration::ZERO;
        self.started = None;
    }
}

/// Timings of repeated runs of one configuration, mirroring the paper's
/// methodology of reporting five repetitions per benchmark (Appendix A.5–A.7)
/// and using their mean in the headline tables (Figures 4.7, 4.8, 4.12).
///
/// # Example
///
/// ```
/// use cg_stats::RunTimings;
/// use std::time::Duration;
///
/// let mut t = RunTimings::new("compress/cg");
/// t.push(Duration::from_millis(310));
/// t.push(Duration::from_millis(320));
/// assert_eq!(t.repetitions(), 2);
/// assert!((t.mean_seconds() - 0.315).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunTimings {
    label: String,
    seconds: Vec<f64>,
}

impl RunTimings {
    /// Creates an empty timing record for the labelled configuration.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            seconds: Vec::new(),
        }
    }

    /// The configuration label (typically `benchmark/collector`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records one repetition.
    pub fn push(&mut self, elapsed: Duration) {
        self.seconds.push(elapsed.as_secs_f64());
    }

    /// Records one repetition expressed in seconds.
    pub fn push_seconds(&mut self, seconds: f64) {
        self.seconds.push(seconds);
    }

    /// Number of recorded repetitions.
    pub fn repetitions(&self) -> usize {
        self.seconds.len()
    }

    /// All recorded repetitions, in seconds, in insertion order.
    pub fn seconds(&self) -> &[f64] {
        &self.seconds
    }

    /// Mean run time in seconds (0.0 if no repetitions were recorded).
    pub fn mean_seconds(&self) -> f64 {
        mean(&self.seconds).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_accumulates_laps() {
        let mut sw = Stopwatch::new("t");
        sw.time(|| std::thread::sleep(Duration::from_millis(1)));
        sw.time(|| ());
        assert!(sw.total() >= Duration::from_millis(1));
    }

    #[test]
    fn stop_without_start_is_noop() {
        let mut sw = Stopwatch::new("t");
        sw.stop();
        assert_eq!(sw.total(), Duration::ZERO);
    }

    #[test]
    fn reset_clears_everything() {
        let mut sw = Stopwatch::new("t");
        sw.time(|| ());
        sw.start();
        sw.reset();
        // The running lap was discarded too: stopping adds nothing.
        sw.stop();
        assert_eq!(sw.total(), Duration::ZERO);
    }

    #[test]
    fn run_timings_statistics() {
        let mut t = RunTimings::new("x");
        for s in [1.0, 2.0, 3.0] {
            t.push_seconds(s);
        }
        assert_eq!(t.repetitions(), 3);
        assert_eq!(t.mean_seconds(), 2.0);
        assert_eq!(t.seconds(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn run_timings_empty() {
        let t = RunTimings::new("x");
        assert_eq!(t.mean_seconds(), 0.0);
        assert_eq!(t.repetitions(), 0);
    }
}
