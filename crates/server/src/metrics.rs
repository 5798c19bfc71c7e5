//! Daemon counters and the plaintext `/metrics`-style rendering.
//!
//! Everything is behind one mutex: sessions touch the metrics a handful of
//! times each (admission, start, finish), so contention is negligible next
//! to an evaluation, and a single lock keeps the snapshot consistent —
//! `render` never shows a session that is both queued and finished.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cg_trace::proto::{ErrorClass, ERROR_CLASSES};

/// Per-tenant counters.  Queue depths are *not* counted here — they are
/// snapshotted from the scheduler at render time, so the queue's own lock
/// is the single source of truth and the numbers can never drift.
#[derive(Debug, Default, Clone)]
pub struct TenantMetrics {
    /// Sessions finished (successfully or not).
    pub sessions: u64,
    /// Sessions currently being evaluated.
    pub active: u64,
    /// Events replayed across all finished sessions.
    pub events: u64,
    /// Wall-clock spent in sessions (upload + replay), for the events/s rate.
    pub busy: Duration,
    /// Sessions that ended in an error, by class.
    pub errors: u64,
    /// Submissions bounced with BUSY (the backpressure path).
    pub busy_rejected: u64,
    /// Sessions answered from the memoized result cache.
    pub cache_hits: u64,
    /// Uploads evaluated on the sharded (multi-thread) path.
    pub sharded: u64,
    /// Live `STREAM` sessions evaluated incrementally.
    pub streamed: u64,
}

impl TenantMetrics {
    /// Events per second of evaluation wall-clock, zero before any work.
    fn events_per_sec(&self) -> u64 {
        let secs = self.busy.as_secs_f64();
        if secs <= 0.0 {
            return 0;
        }
        (self.events as f64 / secs) as u64
    }
}

#[derive(Debug, Default)]
struct Inner {
    sessions_total: u64,
    sessions_active: u64,
    busy_rejected: u64,
    cache_hits: u64,
    sessions_sharded: u64,
    sessions_streamed: u64,
    errors: BTreeMap<&'static str, u64>,
    tenants: BTreeMap<String, TenantMetrics>,
}

/// How a finished session was evaluated, for the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionShape {
    /// Answered from the memoized result cache.
    pub cached: bool,
    /// Shard threads the evaluation used (1 = single-shard path).
    pub shards: usize,
    /// Evaluated incrementally as a live `STREAM` session.
    pub streamed: bool,
}

/// Shared daemon counters; cheap to clone behind an `Arc`.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    workers: usize,
    inner: Mutex<Inner>,
}

impl Metrics {
    /// Fresh counters for a daemon with `workers` evaluation slots.
    pub fn new(workers: usize) -> Self {
        Self {
            started: Instant::now(),
            workers,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A submission was bounced with BUSY.
    pub fn on_busy(&self, tenant: &str) {
        let mut inner = self.lock();
        inner.busy_rejected += 1;
        inner
            .tenants
            .entry(tenant.to_string())
            .or_default()
            .busy_rejected += 1;
    }

    /// A connection was bounced before it even named a tenant (the
    /// handshake-thread cap): counted globally only.
    pub fn on_busy_overload(&self) {
        self.lock().busy_rejected += 1;
    }

    /// A worker picked the session up.
    pub fn on_session_start(&self, tenant: &str) {
        let mut inner = self.lock();
        inner.sessions_active += 1;
        inner.tenants.entry(tenant.to_string()).or_default().active += 1;
    }

    /// The session finished successfully.
    pub fn on_session_ok(&self, tenant: &str, events: u64, busy: Duration, shape: SessionShape) {
        let mut inner = self.lock();
        inner.sessions_total += 1;
        inner.sessions_active = inner.sessions_active.saturating_sub(1);
        if shape.cached {
            inner.cache_hits += 1;
        }
        if shape.shards >= 2 {
            inner.sessions_sharded += 1;
        }
        if shape.streamed {
            inner.sessions_streamed += 1;
        }
        let t = inner.tenants.entry(tenant.to_string()).or_default();
        t.active = t.active.saturating_sub(1);
        t.sessions += 1;
        t.events += events;
        t.busy += busy;
        if shape.cached {
            t.cache_hits += 1;
        }
        if shape.shards >= 2 {
            t.sharded += 1;
        }
        if shape.streamed {
            t.streamed += 1;
        }
    }

    /// The session failed with `class`.
    pub fn on_session_error(&self, tenant: &str, class: ErrorClass, busy: Duration) {
        let mut inner = self.lock();
        inner.sessions_total += 1;
        inner.sessions_active = inner.sessions_active.saturating_sub(1);
        *inner.errors.entry(class.name()).or_default() += 1;
        let t = inner.tenants.entry(tenant.to_string()).or_default();
        t.active = t.active.saturating_sub(1);
        t.sessions += 1;
        t.errors += 1;
        t.busy += busy;
    }

    /// A connection died before (or instead of) submitting a session —
    /// counted globally under the protocol class, no tenant to bill.
    pub fn on_handshake_error(&self) {
        let mut inner = self.lock();
        *inner.errors.entry(ErrorClass::Protocol.name()).or_default() += 1;
    }

    /// Snapshot of one tenant's counters (None if never seen).
    pub fn tenant(&self, tenant: &str) -> Option<TenantMetrics> {
        self.lock().tenants.get(tenant).cloned()
    }

    /// Total sessions finished.
    pub fn sessions_total(&self) -> u64 {
        self.lock().sessions_total
    }

    /// Sessions currently evaluating.
    pub fn sessions_active(&self) -> u64 {
        self.lock().sessions_active
    }

    /// Total BUSY bounces.
    pub fn busy_rejected(&self) -> u64 {
        self.lock().busy_rejected
    }

    /// Total memoized answers.
    pub fn cache_hits(&self) -> u64 {
        self.lock().cache_hits
    }

    /// Total uploads evaluated on the sharded path.
    pub fn sessions_sharded(&self) -> u64 {
        self.lock().sessions_sharded
    }

    /// Total live streams evaluated.
    pub fn sessions_streamed(&self) -> u64 {
        self.lock().sessions_streamed
    }

    /// Total errors of one class.
    pub fn errors_of(&self, class: ErrorClass) -> u64 {
        self.lock().errors.get(class.name()).copied().unwrap_or(0)
    }

    /// The plaintext snapshot served in `METRICS_REPLY` frames: one
    /// `key value` per line, keys stable, tenants sorted.  `queues` is the
    /// scheduler's per-tenant queue-depth snapshot taken at render time.
    pub fn render(&self, queues: &BTreeMap<String, usize>) -> String {
        let inner = self.lock();
        let mut out = String::new();
        let _ = writeln!(out, "cgtd.uptime_secs {}", self.started.elapsed().as_secs());
        let _ = writeln!(out, "cgtd.workers {}", self.workers);
        let _ = writeln!(out, "cgtd.sessions_total {}", inner.sessions_total);
        let _ = writeln!(out, "cgtd.sessions_active {}", inner.sessions_active);
        let queued: usize = queues.values().sum();
        let _ = writeln!(out, "cgtd.queue_depth {queued}");
        let _ = writeln!(out, "cgtd.busy_rejected {}", inner.busy_rejected);
        let _ = writeln!(out, "cgtd.cache_hits {}", inner.cache_hits);
        let _ = writeln!(out, "cgtd.sessions_sharded {}", inner.sessions_sharded);
        let _ = writeln!(out, "cgtd.sessions_streamed {}", inner.sessions_streamed);
        for class in ERROR_CLASSES {
            let n = inner.errors.get(class.name()).copied().unwrap_or(0);
            let _ = writeln!(out, "cgtd.errors.{} {n}", class.name());
        }
        // A tenant that is only queued (never finished a session) still
        // shows up, so dashboards see it the moment it submits.
        let mut names: Vec<&str> = inner.tenants.keys().map(String::as_str).collect();
        for name in queues.keys() {
            if !inner.tenants.contains_key(name) {
                names.push(name);
            }
        }
        names.sort_unstable();
        names.dedup();
        let empty = TenantMetrics::default();
        for name in names {
            let t = inner.tenants.get(name).unwrap_or(&empty);
            let depth = queues.get(name).copied().unwrap_or(0);
            let _ = writeln!(out, "tenant.{name}.sessions {}", t.sessions);
            let _ = writeln!(out, "tenant.{name}.queue_depth {depth}");
            let _ = writeln!(out, "tenant.{name}.active {}", t.active);
            let _ = writeln!(out, "tenant.{name}.events {}", t.events);
            let _ = writeln!(out, "tenant.{name}.events_per_sec {}", t.events_per_sec());
            let _ = writeln!(out, "tenant.{name}.errors {}", t.errors);
            let _ = writeln!(out, "tenant.{name}.busy_rejected {}", t.busy_rejected);
            let _ = writeln!(out, "tenant.{name}.cache_hits {}", t.cache_hits);
            let _ = writeln!(out, "tenant.{name}.sharded {}", t.sharded);
            let _ = writeln!(out, "tenant.{name}.streamed {}", t.streamed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable_and_complete() {
        let m = Metrics::new(3);
        m.on_session_start("acme");
        m.on_session_ok(
            "acme",
            1000,
            Duration::from_millis(10),
            SessionShape {
                shards: 4,
                ..SessionShape::default()
            },
        );
        m.on_busy("acme");
        m.on_session_start("acme");
        m.on_session_ok(
            "acme",
            500,
            Duration::from_millis(5),
            SessionShape {
                streamed: true,
                shards: 1,
                cached: false,
            },
        );
        m.on_session_start("zeta");
        m.on_session_error("zeta", ErrorClass::Limit, Duration::from_millis(1));
        let queues = BTreeMap::from([("acme".to_string(), 2usize), ("idle".to_string(), 1)]);
        let text = m.render(&queues);
        for needle in [
            "cgtd.workers 3",
            "cgtd.sessions_total 3",
            "cgtd.sessions_active 0",
            "cgtd.queue_depth 3",
            "cgtd.busy_rejected 1",
            "cgtd.errors.limit 1",
            "cgtd.sessions_sharded 1",
            "cgtd.sessions_streamed 1",
            "tenant.acme.sessions 2",
            "tenant.acme.queue_depth 2",
            "tenant.acme.events 1500",
            "tenant.acme.busy_rejected 1",
            "tenant.acme.sharded 1",
            "tenant.acme.streamed 1",
            "tenant.idle.queue_depth 1",
            "tenant.zeta.errors 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Rate: 1000 events in 10ms ≈ 100k/s.
        assert!(m.tenant("acme").unwrap().events_per_sec() > 50_000);
    }
}
