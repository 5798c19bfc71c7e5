//! Resource governance for evaluating untrusted traces.
//!
//! A `.cgt` file arriving from outside the process boundary (the `cgtd`
//! service model: millions of uploaded sessions) must not be able to OOM
//! the evaluator, wedge a worker thread, or run forever.  This module is
//! the budget layer that makes replay safe to expose to such input:
//!
//! * [`ResourceLimits`] — a declarative budget: event count, heap bytes,
//!   handle count, shard count, wall-clock deadline.  Anything left `None`
//!   is unlimited.
//! * [`CancelToken`] — a cheap, cloneable cancellation flag shared between
//!   the caller and a running evaluation.
//! * [`Governor`] — a started evaluation's enforcement state: it validates
//!   a trace header's [`HeapConfig`] *before any allocation*, and replay
//!   loops poll [`Governor::checkpoint`] every
//!   [`GOVERNOR_CHECK_EVENTS`] events, so limit trips, deadlines and
//!   cancellation surface within one check interval.
//! * [`EvalError`] — the structured failure taxonomy every governed
//!   evaluation path returns instead of panicking or hanging: corrupt
//!   input, replay divergence, budget trips, cancellation, and per-shard
//!   failure reports ([`EvalError::ShardPanicked`],
//!   [`EvalError::ShardStalled`]).
//!
//! Enforcement is cooperative: a budget trip is detected at the next
//! checkpoint, so the observed value may overshoot the limit by at most
//! one check interval.  That slack is deliberate — it keeps the per-event
//! hot path at a single branch.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cg_heap::{Heap, HeapConfig};

use crate::format::TraceIoError;
use crate::replay::ReplayError;

/// How many events a governed replay loop processes between
/// [`Governor::checkpoint`] polls.  Budget trips are therefore detected
/// with at most this much event-count slack.
pub const GOVERNOR_CHECK_EVENTS: u64 = 1024;

/// A declarative evaluation budget.  `None` fields are unlimited.
///
/// [`ResourceLimits::untrusted`] is the recommended starting point for
/// input that crosses a trust boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceLimits {
    /// Maximum events a single evaluation may replay.
    pub max_events: Option<u64>,
    /// Maximum total heap bytes (object space + handle space) a trace
    /// header may declare.  Checked before the heap is allocated.
    pub max_heap_bytes: Option<u64>,
    /// Maximum handles: bounds both the header-declared handle capacity
    /// and the handles actually minted during replay (a hostile shard
    /// stream can otherwise grow the handle table via huge handle
    /// indices).
    pub max_handles: Option<u64>,
    /// Maximum shard count a partitioned evaluation may spawn.
    pub max_shards: Option<u64>,
    /// Wall-clock budget for the whole evaluation.
    pub deadline: Option<Duration>,
}

impl ResourceLimits {
    /// No limits at all — the trusted-input default.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Conservative defaults for input that crosses a trust boundary:
    /// 50 M events, 1 GiB of heap, 4 M handles, 64 shards, 60 s.
    pub fn untrusted() -> Self {
        Self {
            max_events: Some(50_000_000),
            max_heap_bytes: Some(1 << 30),
            max_handles: Some(4_000_000),
            max_shards: Some(64),
            deadline: Some(Duration::from_secs(60)),
        }
    }

    /// Parses a `key=value` comma list, e.g.
    /// `events=100000,heap-mib=256,handles=100000,shards=8,deadline-ms=5000`.
    ///
    /// Unknown keys, malformed numbers, zero values, repeated keys and
    /// `heap-mib` values whose byte count overflows `u64` are all errors;
    /// an empty spec means [`ResourceLimits::untrusted`].  Every budget is
    /// a maximum, so a zero would reject *every* evaluation — a spec that
    /// asks for that is a typo, not a policy.
    ///
    /// # Errors
    ///
    /// A [`LimitsParseError`] naming the offending token.
    pub fn parse(spec: &str) -> Result<Self, LimitsParseError> {
        if spec.trim().is_empty() {
            return Ok(Self::untrusted());
        }
        let mut limits = Self::unlimited();
        let mut seen: Vec<&str> = Vec::new();
        for token in spec.split(',') {
            let token = token.trim();
            let (key, value) =
                token
                    .split_once('=')
                    .ok_or_else(|| LimitsParseError::NotKeyValue {
                        token: token.to_string(),
                    })?;
            let n: u64 = value.parse().map_err(|_| LimitsParseError::BadNumber {
                key: key.to_string(),
                value: value.to_string(),
            })?;
            if n == 0 {
                return Err(LimitsParseError::ZeroValue {
                    key: key.to_string(),
                });
            }
            if seen.contains(&key) {
                return Err(LimitsParseError::DuplicateKey {
                    key: key.to_string(),
                });
            }
            match key {
                "events" => limits.max_events = Some(n),
                "heap-mib" => {
                    let bytes =
                        n.checked_mul(1 << 20)
                            .ok_or_else(|| LimitsParseError::Overflow {
                                key: key.to_string(),
                                value: n,
                            })?;
                    limits.max_heap_bytes = Some(bytes);
                }
                "handles" => limits.max_handles = Some(n),
                "shards" => limits.max_shards = Some(n),
                "deadline-ms" => limits.deadline = Some(Duration::from_millis(n)),
                _ => {
                    return Err(LimitsParseError::UnknownKey {
                        key: key.to_string(),
                    })
                }
            }
            seen.push(key);
        }
        Ok(limits)
    }
}

/// Why a [`ResourceLimits::parse`] spec was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LimitsParseError {
    /// A token had no `=`.
    NotKeyValue {
        /// The offending token.
        token: String,
    },
    /// The key is not one of the recognised limit names.
    UnknownKey {
        /// The offending key.
        key: String,
    },
    /// The value did not parse as a `u64`.
    BadNumber {
        /// The key whose value was malformed.
        key: String,
        /// The malformed value.
        value: String,
    },
    /// The value was zero, which would reject every evaluation.
    ZeroValue {
        /// The offending key.
        key: String,
    },
    /// The key appeared more than once in the spec.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
    /// The value overflows when converted to its internal unit.
    Overflow {
        /// The offending key.
        key: String,
        /// The value as given in the spec.
        value: u64,
    },
}

impl fmt::Display for LimitsParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitsParseError::NotKeyValue { token } => {
                write!(f, "limit '{token}' is not of the form key=value")
            }
            LimitsParseError::UnknownKey { key } => write!(
                f,
                "unknown limit '{key}' (expected events, heap-mib, handles, \
                 shards or deadline-ms)"
            ),
            LimitsParseError::BadNumber { key, value } => {
                write!(f, "limit '{key}' has a non-numeric value '{value}'")
            }
            LimitsParseError::ZeroValue { key } => write!(
                f,
                "limit '{key}' is zero, which would reject every evaluation; \
                 omit the key for unlimited"
            ),
            LimitsParseError::DuplicateKey { key } => {
                write!(f, "limit '{key}' appears more than once")
            }
            LimitsParseError::Overflow { key, value } => {
                write!(f, "limit '{key}={value}' overflows the byte budget")
            }
        }
    }
}

impl std::error::Error for LimitsParseError {}

/// Which budget a [`EvalError::LimitExceeded`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// [`ResourceLimits::max_events`].
    Events,
    /// [`ResourceLimits::max_heap_bytes`].
    HeapBytes,
    /// [`ResourceLimits::max_handles`].
    Handles,
    /// [`ResourceLimits::max_shards`].
    Shards,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LimitKind::Events => "event",
            LimitKind::HeapBytes => "heap-byte",
            LimitKind::Handles => "handle",
            LimitKind::Shards => "shard",
        };
        write!(f, "{name}")
    }
}

/// Why a governed evaluation failed.
///
/// This is the terminal error taxonomy for untrusted-input evaluation: any
/// input, however hostile, produces exactly one of these instead of a
/// panic, a hang, or unbounded resource use.
#[derive(Debug)]
pub enum EvalError {
    /// The trace stream was unreadable (I/O, corruption, truncation).
    Trace(TraceIoError),
    /// The collector under replay diverged from the recorded history.
    Replay(ReplayError),
    /// A resource budget was exceeded.  `observed` may overshoot `limit`
    /// by up to one check interval ([`GOVERNOR_CHECK_EVENTS`]).
    LimitExceeded {
        /// Which budget tripped.
        kind: LimitKind,
        /// The configured limit.
        limit: u64,
        /// The observed value at the checkpoint that tripped.
        observed: u64,
    },
    /// The wall-clock deadline passed before the evaluation finished.
    DeadlineExceeded {
        /// The configured budget.
        deadline: Duration,
        /// Time actually elapsed when the trip was detected.
        elapsed: Duration,
    },
    /// The caller cancelled the evaluation via its [`CancelToken`].
    Cancelled,
    /// A worker shard panicked; the panic was caught at the shard
    /// boundary and converted into this report.
    ShardPanicked {
        /// The shard that panicked.
        shard: u32,
        /// The panic payload, rendered to a string.
        message: String,
    },
    /// A shard's cross-shard wait edge never advanced: the sibling it
    /// waited on died or wedged, and the deadline expired first.
    ShardStalled {
        /// The waiting shard.
        shard: u32,
        /// The shard whose progress never arrived.
        waiting_on: u32,
        /// How long the shard waited before giving up.
        waited: Duration,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Trace(e) => write!(f, "{e}"),
            EvalError::Replay(e) => write!(f, "{e}"),
            EvalError::LimitExceeded {
                kind,
                limit,
                observed,
            } => {
                write!(
                    f,
                    "{kind} budget exceeded: observed {observed}, limit {limit}"
                )
            }
            EvalError::DeadlineExceeded { deadline, elapsed } => {
                write!(
                    f,
                    "deadline exceeded: {}ms elapsed against a {}ms budget",
                    elapsed.as_millis(),
                    deadline.as_millis()
                )
            }
            EvalError::Cancelled => write!(f, "evaluation cancelled by the caller"),
            EvalError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} panicked: {message}")
            }
            EvalError::ShardStalled {
                shard,
                waiting_on,
                waited,
            } => {
                write!(
                    f,
                    "shard {shard} stalled waiting on shard {waiting_on} for {}ms",
                    waited.as_millis()
                )
            }
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Trace(e) => Some(e),
            EvalError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceIoError> for EvalError {
    fn from(e: TraceIoError) -> Self {
        EvalError::Trace(e)
    }
}

impl From<ReplayError> for EvalError {
    fn from(e: ReplayError) -> Self {
        EvalError::Replay(e)
    }
}

/// A cloneable cancellation flag.  Cancelling is idempotent and
/// irreversible; every clone observes the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation.  Running governed evaluations observe it at
    /// their next checkpoint.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A started evaluation's budget-enforcement state: the limits, the shared
/// cancellation flag, and the absolute deadline (fixed when the governor
/// is created, so all shards of a parallel evaluation share one clock).
#[derive(Debug, Clone)]
pub struct Governor {
    limits: ResourceLimits,
    cancel: CancelToken,
    start: Instant,
    deadline_at: Option<Instant>,
}

impl Governor {
    /// Starts the clock on `limits` with a fresh cancellation token.
    pub fn new(limits: ResourceLimits) -> Self {
        Self::with_cancel(limits, CancelToken::new())
    }

    /// Starts the clock on `limits`, observing an existing token (so the
    /// caller can cancel from another thread).
    pub fn with_cancel(limits: ResourceLimits, cancel: CancelToken) -> Self {
        let start = Instant::now();
        Self {
            limits,
            cancel,
            start,
            deadline_at: limits.deadline.map(|d| start + d),
        }
    }

    /// A governor that never trips: the trusted-input fast path.
    pub fn unlimited() -> Self {
        Self::new(ResourceLimits::unlimited())
    }

    /// The budget this governor enforces.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// A clone of the cancellation token, for handing to another thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The absolute deadline, if one was configured — blocking waits
    /// (e.g. cross-shard wait edges) must not sleep past it.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline_at
    }

    /// Validates a heap configuration against the budget *before* any
    /// allocation: both the total declared bytes and the declared handle
    /// capacity must fit.
    ///
    /// # Errors
    ///
    /// [`EvalError::LimitExceeded`] naming the offending budget.
    pub fn validate_heap(&self, config: &HeapConfig) -> Result<(), EvalError> {
        let declared =
            (config.object_space_bytes as u64).saturating_add(config.handle_space_bytes as u64);
        if let Some(limit) = self.limits.max_heap_bytes {
            if declared > limit {
                return Err(EvalError::LimitExceeded {
                    kind: LimitKind::HeapBytes,
                    limit,
                    observed: declared,
                });
            }
        }
        if let Some(limit) = self.limits.max_handles {
            let capacity = config.handle_capacity() as u64;
            if capacity > limit {
                return Err(EvalError::LimitExceeded {
                    kind: LimitKind::Handles,
                    limit,
                    observed: capacity,
                });
            }
        }
        Ok(())
    }

    /// Validates a shard count before any worker threads are spawned.
    ///
    /// # Errors
    ///
    /// [`EvalError::LimitExceeded`] with [`LimitKind::Shards`].
    pub fn validate_shards(&self, shards: usize) -> Result<(), EvalError> {
        if let Some(limit) = self.limits.max_shards {
            if shards as u64 > limit {
                return Err(EvalError::LimitExceeded {
                    kind: LimitKind::Shards,
                    limit,
                    observed: shards as u64,
                });
            }
        }
        Ok(())
    }

    /// Rejects a trace whose *declared* event count already exceeds the
    /// budget — before replaying a single event.  (The declaration is
    /// untrusted; the cooperative per-checkpoint count still guards
    /// against a lying header.)
    ///
    /// # Errors
    ///
    /// [`EvalError::LimitExceeded`] with [`LimitKind::Events`].
    pub fn validate_declared_events(&self, declared: u64) -> Result<(), EvalError> {
        if let Some(limit) = self.limits.max_events {
            if declared > limit {
                return Err(EvalError::LimitExceeded {
                    kind: LimitKind::Events,
                    limit,
                    observed: declared,
                });
            }
        }
        Ok(())
    }

    /// Checks the cancellation flag alone (the cheapest poll).
    ///
    /// # Errors
    ///
    /// [`EvalError::Cancelled`].
    pub fn check_cancelled(&self) -> Result<(), EvalError> {
        if self.cancel.is_cancelled() {
            return Err(EvalError::Cancelled);
        }
        Ok(())
    }

    /// Checks the wall-clock deadline.
    ///
    /// # Errors
    ///
    /// [`EvalError::DeadlineExceeded`].
    pub fn check_deadline(&self) -> Result<(), EvalError> {
        if let (Some(at), Some(deadline)) = (self.deadline_at, self.limits.deadline) {
            if Instant::now() > at {
                return Err(EvalError::DeadlineExceeded {
                    deadline,
                    elapsed: self.start.elapsed(),
                });
            }
        }
        Ok(())
    }

    /// The full cooperative poll a replay loop runs every
    /// [`GOVERNOR_CHECK_EVENTS`] events: cancellation, deadline, event
    /// budget, and the minted-handle budget (which a hostile shard stream
    /// can otherwise inflate past the header-declared capacity).
    ///
    /// # Errors
    ///
    /// The first trip found, as an [`EvalError`].
    pub fn checkpoint(&self, events_replayed: u64, heap: &Heap) -> Result<(), EvalError> {
        self.check_cancelled()?;
        self.check_deadline()?;
        if let Some(limit) = self.limits.max_events {
            if events_replayed > limit {
                return Err(EvalError::LimitExceeded {
                    kind: LimitKind::Events,
                    limit,
                    observed: events_replayed,
                });
            }
        }
        if let Some(limit) = self.limits.max_handles {
            let minted = heap.handles_minted() as u64;
            if minted > limit {
                return Err(EvalError::LimitExceeded {
                    kind: LimitKind::Handles,
                    limit,
                    observed: minted,
                });
            }
        }
        Ok(())
    }
}

impl Default for Governor {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let l = ResourceLimits::parse("events=1000,heap-mib=2,handles=50,shards=4,deadline-ms=250")
            .unwrap();
        assert_eq!(l.max_events, Some(1000));
        assert_eq!(l.max_heap_bytes, Some(2 << 20));
        assert_eq!(l.max_handles, Some(50));
        assert_eq!(l.max_shards, Some(4));
        assert_eq!(l.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn parse_empty_means_untrusted_defaults() {
        assert_eq!(
            ResourceLimits::parse("").unwrap(),
            ResourceLimits::untrusted()
        );
        assert_eq!(
            ResourceLimits::parse("  ").unwrap(),
            ResourceLimits::untrusted()
        );
    }

    #[test]
    fn parse_rejects_bad_tokens() {
        assert!(ResourceLimits::parse("events").is_err());
        assert!(ResourceLimits::parse("events=abc").is_err());
        assert!(ResourceLimits::parse("frobs=3").is_err());
    }

    #[test]
    fn parse_rejects_degenerate_specs() {
        // Table of (spec, expected error). Every budget is a maximum, so
        // zero values, repeated keys and overflowing sizes are typos the
        // parser must refuse rather than silently honour.
        let table: &[(&str, LimitsParseError)] = &[
            (
                "events=0",
                LimitsParseError::ZeroValue {
                    key: "events".to_string(),
                },
            ),
            (
                "deadline-ms=0",
                LimitsParseError::ZeroValue {
                    key: "deadline-ms".to_string(),
                },
            ),
            (
                "heap-mib=0",
                LimitsParseError::ZeroValue {
                    key: "heap-mib".to_string(),
                },
            ),
            (
                "handles=0,events=10",
                LimitsParseError::ZeroValue {
                    key: "handles".to_string(),
                },
            ),
            (
                "shards=0",
                LimitsParseError::ZeroValue {
                    key: "shards".to_string(),
                },
            ),
            (
                "events=10,events=20",
                LimitsParseError::DuplicateKey {
                    key: "events".to_string(),
                },
            ),
            (
                "heap-mib=1,events=5,heap-mib=2",
                LimitsParseError::DuplicateKey {
                    key: "heap-mib".to_string(),
                },
            ),
            // 2^44 MiB = 2^64 bytes: one past the largest representable
            // byte budget.
            (
                "heap-mib=17592186044416",
                LimitsParseError::Overflow {
                    key: "heap-mib".to_string(),
                    value: 1 << 44,
                },
            ),
            (
                "heap-mib=18446744073709551615",
                LimitsParseError::Overflow {
                    key: "heap-mib".to_string(),
                    value: u64::MAX,
                },
            ),
            (
                "frobs=3",
                LimitsParseError::UnknownKey {
                    key: "frobs".to_string(),
                },
            ),
            (
                "events=abc",
                LimitsParseError::BadNumber {
                    key: "events".to_string(),
                    value: "abc".to_string(),
                },
            ),
            (
                "events",
                LimitsParseError::NotKeyValue {
                    token: "events".to_string(),
                },
            ),
        ];
        for (spec, expected) in table {
            assert_eq!(
                ResourceLimits::parse(spec).unwrap_err(),
                *expected,
                "spec {spec:?}"
            );
        }
    }

    #[test]
    fn parse_accepts_largest_representable_heap() {
        // 2^44 - 1 MiB still fits in a u64 byte count.
        let l = ResourceLimits::parse("heap-mib=17592186044415").unwrap();
        assert_eq!(l.max_heap_bytes, Some(((1u64 << 44) - 1) << 20));
    }

    #[test]
    fn oversized_heap_config_is_rejected_before_allocation() {
        let governor = Governor::new(ResourceLimits {
            max_heap_bytes: Some(1 << 20),
            ..ResourceLimits::unlimited()
        });
        let config = HeapConfig::spacious();
        match governor.validate_heap(&config) {
            Err(EvalError::LimitExceeded {
                kind: LimitKind::HeapBytes,
                limit,
                observed,
            }) => {
                assert_eq!(limit, 1 << 20);
                assert!(observed > limit);
            }
            other => panic!("expected a heap-byte limit trip, got {other:?}"),
        }
        // A small config passes.
        governor.validate_heap(&HeapConfig::tight(1 << 10)).unwrap();
    }

    #[test]
    fn handle_capacity_is_bounded() {
        let governor = Governor::new(ResourceLimits {
            max_handles: Some(10),
            ..ResourceLimits::unlimited()
        });
        let err = governor.validate_heap(&HeapConfig::small()).unwrap_err();
        assert!(matches!(
            err,
            EvalError::LimitExceeded {
                kind: LimitKind::Handles,
                ..
            }
        ));
    }

    #[test]
    fn cancel_token_trips_checkpoints() {
        let governor = Governor::unlimited();
        let heap = Heap::new(HeapConfig::small());
        governor.checkpoint(1, &heap).unwrap();
        governor.cancel_token().cancel();
        assert!(matches!(
            governor.checkpoint(2, &heap),
            Err(EvalError::Cancelled)
        ));
    }

    #[test]
    fn expired_deadline_trips() {
        let governor = Governor::new(ResourceLimits {
            deadline: Some(Duration::ZERO),
            ..ResourceLimits::unlimited()
        });
        std::thread::sleep(Duration::from_millis(2));
        let heap = Heap::new(HeapConfig::small());
        assert!(matches!(
            governor.checkpoint(1, &heap),
            Err(EvalError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn event_budget_trips_with_observed_count() {
        let governor = Governor::new(ResourceLimits {
            max_events: Some(100),
            ..ResourceLimits::unlimited()
        });
        let heap = Heap::new(HeapConfig::small());
        governor.checkpoint(100, &heap).unwrap();
        match governor.checkpoint(101, &heap) {
            Err(EvalError::LimitExceeded {
                kind: LimitKind::Events,
                limit: 100,
                observed: 101,
            }) => {}
            other => panic!("expected an event limit trip, got {other:?}"),
        }
        governor.validate_declared_events(50).unwrap();
        assert!(governor.validate_declared_events(101).is_err());
    }

    #[test]
    fn shard_budget_is_validated_up_front() {
        let governor = Governor::new(ResourceLimits {
            max_shards: Some(4),
            ..ResourceLimits::unlimited()
        });
        governor.validate_shards(4).unwrap();
        assert!(matches!(
            governor.validate_shards(5),
            Err(EvalError::LimitExceeded {
                kind: LimitKind::Shards,
                ..
            })
        ));
    }

    #[test]
    fn errors_render_their_budget() {
        let e = EvalError::LimitExceeded {
            kind: LimitKind::Events,
            limit: 10,
            observed: 11,
        };
        assert!(e.to_string().contains("event"));
        let e = EvalError::ShardStalled {
            shard: 1,
            waiting_on: 0,
            waited: Duration::from_millis(5),
        };
        assert!(e.to_string().contains("stalled"));
    }
}
