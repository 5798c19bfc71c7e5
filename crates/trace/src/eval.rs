//! Parallel trace evaluation: N collector shards on N OS threads.
//!
//! Two entry points feed the same shard threads:
//!
//! * [`parallel_eval_governed`] takes the `.cgt` shard sub-streams of one
//!   partition ([`partition_streaming`](crate::partition_streaming)) as one
//!   [`Read`] per shard — [`parallel_eval_streaming_governed`] the per-shard
//!   files of one — and each shard thread decodes its own sub-stream one
//!   chunk at a time;
//! * [`parallel_eval_routed_governed`] takes one plain event stream: the
//!   calling thread decodes it, routes each event with the partitioner's
//!   router and hands the shard threads batches of routed events through
//!   bounded in-memory queues, so no shard stream is ever encoded.
//!
//! Either way every shard thread runs one loop (`run_shard`) that replays
//! its events against its own [`CollectorShard`] — with its own shadow
//! [`Heap`] region — sharing only the [`StaticDomain`] and a per-shard
//! progress counter:
//!
//! * a shard's own objects, blocks, frame index and heap slice are touched
//!   by exactly one thread (the router sends every event to the shard
//!   whose state it mutates), so the per-event hot path takes no locks;
//! * a `ReferenceStore` with a foreign operand carries a wait edge: the
//!   thread parks until the owning shard's progress counter passes the
//!   point where the §3.3 escalation of that operand is guaranteed to have
//!   happened, then resolves the operand through the static domain;
//! * `Collect`/`ProgramEnd` are barriers (shard 0 waits for everyone,
//!   everyone waits for shard 0).
//!
//! The invariant — checked by the `shard_equivalence` integration test and
//! asserted by the `shard_scaling` bench before timing anything — is that
//! the aggregated [`CgStats`] and [`ObjectBreakdown`] are **byte-identical**
//! to a single-threaded
//! [`replay_events_governed`](crate::replay_events_governed) of the same
//! trace, for every shard count.
//!
//! Every partitioned source must declare itself shard `i` of an `n`-shard
//! partition, where `i` is its position and `n` the number of sources.
//! Trusted input passes [`Governor::unlimited`].
//!
//! Scope: the engine evaluates the plain contaminated collector.  Recycling
//! traces replay only under the single-heap recycling collector that
//! recorded them (multi-shard recycling is rejected) and the hybrid's mark-sweep/reset needs a global heap view, so `Collect` events
//! are barriers but collect nothing — exactly like `ContaminatedGc`'s no-op
//! `collect` hook.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

use cg_core::{aggregate_shards, CgConfig, CgStats, CollectorShard, ObjectBreakdown, StaticDomain};
use cg_heap::{Heap, HeapConfig, Value};

use crate::partition::EventRouter;
use crate::{
    EvalError, GcEvent, Governor, LimitKind, ReplayError, ShardEvent, ShardWait, StreamKind,
    TraceIoError, TraceReader, GOVERNOR_CHECK_EVENTS,
};

/// What a parallel sharded evaluation produced, aggregated across shards.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Aggregated collector statistics (byte-identical to a single-threaded
    /// replay of the same trace).
    pub stats: CgStats,
    /// Aggregated final object disposition.
    pub breakdown: ObjectBreakdown,
    /// Number of shards (and OS threads) used.
    pub shard_count: usize,
    /// Events replayed across all shards.
    pub events_replayed: usize,
    /// Objects freed by the collector during the replay.
    pub collector_freed_objects: u64,
    /// Bytes freed by the collector during the replay.
    pub collector_freed_bytes: u64,
    /// Objects live across all shard heaps after the replay.
    pub live_at_exit: usize,
    /// Recorded `Collect` events encountered (barriers; plain CG does not
    /// mark, so they free nothing).
    pub gc_cycles: u64,
    /// Wall-clock seconds for the whole scoped run.
    pub elapsed_seconds: f64,
}

/// Per-shard worker result.
struct ShardRun {
    shard: CollectorShard,
    heap: Heap,
    events: usize,
    freed_objects: u64,
    freed_bytes: u64,
    gc_cycles: u64,
}

/// Why a shard stopped.
enum ShardError {
    /// The shard itself failed: a replay divergence, an unreadable
    /// sub-stream, a budget trip, a caught panic, or a stalled wait edge.
    Eval(EvalError),
    /// Another shard failed first; this one bailed out of a wait.
    Aborted,
}

impl From<ReplayError> for ShardError {
    fn from(e: ReplayError) -> Self {
        ShardError::Eval(EvalError::Replay(e))
    }
}

impl From<TraceIoError> for ShardError {
    fn from(e: TraceIoError) -> Self {
        ShardError::Eval(EvalError::Trace(e))
    }
}

/// Why a parallel evaluation failed.
///
/// Panics and limit trips inside worker shards are caught at the shard
/// boundary and reported here per shard, together with the best-effort
/// aggregated statistics of the shards that did complete — the caller
/// (a service evaluating many untrusted uploads) gets a diagnosable
/// report instead of a re-raised panic or a hang.
#[derive(Debug)]
pub enum ParallelError {
    /// The evaluation was rejected before any shard thread spawned
    /// (budget validation of the heap configuration or shard count).
    Rejected(EvalError),
    /// A routed evaluation's input stream failed on the calling thread —
    /// unreadable or corrupt bytes, the event budget, the deadline or a
    /// cancellation — and every shard was stopped.
    Stream(EvalError),
    /// One or more shards failed.
    Shards {
        /// Every shard's failure as `(shard index, error)`, in shard
        /// order.  Never empty.
        shard_errors: Vec<(u32, EvalError)>,
        /// Aggregated outcome of the shards that completed, if any did.
        /// `shard_count` inside counts only the completed shards.
        partial: Option<Box<ParallelOutcome>>,
    },
}

impl ParallelError {
    /// The primary failure: the rejection, or the first failing shard.
    pub fn primary(&self) -> &EvalError {
        match self {
            ParallelError::Rejected(e) | ParallelError::Stream(e) => e,
            ParallelError::Shards { shard_errors, .. } => &shard_errors[0].1,
        }
    }

    /// The completed shards' aggregated outcome, if any shard completed.
    pub fn partial(&self) -> Option<&ParallelOutcome> {
        match self {
            ParallelError::Rejected(_) | ParallelError::Stream(_) => None,
            ParallelError::Shards { partial, .. } => partial.as_deref(),
        }
    }
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::Rejected(e) => write!(f, "evaluation rejected: {e}"),
            ParallelError::Stream(e) => write!(f, "event stream failed: {e}"),
            ParallelError::Shards {
                shard_errors,
                partial,
            } => {
                let (shard, error) = &shard_errors[0];
                write!(f, "shard {shard} failed: {error}")?;
                if shard_errors.len() > 1 {
                    write!(f, " (+{} more shard failures)", shard_errors.len() - 1)?;
                }
                if let Some(p) = partial {
                    write!(f, "; {} shard(s) completed", p.shard_count)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ParallelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.primary())
    }
}

/// Sets the abort flag unless defused: a shard that stops for any reason —
/// a replay error, or a panic unwinding through `run_shard` (soundness
/// violations, the §3.3 invariant check) — must release every sibling
/// parked on its progress counter, or the evaluation hangs instead of
/// failing.  The drop also unparks every registered waiter on every cell.
struct AbortOnDrop<'a> {
    abort: &'a AtomicBool,
    cells: &'a [WaitCell],
    armed: bool,
}

impl Drop for AbortOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.abort.store(true, Ordering::Relaxed);
            for cell in self.cells {
                cell.wake_all();
            }
        }
    }
}

/// Pure spinning before a waiter considers parking: short enough that a
/// satisfied-almost-immediately edge (the common case — edges point at
/// events the owner has usually long passed) never pays a syscall.
const SPIN_LIMIT: u32 = 64;
/// Yields after the spin phase before parking: on one core this hands the
/// timeslice to the awaited shard, which usually satisfies the edge without
/// any parking at all.
const YIELD_LIMIT: u32 = 192;

/// One shard's progress counter plus the machinery for other shards to
/// block on it: bounded spin, then `std::thread::park` until the publisher
/// passes the awaited event count.
///
/// Lost-wakeup freedom is the classic store/fence/load handshake: a waiter
/// registers itself (under the `waiters` lock), issues a `SeqCst` fence,
/// and re-reads `progress` before parking; the publisher stores `progress`,
/// issues a `SeqCst` fence, and reads `min_target`.  Whichever side's fence
/// comes second in the total fence order sees the other side's write, so
/// either the waiter observes enough progress and never parks, or the
/// publisher observes the waiter's target and unparks it.  `min_target`
/// (the smallest unsatisfied target, `u64::MAX` when nobody waits) keeps
/// the publisher's per-event cost to one fence and one relaxed load.
struct WaitCell {
    /// Events this shard has fully applied (monotone).
    progress: AtomicU64,
    /// Smallest registered waiter target; written only under `waiters`.
    min_target: AtomicU64,
    /// Parked waiters as `(target, thread)`.
    waiters: Mutex<Vec<(u64, std::thread::Thread)>>,
}

impl WaitCell {
    fn new() -> Self {
        Self {
            progress: AtomicU64::new(0),
            min_target: AtomicU64::new(u64::MAX),
            waiters: Mutex::new(Vec::new()),
        }
    }

    fn progress(&self) -> u64 {
        self.progress.load(Ordering::Acquire)
    }

    /// Publishes this shard's new event count and wakes any waiter it
    /// satisfies.  The no-waiter fast path is a store, a fence and a relaxed
    /// load; a file-fed shard calls it after every event, a queue-fed one
    /// after every batch (see [`QueueFeed`]).
    fn publish(&self, value: u64) {
        self.progress.store(value, Ordering::Release);
        fence(Ordering::SeqCst);
        if self.min_target.load(Ordering::Relaxed) <= value {
            self.wake_satisfied(value);
        }
    }

    fn wake_satisfied(&self, value: u64) {
        let mut waiters = self.waiters.lock().expect("wait cell poisoned");
        let mut min = u64::MAX;
        waiters.retain(|(target, thread)| {
            if *target <= value {
                thread.unpark();
                false
            } else {
                min = min.min(*target);
                true
            }
        });
        self.min_target.store(min, Ordering::Relaxed);
    }

    /// Unparks every registered waiter (the abort path; the waiters re-check
    /// the abort flag after waking).
    fn wake_all(&self) {
        let mut waiters = self.waiters.lock().expect("wait cell poisoned");
        for (_, thread) in waiters.drain(..) {
            thread.unpark();
        }
        self.min_target.store(u64::MAX, Ordering::Relaxed);
    }

    /// Removes this thread's registration (spurious wakeup, satisfaction
    /// observed directly, or abort), recomputing `min_target`.
    fn deregister(&self, target: u64) {
        let mut waiters = self.waiters.lock().expect("wait cell poisoned");
        let me = std::thread::current().id();
        let mut min = u64::MAX;
        waiters.retain(|(t, thread)| {
            if *t == target && thread.id() == me {
                false
            } else {
                min = min.min(*t);
                true
            }
        });
        self.min_target.store(min, Ordering::Relaxed);
    }

    /// Blocks until this cell's progress reaches `target`: bounded spin,
    /// a few yields, then park/unpark — bounded by `deadline` when the
    /// governor set one, so a dead or wedged publisher surfaces as
    /// [`EvalError::ShardStalled`] (attributed `me` → `owner`) instead of
    /// a hang.
    fn wait_for(
        &self,
        target: u64,
        abort: &AtomicBool,
        deadline: Option<Instant>,
        me: u32,
        owner: u32,
    ) -> Result<(), ShardError> {
        let mut spins = 0u32;
        loop {
            if self.progress() >= target {
                return Ok(());
            }
            if abort.load(Ordering::Relaxed) {
                return Err(ShardError::Aborted);
            }
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else if spins < YIELD_LIMIT {
                std::thread::yield_now();
            } else {
                break;
            }
        }
        let started = deadline.map(|_| Instant::now());
        loop {
            {
                let mut waiters = self.waiters.lock().expect("wait cell poisoned");
                waiters.push((target, std::thread::current()));
                let min = self.min_target.load(Ordering::Relaxed).min(target);
                self.min_target.store(min, Ordering::Relaxed);
            }
            fence(Ordering::SeqCst);
            if self.progress() >= target {
                self.deregister(target);
                return Ok(());
            }
            // Checked *after* registering: an aborter stores the flag, then
            // drains the waiter list under the same lock our registration
            // used, so we either see the flag here or get unparked below.
            if abort.load(Ordering::Relaxed) {
                self.deregister(target);
                return Err(ShardError::Aborted);
            }
            match deadline {
                None => std::thread::park(),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        self.deregister(target);
                        return Err(ShardError::Eval(EvalError::ShardStalled {
                            shard: me,
                            waiting_on: owner,
                            waited: started.expect("set when a deadline exists").elapsed(),
                        }));
                    }
                    std::thread::park_timeout(at - now);
                }
            }
            // Woken by the publisher (already deregistered), by an abort
            // (drained), by the timeout, or spuriously (still registered —
            // clean up before looping, which re-registers).
            self.deregister(target);
            if self.progress() >= target {
                return Ok(());
            }
            if abort.load(Ordering::Relaxed) {
                return Err(ShardError::Aborted);
            }
        }
    }
}

/// Blocks until every wait edge is satisfied.  All edges point backwards in
/// the global order, so this cannot deadlock; a shard stalled behind a
/// neighbour's long chunk parks instead of burning a core.
fn honour_waits(
    waits: &[ShardWait],
    progress: &[WaitCell],
    abort: &AtomicBool,
    me: u32,
    deadline: Option<Instant>,
) -> Result<(), ShardError> {
    for wait in waits {
        progress[wait.shard as usize].wait_for(wait.processed, abort, deadline, me, wait.shard)?;
    }
    Ok(())
}

/// Applies one routed event to a shard's collector and private heap.
///
/// Deliberately not [`apply_event`](crate::apply_event): a shard places
/// allocations at the recorded handle (`allocate_at`) and must not gate
/// foreign operands for liveness — they live in a sibling shard's heap.
fn apply_shard_event(
    run: &mut ShardRun,
    event: &GcEvent,
    domain: &StaticDomain,
) -> Result<(), ReplayError> {
    // Same hostile-handle bound as the single-threaded replay: collector
    // shards index per-object state by handle, so an implausible index
    // must be rejected before any table grows.
    crate::validate_event_handles(event, &run.heap)?;
    match event {
        GcEvent::Allocate {
            handle,
            class,
            kind,
            frame,
            recycled,
        } => {
            if *recycled {
                // Recycling traces replay only on one heap under the
                // recycling collector that recorded them, never sharded.
                return Err(ReplayError::RecycleDiverged { handle: *handle });
            }
            match kind {
                crate::AllocKind::Instance { field_count } => {
                    run.heap.allocate_at(*handle, *class, *field_count)?
                }
                crate::AllocKind::Array { length } => {
                    run.heap.allocate_array_at(*handle, *class, *length)?
                }
            };
            run.shard.on_allocate(*handle, frame, domain);
        }
        GcEvent::SlotWrite {
            object,
            slot,
            value,
            element,
        } => {
            let value = Value::from(*value);
            if *element {
                run.heap.set_element(*object, *slot, value)?;
            } else {
                run.heap.set_field(*object, *slot, value)?;
            }
        }
        GcEvent::ObjectAccess { handle, thread } => {
            run.shard
                .on_object_access(*handle, *thread, &run.heap, domain);
        }
        GcEvent::ReferenceStore {
            source,
            target,
            frame,
        } => {
            run.shard
                .on_reference_store(*source, *target, frame, &run.heap, domain);
        }
        GcEvent::StaticStore { target } => {
            run.shard.on_static_store(*target, &run.heap, domain);
        }
        GcEvent::ReturnValue {
            value,
            caller,
            callee,
        } => {
            run.shard.on_return_value(*value, caller, callee, domain);
        }
        GcEvent::FramePush { .. } => {}
        GcEvent::FramePop { frame } => {
            let outcome = run.shard.on_frame_pop(frame, &mut run.heap);
            run.freed_objects += outcome.freed_objects;
            run.freed_bytes += outcome.freed_bytes;
        }
        // Barriers.  Plain CG's `collect` hook is a no-op (no marking);
        // the breakdown is aggregated after the join.
        GcEvent::Collect { .. } => run.gc_cycles += 1,
        GcEvent::ProgramEnd { .. } => {}
    }
    Ok(())
}

/// What every shard thread of one evaluation shares.
struct ShardContext<'a> {
    config: CgConfig,
    heap_config: HeapConfig,
    domain: &'a StaticDomain,
    /// One cell per shard; its length is the topology's shard count.
    progress: &'a [WaitCell],
    abort: &'a AtomicBool,
    governor: &'a Governor,
}

fn malformed(detail: String) -> ShardError {
    TraceIoError::Malformed {
        chunk: None,
        detail,
    }
    .into()
}

/// Where a shard's events come from.  Each call hands out the next event
/// and its wait edges, borrowed from the feed until the next call, so a
/// feed that owns its events keeps them: a queue-fed shard returns its
/// batches to the router, and nothing the router allocated is freed on a
/// shard thread.
trait ShardFeed {
    /// The next event and its wait edges; `None` after the last one.
    fn next_event(&mut self) -> Option<Result<(&[ShardWait], &GcEvent), ShardError>>;
}

/// Replays shard `me` from `feed`: honours each event's wait edges,
/// applies it, and polls the governor every [`GOVERNOR_CHECK_EVENTS`].
/// The one shard loop both entry points run; the feed publishes the
/// shard's progress.
fn run_shard(
    me: usize,
    mut feed: impl ShardFeed,
    ctx: &ShardContext<'_>,
) -> Result<ShardRun, ShardError> {
    let mut run = ShardRun {
        shard: CollectorShard::for_shard(ctx.config),
        heap: Heap::new(ctx.heap_config),
        events: 0,
        freed_objects: 0,
        freed_bytes: 0,
        gc_cycles: 0,
    };
    let shards = ctx.progress.len();
    let deadline = ctx.governor.deadline_at();
    while let Some(next) = feed.next_event() {
        let (waits, event) = next?;
        if !waits.is_empty() {
            // A corrupt or foreign stream may name a shard outside the
            // topology; fail cleanly instead of indexing out of bounds.
            if let Some(bad) = waits.iter().find(|w| w.shard as usize >= shards) {
                return Err(malformed(format!(
                    "shard {me}: wait edge names shard {} of a {shards}-shard partition",
                    bad.shard
                )));
            }
            honour_waits(waits, ctx.progress, ctx.abort, me as u32, deadline)?;
        }
        apply_shard_event(&mut run, event, ctx.domain)?;
        run.events += 1;
        if (run.events as u64).is_multiple_of(GOVERNOR_CHECK_EVENTS) {
            ctx.governor
                .checkpoint(run.events as u64, &run.heap)
                .map_err(ShardError::Eval)?;
        }
    }
    Ok(run)
}

/// A shard fed by its own `.cgt` sub-stream, decoded one chunk at a time,
/// publishing progress after every event (a wait edge may name any count).
struct SourceFeed<'a, R: Read> {
    reader: TraceReader<BufReader<R>>,
    current: Option<ShardEvent>,
    /// Events handed out so far; when the next is asked for, all are
    /// applied.
    taken: u64,
    cell: &'a WaitCell,
}

impl<R: Read> ShardFeed for SourceFeed<'_, R> {
    fn next_event(&mut self) -> Option<Result<(&[ShardWait], &GcEvent), ShardError>> {
        self.cell.publish(self.taken);
        self.current = match self.reader.next_shard_event() {
            Ok(ev) => ev,
            Err(e) => return Some(Err(e.into())),
        };
        self.taken += 1;
        let ev = self.current.as_ref()?;
        Some(Ok((&ev.waits, &ev.event)))
    }
}

/// Replays shard `me` from `source`, which must declare itself shard `me`
/// of this topology.
fn run_shard_source<R: Read>(
    me: usize,
    source: R,
    ctx: &ShardContext<'_>,
) -> Result<ShardRun, ShardError> {
    let shards = ctx.progress.len();
    let reader = TraceReader::new(BufReader::new(source))?;
    match reader.meta().stream {
        StreamKind::Shard { shard, shard_count }
            if shard as usize == me && shard_count as usize == shards => {}
        _ => {
            return Err(malformed(format!(
                "input {me} is not shard {me} of a {shards}-shard partition"
            )));
        }
    }
    let feed = SourceFeed {
        reader,
        current: None,
        taken: 0,
        cell: &ctx.progress[me],
    };
    run_shard(me, feed, ctx)
}

/// Renders a caught panic payload for an [`EvalError::ShardPanicked`]
/// report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one shard body with a panic boundary.  Any exit other than a
/// clean completion — an error return *or* a panic — raises the abort flag
/// and unparks every sibling waiting on this shard (during unwinding, for a
/// panic); the panic is then caught here and converted into a structured
/// [`EvalError::ShardPanicked`] report instead of being re-raised.
fn shard_thread(
    me: usize,
    ctx: &ShardContext<'_>,
    body: impl FnOnce() -> Result<ShardRun, ShardError>,
) -> Result<ShardRun, ShardError> {
    let run = || {
        let mut guard = AbortOnDrop {
            abort: ctx.abort,
            cells: ctx.progress,
            armed: true,
        };
        let result = body();
        guard.armed = result.is_err();
        result
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(result) => result,
        Err(payload) => Err(ShardError::Eval(EvalError::ShardPanicked {
            shard: me as u32,
            message: panic_message(payload.as_ref()),
        })),
    }
}

/// Validates the shard count and heap configuration against `governor`,
/// then runs `run` with a fresh static domain and one progress cell per
/// shard, and aggregates the shard results it returns.
fn evaluate_shards(
    shard_count: usize,
    heap_config: HeapConfig,
    config: CgConfig,
    governor: &Governor,
    run: impl FnOnce(&ShardContext<'_>) -> (ShardResults, Option<EvalError>),
) -> Result<ParallelOutcome, ParallelError> {
    let start = Instant::now();
    governor
        .validate_shards(shard_count)
        .and_then(|()| governor.validate_heap(&heap_config))
        .map_err(ParallelError::Rejected)?;
    let domain = StaticDomain::with_impl(config.domain_impl);
    let progress: Vec<WaitCell> = (0..shard_count).map(|_| WaitCell::new()).collect();
    let abort = AtomicBool::new(false);
    let ctx = ShardContext {
        config,
        heap_config,
        domain: &domain,
        progress: &progress,
        abort: &abort,
        governor,
    };
    let (results, stream) = run(&ctx);
    aggregate_results(results, stream, shard_count, &domain, start)
}

/// Replays the shard sub-streams of one partition on one OS thread per
/// source and aggregates the results.  Source `i` must be the `.cgt` bytes
/// [`partition_streaming`](crate::partition_streaming) wrote for shard `i`
/// of as many shards as there are sources; each thread decodes its own
/// source, holding one chunk of it at a time.
///
/// Every shard gets the full `heap_config` as its private region, so a
/// sharded replay can never exhaust space a single-threaded replay had.
///
/// The heap configuration and shard count are validated against the
/// [`Governor`] before any thread spawns or heap allocates, every shard
/// polls the budget cooperatively, and cross-shard wait edges honour the
/// governor's deadline (a dead sibling surfaces as
/// [`EvalError::ShardStalled`] instead of a hang).  No event total is known
/// up front; a caller holding one (the partitioner's count) validates it.
///
/// # Errors
///
/// A [`ParallelError`]: the up-front rejection, or each failing shard's
/// [`EvalError`] (a divergence, a malformed or foreign sub-stream, a budget
/// trip, or a panic caught at the shard boundary — e.g. an ill-formed
/// stream violating the §3.3 pre-escalation invariant) plus the completed
/// shards' partial statistics.
///
/// # Panics
///
/// Panics if `sources` is empty.
pub fn parallel_eval_governed<R: Read + Send>(
    sources: impl IntoIterator<Item = R>,
    heap_config: HeapConfig,
    config: CgConfig,
    governor: &Governor,
) -> Result<ParallelOutcome, ParallelError> {
    let sources: Vec<R> = sources.into_iter().collect();
    assert!(!sources.is_empty(), "need at least one shard stream");
    evaluate_shards(sources.len(), heap_config, config, governor, |ctx| {
        let body = |me, source| run_shard_source(me, source, ctx);
        let results = std::thread::scope(|scope| {
            spawn_shards_from(scope, 0, sources.into_iter(), ctx, &body)
                .map_or_else(Vec::new, join_shards)
        });
        (results, None)
    })
}

/// [`parallel_eval_governed`] over per-shard `.cgt` files (written by
/// [`partition_path_streaming`](crate::partition_path_streaming)), straight
/// from disk: the whole evaluation's trace memory is O(shards × chunk)
/// regardless of trace length.
///
/// # Errors
///
/// A [`ParallelError`]: a shard file that cannot be opened (rejected before
/// any thread spawns), or anything [`parallel_eval_governed`] reports.
pub fn parallel_eval_streaming_governed(
    paths: &[PathBuf],
    heap_config: HeapConfig,
    config: CgConfig,
    governor: &Governor,
) -> Result<ParallelOutcome, ParallelError> {
    let files = paths
        .iter()
        .map(File::open)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| ParallelError::Rejected(EvalError::Trace(e.into())))?;
    parallel_eval_governed(files, heap_config, config, governor)
}

/// Routed events the calling thread gathers for one shard before it hands
/// them over: one queue operation per this many events.
const ROUTE_BATCH_EVENTS: usize = 1024;
/// Batches that may wait in one shard's queue before the router blocks.
const ROUTE_QUEUE_BATCHES: usize = 8;

/// Routed events on their way to one shard.  The shard reads them in
/// place and sends the batch back to the router's pool, where it is
/// cleared: the events and their wait edges are allocated and freed on the
/// router's thread alone.
#[derive(Default)]
struct Batch {
    /// Each event with the end of its wait edges in `waits`.
    events: Vec<(usize, GcEvent)>,
    /// Every event's wait edges, back to back.
    waits: Vec<ShardWait>,
}

impl Batch {
    /// Room for `events` events and as many wait edges — more than a
    /// recorded trace needs, so a batch never grows and the router's
    /// allocations are a fixed count per batch.
    fn with_capacity(events: usize) -> Self {
        Self {
            events: Vec::with_capacity(events),
            waits: Vec::with_capacity(events),
        }
    }
}

/// One shard's end of a routed evaluation: the batches its bounded queue
/// delivers.
///
/// Progress is published once per batch, when it is spent, instead of
/// after every event.  That releases every waiter: the count a wait edge
/// on this shard names lies in a batch the router sent before it queued
/// the waiting event, and this shard finishes a sent batch without
/// waiting on anything later in the global order, so the count is
/// published when that batch is spent.
struct QueueFeed<'a> {
    queue: Receiver<Batch>,
    spent: SyncSender<Batch>,
    batch: Batch,
    /// The next event of `batch` to hand out, and where its waits start.
    next: usize,
    waits_from: usize,
    /// Events handed out so far; when the next is asked for, all are
    /// applied.
    taken: u64,
    cell: &'a WaitCell,
    abort: &'a AtomicBool,
}

impl QueueFeed<'_> {
    /// Publishes progress, returns the spent batch to the pool and waits
    /// for the next one: `false` when the stream has ended.
    fn refill(&mut self) -> Result<bool, ShardError> {
        self.cell.publish(self.taken);
        let spent = std::mem::take(&mut self.batch);
        if spent.events.capacity() > 0 {
            // The pool has room for every batch; a batch the router
            // allocated past it is simply dropped.
            let _ = self.spent.try_send(spent);
        }
        // The router stopped on a failure, or a sibling failed: the stream
        // is incomplete, so this shard has no result to give.
        let stopped = || self.abort.load(Ordering::Relaxed);
        if stopped() {
            return Err(ShardError::Aborted);
        }
        match self.queue.recv() {
            Ok(batch) => {
                self.batch = batch;
                self.next = 0;
                self.waits_from = 0;
                Ok(true)
            }
            Err(_) if stopped() => Err(ShardError::Aborted),
            Err(_) => Ok(false),
        }
    }
}

impl ShardFeed for QueueFeed<'_> {
    fn next_event(&mut self) -> Option<Result<(&[ShardWait], &GcEvent), ShardError>> {
        while self.next == self.batch.events.len() {
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
        let (waits_to, event) = &self.batch.events[self.next];
        let waits = &self.batch.waits[self.waits_from..*waits_to];
        self.next += 1;
        self.waits_from = *waits_to;
        self.taken += 1;
        Some(Ok((waits, event)))
    }
}

/// Why the router stopped short of the end of the stream.
enum RouteStop {
    /// The stream failed: unreadable bytes, a budget, the deadline or a
    /// cancellation.
    Failed(EvalError),
    /// A shard's queue is gone: that shard stopped, and reports why.
    ShardGone,
}

/// The calling thread's half of a routed evaluation: decodes `events`,
/// routes each with `router` and queues it for its shard in batches of
/// `batch_events`, drawing empty batches from `pool`.  Routing allocates
/// nothing per event: the wait edges land in reused buffers.
///
/// Before an event that waits on shard *s* is queued, *s*'s pending batch
/// is sent: every wait points backwards in the global order, so whatever
/// it awaits is then already queued, and the globally earliest queued
/// event can always run — the bounded queues cannot deadlock.
///
/// The event budget is exact (the `limit + 1`-th event trips it); the
/// deadline and cancellation are polled every [`GOVERNOR_CHECK_EVENTS`]
/// and after the last event, as the single-threaded replay polls them.
fn route_events<I>(
    events: I,
    router: &mut EventRouter,
    queues: &[SyncSender<Batch>],
    pool: &Receiver<Batch>,
    batch_events: usize,
    governor: &Governor,
) -> Result<(), RouteStop>
where
    I: IntoIterator<Item = Result<GcEvent, TraceIoError>>,
{
    let fresh = || match pool.try_recv() {
        Ok(mut batch) => {
            batch.events.clear();
            batch.waits.clear();
            batch
        }
        Err(_) => Batch::with_capacity(batch_events),
    };
    let mut pending: Vec<Batch> = queues.iter().map(|_| fresh()).collect();
    let flush = |pending: &mut Vec<Batch>, shard: usize| {
        if pending[shard].events.is_empty() {
            return Ok(());
        }
        let full = std::mem::replace(&mut pending[shard], fresh());
        queues[shard].send(full).map_err(|_| RouteStop::ShardGone)
    };
    let poll = || {
        governor
            .check_cancelled()
            .and_then(|()| governor.check_deadline())
            .map_err(RouteStop::Failed)
    };
    let max_events = governor.limits().max_events;
    let (mut scratch, mut waits) = (Vec::new(), Vec::new());
    let mut routed = 0u64;
    for event in events {
        let event = event.map_err(|e| RouteStop::Failed(e.into()))?;
        if let Some(limit) = max_events.filter(|&limit| routed >= limit) {
            return Err(RouteStop::Failed(EvalError::LimitExceeded {
                kind: LimitKind::Events,
                limit,
                observed: routed + 1,
            }));
        }
        routed += 1;
        if routed.is_multiple_of(GOVERNOR_CHECK_EVENTS) {
            poll()?;
        }
        let shard = router.route(&event, &mut scratch, &mut waits);
        for wait in &waits {
            flush(&mut pending, wait.shard as usize)?;
        }
        let batch = &mut pending[shard];
        batch.waits.append(&mut waits);
        batch.events.push((batch.waits.len(), event));
        if batch.events.len() >= batch_events {
            flush(&mut pending, shard)?;
        }
    }
    poll()?;
    (0..queues.len()).try_for_each(|shard| flush(&mut pending, shard))
}

/// Evaluates one plain event stream — a [`TraceReader`]'s
/// [`events`](TraceReader::events) — on `shard_count` OS threads, with
/// nothing but memory between the decoder and the shards: the calling
/// thread decodes and routes every event exactly as
/// [`partition_streaming`](crate::partition_streaming) would, and hands each
/// shard thread batches of its routed events through a bounded queue.  The
/// shard threads run the loop [`parallel_eval_governed`] runs.  The answer
/// is byte-identical to it and to a single-threaded
/// [`replay_events_governed`](crate::replay_events_governed) of the stream.
///
/// Memory beyond the shards' own state is a fixed pool of batches,
/// allocated before any shard thread starts and recycled through a return
/// queue.  Every shard gets the full `heap_config` as its private region.
///
/// The heap configuration and shard count are validated against the
/// [`Governor`] before any thread spawns; the calling thread enforces the
/// event budget exactly and polls the deadline and cancellation, and every
/// shard polls the whole budget as in [`parallel_eval_governed`].  The
/// header's declared event count is the caller's to validate.
///
/// # Errors
///
/// A [`ParallelError`]: the up-front rejection; a failing shard's
/// [`EvalError`]s with the completed shards' partial statistics; or, when
/// no shard failed, the stream's own failure as [`ParallelError::Stream`].
///
/// # Panics
///
/// Panics if `shard_count` is zero.
pub fn parallel_eval_routed_governed<I>(
    events: I,
    shard_count: usize,
    heap_config: HeapConfig,
    config: CgConfig,
    governor: &Governor,
) -> Result<ParallelOutcome, ParallelError>
where
    I: IntoIterator<Item = Result<GcEvent, TraceIoError>>,
{
    routed_eval(
        events,
        shard_count,
        heap_config,
        config,
        governor,
        (ROUTE_BATCH_EVENTS, ROUTE_QUEUE_BATCHES),
    )
}

/// [`parallel_eval_routed_governed`] with the batch size and queue depth
/// as parameters, so the tests can run the smallest ones.
pub(crate) fn routed_eval<I>(
    events: I,
    shard_count: usize,
    heap_config: HeapConfig,
    config: CgConfig,
    governor: &Governor,
    (batch_events, queue_batches): (usize, usize),
) -> Result<ParallelOutcome, ParallelError>
where
    I: IntoIterator<Item = Result<GcEvent, TraceIoError>>,
{
    assert!(shard_count > 0, "cannot route into zero shards");
    evaluate_shards(shard_count, heap_config, config, governor, |ctx| {
        // Every batch there can be at once: one filling per shard, one
        // being read per shard, and a full queue per shard.  Allocated
        // before any shard thread starts.
        let pool_size = shard_count * (queue_batches + 2);
        let (spent, pool) = sync_channel(pool_size);
        for _ in 0..pool_size {
            let _ = spent.try_send(Batch::with_capacity(batch_events));
        }
        let (queues, feeds): (Vec<_>, Vec<_>) = (0..shard_count)
            .map(|_| {
                let (queue, feed) = sync_channel(queue_batches);
                (queue, (feed, spent.clone()))
            })
            .unzip();
        let body = |me: usize, (queue, spent): (Receiver<Batch>, SyncSender<Batch>)| {
            let feed = QueueFeed {
                queue,
                spent,
                batch: Batch::default(),
                next: 0,
                waits_from: 0,
                taken: 0,
                cell: &ctx.progress[me],
                abort: ctx.abort,
            };
            run_shard(me, feed, ctx)
        };
        // Like every buffer the router holds, its owner map is allocated
        // and freed on this thread, outside the shard threads' lifetime.
        let mut router = EventRouter::new(shard_count);
        std::thread::scope(|scope| {
            let shards = spawn_shards_from(scope, 0, feeds.into_iter(), ctx, &body);
            // Declared after the queues, so it drops first: a router that
            // stops for any reason (or unwinds) raises the abort flag
            // before the shards see their queues close.
            let mut guard = AbortOnDrop {
                abort: ctx.abort,
                cells: ctx.progress,
                armed: true,
            };
            let routed = route_events(
                events,
                &mut router,
                &queues,
                &pool,
                batch_events,
                ctx.governor,
            );
            guard.armed = routed.is_err();
            drop(guard);
            drop(queues);
            let results = shards.map_or_else(Vec::new, join_shards);
            let stream = match routed {
                Err(RouteStop::Failed(e)) => Some(e),
                Ok(()) | Err(RouteStop::ShardGone) => None,
            };
            (results, stream)
        })
    })
}

type ShardResults = Vec<Result<ShardRun, ShardError>>;

fn join_shards(handle: ScopedJoinHandle<'_, ShardResults>) -> ShardResults {
    handle
        .join()
        .expect("shard panics are caught at the shard boundary")
}

/// Starts the thread of shard `me`, which starts the thread of shard
/// `me + 1` before it runs its own shard — `body` on its source, inside
/// [`shard_thread`] — and joins it after, and so returns the results of
/// shards `me..` in order.
///
/// The shards finish within microseconds of each other (the last event is a
/// barrier), and an allocator that keeps a freed thread's arena for the next
/// thread to start hands them out by exit order.  Chained, the threads start
/// in ascending and exit in descending shard order whatever their speed, so
/// every evaluation of a long-lived process finds the arena its
/// predecessor's same shard grew; started side by side, a coin decides per
/// evaluation whether the largest shard grows a second arena to its size.
fn spawn_shards_from<'scope, 'env, S, F>(
    scope: &'scope Scope<'scope, 'env>,
    me: usize,
    mut sources: std::vec::IntoIter<S>,
    ctx: &'env ShardContext<'env>,
    body: &'env F,
) -> Option<ScopedJoinHandle<'scope, ShardResults>>
where
    S: Send + 'scope,
    F: Fn(usize, S) -> Result<ShardRun, ShardError> + Sync,
{
    let source = sources.next()?;
    Some(scope.spawn(move || {
        let rest = spawn_shards_from(scope, me + 1, sources, ctx, body);
        let mut results = vec![shard_thread(me, ctx, || body(me, source))];
        results.extend(rest.map_or_else(Vec::new, join_shards));
        results
    }))
}

/// Joins per-shard results into the aggregated outcome.  A failing shard
/// fails the evaluation with the completed shards' aggregate as its
/// partial outcome; failing that, a failed input `stream` does.  A shard
/// failure is reported first: it met an event the stream delivered before
/// it broke, which a single-threaded replay would have met first too.
fn aggregate_results(
    results: ShardResults,
    stream: Option<EvalError>,
    shard_count: usize,
    domain: &StaticDomain,
    start: Instant,
) -> Result<ParallelOutcome, ParallelError> {
    let mut runs = Vec::with_capacity(shard_count);
    let mut shard_errors: Vec<(u32, EvalError)> = Vec::new();
    for (index, result) in results.into_iter().enumerate() {
        match result {
            Ok(run) => runs.push(run),
            Err(ShardError::Aborted) => {}
            Err(ShardError::Eval(e)) => shard_errors.push((index as u32, e)),
        }
    }

    if shard_errors.is_empty() {
        if let Some(e) = stream {
            return Err(ParallelError::Stream(e));
        }
        debug_assert_eq!(runs.len(), shard_count);
        return Ok(aggregate_runs(&mut runs, shard_count, domain, start));
    }
    // Best-effort partial report: the completed shards' aggregate.  The
    // shared static domain may reflect half-applied work from the failed
    // shards, so this is diagnostic data, not an equivalence-grade result.
    let partial = if runs.is_empty() {
        None
    } else {
        let completed = runs.len();
        Some(Box::new(aggregate_runs(
            &mut runs, completed, domain, start,
        )))
    };
    Err(ParallelError::Shards {
        shard_errors,
        partial,
    })
}

/// Aggregates completed shard runs exactly the way the single-threaded
/// collector reports at program end (one shared implementation with the
/// sequential `ShardedGc`).
fn aggregate_runs(
    runs: &mut [ShardRun],
    shard_count: usize,
    domain: &StaticDomain,
    start: Instant,
) -> ParallelOutcome {
    let (stats, breakdown) = aggregate_shards(runs.iter_mut().map(|r| &mut r.shard), domain);
    ParallelOutcome {
        stats,
        breakdown,
        shard_count,
        events_replayed: runs.iter().map(|r| r.events).sum(),
        collector_freed_objects: runs.iter().map(|r| r.freed_objects).sum(),
        collector_freed_bytes: runs.iter().map(|r| r.freed_bytes).sum(),
        live_at_exit: runs.iter().map(|r| r.heap.live_count()).sum(),
        gc_cycles: runs.iter().map(|r| r.gc_cycles).sum(),
        elapsed_seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::tests::random_stream;
    use crate::{replay_events_governed, ResourceLimits, TraceMeta, TraceWriter};
    use cg_core::ContaminatedGc;
    use cg_vm::{AllocKind, ClassId, FrameId, FrameInfo, Handle, MethodId, RootSet, ThreadId};
    use std::time::Duration;

    /// A governor whose deadline turns a deadlock into a failure: every
    /// blocking point of a routed evaluation ends at a wait edge, and a
    /// wait edge gives up at the deadline.
    fn bounded() -> Governor {
        Governor::new(ResourceLimits {
            deadline: Some(Duration::from_secs(30)),
            ..ResourceLimits::unlimited()
        })
    }

    /// The smallest batch and queue: every event is its own batch and a
    /// shard's queue holds one, so the router blocks as often as it can.
    const TIGHTEST: (usize, usize) = (1, 1);

    fn alloc(handle: u32, thread: u32) -> GcEvent {
        GcEvent::Allocate {
            handle: Handle::from_index(handle),
            class: ClassId::new(0),
            kind: AllocKind::Instance { field_count: 1 },
            frame: FrameInfo {
                id: FrameId::new(1 + thread as u64),
                depth: 1,
                thread: ThreadId::new(thread),
                method: MethodId::new(0),
            },
            recycled: false,
        }
    }

    /// Random multi-thread streams answer through the routed evaluator at
    /// 1–4 shards exactly as the single-threaded replay does: with a
    /// one-event batch and a one-batch queue, where the router blocks as
    /// often as it can, and with batches of a few events, where an event
    /// that waits on a shard whose events are still being gathered
    /// deadlocks unless that shard's batch is sent first.
    #[test]
    fn routed_evaluation_matches_the_single_threaded_replay_without_deadlock() {
        let heap = HeapConfig::small();
        let config = CgConfig::default();
        for seed in 0..64u64 {
            let trace = random_stream(seed, true);
            let single = replay_events_governed(
                trace.iter().map(Ok),
                heap,
                ContaminatedGc::with_config(config),
                &Governor::unlimited(),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: single replay: {e}"));
            let mut single_collector = single.collector;
            let breakdown = single_collector.breakdown();
            for (shards, sizes) in (1..=4).flat_map(|n| [(n, TIGHTEST), (n, (4, 1))]) {
                let events = trace.iter().cloned().map(Ok);
                let case = format!("seed {seed}, {shards} shards, {sizes:?}");
                let outcome = routed_eval(events, shards, heap, config, &bounded(), sizes)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                assert_eq!(outcome.stats, *single_collector.stats(), "{case}");
                assert_eq!(outcome.breakdown, breakdown, "{case}");
                assert_eq!(outcome.events_replayed, trace.len(), "{case}");
                assert_eq!(outcome.shard_count, shards, "{case}");
            }
        }
    }

    /// A stream that breaks mid-way fails as the stream, with the error it
    /// broke with, and every shard stops.
    #[test]
    fn a_failed_stream_stops_every_shard() {
        let trace = random_stream(7, true);
        let cut = trace.len() / 2;
        let events =
            trace
                .iter()
                .take(cut)
                .cloned()
                .map(Ok)
                .chain([Err(TraceIoError::Malformed {
                    chunk: Some(3),
                    detail: "bad CRC".to_string(),
                })]);
        let err = routed_eval(
            events,
            3,
            HeapConfig::small(),
            CgConfig::default(),
            &bounded(),
            TIGHTEST,
        )
        .expect_err("the stream broke");
        assert!(
            matches!(
                err,
                ParallelError::Stream(EvalError::Trace(TraceIoError::Malformed { .. }))
            ),
            "{err}"
        );
    }

    /// The event budget trips on the router at exactly `limit + 1` events.
    #[test]
    fn the_event_budget_trips_at_the_first_event_past_it() {
        let trace = random_stream(11, true);
        let run = |limit: u64| {
            let governor = Governor::new(ResourceLimits {
                max_events: Some(limit),
                ..ResourceLimits::unlimited()
            });
            let events = trace.iter().cloned().map(Ok);
            routed_eval(
                events,
                2,
                HeapConfig::small(),
                CgConfig::default(),
                &governor,
                TIGHTEST,
            )
        };
        let exact = trace.len() as u64;
        assert!(run(exact).is_ok(), "{exact} events fit a budget of {exact}");
        match run(exact - 1).expect_err("one event over") {
            ParallelError::Stream(EvalError::LimitExceeded {
                kind: LimitKind::Events,
                limit,
                observed,
            }) => assert_eq!((limit, observed), (exact - 1, exact)),
            other => panic!("expected an event-budget trip, got {other}"),
        }
    }

    /// A cancelled or expired governor fails the stream with the class the
    /// single-threaded replay reports, however short the stream.
    #[test]
    fn cancel_and_deadline_fail_the_stream_as_they_fail_a_replay() {
        // One recording thread: shard 1 gets nothing, so no wait edge can
        // meet the expired deadline first.
        let trace: Vec<GcEvent> = (0..8)
            .map(|handle| alloc(handle, 0))
            .chain([GcEvent::ProgramEnd {
                roots: Box::new(RootSet::default()),
            }])
            .collect();
        let cancelled = Governor::unlimited();
        cancelled.cancel_token().cancel();
        let expired = Governor::new(ResourceLimits {
            deadline: Some(Duration::ZERO),
            ..ResourceLimits::unlimited()
        });
        std::thread::sleep(Duration::from_millis(2));
        for governor in [cancelled, expired] {
            let single = replay_events_governed(
                trace.iter().map(Ok),
                HeapConfig::small(),
                ContaminatedGc::new(),
                &governor,
            )
            .map(|_| ())
            .expect_err("the single-threaded replay fails");
            let routed = routed_eval(
                trace.iter().cloned().map(Ok),
                2,
                HeapConfig::small(),
                CgConfig::default(),
                &governor,
                TIGHTEST,
            )
            .expect_err("the routed evaluation fails");
            let ParallelError::Stream(routed) = routed else {
                panic!("expected a stream failure, got {routed}");
            };
            assert_eq!(
                std::mem::discriminant(&routed),
                std::mem::discriminant(&single),
                "{routed} vs {single}"
            );
        }
    }

    /// A shard that panics while the router is blocked on its full queue
    /// unblocks the router and fails the evaluation with the panic; the
    /// call returns, so no thread is left parked.
    #[test]
    fn a_shard_panic_unblocks_a_router_waiting_on_its_queue() {
        // Thread 1 stores thread 0's object without the §3.3 access first,
        // so shard 1 panics on the pre-escalation invariant — and then the
        // router keeps queueing shard 1 events behind it.
        let mut trace = vec![
            alloc(0, 0),
            alloc(1, 1),
            GcEvent::ReferenceStore {
                source: Handle::from_index(1),
                target: Handle::from_index(0),
                frame: FrameInfo {
                    id: FrameId::new(2),
                    depth: 1,
                    thread: ThreadId::new(1),
                    method: MethodId::new(0),
                },
            },
        ];
        trace.extend((2..200).map(|handle| alloc(handle, 1)));
        trace.push(GcEvent::ProgramEnd {
            roots: Box::new(RootSet::default()),
        });
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = routed_eval(
            trace.into_iter().map(Ok),
            2,
            HeapConfig::small(),
            CgConfig::default(),
            &bounded(),
            TIGHTEST,
        );
        std::panic::set_hook(quiet);
        match result.expect_err("shard 1 panics") {
            ParallelError::Shards { shard_errors, .. } => {
                assert_eq!(shard_errors.len(), 1, "only shard 1 fails");
                assert!(
                    matches!(
                        shard_errors[0],
                        (1, EvalError::ShardPanicked { shard: 1, .. })
                    ),
                    "{:?}",
                    shard_errors[0]
                );
            }
            other => panic!("expected a shard failure, got {other}"),
        }
    }

    /// A wait edge naming a shard outside the topology (a corrupt shard
    /// stream whose framing is intact) is a malformed stream, not an
    /// out-of-bounds panic caught at the shard boundary.
    #[test]
    fn wait_edge_outside_the_topology_is_malformed_not_a_panic() {
        let alloc = |thread: u32| alloc(thread, thread);
        let end = GcEvent::ProgramEnd {
            roots: Box::new(RootSet::default()),
        };
        // Shard 0: its allocation and the barrier; shard 1: its allocation,
        // waiting on a shard 9 that does not exist.
        let streams = [
            vec![(0, vec![], alloc(0)), (2, vec![(1, 1)], end)],
            vec![(1, vec![(9, 1)], alloc(1))],
        ];
        let bytes: Vec<Vec<u8>> = streams
            .iter()
            .enumerate()
            .map(|(shard, events)| {
                let meta = TraceMeta {
                    stream: StreamKind::Shard {
                        shard: shard as u32,
                        shard_count: 2,
                    },
                    ..TraceMeta::default()
                };
                let mut writer = TraceWriter::new(Vec::new(), &meta).expect("header");
                for (seq, waits, event) in events {
                    let waits = waits
                        .iter()
                        .map(|&(shard, processed)| ShardWait { shard, processed })
                        .collect();
                    writer
                        .push_shard(&ShardEvent {
                            seq: *seq,
                            waits,
                            event: event.clone(),
                        })
                        .expect("push");
                }
                writer.finish().expect("finish").0
            })
            .collect();
        let err = parallel_eval_governed(
            bytes.iter().map(Vec::as_slice),
            HeapConfig::small(),
            CgConfig::default(),
            &Governor::unlimited(),
        )
        .expect_err("shard 9 of 2 does not exist");
        match err.primary() {
            EvalError::Trace(TraceIoError::Malformed { detail, .. }) => {
                assert!(detail.contains("names shard 9 of a 2-shard"), "{detail}");
            }
            other => panic!("expected Malformed, got {other}"),
        }
    }
}
