//! Parallel trace evaluation: N collector shards on N OS threads.
//!
//! [`parallel_eval_governed`] takes the `.cgt` shard sub-streams of one
//! partition ([`partition_streaming`](crate::partition_streaming)) as one
//! [`Read`] per shard — [`parallel_eval_streaming_governed`] the per-shard
//! files of one — and replays each sub-stream against its own
//! [`CollectorShard`] — with its own shadow [`Heap`] region — on its own
//! OS thread (`std::thread::scope`), decoding it there one chunk at a
//! time, sharing only the [`StaticDomain`] and a per-shard progress
//! counter:
//!
//! * a shard's own objects, blocks, frame index and heap slice are touched
//!   by exactly one thread (the partitioner routes every event to the shard
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
//! Every source must declare itself shard `i` of an `n`-shard partition,
//! where `i` is its position and `n` the number of sources.  Trusted input
//! passes [`Governor::unlimited`].
//!
//! Scope: the engine evaluates the plain contaminated collector.  Recycling
//! traces are collector-dependent (they cannot be replayed at all) and the
//! hybrid's mark-sweep/reset needs a global heap view, so `Collect` events
//! are barriers but collect nothing — exactly like `ContaminatedGc`'s no-op
//! `collect` hook.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

use cg_core::{aggregate_shards, CgConfig, CgStats, CollectorShard, ObjectBreakdown, StaticDomain};
use cg_heap::{Heap, HeapConfig, Value};

use crate::{
    EvalError, GcEvent, Governor, ReplayError, ShardWait, StreamKind, TraceIoError, TraceReader,
    GOVERNOR_CHECK_EVENTS,
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
            ParallelError::Rejected(e) => e,
            ParallelError::Shards { shard_errors, .. } => &shard_errors[0].1,
        }
    }

    /// The completed shards' aggregated outcome, if any shard completed.
    pub fn partial(&self) -> Option<&ParallelOutcome> {
        match self {
            ParallelError::Rejected(_) => None,
            ParallelError::Shards { partial, .. } => partial.as_deref(),
        }
    }
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::Rejected(e) => write!(f, "evaluation rejected: {e}"),
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
    /// satisfies.  Called once per replayed event — the no-waiter fast path
    /// is a store, a fence and a relaxed load.
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
                // Recycling traces are collector-dependent; they cannot
                // be replayed (sharded or not).
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
            run.shard.on_object_access(*handle, *thread, domain);
        }
        GcEvent::ReferenceStore {
            source,
            target,
            frame,
        } => {
            run.shard
                .on_reference_store(*source, *target, frame, domain);
        }
        GcEvent::StaticStore { target } => {
            run.shard.on_static_store(*target, domain);
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

/// Replays shard `me` from `source`, which must declare itself shard `me`
/// of this topology, decoding it one chunk at a time: honours each event's
/// wait edges, applies it, and publishes progress after every event,
/// polling the governor every [`GOVERNOR_CHECK_EVENTS`].
fn run_shard<R: Read>(
    me: usize,
    source: R,
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
    // Any exit other than a clean completion — error return *or* panic —
    // must raise the abort flag and unpark every sibling waiting on this
    // shard (the guard is defused just before `Ok`).
    let mut guard = AbortOnDrop {
        abort: ctx.abort,
        cells: ctx.progress,
        armed: true,
    };
    let shards = ctx.progress.len();
    let mut reader = TraceReader::new(BufReader::new(source))?;
    match reader.meta().stream {
        StreamKind::Shard { shard, shard_count }
            if shard as usize == me && shard_count as usize == shards => {}
        _ => {
            return Err(malformed(format!(
                "input {me} is not shard {me} of a {shards}-shard partition"
            )));
        }
    }
    let deadline = ctx.governor.deadline_at();
    for ev in reader.shard_events() {
        let ev = ev?;
        // A corrupt or foreign stream may name a shard outside the topology;
        // fail cleanly instead of indexing out of bounds.
        if let Some(bad) = ev.waits.iter().find(|w| w.shard as usize >= shards) {
            return Err(malformed(format!(
                "shard {me}: wait edge names shard {} of a {shards}-shard partition",
                bad.shard
            )));
        }
        honour_waits(&ev.waits, ctx.progress, ctx.abort, me as u32, deadline)?;
        apply_shard_event(&mut run, &ev.event, ctx.domain)?;
        run.events += 1;
        ctx.progress[me].publish(run.events as u64);
        if (run.events as u64).is_multiple_of(GOVERNOR_CHECK_EVENTS) {
            ctx.governor
                .checkpoint(run.events as u64, &run.heap)
                .map_err(ShardError::Eval)?;
        }
    }
    guard.armed = false;
    Ok(run)
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

/// Runs one shard body with a panic boundary: a panic first triggers the
/// body's own abort guard during unwinding (releasing parked siblings),
/// then is caught here and converted into a structured
/// [`EvalError::ShardPanicked`] report instead of being re-raised.
fn catch_shard_panic(
    me: u32,
    body: impl FnOnce() -> Result<ShardRun, ShardError>,
) -> Result<ShardRun, ShardError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(result) => result,
        Err(payload) => Err(ShardError::Eval(EvalError::ShardPanicked {
            shard: me,
            message: panic_message(payload.as_ref()),
        })),
    }
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
    let start = Instant::now();
    let shard_count = sources.len();
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

    let results = std::thread::scope(|scope| {
        spawn_shards_from(scope, 0, sources.into_iter(), &ctx).map_or_else(Vec::new, join_shards)
    });

    aggregate_results(results, shard_count, &domain, start)
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

type ShardResults = Vec<Result<ShardRun, ShardError>>;

fn join_shards(handle: ScopedJoinHandle<'_, ShardResults>) -> ShardResults {
    handle
        .join()
        .expect("shard panics are caught at the shard boundary")
}

/// Starts the thread of shard `me`, which starts the thread of shard
/// `me + 1` before it runs its own shard and joins it after, and so returns
/// the results of shards `me..` in order.
///
/// The shards finish within microseconds of each other (the last event is a
/// barrier), and an allocator that keeps a freed thread's arena for the next
/// thread to start hands them out by exit order.  Chained, the threads start
/// in ascending and exit in descending shard order whatever their speed, so
/// every evaluation of a long-lived process finds the arena its
/// predecessor's same shard grew; started side by side, a coin decides per
/// evaluation whether the largest shard grows a second arena to its size.
fn spawn_shards_from<'scope, 'env, R: Read + Send + 'scope>(
    scope: &'scope Scope<'scope, 'env>,
    me: usize,
    mut sources: std::vec::IntoIter<R>,
    ctx: &'env ShardContext<'env>,
) -> Option<ScopedJoinHandle<'scope, ShardResults>> {
    let source = sources.next()?;
    Some(scope.spawn(move || {
        let rest = spawn_shards_from(scope, me + 1, sources, ctx);
        let mut results = vec![catch_shard_panic(me as u32, || run_shard(me, source, ctx))];
        results.extend(rest.map_or_else(Vec::new, join_shards));
        results
    }))
}

/// Joins per-shard results into the aggregated outcome; on failure,
/// aggregates whatever completed into the error's partial outcome.
fn aggregate_results(
    results: Vec<Result<ShardRun, ShardError>>,
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
    use crate::{ShardEvent, TraceMeta, TraceWriter};
    use cg_vm::{AllocKind, ClassId, FrameId, FrameInfo, Handle, MethodId, RootSet, ThreadId};

    /// A wait edge naming a shard outside the topology (a corrupt shard
    /// stream whose framing is intact) is a malformed stream, not an
    /// out-of-bounds panic caught at the shard boundary.
    #[test]
    fn wait_edge_outside_the_topology_is_malformed_not_a_panic() {
        let alloc = |thread: u32| GcEvent::Allocate {
            handle: Handle::from_index(thread),
            class: ClassId::new(0),
            kind: AllocKind::Instance { field_count: 1 },
            frame: FrameInfo {
                id: FrameId::new(1 + thread as u64),
                depth: 1,
                thread: ThreadId::new(thread),
                method: MethodId::new(0),
            },
            recycled: false,
        };
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
