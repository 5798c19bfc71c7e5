//! The differential oracle: one generated program, every collector stack,
//! one precise ground truth.
//!
//! [`check_program`] runs a program through the whole reproduction and
//! asserts the invariants each layer claims:
//!
//! 1. **Ground truth** — a [`NoopCollector`] recording
//!    run frees nothing, so `trace_live` over its final roots is *precise*
//!    reachability.  A [`MarkSweep`] collection over a clone of that heap
//!    must keep exactly the reachable set (the oracle's own independent
//!    check), and a live mark-sweep run must keep the program alive.
//! 2. **Soundness** — under [`ContaminatedGc`] (and the recycling
//!    configurations) no precisely-reachable object may ever be freed:
//!    a heap error, a collector panic, or a reachable-but-dead object at
//!    program end is a counterexample.
//! 3. **Trace fidelity** — replaying the recorded stream (`.cgt` bytes,
//!    decoded once) against the same collector must reproduce the live
//!    run's [`CgStats`] and [`ObjectBreakdown`] byte-for-byte.  The
//!    recycling configuration's live run is itself recorded, and its
//!    recording must replay the same way under that configuration.
//! 4. **Shard invariance** — a live [`ShardedGc`] at every configured shard
//!    count must match the single-shard collector byte-for-byte, and
//!    [`partition_streaming`]`+`[`parallel_eval_governed`] must match a
//!    single-threaded replay.  The sharded checks run under **both**
//!    [`DomainImpl`]s — the configured one live and in parallel, the other
//!    one in parallel — so the lock-free static domain is differentially
//!    fuzzed against the mutex model on every program.
//! 5. **Partition fidelity** — decoding the `n` shard streams and putting
//!    every event back at its sequence number must reproduce the recorded
//!    events exactly, for every shard count.
//! 6. **Inline-cache invariance** — re-recording the program with the
//!    inline-cache pass ([`VmConfig::fusion`]) flipped must reproduce the
//!    recording byte-for-byte — event stream and VM statistics footer
//!    alike; caching may only change speed, never behaviour.
//!
//! Failures carry a coarse [`CheckFailure::class`] so the shrinker can
//! insist a minimised program still fails *the same way*.  Collector panics
//! (e.g. the `verify_tainted` check, or a double free caused by an injected
//! fault) are caught and reported as failures rather than aborting the
//! fuzzing run.

use cg_core::marksweep::{trace_live, MarkSweep};
use cg_core::{CgConfig, CgStats, ContaminatedGc, DomainImpl, ObjectBreakdown, ShardedGc};
use cg_heap::{HandleRepr, Heap, HeapConfig};
use cg_trace::{
    parallel_eval_governed, partition_streaming, record_streaming, replay_events_governed,
    Governor, RecordError, TraceMeta, TraceReader,
};
use cg_vm::{Collector, GcEvent, NoopCollector, Program, Vm, VmConfig};

/// The heap every oracle run uses: 1 MiB of object space, sized so that a
/// collector which frees *nothing* can still hold a full budgeted run
/// (the generator caps total allocations far below this).
pub fn fuzz_heap_config() -> HeapConfig {
    HeapConfig::with_object_space(1 << 20, HandleRepr::CgWide)
}

/// The VM configuration for oracle runs.  The inline-cache pass follows the
/// process default ([`VmConfig::fusion`], i.e. `CG_VM_FUSION`).
pub fn fuzz_vm_config(forced_gc: Option<u64>) -> VmConfig {
    let mut config = VmConfig::default().with_heap(fuzz_heap_config());
    config.gc_every_instructions = forced_gc;
    config.max_instructions = 4_000_000;
    config
}

/// What the oracle checks and how.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// The contaminated-collector configuration under test (fault injection
    /// goes in here).  `verify_tainted` is forced off so unsoundness is
    /// *reported* instead of panicking mid-run.
    pub cg: CgConfig,
    /// Shard counts for the sharded-equivalence and partition checks.
    pub shards: Vec<usize>,
    /// Force a full collection every N instructions in the recording and
    /// live runs (adds `Collect` barriers to the stream).
    pub forced_gc: Option<u64>,
    /// Also run the §3.7 recycling configuration (soundness only; recycled
    /// traces are collector-dependent and excluded from replay equality).
    pub check_recycling: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        Self {
            cg: CgConfig {
                verify_tainted: false,
                ..CgConfig::preferred()
            },
            shards: vec![1, 2, 4, 8],
            // Periodic collections put `Collect` barriers in every stream:
            // the incremental soundness check then verifies reachability
            // while the program is still running — where an early free is
            // caught red-handed, frames and all — instead of only at
            // program end.
            forced_gc: Some(1024),
            check_recycling: true,
        }
    }
}

impl OracleOptions {
    /// The default checks with a fault injected into the collector (the
    /// oracle self-test: these options must produce failures).
    pub fn with_fault(fault: cg_core::FaultInjection) -> Self {
        let mut options = Self::default();
        options.cg.fault = fault;
        options
    }
}

/// Why a program failed the oracle.
#[derive(Debug, Clone)]
pub enum CheckFailure {
    /// The baseline (collector-free) run itself failed: the *generator*
    /// produced an invalid program.  Never the collector's fault.
    InvalidProgram {
        /// The VM error.
        error: String,
    },
    /// A collector-driven run failed with a VM error (for a sound collector
    /// every oracle program runs to completion, so this is almost always a
    /// `DeadHandle` heap error — a freed-while-reachable object).
    CollectorRun {
        /// Which run failed (`cg-live`, `msa-live`, `cg+recycle`, ...).
        context: String,
        /// The VM error.
        error: String,
    },
    /// A collector panicked (soundness verifier, double free, ...).
    Panic {
        /// Which run panicked.
        context: String,
        /// The panic payload.
        message: String,
    },
    /// An object that is precisely reachable at program end is not live in
    /// the collector's heap.
    Soundness {
        /// Which run freed it.
        context: String,
        /// The handle index of the first freed-but-reachable object.
        handle: usize,
    },
    /// A replay or parallel evaluation rejected the recorded stream.
    Replay {
        /// Which evaluation failed.
        context: String,
        /// The replay error.
        error: String,
    },
    /// Two runs that must agree byte-for-byte produced different [`CgStats`].
    StatsDivergence {
        /// Which pair diverged (`live-vs-replay`, `sharded-4`, ...).
        context: String,
    },
    /// Two runs that must agree produced different [`ObjectBreakdown`]s.
    BreakdownDivergence {
        /// Which pair diverged.
        context: String,
    },
    /// Merging the `n` shard streams by sequence number did not reproduce
    /// the trace.
    RoundTrip {
        /// The shard count that broke the round trip.
        shards: usize,
    },
    /// A cached and an uncached execution of the same program diverged
    /// (event stream or execution statistics): the inline-cache rewrite
    /// changed observable behaviour.
    FusionDivergence {
        /// Which comparison diverged.
        context: String,
    },
    /// The mark-sweep ground truth itself misbehaved (kept garbage or freed
    /// reachable objects on a precise collection).
    Baseline {
        /// What went wrong.
        detail: String,
    },
}

impl CheckFailure {
    /// A coarse failure class, used by the shrinker to keep a minimised
    /// program failing the same way.
    pub fn class(&self) -> &'static str {
        match self {
            CheckFailure::InvalidProgram { .. } => "invalid-program",
            CheckFailure::CollectorRun { .. }
            | CheckFailure::Panic { .. }
            | CheckFailure::Soundness { .. } => "soundness",
            CheckFailure::Replay { .. } => "replay",
            CheckFailure::StatsDivergence { .. } | CheckFailure::BreakdownDivergence { .. } => {
                "divergence"
            }
            CheckFailure::RoundTrip { .. } => "round-trip",
            CheckFailure::FusionDivergence { .. } => "fusion",
            CheckFailure::Baseline { .. } => "baseline",
        }
    }
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckFailure::InvalidProgram { error } => {
                write!(f, "generator bug: baseline run failed: {error}")
            }
            CheckFailure::CollectorRun { context, error } => {
                write!(f, "[{context}] run failed: {error}")
            }
            CheckFailure::Panic { context, message } => {
                write!(f, "[{context}] panicked: {message}")
            }
            CheckFailure::Soundness { context, handle } => {
                write!(
                    f,
                    "[{context}] soundness violation: reachable object h{handle} was freed"
                )
            }
            CheckFailure::Replay { context, error } => {
                write!(f, "[{context}] replay diverged: {error}")
            }
            CheckFailure::StatsDivergence { context } => {
                write!(f, "[{context}] CgStats are not byte-identical")
            }
            CheckFailure::BreakdownDivergence { context } => {
                write!(f, "[{context}] ObjectBreakdown diverged")
            }
            CheckFailure::RoundTrip { shards } => {
                write!(
                    f,
                    "partitioning into {shards} shards and merging back did not reproduce the trace"
                )
            }
            CheckFailure::FusionDivergence { context } => {
                write!(f, "[{context}] fused and unfused executions diverged")
            }
            CheckFailure::Baseline { detail } => write!(f, "mark-sweep ground truth: {detail}"),
        }
    }
}

impl std::error::Error for CheckFailure {}

/// What a passing oracle run measured (the fuzz driver's throughput report).
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleReport {
    /// Events in the recorded trace.
    pub trace_events: usize,
    /// Instructions the baseline run executed.
    pub instructions: u64,
    /// Objects the program created.
    pub objects_created: u64,
    /// Threads the program spawned.
    pub threads_spawned: u64,
}

/// Extracts a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into a [`CheckFailure::Panic`].
fn guard<T>(context: &str, f: impl FnOnce() -> Result<T, CheckFailure>) -> Result<T, CheckFailure> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(CheckFailure::Panic {
            context: context.to_string(),
            message: panic_message(payload),
        }),
    }
}

/// The boxed panic-hook type `std::panic::take_hook` hands back.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// Silences the default panic hook for the guard's lifetime, restoring the
/// previous hook on drop.  Caught collector panics are *expected* while
/// shrinking a fault-injected counterexample; without this every candidate
/// spams a backtrace.
pub struct QuietPanics {
    prev: Option<PanicHook>,
}

impl QuietPanics {
    /// Installs a no-op panic hook.
    pub fn install() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        Self { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        // `set_hook` panics when called from a panicking thread; restoring
        // during an unwind would turn any test failure into an abort.
        if std::thread::panicking() {
            return;
        }
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Runs a live VM under `collector`, returning the finished VM.
fn run_live<C: Collector>(
    context: &str,
    program: &Program,
    config: VmConfig,
    collector: C,
) -> Result<Vm<C>, CheckFailure> {
    guard(context, || {
        let mut vm = Vm::new(program.clone(), config, collector);
        vm.run().map_err(|e| CheckFailure::CollectorRun {
            context: context.to_string(),
            error: e.to_string(),
        })?;
        Ok(vm)
    })
}

/// Asserts every precisely-reachable handle is live in `heap`.
fn check_sound(context: &str, reachable: &[bool], heap: &Heap) -> Result<(), CheckFailure> {
    for (index, &is_reachable) in reachable.iter().enumerate() {
        if is_reachable && !heap.is_live(cg_heap::Handle::from_index(index as u32)) {
            return Err(CheckFailure::Soundness {
                context: context.to_string(),
                handle: index,
            });
        }
    }
    Ok(())
}

/// Checks one program against the full differential oracle.
///
/// # Errors
///
/// Returns the first [`CheckFailure`] found; a passing program yields an
/// [`OracleReport`].
pub fn check_program(
    program: &Program,
    options: &OracleOptions,
) -> Result<OracleReport, CheckFailure> {
    let vm_config = fuzz_vm_config(options.forced_gc);
    let cg = CgConfig {
        verify_tainted: false,
        ..options.cg
    };

    // 1. Ground truth: a collector-free recording run, as `.cgt` bytes.
    let record = |config: VmConfig| {
        let meta = TraceMeta {
            name: program.name().to_string(),
            ..TraceMeta::default()
        };
        record_streaming(
            &meta,
            program.clone(),
            config,
            NoopCollector::new(),
            Vec::new(),
        )
    };
    let (baseline_outcome, _, baseline_vm, bytes) =
        record(vm_config).map_err(|e| CheckFailure::InvalidProgram {
            error: e.to_string(),
        })?;
    let trace = decode(&bytes).map_err(|error| CheckFailure::Replay {
        context: "decode".to_string(),
        error,
    })?;
    let baseline_roots = baseline_vm.build_roots();
    let reachable = trace_live(&baseline_roots, baseline_vm.heap());
    let reachable_count = reachable.iter().filter(|&&m| m).count();

    // 1b. Inline-cache differential: re-record with the pass flipped from
    // the process default (`CG_VM_FUSION`).  The execution statistics and
    // the recording's bytes must be identical — caching may only change
    // *speed*.
    {
        let context = if vm_config.fusion {
            "fusion-off"
        } else {
            "fusion-on"
        };
        let (flipped_outcome, _, _, flipped_bytes) = guard(context, || {
            record(vm_config.with_fusion(!vm_config.fusion)).map_err(|e| {
                CheckFailure::CollectorRun {
                    context: context.to_string(),
                    error: e.to_string(),
                }
            })
        })?;
        if flipped_outcome.stats != baseline_outcome.stats {
            return Err(CheckFailure::FusionDivergence {
                context: format!("{context}: vm stats"),
            });
        }
        if flipped_bytes != bytes {
            return Err(CheckFailure::FusionDivergence {
                context: format!("{context}: recorded bytes"),
            });
        }
    }

    // The mark-sweep oracle's own check: one precise collection over the
    // final heap keeps exactly the reachable set.
    {
        let mut heap = baseline_vm.heap().clone();
        let mut msa = MarkSweep::default();
        msa.collect(&baseline_roots, &mut heap);
        if heap.live_count() != reachable_count {
            return Err(CheckFailure::Baseline {
                detail: format!(
                    "precise collection kept {} objects, {} are reachable",
                    heap.live_count(),
                    reachable_count
                ),
            });
        }
        check_sound("msa-precise", &reachable, &heap)?;
    }

    // A live mark-sweep run under collection pressure must finish and keep
    // every reachable object.  Handle assignment is collector-independent
    // for non-recycling collectors (frees never affect handle minting), so
    // the baseline's precise reachable set indexes this heap too — and it
    // *must* come from the baseline: a traversal of the tested collector's
    // own heap would silently skip exactly the freed-but-reachable objects
    // it is supposed to find.
    {
        let mut msa_config = vm_config;
        msa_config.gc_every_instructions = Some(options.forced_gc.unwrap_or(1024));
        let vm = run_live("msa-live", program, msa_config, MarkSweep::default())?;
        check_sound("msa-live", &reachable, vm.heap())?;
    }

    // 2. Soundness + 3. trace fidelity for the contaminated collector.
    let mut cg_vm = run_live(
        "cg-live",
        program,
        vm_config,
        ContaminatedGc::with_config(cg),
    )?;
    check_sound("cg-live", &reachable, cg_vm.heap())?;
    let live_stats = cg_vm.collector().stats().clone();
    let live_breakdown = cg_vm.collector_mut().breakdown();
    if live_breakdown.total() != live_stats.objects_created {
        return Err(CheckFailure::BreakdownDivergence {
            context: format!(
                "cg-live accounting: breakdown total {} != created {}",
                live_breakdown.total(),
                live_stats.objects_created
            ),
        });
    }
    // Conservatism: the collector may keep extra objects, never fewer than
    // the precisely reachable ones.
    let kept = live_stats.objects_created - live_stats.objects_collected;
    if (kept as usize) < reachable_count {
        return Err(CheckFailure::Soundness {
            context: format!("cg-live kept {kept} < reachable {reachable_count}"),
            handle: 0,
        });
    }

    let replayed = guard("cg-replay", || {
        replay_events_governed(
            trace.iter().map(Ok),
            vm_config.heap,
            ContaminatedGc::with_config(cg),
            &Governor::unlimited(),
        )
        .map_err(|e| match e {
            // Replay validates that every event names a live object, so a
            // collector that frees early is caught at the first event still
            // referencing the victim — the same defect `check_sound` reports,
            // classed accordingly so shrinking preserves the failure mode.
            cg_trace::EvalError::Replay(cg_trace::ReplayError::Heap(
                cg_heap::HeapError::DeadHandle(handle),
            )) => CheckFailure::CollectorRun {
                context: "cg-replay".to_string(),
                error: format!("replayed event references freed object {handle}"),
            },
            e => CheckFailure::Replay {
                context: "cg-replay".to_string(),
                error: e.to_string(),
            },
        })
    })?;
    check_sound("cg-replay", &reachable, &replayed.heap)?;
    guard("cg-incremental", || {
        check_incremental(&trace, vm_config.heap, cg)
    })?;
    let mut replay_collector = replayed.collector;
    let replay_breakdown = replay_collector.breakdown();
    check_equal(
        "live-vs-replay",
        &live_stats,
        &live_breakdown,
        replay_collector.stats(),
        &replay_breakdown,
    )?;

    // 4. Shard invariance, live and parallel; 5. partition fidelity.
    for &shards in &options.shards {
        let streams = partition(&trace, shards);
        if merge(&streams).as_deref() != Some(&trace[..]) {
            return Err(CheckFailure::RoundTrip { shards });
        }
        let sources = || streams.iter().map(Vec::as_slice);

        let mut sharded_vm = run_live(
            &format!("sharded-{shards}-live"),
            program,
            vm_config,
            ShardedGc::new(shards, cg),
        )?;
        check_sound(
            &format!("sharded-{shards}-live"),
            &reachable,
            sharded_vm.heap(),
        )?;
        let sharded_stats = sharded_vm.collector().stats();
        let sharded_breakdown = sharded_vm.collector_mut().breakdown();
        check_equal(
            &format!("live-vs-sharded-{shards}"),
            &live_stats,
            &live_breakdown,
            &sharded_stats,
            &sharded_breakdown,
        )?;

        let parallel = guard(&format!("parallel-{shards}"), || {
            parallel_eval_governed(sources(), vm_config.heap, cg, &Governor::unlimited()).map_err(
                |e| CheckFailure::Replay {
                    context: format!("parallel-{shards}"),
                    error: e.to_string(),
                },
            )
        })?;
        check_equal(
            &format!("replay-vs-parallel-{shards}"),
            &live_stats,
            &live_breakdown,
            &parallel.stats,
            &parallel.breakdown,
        )?;

        // Differential leg for the static domain: the same parallel
        // evaluation under the *other* `DomainImpl` must produce the same
        // bytes.  With the lock-free domain as the subject this fuzzes the
        // atomic union-find against the mutex reference model on real
        // threads; with `--domain mutex` the roles swap.
        let other = match cg.domain_impl {
            DomainImpl::Atomic => DomainImpl::Mutex,
            DomainImpl::Mutex => DomainImpl::Atomic,
        };
        let cross = CgConfig {
            domain_impl: other,
            ..cg
        };
        let context = format!("parallel-{shards}-{other:?}-domain");
        let parallel_other = guard(&context, || {
            parallel_eval_governed(sources(), vm_config.heap, cross, &Governor::unlimited())
                .map_err(|e| CheckFailure::Replay {
                    context: context.clone(),
                    error: e.to_string(),
                })
        })?;
        check_equal(
            &format!("parallel-{shards}-domains"),
            &parallel.stats,
            &parallel.breakdown,
            &parallel_other.stats,
            &parallel_other.breakdown,
        )?;
    }

    // The recycling configuration.  Handle reuse invalidates the baseline's
    // handle indexing, so its soundness check is the §3.1.4 runtime verifier
    // plus run completion: touching a recycled-away-but-reachable object
    // panics or heap-errors.  A recycling recording replays exactly only
    // under the same recycling collector, so the passive recording above
    // cannot check its fidelity: its own live run is recorded instead, and
    // the replay of that recording must reproduce the live statistics.
    if options.check_recycling {
        let recycle = CgConfig {
            verify_tainted: true,
            fault: cg.fault,
            ..CgConfig::with_recycling()
        };
        let meta = TraceMeta {
            name: program.name().to_string(),
            ..TraceMeta::default()
        };
        let (_, _, mut live_vm, bytes) = guard("cg+recycle", || {
            let collector = ContaminatedGc::with_config(recycle);
            record_streaming(&meta, program.clone(), vm_config, collector, Vec::new()).map_err(
                |e| match e {
                    RecordError::Vm(e) => CheckFailure::CollectorRun {
                        context: "cg+recycle".to_string(),
                        error: e.to_string(),
                    },
                    RecordError::Trace(e) => CheckFailure::Replay {
                        context: "cg+recycle-record".to_string(),
                        error: e.to_string(),
                    },
                },
            )
        })?;
        let events = decode(&bytes).map_err(|error| CheckFailure::Replay {
            context: "cg+recycle-decode".to_string(),
            error,
        })?;
        let replayed = guard("cg+recycle-replay", || {
            let collector = ContaminatedGc::with_config(recycle);
            replay_events_governed(
                events.iter().map(Ok),
                vm_config.heap,
                collector,
                &Governor::unlimited(),
            )
            .map_err(|e| CheckFailure::Replay {
                context: "cg+recycle-replay".to_string(),
                error: e.to_string(),
            })
        })?;
        let live_breakdown = live_vm.collector_mut().breakdown();
        let mut replay_collector = replayed.collector;
        let replay_breakdown = replay_collector.breakdown();
        check_equal(
            "cg+recycle-live-vs-replay",
            live_vm.collector().stats(),
            &live_breakdown,
            replay_collector.stats(),
            &replay_breakdown,
        )?;
    }

    Ok(OracleReport {
        trace_events: trace.len(),
        instructions: baseline_outcome.stats.instructions,
        objects_created: live_stats.objects_created,
        threads_spawned: baseline_outcome.stats.threads_spawned,
    })
}

/// The incremental soundness check: drives the collector event-by-event
/// alongside a *free-nothing* shadow heap, and at every root-set snapshot in
/// the stream (`Collect` barriers, `ProgramEnd`) asserts that everything
/// precisely reachable from the recorded roots is still live in the
/// collector's heap.
///
/// This is strictly stronger than the end-state check: at a mid-run barrier
/// the snapshot still contains every live frame's locals, so an object freed
/// while a frame could still reach it is caught immediately — end-state
/// checks only see what statics and interpreter references keep alive.
fn check_incremental(
    trace: &[GcEvent],
    heap_config: HeapConfig,
    cg: CgConfig,
) -> Result<(), CheckFailure> {
    let mut collector = ContaminatedGc::with_config(cg);
    // The collector's heap (it frees into this one)...
    let mut heap = Heap::new(heap_config);
    // ...and the precise shadow: same allocations and writes, no frees.
    let mut shadow = Heap::new(heap_config);

    for (index, event) in trace.iter().enumerate() {
        match event {
            GcEvent::Allocate {
                handle,
                class,
                kind,
                frame,
                recycled,
            } => {
                if *recycled {
                    return Err(CheckFailure::Replay {
                        context: "cg-incremental".to_string(),
                        error: "recycled allocation in a non-recycling trace".to_string(),
                    });
                }
                let minted = match kind {
                    cg_vm::AllocKind::Instance { field_count } => {
                        shadow.allocate(*class, *field_count).ok();
                        heap.allocate(*class, *field_count)
                    }
                    cg_vm::AllocKind::Array { length } => {
                        shadow.allocate_array(*class, *length).ok();
                        heap.allocate_array(*class, *length)
                    }
                };
                match minted {
                    Ok(minted) if minted == *handle => {}
                    other => {
                        return Err(CheckFailure::Replay {
                            context: "cg-incremental".to_string(),
                            error: format!("allocation diverged at event {index}: {other:?}"),
                        })
                    }
                }
                collector.on_allocate(*handle, frame, &heap);
            }
            GcEvent::SlotWrite {
                object,
                slot,
                value,
                element,
            } => {
                let value = cg_heap::Value::from(*value);
                let (a, b) = if *element {
                    (
                        shadow.set_element(*object, *slot, value),
                        heap.set_element(*object, *slot, value),
                    )
                } else {
                    (
                        shadow.set_field(*object, *slot, value),
                        heap.set_field(*object, *slot, value),
                    )
                };
                if a.is_err() || b.is_err() {
                    return Err(CheckFailure::Replay {
                        context: "cg-incremental".to_string(),
                        error: format!("slot write failed at event {index}"),
                    });
                }
            }
            GcEvent::ObjectAccess { handle, thread } => {
                collector.on_object_access(*handle, *thread, &heap);
            }
            GcEvent::ReferenceStore {
                source,
                target,
                frame,
            } => collector.on_reference_store(*source, *target, frame, &heap),
            GcEvent::StaticStore { target } => collector.on_static_store(*target, &heap),
            GcEvent::ReturnValue {
                value,
                caller,
                callee,
            } => collector.on_return_value(*value, caller, callee),
            GcEvent::FramePush { frame } => collector.on_frame_push(frame),
            GcEvent::FramePop { frame } => {
                let _ = collector.on_frame_pop(frame, &mut heap);
            }
            GcEvent::Collect { roots } | GcEvent::ProgramEnd { roots } => {
                if matches!(event, GcEvent::Collect { .. }) {
                    let _ = collector.collect(roots, &mut heap);
                } else {
                    collector.on_program_end(roots, &mut heap);
                }
                let reachable = trace_live(roots, &shadow);
                for (h, &is_reachable) in reachable.iter().enumerate() {
                    if is_reachable && !heap.is_live(cg_heap::Handle::from_index(h as u32)) {
                        return Err(CheckFailure::Soundness {
                            context: format!("cg-incremental event {index}"),
                            handle: h,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Byte-identical comparison of two (stats, breakdown) pairs.
fn check_equal(
    context: &str,
    stats_a: &CgStats,
    breakdown_a: &ObjectBreakdown,
    stats_b: &CgStats,
    breakdown_b: &ObjectBreakdown,
) -> Result<(), CheckFailure> {
    if stats_a != stats_b {
        return Err(CheckFailure::StatsDivergence {
            context: context.to_string(),
        });
    }
    if breakdown_a != breakdown_b {
        return Err(CheckFailure::BreakdownDivergence {
            context: context.to_string(),
        });
    }
    Ok(())
}

/// Decodes a whole in-memory `.cgt` stream into its events.
fn decode(bytes: &[u8]) -> Result<Vec<GcEvent>, String> {
    TraceReader::new(bytes)
        .and_then(|mut reader| reader.events().collect())
        .map_err(|e| e.to_string())
}

/// `events` partitioned into `shards` in-memory `.cgt` shard streams.
fn partition(events: &[GcEvent], shards: usize) -> Vec<Vec<u8>> {
    let sinks = vec![Vec::new(); shards];
    partition_streaming(events.iter().cloned().map(Ok), &TraceMeta::default(), sinks)
        .expect("an in-memory partition always encodes")
        .0
}

/// Decodes shard streams and puts every event back at its sequence number:
/// `None` unless every stream decodes and the sequence numbers are exactly
/// `0..n`, each once.
fn merge(shards: &[Vec<u8>]) -> Option<Vec<GcEvent>> {
    let mut events = Vec::new();
    for bytes in shards {
        let mut reader = TraceReader::new(&bytes[..]).ok()?;
        for ev in reader.shard_events() {
            events.push(ev.ok()?);
        }
    }
    events.sort_by_key(|ev| ev.seq);
    let in_order = events.iter().enumerate().all(|(i, ev)| ev.seq == i as u64);
    in_order.then(|| events.into_iter().map(|ev| ev.event).collect())
}

/// Convenience: checks a trace's partition fidelity alone — every shard
/// count's streams merge back to exactly `trace` (used by the property
/// tests over generated traces).
pub fn check_round_trip(trace: &[GcEvent], shards: &[usize]) -> Result<(), CheckFailure> {
    for &n in shards {
        if merge(&partition(trace, n)).as_deref() != Some(trace) {
            return Err(CheckFailure::RoundTrip { shards: n });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenProfile};
    use cg_core::FaultInjection;

    #[test]
    fn clean_collector_passes_every_profile() {
        let options = OracleOptions::default();
        for profile in GenProfile::all() {
            for seed in 0..6u64 {
                let program = generate(seed, profile);
                if let Err(failure) = check_program(&program, &options) {
                    panic!("{}/{seed}: {failure}", profile.name);
                }
            }
        }
    }

    #[test]
    fn forced_gc_barriers_pass_too() {
        let options = OracleOptions {
            forced_gc: Some(512),
            ..OracleOptions::default()
        };
        for profile in GenProfile::all() {
            let program = generate(7, profile);
            if let Err(failure) = check_program(&program, &options) {
                panic!("{}: {failure}", profile.name);
            }
        }
    }

    #[test]
    fn fault_injection_is_caught() {
        // The oracle self-test: a collector with its contamination rule
        // ripped out must fail, and fail as a *soundness* violation.
        let _quiet = QuietPanics::install();
        let options = OracleOptions::with_fault(FaultInjection::SkipContamination);
        let mut caught = 0;
        let mut soundness = 0;
        let mut checked = 0;
        for profile in GenProfile::all() {
            for seed in 0..8u64 {
                let program = generate(seed, profile);
                checked += 1;
                if let Err(failure) = check_program(&program, &options) {
                    // Most counterexamples surface as soundness violations;
                    // the sharded paths can also catch the fault as a
                    // divergence (the sequential router escalates operands
                    // before the faulted store).
                    caught += 1;
                    if failure.class() == "soundness" {
                        soundness += 1;
                    }
                }
            }
        }
        // Not every generated program gives the missing contamination a
        // chance to matter (for many, skipping the merge over-collects only
        // objects that were about to die anyway); the gate is that a solid
        // fraction of programs catches the defect — deterministically, since
        // generation is seeded.
        assert!(
            6 * caught >= checked,
            "only {caught}/{checked} fault-injected runs failed: the oracle is too weak"
        );
        assert!(
            soundness > 0,
            "no fault-injected run failed as a soundness violation"
        );
    }
}
