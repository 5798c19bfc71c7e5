//! Running one workload under one collector configuration — *live*
//! ([`run_once`]: interpret the program) or by *replaying* an in-memory
//! recorded event trace ([`record_workload_trace`] + [`replay_run`], with
//! [`TraceCache`] sharing one recording across collectors).

use std::collections::HashMap;
use std::rc::Rc;

use cg_baseline::{MarkSweep, MarkSweepStats, NoopCollector};
use cg_core::{CgConfig, CgStats, HybridCollector, HybridConfig, ObjectBreakdown};
use cg_heap::{HeapConfig, HeapStats};
use cg_trace::{record, replay_governed, EvalError, Governor, ReplayOutcome, Trace};
use cg_vm::{Vm, VmConfig, VmError, VmStats};
use cg_workloads::{Profile, Size, Workload};

/// Which collector configuration to run a workload under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectorChoice {
    /// No collection at all (overhead-isolation runs of §4.5).
    Noop,
    /// The traditional mark-sweep collector alone (the "JDK" baseline).
    Baseline,
    /// Contaminated GC with the §3.4 static optimisation (the preferred
    /// configuration), backed by mark-sweep for allocation failures.
    Cg,
    /// Contaminated GC without the §3.4 optimisation (the "no opt" column of
    /// Figure 4.1).
    CgNoOpt,
    /// Contaminated GC with §3.7 recycling enabled.
    CgRecycle,
    /// Contaminated GC + mark-sweep with structure resetting (§3.6), run
    /// with a periodic forced collection as in §4.7.
    CgReset,
}

impl CollectorChoice {
    /// Every choice, in display order.
    pub const ALL: [CollectorChoice; 6] = [
        CollectorChoice::Noop,
        CollectorChoice::Baseline,
        CollectorChoice::Cg,
        CollectorChoice::CgNoOpt,
        CollectorChoice::CgRecycle,
        CollectorChoice::CgReset,
    ];

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            CollectorChoice::Noop => "noop",
            CollectorChoice::Baseline => "jdk-msa",
            CollectorChoice::Cg => "cg",
            CollectorChoice::CgNoOpt => "cg-noopt",
            CollectorChoice::CgRecycle => "cg-recycle",
            CollectorChoice::CgReset => "cg-reset",
        }
    }

    /// Parses a [`CollectorChoice::label`] back into the choice.
    pub fn parse(label: &str) -> Option<CollectorChoice> {
        Self::ALL.into_iter().find(|c| c.label() == label)
    }

    /// Whether the choice can be evaluated by trace replay.
    ///
    /// Recycling reuses handles, which makes the allocation stream
    /// collector-dependent; it must run live (see the `cg-trace` docs).
    pub fn supports_replay(self) -> bool {
        self != CollectorChoice::CgRecycle
    }

    /// The periodic forced-collection interval the experiment configuration
    /// uses for this choice, if any.
    pub fn gc_every(self) -> Option<u64> {
        // §4.7 forces a traditional collection every 100 000 JVM
        // instructions; our synthetic workloads are scaled down roughly 4×,
        // so the interval is scaled the same way.
        (self == CollectorChoice::CgReset).then_some(25_000)
    }
}

/// Contaminated-GC measurements extracted from a run, when the run used CG.
#[derive(Debug, Clone)]
pub struct CgSummary {
    /// The collector's raw statistics.
    pub stats: CgStats,
    /// Final object disposition (popped / static / thread-shared).
    pub breakdown: ObjectBreakdown,
}

/// The uniform result of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub workload: &'static str,
    /// Problem size.
    pub size: Size,
    /// Collector configuration.
    pub collector: CollectorChoice,
    /// Wall-clock seconds inside `Vm::run`.
    pub elapsed_seconds: f64,
    /// Interpreter statistics.
    pub vm: VmStats,
    /// Heap statistics.
    pub heap: HeapStats,
    /// Objects still live when the program ended.
    pub live_at_exit: usize,
    /// CG measurements (None for the baseline and no-op runs).
    pub cg: Option<CgSummary>,
    /// Mark-sweep statistics (the baseline's own, or the hybrid's backstop).
    pub msa: Option<MarkSweepStats>,
}

impl RunResult {
    /// Objects the program allocated (instances + arrays).
    pub fn objects_created(&self) -> u64 {
        self.vm.objects_allocated + self.vm.arrays_allocated
    }

    /// Percentage of created objects CG collected (0 for non-CG runs).
    pub fn collectable_percent(&self) -> f64 {
        self.cg
            .as_ref()
            .map(|c| c.stats.collectable_percent())
            .unwrap_or(0.0)
    }
}

/// The heap sizing used by every experiment run: a 12 MiB object space, so
/// that the small problem sizes fit comfortably (the baseline hardly ever
/// collects, as in the paper's small runs) while the large problem sizes
/// overflow it many times over and retain sizable live structures (so the
/// baseline's repeated marking cost shows up, as in the paper's large runs).
/// The large javac/jack runs keep roughly half a million objects live at
/// once; the 64 MiB handle table gives them room so the experiments measure
/// object-space behaviour rather than handle-table exhaustion.
///
/// This is the same configuration golden-corpus `.cgt` recordings embed —
/// one definition, shared through `cg-trace`, so the bench harness and the
/// committed traces can never drift apart.
pub fn experiment_heap() -> HeapConfig {
    cg_trace::footer::canonical_heap()
}

/// The `javac`-style thread-heavy profile the sharding benches evaluate: a
/// large shared batch handed to a loader thread (over half the small run's
/// objects go thread-shared, Appendix A.2) plus per-method compile
/// temporaries, over 8 VM threads so 4 and 8 shards all have work.
pub fn javac_style() -> Profile {
    Profile {
        name: "javac_style".to_string(),
        description: "javac-style: shared AST batch + compile temporaries over 8 threads"
            .to_string(),
        static_setup: 1_000,
        interned: 32,
        iterations: 12_000,
        leaf_temps: 3,
        chained_temps: 4,
        static_touching_temps: 2,
        returned_temps: 1,
        escape_depth: 1,
        leaked_per_iteration: 0,
        compute_per_iteration: 8,
        shared_objects: 2_000,
        worker_threads: 7,
    }
}

/// The `mtrt`-style profile the sharding benches evaluate: thread-private
/// rendering temporaries, dominated by singleton and small chained blocks,
/// over a shared static scene, with 7 rendering threads (the paper's mtrt
/// runs two; the thread count is scaled so 8 shards have work).
pub fn mtrt_style(iterations: u64) -> Profile {
    Profile {
        name: "mtrt_style".to_string(),
        description: "mtrt-style: private ray temporaries over a shared scene, 8 threads"
            .to_string(),
        static_setup: 600,
        interned: 8,
        iterations,
        leaf_temps: 5,
        chained_temps: 3,
        static_touching_temps: 1,
        returned_temps: 2,
        escape_depth: 2,
        leaked_per_iteration: 0,
        compute_per_iteration: 6,
        shared_objects: 200,
        worker_threads: 7,
    }
}

/// The VM configuration used by experiment runs.
pub fn experiment_vm_config(choice: CollectorChoice) -> VmConfig {
    let mut config = VmConfig::default().with_heap(experiment_heap());
    if let Some(every) = choice.gc_every() {
        config = config.with_gc_every(every);
    }
    config
}

/// Runs `workload` at `size` under the chosen collector and returns the
/// uniform result.
///
/// # Errors
///
/// Returns the underlying [`VmError`] if the run fails (out of memory with a
/// non-collecting configuration, for example).
pub fn run_once(
    workload: Workload,
    size: Size,
    choice: CollectorChoice,
) -> Result<RunResult, VmError> {
    let program = workload.program(size);
    let config = experiment_vm_config(choice);

    let base = RunResult {
        workload: workload.name(),
        size,
        collector: choice,
        elapsed_seconds: 0.0,
        vm: VmStats::default(),
        heap: HeapStats::default(),
        live_at_exit: 0,
        cg: None,
        msa: None,
    };

    match choice {
        CollectorChoice::Noop => {
            let mut vm = Vm::new(program, config, NoopCollector::new());
            let outcome = vm.run()?;
            Ok(RunResult {
                elapsed_seconds: outcome.elapsed_seconds,
                vm: outcome.stats,
                heap: outcome.heap,
                live_at_exit: outcome.live_at_exit,
                ..base
            })
        }
        CollectorChoice::Baseline => {
            let mut vm = Vm::new(program, config, MarkSweep::new());
            let outcome = vm.run()?;
            let msa = *vm.collector().stats();
            Ok(RunResult {
                elapsed_seconds: outcome.elapsed_seconds,
                vm: outcome.stats,
                heap: outcome.heap,
                live_at_exit: outcome.live_at_exit,
                msa: Some(msa),
                ..base
            })
        }
        CollectorChoice::Cg
        | CollectorChoice::CgNoOpt
        | CollectorChoice::CgRecycle
        | CollectorChoice::CgReset => {
            let mut vm = Vm::new(program, config, hybrid_for(choice));
            let outcome = vm.run()?;
            let breakdown = vm.collector_mut().cg_mut().breakdown();
            let stats = vm.collector().cg().stats().clone();
            let msa = *vm.collector().msa_stats();
            Ok(RunResult {
                elapsed_seconds: outcome.elapsed_seconds,
                vm: outcome.stats,
                heap: outcome.heap,
                live_at_exit: outcome.live_at_exit,
                cg: Some(CgSummary { stats, breakdown }),
                msa: Some(msa),
                ..base
            })
        }
    }
}

/// The hybrid collector configuration a [`CollectorChoice`] maps to.
fn hybrid_for(choice: CollectorChoice) -> HybridCollector {
    let cg_config = match choice {
        CollectorChoice::CgNoOpt => CgConfig::without_static_opt(),
        CollectorChoice::CgRecycle => CgConfig::with_recycling(),
        _ => CgConfig::preferred(),
    };
    HybridCollector::new(HybridConfig {
        cg: CgConfig {
            // The verification pass is for tests; experiment runs measure
            // time, so it stays off.
            verify_tainted: false,
            ..cg_config
        },
        reset_on_collect: choice == CollectorChoice::CgReset,
    })
}

/// A workload's event stream recorded once, ready to be replayed against any
/// collector (the trace-driven runner mode).
#[derive(Debug, Clone)]
pub struct WorkloadTrace {
    /// Benchmark name.
    pub workload: &'static str,
    /// Problem size.
    pub size: Size,
    /// The recorded stream (captured under a passive collector).
    pub trace: Trace,
    /// The recording run's interpreter statistics (instruction counts and
    /// allocation totals are properties of the workload, not the collector).
    pub vm: VmStats,
    /// The heap configuration the recording ran with; replays use the same.
    pub heap: HeapConfig,
    /// The periodic forced-collection interval the recording ran with.  A
    /// trace is only valid for collector choices expecting the same interval
    /// (the `Collect` events are baked into the stream).
    pub gc_every: Option<u64>,
}

/// Records `workload` at `size` once, under a passive collector, with the
/// experiment heap.  `gc_every` adds the periodic §4.7 collection events
/// (required to replay [`CollectorChoice::CgReset`]).
///
/// # Errors
///
/// Returns the underlying [`VmError`] if the recording run fails.
pub fn record_workload_trace(
    workload: Workload,
    size: Size,
    gc_every: Option<u64>,
) -> Result<WorkloadTrace, VmError> {
    let mut config = VmConfig::default().with_heap(experiment_heap());
    if let Some(every) = gc_every {
        config = config.with_gc_every(every);
    }
    let name = format!("{}/{size}", workload.name());
    let (trace, outcome, _) = record(name, workload.program(size), config, NoopCollector::new())?;
    Ok(WorkloadTrace {
        workload: workload.name(),
        size,
        trace,
        vm: outcome.stats,
        heap: config.heap,
        gc_every,
    })
}

/// Replays a recorded workload against the chosen collector and returns the
/// same uniform [`RunResult`] a live run would (interpreter statistics come
/// from the recording; collector statistics and timing from the replay).
///
/// # Errors
///
/// Returns [`EvalError::Replay`] if the collector diverges from the
/// recorded heap history.
///
/// # Panics
///
/// Panics on choices where [`CollectorChoice::supports_replay`] is false,
/// and when the trace's recorded periodic-collection interval does not match
/// the one the choice's experiment configuration uses.
pub fn replay_run(
    recorded: &WorkloadTrace,
    choice: CollectorChoice,
) -> Result<RunResult, EvalError> {
    assert!(
        choice.supports_replay(),
        "{} cannot be evaluated by replay; run it live",
        choice.label()
    );
    // Replaying a trace whose periodic-collection interval differs from the
    // choice's experiment configuration would silently produce statistics no
    // live run could (e.g. a CgReset evaluation with zero resets).
    assert_eq!(
        recorded.gc_every,
        choice.gc_every(),
        "trace for {}/{} was recorded with gc_every={:?}, but {} expects {:?}; \
         record with the matching interval (see record_workload_trace)",
        recorded.workload,
        recorded.size,
        recorded.gc_every,
        choice.label(),
        choice.gc_every(),
    );
    // The recording ran under a passive collector, so its VmStats carry
    // zeros in the collector-accounting fields; overwrite them with what
    // the replayed collector actually did, the way a live run would report.
    let vm_with = |outcome: &ReplayOutcome| {
        let mut vm = recorded.vm;
        vm.gc_cycles = outcome.gc_cycles;
        vm.collector_freed_objects = outcome.collector_freed_objects;
        vm.collector_freed_bytes = outcome.collector_freed_bytes;
        vm.collector_marked_objects = outcome.collector_marked_objects;
        vm
    };
    let unlimited = &Governor::unlimited();
    let base = RunResult {
        workload: recorded.workload,
        size: recorded.size,
        collector: choice,
        elapsed_seconds: 0.0,
        vm: recorded.vm,
        heap: HeapStats::default(),
        live_at_exit: 0,
        cg: None,
        msa: None,
    };
    match choice {
        CollectorChoice::Noop => {
            let replayed = replay_governed(
                &recorded.trace,
                recorded.heap,
                NoopCollector::new(),
                unlimited,
            )?;
            Ok(RunResult {
                elapsed_seconds: replayed.outcome.elapsed_seconds,
                vm: vm_with(&replayed.outcome),
                heap: *replayed.heap.stats(),
                live_at_exit: replayed.outcome.live_at_exit,
                ..base
            })
        }
        CollectorChoice::Baseline => {
            let replayed =
                replay_governed(&recorded.trace, recorded.heap, MarkSweep::new(), unlimited)?;
            Ok(RunResult {
                elapsed_seconds: replayed.outcome.elapsed_seconds,
                vm: vm_with(&replayed.outcome),
                heap: *replayed.heap.stats(),
                live_at_exit: replayed.outcome.live_at_exit,
                msa: Some(*replayed.collector.stats()),
                ..base
            })
        }
        _ => {
            let replayed = replay_governed(
                &recorded.trace,
                recorded.heap,
                hybrid_for(choice),
                unlimited,
            )?;
            let mut collector = replayed.collector;
            let breakdown = collector.cg_mut().breakdown();
            Ok(RunResult {
                elapsed_seconds: replayed.outcome.elapsed_seconds,
                vm: vm_with(&replayed.outcome),
                heap: *replayed.heap.stats(),
                live_at_exit: replayed.outcome.live_at_exit,
                cg: Some(CgSummary {
                    stats: collector.cg().stats().clone(),
                    breakdown,
                }),
                msa: Some(*collector.msa_stats()),
                ..base
            })
        }
    }
}

/// Caches recorded workload traces keyed by `(workload, size, gc_every)`, so
/// a batch evaluation (many collectors × one workload) interprets each
/// workload once.
#[derive(Debug, Default)]
pub struct TraceCache {
    traces: HashMap<(&'static str, Size, Option<u64>), Rc<WorkloadTrace>>,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded trace for the workload the given choice needs,
    /// recording it on first use.
    ///
    /// # Errors
    ///
    /// Returns the recording run's [`VmError`] on failure.
    pub fn for_choice(
        &mut self,
        workload: Workload,
        size: Size,
        choice: CollectorChoice,
    ) -> Result<Rc<WorkloadTrace>, VmError> {
        let gc_every = choice.gc_every();
        let key = (workload.name(), size, gc_every);
        if let Some(trace) = self.traces.get(&key) {
            return Ok(Rc::clone(trace));
        }
        let recorded = Rc::new(record_workload_trace(workload, size, gc_every)?);
        self.traces.insert(key, Rc::clone(&recorded));
        Ok(recorded)
    }

    /// Number of distinct recordings held.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }
}

/// Runs a workload `repetitions` times under the chosen collector and
/// returns every result (the timing figures average them, as the paper's
/// Appendix A does over five runs).
///
/// # Errors
///
/// Returns the first [`VmError`] encountered.
pub fn run_repeated(
    workload: Workload,
    size: Size,
    choice: CollectorChoice,
    repetitions: usize,
) -> Result<Vec<RunResult>, VmError> {
    (0..repetitions.max(1))
        .map(|_| run_once(workload, size, choice))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Workload {
        Workload::by_name("db").expect("db exists")
    }

    #[test]
    fn baseline_and_cg_allocate_the_same_objects() {
        let baseline = run_once(db(), Size::S1, CollectorChoice::Baseline).unwrap();
        let cg = run_once(db(), Size::S1, CollectorChoice::Cg).unwrap();
        assert_eq!(baseline.objects_created(), cg.objects_created());
        assert!(baseline.cg.is_none());
        assert!(cg.cg.is_some());
        assert!(cg.collectable_percent() > 0.0);
        assert_eq!(baseline.collectable_percent(), 0.0);
    }

    #[test]
    fn no_opt_collects_fewer_objects_than_preferred() {
        let with_opt = run_once(db(), Size::S1, CollectorChoice::Cg).unwrap();
        let no_opt = run_once(db(), Size::S1, CollectorChoice::CgNoOpt).unwrap();
        assert!(
            with_opt.collectable_percent() > no_opt.collectable_percent() + 5.0,
            "with {:.1}% vs without {:.1}%",
            with_opt.collectable_percent(),
            no_opt.collectable_percent()
        );
    }

    #[test]
    fn recycling_run_recycles_objects() {
        let result = run_once(db(), Size::S1, CollectorChoice::CgRecycle).unwrap();
        let cg = result.cg.as_ref().unwrap();
        assert!(cg.stats.objects_recycled > 0);
        assert_eq!(result.vm.recycled_allocations, cg.stats.objects_recycled);
    }

    #[test]
    fn reset_run_performs_resets() {
        // jess executes well over 25k instructions at size 1, so the
        // periodic traditional collections (and resets) must fire.
        let jess = Workload::by_name("jess").expect("jess exists");
        let result = run_once(jess, Size::S1, CollectorChoice::CgReset).unwrap();
        let cg = result.cg.as_ref().unwrap();
        assert!(cg.stats.resets > 0);
        assert!(result.msa.unwrap().cycles > 0);
        assert_eq!(cg.stats.resets, result.msa.unwrap().cycles);
    }

    #[test]
    fn repeated_runs_are_deterministic_in_object_counts() {
        let runs = run_repeated(db(), Size::S1, CollectorChoice::Cg, 2).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].objects_created(), runs[1].objects_created());
    }

    #[test]
    fn labels_are_distinct_and_parse_back() {
        use std::collections::HashSet;
        let labels: HashSet<&str> = CollectorChoice::ALL
            .into_iter()
            .map(CollectorChoice::label)
            .collect();
        assert_eq!(labels.len(), 6);
        for choice in CollectorChoice::ALL {
            assert_eq!(CollectorChoice::parse(choice.label()), Some(choice));
        }
        assert_eq!(CollectorChoice::parse("shenandoah"), None);
    }

    /// `replay_run` reports what `run_once` does: `tests/trace_equivalence.rs`
    /// pins the collector statistics, this pins the `RunResult` built around
    /// them.
    #[test]
    fn replay_mode_reproduces_live_cg_statistics_exactly() {
        let live = run_once(db(), Size::S1, CollectorChoice::Cg).unwrap();
        let recorded = record_workload_trace(db(), Size::S1, None).unwrap();
        let replayed = replay_run(&recorded, CollectorChoice::Cg).unwrap();
        assert_eq!(
            live.cg.as_ref().unwrap().stats,
            replayed.cg.as_ref().unwrap().stats
        );
        assert_eq!(
            live.cg.as_ref().unwrap().breakdown,
            replayed.cg.as_ref().unwrap().breakdown
        );
        assert_eq!(live.objects_created(), replayed.objects_created());
        assert_eq!(live.live_at_exit, replayed.live_at_exit);
        // The whole VmStats must match — including the collector-accounting
        // fields, which come from the replay rather than the recording.
        assert_eq!(live.vm, replayed.vm);
        assert!(replayed.vm.collector_freed_objects > 0);
    }

    #[test]
    fn replay_mode_covers_the_baseline_collector() {
        let live = run_once(db(), Size::S1, CollectorChoice::Baseline).unwrap();
        let recorded = record_workload_trace(db(), Size::S1, None).unwrap();
        let replayed = replay_run(&recorded, CollectorChoice::Baseline).unwrap();
        // Without memory pressure neither run collects, so both see the full
        // allocated population live.
        assert_eq!(live.live_at_exit, replayed.live_at_exit);
        assert_eq!(live.msa.unwrap().cycles, replayed.msa.unwrap().cycles);
    }

    #[test]
    fn trace_cache_records_each_workload_once() {
        let mut cache = TraceCache::new();
        assert!(cache.is_empty());
        let a = cache
            .for_choice(db(), Size::S1, CollectorChoice::Cg)
            .unwrap();
        let b = cache
            .for_choice(db(), Size::S1, CollectorChoice::Baseline)
            .unwrap();
        assert!(
            Rc::ptr_eq(&a, &b),
            "same (workload, size, gc_every) key must share"
        );
        assert_eq!(cache.len(), 1);
        // CgReset needs periodic Collect events, so it records separately.
        let c = cache
            .for_choice(db(), Size::S1, CollectorChoice::CgReset)
            .unwrap();
        assert!(!Rc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        assert!(c.trace.stats().collects > 0);
        assert_eq!(a.trace.stats().collects, 0);
    }
}
