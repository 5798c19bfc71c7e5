//! Replay-side layers: `cg-trace` read side, `cg-heap`, `cg-core` (and the
//! one derived `cg-unionfind` count), measured around `TraceReader`,
//! `apply_event` and a timing `Collector` wrapper.

use std::path::Path;
use std::time::{Duration, Instant};

use cg_core::{CgStats, ContaminatedGc, DomainImpl};
use cg_heap::{AllocPolicy, Heap, HeapConfig};
use cg_trace::footer::{canonical_collector, canonical_config, cg_section};
use cg_trace::{
    apply_event, open_trace, replay_events_governed, rewrite_trace, validate_event_handles,
    validate_event_liveness, Governor, ReplayOutcome, ResourceLimits, RewriteOptions, TraceReader,
};
use cg_vm::{
    CollectOutcome, Collector, EventKind, FrameInfo, Handle, NoopCollector, RootSet, ThreadId,
};

use super::{best_of, record, timed, Ctx};
use crate::ops;
use crate::reference::{self, Reference};
use crate::util::{median, ratio};
use crate::workloads::TraceFile;

/// The timed hooks: name, mean-ns metric, call-count metric.
const HOOKS: [(&str, &str, &str); 8] = [
    (
        "on_allocate",
        "core.on_allocate_ns",
        "core.on_allocate_calls",
    ),
    (
        "on_reference_store",
        "core.on_reference_store_ns",
        "core.on_reference_store_calls",
    ),
    (
        "on_static_store",
        "core.on_static_store_ns",
        "core.on_static_store_calls",
    ),
    (
        "on_return_value",
        "core.on_return_value_ns",
        "core.on_return_value_calls",
    ),
    (
        "on_frame_push",
        "core.on_frame_push_ns",
        "core.on_frame_push_calls",
    ),
    (
        "on_frame_pop",
        "core.on_frame_pop_ns",
        "core.on_frame_pop_calls",
    ),
    (
        "on_object_access",
        "core.on_object_access_ns",
        "core.on_object_access_calls",
    ),
    (
        "on_program_end",
        "core.on_program_end_ns",
        "core.on_program_end_calls",
    ),
];

/// The hook an event kind dispatches to, if any.
fn hook_of(kind: EventKind) -> Option<usize> {
    match kind {
        EventKind::Allocate => Some(0),
        EventKind::ReferenceStore => Some(1),
        EventKind::StaticStore => Some(2),
        EventKind::ReturnValue => Some(3),
        EventKind::FramePush => Some(4),
        EventKind::FramePop => Some(5),
        EventKind::ObjectAccess => Some(6),
        EventKind::ProgramEnd => Some(7),
        EventKind::SlotWrite | EventKind::Collect => None,
    }
}

/// A `Collector` that times every hook of the collector it wraps.
struct TimedCollector<C> {
    inner: C,
    ns: [u64; 8],
    calls: [u64; 8],
}

impl<C> TimedCollector<C> {
    fn new(inner: C) -> Self {
        TimedCollector {
            inner,
            ns: [0; 8],
            calls: [0; 8],
        }
    }

    fn time<T>(&mut self, hook: usize, f: impl FnOnce(&mut C) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.ns[hook] += start.elapsed().as_nanos() as u64;
        self.calls[hook] += 1;
        out
    }
}

impl<C: Collector> Collector for TimedCollector<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_allocate(&mut self, handle: Handle, frame: &FrameInfo, heap: &Heap) {
        self.time(0, |c| c.on_allocate(handle, frame, heap));
    }

    fn on_reference_store(
        &mut self,
        source: Handle,
        target: Handle,
        frame: &FrameInfo,
        heap: &Heap,
    ) {
        self.time(1, |c| c.on_reference_store(source, target, frame, heap));
    }

    fn on_static_store(&mut self, target: Handle, heap: &Heap) {
        self.time(2, |c| c.on_static_store(target, heap));
    }

    fn on_return_value(&mut self, value: Handle, caller: &FrameInfo, callee: &FrameInfo) {
        self.time(3, |c| c.on_return_value(value, caller, callee));
    }

    fn on_frame_push(&mut self, frame: &FrameInfo) {
        self.time(4, |c| c.on_frame_push(frame));
    }

    fn on_frame_pop(&mut self, frame: &FrameInfo, heap: &mut Heap) -> CollectOutcome {
        self.time(5, |c| c.on_frame_pop(frame, heap))
    }

    fn on_object_access(&mut self, handle: Handle, thread: ThreadId, heap: &Heap) {
        self.time(6, |c| c.on_object_access(handle, thread, heap));
    }

    fn collect(&mut self, roots: &RootSet, heap: &mut Heap) -> CollectOutcome {
        self.inner.collect(roots, heap)
    }

    fn on_program_end(&mut self, roots: &RootSet, heap: &mut Heap) {
        self.time(7, |c| c.on_program_end(roots, heap));
    }
}

/// What traced replays measured, summed over passes and files.
#[derive(Default)]
struct Totals {
    passes_wall_ns: Vec<f64>,
    decode_ns: f64,
    apply_ns: [f64; 10],
    kinds: [u64; 10],
    hook_ns: [f64; 8],
    hook_calls: [u64; 8],
    compare_ms: Vec<f64>,
}

/// Exact counts of one pass over the inputs (identical on every pass).
#[derive(Default)]
struct Counts {
    search_steps: u64,
    space_allocations: u64,
    objects_allocated: u64,
    objects_freed: u64,
    peak_live_objects: u64,
    hook_calls: [u64; 8],
    cg: CgStats,
}

fn heap_config_of(
    meta: &cg_trace::TraceMeta,
    policy: Option<AllocPolicy>,
) -> Result<HeapConfig, String> {
    let config = meta
        .heap
        .ok_or("trace header carries no heap configuration")?;
    Ok(match policy {
        Some(policy) => config.with_alloc_policy(policy),
        None => config,
    })
}

/// One traced replay of `input`: the calls `replay_path_governed` makes,
/// made from here with a timestamp between each.  Timestamps chain (the
/// end of one interval is the start of the next), so the intervals tile
/// the loop with two timer calls per event plus two per hook.
#[allow(clippy::too_many_arguments)]
fn traced_replay(
    ctx: &mut Ctx,
    input: &TraceFile,
    root: &'static str,
    session: u64,
    policy: Option<AllocPolicy>,
    gates_ns: f64,
    totals: &mut Totals,
    counts: &mut Counts,
) -> Result<(), String> {
    let timer = ctx.timer_ns;
    let tracer = &ctx.tracer;
    let mut decode_ns = 0u64;
    let mut apply_ns = [0u64; 10];
    let mut kinds = [0u64; 10];
    let started = Instant::now();
    let (collector, heap, compare) = tracer.span(None, session, "unattributed", root, |it| {
        let mut reader = tracer.span(Some(it), session, "cg-trace", "open_trace", |_| {
            open_trace(&input.path).map_err(|e| format!("open: {e}"))
        })?;
        let config = heap_config_of(reader.meta(), policy)?;
        let mut heap = tracer.span(Some(it), session, "cg-heap", "Heap::new", |_| {
            Heap::new(config)
        });
        let mut collector = TimedCollector::new(canonical_collector());
        let mut outcome = ReplayOutcome::default();
        tracer.span(Some(it), session, "unattributed", "replay_loop", |lp| {
            let mut mark = Instant::now();
            loop {
                let event = reader.next_event().map_err(|e| format!("decode: {e}"))?;
                let decoded = Instant::now();
                decode_ns += (decoded - mark).as_nanos() as u64;
                let Some(event) = event else {
                    break;
                };
                let kind = event.kind().tag() as usize;
                apply_event(&event, &mut heap, &mut collector, &mut outcome)
                    .map_err(|e| format!("apply: {e}"))?;
                mark = Instant::now();
                apply_ns[kind] += (mark - decoded).as_nanos() as u64;
                kinds[kind] += 1;
            }
            // Book the loop's accumulators as aggregate children, each
            // less the timer calls inside its intervals.
            let events: u64 = kinds.iter().sum();
            let mut costs: Vec<(&'static str, &str, f64, u64)> = vec![(
                "cg-trace",
                "TraceReader::next_event",
                decode_ns as f64 - timer * (events + 1) as f64,
                events + 1,
            )];
            let mut dispatch = (0.0, 0u64);
            for kind in EventKind::ALL {
                let k = kind.tag() as usize;
                let n = kinds[k] as f64;
                let hook = hook_of(kind);
                let rest = apply_ns[k] as f64
                    - hook.map_or(0.0, |h| collector.ns[h] as f64 + timer * n)
                    - timer * n
                    - gates_ns * n;
                match kind {
                    EventKind::Allocate => {
                        costs.push(("cg-heap", "Heap::allocate", rest, kinds[k]))
                    }
                    EventKind::SlotWrite => {
                        costs.push(("cg-heap", "Heap::set_field/set_element", rest, kinds[k]))
                    }
                    _ => {
                        dispatch.0 += rest;
                        dispatch.1 += kinds[k];
                    }
                }
            }
            costs.push(("cg-trace", "apply_event dispatch", dispatch.0, dispatch.1));
            costs.push((
                "cg-trace",
                "handle+liveness gates (probe estimate)",
                gates_ns * events as f64,
                events,
            ));
            for (h, (name, ..)) in HOOKS.iter().enumerate() {
                let calls = collector.calls[h];
                costs.push((
                    "cg-core",
                    name,
                    collector.ns[h] as f64 - timer * calls as f64,
                    calls,
                ));
            }
            let timer_calls = 2 * events + 1 + 2 * collector.calls.iter().sum::<u64>();
            costs.push((
                "bench",
                "Instant::now",
                timer * timer_calls as f64,
                timer_calls,
            ));
            tracer.aggregates(lp, &costs);
            Ok::<(), String>(())
        })?;
        let counts_seen = reader.footer().expect("stream drained").counts;
        let section = tracer.span(Some(it), session, "cg-trace", "cg_section", |_| {
            let breakdown = collector.inner.breakdown();
            cg_section(collector.inner.stats(), &breakdown)
        });
        let compare = tracer.span(Some(it), session, "bench", "compare", |_| {
            timed(|| input.check(&counts_seen, &section.entries))
        });
        Ok::<_, String>((collector, heap, compare))
    })?;
    let wall = started.elapsed();
    let label = format!("traced replay of {}", input.path.display());
    match compare {
        Ok(((), took)) => {
            totals.compare_ms.push(took.as_secs_f64() * 1e3);
            ctx.check(&label, Ok(()));
        }
        Err(message) => ctx.check(&label, Err(message)),
    }

    totals.passes_wall_ns.push(wall.as_nanos() as f64);
    totals.decode_ns += decode_ns as f64;
    for k in 0..10 {
        totals.apply_ns[k] += apply_ns[k] as f64;
        totals.kinds[k] += kinds[k];
    }
    for h in 0..8 {
        totals.hook_ns[h] += collector.ns[h] as f64;
        totals.hook_calls[h] += collector.calls[h];
    }
    counts.search_steps += heap.object_space().search_steps();
    counts.space_allocations += heap.object_space().allocations();
    counts.objects_allocated += heap.stats().objects_allocated;
    counts.objects_freed += heap.stats().objects_freed;
    counts.peak_live_objects = counts.peak_live_objects.max(heap.stats().peak_live_objects);
    for h in 0..8 {
        counts.hook_calls[h] += collector.calls[h];
    }
    counts.cg.merge_from(collector.inner.stats());
    Ok(())
}

/// Mean self time of `Heap::allocate` per allocation in `totals`.
fn allocate_ns(totals: &Totals, timer: f64, gates_ns: f64) -> f64 {
    let k = EventKind::Allocate.tag() as usize;
    let n = totals.kinds[k] as f64;
    ratio(
        totals.apply_ns[k] - totals.hook_ns[0] - 2.0 * timer * n - gates_ns * n,
        n,
    )
    .max(0.0)
}

/// One pass of a benchmark-owned `apply_event` loop over in-memory bytes.
fn own_loop<C: Collector>(
    bytes: &[u8],
    mut collector: C,
    extra_gates: bool,
) -> Result<(C, [u64; 10], Duration), String> {
    let start = Instant::now();
    let mut reader = TraceReader::new(bytes).map_err(|e| format!("header: {e}"))?;
    let mut heap = Heap::new(heap_config_of(reader.meta(), None)?);
    let mut outcome = ReplayOutcome::default();
    while let Some(event) = reader.next_event().map_err(|e| format!("decode: {e}"))? {
        if extra_gates {
            validate_event_handles(&event, &heap).map_err(|e| e.to_string())?;
            validate_event_liveness(&event, &heap).map_err(|e| e.to_string())?;
        }
        apply_event(&event, &mut heap, &mut collector, &mut outcome).map_err(|e| e.to_string())?;
    }
    let counts = reader.footer().expect("stream drained").counts;
    Ok((collector, counts, start.elapsed()))
}

/// The library's own governed replay loop over in-memory bytes.
fn replay_bytes<C: Collector>(
    bytes: &[u8],
    limits: ResourceLimits,
    collector: C,
) -> Result<(C, [u64; 10]), String> {
    let mut reader = TraceReader::new(bytes).map_err(|e| e.to_string())?;
    let heap = heap_config_of(reader.meta(), None)?;
    let replayed = replay_events_governed(
        std::iter::from_fn(|| reader.next_event().transpose()),
        heap,
        collector,
        &Governor::new(limits),
    )
    .map_err(|e| e.to_string())?;
    let counts = reader.footer().expect("stream drained").counts;
    Ok((replayed.collector, counts))
}

fn drain(bytes: &[u8]) -> Result<Duration, String> {
    let start = Instant::now();
    let mut reader = TraceReader::new(bytes).map_err(|e| format!("header: {e}"))?;
    while reader
        .next_event()
        .map_err(|e| format!("decode: {e}"))?
        .is_some()
    {}
    Ok(start.elapsed())
}

fn checked_cg(
    input: &TraceFile,
    counts: &[u64],
    mut collector: ContaminatedGc,
) -> Result<(), String> {
    let breakdown = collector.breakdown();
    input.check(counts, &cg_section(collector.stats(), &breakdown).entries)
}

/// The inputs' bytes in memory, compressed as recorded and re-framed raw.
pub struct Loaded {
    bytes: Vec<Vec<u8>>,
    pub events: f64,
    /// `trace.decode_ns_per_event`, which later probes subtract.
    decode_ns: f64,
}

/// `cg-trace` read side, byte level: file read, framing + CRC + LZSS +
/// varint decode, and the same without LZSS.
pub fn decode_probes(ctx: &mut Ctx, inputs: &[TraceFile], dir: &Path) -> Result<Loaded, String> {
    let events = inputs.iter().map(|i| i.events).sum::<u64>() as f64;
    let mut bytes = Vec::new();
    let read_ns = ctx.probe("os-file", "probe:file_read", |_| {
        best_of(|| {
            let start = Instant::now();
            bytes = inputs
                .iter()
                .map(|i| std::fs::read(&i.path).map_err(|e| format!("read: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(start.elapsed())
        })
    })?;
    ctx.put("trace.file_read_ns_per_event", read_ns / events);

    let decode_ns = ctx.probe("cg-trace", "probe:decode", |_| {
        best_of(|| bytes.iter().map(|b| drain(b)).sum())
    })? / events;
    ctx.put("trace.decode_ns_per_event", decode_ns);

    let mut raw = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let path = dir.join(format!("raw-{i}.cgt"));
        let options = RewriteOptions {
            compress: false,
            ..RewriteOptions::default()
        };
        rewrite_trace(&input.path, &path, &options).map_err(|e| format!("rewrite raw: {e}"))?;
        raw.push(std::fs::read(&path).map_err(|e| format!("read raw: {e}"))?);
    }
    let raw_ns = ctx.probe("cg-trace", "probe:decode_raw", |_| {
        best_of(|| raw.iter().map(|b| drain(b)).sum())
    })?;
    ctx.put("trace.decode_raw_ns_per_event", raw_ns / events);
    Ok(Loaded {
        bytes,
        events,
        decode_ns,
    })
}

/// `cg-trace` gates and governor, `cg-heap` and `cg-core`: the traced
/// replays under `root` plus the whole-pass differential probes.
pub fn eval_probes(
    ctx: &mut Ctx,
    inputs: &[TraceFile],
    loaded: &Loaded,
    root: &'static str,
    budget_s: f64,
) -> Result<Vec<f64>, String> {
    let events = loaded.events;
    let files = || inputs.iter().zip(&loaded.bytes);

    // Gates: the benchmark-owned loop with one extra pair of gate calls per
    // event, minus the loop without.  A gate costs the same under any
    // collector, so both run the passive one: the passes are short and
    // their difference is not lost in allocator time.
    let gate_pass = |ctx: &mut Ctx, extra: bool| {
        best_of(|| {
            let mut total = Duration::ZERO;
            for (input, bytes) in files() {
                let (_, counts, took) = own_loop(bytes, NoopCollector::new(), extra)?;
                total += took;
                ctx.check(
                    "gates probe",
                    reference::diff("census", &input.census, &reference::census_entries(&counts)),
                );
            }
            Ok(total)
        })
    };
    let shadow_ns = gate_pass(ctx, false)?;
    let gated_ns = gate_pass(ctx, true)?;
    let gates_ns = ((gated_ns - shadow_ns) / events).max(0.0);
    ctx.put("trace.gates_ns_per_event", gates_ns);

    // Shadow heap: that same mutation with no collector and no frees,
    // minus decode.
    ctx.put(
        "heap.shadow_ns_per_event",
        (shadow_ns / events - loaded.decode_ns).max(0.0),
    );

    // The traced replays: spans, accumulators, the timing collector.
    let mut totals = Totals::default();
    let mut counts;
    let started = Instant::now();
    let mut session = 0;
    loop {
        counts = Counts::default();
        for input in inputs {
            session += 1;
            traced_replay(
                ctx,
                input,
                root,
                session,
                None,
                gates_ns,
                &mut totals,
                &mut counts,
            )?;
        }
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    let timer = ctx.timer_ns;
    let total_events = totals.kinds.iter().sum::<u64>() as f64;
    ctx.put(
        "heap.allocate_ns_per_alloc",
        allocate_ns(&totals, timer, gates_ns),
    );
    let writes = EventKind::SlotWrite.tag() as usize;
    ctx.put(
        "heap.slot_write_ns",
        (ratio(totals.apply_ns[writes], totals.kinds[writes] as f64) - timer - gates_ns).max(0.0),
    );
    ctx.put(
        "heap.search_steps_per_alloc",
        ratio(counts.search_steps as f64, counts.space_allocations as f64),
    );
    ctx.put("heap.objects_allocated", counts.objects_allocated as f64);
    ctx.put("heap.objects_freed", counts.objects_freed as f64);
    ctx.put("heap.peak_live_objects", counts.peak_live_objects as f64);
    let mut hooks_ns = 0.0;
    for (h, (_, ns_metric, calls_metric)) in HOOKS.into_iter().enumerate() {
        let own = totals.hook_ns[h] - timer * totals.hook_calls[h] as f64;
        hooks_ns += own.max(0.0);
        ctx.put(ns_metric, ratio(own, totals.hook_calls[h] as f64).max(0.0));
        ctx.put(calls_metric, counts.hook_calls[h] as f64);
    }
    ctx.put("core.hooks_ns_per_event", ratio(hooks_ns, total_events));
    ctx.put("core.unions", counts.cg.unions as f64);
    ctx.put("core.contaminations", counts.cg.contaminations as f64);
    ctx.put("core.static_opt_skips", counts.cg.static_opt_skips as f64);
    ctx.put("core.objects_collected", counts.cg.objects_collected as f64);
    ctx.put("core.collectable_pct", counts.cg.collectable_percent());
    ctx.put(
        "unionfind.unions_per_event",
        counts.cg.unions as f64 / events,
    );
    ctx.put("trace.footer_compare_ms", median(&totals.compare_ms));

    // The same replay with the header's heap switched to segregated fit.
    let mut segregated = Totals::default();
    for input in inputs {
        session += 1;
        traced_replay(
            ctx,
            input,
            "probe:segregated_replay",
            session,
            Some(AllocPolicy::SegregatedFit),
            gates_ns,
            &mut segregated,
            &mut Counts::default(),
        )?;
    }
    ctx.put(
        "heap.allocate_ns_per_alloc_segregated",
        allocate_ns(&segregated, timer, gates_ns),
    );

    // Whole library replays: governor polling (again collector-independent,
    // so under the passive one), and the static domain implementation at
    // one shard under the canonical collector.
    let governed = |limits: ResourceLimits| {
        best_of(|| {
            let start = Instant::now();
            for bytes in &loaded.bytes {
                replay_bytes(bytes, limits, NoopCollector::new())?;
            }
            Ok(start.elapsed())
        })
    };
    let unlimited_ns = governed(ResourceLimits::unlimited())?;
    let untrusted_ns = governed(ResourceLimits::untrusted())?;
    ctx.put(
        "trace.governor_ns_per_event",
        ((untrusted_ns - unlimited_ns) / events).max(0.0),
    );
    let domain_pass = |ctx: &mut Ctx, domain: DomainImpl| {
        best_of(|| {
            let mut total = Duration::ZERO;
            for (input, bytes) in files() {
                let collector =
                    ContaminatedGc::with_config(canonical_config().with_domain_impl(domain));
                let ((collector, counts), took) =
                    timed(|| replay_bytes(bytes, ResourceLimits::unlimited(), collector))?;
                total += took;
                ctx.check("domain probe", checked_cg(input, &counts, collector));
            }
            Ok(total)
        })
    };
    let atomic_ns = domain_pass(ctx, DomainImpl::Atomic)?;
    let mutex_ns = domain_pass(ctx, DomainImpl::Mutex)?;
    ctx.put("core.atomic_domain_ns_per_event", atomic_ns / events);
    ctx.put("core.mutex_domain_ns_per_event", mutex_ns / events);
    Ok(totals.passes_wall_ns)
}

/// The traced run of `replay_flat` / `replay_frag`.
pub fn trace(ctx: &mut Ctx, workload: &str, dir: &Path) -> Result<&'static str, String> {
    let spec = ops::input_of(workload);
    let reference = Reference::load(spec.spec)?;
    let path = dir.join("input.cgt");
    record::synthesize_and_record(ctx, &spec, &reference, &path)?;
    let inputs = [TraceFile::from_reference(&path, &reference)];

    // Untraced reference operations, for the tracing overhead.
    let mut untraced = Vec::new();
    for _ in 0..3 {
        let (verified, took) = timed(|| ops::verify_replay(&path))?;
        untraced.push(took.as_nanos() as f64);
        ctx.check(
            "untraced replay",
            inputs[0].check(&verified.footer.counts, &verified.cg.entries),
        );
    }

    let loaded = decode_probes(ctx, &inputs, dir)?;
    let budget = ctx.traced_budget();
    let traced = eval_probes(ctx, &inputs, &loaded, "iteration", budget)?;
    ctx.put(
        "bench.trace_overhead_ratio",
        ratio(median(&traced), median(&untraced)),
    );
    Ok("iteration")
}
