//! Replaying a recorded stream against any collector: decoded
//! chunk-by-chunk from `.cgt` bytes with O(chunk) memory, or from events
//! a caller decoded once to replay many times.

use std::borrow::Borrow;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use cg_heap::{Heap, HeapConfig, HeapError, Value};
use cg_vm::{AllocKind, Collector, GcEvent, Handle};

use crate::format::TraceIoError;
use crate::io::TraceReader;
use crate::limits::{EvalError, Governor, GOVERNOR_CHECK_EVENTS};

/// What a replay accomplished, mirroring the collector-side fields of a live
/// run's statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayOutcome {
    /// Events replayed.
    pub events_replayed: usize,
    /// Full collections driven (one per recorded `Collect` event).
    pub gc_cycles: u64,
    /// Frames popped.
    pub frames_popped: u64,
    /// Objects freed by the collector during the replay.
    pub collector_freed_objects: u64,
    /// Bytes freed by the collector during the replay.
    pub collector_freed_bytes: u64,
    /// Objects marked by the collector's full collections.
    pub collector_marked_objects: u64,
    /// Objects live in the shadow heap after the replay.
    pub live_at_exit: usize,
    /// Wall-clock seconds spent replaying.
    pub elapsed_seconds: f64,
}

/// Why a replay failed.
///
/// A failure means the collector under replay diverged from the recorded
/// heap history — for an allegedly sound collector, that is a bug worth
/// surfacing loudly rather than papering over.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The shadow heap rejected an operation (e.g. a recorded write hit an
    /// object the replayed collector had already freed — a soundness
    /// violation).
    Heap(HeapError),
    /// A fresh allocation minted a different handle than the recording,
    /// which means the allocation sequences diverged.
    HandleMismatch {
        /// The handle the recording expects.
        expected: Handle,
        /// The handle the shadow heap produced.
        got: Handle,
    },
    /// The collector's recycle list (§3.7) did not reproduce a recorded
    /// allocation: it offered a dead object where the recording allocated
    /// afresh, or not the recorded one where the recording recycled.  A
    /// recycling recording replays only under the configuration that
    /// recorded it, and a non-recycling one only under a collector that
    /// does not recycle.
    RecycleDiverged {
        /// The recorded allocation's handle.
        handle: Handle,
    },
    /// An event named a handle index no valid recording on this heap
    /// could have minted (see [`validate_event_handles`]) — corrupt or
    /// hostile input, rejected before any handle-indexed table grows.
    HandleOutOfRange {
        /// The implausible handle.
        handle: Handle,
        /// The heap's configured handle capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Heap(e) => write!(f, "shadow heap rejected a replayed event: {e}"),
            ReplayError::HandleMismatch { expected, got } => {
                write!(
                    f,
                    "allocation replay diverged: expected {expected}, heap minted {got}"
                )
            }
            ReplayError::RecycleDiverged { handle } => {
                write!(
                    f,
                    "recycling diverged from the recorded allocation of {handle}"
                )
            }
            ReplayError::HandleOutOfRange { handle, capacity } => {
                write!(
                    f,
                    "event names {handle}, beyond the heap's capacity of {capacity} handles"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<HeapError> for ReplayError {
    fn from(e: HeapError) -> Self {
        ReplayError::Heap(e)
    }
}

/// The result of a replay: the driven collector, its outcome, and the
/// shadow heap (for reachability checks).
#[derive(Debug)]
pub struct Replayed<C> {
    /// The collector after consuming the whole stream.
    pub collector: C,
    /// Replay accounting.
    pub outcome: ReplayOutcome,
    /// The shadow heap at the end of the replay.
    pub heap: Heap,
}

/// One handle's share of [`validate_event_handles`].
#[inline]
fn in_range(handle: Handle, capacity: usize) -> Result<(), ReplayError> {
    if handle.index_usize() >= capacity {
        Err(ReplayError::HandleOutOfRange { handle, capacity })
    } else {
        Ok(())
    }
}

/// One handle's share of [`validate_event_liveness`].
#[inline]
fn live(handle: Handle, heap: &Heap) -> Result<(), ReplayError> {
    if heap.is_live(handle) {
        Ok(())
    } else {
        Err(ReplayError::Heap(HeapError::DeadHandle(handle)))
    }
}

/// Validates every handle `event` names against the heap's configured
/// capacity.
///
/// Collectors index per-object state by handle (record tables, owner
/// maps), so a hostile stream naming an index near `u32::MAX` would
/// otherwise inflate those tables by hundreds of gigabytes in a single
/// event — long before any cooperative budget checkpoint fires.  A valid
/// recording can never exceed the capacity bound: the canonical
/// (non-recycling) recording pipeline never frees, so every handle it
/// mints is below the heap's live-handle capacity.
///
/// # Errors
///
/// [`ReplayError::HandleOutOfRange`] naming the implausible handle.
pub fn validate_event_handles(event: &GcEvent, heap: &Heap) -> Result<(), ReplayError> {
    let capacity = heap.config().handle_capacity();
    let check = |handle: Handle| in_range(handle, capacity);
    match event {
        GcEvent::Allocate { handle, .. } => check(*handle),
        GcEvent::SlotWrite { object, value, .. } => {
            check(*object)?;
            value.map_or(Ok(()), check)
        }
        GcEvent::ObjectAccess { handle, .. } => check(*handle),
        GcEvent::ReferenceStore { source, target, .. } => {
            check(*source)?;
            check(*target)
        }
        GcEvent::StaticStore { target } => check(*target),
        GcEvent::ReturnValue { value, .. } => check(*value),
        GcEvent::FramePush { .. } | GcEvent::FramePop { .. } => Ok(()),
        GcEvent::Collect { roots } | GcEvent::ProgramEnd { roots } => {
            roots.all_roots().try_for_each(check)
        }
    }
}

/// Validates that every *existing* object `event` names is live in `heap`.
///
/// A consistent stream only ever mentions objects that are live at that
/// point — the VM cannot touch, store or root a freed object, and the
/// contaminated collector only frees objects the program can provably
/// never touch again.  A mutated or corrupt stream breaks that: it can
/// name an index that was never allocated (or was already freed), which
/// the collector hooks would happily *register* — and a registered-but-
/// never-allocated object later trips `heap.free` invariants deep inside
/// frame-pop collection.  Checking liveness up front turns that panic
/// into a structured [`ReplayError`] at the offending event.
///
/// `Allocate` handles are exempt (they are *supposed* to be dead — the
/// heap itself rejects an in-use handle), so this check is safe for
/// recycled traces.  It only applies to whole-trace replay against a
/// single shadow heap; sharded replay routes foreign handles that live
/// in a sibling shard's heap and must not be checked here.
///
/// # Errors
///
/// [`ReplayError::Heap`] carrying [`HeapError::DeadHandle`] for the first
/// non-live handle the event names.
pub fn validate_event_liveness(event: &GcEvent, heap: &Heap) -> Result<(), ReplayError> {
    let live = |handle: Handle| live(handle, heap);
    match event {
        GcEvent::Allocate { .. } | GcEvent::FramePush { .. } | GcEvent::FramePop { .. } => Ok(()),
        GcEvent::SlotWrite { object, value, .. } => {
            live(*object)?;
            value.map_or(Ok(()), live)
        }
        GcEvent::ObjectAccess { handle, .. } => live(*handle),
        GcEvent::ReferenceStore { source, target, .. } => {
            live(*source)?;
            live(*target)
        }
        GcEvent::StaticStore { target } => live(*target),
        GcEvent::ReturnValue { value, .. } => live(*value),
        GcEvent::Collect { roots } | GcEvent::ProgramEnd { roots } => {
            roots.all_roots().try_for_each(live)
        }
    }
}

/// Applies one recorded event to the shadow heap and the collector —
/// the single replay step of [`replay_events_governed`] (and of `cgtd`'s
/// live-stream evaluator, which interleaves progress frames).
///
/// The event is gated first, exactly as [`validate_event_handles`] followed
/// by [`validate_event_liveness`] would: every handle it names against the
/// heap's capacity, in field order, then every existing object it names for
/// liveness, in field order.  The checks are made inline by the `match`
/// that then applies the event, so the hot path dispatches on the event
/// kind once; the two functions remain the specification (and what callers
/// gating an event *without* applying it use).
///
/// # Errors
///
/// A [`ReplayError`] from the gates or from the shadow heap.  When a gate
/// fails nothing has been applied; `outcome.events_replayed` counts the
/// failing event either way, and a replay ends at its first error.
pub fn apply_event<C: Collector>(
    event: &GcEvent,
    heap: &mut Heap,
    collector: &mut C,
    outcome: &mut ReplayOutcome,
) -> Result<(), ReplayError> {
    let capacity = heap.config().handle_capacity();
    outcome.events_replayed += 1;
    match event {
        GcEvent::Allocate {
            handle,
            class,
            kind,
            frame,
            recycled,
        } => {
            in_range(*handle, capacity)?;
            // The VM offers every instance allocation to the collector's
            // recycle list first (§3.7); the offer must reproduce the
            // recording: the recorded handle if it was recycled, none if
            // it was not.
            let offered = match kind {
                AllocKind::Instance { field_count } => {
                    collector.try_recycled_alloc(*class, *field_count, frame, heap)
                }
                AllocKind::Array { .. } => None,
            };
            match (offered, *recycled) {
                (None, false) => {
                    let minted = match kind {
                        AllocKind::Instance { field_count } => {
                            heap.allocate(*class, *field_count)?
                        }
                        AllocKind::Array { length } => heap.allocate_array(*class, *length)?,
                    };
                    if minted != *handle {
                        return Err(ReplayError::HandleMismatch {
                            expected: *handle,
                            got: minted,
                        });
                    }
                }
                (Some(reused), true) if reused == *handle => {}
                _ => return Err(ReplayError::RecycleDiverged { handle: *handle }),
            }
            collector.on_allocate(*handle, frame, heap);
        }
        GcEvent::SlotWrite {
            object,
            slot,
            value,
            element,
        } => {
            in_range(*object, capacity)?;
            value.map_or(Ok(()), |v| in_range(v, capacity))?;
            live(*object, heap)?;
            value.map_or(Ok(()), |v| live(v, heap))?;
            let value = Value::from(*value);
            if *element {
                heap.set_element(*object, *slot, value)?;
            } else {
                heap.set_field(*object, *slot, value)?;
            }
        }
        GcEvent::ObjectAccess { handle, thread } => {
            in_range(*handle, capacity)?;
            live(*handle, heap)?;
            collector.on_object_access(*handle, *thread, heap);
        }
        GcEvent::ReferenceStore {
            source,
            target,
            frame,
        } => {
            in_range(*source, capacity)?;
            in_range(*target, capacity)?;
            live(*source, heap)?;
            live(*target, heap)?;
            collector.on_reference_store(*source, *target, frame, heap);
        }
        GcEvent::StaticStore { target } => {
            in_range(*target, capacity)?;
            live(*target, heap)?;
            collector.on_static_store(*target, heap);
        }
        GcEvent::ReturnValue {
            value,
            caller,
            callee,
        } => {
            in_range(*value, capacity)?;
            live(*value, heap)?;
            collector.on_return_value(*value, caller, callee);
        }
        GcEvent::FramePush { frame } => {
            collector.on_frame_push(frame);
        }
        GcEvent::FramePop { frame } => {
            outcome.frames_popped += 1;
            let freed = collector.on_frame_pop(frame, heap);
            outcome.collector_freed_objects += freed.freed_objects;
            outcome.collector_freed_bytes += freed.freed_bytes;
            outcome.collector_marked_objects += freed.marked_objects;
        }
        GcEvent::Collect { roots } => {
            validate_event_handles(event, heap)?;
            validate_event_liveness(event, heap)?;
            outcome.gc_cycles += 1;
            let collected = collector.collect(roots, heap);
            outcome.collector_freed_objects += collected.freed_objects;
            outcome.collector_freed_bytes += collected.freed_bytes;
            outcome.collector_marked_objects += collected.marked_objects;
        }
        GcEvent::ProgramEnd { roots } => {
            validate_event_handles(event, heap)?;
            validate_event_liveness(event, heap)?;
            collector.on_program_end(roots, heap);
        }
    }
    Ok(())
}

/// Replays a stream of events (each possibly failing with a trace error,
/// as produced by a [`TraceReader`]) against a collector — *the*
/// single-threaded evaluation loop: [`replay_reader_governed`] feeds it a
/// `.cgt` reader's events by value, and a caller replaying one recording
/// many times decodes it once and feeds the events by reference
/// (`events.iter().map(Ok)`).  Holds only the iterator's working set —
/// for a `.cgt` reader, one chunk — regardless of trace length.
///
/// The heap configuration is validated against the budget before the
/// shadow heap is allocated, and the budget is polled every
/// [`GOVERNOR_CHECK_EVENTS`] events.  Trusted input passes
/// [`Governor::unlimited`], which can only fail with
/// [`EvalError::Replay`] (or [`EvalError::Trace`] for unreadable bytes).
///
/// # Errors
///
/// An [`EvalError`]: a replay divergence, an unreadable stream, or a
/// budget trip.
pub fn replay_events_governed<C, I, E>(
    events: I,
    heap_config: HeapConfig,
    mut collector: C,
    governor: &Governor,
) -> Result<Replayed<C>, EvalError>
where
    C: Collector,
    I: IntoIterator<Item = Result<E, TraceIoError>>,
    E: Borrow<GcEvent>,
{
    governor.validate_heap(&heap_config)?;
    let start = std::time::Instant::now();
    let mut heap = Heap::new(heap_config);
    let mut outcome = ReplayOutcome::default();
    for event in events {
        apply_event(event?.borrow(), &mut heap, &mut collector, &mut outcome)?;
        if (outcome.events_replayed as u64).is_multiple_of(GOVERNOR_CHECK_EVENTS) {
            governor.checkpoint(outcome.events_replayed as u64, &heap)?;
        }
    }
    governor.checkpoint(outcome.events_replayed as u64, &heap)?;
    outcome.live_at_exit = heap.live_count();
    outcome.elapsed_seconds = start.elapsed().as_secs_f64();
    Ok(Replayed {
        collector,
        outcome,
        heap,
    })
}

/// What a streaming replay of a `.cgt` stream produced: the replay result
/// plus the stream's own metadata and buffering high-water mark.
#[derive(Debug)]
pub struct StreamReplayed<C> {
    /// The replay result.
    pub replayed: Replayed<C>,
    /// The stream's header metadata.
    pub meta: crate::format::TraceMeta,
    /// The stream's footer.
    pub footer: crate::format::TraceFooter,
    /// Most decoded events the reader ever held at once (the O(chunk)
    /// memory bound).
    pub max_buffered_events: usize,
}

/// Streams `.cgt` bytes from any [`Read`] through any collector, chunk by
/// chunk.
///
/// The heap configuration is taken from the stream's header when present,
/// otherwise from `fallback_heap`.
///
/// This is the untrusted-input entry point: the header's heap
/// configuration and declared event count are validated against the
/// budget *before any heap allocation*, so a hostile header cannot OOM
/// the evaluator, and the replay loop then polls the governor every
/// [`GOVERNOR_CHECK_EVENTS`] events.  Trusted input passes
/// [`Governor::unlimited`].
///
/// # Errors
///
/// An [`EvalError`]: a replay divergence, an unreadable stream, or a
/// budget trip.
pub fn replay_reader_governed<C: Collector, R: Read>(
    r: R,
    fallback_heap: Option<HeapConfig>,
    collector: C,
    governor: &Governor,
) -> Result<StreamReplayed<C>, EvalError> {
    let mut reader = TraceReader::new(r)?;
    let heap_config =
        reader
            .meta()
            .heap
            .or(fallback_heap)
            .ok_or_else(|| TraceIoError::Malformed {
                chunk: None,
                detail: "trace header carries no heap configuration and no fallback was given"
                    .to_string(),
            })?;
    governor.validate_heap(&heap_config)?;
    if let Some(declared) = reader.meta().declared_events {
        governor.validate_declared_events(declared)?;
    }
    let meta = reader.meta().clone();
    let replayed = replay_events_governed(reader.events(), heap_config, collector, governor)?;
    let footer = reader
        .footer()
        .cloned()
        .expect("stream iterated to completion, so the footer was read");
    Ok(StreamReplayed {
        replayed,
        meta,
        footer,
        max_buffered_events: reader.max_buffered_events(),
    })
}

/// [`replay_reader_governed`] over a `.cgt` file.
///
/// # Errors
///
/// An [`EvalError`]: an unopenable file, a replay divergence, an
/// unreadable stream, or a budget trip.
pub fn replay_path_governed<C: Collector>(
    path: impl AsRef<Path>,
    fallback_heap: Option<HeapConfig>,
    collector: C,
    governor: &Governor,
) -> Result<StreamReplayed<C>, EvalError> {
    let file = File::open(path).map_err(TraceIoError::from)?;
    replay_reader_governed(BufReader::new(file), fallback_heap, collector, governor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_streaming, TraceMeta};
    use cg_vm::{ClassDef, Insn, MethodDef, NoopCollector, Program, RunOutcome, Vm, VmConfig};

    /// main calls helper twice; helper allocates a pair that dies with it.
    fn churn_program() -> Program {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Obj", 1));
        let helper = p.add_method(MethodDef::new(
            "helper",
            0,
            2,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::New { class: c, dst: 1 },
                Insn::PutField {
                    object: 0,
                    field: 0,
                    value: 1,
                },
                Insn::Return { value: None },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![
                Insn::Call {
                    method: helper,
                    args: vec![],
                    dst: None,
                },
                Insn::Call {
                    method: helper,
                    args: vec![],
                    dst: None,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        p
    }

    /// Records the churn program as `.cgt` bytes.
    fn record_churn(config: VmConfig) -> (RunOutcome, Vm<NoopCollector>, Vec<u8>) {
        let (outcome, _, vm, bytes) = record_streaming(
            &TraceMeta::default(),
            churn_program(),
            config,
            NoopCollector::new(),
            Vec::new(),
        )
        .expect("runs");
        (outcome, vm, bytes)
    }

    #[test]
    fn replay_rebuilds_the_heap_for_a_passive_collector() {
        let config = VmConfig::small();
        let (outcome, vm, bytes) = record_churn(config);
        let streamed = replay_reader_governed(
            &bytes[..],
            None,
            NoopCollector::new(),
            &Governor::unlimited(),
        )
        .expect("replay succeeds");
        let replayed = streamed.replayed;
        // A passive collector frees nothing, so the shadow heap must mirror
        // the live heap exactly.
        assert_eq!(replayed.outcome.live_at_exit, outcome.live_at_exit);
        assert_eq!(replayed.heap.live_count(), vm.heap().live_count());
        assert_eq!(
            replayed.collector.allocations(),
            vm.collector().allocations()
        );
        assert_eq!(replayed.outcome.frames_popped, outcome.stats.frames_popped);
        assert_eq!(
            replayed.outcome.events_replayed as u64,
            streamed.footer.total_events()
        );
        assert_eq!(replayed.outcome.gc_cycles, 0);
    }

    /// `apply_event` gates inline; the two public gate functions are the
    /// specification.  Random events over live, dead, never-minted and
    /// out-of-range handles must be refused with exactly the error the
    /// functions give, in their order (every range check before any
    /// liveness check), and must leave the heap untouched when refused.
    #[test]
    fn inline_gates_agree_with_the_public_gate_functions() {
        use cg_heap::{ClassId, HandleRepr};
        use cg_testutil::TestRng;
        use cg_vm::{FrameId, FrameInfo, FrameRoots, MethodId, RootSet, ThreadId};

        fn any(rng: &mut TestRng) -> Handle {
            Handle::from_index(rng.gen_range(0, 20) as u32)
        }
        let frame = FrameInfo {
            id: FrameId::new(1),
            depth: 1,
            thread: ThreadId::MAIN,
            method: MethodId::new(0),
        };
        // 16 handles of capacity: indices 0..16 are in range.
        let mut config = HeapConfig::with_object_space(1 << 12, HandleRepr::Jdk);
        config.handle_space_bytes = 16 * 8;
        let mut rng = TestRng::new(41);
        let (mut refused_range, mut refused_dead, mut passed) = (0, 0, 0);
        for _ in 0..200 {
            let mut heap = Heap::new(config);
            let mut collector = NoopCollector::new();
            let mut outcome = ReplayOutcome::default();
            // Ten objects, every third one freed again: live, dead,
            // never-minted (10..16) and out-of-range (16..) indices.
            for i in 0..10 {
                let h = heap.allocate(ClassId::new(0), 2).unwrap();
                if i % 3 == 1 {
                    heap.free(h).unwrap();
                }
            }
            for _ in 0..40 {
                let roots = |a, b, c| {
                    Box::new(RootSet {
                        frames: vec![FrameRoots {
                            frame,
                            refs: vec![a],
                        }],
                        statics: vec![b],
                        interpreter: vec![c],
                    })
                };
                let event = match rng.gen_range(0, 8) {
                    0 => GcEvent::SlotWrite {
                        object: any(&mut rng),
                        slot: rng.gen_range(0, 3),
                        value: rng.gen_bool(0.7).then(|| any(&mut rng)),
                        element: rng.gen_bool(0.2),
                    },
                    1 => GcEvent::ObjectAccess {
                        handle: any(&mut rng),
                        thread: ThreadId::MAIN,
                    },
                    2 => GcEvent::ReferenceStore {
                        source: any(&mut rng),
                        target: any(&mut rng),
                        frame,
                    },
                    3 => GcEvent::StaticStore {
                        target: any(&mut rng),
                    },
                    4 => GcEvent::ReturnValue {
                        value: any(&mut rng),
                        caller: frame,
                        callee: frame,
                    },
                    5 => GcEvent::Collect {
                        roots: roots(any(&mut rng), any(&mut rng), any(&mut rng)),
                    },
                    6 => GcEvent::ProgramEnd {
                        roots: roots(any(&mut rng), any(&mut rng), any(&mut rng)),
                    },
                    _ => GcEvent::Allocate {
                        handle: any(&mut rng),
                        class: ClassId::new(0),
                        kind: AllocKind::Instance { field_count: 1 },
                        frame,
                        recycled: false,
                    },
                };
                let gates = validate_event_handles(&event, &heap)
                    .and_then(|()| validate_event_liveness(&event, &heap));
                let before = (heap.live_count(), heap.handles_minted(), *heap.stats());
                let applied = apply_event(&event, &mut heap, &mut collector, &mut outcome);
                match gates {
                    Err(refusal) => {
                        match refusal {
                            ReplayError::HandleOutOfRange { .. } => refused_range += 1,
                            _ => refused_dead += 1,
                        }
                        assert_eq!(applied, Err(refusal), "{event:?}");
                        let after = (heap.live_count(), heap.handles_minted(), *heap.stats());
                        assert_eq!(after, before, "a refused {event:?} touched the heap");
                    }
                    // Past the gates the heap may still object (a bad slot
                    // index, a diverged allocation) — never with a gate's
                    // out-of-range error.
                    Ok(()) => {
                        passed += 1;
                        assert!(
                            !matches!(applied, Err(ReplayError::HandleOutOfRange { .. })),
                            "{event:?}: {applied:?}"
                        );
                    }
                }
            }
        }
        assert!(
            refused_range > 500 && refused_dead > 500 && passed > 500,
            "every outcome must be exercised: {refused_range} / {refused_dead} / {passed}"
        );
    }

    #[test]
    fn replay_on_a_too_small_heap_reports_heap_error() {
        let (.., bytes) = record_churn(VmConfig::small());
        let events = TraceReader::new(&bytes[..])
            .expect("header")
            .events()
            .collect::<Result<Vec<_>, _>>()
            .expect("decode");
        let mut tiny = cg_heap::HeapConfig::tight(8);
        tiny.handle_space_bytes = 1 << 10;
        let err = replay_events_governed(
            events.iter().map(Ok),
            tiny,
            NoopCollector::new(),
            &Governor::unlimited(),
        )
        .unwrap_err();
        assert!(
            matches!(err, EvalError::Replay(ReplayError::Heap(_))),
            "{err}"
        );
        assert!(err.to_string().contains("shadow heap"));
    }
}
