//! Adversarial trace mutation: the `--mutate-trace` campaign.
//!
//! The fuzzer's main mode generates random *programs* and checks collector
//! invariants over their traces.  This module attacks from the other side:
//! it records a **valid** trace from each synthetic workload, then applies
//! seeded byte-level and structure-level mutations and replays the result
//! under a resource [`Governor`].  The contract under test is the
//! robustness contract of the whole evaluation pipeline:
//!
//! * every mutated trace must **terminate** within the configured limits —
//!   no hangs, no runaway allocation;
//! * the outcome must be either a **clean pass that decodes to the exact
//!   original events** (the mutation was immaterial) or a **structured
//!   error** ([`cg_trace::TraceIoError`], [`cg_trace::ReplayError`],
//!   [`EvalError`]);
//! * **never** a panic, and never a silently different decode (the CRC
//!   framing must catch what the event-level checks don't).
//!
//! Every mutant reaches the evaluator the way an upload does: as `.cgt`
//! bytes decoded through [`TraceReader`], which checks framing, CRCs and the
//! footer census.  Byte-level mutants exercise that decoder; structure-level
//! mutants are re-encoded into wire-valid streams whose *semantics* are
//! hostile (dangling handles, dropped frames, lying headers) and replayed
//! through the reader under the campaign governor, exercising the header
//! admission checks and the replay layer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cg_heap::{HandleRepr, HeapConfig};
use cg_testutil::TestRng;
use cg_trace::footer::canonical_collector;
use cg_trace::{
    record_streaming, replay_reader_governed, EvalError, FaultPlan, FaultyReader, Governor,
    ResourceLimits, TraceIoError, TraceMeta, TraceReader, TraceWriter,
};
use cg_vm::{GcEvent, Handle, NoopCollector, VmConfig};
use cg_workloads::{Size, Workload};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct MutationOptions {
    /// Base seed; every case derives its own reproducible seed from it.
    pub seed: u64,
    /// Mutated cases per workload shape (the campaign covers all eight
    /// shapes, so the total case count is `8 * cases_per_workload`).
    pub cases_per_workload: u64,
    /// The budget every replay runs under.
    pub limits: ResourceLimits,
}

impl Default for MutationOptions {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            cases_per_workload: 16,
            limits: campaign_limits(),
        }
    }
}

/// The campaign's default budget: roomy enough for any S1 workload, tight
/// enough that a runaway mutant trips it in seconds, not minutes.
pub fn campaign_limits() -> ResourceLimits {
    ResourceLimits {
        max_events: Some(10_000_000),
        max_heap_bytes: Some(1 << 30),
        max_handles: Some(4_000_000),
        max_shards: Some(64),
        deadline: Some(Duration::from_secs(10)),
    }
}

/// One campaign violation: a panic, a silent misdecode, or a blown budget.
#[derive(Debug)]
pub struct MutationFailure {
    /// The workload the base trace was recorded from.
    pub workload: &'static str,
    /// The case's reproducible seed.
    pub case_seed: u64,
    /// The mutation applied.
    pub mutation: &'static str,
    /// What went wrong.
    pub detail: String,
    /// The mutated `.cgt` bytes (for a read fault, the unmutated bytes the
    /// faulty reader delivered from).
    pub artifact: Option<Vec<u8>>,
}

/// Aggregate campaign result.
#[derive(Debug, Default)]
pub struct MutationReport {
    /// Mutated cases executed.
    pub cases: u64,
    /// Cases that decoded to the exact original events and replayed clean.
    pub clean_passes: u64,
    /// Cases rejected with a structured error (the expected outcome for
    /// almost every mutation).
    pub structured_errors: u64,
    /// The longest single case, for budget accounting.
    pub max_case: Duration,
    /// Contract violations (must be empty for the campaign to pass).
    pub failures: Vec<MutationFailure>,
}

/// The mutation menu.  Weights are chosen so roughly half the cases attack
/// the decoder (byte-level) and half the replay layer (structure-level).
const MUTATIONS: &[(&str, u32)] = &[
    ("flip-bits", 12),
    ("truncate", 6),
    ("zero-run", 6),
    ("duplicate-slice", 6),
    ("read-fault", 6),
    ("drop-event", 8),
    ("duplicate-event", 8),
    ("swap-events", 6),
    ("rewrite-handle", 10),
    ("huge-handle", 6),
    ("toggle-recycled", 4),
    ("header-heap-lie", 6),
];

struct BaseCase {
    workload: &'static str,
    events: Vec<GcEvent>,
    heap: HeapConfig,
    bytes: Vec<u8>,
}

fn record_base(workload: &Workload) -> BaseCase {
    let config = VmConfig::default();
    let meta = TraceMeta {
        name: format!("{}/mutate", workload.name()),
        ..TraceMeta::default()
    };
    let (.., bytes) = record_streaming(
        &meta,
        workload.program(Size::S1),
        config,
        NoopCollector::new(),
        Vec::new(),
    )
    .expect("recording a stock workload always succeeds");
    let events = decode(&bytes[..]).expect("a fresh recording decodes");
    BaseCase {
        workload: workload.name(),
        events,
        heap: config.heap,
        bytes,
    }
}

/// How one case ended (violations are detected by the driver, not here).
enum CaseEnd {
    CleanPass,
    StructuredError,
    SilentCorruption(String),
}

/// Encodes `events` as a `.cgt` stream whose header embeds `heap`.
fn encode(events: &[GcEvent], heap: HeapConfig) -> Vec<u8> {
    let meta = TraceMeta {
        name: "mutant".to_string(),
        heap: Some(heap),
        ..TraceMeta::default()
    };
    let mut writer = TraceWriter::new(Vec::new(), &meta).expect("writing to memory never fails");
    for event in events {
        writer.push(event).expect("writing to memory never fails");
    }
    writer.finish().expect("writing to memory never fails").0
}

/// Decodes a whole `.cgt` stream, through its footer's census check.
fn decode(r: impl std::io::Read) -> Result<Vec<GcEvent>, TraceIoError> {
    let mut reader = TraceReader::new(r)?;
    reader.events().collect()
}

/// Replays `.cgt` bytes through the reader under the campaign governor —
/// header admission first — classifying the result.
fn governed_replay(bytes: &[u8], governor: &Governor) -> CaseEnd {
    match replay_reader_governed(bytes, None, canonical_collector(), governor) {
        Ok(_) => CaseEnd::CleanPass,
        Err(_) => CaseEnd::StructuredError,
    }
}

/// Decodes mutated bytes; a successful decode must reproduce the original
/// events exactly (anything else slipped past the CRC framing and the
/// census check).
fn decode_and_compare(mutated: impl std::io::Read, original: &[GcEvent]) -> CaseEnd {
    match decode(mutated) {
        Err(_) => CaseEnd::StructuredError,
        Ok(decoded) if decoded == original => CaseEnd::CleanPass,
        Ok(decoded) => CaseEnd::SilentCorruption(format!(
            "decode succeeded with {} events where the original has {}",
            decoded.len(),
            original.len()
        )),
    }
}

fn random_handle(rng: &mut TestRng) -> Handle {
    Handle::from_index(rng.gen_range(0, 1 << 20) as u32)
}

/// Rewrites every handle in `event` through `f`; events without handles
/// are returned unchanged.
fn rewrite_handles(event: &GcEvent, f: &mut impl FnMut(Handle) -> Handle) -> GcEvent {
    let mut event = event.clone();
    match &mut event {
        GcEvent::Allocate { handle, .. } => *handle = f(*handle),
        GcEvent::SlotWrite { object, value, .. } => {
            *object = f(*object);
            if let Some(v) = value {
                *v = f(*v);
            }
        }
        GcEvent::ObjectAccess { handle, .. } => *handle = f(*handle),
        GcEvent::ReferenceStore { source, target, .. } => {
            *source = f(*source);
            *target = f(*target);
        }
        GcEvent::StaticStore { target } => *target = f(*target),
        GcEvent::ReturnValue { value, .. } => *value = f(*value),
        GcEvent::FramePush { .. }
        | GcEvent::FramePop { .. }
        | GcEvent::Collect { .. }
        | GcEvent::ProgramEnd { .. } => {}
    }
    event
}

/// Applies one structure-level mutation to the base events.
fn mutate_events(base: &[GcEvent], mutation: &str, rng: &mut TestRng) -> Vec<GcEvent> {
    let mut events = base.to_vec();
    if events.is_empty() {
        return events;
    }
    let at = rng.gen_range(0, events.len());
    match mutation {
        "drop-event" => {
            events.remove(at);
        }
        "duplicate-event" => {
            let e = events[at].clone();
            events.insert(at, e);
        }
        "swap-events" => {
            let b = rng.gen_range(0, events.len());
            events.swap(at, b);
        }
        "rewrite-handle" => {
            events[at] = rewrite_handles(&events[at], &mut |_| random_handle(rng));
        }
        "huge-handle" => {
            // The handle-table inflation attack: name an index near the
            // top of the u32 space and let the admission/handle budget
            // prove it never turns into a giant allocation.
            events[at] = rewrite_handles(&events[at], &mut |_| {
                Handle::from_index(u32::MAX - rng.gen_range(0, 1024) as u32)
            });
        }
        "toggle-recycled" => {
            if let Some(pos) = events
                .iter()
                .skip(at)
                .position(|e| matches!(e, GcEvent::Allocate { .. }))
            {
                if let GcEvent::Allocate { recycled, .. } = &mut events[at + pos] {
                    *recycled = !*recycled;
                }
            }
        }
        other => unreachable!("not a structure mutation: {other}"),
    }
    events
}

/// Applies one byte-level mutation to the serialized base bytes.
fn mutate_bytes(base: &[u8], mutation: &str, rng: &mut TestRng) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match mutation {
        "flip-bits" => {
            for _ in 0..rng.gen_range(1, 5) {
                let at = rng.gen_range(0, bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0, 8);
            }
        }
        "truncate" => {
            bytes.truncate(rng.gen_range(0, bytes.len()));
        }
        "zero-run" => {
            let at = rng.gen_range(0, bytes.len());
            let run = rng.gen_range(1, 33).min(bytes.len() - at);
            bytes[at..at + run].fill(0);
        }
        "duplicate-slice" => {
            let at = rng.gen_range(0, bytes.len());
            let run = rng.gen_range(1, 65).min(bytes.len() - at);
            let slice = bytes[at..at + run].to_vec();
            let insert_at = rng.gen_range(0, bytes.len());
            bytes.splice(insert_at..insert_at, slice);
        }
        other => unreachable!("not a byte mutation: {other}"),
    }
    bytes
}

/// A copy of `heap` declaring an absurd size.
fn lying_heap(heap: HeapConfig) -> HeapConfig {
    HeapConfig {
        object_space_bytes: usize::MAX / 4,
        handle_space_bytes: usize::MAX / 4,
        handle_repr: HandleRepr::CgWide,
        object_header_words: HeapConfig::DEFAULT_HEADER_WORDS,
        alloc_policy: heap.alloc_policy,
        alloc_failure_at: None,
    }
}

/// The case's mutant as `.cgt` bytes.  A read fault mutates nothing: its
/// bytes are the base's, delivered through a faulty reader.
fn mutant_bytes(base: &BaseCase, mutation: &str, rng: &mut TestRng) -> Vec<u8> {
    match mutation {
        "flip-bits" | "truncate" | "zero-run" | "duplicate-slice" => {
            mutate_bytes(&base.bytes, mutation, rng)
        }
        "read-fault" => base.bytes.clone(),
        // A header declaring an absurd heap: the governor must reject it
        // at admission, before a byte of heap is allocated.
        "header-heap-lie" => encode(&base.events, lying_heap(base.heap)),
        structural => encode(&mutate_events(&base.events, structural, rng), base.heap),
    }
}

/// Runs one case end to end.  Returns the classification; panics inside
/// are the *caller's* job to catch (so a panic anywhere in decode or
/// replay is attributed to the case).
fn run_case(base: &BaseCase, mutation: &str, rng: &mut TestRng, governor: &Governor) -> CaseEnd {
    let bytes = mutant_bytes(base, mutation, rng);
    match mutation {
        "flip-bits" | "truncate" | "zero-run" | "duplicate-slice" => {
            decode_and_compare(&bytes[..], &base.events)
        }
        "read-fault" => {
            // A hard I/O fault or pathological short reads mid-decode.
            let plan = if rng.gen_bool(0.5) {
                FaultPlan::error(rng.gen_range(0, bytes.len()) as u64)
            } else {
                FaultPlan::short(rng.gen_range(1, 8))
            };
            decode_and_compare(FaultyReader::new(&bytes[..], plan), &base.events)
        }
        "header-heap-lie" => {
            match replay_reader_governed(&bytes[..], None, canonical_collector(), governor) {
                Err(EvalError::LimitExceeded { .. }) => CaseEnd::StructuredError,
                Err(_) => CaseEnd::StructuredError,
                Ok(_) => {
                    CaseEnd::SilentCorruption("an absurd heap config was admitted".to_string())
                }
            }
        }
        _ => governed_replay(&bytes, governor),
    }
}

/// Runs the full campaign: all eight workload shapes ×
/// `cases_per_workload` seeded mutants each.
pub fn run_mutation_campaign(options: &MutationOptions) -> MutationReport {
    let mut report = MutationReport::default();
    let deadline_slack = options
        .limits
        .deadline
        .unwrap_or(Duration::from_secs(60))
        .saturating_mul(2)
        + Duration::from_secs(5);
    // `CG_MUTATE_VERBOSE=1` narrates every case to stderr — the tool for
    // pinning down which seeded mutant hangs or dies when a campaign run
    // goes bad in CI.
    let verbose = std::env::var_os("CG_MUTATE_VERBOSE").is_some();
    for (wi, workload) in Workload::all().iter().enumerate() {
        let base = record_base(workload);
        for case in 0..options.cases_per_workload {
            let mut rng = TestRng::new(options.seed)
                .derive(wi as u64)
                .derive(case)
                .derive(0x6d757461); // "muta"
            let case_seed = rng.next_u64();
            let mut case_rng = TestRng::new(case_seed);
            let mutation = MUTATIONS
                [case_rng.weighted(&MUTATIONS.iter().map(|(_, w)| *w).collect::<Vec<_>>())]
            .0;
            let governor = Governor::new(options.limits);
            let started = Instant::now();
            report.cases += 1;
            if verbose {
                eprintln!(
                    "[mutate] workload={} case={case} seed={case_seed:#x} mutation={mutation}",
                    base.workload
                );
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_case(&base, mutation, &mut case_rng, &governor)
            }));
            let elapsed = started.elapsed();
            report.max_case = report.max_case.max(elapsed);
            let mut fail = |detail: String| {
                // Re-derive the mutant for the artifact with the same
                // per-case stream the failing run consumed.
                let mut artifact_rng = TestRng::new(case_seed);
                let _ =
                    artifact_rng.weighted(&MUTATIONS.iter().map(|(_, w)| *w).collect::<Vec<_>>());
                report.failures.push(MutationFailure {
                    workload: base.workload,
                    case_seed,
                    mutation,
                    detail,
                    artifact: Some(mutant_bytes(&base, mutation, &mut artifact_rng)),
                });
            };
            match outcome {
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    fail(format!("panicked: {msg}"));
                }
                Ok(CaseEnd::SilentCorruption(detail)) => {
                    fail(format!("silent corruption: {detail}"));
                }
                Ok(end) => {
                    if elapsed > deadline_slack {
                        fail(format!(
                            "budget violation: case took {:.1}s against a {:.1}s deadline",
                            elapsed.as_secs_f64(),
                            deadline_slack.as_secs_f64()
                        ));
                    } else {
                        match end {
                            CaseEnd::CleanPass => report.clean_passes += 1,
                            CaseEnd::StructuredError => report.structured_errors += 1,
                            CaseEnd::SilentCorruption(_) => unreachable!("handled above"),
                        }
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuietPanics;

    #[test]
    fn a_small_campaign_is_clean() {
        let _quiet = QuietPanics::install();
        let options = MutationOptions {
            seed: 0xDECADE,
            cases_per_workload: 3,
            ..MutationOptions::default()
        };
        let report = run_mutation_campaign(&options);
        assert_eq!(report.cases, 24);
        assert_eq!(
            report.cases,
            report.clean_passes + report.structured_errors,
            "violations: {:?}",
            report.failures
        );
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }

    #[test]
    fn the_menu_covers_byte_and_structure_attacks() {
        let names: Vec<&str> = MUTATIONS.iter().map(|(n, _)| *n).collect();
        for required in [
            "flip-bits",
            "truncate",
            "rewrite-handle",
            "huge-handle",
            "header-heap-lie",
            "read-fault",
        ] {
            assert!(names.contains(&required), "menu lost {required}");
        }
    }
}
