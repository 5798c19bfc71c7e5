//! Record/replay for the VM↔collector event stream.
//!
//! The contaminated collector — like every collector in this reproduction —
//! is driven entirely by the small event stream of [`cg_vm::GcEvent`]: it
//! never looks at bytecode, locals or the scheduler.  That makes the stream
//! itself a complete, collector-independent description of a workload.  This
//! crate exploits that:
//!
//! * [`record_streaming`] — runs a program with a [`StreamingRecorder`]
//!   attached, encoding its stream as `.cgt` bytes into any
//!   [`std::io::Write`]: a file, a socket, or a `Vec<u8>` for a recording
//!   kept in memory.  `.cgt` bytes are the one form a recording takes.
//! * [`replay_reader_governed`] — drives any [`cg_vm::Collector`] with a
//!   recorded stream read through a [`TraceReader`], maintaining a shadow
//!   heap, *without re-interpreting the program*; [`replay_path_governed`]
//!   does the same straight from a `.cgt` file, and
//!   [`replay_events_governed`] is the one loop under both (a caller
//!   replaying one recording many times decodes it once and feeds it the
//!   events).  A workload can be captured once and then evaluated under
//!   `ContaminatedGc`, `HybridCollector`, `MarkSweep`, … at a fraction of
//!   the cost of a live run — replay skips arithmetic, branching and
//!   scheduling entirely.
//! * [`partition_streaming`] / [`partition_path_streaming`] — split a
//!   stream into per-thread shard sub-streams ([`mod@partition`]), and
//!   [`parallel_eval_governed`] / [`parallel_eval_streaming_governed`] — the
//!   same evaluation on N OS threads over them ([`eval`]);
//!   [`parallel_eval_routed_governed`] runs those threads from one plain
//!   stream, routed in memory, with no shard sub-stream written at all.
//!
//! Every evaluation entry point takes a [`Governor`]; trusted input passes
//! [`Governor::unlimited`].
//!
//! Replay is exact: hooks fire with identical arguments in identical order,
//! and the shadow heap's reference graph matches the live heap at every
//! event, so a collector's statistics after a replay are byte-identical to
//! the live run's (see the `trace_equivalence` integration test).
//!
//! One caveat: the *allocation decisions* of the recording run are part of
//! the trace.  The §3.7 recycle list reuses handles, which ties a stream
//! recorded under a recycling collector to that collector's reuse choices:
//! replay offers every instance allocation to the collector's recycle list,
//! as the VM does, and fails with [`ReplayError::RecycleDiverged`] unless
//! the offer matches the recording, so such a stream replays exactly under
//! the configuration that recorded it and under no other.
//! [`record_streaming`] with [`cg_vm::NoopCollector`] is the canonical,
//! collector-independent way to capture a workload.
//!
//! # Persistence: the `.cgt` format
//!
//! A trace survives its process as a versioned, dependency-free binary
//! `.cgt` file ([`mod@format`], [`io`]): magic + header (format version,
//! workload metadata, heap configuration), LEB128-varint events in CRC32'd
//! chunks (optionally LZ-compressed), and a footer with the per-kind event
//! census plus exact stats sections ([`footer`]).  The streaming
//! [`TraceWriter`]/[`TraceReader`] pair — and everything above on top of
//! them — move events chunk-by-chunk and never materialize the full
//! vector, so a multi-million-event workload records, replays and
//! partitions in O(chunk) memory.  The reader checks the footer's census
//! against the events it decoded, so a stream that lost events fails at
//! its footer on every route.  The `cgt` binary in this crate is the
//! command-line face of all of it (`cgt record | info | verify | convert |
//! diff`), and `crates/trace/golden/` holds the committed golden corpus CI
//! gates collector changes against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod eval;
pub mod fault;
pub mod footer;
pub mod format;
pub mod io;
pub mod limits;
pub mod partition;
pub mod proto;
pub mod recorder;
pub mod replay;
pub mod trace;
mod wire;

pub use cg_vm::{AllocKind, EventKind, EventSink, GcEvent};
pub use eval::{
    parallel_eval_governed, parallel_eval_routed_governed, parallel_eval_streaming_governed,
    ParallelError, ParallelOutcome,
};
pub use fault::{FaultPlan, FaultyReader, FaultyWriter};
pub use format::{
    FooterSection, StreamKind, TraceFooter, TraceIoError, TraceMeta, WorkloadRef,
    DEFAULT_CHUNK_EVENTS, FORMAT_VERSION,
};
pub use io::{open_trace, rewrite_trace, RewriteOptions, TraceReader, TraceWriter};
pub use limits::{
    CancelToken, EvalError, Governor, LimitKind, LimitsParseError, ResourceLimits,
    GOVERNOR_CHECK_EVENTS,
};
pub use partition::{
    partition_path_streaming, partition_streaming, PartitionedPaths, ShardEvent, ShardWait,
};
pub use recorder::{finish_streaming, record_streaming, RecordError, StreamingRecorder};
pub use replay::{
    apply_event, replay_events_governed, replay_path_governed, replay_reader_governed,
    validate_event_handles, validate_event_liveness, ReplayError, ReplayOutcome, Replayed,
    StreamReplayed,
};
pub use trace::TraceStats;
