//! Capturing a live run's event stream as `.cgt` bytes: every event is
//! encoded into a chunked [`TraceWriter`] as it is emitted and flushed a
//! chunk at a time ([`StreamingRecorder`]), so a recording holds O(chunk)
//! memory beyond its sink, however long the run.  The sink is any
//! [`Write`]: a file, a socket, or a `Vec<u8>` for a recording kept in
//! memory.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use cg_vm::{Collector, EventSink, GcEvent, Program, RunOutcome, Vm, VmConfig, VmError};

use crate::footer::vm_section;
use crate::format::{TraceIoError, TraceMeta};
use crate::io::TraceWriter;
use crate::trace::TraceStats;

/// The shared state behind a [`StreamingRecorder`]: the chunked writer and
/// the first error it hit (the [`EventSink`] interface cannot surface
/// errors mid-run, so they are held until [`finish_streaming`] /
/// [`record_streaming`] checks them).
pub struct StreamingSink<W: Write> {
    writer: Option<TraceWriter<W>>,
    error: Option<TraceIoError>,
}

// Manual impl: `W` (a file, a socket, ...) need not be `Debug` itself.
impl<W: Write> std::fmt::Debug for StreamingSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingSink")
            .field("writer_taken", &self.writer.is_none())
            .field("error", &self.error)
            .finish()
    }
}

impl<W: Write> StreamingSink<W> {
    fn push(&mut self, event: &GcEvent) {
        if self.error.is_some() {
            return; // sticky: drop everything after the first failure
        }
        if let Some(writer) = self.writer.as_mut() {
            if let Err(e) = writer.push(event) {
                self.error = Some(e);
            }
        }
    }
}

/// An [`EventSink`] that encodes every event straight into a chunked
/// [`TraceWriter`], flushing full chunks as the run progresses: peak
/// memory is one encoded chunk (plus whatever the sink keeps), however
/// long the program runs.
///
/// The sink and the caller share the writer through an `Rc` (the VM owns
/// the sink during the run); after the run, [`finish_streaming`] retrieves
/// the writer, surfaces any deferred I/O error and writes the footer.
/// [`record_streaming`] wraps the whole record-run-finish cycle.
pub struct StreamingRecorder<W: Write> {
    sink: Rc<RefCell<StreamingSink<W>>>,
}

impl<W: Write> std::fmt::Debug for StreamingRecorder<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingRecorder").finish_non_exhaustive()
    }
}

impl<W: Write> StreamingRecorder<W> {
    /// Creates a recorder over an open [`TraceWriter`] (the header is
    /// already written by [`TraceWriter::new`]).
    pub fn new(writer: TraceWriter<W>) -> Self {
        Self {
            sink: Rc::new(RefCell::new(StreamingSink {
                writer: Some(writer),
                error: None,
            })),
        }
    }

    /// A shared handle to the sink state, for retrieving the writer after
    /// the VM dropped its sink (see [`finish_streaming`]).
    pub fn handle(&self) -> Rc<RefCell<StreamingSink<W>>> {
        Rc::clone(&self.sink)
    }
}

impl<W: Write> EventSink for StreamingRecorder<W> {
    fn record(&mut self, event: &GcEvent) {
        self.sink.borrow_mut().push(event);
    }
}

/// Unwraps a [`StreamingRecorder`]'s shared state after the VM dropped its
/// sink, surfacing any I/O error deferred during the run, and returns the
/// still-open writer (the caller adds footer sections and calls
/// [`TraceWriter::finish`]).
///
/// # Errors
///
/// The first [`TraceIoError`] the sink hit mid-run, if any.
///
/// # Panics
///
/// Panics if the VM's sink is still alive (drop it first) or the writer
/// was already taken.
pub fn finish_streaming<W: Write>(
    handle: Rc<RefCell<StreamingSink<W>>>,
) -> Result<TraceWriter<W>, TraceIoError> {
    let state = Rc::try_unwrap(handle)
        .expect("the VM dropped its recorder, leaving one owner")
        .into_inner();
    if let Some(e) = state.error {
        return Err(e);
    }
    Ok(state
        .writer
        .expect("the writer is present until finish_streaming takes it"))
}

/// Why a streaming recording failed: the run itself, or writing the
/// stream.
#[derive(Debug)]
pub enum RecordError {
    /// The recording run failed.
    Vm(VmError),
    /// The `.cgt` stream could not be written.
    Trace(TraceIoError),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Vm(e) => write!(f, "{e}"),
            RecordError::Trace(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<VmError> for RecordError {
    fn from(e: VmError) -> Self {
        RecordError::Vm(e)
    }
}

impl From<TraceIoError> for RecordError {
    fn from(e: TraceIoError) -> Self {
        RecordError::Trace(e)
    }
}

/// Runs `program` under `collector`, streaming every event through a
/// chunked `.cgt` writer as it is emitted — peak trace memory is one
/// chunk, regardless of run length.  The header is written from `meta`
/// (heap and `gc_every` filled in from `config` when unset) and the footer
/// gets a `"vm"` section with the recording run's interpreter statistics.
///
/// Returns the run outcome, the per-kind event census and the finished
/// VM, plus the underlying writer (already flushed).  A `Vec<u8>` writer
/// keeps the recording in memory, ready for any number of
/// [`TraceReader`](crate::TraceReader) passes:
///
/// ```
/// use cg_trace::{record_streaming, TraceMeta, TraceReader};
/// use cg_vm::{ClassDef, Insn, MethodDef, NoopCollector, Program, VmConfig};
///
/// let mut program = Program::new();
/// let class = program.add_class(ClassDef::new("Obj", 1));
/// let main = program.add_method(MethodDef::new("main", 0, 1, vec![
///     Insn::New { class, dst: 0 },
///     Insn::Return { value: None },
/// ]));
/// program.set_entry(main);
///
/// let (_, census, _, bytes) = record_streaming(
///     &TraceMeta::default(), program, VmConfig::small(), NoopCollector::new(), Vec::new(),
/// )?;
/// assert_eq!(census.allocations, 1);
/// let events = TraceReader::new(&bytes[..])?.events().collect::<Result<Vec<_>, _>>()?;
/// assert_eq!(events.len() as u64, census.total());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Record with a *non-recycling* collector configuration — the canonical
/// choice is [`cg_vm::NoopCollector`] — so the stream's allocation
/// decisions stay collector-independent (see the crate docs).
///
/// # Errors
///
/// A [`RecordError`]: the run's [`VmError`] or the writer's
/// [`TraceIoError`].
pub fn record_streaming<C: Collector, W: Write + 'static>(
    meta: &TraceMeta,
    program: Program,
    config: VmConfig,
    collector: C,
    w: W,
) -> Result<(RunOutcome, TraceStats, Vm<C>, W), RecordError> {
    let mut meta = meta.clone();
    if meta.heap.is_none() {
        meta.heap = Some(config.heap);
    }
    if meta.gc_every.is_none() {
        meta.gc_every = config.gc_every_instructions;
    }
    let writer = TraceWriter::new(w, &meta)?;
    let recorder = StreamingRecorder::new(writer);
    let handle = recorder.handle();
    let mut vm = Vm::new(program, config, collector);
    vm.set_event_sink(Box::new(recorder));
    let ran = vm.run();
    drop(vm.take_event_sink());
    let outcome = ran?;
    let mut writer = finish_streaming(handle)?;
    writer.add_section(vm_section(&outcome.stats));
    let (w, stats) = writer.finish()?;
    Ok((outcome, stats, vm, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_vm::{ClassDef, Insn, MethodDef, NoopCollector};

    fn two_object_program() -> Program {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Obj", 1));
        let main = p.add_method(MethodDef::new(
            "main",
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
        p.set_entry(main);
        p
    }

    fn record(program: Program) -> (RunOutcome, TraceStats, Vm<NoopCollector>, Vec<u8>) {
        let meta = TraceMeta {
            name: "two-objects".to_string(),
            ..TraceMeta::default()
        };
        record_streaming(
            &meta,
            program,
            VmConfig::small(),
            NoopCollector::new(),
            Vec::new(),
        )
        .expect("program runs")
    }

    #[test]
    fn record_captures_the_whole_run() {
        let (outcome, census, vm, bytes) = record(two_object_program());
        assert_eq!(outcome.stats.objects_allocated, 2);
        assert_eq!(vm.collector().allocations(), 2);
        assert_eq!(census.allocations, 2);
        assert_eq!(census.reference_stores, 1);
        assert_eq!(census.slot_writes, 1);
        assert_eq!(census.frame_pushes, 1);
        assert_eq!(census.frame_pops, 1);
        let mut reader = crate::TraceReader::new(&bytes[..]).expect("header");
        assert_eq!(reader.meta().name, "two-objects");
        assert_eq!(reader.meta().heap, Some(VmConfig::small().heap));
        let events = reader
            .events()
            .collect::<Result<Vec<_>, _>>()
            .expect("decode");
        assert_eq!(events.len() as u64, census.total());
        assert!(matches!(events.last(), Some(GcEvent::ProgramEnd { .. })));
        let footer = reader.footer().expect("footer read");
        assert_eq!(footer.counts, census.counts());
        assert_eq!(
            footer.section(crate::footer::VM_SECTION),
            Some(&vm_section(&outcome.stats))
        );
    }

    #[test]
    fn recording_does_not_change_the_run() {
        let plain = {
            let mut vm = Vm::new(
                two_object_program(),
                VmConfig::small(),
                NoopCollector::new(),
            );
            vm.run().expect("program runs").stats
        };
        let (recorded, ..) = record(two_object_program());
        assert_eq!(plain.instructions, recorded.stats.instructions);
        assert_eq!(plain.objects_allocated, recorded.stats.objects_allocated);
        assert_eq!(plain.frames_popped, recorded.stats.frames_popped);
    }
}
