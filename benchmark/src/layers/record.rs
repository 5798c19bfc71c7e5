//! Record-side layers: `cg-workloads`, `cg-vm` and the `cg-trace` write
//! side, measured around `Workload::program`, `Vm::run`, the event sink and
//! the output writer.

use std::cell::Cell;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cg_trace::footer::vm_section;
use cg_trace::{finish_streaming, StreamingRecorder, TraceWriter};
use cg_vm::{EventSink, GcEvent, NoopCollector, Program, Vm};

use super::{best_of, timed, Ctx};
use crate::ops::{self, record_config, InputSpec, Recorded};
use crate::reference::Reference;
use crate::util::{median, ratio};

/// A shared (sum, count) accumulator for intervals timed inside a call
/// that owns the timed object (the VM owns its sink, the sink its writer).
#[derive(Debug, Default)]
struct Clock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Clock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

#[derive(Debug)]
struct TimedSink<S> {
    inner: S,
    clock: Rc<Clock>,
}

impl<S: EventSink> EventSink for TimedSink<S> {
    fn record(&mut self, event: &GcEvent) {
        self.clock.time(|| self.inner.record(event));
    }
}

/// An event sink that does nothing but count: the cost of emission alone.
#[derive(Debug)]
struct CountingSink(u64);

impl EventSink for CountingSink {
    fn record(&mut self, event: &GcEvent) {
        self.0 += u64::from(std::hint::black_box(event).invokes_collector());
    }
}

struct TimedWriter<W> {
    inner: W,
    clock: Rc<Clock>,
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.clock.time(|| self.inner.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.clock.time(|| self.inner.flush())
    }
}

/// The body of `record_streaming`, made from here so the sink can be
/// wrapped and compression switched off; `phase` wraps the VM run and the
/// stream finish.
fn record_with<W: Write + 'static>(
    input: &InputSpec,
    program: Program,
    sink_clock: Option<Rc<Clock>>,
    compress: bool,
    w: W,
    mut phase: impl FnMut(&'static str, &'static str, &mut dyn FnMut()),
) -> Result<(Recorded, W), String> {
    let mut meta = input.meta();
    let config = record_config();
    meta.heap = Some(config.heap);
    let mut writer = TraceWriter::new(w, &meta).map_err(|e| format!("header: {e}"))?;
    writer.set_compression(compress);
    let recorder = StreamingRecorder::new(writer);
    let handle = recorder.handle();
    let mut vm = Vm::new(program, config, NoopCollector::new());
    vm.set_event_sink(match sink_clock {
        Some(clock) => Box::new(TimedSink {
            inner: recorder,
            clock,
        }),
        None => Box::new(recorder),
    });
    let mut ran = None;
    phase("cg-vm", "Vm::run", &mut || ran = Some(vm.run()));
    drop(vm.take_event_sink());
    let outcome = ran
        .expect("the phase ran its body")
        .map_err(|e| format!("run: {e}"))?;
    // `finish_streaming` needs the only remaining owner of the handle.
    let mut handle = Some(handle);
    let mut finished = None;
    phase("cg-trace", "TraceWriter::finish", &mut || {
        let handle = handle.take().expect("the phase runs its body once");
        finished = Some(finish_streaming(handle).and_then(|mut writer| {
            writer.add_section(vm_section(&outcome.stats));
            writer.finish()
        }));
    });
    let (w, census) = finished
        .expect("the phase ran its body")
        .map_err(|e| format!("finish: {e}"))?;
    Ok((
        Recorded {
            vm: outcome.stats,
            census,
        },
        w,
    ))
}

fn unphased(_: &'static str, _: &'static str, body: &mut dyn FnMut()) {
    body();
}

/// Set-up shared by the workloads that record their own input: synthesise
/// (timed as `workloads.synthesize_ms`), record to `path`, check.
pub fn synthesize_and_record(
    ctx: &mut Ctx,
    input: &InputSpec,
    reference: &Reference,
    path: &Path,
) -> Result<(), String> {
    let recorded = ctx.tracer.span(None, 0, "bench", "setup", |setup| {
        let program = ctx
            .tracer
            .span(Some(setup), 0, "cg-workloads", "Workload::program", |_| {
                input.workload().program(input.size)
            });
        ctx.tracer
            .span(Some(setup), 0, "cg-trace", "record_streaming", |_| {
                ops::record_program(input, program, path)
            })
    })?;
    let synthesize_ms = ctx.tracer.mean_ms("Workload::program");
    ctx.put("workloads.synthesize_ms", synthesize_ms);
    ctx.check("set-up recording", reference.check_recording(&recorded));
    Ok(())
}

/// One traced recording: `Workload::program`, then the recording with the
/// sink and the file writer on clocks.
fn traced_recording(
    ctx: &mut Ctx,
    input: &InputSpec,
    reference: &Reference,
    out: &Path,
    session: u64,
    file_write_ms: &mut Vec<f64>,
) -> Result<Duration, String> {
    let timer = ctx.timer_ns;
    let tracer = &ctx.tracer;
    let started = Instant::now();
    let recorded = tracer.span(None, session, "unattributed", "iteration", |it| {
        let program = tracer.span(
            Some(it),
            session,
            "cg-workloads",
            "Workload::program",
            |_| input.workload().program(input.size),
        );
        let sink = Rc::new(Clock::default());
        let disk = Rc::new(Clock::default());
        let file = std::fs::File::create(out).map_err(|e| format!("create: {e}"))?;
        let w = BufWriter::new(TimedWriter {
            inner: file,
            clock: Rc::clone(&disk),
        });
        let (recorded, w) = record_with(
            input,
            program,
            Some(Rc::clone(&sink)),
            true,
            w,
            |layer, name, body| {
                tracer.span(Some(it), session, layer, name, |phase| {
                    // The run's children: the sink's encode time less the
                    // file writes inside it, the file writes, the timers.
                    let (sink0, disk0) = (sink.ns.get(), disk.ns.get());
                    let (calls0, writes0) = (sink.calls.get(), disk.calls.get());
                    body();
                    let sink_calls = sink.calls.get() - calls0;
                    let writes = disk.calls.get() - writes0;
                    let disk_ns = (disk.ns.get() - disk0) as f64 - timer * writes as f64;
                    let sink_ns =
                        (sink.ns.get() - sink0) as f64 - timer * sink_calls as f64 - disk_ns;
                    let timers = 2 * (sink_calls + writes);
                    let mut costs = vec![
                        ("os-file", "File::write", disk_ns, writes),
                        ("bench", "Instant::now", timer * timers as f64, timers),
                    ];
                    if name == "Vm::run" {
                        costs.push((
                            "cg-trace",
                            "StreamingRecorder::record",
                            sink_ns - timer * 2.0 * writes as f64,
                            sink_calls,
                        ));
                    }
                    tracer.aggregates(phase, &costs);
                });
            },
        )?;
        tracer.span(Some(it), session, "os-file", "flush", |_| {
            w.into_inner()
                .map(drop)
                .map_err(|e| format!("flush: {}", e.error()))
        })?;
        file_write_ms.push(disk.ns.get() as f64 / 1e6);
        Ok::<_, String>(recorded)
    })?;
    let wall = started.elapsed();
    ctx.check("traced recording", reference.check_recording(&recorded));
    Ok(wall)
}

/// The traced run of `record_compute` / `record_alloc`.
pub fn trace(ctx: &mut Ctx, workload: &str, dir: &Path) -> Result<&'static str, String> {
    let input = ops::input_of(workload);
    let reference = Reference::load(input.spec)?;
    let out = dir.join("recording.cgt");
    let events = reference.events() as f64;
    let insns = reference.instructions() as f64;
    let program = || input.workload().program(input.size);

    // Untraced reference operations, for the tracing overhead.
    let mut untraced = Vec::new();
    for _ in 0..3 {
        let (recorded, took) = timed(|| ops::record_to_file(&input, &out))?;
        untraced.push(took.as_nanos() as f64);
        ctx.check("untraced recording", reference.check_recording(&recorded));
    }
    let bytes = std::fs::metadata(&out).map_or(0, |m| m.len());
    ctx.put("trace.bytes_per_event", bytes as f64 / events);

    // The traced recordings.
    let mut traced = Vec::new();
    let mut file_write_ms = Vec::new();
    let started = Instant::now();
    loop {
        let session = traced.len() as u64 + 1;
        let wall = traced_recording(ctx, &input, &reference, &out, session, &mut file_write_ms)?;
        traced.push(wall.as_nanos() as f64);
        if started.elapsed().as_secs_f64() >= ctx.traced_budget() {
            break;
        }
    }
    ctx.put(
        "workloads.synthesize_ms",
        ctx.tracer.mean_ms("Workload::program"),
    );
    ctx.put("trace.file_write_ms", median(&file_write_ms));
    ctx.put(
        "bench.trace_overhead_ratio",
        ratio(median(&traced), median(&untraced)),
    );

    // cg-vm: the bare interpreter (no sink), fused and unfused.
    let bare = |fusion: bool| {
        let mut seen = None;
        let ns = best_of(|| {
            let program = program();
            let start = Instant::now();
            let mut vm = Vm::new(
                program,
                record_config().with_fusion(fusion),
                NoopCollector::new(),
            );
            let outcome = vm.run().map_err(|e| format!("bare run: {e}"))?;
            let took = start.elapsed();
            seen = Some((outcome.stats, vm.dispatch_profile()));
            Ok(took)
        })?;
        Ok::<_, String>((ns, seen.expect("a bare run completed")))
    };
    let (fused_ns, (stats, profile)) = bare(true)?;
    let (unfused_ns, _) = bare(false)?;
    ctx.check("bare run", reference.check_vm(&stats));
    ctx.put("vm.interp_ns_per_insn", fused_ns / insns);
    ctx.put("vm.unfused_ns_per_insn", unfused_ns / insns);
    ctx.put("vm.insns", stats.instructions as f64);
    ctx.put("vm.method_calls", stats.method_calls as f64);
    ctx.put(
        "vm.call_site_hit_ratio",
        ratio(
            profile.call_site_hits as f64,
            (profile.call_site_hits + profile.call_site_misses) as f64,
        ),
    );

    // Event emission: the same run with a sink that only counts.  (An
    // in-memory `TraceRecorder` would charge the VM for growing a 200 MB
    // event vector, which neither `cgt record` nor the daemon ever does.)
    let emitting_ns = best_of(|| {
        let program = program();
        let start = Instant::now();
        let mut vm = Vm::new(program, record_config(), NoopCollector::new());
        vm.set_event_sink(Box::new(CountingSink(0)));
        vm.run().map_err(|e| format!("counting run: {e}"))?;
        drop(vm);
        Ok(start.elapsed())
    })?;
    ctx.put(
        "vm.emit_ns_per_event",
        ((emitting_ns - fused_ns) / events).max(0.0),
    );

    // cg-trace write side: encoding into memory, with and without LZSS.
    let encode = |compress: bool| {
        best_of(|| {
            let program = program();
            let start = Instant::now();
            let (_, encoded) = record_with(
                &input,
                program,
                None,
                compress,
                Vec::with_capacity(bytes as usize),
                unphased,
            )?;
            drop(encoded);
            Ok(start.elapsed())
        })
    };
    let encode_ns = encode(true)?;
    let encode_raw_ns = encode(false)?;
    ctx.put(
        "trace.encode_ns_per_event",
        ((encode_ns - emitting_ns) / events).max(0.0),
    );
    ctx.put(
        "trace.encode_raw_ns_per_event",
        ((encode_raw_ns - emitting_ns) / events).max(0.0),
    );
    Ok("iteration")
}
