//! `cgt` — the `.cgt` trace toolbox.
//!
//! ```text
//! cgt record <workload>[/<size>] [--out PATH] [--gc-every N] [--chunk-events N]
//! cgt info <file.cgt>
//! cgt verify <file.cgt> [--re-record] [--mismatch-out PATH]
//! cgt convert <in.cgt> <out.cgt> [--chunk-events N] [--no-compress] [--strip-sections]
//! cgt diff <a.cgt> <b.cgt>
//! cgt submit <file.cgt> [--addr HOST:PORT] [--tenant NAME] [--timeout-ms N]
//!            [--expect-footer] [--watch]
//! cgt metrics [--addr HOST:PORT] [--timeout-ms N]
//! ```
//!
//! * `record` interprets a synthetic SPEC workload once under a passive
//!   collector, streaming the event stream to disk chunk-by-chunk, then
//!   streams it back through the canonical contaminated collector to embed
//!   the exact `CgStats` footer (`"cg"` section) that `verify` checks.
//! * `verify` re-reads the whole file (every chunk CRC), replays it under
//!   the canonical collector and compares the freshly computed statistics
//!   against the embedded footer entry-for-entry.  With `--re-record` it
//!   also re-interprets the workload named in the header and demands the
//!   fresh recording replay to byte-identical statistics — the golden-trace
//!   CI gate.  A mismatching re-recording is written to `--mismatch-out`
//!   for artifact upload.
//! * `convert` re-frames a file (chunk size, compression, footer
//!   sections); `diff` reports the first diverging event and any footer
//!   differences; `info` prints the header, census and sections.
//! * `submit` uploads a trace to a running `cgtd` daemon over the framed
//!   protocol and prints the stats the server computed; `--expect-footer`
//!   compares them entry-for-entry against the local file's embedded
//!   `"cg"` footer (exit 5 on mismatch).  `--watch` opens a live `STREAM`
//!   session instead: the server evaluates incrementally while the upload
//!   is still in flight and `cgt` prints each `PROGRESS` frame to stderr;
//!   stats, `--expect-footer` and every exit code behave exactly as for a
//!   plain submit.  `metrics` scrapes the daemon's plaintext counters.
//!
//! Exit codes are distinct per failure class so scripts can branch on
//! them without parsing stderr:
//!
//! | code | meaning                                              |
//! |------|------------------------------------------------------|
//! | 0    | OK                                                   |
//! | 1    | other failure (recording run failed, bad spec, ...)  |
//! | 2    | usage error                                          |
//! | 3    | corrupt input (bad magic, CRC, malformed, replay divergence) |
//! | 4    | resource limit exceeded (`verify --limits`)          |
//! | 5    | verify/diff mismatch (statistics or events differ)   |
//! | 6    | OS-level I/O error                                   |

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cg_trace::footer::{
    canonical_collector, canonical_heap, cg_section, vm_stats_from_section, CG_SECTION, VM_SECTION,
};
use cg_trace::proto::{self, ClientError, ErrorClass, ProtoError};
use cg_trace::{
    open_trace, record_streaming, rewrite_trace, EvalError, FooterSection, Governor,
    ResourceLimits, RewriteOptions, TraceFooter, TraceIoError, TraceMeta, TraceStats, WorkloadRef,
    DEFAULT_CHUNK_EVENTS,
};
use cg_vm::{EventKind, NoopCollector, VmConfig};
use cg_workloads::Workload;

fn usage() -> ! {
    eprintln!(
        "cgt — .cgt trace toolbox

USAGE:
  cgt record <workload>[/<size>] [--out PATH] [--gc-every N] [--chunk-events N]
             [--object-space-mib N] [--segregated]
  cgt info <file.cgt>
  cgt verify <file.cgt> [--re-record] [--mismatch-out PATH] [--limits SPEC]
  cgt convert <in.cgt> <out.cgt> [--chunk-events N] [--no-compress] [--strip-sections]
  cgt diff <a.cgt> <b.cgt>
  cgt submit <file.cgt> [--addr HOST:PORT] [--tenant NAME] [--timeout-ms N]
             [--expect-footer] [--watch]
  cgt metrics [--addr HOST:PORT] [--timeout-ms N]

Workloads: the eight SPECjvm98-like benchmarks (compress, jess, raytrace,
db, javac, mpegaudio, mtrt, jack) at sizes 1, 10 or 100 (default 1).

CG_VM_FUSION=off in the environment interprets without inline caches.
They are observationally invisible — the recorded events, embedded stats
footer and every exit code are identical either way — so the toggle exists
for differential testing and timing comparisons, not for changing what
gets recorded.

--limits runs the verification replay under a resource governor.  SPEC is
a key=value comma list (events, heap-mib, handles, shards, deadline-ms),
e.g. --limits events=1000000,heap-mib=256,deadline-ms=5000; an empty SPEC
('') applies the conservative untrusted-input defaults.

submit/metrics talk to a cgtd daemon (default --addr 127.0.0.1:4270).
submit streams the file over the framed protocol and prints the server's
stats; --expect-footer additionally compares them against the local file's
embedded \"cg\" footer; --watch opens a live STREAM session (incremental
server-side evaluation) and prints PROGRESS frames to stderr as they
arrive.  A BUSY answer (backpressure) exits 1; server-side corruption
exits 3 and a tripped budget exits 4, mirroring local verify — with or
without --watch.

EXIT CODES:
  0  OK
  1  other failure (recording run failed, bad workload spec, ...)
  2  usage error
  3  corrupt input (bad magic, CRC mismatch, malformed bytes, replay divergence)
  4  resource limit exceeded
  5  verify/diff mismatch (statistics or events differ)
  6  OS-level I/O error"
    );
    std::process::exit(2);
}

/// A command failure, classed so `main` can pick the exit code.
enum CgtError {
    /// Anything without a more specific class (exit 1).
    Other(String),
    /// The input bytes are not a valid trace, or replaying them diverged
    /// (exit 3).
    Corrupt(String),
    /// A `--limits` budget tripped (exit 4).
    Limit(String),
    /// The trace is well-formed but its statistics or events do not match
    /// what verification demands (exit 5).
    Mismatch(String),
    /// The operating system failed the read or write (exit 6).
    Io(String),
}

impl CgtError {
    fn exit_code(&self) -> u8 {
        match self {
            CgtError::Other(_) => 1,
            CgtError::Corrupt(_) => 3,
            CgtError::Limit(_) => 4,
            CgtError::Mismatch(_) => 5,
            CgtError::Io(_) => 6,
        }
    }

    fn message(&self) -> &str {
        match self {
            CgtError::Other(m)
            | CgtError::Corrupt(m)
            | CgtError::Limit(m)
            | CgtError::Mismatch(m)
            | CgtError::Io(m) => m,
        }
    }

    /// Prepends `context: ` to the message, keeping the class.
    fn prefixed(self, context: &str) -> Self {
        let with = |m: &str| format!("{context}: {m}");
        match self {
            CgtError::Other(m) => CgtError::Other(with(&m)),
            CgtError::Corrupt(m) => CgtError::Corrupt(with(&m)),
            CgtError::Limit(m) => CgtError::Limit(with(&m)),
            CgtError::Mismatch(m) => CgtError::Mismatch(with(&m)),
            CgtError::Io(m) => CgtError::Io(with(&m)),
        }
    }
}

impl From<TraceIoError> for CgtError {
    fn from(e: TraceIoError) -> Self {
        match &e {
            // An unexpected EOF is a truncated *file*, not an OS failure:
            // the read itself succeeded, the bytes just ran out early.
            TraceIoError::Io(io) if io.kind() == std::io::ErrorKind::UnexpectedEof => {
                CgtError::Corrupt(e.to_string())
            }
            TraceIoError::Io(_) => CgtError::Io(e.to_string()),
            _ => CgtError::Corrupt(e.to_string()),
        }
    }
}

impl From<EvalError> for CgtError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Trace(e) => e.into(),
            // A replay divergence means the event *content* is invalid —
            // the same trust verdict as a CRC failure.
            EvalError::Replay(_) => CgtError::Corrupt(e.to_string()),
            EvalError::LimitExceeded { .. }
            | EvalError::DeadlineExceeded { .. }
            | EvalError::Cancelled => CgtError::Limit(e.to_string()),
            EvalError::ShardPanicked { .. } | EvalError::ShardStalled { .. } => {
                CgtError::Other(e.to_string())
            }
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage());
    let rest: Vec<String> = args.collect();
    let result = match command.as_str() {
        "record" => cmd_record(&rest),
        "info" => cmd_info(&rest),
        "verify" => cmd_verify(&rest),
        "convert" => cmd_convert(&rest),
        "diff" => cmd_diff(&rest),
        "submit" => cmd_submit(&rest),
        "metrics" => cmd_metrics(&rest),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command '{other}'");
            usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

/// Parses `--flag value` pairs, returning positional arguments.
fn split_flags(args: &[String], with_value: &[&str], boolean: &[&str]) -> (Vec<String>, Flags) {
    let mut positional = Vec::new();
    let mut flags = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if with_value.contains(&arg.as_str()) {
            let value = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{arg} requires a value");
                usage();
            });
            flags.values.push((arg.clone(), value));
            i += 2;
        } else if boolean.contains(&arg.as_str()) {
            flags.switches.push(arg.clone());
            i += 1;
        } else if arg.starts_with("--") {
            eprintln!("unknown flag '{arg}'");
            usage();
        } else {
            positional.push(arg.clone());
            i += 1;
        }
    }
    (positional, flags)
}

#[derive(Default)]
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn get_usize(&self, name: &str) -> Option<usize> {
        self.get(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name} must be a non-negative integer, got '{v}'");
                usage();
            })
        })
    }

    /// [`Flags::get_usize`] for a flag whose 0 would mean nothing (a chunk
    /// of no events, a collection every 0 instructions): 0 is a usage error.
    fn get_positive(&self, name: &str) -> Option<usize> {
        let value = self.get_usize(name)?;
        if value == 0 {
            eprintln!("{name} must be a positive integer, got '0'");
            usage();
        }
        Some(value)
    }
}

/// Records `workload` to `path` with O(chunk) memory (each writer holds two
/// chunk buffers and one framed chunk, and runs one compressor thread) and
/// embeds the canonical stats footer: record to a sibling temp file,
/// stream-replay it to compute the statistics, then stream-rewrite with the
/// `"cg"` section.
fn record_workload(
    workload: Workload,
    size: cg_workloads::Size,
    gc_every: Option<u64>,
    heap: cg_heap::HeapConfig,
    chunk_events: usize,
    path: &Path,
) -> Result<TraceStats, CgtError> {
    let config = VmConfig {
        heap,
        gc_every_instructions: gc_every,
        ..VmConfig::default()
    };
    let meta = TraceMeta {
        name: format!("{}/{}", workload.name(), size),
        workload: Some(WorkloadRef {
            name: workload.name().to_string(),
            size: size.spec_number(),
        }),
        ..TraceMeta::default()
    };
    let tmp = path.with_extension("cgt.tmp");
    let file = std::fs::File::create(&tmp)
        .map_err(|e| CgtError::Io(format!("create {}: {e}", tmp.display())))?;
    let recorded = record_streaming(
        &meta,
        workload.program(size),
        config,
        NoopCollector::new(),
        std::io::BufWriter::new(file),
    );
    let (_, _, _, w) = match recorded {
        Ok(recorded) => recorded,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(CgtError::Other(format!("recording {}: {e}", meta.name)));
        }
    };
    w.into_inner()
        .map_err(|e| CgtError::Io(format!("flush: {}", e.error())))?;

    // Stream the fresh recording back through the canonical collector to
    // compute the exact stats footer, then rewrite with it embedded.
    let (_, section) = replay_for_section(&tmp, &Governor::unlimited())?;
    let (_, stats) = rewrite_trace(
        &tmp,
        path,
        &RewriteOptions {
            chunk_events,
            add_sections: vec![section],
            ..RewriteOptions::default()
        },
    )
    .map_err(CgtError::from)?;
    let _ = std::fs::remove_file(&tmp);
    Ok(stats)
}

/// Streams a file through the canonical collector under `governor`;
/// returns the observed census and the freshly computed `"cg"` section.
fn replay_for_section(
    path: &Path,
    governor: &Governor,
) -> Result<(TraceFooter, FooterSection), CgtError> {
    let replayed = cg_trace::replay_path_governed(
        path,
        Some(canonical_heap()),
        canonical_collector(),
        governor,
    )
    .map_err(CgtError::from)?;
    let mut collector = replayed.replayed.collector;
    let breakdown = collector.breakdown();
    let section = cg_section(collector.stats(), &breakdown);
    Ok((replayed.footer, section))
}

fn cmd_record(args: &[String]) -> Result<(), CgtError> {
    let (positional, flags) = split_flags(
        args,
        &[
            "--out",
            "--gc-every",
            "--chunk-events",
            "--object-space-mib",
        ],
        &["--segregated"],
    );
    let [spec] = positional.as_slice() else {
        usage();
    };
    let (workload, size) = Workload::parse_spec(spec).ok_or_else(|| {
        CgtError::Other(format!("unknown workload spec '{spec}' (try e.g. javac/1)"))
    })?;
    let gc_every = flags.get_positive("--gc-every").map(|v| v as u64);
    let chunk_events = flags
        .get_positive("--chunk-events")
        .unwrap_or(DEFAULT_CHUNK_EVENTS);
    // The canonical 12 MiB object space fits every size-1 workload; larger
    // problem sizes need a heap the passive recording collector (which
    // never frees) cannot exhaust.  The chosen sizing is embedded in the
    // header, so replays are self-describing either way.
    let mut heap = match flags.get_usize("--object-space-mib") {
        None => canonical_heap(),
        Some(mib) => {
            let mut heap = cg_heap::HeapConfig::with_object_space(
                mib * 1024 * 1024,
                cg_heap::HandleRepr::CgWide,
            );
            heap.handle_space_bytes = heap.handle_space_bytes.max(64 * 1024 * 1024);
            heap
        }
    };
    if flags.has("--segregated") {
        // O(size classes) allocation instead of the paper-faithful O(free
        // blocks) rover — the difference between minutes and seconds on
        // size-100 recordings (the golden corpus stays paper-faithful).
        heap = heap.with_alloc_policy(cg_heap::AllocPolicy::SegregatedFit);
    }
    let out = flags
        .get("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{}-s{}.cgt", workload.name(), size)));
    let stats = record_workload(workload, size, gc_every, heap, chunk_events, &out)?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "recorded {}/{} -> {} ({} events, {} bytes, stats footer embedded)",
        workload.name(),
        size,
        out.display(),
        stats.total(),
        bytes,
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), CgtError> {
    let (positional, _) = split_flags(args, &[], &[]);
    let [path] = positional.as_slice() else {
        usage();
    };
    let path = Path::new(path);
    let mut reader = open_trace(path).map_err(CgtError::from)?;
    let meta = reader.meta().clone();
    // Drain the stream to validate CRCs and reach the footer.
    loop {
        let more = if reader.is_shard_stream() {
            reader.next_shard_event().map(|e| e.is_some())
        } else {
            reader.next_event().map(|e| e.is_some())
        };
        if !more.map_err(CgtError::from)? {
            break;
        }
    }
    let footer = reader.footer().expect("stream drained").clone();
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);

    println!("{}", path.display());
    println!("  name:        {}", meta.name);
    if let Some(w) = &meta.workload {
        println!("  workload:    {}/{}", w.name, w.size);
    }
    if let Some(every) = meta.gc_every {
        println!("  gc-every:    {every} instructions");
    }
    if let Some(heap) = &meta.heap {
        println!(
            "  heap:        {} B objects / {} B handles ({:?}, {:?})",
            heap.object_space_bytes, heap.handle_space_bytes, heap.handle_repr, heap.alloc_policy
        );
    }
    match meta.stream {
        cg_trace::StreamKind::Plain => {}
        cg_trace::StreamKind::Shard { shard, shard_count } => {
            println!("  stream:      shard {shard} of {shard_count}");
        }
    }
    println!(
        "  events:      {} in {} chunk(s), {} bytes on disk ({:.2} B/event)",
        footer.total_events(),
        reader.chunks_read().saturating_sub(1),
        bytes,
        if footer.total_events() > 0 {
            bytes as f64 / footer.total_events() as f64
        } else {
            0.0
        }
    );
    for kind in EventKind::ALL {
        let count = footer.counts[kind.tag() as usize];
        if count > 0 {
            println!("    {:<18} {count}", kind.label());
        }
    }
    for section in &footer.sections {
        println!(
            "  section \"{}\": {} entries",
            section.name,
            section.entries.len()
        );
    }
    Ok(())
}

/// Compares two canonical sections entry-for-entry, printing every
/// difference.  Returns whether they match.
fn compare_sections(what: &str, expected: &FooterSection, actual: &FooterSection) -> bool {
    if expected.entries == actual.entries {
        return true;
    }
    eprintln!("{what}: statistics differ");
    for (key, want) in &expected.entries {
        match actual.entries.iter().find(|(k, _)| k == key) {
            Some((_, got)) if got == want => {}
            Some((_, got)) => eprintln!("  {key}: footer {want}, replay {got}"),
            None => eprintln!("  {key}: footer {want}, replay <missing>"),
        }
    }
    for (key, got) in &actual.entries {
        if !expected.entries.iter().any(|(k, _)| k == key) {
            eprintln!("  {key}: footer <missing>, replay {got}");
        }
    }
    false
}

fn cmd_verify(args: &[String]) -> Result<(), CgtError> {
    let (positional, flags) = split_flags(args, &["--mismatch-out", "--limits"], &["--re-record"]);
    let [path] = positional.as_slice() else {
        usage();
    };
    let path = Path::new(path);
    // `--limits ''` means the conservative untrusted-input defaults; no
    // flag at all means unlimited (the trusting golden-corpus gate).
    let governor = match flags.get("--limits") {
        Some(spec) => match ResourceLimits::parse(spec) {
            Ok(limits) => Governor::new(limits),
            Err(e) => {
                eprintln!("--limits: {e}");
                usage();
            }
        },
        None => Governor::unlimited(),
    };

    // Pass 1: full streaming read (every chunk CRC-checked) + canonical
    // replay under the governor, compared against the embedded footer.
    let (footer, fresh) = replay_for_section(path, &governor)?;
    let stored = footer.section(CG_SECTION).ok_or_else(|| {
        CgtError::Mismatch(format!(
            "{} has no \"{CG_SECTION}\" stats footer",
            path.display()
        ))
    })?;
    if !compare_sections(
        &format!("{} (stored footer vs replay)", path.display()),
        stored,
        &fresh,
    ) {
        return Err(CgtError::Mismatch(format!(
            "{}: replay statistics do not match the stored footer",
            path.display()
        )));
    }
    println!(
        "{}: CRCs OK, {} events, replay statistics match the footer",
        path.display(),
        footer.total_events()
    );

    if !flags.has("--re-record") {
        return Ok(());
    }

    // Pass 2: re-interpret the workload named in the header and demand the
    // fresh recording replay to byte-identical statistics.
    let meta = open_trace(path).map_err(CgtError::from)?.meta().clone();
    let workload_ref = meta.workload.as_ref().ok_or_else(|| {
        CgtError::Other(format!(
            "{} names no workload; cannot re-record",
            path.display()
        ))
    })?;
    let spec = format!("{}/{}", workload_ref.name, workload_ref.size);
    let (workload, size) = Workload::parse_spec(&spec)
        .ok_or_else(|| CgtError::Other(format!("unknown workload '{spec}'")))?;
    let rerecorded = flags
        .get("--mismatch-out")
        .map(PathBuf::from)
        .unwrap_or_else(|| path.with_extension("rerecorded.cgt"));
    let heap = meta.heap.unwrap_or_else(canonical_heap);
    record_workload(
        workload,
        size,
        meta.gc_every,
        heap,
        DEFAULT_CHUNK_EVENTS,
        &rerecorded,
    )?;
    let (refooter, _) = replay_for_section(&rerecorded, &governor)?;
    let restored = refooter
        .section(CG_SECTION)
        .expect("record_workload always embeds the stats footer");
    let census_ok = refooter.counts == footer.counts;
    if !census_ok {
        eprintln!(
            "{}: re-recorded event census differs from the committed trace",
            path.display()
        );
    }
    let stats_ok = compare_sections(
        &format!("{} (committed vs re-recorded)", path.display()),
        stored,
        restored,
    );
    if census_ok && stats_ok {
        let _ = std::fs::remove_file(&rerecorded);
        println!(
            "{}: live re-record of {spec} is byte-identical",
            path.display()
        );
        Ok(())
    } else {
        eprintln!(
            "{}: mismatching re-recording kept at {}",
            path.display(),
            rerecorded.display()
        );
        Err(CgtError::Mismatch(format!(
            "{}: live re-record of {spec} diverges from the committed trace",
            path.display()
        )))
    }
}

fn cmd_convert(args: &[String]) -> Result<(), CgtError> {
    let (positional, flags) = split_flags(
        args,
        &["--chunk-events"],
        &["--no-compress", "--strip-sections"],
    );
    let [src, dst] = positional.as_slice() else {
        usage();
    };
    let opts = RewriteOptions {
        chunk_events: flags
            .get_positive("--chunk-events")
            .unwrap_or(DEFAULT_CHUNK_EVENTS),
        compress: !flags.has("--no-compress"),
        keep_sections: !flags.has("--strip-sections"),
        add_sections: Vec::new(),
    };
    let (_, stats) = rewrite_trace(src, dst, &opts).map_err(CgtError::from)?;
    let from = std::fs::metadata(src).map(|m| m.len()).unwrap_or(0);
    let to = std::fs::metadata(dst).map(|m| m.len()).unwrap_or(0);
    println!(
        "converted {src} ({from} B) -> {dst} ({to} B), {} events",
        stats.total()
    );
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), CgtError> {
    let (positional, _) = split_flags(args, &[], &[]);
    let [a_path, b_path] = positional.as_slice() else {
        usage();
    };
    let mut a = open_trace(a_path).map_err(CgtError::from)?;
    let mut b = open_trace(b_path).map_err(CgtError::from)?;
    if a.is_shard_stream() || b.is_shard_stream() {
        return Err(CgtError::Other(
            "diff compares plain traces, not shard sub-streams".to_string(),
        ));
    }
    let mut identical = true;
    let mut seq = 0u64;
    let mut reported = 0;
    loop {
        let ea = a
            .next_event()
            .map_err(|e| CgtError::from(e).prefixed(a_path))?;
        let eb = b
            .next_event()
            .map_err(|e| CgtError::from(e).prefixed(b_path))?;
        match (ea, eb) {
            (None, None) => break,
            (Some(_), None) => {
                println!("event {seq}: only in {a_path} (second trace ended)");
                identical = false;
                break;
            }
            (None, Some(_)) => {
                println!("event {seq}: only in {b_path} (first trace ended)");
                identical = false;
                break;
            }
            (Some(x), Some(y)) => {
                if x != y && reported < 10 {
                    println!("event {seq}:\n  a: {x:?}\n  b: {y:?}");
                    identical = false;
                    reported += 1;
                }
            }
        }
        seq += 1;
    }
    let fa = a.footer().cloned().unwrap_or_default();
    let fb = b.footer().cloned().unwrap_or_default();
    for name in [CG_SECTION, VM_SECTION] {
        match (fa.section(name), fb.section(name)) {
            (Some(sa), Some(sb)) => {
                if sa.entries != sb.entries {
                    println!("section \"{name}\" differs:");
                    let _ = compare_sections(name, sa, sb);
                    identical = false;
                }
            }
            (None, None) => {}
            _ => {
                println!("section \"{name}\" present in only one trace");
                identical = false;
            }
        }
    }
    // Interpreter stats are properties of the recording run; surface them
    // when both sides carry the section.
    if let (Some(sa), Some(sb)) = (fa.section(VM_SECTION), fb.section(VM_SECTION)) {
        if let (Some(va), Some(vb)) = (vm_stats_from_section(sa), vm_stats_from_section(sb)) {
            if va.instructions != vb.instructions {
                println!(
                    "recording runs executed {} vs {} instructions",
                    va.instructions, vb.instructions
                );
            }
        }
    }
    if identical {
        println!("traces are identical ({seq} events)");
        Ok(())
    } else {
        Err(CgtError::Mismatch(format!("{a_path} and {b_path} differ")))
    }
}

/// Default daemon address — keep in sync with `ServerConfig::default()`.
const DEFAULT_DAEMON_ADDR: &str = "127.0.0.1:4270";

/// Maps a client-side protocol failure onto the `cgt` exit-code classes,
/// mirroring how local verification classes the same failures: corrupt
/// input exits 3, a tripped budget exits 4, transport trouble exits 6.
fn client_error(e: ClientError) -> CgtError {
    match e {
        ClientError::Proto(ProtoError::Io(io)) => CgtError::Io(io.to_string()),
        ClientError::Proto(e) => CgtError::Corrupt(e.to_string()),
        ClientError::Busy { reason } => CgtError::Other(format!("server busy: {reason}")),
        ClientError::Server { class, message } => {
            let text = format!("server error [{class}]: {message}");
            match class {
                ErrorClass::Corrupt => CgtError::Corrupt(text),
                ErrorClass::Limit | ErrorClass::Deadline => CgtError::Limit(text),
                ErrorClass::Io => CgtError::Io(text),
                _ => CgtError::Other(text),
            }
        }
    }
}

/// Drains `path` (validating every chunk CRC) and returns its embedded
/// `"cg"` stats footer section.
fn local_cg_section(path: &Path) -> Result<FooterSection, CgtError> {
    let mut reader = open_trace(path).map_err(CgtError::from)?;
    loop {
        let more = if reader.is_shard_stream() {
            reader.next_shard_event().map(|e| e.is_some())
        } else {
            reader.next_event().map(|e| e.is_some())
        };
        if !more.map_err(CgtError::from)? {
            break;
        }
    }
    let footer = reader.footer().expect("stream drained");
    footer.section(CG_SECTION).cloned().ok_or_else(|| {
        CgtError::Mismatch(format!(
            "{} has no \"{CG_SECTION}\" stats footer to compare against",
            path.display()
        ))
    })
}

fn cmd_submit(args: &[String]) -> Result<(), CgtError> {
    let (positional, flags) = split_flags(
        args,
        &["--addr", "--tenant", "--timeout-ms"],
        &["--expect-footer", "--watch"],
    );
    let [path] = positional.as_slice() else {
        usage();
    };
    let path = Path::new(path);
    let addr = flags.get("--addr").unwrap_or(DEFAULT_DAEMON_ADDR);
    let tenant = flags.get("--tenant").unwrap_or("default");
    let timeout_ms = flags.get_usize("--timeout-ms").unwrap_or(60_000) as u64;
    let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));

    let outcome = if flags.has("--watch") {
        let file = std::fs::File::open(path)
            .map_err(|e| CgtError::Io(format!("open {}: {e}", path.display())))?;
        let mut body = std::io::BufReader::new(file);
        let mut frames = 0u64;
        let outcome = proto::stream_events(addr, tenant, &mut body, timeout, |p| {
            frames += 1;
            eprintln!("progress: {} events, {} bytes", p.events, p.bytes);
        })
        .map_err(client_error)?;
        eprintln!("stream complete after {frames} progress frame(s)");
        outcome
    } else {
        proto::submit_path(addr, tenant, path, timeout).map_err(client_error)?
    };
    print!("{}", outcome.text);
    if outcome.cached {
        eprintln!("(answered from the server's result cache)");
    }

    if flags.has("--expect-footer") {
        let stored = local_cg_section(path)?;
        let served = FooterSection {
            name: CG_SECTION.to_string(),
            entries: outcome.cg_entries(),
        };
        if !compare_sections(
            &format!("{} (local footer vs server)", path.display()),
            &stored,
            &served,
        ) {
            return Err(CgtError::Mismatch(format!(
                "{}: server statistics do not match the local footer",
                path.display()
            )));
        }
        eprintln!(
            "server stats match the local footer ({} entries)",
            stored.entries.len()
        );
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), CgtError> {
    let (positional, flags) = split_flags(args, &["--addr", "--timeout-ms"], &[]);
    if !positional.is_empty() {
        usage();
    }
    let addr = flags.get("--addr").unwrap_or(DEFAULT_DAEMON_ADDR);
    let timeout_ms = flags.get_usize("--timeout-ms").unwrap_or(10_000) as u64;
    let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    let text = proto::fetch_metrics(addr, timeout).map_err(client_error)?;
    print!("{text}");
    Ok(())
}
