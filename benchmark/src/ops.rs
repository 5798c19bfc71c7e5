//! The operations the workloads time: exactly the public calls `cgt verify`
//! pass 1, `cgt record`'s recording step and a `cgt submit` make.

use std::io::BufWriter;
use std::path::Path;
use std::time::Duration;

use cg_trace::footer::{canonical_collector, canonical_heap, cg_section, CG_SECTION};
use cg_trace::proto::{self, SubmitOutcome};
use cg_trace::{
    open_trace, record_streaming, replay_path_governed, FooterSection, Governor, TraceFooter,
    TraceMeta, TraceStats, WorkloadRef,
};
use cg_vm::{NoopCollector, VmConfig, VmStats};
use cg_workloads::{Size, Workload};

/// A `name/size` input the benchmark synthesises and records itself.
#[derive(Clone, Copy)]
pub struct InputSpec {
    pub spec: &'static str,
    pub workload: &'static str,
    pub size: Size,
}

pub const MTRT_10: InputSpec = InputSpec {
    spec: "mtrt/10",
    workload: "mtrt",
    size: Size::S10,
};
pub const JAVAC_10: InputSpec = InputSpec {
    spec: "javac/10",
    workload: "javac",
    size: Size::S10,
};
pub const RAYTRACE_10: InputSpec = InputSpec {
    spec: "raytrace/10",
    workload: "raytrace",
    size: Size::S10,
};
pub const COMPRESS_100: InputSpec = InputSpec {
    spec: "compress/100",
    workload: "compress",
    size: Size::S100,
};

impl InputSpec {
    pub fn workload(&self) -> Workload {
        Workload::by_name(self.workload).expect("the four input workloads exist")
    }

    /// The header `cgt record` writes for this input.
    pub fn meta(&self) -> TraceMeta {
        TraceMeta {
            name: self.spec.to_string(),
            workload: Some(WorkloadRef {
                name: self.workload.to_string(),
                size: self.size.spec_number(),
            }),
            ..TraceMeta::default()
        }
    }

    pub fn by_spec(spec: &str) -> Option<InputSpec> {
        [MTRT_10, JAVAC_10, RAYTRACE_10, COMPRESS_100]
            .into_iter()
            .find(|i| i.spec == spec)
    }
}

/// The input a workload records: in set-up, or (the record workloads) as
/// its operation.  `serve_mixed` records nothing.
pub fn input_of(workload: &str) -> InputSpec {
    match workload {
        "replay_frag" => JAVAC_10,
        "record_compute" => COMPRESS_100,
        "record_alloc" => RAYTRACE_10,
        _ => MTRT_10,
    }
}

/// The interpreter configuration `cgt record` uses.
pub fn record_config() -> VmConfig {
    VmConfig {
        heap: canonical_heap(),
        ..VmConfig::default()
    }
}

/// What one recording produced, for the reference check.
pub struct Recorded {
    pub vm: VmStats,
    pub census: TraceStats,
}

/// `Workload::program` → `record_streaming(NoopCollector)` → flushed file:
/// the recording step of `cgt record`.
pub fn record_to_file(input: &InputSpec, path: &Path) -> Result<Recorded, String> {
    record_program(input, input.workload().program(input.size), path)
}

/// [`record_to_file`] for an already synthesised program.
pub fn record_program(
    input: &InputSpec,
    program: cg_vm::Program,
    path: &Path,
) -> Result<Recorded, String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let (outcome, census, vm, w) = record_streaming(
        &input.meta(),
        program,
        record_config(),
        NoopCollector::new(),
        BufWriter::new(file),
    )
    .map_err(|e| format!("recording {}: {e}", input.spec))?;
    w.into_inner()
        .map_err(|e| format!("flush: {}", e.error()))?;
    drop(vm);
    Ok(Recorded {
        vm: outcome.stats,
        census,
    })
}

/// What one verify replay produced, for the reference check.
pub struct Verified {
    pub footer: TraceFooter,
    pub cg: FooterSection,
}

/// `replay_path_governed(path, None, canonical_collector(), unlimited)` →
/// `cg_section`: pass 1 of `cgt verify`.
pub fn verify_replay(path: &Path) -> Result<Verified, String> {
    let replayed = replay_path_governed(path, None, canonical_collector(), &Governor::unlimited())
        .map_err(|e| format!("replay {}: {e}", path.display()))?;
    let mut collector = replayed.replayed.collector;
    let breakdown = collector.breakdown();
    Ok(Verified {
        cg: cg_section(collector.stats(), &breakdown),
        footer: replayed.footer,
    })
}

/// Drains a trace and returns its embedded footer (census + sections).
pub fn read_footer(path: &Path) -> Result<TraceFooter, String> {
    let mut reader = open_trace(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    while reader
        .next_event()
        .map_err(|e| format!("read {}: {e}", path.display()))?
        .is_some()
    {}
    Ok(reader.footer().cloned().expect("stream drained"))
}

pub fn embedded_cg(footer: &TraceFooter, path: &Path) -> Result<Vec<(String, u64)>, String> {
    footer
        .section(CG_SECTION)
        .map(|s| s.entries.clone())
        .ok_or_else(|| format!("{} has no \"cg\" footer", path.display()))
}

/// The two ways a client hands the same bytes to the daemon.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// `submit_path`: spooled upload, evaluated after `END`.
    Submit,
    /// `stream_events`: live `STREAM` session, evaluated as bytes arrive.
    Stream,
}

pub const SESSION_TIMEOUT: Option<Duration> = Some(Duration::from_secs(60));
pub const TENANT: &str = "default";

/// One client session over the socket, as `cgt submit [--watch]` runs it.
pub fn session(addr: &str, path: &Path, route: Route) -> Result<SubmitOutcome, String> {
    match route {
        Route::Submit => proto::submit_path(addr, TENANT, path, SESSION_TIMEOUT),
        Route::Stream => {
            let file = std::fs::File::open(path).map_err(|e| format!("open: {e}"))?;
            let mut body = std::io::BufReader::new(file);
            proto::stream_events(addr, TENANT, &mut body, SESSION_TIMEOUT, |_| {})
        }
    }
    .map_err(|e| format!("{route:?} {}: {e}", path.display()))
}

/// Checks a daemon verdict against the reference event count and `"cg"`
/// entries.
pub fn check_verdict(
    outcome: &SubmitOutcome,
    events: u64,
    cg: &[(String, u64)],
) -> Result<(), String> {
    if outcome.cached {
        return Err("verdict came from the result cache of a non-memoizing daemon".to_string());
    }
    if outcome.events() != Some(events) {
        return Err(format!(
            "verdict reports {:?} events, reference {events}",
            outcome.events()
        ));
    }
    crate::reference::diff("cg", cg, &outcome.cg_entries())
}
