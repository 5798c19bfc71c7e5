//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds.  `../BENCHMARK.json` is generated
//! from these tables (`cg-benchmark manifest`) and every later perf or
//! simplicity issue names its claim with the names fixed here.

use cg_stats::Json;

/// How long one run measures, in seconds (the driver passes it back as
/// `--seconds`).  136 driver runs plus set-up must fit 3420 s on 2 cores.
pub const RUN_SECONDS: u64 = 12;

/// One workload: its normative name and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "replay_flat",
        why: "cgt verify pass 1 on mtrt/10 (3.47M events): decode, gates and shadow heap dominate, allocator ~1/4; a cg-trace or cg-core change shows here",
    },
    WorkloadSpec {
        name: "replay_frag",
        why: "same replay loop on javac/10: long-lived contaminated blocks fragment the heap so Heap::allocate is ~80% of it; a cg-heap change shows here",
    },
    WorkloadSpec {
        name: "record_compute",
        why: "cgt record of compress/100 (90M insns, 7.8k events): cg-vm dispatch is ~all the work; the bypass workload for every replay-side change",
    },
    WorkloadSpec {
        name: "record_alloc",
        why: "cgt record of raytrace/10 (3.47M events): call/allocation-heavy VM plus the cg-trace write side (varint, LZSS, CRC, file)",
    },
    WorkloadSpec {
        name: "serve_mixed",
        why: "cgtd, 2 closed-loop clients, the 8 golden size-1 traces by upload and by STREAM in seed-shuffled order: the operator's latency and sessions/s",
    },
    WorkloadSpec {
        name: "serve_sharded",
        why: "cgtd with a 2-shard grant, 1 client uploading the replay_flat file: the only route where partitioning and shard waits do most of the work",
    },
];

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric with its regression bound (share of the parent's
/// median by which it may get worse).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these (an *operation* is one whole
/// verify replay, one whole recording, or one daemon session).  The
/// eighth end-to-end number, `failed_share`, must be 0 and is carried by
/// the result line's `failed` / `attempted` fields instead of a bound.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "insns_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sessions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric (traced run only; no bound).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layer = crate.  A metric reads 0 on a workload whose timed operation
/// never enters that layer (README.md has the metric → workload table).
pub const PER_LAYER: [PerLayer; 82] = [
    // cg-workloads
    lower("workloads.synthesize_ms", "ms"),
    // cg-vm: bare Vm::new + run, NoopCollector, no sink
    lower("vm.interp_ns_per_insn", "ns"),
    lower("vm.unfused_ns_per_insn", "ns"),
    lower("vm.insns", "count"),
    lower("vm.method_calls", "count"),
    higher("vm.call_site_hit_ratio", "ratio"),
    lower("vm.emit_ns_per_event", "ns"),
    // cg-trace, write side
    lower("trace.encode_ns_per_event", "ns"),
    lower("trace.encode_raw_ns_per_event", "ns"),
    lower("trace.file_write_ms", "ms"),
    lower("trace.bytes_per_event", "B"),
    // cg-trace, read side
    lower("trace.file_read_ns_per_event", "ns"),
    lower("trace.decode_ns_per_event", "ns"),
    lower("trace.decode_raw_ns_per_event", "ns"),
    lower("trace.gates_ns_per_event", "ns"),
    lower("trace.governor_ns_per_event", "ns"),
    lower("trace.footer_compare_ms", "ms"),
    // cg-trace, partition + sharded evaluation
    lower("trace.partition_ns_per_event", "ns"),
    lower("trace.partition_bytes_written", "B"),
    lower("trace.shard_skew", "ratio"),
    lower("trace.sharded_eval_ns_per_event", "ns"),
    higher("trace.sharded_vs_single_ratio", "ratio"),
    // cg-trace, session protocol
    lower("trace.proto_frame_ns_per_mib", "ns"),
    // cg-heap
    lower("heap.shadow_ns_per_event", "ns"),
    lower("heap.allocate_ns_per_alloc", "ns"),
    lower("heap.allocate_ns_per_alloc_segregated", "ns"),
    lower("heap.search_steps_per_alloc", "ratio"),
    lower("heap.slot_write_ns", "ns"),
    lower("heap.objects_allocated", "count"),
    higher("heap.objects_freed", "count"),
    lower("heap.peak_live_objects", "count"),
    // cg-core: a timing Collector wrapper around ContaminatedGc
    lower("core.on_allocate_ns", "ns"),
    lower("core.on_allocate_calls", "count"),
    lower("core.on_reference_store_ns", "ns"),
    lower("core.on_reference_store_calls", "count"),
    lower("core.on_static_store_ns", "ns"),
    lower("core.on_static_store_calls", "count"),
    lower("core.on_return_value_ns", "ns"),
    lower("core.on_return_value_calls", "count"),
    lower("core.on_frame_push_ns", "ns"),
    lower("core.on_frame_push_calls", "count"),
    lower("core.on_frame_pop_ns", "ns"),
    lower("core.on_frame_pop_calls", "count"),
    lower("core.on_object_access_ns", "ns"),
    lower("core.on_object_access_calls", "count"),
    lower("core.on_program_end_ns", "ns"),
    lower("core.on_program_end_calls", "count"),
    lower("core.hooks_ns_per_event", "ns"),
    lower("core.atomic_domain_ns_per_event", "ns"),
    lower("core.mutex_domain_ns_per_event", "ns"),
    lower("core.unions", "count"),
    lower("core.contaminations", "count"),
    higher("core.static_opt_skips", "count"),
    higher("core.objects_collected", "count"),
    higher("core.collectable_pct", "%"),
    // cg-unionfind, reached only through cg-core hooks
    lower("unionfind.unions_per_event", "ratio"),
    // cg-server: client-side spans plus ServerHandle::metrics()
    lower("server.admit_ms", "ms"),
    lower("server.upload_ms", "ms"),
    lower("server.verdict_ms", "ms"),
    lower("server.submit_session_ms_p50", "ms"),
    lower("server.stream_session_ms_p50", "ms"),
    lower("server.sharded_session_ms_p50", "ms"),
    lower("server.cached_session_ms_p50", "ms"),
    lower("server.evaluate_session_ms", "ms"),
    lower("server.proto_overhead_ms", "ms"),
    higher("server.worker_busy_share", "ratio"),
    lower("server.busy_share", "ratio"),
    higher("server.sessions_total", "count"),
    higher("server.sessions_streamed", "count"),
    higher("server.sessions_sharded", "count"),
    higher("server.cache_hits", "count"),
    lower("server.errors_total", "count"),
    // who does the work where: each layer's self time as a share of the
    // traced operation (checked to sum to the traced wall time)
    lower("share.cg_workloads", "ratio"),
    lower("share.cg_vm", "ratio"),
    lower("share.cg_trace", "ratio"),
    lower("share.cg_heap", "ratio"),
    lower("share.cg_core", "ratio"),
    lower("share.cg_server", "ratio"),
    lower("share.os_file", "ratio"),
    lower("share.bench", "ratio"),
    lower("bench.unattributed_share", "ratio"),
    lower("bench.trace_overhead_ratio", "ratio"),
];

/// The layer labels spans carry, paired with their `share.*` metric.
pub const LAYER_SHARES: [(&str, &str); 8] = [
    ("cg-workloads", "share.cg_workloads"),
    ("cg-vm", "share.cg_vm"),
    ("cg-trace", "share.cg_trace"),
    ("cg-heap", "share.cg_heap"),
    ("cg-core", "share.cg_core"),
    ("cg-server", "share.cg_server"),
    ("os-file", "share.os_file"),
    ("bench", "share.bench"),
];

/// Per-layer metrics that are exact counts (or ratios of exact counts):
/// they must read bit-identically on every run and every seed.
pub fn is_exact(name: &str) -> bool {
    let unit = PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit);
    (name.starts_with("core.") && matches!(unit, Some("count" | "%")))
        || name.starts_with("heap.objects_")
        || matches!(
            name,
            "heap.peak_live_objects"
                | "heap.search_steps_per_alloc"
                | "vm.insns"
                | "vm.method_calls"
                | "vm.call_site_hit_ratio"
                | "trace.bytes_per_event"
                | "trace.partition_bytes_written"
                | "trace.shard_skew"
                | "unionfind.unions_per_event"
        )
}

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

/// The contents of `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.to_string())),
                            ("why", Json::Str(w.why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.to_string())),
                            ("unit", Json::Str(m.unit.to_string())),
                            ("better", Json::Str(m.better.label().to_string())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.to_string())),
                            ("unit", Json::Str(m.unit.to_string())),
                            ("better", Json::Str(m.better.label().to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
