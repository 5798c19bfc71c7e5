//! Fuzz-throughput benchmarks: how fast the differential harness can
//! manufacture and check scenarios (`BENCH_fuzz.json`).
//!
//! Three figures per profile:
//!
//! * `gen/<profile>` — generating one program (pure generator cost);
//! * `record/<profile>` — generating + recording the collector-free
//!   baseline run as `.cgt` bytes (the oracle's fixed floor);
//! * `oracle/<profile>` — one full differential check: ground truth,
//!   contaminated GC live + replay + incremental, sharded at {1,2,4,8},
//!   parallel evaluation, recycling soundness.
//!
//! Before timing anything, every profile's seed-0 program is checked once —
//! a benchmark of a failing oracle would be measuring panic unwinding.
//!
//! Each label is also counted once, untimed, on its first seed: the
//! program's methods, the events and instructions it records, the
//! `OracleReport`, and the heap allocations must equal the label's line in
//! `EXPECTED` (see `cg_bench::microbench`).
//!
//! Two derived programs/sec figures are embedded in the JSON so the bench
//! trajectory accumulates comparable points across PRs:
//!
//! * `record_path` — generate + record one program (interpretation-bound;
//!   this is the figure the fused dispatch loop moves). Hard-asserted to
//!   stay above the PR 4 full-oracle figure of ~1000 programs/s: PR 4's
//!   whole differential check ran at ~1000/s, so its record leg was
//!   necessarily faster than that, and the interpreter must never fall
//!   back below it.
//! * `full_oracle` — one complete differential check. Slower per program
//!   than at PR 4 because the oracle has since roughly doubled its legs
//!   (domain differential, trace mutation, fusion differential), which is
//!   why the hard regression floor is on the record path, not here.

mod common;

use cg_bench::BenchHarness;
use cg_fuzz::{check_program, fuzz_vm_config, generate, GenProfile, OracleOptions};
use cg_stats::Json;
use cg_testutil::TestRng;
use cg_trace::{record_streaming, TraceMeta};
use cg_vm::NoopCollector;

/// One line per label: its counts, zero counters omitted.
const EXPECTED: &[&str] = &[
    "gen/alloc-heavy methods=4 allocations=327",
    "record/alloc-heavy events=730 instructions=1079 allocations=784",
    "oracle/alloc-heavy trace_events=731 instructions=1079 objects_created=313 allocations=10025",
    "gen/store-heavy methods=4 allocations=240",
    "record/store-heavy events=49 instructions=31 allocations=382",
    "oracle/store-heavy trace_events=49 instructions=31 objects_created=6 allocations=2744",
    "gen/deep-calls methods=21 allocations=603",
    "record/deep-calls events=891 instructions=565 allocations=1024",
    "oracle/deep-calls trace_events=891 instructions=565 objects_created=154 allocations=8596",
    "gen/threads methods=6 allocations=370",
    "record/threads events=96 instructions=80 allocations=577",
    "oracle/threads trace_events=96 instructions=80 objects_created=21 allocations=3975",
    "gen/recycle-churn methods=5 allocations=337",
    "record/recycle-churn events=1711 instructions=2161 allocations=1288",
    "oracle/recycle-churn trace_events=1713 instructions=2161 objects_created=761 allocations=23139",
    "gen/array-heavy methods=5 allocations=256",
    "record/array-heavy events=24 instructions=17 allocations=402",
    "oracle/array-heavy trace_events=24 instructions=17 objects_created=5 allocations=2789",
];

fn main() {
    let mut harness = BenchHarness::new("fuzz").with_counts(EXPECTED, common::allocations);
    let options = OracleOptions::default();

    // Correctness gate first.
    for profile in GenProfile::all() {
        let program = generate(0, profile);
        if let Err(failure) = check_program(&program, &options) {
            panic!(
                "oracle must pass before being timed: {}: {failure}",
                profile.name
            );
        }
    }

    for profile in GenProfile::all() {
        let mut seeds = TestRng::new(7);
        harness.bench_counted(format!("gen/{}", profile.name), 64, || {
            [(
                "methods",
                generate(seeds.next_u64(), profile).method_count() as u64,
            )]
        });

        let mut seeds = TestRng::new(7);
        harness.bench_counted(format!("record/{}", profile.name), 32, || {
            let program = generate(seeds.next_u64(), profile);
            let (outcome, census, ..) = record_streaming(
                &TraceMeta::default(),
                program,
                fuzz_vm_config(None),
                NoopCollector::new(),
                Vec::new(),
            )
            .expect("generated programs record");
            [
                ("events", census.total()),
                ("instructions", outcome.stats.instructions),
            ]
        });

        let mut seeds = TestRng::new(7);
        harness.bench_counted(format!("oracle/{}", profile.name), 8, || {
            let program = generate(seeds.next_u64(), profile);
            let report = check_program(&program, &options).expect("generated programs pass");
            [
                ("trace_events", report.trace_events as u64),
                ("instructions", report.instructions),
                ("objects_created", report.objects_created),
                ("threads_spawned", report.threads_spawned),
            ]
        });
    }

    // Aggregate programs/sec across the six profiles (total time for one
    // program of each, inverted), for the two pipeline depths described in
    // the module docs.
    let (mut record_ns, mut oracle_ns) = (0.0f64, 0.0f64);
    for profile in GenProfile::all() {
        record_ns += harness
            .ns_of(&format!("record/{}", profile.name))
            .expect("record leg benched");
        oracle_ns += harness
            .ns_of(&format!("oracle/{}", profile.name))
            .expect("oracle leg benched");
    }
    let profiles = GenProfile::all().len() as f64;
    let record_pps = profiles * 1e9 / record_ns;
    let oracle_pps = profiles * 1e9 / oracle_ns;

    // PR 4 measured ~1000 programs/s through its (shallower) full oracle;
    // the interpretation-bound record path must never regress below that.
    const PR4_FULL_ORACLE_PPS: f64 = 1000.0;
    println!(
        "fuzz programs/sec: record path {record_pps:.0}/s, full oracle {oracle_pps:.0}/s \
         (PR 4 full-oracle reference {PR4_FULL_ORACLE_PPS:.0}/s)"
    );
    assert!(
        record_pps > PR4_FULL_ORACLE_PPS,
        "generate+record throughput regressed below the PR 4 full-oracle figure: \
         {record_pps:.0} programs/s <= {PR4_FULL_ORACLE_PPS:.0} programs/s"
    );

    harness.finish([(
        "fuzz_programs_per_sec",
        Json::Obj(vec![
            ("record_path".to_string(), Json::Num(record_pps)),
            ("full_oracle".to_string(), Json::Num(oracle_pps)),
            (
                "pr4_full_oracle_reference".to_string(),
                Json::Num(PR4_FULL_ORACLE_PPS),
            ),
        ]),
    )]);
}
