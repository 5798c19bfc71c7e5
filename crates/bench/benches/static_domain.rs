//! Contention benchmarks for the shared static domain.
//!
//! The §3.3 static set is the only state the collector shards share, so its
//! concurrency behaviour decides whether shard scaling is real on real
//! cores.  This bench pits the two [`DomainImpl`]s against each other:
//!
//! * a **microbench family**: N producer threads hammer one domain with a
//!   seeded mix of `insert`/`union`/`node_of`/`reason` calls plus a
//!   configurable escalation rate (`note_thread_shared`/`absorb_nonstatic`),
//!   under a union-heavy and a read-heavy profile, at 1, 2 and 4 threads —
//!   labels `static_domain/<profile>/<impl>/threads_<n>`;
//! * an **end-to-end leg**: the mtrt-style trace from `shard_scaling`,
//!   evaluated with 4 shards on OS threads under each implementation —
//!   labels `static_domain/e2e_mtrt/<impl>/shards_4`.
//!
//! On a runner with ≥ 4 cores the bench *asserts* that the lock-free domain
//! beats the mutex domain by ≥ 2x on the 4-thread union-heavy profile; with
//! 2-3 cores the ratio is printed (with a warning below 2x) but not
//! asserted, since 4 producer threads oversubscribe a small shared runner
//! and scheduler noise would make a hard gate flaky; on a single core the
//! threads serialise and the comparison is skipped entirely (the numbers
//! then measure per-op overhead, not contention).  `BENCH_static_domain.json`
//! records the runner's core count so the numbers can be read in context.
//!
//! Each label is also counted once, untimed: the domain's final block,
//! member and promotion counts (fixed by the seeded op mix whatever the
//! interleaving), or the end-to-end leg's events and collector work
//! counters, plus the calling thread's heap allocations, must equal the
//! label's line in `EXPECTED` (see `cg_bench::microbench`).

mod common;

use std::hint::black_box;

use cg_bench::runner::mtrt_style;
use cg_bench::{cg_counts, BenchHarness};
use cg_core::{CgConfig, DomainImpl, StaticDomain, StaticNodeId, StaticReason};
use cg_stats::Json;
use cg_testutil::TestRng;
use cg_trace::{parallel_eval_governed, partition, record, Governor};
use cg_vm::{Handle, NoopCollector, VmConfig};

/// One line per label: its counts, zero counters omitted.
const EXPECTED: &[&str] = &[
    "static_domain/union_heavy/mutex/threads_1 blocks=135 members=658 promotions=658 allocations=28",
    "static_domain/union_heavy/mutex/threads_2 blocks=260 members=1228 promotions=1228 allocations=24",
    "static_domain/union_heavy/mutex/threads_4 blocks=533 members=2455 promotions=2455 allocations=30",
    "static_domain/union_heavy/atomic/threads_1 blocks=135 members=658 promotions=658 allocations=208",
    "static_domain/union_heavy/atomic/threads_2 blocks=260 members=1228 promotions=1228 allocations=88",
    "static_domain/union_heavy/atomic/threads_4 blocks=533 members=2455 promotions=2455 allocations=94",
    "static_domain/read_heavy/mutex/threads_1 blocks=67 members=228 promotions=228 allocations=23",
    "static_domain/read_heavy/mutex/threads_2 blocks=117 members=391 promotions=391 allocations=24",
    "static_domain/read_heavy/mutex/threads_4 blocks=220 members=696 promotions=696 allocations=30",
    "static_domain/read_heavy/atomic/threads_1 blocks=67 members=228 promotions=228 allocations=116",
    "static_domain/read_heavy/atomic/threads_2 blocks=117 members=391 promotions=391 allocations=88",
    "static_domain/read_heavy/atomic/threads_4 blocks=220 members=696 promotions=696 allocations=94",
    "static_domain/e2e_mtrt/mutex/shards_4 events_replayed=357281 unions=24799 contaminations=32949 static_opt_skips=8150 objects_collected=88000 allocations=22",
    "static_domain/e2e_mtrt/atomic/shards_4 events_replayed=357281 unions=24799 contaminations=32949 static_opt_skips=8150 objects_collected=88000 allocations=23",
];

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const IMPLS: [DomainImpl; 2] = [DomainImpl::Mutex, DomainImpl::Atomic];
/// Domain ops per producer thread per iteration.
const OPS_PER_THREAD: usize = 4_000;
/// Pre-seeded nodes every thread contends on.
const SHARED_NODES: usize = 64;

fn impl_name(which: DomainImpl) -> &'static str {
    match which {
        DomainImpl::Atomic => "atomic",
        DomainImpl::Mutex => "mutex",
    }
}

/// Per-mille op mix for one producer thread; the remainder up to 1000 is
/// `same_block` probes.
#[derive(Clone, Copy)]
struct OpMix {
    name: &'static str,
    insert: u32,
    union: u32,
    /// Escalation rate: half `note_thread_shared`, half `absorb_nonstatic`.
    escalate: u32,
    reason: u32,
    node_of: u32,
}

/// The profile the tentpole is about: mostly unions (the shard escalation
/// path), a trickle of inserts and escalations, some reads.
const UNION_HEAVY: OpMix = OpMix {
    name: "union_heavy",
    insert: 150,
    union: 550,
    escalate: 60,
    reason: 80,
    node_of: 80,
};

/// The steady-state profile: shards mostly *ask* about the static set
/// (`same_block` on every store, `node_of` on every scan) and rarely grow it.
const READ_HEAVY: OpMix = OpMix {
    name: "read_heavy",
    insert: 40,
    union: 80,
    escalate: 20,
    reason: 300,
    node_of: 260,
};

/// One producer thread's run: local inserts plus contended ops against the
/// shared node set.  Returns a checksum so the optimizer keeps the reads.
fn producer(domain: &StaticDomain, shared: &[StaticNodeId], thread: usize, mix: OpMix) -> u64 {
    let mut rng = TestRng::new(0x5D0 + thread as u64);
    let mut local: Vec<StaticNodeId> = Vec::with_capacity(OPS_PER_THREAD / 4);
    let mut sum = 0u64;
    let pick = |rng: &mut TestRng, local: &[StaticNodeId]| {
        // Half the operands come from the shared set: that is where the
        // cross-thread contention lives.
        if local.is_empty() || rng.gen_bool(0.5) {
            shared[rng.gen_range(0, shared.len())]
        } else {
            local[rng.gen_range(0, local.len())]
        }
    };
    for i in 0..OPS_PER_THREAD {
        let r = rng.gen_range(0, 1000) as u32;
        if r < mix.insert {
            let node = domain.insert(StaticReason::StaticReference);
            let handle = Handle::from_index((SHARED_NODES + thread * OPS_PER_THREAD + i) as u32);
            domain.register_members(&[handle], node);
            local.push(node);
        } else if r < mix.insert + mix.union {
            let a = pick(&mut rng, &local);
            let b = pick(&mut rng, &local);
            sum += u64::from(domain.union(a, b));
        } else if r < mix.insert + mix.union + mix.escalate {
            let a = pick(&mut rng, &local);
            if rng.gen_bool(0.5) {
                domain.note_thread_shared(a);
            } else {
                domain.absorb_nonstatic(a);
            }
        } else if r < mix.insert + mix.union + mix.escalate + mix.reason {
            sum += domain.reason(pick(&mut rng, &local)) as u64;
        } else if r < mix.insert + mix.union + mix.escalate + mix.reason + mix.node_of {
            let h = Handle::from_index(rng.gen_range(0, SHARED_NODES) as u32);
            sum += domain.node_of(h).map_or(0, u64::from);
        } else {
            let a = pick(&mut rng, &local);
            let b = pick(&mut rng, &local);
            sum += u64::from(domain.same_block(a, b));
        }
    }
    sum
}

/// One timed iteration: fresh domain, `threads` producers over the shared
/// node set.  A fresh domain per iteration keeps the workload honest —
/// unions are irreversible, so a reused domain would degenerate into
/// all-singletons-already-merged.  Returns the domain and the producers'
/// checksum.
fn contention_iteration(which: DomainImpl, threads: usize, mix: OpMix) -> (StaticDomain, u64) {
    let domain = StaticDomain::with_impl(which);
    let shared: Vec<StaticNodeId> = (0..SHARED_NODES)
        .map(|i| {
            let node = domain.insert(StaticReason::StaticReference);
            domain.register_members(&[Handle::from_index(i as u32)], node);
            node
        })
        .collect();
    let sum = if threads == 1 {
        producer(&domain, &shared, 0, mix)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (domain, shared) = (&domain, &shared);
                    scope.spawn(move || producer(domain, shared, t, mix))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    };
    (domain, sum)
}

fn bench_contention(h: &mut BenchHarness, cores: usize) {
    for mix in [UNION_HEAVY, READ_HEAVY] {
        for which in IMPLS {
            for threads in THREAD_COUNTS {
                let label = format!(
                    "static_domain/{}/{}/threads_{threads}",
                    mix.name,
                    impl_name(which)
                );
                h.count(&label, || {
                    let (domain, _) = contention_iteration(which, threads, mix);
                    [
                        ("blocks", domain.block_count() as u64),
                        ("members", domain.member_count() as u64),
                        ("promotions", domain.promotions()),
                    ]
                });
                h.bench(label, 8, || {
                    black_box(contention_iteration(which, threads, mix))
                });
            }
        }
        for threads in THREAD_COUNTS {
            let mutex = h
                .ns_of(&format!(
                    "static_domain/{}/mutex/threads_{threads}",
                    mix.name
                ))
                .unwrap();
            let atomic = h
                .ns_of(&format!(
                    "static_domain/{}/atomic/threads_{threads}",
                    mix.name
                ))
                .unwrap();
            println!(
                "  {}: atomic is {:.2}x the mutex throughput at {threads} thread(s)",
                mix.name,
                mutex / atomic
            );
        }
    }

    // The acceptance gate: contended unions must actually scale.  The hard
    // assertion arms only with >= 4 cores — on 2-3 core shared runners the
    // 4 producer threads oversubscribe and scheduler noise can push the
    // ratio below 2x for reasons unrelated to the change under test, which
    // would make the CI gate flaky.  Those runners still print the ratio
    // (and a loud warning when it is below 2x) so a real regression is
    // visible in the log.
    let mutex4 = h
        .ns_of("static_domain/union_heavy/mutex/threads_4")
        .unwrap();
    let atomic4 = h
        .ns_of("static_domain/union_heavy/atomic/threads_4")
        .unwrap();
    let ratio = mutex4 / atomic4;
    if cores >= 4 {
        assert!(
            ratio >= 2.0,
            "lock-free domain should be >= 2x the mutex domain on the 4-thread \
             union-heavy profile with {cores} cores (got {ratio:.2}x)"
        );
        println!(
            "union_heavy/threads_4: atomic beats mutex {ratio:.2}x (gate: >= 2x on {cores} cores)"
        );
    } else if cores >= 2 {
        if ratio >= 2.0 {
            println!(
                "union_heavy/threads_4: atomic beats mutex {ratio:.2}x on {cores} cores \
                 (hard >= 2x gate arms at 4 cores)"
            );
        } else {
            println!(
                "WARNING union_heavy/threads_4: only {ratio:.2}x on {cores} cores — below the \
                 2x target, but the hard gate arms at 4 cores (oversubscribed runners are noisy)"
            );
        }
    } else {
        println!(
            "union_heavy/threads_4: {ratio:.2}x on a single core — >= 2x contention gate skipped \
             (threads serialise, nothing contends)"
        );
    }
}

fn cg_config(which: DomainImpl) -> CgConfig {
    CgConfig {
        verify_tainted: false,
        ..CgConfig::preferred()
    }
    .with_domain_impl(which)
}

/// End-to-end: the same 4-shard parallel evaluation `shard_scaling` times,
/// once per domain implementation, after proving both produce identical
/// statistics.
fn bench_e2e(h: &mut BenchHarness, vm_config: VmConfig) {
    let unlimited = Governor::unlimited();
    let (trace, _, _) = record(
        "mtrt_style".to_string(),
        // Half of `shard_scaling`'s iterations keep this leg a small share
        // of the bench's runtime.
        cg_workloads::synthesize(&mtrt_style(8_000)),
        vm_config,
        NoopCollector::new(),
    )
    .expect("recording succeeds");
    let pt = partition(&trace, 4);

    let eval = |which: DomainImpl| {
        parallel_eval_governed(&pt, vm_config.heap, cg_config(which), &unlimited)
            .expect("parallel eval succeeds")
    };
    let mutex_outcome = eval(DomainImpl::Mutex);
    let atomic_outcome = eval(DomainImpl::Atomic);
    assert_eq!(
        mutex_outcome.stats, atomic_outcome.stats,
        "domain implementations must agree end-to-end"
    );
    println!("e2e_mtrt: both domain implementations produce identical CgStats");

    for which in IMPLS {
        let label = format!("static_domain/e2e_mtrt/{}/shards_4", impl_name(which));
        h.bench_counted(label, 3, || {
            let outcome = eval(which);
            [("events_replayed", outcome.events_replayed as u64)]
                .into_iter()
                .chain(cg_counts(&outcome.stats))
        });
    }
}

fn main() {
    let vm_config = VmConfig::default().with_heap(cg_bench::runner::experiment_heap());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("static_domain: {cores} hardware thread(s) available");

    let mut harness = BenchHarness::new("static_domain").with_counts(EXPECTED, common::allocations);

    bench_contention(&mut harness, cores);
    bench_e2e(&mut harness, vm_config);

    harness.finish([("cores", Json::Num(cores as f64))]);
}
