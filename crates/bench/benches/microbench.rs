//! Micro-benchmarks of the contaminated collector's building blocks.
//!
//! The paper's performance argument rests on three cost claims: maintaining
//! the equilive sets is a nearly constant amount of work per reference store
//! (union/find with path compression), collecting at a frame pop is cheap
//! (no marking), and the traditional collector's marking pass is the
//! expensive part being avoided.  The store barrier and the frame pop are
//! measured in `gc_hot_path`; these benches cover the union/find forest on
//! its own, the marking pass, and end-to-end interpreter throughput on a
//! call-heavy workload (`interp/jess_size1_noop_run`).
//!
//! Each label is timed into `BENCH_microbench.json` and counted once,
//! untimed: the counts of one iteration must equal its line in `EXPECTED`
//! (see `cg_bench::microbench`).

mod common;

use cg_baseline::MarkSweep;
use cg_bench::BenchHarness;
use cg_heap::{ClassId, Heap, HeapConfig, Value};
use cg_unionfind::DisjointSets;
use cg_vm::{Collector, NoopCollector, RootSet, Vm, VmConfig};
use cg_workloads::{Size, Workload};
use std::hint::black_box;

/// One line per label: its counts, zero counters omitted.
const EXPECTED: &[&str] = &[
    "unionfind/union_find_1024_elements sets=1 max_rank=1 allocations=2",
    "unionfind/find_after_compression",
    "msa/mark_sweep_4096_live_4096_dead marked_objects=4096 freed_objects=4096 search_steps=8192 allocations=8936",
    "interp/jess_size1_noop_run instructions=186296 method_calls=2003 allocations=11688",
];

fn bench_unionfind(h: &mut BenchHarness) {
    h.bench_counted("unionfind/union_find_1024_elements", 2_000, || {
        let mut sets = DisjointSets::with_capacity(1024);
        for _ in 0..1024 {
            sets.make_set();
        }
        for i in 0..1023u32 {
            sets.union(i, i + 1);
        }
        let root = sets.find(0);
        [
            ("sets", sets.set_count() as u64),
            ("max_rank", u64::from(sets.max_rank())),
            ("root", u64::from(root)),
        ]
    });
    let mut sets = DisjointSets::with_capacity(4096);
    for _ in 0..4096 {
        sets.make_set();
    }
    for i in 0..4095u32 {
        sets.union(i, i + 1);
    }
    h.bench_counted("unionfind/find_after_compression", 1_000_000, || {
        [("root", u64::from(sets.find(black_box(4095))))]
    });
}

/// The mark cost the contaminated collector avoids.
fn bench_marksweep(h: &mut BenchHarness) {
    h.bench_counted("msa/mark_sweep_4096_live_4096_dead", 200, || {
        let mut heap = Heap::new(HeapConfig::spacious());
        let mut previous = None;
        for i in 0..8192u32 {
            let handle = heap.allocate(ClassId::new(0), 2).unwrap();
            if i % 2 == 0 {
                // Half the objects form a list reachable from a root.
                if let Some(prev) = previous {
                    heap.set_field(handle, 0, Value::from(prev)).unwrap();
                }
                previous = Some(handle);
            }
        }
        let roots = RootSet {
            statics: vec![previous.unwrap()],
            ..RootSet::default()
        };
        let outcome = MarkSweep::new().collect(&roots, &mut heap);
        [
            ("marked_objects", outcome.marked_objects),
            ("freed_objects", outcome.freed_objects),
            ("search_steps", heap.object_space().search_steps()),
        ]
    });
}

fn bench_interpreter_throughput(h: &mut BenchHarness) {
    let workload = Workload::by_name("jess").expect("known benchmark");
    let program = workload.program(Size::S1);
    let mut instructions = 0;
    let ns = h.bench_counted("interp/jess_size1_noop_run", 5, || {
        let mut vm = Vm::new(program.clone(), VmConfig::default(), NoopCollector::new());
        let stats = vm.run().expect("jess runs").stats;
        instructions = stats.instructions;
        [
            ("instructions", stats.instructions),
            ("method_calls", stats.method_calls),
        ]
    });
    println!(
        "interp/jess_size1_noop_run: {:.1} ns per executed instruction ({instructions} instructions)",
        ns / instructions as f64
    );
}

fn main() {
    let mut harness = BenchHarness::new("microbench").with_counts(EXPECTED, common::allocations);
    bench_unionfind(&mut harness);
    bench_marksweep(&mut harness);
    bench_interpreter_throughput(&mut harness);
    harness.finish([]);
}
