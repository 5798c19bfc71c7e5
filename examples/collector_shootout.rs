//! Compare the collectors across the whole synthetic SPEC suite.
//!
//! For each benchmark (size 1) the example runs the traditional mark-sweep
//! baseline and the contaminated collector and prints a paper-style summary
//! table: objects created, the share CG collects, the share left static, and
//! how many marking passes each configuration needed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example collector_shootout
//! ```

use contaminated_gc::collector::marksweep::MarkSweep;
use contaminated_gc::collector::ContaminatedGc;
use contaminated_gc::stats::{percent, Cell, Table};
use contaminated_gc::vm::{Vm, VmConfig};
use contaminated_gc::workloads::{Size, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(
        "Collector shootout — synthetic SPECjvm98, size 1",
        &[
            "benchmark",
            "objects",
            "CG collectable",
            "CG static",
            "CG thread-shared",
            "MSA cycles",
            "MSA marked",
        ],
    );

    for workload in Workload::all() {
        // Contaminated GC run.
        let mut cg_vm = Vm::new(
            workload.program(Size::S1),
            VmConfig::default(),
            ContaminatedGc::new(),
        );
        cg_vm.run()?;
        let breakdown = cg_vm.collector_mut().breakdown();
        let cg_stats = cg_vm.collector().stats();

        // Baseline mark-sweep run (same program, same heap sizing).
        let mut msa_vm = Vm::new(
            workload.program(Size::S1),
            VmConfig::default(),
            MarkSweep::new(),
        );
        msa_vm.run()?;
        let msa = msa_vm.collector().stats();

        let total = cg_stats.objects_created.max(1);
        table.push_row(vec![
            Cell::text(workload.name()),
            Cell::count(cg_stats.objects_created),
            Cell::percent(cg_stats.collectable_percent()),
            Cell::percent(percent(breakdown.static_objects, total)),
            Cell::percent(percent(breakdown.thread_shared, total)),
            Cell::count(msa.cycles),
            Cell::count(msa.objects_marked),
        ]);
    }

    println!("{}", table.render_text());
    println!("CG reclaims its share of objects incrementally at frame pops, without any");
    println!("marking; whatever it leaves behind is exactly what a traditional collector");
    println!("would have to mark on every cycle.");
    Ok(())
}
