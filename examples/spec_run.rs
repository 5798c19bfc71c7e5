//! Run one of the synthetic SPECjvm98-like workloads under a chosen
//! collector and print what happened.
//!
//! ```text
//! cargo run --release --example spec_run -- <benchmark> [size] [collector]
//!
//!   benchmark: compress | jess | raytrace | db | javac | mpegaudio | mtrt | jack
//!   size:      1 | 10 | 100            (default 1)
//!   collector: cg | cg-noopt | msa     (default cg)
//! ```

use contaminated_gc::collector::marksweep::MarkSweep;
use contaminated_gc::collector::{CgConfig, ContaminatedGc};
use contaminated_gc::stats::percent;
use contaminated_gc::vm::{Vm, VmConfig};
use contaminated_gc::workloads::{Size, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let benchmark = args.next().unwrap_or_else(|| "raytrace".to_string());
    let size = Size::parse(&args.next().unwrap_or_else(|| "1".to_string()))
        .ok_or("size must be 1, 10 or 100")?;
    let collector = args.next().unwrap_or_else(|| "cg".to_string());

    let workload =
        Workload::by_name(&benchmark).ok_or_else(|| format!("unknown benchmark '{benchmark}'"))?;
    let profile = workload.profile(size);
    println!("benchmark:  {} (size {size})", workload.name());
    println!("modelled as: {}", profile.description);
    println!("collector:  {collector}");
    println!();

    let program = workload.program(size);
    match collector.as_str() {
        "msa" => {
            let mut vm = Vm::new(program, VmConfig::default(), MarkSweep::new());
            let outcome = vm.run()?;
            let stats = vm.collector().stats();
            println!("instructions executed:   {}", outcome.stats.instructions);
            println!(
                "objects allocated:       {}",
                outcome.stats.objects_allocated + outcome.stats.arrays_allocated
            );
            println!("mark-sweep cycles:       {}", stats.cycles);
            println!("objects marked (total):  {}", stats.objects_marked);
            println!("objects swept (total):   {}", stats.objects_swept);
            println!("live at exit:            {}", outcome.live_at_exit);
            println!("elapsed:                 {:.3}s", outcome.elapsed_seconds);
        }
        name @ ("cg" | "cg-noopt") => {
            let config = if name == "cg" {
                CgConfig::preferred()
            } else {
                CgConfig::without_static_opt()
            };
            let mut vm = Vm::new(
                program,
                VmConfig::default(),
                ContaminatedGc::with_config(config),
            );
            let outcome = vm.run()?;
            let breakdown = vm.collector_mut().breakdown();
            let stats = vm.collector().stats();
            println!("instructions executed:   {}", outcome.stats.instructions);
            println!("objects created:         {}", stats.objects_created);
            println!(
                "collectable by CG:       {} ({:.1}%)",
                stats.objects_collected,
                stats.collectable_percent()
            );
            println!(
                "exactly collectable:     {} ({:.1}%)",
                stats.objects_collected_exactly,
                stats.exactly_collectable_percent()
            );
            println!(
                "static at exit:          {} ({:.1}%)",
                breakdown.static_objects,
                percent(breakdown.static_objects, stats.objects_created)
            );
            println!(
                "thread-shared:           {} ({:.1}%)",
                breakdown.thread_shared,
                percent(breakdown.thread_shared, stats.objects_created)
            );
            println!("union operations:        {}", stats.unions);
            println!("static-opt skips:        {}", stats.static_opt_skips);
            println!("live at exit:            {}", outcome.live_at_exit);
            println!("elapsed:                 {:.3}s", outcome.elapsed_seconds);
        }
        other => {
            return Err(format!("unknown collector '{other}' (use cg, cg-noopt or msa)").into())
        }
    }
    Ok(())
}
