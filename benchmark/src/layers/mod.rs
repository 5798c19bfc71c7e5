//! The traced run: per-layer metrics measured from outside, by wrapping
//! spans and accumulators around the calls into each crate's public
//! functions (nothing inside the crates is edited).
//!
//! A traced run of a workload does three things on that workload's own
//! input: a few untraced operations (the reference for
//! `bench.trace_overhead_ratio`), the same operations traced, and the
//! differential probes of the layers the operation crosses.  Metrics of a
//! layer the operation never enters read 0.  No end-to-end number is ever
//! taken from here.

mod record;
mod replay;
mod serve;

use std::path::Path;
use std::time::{Duration, Instant};

use cg_stats::Json;

use crate::spans::Tracer;
use crate::spec::LAYER_SHARES;
use crate::util::{self, ratio};

/// What a traced run produced.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Shared state of one traced run.
pub struct Ctx {
    pub tracer: Tracer,
    /// Cost of one `Instant::now()`, booked to the `bench` layer.
    pub timer_ns: f64,
    pub seconds: f64,
    pub seed: u64,
    out: Traced,
}

impl Ctx {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::spec::PER_LAYER.iter().any(|m| m.name == name));
        match self.out.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.out.metrics.push((name, value)),
        }
    }

    /// Runs a differential probe and keeps a span of it in the trace file
    /// (outside every traced operation, so outside the reconciliation).
    pub fn probe<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Ctx) -> T,
    ) -> T {
        let start = self.tracer.now_ns();
        let out = f(self);
        let end = self.tracer.now_ns();
        self.tracer.record(None, 0, layer, name, start, end);
        out
    }

    pub fn note(&mut self, note: String) {
        self.out.notes.push(note);
    }

    /// Counts one checked operation; a mismatch is a failure, not a panic.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.out.attempted += 1;
        if let Err(message) = result {
            self.out.failed += 1;
            self.out.notes.push(format!("FAILED {what}: {message}"));
        }
    }

    /// Time budget for the traced operations themselves.
    pub fn traced_budget(&self) -> f64 {
        self.seconds / 4.0
    }
}

/// Runs `pass` once, then again while passes are cheap, and returns the
/// fastest: probes are differences of whole passes, so the minimum is the
/// estimate least disturbed by the machine.
pub fn best_of(mut pass: impl FnMut() -> Result<Duration, String>) -> Result<f64, String> {
    let first = pass()?;
    let repeats = ((0.4 / first.as_secs_f64().max(1e-6)) as usize).min(4);
    let mut best = first;
    for _ in 0..repeats {
        best = best.min(pass()?);
    }
    Ok(best.as_nanos() as f64)
}

pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, Duration), String> {
    let start = Instant::now();
    let out = f()?;
    Ok((out, start.elapsed()))
}

/// Turns the span tree under every `root` span into the `share.*` metrics
/// and checks that the layers' self times account for the traced wall
/// time: the remainder must stay within 10 %.
fn reconcile(ctx: &mut Ctx, root: &str) {
    let (layers, wall) = ctx.tracer.self_times(root);
    let mut named = 0.0;
    let mut table = Vec::new();
    for (layer, metric) in LAYER_SHARES {
        let own = layers.get(layer).copied().unwrap_or(0.0);
        named += own;
        ctx.put(metric, ratio(own, wall));
        if own > 0.0 {
            table.push(format!("{layer} {:.1}%", 100.0 * ratio(own, wall)));
        }
    }
    let unattributed = ratio((wall - named).abs(), wall);
    ctx.put("bench.unattributed_share", unattributed);
    ctx.note(format!(
        "layer shares of the traced {root} ({:.1} ms total): {}; unattributed {:.1}%",
        wall / 1e6,
        table.join(", "),
        100.0 * unattributed
    ));
    ctx.check(
        "trace reconciliation",
        if wall > 0.0 && unattributed <= 0.10 {
            Ok(())
        } else {
            Err(format!(
                "layer self times leave {:.1}% of the traced wall time unattributed",
                100.0 * unattributed
            ))
        },
    );
}

/// The traced run of one workload; writes `out/trace-<workload>.json`.
pub fn trace_workload(
    workload: &str,
    dir: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Traced, String> {
    let mut ctx = Ctx {
        tracer: Tracer::new(),
        timer_ns: util::timer_ns(),
        seconds,
        seed,
        out: Traced {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        },
    };
    let root = match workload {
        "replay_flat" | "replay_frag" => replay::trace(&mut ctx, workload, dir)?,
        "record_compute" | "record_alloc" => record::trace(&mut ctx, workload, dir)?,
        "serve_mixed" | "serve_sharded" => serve::trace(&mut ctx, workload, dir)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    reconcile(&mut ctx, root);

    let out = util::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let path = out.join(format!("trace-{workload}.json"));
    let document = Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("stamp", util::machine_stamp(seed, false)),
        ("timer_ns", Json::Num(ctx.timer_ns)),
        (
            "metrics",
            Json::Obj(
                ctx.out
                    .metrics
                    .iter()
                    .map(|(name, value)| (name.to_string(), Json::Num(*value)))
                    .collect(),
            ),
        ),
        ("spans", ctx.tracer.to_json()),
    ]);
    std::fs::write(&path, document.render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(ctx.out)
}
