//! The six workloads: set-up (inputs, daemon, warm-up) and the untraced,
//! closed-loop timed run that produces the end-to-end metrics.
//!
//! Every loop is closed (the next operation starts only after the previous
//! reply), runs whole operations until `--seconds` have passed, and checks
//! each operation's output against its reference outside the timed part.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cg_trace::footer::VM_SECTION;
use cg_trace::proto::SubmitOutcome;

use crate::daemon::{Daemon, DaemonShape};
use crate::ops::{self, InputSpec, Route};
use crate::reference::{self, Reference};
use crate::util::{golden_dir, median, parallelism_cap, peak_rss_mib, percentile, Rng};

/// Set-up is repeated this many times per run and `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// One timed operation: its client-observed wall time in ms.
pub type Op = f64;

/// Work done: events evaluated or recorded, the recorded program's
/// interpreted instructions, and whole operations.
#[derive(Clone, Copy, Default)]
pub struct Work {
    pub events: u64,
    pub insns: u64,
    pub sessions: u64,
}

/// What a timed run produced.
#[derive(Default)]
pub struct Measured {
    /// The operations the latency metrics are computed over.
    pub ops: Vec<Op>,
    /// The work in one throughput unit: one operation, or for `serve_mixed`
    /// (whose sessions overlap) one whole round of sessions.
    pub unit: Work,
    /// The wall time of each completed unit, in seconds.  Rates are the
    /// unit's work over the *median* of these, so a burst of interference
    /// from outside the process moves them as little as it moves a median.
    pub unit_s: Vec<f64>,
    /// Whether the run has the >= 200 operations a p95 needs (ten samples
    /// beyond it); otherwise `session_ms_p95` reports the median.
    pub tail_resolvable: bool,
    /// Operations attempted, including any cool-down ones outside `ops`.
    pub attempted: u64,
    /// Operations whose output mismatched, errored or were refused.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Measured {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.fail(message);
        }
    }
}

/// A trace file with the reference its evaluations are held to: for a
/// committed golden the file's own embedded footer, for an input recorded
/// here the committed `expected/` file.
pub struct TraceFile {
    pub path: PathBuf,
    pub census: Vec<(String, u64)>,
    pub events: u64,
    pub insns: u64,
    pub cg: Vec<(String, u64)>,
}

impl TraceFile {
    pub fn from_reference(path: &Path, reference: &Reference) -> TraceFile {
        TraceFile {
            path: path.to_path_buf(),
            census: reference.census.clone(),
            events: reference.events(),
            insns: reference.instructions(),
            cg: reference.cg.clone(),
        }
    }

    /// Checks an evaluation's event census and `"cg"` entries.
    pub fn check(&self, counts: &[u64], cg: &[(String, u64)]) -> Result<(), String> {
        reference::diff("census", &self.census, &reference::census_entries(counts))?;
        reference::diff("cg", &self.cg, cg)
    }
}

/// A workload after set-up, ready for its timed loop.
pub enum Prepared {
    Replay {
        path: PathBuf,
        reference: Reference,
    },
    Record {
        input: InputSpec,
        out: PathBuf,
        reference: Reference,
        /// The set-up recording, verified by replay against the reference;
        /// every timed recording must reproduce it byte for byte.
        bytes: Vec<u8>,
    },
    ServeMixed {
        daemon: Daemon,
        files: Vec<TraceFile>,
    },
    ServeSharded {
        daemon: Daemon,
        path: PathBuf,
        reference: Reference,
    },
}

fn check_replay(path: &Path, reference: &Reference) -> Result<(), String> {
    let verified = ops::verify_replay(path)?;
    reference.check_census(&verified.footer.counts)?;
    reference.check_cg(&verified.cg.entries)
}

fn check_recording(
    input: &InputSpec,
    out: &Path,
    reference: &Reference,
    bytes: Option<&[u8]>,
) -> Result<Duration, String> {
    let start = Instant::now();
    let recorded = ops::record_to_file(input, out)?;
    let wall = start.elapsed();
    reference.check_recording(&recorded)?;
    if let Some(bytes) = bytes {
        let written = std::fs::read(out).map_err(|e| format!("read {}: {e}", out.display()))?;
        if written != bytes {
            return Err(format!(
                "{}: recording differs from the verified set-up recording",
                input.spec
            ));
        }
    }
    Ok(wall)
}

pub fn load_goldens() -> Result<Vec<TraceFile>, String> {
    let dir = golden_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| p.to_string_lossy().ends_with("-s1.cgt"))
        .collect();
    paths.sort();
    if paths.len() != 8 {
        return Err(format!(
            "expected the 8 committed size-1 golden traces under {}, found {}",
            dir.display(),
            paths.len()
        ));
    }
    paths
        .into_iter()
        .map(|path| {
            let footer = ops::read_footer(&path)?;
            let insns = footer
                .section(VM_SECTION)
                .and_then(|s| reference::entry(&s.entries, "instructions"))
                .ok_or_else(|| format!("{} has no \"vm\" footer", path.display()))?;
            Ok(TraceFile {
                census: reference::census_entries(&footer.counts),
                events: footer.total_events(),
                insns,
                cg: ops::embedded_cg(&footer, &path)?,
                path,
            })
        })
        .collect()
}

/// Builds a workload's inputs under `dir` and runs its one untimed warm-up
/// operation; the whole call is what `setup_s` measures.
pub fn prepare(workload: &str, dir: &Path) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    match workload {
        "replay_flat" | "replay_frag" => {
            let input = ops::input_of(workload);
            let reference = Reference::load(input.spec)?;
            let path = dir.join("input.cgt");
            check_recording(&input, &path, &reference, None)?;
            check_replay(&path, &reference)?;
            Ok(Prepared::Replay { path, reference })
        }
        "record_compute" | "record_alloc" => {
            let input = ops::input_of(workload);
            let reference = Reference::load(input.spec)?;
            let out = dir.join("recording.cgt");
            check_recording(&input, &out, &reference, None)?;
            check_replay(&out, &reference)?;
            let bytes = std::fs::read(&out).map_err(|e| format!("read {}: {e}", out.display()))?;
            Ok(Prepared::Record {
                input,
                out,
                reference,
                bytes,
            })
        }
        "serve_mixed" => {
            let files = load_goldens()?;
            let daemon = Daemon::start(&dir.join("cgtd"), DaemonShape::STOCK)?;
            for file in &files {
                for route in [Route::Submit, Route::Stream] {
                    let outcome = ops::session(daemon.addr(), &file.path, route)?;
                    ops::check_verdict(&outcome, file.events, &file.cg)?;
                }
            }
            Ok(Prepared::ServeMixed { daemon, files })
        }
        "serve_sharded" => {
            let reference = Reference::load(ops::MTRT_10.spec)?;
            let path = dir.join("input.cgt");
            check_recording(&ops::MTRT_10, &path, &reference, None)?;
            let daemon = Daemon::start(&dir.join("cgtd"), DaemonShape::sharded())?;
            let outcome = ops::session(daemon.addr(), &path, Route::Submit)?;
            ops::check_verdict(&outcome, reference.events(), &reference.cg)?;
            Ok(Prepared::ServeSharded {
                daemon,
                path,
                reference,
            })
        }
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Runs `op` back to back until `seconds` have passed (at least once);
/// `op` returns the timed part of the operation.
fn iterate(
    seconds: f64,
    reference: &Reference,
    mut op: impl FnMut() -> Result<Duration, String>,
) -> Measured {
    let mut measured = Measured {
        unit: Work {
            events: reference.events(),
            insns: reference.instructions(),
            sessions: 1,
        },
        ..Measured::default()
    };
    let start = Instant::now();
    loop {
        measured.attempted += 1;
        match op() {
            Ok(wall) => {
                measured.unit_s.push(wall.as_secs_f64());
                measured.ops.push(wall.as_secs_f64() * 1e3);
            }
            Err(message) => measured.fail(message),
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return measured;
        }
    }
}

/// Sessions in one `serve_mixed` round: every golden by both routes, once
/// per client.
fn round_len(files: usize, clients: usize) -> usize {
    files * 2 * clients
}

/// The seed-shuffled session order, one whole round after another.
fn session_order(seed: u64, files: usize, clients: usize, rounds: usize) -> Vec<(usize, Route)> {
    let mut rng = Rng::new(seed);
    let mut order = Vec::with_capacity(rounds * round_len(files, clients));
    for _ in 0..rounds {
        let mut round: Vec<(usize, Route)> = (0..clients)
            .flat_map(|_| (0..files).flat_map(|f| [(f, Route::Submit), (f, Route::Stream)]))
            .collect();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    order
}

/// One finished `serve_mixed` session.
pub struct Done {
    pub route: Route,
    pub op: Op,
    /// Seconds from the start of the loop to the verdict.
    pub end_s: f64,
    pub result: Result<(), String>,
}

/// `clients` closed-loop client threads draw sessions from one shared,
/// seed-shuffled order until `seconds` have passed; `session` runs one and
/// returns the verdict.  Returns every session in order, and how many of
/// them make up whole rounds: metrics cover only those (so every run
/// measures the same mix) and the sessions of the last, partial round are
/// cool-down, checked but not timed.
pub fn mixed_sessions(
    files: &[TraceFile],
    seed: u64,
    seconds: f64,
    session: impl Fn(usize, &TraceFile, Route) -> Result<SubmitOutcome, String> + Sync,
) -> (Vec<Done>, usize) {
    let clients = parallelism_cap();
    let per_round = round_len(files.len(), clients);
    // Far more rounds than any run completes: a session takes >= 5 ms.
    let rounds = ((seconds * 200.0) as usize / per_round).max(1) + 1;
    let order = session_order(seed, files.len(), clients, rounds);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut done: Vec<(usize, Done)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(file, route)) = order.get(index) else {
                            break;
                        };
                        let file = &files[file];
                        let begin = Instant::now();
                        let outcome = session(index, file, route);
                        let wall = begin.elapsed();
                        let done = Done {
                            route,
                            op: wall.as_secs_f64() * 1e3,
                            end_s: start.elapsed().as_secs_f64(),
                            result: outcome
                                .and_then(|o| ops::check_verdict(&o, file.events, &file.cg)),
                        };
                        mine.push((index, done));
                    }
                    mine
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    });
    done.sort_by_key(|(index, _)| *index);
    // Every index below `done.len()` ran, so these rounds are whole; a run
    // too short for one whole round is measured as it is.
    let whole = match done.len() / per_round * per_round {
        0 => done.len(),
        whole => whole,
    };
    (done.into_iter().map(|(_, d)| d).collect(), whole)
}

fn serve_mixed(daemon: &Daemon, files: &[TraceFile], seed: u64, seconds: f64) -> Measured {
    let (mut done, whole) = mixed_sessions(files, seed, seconds, |_, file, route| {
        ops::session(daemon.addr(), &file.path, route)
    });
    let per_round = round_len(files.len(), parallelism_cap()).min(whole);
    let copies = (per_round / files.len()) as u64;
    let mut measured = Measured {
        unit: Work {
            events: copies * files.iter().map(|f| f.events).sum::<u64>(),
            insns: copies * files.iter().map(|f| f.insns).sum::<u64>(),
            sessions: per_round as u64,
        },
        tail_resolvable: true,
        ..Measured::default()
    };
    for d in &mut done {
        measured.check(std::mem::replace(&mut d.result, Ok(())));
    }
    // A round is complete when its last session is; sessions of the next
    // round have started by then, which the median over rounds absorbs.
    let mut completed = 0.0;
    for round in done[..whole].chunks(per_round) {
        let end = round.iter().map(|d| d.end_s).fold(0.0, f64::max);
        measured.unit_s.push(end - completed);
        completed = end;
    }
    measured.ops = done[..whole].iter().map(|d| d.op).collect();
    measured
}

/// The timed, untraced run of a prepared workload.
pub fn measure(prepared: &Prepared, seed: u64, seconds: f64) -> Measured {
    match prepared {
        Prepared::Replay { path, reference } => iterate(seconds, reference, || {
            let start = Instant::now();
            let verified = ops::verify_replay(path)?;
            let wall = start.elapsed();
            reference.check_census(&verified.footer.counts)?;
            reference.check_cg(&verified.cg.entries)?;
            Ok(wall)
        }),
        Prepared::Record {
            input,
            out,
            reference,
            bytes,
        } => iterate(seconds, reference, || {
            check_recording(input, out, reference, Some(bytes))
        }),
        Prepared::ServeMixed { daemon, files } => serve_mixed(daemon, files, seed, seconds),
        Prepared::ServeSharded {
            daemon,
            path,
            reference,
        } => iterate(seconds, reference, || {
            let start = Instant::now();
            let outcome = ops::session(daemon.addr(), path, Route::Submit)?;
            let wall = start.elapsed();
            ops::check_verdict(&outcome, reference.events(), &reference.cg)?;
            Ok(wall)
        }),
    }
}

/// Stops the workload's daemon (if it has one) and checks it left nothing
/// behind.
pub fn finish(prepared: Prepared) -> Result<(), String> {
    match prepared {
        Prepared::ServeMixed { daemon, .. } | Prepared::ServeSharded { daemon, .. } => {
            daemon.stop()
        }
        Prepared::Replay { .. } | Prepared::Record { .. } => Ok(()),
    }
}

/// The end-to-end metrics of a timed run.
pub fn end_to_end(measured: &Measured, setup_s: f64) -> Vec<(&'static str, f64)> {
    let unit_s = median(&measured.unit_s);
    let p50 = median(&measured.ops);
    let tail = if measured.tail_resolvable {
        percentile(&measured.ops, 95.0)
    } else {
        p50
    };
    vec![
        ("events_per_s", measured.unit.events as f64 / unit_s),
        ("insns_per_s", measured.unit.insns as f64 / unit_s),
        ("sessions_per_s", measured.unit.sessions as f64 / unit_s),
        ("session_ms_p50", p50),
        ("session_ms_p95", tail),
        ("peak_rss_mib", peak_rss_mib()),
        ("setup_s", setup_s),
    ]
}
