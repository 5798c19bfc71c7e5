//! Small shared helpers: order statistics, the per-run temp directory, and
//! the machine stamp every output carries.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cg_stats::Json;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or 0 when the denominator is (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The package directory (`benchmark/`), fixed at build time: the driver
/// builds and runs the benchmark in the same checkout.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

pub fn golden_dir() -> PathBuf {
    bench_dir().join("../crates/trace/golden")
}

/// One per-run temp directory under `benchmark/out/`, holding every input,
/// spool and cache dir; removed when dropped, on success and on failure.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn create(label: &str) -> std::io::Result<TempDir> {
        let path = out_dir().join(format!("tmp-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `VmHWM` of this process in MiB (the daemon is in-process, so it is
/// included).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Client threads, connections and daemon workers never exceed this.
pub fn parallelism_cap() -> usize {
    nproc().min(2)
}

/// Fastest of `batches` timings of `calls` back-to-back calls of `f`, in
/// ns per call.  The fastest, not the median: a process that starts on an
/// idle machine runs its first tens of milliseconds at half speed, and a
/// calibration must not record that.
fn fastest_ns(batches: u32, calls: u32, mut f: impl FnMut()) -> f64 {
    (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .fold(f64::INFINITY, f64::min)
}

/// The `calibration/spin_1k` kernel the bench families already use, in
/// ns per iteration.
pub fn spin_1k_ns() -> f64 {
    fastest_ns(10, 4_000, || {
        black_box((0..1000u64).fold(0u64, |acc, i| {
            acc.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(black_box(i))
        }));
    })
}

/// Cost of one `Instant::now()` in ns, so traced runs can book their own
/// timer calls to the `bench` layer instead of the layer being timed (and
/// never subtract more than the timers really cost).
pub fn timer_ns() -> f64 {
    fastest_ns(8, 200_000, || {
        black_box(Instant::now());
    })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine stamp: what the numbers beside it were measured on.  With
/// `toolchain`, also the rustc version and git commit (asked for once, by
/// the parent process of a whole set; `unknown` where the checkout has no
/// git or rustc).
pub fn machine_stamp(seed: u64, toolchain: bool) -> Json {
    let mut stamp = vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("spin_1k_ns", Json::Num(spin_1k_ns())),
        ("seed", Json::Num(seed as f64)),
    ];
    if toolchain {
        let ask = |program, args: &[&str]| {
            Json::Str(command_line(program, args).unwrap_or_else(|| "unknown".to_string()))
        };
        stamp.push(("rustc", ask("rustc", &["--version"])));
        stamp.push(("git_commit", ask("git", &["rev-parse", "HEAD"])));
    }
    Json::obj(stamp)
}

/// A tiny deterministic generator (SplitMix64) for the seed-driven shuffle.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
