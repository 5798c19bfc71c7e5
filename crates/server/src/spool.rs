//! Spool-file hygiene for the daemon's cache directory: where it lives by
//! default, collision-proof temp siblings for atomic publishes, and the
//! TTL sweep that reclaims orphans left by evaluators that died
//! mid-publish.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// The daemon's default cache root when [`crate::ServerConfig::cache_dir`]
/// is unset: `$CG_TRACE_CACHE_DIR/cgtd`, or `target/trace-cache/cgtd`
/// relative to the working directory.
pub fn default_cache_dir() -> PathBuf {
    std::env::var_os("CG_TRACE_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("trace-cache"))
        .join("cgtd")
}

/// How long an unpublished `.tmp.` sibling may sit in a cache directory
/// before [`sweep_stale_tmps`] treats it as an orphan from a dead writer.
/// Generous: a live recording of the largest workload finishes in minutes,
/// not hours.
pub const TMP_SWEEP_TTL: Duration = Duration::from_secs(60 * 60);

/// A process-unique, collision-proof temp sibling for atomically publishing
/// `path`: `<name>.<ext>.tmp.<pid>-<counter>`.
///
/// The PID alone is not enough — PIDs are recycled, so a sweeper (or an
/// unrelated crashed writer's successor) holding the same PID could clobber
/// a live tmp.  The monotonic per-process counter makes every tmp name this
/// process ever creates distinct, and distinct from any name a previous
/// holder of the PID plausibly left behind.
pub fn unique_tmp_path(path: &Path) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let ext = path
        .extension()
        .map_or_else(|| "tmp".to_string(), |e| e.to_string_lossy().into_owned());
    path.with_extension(format!("{ext}.tmp.{}-{n}", std::process::id()))
}

/// Removes `*.tmp.*` orphans older than `ttl` from `dir`, returning how
/// many were deleted.  Called on cache open: a recorder that dies between
/// `File::create` and the publishing `rename` leaks its tmp forever
/// otherwise.  The mtime TTL keeps the sweep from racing a *live* writer —
/// an in-progress recording's tmp is at most minutes old, while an orphan
/// only gets older.  Missing directories and unreadable entries are not
/// errors (the sweep is best-effort hygiene).
pub fn sweep_stale_tmps(dir: &Path, ttl: Duration) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let now = SystemTime::now();
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.contains(".tmp."));
        if !is_tmp {
            continue;
        }
        let Ok(modified) = entry.metadata().and_then(|m| m.modified()) else {
            continue;
        };
        // An mtime in the future (clock skew) reads as age zero.
        let age = now.duration_since(modified).unwrap_or(Duration::ZERO);
        if age >= ttl && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}
