//! The in-process `cgtd` the serve workloads talk to.

use std::path::{Path, PathBuf};

use cg_server::{ServerConfig, ServerHandle};
use cg_trace::ResourceLimits;

use crate::util::parallelism_cap;

/// How the daemon under test is configured.
#[derive(Clone, Copy)]
pub struct DaemonShape {
    /// Shard threads one upload may use (1 = the stock single-shard route).
    pub shards: u64,
    /// Answer repeated uploads from the result cache.
    pub memoize: bool,
}

impl DaemonShape {
    /// The stock daemon: single-shard, every upload re-evaluated.
    pub const STOCK: DaemonShape = DaemonShape {
        shards: 1,
        memoize: false,
    };

    /// The stock daemon with the result cache on.
    pub const MEMOIZING: DaemonShape = DaemonShape {
        shards: 1,
        memoize: true,
    };

    /// One shard thread per core the benchmark may use (2 on the reference
    /// box, 1 — so not sharded at all — on a single core).
    pub fn sharded() -> DaemonShape {
        DaemonShape {
            shards: parallelism_cap() as u64,
            memoize: false,
        }
    }
}

pub struct Daemon {
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<()>>,
    cache_dir: PathBuf,
    addr: String,
    pub workers: usize,
}

impl Daemon {
    /// `cg_server::spawn` on `127.0.0.1:0` with every spool and cache file
    /// under `cache_dir`.
    pub fn start(cache_dir: &Path, shape: DaemonShape) -> Result<Daemon, String> {
        let workers = parallelism_cap();
        let defaults = ServerConfig::default();
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            default_limits: ResourceLimits {
                max_shards: Some(shape.shards),
                ..defaults.default_limits
            },
            // A sharding grant applies to every upload, whatever its size.
            shard_min_bytes: if shape.shards > 1 {
                0
            } else {
                defaults.shard_min_bytes
            },
            cache_dir: Some(cache_dir.to_path_buf()),
            memoize: shape.memoize,
            ..defaults
        };
        let (handle, join) = cg_server::spawn(config).map_err(|e| format!("start cgtd: {e}"))?;
        Ok(Daemon {
            addr: handle.addr().to_string(),
            handle,
            join: Some(join),
            cache_dir: cache_dir.to_path_buf(),
            workers,
        })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn handle(&self) -> &ServerHandle {
        &self.handle
    }

    /// Shuts the daemon down and checks it left nothing behind: no session
    /// still holding a worker slot, nothing queued, no spool file.
    pub fn stop(mut self) -> Result<(), String> {
        let active = self.handle.metrics().sessions_active();
        let queued = self.handle.queue_depth();
        self.shutdown();
        let uploads = self.cache_dir.join("uploads");
        let leftovers = std::fs::read_dir(&uploads).map_or(0, |entries| entries.count());
        if active != 0 || queued != 0 || leftovers != 0 {
            return Err(format!(
                "daemon not clean at shutdown: {active} active session(s), {queued} queued, \
                 {leftovers} file(s) left under {}",
                uploads.display()
            ));
        }
        Ok(())
    }

    fn shutdown(&mut self) {
        if let Some(join) = self.join.take() {
            self.handle.shutdown();
            let _ = join.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}
