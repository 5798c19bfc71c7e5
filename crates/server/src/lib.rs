//! `cgtd` — a concurrent trace-evaluation daemon for contaminated GC.
//!
//! The streaming `.cgt` format (bounded-memory record/replay) plus the
//! resource governor (`ResourceLimits`/`Governor`/`EvalError`) make trace
//! evaluation a server-shaped problem: this crate turns "replay a
//! benchmark" into "serve heavy traffic".  A long-running TCP daemon
//! accepts concurrent `.cgt` uploads and live event streams over the
//! length-prefixed, CRC'd frame protocol in [`cg_trace::proto`], schedules
//! sessions across a fixed worker pool with bounded per-tenant queues
//! (explicit BUSY backpressure, never unbounded buffering), evaluates each
//! trace under per-tenant budgets via the governed replay paths, memoizes
//! repeated workloads through its on-disk result cache, and answers plaintext
//! `/metrics`-style scrapes.
//!
//! ```no_run
//! use cg_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?;
//! println!("cgtd listening on {}", server.local_addr()?);
//! server.run()?;
//! # std::io::Result::Ok(())
//! ```
//!
//! Clients are two functions away: `cg_trace::proto::submit_path` uploads
//! a file and returns the canonical stats, `fetch_metrics` scrapes the
//! counters — or use `cgt submit` / `cgt metrics` from the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod metrics;
pub mod scheduler;
pub mod server;
pub mod spool;

pub use eval::{evaluate_session, EvalConfig, SessionError, SessionResult};
pub use metrics::{Metrics, TenantMetrics};
pub use scheduler::{QueuedSession, Rejected, Scheduler};
pub use server::{spawn, Server, ServerConfig, ServerHandle, MAX_TENANT_LEN};
pub use spool::{sweep_stale_tmps, unique_tmp_path, TMP_SWEEP_TTL};
