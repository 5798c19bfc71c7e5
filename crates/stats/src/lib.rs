//! Measurement and reporting primitives for the contaminated-GC reproduction.
//!
//! Every experiment in the paper is ultimately a table: a set of labelled
//! rows (one per SPEC benchmark) with counts, percentages or timings in the
//! columns.  This crate provides the small set of building blocks the rest of
//! the workspace uses to produce those tables:
//!
//! * [`Counter`] and [`Gauge`] — monotone / settable integral metrics.
//! * [`Histogram`] — fixed-bucket histograms (block sizes, frame distances).
//! * [`Stopwatch`] and [`RunTimings`] — wall-clock timing with repetition
//!   support, mirroring the paper's five-repetition timing methodology
//!   (Appendix A.5–A.7).
//! * [`Table`] / [`Cell`] — paper-style fixed-width text tables with JSON
//!   output.
//! * [`Json`] — a dependency-free JSON tree with rendering and parsing, used
//!   for all machine-readable output (the build environment has no crates.io
//!   access, so `serde_json` is not available).
//! * [`summary`] — means, standard deviations, percentages and speedups.
//!
//! The crate has no dependency on the rest of the workspace so that every
//! other crate (heap, VM, collectors, workloads, bench harness) can report
//! through it.
//!
//! # Example
//!
//! ```
//! use cg_stats::{Table, Cell};
//!
//! let mut table = Table::new("Figure 4.1", &["benchmark", "objects", "collectable"]);
//! table.push_row(vec![
//!     Cell::text("compress"),
//!     Cell::count(5123),
//!     Cell::percent(11.0),
//! ]);
//! let rendered = table.render_text();
//! assert!(rendered.contains("compress"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod histogram;
pub mod json;
pub mod report;
pub mod summary;
pub mod table;
pub mod timer;

pub use counter::{Counter, Gauge};
pub use histogram::Histogram;
pub use json::{Json, JsonError};
pub use report::{ExperimentRecord, ExperimentReport};
pub use summary::{geometric_mean, mean, percent, speedup, std_dev};
pub use table::{Cell, Table};
pub use timer::{RunTimings, Stopwatch};
