//! Benchmark harness regenerating every table and figure of the MPAccel
//! paper's evaluation (§7).
//!
//! Each experiment lives in [`experiments`] as a pure function returning a
//! [`report::Report`]; thin binaries in `src/bin/` print them
//! (`cargo run -p mp-bench --release --bin fig07`), Criterion benches in
//! `benches/` time the underlying simulations, and the experiment index in
//! `DESIGN.md` maps paper artifacts to these targets.
//!
//! Workload sizes honour the `MPACCEL_BENCH_SCALE` environment variable:
//! `quick` (default for tests) or `full` (paper-scale: 10 scenes × 100
//! queries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiments;
pub mod report;
pub mod soak_cli;
pub mod workloads;

pub use engine::RunSummary;
pub use report::Report;
pub use workloads::Scale;
