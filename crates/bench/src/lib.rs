//! Benchmark harness regenerating every table and figure of the MPAccel
//! paper's evaluation (§7).
//!
//! Each experiment lives in [`experiments`] as a pure function returning a
//! [`report::Report`] and is listed in [`engine::experiments`]; the one
//! `mp-bench` binary prints them (`cargo run --release -p mp-bench --
//! fig07`, or `-- all` for the whole suite), and the experiment index in
//! `DESIGN.md` maps paper artifacts to these targets. Nothing here times
//! the host: host wall time per layer comes from a traced `mp-benchmark
//! run` (the `benchmark/` package).
//!
//! Workload sizes honour the `MPACCEL_BENCH_SCALE` environment variable:
//! `quick` (default for tests) or `full` (paper-scale: 10 scenes × 100
//! queries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiments;
pub mod report;
pub mod workloads;

pub use engine::RunSummary;
pub use report::Report;
pub use workloads::Scale;
