//! Runs the chaos/soak campaign for the planning service (robustness
//! study). Usage:
//!
//! ```text
//! cargo run -p mp-bench --release --bin soak [-- --out FILE] [--csv FILE]
//!     [--trace FILE] [--flight FILE] [--metrics FILE]
//! ```
//!
//! Prints the report to stdout; `--out` additionally writes the text
//! report and `--csv` the CSV table. Set `MPACCEL_BENCH_SCALE=full` for
//! paper-scale workloads and `MPACCEL_THREADS` for the catalog-build pool
//! width (the report is byte-identical at any width).
//!
//! The telemetry flags run one extra fully-instrumented capture (catalog
//! build + overloaded/faulted service run + accelerator trace replay):
//!
//! * `--trace FILE` — Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`); validated before it is written.
//! * `--flight FILE` — flight-recorder snapshots: the spans leading up to
//!   each deadline miss / shed / quarantine incident.
//! * `--metrics FILE` — unified metrics registry dump (text table, or CSV
//!   when the path ends in `.csv`).
//!
//! Build with `--features telemetry` to also include the hot-kernel spans
//! (per-pose collision queries, OOCD traversals, SAS CDU lanes).

use mp_bench::experiments::soak;
use mp_bench::soak_cli::SoakCli;

fn main() -> std::process::ExitCode {
    SoakCli {
        name: "soak",
        run: soak::run,
        scaling: None,
        capture: soak::capture_trace,
        metrics: soak::metrics_registry,
    }
    .main()
}
