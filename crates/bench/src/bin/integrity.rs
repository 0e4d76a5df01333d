//! Runs the integrity soak: silent-data-corruption rate × defense policy
//! (undefended / certify / certify-vote-scrub) at 2× saturation. Usage:
//!
//! ```text
//! cargo run -p mp-bench --release --bin integrity [-- --out FILE]
//!     [--csv FILE] [--trace FILE] [--flight FILE] [--metrics FILE]
//! ```
//!
//! Prints the report to stdout; `--out` additionally writes the text
//! report and `--csv` the CSV table. Set `MPACCEL_BENCH_SCALE=full` for
//! paper-scale workloads and `MPACCEL_THREADS` for the catalog-build pool
//! width (the report is byte-identical at any width).
//!
//! The telemetry flags run one extra fully-instrumented capture of the
//! worst-case defended run (SDC rate 1e-3, certify-vote-scrub):
//!
//! * `--trace FILE` — Chrome trace-event JSON (open in Perfetto);
//!   validated before it is written.
//! * `--flight FILE` — flight-recorder snapshots: the spans leading up to
//!   each certification rejection / liar benching / scrub readmission —
//!   the raw material of the SDC post-mortem in `EXPERIMENTS.md`.
//! * `--metrics FILE` — unified metrics registry dump including the
//!   `service.integrity.*` counters and the certification-cost histogram
//!   (text table, or CSV when the path ends in `.csv`).

use mp_bench::experiments::integrity;
use mp_bench::soak_cli::SoakCli;

fn main() -> std::process::ExitCode {
    SoakCli {
        name: "integrity",
        run: integrity::run,
        scaling: None,
        capture: integrity::capture_trace,
        metrics: integrity::metrics_registry,
    }
    .main()
}
