//! Runs the fleet chaos soak: the 16-shard multi-tenant planning fleet
//! through a mid-run double shard kill and an adversarial tenant. Usage:
//!
//! ```text
//! cargo run -p mp-bench --release --bin fleet_soak [-- --out FILE]
//!     [--csv FILE] [--scaling-csv FILE] [--trace FILE] [--flight FILE]
//!     [--metrics FILE]
//! ```
//!
//! Prints the report (fleet, per-tenant, and per-shard rows) to stdout;
//! `--out` additionally writes the text report and `--csv` the CSV table.
//! `--scaling-csv` runs the extra goodput-vs-shards sweep (1/2/4/8/16/32
//! shards at the fixed 16-shard offered load) and writes its CSV.
//! Set `MPACCEL_BENCH_SCALE=full` for paper-scale workloads and
//! `MPACCEL_THREADS` for the catalog-build pool width (the report is
//! byte-identical at any width).
//!
//! The telemetry flags run one extra fully-instrumented capture of the
//! `chaos-defended` scenario (catalog build + double-kill fleet run):
//!
//! * `--trace FILE` — Chrome trace-event JSON (open in Perfetto);
//!   validated before it is written.
//! * `--flight FILE` — flight-recorder snapshots: the spans leading up to
//!   each shard failover / hedge / deadline miss / shed incident.
//! * `--metrics FILE` — unified metrics registry dump with per-shard and
//!   per-tenant series (text table, or CSV when the path ends in `.csv`).

use mp_bench::experiments::fleet;
use mp_bench::soak_cli::SoakCli;

fn main() -> std::process::ExitCode {
    SoakCli {
        name: "fleet_soak",
        run: fleet::run,
        scaling: Some(fleet::scaling_report),
        capture: fleet::capture_trace,
        metrics: fleet::metrics_registry,
    }
    .main()
}
