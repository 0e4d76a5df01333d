//! Deterministic parallel execution engine for the benchmark suite.
//!
//! Every experiment is a pure function `Scale -> Report` with all
//! randomness derived from fixed seeds, so experiments are independent
//! jobs: the engine fans them out over a [`ThreadPool`] (the
//! `MPACCEL_THREADS` knob) and collects the reports *in canonical order*.
//! The rendered reports are bit-identical to a serial run — the
//! determinism regression test in `tests/determinism.rs` enforces this —
//! while wall-clock drops with available cores.
//!
//! The engine also counts the run's modeled work — process-wide CD checks
//! and their modeled energy — serialized as `BENCH.json` (see
//! [`RunSummary::to_json`]). Those counters are deterministic, so CI gates
//! the committed file byte for byte; host wall time is measured only by
//! the `mp-benchmark` package.

use mp_robot::RobotModel;
use mp_telemetry::{Registry, TelemetrySession};
use threadpool::ThreadPool;

use crate::experiments as e;
use crate::report::Report;
use crate::workloads::{BenchWorkload, Scale};

/// One extra fully-instrumented run of an experiment: its telemetry
/// session plus the metrics registry of the captured run.
pub type Capture = fn(Scale, &ThreadPool) -> (TelemetrySession, Registry);

/// One named experiment of the evaluation suite.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Artifact name (`fig07`, `table1`, ...), also the CSV file stem.
    pub name: &'static str,
    /// The experiment entry point.
    pub runner: fn(Scale) -> Report,
    /// The capture behind `mp-bench <name> --trace/--flight/--metrics`
    /// (only the service soaks have one).
    pub capture: Option<Capture>,
}

/// The full suite in canonical (paper) order — the order `mp-bench all`
/// prints.
pub fn experiments() -> Vec<Experiment> {
    macro_rules! exp {
        ($name:ident) => {
            Experiment {
                name: stringify!($name),
                runner: e::$name::run,
                capture: None,
            }
        };
        ($name:ident, capture) => {
            Experiment {
                name: stringify!($name),
                runner: e::$name::run,
                capture: Some(|scale, pool| {
                    let (session, summary) = e::$name::capture_trace(scale, pool);
                    (session, e::$name::metrics_registry(&summary))
                }),
            }
        };
    }
    vec![
        exp!(fig01b),
        exp!(fig07),
        exp!(fig08),
        exp!(fig15),
        exp!(fig16),
        exp!(fig17),
        exp!(fig18),
        exp!(table1),
        exp!(table2),
        exp!(fig19),
        exp!(fig20),
        exp!(table3),
        exp!(codacc),
        exp!(ablation),
        exp!(batch_planning),
        exp!(planners),
        exp!(faults),
        exp!(soak, capture),
        exp!(fleet, capture),
        exp!(fleet_scaling),
        exp!(integrity, capture),
        exp!(energy_observatory),
    ]
}

/// Looks up experiments by name (for running a subset).
///
/// # Errors
///
/// Returns the first unknown name.
pub fn select(names: &[&str]) -> Result<Vec<Experiment>, String> {
    let all = experiments();
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|x| x.name == *n)
                .copied()
                .ok_or_else(|| (*n).to_string())
        })
        .collect()
}

/// One experiment's rendered report.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Artifact name.
    pub name: &'static str,
    /// The rendered result.
    pub report: Report,
}

/// The outcome of one engine run: ordered results plus the run's
/// deterministic work counters.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Workload scale of the run.
    pub scale: Scale,
    /// Scenes in the shared workload.
    pub scenes: usize,
    /// Planner traces in the shared workload.
    pub traces: usize,
    /// Pose-level CD checks executed across the whole run.
    pub cd_checks: u64,
    /// Modeled dynamic energy (pJ) of those checks, priced by
    /// `mp_sim::energy` from the process-wide collision op counters.
    pub cd_energy_pj: f64,
    /// Mean CD-datapath microjoules per full-tier planning attempt (the
    /// soak catalog's J/plan baseline).
    pub uj_per_plan_full: f64,
    /// Per-experiment results in canonical order.
    pub results: Vec<ExperimentResult>,
}

impl RunSummary {
    /// Mean modeled dynamic energy per pose-level CD check, picojoules.
    pub fn pj_per_cd_check(&self) -> f64 {
        self.cd_energy_pj / self.cd_checks.max(1) as f64
    }

    /// Serializes the run's counters as `BENCH.json` (hand-rolled: the
    /// workspace is hermetic, no serde). Every value is a pure function
    /// of the seeds, the scale and the experiments run, so `mp-bench all`
    /// writes identical bytes at any thread count. (The workload caches are
    /// per-process: a second run in the same process counts less work.)
    /// Schema:
    ///
    /// ```json
    /// {
    ///   "schema": "mpaccel-bench/2",
    ///   "scale": "quick",
    ///   "workload": {"scenes": 4, "traces": 12},
    ///   "cd_checks": 123456,
    ///   "cd_energy_pj": 987654.3,
    ///   "pj_per_cd_check": 8.001,
    ///   "uj_per_plan_full": 1.234
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let scale = match self.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        };
        format!(
            r#"{{
  "schema": "mpaccel-bench/2",
  "scale": "{scale}",
  "workload": {{"scenes": {}, "traces": {}}},
  "cd_checks": {},
  "cd_energy_pj": {:.1},
  "pj_per_cd_check": {:.3},
  "uj_per_plan_full": {:.3}
}}
"#,
            self.scenes,
            self.traces,
            self.cd_checks,
            self.cd_energy_pj,
            self.pj_per_cd_check(),
            self.uj_per_plan_full,
        )
    }
}

/// Runs the given experiments on the pool and collects ordered results.
///
/// The shared Jaco2 workload is warmed up *before* the fan-out so every
/// experiment hits the cache instead of racing to build it (other
/// workloads — e.g. Baxter's — are built lazily by the first experiment
/// that needs them, without blocking different-keyed cache hits).
pub fn run_selected(list: &[Experiment], scale: Scale, pool: &ThreadPool) -> RunSummary {
    let checks0 = mp_collision::metrics::pose_checks_total();
    let energy0 = mp_collision::metrics::energy_pj_total();
    let workload = BenchWorkload::cached(RobotModel::jaco2(), scale);
    let (scenes, traces) = (workload.scenes.len(), workload.traces.len());
    drop(workload);

    let results: Vec<ExperimentResult> = pool.map(list, |_, exp| ExperimentResult {
        name: exp.name,
        report: (exp.runner)(scale),
    });

    RunSummary {
        scale,
        scenes,
        traces,
        cd_checks: mp_collision::metrics::pose_checks_total() - checks0,
        cd_energy_pj: mp_collision::metrics::energy_pj_total() - energy0,
        uj_per_plan_full: e::soak::catalog(scale).mean_energy_pj(mp_planner::QualityTier::Full)
            / 1e6,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete_and_uniquely_named() {
        let all = experiments();
        assert_eq!(all.len(), 22);
        let mut names: Vec<&str> = all.iter().map(|x| x.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22, "duplicate experiment names");
        let captured: Vec<&str> = all
            .iter()
            .filter(|x| x.capture.is_some())
            .map(|x| x.name)
            .collect();
        assert_eq!(captured, ["soak", "fleet", "integrity"]);
    }

    #[test]
    fn select_resolves_names_and_rejects_unknown() {
        let subset = select(&["fig07", "table1"]).unwrap();
        assert_eq!(subset[0].name, "fig07");
        assert_eq!(subset[1].name, "table1");
        assert_eq!(select(&["nope"]).unwrap_err(), "nope");
    }

    #[test]
    fn run_produces_ordered_results_and_metrics() {
        let pool = ThreadPool::new(2);
        let subset = select(&["fig17", "table2"]).unwrap();
        let summary = run_selected(&subset, Scale::Quick, &pool);
        assert_eq!(summary.results.len(), 2);
        assert_eq!(summary.results[0].name, "fig17");
        assert_eq!(summary.results[1].name, "table2");
        assert!(summary.cd_checks > 0, "fig17 replays CD batches");
        assert!(summary.cd_energy_pj > 0.0, "CD work carries energy");
        assert!(summary.pj_per_cd_check() > 0.0);
        assert!(
            summary.uj_per_plan_full > 0.0,
            "soak catalog J/plan baseline"
        );
        let json = summary.to_json();
        assert!(json.contains("\"schema\": \"mpaccel-bench/2\""));
        assert!(json.contains("\"scale\": \"quick\""));
        // Keys are the quoted strings followed by a colon.
        let parts: Vec<&str> = json.split('"').collect();
        let keys: Vec<&str> = parts
            .windows(2)
            .skip(1)
            .step_by(2)
            .filter(|w| w[1].starts_with(':'))
            .map(|w| w[0])
            .collect();
        assert_eq!(
            keys,
            [
                "schema",
                "scale",
                "workload",
                "scenes",
                "traces",
                "cd_checks",
                "cd_energy_pj",
                "pj_per_cd_check",
                "uj_per_plan_full",
            ]
        );
        assert!(!json.contains("wall"), "no host timing in BENCH.json");
    }
}
