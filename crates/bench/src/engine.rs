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
//! The engine also meters the run: per-experiment wall-clock plus
//! process-wide CD-check throughput, serialized as `BENCH.json` (see
//! [`RunSummary::to_json`]) so the repository's performance trajectory is
//! machine-readable from commit to commit.

use std::time::{Duration, Instant};

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
/// prints and `BENCH.json` lists.
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

/// One experiment's report plus its wall-clock.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Artifact name.
    pub name: &'static str,
    /// The rendered result.
    pub report: Report,
    /// Wall-clock of this experiment's runner (includes any lazily built
    /// workloads it triggered).
    pub wall: Duration,
}

/// The outcome of one engine run: ordered results plus run-level metrics.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Workload scale of the run.
    pub scale: Scale,
    /// Thread-pool width used.
    pub threads: usize,
    /// Wall-clock of the shared-workload warmup (scene corpus + planner
    /// traces for the primary robot).
    pub workload_wall: Duration,
    /// Scenes in the shared workload.
    pub scenes: usize,
    /// Planner traces in the shared workload.
    pub traces: usize,
    /// Total wall-clock (warmup + all experiments).
    pub total_wall: Duration,
    /// Pose-level CD checks executed across the whole run.
    pub cd_checks: u64,
    /// Modeled dynamic energy (pJ) of those checks, priced by
    /// `mp_sim::energy` from the process-wide collision op counters.
    pub cd_energy_pj: f64,
    /// Mean CD-datapath microjoules per full-tier planning attempt (the
    /// soak catalog's J/plan baseline — the figure `perf_compare` gates
    /// energy regressions against).
    pub uj_per_plan_full: f64,
    /// Per-experiment results in canonical order.
    pub results: Vec<ExperimentResult>,
}

impl RunSummary {
    /// Scenes planned per second during workload warmup.
    pub fn scenes_per_sec(&self) -> f64 {
        self.scenes as f64 / self.workload_wall.as_secs_f64().max(1e-9)
    }

    /// Pose-level CD checks per second across the whole run.
    pub fn cd_checks_per_sec(&self) -> f64 {
        self.cd_checks as f64 / self.total_wall.as_secs_f64().max(1e-9)
    }

    /// Mean modeled dynamic energy per pose-level CD check, picojoules.
    pub fn pj_per_cd_check(&self) -> f64 {
        self.cd_energy_pj / self.cd_checks.max(1) as f64
    }

    /// Serializes the run metrics as `BENCH.json` (hand-rolled: the
    /// workspace is hermetic, no serde). Schema:
    ///
    /// ```json
    /// {
    ///   "schema": "mpaccel-bench/1",
    ///   "scale": "quick",
    ///   "threads": 4,
    ///   "total_wall_s": 1.23,
    ///   "workload": {"build_wall_s": 0.4, "scenes": 4, "traces": 12,
    ///                "scenes_per_sec": 10.0},
    ///   "cd_checks": 123456,
    ///   "cd_checks_per_sec": 100371.0,
    ///   "cd_energy_pj": 987654.3,
    ///   "pj_per_cd_check": 8.001,
    ///   "uj_per_plan_full": 1.234,
    ///   "experiments": [{"name": "fig01b", "wall_s": 0.01}, ...]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"mpaccel-bench/1\",\n");
        s.push_str(&format!(
            "  \"scale\": \"{}\",\n",
            match self.scale {
                Scale::Quick => "quick",
                Scale::Full => "full",
            }
        ));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!(
            "  \"total_wall_s\": {:.6},\n",
            self.total_wall.as_secs_f64()
        ));
        s.push_str(&format!(
            "  \"workload\": {{\"build_wall_s\": {:.6}, \"scenes\": {}, \"traces\": {}, \"scenes_per_sec\": {:.3}}},\n",
            self.workload_wall.as_secs_f64(),
            self.scenes,
            self.traces,
            self.scenes_per_sec(),
        ));
        s.push_str(&format!("  \"cd_checks\": {},\n", self.cd_checks));
        s.push_str(&format!(
            "  \"cd_checks_per_sec\": {:.1},\n",
            self.cd_checks_per_sec()
        ));
        s.push_str(&format!("  \"cd_energy_pj\": {:.1},\n", self.cd_energy_pj));
        s.push_str(&format!(
            "  \"pj_per_cd_check\": {:.3},\n",
            self.pj_per_cd_check()
        ));
        s.push_str(&format!(
            "  \"uj_per_plan_full\": {:.3},\n",
            self.uj_per_plan_full
        ));
        s.push_str("  \"experiments\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_s\": {:.6}}}{}\n",
                r.name,
                r.wall.as_secs_f64(),
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders a human-readable timing table.
    pub fn timing_report(&self) -> Report {
        let mut r = Report::new(format!(
            "Perf summary — {:?} scale, {} thread(s)",
            self.scale, self.threads
        ));
        r.note(format!(
            "workload warmup {:.3}s ({} scenes, {} traces, {:.1} scenes/sec)",
            self.workload_wall.as_secs_f64(),
            self.scenes,
            self.traces,
            self.scenes_per_sec(),
        ));
        r.note(format!(
            "total {:.3}s, {} CD checks ({:.0} checks/sec)",
            self.total_wall.as_secs_f64(),
            self.cd_checks,
            self.cd_checks_per_sec(),
        ));
        r.note(format!(
            "modeled CD energy {:.3} uJ ({:.2} pJ/check, {:.3} uJ/plan at full tier)",
            self.cd_energy_pj / 1e6,
            self.pj_per_cd_check(),
            self.uj_per_plan_full,
        ));
        r.columns(&["experiment", "wall [ms]"]);
        for res in &self.results {
            r.row(&[
                res.name.to_string(),
                format!("{:.1}", res.wall.as_secs_f64() * 1e3),
            ]);
        }
        r
    }
}

/// Runs the given experiments on the pool and collects ordered results.
///
/// The shared Jaco2 workload is warmed up *before* the fan-out so every
/// experiment hits the cache instead of racing to build it (other
/// workloads — e.g. Baxter's — are built lazily by the first experiment
/// that needs them, without blocking different-keyed cache hits).
pub fn run_selected(list: &[Experiment], scale: Scale, pool: &ThreadPool) -> RunSummary {
    let t0 = Instant::now();
    let checks0 = mp_collision::metrics::pose_checks_total();
    let energy0 = mp_collision::metrics::energy_pj_total();
    let warm = Instant::now();
    let workload = BenchWorkload::cached(RobotModel::jaco2(), scale);
    let workload_wall = warm.elapsed();
    let (scenes, traces) = (workload.scenes.len(), workload.traces.len());
    drop(workload);

    let results: Vec<ExperimentResult> = pool.map(list, |_, exp| {
        let t = Instant::now();
        let report = (exp.runner)(scale);
        ExperimentResult {
            name: exp.name,
            report,
            wall: t.elapsed(),
        }
    });

    RunSummary {
        scale,
        threads: pool.threads(),
        workload_wall,
        scenes,
        traces,
        total_wall: t0.elapsed(),
        cd_checks: mp_collision::metrics::pose_checks_total() - checks0,
        cd_energy_pj: mp_collision::metrics::energy_pj_total() - energy0,
        uj_per_plan_full: e::soak::catalog(scale).mean_energy_pj(mp_planner::QualityTier::Full)
            / 1e6,
        results,
    }
}

/// Writes `BENCH.json` for a run. The path comes from the
/// `MPACCEL_BENCH_JSON` environment variable, defaulting to
/// `BENCH.json` in the current directory.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_json(summary: &RunSummary) -> std::io::Result<std::path::PathBuf> {
    let path = std::env::var("MPACCEL_BENCH_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("BENCH.json"));
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&path, summary.to_json())?;
    Ok(path)
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
        assert!(summary.total_wall >= summary.results.iter().map(|r| r.wall).max().unwrap());
        assert!(summary.cd_checks > 0, "fig17 replays CD batches");
        assert!(summary.cd_energy_pj > 0.0, "CD work carries energy");
        assert!(summary.pj_per_cd_check() > 0.0);
        assert!(
            summary.uj_per_plan_full > 0.0,
            "soak catalog J/plan baseline"
        );
        let json = summary.to_json();
        assert!(json.contains("\"schema\": \"mpaccel-bench/1\""));
        assert!(json.contains("\"name\": \"fig17\""));
        assert!(json.contains("\"scale\": \"quick\""));
        assert!(json.contains("\"cd_energy_pj\""));
        assert!(json.contains("\"pj_per_cd_check\""));
        assert!(json.contains("\"uj_per_plan_full\""));
        // The timing table lists both experiments.
        let table = summary.timing_report().to_string();
        assert!(table.contains("fig17") && table.contains("table2"));
    }
}
