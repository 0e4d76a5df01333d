//! Planner comparison — the §1 context claim: "MPNet has shown 15× speedup
//! on CPU and 40 % improvement in the path quality compared to the
//! traditional sampling-based motion planning algorithms". We compare the
//! MPNet-style neural planner against RRT and RRT-Connect on collision-
//! detection work (the dominant cost) and path quality, and show that the
//! accelerator serves classical planners too (§6: "MPAccel can also be
//! used for other sampling-based motion planning algorithms").

use mp_collision::SoftwareChecker;
use mp_octree::benchmark_scenes;
use mp_planner::mpnet::{plan, MpnetConfig};
use mp_planner::queries::generate_queries;
use mp_planner::rrt::{rrt, rrt_connect, RrtConfig};
use mp_planner::sampler::OracleSampler;
use mp_robot::{JointConfig, RobotModel};

use crate::report::{f2, Report};
use crate::workloads::Scale;

/// Aggregate results of one planner over the query set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlannerStats {
    /// Queries attempted.
    pub attempted: u32,
    /// Queries solved.
    pub solved: u32,
    /// Mean CD pose queries per solved query.
    pub avg_cd_queries: f64,
    /// Mean C-space path length of solved queries.
    pub avg_path_length: f64,
}

impl PlannerStats {
    /// Counts one attempted query; solved ones feed the sums that
    /// [`data`] turns into means.
    fn record(&mut self, path: Option<&[JointConfig]>, cd_queries: u64) {
        self.attempted += 1;
        if let Some(p) = path {
            self.solved += 1;
            self.avg_cd_queries += cd_queries as f64;
            self.avg_path_length += path_length(p) as f64;
        }
    }
}

fn path_length(path: &[JointConfig]) -> f32 {
    path.windows(2).map(|w| w[0].distance(&w[1])).sum()
}

/// Runs all three planners on the same query set.
pub fn data(scale: Scale) -> Vec<(&'static str, PlannerStats)> {
    let robot = RobotModel::jaco2();
    let scenes: Vec<_> = benchmark_scenes()
        .into_iter()
        .take(match scale {
            Scale::Quick => 3,
            Scale::Full => 10,
        })
        .collect();
    let queries_per_scene = match scale {
        Scale::Quick => 2,
        Scale::Full => 20,
    };

    let mut out = vec![
        ("MPNet-style", PlannerStats::default()),
        ("RRT", PlannerStats::default()),
        ("RRT-Connect", PlannerStats::default()),
    ];
    // Each planner plans a scene's queries one after another on its own
    // shared checker, so the octree is cloned once per (scene, planner).
    for (si, scene) in scenes.iter().enumerate() {
        let tree = scene.octree();
        let queries = generate_queries(&robot, scene, queries_per_scene, 300 + si as u64)
            .expect("benchmark scenes yield valid queries");
        let seed = |qi: usize| (si * 100 + qi) as u64;
        let rrt_cfg = RrtConfig::default();
        let mut checker = SoftwareChecker::new(robot.clone(), tree.clone());
        for (qi, q) in queries.iter().enumerate() {
            let cfg = MpnetConfig {
                seed: seed(qi),
                ..MpnetConfig::default()
            };
            let mut sampler = OracleSampler::new(robot.clone(), seed(qi));
            let o = plan(&mut checker, &mut sampler, &q.start, &q.goal, &cfg);
            out[0].1.record(o.path.as_deref(), o.stats.cd_queries);
        }
        let mut checker = SoftwareChecker::new(robot.clone(), tree.clone());
        for (qi, q) in queries.iter().enumerate() {
            let o = rrt(&mut checker, &q.start, &q.goal, &rrt_cfg, seed(qi));
            out[1].1.record(o.path.as_deref(), o.cd_queries);
        }
        let mut checker = SoftwareChecker::new(robot.clone(), tree);
        for (qi, q) in queries.iter().enumerate() {
            let o = rrt_connect(&mut checker, &q.start, &q.goal, &rrt_cfg, seed(qi));
            out[2].1.record(o.path.as_deref(), o.cd_queries);
        }
    }
    for (_, s) in &mut out {
        if s.solved > 0 {
            s.avg_cd_queries /= s.solved as f64;
            s.avg_path_length /= s.solved as f64;
        }
    }
    out
}

/// Renders the comparison.
pub fn run(scale: Scale) -> Report {
    let d = data(scale);
    let mut r = Report::new("Planner comparison: neural (MPNet-style) vs classical sampling");
    r.note("paper (§1): MPNet ≈ 15x less CPU work and ~40% better paths than traditional sampling");
    r.columns(&[
        "planner",
        "solved",
        "avg CD queries",
        "avg path length (rad)",
    ]);
    for (name, s) in &d {
        r.row(&[
            name.to_string(),
            format!("{}/{}", s.solved, s.attempted),
            f2(s.avg_cd_queries),
            f2(s.avg_path_length),
        ]);
    }
    let neural = d[0].1;
    let classical = d[1].1;
    if neural.solved > 0 && classical.solved > 0 {
        r.note(format!(
            "measured: neural needs {:.1}x fewer CD queries and produces {:.0}% shorter paths than RRT",
            classical.avg_cd_queries / neural.avg_cd_queries.max(1.0),
            (1.0 - neural.avg_path_length / classical.avg_path_length) * 100.0
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neural_planner_is_more_work_efficient_than_rrt() {
        let d = data(Scale::Quick);
        let neural = d[0].1;
        let rrt_s = d[1].1;
        assert!(neural.solved >= 1, "neural solved nothing");
        if rrt_s.solved >= 1 {
            // The §1 claim's direction: fewer CD queries. (The paper's 15x
            // is on harder, full-scale query sets; quick-scale queries are
            // easy enough that goal-biased RRT closes part of the gap.)
            assert!(
                neural.avg_cd_queries * 1.2 < rrt_s.avg_cd_queries,
                "neural {} vs RRT {}",
                neural.avg_cd_queries,
                rrt_s.avg_cd_queries
            );
            // And shorter (or at least not much longer) paths.
            assert!(neural.avg_path_length <= rrt_s.avg_path_length * 1.1);
        }
    }

    #[test]
    fn report_lists_three_planners() {
        assert_eq!(run(Scale::Quick).rows().len(), 3);
    }
}
