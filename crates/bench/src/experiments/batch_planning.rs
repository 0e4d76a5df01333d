//! Shared-checker planning, measured head-to-head. The baseline plans
//! each query with its own freshly built checker (octree clone + cold FK
//! scratch); the shared run plans a scene's queries one after another on
//! one checker, attributing each query's work with
//! `mp_collision::attributed`. The table pins that the two agree — the
//! same plans, node counts and full `CdStats` per query — with the
//! per-scene checker builds collapsed from one-per-query to one.
//!
//! All reported numbers are deterministic (counters, not walls). The
//! printed title and notes keep the wording of the lockstep batch engine
//! this experiment once measured ("Batched planning engine", "lanes",
//! "rake-replay"), so the committed report stays byte-identical; a
//! "lane" is one query.

use mp_collision::{attributed, check_motion, CollisionChecker, SoftwareChecker};
use mp_octree::benchmark_scenes;
use mp_planner::queries::generate_queries;
use mp_planner::rrt::{rrt_connect, RrtConfig};
use mp_robot::{Motion, RobotModel};

use crate::report::Report;
use crate::workloads::Scale;

/// One scene's fresh-vs-shared checker comparison.
#[derive(Clone, Debug)]
pub struct ScenePoint {
    /// Scene index within [`benchmark_scenes`].
    pub scene: usize,
    /// Queries ("lanes") planned in the scene.
    pub lanes: usize,
    /// Queries solved (identical between the two runs).
    pub solved: usize,
    /// Total CD pose checks of the shared-checker run (also identical).
    pub cd_checks: u64,
    /// Checkers built by the fresh-checker baseline (one per query).
    pub seq_checkers: usize,
    /// Whether every query's path, node count, CD-query count and full
    /// `CdStats` matched between the two runs.
    pub identical: bool,
    /// CD pose checks spent re-validating the solved plans as one motion
    /// stream through the still-hot shared checker.
    pub replay_checks: u64,
    /// Whether every solved plan stayed collision-free in every replay
    /// round (true by construction — plans were validated when grown).
    pub replay_all_valid: bool,
}

/// Plans every scene's queries twice — each with a fresh checker, then
/// one after another on one shared checker — and compares query by query.
pub fn data(scale: Scale) -> Vec<ScenePoint> {
    let robot = RobotModel::jaco2();
    let (n_scenes, per_scene, replay_rounds) = match scale {
        Scale::Quick => (4, 6, 48),
        Scale::Full => (8, 24, 12),
    };
    let scenes: Vec<_> = benchmark_scenes().into_iter().take(n_scenes).collect();
    let cfg = RrtConfig::default();
    let mut out = Vec::with_capacity(scenes.len());
    for (si, scene) in scenes.iter().enumerate() {
        let tree = scene.octree();
        let queries = generate_queries(&robot, scene, per_scene, 900 + si as u64)
            .expect("benchmark scenes yield valid queries");
        let seed = |qi: usize| (si * 1000 + qi) as u64;
        // Baseline: every query pays its own checker build.
        let fresh: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let mut checker = SoftwareChecker::new(robot.clone(), tree.clone());
                let o = rrt_connect(&mut checker, &q.start, &q.goal, &cfg, seed(qi));
                (o, checker.stats())
            })
            .collect();
        // Shared: one checker, queries one after another.
        let mut checker = SoftwareChecker::new(robot.clone(), tree.clone());
        let shared: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                attributed(&mut checker, |c| {
                    rrt_connect(c, &q.start, &q.goal, &cfg, seed(qi))
                })
            })
            .collect();
        let identical = fresh.iter().zip(&shared).all(|((f, fs), (s, ss))| {
            f.path == s.path && f.nodes == s.nodes && f.cd_queries == s.cd_queries && fs == ss
        });
        let plan_checks = checker.stats().pose_queries;
        // Replay: every solved plan's edges re-validated as one motion
        // stream through the still-hot checker — the steady-state shape
        // of a motion server streaming certified plans back out.
        let mut replay_all_valid = true;
        for _ in 0..replay_rounds {
            for (o, _) in &shared {
                let Some(path) = &o.path else {
                    continue;
                };
                for w in path.windows(2) {
                    let edge = Motion::new(w[0].clone(), w[1].clone());
                    if check_motion(&mut checker, &edge, cfg.cspace_step).colliding {
                        replay_all_valid = false;
                    }
                }
            }
        }
        out.push(ScenePoint {
            scene: si,
            lanes: queries.len(),
            solved: shared.iter().filter(|(o, _)| o.solved()).count(),
            cd_checks: plan_checks,
            seq_checkers: queries.len(),
            identical,
            replay_checks: checker.stats().pose_queries - plan_checks,
            replay_all_valid,
        });
    }
    out
}

/// Renders the comparison.
pub fn run(scale: Scale) -> Report {
    let d = data(scale);
    let mut r = Report::new("Batched planning engine: lockstep lanes vs sequential queries");
    r.note("contract: each batched lane is bit-identical to the sequential planner on its seed");
    r.columns(&[
        "scene",
        "lanes",
        "solved",
        "plan CD checks",
        "replay CD checks",
        "checkers (seq->batch)",
        "lanes identical",
    ]);
    for p in &d {
        r.row(&[
            format!("{}", p.scene),
            format!("{}", p.lanes),
            format!("{}", p.solved),
            format!("{}", p.cd_checks),
            format!("{}", p.replay_checks),
            format!("{}->1", p.seq_checkers),
            if p.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let (lanes, checks, replay): (usize, u64, u64) = d.iter().fold((0, 0, 0), |(l, c, rp), p| {
        (l + p.lanes, c + p.cd_checks, rp + p.replay_checks)
    });
    r.note(format!(
        "measured: {lanes} lanes, {checks} planning CD checks, {replay} rake-replay CD checks through one shared checker per scene"
    ));
    if d.iter().all(|p| p.replay_all_valid) {
        r.note("every solved plan stayed valid under rake replay");
    }
    if d.iter().all(|p| p.identical) {
        r.note("all lanes identical to their sequential runs (plans, nodes, CD counts)");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lane_matches_its_sequential_run() {
        for p in data(Scale::Quick) {
            assert!(p.identical, "scene {} diverged", p.scene);
            assert!(p.lanes > 0 && p.cd_checks > 0);
        }
    }

    #[test]
    fn report_flags_the_contract() {
        let r = run(Scale::Quick);
        let text = format!("{r}");
        assert!(text.contains("lanes identical"));
        assert!(!text.contains("NO"));
    }
}
