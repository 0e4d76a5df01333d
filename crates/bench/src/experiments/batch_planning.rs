//! Cross-query batched planning — the batch engine's contract and payoff,
//! measured head-to-head. The sequential baseline plans each query with
//! its own freshly built checker (octree clone + cold FK scratch); the
//! batched run streams every lane of a scene through one shared checker
//! (`mp_planner::batch`), each edge validated pose by pose with
//! `check_motion`. The table pins the contract: identical per-lane plans
//! and CD counts, with the per-scene checker builds collapsed from
//! one-per-query to one.
//!
//! All reported numbers are deterministic (counters, not walls); the
//! wall-clock payoff shows up in `BENCH.json` and in the criterion
//! microbenches (`check_motion`, `cross_query_gather`). The "rake-replay"
//! wording in the printed notes names the replay stream below; it is kept
//! so the committed report stays byte-identical.

use mp_collision::{check_motion, CollisionChecker, SoftwareChecker};
use mp_octree::benchmark_scenes;
use mp_planner::batch::{rrt_connect_batch, BatchQuery};
use mp_planner::queries::generate_queries;
use mp_planner::rrt::{rrt_connect, RrtConfig};
use mp_robot::{Motion, RobotModel};

use crate::report::Report;
use crate::workloads::Scale;

/// One scene's sequential-vs-batched comparison.
#[derive(Clone, Debug)]
pub struct ScenePoint {
    /// Scene index within [`benchmark_scenes`].
    pub scene: usize,
    /// Lanes (queries) planned in the scene.
    pub lanes: usize,
    /// Lanes solved (identical between the two runs by contract).
    pub solved: usize,
    /// Total CD pose checks of the batched run (also identical).
    pub cd_checks: u64,
    /// Checkers built by the sequential baseline (one per query).
    pub seq_checkers: usize,
    /// Whether every lane's path, node count and CD-query count matched
    /// the sequential run exactly.
    pub identical: bool,
    /// CD pose checks spent re-validating the solved plans as one motion
    /// stream through the still-hot shared checker.
    pub replay_checks: u64,
    /// Whether every solved plan stayed collision-free in every replay
    /// round (true by construction — plans were validated when grown).
    pub replay_all_valid: bool,
}

/// Plans every scene's query block twice — sequentially with fresh
/// checkers, then batched over one shared checker — and compares
/// lane-for-lane.
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
        let queries: Vec<BatchQuery> = generate_queries(&robot, scene, per_scene, 900 + si as u64)
            .expect("benchmark scenes yield valid queries")
            .into_iter()
            .enumerate()
            .map(|(qi, q)| BatchQuery {
                start: q.start,
                goal: q.goal,
                seed: (si * 1000 + qi) as u64,
            })
            .collect();
        // Sequential baseline: every query pays its own checker build.
        let seq: Vec<_> = queries
            .iter()
            .map(|q| {
                let mut checker = SoftwareChecker::new(robot.clone(), tree.clone());
                rrt_connect(&mut checker, &q.start, &q.goal, &cfg, q.seed)
            })
            .collect();
        // Batched: one checker, all lanes in lockstep.
        let mut checker = SoftwareChecker::new(robot.clone(), tree.clone());
        let batched = rrt_connect_batch(&mut checker, &queries, &cfg);
        let identical = seq.iter().zip(&batched).all(|(s, b)| {
            s.path == b.outcome.path
                && s.nodes == b.outcome.nodes
                && s.cd_queries == b.outcome.cd_queries
                && s.cd_queries == b.stats.pose_queries
        });
        let plan_checks = checker.stats().pose_queries;
        // Replay: every solved plan's edges re-validated as one motion
        // stream through the still-hot checker — the steady-state shape
        // of a motion server streaming certified plans back out.
        let mut replay_all_valid = true;
        for _ in 0..replay_rounds {
            for b in &batched {
                let Some(path) = &b.outcome.path else {
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
            solved: batched.iter().filter(|b| b.outcome.solved()).count(),
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
