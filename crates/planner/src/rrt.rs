//! Classical sampling-based planners: RRT and RRT-Connect.
//!
//! These are the "traditional sampling-based motion planning algorithms"
//! MPNet is compared against (§1: "MPNet has shown 15× speedup on CPU and
//! 40% improvement in the path quality compared to the traditional
//! sampling-based motion planning algorithms"). They serve as workload
//! baselines: far more collision-detection queries per solved query.

use mp_collision::{check_motion, CollisionChecker, CSPACE_STEP};
use mp_robot::{JointConfig, Motion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probability of sampling the goal directly (goal bias) in plain [`rrt`].
pub const GOAL_BIAS: f32 = 0.1;

/// RRT parameters. Edges are checked at [`CSPACE_STEP`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RrtConfig {
    /// Maximum tree nodes before giving up.
    pub max_nodes: usize,
    /// Steering step (C-space L2 radians).
    pub steer_step: f32,
    /// Collision-detection query budget for this run (`None` = only the
    /// node cap applies). Lets a degraded planner hand RRT whatever
    /// budget remains after a failed MPNet attempt.
    pub max_cd_queries: Option<u64>,
}

impl Default for RrtConfig {
    fn default() -> RrtConfig {
        RrtConfig {
            max_nodes: 2000,
            steer_step: 0.5,
            max_cd_queries: None,
        }
    }
}

/// Result of a classical planning run.
#[derive(Clone, Debug)]
pub struct RrtOutcome {
    /// The path, if found.
    pub path: Option<Vec<JointConfig>>,
    /// Tree nodes expanded.
    pub nodes: usize,
    /// CD pose queries executed.
    pub cd_queries: u64,
}

impl RrtOutcome {
    /// Whether a path was found.
    pub fn solved(&self) -> bool {
        self.path.is_some()
    }
}

/// Nearest-neighbour block width: eight nodes' squared distances
/// accumulate side by side in a fixed-size array, which the compiler can
/// keep in registers and vectorize (8 × f32 is one 256-bit vector).
const NN_LANES: usize = 8;

/// A growing RRT tree in joint-major SoA layout, with an 8-lane blocked
/// nearest-neighbour scan (the planner-side hot loop).
pub struct Tree {
    nodes: Vec<JointConfig>,
    parents: Vec<usize>,
    /// Joint-major copy of `nodes` (`lanes[j][i]` = joint `j` of node
    /// `i`): the nearest-neighbour scan is the planner-side hot loop, and
    /// the transposed layout lets it sweep eight nodes per step as packed
    /// lanes instead of chasing a heap allocation per node.
    lanes: Vec<Vec<f32>>,
}

impl Tree {
    /// A tree containing only `root` (parent-linked to itself).
    pub fn new(root: JointConfig) -> Tree {
        let mut t = Tree {
            nodes: Vec::new(),
            parents: Vec::new(),
            lanes: vec![Vec::new(); root.dof()],
        };
        t.push(root, 0);
        t
    }

    /// Appends node `q` with parent index `parent`.
    ///
    /// # Panics
    ///
    /// May panic (debug) if `q`'s DOF mismatches the root's.
    pub fn push(&mut self, q: JointConfig, parent: usize) {
        debug_assert_eq!(q.dof(), self.lanes.len(), "DOF mismatch in tree push");
        for (lane, &v) in self.lanes.iter_mut().zip(q.as_slice()) {
            lane.push(v);
        }
        self.nodes.push(q);
        self.parents.push(parent);
    }

    /// Node count.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The configuration at node `i`.
    pub fn node(&self, i: usize) -> &JointConfig {
        &self.nodes[i]
    }

    /// Index of the node nearest to `q` (C-space L2), scanning eight
    /// nodes per step over the joint-major lanes. Bit-identical to the
    /// naive per-node scan: the blocked accumulation follows the same
    /// per-node summation order, and the sqrt gate only skips nodes whose
    /// squared distance already lost.
    pub fn nearest(&self, q: &JointConfig) -> usize {
        let qs = q.as_slice();
        assert_eq!(self.lanes.len(), qs.len(), "DOF mismatch in distance");
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        let mut best_acc = f32::INFINITY;
        // Bit-identity with the naive per-node `JointConfig::distance`
        // scan: each node's squared sum accumulates in joint order (the
        // blocking is across nodes, never within one node's sum),
        // candidates resolve in index order, and sqrt is monotone
        // non-decreasing — a sum at or above the incumbent's can never
        // win the `d < best_d` compare, so only strictly smaller sums
        // take the sqrt, where rounding ties resolve exactly as the
        // unguarded compare would. Ties therefore break to the same
        // index as the naive scan.
        let mut resolve = |i: usize, acc: f32| {
            if acc < best_acc {
                let d = acc.sqrt();
                if d < best_d {
                    best_d = d;
                    best_acc = acc;
                    best = i;
                }
            }
        };
        let n_nodes = self.nodes.len();
        let mut i = 0;
        while i + NN_LANES <= n_nodes {
            let mut acc = [0.0f32; NN_LANES];
            for (lane, &q) in self.lanes.iter().zip(qs) {
                let block = &lane[i..i + NN_LANES];
                for k in 0..NN_LANES {
                    let d = block[k] - q;
                    acc[k] += d * d;
                }
            }
            for (k, &a) in acc.iter().enumerate() {
                resolve(i + k, a);
            }
            i += NN_LANES;
        }
        while i < n_nodes {
            let acc = self
                .lanes
                .iter()
                .zip(qs)
                .map(|(lane, &q)| (lane[i] - q) * (lane[i] - q))
                .sum::<f32>();
            resolve(i, acc);
            i += 1;
        }
        best
    }

    /// The path from node `i` back to the root, returned root-first.
    pub fn path_to_root(&self, mut i: usize) -> Vec<JointConfig> {
        let mut out = vec![self.nodes[i].clone()];
        while self.parents[i] != i {
            i = self.parents[i];
            out.push(self.nodes[i].clone());
        }
        out.reverse();
        out
    }
}

fn steer(from: &JointConfig, to: &JointConfig, step: f32) -> JointConfig {
    let d = from.distance(to);
    if d <= step {
        to.clone()
    } else {
        from.lerp(to, step / d)
    }
}

fn out_of_budget(checker: &impl CollisionChecker, cd_before: u64, cfg: &RrtConfig) -> bool {
    cfg.max_cd_queries
        .is_some_and(|cap| checker.stats().pose_queries - cd_before >= cap)
}

/// Plain RRT with goal bias.
///
/// # Panics
///
/// Panics if start/goal DOF mismatch the robot.
pub fn rrt(
    checker: &mut impl CollisionChecker,
    start: &JointConfig,
    goal: &JointConfig,
    cfg: &RrtConfig,
    seed: u64,
) -> RrtOutcome {
    let robot = checker.robot().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let cd_before = checker.stats().pose_queries;
    if checker.check_pose(start) || checker.check_pose(goal) {
        return RrtOutcome {
            path: None,
            nodes: 0,
            cd_queries: checker.stats().pose_queries - cd_before,
        };
    }
    let mut tree = Tree::new(start.clone());
    while tree.len() < cfg.max_nodes && !out_of_budget(checker, cd_before, cfg) {
        let target = if rng.gen::<f32>() < GOAL_BIAS {
            goal.clone()
        } else {
            robot.sample_config(&mut rng)
        };
        let near = tree.nearest(&target);
        let new = steer(tree.node(near), &target, cfg.steer_step);
        let edge = Motion::new(tree.node(near).clone(), new.clone());
        if check_motion(checker, &edge, CSPACE_STEP).colliding {
            continue;
        }
        tree.push(new.clone(), near);
        // Goal connection attempt.
        let to_goal = Motion::new(new.clone(), goal.clone());
        if new.distance(goal) <= cfg.steer_step
            && !check_motion(checker, &to_goal, CSPACE_STEP).colliding
        {
            let mut path = tree.path_to_root(tree.len() - 1);
            path.push(goal.clone());
            // A goal-biased sample within one step of the tree steers
            // exactly onto the goal, which is then already the last node.
            dedup(&mut path);
            return RrtOutcome {
                path: Some(path),
                nodes: tree.len(),
                cd_queries: checker.stats().pose_queries - cd_before,
            };
        }
    }
    RrtOutcome {
        path: None,
        nodes: tree.len(),
        cd_queries: checker.stats().pose_queries - cd_before,
    }
}

/// RRT-Connect: two trees grown toward each other with a greedy connect
/// heuristic. Usually far fewer samples than plain RRT.
///
/// # Panics
///
/// Panics if start/goal DOF mismatch the robot.
pub fn rrt_connect(
    checker: &mut impl CollisionChecker,
    start: &JointConfig,
    goal: &JointConfig,
    cfg: &RrtConfig,
    seed: u64,
) -> RrtOutcome {
    let _span = mp_telemetry::span("planner", "rrt_connect");
    let robot = checker.robot().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let cd_before = checker.stats().pose_queries;
    if checker.check_pose(start) || checker.check_pose(goal) {
        return RrtOutcome {
            path: None,
            nodes: 0,
            cd_queries: checker.stats().pose_queries - cd_before,
        };
    }
    let mut ta = Tree::new(start.clone());
    let mut tb = Tree::new(goal.clone());
    let mut a_is_start = true;

    while ta.len() + tb.len() < cfg.max_nodes && !out_of_budget(checker, cd_before, cfg) {
        let target = robot.sample_config(&mut rng);
        // Extend tree A toward the sample.
        let near_a = ta.nearest(&target);
        let new_a = steer(ta.node(near_a), &target, cfg.steer_step);
        let edge = Motion::new(ta.node(near_a).clone(), new_a.clone());
        if !check_motion(checker, &edge, CSPACE_STEP).colliding {
            ta.push(new_a.clone(), near_a);
            // Greedily connect tree B toward the new node.
            loop {
                if out_of_budget(checker, cd_before, cfg) {
                    break;
                }
                let near_b = tb.nearest(&new_a);
                let step_b = steer(tb.node(near_b), &new_a, cfg.steer_step);
                let edge_b = Motion::new(tb.node(near_b).clone(), step_b.clone());
                if check_motion(checker, &edge_b, CSPACE_STEP).colliding {
                    break;
                }
                tb.push(step_b.clone(), near_b);
                if step_b.distance(&new_a) < 1e-4 {
                    // Trees met: assemble the path.
                    let pa = ta.path_to_root(ta.len() - 1);
                    let pb = tb.path_to_root(tb.len() - 1);
                    let mut path = if a_is_start { pa.clone() } else { pb.clone() };
                    let mut tail = if a_is_start { pb } else { pa };
                    tail.reverse();
                    path.extend(tail);
                    dedup(&mut path);
                    return RrtOutcome {
                        path: Some(path),
                        nodes: ta.len() + tb.len(),
                        cd_queries: checker.stats().pose_queries - cd_before,
                    };
                }
            }
        }
        std::mem::swap(&mut ta, &mut tb);
        a_is_start = !a_is_start;
    }
    RrtOutcome {
        path: None,
        nodes: ta.len() + tb.len(),
        cd_queries: checker.stats().pose_queries - cd_before,
    }
}

/// Removes consecutive duplicate waypoints.
pub(crate) fn dedup(path: &mut Vec<JointConfig>) {
    path.dedup_by(|a, b| a.distance(b) < 1e-6);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_collision::{check_path, SoftwareChecker};
    use mp_octree::{Octree, Scene, SceneConfig};
    use mp_robot::RobotModel;

    fn goal_for(robot: &RobotModel) -> JointConfig {
        let mut g = robot.home();
        g.as_mut_slice()[0] += 1.5;
        robot.clamp_config(&g)
    }

    #[test]
    fn rrt_solves_free_space() {
        let robot = RobotModel::planar_2dof();
        let mut checker = SoftwareChecker::new(robot.clone(), Octree::build(&[], 3));
        let out = rrt(
            &mut checker,
            &JointConfig::zeros(2),
            &JointConfig::new(vec![1.5, -0.5]),
            &RrtConfig::default(),
            1,
        );
        assert!(out.solved());
        let path = out.path.unwrap();
        assert_eq!(path.first().unwrap(), &JointConfig::zeros(2));
        assert!(
            path.last()
                .unwrap()
                .distance(&JointConfig::new(vec![1.5, -0.5]))
                < 1e-5
        );
    }

    #[test]
    fn rrt_never_repeats_the_goal() {
        // Start within one steering step of the goal: on seed 0 a
        // goal-biased sample steers exactly onto the goal before the
        // goal-connection step appends it.
        let robot = RobotModel::planar_2dof();
        let mut checker = SoftwareChecker::new(robot, Octree::build(&[], 3));
        let goal = JointConfig::new(vec![0.3, 0.0]);
        let out = rrt(
            &mut checker,
            &JointConfig::zeros(2),
            &goal,
            &RrtConfig::default(),
            0,
        );
        assert_eq!(out.path, Some(vec![JointConfig::zeros(2), goal]));
    }

    #[test]
    fn rrt_connect_solves_benchmark_scenes_with_valid_paths() {
        let robot = RobotModel::jaco2();
        let mut solved = 0;
        let mut total = 0;
        for seed in 0..4 {
            let scene = Scene::random(SceneConfig::paper(), seed);
            for q in crate::queries::generate_queries(&robot, &scene, 2, seed + 60)
                .expect("paper scenes yield valid queries")
            {
                total += 1;
                let mut checker = SoftwareChecker::new(robot.clone(), scene.octree());
                let out = rrt_connect(
                    &mut checker,
                    &q.start,
                    &q.goal,
                    &RrtConfig::default(),
                    seed + 5,
                );
                if let Some(path) = &out.path {
                    solved += 1;
                    let mut verifier = SoftwareChecker::new(robot.clone(), scene.octree());
                    assert_eq!(check_path(&mut verifier, path, CSPACE_STEP), None);
                }
            }
        }
        assert!(solved * 3 >= total * 2, "only {solved}/{total} solved");
    }

    #[test]
    fn rrt_gives_up_when_goal_unreachable() {
        let robot = RobotModel::planar_2dof();
        // Goal pose is inside an obstacle.
        let goal = JointConfig::new(vec![1.0, 0.0]);
        let ee = mp_robot::fk::end_effector(&robot, &goal);
        let tree = Octree::build(
            &[mp_geometry::Aabb::new(ee, mp_geometry::Vec3::splat(0.05))],
            5,
        );
        let mut checker = SoftwareChecker::new(robot.clone(), tree);
        let out = rrt(
            &mut checker,
            &JointConfig::zeros(2),
            &goal,
            &RrtConfig {
                max_nodes: 200,
                ..RrtConfig::default()
            },
            3,
        );
        assert!(!out.solved());
    }

    #[test]
    fn cd_budget_caps_the_search() {
        let robot = RobotModel::planar_2dof();
        // Goal pose inside an obstacle: unsolvable, so only the budget
        // (not success) can end the run early.
        let goal = JointConfig::new(vec![1.0, 0.0]);
        let ee = mp_robot::fk::end_effector(&robot, &goal);
        let tree = Octree::build(
            &[mp_geometry::Aabb::new(ee, mp_geometry::Vec3::splat(0.05))],
            5,
        );
        let cfg = RrtConfig {
            max_cd_queries: Some(150),
            ..RrtConfig::default()
        };
        let mut c1 = SoftwareChecker::new(robot.clone(), tree.clone());
        let a = rrt(&mut c1, &JointConfig::zeros(2), &goal, &cfg, 3);
        let mut c2 = SoftwareChecker::new(robot.clone(), tree.clone());
        let b = rrt_connect(&mut c2, &JointConfig::zeros(2), &goal, &cfg, 4);
        for out in [a, b] {
            assert!(!out.solved());
            // The cap is checked between edges, so one in-flight edge of
            // slack is allowed.
            assert!(
                out.cd_queries < 150 + 100,
                "spent {} queries",
                out.cd_queries
            );
        }
    }

    #[test]
    fn classical_planners_spend_more_cd_than_neural() {
        use crate::mpnet::{plan, MpnetConfig};
        use crate::sampler::OracleSampler;
        let robot = RobotModel::jaco2();
        let scene = Scene::random(SceneConfig::paper(), 2);
        let goal = goal_for(&robot);

        let mut c1 = SoftwareChecker::new(robot.clone(), scene.octree());
        let mut sampler = OracleSampler::new(robot.clone(), 4);
        let neural = plan(
            &mut c1,
            &mut sampler,
            &robot.home(),
            &goal,
            &MpnetConfig::default(),
        );

        let mut c2 = SoftwareChecker::new(robot.clone(), scene.octree());
        let classical = rrt(&mut c2, &robot.home(), &goal, &RrtConfig::default(), 4);

        if neural.solved() && classical.solved() {
            assert!(
                classical.cd_queries > neural.stats.cd_queries,
                "RRT {} vs MPNet {}",
                classical.cd_queries,
                neural.stats.cd_queries
            );
        }
    }
}
