//! `plan_clutter`: the map-update-then-plan loop — a new cluttered scene
//! for every query, mapped and then planned with RRT-Connect.
//!
//! One operation is `Octree::build` (depth 6, 24 obstacles), then
//! `SoftwareChecker::new`, then `rrt_connect` with the degradation
//! ladder's budgeted `QualityTier::Fallback` config. Octree build is about
//! 40% of the median query, traversals are deep and more tests pass the
//! sphere filter to SAT, and failing queries grow 1,200-node trees that
//! stress nearest-neighbour search: the "writes beside reads" case.

use mp_collision::{CollisionChecker, SoftwareChecker};
use mp_octree::{Octree, Scene, SceneConfig};
use mp_planner::queries::generate_queries;
use mp_planner::{rrt_connect, PlanBudget, QualityTier};
use mp_robot::RobotModel;

use super::planning::{self, Gate, PlanOut, Query};
use super::{Det, LayerValues, Workload};
use crate::trace::{Layer, Probe, Recorded, TimedChecker};
use crate::{derive, Scale};

/// Octree depth of the cluttered scenes.
const DEPTH: u32 = 6;

/// Obstacles per cluttered scene.
const OBSTACLES: usize = 24;

/// One cluttered planning problem.
pub struct Input {
    scene: Scene,
    query: Query,
}

/// State of the `plan_clutter` workload.
pub struct PlanClutter {
    seed: u64,
    scale: Scale,
    robot: RobotModel,
    gate: Gate,
}

impl Workload for PlanClutter {
    type Input = Input;
    type Output = PlanOut;

    const NAME: &'static str = "plan_clutter";

    fn setup(seed: u64, scale: Scale, _probe: Option<&Probe>) -> PlanClutter {
        let robot = RobotModel::jaco2();
        PlanClutter {
            seed,
            scale,
            gate: Gate::new(robot.clone(), DEPTH),
            robot,
        }
    }

    fn chunk(&self) -> usize {
        match self.scale {
            Scale::Full => 250,
            Scale::Smoke => 4,
        }
    }

    fn warmup(&self) -> u64 {
        match self.scale {
            Scale::Full => 20,
            Scale::Smoke => 2,
        }
    }

    fn det_ops(&self) -> u64 {
        match self.scale {
            Scale::Full => 1000,
            Scale::Smoke => 6,
        }
    }

    fn inputs(&mut self, start: u64, n: usize) -> Vec<Input> {
        let config = SceneConfig {
            octree_depth: DEPTH,
            ..SceneConfig::with_obstacles(OBSTACLES)
        };
        (start..start + n as u64)
            .map(|i| {
                // A scene too cluttered to yield a valid query is skipped
                // for the next seed of this operation's own stream.
                let op_seed = derive(self.seed, 20, i);
                (0..)
                    .find_map(|k| {
                        let scene = Scene::random(config, derive(op_seed, 0, k));
                        let q = generate_queries(&self.robot, &scene, 1, derive(op_seed, 1, k))
                            .ok()?
                            .pop()?;
                        Some(Input {
                            scene,
                            query: Query {
                                scene: 0,
                                start: q.start,
                                goal: q.goal,
                            },
                        })
                    })
                    .expect("an endless seed stream eventually yields a query")
            })
            .collect()
    }

    fn run(&mut self, op: u64, input: &Input, probe: Option<&Probe>) -> PlanOut {
        let obstacles = input.scene.obstacles();
        let tree = match probe {
            Some(p) => p.time(Layer::Build, || Octree::build(obstacles, DEPTH)),
            None => Octree::build(obstacles, DEPTH),
        };
        let (octree_nodes, octree_entries) =
            (tree.node_count() as u64, tree.flat().entry_count() as u64);
        let checker = SoftwareChecker::new(self.robot.clone(), tree);
        let (q, cfg, seed) = (
            &input.query,
            QualityTier::Fallback.rrt_config(),
            derive(self.seed, 21, op),
        );
        let (out, cd) = match probe {
            None => {
                let mut c = checker;
                let out = rrt_connect(&mut c, &q.start, &q.goal, &cfg, seed);
                (out, c.stats())
            }
            Some(p) => {
                let mut c = TimedChecker::new(checker, p);
                let out = rrt_connect(&mut c, &q.start, &q.goal, &cfg, seed);
                (out, c.stats())
            }
        };
        PlanOut {
            cd,
            energy_pj: cd.energy_pj(),
            modeled_us: PlanBudget::modeled_us(out.cd_queries, 0),
            nn_calls: 0,
            replans: 0,
            nodes: out.nodes as u64,
            failure: if out.solved() {
                String::new()
            } else {
                "not connected within the node budget".to_string()
            },
            octree_nodes,
            octree_entries,
            path: out.path,
        }
    }

    fn work(out: &PlanOut) -> u64 {
        out.cd.pose_queries
    }

    fn check(&mut self, input: &Input, out: &PlanOut, thorough: bool) -> Result<(), String> {
        let obstacles = input.scene.obstacles();
        self.gate
            .check(&input.query, out, obstacles, &mut None, thorough)
    }

    fn account(&mut self, _in: &Input, out: &PlanOut, det: &mut Det) -> Result<(), String> {
        planning::account(out, det);
        Ok(())
    }

    fn layer_account(&mut self, _op: u64, _in: &Input, out: &PlanOut, sums: &mut LayerValues) {
        planning::layer_account(out, sums);
    }

    fn layer_finish(&mut self, rec: &Recorded, sums: &LayerValues, det: &Det) -> LayerValues {
        planning::layer_finish(rec, sums, det.ops, &self.robot, &self.gate)
    }
}
