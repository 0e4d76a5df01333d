//! `plan_paper`: the paper's own traffic (§6) — MPNet with the oracle
//! sampler on the ten benchmark scenes, fresh queries every time.
//!
//! One operation is one `mp_planner::plan` call with a fresh
//! `SoftwareChecker` over the scene's depth-4 octree (built in set-up,
//! cloned into the checker per query) and a fresh `OracleSampler`.
//! Collision detection is ~95% of the time, the octree is shallow and the
//! sphere filter decides most tests: this is the "reads only" case, with
//! no octree built on the timed path.

use mp_collision::{CollisionChecker, SoftwareChecker};
use mp_octree::{benchmark_scenes, Octree, Scene, SceneConfig};
use mp_planner::{plan, MpnetConfig, OracleSampler, PlanBudget, PlanCertifier};
use mp_robot::RobotModel;

use super::planning::{self, Gate, PlanOut, Query};
use super::{Det, LayerValues, Workload};
use crate::trace::{Layer, Probe, Recorded, TimedChecker, TimedSampler};
use crate::{derive, Scale};

/// State of the `plan_paper` workload.
pub struct PlanPaper {
    seed: u64,
    scale: Scale,
    robot: RobotModel,
    scenes: Vec<Scene>,
    trees: Vec<Octree>,
    certifiers: Vec<Option<PlanCertifier>>,
    gate: Gate,
}

impl PlanPaper {
    /// Queries generated per scene at a time.
    fn group(&self) -> u64 {
        match self.scale {
            Scale::Full => 100,
            Scale::Smoke => 2,
        }
    }
}

impl Workload for PlanPaper {
    type Input = Query;
    type Output = PlanOut;

    const NAME: &'static str = "plan_paper";

    fn setup(seed: u64, scale: Scale, probe: Option<&Probe>) -> PlanPaper {
        let robot = RobotModel::jaco2();
        let scenes = benchmark_scenes();
        let depth = SceneConfig::paper().octree_depth;
        let trees = scenes
            .iter()
            .map(|s| match probe {
                Some(p) => p.time(Layer::Build, || Octree::build(s.obstacles(), depth)),
                None => Octree::build(s.obstacles(), depth),
            })
            .collect();
        PlanPaper {
            seed,
            scale,
            certifiers: vec![None; scenes.len()],
            gate: Gate::new(robot.clone(), depth),
            robot,
            scenes,
            trees,
        }
    }

    fn chunk(&self) -> usize {
        (self.group() * self.scenes.len() as u64) as usize
    }

    fn warmup(&self) -> u64 {
        match self.scale {
            Scale::Full => 200,
            Scale::Smoke => 10,
        }
    }

    fn det_ops(&self) -> u64 {
        match self.scale {
            Scale::Full => 4000,
            Scale::Smoke => 20,
        }
    }

    fn inputs(&mut self, start: u64, n: usize) -> Vec<Query> {
        let stream = (self.seed, 10);
        planning::scene_queries(&self.robot, &self.scenes, self.group(), stream, start, n)
    }

    fn run(&mut self, op: u64, q: &Query, probe: Option<&Probe>) -> PlanOut {
        let tree = &self.trees[q.scene];
        let checker = SoftwareChecker::new(self.robot.clone(), tree.clone());
        let sampler = OracleSampler::new(self.robot.clone(), derive(self.seed, 2, op));
        let cfg = MpnetConfig {
            seed: derive(self.seed, 3, op),
            ..MpnetConfig::default()
        };
        let (out, cd) = match probe {
            None => {
                let (mut c, mut s) = (checker, sampler);
                let out = plan(&mut c, &mut s, &q.start, &q.goal, &cfg);
                (out, c.stats())
            }
            Some(p) => {
                let mut c = TimedChecker::new(checker, p);
                let mut s = TimedSampler::new(sampler, p);
                let out = plan(&mut c, &mut s, &q.start, &q.goal, &cfg);
                (out, c.stats())
            }
        };
        PlanOut {
            cd,
            energy_pj: out.energy_pj(),
            modeled_us: PlanBudget::modeled_us(out.stats.cd_queries, out.stats.nn_calls),
            nn_calls: out.stats.nn_calls,
            replans: out.stats.replans,
            nodes: out.stats.coarse_waypoints as u64,
            failure: out.failure.map(|f| f.to_string()).unwrap_or_default(),
            octree_nodes: tree.node_count() as u64,
            octree_entries: tree.flat().entry_count() as u64,
            path: out.path,
        }
    }

    fn work(out: &PlanOut) -> u64 {
        out.cd.pose_queries
    }

    fn check(&mut self, q: &Query, out: &PlanOut, thorough: bool) -> Result<(), String> {
        self.gate.check(
            q,
            out,
            self.scenes[q.scene].obstacles(),
            &mut self.certifiers[q.scene],
            thorough,
        )
    }

    fn account(&mut self, _q: &Query, out: &PlanOut, det: &mut Det) -> Result<(), String> {
        planning::account(out, det);
        Ok(())
    }

    fn layer_account(&mut self, _op: u64, _q: &Query, out: &PlanOut, sums: &mut LayerValues) {
        planning::layer_account(out, sums);
    }

    fn layer_finish(&mut self, rec: &Recorded, sums: &LayerValues, det: &Det) -> LayerValues {
        planning::layer_finish(rec, sums, det.ops, &self.robot, &self.gate)
    }
}
