//! `accel_replay`: the accelerator model (`mpaccel-core`) on its own —
//! MPNet traces replayed through the MCSP scheduler over the paper's 16
//! CECDUs.
//!
//! One operation is one `MpAccelSystem::run_trace_ledgered` of one
//! distinct MPNet trace on the scene it was recorded in. It exercises the
//! cycle model, the Q3.12 CECDU and the OOCD walk, and bypasses the
//! planner and the `f32` checker. Traces are recorded untimed, a chunk at
//! a time, by planning fresh queries on the ten benchmark scenes.

use mp_collision::{CollisionChecker, SoftwareChecker};
use mp_geometry::sat::{quantization_margin, signed_separation};
use mp_geometry::AabbF;
use mp_octree::{benchmark_scenes, Octree, Scene, SceneConfig};
use mp_planner::{plan, MpnetConfig, OracleSampler};
use mp_robot::fk::link_obbs;
use mp_robot::{JointConfig, RobotModel, TrigMode};
use mp_sim::EnergyLedger;
use mpaccel_core::{
    CecduChecker, CecduSim, MpAccelSystem, PlannerTrace, RunReport, SystemConfig, TraceEvent,
};

use super::planning::{fk_ns_per_pose, scene_queries};
use super::{add, ratio, replay_ns_per_item, Det, LayerValues, Workload};
use crate::trace::{Layer, Probe, Recorded, SAMPLE_EVERY};
use crate::{derive, percentile, Scale};

/// One recorded planner trace and the scene it belongs to.
pub struct Input {
    scene: usize,
    trace: PlannerTrace,
}

/// One replay's report and energy ledger.
pub struct Output {
    report: RunReport,
    ledger: EnergyLedger,
}

/// Per-scene checkers for the CECDU gate.
struct Oracle {
    hw: CecduChecker,
    sw: SoftwareChecker,
    leaves: Vec<AabbF>,
}

/// Whether some link of the robot at `pose` overlaps an occupied leaf by
/// more than the Q3.12 quantization margin on every SAT axis — a collision
/// the fixed-point datapath must never report free.
fn deep_collision(robot: &RobotModel, pose: &JointConfig, leaves: &[AabbF]) -> bool {
    link_obbs(robot, pose, TrigMode::Exact).iter().any(|o| {
        leaves
            .iter()
            .any(|l| signed_separation(o, l) < -quantization_margin(o, l))
    })
}

/// State of the `accel_replay` workload.
pub struct AccelReplay {
    seed: u64,
    scale: Scale,
    robot: RobotModel,
    scenes: Vec<Scene>,
    trees: Vec<Octree>,
    systems: Vec<MpAccelSystem>,
    oracles: Vec<Option<Oracle>>,
    sampled_poses: Vec<(usize, JointConfig)>,
}

impl AccelReplay {
    fn group(&self) -> u64 {
        match self.scale {
            Scale::Full => 25,
            Scale::Smoke => 2,
        }
    }

    /// Leading traces of a pass that go through the CECDU gate. Checking
    /// every pose twice costs several times the replay itself, so the
    /// gate covers a prefix rather than every trace.
    fn gated_traces(&self) -> u64 {
        match self.scale {
            Scale::Full => 400,
            Scale::Smoke => 10,
        }
    }

    /// The poses of `input`'s trace that the Q3.12 CECDU calls free while
    /// the `f32` checker calls them colliding, and how many of those
    /// collide deeper than the quantization margin.
    fn cecdu_misses(&mut self, input: &Input) -> (u64, u64) {
        let (robot, tree) = (&self.robot, &self.trees[input.scene]);
        let oracle = self.oracles[input.scene].get_or_insert_with(|| Oracle {
            hw: CecduChecker::new(CecduSim::new(
                robot.clone(),
                tree.clone(),
                SystemConfig::paper_default().accel.cecdu,
            )),
            sw: SoftwareChecker::new(robot.clone(), tree.clone()),
            leaves: tree.occupied_leaves(),
        });
        let (mut misses, mut deep) = (0, 0);
        for p in trace_poses(&input.trace) {
            if oracle.sw.check_pose(&p) && !oracle.hw.check_pose(&p) {
                misses += 1;
                deep += u64::from(deep_collision(robot, &p, &oracle.leaves));
            }
        }
        (misses, deep)
    }
}

/// Every pose of every motion the trace sends to the scheduler.
fn trace_poses(trace: &PlannerTrace) -> impl Iterator<Item = JointConfig> + '_ {
    trace.events.iter().flat_map(|e| match e {
        TraceEvent::CdBatch { motions, .. } => motions
            .iter()
            .flat_map(|m| (0..m.count).map(move |i| m.pose(i)))
            .collect::<Vec<_>>(),
        _ => Vec::new(),
    })
}

impl Workload for AccelReplay {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "accel_replay";

    fn setup(seed: u64, scale: Scale, probe: Option<&Probe>) -> AccelReplay {
        let robot = RobotModel::jaco2();
        let scenes = benchmark_scenes();
        let depth = SceneConfig::paper().octree_depth;
        let trees: Vec<Octree> = scenes
            .iter()
            .map(|s| match probe {
                Some(p) => p.time(Layer::Build, || Octree::build(s.obstacles(), depth)),
                None => Octree::build(s.obstacles(), depth),
            })
            .collect();
        let systems = trees
            .iter()
            .map(|t| MpAccelSystem::new(robot.clone(), t.clone(), SystemConfig::paper_default()))
            .collect();
        AccelReplay {
            seed,
            scale,
            oracles: scenes.iter().map(|_| None).collect(),
            robot,
            scenes,
            trees,
            systems,
            sampled_poses: Vec::new(),
        }
    }

    fn chunk(&self) -> usize {
        (self.group() * self.scenes.len() as u64) as usize
    }

    fn warmup(&self) -> u64 {
        match self.scale {
            Scale::Full => 100,
            Scale::Smoke => 4,
        }
    }

    fn det_ops(&self) -> u64 {
        match self.scale {
            Scale::Full => 3000,
            Scale::Smoke => 10,
        }
    }

    fn inputs(&mut self, start: u64, n: usize) -> Vec<Input> {
        let stream = (self.seed, 30);
        let queries = scene_queries(&self.robot, &self.scenes, self.group(), stream, start, n);
        (start..)
            .zip(queries)
            .map(|(i, q)| {
                let tree = self.trees[q.scene].clone();
                let mut checker = SoftwareChecker::new(self.robot.clone(), tree);
                let mut sampler = OracleSampler::new(self.robot.clone(), derive(self.seed, 41, i));
                let cfg = MpnetConfig {
                    seed: derive(self.seed, 42, i),
                    ..MpnetConfig::default()
                };
                let out = plan(&mut checker, &mut sampler, &q.start, &q.goal, &cfg);
                Input {
                    scene: q.scene,
                    trace: out.trace,
                }
            })
            .collect()
    }

    fn run(&mut self, _op: u64, input: &Input, probe: Option<&Probe>) -> Output {
        let system = &self.systems[input.scene];
        let (report, ledger) = match probe {
            Some(p) => p.time(Layer::RunTrace, || system.run_trace_ledgered(&input.trace)),
            None => system.run_trace_ledgered(&input.trace),
        };
        Output { report, ledger }
    }

    fn work(out: &Output) -> u64 {
        out.report.cd_queries
    }

    fn check(&mut self, _input: &Input, out: &Output, _thorough: bool) -> Result<(), String> {
        if out.ledger.total_ops() == out.report.ops {
            Ok(())
        } else {
            Err("energy ledger does not sum to the report's datapath work".to_string())
        }
    }

    fn account(&mut self, input: &Input, out: &Output, det: &mut Det) -> Result<(), String> {
        // The CECDU gate: a gated trace with any pose the Q3.12 CECDU calls
        // free while the f32 checker calls it colliding is not ok. One
        // colliding deeper than the quantization margin, which the
        // fixed-point datapath guarantees never to miss, fails the run.
        let mut verdict = Ok(());
        if det.ops < self.gated_traces() {
            let (misses, deep) = self.cecdu_misses(input);
            det.attempts += 1;
            det.ok += u64::from(misses == 0);
            det.count("cecdu_free_vs_colliding", misses);
            if deep > 0 {
                verdict = Err(format!(
                    "{deep} poses deeper in collision than the Q3.12 margin judged free by the CECDU"
                ));
            }
        }
        let r = &out.report;
        det.ops += 1;
        det.plans += 1;
        det.plan_energy_pj += out.ledger.total_energy_pj();
        det.work += r.cd_queries;
        det.work_energy_pj += out.ledger.scope_energy_pj("cd").unwrap_or(0.0);
        det.modeled_sum_us += r.total_ms * 1e3;
        det.modeled_n += 1;
        det.tail_us.push(r.total_ms * 1e3);
        det.count("sim_poses", r.cd_queries);
        det.count("cd_cycles", r.cd_cycles);
        let h = &mut det.digest;
        h.f64(r.total_ms);
        h.f64(r.cd_ms);
        h.u64(r.cd_cycles);
        h.u64(r.cd_queries);
        h.u64(r.ops.mults);
        h.u64(r.ops.box_tests);
        h.u64(r.ops.big_sram_reads);
        h.f64(out.ledger.total_energy_pj());
        verdict
    }

    fn layer_account(&mut self, op: u64, input: &Input, out: &Output, sums: &mut LayerValues) {
        let r = &out.report;
        add(sums, "sim_poses", r.cd_queries as f64);
        add(sums, "cd_cycles", r.cd_cycles as f64);
        add(sums, "cd_ms", r.cd_ms);
        add(sums, "total_ms", r.total_ms);
        for scope in ["nn", "bus", "cd"] {
            let pj = out.ledger.scope_energy_pj(scope).unwrap_or(0.0);
            add(sums, scope, pj);
        }
        if op.is_multiple_of(SAMPLE_EVERY) {
            self.sampled_poses
                .extend(trace_poses(&input.trace).map(|p| (input.scene, p)));
        }
    }

    fn layer_finish(&mut self, rec: &Recorded, sums: &LayerValues, det: &Det) -> LayerValues {
        let get = |k: &str| sums.get(k).copied().unwrap_or(0.0);
        let ops = det.ops.max(1) as f64;
        let mut run_us: Vec<f64> = rec
            .roots
            .iter()
            .map(|r| r.layer_ns[Layer::RunTrace as usize] as f64 / 1e3)
            .collect();
        run_us.sort_by(f64::total_cmp);
        let run_ns = rec.totals_ns[Layer::RunTrace as usize] as f64;
        let sim_poses = get("sim_poses");
        // CECDU host cost per pose, replaying the sampled traces' poses
        // through each scene's CECDU model (best of three passes).
        let sims: Vec<CecduSim> = self
            .trees
            .iter()
            .map(|t| {
                CecduSim::new(
                    self.robot.clone(),
                    t.clone(),
                    SystemConfig::paper_default().accel.cecdu,
                )
            })
            .collect();
        let cecdu_ns = replay_ns_per_item(&self.sampled_poses, |(s, p)| {
            std::hint::black_box(sims[*s].check_pose(p));
        });
        let poses: Vec<JointConfig> = self.sampled_poses.iter().map(|(_, p)| p.clone()).collect();
        let mut build_sorted: Vec<f64> = rec.build_ns.iter().map(|&n| n as f64).collect();
        build_sorted.sort_by(f64::total_cmp);
        let n_trees = self.trees.len().max(1) as f64;
        let mut v = LayerValues::new();
        v.insert(
            "robot.fk_ns_per_pose",
            fk_ns_per_pose(&self.robot, &poses, TrigMode::Hardware),
        );
        v.insert("octree.build_us_p50", percentile(&build_sorted, 0.50) / 1e3);
        v.insert("octree.build_us_p99", percentile(&build_sorted, 0.99) / 1e3);
        v.insert(
            "octree.nodes",
            self.trees
                .iter()
                .map(|t| t.node_count() as f64)
                .sum::<f64>()
                / n_trees,
        );
        v.insert(
            "octree.entries",
            self.trees
                .iter()
                .map(|t| t.flat().entry_count() as f64)
                .sum::<f64>()
                / n_trees,
        );
        v.insert("core.run_trace_us_p50", percentile(&run_us, 0.50));
        v.insert("core.run_trace_us_p99", percentile(&run_us, 0.99));
        v.insert("core.host_ns_per_sim_pose", ratio(run_ns, sim_poses));
        v.insert("core.cecdu_ns_per_pose", cecdu_ns);
        v.insert(
            "core.sas_self_frac",
            ratio(run_ns - sim_poses * cecdu_ns, run_ns).max(0.0),
        );
        v.insert("core.cd_cycles_per_plan", get("cd_cycles") / ops);
        v.insert("core.modeled_cd_frac", ratio(get("cd_ms"), get("total_ms")));
        v.insert("core.pj_per_cd_check", ratio(get("cd"), sim_poses));
        v.insert("core.pj.nn", get("nn") / ops);
        v.insert("core.pj.bus", get("bus") / ops);
        v.insert("core.pj.cd", get("cd") / ops);
        v.insert(
            "core.cecdu_unsafe_mismatches",
            det.counts
                .get("cecdu_free_vs_colliding")
                .map_or(0.0, |&n| n as f64),
        );
        v
    }
}
