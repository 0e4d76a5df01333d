//! A repeated pose is answered from the checker's pose cache exactly as a
//! walk answers it.
//!
//! `SoftwareChecker` keeps a bounded cache of its recent poses, and the
//! CDU `MpAccelSystem::run_trace_ledgered` dispatches a whole trace to
//! keeps one too. A hit must bill everything the walk would have: these
//! tests replay MPNet-shaped pose sequences (recorded MPNet checks, a
//! motion validated twice, motions sharing an endpoint, `0.0` and `-0.0`
//! joints, a non-finite pose, and more distinct poses than the cache
//! holds) and require, for every query:
//!
//! - the software checker's verdict, its `CdStats` after the call and the
//!   process-wide `mp_collision::metrics` delta to equal those of a fresh
//!   checker asked only that pose;
//! - `run_trace_ledgered`'s report and ledger, and its metrics delta, to
//!   equal a replay that calls `CecduSim::check_pose` on every dispatch.
//!
//! The process-wide metrics are shared by every test in this binary, so
//! each test holds `METRICS` while it measures them.

use std::sync::Mutex;

use mpaccel::accel::sas::{CduModel, CduResponse};
use mpaccel::accel::{
    run_sas, CecduSim, FunctionMode, MpAccelSystem, PlannerTrace, RunReport, SasConfig,
    SystemConfig, TraceEvent,
};
use mpaccel::collision::metrics::{ops_total, pose_checks_total};
use mpaccel::collision::pose_cache::POSE_CACHE_SLOTS;
use mpaccel::collision::{CdStats, CollisionChecker, SoftwareChecker};
use mpaccel::octree::{benchmark_scenes, Scene, SceneConfig};
use mpaccel::planner::queries::generate_queries;
use mpaccel::planner::{plan, MpnetConfig, OracleSampler};
use mpaccel::robot::{JointConfig, Motion, RobotModel};
use mpaccel::sim::{EnergyLedger, OpCounter};
use rand::rngs::StdRng;
use rand::SeedableRng;

static METRICS: Mutex<()> = Mutex::new(());

/// Motion resolution of the synthetic sequences (MPNet's default step).
const STEP: f32 = 0.04;

/// Runs `f` and returns its result with the process-wide pose checks and
/// CD work it recorded.
fn metered<T>(f: impl FnOnce() -> T) -> (T, (u64, OpCounter)) {
    let (checks, ops) = (pose_checks_total(), ops_total());
    let out = f();
    let mut work = ops_total();
    work.mults -= ops.mults;
    work.sram_reads -= ops.sram_reads;
    work.box_tests -= ops.box_tests;
    work.cd_queries -= ops.cd_queries;
    (out, (pose_checks_total() - checks, work))
}

/// A checker that records every pose it is asked.
struct Recorder {
    inner: SoftwareChecker,
    poses: Vec<JointConfig>,
}

impl CollisionChecker for Recorder {
    fn robot(&self) -> &RobotModel {
        self.inner.robot()
    }

    fn check_pose(&mut self, cfg: &JointConfig) -> bool {
        self.poses.push(cfg.clone());
        self.inner.check_pose(cfg)
    }

    fn stats(&self) -> CdStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

/// The poses MPNet checks, in order, and the traces it records, planning
/// `n` queries of `scene` on one checker.
fn mpnet_run(robot: &RobotModel, scene: &Scene, n: usize) -> (Vec<JointConfig>, Vec<PlannerTrace>) {
    let queries = generate_queries(robot, scene, n, 3).expect("paper scenes have free queries");
    let mut rec = Recorder {
        inner: SoftwareChecker::new(robot.clone(), scene.octree()),
        poses: Vec::new(),
    };
    let traces = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let mut sampler = OracleSampler::new(robot.clone(), 40 + i as u64);
            let cfg = MpnetConfig {
                seed: 90 + i as u64,
                ..MpnetConfig::default()
            };
            plan(&mut rec, &mut sampler, &q.start, &q.goal, &cfg).trace
        })
        .collect();
    (rec.poses, traces)
}

/// Three random poses `a`, `b`, `c` and the pose sequence of MPNet-shaped
/// repeats over them: the motion `a → b` validated twice, `b → c` sharing
/// its endpoint, a pose with `0.0` and then `-0.0` joints and both again,
/// a non-finite pose, then more distinct poses than the cache holds and
/// the first motion once more.
fn synthetic_poses(robot: &RobotModel, seed: u64) -> Vec<JointConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    let [a, b, c] = [(); 3].map(|_| robot.sample_config(&mut rng));
    let ab = Motion::new(a.clone(), b.clone()).discretize(STEP);
    let bc = Motion::new(b, c.clone()).discretize(STEP);
    let mut zero = c.clone();
    zero.as_mut_slice()[0] = 0.0;
    zero.as_mut_slice()[2] = 0.0;
    let mut neg_zero = zero.clone();
    neg_zero.as_mut_slice()[0] = -0.0;
    neg_zero.as_mut_slice()[2] = -0.0;
    let mut nan = a;
    nan.as_mut_slice()[1] = f32::NAN;
    let mut poses = Vec::new();
    poses.extend(ab.iter().cloned());
    poses.extend(ab.iter().cloned());
    poses.extend(bc);
    poses.extend([zero.clone(), neg_zero.clone(), zero, neg_zero, nan]);
    poses.extend((0..POSE_CACHE_SLOTS + 64).map(|_| robot.sample_config(&mut rng)));
    poses.extend(ab);
    poses
}

/// Asks `checker` every pose in turn, and a fresh checker from `fresh`
/// each pose alone, and requires the same verdict, `CdStats` and
/// process-wide metrics. `checker` may have answered other poses before.
fn assert_as_fresh(
    what: &str,
    checker: &mut SoftwareChecker,
    fresh: impl Fn() -> SoftwareChecker,
    poses: &[JointConfig],
) {
    let mut want_stats = checker.stats();
    for (i, pose) in poses.iter().enumerate() {
        let (got, got_metrics) = metered(|| checker.check_pose(pose));
        let mut reference = fresh();
        let (want, want_metrics) = metered(|| reference.check_pose(pose));
        want_stats.absorb(reference.stats());
        assert_eq!(got, want, "{what}: verdict of pose {i}");
        assert_eq!(
            checker.stats(),
            want_stats,
            "{what}: CdStats after pose {i}"
        );
        assert_eq!(got_metrics, want_metrics, "{what}: metrics of pose {i}");
    }
}

#[test]
fn software_checker_answers_repeats_as_a_fresh_checker() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let clutter = Scene::random(
        SceneConfig {
            octree_depth: 6,
            ..SceneConfig::with_obstacles(24)
        },
        7,
    );
    let paper = benchmark_scenes().swap_remove(1);
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        for (env, scene) in [("paper scene 1", &paper), ("clutter", &clutter)] {
            let tree = scene.octree();
            let fresh = || SoftwareChecker::new(robot.clone(), tree.clone());
            let (mpnet, _) = mpnet_run(&robot, scene, 2);
            let what = format!("{} on {env}", robot.name());
            let mut checker = fresh();
            assert_as_fresh(&format!("{what}, MPNet"), &mut checker, fresh, &mpnet);
            let synthetic = synthetic_poses(&robot, 5);
            assert_as_fresh(
                &format!("{what}, synthetic"),
                &mut checker,
                fresh,
                &synthetic,
            );
        }
    }
}

/// A CDU that runs `CecduSim::check_pose` on every dispatch.
struct Uncached<'a>(&'a CecduSim);

impl CduModel for Uncached<'_> {
    fn query(&mut self, pose: &JointConfig) -> CduResponse {
        let out = self.0.check_pose(pose);
        CduResponse {
            colliding: out.colliding,
            latency: out.cycles,
            ops: out.ops,
        }
    }
}

/// What `run_trace_ledgered` reports for `trace` when every dispatch runs
/// `CecduSim::check_pose`: the trace without its CD batches gives the
/// NN, bus and controller times, each batch runs through SAS on
/// [`Uncached`], and the ledger bills every event in trace order.
fn uncached_replay(
    sys: &MpAccelSystem,
    sim: &CecduSim,
    trace: &PlannerTrace,
) -> (RunReport, EnergyLedger) {
    let config = *sys.config();
    let mut rest = PlannerTrace::new();
    rest.events = trace
        .events
        .iter()
        .filter(|e| !matches!(e, TraceEvent::CdBatch { .. }))
        .cloned()
        .collect();
    let (mut report, _) = sys.run_trace_ledgered(&rest);
    let sas = SasConfig::mcsp(config.accel.cecdus);
    let clock = config.accel.cecdu.iu.clock();
    let mut ledger = EnergyLedger::new();
    for event in &trace.events {
        match event {
            TraceEvent::NnInference { macs } => ledger.bill(
                "nn",
                OpCounter {
                    mlp_macs: *macs,
                    ..OpCounter::default()
                },
            ),
            TraceEvent::BusTransfer { bytes } => ledger.bill(
                "bus",
                OpCounter {
                    dram_bytes: *bytes,
                    ..OpCounter::default()
                },
            ),
            TraceEvent::CdBatch { motions, mode } if !motions.is_empty() => {
                let r = run_sas(motions, *mode, &sas, &mut Uncached(sim));
                report.cd_cycles += r.cycles;
                report.cd_queries += r.queries;
                report.ops += r.ops;
                ledger.bill("cd", r.ops);
                report.cd_ms += clock.cycles_to_ms(r.cycles);
            }
            _ => {}
        }
    }
    report.total_ms = report.nn_ms + report.cd_ms + report.controller_ms + report.bus_ms;
    report.accel_energy_mj = config.accel.area_power().power_w * report.cd_ms;
    report.datapath_energy_uj = mpaccel::sim::energy::dynamic_energy_uj(&report.ops);
    (report, ledger)
}

/// A trace that validates the motions through `a → b → c` twice in
/// separate batches (re-validation after a detour), with more distinct
/// poses than the cache holds in between, and NN and bus events around.
fn revalidation_trace(robot: &RobotModel, seed: u64) -> PlannerTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let [a, b, c] = [(); 3].map(|_| robot.sample_config(&mut rng));
    let path = vec![
        Motion::new(a, b.clone()).descriptor(STEP),
        Motion::new(b, c).descriptor(STEP),
    ];
    let sweep = (0..POSE_CACHE_SLOTS / 8 + 8)
        .map(|_| {
            let from = robot.sample_config(&mut rng);
            let mut to = from.clone();
            to.as_mut_slice()[0] += 9.0 * STEP;
            Motion::new(from, to).descriptor(STEP)
        })
        .collect();
    let mut trace = PlannerTrace::new();
    trace.push(TraceEvent::NnInference { macs: 3_000_000 });
    trace.push(TraceEvent::CdBatch {
        motions: path.clone(),
        mode: FunctionMode::Complete,
    });
    trace.push(TraceEvent::BusTransfer { bytes: 512 });
    trace.push(TraceEvent::CdBatch {
        motions: path.clone(),
        mode: FunctionMode::Feasibility,
    });
    trace.push(TraceEvent::CdBatch {
        motions: sweep,
        mode: FunctionMode::Complete,
    });
    trace.push(TraceEvent::CdBatch {
        motions: path,
        mode: FunctionMode::Complete,
    });
    trace.push(TraceEvent::Controller { instructions: 900 });
    trace
}

#[test]
fn trace_replay_answers_repeats_as_check_pose() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let scenes = benchmark_scenes();
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        for scene in [&scenes[2], &scenes[6]] {
            let config = SystemConfig::paper_default();
            let sys = MpAccelSystem::new(robot.clone(), scene.octree(), config);
            let sim = CecduSim::new(robot.clone(), scene.octree(), config.accel.cecdu);
            let (_, mut traces) = mpnet_run(&robot, scene, 3);
            traces.push(revalidation_trace(&robot, 8));
            for (i, trace) in traces.iter().enumerate() {
                let (got, got_metrics) = metered(|| sys.run_trace_ledgered(trace));
                let (want, want_metrics) = metered(|| uncached_replay(&sys, &sim, trace));
                let what = format!("{} trace {i}", robot.name());
                assert!(got.0.cd_queries > 0, "{what} dispatched nothing");
                assert_eq!(got, want, "{what}: report and ledger");
                assert_eq!(got_metrics, want_metrics, "{what}: metrics");
            }
        }
    }
}
