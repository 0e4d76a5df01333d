//! Cross-crate validation: the cycle-level hardware models must agree with
//! the software oracle functionally, and their relative timings must obey
//! the paper's ordering claims.

use mpaccel::accel::cecdu::{CecduChecker, CecduSim};
use mpaccel::accel::fault::{FaultTolerantCduArray, RecoveryMode};
use mpaccel::accel::oocd::{reference_outcome, run_oocd, OocdConfig};
use mpaccel::accel::sas::{run_sas, CecduCdu, FunctionMode, IdealCdu, SasConfig};
use mpaccel::collision::{CollisionChecker, SoftwareChecker};
use mpaccel::geometry::cascade::CascadeConfig;
use mpaccel::octree::{benchmark_scenes, Scene, SceneConfig};
use mpaccel::robot::{Motion, RobotModel};
use mpaccel::sim::fault::FaultKind;
use mpaccel::sim::{CecduConfig, FaultInjector, FaultPlan, IuKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn cecdu_functionally_matches_software_oracle() {
    let robot = RobotModel::baxter();
    let mut rng = StdRng::seed_from_u64(100);
    let mut total = 0u32;
    let mut disagreements = 0u32;
    for seed in 0..3 {
        let scene = Scene::random(SceneConfig::paper(), seed);
        let hw = CecduSim::new(robot.clone(), scene.octree(), CecduConfig::default());
        let mut sw = SoftwareChecker::new(robot.clone(), scene.octree());
        for _ in 0..120 {
            let pose = robot.sample_config(&mut rng);
            total += 1;
            if hw.check_pose(&pose).colliding != sw.check_pose(&pose) {
                disagreements += 1;
            }
        }
    }
    // Quantized geometry + approximate trig may flip only razor-edge poses.
    assert!(
        disagreements * 33 <= total,
        "{disagreements}/{total} hardware-vs-oracle disagreements"
    );
}

#[test]
fn oocd_simulation_matches_functional_traversal_everywhere() {
    let mut rng = StdRng::seed_from_u64(8);
    for seed in 0..4 {
        let tree = Scene::random(SceneConfig::paper(), seed).octree();
        for _ in 0..100 {
            let obb = mpaccel::baselines::workload::random_link_obb(&mut rng).quantize();
            for iu in [IuKind::MultiCycle, IuKind::Pipelined] {
                let cfg = OocdConfig::new(iu);
                let sim = run_oocd(&tree, &obb, &cfg);
                assert_eq!(
                    sim.colliding,
                    reference_outcome(&tree, &obb, &cfg.cascade),
                    "scene {seed}, iu {iu:?}"
                );
            }
        }
    }
}

#[test]
fn sas_with_hardware_cdus_matches_ideal_verdicts() {
    let robot = RobotModel::jaco2();
    let scene = Scene::random(SceneConfig::paper(), 1);
    let mut rng = StdRng::seed_from_u64(55);
    let motions: Vec<_> = (0..6)
        .map(|_| {
            Motion::new(robot.sample_config(&mut rng), robot.sample_config(&mut rng))
                .descriptor(0.05)
        })
        .collect();
    let cfg = SasConfig::mcsp(8);
    // Hardware CDUs.
    let sim = CecduSim::new(robot.clone(), scene.octree(), CecduConfig::default());
    let mut hw_cdu = CecduCdu::new(&sim);
    let hw = run_sas(&motions, FunctionMode::Complete, &cfg, &mut hw_cdu);
    // Hardware checker behind the *ideal* CDU (same functional outcomes,
    // unit latency): verdicts must match exactly.
    let mut ideal_cdu = IdealCdu::new(CecduChecker::new(sim));
    let ideal = run_sas(&motions, FunctionMode::Complete, &cfg, &mut ideal_cdu);
    assert_eq!(hw.motion_results, ideal.motion_results);
    assert!(hw.cycles > ideal.cycles, "hardware latency must show up");
}

#[test]
fn ablation_orderings_hold_on_hardware() {
    // §7.2.1/§7.2.2 orderings at the robot-pose level: the proposed
    // cascade beats the no-filter variant on multiplications.
    let robot = RobotModel::jaco2();
    let scene = Scene::random(SceneConfig::paper(), 3);
    let mut rng = StdRng::seed_from_u64(21);
    let proposed = CecduSim::new(robot.clone(), scene.octree(), CecduConfig::default());
    let no_filters = CecduSim::new(robot.clone(), scene.octree(), CecduConfig::default())
        .with_cascade(CascadeConfig::without_filters());
    let mut mults_proposed = 0u64;
    let mut mults_nofilter = 0u64;
    for _ in 0..150 {
        let pose = robot.sample_config(&mut rng);
        let a = proposed.check_pose(&pose);
        let b = no_filters.check_pose(&pose);
        assert_eq!(a.colliding, b.colliding, "filters must not change answers");
        mults_proposed += a.ops.mults;
        mults_nofilter += b.ops.mults;
    }
    assert!(
        (mults_proposed as f64) < 0.8 * mults_nofilter as f64,
        "filters should save >20% multiplications: {mults_proposed} vs {mults_nofilter}"
    );
}

#[test]
fn pruned_octrees_trade_precision_for_speed_conservatively() {
    // The §8 RoboRun-style knob: pruning the environment octree must never
    // introduce false negatives on the hardware path, and should reduce
    // traversal work.
    let robot = RobotModel::jaco2();
    let scene = Scene::random(SceneConfig::paper(), 4);
    let full_tree = scene.octree();
    let pruned_tree = full_tree.pruned(2);
    let full = CecduSim::new(robot.clone(), full_tree, CecduConfig::default());
    let pruned = CecduSim::new(robot.clone(), pruned_tree, CecduConfig::default());
    let mut rng = StdRng::seed_from_u64(66);
    let mut full_cycles = 0u64;
    let mut pruned_cycles = 0u64;
    for _ in 0..150 {
        let pose = robot.sample_config(&mut rng);
        let a = full.check_pose(&pose);
        let b = pruned.check_pose(&pose);
        // Conservative: anything colliding at full precision stays
        // colliding at reduced precision.
        if a.colliding {
            assert!(b.colliding, "pruning lost a collision");
        }
        full_cycles += a.cycles;
        pruned_cycles += b.cycles;
    }
    assert!(
        pruned_cycles < full_cycles,
        "pruned {pruned_cycles} should beat full {full_cycles}"
    );
}

#[test]
fn checker_adapter_is_a_drop_in_for_planners() {
    // The CECDU checker can drive the RRT planner directly.
    use mpaccel::planner::rrt::{rrt_connect, RrtConfig};
    let robot = RobotModel::jaco2();
    let scene = Scene::random(SceneConfig::paper(), 0);
    let sim = CecduSim::new(robot.clone(), scene.octree(), CecduConfig::default());
    let mut checker = CecduChecker::new(sim);
    let queries = mpaccel::planner::queries::generate_queries(&robot, &scene, 1, 31)
        .expect("query generation");
    let out = rrt_connect(
        &mut checker,
        &queries[0].start,
        &queries[0].goal,
        &RrtConfig::default(),
        3,
    );
    // Whether or not it solves, the hardware checker must have done work
    // and counted cycles.
    assert!(checker.busy_cycles() > 0);
    assert!(checker.stats().pose_queries > 0);
    let _ = out;
}

#[test]
fn fault_layer_is_transparent_when_idle_and_safe_under_upsets() {
    let robot = RobotModel::jaco2();
    let scenes = benchmark_scenes();
    for (si, scene) in [(0u64, &scenes[0]), (1, &scenes[5])] {
        let mut rng = StdRng::seed_from_u64(70 + si);
        let poses: Vec<_> = (0..40).map(|_| robot.sample_config(&mut rng)).collect();
        let motions: Vec<_> = (0..6)
            .map(|_| {
                Motion::new(robot.sample_config(&mut rng), robot.sample_config(&mut rng))
                    .descriptor(0.1)
            })
            .collect();
        for iu in [IuKind::MultiCycle, IuKind::Pipelined] {
            for oocds in [1, 4] {
                let sim = CecduSim::new(robot.clone(), scene.octree(), CecduConfig::new(oocds, iu));
                let at = format!("scene {si}, {iu:?}, {oocds} OOCD(s)");

                // An injector that never fires leaves the one wave loop
                // and OOCD walk exactly as the clean query runs them.
                for detection in [false, true] {
                    let mut inj = FaultInjector::new(FaultPlan::none(si));
                    for pose in &poses {
                        let clean = sim.check_pose(pose);
                        let f = sim.check_pose_with_faults(pose, &mut inj, detection);
                        assert_eq!(f.result, clean, "{at}");
                        assert!(!f.detected, "{at}");
                        assert_eq!(f.faults_injected, 0, "{at}");
                    }
                }

                let campaign = |mode| {
                    let plan = FaultPlan::uniform(2e-2, 0xF00D ^ si);
                    let mut array = FaultTolerantCduArray::new(sim.clone(), 4, plan, mode);
                    let r = run_sas(
                        &motions,
                        FunctionMode::Complete,
                        &SasConfig::mcsp(8),
                        &mut array,
                    );
                    assert!(r.motion_results.iter().all(Option::is_some), "{at}");
                    *array.counters()
                };
                // With detection on, no upset yields a wrong free verdict
                // or escapes unclassified.
                for mode in [RecoveryMode::DetectRetry, RecoveryMode::DetectRetryVoter] {
                    let c = campaign(mode);
                    assert!(c.injected_total() > 0, "{at}, {mode:?}");
                    assert_eq!(c.false_negatives, 0, "{at}, {mode:?}");
                    assert_eq!(c.escaped, 0, "{at}, {mode:?}");
                }
                // Without detection, corrupted node words are decoded and
                // walked: the on-the-fly branch of the walk ran.
                let c = campaign(RecoveryMode::None);
                assert!(c.injected(FaultKind::SramBitFlip) > 0, "{at}");
            }
        }
    }
}
