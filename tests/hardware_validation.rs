//! Cross-crate validation: the cycle-level hardware models must agree with
//! the software oracle functionally, and their relative timings must obey
//! the paper's ordering claims.

use mpaccel::accel::cecdu::{CecduChecker, CecduSim, OBB_GEN_MULTS};
use mpaccel::accel::oocd::{reference_outcome, run_oocd};
use mpaccel::accel::sas::{run_sas, CecduCdu, FunctionMode, IdealCdu, SasConfig};
use mpaccel::collision::{CollisionChecker, SoftwareChecker};
use mpaccel::geometry::cascade::{cascaded_obb_aabb, CascadeConfig};
use mpaccel::geometry::FxObb;
use mpaccel::octree::{Octree, Scene, SceneConfig};
use mpaccel::robot::fk::link_obbs;
use mpaccel::robot::{Motion, RobotModel, TrigMode};
use mpaccel::sim::{CecduConfig, IuKind};
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
                let sim = run_oocd(&tree, &obb, iu);
                assert_eq!(
                    sim.colliding,
                    reference_outcome(&tree, &obb),
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

/// The OOCD's walk of `tree` for one link OBB — its Q3.12 octree boxes,
/// in its order, with its early exit — with the scalar cascade under
/// `cascade`. Returns the verdict and the multiplications spent.
fn oocd_walk(tree: &Octree, obb: &FxObb, cascade: &CascadeConfig) -> (bool, u64) {
    let flat = tree.flat();
    let boxes = flat.aabbs_oocd();
    let mut mults = 0u64;
    let mut stack = vec![0u32];
    while let Some(addr) = stack.pop() {
        for e in flat.entries(addr) {
            let out = cascaded_obb_aabb(obb, &boxes.get(e), cascade);
            mults += u64::from(out.mults);
            if out.colliding {
                if flat.is_full(e) {
                    return (true, mults);
                }
                stack.push(flat.child(e));
            }
        }
    }
    (false, mults)
}

#[test]
fn ablation_orderings_hold_on_hardware() {
    // §7.2.1/§7.2.2 orderings at the robot-pose level: the proposed
    // cascade the CECDU runs beats the no-filter variant on
    // multiplications. The no-filter side runs the scalar cascade over
    // the same Q3.12 link OBBs and octree boxes, on the links the CECDU
    // checked, and bills the same OBB generation.
    let robot = RobotModel::jaco2();
    let scene = Scene::random(SceneConfig::paper(), 3);
    let tree = scene.octree();
    let mut rng = StdRng::seed_from_u64(21);
    let proposed = CecduSim::new(robot.clone(), tree.clone(), CecduConfig::default());
    let mut mults_proposed = 0u64;
    let mut mults_nofilter = 0u64;
    for _ in 0..150 {
        let pose = robot.sample_config(&mut rng);
        let a = proposed.check_pose(&pose);
        let (mut colliding, mut walked) = (false, 0u64);
        for obb in &link_obbs(&robot, &pose, TrigMode::Hardware)[..a.links_checked] {
            let obb = obb.quantize();
            let (hit, mults) = oocd_walk(&tree, &obb, &CascadeConfig::proposed());
            let (hit_nf, mults_nf) = oocd_walk(&tree, &obb, &CascadeConfig::without_filters());
            assert_eq!(hit, hit_nf, "filters must not change answers");
            colliding |= hit;
            walked += mults + OBB_GEN_MULTS;
            mults_nofilter += mults_nf + OBB_GEN_MULTS;
        }
        // The walk above is the CECDU's, multiplication for multiplication.
        assert_eq!((colliding, walked), (a.colliding, a.ops.mults));
        mults_proposed += a.ops.mults;
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
    // Whether or not it solves, the hardware checker must have done work.
    assert!(checker.stats().pose_queries > 0);
    assert!(checker.stats().link_tests > 0);
    let _ = out;
}
