//! Both checkers walk each link attached to frame 0, the immobile base,
//! once per environment and replay that walk on every pose query. These
//! tests pin that the replay is exact: for every pose, the cached paths
//! give the verdict and the work counters of a reference that walks every
//! link.
//!
//! - The f32 `SoftwareChecker` against `Octree::collides_with_stats` with
//!   `cascaded_obb_aabb` per link: verdict and full `CdStats`.
//! - The Q3.12 `CecduSim` against `run_oocd` per link with the same wave
//!   timing: the whole `CecduResult` (verdict, cycles, links, ops).
//!
//! Both robots run on paper scenes, on a 24-obstacle depth-6 clutter scene
//! (the `plan_clutter` workload's shape) and on a scene whose obstacle
//! swallows the base, so link 0 collides and every pose must exit early as
//! colliding. A checker moved to another environment or cascade, and a
//! clone taken before first use, must equal a fresh checker.

use mpaccel::accel::cecdu::{OBB_GEN_FIRST_READY, OBB_GEN_INTERVAL, OBB_GEN_MULTS};
use mpaccel::accel::sas::FunctionMode;
use mpaccel::accel::{
    run_oocd, CecduResult, CecduSim, MpAccelSystem, OocdConfig, PlannerTrace, SystemConfig,
    TraceEvent,
};
use mpaccel::collision::{attributed, CdStats, CollisionChecker, SoftwareChecker};
use mpaccel::geometry::cascade::{cascaded_obb_aabb, CascadeConfig};
use mpaccel::geometry::{Aabb, Vec3};
use mpaccel::octree::{benchmark_scenes, Octree, Scene, SceneConfig};
use mpaccel::robot::fk::link_obbs;
use mpaccel::robot::{JointConfig, Motion, RobotModel, TrigMode};
use mpaccel::sim::{CecduConfig, IuKind, OpCounter};
use rand::rngs::StdRng;
use rand::SeedableRng;

const POSES: usize = 30;

fn robots() -> [RobotModel; 2] {
    [RobotModel::jaco2(), RobotModel::baxter()]
}

/// An environment whose one obstacle swallows both robots' base links.
fn base_swallowed() -> Octree {
    Octree::build(&[Aabb::new(Vec3::new(0.0, 0.0, 0.1), Vec3::splat(0.2))], 4)
}

/// Named environments: three paper scenes, one clutter scene and the
/// base-swallowing one.
fn environments() -> Vec<(String, Octree)> {
    let mut envs: Vec<(String, Octree)> = benchmark_scenes()
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, s)| (format!("paper scene {i}"), s.octree()))
        .collect();
    let clutter = SceneConfig {
        octree_depth: 6,
        ..SceneConfig::with_obstacles(24)
    };
    envs.push(("clutter".into(), Scene::random(clutter, 7).octree()));
    envs.push(("base swallowed".into(), base_swallowed()));
    envs
}

/// The home pose and random poses within the joint limits.
fn poses(robot: &RobotModel, seed: u64) -> Vec<JointConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    std::iter::once(robot.home())
        .chain((0..POSES).map(|_| robot.sample_config(&mut rng)))
        .collect()
}

/// One pose query on the software checker, walking every link.
fn software_reference(
    robot: &RobotModel,
    tree: &Octree,
    trig: TrigMode,
    cascade: &CascadeConfig,
    pose: &JointConfig,
) -> (bool, CdStats) {
    let mut stats = CdStats {
        pose_queries: 1,
        ..CdStats::default()
    };
    for obb in link_obbs(robot, pose, trig) {
        stats.link_tests += 1;
        let mut mults = 0u64;
        let (hit, t) = tree.collides_with_stats(&mut |aabb| {
            let out = cascaded_obb_aabb(&obb, aabb, cascade);
            mults += u64::from(out.mults);
            out.colliding
        });
        stats.box_tests += u64::from(t.tests_performed);
        stats.nodes_visited += u64::from(t.nodes_visited);
        stats.mults += mults;
        if hit {
            return (true, stats);
        }
    }
    (false, stats)
}

/// One pose query on the CECDU, walking every link's OOCD in synchronous
/// waves of `config.oocds`.
fn cecdu_reference(
    robot: &RobotModel,
    tree: &Octree,
    config: CecduConfig,
    cascade: CascadeConfig,
    pose: &JointConfig,
) -> CecduResult {
    let oocd = OocdConfig {
        iu: config.iu,
        cascade,
    };
    let n = config.oocds.max(1);
    let mut out = CecduResult::default();
    let mut t = 0u64;
    for (w, wave) in link_obbs(robot, pose, TrigMode::Hardware)
        .chunks(n)
        .enumerate()
    {
        let last = (w * n + wave.len() - 1) as u64;
        let start = t.max(OBB_GEN_FIRST_READY + OBB_GEN_INTERVAL * last);
        let mut dur = 0;
        for obb in wave {
            let r = run_oocd(tree, &obb.quantize(), &oocd);
            dur = dur.max(r.cycles);
            out.ops += r.ops;
            out.ops += OpCounter {
                mults: OBB_GEN_MULTS,
                big_sram_reads: 1,
                ..OpCounter::default()
            };
            out.links_checked += 1;
            out.colliding |= r.colliding;
        }
        t = start + dur;
        if out.colliding {
            break;
        }
    }
    out.ops.cd_queries += 1;
    out.cycles = t + 1;
    out
}

/// Runs `poses` on `checker` and on a fresh checker, pose by pose.
fn assert_same_as_fresh(
    what: &str,
    checker: &mut SoftwareChecker,
    fresh: &mut SoftwareChecker,
    poses: &[JointConfig],
) {
    for (i, pose) in poses.iter().enumerate() {
        let got = attributed(checker, |c| c.check_pose(pose));
        let want = attributed(fresh, |c| c.check_pose(pose));
        assert_eq!(got, want, "{what}: pose {i}");
    }
}

fn assert_sim_same_as_fresh(what: &str, sim: &CecduSim, fresh: &CecduSim, poses: &[JointConfig]) {
    for (i, pose) in poses.iter().enumerate() {
        assert_eq!(
            sim.check_pose(pose),
            fresh.check_pose(pose),
            "{what}: pose {i}"
        );
    }
}

#[test]
fn software_checker_replays_the_base_link_exactly() {
    let cascade = CascadeConfig::proposed();
    for robot in robots() {
        let poses = poses(&robot, 11);
        for (env, tree) in environments() {
            for trig in [TrigMode::Exact, TrigMode::Hardware] {
                let mut checker = SoftwareChecker::new(robot.clone(), tree.clone());
                if trig == TrigMode::Hardware {
                    checker = checker.with_hardware_trig();
                }
                let mut total = CdStats::default();
                for (i, pose) in poses.iter().enumerate() {
                    let got = attributed(&mut checker, |c| c.check_pose(pose));
                    let want = software_reference(&robot, &tree, trig, &cascade, pose);
                    assert_eq!(got, want, "{} on {env}, {trig:?}: pose {i}", robot.name());
                    total.absorb(got.1);
                }
                assert_eq!(checker.stats(), total);
                if env == "base swallowed" {
                    // Link 0 collides, so every pose stops after it.
                    assert_eq!(total.link_tests, total.pose_queries);
                    assert!(
                        poses.iter().all(|p| checker.check_pose(p)),
                        "{} on {env}: a pose came out free",
                        robot.name()
                    );
                }
            }
        }
    }
}

#[test]
fn cecdu_replays_the_base_link_exactly() {
    let cascade = CascadeConfig::proposed();
    for robot in robots() {
        let poses = poses(&robot, 12);
        for (env, tree) in environments() {
            for iu in [IuKind::MultiCycle, IuKind::Pipelined] {
                for oocds in [1, 4] {
                    let config = CecduConfig::new(oocds, iu);
                    let sim = CecduSim::new(robot.clone(), tree.clone(), config);
                    for (i, pose) in poses.iter().enumerate() {
                        let got = sim.check_pose(pose);
                        let want = cecdu_reference(&robot, &tree, config, cascade, pose);
                        assert_eq!(
                            got,
                            want,
                            "{} on {env}, {oocds} x {iu:?}: pose {i}",
                            robot.name()
                        );
                        if env == "base swallowed" {
                            // Link 0 collides, so the first wave is the last.
                            assert!(got.colliding);
                            assert_eq!(got.links_checked, oocds.min(robot.link_count()));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn moved_and_cloned_checkers_equal_fresh_ones() {
    let robot = RobotModel::jaco2();
    let paper = benchmark_scenes()[0].octree();
    let swallowed = base_swallowed();
    let poses = poses(&robot, 13);
    let no_filters = CascadeConfig::without_filters();
    let used = |tree: &Octree| {
        let mut c = SoftwareChecker::new(robot.clone(), tree.clone());
        for p in &poses[..3] {
            c.check_pose(p);
        }
        c
    };

    // `set_octree` after the base link was walked, in both directions.
    for (from, to) in [(&paper, &swallowed), (&swallowed, &paper)] {
        let mut moved = used(from);
        moved.set_octree(to.clone());
        let mut fresh = SoftwareChecker::new(robot.clone(), to.clone());
        assert_same_as_fresh("set_octree", &mut moved, &mut fresh, &poses);
    }
    // `with_cascade` and `with_hardware_trig` after use.
    let mut moved = used(&paper).with_cascade(no_filters);
    let mut fresh = SoftwareChecker::new(robot.clone(), paper.clone()).with_cascade(no_filters);
    assert_same_as_fresh("with_cascade", &mut moved, &mut fresh, &poses);
    let mut moved = used(&paper).with_hardware_trig();
    let mut fresh = SoftwareChecker::new(robot.clone(), paper.clone()).with_hardware_trig();
    assert_same_as_fresh("with_hardware_trig", &mut moved, &mut fresh, &poses);
    // A clone taken before first use, queried after the original.
    let mut original = SoftwareChecker::new(robot.clone(), swallowed.clone());
    let mut clone = original.clone();
    let mut fresh = SoftwareChecker::new(robot.clone(), swallowed.clone());
    assert_same_as_fresh("original", &mut original, &mut fresh, &poses);
    let mut fresh = SoftwareChecker::new(robot.clone(), swallowed.clone());
    assert_same_as_fresh("clone", &mut clone, &mut fresh, &poses);

    // The same for the CECDU.
    let config = CecduConfig::new(4, IuKind::MultiCycle);
    for (from, to) in [(&paper, &swallowed), (&swallowed, &paper)] {
        let mut moved = CecduSim::new(robot.clone(), from.clone(), config);
        let before = moved.clone();
        moved.set_octree(to.clone());
        let fresh = CecduSim::new(robot.clone(), to.clone(), config);
        assert_sim_same_as_fresh("CECDU set_octree", &moved, &fresh, &poses);
        let fresh = CecduSim::new(robot.clone(), from.clone(), config);
        assert_sim_same_as_fresh("CECDU clone", &before, &fresh, &poses);
    }
    let moved = CecduSim::new(robot.clone(), paper.clone(), config).with_cascade(no_filters);
    for pose in &poses {
        let want = cecdu_reference(&robot, &paper, config, no_filters, pose);
        assert_eq!(moved.check_pose(pose), want, "CECDU with_cascade");
    }

    // A system moved by `set_octree` replays traces like a fresh one.
    let mut trace = PlannerTrace::new();
    trace.push(TraceEvent::CdBatch {
        motions: poses
            .windows(2)
            .map(|w| Motion::new(w[0].clone(), w[1].clone()).descriptor(0.05))
            .collect(),
        mode: FunctionMode::Complete,
    });
    let system = SystemConfig::paper_default();
    let mut moved = MpAccelSystem::new(robot.clone(), paper.clone(), system);
    moved.run_trace(&trace);
    moved.set_octree(swallowed.clone());
    let fresh = MpAccelSystem::new(robot.clone(), swallowed, system);
    assert_eq!(
        moved.run_trace_ledgered(&trace),
        fresh.run_trace_ledgered(&trace)
    );
}
