//! A pose with a non-finite joint must never look collision-free, and a
//! path too short to have an edge has no infeasible one.
//!
//! NaN or ±inf in any joint turns every downstream link OBB centre into
//! NaN, and a NaN distance fails every `d2 <= r2` sphere comparison, so an
//! unguarded bounding-sphere filter exits "free". Both collision chains —
//! the f32 software oracle and the Q3.12 CECDU model, with and without the
//! fault injector — must instead resolve such a pose conservatively as
//! colliding.

use mpaccel::accel::cecdu::{CecduChecker, CecduSim};
use mpaccel::collision::{check_path, CollisionChecker, SoftwareChecker, CSPACE_STEP};
use mpaccel::geometry::{Aabb, Vec3};
use mpaccel::octree::Octree;
use mpaccel::robot::fk::end_effector;
use mpaccel::robot::{JointConfig, RobotModel};
use mpaccel::sim::{CecduConfig, FaultInjector, FaultPlan};

/// Jaco2 with a box around its home-pose end effector: the home pose
/// collides in both chains.
fn fixture() -> (RobotModel, Octree, JointConfig) {
    let robot = RobotModel::jaco2();
    let home = robot.home();
    let obstacle = Aabb::new(end_effector(&robot, &home), Vec3::splat(0.08));
    (robot, Octree::build(&[obstacle], 5), home)
}

/// The home pose with its last joint replaced by `value`.
fn with_last_joint(home: &JointConfig, value: f32) -> JointConfig {
    let mut pose = home.clone();
    let last = pose.dof() - 1;
    pose.as_mut_slice()[last] = value;
    pose
}

#[test]
fn non_finite_joints_are_reported_as_colliding() {
    let (robot, octree, home) = fixture();
    let mut software = SoftwareChecker::new(robot.clone(), octree.clone());
    let sim = CecduSim::new(robot, octree, CecduConfig::default());
    let mut cecdu = CecduChecker::new(sim.clone());
    let mut injector = FaultInjector::new(FaultPlan::none(7));

    assert!(software.check_pose(&home), "home must collide (f32 chain)");
    assert!(cecdu.check_pose(&home), "home must collide (CECDU chain)");

    for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let pose = with_last_joint(&home, value);
        assert!(
            software.check_pose(&pose),
            "software checker, joint {value}"
        );
        assert!(cecdu.check_pose(&pose), "CECDU checker, joint {value}");
        let faulty = sim.check_pose_with_faults(&pose, &mut injector, true);
        assert!(faulty.result.colliding, "faulty CECDU, joint {value}");
        assert_eq!(faulty.faults_injected, 0);
    }
}

#[test]
fn paths_without_an_edge_have_no_infeasible_edge() {
    let (robot, octree, home) = fixture();
    let mut software = SoftwareChecker::new(robot.clone(), octree.clone());
    let mut cecdu = CecduChecker::new(CecduSim::new(robot, octree, CecduConfig::default()));
    // The lone waypoint collides, yet there is no edge to be infeasible.
    for path in [&[][..], std::slice::from_ref(&home)] {
        assert_eq!(check_path(&mut software, path, CSPACE_STEP), None);
        assert_eq!(check_path(&mut cecdu, path, CSPACE_STEP), None);
    }
    assert_eq!(software.stats().pose_queries, 0);
    assert_eq!(cecdu.stats().pose_queries, 0);
}
