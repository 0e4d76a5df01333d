//! A pose with a non-finite joint must never look collision-free, and a
//! path too short to have an edge has no infeasible one.
//!
//! NaN or ±inf in any joint turns every downstream link OBB centre into
//! NaN, and a NaN distance fails every `d2 <= r2` sphere comparison, so an
//! unguarded bounding-sphere filter exits "free". Both collision chains —
//! the f32 software oracle and the Q3.12 CECDU model — must instead
//! resolve such a pose conservatively as colliding. Both checkers bill it
//! as one pose query with no work, in their `CdStats` and in the
//! process-wide `mp_collision::metrics`.
//!
//! The process-wide metrics are shared by every test in this binary, so
//! each test holds `METRICS`.

use std::sync::Mutex;

use mpaccel::accel::cecdu::{CecduChecker, CecduSim};
use mpaccel::collision::metrics::ops_total;
use mpaccel::collision::{
    attributed, check_path, CdStats, CollisionChecker, SoftwareChecker, CSPACE_STEP,
};
use mpaccel::geometry::{Aabb, Vec3};
use mpaccel::octree::Octree;
use mpaccel::robot::fk::end_effector;
use mpaccel::robot::{JointConfig, RobotModel};
use mpaccel::sim::{CecduConfig, OpCounter};

static METRICS: Mutex<()> = Mutex::new(());

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

/// Checks the non-finite `pose` on `checker`, requires it to collide,
/// and requires the check to bill one pose query and no work, in the
/// checker's `CdStats` and in the process-wide metrics.
fn collides_billing_one_query(checker: &mut impl CollisionChecker, pose: &JointConfig, what: &str) {
    let before = ops_total();
    let (colliding, work) = attributed(checker, |c| c.check_pose(pose));
    assert!(colliding, "{what}");
    let one_query = CdStats {
        pose_queries: 1,
        ..CdStats::default()
    };
    assert_eq!(work, one_query, "{what}: checker stats");
    let one_check = OpCounter {
        cd_queries: 1,
        ..OpCounter::default()
    };
    assert_eq!(
        ops_total(),
        before + one_check,
        "{what}: process-wide metrics"
    );
}

#[test]
fn non_finite_joints_are_reported_as_colliding() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let (robot, octree, home) = fixture();
    let mut software = SoftwareChecker::new(robot.clone(), octree.clone());
    let mut cecdu = CecduChecker::new(CecduSim::new(robot, octree, CecduConfig::default()));

    assert!(software.check_pose(&home), "home must collide (f32 chain)");
    assert!(cecdu.check_pose(&home), "home must collide (CECDU chain)");

    for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let pose = with_last_joint(&home, value);
        collides_billing_one_query(&mut software, &pose, &format!("software, joint {value}"));
        collides_billing_one_query(&mut cecdu, &pose, &format!("CECDU, joint {value}"));
    }
}

#[test]
fn paths_without_an_edge_have_no_infeasible_edge() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
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
