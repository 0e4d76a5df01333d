//! The per-pose hot paths are traced in the one and only build.
//!
//! With a telemetry stream installed, `SoftwareChecker::check_pose` must
//! record one `collision/cd_query` span whose end arguments are the
//! verdict and the box tests its walk added to `CdStats`, and
//! `CecduSim::check_pose` one `core/cecdu_pose` span whose `links`
//! argument is the links it sent to the OOCDs. Recording must not change
//! a verdict or a counter. A motion endpoint replayed from its recorded
//! work is not walked, so it records no `cd_query` span, while every
//! pose the motion walks records exactly one.

use mpaccel::accel::cecdu::{CecduResult, CecduSim};
use mpaccel::collision::{
    attributed, check_motion, check_motion_replaying, CdStats, CollisionChecker, EndpointWork,
    SoftwareChecker, CSPACE_STEP,
};
use mpaccel::geometry::{Aabb, Vec3};
use mpaccel::octree::Octree;
use mpaccel::robot::fk::end_effector;
use mpaccel::robot::{JointConfig, Motion, RobotModel};
use mpaccel::sim::CecduConfig;
use mpaccel::telemetry::{ArgValue, Event, EventKind, Lane, TelemetrySession};

/// Jaco2 with a box around its home-pose end effector, and poses from
/// the colliding home pose out to ones that swing the arm clear of it.
fn fixture() -> (RobotModel, Octree, Vec<JointConfig>) {
    let robot = RobotModel::jaco2();
    let home = robot.home();
    let obstacle = Aabb::new(end_effector(&robot, &home), Vec3::splat(0.08));
    let poses = (0..6)
        .map(|i| {
            let mut pose = home.clone();
            pose.as_mut_slice()[0] += 0.5 * i as f32;
            pose.as_mut_slice()[1] -= 0.2 * i as f32;
            robot.clamp_config(&pose)
        })
        .collect();
    (robot, Octree::build(&[obstacle], 5), poses)
}

/// The `u64` argument `name` of an event.
fn arg(event: &Event, name: &str) -> u64 {
    match event.args.iter().flatten().find(|(n, _)| *n == name) {
        Some((_, ArgValue::U64(v))) => *v,
        other => panic!("event {} has no u64 arg `{name}`: {other:?}", event.name),
    }
}

/// The end events of the `cat/name` spans recorded on the main lane,
/// after checking each span is balanced by one begin.
fn span_ends(events: &[Event], cat: &str, name: &str) -> Vec<Event> {
    let on_span = |e: &&Event| e.lane == Lane::MAIN && e.cat == cat && e.name == name;
    let begins = events
        .iter()
        .filter(on_span)
        .filter(|e| e.kind == EventKind::Begin)
        .count();
    let ends: Vec<Event> = events
        .iter()
        .filter(on_span)
        .filter(|e| e.kind == EventKind::End)
        .copied()
        .collect();
    assert_eq!(begins, ends.len(), "unbalanced {cat}/{name} spans");
    ends
}

/// Runs `check_pose` over every pose, returning each verdict with the
/// `CdStats` delta it added.
fn software_checks(
    robot: &RobotModel,
    tree: &Octree,
    poses: &[JointConfig],
) -> Vec<(bool, CdStats)> {
    let mut checker = SoftwareChecker::new(robot.clone(), tree.clone());
    poses
        .iter()
        .map(|pose| {
            let before = checker.stats();
            let colliding = checker.check_pose(pose);
            (colliding, checker.stats().delta_since(&before))
        })
        .collect()
}

#[test]
fn software_checker_records_one_cd_query_span_per_pose() {
    let (robot, tree, poses) = fixture();
    let untraced = software_checks(&robot, &tree, &poses);
    assert!(untraced.iter().any(|(c, _)| *c) && untraced.iter().any(|(c, _)| !*c));

    let session = TelemetrySession::new();
    let traced = {
        let _stream = session.install("hot", 0);
        software_checks(&robot, &tree, &poses)
    };
    assert_eq!(traced, untraced, "tracing changed a verdict or a counter");

    let streams = session.streams();
    let ends = span_ends(&streams[0].events, "collision", "cd_query");
    assert_eq!(ends.len(), poses.len(), "one cd_query span per pose");
    for (end, (colliding, delta)) in ends.iter().zip(&traced) {
        assert_eq!(arg(end, "colliding"), u64::from(*colliding));
        assert_eq!(arg(end, "box_tests"), delta.box_tests);
    }
}

#[test]
fn cecdu_records_one_cecdu_pose_span_per_pose() {
    let (robot, tree, poses) = fixture();
    let sim = CecduSim::new(robot, tree, CecduConfig::default());
    let untraced: Vec<CecduResult> = poses.iter().map(|p| sim.check_pose(p)).collect();
    assert!(untraced.iter().any(|r| r.colliding) && untraced.iter().any(|r| !r.colliding));

    let session = TelemetrySession::new();
    let traced: Vec<CecduResult> = {
        let _stream = session.install("hot", 0);
        poses.iter().map(|p| sim.check_pose(p)).collect()
    };
    assert_eq!(traced, untraced, "tracing changed a CECDU result");

    let streams = session.streams();
    let ends = span_ends(&streams[0].events, "core", "cecdu_pose");
    assert_eq!(ends.len(), poses.len(), "one cecdu_pose span per pose");
    for (end, r) in ends.iter().zip(&traced) {
        assert_eq!(arg(end, "links"), r.links_checked as u64);
        assert_eq!(arg(end, "colliding"), u64::from(r.colliding));
    }
}

#[test]
fn a_replayed_endpoint_records_no_cd_query_span() {
    let (robot, tree, poses) = fixture();
    let free: Vec<&JointConfig> = software_checks(&robot, &tree, &poses)
        .iter()
        .zip(&poses)
        .filter(|((colliding, _), _)| !colliding)
        .map(|(_, pose)| pose)
        .collect();
    let motion = Motion::new(free[0].clone(), free[1].clone());
    let discrete = motion.discretize(CSPACE_STEP);
    let interior = software_checks(&robot, &tree, &discrete[1..discrete.len() - 1]);
    assert!(
        !interior.is_empty(),
        "the fixture's motion has no pose between"
    );

    // Both endpoints are known free, so only the poses between are walked.
    let mut checker = SoftwareChecker::new(robot.clone(), tree.clone());
    let mut work_of = |pose: &JointConfig| attributed(&mut checker, |c| c.check_pose(pose)).1;
    let known = EndpointWork {
        from: Some(work_of(&motion.from)),
        to: Some(work_of(&motion.to)),
    };
    let before = checker.stats();
    let session = TelemetrySession::new();
    let result = {
        let _stream = session.install("hot", 0);
        check_motion_replaying(&mut checker, &motion, CSPACE_STEP, known).0
    };
    assert!(!result.colliding, "the fixture's motion must be free");
    let mut walked = SoftwareChecker::new(robot, tree);
    assert_eq!(check_motion(&mut walked, &motion, CSPACE_STEP), result);
    assert_eq!(
        checker.stats().delta_since(&before),
        walked.stats(),
        "a replayed endpoint changed a counter"
    );

    let streams = session.streams();
    let ends = span_ends(&streams[0].events, "collision", "cd_query");
    assert_eq!(
        ends.len(),
        interior.len(),
        "one cd_query span per walked pose"
    );
    for (end, (colliding, delta)) in ends.iter().zip(&interior) {
        assert_eq!(arg(end, "colliding"), u64::from(*colliding));
        assert_eq!(arg(end, "box_tests"), delta.box_tests);
    }
}
