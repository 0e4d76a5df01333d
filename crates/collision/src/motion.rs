//! Motion-level collision checking (sequential reference semantics).

use mp_robot::{JointConfig, Motion};

use crate::checker::CollisionChecker;

/// C-space discretization step (radians of the worst joint between
/// consecutive poses) every planner and the plan certifier check edges
/// at. With Baxter-scale motions this yields tens to hundreds of poses
/// per motion, matching the ">1000 poses per motion planning query"
/// workload of §4.
pub const CSPACE_STEP: f32 = 0.04;

/// Result of checking one motion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MotionResult {
    /// Whether any pose along the motion collides.
    pub colliding: bool,
    /// Index of the first colliding pose in sequential order, if any.
    pub first_hit: Option<usize>,
    /// Poses actually checked (sequential evaluation stops at the first
    /// hit — the work-efficiency baseline of §3).
    pub poses_checked: usize,
    /// Total poses the motion discretizes into.
    pub pose_count: usize,
}

/// Sequentially checks the discrete poses of a motion, stopping at the
/// first collision (the serial baseline whose work efficiency parallel
/// schedulers are measured against, §3). Poses are interpolated into one
/// reused buffer, so the walk allocates once per motion.
///
/// # Panics
///
/// Panics if `step` is not positive or the motion's DOF does not match the
/// checker's robot.
pub fn check_motion<C: CollisionChecker + ?Sized>(
    checker: &mut C,
    motion: &Motion,
    step: f32,
) -> MotionResult {
    let n = motion.pose_count(step);
    let mut pose = JointConfig::zeros(motion.from.dof());
    for i in 0..n {
        motion.pose_into(i, n, &mut pose);
        if checker.check_pose(&pose) {
            return MotionResult {
                colliding: true,
                first_hit: Some(i),
                poses_checked: i + 1,
                pose_count: n,
            };
        }
    }
    MotionResult {
        colliding: false,
        first_hit: None,
        poses_checked: n,
        pose_count: n,
    }
}

/// Checks every consecutive segment of a path ("feasibility checking",
/// §2.1/Fig 3). Returns the index of the first infeasible segment, if any.
/// A path of fewer than 2 waypoints has no segment, so it has no
/// infeasible one: `None`, and no pose is checked.
///
/// # Panics
///
/// Panics as [`check_motion`] does on any of the path's segments.
pub fn check_path(
    checker: &mut impl CollisionChecker,
    waypoints: &[JointConfig],
    step: f32,
) -> Option<usize> {
    for (i, w) in waypoints.windows(2).enumerate() {
        let m = Motion::new(w[0].clone(), w[1].clone());
        if check_motion(checker, &m, step).colliding {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{CollisionChecker, SoftwareChecker};
    use mp_geometry::{Aabb, Vec3};
    use mp_octree::Octree;
    use mp_robot::fk::end_effector;
    use mp_robot::RobotModel;

    /// A planar arm sweeping through an obstacle placed on its path.
    fn planar_fixture() -> (SoftwareChecker, Motion) {
        let robot = RobotModel::planar_2dof();
        // At (j0=0.9, j1=0) the end effector sits at 0.8*(cos .9, sin .9).
        let block_at = end_effector(&robot, &JointConfig::new(vec![0.9, 0.0]));
        let env = Octree::build(&[Aabb::new(block_at, Vec3::splat(0.06))], 5);
        let checker = SoftwareChecker::new(robot, env);
        let motion = Motion::new(
            JointConfig::new(vec![0.0, 0.0]),
            JointConfig::new(vec![1.8, 0.0]),
        );
        (checker, motion)
    }

    #[test]
    fn sweep_through_obstacle_detected_with_correct_first_hit() {
        let (mut checker, motion) = planar_fixture();
        let r = check_motion(&mut checker, &motion, 0.05);
        assert!(r.colliding);
        let hit = r.first_hit.unwrap();
        // The obstacle sits at j0 ≈ 0.9 of a 0→1.8 sweep: roughly midway.
        let frac = hit as f32 / (r.pose_count - 1) as f32;
        assert!((0.25..=0.75).contains(&frac), "hit fraction {frac}");
        // Sequential semantics: checked exactly first_hit + 1 poses.
        assert_eq!(r.poses_checked, hit + 1);
        assert_eq!(checker.stats().pose_queries as usize, r.poses_checked);
    }

    #[test]
    fn free_motion_checks_every_pose() {
        let robot = RobotModel::planar_2dof();
        let env = Octree::build(&[], 4);
        let mut checker = SoftwareChecker::new(robot, env);
        let motion = Motion::new(
            JointConfig::new(vec![0.0, 0.0]),
            JointConfig::new(vec![1.0, 1.0]),
        );
        let r = check_motion(&mut checker, &motion, 0.1);
        assert!(!r.colliding);
        assert_eq!(r.first_hit, None);
        assert_eq!(r.poses_checked, r.pose_count);
    }

    #[test]
    fn path_reports_first_bad_segment() {
        let (mut checker, motion) = planar_fixture();
        // Segment 0 is short and free; segment 1 sweeps into the obstacle.
        let path = vec![
            JointConfig::new(vec![0.0, 0.0]),
            JointConfig::new(vec![0.2, 0.0]),
            motion.to.clone(),
        ];
        assert_eq!(check_path(&mut checker, &path, 0.05), Some(1));
        // A path avoiding the obstacle (swing the elbow) is feasible.
        let detour = vec![
            JointConfig::new(vec![0.0, 0.0]),
            JointConfig::new(vec![0.0, -2.2]),
        ];
        assert_eq!(check_path(&mut checker, &detour, 0.05), None);
    }

    /// The explicit reference: every pose of `motion.discretize(step)`,
    /// checked in order until the first hit.
    fn reference_check_motion(
        checker: &mut SoftwareChecker,
        motion: &Motion,
        step: f32,
    ) -> MotionResult {
        let poses = motion.discretize(step);
        let n = poses.len();
        let first_hit = poses.iter().position(|p| checker.check_pose(p));
        MotionResult {
            colliding: first_hit.is_some(),
            first_hit,
            poses_checked: first_hit.map_or(n, |i| i + 1),
            pose_count: n,
        }
    }

    #[test]
    fn check_motion_matches_pose_by_pose_reference() {
        // Colliding sweep: identical MotionResult AND identical counters.
        let (mut got_chk, motion) = planar_fixture();
        let (mut want_chk, _) = planar_fixture();
        let got = check_motion(&mut got_chk, &motion, 0.05);
        let want = reference_check_motion(&mut want_chk, &motion, 0.05);
        assert!(want.colliding);
        assert_eq!(got, want);
        assert_eq!(got_chk.stats(), want_chk.stats());

        // Free motion of more than 8 poses.
        let robot = RobotModel::planar_2dof();
        let env = Octree::build(&[], 4);
        let mut got_chk = SoftwareChecker::new(robot.clone(), env.clone());
        let mut want_chk = SoftwareChecker::new(robot, env);
        let m = Motion::new(
            JointConfig::new(vec![0.0, 0.0]),
            JointConfig::new(vec![1.3, -0.7]),
        );
        let got = check_motion(&mut got_chk, &m, 0.04);
        let want = reference_check_motion(&mut want_chk, &m, 0.04);
        assert!(!want.colliding && want.pose_count > 8);
        assert_eq!(got, want);
        assert_eq!(got_chk.stats(), want_chk.stats());
    }
}
