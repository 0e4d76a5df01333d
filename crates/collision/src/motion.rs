//! Motion-level collision checking (sequential reference semantics).

use mp_robot::{JointConfig, Motion};

use crate::checker::{attributed, CdStats, CollisionChecker};

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

/// The recorded work of a motion's endpoints: `from` for pose 0
/// (`motion.from`), `to` for the last pose (`motion.to`), `None` for an
/// endpoint with no record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EndpointWork {
    /// Work of `motion.from`.
    pub from: Option<CdStats>,
    /// Work of `motion.to`.
    pub to: Option<CdStats>,
}

/// Sequentially checks the discrete poses of a motion, stopping at the
/// first collision (the serial baseline whose work efficiency parallel
/// schedulers are measured against, §3). Poses are interpolated into one
/// reused buffer, so the walk allocates once per motion.
///
/// This is [`check_motion_replaying`] with no endpoint known.
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
    check_motion_replaying(checker, motion, step, EndpointWork::default()).0
}

/// [`check_motion`] for a caller that already proved an endpoint free.
///
/// `known` holds the [`attributed`] work of each endpoint the caller
/// checked on this checker and found free. Such an endpoint is billed
/// through [`CollisionChecker::replay`] at its place in the sequence
/// instead of being walked, so the result and the counters are
/// [`check_motion`]'s. It is walked after all when the checker declines
/// the replay, and pose 0 is walked whenever its bits differ from
/// `motion.from`: it is `from + (to - from) * 0.0`, which turns a `-0.0`
/// joint into `+0.0` and is NaN when `to` is not finite. The last pose
/// is `motion.to` exactly.
///
/// Returns the result and the work of each endpoint pose it walked
/// (`from` only when pose 0 is `motion.from` bit for bit), which a caller
/// can pass as `known` to a later motion from or to the same pose.
///
/// # Panics
///
/// Panics as [`check_motion`] does.
pub fn check_motion_replaying<C: CollisionChecker + ?Sized>(
    checker: &mut C,
    motion: &Motion,
    step: f32,
    known: EndpointWork,
) -> (MotionResult, EndpointWork) {
    let n = motion.pose_count(step);
    let mut pose = JointConfig::zeros(motion.from.dof());
    let mut walked = EndpointWork::default();
    for i in 0..n {
        motion.pose_into(i, n, &mut pose);
        let end = match i {
            0 if same_bits(&pose, &motion.from) => Some((known.from, &mut walked.from)),
            _ if i == n - 1 => Some((known.to, &mut walked.to)),
            _ => None,
        };
        let colliding = match end {
            None => checker.check_pose(&pose),
            Some((record, slot)) => {
                if record.is_some_and(|work| checker.replay(work)) {
                    false
                } else {
                    let (hit, work) = attributed(checker, |c| c.check_pose(&pose));
                    *slot = Some(work);
                    hit
                }
            }
        };
        if colliding {
            let result = MotionResult {
                colliding: true,
                first_hit: Some(i),
                poses_checked: i + 1,
                pose_count: n,
            };
            return (result, walked);
        }
    }
    let result = MotionResult {
        colliding: false,
        first_hit: None,
        poses_checked: n,
        pose_count: n,
    };
    (result, walked)
}

/// Whether two poses have bit-identical joints.
fn same_bits(a: &JointConfig, b: &JointConfig) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks every consecutive segment of a path ("feasibility checking",
/// §2.1/Fig 3). Returns the index of the first infeasible segment, if any.
/// A path of fewer than 2 waypoints has no segment, so it has no
/// infeasible one: `None`, and no pose is checked.
///
/// Each segment after the first starts at the waypoint the one before it
/// ended at, so that waypoint's walk is handed on and replayed
/// ([`check_motion_replaying`]): a waypoint is walked once.
///
/// # Panics
///
/// Panics as [`check_motion`] does on any of the path's segments.
pub fn check_path(
    checker: &mut impl CollisionChecker,
    waypoints: &[JointConfig],
    step: f32,
) -> Option<usize> {
    let mut from = None;
    for (i, w) in waypoints.windows(2).enumerate() {
        let m = Motion::new(w[0].clone(), w[1].clone());
        let known = EndpointWork { from, to: None };
        let (result, walked) = check_motion_replaying(checker, &m, step, known);
        if result.colliding {
            return Some(i);
        }
        from = walked.to;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::SoftwareChecker;
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

    /// Forwards to a [`SoftwareChecker`], `replay` included, and records
    /// every pose it walks.
    struct Walks {
        inner: SoftwareChecker,
        walked: Vec<JointConfig>,
    }

    impl CollisionChecker for Walks {
        fn robot(&self) -> &RobotModel {
            self.inner.robot()
        }
        fn check_pose(&mut self, cfg: &JointConfig) -> bool {
            self.walked.push(cfg.clone());
            self.inner.check_pose(cfg)
        }
        fn stats(&self) -> CdStats {
            self.inner.stats()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats()
        }
        fn replay(&mut self, work: CdStats) -> bool {
            self.inner.replay(work)
        }
    }

    /// `check_motion` before it delegated to `check_motion_replaying`,
    /// verbatim.
    fn old_check_motion(checker: &mut SoftwareChecker, motion: &Motion, step: f32) -> MotionResult {
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

    /// The work `checker` bills for `pose`.
    fn work_of(checker: &mut SoftwareChecker, pose: &JointConfig) -> CdStats {
        let (hit, work) = attributed(checker, |c| c.check_pose(pose));
        assert!(!hit, "a known endpoint must be free");
        work
    }

    #[test]
    fn a_negative_zero_start_joint_walks_pose_zero() {
        let robot = RobotModel::planar_2dof();
        let env = Octree::build(&[], 4);
        let fresh = || SoftwareChecker::new(robot.clone(), env.clone());
        for (j0, replayed) in [(0.0f32, true), (-0.0, false)] {
            let motion = Motion::new(
                JointConfig::new(vec![j0, 0.3]),
                JointConfig::new(vec![0.5, 0.0]),
            );
            let mut walks = Walks {
                inner: fresh(),
                walked: Vec::new(),
            };
            let known = EndpointWork {
                from: Some(work_of(&mut fresh(), &motion.from)),
                to: None,
            };
            let (got, walked) = check_motion_replaying(&mut walks, &motion, 0.1, known);
            let mut reference = fresh();
            assert_eq!(got, old_check_motion(&mut reference, &motion, 0.1));
            assert_eq!(walks.stats(), reference.stats());
            // Pose 0 has a +0.0 joint either way, so it is `motion.from`
            // only for a +0.0 start joint; for -0.0 it is walked.
            let first = usize::from(replayed);
            assert_eq!(walks.walked[0], motion.pose(first, got.pose_count));
            assert_eq!(walks.walked[0].as_slice()[0].to_bits() >> 31, 0);
            assert_eq!(walks.walked.len(), got.pose_count - first, "start {j0:?}");
            assert_eq!(walked.from, None);
            assert!(walked.to.is_some());
        }
    }

    #[test]
    fn a_motion_can_collide_at_its_last_pose() {
        // Three poses, j0 = 0, 0.45, 0.9: only the last is on the block.
        let (mut checker, _) = planar_fixture();
        let (mut reference, _) = planar_fixture();
        let motion = Motion::new(
            JointConfig::new(vec![0.0, 0.0]),
            JointConfig::new(vec![0.9, 0.0]),
        );
        let known = EndpointWork {
            from: Some(work_of(&mut planar_fixture().0, &motion.from)),
            to: None,
        };
        let (got, walked) = check_motion_replaying(&mut checker, &motion, 0.5, known);
        let want = old_check_motion(&mut reference, &motion, 0.5);
        assert_eq!(want.pose_count, 3);
        assert_eq!(want.first_hit, Some(2));
        assert_eq!(got, want);
        assert_eq!(checker.stats(), reference.stats());
        assert_eq!(walked.from, None, "a replayed endpoint is not walked");
        let (hit, last) = attributed(&mut planar_fixture().0, |c| c.check_pose(&motion.to));
        assert!(hit);
        assert_eq!(walked.to, Some(last));
    }

    #[test]
    fn random_motions_match_the_old_loop() {
        use mp_octree::{Scene, SceneConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let robot = RobotModel::jaco2();
        let env = Scene::random(SceneConfig::paper(), 3).octree();
        let fresh = || SoftwareChecker::new(robot.clone(), env.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let (mut got_chk, mut old_chk) = (fresh(), fresh());
        let (mut colliding, mut replayed) = (0, 0);
        for _ in 0..60 {
            let from = robot.sample_config(&mut rng);
            let mut to = robot.sample_config(&mut rng);
            // Short motions too, so some are free.
            if rng.gen::<bool>() {
                to = from.lerp(&to, 0.1);
            }
            let motion = Motion::new(from, to);
            let got = check_motion(&mut got_chk, &motion, CSPACE_STEP);
            let want = old_check_motion(&mut old_chk, &motion, CSPACE_STEP);
            assert_eq!(got, want);
            assert_eq!(got_chk.stats(), old_chk.stats());
            colliding += usize::from(want.colliding);

            // The same motion with every free endpoint known.
            let free = |pose: &JointConfig| {
                let (hit, work) = attributed(&mut fresh(), |c| c.check_pose(pose));
                (!hit).then_some(work)
            };
            let known = EndpointWork {
                from: free(&motion.from),
                to: free(&motion.to),
            };
            let mut walks = Walks {
                inner: fresh(),
                walked: Vec::new(),
            };
            let (again, _) = check_motion_replaying(&mut walks, &motion, CSPACE_STEP, known);
            let mut reference = fresh();
            assert_eq!(
                again,
                old_check_motion(&mut reference, &motion, CSPACE_STEP)
            );
            assert_eq!(walks.stats(), reference.stats());
            replayed += want.poses_checked - walks.walked.len();
        }
        assert!(colliding > 0 && colliding < 60, "{colliding} of 60 collide");
        assert!(replayed > 0, "no endpoint was replayed");
    }
}
