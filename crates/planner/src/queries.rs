//! Benchmark query generation (§6: "100 pairs of start and end goals per
//! each environmental scenario").

use mp_collision::{CollisionChecker, SoftwareChecker};
use mp_octree::Scene;
use mp_robot::{JointConfig, RobotModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A start/goal pair for one motion-planning query.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanningQuery {
    /// Start configuration (collision-free).
    pub start: JointConfig,
    /// Goal configuration (collision-free).
    pub goal: JointConfig,
}

/// Query generation failed: the scene is too cluttered (or degenerate) to
/// sample enough valid start/goal pairs, even after reseeded retries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryGenError {
    /// Pairs requested.
    pub requested: usize,
    /// Valid pairs found on the best attempt.
    pub found: usize,
    /// Sampling attempts made (including reseeded retries).
    pub attempts: u32,
}

impl core::fmt::Display for QueryGenError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "could not sample {} valid queries for this scene (best attempt \
             found {} over {} reseeded tries)",
            self.requested, self.found, self.attempts
        )
    }
}

impl std::error::Error for QueryGenError {}

/// Reseeded retries before [`generate_queries`] gives up.
const RESEED_ATTEMPTS: u32 = 3;

/// Generates `count` valid (collision-free, well-separated) start/goal
/// pairs for a robot in a scene. Deterministic in `seed`.
///
/// Each attempt gets a generous sampling budget; if a scene is so
/// cluttered that the budget runs out, the generator retries with a
/// reseeded RNG up to `RESEED_ATTEMPTS` times before reporting
/// [`QueryGenError`].
pub fn generate_queries(
    robot: &RobotModel,
    scene: &Scene,
    count: usize,
    seed: u64,
) -> Result<Vec<PlanningQuery>, QueryGenError> {
    let mut checker = SoftwareChecker::new(robot.clone(), scene.octree());
    let mut best: Vec<PlanningQuery> = Vec::new();
    for attempt in 0..RESEED_ATTEMPTS {
        // SplitMix-style reseed keeps attempt 0 identical to the historic
        // stream (offset 0) while decorrelating retries.
        let attempt_seed =
            seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(attempt_seed);
        let mut out = Vec::with_capacity(count);
        let min_sep = 1.0; // radians L2: make queries non-trivial
        let mut budget = count * 400;
        while out.len() < count && budget > 0 {
            budget -= 1;
            let start = robot.sample_config(&mut rng);
            if checker.check_pose(&start) {
                continue;
            }
            let goal = robot.sample_config(&mut rng);
            if checker.check_pose(&goal) || start.distance(&goal) < min_sep {
                continue;
            }
            out.push(PlanningQuery { start, goal });
        }
        if out.len() == count {
            return Ok(out);
        }
        if out.len() > best.len() {
            best = out;
        }
    }
    Err(QueryGenError {
        requested: count,
        found: best.len(),
        attempts: RESEED_ATTEMPTS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_geometry::{Aabb, Vec3};
    use mp_octree::SceneConfig;

    #[test]
    fn queries_are_valid_and_separated() {
        let robot = RobotModel::jaco2();
        let scene = Scene::random(SceneConfig::paper(), 0);
        let qs = generate_queries(&robot, &scene, 10, 42).expect("paper scene is solvable");
        assert_eq!(qs.len(), 10);
        let mut checker = SoftwareChecker::new(robot.clone(), scene.octree());
        for q in &qs {
            assert!(!checker.check_pose(&q.start));
            assert!(!checker.check_pose(&q.goal));
            assert!(q.start.distance(&q.goal) >= 1.0);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let robot = RobotModel::baxter();
        let scene = Scene::random(SceneConfig::paper(), 1);
        let a = generate_queries(&robot, &scene, 5, 7).unwrap();
        let b = generate_queries(&robot, &scene, 5, 7).unwrap();
        assert_eq!(a, b);
        let c = generate_queries(&robot, &scene, 5, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn degenerate_scene_errors_instead_of_panicking() {
        // A wall of obstacles filling the whole workspace: every sampled
        // pose collides, so no budget or reseed can help.
        let robot = RobotModel::jaco2();
        let scene = Scene::from_obstacles(vec![Aabb::new(Vec3::splat(0.0), Vec3::splat(3.0))], 3);
        let err = generate_queries(&robot, &scene, 4, 0).unwrap_err();
        assert_eq!(err.requested, 4);
        assert_eq!(err.found, 0);
        assert_eq!(err.attempts, RESEED_ATTEMPTS);
        // And the error formats usefully.
        assert!(err.to_string().contains("4 valid queries"));
    }
}
