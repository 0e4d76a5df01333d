//! Planning queries one after another on one shared checker gives each
//! query exactly the outcome a fresh checker gives it.
//!
//! The experiments, the workload cache, the service catalog and the
//! examples all build one checker per scene (per scene and tier in the
//! catalog) and plan every query of that scene on it. That is sound only
//! because every planner reads its own counter *deltas*, never the
//! checker's totals, and the checker keeps no state between poses that
//! changes a verdict. These properties pin it: for random scenes and
//! random, unfiltered endpoints (so queries that fail endpoint validation
//! are covered too), each query's path, node count and CD-query count on
//! the shared checker equal a fresh checker's, its
//! [`attributed`](mpaccel::collision::attributed) `CdStats` equal the
//! fresh checker's full counters, and the shared checker's total is the
//! sum of the per-query deltas. The f32 software chain and the Q3.12
//! CECDU chain are both checked, since the quantized cascade takes
//! different branches.

use std::fmt::Debug;

use mpaccel::accel::{CecduChecker, CecduSim};
use mpaccel::collision::{attributed, CdStats, CollisionChecker, SoftwareChecker};
use mpaccel::octree::{Octree, Scene, SceneConfig};
use mpaccel::planner::queries::PlanningQuery;
use mpaccel::planner::rrt::{rrt, rrt_connect, RrtConfig, RrtOutcome};
use mpaccel::planner::sampler::OracleSampler;
use mpaccel::planner::{plan_at_tier_with_path, QualityTier};
use mpaccel::robot::{JointConfig, RobotModel};
use mpaccel::sim::{CecduConfig, IuKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tight budget so unsolvable queries end quickly in a debug build.
fn cfg() -> RrtConfig {
    RrtConfig {
        max_cd_queries: Some(1500),
        ..RrtConfig::default()
    }
}

/// `n` queries with endpoints sampled from the robot's C-space —
/// deliberately not filtered for validity.
fn random_queries(robot: &RobotModel, n: usize, seed: u64) -> Vec<PlanningQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| PlanningQuery {
            start: robot.sample_config(&mut rng),
            goal: robot.sample_config(&mut rng),
        })
        .collect()
}

/// The planner seed of query `i` in a property case.
fn query_seed(case_seed: u64, i: usize) -> u64 {
    case_seed ^ (0x9e37 + i as u64)
}

/// The parts of an [`RrtOutcome`] a query's result consists of.
fn rrt_result(o: RrtOutcome) -> (Option<Vec<JointConfig>>, usize, u64) {
    (o.path, o.nodes, o.cd_queries)
}

/// Plans queries `0..n` with `plan_one`, each on its own checker from
/// `fresh` and in turn on one shared checker, and asserts the outcomes
/// and the work attribution agree.
fn assert_shared_matches_fresh<C: CollisionChecker, T: PartialEq + Debug>(
    fresh: impl Fn() -> C,
    n: usize,
    mut plan_one: impl FnMut(&mut C, usize) -> T,
) {
    let mut shared = fresh();
    let mut total = CdStats::default();
    for i in 0..n {
        let mut own = fresh();
        let expected = plan_one(&mut own, i);
        let (got, delta) = attributed(&mut shared, |c| plan_one(c, i));
        assert_eq!(got, expected, "query {i}: outcome differs");
        assert_eq!(delta, own.stats(), "query {i}: CdStats differ");
        total.absorb(delta);
    }
    assert_eq!(shared.stats(), total, "shared total != sum of deltas");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn rrt_connect_on_a_shared_f32_checker_matches_fresh_checkers(
        scene_seed in 0u64..6,
        case_seed in 0u64..1000,
        n in 1usize..4,
    ) {
        let robot = RobotModel::jaco2();
        let tree = Scene::random(SceneConfig::paper(), scene_seed).octree();
        let queries = random_queries(&robot, n, case_seed);
        assert_shared_matches_fresh(
            || SoftwareChecker::new(robot.clone(), tree.clone()),
            n,
            |c, i| {
                let q = &queries[i];
                rrt_result(rrt_connect(c, &q.start, &q.goal, &cfg(), query_seed(case_seed, i)))
            },
        );
    }

    #[test]
    fn rrt_connect_on_a_shared_q312_checker_matches_fresh_checkers(
        scene_seed in 0u64..4,
        case_seed in 0u64..1000,
        n in 1usize..4,
    ) {
        let robot = RobotModel::jaco2();
        let tree = Scene::random(SceneConfig::paper(), scene_seed).octree();
        let sim = CecduSim::new(robot.clone(), tree, CecduConfig::new(4, IuKind::MultiCycle));
        let queries = random_queries(&robot, n, case_seed);
        assert_shared_matches_fresh(
            || CecduChecker::new(sim.clone()),
            n,
            |c, i| {
                let q = &queries[i];
                rrt_result(rrt_connect(c, &q.start, &q.goal, &cfg(), query_seed(case_seed, i)))
            },
        );
    }

    #[test]
    fn rrt_on_a_shared_checker_matches_fresh_checkers(
        scene_seed in 0u64..4,
        case_seed in 0u64..1000,
        n in 1usize..4,
    ) {
        let robot = RobotModel::jaco2();
        let tree = Scene::random(SceneConfig::paper(), scene_seed).octree();
        let queries = random_queries(&robot, n, case_seed);
        assert_shared_matches_fresh(
            || SoftwareChecker::new(robot.clone(), tree.clone()),
            n,
            |c, i| {
                let q = &queries[i];
                rrt_result(rrt(c, &q.start, &q.goal, &cfg(), query_seed(case_seed, i)))
            },
        );
    }

    #[test]
    fn every_tier_on_a_shared_checker_matches_fresh_checkers(
        scene_seed in 0u64..4,
        case_seed in 0u64..1000,
        n in 1usize..3,
    ) {
        let robot = RobotModel::jaco2();
        let scene = Scene::random(SceneConfig::paper(), scene_seed);
        let queries = random_queries(&robot, n, case_seed);
        for tier in QualityTier::LADDER {
            let tree = Octree::build(scene.obstacles(), tier.octree_depth());
            assert_shared_matches_fresh(
                || SoftwareChecker::new(robot.clone(), tree.clone()),
                n,
                |c, i| {
                    let q = &queries[i];
                    let seed = query_seed(case_seed, i);
                    let mut sampler = OracleSampler::new(robot.clone(), seed);
                    plan_at_tier_with_path(c, &mut sampler, &q.start, &q.goal, tier, seed)
                },
            );
        }
    }
}
