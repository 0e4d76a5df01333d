//! Seeded planner runs pinned to digests of everything they return.
//!
//! `mpnet::plan` leaves through one exit per failure kind plus success,
//! and each exit fills the outcome's stats, bills the open ledger phase
//! and hands back the trace. Three groups of runs are pinned to FNV
//! digests of their `Debug` text:
//!
//! * `plan` on benchmark scenes for Jaco2 and Baxter (path, stats,
//!   failure, ledger scopes and trace), including colliding endpoints;
//! * all four quality tiers through `plan_at_tier_with_path`;
//! * a sweep of modeled deadlines that runs out in phase 1 and in
//!   phase 2.
//!
//! A change to how `plan` or the RRT baselines spend or account their work
//! moves a digest here, without the committed-artifact comparison.

use mpaccel::collision::{CollisionChecker, SoftwareChecker};
use mpaccel::octree::{benchmark_scenes, Octree, Scene};
use mpaccel::planner::queries::generate_queries;
use mpaccel::planner::{
    plan, plan_at_tier_with_path, MpnetConfig, OracleSampler, PlanBudget, PlanFailure, PlanOutcome,
    QualityTier,
};
use mpaccel::robot::{JointConfig, RobotModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a (64-bit) of a `Debug` text.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Everything one `plan` call returns, as text.
fn outcome_text(out: &PlanOutcome) -> String {
    let scopes: Vec<_> = out.ledger.iter().collect();
    format!(
        "{:?}|{:?}|{:?}|{scopes:?}|{:?}\n",
        out.path, out.stats, out.failure, out.trace
    )
}

/// The first pose the checker finds colliding among seeded samples.
fn colliding_pose(checker: &mut SoftwareChecker, robot: &RobotModel, seed: u64) -> JointConfig {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..10_000)
        .map(|_| robot.sample_config(&mut rng))
        .find(|q| checker.check_pose(q))
        .expect("a paper scene blocks some sampled pose")
}

/// Where a run left `plan`: its failure, and whether phase 1 connected
/// (a coarse path exists).
type Exit = (Option<PlanFailure>, bool);

/// Plans `queries` seeded queries on each of `scenes` and returns the
/// concatenated outcome text and each run's exit.
fn plan_scenes(
    robot: &RobotModel,
    scenes: &[Scene],
    queries: usize,
    cfg: impl Fn(u64) -> MpnetConfig,
) -> (String, Vec<Exit>) {
    let mut text = String::new();
    let mut failures = Vec::new();
    for (si, scene) in scenes.iter().enumerate() {
        let octree = scene.octree();
        for (qi, q) in generate_queries(robot, scene, queries, 40 + si as u64)
            .expect("paper scenes yield valid queries")
            .iter()
            .enumerate()
        {
            let seed = (si * 100 + qi) as u64;
            let mut checker = SoftwareChecker::new(robot.clone(), octree.clone());
            let mut sampler = OracleSampler::new(robot.clone(), seed);
            let out = plan(&mut checker, &mut sampler, &q.start, &q.goal, &cfg(seed));
            text += &outcome_text(&out);
            failures.push((out.failure, out.stats.coarse_waypoints > 0));
        }
    }
    (text, failures)
}

fn scenes() -> Vec<Scene> {
    benchmark_scenes()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| [0, 3, 7].contains(i))
        .map(|(_, s)| s)
        .collect()
}

fn default_cfg(seed: u64) -> MpnetConfig {
    MpnetConfig {
        seed,
        ..MpnetConfig::default()
    }
}

#[test]
fn plan_outcomes_match_their_pinned_digests() {
    let scenes = scenes();
    for (robot, pinned) in [
        (RobotModel::jaco2(), 0x0256_53A8_26E8_5607),
        (RobotModel::baxter(), 0x6EF5_DBEC_2CC7_9D23),
    ] {
        let mut text = String::new();
        let mut exits = Vec::new();
        // The default config, then too few expansions, then no repairs.
        for tweak in [
            |cfg: MpnetConfig| cfg,
            |cfg| MpnetConfig {
                max_expansion_steps: 2,
                ..cfg
            },
            |cfg| MpnetConfig {
                replan_attempts: 0,
                ..cfg
            },
        ] {
            let (t, e) = plan_scenes(&robot, &scenes, 6, |seed| tweak(default_cfg(seed)));
            text += &t;
            exits.extend(e);
        }
        for want in [
            None,
            Some(PlanFailure::NotConnected),
            Some(PlanFailure::ReplanExhausted),
        ] {
            assert!(
                exits.iter().any(|e| e.0 == want),
                "{}: no run ended with {want:?}",
                robot.name()
            );
        }

        // Colliding endpoints leave through their own exits.
        let mut checker = SoftwareChecker::new(robot.clone(), scenes[0].octree());
        let bad = colliding_pose(&mut checker, &robot, 3);
        let free = &generate_queries(&robot, &scenes[0], 1, 40)
            .expect("paper scenes yield valid queries")[0]
            .start;
        let mut sampler = OracleSampler::new(robot.clone(), 1);
        for (start, goal, want) in [
            (&bad, free, PlanFailure::InvalidStart),
            (free, &bad, PlanFailure::InvalidGoal),
        ] {
            let out = plan(&mut checker, &mut sampler, start, goal, &default_cfg(1));
            assert_eq!(out.failure, Some(want));
            text += &outcome_text(&out);
        }
        assert_eq!(
            digest(&text),
            pinned,
            "{} plan outcomes moved",
            robot.name()
        );
    }
}

#[test]
fn tier_outcomes_match_their_pinned_digest() {
    let robot = RobotModel::jaco2();
    let mut text = String::new();
    for scene in scenes() {
        let queries = generate_queries(&robot, &scene, 3, 9).expect("paper scenes yield queries");
        for tier in QualityTier::LADDER {
            let mut checker = SoftwareChecker::new(
                robot.clone(),
                Octree::build(scene.obstacles(), tier.octree_depth()),
            );
            for (qi, q) in queries.iter().enumerate() {
                let mut sampler = OracleSampler::new(robot.clone(), qi as u64);
                let (out, path) = plan_at_tier_with_path(
                    &mut checker,
                    &mut sampler,
                    &q.start,
                    &q.goal,
                    tier,
                    qi as u64 + 5,
                );
                text += &format!("{out:?}|{path:?}\n");
            }
        }
    }
    assert_eq!(digest(&text), 0x9FB4_8C6B_B49E_16A0, "tier outcomes moved");
}

#[test]
fn budget_exhausted_outcomes_match_their_pinned_digest() {
    let robot = RobotModel::jaco2();
    let mut text = String::new();
    let mut exits = Vec::new();
    for deadline_us in [1.0, 40.0, 150.0, 400.0] {
        let cfg = |seed| MpnetConfig {
            seed,
            budget: PlanBudget::deadline_us(deadline_us),
            ..MpnetConfig::default()
        };
        let (t, f) = plan_scenes(&robot, &scenes()[..1], 6, cfg);
        text += &t;
        exits.extend(f);
    }
    let cd_cap = |seed| MpnetConfig {
        seed,
        budget: PlanBudget {
            max_cd_queries: Some(300),
            ..PlanBudget::default()
        },
        ..MpnetConfig::default()
    };
    let (t, f) = plan_scenes(&robot, &scenes()[1..2], 6, cd_cap);
    text += &t;
    exits.extend(f);
    // Budgets run out both before and after phase 1 connects.
    for connected in [false, true] {
        assert!(
            exits.iter().any(|e| {
                matches!(e.0, Some(PlanFailure::BudgetExhausted(_))) && e.1 == connected
            }),
            "no budget ran out with connected = {connected}"
        );
    }
    assert_eq!(
        digest(&text),
        0xFE01_34A2_F43C_7F8F,
        "budget-exhausted outcomes moved"
    );
}
