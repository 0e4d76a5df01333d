//! Tiered planning-quality presets for graceful degradation under load.
//!
//! A realtime planning service facing overload has two bad options — miss
//! deadlines or drop requests — and one good one: serve a *cheaper* plan.
//! This module defines the degradation ladder the `mp-service` load
//! controller steps requests down:
//!
//! 1. [`QualityTier::Full`] — the paper-default MPNet configuration,
//! 2. [`QualityTier::Reduced`] — fewer MPNet expansion/replanning
//!    iterations, no shortcutting, tighter [`PlanBudget`],
//! 3. [`QualityTier::Fallback`] — skip the neural planner entirely and run
//!    budgeted RRT-Connect,
//! 4. [`QualityTier::Coarse`] — RRT-Connect against a *coarser* octree
//!    (depth [`QualityTier::octree_depth`] = 3 instead of the paper's 4),
//!    the cheapest plan the stack can produce.
//!
//! [`plan_at_tier`] is the cheap re-plan entry point: after a failed or
//! degraded attempt the service calls it again at a lower tier (with a
//! fresh attempt seed) without rebuilding any planner state.

use mp_collision::CollisionChecker;
use mp_robot::JointConfig;

use crate::mpnet::{plan, MpnetConfig, PlanBudget, CD_QUERY_MODELED_US};
use crate::rrt::{rrt_connect, RrtConfig};
use crate::sampler::NeuralSampler;

/// One rung of the degradation ladder, cheapest last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QualityTier {
    /// Paper-default MPNet planning (shortcutting on).
    Full,
    /// Reduced MPNet: fewer expansions/replans, no shortcutting, tighter
    /// modeled-time budget.
    Reduced,
    /// Classical RRT-Connect under a hard CD-query budget (no neural
    /// inference cost at all).
    Fallback,
    /// RRT-Connect against a depth-3 octree with the tightest budget.
    Coarse,
}

impl QualityTier {
    /// Number of tiers.
    pub const COUNT: usize = 4;

    /// All tiers, best quality first.
    pub const LADDER: [QualityTier; QualityTier::COUNT] = [
        QualityTier::Full,
        QualityTier::Reduced,
        QualityTier::Fallback,
        QualityTier::Coarse,
    ];

    /// Stable index into [`QualityTier::LADDER`].
    pub fn index(self) -> usize {
        match self {
            QualityTier::Full => 0,
            QualityTier::Reduced => 1,
            QualityTier::Fallback => 2,
            QualityTier::Coarse => 3,
        }
    }

    /// The tier at ladder position `i` (clamped to the cheapest tier).
    pub fn from_index(i: usize) -> QualityTier {
        QualityTier::LADDER[i.min(QualityTier::COUNT - 1)]
    }

    /// Next-cheaper rung, if any.
    pub fn cheaper(self) -> Option<QualityTier> {
        match self {
            QualityTier::Full => Some(QualityTier::Reduced),
            QualityTier::Reduced => Some(QualityTier::Fallback),
            QualityTier::Fallback => Some(QualityTier::Coarse),
            QualityTier::Coarse => None,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            QualityTier::Full => "full",
            QualityTier::Reduced => "reduced",
            QualityTier::Fallback => "fallback-rrt",
            QualityTier::Coarse => "coarse-rrt",
        }
    }

    /// Octree depth this tier plans against (the paper default is 4; the
    /// coarse tier trades resolution for traversal work at depth 3).
    pub fn octree_depth(self) -> u32 {
        match self {
            QualityTier::Coarse => 3,
            _ => 4,
        }
    }

    /// The tier's resource budget. Budgets shrink monotonically down the
    /// ladder so a degraded attempt is always cheaper than the one it
    /// replaces.
    pub fn budget(self) -> PlanBudget {
        match self {
            QualityTier::Full => PlanBudget::deadline_us(2_000.0),
            QualityTier::Reduced => PlanBudget::deadline_us(700.0),
            QualityTier::Fallback => PlanBudget {
                max_cd_queries: Some(1_500),
                max_nn_calls: None,
                max_modeled_us: Some(340.0),
            },
            QualityTier::Coarse => PlanBudget {
                max_cd_queries: Some(700),
                max_nn_calls: None,
                max_modeled_us: Some(160.0),
            },
        }
    }

    /// MPNet configuration for the neural tiers (`None` for the RRT-only
    /// rungs).
    pub fn mpnet_config(self, seed: u64) -> Option<MpnetConfig> {
        match self {
            QualityTier::Full => Some(MpnetConfig {
                seed,
                budget: self.budget(),
                ..MpnetConfig::default()
            }),
            QualityTier::Reduced => Some(MpnetConfig {
                max_expansion_steps: 20,
                replan_attempts: 8,
                shortcut: false,
                max_waypoints: 48,
                seed,
                budget: self.budget(),
                ..MpnetConfig::default()
            }),
            _ => None,
        }
    }

    /// RRT-Connect configuration for the classical tiers.
    pub fn rrt_config(self) -> RrtConfig {
        match self {
            QualityTier::Coarse => RrtConfig {
                max_nodes: 600,
                steer_step: 0.8,
                max_cd_queries: self.budget().max_cd_queries,
                ..RrtConfig::default()
            },
            _ => RrtConfig {
                max_nodes: 1_200,
                max_cd_queries: QualityTier::Fallback.budget().max_cd_queries,
                ..RrtConfig::default()
            },
        }
    }
}

/// Outcome of one tiered planning attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierOutcome {
    /// The tier that served the attempt.
    pub tier: QualityTier,
    /// Whether a collision-free path was produced.
    pub solved: bool,
    /// Collision-detection pose queries spent.
    pub cd_queries: u64,
    /// Neural-sampler inferences spent (zero on the RRT tiers).
    pub nn_calls: u64,
    /// Modeled accelerator time for the attempt (µs).
    pub modeled_us: f64,
    /// Dynamic collision-detection datapath energy the attempt spent, in
    /// picojoules: the checker's counter delta priced by `mp_sim::energy`.
    /// NN inference energy is billed separately (as `mlp_macs`) when the
    /// recorded trace is replayed on the hardware models.
    pub energy_pj: f64,
}

/// Runs one planning attempt at `tier`. This is the service's cheap
/// re-plan entry point: stateless between calls, so stepping a request
/// down the ladder is a plain re-invocation with the next tier and a new
/// attempt seed.
///
/// The caller owns checker construction and must build it at
/// [`QualityTier::octree_depth`] for the tier (the coarse tier's saving
/// comes from the shallower octree).
pub fn plan_at_tier(
    checker: &mut impl CollisionChecker,
    sampler: &mut impl NeuralSampler,
    start: &JointConfig,
    goal: &JointConfig,
    tier: QualityTier,
    seed: u64,
) -> TierOutcome {
    plan_at_tier_with_path(checker, sampler, start, goal, tier, seed).0
}

/// Like [`plan_at_tier`], but also returns the solved path's waypoints so
/// the caller can certify them through an independent checker (see
/// [`crate::certify::PlanCertifier`]). `None` when the attempt failed.
pub fn plan_at_tier_with_path(
    checker: &mut impl CollisionChecker,
    sampler: &mut impl NeuralSampler,
    start: &JointConfig,
    goal: &JointConfig,
    tier: QualityTier,
    seed: u64,
) -> (TierOutcome, Option<Vec<JointConfig>>) {
    let span = mp_telemetry::span_args(
        "planner",
        "plan",
        mp_telemetry::arg1("tier", mp_telemetry::ArgValue::Str(tier.label())),
    );
    // The attempt's energy is the checker's counter delta priced by the
    // energy model, so the outcome is the same on a fresh checker and on
    // one shared with earlier queries.
    let ((mut outcome, path), cd_work) =
        mp_collision::attributed(checker, |c| match tier.mpnet_config(seed) {
            Some(cfg) => {
                let out = plan(c, sampler, start, goal, &cfg);
                (
                    TierOutcome {
                        tier,
                        solved: out.solved(),
                        cd_queries: out.stats.cd_queries,
                        nn_calls: out.stats.nn_calls,
                        modeled_us: PlanBudget::modeled_us(
                            out.stats.cd_queries,
                            out.stats.nn_calls,
                        ),
                        energy_pj: 0.0,
                    },
                    out.path,
                )
            }
            None => {
                let out = rrt_connect(c, start, goal, &tier.rrt_config(), seed);
                (
                    TierOutcome {
                        tier,
                        solved: out.solved(),
                        cd_queries: out.cd_queries,
                        nn_calls: 0,
                        modeled_us: out.cd_queries as f64 * CD_QUERY_MODELED_US,
                        energy_pj: 0.0,
                    },
                    out.path,
                )
            }
        });
    outcome.energy_pj = cd_work.energy_pj();
    span.end_with(|| {
        mp_telemetry::arg2(
            "solved",
            mp_telemetry::ArgValue::U64(outcome.solved as u64),
            "cd_queries",
            mp_telemetry::ArgValue::U64(outcome.cd_queries),
        )
    });
    (outcome, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_collision::SoftwareChecker;
    use mp_octree::{Octree, Scene, SceneConfig};
    use mp_robot::RobotModel;

    use crate::sampler::OracleSampler;

    #[test]
    fn ladder_is_ordered_and_budgets_shrink() {
        let mut prev = f64::INFINITY;
        for (i, t) in QualityTier::LADDER.iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(QualityTier::from_index(i), *t);
            let cap = t.budget().max_modeled_us.expect("every tier is budgeted");
            assert!(cap < prev, "{} budget must shrink", t.label());
            prev = cap;
        }
        assert_eq!(QualityTier::from_index(99), QualityTier::Coarse);
        assert_eq!(QualityTier::Full.cheaper(), Some(QualityTier::Reduced));
        assert_eq!(QualityTier::Coarse.cheaper(), None);
        assert_eq!(QualityTier::Coarse.octree_depth(), 3);
        assert_eq!(QualityTier::Full.octree_depth(), 4);
    }

    #[test]
    fn every_tier_plans_free_space() {
        let robot = RobotModel::jaco2();
        let mut goal = robot.home();
        goal.as_mut_slice()[0] += 1.0;
        for tier in QualityTier::LADDER {
            let mut checker =
                SoftwareChecker::new(robot.clone(), Octree::build(&[], tier.octree_depth()));
            let mut sampler = OracleSampler::new(robot.clone(), 5);
            let out = plan_at_tier(&mut checker, &mut sampler, &robot.home(), &goal, tier, 9);
            assert!(out.solved, "{} failed in free space", tier.label());
            assert_eq!(out.tier, tier);
            assert!(out.modeled_us > 0.0);
            if tier.mpnet_config(0).is_none() {
                assert_eq!(out.nn_calls, 0, "RRT tiers use no neural inference");
            }
        }
    }

    #[test]
    fn degraded_tiers_respect_their_budgets() {
        let robot = RobotModel::jaco2();
        let scene = Scene::random(SceneConfig::paper(), 1);
        for tier in [QualityTier::Fallback, QualityTier::Coarse] {
            let tree = Octree::build(scene.obstacles(), tier.octree_depth());
            let mut checker = SoftwareChecker::new(robot.clone(), tree);
            let mut sampler = OracleSampler::new(robot.clone(), 2);
            let mut goal = robot.home();
            goal.as_mut_slice()[1] += 0.9;
            let out = plan_at_tier(&mut checker, &mut sampler, &robot.home(), &goal, tier, 4);
            let cap = tier.budget().max_cd_queries.unwrap();
            // The RRT budget is checked between edges; allow one edge of
            // slack (see rrt.rs).
            assert!(
                out.cd_queries < cap + 120,
                "{} spent {} queries (cap {cap})",
                tier.label(),
                out.cd_queries
            );
        }
    }

    #[test]
    fn deterministic_in_the_seed() {
        let robot = RobotModel::jaco2();
        let scene = Scene::random(SceneConfig::paper(), 3);
        let mut goal = robot.home();
        goal.as_mut_slice()[0] += 1.2;
        for tier in QualityTier::LADDER {
            let run = |seed| {
                let tree = Octree::build(scene.obstacles(), tier.octree_depth());
                let mut checker = SoftwareChecker::new(robot.clone(), tree);
                let mut sampler = OracleSampler::new(robot.clone(), 8);
                plan_at_tier(&mut checker, &mut sampler, &robot.home(), &goal, tier, seed)
            };
            assert_eq!(run(21), run(21), "{} not deterministic", tier.label());
        }
    }
}
