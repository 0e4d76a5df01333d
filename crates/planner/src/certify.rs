//! Independent plan certification against silent data corruption.
//!
//! Every robustness layer below this one defends against *detected*
//! faults: parity catches storage flips, watchdogs catch dropped results,
//! voting catches disagreement someone bothered to look for. A CDU that
//! silently returns a wrong-but-plausible "no collision" verdict defeats
//! them all — the unsafe plan flows straight into `Completed`.
//!
//! [`PlanCertifier`] closes that gap with an end-to-end check: before a
//! plan ships, every edge is re-validated through an **independent scalar
//! software cascade** — a [`SoftwareChecker`] over a **separately built**
//! octree, sharing no memo, no replay state, and no datapath with the
//! accelerator that produced the plan. Soundness rests on fault
//! independence: for an unsafe plan to escape, the accelerator *and* the
//! certifier would have to corrupt the *same* edge verdict in the *same*
//! direction, and the certifier is plain CPU arithmetic outside the
//! injected-fault domain entirely.
//!
//! Certification is not free — it re-checks every pose of every edge at
//! software speed — so the service only pays for it per *returned* plan
//! (waypoints only, not the planner's full exploration), and the cost is
//! surfaced as a modeled overhead the integrity experiments report.

use mp_collision::{check_path, CollisionChecker, SoftwareChecker, CSPACE_STEP};
use mp_geometry::AabbF;
use mp_octree::Octree;
use mp_robot::{JointConfig, RobotModel};

/// Modeled microseconds per *software* collision-detection pose query.
///
/// The paper's motivation (§1, Fig 2) is that the software cascade is
/// roughly an order of magnitude slower than the accelerated one; the
/// certifier runs on a host core, so each pose costs ~10× the CECDU's
/// [`CD_QUERY_MODELED_US`](crate::mpnet::CD_QUERY_MODELED_US).
pub const CERTIFY_QUERY_MODELED_US: f64 = 2.24;

/// Result of certifying one plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CertifyOutcome {
    /// Whether every edge re-validated collision-free.
    pub clean: bool,
    /// First edge (waypoint window index) that failed, if any.
    pub first_bad_edge: Option<usize>,
    /// Edges in the certified path.
    pub edges: usize,
    /// Software pose queries spent re-validating.
    pub cd_queries: u64,
    /// Modeled host-CPU time (µs) for the certification pass.
    pub modeled_us: f64,
}

/// Re-validates returned plans through an independent software cascade.
///
/// The certifier owns its own [`SoftwareChecker`] over an octree built
/// fresh from the scene's obstacle list — deliberately *not* the checker
/// (or memo) the planner used, so accelerator-side corruption cannot
/// propagate into the reference verdicts.
#[derive(Clone, Debug)]
pub struct PlanCertifier {
    checker: SoftwareChecker,
}

impl PlanCertifier {
    /// Builds a certifier for `robot` in a scene described by its
    /// obstacle boxes, constructing an independent octree at `depth`.
    pub fn new(robot: RobotModel, obstacles: &[AabbF], depth: u32) -> PlanCertifier {
        PlanCertifier {
            checker: SoftwareChecker::new(robot, Octree::build(obstacles, depth)),
        }
    }

    /// Certifies a returned plan: re-checks every consecutive edge with
    /// the independent software cascade, at the planners' [`CSPACE_STEP`].
    /// A path with fewer than two waypoints has no edges and certifies
    /// vacuously clean.
    pub fn certify(&mut self, waypoints: &[JointConfig]) -> CertifyOutcome {
        let span = mp_telemetry::span("planner", "certify");
        let before = self.checker.stats().pose_queries;
        let first_bad_edge = check_path(&mut self.checker, waypoints, CSPACE_STEP);
        let cd_queries = self.checker.stats().pose_queries - before;
        let outcome = CertifyOutcome {
            clean: first_bad_edge.is_none(),
            first_bad_edge,
            edges: waypoints.len().saturating_sub(1),
            cd_queries,
            modeled_us: cd_queries as f64 * CERTIFY_QUERY_MODELED_US,
        };
        span.end_with(|| {
            mp_telemetry::arg2(
                "clean",
                mp_telemetry::ArgValue::U64(outcome.clean as u64),
                "cd_queries",
                mp_telemetry::ArgValue::U64(outcome.cd_queries),
            )
        });
        outcome
    }

    /// Total software pose queries spent across all certifications.
    pub fn total_queries(&self) -> u64 {
        self.checker.stats().pose_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_collision::SoftwareChecker;
    use mp_octree::{Scene, SceneConfig};

    use crate::sampler::OracleSampler;
    use crate::tiers::{plan_at_tier_with_path, QualityTier};

    fn robot() -> RobotModel {
        RobotModel::jaco2()
    }

    fn solved_path(scene: &Scene, tier: QualityTier, seed: u64) -> Option<Vec<JointConfig>> {
        let r = robot();
        let tree = Octree::build(scene.obstacles(), tier.octree_depth());
        let mut checker = SoftwareChecker::new(r.clone(), tree);
        let mut sampler = OracleSampler::new(r.clone(), seed);
        let mut goal = r.home();
        goal.as_mut_slice()[0] += 1.1;
        let (out, path) =
            plan_at_tier_with_path(&mut checker, &mut sampler, &r.home(), &goal, tier, seed);
        if out.solved {
            path
        } else {
            None
        }
    }

    #[test]
    fn clean_plans_certify_clean() {
        let scene = Scene::random(SceneConfig::paper(), 5);
        let path = solved_path(&scene, QualityTier::Full, 7).expect("fixture must solve");
        let mut cert = PlanCertifier::new(robot(), scene.obstacles(), 4);
        let out = cert.certify(&path);
        assert!(
            out.clean,
            "honest plan failed at edge {:?}",
            out.first_bad_edge
        );
        assert_eq!(out.edges, path.len() - 1);
        assert!(out.cd_queries > 0);
        assert!(out.modeled_us > 0.0);
    }

    #[test]
    fn corrupted_waypoint_fails_certification() {
        let scene = Scene::random(SceneConfig::paper(), 5);
        let mut path = solved_path(&scene, QualityTier::Full, 7).expect("fixture must solve");
        // Model an escaped false "free" verdict: yank a middle waypoint
        // far out of the planned corridor, through whatever the scene has
        // in the way.
        let mid = path.len() / 2;
        path[mid].as_mut_slice()[1] += 2.4;
        let mut honest = SoftwareChecker::new(robot(), Octree::build(scene.obstacles(), 4));
        let broken = check_path(&mut honest, &path, CSPACE_STEP).is_some();
        if !broken {
            // The perturbed corridor happens to be free in this scene;
            // the fixture can't exercise a rejection.
            return;
        }
        let mut cert = PlanCertifier::new(robot(), scene.obstacles(), 4);
        let out = cert.certify(&path);
        assert!(!out.clean, "corrupted plan must not certify");
        assert!(out.first_bad_edge.is_some());
    }

    #[test]
    fn trivial_paths_certify_vacuously() {
        let scene = Scene::random(SceneConfig::paper(), 2);
        let mut cert = PlanCertifier::new(robot(), scene.obstacles(), 4);
        let out = cert.certify(&[robot().home()]);
        assert!(out.clean);
        assert_eq!(out.edges, 0);
        assert_eq!(out.cd_queries, 0);
    }

    #[test]
    fn certifier_is_deterministic() {
        let scene = Scene::random(SceneConfig::paper(), 9);
        let path = solved_path(&scene, QualityTier::Fallback, 3).expect("fixture must solve");
        let run = || {
            let mut cert = PlanCertifier::new(robot(), scene.obstacles(), 4);
            cert.certify(&path)
        };
        assert_eq!(run(), run());
    }
}
