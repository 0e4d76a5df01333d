//! A motion MPNet checks again within one plan is replayed, billed
//! exactly as checking it again bills it.
//!
//! `mpnet::plan` keeps a memo of every motion the plan has checked and
//! answers a repeat through `CollisionChecker::replay_motion`.
//! `SoftwareChecker` and `CecduChecker` override that method to bill the
//! recorded work without checking a pose; the trait's default checks the
//! motion again. These tests plan every query twice, once on the checker
//! itself (behind a wrapper that forwards `replay_motion`) and once behind
//! a wrapper that keeps the default, and require:
//!
//! - the same `PlanOutcome`: path, stats, failure, ledger scopes and
//!   trace;
//! - the same `CdStats` and the same process-wide `mp_collision::metrics`
//!   delta;
//! - fewer poses executed than billed on the replaying side, and exactly
//!   as many on the re-checking side, so the comparison exercises replays.
//!
//! The runs cover Jaco2 and Baxter on the ten paper scenes with seeded
//! queries, a colliding endpoint and a budget that runs out mid-plan. The
//! process-wide metrics are shared by every test in this binary, so each
//! test holds `METRICS` while it measures them.

use std::sync::Mutex;

use mpaccel::accel::{CecduChecker, CecduSim, SystemConfig};
use mpaccel::collision::metrics::ops_total;
use mpaccel::collision::{CdStats, CollisionChecker, MotionResult, SoftwareChecker};
use mpaccel::octree::{benchmark_scenes, Scene};
use mpaccel::planner::queries::generate_queries;
use mpaccel::planner::{
    plan, BudgetResource, MpnetConfig, OracleSampler, PlanBudget, PlanFailure, PlanOutcome,
};
use mpaccel::robot::{JointConfig, Motion, RobotModel};
use mpaccel::sim::OpCounter;
use rand::rngs::StdRng;
use rand::SeedableRng;

static METRICS: Mutex<()> = Mutex::new(());

/// Forwards every call to `inner`, `replay_motion` included, and counts
/// the poses `inner` is asked.
struct Replaying<C> {
    inner: C,
    executed: u64,
}

/// Forwards every call but `replay_motion` to `inner`, so a repeated
/// motion is checked again by the trait's default, and counts the poses
/// `inner` is asked.
struct Rechecking<C> {
    inner: C,
    executed: u64,
}

impl<C: CollisionChecker> CollisionChecker for Replaying<C> {
    fn robot(&self) -> &RobotModel {
        self.inner.robot()
    }

    fn check_pose(&mut self, cfg: &JointConfig) -> bool {
        self.executed += 1;
        self.inner.check_pose(cfg)
    }

    fn stats(&self) -> CdStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn replay_motion(
        &mut self,
        motion: &Motion,
        step: f32,
        result: MotionResult,
        work: CdStats,
    ) -> MotionResult {
        self.inner.replay_motion(motion, step, result, work)
    }
}

impl<C: CollisionChecker> CollisionChecker for Rechecking<C> {
    fn robot(&self) -> &RobotModel {
        self.inner.robot()
    }

    fn check_pose(&mut self, cfg: &JointConfig) -> bool {
        self.executed += 1;
        self.inner.check_pose(cfg)
    }

    fn stats(&self) -> CdStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

/// Everything one `plan` call returns, as text.
fn outcome_text(out: &PlanOutcome) -> String {
    let scopes: Vec<_> = out.ledger.iter().collect();
    format!(
        "{:?}|{:?}|{:?}|{scopes:?}|{:?}",
        out.path, out.stats, out.failure, out.trace
    )
}

/// Runs `f` and returns its result with the process-wide CD work it
/// recorded.
fn metered<T>(f: impl FnOnce() -> T) -> (T, OpCounter) {
    let before = ops_total();
    let out = f();
    let after = ops_total();
    let work = OpCounter {
        mults: after.mults - before.mults,
        sram_reads: after.sram_reads - before.sram_reads,
        box_tests: after.box_tests - before.box_tests,
        cd_queries: after.cd_queries - before.cd_queries,
        ..OpCounter::default()
    };
    (out, work)
}

/// One planning problem: endpoints, sampler seed and config.
struct Query {
    start: JointConfig,
    goal: JointConfig,
    seed: u64,
    cfg: MpnetConfig,
}

/// What one query cost: its outcome on the replaying checker, the poses
/// that checker executed and the poses billed.
struct Cost {
    outcome: PlanOutcome,
    executed: u64,
    billed: u64,
}

/// Plans `q` on a replaying and on a re-checking wrapper of checkers
/// `make` builds and requires both to return and bill the same.
fn plan_both<C: CollisionChecker>(make: &impl Fn() -> C, q: &Query, what: &str) -> Cost {
    let mut replaying = Replaying {
        inner: make(),
        executed: 0,
    };
    let mut rechecking = Rechecking {
        inner: make(),
        executed: 0,
    };
    let robot = replaying.robot().clone();
    let (fast, fast_ops) = metered(|| {
        let mut sampler = OracleSampler::new(robot.clone(), q.seed);
        plan(&mut replaying, &mut sampler, &q.start, &q.goal, &q.cfg)
    });
    let (slow, slow_ops) = metered(|| {
        let mut sampler = OracleSampler::new(robot.clone(), q.seed);
        plan(&mut rechecking, &mut sampler, &q.start, &q.goal, &q.cfg)
    });
    assert_eq!(outcome_text(&fast), outcome_text(&slow), "{what}: outcome");
    assert_eq!(replaying.stats(), rechecking.stats(), "{what}: CdStats");
    assert_eq!(fast_ops, slow_ops, "{what}: process-wide metrics");
    let billed = replaying.stats().pose_queries;
    assert_eq!(rechecking.executed, billed, "{what}: the default re-checks");
    Cost {
        outcome: fast,
        executed: replaying.executed,
        billed,
    }
}

/// Plans `per_scene` seeded queries on every paper scene and one whose
/// start collides, then the one with the most repairs again under a CD
/// budget that runs out in Phase 2, each through [`plan_both`] on checkers
/// `make` builds for a scene. Requires every exit to have run and some
/// motion to have been replayed.
fn replays_match_rechecks<C: CollisionChecker>(
    robot: &RobotModel,
    per_scene: usize,
    make: impl Fn(&Scene) -> C,
    name: &str,
) {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let scenes = benchmark_scenes();
    let cfg = |seed| MpnetConfig {
        seed,
        ..MpnetConfig::default()
    };
    let mut runs = Vec::new();
    for (si, scene) in scenes.iter().enumerate() {
        let queries = generate_queries(robot, scene, per_scene, 70 + si as u64)
            .expect("paper scenes yield valid queries");
        for (qi, q) in queries.into_iter().enumerate() {
            let seed = (si * 100 + qi) as u64;
            let query = Query {
                start: q.start,
                goal: q.goal,
                seed,
                cfg: cfg(seed),
            };
            runs.push((si, query));
        }
    }
    let mut checker = SoftwareChecker::new(robot.clone(), scenes[0].octree());
    let mut rng = StdRng::seed_from_u64(5);
    let bad = (0..10_000)
        .map(|_| robot.sample_config(&mut rng))
        .find(|p| checker.check_pose(p))
        .expect("a paper scene blocks some sampled pose");
    let collides = Query {
        start: bad,
        goal: runs[0].1.goal.clone(),
        seed: 1,
        cfg: cfg(1),
    };
    runs.push((0, collides));

    let (mut executed, mut billed) = (0, 0);
    let mut exits = Vec::new();
    let mut most_repaired = (0, 0, 0);
    for (i, (si, q)) in runs.iter().enumerate() {
        let what = format!("{} {name} query {i} on scene {si}", robot.name());
        let cost = plan_both(&|| make(&scenes[*si]), q, &what);
        executed += cost.executed;
        billed += cost.billed;
        exits.push(cost.outcome.failure);
        let ledger = &cost.outcome.ledger;
        let before_phase2: u64 = ["endpoints", "phase1_neural"]
            .iter()
            .filter_map(|scope| ledger.scope_ops(scope))
            .map(|ops| ops.cd_queries)
            .sum();
        most_repaired = most_repaired.max((cost.outcome.stats.replans, before_phase2, i));
    }
    // Phase 2 checks the budget before each batch: one query past what
    // the plan spent before Phase 2 runs out at its second batch.
    let (replans, before_phase2, i) = most_repaired;
    assert!(replans > 0, "{name}: no query needed a repair");
    let (si, q) = &runs[i];
    let budgeted = Query {
        start: q.start.clone(),
        goal: q.goal.clone(),
        seed: q.seed,
        cfg: MpnetConfig {
            budget: PlanBudget {
                max_cd_queries: Some(before_phase2 + 1),
                ..PlanBudget::default()
            },
            ..q.cfg
        },
    };
    let what = format!("{} {name} budgeted query {i} on scene {si}", robot.name());
    let cost = plan_both(&|| make(&scenes[*si]), &budgeted, &what);
    executed += cost.executed;
    billed += cost.billed;
    exits.push(cost.outcome.failure);

    for want in [
        None,
        Some(PlanFailure::InvalidStart),
        Some(PlanFailure::BudgetExhausted(BudgetResource::CdQueries)),
    ] {
        assert!(exits.contains(&want), "{name}: no {want:?} run");
    }
    assert!(
        executed < billed,
        "{} {name}: {executed} poses executed for {billed} billed, so nothing was replayed",
        robot.name()
    );
}

#[test]
fn software_checker_replays_repeated_motions_exactly() {
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        let make = |scene: &Scene| SoftwareChecker::new(robot.clone(), scene.octree());
        replays_match_rechecks(&robot, 3, make, "SoftwareChecker");
    }
}

#[test]
fn cecdu_checker_replays_repeated_motions_exactly() {
    let config = SystemConfig::paper_default().accel.cecdu;
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        let make =
            |scene: &Scene| CecduChecker::new(CecduSim::new(robot.clone(), scene.octree(), config));
        replays_match_rechecks(&robot, 1, make, "CecduChecker");
    }
}
