//! A pose or motion a planner already proved is replayed, billed exactly
//! as checking it again bills it.
//!
//! The planners know which poses they check twice. `mpnet::plan` keeps a
//! memo of every pose and motion the plan has checked; `rrt` and
//! `rrt_connect` keep each tree node's recorded work, so an edge grown
//! from a node replays it; `check_path`, which `PlanCertifier::certify`
//! runs, hands each edge's last pose on to the next edge. All of them
//! bill a replay through `CollisionChecker::replay`, which
//! `SoftwareChecker` and `CecduChecker` override to bill the recorded
//! work without checking a pose; the trait's default declines, and the
//! caller checks again. These tests run every planner, and the path
//! check, twice: once on the checker itself (behind a wrapper that
//! forwards `replay`) and once behind a wrapper that keeps the default,
//! and require:
//!
//! - the same outcome: for MPNet the path, stats, failure, ledger scopes
//!   and trace; for RRT and RRT-Connect the path, `nodes` and
//!   `cd_queries`; for the path check the first infeasible edge;
//! - the same `CdStats` and the same process-wide `mp_collision::metrics`
//!   delta;
//! - fewer poses executed than billed on the replaying side, and exactly
//!   as many on the re-checking side, so the comparison exercises
//!   replays.
//!
//! The runs cover Jaco2 and Baxter on the ten paper scenes with seeded
//! queries, a colliding endpoint and budgets that run out. The certifier,
//! which owns its checker, is compared with the re-checking path check,
//! and its own replays are counted by the `cd_query` spans its walks
//! record. The process-wide metrics are shared by every test in this
//! binary, so each test holds `METRICS` while it measures them.

use std::sync::Mutex;

use mpaccel::accel::{CecduChecker, CecduSim, SystemConfig};
use mpaccel::collision::metrics::ops_total;
use mpaccel::collision::{check_path, CdStats, CollisionChecker, SoftwareChecker, CSPACE_STEP};
use mpaccel::octree::{benchmark_scenes, Scene};
use mpaccel::planner::queries::generate_queries;
use mpaccel::planner::{
    plan, rrt, rrt_connect, BudgetResource, MpnetConfig, OracleSampler, PlanBudget, PlanCertifier,
    PlanFailure, PlanOutcome, QualityTier, RrtConfig,
};
use mpaccel::robot::{JointConfig, RobotModel};
use mpaccel::sim::OpCounter;
use mpaccel::telemetry::{EventKind, TelemetrySession};
use rand::rngs::StdRng;
use rand::SeedableRng;

static METRICS: Mutex<()> = Mutex::new(());

/// Forwards every call to `inner`, `replay` included, and counts the
/// poses `inner` is asked.
struct Replaying<C> {
    inner: C,
    executed: u64,
}

/// Forwards every call but `replay` to `inner`, so a replay is declined
/// by the trait's default and checked again, and counts the poses
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

    fn replay(&mut self, work: CdStats) -> bool {
        self.inner.replay(work)
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

/// One planning problem: endpoints and planner seed.
struct Query {
    start: JointConfig,
    goal: JointConfig,
    seed: u64,
}

/// What one run does on a checker.
enum Op<'a> {
    /// `mpnet::plan` with an `OracleSampler` seeded like the planner.
    Mpnet(&'a Query, MpnetConfig),
    /// `rrt`, or `rrt_connect` if `connect`.
    Rrt {
        connect: bool,
        query: &'a Query,
        cfg: RrtConfig,
    },
    /// `check_path` at [`CSPACE_STEP`], what `PlanCertifier::certify`
    /// runs.
    Path(&'a [JointConfig]),
}

/// What one run returned: all of it as text, the path it found, and for
/// MPNet the outcome itself.
struct Ran {
    text: String,
    path: Option<Vec<JointConfig>>,
    plan: Option<PlanOutcome>,
}

/// Runs `op` on `checker`.
fn run<C: CollisionChecker>(checker: &mut C, op: &Op) -> Ran {
    match op {
        Op::Mpnet(q, cfg) => {
            let mut sampler = OracleSampler::new(checker.robot().clone(), q.seed);
            let out = plan(checker, &mut sampler, &q.start, &q.goal, cfg);
            Ran {
                text: outcome_text(&out),
                path: out.path.clone(),
                plan: Some(out),
            }
        }
        Op::Rrt {
            connect,
            query: q,
            cfg,
        } => {
            let planner = if *connect { rrt_connect } else { rrt };
            let out = planner(checker, &q.start, &q.goal, cfg, q.seed);
            Ran {
                text: format!("{out:?}"),
                path: out.path,
                plan: None,
            }
        }
        Op::Path(path) => Ran {
            text: format!("{:?}", check_path(checker, path, CSPACE_STEP)),
            path: None,
            plan: None,
        },
    }
}

/// What one run cost: what it returned on the replaying checker, the
/// poses that checker executed and the poses billed.
struct Cost {
    ran: Ran,
    executed: u64,
    billed: u64,
}

/// Runs `op` on a replaying and on a re-checking wrapper of checkers
/// `make` builds and requires both to return and bill the same.
fn run_both<C: CollisionChecker>(make: &impl Fn() -> C, op: &Op, what: &str) -> Cost {
    let mut replaying = Replaying {
        inner: make(),
        executed: 0,
    };
    let mut rechecking = Rechecking {
        inner: make(),
        executed: 0,
    };
    let (ran, fast_ops) = metered(|| run(&mut replaying, op));
    let (slow, slow_ops) = metered(|| run(&mut rechecking, op));
    assert_eq!(ran.text, slow.text, "{what}: outcome");
    assert_eq!(replaying.stats(), rechecking.stats(), "{what}: CdStats");
    assert_eq!(fast_ops, slow_ops, "{what}: process-wide metrics");
    let billed = replaying.stats().pose_queries;
    assert_eq!(rechecking.executed, billed, "{what}: the default re-checks");
    Cost {
        ran,
        executed: replaying.executed,
        billed,
    }
}

/// Poses executed and billed over many runs.
#[derive(Default)]
struct Tally {
    executed: u64,
    billed: u64,
}

impl Tally {
    fn add(&mut self, cost: &Cost) {
        self.executed += cost.executed;
        self.billed += cost.billed;
    }

    /// Requires some pose to have been replayed.
    fn assert_replayed(&self, what: &str) {
        assert!(
            self.executed < self.billed,
            "{what}: {} poses executed for {} billed, so nothing was replayed",
            self.executed,
            self.billed
        );
    }
}

/// `per_scene` seeded queries on every paper scene, as `(scene, query)`,
/// then one on scene 0 whose start collides.
fn queries(robot: &RobotModel, scenes: &[Scene], per_scene: usize) -> Vec<(usize, Query)> {
    let mut runs = Vec::new();
    for (si, scene) in scenes.iter().enumerate() {
        let queries = generate_queries(robot, scene, per_scene, 70 + si as u64)
            .expect("paper scenes yield valid queries");
        for (qi, q) in queries.into_iter().enumerate() {
            let query = Query {
                start: q.start,
                goal: q.goal,
                seed: (si * 100 + qi) as u64,
            };
            runs.push((si, query));
        }
    }
    let collides = Query {
        start: colliding_pose(robot, &scenes[0]),
        goal: runs[0].1.goal.clone(),
        seed: 1,
    };
    runs.push((0, collides));
    runs
}

/// A sampled pose that collides in `scene`.
fn colliding_pose(robot: &RobotModel, scene: &Scene) -> JointConfig {
    let mut checker = SoftwareChecker::new(robot.clone(), scene.octree());
    let mut rng = StdRng::seed_from_u64(5);
    (0..10_000)
        .map(|_| robot.sample_config(&mut rng))
        .find(|p| checker.check_pose(p))
        .expect("a paper scene blocks some sampled pose")
}

fn mpnet_config(seed: u64) -> MpnetConfig {
    MpnetConfig {
        seed,
        ..MpnetConfig::default()
    }
}

/// Plans every query with MPNet through [`run_both`] on checkers `make`
/// builds for a scene, then the one with the most repairs again under a
/// CD budget that runs out in Phase 2. Requires every exit to have run
/// and some pose to have been replayed.
fn mpnet_replays_match_rechecks<C: CollisionChecker>(
    robot: &RobotModel,
    per_scene: usize,
    make: impl Fn(&Scene) -> C,
    name: &str,
) {
    let scenes = benchmark_scenes();
    let runs = queries(robot, &scenes, per_scene);
    let mut tally = Tally::default();
    let mut exits = Vec::new();
    let mut most_repaired = (0, 0, 0);
    for (i, (si, q)) in runs.iter().enumerate() {
        let what = format!("{} {name} MPNet query {i} on scene {si}", robot.name());
        let op = Op::Mpnet(q, mpnet_config(q.seed));
        let cost = run_both(&|| make(&scenes[*si]), &op, &what);
        tally.add(&cost);
        let outcome = cost.ran.plan.expect("MPNet returns its outcome");
        exits.push(outcome.failure);
        let before_phase2: u64 = ["endpoints", "phase1_neural"]
            .iter()
            .filter_map(|scope| outcome.ledger.scope_ops(scope))
            .map(|ops| ops.cd_queries)
            .sum();
        most_repaired = most_repaired.max((outcome.stats.replans, before_phase2, i));
    }
    // Phase 2 checks the budget before each batch: one query past what
    // the plan spent before Phase 2 runs out at its second batch.
    let (replans, before_phase2, i) = most_repaired;
    assert!(replans > 0, "{name}: no query needed a repair");
    let (si, q) = &runs[i];
    let budgeted = MpnetConfig {
        budget: PlanBudget {
            max_cd_queries: Some(before_phase2 + 1),
            ..PlanBudget::default()
        },
        ..mpnet_config(q.seed)
    };
    let what = format!(
        "{} {name} budgeted MPNet query {i} on scene {si}",
        robot.name()
    );
    let cost = run_both(&|| make(&scenes[*si]), &Op::Mpnet(q, budgeted), &what);
    tally.add(&cost);
    exits.push(cost.ran.plan.expect("MPNet returns its outcome").failure);

    for want in [
        None,
        Some(PlanFailure::InvalidStart),
        Some(PlanFailure::BudgetExhausted(BudgetResource::CdQueries)),
    ] {
        assert!(exits.contains(&want), "{name}: no {want:?} run");
    }
    tally.assert_replayed(&format!("{} {name} MPNet", robot.name()));
}

/// Runs `rrt` and `rrt_connect` through [`run_both`] on checkers `make`
/// builds for a scene: every query under the degradation ladder's
/// budgeted fallback config, then the first again under a budget too
/// small to solve it. Requires each planner to have solved a query and
/// rejected an endpoint, and to have replayed some pose.
fn rrt_replays_match_rechecks<C: CollisionChecker>(
    robot: &RobotModel,
    per_scene: usize,
    make: impl Fn(&Scene) -> C,
    name: &str,
) {
    let scenes = benchmark_scenes();
    let runs = queries(robot, &scenes, per_scene);
    let fallback = QualityTier::Fallback.rrt_config();
    for connect in [false, true] {
        let planner = if connect { "rrt_connect" } else { "rrt" };
        let mut tally = Tally::default();
        let (mut solved, mut rejected) = (false, false);
        for (i, (si, query)) in runs.iter().enumerate() {
            let what = format!("{} {name} {planner} query {i} on scene {si}", robot.name());
            let op = Op::Rrt {
                connect,
                query,
                cfg: fallback,
            };
            let cost = run_both(&|| make(&scenes[*si]), &op, &what);
            tally.add(&cost);
            solved |= cost.ran.path.is_some();
            rejected |= cost.ran.text.contains("nodes: 0,");
        }
        let what = format!("{} {name} {planner}", robot.name());
        assert!(solved, "{what}: no query solved");
        assert!(rejected, "{what}: no endpoint rejected");

        let (si, query) = &runs[0];
        let cap = 40;
        let op = Op::Rrt {
            connect,
            query,
            cfg: RrtConfig {
                max_cd_queries: Some(cap),
                ..fallback
            },
        };
        let cost = run_both(&|| make(&scenes[*si]), &op, &format!("{what}, budgeted"));
        tally.add(&cost);
        assert!(
            cost.ran.path.is_none() && cost.billed >= cap,
            "{what}: the budget of {cap} did not run out"
        );
        tally.assert_replayed(&what);
    }
}

/// The paths the path-check cases check, as `(scene, path)`: each path
/// MPNet finds for a query, the same path with a colliding pose appended
/// (its last edge collides at its last pose), and every query's straight
/// start-to-goal edge.
fn paths_to_check(
    robot: &RobotModel,
    scenes: &[Scene],
    per_scene: usize,
) -> Vec<(usize, Vec<JointConfig>)> {
    let mut paths = Vec::new();
    for (si, q) in queries(robot, scenes, per_scene) {
        let mut checker = SoftwareChecker::new(robot.clone(), scenes[si].octree());
        if let Some(path) = run(&mut checker, &Op::Mpnet(&q, mpnet_config(q.seed))).path {
            let mut blocked = path.clone();
            blocked.push(colliding_pose(robot, &scenes[si]));
            paths.push((si, path));
            paths.push((si, blocked));
        }
        paths.push((si, vec![q.start, q.goal]));
    }
    paths
}

/// Checks every path of [`paths_to_check`] through [`run_both`] on
/// checkers `make` builds for a scene. Requires clean and blocked paths
/// and some replayed pose.
fn path_replays_match_rechecks<C: CollisionChecker>(
    robot: &RobotModel,
    per_scene: usize,
    make: impl Fn(&Scene) -> C,
    name: &str,
) {
    let scenes = benchmark_scenes();
    let mut tally = Tally::default();
    let (mut clean, mut blocked) = (false, false);
    for (i, (si, path)) in paths_to_check(robot, &scenes, per_scene).iter().enumerate() {
        let what = format!("{} {name} path {i} on scene {si}", robot.name());
        let cost = run_both(&|| make(&scenes[*si]), &Op::Path(path), &what);
        tally.add(&cost);
        clean |= cost.ran.text == "None";
        blocked |= cost.ran.text != "None";
    }
    assert!(clean && blocked, "{name}: paths all clean or all blocked");
    tally.assert_replayed(&format!("{} {name} check_path", robot.name()));
}

fn software(robot: &RobotModel) -> impl Fn(&Scene) -> SoftwareChecker + '_ {
    |scene| SoftwareChecker::new(robot.clone(), scene.octree())
}

fn cecdu(robot: &RobotModel) -> impl Fn(&Scene) -> CecduChecker + '_ {
    let config = SystemConfig::paper_default().accel.cecdu;
    move |scene| CecduChecker::new(CecduSim::new(robot.clone(), scene.octree(), config))
}

#[test]
fn software_checker_replays_repeated_motions_exactly() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        mpnet_replays_match_rechecks(&robot, 3, software(&robot), "SoftwareChecker");
    }
}

#[test]
fn cecdu_checker_replays_repeated_motions_exactly() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        mpnet_replays_match_rechecks(&robot, 1, cecdu(&robot), "CecduChecker");
    }
}

#[test]
fn software_checker_replays_rrt_tree_nodes_exactly() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        rrt_replays_match_rechecks(&robot, 2, software(&robot), "SoftwareChecker");
    }
}

#[test]
fn cecdu_checker_replays_rrt_tree_nodes_exactly() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        rrt_replays_match_rechecks(&robot, 1, cecdu(&robot), "CecduChecker");
    }
}

#[test]
fn software_checker_replays_path_waypoints_exactly() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        path_replays_match_rechecks(&robot, 2, software(&robot), "SoftwareChecker");
    }
}

#[test]
fn cecdu_checker_replays_path_waypoints_exactly() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        path_replays_match_rechecks(&robot, 1, cecdu(&robot), "CecduChecker");
    }
}

/// `PlanCertifier::certify` owns its `SoftwareChecker`, so it is compared
/// with the re-checking path check, and its replays are counted by the
/// `cd_query` spans its walks record.
#[test]
fn certifier_replays_path_waypoints_exactly() {
    let _metrics = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let scenes = benchmark_scenes();
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        let (mut walked, mut billed) = (0, 0);
        let (mut clean, mut blocked) = (false, false);
        for (i, (si, path)) in paths_to_check(&robot, &scenes, 2).iter().enumerate() {
            let what = format!("{} certify path {i} on scene {si}", robot.name());
            let scene = &scenes[*si];
            let depth = scene.config().octree_depth;
            let mut certifier = PlanCertifier::new(robot.clone(), scene.obstacles(), depth);
            let session = TelemetrySession::new();
            let (got, got_ops) = {
                let _stream = session.install("certify", 0);
                metered(|| certifier.certify(path))
            };
            let mut rechecking = Rechecking {
                inner: SoftwareChecker::new(robot.clone(), scene.octree()),
                executed: 0,
            };
            let (want, want_ops) = metered(|| check_path(&mut rechecking, path, CSPACE_STEP));
            assert_eq!(got.first_bad_edge, want, "{what}: verdict");
            assert_eq!(got.cd_queries, rechecking.executed, "{what}: CD queries");
            assert_eq!(got_ops, want_ops, "{what}: process-wide metrics");
            walked += session.streams()[0]
                .events
                .iter()
                .filter(|e| {
                    e.kind == EventKind::End && e.cat == "collision" && e.name == "cd_query"
                })
                .count() as u64;
            billed += got.cd_queries;
            clean |= got.clean;
            blocked |= !got.clean;
        }
        assert!(
            clean && blocked,
            "{}: paths all clean or all blocked",
            robot.name()
        );
        assert!(
            walked < billed,
            "{}: the certifier walked {walked} poses for {billed} billed",
            robot.name()
        );
    }
}
