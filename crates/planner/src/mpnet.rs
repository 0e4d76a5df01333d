//! An MPNet-style learning-based motion planner (§2.1, \[43\]).
//!
//! The planner follows MPNet's structure: a neural sampler proposes
//! intermediate poses bidirectionally between start and goal (neural
//! planning), the resulting coarse path is *feasibility checked* in
//! batches, infeasible segments are *replanned* with stochastic resampling,
//! and the final path is smoothed by *greedy shortcutting* ("path
//! optimization", Fig 3) which uses the scheduler's connectivity-test mode.
//!
//! Every neural inference, controller step and collision-detection batch is
//! recorded into a [`PlannerTrace`], which `mpaccel-core` replays against
//! the hardware models — mirroring the trace-driven methodology of the
//! original artifact.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::BuildHasherDefault;

use mp_collision::pose_cache::FnvHasher;
use mp_collision::{
    attributed, check_motion, check_motion_replaying, CdStats, CollisionChecker, EndpointWork,
    MotionResult, PoseKey, CSPACE_STEP,
};
use mp_robot::{JointConfig, Motion, MotionDescriptor};
use mp_sim::{EnergyLedger, OpCounter};
use mpaccel_core::sas::FunctionMode;
use mpaccel_core::trace::{PlannerTrace, TraceEvent};

use crate::rrt::dedup;
use crate::sampler::NeuralSampler;

/// Modeled microseconds per collision-detection pose query: ~100 CECDU
/// cycles (Table 1 band) at the 2.24 ns multi-cycle clock (§7.3).
pub const CD_QUERY_MODELED_US: f64 = 0.224;

/// Modeled microseconds per neural inference on the DNN accelerator
/// (Fig 11): a small MLP at a few GMAC/s.
pub const NN_CALL_MODELED_US: f64 = 2.0;

/// Extra detour noise during replanning (radians). MPNet gets this
/// exploration from inference-time dropout; the noise escalates with
/// consecutive failed repairs.
pub const REPLAN_NOISE: f32 = 0.6;

/// Consecutive fully-stalled expansion steps (every sampler proposal
/// colliding, both ends, despite escalating noise) before the planner
/// gives up with [`PlanFailure::Stalled`].
pub const MAX_STALL_STREAK: u32 = 12;

/// Resource budget for one planning attempt (realtime deadline
/// enforcement). `None` fields are unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanBudget {
    /// Cap on collision-detection pose queries.
    pub max_cd_queries: Option<u64>,
    /// Cap on modeled wall time (µs), combining CD and NN work through
    /// [`CD_QUERY_MODELED_US`] and [`NN_CALL_MODELED_US`].
    pub max_modeled_us: Option<f64>,
}

impl PlanBudget {
    /// No limits (the pre-budget behaviour).
    pub fn unlimited() -> PlanBudget {
        PlanBudget::default()
    }

    /// A pure modeled-deadline budget.
    pub fn deadline_us(us: f64) -> PlanBudget {
        PlanBudget {
            max_modeled_us: Some(us),
            ..PlanBudget::default()
        }
    }

    /// Modeled time (µs) for a given amount of work.
    pub fn modeled_us(cd_queries: u64, nn_calls: u64) -> f64 {
        cd_queries as f64 * CD_QUERY_MODELED_US + nn_calls as f64 * NN_CALL_MODELED_US
    }

    /// The resource this work load has exhausted, if any.
    pub fn exceeded(&self, cd_queries: u64, nn_calls: u64) -> Option<BudgetResource> {
        if self.max_cd_queries.is_some_and(|cap| cd_queries >= cap) {
            return Some(BudgetResource::CdQueries);
        }
        if self
            .max_modeled_us
            .is_some_and(|cap| PlanBudget::modeled_us(cd_queries, nn_calls) >= cap)
        {
            return Some(BudgetResource::ModeledTime);
        }
        None
    }
}

/// Which budgeted resource ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetResource {
    /// [`PlanBudget::max_cd_queries`].
    CdQueries,
    /// [`PlanBudget::max_modeled_us`].
    ModeledTime,
}

/// Why a planning attempt failed (structured, for graceful degradation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanFailure {
    /// The start configuration collides.
    InvalidStart,
    /// The goal configuration collides.
    InvalidGoal,
    /// The sampler kept proposing colliding poses from both ends despite
    /// escalating exploration noise (Phase-1 stall).
    Stalled,
    /// The bidirectional expansion budget ran out before the trees met.
    NotConnected,
    /// Replanning attempts or the waypoint cap ran out while repairing an
    /// infeasible coarse path.
    ReplanExhausted,
    /// A [`PlanBudget`] resource ran out.
    BudgetExhausted(BudgetResource),
}

impl core::fmt::Display for PlanFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlanFailure::InvalidStart => write!(f, "start configuration collides"),
            PlanFailure::InvalidGoal => write!(f, "goal configuration collides"),
            PlanFailure::Stalled => write!(f, "sampler stalled (all proposals colliding)"),
            PlanFailure::NotConnected => write!(f, "bidirectional expansion never connected"),
            PlanFailure::ReplanExhausted => write!(f, "replanning budget exhausted"),
            PlanFailure::BudgetExhausted(r) => write!(f, "plan budget exhausted ({r:?})"),
        }
    }
}

/// Planner parameters. Motions are checked at [`CSPACE_STEP`]; the
/// replanning noise and the stall limit are [`REPLAN_NOISE`] and
/// [`MAX_STALL_STREAK`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpnetConfig {
    /// Maximum bidirectional expansion steps in neural planning.
    pub max_expansion_steps: usize,
    /// Maximum replanning insertions before giving up.
    pub replan_attempts: usize,
    /// Whether to run the greedy shortcutting phase.
    pub shortcut: bool,
    /// Hard cap on path waypoints (guards replanning growth).
    pub max_waypoints: usize,
    /// Seed for the replanning noise.
    pub seed: u64,
    /// Resource budget (deadline enforcement); unlimited by default.
    pub budget: PlanBudget,
}

impl Default for MpnetConfig {
    fn default() -> MpnetConfig {
        MpnetConfig {
            max_expansion_steps: 40,
            replan_attempts: 20,
            shortcut: true,
            max_waypoints: 64,
            seed: 0,
            budget: PlanBudget::unlimited(),
        }
    }
}

/// Planner statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Neural-network inferences performed.
    pub nn_calls: u64,
    /// Collision-detection pose queries executed while planning.
    pub cd_queries: u64,
    /// Waypoints in the coarse path before optimization.
    pub coarse_waypoints: usize,
    /// Replanning insertions performed.
    pub replans: u64,
    /// Waypoints removed by shortcutting.
    pub shortcut_removed: usize,
}

/// The planner's result: a path (if found), the execution trace, and stats.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    /// The collision-free path, start to goal, if planning succeeded.
    pub path: Option<Vec<JointConfig>>,
    /// The recorded execution trace (replayable on MPAccel).
    pub trace: PlannerTrace,
    /// Work statistics.
    pub stats: PlanStats,
    /// Why planning failed (`None` on success).
    pub failure: Option<PlanFailure>,
    /// Per-phase energy attribution: CD work (priced from the checker's
    /// counter deltas) plus the NN MACs and upload bytes each phase spent.
    /// The phases partition the attempt, so `ledger.total_energy_pj()` is
    /// the whole attempt's dynamic energy (see `mp_sim::ledger`).
    pub ledger: EnergyLedger,
}

impl PlanOutcome {
    /// Whether a path was found.
    pub fn solved(&self) -> bool {
        self.path.is_some()
    }

    /// Total dynamic energy the attempt spent, in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.ledger.total_energy_pj()
    }

    /// C-space length of the found path.
    pub fn path_length(&self) -> Option<f32> {
        self.path
            .as_ref()
            .map(|p| p.windows(2).map(|w| w[0].distance(&w[1])).sum())
    }
}

/// The open ledger phase of a planning attempt: its scope, the checker's
/// counters when it opened and the NN MACs it has spent. Each phase opens
/// where the last one closed, so the scopes partition the attempt's CD
/// work exactly.
struct Phase {
    scope: &'static str,
    mark: CdStats,
    macs: u64,
}

impl Phase {
    fn open(scope: &'static str, checker: &impl CollisionChecker) -> Phase {
        Phase {
            scope,
            mark: checker.stats(),
            macs: 0,
        }
    }

    /// Bills the phase's CD work (the checker's counter delta) and MACs.
    fn bill(&self, checker: &impl CollisionChecker, ledger: &mut EnergyLedger) {
        let mut ops = checker.stats().delta_since(&self.mark).to_ops();
        ops.mlp_macs = self.macs;
        ledger.bill(self.scope, ops);
    }

    /// Bills the phase and opens the next one.
    fn advance(
        &mut self,
        scope: &'static str,
        checker: &impl CollisionChecker,
        ledger: &mut EnergyLedger,
    ) {
        self.bill(checker, ledger);
        *self = Phase::open(scope, checker);
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// Every pose and motion one plan has checked, keyed on exact bits: the
/// [`CdStats`] each free pose billed, and the result and [`CdStats`] of
/// each motion.
///
/// MPNet only ever joins poses it already checked (start, goal and the
/// accepted candidates), and it re-validates the whole path after every
/// repair, so most motions a plan checks it has checked before. A repeat
/// is billed through [`CollisionChecker::replay`]; a new motion replays
/// its endpoints' recorded work ([`check_motion_replaying`]) and walks
/// only the poses between. Where the checker declines a replay, the
/// motion or pose is checked again. Free and colliding motions are both
/// kept. A pose [`PoseKey`] cannot hold is never replayed.
#[derive(Default)]
struct MotionMemo {
    poses: HashMap<PoseKey, CdStats, FnvBuild>,
    motions: HashMap<(PoseKey, PoseKey), (MotionResult, CdStats), FnvBuild>,
}

impl MotionMemo {
    /// Checks `pose` and keeps its work if it is free.
    fn check_pose(&mut self, checker: &mut impl CollisionChecker, pose: &JointConfig) -> bool {
        let (colliding, work) = attributed(checker, |c| c.check_pose(pose));
        if let (false, Some(key)) = (colliding, PoseKey::new(pose)) {
            self.poses.insert(key, work);
        }
        colliding
    }

    /// `motion`'s check at [`CSPACE_STEP`], replayed if this plan has
    /// checked it before.
    fn check(&mut self, checker: &mut impl CollisionChecker, motion: &Motion) -> MotionResult {
        let (Some(from), Some(to)) = (PoseKey::new(&motion.from), PoseKey::new(&motion.to)) else {
            return check_motion(checker, motion, CSPACE_STEP);
        };
        match self.motions.entry((from, to)) {
            Entry::Occupied(e) => {
                let (result, work) = *e.get();
                if checker.replay(work) {
                    result
                } else {
                    check_motion(checker, motion, CSPACE_STEP)
                }
            }
            Entry::Vacant(e) => {
                let known = EndpointWork {
                    from: self.poses.get(&from).copied(),
                    to: self.poses.get(&to).copied(),
                };
                let ((result, _), work) = attributed(checker, |c| {
                    check_motion_replaying(c, motion, CSPACE_STEP, known)
                });
                e.insert((result, work));
                result
            }
        }
    }
}

/// Plans a path from `start` to `goal`.
///
/// Each motion the plan checks (Phase 1's connection attempts, Phase 2's
/// feasibility batches and the shortcutting) goes through the plan's memo
/// of checked poses and motions: a motion checked before is replayed
/// whole, and a new one replays the endpoints the plan already proved
/// free, both through [`CollisionChecker::replay`]. Every `CdBatch` in
/// the trace still lists every motion.
///
/// # Panics
///
/// Panics if start/goal DOF mismatch the checker's robot.
///
/// # Examples
///
/// ```
/// use mp_collision::SoftwareChecker;
/// use mp_octree::Octree;
/// use mp_planner::mpnet::{plan, MpnetConfig};
/// use mp_planner::sampler::OracleSampler;
/// use mp_robot::RobotModel;
///
/// let robot = RobotModel::jaco2();
/// let mut checker = SoftwareChecker::new(robot.clone(), Octree::build(&[], 3));
/// let mut sampler = OracleSampler::new(robot.clone(), 1);
/// let mut goal = robot.home();
/// goal.as_mut_slice()[0] += 1.0;
/// let out = plan(&mut checker, &mut sampler, &robot.home(), &goal, &MpnetConfig::default());
/// assert!(out.solved());
/// ```
pub fn plan(
    checker: &mut impl CollisionChecker,
    sampler: &mut impl NeuralSampler,
    start: &JointConfig,
    goal: &JointConfig,
    cfg: &MpnetConfig,
) -> PlanOutcome {
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let mut trace = PlannerTrace::new();
    let mut stats = PlanStats::default();
    let mut memo = MotionMemo::default();
    let cd_before = checker.stats().pose_queries;

    // Per-phase energy ledger: CD work is billed by differencing the
    // checker's counters at phase boundaries; NN MACs and the upload
    // bytes are billed to the phase that spent them.
    let mut ledger = EnergyLedger::new();

    // Environment + query upload (Fig 11, step 1).
    let upload_bytes = 768 + (4 * start.dof() as u64) * 2;
    trace.push(TraceEvent::BusTransfer {
        bytes: upload_bytes,
    });
    ledger.bill(
        "upload",
        OpCounter {
            dram_bytes: upload_bytes,
            ..OpCounter::default()
        },
    );

    // Every failure breaks out of this block with the phase it failed in
    // still open; the one exit below bills it and builds the outcome.
    let mut phase = Phase::open("endpoints", checker);
    let result: Result<Vec<JointConfig>, PlanFailure> = 'attempt: {
        // Endpoint validity.
        if memo.check_pose(checker, start) {
            break 'attempt Err(PlanFailure::InvalidStart);
        }
        if memo.check_pose(checker, goal) {
            break 'attempt Err(PlanFailure::InvalidGoal);
        }

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED);
        let robot = checker.robot().clone();

        // --- Phase 1: bidirectional neural planning. ---
        let phase1 = mp_telemetry::span("planner", "phase1_neural");
        phase.advance("phase1_neural", checker, &mut ledger);
        let mut path_a = vec![start.clone()];
        let mut path_b = vec![goal.clone()];
        let mut connected = false;
        let mut stall_streak = 0u32;
        let mut phase1_failure = None;
        for _ in 0..cfg.max_expansion_steps {
            if let Some(r) = cfg
                .budget
                .exceeded(checker.stats().pose_queries - cd_before, stats.nn_calls)
            {
                phase1_failure = Some(PlanFailure::BudgetExhausted(r));
                break;
            }
            // Invariant: both paths are seeded with one endpoint above and
            // only ever grow, so `last()` always exists.
            let end_a = path_a.last().expect("path_a seeded with start").clone();
            let end_b = path_b.last().expect("path_b seeded with goal").clone();
            // Direct connection attempt (one-motion feasibility batch).
            let m = Motion::new(end_a.clone(), end_b.clone());
            if run_feasibility_batch(checker, &mut memo, &mut trace, &[m]).is_none() {
                connected = true;
                break;
            }
            // Propose the next pose from the active end, rejecting proposals
            // that land inside obstacles (a colliding waypoint can never be
            // repaired by replanning around it). After a fully-stalled step,
            // widen the proposals with escalating exploration noise.
            let mut next = None;
            for _ in 0..5 {
                trace.push(TraceEvent::NnInference {
                    macs: sampler.macs(),
                });
                stats.nn_calls += 1;
                phase.macs += sampler.macs();
                let proposal = sampler.next_pose(&end_a, &end_b);
                let candidate = if stall_streak > 0 {
                    let amp = REPLAN_NOISE * stall_streak as f32;
                    robot.clamp_config(&JointConfig::new(
                        proposal
                            .as_slice()
                            .iter()
                            .map(|&v| v + rng.gen_range(-amp..=amp))
                            .collect(),
                    ))
                } else {
                    proposal
                };
                if !memo.check_pose(checker, &candidate) {
                    next = Some(candidate);
                    break;
                }
            }
            trace.push(TraceEvent::Controller { instructions: 300 });
            if let Some(next) = next {
                path_a.push(next);
                stall_streak = 0;
            } else {
                stall_streak += 1;
                if stall_streak >= MAX_STALL_STREAK {
                    phase1_failure = Some(PlanFailure::Stalled);
                    break;
                }
            }
            std::mem::swap(&mut path_a, &mut path_b);
        }
        drop(phase1);
        if !connected {
            break 'attempt Err(phase1_failure.unwrap_or(PlanFailure::NotConnected));
        }
        path_b.reverse();
        let mut path: Vec<JointConfig> = path_a;
        path.extend(path_b);
        // Re-orient: the swapping may have left `start` at the back.
        if path.first() != Some(start) {
            path.reverse();
        }
        dedup(&mut path);
        stats.coarse_waypoints = path.len();

        // --- Phase 2: feasibility checking + neural replanning. ---
        let phase2 = mp_telemetry::span("planner", "phase2_replan");
        phase.advance("phase2_replan", checker, &mut ledger);
        let mut attempts = cfg.replan_attempts;
        let mut consecutive_failures = 0u32;
        let mut last_bad = usize::MAX;
        loop {
            if let Some(r) = cfg
                .budget
                .exceeded(checker.stats().pose_queries - cd_before, stats.nn_calls)
            {
                break 'attempt Err(PlanFailure::BudgetExhausted(r));
            }
            let motions: Vec<Motion> = path
                .windows(2)
                .map(|w| Motion::new(w[0].clone(), w[1].clone()))
                .collect();
            let Some(bad) = run_feasibility_batch(checker, &mut memo, &mut trace, &motions) else {
                break; // whole path feasible
            };
            if attempts == 0 || path.len() >= cfg.max_waypoints {
                break 'attempt Err(PlanFailure::ReplanExhausted);
            }
            attempts -= 1;
            stats.replans += 1;
            // Neural replanning: propose a detour waypoint between the
            // endpoints of the infeasible segment. The exploration noise
            // escalates while repairs keep failing on the same segment
            // (MPNet's stochastic re-sampling role).
            consecutive_failures = if bad == last_bad {
                consecutive_failures + 1
            } else {
                0
            };
            last_bad = bad;
            trace.push(TraceEvent::NnInference {
                macs: sampler.macs(),
            });
            stats.nn_calls += 1;
            phase.macs += sampler.macs();
            let amp = REPLAN_NOISE * (1.0 + consecutive_failures as f32 * 0.5);
            let mut detour = None;
            for _ in 0..5 {
                let proposal = sampler.next_pose(&path[bad], &path[bad + 1]);
                let candidate = robot.clamp_config(&JointConfig::new(
                    proposal
                        .as_slice()
                        .iter()
                        .map(|&v| v + rng.gen_range(-amp..=amp))
                        .collect(),
                ));
                if !memo.check_pose(checker, &candidate) {
                    detour = Some(candidate);
                    break;
                }
            }
            let Some(detour) = detour else { continue };
            trace.push(TraceEvent::Controller { instructions: 500 });
            // A repair replaces a previously inserted detour for this
            // segment rather than growing the path unboundedly.
            if consecutive_failures > 0 && bad + 1 < path.len() - 1 {
                path[bad + 1] = detour;
            } else {
                path.insert(bad + 1, detour);
            }
            dedup(&mut path);
        }
        drop(phase2);

        // --- Phase 3: path optimization (greedy shortcutting, §2.1). ---
        if cfg.shortcut {
            let _phase3 = mp_telemetry::span("planner", "phase3_shortcut");
            phase.advance("phase3_shortcut", checker, &mut ledger);
            let before = path.len();
            greedy_shortcut(checker, &mut memo, &mut trace, &mut path);
            stats.shortcut_removed = before - path.len();
        }
        Ok(path)
    };

    phase.bill(checker, &mut ledger);
    stats.cd_queries = checker.stats().pose_queries - cd_before;
    trace.solved = result.is_ok();
    let (path, failure) = match result {
        Ok(path) => (Some(path), None),
        Err(failure) => (None, Some(failure)),
    };
    PlanOutcome {
        path,
        trace,
        stats,
        failure,
        ledger,
    }
}

/// Runs a feasibility batch: records the batch into the trace and evaluates
/// it with sequential early-exit semantics through the plan's `memo`,
/// returning the index of the first infeasible motion (or `None` if all
/// are free).
fn run_feasibility_batch(
    checker: &mut impl CollisionChecker,
    memo: &mut MotionMemo,
    trace: &mut PlannerTrace,
    motions: &[Motion],
) -> Option<usize> {
    let descriptors: Vec<MotionDescriptor> =
        motions.iter().map(|m| m.descriptor(CSPACE_STEP)).collect();
    trace.push(TraceEvent::CdBatch {
        motions: descriptors,
        mode: FunctionMode::Feasibility,
    });
    for (i, m) in motions.iter().enumerate() {
        if memo.check(checker, m).colliding {
            return Some(i);
        }
    }
    None
}

/// Greedy shortcutting using the connectivity-test mode: for each anchor,
/// the pool of "skip ahead to j" motions is scheduled and the farthest
/// collision-free one wins (§2.1, Fig 3 "path optimization").
fn greedy_shortcut(
    checker: &mut impl CollisionChecker,
    memo: &mut MotionMemo,
    trace: &mut PlannerTrace,
    path: &mut Vec<JointConfig>,
) {
    let mut i = 0;
    while i + 2 < path.len() {
        // Candidate motions i -> j, farthest first.
        let candidates: Vec<usize> = ((i + 2)..path.len()).rev().collect();
        let motions: Vec<MotionDescriptor> = candidates
            .iter()
            .map(|&j| Motion::new(path[i].clone(), path[j].clone()).descriptor(CSPACE_STEP))
            .collect();
        trace.push(TraceEvent::CdBatch {
            motions,
            mode: FunctionMode::Connectivity,
        });
        let mut found = None;
        for &j in &candidates {
            let m = Motion::new(path[i].clone(), path[j].clone());
            if !memo.check(checker, &m).colliding {
                found = Some(j);
                break;
            }
        }
        if let Some(j) = found {
            // Poses between i and j are redundant.
            path.drain(i + 1..j);
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::OracleSampler;
    use mp_collision::{check_path, SoftwareChecker};
    use mp_geometry::{Aabb, Vec3};
    use mp_octree::{Octree, Scene, SceneConfig};
    use mp_robot::RobotModel;

    fn far_goal(robot: &RobotModel) -> JointConfig {
        let mut g = robot.home();
        g.as_mut_slice()[0] += 1.6;
        g.as_mut_slice()[1] += 0.4;
        robot.clamp_config(&g)
    }

    #[test]
    fn plans_in_free_space() {
        let robot = RobotModel::jaco2();
        let mut checker = SoftwareChecker::new(robot.clone(), Octree::build(&[], 3));
        let mut sampler = OracleSampler::new(robot.clone(), 2);
        let out = plan(
            &mut checker,
            &mut sampler,
            &robot.home(),
            &far_goal(&robot),
            &MpnetConfig::default(),
        );
        assert!(out.solved());
        let path = out.path.unwrap();
        assert_eq!(path.first().unwrap(), &robot.home());
        assert_eq!(path.last().unwrap(), &far_goal(&robot));
        assert!(out.trace.solved);
        assert!(out.trace.cd_batches() >= 1);
    }

    #[test]
    fn ledger_partitions_the_attempts_cd_work_exactly() {
        let robot = RobotModel::jaco2();
        let scene = Scene::random(SceneConfig::paper(), 2);
        let mut checker = SoftwareChecker::new(robot.clone(), scene.octree());
        let mut sampler = OracleSampler::new(robot.clone(), 4)
            .with_noise(0.3)
            .with_step(0.5);
        let goal = far_goal(&robot);
        let (out, whole) = mp_collision::attributed(&mut checker, |c| {
            plan(
                c,
                &mut sampler,
                &robot.home(),
                &goal,
                &MpnetConfig::default(),
            )
        });
        let mut total = out.ledger.total_ops();
        // The ledger additionally bills NN MACs and the query upload,
        // which the checker never sees; the CD classes must partition the
        // checker's whole-run delta exactly.
        assert_eq!(total.dram_bytes, 768 + (4 * robot.dof() as u64) * 2);
        assert!(out.stats.nn_calls == 0 || total.mlp_macs > 0);
        total.mlp_macs = 0;
        total.dram_bytes = 0;
        assert_eq!(total, whole.to_ops());
        assert!(out.energy_pj() > 0.0);
    }

    #[test]
    fn found_paths_are_actually_feasible() {
        let robot = RobotModel::jaco2();
        let mut solved = 0;
        let mut total = 0;
        for seed in 0..4 {
            let scene = Scene::random(SceneConfig::paper(), seed);
            for (qi, q) in crate::queries::generate_queries(&robot, &scene, 3, seed + 50)
                .expect("paper scenes yield valid queries")
                .iter()
                .enumerate()
            {
                total += 1;
                let mut checker = SoftwareChecker::new(robot.clone(), scene.octree());
                let mut sampler = OracleSampler::new(robot.clone(), seed + 10 + qi as u64);
                let out = plan(
                    &mut checker,
                    &mut sampler,
                    &q.start,
                    &q.goal,
                    &MpnetConfig::default(),
                );
                if let Some(path) = &out.path {
                    solved += 1;
                    // Independent verification with a fresh checker.
                    let mut verifier = SoftwareChecker::new(robot.clone(), scene.octree());
                    assert_eq!(
                        check_path(&mut verifier, path, CSPACE_STEP),
                        None,
                        "planner returned an infeasible path on seed {seed} query {qi}"
                    );
                    assert_eq!(path.first().unwrap(), &q.start);
                    assert_eq!(path.last().unwrap(), &q.goal);
                }
            }
        }
        assert!(
            solved * 3 >= total * 2,
            "only {solved}/{total} valid queries solved"
        );
    }

    #[test]
    fn planner_detours_around_blocking_obstacle() {
        let robot = RobotModel::planar_2dof();
        // Wall in front of the straight-line sweep.
        let block = Aabb::new(Vec3::new(0.55, 0.35, 0.0), Vec3::new(0.08, 0.08, 0.3));
        let tree = Octree::build(&[block], 5);
        let mut checker = SoftwareChecker::new(robot.clone(), tree);
        let start = JointConfig::new(vec![0.0, 0.0]);
        let goal = JointConfig::new(vec![1.5, 0.0]);
        // Straight line must be infeasible for the test to be meaningful.
        assert!(
            mp_collision::check_motion(
                &mut checker,
                &Motion::new(start.clone(), goal.clone()),
                CSPACE_STEP
            )
            .colliding
        );
        // The only detours fold the elbow *away* from the wall — a narrow
        // region the goal-directed sampler must discover stochastically
        // (real MPNet gets this from its learned distribution). Require at
        // least one success over a batch of seeds, and verify that success.
        let mut solved_any = false;
        for seed in 0..60 {
            let mut sampler = OracleSampler::new(robot.clone(), seed)
                .with_noise(0.6)
                .with_step(0.5);
            let cfg = MpnetConfig {
                replan_attempts: 30,
                max_expansion_steps: 60,
                seed,
                ..MpnetConfig::default()
            };
            let out = plan(&mut checker, &mut sampler, &start, &goal, &cfg);
            if let Some(path) = &out.path {
                assert!(path.len() >= 3, "a detour needs intermediate waypoints");
                let mut verifier = SoftwareChecker::new(robot.clone(), checker.octree().clone());
                assert_eq!(check_path(&mut verifier, path, CSPACE_STEP), None);
                solved_any = true;
                break;
            }
        }
        assert!(
            solved_any,
            "planner failed on a solvable scene for every seed"
        );
    }

    #[test]
    fn shortcutting_shortens_paths() {
        let robot = RobotModel::jaco2();
        let mut checker = SoftwareChecker::new(robot.clone(), Octree::build(&[], 3));
        let mut noisy = OracleSampler::new(robot.clone(), 8)
            .with_noise(0.5)
            .with_step(0.4);
        let goal = far_goal(&robot);
        let with = plan(
            &mut checker,
            &mut noisy,
            &robot.home(),
            &goal,
            &MpnetConfig::default(),
        );
        let mut noisy2 = OracleSampler::new(robot.clone(), 8)
            .with_noise(0.5)
            .with_step(0.4);
        let without = plan(
            &mut checker,
            &mut noisy2,
            &robot.home(),
            &goal,
            &MpnetConfig {
                shortcut: false,
                ..MpnetConfig::default()
            },
        );
        let (Some(lw), Some(lo)) = (with.path_length(), without.path_length()) else {
            panic!("both plans should succeed in free space");
        };
        assert!(lw <= lo + 1e-4, "shortcut path {lw} longer than raw {lo}");
    }

    /// A sampler that always proposes the same (typically colliding) pose
    /// — the degenerate "collapsed network" regression case for stall
    /// detection.
    struct CollapsedSampler {
        pose: JointConfig,
    }

    impl crate::sampler::NeuralSampler for CollapsedSampler {
        fn next_pose(&mut self, _current: &JointConfig, _goal: &JointConfig) -> JointConfig {
            self.pose.clone()
        }
        fn macs(&self) -> u64 {
            1000
        }
    }

    /// A world in which every pose but the two endpoints collides, so no
    /// amount of exploration noise can escape a stall.
    struct EndpointsOnly {
        robot: RobotModel,
        free: [JointConfig; 2],
        stats: CdStats,
    }

    impl CollisionChecker for EndpointsOnly {
        fn robot(&self) -> &RobotModel {
            &self.robot
        }
        fn check_pose(&mut self, cfg: &JointConfig) -> bool {
            self.stats.pose_queries += 1;
            !self.free.contains(cfg)
        }
        fn stats(&self) -> CdStats {
            self.stats
        }
        fn reset_stats(&mut self) {
            self.stats = CdStats::default();
        }
    }

    #[test]
    fn collapsed_sampler_reports_stall_instead_of_burning_steps() {
        let robot = RobotModel::planar_2dof();
        let start = JointConfig::zeros(2);
        let goal = JointConfig::new(vec![1.5, 0.0]);
        // A CD budget with room to spare does not mask the stall.
        let roomy = PlanBudget {
            max_cd_queries: Some(50_000),
            ..PlanBudget::default()
        };
        for budget in [PlanBudget::default(), roomy] {
            let mut checker = EndpointsOnly {
                robot: robot.clone(),
                free: [start.clone(), goal.clone()],
                stats: CdStats::default(),
            };
            let mut sampler = CollapsedSampler {
                pose: JointConfig::new(vec![0.9, 0.1]),
            };
            let cfg = MpnetConfig {
                max_expansion_steps: 1000,
                budget,
                ..MpnetConfig::default()
            };
            let out = plan(&mut checker, &mut sampler, &start, &goal, &cfg);
            assert!(!out.solved());
            assert_eq!(out.failure, Some(PlanFailure::Stalled));
            // Bailed after MAX_STALL_STREAK steps (x5 proposals), not 1000.
            assert!(
                out.stats.nn_calls <= 5 * u64::from(MAX_STALL_STREAK),
                "burned {} NN calls before stalling out",
                out.stats.nn_calls
            );
        }
    }

    #[test]
    fn stall_escalation_noise_can_rescue_a_streak() {
        // Same collapsed sampler, but in a world where the obstacle is
        // small: the escalating stall noise lets phase 1 escape it, and
        // the replanning noise finds a detour around it in phase 2.
        let robot = RobotModel::planar_2dof();
        let bad = JointConfig::new(vec![0.9, 0.1]);
        let ee = mp_robot::fk::end_effector(&robot, &bad);
        let tree = Octree::build(&[Aabb::new(ee, Vec3::splat(0.02))], 5);
        let mut checker = SoftwareChecker::new(robot.clone(), tree);
        let mut solved = false;
        for seed in 0..8 {
            let mut sampler = CollapsedSampler { pose: bad.clone() };
            let cfg = MpnetConfig {
                seed,
                ..MpnetConfig::default()
            };
            let out = plan(
                &mut checker,
                &mut sampler,
                &JointConfig::zeros(2),
                &JointConfig::new(vec![1.5, 0.0]),
                &cfg,
            );
            if out.solved() {
                solved = true;
                break;
            }
        }
        assert!(solved, "escalation noise never rescued the stall");
    }

    #[test]
    fn budget_exhaustion_is_reported_and_respected() {
        let robot = RobotModel::jaco2();
        let scene = Scene::random(SceneConfig::paper(), 3);
        let mut checker = SoftwareChecker::new(robot.clone(), scene.octree());
        let mut sampler = OracleSampler::new(robot.clone(), 1);
        let cfg = MpnetConfig {
            budget: PlanBudget {
                max_cd_queries: Some(5),
                ..PlanBudget::default()
            },
            ..MpnetConfig::default()
        };
        let out = plan(
            &mut checker,
            &mut sampler,
            &robot.home(),
            &far_goal(&robot),
            &cfg,
        );
        if let Some(PlanFailure::BudgetExhausted(r)) = out.failure {
            assert_eq!(r, BudgetResource::CdQueries);
            assert!(!out.solved());
        } else {
            // 5 queries can only suffice if the direct motion is free,
            // which these obstacle scenes make effectively impossible.
            panic!("expected budget exhaustion, got {:?}", out.failure);
        }
        // The deadline budget trips too.
        let deadline = MpnetConfig {
            budget: PlanBudget::deadline_us(1.0),
            ..MpnetConfig::default()
        };
        let out = plan(
            &mut checker,
            &mut sampler,
            &robot.home(),
            &far_goal(&robot),
            &deadline,
        );
        assert_eq!(
            out.failure,
            Some(PlanFailure::BudgetExhausted(BudgetResource::ModeledTime))
        );
    }

    #[test]
    fn colliding_endpoints_fail_fast() {
        let robot = RobotModel::jaco2();
        // Obstacle right on the home pose end effector.
        let ee = mp_robot::fk::end_effector(&robot, &robot.home());
        let tree = Octree::build(&[Aabb::new(ee, Vec3::splat(0.1))], 5);
        let mut checker = SoftwareChecker::new(robot.clone(), tree);
        let mut sampler = OracleSampler::new(robot.clone(), 0);
        let out = plan(
            &mut checker,
            &mut sampler,
            &robot.home(),
            &far_goal(&robot),
            &MpnetConfig::default(),
        );
        assert!(!out.solved());
        assert_eq!(out.failure, Some(PlanFailure::InvalidStart));
        assert_eq!(out.trace.cd_batches(), 0); // failed before any batch
    }

    #[test]
    fn trace_contains_all_phase_kinds_on_success() {
        let robot = RobotModel::jaco2();
        let scene = Scene::random(SceneConfig::paper(), 1);
        let mut checker = SoftwareChecker::new(robot.clone(), scene.octree());
        let mut sampler = OracleSampler::new(robot.clone(), 3)
            .with_noise(0.3)
            .with_step(0.5);
        let out = plan(
            &mut checker,
            &mut sampler,
            &robot.home(),
            &far_goal(&robot),
            &MpnetConfig::default(),
        );
        if out.solved() {
            assert!(out.trace.nn_inferences() >= 1);
            let has_connectivity = out.trace.events.iter().any(|e| {
                matches!(
                    e,
                    TraceEvent::CdBatch {
                        mode: FunctionMode::Connectivity,
                        ..
                    }
                )
            });
            let has_feasibility = out.trace.events.iter().any(|e| {
                matches!(
                    e,
                    TraceEvent::CdBatch {
                        mode: FunctionMode::Feasibility,
                        ..
                    }
                )
            });
            assert!(has_feasibility);
            // Connectivity batches appear when the path had >2 waypoints.
            if out.stats.coarse_waypoints > 2 {
                assert!(has_connectivity);
            }
        }
    }
}
