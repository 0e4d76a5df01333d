//! Cross-query batched planning: lockstep tree growth over one validation
//! stream per scene.
//!
//! Sequential planning walks one query at a time, each with its own
//! checker, so every query pays the full setup cost — octree clone, FK
//! buffer warmup, cascade state — before its first collision check. The
//! batch engine amortizes all of that across the queries of a scene
//! (VAMP's "motions in microseconds" observation, applied across queries
//! instead of within one):
//!
//! * **One shared checker per scene.** All lanes validate through a single
//!   [`CollisionChecker`], so the flat octree, the FK scratch buffers and
//!   the hoisted cascade constants stay hot instead of being rebuilt per
//!   query. Per-lane work is attributed by differencing the shared
//!   counters around each lane's operations.
//! * **Lockstep growth.** Every round, each active lane computes its next
//!   pending extension (sample → nearest → steer — pure arithmetic on its
//!   own RNG stream), and the pending edges are then validated
//!   back-to-back as one stream through the shared checker.
//! * **Sequential motion validation.** Each edge is discretized and checked
//!   pose by pose with early exit on the first colliding pose, via
//!   [`mp_collision::check_motion`] — the same semantics as the sequential
//!   planners.
//!
//! **Bit-identity contract:** every lane owns its RNG stream, its stats
//! and its trees, and validation is deterministic, so interleaving lanes
//! changes *when* a lane's checks run but not *what* they compute. Each
//! lane's outcome — path, node count, CD queries, and the full
//! [`CdStats`] breakdown down to multiplication counts — is identical to
//! running the sequential planner with a fresh checker on the same seed.
//! The differential tests in `tests/batch_props.rs` pin this for both the
//! f32 software chain and the Q3.12 CECDU chain.

use mp_collision::{check_motion, CdStats, CollisionChecker};
use mp_robot::{JointConfig, Motion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mpnet::{plan, MpnetConfig, PlanBudget, PlanOutcome, CD_QUERY_MODELED_US};
use crate::rrt::{dedup, steer, RrtConfig, RrtOutcome, Tree};
use crate::sampler::NeuralSampler;
use crate::tiers::{QualityTier, TierOutcome};

/// One planning query in a batch: endpoints plus the lane's private seed.
#[derive(Clone, Debug)]
pub struct BatchQuery {
    /// Start configuration.
    pub start: JointConfig,
    /// Goal configuration.
    pub goal: JointConfig,
    /// Seed of the lane's RNG stream (same meaning as the sequential
    /// planners' `seed` argument).
    pub seed: u64,
}

/// Per-lane result of a batched run: the planner outcome plus the CD work
/// the lane spent, attributed from the shared checker.
#[derive(Clone, Debug)]
pub struct BatchLaneOutcome {
    /// The planner outcome (identical to the sequential run on this seed).
    pub outcome: RrtOutcome,
    /// CD work attributed to this lane (identical to the stats a fresh
    /// per-query checker would have accumulated).
    pub stats: CdStats,
}

impl BatchLaneOutcome {
    /// Dynamic collision-detection energy this lane spent, in picojoules
    /// (priced from [`BatchLaneOutcome::stats`] by `mp_sim::energy`).
    pub fn energy_pj(&self) -> f64 {
        self.stats.energy_pj()
    }
}

/// Runs `f` against the shared checker and folds the counter delta into
/// the lane's private stats (the shared snapshot/delta helper from
/// `mp_collision`).
fn attributed<C: CollisionChecker, T>(
    checker: &mut C,
    lane_stats: &mut CdStats,
    f: impl FnOnce(&mut C) -> T,
) -> T {
    let (out, delta) = mp_collision::attributed(checker, f);
    lane_stats.absorb(delta);
    out
}

/// Per-lane RRT-Connect state, advanced one expansion round at a time.
struct ConnectLane {
    start: JointConfig,
    goal: JointConfig,
    rng: StdRng,
    ta: Tree,
    tb: Tree,
    a_is_start: bool,
    stats: CdStats,
    done: Option<RrtOutcome>,
}

impl ConnectLane {
    fn new(q: &BatchQuery) -> ConnectLane {
        ConnectLane {
            start: q.start.clone(),
            goal: q.goal.clone(),
            rng: StdRng::seed_from_u64(q.seed),
            ta: Tree::new(q.start.clone()),
            tb: Tree::new(q.goal.clone()),
            a_is_start: true,
            stats: CdStats::default(),
            done: None,
        }
    }

    fn out_of_budget(&self, cfg: &RrtConfig) -> bool {
        cfg.max_cd_queries
            .is_some_and(|cap| self.stats.pose_queries >= cap)
    }

    fn finish(&mut self, path: Option<Vec<JointConfig>>) {
        self.done = Some(RrtOutcome {
            path,
            nodes: self.ta.len() + self.tb.len(),
            cd_queries: self.stats.pose_queries,
        });
    }

    /// Endpoint validation, with the sequential planner's short-circuit:
    /// a colliding start never checks the goal.
    fn validate_endpoints(&mut self, checker: &mut impl CollisionChecker) {
        let (start, goal) = (self.start.clone(), self.goal.clone());
        let invalid = attributed(checker, &mut self.stats, |c| {
            c.check_pose(&start) || c.check_pose(&goal)
        });
        if invalid {
            self.done = Some(RrtOutcome {
                path: None,
                nodes: 0,
                cd_queries: self.stats.pose_queries,
            });
        }
    }

    /// The gather half of one round: termination checks, then the lane's
    /// pending extension edge (pure arithmetic — no validation yet).
    fn gather(&mut self, robot: &mp_robot::RobotModel, cfg: &RrtConfig) -> Option<PendingEdge> {
        if self.done.is_some() {
            return None;
        }
        if self.ta.len() + self.tb.len() >= cfg.max_nodes || self.out_of_budget(cfg) {
            self.finish(None);
            return None;
        }
        let target = robot.sample_config(&mut self.rng);
        let near_a = self.ta.nearest(&target);
        let new_a = steer(self.ta.node(near_a), &target, cfg.steer_step);
        let edge = Motion::new(self.ta.node(near_a).clone(), new_a.clone());
        Some(PendingEdge {
            edge,
            new_a,
            near_a,
        })
    }

    /// The advance half: validate the pending edge through the shared
    /// stream and, when it is free, run the greedy connect loop to
    /// completion (its edges are data-dependent, so they join the stream
    /// immediately after the extension edge).
    fn advance(
        &mut self,
        checker: &mut impl CollisionChecker,
        cfg: &RrtConfig,
        pending: PendingEdge,
    ) {
        let PendingEdge {
            edge,
            new_a,
            near_a,
        } = pending;
        let colliding = attributed(checker, &mut self.stats, |c| {
            check_motion(c, &edge, cfg.cspace_step).colliding
        });
        if !colliding {
            self.ta.push(new_a.clone(), near_a);
            // Greedily connect tree B toward the new node.
            loop {
                if self.out_of_budget(cfg) {
                    break;
                }
                let near_b = self.tb.nearest(&new_a);
                let step_b = steer(self.tb.node(near_b), &new_a, cfg.steer_step);
                let edge_b = Motion::new(self.tb.node(near_b).clone(), step_b.clone());
                let colliding = attributed(checker, &mut self.stats, |c| {
                    check_motion(c, &edge_b, cfg.cspace_step).colliding
                });
                if colliding {
                    break;
                }
                self.tb.push(step_b.clone(), near_b);
                if step_b.distance(&new_a) < 1e-4 {
                    // Trees met: assemble the path.
                    let pa = self.ta.path_to_root(self.ta.len() - 1);
                    let pb = self.tb.path_to_root(self.tb.len() - 1);
                    let mut path = if self.a_is_start {
                        pa.clone()
                    } else {
                        pb.clone()
                    };
                    let mut tail = if self.a_is_start { pb } else { pa };
                    tail.reverse();
                    path.extend(tail);
                    dedup(&mut path);
                    self.finish(Some(path));
                    return;
                }
            }
        }
        std::mem::swap(&mut self.ta, &mut self.tb);
        self.a_is_start = !self.a_is_start;
    }
}

struct PendingEdge {
    edge: Motion,
    new_a: JointConfig,
    near_a: usize,
}

/// Grows an RRT-Connect tree pair per query in lockstep, validating every
/// lane's pending edges through one shared checker.
///
/// Lane `i`'s outcome and stats are bit-identical to
/// [`rrt_connect`](crate::rrt::rrt_connect) on `(queries[i].start,
/// queries[i].goal, queries[i].seed)` with a fresh checker.
///
/// # Panics
///
/// Panics if a query's DOF mismatches the checker's robot.
pub fn rrt_connect_batch(
    checker: &mut impl CollisionChecker,
    queries: &[BatchQuery],
    cfg: &RrtConfig,
) -> Vec<BatchLaneOutcome> {
    let span = mp_telemetry::span_args(
        "planner",
        "rrt_connect_batch",
        mp_telemetry::arg1("lanes", mp_telemetry::ArgValue::U64(queries.len() as u64)),
    );
    let robot = checker.robot().clone();
    let mut lanes: Vec<ConnectLane> = queries.iter().map(ConnectLane::new).collect();
    // Round 0: endpoint validation, streamed across lanes.
    for lane in &mut lanes {
        lane.validate_endpoints(checker);
    }
    // Lockstep rounds: gather all pending extension edges, then stream
    // their validation (plus each lane's data-dependent connect edges).
    loop {
        let pending: Vec<(usize, PendingEdge)> = lanes
            .iter_mut()
            .enumerate()
            .filter_map(|(i, lane)| lane.gather(&robot, cfg).map(|p| (i, p)))
            .collect();
        if pending.is_empty() && lanes.iter().all(|l| l.done.is_some()) {
            break;
        }
        for (i, edge) in pending {
            lanes[i].advance(checker, cfg, edge);
        }
    }
    let solved = lanes
        .iter()
        .filter(|l| matches!(&l.done, Some(o) if o.solved()))
        .count();
    span.end_with(|| mp_telemetry::arg1("solved", mp_telemetry::ArgValue::U64(solved as u64)));
    lanes
        .into_iter()
        .map(|l| BatchLaneOutcome {
            stats: l.stats,
            outcome: l.done.expect("all lanes terminated"),
        })
        .collect()
}

/// Per-lane plain-RRT state (goal-biased single tree).
struct RrtLane {
    goal: JointConfig,
    rng: StdRng,
    tree: Tree,
    stats: CdStats,
    done: Option<RrtOutcome>,
}

impl RrtLane {
    fn out_of_budget(&self, cfg: &RrtConfig) -> bool {
        cfg.max_cd_queries
            .is_some_and(|cap| self.stats.pose_queries >= cap)
    }
}

/// Grows one goal-biased RRT per query in lockstep over a shared checker
/// stream. Lane `i` is bit-identical to [`rrt`](crate::rrt::rrt) on the
/// same `(start, goal, seed)` with a fresh checker.
///
/// # Panics
///
/// Panics if a query's DOF mismatches the checker's robot.
pub fn rrt_batch(
    checker: &mut impl CollisionChecker,
    queries: &[BatchQuery],
    cfg: &RrtConfig,
) -> Vec<BatchLaneOutcome> {
    let robot = checker.robot().clone();
    let mut lanes: Vec<RrtLane> = queries
        .iter()
        .map(|q| {
            let mut lane = RrtLane {
                goal: q.goal.clone(),
                rng: StdRng::seed_from_u64(q.seed),
                tree: Tree::new(q.start.clone()),
                stats: CdStats::default(),
                done: None,
            };
            let (start, goal) = (q.start.clone(), q.goal.clone());
            let invalid = attributed(checker, &mut lane.stats, |c| {
                c.check_pose(&start) || c.check_pose(&goal)
            });
            if invalid {
                lane.done = Some(RrtOutcome {
                    path: None,
                    nodes: 0,
                    cd_queries: lane.stats.pose_queries,
                });
            }
            lane
        })
        .collect();
    loop {
        let mut progressed = false;
        for lane in lanes.iter_mut().filter(|l| l.done.is_none()) {
            progressed = true;
            if lane.tree.len() >= cfg.max_nodes || lane.out_of_budget(cfg) {
                lane.done = Some(RrtOutcome {
                    path: None,
                    nodes: lane.tree.len(),
                    cd_queries: lane.stats.pose_queries,
                });
                continue;
            }
            let target = if lane.rng.gen::<f32>() < cfg.goal_bias {
                lane.goal.clone()
            } else {
                robot.sample_config(&mut lane.rng)
            };
            let near = lane.tree.nearest(&target);
            let new = steer(lane.tree.node(near), &target, cfg.steer_step);
            let edge = Motion::new(lane.tree.node(near).clone(), new.clone());
            let colliding = attributed(checker, &mut lane.stats, |c| {
                check_motion(c, &edge, cfg.cspace_step).colliding
            });
            if colliding {
                continue;
            }
            lane.tree.push(new.clone(), near);
            // Goal connection attempt (short-circuit preserved: only
            // validated when the new node is within one steering step).
            let goal = lane.goal.clone();
            let to_goal = Motion::new(new.clone(), goal.clone());
            let connected = new.distance(&goal) <= cfg.steer_step
                && !attributed(checker, &mut lane.stats, |c| {
                    check_motion(c, &to_goal, cfg.cspace_step).colliding
                });
            if connected {
                let mut path = lane.tree.path_to_root(lane.tree.len() - 1);
                path.push(goal);
                lane.done = Some(RrtOutcome {
                    path: Some(path),
                    nodes: lane.tree.len(),
                    cd_queries: lane.stats.pose_queries,
                });
            }
        }
        if !progressed {
            break;
        }
    }
    lanes
        .into_iter()
        .map(|l| BatchLaneOutcome {
            stats: l.stats,
            outcome: l.done.expect("all lanes terminated"),
        })
        .collect()
}

/// Per-lane result of a batched MPNet stream.
#[derive(Clone, Debug)]
pub struct BatchPlanOutcome {
    /// The MPNet outcome (identical to the sequential run).
    pub outcome: PlanOutcome,
    /// CD work attributed to this lane.
    pub stats: CdStats,
}

impl BatchPlanOutcome {
    /// Dynamic collision-detection energy this lane spent, in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.stats.energy_pj()
    }
}

/// Streams MPNet queries through one shared checker per scene.
///
/// MPNet's phase structure is data-dependent (expansion, replanning and
/// shortcutting lengths all depend on earlier verdicts), so lanes are
/// resolved one after another rather than interleaved — the cross-query
/// win here is the shared scene state: one octree, one set of FK/traversal
/// buffers, hot cascade constants. Outcomes are bit-identical to calling
/// [`plan`] per query with a fresh checker because the planner only ever
/// reads its own counter *deltas*.
pub fn mpnet_stream<S: NeuralSampler>(
    checker: &mut impl CollisionChecker,
    queries: &[(JointConfig, JointConfig, MpnetConfig)],
    mut sampler_for: impl FnMut(usize) -> S,
) -> Vec<BatchPlanOutcome> {
    queries
        .iter()
        .enumerate()
        .map(|(i, (start, goal, cfg))| {
            let mut sampler = sampler_for(i);
            let mut stats = CdStats::default();
            let outcome = attributed(checker, &mut stats, |c| {
                plan(c, &mut sampler, start, goal, cfg)
            });
            BatchPlanOutcome { outcome, stats }
        })
        .collect()
}

/// Batched [`plan_at_tier_with_path`](crate::tiers::plan_at_tier_with_path):
/// plans every query of a scene at `tier` over one shared checker. The
/// neural tiers stream lanes through [`mpnet_stream`]; the classical tiers
/// grow their trees in lockstep through [`rrt_connect_batch`]. Per-lane
/// outcomes and paths are bit-identical to the sequential entry point.
pub fn plan_at_tier_batch<S: NeuralSampler>(
    checker: &mut impl CollisionChecker,
    queries: &[BatchQuery],
    tier: QualityTier,
    mut sampler_for: impl FnMut(usize) -> S,
) -> Vec<(TierOutcome, Option<Vec<JointConfig>>)> {
    let span = mp_telemetry::span_args(
        "planner",
        "plan",
        mp_telemetry::arg2(
            "tier",
            mp_telemetry::ArgValue::Str(tier.label()),
            "lanes",
            mp_telemetry::ArgValue::U64(queries.len() as u64),
        ),
    );
    let out: Vec<(TierOutcome, Option<Vec<JointConfig>>)> = match tier.mpnet_config(0) {
        Some(_) => {
            let mpnet_queries: Vec<(JointConfig, JointConfig, MpnetConfig)> = queries
                .iter()
                .map(|q| {
                    let cfg = tier
                        .mpnet_config(q.seed)
                        .expect("neural tier has an MPNet config");
                    (q.start.clone(), q.goal.clone(), cfg)
                })
                .collect();
            mpnet_stream(checker, &mpnet_queries, &mut sampler_for)
                .into_iter()
                .map(|r| {
                    let energy_pj = r.energy_pj();
                    (
                        TierOutcome {
                            tier,
                            solved: r.outcome.solved(),
                            cd_queries: r.outcome.stats.cd_queries,
                            nn_calls: r.outcome.stats.nn_calls,
                            modeled_us: PlanBudget::modeled_us(
                                r.outcome.stats.cd_queries,
                                r.outcome.stats.nn_calls,
                            ),
                            energy_pj,
                        },
                        r.outcome.path,
                    )
                })
                .collect()
        }
        None => rrt_connect_batch(checker, queries, &tier.rrt_config())
            .into_iter()
            .map(|r| {
                let energy_pj = r.energy_pj();
                (
                    TierOutcome {
                        tier,
                        solved: r.outcome.solved(),
                        cd_queries: r.outcome.cd_queries,
                        nn_calls: 0,
                        modeled_us: r.outcome.cd_queries as f64 * CD_QUERY_MODELED_US,
                        energy_pj,
                    },
                    r.outcome.path,
                )
            })
            .collect(),
    };
    let solved = out.iter().filter(|(o, _)| o.solved).count();
    span.end_with(|| mp_telemetry::arg1("solved", mp_telemetry::ArgValue::U64(solved as u64)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::generate_queries;
    use crate::rrt::{rrt, rrt_connect};
    use mp_collision::SoftwareChecker;
    use mp_octree::{Scene, SceneConfig};
    use mp_robot::RobotModel;

    fn scene_queries(seed: u64, n: usize) -> (Scene, Vec<BatchQuery>) {
        let robot = RobotModel::jaco2();
        let scene = Scene::random(SceneConfig::paper(), seed);
        let queries = generate_queries(&robot, &scene, n, seed + 40)
            .expect("paper scenes yield valid queries")
            .into_iter()
            .enumerate()
            .map(|(i, q)| BatchQuery {
                start: q.start,
                goal: q.goal,
                seed: seed * 100 + i as u64,
            })
            .collect();
        (scene, queries)
    }

    #[test]
    fn batched_rrt_connect_matches_sequential_lane_for_lane() {
        let robot = RobotModel::jaco2();
        let (scene, queries) = scene_queries(1, 3);
        let cfg = RrtConfig::default();
        let mut shared = SoftwareChecker::new(robot.clone(), scene.octree());
        let batched = rrt_connect_batch(&mut shared, &queries, &cfg);
        for (q, b) in queries.iter().zip(&batched) {
            let mut fresh = SoftwareChecker::new(robot.clone(), scene.octree());
            let seq = rrt_connect(&mut fresh, &q.start, &q.goal, &cfg, q.seed);
            assert_eq!(seq.path, b.outcome.path);
            assert_eq!(seq.nodes, b.outcome.nodes);
            assert_eq!(seq.cd_queries, b.outcome.cd_queries);
            assert_eq!(fresh.stats(), b.stats, "full CdStats must match");
        }
        // The shared checker accumulated exactly the sum of the lanes.
        let mut sum = CdStats::default();
        for b in &batched {
            sum.absorb(b.stats);
        }
        assert_eq!(shared.stats(), sum);
    }

    #[test]
    fn batched_rrt_matches_sequential_lane_for_lane() {
        let robot = RobotModel::jaco2();
        let (scene, queries) = scene_queries(2, 2);
        let cfg = RrtConfig::default();
        let mut shared = SoftwareChecker::new(robot.clone(), scene.octree());
        let batched = rrt_batch(&mut shared, &queries, &cfg);
        for (q, b) in queries.iter().zip(&batched) {
            let mut fresh = SoftwareChecker::new(robot.clone(), scene.octree());
            let seq = rrt(&mut fresh, &q.start, &q.goal, &cfg, q.seed);
            assert_eq!(seq.path, b.outcome.path);
            assert_eq!(seq.cd_queries, b.outcome.cd_queries);
            assert_eq!(fresh.stats(), b.stats);
        }
    }

    #[test]
    fn batched_tiers_match_sequential_entry_point() {
        use crate::sampler::OracleSampler;
        use crate::tiers::plan_at_tier_with_path;
        use mp_octree::Octree;
        let robot = RobotModel::jaco2();
        let (scene, queries) = scene_queries(3, 2);
        for tier in QualityTier::LADDER {
            let tree = Octree::build(scene.obstacles(), tier.octree_depth());
            let mut shared = SoftwareChecker::new(robot.clone(), tree.clone());
            let batched = plan_at_tier_batch(&mut shared, &queries, tier, |i| {
                OracleSampler::new(robot.clone(), queries[i].seed)
            });
            for (q, (out, path)) in queries.iter().zip(&batched) {
                let mut fresh = SoftwareChecker::new(robot.clone(), tree.clone());
                let mut sampler = OracleSampler::new(robot.clone(), q.seed);
                let (seq_out, seq_path) = plan_at_tier_with_path(
                    &mut fresh,
                    &mut sampler,
                    &q.start,
                    &q.goal,
                    tier,
                    q.seed,
                );
                assert_eq!(&seq_out, out, "{} outcome differs", tier.label());
                assert_eq!(&seq_path, path, "{} path differs", tier.label());
            }
        }
    }
}
