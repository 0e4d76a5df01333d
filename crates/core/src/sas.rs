//! Cycle-level model of the Spatially Aware Scheduler (SAS, §3 and §5.1).
//!
//! SAS exploits coarse-grained (inter-collision-detection-query)
//! parallelism *work-efficiently*: because obstacles have physical spatial
//! locality, collision results of nearby poses are correlated, so the
//! scheduler batches *spatially distant* poses. The scheduling policies of
//! Fig 7 are all implemented:
//!
//! | name | intra-motion order        | inter-motion |
//! |------|---------------------------|--------------|
//! | NP   | in order (naive)          | no           |
//! | RND  | random                    | no           |
//! | CSP  | coarse step               | no           |
//! | BRP  | binary recursive          | no           |
//! | MS   | in order, 1 CDU per motion| yes          |
//! | MNP  | in order                  | yes          |
//! | MBRP | binary recursive          | yes          |
//! | MCSP | coarse step (proposed)    | yes          |
//!
//! The scheduler dispatches at most one query per cycle (§7.1), removes a
//! motion from the schedule as soon as any of its poses collides, and
//! honours the three function modes of §5.1 (feasibility / connectivity /
//! complete).
//!
//! [`run_sas`] is cycle-exact: every dispatch, completion and verdict lands
//! on the cycle the hardware would produce it. It does not visit idle
//! cycles one by one, though: when no motion in the dispatch window can
//! take a query, nothing changes until the next CDU completes, so the
//! model jumps straight to that completion.

use mp_robot::{JointConfig, MotionDescriptor};
use mp_sim::OpCounter;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The three SAS function modes (§5.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FunctionMode {
    /// Stop at the first colliding pose: answers "are *all* motions free?".
    Feasibility,
    /// Stop at the first motion proven collision-free: answers "is at least
    /// one motion free?" (used by shortcutting, §2.1).
    Connectivity,
    /// Produce a result for every motion.
    #[default]
    Complete,
}

/// Intra-motion pose ordering policies (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IntraPolicy {
    /// Naive: poses in path order.
    InOrder,
    /// Random shuffle (the RND baseline of Fig 7).
    Random {
        /// Shuffle seed (deterministic runs).
        seed: u64,
    },
    /// Coarse-step policy: offsets 0, s, 2s, … then 1, 1+s, … (CSP).
    CoarseStep {
        /// The step size (the paper sets 8 in hardware, §5.1).
        step: usize,
    },
    /// Binary-recursive policy: endpoints, then midpoints, coarse-to-fine
    /// (BRP; needs a queue in hardware, which is why CSP is preferred).
    BinaryRecursive,
}

impl IntraPolicy {
    /// The pose visit order for a motion of `n` poses.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a coarse step of 0 is configured.
    pub fn order(&self, n: usize, motion_index: usize) -> Vec<usize> {
        let mut order = Vec::with_capacity(n);
        self.push_order(n, motion_index, &mut order);
        order
    }

    /// Appends [`IntraPolicy::order`] to `out`, so a batch keeps every
    /// motion's order in one buffer.
    fn push_order(&self, n: usize, motion_index: usize, out: &mut Vec<usize>) {
        assert!(n > 0, "a motion has at least one pose");
        let base = out.len();
        match *self {
            IntraPolicy::InOrder => out.extend(0..n),
            IntraPolicy::Random { seed } => {
                out.extend(0..n);
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (motion_index as u64).wrapping_mul(0x9E37_79B9));
                out[base..].shuffle(&mut rng);
            }
            IntraPolicy::CoarseStep { step } => {
                assert!(step > 0, "coarse step must be positive");
                for offset in 0..step.min(n) {
                    let mut i = offset;
                    while i < n {
                        out.push(i);
                        i += step;
                    }
                }
            }
            IntraPolicy::BinaryRecursive => {
                out.push(0);
                if n == 1 {
                    return;
                }
                out.push(n - 1);
                let mut queue = std::collections::VecDeque::new();
                queue.push_back((0usize, n - 1));
                while let Some((lo, hi)) = queue.pop_front() {
                    if hi - lo > 1 {
                        let mid = lo + (hi - lo) / 2;
                        out.push(mid);
                        queue.push_back((lo, mid));
                        queue.push_back((mid, hi));
                    }
                }
                debug_assert_eq!(out.len() - base, n);
            }
        }
    }
}

/// Scheduler configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SasConfig {
    /// Intra-motion pose ordering.
    pub intra: IntraPolicy,
    /// Whether to schedule several motions concurrently.
    pub inter_motion: bool,
    /// Motions considered together when `inter_motion` (paper: 16, §5.1).
    pub group_size: usize,
    /// Number of collision-detection units.
    pub num_cdus: usize,
    /// Queries dispatched per cycle: 1 for the real SAS (§7.1); set to
    /// `num_cdus` for the idealized limit study of §3.
    pub dispatch_per_cycle: usize,
    /// Cap on in-flight queries per motion: `usize::MAX` normally; 1 for
    /// the MS policy of Fig 7 (pure inter-motion parallelism: one CDU per
    /// motion, poses in order).
    pub max_outstanding_per_motion: usize,
}

impl SasConfig {
    /// Sequential baseline: one CDU, in-order poses.
    pub fn sequential() -> SasConfig {
        SasConfig {
            intra: IntraPolicy::InOrder,
            inter_motion: false,
            group_size: 1,
            num_cdus: 1,
            dispatch_per_cycle: 1,
            max_outstanding_per_motion: usize::MAX,
        }
    }

    /// Naive parallelization (NP) over `n` CDUs.
    pub fn naive_parallel(n: usize) -> SasConfig {
        SasConfig {
            intra: IntraPolicy::InOrder,
            inter_motion: false,
            group_size: 1,
            num_cdus: n,
            dispatch_per_cycle: 1,
            max_outstanding_per_motion: usize::MAX,
        }
    }

    /// The proposed MCSP: coarse step 8 + inter-motion group 16 (§5.1).
    pub fn mcsp(n: usize) -> SasConfig {
        SasConfig {
            intra: IntraPolicy::CoarseStep { step: 8 },
            inter_motion: true,
            group_size: 16,
            num_cdus: n,
            dispatch_per_cycle: 1,
            max_outstanding_per_motion: usize::MAX,
        }
    }

    /// Coarse-step policy without inter-motion parallelism (CSP).
    pub fn csp(n: usize) -> SasConfig {
        SasConfig {
            intra: IntraPolicy::CoarseStep { step: 8 },
            inter_motion: false,
            group_size: 1,
            num_cdus: n,
            dispatch_per_cycle: 1,
            max_outstanding_per_motion: usize::MAX,
        }
    }

    /// Only inter-motion parallelism (MP in Fig 15 / MS in Fig 7).
    pub fn inter_only(n: usize) -> SasConfig {
        SasConfig {
            intra: IntraPolicy::InOrder,
            inter_motion: true,
            group_size: 16,
            num_cdus: n,
            dispatch_per_cycle: 1,
            max_outstanding_per_motion: usize::MAX,
        }
    }

    /// Pure inter-motion parallelism with at most one in-flight query per
    /// motion and in-order poses (MS in Fig 7).
    pub fn ms(n: usize) -> SasConfig {
        SasConfig {
            max_outstanding_per_motion: 1,
            ..SasConfig::inter_only(n)
        }
    }

    /// Sets the inter-motion group size.
    pub fn with_group_size(mut self, g: usize) -> SasConfig {
        self.group_size = g.max(1);
        self
    }

    /// Switches to the idealized limit-study dispatcher (§3: zero-latency
    /// scheduler able to feed every CDU each cycle).
    pub fn idealized(mut self) -> SasConfig {
        self.dispatch_per_cycle = self.num_cdus;
        self
    }
}

/// Response of a collision-detection unit to one pose query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CduResponse {
    /// Whether the pose collides.
    pub colliding: bool,
    /// Cycles from dispatch to result.
    pub latency: u64,
    /// Work performed.
    pub ops: OpCounter,
}

/// A collision-detection unit the scheduler can dispatch to.
pub trait CduModel {
    /// Evaluates one pose query.
    fn query(&mut self, pose: &JointConfig) -> CduResponse;
}

/// The idealized 1-cycle CDU of the §3 limit study, wrapping any
/// functional checker.
pub struct IdealCdu<C> {
    checker: C,
}

impl<C: mp_collision::CollisionChecker> IdealCdu<C> {
    /// Wraps a checker.
    pub fn new(checker: C) -> IdealCdu<C> {
        IdealCdu { checker }
    }
}

impl<C: mp_collision::CollisionChecker> CduModel for IdealCdu<C> {
    fn query(&mut self, pose: &JointConfig) -> CduResponse {
        let colliding = self.checker.check_pose(pose);
        CduResponse {
            colliding,
            latency: 1,
            ops: OpCounter {
                cd_queries: 1,
                ..OpCounter::default()
            },
        }
    }
}

/// A CECDU array element as the CDU (the real hardware), borrowing the
/// simulation it dispatches to.
///
/// A pose it already answered is served from a [`PoseCache`] of its
/// recent poses with the result [`CecduSim::check_pose`] gave, and with
/// the same process-wide metrics and `cecdu_pose` span, so one CDU that
/// serves a whole trace skips the FK and OOCD walks of repeated poses.
///
/// [`PoseCache`]: mp_collision::PoseCache
/// [`CecduSim::check_pose`]: crate::cecdu::CecduSim::check_pose
pub struct CecduCdu<'a> {
    sim: &'a crate::cecdu::CecduSim,
    cache: mp_collision::PoseCache<crate::cecdu::CachedCecdu>,
}

impl CecduCdu<'_> {
    /// Wraps a CECDU simulation.
    pub fn new(sim: &crate::cecdu::CecduSim) -> CecduCdu<'_> {
        CecduCdu {
            sim,
            cache: mp_collision::PoseCache::new(),
        }
    }
}

impl CduModel for CecduCdu<'_> {
    fn query(&mut self, pose: &JointConfig) -> CduResponse {
        let out = self.sim.check_pose_cached(pose, &mut self.cache);
        CduResponse {
            colliding: out.colliding,
            latency: out.cycles,
            ops: out.ops,
        }
    }
}

/// How a SAS run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SasOutcome {
    /// Feasibility mode: a colliding pose was found in this motion.
    CollisionFound(usize),
    /// Feasibility mode: every motion is collision-free.
    AllFree,
    /// Connectivity mode: this motion was proven collision-free.
    FreeMotionFound(usize),
    /// Connectivity mode: every motion collides.
    NoFreeMotion,
    /// Complete mode: all motions resolved.
    Completed,
}

/// Result of one SAS batch execution.
#[derive(Clone, Debug, PartialEq)]
pub struct SasRunResult {
    /// Total cycles until the scheduler reported back.
    pub cycles: u64,
    /// Collision-detection queries dispatched.
    pub queries: u64,
    /// Accumulated work.
    pub ops: OpCounter,
    /// Per-motion verdicts (`None` if unresolved due to early stop).
    pub motion_results: Vec<Option<bool>>,
    /// How the run ended.
    pub outcome: SasOutcome,
}

/// Per-motion scheduling state. The descriptor stays borrowed from the
/// batch; the visit order is `count` entries of the batch's order buffer.
struct MotionState {
    order_start: usize,
    count: usize,
    next: usize,
    outstanding: usize,
    checked: usize,
    result: Option<bool>,
}

impl MotionState {
    fn has_pending(&self) -> bool {
        self.result.is_none() && self.next < self.count
    }
}

/// A CDU slot's finish time while it is free.
const FREE: u64 = u64::MAX;

/// Runs one batch of motions through SAS, cycle-exact.
///
/// Each modeled cycle retires the completions due, rebuilds the dispatch
/// window when a retirement changed it, and dispatches round-robin over
/// the window to free CDUs. Cycles in which no window member can take a
/// query change nothing until the next completion, so the loop jumps
/// straight to it: the cycle counts, dispatch order and verdicts are those
/// of stepping every cycle. The loop borrows `motions`, reuses one pose
/// buffer across queries and keeps counts of unresolved, pending and
/// in-flight work, so neither termination nor the time step scans the
/// batch.
///
/// # Panics
///
/// Panics if `motions` is empty or the configuration is degenerate
/// (`num_cdus == 0`, `group_size == 0`, `dispatch_per_cycle == 0` or
/// `max_outstanding_per_motion == 0`: with either of the last two nothing
/// could ever dispatch).
pub fn run_sas(
    motions: &[MotionDescriptor],
    mode: FunctionMode,
    cfg: &SasConfig,
    cdu: &mut impl CduModel,
) -> SasRunResult {
    assert!(!motions.is_empty(), "SAS needs at least one motion");
    assert!(cfg.num_cdus >= 1, "SAS needs at least one CDU");
    assert!(cfg.group_size >= 1, "group size must be at least 1");
    assert!(
        cfg.dispatch_per_cycle >= 1,
        "SAS must dispatch at least one query per cycle"
    );
    assert!(
        cfg.max_outstanding_per_motion >= 1,
        "a motion must be allowed at least one in-flight query"
    );

    let batch_span = mp_telemetry::span_args(
        "core",
        "sas_batch",
        mp_telemetry::arg1("motions", mp_telemetry::ArgValue::U64(motions.len() as u64)),
    );
    // The CDU-lane events are the only per-query telemetry; build their
    // arguments only while a telemetry sink is installed.
    let traced = mp_telemetry::active();

    let mut orders = Vec::with_capacity(motions.iter().map(|d| d.count).sum());
    let mut states: Vec<MotionState> = motions
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let order_start = orders.len();
            cfg.intra.push_order(d.count, i, &mut orders);
            MotionState {
                order_start,
                count: d.count,
                next: 0,
                outstanding: 0,
                checked: 0,
                result: None,
            }
        })
        .collect();
    let dispatchable =
        |m: &MotionState| m.has_pending() && m.outstanding < cfg.max_outstanding_per_motion;

    // CDU array: per slot, its finish time (`FREE` when idle) and the
    // in-flight query's motion, verdict and work.
    let mut finish = vec![FREE; cfg.num_cdus];
    let mut slot_motion = vec![0usize; cfg.num_cdus];
    let mut slot_colliding = vec![false; cfg.num_cdus];
    let mut slot_ops = vec![OpCounter::default(); cfg.num_cdus];

    let mut unresolved = motions.len();
    // Every motion starts with a pose to dispatch (`push_order` rejects
    // empty motions).
    let mut pending = motions.len();
    let mut in_flight = 0usize;
    // The dispatch window and its first candidate, which only moves
    // forward: a motion that leaves the window never re-enters it.
    let mut window: Vec<usize> = Vec::with_capacity(cfg.group_size.min(motions.len()));
    let mut window_stale = true;
    let mut front = 0usize;
    let mut pose = JointConfig::default();

    let mut t: u64 = 0;
    let mut queries: u64 = 0;
    let mut ops = OpCounter::default();
    let mut rr_cursor = 0usize; // round-robin over the motion window

    let outcome = 'run: loop {
        // 1. Retire completions due at or before t, in slot order.
        for s in 0..cfg.num_cdus {
            if finish[s] > t {
                continue;
            }
            finish[s] = FREE;
            in_flight -= 1;
            let mi = slot_motion[s];
            let m = &mut states[mi];
            m.outstanding -= 1;
            m.checked += 1;
            ops += slot_ops[s];
            // The sequential window holds its motion until its last query
            // returns.
            window_stale |= !cfg.inter_motion;
            if slot_colliding[s] && m.result.is_none() {
                // Remove the motion from the schedule (§5.1: "It removes a
                // motion from the scheduling list if an intermediate pose
                // for this motion is found to be colliding").
                if m.next < m.count {
                    pending -= 1;
                }
                m.result = Some(true);
                m.next = m.count;
                unresolved -= 1;
                window_stale = true;
                if mode == FunctionMode::Feasibility {
                    break 'run SasOutcome::CollisionFound(mi);
                }
            } else if m.result.is_none() && m.checked == m.count && m.outstanding == 0 {
                m.result = Some(false);
                unresolved -= 1;
                window_stale = true;
                if mode == FunctionMode::Connectivity {
                    break 'run SasOutcome::FreeMotionFound(mi);
                }
            }
        }

        // 2. Rebuild the dispatch window if a retirement changed it: the
        // first `group_size` unresolved motions, or without inter-motion
        // parallelism the first motion with poses pending or in flight.
        if window_stale {
            window.clear();
            if cfg.inter_motion {
                while front < states.len() && states[front].result.is_some() {
                    front += 1;
                }
                window.extend(
                    (front..states.len())
                        .filter(|&i| states[i].result.is_none())
                        .take(cfg.group_size),
                );
            } else {
                while front < states.len()
                    && !(states[front].has_pending() || states[front].outstanding > 0)
                {
                    front += 1;
                }
                if front < states.len() {
                    window.push(front);
                }
            }
            window_stale = false;
        }

        // 3. Dispatch up to dispatch_per_cycle queries to free CDUs. The
        // slot index feeds retirement order and the telemetry CDU lanes.
        let mut dispatched = 0usize;
        // Whether no window member can take a query this cycle.
        let mut stalled = window.is_empty();
        if !stalled {
            for (slot_idx, slot_finish) in finish.iter_mut().enumerate() {
                if dispatched >= cfg.dispatch_per_cycle {
                    break;
                }
                if *slot_finish != FREE {
                    continue;
                }
                // Round-robin over window members that still have poses.
                let Some(k) = (0..window.len())
                    .find(|&k| dispatchable(&states[window[(rr_cursor + k) % window.len()]]))
                else {
                    stalled = true;
                    break;
                };
                let mi = window[(rr_cursor + k) % window.len()];
                rr_cursor = (rr_cursor + k + 1) % window.len();
                let m = &mut states[mi];
                let pose_idx = orders[m.order_start + m.next];
                m.next += 1;
                m.outstanding += 1;
                if m.next == m.count {
                    pending -= 1;
                }
                motions[mi].pose_into(pose_idx, &mut pose);
                let resp = cdu.query(&pose);
                queries += 1;
                dispatched += 1;
                let latency = resp.latency.max(1);
                if traced {
                    // One Perfetto row per CDU dispatch slot, timestamped
                    // in cycles (the SAS clock), showing lane occupancy.
                    mp_telemetry::complete_at(
                        mp_telemetry::Lane::new("cdu", slot_idx as u32),
                        "core",
                        "cd_query",
                        t,
                        latency,
                        mp_telemetry::arg2(
                            "motion",
                            mp_telemetry::ArgValue::U64(mi as u64),
                            "colliding",
                            mp_telemetry::ArgValue::U64(resp.colliding as u64),
                        ),
                    );
                }
                *slot_finish = t + latency;
                slot_motion[slot_idx] = mi;
                slot_colliding[slot_idx] = resp.colliding;
                slot_ops[slot_idx] = resp.ops;
                in_flight += 1;
            }
        }

        // 4. Check global termination.
        if unresolved == 0 && in_flight == 0 {
            break match mode {
                FunctionMode::Feasibility => SasOutcome::AllFree,
                FunctionMode::Connectivity => SasOutcome::NoFreeMotion,
                FunctionMode::Complete => SasOutcome::Completed,
            };
        }

        // 5. Advance time: to the next cycle if a window member can
        // dispatch to a free CDU then, else straight to the earliest
        // completion (until it, no state changes).
        let can_dispatch_next = pending > 0
            && in_flight < cfg.num_cdus
            && !stalled
            && window.iter().any(|&mi| dispatchable(&states[mi]));
        if can_dispatch_next {
            t += 1;
        } else {
            // Loop invariant: the batch is not finished (checked above),
            // and with nothing in flight every unresolved window member
            // could dispatch (the asserts rule out the degenerate
            // configurations), so some CDU is busy here: an empty
            // in-flight set would mean lost work.
            let next_finish = finish
                .iter()
                .copied()
                .filter(|&f| f != FREE)
                .min()
                .expect("in-flight work must exist if nothing can dispatch");
            t = next_finish.max(t + 1);
        }
    };

    // Account for the result aggregation cycle (§5.1, step 6).
    batch_span.end_with(|| {
        mp_telemetry::arg2(
            "cycles",
            mp_telemetry::ArgValue::U64(t + 1),
            "queries",
            mp_telemetry::ArgValue::U64(queries),
        )
    });
    SasRunResult {
        cycles: t + 1,
        queries,
        ops,
        motion_results: states.into_iter().map(|m| m.result).collect(),
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_collision::{CollisionChecker, SoftwareChecker};
    use mp_octree::{Octree, Scene, SceneConfig};
    use mp_robot::{Motion, RobotModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const STEP: f32 = 0.05;

    fn fixture(seed: u64, n_motions: usize) -> (Vec<MotionDescriptor>, SoftwareChecker) {
        let robot = RobotModel::jaco2();
        let scene = Scene::random(SceneConfig::paper(), seed);
        let checker = SoftwareChecker::new(robot.clone(), scene.octree());
        let mut rng = StdRng::seed_from_u64(seed + 1000);
        let motions = (0..n_motions)
            .map(|_| {
                Motion::new(robot.sample_config(&mut rng), robot.sample_config(&mut rng))
                    .descriptor(STEP)
            })
            .collect();
        (motions, checker)
    }

    /// Ground-truth per-motion verdicts via exhaustive checking.
    fn ground_truth(motions: &[MotionDescriptor], checker: &mut SoftwareChecker) -> Vec<bool> {
        motions
            .iter()
            .map(|d| (0..d.count).any(|i| checker.check_pose(&d.pose(i))))
            .collect()
    }

    #[test]
    fn policy_orders_are_permutations() {
        for n in [1usize, 2, 7, 64, 101] {
            for p in [
                IntraPolicy::InOrder,
                IntraPolicy::Random { seed: 3 },
                IntraPolicy::CoarseStep { step: 8 },
                IntraPolicy::BinaryRecursive,
            ] {
                let mut o = p.order(n, 0);
                o.sort_unstable();
                assert_eq!(o, (0..n).collect::<Vec<_>>(), "{p:?} n={n}");
            }
        }
    }

    #[test]
    fn coarse_step_order_shape() {
        let o = IntraPolicy::CoarseStep { step: 4 }.order(10, 0);
        assert_eq!(o, vec![0, 4, 8, 1, 5, 9, 2, 6, 3, 7]);
    }

    #[test]
    fn binary_recursive_starts_with_extremes_and_midpoint() {
        let o = IntraPolicy::BinaryRecursive.order(9, 0);
        assert_eq!(&o[..3], &[0, 8, 4]);
    }

    #[test]
    fn complete_mode_matches_ground_truth_for_all_policies() {
        let (motions, checker) = fixture(1, 6);
        let truth = ground_truth(&motions, &mut checker.clone());
        for cfg in [
            SasConfig::sequential(),
            SasConfig::naive_parallel(8),
            SasConfig::csp(8),
            SasConfig::mcsp(8),
            SasConfig::inter_only(8),
            SasConfig {
                intra: IntraPolicy::BinaryRecursive,
                inter_motion: true,
                group_size: 16,
                num_cdus: 8,
                dispatch_per_cycle: 1,
                max_outstanding_per_motion: usize::MAX,
            },
            SasConfig {
                intra: IntraPolicy::Random { seed: 5 },
                inter_motion: false,
                group_size: 1,
                num_cdus: 4,
                dispatch_per_cycle: 1,
                max_outstanding_per_motion: usize::MAX,
            },
            SasConfig::ms(8),
        ] {
            let mut cdu = IdealCdu::new(checker.clone());
            let r = run_sas(&motions, FunctionMode::Complete, &cfg, &mut cdu);
            assert_eq!(r.outcome, SasOutcome::Completed);
            for (i, want) in truth.iter().enumerate() {
                assert_eq!(
                    r.motion_results[i],
                    Some(*want),
                    "cfg {cfg:?} motion {i} mismatch"
                );
            }
        }
    }

    #[test]
    fn feasibility_mode_agrees_with_truth() {
        let (motions, checker) = fixture(2, 8);
        let truth = ground_truth(&motions, &mut checker.clone());
        let any_collision = truth.iter().any(|&c| c);
        let mut cdu = IdealCdu::new(checker);
        let r = run_sas(
            &motions,
            FunctionMode::Feasibility,
            &SasConfig::mcsp(8),
            &mut cdu,
        );
        match r.outcome {
            SasOutcome::CollisionFound(i) => {
                assert!(any_collision);
                assert!(truth[i]);
            }
            SasOutcome::AllFree => assert!(!any_collision),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn connectivity_mode_agrees_with_truth() {
        let (motions, checker) = fixture(3, 8);
        let truth = ground_truth(&motions, &mut checker.clone());
        let any_free = truth.iter().any(|&c| !c);
        let mut cdu = IdealCdu::new(checker);
        let r = run_sas(
            &motions,
            FunctionMode::Connectivity,
            &SasConfig::mcsp(8),
            &mut cdu,
        );
        match r.outcome {
            SasOutcome::FreeMotionFound(i) => {
                assert!(any_free);
                assert!(!truth[i]);
            }
            SasOutcome::NoFreeMotion => assert!(!any_free),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn parallel_is_faster_but_costs_more_queries() {
        let (motions, checker) = fixture(4, 8);
        let mut seq_cdu = IdealCdu::new(checker.clone());
        let seq = run_sas(
            &motions,
            FunctionMode::Complete,
            &SasConfig::sequential(),
            &mut seq_cdu,
        );
        let mut np_cdu = IdealCdu::new(checker.clone());
        let np = run_sas(
            &motions,
            FunctionMode::Complete,
            &SasConfig::naive_parallel(16).idealized(),
            &mut np_cdu,
        );
        assert!(
            np.cycles < seq.cycles,
            "np {} vs seq {}",
            np.cycles,
            seq.cycles
        );
        assert!(np.queries >= seq.queries);
    }

    #[test]
    fn mcsp_is_more_work_efficient_than_np() {
        // Aggregate over several batches: MCSP should issue fewer queries
        // than NP at the same CDU count (the paper's central claim).
        let mut np_total = 0u64;
        let mut mcsp_total = 0u64;
        for seed in 0..6 {
            let (motions, checker) = fixture(seed, 8);
            let mut a = IdealCdu::new(checker.clone());
            np_total += run_sas(
                &motions,
                FunctionMode::Complete,
                &SasConfig::naive_parallel(16).idealized(),
                &mut a,
            )
            .queries;
            let mut b = IdealCdu::new(checker.clone());
            mcsp_total += run_sas(
                &motions,
                FunctionMode::Complete,
                &SasConfig::mcsp(16).idealized(),
                &mut b,
            )
            .queries;
        }
        assert!(
            mcsp_total < np_total,
            "MCSP {mcsp_total} queries vs NP {np_total}"
        );
    }

    #[test]
    fn sequential_on_free_space_checks_everything_once() {
        let robot = RobotModel::jaco2();
        let tree = Octree::build(&[], 3);
        let checker = SoftwareChecker::new(robot.clone(), tree);
        let m = Motion::new(robot.home(), {
            let mut c = robot.home();
            c.as_mut_slice()[0] += 1.0;
            c
        })
        .descriptor(STEP);
        let total: u64 = m.count as u64;
        let mut cdu = IdealCdu::new(checker);
        let r = run_sas(
            std::slice::from_ref(&m),
            FunctionMode::Complete,
            &SasConfig::sequential(),
            &mut cdu,
        );
        assert_eq!(r.queries, total);
        assert_eq!(r.motion_results[0], Some(false));
        // 1 query/cycle + latency-1 completion + aggregation.
        assert!(r.cycles >= total && r.cycles <= total + 3);
    }

    #[test]
    #[should_panic(expected = "at least one query per cycle")]
    fn zero_dispatch_per_cycle_rejected() {
        let (motions, checker) = fixture(0, 2);
        let cfg = SasConfig {
            dispatch_per_cycle: 0,
            ..SasConfig::mcsp(4)
        };
        let _ = run_sas(
            &motions,
            FunctionMode::Complete,
            &cfg,
            &mut IdealCdu::new(checker),
        );
    }

    #[test]
    #[should_panic(expected = "at least one in-flight query")]
    fn zero_outstanding_per_motion_rejected() {
        let (motions, checker) = fixture(0, 2);
        let cfg = SasConfig {
            max_outstanding_per_motion: 0,
            ..SasConfig::ms(4)
        };
        let _ = run_sas(
            &motions,
            FunctionMode::Complete,
            &cfg,
            &mut IdealCdu::new(checker),
        );
    }

    #[test]
    #[should_panic(expected = "at least one motion")]
    fn empty_batch_rejected() {
        let (_, checker) = fixture(0, 1);
        let mut cdu = IdealCdu::new(checker);
        let _ = run_sas(
            &[],
            FunctionMode::Complete,
            &SasConfig::sequential(),
            &mut cdu,
        );
    }
}
