//! Pose-level collision checking.
//!
//! [`SoftwareChecker`] has one configuration, the paper's: exact-trig FK
//! and the proposed cascade (both sphere filters, then 6-5-4 SAT stages)
//! against the octree it is built with. The §7.2.1 cascade ablations run
//! on the scalar `mp_geometry::cascade::cascaded_obb_aabb`, not here.

use mp_geometry::soa::HoistedCascade;
use mp_geometry::{Obb, Transform};
use mp_octree::{FlatOctree, Octree};
use mp_robot::fk::{link_obbs_into, static_link_obbs};
use mp_robot::{JointConfig, RobotModel, TrigMode};

/// Counters accumulated across queries (the work metrics the paper's
/// energy model is built on).
///
/// This is the one record of collision work: one link's walk, one pose
/// query, a replayed motion and a checker's running total are each a
/// `CdStats`. A checker bills each pose it answers as one, into its own
/// counters and through [`crate::metrics::record_work`], and
/// [`CdStats::to_ops`] is the one mapping onto the energy model's op
/// classes.
///
/// They count the modeled datapath's work, which walks every link of every
/// pose of every motion it is sent. The host skips work whose answer it
/// already holds exactly, in three places:
///
/// 1. the base-link replay: [`SoftwareChecker`] walks a base-frame link
///    once per environment and replays that walk on every later pose;
/// 2. endpoint replay: a caller that already proved a motion's endpoint
///    free hands its recorded work to
///    [`check_motion_replaying`](crate::check_motion_replaying) (the
///    `rrt`/`rrt_connect` trees for each node, `mp_planner::mpnet::plan`
///    for each pose it checked, [`check_path`](crate::check_path) for each
///    waypoint);
/// 3. the motion memo: `mp_planner::mpnet::plan` answers a motion it
///    already checked in the same plan.
///
/// The last two bill through [`CollisionChecker::replay`]. All three
/// follow one billing rule: skipped work is billed exactly as executing
/// it would bill it, in these counters and in the process-wide
/// [`metrics`](crate::metrics). So the counters are the same as with every
/// link of every pose walked, while the host executes fewer tests than
/// they count. Only the telemetry differs: a replayed endpoint or motion
/// records no per-pose `collision/cd_query` span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CdStats {
    /// Robot-pose collision queries answered.
    pub pose_queries: u64,
    /// Link OBBs tested against the environment.
    pub link_tests: u64,
    /// OBB–AABB primitive intersection tests executed.
    pub box_tests: u64,
    /// Octree nodes visited.
    pub nodes_visited: u64,
    /// Multiplications spent in primitive tests.
    pub mults: u64,
}

impl CdStats {
    /// Adds another stats block into this one.
    pub fn absorb(&mut self, other: CdStats) {
        self.pose_queries += other.pose_queries;
        self.link_tests += other.link_tests;
        self.box_tests += other.box_tests;
        self.nodes_visited += other.nodes_visited;
        self.mults += other.mults;
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// monotone counters — the delta-attribution primitive behind
    /// [`attributed`] and the energy ledger scopes.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any of the five counters in `before`
    /// exceeds this one's, so `before` is not an earlier snapshot
    /// (counters only grow).
    pub fn delta_since(&self, before: &CdStats) -> CdStats {
        debug_assert!(
            self.pose_queries >= before.pose_queries
                && self.link_tests >= before.link_tests
                && self.box_tests >= before.box_tests
                && self.nodes_visited >= before.nodes_visited
                && self.mults >= before.mults,
            "delta_since needs an earlier snapshot of the same counters"
        );
        CdStats {
            pose_queries: self.pose_queries - before.pose_queries,
            link_tests: self.link_tests - before.link_tests,
            box_tests: self.box_tests - before.box_tests,
            nodes_visited: self.nodes_visited - before.nodes_visited,
            mults: self.mults - before.mults,
        }
    }

    /// Converts the checker counters into the energy model's op classes:
    /// each visited octree node is one small-SRAM node-store read, each
    /// primitive test carries its control overhead, and the SAT/sphere
    /// mults map directly. (The cascade's adds are not counted separately
    /// by `CdStats`; they are a ~5 % energy term next to the mults.)
    pub fn to_ops(&self) -> mp_sim::OpCounter {
        mp_sim::OpCounter {
            mults: self.mults,
            sram_reads: self.nodes_visited,
            box_tests: self.box_tests,
            cd_queries: self.pose_queries,
            ..mp_sim::OpCounter::default()
        }
    }

    /// Dynamic energy of this work, in picojoules (see [`CdStats::to_ops`]).
    pub fn energy_pj(&self) -> f64 {
        mp_sim::energy::dynamic_energy_pj(&self.to_ops())
    }
}

/// Anything that can answer "does the robot collide in this pose?".
///
/// Implemented by the software oracle here and by the cycle-level CECDU
/// models in `mpaccel-core`, so planners and schedulers can run on either.
pub trait CollisionChecker {
    /// The robot being checked.
    fn robot(&self) -> &RobotModel;

    /// Returns `true` if the robot collides with the environment at `cfg`.
    /// A configuration with a non-finite joint (NaN or ±inf) is reported
    /// as colliding.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `cfg.dof()` does not match the robot.
    fn check_pose(&mut self, cfg: &JointConfig) -> bool;

    /// Work counters accumulated so far.
    fn stats(&self) -> CdStats;

    /// Clears the work counters.
    fn reset_stats(&mut self);

    /// Bills `work` without executing it, and returns whether it did.
    ///
    /// `work` is the [`attributed`] delta of an earlier check on this
    /// checker (of one pose or of a whole motion) whose answer the caller
    /// holds and would otherwise ask again. Returning `false` means "check
    /// it again": the caller then repeats the check, so every checker
    /// stays correct with the default, which bills nothing and returns
    /// `false`. Override it only where checking the same pose again always
    /// gives the same verdict and the same counters: the override bills
    /// `work` as the check would, process-wide metrics included, and
    /// returns `true`. A checker whose answers can change between checks,
    /// such as one that injects faults, keeps the default.
    fn replay(&mut self, work: CdStats) -> bool {
        let _ = work;
        false
    }
}

/// Runs `f` against the checker and returns its result together with the
/// [`CdStats`] delta the call produced.
///
/// This is *the* shared snapshot/delta helper: the batch planner's
/// per-lane attribution, the per-pose telemetry span args, and the energy
/// ledger's per-scope billing all attribute work this way instead of each
/// re-implementing the before/after subtraction.
///
/// # Examples
///
/// ```
/// use mp_collision::{attributed, CollisionChecker, SoftwareChecker};
/// use mp_octree::Octree;
/// use mp_robot::RobotModel;
///
/// let mut checker = SoftwareChecker::new(RobotModel::jaco2(), Octree::build(&[], 3));
/// let home = checker.robot().home();
/// let (hit, delta) = attributed(&mut checker, |c| c.check_pose(&home));
/// assert!(!hit);
/// assert_eq!(delta.pose_queries, 1);
/// ```
pub fn attributed<C: CollisionChecker + ?Sized, T>(
    checker: &mut C,
    f: impl FnOnce(&mut C) -> T,
) -> (T, CdStats) {
    let before = checker.stats();
    let out = f(checker);
    (out, checker.stats().delta_since(&before))
}

/// Walks `flat` for one link OBB and returns its verdict and the work of
/// one link test. Flat traversal with the hoisted proposed cascade:
/// squared radii and SAT constants are computed once per link and reused
/// across every node the walk visits, with entries resolved in octant
/// order so counters match the scalar early-exit walk exactly.
/// `stack` is a reusable traversal buffer.
#[inline]
fn walk_link(flat: &FlatOctree, obb: &Obb<f32>, stack: &mut Vec<u32>) -> (bool, CdStats) {
    let [cx, cy, cz, hx, hy, hz] = flat.aabbs().coord_lanes();
    let mut cascade = HoistedCascade::new(obb);
    // Walk-local counters stay in registers in the inner loop; the record
    // is built once, at the return.
    let (mut hit, mut nodes_visited, mut box_tests, mut mults) = (false, 0u64, 0u64, 0u64);
    stack.clear();
    stack.push(0u32);
    'walk: while let Some(addr) = stack.pop() {
        nodes_visited += 1;
        let r = flat.entries(addr);
        let (s, n) = (r.start, r.len());
        // One bounds check per lane per node instead of one per entry
        // access.
        let (bcx, bcy, bcz) = (&cx[s..s + n], &cy[s..s + n], &cz[s..s + n]);
        let (bhx, bhy, bhz) = (&hx[s..s + n], &hy[s..s + n], &hz[s..s + n]);
        for k in 0..n {
            let out = cascade.outcome(bcx[k], bcy[k], bcz[k], bhx[k], bhy[k], bhz[k]);
            box_tests += 1;
            mults += out.mults as u64;
            if out.colliding {
                let e = s + k;
                if flat.is_full(e) {
                    hit = true;
                    break 'walk;
                }
                stack.push(flat.child(e));
            }
        }
    }
    let work = CdStats {
        pose_queries: 0,
        link_tests: 1,
        box_tests,
        nodes_visited,
        mults,
    };
    (hit, work)
}

/// The software oracle: exact `f32` kinematics + SAT-based octree queries.
///
/// One configuration: FK uses exact trig, and every link OBB runs the
/// paper's proposed cascade ([`HoistedCascade`]) against the octree the
/// checker was built with. Neither changes for the checker's lifetime;
/// a new environment takes a new checker.
///
/// The links attached to frame 0, the immobile base, have the same OBB at
/// every pose, so their walk is the same too. The checker walks each of
/// them once, on its first query, and replays that walk's verdict and
/// counters on every later query. [`CdStats`] and the process-wide
/// metrics therefore count exactly what walking every link would. The
/// derived walks belong to this instance and read only its own octree.
///
/// Every `check_pose` runs FK and walks the octree. Every query is a pure
/// function of the pose, so the checker overrides
/// [`CollisionChecker::replay`]: a pose or motion its caller already
/// checked on it (an endpoint the caller proved free, or a motion from a
/// plan's memo) bills the recorded [`CdStats`] and the process-wide
/// metrics they count, and records no `cd_query` span. Those and the
/// base-link replay are the places the checker bills work it does not
/// execute; [`CdStats`] gives the rule they share.
#[derive(Clone, Debug)]
pub struct SoftwareChecker {
    robot: RobotModel,
    octree: Octree,
    stats: CdStats,
    // Per link, the replayed walk of a base-frame link (`None` for a link
    // that moves); `None` until the first query derives it.
    static_walks: Option<Vec<Option<(bool, CdStats)>>>,
    // FK buffers reused across `check_pose` calls (taken out for the
    // duration of a query so the borrow checker sees disjoint state).
    frame_buf: Vec<Transform>,
    obb_buf: Vec<Obb<f32>>,
    // Flat-octree traversal buffer, same take/restore discipline.
    stack_buf: Vec<u32>,
}

impl SoftwareChecker {
    /// Creates a checker for a robot in an environment.
    pub fn new(robot: RobotModel, octree: Octree) -> SoftwareChecker {
        SoftwareChecker {
            robot,
            octree,
            stats: CdStats::default(),
            static_walks: None,
            frame_buf: Vec::new(),
            obb_buf: Vec::new(),
            stack_buf: Vec::new(),
        }
    }

    /// The environment octree.
    pub fn octree(&self) -> &Octree {
        &self.octree
    }

    /// Runs FK for `cfg` and walks its links in order until the first
    /// colliding one: the pose's verdict and its one query's work.
    fn walk_pose(&mut self, cfg: &JointConfig) -> (bool, CdStats) {
        let mut frames = std::mem::take(&mut self.frame_buf);
        let mut obbs = std::mem::take(&mut self.obb_buf);
        let mut stack = std::mem::take(&mut self.stack_buf);
        let flat = self.octree.flat();
        let robot = &self.robot;
        // Walk each base-frame link once, through the OBB FK yields for it.
        let static_walks = self.static_walks.get_or_insert_with(|| {
            static_link_obbs(robot, TrigMode::Exact)
                .iter()
                .map(|obb| obb.as_ref().map(|o| walk_link(flat, o, &mut stack)))
                .collect()
        });
        link_obbs_into(robot, cfg, TrigMode::Exact, &mut frames, &mut obbs);
        let mut work = CdStats {
            pose_queries: 1,
            ..CdStats::default()
        };
        let mut hit = false;
        for (obb, static_walk) in obbs.iter().zip(static_walks) {
            let (link_hit, link) = match static_walk {
                Some(w) => *w,
                None => walk_link(flat, obb, &mut stack),
            };
            work.absorb(link);
            if link_hit {
                // Early exit: subsequent links are not checked (§7.2.2).
                hit = true;
                break;
            }
        }
        self.frame_buf = frames;
        self.obb_buf = obbs;
        self.stack_buf = stack;
        (hit, work)
    }

    /// Bills `work` into this checker's counters and the process-wide
    /// metrics: the one write path of every query it answers or replays.
    fn bill(&mut self, work: CdStats) {
        self.stats.absorb(work);
        crate::metrics::record_work(&work);
    }
}

impl CollisionChecker for SoftwareChecker {
    fn robot(&self) -> &RobotModel {
        &self.robot
    }

    fn check_pose(&mut self, cfg: &JointConfig) -> bool {
        assert_eq!(cfg.dof(), self.robot.dof(), "configuration DOF mismatch");
        // A NaN or ±inf joint turns every link OBB into NaN, which every
        // sphere filter reads as "free": report the pose as colliding
        // instead (collision wins), without walking the octree.
        if !cfg.is_finite() {
            self.bill(CdStats {
                pose_queries: 1,
                ..CdStats::default()
            });
            return true;
        }
        let span = mp_telemetry::span("collision", "cd_query");
        let (colliding, work) = self.walk_pose(cfg);
        self.bill(work);
        span.end_with(|| {
            mp_telemetry::arg2(
                "colliding",
                mp_telemetry::ArgValue::U64(colliding as u64),
                "box_tests",
                mp_telemetry::ArgValue::U64(work.box_tests),
            )
        });
        colliding
    }

    fn stats(&self) -> CdStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CdStats::default();
    }

    fn replay(&mut self, work: CdStats) -> bool {
        self.bill(work);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_geometry::{Aabb, Vec3};
    use mp_octree::{Octree, Scene, SceneConfig};
    use mp_robot::fk::end_effector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empty_env() -> Octree {
        Octree::build(&[], 4)
    }

    #[test]
    fn empty_environment_is_always_free() {
        let mut c = SoftwareChecker::new(RobotModel::baxter(), empty_env());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let cfg = c.robot().sample_config(&mut rng);
            assert!(!c.check_pose(&cfg));
        }
        assert_eq!(c.stats().pose_queries, 20);
        assert_eq!(c.stats().link_tests, 20 * 7); // no early exits
    }

    #[test]
    fn obstacle_on_the_arm_is_detected() {
        let robot = RobotModel::jaco2();
        // Place an obstacle right on the home-pose end effector.
        let ee = end_effector(&robot, &robot.home());
        let env = Octree::build(&[Aabb::new(ee, Vec3::splat(0.08))], 5);
        let mut c = SoftwareChecker::new(robot, env);
        let home = c.robot().home();
        assert!(c.check_pose(&home));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let scene = Scene::random(SceneConfig::paper(), 1);
        let mut c = SoftwareChecker::new(RobotModel::jaco2(), scene.octree());
        let home = c.robot().home();
        let _ = c.check_pose(&home);
        let s1 = c.stats();
        assert_eq!(s1.pose_queries, 1);
        assert!(s1.box_tests >= 1 || s1.nodes_visited >= 7);
        let _ = c.check_pose(&home);
        assert_eq!(c.stats().pose_queries, 2);
        c.reset_stats();
        assert_eq!(c.stats(), CdStats::default());
    }

    #[test]
    #[should_panic(expected = "DOF mismatch")]
    fn wrong_dof_rejected() {
        let mut c = SoftwareChecker::new(RobotModel::jaco2(), empty_env());
        let _ = c.check_pose(&JointConfig::zeros(7));
    }

    #[test]
    fn absorb_combines_stats() {
        let mut a = CdStats {
            pose_queries: 1,
            link_tests: 2,
            box_tests: 3,
            nodes_visited: 4,
            mults: 5,
        };
        a.absorb(a);
        assert_eq!(a.pose_queries, 2);
        assert_eq!(a.mults, 10);
    }

    #[test]
    fn attributed_reports_exactly_the_closure_delta() {
        let scene = Scene::random(SceneConfig::paper(), 2);
        let mut c = SoftwareChecker::new(RobotModel::jaco2(), scene.octree());
        let home = c.robot().home();
        // Pre-existing work must not leak into the delta.
        let _ = c.check_pose(&home);
        let before = c.stats();
        let (_, delta) = attributed(&mut c, |c| {
            let _ = c.check_pose(&home);
            let _ = c.check_pose(&home);
        });
        assert_eq!(delta.pose_queries, 2);
        assert_eq!(c.stats().delta_since(&before), delta);
        let mut whole = before;
        whole.absorb(delta);
        assert_eq!(whole, c.stats());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn delta_since_rejects_a_later_snapshot_of_any_counter() {
        let later = CdStats {
            pose_queries: 5,
            link_tests: 5,
            box_tests: 5,
            nodes_visited: 5,
            mults: 5,
        };
        let bumps: [fn(&mut CdStats); 5] = [
            |s| s.pose_queries += 1,
            |s| s.link_tests += 1,
            |s| s.box_tests += 1,
            |s| s.nodes_visited += 1,
            |s| s.mults += 1,
        ];
        for bump in bumps {
            let mut before = later;
            bump(&mut before);
            let delta = std::panic::catch_unwind(|| later.delta_since(&before));
            assert!(delta.is_err(), "{before:?} passed as an earlier snapshot");
        }
    }

    #[test]
    fn ops_conversion_prices_every_counted_class() {
        let s = CdStats {
            pose_queries: 2,
            link_tests: 9,
            box_tests: 30,
            nodes_visited: 12,
            mults: 100,
        };
        let ops = s.to_ops();
        assert_eq!(ops.cd_queries, 2);
        assert_eq!(ops.box_tests, 30);
        assert_eq!(ops.sram_reads, 12);
        assert_eq!(ops.mults, 100);
        assert_eq!(s.energy_pj(), mp_sim::energy::dynamic_energy_pj(&ops));
        assert!(s.energy_pj() > 100.0);
    }
}
