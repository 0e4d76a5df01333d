//! Cycle-level model of the Cascaded Early-exit Collision Detection Unit
//! (CECDU, Fig 13).
//!
//! A CECDU answers one robot-pose collision query. The OBB Generation Unit
//! (Fig 14a) computes the per-link transforms — a 5-stage pipelined
//! fifth-order trig unit feeding matrix multipliers — and streams the link
//! OBBs to the unit's OOCD(s). The Result Collector early-exits the pose
//! query on the first colliding link; with several OOCDs, links are
//! dispatched in synchronous waves (§7.2.2: "the collision detection time
//! for parallel intersection tests is dominated by the highest intersection
//! test time across all units as we use synchronous scheduling").
//!
//! As §5.2 describes, each link's box half extents and its bounding and
//! inscribed sphere radii are precomputed and stored per link; the model
//! derives them, with their Q3.12 roundings, once per robot
//! ([`mp_robot::LinkBox`]). Per pose, the OBB Generation Unit computes the
//! joint frames and, for each link it dispatches, places and quantizes
//! only the box's centre and rotation.
//!
//! A CECDU has one datapath configuration besides its [`CecduConfig`]:
//! the OBB Generation Unit's fifth-order trig and the proposed cascade in
//! every OOCD. It is bound to one environment; a new octree takes a new
//! CECDU.
//!
//! One wave loop models this. [`CecduSim::check_pose`] runs it clean;
//! [`CecduSim::check_pose_with_faults`] runs the same loop with a
//! [`FaultInjector`] attached, so each dispatched link walks the OOCD
//! through [`run_oocd_with_faults`] and may draw a saturation event. Both
//! build a link's Q3.12 OBB the same way.

use std::cell::Cell;

use mp_collision::{CdStats, CollisionChecker, MotionResult, PoseCache, PoseKey};
use mp_geometry::Transform;
use mp_octree::Octree;
use mp_robot::fk::joint_frames_into;
use mp_robot::trig::TRIG_LATENCY_CYCLES;
use mp_robot::{JointConfig, Motion, RobotModel, TrigMode};
use mp_sim::fault::FaultKind;
use mp_sim::{CecduConfig, FaultInjector, OpCounter};

use crate::oocd::{run_oocd, run_oocd_with_faults, OocdResult};

thread_local! {
    // The FK frame buffer reused across pose queries (a `CecduSim` does not
    // change while it answers queries — many callers share one sim
    // immutably — so the per-pose buffer lives here, like the OOCD
    // traversal stack).
    static FK_SCRATCH: Cell<Vec<Transform>> = Cell::default();
}

/// Cycles from pose arrival until the first link OBB is ready: the trig
/// pipeline depth plus the matrix-multiply/add stage.
pub const OBB_GEN_FIRST_READY: u64 = TRIG_LATENCY_CYCLES as u64 + 3;

/// Cycles between consecutive link OBBs (the trig unit and matrix stage are
/// pipelined across links).
pub const OBB_GEN_INTERVAL: u64 = 2;

/// The OBB Generation Unit's trig: the fifth-order approximation.
const OBB_GEN_TRIG: TrigMode = TrigMode::Hardware;

/// Multiplications per generated link OBB (4×4 transform compose + box
/// rotation): counted into the energy proxy.
pub const OBB_GEN_MULTS: u64 = 24;

/// The verdict for a pose with a non-finite joint: NaN or ±inf turns every
/// link OBB into NaN, which the sphere filters read as "free", so the pose
/// is rejected before OBB generation and resolved conservatively —
/// collision wins — in the Result Collector's one reporting cycle.
fn non_finite_pose() -> CecduResult {
    CecduResult {
        colliding: true,
        cycles: 1,
        links_checked: 0,
        ops: OpCounter {
            cd_queries: 1,
            ..OpCounter::default()
        },
    }
}

/// Result of one robot-pose collision query on a CECDU.
///
/// `cycles` and `ops` are the modeled hardware's: its OBB Generation Unit
/// streams every link to the OOCDs at every pose. [`CecduSim`] replays a
/// base-frame link's walk instead of rerunning it on the host, and the
/// scheduler's [`CecduCdu`](crate::sas::CecduCdu) replays a repeated
/// pose's whole result, with the same cycles and ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CecduResult {
    /// Whether the robot collides with the environment at this pose.
    pub colliding: bool,
    /// Total cycles for the query.
    pub cycles: u64,
    /// Link OBBs actually sent to OOCDs (early exit skips the rest).
    pub links_checked: usize,
    /// Work performed.
    pub ops: OpCounter,
}

/// A [`CecduResult`] as a [`PoseCache`] slot holds it, in 40 bytes. A
/// pose whose counts do not fit is not cached.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CachedCecdu {
    colliding: bool,
    links_checked: u8,
    cycles: u32,
    // `OpCounter`'s fields in declaration order.
    ops: [u32; 8],
}

impl CachedCecdu {
    fn pack(r: &CecduResult) -> Option<CachedCecdu> {
        let o = &r.ops;
        let ops = [
            o.mults,
            o.adds,
            o.sram_reads,
            o.box_tests,
            o.cd_queries,
            o.big_sram_reads,
            o.dram_bytes,
            o.mlp_macs,
        ];
        let mut packed = [0u32; 8];
        for (p, v) in packed.iter_mut().zip(ops) {
            *p = v.try_into().ok()?;
        }
        Some(CachedCecdu {
            colliding: r.colliding,
            links_checked: r.links_checked.try_into().ok()?,
            cycles: r.cycles.try_into().ok()?,
            ops: packed,
        })
    }

    fn unpack(self) -> CecduResult {
        let [mults, adds, sram_reads, box_tests, cd_queries, big_sram_reads, dram_bytes, mlp_macs] =
            self.ops.map(u64::from);
        CecduResult {
            colliding: self.colliding,
            cycles: self.cycles.into(),
            links_checked: self.links_checked.into(),
            ops: OpCounter {
                mults,
                adds,
                sram_reads,
                box_tests,
                cd_queries,
                big_sram_reads,
                dram_bytes,
                mlp_macs,
            },
        }
    }
}

/// A CECDU bound to a robot and an environment octree.
///
/// The links attached to frame 0, the immobile base, stream the same OBB
/// for every pose, so their OOCD walk is the same too. The sim walks each
/// of them once, in [`CecduSim::new`], and [`CecduSim::check_pose`]
/// replays that walk's verdict, cycles and ops in the link's wave slot.
/// The result is exactly what walking every link gives. The
/// fault-injected path walks every link, so its fault draws keep their
/// order.
///
/// # Examples
///
/// ```
/// use mp_octree::{Scene, SceneConfig};
/// use mp_robot::RobotModel;
/// use mp_sim::{CecduConfig, IuKind};
/// use mpaccel_core::cecdu::CecduSim;
///
/// let scene = Scene::random(SceneConfig::paper(), 0);
/// let cecdu = CecduSim::new(
///     RobotModel::jaco2(),
///     scene.octree(),
///     CecduConfig::new(4, IuKind::MultiCycle),
/// );
/// let out = cecdu.check_pose(&cecdu.robot().home());
/// assert!(!out.colliding);
/// assert!(out.cycles > 0);
/// ```
#[derive(Clone, Debug)]
pub struct CecduSim {
    robot: RobotModel,
    octree: Octree,
    config: CecduConfig,
    // Per link, the replayed OOCD walk of a base-frame link (`None` for a
    // link that moves).
    static_links: Vec<Option<OocdResult>>,
}

impl CecduSim {
    /// Creates a CECDU for a robot in an environment, walking each
    /// base-frame link's OOCD once, through the OBB the OBB Generation
    /// Unit yields for it at every pose (frame 0 is the identity).
    pub fn new(robot: RobotModel, octree: Octree, config: CecduConfig) -> CecduSim {
        let base = Transform::identity();
        let static_links = robot
            .link_boxes()
            .iter()
            .map(|b| (b.frame() == 0).then(|| run_oocd(&octree, &b.place_fx(&base), config.iu)))
            .collect();
        CecduSim {
            robot,
            octree,
            config,
            static_links,
        }
    }

    /// The robot model.
    pub fn robot(&self) -> &RobotModel {
        &self.robot
    }

    /// The environment octree.
    pub fn octree(&self) -> &Octree {
        &self.octree
    }

    /// The hardware configuration.
    pub fn config(&self) -> CecduConfig {
        self.config
    }

    /// Runs one robot-pose collision query, cycle by cycle. A pose with a
    /// non-finite joint (NaN or ±inf) is rejected before OBB generation
    /// and reported as colliding.
    ///
    /// # Panics
    ///
    /// Panics if `pose.dof()` does not match the robot.
    pub fn check_pose(&self, pose: &JointConfig) -> CecduResult {
        self.query(pose, None)
    }

    /// [`CecduSim::check_pose`] answering a pose `cache` holds from it:
    /// the same result, process-wide metrics and span, without rerunning
    /// FK or the OOCD walks. `cache` must be used with this sim only.
    pub(crate) fn check_pose_cached(
        &self,
        pose: &JointConfig,
        cache: &mut PoseCache<CachedCecdu>,
    ) -> CecduResult {
        self.query(pose, Some(cache))
    }

    fn query(&self, pose: &JointConfig, cache: Option<&mut PoseCache<CachedCecdu>>) -> CecduResult {
        assert_eq!(pose.dof(), self.robot.dof(), "configuration DOF mismatch");
        mp_collision::metrics::record_pose_checks(1);
        if !pose.is_finite() {
            return non_finite_pose();
        }
        let span = mp_telemetry::span("core", "cecdu_pose");
        let out = match cache.and_then(|c| Some((c, PoseKey::new(pose)?))) {
            Some((cache, key)) => match cache.get(&key) {
                Some(cached) => cached.unpack(),
                None => {
                    let out = self.waves(pose, None).result;
                    if let Some(cached) = CachedCecdu::pack(&out) {
                        cache.insert(key, cached);
                    }
                    out
                }
            },
            None => self.waves(pose, None).result,
        };
        // Feed the process-wide CD energy counters so hardware-model pose
        // queries show up in `collision::metrics::energy_pj_total` next to
        // the software oracle's (node reads land in the same small-SRAM
        // class the software walk bills).
        mp_collision::metrics::record_pose_work(
            out.ops.sram_reads,
            out.ops.box_tests,
            out.ops.mults,
        );
        span.end_with(|| {
            mp_telemetry::arg2(
                "links",
                mp_telemetry::ArgValue::U64(out.links_checked as u64),
                "colliding",
                mp_telemetry::ArgValue::U64(out.colliding as u64),
            )
        });
        out
    }

    /// [`CecduSim::check_pose`] with fault injection.
    ///
    /// Each link OBB traversal runs through [`run_oocd_with_faults`] (SRAM
    /// upsets), and each link is additionally an opportunity for a
    /// [`FaultKind::Saturation`] event in the fixed-point intersection
    /// datapath, which inverts that link's verdict. With `detection`
    /// enabled, SRAM parity checks run and saturation raises the sticky
    /// overflow flag the Result Collector reads out; structural checks in
    /// the OOCD are always active. Early exit on a colliding link is
    /// preserved, so faults on later links may go unobserved — exactly as
    /// in hardware. A non-finite pose is rejected as colliding before any
    /// link is dispatched, so it injects no fault. Unlike
    /// [`CecduSim::check_pose`], it records no process-wide metrics and
    /// opens no span.
    pub fn check_pose_with_faults(
        &self,
        pose: &JointConfig,
        inj: &mut FaultInjector,
        detection: bool,
    ) -> FaultyCecduOutcome {
        assert_eq!(pose.dof(), self.robot.dof(), "configuration DOF mismatch");
        if !pose.is_finite() {
            return FaultyCecduOutcome {
                result: non_finite_pose(),
                detected: false,
                faults_injected: 0,
            };
        }
        self.waves(pose, Some((inj, detection)))
    }

    /// The one wave loop behind [`CecduSim::check_pose`] and
    /// [`CecduSim::check_pose_with_faults`]. `faults` attaches an injector
    /// and says whether detection is on; only then do links run through
    /// [`run_oocd_with_faults`] and draw a saturation event.
    ///
    /// Timing: links are dispatched to the OOCD array in synchronous waves
    /// of `n`; a wave starts once its last OBB has been generated and the
    /// previous wave has drained. Waves are evaluated lazily: only links
    /// the hardware actually dispatches get their Q3.12 OBB built from the
    /// per-link constants ([`LinkBox::place_fx`]: the centre and rotation
    /// quantized), run their OOCD traversal and draw faults, and early
    /// exit cancels the rest.
    ///
    /// [`LinkBox::place_fx`]: mp_robot::LinkBox::place_fx
    fn waves(
        &self,
        pose: &JointConfig,
        mut faults: Option<(&mut FaultInjector, bool)>,
    ) -> FaultyCecduOutcome {
        let mut frames = FK_SCRATCH.with(Cell::take);
        joint_frames_into(&self.robot, pose, OBB_GEN_TRIG, &mut frames);
        let boxes = self.robot.link_boxes();
        let iu = self.config.iu;

        let mut ops = OpCounter::default();
        let mut links_checked = 0usize;
        let mut colliding = false;
        let mut detected = false;
        let mut faults_injected = 0u32;
        let n = self.config.oocds.max(1);

        let ready = |i: usize| OBB_GEN_FIRST_READY + OBB_GEN_INTERVAL * i as u64;
        let mut t: u64 = 0;
        let mut i = 0usize;
        while i < boxes.len() {
            let wave_end_idx = (i + n).min(boxes.len());
            let start = t.max(ready(wave_end_idx - 1));
            let mut dur = 0u64;
            let wave = boxes[i..wave_end_idx]
                .iter()
                .zip(&self.static_links[i..wave_end_idx]);
            for (link, static_link) in wave {
                let obb = || link.place_fx(&frames[link.frame()]);
                let (r, link_colliding) = match faults.as_mut() {
                    None => {
                        let r = match static_link {
                            Some(r) => *r,
                            None => run_oocd(&self.octree, &obb(), iu),
                        };
                        (r, r.colliding)
                    }
                    Some((inj, detection)) => {
                        let f = run_oocd_with_faults(&self.octree, &obb(), iu, inj, *detection);
                        detected |= f.detected();
                        faults_injected += f.sram_upsets;
                        let mut link_colliding = f.result.colliding;
                        if inj.fires(FaultKind::Saturation) {
                            faults_injected += 1;
                            link_colliding = !link_colliding;
                            // The saturating adder sets a sticky overflow
                            // flag the Result Collector reads with the
                            // verdict.
                            detected |= *detection;
                        }
                        (f.result, link_colliding)
                    }
                };
                dur = dur.max(r.cycles);
                ops += r.ops;
                ops.mults += OBB_GEN_MULTS;
                // The OBB Generation Unit fetches the link's kinematic row
                // (DH parameters + box extents) from the unit's large
                // configuration SRAM once per generated link OBB.
                ops.big_sram_reads += 1;
                links_checked += 1;
                colliding |= link_colliding;
            }
            t = start + dur;
            if colliding {
                break; // Result Collector stops subsequent waves.
            }
            i = wave_end_idx;
        }
        FK_SCRATCH.set(frames);
        // +1 cycle for the Result Collector to report back.
        ops.cd_queries += 1;
        FaultyCecduOutcome {
            result: CecduResult {
                colliding,
                cycles: t + 1,
                links_checked,
                ops,
            },
            detected,
            faults_injected,
        }
    }
}

/// Outcome of one fault-injected CECDU pose query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultyCecduOutcome {
    /// The (possibly corrupted) query result. On detection the colliding
    /// verdict is the unit's conservative fallback; callers with a retry
    /// budget should re-dispatch instead.
    pub result: CecduResult,
    /// Whether any detection mechanism fired (SRAM parity, structural
    /// traversal checks, or the sticky saturation flag).
    pub detected: bool,
    /// Faults injected while evaluating this query (SRAM upsets observed
    /// by the traversals plus saturation events on checked links).
    pub faults_injected: u32,
}

/// A [`CollisionChecker`] adapter over a CECDU, so planners and the
/// software tooling can run directly on the hardware model. It
/// accumulates the functional stats of the clean (fault-free) model.
///
/// The clean model answers every pose the same way with the same ops, so
/// the adapter overrides [`CollisionChecker::replay_motion`]: a replayed
/// motion bills its recorded [`CdStats`] and the process-wide metrics
/// they count, without walking a pose.
#[derive(Clone, Debug)]
pub struct CecduChecker {
    sim: CecduSim,
    stats: CdStats,
}

impl CecduChecker {
    /// Wraps a CECDU simulation.
    pub fn new(sim: CecduSim) -> CecduChecker {
        CecduChecker {
            sim,
            stats: CdStats::default(),
        }
    }

    /// The wrapped simulation.
    pub fn sim(&self) -> &CecduSim {
        &self.sim
    }
}

impl CollisionChecker for CecduChecker {
    fn robot(&self) -> &RobotModel {
        self.sim.robot()
    }

    fn check_pose(&mut self, cfg: &JointConfig) -> bool {
        let out = self.sim.check_pose(cfg);
        self.stats.pose_queries += 1;
        self.stats.link_tests += out.links_checked as u64;
        self.stats.box_tests += out.ops.box_tests;
        self.stats.nodes_visited += out.ops.sram_reads;
        self.stats.mults += out.ops.mults;
        out.colliding
    }

    fn stats(&self) -> CdStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CdStats::default();
    }

    fn replay_motion(
        &mut self,
        _motion: &Motion,
        _step: f32,
        result: MotionResult,
        work: CdStats,
    ) -> MotionResult {
        self.stats.absorb(work);
        mp_collision::metrics::record_work(&work);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_collision::SoftwareChecker;
    use mp_octree::{Scene, SceneConfig};
    use mp_sim::IuKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trace_pose_cache_takes_36_kib() {
        let slot = std::mem::size_of::<(PoseKey, CachedCecdu)>();
        assert_eq!(slot, 72);
        assert_eq!(slot * mp_collision::pose_cache::POSE_CACHE_SLOTS, 36 * 1024);
    }

    #[test]
    fn cached_results_round_trip_and_oversized_ones_are_not_cached() {
        let sim = cecdu(4, 4, IuKind::MultiCycle);
        let out = sim.check_pose(&sim.robot().home());
        assert_eq!(CachedCecdu::pack(&out).unwrap().unpack(), out);
        let mut wide = out;
        wide.ops.mults = u64::from(u32::MAX) + 1;
        assert!(CachedCecdu::pack(&wide).is_none());
    }

    fn cecdu(seed: u64, oocds: usize, iu: IuKind) -> CecduSim {
        CecduSim::new(
            RobotModel::jaco2(),
            Scene::random(SceneConfig::paper(), seed).octree(),
            CecduConfig::new(oocds, iu),
        )
    }

    #[test]
    fn agrees_with_software_oracle() {
        // The hardware path (quantized geometry + approximate trig) may
        // disagree with the exact f32 oracle only on razor-thin cases.
        let mut rng = StdRng::seed_from_u64(21);
        let mut disagreements = 0;
        let mut total = 0;
        for seed in 0..4 {
            let scene = Scene::random(SceneConfig::paper(), seed);
            let hw = cecdu(seed, 4, IuKind::MultiCycle);
            let mut sw = SoftwareChecker::new(RobotModel::jaco2(), scene.octree());
            for _ in 0..100 {
                let pose = hw.robot().sample_config(&mut rng);
                let a = hw.check_pose(&pose).colliding;
                let b = sw.check_pose(&pose);
                total += 1;
                if a != b {
                    disagreements += 1;
                }
            }
        }
        assert!(
            disagreements * 50 <= total,
            "{disagreements}/{total} disagreements vs oracle"
        );
    }

    #[test]
    fn table1_latency_band() {
        // Table 1: 46–154 average cycles for the Jaco2 arm across the four
        // configurations; single/multi-cycle is the slowest, four/pipelined
        // the fastest.
        let mut rng = StdRng::seed_from_u64(5);
        let mut avg = |oocds: usize, iu: IuKind| -> f64 {
            let mut cy = 0u64;
            let mut n = 0u64;
            for seed in 0..5 {
                let unit = cecdu(seed, oocds, iu);
                for _ in 0..40 {
                    let pose = unit.robot().sample_config(&mut rng);
                    cy += unit.check_pose(&pose).cycles;
                    n += 1;
                }
            }
            cy as f64 / n as f64
        };
        let single_mc = avg(1, IuKind::MultiCycle);
        let single_p = avg(1, IuKind::Pipelined);
        let four_mc = avg(4, IuKind::MultiCycle);
        let four_p = avg(4, IuKind::Pipelined);
        // Shape: parallel < serial; pipelined <= multi-cycle.
        assert!(four_mc < single_mc, "{four_mc} !< {single_mc}");
        assert!(four_p <= four_mc + 1.0);
        assert!(single_p <= single_mc + 1.0);
        // Band: the paper reports 46–154; allow generous margins.
        assert!(
            (25.0..=220.0).contains(&single_mc),
            "single multi-cycle avg {single_mc}"
        );
        assert!(
            (20.0..=120.0).contains(&four_p),
            "four pipelined avg {four_p}"
        );
    }

    #[test]
    fn early_exit_skips_links() {
        // Bury the whole workspace in an obstacle right at the arm.
        let obs = mp_geometry::Aabb::new(
            mp_geometry::Vec3::new(0.0, 0.0, 0.35),
            mp_geometry::Vec3::splat(0.3),
        );
        let tree = mp_octree::Octree::build(&[obs], 4);
        let unit = CecduSim::new(
            RobotModel::jaco2(),
            tree,
            CecduConfig::new(1, IuKind::MultiCycle),
        );
        let out = unit.check_pose(&unit.robot().home());
        assert!(out.colliding);
        assert!(
            out.links_checked < unit.robot().link_count(),
            "checked {} links",
            out.links_checked
        );
    }

    #[test]
    fn more_oocds_never_check_fewer_links_but_run_faster() {
        let mut rng = StdRng::seed_from_u64(30);
        let one = cecdu(1, 1, IuKind::MultiCycle);
        let four = cecdu(1, 4, IuKind::MultiCycle);
        let mut t1 = 0u64;
        let mut t4 = 0u64;
        for _ in 0..80 {
            let pose = one.robot().sample_config(&mut rng);
            let a = one.check_pose(&pose);
            let b = four.check_pose(&pose);
            assert_eq!(a.colliding, b.colliding);
            t1 += a.cycles;
            t4 += b.cycles;
        }
        assert!(t4 < t1, "4-OOCD {t4} should beat 1-OOCD {t1}");
        // §7.2.2: the speedup is sub-linear (waves + early exit).
        assert!((t1 as f64 / t4 as f64) < 4.0);
    }

    #[test]
    fn checker_adapter_accumulates() {
        let mut chk = CecduChecker::new(cecdu(0, 4, IuKind::MultiCycle));
        let home = chk.robot().home();
        let _ = chk.check_pose(&home);
        let mut twice = chk.stats();
        assert!(twice.link_tests > 0);
        twice.absorb(twice);
        let _ = chk.check_pose(&home);
        assert_eq!(chk.stats(), twice);
        chk.reset_stats();
        assert_eq!(chk.stats(), CdStats::default());
    }

    #[test]
    #[should_panic(expected = "DOF mismatch")]
    fn wrong_dof_pose_rejected() {
        let unit = cecdu(0, 1, IuKind::MultiCycle);
        let _ = unit.check_pose(&JointConfig::zeros(9));
    }
}
