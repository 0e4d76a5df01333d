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

use std::cell::Cell;

use mp_collision::{CdStats, CollisionChecker};
use mp_geometry::cascade::CascadeConfig;
use mp_geometry::{Obb, Transform};
use mp_octree::Octree;
use mp_robot::fk::link_obbs_into;
use mp_robot::trig::TRIG_LATENCY_CYCLES;
use mp_robot::{JointConfig, RobotModel, TrigMode};
use mp_sim::fault::FaultKind;
use mp_sim::{CecduConfig, FaultInjector, OpCounter};

use crate::oocd::{run_oocd, run_oocd_with_faults, OocdConfig};

thread_local! {
    // FK scratch reused across pose queries (`CecduSim` is stateless by
    // design — many callers share one sim immutably — so the per-pose
    // buffers live here, like the OOCD traversal scratch).
    static FK_SCRATCH: Cell<(Vec<Transform>, Vec<Obb<f32>>)> = Cell::default();
}

/// Cycles from pose arrival until the first link OBB is ready: the trig
/// pipeline depth plus the matrix-multiply/add stage.
pub const OBB_GEN_FIRST_READY: u64 = TRIG_LATENCY_CYCLES as u64 + 3;

/// Cycles between consecutive link OBBs (the trig unit and matrix stage are
/// pipelined across links).
pub const OBB_GEN_INTERVAL: u64 = 2;

/// Multiplications per generated link OBB (4×4 transform compose + box
/// rotation): counted into the energy proxy.
const OBB_GEN_MULTS: u64 = 24;

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

/// A CECDU bound to a robot and an environment octree.
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
    cascade: CascadeConfig,
    trig: TrigMode,
}

impl CecduSim {
    /// Creates a CECDU for a robot in an environment.
    pub fn new(robot: RobotModel, octree: Octree, config: CecduConfig) -> CecduSim {
        CecduSim {
            robot,
            octree,
            config,
            cascade: CascadeConfig::proposed(),
            trig: TrigMode::Hardware,
        }
    }

    /// Overrides the intersection cascade (for the §7.2.1 ablations).
    pub fn with_cascade(mut self, cascade: CascadeConfig) -> CecduSim {
        self.cascade = cascade;
        self
    }

    /// Uses exact trigonometry instead of the hardware approximation.
    pub fn with_exact_trig(mut self) -> CecduSim {
        self.trig = TrigMode::Exact;
        self
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

    /// Replaces the environment (sensor update).
    pub fn set_octree(&mut self, octree: Octree) {
        self.octree = octree;
    }

    /// Runs one robot-pose collision query, cycle by cycle. A pose with a
    /// non-finite joint (NaN or ±inf) is rejected before OBB generation
    /// and reported as colliding.
    ///
    /// # Panics
    ///
    /// Panics if `pose.dof()` does not match the robot.
    pub fn check_pose(&self, pose: &JointConfig) -> CecduResult {
        assert_eq!(pose.dof(), self.robot.dof(), "configuration DOF mismatch");
        mp_collision::metrics::record_pose_checks(1);
        if !pose.is_finite() {
            return non_finite_pose();
        }
        #[cfg(feature = "telemetry")]
        let tele_span = mp_telemetry::sampled_span("core", "cecdu_pose");
        let (mut frames, mut obbs) = FK_SCRATCH.with(Cell::take);
        link_obbs_into(&self.robot, pose, self.trig, &mut frames, &mut obbs);
        let oocd_cfg = OocdConfig {
            iu: self.config.iu,
            cascade: self.cascade,
        };

        let mut ops = OpCounter::default();
        let mut links_checked = 0usize;
        let mut colliding = false;
        let n = self.config.oocds.max(1);

        // Timing: links are dispatched to the OOCD array in synchronous
        // waves of `n`; a wave starts once its last OBB has been generated
        // and the previous wave has drained. Waves are evaluated lazily —
        // only links the hardware actually dispatches run their OOCD
        // traversal (early exit cancels the rest), which is what the
        // cycle/op totals counted all along.
        let ready = |i: usize| OBB_GEN_FIRST_READY + OBB_GEN_INTERVAL * i as u64;
        let mut t: u64 = 0;
        let mut i = 0usize;
        while i < obbs.len() {
            let wave_end_idx = (i + n).min(obbs.len());
            let start = t.max(ready(wave_end_idx - 1));
            let mut dur = 0u64;
            for obb in &obbs[i..wave_end_idx] {
                let r = run_oocd(&self.octree, &obb.quantize(), &oocd_cfg);
                dur = dur.max(r.cycles);
                ops += r.ops;
                ops.mults += OBB_GEN_MULTS;
                // The OBB Generation Unit fetches the link's kinematic row
                // (DH parameters + box extents) from the unit's large
                // configuration SRAM once per generated link OBB.
                ops.big_sram_reads += 1;
                links_checked += 1;
                if r.colliding {
                    colliding = true;
                }
            }
            t = start + dur;
            if colliding {
                break; // Result Collector stops subsequent waves.
            }
            i = wave_end_idx;
        }
        FK_SCRATCH.set((frames, obbs));
        // +1 cycle for the Result Collector to report back.
        ops.cd_queries += 1;
        // Feed the process-wide CD energy counters so hardware-model pose
        // queries show up in `collision::metrics::energy_pj_total` next to
        // the software oracle's (node reads land in the same small-SRAM
        // class the software walk bills).
        mp_collision::metrics::record_pose_work(ops.sram_reads, ops.box_tests, ops.mults);
        #[cfg(feature = "telemetry")]
        tele_span.end_with(|| {
            mp_telemetry::arg2(
                "links",
                mp_telemetry::ArgValue::U64(links_checked as u64),
                "colliding",
                mp_telemetry::ArgValue::U64(colliding as u64),
            )
        });
        CecduResult {
            colliding,
            cycles: t + 1,
            links_checked,
            ops,
        }
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
    /// link is dispatched, so it injects no fault.
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
        let (mut frames, mut obbs) = FK_SCRATCH.with(Cell::take);
        link_obbs_into(&self.robot, pose, self.trig, &mut frames, &mut obbs);
        let oocd_cfg = OocdConfig {
            iu: self.config.iu,
            cascade: self.cascade,
        };

        let mut ops = OpCounter::default();
        let mut links_checked = 0usize;
        let mut colliding = false;
        let mut detected = false;
        let mut faults_injected = 0u32;
        let n = self.config.oocds.max(1);

        // Waves are evaluated lazily so faults are only injected on links
        // the hardware actually dispatches (early exit cancels the rest).
        let ready = |i: usize| OBB_GEN_FIRST_READY + OBB_GEN_INTERVAL * i as u64;
        let mut t: u64 = 0;
        let mut i = 0usize;
        while i < obbs.len() {
            let wave_end_idx = (i + n).min(obbs.len());
            let start = t.max(ready(wave_end_idx - 1));
            let mut dur = 0u64;
            for obb in &obbs[i..wave_end_idx] {
                let f =
                    run_oocd_with_faults(&self.octree, &obb.quantize(), &oocd_cfg, inj, detection);
                let mut link_colliding = f.result.colliding;
                if f.detected() {
                    detected = true;
                }
                faults_injected += f.sram_upsets;
                if inj.fires(FaultKind::Saturation) {
                    faults_injected += 1;
                    link_colliding = !link_colliding;
                    if detection {
                        // The saturating adder sets a sticky overflow flag
                        // the Result Collector reads with the verdict.
                        detected = true;
                    }
                }
                dur = dur.max(f.result.cycles);
                ops += f.result.ops;
                ops.mults += OBB_GEN_MULTS;
                ops.big_sram_reads += 1;
                links_checked += 1;
                if link_colliding {
                    colliding = true;
                }
            }
            t = start + dur;
            if colliding {
                break; // Result Collector stops subsequent waves.
            }
            i = wave_end_idx;
        }
        FK_SCRATCH.set((frames, obbs));
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
/// software tooling can run directly on the hardware model. Accumulates
/// both functional stats and total busy cycles.
#[derive(Clone, Debug)]
pub struct CecduChecker {
    sim: CecduSim,
    stats: CdStats,
    busy_cycles: u64,
}

impl CecduChecker {
    /// Wraps a CECDU simulation.
    pub fn new(sim: CecduSim) -> CecduChecker {
        CecduChecker {
            sim,
            stats: CdStats::default(),
            busy_cycles: 0,
        }
    }

    /// Total cycles the CECDU spent on queries so far.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
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
        self.busy_cycles += out.cycles;
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
        self.busy_cycles = 0;
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
        let _ = chk.check_pose(&home);
        assert_eq!(chk.stats().pose_queries, 2);
        assert!(chk.busy_cycles() > 0);
        chk.reset_stats();
        assert_eq!(chk.stats().pose_queries, 0);
        assert_eq!(chk.busy_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "DOF mismatch")]
    fn wrong_dof_pose_rejected() {
        let unit = cecdu(0, 1, IuKind::MultiCycle);
        let _ = unit.check_pose(&JointConfig::zeros(9));
    }
}
