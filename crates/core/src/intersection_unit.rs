//! Cycle-level model of the Intersection Unit (§5.2).
//!
//! The Intersection Unit executes the cascaded early-exit flow of Fig 10 on
//! 16-bit fixed-point operands. Two designs exist (§5.2):
//!
//! * **multi-cycle** — one cascade stage per cycle; the unit is busy until
//!   the test exits (1–4 cycles), and the Node Processing Unit only issues
//!   the next query when the unit is free;
//! * **pipelined** — the four stages form a pipeline with initiation
//!   interval 1, so a query can be issued every cycle at a fixed latency.
//!
//! The unit runs the paper's proposed cascade only: both sphere filters in
//! the first stage, then the 6-5-4 SAT stages. The §7.2.1 ablations run on
//! the scalar `mp_geometry::cascade::cascaded_obb_aabb`, not on this
//! model.

use mp_geometry::cascade::{CascadeOutcome, ExitStage};
use mp_geometry::soa::HoistedCascade;
use mp_geometry::{FxAabb, FxObb};
use mp_sim::{IuKind, OpCounter};

/// Pipeline depth of the pipelined Intersection Unit: sphere filters + three
/// SAT stages.
pub const IU_PIPELINE_DEPTH: u32 = 4;

/// The outcome of one intersection test executed by the unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IuOutcome {
    /// Whether the OBB and AABB overlap.
    pub colliding: bool,
    /// Which cascade stage resolved the test.
    pub exit: ExitStage,
    /// Cycles from issue until the result is available.
    pub latency: u32,
    /// Cycles until the unit can accept the next query (multi-cycle:
    /// = stages executed; pipelined: 1).
    pub initiation_interval: u32,
    /// Work spent.
    pub ops: OpCounter,
}

/// Executes one cascaded intersection test (Fig 10) on the fixed-point
/// datapath.
///
/// # Examples
///
/// ```
/// use mp_geometry::{Aabb, Obb, Vec3};
/// use mp_sim::IuKind;
/// use mpaccel_core::intersection_unit::execute;
///
/// let obb = Obb::axis_aligned(Vec3::new(0.9, 0.9, 0.9), Vec3::splat(0.05)).quantize();
/// let aabb = Aabb::new(Vec3::zero(), Vec3::splat(0.25)).quantize();
/// let out = execute(&obb, &aabb, IuKind::MultiCycle);
/// assert!(!out.colliding);
/// assert_eq!(out.latency, 1); // far apart: bounding-sphere filter, 1 cycle
/// ```
pub fn execute(obb: &FxObb, aabb: &FxAabb, kind: IuKind) -> IuOutcome {
    let (c, h) = (aabb.center, aabb.half);
    let out = HoistedCascade::new(obb).outcome(c.x, c.y, c.z, h.x, h.y, h.z);
    outcome_from_cascade(&out, kind)
}

/// Applies the unit's timing model to an already-evaluated cascade outcome.
///
/// [`execute`] is the single-pair form; the OOCD traversal runs one
/// [`HoistedCascade`] per link OBB across every box it tests and feeds
/// each [`CascadeOutcome`] through here, so the cycle/op accounting is
/// shared between the two.
pub(crate) fn outcome_from_cascade(out: &CascadeOutcome, kind: IuKind) -> IuOutcome {
    let ops = OpCounter {
        mults: out.mults as u64,
        box_tests: 1,
        ..OpCounter::default()
    };
    match kind {
        IuKind::MultiCycle => {
            // The multi-cycle unit iterates its SAT stages over a narrow
            // multiplier array (hence its smaller area in Table 2): the
            // sphere filters take one cycle, each executed SAT batch two.
            let sat_stages = out.stages_executed - 1;
            let latency = 1 + 2 * sat_stages;
            IuOutcome {
                colliding: out.colliding,
                exit: out.exit,
                latency,
                initiation_interval: latency,
                ops,
            }
        }
        IuKind::Pipelined => IuOutcome {
            colliding: out.colliding,
            exit: out.exit,
            latency: IU_PIPELINE_DEPTH,
            initiation_interval: 1,
            ops,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_geometry::cascade::{cascaded_obb_aabb, CascadeConfig};
    use mp_geometry::sat::sat_first_separating;
    use mp_geometry::{Aabb, Mat3, Obb, Vec3};

    fn fx(obb: Obb, aabb: Aabb<f32>) -> (FxObb, FxAabb) {
        (obb.quantize(), aabb.quantize())
    }

    #[test]
    fn multi_cycle_latency_tracks_exit_stage() {
        let (far, aabb) = fx(
            Obb::axis_aligned(Vec3::new(0.9, 0.9, 0.9), Vec3::splat(0.05)),
            Aabb::new(Vec3::zero(), Vec3::splat(0.2)),
        );
        let out = execute(&far, &aabb, IuKind::MultiCycle);
        assert_eq!(out.latency, 1);
        assert_eq!(out.initiation_interval, 1);
        assert_eq!(out.ops.mults, 3);
        assert!(!out.colliding);
    }

    #[test]
    fn pipelined_latency_is_fixed() {
        let (far, aabb) = fx(
            Obb::axis_aligned(Vec3::new(0.9, 0.9, 0.9), Vec3::splat(0.05)),
            Aabb::new(Vec3::zero(), Vec3::splat(0.2)),
        );
        let out = execute(&far, &aabb, IuKind::Pipelined);
        assert_eq!(out.latency, IU_PIPELINE_DEPTH);
        assert_eq!(out.initiation_interval, 1);
    }

    #[test]
    fn deep_overlap_resolves_in_one_cycle() {
        let (deep, aabb) = fx(
            Obb::axis_aligned(Vec3::zero(), Vec3::splat(0.05)),
            Aabb::new(Vec3::zero(), Vec3::splat(0.5)),
        );
        let out = execute(&deep, &aabb, IuKind::MultiCycle);
        assert!(out.colliding);
        assert_eq!(out.exit, ExitStage::InscribedSphere);
        assert_eq!(out.latency, 1);
        assert_eq!(out.ops.mults, 6);
    }

    #[test]
    fn cascade_and_sat_agree_on_outcome() {
        // The unit's outcome is the scalar proposed cascade's, and its
        // verdict plain SAT's, on fixed boxes and on rotated ones around
        // the AABB, of which 8 reach a SAT stage.
        let mut boxes = vec![
            (Vec3::new(0.3, 0.2, -0.1), Vec3::splat(0.2), 0.3),
            (Vec3::new(0.9, -0.8, 0.4), Vec3::splat(0.1), 0.3),
            (Vec3::new(0.0, 0.0, 0.0), Vec3::splat(0.15), 0.3),
            (Vec3::new(0.45, 0.45, 0.45), Vec3::splat(0.12), 0.3),
        ];
        for i in 0..40 {
            let f = i as f32;
            let c = Vec3::new((f * 0.37).sin() * 0.7, (f * 0.21).cos() * 0.7, 0.1);
            boxes.push((c, Vec3::new(0.2, 0.1, 0.05), f * 0.4));
        }
        let aabb = Aabb::new(Vec3::new(0.2, 0.1, 0.0), Vec3::splat(0.25)).quantize();
        let mut sat = 0;
        for (c, h, angle) in boxes {
            let obb = Obb::new(c, h, Mat3::rotation_y(angle)).quantize();
            let want = cascaded_obb_aabb(&obb, &aabb, &CascadeConfig::proposed());
            assert_eq!(
                want.colliding,
                sat_first_separating(&obb, &aabb).colliding()
            );
            for kind in [IuKind::MultiCycle, IuKind::Pipelined] {
                let out = execute(&obb, &aabb, kind);
                assert_eq!(
                    (out.colliding, out.exit),
                    (want.colliding, want.exit),
                    "at {c:?}"
                );
                assert_eq!(out.ops.mults, u64::from(want.mults));
            }
            let mc = execute(&obb, &aabb, IuKind::MultiCycle);
            assert_eq!(mc.latency, 2 * want.stages_executed - 1, "at {c:?}");
            sat += u32::from(want.stages_executed > 1);
        }
        assert!(sat >= 8, "only {sat} pairs reached a SAT stage");
    }
}
