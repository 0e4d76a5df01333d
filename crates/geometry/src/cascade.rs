//! The cascaded early-exit intersection test of Fig 10.
//!
//! The flow filters "easy" cases with cheap sphere tests before falling back
//! to the staged separating-axis test:
//!
//! 1. **Bounding-sphere filter** (Fig 9a): if the OBB's bounding sphere does
//!    not touch the AABB, the boxes cannot collide → early exit
//!    *collision-free* after 3 multiplications.
//! 2. **Inscribed-sphere filter** (Fig 9b): if the OBB's inscribed sphere
//!    overlaps the AABB, the boxes definitely collide → early exit
//!    *colliding*. This captures the dominant colliding case where a large
//!    octree-level AABB swallows a small link OBB (§4: ~85 % of colliding
//!    cases involve level-1/2 octants).
//! 3. **Staged SAT**: the 15 separating-axis candidates run in batches of
//!    6‑5‑4 (chosen from the Fig 8b distribution); a later stage executes
//!    only if the previous one found no separating axis.
//!
//! [`cascaded_obb_aabb`] is the scalar reference of this flow. It takes a
//! [`CascadeConfig`], so the §7.2.1 ablations (no filters, the bounding
//! filter alone, other stage splits) run on it. The production kernel,
//! [`HoistedCascade`](crate::soa::HoistedCascade), runs only the proposed
//! flow, and equals `cascaded_obb_aabb` under [`CascadeConfig::proposed`]
//! bit for bit.
//!
//! # Examples
//!
//! ```
//! use mp_geometry::{Aabb, Obb, Vec3};
//! use mp_geometry::cascade::{CascadeConfig, ExitStage, cascaded_obb_aabb};
//!
//! let obb = Obb::axis_aligned(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.1, 0.1, 0.1));
//! let near = Aabb::new(Vec3::new(0.05, 0.0, 0.0), Vec3::new(0.1, 0.1, 0.1));
//! let far = Aabb::new(Vec3::new(0.9, 0.9, 0.9), Vec3::new(0.05, 0.05, 0.05));
//!
//! let cfg = CascadeConfig::proposed();
//! assert!(cascaded_obb_aabb(&obb, &near, &cfg).colliding);
//! let miss = cascaded_obb_aabb(&obb, &far, &cfg);
//! assert!(!miss.colliding);
//! // Far-apart objects are filtered by the bounding-sphere test in one stage.
//! assert_eq!(miss.exit, ExitStage::BoundingSphere);
//! ```

use crate::aabb::Aabb;
use crate::obb::Obb;
use crate::sat::{sat_batch_range, stage_mult_counts, AxisId, SatResult};
use crate::scalar::Scalar;
use crate::sphere::SPHERE_AABB_MULS;

/// How the 15 axis tests are split across SAT stages.
///
/// # Examples
///
/// ```
/// use mp_geometry::cascade::StageSplit;
/// assert_eq!(StageSplit::default(), StageSplit::new([6, 5, 4]));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StageSplit {
    sizes: [u8; 3],
}

impl StageSplit {
    /// Creates a split from three stage sizes.
    ///
    /// # Panics
    ///
    /// Panics unless the sizes sum to 15 and each stage is non-empty.
    pub fn new(sizes: [u8; 3]) -> StageSplit {
        assert_eq!(
            sizes.iter().map(|&s| s as u32).sum::<u32>(),
            15,
            "stage sizes must cover all 15 axes"
        );
        assert!(sizes.iter().all(|&s| s > 0), "stages must be non-empty");
        StageSplit { sizes }
    }

    /// The stage sizes.
    #[inline]
    pub const fn sizes(&self) -> [u8; 3] {
        self.sizes
    }

    /// The 1-based `(start, len)` axis range of stage `k` (0-based), in
    /// [`AxisId`] order.
    ///
    /// # Panics
    ///
    /// Panics if `k > 2`.
    #[inline]
    pub fn stage_range(&self, k: usize) -> (u8, u8) {
        assert!(k < 3, "stage index out of range: {k}");
        let start: u8 = 1 + self.sizes[..k].iter().sum::<u8>();
        (start, self.sizes[k])
    }
}

/// The paper's 6‑5‑4 split (§4), the one the production kernel runs.
pub(crate) const PAPER_SPLIT: StageSplit = StageSplit { sizes: [6, 5, 4] };

/// Multiplications of each SAT stage of [`PAPER_SPLIT`].
pub(crate) const PAPER_STAGE_MULS: [u32; 3] = stage_mult_counts(PAPER_SPLIT.sizes);

impl Default for StageSplit {
    /// The paper's 6‑5‑4 split (§4).
    fn default() -> StageSplit {
        PAPER_SPLIT
    }
}

/// Configuration of the scalar [`cascaded_obb_aabb`] (which filters are
/// enabled and how the SAT stages are split). The default matches the
/// paper's proposed design, the only one the production kernel runs; the
/// other combinations reproduce the ablations of §7.2.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CascadeConfig {
    /// Enable the bounding-sphere early-out for far-apart objects.
    pub bounding_sphere_filter: bool,
    /// Enable the inscribed-sphere early-out for deeply overlapping objects.
    pub inscribed_sphere_filter: bool,
    /// The SAT stage split.
    pub split: StageSplit,
}

impl CascadeConfig {
    /// The full proposed design: both filters + 6‑5‑4 staging.
    pub fn proposed() -> CascadeConfig {
        CascadeConfig {
            bounding_sphere_filter: true,
            inscribed_sphere_filter: true,
            split: StageSplit::default(),
        }
    }

    /// Baseline without sphere filters (staged SAT only).
    pub fn without_filters() -> CascadeConfig {
        CascadeConfig {
            bounding_sphere_filter: false,
            inscribed_sphere_filter: false,
            split: StageSplit::default(),
        }
    }

    /// Only the bounding-sphere filter (the §7.2.1 intermediate ablation).
    pub fn bounding_only() -> CascadeConfig {
        CascadeConfig {
            inscribed_sphere_filter: false,
            ..CascadeConfig::proposed()
        }
    }
}

impl Default for CascadeConfig {
    fn default() -> CascadeConfig {
        CascadeConfig::proposed()
    }
}

/// Which stage of the cascade produced the final answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExitStage {
    /// The bounding-sphere filter proved the pair collision-free.
    BoundingSphere,
    /// The inscribed-sphere filter proved the pair colliding.
    InscribedSphere,
    /// SAT stage `k` (1-based) found a separating axis (collision-free).
    Sat(u8),
    /// All 15 axes were tested without finding a separating axis (colliding).
    Exhausted,
}

impl ExitStage {
    /// The cycle in which a multi-cycle Intersection Unit exits with this
    /// outcome (Fig 18b plots this "exit cycle" breakdown). Stage order:
    /// cycle 1 = spheres (both filters share the first cycle's datapath),
    /// cycles 2–4 = SAT stages, and an exhausted test leaves in cycle 4.
    pub fn exit_cycle(self) -> u32 {
        match self {
            ExitStage::BoundingSphere | ExitStage::InscribedSphere => 1,
            ExitStage::Sat(k) => 1 + k as u32,
            ExitStage::Exhausted => 4,
        }
    }
}

/// The outcome of one cascaded OBB–AABB intersection test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CascadeOutcome {
    /// Whether the boxes overlap.
    pub colliding: bool,
    /// Which stage resolved the query.
    pub exit: ExitStage,
    /// The separating axis, when SAT found one.
    pub separating_axis: Option<AxisId>,
    /// Multiplications spent (the paper's computation/energy proxy).
    pub mults: u32,
    /// Datapath stages actually executed (= busy cycles of the multi-cycle
    /// Intersection Unit).
    pub stages_executed: u32,
}

/// Runs the cascaded early-exit intersection test of Fig 10.
///
/// Works for both the `f32` reference scalars and the fixed-point hardware
/// scalars. The result is exact with respect to the *given* (possibly
/// quantized) boxes.
pub fn cascaded_obb_aabb<S: Scalar>(
    obb: &Obb<S>,
    aabb: &Aabb<S>,
    cfg: &CascadeConfig,
) -> CascadeOutcome {
    let mut mults = 0;
    let mut stages = 0;

    // Stage 1: sphere filters. The hardware evaluates both sphere tests in
    // the same cycle (shared subtract/square datapath); multiplications are
    // counted per executed test.
    if cfg.bounding_sphere_filter || cfg.inscribed_sphere_filter {
        stages += 1;
    }
    if cfg.bounding_sphere_filter {
        mults += SPHERE_AABB_MULS;
        if !sphere_overlaps(obb, aabb, obb.bounding_radius) {
            return CascadeOutcome {
                colliding: false,
                exit: ExitStage::BoundingSphere,
                separating_axis: None,
                mults,
                stages_executed: stages,
            };
        }
    }
    if cfg.inscribed_sphere_filter {
        mults += SPHERE_AABB_MULS;
        if sphere_overlaps(obb, aabb, obb.inscribed_radius) {
            return CascadeOutcome {
                colliding: true,
                exit: ExitStage::InscribedSphere,
                separating_axis: None,
                mults,
                stages_executed: stages,
            };
        }
    }

    // Stages 2-4: separating-axis batches (contiguous ranges — no per-call
    // id buffer).
    for k in 0..3 {
        let (start, len) = cfg.split.stage_range(k);
        let SatResult {
            separating,
            mults: stage_mults,
            ..
        } = sat_batch_range(obb, aabb, start, len);
        mults += stage_mults;
        stages += 1;
        if let Some(axis) = separating {
            return CascadeOutcome {
                colliding: false,
                exit: ExitStage::Sat(k as u8 + 1),
                separating_axis: Some(axis),
                mults,
                stages_executed: stages,
            };
        }
    }

    CascadeOutcome {
        colliding: true,
        exit: ExitStage::Exhausted,
        separating_axis: None,
        mults,
        stages_executed: stages,
    }
}

/// Sphere–AABB overlap with the sphere centered at the OBB center and the
/// given radius, in the scalar's native arithmetic.
///
/// For `Fx` this is the saturating Q3.12 chain (each square rounded to
/// Q3.12, sums clamped at the rail) that the OOCD model runs through
/// [`HoistedCascade`](crate::soa::HoistedCascade), whose
/// [`Scalar::box_dist2`] computes the same value in `i32`. The
/// wide-accumulator `Sphere<Fx>::overlaps_aabb` is a different test that
/// keeps the squares at Q6.24 and can disagree with it near the boundary.
fn sphere_overlaps<S: Scalar>(obb: &Obb<S>, aabb: &Aabb<S>, radius: S) -> bool {
    crate::sphere::sphere_aabb_overlap(obb.center, radius, aabb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::sat_first_separating;
    use crate::{AabbF, Mat3, Obb, Vec3};

    fn unit_aabb() -> AabbF {
        AabbF::new(Vec3::zero(), Vec3::splat(0.5))
    }

    #[test]
    fn stage_split_default_and_ranges() {
        let s = StageSplit::default();
        assert_eq!(s.sizes(), [6, 5, 4]);
        assert_eq!(s.stage_range(0), (1, 6));
        assert_eq!(s.stage_range(1), (7, 5));
        assert_eq!(s.stage_range(2), (12, 4));
        assert_eq!(StageSplit::new([5, 5, 5]).stage_range(2), (11, 5));
    }

    #[test]
    fn paper_stage_mults_are_what_each_stage_spends() {
        use crate::sat::SAT_ALL_MULS;
        assert_eq!(PAPER_STAGE_MULS.iter().sum::<u32>(), SAT_ALL_MULS);
        let obb = Obb::axis_aligned(Vec3::new(0.4, 0.0, 0.0), Vec3::splat(0.5));
        for (k, &muls) in PAPER_STAGE_MULS.iter().enumerate() {
            let (start, len) = PAPER_SPLIT.stage_range(k);
            assert_eq!(
                muls,
                sat_batch_range(&obb, &unit_aabb(), start, len).mults,
                "stage {k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cover all 15")]
    fn stage_split_must_sum_to_15() {
        let _ = StageSplit::new([6, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stage_range_bounds() {
        let _ = StageSplit::default().stage_range(3);
    }

    #[test]
    fn far_apart_exits_at_bounding_sphere() {
        let obb = Obb::axis_aligned(Vec3::new(3.0, 3.0, 3.0), Vec3::splat(0.2));
        let out = cascaded_obb_aabb(&obb, &unit_aabb(), &CascadeConfig::proposed());
        assert!(!out.colliding);
        assert_eq!(out.exit, ExitStage::BoundingSphere);
        assert_eq!(out.mults, 3);
        assert_eq!(out.stages_executed, 1);
        assert_eq!(out.exit.exit_cycle(), 1);
    }

    #[test]
    fn deep_overlap_exits_at_inscribed_sphere() {
        // Small OBB fully inside a big AABB: inscribed sphere overlaps.
        let big = AabbF::new(Vec3::zero(), Vec3::splat(1.0));
        let obb = Obb::axis_aligned(Vec3::new(0.1, 0.0, 0.0), Vec3::splat(0.1));
        let out = cascaded_obb_aabb(&obb, &big, &CascadeConfig::proposed());
        assert!(out.colliding);
        assert_eq!(out.exit, ExitStage::InscribedSphere);
        assert_eq!(out.mults, 6); // both sphere tests ran
        assert_eq!(out.stages_executed, 1);
    }

    #[test]
    fn near_miss_falls_through_to_sat() {
        // Bounding spheres overlap but boxes do not: diagonal near-miss.
        let rot = Mat3::rotation_z(core::f32::consts::FRAC_PI_4);
        let obb = Obb::new(Vec3::new(0.95, 0.95, 0.0), Vec3::new(0.5, 0.1, 0.5), rot);
        let out = cascaded_obb_aabb(&obb, &unit_aabb(), &CascadeConfig::proposed());
        assert!(!out.colliding);
        assert!(matches!(out.exit, ExitStage::Sat(_)));
        assert!(out.mults > 6);
    }

    #[test]
    fn grazing_collision_exhausts_all_axes() {
        // Overlapping, but too shallow for the inscribed sphere to prove it.
        let rot = Mat3::rotation_z(0.4);
        let obb = Obb::new(Vec3::new(0.62, 0.0, 0.0), Vec3::new(0.2, 0.05, 0.05), rot);
        let reference = sat_first_separating(&obb, &unit_aabb());
        assert!(reference.colliding(), "fixture must collide");
        let out = cascaded_obb_aabb(&obb, &unit_aabb(), &CascadeConfig::proposed());
        assert!(out.colliding);
        assert_eq!(out.exit, ExitStage::Exhausted);
        assert_eq!(out.exit.exit_cycle(), 4);
        // Both spheres + all 15 axes.
        assert_eq!(out.mults, 6 + 81);
        assert_eq!(out.stages_executed, 4);
    }

    #[test]
    fn cascade_agrees_with_plain_sat_on_a_grid() {
        // Exhaustive-ish sweep: cascade and plain SAT must always agree.
        let cfg = CascadeConfig::proposed();
        let aabb = unit_aabb();
        let rots = [
            Mat3::identity(),
            Mat3::rotation_z(0.7),
            Mat3::rotation_x(1.2) * Mat3::rotation_y(-0.5),
        ];
        let mut checked = 0;
        for rot in rots {
            for xi in -6..=6 {
                for yi in -4..=4 {
                    let center = Vec3::new(xi as f32 * 0.25, yi as f32 * 0.25, 0.1);
                    let obb = Obb::new(center, Vec3::new(0.3, 0.15, 0.1), rot);
                    let want = sat_first_separating(&obb, &aabb).colliding();
                    let got = cascaded_obb_aabb(&obb, &aabb, &cfg).colliding;
                    assert_eq!(got, want, "disagreement at {center:?} rot {rot:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 300);
    }

    #[test]
    fn disabled_filters_skip_sphere_stage() {
        let obb = Obb::axis_aligned(Vec3::new(3.0, 3.0, 3.0), Vec3::splat(0.2));
        let out = cascaded_obb_aabb(&obb, &unit_aabb(), &CascadeConfig::without_filters());
        assert!(!out.colliding);
        assert!(matches!(out.exit, ExitStage::Sat(1)));
        assert_eq!(out.mults, 27); // stage-1 axes only
        assert_eq!(out.stages_executed, 1);
    }

    #[test]
    fn bounding_only_config_detects_far_case_but_not_deep_case() {
        let cfg = CascadeConfig::bounding_only();
        let far = Obb::axis_aligned(Vec3::new(3.0, 0.0, 0.0), Vec3::splat(0.2));
        assert_eq!(
            cascaded_obb_aabb(&far, &unit_aabb(), &cfg).exit,
            ExitStage::BoundingSphere
        );
        let big = AabbF::new(Vec3::zero(), Vec3::splat(1.0));
        let deep = Obb::axis_aligned(Vec3::zero(), Vec3::splat(0.05));
        let out = cascaded_obb_aabb(&deep, &big, &cfg);
        assert!(out.colliding);
        assert_eq!(out.exit, ExitStage::Exhausted); // no inscribed shortcut
    }

    #[test]
    fn fixed_point_cascade_agrees_on_clear_cases() {
        let cfg = CascadeConfig::proposed();
        let aabb = unit_aabb();
        let rot = Mat3::rotation_y(0.9);
        let hit = Obb::new(Vec3::new(0.2, -0.1, 0.3), Vec3::new(0.3, 0.2, 0.1), rot);
        let miss = Obb::new(Vec3::new(2.0, 2.0, 2.0), Vec3::new(0.3, 0.2, 0.1), rot);
        assert!(cascaded_obb_aabb(&hit, &aabb, &cfg).colliding);
        assert!(cascaded_obb_aabb(&hit.quantize(), &aabb.quantize(), &cfg).colliding);
        assert!(!cascaded_obb_aabb(&miss, &aabb, &cfg).colliding);
        assert!(!cascaded_obb_aabb(&miss.quantize(), &aabb.quantize(), &cfg).colliding);
    }

    #[test]
    fn ablation_splits_are_equivalent_in_outcome() {
        // 5-5-5 and 6-5-4 must classify identically (only cost differs).
        let cfg_a = CascadeConfig::proposed();
        let cfg_b = CascadeConfig {
            split: StageSplit::new([5, 5, 5]),
            ..CascadeConfig::proposed()
        };
        let aabb = unit_aabb();
        for i in 0..20 {
            let angle = i as f32 * 0.3;
            let obb = Obb::new(
                Vec3::new((i as f32 * 0.11).sin(), 0.3, -0.2),
                Vec3::new(0.25, 0.15, 0.1),
                Mat3::rotation_z(angle),
            );
            assert_eq!(
                cascaded_obb_aabb(&obb, &aabb, &cfg_a).colliding,
                cascaded_obb_aabb(&obb, &aabb, &cfg_b).colliding
            );
        }
    }
}
