//! The 15-axis separating-axis test (SAT) between an OBB and an AABB.
//!
//! Two convex objects are disjoint iff there exists a separating axis. For
//! an OBB/AABB pair there are 15 candidate axes (§2.2): the 3 face normals
//! of the AABB (world axes), the 3 face normals of the OBB, and the 9 cross
//! products of one edge direction from each box. The boxes collide iff none
//! of the 15 candidates separates them.
//!
//! Every axis test carries an identifier (1–15, in the order above) and an
//! exact multiplication count; the paper uses "number of multiplications
//! performed" as its computation/energy estimate (§4, Fig 8), and all 15
//! axes together cost [`SAT_ALL_MULS`] = 81 multiplications, the figure
//! quoted in §4.

use crate::aabb::Aabb;
use crate::obb::Obb;
use crate::scalar::Scalar;

/// Identifier of a separating-axis candidate, 1-based as in Fig 8b.
///
/// * 1–3: AABB face normals (world X/Y/Z),
/// * 4–6: OBB face normals (local axes),
/// * 7–15: cross products `world_i × obb_j` in row-major order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AxisId(u8);

impl AxisId {
    /// Creates an axis id.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= id <= 15`.
    pub fn new(id: u8) -> AxisId {
        assert!(
            (1..=15).contains(&id),
            "axis id must be in 1..=15, got {id}"
        );
        AxisId(id)
    }

    /// The numeric id (1–15).
    #[inline]
    pub fn get(self) -> u8 {
        self.0
    }

    /// All 15 axis ids in test order.
    pub fn all() -> impl Iterator<Item = AxisId> {
        (1..=15).map(AxisId)
    }

    /// Which family this axis belongs to.
    pub fn class(self) -> AxisClass {
        match self.0 {
            1..=3 => AxisClass::AabbFace,
            4..=6 => AxisClass::ObbFace,
            _ => AxisClass::EdgeCross,
        }
    }
}

impl core::fmt::Display for AxisId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "axis{}", self.0)
    }
}

/// The three families of separating-axis candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AxisClass {
    /// A face normal of the AABB (a world axis).
    AabbFace,
    /// A face normal of the OBB (a local box axis).
    ObbFace,
    /// The cross product of one edge direction from each box.
    EdgeCross,
}

/// Multiplications needed to evaluate one axis test.
///
/// AABB faces project the OBB half-extents through one row of `|R|`
/// (3 products); OBB faces also need the `t·u_j` projection (6); cross
/// axes need 2 products each for the two radii and the distance (6).
#[inline]
pub fn axis_mult_count(axis: AxisId) -> u32 {
    match axis.class() {
        AxisClass::AabbFace => 3,
        AxisClass::ObbFace => 6,
        AxisClass::EdgeCross => 6,
    }
}

/// Total multiplications for all 15 axis tests (3×3 + 3×6 + 9×6 = 81).
pub const SAT_ALL_MULS: u32 = 81;

/// Multiplications spent by evaluating the contiguous axis range
/// `start..start + len` (1-based ids) — the cost [`sat_batch_range`]
/// reports, precomputable when the same range is swept over many pairs.
///
/// # Panics
///
/// Panics unless the range stays within `1..=15`.
#[inline]
pub fn range_mult_count(start: u8, len: u8) -> u32 {
    assert!(
        start >= 1 && len >= 1 && start + len - 1 <= 15,
        "axis range {start}+{len} out of 1..=15"
    );
    (start..start + len)
        .map(|raw| axis_mult_count(AxisId(raw)))
        .sum()
}

/// Result of a (possibly early-exiting) separating-axis test sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SatResult {
    /// The first axis found to separate the boxes, or `None` if they collide.
    pub separating: Option<AxisId>,
    /// Number of axis tests evaluated.
    pub axes_tested: u32,
    /// Total multiplications spent.
    pub mults: u32,
}

impl SatResult {
    /// Whether the boxes collide (no separating axis found).
    #[inline]
    pub fn colliding(&self) -> bool {
        self.separating.is_none()
    }
}

/// Evaluates a single axis test; `true` means this axis *separates* the
/// boxes (they do not overlap).
///
/// Robustness: the cross-product radii use `|R| + ε` so nearly-parallel
/// edges never produce a spurious separating axis (the standard
/// Gottschalk/Ericson guard), keeping the test conservative.
#[inline]
pub fn test_axis<S: Scalar>(obb: &Obb<S>, aabb: &Aabb<S>, id: AxisId) -> bool {
    let t = obb.center - aabb.center;
    let a = obb.half; // OBB half extents (local)
    let b = aabb.half; // AABB half extents (world)
    let r = &obb.rotation; // columns are OBB axes; r[(i,j)] = world_i . u_j
    let eps = S::epsilon();

    match id.0 {
        // L = world axis i.
        i @ 1..=3 => {
            let i = (i - 1) as usize;
            let ra = b[i];
            let rb = a.x * r.at(i, 0).abs() + a.y * r.at(i, 1).abs() + a.z * r.at(i, 2).abs();
            t[i].abs() > ra + rb
        }
        // L = OBB axis j.
        j @ 4..=6 => {
            let j = (j - 4) as usize;
            let dist = (t.x * r.at(0, j) + t.y * r.at(1, j) + t.z * r.at(2, j)).abs();
            let ra = b.x * r.at(0, j).abs() + b.y * r.at(1, j).abs() + b.z * r.at(2, j).abs();
            let rb = a[j];
            dist > ra + rb
        }
        // L = world_i x obb_j.
        k => {
            let k = (k - 7) as usize;
            let i = k / 3;
            let j = k % 3;
            let i1 = (i + 1) % 3;
            let i2 = (i + 2) % 3;
            let j1 = (j + 1) % 3;
            let j2 = (j + 2) % 3;
            let ra = b[i1] * (r.at(i2, j).abs() + eps) + b[i2] * (r.at(i1, j).abs() + eps);
            let rb = a[j1] * (r.at(i, j2).abs() + eps) + a[j2] * (r.at(i, j1).abs() + eps);
            let dist = (t[i2] * r.at(i1, j) - t[i1] * r.at(i2, j)).abs();
            dist > ra + rb
        }
    }
}

/// Sequential SAT with early exit: tests axes 1..15 in order and stops at
/// the first separating axis (the "sequential execution" of Fig 8a).
pub fn sat_first_separating<S: Scalar>(obb: &Obb<S>, aabb: &Aabb<S>) -> SatResult {
    let mut mults = 0;
    for id in AxisId::all() {
        mults += axis_mult_count(id);
        if test_axis(obb, aabb, id) {
            return SatResult {
                separating: Some(id),
                axes_tested: id.get() as u32,
                mults,
            };
        }
    }
    SatResult {
        separating: None,
        axes_tested: 15,
        mults,
    }
}

/// Fully parallel SAT: all 15 axis tests execute regardless of outcome (the
/// "parallel execution" of Fig 8a — faster but all 81 multiplications are
/// always spent). Returns the lowest-id separating axis, if any.
pub fn sat_all<S: Scalar>(obb: &Obb<S>, aabb: &Aabb<S>) -> SatResult {
    let mut first = None;
    for id in AxisId::all() {
        if test_axis(obb, aabb, id) && first.is_none() {
            first = Some(id);
        }
    }
    SatResult {
        separating: first,
        axes_tested: 15,
        mults: SAT_ALL_MULS,
    }
}

/// Tests the contiguous batch of axes `start..start + len` (1-based ids,
/// like [`AxisId`]), as one stage of the cascade's 6-5-4 staged execution
/// does. Returns the first separating axis in the batch and the
/// multiplications spent (all axes in the batch are evaluated, as the
/// stage's datapath runs them concurrently).
///
/// # Panics
///
/// Panics unless the range stays within `1..=15`.
#[inline]
pub fn sat_batch_range<S: Scalar>(obb: &Obb<S>, aabb: &Aabb<S>, start: u8, len: u8) -> SatResult {
    assert!(
        start >= 1 && len >= 1 && start + len - 1 <= 15,
        "axis range {start}+{len} out of 1..=15"
    );
    let mut first = None;
    let mut mults = 0;
    for raw in start..start + len {
        let id = AxisId(raw);
        mults += axis_mult_count(id);
        if first.is_none() && test_axis(obb, aabb, id) {
            first = Some(id);
        }
    }
    SatResult {
        separating: first,
        axes_tested: len as u32,
        mults,
    }
}

/// Convenience predicate: do the OBB and AABB overlap?
#[inline]
pub fn overlaps<S: Scalar>(obb: &Obb<S>, aabb: &Aabb<S>) -> bool {
    sat_first_separating(obb, aabb).colliding()
}

/// Signed separation gap along one SAT axis of the exact `f32` pair:
/// positive means the axis separates the boxes by that (projection-scaled)
/// amount, negative means their projections overlap on it.
/// [`test_axis`] is exactly `axis_signed_gap(..) > 0` for `f32`.
pub fn axis_signed_gap(obb: &Obb<f32>, aabb: &Aabb<f32>, id: AxisId) -> f32 {
    let t = obb.center - aabb.center;
    let a = obb.half;
    let b = aabb.half;
    let r = &obb.rotation;
    let eps = <f32 as Scalar>::epsilon();
    match id.0 {
        i @ 1..=3 => {
            let i = (i - 1) as usize;
            let ra = b[i];
            let rb = a.x * r.at(i, 0).abs() + a.y * r.at(i, 1).abs() + a.z * r.at(i, 2).abs();
            t[i].abs() - (ra + rb)
        }
        j @ 4..=6 => {
            let j = (j - 4) as usize;
            let dist = (t.x * r.at(0, j) + t.y * r.at(1, j) + t.z * r.at(2, j)).abs();
            let ra = b.x * r.at(0, j).abs() + b.y * r.at(1, j).abs() + b.z * r.at(2, j).abs();
            let rb = a[j];
            dist - (ra + rb)
        }
        k => {
            let k = (k - 7) as usize;
            let i = k / 3;
            let j = k % 3;
            let i1 = (i + 1) % 3;
            let i2 = (i + 2) % 3;
            let j1 = (j + 1) % 3;
            let j2 = (j + 2) % 3;
            let ra = b[i1] * (r.at(i2, j).abs() + eps) + b[i2] * (r.at(i1, j).abs() + eps);
            let rb = a[j1] * (r.at(i, j2).abs() + eps) + a[j2] * (r.at(i, j1).abs() + eps);
            let dist = (t[i2] * r.at(i1, j) - t[i1] * r.at(i2, j)).abs();
            dist - (ra + rb)
        }
    }
}

/// The pair's margin to the separated/colliding threshold: the largest
/// [`axis_signed_gap`] over all 15 axes. Positive iff the exact `f32` SAT
/// reports separation; its magnitude says how far the pair is from the
/// verdict flipping.
pub fn signed_separation(obb: &Obb<f32>, aabb: &Aabb<f32>) -> f32 {
    AxisId::all()
        .map(|id| axis_signed_gap(obb, aabb, id))
        .fold(f32::NEG_INFINITY, f32::max)
}

/// Worst-case amount (in [`axis_signed_gap`] units) by which Q3.12
/// quantization plus fixed-point SAT arithmetic can move any axis gap —
/// the envelope inside which the fixed-point and `f32` verdicts may
/// legitimately disagree.
///
/// Per-axis error budget, with `ε =` [`RESOLUTION`](mp_fixed::RESOLUTION)
/// `= 2⁻¹²` (see `Obb::quantize` / `Aabb::quantize`):
///
/// * centers round to nearest (≤ ε/2 per component) and enter `t` twice,
///   and `t` projects through quantized rotation entries (≤ ε/2 each), so
///   the distance term moves by `O(ε·(1 + ‖t‖₁))`;
/// * half extents round *up* by < ε per component and multiply rotation
///   entries, moving the radii by `O(ε·(1 + ‖a‖₁ + ‖b‖₁))`;
/// * the cross-axis robustness guard uses `ε` in fixed point but `10⁻⁶`
///   in `f32`, adding up to `ε·(‖a‖₁ + ‖b‖₁)`;
/// * every fixed-point multiply rounds to nearest (≤ ε/2), ≤ 6 per axis.
///
/// The constants below over-approximate all four contributions; the
/// differential property test in `tests/props.rs` validates the envelope
/// empirically and that disagreements are collision-biased (deep
/// collisions are never reported free by fixed point).
pub fn quantization_margin(obb: &Obb<f32>, aabb: &Aabb<f32>) -> f32 {
    let t = obb.center - aabb.center;
    let l1 = |v: crate::Vector3<f32>| v.x.abs() + v.y.abs() + v.z.abs();
    mp_fixed::RESOLUTION * (16.0 + 2.0 * (l1(obb.half) + l1(aabb.half) + l1(t)))
}

/// General OBB–OBB separating-axis test (Gottschalk's 15 axes), `f32`.
///
/// This is not part of the accelerator datapath (the environment side is
/// always an AABB there); it backs the *self-collision* extension in
/// `mp-collision`, where pairs of robot links — both OBBs — are tested
/// against each other.
pub fn obb_obb_overlaps(a: &Obb<f32>, b: &Obb<f32>) -> bool {
    // Work in A's local frame: C = Aᵀ·B is B's orientation there.
    let a_rot_t = a.rotation.transpose();
    let c = a_rot_t * b.rotation;
    let abs_c = {
        let eps = 1e-6;
        crate::Matrix3::from_rows(
            c.row(0).abs() + crate::Vector3::splat(eps),
            c.row(1).abs() + crate::Vector3::splat(eps),
            c.row(2).abs() + crate::Vector3::splat(eps),
        )
    };
    let t = a_rot_t * (b.center - a.center);
    let ha = a.half;
    let hb = b.half;

    // A's face axes.
    for i in 0..3 {
        let ra = ha[i];
        let rb = abs_c.row(i).dot(hb);
        if t[i].abs() > ra + rb {
            return false;
        }
    }
    // B's face axes.
    for j in 0..3 {
        let ra = abs_c.col(j).dot(ha);
        let rb = hb[j];
        let dist = (t.x * c.at(0, j) + t.y * c.at(1, j) + t.z * c.at(2, j)).abs();
        if dist > ra + rb {
            return false;
        }
    }
    // Cross products a_i × b_j.
    for i in 0..3 {
        let i1 = (i + 1) % 3;
        let i2 = (i + 2) % 3;
        for j in 0..3 {
            let j1 = (j + 1) % 3;
            let j2 = (j + 2) % 3;
            let ra = ha[i1] * abs_c.at(i2, j) + ha[i2] * abs_c.at(i1, j);
            let rb = hb[j1] * abs_c.at(i, j2) + hb[j2] * abs_c.at(i, j1);
            let dist = (t[i2] * c.at(i1, j) - t[i1] * c.at(i2, j)).abs();
            if dist > ra + rb {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AabbF, Mat3, Obb, Vec3};
    use core::f32::consts::FRAC_PI_4;

    fn unit_aabb() -> AabbF {
        AabbF::new(Vec3::zero(), Vec3::splat(0.5))
    }

    #[test]
    fn axis_id_validation() {
        assert_eq!(AxisId::new(1).get(), 1);
        assert_eq!(AxisId::new(15).get(), 15);
        assert_eq!(AxisId::all().count(), 15);
    }

    #[test]
    #[should_panic(expected = "axis id")]
    fn axis_id_zero_panics() {
        let _ = AxisId::new(0);
    }

    #[test]
    #[should_panic(expected = "axis id")]
    fn axis_id_sixteen_panics() {
        let _ = AxisId::new(16);
    }

    #[test]
    fn axis_classes_and_mult_counts() {
        assert_eq!(AxisId::new(2).class(), AxisClass::AabbFace);
        assert_eq!(AxisId::new(5).class(), AxisClass::ObbFace);
        assert_eq!(AxisId::new(7).class(), AxisClass::EdgeCross);
        let total: u32 = AxisId::all().map(axis_mult_count).sum();
        assert_eq!(total, SAT_ALL_MULS); // 81, as quoted in §4
    }

    #[test]
    fn disjoint_axis_aligned_boxes_separated_by_first_axes() {
        let obb = Obb::axis_aligned(Vec3::new(2.0, 0.0, 0.0), Vec3::splat(0.5));
        let r = sat_first_separating(&obb, &unit_aabb());
        assert_eq!(r.separating, Some(AxisId::new(1))); // world X separates
        assert_eq!(r.mults, 3);
        assert_eq!(r.axes_tested, 1);
    }

    #[test]
    fn overlapping_boxes_not_separated() {
        let obb = Obb::axis_aligned(Vec3::new(0.4, 0.0, 0.0), Vec3::splat(0.5));
        let r = sat_first_separating(&obb, &unit_aabb());
        assert!(r.colliding());
        assert_eq!(r.axes_tested, 15);
        assert_eq!(r.mults, SAT_ALL_MULS);
    }

    #[test]
    fn touching_boxes_count_as_colliding() {
        // Strict inequality in the test => touching is not separated.
        let obb = Obb::axis_aligned(Vec3::new(1.0, 0.0, 0.0), Vec3::splat(0.5));
        assert!(overlaps(&obb, &unit_aabb()));
    }

    #[test]
    fn diagonal_gap_needs_cross_axis() {
        // Rotate an OBB 45° about Z and place it diagonally off a corner so
        // that neither face-normal family separates, but an edge cross axis
        // does. Classic SAT corner case.
        let rot = Mat3::rotation_z(FRAC_PI_4);
        let obb = Obb::new(Vec3::new(0.95, 0.95, 0.0), Vec3::new(0.5, 0.1, 0.5), rot);
        let aabb = unit_aabb();
        let seq = sat_first_separating(&obb, &aabb);
        assert!(!seq.colliding(), "boxes should be disjoint");
        let all = sat_all(&obb, &aabb);
        assert_eq!(seq.separating, all.separating);
    }

    #[test]
    fn sat_all_always_costs_81() {
        let obb = Obb::axis_aligned(Vec3::new(5.0, 5.0, 5.0), Vec3::splat(0.1));
        let r = sat_all(&obb, &unit_aabb());
        assert_eq!(r.mults, 81);
        assert!(!r.colliding());
    }

    #[test]
    fn batch_matches_full_test() {
        let rot = Mat3::rotation_y(0.33) * Mat3::rotation_x(-0.71);
        let obb = Obb::new(Vec3::new(0.8, -0.3, 0.2), Vec3::new(0.3, 0.2, 0.1), rot);
        let aabb = unit_aabb();
        let b1 = sat_batch_range(&obb, &aabb, 1, 6);
        let b2 = sat_batch_range(&obb, &aabb, 7, 5);
        let b3 = sat_batch_range(&obb, &aabb, 12, 4);
        let staged_sep = b1.separating.or(b2.separating).or(b3.separating);
        assert_eq!(
            staged_sep.is_none(),
            sat_first_separating(&obb, &aabb).colliding()
        );
        assert_eq!(b1.mults + b2.mults + b3.mults, SAT_ALL_MULS);
        assert_eq!(b1.mults, 27);
        assert_eq!(b2.mults, 30);
        assert_eq!(b3.mults, 24);
    }

    #[test]
    fn rotation_rescues_overlap_detection() {
        // A long thin OBB rotated 45° overlaps the unit box even though its
        // center is outside the box's x-extent.
        let rot = Mat3::rotation_z(FRAC_PI_4);
        let obb = Obb::new(Vec3::new(0.9, 0.0, 0.0), Vec3::new(0.8, 0.05, 0.05), rot);
        assert!(overlaps(&obb, &unit_aabb()));
    }

    #[test]
    fn fixed_point_sat_agrees_on_clear_cases() {
        let rot = Mat3::rotation_z(0.6) * Mat3::rotation_x(0.25);
        let hit = Obb::new(Vec3::new(0.3, 0.2, -0.1), Vec3::new(0.25, 0.12, 0.08), rot);
        let miss = Obb::new(Vec3::new(1.8, 1.4, 0.9), Vec3::new(0.25, 0.12, 0.08), rot);
        let aabb = unit_aabb();
        assert!(overlaps(&hit, &aabb));
        assert!(overlaps(&hit.quantize(), &aabb.quantize()));
        assert!(!overlaps(&miss, &aabb));
        assert!(!overlaps(&miss.quantize(), &aabb.quantize()));
    }

    #[test]
    fn saturated_fixed_point_distances_stay_conservative() {
        // Boxes far outside the nominal workspace: the Q3.12 subtraction
        // saturates at ±8, which must still classify them as separated
        // (saturation shrinks distances toward the representable range but
        // the radii sums stay small).
        let a = Obb::axis_aligned(Vec3::new(6.0, 0.0, 0.0), Vec3::splat(0.1)).quantize();
        let b = Aabb::new(Vec3::new(-6.0, 0.0, 0.0), Vec3::splat(0.1)).quantize();
        assert!(!overlaps(&a, &b));
        // And genuinely overlapping far-out boxes stay colliding.
        let c = Obb::axis_aligned(Vec3::new(6.0, 0.0, 0.0), Vec3::splat(0.2)).quantize();
        let d = Aabb::new(Vec3::new(6.1, 0.0, 0.0), Vec3::splat(0.2)).quantize();
        assert!(overlaps(&c, &d));
    }

    #[test]
    fn obb_obb_basic_cases() {
        let a = Obb::axis_aligned(Vec3::zero(), Vec3::splat(0.5));
        // Disjoint along x.
        let far = Obb::axis_aligned(Vec3::new(2.0, 0.0, 0.0), Vec3::splat(0.5));
        assert!(!obb_obb_overlaps(&a, &far));
        // Overlapping.
        let near = Obb::axis_aligned(Vec3::new(0.7, 0.0, 0.0), Vec3::splat(0.5));
        assert!(obb_obb_overlaps(&a, &near));
        // Symmetric.
        assert!(obb_obb_overlaps(&near, &a));
        // Contained.
        let inner = Obb::axis_aligned(Vec3::zero(), Vec3::splat(0.1));
        assert!(obb_obb_overlaps(&a, &inner));
    }

    #[test]
    fn obb_obb_rotated_cases() {
        // Two thin rotated slabs crossing like an X: overlap.
        let a = Obb::new(
            Vec3::zero(),
            Vec3::new(0.6, 0.05, 0.05),
            Mat3::rotation_z(FRAC_PI_4),
        );
        let b = Obb::new(
            Vec3::zero(),
            Vec3::new(0.6, 0.05, 0.05),
            Mat3::rotation_z(-FRAC_PI_4),
        );
        assert!(obb_obb_overlaps(&a, &b));
        // Same slabs pulled apart along z: disjoint.
        let b_up = Obb::new(
            Vec3::new(0.0, 0.0, 0.2),
            Vec3::new(0.6, 0.05, 0.05),
            Mat3::rotation_z(-FRAC_PI_4),
        );
        assert!(!obb_obb_overlaps(&a, &b_up));
    }

    #[test]
    fn obb_obb_agrees_with_obb_aabb_when_one_box_is_axis_aligned() {
        let aabb = unit_aabb();
        let aabb_as_obb = Obb::axis_aligned(aabb.center, aabb.half);
        for i in 0..40 {
            let angle = i as f32 * 0.17;
            let obb = Obb::new(
                Vec3::new((i as f32 * 0.23).sin(), 0.4, -0.2),
                Vec3::new(0.3, 0.15, 0.1),
                Mat3::rotation_z(angle) * Mat3::rotation_x(angle * 0.5),
            );
            assert_eq!(
                obb_obb_overlaps(&obb, &aabb_as_obb),
                overlaps(&obb, &aabb),
                "disagreement at i={i}"
            );
        }
    }

    #[test]
    fn separating_axis_matches_geometric_truth_for_aligned_gap() {
        // Gap along world Y only.
        let obb = Obb::axis_aligned(Vec3::new(0.0, 1.5, 0.0), Vec3::splat(0.4));
        let r = sat_first_separating(&obb, &unit_aabb());
        assert_eq!(r.separating, Some(AxisId::new(2)));
    }
}
