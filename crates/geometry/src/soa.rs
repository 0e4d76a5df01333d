//! Structure-of-arrays AABB lanes and the hoisted cascade kernel.
//!
//! The scalar kernels in [`crate::sat`] and [`crate::cascade`] test one
//! OBB–AABB pair at a time and re-derive every OBB-side expression per
//! pair. The paper's CECDU instead keeps one link OBB resident while it
//! streams octree boxes past it (§4, Fig 9–10). This module is the software
//! analogue: candidate AABBs live in an [`AabbSoa`] (each coordinate in its
//! own contiguous array, the flat octree arena's layout), and
//! [`HoistedCascade`] holds one OBB's cascade state — squared sphere radii
//! and lazily derived SAT constants — across every box a walk touches.
//!
//! [`HoistedCascade::outcome`] is **bit-identical to the scalar
//! [`crate::cascade::cascaded_obb_aabb`]**, which stays as its oracle:
//! same verdict, exit stage, first separating axis and multiplication
//! count. The cycle-level hardware models and the benchmark engine's replay
//! memoization depend on those outputs exactly, so the kernel only hoists
//! OBB-side expressions (identical operands and operation order give
//! identical IEEE-754 and fixed-point results) and never reorders per-box
//! arithmetic.

use crate::aabb::Aabb;
use crate::cascade::{CascadeConfig, CascadeOutcome, ExitStage};
use crate::obb::Obb;
use crate::sat::{range_mult_count, AxisId};
use crate::scalar::Scalar;
use crate::sphere::SPHERE_AABB_MULS;
use crate::vec3::Vector3;

/// A batch of AABBs in structure-of-arrays layout (center + half-extents,
/// matching the hardware's center+size octant representation of §5.2 and the
/// scalar [`Aabb`]).
///
/// Each component is a plain `Vec<S>`, so every coordinate is one dense,
/// contiguous scalar array (`Fx` is `#[repr(transparent)]` over `i16`,
/// making its lanes dense `i16` arrays).
///
/// # Examples
///
/// ```
/// use mp_geometry::soa::AabbSoa;
/// use mp_geometry::{Aabb, Vec3};
///
/// let mut soa = AabbSoa::new();
/// soa.push(&Aabb::new(Vec3::zero(), Vec3::splat(0.5)));
/// assert_eq!(soa.len(), 1);
/// assert_eq!(soa.get(0).half, Vec3::splat(0.5));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AabbSoa<S> {
    cx: Vec<S>,
    cy: Vec<S>,
    cz: Vec<S>,
    hx: Vec<S>,
    hy: Vec<S>,
    hz: Vec<S>,
}

impl<S: Scalar> AabbSoa<S> {
    /// An empty batch.
    pub fn new() -> AabbSoa<S> {
        AabbSoa {
            cx: Vec::new(),
            cy: Vec::new(),
            cz: Vec::new(),
            hx: Vec::new(),
            hy: Vec::new(),
            hz: Vec::new(),
        }
    }

    /// An empty batch with room for `n` boxes per coordinate array.
    pub fn with_capacity(n: usize) -> AabbSoa<S> {
        AabbSoa {
            cx: Vec::with_capacity(n),
            cy: Vec::with_capacity(n),
            cz: Vec::with_capacity(n),
            hx: Vec::with_capacity(n),
            hy: Vec::with_capacity(n),
            hz: Vec::with_capacity(n),
        }
    }

    /// Number of boxes in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.cx.len()
    }

    /// Whether the batch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cx.is_empty()
    }

    /// Removes all boxes (capacity is kept).
    #[inline]
    pub fn clear(&mut self) {
        self.cx.clear();
        self.cy.clear();
        self.cz.clear();
        self.hx.clear();
        self.hy.clear();
        self.hz.clear();
    }

    /// Appends a box.
    #[inline]
    pub fn push(&mut self, aabb: &Aabb<S>) {
        self.cx.push(aabb.center.x);
        self.cy.push(aabb.center.y);
        self.cz.push(aabb.center.z);
        self.hx.push(aabb.half.x);
        self.hy.push(aabb.half.y);
        self.hz.push(aabb.half.z);
    }

    /// Reconstructs box `i` in array-of-structs form.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Aabb<S> {
        Aabb {
            center: Vector3::new(self.cx[i], self.cy[i], self.cz[i]),
            half: Vector3::new(self.hx[i], self.hy[i], self.hz[i]),
        }
    }

    /// Borrows the six coordinate lane arrays `[cx, cy, cz, hx, hy, hz]`
    /// directly. This is the zero-copy entry point for fused traversals
    /// (e.g. the collision checker's per-link walk) that index entries out
    /// of a shared batch instead of going through a kernel call per node.
    #[inline]
    pub fn coord_lanes(&self) -> [&[S]; 6] {
        [&self.cx, &self.cy, &self.cz, &self.hx, &self.hy, &self.hz]
    }
}

/// OBB-side constants of the 15 axis tests, hoisted once per OBB. Every value is produced by exactly the scalar kernel's expression
/// on exactly the scalar kernel's operands, so per-box results stay
/// bit-identical to [`crate::sat::test_axis`].
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct SatConsts<S> {
    /// `r.at(i, j)` — the OBB rotation entries.
    pub r: [[S; 3]; 3],
    /// `r.at(i, j).abs()`.
    pub abs_r: [[S; 3]; 3],
    /// `r.at(i, j).abs() + eps` — the cross-axis robustness guard.
    pub eps_r: [[S; 3]; 3],
    /// Axis 1–3 OBB radius: `a.x*|r(i,0)| + a.y*|r(i,1)| + a.z*|r(i,2)|`.
    pub rb_face: [S; 3],
    /// OBB half extents `a` (axis 4–6 radius is `a[j]`).
    pub a: [S; 3],
    /// Axis 7–15 OBB radius: `a[j1]*(|r(i,j2)|+eps) + a[j2]*(|r(i,j1)|+eps)`.
    pub rb_cross: [S; 9],
}

impl<S: Scalar> SatConsts<S> {
    /// Hoists the OBB-side constants.
    pub fn new(obb: &Obb<S>) -> SatConsts<S> {
        let a = obb.half;
        let rm = &obb.rotation;
        let eps = S::epsilon();
        let mut r = [[S::zero(); 3]; 3];
        let mut abs_r = [[S::zero(); 3]; 3];
        let mut eps_r = [[S::zero(); 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                r[i][j] = rm.at(i, j);
                abs_r[i][j] = rm.at(i, j).abs();
                eps_r[i][j] = rm.at(i, j).abs() + eps;
            }
        }
        let mut rb_face = [S::zero(); 3];
        for (i, rb) in rb_face.iter_mut().enumerate() {
            *rb = a.x * rm.at(i, 0).abs() + a.y * rm.at(i, 1).abs() + a.z * rm.at(i, 2).abs();
        }
        let mut rb_cross = [S::zero(); 9];
        for (k, rb) in rb_cross.iter_mut().enumerate() {
            let i = k / 3;
            let j = k % 3;
            let j1 = (j + 1) % 3;
            let j2 = (j + 2) % 3;
            *rb = a[j1] * (rm.at(i, j2).abs() + eps) + a[j2] * (rm.at(i, j1).abs() + eps);
        }
        SatConsts {
            r,
            abs_r,
            eps_r,
            rb_face,
            a: [a.x, a.y, a.z],
            rb_cross,
        }
    }
}

/// Does axis `raw` (1-based, [`AxisId`] order) separate the pair with
/// translation `t` and AABB half extents `b`? Same expressions and operand
/// order as [`crate::sat::test_axis`].
#[inline]
fn sat_axis_lane<S: Scalar>(raw: u8, c: &SatConsts<S>, t: [S; 3], b: [S; 3]) -> bool {
    match raw {
        i @ 1..=3 => {
            let i = (i - 1) as usize;
            t[i].abs() > b[i] + c.rb_face[i]
        }
        j @ 4..=6 => {
            let j = (j - 4) as usize;
            let dist = (t[0] * c.r[0][j] + t[1] * c.r[1][j] + t[2] * c.r[2][j]).abs();
            let ra = b[0] * c.abs_r[0][j] + b[1] * c.abs_r[1][j] + b[2] * c.abs_r[2][j];
            dist > ra + c.a[j]
        }
        k => {
            let k = (k - 7) as usize;
            let i = k / 3;
            let j = k % 3;
            let i1 = (i + 1) % 3;
            let i2 = (i + 2) % 3;
            let ra = b[i1] * c.eps_r[i2][j] + b[i2] * c.eps_r[i1][j];
            let dist = (t[i2] * c.r[i1][j] - t[i1] * c.r[i2][j]).abs();
            dist > ra + c.rb_cross[k]
        }
    }
}

/// One OBB–AABB overlap test with the OBB-side constants hoisted: sweeps
/// the 15 axes in [`crate::sat::AxisId`] order and reports whether none
/// separates. The verdict is bit-identical to [`crate::sat::overlaps`];
/// callers testing many AABBs against one OBB (voxel rasterization, broad
/// sweeps) build the consts once instead of re-deriving them per pair.
#[inline]
pub fn sat_overlaps_hoisted<S: Scalar>(
    consts: &SatConsts<S>,
    center: Vector3<S>,
    aabb: &Aabb<S>,
) -> bool {
    let t = [
        center.x - aabb.center.x,
        center.y - aabb.center.y,
        center.z - aabb.center.z,
    ];
    let b = [aabb.half.x, aabb.half.y, aabb.half.z];
    !(1..=15u8).any(|raw| sat_axis_lane(raw, consts, t, b))
}

/// One OBB's cascade state hoisted for a whole traversal: the sphere radii
/// are squared once, and the SAT constants are derived lazily on the first
/// box that reaches the SAT stages — then reused for every later box
/// instead of being rebuilt per pair.
///
/// [`HoistedCascade::outcome`] is **bit-identical** to the scalar
/// [`crate::cascade::cascaded_obb_aabb`] on the same pair: same verdict,
/// exit stage, first separating axis, multiplication count and stages
/// executed. It is the production cascade kernel: the software checker and
/// the OOCD model both drive one instance per (pose, link) OBB across every
/// entry its octree walk touches.
///
/// # Examples
///
/// ```
/// use mp_geometry::cascade::{cascaded_obb_aabb, CascadeConfig};
/// use mp_geometry::soa::HoistedCascade;
/// use mp_geometry::{Aabb, Mat3, Obb, Vec3};
///
/// let obb = Obb::new(Vec3::zero(), Vec3::splat(0.1), Mat3::rotation_z(0.3));
/// let aabb = Aabb::new(Vec3::new(0.2, 0.0, 0.0), Vec3::splat(0.1));
/// let cfg = CascadeConfig::proposed();
/// let mut hoisted = HoistedCascade::new(&obb, &cfg);
/// assert_eq!(
///     hoisted.outcome(aabb.center.x, aabb.center.y, aabb.center.z,
///                     aabb.half.x, aabb.half.y, aabb.half.z),
///     cascaded_obb_aabb(&obb, &aabb, &cfg),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct HoistedCascade<S: Scalar> {
    obb: Obb<S>,
    cfg: CascadeConfig,
    br2: S,
    ir2: S,
    sphere_stage: u32,
    sphere_mults: u32,
    consts: Option<SatConsts<S>>,
}

impl<S: Scalar> HoistedCascade<S> {
    /// Hoists the per-OBB state (squared radii; SAT constants stay lazy,
    /// exactly as in the scalar cascade, so sphere-resolved traversals
    /// never pay for them).
    pub fn new(obb: &Obb<S>, cfg: &CascadeConfig) -> HoistedCascade<S> {
        HoistedCascade {
            obb: *obb,
            cfg: *cfg,
            br2: obb.bounding_radius * obb.bounding_radius,
            ir2: obb.inscribed_radius * obb.inscribed_radius,
            sphere_stage: u32::from(cfg.bounding_sphere_filter || cfg.inscribed_sphere_filter),
            sphere_mults: (u32::from(cfg.bounding_sphere_filter)
                + u32::from(cfg.inscribed_sphere_filter))
                * SPHERE_AABB_MULS,
            consts: None,
        }
    }

    /// Runs the cascade against one AABB given as raw center/half lanes
    /// (the layout [`AabbSoa::coord_lanes`] exposes). Bit-identical to
    /// [`crate::cascade::cascaded_obb_aabb`] on the reconstructed box.
    #[inline]
    pub fn outcome(&mut self, cx: S, cy: S, cz: S, hx: S, hy: S, hz: S) -> CascadeOutcome {
        // Squared distance from the OBB centre to the box, shared by both
        // sphere filters: per-component arithmetic identical to the scalar
        // `sphere::sphere_aabb_overlap`.
        let p = self.obb.center;
        let d2 = if self.sphere_stage != 0 {
            let qx = p.x.max_val(cx - hx).min_val(cx + hx);
            let qy = p.y.max_val(cy - hy).min_val(cy + hy);
            let qz = p.z.max_val(cz - hz).min_val(cz + hz);
            let (dx, dy, dz) = (qx - p.x, qy - p.y, qz - p.z);
            dx * dx + dy * dy + dz * dz
        } else {
            self.br2
        };
        // Same polarity as the scalar filter (`overlap = d2 <= r2`, exit
        // on `!overlap`), so incomparable values take the identical arm.
        let bounding_overlap = d2 <= self.br2;
        if self.cfg.bounding_sphere_filter && !bounding_overlap {
            return CascadeOutcome {
                colliding: false,
                exit: ExitStage::BoundingSphere,
                separating_axis: None,
                mults: SPHERE_AABB_MULS,
                stages_executed: 1,
            };
        }
        if self.cfg.inscribed_sphere_filter && d2 <= self.ir2 {
            let mut mults = SPHERE_AABB_MULS;
            if self.cfg.bounding_sphere_filter {
                mults += SPHERE_AABB_MULS;
            }
            return CascadeOutcome {
                colliding: true,
                exit: ExitStage::InscribedSphere,
                separating_axis: None,
                mults,
                stages_executed: 1,
            };
        }
        self.sat_stages([p.x - cx, p.y - cy, p.z - cz], [hx, hy, hz])
    }

    /// The SAT stages of the cascade for a box the sphere filters left
    /// undecided: translation `t` and AABB half extents `b`.
    // Out of line so the sphere filters, which decide most boxes (Fig 8),
    // inline into the octree walks without the SAT stages' register
    // pressure; measured 1–4% faster on the benchmark's planning workloads.
    #[inline(never)]
    fn sat_stages(&mut self, t: [S; 3], b: [S; 3]) -> CascadeOutcome {
        let obb = &self.obb;
        let c = self.consts.get_or_insert_with(|| SatConsts::new(obb));
        let mut mults = self.sphere_mults;
        let mut stages = self.sphere_stage;
        for k in 0..3 {
            let (start, len) = self.cfg.split.stage_range(k);
            mults += range_mult_count(start, len);
            stages += 1;
            if let Some(raw) = (start..start + len).find(|&raw| sat_axis_lane(raw, c, t, b)) {
                return CascadeOutcome {
                    colliding: false,
                    exit: ExitStage::Sat(k as u8 + 1),
                    separating_axis: Some(AxisId::new(raw)),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::cascaded_obb_aabb;
    use crate::{Mat3, Vec3};

    fn sample_boxes() -> (Obb<f32>, AabbSoa<f32>) {
        let obb = Obb::new(
            Vec3::new(0.32, -0.11, 0.23),
            Vec3::new(0.3, 0.12, 0.07),
            Mat3::rotation_z(0.6) * Mat3::rotation_x(-0.4),
        );
        let mut soa = AabbSoa::with_capacity(24);
        for i in 0..24 {
            let f = i as f32;
            soa.push(&Aabb::new(
                Vec3::new(
                    (f * 0.37).sin() * 0.8,
                    (f * 0.21).cos() * 0.8,
                    f * 0.05 - 0.6,
                ),
                Vec3::splat(0.04 + 0.03 * (f * 0.5).sin().abs()),
            ));
        }
        (obb, soa)
    }

    #[test]
    fn soa_roundtrip_and_clear() {
        let (_, mut soa) = sample_boxes();
        assert_eq!(soa.len(), 24);
        for i in 0..soa.len() {
            let b = soa.get(i);
            assert!(b.half.x >= 0.0);
        }
        soa.clear();
        assert!(soa.is_empty());
    }

    #[test]
    fn hoisted_cascade_matches_scalar_per_lane() {
        let (obb, soa) = sample_boxes();
        for cfg in [
            CascadeConfig::proposed(),
            CascadeConfig::without_filters(),
            CascadeConfig::bounding_only(),
        ] {
            let mut hoisted = HoistedCascade::new(&obb, &cfg);
            let [cx, cy, cz, hx, hy, hz] = soa.coord_lanes();
            for l in 0..soa.len() {
                let got = hoisted.outcome(cx[l], cy[l], cz[l], hx[l], hy[l], hz[l]);
                let want = cascaded_obb_aabb(&obb, &soa.get(l), &cfg);
                assert_eq!(got, want, "lane {l} cfg {cfg:?}");
            }
        }
    }

    #[test]
    fn hoisted_cascade_fixed_point_matches_scalar() {
        let (obb, soa) = sample_boxes();
        let q = obb.quantize();
        let cfg = CascadeConfig::proposed();
        let mut hoisted = HoistedCascade::new(&q, &cfg);
        for l in 0..soa.len() {
            let b = soa.get(l).quantize();
            let got = hoisted.outcome(
                b.center.x, b.center.y, b.center.z, b.half.x, b.half.y, b.half.z,
            );
            assert_eq!(got, cascaded_obb_aabb(&q, &b, &cfg), "lane {l}");
        }
    }
}
