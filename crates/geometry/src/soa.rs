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
//! [`HoistedCascade`] runs the paper's proposed cascade (both sphere
//! filters, then the 6-5-4 SAT stages) and nothing else: the §7.2.1
//! ablation settings live only on the scalar
//! [`crate::cascade::cascaded_obb_aabb`]. [`HoistedCascade::outcome`] is
//! **bit-identical to that scalar cascade under its proposed
//! configuration**, which stays as its oracle: same verdict, exit stage,
//! first separating axis and multiplication count. The cycle-level
//! hardware models and the benchmark engine's replay memoization depend
//! on those outputs exactly, so for `f32` the kernel
//! only hoists OBB-side expressions (identical operands and operation
//! order give identical IEEE-754 results) and never reorders per-box
//! arithmetic. For Q3.12 it computes the same saturating chain in exact
//! `i32` arithmetic where that gives the same numbers: the sphere
//! distance always ([`Scalar::box_dist2`]), and the SAT stages for a box
//! whose translation and extents are small enough that no step of the
//! chain can saturate.

use crate::aabb::Aabb;
use crate::cascade::{CascadeOutcome, ExitStage, PAPER_SPLIT};
use crate::obb::Obb;
use crate::sat::{range_mult_count, AxisId};
use crate::scalar::Scalar;
use crate::sphere::SPHERE_AABB_MULS;
use crate::vec3::Vector3;
use mp_fixed::FRAC_BITS;

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

/// OBB-side constants of the 15 axis tests, hoisted once per OBB. Every
/// value is produced by exactly the scalar kernel's expression
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
    // The same constants as exact Q3.12 integers (`Fx` only).
    int: Option<IntSat>,
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
        let mut consts = SatConsts {
            r,
            abs_r,
            eps_r,
            rb_face,
            a: [a.x, a.y, a.z],
            rb_cross,
            int: None,
        };
        consts.int = IntSat::new(&consts);
        consts
    }
}

/// The largest raw Q3.12 magnitude, `Fx::MAX`.
const RAIL: i32 = i16::MAX as i32;

/// The Q3.12 multiply without its clamp: `Fx::saturating_mul` whenever the
/// rounded product lies within the rails.
#[inline]
fn mul_q312(x: i32, y: i32) -> i32 {
    (x * y + (1 << (FRAC_BITS - 1))) >> FRAC_BITS
}

/// The largest operand bound `X` such that every rounded product of
/// `|x| <= X` and `|y| <= y_max` stays within `±k` (`-1` if none does):
/// `|mul_q312(x, y)| <= ((X * y_max + 2048) >> 12) + 1 <= k`.
fn max_operand(y_max: i32, k: i32) -> i32 {
    if k < 1 {
        -1
    } else if y_max == 0 {
        RAIL
    } else {
        (((k << FRAC_BITS) - (1 << (FRAC_BITS - 1)) - 1) / y_max).min(RAIL)
    }
}

/// One OBB's SAT constants as exact Q3.12 integers, and the bounds on a
/// box's translation `t` and half extents `b` under which no saturating
/// step of any axis test can clamp. Within them the 15 axis tests run in
/// plain `i32` arithmetic and give the saturating chain's verdicts
/// exactly: every rounded product, partial sum, difference, absolute
/// value and radius sum is the same number.
#[derive(Clone, Copy, Debug)]
struct IntSat {
    r: [[i32; 3]; 3],
    abs_r: [[i32; 3]; 3],
    eps_r: [[i32; 3]; 3],
    rb_face: [i32; 3],
    a: [i32; 3],
    rb_cross: [i32; 9],
    // Largest `|t[i]|` and `|b[i]|` the integer path accepts.
    t_lim: i32,
    b_lim: i32,
}

impl IntSat {
    /// `None` unless the scalar is Q3.12.
    fn new<S: Scalar>(c: &SatConsts<S>) -> Option<IntSat> {
        let m3 = |m: &[[S; 3]; 3]| -> Option<[[i32; 3]; 3]> {
            let mut out = [[0; 3]; 3];
            for (o, row) in out.iter_mut().zip(m) {
                for (v, x) in o.iter_mut().zip(row) {
                    *v = x.q312_bits()?;
                }
            }
            Some(out)
        };
        let v3 = |v: &[S; 3]| -> Option<[i32; 3]> {
            Some([v[0].q312_bits()?, v[1].q312_bits()?, v[2].q312_bits()?])
        };
        let mut rb_cross = [0; 9];
        for (o, x) in rb_cross.iter_mut().zip(&c.rb_cross) {
            *o = x.q312_bits()?;
        }
        let (r, abs_r, eps_r) = (m3(&c.r)?, m3(&c.abs_r)?, m3(&c.eps_r)?);
        let (rb_face, a) = (v3(&c.rb_face)?, v3(&c.a)?);
        let max_abs = |vals: &[i32]| vals.iter().map(|v| v.abs()).max().unwrap_or(0);
        let r_max = max_abs(r.as_flattened());
        let abs_max = max_abs(abs_r.as_flattened());
        let eps_max = max_abs(eps_r.as_flattened());
        // `t`: exact `|t|` (Fx saturates `|MIN|`), and face-axis distances
        // of three products, which bounds the cross axes' two as well.
        let t_lim = max_operand(r_max, RAIL / 3);
        // `b`: `b + rb_face`, face-axis radii of three products plus `a`,
        // and cross-axis radii of two products plus `rb_cross`.
        let b_lim = (RAIL - max_abs(&rb_face))
            .min(max_operand(abs_max, (RAIL - max_abs(&a)) / 3))
            .min(max_operand(eps_max, (RAIL - max_abs(&rb_cross)) / 2));
        Some(IntSat {
            r,
            abs_r,
            eps_r,
            rb_face,
            a,
            rb_cross,
            t_lim,
            b_lim,
        })
    }

    /// `t` and `b` as integers, if the box lies within the bounds.
    #[inline]
    fn fits<S: Scalar>(&self, t: [S; 3], b: [S; 3]) -> Option<([i32; 3], [i32; 3])> {
        let ti = [t[0].q312_bits()?, t[1].q312_bits()?, t[2].q312_bits()?];
        let bi = [b[0].q312_bits()?, b[1].q312_bits()?, b[2].q312_bits()?];
        let within = |v: [i32; 3], lim: i32| v.iter().all(|x| x.abs() <= lim);
        (within(ti, self.t_lim) && within(bi, self.b_lim)).then_some((ti, bi))
    }

    /// [`sat_axis_lane`] in exact integer arithmetic, for a box that
    /// [`IntSat::fits`].
    #[inline]
    fn separates(&self, raw: u8, t: [i32; 3], b: [i32; 3]) -> bool {
        match raw {
            i @ 1..=3 => {
                let i = (i - 1) as usize;
                t[i].abs() > b[i] + self.rb_face[i]
            }
            j @ 4..=6 => {
                let j = (j - 4) as usize;
                let r = &self.r;
                let dist =
                    (mul_q312(t[0], r[0][j]) + mul_q312(t[1], r[1][j]) + mul_q312(t[2], r[2][j]))
                        .abs();
                let ar = &self.abs_r;
                let ra =
                    mul_q312(b[0], ar[0][j]) + mul_q312(b[1], ar[1][j]) + mul_q312(b[2], ar[2][j]);
                dist > ra + self.a[j]
            }
            k => {
                let k = (k - 7) as usize;
                let i = k / 3;
                let j = k % 3;
                let i1 = (i + 1) % 3;
                let i2 = (i + 2) % 3;
                let ra = mul_q312(b[i1], self.eps_r[i2][j]) + mul_q312(b[i2], self.eps_r[i1][j]);
                let dist = (mul_q312(t[i2], self.r[i1][j]) - mul_q312(t[i1], self.r[i2][j])).abs();
                dist > ra + self.rb_cross[k]
            }
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

/// Multiplications of both sphere filters, which every box that passes
/// the bounding-sphere filter spends.
const SPHERE_FILTERS_MULS: u32 = 2 * SPHERE_AABB_MULS;

/// One OBB's state of the proposed cascade, hoisted for a whole
/// traversal: the sphere radii are squared once, and the SAT constants
/// are derived lazily on the first box that reaches the SAT stages — then
/// reused for every later box instead of being rebuilt per pair.
///
/// [`HoistedCascade::outcome`] is **bit-identical** to the scalar
/// [`crate::cascade::cascaded_obb_aabb`] under its proposed configuration
/// on the same pair: same verdict, exit stage, first separating axis,
/// multiplication count and stages executed. It is the production cascade kernel: the software checker and
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
/// let mut hoisted = HoistedCascade::new(&obb);
/// assert_eq!(
///     hoisted.outcome(aabb.center.x, aabb.center.y, aabb.center.z,
///                     aabb.half.x, aabb.half.y, aabb.half.z),
///     cascaded_obb_aabb(&obb, &aabb, &CascadeConfig::proposed()),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct HoistedCascade<S: Scalar> {
    obb: Obb<S>,
    br2: S,
    ir2: S,
    consts: Option<SatConsts<S>>,
}

impl<S: Scalar> HoistedCascade<S> {
    /// Hoists the per-OBB state (squared radii; SAT constants stay lazy,
    /// exactly as in the scalar cascade, so sphere-resolved traversals
    /// never pay for them).
    pub fn new(obb: &Obb<S>) -> HoistedCascade<S> {
        HoistedCascade {
            obb: *obb,
            br2: obb.bounding_radius * obb.bounding_radius,
            ir2: obb.inscribed_radius * obb.inscribed_radius,
            consts: None,
        }
    }

    /// Runs the cascade against one AABB given as raw center/half lanes
    /// (the layout [`AabbSoa::coord_lanes`] exposes). Bit-identical to
    /// [`crate::cascade::cascaded_obb_aabb`] on the reconstructed box.
    #[inline]
    pub fn outcome(&mut self, cx: S, cy: S, cz: S, hx: S, hy: S, hz: S) -> CascadeOutcome {
        // Squared distance from the OBB centre to the box, shared by both
        // sphere filters: equal to the scalar `sphere::sphere_aabb_overlap`
        // expression (`Fx` evaluates it in exact integer arithmetic).
        let p = self.obb.center;
        let d2 = S::box_dist2([p.x, p.y, p.z], [cx, cy, cz], [hx, hy, hz]);
        // Same polarity as the scalar filter (`overlap = d2 <= r2`, exit
        // on `!overlap`), so incomparable values take the identical arm.
        let bounding_overlap = d2 <= self.br2;
        if !bounding_overlap {
            return CascadeOutcome {
                colliding: false,
                exit: ExitStage::BoundingSphere,
                separating_axis: None,
                mults: SPHERE_AABB_MULS,
                stages_executed: 1,
            };
        }
        if d2 <= self.ir2 {
            return CascadeOutcome {
                colliding: true,
                exit: ExitStage::InscribedSphere,
                separating_axis: None,
                mults: SPHERE_FILTERS_MULS,
                stages_executed: 1,
            };
        }
        self.sat_stages(cx, cy, cz, hx, hy, hz)
    }

    /// The SAT stages of the cascade for a box the sphere filters left
    /// undecided, given as in [`HoistedCascade::outcome`].
    // Out of line so the sphere filters, which decide most boxes (Fig 8),
    // inline into the octree walks without the SAT stages' register
    // pressure; measured 1–4% faster on the benchmark's planning workloads.
    // The box comes as scalars, not arrays, so the walk loop does not
    // store it to memory for boxes the filters decide.
    #[inline(never)]
    fn sat_stages(&mut self, cx: S, cy: S, cz: S, hx: S, hy: S, hz: S) -> CascadeOutcome {
        let p = self.obb.center;
        let t = [p.x - cx, p.y - cy, p.z - cz];
        let b = [hx, hy, hz];
        let obb = &self.obb;
        let c = self.consts.get_or_insert_with(|| SatConsts::new(obb));
        // Q3.12 boxes the saturating chain cannot clamp on take the exact
        // integer lanes.
        let int = c
            .int
            .as_ref()
            .and_then(|ic| ic.fits(t, b).map(|(ti, bi)| (ic, ti, bi)));
        // Both sphere filters ran, in the cascade's first stage.
        let mut mults = SPHERE_FILTERS_MULS;
        let mut stages = 1;
        for k in 0..3 {
            let (start, len) = PAPER_SPLIT.stage_range(k);
            mults += range_mult_count(start, len);
            stages += 1;
            let separating = match int {
                Some((ic, ti, bi)) => (start..start + len).find(|&raw| ic.separates(raw, ti, bi)),
                None => (start..start + len).find(|&raw| sat_axis_lane(raw, c, t, b)),
            };
            if let Some(raw) = separating {
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
    use crate::cascade::{cascaded_obb_aabb, CascadeConfig};
    use crate::{Mat3, Vec3};
    use mp_fixed::Fx;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Compares one `HoistedCascade` over `obb` with the scalar oracle on
    /// `n` seeded boxes near it, each redrawn (up to 64 times) until the
    /// oracle's sphere filters leave it to the SAT stages, so both SAT
    /// paths are exercised and not only the filters. Every drawn box is
    /// compared; returns how many of the `n` reached a SAT stage.
    fn matches_scalar_past_filters<S: Scalar>(
        obb: &Obb<S>,
        convert: fn(Aabb<f32>) -> Aabb<S>,
        n: usize,
        seed: u64,
    ) -> usize {
        let cfg = CascadeConfig::proposed();
        let mut hoisted = HoistedCascade::new(obb);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reached = 0;
        for _ in 0..n {
            for _ in 0..64 {
                let mut f = |lo: f32, hi: f32| rng.gen_range(lo..hi);
                let b = convert(Aabb::new(
                    Vec3::new(f(-0.8, 0.8), f(-0.8, 0.8), f(-0.8, 0.8)),
                    Vec3::new(f(0.02, 0.3), f(0.02, 0.3), f(0.02, 0.3)),
                ));
                let want = cascaded_obb_aabb(obb, &b, &cfg);
                let got = hoisted.outcome(
                    b.center.x, b.center.y, b.center.z, b.half.x, b.half.y, b.half.z,
                );
                assert_eq!(got, want, "box {b:?}");
                if want.stages_executed > 1 {
                    reached += 1;
                    break;
                }
            }
        }
        reached
    }

    #[test]
    fn hoisted_cascade_matches_scalar_per_lane() {
        let (obb, soa) = sample_boxes();
        let cfg = CascadeConfig::proposed();
        let mut hoisted = HoistedCascade::new(&obb);
        let [cx, cy, cz, hx, hy, hz] = soa.coord_lanes();
        for l in 0..soa.len() {
            let got = hoisted.outcome(cx[l], cy[l], cz[l], hx[l], hy[l], hz[l]);
            let want = cascaded_obb_aabb(&obb, &soa.get(l), &cfg);
            assert_eq!(got, want, "lane {l}");
        }
        assert_eq!(matches_scalar_past_filters(&obb, |b| b, 64, 1), 64);
    }

    #[test]
    fn hoisted_cascade_fixed_point_matches_scalar() {
        let (obb, soa) = sample_boxes();
        let q = obb.quantize();
        let cfg = CascadeConfig::proposed();
        let mut hoisted = HoistedCascade::new(&q);
        for l in 0..soa.len() {
            let b = soa.get(l).quantize();
            let got = hoisted.outcome(
                b.center.x, b.center.y, b.center.z, b.half.x, b.half.y, b.half.z,
            );
            assert_eq!(got, cascaded_obb_aabb(&q, &b, &cfg), "lane {l}");
        }
        assert_eq!(matches_scalar_past_filters(&q, |b| b.quantize(), 64, 2), 64);
    }

    /// A Q3.12 OBB from seeded values: a rotation (entries within ±1) or,
    /// one time in four, an arbitrary matrix reaching the rails.
    fn random_fx_obb(rng: &mut StdRng) -> Obb<Fx> {
        let mut f = |lo: f32, hi: f32| rng.gen_range(lo..hi);
        let rotation = Mat3::rotation_z(f(-3.2, 3.2)) * Mat3::rotation_x(f(-3.2, 3.2));
        let obb = Obb::new(
            Vec3::new(f(-3.0, 3.0), f(-3.0, 3.0), f(-3.0, 3.0)),
            Vec3::new(f(0.0, 2.5), f(0.0, 2.5), f(0.0, 2.5)),
            rotation,
        )
        .quantize();
        if f(0.0, 1.0) < 0.25 {
            let mut raw = || Fx::from_bits(rng.gen_range(i16::MIN..=i16::MAX));
            let mut m = obb;
            m.rotation = crate::Matrix3::from_rows(
                Vector3::new(raw(), raw(), raw()),
                Vector3::new(raw(), raw(), raw()),
                Vector3::new(raw(), raw(), raw()),
            );
            m.half = Vector3::new(raw(), raw(), raw()).abs();
            return m;
        }
        obb
    }

    /// Every intermediate of the 15 integer axis tests, in `i64`.
    fn intermediates(c: &IntSat, t: [i32; 3], b: [i32; 3]) -> Vec<i64> {
        let m = |x: i32, y: i32| i64::from(mul_q312(x, y));
        let mut out = Vec::new();
        for i in 0..3 {
            out.extend([i64::from(t[i]), i64::from(b[i] + c.rb_face[i])]);
        }
        for j in 0..3 {
            let (p0, p1, p2) = (m(t[0], c.r[0][j]), m(t[1], c.r[1][j]), m(t[2], c.r[2][j]));
            let (q0, q1, q2) = (
                m(b[0], c.abs_r[0][j]),
                m(b[1], c.abs_r[1][j]),
                m(b[2], c.abs_r[2][j]),
            );
            out.extend([p0, p1, p2, p0 + p1, p0 + p1 + p2, q0, q1, q2, q0 + q1]);
            out.extend([q0 + q1 + q2, q0 + q1 + q2 + i64::from(c.a[j])]);
        }
        for k in 0..9 {
            let (i, j) = (k / 3, k % 3);
            let (i1, i2) = ((i + 1) % 3, (i + 2) % 3);
            let (e1, e2) = (m(b[i1], c.eps_r[i2][j]), m(b[i2], c.eps_r[i1][j]));
            let (d1, d2) = (m(t[i2], c.r[i1][j]), m(t[i1], c.r[i2][j]));
            out.extend([e1, e2, e1 + e2, e1 + e2 + i64::from(c.rb_cross[k])]);
            out.extend([d1, d2, d1 - d2]);
        }
        out
    }

    #[test]
    fn integer_sat_bounds_keep_every_step_off_the_rails() {
        // Each rounded product is monotone in its box operand, so every
        // sum and difference peaks at a corner of the accepted box.
        let mut rng = StdRng::seed_from_u64(31);
        let mut accepted = 0;
        for _ in 0..4_000 {
            let consts = SatConsts::new(&random_fx_obb(&mut rng));
            let ic = consts.int.expect("Q3.12 constants have an integer form");
            if ic.t_lim < 0 || ic.b_lim < 0 {
                continue;
            }
            accepted += 1;
            for corner in 0..64u32 {
                let sign = |bit: u32, lim: i32| if corner >> bit & 1 == 0 { lim } else { -lim };
                let t = [sign(0, ic.t_lim), sign(1, ic.t_lim), sign(2, ic.t_lim)];
                let b = [sign(3, ic.b_lim), sign(4, ic.b_lim), sign(5, ic.b_lim)];
                for v in intermediates(&ic, t, b) {
                    assert!(v.abs() <= i64::from(i16::MAX), "{v} at t {t:?} b {b:?}");
                }
            }
        }
        assert!(accepted > 2_000, "only {accepted} OBBs admit integer boxes");
    }

    /// Compares the integer and saturating lanes on seeded boxes whose
    /// translations and extents straddle the integer bounds.
    fn integer_lanes_match(seed: u64, obbs: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut fast, mut slow) = (0u64, 0u64);
        for _ in 0..obbs {
            let consts = SatConsts::new(&random_fx_obb(&mut rng));
            let ic = consts.int.expect("Q3.12 constants have an integer form");
            for _ in 0..64 {
                let mut near = |lim: i32| {
                    let v = if lim > 0 && rng.gen_range(0..2u32) == 0 {
                        rng.gen_range(lim - lim / 8..=(lim + lim / 8).min(32767))
                    } else {
                        rng.gen_range(0..=32768)
                    };
                    let v = if rng.gen_range(0..2u32) == 0 { v } else { -v };
                    Fx::from_bits(v.clamp(-32768, 32767) as i16)
                };
                let t = [near(ic.t_lim), near(ic.t_lim), near(ic.t_lim)];
                let b = [near(ic.b_lim), near(ic.b_lim), near(ic.b_lim)];
                let Some((ti, bi)) = ic.fits(t, b) else {
                    slow += 1;
                    continue;
                };
                fast += 1;
                for raw in 1..=15 {
                    assert_eq!(
                        ic.separates(raw, ti, bi),
                        sat_axis_lane(raw, &consts, t, b),
                        "axis {raw} t {t:?} b {b:?} consts {consts:?}"
                    );
                }
            }
        }
        assert!(fast > 0 && slow > 0, "fast {fast} slow {slow}");
    }

    #[test]
    fn integer_sat_lanes_match_the_saturating_lanes() {
        integer_lanes_match(32, 2_000);
    }

    #[test]
    #[ignore = "long seeded sweep; run in release with --ignored"]
    fn integer_sat_lanes_match_the_saturating_lanes_on_a_long_sweep() {
        integer_lanes_match(33, 2_000_000);
    }
}
