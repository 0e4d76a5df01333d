//! The scalar abstraction shared by the `f32` reference path and the
//! fixed-point hardware path.

use core::fmt::Debug;
use core::ops::{Add, Mul, Neg, Sub};

use mp_fixed::{Fx, FRAC_BITS};

use crate::soa::{self, SatConsts};

/// A numeric type the geometry kernels can run on.
///
/// Implemented for `f32` (exact software reference) and [`Fx`] (the Q3.12
/// fixed-point format used by the accelerator datapath). The trait is
/// deliberately tiny: the separating-axis test and sphere tests only need
/// ring operations, comparison and absolute value — the hardware never
/// divides or takes square roots.
///
/// This trait is sealed: it is not meant to be implemented outside this
/// crate, because the hardware models assume one of the two blessed
/// representations.
pub trait Scalar:
    Copy
    + Debug
    + Default
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + private::Sealed
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Smallest positive quantum used as a robustness epsilon in the
    /// cross-product axes of the separating-axis test.
    fn epsilon() -> Self;
    /// Conversion from `f32` (rounding for fixed point).
    fn from_f32(v: f32) -> Self;
    /// Conversion to `f32` (exact for both implementations).
    fn to_f32(self) -> f32;
    /// The smaller of two values.
    fn min_val(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }
    /// The larger of two values.
    fn max_val(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
    /// The raw Q3.12 value widened to `i32`, for [`Fx`] only (`None` for
    /// `f32`): lets the hoisted cascade run Q3.12 stages in exact integer
    /// arithmetic where the saturating chain cannot clamp.
    #[doc(hidden)]
    #[inline]
    fn q312_bits(self) -> Option<i32> {
        None
    }
    /// Squared distance from point `p` to the box with centre `c` and half
    /// extents `h` (per axis: clamp `p` into `[c - h, c + h]`, subtract,
    /// square, then sum), in this scalar's arithmetic: the value both
    /// sphere filters of the cascade compare against their squared radii.
    ///
    /// This default is the scalar expression of
    /// [`sphere_aabb_overlap`](crate::sphere::sphere_aabb_overlap). [`Fx`]
    /// computes the same saturating Q3.12 chain exactly in `i32`.
    #[inline]
    fn box_dist2(p: [Self; 3], c: [Self; 3], h: [Self; 3]) -> Self {
        let axis = |k: usize| {
            let q = p[k].max_val(c[k] - h[k]).min_val(c[k] + h[k]);
            q - p[k]
        };
        let (dx, dy, dz) = (axis(0), axis(1), axis(2));
        dx * dx + dy * dy + dz * dz
    }
    /// The first of the 15 candidate axes (1-based, in
    /// [`AxisId`](crate::sat::AxisId) order) that separates the OBB whose
    /// constants `c` holds from the box with translation `t` (OBB centre
    /// minus box centre) and half extents `b`, or `None` if none does: the
    /// SAT stages of [`HoistedCascade`](crate::soa::HoistedCascade), each
    /// axis test straight-line code with its own literal axis.
    ///
    /// This default runs the scalar expressions of
    /// [`test_axis`](crate::sat::test_axis). [`Fx`] runs them in exact
    /// `i32` arithmetic for a box the saturating chain cannot clamp, and
    /// calls the saturating chain, out of line, for any other box.
    #[doc(hidden)]
    #[inline(always)]
    fn sat_first_separating(c: &SatConsts<Self>, t: [Self; 3], b: [Self; 3]) -> Option<u8> {
        soa::scalar_lanes(c, t, b)
    }
}

impl Scalar for f32 {
    #[inline]
    fn zero() -> f32 {
        0.0
    }
    #[inline]
    fn one() -> f32 {
        1.0
    }
    #[inline]
    fn abs(self) -> f32 {
        f32::abs(self)
    }
    #[inline]
    fn epsilon() -> f32 {
        1e-6
    }
    #[inline]
    fn from_f32(v: f32) -> f32 {
        v
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
}

impl Scalar for Fx {
    #[inline]
    fn zero() -> Fx {
        Fx::ZERO
    }
    #[inline]
    fn one() -> Fx {
        Fx::ONE
    }
    #[inline]
    fn abs(self) -> Fx {
        Fx::abs(self)
    }
    #[inline]
    fn epsilon() -> Fx {
        Fx::EPSILON
    }
    #[inline]
    fn from_f32(v: f32) -> Fx {
        Fx::from_f32(v)
    }
    #[inline]
    fn to_f32(self) -> f32 {
        Fx::to_f32(self)
    }
    #[inline]
    fn q312_bits(self) -> Option<i32> {
        Some(i32::from(self.to_bits()))
    }
    /// The saturating chain `dx*dx + dy*dy + dz*dz` without its per-step
    /// clamps: each rounded square is non-negative, so the saturating
    /// square and the two saturating adds equal the exact `i32` sum of the
    /// unclamped rounded squares, clamped once at `Fx::MAX`.
    #[inline]
    fn box_dist2(p: [Fx; 3], c: [Fx; 3], h: [Fx; 3]) -> Fx {
        let square = |k: usize| {
            let q = p[k].max(c[k] - h[k]).min(c[k] + h[k]);
            let d = i32::from((q - p[k]).to_bits());
            (d * d + (1 << (FRAC_BITS - 1))) >> FRAC_BITS
        };
        let sum = square(0) + square(1) + square(2);
        Fx::from_bits(sum.min(i32::from(i16::MAX)) as i16)
    }
    #[inline(always)]
    fn sat_first_separating(c: &SatConsts<Fx>, t: [Fx; 3], b: [Fx; 3]) -> Option<u8> {
        soa::fx_lanes(c, t, b)
    }
}

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for mp_fixed::Fx {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_scalar_basics() {
        assert_eq!(<f32 as Scalar>::zero(), 0.0);
        assert_eq!(<f32 as Scalar>::one(), 1.0);
        assert_eq!(Scalar::abs(-2.0f32), 2.0);
        assert_eq!(2.0f32.min_val(3.0), 2.0);
        assert_eq!(2.0f32.max_val(3.0), 3.0);
    }

    #[test]
    fn fx_scalar_basics() {
        assert_eq!(<Fx as Scalar>::zero(), Fx::ZERO);
        assert_eq!(<Fx as Scalar>::one(), Fx::ONE);
        assert_eq!(Scalar::abs(Fx::from_f32(-2.0)), Fx::from_f32(2.0));
        assert_eq!(<Fx as Scalar>::epsilon(), Fx::EPSILON);
    }

    #[test]
    fn conversion_roundtrip() {
        let v = 0.125f32;
        assert_eq!(<Fx as Scalar>::from_f32(v).to_f32(), v);
        assert_eq!(<f32 as Scalar>::from_f32(v).to_f32(), v);
    }
}
