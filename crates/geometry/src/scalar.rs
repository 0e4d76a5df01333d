//! The scalar abstraction shared by the `f32` reference path and the
//! fixed-point hardware path.

use core::fmt::Debug;
use core::ops::{Add, Mul, Neg, Sub};

use mp_fixed::Fx;

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
