//! 16-bit fixed-point arithmetic for the MPAccel hardware datapath models.
//!
//! The MPAccel paper (§6) uses a 16-bit fixed-point number representation for
//! poses, oriented bounding boxes (OBBs) and axis-aligned bounding boxes
//! (AABBs). This crate provides that representation as [`Fx`], a Q3.12
//! signed fixed-point type: 1 sign bit, 3 integer bits, 12 fractional bits,
//! covering the range `[-8, 8)` with a resolution of `2^-12 ≈ 0.000244`.
//!
//! All geometry in the reproduction is expressed in *normalized workspace
//! units*: the environment extent is mapped to `[-1, 1]`, so Q3.12 leaves
//! three integer bits of headroom for intermediate sums (e.g. projections of
//! box extents in the separating-axis test).
//!
//! Multiplications round to nearest and saturate, matching a hardware
//! multiplier followed by a saturating truncation stage. Additions saturate
//! as well: the RTL described in the paper sizes its adders so that overflow
//! clamps rather than wraps.
//!
//! # Examples
//!
//! ```
//! use mp_fixed::Fx;
//!
//! let a = Fx::from_f32(0.5);
//! let b = Fx::from_f32(0.25);
//! assert_eq!((a * b).to_f32(), 0.125);
//! assert!((a + b).to_f32() > 0.74 && (a + b).to_f32() < 0.76);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Number of fractional bits in [`Fx`] (Q3.12).
pub const FRAC_BITS: u32 = 12;

/// The scale factor `2^FRAC_BITS` relating raw integer values to reals.
pub const SCALE: i32 = 1 << FRAC_BITS;

/// Smallest positive increment representable by [`Fx`] (`2^-12`).
pub const RESOLUTION: f32 = 1.0 / SCALE as f32;

/// A signed Q3.12 fixed-point number stored in 16 bits.
///
/// See the [crate-level documentation](crate) for the rationale. `Fx`
/// implements the usual arithmetic operators with *saturating* semantics;
/// overflow never wraps or panics.
///
/// # Examples
///
/// ```
/// use mp_fixed::Fx;
///
/// let x = Fx::from_f32(1.5);
/// assert_eq!((-x).to_f32(), -1.5);
/// assert_eq!(x.abs(), x);
/// assert_eq!(Fx::MAX + Fx::MAX, Fx::MAX); // saturates
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Fx(i16);

impl Fx {
    /// Zero.
    pub const ZERO: Fx = Fx(0);
    /// One.
    pub const ONE: Fx = Fx(SCALE as i16);
    /// Negative one.
    pub const NEG_ONE: Fx = Fx(-(SCALE as i16));
    /// One half.
    pub const HALF: Fx = Fx((SCALE / 2) as i16);
    /// Largest representable value (`8 - 2^-12`).
    pub const MAX: Fx = Fx(i16::MAX);
    /// Smallest representable value (`-8`).
    pub const MIN: Fx = Fx(i16::MIN);
    /// Smallest positive value (`2^-12`).
    pub const EPSILON: Fx = Fx(1);

    /// Creates an `Fx` from its raw 16-bit two's-complement representation.
    ///
    /// # Examples
    ///
    /// ```
    /// use mp_fixed::Fx;
    /// assert_eq!(Fx::from_bits(1 << 12), Fx::ONE);
    /// ```
    #[inline]
    pub const fn from_bits(bits: i16) -> Fx {
        Fx(bits)
    }

    /// Returns the raw 16-bit two's-complement representation.
    ///
    /// # Examples
    ///
    /// ```
    /// use mp_fixed::Fx;
    /// assert_eq!(Fx::ONE.to_bits(), 1 << 12);
    /// ```
    #[inline]
    pub const fn to_bits(self) -> i16 {
        self.0
    }

    /// Converts from `f32`, rounding to nearest (ties away from zero) and
    /// saturating to the representable range.
    ///
    /// Non-finite inputs saturate: `NaN` maps to zero, `+inf` to [`Fx::MAX`],
    /// `-inf` to [`Fx::MIN`].
    ///
    /// # Examples
    ///
    /// ```
    /// use mp_fixed::Fx;
    /// assert_eq!(Fx::from_f32(100.0), Fx::MAX);
    /// assert_eq!(Fx::from_f32(f32::NAN), Fx::ZERO);
    /// assert_eq!(Fx::from_f32(-1.5 / 4096.0).to_bits(), -2);
    /// ```
    #[inline]
    pub fn from_f32(v: f32) -> Fx {
        // Rounding commutes with clamping to integer rails, so clamp first;
        // the truncation below is then exact and `s - t` is the exact
        // fractional part. No libm `roundf` call: this sits under every box
        // quantization. NaN survives the clamp, truncates to 0 and fails
        // both tie comparisons, so it maps to zero.
        let s = (v * SCALE as f32).clamp(i16::MIN as f32, i16::MAX as f32);
        let t = s as i32;
        let frac = s - t as f32;
        Fx((t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i16)
    }

    /// Converts to `f32` exactly (every `Fx` is exactly representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 * RESOLUTION
    }

    /// Converts from `f64`, rounding to nearest and saturating.
    #[inline]
    pub fn from_f64(v: f64) -> Fx {
        Fx::from_f32(v as f32)
    }

    /// Converts to `f64` exactly.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Absolute value, saturating (`|Fx::MIN|` clamps to [`Fx::MAX`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use mp_fixed::Fx;
    /// assert_eq!(Fx::MIN.abs(), Fx::MAX);
    /// assert_eq!(Fx::from_f32(-0.5).abs().to_f32(), 0.5);
    /// ```
    #[inline]
    pub const fn abs(self) -> Fx {
        if self.0 == i16::MIN {
            Fx::MAX
        } else if self.0 < 0 {
            Fx(-self.0)
        } else {
            self
        }
    }

    /// Returns `true` if this value is negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Returns the smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Fx) -> Fx {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Fx) -> Fx {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamps `self` into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn clamp(self, lo: Fx, hi: Fx) -> Fx {
        assert!(lo <= hi, "Fx::clamp called with lo > hi");
        self.max(lo).min(hi)
    }

    /// Saturating addition (the behaviour of the `+` operator, made explicit).
    #[inline]
    pub const fn saturating_add(self, rhs: Fx) -> Fx {
        Fx(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, rhs: Fx) -> Fx {
        Fx(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication with round-to-nearest, mirroring the
    /// hardware multiplier + truncation stage.
    #[inline]
    pub const fn saturating_mul(self, rhs: Fx) -> Fx {
        let wide = self.0 as i32 * rhs.0 as i32;
        // Round to nearest: add half an LSB before shifting.
        let rounded = (wide + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
        if rounded > i16::MAX as i32 {
            Fx::MAX
        } else if rounded < i16::MIN as i32 {
            Fx::MIN
        } else {
            Fx(rounded as i16)
        }
    }

    /// The square of `self`, saturating. Never negative.
    #[inline]
    pub const fn square(self) -> Fx {
        self.saturating_mul(self)
    }

    /// Wide multiply: the exact 32-bit Q6.24 product, for accumulator-style
    /// datapaths that postpone truncation (used by squared-distance sums in
    /// the sphere tests, where the RTL keeps a wide accumulator).
    #[inline]
    pub const fn wide_mul(self, rhs: Fx) -> i32 {
        self.0 as i32 * rhs.0 as i32
    }
}

impl Add for Fx {
    type Output = Fx;
    #[inline]
    fn add(self, rhs: Fx) -> Fx {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Fx {
    #[inline]
    fn add_assign(&mut self, rhs: Fx) {
        *self = *self + rhs;
    }
}

impl Sub for Fx {
    type Output = Fx;
    #[inline]
    fn sub(self, rhs: Fx) -> Fx {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Fx {
    #[inline]
    fn sub_assign(&mut self, rhs: Fx) {
        *self = *self - rhs;
    }
}

impl Mul for Fx {
    type Output = Fx;
    #[inline]
    fn mul(self, rhs: Fx) -> Fx {
        self.saturating_mul(rhs)
    }
}

impl MulAssign for Fx {
    #[inline]
    fn mul_assign(&mut self, rhs: Fx) {
        *self = *self * rhs;
    }
}

impl Neg for Fx {
    type Output = Fx;
    #[inline]
    fn neg(self) -> Fx {
        Fx(self.0.checked_neg().unwrap_or(i16::MAX))
    }
}

impl Sum for Fx {
    fn sum<I: Iterator<Item = Fx>>(iter: I) -> Fx {
        iter.fold(Fx::ZERO, Fx::add)
    }
}

impl fmt::Debug for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fx({})", self.to_f32())
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl From<i8> for Fx {
    /// Converts a small integer, saturating outside `[-8, 7]`.
    #[inline]
    fn from(v: i8) -> Fx {
        let wide = (v as i32) << FRAC_BITS;
        if wide > i16::MAX as i32 {
            Fx::MAX
        } else if wide < i16::MIN as i32 {
            Fx::MIN
        } else {
            Fx(wide as i16)
        }
    }
}

/// A 64-bit accumulator for sums of Q6.24 [`Fx`] products.
///
/// The OOCD sphere tests accumulate three squared distances before a single
/// comparison; the RTL keeps that sum in a wide register. `Acc` models that:
/// products enter via [`Fx::wide_mul`] and comparisons happen at full width.
///
/// # Examples
///
/// ```
/// use mp_fixed::{Acc, Fx};
///
/// let mut acc = Acc::ZERO;
/// acc += Fx::from_f32(0.5).wide_mul(Fx::from_f32(0.5));
/// acc += Fx::from_f32(0.25).wide_mul(Fx::from_f32(0.25));
/// assert!(acc.to_f64() > 0.31 && acc.to_f64() < 0.32);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Acc(i64);

impl Acc {
    /// Zero.
    pub const ZERO: Acc = Acc(0);

    /// Creates an accumulator holding a single wide product.
    #[inline]
    pub const fn from_product(p: i32) -> Acc {
        Acc(p as i64)
    }

    /// Converts to `f64` (exact).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (SCALE as f64 * SCALE as f64)
    }

    /// Raw Q6.24 (widened to i64) value.
    #[inline]
    pub const fn raw(self) -> i64 {
        self.0
    }
}

impl Add for Acc {
    type Output = Acc;
    #[inline]
    fn add(self, rhs: Acc) -> Acc {
        Acc(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<i32> for Acc {
    #[inline]
    fn add_assign(&mut self, product: i32) {
        self.0 = self.0.saturating_add(product as i64);
    }
}

impl AddAssign for Acc {
    #[inline]
    fn add_assign(&mut self, rhs: Acc) {
        *self = *self + rhs;
    }
}

impl PartialOrd<Acc> for Fx {
    fn partial_cmp(&self, other: &Acc) -> Option<Ordering> {
        let lhs = (self.0 as i64) << FRAC_BITS; // promote Q3.12 -> Q6.24
        lhs.partial_cmp(&other.0)
    }
}

impl PartialEq<Acc> for Fx {
    fn eq(&self, other: &Acc) -> bool {
        ((self.0 as i64) << FRAC_BITS) == other.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(Fx::ONE.to_f32(), 1.0);
        assert_eq!(Fx::NEG_ONE.to_f32(), -1.0);
        assert_eq!(Fx::HALF.to_f32(), 0.5);
        assert_eq!(Fx::ZERO.to_f32(), 0.0);
        assert_eq!(Fx::EPSILON.to_f32(), RESOLUTION);
    }

    #[test]
    fn roundtrip_is_exact_on_grid() {
        for bits in [-32768i32, -1234, -1, 0, 1, 999, 32767] {
            let x = Fx::from_bits(bits as i16);
            assert_eq!(Fx::from_f32(x.to_f32()), x);
        }
    }

    #[test]
    fn from_f32_rounds_to_nearest() {
        // 0.6 * 4096 = 2457.6 -> 2458
        assert_eq!(Fx::from_f32(0.6).to_bits(), 2458);
        assert_eq!(Fx::from_f32(-0.6).to_bits(), -2458);
    }

    #[test]
    fn from_f32_saturates() {
        assert_eq!(Fx::from_f32(1e9), Fx::MAX);
        assert_eq!(Fx::from_f32(-1e9), Fx::MIN);
        assert_eq!(Fx::from_f32(f32::INFINITY), Fx::MAX);
        assert_eq!(Fx::from_f32(f32::NEG_INFINITY), Fx::MIN);
        assert_eq!(Fx::from_f32(f32::NAN), Fx::ZERO);
    }

    #[test]
    fn add_saturates_not_wraps() {
        assert_eq!(Fx::MAX + Fx::EPSILON, Fx::MAX);
        assert_eq!(Fx::MIN - Fx::EPSILON, Fx::MIN);
        assert_eq!(Fx::MAX + Fx::MIN, Fx::from_bits(-1));
    }

    #[test]
    fn mul_basics() {
        let half = Fx::HALF;
        assert_eq!(half * half, Fx::from_f32(0.25));
        assert_eq!(Fx::ONE * Fx::ONE, Fx::ONE);
        assert_eq!(Fx::NEG_ONE * Fx::NEG_ONE, Fx::ONE);
        assert_eq!(Fx::ZERO * Fx::MAX, Fx::ZERO);
    }

    #[test]
    fn mul_saturates() {
        let four = Fx::from_f32(4.0);
        assert_eq!(four * four, Fx::MAX); // 16 > 8
        assert_eq!(four * (-four), Fx::MIN);
    }

    #[test]
    fn mul_rounds_to_nearest() {
        // (1 LSB) * (1/2) = half an LSB -> rounds up to 1 LSB.
        assert_eq!(Fx::EPSILON * Fx::HALF, Fx::EPSILON);
        // (1 LSB) * (1/4) = quarter LSB -> rounds down to 0.
        assert_eq!(Fx::EPSILON * Fx::from_f32(0.25), Fx::ZERO);
    }

    #[test]
    fn neg_and_abs() {
        assert_eq!(-Fx::ONE, Fx::NEG_ONE);
        assert_eq!(Fx::MIN.abs(), Fx::MAX);
        assert_eq!(-Fx::MIN, Fx::MAX); // checked_neg saturates
        assert_eq!(Fx::from_f32(-2.5).abs().to_f32(), 2.5);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Fx::from_f32(-1.0);
        let b = Fx::from_f32(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(b.clamp(Fx::ZERO, Fx::ONE), Fx::ONE);
        assert_eq!(a.clamp(Fx::ZERO, Fx::ONE), Fx::ZERO);
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn clamp_panics_on_inverted_range() {
        let _ = Fx::ZERO.clamp(Fx::ONE, Fx::ZERO);
    }

    #[test]
    fn sum_iterator() {
        let xs = [Fx::HALF, Fx::HALF, Fx::ONE];
        let total: Fx = xs.iter().copied().sum();
        assert_eq!(total, Fx::from_f32(2.0));
    }

    #[test]
    fn accumulator_compare_against_fx() {
        let mut acc = Acc::ZERO;
        acc += Fx::HALF.wide_mul(Fx::HALF); // 0.25
        acc += Fx::HALF.wide_mul(Fx::HALF); // 0.5 total
        assert!(Fx::HALF == acc);
        assert!(Fx::ONE > acc);
        assert!(Fx::from_f32(0.4) < acc);
    }

    #[test]
    fn wide_mul_is_exact() {
        let a = Fx::from_f32(1.5);
        let b = Fx::from_f32(-2.0);
        let acc = Acc::from_product(a.wide_mul(b));
        assert_eq!(acc.to_f64(), -3.0);
    }

    #[test]
    fn from_i8_saturates_outside_range() {
        assert_eq!(Fx::from(2i8).to_f32(), 2.0);
        assert_eq!(Fx::from(-8i8), Fx::MIN);
        assert_eq!(Fx::from(100i8), Fx::MAX);
        assert_eq!(Fx::from(-100i8), Fx::MIN);
    }

    #[test]
    fn debug_display_nonempty() {
        assert_eq!(format!("{:?}", Fx::ONE), "Fx(1)");
        assert_eq!(format!("{}", Fx::HALF), "0.5");
    }
}
