//! 3-component vectors, generic over the scalar type.

use core::ops::{Add, AddAssign, Index, Mul, Neg, Sub, SubAssign};

use mp_fixed::Fx;

use crate::scalar::Scalar;

/// A 3-component vector over scalar type `S`.
///
/// Use the [`crate::Vec3`] (`f32`) and [`crate::FxVec3`] (fixed-point)
/// aliases in most code.
///
/// # Examples
///
/// ```
/// use mp_geometry::Vec3;
///
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::new(4.0, 5.0, 6.0);
/// assert_eq!(a.dot(b), 32.0);
/// assert_eq!(a.cross(b), Vec3::new(-3.0, 6.0, -3.0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Vector3<S> {
    /// X component.
    pub x: S,
    /// Y component.
    pub y: S,
    /// Z component.
    pub z: S,
}

impl<S: Scalar> Vector3<S> {
    /// Creates a vector from its components.
    #[inline]
    pub fn new(x: S, y: S, z: S) -> Vector3<S> {
        Vector3 { x, y, z }
    }

    /// The zero vector.
    #[inline]
    pub fn zero() -> Vector3<S> {
        Vector3::new(S::zero(), S::zero(), S::zero())
    }

    /// A vector with all three components equal to `v`.
    #[inline]
    pub fn splat(v: S) -> Vector3<S> {
        Vector3::new(v, v, v)
    }

    /// The `i`-th standard basis vector.
    ///
    /// # Panics
    ///
    /// Panics if `i > 2`.
    #[inline]
    pub fn basis(i: usize) -> Vector3<S> {
        assert!(i < 3, "Vector3 basis index out of range: {i}");
        let mut v = Vector3::zero();
        match i {
            0 => v.x = S::one(),
            1 => v.y = S::one(),
            _ => v.z = S::one(),
        }
        v
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vector3<S>) -> S {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Vector3<S>) -> Vector3<S> {
        Vector3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vector3<S> {
        Vector3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vector3<S>) -> Vector3<S> {
        Vector3::new(
            self.x.min_val(rhs.x),
            self.y.min_val(rhs.y),
            self.z.min_val(rhs.z),
        )
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vector3<S>) -> Vector3<S> {
        Vector3::new(
            self.x.max_val(rhs.x),
            self.y.max_val(rhs.y),
            self.z.max_val(rhs.z),
        )
    }

    /// The smallest component.
    #[inline]
    pub fn min_element(self) -> S {
        self.x.min_val(self.y).min_val(self.z)
    }

    /// The largest component.
    #[inline]
    pub fn max_element(self) -> S {
        self.x.max_val(self.y).max_val(self.z)
    }

    /// Component-wise multiplication (Hadamard product).
    #[inline]
    pub fn mul_elementwise(self, rhs: Vector3<S>) -> Vector3<S> {
        Vector3::new(self.x * rhs.x, self.y * rhs.y, self.z * rhs.z)
    }

    /// Scales by a scalar.
    #[inline]
    pub fn scale(self, s: S) -> Vector3<S> {
        Vector3::new(self.x * s, self.y * s, self.z * s)
    }

    /// Converts every component to `f32`.
    #[inline]
    pub fn to_f32(self) -> Vector3<f32> {
        Vector3::new(self.x.to_f32(), self.y.to_f32(), self.z.to_f32())
    }
}

impl Vector3<f32> {
    /// Squared Euclidean length.
    #[inline]
    pub fn length_squared(self) -> f32 {
        self.dot(self)
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.length_squared().sqrt()
    }

    /// Euclidean distance to `rhs`.
    #[inline]
    pub fn distance(self, rhs: Vector3<f32>) -> f32 {
        (self - rhs).length()
    }

    /// Returns the unit vector in this direction, or `None` for (near-)zero
    /// vectors.
    #[inline]
    pub fn normalized(self) -> Option<Vector3<f32>> {
        let len = self.length();
        if len <= 1e-12 {
            None
        } else {
            Some(self.scale(1.0 / len))
        }
    }

    /// Linear interpolation: `self + t * (rhs - self)`.
    #[inline]
    pub fn lerp(self, rhs: Vector3<f32>, t: f32) -> Vector3<f32> {
        self + (rhs - self).scale(t)
    }

    /// Quantizes to the fixed-point representation used by the hardware.
    #[inline]
    pub fn quantize(self) -> Vector3<Fx> {
        Vector3::new(
            Fx::from_f32(self.x),
            Fx::from_f32(self.y),
            Fx::from_f32(self.z),
        )
    }
}

impl<S: Scalar> From<[S; 3]> for Vector3<S> {
    #[inline]
    fn from(a: [S; 3]) -> Vector3<S> {
        Vector3::new(a[0], a[1], a[2])
    }
}

impl<S: Scalar> Add for Vector3<S> {
    type Output = Vector3<S>;
    #[inline]
    fn add(self, rhs: Vector3<S>) -> Vector3<S> {
        Vector3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl<S: Scalar> AddAssign for Vector3<S> {
    #[inline]
    fn add_assign(&mut self, rhs: Vector3<S>) {
        *self = *self + rhs;
    }
}

impl<S: Scalar> Sub for Vector3<S> {
    type Output = Vector3<S>;
    #[inline]
    fn sub(self, rhs: Vector3<S>) -> Vector3<S> {
        Vector3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl<S: Scalar> SubAssign for Vector3<S> {
    #[inline]
    fn sub_assign(&mut self, rhs: Vector3<S>) {
        *self = *self - rhs;
    }
}

impl<S: Scalar> Neg for Vector3<S> {
    type Output = Vector3<S>;
    #[inline]
    fn neg(self) -> Vector3<S> {
        Vector3::new(-self.x, -self.y, -self.z)
    }
}

impl<S: Scalar> Mul<S> for Vector3<S> {
    type Output = Vector3<S>;
    #[inline]
    fn mul(self, s: S) -> Vector3<S> {
        self.scale(s)
    }
}

impl<S> Index<usize> for Vector3<S> {
    type Output = S;
    /// Indexes components 0 (x), 1 (y), 2 (z).
    ///
    /// # Panics
    ///
    /// Panics if `i > 2`.
    #[inline]
    fn index(&self, i: usize) -> &S {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vector3 index out of range: {i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Vec3;

    #[test]
    fn construction_and_zero() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!((v.x, v.y, v.z), (1.0, 2.0, 3.0));
        assert_eq!(Vec3::zero().length(), 0.0);
        assert_eq!(Vec3::splat(2.0), Vec3::new(2.0, 2.0, 2.0));
    }

    #[test]
    fn basis_vectors() {
        assert_eq!(Vec3::basis(0), Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(Vec3::basis(1), Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(Vec3::basis(2), Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = Vec3::basis(3);
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::basis(0);
        let y = Vec3::basis(1);
        let z = Vec3::basis(2);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(z), x);
        assert_eq!(z.cross(x), y);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.dot(x), 1.0);
    }

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(0.5, 0.5, 0.5);
        assert_eq!(a + b, Vec3::new(1.5, 2.5, 3.5));
        assert_eq!(a - b, Vec3::new(0.5, 1.5, 2.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(a.mul_elementwise(b), Vec3::new(0.5, 1.0, 1.5));
    }

    #[test]
    fn length_and_normalize() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.length(), 5.0);
        let n = v.normalized().unwrap();
        assert!((n.length() - 1.0).abs() < 1e-6);
        assert_eq!(Vec3::zero().normalized(), None);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(1.0, 2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(0.5, 1.0, 2.0));
    }

    #[test]
    fn min_max_elementwise() {
        let a = Vec3::new(1.0, 5.0, 3.0);
        let b = Vec3::new(2.0, 4.0, 3.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 3.0));
        assert_eq!(a.min_element(), 1.0);
        assert_eq!(a.max_element(), 5.0);
    }

    #[test]
    fn quantize_round_trip() {
        let v = Vec3::new(0.5, -0.25, 0.125);
        assert_eq!(v.quantize().to_f32(), v);
    }

    #[test]
    fn index_access() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[0], 7.0);
        assert_eq!(v[1], 8.0);
        assert_eq!(v[2], 9.0);
    }

    #[test]
    fn fixed_point_vector_ops() {
        use mp_fixed::Fx;
        let a = Vec3::new(0.5, 0.25, -0.5).quantize();
        let b = Vec3::new(0.5, 0.5, 0.5).quantize();
        assert_eq!(a.dot(b), Fx::from_f32(0.125));
        let s = a + b;
        assert_eq!(s.to_f32(), Vec3::new(1.0, 0.75, 0.0));
    }
}
