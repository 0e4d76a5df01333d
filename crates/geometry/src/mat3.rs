//! 3×3 matrices, generic over the scalar type.

use core::ops::{Index, Mul};

use mp_fixed::Fx;

use crate::scalar::Scalar;
use crate::vec3::Vector3;

/// A 3×3 matrix stored row-major.
///
/// For rotations, the convention throughout the workspace is that the
/// *columns* of the matrix are the rotated frame's axes expressed in world
/// coordinates, so `world = m * local`.
///
/// # Examples
///
/// ```
/// use mp_geometry::{Mat3, Vec3};
///
/// let r = Mat3::rotation_z(std::f32::consts::FRAC_PI_2);
/// let v = r * Vec3::new(1.0, 0.0, 0.0);
/// assert!((v.x - 0.0).abs() < 1e-6);
/// assert!((v.y - 1.0).abs() < 1e-6);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Matrix3<S> {
    rows: [Vector3<S>; 3],
}

impl<S: Scalar> Matrix3<S> {
    /// Creates a matrix from three rows.
    #[inline]
    pub fn from_rows(r0: Vector3<S>, r1: Vector3<S>, r2: Vector3<S>) -> Matrix3<S> {
        Matrix3 { rows: [r0, r1, r2] }
    }

    /// Creates a matrix from three columns.
    #[inline]
    fn from_cols(c0: Vector3<S>, c1: Vector3<S>, c2: Vector3<S>) -> Matrix3<S> {
        Matrix3::from_rows(
            Vector3::new(c0.x, c1.x, c2.x),
            Vector3::new(c0.y, c1.y, c2.y),
            Vector3::new(c0.z, c1.z, c2.z),
        )
    }

    /// The identity matrix.
    #[inline]
    pub fn identity() -> Matrix3<S> {
        Matrix3::from_rows(
            Vector3::new(S::one(), S::zero(), S::zero()),
            Vector3::new(S::zero(), S::one(), S::zero()),
            Vector3::new(S::zero(), S::zero(), S::one()),
        )
    }

    /// Row `i` of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `i > 2`.
    #[inline]
    pub fn row(&self, i: usize) -> Vector3<S> {
        self.rows[i]
    }

    /// Column `j` of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `j > 2`.
    #[inline]
    pub fn col(&self, j: usize) -> Vector3<S> {
        Vector3::new(self.rows[0][j], self.rows[1][j], self.rows[2][j])
    }

    /// The element at row `i`, column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 2` or `j > 2`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> S {
        self.rows[i][j]
    }

    /// The transpose.
    #[inline]
    pub fn transpose(&self) -> Matrix3<S> {
        Matrix3::from_rows(self.col(0), self.col(1), self.col(2))
    }

    /// Component-wise absolute value (used to build the `|R|` matrix of the
    /// separating-axis test).
    #[inline]
    pub fn abs(&self) -> Matrix3<S> {
        Matrix3::from_rows(self.rows[0].abs(), self.rows[1].abs(), self.rows[2].abs())
    }

    /// Converts every element to `f32`.
    #[inline]
    pub fn to_f32(&self) -> Matrix3<f32> {
        Matrix3::from_rows(
            self.rows[0].to_f32(),
            self.rows[1].to_f32(),
            self.rows[2].to_f32(),
        )
    }
}

impl Matrix3<f32> {
    /// Rotation about the world X axis by `angle` radians.
    pub fn rotation_x(angle: f32) -> Matrix3<f32> {
        let (s, c) = angle.sin_cos();
        Matrix3::from_rows(
            Vector3::new(1.0, 0.0, 0.0),
            Vector3::new(0.0, c, -s),
            Vector3::new(0.0, s, c),
        )
    }

    /// Rotation about the world Y axis by `angle` radians.
    pub fn rotation_y(angle: f32) -> Matrix3<f32> {
        let (s, c) = angle.sin_cos();
        Matrix3::from_rows(
            Vector3::new(c, 0.0, s),
            Vector3::new(0.0, 1.0, 0.0),
            Vector3::new(-s, 0.0, c),
        )
    }

    /// Rotation about the world Z axis by `angle` radians.
    pub fn rotation_z(angle: f32) -> Matrix3<f32> {
        let (s, c) = angle.sin_cos();
        Matrix3::from_rows(
            Vector3::new(c, -s, 0.0),
            Vector3::new(s, c, 0.0),
            Vector3::new(0.0, 0.0, 1.0),
        )
    }

    /// Quantizes every element to fixed point.
    #[inline]
    pub fn quantize(&self) -> Matrix3<Fx> {
        Matrix3::from_rows(
            self.rows[0].quantize(),
            self.rows[1].quantize(),
            self.rows[2].quantize(),
        )
    }

    /// Measures how far this matrix is from orthonormal (0 for perfect
    /// rotation matrices). Useful for validating kinematics chains.
    pub fn orthonormality_error(&self) -> f32 {
        let t = *self * self.transpose();
        let i = Matrix3::<f32>::identity();
        let mut err: f32 = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                let d: f32 = t.at(r, c) - i.at(r, c);
                err = err.max(f32::abs(d));
            }
        }
        err
    }
}

impl<S: Scalar> Mul<Vector3<S>> for Matrix3<S> {
    type Output = Vector3<S>;
    #[inline]
    fn mul(self, v: Vector3<S>) -> Vector3<S> {
        Vector3::new(
            self.rows[0].dot(v),
            self.rows[1].dot(v),
            self.rows[2].dot(v),
        )
    }
}

impl<S: Scalar> Mul<Matrix3<S>> for Matrix3<S> {
    type Output = Matrix3<S>;
    #[inline]
    fn mul(self, rhs: Matrix3<S>) -> Matrix3<S> {
        Matrix3::from_cols(self * rhs.col(0), self * rhs.col(1), self * rhs.col(2))
    }
}

impl<S> Index<(usize, usize)> for Matrix3<S> {
    type Output = S;
    /// Indexes by `(row, column)`.
    ///
    /// # Panics
    ///
    /// Panics if either index exceeds 2.
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        &self.rows[i][j]
    }
}

#[cfg(test)]
mod tests {
    use crate::{Mat3, Vec3};
    use core::f32::consts::{FRAC_PI_2, PI};

    fn assert_vec_close(a: Vec3, b: Vec3) {
        assert!((a - b).length() < 1e-5, "{a:?} != {b:?}");
    }

    #[test]
    fn identity_is_noop() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::identity() * v, v);
    }

    #[test]
    fn rotation_z_quarter_turn() {
        let r = Mat3::rotation_z(FRAC_PI_2);
        assert_vec_close(r * Vec3::basis(0), Vec3::basis(1));
        assert_vec_close(r * Vec3::basis(1), -Vec3::basis(0));
    }

    #[test]
    fn rotation_x_and_y() {
        assert_vec_close(Mat3::rotation_x(FRAC_PI_2) * Vec3::basis(1), Vec3::basis(2));
        assert_vec_close(Mat3::rotation_y(FRAC_PI_2) * Vec3::basis(2), Vec3::basis(0));
    }

    #[test]
    fn transpose_of_rotation_is_inverse() {
        let r = Mat3::rotation_y(0.7) * Mat3::rotation_x(-0.3);
        let should_be_identity = r * r.transpose();
        assert!(should_be_identity.orthonormality_error() < 1e-5);
        assert!((should_be_identity.at(0, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rows_and_cols_agree() {
        let m = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 9.0),
        );
        assert_eq!(m.col(0), Vec3::new(1.0, 4.0, 7.0));
        assert_eq!(m.at(1, 2), 6.0);
        assert_eq!(m[(2, 1)], 8.0);
        assert_eq!(m.transpose().row(0), Vec3::new(1.0, 4.0, 7.0));
        let rebuilt = Mat3::from_cols(m.col(0), m.col(1), m.col(2));
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn matrix_product_associates_with_vector_product() {
        let a = Mat3::rotation_z(0.5);
        let b = Mat3::rotation_x(0.25);
        let v = Vec3::new(0.3, -0.4, 0.9);
        assert_vec_close((a * b) * v, a * (b * v));
    }

    #[test]
    fn abs_matrix() {
        let m = Mat3::rotation_z(PI); // has -1 entries
        let a = m.abs();
        for i in 0..3 {
            for j in 0..3 {
                assert!(a.at(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn quantized_rotation_stays_close() {
        let r = Mat3::rotation_z(0.37) * Mat3::rotation_y(-0.81);
        let q = r.quantize().to_f32();
        for i in 0..3 {
            for j in 0..3 {
                assert!((q.at(i, j) - r.at(i, j)).abs() < 1.0 / 4096.0);
            }
        }
    }
}
