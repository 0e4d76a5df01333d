//! Rigid transforms (rotation + translation) used by the kinematics chain.

use crate::mat3::Matrix3;
use crate::vec3::Vector3;

/// A rigid transform: rotation followed by translation, `p' = R p + t`.
///
/// This is the `f32` software representation of the 4×4 homogeneous
/// transformation matrices the OBB Generation Unit computes (§5.2, Fig 14a);
/// the bottom row of the homogeneous matrix is constant so only `R` and `t`
/// are stored.
///
/// # Examples
///
/// ```
/// use mp_geometry::{Mat3, Transform, Vec3};
///
/// let t = Transform::new(Mat3::rotation_z(std::f32::consts::FRAC_PI_2),
///                        Vec3::new(1.0, 0.0, 0.0));
/// let p = t.apply(Vec3::new(1.0, 0.0, 0.0));
/// assert!((p - Vec3::new(1.0, 1.0, 0.0)).length() < 1e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transform {
    /// Rotation part (columns are the transformed frame's axes).
    pub rotation: Matrix3<f32>,
    /// Translation part.
    pub translation: Vector3<f32>,
}

impl Transform {
    /// Creates a transform from rotation and translation.
    #[inline]
    pub fn new(rotation: Matrix3<f32>, translation: Vector3<f32>) -> Transform {
        Transform {
            rotation,
            translation,
        }
    }

    /// The identity transform.
    #[inline]
    pub fn identity() -> Transform {
        Transform::new(Matrix3::identity(), Vector3::zero())
    }

    /// A pure translation.
    #[inline]
    pub fn translation(t: Vector3<f32>) -> Transform {
        Transform::new(Matrix3::identity(), t)
    }

    /// A pure rotation.
    #[inline]
    pub fn rotation(r: Matrix3<f32>) -> Transform {
        Transform::new(r, Vector3::zero())
    }

    /// Applies the transform to a point.
    #[inline]
    pub fn apply(&self, p: Vector3<f32>) -> Vector3<f32> {
        self.rotation * p + self.translation
    }

    /// Applies only the rotation (for direction vectors).
    #[inline]
    pub fn apply_vector(&self, v: Vector3<f32>) -> Vector3<f32> {
        self.rotation * v
    }

    /// Composition: `(self ∘ rhs)(p) = self(rhs(p))`.
    #[inline]
    pub fn compose(&self, rhs: &Transform) -> Transform {
        Transform::new(
            self.rotation * rhs.rotation,
            self.rotation * rhs.translation + self.translation,
        )
    }
}

impl Default for Transform {
    fn default() -> Transform {
        Transform::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mat3, Vec3};
    use core::f32::consts::FRAC_PI_2;

    fn close(a: Vec3, b: Vec3) -> bool {
        (a - b).length() < 1e-5
    }

    #[test]
    fn identity_leaves_points() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(Transform::identity().apply(p), p);
        assert_eq!(Transform::default().apply(p), p);
    }

    #[test]
    fn translation_only() {
        let t = Transform::translation(Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(t.apply(Vec3::zero()), Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(t.apply_vector(Vec3::basis(0)), Vec3::basis(0));
    }

    #[test]
    fn rotation_then_translation_order() {
        let t = Transform::new(Mat3::rotation_z(FRAC_PI_2), Vec3::new(5.0, 0.0, 0.0));
        // Rotation happens before translation.
        assert!(close(t.apply(Vec3::basis(0)), Vec3::new(5.0, 1.0, 0.0)));
    }

    #[test]
    fn compose_matches_sequential_application() {
        let a = Transform::new(Mat3::rotation_x(0.4), Vec3::new(0.1, 0.2, 0.3));
        let b = Transform::new(Mat3::rotation_z(-0.9), Vec3::new(-0.5, 0.0, 0.7));
        let p = Vec3::new(0.3, -0.6, 0.9);
        assert!(close(a.compose(&b).apply(p), a.apply(b.apply(p))));
    }
}
