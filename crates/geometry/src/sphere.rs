//! Spheres and the sphere–AABB overlap test used by the cascade filters.

use mp_fixed::{Acc, Fx};

use crate::aabb::Aabb;
use crate::scalar::Scalar;
use crate::vec3::Vector3;

/// Number of multiplications in one sphere–AABB overlap test.
///
/// The paper (§4): "The intersection test between a sphere and an AABB
/// requires three multiplications compared to 81 for checking all 15
/// separating axes" — the three squares of the per-axis clamped distances
/// (the radius is stored pre-squared).
pub const SPHERE_AABB_MULS: u32 = 3;

/// Sphere–AABB overlap in the scalar's native (narrow) arithmetic: the
/// cascade's filter primitive, factored out so the batched SoA kernels can
/// share the exact scalar expression. Squared distance from `center` to the
/// box's closest point is compared against `radius * radius`; touching
/// counts as overlap.
#[inline]
pub fn sphere_aabb_overlap<S: Scalar>(center: Vector3<S>, radius: S, aabb: &Aabb<S>) -> bool {
    let closest = aabb.closest_point(center);
    let d = closest - center;
    let dist2 = d.dot(d);
    let r2 = radius * radius;
    dist2 <= r2
}

/// A sphere given by center and radius.
///
/// # Examples
///
/// ```
/// use mp_geometry::{Aabb, Sphere, Vec3};
///
/// let s = Sphere::new(Vec3::zero(), 1.0);
/// let b = Aabb::new(Vec3::new(1.5, 0.0, 0.0), Vec3::splat(1.0));
/// assert!(s.overlaps_aabb(&b));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sphere<S = f32> {
    /// Center of the sphere.
    pub center: Vector3<S>,
    /// Radius (non-negative).
    pub radius: S,
}

impl<S: Scalar> Sphere<S> {
    /// Creates a sphere.
    #[inline]
    pub fn new(center: Vector3<S>, radius: S) -> Sphere<S> {
        Sphere {
            center,
            radius: radius.abs(),
        }
    }
}

impl Sphere<f32> {
    /// Whether the sphere overlaps the AABB (touching counts).
    ///
    /// Uses Arvo's clamping algorithm: the squared distance from the sphere
    /// center to the closest point of the box is compared against `r²`.
    #[inline]
    pub fn overlaps_aabb(&self, aabb: &Aabb<f32>) -> bool {
        let closest = aabb.closest_point(self.center);
        let d = closest - self.center;
        d.length_squared() <= self.radius * self.radius
    }

    /// Quantizes to fixed point, rounding the radius *up* so the quantized
    /// sphere contains the exact one (conservative when used as a bounding
    /// volume).
    pub fn quantize_outer(&self) -> Sphere<Fx> {
        let q = Fx::from_f32(self.radius);
        let radius = if q.to_f32() < self.radius {
            q + Fx::EPSILON
        } else {
            q
        };
        Sphere::new(self.center.quantize(), radius)
    }
}

impl Sphere<Fx> {
    /// Fixed-point sphere–AABB overlap test as computed by the Intersection
    /// Unit: per-axis clamped distance, three squares accumulated at full
    /// Q6.24 width ([`Acc`]), one wide comparison against the pre-squared
    /// radius.
    pub fn overlaps_aabb(&self, aabb: &Aabb<Fx>) -> bool {
        let closest = aabb.closest_point(self.center);
        let d = closest - self.center;
        let mut dist2 = Acc::ZERO;
        dist2 += d.x.wide_mul(d.x);
        dist2 += d.y.wide_mul(d.y);
        dist2 += d.z.wide_mul(d.z);
        let r2 = Acc::from_product(self.radius.wide_mul(self.radius));
        dist2 <= r2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AabbF, Vec3};

    #[test]
    fn radius_normalized_nonnegative() {
        let s = Sphere::new(Vec3::zero(), -2.0);
        assert_eq!(s.radius, 2.0);
    }

    #[test]
    fn overlap_center_inside() {
        let s = Sphere::new(Vec3::new(0.1, 0.1, 0.1), 0.01);
        let b = AabbF::new(Vec3::zero(), Vec3::splat(1.0));
        assert!(s.overlaps_aabb(&b));
    }

    #[test]
    fn overlap_face_touch() {
        let s = Sphere::new(Vec3::new(2.0, 0.0, 0.0), 1.0);
        let b = AabbF::new(Vec3::zero(), Vec3::splat(1.0));
        assert!(s.overlaps_aabb(&b)); // exactly touching
        let s_far = Sphere::new(Vec3::new(2.01, 0.0, 0.0), 1.0);
        assert!(!s_far.overlaps_aabb(&b));
    }

    #[test]
    fn overlap_corner_distance_matters() {
        let b = AabbF::new(Vec3::zero(), Vec3::splat(1.0));
        // Corner at (1,1,1); a sphere at (2,2,2) needs radius >= sqrt(3).
        let just_short = Sphere::new(Vec3::splat(2.0), 1.73);
        let enough = Sphere::new(Vec3::splat(2.0), 1.7321);
        assert!(!just_short.overlaps_aabb(&b));
        assert!(enough.overlaps_aabb(&b));
    }

    #[test]
    fn fixed_point_agrees_with_f32_away_from_boundary() {
        let b = AabbF::new(Vec3::new(0.25, 0.0, -0.25), Vec3::splat(0.25));
        let cases = [
            (Vec3::new(0.8, 0.0, 0.0), 0.1, false),
            (Vec3::new(0.6, 0.0, -0.2), 0.2, true),
            (Vec3::new(-0.5, 0.5, 0.5), 0.25, false),
            (Vec3::new(0.25, 0.1, -0.25), 0.05, true),
        ];
        for (c, r, expect) in cases {
            let s = Sphere::new(c, r);
            assert_eq!(s.overlaps_aabb(&b), expect, "f32 {c:?} r={r}");
            let sq = s.quantize_outer();
            assert_eq!(sq.overlaps_aabb(&b.quantize()), expect, "fx {c:?} r={r}");
        }
    }

    #[test]
    fn quantize_outer_contains_radius() {
        let s = Sphere::new(Vec3::zero(), 0.1234567);
        assert!(s.quantize_outer().radius.to_f32() >= s.radius);
    }
}
