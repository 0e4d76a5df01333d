//! Oriented bounding boxes — the robot-side primitive.

use mp_fixed::Fx;

use crate::aabb::Aabb;
use crate::mat3::Matrix3;
use crate::scalar::Scalar;
use crate::transform::Transform;
use crate::vec3::Vector3;

/// An oriented bounding box.
///
/// Matches the hardware representation of §5.2: "Each OBB is represented by
/// 17 values (16-bit each), 3 for its center, 3 for its size, 9 for its 3×3
/// orientation, and 2 for radii of the bounding and inscribed spheres."
/// The orientation matrix's *columns* are the box's local axes in world
/// coordinates.
///
/// # Examples
///
/// ```
/// use mp_geometry::{Mat3, Obb, Vec3};
///
/// let obb = Obb::new(Vec3::zero(), Vec3::new(0.3, 0.2, 0.1), Mat3::rotation_z(0.5));
/// assert!(obb.bounding_radius > obb.inscribed_radius);
/// assert!(obb.contains_point(Vec3::zero()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Obb<S = f32> {
    /// Center in world coordinates.
    pub center: Vector3<S>,
    /// Half-extent along each *local* axis (all non-negative).
    pub half: Vector3<S>,
    /// Orientation: columns are the local axes expressed in world frame.
    pub rotation: Matrix3<S>,
    /// Radius of the bounding sphere (contains the OBB), precomputed and
    /// stored per-link in SRAM (§5.2).
    pub bounding_radius: S,
    /// Radius of the inscribed sphere (contained in the OBB).
    pub inscribed_radius: S,
}

impl Obb<f32> {
    /// Creates an OBB, computing the bounding and inscribed sphere radii.
    ///
    /// The bounding sphere reaches the corners (`|half|`); the inscribed
    /// sphere touches the nearest pair of faces (`min(half)`).
    pub fn new(center: Vector3<f32>, half: Vector3<f32>, rotation: Matrix3<f32>) -> Obb<f32> {
        let half = half.abs();
        Obb {
            center,
            half,
            rotation,
            bounding_radius: half.length(),
            inscribed_radius: half.min_element(),
        }
    }

    /// Creates an axis-aligned OBB (identity orientation).
    pub fn axis_aligned(center: Vector3<f32>, half: Vector3<f32>) -> Obb<f32> {
        Obb::new(center, half, Matrix3::identity())
    }

    /// Places a local box (centered at `local_center`, half-extents `half`)
    /// under the rigid transform `t` — how the OBB Generation Unit turns a
    /// link's precomputed box + the link transform into a world OBB.
    pub fn from_transform(
        t: &Transform,
        local_center: Vector3<f32>,
        half: Vector3<f32>,
    ) -> Obb<f32> {
        Obb::new(t.apply(local_center), half, t.rotation)
    }

    /// The 8 corners in world coordinates.
    pub fn corners(&self) -> [Vector3<f32>; 8] {
        let mut out = [Vector3::zero(); 8];
        for (i, corner) in out.iter_mut().enumerate() {
            let sx = if i & 1 == 0 { -1.0 } else { 1.0 };
            let sy = if i & 2 == 0 { -1.0 } else { 1.0 };
            let sz = if i & 4 == 0 { -1.0 } else { 1.0 };
            let local = Vector3::new(sx * self.half.x, sy * self.half.y, sz * self.half.z);
            *corner = self.center + self.rotation * local;
        }
        out
    }

    /// Whether the point lies inside or on the boundary.
    pub fn contains_point(&self, p: Vector3<f32>) -> bool {
        let local = self.rotation.transpose() * (p - self.center);
        local.x.abs() <= self.half.x + 1e-6
            && local.y.abs() <= self.half.y + 1e-6
            && local.z.abs() <= self.half.z + 1e-6
    }

    /// The smallest AABB containing this OBB.
    pub fn enclosing_aabb(&self) -> Aabb<f32> {
        // Project half extents through |R|.
        let abs_r = self.rotation.abs();
        let world_half = abs_r * self.half;
        Aabb::new(self.center, world_half)
    }

    /// Quantizes to the 17×16-bit hardware representation.
    ///
    /// Size and bounding radius round up, inscribed radius rounds down, so
    /// the quantized filters stay conservative.
    pub fn quantize(&self) -> Obb<Fx> {
        let round_up = |v: f32| {
            let q = Fx::from_f32(v);
            if q.to_f32() < v {
                q + Fx::EPSILON
            } else {
                q
            }
        };
        let round_down = |v: f32| {
            let q = Fx::from_f32(v);
            if q.to_f32() > v {
                q - Fx::EPSILON
            } else {
                q
            }
        };
        Obb {
            center: self.center.quantize(),
            half: Vector3::new(
                round_up(self.half.x),
                round_up(self.half.y),
                round_up(self.half.z),
            ),
            rotation: self.rotation.quantize(),
            // Pad the bounding radius by an LSB to absorb the center shift.
            bounding_radius: round_up(self.bounding_radius) + Fx::EPSILON,
            inscribed_radius: round_down(self.inscribed_radius).max(Fx::ZERO),
        }
    }
}

impl Obb<Fx> {
    /// Widens back to `f32` (exact; radii keep their conservative rounding).
    pub fn to_f32(&self) -> Obb<f32> {
        Obb {
            center: self.center.to_f32(),
            half: self.half.to_f32(),
            rotation: self.rotation.to_f32(),
            bounding_radius: self.bounding_radius.to_f32(),
            inscribed_radius: self.inscribed_radius.to_f32(),
        }
    }
}

impl<S: Scalar> Obb<S> {
    /// Local axis `j` (column `j` of the orientation matrix).
    ///
    /// # Panics
    ///
    /// Panics if `j > 2`.
    #[inline]
    pub fn axis(&self, j: usize) -> Vector3<S> {
        self.rotation.col(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mat3, Vec3};
    use core::f32::consts::FRAC_PI_4;

    #[test]
    fn radii_relationship() {
        let o = Obb::new(Vec3::zero(), Vec3::new(0.3, 0.4, 0.5), Mat3::identity());
        assert!((o.bounding_radius - (0.09f32 + 0.16 + 0.25).sqrt()).abs() < 1e-6);
        assert_eq!(o.inscribed_radius, 0.3);
        assert!(o.bounding_radius >= o.inscribed_radius);
    }

    #[test]
    fn axis_aligned_contains() {
        let o = Obb::axis_aligned(Vec3::new(1.0, 0.0, 0.0), Vec3::splat(0.5));
        assert!(o.contains_point(Vec3::new(1.4, 0.4, -0.4)));
        assert!(!o.contains_point(Vec3::new(1.6, 0.0, 0.0)));
    }

    #[test]
    fn rotated_containment() {
        // 45° about Z: the corner along local x reaches sqrt(2)*0.5 in world x.
        let o = Obb::new(
            Vec3::zero(),
            Vec3::new(0.5, 0.5, 0.5),
            Mat3::rotation_z(FRAC_PI_4),
        );
        assert!(o.contains_point(Vec3::new(0.7, 0.0, 0.0)));
        // An axis-aligned box of half 0.5 would NOT contain that point.
        assert!(!Obb::axis_aligned(Vec3::zero(), Vec3::splat(0.5))
            .contains_point(Vec3::new(0.7, 0.0, 0.0)));
    }

    #[test]
    fn corners_are_contained_and_extreme() {
        let o = Obb::new(
            Vec3::new(0.1, -0.2, 0.3),
            Vec3::new(0.2, 0.3, 0.1),
            Mat3::rotation_y(0.8),
        );
        for c in o.corners() {
            assert!(o.contains_point(c));
            // Corners lie exactly on the bounding sphere.
            assert!(((c - o.center).length() - o.bounding_radius).abs() < 1e-5);
        }
    }

    #[test]
    fn enclosing_aabb_contains_corners() {
        let o = Obb::new(
            Vec3::new(-0.3, 0.4, 0.0),
            Vec3::new(0.25, 0.1, 0.05),
            Mat3::rotation_x(1.0) * Mat3::rotation_z(0.3),
        );
        // Inflate by a float-rounding tolerance: corners land exactly on the
        // boundary and may overshoot by an ulp.
        let aabb = o.enclosing_aabb();
        let inflated = Aabb::new(aabb.center, aabb.half + Vec3::splat(1e-5));
        for c in o.corners() {
            assert!(inflated.contains_point(c), "corner {c:?} outside {aabb:?}");
        }
    }

    #[test]
    fn from_transform_places_box() {
        let t = Transform::new(Mat3::rotation_z(FRAC_PI_4), Vec3::new(1.0, 0.0, 0.0));
        let o = Obb::from_transform(&t, Vec3::new(0.5, 0.0, 0.0), Vec3::splat(0.1));
        // Local center (0.5,0,0) rotates 45° then translates by (1,0,0).
        let expect = Vec3::new(1.0 + 0.5 * FRAC_PI_4.cos(), 0.5 * FRAC_PI_4.sin(), 0.0);
        assert!((o.center - expect).length() < 1e-5);
    }

    #[test]
    fn quantization_conservative_radii() {
        let o = Obb::new(
            Vec3::new(0.123, -0.456, 0.789),
            Vec3::new(0.1111, 0.2222, 0.0333),
            Mat3::rotation_z(0.7),
        );
        let q = o.quantize();
        assert!(q.bounding_radius.to_f32() >= o.bounding_radius);
        assert!(q.inscribed_radius.to_f32() <= o.inscribed_radius);
        for i in 0..3 {
            assert!(q.half.to_f32()[i] >= o.half[i]);
        }
    }

    #[test]
    fn axis_accessor_returns_columns() {
        let r = Mat3::rotation_z(0.5);
        let o = Obb::new(Vec3::zero(), Vec3::splat(0.1), r);
        assert_eq!(o.axis(0), r.col(0));
        assert_eq!(o.axis(2), Vec3::basis(2));
    }
}
