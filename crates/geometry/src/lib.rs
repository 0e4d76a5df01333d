//! Geometric primitives and intersection kernels for the MPAccel reproduction.
//!
//! This crate implements the geometry layer of the paper *Energy-Efficient
//! Realtime Motion Planning* (ISCA '23):
//!
//! * [`Vector3`], [`Matrix3`] and [`Transform`] — linear algebra, generic
//!   over the scalar type so that the same kernels run in `f32` (software
//!   reference) and in the 16-bit fixed-point format the hardware uses
//!   ([`mp_fixed::Fx`]).
//! * [`Aabb`] and [`Obb`] — the two box primitives: axis-aligned boxes come
//!   from the environment octree, oriented boxes bound the robot's links
//!   (§4: "we use a set of oriented bounding boxes (OBB) to represent the
//!   robot").
//! * [`Sphere`] — bounding and inscribed spheres used by the cascaded
//!   early-exit filters (Fig 9).
//! * [`sat`] — the 15-axis separating-axis test between an OBB and an AABB
//!   (§2.2, Fig 5), with per-axis identifiers and multiplication counts that
//!   feed the energy model.
//! * [`cascade`] — the cascaded early-exit intersection test of Fig 10:
//!   bounding-sphere filter → inscribed-sphere filter → separating-axis
//!   stages of 6/5/4 axes, as the scalar reference with the §7.2.1
//!   ablation settings.
//! * [`soa`] — structure-of-arrays box lanes and [`soa::HoistedCascade`],
//!   the production kernel that runs the proposed cascade over every box
//!   an octree walk touches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aabb;
pub mod cascade;
pub mod mat3;
pub mod obb;
pub mod sat;
pub mod scalar;
pub mod soa;
pub mod sphere;
pub mod transform;
pub mod vec3;

pub use aabb::Aabb;
pub use mat3::Matrix3;
pub use obb::Obb;
pub use scalar::Scalar;
pub use sphere::Sphere;
pub use transform::Transform;
pub use vec3::Vector3;

/// 3-component `f32` vector (software reference path).
pub type Vec3 = Vector3<f32>;
/// 3-component fixed-point vector (hardware path).
pub type FxVec3 = Vector3<mp_fixed::Fx>;
/// `f32` 3×3 matrix.
pub type Mat3 = Matrix3<f32>;
/// Fixed-point 3×3 matrix.
pub type FxMat3 = Matrix3<mp_fixed::Fx>;
/// `f32` AABB.
pub type AabbF = Aabb<f32>;
/// Fixed-point AABB (what the octree hardware stores: center + size, 6×16 bits).
pub type FxAabb = Aabb<mp_fixed::Fx>;
/// `f32` OBB.
pub type ObbF = Obb<f32>;
/// Fixed-point OBB (17 × 16-bit values, §5.2).
pub type FxObb = Obb<mp_fixed::Fx>;
