//! Software reference collision detection for the MPAccel reproduction.
//!
//! This crate is the *oracle*: a straightforward, exact implementation of
//! robot–environment collision detection (§2.2) that the cycle-level
//! hardware models in `mpaccel-core` are validated against.
//!
//! A collision query takes a joint configuration, computes the robot's
//! per-link OBBs by forward kinematics, and tests each OBB against the
//! environment octree using the early-exit traversal with the
//! separating-axis test at the leaves. Motions (straight C-space segments)
//! are checked by discretizing them into poses (Fig 6a).
//!
//! # Examples
//!
//! ```
//! use mp_collision::{CollisionChecker, SoftwareChecker};
//! use mp_octree::{Scene, SceneConfig};
//! use mp_robot::RobotModel;
//!
//! let scene = Scene::random(SceneConfig::paper(), 0);
//! let mut checker = SoftwareChecker::new(RobotModel::jaco2(), scene.octree());
//! let home_free = !checker.check_pose(&checker.robot().home());
//! assert!(home_free); // scenes keep a clearance around the base
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod metrics;
pub mod motion;
pub mod pose_cache;
pub mod self_collision;

pub use checker::{attributed, CdStats, CollisionChecker, SoftwareChecker};
pub use motion::{check_motion, check_path, MotionResult, CSPACE_STEP};
pub use pose_cache::{PoseCache, PoseKey};
pub use self_collision::SelfCollisionMatrix;
