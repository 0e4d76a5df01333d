//! Robot substrate for the MPAccel reproduction.
//!
//! Everything the accelerator needs to know about the robot:
//!
//! * [`dh`] — Denavit–Hartenberg kinematics (§5.2's transformation-matrix
//!   generator), with exact and hardware-approximate trigonometry,
//! * [`trig`] — the fifth-order trigonometric function unit model,
//! * [`model`] — robot descriptions: DH chain + joint limits + per-link
//!   collision boxes; presets for the two evaluation arms (Kinova Jaco2,
//!   6 DOF; Rethink Baxter, 7 DOF; both 7 links) and a 2-DOF planar arm,
//! * [`fk`] — forward kinematics producing the per-link OBB set (the OBB
//!   Generation Unit's output),
//! * [`cspace`] — joint configurations, C-space motions and their
//!   discretization into the pose sequences SAS schedules.
//!
//! # Examples
//!
//! ```
//! use mp_robot::{fk, RobotModel, TrigMode};
//!
//! let robot = RobotModel::baxter();
//! let obbs = fk::link_obbs(&robot, &robot.home(), TrigMode::Hardware);
//! assert_eq!(obbs.len(), 7); // one OBB per link
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cspace;
pub mod dh;
pub mod fk;
pub mod model;
pub mod trig;

pub use cspace::{JointConfig, JointLimit, Motion, MotionDescriptor};
pub use dh::{DhParam, TrigMode};
pub use model::{LinkBox, LinkGeometry, RobotModel, UNITS_PER_METER};
