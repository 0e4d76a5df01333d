//! MPAccel reproduction facade crate.
//!
//! Re-exports the full stack of the reproduction of *Energy-Efficient
//! Realtime Motion Planning* (ISCA '23) so downstream users (and the
//! examples in `examples/`) can depend on a single crate:
//!
//! * [`fixed`] — 16-bit fixed-point arithmetic,
//! * [`geometry`] — OBB/AABB/sphere primitives and intersection kernels,
//! * [`octree`] — environment octrees and scene generation,
//! * [`robot`] — kinematics and robot models (Jaco2, Baxter),
//! * [`collision`] — software reference collision detection,
//! * [`sim`] — cycle/energy/area modelling,
//! * [`accel`] — the MPAccel accelerator (SAS + CECDUs),
//! * [`planner`] — MPNet-style neural planner and RRT baselines,
//! * [`service`] — deterministic multi-tenant planning service (admission
//!   control, EDF scheduling, degradation ladder) over a pool of
//!   simulated accelerators,
//! * [`baselines`] — CPU/GPU comparison models,
//! * [`telemetry`] — deterministic spans/counters/histograms, the flight
//!   recorder, and the Chrome/Perfetto trace exporter (the hot-kernel
//!   spans are always compiled in, and record nothing unless a session
//!   is installed).

#![forbid(unsafe_code)]

pub use mp_baselines as baselines;
pub use mp_collision as collision;
pub use mp_fixed as fixed;
pub use mp_geometry as geometry;
pub use mp_octree as octree;
pub use mp_planner as planner;
pub use mp_robot as robot;
pub use mp_service as service;
pub use mp_sim as sim;
pub use mp_telemetry as telemetry;
pub use mpaccel_core as accel;
