//! The MPAccel accelerator — the primary contribution of *Energy-Efficient
//! Realtime Motion Planning* (ISCA '23), as cycle-level simulation models.
//!
//! MPAccel improves the *work efficiency* (and therefore energy) of
//! parallel collision detection in sampling-based motion planning:
//!
//! * [`sas`] — the **Spatially Aware Scheduler** exploits coarse-grained
//!   (inter-query) parallelism by batching spatially distant poses (§3), in
//!   three function modes (§5.1);
//! * [`cecdu`] — the **Cascaded Early-exit Collision Detection Unit**
//!   exploits fine-grained (intra-query) parallelism while filtering easy
//!   far-apart/deep-overlap cases with sphere tests (§4);
//! * [`oocd`] — the OBB–octree Collision Detector each CECDU instantiates
//!   1 or 4 of (Fig 14b);
//! * [`intersection_unit`] — the staged separating-axis datapath (Fig 10),
//!   in multi-cycle and pipelined variants;
//! * [`mpaccel`] — the full system of Fig 11 (controller, DNN accelerator,
//!   bus, SAS, CECDU array) replaying planner [`trace`]s;
//! * [`fault`] — fault injection across the stack (SRAM upsets, stuck/slow
//!   units, dropped/corrupted results, saturation) with detection,
//!   bounded re-dispatch, quarantine, and a conservative oracle voter;
//! * [`pool`] — per-instance busy/quarantine bookkeeping for a *pool* of
//!   MPAccel instances serving a multi-tenant planning service
//!   (`mp-service`).
//!
//! All models are validated against the software oracle in `mp-collision`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cecdu;
pub mod fault;
pub mod intersection_unit;
pub mod mpaccel;
pub mod oocd;
pub mod pool;
pub mod sas;
pub mod sram;
pub mod trace;

pub use cecdu::{CecduChecker, CecduResult, CecduSim};
pub use fault::{FaultTolerantCduArray, RecoveryMode};
pub use mpaccel::{MpAccelSystem, RunReport, SystemConfig};
pub use oocd::{run_oocd, OocdResult};
pub use pool::{AcceleratorPool, InstanceStats};
pub use sas::{run_sas, FunctionMode, IntraPolicy, SasConfig, SasRunResult};
pub use sram::{sram_budget, SramBudget};
pub use trace::{PlannerTrace, TraceEvent};
