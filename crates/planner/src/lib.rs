//! Sampling-based motion planners for the MPAccel reproduction.
//!
//! The paper evaluates MPAccel by executing MPNet \[43\], a state-of-the-art
//! learning-based planner, on the accelerator. This crate provides:
//!
//! * [`nn`] — a from-scratch MLP (forward inference and MAC count)
//!   substituting for the PyTorch networks of the original artifact,
//! * [`sampler`] — the sampler interface proposing intermediate poses and
//!   its goal-directed stochastic *oracle* implementation,
//! * [`mpnet`] — the MPNet-style planner (neural planning → feasibility
//!   checking → replanning → greedy shortcutting) that records a
//!   [`mpaccel_core::trace::PlannerTrace`] replayable on the hardware
//!   models,
//! * [`rrt`](mod@rrt) — classical RRT / RRT-Connect baselines,
//! * [`queries`] — benchmark query generation (§6: 100 start/goal pairs
//!   per scene),
//! * [`tiers`] — the graceful-degradation ladder (full MPNet → reduced
//!   MPNet → budgeted RRT-Connect → coarse-octree RRT) the planning
//!   service steps overloaded requests down,
//! * [`certify`] — the independent plan certifier that re-checks a
//!   returned path through its own software checker.
//!
//! Every planner takes `&mut impl CollisionChecker` and counts its work
//! as the checker's counter delta, so a caller planning many queries on
//! one scene builds one checker and reuses it query after query; wrapping
//! each call in [`mp_collision::attributed`] yields that query's
//! [`mp_collision::CdStats`], identical to what a fresh checker would
//! have accumulated (`tests/shared_checker.rs` in the facade crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod mpnet;
pub mod nn;
pub mod queries;
pub mod rrt;
pub mod sampler;
pub mod tiers;

pub use certify::{CertifyOutcome, PlanCertifier, CERTIFY_QUERY_MODELED_US};
pub use mpnet::{
    plan, BudgetResource, MpnetConfig, PlanBudget, PlanFailure, PlanOutcome, PlanStats,
};
pub use rrt::{rrt, rrt_connect, RrtConfig, RrtOutcome};
pub use sampler::{NeuralSampler, OracleSampler};
pub use tiers::{plan_at_tier, plan_at_tier_with_path, QualityTier, TierOutcome};
