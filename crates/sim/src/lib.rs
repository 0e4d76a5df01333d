//! Cycle/energy/area simulation framework for the MPAccel reproduction.
//!
//! The paper's evaluation is built on three kinds of cost accounting:
//!
//! 1. **Cycles** — the microarchitectural simulator's timing model, with
//!    clock periods taken from the synthesized critical paths (§7.3:
//!    1.48 ns pipelined / 2.24 ns multi-cycle OOCD). See [`time`].
//! 2. **Work counts** — "we use the number of multiplications as an
//!    estimate of computation" (§4) and "the number of collision detection
//!    tests is used as a measure of energy" (§7.1). See [`counters`].
//! 3. **Area/power** — per-block 45 nm synthesis results (Table 2),
//!    composed structurally into unit and system totals. See [`power`].
//!
//! The resilience study adds a fourth ingredient: seeded [`fault`] plans
//! (per-dispatch fault rolls, shard failures, silent data corruption) with
//! the counters the planning service keeps.
//!
//! The service study (overload robustness) adds simulated-time machinery:
//! a deterministic discrete-event queue over integer-nanosecond [`vtime`]
//! and seeded open-loop [`arrival`] processes (Poisson, bursty,
//! adversarial) driving the multi-tenant planning service in `mp-service`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod counters;
pub mod energy;
pub mod fault;
pub mod ledger;
pub mod power;
mod rng;
pub mod time;
pub mod vtime;

pub use arrival::{ArrivalKind, ArrivalProcess};
pub use counters::OpCounter;
pub use fault::{FaultInjector, FaultKind, FaultPlan, ResilienceCounters, SdcInjector, SdcPlan};
pub use ledger::EnergyLedger;
pub use power::{AreaPower, CecduConfig, IuKind, MpaccelConfig};
pub use rng::mix;
pub use time::ClockDomain;
pub use vtime::{EventQueue, VirtualNs};
