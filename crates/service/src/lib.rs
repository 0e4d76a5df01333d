//! A deterministic, simulated-time, multi-tenant planning **service** over
//! a pool of simulated MPAccel instances.
//!
//! The paper's premise is *realtime* motion planning: a plan must land
//! within a hard latency envelope. One resilient query (PR 1) is not a
//! realtime system — the overload regime, where many queries contend for
//! a pool of accelerators under deadline pressure, is where realtime
//! systems actually fail. This crate models that regime end to end:
//!
//! ```text
//!  tenants ──► admission ──► bounded queue ──► dispatcher ──► pool of N
//!  (arrival     control        (FIFO/EDF)        │             instances
//!   streams)    (shed on       deadline-aware    │ per-request  │
//!               overflow)                        ▼ tier choice  ▼
//!                                        degradation ladder   faults →
//!                                        (full → reduced →    retry/backoff,
//!                                         RRT → coarse RRT)   circuit breaker
//! ```
//!
//! One shard is one blast radius, so the same loop scales out into a
//! sharded fleet. The single service is simply a one-shard fleet:
//!
//! * [`catalog`] — every (scene, query, tier) planned once, up front, so
//!   the event loop knows exact deterministic service times;
//! * [`request`] — tenants, deadlines, and per-request verdicts;
//! * [`tenant`] — bounded FIFO/EDF shard queues with deterministic
//!   tie-breaks, plus per-tenant token-bucket admission and weighted fair
//!   queueing, so one abusive tenant degrades only itself;
//! * [`degrade`] — the load-level controller choosing quality tiers;
//! * [`breaker`] — per-instance circuit breaking (strikes → quarantine);
//! * [`integrity`] — silent-corruption certification, voting, and scrub;
//! * [`ring`] — consistent-hash ring with bounded-load
//!   power-of-two-choices spill (minimal key movement on shard death);
//! * [`fleet`] — the discrete-event loop tying it all together: N shards
//!   under seeded shard-failure chaos (`mp_sim::fault::ShardFaultPlan`),
//!   crash failover with re-enqueue budgets, rejoin catch-up throttling,
//!   and deadline-aware hedged requests with first-response-wins
//!   cancellation;
//! * [`service`] — the single service's configuration and
//!   [`run_service`], which runs the fleet loop with one shard;
//! * [`metrics`] — goodput, miss rate, exact p50/p99/p999, tier mix.
//!
//! Every run is a pure function of its configuration: seeded arrival
//! streams (`mp_sim::arrival`), seeded per-instance fault injectors
//! (`mp_sim::fault`), and integer-nanosecond virtual time
//! (`mp_sim::vtime`) make campaigns byte-identical on any machine and at
//! any `MPACCEL_THREADS` setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod catalog;
pub mod degrade;
pub mod fleet;
pub mod integrity;
pub mod metrics;
pub mod request;
pub mod ring;
pub mod service;
pub mod tenant;

pub use catalog::{CatalogEntry, PlanCatalog};
pub use fleet::{run_fleet, FleetConfig};
pub use integrity::{IntegrityConfig, IntegrityState, IntegrityStats};
pub use metrics::{FleetSummary, ServiceSummary, ShardStats, TenantStats};
pub use request::{Request, ShedReason, TenantSpec, Verdict};
pub use ring::{HashRing, Slot};
pub use service::{run_service, FaultProfile, ServiceConfig};
pub use tenant::{FairQueue, QueuePolicy, TenantPolicy, TokenBucket};
