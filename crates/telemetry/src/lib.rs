//! Deterministic structured tracing and metrics for the MPAccel stack.
//!
//! The paper's evaluation (§7) is all per-stage visibility — cascade exit
//! rates, CDU occupancy, SAS scheduling, service latency tails — and
//! before this crate that visibility was scattered across three ad-hoc
//! metric structs with no way to follow one request through
//! plan → CD query → octree traversal → cascade stage. `mp-telemetry`
//! provides the common substrate:
//!
//! * **Spans and events** ([`event`], [`sink`]): per-thread ring-buffer
//!   streams of `Copy` events stamped with a monotone virtual-time cursor.
//!   Hierarchical spans (`plan → phase → cd_query`), instants, counter
//!   tracks, and explicit-duration lane spans for parallel hardware
//!   resources. Recording is a thread-local write, no locks; when no
//!   stream is installed every call is an early-out `Option` check.
//!   A sink's sizes are constants: [`RING_CAPACITY`] events per stream,
//!   [`FLIGHT_CAPACITY`] events per flight snapshot and
//!   [`MAX_INCIDENTS_PER_KIND`] snapshots kept per incident kind.
//! * **Metrics** ([`metrics`]): the atomic [`Counter`] behind the
//!   collision counters, and a name-ordered [`Registry`] of counters,
//!   gauges and [`HistSnapshot`]s. Histograms keep raw samples for
//!   *exact* nearest-rank percentiles (the `ServiceSummary` contract)
//!   alongside log2 buckets for shape sketches.
//! * **Exporters** ([`chrome`], [`flight`]): Chrome trace-event JSON
//!   loadable in Perfetto / `chrome://tracing`, a plain-text/CSV metrics
//!   dump, and a flight-recorder post-mortem report. Incidents are filed
//!   with [`incident_kind`].
//!
//! Determinism contract: all recorded quantities derive from virtual time
//! and seeded state; streams are labelled and export sorts by label, so
//! the trace bytes are identical for any worker-thread count. The bench
//! suite pins this with a 1-vs-8-thread byte-identity test.
//!
//! # Examples
//!
//! ```
//! use mp_telemetry::{self as telemetry, ArgValue, Lane, TelemetrySession};
//!
//! let session = TelemetrySession::new();
//! {
//!     let _stream = session.install("demo", 0);
//!     telemetry::set_time(1_000); // virtual ns
//!     let span = telemetry::span("planner", "plan");
//!     telemetry::counter_on(Lane::MAIN, "queue_depth", 2.0);
//!     span.end_args(mp_telemetry::arg1("solved", ArgValue::Str("yes")));
//! }
//! let json = mp_telemetry::chrome_trace_json(&session.streams());
//! assert!(json.contains("\"name\":\"plan\""));
//! mp_telemetry::validate_json(&json).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod flight;
pub mod metrics;
pub mod sink;

pub use chrome::{chrome_trace_json, validate_json};
pub use event::{arg1, arg2, Arg, ArgValue, Args, Event, EventKind, Lane, TimeNs, NO_ARGS};
pub use flight::{flight_report, incident_kind, Incident, IncidentKind};
pub use metrics::{bucket_index, bucket_range, Counter, HistSnapshot, Metric, Registry};
pub use sink::{
    active, complete_at, counter_on, instant_args, set_time, span, span_args, SinkGuard, SpanGuard,
    Stream, TelemetrySession, FLIGHT_CAPACITY, MAX_INCIDENTS_PER_KIND, RING_CAPACITY,
};
