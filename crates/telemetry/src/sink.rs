//! Per-thread ring-buffer sinks and the session that collects them.
//!
//! The recording model is built for determinism under the workspace's
//! thread-pool parallelism:
//!
//! * Each unit of traced work installs a [`TelemetrySession`] *stream*
//!   (a `(name, index)` label) on its thread with
//!   [`TelemetrySession::install`]. Recording goes to a plain thread-local
//!   `LocalSink` — no locks, no atomics on the hot path.
//! * Timestamps come from a **monotone cursor**: [`set_time`] advances it
//!   to the caller's virtual time, and every recorded event consumes one
//!   cursor tick, so ordering within a stream is strict and total.
//! * When the guard drops, the finished stream is moved into the session.
//!   Export sorts streams by label, so the trace bytes are identical no
//!   matter which threads ran which streams in which order.
//!
//! When no stream is installed every recording call is a thread-local
//! `Option` check and an immediate return, so call sites on the hot
//! paths (per-pose collision, SAS dispatch) as well as the cold ones
//! (planner, service) cost ~nothing in untraced runs.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Mutex;

use crate::event::{Arg, Args, Event, EventKind, Lane, TimeNs, NO_ARGS};
use crate::flight::Incident;

/// Events retained per stream; the oldest are dropped (and counted)
/// beyond this.
pub const RING_CAPACITY: usize = 65_536;

/// Events snapshotted from the tail of the ring into each flight-recorder
/// incident.
pub const FLIGHT_CAPACITY: usize = 64;

/// Incident snapshots retained per stream *per incident kind* (the first
/// whitespace-delimited token of the reason); later incidents of a kind
/// are only counted. The per-kind cap keeps rare severe incidents (a
/// deadline miss) from being crowded out by floods of common ones
/// (queue-full sheds under sustained overload).
pub const MAX_INCIDENTS_PER_KIND: usize = 8;

/// The per-thread recording state for one installed stream.
#[derive(Debug)]
struct LocalSink {
    label: Lane,
    cursor: TimeNs,
    ring: VecDeque<Event>,
    dropped: u64,
    incidents: Vec<Incident>,
    incidents_seen: u64,
}

impl LocalSink {
    fn new(label: Lane) -> LocalSink {
        LocalSink {
            label,
            cursor: 0,
            ring: VecDeque::new(),
            dropped: 0,
            incidents: Vec::new(),
            incidents_seen: 0,
        }
    }

    /// Stamps and stores an event, consuming one cursor tick.
    fn record(
        &mut self,
        lane: Lane,
        cat: &'static str,
        name: &'static str,
        kind: EventKind,
        args: Args,
    ) {
        let t = self.cursor;
        self.cursor += 1;
        self.push(Event {
            t,
            lane,
            cat,
            name,
            kind,
            args,
        });
    }

    fn push(&mut self, event: Event) {
        if self.ring.len() == RING_CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    fn into_stream(self) -> Stream {
        Stream {
            label: self.label,
            events: self.ring.into_iter().collect(),
            dropped: self.dropped,
            incidents: self.incidents,
            incidents_seen: self.incidents_seen,
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<LocalSink>> = const { RefCell::new(None) };
}

/// One finished stream of events, ready for export.
#[derive(Clone, Debug)]
pub struct Stream {
    /// The `(name, index)` label passed to [`TelemetrySession::install`].
    pub label: Lane,
    /// Recorded events in timestamp order.
    pub events: Vec<Event>,
    /// Events evicted because the ring was full.
    pub dropped: u64,
    /// Flight-recorder snapshots (the first [`MAX_INCIDENTS_PER_KIND`] of
    /// each kind).
    pub incidents: Vec<Incident>,
    /// Total incidents observed, including ones past the per-kind cap.
    pub incidents_seen: u64,
}

/// Collects the streams of one traced run.
///
/// A session is shared by reference across worker threads; each worker
/// installs its own uniquely-labelled stream, records locklessly, and the
/// finished stream is folded in when the guard drops. Labels should be
/// unique per session — [`streams`](TelemetrySession::streams) sorts by
/// label to make export order independent of thread scheduling.
#[derive(Debug, Default)]
pub struct TelemetrySession {
    collected: Mutex<Vec<Stream>>,
}

impl TelemetrySession {
    /// An empty session.
    pub fn new() -> TelemetrySession {
        TelemetrySession::default()
    }

    /// Installs a stream labelled `(name, index)` on the current thread.
    ///
    /// Recording free functions ([`span`], [`instant_args`], …) write into it
    /// until the returned guard drops, at which point the stream moves
    /// into the session and any previously installed stream is restored
    /// (installs nest).
    pub fn install(&self, name: &'static str, index: u32) -> SinkGuard<'_> {
        let prev = ACTIVE.with(|a| {
            a.borrow_mut()
                .replace(LocalSink::new(Lane::new(name, index)))
        });
        SinkGuard {
            session: self,
            prev,
            _not_send: PhantomData,
        }
    }

    /// All collected streams, sorted by label.
    ///
    /// Streams still installed on some thread are not included; drop their
    /// guards first.
    pub fn streams(&self) -> Vec<Stream> {
        let mut v = self
            .collected
            .lock()
            .expect("telemetry session poisoned")
            .clone();
        v.sort_by_key(|s| s.label);
        v
    }

    /// Total incidents observed across all collected streams.
    pub fn incidents_seen(&self) -> u64 {
        self.collected
            .lock()
            .expect("telemetry session poisoned")
            .iter()
            .map(|s| s.incidents_seen)
            .sum()
    }

    fn adopt(&self, sink: LocalSink) {
        self.collected
            .lock()
            .expect("telemetry session poisoned")
            .push(sink.into_stream());
    }
}

/// Uninstalls the thread's stream on drop, folding it into the session.
///
/// Deliberately `!Send`: the guard must drop on the thread that installed
/// the stream.
#[must_use = "the stream records only while the guard is alive"]
#[derive(Debug)]
pub struct SinkGuard<'a> {
    session: &'a TelemetrySession,
    prev: Option<LocalSink>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SinkGuard<'_> {
    fn drop(&mut self) {
        let finished = ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let finished = slot.take();
            *slot = self.prev.take();
            finished
        });
        if let Some(sink) = finished {
            self.session.adopt(sink);
        }
    }
}

/// Whether a stream is installed on the current thread.
///
/// Use this to skip argument preparation (string formatting, counter
/// lookups) that only matters when tracing, e.g.
/// `if telemetry::active() { telemetry::incident_kind(kind, &format!(...)) }`.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Advances the stream's clock to virtual time `t` (monotone: never moves
/// backwards). No-op when no stream is installed.
#[inline]
pub fn set_time(t: TimeNs) {
    with_sink(|s| s.cursor = s.cursor.max(t));
}

#[inline]
fn with_sink<R>(f: impl FnOnce(&mut LocalSink) -> R) -> Option<R> {
    ACTIVE.with(|a| a.borrow_mut().as_mut().map(f))
}

/// Records a point event with arguments.
#[inline]
pub fn instant_args(cat: &'static str, name: &'static str, args: Args) {
    with_sink(|s| s.record(Lane::MAIN, cat, name, EventKind::Instant, args));
}

/// Samples a counter track (queue depth, occupancy, …) on a lane.
#[inline]
pub fn counter_on(lane: Lane, name: &'static str, value: f64) {
    with_sink(|s| s.record(lane, "counter", name, EventKind::Counter { value }, NO_ARGS));
}

/// Records a complete span with explicit begin time and duration on a
/// lane, without consuming cursor ticks.
///
/// This is the lane-occupancy primitive: SAS/CDU dispatch slots and
/// service instances report `(start, duration)` pairs on retire, which
/// render as parallel rows in Perfetto. The stream cursor is nudged to
/// `t0` so subsequent main-lane events stay ordered after it.
#[inline]
pub fn complete_at(
    lane: Lane,
    cat: &'static str,
    name: &'static str,
    t0: TimeNs,
    dur: TimeNs,
    args: Args,
) {
    with_sink(|s| {
        s.cursor = s.cursor.max(t0);
        s.push(Event {
            t: t0,
            lane,
            cat,
            name,
            kind: EventKind::Complete { dur },
            args,
        });
    });
}

/// Opens a span on the main lane; the returned guard closes it on drop.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    span_args(cat, name, NO_ARGS)
}

/// Opens a span with arguments on the begin event.
#[inline]
pub fn span_args(cat: &'static str, name: &'static str, args: Args) -> SpanGuard {
    let armed = with_sink(|s| s.record(Lane::MAIN, cat, name, EventKind::Begin, args)).is_some();
    SpanGuard { armed, cat, name }
}

/// Snapshots the tail of the ring as a flight-recorder incident.
///
/// [`crate::incident_kind`] files every incident through here. Allocates
/// (it clones recent events and the reason). The first
/// [`MAX_INCIDENTS_PER_KIND`] snapshots of each incident *kind* (the
/// reason's first token) are kept; everything is counted.
pub(crate) fn incident(reason: &str) {
    with_sink(|s| {
        s.incidents_seen += 1;
        let kind = reason.split_whitespace().next().unwrap_or("");
        let kept_of_kind = s
            .incidents
            .iter()
            .filter(|i| i.reason.split_whitespace().next().unwrap_or("") == kind)
            .count();
        if kept_of_kind < MAX_INCIDENTS_PER_KIND {
            let start = s.ring.len().saturating_sub(FLIGHT_CAPACITY);
            let events: Vec<Event> = s.ring.iter().skip(start).copied().collect();
            s.incidents.push(Incident {
                t: s.cursor,
                reason: reason.to_string(),
                events,
            });
        }
    });
}

/// Closes its span on drop (or explicitly, with result arguments, via
/// [`SpanGuard::end_args`]).
#[derive(Debug)]
pub struct SpanGuard {
    armed: bool,
    cat: &'static str,
    name: &'static str,
}

impl SpanGuard {
    /// Closes the span with result arguments on the end event.
    #[inline]
    pub fn end_args(mut self, args: Args) {
        if self.armed {
            self.armed = false;
            with_sink(|s| s.record(Lane::MAIN, self.cat, self.name, EventKind::End, args));
        }
    }

    /// Closes the span with the arguments `f` builds, calling `f` only
    /// when a stream is installed, so untraced call sites build nothing.
    #[inline]
    pub fn end_with(self, f: impl FnOnce() -> [Option<Arg>; 2]) {
        if self.armed {
            let args = f();
            self.end_args(args);
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            self.armed = false;
            with_sink(|s| s.record(Lane::MAIN, self.cat, self.name, EventKind::End, NO_ARGS));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{arg1, ArgValue};

    #[test]
    fn no_stream_means_no_ops() {
        assert!(!active());
        set_time(5);
        instant_args("t", "x", NO_ARGS);
        counter_on(Lane::MAIN, "depth", 1.0);
        let g = span("t", "s");
        assert!(!g.armed);
        drop(g);
        incident("nothing");
        assert!(!active());
    }

    #[test]
    fn events_get_strictly_increasing_times() {
        let session = TelemetrySession::new();
        {
            let _g = session.install("test", 0);
            set_time(100);
            instant_args("t", "a", NO_ARGS);
            instant_args("t", "b", NO_ARGS);
            set_time(50); // monotone: must not rewind
            instant_args("t", "c", NO_ARGS);
        }
        let streams = session.streams();
        assert_eq!(streams.len(), 1);
        let ts: Vec<u64> = streams[0].events.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![100, 101, 102]);
    }

    #[test]
    fn spans_nest_and_close_on_drop() {
        let session = TelemetrySession::new();
        {
            let _g = session.install("test", 0);
            let outer = span_args("t", "outer", arg1("k", ArgValue::U64(1)));
            {
                let _inner = span("t", "inner");
            }
            outer.end_args(arg1("ok", ArgValue::Str("yes")));
        }
        let s = &session.streams()[0];
        let kinds: Vec<(&str, &EventKind)> = s.events.iter().map(|e| (e.name, &e.kind)).collect();
        assert_eq!(kinds.len(), 4);
        assert_eq!(kinds[0], ("outer", &EventKind::Begin));
        assert_eq!(kinds[1], ("inner", &EventKind::Begin));
        assert_eq!(kinds[2], ("inner", &EventKind::End));
        assert_eq!(kinds[3], ("outer", &EventKind::End));
        assert_eq!(s.events[3].args, arg1("ok", ArgValue::Str("yes")));
    }

    #[test]
    fn installs_nest_and_restore() {
        let session = TelemetrySession::new();
        let outer_session = TelemetrySession::new();
        {
            let _a = outer_session.install("outer", 0);
            instant_args("t", "before", NO_ARGS);
            {
                let _b = session.install("inner", 7);
                instant_args("t", "nested", NO_ARGS);
            }
            instant_args("t", "after", NO_ARGS);
        }
        let inner = session.streams();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].label, Lane::new("inner", 7));
        assert_eq!(inner[0].events.len(), 1);
        let outer = outer_session.streams();
        assert_eq!(outer[0].events.len(), 2);
        assert_eq!(outer[0].events[1].name, "after");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let session = TelemetrySession::new();
        {
            let _g = session.install("test", 0);
            for _ in 0..RING_CAPACITY + 6 {
                instant_args("t", "e", NO_ARGS);
            }
        }
        let s = &session.streams()[0];
        assert_eq!(s.events.len(), RING_CAPACITY);
        assert_eq!(s.dropped, 6);
        assert_eq!(s.events[0].t, 6); // oldest six evicted
    }

    #[test]
    fn incident_snapshots_ring_tail() {
        let session = TelemetrySession::new();
        let recorded = FLIGHT_CAPACITY + 3;
        {
            let _g = session.install("test", 0);
            for _ in 0..recorded {
                instant_args("t", "e", NO_ARGS);
            }
            for _ in 0..MAX_INCIDENTS_PER_KIND {
                incident("deadline miss");
            }
            incident("deadline past-the-cap (counted, not kept)");
            // A different kind gets its own per-kind budget.
            incident("quarantine inst=3");
        }
        let s = &session.streams()[0];
        assert_eq!(s.incidents.len(), MAX_INCIDENTS_PER_KIND + 1);
        assert_eq!(s.incidents_seen, MAX_INCIDENTS_PER_KIND as u64 + 2);
        assert_eq!(s.incidents[0].reason, "deadline miss");
        assert_eq!(
            s.incidents[MAX_INCIDENTS_PER_KIND].reason,
            "quarantine inst=3"
        );
        let tail = &s.incidents[0].events;
        assert_eq!(tail.len(), FLIGHT_CAPACITY);
        assert_eq!(tail[0].t, 3); // the oldest three are not in the tail
        assert_eq!(tail[FLIGHT_CAPACITY - 1].t, recorded as u64 - 1);
    }

    #[test]
    fn streams_sort_by_label() {
        let session = TelemetrySession::new();
        drop(session.install("b", 0));
        drop(session.install("a", 1));
        drop(session.install("a", 0));
        let labels: Vec<Lane> = session.streams().iter().map(|s| s.label).collect();
        assert_eq!(
            labels,
            vec![Lane::new("a", 0), Lane::new("a", 1), Lane::new("b", 0)]
        );
    }

    #[test]
    fn complete_at_nudges_cursor() {
        let session = TelemetrySession::new();
        {
            let _g = session.install("test", 0);
            complete_at(Lane::new("inst", 2), "service", "serve", 500, 120, NO_ARGS);
            instant_args("t", "after", NO_ARGS);
        }
        let s = &session.streams()[0];
        assert_eq!(s.events[0].t, 500);
        assert_eq!(s.events[0].kind, EventKind::Complete { dur: 120 });
        assert_eq!(s.events[0].lane, Lane::new("inst", 2));
        assert!(s.events[1].t >= 500);
    }
}
