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
//! `Option` check and an immediate return, so always-compiled call sites
//! (planner, service) cost ~nothing in untraced runs. Hot kernels
//! (per-pose collision, SAS dispatch) additionally hide their call sites
//! behind the downstream crates' `telemetry` cargo feature, so the
//! allocation-free paths carry zero extra instructions by default.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Mutex;

use crate::event::{Arg, Args, Event, EventKind, Lane, TimeNs, NO_ARGS};
use crate::flight::Incident;

/// Sizing and sampling knobs for a session's sinks.
#[derive(Clone, Debug)]
pub struct SinkConfig {
    /// Events retained per stream; the oldest are dropped (and counted)
    /// beyond this.
    pub ring_capacity: usize,
    /// Events snapshotted from the tail of the ring into each
    /// flight-recorder incident.
    pub flight_capacity: usize,
    /// Incident snapshots retained per stream *per incident kind* (the
    /// first whitespace-delimited token of the reason); later incidents
    /// of a kind are only counted. The per-kind cap keeps rare severe
    /// incidents (a deadline miss) from being crowded out by floods of
    /// common ones (queue-full sheds under sustained overload).
    pub max_incidents: usize,
    /// Record every Nth [`sampled_span`]; `0` disables sampled spans
    /// entirely (the "on but unsampled" overhead-guard configuration).
    pub sample_every: u32,
}

impl Default for SinkConfig {
    fn default() -> SinkConfig {
        SinkConfig {
            ring_capacity: 65_536,
            flight_capacity: 64,
            max_incidents: 8,
            sample_every: 1,
        }
    }
}

/// The per-thread recording state for one installed stream.
#[derive(Debug)]
struct LocalSink {
    label: Lane,
    cfg: SinkConfig,
    cursor: TimeNs,
    ring: VecDeque<Event>,
    dropped: u64,
    sample_countdown: u32,
    incidents: Vec<Incident>,
    incidents_seen: u64,
}

impl LocalSink {
    fn new(label: Lane, cfg: SinkConfig) -> LocalSink {
        let sample_countdown = cfg.sample_every.saturating_sub(1);
        LocalSink {
            label,
            cfg,
            cursor: 0,
            ring: VecDeque::new(),
            dropped: 0,
            sample_countdown,
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
        if self.ring.len() == self.cfg.ring_capacity {
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
    /// Flight-recorder snapshots (first `max_incidents` only).
    pub incidents: Vec<Incident>,
    /// Total incidents observed, including ones past `max_incidents`.
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
    cfg: SinkConfig,
    collected: Mutex<Vec<Stream>>,
}

impl TelemetrySession {
    /// A session with default sizing.
    pub fn new() -> TelemetrySession {
        TelemetrySession::default()
    }

    /// A session with explicit sizing/sampling knobs.
    pub fn with_config(cfg: SinkConfig) -> TelemetrySession {
        TelemetrySession {
            cfg,
            collected: Mutex::new(Vec::new()),
        }
    }

    /// The session's sink configuration.
    pub fn config(&self) -> &SinkConfig {
        &self.cfg
    }

    /// Installs a stream labelled `(name, index)` on the current thread.
    ///
    /// Recording free functions ([`span`], [`instant`], …) write into it
    /// until the returned guard drops, at which point the stream moves
    /// into the session and any previously installed stream is restored
    /// (installs nest).
    pub fn install(&self, name: &'static str, index: u32) -> SinkGuard<'_> {
        let prev = ACTIVE.with(|a| {
            a.borrow_mut()
                .replace(LocalSink::new(Lane::new(name, index), self.cfg.clone()))
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
/// `if mp_telemetry::active() { telemetry::incident(&format!(...)) }`.
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

/// Records a point event.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    instant_args(cat, name, NO_ARGS);
}

/// Records a point event with arguments.
#[inline]
pub fn instant_args(cat: &'static str, name: &'static str, args: Args) {
    with_sink(|s| s.record(Lane::MAIN, cat, name, EventKind::Instant, args));
}

/// Samples a counter track (queue depth, occupancy, …).
#[inline]
pub fn counter(name: &'static str, value: f64) {
    counter_on(Lane::MAIN, name, value);
}

/// Samples a counter track on an explicit lane.
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

/// Opens a span subject to the sink's `sample_every` knob.
///
/// Intended for per-query hot paths: with `sample_every = n` only every
/// nth call records; with `0` none do (but the countdown check still
/// runs, which is what the overhead-guard bench measures).
#[inline]
pub fn sampled_span(cat: &'static str, name: &'static str) -> SpanGuard {
    let armed = with_sink(|s| {
        if s.cfg.sample_every == 0 {
            return false;
        }
        if s.sample_countdown == 0 {
            s.sample_countdown = s.cfg.sample_every - 1;
            s.record(Lane::MAIN, cat, name, EventKind::Begin, NO_ARGS);
            true
        } else {
            s.sample_countdown -= 1;
            false
        }
    })
    .unwrap_or(false);
    SpanGuard { armed, cat, name }
}

/// Snapshots the tail of the ring as a flight-recorder incident.
///
/// Call on deadline misses, quarantines, sheds — anything worth a
/// post-mortem. Allocates (it clones recent events and the reason), so
/// guard call sites with [`active`] when the reason string is formatted.
/// The first `max_incidents` snapshots of each incident *kind* (the
/// reason's first token) are kept; everything is counted.
pub fn incident(reason: &str) {
    with_sink(|s| {
        s.incidents_seen += 1;
        let kind = reason.split_whitespace().next().unwrap_or("");
        let kept_of_kind = s
            .incidents
            .iter()
            .filter(|i| i.reason.split_whitespace().next().unwrap_or("") == kind)
            .count();
        if kept_of_kind < s.cfg.max_incidents {
            let start = s.ring.len().saturating_sub(s.cfg.flight_capacity);
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
    /// Whether this guard actually opened a span (a stream was installed
    /// and, for sampled spans, the sample fired).
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Closes the span with result arguments on the end event.
    #[inline]
    pub fn end_args(mut self, args: Args) {
        if self.armed {
            self.armed = false;
            with_sink(|s| s.record(Lane::MAIN, self.cat, self.name, EventKind::End, args));
        }
    }

    /// Attaches an argument pair lazily: returns the args unchanged so
    /// call sites can build them only when armed.
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
        instant("t", "x");
        counter("depth", 1.0);
        let g = span("t", "s");
        assert!(!g.is_armed());
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
            instant("t", "a");
            instant("t", "b");
            set_time(50); // monotone: must not rewind
            instant("t", "c");
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
            instant("t", "before");
            {
                let _b = session.install("inner", 7);
                instant("t", "nested");
            }
            instant("t", "after");
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
        let session = TelemetrySession::with_config(SinkConfig {
            ring_capacity: 4,
            ..SinkConfig::default()
        });
        {
            let _g = session.install("test", 0);
            for _ in 0..10 {
                instant("t", "e");
            }
        }
        let s = &session.streams()[0];
        assert_eq!(s.events.len(), 4);
        assert_eq!(s.dropped, 6);
        assert_eq!(s.events[0].t, 6); // oldest six evicted
    }

    #[test]
    fn sampling_every_third() {
        let session = TelemetrySession::with_config(SinkConfig {
            sample_every: 3,
            ..SinkConfig::default()
        });
        {
            let _g = session.install("test", 0);
            for _ in 0..9 {
                let _s = sampled_span("t", "hot");
            }
        }
        let s = &session.streams()[0];
        // 3 sampled spans x (Begin + End).
        assert_eq!(s.events.len(), 6);
    }

    #[test]
    fn sampling_zero_disables() {
        let session = TelemetrySession::with_config(SinkConfig {
            sample_every: 0,
            ..SinkConfig::default()
        });
        {
            let _g = session.install("test", 0);
            for _ in 0..100 {
                let _s = sampled_span("t", "hot");
            }
            // Plain spans still record.
            let _s = span("t", "cold");
        }
        assert_eq!(session.streams()[0].events.len(), 2);
    }

    #[test]
    fn incident_snapshots_ring_tail() {
        let session = TelemetrySession::with_config(SinkConfig {
            flight_capacity: 2,
            max_incidents: 1,
            ..SinkConfig::default()
        });
        {
            let _g = session.install("test", 0);
            for _ in 0..5 {
                instant("t", "e");
            }
            incident("deadline miss");
            incident("deadline second-of-kind (counted, not kept)");
            // A different kind gets its own per-kind budget.
            incident("quarantine inst=3");
        }
        let s = &session.streams()[0];
        assert_eq!(s.incidents.len(), 2);
        assert_eq!(s.incidents_seen, 3);
        assert_eq!(s.incidents[0].reason, "deadline miss");
        assert_eq!(s.incidents[1].reason, "quarantine inst=3");
        assert_eq!(s.incidents[0].events.len(), 2);
        assert_eq!(s.incidents[0].events[1].t, 4);
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
            instant("t", "after");
        }
        let s = &session.streams()[0];
        assert_eq!(s.events[0].t, 500);
        assert_eq!(s.events[0].kind, EventKind::Complete { dur: 120 });
        assert_eq!(s.events[0].lane, Lane::new("inst", 2));
        assert!(s.events[1].t >= 500);
    }
}
