//! Property tests for span nesting: however guards are opened, dropped,
//! and interleaved with instants/counters, the recorded stream must be
//! well-nested (Begin/End balance like parentheses with matching names),
//! timestamps must be strictly increasing within a stream, and the
//! Chrome exporter must emit valid JSON for it.

use mp_telemetry::{
    chrome_trace_json, span, validate_json, Event, EventKind, Lane, SpanGuard, TelemetrySession,
    NO_ARGS,
};
use proptest::prelude::*;

const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

/// Interprets a small op program against a fresh session: 0 opens a span,
/// 1 closes the innermost open span, 2 records an instant, 3 records a
/// counter. Remaining guards drop (close) in LIFO order at scope exit.
fn record(ops: &[u8]) -> Vec<Event> {
    let session = TelemetrySession::new();
    {
        let _g = session.install("prop", 0);
        let mut open: Vec<SpanGuard> = Vec::new();
        for &op in ops {
            match op {
                0 => open.push(span("prop", NAMES[open.len() % NAMES.len()])),
                1 => {
                    open.pop();
                }
                2 => mp_telemetry::instant_args("prop", "tick", NO_ARGS),
                _ => mp_telemetry::counter_on(Lane::MAIN, "depth", open.len() as f64),
            }
        }
        // Drain LIFO so the tail is well-nested too.
        while open.pop().is_some() {}
    }
    let streams = session.streams();
    assert_eq!(streams.len(), 1);
    streams[0].events.clone()
}

proptest! {
    #[test]
    fn spans_are_well_nested_and_export_cleanly(ops in proptest::collection::vec(0u8..4, 0..200)) {
        let events = record(&ops);

        // Timestamps strictly increase: every recorded event consumes a
        // cursor tick.
        for w in events.windows(2) {
            prop_assert!(w[0].t < w[1].t, "non-monotone t: {} then {}", w[0].t, w[1].t);
        }

        // Begin/End balance with matching names, instants never nest.
        let mut stack: Vec<&'static str> = Vec::new();
        for e in &events {
            match e.kind {
                EventKind::Begin => stack.push(e.name),
                EventKind::End => {
                    let opened = stack.pop();
                    prop_assert_eq!(opened, Some(e.name), "End closes the innermost Begin");
                }
                _ => {}
            }
        }
        prop_assert!(stack.is_empty(), "unclosed spans: {:?}", stack);

        // Depth never exceeds what the op program could open, and the
        // exporter accepts the stream.
        let session = TelemetrySession::new();
        drop(session.install("prop", 0));
        let json = chrome_trace_json(&{
            let mut s = session.streams();
            s[0].events = events;
            s
        });
        prop_assert!(validate_json(&json).is_ok(), "invalid JSON: {}", json);
    }

    #[test]
    fn identical_programs_record_identical_streams(ops in proptest::collection::vec(0u8..4, 0..100)) {
        prop_assert_eq!(record(&ops), record(&ops));
    }
}
