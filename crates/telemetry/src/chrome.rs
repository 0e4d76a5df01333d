//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Emits the JSON-object flavor (`{"traceEvents":[...]}`): each stream
//! becomes a process (`pid`), each lane within it a thread (`tid`), with
//! `process_name`/`thread_name` metadata so the UI shows meaningful row
//! labels. Timestamps are microseconds with nanosecond precision
//! (`ts = t / 1000.0`, three decimals).
//!
//! Streams are sorted by label and lanes numbered by first appearance
//! within their stream, so the output is byte-identical regardless of
//! which threads recorded which streams — this is what the 1-vs-8-thread
//! determinism test pins down.

use crate::event::{ArgValue, Args, EventKind, Lane};
use crate::sink::Stream;

/// Renders streams as a Chrome trace-event JSON string.
pub fn chrome_trace_json(streams: &[Stream]) -> String {
    let mut ordered: Vec<&Stream> = streams.iter().collect();
    ordered.sort_by_key(|s| s.label);

    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (si, stream) in ordered.iter().enumerate() {
        let pid = si as u32 + 1;
        // Lanes in order of first appearance -> stable tids.
        let mut lanes: Vec<Lane> = Vec::new();
        for e in &stream.events {
            if !lanes.contains(&e.lane) {
                lanes.push(e.lane);
            }
        }
        emit(&mut out, &mut first, |o| {
            o.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\""
            ));
            escape_into(o, &format!("{}/{}", stream.label.name, stream.label.index));
            o.push_str("\"}}");
        });
        for (ti, lane) in lanes.iter().enumerate() {
            let tid = ti as u32 + 1;
            emit(&mut out, &mut first, |o| {
                o.push_str(&format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\""
                ));
                escape_into(o, &format!("{}/{}", lane.name, lane.index));
                o.push_str("\"}}");
            });
        }
        for e in &stream.events {
            let tid = lanes.iter().position(|l| l == &e.lane).unwrap_or(0) as u32 + 1;
            let ts = e.t as f64 / 1_000.0;
            emit(&mut out, &mut first, |o| {
                o.push_str(&format!("{{\"pid\":{pid},\"tid\":{tid},\"ts\":{ts:.3}"));
                o.push_str(",\"cat\":\"");
                escape_into(o, e.cat);
                o.push_str("\",\"name\":\"");
                escape_into(o, e.name);
                o.push('"');
                match e.kind {
                    EventKind::Begin => {
                        o.push_str(",\"ph\":\"B\"");
                        args_into(o, &e.args);
                    }
                    EventKind::End => {
                        o.push_str(",\"ph\":\"E\"");
                        args_into(o, &e.args);
                    }
                    EventKind::Instant => {
                        o.push_str(",\"ph\":\"i\",\"s\":\"t\"");
                        args_into(o, &e.args);
                    }
                    EventKind::Complete { dur } => {
                        let dur_us = dur as f64 / 1_000.0;
                        o.push_str(&format!(",\"ph\":\"X\",\"dur\":{dur_us:.3}"));
                        args_into(o, &e.args);
                    }
                    EventKind::Counter { value } => {
                        o.push_str(&format!(
                            ",\"ph\":\"C\",\"args\":{{\"value\":{}}}",
                            finite(value)
                        ));
                    }
                }
                o.push('}');
            });
        }
    }
    out.push_str("]}");
    out
}

fn emit(out: &mut String, first: &mut bool, f: impl FnOnce(&mut String)) {
    if !*first {
        out.push(',');
    }
    *first = false;
    f(out);
}

fn args_into(out: &mut String, args: &Args) {
    if args.iter().all(|a| a.is_none()) {
        return;
    }
    out.push_str(",\"args\":{");
    let mut first = true;
    for (name, value) in args.iter().flatten() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        escape_into(out, name);
        out.push_str("\":");
        match value {
            ArgValue::U64(v) => out.push_str(&v.to_string()),
            ArgValue::I64(v) => out.push_str(&v.to_string()),
            ArgValue::F64(v) => out.push_str(&finite(*v)),
            ArgValue::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// Formats an `f64` as JSON (no NaN/Inf — those become 0).
fn finite(v: f64) -> String {
    if v.is_finite() {
        // `{}` prints integers without a dot, which is still valid JSON.
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for inclusion inside JSON quotes.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Validates that `s` is a single well-formed JSON value.
///
/// The workspace has no JSON dependency, so the exporter's tests (and the
/// soak bin's self-check) use this small recursive-descent validator. It
/// checks syntax only — structure, not schema.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos:?}")),
        None => Err("unexpected end of input".to_string()),
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos:?}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // [
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + word.len() && &b[*pos..*pos + word.len()] == word {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos:?}"))
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos:?}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos:?}"));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos:?}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {pos:?}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{arg2, ArgValue, Event, Lane, NO_ARGS};
    use crate::sink::TelemetrySession;

    fn sample_streams() -> Vec<Stream> {
        let session = TelemetrySession::new();
        {
            let _g = session.install("service", 0);
            crate::set_time(1_000);
            let sp = crate::span_args(
                "service",
                "serve",
                arg2("req", ArgValue::U64(7), "tier", ArgValue::Str("full")),
            );
            crate::counter_on(Lane::MAIN, "queue_depth", 3.0);
            crate::complete_at(
                Lane::new("inst", 1),
                "service",
                "busy",
                1_000,
                2_500,
                NO_ARGS,
            );
            crate::instant_args("service", "deadline_miss", NO_ARGS);
            sp.end_args(NO_ARGS);
        }
        session.streams()
    }

    #[test]
    fn export_is_valid_json_with_expected_phases() {
        let json = chrome_trace_json(&sample_streams());
        validate_json(&json).expect("exporter must emit valid JSON");
        assert!(json.starts_with("{\"traceEvents\":["));
        for phase in [
            "\"ph\":\"M\"",
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"C\"",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
        ] {
            assert!(json.contains(phase), "missing {phase} in {json}");
        }
        assert!(json.contains("\"name\":\"service/0\""));
        assert!(json.contains("\"name\":\"inst/1\""));
        // 1000 ns -> 1.000 us
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.500"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn non_finite_floats_become_zero() {
        assert_eq!(finite(f64::NAN), "0");
        assert_eq!(finite(f64::INFINITY), "0");
        assert_eq!(finite(1.5), "1.5");
        assert_eq!(finite(2.0), "2");
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e2,\"x\",true,null]}").unwrap();
        validate_json("  [ ]  ").unwrap();
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01abc").is_err());
        assert!(validate_json("{\"a\":1} extra").is_err());
    }

    #[test]
    fn empty_streams_export_cleanly() {
        let json = chrome_trace_json(&[]);
        assert_eq!(json, "{\"traceEvents\":[]}");
        validate_json(&json).unwrap();
        let empty = Stream {
            label: Lane::new("empty", 0),
            events: Vec::<Event>::new(),
            dropped: 0,
            incidents: Vec::new(),
            incidents_seen: 0,
        };
        validate_json(&chrome_trace_json(&[empty])).unwrap();
    }
}
