//! Flight recorder: bounded snapshots of recent events captured at the
//! moment something went wrong, plus a plain-text post-mortem renderer.
//!
//! The service loop and accelerator models call [`incident_kind`] when a
//! deadline miss, shed, fault-retry exhaustion, or quarantine fires; the
//! sink clones the last [`FLIGHT_CAPACITY`](crate::FLIGHT_CAPACITY)
//! events of its ring into an [`Incident`]. After the run,
//! [`flight_report`] renders every captured incident as a readable
//! post-mortem: the reason line followed by the last events leading up to
//! it, newest last.

use crate::event::{ArgValue, Event, EventKind, TimeNs};
use crate::sink::Stream;

/// The well-known incident kinds the stack reports. The kind is encoded
/// as the first whitespace-delimited token of the incident reason, which
/// is also what the sink's per-kind retention cap keys on — so a flood of
/// hedges can't evict the one shard-failover snapshot, and vice versa.
///
/// Free-form reasons (any other first token) remain valid; this enum just
/// names the kinds the service, fleet, and accelerator layers emit so
/// call sites and post-mortem tooling agree on the spelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IncidentKind {
    /// A request completed after its deadline.
    DeadlineMiss,
    /// Admission control dropped a request because the bounded queue was
    /// full.
    ShedQueueFull,
    /// The dispatcher dropped a request no tier could serve in time.
    ShedHopeless,
    /// A request exhausted its fault-retry budget.
    FailedFaults,
    /// The circuit breaker quarantined an accelerator instance.
    Quarantine,
    /// A shard died and its keys/in-flight requests were re-routed (or
    /// lost, for an undefended fleet).
    ShardFailover,
    /// A hedge was duplicated to a second shard after the hedge delay.
    HedgeFired,
    /// A silently corrupted (unsafe) plan escaped past every defense in
    /// the configured policy — the event the integrity pipeline must
    /// drive to zero.
    SdcEscaped,
    /// The independent plan certifier rejected a returned plan; the
    /// request was re-planned at a degraded tier instead of shipping.
    CertifyFailed,
    /// A scrub probe sequence readmitted a quarantined instance after
    /// the required clean streak.
    ScrubReadmit,
}

impl IncidentKind {
    /// All well-known kinds, in a fixed order.
    pub const ALL: [IncidentKind; 10] = [
        IncidentKind::DeadlineMiss,
        IncidentKind::ShedQueueFull,
        IncidentKind::ShedHopeless,
        IncidentKind::FailedFaults,
        IncidentKind::Quarantine,
        IncidentKind::ShardFailover,
        IncidentKind::HedgeFired,
        IncidentKind::SdcEscaped,
        IncidentKind::CertifyFailed,
        IncidentKind::ScrubReadmit,
    ];

    /// The reason-prefix token for this kind.
    pub fn label(self) -> &'static str {
        match self {
            IncidentKind::DeadlineMiss => "deadline_miss",
            IncidentKind::ShedQueueFull => "shed_queue_full",
            IncidentKind::ShedHopeless => "shed_hopeless",
            IncidentKind::FailedFaults => "failed_faults",
            IncidentKind::Quarantine => "quarantine",
            IncidentKind::ShardFailover => "shard_failover",
            IncidentKind::HedgeFired => "hedge_fired",
            IncidentKind::SdcEscaped => "sdc_escaped",
            IncidentKind::CertifyFailed => "certify_failed",
            IncidentKind::ScrubReadmit => "scrub_readmit",
        }
    }
}

/// Records an incident of a well-known kind: the reason is
/// `"<kind label> <detail>"`, so the per-kind snapshot cap groups it with
/// its peers. Allocates; guard hot call sites with [`crate::active`].
pub fn incident_kind(kind: IncidentKind, detail: &str) {
    crate::sink::incident(&format!("{} {detail}", kind.label()));
}

/// One captured incident: the reason and the events leading up to it.
#[derive(Clone, Debug, PartialEq)]
pub struct Incident {
    /// Stream-cursor time when the incident fired.
    pub t: TimeNs,
    /// Why the snapshot was taken (e.g. `deadline_miss req=42 late_us=310`).
    pub reason: String,
    /// The last [`FLIGHT_CAPACITY`](crate::FLIGHT_CAPACITY) events before
    /// the incident.
    pub events: Vec<Event>,
}

/// Renders all incidents across streams as a plain-text report.
///
/// Streams are sorted by label (same canonical order as the trace
/// exporter), so the report is deterministic across thread counts.
pub fn flight_report(streams: &[Stream]) -> String {
    let mut ordered: Vec<&Stream> = streams.iter().collect();
    ordered.sort_by_key(|s| s.label);

    let total: u64 = ordered.iter().map(|s| s.incidents_seen).sum();
    let kept: usize = ordered.iter().map(|s| s.incidents.len()).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "flight recorder: {total} incident(s) observed, {kept} snapshot(s) kept\n"
    ));
    // Tally the kept snapshots by kind (reason's first token), sorted by
    // label for determinism, so a post-mortem leads with the shape of the
    // failure before the per-incident detail.
    let mut by_kind: Vec<(&str, usize)> = Vec::new();
    for inc in ordered.iter().flat_map(|s| s.incidents.iter()) {
        let kind = inc.reason.split_whitespace().next().unwrap_or("");
        match by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => by_kind.push((kind, 1)),
        }
    }
    by_kind.sort_unstable();
    if !by_kind.is_empty() {
        let cells: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k}={n}")).collect();
        out.push_str(&format!("kinds kept: {}\n", cells.join(" ")));
    }
    for stream in ordered {
        if stream.incidents.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "\nstream {}/{} ({} of {} incident(s) kept)\n",
            stream.label.name,
            stream.label.index,
            stream.incidents.len(),
            stream.incidents_seen,
        ));
        for (i, inc) in stream.incidents.iter().enumerate() {
            out.push_str(&format!(
                "  incident {} at t={} ns: {}\n",
                i + 1,
                inc.t,
                inc.reason
            ));
            for e in &inc.events {
                out.push_str("    ");
                render_event(&mut out, e);
                out.push('\n');
            }
        }
    }
    out
}

fn render_event(out: &mut String, e: &Event) {
    out.push_str(&format!("[{:>12}] ", e.t));
    if e.lane != crate::Lane::MAIN {
        out.push_str(&format!("{}/{} ", e.lane.name, e.lane.index));
    }
    match e.kind {
        EventKind::Begin => out.push_str(&format!("begin {}:{}", e.cat, e.name)),
        EventKind::End => out.push_str(&format!("end   {}:{}", e.cat, e.name)),
        EventKind::Instant => out.push_str(&format!("event {}:{}", e.cat, e.name)),
        EventKind::Complete { dur } => {
            out.push_str(&format!("span  {}:{} dur={}ns", e.cat, e.name, dur));
        }
        EventKind::Counter { value } => {
            out.push_str(&format!("count {}={}", e.name, value));
        }
    }
    for (name, value) in e.args.iter().flatten() {
        match value {
            ArgValue::U64(v) => out.push_str(&format!(" {name}={v}")),
            ArgValue::I64(v) => out.push_str(&format!(" {name}={v}")),
            ArgValue::F64(v) => out.push_str(&format!(" {name}={v}")),
            ArgValue::Str(s) => out.push_str(&format!(" {name}={s}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{arg1, ArgValue};
    use crate::sink::{TelemetrySession, MAX_INCIDENTS_PER_KIND};
    use crate::NO_ARGS;

    #[test]
    fn report_shows_reason_and_trailing_events() {
        let session = TelemetrySession::new();
        {
            let _g = session.install("service", 2);
            crate::set_time(10_000);
            crate::instant_args("service", "enqueue", arg1("req", ArgValue::U64(1)));
            crate::instant_args("service", "dispatch", NO_ARGS);
            crate::instant_args("service", "complete_late", NO_ARGS);
            if crate::active() {
                incident_kind(IncidentKind::DeadlineMiss, "req=1 late_us=310");
            }
        }
        let report = flight_report(&session.streams());
        assert!(report.contains("1 incident(s) observed, 1 snapshot(s) kept"));
        assert!(report.contains("stream service/2"));
        assert!(report.contains("deadline_miss req=1 late_us=310"));
        assert!(report.contains("event service:enqueue req=1"));
        assert!(report.contains("event service:complete_late"));
    }

    #[test]
    fn fleet_incident_kinds_are_capped_independently() {
        let session = TelemetrySession::new();
        let hedges = MAX_INCIDENTS_PER_KIND + 3;
        {
            let _g = session.install("fleet", 0);
            crate::set_time(5_000);
            // A flood of hedges must not evict the lone failover snapshot.
            for req in 0..hedges {
                incident_kind(IncidentKind::HedgeFired, &format!("req={req} shard=3"));
            }
            incident_kind(IncidentKind::ShardFailover, "shard=7 rerouted=12");
        }
        let streams = session.streams();
        let kept: Vec<&str> = streams[0]
            .incidents
            .iter()
            .map(|i| i.reason.as_str())
            .collect();
        let mut want: Vec<String> = (0..MAX_INCIDENTS_PER_KIND)
            .map(|req| format!("hedge_fired req={req} shard=3"))
            .collect();
        want.push("shard_failover shard=7 rerouted=12".to_string());
        assert_eq!(kept, want);
        let report = flight_report(&streams);
        assert!(report.contains(&format!(
            "{} incident(s) observed, {} snapshot(s) kept",
            hedges + 1,
            MAX_INCIDENTS_PER_KIND + 1
        )));
        assert!(report.contains(&format!(
            "kinds kept: hedge_fired={MAX_INCIDENTS_PER_KIND} shard_failover=1"
        )));
    }

    #[test]
    fn certify_flood_cannot_evict_the_lone_escape_snapshot() {
        // The integrity pipeline's worst-case telemetry shape: a high SDC
        // rate produces a *flood* of certify rejections (each one a
        // defense success) around a single escaped unsafe plan (the event
        // a post-mortem exists to explain). The per-kind cap must keep
        // the escape snapshot no matter how many rejections surround it.
        let session = TelemetrySession::new();
        let rejections = 20;
        assert!(rejections > MAX_INCIDENTS_PER_KIND);
        {
            let _g = session.install("service", 0);
            crate::set_time(8_000);
            for req in 0..rejections {
                incident_kind(
                    IncidentKind::CertifyFailed,
                    &format!("req={req} inst=1 edge=3"),
                );
            }
            incident_kind(IncidentKind::SdcEscaped, "req=99 inst=1 tier=full");
            incident_kind(IncidentKind::ScrubReadmit, "inst=1 probes=4");
        }
        let streams = session.streams();
        let kept: Vec<&str> = streams[0]
            .incidents
            .iter()
            .map(|i| i.reason.as_str())
            .collect();
        let mut want: Vec<String> = (0..MAX_INCIDENTS_PER_KIND)
            .map(|req| format!("certify_failed req={req} inst=1 edge=3"))
            .collect();
        want.push("sdc_escaped req=99 inst=1 tier=full".to_string());
        want.push("scrub_readmit inst=1 probes=4".to_string());
        assert_eq!(kept, want);
        let report = flight_report(&streams);
        assert!(report.contains(&format!(
            "{} incident(s) observed, {} snapshot(s) kept",
            rejections + 2,
            MAX_INCIDENTS_PER_KIND + 2
        )));
        assert!(report.contains(&format!(
            "kinds kept: certify_failed={MAX_INCIDENTS_PER_KIND} scrub_readmit=1 sdc_escaped=1"
        )));
    }

    #[test]
    fn kind_labels_are_the_reason_prefixes() {
        for kind in IncidentKind::ALL {
            assert!(!kind.label().contains(char::is_whitespace));
        }
        assert_eq!(IncidentKind::ShardFailover.label(), "shard_failover");
        assert_eq!(IncidentKind::HedgeFired.label(), "hedge_fired");
    }

    #[test]
    fn no_incidents_is_a_one_line_report() {
        let session = TelemetrySession::new();
        drop(session.install("quiet", 0));
        let report = flight_report(&session.streams());
        assert_eq!(
            report,
            "flight recorder: 0 incident(s) observed, 0 snapshot(s) kept\n"
        );
    }
}
