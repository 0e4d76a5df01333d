//! End-to-end telemetry acceptance tests over the soak capture: the
//! exported Chrome trace must be valid JSON carrying spans from every
//! instrumented layer, the flight recorder must hold at least one
//! deadline-miss incident from the overloaded run, and — the zero-cost
//! contract — recording must not perturb the simulation or the rendered
//! soak report.

use mp_bench::experiments::soak;
use mp_bench::Scale;
use threadpool::ThreadPool;

#[test]
fn capture_emits_valid_trace_spanning_the_stack_plus_flight_incidents() {
    let pool = ThreadPool::new(2);
    let (session, summary) = soak::capture_trace(Scale::Quick, &pool);
    let streams = session.streams();
    let json = mp_telemetry::chrome_trace_json(&streams);
    mp_telemetry::validate_json(&json).expect("exporter must emit valid JSON");

    // Spans from each instrumented crate, by category: the planner tiers
    // and phases, the service event loop, the catalog build fan-out, the
    // accelerator core (trace replay / SAS) and the collision hot kernel.
    for cat in ["planner", "service", "catalog", "core", "collision"] {
        assert!(
            json.contains(&format!("\"cat\":\"{cat}\"")),
            "trace is missing category `{cat}`"
        );
    }
    assert!(
        json.contains("\"name\":\"cd_query\""),
        "trace must include the per-pose collision spans"
    );

    // The accelerator replays carry the SAS batch span, the per-pose
    // CECDU spans and the per-dispatch `cdu/N` lane spans.
    let accel: Vec<_> = streams.iter().filter(|s| s.label.name == "accel").collect();
    assert!(!accel.is_empty(), "capture must record `accel/*` streams");
    for s in &accel {
        for (lane, name) in [
            ("main", "sas_batch"),
            ("main", "cecdu_pose"),
            ("cdu", "cd_query"),
        ] {
            assert!(
                s.events
                    .iter()
                    .any(|e| e.lane.name == lane && e.cat == "core" && e.name == name),
                "accel/{} lacks a `core/{name}` span on a `{lane}` lane",
                s.label.index
            );
        }
    }

    // The 2x-overloaded faulted run must strand requests past their
    // deadlines, and each miss must leave a flight-recorder snapshot.
    assert!(summary.miss_rate() > 0.0, "capture run must induce misses");
    assert!(session.incidents_seen() > 0, "incidents must be recorded");
    let flight = mp_telemetry::flight_report(&streams);
    assert!(
        flight.contains("deadline_miss"),
        "flight recorder must snapshot a deadline miss:\n{flight}"
    );

    // The metrics registry unifies the service summary and collision
    // counters with exact percentile semantics.
    let reg = soak::metrics_registry(&summary);
    assert_eq!(reg.counter_value("service.offered"), Some(summary.offered));
    assert!(reg.counter_value("collision.pose_checks_total").is_some());
    let hist = reg
        .histogram("service.latency_ns")
        .expect("latency histogram");
    assert_eq!(
        hist.percentile(0.99).map(|ns| ns as f64 / 1_000.0),
        summary.latency_percentile_us(0.99),
        "registry histogram must reproduce the summary's exact p99"
    );
    assert!(reg.render_text().contains("service.latency_ns"));
    assert!(reg
        .to_csv()
        .starts_with("name,kind,count,value,p50,p99,p999"));
}

#[test]
fn tracing_does_not_perturb_the_simulation_or_the_report() {
    // Same seeds, traced vs untraced: the service summary and the rendered
    // soak report must be byte-identical. This is the quick-scale stdout
    // identity criterion in test form.
    let pool = ThreadPool::new(2);
    let before = soak::run_with_pool(Scale::Quick, &pool).to_string();
    let (_session, _summary) = soak::capture_trace(Scale::Quick, &pool);
    let after = soak::run_with_pool(Scale::Quick, &pool).to_string();
    assert_eq!(
        before, after,
        "a trace capture must not change the soak report"
    );
}
