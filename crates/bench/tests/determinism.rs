//! Determinism regression test for the parallel benchmark engine: the
//! rendered reports must be byte-identical whatever the thread-pool width
//! (the engine's core contract — see `engine.rs` and `mp-bench all`).
//!
//! A representative subset keeps the test fast in debug builds while still
//! crossing every source of shared state: the workload cache (all), the
//! replay memo (fig01b, fig16), per-experiment RNG seeding (fig17,
//! planners), and the service soak campaign's catalog cache (soak).

use mp_bench::engine::{run_selected, select};
use mp_bench::experiments::{energy_observatory, fleet, integrity, soak};
use mp_bench::Scale;
use threadpool::ThreadPool;

/// Experiments covering the engine's shared-state surfaces.
const SUBSET: [&str; 5] = ["fig01b", "fig16", "fig17", "planners", "soak"];

fn rendered(threads: usize) -> Vec<(String, String)> {
    let pool = ThreadPool::new(threads);
    let list = select(&SUBSET).expect("known names");
    run_selected(&list, Scale::Quick, &pool)
        .results
        .into_iter()
        .map(|r| (r.name.to_string(), r.report.to_string()))
        .collect()
}

#[test]
fn parallel_run_matches_serial_byte_for_byte() {
    let serial = rendered(1);
    let parallel = rendered(4);
    assert_eq!(serial.len(), parallel.len());
    for ((sn, sr), (pn, pr)) in serial.iter().zip(&parallel) {
        assert_eq!(sn, pn, "result order must be canonical");
        assert_eq!(sr, pr, "report `{sn}` differs between 1 and 4 threads");
    }
}

#[test]
fn repeated_runs_are_stable() {
    // Same width twice: catches per-run global state leaking into reports
    // (e.g. the workload cache warming up differently on the second pass).
    let a = rendered(2);
    let b = rendered(2);
    assert_eq!(a, b, "reports must be stable across runs in one process");
}

#[test]
fn soak_report_is_byte_identical_at_one_and_eight_threads() {
    // The service satellite contract: same seeds and policies must yield a
    // byte-identical soak report whatever the pool width. Goes through the
    // uncached catalog path so both widths really build their own catalog.
    let one = soak::run_with_pool(Scale::Quick, &ThreadPool::new(1)).to_string();
    let eight = soak::run_with_pool(Scale::Quick, &ThreadPool::new(8)).to_string();
    assert_eq!(one, eight, "soak report differs between 1 and 8 threads");
}

#[test]
fn fleet_soak_is_byte_identical_at_one_and_eight_threads() {
    // The fleet contract: a 16-shard chaos soak — shard kills mid-run,
    // failover, hedged requests, per-tenant fair queueing — renders
    // byte-identically whatever the catalog-build pool width. The fleet
    // event loop is single-threaded vtime; only the catalog build fans
    // out, so the whole report (per-shard and per-tenant rows included)
    // must survive the width change untouched.
    let one = fleet::run_with_pool(Scale::Quick, &ThreadPool::new(1)).to_string();
    let eight = fleet::run_with_pool(Scale::Quick, &ThreadPool::new(8)).to_string();
    assert!(one.contains("chaos-defended") && one.contains("shard:15"));
    assert_eq!(one, eight, "fleet report differs between 1 and 8 threads");
}

#[test]
fn integrity_soak_is_byte_identical_at_one_and_eight_threads() {
    // The integrity contract: the SDC-rate x defense-policy sweep —
    // seeded corruption streams, certification, suspicion-scored voting,
    // scrub readmission — renders byte-identically whatever the
    // catalog-build pool width. Certification costs are measured during
    // the catalog build (which fans out), so this crosses the one shared
    // surface the new pipeline added.
    let one = integrity::run_with_pool(Scale::Quick, &ThreadPool::new(1)).to_string();
    let eight = integrity::run_with_pool(Scale::Quick, &ThreadPool::new(8)).to_string();
    assert!(one.contains("certify-vote-scrub") && one.contains("undefended"));
    assert_eq!(
        one, eight,
        "integrity report differs between 1 and 8 threads"
    );
}

#[test]
fn energy_observatory_is_byte_identical_at_one_and_eight_threads() {
    // The energy contract: pJ/CD-check, uJ/plan-by-tier, and the
    // accelerator-vs-baseline joule comparison are all integer-counter or
    // seed-derived, so the rendered table must not move with the
    // catalog-build pool width.
    let one = energy_observatory::run_with_pool(Scale::Quick, &ThreadPool::new(1)).to_string();
    let eight = energy_observatory::run_with_pool(Scale::Quick, &ThreadPool::new(8)).to_string();
    assert!(one.contains("cd-check") && one.contains("uJ/plan"));
    assert_eq!(
        one, eight,
        "energy observatory differs between 1 and 8 threads"
    );
}

#[test]
fn chrome_trace_is_byte_identical_at_one_and_eight_threads() {
    // The telemetry contract: the exported Perfetto trace itself must be
    // byte-identical whatever the catalog-build pool width. Labelled
    // streams + monotone per-stream cursors + sorted export make this
    // hold even though scene planning lands on arbitrary worker threads.
    let json = |threads| {
        let (session, _) = soak::capture_trace(Scale::Quick, &ThreadPool::new(threads));
        mp_telemetry::chrome_trace_json(&session.streams())
    };
    let one = json(1);
    let eight = json(8);
    assert!(!one.is_empty());
    // The power-rail counter tracks (pJ/us = uW per accelerator instance,
    // emitted at every completion) ride the same determinism guarantee.
    assert!(
        one.contains("power_uw"),
        "power-rail counter track missing from the trace"
    );
    assert_eq!(one, eight, "trace JSON differs between 1 and 8 threads");
}
