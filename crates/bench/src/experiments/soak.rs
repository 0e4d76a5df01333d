//! Chaos/soak campaign for the planning service (robustness study; not a
//! paper figure). Sweeps offered load × fault rate × serving policy over
//! the deterministic simulated-time service of `mp-service`, reporting
//! goodput, deadline-miss rate, modeled latency percentiles, shed/retry/
//! quarantine counts, and the quality-tier mix.
//!
//! The campaign is the overload argument of the PR in one table: at twice
//! the saturating load, a policy with admission control, EDF scheduling,
//! and graceful degradation must beat the naive unbounded-FIFO baseline on
//! *both* goodput and miss rate (the in-module test enforces this, and the
//! committed `results/` artifacts demonstrate it).
//!
//! Determinism: the plan catalog build fans out over a thread pool but is
//! collected in scene order, and each service run is a single-threaded
//! discrete-event simulation, so the rendered report is byte-identical at
//! any thread count (see `tests/determinism.rs`).

use std::sync::Arc;

use mp_octree::{benchmark_scenes, Scene};
use mp_planner::QualityTier;
use mp_robot::RobotModel;
use mp_service::{
    run_service, FaultProfile, PlanCatalog, QueuePolicy, ServiceConfig, ServiceSummary, TenantSpec,
};
use mp_sim::arrival::{ArrivalKind, ArrivalProcess};
use mp_sim::vtime::VirtualNs;
use mp_telemetry::TelemetrySession;
use mpaccel_core::mpaccel::{MpAccelSystem, SystemConfig};
use threadpool::ThreadPool;

use crate::report::{f3, Report};
use crate::workloads::{BenchWorkload, Scale};

/// Offered-load multipliers, relative to the pool's full-quality
/// saturating rate.
pub const LOADS: [f64; 3] = [0.5, 1.0, 2.0];

/// Per-kind fault rates swept (0 is the fault-free baseline; the nonzero
/// rate includes a 10× "lemon" instance to exercise the circuit breaker).
pub const FAULT_RATES: [f64; 2] = [0.0, 0.01];

/// Simulated MPAccel instances in the pool.
pub const INSTANCES: usize = 4;

/// The serving-policy presets compared at every sweep point, from the
/// naive baseline to the fully defended configuration.
pub fn policies() -> [(&'static str, ServiceConfig); 4] {
    let base = ServiceConfig::default();
    [
        (
            "naive-fifo",
            ServiceConfig {
                policy: QueuePolicy::Fifo,
                admission: false,
                degrade: false,
                ..base
            },
        ),
        (
            "fifo-shed",
            ServiceConfig {
                policy: QueuePolicy::Fifo,
                degrade: false,
                ..base
            },
        ),
        (
            "edf-shed",
            ServiceConfig {
                degrade: false,
                ..base
            },
        ),
        ("edf-degrade", base),
    ]
}

fn catalog_shape(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Quick => (2, 2),
        Scale::Full => (4, 3),
    }
}

fn duration_ns(scale: Scale) -> VirtualNs {
    match scale {
        Scale::Quick => 50_000_000, // 50 ms simulated
        Scale::Full => 200_000_000, // 200 ms simulated
    }
}

/// Builds the soak plan catalog for a scale on the given pool (uncached;
/// identical for any pool width — scenes are collected in order).
///
/// # Panics
///
/// Panics if the benchmark scenes cannot yield valid queries.
pub fn build_catalog(scale: Scale, pool: &ThreadPool) -> PlanCatalog {
    let (scenes, queries) = catalog_shape(scale);
    let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(scenes).collect();
    PlanCatalog::build(&RobotModel::jaco2(), &scenes, queries, 11, pool)
        .expect("benchmark scenes yield valid soak catalogs")
}

/// The cached per-scale soak catalog (built at most once per process on a
/// `MPACCEL_THREADS`-sized pool).
pub fn catalog(scale: Scale) -> Arc<PlanCatalog> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type Slot = Arc<OnceLock<Arc<PlanCatalog>>>;
    static CACHE: OnceLock<Mutex<HashMap<Scale, Slot>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let slot = Arc::clone(
        cache
            .lock()
            .expect("soak catalog cache poisoned")
            .entry(scale)
            .or_default(),
    );
    Arc::clone(slot.get_or_init(|| Arc::new(build_catalog(scale, &ThreadPool::from_env()))))
}

/// The soak tenant mix: 70% interactive Poisson traffic with a tight
/// deadline, 30% bursty traffic with a looser one.
pub fn tenants(catalog: &PlanCatalog, rate_per_s: f64) -> Vec<TenantSpec> {
    let deadline_us = (4.0 * catalog.mean_service_us(QualityTier::Full)) as u64;
    vec![
        TenantSpec {
            label: "interactive",
            process: ArrivalProcess {
                kind: ArrivalKind::Poisson,
                rate_per_s: rate_per_s * 0.7,
                seed: 101,
            },
            deadline_us,
        },
        TenantSpec {
            label: "bursty",
            process: ArrivalProcess {
                kind: ArrivalKind::Bursty {
                    burst_factor: 5.0,
                    period_us: 5_000,
                    duty: 0.2,
                },
                rate_per_s: rate_per_s * 0.3,
                seed: 202,
            },
            deadline_us: deadline_us * 2,
        },
    ]
}

/// One sweep point of the campaign.
#[derive(Clone, Debug)]
pub struct SoakPoint {
    /// Offered load as a multiple of the saturating rate.
    pub load: f64,
    /// Per-kind fault rate in force.
    pub fault_rate: f64,
    /// Serving-policy label.
    pub policy: &'static str,
    /// The run's aggregate outcome.
    pub summary: ServiceSummary,
}

fn sweep(catalog: &PlanCatalog, scale: Scale) -> Vec<SoakPoint> {
    let sat = catalog.saturating_rate_per_s(INSTANCES);
    let mut points = Vec::new();
    for (li, &load) in LOADS.iter().enumerate() {
        for (fi, &fault_rate) in FAULT_RATES.iter().enumerate() {
            for (pi, (policy, cfg)) in policies().into_iter().enumerate() {
                let cfg = ServiceConfig {
                    instances: INSTANCES,
                    faults: if fault_rate > 0.0 {
                        FaultProfile::with_lemon(fault_rate, 0, 10.0)
                    } else {
                        FaultProfile::none()
                    },
                    seed: ((li as u64) << 16) ^ ((fi as u64) << 8) ^ pi as u64,
                    ..cfg
                };
                let summary = run_service(
                    catalog,
                    &tenants(catalog, load * sat),
                    duration_ns(scale),
                    &cfg,
                );
                points.push(SoakPoint {
                    load,
                    fault_rate,
                    policy,
                    summary,
                });
            }
        }
    }
    points
}

/// Runs the campaign against the cached per-scale catalog.
pub fn data(scale: Scale) -> Vec<SoakPoint> {
    sweep(&catalog(scale), scale)
}

fn render(points: &[SoakPoint], catalog: &PlanCatalog) -> Report {
    let mut r = Report::new("Soak campaign: load x fault-rate x policy sweep");
    r.note(format!(
        "pool of {} instances; saturating rate {:.0} req/s at full quality",
        INSTANCES,
        catalog.saturating_rate_per_s(INSTANCES)
    ));
    r.note("goodput = on-time completions per second; miss = 1 - on_time/offered");
    r.note("tiers = completions at full/reduced/fallback-rrt/coarse-rrt quality");
    r.columns(&[
        "load", "faults", "policy", "offered", "goodput", "miss", "p50us", "p99us", "p999us",
        "shed", "retries", "quar", "tiers",
    ]);
    for p in points {
        let s = &p.summary;
        r.row(&[
            format!("{:.1}x", p.load),
            format!("{:.0e}", p.fault_rate),
            p.policy.to_string(),
            s.offered.to_string(),
            format!("{:.0}", s.goodput_rps()),
            f3(s.miss_rate()),
            format!("{:.1}", s.p50_us()),
            format!("{:.1}", s.p99_us()),
            format!("{:.1}", s.p999_us()),
            s.shed().to_string(),
            s.retries.to_string(),
            s.quarantines.to_string(),
            s.tier_mix(),
        ]);
    }
    r
}

/// Runs the campaign and renders the report (cached catalog).
pub fn run(scale: Scale) -> Report {
    let catalog = catalog(scale);
    render(&sweep(&catalog, scale), &catalog)
}

/// Like [`run`], but builds the catalog on the given pool, uncached — the
/// thread-invariance regression test compares widths 1 and 8 through this
/// entry point.
pub fn run_with_pool(scale: Scale, pool: &ThreadPool) -> Report {
    let catalog = build_catalog(scale, pool);
    render(&sweep(&catalog, scale), &catalog)
}

/// Captures one fully-instrumented soak run into a telemetry session:
///
/// 1. the catalog build (planner + collision spans, one `("catalog", i)`
///    stream per scene),
/// 2. an overloaded *and* faulted service run at 2× the saturating rate
///    under the defended policy (`("service", 0)` stream — deadline
///    misses, sheds, and quarantines all leave flight-recorder
///    incidents),
/// 3. a trace replay of two catalog workload queries through the full
///    [`MpAccelSystem`] hardware model (`("accel", i)` streams — SAS
///    batch / CDU-lane / OOCD spans).
///
/// Returns the session plus the service run's summary. The capture is
/// deterministic: streams are labelled, the service loop is
/// single-threaded, and the replay runs on the calling thread, so the
/// exported Chrome trace is byte-identical at any pool width.
pub fn capture_trace(scale: Scale, pool: &ThreadPool) -> (TelemetrySession, ServiceSummary) {
    let session = TelemetrySession::new();
    let (scenes, queries) = catalog_shape(scale);
    let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(scenes).collect();
    let robot = RobotModel::jaco2();
    let catalog = PlanCatalog::build_traced(&robot, &scenes, queries, 11, pool, &session)
        .expect("benchmark scenes yield valid soak catalogs");

    let sat = catalog.saturating_rate_per_s(INSTANCES);
    let cfg = ServiceConfig {
        instances: INSTANCES,
        faults: FaultProfile::with_lemon(FAULT_RATES[1], 0, 10.0),
        seed: 7,
        ..ServiceConfig::default()
    };
    let summary = {
        let _stream = session.install("service", 0);
        run_service(
            &catalog,
            &tenants(&catalog, 2.0 * sat),
            duration_ns(scale),
            &cfg,
        )
    };

    let w = BenchWorkload::cached(robot.clone(), scale);
    for (i, (si, trace)) in w.traces.iter().take(2).enumerate() {
        let _stream = session.install("accel", i as u32);
        let sys = MpAccelSystem::new(robot.clone(), w.octree(*si), SystemConfig::paper_default());
        std::hint::black_box(sys.run_trace(trace));
    }
    (session, summary)
}

/// Builds the unified metrics registry for a captured run: the service
/// summary (counters, gauges, exact-percentile latency histogram) plus
/// the process-wide collision counters.
pub fn metrics_registry(summary: &ServiceSummary) -> mp_telemetry::Registry {
    let reg = mp_telemetry::Registry::new();
    summary.export_into("service", &reg);
    mp_collision::metrics::export_into(&reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point<'a>(d: &'a [SoakPoint], load: f64, rate: f64, policy: &str) -> &'a SoakPoint {
        d.iter()
            .find(|p| p.load == load && p.fault_rate == rate && p.policy == policy)
            .expect("sweep point exists")
    }

    #[test]
    fn degradation_beats_naive_at_double_load_with_faults() {
        let d = data(Scale::Quick);
        for &rate in &FAULT_RATES {
            let naive = point(&d, 2.0, rate, "naive-fifo");
            let defended = point(&d, 2.0, rate, "edf-degrade");
            assert!(
                defended.summary.goodput_rps() > naive.summary.goodput_rps(),
                "at rate {rate}: defended goodput {:.0} <= naive {:.0}",
                defended.summary.goodput_rps(),
                naive.summary.goodput_rps()
            );
            assert!(
                defended.summary.miss_rate() < naive.summary.miss_rate(),
                "at rate {rate}: defended miss {:.3} >= naive {:.3}",
                defended.summary.miss_rate(),
                naive.summary.miss_rate()
            );
        }
    }

    #[test]
    fn faults_exercise_retries_and_the_breaker() {
        let d = data(Scale::Quick);
        let p = point(&d, 1.0, FAULT_RATES[1], "edf-degrade");
        assert!(p.summary.retries > 0, "faults must trigger retries");
        assert!(p.summary.quarantines > 0, "the lemon must trip the breaker");
        let clean = point(&d, 1.0, 0.0, "edf-degrade");
        assert_eq!(clean.summary.retries, 0);
        assert_eq!(clean.summary.resilience.injected_total(), 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = format!("{:?}", data(Scale::Quick));
        let b = format!("{:?}", data(Scale::Quick));
        assert_eq!(a, b);
    }

    #[test]
    fn report_covers_the_whole_sweep() {
        let text = run(Scale::Quick).to_string();
        for (label, _) in policies() {
            assert!(text.contains(label), "missing policy {label}");
        }
        assert!(text.contains("0.5x") && text.contains("2.0x"));
        assert!(text.contains("1e-2") || text.contains("1e-02"));
    }
}
