//! Integrity soak: silent-data-corruption rate × defense policy at 2× the
//! saturating load (robustness study; not a paper figure).
//!
//! Sweeps the SDC verdict-flip rate {0, 1e-4, 1e-3} — with a 100× "hot
//! lane" on instance 0, modeling one marginal die — against three defense
//! policies over the deterministic simulated-time service of `mp-service`:
//!
//! * `undefended`   — corrupted plans ship as successes; the escape rate
//!   is the paper-killer this campaign measures.
//! * `certify`      — every plan re-validated by an independent software
//!   cascade before completion; failures re-plan degraded. Zero escapes,
//!   paid for in certification CPU time on every completion.
//! * `certify-vote-scrub` — certification plus suspicion-scored duplicate
//!   dispatch on suspect instances, liar benching, and background scrub
//!   probes that readmit instances after a clean streak.
//!
//! The in-module tests pin the acceptance criteria: at SDC rate 1e-3 the
//! undefended service ships a nonzero unsafe-plan escape rate, both
//! defended policies ship **zero**, the full ladder retains ≥ 90% of its
//! own no-SDC goodput, and the certification overhead is measured
//! (per-completion mean and p99 ride along in the report).
//!
//! Determinism: one service run is a single-threaded discrete-event
//! simulation and the catalog build is order-collected, so the rendered
//! report is byte-identical at any thread count (see
//! `tests/determinism.rs`).

use mp_service::{FaultProfile, IntegrityConfig, PlanCatalog, ServiceConfig, ServiceSummary};
use mp_sim::vtime::VirtualNs;
use threadpool::ThreadPool;

use crate::experiments::soak;
use crate::report::{f3, Report};
use crate::workloads::Scale;

/// Silent-corruption rates swept (probability a clean completion returns
/// a corrupted plan; 0 is the SDC-free baseline).
pub const SDC_RATES: [f64; 3] = [0.0, 1e-4, 1e-3];

/// Rate multiplier of the hot instance (instance 0): one marginal die
/// corrupting far above the fleet baseline, the realistic SDC shape.
pub const HOT_FACTOR: f64 = 100.0;

/// Offered load relative to the pool's full-quality saturating rate.
pub const LOAD: f64 = 2.0;

/// Simulated MPAccel instances in the pool.
pub const INSTANCES: usize = soak::INSTANCES;

/// The defense-policy presets compared at every SDC rate.
pub fn policies() -> [(&'static str, IntegrityConfig); 3] {
    [
        ("undefended", IntegrityConfig::off()),
        ("certify", IntegrityConfig::certify_only()),
        ("certify-vote-scrub", IntegrityConfig::full()),
    ]
}

fn duration_ns(scale: Scale) -> VirtualNs {
    match scale {
        Scale::Quick => 100_000_000, // 100 ms simulated
        Scale::Full => 400_000_000,  // 400 ms simulated
    }
}

/// One sweep point of the campaign.
#[derive(Clone, Debug)]
pub struct IntegrityPoint {
    /// SDC verdict-flip rate in force.
    pub sdc_rate: f64,
    /// Defense-policy label.
    pub policy: &'static str,
    /// The run's aggregate outcome.
    pub summary: ServiceSummary,
}

fn sweep(catalog: &PlanCatalog, scale: Scale) -> Vec<IntegrityPoint> {
    let mut points = Vec::new();
    for (ri, &sdc_rate) in SDC_RATES.iter().enumerate() {
        for (pi, (policy, integrity)) in policies().into_iter().enumerate() {
            let cfg = ServiceConfig {
                instances: INSTANCES,
                faults: FaultProfile::none().with_sdc(sdc_rate, Some(0), HOT_FACTOR),
                integrity,
                // Same seed across policies at one rate: the three
                // policies face the identical corruption pattern.
                seed: 0x1D7E_6000 ^ ((ri as u64) << 8) ^ pi as u64,
                ..ServiceConfig::default()
            };
            let summary = run_one(catalog, scale, &cfg);
            points.push(IntegrityPoint {
                sdc_rate,
                policy,
                summary,
            });
        }
    }
    points
}

fn run_one(catalog: &PlanCatalog, scale: Scale, cfg: &ServiceConfig) -> ServiceSummary {
    mp_service::run_service(
        catalog,
        &soak::tenants(catalog, LOAD * catalog.saturating_rate_per_s(INSTANCES)),
        duration_ns(scale),
        cfg,
    )
}

/// Runs the campaign against the cached per-scale soak catalog.
pub fn data(scale: Scale) -> Vec<IntegrityPoint> {
    sweep(&soak::catalog(scale), scale)
}

fn render(points: &[IntegrityPoint], catalog: &PlanCatalog) -> Report {
    let mut r = Report::new("Integrity soak: SDC rate x defense policy at 2x saturation");
    r.note(format!(
        "pool of {} instances, instance 0 corrupts at {}x the swept rate; load {:.1}x saturation",
        INSTANCES, HOT_FACTOR, LOAD
    ));
    r.note(
        "escapes = corrupted plans shipped as successes; the defended policies must hold this at 0",
    );
    r.note("retention = goodput vs the same policy at SDC rate 0; certify cols are per-completion overhead");
    r.note(format!(
        "catalog mean certify cost at full quality: {:.1} us/plan",
        catalog.mean_certify_us(mp_planner::QualityTier::Full)
    ));
    r.columns(&[
        "sdc", "policy", "offered", "goodput", "retain", "miss", "injected", "escapes", "esc_rate",
        "cfail", "cert_us", "cert_p99", "votes", "ovrd", "bench", "readmit",
    ]);
    let baseline = |policy: &str| {
        points
            .iter()
            .find(|p| p.sdc_rate == 0.0 && p.policy == policy)
            .map(|p| p.summary.goodput_rps())
            .unwrap_or(0.0)
    };
    for p in points {
        let s = &p.summary;
        let i = &s.integrity;
        let base = baseline(p.policy);
        r.row(&[
            format!("{:.0e}", p.sdc_rate),
            p.policy.to_string(),
            s.offered.to_string(),
            format!("{:.0}", s.goodput_rps()),
            if base > 0.0 {
                f3(s.goodput_rps() / base)
            } else {
                "-".to_string()
            },
            f3(s.miss_rate()),
            i.sdc_injected.to_string(),
            i.sdc_escaped.to_string(),
            f3(s.escape_rate()),
            i.certify_failed.to_string(),
            format!("{:.1}", s.certify_overhead_us()),
            i.certify_hist
                .percentile(0.99)
                .map(|v| format!("{v}"))
                .unwrap_or_else(|| "-".to_string()),
            i.votes.to_string(),
            i.vote_overrides.to_string(),
            i.liars_benched.to_string(),
            i.scrub_readmits.to_string(),
        ]);
    }
    r
}

/// Runs the campaign and renders the report (cached catalog).
pub fn run(scale: Scale) -> Report {
    let catalog = soak::catalog(scale);
    render(&sweep(&catalog, scale), &catalog)
}

/// Like [`run`], but builds the catalog on the given pool, uncached — the
/// thread-invariance regression test compares widths 1 and 8 through this
/// entry point.
pub fn run_with_pool(scale: Scale, pool: &ThreadPool) -> Report {
    let catalog = soak::build_catalog(scale, pool);
    render(&sweep(&catalog, scale), &catalog)
}

/// Captures one fully-instrumented defended run at the worst swept SDC
/// rate into a telemetry session (catalog build + certify-vote-scrub
/// service run on the `("service", 0)` stream), returning the session
/// plus the run's summary. Certification rejections, liar benchings, and
/// scrub readmissions all leave flight-recorder incidents — the SDC
/// post-mortem walkthrough in `EXPERIMENTS.md` reads this capture.
pub fn capture_trace(
    scale: Scale,
    pool: &ThreadPool,
) -> (mp_telemetry::TelemetrySession, ServiceSummary) {
    use mp_octree::{benchmark_scenes, Scene};
    let session = mp_telemetry::TelemetrySession::new();
    let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(2).collect();
    let catalog = mp_service::PlanCatalog::build_traced(
        &mp_robot::RobotModel::jaco2(),
        &scenes,
        2,
        11,
        pool,
        &session,
    )
    .expect("benchmark scenes yield valid soak catalogs");
    let cfg = ServiceConfig {
        instances: INSTANCES,
        faults: FaultProfile::none().with_sdc(SDC_RATES[2], Some(0), HOT_FACTOR),
        integrity: IntegrityConfig::full(),
        seed: 0x1D7E_6000 ^ (2 << 8) ^ 2,
        ..ServiceConfig::default()
    };
    let summary = {
        let _stream = session.install("service", 0);
        let load = soak::tenants(&catalog, LOAD * catalog.saturating_rate_per_s(INSTANCES));
        mp_service::run_service(&catalog, &load, duration_ns(scale), &cfg)
    };
    (session, summary)
}

/// Builds the unified metrics registry for a captured run: the service
/// summary including the `service.integrity.*` counters and the
/// certification-cost histogram, plus the process-wide collision
/// counters.
pub fn metrics_registry(summary: &ServiceSummary) -> mp_telemetry::Registry {
    let reg = mp_telemetry::Registry::new();
    summary.export_into("service", &reg);
    mp_collision::metrics::export_into(&reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point<'a>(d: &'a [IntegrityPoint], rate: f64, policy: &str) -> &'a IntegrityPoint {
        d.iter()
            .find(|p| p.sdc_rate == rate && p.policy == policy)
            .expect("sweep point exists")
    }

    #[test]
    fn undefended_ships_unsafe_plans_and_defenses_ship_none() {
        let d = data(Scale::Quick);
        let worst = SDC_RATES[2];
        let u = point(&d, worst, "undefended");
        assert!(
            u.summary.integrity.sdc_injected > 0,
            "the hot lane must corrupt at rate {worst}"
        );
        assert!(
            u.summary.integrity.sdc_escaped > 0 && u.summary.escape_rate() > 0.0,
            "undefended, corrupted plans must ship"
        );
        for policy in ["certify", "certify-vote-scrub"] {
            for &rate in &SDC_RATES {
                let p = point(&d, rate, policy);
                assert_eq!(
                    p.summary.integrity.sdc_escaped, 0,
                    "{policy} at rate {rate} must ship zero unsafe plans"
                );
            }
        }
    }

    #[test]
    fn full_ladder_retains_goodput_under_attack() {
        let d = data(Scale::Quick);
        let clean = point(&d, 0.0, "certify-vote-scrub").summary.goodput_rps();
        let attacked = point(&d, SDC_RATES[2], "certify-vote-scrub")
            .summary
            .goodput_rps();
        assert!(
            attacked >= 0.90 * clean,
            "certify-vote-scrub goodput {attacked:.0} < 90% of its no-SDC {clean:.0}"
        );
    }

    #[test]
    fn certification_overhead_is_measured() {
        let d = data(Scale::Quick);
        let p = point(&d, SDC_RATES[2], "certify");
        let i = &p.summary.integrity;
        assert!(i.certify_ns > 0, "certification time must be accounted");
        assert!(p.summary.certify_overhead_us() > 0.0);
        assert_eq!(i.certify_hist.count(), i.certified + i.certify_failed);
        // Undefended runs pay nothing.
        let u = point(&d, SDC_RATES[2], "undefended");
        assert_eq!(u.summary.integrity.certify_ns, 0);
    }

    #[test]
    fn voting_and_scrub_engage_on_the_hot_lane() {
        let d = data(Scale::Quick);
        let p = point(&d, SDC_RATES[2], "certify-vote-scrub");
        let i = &p.summary.integrity;
        assert!(i.votes > 0, "suspicion must escalate to voting");
        // Certify-only never votes or scrubs.
        let c = point(&d, SDC_RATES[2], "certify");
        assert_eq!(c.summary.integrity.votes, 0);
        assert_eq!(c.summary.integrity.scrub_probes, 0);
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
        assert!(text.contains("1e-3") || text.contains("1e-03"));
        assert!(text.contains("0e0") || text.contains("0e+0") || text.contains("0e00"));
    }
}
