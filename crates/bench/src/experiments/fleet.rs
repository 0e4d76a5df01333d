//! Fleet chaos soak: the sharded multi-tenant planning fleet under shard
//! kills and an adversarial tenant (robustness study; not a paper figure).
//!
//! Five scenarios over the same 16-shard fleet at 2× the fleet-saturating
//! load, all driven by the deterministic discrete-event engine:
//!
//! * `no-failure`    — defended fleet (failover + hedging + fairness),
//!   no chaos: the goodput reference.
//! * `chaos-defended` — same fleet with 2 of 16 shards crash-killed
//!   mid-run; failover re-routes, hedges cover the tail, the rejoining
//!   shards catch up under throttled admission.
//! * `chaos-undefended` — the same double kill with failover and hedging
//!   off: the ring keeps routing to the dead shards and their traffic is
//!   lost (the documented collapse).
//! * `adversary`     — defended fleet, no chaos, plus an adversarial
//!   tenant offering ~2× the fleet's capacity on its own; its token
//!   bucket and low WFQ weight confine the blast radius.
//! * `adversary-unfair` — the same adversary with per-tenant isolation
//!   off: the shared queue lets it starve everyone (the contrast row).
//!
//! The in-module tests pin the acceptance criteria: the defended fleet
//! sustains ≥ 70% of its no-failure goodput through the double kill, and
//! the adversary costs the steady tenants < 10% goodput when fairness is
//! on. Per-tenant and per-shard breakdowns ride along in the report (and
//! in the CSV via `--csv`) in deterministic order.

use mp_service::{FleetConfig, FleetSummary, PlanCatalog, TenantPolicy, TenantSpec};
use mp_sim::arrival::{ArrivalKind, ArrivalProcess};
use mp_sim::fault::{ShardFaultEvent, ShardFaultKind, ShardFaultPlan};
use mp_sim::vtime::VirtualNs;
use threadpool::ThreadPool;

use crate::experiments::soak;
use crate::report::{f3, Report};
use crate::workloads::Scale;

/// Shards in the fleet.
pub const SHARDS: usize = 16;

/// Simulated MPAccel instances per shard.
pub const INSTANCES_PER_SHARD: usize = 2;

/// Offered load relative to the fleet's full-quality saturating rate.
pub const LOAD: f64 = 2.0;

/// The two shards the chaos scenarios kill mid-run.
pub const KILLED: [usize; 2] = [3, 11];

fn duration_ns(scale: Scale) -> VirtualNs {
    match scale {
        Scale::Quick => 50_000_000, // 50 ms simulated
        Scale::Full => 200_000_000, // 200 ms simulated
    }
}

/// The defended fleet configuration (failover + hedging + fairness on).
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        shard: mp_service::ServiceConfig {
            instances: INSTANCES_PER_SHARD,
            ..mp_service::ServiceConfig::default()
        },
        seed: 61,
        ..FleetConfig::default()
    }
}

/// The steady tenant mix (the soak tenants) plus, when `adversary` is
/// set, a third tenant bursting at ~2× the whole fleet's capacity.
pub fn tenants(catalog: &PlanCatalog, adversary: bool) -> Vec<TenantSpec> {
    let sat = catalog.saturating_rate_per_s(SHARDS * INSTANCES_PER_SHARD);
    let mut ts = soak::tenants(catalog, LOAD * sat);
    if adversary {
        let deadline_us = (4.0 * catalog.mean_service_us(mp_planner::QualityTier::Full)) as u64;
        ts.push(TenantSpec {
            label: "adversary",
            process: ArrivalProcess {
                kind: ArrivalKind::Bursty {
                    burst_factor: 10.0,
                    period_us: 2_000,
                    duty: 0.1,
                },
                rate_per_s: 2.0 * sat,
                seed: 999,
            },
            deadline_us,
        });
    }
    ts
}

/// Per-tenant isolation policies paired with [`tenants`]: the interactive
/// tenant gets the largest WFQ weight, and the adversary is confined by a
/// small weight plus a token bucket admitting ~4% of fleet capacity.
pub fn policies(catalog: &PlanCatalog, adversary: bool) -> Vec<TenantPolicy> {
    let sat = catalog.saturating_rate_per_s(SHARDS * INSTANCES_PER_SHARD);
    let mut ps = vec![
        TenantPolicy {
            weight: 4,
            ..TenantPolicy::default()
        },
        TenantPolicy {
            weight: 2,
            ..TenantPolicy::default()
        },
    ];
    if adversary {
        ps.push(TenantPolicy {
            weight: 1,
            bucket: Some((0.04 * sat, 8)),
            ..TenantPolicy::default()
        });
    }
    ps
}

/// The double-kill chaos plan: both [`KILLED`] shards crash at 1/4 of the
/// run and stay down for a quarter of it, then rejoin and catch up.
pub fn double_kill(scale: Scale) -> ShardFaultPlan {
    let d = duration_ns(scale);
    ShardFaultPlan::scripted(
        17,
        KILLED
            .iter()
            .map(|&shard| ShardFaultEvent {
                at_ns: d / 4,
                shard,
                kind: ShardFaultKind::Crash,
                duration_ns: d / 4,
                slow_factor: 1,
            })
            .collect(),
    )
}

/// One scenario's outcome.
#[derive(Clone, Debug)]
pub struct FleetPoint {
    /// Scenario label.
    pub scenario: &'static str,
    /// The run's full fleet summary.
    pub summary: FleetSummary,
}

/// The scenario labels in report order.
pub const SCENARIOS: [&str; 5] = [
    "no-failure",
    "chaos-defended",
    "chaos-undefended",
    "adversary",
    "adversary-unfair",
];

fn run_scenario(catalog: &PlanCatalog, scale: Scale, scenario: &'static str) -> FleetPoint {
    let defended = fleet_config();
    let none = ShardFaultPlan::none(defended.seed);
    let (cfg, adversary, chaos) = match scenario {
        "no-failure" => (defended, false, none),
        "chaos-defended" => (defended, false, double_kill(scale)),
        "chaos-undefended" => (
            FleetConfig {
                failover: false,
                hedge: false,
                ..defended
            },
            false,
            double_kill(scale),
        ),
        "adversary" => (defended, true, none),
        "adversary-unfair" => (
            FleetConfig {
                fairness: false,
                ..defended
            },
            true,
            none,
        ),
        other => unreachable!("unknown scenario {other}"),
    };
    let tenants = tenants(catalog, adversary);
    let policies = policies(catalog, adversary);
    let summary = mp_service::run_fleet(
        catalog,
        &tenants,
        &policies,
        duration_ns(scale),
        &cfg,
        &chaos,
    );
    FleetPoint { scenario, summary }
}

fn sweep(catalog: &PlanCatalog, scale: Scale) -> Vec<FleetPoint> {
    SCENARIOS
        .iter()
        .map(|s| run_scenario(catalog, scale, s))
        .collect()
}

/// Runs all scenarios against the cached per-scale soak catalog.
pub fn data(scale: Scale) -> Vec<FleetPoint> {
    sweep(&soak::catalog(scale), scale)
}

fn render(points: &[FleetPoint], catalog: &PlanCatalog) -> Report {
    let sat = catalog.saturating_rate_per_s(SHARDS * INSTANCES_PER_SHARD);
    let mut r = Report::new("Fleet chaos soak: 16 shards, double kill, adversarial tenant");
    r.note(format!(
        "{} shards x {} instances; fleet saturating rate {:.0} req/s; steady load {:.1}x",
        SHARDS, INSTANCES_PER_SHARD, sat, LOAD
    ));
    r.note(format!(
        "chaos rows kill shards {:?} at T/4 for T/4; adversary rows add a 2x-capacity burst tenant",
        KILLED
    ));
    r.note("scope: fleet = aggregates, tenant:<label> = per-tenant, shard:<id> = per-shard (chaos-defended only)");
    r.columns(&[
        "scenario", "scope", "offered", "goodput", "miss", "p999us", "shed", "thrtl", "kills",
        "reroute", "lost", "hedge", "hwin", "spill", "imbal",
    ]);
    let dash = || "-".to_string();
    for p in points {
        let s = &p.summary;
        r.row(&[
            p.scenario.to_string(),
            "fleet".to_string(),
            s.fleet.offered.to_string(),
            format!("{:.0}", s.fleet.goodput_rps()),
            f3(s.fleet.miss_rate()),
            format!("{:.1}", s.fleet.p999_us()),
            s.fleet.shed().to_string(),
            s.fleet.shed_throttled.to_string(),
            s.shard_kills.to_string(),
            s.rerouted.to_string(),
            s.lost_to_shards.to_string(),
            s.hedges_fired.to_string(),
            s.hedge_wins.to_string(),
            s.spills.to_string(),
            format!("{:.2}", s.imbalance()),
        ]);
        for t in &s.tenants {
            r.row(&[
                p.scenario.to_string(),
                format!("tenant:{}", t.label),
                t.offered.to_string(),
                format!("{:.0}", t.goodput_rps()),
                f3(t.miss_rate()),
                format!("{:.1}", t.p999_us()),
                t.shed.to_string(),
                t.throttled.to_string(),
                dash(),
                dash(),
                dash(),
                dash(),
                dash(),
                dash(),
                dash(),
            ]);
        }
        if p.scenario == "chaos-defended" {
            for (i, sh) in s.shards.iter().enumerate() {
                r.row(&[
                    p.scenario.to_string(),
                    format!("shard:{i:02}"),
                    sh.offered.to_string(),
                    format!(
                        "{:.0}",
                        sh.on_time as f64 / (s.fleet.duration_ns as f64 * 1e-9).max(1e-12)
                    ),
                    f3(if sh.offered == 0 {
                        0.0
                    } else {
                        1.0 - sh.on_time as f64 / sh.offered as f64
                    }),
                    format!("{:.1}", sh.p999_us()),
                    sh.sheds.to_string(),
                    dash(),
                    sh.kills.to_string(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                    dash(),
                ]);
            }
        }
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

/// Captures one fully-instrumented `chaos-defended` run into a telemetry
/// session (catalog build + the double-kill fleet run on the `("fleet",
/// 0)` stream), returning the session plus the run's summary. Shard
/// failovers, hedges, deadline misses, and sheds all leave
/// flight-recorder incidents; the capture is deterministic at any pool
/// width.
pub fn capture_trace(
    scale: Scale,
    pool: &ThreadPool,
) -> (mp_telemetry::TelemetrySession, FleetSummary) {
    use mp_octree::{benchmark_scenes, Scene};
    let session = mp_telemetry::TelemetrySession::new();
    let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(2).collect();
    let catalog = PlanCatalog::build_traced(
        &mp_robot::RobotModel::jaco2(),
        &scenes,
        2,
        11,
        pool,
        &session,
    )
    .expect("benchmark scenes yield valid soak catalogs");
    let summary = {
        let _stream = session.install("fleet", 0);
        mp_service::run_fleet(
            &catalog,
            &tenants(&catalog, false),
            &policies(&catalog, false),
            duration_ns(scale),
            &fleet_config(),
            &double_kill(scale),
        )
    };
    (session, summary)
}

/// Builds the unified metrics registry for a captured fleet run: fleet
/// aggregates, robustness counters, and the per-shard / per-tenant
/// breakdowns (deterministically named), plus the process-wide collision
/// counters.
pub fn metrics_registry(summary: &FleetSummary) -> mp_telemetry::Registry {
    let reg = mp_telemetry::Registry::new();
    summary.export_into("fleet", &reg);
    mp_collision::metrics::export_into(&reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point<'a>(d: &'a [FleetPoint], scenario: &str) -> &'a FleetPoint {
        d.iter()
            .find(|p| p.scenario == scenario)
            .expect("scenario exists")
    }

    #[test]
    fn defended_fleet_survives_the_double_kill() {
        let d = data(Scale::Quick);
        let clean = point(&d, "no-failure").summary.fleet.goodput_rps();
        let chaos = &point(&d, "chaos-defended").summary;
        let naive = &point(&d, "chaos-undefended").summary;
        assert_eq!(chaos.shard_kills, 2, "both kills must land");
        assert!(chaos.rerouted > 0, "failover must re-route victims");
        assert!(
            chaos.fleet.goodput_rps() >= 0.70 * clean,
            "defended goodput {:.0} < 70% of no-failure {:.0}",
            chaos.fleet.goodput_rps(),
            clean
        );
        assert!(
            naive.fleet.goodput_rps() < chaos.fleet.goodput_rps(),
            "undefended {:.0} must collapse below defended {:.0}",
            naive.fleet.goodput_rps(),
            chaos.fleet.goodput_rps()
        );
        assert!(
            naive.lost_to_shards > 0,
            "the undefended fleet must lose traffic to dead shards"
        );
    }

    #[test]
    fn fairness_confines_the_adversary() {
        let d = data(Scale::Quick);
        let quiet = &point(&d, "no-failure").summary;
        let noisy = &point(&d, "adversary").summary;
        for (q, n) in quiet.tenants.iter().zip(&noisy.tenants) {
            assert_eq!(q.label, n.label);
            assert!(
                n.goodput_rps() >= 0.90 * q.goodput_rps(),
                "tenant {}: adversary cut goodput {:.0} -> {:.0} (> 10%)",
                q.label,
                q.goodput_rps(),
                n.goodput_rps()
            );
        }
        let adv = noisy.tenants.last().expect("adversary tenant present");
        assert_eq!(adv.label, "adversary");
        assert!(adv.throttled > 0, "the token bucket must bite");
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = format!("{:?}", data(Scale::Quick));
        let b = format!("{:?}", data(Scale::Quick));
        assert_eq!(a, b);
    }

    #[test]
    fn report_covers_scenarios_tenants_and_shards() {
        let text = run(Scale::Quick).to_string();
        for s in SCENARIOS {
            assert!(text.contains(s), "missing scenario {s}");
        }
        assert!(text.contains("tenant:interactive"));
        assert!(text.contains("tenant:adversary"));
        assert!(text.contains("shard:00") && text.contains("shard:15"));
    }
}
