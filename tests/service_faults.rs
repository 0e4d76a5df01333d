//! Fault accounting of the planning service and fleet: every dispatch
//! fault the injectors fire must end masked (a slow unit that still
//! completes) or detected at its own completion. A completion that read
//! its fault back from the instance's inflight slot, after the instance
//! was re-acquired at that very timestamp, would take the next dispatch's
//! fault instead, retrying clean work and serving faulted work.
//!
//! Silent data corruption is the one fault no detection layer sees: an
//! undefended run ships corrupted plans, and the plan certifier (alone or
//! under the full integrity ladder) must ship none.
//!
//! Under overload the bounded queue sheds what it cannot hold, every
//! offered request resolves exactly once, and with the degradation
//! controller off every completion is served at full quality.
//!
//! Two runs are pinned to digests of their whole summaries: a faulty
//! service run and a chaos fleet run with every defense on. Any change to
//! the order in which the event loop handles its events shows up there.

use std::sync::OnceLock;

use mpaccel::octree::{benchmark_scenes, Scene};
use mpaccel::planner::QualityTier;
use mpaccel::robot::RobotModel;
use mpaccel::service::service::QUEUE_CAPACITY;
use mpaccel::service::{
    run_fleet, run_service, FaultProfile, FleetConfig, IntegrityConfig, IntegrityStats,
    PlanCatalog, ServiceConfig, TenantPolicy, TenantSpec,
};
use mpaccel::sim::arrival::{ArrivalKind, ArrivalProcess};
use mpaccel::sim::fault::{ResilienceCounters, ShardFaultEvent, ShardFaultKind, ShardFaultPlan};
use threadpool::ThreadPool;

const DURATION_NS: u64 = 50_000_000; // 50 ms simulated
const SEEDS: std::ops::Range<u64> = 0..8;
const RATES: [f64; 3] = [0.02, 0.05, 0.1];

fn catalog() -> &'static PlanCatalog {
    static CAT: OnceLock<PlanCatalog> = OnceLock::new();
    CAT.get_or_init(|| {
        let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(2).collect();
        PlanCatalog::build(&RobotModel::jaco2(), &scenes, 2, 3, &ThreadPool::new(2))
            .expect("catalog builds")
    })
}

/// Interactive Poisson plus bursty traffic at twice the saturating rate
/// of four instances.
fn tenants() -> Vec<TenantSpec> {
    let rate = 2.0 * catalog().saturating_rate_per_s(4);
    let deadline_us = (4.0 * catalog().mean_service_us(QualityTier::Full)) as u64;
    vec![
        TenantSpec {
            label: "interactive",
            process: ArrivalProcess {
                kind: ArrivalKind::Poisson,
                rate_per_s: rate * 0.7,
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
                rate_per_s: rate * 0.3,
                seed: 202,
            },
            deadline_us: deadline_us * 2,
        },
    ]
}

/// Runs `run` over the seed x rate grid and lists every configuration
/// whose injected faults are not all masked or detected.
fn unaccounted(run: impl Fn(FaultProfile, u64) -> ResilienceCounters) -> Vec<String> {
    let mut bad = Vec::new();
    for seed in SEEDS {
        for rate in RATES {
            let r = run(FaultProfile::with_lemon(rate, 0, 3.0), seed);
            assert!(r.injected_total() > 0, "seed {seed} rate {rate}: no faults");
            if r.injected_total() != r.detected + r.masked {
                bad.push(format!(
                    "seed {seed} rate {rate}: injected {} != detected {} + masked {}",
                    r.injected_total(),
                    r.detected,
                    r.masked
                ));
            }
        }
    }
    bad
}

#[test]
fn service_masks_or_detects_every_injected_fault() {
    let tenants = tenants();
    let bad = unaccounted(|faults, seed| {
        let cfg = ServiceConfig {
            faults,
            seed,
            ..ServiceConfig::default()
        };
        run_service(catalog(), &tenants, DURATION_NS, &cfg).resilience
    });
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn fleet_masks_or_detects_every_injected_fault() {
    let tenants = tenants();
    let bad = unaccounted(|faults, seed| {
        let cfg = FleetConfig {
            shards: 2,
            shard: ServiceConfig {
                instances: 2,
                faults,
                ..ServiceConfig::default()
            },
            seed,
            ..FleetConfig::default()
        };
        run_fleet(
            catalog(),
            &tenants,
            &[],
            DURATION_NS,
            &cfg,
            &ShardFaultPlan::none(seed),
        )
        .fleet
        .resilience
    });
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// Runs one seeded SDC profile under `integrity` through the service
/// and through a two-shard fleet.
fn sdc_runs(integrity: IntegrityConfig) -> [(&'static str, IntegrityStats); 2] {
    const SEED: u64 = 7;
    let tenants = tenants();
    let shard = ServiceConfig {
        faults: FaultProfile::none().with_sdc(0.01, Some(0), 30.0),
        integrity,
        seed: SEED,
        ..ServiceConfig::default()
    };
    let service = run_service(catalog(), &tenants, DURATION_NS, &shard).integrity;
    let cfg = FleetConfig {
        shards: 2,
        shard: ServiceConfig {
            instances: 2,
            ..shard
        },
        seed: SEED,
        ..FleetConfig::default()
    };
    let fleet = run_fleet(
        catalog(),
        &tenants,
        &[],
        DURATION_NS,
        &cfg,
        &ShardFaultPlan::none(SEED),
    )
    .fleet
    .integrity;
    [("service", service), ("fleet", fleet)]
}

#[test]
fn certification_ships_no_silently_corrupted_plan() {
    for (run, s) in sdc_runs(IntegrityConfig::off()) {
        assert!(s.sdc_injected > 0, "{run}: SDC must fire");
        assert!(s.sdc_escaped > 0, "{run}: undefended, unsafe plans ship");
    }
    for (label, integrity) in [
        ("certify-only", IntegrityConfig::certify_only()),
        ("full", IntegrityConfig::full()),
    ] {
        for (run, s) in sdc_runs(integrity) {
            assert!(s.sdc_injected > 0, "{run} {label}: SDC must fire");
            assert!(s.certify_failed > 0, "{run} {label}: nothing was caught");
            assert_eq!(s.sdc_escaped, 0, "{run} {label}: an unsafe plan shipped");
        }
    }
}

#[test]
fn overload_sheds_at_the_queue_bound_and_resolves_every_request() {
    // Synchronized batches twice the queue capacity, at three times the
    // saturating rate of the default four instances.
    let deadline_us = (4.0 * catalog().mean_service_us(QualityTier::Full)) as u64;
    let tenants = [TenantSpec {
        label: "adversarial",
        process: ArrivalProcess {
            kind: ArrivalKind::Adversarial {
                batch: 2 * QUEUE_CAPACITY as u32,
            },
            rate_per_s: 3.0 * catalog().saturating_rate_per_s(4),
            seed: 9,
        },
        deadline_us,
    }];
    for degrade in [true, false] {
        let cfg = ServiceConfig {
            degrade,
            ..ServiceConfig::default()
        };
        let s = run_service(catalog(), &tenants, DURATION_NS, &cfg);
        assert!(
            s.shed_queue_full > 0,
            "degrade={degrade}: no batch overflowed"
        );
        assert_eq!(
            s.offered,
            s.on_time
                + s.late
                + s.shed_queue_full
                + s.shed_hopeless
                + s.shed_throttled
                + s.shed_shard_lost
                + s.failed_faults
                + s.unsolved,
            "degrade={degrade}: a request resolved other than exactly once"
        );
        assert!(s.completed() > 0, "degrade={degrade}: nothing completed");
        let degraded: u64 = s.tier_served[1..].iter().sum();
        if degrade {
            assert!(degraded > 0, "overload never engaged the controller");
        } else {
            // Only a ladder step-down after an unsolved tier could serve
            // below full quality, and this catalog solves every query.
            assert_eq!(s.tier_stepdowns, 0, "an unsolved tier stepped down");
            assert_eq!(degraded, 0, "the controller is off, yet tiers degraded");
        }
    }
}

/// FNV-1a (64-bit) of a summary's `Debug` text.
fn digest(summary: &impl std::fmt::Debug) -> u64 {
    format!("{summary:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
}

#[test]
fn a_faulty_service_run_matches_its_pinned_summary() {
    let cfg = ServiceConfig {
        faults: FaultProfile::with_lemon(0.03, 0, 10.0).with_sdc(0.01, Some(1), 20.0),
        integrity: IntegrityConfig::full(),
        seed: 5,
        ..ServiceConfig::default()
    };
    let s = run_service(catalog(), &tenants(), DURATION_NS, &cfg);
    assert!(s.quarantines > 0 && s.retries > 0, "the lemon must trip");
    assert!(
        s.integrity.certify_failed > 0,
        "certification must catch SDC"
    );
    assert_eq!(
        digest(&s),
        0xCB05_795A_60FC_47AF,
        "service summary moved:\n{s:?}"
    );
}

#[test]
fn a_chaos_fleet_run_matches_its_pinned_summary() {
    let tenants = tenants();
    let policies = [
        TenantPolicy {
            weight: 3,
            ..TenantPolicy::default()
        },
        TenantPolicy {
            weight: 1,
            bucket: Some((0.25 * catalog().saturating_rate_per_s(4), 16)),
            ..TenantPolicy::default()
        },
    ];
    let cfg = FleetConfig {
        shards: 4,
        shard: ServiceConfig {
            instances: 2,
            faults: FaultProfile::with_lemon(0.03, 1, 10.0).with_sdc(0.01, Some(0), 20.0),
            integrity: IntegrityConfig::full(),
            ..ServiceConfig::default()
        },
        seed: 9,
        ..FleetConfig::default()
    };
    assert!(cfg.hedge && cfg.failover && cfg.fairness);
    let stall = ShardFaultEvent {
        at_ns: DURATION_NS / 8,
        shard: 1,
        kind: ShardFaultKind::Stall,
        duration_ns: DURATION_NS / 4,
        slow_factor: 8,
    };
    let crash = ShardFaultEvent {
        at_ns: DURATION_NS / 2,
        shard: 2,
        kind: ShardFaultKind::Crash,
        duration_ns: DURATION_NS / 8,
        slow_factor: 1,
    };
    let chaos = ShardFaultPlan {
        flap_rate_per_s: 20.0,
        ..ShardFaultPlan::scripted(4, vec![stall, crash])
    };
    let f = run_fleet(catalog(), &tenants, &policies, DURATION_NS, &cfg, &chaos);
    assert!(
        f.hedges_fired > 0 && f.hedge_wins > 0,
        "the stall must hedge"
    );
    assert!(
        f.shard_kills > 1 && f.rerouted > 0,
        "crash and flaps must fail over"
    );
    assert!(f.tenants[1].throttled > 0, "the token bucket must throttle");
    assert!(f.fleet.quarantines > 0, "the lemon must trip");
    assert!(
        f.fleet.integrity.certify_failed > 0,
        "certification must catch SDC"
    );
    assert_eq!(
        digest(&f),
        0x9339_44B5_4681_7AD2,
        "fleet summary moved:\n{f:?}"
    );
}
