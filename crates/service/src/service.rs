//! The single planning service: its configuration and [`run_service`],
//! which runs the fleet loop ([`crate::fleet`]) as a one-shard fleet.
//!
//! Tenants' pregenerated arrival streams feed an admission-controlled,
//! bounded, deadline-aware queue; a dispatcher moves requests onto the
//! first idle healthy instance of an accelerator pool; per-instance fault
//! injectors strike dispatches, which retry with exponential backoff
//! until the circuit breaker quarantines a persistently faulty instance;
//! and a load-level controller steps congested traffic down the quality
//! ladder instead of missing deadlines. Every random draw is seeded from
//! the run configuration, so a run is a pure function of `(catalog,
//! tenants, duration, config)`.

use mp_sim::fault::ShardFaultPlan;
use mp_sim::vtime::VirtualNs;

use crate::catalog::PlanCatalog;
use crate::fleet::{simulate, FleetConfig};
use crate::integrity::IntegrityConfig;
use crate::metrics::ServiceSummary;
use crate::request::TenantSpec;
use crate::tenant::QueuePolicy;

/// Re-dispatches a faulted request is allowed after its first attempt.
pub const MAX_RETRIES: u32 = 3;

/// Base retry backoff in microseconds; doubles per attempt.
pub const BACKOFF_US: u64 = 50;

/// Queue capacity when admission control is on.
pub const QUEUE_CAPACITY: usize = 64;

/// Service-time multiplier for
/// [`FaultKind::SlowUnit`](mp_sim::fault::FaultKind::SlowUnit) faults
/// (the dispatch completes correctly, just slower).
pub const SLOW_FACTOR: u64 = 4;

/// Fault environment for a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Per-kind fault probability per dispatch (see
    /// [`FaultKind::ALL`](mp_sim::fault::FaultKind::ALL); a dispatch
    /// rolls every kind).
    pub rate_per_kind: f64,
    /// Instance with an elevated fault rate (the "lemon"), exercising the
    /// circuit breaker.
    pub lemon: Option<usize>,
    /// Rate multiplier for the lemon instance.
    pub lemon_factor: f64,
    /// Probability a clean, solved completion silently returns a
    /// corrupted (unsafe) plan — the SDC hazard no detection layer sees.
    pub sdc_rate: f64,
    /// Instance with an elevated silent-corruption rate (the "hot lane").
    pub sdc_hot: Option<usize>,
    /// Rate multiplier for the hot instance.
    pub sdc_hot_factor: f64,
}

impl FaultProfile {
    /// A fault-free environment.
    pub fn none() -> FaultProfile {
        FaultProfile {
            rate_per_kind: 0.0,
            lemon: None,
            lemon_factor: 1.0,
            sdc_rate: 0.0,
            sdc_hot: None,
            sdc_hot_factor: 1.0,
        }
    }

    /// A uniform fault rate with one lemon instance at `lemon_factor`×
    /// that rate.
    pub fn with_lemon(rate_per_kind: f64, lemon: usize, lemon_factor: f64) -> FaultProfile {
        FaultProfile {
            lemon: Some(lemon),
            lemon_factor,
            rate_per_kind,
            ..FaultProfile::none()
        }
    }

    /// Adds silent data corruption: `rate` per clean completion, with
    /// `hot` (if any) corrupting at `hot_factor`× that rate.
    pub fn with_sdc(mut self, rate: f64, hot: Option<usize>, hot_factor: f64) -> FaultProfile {
        self.sdc_rate = rate;
        self.sdc_hot = hot;
        self.sdc_hot_factor = hot_factor;
        self
    }
}

/// Full configuration of one service run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Simulated MPAccel instances in the pool.
    pub instances: usize,
    /// Queue discipline.
    pub policy: QueuePolicy,
    /// Admission control: bounded queue with shedding, plus hopeless-miss
    /// shedding at dispatch. Off reproduces the naive unbounded baseline.
    pub admission: bool,
    /// Graceful-degradation controller ([`crate::degrade`]); off serves
    /// every request at full quality.
    pub degrade: bool,
    /// Fault environment.
    pub faults: FaultProfile,
    /// Integrity pipeline (certification / voting / scrub); off by
    /// default.
    pub integrity: IntegrityConfig,
    /// Run seed (fault streams, request→query assignment).
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            instances: 4,
            policy: QueuePolicy::Edf,
            admission: true,
            degrade: true,
            faults: FaultProfile::none(),
            integrity: IntegrityConfig::off(),
            seed: 0,
        }
    }
}

/// Runs the service simulation and returns its aggregate summary: the
/// fleet loop with one shard and hedging, failover, fairness and shard
/// chaos off. Deterministic: identical inputs yield an identical summary,
/// on any machine and at any ambient thread count.
///
/// # Panics
///
/// Panics if the catalog is empty or `cfg.instances == 0`.
pub fn run_service(
    catalog: &PlanCatalog,
    tenants: &[TenantSpec],
    duration_ns: VirtualNs,
    cfg: &ServiceConfig,
) -> ServiceSummary {
    let one_shard = FleetConfig {
        shards: 1,
        shard: *cfg,
        hedge: false,
        failover: false,
        fairness: false,
        seed: cfg.seed,
    };
    let none = ShardFaultPlan::none(0);
    simulate(catalog, tenants, &[], duration_ns, &one_shard, &none, 0).fleet
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_octree::{benchmark_scenes, Scene};
    use mp_planner::QualityTier;
    use mp_robot::RobotModel;
    use mp_sim::arrival::{ArrivalKind, ArrivalProcess};
    use std::sync::OnceLock;
    use threadpool::ThreadPool;

    fn catalog() -> &'static PlanCatalog {
        static CAT: OnceLock<PlanCatalog> = OnceLock::new();
        CAT.get_or_init(|| {
            let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(2).collect();
            PlanCatalog::build(&RobotModel::jaco2(), &scenes, 2, 3, &ThreadPool::new(2))
                .expect("catalog builds")
        })
    }

    fn tenants(rate: f64) -> Vec<TenantSpec> {
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

    const DURATION: VirtualNs = 50_000_000; // 50 ms simulated

    #[test]
    fn runs_are_deterministic_and_conserving() {
        let cfg = ServiceConfig {
            faults: FaultProfile::with_lemon(0.01, 0, 10.0),
            ..ServiceConfig::default()
        };
        let rate = catalog().saturating_rate_per_s(cfg.instances);
        let a = run_service(catalog(), &tenants(rate), DURATION, &cfg);
        let b = run_service(catalog(), &tenants(rate), DURATION, &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "summaries differ");
        assert_eq!(
            a.offered,
            a.on_time + a.late + a.shed() + a.failed_faults + a.unsolved,
            "every request must resolve exactly once"
        );
        assert!(a.offered > 100, "expected meaningful traffic");
        // Energy accounting: completions carry energy, the per-tier split
        // sums to the total, and faulted dispatches wasted some.
        assert!(a.energy_pj > 0.0, "completions must spend energy");
        let tier_sum: f64 = a.tier_energy_pj.iter().sum();
        assert!((tier_sum - a.energy_pj).abs() < 1e-6 * a.energy_pj.max(1.0));
        assert!(a.energy_per_plan_pj() > 0.0);
        assert!(a.wasted_energy_pj > 0.0, "retries must waste energy");
    }

    #[test]
    fn degraded_tiers_save_energy_under_overload() {
        let rate = 2.0 * catalog().saturating_rate_per_s(4);
        let s = run_service(
            catalog(),
            &tenants(rate),
            DURATION,
            &ServiceConfig::default(),
        );
        assert!(
            s.tier_served[1..].iter().sum::<u64>() > 0,
            "overload must degrade"
        );
        assert!(
            s.degraded_saved_pj > 0.0,
            "degraded completions must bank savings"
        );
    }

    #[test]
    fn underload_serves_nearly_everything_on_time() {
        let cfg = ServiceConfig::default();
        let rate = 0.3 * catalog().saturating_rate_per_s(cfg.instances);
        let s = run_service(catalog(), &tenants(rate), DURATION, &cfg);
        assert!(
            s.miss_rate() < 0.35,
            "underloaded service misses {:.1}% (catalog solve rate {:.2})",
            100.0 * s.miss_rate(),
            catalog().solve_rate(QualityTier::Full),
        );
        assert!(s.p50_us() > 0.0);
    }

    #[test]
    fn degradation_beats_the_naive_baseline_under_overload() {
        let rate = 2.0 * catalog().saturating_rate_per_s(4);
        let naive = ServiceConfig {
            policy: QueuePolicy::Fifo,
            admission: false,
            degrade: false,
            ..ServiceConfig::default()
        };
        let degrading = ServiceConfig::default();
        let a = run_service(catalog(), &tenants(rate), DURATION, &naive);
        let b = run_service(catalog(), &tenants(rate), DURATION, &degrading);
        assert!(
            b.goodput_rps() > a.goodput_rps(),
            "degradation goodput {:.0} <= naive {:.0}",
            b.goodput_rps(),
            a.goodput_rps()
        );
        assert!(
            b.miss_rate() < a.miss_rate(),
            "degradation miss {:.3} >= naive {:.3}",
            b.miss_rate(),
            a.miss_rate()
        );
        // The degrading run actually used cheaper tiers.
        assert!(b.tier_served[1..].iter().sum::<u64>() > 0);
        // The naive run only ever serves full quality.
        assert_eq!(a.tier_served[1..].iter().sum::<u64>(), 0);
    }

    #[test]
    fn lemon_instance_gets_quarantined_and_retries_happen() {
        let cfg = ServiceConfig {
            faults: FaultProfile::with_lemon(0.02, 0, 25.0),
            ..ServiceConfig::default()
        };
        let rate = catalog().saturating_rate_per_s(cfg.instances);
        let s = run_service(catalog(), &tenants(rate), DURATION, &cfg);
        assert!(s.retries > 0, "faults must trigger retries");
        assert!(s.quarantines > 0, "the lemon must trip the breaker");
        assert!(s.resilience.injected_total() > 0);
        assert_eq!(s.resilience.redispatches, s.retries);
    }

    #[test]
    fn undefended_sdc_ships_unsafe_plans() {
        let cfg = ServiceConfig {
            faults: FaultProfile::none().with_sdc(0.01, Some(0), 30.0),
            ..ServiceConfig::default()
        };
        let rate = catalog().saturating_rate_per_s(cfg.instances);
        let s = run_service(catalog(), &tenants(rate), DURATION, &cfg);
        assert!(s.integrity.sdc_injected > 0, "SDC must fire at this rate");
        assert_eq!(
            s.integrity.sdc_escaped, s.integrity.sdc_injected,
            "undefended, every corrupted plan ships"
        );
        assert!(s.escape_rate() > 0.0);
        assert_eq!(s.integrity.certify_ns, 0, "no certification was paid for");
    }

    #[test]
    fn certification_stops_every_escape_and_replans() {
        let cfg = ServiceConfig {
            faults: FaultProfile::none().with_sdc(0.01, Some(0), 30.0),
            integrity: IntegrityConfig::certify_only(),
            ..ServiceConfig::default()
        };
        let rate = catalog().saturating_rate_per_s(cfg.instances);
        let s = run_service(catalog(), &tenants(rate), DURATION, &cfg);
        assert!(s.integrity.sdc_injected > 0);
        assert_eq!(s.integrity.sdc_escaped, 0, "certification must be sound");
        assert!(s.integrity.certify_failed > 0, "rejections must re-plan");
        assert!(s.integrity.certified > 0);
        assert!(s.integrity.certify_ns > 0);
        assert!(s.certify_overhead_us() > 0.0);
        assert_eq!(
            s.integrity.certify_hist.count(),
            s.integrity.certified + s.integrity.certify_failed
        );
        // Defense-off counters stay off without voting enabled.
        assert_eq!(s.integrity.votes, 0);
        assert_eq!(s.integrity.scrub_probes, 0);
    }

    #[test]
    fn full_ladder_votes_on_the_hot_instance_and_scrubs_liars() {
        // A very hot lane: certify failures pile suspicion onto instance
        // 0 fast, voting engages, overrides accumulate, the liar is
        // benched and scrub-readmitted within the run.
        let cfg = ServiceConfig {
            faults: FaultProfile::none().with_sdc(0.004, Some(0), 100.0),
            integrity: IntegrityConfig::full(),
            ..ServiceConfig::default()
        };
        let rate = catalog().saturating_rate_per_s(cfg.instances);
        let s = run_service(catalog(), &tenants(rate), 2 * DURATION, &cfg);
        assert_eq!(s.integrity.sdc_escaped, 0, "the full ladder must be sound");
        assert!(s.integrity.votes > 0, "suspicion must engage voting");
        assert!(s.integrity.vote_overrides > 0, "votes must catch lies");
        assert!(
            s.integrity.liars_benched > 0,
            "the hot lane must strike out"
        );
        assert!(s.integrity.scrub_probes > 0);
        assert!(
            s.integrity.scrub_readmits > 0,
            "scrub must readmit within the run"
        );
        // Voting masks corruption before certification: fewer rejections
        // per injection than certify-only would pay.
        assert!(s.integrity.certify_failed < s.integrity.sdc_injected);
    }

    #[test]
    fn integrity_runs_are_deterministic() {
        let cfg = ServiceConfig {
            faults: FaultProfile::none().with_sdc(0.01, Some(1), 40.0),
            integrity: IntegrityConfig::full(),
            ..ServiceConfig::default()
        };
        let rate = 1.5 * catalog().saturating_rate_per_s(cfg.instances);
        let a = run_service(catalog(), &tenants(rate), DURATION, &cfg);
        let b = run_service(catalog(), &tenants(rate), DURATION, &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            a.offered,
            a.on_time + a.late + a.shed() + a.failed_faults + a.unsolved,
            "every request resolves exactly once under the integrity path"
        );
    }

    #[test]
    fn bounded_queue_sheds_under_adversarial_bursts() {
        let cfg = ServiceConfig::default();
        let rate = 3.0 * catalog().saturating_rate_per_s(cfg.instances);
        // One synchronized batch alone outgrows the bounded queue.
        let batch = 2 * QUEUE_CAPACITY as u32;
        let t = vec![TenantSpec {
            label: "adversarial",
            process: ArrivalProcess {
                kind: ArrivalKind::Adversarial { batch },
                rate_per_s: rate,
                seed: 9,
            },
            deadline_us: 2_000,
        }];
        let s = run_service(catalog(), &t, DURATION, &cfg);
        assert!(s.shed_queue_full > 0, "batches must overflow the queue");
    }
}
