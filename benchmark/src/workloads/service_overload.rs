//! `service_overload`: the discrete-event planning service and fleet at
//! twice their saturating load, with no collision detection on the timed
//! path.
//!
//! One operation is one `run_service` call (4 instances, EDF, admission
//! control, degradation, a 1e-2 fault rate with a 10x lemon instance,
//! certify + vote integrity) followed by one `run_fleet` call (16 shards
//! x 2 instances, hedging and failover, shards 3 and 11 killed for the
//! second quarter of the run), each on freshly seeded tenants. The plan
//! catalog (10 scenes x 10 queries) is built in set-up. This workload
//! guards the service event loops.

use mp_octree::{benchmark_scenes, Scene};
use mp_planner::QualityTier;
use mp_robot::RobotModel;
use mp_service::{
    run_fleet, run_service, FaultProfile, FleetConfig, FleetSummary, IntegrityConfig, PlanCatalog,
    ServiceConfig, ServiceSummary, TenantPolicy, TenantSpec,
};
use mp_sim::arrival::{ArrivalKind, ArrivalProcess};
use mp_sim::fault::{ShardFaultEvent, ShardFaultKind, ShardFaultPlan};
use threadpool::ThreadPool;

use super::{add, ratio, Det, LayerValues, Workload};
use crate::trace::{Layer, Probe, Recorded};
use crate::{derive, percentile, Fnv, Scale};

/// Instances of the single service.
const SERVICE_INSTANCES: usize = 4;
/// Fleet shards.
const SHARDS: usize = 16;
/// Instances per fleet shard.
const INSTANCES_PER_SHARD: usize = 2;
/// Shards killed mid-run.
const KILLED: [usize; 2] = [3, 11];
/// Offered load relative to full-quality saturation.
const LOAD: f64 = 2.0;
/// Seed of the plan catalog's queries. The catalog is the service's fixed
/// plan table, like the benchmark scenes it is planned on; the run seed
/// drives the traffic. A seeded 100-key catalog would move the service
/// times, and with them the offered load, by 20% from seed to seed.
const CATALOG_SEED: u64 = 11;

/// One operation's freshly seeded traffic.
pub struct Input {
    service_tenants: Vec<TenantSpec>,
    service: ServiceConfig,
    fleet_tenants: Vec<TenantSpec>,
    fleet: FleetConfig,
}

/// Both simulations' summaries.
pub struct Output {
    service: ServiceSummary,
    fleet: FleetSummary,
}

impl Output {
    fn summaries(&self) -> [&ServiceSummary; 2] {
        [&self.service, &self.fleet.fleet]
    }
}

/// State of the `service_overload` workload.
pub struct ServiceOverload {
    seed: u64,
    scale: Scale,
    catalog: PlanCatalog,
    policies: Vec<TenantPolicy>,
    chaos: ShardFaultPlan,
}

impl ServiceOverload {
    /// Virtual length of the service and fleet runs (ns).
    fn durations_ns(&self) -> (u64, u64) {
        match self.scale {
            Scale::Full => (30_000_000, 3_000_000),
            Scale::Smoke => (2_000_000, 1_000_000),
        }
    }

    /// The soak tenant mix: 70% interactive Poisson traffic with a tight
    /// deadline, 30% bursty traffic with a looser one.
    fn tenants(&self, rate_per_s: f64, seeds: (u64, u64)) -> Vec<TenantSpec> {
        let deadline_us = (4.0 * self.catalog.mean_service_us(QualityTier::Full)) as u64;
        vec![
            TenantSpec {
                label: "interactive",
                process: ArrivalProcess {
                    kind: ArrivalKind::Poisson,
                    rate_per_s: rate_per_s * 0.7,
                    seed: seeds.0,
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
                    seed: seeds.1,
                },
                deadline_us: deadline_us * 2,
            },
        ]
    }
}

/// Requests are conserved: each offered one ends on time, late, shed,
/// abandoned after faults, or unsolved.
fn conserved(s: &ServiceSummary) -> bool {
    s.offered == s.on_time + s.late + s.shed() + s.failed_faults + s.unsolved
}

impl Workload for ServiceOverload {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "service_overload";
    const TAIL_OF_CALLS: bool = true;

    fn setup(seed: u64, scale: Scale, _probe: Option<&Probe>) -> ServiceOverload {
        let (scenes, queries) = match scale {
            Scale::Full => (10, 10),
            Scale::Smoke => (2, 2),
        };
        let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(scenes).collect();
        let catalog = PlanCatalog::build(
            &RobotModel::jaco2(),
            &scenes,
            queries,
            CATALOG_SEED,
            &ThreadPool::new(1),
        )
        .expect("the benchmark scenes always yield a catalog");
        let mut w = ServiceOverload {
            seed,
            scale,
            catalog,
            policies: vec![
                TenantPolicy {
                    weight: 4,
                    ..TenantPolicy::default()
                },
                TenantPolicy {
                    weight: 2,
                    ..TenantPolicy::default()
                },
            ],
            chaos: ShardFaultPlan::none(0),
        };
        let d = w.durations_ns().1;
        w.chaos = ShardFaultPlan::scripted(
            0,
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
        );
        w
    }

    fn chunk(&self) -> usize {
        match self.scale {
            Scale::Full => 100,
            Scale::Smoke => 4,
        }
    }

    fn warmup(&self) -> u64 {
        match self.scale {
            Scale::Full => 20,
            Scale::Smoke => 2,
        }
    }

    fn det_ops(&self) -> u64 {
        match self.scale {
            Scale::Full => 1000,
            Scale::Smoke => 6,
        }
    }

    fn inputs(&mut self, start: u64, n: usize) -> Vec<Input> {
        let service_rate = LOAD * self.catalog.saturating_rate_per_s(SERVICE_INSTANCES);
        let fleet_rate = LOAD
            * self
                .catalog
                .saturating_rate_per_s(SHARDS * INSTANCES_PER_SHARD);
        (start..start + n as u64)
            .map(|i| {
                let s = |stream| derive(self.seed, stream, i);
                Input {
                    service_tenants: self.tenants(service_rate, (s(51), s(52))),
                    service: ServiceConfig {
                        instances: SERVICE_INSTANCES,
                        faults: FaultProfile::with_lemon(1e-2, 0, 10.0),
                        integrity: IntegrityConfig::full(),
                        seed: s(53),
                        ..ServiceConfig::default()
                    },
                    fleet_tenants: self.tenants(fleet_rate, (s(54), s(55))),
                    fleet: FleetConfig {
                        shards: SHARDS,
                        shard: ServiceConfig {
                            instances: INSTANCES_PER_SHARD,
                            ..ServiceConfig::default()
                        },
                        seed: s(56),
                        ..FleetConfig::default()
                    },
                }
            })
            .collect()
    }

    fn run(&mut self, _op: u64, input: &Input, probe: Option<&Probe>) -> Output {
        let (ds, df) = self.durations_ns();
        let service = || run_service(&self.catalog, &input.service_tenants, ds, &input.service);
        let fleet = || {
            run_fleet(
                &self.catalog,
                &input.fleet_tenants,
                &self.policies,
                df,
                &input.fleet,
                &self.chaos,
            )
        };
        match probe {
            Some(p) => Output {
                service: p.time(Layer::Service, service),
                fleet: p.time(Layer::Fleet, fleet),
            },
            None => Output {
                service: service(),
                fleet: fleet(),
            },
        }
    }

    fn work(out: &Output) -> u64 {
        out.summaries().iter().map(|s| s.offered).sum()
    }

    fn check(&mut self, _input: &Input, out: &Output, _thorough: bool) -> Result<(), String> {
        for (name, s) in ["service", "fleet"].iter().zip(out.summaries()) {
            if !conserved(s) {
                return Err(format!(
                    "{name} summary does not conserve requests: offered {} != on-time {} + late {} + shed {} + failed {} + unsolved {}",
                    s.offered, s.on_time, s.late, s.shed(), s.failed_faults, s.unsolved
                ));
            }
        }
        Ok(())
    }

    fn account(&mut self, _in: &Input, out: &Output, det: &mut Det) -> Result<(), String> {
        det.ops += 1;
        let mut latencies_us = Vec::new();
        for s in out.summaries() {
            det.attempts += s.offered;
            det.ok += s.on_time;
            det.plans += s.completed();
            det.plan_energy_pj += s.energy_pj + s.wasted_energy_pj;
            det.work += s.offered;
            det.work_energy_pj += s.energy_pj + s.wasted_energy_pj;
            let samples = s.latency_histogram().samples();
            det.modeled_sum_us += samples.iter().map(|&ns| ns as f64 / 1e3).sum::<f64>();
            det.modeled_n += samples.len() as u64;
            latencies_us.extend(samples.iter().map(|&ns| ns as f64 / 1e3));
            det.count("sim_requests", s.offered);
            det.count("on_time", s.on_time);
            det.count("shed", s.shed());
            digest_summary(&mut det.digest, s);
        }
        latencies_us.sort_by(f64::total_cmp);
        det.tail_us.push(percentile(&latencies_us, 0.99));
        let f = &out.fleet;
        for v in [f.rerouted, f.lost_to_shards, f.hedges_fired, f.hedge_wins] {
            det.digest.u64(v);
        }
        Ok(())
    }

    fn layer_account(&mut self, _op: u64, _in: &Input, out: &Output, sums: &mut LayerValues) {
        add(sums, "service_offered", out.service.offered as f64);
        add(sums, "fleet_offered", out.fleet.fleet.offered as f64);
        for s in out.summaries() {
            add(sums, "offered", s.offered as f64);
            add(sums, "shed", s.shed() as f64);
            add(sums, "retries", s.retries as f64);
            add(sums, "quarantines", s.quarantines as f64);
            add(sums, "utilization", s.utilization());
            add(sums, "energy", s.energy_pj);
            add(sums, "wasted", s.wasted_energy_pj);
            add(
                sums,
                "full_tier",
                s.tier_served[QualityTier::Full.index()] as f64,
            );
            add(sums, "completed", s.completed() as f64);
        }
    }

    fn layer_finish(&mut self, rec: &Recorded, sums: &LayerValues, det: &Det) -> LayerValues {
        let get = |k: &str| sums.get(k).copied().unwrap_or(0.0);
        let ops = det.ops.max(1) as f64;
        let mut v = LayerValues::new();
        v.insert(
            "service.run_ns_per_req",
            ratio(
                rec.totals_ns[Layer::Service as usize] as f64,
                get("service_offered"),
            ),
        );
        v.insert(
            "service.fleet_ns_per_req",
            ratio(
                rec.totals_ns[Layer::Fleet as usize] as f64,
                get("fleet_offered"),
            ),
        );
        v.insert("service.offered", get("offered") / ops);
        v.insert("service.shed_frac", ratio(get("shed"), get("offered")));
        v.insert("service.retries", get("retries") / ops);
        v.insert("service.quarantines", get("quarantines") / ops);
        v.insert("service.utilization", get("utilization") / (2.0 * ops));
        v.insert(
            "service.wasted_energy_frac",
            ratio(get("wasted"), get("energy") + get("wasted")),
        );
        v.insert(
            "service.tier_full_frac",
            ratio(get("full_tier"), get("completed")),
        );
        v
    }
}

fn digest_summary(h: &mut Fnv, s: &ServiceSummary) {
    for v in [
        s.offered,
        s.on_time,
        s.late,
        s.shed_queue_full,
        s.shed_hopeless,
        s.shed_throttled,
        s.shed_shard_lost,
        s.failed_faults,
        s.unsolved,
        s.retries,
        s.tier_stepdowns,
        s.quarantines,
        s.busy_ns,
    ] {
        h.u64(v);
    }
    h.f64(s.energy_pj);
    h.f64(s.wasted_energy_pj);
    for &ns in s.latency_histogram().samples() {
        h.u64(ns);
    }
}
