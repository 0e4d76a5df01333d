//! Service-level metrics: goodput, deadline-miss rate, exact latency
//! percentiles, tier mix, and the resilience counters.

use mp_planner::QualityTier;
use mp_sim::fault::ResilienceCounters;
use mp_sim::vtime::VirtualNs;
use mp_telemetry::{HistSnapshot, Registry};

use crate::integrity::IntegrityStats;

/// Sorts served-request latencies into a histogram (sorted samples keep
/// its percentile queries copy-free).
fn latency_hist(mut latencies_ns: Vec<VirtualNs>) -> HistSnapshot {
    latencies_ns.sort_unstable();
    HistSnapshot::from_samples(latencies_ns)
}

/// The aggregate outcome of one service run.
#[derive(Clone, Debug, Default)]
pub struct ServiceSummary {
    /// Length of the arrival window (virtual ns). Completions may land
    /// after it (the run drains), but rates are per arrival-window second.
    pub duration_ns: VirtualNs,
    /// Instances in the pool.
    pub instances: usize,
    /// Requests offered by all tenants.
    pub offered: u64,
    /// Served with a plan before the deadline (the goodput numerator).
    pub on_time: u64,
    /// Served with a plan after the deadline.
    pub late: u64,
    /// Shed on arrival: bounded queue full.
    pub shed_queue_full: u64,
    /// Shed at dispatch: no tier could meet the deadline.
    pub shed_hopeless: u64,
    /// Shed by per-tenant token-bucket admission (fleet runs only).
    pub shed_throttled: u64,
    /// Lost to a shard death with failover off or exhausted (fleet runs
    /// only).
    pub shed_shard_lost: u64,
    /// Abandoned after the fault-retry budget ran out.
    pub failed_faults: u64,
    /// Every allowed tier exhausted its budget without a path.
    pub unsolved: u64,
    /// Fault-triggered re-dispatches (retry-with-backoff).
    pub retries: u64,
    /// Ladder step-downs after a tier ran to budget exhaustion.
    pub tier_stepdowns: u64,
    /// Circuit-breaker quarantine episodes.
    pub quarantines: u64,
    /// Completions (on-time + late) by serving tier.
    pub tier_served: [u64; QualityTier::COUNT],
    /// Dynamic CD datapath energy spent by the *winning* attempt of each
    /// completed request (pJ), from the plan catalog's counter-delta
    /// attribution. Non-winning attempts (faulted dispatches, tier
    /// step-downs, certify-rejected replans, losing hedge copies) land in
    /// `wasted_energy_pj` instead.
    pub energy_pj: f64,
    /// Energy spent by serving tier (pJ); sums to `energy_pj`.
    pub tier_energy_pj: [f64; QualityTier::COUNT],
    /// Energy spent on work whose result was discarded (pJ): fault-retry
    /// attempts that were re-dispatched, and hedge copies that lost the
    /// race (fleet runs only). Counted *in addition to* `energy_pj`.
    pub wasted_energy_pj: f64,
    /// Energy the ladder avoided by serving below full quality (pJ):
    /// Σ over degraded completions of (what the same key costs at the
    /// full tier − what the serving tier spent). The degradation story
    /// in joules.
    pub degraded_saved_pj: f64,
    /// Total busy time across the pool (ns).
    pub busy_ns: u64,
    /// Merged fault-injection / recovery counters.
    pub resilience: ResilienceCounters,
    /// Integrity-pipeline counters (SDC injection/escape, certification,
    /// voting, scrub) and the certification-cost histogram.
    pub integrity: IntegrityStats,
    /// Arrival-to-completion latencies of served requests (ns), stored as
    /// a telemetry histogram (raw samples kept sorted, so percentiles stay
    /// exact nearest-rank).
    latency_hist: HistSnapshot,
}

impl ServiceSummary {
    /// An empty summary for a run of the given shape.
    pub fn for_run(duration_ns: VirtualNs, instances: usize, offered: u64) -> ServiceSummary {
        ServiceSummary {
            duration_ns,
            instances,
            offered,
            ..ServiceSummary::default()
        }
    }

    /// Stores and sorts the served-request latencies.
    pub fn set_latencies(&mut self, latencies_ns: Vec<VirtualNs>) {
        self.latency_hist = latency_hist(latencies_ns);
    }

    /// The served-latency distribution (ns).
    pub fn latency_histogram(&self) -> &HistSnapshot {
        &self.latency_hist
    }

    /// Requests served with a plan (on time or late).
    pub fn completed(&self) -> u64 {
        self.on_time + self.late
    }

    /// On-time completions per arrival-window second.
    pub fn goodput_rps(&self) -> f64 {
        self.on_time as f64 / (self.duration_ns as f64 * 1e-9).max(1e-12)
    }

    /// Fraction of offered requests that did not complete on time (late,
    /// shed, failed, or unsolved).
    pub fn miss_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        1.0 - self.on_time as f64 / self.offered as f64
    }

    /// Exact nearest-rank percentile of served latency, in µs (`q` in
    /// `0..=1`). `None` when nothing was served.
    pub fn latency_percentile_us(&self, q: f64) -> Option<f64> {
        self.latency_hist
            .percentile(q)
            .map(|ns| ns as f64 / 1_000.0)
    }

    /// Median served latency (µs); 0 when nothing was served.
    pub fn p50_us(&self) -> f64 {
        self.latency_percentile_us(0.50).unwrap_or(0.0)
    }

    /// 99th-percentile served latency (µs); 0 when nothing was served.
    pub fn p99_us(&self) -> f64 {
        self.latency_percentile_us(0.99).unwrap_or(0.0)
    }

    /// 99.9th-percentile served latency (µs); 0 when nothing was served.
    pub fn p999_us(&self) -> f64 {
        self.latency_percentile_us(0.999).unwrap_or(0.0)
    }

    /// Pool utilization over the arrival window (busy time / capacity;
    /// can exceed 1 when the run drains a backlog past the window).
    pub fn utilization(&self) -> f64 {
        self.busy_ns as f64 / (self.duration_ns as f64 * self.instances.max(1) as f64).max(1.0)
    }

    /// Compact `full/reduced/fallback/coarse` tier-mix cell.
    pub fn tier_mix(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.tier_served[0], self.tier_served[1], self.tier_served[2], self.tier_served[3]
        )
    }

    /// Total shed requests.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_hopeless + self.shed_throttled + self.shed_shard_lost
    }

    /// Mean dynamic CD energy per completed request (pJ); 0 when nothing
    /// completed. Retried attempts are billed to the request, so this is
    /// joules-per-delivered-plan, not joules-per-attempt.
    pub fn energy_per_plan_pj(&self) -> f64 {
        if self.completed() == 0 {
            return 0.0;
        }
        self.energy_pj / self.completed() as f64
    }

    /// Fraction of all energy spent (useful + wasted) that produced no
    /// delivered plan; 0 when no energy was spent.
    pub fn wasted_energy_frac(&self) -> f64 {
        let total = self.energy_pj + self.wasted_energy_pj;
        if total <= 0.0 {
            return 0.0;
        }
        self.wasted_energy_pj / total
    }

    /// Average power the planning datapath drew over the arrival window
    /// (µW): total energy (useful + wasted) over virtual wall time. pJ/µs
    /// is exactly µW, so this is `Σ pJ / (duration in µs)`.
    pub fn mean_power_uw(&self) -> f64 {
        let duration_us = self.duration_ns as f64 / 1_000.0;
        (self.energy_pj + self.wasted_energy_pj) / duration_us.max(1e-12)
    }

    /// Exports the whole summary — counts, rates, the latency histogram,
    /// and the merged resilience counters — into a telemetry registry
    /// under `<prefix>.<field>` names.
    pub fn export_into(&self, prefix: &str, registry: &Registry) {
        registry.set_counter(&format!("{prefix}.offered"), self.offered);
        registry.set_counter(&format!("{prefix}.on_time"), self.on_time);
        registry.set_counter(&format!("{prefix}.late"), self.late);
        registry.set_counter(&format!("{prefix}.shed_queue_full"), self.shed_queue_full);
        registry.set_counter(&format!("{prefix}.shed_hopeless"), self.shed_hopeless);
        registry.set_counter(&format!("{prefix}.shed_throttled"), self.shed_throttled);
        registry.set_counter(&format!("{prefix}.shed_shard_lost"), self.shed_shard_lost);
        registry.set_counter(&format!("{prefix}.failed_faults"), self.failed_faults);
        registry.set_counter(&format!("{prefix}.unsolved"), self.unsolved);
        registry.set_counter(&format!("{prefix}.retries"), self.retries);
        registry.set_counter(&format!("{prefix}.tier_stepdowns"), self.tier_stepdowns);
        registry.set_counter(&format!("{prefix}.quarantines"), self.quarantines);
        for tier in QualityTier::LADDER {
            registry.set_counter(
                &format!("{prefix}.served.{}", tier.label()),
                self.tier_served[tier.index()],
            );
        }
        registry.set_counter(&format!("{prefix}.busy_ns"), self.busy_ns);
        registry.set_gauge(&format!("{prefix}.energy_pj"), self.energy_pj);
        for tier in QualityTier::LADDER {
            registry.set_gauge(
                &format!("{prefix}.energy_pj.{}", tier.label()),
                self.tier_energy_pj[tier.index()],
            );
        }
        registry.set_gauge(
            &format!("{prefix}.energy_per_plan_pj"),
            self.energy_per_plan_pj(),
        );
        registry.set_gauge(&format!("{prefix}.wasted_energy_pj"), self.wasted_energy_pj);
        registry.set_gauge(
            &format!("{prefix}.degraded_saved_pj"),
            self.degraded_saved_pj,
        );
        registry.set_gauge(&format!("{prefix}.mean_power_uw"), self.mean_power_uw());
        registry.set_gauge(&format!("{prefix}.goodput_rps"), self.goodput_rps());
        registry.set_gauge(&format!("{prefix}.miss_rate"), self.miss_rate());
        registry.set_gauge(&format!("{prefix}.utilization"), self.utilization());
        registry.observe_hist(&format!("{prefix}.latency_ns"), &self.latency_hist);
        self.resilience
            .export_into(&format!("{prefix}.resilience"), registry);
        self.integrity
            .export_into(&format!("{prefix}.integrity"), registry);
    }

    /// Unsafe-plan escape rate: silently corrupted plans shipped per
    /// completed request.
    pub fn escape_rate(&self) -> f64 {
        self.integrity.escape_rate(self.completed())
    }

    /// Mean certification overhead per completed request (µs).
    pub fn certify_overhead_us(&self) -> f64 {
        if self.completed() == 0 {
            return 0.0;
        }
        self.integrity.certify_ns as f64 / 1_000.0 / self.completed() as f64
    }
}

/// Per-shard outcome of a fleet run. `offered` counts enqueued request
/// *copies* (retries, failovers, and hedges land on a shard again), so the
/// shard columns can sum to more than the fleet's offered requests.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Request copies enqueued on this shard.
    pub offered: u64,
    /// Completions (on-time + late) this shard produced.
    pub served: u64,
    /// On-time completions this shard produced.
    pub on_time: u64,
    /// Copies shed while assigned here (queue full / hopeless / lost).
    pub sheds: u64,
    /// Crash episodes this shard suffered.
    pub kills: u32,
    /// Busy time across the shard's instances (ns), summed across crash
    /// epochs.
    pub busy_ns: u64,
    /// Dynamic CD energy this shard's completions spent (pJ), including
    /// hedge copies that lost (the shard did the work either way).
    pub energy_pj: f64,
    /// Circuit-breaker quarantines on this shard's instances.
    pub quarantines: u64,
    /// Latencies of requests this shard completed (ns).
    latency_hist: HistSnapshot,
}

impl ShardStats {
    /// Stores and sorts this shard's served-request latencies.
    pub fn set_latencies(&mut self, latencies_ns: Vec<VirtualNs>) {
        self.latency_hist = latency_hist(latencies_ns);
    }

    /// 99.9th-percentile latency this shard served (µs); 0 when idle.
    pub fn p999_us(&self) -> f64 {
        self.latency_hist
            .percentile(0.999)
            .map(|ns| ns as f64 / 1_000.0)
            .unwrap_or(0.0)
    }
}

/// Per-tenant outcome of a fleet run (each request belongs to exactly one
/// tenant, so tenant rows sum to the fleet totals).
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Tenant label from its [`crate::request::TenantSpec`].
    pub label: &'static str,
    /// Arrival-window length (ns), for rate denominators.
    pub duration_ns: VirtualNs,
    /// Requests this tenant offered.
    pub offered: u64,
    /// Served before the deadline.
    pub on_time: u64,
    /// Served after the deadline.
    pub late: u64,
    /// Shed (queue full, hopeless, or shard lost).
    pub shed: u64,
    /// Rejected by the tenant's token bucket.
    pub throttled: u64,
    /// Dynamic CD energy this tenant's completed requests spent (pJ) —
    /// the chargeback figure for per-tenant energy billing.
    pub energy_pj: f64,
    /// Latencies of this tenant's served requests (ns).
    latency_hist: HistSnapshot,
}

impl TenantStats {
    /// An empty breakdown for `label` over an arrival window.
    pub fn new(label: &'static str, duration_ns: VirtualNs) -> TenantStats {
        TenantStats {
            label,
            duration_ns,
            ..TenantStats::default()
        }
    }

    /// Stores and sorts this tenant's served-request latencies.
    pub fn set_latencies(&mut self, latencies_ns: Vec<VirtualNs>) {
        self.latency_hist = latency_hist(latencies_ns);
    }

    /// On-time completions per arrival-window second.
    pub fn goodput_rps(&self) -> f64 {
        self.on_time as f64 / (self.duration_ns as f64 * 1e-9).max(1e-12)
    }

    /// Fraction of offered requests that did not complete on time.
    pub fn miss_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        1.0 - self.on_time as f64 / self.offered as f64
    }

    /// 99.9th-percentile served latency (µs); 0 when nothing was served.
    pub fn p999_us(&self) -> f64 {
        self.latency_hist
            .percentile(0.999)
            .map(|ns| ns as f64 / 1_000.0)
            .unwrap_or(0.0)
    }

    /// Mean energy per completed request (pJ); 0 when nothing was served.
    pub fn energy_per_plan_pj(&self) -> f64 {
        let served = self.on_time + self.late;
        if served == 0 {
            return 0.0;
        }
        self.energy_pj / served as f64
    }
}

/// The outcome of one sharded-fleet run: fleet-wide aggregates (in the
/// same shape as a single-shard run) plus per-shard and per-tenant
/// breakdowns and the fleet-only robustness counters.
#[derive(Clone, Debug, Default)]
pub struct FleetSummary {
    /// Fleet-wide aggregates; `instances` is the total across shards.
    pub fleet: ServiceSummary,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Per-tenant breakdown, in tenant order.
    pub tenants: Vec<TenantStats>,
    /// Shard crash episodes that actually took a live shard down.
    pub shard_kills: u64,
    /// Request copies re-routed off a dead shard by failover.
    pub rerouted: u64,
    /// Requests lost to shard deaths (failover off or budget exhausted).
    pub lost_to_shards: u64,
    /// Hedge duplicates enqueued on a second shard.
    pub hedges_fired: u64,
    /// Requests whose winning completion came from the hedge shard.
    pub hedge_wins: u64,
    /// Hedge copies that completed after the request was already resolved.
    pub hedge_wasted: u64,
    /// Arrivals routed off their primary shard by the bounded-load rule.
    pub spills: u64,
}

impl FleetSummary {
    /// Cross-shard load imbalance: max over mean of per-shard offered
    /// copies (1.0 = perfectly even; 0 when nothing was offered).
    pub fn imbalance(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.offered).max().unwrap_or(0);
        let sum: u64 = self.shards.iter().map(|s| s.offered).sum();
        if sum == 0 || self.shards.is_empty() {
            return 0.0;
        }
        max as f64 * self.shards.len() as f64 / sum as f64
    }

    /// Exports fleet aggregates, robustness counters, and the per-shard /
    /// per-tenant breakdowns into a telemetry registry.
    pub fn export_into(&self, prefix: &str, registry: &Registry) {
        self.fleet.export_into(prefix, registry);
        registry.set_counter(&format!("{prefix}.shard_kills"), self.shard_kills);
        registry.set_counter(&format!("{prefix}.rerouted"), self.rerouted);
        registry.set_counter(&format!("{prefix}.lost_to_shards"), self.lost_to_shards);
        registry.set_counter(&format!("{prefix}.hedges_fired"), self.hedges_fired);
        registry.set_counter(&format!("{prefix}.hedge_wins"), self.hedge_wins);
        registry.set_counter(&format!("{prefix}.hedge_wasted"), self.hedge_wasted);
        registry.set_counter(&format!("{prefix}.spills"), self.spills);
        registry.set_gauge(&format!("{prefix}.imbalance"), self.imbalance());
        for (i, s) in self.shards.iter().enumerate() {
            let p = format!("{prefix}.shard.{i:02}");
            registry.set_counter(&format!("{p}.offered"), s.offered);
            registry.set_counter(&format!("{p}.on_time"), s.on_time);
            registry.set_counter(&format!("{p}.sheds"), s.sheds);
            registry.set_counter(&format!("{p}.kills"), s.kills as u64);
            registry.set_gauge(&format!("{p}.energy_pj"), s.energy_pj);
            registry.set_gauge(&format!("{p}.p999_us"), s.p999_us());
        }
        for t in &self.tenants {
            let p = format!("{prefix}.tenant.{}", t.label);
            registry.set_counter(&format!("{p}.offered"), t.offered);
            registry.set_counter(&format!("{p}.on_time"), t.on_time);
            registry.set_counter(&format!("{p}.throttled"), t.throttled);
            registry.set_gauge(&format!("{p}.energy_pj"), t.energy_pj);
            registry.set_gauge(&format!("{p}.energy_per_plan_pj"), t.energy_per_plan_pj());
            registry.set_gauge(&format!("{p}.goodput_rps"), t.goodput_rps());
            registry.set_gauge(&format!("{p}.miss_rate"), t.miss_rate());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut s = ServiceSummary {
            duration_ns: 1_000_000_000,
            offered: 100,
            on_time: 4,
            ..ServiceSummary::default()
        };
        s.set_latencies(vec![4_000, 1_000, 3_000, 2_000]);
        assert_eq!(s.latency_percentile_us(0.50), Some(2.0));
        assert_eq!(s.latency_percentile_us(0.99), Some(4.0));
        assert_eq!(s.latency_percentile_us(0.001), Some(1.0));
        assert_eq!(s.p50_us(), 2.0);
        assert_eq!(s.latency_histogram().count(), 4);
    }

    #[test]
    fn export_into_registry_round_trips() {
        let mut s = ServiceSummary {
            duration_ns: 1_000_000_000,
            offered: 10,
            on_time: 8,
            late: 1,
            ..ServiceSummary::default()
        };
        s.tier_served[0] = 9;
        s.energy_pj = 1_800.0;
        s.tier_energy_pj[0] = 1_800.0;
        s.set_latencies(vec![5_000; 9]);
        let r = Registry::new();
        s.export_into("service", &r);
        assert_eq!(r.counter_value("service.on_time"), Some(8));
        assert_eq!(r.gauge_value("service.energy_pj"), Some(1_800.0));
        assert_eq!(r.gauge_value("service.energy_pj.full"), Some(1_800.0));
        assert_eq!(r.gauge_value("service.energy_per_plan_pj"), Some(200.0));
        assert_eq!(r.counter_value("service.served.full"), Some(9));
        assert_eq!(r.gauge_value("service.goodput_rps"), Some(8.0));
        let h = r.histogram("service.latency_ns").unwrap();
        assert_eq!(h.count(), 9);
        assert_eq!(h.percentile(0.99), Some(5_000));
        assert_eq!(r.counter_value("service.resilience.queries"), Some(0));
        assert_eq!(r.counter_value("service.integrity.sdc_escaped"), Some(0));
    }

    #[test]
    fn integrity_rates_follow_the_counts() {
        let mut s = ServiceSummary {
            duration_ns: 1_000_000_000,
            offered: 100,
            on_time: 40,
            late: 10,
            ..ServiceSummary::default()
        };
        s.integrity.sdc_escaped = 5;
        s.integrity.certify_ns = 50_000_000;
        assert!((s.escape_rate() - 0.1).abs() < 1e-12);
        assert!((s.certify_overhead_us() - 1_000.0).abs() < 1e-9);
        assert_eq!(ServiceSummary::default().escape_rate(), 0.0);
        assert_eq!(ServiceSummary::default().certify_overhead_us(), 0.0);
    }

    #[test]
    fn rates_follow_the_counts() {
        let s = ServiceSummary {
            duration_ns: 500_000_000, // 0.5 s
            offered: 200,
            on_time: 150,
            late: 10,
            shed_queue_full: 30,
            shed_hopeless: 5,
            failed_faults: 3,
            unsolved: 2,
            instances: 2,
            busy_ns: 600_000_000,
            ..ServiceSummary::default()
        };
        assert_eq!(s.completed(), 160);
        assert_eq!(s.shed(), 35);
        assert!((s.goodput_rps() - 300.0).abs() < 1e-9);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.utilization() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn energy_rates_follow_the_counts() {
        let s = ServiceSummary {
            duration_ns: 2_000_000_000, // 2 s = 2e6 µs
            offered: 20,
            on_time: 8,
            late: 2,
            energy_pj: 4_000.0,
            wasted_energy_pj: 1_000.0,
            ..ServiceSummary::default()
        };
        assert!((s.energy_per_plan_pj() - 400.0).abs() < 1e-12);
        assert!((s.wasted_energy_frac() - 0.2).abs() < 1e-12);
        // 5 000 pJ over 2e6 µs = 2.5e-3 µW.
        assert!((s.mean_power_uw() - 2.5e-3).abs() < 1e-15);
        let empty = ServiceSummary::default();
        assert_eq!(empty.energy_per_plan_pj(), 0.0);
        assert_eq!(empty.wasted_energy_frac(), 0.0);
    }

    #[test]
    fn set_latencies_overwrites_previous_samples() {
        let mut s = ServiceSummary::default();
        s.set_latencies(vec![1_000]);
        s.set_latencies(vec![2_000, 3_000]);
        assert_eq!(s.latency_histogram().count(), 2);
        assert_eq!(s.latency_percentile_us(1.0), Some(3.0));
    }

    #[test]
    fn empty_run_is_well_defined() {
        let s = ServiceSummary::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.latency_percentile_us(0.5), None);
        assert_eq!(s.p999_us(), 0.0);
    }
}
