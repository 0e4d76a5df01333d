//! Fault-injection resilience campaign (robustness study; not a paper
//! figure). Sweeps a per-event fault rate across every fault kind of
//! [`mp_sim::fault::FaultKind`] against the recovery modes of
//! [`mpaccel_core::fault::RecoveryMode`], replaying the benchmark CD
//! batches through a [`FaultTolerantCduArray`] under Complete-mode SAS.
//!
//! Reported per sweep point: verdict accuracy against a clean reference
//! run, latency and energy degradation relative to the same mode at rate
//! zero, and the safety metric — wrong-free verdicts (false negatives),
//! which must be zero whenever detection is enabled.

use mp_robot::RobotModel;
use mp_sim::fault::{FaultPlan, ResilienceCounters};
use mp_sim::{CecduConfig, IuKind};
use mpaccel_core::cecdu::CecduSim;
use mpaccel_core::fault::{FaultTolerantCduArray, RecoveryMode};
use mpaccel_core::sas::{run_sas, FunctionMode, SasConfig};

use crate::experiments::common::SasAggregate;
use crate::report::{f3, Report};
use crate::workloads::{BenchWorkload, Scale};

/// Per-event fault rates swept by the campaign (applied uniformly to all
/// fault kinds; rate 0 is the clean baseline).
pub const FAULT_RATES: [f64; 4] = [0.0, 1e-3, 5e-3, 2e-2];

/// Recovery modes compared at every rate.
pub const MODES: [RecoveryMode; 3] = [
    RecoveryMode::None,
    RecoveryMode::DetectRetry,
    RecoveryMode::DetectRetryVoter,
];

/// CECDUs in the fault-tolerant array (and SAS `num_cdus`).
pub const NUM_UNITS: usize = 4;

/// One sweep point: a (fault rate, recovery mode) pair's aggregate SAS
/// result and resilience counters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPoint {
    /// Per-event fault rate applied to every fault kind.
    pub rate: f64,
    /// Recovery mode in force.
    pub mode: RecoveryMode,
    /// Scheduler-side aggregate (cycles, queries, ops).
    pub agg: SasAggregate,
    /// Resilience counters summed over all replayed batches.
    pub counters: ResilienceCounters,
}

impl FaultPoint {
    /// Fraction of pose verdicts that matched the clean reference run.
    pub fn verdict_accuracy(&self) -> f64 {
        let q = self.counters.queries.max(1) as f64;
        let wrong = (self.counters.false_positives + self.counters.false_negatives) as f64;
        1.0 - wrong / q
    }
}

/// Runs the campaign: every rate x every mode over the same seeded batch
/// set. Deterministic given a scale.
pub fn data(scale: Scale) -> Vec<FaultPoint> {
    let w = BenchWorkload::cached(RobotModel::jaco2(), scale);
    let max_batches = match scale {
        Scale::Quick => 6,
        Scale::Full => 48,
    };
    let limit = max_batches.min(w.batches.len());
    let sas = SasConfig::mcsp(NUM_UNITS);
    let mut points = Vec::new();
    for (mi, &mode) in MODES.iter().enumerate() {
        for (ri, &rate) in FAULT_RATES.iter().enumerate() {
            let mut agg = SasAggregate::default();
            let mut counters = ResilienceCounters::default();
            for (bi, batch) in w.batches[..limit].iter().enumerate() {
                let sim = CecduSim::new(
                    w.robot.clone(),
                    w.octree(batch.scene),
                    CecduConfig::new(4, IuKind::MultiCycle),
                );
                // Seed depends only on the sweep coordinates, so repeated
                // campaigns are bit-identical.
                let seed = 0xFA17_0000 ^ ((mi as u64) << 32) ^ ((ri as u64) << 16) ^ (bi as u64);
                let mut array = FaultTolerantCduArray::new(
                    sim,
                    NUM_UNITS,
                    FaultPlan::uniform(rate, seed),
                    mode,
                );
                // Complete mode isolates resilience effects from
                // function-mode early stops: every motion's verdict is
                // resolved, so accuracy is measured over the full batch.
                let r = run_sas(&batch.motions, FunctionMode::Complete, &sas, &mut array);
                agg.cycles += r.cycles;
                agg.queries += r.queries;
                agg.ops += r.ops;
                counters.merge(array.counters());
            }
            points.push(FaultPoint {
                rate,
                mode,
                agg,
                counters,
            });
        }
    }
    points
}

/// Renders the campaign as a degradation table: latency and energy are
/// normalized to the same recovery mode at fault rate zero.
pub fn run(scale: Scale) -> Report {
    let d = data(scale);
    let mut r = Report::new("Fault-injection campaign: rate x recovery-mode sweep");
    r.note("latency/energy = per-query cycles/mults vs the same mode at rate 0");
    r.note(
        "(per query: conservative collision verdicts prune whole motions, so totals can shrink)",
    );
    r.note("safety invariant: FN (wrong-free verdicts) must be 0 whenever detection is on");
    r.columns(&[
        "rate", "mode", "accuracy", "latency", "energy", "injected", "detected", "escaped", "FN",
    ]);
    let per_query = |a: &SasAggregate, v: u64| v as f64 / a.queries.max(1) as f64;
    for p in &d {
        let base = d
            .iter()
            .find(|b| b.mode == p.mode && b.rate == 0.0)
            .expect("rate 0 is part of the sweep");
        r.row(&[
            format!("{:.0e}", p.rate),
            p.mode.label().to_string(),
            f3(p.verdict_accuracy()),
            f3(per_query(&p.agg, p.agg.cycles) / per_query(&base.agg, base.agg.cycles).max(1e-12)),
            f3(per_query(&p.agg, p.agg.ops.mults)
                / per_query(&base.agg, base.agg.ops.mults).max(1e-12)),
            p.counters.injected_total().to_string(),
            p.counters.detected.to_string(),
            p.counters.escaped.to_string(),
            p.counters.false_negatives.to_string(),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign() -> Vec<FaultPoint> {
        data(Scale::Quick)
    }

    #[test]
    fn detection_modes_never_deliver_a_wrong_free_verdict() {
        for p in campaign() {
            if p.mode.detection() {
                assert_eq!(
                    p.counters.false_negatives,
                    0,
                    "FN at rate {} mode {}",
                    p.rate,
                    p.mode.label()
                );
                assert_eq!(
                    p.counters.escaped,
                    0,
                    "escape at rate {} mode {}",
                    p.rate,
                    p.mode.label()
                );
            }
        }
    }

    #[test]
    fn no_recovery_mode_lets_faults_escape_at_high_rates() {
        let d = campaign();
        let worst = d
            .iter()
            .find(|p| p.mode == RecoveryMode::None && p.rate == FAULT_RATES[3])
            .unwrap();
        assert!(worst.counters.injected_total() > 0);
        assert!(
            worst.counters.escaped > 0,
            "expected escapes without detection at rate {}",
            worst.rate
        );
        assert_eq!(worst.counters.redispatches, 0);
    }

    #[test]
    fn recovery_counters_are_exercised() {
        let d = campaign();
        let retry = d
            .iter()
            .find(|p| p.mode == RecoveryMode::DetectRetry && p.rate == FAULT_RATES[3])
            .unwrap();
        assert!(retry.counters.injected_total() > 0);
        assert!(retry.counters.detected > 0);
        assert!(retry.counters.redispatches > 0);
        // Retries cost latency and energy *per query*: total work can
        // shrink because conservative collision verdicts prune the rest of
        // a motion, so compare per-query averages, not totals.
        let base = d
            .iter()
            .find(|p| p.mode == RecoveryMode::DetectRetry && p.rate == 0.0)
            .unwrap();
        assert!(
            retry.agg.cycles * base.agg.queries > base.agg.cycles * retry.agg.queries,
            "per-query latency should rise under retries"
        );
        assert!(
            retry.agg.ops.mults * base.agg.queries > base.agg.ops.mults * retry.agg.queries,
            "per-query energy should rise under retries"
        );
        // The voter spot-checks free verdicts when enabled.
        let voter = d
            .iter()
            .find(|p| p.mode == RecoveryMode::DetectRetryVoter && p.rate == FAULT_RATES[3])
            .unwrap();
        assert!(voter.counters.oracle_checks > 0);
    }

    #[test]
    fn clean_baseline_is_fault_free() {
        for p in campaign() {
            if p.rate == 0.0 {
                assert_eq!(p.counters.injected_total(), 0);
                assert_eq!(p.counters.false_negatives, 0);
                assert_eq!(p.counters.false_positives, 0);
                assert!(p.counters.queries > 0);
            }
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        assert_eq!(campaign(), campaign());
    }

    #[test]
    fn report_covers_the_whole_sweep() {
        let text = run(Scale::Quick).to_string();
        for mode in MODES {
            assert!(text.contains(mode.label()), "missing {}", mode.label());
        }
        assert!(text.contains("2e-2") || text.contains("2e-02"));
    }
}
