//! Fig 1b: the motivating comparison — speedup and computation for
//! sequential, small-scale parallel, large-scale parallel, and MPAccel
//! execution on the accelerator hardware.

use mp_robot::RobotModel;
use mp_sim::{CecduConfig, IuKind};
use mpaccel_core::sas::SasConfig;

use crate::experiments::common::{replay_memo, CduKind, ReplayMemo, SasAggregate};
use crate::report::{f2, Report};
use crate::workloads::{BenchWorkload, Scale};

/// The four execution modes of Fig 1b.
pub fn modes() -> Vec<(&'static str, SasConfig)> {
    vec![
        ("Sequential", SasConfig::sequential()),
        ("Parallel (small)", SasConfig::naive_parallel(8)),
        ("Parallel (large)", SasConfig::naive_parallel(64)),
        ("MPAccel", SasConfig::mcsp(16)),
    ]
}

/// Raw data: `(mode, aggregate)`.
pub fn data(scale: Scale) -> Vec<(&'static str, SasAggregate)> {
    let w = BenchWorkload::cached(RobotModel::jaco2(), scale);
    let cdu = CduKind::Cecdu(CecduConfig::new(4, IuKind::MultiCycle));
    // Full scale caps the replay at a statistically ample batch count:
    // unbounded replay of ~30k batches x every configuration would take
    // hours without changing the aggregates.
    let max_batches = match scale {
        Scale::Quick => 24,
        Scale::Full => 300,
    };
    // The four modes replay the same batches: share pose responses.
    let mut memo = ReplayMemo::new(cdu);
    modes()
        .into_iter()
        .map(|(name, cfg)| (name, replay_memo(&w, &cfg, max_batches, None, &mut memo)))
        .collect()
}

/// Renders Fig 1b.
pub fn run(scale: Scale) -> Report {
    let d = data(scale);
    let seq = d[0].1;
    let mut r =
        Report::new("Figure 1b: speedup and computation of execution modes on ASIC hardware");
    r.note("paper: large-scale naive parallelism buys speedup at ~3.4x computation; MPAccel keeps computation near 1x");
    r.columns(&["mode", "speedup", "computation (norm)"]);
    for (name, a) in &d {
        r.row(&[
            name.to_string(),
            f2(a.speedup_vs(&seq)),
            f2(a.energy_vs(&seq)),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1b_shape() {
        let d = data(Scale::Quick);
        let seq = d[0].1;
        let small = d[1].1;
        let large = d[2].1;
        let mpaccel = d[3].1;
        // Parallelism gives speedup, at growing computation cost.
        assert!(small.speedup_vs(&seq) > 1.5);
        assert!(large.speedup_vs(&seq) >= small.speedup_vs(&seq));
        assert!(large.energy_vs(&seq) > small.energy_vs(&seq));
        // MPAccel: speedup comparable to large-parallel, computation near 1.
        assert!(mpaccel.speedup_vs(&seq) > small.speedup_vs(&seq));
        // 0.85: the quick workload's batches are small enough that naive
        // large-scale parallelism wastes less than the paper's 3.4x, which
        // compresses the gap MPAccel can show.
        assert!(mpaccel.energy_vs(&seq) < large.energy_vs(&seq) * 0.85);
        assert!(mpaccel.energy_vs(&seq) < 1.4);
    }
}
