//! Fig 16: effect of the inter-motion group size on MCSP runtime and
//! energy (8 CDUs).

use mp_robot::RobotModel;
use mp_sim::{CecduConfig, IuKind};
use mpaccel_core::sas::SasConfig;

use crate::experiments::common::{replay_memo, CduKind, ReplayMemo, SasAggregate};
use crate::report::{f3, Report};
use crate::workloads::{BenchWorkload, Scale};

/// Group sizes swept in Fig 16.
pub const GROUP_SIZES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Raw sweep data: `(group_size, aggregate)`.
pub fn data(scale: Scale) -> Vec<(usize, SasAggregate)> {
    data_with(scale, false)
}

/// Like [`data`], optionally restricted to connectivity-test batches (the
/// shortcut pools where §7.1.1's "discardable motions get scheduled
/// anyway" energy effect lives).
pub fn data_with(scale: Scale, connectivity_only: bool) -> Vec<(usize, SasAggregate)> {
    let mut w = (*BenchWorkload::cached(RobotModel::jaco2(), scale)).clone();
    // Group size only matters for multi-motion batches (full-path
    // feasibility checks and shortcut pools); single-motion direct-connect
    // probes would dilute the sweep.
    w.batches.retain(|b| b.motions.len() >= 4);
    if connectivity_only {
        w.batches
            .retain(|b| b.mode == mpaccel_core::sas::FunctionMode::Connectivity);
    }
    let cdu = CduKind::Cecdu(CecduConfig::new(4, IuKind::MultiCycle));
    // Full scale caps the replay at a statistically ample batch count:
    // unbounded replay of ~30k batches x every configuration would take
    // hours without changing the aggregates.
    let max_batches = match scale {
        Scale::Quick => 16,
        Scale::Full => 300,
    };
    // Every group size replays the same batches: share pose responses.
    let mut memo = ReplayMemo::new(cdu);
    GROUP_SIZES
        .iter()
        .map(|&g| {
            let cfg = SasConfig::mcsp(8).with_group_size(g);
            (g, replay_memo(&w, &cfg, max_batches, None, &mut memo))
        })
        .collect()
}

/// Renders Fig 16 (runtime and energy normalized to the worst point, as in
/// the paper's normalized axes).
pub fn run(scale: Scale) -> Report {
    let d = data(scale);
    let max_cycles = d.iter().map(|(_, a)| a.cycles).max().unwrap_or(1) as f64;
    let max_queries = d.iter().map(|(_, a)| a.queries).max().unwrap_or(1) as f64;
    let mut r = Report::new("Figure 16: inter-motion group size sweep for MCSP (8 CDUs)");
    r.note("paper: runtime improves up to group size 16, then both runtime and energy degrade");
    r.columns(&["group size", "runtime (norm)", "energy (norm)"]);
    for (g, a) in &d {
        r.row(&[
            g.to_string(),
            f3(a.cycles as f64 / max_cycles),
            f3(a.queries as f64 / max_queries),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_size_sweep_shape() {
        let d = data(Scale::Quick);
        let get = |g: usize| d.iter().find(|(x, _)| *x == g).map(|(_, a)| *a).unwrap();
        // Group 1 (no inter-motion parallelism) is slower than group 16.
        assert!(
            get(1).cycles > get(16).cycles,
            "group1 {} vs group16 {}",
            get(1).cycles,
            get(16).cycles
        );
        // Large groups waste energy on connectivity batches: motions that
        // could have been discarded get scheduled anyway (§7.1.1).
        let conn = data_with(Scale::Quick, true);
        if conn[0].1.queries > 0 {
            let getc = |g: usize| conn.iter().find(|(x, _)| *x == g).map(|(_, a)| *a).unwrap();
            // Within 20%: the quick workload has only a handful of
            // connectivity pools, so the trend sits inside sampling noise.
            assert!(
                getc(64).queries * 10 >= getc(4).queries * 8,
                "connectivity energy at 64 ({}) should not undercut 4 ({})",
                getc(64).queries,
                getc(4).queries
            );
        }
    }

    #[test]
    fn report_lists_all_groups() {
        let text = run(Scale::Quick).to_string();
        for g in GROUP_SIZES {
            assert!(text.contains(&format!("\n  {:>10}", g)) || text.contains(&g.to_string()));
        }
    }
}
