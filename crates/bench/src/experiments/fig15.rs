//! Fig 15 (+ §7.1 headline numbers): scheduler comparison with the real
//! CECDU latency — MCSP vs NP vs CSP vs MP over the CDU count, with one
//! query dispatched per cycle.

use mp_robot::RobotModel;
use mp_sim::{CecduConfig, IuKind};
use mpaccel_core::sas::SasConfig;

use crate::experiments::common::{replay_memo, CduKind, ReplayMemo, SasAggregate};
use crate::report::{f2, pct_change, Report};
use crate::workloads::{BenchWorkload, Scale};

/// CDU counts swept in Fig 15.
pub const CDU_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The four schedulers compared in Fig 15.
pub fn schedulers(n: usize) -> Vec<(&'static str, SasConfig)> {
    vec![
        ("MCSP", SasConfig::mcsp(n)),
        ("NP", SasConfig::naive_parallel(n)),
        ("CSP", SasConfig::csp(n)),
        ("MP", SasConfig::inter_only(n)),
    ]
}

/// Raw Fig 15 data.
#[derive(Clone, Debug)]
pub struct Fig15Data {
    /// Sequential baseline (1 CDU, in-order).
    pub sequential: SasAggregate,
    /// `(scheduler, cdus, aggregate)`.
    pub points: Vec<(&'static str, usize, SasAggregate)>,
}

/// Runs the Fig 15 sweep with CECDUs (4 multi-cycle OOCDs) as CDUs.
pub fn data(scale: Scale) -> Fig15Data {
    let w = BenchWorkload::cached(RobotModel::jaco2(), scale);
    let cdu = CduKind::Cecdu(CecduConfig::new(4, IuKind::MultiCycle));
    // Full scale caps the replay at a statistically ample batch count:
    // unbounded replay of ~30k batches x every configuration would take
    // hours without changing the aggregates.
    let max_batches = match scale {
        Scale::Quick => 24,
        Scale::Full => 200,
    };
    // The 25 scheduler configurations replay the same batches; one memo
    // shares each pose's CECDU response across them (bit-identical
    // aggregates, each distinct pose simulated once).
    let batches: Vec<_> = w.batches.iter().take(max_batches).collect();
    let mut memo = ReplayMemo::new(cdu);
    let sequential = replay_memo(&w, &batches, &SasConfig::sequential(), None, &mut memo);
    let mut points = Vec::new();
    for &n in &CDU_COUNTS {
        for (name, cfg) in schedulers(n) {
            points.push((name, n, replay_memo(&w, &batches, &cfg, None, &mut memo)));
        }
    }
    Fig15Data { sequential, points }
}

/// Renders Fig 15 and prints the §7.1 comparison lines.
pub fn run(scale: Scale) -> Report {
    let d = data(scale);
    let mut r =
        Report::new("Figure 15: schedulers for coarse-grained parallelism (real CECDU latency)");
    r.note("cells: speedup over sequential (energy as #CD tests vs sequential)");
    let mut header = vec!["scheduler"];
    let labels: Vec<String> = CDU_COUNTS.iter().map(|n| format!("{n} CDUs")).collect();
    header.extend(labels.iter().map(String::as_str));
    r.columns(&header);
    for (name, _) in schedulers(1) {
        let mut cells = vec![name.to_string()];
        for &n in &CDU_COUNTS {
            let a = point(&d, name, n);
            cells.push(format!(
                "{} ({})",
                f2(a.speedup_vs(&d.sequential)),
                pct_change(a.energy_vs(&d.sequential))
            ));
        }
        r.row(&cells);
    }
    let m8 = point(&d, "MCSP", 8);
    let n8 = point(&d, "NP", 8);
    let m16 = point(&d, "MCSP", 16);
    let n16 = point(&d, "NP", 16);
    r.note(format!(
        "paper (§7.1, 8 CDUs): MCSP 7x @ +6% energy vs NP 3.7x @ +83%; measured: MCSP {}x @ {} vs NP {}x @ {}",
        f2(m8.speedup_vs(&d.sequential)),
        pct_change(m8.energy_vs(&d.sequential)),
        f2(n8.speedup_vs(&d.sequential)),
        pct_change(n8.energy_vs(&d.sequential)),
    ));
    r.note(format!(
        "paper (§7.1, 16 CDUs): MCSP 11.03x @ +22% vs NP 6.2x @ +113%; measured: MCSP {}x @ {} vs NP {}x @ {}",
        f2(m16.speedup_vs(&d.sequential)),
        pct_change(m16.energy_vs(&d.sequential)),
        f2(n16.speedup_vs(&d.sequential)),
        pct_change(n16.energy_vs(&d.sequential)),
    ));
    r
}

fn point(d: &Fig15Data, name: &str, n: usize) -> SasAggregate {
    d.points
        .iter()
        .find(|(p, c, _)| *p == name && *c == n)
        .map(|(_, _, a)| *a)
        .expect("point computed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_shapes() {
        let d = data(Scale::Quick);
        let m8 = point(&d, "MCSP", 8);
        let n8 = point(&d, "NP", 8);
        // MCSP beats NP on both axes at 8 CDUs (paper: 7x@+6% vs 3.7x@+83%).
        assert!(m8.speedup_vs(&d.sequential) > n8.speedup_vs(&d.sequential));
        assert!(m8.energy_vs(&d.sequential) < n8.energy_vs(&d.sequential));
        // MCSP-8 achieves a healthy speedup with small energy overhead.
        assert!(m8.speedup_vs(&d.sequential) > 3.0);
        assert!(m8.energy_vs(&d.sequential) < 1.35);
        // Speedup saturates: doubling 16 -> 32 CDUs falls clearly short of
        // a 2x gain (dispatch limit). The quick workload sits near 1.6, so
        // leave headroom for sampling noise in the planner-generated
        // batches.
        let m16 = point(&d, "MCSP", 16);
        let m32 = point(&d, "MCSP", 32);
        let gain = m32.speedup_vs(&d.sequential) / m16.speedup_vs(&d.sequential);
        assert!(gain < 1.75, "32-CDU gain over 16: {gain}");
    }

    #[test]
    fn report_mentions_paper_comparison() {
        let text = run(Scale::Quick).to_string();
        assert!(text.contains("paper (§7.1, 8 CDUs)"));
        assert!(text.contains("MCSP"));
    }
}
