//! Fig 7: the §3 limit study — speedup and normalized CD-test count for
//! every scheduling policy at 1–64 CDUs, with an ideal scheduler (full
//! dispatch each cycle) and 1-cycle CDUs.

use mp_robot::RobotModel;
use mpaccel_core::sas::{IntraPolicy, SasConfig};

use crate::experiments::common::{replay_memo, CduKind, ReplayMemo, SasAggregate};
use crate::report::{f2, Report};
use crate::workloads::{BenchWorkload, Scale};
use mpaccel_core::sas::FunctionMode;

/// The CDU counts swept in Fig 7.
pub const CDU_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The eight policies of Fig 7, in legend order.
pub fn policies(n: usize) -> Vec<(&'static str, SasConfig)> {
    let brp = SasConfig {
        intra: IntraPolicy::BinaryRecursive,
        ..SasConfig::csp(n)
    };
    let rnd = SasConfig {
        intra: IntraPolicy::Random { seed: 11 },
        ..SasConfig::csp(n)
    };
    vec![
        ("NP", SasConfig::naive_parallel(n)),
        ("RND", rnd),
        ("BRP", brp),
        ("CSP", SasConfig::csp(n)),
        ("MS", SasConfig::ms(n)),
        (
            "MNP",
            SasConfig {
                intra: IntraPolicy::InOrder,
                ..SasConfig::mcsp(n)
            },
        ),
        (
            "MBRP",
            SasConfig {
                intra: IntraPolicy::BinaryRecursive,
                ..SasConfig::mcsp(n)
            },
        ),
        ("MCSP", SasConfig::mcsp(n)),
    ]
}

/// Raw data of one limit-study run.
#[derive(Clone, Debug)]
pub struct Fig07Data {
    /// Sequential baseline.
    pub sequential: SasAggregate,
    /// `(policy, cdus, aggregate)` triples.
    pub points: Vec<(&'static str, usize, SasAggregate)>,
}

/// Runs the limit study.
pub fn data(scale: Scale) -> Fig07Data {
    let mut w = (*BenchWorkload::cached(RobotModel::jaco2(), scale)).clone();
    // Redundant work only materializes when motions collide part-way:
    // prefer multi-motion batches that contain at least one colliding
    // motion (the MPNet workload's coarse proposals before replanning),
    // as in the paper's limit-study traces.
    w.batches.retain(|b| b.motions.len() >= 2);
    // Full scale caps the replay at a statistically ample batch count:
    // unbounded replay of ~30k batches x every configuration would take
    // hours without changing the aggregates.
    let max_batches = match scale {
        Scale::Quick => 24,
        Scale::Full => 400,
    };
    // Complete-mode semantics: the limit study measures scheduling
    // redundancy per motion, independent of function-mode early stops.
    // All 57 configurations replay the same batches, so pose verdicts are
    // shared through one memo (bit-identical aggregates, ~1 CD evaluation
    // per distinct pose instead of ~57).
    let mut memo = ReplayMemo::new(CduKind::Ideal);
    let sequential = replay_memo(
        &w,
        &SasConfig::sequential().idealized(),
        max_batches,
        Some(FunctionMode::Complete),
        &mut memo,
    );
    let mut points = Vec::new();
    for &n in &CDU_COUNTS {
        for (name, cfg) in policies(n) {
            let agg = replay_memo(
                &w,
                &cfg.idealized(),
                max_batches,
                Some(FunctionMode::Complete),
                &mut memo,
            );
            points.push((name, n, agg));
        }
    }
    Fig07Data { sequential, points }
}

/// Renders the two panels of Fig 7 (speedup, normalized #CD tests).
pub fn run(scale: Scale) -> Report {
    let d = data(scale);
    let mut r = Report::new(
        "Figure 7: limit study — scheduling policies vs number of CDUs (ideal scheduler, 1-cycle CDU)",
    );
    r.note("top value: speedup over sequential; bottom value (in parens): #CD tests normalized to sequential");
    let mut header = vec!["policy"];
    let labels: Vec<String> = CDU_COUNTS.iter().map(|n| format!("{n} CDUs")).collect();
    header.extend(labels.iter().map(String::as_str));
    r.columns(&header);
    for (name, _) in policies(1) {
        let mut cells = vec![name.to_string()];
        for &n in &CDU_COUNTS {
            let agg = d
                .points
                .iter()
                .find(|(p, c, _)| *p == name && *c == n)
                .map(|(_, _, a)| a)
                .expect("every point computed");
            cells.push(format!(
                "{} ({})",
                f2(agg.speedup_vs(&d.sequential)),
                f2(agg.energy_vs(&d.sequential))
            ));
        }
        r.row(&cells);
    }
    // §3 headline numbers.
    let np16 = d
        .points
        .iter()
        .find(|(p, c, _)| *p == "NP" && *c == 16)
        .unwrap();
    let mcsp16 = d
        .points
        .iter()
        .find(|(p, c, _)| *p == "MCSP" && *c == 16)
        .unwrap();
    r.note(format!(
        "paper (§3): 16x naive parallelization -> 2.4x tests; measured NP-16: {:.2}x tests, {:.2}x speedup",
        np16.2.energy_vs(&d.sequential),
        np16.2.speedup_vs(&d.sequential),
    ));
    r.note(format!(
        "paper (§3): MCSP-16 -> 13.5x speedup at +10.5% tests; measured: {:.2}x speedup at {:+.1}% tests",
        mcsp16.2.speedup_vs(&d.sequential),
        (mcsp16.2.energy_vs(&d.sequential) - 1.0) * 100.0,
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_study_shapes_match_paper() {
        let d = data(Scale::Quick);
        let get = |p: &str, n: usize| {
            d.points
                .iter()
                .find(|(q, c, _)| *q == p && *c == n)
                .map(|(_, _, a)| *a)
                .unwrap()
        };
        // 1 CDU: CSP is at least as fast as NP (coarse-first exploration
        // finds colliding poses sooner).
        assert!(get("CSP", 1).cycles <= get("NP", 1).cycles);
        // 16 CDUs: MCSP dominates NP on work efficiency.
        let np = get("NP", 16);
        let mcsp = get("MCSP", 16);
        assert!(mcsp.energy_vs(&d.sequential) < np.energy_vs(&d.sequential));
        // NP wastes work, and the waste grows with the parallelization
        // scale (paper: 2.4x @16; the magnitude depends on how early the
        // workload's colliding motions hit — see EXPERIMENTS.md — so we
        // assert the direction and monotonicity, not the constant).
        assert!(np.energy_vs(&d.sequential) > 1.04);
        assert!(
            get("NP", 64).energy_vs(&d.sequential) > np.energy_vs(&d.sequential),
            "NP waste must grow with CDUs"
        );
        // MCSP keeps the overhead moderate (paper: +10.5%; we allow <40%).
        assert!(mcsp.energy_vs(&d.sequential) < 1.4);
        // CSP beats in-order even sequentially (§3: "CSP results in faster
        // collision detection than the ordered selection of poses for
        // sequential evaluation").
        assert!(get("CSP", 1).cycles < d.sequential.cycles);
        // Speedup grows with CDUs for MCSP.
        assert!(
            get("MCSP", 16).speedup_vs(&d.sequential) > get("MCSP", 4).speedup_vs(&d.sequential)
        );
        // BRP and CSP behave similarly (within 25% on both axes).
        let brp = get("BRP", 16);
        let csp = get("CSP", 16);
        let ratio = brp.cycles as f64 / csp.cycles as f64;
        assert!(
            (0.75..=1.34).contains(&ratio),
            "BRP/CSP cycle ratio {ratio}"
        );
    }

    #[test]
    fn report_renders_all_policies() {
        let r = run(Scale::Quick);
        let text = r.to_string();
        for p in ["NP", "RND", "BRP", "CSP", "MS", "MNP", "MBRP", "MCSP"] {
            assert!(text.contains(p), "missing policy {p}");
        }
    }
}
