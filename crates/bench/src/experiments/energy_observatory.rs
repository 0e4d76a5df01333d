//! Energy observatory (not a paper figure): the end-to-end energy
//! roll-up of the reproduction, priced by the Horowitz-calibrated
//! per-op-class model of `mp_sim::energy`.
//!
//! Three sections share one table:
//!
//! * `cd-check` — dynamic energy per dispatched CD query: the software
//!   f32 oracle chain (SAT cascade, per-op attribution via
//!   [`mp_collision::attributed`]) against the cycle-level CECDU Q3.12
//!   chain, which additionally pays OBB generation and large-SRAM
//!   octree/config fetches.
//! * `plan` — mean CD-datapath energy per planning attempt at each
//!   quality tier, from the soak catalog's counter-delta attribution
//!   (`TierOutcome::energy_pj`): the degradation ladder's energy slope.
//! * `baseline-2^20` — the §7.5 comparison restated in joules: each
//!   CPU/GPU platform's *best* CD kernel for 2^20 OBB–octree queries
//!   (modeled time × package power) against MPAccel's package energy at
//!   the same query count, plus the pure datapath dynamic energy.
//!
//! Determinism: everything is seed- or catalog-derived; the rendered
//! report is byte-identical at any thread count (see
//! `tests/determinism.rs`).

use mp_baselines::cpu::{cpu_cd_time_ms, CpuVariant, CORTEX_A57, I7_4771};
use mp_baselines::gpu::{gpu_cd_time_ms, GpuVariant, JETSON_TX2, TITAN_V};
use mp_baselines::workload::{measure_workload, random_link_obb, WorkloadStats};
use mp_collision::{attributed, CollisionChecker, SoftwareChecker};
use mp_octree::benchmark_scenes;
use mp_planner::QualityTier;
use mp_robot::{JointConfig, RobotModel};
use mp_service::PlanCatalog;
use mp_sim::{CecduConfig, IuKind};
use mpaccel_core::oocd::run_oocd;
use mpaccel_core::sas::{CduModel, CduResponse, SasConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use threadpool::ThreadPool;

use super::common::{replay, replay_with, CduKind, SasAggregate};
use super::soak;
use crate::report::{f2, f3, times, Report};
use crate::workloads::{BenchWorkload, Scale};

/// Queries in the baseline energy comparison (same as Table 3).
pub const QUERIES: u64 = 1 << 20;

/// CD batches replayed per chain (kept small at quick scale — the
/// cycle-level CECDU chain dominates the experiment's wall-clock).
fn replay_batches(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 8,
        Scale::Full => usize::MAX,
    }
}

/// A CDU backed by the software f32 oracle that reports the checker's
/// *real* per-op work (node fetches, box tests, SAT mults) instead of
/// the bare query count [`mpaccel_core::sas::IdealCdu`] bills.
struct MeasuredSoftwareCdu {
    checker: SoftwareChecker,
}

impl CduModel for MeasuredSoftwareCdu {
    fn query(&mut self, pose: &JointConfig) -> CduResponse {
        let (colliding, work) = attributed(&mut self.checker, |c| c.check_pose(pose));
        CduResponse {
            colliding,
            latency: 1,
            ops: work.to_ops(),
        }
    }
}

/// All observatory measurements.
#[derive(Clone, Debug)]
pub struct ObservatoryData {
    /// Software-f32 oracle replay (full op attribution).
    pub software: SasAggregate,
    /// Cycle-level CECDU Q3.12 replay.
    pub cecdu: SasAggregate,
    /// Mean CD-datapath microjoules per planning attempt, ladder order.
    pub tier_uj: Vec<(QualityTier, f64)>,
    /// `(platform, best CD kernel ms, energy mJ)` for 2^20 queries.
    pub baseline_mj: Vec<(&'static str, f64, f64)>,
    /// MPAccel 16x4 multi-cycle: modeled ms for 2^20 queries.
    pub accel_ms: f64,
    /// MPAccel package power (W) behind [`ObservatoryData::accel_mj`].
    pub accel_power_w: f64,
    /// MPAccel package energy (mJ) for 2^20 queries.
    pub accel_mj: f64,
    /// Pure CECDU-datapath dynamic energy (mJ) for 2^20 queries.
    pub datapath_mj: f64,
}

/// Runs all measurements using the cached soak catalog.
pub fn data(scale: Scale) -> ObservatoryData {
    data_with_catalog(scale, &soak::catalog(scale))
}

/// Like [`data`], against a caller-supplied catalog (the determinism
/// test builds one per pool width through this path).
pub fn data_with_catalog(scale: Scale, catalog: &PlanCatalog) -> ObservatoryData {
    let w = BenchWorkload::cached(RobotModel::jaco2(), scale);
    let batches: Vec<_> = w.batches.iter().take(replay_batches(scale)).collect();
    // The f32 side of the pJ/CD-check comparison: the software oracle
    // with full op attribution.
    let software = replay_with(&batches, &SasConfig::sequential(), None, None, |batch| {
        MeasuredSoftwareCdu {
            checker: SoftwareChecker::new(w.robot.clone(), w.octree(batch.scene)),
        }
    });
    let cecdu = replay(
        &w,
        &batches,
        &SasConfig::sequential(),
        CduKind::Cecdu(CecduConfig::new(4, IuKind::MultiCycle)),
    );

    let tier_uj = QualityTier::LADDER
        .iter()
        .map(|&t| (t, catalog.mean_energy_pj(t) / 1e6))
        .collect();

    // Per-query workload mix over the benchmark scenes (same averaging as
    // Table 3).
    let scenes: Vec<_> = benchmark_scenes().into_iter().take(4).collect();
    let samples = scale.cd_samples();
    let mut stats = WorkloadStats::default();
    for (i, s) in scenes.iter().enumerate() {
        let m = measure_workload(&s.octree(), samples / scenes.len(), i as u64);
        stats.avg_nodes += m.avg_nodes / scenes.len() as f64;
        stats.avg_tests += m.avg_tests / scenes.len() as f64;
        stats.avg_warp_union_nodes += m.avg_warp_union_nodes / scenes.len() as f64;
        stats.avg_warp_union_nodes_unsorted +=
            m.avg_warp_union_nodes_unsorted / scenes.len() as f64;
        stats.leaf_count += m.leaf_count / scenes.len() as f64;
        stats.collision_rate += m.collision_rate / scenes.len() as f64;
    }

    // Each platform gets its best kernel: energy = time × package power.
    let gpu_best = |m: &mp_baselines::gpu::GpuModel| {
        [
            GpuVariant::Basic,
            GpuVariant::Optimized,
            GpuVariant::LeafNodes,
        ]
        .iter()
        .map(|&v| gpu_cd_time_ms(m, v, &stats, QUERIES))
        .fold(f64::INFINITY, f64::min)
    };
    let cpu_best = |m: &mp_baselines::cpu::CpuModel| {
        [CpuVariant::Traversal, CpuVariant::LeafNodes]
            .iter()
            .map(|&v| cpu_cd_time_ms(m, v, &stats, QUERIES))
            .fold(f64::INFINITY, f64::min)
    };
    let baseline_mj = vec![
        (TITAN_V.name, gpu_best(&TITAN_V), TITAN_V.power_w),
        (JETSON_TX2.name, gpu_best(&JETSON_TX2), JETSON_TX2.power_w),
        (I7_4771.name, cpu_best(&I7_4771), I7_4771.power_w),
        (CORTEX_A57.name, cpu_best(&CORTEX_A57), CORTEX_A57.power_w),
    ]
    .into_iter()
    .map(|(name, ms, power_w)| (name, ms, ms * power_w))
    .collect();

    // MPAccel package energy: 16 CECDUs × 4 OOCDs on independent queries
    // (the Table 3 configuration), multi-cycle IUs.
    let iu = IuKind::MultiCycle;
    let mut rng = StdRng::seed_from_u64(21);
    let mut cycles = 0u64;
    let mut n = 0u64;
    for s in &scenes {
        let tree = s.octree();
        for _ in 0..(samples / scenes.len()).max(64) {
            let obb = random_link_obb(&mut rng).quantize();
            cycles += run_oocd(&tree, &obb, iu).cycles;
            n += 1;
        }
    }
    let avg_cycles = cycles as f64 / n.max(1) as f64;
    let accel_ms = QUERIES as f64 * avg_cycles * iu.clock().period_ns() / 64.0 / 1e6;
    let accel_power_w = mp_sim::MpaccelConfig::new(16, CecduConfig::new(4, iu))
        .area_power()
        .power_w;
    let accel_mj = accel_ms * accel_power_w;
    let datapath_mj = cecdu.pj_per_query() * QUERIES as f64 / 1e9;

    ObservatoryData {
        software,
        cecdu,
        tier_uj,
        baseline_mj,
        accel_ms,
        accel_power_w,
        accel_mj,
        datapath_mj,
    }
}

/// Renders the observatory table.
pub fn render(d: &ObservatoryData) -> Report {
    let mut r = Report::new(
        "Energy observatory: pJ/CD-check, J/plan by quality tier, accelerator vs baselines",
    );
    r.note(format!(
        "op prices (45 nm, Horowitz ISSCC'14 calibration): mult {} pJ, add {} pJ, SRAM read {} pJ, big-SRAM read {} pJ, DRAM {} pJ/B, MLP MAC {} pJ, box-test overhead {} pJ",
        mp_sim::energy::MULT_PJ,
        mp_sim::energy::ADD_PJ,
        mp_sim::energy::SRAM_READ_PJ,
        mp_sim::energy::BIG_SRAM_READ_PJ,
        mp_sim::energy::DRAM_BYTE_PJ,
        mp_sim::energy::MLP_MAC_PJ,
        mp_sim::energy::TEST_OVERHEAD_PJ,
    ));
    r.columns(&["section", "item", "energy", "unit", "vs ref"]);
    let sw_pj = d.software.pj_per_query();
    let hw_pj = d.cecdu.pj_per_query();
    r.row(&[
        "cd-check".into(),
        "software-f32 oracle".into(),
        f2(sw_pj),
        "pJ/check".into(),
        times(1.0),
    ]);
    r.row(&[
        "cd-check".into(),
        "cecdu-q3.12".into(),
        f2(hw_pj),
        "pJ/check".into(),
        times(hw_pj / sw_pj.max(1e-12)),
    ]);
    let full_uj = d.tier_uj.first().map_or(0.0, |(_, uj)| *uj);
    for (tier, uj) in &d.tier_uj {
        r.row(&[
            "plan".into(),
            tier.label().into(),
            f3(*uj),
            "uJ/plan".into(),
            times(uj / full_uj.max(1e-12)),
        ]);
    }
    for (name, ms, mj) in &d.baseline_mj {
        r.row(&[
            "baseline-2^20".into(),
            (*name).into(),
            f2(*mj),
            "mJ".into(),
            times(mj / d.accel_mj.max(1e-12)),
        ]);
        let _ = ms;
    }
    r.row(&[
        "baseline-2^20".into(),
        format!("MPAccel 16x4 mc package ({} W)", f2(d.accel_power_w)),
        f2(d.accel_mj),
        "mJ".into(),
        times(1.0),
    ]);
    r.row(&[
        "baseline-2^20".into(),
        "MPAccel CECDU datapath (dynamic)".into(),
        f3(d.datapath_mj),
        "mJ".into(),
        times(d.datapath_mj / d.accel_mj.max(1e-12)),
    ]);
    r.note(
        "cd-check: SAS replay of the same CD batches through each chain; plan: soak-catalog mean CD-datapath energy per attempt; baseline-2^20: best kernel per platform, energy = modeled time x package power",
    );
    r.note(format!(
        "MPAccel package row: {} ms modeled for 2^20 queries at 64 OOCDs; datapath row excludes leakage/clock overhead (dynamic op energy only)",
        f2(d.accel_ms)
    ));
    r
}

/// Runs the observatory at a scale (cached catalog).
pub fn run(scale: Scale) -> Report {
    render(&data(scale))
}

/// Like [`run`], building the soak catalog on the given pool (uncached;
/// the determinism test compares pool widths through this).
pub fn run_with_pool(scale: Scale, pool: &ThreadPool) -> Report {
    render(&data_with_catalog(scale, &soak::build_catalog(scale, pool)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observatory_shape_holds() {
        let d = data(Scale::Quick);
        // Both chains dispatched the same batches and did real work.
        assert!(d.software.queries > 0 && d.cecdu.queries > 0);
        let sw = d.software.pj_per_query();
        let hw = d.cecdu.pj_per_query();
        assert!(sw > 0.0 && hw > 0.0, "sw {sw} hw {hw}");
        // The ladder saves energy: the coarsest tier is cheaper than full.
        let full = d.tier_uj.first().unwrap().1;
        let coarsest = d.tier_uj.last().unwrap().1;
        assert!(full > 0.0 && coarsest > 0.0);
        assert!(coarsest < full, "coarsest {coarsest} !< full {full}");
        // MPAccel wins on energy against every baseline's best kernel.
        assert!(d.accel_mj > 0.0);
        for (name, _, mj) in &d.baseline_mj {
            assert!(
                *mj > d.accel_mj,
                "{name} {mj} mJ !> accel {} mJ",
                d.accel_mj
            );
        }
        // Datapath dynamic energy is a fraction of package energy.
        assert!(d.datapath_mj > 0.0 && d.datapath_mj < d.accel_mj);
    }

    #[test]
    fn observatory_report_renders_all_sections() {
        let r = run(Scale::Quick).to_string();
        for needle in [
            "cd-check",
            "software-f32 oracle",
            "cecdu-q3.12",
            "uJ/plan",
            "baseline-2^20",
            "MPAccel CECDU datapath",
        ] {
            assert!(r.contains(needle), "report missing `{needle}`:\n{r}");
        }
    }
}
