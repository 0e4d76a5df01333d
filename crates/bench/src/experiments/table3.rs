//! Table 3: collision-detection and motion-planning runtime on CPUs and
//! GPUs versus MPAccel (2^20 OBB–octree queries).

use mp_baselines::cpu::{cpu_cd_time_ms, CpuVariant, CORTEX_A57, I7_4771};
use mp_baselines::gpu::{gpu_cd_time_ms, GpuVariant, JETSON_TX2, TITAN_V};
use mp_baselines::motion_planning_time_ms;
use mp_baselines::workload::{measure_workload, random_link_obb, WorkloadStats};
use mp_octree::benchmark_scenes;
use mp_robot::RobotModel;
use mp_sim::{CecduConfig, IuKind};
use mpaccel_core::oocd::run_oocd;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{f2, Report};
use crate::workloads::{BenchWorkload, Scale};

/// Queries in the §7.5 benchmark.
pub const QUERIES: u64 = 1 << 20;

/// All Table 3 measurements.
#[derive(Clone, Debug)]
pub struct Table3Data {
    /// The measured per-query workload.
    pub workload: WorkloadStats,
    /// `(platform, basic, optimized, leaf, power W)` CD times in ms.
    pub cd_rows: Vec<(&'static str, f64, Option<f64>, f64, f64)>,
    /// MPAccel CD rows: `(label, ms, area mm², power W)`.
    pub mpaccel_rows: Vec<(String, f64, f64, f64)>,
    /// `(platform, avg motion-planning ms)`.
    pub mp_rows: Vec<(&'static str, f64)>,
    /// MPAccel average motion-planning ms.
    pub mpaccel_mp_ms: f64,
    /// Real single-thread wall-clock time measured on *this* host for 2^20
    /// OBB–octree queries (extrapolated from a smaller timed run) — the one
    /// genuinely empirical row of the table.
    pub host_measured_ms: f64,
    /// Per-query wall-clock nanoseconds behind [`Table3Data::host_measured_ms`],
    /// as a log-bucketed histogram with exact percentiles (`mp-bench
    /// table3 --timings` prints mean/p50/p99 from it).
    pub host_hist: mp_telemetry::HistSnapshot,
}

/// Paper values for side-by-side display: `(platform, basic, opt, leaf,
/// power, mp_ms)`.
pub const PAPER: [(&str, f64, f64, f64, f64, f64); 4] = [
    ("NVIDIA Titan V", 24.0, 12.0, 6.0, 156.8, 1.42),
    ("NVIDIA Jetson TX2 GPU", 5833.0, 3403.0, 1373.0, 3.5, 110.27),
    ("i7-4771 (8-core)", 153.0, f64::NAN, 890.0, 65.0, 4.13),
    ("Cortex-A57 (4-core)", 360.0, f64::NAN, 3304.0, 4.2, 11.62),
];

/// Runs all models.
pub fn data(scale: Scale) -> Table3Data {
    // Measure the per-query workload over a mix of benchmark scenes.
    let scenes: Vec<_> = benchmark_scenes().into_iter().take(4).collect();
    let samples = scale.cd_samples();
    let mut agg = WorkloadStats::default();
    for (i, s) in scenes.iter().enumerate() {
        let w = measure_workload(&s.octree(), samples / scenes.len(), i as u64);
        agg.avg_nodes += w.avg_nodes / scenes.len() as f64;
        agg.avg_tests += w.avg_tests / scenes.len() as f64;
        agg.avg_warp_union_nodes += w.avg_warp_union_nodes / scenes.len() as f64;
        agg.avg_warp_union_nodes_unsorted += w.avg_warp_union_nodes_unsorted / scenes.len() as f64;
        agg.leaf_count += w.leaf_count / scenes.len() as f64;
        agg.collision_rate += w.collision_rate / scenes.len() as f64;
    }

    let cd_rows = vec![
        (
            TITAN_V.name,
            gpu_cd_time_ms(&TITAN_V, GpuVariant::Basic, &agg, QUERIES),
            Some(gpu_cd_time_ms(
                &TITAN_V,
                GpuVariant::Optimized,
                &agg,
                QUERIES,
            )),
            gpu_cd_time_ms(&TITAN_V, GpuVariant::LeafNodes, &agg, QUERIES),
            TITAN_V.power_w,
        ),
        (
            JETSON_TX2.name,
            gpu_cd_time_ms(&JETSON_TX2, GpuVariant::Basic, &agg, QUERIES),
            Some(gpu_cd_time_ms(
                &JETSON_TX2,
                GpuVariant::Optimized,
                &agg,
                QUERIES,
            )),
            gpu_cd_time_ms(&JETSON_TX2, GpuVariant::LeafNodes, &agg, QUERIES),
            JETSON_TX2.power_w,
        ),
        (
            I7_4771.name,
            cpu_cd_time_ms(&I7_4771, CpuVariant::Traversal, &agg, QUERIES),
            None,
            cpu_cd_time_ms(&I7_4771, CpuVariant::LeafNodes, &agg, QUERIES),
            I7_4771.power_w,
        ),
        (
            CORTEX_A57.name,
            cpu_cd_time_ms(&CORTEX_A57, CpuVariant::Traversal, &agg, QUERIES),
            None,
            cpu_cd_time_ms(&CORTEX_A57, CpuVariant::LeafNodes, &agg, QUERIES),
            CORTEX_A57.power_w,
        ),
    ];

    // MPAccel: 16 CECDUs × 4 OOCDs = 64 OOCDs working on independent
    // OBB–octree queries (§7.5 compares exactly this).
    let mut mpaccel_rows = Vec::new();
    for iu in [IuKind::MultiCycle, IuKind::Pipelined] {
        let mut rng = StdRng::seed_from_u64(9);
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
        let avg_cycles = cycles as f64 / n as f64;
        let clock = iu.clock();
        let oocds = 64.0;
        let ms = QUERIES as f64 * avg_cycles * clock.period_ns() / oocds / 1e6;
        let accel = mp_sim::MpaccelConfig::new(16, CecduConfig::new(4, iu));
        let ap = accel.area_power();
        mpaccel_rows.push((format!("MPAccel 16x4 {iu}"), ms, ap.area_mm2, ap.power_w));
    }

    // Motion-planning rows: CD queries per plan from the Baxter workload.
    let w = BenchWorkload::cached(RobotModel::baxter(), Scale::Quick);
    let plans = w.traces.len().max(1) as f64;
    // Each pose query tests several link OBBs (early exit averages ~5 of 7).
    let obb_queries_per_plan = w.total_poses() as f64 / plans * 5.0;
    let nn_per_plan = w
        .traces
        .iter()
        .map(|(_, t)| t.nn_inferences() as u64)
        .sum::<u64>() as f64
        / plans;
    let mp_rows = vec![
        (
            TITAN_V.name,
            motion_planning_time_ms(
                gpu_cd_time_ms(&TITAN_V, GpuVariant::Optimized, &agg, QUERIES) / QUERIES as f64,
                obb_queries_per_plan,
                nn_per_plan * 0.02, // cuDNN-class inference on the same GPU
                0.3,                // host/driver overhead per plan
            ),
        ),
        (
            JETSON_TX2.name,
            motion_planning_time_ms(
                gpu_cd_time_ms(&JETSON_TX2, GpuVariant::Optimized, &agg, QUERIES) / QUERIES as f64,
                obb_queries_per_plan,
                nn_per_plan * 0.6,
                2.0,
            ),
        ),
        (
            I7_4771.name,
            motion_planning_time_ms(
                cpu_cd_time_ms(&I7_4771, CpuVariant::Traversal, &agg, QUERIES) / QUERIES as f64,
                obb_queries_per_plan,
                nn_per_plan * 0.15,
                0.2,
            ),
        ),
        (
            CORTEX_A57.name,
            motion_planning_time_ms(
                cpu_cd_time_ms(&CORTEX_A57, CpuVariant::Traversal, &agg, QUERIES) / QUERIES as f64,
                obb_queries_per_plan,
                nn_per_plan * 0.5,
                0.5,
            ),
        ),
    ];

    // MPAccel end-to-end average from the system model.
    let mpaccel_mp_ms = {
        let robot = RobotModel::baxter();
        let mut total = 0.0;
        let mut n = 0u32;
        for (si, trace) in w.traces.iter().take(6) {
            let sys = mpaccel_core::mpaccel::MpAccelSystem::new(
                robot.clone(),
                w.octree(*si),
                mpaccel_core::mpaccel::SystemConfig::paper_default(),
            );
            total += sys.run_trace(trace).total_ms;
            n += 1;
        }
        total / n.max(1) as f64
    };

    // Real measurement on this host: time a batch of software OBB–octree
    // queries per query into a telemetry histogram and extrapolate the
    // mean to 2^20 (single thread).
    let (host_measured_ms, host_hist) = {
        let tree = scenes[0].octree();
        let mut rng = StdRng::seed_from_u64(3);
        let obbs: Vec<_> = (0..2048).map(|_| random_link_obb(&mut rng)).collect();
        // Warm up caches once.
        for o in obbs.iter().take(256) {
            std::hint::black_box(tree.collides_with(|a| mp_geometry::sat::overlaps(o, a)));
        }
        let mut hist = mp_telemetry::HistSnapshot::new();
        for o in &obbs {
            let t0 = std::time::Instant::now();
            std::hint::black_box(tree.collides_with(|a| mp_geometry::sat::overlaps(o, a)));
            hist.observe(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        let per_query_ns = hist.mean().unwrap_or(0.0);
        (per_query_ns * QUERIES as f64 / 1e6, hist)
    };

    Table3Data {
        workload: agg,
        cd_rows,
        mpaccel_rows,
        mp_rows,
        mpaccel_mp_ms,
        host_measured_ms,
        host_hist,
    }
}

/// Renders the host per-query timing distribution (real wall clock, so
/// never part of the deterministic report; `mp-bench table3 --timings`
/// prints it).
pub fn timings(d: &Table3Data) -> String {
    let h = &d.host_hist;
    let ns = |q| h.percentile(q).unwrap_or(0);
    format!(
        "host OBB-octree query wall clock ({} samples): mean={:.0}ns p50={}ns p99={}ns p999={}ns -> {:.0} ms extrapolated to 2^20 queries",
        h.count(),
        h.mean().unwrap_or(0.0),
        ns(0.50),
        ns(0.99),
        ns(0.999),
        d.host_measured_ms
    )
}

/// Renders Table 3 with paper values side by side.
pub fn run(scale: Scale) -> Report {
    render(&data(scale))
}

/// Renders already-computed [`Table3Data`] (`mp-bench` reuses one
/// computation for the report and the `--timings` dump).
pub fn render(d: &Table3Data) -> Report {
    let mut r = Report::new(
        "Table 3: collision detection (2^20 OBB-octree queries) and motion planning runtime",
    );
    r.note("model (paper) — analytic platform models calibrated per DESIGN.md substitution 3");
    r.columns(&[
        "platform",
        "OBB-octree (ms)",
        "+GPU opts (ms)",
        "leaf nodes (ms)",
        "power (W)",
        "avg MP (ms)",
    ]);
    for (name, basic, opt, leaf, power) in &d.cd_rows {
        let paper = PAPER.iter().find(|(n, ..)| n == name).unwrap();
        let mp = d.mp_rows.iter().find(|(n, _)| n == name).unwrap().1;
        r.row(&[
            name.to_string(),
            format!("{} ({})", f2(*basic), f2(paper.1)),
            match opt {
                Some(o) => format!("{} ({})", f2(*o), f2(paper.2)),
                None => "N/A".to_string(),
            },
            format!("{} ({})", f2(*leaf), f2(paper.3)),
            f2(*power),
            format!("{} ({})", f2(mp), f2(paper.5)),
        ]);
    }
    for (label, ms, area, power) in &d.mpaccel_rows {
        r.row(&[
            label.clone(),
            f2(*ms),
            "-".into(),
            "-".into(),
            f2(*power),
            "-".into(),
        ]);
        let _ = area;
    }
    r.note(format!(
        "paper: MPAccel 16x4 mc = 0.91 ms (11.1 mm², 3.4 W), 16x4 p = 0.53 ms; MPAccel avg MP: measured {:.3} ms (paper 0.099 ms)",
        d.mpaccel_mp_ms
    ));
    // The host measurement is real wall clock and varies run to run; it
    // goes to stderr so the rendered report stays bit-identical across
    // runs and thread counts (the determinism test relies on this).
    eprintln!(
        "table3: ground truth on THIS host (1 thread, real wall clock): {:.0} ms for 2^20 queries — sanity-anchors the CPU models",
        d.host_measured_ms
    );
    r.note(
        "ground truth wall clock for 2^20 queries is measured on this host each run and printed to stderr (kept out of the table so reports are reproducible)",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_holds() {
        let d = data(Scale::Quick);
        let cd = |name: &str| d.cd_rows.iter().find(|(n, ..)| *n == name).unwrap();
        let titan = cd("NVIDIA Titan V");
        let tx2 = cd("NVIDIA Jetson TX2 GPU");
        let i7 = cd("i7-4771 (8-core)");
        let a57 = cd("Cortex-A57 (4-core)");
        // Platform ordering (basic kernel): Titan < i7 < A57 < TX2.
        assert!(titan.1 < i7.1 && i7.1 < a57.1 && a57.1 < tx2.1);
        // MPAccel beats every baseline by a wide margin on CD.
        for (_, ms, _, _) in &d.mpaccel_rows {
            assert!(*ms < titan.1, "MPAccel {ms} !< Titan {}", titan.1);
        }
        // Pipelined MPAccel beats multi-cycle (paper: 0.53 vs 0.91).
        assert!(d.mpaccel_rows[1].1 < d.mpaccel_rows[0].1);
        // MPAccel CD time is in the paper's ballpark (0.53–0.91 ms).
        assert!(
            (0.1..=8.0).contains(&d.mpaccel_rows[0].1),
            "MPAccel mc {} ms",
            d.mpaccel_rows[0].1
        );
        // Motion planning: MPAccel fastest, TX2 slowest of the baselines.
        let mp = |name: &str| d.mp_rows.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(d.mpaccel_mp_ms < mp("NVIDIA Titan V"));
        assert!(mp("NVIDIA Titan V") < mp("Cortex-A57 (4-core)"));
        assert!(mp("Cortex-A57 (4-core)") < mp("NVIDIA Jetson TX2 GPU"));
        // Real-time on MPAccel, with a wide margin over the best baseline
        // (paper: 0.099 ms vs 1.42 ms on Titan V ≈ 14x).
        assert!(d.mpaccel_mp_ms < 1.0);
        assert!(
            mp("NVIDIA Titan V") > 2.0 * d.mpaccel_mp_ms,
            "Titan {} vs MPAccel {}",
            mp("NVIDIA Titan V"),
            d.mpaccel_mp_ms
        );
    }
}
