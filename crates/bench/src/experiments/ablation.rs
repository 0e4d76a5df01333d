//! Ablations backing the design choices the paper asserts but does not
//! plot: the 6-5-4 SAT stage split (§4), the MCSP step size (§5.1 fixes 8),
//! and the octree depth / SRAM budget trade-off (§5.2).

use mp_geometry::cascade::{cascaded_obb_aabb, CascadeConfig, StageSplit};
use mp_octree::{Octree, Scene, SceneConfig};
use mp_robot::RobotModel;
use mp_sim::{CecduConfig, IuKind};
use mpaccel_core::sas::{IntraPolicy, SasConfig};

use crate::experiments::common::{replay_memo, CduKind, ReplayMemo, SasAggregate};
use crate::report::{f2, f3, Report};
use crate::workloads::{collect_test_pairs, BenchWorkload, Scale};

/// Stage splits evaluated for the cascade ablation.
pub const SPLITS: [[u8; 3]; 5] = [[6, 5, 4], [5, 5, 5], [3, 6, 6], [10, 3, 2], [1, 7, 7]];

/// Aggregate cost of one stage split over the test population.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SplitCost {
    /// The split.
    pub split: [u8; 3],
    /// Mean multi-cycle IU cycles per test.
    pub avg_cycles: f64,
    /// Mean multiplications per test.
    pub avg_mults: f64,
}

/// Measures every candidate stage split on the traversal test population.
pub fn stage_split_data(scale: Scale) -> Vec<SplitCost> {
    let w = BenchWorkload::cached(RobotModel::jaco2(), Scale::Quick);
    let per_scene = scale.cd_samples() / w.scenes.len();
    let mut pairs = Vec::new();
    for (si, scene) in w.scenes.iter().enumerate() {
        pairs.extend(collect_test_pairs(
            &scene.octree(),
            per_scene,
            500 + si as u64,
        ));
    }
    SPLITS
        .iter()
        .map(|&sizes| {
            let cfg = CascadeConfig {
                split: StageSplit::new(sizes),
                ..CascadeConfig::proposed()
            };
            let mut cycles = 0u64;
            let mut mults = 0u64;
            for (obb, aabb) in &pairs {
                let out = cascaded_obb_aabb(&obb.quantize(), &aabb.quantize(), &cfg);
                // Multi-cycle IU: 1 cycle sphere stage + 2 per SAT stage.
                cycles += (1 + 2 * out.stages_executed.saturating_sub(1)) as u64;
                mults += out.mults as u64;
            }
            SplitCost {
                split: sizes,
                avg_cycles: cycles as f64 / pairs.len() as f64,
                avg_mults: mults as f64 / pairs.len() as f64,
            }
        })
        .collect()
}

/// MCSP step sizes swept (§5.1 fixes step = 8 in hardware).
pub const STEPS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Sweeps the MCSP coarse-step size at 8 CDUs with real CECDUs.
pub fn step_size_data(scale: Scale) -> Vec<(usize, SasAggregate)> {
    let mut w = (*BenchWorkload::cached(RobotModel::jaco2(), scale)).clone();
    w.batches.retain(|b| b.motions.len() >= 2);
    let cdu = CduKind::Cecdu(CecduConfig::new(4, IuKind::MultiCycle));
    let max_batches = match scale {
        Scale::Quick => 16,
        Scale::Full => 0,
    };
    // Every step size replays the same batches: share pose responses.
    let mut memo = ReplayMemo::new(cdu);
    STEPS
        .iter()
        .map(|&step| {
            let cfg = SasConfig {
                intra: IntraPolicy::CoarseStep { step },
                ..SasConfig::mcsp(8)
            };
            (step, replay_memo(&w, &cfg, max_batches, None, &mut memo))
        })
        .collect()
}

/// Octree depths swept for the SRAM budget ablation.
pub const DEPTHS: [u32; 4] = [3, 4, 5, 6];

/// Octree depth vs storage and query cost.
pub fn depth_data(scale: Scale) -> Vec<(u32, usize, bool, f64)> {
    use mpaccel_core::oocd::run_oocd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let scene = Scene::random(SceneConfig::paper(), 0);
    let mut rng = StdRng::seed_from_u64(77);
    let poses = (scale.cd_samples() / 2).max(100);
    DEPTHS
        .iter()
        .map(|&depth| {
            let tree = Octree::build_in(
                mp_geometry::Aabb::new(mp_geometry::Vec3::zero(), mp_geometry::Vec3::splat(1.0)),
                scene.obstacles(),
                depth,
            );
            let mut cycles = 0u64;
            for _ in 0..poses {
                let obb = mp_baselines::workload::random_link_obb(&mut rng).quantize();
                cycles += run_oocd(&tree, &obb, IuKind::MultiCycle).cycles;
            }
            (
                depth,
                tree.storage_bytes(),
                tree.fits_hardware(),
                cycles as f64 / poses as f64,
            )
        })
        .collect()
}

/// Renders all three ablations.
pub fn run(scale: Scale) -> Report {
    let mut r =
        Report::new("Ablations: stage split (§4), MCSP step size (§5.1), octree depth (§5.2)");

    let splits = stage_split_data(scale);
    r.note("cascade stage split — avg multi-cycle IU cycles / mults per test:");
    for s in &splits {
        r.note(format!(
            "  {:>2}-{}-{}: {} cycles, {} mults",
            s.split[0],
            s.split[1],
            s.split[2],
            f2(s.avg_cycles),
            f2(s.avg_mults)
        ));
    }

    let steps = step_size_data(scale);
    let base = steps.iter().find(|(s, _)| *s == 8).unwrap().1;
    r.note("MCSP coarse-step size at 8 CDUs — cycles / queries normalized to step 8:");
    for (s, a) in &steps {
        r.note(format!(
            "  step {:>2}: runtime {}, energy {}",
            s,
            f3(a.cycles as f64 / base.cycles as f64),
            f3(a.queries as f64 / base.queries as f64)
        ));
    }

    let depths = depth_data(scale);
    r.note("octree depth — storage vs mean OOCD cycles:");
    for (d, bytes, fits, cycles) in &depths {
        r.note(format!(
            "  depth {d}: {bytes} B ({}), {} cycles/query",
            if *fits {
                "fits 8-bit addressing"
            } else {
                "EXCEEDS hardware budget"
            },
            f2(*cycles)
        ));
    }
    r.columns(&["ablation", "winner"]);
    r.row(&["stage split".into(), best_split_label(&splits)]);
    r.row(&["step size".into(), best_step_label(&steps)]);
    r
}

fn best_split_label(splits: &[SplitCost]) -> String {
    let best = splits
        .iter()
        .min_by(|a, b| a.avg_cycles.partial_cmp(&b.avg_cycles).unwrap())
        .unwrap();
    format!("{}-{}-{}", best.split[0], best.split[1], best.split[2])
}

fn best_step_label(steps: &[(usize, SasAggregate)]) -> String {
    let best = steps.iter().min_by_key(|(_, a)| a.cycles).unwrap();
    format!("step {}", best.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_loaded_splits_win() {
        // §4 picked 6-5-4 from the Fig 8b distribution: front-loaded splits
        // (more axes in stage 1) must not lose to back-loaded ones.
        let d = stage_split_data(Scale::Quick);
        let get = |s: [u8; 3]| d.iter().find(|x| x.split == s).unwrap();
        let proposed = get([6, 5, 4]);
        let back_loaded = get([1, 7, 7]);
        assert!(proposed.avg_cycles <= back_loaded.avg_cycles + 1e-9);
        // All splits agree on mult totals within the filter prefix; the
        // split only changes latency and stage-granularity of mults.
        assert!(proposed.avg_mults <= back_loaded.avg_mults * 1.35);
    }

    #[test]
    fn moderate_steps_beat_step_one() {
        // Step 1 degenerates to in-order scheduling: strictly worse runtime
        // than the hardware's step 8 on colliding workloads.
        let d = step_size_data(Scale::Quick);
        let get = |s: usize| d.iter().find(|(x, _)| *x == s).unwrap().1;
        assert!(get(8).cycles <= get(1).cycles);
    }

    #[test]
    fn deeper_trees_cost_more_storage() {
        let d = depth_data(Scale::Quick);
        for w in d.windows(2) {
            assert!(w[1].1 >= w[0].1, "storage must grow with depth");
        }
        // Depth 4 (the default) fits the hardware budget on scene 0.
        let depth4 = d.iter().find(|(x, ..)| *x == 4).unwrap();
        assert!(depth4.2);
    }

    #[test]
    fn report_renders() {
        let text = run(Scale::Quick).to_string();
        assert!(text.contains("stage split"));
        assert!(text.contains("step 8"));
    }
}
