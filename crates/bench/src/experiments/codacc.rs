//! §7.2.2's CODAcc comparison: voxelized OBB–voxelized-environment
//! collision detection (the RACOD/CODAcc approach) versus the OOCD's
//! octree + separating-axis design.
//!
//! Paper: "for voxels of size 2.56 cm (environment's extent is 180 cm),
//! the voxelized environment requires 32 KB storage and 30–154 memory
//! accesses. In contrast, OOCD uses an octree-based compact environment
//! representation and performs collision detection between
//! OBB-environment in < 40 cycles with 0.75 KB on-chip SRAM."

use mp_octree::{benchmark_scenes, VoxelGrid};
use mp_sim::IuKind;
use mpaccel_core::oocd::run_oocd;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{f2, Report};
use crate::workloads::Scale;

/// Measurements of both designs over the same query population.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CodaccData {
    /// Voxel grid resolution (per dimension).
    pub resolution: usize,
    /// Voxelized environment storage (bytes).
    pub voxel_storage: usize,
    /// Mean memory accesses per query for the CODAcc-style unit
    /// (one read per voxel the OBB rasterizes to).
    pub voxel_accesses_avg: f64,
    /// Max memory accesses observed.
    pub voxel_accesses_max: f64,
    /// Octree storage (bytes).
    pub octree_storage: usize,
    /// Mean OOCD cycles per query.
    pub oocd_cycles_avg: f64,
    /// Agreement rate between the two designs' verdicts.
    pub agreement: f64,
}

/// Runs both designs on random link OBBs over the benchmark scenes.
pub fn data(scale: Scale) -> CodaccData {
    let resolution = 64; // 2.56 cm voxels on a 180 cm extent ≈ 64³ after padding
    let scenes: Vec<_> = benchmark_scenes().into_iter().take(3).collect();
    let queries = (scale.cd_samples() / 3).max(50);
    let mut rng = StdRng::seed_from_u64(11);
    let mut d = CodaccData {
        resolution,
        ..CodaccData::default()
    };
    let mut total_queries = 0u64;
    let mut agreements = 0u64;
    for scene in &scenes {
        let grid: VoxelGrid = scene.voxel_grid(resolution);
        let tree = scene.octree();
        d.voxel_storage = grid.storage_bytes();
        d.octree_storage = d.octree_storage.max(tree.storage_bytes());
        for _ in 0..queries {
            let obb = mp_baselines::workload::random_link_obb(&mut rng);
            // CODAcc: rasterize the OBB, one memory access per voxel, OR
            // the occupancy bits.
            let voxels = grid.rasterize_obb(&obb);
            let voxel_hit = voxels.iter().any(|&(x, y, z)| grid.get(x, y, z));
            d.voxel_accesses_avg += voxels.len() as f64;
            d.voxel_accesses_max = d.voxel_accesses_max.max(voxels.len() as f64);
            // OOCD.
            let oocd = run_oocd(&tree, &obb.quantize(), IuKind::MultiCycle);
            d.oocd_cycles_avg += oocd.cycles as f64;
            total_queries += 1;
            if voxel_hit == oocd.colliding {
                agreements += 1;
            }
        }
    }
    d.voxel_accesses_avg /= total_queries as f64;
    d.oocd_cycles_avg /= total_queries as f64;
    d.agreement = agreements as f64 / total_queries as f64;
    d
}

/// Renders the comparison.
pub fn run(scale: Scale) -> Report {
    let d = data(scale);
    let mut r = Report::new("§7.2.2: CODAcc-style voxelized CD vs the OOCD design");
    r.columns(&["design", "storage", "work per query"]);
    r.row(&[
        format!("voxelized ({res}^3)", res = d.resolution),
        format!("{} KB", d.voxel_storage / 1024),
        format!(
            "{}–{} memory accesses (avg {})",
            0,
            d.voxel_accesses_max,
            f2(d.voxel_accesses_avg)
        ),
    ]);
    r.row(&[
        "OOCD (octree + SAT)".into(),
        format!("{} B", d.octree_storage),
        format!("{} cycles avg", f2(d.oocd_cycles_avg)),
    ]);
    r.note(format!(
        "paper: 32 KB + 30–154 accesses vs < 40 cycles + 0.75 KB; verdict agreement between designs: {:.1}%",
        d.agreement * 100.0
    ));
    r.note("voxelization also loses precision: both designs over-approximate, but the voxel grid by a whole voxel per surface");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_gap_matches_paper() {
        let d = data(Scale::Quick);
        // 64^3 bits = 32 KB, exactly the paper's voxel figure.
        assert_eq!(d.voxel_storage, 32 * 1024);
        // Octree fits the 0.75 KB SRAM budget.
        assert!(d.octree_storage <= 768, "octree {} B", d.octree_storage);
        // > 40x storage advantage.
        assert!(d.voxel_storage as f64 / d.octree_storage as f64 > 40.0);
    }

    #[test]
    fn work_shape_matches_paper() {
        let d = data(Scale::Quick);
        // OOCD stays under ~40 cycles on average.
        assert!(d.oocd_cycles_avg < 45.0, "OOCD avg {}", d.oocd_cycles_avg);
        // The voxel design needs many more memory accesses than the OOCD
        // needs cycles (paper band: 30–154 accesses).
        assert!(d.voxel_accesses_avg > d.oocd_cycles_avg);
        assert!(d.voxel_accesses_max >= 100.0);
        // The two designs agree on the vast majority of verdicts.
        assert!(d.agreement > 0.9, "agreement {}", d.agreement);
    }
}
