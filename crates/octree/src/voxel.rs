//! Dense voxel grids — the alternative environment representation used by
//! the CODAcc-style comparison (§7.2.2) and as a rasterization utility.

use mp_geometry::soa::{sat_overlaps_hoisted, SatConsts};
use mp_geometry::{AabbF, Obb, Vec3};

/// A dense occupancy grid over a cubic region, one bit per voxel.
///
/// §7.2.2 compares the OOCD's octree representation against a voxelized
/// environment ("for voxels of size 2.56 cm (environment's extent is
/// 180 cm), the voxelized environment requires 32 KB storage"): a 70³ ≈
/// 2.56 cm grid at 1 bit/voxel ≈ 42 KB, and the paper's 32 KB corresponds
/// to a 64³ grid — which is what [`VoxelGrid::new`] with `resolution = 64`
/// gives.
///
/// # Examples
///
/// ```
/// use mp_geometry::{Aabb, Vec3};
/// use mp_octree::VoxelGrid;
///
/// let mut g = VoxelGrid::new(Aabb::new(Vec3::zero(), Vec3::splat(1.0)), 64);
/// g.rasterize_aabb(&Aabb::new(Vec3::new(0.5, 0.5, 0.5), Vec3::splat(0.1)));
/// assert!(g.is_occupied_at(Vec3::new(0.5, 0.5, 0.5)));
/// assert_eq!(g.storage_bytes(), 64 * 64 * 64 / 8);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct VoxelGrid {
    root: AabbF,
    resolution: usize,
    bits: Vec<u64>,
}

impl VoxelGrid {
    /// Creates an empty grid of `resolution³` voxels over `root`.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is 0 or greater than 512.
    pub fn new(root: AabbF, resolution: usize) -> VoxelGrid {
        assert!(
            (1..=512).contains(&resolution),
            "resolution must be in 1..=512, got {resolution}"
        );
        let n = resolution * resolution * resolution;
        VoxelGrid {
            root,
            resolution,
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// Grid resolution per dimension.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// The region covered by the grid.
    pub fn root_aabb(&self) -> AabbF {
        self.root
    }

    /// Storage in bytes at 1 bit per voxel.
    pub fn storage_bytes(&self) -> usize {
        (self.resolution.pow(3)).div_ceil(8)
    }

    /// Edge length of one voxel.
    fn voxel_size(&self) -> Vec3 {
        self.root.half * (2.0 / self.resolution as f32)
    }

    fn linear(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (iz * self.resolution + iy) * self.resolution + ix
    }

    /// Whether voxel `(ix, iy, iz)` is occupied.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn get(&self, ix: usize, iy: usize, iz: usize) -> bool {
        assert!(
            ix < self.resolution && iy < self.resolution && iz < self.resolution,
            "voxel index out of range"
        );
        let l = self.linear(ix, iy, iz);
        self.bits[l / 64] >> (l % 64) & 1 != 0
    }

    /// Marks voxel `(ix, iy, iz)` occupied.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn set(&mut self, ix: usize, iy: usize, iz: usize) {
        assert!(
            ix < self.resolution && iy < self.resolution && iz < self.resolution,
            "voxel index out of range"
        );
        let l = self.linear(ix, iy, iz);
        self.bits[l / 64] |= 1 << (l % 64);
    }

    /// Maps a world point to its voxel index, or `None` outside the grid.
    fn world_to_index(&self, p: Vec3) -> Option<(usize, usize, usize)> {
        let min = self.root.min_corner();
        let size = self.root.half * 2.0;
        let f = |v: f32, lo: f32, ext: f32| -> Option<usize> {
            if ext <= 0.0 {
                return None;
            }
            let t = (v - lo) / ext;
            if !(0.0..1.0).contains(&t) {
                // Allow the exact max corner to land in the last voxel.
                if (t - 1.0).abs() < 1e-6 {
                    return Some(self.resolution - 1);
                }
                return None;
            }
            Some(((t * self.resolution as f32) as usize).min(self.resolution - 1))
        };
        Some((
            f(p.x, min.x, size.x)?,
            f(p.y, min.y, size.y)?,
            f(p.z, min.z, size.z)?,
        ))
    }

    /// The AABB of voxel `(ix, iy, iz)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    fn voxel_aabb(&self, ix: usize, iy: usize, iz: usize) -> AabbF {
        assert!(
            ix < self.resolution && iy < self.resolution && iz < self.resolution,
            "voxel index out of range"
        );
        let vs = self.voxel_size();
        let min = self.root.min_corner();
        let center = Vec3::new(
            min.x + (ix as f32 + 0.5) * vs.x,
            min.y + (iy as f32 + 0.5) * vs.y,
            min.z + (iz as f32 + 0.5) * vs.z,
        );
        AabbF::new(center, vs * 0.5)
    }

    /// Whether the voxel containing `p` is occupied (false outside the grid).
    pub fn is_occupied_at(&self, p: Vec3) -> bool {
        self.world_to_index(p)
            .map(|(x, y, z)| self.get(x, y, z))
            .unwrap_or(false)
    }

    /// Marks every voxel overlapping the obstacle box as occupied.
    pub fn rasterize_aabb(&mut self, obstacle: &AabbF) {
        let Some(range) = self.index_range(obstacle) else {
            return;
        };
        for iz in range.2.clone() {
            for iy in range.1.clone() {
                for ix in range.0.clone() {
                    if self.voxel_aabb(ix, iy, iz).overlaps(obstacle) {
                        self.set(ix, iy, iz);
                    }
                }
            }
        }
    }

    /// Voxel indices overlapped by an OBB — the robot-side rasterization the
    /// CODAcc comparison needs (an OBB is "converted to occupied voxels, and
    /// read requests ... are sent to memory", §7.2.2). Returns the number of
    /// voxels; this scales ~8× when the voxel size halves, which is the
    /// scalability problem the paper's separating-axis design avoids.
    pub fn rasterize_obb(&self, obb: &Obb<f32>) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        let Some(range) = self.index_range(&obb.enclosing_aabb()) else {
            return out;
        };
        // The OBB side of the 15 axis tests is sweep-invariant; hoist it
        // once (verdicts stay bit-identical to per-pair `sat::overlaps`).
        let consts = SatConsts::new(obb);
        for iz in range.2.clone() {
            for iy in range.1.clone() {
                for ix in range.0.clone() {
                    let v = self.voxel_aabb(ix, iy, iz);
                    if sat_overlaps_hoisted(&consts, obb.center, &v) {
                        out.push((ix, iy, iz));
                    }
                }
            }
        }
        out
    }

    /// Number of occupied voxels.
    pub fn occupied_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Index ranges of voxels possibly overlapping `b`, clipped to the grid.
    #[allow(clippy::type_complexity)]
    fn index_range(
        &self,
        b: &AabbF,
    ) -> Option<(
        core::ops::RangeInclusive<usize>,
        core::ops::RangeInclusive<usize>,
        core::ops::RangeInclusive<usize>,
    )> {
        if !self.root.overlaps(b) {
            return None;
        }
        let clip = |v: f32, lo: f32, ext: f32| -> usize {
            let t = ((v - lo) / ext).clamp(0.0, 1.0 - 1e-6);
            ((t * self.resolution as f32) as usize).min(self.resolution - 1)
        };
        let min = self.root.min_corner();
        let size = self.root.half * 2.0;
        let bmin = b.min_corner();
        let bmax = b.max_corner();
        Some((
            clip(bmin.x, min.x, size.x)..=clip(bmax.x, min.x, size.x),
            clip(bmin.y, min.y, size.y)..=clip(bmax.y, min.y, size.y),
            clip(bmin.z, min.z, size.z)..=clip(bmax.z, min.z, size.z),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_geometry::{Aabb, Mat3};

    fn unit_grid(res: usize) -> VoxelGrid {
        VoxelGrid::new(Aabb::new(Vec3::zero(), Vec3::splat(1.0)), res)
    }

    #[test]
    fn new_grid_is_empty() {
        let g = unit_grid(16);
        assert_eq!(g.occupied_count(), 0);
        assert!(!g.get(0, 0, 0));
        assert!(!g.is_occupied_at(Vec3::zero()));
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_rejected() {
        let _ = unit_grid(0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut g = unit_grid(8);
        g.set(1, 2, 3);
        assert!(g.get(1, 2, 3));
        assert!(!g.get(3, 2, 1));
        assert_eq!(g.occupied_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let g = unit_grid(8);
        let _ = g.get(8, 0, 0);
    }

    #[test]
    fn world_to_index_maps_corners() {
        let g = unit_grid(4);
        assert_eq!(g.world_to_index(Vec3::splat(-1.0)), Some((0, 0, 0)));
        assert_eq!(g.world_to_index(Vec3::splat(1.0)), Some((3, 3, 3)));
        assert_eq!(g.world_to_index(Vec3::splat(0.0)), Some((2, 2, 2)));
        assert_eq!(g.world_to_index(Vec3::splat(1.5)), None);
    }

    #[test]
    fn voxel_aabbs_tile_the_root() {
        let g = unit_grid(4);
        let mut vol = 0.0;
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    vol += g.voxel_aabb(x, y, z).volume();
                }
            }
        }
        assert!((vol - g.root_aabb().volume()).abs() < 1e-3);
    }

    #[test]
    fn rasterized_obstacle_covers_its_interior() {
        let mut g = unit_grid(32);
        let obs = Aabb::new(Vec3::new(0.3, -0.2, 0.5), Vec3::new(0.1, 0.15, 0.05));
        g.rasterize_aabb(&obs);
        assert!(g.occupied_count() > 0);
        for dx in [-0.9f32, 0.0, 0.9] {
            let p = obs.center + Vec3::new(dx * obs.half.x, 0.0, 0.0);
            assert!(g.is_occupied_at(p));
        }
        assert!(!g.is_occupied_at(Vec3::new(-0.9, 0.9, -0.9)));
    }

    #[test]
    fn rasterize_outside_root_is_noop() {
        let mut g = unit_grid(8);
        g.rasterize_aabb(&Aabb::new(Vec3::splat(5.0), Vec3::splat(0.1)));
        assert_eq!(g.occupied_count(), 0);
    }

    #[test]
    fn obb_rasterization_scales_with_resolution() {
        // §7.2.2: halving the voxel size grows the voxel count ~5-8x.
        let obb = Obb::new(
            Vec3::new(0.1, 0.0, 0.0),
            Vec3::new(0.25, 0.06, 0.06),
            Mat3::rotation_z(0.4),
        );
        let coarse = unit_grid(32).rasterize_obb(&obb).len();
        let fine = unit_grid(64).rasterize_obb(&obb).len();
        assert!(coarse > 0);
        let ratio = fine as f32 / coarse as f32;
        assert!(
            (3.0..=10.0).contains(&ratio),
            "expected ~5-8x growth, got {ratio} ({coarse} -> {fine})"
        );
    }

    #[test]
    fn storage_matches_paper_figures() {
        // 64^3 bits = 32 KB — the §7.2.2 voxelized-environment number.
        assert_eq!(unit_grid(64).storage_bytes(), 32 * 1024);
    }
}
