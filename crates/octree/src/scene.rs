//! Randomized environment scenarios matching the paper's benchmarks.
//!
//! §6: "We use ten environmental scenarios with 100 pairs of start and end
//! goals per each environmental scenario. Each sample environment contains
//! 5–9 randomly placed cuboid-shaped obstacles. The size of these obstacles
//! in each dimension is limited to 3%–12% of the environment's extent."

use mp_geometry::{Aabb, AabbF, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::octree::Octree;
use crate::voxel::VoxelGrid;

/// Range of obstacle size per dimension as a fraction of the
/// environment's extent (paper: 3%–12%).
const SIZE_FRACTION: (f32, f32) = (0.03, 0.12);

/// Obstacles are kept at least this far from the robot's mount column so
/// the robot's base is never embedded in an obstacle.
const CLEAR_RADIUS: f32 = 0.3;

/// Parameters of the random scene generator. Every scene draws obstacle
/// sizes from the paper's 3%–12% of the environment's extent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SceneConfig {
    /// Inclusive range of obstacle counts (paper: 5–9).
    pub obstacle_count: (usize, usize),
    /// Octree depth used by [`Scene::octree`].
    pub octree_depth: u32,
}

impl SceneConfig {
    /// The paper's benchmark configuration.
    pub fn paper() -> SceneConfig {
        SceneConfig {
            obstacle_count: (5, 9),
            octree_depth: 4,
        }
    }

    /// Like [`SceneConfig::paper`] but with a fixed obstacle count — used by
    /// the environment-complexity sweep of Fig 18.
    pub fn with_obstacles(n: usize) -> SceneConfig {
        SceneConfig {
            obstacle_count: (n, n),
            ..SceneConfig::paper()
        }
    }
}

impl Default for SceneConfig {
    fn default() -> SceneConfig {
        SceneConfig::paper()
    }
}

/// A generated environment: the obstacle set plus the config that made it.
///
/// # Examples
///
/// ```
/// use mp_octree::{Scene, SceneConfig};
///
/// let scene = Scene::random(SceneConfig::paper(), 7);
/// assert!((5..=9).contains(&scene.obstacles().len()));
/// let tree = scene.octree();
/// assert!(tree.node_count() >= 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Scene {
    obstacles: Vec<AabbF>,
    config: SceneConfig,
    seed: u64,
}

impl Scene {
    /// Generates a random scene from a seed (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the obstacle count range is empty or inverted.
    pub fn random(config: SceneConfig, seed: u64) -> Scene {
        assert!(
            config.obstacle_count.0 >= 1 && config.obstacle_count.0 <= config.obstacle_count.1,
            "invalid obstacle count range {:?}",
            config.obstacle_count
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(config.obstacle_count.0..=config.obstacle_count.1);
        let mut obstacles = Vec::with_capacity(n);
        // The environment is the normalized [-1, 1]^3 cube, extent = 2.
        // A size fraction f gives a full side of 2f, i.e. half-extent f.
        let (lo, hi) = SIZE_FRACTION;
        while obstacles.len() < n {
            let half = Vec3::new(
                rng.gen_range(lo..=hi),
                rng.gen_range(lo..=hi),
                rng.gen_range(lo..=hi),
            );
            let center = Vec3::new(
                rng.gen_range(-1.0 + half.x..=1.0 - half.x),
                rng.gen_range(-1.0 + half.y..=1.0 - half.y),
                rng.gen_range(-1.0 + half.z..=1.0 - half.z),
            );
            let b = Aabb::new(center, half);
            // Keep the robot's mount region free: a vertical column from
            // the origin up to z = 0.4 (both evaluation arms keep their
            // immobile base link inside it).
            let too_close = (0..=4).any(|i| {
                let p = Vec3::new(0.0, 0.0, 0.1 * i as f32);
                (b.closest_point(p) - p).length() < CLEAR_RADIUS
            });
            if too_close {
                continue;
            }
            obstacles.push(b);
        }
        Scene {
            obstacles,
            config,
            seed,
        }
    }

    /// Builds a scene directly from explicit obstacles. Its config records
    /// their count as a fixed count, as [`SceneConfig::with_obstacles`]
    /// would.
    pub fn from_obstacles(obstacles: Vec<AabbF>, octree_depth: u32) -> Scene {
        let n = obstacles.len();
        Scene {
            obstacles,
            config: SceneConfig {
                obstacle_count: (n, n),
                octree_depth,
            },
            seed: 0,
        }
    }

    /// The obstacle boxes.
    pub fn obstacles(&self) -> &[AabbF] {
        &self.obstacles
    }

    /// The generator configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the environment octree (what the mapping accelerator of
    /// Jia et al. would stream to MPAccel).
    pub fn octree(&self) -> Octree {
        Octree::build(&self.obstacles, self.config.octree_depth)
    }

    /// Rasterizes the obstacles into a dense voxel grid (the CODAcc-style
    /// environment representation).
    pub fn voxel_grid(&self, resolution: usize) -> VoxelGrid {
        let mut g = VoxelGrid::new(Aabb::new(Vec3::zero(), Vec3::splat(1.0)), resolution);
        for o in &self.obstacles {
            g.rasterize_aabb(o);
        }
        g
    }
}

/// The ten benchmark scenes of §6 (seeds 0..10 of the paper config).
pub fn benchmark_scenes() -> Vec<Scene> {
    (0..10)
        .map(|seed| Scene::random(SceneConfig::paper(), seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scene::random(SceneConfig::paper(), 42);
        let b = Scene::random(SceneConfig::paper(), 42);
        assert_eq!(a, b);
        let c = Scene::random(SceneConfig::paper(), 43);
        assert_ne!(a.obstacles(), c.obstacles());
    }

    #[test]
    fn obstacles_respect_config_bounds() {
        for seed in 0..20 {
            let s = Scene::random(SceneConfig::paper(), seed);
            assert!((5..=9).contains(&s.obstacles().len()));
            for o in s.obstacles() {
                for i in 0..3 {
                    assert!(o.half[i] >= 0.03 - 1e-6 && o.half[i] <= 0.12 + 1e-6);
                }
                // Inside the environment.
                assert!(o.min_corner().min_element() >= -1.0 - 1e-6);
                assert!(o.max_corner().max_element() <= 1.0 + 1e-6);
                // Outside the clear radius.
                assert!(o.closest_point(Vec3::zero()).length() >= 0.3 - 1e-6);
            }
        }
    }

    #[test]
    fn fixed_count_config() {
        let s = Scene::random(SceneConfig::with_obstacles(12), 3);
        assert_eq!(s.obstacles().len(), 12);
    }

    #[test]
    fn benchmark_suite_has_ten_distinct_scenes() {
        let scenes = benchmark_scenes();
        assert_eq!(scenes.len(), 10);
        for w in scenes.windows(2) {
            assert_ne!(w[0].obstacles(), w[1].obstacles());
        }
    }

    #[test]
    fn octrees_typically_fit_hardware_budget() {
        // The paper stores benchmark octrees in 0.75 KB SRAM (≤256 nodes);
        // our default depth-4 trees must fit for the benchmark suite.
        for s in benchmark_scenes() {
            let t = s.octree();
            assert!(
                t.fits_hardware(),
                "scene {} needs {} nodes",
                s.seed(),
                t.node_count()
            );
        }
    }

    #[test]
    fn octree_and_voxel_grid_agree_on_obstacle_centers() {
        let s = Scene::random(SceneConfig::paper(), 5);
        let t = s.octree();
        let g = s.voxel_grid(64);
        for o in s.obstacles() {
            assert!(t.contains_point(o.center));
            assert!(g.is_occupied_at(o.center));
        }
    }

    #[test]
    fn explicit_scenes_record_their_own_obstacle_count() {
        let boxes = vec![Aabb::new(Vec3::zero(), Vec3::splat(0.1)); 2];
        let s = Scene::from_obstacles(boxes, 3);
        assert_eq!(
            *s.config(),
            SceneConfig {
                obstacle_count: (2, 2),
                octree_depth: 3
            }
        );
        let empty = Scene::from_obstacles(Vec::new(), 5);
        assert_eq!(empty.config().obstacle_count, (0, 0));
    }

    #[test]
    #[should_panic(expected = "invalid obstacle count")]
    fn empty_count_range_rejected() {
        let cfg = SceneConfig {
            obstacle_count: (0, 0),
            ..SceneConfig::paper()
        };
        let _ = Scene::random(cfg, 0);
    }
}
