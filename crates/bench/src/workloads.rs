//! Shared workload construction for the experiment harness.

use std::sync::Arc;

use mp_collision::SoftwareChecker;
use mp_geometry::{AabbF, Obb};
use mp_octree::{benchmark_scenes, Octree, Scene};
use mp_planner::mpnet::{plan, MpnetConfig};
use mp_planner::queries::generate_queries;
use mp_planner::sampler::OracleSampler;
use mp_robot::{MotionDescriptor, RobotModel};
use mpaccel_core::sas::FunctionMode;
use mpaccel_core::trace::{PlannerTrace, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use threadpool::ThreadPool;

/// Workload scale: `quick` for tests/CI, `full` for paper-scale runs
/// (10 scenes × 100 queries, §6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Small workloads (seconds).
    #[default]
    Quick,
    /// Paper-scale workloads (minutes to hours).
    Full,
}

impl Scale {
    /// Reads `MPACCEL_BENCH_SCALE` (`quick`/`full`), defaulting to quick
    /// when it is unset.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values when the variable
    /// holds anything else, so a typo never runs the wrong suite silently.
    pub fn from_env() -> Result<Scale, String> {
        Scale::from_var(std::env::var("MPACCEL_BENCH_SCALE").ok().as_deref())
    }

    fn from_var(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("quick") => Ok(Scale::Quick),
            Some("full") | Some("FULL") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "MPACCEL_BENCH_SCALE=`{other}` is not one of quick|full"
            )),
        }
    }

    /// Number of benchmark scenes.
    pub fn scenes(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Full => 10,
        }
    }

    /// Planning queries per scene.
    pub fn queries_per_scene(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 100,
        }
    }

    /// Random pose samples for collision-detection microbenchmarks.
    pub fn cd_samples(self) -> usize {
        match self {
            Scale::Quick => 400,
            Scale::Full => 5000,
        }
    }
}

/// One collision-detection batch extracted from a planner trace.
#[derive(Clone, Debug, PartialEq)]
pub struct CdBatchSpec {
    /// Index of the scene the batch ran against.
    pub scene: usize,
    /// Motions in schedule order.
    pub motions: Vec<MotionDescriptor>,
    /// SAS function mode.
    pub mode: FunctionMode,
}

/// A full benchmark workload: scenes, their prebuilt octrees, planner
/// traces, and the CD batches they contain.
#[derive(Debug)]
pub struct BenchWorkload {
    /// The robot under evaluation.
    pub robot: RobotModel,
    /// Benchmark scenes (subset of the §6 suite at quick scale).
    pub scenes: Vec<Scene>,
    /// One prebuilt octree per scene. Experiments replay thousands of CD
    /// batches against the same handful of environments; building each
    /// scene's tree once here (instead of per batch) removes the dominant
    /// redundant setup cost of a full evaluation run.
    octrees: Vec<Octree>,
    /// Per-query planner traces, tagged with their scene index.
    pub traces: Vec<(usize, PlannerTrace)>,
    /// All CD batches of all traces.
    pub batches: Vec<CdBatchSpec>,
}

impl BenchWorkload {
    /// Returns the shared workload for a robot/scale, building it at most
    /// once per process. Trace generation (planning hundreds of queries)
    /// dominates experiment setup; every experiment shares the cached
    /// instance through the returned [`Arc`] without deep-copying scenes
    /// or traces.
    ///
    /// Two callers with the same `(robot, scale)` observe the identical
    /// workload object.
    pub fn cached(robot: RobotModel, scale: Scale) -> Arc<BenchWorkload> {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        // Two-level locking: the map mutex is held only to look up or
        // insert a per-key slot, never during a build, so concurrent
        // experiments building *different* workloads (e.g. Jaco2 and
        // Baxter) do not serialize; same-key callers block inside the
        // slot's `OnceLock` until the one build finishes.
        type Slot = Arc<OnceLock<Arc<BenchWorkload>>>;
        type Cache = Mutex<HashMap<(String, Scale), Slot>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (robot.name().to_string(), scale);
        let slot = Arc::clone(
            cache
                .lock()
                .expect("workload cache poisoned")
                .entry(key)
                .or_default(),
        );
        Arc::clone(slot.get_or_init(|| Arc::new(BenchWorkload::build(robot, scale))))
    }

    /// Builds the MPNet workload for a robot at the given scale. Every
    /// random stream (query generation, planner sampling) is derived from
    /// `(scene index, query index)` alone, so the corpus is identical
    /// however many threads build it.
    pub fn build(robot: RobotModel, scale: Scale) -> BenchWorkload {
        let scenes: Vec<Scene> = benchmark_scenes()
            .into_iter()
            .take(scale.scenes())
            .collect();
        let octrees: Vec<Octree> = scenes.iter().map(Scene::octree).collect();
        // Planning is embarrassingly parallel across scenes; full-scale
        // workloads (10 scenes x 100 queries) benefit substantially. The
        // pool honours MPACCEL_THREADS and returns per-scene results in
        // scene order, so the corpus is independent of the thread count.
        let pool = ThreadPool::from_env();
        let per_scene: Vec<Vec<PlannerTrace>> = pool.map(&scenes, |si, scene| {
            let queries =
                generate_queries(&robot, scene, scale.queries_per_scene(), 90 + si as u64)
                    .expect("benchmark scenes yield valid queries");
            // All of a scene's queries are planned one after another on
            // one shared checker: the octree clone and traversal buffers
            // are paid once per scene, and each query's trace is the one
            // a fresh checker would record.
            let mut checker = SoftwareChecker::new(robot.clone(), octrees[si].clone());
            queries
                .iter()
                .enumerate()
                .map(|(qi, q)| {
                    let qseed = (si * 1000 + qi) as u64;
                    let cfg = MpnetConfig {
                        seed: qseed,
                        ..MpnetConfig::default()
                    };
                    let mut sampler = OracleSampler::new(robot.clone(), qseed);
                    plan(&mut checker, &mut sampler, &q.start, &q.goal, &cfg).trace
                })
                .collect()
        });
        let mut traces = Vec::new();
        let mut batches = Vec::new();
        for (si, scene_traces) in per_scene.into_iter().enumerate() {
            for trace in scene_traces {
                for e in &trace.events {
                    if let TraceEvent::CdBatch { motions, mode } = e {
                        if !motions.is_empty() {
                            batches.push(CdBatchSpec {
                                scene: si,
                                motions: motions.clone(),
                                mode: *mode,
                            });
                        }
                    }
                }
                traces.push((si, trace));
            }
        }
        BenchWorkload {
            robot,
            scenes,
            octrees,
            traces,
            batches,
        }
    }

    /// Octree of scene `i` (a cheap clone of the prebuilt tree).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn octree(&self, i: usize) -> Octree {
        self.octrees[i].clone()
    }

    /// Total poses across all batches (upper bound on CD queries).
    pub fn total_poses(&self) -> u64 {
        self.batches
            .iter()
            .flat_map(|b| &b.motions)
            .map(|m| m.count as u64)
            .sum()
    }
}

/// Collects the actual OBB–AABB test pairs an OBB–octree traversal
/// generates for random link-sized OBBs — the §4/Fig 8 test population
/// ("collision detection tests between OBBs for random poses of the
/// Jaco2 robot and octree for random environmental scenarios").
pub fn collect_test_pairs(octree: &Octree, n_queries: usize, seed: u64) -> Vec<(Obb<f32>, AabbF)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    for _ in 0..n_queries {
        let obb = mp_baselines::workload::random_link_obb(&mut rng);
        let mut record = |aabb: &AabbF| {
            pairs.push((obb, *aabb));
            mp_geometry::sat::overlaps(&obb, aabb)
        };
        let _ = octree.collides_with(&mut record);
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_quick() {
        assert_eq!(Scale::default(), Scale::Quick);
        assert!(Scale::Quick.scenes() <= Scale::Full.scenes());
    }

    #[test]
    fn scale_variable_accepts_quick_or_full_only() {
        assert_eq!(Scale::from_var(None), Ok(Scale::Quick));
        assert_eq!(Scale::from_var(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::from_var(Some("full")), Ok(Scale::Full));
        assert_eq!(Scale::from_var(Some("FULL")), Ok(Scale::Full));
        let err = Scale::from_var(Some("ful")).unwrap_err();
        assert!(err.contains("`ful`") && err.contains("quick|full"), "{err}");
    }

    #[test]
    fn workload_builds_with_batches() {
        let w = BenchWorkload::build(RobotModel::jaco2(), Scale::Quick);
        assert_eq!(w.scenes.len(), Scale::Quick.scenes());
        assert!(!w.traces.is_empty());
        assert!(!w.batches.is_empty());
        assert!(w.total_poses() > 100);
        // Both function modes appear (feasibility always; connectivity when
        // shortcutting had candidates).
        assert!(w
            .batches
            .iter()
            .any(|b| b.mode == FunctionMode::Feasibility));
    }

    #[test]
    fn test_pairs_population_is_nonempty_and_mixed() {
        let tree = Scene::random(mp_octree::SceneConfig::paper(), 0).octree();
        let pairs = collect_test_pairs(&tree, 200, 3);
        assert!(pairs.len() > 200);
        let hits = pairs
            .iter()
            .filter(|(o, a)| mp_geometry::sat::overlaps(o, a))
            .count();
        // The traversal only descends where hits occur, so a healthy mix.
        assert!(hits > 0 && hits < pairs.len());
    }
}
