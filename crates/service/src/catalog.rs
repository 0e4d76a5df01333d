//! The plan catalog: every (scene, query, tier) combination planned once.
//!
//! The service simulates *thousands* of requests against a handful of
//! distinct planning problems. Planning each (scene, query) at each
//! quality tier once — up front, in parallel, with seeds derived from the
//! (scene, query, tier) coordinates alone — gives the event loop exact
//! deterministic service times and solve outcomes as O(1) lookups, the
//! same trick the benchmark engine uses for its trace corpus. An arriving
//! request references a catalog key; dispatching it at tier T costs the
//! modeled time recorded here.

use mp_collision::SoftwareChecker;
use mp_octree::{Octree, Scene};
use mp_planner::queries::generate_queries;
use mp_planner::sampler::OracleSampler;
use mp_planner::{plan_at_tier_with_path, PlanCertifier, QualityTier};
use mp_robot::RobotModel;
use mp_sim::vtime::{VirtualNs, NS_PER_US};
use mp_telemetry::{self as telemetry, arg1, ArgValue, TelemetrySession};
use threadpool::ThreadPool;

/// The planned outcome of one (scene, query, tier) combination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CatalogEntry {
    /// Whether the tier produced a collision-free path.
    pub solved: bool,
    /// Modeled accelerator time for the attempt (µs).
    pub modeled_us: f64,
    /// CD pose queries spent.
    pub cd_queries: u64,
    /// Neural inferences spent.
    pub nn_calls: u64,
    /// Dynamic CD datapath energy the attempt spent (pJ), from the
    /// planner's counter-delta attribution (`TierOutcome::energy_pj`).
    pub energy_pj: f64,
    /// Software pose queries an independent certification of the
    /// returned plan costs (zero when unsolved — there is no plan).
    pub certify_queries: u64,
    /// Modeled host-CPU time (µs) for that certification pass.
    pub certify_us: f64,
}

/// A modeled time in µs as the event loop's virtual ns: rounded to the
/// nearest ns, at least 1.
pub(crate) fn us_to_ns(us: f64) -> VirtualNs {
    (us * NS_PER_US as f64).round().max(1.0) as VirtualNs
}

/// A precomputed catalog of planning outcomes, indexed by
/// `(key, tier)` where `key` enumerates (scene, query) pairs.
#[derive(Clone, Debug)]
pub struct PlanCatalog {
    entries: Vec<[CatalogEntry; QualityTier::COUNT]>,
    /// Per entry, `[us_to_ns(modeled_us), us_to_ns(certify_us)]`,
    /// converted once at build so the event loop reads integers.
    times_ns: Vec<[[VirtualNs; 2]; QualityTier::COUNT]>,
    mean_us: [f64; QualityTier::COUNT],
}

impl PlanCatalog {
    /// Plans every (scene, query, tier) combination and builds the
    /// catalog. Scenes fan out over `pool` (results are collected in
    /// scene order, so the catalog is identical for any thread count);
    /// all randomness derives from `(seed, scene, query, tier)`.
    ///
    /// # Errors
    ///
    /// Returns a message if a scene cannot yield valid queries.
    pub fn build(
        robot: &RobotModel,
        scenes: &[Scene],
        queries_per_scene: usize,
        seed: u64,
        pool: &ThreadPool,
    ) -> Result<PlanCatalog, String> {
        PlanCatalog::build_inner(robot, scenes, queries_per_scene, seed, pool, None)
    }

    /// [`PlanCatalog::build`] with telemetry: each scene's planning work
    /// records into its own `("catalog", scene_index)` stream of
    /// `session`, so the planner/collision spans from the build are
    /// identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns a message if a scene cannot yield valid queries.
    pub fn build_traced(
        robot: &RobotModel,
        scenes: &[Scene],
        queries_per_scene: usize,
        seed: u64,
        pool: &ThreadPool,
        session: &TelemetrySession,
    ) -> Result<PlanCatalog, String> {
        PlanCatalog::build_inner(robot, scenes, queries_per_scene, seed, pool, Some(session))
    }

    fn build_inner(
        robot: &RobotModel,
        scenes: &[Scene],
        queries_per_scene: usize,
        seed: u64,
        pool: &ThreadPool,
        session: Option<&TelemetrySession>,
    ) -> Result<PlanCatalog, String> {
        let per_scene: Vec<Result<Vec<[CatalogEntry; QualityTier::COUNT]>, String>> =
            pool.map(scenes, |si, scene| {
                let _stream = session.map(|s| s.install("catalog", si as u32));
                let queries = generate_queries(
                    robot,
                    scene,
                    queries_per_scene,
                    seed.wrapping_mul(0x9E37_79B9).wrapping_add(si as u64),
                )
                .map_err(|e| format!("scene {si}: {e}"))?;
                // One octree per depth the ladder uses, shared across the
                // scene's queries.
                let depths: Vec<Octree> = QualityTier::LADDER
                    .iter()
                    .map(|t| Octree::build(scene.obstacles(), t.octree_depth()))
                    .collect();
                // The certifier's octree is built independently of the
                // planner's (same obstacle list, fresh build at the
                // paper-default depth): certification costs recorded in
                // the catalog are the real software-cascade costs of the
                // produced paths.
                let mut certifier = PlanCertifier::new(robot.clone(), scene.obstacles(), 4);
                // Tier-major build: all of the scene's queries are planned
                // at one tier, one after another, on one shared checker,
                // so the octree clone and the checker's traversal state
                // are paid once per (scene, tier) instead of once per
                // (query, tier). Seeds depend only on the (scene, query,
                // tier) coordinates, and every planner counts its work as
                // the checker's counter delta, so each entry is the one a
                // fresh checker would produce.
                let mut rows = vec![
                    [CatalogEntry {
                        solved: false,
                        modeled_us: 0.0,
                        cd_queries: 0,
                        nn_calls: 0,
                        energy_pj: 0.0,
                        certify_queries: 0,
                        certify_us: 0.0,
                    }; QualityTier::COUNT];
                    queries.len()
                ];
                for tier in QualityTier::LADDER {
                    let tier_span = telemetry::span_args(
                        "catalog",
                        "tier_batch",
                        arg1("tier", ArgValue::Str(tier.label())),
                    );
                    let mut checker =
                        SoftwareChecker::new(robot.clone(), depths[tier.index()].clone());
                    for (qi, q) in queries.iter().enumerate() {
                        let qseed = seed
                            .wrapping_mul(0x85EB_CA6B)
                            .wrapping_add((si * 10_000 + qi * 10 + tier.index()) as u64);
                        let mut sampler = OracleSampler::new(robot.clone(), qseed);
                        let (out, path) = plan_at_tier_with_path(
                            &mut checker,
                            &mut sampler,
                            &q.start,
                            &q.goal,
                            tier,
                            qseed,
                        );
                        let cert = path.filter(|_| out.solved).map(|p| certifier.certify(&p));
                        rows[qi][tier.index()] = CatalogEntry {
                            solved: out.solved,
                            modeled_us: out.modeled_us,
                            cd_queries: out.cd_queries,
                            nn_calls: out.nn_calls,
                            energy_pj: out.energy_pj,
                            certify_queries: cert.map_or(0, |c| c.cd_queries),
                            certify_us: cert.map_or(0.0, |c| c.modeled_us),
                        };
                    }
                    drop(tier_span);
                }
                Ok(rows)
            });
        let mut entries = Vec::new();
        for scene_rows in per_scene {
            entries.extend(scene_rows?);
        }
        if entries.is_empty() {
            return Err("catalog has no (scene, query) entries".to_string());
        }
        let mut mean_us = [0.0f64; QualityTier::COUNT];
        for row in &entries {
            for (acc, e) in mean_us.iter_mut().zip(row.iter()) {
                *acc += e.modeled_us;
            }
        }
        for m in &mut mean_us {
            *m /= entries.len() as f64;
        }
        let times_ns = entries
            .iter()
            .map(|row| row.map(|e| [us_to_ns(e.modeled_us), us_to_ns(e.certify_us)]))
            .collect();
        Ok(PlanCatalog {
            entries,
            times_ns,
            mean_us,
        })
    }

    /// Number of distinct (scene, query) keys.
    pub fn num_keys(&self) -> usize {
        self.entries.len()
    }

    /// The planned outcome for a key at a tier.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn entry(&self, key: usize, tier: QualityTier) -> &CatalogEntry {
        &self.entries[key][tier.index()]
    }

    /// Service time (ns) of `key` at ladder index `tier_idx`, before any
    /// fault slowdown: the entry's `modeled_us` in virtual ns.
    pub(crate) fn service_ns(&self, key: usize, tier_idx: usize) -> VirtualNs {
        self.times_ns[key][tier_idx][0]
    }

    /// Certification time (ns) of `key`'s plan at ladder index
    /// `tier_idx`: the entry's `certify_us` in virtual ns.
    pub(crate) fn certify_ns(&self, key: usize, tier_idx: usize) -> VirtualNs {
        self.times_ns[key][tier_idx][1]
    }

    /// Mean modeled service time at a tier (µs) — the capacity planning
    /// figure: one instance saturates at `1e6 / mean_service_us(Full)`
    /// requests per second of full-quality traffic.
    pub fn mean_service_us(&self, tier: QualityTier) -> f64 {
        self.mean_us[tier.index()]
    }

    /// Offered rate (requests/s) that saturates a pool of `instances`
    /// serving everything at full quality.
    pub fn saturating_rate_per_s(&self, instances: usize) -> f64 {
        instances as f64 * 1e6 / self.mean_service_us(QualityTier::Full).max(1e-9)
    }

    /// Mean dynamic CD energy per planning attempt at a tier (pJ) — the
    /// energy-side analogue of [`PlanCatalog::mean_service_us`], used by
    /// capacity planning to trade joules against deadline slack.
    pub fn mean_energy_pj(&self, tier: QualityTier) -> f64 {
        let sum: f64 = self
            .entries
            .iter()
            .map(|row| row[tier.index()].energy_pj)
            .sum();
        sum / self.entries.len() as f64
    }

    /// Mean certification cost over the keys the tier solves (µs) — the
    /// per-plan host-CPU overhead the integrity pipeline pays. Zero when
    /// the tier solves nothing.
    pub fn mean_certify_us(&self, tier: QualityTier) -> f64 {
        let (mut sum, mut n) = (0.0f64, 0u64);
        for row in &self.entries {
            let e = &row[tier.index()];
            if e.solved {
                sum += e.certify_us;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Fraction of keys the tier solves.
    pub fn solve_rate(&self, tier: QualityTier) -> f64 {
        let solved = self
            .entries
            .iter()
            .filter(|row| row[tier.index()].solved)
            .count();
        solved as f64 / self.num_keys() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_octree::benchmark_scenes;

    fn small_catalog(threads: usize) -> PlanCatalog {
        let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(2).collect();
        PlanCatalog::build(
            &RobotModel::jaco2(),
            &scenes,
            2,
            7,
            &ThreadPool::new(threads),
        )
        .expect("catalog builds")
    }

    #[test]
    fn catalog_is_thread_count_invariant() {
        let a = small_catalog(1);
        let b = small_catalog(4);
        assert_eq!(a.num_keys(), b.num_keys());
        for key in 0..a.num_keys() {
            for tier in QualityTier::LADDER {
                assert_eq!(a.entry(key, tier), b.entry(key, tier), "key {key}");
            }
        }
    }

    #[test]
    fn catalog_has_sane_costs_and_capacity() {
        let c = small_catalog(2);
        assert_eq!(c.num_keys(), 4);
        for tier in QualityTier::LADDER {
            assert!(c.mean_service_us(tier) > 0.0);
            assert!(c.mean_energy_pj(tier) > 0.0);
        }
        // Degraded tiers must be cheaper on average than full quality —
        // the premise of the whole degradation ladder.
        assert!(c.mean_service_us(QualityTier::Coarse) < c.mean_service_us(QualityTier::Full));
        assert!(c.saturating_rate_per_s(4) > 0.0);
        // Full quality solves most benchmark queries.
        assert!(c.solve_rate(QualityTier::Full) >= 0.5);
        // Every solved plan carries a measured certification cost.
        for key in 0..c.num_keys() {
            for tier in QualityTier::LADDER {
                let e = c.entry(key, tier);
                if e.solved {
                    assert!(e.certify_queries > 0, "key {key} {}", tier.label());
                    assert!(e.certify_us > 0.0);
                } else {
                    assert_eq!(e.certify_queries, 0);
                }
            }
        }
        assert!(c.mean_certify_us(QualityTier::Full) > 0.0);
    }

    #[test]
    fn integer_times_equal_the_rounded_entries() {
        let c = small_catalog(1);
        for key in 0..c.num_keys() {
            for tier in QualityTier::LADDER {
                let e = c.entry(key, tier);
                assert_eq!(c.service_ns(key, tier.index()), us_to_ns(e.modeled_us));
                assert_eq!(c.certify_ns(key, tier.index()), us_to_ns(e.certify_us));
            }
        }
        assert_eq!(us_to_ns(0.0), 1, "a zero time still advances the clock");
        assert_eq!(us_to_ns(1.2345), 1_235);
    }
}
