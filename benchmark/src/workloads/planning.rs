//! What the two planning workloads share: the output record, the
//! certification gate, the deterministic accounting and the per-layer
//! breakdown of a planning query.

use std::collections::HashMap;
use std::time::Instant;

use mp_collision::CdStats;
use mp_octree::Scene;
use mp_planner::queries::generate_queries;
use mp_planner::PlanCertifier;
use mp_robot::fk::link_obbs_into;
use mp_robot::{JointConfig, RobotModel, TrigMode};

use super::{add, ratio, replay_ns_per_item, Det, LayerValues};
use crate::trace::{Layer, Recorded};
use crate::{derive, percentile};

/// One planning query: where, and from/to which configurations.
#[derive(Clone, Debug)]
pub struct Query {
    /// Index of the scene (plan_paper) or 0 (plan_clutter, whose scene
    /// rides in the input).
    pub scene: usize,
    /// Start configuration.
    pub start: JointConfig,
    /// Goal configuration.
    pub goal: JointConfig,
}

/// Queries for operations `start..start + n` on fixed `scenes`: operation
/// `i` plans in scene `i % scenes.len()`, and each scene's queries come in
/// seeded groups of `group` (seed stream `stream + scene`), so every
/// operation gets a query of its own.
pub fn scene_queries(
    robot: &RobotModel,
    scenes: &[Scene],
    group: u64,
    (seed, stream): (u64, u64),
    start: u64,
    n: usize,
) -> Vec<Query> {
    let count = scenes.len() as u64;
    let mut groups: HashMap<(u64, u64), Vec<mp_planner::queries::PlanningQuery>> = HashMap::new();
    (start..start + n as u64)
        .map(|i| {
            let (s, round) = (i % count, i / count);
            let g = groups.entry((s, round / group)).or_insert_with(|| {
                let group_seed = derive(seed, stream + s, round / group);
                generate_queries(robot, &scenes[s as usize], group as usize, group_seed)
                    .expect("the benchmark scenes always yield valid queries")
            });
            let q = &g[(round % group) as usize];
            Query {
                scene: s as usize,
                start: q.start.clone(),
                goal: q.goal.clone(),
            }
        })
        .collect()
}

/// What one planning query produced.
#[derive(Clone, Debug)]
pub struct PlanOut {
    /// The returned path, if solved.
    pub path: Option<Vec<JointConfig>>,
    /// The checker's counters for the query.
    pub cd: CdStats,
    /// Modeled dynamic energy of the query, pJ.
    pub energy_pj: f64,
    /// Modeled accelerator time of the query, µs.
    pub modeled_us: f64,
    /// Sampler inferences.
    pub nn_calls: u64,
    /// MPNet replanning insertions.
    pub replans: u64,
    /// Planner nodes: RRT tree nodes, or MPNet coarse waypoints.
    pub nodes: u64,
    /// Failure reason (empty when solved).
    pub failure: String,
    /// Octree of the query's scene (plan_clutter builds one per query).
    pub octree_nodes: u64,
    /// Flat-octree entries of that octree.
    pub octree_entries: u64,
}

/// Certification gate: a solved path must start and end at the query's
/// configurations and re-validate edge by edge through an independent
/// certifier (a fresh octree of the same scene).
pub struct Gate {
    robot: RobotModel,
    depth: u32,
    /// Host time spent certifying (ns).
    pub certify_ns: u64,
    /// Paths certified.
    pub certified: u64,
}

impl Gate {
    /// A gate certifying at octree `depth`.
    pub fn new(robot: RobotModel, depth: u32) -> Gate {
        Gate {
            robot,
            depth,
            certify_ns: 0,
            certified: 0,
        }
    }

    /// Checks one output against its query in a scene with `obstacles`;
    /// `certifier` caches the scene's certifier between calls. Paths are
    /// certified only when `thorough` is set.
    ///
    /// # Errors
    ///
    /// Names the violated property.
    pub fn check(
        &mut self,
        q: &Query,
        out: &PlanOut,
        obstacles: &[mp_geometry::AabbF],
        certifier: &mut Option<PlanCertifier>,
        thorough: bool,
    ) -> Result<(), String> {
        let Some(path) = &out.path else {
            return Ok(());
        };
        if path.first() != Some(&q.start) || path.last() != Some(&q.goal) {
            return Err("path endpoints differ from the query's".to_string());
        }
        if !thorough {
            return Ok(());
        }
        let cert = certifier
            .get_or_insert_with(|| PlanCertifier::new(self.robot.clone(), obstacles, self.depth));
        let t = Instant::now();
        let outcome = cert.certify(path);
        self.certify_ns += t.elapsed().as_nanos() as u64;
        self.certified += 1;
        if outcome.clean {
            Ok(())
        } else {
            Err(format!(
                "path fails certification at edge {:?}",
                outcome.first_bad_edge
            ))
        }
    }
}

/// Deterministic accounting of one planning query.
pub fn account(out: &PlanOut, det: &mut Det) {
    det.ops += 1;
    det.attempts += 1;
    det.ok += u64::from(out.path.is_some());
    det.plans += 1;
    det.plan_energy_pj += out.energy_pj;
    det.work += out.cd.pose_queries;
    det.work_energy_pj += out.cd.energy_pj();
    det.modeled_sum_us += out.modeled_us;
    det.modeled_n += 1;
    det.tail_us.push(out.modeled_us);
    det.count("checks", out.cd.pose_queries);
    det.count("solved", u64::from(out.path.is_some()));
    det.count("nn_calls", out.nn_calls);
    let h = &mut det.digest;
    h.u64(u64::from(out.path.is_some()));
    if let Some(p) = &out.path {
        h.u64(p.len() as u64);
        for w in p {
            h.f32s(w.as_slice());
        }
    }
    h.u64(out.cd.pose_queries);
    h.u64(out.cd.box_tests);
    h.u64(out.nn_calls);
    h.u64(out.replans);
    h.u64(out.nodes);
    h.f64(out.energy_pj);
    h.bytes(out.failure.as_bytes());
}

/// Per-layer sums of one traced planning query.
pub fn layer_account(out: &PlanOut, sums: &mut LayerValues) {
    add(sums, "checks", out.cd.pose_queries as f64);
    add(sums, "links", out.cd.link_tests as f64);
    add(sums, "box_tests", out.cd.box_tests as f64);
    add(sums, "nodes_visited", out.cd.nodes_visited as f64);
    add(sums, "mults", out.cd.mults as f64);
    add(sums, "cd_pj", out.cd.energy_pj());
    add(sums, "replans", out.replans as f64);
    add(sums, "planner_nodes", out.nodes as f64);
    add(sums, "octree_nodes", out.octree_nodes as f64);
    add(sums, "octree_entries", out.octree_entries as f64);
}

/// Host ns per pose of forward kinematics (`link_obbs_into`), replaying
/// the poses the sampled queries checked.
pub fn fk_ns_per_pose(robot: &RobotModel, poses: &[JointConfig], trig: TrigMode) -> f64 {
    let (mut frames, mut obbs) = (Vec::new(), Vec::new());
    replay_ns_per_item(poses, |p| {
        link_obbs_into(robot, p, trig, &mut frames, &mut obbs);
        std::hint::black_box(&obbs);
    })
}

/// The collision / robot / octree / geometry / planner breakdown of a
/// traced planning pass over `ops` queries.
pub fn layer_finish(
    rec: &Recorded,
    sums: &LayerValues,
    ops: u64,
    robot: &RobotModel,
    gate: &Gate,
) -> LayerValues {
    let get = |k: &str| sums.get(k).copied().unwrap_or(0.0);
    let ops = ops.max(1) as f64;
    let root_ns = rec.root_ns() as f64;
    let calls = rec.totals_calls[Layer::Check as usize] as f64;
    let check_ns = rec.totals_ns[Layer::Check as usize] as f64;
    let mut check_sorted = rec.check_ns.clone();
    check_sorted.sort_unstable();
    let checks = get("checks");
    let fk = fk_ns_per_pose(robot, &rec.poses, TrigMode::Exact);
    let walk = (ratio(check_ns, calls) - fk).max(0.0);
    let box_per_check = ratio(get("box_tests"), checks);
    let mut build_sorted: Vec<f64> = rec.build_ns.iter().map(|&n| n as f64).collect();
    build_sorted.sort_by(f64::total_cmp);
    let mut self_us: Vec<f64> = rec.roots.iter().map(|r| r.self_ns as f64 / 1e3).collect();
    self_us.sort_by(f64::total_cmp);
    let self_ns: u64 = rec.roots.iter().map(|r| r.self_ns).sum();
    let sample_calls = rec.totals_calls[Layer::Sample as usize] as f64;
    let mut v = LayerValues::new();
    v.insert("collision.check_calls", calls);
    v.insert("collision.check_ns_p50", percentile(&check_sorted, 0.50));
    v.insert("collision.check_ns_p99", percentile(&check_sorted, 0.99));
    v.insert("collision.busy_frac", ratio(check_ns, root_ns));
    v.insert("collision.hit_frac", ratio(rec.check_hits as f64, calls));
    v.insert("collision.links_per_check", ratio(get("links"), checks));
    v.insert("collision.box_tests_per_check", box_per_check);
    v.insert(
        "collision.nodes_per_check",
        ratio(get("nodes_visited"), checks),
    );
    v.insert("collision.pj_per_check", ratio(get("cd_pj"), checks));
    v.insert("robot.fk_ns_per_pose", fk);
    v.insert("octree.build_us_p50", percentile(&build_sorted, 0.50) / 1e3);
    v.insert("octree.build_us_p99", percentile(&build_sorted, 0.99) / 1e3);
    v.insert("octree.nodes", get("octree_nodes") / ops);
    v.insert("octree.entries", get("octree_entries") / ops);
    v.insert("octree.walk_ns_per_check", walk);
    v.insert(
        "geometry.mults_per_box_test",
        ratio(get("mults"), get("box_tests")),
    );
    v.insert("geometry.ns_per_box_test", ratio(walk, box_per_check));
    v.insert("planner.self_frac", ratio(self_ns as f64, root_ns));
    v.insert("planner.self_us_p50", percentile(&self_us, 0.50));
    v.insert(
        "planner.sampler_ns_per_call",
        ratio(rec.totals_ns[Layer::Sample as usize] as f64, sample_calls),
    );
    v.insert("planner.sampler_calls_per_plan", sample_calls / ops);
    v.insert("planner.checks_per_plan", checks / ops);
    v.insert("planner.replans_per_plan", get("replans") / ops);
    v.insert("planner.nodes_per_plan", get("planner_nodes") / ops);
    v.insert(
        "planner.certify_ms_per_plan",
        ratio(gate.certify_ns as f64 / 1e6, gate.certified as f64),
    );
    v
}
