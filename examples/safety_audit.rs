//! Safety audit: validate a planned trajectory against *both* hazards a
//! deployed arm faces — environment collisions (the paper's scope, via the
//! accelerator's collision pipeline) and self-collisions (this
//! reproduction's extension) — and report clearance statistics.
//!
//! ```text
//! cargo run --release --example safety_audit
//! ```

use mpaccel::collision::self_collision::SelfCollisionMatrix;
use mpaccel::collision::{check_path, SoftwareChecker};
use mpaccel::octree::{Scene, SceneConfig};
use mpaccel::planner::mpnet::{plan, MpnetConfig};
use mpaccel::planner::queries::generate_queries;
use mpaccel::planner::sampler::OracleSampler;
use mpaccel::robot::{Motion, RobotModel};

fn main() {
    let robot = RobotModel::baxter();
    let scene = Scene::random(SceneConfig::paper(), 21);
    let octree = scene.octree();
    let query = generate_queries(&robot, &scene, 1, 5).expect("query generation")[0].clone();

    // Plan: the planner is stochastic, so try several seeds one after
    // another on one shared checker and keep the first that solves.
    let mut checker = SoftwareChecker::new(robot.clone(), octree.clone());
    let out = (0..6)
        .map(|seed| {
            let cfg = MpnetConfig {
                seed,
                ..MpnetConfig::default()
            };
            let mut sampler = OracleSampler::new(robot.clone(), seed);
            plan(&mut checker, &mut sampler, &query.start, &query.goal, &cfg)
        })
        .find(|o| o.solved());
    let Some(out) = out else {
        println!("no plan found for this query; rerun with another scene seed");
        return;
    };
    let path = out.path.as_ref().expect("solved");
    println!(
        "plan: {} waypoints, {:.2} rad; auditing against {} obstacles…\n",
        path.len(),
        out.path_length().unwrap(),
        scene.obstacles().len()
    );

    // 1. Environment audit: independent re-check of every segment.
    let mut verifier = SoftwareChecker::new(robot.clone(), octree.clone());
    match check_path(&mut verifier, path, 0.02) {
        None => println!("environment audit: PASS (every segment re-verified at 0.02 rad)"),
        Some(i) => println!("environment audit: FAIL at segment {i}"),
    }

    // 2. Self-collision audit along the densified trajectory.
    let matrix = SelfCollisionMatrix::standard(&robot);
    println!(
        "self-collision audit: {} link pairs checked per pose",
        matrix.pairs().len()
    );
    let mut worst: Option<(usize, (usize, usize))> = None;
    let mut poses_checked = 0;
    for (si, w) in path.windows(2).enumerate() {
        let m = Motion::new(w[0].clone(), w[1].clone());
        for pose in m.discretize(0.05) {
            poses_checked += 1;
            if let Some(pair) = matrix.first_colliding_pair(&robot, &pose) {
                worst.get_or_insert((si, pair));
            }
        }
    }
    match worst {
        None => println!("self-collision audit: PASS over {poses_checked} poses"),
        Some((seg, (i, j))) => {
            println!("self-collision audit: FAIL — links {i} and {j} touch in segment {seg}")
        }
    }

    // 3. Clearance profile: distance from each link to the nearest obstacle
    // at the path waypoints (how much margin the plan keeps).
    println!("\nclearance per waypoint (min over links, normalized units):");
    for (k, wp) in path.iter().enumerate() {
        let obbs = mpaccel::robot::fk::link_obbs(&robot, wp, mpaccel::robot::TrigMode::Exact);
        let mut min_d = f32::INFINITY;
        for obb in &obbs {
            for obs in scene.obstacles() {
                let d = (obs.closest_point(obb.center) - obb.center).length() - obb.bounding_radius;
                min_d = min_d.min(d.max(0.0));
            }
        }
        let bars = "#".repeat(((min_d * 40.0) as usize).min(40));
        println!("  wp {k:>2}: {min_d:>6.3}  {bars}");
    }
}
