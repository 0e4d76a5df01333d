//! Dynamic replanning: an obstacle sweeps through the Baxter arm's
//! workspace and the robot reacts every control tick, as the paper's
//! motivating scenario ("robots need to react to moving objects in their
//! environment") requires. The environment octree is rebuilt on every tick
//! — the streaming-update path of Fig 11, step 1.
//!
//! Each tick first *revalidates* the remaining plan against the updated
//! world as one motion stream ([`check_motion`]); the planner
//! runs only when the sweep actually invalidates the plan, which is how a
//! deployed controller keeps most ticks at pure validation cost.
//!
//! ```text
//! cargo run --release --example dynamic_replanning
//! ```

use mpaccel::accel::mpaccel::{MpAccelSystem, SystemConfig};
use mpaccel::collision::{check_motion, SoftwareChecker, CSPACE_STEP};
use mpaccel::geometry::{Aabb, Vec3};
use mpaccel::octree::{Octree, Scene, SceneConfig};
use mpaccel::planner::mpnet::{plan, MpnetConfig};
use mpaccel::planner::queries::generate_queries;
use mpaccel::planner::sampler::OracleSampler;
use mpaccel::robot::{JointConfig, Motion, RobotModel};

/// Validates the remaining waypoints against the tick's octree.
fn plan_still_valid(checker: &mut SoftwareChecker, path: &[JointConfig]) -> bool {
    path.windows(2).all(|w| {
        let edge = Motion::new(w[0].clone(), w[1].clone());
        !check_motion(checker, &edge, CSPACE_STEP).colliding
    })
}

fn main() {
    let robot = RobotModel::baxter();
    let base_scene = Scene::random(SceneConfig::paper(), 3);
    let query = generate_queries(&robot, &base_scene, 1, 11).expect("query generation")[0].clone();

    println!("dynamic environment: static clutter + one moving obstacle\n");
    println!("tick  obstacle.y  action    solved  waypoints  MPAccel (ms)  budget");

    let ticks = 8;
    let mut current = query.start.clone();
    let mut remaining: Vec<JointConfig> = Vec::new();
    for tick in 0..ticks {
        // The intruding obstacle slides across the workspace in y.
        let y = -0.8 + 1.6 * tick as f32 / (ticks - 1) as f32;
        let mut obstacles = base_scene.obstacles().to_vec();
        obstacles.push(Aabb::new(Vec3::new(0.55, y, 0.25), Vec3::splat(0.09)));
        let octree = Octree::build(&obstacles, 4);
        let mut checker = SoftwareChecker::new(robot.clone(), octree.clone());

        // Revalidate what's left of the previous plan under the moved
        // obstacle; skip the planner when the motion stream stays clear.
        if remaining.len() > 1 && plan_still_valid(&mut checker, &remaining) {
            println!(
                "{tick:>4}  {y:>10.2}  keep      yes     {:>9}  {:>12}  -",
                remaining.len(),
                "-"
            );
            remaining.remove(0);
            current = remaining[0].clone();
            continue;
        }

        let mut sys =
            MpAccelSystem::new(robot.clone(), octree.clone(), SystemConfig::paper_default());
        sys.set_octree(octree);
        let mut sampler = OracleSampler::new(robot.clone(), 500 + tick as u64);
        let cfg = MpnetConfig {
            seed: tick as u64,
            ..MpnetConfig::default()
        };
        let out = plan(&mut checker, &mut sampler, &current, &query.goal, &cfg);
        match &out.path {
            Some(path) => {
                let report = sys.run_trace(&out.trace);
                println!(
                    "{tick:>4}  {y:>10.2}  replan    yes     {:>9}  {:>12.3}  {}",
                    path.len(),
                    report.total_ms,
                    if report.total_ms < 1.0 {
                        "met"
                    } else {
                        "MISSED"
                    }
                );
                // Advance one waypoint along the plan, as a controller would.
                remaining = path.clone();
                if remaining.len() > 1 {
                    remaining.remove(0);
                    current = remaining[0].clone();
                }
            }
            None => {
                remaining.clear();
                println!(
                    "{tick:>4}  {y:>10.2}  replan    no      {:>9}  {:>12}  -",
                    "-", "-"
                );
            }
        }
    }
    println!(
        "\nreached goal region: {}",
        current.distance(&query.goal) < 1.5
    );
}
