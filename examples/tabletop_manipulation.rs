//! Tabletop manipulation: a Jaco2 arm (the assistive manipulator of
//! Fig 1a) reaches a sequence of goals over a cluttered table while the
//! accelerator keeps every replan inside the real-time budget.
//!
//! ```text
//! cargo run --release --example tabletop_manipulation
//! ```

use mpaccel::accel::mpaccel::{MpAccelSystem, SystemConfig};
use mpaccel::collision::{check_motion, SoftwareChecker};
use mpaccel::geometry::{Aabb, Vec3};
use mpaccel::octree::Scene;
use mpaccel::planner::mpnet::{plan, MpnetConfig};
use mpaccel::planner::sampler::OracleSampler;
use mpaccel::robot::{JointConfig, Motion, RobotModel};

/// A table surface plus items standing on it, hand-placed in normalized
/// workspace coordinates (the environment cube is `[-1, 1]³`).
fn tabletop_scene() -> Scene {
    let mut obstacles = vec![
        // The table: a thin slab in front of the robot, below z = -0.1.
        Aabb::new(Vec3::new(0.55, 0.0, -0.2), Vec3::new(0.3, 0.5, 0.04)),
    ];
    // Items on the table.
    for (x, y, h) in [
        (0.45f32, -0.3f32, 0.10f32),
        (0.6, 0.0, 0.16),
        (0.5, 0.3, 0.08),
    ] {
        obstacles.push(Aabb::new(
            Vec3::new(x, y, -0.16 + h),
            Vec3::new(0.05, 0.05, h),
        ));
    }
    Scene::from_obstacles(obstacles, 5)
}

fn main() {
    let scene = tabletop_scene();
    let octree = scene.octree();
    let robot = RobotModel::jaco2();
    println!(
        "tabletop scene: {} obstacles, octree {} nodes (fits 8-bit addressing: {})",
        scene.obstacles().len(),
        octree.node_count(),
        octree.fits_hardware()
    );

    // A pick-and-place style goal sequence in joint space: over the table,
    // reach down between items, retract, swing to the other side.
    let goals = [
        vec![0.5, 1.2, -0.6, 0.0, 0.0, 0.0],
        vec![0.2, 1.5, -1.1, 0.3, 0.4, 0.0],
        vec![-0.4, 1.2, -0.6, 0.0, 0.0, 0.0],
        vec![-0.8, 1.6, -1.2, 0.2, -0.3, 0.5],
    ];

    // One shared checker serves the whole task: each segment is planned
    // on it (outcomes are identical to a fresh checker per segment, but
    // the octree and FK state stay hot), and the final certification
    // sweep reuses it too.
    let sys = MpAccelSystem::new(robot.clone(), octree.clone(), SystemConfig::paper_default());
    let mut checker = SoftwareChecker::new(robot.clone(), octree.clone());
    let mut current = robot.home();
    let mut total_ms = 0.0;
    let mut failures = 0;
    let mut trajectory: Vec<JointConfig> = vec![current.clone()];
    for (i, g) in goals.iter().enumerate() {
        let goal = robot.clamp_config(&JointConfig::new(g.clone()));
        let cfg = MpnetConfig {
            seed: i as u64,
            ..MpnetConfig::default()
        };
        let mut sampler = OracleSampler::new(robot.clone(), 100 + i as u64);
        let out = plan(&mut checker, &mut sampler, &current, &goal, &cfg);
        match &out.path {
            Some(path) => {
                let report = sys.run_trace(&out.trace);
                total_ms += report.total_ms;
                println!(
                    "segment {i}: {} waypoints, {:.2} rad, MPAccel {:.3} ms ({} CD queries) {}",
                    path.len(),
                    out.path_length().unwrap(),
                    report.total_ms,
                    report.cd_queries,
                    if report.total_ms < 1.0 {
                        "[real-time]"
                    } else {
                        "[over budget]"
                    }
                );
                trajectory.extend(path.iter().skip(1).cloned());
                current = goal;
            }
            None => {
                failures += 1;
                println!("segment {i}: planning failed (goal may be in collision)");
            }
        }
    }
    println!(
        "\nsequence complete: {}/{} segments planned, cumulative accelerator time {:.3} ms",
        goals.len() - failures,
        goals.len(),
        total_ms
    );

    // Certify the stitched trajectory end-to-end as one motion stream
    // through the still-hot checker before handing it to the controller.
    if trajectory.len() > 1 {
        let clear = trajectory.windows(2).all(|w| {
            let edge = Motion::new(w[0].clone(), w[1].clone());
            !check_motion(&mut checker, &edge, 0.04).colliding
        });
        println!(
            "final certification over {} waypoints: {}",
            trajectory.len(),
            if clear { "PASS" } else { "FAIL" }
        );
    }
}
