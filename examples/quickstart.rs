//! Quickstart: plan a block of motions for a 7-DOF Baxter arm on one
//! shared collision checker, then replay one plan on the MPAccel
//! accelerator model.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mpaccel::accel::mpaccel::{MpAccelSystem, SystemConfig};
use mpaccel::collision::{attributed, SoftwareChecker};
use mpaccel::octree::{Scene, SceneConfig};
use mpaccel::planner::mpnet::{plan, MpnetConfig};
use mpaccel::planner::queries::generate_queries;
use mpaccel::planner::sampler::OracleSampler;
use mpaccel::robot::RobotModel;

fn main() {
    // 1. A randomized benchmark environment (5-9 cuboid obstacles, §6).
    let scene = Scene::random(SceneConfig::paper(), 42);
    let octree = scene.octree();
    println!(
        "environment: {} obstacles, octree {} nodes ({} bytes on-chip)",
        scene.obstacles().len(),
        octree.node_count(),
        octree.storage_bytes()
    );

    // 2. The robot and a block of planning queries for this scene.
    let robot = RobotModel::baxter();
    let queries = generate_queries(&robot, &scene, 4, 7).expect("query generation");
    println!(
        "robot: {} ({} DOF, {} links); {} queries in this scene",
        robot.name(),
        robot.dof(),
        robot.link_count(),
        queries.len()
    );

    // 3. Plan the whole block with the MPNet-style neural planner, one
    // query after another on one shared checker: the octree and FK state
    // are built once, and each query's outcome and CD work are exactly
    // those of planning it alone with a fresh checker.
    let mut checker = SoftwareChecker::new(robot.clone(), octree.clone());
    let results: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let cfg = MpnetConfig {
                seed: i as u64,
                ..MpnetConfig::default()
            };
            let mut sampler = OracleSampler::new(robot.clone(), i as u64);
            attributed(&mut checker, |c| {
                plan(c, &mut sampler, &q.start, &q.goal, &cfg)
            })
        })
        .collect();
    for (i, (out, stats)) in results.iter().enumerate() {
        match &out.path {
            Some(path) => println!(
                "  query {i}: {} waypoints, {:.2} rad, {} CD pose queries, {} NN inferences",
                path.len(),
                out.path_length().unwrap(),
                stats.pose_queries,
                out.stats.nn_calls
            ),
            None => println!("  query {i}: unsolved (may be infeasible at this seed)"),
        }
    }

    // 4. Replay one recorded trace on the MPAccel hardware model.
    let Some(out) = results.iter().map(|(o, _)| o).find(|o| o.solved()) else {
        println!("no query solved — rerun with another scene seed");
        return;
    };
    let sys = MpAccelSystem::new(robot, octree, SystemConfig::paper_default());
    let report = sys.run_trace(&out.trace);
    println!(
        "MPAccel (16 CECDUs x 4 multi-cycle OOCDs @ {:.0} MHz):",
        1e3 * mpaccel::sim::ClockDomain::multi_cycle().frequency_ghz()
    );
    println!(
        "  total {:.3} ms  (CD {:.3} ms, NN {:.3} ms, controller {:.3} ms, bus {:.3} ms)",
        report.total_ms, report.cd_ms, report.nn_ms, report.controller_ms, report.bus_ms
    );
    println!(
        "  {} CD queries in {} cycles; accelerator energy {:.3} mJ",
        report.cd_queries, report.cd_cycles, report.accel_energy_mj
    );
    println!(
        "  real-time budget (1 ms): {}",
        if report.total_ms < 1.0 {
            "MET"
        } else {
            "MISSED"
        }
    );
}
