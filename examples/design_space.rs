//! Design-space exploration: sweep MPAccel configurations (CECDU count,
//! OOCDs per CECDU, intersection-unit style, scheduler policy) on one
//! workload and print latency, area, power and the Fig 20 efficiency
//! metric — the study a deployment team would run to size the accelerator
//! for their robot.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use mpaccel::accel::mpaccel::{MpAccelSystem, SystemConfig};
use mpaccel::accel::sas::SasConfig;
use mpaccel::collision::SoftwareChecker;
use mpaccel::octree::{Scene, SceneConfig};
use mpaccel::planner::mpnet::{plan, MpnetConfig};
use mpaccel::planner::queries::generate_queries;
use mpaccel::planner::sampler::OracleSampler;
use mpaccel::robot::RobotModel;
use mpaccel::sim::{CecduConfig, IuKind, MpaccelConfig};

fn main() {
    let robot = RobotModel::baxter();
    let scene = Scene::random(SceneConfig::paper(), 5);
    let octree = scene.octree();

    // A representative multi-query workload, planned one query after
    // another on one shared checker for the scene — the traces of every
    // solved query are replayed on each candidate configuration.
    let queries = generate_queries(&robot, &scene, 3, 3).expect("query generation");
    let mut checker = SoftwareChecker::new(robot.clone(), octree.clone());
    let outs: Vec<_> = queries
        .iter()
        .map(|q| {
            let mut sampler = OracleSampler::new(robot.clone(), 9);
            plan(
                &mut checker,
                &mut sampler,
                &q.start,
                &q.goal,
                &MpnetConfig::default(),
            )
        })
        .filter(|o| o.solved())
        .collect();
    if outs.is_empty() {
        println!("no workload query solved; rerun with another seed");
        return;
    }
    println!(
        "workload: {} solved Baxter queries, {} CD batches total\n",
        outs.len(),
        outs.iter().map(|o| o.trace.cd_batches()).sum::<usize>()
    );

    println!("config     scheduler  latency(ms)  area(mm2)  power(W)  q/(s*W*mm2)");
    for cecdus in [4usize, 8, 16, 32] {
        for oocds in [1usize, 4] {
            for iu in [IuKind::MultiCycle, IuKind::Pipelined] {
                let accel = MpaccelConfig::new(cecdus, CecduConfig::new(oocds, iu));
                let sys = MpAccelSystem::new(
                    robot.clone(),
                    octree.clone(),
                    SystemConfig::with_accel(accel),
                );
                let (mut total_ms, mut _cd) = (0.0, 0u64);
                for o in &outs {
                    let r = sys.run_trace(&o.trace);
                    total_ms += r.total_ms;
                    _cd += r.cd_queries;
                }
                let report_total_ms = total_ms;
                let ap = accel.area_power();
                let perf = accel.perf_metric(outs.len() as u64, report_total_ms / 1e3);
                println!(
                    "{:<9}  MCSP       {:>11.3}  {:>9.2}  {:>8.2}  {:>11.1}",
                    accel.label(),
                    report_total_ms,
                    ap.area_mm2,
                    ap.power_w,
                    perf
                );
            }
        }
    }

    // Scheduler ablation on the headline hardware.
    println!("\nscheduler ablation on 16_4_mc:");
    for (name, sas) in [
        ("sequential", SasConfig::sequential()),
        ("naive (NP)", SasConfig::naive_parallel(16)),
        ("CSP", SasConfig::csp(16)),
        ("MP", SasConfig::inter_only(16)),
        ("MCSP", SasConfig::mcsp(16)),
    ] {
        let sys = MpAccelSystem::new(robot.clone(), octree.clone(), SystemConfig::paper_default())
            .with_scheduler(sas);
        let (mut ms, mut cd) = (0.0, 0u64);
        for o in &outs {
            let r = sys.run_trace(&o.trace);
            ms += r.total_ms;
            cd += r.cd_queries;
        }
        println!("  {:<11} {:>8.3} ms   {:>7} CD queries", name, ms, cd);
    }
}
