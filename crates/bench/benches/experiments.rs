//! Criterion benches: one group per paper artifact, timing the simulation
//! that regenerates it, plus microbenchmarks of the core kernels.
//!
//! Run with `cargo bench -p mp-bench`. Each experiment's report is printed
//! once before timing so a bench run regenerates every table/figure.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mp_bench::experiments::*;
use mp_bench::Scale;

fn scale() -> Scale {
    Scale::from_env().expect("invalid MPACCEL_BENCH_SCALE")
}

macro_rules! experiment_bench {
    ($fn_name:ident, $module:ident, $samples:expr) => {
        fn $fn_name(c: &mut Criterion) {
            // Print the regenerated artifact once.
            println!("{}", $module::run(scale()));
            let mut g = c.benchmark_group("experiments");
            g.sample_size($samples);
            g.bench_function(stringify!($module), |b| {
                b.iter(|| black_box($module::data(black_box(scale()))))
            });
            g.finish();
        }
    };
}

experiment_bench!(bench_fig01b, fig01b, 10);
experiment_bench!(bench_fig07, fig07, 10);
experiment_bench!(bench_fig08, fig08, 10);
experiment_bench!(bench_fig15, fig15, 10);
experiment_bench!(bench_fig16, fig16, 10);
experiment_bench!(bench_fig17, fig17, 10);
experiment_bench!(bench_fig18, fig18, 10);
experiment_bench!(bench_fig19, fig19, 10);
experiment_bench!(bench_fig20, fig20, 10);
experiment_bench!(bench_table1, table1, 10);
experiment_bench!(bench_table3, table3, 10);
experiment_bench!(bench_codacc, codacc, 10);
experiment_bench!(bench_planners, planners, 10);

fn bench_ablation(c: &mut Criterion) {
    println!("{}", ablation::run(scale()));
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);
    g.bench_function("ablation_stage_split", |b| {
        b.iter(|| black_box(ablation::stage_split_data(black_box(scale()))))
    });
    g.finish();
}

fn bench_table2(c: &mut Criterion) {
    println!("{}", table2::run(scale()));
    let mut g = c.benchmark_group("experiments");
    g.bench_function("table2", |b| b.iter(|| black_box(table2::data())));
    g.finish();
}

/// Microbenchmarks of the hot simulation kernels.
fn bench_kernels(c: &mut Criterion) {
    use mp_geometry::sat::sat_first_separating;
    use mp_geometry::soa::HoistedCascade;
    use mp_geometry::{Aabb, Mat3, Obb, Vec3};
    use mp_octree::{Scene, SceneConfig};
    use mp_robot::{fk, RobotModel, TrigMode};
    use mp_sim::{CecduConfig, IuKind};
    use mpaccel_core::cecdu::CecduSim;
    use mpaccel_core::oocd::run_oocd;

    let obb_f32 = Obb::new(
        Vec3::new(0.3, 0.1, -0.2),
        Vec3::new(0.25, 0.06, 0.06),
        Mat3::rotation_z(0.7) * Mat3::rotation_y(0.3),
    );
    let obb = obb_f32.quantize();
    let aabb_f32 = Aabb::new(Vec3::new(0.25, 0.0, 0.0), Vec3::splat(0.25));
    let aabb = aabb_f32.quantize();
    let sphere = obb_f32.bounding_sphere();
    let tree = Scene::random(SceneConfig::paper(), 0).octree();
    let robot = RobotModel::jaco2();
    let home = robot.home();
    // The paper's CECDU (4 multi-cycle OOCDs) and a pose off home.
    let cecdu = CecduSim::new(robot.clone(), tree.clone(), CecduConfig::default());
    let mut pose = robot.home();
    pose.as_mut_slice()[0] += 0.4;
    pose.as_mut_slice()[2] -= 0.3;
    let mut frames = Vec::new();
    let mut obbs = Vec::new();

    let mut g = c.benchmark_group("kernels");
    g.bench_function("sphere_aabb", |b| {
        b.iter(|| black_box(black_box(&sphere).overlaps_aabb(black_box(&aabb_f32))))
    });
    g.bench_function("sat_15_axes", |b| {
        b.iter(|| black_box(sat_first_separating(black_box(&obb), black_box(&aabb))))
    });
    g.bench_function("cascaded_intersection", |b| {
        // One Q3.12 pair on the production kernel, hoisting included.
        b.iter(|| {
            let (c, h) = (aabb.center, aabb.half);
            let mut cascade = HoistedCascade::new(black_box(&obb));
            black_box(cascade.outcome(c.x, c.y, c.z, h.x, h.y, h.z))
        })
    });
    g.bench_function("oocd_query", |b| {
        b.iter(|| {
            black_box(run_oocd(
                black_box(&tree),
                black_box(&obb),
                IuKind::MultiCycle,
            ))
        })
    });
    g.bench_function("cecdu_check_pose", |b| {
        // The CECDU model's host cost per pose: FK, then every link's OOCD
        // walk in waves (the base link's walk is replayed, not rerun).
        b.iter(|| black_box(cecdu.check_pose(black_box(&pose))))
    });
    g.bench_function("octree_query", |b| {
        // The software checker's traversal: SAT test at every candidate leaf.
        b.iter(|| {
            let mut cascade = HoistedCascade::new(black_box(&obb_f32));
            black_box(tree.collides_with_stats(&mut |leaf| {
                let (c, h) = (leaf.center, leaf.half);
                cascade.outcome(c.x, c.y, c.z, h.x, h.y, h.z).colliding
            }))
        })
    });
    g.bench_function("forward_kinematics_obbs", |b| {
        b.iter(|| {
            fk::link_obbs_into(
                &robot,
                black_box(&home),
                TrigMode::Hardware,
                &mut frames,
                &mut obbs,
            );
            black_box(obbs.len())
        })
    });
    g.bench_function("check_path_revalidate", |b| {
        // Replanning re-validates the path it returns: validate one MPNet
        // path twice on one checker, so the second pass is answered from
        // the checker's pose cache.
        use mp_collision::{check_path, SoftwareChecker, CSPACE_STEP};
        use mp_octree::benchmark_scenes;
        use mp_planner::queries::generate_queries;
        use mp_planner::{plan, MpnetConfig, OracleSampler};

        let scene = &benchmark_scenes()[0];
        let path = generate_queries(&robot, scene, 8, 1)
            .expect("paper scene has free queries")
            .iter()
            .enumerate()
            .find_map(|(i, q)| {
                let mut checker = SoftwareChecker::new(robot.clone(), scene.octree());
                let mut sampler = OracleSampler::new(robot.clone(), i as u64);
                let cfg = MpnetConfig::default();
                plan(&mut checker, &mut sampler, &q.start, &q.goal, &cfg).path
            })
            .expect("MPNet solves a paper-scene query");
        let tree = scene.octree();
        b.iter(|| {
            let mut checker = SoftwareChecker::new(robot.clone(), tree.clone());
            let first = check_path(&mut checker, black_box(&path), CSPACE_STEP);
            let again = check_path(&mut checker, black_box(&path), CSPACE_STEP);
            black_box((first, again))
        })
    });
    g.bench_function("octree_build", |b| {
        let scene = Scene::random(SceneConfig::paper(), 3);
        b.iter(|| black_box(scene.octree()))
    });
    g.bench_function("octree_build_clutter", |b| {
        // The map step of the benchmark's plan_clutter workload: 24
        // obstacles, depth 6.
        let config = SceneConfig {
            octree_depth: 6,
            ..SceneConfig::with_obstacles(24)
        };
        let scene = Scene::random(config, 3);
        b.iter(|| black_box(scene.octree()))
    });
    g.finish();
}

/// Microbenchmarks of the two kernels every sampling planner repeats per
/// expansion: motion validation (`check_motion`) and eight
/// nearest-neighbour lookups against a grown SoA tree (`Tree::nearest`).
/// Motion validation cycles through 64 motions, thousands of poses, so
/// the checker's pose cache does not answer them and every pose is walked.
fn bench_planner_kernels(c: &mut Criterion) {
    use mp_collision::{check_motion, SoftwareChecker, CSPACE_STEP};
    use mp_octree::{Scene, SceneConfig};
    use mp_planner::rrt::Tree;
    use mp_robot::{Motion, RobotModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let robot = RobotModel::jaco2();
    let tree = Scene::random(SceneConfig::paper(), 0).octree();
    let mut checker = SoftwareChecker::new(robot.clone(), tree);
    let mut rng = StdRng::seed_from_u64(42);

    // Mid-length motions between two sampled configurations — the shape
    // of one tree-extension edge.
    let motions: Vec<Motion> = (0..64)
        .map(|_| Motion::new(robot.sample_config(&mut rng), robot.sample_config(&mut rng)))
        .collect();

    // A grown tree (4096 nodes) plus eight sampled targets.
    let mut grown = Tree::new(robot.home());
    for i in 0..4095 {
        grown.push(robot.sample_config(&mut rng), i / 2);
    }
    let targets: Vec<_> = (0..8).map(|_| robot.sample_config(&mut rng)).collect();

    let mut g = c.benchmark_group("planner_kernels");
    g.bench_function("check_motion", |b| {
        let mut next = motions.iter().cycle();
        b.iter(|| {
            let motion = next.next().unwrap();
            black_box(check_motion(&mut checker, black_box(motion), CSPACE_STEP).colliding)
        })
    });
    g.bench_function("tree_nearest_x8", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for t in &targets {
                acc = acc.wrapping_add(grown.nearest(black_box(t)));
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// Overhead guard for the telemetry layer: the collision hot loop timed
/// with no sink installed (the untraced case every run but a capture
/// takes) versus a sink installed, which records the per-pose `cd_query`
/// span. The loop cycles through 4096 poses, more than the checker's
/// pose cache holds, so it times walks. `cargo bench -p mp-bench` prints
/// it as the `telemetry_overhead` group; EXPERIMENTS.md records the
/// numbers.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use mp_collision::{CollisionChecker, SoftwareChecker};
    use mp_octree::{Scene, SceneConfig};
    use mp_robot::RobotModel;
    use mp_telemetry::TelemetrySession;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let robot = RobotModel::jaco2();
    let tree = Scene::random(SceneConfig::paper(), 0).octree();
    let mut checker = SoftwareChecker::new(robot.clone(), tree);
    let mut rng = StdRng::seed_from_u64(9);
    let poses: Vec<_> = (0..4096).map(|_| robot.sample_config(&mut rng)).collect();

    let mut g = c.benchmark_group("telemetry_overhead");
    g.bench_function("check_pose_no_sink", |b| {
        let mut next = poses.iter().cycle();
        b.iter(|| black_box(checker.check_pose(black_box(next.next().unwrap()))))
    });
    g.bench_function("check_pose_sink_installed", |b| {
        let session = TelemetrySession::new();
        let _guard = session.install("bench", 0);
        let mut next = poses.iter().cycle();
        b.iter(|| black_box(checker.check_pose(black_box(next.next().unwrap()))))
    });
    g.finish();
}

/// The service and fleet event loops on the `service_overload` traffic:
/// one `run_service` (4 instances, 1e-2 faults with a 10x lemon, full
/// integrity, 30 ms simulated) and one `run_fleet` (16 shards x 2
/// instances, hedging and failover, shards 3 and 11 down for the second
/// quarter of 3 ms simulated), both at twice saturating load over the
/// same 10-scene x 10-query plan catalog.
fn bench_service(c: &mut Criterion) {
    use mp_octree::{benchmark_scenes, Scene};
    use mp_planner::QualityTier;
    use mp_robot::RobotModel;
    use mp_service::{
        run_fleet, run_service, FaultProfile, FleetConfig, IntegrityConfig, PlanCatalog,
        ServiceConfig, TenantPolicy, TenantSpec,
    };
    use mp_sim::arrival::{ArrivalKind, ArrivalProcess};
    use mp_sim::fault::{ShardFaultEvent, ShardFaultKind, ShardFaultPlan};
    use threadpool::ThreadPool;

    let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(10).collect();
    let catalog = PlanCatalog::build(&RobotModel::jaco2(), &scenes, 10, 11, &ThreadPool::new(1))
        .expect("the benchmark scenes yield a catalog");
    let deadline_us = (4.0 * catalog.mean_service_us(QualityTier::Full)) as u64;
    let tenants = |instances: usize, seed: u64| {
        let rate = 2.0 * catalog.saturating_rate_per_s(instances);
        vec![
            TenantSpec {
                label: "interactive",
                process: ArrivalProcess {
                    kind: ArrivalKind::Poisson,
                    rate_per_s: rate * 0.7,
                    seed,
                },
                deadline_us,
            },
            TenantSpec {
                label: "bursty",
                process: ArrivalProcess {
                    kind: ArrivalKind::Bursty {
                        burst_factor: 5.0,
                        period_us: 5_000,
                        duty: 0.2,
                    },
                    rate_per_s: rate * 0.3,
                    seed: seed + 1,
                },
                deadline_us: deadline_us * 2,
            },
        ]
    };
    let service_tenants = tenants(4, 51);
    let service_cfg = ServiceConfig {
        instances: 4,
        faults: FaultProfile::with_lemon(1e-2, 0, 10.0),
        integrity: IntegrityConfig::full(),
        seed: 53,
        ..ServiceConfig::default()
    };
    let fleet_tenants = tenants(16 * 2, 54);
    let fleet_cfg = FleetConfig {
        shards: 16,
        shard: ServiceConfig {
            instances: 2,
            ..ServiceConfig::default()
        },
        seed: 56,
        ..FleetConfig::default()
    };
    let policies = [4, 2].map(|weight| TenantPolicy {
        weight,
        ..TenantPolicy::default()
    });
    let fleet_ns = 3_000_000;
    let chaos = ShardFaultPlan::scripted(
        0,
        [3, 11]
            .map(|shard| ShardFaultEvent {
                at_ns: fleet_ns / 4,
                shard,
                kind: ShardFaultKind::Crash,
                duration_ns: fleet_ns / 4,
                slow_factor: 1,
            })
            .to_vec(),
    );

    let mut g = c.benchmark_group("service");
    g.sample_size(50);
    g.bench_function("run_service_overload", |b| {
        b.iter(|| {
            black_box(run_service(
                &catalog,
                &service_tenants,
                30_000_000,
                &service_cfg,
            ))
        })
    });
    g.bench_function("run_fleet_overload", |b| {
        b.iter(|| {
            black_box(run_fleet(
                &catalog,
                &fleet_tenants,
                &policies,
                fleet_ns,
                &fleet_cfg,
                &chaos,
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_service,
    bench_planner_kernels,
    bench_telemetry_overhead,
    bench_table2,
    bench_fig01b,
    bench_fig07,
    bench_fig08,
    bench_fig15,
    bench_fig16,
    bench_fig17,
    bench_fig18,
    bench_table1,
    bench_fig19,
    bench_fig20,
    bench_table3,
    bench_codacc,
    bench_planners,
    bench_ablation,
);
criterion_main!(benches);
