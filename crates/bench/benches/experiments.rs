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
experiment_bench!(bench_batch_planning, batch_planning, 10);

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
    use mp_geometry::cascade::{cascaded_obb_aabb, CascadeConfig};
    use mp_geometry::sat::sat_first_separating;
    use mp_geometry::{Aabb, Mat3, Obb, Vec3};
    use mp_octree::{Scene, SceneConfig};
    use mp_planner::nn::{Activation, Mlp, MlpScratch};
    use mp_robot::{fk, RobotModel, TrigMode};
    use mp_sim::IuKind;
    use mpaccel_core::oocd::{run_oocd, OocdConfig};

    let obb_f32 = Obb::new(
        Vec3::new(0.3, 0.1, -0.2),
        Vec3::new(0.25, 0.06, 0.06),
        Mat3::rotation_z(0.7) * Mat3::rotation_y(0.3),
    );
    let obb = obb_f32.quantize();
    let aabb_f32 = Aabb::new(Vec3::new(0.25, 0.0, 0.0), Vec3::splat(0.25));
    let aabb = aabb_f32.quantize();
    let sphere = obb_f32.bounding_sphere();
    let cfg = CascadeConfig::proposed();
    let tree = Scene::random(SceneConfig::paper(), 0).octree();
    let robot = RobotModel::jaco2();
    let home = robot.home();
    let oocd_cfg = OocdConfig::new(IuKind::MultiCycle);
    // An MPNet-shaped MLP (scene encoding + 2 poses in, pose delta out).
    let mlp = Mlp::new(&[66, 128, 128, 6], Activation::Tanh, 7);
    let mlp_input = vec![0.1f32; 66];
    let mut mlp_scratch = MlpScratch::default();
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
        b.iter(|| black_box(cascaded_obb_aabb(black_box(&obb), black_box(&aabb), &cfg)))
    });
    g.bench_function("oocd_query", |b| {
        b.iter(|| black_box(run_oocd(black_box(&tree), black_box(&obb), &oocd_cfg)))
    });
    g.bench_function("octree_query", |b| {
        // The software checker's traversal: SAT test at every candidate leaf.
        b.iter(|| {
            black_box(tree.collides_with_stats(&mut |leaf| {
                cascaded_obb_aabb(black_box(&obb_f32), leaf, &cfg).colliding
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
    g.bench_function("mlp_forward_scratch", |b| {
        b.iter(|| {
            black_box(
                mlp.forward_scratch(black_box(&mlp_input), &mut mlp_scratch)
                    .len(),
            )
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

/// Microbenchmarks of the batch planning engine's two hot kernels: motion
/// validation through the shared checker (`check_motion`) and the
/// per-round cross-query gather (eight lanes' nearest-neighbour lookups
/// against a grown SoA tree).
fn bench_batch_engine(c: &mut Criterion) {
    use mp_collision::{check_motion, SoftwareChecker};
    use mp_octree::{Scene, SceneConfig};
    use mp_planner::rrt::Tree;
    use mp_robot::{Motion, RobotModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let robot = RobotModel::jaco2();
    let tree = Scene::random(SceneConfig::paper(), 0).octree();
    let mut checker = SoftwareChecker::new(robot.clone(), tree);
    let mut rng = StdRng::seed_from_u64(42);

    // A mid-length motion between two sampled configurations — the shape
    // of one pending batch edge.
    let motion = Motion::new(robot.sample_config(&mut rng), robot.sample_config(&mut rng));

    // A grown tree (4096 nodes) plus one round of lane targets.
    let mut grown = Tree::new(robot.home());
    for i in 0..4095 {
        grown.push(robot.sample_config(&mut rng), i / 2);
    }
    let targets: Vec<_> = (0..8).map(|_| robot.sample_config(&mut rng)).collect();

    let mut g = c.benchmark_group("batch_engine");
    g.bench_function("check_motion", |b| {
        b.iter(|| black_box(check_motion(&mut checker, black_box(&motion), 0.04).colliding))
    });
    g.bench_function("cross_query_gather", |b| {
        // One lockstep round's gather: all eight lanes' NN scans.
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
/// with no sink installed versus a sink installed but sampling disabled
/// (`sample_every: 0`, the always-on production setting for hot kernels).
///
/// In the default build the two are identical by construction — the span
/// call sites are compiled out without `--features telemetry`. Run
/// `cargo bench -p mp-bench --features telemetry -- telemetry_overhead`
/// to measure the armed-but-unsampled cost; EXPERIMENTS.md records the
/// expected numbers.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use mp_collision::{CollisionChecker, SoftwareChecker};
    use mp_octree::{Scene, SceneConfig};
    use mp_robot::RobotModel;
    use mp_telemetry::{SinkConfig, TelemetrySession};

    let robot = RobotModel::jaco2();
    let tree = Scene::random(SceneConfig::paper(), 0).octree();
    let mut checker = SoftwareChecker::new(robot.clone(), tree);
    let mut pose = robot.home();
    pose.as_mut_slice()[0] += 0.4;
    pose.as_mut_slice()[2] -= 0.3;

    let mut g = c.benchmark_group("telemetry_overhead");
    g.bench_function("check_pose_telemetry_off", |b| {
        b.iter(|| black_box(checker.check_pose(black_box(&pose))))
    });
    g.bench_function("check_pose_telemetry_unsampled", |b| {
        let session = TelemetrySession::with_config(SinkConfig {
            sample_every: 0,
            ..SinkConfig::default()
        });
        let _guard = session.install("bench", 0);
        b.iter(|| black_box(checker.check_pose(black_box(&pose))))
    });
    g.bench_function("check_pose_telemetry_sampled", |b| {
        let session = TelemetrySession::new();
        let _guard = session.install("bench", 0);
        b.iter(|| black_box(checker.check_pose(black_box(&pose))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_batch_engine,
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
    bench_batch_planning,
    bench_ablation,
);
criterion_main!(benches);
