//! The octree builder against its definition. `Octree::build_in` culls
//! obstacles node by node, classifies a node's eight octants together, and
//! emits the flat arena's entries and `f32` chain while it classifies; the
//! arena derives its Q3.12 OOCD chain on first use. This oracle re-derives
//! every node from scratch, classifying each octant by a scan over *all*
//! obstacles and subdividing every arena box on the fly in both chains. It
//! runs on seeded clutter and on hand-placed boundary cases, in a unit, an
//! off-origin and a non-unit root, at depths 1–7, and pins
//! `Octree::pruned`, which shares the builder's emitter, to a direct build.
//! `Octree`'s `==` leaves the derived OOCD chain out, so the chain is
//! compared on its own, including across clones and threads that force it.
//! A dropped tree parks its arena's buffers for the next build on its
//! thread, so trees built after others are compared with the same builds on
//! a fresh thread. Input the builder cannot map gets a typed error. The
//! ignored `build_matches_its_definition_on_300_seeded_scenes` is the long
//! sweep (`cargo test --release --test octree_builder -- --ignored`).

use std::sync::Barrier;

use mpaccel::fixed::{Fx, RESOLUTION};
use mpaccel::geometry::{Aabb, AabbF, Vec3};
use mpaccel::octree::octree::MAX_SUPPORTED_DEPTH;
use mpaccel::octree::{Occupancy, Octree, OctreeError, Scene, SceneConfig};

/// Classifies an octant by scanning every obstacle: full when one contains
/// it, partial when one overlaps it, empty otherwise.
fn full_scan(octant: &AabbF, obstacles: &[AabbF]) -> Occupancy {
    if obstacles.iter().any(|o| o.contains_aabb(octant)) {
        Occupancy::Full
    } else if obstacles.iter().any(|o| o.overlaps(octant)) {
        Occupancy::Partial
    } else {
        Occupancy::Empty
    }
}

/// A box's six coordinates as bit patterns, so that `-0.0 != 0.0`.
fn bits(b: &AabbF) -> [u32; 6] {
    [
        b.center.x, b.center.y, b.center.z, b.half.x, b.half.y, b.half.z,
    ]
    .map(f32::to_bits)
}

/// The tree's OOCD chain: every entry's six Q3.12 lanes, and every node's
/// Q3.12-round-tripped box as bit patterns. Reading it derives it.
fn oocd_chain(tree: &Octree) -> ([Vec<Fx>; 6], Vec<[u32; 6]>) {
    let flat = tree.flat();
    let lanes = flat.aabbs_oocd().coord_lanes().map(<[Fx]>::to_vec);
    let nodes = (0..tree.node_count() as u32)
        .map(|addr| bits(&flat.node_aabb_oocd(addr)))
        .collect();
    (lanes, nodes)
}

/// Walks `tree` from its root and re-derives every node: occupancies by a
/// full scan (partial becomes full at the depth limit), and the arena's
/// entries and boxes by subdividing on the fly, in the `f32` chain and in
/// the OOCD chain that re-quantizes every level.
fn check_against_definition(tree: &Octree, obstacles: &[AabbF]) {
    let (flat, root) = (tree.flat(), tree.root_aabb());
    let mut visited = 0;
    let mut stack = vec![(0u32, 0u32, root, root)];
    while let Some((addr, depth, parent, parent_oocd)) = stack.pop() {
        visited += 1;
        let at = format!("depth-{} tree in {root:?}, node {addr}", tree.max_depth());
        assert_eq!(bits(&flat.node_aabb(addr)), bits(&parent), "{at}: box");
        assert_eq!(
            bits(&flat.node_aabb_oocd(addr)),
            bits(&parent_oocd),
            "{at}: OOCD box"
        );
        let node = tree.node(addr);
        let mut entries = flat.entries(addr);
        for octant in 0..8 {
            let oct = Octree::octant_aabb(&parent, octant);
            let want = match full_scan(&oct, obstacles) {
                Occupancy::Partial if depth + 1 == tree.max_depth() => Occupancy::Full,
                occ => occ,
            };
            assert_eq!(node.occupancy(octant), want, "{at}, octant {octant}");
            if !want.is_occupied() {
                continue;
            }
            let e = entries.next().expect("an arena entry per occupied octant");
            let oct_oocd = Octree::octant_aabb(&parent_oocd, octant).quantize();
            assert_eq!(flat.octant(e) as usize, octant, "{at}: entry {e}");
            assert_eq!(flat.is_full(e), want == Occupancy::Full, "{at}: entry {e}");
            assert_eq!(bits(&flat.aabb(e)), bits(&oct), "{at}: entry {e} box");
            assert_eq!(
                flat.aabbs_oocd().get(e),
                oct_oocd,
                "{at}: entry {e} OOCD box"
            );
            if let Some(child) = node.child_address(octant) {
                assert_eq!(flat.child(e), child, "{at}: entry {e} child");
                stack.push((child, depth + 1, oct, oct_oocd.to_f32()));
            }
        }
        assert_eq!(entries.next(), None, "{at}: stray arena entry");
    }
    assert_eq!(visited, tree.node_count(), "every node is reached once");
}

/// A box from its min and max corners.
fn cuboid(min: [f32; 3], max: [f32; 3]) -> AabbF {
    let v = |c: [f32; 3]| Vec3::new(c[0], c[1], c[2]);
    Aabb::from_min_max(v(min), v(max))
}

/// Obstacles, in the unit root's frame, placed where culling or rounding
/// could go wrong.
fn boundary_cases() -> Vec<AabbF> {
    let step = RESOLUTION;
    let mut cases = Vec::new();
    // A face on a plane first cut at depth j = 1..=7 (an odd multiple of
    // 2^(1-j)), one box on each side, the plane's axis cycling. The box
    // below the plane touches the octants above it from outside.
    let planes = [0.0, 0.5, -0.25, 0.625, -0.3125, 0.65625, -0.671875];
    for (j, &p) in planes.iter().enumerate() {
        let (axis, o) = (j % 3, 0.13 * j as f32 - 0.4);
        let (mut lo, mut hi) = ([o, o - 0.1, o + 0.05], [o + 0.09, o + 0.02, o + 0.17]);
        lo[axis] = p;
        hi[axis] = p + 0.07;
        cases.push(cuboid(lo, hi));
        let (mut lo, mut hi) = ([-o - 0.1, o + 0.2, -o], [-o + 0.03, o + 0.31, -o + 0.11]);
        lo[axis] = p - 0.05;
        hi[axis] = p;
        cases.push(cuboid(lo, hi));
    }
    cases.extend([
        // Faces one Q3.12 step off a plane, and two boxes one step apart.
        cuboid([0.5 + step, -0.9, -0.9], [0.6, -0.8, -0.8]),
        cuboid([-0.9, 0.2, 0.4], [-0.8, 0.25 - step, 0.5]),
        cuboid([0.1, 0.1, -0.7], [0.2, 0.2, -0.6]),
        cuboid([0.2 + step, 0.1, -0.7], [0.3, 0.2, -0.6]),
        // Zero extent: a point on a depth-4 corner, a plate in a plane.
        cuboid([0.125, -0.375, 0.5], [0.125, -0.375, 0.5]),
        cuboid([-0.6, -0.6, 0.25], [-0.3, -0.45, 0.25]),
        // Spanning the world in x and y, and far beyond it in x.
        cuboid([-1.0, -1.0, -0.85], [1.0, 1.0, -0.8]),
        cuboid([-4.0, 0.7, -0.3], [4.0, 0.72, 0.1]),
        // Wholly outside the root, and touching its face from outside.
        cuboid([2.0, 2.0, 2.0], [3.0, 3.0, 3.0]),
        cuboid([1.0, -0.2, -0.2], [1.5, 0.2, 0.2]),
        // Coordinates that dwarf the root's, with a face on x = 0.5.
        Aabb::new(Vec3::new(1.0e6 + 0.5, 0.0, 0.0), Vec3::new(1.0e6, 0.3, 0.3)),
    ]);
    cases
}

/// The unit root, one off the origin, and a larger one off the origin.
fn roots() -> [AabbF; 3] {
    [
        Aabb::new(Vec3::zero(), Vec3::splat(1.0)),
        Aabb::new(Vec3::new(0.3, -0.7, 1.1), Vec3::splat(1.0)),
        Aabb::new(Vec3::new(-0.25, 0.5, 0.125), Vec3::splat(2.5)),
    ]
}

/// A seeded 24-obstacle scene in the unit root's frame.
fn clutter(seed: u64) -> Vec<AabbF> {
    Scene::random(SceneConfig::with_obstacles(24), seed)
        .obstacles()
        .to_vec()
}

/// Obstacles mapped from the unit root's frame into `root`'s.
fn in_root(root: &AabbF, set: &[AabbF]) -> Vec<AabbF> {
    set.iter()
        .map(|o| {
            Aabb::new(
                root.center + o.center.mul_elementwise(root.half),
                o.half.mul_elementwise(root.half),
            )
        })
        .collect()
}

/// Two seeded 24-obstacle scenes, the boundary cases, and a set whose
/// first obstacle covers the whole root, mapped from the unit root's frame
/// into `root`'s.
fn obstacle_sets(root: &AabbF) -> Vec<Vec<AabbF>> {
    let covering = vec![cuboid([-1.5; 3], [1.5; 3]), cuboid([0.1; 3], [0.2; 3])];
    [clutter(0), clutter(1), boundary_cases(), covering]
        .iter()
        .map(|set| in_root(root, set))
        .collect()
}

#[test]
fn build_matches_a_full_scan_and_the_subdivision_chains() {
    for root in roots() {
        for obstacles in obstacle_sets(&root) {
            for depth in 1..=7 {
                check_against_definition(&Octree::build_in(root, &obstacles, depth), &obstacles);
            }
        }
    }
}

#[test]
fn culling_is_exact_for_coordinates_far_beyond_the_root() {
    // Near 1e6 an f32 is a multiple of 1/16, so tests against `far` round
    // coarsely: the depth-2 octant x in [0.555, 1.11] reads as clear of its
    // face at x = 1.125, while the depth-7 octant on the same face, 0.015
    // short of it, reads as inside it. `near` keeps the octants between
    // them partial. A culling slack scaled to the root's coordinates alone
    // would drop `far` at depth 2 and leave that leaf empty.
    let root = Aabb::new(Vec3::zero(), Vec3::splat(1.11));
    let far = Aabb::new(
        Vec3::new(1.0e6 + 1.125, 0.0, 0.0),
        Vec3::new(1.0e6, 0.3, 0.3),
    );
    let near = cuboid([1.078, 0.005, 0.005], [1.088, 0.012, 0.012]);
    let obstacles = [far, near];
    check_against_definition(&Octree::build_in(root, &obstacles, 7), &obstacles);
}

#[test]
fn pruning_matches_a_direct_build() {
    for root in roots() {
        for obstacles in obstacle_sets(&root) {
            let trees: Vec<Octree> = (1..=7)
                .map(|d| Octree::build_in(root, &obstacles, d))
                .collect();
            for deep in &trees {
                for shallow in trees.iter().filter(|t| t.max_depth() < deep.max_depth()) {
                    let pruned = deep.pruned(shallow.max_depth());
                    let at = format!(
                        "depth-{} tree pruned to {} in {root:?}",
                        deep.max_depth(),
                        shallow.max_depth()
                    );
                    assert!(pruned == *shallow, "{at}");
                    assert_eq!(oocd_chain(&pruned), oocd_chain(shallow), "{at}: OOCD chain");
                }
            }
        }
    }
}

#[test]
fn the_oocd_chain_is_derived_once_and_shared() {
    let root = roots()[2];
    let obstacles = &obstacle_sets(&root)[0];
    let serial = oocd_chain(&Octree::build_in(root, obstacles, 6));

    // A clone taken before first use shares the chain the original derives,
    // and forcing it changes neither tree's equality.
    let tree = Octree::build_in(root, obstacles, 6);
    let twin = tree.clone();
    assert!(tree == twin, "equal before the chain is derived");
    assert_eq!(oocd_chain(&tree), serial);
    assert!(tree == twin, "equal after one side derived the chain");
    assert!(
        std::ptr::eq(tree.flat().aabbs_oocd(), twin.flat().aabbs_oocd()),
        "the clone reads the chain the original derived"
    );
    assert_eq!(oocd_chain(&twin), serial);

    // Eight threads forcing one tree's chain at once all read the serial
    // chain.
    let tree = Octree::build_in(root, obstacles, 6);
    let start = Barrier::new(8);
    let chains: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    oocd_chain(&tree)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for chain in &chains {
        assert_eq!(*chain, serial);
    }

    // A pruned tree derives its own chain, the one a direct build gives.
    let deep = Octree::build_in(root, obstacles, 7);
    for depth in 1..=6 {
        let direct = Octree::build_in(root, obstacles, depth);
        assert_eq!(
            oocd_chain(&deep.pruned(depth)),
            oocd_chain(&direct),
            "pruned to {depth}"
        );
    }
}

#[test]
fn a_parked_arena_builds_what_a_fresh_thread_does() {
    // Park the buffers of a large tree whose OOCD chain was derived, once
    // with the original dropped last and once with its clone dropped last.
    let root = roots()[2];
    let large = &obstacle_sets(&root)[0];
    for clone_last in [false, true] {
        let tree = Octree::build_in(root, large, 7);
        let _ = tree.flat().aabbs_oocd();
        let twin = tree.clone();
        if clone_last {
            drop(tree);
            drop(twin);
        } else {
            drop(twin);
            drop(tree);
        }
    }
    // Every later build on this thread starts from the buffers its
    // predecessor parked; a fresh thread has none parked.
    for root in roots() {
        for obstacles in obstacle_sets(&root) {
            for depth in 1..=7 {
                let tree = Octree::build_in(root, &obstacles, depth);
                check_against_definition(&tree, &obstacles);
                let fresh = std::thread::scope(|s| {
                    s.spawn(|| Octree::build_in(root, &obstacles, depth))
                        .join()
                        .unwrap()
                });
                let at = format!("depth-{depth} tree in {root:?}");
                assert!(tree == fresh, "{at}");
                assert_eq!(oocd_chain(&tree), oocd_chain(&fresh), "{at}: OOCD chain");
            }
        }
    }
}

#[test]
fn input_the_builder_cannot_map_gets_a_typed_error() {
    let root = roots()[0];
    let good = cuboid([0.1; 3], [0.2; 3]);
    for depth in [0, MAX_SUPPORTED_DEPTH + 1] {
        assert_eq!(
            Octree::try_build_in(root, &[good], depth),
            Err(OctreeError::Depth(depth))
        );
    }
    // A NaN root maps nothing; a negative half extent swaps its octants.
    for root in [
        Aabb::new(Vec3::new(f32::NAN, 0.0, 0.0), Vec3::splat(1.0)),
        Aabb::new(Vec3::zero(), Vec3::new(1.0, f32::INFINITY, 1.0)),
        Aabb {
            center: Vec3::zero(),
            half: Vec3::new(1.0, 1.0, -1.0),
        },
    ] {
        assert_eq!(
            Octree::try_build_in(root, &[good], 4),
            Err(OctreeError::Root),
            "{root:?}"
        );
    }
    // A NaN or infinite coordinate compares false against every octant, so
    // the obstacle would drop out of the map.
    for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for axis in 0..3 {
            let mut c = [0.15; 3];
            c[axis] = v;
            let centre = Aabb {
                center: Vec3::new(c[0], c[1], c[2]),
                half: good.half,
            };
            let half = Aabb {
                center: good.center,
                half: Vec3::new(c[0], c[1], c[2]),
            };
            for bad in [centre, half] {
                assert_eq!(
                    Octree::try_build_in(root, &[good, bad, good], 4),
                    Err(OctreeError::NonFiniteObstacle(1)),
                    "{bad:?}"
                );
            }
        }
    }
    // A negative half extent would miss the obstacle's own centre.
    let mut negative = good;
    negative.half.y = -0.05;
    assert_eq!(
        Octree::try_build_in(root, &[good, good, negative], 4),
        Err(OctreeError::NegativeHalfExtent(2))
    );
    // `build` keeps its signature and panics with the error's message.
    let panic = std::panic::catch_unwind(|| Octree::build(&[negative], 4)).unwrap_err();
    let message = panic.downcast_ref::<String>().expect("a formatted message");
    assert_eq!(*message, OctreeError::NegativeHalfExtent(0).to_string());
    assert!(message.contains("obstacle 0"), "{message}");
}

#[test]
#[ignore = "long sweep: cargo test --release --test octree_builder -- --ignored"]
fn build_matches_its_definition_on_300_seeded_scenes() {
    for seed in 0..300 {
        let unit = clutter(seed);
        for root in roots() {
            let obstacles = in_root(&root, &unit);
            for depth in 4..=7 {
                check_against_definition(&Octree::build_in(root, &obstacles, depth), &obstacles);
            }
        }
    }
}
