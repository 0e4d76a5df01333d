//! Cycle-level model of the OBB–octree Collision Detector (OOCD, Fig 14b).
//!
//! The OOCD traverses the environment octree for one robot-link OBB:
//!
//! 1. the Octree Traverser stores the root address in the Address Register;
//! 2. the Memory Request Generator reads the 24-bit node word from SRAM
//!    (one cycle per read) into the Node Queue;
//! 3. the Node Processing Unit issues one intersection query per occupied
//!    octant to the Intersection Unit (every cycle for the pipelined unit,
//!    when free for the multi-cycle unit);
//! 4. colliding *partially occupied* octants push their child address for
//!    further traversal; a colliding *fully occupied* octant terminates the
//!    query with `colliding = true`.
//!
//! Every Intersection Unit query runs the paper's proposed cascade; the
//! only design choice a walk takes is the unit's [`IuKind`]. Octant boxes
//! come from the octree's precomputed arena (Q3.12, the quantize-roundtrip
//! chain the OOCD's level-by-level decode yields, derived on the tree's
//! first OOCD walk).

use std::cell::Cell;

use mp_geometry::cascade::CascadeOutcome;
use mp_geometry::soa::HoistedCascade;
use mp_geometry::FxObb;
use mp_octree::Octree;
use mp_sim::{IuKind, OpCounter};

use crate::intersection_unit::{self, IU_PIPELINE_DEPTH};

thread_local! {
    // Reusable traversal stack of node addresses, taken out of the cell
    // per query and put back afterwards, like the octree's own traversal
    // stack: allocation-free in steady state, reentrancy-safe.
    static OOCD_STACK: Cell<Vec<u32>> = Cell::default();
}

/// Result of one OBB–octree collision query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OocdResult {
    /// Whether the OBB touches occupied space.
    pub colliding: bool,
    /// Total cycles from request to result (13 in Fig 14b).
    pub cycles: u64,
    /// Work performed.
    pub ops: OpCounter,
}

/// Simulates one OBB–octree collision query, cycle by cycle, on an OOCD
/// whose Intersection Unit is of kind `iu`.
///
/// Each occupied octant's box runs through the one hoisted cascade of this
/// link query (squared radii and SAT constants derived once) and is
/// committed in octant order with the unit's timing model.
///
/// # Examples
///
/// ```
/// use mp_geometry::{Obb, Vec3};
/// use mp_octree::{Scene, SceneConfig};
/// use mp_sim::IuKind;
/// use mpaccel_core::oocd::run_oocd;
///
/// let tree = Scene::random(SceneConfig::paper(), 0).octree();
/// let obb = Obb::axis_aligned(Vec3::zero(), Vec3::splat(0.05)).quantize();
/// let out = run_oocd(&tree, &obb, IuKind::MultiCycle);
/// assert!(!out.colliding); // scenes keep the base region clear
/// assert!(out.cycles >= 2);
/// ```
pub fn run_oocd(octree: &Octree, obb: &FxObb, iu: IuKind) -> OocdResult {
    let mut cycles: u64 = 1; // root address into the Address Register
    let mut ops = OpCounter::default();
    let flat = octree.flat();
    let [cx, cy, cz, hx, hy, hz] = flat.aabbs_oocd().coord_lanes();
    let mut cascade = HoistedCascade::new(obb);

    // The traversal stack models the Address Register + Node Queue.
    let mut stack = OOCD_STACK.with(Cell::take);
    stack.clear();
    stack.push(0);
    let mut hit = false;

    'walk: while let Some(addr) = stack.pop() {
        // SRAM read of the 24-bit node word.
        cycles += 1;
        ops.sram_reads += 1;
        for e in flat.entries(addr) {
            let lane = cascade.outcome(cx[e], cy[e], cz[e], hx[e], hy[e], hz[e]);
            if issue(iu, &lane, &mut ops, &mut cycles) {
                if flat.is_full(e) {
                    // Terminal: report collision once this result drains.
                    hit = true;
                    break 'walk;
                }
                stack.push(flat.child(e));
            }
        }
        // The Node Queue lets the traverser prefetch the next stacked node
        // while pipelined results drain, hiding the pipeline latency
        // between nodes entirely; only the final drain (below) is exposed.
    }

    stack.clear();
    OOCD_STACK.with(|cell| cell.set(stack));

    if iu == IuKind::Pipelined {
        // Drain: for a hit, the terminal result must leave the pipeline;
        // for a miss, the last in-flight result must before the traverser
        // can report "no collision".
        cycles += (IU_PIPELINE_DEPTH - 1) as u64;
    }
    OocdResult {
        colliding: hit,
        cycles,
        ops,
    }
}

/// Software cross-check: the same traversal evaluated functionally (no
/// timing) with the scalar proposed cascade, used to validate [`run_oocd`]
/// in tests.
pub fn reference_outcome(octree: &Octree, obb: &FxObb) -> bool {
    // Note this quantizes the *pure* f32 octant chain per query box — a
    // deliberately independent derivation from the OOCD's level-by-level
    // quantize-roundtrip chain, which is what makes it a cross-check.
    let obb_q = obb.to_f32().quantize();
    let cascade = mp_geometry::cascade::CascadeConfig::proposed();
    octree.collides_with(|aabb| {
        mp_geometry::cascade::cascaded_obb_aabb(&obb_q, &aabb.quantize(), &cascade).colliding
    })
}

/// Issues one tested box's cascade outcome to the Intersection Unit: bills
/// its work and the cycles it holds the unit's input slot, and returns its
/// verdict.
#[inline]
fn issue(iu: IuKind, lane: &CascadeOutcome, ops: &mut OpCounter, cycles: &mut u64) -> bool {
    let out = intersection_unit::outcome_from_cascade(lane, iu);
    *ops += out.ops;
    *cycles += match iu {
        // The unit is busy for the whole cascade.
        IuKind::MultiCycle => out.initiation_interval as u64,
        // A new query enters every cycle; drain latency added at the end.
        IuKind::Pipelined => 1,
    };
    out.colliding
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_geometry::{Aabb, Obb, Vec3};
    use mp_octree::{Scene, SceneConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_obb(rng: &mut StdRng) -> Obb<f32> {
        let c = Vec3::new(
            rng.gen_range(-0.9..0.9),
            rng.gen_range(-0.9..0.9),
            rng.gen_range(-0.9..0.9),
        );
        let h = Vec3::new(
            rng.gen_range(0.02..0.3),
            rng.gen_range(0.02..0.12),
            rng.gen_range(0.02..0.12),
        );
        let r = mp_geometry::Mat3::rotation_z(rng.gen_range(-3.0..3.0))
            * mp_geometry::Mat3::rotation_y(rng.gen_range(-1.5..1.5));
        Obb::new(c, h, r)
    }

    #[test]
    fn agrees_with_reference_traversal() {
        let mut rng = StdRng::seed_from_u64(3);
        for seed in 0..5 {
            let tree = Scene::random(SceneConfig::paper(), seed).octree();
            for _ in 0..60 {
                let obb = random_obb(&mut rng).quantize();
                for iu in [IuKind::MultiCycle, IuKind::Pipelined] {
                    let got = run_oocd(&tree, &obb, iu);
                    let want = reference_outcome(&tree, &obb);
                    assert_eq!(got.colliding, want, "seed {seed} iu {iu:?}");
                }
            }
        }
    }

    #[test]
    fn empty_tree_costs_root_visit_only() {
        let tree = Octree::build(&[], 4);
        let obb = Obb::axis_aligned(Vec3::zero(), Vec3::splat(0.1)).quantize();
        let out = run_oocd(&tree, &obb, IuKind::MultiCycle);
        assert!(!out.colliding);
        assert_eq!(out.ops.sram_reads, 1);
        assert_eq!(out.ops.box_tests, 0); // nothing occupied
        assert_eq!(out.cycles, 2); // address + node read
    }

    #[test]
    fn typical_queries_stay_under_40_cycles() {
        // §7.2.2: "OOCD ... performs collision detection between
        // OBB-environment in < 40 cycles with 0.75KB on-chip SRAM."
        let mut rng = StdRng::seed_from_u64(9);
        let mut total = 0u64;
        let mut n = 0u64;
        for seed in 0..10 {
            let tree = Scene::random(SceneConfig::paper(), seed).octree();
            assert!(tree.storage_bytes() <= 768);
            for _ in 0..100 {
                let obb = random_obb(&mut rng).quantize();
                let out = run_oocd(&tree, &obb, IuKind::MultiCycle);
                total += out.cycles;
                n += 1;
            }
        }
        let avg = total as f64 / n as f64;
        assert!(avg < 40.0, "average OOCD latency {avg} cycles");
    }

    #[test]
    fn pipelined_is_no_slower_on_busy_nodes() {
        // A big OBB near obstacles issues many queries per node; the
        // pipelined unit should win or tie on average.
        let tree = Scene::random(SceneConfig::with_obstacles(9), 2).octree();
        let mut rng = StdRng::seed_from_u64(4);
        let mut mc = 0u64;
        let mut p = 0u64;
        for _ in 0..200 {
            let obb = random_obb(&mut rng).quantize();
            mc += run_oocd(&tree, &obb, IuKind::MultiCycle).cycles;
            p += run_oocd(&tree, &obb, IuKind::Pipelined).cycles;
        }
        assert!(p <= mc, "pipelined {p} vs multi-cycle {mc}");
    }

    #[test]
    fn colliding_query_early_exits() {
        // OBB sitting inside an obstacle: should terminate quickly.
        let obs = Aabb::new(Vec3::new(0.5, 0.5, 0.5), Vec3::splat(0.1));
        let tree = Octree::build(&[obs], 4);
        let obb = Obb::axis_aligned(obs.center, Vec3::splat(0.02)).quantize();
        let out = run_oocd(&tree, &obb, IuKind::MultiCycle);
        assert!(out.colliding);
        assert!(out.cycles < 30, "early exit took {} cycles", out.cycles);
    }

    #[test]
    fn mults_track_cascade_filters() {
        // Far-away OBB: every issued test should cost only the 3-mult
        // bounding sphere filter at the root.
        let obs = Aabb::new(Vec3::new(0.7, 0.7, 0.7), Vec3::splat(0.05));
        let tree = Octree::build(&[obs], 4);
        let obb = Obb::axis_aligned(Vec3::new(-0.7, -0.7, -0.7), Vec3::splat(0.03)).quantize();
        let out = run_oocd(&tree, &obb, IuKind::MultiCycle);
        assert!(!out.colliding);
        assert_eq!(out.ops.mults, 3 * out.ops.box_tests);
    }
}
