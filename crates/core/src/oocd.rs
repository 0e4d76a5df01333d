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
//! only design choice a walk takes is the unit's [`IuKind`]. One walk
//! models this datapath. [`run_oocd`] runs it clean;
//! [`run_oocd_with_faults`] runs the same walk with a [`FaultInjector`]
//! attached, which corrupts node words as they are read and turns on the
//! structural and parity checks. Octant boxes come from the octree's
//! precomputed arena while the walk follows the builder's own chain; below
//! a word that drew an upset they are derived on the fly from the decoded
//! (possibly corrupted) words, exactly as the hardware would.

use std::cell::Cell;

use mp_geometry::cascade::CascadeOutcome;
use mp_geometry::soa::HoistedCascade;
use mp_geometry::{AabbF, FxObb};
use mp_octree::{Node, Occupancy, Octree};
use mp_sim::fault::{parity24, FaultKind, SRAM_WORD_BITS};
use mp_sim::{FaultInjector, IuKind, OpCounter};

use crate::intersection_unit::{self, IU_PIPELINE_DEPTH};

thread_local! {
    // Reusable traversal stacks, taken out of the cell per query and put
    // back afterwards, like the octree's own traversal stack:
    // allocation-free in steady state, reentrancy-safe. Each entry is a
    // node address plus its parent box when the node was reached through
    // a word that drew an upset (`None`: on the builder's chain).
    static OOCD_STACK: Cell<Vec<(u32, Option<AabbF>)>> = Cell::default();
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
    walk(octree, obb, iu, None).result
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

/// Outcome of one fault-injected OBB–octree query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultyOocdOutcome {
    /// The (possibly corrupted) query result. When a fault was detected,
    /// `result.colliding` holds the unit's conservative in-place fallback
    /// ("collision wins"); callers with a retry budget should re-dispatch
    /// instead of trusting it.
    pub result: OocdResult,
    /// SRAM words corrupted during this traversal.
    pub sram_upsets: u32,
    /// An SRAM parity check caught an upset (only when parity checking
    /// was enabled).
    pub parity_detected: bool,
    /// A structural check fired: undecodable node word, out-of-range node
    /// or child address, or the traversal read cap. These checks are part
    /// of the decoder/traverser and stay active even with detection off.
    pub structural_detected: bool,
}

impl FaultyOocdOutcome {
    /// Whether any detection mechanism fired.
    pub fn detected(&self) -> bool {
        self.parity_detected || self.structural_detected
    }
}

/// [`run_oocd`] with SRAM fault injection (Fig 14b datapath under upset).
///
/// Each node word read from SRAM is an injection opportunity for
/// [`FaultKind::SramBitFlip`]: the packed 24-bit word (plus its parity
/// bit) suffers a single-bit upset *before* `Node::unpack`. With
/// `parity_checking` the stored even parity catches every single-bit
/// upset and the unit aborts (detected). Without it, the corrupted word
/// is decoded: reserved occupancy patterns surface as decode errors,
/// corrupted child pointers as out-of-range addresses or traversal loops
/// (bounded by a read cap of `2 * node_count + 8`) — all structural
/// detections resolved conservatively as collisions. Upsets that survive
/// decoding silently alter the verdict; the recovery layer classifies
/// those as masked or escaped against a clean reference run.
///
/// Nodes whose word cannot be packed (octree beyond the 256-node hardware
/// budget) are read fault-free: there is no hardware word to corrupt.
pub fn run_oocd_with_faults(
    octree: &Octree,
    obb: &FxObb,
    iu: IuKind,
    inj: &mut FaultInjector,
    parity_checking: bool,
) -> FaultyOocdOutcome {
    walk(octree, obb, iu, Some((inj, parity_checking)))
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

/// The one OOCD traversal behind [`run_oocd`] and
/// [`run_oocd_with_faults`]. `faults` attaches an injector and says
/// whether SRAM parity checking is on; only then are node words packed,
/// upset and checked.
///
/// A node reached along the builder's chain through intact words serves
/// its arena boxes (Q3.12, the same quantize-roundtrip chain the
/// per-octant walk derives; the arena derives it on the tree's first OOCD
/// walk). A node whose word drew an upset (even one that only flipped the
/// parity bit), and every node below it, is walked octant by octant from
/// its decoded word with boxes derived on the fly. Either way each box
/// runs through the one hoisted cascade of this link query — squared
/// radii and SAT constants derived once — and is committed in octant
/// order with the unit's timing model.
fn walk(
    octree: &Octree,
    obb: &FxObb,
    iu: IuKind,
    mut faults: Option<(&mut FaultInjector, bool)>,
) -> FaultyOocdOutcome {
    let mut cycles: u64 = 1; // root address into the Address Register
    let mut ops = OpCounter::default();
    let mut out = FaultyOocdOutcome::default();
    let flat = octree.flat();
    let node_count = octree.node_count() as u32;
    let read_cap = 2 * node_count as u64 + 8;
    let [cx, cy, cz, hx, hy, hz] = flat.aabbs_oocd().coord_lanes();
    let mut cascade = HoistedCascade::new(obb);

    // The traversal stack models the Address Register + Node Queue.
    let mut stack = OOCD_STACK.with(Cell::take);
    stack.clear();
    stack.push((0, None));
    let mut hit = false;

    'walk: while let Some((addr, parent)) = stack.pop() {
        // SRAM read of the 24-bit node word.
        cycles += 1;
        ops.sram_reads += 1;

        // The decoded word, when this read drew an upset.
        let mut upset = None;
        if let Some((inj, parity_checking)) = faults.as_mut() {
            // Structural checks: the Memory Request Generator rejects
            // addresses beyond the octree's SRAM extent (corrupted
            // pointer), and a traversal visiting far more words than the
            // SRAM holds is cycling through corrupted pointers.
            if addr >= node_count || ops.sram_reads > read_cap {
                out.structural_detected = true;
                break 'walk;
            }
            // A word that cannot be packed has no hardware word to corrupt.
            if let Ok(word) = octree.node(addr).pack() {
                if inj.fires(FaultKind::SramBitFlip) {
                    out.sram_upsets += 1;
                    // The stored parity bit covered the original word; the
                    // upset flipped either a data bit or the parity bit.
                    let flip = inj.corrupt_sram_word(word);
                    let parity = parity24(word) ^ u32::from(flip.flipped_bit == SRAM_WORD_BITS);
                    if *parity_checking && parity24(flip.word) != parity {
                        out.parity_detected = true;
                        break 'walk;
                    }
                    match Node::unpack(flip.word) {
                        Ok(node) => upset = Some(node),
                        Err(_) => {
                            // Reserved occupancy pattern: the decoder
                            // cannot proceed (structural detection, even
                            // without parity checking).
                            out.structural_detected = true;
                            break 'walk;
                        }
                    }
                }
            }
        }

        if parent.is_none() && upset.is_none() {
            for e in flat.entries(addr) {
                let lane = cascade.outcome(cx[e], cy[e], cz[e], hx[e], hy[e], hz[e]);
                if issue(iu, &lane, &mut ops, &mut cycles) {
                    if flat.is_full(e) {
                        // Terminal: report collision once this result drains.
                        hit = true;
                        break 'walk;
                    }
                    stack.push((flat.child(e), None));
                }
            }
        } else {
            let node = upset.unwrap_or(*octree.node(addr));
            let node_aabb = parent.unwrap_or_else(|| flat.node_aabb_oocd(addr));
            for octant in 0..8 {
                let occ = node.occupancy(octant);
                if !occ.is_occupied() {
                    continue;
                }
                let oct_aabb = Octree::octant_aabb(&node_aabb, octant).quantize();
                let (c, h) = (oct_aabb.center, oct_aabb.half);
                let lane = cascade.outcome(c.x, c.y, c.z, h.x, h.y, h.z);
                if issue(iu, &lane, &mut ops, &mut cycles) {
                    if occ == Occupancy::Full {
                        hit = true;
                        break 'walk;
                    }
                    // A corrupted word can report Partial where the real
                    // node had no child; the decoded child address is
                    // pushed regardless (hardware follows the bits) and the
                    // address checks above catch out-of-range pointers.
                    if let Some(child) = node.child_address(octant) {
                        stack.push((child, Some(oct_aabb.to_f32())));
                    }
                }
            }
        }
        // The Node Queue lets the traverser prefetch the next stacked node
        // while pipelined results drain, hiding the pipeline latency
        // between nodes entirely; only the final drain (below) is exposed.
    }

    stack.clear();
    OOCD_STACK.with(|cell| cell.set(stack));

    // A detection resolves in place, conservatively: the octant is
    // reported occupied without waiting for the pipeline.
    let detected = out.detected();
    if iu == IuKind::Pipelined && !detected {
        // Drain: for a hit, the terminal result must leave the pipeline;
        // for a miss, the last in-flight result must before the traverser
        // can report "no collision".
        cycles += (IU_PIPELINE_DEPTH - 1) as u64;
    }
    out.result = OocdResult {
        colliding: hit || detected,
        cycles,
        ops,
    };
    out
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
    fn fault_free_injector_matches_plain_run() {
        use mp_sim::{FaultInjector, FaultPlan};
        let mut rng = StdRng::seed_from_u64(11);
        let tree = Scene::random(SceneConfig::paper(), 1).octree();
        let mut inj = FaultInjector::new(FaultPlan::none(0));
        for _ in 0..50 {
            let obb = random_obb(&mut rng).quantize();
            let plain = run_oocd(&tree, &obb, IuKind::MultiCycle);
            let faulty = run_oocd_with_faults(&tree, &obb, IuKind::MultiCycle, &mut inj, true);
            assert_eq!(faulty.result, plain);
            assert!(!faulty.detected());
            assert_eq!(faulty.sram_upsets, 0);
        }
        assert_eq!(inj.counters().injected_total(), 0);
    }

    #[test]
    fn parity_checking_detects_every_upset() {
        use mp_sim::fault::FaultKind;
        use mp_sim::{FaultInjector, FaultPlan};
        let mut rng = StdRng::seed_from_u64(12);
        let tree = Scene::random(SceneConfig::paper(), 2).octree();
        let plan = FaultPlan::none(4).with_rate(FaultKind::SramBitFlip, 1.0);
        let mut inj = FaultInjector::new(plan);
        for _ in 0..50 {
            let obb = random_obb(&mut rng).quantize();
            let f = run_oocd_with_faults(&tree, &obb, IuKind::MultiCycle, &mut inj, true);
            // Every word read is upset, so the very first read trips
            // parity and the unit answers conservatively.
            assert!(f.parity_detected);
            assert!(f.result.colliding);
            assert_eq!(f.sram_upsets, 1);
        }
        assert_eq!(inj.counters().injected(FaultKind::SramBitFlip), 50);
    }

    #[test]
    fn unchecked_upsets_never_hang_or_panic() {
        use mp_sim::fault::FaultKind;
        use mp_sim::{FaultInjector, FaultPlan};
        let mut rng = StdRng::seed_from_u64(13);
        let tree = Scene::random(SceneConfig::paper(), 3).octree();
        let cap = 2 * tree.node_count() as u64 + 8;
        let plan = FaultPlan::none(6).with_rate(FaultKind::SramBitFlip, 0.5);
        let mut inj = FaultInjector::new(plan);
        let mut structural = 0;
        for _ in 0..300 {
            let obb = random_obb(&mut rng).quantize();
            // Detection off: corrupted words are decoded and followed.
            let f = run_oocd_with_faults(&tree, &obb, IuKind::MultiCycle, &mut inj, false);
            assert!(!f.parity_detected);
            assert!(f.result.ops.sram_reads <= cap + 1, "read cap breached");
            if f.structural_detected {
                structural += 1;
                assert!(f.result.colliding, "structural detection is conservative");
            }
        }
        assert!(
            structural > 0,
            "50% upset rate never tripped a structural check"
        );
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        use mp_sim::{FaultInjector, FaultPlan};
        let tree = Scene::random(SceneConfig::paper(), 4).octree();
        let run = || {
            let mut rng = StdRng::seed_from_u64(14);
            let mut inj = FaultInjector::new(FaultPlan::uniform(0.3, 8));
            let mut outs = Vec::new();
            for _ in 0..40 {
                let obb = random_obb(&mut rng).quantize();
                outs.push(run_oocd_with_faults(
                    &tree,
                    &obb,
                    IuKind::Pipelined,
                    &mut inj,
                    false,
                ));
            }
            (outs, *inj.counters())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b);
        assert_eq!(ca, cb);
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
