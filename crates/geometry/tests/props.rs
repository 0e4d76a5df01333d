//! Property-based tests for the intersection kernels.

use mp_geometry::cascade::{cascaded_obb_aabb, CascadeConfig, StageSplit};
use mp_geometry::sat::{
    overlaps, quantization_margin, sat_all, sat_first_separating, signed_separation,
};
use mp_geometry::soa::{sat_overlaps_hoisted, AabbSoa, HoistedCascade, SatConsts};
use mp_geometry::{Aabb, AabbF, Mat3, Obb, Scalar, Sphere, Vec3};
use proptest::prelude::*;

/// Boxes drawn per case to replace those the sphere filters decide.
const REDRAWS: usize = 24;

fn any_vec(range: f32) -> impl Strategy<Value = Vec3> {
    (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn any_half() -> impl Strategy<Value = Vec3> {
    (0.02f32..0.6, 0.02f32..0.6, 0.02f32..0.6).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn any_rot() -> impl Strategy<Value = Mat3> {
    (-3.0f32..3.0, -1.5f32..1.5, -3.0f32..3.0)
        .prop_map(|(a, b, c)| Mat3::rotation_z(a) * Mat3::rotation_y(b) * Mat3::rotation_x(c))
}

fn any_obb() -> impl Strategy<Value = Obb> {
    (any_vec(1.5), any_half(), any_rot()).prop_map(|(c, h, r)| Obb::new(c, h, r))
}

fn any_aabb() -> impl Strategy<Value = AabbF> {
    (any_vec(1.0), any_half()).prop_map(|(c, h)| Aabb::new(c, h))
}

/// Placement of a box that passes both sphere filters of an OBB: its
/// distance from the OBB centre as a fraction of the way from the
/// inscribed to the bounding radius, the direction it lies in, and its
/// half extents.
fn any_placement() -> impl Strategy<Value = (f32, Vec3, Vec3)> {
    (0.05f32..0.95, any_vec(1.0), any_half())
}

/// The box `placement` puts at a distance from `obb`'s centre strictly
/// between its inscribed and bounding radii, so the sphere filters leave
/// it to the SAT stages.
fn past_the_filters(obb: &Obb, (t, dir, half): (f32, Vec3, Vec3)) -> AabbF {
    let d = obb.inscribed_radius + t * (obb.bounding_radius - obb.inscribed_radius);
    let w = dir.abs() * (1.0 / dir.abs().length().max(1e-6));
    // Per axis the box starts `d * w` past the centre, so the closest
    // point lies at distance `d`.
    let off = |x: f32, w: f32, h: f32| (d * w + h).copysign(x);
    let center = obb.center
        + Vec3::new(
            off(dir.x, w.x, half.x),
            off(dir.y, w.y, half.y),
            off(dir.z, w.z, half.z),
        );
    Aabb::new(center, half)
}

/// Samples a dense grid of points inside the OBB; if any lies inside the
/// AABB the boxes definitely overlap (a one-sided geometric oracle).
fn sampled_overlap_witness(obb: &Obb, aabb: &AabbF) -> bool {
    let n = 6;
    for ix in 0..=n {
        for iy in 0..=n {
            for iz in 0..=n {
                let f = |i: i32, h: f32| (i as f32 / n as f32 * 2.0 - 1.0) * h;
                let local = Vec3::new(f(ix, obb.half.x), f(iy, obb.half.y), f(iz, obb.half.z));
                let world = obb.center + obb.rotation * local;
                if aabb.contains_point(world) {
                    return true;
                }
            }
        }
    }
    false
}

/// Drives one `HoistedCascade` across `boxes` (held as SoA lanes, like
/// the flat octree arena) and compares every outcome with the scalar
/// oracle `cascaded_obb_aabb` under the proposed configuration. The sphere
/// filters decide most random pairs, so a box they decide is followed by
/// boxes from `redraws` until one reaches a SAT stage. Returns how many of
/// `boxes` reached one, directly or through a redraw.
fn hoisted_matches_scalar<S: Scalar>(
    obb: &Obb<S>,
    boxes: &[Aabb<S>],
    redraws: &[Aabb<S>],
) -> Result<usize, TestCaseError> {
    let cfg = CascadeConfig::proposed();
    let mut redraws = redraws.iter();
    let mut soa = AabbSoa::new();
    let mut want = Vec::new();
    let mut reached = 0;
    for b in boxes {
        let mut b = b;
        loop {
            let out = cascaded_obb_aabb(obb, b, &cfg);
            soa.push(b);
            want.push(out);
            if out.stages_executed > 1 {
                reached += 1;
                break;
            }
            match redraws.next() {
                Some(next) => b = next,
                None => break,
            }
        }
    }
    let mut hoisted = HoistedCascade::new(obb);
    let [cx, cy, cz, hx, hy, hz] = soa.coord_lanes();
    for (l, want) in want.iter().enumerate() {
        let got = hoisted.outcome(cx[l], cy[l], cz[l], hx[l], hy[l], hz[l]);
        prop_assert_eq!(&got, want, "box {}", l);
    }
    Ok(reached)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The cascaded early-exit flow must classify exactly like plain SAT.
    #[test]
    fn cascade_equals_sat(obb in any_obb(), aabb in any_aabb()) {
        let want = sat_first_separating(&obb, &aabb).colliding();
        let got = cascaded_obb_aabb(&obb, &aabb, &CascadeConfig::proposed()).colliding;
        prop_assert_eq!(got, want);
    }

    /// Sequential early-exit and fully-parallel SAT agree on the outcome and
    /// on the first separating axis.
    #[test]
    fn sequential_and_parallel_sat_agree(obb in any_obb(), aabb in any_aabb()) {
        let seq = sat_first_separating(&obb, &aabb);
        let all = sat_all(&obb, &aabb);
        prop_assert_eq!(seq.colliding(), all.colliding());
        prop_assert_eq!(seq.separating, all.separating);
        prop_assert!(seq.mults <= all.mults);
    }

    /// If a sampled point of the OBB lies inside the AABB, SAT must report
    /// a collision (SAT never produces false "separated" verdicts).
    #[test]
    fn sat_never_misses_witnessed_overlap(obb in any_obb(), aabb in any_aabb()) {
        if sampled_overlap_witness(&obb, &aabb) {
            prop_assert!(overlaps(&obb, &aabb));
        }
    }

    /// Disjoint enclosing AABBs imply SAT separation (necessary condition;
    /// axes 1-3 of the SAT are exactly this test).
    #[test]
    fn enclosing_aabb_disjoint_implies_separated(obb in any_obb(), aabb in any_aabb()) {
        if !obb.enclosing_aabb().overlaps(&aabb) {
            prop_assert!(!overlaps(&obb, &aabb));
        }
    }

    /// Fixed-point quantization is conservative: an f32-colliding pair with
    /// margin (witnessed by a strictly interior sample point) stays
    /// colliding after quantization.
    #[test]
    fn quantization_preserves_witnessed_collisions(obb in any_obb(), aabb in any_aabb()) {
        // Shrink the obb slightly for the witness so the overlap has margin.
        let shrunk = Obb::new(obb.center, obb.half * 0.9, obb.rotation);
        if sampled_overlap_witness(&shrunk, &aabb) {
            prop_assert!(overlaps(&obb.quantize(), &aabb.quantize()));
        }
    }

    /// The bounding sphere always contains the OBB's corners and the
    /// inscribed sphere never pokes out of it.
    #[test]
    fn sphere_radii_bracket_box(obb in any_obb()) {
        for c in obb.corners() {
            let d = (c - obb.center).length();
            prop_assert!(d <= obb.bounding_radius + 1e-4);
            prop_assert!(d >= obb.inscribed_radius - 1e-4);
        }
    }

    /// Sphere-AABB overlap agrees between f32 and fixed point on clear cases
    /// (margin larger than the quantization grid).
    #[test]
    fn sphere_test_f32_fx_agree_with_margin(c in any_vec(1.5), r in 0.05f32..0.8, aabb in any_aabb()) {
        let s = Sphere::new(c, r);
        let closest = aabb.closest_point(c);
        let margin = ((closest - c).length() - r).abs();
        prop_assume!(margin > 0.01);
        let f32_hit = s.overlaps_aabb(&aabb);
        let fx_hit = s.quantize_outer().overlaps_aabb(&aabb.quantize());
        prop_assert_eq!(f32_hit, fx_hit);
    }

    /// All stage splits classify identically (the split is an energy/latency
    /// trade-off, never a correctness knob).
    #[test]
    fn stage_splits_classify_identically(obb in any_obb(), aabb in any_aabb()) {
        let base = cascaded_obb_aabb(&obb, &aabb, &CascadeConfig::proposed()).colliding;
        for split in [[5u8, 5, 5], [6, 5, 4], [10, 3, 2], [1, 1, 13]] {
            let cfg = CascadeConfig { split: StageSplit::new(split), ..CascadeConfig::proposed() };
            prop_assert_eq!(cascaded_obb_aabb(&obb, &aabb, &cfg).colliding, base);
        }
    }

    /// Differential Q3.12-vs-f32 verdicts: the fixed-point SAT may only
    /// disagree with the exact f32 SAT when the pair sits within the
    /// documented quantization margin of the separated/colliding
    /// threshold, and any disagreement must be collision-biased — a pair
    /// separated (resp. colliding) by more than the margin classifies
    /// identically in both arithmetics.
    #[test]
    fn fx_and_f32_sat_disagree_only_inside_the_margin(obb in any_obb(), aabb in any_aabb()) {
        let f32_hit = overlaps(&obb, &aabb);
        let fx_hit = overlaps(&obb.quantize(), &aabb.quantize());
        if f32_hit != fx_hit {
            let sep = signed_separation(&obb, &aabb);
            let margin = quantization_margin(&obb, &aabb);
            prop_assert!(
                sep.abs() <= margin,
                "verdicts disagree (f32 {} vs fx {}) outside the margin: |{}| > {}",
                f32_hit, fx_hit, sep, margin
            );
        }
    }

    /// Conservatism, stated directly: a collision deeper than the margin
    /// is never reported free by fixed point (the safety direction — a
    /// false "free" verdict would let a planner drive through an
    /// obstacle).
    #[test]
    fn fx_never_frees_a_deep_collision(obb in any_obb(), aabb in any_aabb()) {
        let sep = signed_separation(&obb, &aabb);
        if sep < -quantization_margin(&obb, &aabb) {
            prop_assert!(overlaps(&obb.quantize(), &aabb.quantize()),
                "fx freed a collision with separation {sep}");
        }
    }

    /// The fixed-point cascade classifies exactly like the fixed-point
    /// SAT — the early-exit flow is arithmetic-agnostic.
    #[test]
    fn fx_cascade_equals_fx_sat(obb in any_obb(), aabb in any_aabb()) {
        let (qo, qa) = (obb.quantize(), aabb.quantize());
        let want = sat_first_separating(&qo, &qa).colliding();
        let got = cascaded_obb_aabb(&qo, &qa, &CascadeConfig::proposed()).colliding;
        prop_assert_eq!(got, want);
    }

    /// The signed separation agrees in sign with the SAT verdict.
    #[test]
    fn signed_separation_matches_the_verdict(obb in any_obb(), aabb in any_aabb()) {
        let sep = signed_separation(&obb, &aabb);
        prop_assert_eq!(sep > 0.0, !overlaps(&obb, &aabb));
    }

    /// Cascade multiplication accounting is bounded by filters + full SAT.
    #[test]
    fn cascade_mults_bounded(obb in any_obb(), aabb in any_aabb()) {
        let out = cascaded_obb_aabb(&obb, &aabb, &CascadeConfig::proposed());
        prop_assert!(out.mults >= 3);
        prop_assert!(out.mults <= 6 + 81);
        prop_assert!(out.stages_executed >= 1 && out.stages_executed <= 4);
    }

    /// The production cascade kernel is the scalar cascade, box for box:
    /// one `HoistedCascade` per OBB is driven across every generated box
    /// through the SoA lanes, as both octree walks do, and the whole
    /// outcome record (verdict, exit stage, first separating axis, mult and
    /// stage counters) must match the proposed configuration's. Every
    /// generated box reaches the SAT stages, through redraws.
    #[test]
    fn hoisted_cascade_is_bit_identical_to_scalar(
        obb in any_obb(),
        boxes in prop::collection::vec(any_aabb(), 1..12),
        placements in prop::collection::vec(any_placement(), REDRAWS),
    ) {
        let redraws: Vec<_> = placements.iter().map(|&p| past_the_filters(&obb, p)).collect();
        let reached = hoisted_matches_scalar(&obb, &boxes, &redraws)?;
        prop_assert_eq!(reached, boxes.len());
    }

    /// Same bit-identity contract in Q3.12: quantize both sides and the
    /// hoisted cascade must still replicate the scalar fixed-point cascade
    /// exactly.
    #[test]
    fn hoisted_cascade_is_bit_identical_in_fixed_point(
        obb in any_obb(),
        boxes in prop::collection::vec(any_aabb(), 1..12),
        placements in prop::collection::vec(any_placement(), REDRAWS),
    ) {
        let qboxes: Vec<_> = boxes.iter().map(|b| b.quantize()).collect();
        let qredraws: Vec<_> =
            placements.iter().map(|&p| past_the_filters(&obb, p).quantize()).collect();
        let reached = hoisted_matches_scalar(&obb.quantize(), &qboxes, &qredraws)?;
        prop_assert_eq!(reached, boxes.len());
    }

    /// The hoisted-constants overlap sweep (voxel rasterization path) is
    /// the plain 15-axis SAT verdict, pair for pair.
    #[test]
    fn hoisted_overlap_equals_plain_sat(
        obb in any_obb(),
        boxes in prop::collection::vec(any_aabb(), 1..10),
    ) {
        let consts = SatConsts::new(&obb);
        for b in &boxes {
            prop_assert_eq!(
                sat_overlaps_hoisted(&consts, obb.center, b),
                overlaps(&obb, b)
            );
        }
    }
}
