//! Tier-1 pin of the collision kernel both octree walks run:
//! `HoistedCascade`, whose SAT stages are straight-line code per axis,
//! must equal the scalar cascade oracle (`cascaded_obb_aabb` under
//! `CascadeConfig::proposed()`) on every pair, outcome for outcome, in
//! all three of its arithmetic lanes: `f32` (the software checker),
//! Q3.12 inside the integer SAT lanes' bounds and Q3.12 through the
//! saturating lanes (the OOCD walk). Boxes are seeded and redrawn past
//! the sphere filters, and each lane must reach every SAT exit. The long
//! sweep of the same lanes is `crates/geometry/tests/cascade_lanes.rs`.

#[path = "../crates/geometry/tests/lanes/mod.rs"]
mod lanes;

use lanes::{sweep, Lane};

fn reaches_every_sat_exit(lane: Lane, seed: u64) {
    let exits = sweep(lane, seed, 40_000);
    assert!(exits.iter().all(|&n| n > 0), "{lane:?} exits {exits:?}");
}

#[test]
fn f32_kernel_equals_the_oracle() {
    reaches_every_sat_exit(Lane::F32, 1);
}

#[test]
fn q312_integer_lanes_equal_the_oracle() {
    reaches_every_sat_exit(Lane::Q312Integer, 2);
}

#[test]
fn q312_saturating_lanes_equal_the_oracle() {
    reaches_every_sat_exit(Lane::Q312Saturating, 3);
}
