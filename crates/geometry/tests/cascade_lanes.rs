//! The long seeded sweep of the production collision kernel: about 10^6
//! pairs that reach the SAT stages per lane (`f32`, Q3.12 inside the
//! integer SAT lanes' bounds, Q3.12 through the saturating lanes), each
//! compared whole with the scalar cascade oracle. The facade test
//! `tests/cascade_kernel.rs` runs the same lanes briefly; run this one
//! with `cargo test --release -p mp-geometry -- --ignored`.

mod lanes;

use lanes::{sweep, Lane};

#[test]
#[ignore = "about 10^6 SAT-reaching pairs per lane; run in release with --ignored"]
fn hoisted_cascade_equals_the_oracle_on_a_long_sweep() {
    for (lane, seed) in [
        (Lane::F32, 11),
        (Lane::Q312Integer, 12),
        (Lane::Q312Saturating, 13),
    ] {
        let exits = sweep(lane, seed, 1_000_000);
        assert!(exits.iter().all(|&n| n > 0), "{lane:?} exits {exits:?}");
    }
}
