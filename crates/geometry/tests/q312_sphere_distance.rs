//! `Fx`'s squared box distance (`Scalar::box_dist2`, what `HoistedCascade`
//! feeds both sphere filters) is computed in exact `i32` arithmetic. It
//! must equal the saturating Q3.12 chain of the scalar oracle
//! (`sphere_aabb_overlap`: clamp into the box, subtract, square, sum) on
//! every input, including the rails where the chain saturates. The
//! whole hoisted Q3.12 cascade, whose SAT stages also run in integer
//! arithmetic where no step can saturate, must equal the scalar oracle.
//!
//! The ignored sweep runs the full grid of edge values and 10^8 seeded
//! inputs; run it with
//! `cargo test --release -p mp-geometry -- --ignored`.

use mp_fixed::Fx;
use mp_geometry::cascade::{cascaded_obb_aabb, CascadeConfig};
use mp_geometry::soa::HoistedCascade;
use mp_geometry::{Aabb, Mat3, Obb, Scalar, Vector3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The raw values where saturation and sign edges sit.
const EDGES: [i16; 7] = [i16::MIN, i16::MIN + 1, -1, 0, 1, i16::MAX - 1, i16::MAX];

fn fx3(v: [i16; 3]) -> [Fx; 3] {
    v.map(Fx::from_bits)
}

/// The oracle's expression, saturating at every step: the box is built
/// field by field so negative half extents reach the chain unchanged, as
/// raw octree lanes would.
fn chain(p: [Fx; 3], c: [Fx; 3], h: [Fx; 3]) -> Fx {
    let v = |a: [Fx; 3]| Vector3::new(a[0], a[1], a[2]);
    let aabb = Aabb {
        center: v(c),
        half: v(h),
    };
    let d = aabb.closest_point(v(p)) - v(p);
    d.dot(d)
}

fn check(p: [i16; 3], c: [i16; 3], h: [i16; 3]) {
    let (p, c, h) = (fx3(p), fx3(c), fx3(h));
    let got = <Fx as Scalar>::box_dist2(p, c, h);
    let want = chain(p, c, h);
    assert_eq!(got, want, "p {p:?} c {c:?} h {h:?}");
}

/// A raw value biased toward the rails and small magnitudes.
fn raw(rng: &mut StdRng) -> i16 {
    match rng.gen_range(0..4u32) {
        0 => EDGES[rng.gen_range(0..EDGES.len())],
        1 => rng.gen_range(-64..=64i16),
        2 => {
            let rail = if rng.gen_range(0..2u32) == 0 {
                i16::MIN
            } else {
                i16::MAX
            };
            rail.saturating_add(rng.gen_range(-300..=300i16))
        }
        _ => rng.gen_range(i16::MIN..=i16::MAX),
    }
}

fn sweep(seed: u64, n: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let mut v = [0i16; 9];
        for x in &mut v {
            *x = raw(&mut rng);
        }
        check([v[0], v[1], v[2]], [v[3], v[4], v[5]], [v[6], v[7], v[8]]);
    }
}

/// Every `(p, c, h)` triple of edge values one axis can take.
fn edge_triples() -> Vec<[i16; 3]> {
    let mut out = Vec::with_capacity(EDGES.len().pow(3));
    for p in EDGES {
        for c in EDGES {
            for h in EDGES {
                out.push([p, c, h]);
            }
        }
    }
    out
}

/// Checks one case given as a `(p, c, h)` triple per axis.
fn check_axes(x: [i16; 3], y: [i16; 3], z: [i16; 3]) {
    check([x[0], y[0], z[0]], [x[1], y[1], z[1]], [x[2], y[2], z[2]]);
}

#[test]
fn integer_distance_matches_saturating_chain_on_the_edge_grid() {
    // The chain sees each axis only through that axis's saturated square,
    // so the full 7^9 grid (run by the ignored sweep) falls into classes
    // that this covers: every edge triple on each axis, with the other two
    // axes at one triple of every square value an edge triple produces.
    let triples = edge_triples();
    let mut squares: Vec<(Fx, [i16; 3])> = Vec::new();
    for &t in &triples {
        let sq = chain(fx3([t[0], 0, 0]), fx3([t[1], 0, 0]), fx3([t[2], 0, 0]));
        if !squares.iter().any(|&(s, _)| s == sq) {
            squares.push((sq, t));
        }
    }
    // Edge differences are tiny or huge: their squares round to 0 or
    // saturate at the rail.
    assert_eq!(squares.len(), 2, "edge squares {squares:?}");
    for &t in &triples {
        for &(_, a) in &squares {
            for &(_, b) in &squares {
                check_axes(t, a, b);
                check_axes(a, t, b);
                check_axes(a, b, t);
            }
        }
    }
}

#[test]
fn integer_distance_matches_saturating_chain_on_seeded_inputs() {
    sweep(1, 200_000);
}

#[test]
#[ignore = "the full edge grid and 10^8 seeded inputs; run in release with --ignored"]
fn integer_distance_matches_saturating_chain_on_a_long_sweep() {
    let triples = edge_triples();
    for &x in &triples {
        for &y in &triples {
            for &z in &triples {
                check_axes(x, y, z);
            }
        }
    }
    sweep(2, 100_000_000);
}

/// Compares the hoisted Q3.12 cascade with the scalar oracle on 2,000
/// seeded OBBs and 8 boxes each, every box redrawn (up to 64 times) until
/// the sphere filters leave it to the SAT stages. Coordinates come from
/// `f`. Returns how many boxes reached a SAT stage.
fn cascade_past_the_filters(rng: &mut StdRng, f: fn(&mut StdRng) -> f32) -> u32 {
    let cfg = CascadeConfig::proposed();
    let mut reached = 0;
    for _ in 0..2_000 {
        let mut v = || Vector3::new(f(rng), f(rng), f(rng));
        let (center, half) = (v(), v());
        let rotation = Mat3::rotation_z(f(rng)) * Mat3::rotation_x(f(rng));
        let obb = Obb::new(center, half, rotation).quantize();
        let mut hoisted = HoistedCascade::new(&obb);
        for _ in 0..8 {
            for _ in 0..64 {
                let c = Vector3::new(f(rng), f(rng), f(rng)).quantize();
                let h = Vector3::new(f(rng), f(rng), f(rng)).abs().quantize();
                let aabb = Aabb { center: c, half: h };
                let want = cascaded_obb_aabb(&obb, &aabb, &cfg);
                assert_eq!(
                    hoisted.outcome(c.x, c.y, c.z, h.x, h.y, h.z),
                    want,
                    "obb {obb:?} aabb {aabb:?}"
                );
                if want.stages_executed > 1 {
                    reached += 1;
                    break;
                }
            }
        }
    }
    reached
}

#[test]
fn hoisted_fixed_point_cascade_matches_oracle_at_the_rails() {
    // Whole cascade outcomes (exit stage, axis, mults), not only d², on
    // quantized boxes whose centres and extents reach the Q3.12 rails,
    // where the SAT stages take the saturating lanes, and on boxes within
    // a few units, where they take the exact integer lanes until a box
    // leaves their bounds.
    let mut rng = StdRng::seed_from_u64(3);
    let rails = cascade_past_the_filters(&mut rng, |rng| Fx::from_bits(raw(rng)).to_f32());
    let near = cascade_past_the_filters(&mut rng, |rng| rng.gen_range(-3.5f32..3.5));
    // Of the 16,000 boxes per row, 12,548 and 15,854 reach a SAT stage.
    assert!(
        rails >= 12_000 && near >= 15_000,
        "SAT cases: rails {rails}, near {near}"
    );
}
