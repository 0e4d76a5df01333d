//! `Fx::from_f32` rounds without libm; it must agree bit for bit with the
//! `roundf`-based expression it replaced, which every Q3.12 box, pose and
//! OBB in the stack is quantized through. This sweep strides the `f32`
//! bit patterns and adds the values where rounding can go wrong; the
//! exhaustive 2^32 sweep is `crates/fixed/tests/from_f32_exhaustive.rs`.

use mpaccel::fixed::{Fx, RESOLUTION, SCALE};

/// The previous `Fx::from_f32`, verbatim, as the reference.
fn reference(v: f32) -> Fx {
    if v.is_nan() {
        return Fx::ZERO;
    }
    let scaled = (v * SCALE as f32).round();
    if scaled >= i16::MAX as f32 {
        Fx::MAX
    } else if scaled <= i16::MIN as f32 {
        Fx::MIN
    } else {
        Fx::from_bits(scaled as i16)
    }
}

fn assert_matches(v: f32) {
    assert_eq!(
        Fx::from_f32(v),
        reference(v),
        "input {v:e} ({:#010x})",
        v.to_bits()
    );
}

/// `v` and its two `f32` neighbours.
fn with_neighbours(v: f32) -> [f32; 3] {
    [
        f32::from_bits(v.to_bits().wrapping_sub(1)),
        v,
        f32::from_bits(v.to_bits().wrapping_add(1)),
    ]
}

#[test]
fn from_f32_matches_reference_on_a_strided_sweep() {
    for bits in (0..=u32::MAX).step_by(257) {
        assert_matches(f32::from_bits(bits));
    }
}

#[test]
fn from_f32_matches_reference_on_edge_values() {
    let specials = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::EPSILON,
        // Subnormals: the smallest, the largest, and their negatives.
        f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        f32::from_bits(0x8000_0001),
        f32::from_bits(0x807f_ffff),
    ];
    for v in specials {
        assert_matches(v);
    }
    // The half-step ties between every pair of Q3.12 neighbours (and one
    // past each rail), with the f32 values on either side of each tie.
    for k in i16::MIN as i32 - 1..=i16::MAX as i32 + 1 {
        for tie in [(k as f32 - 0.5) * RESOLUTION, (k as f32 + 0.5) * RESOLUTION] {
            for v in with_neighbours(tie) {
                assert_matches(v);
            }
        }
    }
    // The saturation rails and the values just inside and outside them.
    for rail in [Fx::MAX.to_f32(), Fx::MIN.to_f32(), 8.0, -8.0] {
        for v in with_neighbours(rail) {
            assert_matches(v);
        }
    }
}
