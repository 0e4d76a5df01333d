//! `Fx::from_f32` on every one of the 2^32 `f32` bit patterns, against the
//! libm-rounding expression it replaced. Ignored by default (it takes about
//! half a minute in release); run it with
//! `cargo test --release -p mp-fixed -- --ignored`.

use mp_fixed::{Fx, SCALE};

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

#[test]
#[ignore = "exhaustive over 2^32 inputs; run in release with --ignored"]
fn from_f32_matches_reference_on_every_input() {
    for bits in 0..=u32::MAX {
        let v = f32::from_bits(bits);
        if Fx::from_f32(v) != reference(v) {
            panic!(
                "input {v:e} ({bits:#010x}): got {:?}, want {:?}",
                Fx::from_f32(v),
                reference(v)
            );
        }
    }
}
