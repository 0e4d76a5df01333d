//! The fifth-order trigonometric function unit of the OBB Generation Unit.
//!
//! §5.2: "We use a fifth-order approximation-based trigonometric function
//! unit [de Dinechin et al.]. The trigonometric function unit is a 5-stage
//! pipelined unit consisting of 8 multipliers, 3 adders/subtractors, and
//! registers."
//!
//! This module models that unit bit-faithfully enough for the simulator: a
//! fifth-order odd polynomial (Hastings coefficients) evaluates `sin` on the
//! reduced range `[-π/2, π/2]`; range reduction maps any angle in `[-π, π]`
//! onto it, and `cos(x) = sin(π/2 - x)` shares the datapath. Both an `f32`
//! and a Q3.12 fixed-point evaluation are provided; the fixed-point path
//! uses only multiplications and additions, like the RTL.

use mp_fixed::Fx;

/// Pipeline depth of the trig unit (§5.2: 5-stage pipelined).
pub const TRIG_LATENCY_CYCLES: u32 = 5;

/// Multipliers instantiated by the unit (§5.2).
pub const TRIG_MULTIPLIERS: u32 = 8;

/// Adders/subtractors instantiated by the unit (§5.2).
pub const TRIG_ADDERS: u32 = 3;

/// Fifth-order sine coefficients (Hastings): `sin x ≈ x + C3·x³ + C5·x⁵`
/// on `[-π/2, π/2]`, max error ≈ 1.6e-4 — below one Q3.12 LSB of the
/// downstream pose arithmetic.
const C3: f32 = -0.16605;
/// See [`C3`].
const C5: f32 = 0.00761;

/// Reduces an angle to `[-π, π)` (software helper; joint values are already
/// bounded by joint limits in practice).
fn wrap_angle(x: f32) -> f32 {
    let two_pi = core::f32::consts::TAU;
    let mut r = x % two_pi;
    if r >= core::f32::consts::PI {
        r -= two_pi;
    } else if r < -core::f32::consts::PI {
        r += two_pi;
    }
    r
}

/// Fifth-order polynomial `sin` on the already-reduced range.
fn poly_sin(x: f32) -> f32 {
    let x2 = x * x;
    x * (1.0 + x2 * (C3 + x2 * C5))
}

/// Approximate sine as the hardware computes it (`f32` model).
///
/// # Examples
///
/// ```
/// use mp_robot::trig::approx_sin;
/// assert!((approx_sin(0.5) - 0.5f32.sin()).abs() < 2e-4);
/// ```
pub fn approx_sin(angle: f32) -> f32 {
    let x = wrap_angle(angle);
    // Fold onto [-π/2, π/2]: sin(π - x) = sin(x).
    let reduced = if x > core::f32::consts::FRAC_PI_2 {
        core::f32::consts::PI - x
    } else if x < -core::f32::consts::FRAC_PI_2 {
        -core::f32::consts::PI - x
    } else {
        x
    };
    poly_sin(reduced)
}

/// Approximate cosine: `cos x = sin(π/2 - x)`, sharing the sine datapath.
pub fn approx_cos(angle: f32) -> f32 {
    approx_sin(core::f32::consts::FRAC_PI_2 - angle)
}

/// Approximate `(sin, cos)` pair, as produced per joint per pose.
pub fn approx_sin_cos(angle: f32) -> (f32, f32) {
    (approx_sin(angle), approx_cos(angle))
}

/// Fixed-point fifth-order sine on Q3.12, using only the operations the RTL
/// has (multiplies, adds). Input is radians in Q3.12 (any value in
/// `[-8, 8)`; reduction is performed in fixed point).
pub fn fx_sin(angle: Fx) -> Fx {
    let pi = Fx::from_f32(core::f32::consts::PI);
    let half_pi = Fx::from_f32(core::f32::consts::FRAC_PI_2);
    // Range reduce to [-π, π] with up to two conditional subtracts (the
    // hardware bounds joint angles, so this loop is 0-2 iterations).
    let mut x = angle;
    while x > pi {
        x = x - pi - pi;
    }
    while x < -pi {
        x = x + pi + pi;
    }
    // Fold onto [-π/2, π/2].
    if x > half_pi {
        x = pi - x;
    } else if x < -half_pi {
        x = -pi - x;
    }
    let c3 = Fx::from_f32(C3);
    let c5 = Fx::from_f32(C5);
    let x2 = x * x;
    // Horner: x * (1 + x2*(C3 + x2*C5)) — 4 multiplies, 2 adds.
    x * (Fx::ONE + x2 * (c3 + x2 * c5))
}

/// Fixed-point cosine.
pub fn fx_cos(angle: Fx) -> Fx {
    fx_sin(Fx::from_f32(core::f32::consts::FRAC_PI_2) - angle)
}

/// Worst-case absolute error of the approximation over `[-π, π]`, measured
/// by dense sweep. Used by tests and documentation; the returned value is
/// ≈ 1.6e-4 for the `f32` path.
pub fn max_sin_error(samples: u32) -> f32 {
    let mut worst: f32 = 0.0;
    for i in 0..=samples {
        let x = -core::f32::consts::PI + core::f32::consts::TAU * i as f32 / samples as f32;
        worst = worst.max((approx_sin(x) - x.sin()).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f32::consts::{FRAC_PI_2, PI};

    #[test]
    fn sin_accuracy_on_reduced_range() {
        assert!(
            max_sin_error(10_000) < 2e-4,
            "error {}",
            max_sin_error(10_000)
        );
    }

    #[test]
    fn special_angles() {
        assert_eq!(approx_sin(0.0), 0.0);
        assert!((approx_sin(FRAC_PI_2) - 1.0).abs() < 2e-4);
        assert!((approx_sin(PI)).abs() < 2e-4);
        assert!((approx_cos(0.0) - 1.0).abs() < 2e-4);
        assert!((approx_cos(PI) + 1.0).abs() < 2e-4);
    }

    #[test]
    fn sin_is_odd_cos_is_even() {
        for x in [0.1f32, 0.9, 2.2, 3.0] {
            assert!((approx_sin(-x) + approx_sin(x)).abs() < 1e-6);
            assert!((approx_cos(-x) - approx_cos(x)).abs() < 1e-6);
        }
    }

    #[test]
    fn wrap_angle_bounds() {
        for x in [-10.0f32, -3.2, 0.0, 3.2, 10.0, 100.0] {
            let w = wrap_angle(x);
            assert!((-PI..PI).contains(&w), "{x} -> {w}");
            // Wrapping preserves the true sine.
            assert!((w.sin() - x.sin()).abs() < 1e-4);
        }
    }

    #[test]
    fn pythagorean_identity_approx() {
        for i in 0..100 {
            let x = -PI + i as f32 * (2.0 * PI / 100.0);
            let (s, c) = approx_sin_cos(x);
            assert!((s * s + c * c - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn fixed_point_sin_tracks_f32_model() {
        for i in 0..200 {
            let x = -PI + i as f32 * (2.0 * PI / 200.0);
            let fx = fx_sin(Fx::from_f32(x)).to_f32();
            // Fixed-point adds quantization noise on top of the polynomial
            // error; a few LSBs of slack.
            assert!(
                (fx - x.sin()).abs() < 4e-3,
                "x={x} fx={fx} true={}",
                x.sin()
            );
        }
    }

    #[test]
    fn fixed_point_cos_tracks_f32_model() {
        for i in 0..200 {
            let x = -PI + i as f32 * (2.0 * PI / 200.0);
            let fx = fx_cos(Fx::from_f32(x)).to_f32();
            assert!((fx - x.cos()).abs() < 4e-3, "x={x}");
        }
    }

    #[test]
    fn unit_resource_constants_match_paper() {
        assert_eq!(TRIG_LATENCY_CYCLES, 5);
        assert_eq!(TRIG_MULTIPLIERS, 8);
        assert_eq!(TRIG_ADDERS, 3);
    }
}
