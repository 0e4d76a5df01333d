//! Denavit–Hartenberg kinematics.
//!
//! §5.2: "The transformation matrix generator calculates a transformation
//! matrix (4×4) for each link for this pose. This matrix is used to find
//! the rotation and translation of a robot link's bounding box [12, 36]."
//! Reference \[12\] is the original Denavit–Hartenberg notation, which we
//! implement here in its *classic* convention.

use mp_geometry::{Mat3, Transform, Vec3};

use crate::trig::{approx_cos, approx_sin};

/// Classic Denavit–Hartenberg parameters of one revolute joint.
///
/// The joint's transform is
/// `Rot_z(θ + θ₀) · Trans_z(d) · Trans_x(a) · Rot_x(α)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DhParam {
    /// Link length `a` (translation along the rotated x axis).
    pub a: f32,
    // Link twist `α`, read through `alpha()`: its sine and cosine below
    // are derived from it once, in `new`.
    alpha: f32,
    sin_alpha: f32,
    cos_alpha: f32,
    /// Link offset `d` (translation along the joint z axis).
    pub d: f32,
    /// Constant joint-angle offset `θ₀` added to the joint variable.
    pub theta_offset: f32,
}

impl DhParam {
    /// Creates a DH row.
    pub fn new(a: f32, alpha: f32, d: f32, theta_offset: f32) -> DhParam {
        // The twist α is a robot constant, so its sine/cosine are
        // precomputed at full precision even in hardware.
        let (sin_alpha, cos_alpha) = alpha.sin_cos();
        DhParam {
            a,
            alpha,
            sin_alpha,
            cos_alpha,
            d,
            theta_offset,
        }
    }

    /// Link twist `α` (rotation about the x axis), radians.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// The joint transform for joint variable `theta`, using exact `f32`
    /// trigonometry (software reference).
    pub fn transform(&self, theta: f32) -> Transform {
        self.transform_with(theta, f32::sin, f32::cos)
    }

    /// The joint transform using the hardware's fifth-order trig
    /// approximation (what the OBB Generation Unit computes).
    fn transform_hw(&self, theta: f32) -> Transform {
        self.transform_with(theta, approx_sin, approx_cos)
    }

    fn transform_with(
        &self,
        theta: f32,
        sin: impl Fn(f32) -> f32,
        cos: impl Fn(f32) -> f32,
    ) -> Transform {
        let th = theta + self.theta_offset;
        let (st, ct) = (sin(th), cos(th));
        let (sa, ca) = (self.sin_alpha, self.cos_alpha);
        // Classic DH homogeneous matrix.
        let rotation = Mat3::from_rows(
            Vec3::new(ct, -st * ca, st * sa),
            Vec3::new(st, ct * ca, -ct * sa),
            Vec3::new(0.0, sa, ca),
        );
        let translation = Vec3::new(self.a * ct, self.a * st, self.d);
        Transform::new(rotation, translation)
    }
}

/// Precision mode for kinematics evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TrigMode {
    /// Exact library trigonometry (software oracle).
    #[default]
    Exact,
    /// The fifth-order hardware approximation of [`crate::trig`].
    Hardware,
}

/// Computes the cumulative joint-frame transforms for a DH chain.
///
/// Returns one transform per joint: `out[i]` maps frame `i+1` coordinates to
/// the world (base) frame.
///
/// # Panics
///
/// Panics if `thetas.len() != params.len()`.
pub fn chain_transforms(params: &[DhParam], thetas: &[f32], mode: TrigMode) -> Vec<Transform> {
    let mut out = Vec::with_capacity(params.len());
    chain_transforms_into(params, thetas, mode, &mut out);
    out
}

/// [`chain_transforms`] appending into a caller-owned buffer — collision
/// checkers run FK once per pose query, and reusing the buffer keeps the
/// hot path free of per-pose allocations.
///
/// # Panics
///
/// Panics if `params.len() != thetas.len()`.
pub fn chain_transforms_into(
    params: &[DhParam],
    thetas: &[f32],
    mode: TrigMode,
    out: &mut Vec<Transform>,
) {
    assert_eq!(
        params.len(),
        thetas.len(),
        "joint count mismatch: {} DH rows vs {} joint values",
        params.len(),
        thetas.len()
    );
    out.reserve(params.len());
    let mut acc = Transform::identity();
    for (p, &th) in params.iter().zip(thetas) {
        let local = match mode {
            TrigMode::Exact => p.transform(th),
            TrigMode::Hardware => p.transform_hw(th),
        };
        acc = acc.compose(&local);
        out.push(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f32::consts::FRAC_PI_2;

    fn close(a: Vec3, b: Vec3, tol: f32) -> bool {
        (a - b).length() < tol
    }

    #[test]
    fn pure_z_rotation_joint() {
        let p = DhParam::new(0.0, 0.0, 0.0, 0.0);
        let t = p.transform(FRAC_PI_2);
        assert!(close(t.apply(Vec3::basis(0)), Vec3::basis(1), 1e-6));
        assert_eq!(t.translation, Vec3::zero());
    }

    #[test]
    fn link_length_translates_along_rotated_x() {
        let p = DhParam::new(1.0, 0.0, 0.0, 0.0);
        let t = p.transform(FRAC_PI_2);
        assert!(close(t.translation, Vec3::new(0.0, 1.0, 0.0), 1e-6));
    }

    #[test]
    fn offset_d_translates_along_z() {
        let p = DhParam::new(0.0, 0.0, 0.5, 0.0);
        let t = p.transform(0.3);
        assert_eq!(t.translation.z, 0.5);
    }

    #[test]
    fn alpha_twist_reorients_z() {
        let p = DhParam::new(0.0, FRAC_PI_2, 0.0, 0.0);
        let t = p.transform(0.0);
        // New z axis maps onto world -y? With classic DH, frame z after a
        // +90° twist about x points along world y when θ=0... verify by the
        // matrix: column 2 = (st*sa, -ct*sa, ca) = (0, -1, 0).
        assert!(close(t.apply_vector(Vec3::basis(2)), -Vec3::basis(1), 1e-6));
    }

    #[test]
    fn theta_offset_shifts_joint_zero() {
        let p = DhParam::new(0.0, 0.0, 0.0, FRAC_PI_2);
        let a = p.transform(0.0);
        let q = DhParam::new(0.0, 0.0, 0.0, 0.0);
        let b = q.transform(FRAC_PI_2);
        assert!(close(
            a.apply(Vec3::basis(0)),
            b.apply(Vec3::basis(0)),
            1e-6
        ));
    }

    #[test]
    fn rotation_stays_orthonormal_along_chain() {
        let params = vec![
            DhParam::new(0.1, FRAC_PI_2, 0.2, 0.0),
            DhParam::new(0.4, 0.0, 0.0, -FRAC_PI_2),
            DhParam::new(0.0, -FRAC_PI_2, 0.3, 0.0),
        ];
        let ts = chain_transforms(&params, &[0.3, -0.7, 1.2], TrigMode::Exact);
        assert_eq!(ts.len(), 3);
        for t in &ts {
            assert!(t.rotation.orthonormality_error() < 1e-5);
        }
    }

    #[test]
    fn hardware_trig_stays_close_to_exact() {
        let params = vec![
            DhParam::new(0.1, FRAC_PI_2, 0.2, 0.0),
            DhParam::new(0.4, 0.0, 0.0, 0.0),
            DhParam::new(0.2, -FRAC_PI_2, 0.1, 0.5),
        ];
        let thetas = [0.9, -1.4, 2.2];
        let exact = chain_transforms(&params, &thetas, TrigMode::Exact);
        let hw = chain_transforms(&params, &thetas, TrigMode::Hardware);
        for (e, h) in exact.iter().zip(&hw) {
            assert!(close(e.translation, h.translation, 1e-3));
            assert!((e.rotation.at(0, 0) - h.rotation.at(0, 0)).abs() < 1e-3);
        }
    }

    /// The joint transform as it was computed before the twist's sine and
    /// cosine moved into `DhParam::new`: `alpha.sin_cos()` on every call.
    fn transform_twist_per_call(p: &DhParam, theta: f32, mode: TrigMode) -> Transform {
        let th = theta + p.theta_offset;
        let (st, ct) = match mode {
            TrigMode::Exact => (th.sin(), th.cos()),
            TrigMode::Hardware => (approx_sin(th), approx_cos(th)),
        };
        let (sa, ca) = p.alpha().sin_cos();
        let rotation = Mat3::from_rows(
            Vec3::new(ct, -st * ca, st * sa),
            Vec3::new(st, ct * ca, -ct * sa),
            Vec3::new(0.0, sa, ca),
        );
        Transform::new(rotation, Vec3::new(p.a * ct, p.a * st, p.d))
    }

    fn transform_bits(t: &Transform) -> Vec<u32> {
        let rotation = (0..9).map(|k| t.rotation.at(k / 3, k % 3));
        let translation = [t.translation.x, t.translation.y, t.translation.z];
        rotation.chain(translation).map(f32::to_bits).collect()
    }

    #[test]
    fn precomputed_twist_keeps_fk_bit_identical() {
        use crate::RobotModel;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
            let mut rng = StdRng::seed_from_u64(5);
            for mode in [TrigMode::Exact, TrigMode::Hardware] {
                for _ in 0..100 {
                    let pose = robot.sample_config(&mut rng);
                    let chain = chain_transforms(robot.dh_params(), pose.as_slice(), mode);
                    let mut acc = Transform::identity();
                    for ((p, &th), t) in robot.dh_params().iter().zip(pose.as_slice()).zip(&chain) {
                        acc = acc.compose(&transform_twist_per_call(p, th, mode));
                        assert_eq!(transform_bits(t), transform_bits(&acc), "{mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "joint count mismatch")]
    fn chain_validates_lengths() {
        let _ = chain_transforms(
            &[DhParam::new(0.0, 0.0, 0.0, 0.0)],
            &[0.0, 1.0],
            TrigMode::Exact,
        );
    }
}
