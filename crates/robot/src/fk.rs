//! Forward kinematics: from a joint configuration to the robot's occupied
//! space as a set of oriented bounding boxes.
//!
//! This is the software model of the OBB Generation Unit (§5.2, Fig 14a):
//! the link transforms come from the DH chain (trigonometric unit + matrix
//! multipliers), and each link's precomputed box is carried to its world
//! pose, yielding one OBB per link plus the two sphere radii. As in the
//! hardware, a link's `|half|`, both radii and their Q3.12 roundings are
//! per-link constants ([`LinkBox`](crate::LinkBox), derived once per
//! robot): per pose only
//! each box's centre and rotation are computed, and for the fixed-point
//! OBBs only those two are quantized.

use mp_geometry::{FxObb, Obb, Transform};

use crate::cspace::JointConfig;
use crate::dh::{chain_transforms_into, TrigMode};
use crate::model::RobotModel;

/// Cumulative joint-frame transforms for a configuration. Index 0 is the
/// base (identity); index `i ≥ 1` is the frame after joint `i`.
///
/// # Panics
///
/// Panics if `cfg.dof() != model.dof()`.
pub fn joint_frames(model: &RobotModel, cfg: &JointConfig, mode: TrigMode) -> Vec<Transform> {
    let mut frames = Vec::with_capacity(model.dof() + 1);
    joint_frames_into(model, cfg, mode, &mut frames);
    frames
}

/// [`joint_frames`] into a reusable buffer (cleared first) — checkers call
/// FK once per pose query, so reusing the frame buffer keeps the pose hot
/// path allocation-free.
///
/// # Panics
///
/// Panics if `cfg.dof() != model.dof()`.
pub fn joint_frames_into(
    model: &RobotModel,
    cfg: &JointConfig,
    mode: TrigMode,
    frames: &mut Vec<Transform>,
) {
    assert_eq!(cfg.dof(), model.dof(), "configuration DOF mismatch");
    frames.clear();
    frames.push(Transform::identity());
    chain_transforms_into(model.dh_params(), cfg.as_slice(), mode, frames);
}

/// The robot's occupied space for a pose: one world-frame OBB per link.
///
/// # Panics
///
/// Panics if `cfg.dof() != model.dof()`.
///
/// # Examples
///
/// ```
/// use mp_robot::{fk::link_obbs, RobotModel, TrigMode};
///
/// let robot = RobotModel::jaco2();
/// let obbs = link_obbs(&robot, &robot.home(), TrigMode::Exact);
/// assert_eq!(obbs.len(), 7);
/// ```
pub fn link_obbs(model: &RobotModel, cfg: &JointConfig, mode: TrigMode) -> Vec<Obb<f32>> {
    let mut frames = Vec::with_capacity(model.dof() + 1);
    let mut out = Vec::with_capacity(model.links().len());
    link_obbs_into(model, cfg, mode, &mut frames, &mut out);
    out
}

/// [`link_obbs`] into reusable buffers (both cleared first): `frames` is
/// the FK scratch, `out` receives one OBB per link.
///
/// # Panics
///
/// Panics if `cfg.dof() != model.dof()`.
pub fn link_obbs_into(
    model: &RobotModel,
    cfg: &JointConfig,
    mode: TrigMode,
    frames: &mut Vec<Transform>,
    out: &mut Vec<Obb<f32>>,
) {
    joint_frames_into(model, cfg, mode, frames);
    out.clear();
    out.extend(
        model
            .link_boxes()
            .iter()
            .map(|b| b.place(&frames[b.frame()])),
    );
}

/// The OBBs of the links attached to frame 0, the immobile base, indexed
/// like [`RobotModel::links`] (`None` for a link that moves with a joint).
///
/// Frame 0 is the identity at every pose, so these OBBs are the same for
/// every configuration: a checker may walk them once per environment and
/// replay the result. They come out of [`link_obbs_into`] itself (at the
/// home pose), so they are bit-identical to what FK yields for those links
/// at any finite pose.
pub fn static_link_obbs(model: &RobotModel, mode: TrigMode) -> Vec<Option<Obb<f32>>> {
    model
        .links()
        .iter()
        .zip(link_obbs(model, &model.home(), mode))
        .map(|(link, obb)| (link.frame == 0).then_some(obb))
        .collect()
}

/// The fixed-point link OBBs the hardware streams to the OOCDs (17 × 16-bit
/// values each, §5.2): [`Obb::quantize`] of each [`link_obbs`] OBB, from
/// the per-link constants of
/// [`LinkBox::place_fx`](crate::LinkBox::place_fx).
///
/// # Panics
///
/// Panics if `cfg.dof() != model.dof()`.
pub fn link_obbs_fx(model: &RobotModel, cfg: &JointConfig, mode: TrigMode) -> Vec<FxObb> {
    let frames = joint_frames(model, cfg, mode);
    model
        .link_boxes()
        .iter()
        .map(|b| b.place_fx(&frames[b.frame()]))
        .collect()
}

/// The position of the end effector (origin of the last joint frame).
pub fn end_effector(model: &RobotModel, cfg: &JointConfig) -> mp_geometry::Vec3 {
    let frames = joint_frames(model, cfg, TrigMode::Exact);
    frames
        .last()
        .expect("a robot has at least the base frame")
        .translation
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_geometry::Vec3;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn frame_zero_is_identity() {
        let r = RobotModel::jaco2();
        let frames = joint_frames(&r, &r.home(), TrigMode::Exact);
        assert_eq!(frames.len(), 7);
        assert_eq!(frames[0], Transform::identity());
    }

    #[test]
    fn obb_count_matches_links() {
        for r in [RobotModel::jaco2(), RobotModel::baxter()] {
            let obbs = link_obbs(&r, &r.home(), TrigMode::Exact);
            assert_eq!(obbs.len(), 7);
        }
    }

    #[test]
    fn rotations_stay_orthonormal_over_random_poses() {
        let r = RobotModel::baxter();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let cfg = r.sample_config(&mut rng);
            for f in joint_frames(&r, &cfg, TrigMode::Exact) {
                assert!(f.rotation.orthonormality_error() < 1e-4);
            }
        }
    }

    #[test]
    fn robot_stays_within_reach_sphere() {
        // Every link OBB corner must lie within the arm's maximum reach.
        let r = RobotModel::jaco2();
        let mut rng = StdRng::seed_from_u64(11);
        let reach = 1.4; // normalized units; Jaco2 reach ≈ 0.9 m → 1.0 + link radii
        for _ in 0..100 {
            let cfg = r.sample_config(&mut rng);
            for obb in link_obbs(&r, &cfg, TrigMode::Exact) {
                for c in obb.corners() {
                    assert!(
                        c.length() < reach,
                        "corner {c:?} beyond reach for cfg {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn base_link_is_static() {
        // The base-frame OBBs `static_link_obbs` yields are the ones FK
        // yields at every pose, exactly.
        for r in [RobotModel::jaco2(), RobotModel::baxter()] {
            for mode in [TrigMode::Exact, TrigMode::Hardware] {
                let statics = static_link_obbs(&r, mode);
                assert_eq!(statics.len(), r.link_count());
                assert!(statics[0].is_some(), "link 0 hangs on the base frame");
                let mut rng = StdRng::seed_from_u64(8);
                for _ in 0..50 {
                    let obbs = link_obbs(&r, &r.sample_config(&mut rng), mode);
                    for ((link, s), o) in r.links().iter().zip(&statics).zip(&obbs) {
                        assert_eq!(s.is_some(), link.frame == 0);
                        if let Some(s) = s {
                            assert_eq!(s, o);
                        }
                    }
                }
            }
        }
    }

    /// Every value of an `f32` OBB as bits, so `-0.0` and `0.0` differ.
    fn obb_bits(o: &Obb<f32>) -> Vec<u32> {
        let mut bits = vec![
            o.center.x, o.center.y, o.center.z, o.half.x, o.half.y, o.half.z,
        ];
        for i in 0..3 {
            for j in 0..3 {
                bits.push(o.rotation.at(i, j));
            }
        }
        bits.extend([o.bounding_radius, o.inscribed_radius]);
        bits.into_iter().map(f32::to_bits).collect()
    }

    /// Home, every corner of the joint-limit box for up to 7 joints (each
    /// joint at its lower or upper limit) and seeded random poses.
    fn probe_poses(r: &RobotModel) -> Vec<JointConfig> {
        let limits = r.joint_limits();
        let mut poses = vec![r.home()];
        for corner in 0..1u32 << limits.len() {
            poses.push(JointConfig::new(
                limits
                    .iter()
                    .enumerate()
                    .map(|(j, l)| if corner >> j & 1 == 0 { l.lo } else { l.hi })
                    .collect(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(12);
        poses.extend((0..60).map(|_| r.sample_config(&mut rng)));
        poses
    }

    #[test]
    fn per_link_constants_place_the_boxes_obb_new_and_quantize_give() {
        // The OBB Generation Unit's per-link constants (|half|, both radii
        // and their Q3.12 roundings) must reproduce `Obb::new` and
        // `Obb::quantize` on the transformed box exactly, field for field.
        for r in [
            RobotModel::baxter(),
            RobotModel::jaco2(),
            RobotModel::planar_2dof(),
        ] {
            for mode in [TrigMode::Exact, TrigMode::Hardware] {
                for pose in probe_poses(&r) {
                    let frames = joint_frames(&r, &pose, mode);
                    let obbs = link_obbs(&r, &pose, mode);
                    let fx = link_obbs_fx(&r, &pose, mode);
                    for (k, (link, b)) in r.links().iter().zip(r.link_boxes()).enumerate() {
                        let t = &frames[link.frame];
                        let want = Obb::new(t.apply(link.local_center), link.half, t.rotation);
                        let ctx = format!("{} {mode:?} link {k} pose {pose:?}", r.name());
                        assert_eq!(b.frame(), link.frame, "{ctx}");
                        assert_eq!(obb_bits(&b.place(t)), obb_bits(&want), "{ctx}");
                        assert_eq!(obb_bits(&obbs[k]), obb_bits(&want), "{ctx}");
                        assert_eq!(b.place_fx(t), want.quantize(), "{ctx}");
                        assert_eq!(fx[k], want.quantize(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn moving_one_joint_moves_downstream_links_only() {
        let r = RobotModel::baxter();
        let home = r.home();
        let mut moved = home.clone();
        moved.as_mut_slice()[5] += 0.4; // wrist joint
        let a = link_obbs(&r, &home, TrigMode::Exact);
        let b = link_obbs(&r, &moved, TrigMode::Exact);
        // Links on frames <= 5 unchanged.
        for (i, link) in r.links().iter().enumerate() {
            let delta = (a[i].center - b[i].center).length();
            if link.frame <= 5 {
                assert!(delta < 1e-6, "link {i} moved by {delta}");
            }
        }
        // The hand (frame 7) moves.
        let hand = r.link_count() - 1;
        assert!((a[hand].center - b[hand].center).length() > 1e-4);
    }

    #[test]
    fn hardware_trig_fk_close_to_exact() {
        let r = RobotModel::baxter();
        let mut rng = StdRng::seed_from_u64(77);
        let mut worst: f32 = 0.0;
        for _ in 0..50 {
            let cfg = r.sample_config(&mut rng);
            let exact = link_obbs(&r, &cfg, TrigMode::Exact);
            let hw = link_obbs(&r, &cfg, TrigMode::Hardware);
            for (e, h) in exact.iter().zip(&hw) {
                worst = worst.max((e.center - h.center).length());
            }
        }
        // Fifth-order trig error accumulates over 7 joints but stays tiny.
        assert!(worst < 5e-3, "worst FK deviation {worst}");
    }

    #[test]
    fn quantized_obbs_are_close_and_conservative() {
        let r = RobotModel::jaco2();
        let cfg = r.home();
        let exact = link_obbs(&r, &cfg, TrigMode::Exact);
        let fx = link_obbs_fx(&r, &cfg, TrigMode::Exact);
        for (e, q) in exact.iter().zip(&fx) {
            assert!((e.center - q.center.to_f32()).length() < 1e-3);
            assert!(q.bounding_radius.to_f32() >= e.bounding_radius);
            assert!(q.inscribed_radius.to_f32() <= e.inscribed_radius);
        }
    }

    #[test]
    fn end_effector_changes_with_configuration() {
        let r = RobotModel::jaco2();
        let mut rng = StdRng::seed_from_u64(5);
        let a = end_effector(&r, &r.sample_config(&mut rng));
        let b = end_effector(&r, &r.sample_config(&mut rng));
        assert!((a - b).length() > 1e-3);
        assert!(a.length() < 1.4);
    }

    #[test]
    fn planar_arm_end_effector_geometry() {
        // Both joints at 0: arm stretched along +x, EE at 2*0.4.
        let r = RobotModel::planar_2dof();
        let ee = end_effector(&r, &JointConfig::zeros(2));
        assert!((ee - Vec3::new(0.8, 0.0, 0.0)).length() < 1e-5);
        // Elbow at 90°: EE at (0.4, 0.4).
        let ee2 = end_effector(
            &r,
            &JointConfig::new(vec![0.0, core::f32::consts::FRAC_PI_2]),
        );
        assert!((ee2 - Vec3::new(0.4, 0.4, 0.0)).length() < 1e-5);
    }
}
