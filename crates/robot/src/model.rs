//! Robot models: DH chains plus per-link collision geometry.
//!
//! §6 evaluates a Kinova Jaco2 (6 DOF) and a Rethink Baxter arm (7 DOF);
//! "both robotic arms consist of 7 links". The models here encode the DH
//! chains and per-link bounding boxes directly from the public spec-sheet
//! dimensions, normalized so the paper's 180 cm environment extent maps to
//! the workspace cube `[-1, 1]³` (i.e. lengths in meters are divided by
//! 0.9).

use rand::Rng;

use mp_geometry::{FxObb, Mat3, Obb, ObbF, Transform, Vec3};

use crate::cspace::{JointConfig, JointLimit};
use crate::dh::DhParam;

/// Scale: normalized units per meter (180 cm extent → `[-1, 1]`).
pub const UNITS_PER_METER: f32 = 1.0 / 0.9;

/// Collision geometry of one robot link: a box in the frame of one joint.
///
/// The box half-extents (and the derived bounding/inscribed sphere radii)
/// are the per-link constants §5.2 stores in the OBB Generation Unit's
/// SRAM; the frame transform is what gets computed per pose.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkGeometry {
    /// Index of the joint frame the box is rigidly attached to: 0 attaches
    /// to the immobile base frame, `i ≥ 1` to the frame after joint `i`.
    pub frame: usize,
    /// Box center in the attachment frame.
    pub local_center: Vec3,
    /// Box half-extents in the attachment frame.
    pub half: Vec3,
}

impl LinkGeometry {
    /// Creates a link box.
    pub fn new(frame: usize, local_center: Vec3, half: Vec3) -> LinkGeometry {
        LinkGeometry {
            frame,
            local_center,
            half: half.abs(),
        }
    }
}

/// A link's box as the OBB Generation Unit keeps it (§5.2): `|half|`,
/// both sphere radii and their Q3.12 roundings are derived once per link,
/// so each pose only computes the box's centre and rotation and, for the
/// hardware, quantizes those two.
///
/// [`LinkBox::place`] equals [`Obb::from_transform`] on the link's box and
/// [`LinkBox::place_fx`] equals [`Obb::quantize`] of that, field for field.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkBox {
    frame: usize,
    local_center: Vec3,
    // The box at the origin, unrotated: `Obb::new`'s `|half|` and radii,
    // and `Obb::quantize`'s conservative roundings of them.
    obb: ObbF,
    fx: FxObb,
}

impl LinkBox {
    /// Derives a link's per-link constants.
    pub(crate) fn new(link: &LinkGeometry) -> LinkBox {
        let obb = Obb::new(Vec3::zero(), link.half, Mat3::identity());
        LinkBox {
            frame: link.frame,
            local_center: link.local_center,
            obb,
            fx: obb.quantize(),
        }
    }

    /// Index of the joint frame the box is attached to.
    #[inline]
    pub fn frame(&self) -> usize {
        self.frame
    }

    /// The link's world OBB under its attachment frame's transform `t`.
    #[inline]
    pub fn place(&self, t: &Transform) -> ObbF {
        Obb {
            center: t.apply(self.local_center),
            rotation: t.rotation,
            ..self.obb
        }
    }

    /// The link's Q3.12 OBB under `t` (`place(t).quantize()`): only the
    /// centre and the rotation are quantized per pose.
    #[inline]
    pub fn place_fx(&self, t: &Transform) -> FxObb {
        Obb {
            center: t.apply(self.local_center).quantize(),
            rotation: t.rotation.quantize(),
            ..self.fx
        }
    }
}

/// A robot: DH chain, joint limits and link collision boxes.
///
/// # Examples
///
/// ```
/// use mp_robot::RobotModel;
///
/// let jaco = RobotModel::jaco2();
/// assert_eq!(jaco.dof(), 6);
/// assert_eq!(jaco.link_count(), 7);
/// let baxter = RobotModel::baxter();
/// assert_eq!(baxter.dof(), 7);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RobotModel {
    name: &'static str,
    dh: Vec<DhParam>,
    limits: Vec<JointLimit>,
    links: Vec<LinkGeometry>,
    boxes: Vec<LinkBox>,
}

impl RobotModel {
    /// Builds a model from its parts.
    ///
    /// # Panics
    ///
    /// Panics if limits and DH rows disagree, or a link references a frame
    /// beyond the chain.
    pub fn new(
        name: &'static str,
        dh: Vec<DhParam>,
        limits: Vec<JointLimit>,
        links: Vec<LinkGeometry>,
    ) -> RobotModel {
        assert_eq!(dh.len(), limits.len(), "one joint limit per DH row");
        for l in &links {
            assert!(
                l.frame <= dh.len(),
                "link frame {} exceeds joint count {}",
                l.frame,
                dh.len()
            );
        }
        RobotModel {
            name,
            dh,
            limits,
            boxes: links.iter().map(LinkBox::new).collect(),
            links,
        }
    }

    /// Robot name.
    pub fn name(&self) -> &str {
        self.name
    }

    /// Degrees of freedom.
    pub fn dof(&self) -> usize {
        self.dh.len()
    }

    /// Number of collision links (7 for both evaluation arms).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The DH rows.
    pub fn dh_params(&self) -> &[DhParam] {
        &self.dh
    }

    /// The joint limits.
    pub fn joint_limits(&self) -> &[JointLimit] {
        &self.limits
    }

    /// The link boxes.
    pub fn links(&self) -> &[LinkGeometry] {
        &self.links
    }

    /// The link boxes with their per-link constants derived, indexed like
    /// [`RobotModel::links`].
    pub fn link_boxes(&self) -> &[LinkBox] {
        &self.boxes
    }

    /// Samples a uniformly random configuration within the joint limits.
    pub fn sample_config(&self, rng: &mut impl Rng) -> JointConfig {
        JointConfig::new(self.limits.iter().map(|l| l.sample(rng)).collect())
    }

    /// Clamps a configuration into the joint limits.
    pub fn clamp_config(&self, cfg: &JointConfig) -> JointConfig {
        assert_eq!(cfg.dof(), self.dof(), "DOF mismatch");
        JointConfig::new(
            cfg.as_slice()
                .iter()
                .zip(&self.limits)
                .map(|(&v, l)| l.clamp(v))
                .collect(),
        )
    }

    /// The zero (home) configuration.
    pub fn home(&self) -> JointConfig {
        self.clamp_config(&JointConfig::zeros(self.dof()))
    }

    /// Kinova Jaco2: 6 DOF, 7 links (§6). Segment lengths follow the Kinova
    /// spec sheet (D1 = 27.55 cm, D2 = 41 cm, D3 = 20.73 cm, wrist segments
    /// 7.4 cm, hand 16.87 cm), normalized by [`UNITS_PER_METER`].
    pub fn jaco2() -> RobotModel {
        use core::f32::consts::{FRAC_PI_2, PI};
        let m = UNITS_PER_METER;
        let (d1, a2, d3, d4, d5, d6) = (
            0.2755 * m,
            0.4100 * m,
            0.2073 * m,
            0.0741 * m,
            0.0741 * m,
            0.1687 * m,
        );
        let r = 0.045 * m; // link tube radius ≈ 4.5 cm
        let dh = vec![
            DhParam::new(0.0, FRAC_PI_2, d1, 0.0),
            DhParam::new(a2, PI, 0.0, FRAC_PI_2),
            DhParam::new(0.0, FRAC_PI_2, -0.0098 * m, -FRAC_PI_2),
            DhParam::new(0.0, FRAC_PI_2, -d3, 0.0),
            DhParam::new(0.0, FRAC_PI_2, -d4, PI),
            DhParam::new(0.0, PI, -d5 - d6, 0.0),
        ];
        let limits = vec![
            JointLimit::symmetric(PI),
            JointLimit::new(0.82, 5.46 - PI), // shoulder lift, offset-adjusted
            JointLimit::new(0.33 - PI, PI - 0.33),
            JointLimit::symmetric(PI),
            JointLimit::symmetric(PI),
            JointLimit::symmetric(PI),
        ];
        let links = vec![
            // Base column up to the first joint.
            LinkGeometry::new(
                0,
                Vec3::new(0.0, 0.0, d1 * 0.5),
                Vec3::new(r, r, d1 * 0.5 + r),
            ),
            // Shoulder housing.
            LinkGeometry::new(
                1,
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(r * 1.2, r * 1.2, r * 1.4),
            ),
            // Upper arm: spans the a2 translation of joint 2's frame.
            LinkGeometry::new(
                2,
                Vec3::new(-a2 * 0.5, 0.0, 0.0),
                Vec3::new(a2 * 0.5 + r, r, r),
            ),
            // Elbow housing.
            LinkGeometry::new(
                3,
                Vec3::new(0.0, 0.0, -d3 * 0.25),
                Vec3::new(r, r, d3 * 0.3),
            ),
            // Forearm along the d translation of joint 4.
            LinkGeometry::new(4, Vec3::new(0.0, 0.0, d3 * 0.35), Vec3::new(r, r, d3 * 0.4)),
            // Wrist.
            LinkGeometry::new(
                5,
                Vec3::new(0.0, 0.0, d4 * 0.5),
                Vec3::new(r * 0.9, r * 0.9, d4 * 0.7),
            ),
            // Hand / gripper.
            LinkGeometry::new(
                6,
                Vec3::new(0.0, 0.0, d6 * 0.4),
                Vec3::new(r, r * 1.4, d6 * 0.55),
            ),
        ];
        RobotModel::new("jaco2", dh, limits, links)
    }

    /// Rethink Baxter arm: 7 DOF, 7 links (§6). Segment lengths from the
    /// Baxter spec (shoulder offset 6.9 cm, upper arm 36.4 cm, forearm
    /// 37.4 cm, wrist 22.9 cm), normalized by [`UNITS_PER_METER`].
    pub fn baxter() -> RobotModel {
        use core::f32::consts::FRAC_PI_2;
        let m = UNITS_PER_METER;
        let (d1, a1, d3, a3, d5, d7) = (
            0.2703 * m,
            0.0690 * m,
            0.3644 * m,
            0.0690 * m,
            0.3743 * m,
            0.2295 * m,
        );
        let r = 0.055 * m; // Baxter links are chunkier than Jaco2's
        let dh = vec![
            DhParam::new(a1, -FRAC_PI_2, d1, 0.0),
            DhParam::new(0.0, FRAC_PI_2, 0.0, FRAC_PI_2),
            DhParam::new(a3, -FRAC_PI_2, d3, 0.0),
            DhParam::new(0.0, FRAC_PI_2, 0.0, 0.0),
            DhParam::new(0.01 * m, -FRAC_PI_2, d5, 0.0),
            DhParam::new(0.0, FRAC_PI_2, 0.0, 0.0),
            DhParam::new(0.0, 0.0, d7, 0.0),
        ];
        let limits = vec![
            JointLimit::new(-1.70, 1.70),
            JointLimit::new(-2.14, 1.04),
            JointLimit::new(-3.05, 3.05),
            JointLimit::new(-0.05, 2.61),
            JointLimit::new(-3.05, 3.05),
            JointLimit::new(-1.57, 2.09),
            JointLimit::new(-3.05, 3.05),
        ];
        let links = vec![
            // Shoulder column.
            LinkGeometry::new(
                0,
                Vec3::new(0.0, 0.0, d1 * 0.5),
                Vec3::new(r, r, d1 * 0.5 + r),
            ),
            // Shoulder housing.
            LinkGeometry::new(
                1,
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(r * 1.3, r * 1.3, r * 1.3),
            ),
            // Upper arm along joint 3's d translation.
            LinkGeometry::new(
                3,
                Vec3::new(0.0, 0.0, -d3 * 0.45),
                Vec3::new(r, r, d3 * 0.5 + r),
            ),
            // Elbow housing.
            LinkGeometry::new(
                4,
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(r * 1.1, r * 1.1, r * 1.1),
            ),
            // Forearm along joint 5's d translation.
            LinkGeometry::new(
                5,
                Vec3::new(0.0, 0.0, -d5 * 0.45),
                Vec3::new(r * 0.9, r * 0.9, d5 * 0.5 + r),
            ),
            // Wrist.
            LinkGeometry::new(6, Vec3::new(0.0, 0.0, 0.0), Vec3::new(r * 0.8, r * 0.8, r)),
            // Hand / gripper along joint 7's d translation.
            LinkGeometry::new(
                7,
                Vec3::new(0.0, 0.0, -d7 * 0.35),
                Vec3::new(r * 0.8, r, d7 * 0.45),
            ),
        ];
        RobotModel::new("baxter", dh, limits, links)
    }

    /// A 2-DOF planar arm — the didactic robot of Fig 6a, handy for fast
    /// tests and examples.
    pub fn planar_2dof() -> RobotModel {
        use core::f32::consts::PI;
        let l = 0.4;
        let r = 0.04;
        let dh = vec![
            DhParam::new(l, 0.0, 0.0, 0.0),
            DhParam::new(l, 0.0, 0.0, 0.0),
        ];
        let limits = vec![JointLimit::symmetric(PI), JointLimit::symmetric(PI)];
        let links = vec![
            LinkGeometry::new(
                1,
                Vec3::new(-l * 0.5, 0.0, 0.0),
                Vec3::new(l * 0.5 + r, r, r),
            ),
            LinkGeometry::new(
                2,
                Vec3::new(-l * 0.5, 0.0, 0.0),
                Vec3::new(l * 0.5 + r, r, r),
            ),
        ];
        RobotModel::new("planar-2dof", dh, limits, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn jaco2_shape_matches_paper() {
        let r = RobotModel::jaco2();
        assert_eq!(r.dof(), 6);
        assert_eq!(r.link_count(), 7);
        assert_eq!(r.name(), "jaco2");
    }

    #[test]
    fn baxter_shape_matches_paper() {
        let r = RobotModel::baxter();
        assert_eq!(r.dof(), 7);
        assert_eq!(r.link_count(), 7);
    }

    #[test]
    fn planar_arm_is_small() {
        let r = RobotModel::planar_2dof();
        assert_eq!(r.dof(), 2);
        assert_eq!(r.link_count(), 2);
    }

    #[test]
    fn sampled_configs_respect_limits() {
        let r = RobotModel::baxter();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let c = r.sample_config(&mut rng);
            assert_eq!(c.dof(), 7);
            for (v, l) in c.as_slice().iter().zip(r.joint_limits()) {
                assert!(*v >= l.lo && *v <= l.hi);
            }
        }
    }

    #[test]
    fn clamp_config_enforces_limits() {
        let r = RobotModel::baxter();
        let wild = JointConfig::new(vec![10.0, -10.0, 0.0, 10.0, 0.0, 0.0, -10.0]);
        let c = r.clamp_config(&wild);
        for (v, l) in c.as_slice().iter().zip(r.joint_limits()) {
            assert!(*v >= l.lo && *v <= l.hi);
        }
    }

    #[test]
    fn home_is_within_limits() {
        for r in [
            RobotModel::jaco2(),
            RobotModel::baxter(),
            RobotModel::planar_2dof(),
        ] {
            let h = r.home();
            for (v, l) in h.as_slice().iter().zip(r.joint_limits()) {
                assert!(*v >= l.lo && *v <= l.hi);
            }
        }
    }

    #[test]
    #[should_panic(expected = "link frame")]
    fn link_frame_out_of_range_rejected() {
        let _ = RobotModel::new(
            "bad",
            vec![DhParam::new(0.0, 0.0, 0.1, 0.0)],
            vec![JointLimit::symmetric(1.0)],
            vec![LinkGeometry::new(2, Vec3::zero(), Vec3::splat(0.1))],
        );
    }
}
