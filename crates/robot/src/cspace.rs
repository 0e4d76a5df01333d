//! Configuration space: joint configurations and short motions.
//!
//! Motion planning happens in the robot's C-space (§2.1): a point is a full
//! joint configuration, a straight segment between two points is a "short
//! motion", and collision detection of a motion checks a sequence of
//! discrete poses along it (Fig 6a).

use core::ops::Index;

use rand::Rng;

/// A joint configuration (a point in C-space), one angle per DOF in radians.
///
/// # Examples
///
/// ```
/// use mp_robot::JointConfig;
///
/// let a = JointConfig::new(vec![0.0, 0.0]);
/// let b = JointConfig::new(vec![1.0, -1.0]);
/// let mid = a.lerp(&b, 0.5);
/// assert_eq!(mid.as_slice(), &[0.5, -0.5]);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JointConfig(Vec<f32>);

impl JointConfig {
    /// Creates a configuration from joint values.
    pub fn new(values: Vec<f32>) -> JointConfig {
        JointConfig(values)
    }

    /// The all-zero configuration for `dof` joints.
    pub fn zeros(dof: usize) -> JointConfig {
        JointConfig(vec![0.0; dof])
    }

    /// Number of degrees of freedom.
    pub fn dof(&self) -> usize {
        self.0.len()
    }

    /// The joint values.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Whether every joint value is finite (no NaN or ±inf).
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|q| q.is_finite())
    }

    /// Mutable access to the joint values.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }

    /// Linear interpolation in C-space (the paper's local planner, §2.1).
    ///
    /// # Panics
    ///
    /// Panics if the configurations have different DOF counts.
    pub fn lerp(&self, other: &JointConfig, t: f32) -> JointConfig {
        assert_eq!(self.dof(), other.dof(), "DOF mismatch in lerp");
        JointConfig(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a + (b - a) * t)
                .collect(),
        )
    }

    /// Euclidean (L2) distance in C-space.
    ///
    /// # Panics
    ///
    /// Panics if the configurations have different DOF counts.
    pub fn distance(&self, other: &JointConfig) -> f32 {
        assert_eq!(self.dof(), other.dof(), "DOF mismatch in distance");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
    }

    /// Chebyshev (L∞) distance — the largest single-joint excursion, which
    /// bounds how far any robot point can move and therefore drives motion
    /// discretization.
    ///
    /// # Panics
    ///
    /// Panics if the configurations have different DOF counts.
    pub fn linf_distance(&self, other: &JointConfig) -> f32 {
        assert_eq!(self.dof(), other.dof(), "DOF mismatch in linf_distance");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Index<usize> for JointConfig {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.0[i]
    }
}

impl From<Vec<f32>> for JointConfig {
    fn from(v: Vec<f32>) -> JointConfig {
        JointConfig::new(v)
    }
}

/// Joint limits for one revolute joint, radians.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JointLimit {
    /// Lower bound.
    pub lo: f32,
    /// Upper bound.
    pub hi: f32,
}

impl JointLimit {
    /// Creates a limit.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: f32, hi: f32) -> JointLimit {
        assert!(lo <= hi, "joint limit lo > hi ({lo} > {hi})");
        JointLimit { lo, hi }
    }

    /// A symmetric limit `[-r, r]`.
    pub fn symmetric(r: f32) -> JointLimit {
        JointLimit::new(-r.abs(), r.abs())
    }

    /// Clamps a joint value into the limit.
    pub fn clamp(&self, v: f32) -> f32 {
        v.clamp(self.lo, self.hi)
    }

    /// Samples uniformly within the limit.
    pub fn sample(&self, rng: &mut impl Rng) -> f32 {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..self.hi)
        }
    }
}

/// A short motion: the straight C-space segment between two configurations.
#[derive(Clone, Debug, PartialEq)]
pub struct Motion {
    /// Start configuration.
    pub from: JointConfig,
    /// End configuration.
    pub to: JointConfig,
}

impl Motion {
    /// Creates a motion.
    ///
    /// # Panics
    ///
    /// Panics if the configurations have different DOF counts.
    pub fn new(from: JointConfig, to: JointConfig) -> Motion {
        assert_eq!(from.dof(), to.dof(), "DOF mismatch in Motion");
        Motion { from, to }
    }

    /// Number of discrete poses when sampled so that no joint moves more
    /// than `step` radians between consecutive poses. Always at least 2
    /// (both endpoints), matching the paper's discretized motion of Fig 6a.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive.
    pub fn pose_count(&self, step: f32) -> usize {
        assert!(step > 0.0, "discretization step must be positive");
        let spans = self.from.linf_distance(&self.to);
        ((spans / step).ceil() as usize + 1).max(2)
    }

    /// The `i`-th of `n` discrete poses (0 = start, n-1 = end).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `n < 2`.
    pub fn pose(&self, i: usize, n: usize) -> JointConfig {
        assert!(n >= 2, "a motion needs at least 2 poses");
        assert!(i < n, "pose index {i} out of range for {n} poses");
        if i == n - 1 {
            // Exact endpoint (float lerp at t=1 can be off by an ulp).
            return self.to.clone();
        }
        self.from.lerp(&self.to, i as f32 / (n - 1) as f32)
    }

    /// Writes the `i`-th of `n` discrete poses into `out` without
    /// allocating. The arithmetic is exactly [`Motion::pose`]'s, so the
    /// result is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `n < 2`.
    pub fn pose_into(&self, i: usize, n: usize, out: &mut JointConfig) {
        assert!(n >= 2, "a motion needs at least 2 poses");
        assert!(i < n, "pose index {i} out of range for {n} poses");
        out.0.clear();
        if i == n - 1 {
            // Exact endpoint (float lerp at t=1 can be off by an ulp).
            out.0.extend_from_slice(&self.to.0);
            return;
        }
        let t = i as f32 / (n - 1) as f32;
        out.0.extend(
            self.from
                .0
                .iter()
                .zip(&self.to.0)
                .map(|(a, b)| a + (b - a) * t),
        );
    }

    /// All discrete poses for the given joint step.
    pub fn discretize(&self, step: f32) -> Vec<JointConfig> {
        let n = self.pose_count(step);
        (0..n).map(|i| self.pose(i, n)).collect()
    }

    /// The hardware motion descriptor (§5.1): start pose, per-joint delta
    /// between consecutive poses, and pose count.
    pub fn descriptor(&self, step: f32) -> MotionDescriptor {
        let n = self.pose_count(step);
        let delta: Vec<f32> = self
            .from
            .as_slice()
            .iter()
            .zip(self.to.as_slice())
            .map(|(a, b)| (b - a) / (n - 1) as f32)
            .collect();
        MotionDescriptor {
            start: self.from.clone(),
            delta: JointConfig::new(delta),
            count: n,
        }
    }

    /// C-space length (L2).
    pub fn length(&self) -> f32 {
        self.from.distance(&self.to)
    }
}

/// The wire format SAS receives per motion (§5.1): "Motion data contains its
/// start pose, the distance between two discrete poses, and the number of
/// discrete poses."
#[derive(Clone, Debug, PartialEq)]
pub struct MotionDescriptor {
    /// First pose of the motion.
    pub start: JointConfig,
    /// Per-joint increment between consecutive poses.
    pub delta: JointConfig,
    /// Number of discrete poses (≥ 2).
    pub count: usize,
}

impl MotionDescriptor {
    /// Reconstructs pose `i` (what the CD Query Generator's adders do).
    ///
    /// # Panics
    ///
    /// Panics if `i >= count`.
    pub fn pose(&self, i: usize) -> JointConfig {
        assert!(i < self.count, "pose index {i} out of range");
        JointConfig::new(
            self.start
                .as_slice()
                .iter()
                .zip(self.delta.as_slice())
                .map(|(s, d)| s + d * i as f32)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lerp_endpoints() {
        let a = JointConfig::new(vec![0.0, 1.0, -1.0]);
        let b = JointConfig::new(vec![2.0, 1.0, 1.0]);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
    }

    #[test]
    fn distances() {
        let a = JointConfig::new(vec![0.0, 0.0]);
        let b = JointConfig::new(vec![3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.linf_distance(&b), 4.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "DOF mismatch")]
    fn dof_mismatch_panics() {
        let a = JointConfig::zeros(2);
        let b = JointConfig::zeros(3);
        let _ = a.distance(&b);
    }

    #[test]
    fn joint_limit_clamp_and_sample() {
        let l = JointLimit::new(-1.0, 2.0);
        assert_eq!(l.clamp(5.0), 2.0);
        assert_eq!(l.clamp(-5.0), -1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = l.sample(&mut rng);
            assert!((-1.0..2.0).contains(&v));
        }
        let point = JointLimit::new(0.5, 0.5);
        assert_eq!(point.sample(&mut rng), 0.5);
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn inverted_limit_panics() {
        let _ = JointLimit::new(1.0, -1.0);
    }

    #[test]
    fn pose_count_scales_with_distance() {
        let m = Motion::new(
            JointConfig::new(vec![0.0, 0.0]),
            JointConfig::new(vec![1.0, 0.5]),
        );
        assert_eq!(m.pose_count(0.1), 11);
        assert_eq!(m.pose_count(1.0), 2);
        // Zero-length motion still has both endpoints.
        let z = Motion::new(JointConfig::zeros(2), JointConfig::zeros(2));
        assert_eq!(z.pose_count(0.1), 2);
    }

    #[test]
    fn discretize_hits_endpoints_and_is_uniform() {
        let m = Motion::new(JointConfig::new(vec![0.0]), JointConfig::new(vec![1.0]));
        let poses = m.discretize(0.25);
        assert_eq!(poses.len(), 5);
        assert_eq!(poses[0], m.from);
        assert_eq!(poses[4], m.to);
        for w in poses.windows(2) {
            assert!((w[0].linf_distance(&w[1]) - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn descriptor_reconstructs_poses() {
        let m = Motion::new(
            JointConfig::new(vec![0.2, -0.3, 0.5]),
            JointConfig::new(vec![-0.4, 0.9, 0.5]),
        );
        let d = m.descriptor(0.13);
        assert_eq!(d.count, m.pose_count(0.13));
        for i in 0..d.count {
            let direct = m.pose(i, d.count);
            let via = d.pose(i);
            for j in 0..3 {
                assert!((direct[j] - via[j]).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn descriptor_pose_bounds() {
        let m = Motion::new(JointConfig::zeros(1), JointConfig::new(vec![1.0]));
        let d = m.descriptor(0.5);
        let _ = d.pose(d.count);
    }

    #[test]
    fn motion_length() {
        let m = Motion::new(
            JointConfig::new(vec![0.0, 0.0]),
            JointConfig::new(vec![3.0, 4.0]),
        );
        assert_eq!(m.length(), 5.0);
    }
}
