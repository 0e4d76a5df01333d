//! Informed samplers: the neural-network stand-ins that propose the next
//! intermediate pose (MPNet's Pnet role).
//!
//! See DESIGN.md substitution 1: the trained MPNet checkpoints are replaced
//! by an *oracle* goal-directed stochastic sampler ([`OracleSampler`]). It
//! implements [`NeuralSampler`] and reports an MPNet-sized inference MAC
//! count, so the DNN-accelerator latency model prices the network like
//! the paper's.

use mp_robot::{JointConfig, RobotModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MAC count of MPNet's planning network (Pnet ≈ 3 M parameters); used as
/// the reported inference cost of the oracle sampler so the system model
/// prices NN inference like the paper's.
pub const MPNET_PNET_MACS: u64 = 3_000_000;

/// A sampler proposing the next intermediate pose toward a goal.
pub trait NeuralSampler {
    /// Proposes the next pose from `current` toward `goal`.
    fn next_pose(&mut self, current: &JointConfig, goal: &JointConfig) -> JointConfig;

    /// MACs per inference (drives the DNN accelerator latency model).
    fn macs(&self) -> u64;
}

/// The oracle sampler: goal-directed steps with stochastic exploration
/// noise, mimicking a trained Pnet with inference-time dropout.
#[derive(Clone, Debug)]
pub struct OracleSampler {
    robot: RobotModel,
    step: f32,
    noise: f32,
    rng: StdRng,
}

impl OracleSampler {
    /// Creates an oracle sampler with paper-scale defaults.
    pub fn new(robot: RobotModel, seed: u64) -> OracleSampler {
        OracleSampler {
            robot,
            step: 0.8,
            noise: 0.25,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sets the C-space step length (L2 radians).
    pub fn with_step(mut self, step: f32) -> OracleSampler {
        self.step = step.max(1e-3);
        self
    }

    /// Sets the exploration noise amplitude (radians per joint).
    pub fn with_noise(mut self, noise: f32) -> OracleSampler {
        self.noise = noise.max(0.0);
        self
    }

    /// Approximately normal noise (sum of three uniforms).
    fn noise_sample(&mut self) -> f32 {
        let u: f32 = (0..3).map(|_| self.rng.gen_range(-1.0f32..1.0)).sum();
        u / 3.0 * self.noise
    }
}

impl NeuralSampler for OracleSampler {
    fn next_pose(&mut self, current: &JointConfig, goal: &JointConfig) -> JointConfig {
        let dist = current.distance(goal);
        if dist <= self.step {
            return goal.clone();
        }
        let scale = self.step / dist;
        let values: Vec<f32> = current
            .as_slice()
            .iter()
            .zip(goal.as_slice())
            .map(|(&c, &g)| c + (g - c) * scale + self.noise_sample())
            .collect();
        self.robot.clamp_config(&JointConfig::new(values))
    }

    fn macs(&self) -> u64 {
        MPNET_PNET_MACS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_moves_toward_goal() {
        let robot = RobotModel::baxter();
        let mut s = OracleSampler::new(robot.clone(), 1).with_noise(0.0);
        let start = robot.home();
        let mut goal = robot.home();
        goal.as_mut_slice()[0] += 1.5;
        goal.as_mut_slice()[2] += 1.5;
        let next = s.next_pose(&start, &goal);
        assert!(next.distance(&goal) < start.distance(&goal));
        // Within one step: jumps to the goal exactly.
        let near = s.next_pose(&goal, &goal);
        assert_eq!(near, goal);
    }

    #[test]
    fn oracle_respects_limits_despite_noise() {
        let robot = RobotModel::baxter();
        let mut s = OracleSampler::new(robot.clone(), 3).with_noise(2.0);
        let start = robot.home();
        let goal = {
            let mut g = robot.home();
            g.as_mut_slice()[1] = -2.0;
            robot.clamp_config(&g)
        };
        for _ in 0..50 {
            let p = s.next_pose(&start, &goal);
            for (v, l) in p.as_slice().iter().zip(robot.joint_limits()) {
                assert!(*v >= l.lo && *v <= l.hi);
            }
        }
    }

    #[test]
    fn oracle_reports_mpnet_macs() {
        let s = OracleSampler::new(RobotModel::jaco2(), 0);
        assert_eq!(s.macs(), MPNET_PNET_MACS);
    }
}
