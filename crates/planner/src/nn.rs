//! A small from-scratch neural-network library: dense layers, forward
//! inference and SGD training.
//!
//! This substitutes for the PyTorch MPNet networks of the original artifact
//! (see DESIGN.md, substitution 1). The accelerator never executes the
//! network — it only needs the inference *cost* (MAC count) for the DNN
//! accelerator latency model — but a real trainable MLP is provided so the
//! sampler interface can be served by a genuinely learned model (e.g.
//! distilled from the oracle sampler).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (for output layers).
    Linear,
}

impl Activation {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Linear => x,
        }
    }

    /// Derivative with respect to the pre-activation, given the
    /// post-activation value.
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Linear => 1.0,
        }
    }
}

/// One dense (fully connected) layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Dense {
    weights: Vec<f32>, // row-major [out][in]
    bias: Vec<f32>,
    inputs: usize,
    outputs: usize,
    activation: Activation,
}

impl Dense {
    /// Creates a layer with Xavier-uniform initialization.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut StdRng) -> Dense {
        assert!(
            inputs > 0 && outputs > 0,
            "layer dimensions must be positive"
        );
        let bound = (6.0 / (inputs + outputs) as f32).sqrt();
        Dense {
            weights: (0..inputs * outputs)
                .map(|_| rng.gen_range(-bound..bound))
                .collect(),
            bias: vec![0.0; outputs],
            inputs,
            outputs,
            activation,
        }
    }

    /// Forward pass into a caller-provided buffer (cleared first) — the
    /// allocation-free form [`Mlp::forward_scratch`] builds on.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != inputs`.
    pub fn forward_into(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(x.len(), self.inputs, "layer input size mismatch");
        out.clear();
        out.extend((0..self.outputs).map(|o| {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let z: f32 = row.iter().zip(x).map(|(w, v)| w * v).sum::<f32>() + self.bias[o];
            self.activation.apply(z)
        }));
    }

    /// Multiply-accumulate operations in one forward pass.
    pub fn macs(&self) -> u64 {
        (self.inputs * self.outputs) as u64
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

/// Reusable ping-pong activation buffers for [`Mlp::forward_scratch`].
///
/// Planner samplers run one inference per proposed pose — millions per
/// benchmark — so the per-layer activation vectors are the dominant
/// allocation of the planning hot path. A scratch held across calls
/// reduces that to zero after warmup.
#[derive(Clone, Debug, Default)]
pub struct MlpScratch {
    ping: Vec<f32>,
    pong: Vec<f32>,
}

/// A multi-layer perceptron.
///
/// # Examples
///
/// ```
/// use mp_planner::nn::{Activation, Mlp};
///
/// let mlp = Mlp::new(&[4, 16, 2], Activation::Tanh, 42);
/// let mut scratch = mp_planner::nn::MlpScratch::default();
/// let y = mlp.forward_scratch(&[0.1, -0.2, 0.3, 0.4], &mut scratch);
/// assert_eq!(y.len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes. Hidden layers use the
    /// given activation; the output layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], hidden: Activation, seed: u64) -> Mlp {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i == sizes.len() - 2 {
                    Activation::Linear
                } else {
                    hidden
                };
                Dense::new(w[0], w[1], act, &mut rng)
            })
            .collect();
        Mlp { layers }
    }

    /// Forward inference through reusable ping-pong buffers: no per-layer
    /// allocation, and none at all once the scratch has warmed up. The
    /// returned slice (borrowed from the scratch) is the output activation
    /// and is valid until the next call with the same scratch.
    ///
    /// # Panics
    ///
    /// Panics if the input size does not match the first layer.
    pub fn forward_scratch<'a>(&self, x: &[f32], scratch: &'a mut MlpScratch) -> &'a [f32] {
        let MlpScratch { ping, pong } = scratch;
        ping.clear();
        ping.extend_from_slice(x);
        for layer in &self.layers {
            layer.forward_into(ping, pong);
            std::mem::swap(ping, pong);
        }
        ping
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        // Invariant: `Mlp::new` rejects size lists shorter than two, so
        // the network always has at least one layer.
        self.layers
            .first()
            .expect("Mlp::new guarantees >= 1 layer")
            .inputs
    }

    /// Output dimensionality.
    pub fn output_size(&self) -> usize {
        self.layers
            .last()
            .expect("Mlp::new guarantees >= 1 layer")
            .outputs
    }

    /// Total MACs per inference (the DNN-accelerator latency driver).
    pub fn macs(&self) -> u64 {
        self.layers.iter().map(Dense::macs).sum()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Mean-squared error over a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or shapes mismatch.
    pub fn mse(&self, data: &[(Vec<f32>, Vec<f32>)]) -> f32 {
        assert!(!data.is_empty(), "empty dataset");
        let mut scratch = MlpScratch::default();
        let mut total = 0.0;
        for (x, t) in data {
            let y = self.forward_scratch(x, &mut scratch);
            assert_eq!(y.len(), t.len(), "target size mismatch");
            total += y.iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / t.len() as f32;
        }
        total / data.len() as f32
    }

    /// One epoch of SGD with backpropagation on MSE loss. Returns the mean
    /// loss before the update.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, shapes mismatch, or `lr` is not
    /// positive.
    #[allow(clippy::needless_range_loop)] // index form mirrors the math
    pub fn train_epoch(&mut self, data: &[(Vec<f32>, Vec<f32>)], lr: f32) -> f32 {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(!data.is_empty(), "empty dataset");
        let mut total_loss = 0.0;
        for (x, target) in data {
            // Forward, keeping activations. `acts[i]` is layer i's input;
            // `cur` tracks the latest activation so no panicking `last()`
            // lookups are needed.
            let mut acts: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len() + 1);
            let mut cur = x.clone();
            for layer in &self.layers {
                let mut next = Vec::with_capacity(layer.outputs);
                layer.forward_into(&cur, &mut next);
                acts.push(std::mem::replace(&mut cur, next));
            }
            acts.push(cur);
            let y = &acts[self.layers.len()];
            assert_eq!(y.len(), target.len(), "target size mismatch");
            total_loss += y
                .iter()
                .zip(target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / target.len() as f32;

            // Backward.
            let mut delta: Vec<f32> = y
                .iter()
                .zip(target)
                .map(|(a, b)| 2.0 * (a - b) / target.len() as f32)
                .collect();
            for (li, layer) in self.layers.iter_mut().enumerate().rev() {
                let input = &acts[li];
                let output = &acts[li + 1];
                // d pre-activation.
                let dz: Vec<f32> = delta
                    .iter()
                    .zip(output)
                    .map(|(d, &o)| d * layer.activation.derivative_from_output(o))
                    .collect();
                // Gradient wrt input for the next (earlier) layer.
                let mut dinput = vec![0.0f32; layer.inputs];
                for o in 0..layer.outputs {
                    for i in 0..layer.inputs {
                        dinput[i] += layer.weights[o * layer.inputs + i] * dz[o];
                    }
                }
                // Update.
                for o in 0..layer.outputs {
                    for i in 0..layer.inputs {
                        layer.weights[o * layer.inputs + i] -= lr * dz[o] * input[i];
                    }
                    layer.bias[o] -= lr * dz[o];
                }
                delta = dinput;
            }
        }
        total_loss / data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_counts() {
        let mlp = Mlp::new(&[8, 32, 16, 4], Activation::Relu, 1);
        assert_eq!(mlp.input_size(), 8);
        assert_eq!(mlp.output_size(), 4);
        assert_eq!(mlp.macs(), (8 * 32 + 32 * 16 + 16 * 4) as u64);
        assert_eq!(mlp.param_count(), 8 * 32 + 32 + 32 * 16 + 16 + 16 * 4 + 4);
        let mut scratch = MlpScratch::default();
        assert_eq!(mlp.forward_scratch(&[0.0; 8], &mut scratch).len(), 4);
    }

    #[test]
    fn reused_scratch_matches_a_fresh_one() {
        let mlp = Mlp::new(&[6, 24, 12, 3], Activation::Tanh, 21);
        let mut scratch = MlpScratch::default();
        // Reuse the same scratch across calls: results must stay identical
        // to inference through a fresh scratch.
        for i in 0..5 {
            let x: Vec<f32> = (0..6).map(|j| ((i * 6 + j) as f32 * 0.37).sin()).collect();
            let expect = mlp.forward_scratch(&x, &mut MlpScratch::default()).to_vec();
            assert_eq!(mlp.forward_scratch(&x, &mut scratch), expect.as_slice());
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = Mlp::new(&[4, 8, 2], Activation::Tanh, 7);
        let b = Mlp::new(&[4, 8, 2], Activation::Tanh, 7);
        let c = Mlp::new(&[4, 8, 2], Activation::Tanh, 8);
        let x = [0.3, -0.1, 0.9, 0.5];
        let mut s = MlpScratch::default();
        let ya = a.forward_scratch(&x, &mut s).to_vec();
        let yb = b.forward_scratch(&x, &mut s).to_vec();
        let yc = c.forward_scratch(&x, &mut s).to_vec();
        assert_eq!(ya, yb);
        assert_ne!(ya, yc);
    }

    #[test]
    fn activations() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Linear.apply(-3.5), -3.5);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-7);
    }

    #[test]
    fn training_reduces_loss_on_linear_task() {
        // Learn y = [x0 + x1, x0 - x1].
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<(Vec<f32>, Vec<f32>)> = (0..200)
            .map(|_| {
                let x0 = rng.gen_range(-1.0f32..1.0);
                let x1 = rng.gen_range(-1.0f32..1.0);
                (vec![x0, x1], vec![x0 + x1, x0 - x1])
            })
            .collect();
        let mut mlp = Mlp::new(&[2, 16, 2], Activation::Tanh, 11);
        let before = mlp.mse(&data);
        for _ in 0..60 {
            mlp.train_epoch(&data, 0.05);
        }
        let after = mlp.mse(&data);
        assert!(
            after < before * 0.15,
            "loss did not drop enough: {before} -> {after}"
        );
    }

    #[test]
    fn training_nonlinear_task_learns_something() {
        // y = x0 * x1 — needs the hidden layer.
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<(Vec<f32>, Vec<f32>)> = (0..300)
            .map(|_| {
                let x0 = rng.gen_range(-1.0f32..1.0);
                let x1 = rng.gen_range(-1.0f32..1.0);
                (vec![x0, x1], vec![x0 * x1])
            })
            .collect();
        let mut mlp = Mlp::new(&[2, 24, 1], Activation::Tanh, 13);
        let before = mlp.mse(&data);
        for _ in 0..120 {
            mlp.train_epoch(&data, 0.05);
        }
        assert!(mlp.mse(&data) < before * 0.5);
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn wrong_input_size_panics() {
        let mlp = Mlp::new(&[3, 2], Activation::Relu, 0);
        let _ = mlp.forward_scratch(&[1.0, 2.0], &mut MlpScratch::default());
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn degenerate_architecture_rejected() {
        let _ = Mlp::new(&[5], Activation::Relu, 0);
    }
}
