//! A small from-scratch MLP: dense layers and forward inference.
//!
//! This substitutes for the PyTorch MPNet networks of the original artifact
//! (see DESIGN.md, substitution 1). The accelerator never executes the
//! network — it only needs the inference *cost* (MAC count) for the DNN
//! accelerator latency model, and MPNet trains its networks offline. The
//! forward pass is kept so host inference cost can be measured next to
//! that modeled cost (the criterion `mlp_forward_scratch` bench).

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
/// A sampler backed by the network would run one inference per proposed
/// pose, so the per-layer activation vectors would be the dominant
/// allocation of its loop. A scratch held across calls reduces that to
/// zero after warmup.
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
