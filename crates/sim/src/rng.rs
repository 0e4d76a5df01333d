//! The one seeded generator behind every random stream of the simulation:
//! SplitMix64 ([`mix`]) and xoshiro256++ seeded from it. The fault and SDC
//! injectors, the arrival processes and the shard-failure schedule draw
//! from it, and `mp-service` hashes its ring and fault seeds with [`mix`].

/// SplitMix64's increment: the k-th draw of the stream seeded with `s` is
/// `mix(s + k·GAMMA)`.
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 draw for state `z`: a bijective 64-bit mixer.
pub fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from the top 53 bits of a draw.
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exponential variate at `rate_per_ns` from a uniform `u` in `[0, 1)`
/// (`1 - u` is in `(0, 1]`, so the logarithm is finite).
pub(crate) fn exp_ns(u: f64, rate_per_ns: f64) -> f64 {
    -(1.0 - u).ln() / rate_per_ns
}

/// xoshiro256++ seeded with the first four SplitMix64 draws of its seed.
/// [`mix`] is a bijection, so at most one state word is zero and the
/// state never starts at xoshiro's all-zero fixed point.
#[derive(Clone, Debug)]
pub(crate) struct Rng {
    state: [u64; 4],
}

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng {
            state: [0u64, 1, 2, 3].map(|k| mix(seed.wrapping_add(k.wrapping_mul(GAMMA)))),
        }
    }

    /// One xoshiro256++ step (public domain reference constants).
    pub(crate) fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        unit(self.next_u64())
    }
}
