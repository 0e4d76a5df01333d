//! The repository benchmark for the MPAccel reproduction.
//!
//! Four seeded workloads drive the repository's crates through their
//! public functions; every timing is taken here, from outside the crates.
//! `run` measures the end-to-end metrics (tracing off) or, with
//! `--trace 1`, the per-layer breakdown; `compare` judges two sets of run
//! records against the bounds in `BENCHMARK.json`. See `README.md`.

#![forbid(unsafe_code)]

pub mod compare;
pub mod json;
pub mod runner;
pub mod spec;
pub mod trace;
pub mod workloads;

/// Input scale: `Full` is the measured benchmark; `Smoke` shrinks every
/// workload so the test suite can run all four in a few seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Tiny inputs for tests.
    Smoke,
}

impl Scale {
    /// Parses `full` / `smoke`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for item `index` of stream `stream` under the run seed, so no
/// two operations share an input.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ stream.rotate_left(32)) ^ index)
}

/// 64-bit FNV-1a, the output digest.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hashes raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Hashes `f32`s by their bit patterns.
    pub fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of an ascending slice; 0 when
/// empty.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of unsorted values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles `[q1, q2, q3]` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The fixed host-calibration kernel: floating-point separating-axis tests
/// between 64 oriented and 64 axis-aligned boxes, with data-dependent
/// early exits like a collision check's, then 200 rounds of filling,
/// cloning and summing a fresh 16 KiB integer buffer, like a planner's
/// per-query set-up. It never changes, so its host time reads how fast
/// the host runs at this moment: under interference from other tenants
/// it slows nearly as much as the workloads do, where an arithmetic loop
/// barely slows (see `README.md`, "Host interference"). Returns
/// nanoseconds.
pub fn calibrate() -> u64 {
    let start = std::time::Instant::now();
    let mut state = std::hint::black_box(0x2545_f491_4f6c_dd1d_u64);
    let mut unit = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    // Oriented boxes: centre, three unit-ish axes, half extents.
    let obbs: Vec<[f32; 15]> = (0..64)
        .map(|_| std::array::from_fn(|_| unit() * 2.0 - 1.0))
        .collect();
    // Axis-aligned boxes: centre, half extents.
    let aabbs: Vec<[f32; 6]> = (0..64).map(|_| std::array::from_fn(|_| unit())).collect();
    let mut overlaps = 0u32;
    for _ in 0..6 {
        for o in &obbs {
            for a in &aabbs {
                let d = [o[0] - a[0], o[1] - a[1], o[2] - a[2]];
                let separated = (0..3).any(|k| {
                    let axis = [o[3 + 3 * k], o[4 + 3 * k], o[5 + 3 * k]];
                    let reach = a[3] * axis[0].abs() + a[4] * axis[1].abs() + a[5] * axis[2].abs();
                    (d[0] * axis[0] + d[1] * axis[1] + d[2] * axis[2]).abs() > o[12 + k] + reach
                }) || (0..3).any(|k| {
                    let reach =
                        o[12] * o[3 + k].abs() + o[13] * o[6 + k].abs() + o[14] * o[9 + k].abs();
                    d[k].abs() > reach + a[3 + k]
                });
                overlaps += u32::from(!separated);
            }
        }
    }
    let mut sum = 0u64;
    for round in 0..200u64 {
        let fresh: Vec<u64> = (0..2048).map(|k| k ^ round).collect();
        let copy = std::hint::black_box(fresh.clone());
        sum = sum.wrapping_add(copy.iter().sum::<u64>());
    }
    std::hint::black_box((overlaps, sum));
    start.elapsed().as_nanos() as u64
}

/// [`calibrate`] on the reference host (2-vCPU KVM guest, Intel Xeon at
/// 2.1 GHz) when no other tenant interferes. Host times are scaled by
/// this over the kernel's time around them; on another host the scale
/// differs by a constant factor, the same for every commit.
pub const REFERENCE_CALIB_NS: f64 = 300_000.0;

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// field (non-Linux hosts).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile::<f64>(&[], 0.5), 0.0);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_index() {
        assert_ne!(derive(1, 0, 0), derive(1, 0, 1));
        assert_ne!(derive(1, 0, 0), derive(1, 1, 0));
        assert_ne!(derive(1, 0, 0), derive(2, 0, 0));
        assert_eq!(derive(7, 3, 9), derive(7, 3, 9));
    }
}
