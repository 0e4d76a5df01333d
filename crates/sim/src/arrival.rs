//! Seeded open-loop arrival processes for the planning-service study.
//!
//! The service simulation drives a pool of MPAccel instances with streams
//! of planning queries. Three arrival shapes cover the regimes a realtime
//! service must survive:
//!
//! * **Poisson** — memoryless background traffic (exponential
//!   inter-arrivals at a target rate),
//! * **Bursty** — an on/off modulated Poisson process (periodic bursts at
//!   a multiple of the base rate, silence in between, same average rate),
//! * **Adversarial** — synchronized batches: `batch` requests arrive at
//!   the same instant, the worst case for a bounded queue.
//!
//! Every stream is a pure function of its seed (drawn from the crate's
//! one seeded xoshiro256++ generator, on its own stream so arrival draws
//! and fault draws never perturb each other), so a campaign replays
//! identically on any machine and thread count.

use crate::rng::{exp_ns, Rng};
use crate::vtime::VirtualNs;

/// The shape of an arrival stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalKind {
    /// Memoryless traffic: exponential inter-arrival times.
    Poisson,
    /// On/off modulated Poisson: bursts at `burst_factor`× the base rate
    /// for `duty` of each `period_us`, silent otherwise. The *average*
    /// rate matches the configured rate when `burst_factor * duty == 1`.
    Bursty {
        /// Rate multiplier while the burst is on.
        burst_factor: f64,
        /// Burst cycle length in microseconds.
        period_us: u64,
        /// Fraction of the period the burst is on (`0 < duty <= 1`).
        duty: f64,
    },
    /// Synchronized batches: `batch` requests at the same instant, one
    /// batch every `batch / rate` seconds.
    Adversarial {
        /// Requests per synchronized batch.
        batch: u32,
    },
}

/// A seeded open-loop arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrivalProcess {
    /// Stream shape.
    pub kind: ArrivalKind,
    /// Average offered rate in requests per second.
    pub rate_per_s: f64,
    /// Stream seed; identical seeds reproduce identical streams.
    pub seed: u64,
}

impl ArrivalProcess {
    /// Generates the sorted arrival timestamps in `[0, duration_ns)`.
    ///
    /// The stream is open-loop: arrivals do not react to service state,
    /// which is exactly the overload regime the admission controller has
    /// to handle.
    pub fn generate(&self, duration_ns: VirtualNs) -> Vec<VirtualNs> {
        if self.rate_per_s <= 0.0 || duration_ns == 0 {
            return Vec::new();
        }
        let rate_per_ns = self.rate_per_s * 1e-9;
        let mut rng = Rng::new(self.seed);
        let mut out = Vec::new();
        match self.kind {
            ArrivalKind::Poisson => {
                let mut t = 0.0f64;
                loop {
                    t += exp_ns(rng.unit_f64(), rate_per_ns);
                    if t >= duration_ns as f64 {
                        break;
                    }
                    out.push(t as VirtualNs);
                }
            }
            ArrivalKind::Bursty {
                burst_factor,
                period_us,
                duty,
            } => {
                let duty = duty.clamp(1e-3, 1.0);
                let period = (period_us.max(1) * 1_000) as f64;
                let on_len = period * duty;
                let on_rate = rate_per_ns * burst_factor.max(0.0);
                // Walk virtual time phase by phase; the exponential
                // clock restarts at each boundary (memoryless, so the
                // stream stays a Poisson process within each phase).
                let mut t = 0.0f64;
                while t < duration_ns as f64 {
                    let phase = t - (t / period).floor() * period;
                    let (rate, phase_end) = if phase < on_len {
                        (on_rate, t - phase + on_len)
                    } else {
                        (0.0, t - phase + period)
                    };
                    if rate <= 0.0 {
                        t = phase_end;
                        continue;
                    }
                    let dt = exp_ns(rng.unit_f64(), rate);
                    if t + dt >= phase_end {
                        t = phase_end;
                        continue;
                    }
                    t += dt;
                    if t < duration_ns as f64 {
                        out.push(t as VirtualNs);
                    }
                }
            }
            ArrivalKind::Adversarial { batch } => {
                let batch = batch.max(1);
                let spacing_ns = batch as f64 / rate_per_ns;
                // Seeded phase offset so co-scheduled adversarial streams
                // don't trivially align with each other.
                let mut t = rng.unit_f64() * spacing_ns;
                while t < duration_ns as f64 {
                    for _ in 0..batch {
                        out.push(t as VirtualNs);
                    }
                    t += spacing_ns;
                }
            }
        }
        out
    }

    /// Generates the stream inside the window `[start_ns, end_ns)`: the
    /// process runs for `end_ns - start_ns` and is shifted to begin at
    /// `start_ns`. Used for traffic that switches on mid-run — e.g. an
    /// adversarial tenant attacking a fleet partway through a soak — while
    /// keeping the stream a pure function of `(seed, window)`.
    pub fn generate_between(&self, start_ns: VirtualNs, end_ns: VirtualNs) -> Vec<VirtualNs> {
        if end_ns <= start_ns {
            return Vec::new();
        }
        let mut out = self.generate(end_ns - start_ns);
        for t in &mut out {
            *t += start_ns;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_hits_the_target_rate() {
        let p = ArrivalProcess {
            kind: ArrivalKind::Poisson,
            rate_per_s: 10_000.0,
            seed: 7,
        };
        let dur = 1_000_000_000; // 1 s
        let ts = p.generate(dur);
        let n = ts.len() as f64;
        assert!((8_500.0..11_500.0).contains(&n), "rate off: {n}");
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "unsorted");
        assert!(*ts.last().unwrap() < dur);
    }

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        for kind in [
            ArrivalKind::Poisson,
            ArrivalKind::Bursty {
                burst_factor: 4.0,
                period_us: 2_000,
                duty: 0.25,
            },
            ArrivalKind::Adversarial { batch: 16 },
        ] {
            let p = ArrivalProcess {
                kind,
                rate_per_s: 5_000.0,
                seed: 42,
            };
            assert_eq!(p.generate(50_000_000), p.generate(50_000_000));
            let other = ArrivalProcess { seed: 43, ..p };
            assert_ne!(p.generate(50_000_000), other.generate(50_000_000));
        }
    }

    #[test]
    fn bursty_concentrates_arrivals_in_the_duty_window() {
        let period_us = 1_000;
        let duty = 0.2;
        let p = ArrivalProcess {
            kind: ArrivalKind::Bursty {
                burst_factor: 1.0 / duty, // average rate == configured rate
                period_us,
                duty,
            },
            rate_per_s: 20_000.0,
            seed: 3,
        };
        let dur = 500_000_000;
        let ts = p.generate(dur);
        let period_ns = period_us * 1_000;
        let on_len = (period_ns as f64 * duty) as u64;
        assert!(
            ts.iter().all(|t| t % period_ns < on_len),
            "arrival outside the on-phase"
        );
        // Average rate stays near the configured rate.
        let n = ts.len() as f64 / 0.5;
        assert!((15_000.0..25_000.0).contains(&n), "avg rate {n}");
    }

    #[test]
    fn adversarial_arrives_in_synchronized_batches() {
        let p = ArrivalProcess {
            kind: ArrivalKind::Adversarial { batch: 8 },
            rate_per_s: 8_000.0,
            seed: 11,
        };
        let ts = p.generate(100_000_000);
        assert!(!ts.is_empty());
        assert_eq!(ts.len() % 8, 0, "partial batch emitted");
        for chunk in ts.chunks(8) {
            assert!(chunk.iter().all(|&t| t == chunk[0]), "batch not aligned");
        }
        // Batches are spaced by batch/rate = 1 ms.
        assert_eq!(ts[8] - ts[0], 1_000_000);
    }

    #[test]
    fn generate_between_shifts_the_window() {
        let p = ArrivalProcess {
            kind: ArrivalKind::Poisson,
            rate_per_s: 50_000.0,
            seed: 5,
        };
        let shifted = p.generate_between(10_000_000, 30_000_000);
        assert!(!shifted.is_empty());
        assert!(shifted
            .iter()
            .all(|&t| (10_000_000..30_000_000).contains(&t)));
        let base = p.generate(20_000_000);
        assert_eq!(shifted.len(), base.len());
        assert!(shifted
            .iter()
            .zip(&base)
            .all(|(&s, &b)| s == b + 10_000_000));
        assert!(p.generate_between(5, 5).is_empty());
    }

    #[test]
    fn zero_rate_or_duration_is_empty() {
        let p = ArrivalProcess {
            kind: ArrivalKind::Poisson,
            rate_per_s: 0.0,
            seed: 1,
        };
        assert!(p.generate(1_000_000).is_empty());
        let q = ArrivalProcess {
            rate_per_s: 100.0,
            ..p
        };
        assert!(q.generate(0).is_empty());
    }
}
