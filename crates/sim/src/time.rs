//! Clocking: cycle-count to wall-clock conversion.

/// Critical-path delay of the multi-cycle OOCD design (§7.3), nanoseconds.
pub const MULTI_CYCLE_PERIOD_NS: f64 = 2.24;

/// Critical-path delay of the pipelined OOCD design (§7.3), nanoseconds.
pub const PIPELINED_PERIOD_NS: f64 = 1.48;

/// A clock domain: converts cycle counts into wall-clock time.
///
/// # Examples
///
/// ```
/// use mp_sim::ClockDomain;
///
/// let clk = ClockDomain::multi_cycle();
/// assert!((clk.frequency_ghz() - 0.446).abs() < 0.01);
/// assert!((clk.cycles_to_ns(1000) - 2240.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClockDomain {
    period_ns: f64,
}

impl ClockDomain {
    /// Creates a clock domain from its period in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive and finite.
    fn from_period_ns(period_ns: f64) -> ClockDomain {
        assert!(
            period_ns.is_finite() && period_ns > 0.0,
            "clock period must be positive, got {period_ns}"
        );
        ClockDomain { period_ns }
    }

    /// The clock of the multi-cycle OOCD design (446 MHz).
    pub fn multi_cycle() -> ClockDomain {
        ClockDomain::from_period_ns(MULTI_CYCLE_PERIOD_NS)
    }

    /// The clock of the pipelined OOCD design (676 MHz).
    pub fn pipelined() -> ClockDomain {
        ClockDomain::from_period_ns(PIPELINED_PERIOD_NS)
    }

    /// Clock period in nanoseconds.
    pub fn period_ns(&self) -> f64 {
        self.period_ns
    }

    /// Clock frequency in GHz.
    pub fn frequency_ghz(&self) -> f64 {
        1.0 / self.period_ns
    }

    /// Converts cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.period_ns
    }

    /// Converts cycles to milliseconds.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        self.cycles_to_ns(cycles) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_frequencies() {
        // 1/2.24 ns ≈ 446 MHz; 1/1.48 ns ≈ 676 MHz.
        assert!((ClockDomain::multi_cycle().frequency_ghz() - 0.4464).abs() < 1e-3);
        assert!((ClockDomain::pipelined().frequency_ghz() - 0.6757).abs() < 1e-3);
    }

    #[test]
    fn conversions_roundtrip() {
        let clk = ClockDomain::from_period_ns(2.0);
        assert_eq!(clk.cycles_to_ns(5), 10.0);
        assert_eq!(clk.cycles_to_ms(5_000_000), 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = ClockDomain::from_period_ns(0.0);
    }
}
