//! Circuit breaker: quarantine a persistently faulty instance.
//!
//! The per-instance strike streak lives in [`AcceleratorPool`]; this
//! module owns the *policy*: how many consecutive faulted dispatches trip the
//! breaker and how long the instance sits out. While quarantined, the
//! dispatcher simply never acquires the instance, so its load
//! redistributes to the healthy ones; on expiry it re-enters on probation
//! (one more streak re-trips it). The breaker never quarantines the last
//! healthy instance — a degraded pool beats a dead service.

use mp_sim::vtime::{VirtualNs, NS_PER_US};
use mpaccel_core::pool::AcceleratorPool;

/// Circuit-breaker policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive faulted dispatches on one instance that trip the
    /// breaker.
    pub strike_threshold: u32,
    /// Quarantine duration in microseconds.
    pub cooldown_us: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            strike_threshold: 3,
            cooldown_us: 5_000,
        }
    }
}

impl BreakerConfig {
    /// Records a faulted dispatch on `inst` and quarantines it when the
    /// streak reaches the threshold (unless it is the last healthy
    /// instance). Returns the quarantine expiry when the breaker tripped.
    pub fn on_fault(
        &self,
        pool: &mut AcceleratorPool,
        inst: usize,
        now: VirtualNs,
    ) -> Option<VirtualNs> {
        let streak = pool.record_fault(inst);
        if streak >= self.strike_threshold && pool.healthy(now) > 1 {
            let until = now + self.cooldown_us * NS_PER_US;
            pool.quarantine(inst, until);
            Some(until)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_strikes() {
        let cfg = BreakerConfig {
            strike_threshold: 3,
            cooldown_us: 100,
        };
        let mut pool = AcceleratorPool::new(2);
        assert_eq!(cfg.on_fault(&mut pool, 0, 0), None);
        assert_eq!(cfg.on_fault(&mut pool, 0, 10), None);
        assert_eq!(cfg.on_fault(&mut pool, 0, 20), Some(20 + 100_000));
        assert!(pool.is_quarantined(0, 21));
        assert!(!pool.is_quarantined(0, 20 + 100_000));
    }

    #[test]
    fn success_between_faults_resets_the_streak() {
        let cfg = BreakerConfig::default();
        let mut pool = AcceleratorPool::new(2);
        cfg.on_fault(&mut pool, 1, 0);
        cfg.on_fault(&mut pool, 1, 1);
        pool.record_success(1);
        assert_eq!(cfg.on_fault(&mut pool, 1, 2), None, "streak was reset");
    }

    #[test]
    fn never_quarantines_the_last_healthy_instance() {
        let cfg = BreakerConfig {
            strike_threshold: 1,
            cooldown_us: 1_000,
        };
        let mut pool = AcceleratorPool::new(2);
        assert!(cfg.on_fault(&mut pool, 0, 0).is_some());
        // Instance 1 is now the last healthy one: it may strike forever
        // but stays in service.
        for t in 0..10 {
            assert_eq!(cfg.on_fault(&mut pool, 1, t), None);
        }
        assert_eq!(pool.healthy(5), 1);
    }
}
