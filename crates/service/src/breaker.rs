//! Circuit breaker: quarantine a persistently faulty instance.
//!
//! The per-instance strike streak lives in [`AcceleratorPool`]; this
//! module owns the *policy*: how many consecutive faulted dispatches trip the
//! breaker ([`STRIKE_THRESHOLD`]) and how long the instance sits out
//! ([`COOLDOWN_US`]). While quarantined, the dispatcher simply never
//! acquires the instance, so its load redistributes to the healthy ones;
//! on expiry it re-enters on probation (one more streak re-trips it). The
//! breaker never quarantines the last healthy instance — a degraded pool
//! beats a dead service.

use mp_sim::vtime::{VirtualNs, NS_PER_US};
use mpaccel_core::pool::AcceleratorPool;

/// Consecutive faulted dispatches on one instance that trip the breaker.
pub const STRIKE_THRESHOLD: u32 = 3;

/// Quarantine duration in microseconds.
pub const COOLDOWN_US: u64 = 5_000;

/// Records a faulted dispatch on `inst` and quarantines it for
/// [`COOLDOWN_US`] when the streak reaches [`STRIKE_THRESHOLD`] (unless it
/// is the last healthy instance). Returns the quarantine expiry when the
/// breaker tripped.
pub fn on_fault(pool: &mut AcceleratorPool, inst: usize, now: VirtualNs) -> Option<VirtualNs> {
    let streak = pool.record_fault(inst);
    if streak >= STRIKE_THRESHOLD && pool.healthy(now) > 1 {
        let until = now + COOLDOWN_US * NS_PER_US;
        pool.quarantine(inst, until);
        Some(until)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_strikes() {
        let mut pool = AcceleratorPool::new(2);
        for t in 0..STRIKE_THRESHOLD as u64 - 1 {
            assert_eq!(on_fault(&mut pool, 0, 10 * t), None);
        }
        let now = 10 * (STRIKE_THRESHOLD as u64 - 1);
        let until = now + COOLDOWN_US * NS_PER_US;
        assert_eq!(on_fault(&mut pool, 0, now), Some(until));
        assert!(pool.is_quarantined(0, now + 1));
        assert!(!pool.is_quarantined(0, until));
    }

    #[test]
    fn success_between_faults_resets_the_streak() {
        let mut pool = AcceleratorPool::new(2);
        for t in 0..STRIKE_THRESHOLD as u64 - 1 {
            on_fault(&mut pool, 1, t);
        }
        pool.record_success(1);
        assert_eq!(on_fault(&mut pool, 1, 9), None, "streak was reset");
    }

    #[test]
    fn never_quarantines_the_last_healthy_instance() {
        let mut pool = AcceleratorPool::new(2);
        for t in 0..STRIKE_THRESHOLD as u64 {
            on_fault(&mut pool, 0, t);
        }
        assert!(pool.is_quarantined(0, STRIKE_THRESHOLD as u64));
        // Instance 1 is now the last healthy one: it may strike forever
        // but stays in service.
        for t in 0..10 {
            assert_eq!(on_fault(&mut pool, 1, t), None);
        }
        assert_eq!(pool.healthy(5), 1);
    }
}
