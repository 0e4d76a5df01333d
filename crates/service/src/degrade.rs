//! Load-level controller: map queue pressure to a quality tier.
//!
//! The controller reads one robust congestion signal — queued requests per
//! healthy instance — and maps it through fixed occupancy thresholds to a
//! base [`QualityTier`]. The dispatcher may still step *further* down the
//! ladder for an individual request whose deadline slack cannot fit the
//! chosen tier's service time (slack-fit, see `fleet.rs`), but never
//! back up above the controller's tier while the queue is congested.
//! [`ServiceConfig::degrade`](crate::service::ServiceConfig::degrade)
//! switches the controller off (every request at full quality).

use mp_planner::QualityTier;

/// Queued-requests-per-healthy-instance thresholds at which the
/// controller steps down to Reduced / Fallback / Coarse (non-decreasing).
pub const OCCUPANCY_THRESHOLDS: [f64; QualityTier::COUNT - 1] = [1.0, 2.5, 5.0];

/// The base tier for the current congestion level.
pub fn load_tier(queued: usize, healthy_instances: usize) -> QualityTier {
    let occupancy = queued as f64 / healthy_instances.max(1) as f64;
    let mut tier = QualityTier::Full;
    for (i, &threshold) in OCCUPANCY_THRESHOLDS.iter().enumerate() {
        if occupancy >= threshold {
            tier = QualityTier::from_index(i + 1);
        }
    }
    tier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_down_with_occupancy() {
        assert_eq!(load_tier(0, 4), QualityTier::Full);
        assert_eq!(load_tier(3, 4), QualityTier::Full); // 0.75 < 1.0
        assert_eq!(load_tier(4, 4), QualityTier::Reduced);
        assert_eq!(load_tier(10, 4), QualityTier::Fallback);
        assert_eq!(load_tier(20, 4), QualityTier::Coarse);
    }

    #[test]
    fn quarantines_raise_effective_occupancy() {
        // Same queue, fewer healthy instances: deeper degradation.
        assert_eq!(load_tier(4, 4), QualityTier::Reduced);
        assert_eq!(load_tier(4, 1), QualityTier::Fallback);
    }
}
