//! Goodput-vs-shards scaling curve (robustness study; not a paper
//! figure): the defended fleet swept over 1/2/4/8/16/32 shards under the
//! *fixed* offered load of the 16-shard reference (2× its saturating
//! rate), no chaos. Undersized fleets shed at their bounded queues;
//! goodput grows with the shard count until the offered load is covered,
//! then flattens — the curve the capacity-planning satellite reads.
//!
//! Thin experiment wrapper around
//! [`fleet::scaling_report`](crate::experiments::fleet), so the curve
//! rides the engine: `mp-bench all`'s stdout, `results/csv/
//! fleet_scaling.csv` via `MPACCEL_CSV_DIR`, and the determinism
//! regression alongside every other experiment.

use crate::experiments::fleet;
use crate::report::Report;
use crate::workloads::Scale;

/// Runs the scaling sweep and renders the curve (cached catalog).
pub fn run(scale: Scale) -> Report {
    fleet::scaling_report(scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fleet::{scaling_data, SCALING_SHARDS};

    #[test]
    fn goodput_grows_with_shards_until_the_load_is_covered() {
        let d = scaling_data(Scale::Quick);
        assert_eq!(d.len(), SCALING_SHARDS.len());
        let goodput: Vec<f64> = d.iter().map(|p| p.summary.fleet.goodput_rps()).collect();
        // Identical offered traffic at every size.
        let offered = d[0].summary.fleet.offered;
        assert!(d.iter().all(|p| p.summary.fleet.offered == offered));
        // Scaling out must pay: the 16-shard fleet beats the single shard
        // by a wide margin under 32x its load.
        assert!(
            goodput[4] > 2.0 * goodput[0],
            "16 shards ({:.0} rps) must far outscale 1 shard ({:.0} rps)",
            goodput[4],
            goodput[0]
        );
        // The undersized fleets shed; the right-sized ones shed less.
        let sheds: Vec<u64> = d.iter().map(|p| p.summary.fleet.shed()).collect();
        assert!(
            sheds[0] > sheds[4],
            "1 shard must shed more than 16 ({} vs {})",
            sheds[0],
            sheds[4]
        );
    }

    #[test]
    fn curve_is_deterministic() {
        let a = format!("{:?}", scaling_data(Scale::Quick));
        let b = format!("{:?}", scaling_data(Scale::Quick));
        assert_eq!(a, b);
    }

    #[test]
    fn report_lists_every_shard_count() {
        let text = run(Scale::Quick).to_string();
        for s in SCALING_SHARDS {
            assert!(
                text.lines()
                    .any(|l| l.trim_start().starts_with(&format!("{s} "))
                        || l.trim_start().starts_with(&format!("{s}\t"))
                        || l.split_whitespace().next() == Some(&s.to_string())),
                "missing shard count {s}"
            );
        }
    }
}
