//! Process-wide collision-detection work counters.
//!
//! Every pose-level query — oracle or cycle-level hardware model —
//! records itself here, and the benchmark engine reports the run's CD
//! checks and their modeled energy in `BENCH.json`. The counters are
//! monotone and relaxed (a single uncontended atomic increment per pose
//! query, invisible next to the FK + traversal cost of the query itself),
//! and the totals are deterministic for a given workload: only the
//! interleaving of increments varies across thread counts, never the sum.
//!
//! The storage is `mp_telemetry::Counter`s (the unified metrics layer),
//! written through [`record_pose_checks`] / [`record_pose_work`] (or
//! [`record_work`], for work a checker replays) and read through
//! [`pose_checks_total`] / [`ops_total`].

use mp_telemetry::Counter;

static CD_POSE_CHECKS: Counter = Counter::new();
static CD_NODES_VISITED: Counter = Counter::new();
static CD_BOX_TESTS: Counter = Counter::new();
static CD_MULTS: Counter = Counter::new();

/// Records `n` pose-level collision checks.
#[inline]
pub fn record_pose_checks(n: u64) {
    CD_POSE_CHECKS.add(n);
}

/// Records the traversal work of one pose query (octree nodes visited,
/// primitive tests, multiplications) — three relaxed adds per *query*,
/// not per node, so the inner walk stays register-resident. Feeds the
/// process-wide energy figure in `BENCH.json` (pJ per CD check).
#[inline]
pub fn record_pose_work(nodes_visited: u64, box_tests: u64, mults: u64) {
    CD_NODES_VISITED.add(nodes_visited);
    CD_BOX_TESTS.add(box_tests);
    CD_MULTS.add(mults);
}

/// Records `work` as its pose checks and their traversal work: what
/// [`record_pose_checks`] and [`record_pose_work`] recorded, summed, when
/// that work was executed. A checker replaying recorded work calls it.
pub fn record_work(work: &crate::CdStats) {
    record_pose_checks(work.pose_queries);
    record_pose_work(work.nodes_visited, work.box_tests, work.mults);
}

/// Total pose-level collision checks recorded by this process so far.
///
/// Take a snapshot before and after a region to attribute checks to it.
pub fn pose_checks_total() -> u64 {
    CD_POSE_CHECKS.get()
}

/// Process-wide collision work as energy-model op classes (nodes visited
/// map to small-SRAM node reads, as in `CdStats::to_ops`). Snapshot
/// before/after a region to attribute its energy.
pub fn ops_total() -> mp_sim::OpCounter {
    mp_sim::OpCounter {
        mults: CD_MULTS.get(),
        sram_reads: CD_NODES_VISITED.get(),
        box_tests: CD_BOX_TESTS.get(),
        cd_queries: CD_POSE_CHECKS.get(),
        ..mp_sim::OpCounter::default()
    }
}

/// Process-wide dynamic collision-detection energy in picojoules.
pub fn energy_pj_total() -> f64 {
    mp_sim::energy::dynamic_energy_pj(&ops_total())
}

/// Exports the process-wide counters into a telemetry registry.
pub fn export_into(registry: &mp_telemetry::Registry) {
    registry.set_counter("collision.pose_checks_total", pose_checks_total());
    ops_total().export_into("collision.ops", registry);
    registry.set_gauge("collision.energy_pj_total", energy_pj_total());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotone() {
        let before = pose_checks_total();
        record_pose_checks(3);
        record_pose_checks(2);
        // Other tests may run concurrently and bump the counter too, so
        // assert a lower bound only.
        assert!(pose_checks_total() >= before + 5);
    }

    #[test]
    fn export_lands_in_registry() {
        record_pose_checks(1);
        let r = mp_telemetry::Registry::new();
        export_into(&r);
        assert!(r.counter_value("collision.pose_checks_total").unwrap() >= 1);
    }

    #[test]
    fn work_counters_feed_the_energy_total() {
        let before = ops_total();
        record_pose_work(10, 4, 81);
        let delta_pj = energy_pj_total() - mp_sim::energy::dynamic_energy_pj(&before);
        // Concurrent tests only ever add work, so the delta is at least
        // this call's energy.
        let just_this = mp_sim::OpCounter {
            mults: 81,
            sram_reads: 10,
            box_tests: 4,
            ..mp_sim::OpCounter::default()
        };
        assert!(delta_pj >= mp_sim::energy::dynamic_energy_pj(&just_this) - 1e-6);
    }
}
