//! Process-wide collision-detection work counters.
//!
//! Every pose-level query — oracle or cycle-level hardware model —
//! records its [`CdStats`] here, and the benchmark engine reports the
//! run's CD checks and their modeled energy in `BENCH.json`. The counters
//! are monotone and relaxed (four uncontended atomic adds per pose query,
//! invisible next to the FK + traversal cost of the query itself), and the
//! totals are deterministic for a given workload: only the interleaving of
//! increments varies across thread counts, never the sum.
//!
//! The storage is `mp_telemetry::Counter`s (the unified metrics layer),
//! written through [`record_work`] and read through [`ops_total`]. They
//! keep every [`CdStats`] field the energy model prices, so link tests,
//! which it does not price, are not kept.

use mp_telemetry::Counter;

use crate::CdStats;

static CD_POSE_CHECKS: Counter = Counter::new();
static CD_NODES_VISITED: Counter = Counter::new();
static CD_BOX_TESTS: Counter = Counter::new();
static CD_MULTS: Counter = Counter::new();

/// Records one or more pose queries' work — four relaxed adds per call,
/// not per node, so the inner walk stays register-resident. Every checker
/// records each pose it answers or replays through here.
#[inline]
pub fn record_work(work: &CdStats) {
    CD_POSE_CHECKS.add(work.pose_queries);
    CD_NODES_VISITED.add(work.nodes_visited);
    CD_BOX_TESTS.add(work.box_tests);
    CD_MULTS.add(work.mults);
}

/// Process-wide collision work as energy-model op classes, priced as
/// [`CdStats::to_ops`] prices a checker's counters (`cd_queries` counts
/// the pose checks). Snapshot before/after a region to attribute its
/// checks and energy.
pub fn ops_total() -> mp_sim::OpCounter {
    CdStats {
        pose_queries: CD_POSE_CHECKS.get(),
        link_tests: 0,
        box_tests: CD_BOX_TESTS.get(),
        nodes_visited: CD_NODES_VISITED.get(),
        mults: CD_MULTS.get(),
    }
    .to_ops()
}

/// Exports the process-wide counters into a telemetry registry.
pub fn export_into(registry: &mp_telemetry::Registry) {
    let ops = ops_total();
    registry.set_counter("collision.pose_checks_total", ops.cd_queries);
    ops.export_into("collision.ops", registry);
    registry.set_gauge(
        "collision.energy_pj_total",
        mp_sim::energy::dynamic_energy_pj(&ops),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(pose_queries: u64, nodes_visited: u64, box_tests: u64, mults: u64) -> CdStats {
        CdStats {
            pose_queries,
            link_tests: 7,
            box_tests,
            nodes_visited,
            mults,
        }
    }

    #[test]
    fn counter_is_monotone() {
        let before = ops_total().cd_queries;
        record_work(&work(3, 0, 0, 0));
        record_work(&work(2, 0, 0, 0));
        // Other tests may run concurrently and bump the counter too, so
        // assert a lower bound only.
        assert!(ops_total().cd_queries >= before + 5);
    }

    #[test]
    fn export_lands_in_registry() {
        record_work(&work(1, 0, 0, 0));
        let r = mp_telemetry::Registry::new();
        export_into(&r);
        assert!(r.counter_value("collision.pose_checks_total").unwrap() >= 1);
    }

    #[test]
    fn work_counters_feed_the_energy_total() {
        let price = |ops: &mp_sim::OpCounter| mp_sim::energy::dynamic_energy_pj(ops);
        let before = ops_total();
        let w = work(0, 10, 4, 81);
        record_work(&w);
        // Concurrent tests only ever add work, so the delta is at least
        // this call's energy.
        assert!(price(&ops_total()) - price(&before) >= w.energy_pj() - 1e-6);
    }
}
