//! Shared machinery: replaying CD batches through SAS under different
//! scheduler configurations and CDU models.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use mp_collision::pose_cache::FnvHasher;
use mp_collision::{PoseKey, SoftwareChecker};
use mp_robot::JointConfig;
use mp_sim::{CecduConfig, OpCounter};
use mpaccel_core::cecdu::CecduSim;
use mpaccel_core::sas::{
    run_sas, CduModel, CduResponse, CecduCdu, FunctionMode, IdealCdu, SasConfig,
};

use crate::workloads::{BenchWorkload, CdBatchSpec};

/// Which collision-detection unit backs the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CduKind {
    /// Idealized 1-cycle CDU over the software oracle (§3 limit study).
    Ideal,
    /// Full cycle-level CECDU model.
    Cecdu(CecduConfig),
}

/// Aggregate result of replaying a workload's batches through SAS.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SasAggregate {
    /// Total scheduler cycles across all batches.
    pub cycles: u64,
    /// Total CD queries dispatched (the paper's energy proxy, §7.1).
    pub queries: u64,
    /// Full per-class operation ledger across all batches (`ops.mults` is
    /// the fine-grained energy proxy; priced by
    /// [`SasAggregate::energy_pj`]).
    pub ops: OpCounter,
}

impl SasAggregate {
    /// Speedup of this run versus a baseline (cycles ratio).
    pub fn speedup_vs(&self, baseline: &SasAggregate) -> f64 {
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Energy (CD-test count) normalized to a baseline.
    pub fn energy_vs(&self, baseline: &SasAggregate) -> f64 {
        self.queries as f64 / baseline.queries.max(1) as f64
    }

    /// Absolute dynamic energy (pJ) of the replay, priced per op class.
    pub fn energy_pj(&self) -> f64 {
        mp_sim::energy::dynamic_energy_pj(&self.ops)
    }

    /// Mean dynamic energy (pJ) per dispatched CD query.
    pub fn pj_per_query(&self) -> f64 {
        self.energy_pj() / self.queries.max(1) as f64
    }
}

/// Memo key: the scene index and the pose's exact key.
type MemoKey = (usize, PoseKey);

/// Memoized per-pose CDU responses shared across replays of one workload.
///
/// The Fig 7/15/16 sweeps replay the *same* batches under dozens of
/// scheduler configurations; a CDU answers a pose query as a pure function
/// of `(scene, pose)` for a fixed CDU kind ([`CecduSim::check_pose`] takes
/// `&self`, and the ideal CDU's verdict/ops depend on the pose alone), so
/// the response is computed once per distinct pose and reused across every
/// configuration. Aggregates are bit-identical to the unmemoized replay —
/// the scheduler decides *which* poses are queried, the memo only skips
/// recomputing answers it has already produced.
pub struct ReplayMemo {
    cdu: CduKind,
    map: HashMap<MemoKey, CduResponse, BuildHasherDefault<FnvHasher>>,
}

impl ReplayMemo {
    /// Creates an empty memo for one CDU kind; every replay through it
    /// runs that kind (different CDU configurations answer with different
    /// latencies/ops).
    pub fn new(cdu: CduKind) -> ReplayMemo {
        ReplayMemo {
            cdu,
            map: HashMap::default(),
        }
    }

    /// Distinct `(scene, pose)` queries answered so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no query has been answered yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A CDU wrapper that answers the poses the memo holds and records the
/// rest in it; without a memo it is the wrapped model.
struct MemoCdu<'a, M> {
    inner: M,
    scene: usize,
    map: Option<&'a mut HashMap<MemoKey, CduResponse, BuildHasherDefault<FnvHasher>>>,
}

impl<M: CduModel> CduModel for MemoCdu<'_, M> {
    fn query(&mut self, pose: &JointConfig) -> CduResponse {
        // A pose the key cannot hold bypasses the memo.
        let (Some(map), Some(key)) = (self.map.as_deref_mut(), PoseKey::new(pose)) else {
            return self.inner.query(pose);
        };
        *map.entry((self.scene, key))
            .or_insert_with(|| self.inner.query(pose))
    }
}

/// Replays `batches` through SAS with the given scheduler configuration
/// and CDU kind, summing cycles and queries. Every configuration being
/// compared must replay the same batches.
pub fn replay(
    workload: &BenchWorkload,
    batches: &[&CdBatchSpec],
    sas: &SasConfig,
    cdu: CduKind,
) -> SasAggregate {
    replay_on(workload, batches, sas, cdu, None, None)
}

/// Like [`replay`] with the memo's [`CduKind`], answering pose queries
/// through a shared [`ReplayMemo`] so configuration sweeps over the same
/// batches pay for each distinct pose only once. `mode_override` replaces
/// every batch's function mode (the §3 limit study uses Complete
/// semantics to isolate scheduling redundancy from function-mode early
/// stops).
pub fn replay_memo(
    workload: &BenchWorkload,
    batches: &[&CdBatchSpec],
    sas: &SasConfig,
    mode_override: Option<FunctionMode>,
    memo: &mut ReplayMemo,
) -> SasAggregate {
    let cdu = memo.cdu;
    replay_on(workload, batches, sas, cdu, mode_override, Some(memo))
}

fn replay_on(
    workload: &BenchWorkload,
    batches: &[&CdBatchSpec],
    sas: &SasConfig,
    cdu: CduKind,
    mode_override: Option<FunctionMode>,
    memo: Option<&mut ReplayMemo>,
) -> SasAggregate {
    match cdu {
        CduKind::Ideal => replay_with(batches, sas, mode_override, memo, |batch| {
            IdealCdu::new(SoftwareChecker::new(
                workload.robot.clone(),
                workload.octree(batch.scene),
            ))
        }),
        CduKind::Cecdu(cfg) => {
            // One CECDU per scene serves every batch: `check_pose` is a
            // pure function of the pose.
            let sims: Vec<CecduSim> = (0..workload.scenes.len())
                .map(|scene| CecduSim::new(workload.robot.clone(), workload.octree(scene), cfg))
                .collect();
            replay_with(batches, sas, mode_override, memo, |batch| {
                CecduCdu::new(&sims[batch.scene])
            })
        }
    }
}

/// The one replay loop: runs each of `batches` through SAS on the CDU
/// `cdu` builds for it (through `memo` when given), summing cycles,
/// queries and ops. `mode_override` replaces every batch's function mode.
pub(crate) fn replay_with<M: CduModel>(
    batches: &[&CdBatchSpec],
    sas: &SasConfig,
    mode_override: Option<FunctionMode>,
    mut memo: Option<&mut ReplayMemo>,
    mut cdu: impl FnMut(&CdBatchSpec) -> M,
) -> SasAggregate {
    let mut agg = SasAggregate::default();
    for batch in batches {
        let mut model = MemoCdu {
            inner: cdu(batch),
            scene: batch.scene,
            map: memo.as_deref_mut().map(|m| &mut m.map),
        };
        let mode = mode_override.unwrap_or(batch.mode);
        let r = run_sas(&batch.motions, mode, sas, &mut model);
        agg.cycles += r.cycles;
        agg.queries += r.queries;
        agg.ops += r.ops;
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;
    use mp_robot::RobotModel;
    use mp_sim::IuKind;

    fn first(w: &BenchWorkload, n: usize) -> Vec<&CdBatchSpec> {
        w.batches.iter().take(n).collect()
    }

    #[test]
    fn replay_aggregates_consistently() {
        let w = BenchWorkload::cached(RobotModel::jaco2(), Scale::Quick);
        let batches = first(&w, 10);
        let seq = replay(&w, &batches, &SasConfig::sequential(), CduKind::Ideal);
        assert!(seq.cycles > 0 && seq.queries > 0);
        let np = replay(
            &w,
            &batches,
            &SasConfig::naive_parallel(8).idealized(),
            CduKind::Ideal,
        );
        assert!(np.speedup_vs(&seq) > 1.0);
        assert!(np.energy_vs(&seq) >= 1.0);
    }

    #[test]
    fn memoized_replay_is_bit_identical() {
        let w = BenchWorkload::cached(RobotModel::jaco2(), Scale::Quick);
        let cdu = CduKind::Cecdu(CecduConfig::new(4, IuKind::MultiCycle));
        let batches = first(&w, 6);
        let mut memo = ReplayMemo::new(cdu);
        for cfg in [
            SasConfig::sequential(),
            SasConfig::mcsp(8),
            SasConfig::naive_parallel(4),
        ] {
            let plain = replay(&w, &batches, &cfg, cdu);
            let memoized = replay_memo(&w, &batches, &cfg, None, &mut memo);
            assert_eq!(plain, memoized, "memo must not change aggregates");
        }
        assert!(!memo.is_empty());
        assert!(memo.len() >= 6, "memo should hold many distinct poses");
    }

    #[test]
    fn cecdu_replay_has_latency() {
        let w = BenchWorkload::cached(RobotModel::jaco2(), Scale::Quick);
        let batches = first(&w, 4);
        let hw = replay(
            &w,
            &batches,
            &SasConfig::sequential(),
            CduKind::Cecdu(CecduConfig::new(4, IuKind::MultiCycle)),
        );
        let ideal = replay(&w, &batches, &SasConfig::sequential(), CduKind::Ideal);
        assert_eq!(hw.queries, ideal.queries); // same schedule, same work
        assert!(hw.cycles > ideal.cycles); // but real latency
        assert!(hw.ops.mults > 0);
    }
}
