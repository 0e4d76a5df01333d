//! Shared machinery: replaying CD batches through SAS under different
//! scheduler configurations and CDU models.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use mp_collision::pose_cache::FnvHasher;
use mp_collision::{PoseKey, SoftwareChecker};
use mp_robot::JointConfig;
use mp_sim::{CecduConfig, OpCounter};
use mpaccel_core::cecdu::CecduSim;
use mpaccel_core::sas::{run_sas, CduModel, CduResponse, CecduCdu, IdealCdu, SasConfig};

use crate::workloads::BenchWorkload;

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

/// A CDU wrapper that consults the memo before the wrapped model.
struct MemoCdu<'a, M> {
    inner: M,
    scene: usize,
    map: &'a mut HashMap<MemoKey, CduResponse, BuildHasherDefault<FnvHasher>>,
}

impl<M: CduModel> CduModel for MemoCdu<'_, M> {
    fn query(&mut self, pose: &JointConfig) -> CduResponse {
        // A pose the key cannot hold bypasses the memo.
        let Some(key) = PoseKey::new(pose) else {
            return self.inner.query(pose);
        };
        let key = (self.scene, key);
        if let Some(r) = self.map.get(&key) {
            return *r;
        }
        let r = self.inner.query(pose);
        self.map.insert(key, r);
        r
    }
}

/// Replays every batch of the workload through SAS with the given
/// scheduler configuration and CDU kind, summing cycles and queries.
///
/// `max_batches` bounds the replay (0 = no bound) so quick-scale runs stay
/// fast; the same bound must be used for every configuration being
/// compared.
pub fn replay(
    workload: &BenchWorkload,
    sas: &SasConfig,
    cdu: CduKind,
    max_batches: usize,
) -> SasAggregate {
    replay_inner(workload, sas, cdu, max_batches, None, None)
}

/// Like [`replay`] with the memo's [`CduKind`], answering pose queries
/// through a shared [`ReplayMemo`] so configuration sweeps over the same
/// batches pay for each distinct pose only once. `mode_override` replaces
/// every batch's function mode (the §3 limit study uses Complete
/// semantics to isolate scheduling redundancy from function-mode early
/// stops).
pub fn replay_memo(
    workload: &BenchWorkload,
    sas: &SasConfig,
    max_batches: usize,
    mode_override: Option<mpaccel_core::sas::FunctionMode>,
    memo: &mut ReplayMemo,
) -> SasAggregate {
    let cdu = memo.cdu;
    replay_inner(workload, sas, cdu, max_batches, mode_override, Some(memo))
}

fn replay_inner(
    workload: &BenchWorkload,
    sas: &SasConfig,
    cdu: CduKind,
    max_batches: usize,
    mode_override: Option<mpaccel_core::sas::FunctionMode>,
    mut memo: Option<&mut ReplayMemo>,
) -> SasAggregate {
    let mut agg = SasAggregate::default();
    let limit = if max_batches == 0 {
        workload.batches.len()
    } else {
        max_batches.min(workload.batches.len())
    };
    for batch in &workload.batches[..limit] {
        let mode = mode_override.unwrap_or(batch.mode);
        let r = match cdu {
            CduKind::Ideal => {
                let checker = SoftwareChecker::new(
                    workload.robot.clone(),
                    workload.octree_ref(batch.scene).clone(),
                );
                let model = IdealCdu::new(checker);
                match memo.as_deref_mut() {
                    Some(m) => {
                        let mut model = MemoCdu {
                            inner: model,
                            scene: batch.scene,
                            map: &mut m.map,
                        };
                        run_sas(&batch.motions, mode, sas, &mut model)
                    }
                    None => {
                        let mut model = model;
                        run_sas(&batch.motions, mode, sas, &mut model)
                    }
                }
            }
            CduKind::Cecdu(cfg) => {
                let sim = CecduSim::new(
                    workload.robot.clone(),
                    workload.octree_ref(batch.scene).clone(),
                    cfg,
                );
                let model = CecduCdu::new(&sim);
                match memo.as_deref_mut() {
                    Some(m) => {
                        let mut model = MemoCdu {
                            inner: model,
                            scene: batch.scene,
                            map: &mut m.map,
                        };
                        run_sas(&batch.motions, mode, sas, &mut model)
                    }
                    None => {
                        let mut model = model;
                        run_sas(&batch.motions, mode, sas, &mut model)
                    }
                }
            }
        };
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

    #[test]
    fn replay_aggregates_consistently() {
        let w = BenchWorkload::cached(RobotModel::jaco2(), Scale::Quick);
        let seq = replay(&w, &SasConfig::sequential(), CduKind::Ideal, 10);
        assert!(seq.cycles > 0 && seq.queries > 0);
        let np = replay(
            &w,
            &SasConfig::naive_parallel(8).idealized(),
            CduKind::Ideal,
            10,
        );
        assert!(np.speedup_vs(&seq) > 1.0);
        assert!(np.energy_vs(&seq) >= 1.0);
    }

    #[test]
    fn memoized_replay_is_bit_identical() {
        let w = BenchWorkload::cached(RobotModel::jaco2(), Scale::Quick);
        let cdu = CduKind::Cecdu(CecduConfig::new(4, IuKind::MultiCycle));
        let mut memo = ReplayMemo::new(cdu);
        for cfg in [
            SasConfig::sequential(),
            SasConfig::mcsp(8),
            SasConfig::naive_parallel(4),
        ] {
            let plain = replay(&w, &cfg, cdu, 6);
            let memoized = replay_memo(&w, &cfg, 6, None, &mut memo);
            assert_eq!(plain, memoized, "memo must not change aggregates");
        }
        assert!(!memo.is_empty());
        assert!(memo.len() >= 6, "memo should hold many distinct poses");
    }

    #[test]
    fn cecdu_replay_has_latency() {
        let w = BenchWorkload::cached(RobotModel::jaco2(), Scale::Quick);
        let hw = replay(
            &w,
            &SasConfig::sequential(),
            CduKind::Cecdu(CecduConfig::new(4, IuKind::MultiCycle)),
            4,
        );
        let ideal = replay(&w, &SasConfig::sequential(), CduKind::Ideal, 4);
        assert_eq!(hw.queries, ideal.queries); // same schedule, same work
        assert!(hw.cycles > ideal.cycles); // but real latency
        assert!(hw.ops.mults > 0);
    }
}
