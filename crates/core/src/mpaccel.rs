//! The full MPAccel system model (Fig 11): controller + DNN accelerator +
//! bus + SAS + CECDU array.

use mp_octree::Octree;
use mp_robot::RobotModel;
use mp_sim::{EnergyLedger, MpaccelConfig, OpCounter};

use crate::cecdu::CecduSim;
use crate::sas::{run_sas, CecduCdu, SasConfig};
use crate::trace::{PlannerTrace, TraceEvent};

/// System-level parameters (§5, §7.4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    /// The accelerator configuration (CECDU count and type).
    pub accel: MpaccelConfig,
    /// DNN accelerator throughput in TOPS (§7.4: 12 TOPS, an edge-TPU
    /// class device).
    pub dnn_tops: f64,
    /// Bus bandwidth in GB/s (§5: 5 GB/s, achievable over PCIe).
    pub bus_gbps: f64,
    /// Controller clock in GHz (a simple CPU core, §5).
    pub controller_ghz: f64,
}

impl SystemConfig {
    /// The paper's headline system: 16 CECDUs × 4 multi-cycle OOCDs,
    /// 12 TOPS DNN accelerator, 5 GB/s bus, 1 GHz controller.
    pub fn paper_default() -> SystemConfig {
        SystemConfig {
            accel: MpaccelConfig::config1(),
            dnn_tops: 12.0,
            bus_gbps: 5.0,
            controller_ghz: 1.0,
        }
    }

    /// Same system with a different accelerator configuration (Fig 20).
    pub fn with_accel(accel: MpaccelConfig) -> SystemConfig {
        SystemConfig {
            accel,
            ..SystemConfig::paper_default()
        }
    }
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig::paper_default()
    }
}

/// Timing/energy report of one trace replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunReport {
    /// End-to-end time in milliseconds.
    pub total_ms: f64,
    /// Time in DNN inference.
    pub nn_ms: f64,
    /// Time in collision detection (SAS + CECDUs).
    pub cd_ms: f64,
    /// Time in the controller.
    pub controller_ms: f64,
    /// Time on the bus.
    pub bus_ms: f64,
    /// Total CD cycles.
    pub cd_cycles: u64,
    /// CD queries dispatched.
    pub cd_queries: u64,
    /// Accumulated datapath work.
    pub ops: OpCounter,
    /// Accelerator energy in millijoules (power × CD time).
    pub accel_energy_mj: f64,
    /// Bottom-up dynamic datapath energy in microjoules (per-operation
    /// energies × operation counts; see `mp_sim::energy`). Cross-checks
    /// the top-down `accel_energy_mj` figure.
    pub datapath_energy_uj: f64,
}

/// The MPAccel system bound to a robot and environment.
///
/// # Examples
///
/// ```
/// use mp_octree::{Scene, SceneConfig};
/// use mp_robot::{Motion, RobotModel};
/// use mpaccel_core::mpaccel::{MpAccelSystem, SystemConfig};
/// use mpaccel_core::sas::FunctionMode;
/// use mpaccel_core::trace::{PlannerTrace, TraceEvent};
///
/// let robot = RobotModel::baxter();
/// let scene = Scene::random(SceneConfig::paper(), 0);
/// let sys = MpAccelSystem::new(robot.clone(), scene.octree(), SystemConfig::paper_default());
///
/// let mut home2 = robot.home();
/// home2.as_mut_slice()[0] += 0.5;
/// let mut trace = PlannerTrace::new();
/// trace.push(TraceEvent::NnInference { macs: 1_000_000 });
/// trace.push(TraceEvent::CdBatch {
///     motions: vec![Motion::new(robot.home(), home2).descriptor(0.04)],
///     mode: FunctionMode::Complete,
/// });
/// let report = sys.run_trace(&trace);
/// assert!(report.total_ms > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct MpAccelSystem {
    // The CECDU every `CdBatch` dispatches to, built once per environment.
    cecdu: CecduSim,
    config: SystemConfig,
    sas: SasConfig,
}

impl MpAccelSystem {
    /// Creates the system with the proposed MCSP scheduler sized to the
    /// accelerator's CECDU count.
    pub fn new(robot: RobotModel, octree: Octree, config: SystemConfig) -> MpAccelSystem {
        let sas = SasConfig::mcsp(config.accel.cecdus);
        MpAccelSystem {
            cecdu: CecduSim::new(robot, octree, config.accel.cecdu),
            config,
            sas,
        }
    }

    /// Overrides the scheduler configuration (for policy comparisons).
    pub fn with_scheduler(mut self, sas: SasConfig) -> MpAccelSystem {
        self.sas = sas;
        self
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Replaces the environment octree (sensor update path, Fig 11 step 1).
    pub fn set_octree(&mut self, octree: Octree) {
        self.cecdu.set_octree(octree);
    }

    /// Replays a planner trace against the hardware models and returns the
    /// timing/energy report.
    pub fn run_trace(&self, trace: &PlannerTrace) -> RunReport {
        self.run_trace_ledgered(trace).0
    }

    /// [`MpAccelSystem::run_trace`] with per-subsystem energy attribution.
    ///
    /// The returned [`EnergyLedger`] bills each trace event's datapath work
    /// to a scope — `"nn"` (MLP MACs on the DNN accelerator), `"bus"`
    /// (off-chip DRAM bytes moved) and `"cd"` (SAS + CECDU array ops) — so
    /// `ledger.total_energy_pj()` equals the report's bottom-up
    /// `datapath_energy_uj` figure by construction (integer op counters are
    /// summed before pricing; see `mp_sim::ledger`).
    pub fn run_trace_ledgered(&self, trace: &PlannerTrace) -> (RunReport, EnergyLedger) {
        // Cold per-trace span: always compiled (a trace replay is not a hot
        // kernel), no-op unless a telemetry sink is installed.
        let tele_span = mp_telemetry::span_args(
            "core",
            "run_trace",
            mp_telemetry::arg1(
                "events",
                mp_telemetry::ArgValue::U64(trace.events.len() as u64),
            ),
        );
        let clock = self.config.accel.cecdu.iu.clock();
        let mut report = RunReport::default();
        let mut ledger = EnergyLedger::new();
        // One CDU serves every batch, so a pose re-validated in a later
        // batch is answered from its cache.
        let mut cdu = CecduCdu::new(&self.cecdu);

        for event in &trace.events {
            match event {
                TraceEvent::NnInference { macs } => {
                    // 1 MAC = 2 ops; TOPS = 1e12 ops/s.
                    let s = (*macs as f64 * 2.0) / (self.config.dnn_tops * 1e12);
                    report.nn_ms += s * 1e3;
                    let ops = OpCounter {
                        mlp_macs: *macs,
                        ..OpCounter::default()
                    };
                    report.ops += ops;
                    ledger.bill("nn", ops);
                }
                TraceEvent::Controller { instructions } => {
                    let s = *instructions as f64 / (self.config.controller_ghz * 1e9);
                    report.controller_ms += s * 1e3;
                }
                TraceEvent::BusTransfer { bytes } => {
                    let s = *bytes as f64 / (self.config.bus_gbps * 1e9);
                    report.bus_ms += s * 1e3;
                    let ops = OpCounter {
                        dram_bytes: *bytes,
                        ..OpCounter::default()
                    };
                    report.ops += ops;
                    ledger.bill("bus", ops);
                }
                TraceEvent::CdBatch { motions, mode } => {
                    if motions.is_empty() {
                        continue;
                    }
                    let r = run_sas(motions, *mode, &self.sas, &mut cdu);
                    report.cd_cycles += r.cycles;
                    report.cd_queries += r.queries;
                    report.ops += r.ops;
                    ledger.bill("cd", r.ops);
                    report.cd_ms += clock.cycles_to_ms(r.cycles);
                }
            }
        }

        report.total_ms = report.nn_ms + report.cd_ms + report.controller_ms + report.bus_ms;
        report.accel_energy_mj = self.config.accel.area_power().power_w * report.cd_ms; // mJ = W × ms
        report.datapath_energy_uj = mp_sim::energy::dynamic_energy_uj(&report.ops);
        tele_span.end_with(|| {
            mp_telemetry::arg2(
                "cd_cycles",
                mp_telemetry::ArgValue::U64(report.cd_cycles),
                "cd_queries",
                mp_telemetry::ArgValue::U64(report.cd_queries),
            )
        });
        (report, ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sas::FunctionMode;
    use mp_octree::{Scene, SceneConfig};
    use mp_robot::Motion;
    use mp_sim::{CecduConfig, IuKind, MpaccelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn demo_trace(robot: &RobotModel, seed: u64, motions: usize) -> PlannerTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = PlannerTrace::new();
        t.push(TraceEvent::NnInference { macs: 3_000_000 });
        t.push(TraceEvent::BusTransfer { bytes: 4096 });
        t.push(TraceEvent::Controller {
            instructions: 2_000,
        });
        let batch: Vec<_> = (0..motions)
            .map(|_| {
                Motion::new(robot.sample_config(&mut rng), robot.sample_config(&mut rng))
                    .descriptor(0.05)
            })
            .collect();
        t.push(TraceEvent::CdBatch {
            motions: batch,
            mode: FunctionMode::Complete,
        });
        t.solved = true;
        t
    }

    #[test]
    fn report_components_sum() {
        let robot = RobotModel::baxter();
        let sys = MpAccelSystem::new(
            robot.clone(),
            Scene::random(SceneConfig::paper(), 0).octree(),
            SystemConfig::paper_default(),
        );
        let r = sys.run_trace(&demo_trace(&robot, 1, 4));
        let sum = r.nn_ms + r.cd_ms + r.controller_ms + r.bus_ms;
        assert!((r.total_ms - sum).abs() < 1e-12);
        assert!(r.cd_ms > 0.0 && r.nn_ms > 0.0);
        assert!(r.accel_energy_mj > 0.0);
    }

    #[test]
    fn cd_dominates_nn_as_profiled() {
        // §2.1: NN inference is ~2% and collision detection ~95% of MPNet
        // time on CPU-GPU; on MPAccel CD still dominates the NN share.
        let robot = RobotModel::baxter();
        let sys = MpAccelSystem::new(
            robot.clone(),
            Scene::random(SceneConfig::paper(), 3).octree(),
            SystemConfig::paper_default(),
        );
        let r = sys.run_trace(&demo_trace(&robot, 2, 8));
        assert!(r.cd_ms > r.nn_ms);
    }

    #[test]
    fn more_cecdus_reduce_cd_time() {
        let robot = RobotModel::baxter();
        let tree = Scene::random(SceneConfig::paper(), 5).octree();
        let trace = demo_trace(&robot, 3, 8);
        let small = MpAccelSystem::new(
            robot.clone(),
            tree.clone(),
            SystemConfig::with_accel(MpaccelConfig::new(
                2,
                CecduConfig::new(4, IuKind::MultiCycle),
            )),
        )
        .run_trace(&trace);
        let big = MpAccelSystem::new(
            robot.clone(),
            tree,
            SystemConfig::with_accel(MpaccelConfig::new(
                16,
                CecduConfig::new(4, IuKind::MultiCycle),
            )),
        )
        .run_trace(&trace);
        assert!(big.cd_ms < small.cd_ms, "{} !< {}", big.cd_ms, small.cd_ms);
    }

    #[test]
    fn realtime_budget_for_modest_queries() {
        // A single-batch query should land well under the 1 ms actuator
        // budget (§7.4) on the headline configuration.
        let robot = RobotModel::baxter();
        let sys = MpAccelSystem::new(
            robot.clone(),
            Scene::random(SceneConfig::paper(), 7).octree(),
            SystemConfig::paper_default(),
        );
        let r = sys.run_trace(&demo_trace(&robot, 9, 6));
        assert!(r.total_ms < 1.0, "took {} ms", r.total_ms);
    }

    #[test]
    fn ledgered_replay_conserves_datapath_energy() {
        let robot = RobotModel::baxter();
        let sys = MpAccelSystem::new(
            robot.clone(),
            Scene::random(SceneConfig::paper(), 2).octree(),
            SystemConfig::paper_default(),
        );
        let (r, ledger) = sys.run_trace_ledgered(&demo_trace(&robot, 4, 4));
        // Every billed op landed in exactly one scope, so the ledger's
        // integer totals match the report's and the energy is bit-exact.
        assert_eq!(ledger.total_ops(), r.ops);
        assert_eq!(
            ledger.total_energy_pj(),
            mp_sim::energy::dynamic_energy_pj(&r.ops)
        );
        assert!(ledger.scope_energy_pj("nn").unwrap() > 0.0);
        assert!(ledger.scope_energy_pj("bus").unwrap() > 0.0);
        assert!(ledger.scope_energy_pj("cd").unwrap() > 0.0);
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let robot = RobotModel::jaco2();
        let sys = MpAccelSystem::new(
            robot,
            Scene::random(SceneConfig::paper(), 0).octree(),
            SystemConfig::paper_default(),
        );
        let r = sys.run_trace(&PlannerTrace::new());
        assert_eq!(r.total_ms, 0.0);
        assert_eq!(r.cd_queries, 0);
    }
}
