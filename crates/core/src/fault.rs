//! Fault detection and recovery across the CDU array.
//!
//! [`FaultTolerantCduArray`] wraps a CECDU array as a single [`CduModel`]
//! the SAS can dispatch to, injecting hardware faults from a seeded
//! [`FaultPlan`] and recovering per the configured [`RecoveryMode`]:
//!
//! * **Detection** — SRAM parity over each 24-bit node word, structural
//!   traversal checks (undecodable words, out-of-range pointers, read
//!   caps), result-bus parity on verdicts, per-query sequence tags
//!   (catching stuck units replaying stale results), a dispatch watchdog
//!   (catching dropped results), and the sticky saturation flag.
//! * **Recovery** — a detected fault re-dispatches the query to a
//!   different unit, up to [`MAX_REDISPATCHES`] times; a unit accumulating
//!   [`QUARANTINE_STRIKES`] detections is quarantined
//!   (never the last healthy unit). When the budget runs out the query is
//!   resolved conservatively: *collision wins*.
//! * **Voter** — [`RecoveryMode::DetectRetryVoter`] additionally
//!   spot-checks a fraction of *free* verdicts against the software
//!   oracle, promoting free → collision on disagreement (conservative:
//!   the voter can add false positives but never a false negative).
//!
//! Every query is also evaluated on a clean (fault-free) reference model
//! purely for classification: undetected faults whose verdict still came
//! out right are **masked**, undetected wrong verdicts **escaped**. With
//! detection enabled every modeled fault kind is covered by a mechanism,
//! so escapes — and in particular wrong-free **false negatives** — are
//! structurally zero; the fault campaign in `mp-bench` asserts this.

use mp_collision::{CollisionChecker, SoftwareChecker};
use mp_robot::JointConfig;
use mp_sim::fault::FaultKind;
use mp_sim::{FaultInjector, FaultPlan, OpCounter, ResilienceCounters};

use crate::cecdu::CecduSim;
use crate::sas::{CduModel, CduResponse};

/// Scheduler cycles to hand a detected-faulty query to another unit.
pub const REDISPATCH_CYCLES: u64 = 4;

/// Cycles a stuck unit takes to replay its stale latched result.
pub const STUCK_REPLAY_CYCLES: u64 = 4;

/// Re-dispatches allowed per query before the conservative fallback.
pub const MAX_REDISPATCHES: u32 = 3;

/// Detections charged to one unit before it is quarantined.
pub const QUARANTINE_STRIKES: u32 = 3;

/// Latency multiplier for [`FaultKind::SlowUnit`] events.
pub const SLOW_FACTOR: u64 = 4;

/// Cycles the watchdog waits before declaring a result dropped.
pub const WATCHDOG_CYCLES: u64 = 512;

/// In voter mode, every `VOTER_PERIOD`-th free verdict is oracle-checked.
pub const VOTER_PERIOD: u64 = 4;

/// How the system responds to hardware faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RecoveryMode {
    /// No detection hardware: faults propagate (structural traversal
    /// checks still fire — the decoder physically cannot follow a
    /// reserved occupancy pattern or an out-of-range pointer).
    None,
    /// Detection plus bounded re-dispatch and quarantine.
    #[default]
    DetectRetry,
    /// [`RecoveryMode::DetectRetry`] plus the software-oracle spot-check
    /// voter on free verdicts.
    DetectRetryVoter,
}

impl RecoveryMode {
    /// Whether detection hardware (parity, tags, watchdog, flags) is on.
    pub fn detection(self) -> bool {
        !matches!(self, RecoveryMode::None)
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryMode::None => "no-recovery",
            RecoveryMode::DetectRetry => "detect+retry",
            RecoveryMode::DetectRetryVoter => "detect+retry+voter",
        }
    }
}

/// Per-unit health state.
#[derive(Clone, Copy, Debug, Default)]
struct UnitState {
    strikes: u32,
    quarantined: bool,
    stuck: bool,
    last_verdict: Option<bool>,
}

/// A fault-injected CECDU array with detection, re-dispatch, quarantine,
/// and an optional oracle voter, usable anywhere a
/// [`CduModel`] is expected.
///
/// The clean reference evaluation used to classify verdicts is an
/// accounting device, not simulated hardware: its work is excluded from
/// the reported latency and [`OpCounter`]s.
///
/// # Examples
///
/// ```
/// use mp_octree::{Scene, SceneConfig};
/// use mp_robot::RobotModel;
/// use mp_sim::{CecduConfig, FaultPlan, IuKind};
/// use mpaccel_core::cecdu::CecduSim;
/// use mpaccel_core::fault::{FaultTolerantCduArray, RecoveryMode};
/// use mpaccel_core::sas::CduModel;
///
/// let scene = Scene::random(SceneConfig::paper(), 0);
/// let sim = CecduSim::new(
///     RobotModel::jaco2(),
///     scene.octree(),
///     CecduConfig::new(4, IuKind::MultiCycle),
/// );
/// let mut array = FaultTolerantCduArray::new(
///     sim,
///     4,
///     FaultPlan::uniform(0.05, 11),
///     RecoveryMode::DetectRetry,
/// );
/// let home = array.sim().robot().home();
/// let _resp = array.query(&home);
/// // Detection may fall back to "collision wins", but never a wrong free.
/// assert_eq!(array.counters().false_negatives, 0);
/// assert_eq!(array.counters().escaped, 0);
/// ```
pub struct FaultTolerantCduArray {
    sim: CecduSim,
    oracle: Option<SoftwareChecker>,
    injector: FaultInjector,
    mode: RecoveryMode,
    units: Vec<UnitState>,
    next_unit: usize,
    free_verdicts_seen: u64,
}

impl FaultTolerantCduArray {
    /// Creates an array of `num_units` CECDUs sharing one hardware model.
    /// Voter mode builds its software oracle from the sim's robot and
    /// octree.
    ///
    /// # Panics
    ///
    /// Panics if `num_units == 0`.
    pub fn new(
        sim: CecduSim,
        num_units: usize,
        plan: FaultPlan,
        mode: RecoveryMode,
    ) -> FaultTolerantCduArray {
        assert!(num_units > 0, "the array needs at least one unit");
        let oracle = (mode == RecoveryMode::DetectRetryVoter)
            .then(|| SoftwareChecker::new(sim.robot().clone(), sim.octree().clone()));
        FaultTolerantCduArray {
            sim,
            oracle,
            injector: FaultInjector::new(plan),
            mode,
            units: vec![UnitState::default(); num_units],
            next_unit: 0,
            free_verdicts_seen: 0,
        }
    }

    /// The underlying CECDU model.
    pub fn sim(&self) -> &CecduSim {
        &self.sim
    }

    /// The recovery mode.
    pub fn mode(&self) -> RecoveryMode {
        self.mode
    }

    /// The resilience counters accumulated so far.
    pub fn counters(&self) -> &ResilienceCounters {
        self.injector.counters()
    }

    /// Zeroes the resilience counters (unit health is kept).
    pub fn reset_counters(&mut self) {
        self.injector.reset_counters();
    }

    /// Units currently not quarantined.
    pub fn healthy_units(&self) -> usize {
        self.units.iter().filter(|u| !u.quarantined).count()
    }

    /// Round-robin over healthy units, skipping `avoid` when another
    /// healthy unit exists.
    fn pick_unit(&mut self, avoid: Option<usize>) -> usize {
        let n = self.units.len();
        for k in 0..n {
            let u = (self.next_unit + k) % n;
            if self.units[u].quarantined {
                continue;
            }
            if avoid == Some(u) && self.healthy_units() > 1 {
                continue;
            }
            self.next_unit = (u + 1) % n;
            return u;
        }
        // All units quarantined is unreachable: quarantine preserves one
        // healthy unit. Fall back defensively to unit 0.
        0
    }

    /// Charges a detection to a unit, quarantining it after the strike
    /// budget — unless it is the last healthy unit.
    fn strike(&mut self, u: usize) {
        self.units[u].strikes += 1;
        if self.units[u].strikes >= QUARANTINE_STRIKES
            && !self.units[u].quarantined
            && self.healthy_units() > 1
        {
            self.units[u].quarantined = true;
            self.injector.counters_mut().quarantined += 1;
        }
    }
}

/// One dispatch attempt's outcome, before recovery decides what to do.
struct Attempt {
    colliding: bool,
    cycles: u64,
    ops: OpCounter,
    /// Any fault touched this attempt (even if undetected).
    faulty: bool,
    /// A detection mechanism fired.
    detected: bool,
    /// The verdict was resolved conservatively inside the unit
    /// (structural detection fallback), i.e. deliberately, not silently.
    conservative: bool,
}

impl FaultTolerantCduArray {
    /// Evaluates one attempt on unit `u`, applying unit- and bus-level
    /// faults around the CECDU-level injection.
    fn attempt(&mut self, u: usize, pose: &JointConfig) -> Attempt {
        let detection = self.mode.detection();

        if self.injector.fires(FaultKind::StuckUnit) {
            self.units[u].stuck = true;
        }

        let mut a = if self.units[u].stuck {
            // The latched unit replays its previous result instead of
            // evaluating the dispatched pose.
            match self.units[u].last_verdict {
                Some(stale) => Attempt {
                    colliding: stale,
                    cycles: STUCK_REPLAY_CYCLES,
                    ops: OpCounter::default(),
                    faulty: true,
                    // The replayed result carries the previous query's
                    // sequence tag.
                    detected: detection,
                    conservative: false,
                },
                // Nothing latched yet: the unit never answers, which is a
                // dropped result (handled by the watchdog below).
                None => Attempt {
                    colliding: false,
                    cycles: WATCHDOG_CYCLES,
                    ops: OpCounter::default(),
                    faulty: true,
                    detected: detection,
                    conservative: false,
                },
            }
        } else {
            let f = self
                .sim
                .check_pose_with_faults(pose, &mut self.injector, detection);
            self.units[u].last_verdict = Some(f.result.colliding);
            Attempt {
                colliding: f.result.colliding,
                cycles: f.result.cycles,
                ops: f.result.ops,
                faulty: f.faults_injected > 0 || f.detected,
                detected: f.detected,
                // Structural detections resolve conservatively in-unit.
                conservative: f.detected,
            }
        };

        if self.injector.fires(FaultKind::SlowUnit) {
            a.faulty = true;
            a.cycles *= SLOW_FACTOR;
        }
        if self.injector.fires(FaultKind::CorruptedVerdict) {
            a.faulty = true;
            a.colliding = !a.colliding;
            if detection {
                a.detected = true; // result-bus parity mismatch
            }
        }
        if self.injector.fires(FaultKind::DroppedResult) {
            a.faulty = true;
            if detection {
                // The watchdog times out and flags the dispatch slot.
                a.cycles += WATCHDOG_CYCLES;
                a.detected = true;
            } else {
                // The result silently never arrives; the scheduler's
                // dispatch slot is reclaimed with the default "free"
                // verdict — the false-negative source of this study.
                a.colliding = false;
                a.conservative = false;
            }
        }
        a
    }
}

impl CduModel for FaultTolerantCduArray {
    fn query(&mut self, pose: &JointConfig) -> CduResponse {
        self.injector.counters_mut().queries += 1;
        // Clean reference for classification only (no ops/latency).
        let clean = self.sim.check_pose(pose).colliding;
        let detection = self.mode.detection();

        let mut latency = 0u64;
        let mut ops = OpCounter::default();
        let mut redispatches = 0u32;
        let mut last_unit: Option<usize> = None;
        let (mut verdict, mut deliberate, final_attempt) = loop {
            let u = self.pick_unit(last_unit);
            last_unit = Some(u);
            let a = self.attempt(u, pose);
            latency += a.cycles;
            ops += a.ops;
            if a.detected {
                self.injector.counters_mut().detected += 1;
                self.strike(u);
                if detection && redispatches < MAX_REDISPATCHES {
                    redispatches += 1;
                    self.injector.counters_mut().redispatches += 1;
                    latency += REDISPATCH_CYCLES;
                    continue;
                }
                // Budget exhausted (or no retry hardware): collision wins.
                self.injector.counters_mut().conservative_promotions += 1;
                break (true, true, a);
            }
            break (a.colliding, a.conservative, a);
        };

        // Voter: spot-check free verdicts against the software oracle,
        // promoting only free -> collision (conservative by construction).
        if !verdict && self.mode == RecoveryMode::DetectRetryVoter {
            self.free_verdicts_seen += 1;
            if self.free_verdicts_seen.is_multiple_of(VOTER_PERIOD) {
                if let Some(oracle) = self.oracle.as_mut() {
                    self.injector.counters_mut().oracle_checks += 1;
                    if oracle.check_pose(pose) {
                        self.injector.counters_mut().oracle_overrides += 1;
                        verdict = true;
                        deliberate = true;
                    }
                }
            }
        }

        // Classification against the clean reference.
        let c = self.injector.counters_mut();
        if verdict == clean {
            if final_attempt.faulty && !final_attempt.detected {
                c.masked += 1;
            }
        } else {
            if verdict {
                c.false_positives += 1;
            } else {
                c.false_negatives += 1;
            }
            if !deliberate {
                c.escaped += 1;
            }
        }

        CduResponse {
            colliding: verdict,
            latency: latency.max(1),
            ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sas::{run_sas, FunctionMode, SasConfig};
    use mp_octree::{Scene, SceneConfig};
    use mp_robot::{Motion, RobotModel};
    use mp_sim::{CecduConfig, IuKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sim(seed: u64) -> CecduSim {
        CecduSim::new(
            RobotModel::jaco2(),
            Scene::random(SceneConfig::paper(), seed).octree(),
            CecduConfig::new(4, IuKind::MultiCycle),
        )
    }

    fn poses(n: usize, seed: u64) -> Vec<JointConfig> {
        let robot = RobotModel::jaco2();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| robot.sample_config(&mut rng)).collect()
    }

    #[test]
    fn fault_free_array_matches_clean_sim() {
        let s = sim(0);
        let mut array =
            FaultTolerantCduArray::new(s.clone(), 4, FaultPlan::none(1), RecoveryMode::DetectRetry);
        for pose in poses(40, 2) {
            let resp = array.query(&pose);
            assert_eq!(resp.colliding, s.check_pose(&pose).colliding);
        }
        let c = *array.counters();
        assert_eq!(c.queries, 40);
        assert_eq!(c.injected_total(), 0);
        assert_eq!(c.detected, 0);
        assert_eq!(c.escaped, 0);
        assert_eq!(c.false_negatives, 0);
        assert_eq!(c.false_positives, 0);
    }

    #[test]
    fn detection_keeps_false_negatives_at_zero() {
        for mode in [RecoveryMode::DetectRetry, RecoveryMode::DetectRetryVoter] {
            let mut array =
                FaultTolerantCduArray::new(sim(1), 4, FaultPlan::uniform(0.05, 7), mode);
            for pose in poses(120, 3) {
                let _ = array.query(&pose);
            }
            let c = *array.counters();
            assert!(c.injected_total() > 0, "campaign injected nothing");
            assert!(c.detected > 0, "nothing detected at 5% rates");
            assert_eq!(c.escaped, 0, "{mode:?} let a fault escape");
            assert_eq!(c.false_negatives, 0, "{mode:?} delivered a wrong free");
        }
    }

    #[test]
    fn no_recovery_mode_lets_faults_escape() {
        let mut array = FaultTolerantCduArray::new(
            sim(2),
            4,
            // Dropped results and corrupted verdicts are the silent
            // killers without detection hardware.
            FaultPlan::none(9)
                .with_rate(FaultKind::DroppedResult, 0.15)
                .with_rate(FaultKind::CorruptedVerdict, 0.15),
            RecoveryMode::None,
        );
        for pose in poses(200, 4) {
            let _ = array.query(&pose);
        }
        let c = *array.counters();
        assert!(c.injected_total() > 0);
        assert!(
            c.escaped > 0,
            "undetected drops/corruptions must escape: {c:?}"
        );
        assert!(c.false_negatives + c.false_positives > 0);
        assert_eq!(c.redispatches, 0, "no retry hardware in None mode");
    }

    #[test]
    fn stuck_unit_is_quarantined_but_never_the_last_one() {
        let mut array = FaultTolerantCduArray::new(
            sim(3),
            2,
            FaultPlan::none(5).with_rate(FaultKind::StuckUnit, 0.35),
            RecoveryMode::DetectRetry,
        );
        for pose in poses(150, 6) {
            let _ = array.query(&pose);
        }
        let c = *array.counters();
        assert!(c.injected(FaultKind::StuckUnit) > 0);
        assert!(array.healthy_units() >= 1, "quarantine emptied the array");
        assert!(c.quarantined <= 1, "only one of two units may be benched");
        assert_eq!(c.false_negatives, 0);
    }

    #[test]
    fn voter_spot_checks_free_verdicts() {
        let mut array = FaultTolerantCduArray::new(
            sim(4),
            4,
            FaultPlan::uniform(0.02, 3),
            RecoveryMode::DetectRetryVoter,
        );
        for pose in poses(100, 8) {
            let _ = array.query(&pose);
        }
        let c = *array.counters();
        assert!(c.oracle_checks > 0, "voter never consulted the oracle");
        assert_eq!(c.false_negatives, 0);
    }

    #[test]
    fn faulty_array_drives_sas_batches() {
        let robot = RobotModel::jaco2();
        let mut rng = StdRng::seed_from_u64(31);
        let motions: Vec<_> = (0..4)
            .map(|_| {
                Motion::new(robot.sample_config(&mut rng), robot.sample_config(&mut rng))
                    .descriptor(0.1)
            })
            .collect();
        let mut array = FaultTolerantCduArray::new(
            sim(5),
            8,
            FaultPlan::uniform(0.01, 13),
            RecoveryMode::DetectRetry,
        );
        let r = run_sas(
            &motions,
            FunctionMode::Complete,
            &SasConfig::mcsp(8),
            &mut array,
        );
        assert!(r.motion_results.iter().all(Option::is_some));
        assert_eq!(array.counters().false_negatives, 0);
    }

    #[test]
    fn runs_are_deterministic_given_a_seed() {
        let run = || {
            let mut array = FaultTolerantCduArray::new(
                sim(6),
                4,
                FaultPlan::uniform(0.04, 21),
                RecoveryMode::DetectRetry,
            );
            let mut verdicts = Vec::new();
            for pose in poses(60, 9) {
                verdicts.push(array.query(&pose).colliding);
            }
            (verdicts, *array.counters())
        };
        let (va, ca) = run();
        let (vb, cb) = run();
        assert_eq!(va, vb);
        assert_eq!(ca, cb);
    }

    #[test]
    fn retries_cost_latency_and_energy() {
        let clean_run = || {
            let mut array = FaultTolerantCduArray::new(
                sim(7),
                4,
                FaultPlan::none(2),
                RecoveryMode::DetectRetry,
            );
            let mut cycles = 0u64;
            let mut mults = 0u64;
            for pose in poses(60, 10) {
                let r = array.query(&pose);
                cycles += r.latency;
                mults += r.ops.mults;
            }
            (cycles, mults)
        };
        let faulty_run = || {
            let mut array = FaultTolerantCduArray::new(
                sim(7),
                4,
                FaultPlan::uniform(0.08, 2),
                RecoveryMode::DetectRetry,
            );
            let mut cycles = 0u64;
            let mut mults = 0u64;
            for pose in poses(60, 10) {
                let r = array.query(&pose);
                cycles += r.latency;
                mults += r.ops.mults;
            }
            assert!(array.counters().redispatches > 0);
            (cycles, mults)
        };
        let (c0, _m0) = clean_run();
        let (c1, m1) = faulty_run();
        assert!(c1 > c0, "faulty campaign not slower: {c1} vs {c0}");
        assert!(m1 > 0);
    }
}
