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
//!   different unit, up to a bounded budget; a unit accumulating
//!   [`RecoveryPolicy::quarantine_strikes`] detections is quarantined
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
use mp_sim::{
    FaultInjector, FaultPlan, IntegrityCounters, OpCounter, ResilienceCounters, SdcInjector,
    SdcPlan,
};

use crate::cecdu::CecduSim;
use crate::sas::{CduModel, CduResponse};

/// Scheduler cycles to hand a detected-faulty query to another unit.
pub const REDISPATCH_CYCLES: u64 = 4;

/// Cycles a stuck unit takes to replay its stale latched result.
pub const STUCK_REPLAY_CYCLES: u64 = 4;

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

/// Recovery parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// The recovery mode.
    pub mode: RecoveryMode,
    /// Re-dispatches allowed per query before the conservative fallback.
    pub max_redispatches: u32,
    /// Detections charged to one unit before it is quarantined.
    pub quarantine_strikes: u32,
    /// Latency multiplier for [`FaultKind::SlowUnit`] events.
    pub slow_factor: u64,
    /// Cycles the watchdog waits before declaring a result dropped.
    pub watchdog_cycles: u64,
    /// In voter mode, every `voter_period`-th free verdict is
    /// oracle-checked (1 checks every free verdict).
    pub voter_period: u64,
}

impl RecoveryPolicy {
    /// Default parameters for a mode.
    pub fn new(mode: RecoveryMode) -> RecoveryPolicy {
        RecoveryPolicy {
            mode,
            max_redispatches: 3,
            quarantine_strikes: 3,
            slow_factor: 4,
            watchdog_cycles: 512,
            voter_period: 4,
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy::new(RecoveryMode::default())
    }
}

/// Parameters of the silent-fault defense ladder layered on top of
/// [`RecoveryPolicy`]: suspicion-scored duplicate-dispatch voting plus
/// known-answer scrub probes. Kept separate from `RecoveryPolicy` so
/// existing construction sites are untouched; attach it with
/// [`FaultTolerantCduArray::with_integrity`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntegrityPolicy {
    /// Suspicion score at/above which a unit's queries are
    /// duplicate-dispatched to a majority vote.
    pub vote_threshold: u32,
    /// Suspicion charged per certification-failure accusation (and per
    /// vote override).
    pub accuse_weight: u32,
    /// Geometric decay per exoneration: `s -= max(1, s >> decay_shift)`,
    /// so scores decay fast from high values and still reach zero.
    pub decay_shift: u32,
    /// Vote overrides charged to one unit before it is quarantined as a
    /// persistent liar.
    pub liar_strikes: u32,
    /// Consecutive clean known-answer probes before a quarantined unit is
    /// readmitted.
    pub scrub_clean_target: u32,
}

impl Default for IntegrityPolicy {
    fn default() -> IntegrityPolicy {
        IntegrityPolicy {
            vote_threshold: 8,
            accuse_weight: 4,
            decay_shift: 2,
            liar_strikes: 3,
            scrub_clean_target: 4,
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
    queries: u64,
    /// Decayed suspicion score from certify-failure accusations and vote
    /// overrides (see [`IntegrityPolicy`]).
    suspicion: u32,
    /// Vote overrides charged against this unit (the liar evidence).
    lies: u32,
    /// Consecutive clean scrub probes while quarantined.
    scrub_streak: u32,
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
/// use mpaccel_core::fault::{FaultTolerantCduArray, RecoveryMode, RecoveryPolicy};
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
///     RecoveryPolicy::new(RecoveryMode::DetectRetry),
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
    policy: RecoveryPolicy,
    units: Vec<UnitState>,
    next_unit: usize,
    free_verdicts_seen: u64,
    /// Silent-corruption source, when the campaign injects SDC.
    sdc: Option<SdcInjector>,
    /// When set, silent flips only land on this unit (a "lemon lane").
    /// The RNG is still drawn for every attempt so the stream stays
    /// aligned with the uniform-SDC configuration.
    sdc_unit: Option<usize>,
    integrity: IntegrityPolicy,
    /// Defense-side integrity bookkeeping (votes, scrubs); injection-side
    /// counts live in the [`SdcInjector`] and are merged on read.
    icounters: IntegrityCounters,
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
        policy: RecoveryPolicy,
    ) -> FaultTolerantCduArray {
        assert!(num_units > 0, "the array needs at least one unit");
        let oracle = (policy.mode == RecoveryMode::DetectRetryVoter)
            .then(|| SoftwareChecker::new(sim.robot().clone(), sim.octree().clone()));
        FaultTolerantCduArray {
            sim,
            oracle,
            injector: FaultInjector::new(plan),
            policy,
            units: vec![UnitState::default(); num_units],
            next_unit: 0,
            free_verdicts_seen: 0,
            sdc: None,
            sdc_unit: None,
            integrity: IntegrityPolicy::default(),
            icounters: IntegrityCounters::default(),
        }
    }

    /// Attaches a silent-data-corruption plan: delivered verdicts can be
    /// inverted *past* every detection mechanism (the bus parity is
    /// recomputed over the corrupt payload). Only the integrity ladder —
    /// certification, voting, scrub — can catch these.
    pub fn with_sdc(mut self, plan: SdcPlan) -> FaultTolerantCduArray {
        self.sdc = Some(SdcInjector::new(plan));
        self
    }

    /// Like [`with_sdc`](Self::with_sdc), but restricts the silent flips
    /// to a single "lemon lane": a marginal unit that lies while its
    /// peers stay honest — the scenario duplicate-dispatch voting is
    /// built to contain.
    pub fn with_sdc_on_unit(mut self, plan: SdcPlan, unit: usize) -> FaultTolerantCduArray {
        self.sdc = Some(SdcInjector::new(plan));
        self.sdc_unit = Some(unit);
        self
    }

    /// Overrides the silent-fault defense parameters.
    pub fn with_integrity(mut self, integrity: IntegrityPolicy) -> FaultTolerantCduArray {
        self.integrity = integrity;
        self
    }

    /// The underlying CECDU model.
    pub fn sim(&self) -> &CecduSim {
        &self.sim
    }

    /// The recovery policy.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// The resilience counters accumulated so far.
    pub fn counters(&self) -> &ResilienceCounters {
        self.injector.counters()
    }

    /// Zeroes the resilience counters (unit health is kept).
    pub fn reset_counters(&mut self) {
        self.injector.reset_counters();
    }

    /// Number of units in the array.
    pub fn unit_count(&self) -> usize {
        self.units.len()
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
        if self.units[u].strikes >= self.policy.quarantine_strikes
            && !self.units[u].quarantined
            && self.healthy_units() > 1
        {
            self.bench(u);
        }
    }

    /// Quarantines a unit: power-cycled out of the serving set (which
    /// clears a latch-up) until the scrub loop readmits it.
    fn bench(&mut self, u: usize) {
        self.units[u].quarantined = true;
        self.units[u].stuck = false;
        self.units[u].scrub_streak = 0;
        self.injector.counters_mut().quarantined += 1;
    }

    /// The integrity counters: injection-side (from the SDC plan) merged
    /// with defense-side (votes, scrubs, accusations recorded here).
    pub fn integrity_counters(&self) -> IntegrityCounters {
        let mut c = self.icounters;
        if let Some(sdc) = &self.sdc {
            c.merge(sdc.counters());
        }
        c
    }

    /// A unit's current suspicion score.
    pub fn suspicion(&self, u: usize) -> u32 {
        self.units[u].suspicion
    }

    /// Whether a unit's queries are escalated to duplicate-dispatch
    /// voting.
    pub fn is_suspect(&self, u: usize) -> bool {
        self.units[u].suspicion >= self.integrity.vote_threshold
    }

    /// Attributes a certification failure to a unit: its suspicion rises
    /// by [`IntegrityPolicy::accuse_weight`], escalating it toward the
    /// voting threshold.
    pub fn accuse(&mut self, u: usize) {
        self.units[u].suspicion = self.units[u]
            .suspicion
            .saturating_add(self.integrity.accuse_weight);
    }

    /// Decays a unit's suspicion after a clean certification:
    /// `s -= max(1, s >> decay_shift)` — monotone non-increasing, reaches
    /// zero in finitely many steps (the proptests in `mp-service` pin
    /// both properties on the shared decay rule).
    pub fn exonerate(&mut self, u: usize) {
        let s = self.units[u].suspicion;
        if s > 0 {
            self.units[u].suspicion = s - (s >> self.integrity.decay_shift).max(1);
        }
    }

    /// Runs one known-answer scrub round: every quarantined unit
    /// evaluates `pose` and is compared against the clean reference; a
    /// correct, undetected answer extends its clean streak, anything else
    /// resets it, and a unit reaching
    /// [`IntegrityPolicy::scrub_clean_target`] consecutive clean probes
    /// is readmitted (suspicion held at the voting threshold, so a
    /// readmitted liar stays under majority voting until it re-earns
    /// trust). Returns the number of units readmitted by this round.
    pub fn scrub_probe(&mut self, pose: &JointConfig) -> usize {
        let expected = self.sim.check_pose(pose).colliding;
        let mut readmitted = 0;
        for u in 0..self.units.len() {
            if !self.units[u].quarantined {
                continue;
            }
            self.icounters.scrub_probes += 1;
            let a = self.attempt(u, pose);
            if a.colliding == expected && !a.detected {
                self.units[u].scrub_streak += 1;
            } else {
                self.units[u].scrub_streak = 0;
            }
            if self.units[u].scrub_streak >= self.integrity.scrub_clean_target {
                self.units[u].quarantined = false;
                self.units[u].strikes = 0;
                self.units[u].lies = 0;
                self.units[u].scrub_streak = 0;
                self.units[u].suspicion =
                    self.units[u].suspicion.max(self.integrity.vote_threshold);
                self.icounters.scrub_readmits += 1;
                readmitted += 1;
            }
        }
        readmitted
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
        let detection = self.policy.mode.detection();
        self.units[u].queries += 1;

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
                    cycles: self.policy.watchdog_cycles,
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
            a.cycles *= self.policy.slow_factor.max(1);
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
                a.cycles += self.policy.watchdog_cycles;
                a.detected = true;
            } else {
                // The result silently never arrives; the scheduler's
                // dispatch slot is reclaimed with the default "free"
                // verdict — the false-negative source of this study.
                a.colliding = false;
                a.conservative = false;
            }
        }
        // Silent data corruption: the verdict inverts in the completion
        // datapath *after* the checker, and the result-bus parity is
        // recomputed over the corrupt payload — so `detected` stays
        // false no matter the recovery mode. Only the integrity ladder
        // (certification / voting / scrub) can see this.
        if let Some(sdc) = self.sdc.as_mut() {
            // Draw unconditionally so the RNG stream does not depend on
            // which unit was dispatched.
            if sdc.flips_verdict() {
                if self.sdc_unit.is_none_or(|lemon| lemon == u) {
                    a.colliding = !a.colliding;
                    a.faulty = true;
                    a.conservative = false;
                } else {
                    // The draw landed on an honest unit: no corruption
                    // was delivered, so it must not count as injected.
                    sdc.counters_mut().verdict_flips -= 1;
                }
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
        let detection = self.policy.mode.detection();

        let mut latency = 0u64;
        let mut ops = OpCounter::default();
        let mut redispatches = 0u32;
        let mut last_unit: Option<usize> = None;
        let (verdict, deliberate, final_attempt) = loop {
            let u = self.pick_unit(last_unit);
            last_unit = Some(u);
            let a = self.attempt(u, pose);
            latency += a.cycles;
            ops += a.ops;
            if a.detected {
                self.injector.counters_mut().detected += 1;
                self.strike(u);
                if detection && redispatches < self.policy.max_redispatches {
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

        let mut verdict = verdict;
        let mut deliberate = deliberate;

        // Suspicion-scored duplicate-dispatch voting: a unit accused past
        // the voting threshold (by certify failures or prior overrides)
        // has its verdict cross-checked on up to two other healthy units;
        // the majority wins, a tie resolves conservatively (collision
        // wins). A unit overruled liar_strikes times is benched until the
        // scrub loop readmits it.
        if let Some(u) = last_unit.filter(|&u| self.is_suspect(u)) {
            self.icounters.votes += 1;
            let extras: Vec<usize> = (0..self.units.len())
                .filter(|&v| v != u && !self.units[v].quarantined)
                .take(2)
                .collect();
            let mut colliding_votes = u32::from(verdict);
            let mut total = 1u32;
            for v in extras {
                let b = self.attempt(v, pose);
                latency += b.cycles;
                ops += b.ops;
                colliding_votes += u32::from(b.colliding);
                total += 1;
            }
            let majority = colliding_votes * 2 >= total;
            if majority != verdict {
                self.icounters.vote_overrides += 1;
                self.units[u].lies += 1;
                self.units[u].suspicion = self.units[u]
                    .suspicion
                    .saturating_add(self.integrity.accuse_weight);
                if self.units[u].lies >= self.integrity.liar_strikes
                    && !self.units[u].quarantined
                    && self.healthy_units() > 1
                {
                    self.bench(u);
                }
                verdict = majority;
                deliberate = true;
            }
        }

        // Voter: spot-check free verdicts against the software oracle,
        // promoting only free -> collision (conservative by construction).
        if !verdict && self.policy.mode == RecoveryMode::DetectRetryVoter {
            self.free_verdicts_seen += 1;
            if self
                .free_verdicts_seen
                .is_multiple_of(self.policy.voter_period.max(1))
            {
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

/// Convenience wrapper: runs one SAS batch on a fault-tolerant array.
/// Plain [`run_sas`](crate::sas::run_sas) works too — the array is a
/// [`CduModel`] — but this keeps the unit counts consistent.
///
/// # Panics
///
/// Panics if `cfg.num_cdus` does not match the array's unit count.
pub fn run_sas_with_faults(
    motions: &[mp_robot::MotionDescriptor],
    mode: crate::sas::FunctionMode,
    cfg: &crate::sas::SasConfig,
    array: &mut FaultTolerantCduArray,
) -> crate::sas::SasRunResult {
    assert_eq!(
        cfg.num_cdus,
        array.unit_count(),
        "SAS CDU count must match the fault-tolerant array"
    );
    crate::sas::run_sas(motions, mode, cfg, array)
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
        let mut array = FaultTolerantCduArray::new(
            s.clone(),
            4,
            FaultPlan::none(1),
            RecoveryPolicy::new(RecoveryMode::DetectRetry),
        );
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
            let mut array = FaultTolerantCduArray::new(
                sim(1),
                4,
                FaultPlan::uniform(0.05, 7),
                RecoveryPolicy::new(mode),
            );
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
            RecoveryPolicy::new(RecoveryMode::None),
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
            RecoveryPolicy::new(RecoveryMode::DetectRetry),
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
            RecoveryPolicy::new(RecoveryMode::DetectRetryVoter),
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
            RecoveryPolicy::new(RecoveryMode::DetectRetry),
        );
        let r = run_sas_with_faults(
            &motions,
            FunctionMode::Complete,
            &SasConfig::mcsp(8),
            &mut array,
        );
        assert!(r.motion_results.iter().all(Option::is_some));
        assert_eq!(array.counters().false_negatives, 0);
        // The generic entry point accepts the array as a CduModel too.
        let mut array2 = FaultTolerantCduArray::new(
            sim(5),
            8,
            FaultPlan::uniform(0.01, 13),
            RecoveryPolicy::new(RecoveryMode::DetectRetry),
        );
        let r2 = run_sas(
            &motions,
            FunctionMode::Complete,
            &SasConfig::mcsp(8),
            &mut array2,
        );
        assert_eq!(r.motion_results, r2.motion_results);
    }

    #[test]
    fn runs_are_deterministic_given_a_seed() {
        let run = || {
            let mut array = FaultTolerantCduArray::new(
                sim(6),
                4,
                FaultPlan::uniform(0.04, 21),
                RecoveryPolicy::new(RecoveryMode::DetectRetry),
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
    fn sdc_flips_escape_every_detection_mechanism() {
        // Detection at full strength, but the corruption is silent: the
        // escape/false-verdict counters must go nonzero — the gap the
        // plan certifier exists to close.
        let mut array = FaultTolerantCduArray::new(
            sim(8),
            4,
            FaultPlan::none(3),
            RecoveryPolicy::new(RecoveryMode::DetectRetry),
        )
        .with_sdc(SdcPlan::uniform(0.3, 41));
        for pose in poses(200, 11) {
            let _ = array.query(&pose);
        }
        let c = *array.counters();
        let ic = array.integrity_counters();
        assert!(ic.verdict_flips > 0, "no silent flips injected");
        assert_eq!(c.detected, 0, "silent flips must not trip detection");
        assert!(c.escaped > 0, "silent flips must escape");
        assert!(c.false_negatives + c.false_positives > 0);
    }

    #[test]
    fn suspect_units_get_outvoted() {
        // A single lemon lane lies on ~30% of its verdicts while its
        // peers stay honest. Once accused past the voting threshold,
        // every one of its queries is duplicate-dispatched to two honest
        // peers — the 2-of-3 majority corrects every lie it tells.
        let run = |accused: bool| {
            let mut array = FaultTolerantCduArray::new(
                sim(9),
                4,
                FaultPlan::none(4),
                RecoveryPolicy::new(RecoveryMode::DetectRetry),
            )
            .with_sdc_on_unit(SdcPlan::uniform(0.3, 17), 0)
            .with_integrity(IntegrityPolicy {
                // Keep the liar in service so the vote keeps firing.
                liar_strikes: u32::MAX,
                ..IntegrityPolicy::default()
            });
            if accused {
                array.accuse(0);
                array.accuse(0);
            }
            for pose in poses(150, 12) {
                let _ = array.query(&pose);
            }
            (*array.counters(), array.integrity_counters())
        };
        let (undefended, ic0) = run(false);
        let (voted, ic1) = run(true);
        assert_eq!(ic0.votes, 0);
        assert!(undefended.escaped > 0, "lemon lane must leak undefended");
        assert!(ic1.votes > 0, "suspects must be duplicate-dispatched");
        assert!(
            ic1.vote_overrides > 0,
            "votes must overrule corrupt verdicts"
        );
        assert_eq!(
            voted.escaped, 0,
            "honest 2-of-3 majority must correct every lie"
        );
    }

    #[test]
    fn suspicion_decays_monotonically_to_zero() {
        let mut array = FaultTolerantCduArray::new(
            sim(10),
            2,
            FaultPlan::none(5),
            RecoveryPolicy::new(RecoveryMode::DetectRetry),
        );
        for _ in 0..5 {
            array.accuse(0);
        }
        assert!(array.is_suspect(0));
        assert_eq!(array.suspicion(1), 0);
        let mut prev = array.suspicion(0);
        for _ in 0..64 {
            array.exonerate(0);
            let s = array.suspicion(0);
            assert!(s < prev || (s == 0 && prev == 0), "decay must shrink");
            prev = s;
        }
        assert_eq!(array.suspicion(0), 0, "decay must reach zero");
        assert!(!array.is_suspect(0));
    }

    #[test]
    fn persistent_liar_is_benched_and_scrub_readmits_it() {
        // One shared SDC stream lying on a quarter of verdicts, every
        // unit pre-accused: overrides accumulate until some unit crosses
        // liar_strikes and is benched.
        let mut array = FaultTolerantCduArray::new(
            sim(11),
            4,
            FaultPlan::none(6),
            RecoveryPolicy::new(RecoveryMode::DetectRetry),
        )
        .with_sdc(SdcPlan::uniform(0.35, 23))
        .with_integrity(IntegrityPolicy {
            liar_strikes: 2,
            ..IntegrityPolicy::default()
        });
        for u in 0..4 {
            array.accuse(u);
            array.accuse(u);
        }
        for pose in poses(200, 13) {
            let _ = array.query(&pose);
        }
        let benched = 4 - array.healthy_units();
        assert!(benched > 0, "persistent liars must be quarantined");

        // Scrub: known-answer probes readmit after the clean streak. The
        // SDC stream keeps lying occasionally, so a probe can reset the
        // streak — probe until readmission to show liveness, bounded to
        // prove it terminates.
        let probes = poses(400, 14);
        let mut readmitted = 0;
        for pose in &probes {
            readmitted += array.scrub_probe(pose);
            if readmitted >= benched {
                break;
            }
        }
        assert_eq!(readmitted, benched, "scrub must eventually readmit");
        assert_eq!(array.healthy_units(), 4);
        let ic = array.integrity_counters();
        assert!(ic.scrub_probes >= ic.scrub_readmits * 4);
        assert!(ic.scrub_readmits as usize >= benched);
        // Readmission is cautious: the unit comes back still under
        // voting, not fully trusted.
        assert!((0..4).any(|u| array.is_suspect(u)));
    }

    #[test]
    fn retries_cost_latency_and_energy() {
        let clean_run = || {
            let mut array = FaultTolerantCduArray::new(
                sim(7),
                4,
                FaultPlan::none(2),
                RecoveryPolicy::new(RecoveryMode::DetectRetry),
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
                RecoveryPolicy::new(RecoveryMode::DetectRetry),
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
