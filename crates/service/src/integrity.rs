//! The service-side integrity pipeline: certification accounting,
//! suspicion-scored voting, and scrub/readmission of lying instances.
//!
//! The service's fault machinery so far (retries, circuit breaker,
//! failover) only ever sees *detected* faults. Silent data corruption — a
//! wrong-but-plausible plan delivered with a clean status — defeats all of
//! it, so this module adds the defense-in-depth ladder the integrity
//! experiments sweep:
//!
//! 1. **Certification** (`certify`): every returned plan is re-validated
//!    through an independent software cascade before the request resolves
//!    (the cost is the catalog's measured
//!    [`certify_us`](crate::catalog::CatalogEntry::certify_us)); a
//!    rejection re-plans at a degraded tier instead of shipping.
//! 2. **Suspicion scoreboard → voting** (`vote`): certify failures are
//!    attributed to the instance that produced the plan; instances past
//!    the suspicion threshold get their dispatches re-executed
//!    (temporal duplicate-dispatch) and a mismatch ships the clean result.
//! 3. **Scrub/readmission** (`scrub`): instances that keep lying under
//!    voting are benched and probed with known-answer work until a clean
//!    streak readmits them — still under voting, until certification
//!    decays their suspicion away.
//!
//! All randomness comes from per-instance [`SdcInjector`] streams derived
//! from the run seed, so runs stay a pure function of their configuration.

use mp_sim::fault::{SdcInjector, SdcPlan};
use mp_telemetry::{HistSnapshot, Registry};

/// Suspicion score at which an instance's dispatches get voted.
pub const VOTE_THRESHOLD: u32 = 8;

/// Suspicion added per certification failure attributed to an instance.
pub const ACCUSE_WEIGHT: u32 = 4;

/// Suspicion decay shift per clean certification:
/// `s -= max(1, s >> DECAY_SHIFT)`.
pub const DECAY_SHIFT: u32 = 2;

/// Vote overrides before a suspect is benched for scrubbing.
pub const LIAR_STRIKES: u32 = 3;

/// Consecutive clean scrub probes required for readmission.
pub const SCRUB_CLEAN_TARGET: u32 = 4;

/// Virtual time between scrub probes of a benched instance (µs).
pub const SCRUB_PERIOD_US: u64 = 500;

/// Which integrity defenses a run enables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntegrityConfig {
    /// Re-validate every returned plan through the independent software
    /// cascade before resolving the request.
    pub certify: bool,
    /// Re-execute dispatches on suspicion-flagged instances and compare.
    pub vote: bool,
    /// Bench persistent liars and readmit them via known-answer probes.
    pub scrub: bool,
}

impl IntegrityConfig {
    /// Every defense off — the undefended baseline. This is the default,
    /// so existing configurations are untouched by the pipeline.
    pub fn off() -> IntegrityConfig {
        IntegrityConfig {
            certify: false,
            vote: false,
            scrub: false,
        }
    }

    /// Certification only: unsafe plans are caught and re-planned, but
    /// lying instances stay in rotation at full trust.
    pub fn certify_only() -> IntegrityConfig {
        IntegrityConfig {
            certify: true,
            ..IntegrityConfig::off()
        }
    }

    /// The full ladder: certify + suspicion-scored voting + scrub.
    pub fn full() -> IntegrityConfig {
        IntegrityConfig {
            certify: true,
            vote: true,
            scrub: true,
        }
    }
}

impl Default for IntegrityConfig {
    fn default() -> IntegrityConfig {
        IntegrityConfig::off()
    }
}

/// Integrity counters for one run.
#[derive(Clone, Debug, Default)]
pub struct IntegrityStats {
    /// Completions where at least one execution produced a silently
    /// corrupted plan.
    pub sdc_injected: u64,
    /// Corrupted plans that shipped as `Completed` — the unsafe-escape
    /// count the defended policies must hold at zero.
    pub sdc_escaped: u64,
    /// Plans certified clean.
    pub certified: u64,
    /// Plans the certifier rejected (each one a re-plan, not a shipped
    /// hazard).
    pub certify_failed: u64,
    /// Total modeled host-CPU time spent certifying (ns).
    pub certify_ns: u64,
    /// Dispatches re-executed because the instance was a suspect.
    pub votes: u64,
    /// Re-executions that disagreed with the primary run (the corruption
    /// was masked before certification).
    pub vote_overrides: u64,
    /// Instances benched for persistent lying.
    pub liars_benched: u64,
    /// Known-answer scrub probes run against benched instances.
    pub scrub_probes: u64,
    /// Benched instances readmitted after a clean probe streak.
    pub scrub_readmits: u64,
    /// Per-plan certification cost distribution (µs).
    pub certify_hist: HistSnapshot,
}

impl IntegrityStats {
    /// Unsafe plans shipped per completed request (0 when nothing
    /// completed).
    pub fn escape_rate(&self, completed: u64) -> f64 {
        if completed == 0 {
            return 0.0;
        }
        self.sdc_escaped as f64 / completed as f64
    }

    /// Merges another run's counters into this one (histogram included).
    pub fn merge(&mut self, other: &IntegrityStats) {
        self.sdc_injected += other.sdc_injected;
        self.sdc_escaped += other.sdc_escaped;
        self.certified += other.certified;
        self.certify_failed += other.certify_failed;
        self.certify_ns += other.certify_ns;
        self.votes += other.votes;
        self.vote_overrides += other.vote_overrides;
        self.liars_benched += other.liars_benched;
        self.scrub_probes += other.scrub_probes;
        self.scrub_readmits += other.scrub_readmits;
        self.certify_hist.absorb(&other.certify_hist);
    }

    /// Exports the counters and the certification-cost histogram into a
    /// telemetry registry under `<prefix>.<field>` names.
    pub fn export_into(&self, prefix: &str, registry: &Registry) {
        registry.set_counter(&format!("{prefix}.sdc_injected"), self.sdc_injected);
        registry.set_counter(&format!("{prefix}.sdc_escaped"), self.sdc_escaped);
        registry.set_counter(&format!("{prefix}.certified"), self.certified);
        registry.set_counter(&format!("{prefix}.certify_failed"), self.certify_failed);
        registry.set_counter(&format!("{prefix}.certify_ns"), self.certify_ns);
        registry.set_counter(&format!("{prefix}.votes"), self.votes);
        registry.set_counter(&format!("{prefix}.vote_overrides"), self.vote_overrides);
        registry.set_counter(&format!("{prefix}.liars_benched"), self.liars_benched);
        registry.set_counter(&format!("{prefix}.scrub_probes"), self.scrub_probes);
        registry.set_counter(&format!("{prefix}.scrub_readmits"), self.scrub_readmits);
        registry.observe_hist(&format!("{prefix}.certify_us"), &self.certify_hist);
    }
}

/// What the integrity layer decided about one clean completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompletionIntegrity {
    /// The plan leaving the instance (after any vote masking) is
    /// corrupted.
    pub ships_corrupt: bool,
    /// This completion crossed the liar threshold: the caller must bench
    /// the instance and start its scrub schedule.
    pub bench: bool,
}

/// Per-instance integrity state for one service (or shard) event loop:
/// SDC streams, the suspicion scoreboard, liar strikes, and scrub
/// streaks.
#[derive(Clone, Debug)]
pub struct IntegrityState {
    cfg: IntegrityConfig,
    /// Per-instance dispatch-corruption streams.
    sdc: Vec<SdcInjector>,
    /// Per-instance scrub-probe streams (decorrelated from dispatches so
    /// probing never perturbs the corruption a policy sweep compares).
    scrub: Vec<SdcInjector>,
    suspicion: Vec<u32>,
    lies: Vec<u32>,
    streak: Vec<u32>,
    benched: Vec<bool>,
    /// Defense-side counters (injection-side counts live in the
    /// injectors and are merged into `sdc_injected` at completion time).
    pub stats: IntegrityStats,
}

/// Salt separating each instance's scrub stream from its dispatch stream.
const SCRUB_STREAM_SALT: u64 = 0x5C12_0000;

impl IntegrityState {
    /// Builds per-instance integrity state. `plan` carries the base SDC
    /// rate and seed; `hot` (with `hot_factor`) marks the instance with an
    /// elevated silent-corruption rate. `salt` separates shards of a
    /// fleet (0 for a single-shard run).
    pub fn new(
        cfg: IntegrityConfig,
        plan: SdcPlan,
        instances: usize,
        hot: Option<usize>,
        hot_factor: f64,
        salt: u64,
    ) -> IntegrityState {
        let per_instance = |i: usize, stream_salt: u64| {
            let scaled = if hot == Some(i) {
                plan.scaled(hot_factor)
            } else {
                plan
            };
            SdcInjector::new(scaled.stream((salt << 24) ^ stream_salt ^ i as u64))
        };
        IntegrityState {
            cfg,
            sdc: (0..instances).map(|i| per_instance(i, 0)).collect(),
            scrub: (0..instances)
                .map(|i| per_instance(i, SCRUB_STREAM_SALT))
                .collect(),
            suspicion: vec![0; instances],
            lies: vec![0; instances],
            streak: vec![0; instances],
            benched: vec![false; instances],
            stats: IntegrityStats::default(),
        }
    }

    /// Current suspicion score of an instance.
    pub fn suspicion(&self, inst: usize) -> u32 {
        self.suspicion[inst]
    }

    /// Whether an instance's dispatches are currently voted.
    pub fn is_suspect(&self, inst: usize) -> bool {
        self.suspicion[inst] >= VOTE_THRESHOLD
    }

    /// Called at dispatch: returns whether this dispatch is re-executed
    /// for voting (doubling its modeled service time) and counts it.
    pub fn dispatch_vote(&mut self, inst: usize) -> bool {
        let vote = self.cfg.vote && self.is_suspect(inst);
        if vote {
            self.stats.votes += 1;
        }
        vote
    }

    /// Called on every clean, solved completion: draws the instance's
    /// silent-corruption stream (twice when voted — the re-execution) and
    /// resolves the vote. The caller handles certification and, when
    /// `bench` is set, pulls the instance from rotation and starts its
    /// scrub schedule.
    pub fn completion(&mut self, inst: usize, voted: bool) -> CompletionIntegrity {
        let primary = self.sdc[inst].flips_verdict();
        let mut ships_corrupt = primary;
        let mut injected = primary;
        let mut bench = false;
        if voted {
            let rerun = self.sdc[inst].flips_verdict();
            injected |= rerun;
            if primary != rerun {
                // The two executions disagree: one of them lied. Ship the
                // clean result and charge the instance with the lie.
                self.stats.vote_overrides += 1;
                self.lies[inst] += 1;
                self.suspicion[inst] = self.suspicion[inst].saturating_add(ACCUSE_WEIGHT);
                ships_corrupt = false;
                if self.cfg.scrub && self.lies[inst] >= LIAR_STRIKES && !self.benched[inst] {
                    self.benched[inst] = true;
                    self.lies[inst] = 0;
                    self.streak[inst] = 0;
                    self.stats.liars_benched += 1;
                    bench = true;
                }
            }
            // Agreement ships the agreed verdict: both-clean is clean,
            // both-corrupt slips past the vote (certification's job).
        }
        if injected {
            self.stats.sdc_injected += 1;
        }
        CompletionIntegrity {
            ships_corrupt,
            bench,
        }
    }

    /// Attributes a certification failure to the instance that produced
    /// the rejected plan.
    pub fn accuse(&mut self, inst: usize) {
        self.suspicion[inst] = self.suspicion[inst].saturating_add(ACCUSE_WEIGHT);
    }

    /// Decays an instance's suspicion after a clean certification:
    /// `s -= max(1, s >> DECAY_SHIFT)`, monotone and terminating.
    pub fn exonerate(&mut self, inst: usize) {
        let s = self.suspicion[inst];
        if s > 0 {
            self.suspicion[inst] = s - (s >> DECAY_SHIFT).max(1);
        }
    }

    /// Whether an instance is currently benched for scrubbing.
    pub fn is_benched(&self, inst: usize) -> bool {
        self.benched[inst]
    }

    /// Runs one known-answer scrub probe against a benched instance;
    /// returns `true` when the probe completes the clean streak and the
    /// instance is readmitted. Readmission keeps suspicion pinned at the
    /// voting threshold: a readmitted liar re-enters service *under
    /// voting* and must earn trust back through clean certifications.
    pub fn scrub_probe(&mut self, inst: usize) -> bool {
        debug_assert!(self.benched[inst], "scrub probes target benched instances");
        self.stats.scrub_probes += 1;
        if self.scrub[inst].flips_verdict() {
            self.streak[inst] = 0;
            return false;
        }
        self.streak[inst] += 1;
        if self.streak[inst] < SCRUB_CLEAN_TARGET {
            return false;
        }
        self.benched[inst] = false;
        self.streak[inst] = 0;
        self.suspicion[inst] = self.suspicion[inst].max(VOTE_THRESHOLD);
        self.stats.scrub_readmits += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn state(cfg: IntegrityConfig, rate: f64, hot_factor: f64) -> IntegrityState {
        IntegrityState::new(cfg, SdcPlan::uniform(rate, 77), 4, Some(0), hot_factor, 0)
    }

    #[test]
    fn undefended_state_is_inert() {
        let mut s = state(IntegrityConfig::off(), 0.5, 1.0);
        let mut injected = 0;
        for _ in 0..100 {
            assert!(!s.dispatch_vote(1));
            let c = s.completion(1, false);
            assert!(!c.bench);
            injected += u64::from(c.ships_corrupt);
        }
        assert!(injected > 0, "rate 0.5 must corrupt");
        assert_eq!(s.stats.sdc_injected, injected);
        assert_eq!(s.stats.votes, 0);
        assert_eq!(s.stats.vote_overrides, 0);
    }

    #[test]
    fn accusations_cross_the_threshold_and_decay_back() {
        let mut s = state(IntegrityConfig::full(), 0.0, 1.0);
        assert!(!s.is_suspect(2));
        s.accuse(2);
        s.accuse(2);
        assert!(s.is_suspect(2), "2 × ACCUSE_WEIGHT reaches VOTE_THRESHOLD");
        assert!(s.dispatch_vote(2));
        for _ in 0..64 {
            s.exonerate(2);
        }
        assert_eq!(s.suspicion(2), 0);
        assert!(!s.dispatch_vote(2));
        assert_eq!(s.stats.votes, 1);
    }

    #[test]
    fn votes_mask_corruption_and_bench_liars() {
        // A mid corruption rate: high enough to strike out fast, low
        // enough that disagreeing (maskable) votes dominate the
        // both-corrupt agreements that slip past voting.
        let mut s2 = state(IntegrityConfig::full(), 0.4, 1.0);
        s2.accuse(1);
        s2.accuse(1);
        let mut benched = false;
        let mut shipped_corrupt = 0;
        for _ in 0..200 {
            let voted = s2.dispatch_vote(1);
            assert!(voted || s2.is_benched(1));
            let c = s2.completion(1, voted);
            shipped_corrupt += u64::from(c.ships_corrupt);
            if c.bench {
                benched = true;
                break;
            }
        }
        assert!(benched, "a 40%-liar under voting must strike out");
        assert_eq!(s2.stats.liars_benched, 1);
        assert!(s2.stats.vote_overrides >= u64::from(LIAR_STRIKES));
        // Voting masks disagreements; only both-corrupt agreements ship.
        assert!(shipped_corrupt < s2.stats.sdc_injected);
    }

    #[test]
    fn scrub_readmits_after_the_clean_streak_and_keeps_suspicion() {
        let cfg = IntegrityConfig::full();
        let mut s = state(cfg, 0.0, 1.0);
        s.accuse(3);
        s.accuse(3);
        s.accuse(3);
        // Force a bench through the public path: three overrides need a
        // liar; with rate 0 the stream never lies, so bench directly via
        // the internal invariantly-reachable state.
        s.benched[3] = true;
        s.stats.liars_benched += 1;
        let mut probes = 0;
        while !s.scrub_probe(3) {
            probes += 1;
            assert!(probes < 100, "clean probes must readmit");
        }
        assert!(!s.is_benched(3));
        assert_eq!(s.stats.scrub_readmits, 1);
        assert_eq!(s.stats.scrub_probes, u64::from(SCRUB_CLEAN_TARGET));
        assert!(
            s.is_suspect(3),
            "a readmitted liar must re-enter under voting"
        );
    }

    #[test]
    fn policy_presets_differ_only_in_switches() {
        let off = IntegrityConfig::off();
        let certify = IntegrityConfig::certify_only();
        let full = IntegrityConfig::full();
        assert_eq!(off, IntegrityConfig::default());
        assert!(!off.certify && !off.vote && !off.scrub);
        assert!(certify.certify && !certify.vote && !certify.scrub);
        assert!(full.certify && full.vote && full.scrub);
    }

    #[test]
    fn stats_merge_and_export() {
        let mut a = IntegrityStats {
            sdc_injected: 3,
            sdc_escaped: 1,
            certified: 10,
            certify_failed: 2,
            certify_ns: 5_000,
            votes: 4,
            vote_overrides: 2,
            liars_benched: 1,
            scrub_probes: 8,
            scrub_readmits: 1,
            ..IntegrityStats::default()
        };
        a.certify_hist.observe(120);
        let mut b = IntegrityStats::default();
        b.certify_hist.observe(80);
        b.merge(&a);
        assert_eq!(b.sdc_injected, 3);
        assert_eq!(b.certify_hist.count(), 2);
        assert!((a.escape_rate(10) - 0.1).abs() < 1e-12);
        assert_eq!(IntegrityStats::default().escape_rate(0), 0.0);
        let r = Registry::new();
        b.export_into("svc.integrity", &r);
        assert_eq!(r.counter_value("svc.integrity.sdc_escaped"), Some(1));
        assert_eq!(r.counter_value("svc.integrity.votes"), Some(4));
        assert_eq!(r.histogram("svc.integrity.certify_us").unwrap().count(), 2);
    }

    proptest! {
        /// The decay rule is monotone non-increasing and reaches zero in
        /// finitely many steps from any starting score.
        #[test]
        fn suspicion_decay_is_monotone_and_terminates(start in any::<u32>()) {
            let mut s = IntegrityState::new(IntegrityConfig::full(), SdcPlan::none(1), 1, None, 1.0, 0);
            s.suspicion[0] = start;
            let mut prev = start;
            let mut steps = 0u32;
            while s.suspicion(0) > 0 {
                s.exonerate(0);
                let cur = s.suspicion(0);
                prop_assert!(cur < prev, "decay must strictly shrink ({prev} -> {cur})");
                prev = cur;
                steps += 1;
                // Geometric phase (~2^DECAY_SHIFT · ln(start) steps) plus
                // the final linear -1 phase (~2^DECAY_SHIFT steps).
                prop_assert!(steps <= 10_000, "decay must terminate");
            }
            s.exonerate(0);
            prop_assert_eq!(s.suspicion(0), 0, "zero is a fixed point");
        }

        /// Scrub readmission is live: under any seeded probe-corruption
        /// stream with a lie rate below one, a benched instance is
        /// readmitted on the first probe that completes a clean streak of
        /// `SCRUB_CLEAN_TARGET`, and never before.
        #[test]
        fn scrub_readmission_is_live(seed in any::<u64>(), rate in 0.0f64..0.6) {
            let mut s = IntegrityState::new(
                IntegrityConfig::full(),
                SdcPlan::uniform(rate, seed),
                1,
                None,
                1.0,
                0,
            );
            s.benched[0] = true;
            // A copy of the probe stream predicts each probe's verdict.
            let mut oracle = s.scrub[0].clone();
            let mut streak = 0u32;
            let mut probes = 0u64;
            loop {
                let clean = !oracle.flips_verdict();
                streak = if clean { streak + 1 } else { 0 };
                probes += 1;
                let readmitted = s.scrub_probe(0);
                prop_assert_eq!(readmitted, streak == SCRUB_CLEAN_TARGET);
                if readmitted {
                    break;
                }
                prop_assert!(s.is_benched(0));
                prop_assert!(probes < 10_000, "liveness bound exceeded");
            }
            prop_assert!(probes >= u64::from(SCRUB_CLEAN_TARGET), "readmission needs the full streak");
            prop_assert!(!s.is_benched(0));
            prop_assert!(s.is_suspect(0), "a readmitted liar re-enters under voting");
            prop_assert_eq!(s.stats.scrub_probes, probes);
            prop_assert_eq!(s.stats.scrub_readmits, 1);
        }
    }
}
