//! Fault models for the planning service's resilience study: seeded
//! per-dispatch fault plans and their injector, shard-failure schedules,
//! silent-data-corruption plans, and the counters the service keeps.
//!
//! A dispatch fault is a roll, not a model of the datapath: the service
//! (`mp-service`) draws [`FaultInjector::fires`] over [`FaultKind::ALL`]
//! once per dispatch and acts on the first kind that fires. The injectors
//! are pure functions of their plan seeds, so every run is reproducible
//! bit-for-bit.

use crate::rng::{exp_ns, mix, unit, Rng, GAMMA};

/// The kinds of fault a service dispatch can roll.
///
/// Each kind is one per-dispatch roll of the service's accelerator
/// instance. A [`FaultKind::SlowUnit`] dispatch completes, only slower;
/// every other kind wastes the dispatch, which the service detects at
/// completion and retries. The kind names the hardware event the roll
/// stands for; nothing below the service models it. The variants and
/// their [`FaultKind::ALL`] order fix the service's fault RNG stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A single-bit upset in an octree node word read from SRAM.
    SramBitFlip,
    /// An accelerator latches up and replays a stale result.
    StuckUnit,
    /// An accelerator completes correctly but several times slower than
    /// modeled (voltage droop / thermal throttling).
    SlowUnit,
    /// A result is lost on the result bus.
    DroppedResult,
    /// A verdict arrives with its collision bit inverted.
    CorruptedVerdict,
    /// A fixed-point saturation event in the intersection datapath.
    Saturation,
}

impl FaultKind {
    /// Number of fault kinds.
    pub const COUNT: usize = 6;

    /// All fault kinds, in the fixed order a dispatch rolls them.
    pub const ALL: [FaultKind; FaultKind::COUNT] = [
        FaultKind::SramBitFlip,
        FaultKind::StuckUnit,
        FaultKind::SlowUnit,
        FaultKind::DroppedResult,
        FaultKind::CorruptedVerdict,
        FaultKind::Saturation,
    ];

    /// Stable index of this kind (for counter arrays).
    pub fn index(self) -> usize {
        match self {
            FaultKind::SramBitFlip => 0,
            FaultKind::StuckUnit => 1,
            FaultKind::SlowUnit => 2,
            FaultKind::DroppedResult => 3,
            FaultKind::CorruptedVerdict => 4,
            FaultKind::Saturation => 5,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::SramBitFlip => "sram-bit-flip",
            FaultKind::StuckUnit => "stuck-unit",
            FaultKind::SlowUnit => "slow-unit",
            FaultKind::DroppedResult => "dropped-result",
            FaultKind::CorruptedVerdict => "corrupted-verdict",
            FaultKind::Saturation => "saturation",
        }
    }
}

/// Per-kind fault probabilities plus the injector seed. Rates are per
/// roll, and the service rolls each kind at most once per dispatch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's RNG.
    pub seed: u64,
    rates: [f64; FaultKind::COUNT],
}

impl FaultPlan {
    /// A fault-free plan (rates all zero).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; FaultKind::COUNT],
        }
    }

    /// The same rate for every fault kind.
    pub fn uniform(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [rate.clamp(0.0, 1.0); FaultKind::COUNT],
        }
    }

    /// The configured rate for one kind.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }

    /// Overrides the rate for one kind (clamped to `0.0..=1.0`).
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> FaultPlan {
        self.rates[kind.index()] = rate.clamp(0.0, 1.0);
        self
    }
}

/// Resilience bookkeeping of the service's fault rolls.
///
/// The injector records injections; the service records its dispatch
/// queries, detections, masked slow-unit faults, re-dispatches and
/// quarantines. The service detects every other faulted dispatch, so the
/// verdict classifications (`escaped`, `false_negatives`,
/// `false_positives`) and the conservative-fallback and voter counts
/// have no writer and stay 0. The committed soak, integrity and fleet
/// metrics print every field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Dispatches that rolled for faults.
    pub queries: u64,
    /// Injected faults, indexed by [`FaultKind::index`].
    pub injected_by_kind: [u64; FaultKind::COUNT],
    /// Faulted dispatches detected at completion.
    pub detected: u64,
    /// Undetected faults whose outcome was still correct (a slow-unit
    /// dispatch that completed).
    pub masked: u64,
    /// Undetected faults that changed the final verdict (no writer).
    pub escaped: u64,
    /// Retries of a faulted dispatch.
    pub redispatches: u64,
    /// Queries resolved conservatively ("collision wins") after the
    /// re-dispatch budget ran out (no writer).
    pub conservative_promotions: u64,
    /// Instances quarantined after repeated strikes.
    pub quarantined: u64,
    /// Software-oracle spot checks of free verdicts (no writer).
    pub oracle_checks: u64,
    /// Spot checks that promoted a free verdict to collision (no writer).
    pub oracle_overrides: u64,
    /// Wrong-free verdicts delivered (no writer).
    pub false_negatives: u64,
    /// Wrong-colliding verdicts delivered (no writer).
    pub false_positives: u64,
}

impl ResilienceCounters {
    /// Injected faults of one kind.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected_by_kind[kind.index()]
    }

    /// Total injected faults across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected_by_kind.iter().sum()
    }

    /// Accumulates another counter set into this one (a run sums its
    /// per-instance injector counters).
    pub fn merge(&mut self, other: &ResilienceCounters) {
        self.queries += other.queries;
        for (into, from) in self
            .injected_by_kind
            .iter_mut()
            .zip(other.injected_by_kind.iter())
        {
            *into += from;
        }
        self.detected += other.detected;
        self.masked += other.masked;
        self.escaped += other.escaped;
        self.redispatches += other.redispatches;
        self.conservative_promotions += other.conservative_promotions;
        self.quarantined += other.quarantined;
        self.oracle_checks += other.oracle_checks;
        self.oracle_overrides += other.oracle_overrides;
        self.false_negatives += other.false_negatives;
        self.false_positives += other.false_positives;
    }

    /// Exports the counters into a telemetry registry under
    /// `<prefix>.<field>` names (per-kind injections under
    /// `<prefix>.injected.<kind label>`).
    pub fn export_into(&self, prefix: &str, registry: &mp_telemetry::Registry) {
        registry.set_counter(&format!("{prefix}.queries"), self.queries);
        for kind in FaultKind::ALL {
            registry.set_counter(
                &format!("{prefix}.injected.{}", kind.label()),
                self.injected(kind),
            );
        }
        registry.set_counter(&format!("{prefix}.detected"), self.detected);
        registry.set_counter(&format!("{prefix}.masked"), self.masked);
        registry.set_counter(&format!("{prefix}.escaped"), self.escaped);
        registry.set_counter(&format!("{prefix}.redispatches"), self.redispatches);
        registry.set_counter(
            &format!("{prefix}.conservative_promotions"),
            self.conservative_promotions,
        );
        registry.set_counter(&format!("{prefix}.quarantined"), self.quarantined);
        registry.set_counter(&format!("{prefix}.oracle_checks"), self.oracle_checks);
        registry.set_counter(&format!("{prefix}.oracle_overrides"), self.oracle_overrides);
        registry.set_counter(&format!("{prefix}.false_negatives"), self.false_negatives);
        registry.set_counter(&format!("{prefix}.false_positives"), self.false_positives);
    }
}

/// The kinds of *shard-level* failure the fleet chaos injector can
/// introduce. Dispatch faults ([`FaultKind`]) strike one dispatch on one
/// accelerator; shard failures take a whole service shard — its
/// queue, its accelerator pool, its in-flight requests — out of the
/// serving set at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShardFaultKind {
    /// The shard dies outright: queued and in-flight requests are lost
    /// unless the fleet fails them over, and the ring must route around
    /// it until it rejoins.
    Crash,
    /// The shard keeps serving but every dispatch runs several times
    /// slower than modeled (event-loop stall, thermal throttling, a noisy
    /// neighbor on the host) — the latency-tail case hedging exists for.
    Stall,
    /// The shard flaps: a burst of short crash/rejoin cycles, the worst
    /// case for failover bookkeeping and catch-up admission.
    Flap,
}

impl ShardFaultKind {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ShardFaultKind::Crash => "crash",
            ShardFaultKind::Stall => "stall",
            ShardFaultKind::Flap => "flap",
        }
    }
}

/// One scheduled shard failure: at `at_ns`, shard `shard` suffers `kind`
/// for `duration_ns` (for [`ShardFaultKind::Stall`], dispatches begun in
/// the window run `slow_factor`× slower; a `Flap` is expanded into short
/// crashes by [`ShardFaultPlan::schedule`], so schedules only ever
/// contain crashes and stalls).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardFaultEvent {
    /// Virtual time the failure begins (ns).
    pub at_ns: u64,
    /// Index of the afflicted shard.
    pub shard: usize,
    /// What happens to it.
    pub kind: ShardFaultKind,
    /// How long the failure lasts (ns).
    pub duration_ns: u64,
    /// Service-time multiplier while stalled (ignored for crashes).
    pub slow_factor: u64,
}

/// A seeded shard-failure campaign: scripted kills (the reproducible
/// "kill 2 of 16 shards mid-run" scenario) plus per-shard random crash /
/// stall / flap processes. A plan is a pure function of its seed, so a
/// chaos soak replays identically on any machine.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardFaultPlan {
    /// Seed for the random failure processes.
    pub seed: u64,
    /// Explicitly scheduled failures, applied verbatim (flaps expanded).
    pub scripted: Vec<ShardFaultEvent>,
    /// Poisson rate of random crashes per shard per second.
    pub crash_rate_per_s: f64,
    /// Downtime of a random crash (µs).
    pub crash_down_us: u64,
    /// Poisson rate of random stalls per shard per second.
    pub stall_rate_per_s: f64,
    /// Length of a random stall (µs).
    pub stall_dur_us: u64,
    /// Service-time multiplier while stalled.
    pub stall_factor: u64,
    /// Poisson rate of random flap episodes per shard per second.
    pub flap_rate_per_s: f64,
    /// Crash/rejoin cycles per flap episode.
    pub flap_cycles: u32,
    /// Length of one flap cycle (µs); the shard is down for half of it.
    pub flap_period_us: u64,
}

impl ShardFaultPlan {
    /// A failure-free plan.
    pub fn none(seed: u64) -> ShardFaultPlan {
        ShardFaultPlan {
            seed,
            scripted: Vec::new(),
            crash_rate_per_s: 0.0,
            crash_down_us: 10_000,
            stall_rate_per_s: 0.0,
            stall_dur_us: 5_000,
            stall_factor: 8,
            flap_rate_per_s: 0.0,
            flap_cycles: 3,
            flap_period_us: 2_000,
        }
    }

    /// A plan with only the given scripted failures.
    pub fn scripted(seed: u64, events: Vec<ShardFaultEvent>) -> ShardFaultPlan {
        ShardFaultPlan {
            scripted: events,
            ..ShardFaultPlan::none(seed)
        }
    }

    /// Expands the plan into the failure schedule for a fleet of
    /// `shards` shards over `duration_ns` of virtual time: scripted
    /// events plus seeded Poisson draws per shard per kind, flaps
    /// unrolled into short crashes, sorted by `(at_ns, shard, kind)` so
    /// the schedule is deterministic and stable.
    pub fn schedule(&self, shards: usize, duration_ns: u64) -> Vec<ShardFaultEvent> {
        let mut out = Vec::new();
        for ev in &self.scripted {
            if ev.shard >= shards || ev.at_ns >= duration_ns {
                continue;
            }
            if ev.kind == ShardFaultKind::Flap {
                self.push_flap(&mut out, ev.shard, ev.at_ns);
            } else {
                out.push(*ev);
            }
        }
        for shard in 0..shards {
            let base = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(shard as u64);
            for at in poisson_times(base ^ 0xC4A5, self.crash_rate_per_s, duration_ns) {
                out.push(ShardFaultEvent {
                    at_ns: at,
                    shard,
                    kind: ShardFaultKind::Crash,
                    duration_ns: self.crash_down_us * 1_000,
                    slow_factor: 1,
                });
            }
            for at in poisson_times(base ^ 0x57A1, self.stall_rate_per_s, duration_ns) {
                out.push(ShardFaultEvent {
                    at_ns: at,
                    shard,
                    kind: ShardFaultKind::Stall,
                    duration_ns: self.stall_dur_us * 1_000,
                    slow_factor: self.stall_factor.max(2),
                });
            }
            for at in poisson_times(base ^ 0xF1A9, self.flap_rate_per_s, duration_ns) {
                self.push_flap(&mut out, shard, at);
            }
        }
        out.sort_by_key(|e| (e.at_ns, e.shard, e.kind.label()));
        out
    }

    /// Unrolls one flap episode into its crash/rejoin cycles.
    fn push_flap(&self, out: &mut Vec<ShardFaultEvent>, shard: usize, at_ns: u64) {
        let period = self.flap_period_us.max(2) * 1_000;
        for cycle in 0..self.flap_cycles.max(1) as u64 {
            out.push(ShardFaultEvent {
                at_ns: at_ns + cycle * period,
                shard,
                kind: ShardFaultKind::Crash,
                duration_ns: period / 2,
                slow_factor: 1,
            });
        }
    }
}

/// A seeded silent-data-corruption campaign: a delivered CD verdict
/// arrives inverted with its result-bus parity recomputed over the corrupt
/// payload, so the bus check passes (an upset in the completion datapath
/// *after* the checker, the classic SDC case). No detection mechanism
/// (parity, structural decode checks, result-bus tags) sees it; only
/// revalidating the *plan* the accelerator's verdicts produced can.
///
/// Like [`FaultPlan`], a plan is a pure function of its fields, so a
/// campaign replays bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SdcPlan {
    /// Seed for the injector's RNG stream.
    pub seed: u64,
    /// Probability a delivered CD verdict is silently inverted, per
    /// dispatched query.
    pub verdict_flip_rate: f64,
}

impl SdcPlan {
    /// A silent-fault-free plan.
    pub fn none(seed: u64) -> SdcPlan {
        SdcPlan {
            seed,
            verdict_flip_rate: 0.0,
        }
    }

    /// A plan flipping verdicts at `rate` (clamped to `0.0..=1.0`).
    pub fn uniform(rate: f64, seed: u64) -> SdcPlan {
        SdcPlan {
            seed,
            verdict_flip_rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The rate multiplied by `factor` (clamped to `0.0..=1.0`): the
    /// per-instance corruption knob — a fleet gives its "liar" instance a
    /// scaled copy of the shared plan.
    pub fn scaled(mut self, factor: f64) -> SdcPlan {
        self.verdict_flip_rate = (self.verdict_flip_rate * factor).clamp(0.0, 1.0);
        self
    }

    /// The same plan on a decorrelated per-instance RNG stream.
    pub fn stream(mut self, instance: u64) -> SdcPlan {
        self.seed = mix(self.seed ^ 0x5DC0_5DC0_5DC0_5DC0 ^ instance.wrapping_mul(0x9E37_79B9));
        self
    }
}

/// A deterministic, seeded fault injector.
///
/// # Examples
///
/// ```
/// use mp_sim::fault::{FaultInjector, FaultKind, FaultPlan};
///
/// let mut inj = FaultInjector::new(FaultPlan::uniform(1.0, 7));
/// assert!(inj.fires(FaultKind::SramBitFlip));
/// assert_eq!(inj.counters().injected(FaultKind::SramBitFlip), 1);
/// ```
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    counters: ResilienceCounters,
}

/// Sorted Poisson event times in `[0, duration_ns)` at `rate_per_s`,
/// seeded: event k draws the k-th value of the SplitMix64 stream of
/// `seed`, `mix(seed + k·GAMMA)`.
fn poisson_times(seed: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    if rate_per_s <= 0.0 || duration_ns == 0 {
        return Vec::new();
    }
    let rate_per_ns = rate_per_s * 1e-9;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    for k in 0u64.. {
        let u = unit(mix(seed.wrapping_add(k.wrapping_mul(GAMMA))));
        t += exp_ns(u, rate_per_ns);
        if t >= duration_ns as f64 {
            break;
        }
        out.push(t as u64);
    }
    out
}

impl FaultInjector {
    /// Creates an injector for a plan; identical plans yield identical
    /// fault sequences.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            rng: Rng::new(plan.seed),
            plan,
            counters: ResilienceCounters::default(),
        }
    }

    /// The accumulated resilience counters.
    pub fn counters(&self) -> &ResilienceCounters {
        &self.counters
    }

    /// Mutable counters, for the service to record detections, retries
    /// and quarantines.
    pub fn counters_mut(&mut self) -> &mut ResilienceCounters {
        &mut self.counters
    }

    /// Decides whether a fault of `kind` strikes at this opportunity and
    /// records the injection when it does. Only call this at points where
    /// the fault can actually be applied.
    pub fn fires(&mut self, kind: FaultKind) -> bool {
        let rate = self.plan.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        let fire = self.rng.unit_f64() < rate;
        if fire {
            self.counters.injected_by_kind[kind.index()] += 1;
        }
        fire
    }
}

/// A deterministic, seeded *silent*-fault injector: the corruption
/// source the integrity pipeline (certification → voting → scrub)
/// exists to defend against. Kept separate from [`FaultInjector`] so
/// adding SDC to a campaign never perturbs the detected-fault streams.
///
/// # Examples
///
/// ```
/// use mp_sim::fault::{SdcInjector, SdcPlan};
///
/// let mut inj = SdcInjector::new(SdcPlan::uniform(1.0, 7));
/// assert!(inj.flips_verdict());
/// assert!(!SdcInjector::new(SdcPlan::none(7)).flips_verdict());
/// ```
#[derive(Clone, Debug)]
pub struct SdcInjector {
    rate: f64,
    rng: Rng,
}

impl SdcInjector {
    /// Creates an injector for a plan; identical plans yield identical
    /// corruption sequences.
    pub fn new(plan: SdcPlan) -> SdcInjector {
        SdcInjector {
            rate: plan.verdict_flip_rate,
            rng: Rng::new(plan.seed),
        }
    }

    /// Whether this dispatch's delivered verdict is silently inverted.
    /// One RNG draw per call, fired or not, whenever the rate is positive
    /// (none at a zero rate), so streams stay aligned across policies.
    pub fn flips_verdict(&mut self) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        self.rng.unit_f64() < self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic() {
        let plan = FaultPlan::uniform(0.3, 42);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for _ in 0..500 {
            for kind in FaultKind::ALL {
                assert_eq!(a.fires(kind), b.fires(kind));
            }
        }
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(0.25, 9));
        let n = 4000;
        let hits = (0..n)
            .filter(|_| inj.fires(FaultKind::DroppedResult))
            .count();
        let frac = hits as f64 / n as f64;
        assert!((0.2..0.3).contains(&frac), "hit rate {frac}");
        assert_eq!(
            inj.counters().injected(FaultKind::DroppedResult),
            hits as u64
        );
        assert_eq!(inj.counters().injected_total(), hits as u64);
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none(1));
        for _ in 0..1000 {
            for kind in FaultKind::ALL {
                assert!(!inj.fires(kind));
            }
        }
        assert_eq!(inj.counters().injected_total(), 0);
    }

    #[test]
    fn per_kind_rates_are_independent() {
        let plan = FaultPlan::none(5).with_rate(FaultKind::StuckUnit, 1.0);
        let mut inj = FaultInjector::new(plan);
        assert!(inj.fires(FaultKind::StuckUnit));
        assert!(!inj.fires(FaultKind::SramBitFlip));
        assert_eq!(inj.counters().injected(FaultKind::StuckUnit), 1);
        assert_eq!(inj.counters().injected(FaultKind::SramBitFlip), 0);
    }

    #[test]
    fn shard_plan_schedule_is_deterministic_and_sorted() {
        let plan = ShardFaultPlan {
            crash_rate_per_s: 40.0,
            stall_rate_per_s: 20.0,
            flap_rate_per_s: 10.0,
            ..ShardFaultPlan::none(9)
        };
        let a = plan.schedule(8, 200_000_000);
        let b = plan.schedule(8, 200_000_000);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "rates this high must draw events");
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "unsorted");
        assert!(a.iter().all(|e| e.shard < 8 && e.at_ns < 200_000_000));
        // Flaps were unrolled: only crashes and stalls survive expansion.
        assert!(a.iter().all(|e| e.kind != ShardFaultKind::Flap));
        let other = ShardFaultPlan { seed: 10, ..plan };
        assert_ne!(other.schedule(8, 200_000_000), a);
    }

    #[test]
    fn scripted_kills_survive_and_flaps_unroll() {
        let kill = |shard, at_ns| ShardFaultEvent {
            at_ns,
            shard,
            kind: ShardFaultKind::Crash,
            duration_ns: 5_000_000,
            slow_factor: 1,
        };
        let flap = ShardFaultEvent {
            at_ns: 1_000,
            shard: 1,
            kind: ShardFaultKind::Flap,
            duration_ns: 0,
            slow_factor: 1,
        };
        let plan = ShardFaultPlan::scripted(3, vec![kill(2, 10_000), kill(9, 10_000), flap]);
        let sched = plan.schedule(4, 100_000_000);
        // Shard 9 is out of range for a 4-shard fleet and is dropped.
        assert!(sched.iter().all(|e| e.shard < 4));
        assert_eq!(
            sched
                .iter()
                .filter(|e| e.shard == 1 && e.kind == ShardFaultKind::Crash)
                .count(),
            plan.flap_cycles as usize,
            "the flap unrolls into its crash cycles"
        );
        assert!(sched.iter().any(|e| e.shard == 2 && e.at_ns == 10_000));
        assert!(ShardFaultPlan::none(0).schedule(16, 1_000_000).is_empty());
    }

    #[test]
    fn sdc_injector_is_deterministic() {
        let plan = SdcPlan::uniform(0.3, 77);
        let mut a = SdcInjector::new(plan);
        let mut b = SdcInjector::new(plan);
        for _ in 0..500 {
            assert_eq!(a.flips_verdict(), b.flips_verdict());
        }
        let mut c = SdcInjector::new(plan.stream(1));
        let flips: Vec<bool> = (0..64).map(|_| c.flips_verdict()).collect();
        let mut d = SdcInjector::new(plan);
        assert_ne!(
            flips,
            (0..64).map(|_| d.flips_verdict()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sdc_zero_rate_never_fires_and_scaling_clamps() {
        let mut inj = SdcInjector::new(SdcPlan::none(4));
        for _ in 0..500 {
            assert!(!inj.flips_verdict());
        }
        let hot = SdcPlan::uniform(0.4, 4).scaled(10.0);
        assert_eq!(hot.verdict_flip_rate, 1.0);
        assert_eq!(SdcPlan::uniform(0.4, 4).scaled(0.0).verdict_flip_rate, 0.0);
    }

    #[test]
    fn counters_track_recovery_fields() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(1.0, 2));
        let _ = inj.fires(FaultKind::Saturation);
        inj.counters_mut().detected += 2;
        inj.counters_mut().redispatches += 1;
        inj.counters_mut().masked += 1;
        let c = *inj.counters();
        assert_eq!(c.detected, 2);
        assert_eq!(c.redispatches, 1);
        assert_eq!(c.masked, 1);
    }
}
