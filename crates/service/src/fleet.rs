//! The planning fleet: the one discrete-event loop behind both
//! [`run_fleet`] and the single planning service
//! ([`crate::service::run_service`]), which runs it as a one-shard fleet
//! with hedging, failover, fairness and chaos off.
//!
//! A fleet is N shards, each a bounded queue in front of its own
//! accelerator pool (dispatcher, fault injectors, degradation ladder,
//! circuit breakers, integrity state), joined by a router:
//!
//! ```text
//!  tenants ─► token buckets ─► consistent-hash ring ─► shard 0..N
//!  (arrival    (per-tenant      (tenant, key) → primary,  each: fair
//!   streams)    admission)       bounded-load p2c spill    queue + pool
//!                                       │                      │
//!                  hedge after deadline-aware delay       chaos: crash /
//!                  (duplicate to second shard,            stall / flap →
//!                   first response wins)                  failover + rejoin
//! ```
//!
//! Inside a shard, a dispatcher moves requests onto the first idle
//! healthy instance of its [`AcceleratorPool`] at a tier the congestion
//! controller and the remaining slack allow; per-instance
//! [`FaultInjector`]s strike dispatches, which retry with exponential
//! backoff until the circuit breaker quarantines a persistently faulty
//! instance; and the integrity pipeline certifies, votes on, and scrubs
//! silently corrupted plans.
//!
//! Robustness mechanics, all deterministic in virtual time:
//!
//! * **Routing** ([`crate::ring`]): requests hash by `(tenant, key)` to a
//!   primary shard; the bounded-load power-of-two-choices rule spills to
//!   the deterministic second choice when the primary's queue runs ahead
//!   of the fleet average. A request's ring slot is hashed once, at
//!   arrival, and kept for its hedge and failover lookups.
//! * **Chaos & failover** (`mp_sim::fault::ShardFaultPlan`): seeded
//!   crashes, stalls, and flaps. A defended fleet removes a dead shard
//!   from the ring and re-enqueues its queued *and* in-flight requests on
//!   surviving shards under a per-request failover budget; on rejoin the
//!   shard re-enters the ring behind a catch-up window that keeps routing
//!   spilling away until it drains. An undefended fleet keeps sending a
//!   dead shard its keys and loses them.
//! * **Hedging**: a request still unresolved after a deadline-aware delay
//!   (`min(hedge delay, slack/2)`) is duplicated to the next distinct
//!   ring shard; the first completion wins and stragglers are counted,
//!   not served twice to the tenant. The delay is constant per tenant,
//!   so hedge timers ride the event queue's FIFO lane
//!   ([`EventQueue::push_fifo`]).
//! * **Tenant isolation** ([`crate::tenant`]): per-tenant token buckets
//!   at the fleet door and weighted fair queueing inside every shard, so
//!   an adversarial tenant throttles and starves itself, not its
//!   neighbors.
//!
//! One run is a single-threaded discrete-event simulation over one
//! global event queue, so a 16-shard chaos soak is a pure function of its
//! configuration — byte-identical on any machine at any thread count.
//!
//! Telemetry uses one vocabulary whichever entry point runs the loop:
//! `service` instants, per-instance `inst/N` occupancy spans and `rail/N`
//! power tracks, a per-shard `queue/N` depth track, and flight-recorder
//! incidents that each name their shard.

use mp_planner::QualityTier;
use mp_sim::fault::{FaultInjector, FaultKind, FaultPlan, SdcPlan, ShardFaultKind, ShardFaultPlan};
use mp_sim::mix;
use mp_sim::vtime::{EventQueue, VirtualNs, NS_PER_US};
use mp_telemetry::{self as telemetry, arg2, ArgValue, Args, IncidentKind, Lane};
use mpaccel_core::pool::AcceleratorPool;

use crate::breaker;
use crate::catalog::PlanCatalog;
use crate::degrade::load_tier;
use crate::integrity::{IntegrityState, SCRUB_PERIOD_US};
use crate::metrics::{FleetSummary, ServiceSummary, ShardStats, TenantStats};
use crate::request::{Request, ShedReason, TenantSpec, Verdict};
use crate::ring::{HashRing, Slot};
use crate::service::{ServiceConfig, BACKOFF_US, MAX_RETRIES, QUEUE_CAPACITY, SLOW_FACTOR};
use crate::tenant::{FairQueue, TenantPolicy, TokenBucket};

/// Virtual nodes per shard on the consistent-hash ring.
pub const VNODES_PER_SHARD: usize = 16;

/// Bounded-load spill threshold as a percentage of the fleet-average
/// load (125 = spill when the primary exceeds 1.25× average).
pub const SPILL_BOUND_PCT: u64 = 125;

/// Base hedge delay in µs; the effective delay is deadline-aware:
/// `min(HEDGE_DELAY_US, slack/2)` so tight-deadline requests hedge sooner.
pub const HEDGE_DELAY_US: u64 = 400;

/// Times one request may be re-routed off dying shards before it is
/// abandoned as lost.
pub const MAX_FAILOVERS: u32 = 2;

/// Catch-up window after a rejoin (µs): the shard re-enters the ring but
/// reports itself overloaded, so bounded-load routing keeps spilling new
/// arrivals elsewhere while it drains.
pub const CATCHUP_US: u64 = 5_000;

/// Full configuration of one fleet run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetConfig {
    /// Number of shards.
    pub shards: usize,
    /// Per-shard service configuration (instances, queue, degradation,
    /// accelerator faults, integrity). The shard seed is ignored; `seed`
    /// below governs the whole fleet.
    pub shard: ServiceConfig,
    /// Hedged requests: a request still unresolved after the
    /// deadline-aware [`HEDGE_DELAY_US`] is duplicated to a second shard.
    pub hedge: bool,
    /// Shard-failure handling (re-routing under [`MAX_FAILOVERS`], rejoin
    /// behind a [`CATCHUP_US`] window). Off models the undefended
    /// baseline: the ring keeps routing to dead shards and their requests
    /// are lost.
    pub failover: bool,
    /// Per-tenant isolation (token buckets + weighted fair queueing).
    /// Off collapses every shard queue to one shared bounded FIFO/EDF
    /// queue and admits all traffic.
    pub fairness: bool,
    /// Fleet seed (request keys, ring placement, fault streams).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            shard: ServiceConfig::default(),
            hedge: true,
            failover: true,
            fairness: true,
            seed: 0,
        }
    }
}

/// Bench horizon for integrity quarantines: far enough that only a scrub
/// readmission brings the instance back, finite so pool arithmetic never
/// overflows.
const BENCH_HORIZON_NS: VirtualNs = VirtualNs::MAX / 4;

/// The dispatcher's tier decision for one request: the congestion
/// controller's base tier, raised to the request's floor from failed
/// attempts, then stepped down the ladder until the tier fits the
/// remaining slack. `None` means no admissible tier fits (the
/// hopeless-shed case; never returned when admission control is off).
fn choose_tier(
    catalog: &PlanCatalog,
    cfg: &ServiceConfig,
    req: &Request,
    queued: usize,
    healthy: usize,
    now: VirtualNs,
) -> Option<usize> {
    let base = if cfg.degrade {
        load_tier(queued, healthy)
    } else {
        QualityTier::Full
    };
    let mut tier_idx = base.index().max(req.tier_floor);
    if cfg.admission {
        let slack = req.slack_ns(now);
        while cfg.degrade
            && tier_idx + 1 < QualityTier::COUNT
            && catalog.service_ns(req.key, tier_idx) > slack
        {
            tier_idx += 1;
        }
        if catalog.service_ns(req.key, tier_idx) > slack {
            return None;
        }
    }
    Some(tier_idx)
}

/// Rolls the fault environment for one dispatch. A slow-unit fault
/// stretches the service time but still completes (masked); every other
/// kind wastes the dispatch (detected at completion) and is returned for
/// the retry path.
fn roll_dispatch_fault(inj: &mut FaultInjector, service_ns: &mut VirtualNs) -> Option<FaultKind> {
    inj.counters_mut().queries += 1;
    let mut fault = FaultKind::ALL.into_iter().find(|&k| inj.fires(k));
    if fault == Some(FaultKind::SlowUnit) {
        *service_ns *= SLOW_FACTOR;
        inj.counters_mut().masked += 1;
        fault = None;
    }
    fault
}

/// One running dispatch, carried whole by its completion event: an
/// instance freed at exactly the completion timestamp can be re-acquired
/// by an earlier-queued event before the completion pops, so the
/// instance's inflight slot may already hold the next dispatch. Fields
/// are packed so the event stays within 24 bytes.
#[derive(Clone, Copy, Debug)]
struct Dispatch {
    req: u32,
    /// Shard crash epoch at dispatch; completions from older epochs are
    /// crash casualties.
    epoch: u32,
    /// Per-shard dispatch token, matched against the inflight slot.
    token: u32,
    shard: u16,
    inst: u16,
    tier: u8,
    fault: Option<FaultKind>,
    voted: bool,
}

// A plain one-byte tag: left to itself the compiler hides the tag in a
// niche of `Dispatch`, which every event pop then has to decode.
#[repr(u8)]
enum Event {
    /// A request copy (re-)enters a shard's queue (retry backoff,
    /// certification re-plan, failover re-route).
    Enqueue { shard: u16, req: u32 },
    /// A dispatch finishes.
    Complete(Dispatch),
    /// Re-run the given shard's dispatcher at an instant no completion
    /// covers (a quarantine expiry).
    Wake(u16),
    /// Hedge check: duplicate the request if it is still unresolved.
    Hedge(u32),
    /// Index into the precomputed chaos schedule fires.
    Chaos(u32),
    /// A crashed shard comes back.
    Rejoin(u16),
    /// Run one known-answer scrub probe against a benched instance.
    Scrub { shard: u16, inst: u16 },
}

// Completions are the most frequent event; keep every event this small.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// Fleet-side per-request state (the [`Request`] itself carries the
/// per-dispatch fields), packed like the events.
#[derive(Clone, Copy, Debug, Default)]
struct ReqState {
    /// The route key's ring slot, hashed once at arrival.
    slot: Slot,
    /// Shard the request was first enqueued on.
    primary: u16,
    /// Shard the hedge duplicate landed on, once one was fired.
    twin: Option<u16>,
    /// Live copies (queued or in flight) across shards. When the last
    /// copy dies without a completion, the request resolves failed.
    copies: u16,
    /// Failover re-routes consumed.
    failovers: u32,
}

/// One served request's latency and where it was served, for the fleet,
/// shard, and tenant latency histograms.
#[derive(Clone, Copy)]
struct Served {
    latency_ns: VirtualNs,
    shard: u16,
    tenant: u32,
}

/// An idle inflight slot.
const IDLE: (usize, u32) = (usize::MAX, 0);

struct Shard {
    queue: FairQueue,
    pool: AcceleratorPool,
    injectors: Vec<FaultInjector>,
    /// Silent-corruption streams, suspicion scoreboard, and scrub state
    /// for this shard's instances. Survives crash epochs: SDC is a
    /// property of the silicon, not of the queue the crash wiped.
    integrity: IntegrityState,
    /// Per-instance `(request, dispatch token)` of the running dispatch
    /// ([`IDLE`] when idle); the token disambiguates back-to-back
    /// dispatches that share a timestamp.
    inflight: Vec<(usize, u32)>,
    /// Wrapping per-shard dispatch counter feeding the tokens.
    dispatch_seq: u32,
    /// Earliest outstanding wake, if any; a later instant waits for it
    /// to pop and re-arm. Wakes go only to instants no completion marks
    /// ([`AcceleratorPool::next_unmarked_at`]): every running dispatch's
    /// `busy_until` has a `Complete` event at that instant, pushed when
    /// the dispatch began and so ahead of any wake for the same instant,
    /// and the loop re-runs the shard's dispatcher after every
    /// completion. A wake there would find the shard already served, so
    /// in practice the only wakes left are quarantine expiries.
    wake_at: Option<VirtualNs>,
    alive: bool,
    /// Crash epoch; completions from older epochs are ignored.
    epoch: u32,
    /// Dispatches begun before this instant run `stall_factor`× slower.
    stall_until: VirtualNs,
    stall_factor: u64,
    /// Until this instant the shard reports itself overloaded to the
    /// router (post-rejoin catch-up).
    catchup_until: VirtualNs,
    /// Pool busy-ns / quarantines accumulated across crash epochs (the
    /// pool itself is rebuilt on every crash).
    busy_accum: u64,
    quar_accum: u64,
    stats: ShardStats,
}

impl Shard {
    /// A fresh shard whose fault and silent-corruption streams derive
    /// from `(cfg.seed, salt, instance)`. The standalone service uses
    /// salt 0 and fleet shard `s` salt `s + 1`.
    fn new(cfg: &FleetConfig, weights: &[u64], salt: u64) -> Shard {
        let sc = &cfg.shard;
        let faults = &sc.faults;
        let injectors = (0..sc.instances)
            .map(|i| {
                let rate = faults.rate_per_kind
                    * if faults.lemon == Some(i) {
                        faults.lemon_factor
                    } else {
                        1.0
                    };
                FaultInjector::new(FaultPlan::uniform(
                    rate.min(0.9),
                    mix(cfg.seed ^ 0xFA17_0000 ^ (salt << 8) ^ i as u64),
                ))
            })
            .collect();
        let sdc = SdcPlan {
            seed: mix(cfg.seed ^ 0x5DC0_0000 ^ (salt << 8)),
            verdict_flip_rate: faults.sdc_rate,
        };
        // The naive baseline queues without bound (capped only to keep
        // the share arithmetic in range).
        let capacity = if sc.admission {
            QUEUE_CAPACITY
        } else {
            1 << 32
        };
        Shard {
            queue: FairQueue::new(sc.policy, capacity, weights, cfg.fairness),
            pool: AcceleratorPool::new(sc.instances),
            injectors,
            integrity: IntegrityState::new(
                sc.integrity,
                sdc,
                sc.instances,
                faults.sdc_hot,
                faults.sdc_hot_factor,
                salt,
            ),
            inflight: vec![IDLE; sc.instances],
            dispatch_seq: 0,
            wake_at: None,
            alive: true,
            epoch: 0,
            stall_until: 0,
            stall_factor: 1,
            catchup_until: 0,
            busy_accum: 0,
            quar_accum: 0,
            stats: ShardStats::default(),
        }
    }
}

/// Trace arguments naming a request and its shard.
fn req_shard(id: usize, s: usize) -> Args {
    arg2(
        "req",
        ArgValue::U64(id as u64),
        "shard",
        ArgValue::U64(s as u64),
    )
}

/// Trace arguments naming an instance and its shard.
fn shard_inst(s: usize, inst: usize) -> Args {
    arg2(
        "shard",
        ArgValue::U64(s as u64),
        "inst",
        ArgValue::U64(inst as u64),
    )
}

/// Records a loop event as a `service` instant and, when a flight
/// recorder is installed, as an incident of the same kind whose detail is
/// only formatted then.
fn report(kind: IncidentKind, args: Args, detail: impl FnOnce() -> String) {
    telemetry::instant_args("service", kind.label(), args);
    if telemetry::active() {
        telemetry::incident_kind(kind, &detail());
    }
}

struct Fleet<'a> {
    catalog: &'a PlanCatalog,
    cfg: &'a FleetConfig,
    ring: HashRing,
    reqs: Vec<Request>,
    states: Vec<ReqState>,
    shards: Vec<Shard>,
    buckets: Vec<Option<TokenBucket>>,
    events: EventQueue<Event>,
    chaos: Vec<mp_sim::fault::ShardFaultEvent>,
    summary: FleetSummary,
    tenants: Vec<TenantStats>,
    served: Vec<Served>,
    /// Per-shard router loads, refilled by [`Fleet::fill_loads`] before
    /// each routing decision.
    loads: Vec<usize>,
    /// Requests resolved so far; once every request has a verdict the
    /// scrub schedules stop re-arming and the event queue drains.
    resolved: usize,
}

impl Fleet<'_> {
    /// Fleet-global index of shard `s`'s instance `inst`, naming its
    /// occupancy and power-rail trace lanes.
    fn lane(&self, what: &'static str, s: usize, inst: usize) -> Lane {
        Lane::new(what, (s * self.cfg.shard.instances + inst) as u32)
    }

    /// Ring route key of request `id`: its `(tenant, catalog key)`.
    fn route_key(&self, id: usize) -> u64 {
        ((self.reqs[id].tenant as u64) << 40) ^ self.reqs[id].key as u64
    }

    fn schedule_wake(&mut self, s: usize, at: VirtualNs) {
        if self.shards[s].wake_at.is_none_or(|w| at < w) {
            self.shards[s].wake_at = Some(at);
            self.events.push(at, Event::Wake(s as u16));
        }
    }

    fn resolve(&mut self, id: usize, verdict: Verdict) {
        debug_assert!(self.reqs[id].verdict.is_none(), "request resolved twice");
        let t = self.reqs[id].tenant;
        let fleet = &mut self.summary.fleet;
        match verdict {
            Verdict::OnTime { .. } => {
                fleet.on_time += 1;
                self.tenants[t].on_time += 1;
            }
            Verdict::Late { .. } => {
                fleet.late += 1;
                self.tenants[t].late += 1;
            }
            Verdict::Shed(reason) => {
                match reason {
                    ShedReason::QueueFull => fleet.shed_queue_full += 1,
                    ShedReason::Hopeless => fleet.shed_hopeless += 1,
                    ShedReason::Throttled => fleet.shed_throttled += 1,
                    ShedReason::ShardLost => fleet.shed_shard_lost += 1,
                }
                if reason == ShedReason::Throttled {
                    self.tenants[t].throttled += 1;
                } else {
                    self.tenants[t].shed += 1;
                }
            }
            Verdict::FailedFaults => fleet.failed_faults += 1,
            Verdict::Unsolved => fleet.unsolved += 1,
        }
        self.reqs[id].verdict = Some(verdict);
        self.resolved += 1;
    }

    /// One copy of `id` dies (shed, lost, exhausted). When it was the
    /// last live copy and no twin completed, the request resolves with
    /// `verdict`.
    fn copy_dies(&mut self, id: usize, verdict: Verdict) {
        let st = &mut self.states[id];
        st.copies = st.copies.saturating_sub(1);
        if st.copies == 0 && self.reqs[id].verdict.is_none() {
            self.resolve(id, verdict);
        }
    }

    /// Refills `loads` with the per-shard router load: queued plus
    /// running copies, inflated for shards still in their post-rejoin
    /// catch-up window.
    fn fill_loads(&mut self, now: VirtualNs) {
        for (l, sh) in self.loads.iter_mut().zip(&self.shards) {
            let running = sh.inflight.iter().filter(|e| e.0 != usize::MAX).count();
            *l = sh.queue.len() + running;
            if now < sh.catchup_until {
                *l += QUEUE_CAPACITY;
            }
        }
    }

    /// Queues a copy of `id` on shard `s`. Returns `false` when the
    /// tenant's queue share is full (the caller decides what that means).
    fn try_enqueue(&mut self, s: usize, id: usize) -> bool {
        let (t, deadline) = (self.reqs[id].tenant, self.reqs[id].deadline_ns);
        let sh = &mut self.shards[s];
        if !sh.queue.try_push(t, id, deadline) {
            return false;
        }
        sh.stats.offered += 1;
        telemetry::counter_on(
            Lane::new("queue", s as u32),
            "queue_depth",
            sh.queue.len() as f64,
        );
        true
    }

    /// Queues a copy of `id` on shard `s`, or sheds that copy when the
    /// tenant's queue share is full. Returns whether it was queued.
    fn enqueue(&mut self, s: usize, id: usize, now: VirtualNs) -> bool {
        if self.try_enqueue(s, id) {
            return true;
        }
        self.shards[s].stats.sheds += 1;
        report(IncidentKind::ShedQueueFull, req_shard(id, s), || {
            format!("req={id} shard={s} t_ns={now}")
        });
        self.copy_dies(id, Verdict::Shed(ShedReason::QueueFull));
        false
    }

    /// A request reaches the fleet door: admission, routing, enqueue.
    fn arrive(&mut self, id: usize, now: VirtualNs) {
        let t = self.reqs[id].tenant;
        if self.cfg.fairness {
            if let Some(bucket) = &mut self.buckets[t] {
                if !bucket.try_take(now) {
                    telemetry::instant_args(
                        "service",
                        "throttled",
                        arg2(
                            "req",
                            ArgValue::U64(id as u64),
                            "tenant",
                            ArgValue::U64(t as u64),
                        ),
                    );
                    self.resolve(id, Verdict::Shed(ShedReason::Throttled));
                    return;
                }
            }
        }
        let slot = self.ring.slot(self.route_key(id));
        self.states[id].slot = slot;
        let target = if self.cfg.failover {
            self.fill_loads(now);
            let Some(s) = self.ring.route(slot, &self.loads, SPILL_BOUND_PCT) else {
                // Every shard is dead: nothing can take the request.
                self.summary.lost_to_shards += 1;
                self.resolve(id, Verdict::Shed(ShedReason::ShardLost));
                return;
            };
            if Some(s) != self.ring.primary(slot) {
                self.summary.spills += 1;
            }
            s
        } else {
            // Undefended: clients keep addressing the hash owner even
            // while it is down, and those requests are simply lost.
            let s = self.ring.owner(slot);
            if !self.shards[s].alive {
                self.shards[s].stats.sheds += 1;
                self.summary.lost_to_shards += 1;
                self.resolve(id, Verdict::Shed(ShedReason::ShardLost));
                return;
            }
            s
        };
        self.states[id].primary = target as u16;
        self.states[id].copies = 1;
        if !self.enqueue(target, id, now) {
            return;
        }
        if self.cfg.hedge && self.ring.alive_count() > 1 {
            let slack = self.reqs[id].slack_ns(now);
            let delay = (HEDGE_DELAY_US * NS_PER_US).min(slack / 2).max(1);
            // At arrival the slack is the tenant's whole deadline, so the
            // delay is constant per tenant and arrivals come in time
            // order: hedge timers join the queue's FIFO lane in order.
            self.events.push_fifo(now + delay, Event::Hedge(id as u32));
        }
        self.dispatch(target, now);
    }

    fn hedge(&mut self, id: usize, now: VirtualNs) {
        if self.reqs[id].verdict.is_some() || self.states[id].twin.is_some() {
            return;
        }
        let slot = self.states[id].slot;
        let primary = usize::from(self.states[id].primary);
        // Duplicate onto the next distinct alive shard; fall back to the
        // ring's secondary when the original target is already gone.
        let twin = match self.ring.secondary(slot) {
            Some(s) if s != primary => Some(s),
            _ => self.ring.primary(slot).filter(|&s| s != primary),
        };
        let Some(twin) = twin else { return };
        if !self.try_enqueue(twin, id) {
            return; // hedge suppressed: the twin's queue share is full
        }
        self.states[id].twin = Some(twin as u16);
        self.states[id].copies += 1;
        self.summary.hedges_fired += 1;
        report(IncidentKind::HedgeFired, req_shard(id, twin), || {
            format!("req={id} shard={twin} t_ns={now}")
        });
        self.dispatch(twin, now);
    }

    fn dispatch(&mut self, s: usize, now: VirtualNs) {
        if !self.shards[s].alive {
            return;
        }
        loop {
            let Some(inst) = self.shards[s].pool.acquire(now) else {
                if !self.shards[s].queue.is_empty() {
                    if let Some(at) = self.shards[s].pool.next_unmarked_at(now) {
                        self.schedule_wake(s, at);
                    }
                }
                return;
            };
            // Pop, skipping stale copies whose twin already resolved the
            // request (hedge won elsewhere, or failover raced).
            let id = loop {
                match self.shards[s].queue.pop() {
                    None => return,
                    Some(id) if self.reqs[id].verdict.is_some() => continue,
                    Some(id) => break id,
                }
            };
            let queued = self.shards[s].queue.len();
            telemetry::counter_on(Lane::new("queue", s as u32), "queue_depth", queued as f64);

            // Tier choice: congestion controller first, then the
            // request's floor from failed attempts, then slack-fit.
            let Some(tier_idx) = choose_tier(
                self.catalog,
                &self.cfg.shard,
                &self.reqs[id],
                queued,
                self.shards[s].pool.healthy(now),
                now,
            ) else {
                self.shards[s].stats.sheds += 1;
                let slack = self.reqs[id].slack_ns(now);
                report(IncidentKind::ShedHopeless, req_shard(id, s), || {
                    format!("req={id} shard={s} slack_ns={slack} t_ns={now}")
                });
                self.copy_dies(id, Verdict::Shed(ShedReason::Hopeless));
                continue;
            };

            let sh = &mut self.shards[s];
            let mut service_ns = self.catalog.service_ns(self.reqs[id].key, tier_idx);
            let fault = roll_dispatch_fault(&mut sh.injectors[inst], &mut service_ns);
            // A stalled shard serves, just several times slower — the
            // latency-tail failure hedging is for.
            if now < sh.stall_until {
                service_ns *= sh.stall_factor.max(1);
            }
            // Suspicion-scored voting: a suspect instance re-executes the
            // dispatch (temporal duplicate-dispatch), doubling its
            // modeled service time.
            let voted = sh.integrity.dispatch_vote(inst);
            if voted {
                service_ns *= 2;
            }
            self.reqs[id].attempts += 1;
            self.reqs[id].tier_floor = tier_idx; // remember the served tier
            let token = sh.dispatch_seq;
            sh.dispatch_seq = token.wrapping_add(1);
            sh.inflight[inst] = (id, token);
            sh.pool.begin(inst, now, service_ns);
            let epoch = sh.epoch;
            // Instance occupancy as one Perfetto row per instance.
            telemetry::complete_at(
                self.lane("inst", s, inst),
                "service",
                if fault.is_some() {
                    "serve_faulted"
                } else {
                    "serve"
                },
                now,
                service_ns,
                arg2(
                    "req",
                    ArgValue::U64(id as u64),
                    "tier",
                    ArgValue::Str(QualityTier::from_index(tier_idx).label()),
                ),
            );
            self.events.push(
                now + service_ns,
                Event::Complete(Dispatch {
                    req: id as u32,
                    epoch,
                    token,
                    shard: s as u16,
                    inst: inst as u16,
                    tier: tier_idx as u8,
                    fault,
                    voted,
                }),
            );
        }
    }

    /// Benches a lying instance for scrubbing: out of rotation until a
    /// scrub probe streak readmits it. A shard's last healthy instance is
    /// never pulled (degraded service beats no service), but its scrub
    /// schedule still runs so the integrity state stays live.
    fn bench_liar(&mut self, s: usize, inst: usize, now: VirtualNs) {
        if self.shards[s].pool.healthy(now) > 1 {
            self.shards[s].pool.quarantine(inst, BENCH_HORIZON_NS);
            telemetry::instant_args("service", "bench_liar", shard_inst(s, inst));
            if telemetry::active() {
                telemetry::incident_kind(
                    IncidentKind::Quarantine,
                    &format!("shard={s} inst={inst} liar=1 t_ns={now}"),
                );
            }
        }
        self.schedule_scrub(s, inst, now);
    }

    fn schedule_scrub(&mut self, s: usize, inst: usize, now: VirtualNs) {
        self.events.push(
            now + SCRUB_PERIOD_US * NS_PER_US,
            Event::Scrub {
                shard: s as u16,
                inst: inst as u16,
            },
        );
    }

    /// One known-answer scrub probe against a benched instance.
    fn scrub(&mut self, s: usize, inst: usize, now: VirtualNs) {
        if !self.shards[s].integrity.is_benched(inst) {
            return;
        }
        if self.shards[s].integrity.scrub_probe(inst) {
            self.shards[s].pool.readmit(inst, now);
            let probes = self.shards[s].integrity.stats.scrub_probes;
            report(IncidentKind::ScrubReadmit, shard_inst(s, inst), || {
                format!("shard={s} inst={inst} probes={probes} t_ns={now}")
            });
            self.dispatch(s, now);
        } else if self.resolved < self.reqs.len() {
            self.schedule_scrub(s, inst, now);
        }
    }

    fn complete(&mut self, d: Dispatch, now: VirtualNs) {
        let (s, inst, id, tier) = (
            usize::from(d.shard),
            usize::from(d.inst),
            d.req as usize,
            usize::from(d.tier),
        );
        if d.epoch != self.shards[s].epoch {
            // The shard crashed while this dispatch ran; the copy was
            // already failed over or written off at crash time.
            return;
        }
        // Clear the inflight slot unless the instance was re-acquired at
        // this exact timestamp (the slot then belongs to the next
        // dispatch and must stay).
        if self.shards[s].inflight[inst] == (id, d.token) {
            self.shards[s].inflight[inst] = IDLE;
        }

        let quality = QualityTier::from_index(tier);
        let entry = *self.catalog.entry(self.reqs[id].key, quality);
        // Energy the dispatch actually spent: the catalog attempt cost,
        // doubled when suspicion voting re-executed it. Slow-unit faults
        // stretch time, not work, so the energy is unchanged. The shard
        // is billed for every completion it produced — including copies
        // whose result turns out to be useless — while the fleet ledger
        // splits winning attempts from wasted ones below.
        let attempt_pj = if d.voted {
            2.0 * entry.energy_pj
        } else {
            entry.energy_pj
        };
        self.shards[s].stats.energy_pj += attempt_pj;
        // Power-rail counter track: the datapath power this dispatch drew
        // while it ran (pJ/µs ≡ µW), one lane per instance. Vote
        // re-execution doubles energy and time alike, so the rail shows
        // the per-execution figure.
        telemetry::counter_on(
            self.lane("rail", s, inst),
            "power_uw",
            entry.energy_pj / entry.modeled_us.max(1e-9),
        );

        if d.fault.is_some() {
            self.summary.fleet.wasted_energy_pj += attempt_pj;
            let sh = &mut self.shards[s];
            sh.injectors[inst].counters_mut().detected += 1;
            if breaker::on_fault(&mut sh.pool, inst, now).is_some() {
                sh.injectors[inst].counters_mut().quarantined += 1;
                report(IncidentKind::Quarantine, shard_inst(s, inst), || {
                    format!("shard={s} inst={inst} t_ns={now}")
                });
                // The expiry needs a wake in case the whole pool is idle
                // but quarantined when it lands.
                if let Some(at) = self.shards[s].pool.next_unmarked_at(now) {
                    self.schedule_wake(s, at);
                }
            }
            if self.reqs[id].verdict.is_some() {
                return; // a twin already won; drop the faulted copy
            }
            let attempts = self.reqs[id].attempts;
            if attempts > MAX_RETRIES {
                report(IncidentKind::FailedFaults, req_shard(id, s), || {
                    format!("req={id} shard={s} attempts={attempts} t_ns={now}")
                });
                self.copy_dies(id, Verdict::FailedFaults);
            } else {
                let shift = (attempts - 1).min(16);
                let backoff = (BACKOFF_US * NS_PER_US) << shift;
                self.shards[s].injectors[inst].counters_mut().redispatches += 1;
                self.summary.fleet.retries += 1;
                self.events.push(
                    now + backoff,
                    Event::Enqueue {
                        shard: d.shard,
                        req: d.req,
                    },
                );
            }
            return;
        }

        self.shards[s].pool.record_success(inst);
        if self.reqs[id].verdict.is_some() {
            // The hedge twin (or a failover copy) already resolved it:
            // the straggler's energy bought nothing.
            self.summary.hedge_wasted += 1;
            self.summary.fleet.wasted_energy_pj += attempt_pj;
            return;
        }
        if !entry.solved {
            // Budget exhausted without a path: the attempt's energy is
            // spent either way. Step down the ladder and try again
            // immediately (the cheap re-plan path).
            self.summary.fleet.wasted_energy_pj += attempt_pj;
            if tier + 1 < QualityTier::COUNT {
                self.reqs[id].tier_floor = self.reqs[id].tier_floor.max(tier + 1);
                self.summary.fleet.tier_stepdowns += 1;
                self.enqueue(s, id, now);
            } else {
                self.copy_dies(id, Verdict::Unsolved);
            }
            return;
        }

        // Integrity pipeline: roll this instance's silent-corruption
        // stream (resolving any vote), then certify before the request
        // may resolve as Completed.
        let ci = self.shards[s].integrity.completion(inst, d.voted);
        if ci.bench {
            self.bench_liar(s, inst, now);
        }
        let mut done = now;
        if self.cfg.shard.integrity.certify {
            let certify_ns = self.catalog.certify_ns(self.reqs[id].key, tier);
            let stats = &mut self.shards[s].integrity.stats;
            stats.certify_ns += certify_ns;
            stats.certify_hist.observe(entry.certify_us.round() as u64);
            done = now + certify_ns;
            if ci.ships_corrupt {
                // The independent cascade rejects the corrupted plan:
                // attribute, then re-plan degraded under whatever budget
                // remains. The rejected attempt's energy bought nothing.
                self.summary.fleet.wasted_energy_pj += attempt_pj;
                self.shards[s].integrity.stats.certify_failed += 1;
                self.shards[s].integrity.accuse(inst);
                report(IncidentKind::CertifyFailed, req_shard(id, s), || {
                    format!(
                        "req={id} shard={s} inst={inst} tier={} t_ns={now}",
                        quality.label()
                    )
                });
                if self.reqs[id].attempts > MAX_RETRIES {
                    // Replan budget exhausted: fail closed — an
                    // unresolved request, never an unsafe plan.
                    self.copy_dies(id, Verdict::FailedFaults);
                    return;
                }
                if tier + 1 < QualityTier::COUNT {
                    self.reqs[id].tier_floor = self.reqs[id].tier_floor.max(tier + 1);
                    self.summary.fleet.tier_stepdowns += 1;
                }
                self.events.push(
                    done,
                    Event::Enqueue {
                        shard: d.shard,
                        req: d.req,
                    },
                );
                return;
            }
            self.shards[s].integrity.stats.certified += 1;
            self.shards[s].integrity.exonerate(inst);
        } else if ci.ships_corrupt {
            // Undefended: the unsafe plan ships as a "success".
            self.shards[s].integrity.stats.sdc_escaped += 1;
            report(IncidentKind::SdcEscaped, req_shard(id, s), || {
                format!(
                    "req={id} shard={s} inst={inst} tier={} t_ns={now}",
                    quality.label()
                )
            });
        }
        let now = done;
        let latency = now - self.reqs[id].arrival_ns;
        let verdict = if now <= self.reqs[id].deadline_ns {
            Verdict::OnTime {
                tier: quality,
                latency_ns: latency,
            }
        } else {
            let late_ns = now - self.reqs[id].deadline_ns;
            report(IncidentKind::DeadlineMiss, req_shard(id, s), || {
                format!(
                    "req={id} shard={s} tier={} late_ns={late_ns} t_ns={now}",
                    quality.label()
                )
            });
            Verdict::Late {
                tier: quality,
                latency_ns: latency,
            }
        };
        if self.states[id].twin == Some(d.shard) {
            self.summary.hedge_wins += 1;
        }
        let fleet = &mut self.summary.fleet;
        fleet.tier_served[tier] += 1;
        fleet.energy_pj += attempt_pj;
        fleet.tier_energy_pj[tier] += attempt_pj;
        if tier > 0 {
            // Energy the ladder saved by serving this key below full
            // quality.
            let full_pj = self
                .catalog
                .entry(self.reqs[id].key, QualityTier::Full)
                .energy_pj;
            fleet.degraded_saved_pj += full_pj - entry.energy_pj;
        }
        let sh = &mut self.shards[s];
        sh.stats.served += 1;
        if matches!(verdict, Verdict::OnTime { .. }) {
            sh.stats.on_time += 1;
        }
        let t = self.reqs[id].tenant;
        self.tenants[t].energy_pj += attempt_pj;
        self.served.push(Served {
            latency_ns: latency,
            shard: d.shard,
            tenant: t as u32,
        });
        self.resolve(id, verdict);
    }

    /// A copy re-enters shard `s` (retry backoff, certification re-plan,
    /// failover). Dead-shard targets re-route (defended) or die
    /// (undefended).
    fn re_enqueue(&mut self, s: usize, id: usize, now: VirtualNs) {
        if self.reqs[id].verdict.is_some() {
            return;
        }
        if !self.shards[s].alive {
            self.failover_copy(id, s, now);
            return;
        }
        if self.enqueue(s, id, now) {
            self.dispatch(s, now);
        }
    }

    /// Re-routes one copy off dead shard `from`, consuming failover
    /// budget; without budget (or an alive target, or failover at all)
    /// the copy is lost.
    fn failover_copy(&mut self, id: usize, from: usize, now: VirtualNs) {
        if self.cfg.failover && self.states[id].failovers < MAX_FAILOVERS {
            self.fill_loads(now);
            let slot = self.states[id].slot;
            if let Some(target) = self.ring.route(slot, &self.loads, SPILL_BOUND_PCT) {
                self.states[id].failovers += 1;
                self.summary.rerouted += 1;
                self.events.push(
                    now,
                    Event::Enqueue {
                        shard: target as u16,
                        req: id as u32,
                    },
                );
                return;
            }
        }
        self.shards[from].stats.sheds += 1;
        self.summary.lost_to_shards += 1;
        self.copy_dies(id, Verdict::Shed(ShedReason::ShardLost));
    }

    fn crash(&mut self, s: usize, duration_ns: VirtualNs, now: VirtualNs) {
        if !self.shards[s].alive {
            return; // already down; the earlier rejoin stands
        }
        self.shards[s].alive = false;
        self.shards[s].epoch += 1;
        self.shards[s].stats.kills += 1;
        self.summary.shard_kills += 1;
        if self.cfg.failover {
            self.ring.remove(s);
        }
        // The pool state dies with the shard: bank its counters and
        // rebuild it for the rejoin.
        self.shards[s].busy_accum += self.shards[s].pool.total_busy_ns();
        self.shards[s].quar_accum += self.shards[s].pool.total_quarantines();
        self.shards[s].pool = AcceleratorPool::new(self.cfg.shard.instances);
        self.shards[s].wake_at = None;
        let mut victims = self.shards[s].queue.drain();
        for entry in &mut self.shards[s].inflight {
            if entry.0 != usize::MAX {
                victims.push(entry.0);
                *entry = IDLE;
            }
        }
        let before_rerouted = self.summary.rerouted;
        let before_lost = self.summary.lost_to_shards;
        for id in victims {
            if self.reqs[id].verdict.is_some() {
                continue;
            }
            self.failover_copy(id, s, now);
        }
        let rerouted = self.summary.rerouted - before_rerouted;
        let lost = self.summary.lost_to_shards - before_lost;
        telemetry::instant_args(
            "service",
            "shard_crash",
            arg2(
                "shard",
                ArgValue::U64(s as u64),
                "rerouted",
                ArgValue::U64(rerouted),
            ),
        );
        if telemetry::active() {
            telemetry::incident_kind(
                IncidentKind::ShardFailover,
                &format!("shard={s} rerouted={rerouted} lost={lost} t_ns={now}"),
            );
        }
        self.events
            .push(now + duration_ns.max(1), Event::Rejoin(s as u16));
    }

    fn rejoin(&mut self, s: usize, now: VirtualNs) {
        if self.shards[s].alive {
            return;
        }
        self.shards[s].alive = true;
        self.shards[s].stall_until = 0;
        if self.cfg.failover {
            self.ring.restore(s);
            self.shards[s].catchup_until = now + CATCHUP_US * NS_PER_US;
        }
        telemetry::instant_args(
            "service",
            "shard_rejoin",
            arg2("shard", ArgValue::U64(s as u64), "t_ns", ArgValue::U64(now)),
        );
        self.dispatch(s, now);
    }

    fn chaos(&mut self, idx: usize, now: VirtualNs) {
        let ev = self.chaos[idx];
        match ev.kind {
            ShardFaultKind::Crash => self.crash(ev.shard, ev.duration_ns, now),
            ShardFaultKind::Stall => {
                let sh = &mut self.shards[ev.shard];
                sh.stall_until = sh.stall_until.max(now + ev.duration_ns);
                sh.stall_factor = ev.slow_factor.max(2);
                telemetry::instant_args(
                    "service",
                    "shard_stall",
                    arg2(
                        "shard",
                        ArgValue::U64(ev.shard as u64),
                        "factor",
                        ArgValue::U64(sh.stall_factor),
                    ),
                );
            }
            // `ShardFaultPlan::schedule` unrolls flaps into crashes.
            ShardFaultKind::Flap => self.crash(ev.shard, ev.duration_ns, now),
        }
    }
}

/// Runs the sharded fleet simulation and returns its summary.
/// Deterministic: identical inputs yield an identical summary, on any
/// machine and at any ambient thread count.
///
/// `policies` pairs with `tenants` (weights, token buckets, activity
/// windows); pass an empty slice for all-default policies.
///
/// # Panics
///
/// Panics if the catalog is empty, `cfg.shards == 0`,
/// `cfg.shard.instances == 0`, `policies` is non-empty with a length
/// different from `tenants`, or the run exceeds the packed event limits
/// (2^16 shards or instances per shard, 2^32 requests).
pub fn run_fleet(
    catalog: &PlanCatalog,
    tenants: &[TenantSpec],
    policies: &[TenantPolicy],
    duration_ns: VirtualNs,
    cfg: &FleetConfig,
    chaos_plan: &ShardFaultPlan,
) -> FleetSummary {
    simulate(catalog, tenants, policies, duration_ns, cfg, chaos_plan, 1)
}

/// The loop behind [`run_fleet`] and [`crate::service::run_service`].
/// Shard `s` draws its fault and silent-corruption streams with salt
/// `first_salt + s` (see [`Shard::new`]).
pub(crate) fn simulate(
    catalog: &PlanCatalog,
    tenants: &[TenantSpec],
    policies: &[TenantPolicy],
    duration_ns: VirtualNs,
    cfg: &FleetConfig,
    chaos_plan: &ShardFaultPlan,
    first_salt: u64,
) -> FleetSummary {
    assert!(catalog.num_keys() > 0, "empty catalog");
    assert!(cfg.shards > 0, "fleet needs at least one shard");
    assert!(
        cfg.shards <= 1 << 16 && cfg.shard.instances <= 1 << 16,
        "shards and instances per shard must fit the packed events"
    );
    assert!(
        policies.is_empty() || policies.len() == tenants.len(),
        "policies must pair with tenants"
    );
    let default_policy = TenantPolicy::default();
    let policy = |t: usize| {
        if policies.is_empty() {
            &default_policy
        } else {
            &policies[t]
        }
    };

    let mut reqs = Vec::new();
    let mut tenant_stats = Vec::with_capacity(tenants.len());
    for (ti, tenant) in tenants.iter().enumerate() {
        let arrivals = match policy(ti).window_us {
            Some((start_us, end_us)) => tenant
                .process
                .generate_between(start_us * NS_PER_US, (end_us * NS_PER_US).min(duration_ns)),
            None => tenant.process.generate(duration_ns),
        };
        let mut stats = TenantStats::new(tenant.label, duration_ns);
        for (ai, arrival_ns) in arrivals.into_iter().enumerate() {
            let key = (mix(cfg.seed ^ ((ti as u64) << 40) ^ ai as u64) % catalog.num_keys() as u64)
                as usize;
            reqs.push(Request {
                tenant: ti,
                arrival_ns,
                deadline_ns: arrival_ns + tenant.deadline_us * NS_PER_US,
                key,
                attempts: 0,
                tier_floor: 0,
                verdict: None,
            });
            stats.offered += 1;
        }
        tenant_stats.push(stats);
    }

    assert!(
        u32::try_from(reqs.len()).is_ok(),
        "request ids must fit the packed events"
    );
    // Every arrival is known before the run starts, so arrivals stay out
    // of the event queue (which then holds only the few events in flight)
    // and are taken in (time, id) order, ahead of any queued event at the
    // same instant, as if they had been queued first.
    let mut arrivals: Vec<usize> = (0..reqs.len()).collect();
    arrivals.sort_by_key(|&id| reqs[id].arrival_ns);

    let weights: Vec<u64> = (0..tenants.len()).map(|t| policy(t).weight).collect();
    let shards: Vec<Shard> = (0..cfg.shards)
        .map(|s| Shard::new(cfg, &weights, first_salt + s as u64))
        .collect();

    let buckets: Vec<Option<TokenBucket>> = (0..tenants.len())
        .map(|t| {
            policy(t)
                .bucket
                .map(|(rate, burst)| TokenBucket::new(rate, burst))
        })
        .collect();

    let chaos = chaos_plan.schedule(cfg.shards, duration_ns);
    let mut events = EventQueue::new();
    for (i, ev) in chaos.iter().enumerate() {
        events.push(ev.at_ns, Event::Chaos(i as u32));
    }

    let offered = reqs.len() as u64;
    let mut fleet = Fleet {
        catalog,
        cfg,
        ring: HashRing::new(cfg.shards, VNODES_PER_SHARD, cfg.seed),
        states: vec![ReqState::default(); reqs.len()],
        reqs,
        shards,
        buckets,
        events,
        chaos,
        summary: FleetSummary {
            fleet: ServiceSummary::for_run(duration_ns, cfg.shards * cfg.shard.instances, offered),
            ..FleetSummary::default()
        },
        tenants: tenant_stats,
        served: Vec::new(),
        loads: vec![0; cfg.shards],
        resolved: 0,
    };

    let mut arrivals = arrivals.into_iter().peekable();
    loop {
        let next_queued = fleet.events.peek_time();
        let arrival =
            arrivals.next_if(|&id| next_queued.is_none_or(|t| fleet.reqs[id].arrival_ns <= t));
        if let Some(id) = arrival {
            let now = fleet.reqs[id].arrival_ns;
            telemetry::set_time(now);
            fleet.arrive(id, now);
            continue;
        }
        let Some((now, ev)) = fleet.events.pop() else {
            break;
        };
        telemetry::set_time(now);
        match ev {
            Event::Enqueue { shard, req } => fleet.re_enqueue(shard.into(), req as usize, now),
            Event::Complete(d) => {
                fleet.complete(d, now);
                fleet.dispatch(d.shard.into(), now);
            }
            Event::Wake(s) => {
                let s = usize::from(s);
                if fleet.shards[s].wake_at.is_some_and(|w| w <= now) {
                    fleet.shards[s].wake_at = None;
                }
                fleet.dispatch(s, now);
            }
            Event::Hedge(id) => fleet.hedge(id as usize, now),
            Event::Chaos(idx) => fleet.chaos(idx as usize, now),
            Event::Rejoin(s) => fleet.rejoin(s.into(), now),
            Event::Scrub { shard, inst } => fleet.scrub(shard.into(), inst.into(), now),
        }
    }

    debug_assert!(
        fleet.reqs.iter().all(|r| r.verdict.is_some()),
        "every request must resolve"
    );

    // One sort serves every latency histogram: splitting the sorted
    // fleet list keeps each shard's and tenant's share sorted too.
    let mut served = fleet.served;
    served.sort_unstable_by_key(|x| x.latency_ns);
    let mut shard_lat = vec![Vec::new(); cfg.shards];
    let mut tenant_lat = vec![Vec::new(); tenants.len()];
    for x in &served {
        shard_lat[usize::from(x.shard)].push(x.latency_ns);
        tenant_lat[x.tenant as usize].push(x.latency_ns);
    }
    let mut summary = fleet.summary;
    for (t, lat) in tenant_lat.into_iter().enumerate() {
        fleet.tenants[t].set_latencies(lat);
    }
    summary.tenants = fleet.tenants;
    for (mut sh, lat) in fleet.shards.into_iter().zip(shard_lat) {
        summary.fleet.quarantines += sh.quar_accum + sh.pool.total_quarantines();
        summary.fleet.busy_ns += sh.busy_accum + sh.pool.total_busy_ns();
        sh.stats.quarantines = sh.quar_accum + sh.pool.total_quarantines();
        sh.stats.busy_ns = sh.busy_accum + sh.pool.total_busy_ns();
        for inj in &sh.injectors {
            summary.fleet.resilience.merge(inj.counters());
        }
        summary.fleet.integrity.merge(&sh.integrity.stats);
        sh.stats.set_latencies(lat);
        summary.shards.push(sh.stats);
    }
    summary
        .fleet
        .set_latencies(served.iter().map(|x| x.latency_ns).collect());
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_octree::{benchmark_scenes, Scene};
    use mp_robot::RobotModel;
    use mp_sim::arrival::{ArrivalKind, ArrivalProcess};
    use mp_sim::fault::ShardFaultEvent;
    use std::sync::OnceLock;
    use threadpool::ThreadPool;

    fn catalog() -> &'static PlanCatalog {
        static CAT: OnceLock<PlanCatalog> = OnceLock::new();
        CAT.get_or_init(|| {
            let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(2).collect();
            PlanCatalog::build(&RobotModel::jaco2(), &scenes, 2, 3, &ThreadPool::new(2))
                .expect("catalog builds")
        })
    }

    const DURATION: VirtualNs = 50_000_000; // 50 ms simulated

    fn fleet_cfg(shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            shard: ServiceConfig {
                instances: 2,
                ..ServiceConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    fn tenants(rate: f64) -> Vec<TenantSpec> {
        let deadline_us = (4.0 * catalog().mean_service_us(QualityTier::Full)) as u64;
        vec![
            TenantSpec {
                label: "interactive",
                process: ArrivalProcess {
                    kind: ArrivalKind::Poisson,
                    rate_per_s: rate * 0.7,
                    seed: 101,
                },
                deadline_us,
            },
            TenantSpec {
                label: "batchy",
                process: ArrivalProcess {
                    kind: ArrivalKind::Bursty {
                        burst_factor: 5.0,
                        period_us: 5_000,
                        duty: 0.2,
                    },
                    rate_per_s: rate * 0.3,
                    seed: 202,
                },
                deadline_us: deadline_us * 2,
            },
        ]
    }

    fn kill_two(at_ns: u64, down_ns: u64) -> ShardFaultPlan {
        ShardFaultPlan::scripted(
            5,
            vec![
                ShardFaultEvent {
                    at_ns,
                    shard: 0,
                    kind: ShardFaultKind::Crash,
                    duration_ns: down_ns,
                    slow_factor: 1,
                },
                ShardFaultEvent {
                    at_ns,
                    shard: 2,
                    kind: ShardFaultKind::Crash,
                    duration_ns: down_ns,
                    slow_factor: 1,
                },
            ],
        )
    }

    #[test]
    fn chaos_runs_are_deterministic_and_conserving() {
        let cfg = fleet_cfg(4);
        let rate = catalog().saturating_rate_per_s(4 * cfg.shard.instances);
        let chaos = ShardFaultPlan {
            crash_rate_per_s: 20.0,
            stall_rate_per_s: 20.0,
            flap_rate_per_s: 10.0,
            ..ShardFaultPlan::none(7)
        };
        let a = run_fleet(catalog(), &tenants(rate), &[], DURATION, &cfg, &chaos);
        let b = run_fleet(catalog(), &tenants(rate), &[], DURATION, &cfg, &chaos);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "summaries differ");
        let f = &a.fleet;
        assert_eq!(
            f.offered,
            f.on_time + f.late + f.shed() + f.failed_faults + f.unsolved,
            "every request must resolve exactly once"
        );
        assert!(f.offered > 100, "expected meaningful traffic");
        assert_eq!(a.shards.len(), 4);
        assert_eq!(a.tenants.len(), 2);
        assert_eq!(
            a.tenants.iter().map(|t| t.offered).sum::<u64>(),
            f.offered,
            "tenant rows must partition the offered traffic"
        );
        assert!(a.imbalance() >= 1.0);
        // Energy accounting: completions carry energy, the tier split and
        // the tenant rows both sum to the fleet total, and the shard rows
        // cover everything the fleet spent (winning + wasted attempts;
        // shards may also bill crash-stale copies the fleet never saw
        // resolve, so they bound the fleet ledger from above).
        assert!(f.energy_pj > 0.0, "completions must spend energy");
        let tier_sum: f64 = f.tier_energy_pj.iter().sum();
        assert!((tier_sum - f.energy_pj).abs() < 1e-6 * f.energy_pj.max(1.0));
        let tenant_sum: f64 = a.tenants.iter().map(|t| t.energy_pj).sum();
        assert!((tenant_sum - f.energy_pj).abs() < 1e-6 * f.energy_pj.max(1.0));
        let shard_sum: f64 = a.shards.iter().map(|s| s.energy_pj).sum();
        assert!(
            shard_sum >= f.energy_pj + f.wasted_energy_pj - 1e-6 * shard_sum.max(1.0),
            "shard rows must cover the fleet ledger: {shard_sum} < {}",
            f.energy_pj + f.wasted_energy_pj
        );
        assert!(f.energy_per_plan_pj() > 0.0);
    }

    #[test]
    fn failover_beats_the_undefended_fleet_through_a_double_kill() {
        let rate = 1.2 * catalog().saturating_rate_per_s(4 * 2);
        let chaos = kill_two(DURATION / 4, DURATION / 2);
        let defended = fleet_cfg(4);
        let undefended = FleetConfig {
            failover: false,
            hedge: false,
            fairness: false,
            ..fleet_cfg(4)
        };
        let d = run_fleet(catalog(), &tenants(rate), &[], DURATION, &defended, &chaos);
        let u = run_fleet(
            catalog(),
            &tenants(rate),
            &[],
            DURATION,
            &undefended,
            &chaos,
        );
        assert!(d.shard_kills >= 2 && u.shard_kills >= 2);
        assert!(
            d.rerouted > 0,
            "failover must re-route the dead shards' load"
        );
        assert_eq!(d.fleet.shed_shard_lost, d.lost_to_shards);
        assert!(
            u.fleet.shed_shard_lost > 0,
            "undefended kills must lose requests"
        );
        assert!(
            d.fleet.goodput_rps() > u.fleet.goodput_rps(),
            "defended goodput {:.0} <= undefended {:.0}",
            d.fleet.goodput_rps(),
            u.fleet.goodput_rps()
        );
    }

    #[test]
    fn fairness_shields_the_steady_tenant_from_an_adversary() {
        let rate = catalog().saturating_rate_per_s(4 * 2);
        let deadline_us = (4.0 * catalog().mean_service_us(QualityTier::Full)) as u64;
        let steady = TenantSpec {
            label: "steady",
            process: ArrivalProcess {
                kind: ArrivalKind::Poisson,
                rate_per_s: rate * 0.5,
                seed: 11,
            },
            deadline_us,
        };
        let adversary = TenantSpec {
            label: "adversary",
            process: ArrivalProcess {
                kind: ArrivalKind::Adversarial { batch: 64 },
                rate_per_s: rate * 2.0,
                seed: 12,
            },
            deadline_us,
        };
        let policies = vec![
            TenantPolicy {
                weight: 4,
                ..TenantPolicy::default()
            },
            TenantPolicy {
                weight: 1,
                bucket: Some((rate * 0.5, 32)),
                ..TenantPolicy::default()
            },
        ];
        let chaos = ShardFaultPlan::none(1);
        let fair = fleet_cfg(4);
        let unfair = FleetConfig {
            fairness: false,
            ..fleet_cfg(4)
        };
        let specs = [steady, adversary];
        let f = run_fleet(catalog(), &specs, &policies, DURATION, &fair, &chaos);
        let u = run_fleet(catalog(), &specs, &policies, DURATION, &unfair, &chaos);
        assert!(
            f.tenants[1].throttled > 0,
            "the adversary must hit its token bucket"
        );
        assert!(
            f.tenants[0].on_time > u.tenants[0].on_time,
            "fairness must shield the steady tenant: fair {} <= unfair {}",
            f.tenants[0].on_time,
            u.tenants[0].on_time
        );
    }

    #[test]
    fn hedging_fires_on_a_stalled_shard_and_wins() {
        let rate = 0.5 * catalog().saturating_rate_per_s(4 * 2);
        let chaos = ShardFaultPlan::scripted(
            3,
            (0..4)
                .map(|shard| ShardFaultEvent {
                    at_ns: DURATION / 8,
                    shard,
                    kind: ShardFaultKind::Stall,
                    duration_ns: DURATION / 2,
                    slow_factor: 16,
                })
                .take(1)
                .collect(),
        );
        let hedged = fleet_cfg(4);
        let unhedged = FleetConfig {
            hedge: false,
            ..fleet_cfg(4)
        };
        let h = run_fleet(catalog(), &tenants(rate), &[], DURATION, &hedged, &chaos);
        let n = run_fleet(catalog(), &tenants(rate), &[], DURATION, &unhedged, &chaos);
        assert!(h.hedges_fired > 0, "stalls must trigger hedges");
        assert!(h.hedge_wins > 0, "some hedges must win the race");
        assert_eq!(n.hedges_fired, 0);
        assert!(
            h.fleet.on_time >= n.fleet.on_time,
            "hedging must not lose goodput: {} < {}",
            h.fleet.on_time,
            n.fleet.on_time
        );
    }

    #[test]
    fn fleet_certification_is_sound_under_sdc_and_chaos() {
        use crate::integrity::IntegrityConfig;
        use crate::service::FaultProfile;
        let rate = catalog().saturating_rate_per_s(4 * 2);
        let chaos = kill_two(DURATION / 4, DURATION / 4);
        let sdc = FaultProfile::none().with_sdc(0.01, Some(0), 30.0);
        let undefended = FleetConfig {
            shard: ServiceConfig {
                instances: 2,
                faults: sdc,
                ..ServiceConfig::default()
            },
            ..fleet_cfg(4)
        };
        let defended = FleetConfig {
            shard: ServiceConfig {
                integrity: IntegrityConfig::full(),
                ..undefended.shard
            },
            ..undefended
        };
        let u = run_fleet(
            catalog(),
            &tenants(rate),
            &[],
            DURATION,
            &undefended,
            &chaos,
        );
        let d = run_fleet(catalog(), &tenants(rate), &[], DURATION, &defended, &chaos);
        assert!(u.fleet.integrity.sdc_injected > 0, "SDC must fire");
        assert!(
            u.fleet.integrity.sdc_escaped > 0,
            "undefended shards must ship unsafe plans"
        );
        assert_eq!(
            d.fleet.integrity.sdc_escaped, 0,
            "the defended fleet must ship zero unsafe plans"
        );
        assert!(d.fleet.integrity.certified > 0);
        assert!(d.fleet.integrity.certify_failed > 0);
        assert!(d.fleet.integrity.certify_ns > 0);
        // Both runs stay conserving through crashes + certification.
        for s in [&u, &d] {
            let f = &s.fleet;
            assert_eq!(
                f.offered,
                f.on_time + f.late + f.shed() + f.failed_faults + f.unsolved,
                "every request must resolve exactly once"
            );
        }
        // Determinism of the defended run.
        let d2 = run_fleet(catalog(), &tenants(rate), &[], DURATION, &defended, &chaos);
        assert_eq!(format!("{d:?}"), format!("{d2:?}"));
    }

    #[test]
    fn fleet_scrub_readmits_a_benched_hot_lane() {
        use crate::integrity::IntegrityConfig;
        use crate::service::FaultProfile;
        let rate = catalog().saturating_rate_per_s(2 * 2);
        let cfg = FleetConfig {
            shard: ServiceConfig {
                instances: 2,
                faults: FaultProfile::none().with_sdc(0.004, Some(0), 100.0),
                integrity: IntegrityConfig::full(),
                ..ServiceConfig::default()
            },
            ..fleet_cfg(2)
        };
        let s = run_fleet(
            catalog(),
            &tenants(rate),
            &[],
            2 * DURATION,
            &cfg,
            &ShardFaultPlan::none(0),
        );
        assert_eq!(s.fleet.integrity.sdc_escaped, 0);
        assert!(s.fleet.integrity.votes > 0, "suspicion must engage voting");
        assert!(s.fleet.integrity.vote_overrides > 0);
        assert!(s.fleet.integrity.liars_benched > 0);
        assert!(
            s.fleet.integrity.scrub_readmits > 0,
            "scrub must readmit within the run"
        );
    }

    #[test]
    fn single_shard_fleet_degenerates_gracefully() {
        let cfg = fleet_cfg(1);
        assert!(cfg.hedge);
        let rate = 0.5 * catalog().saturating_rate_per_s(cfg.shard.instances);
        let s = run_fleet(
            catalog(),
            &tenants(rate),
            &[],
            DURATION,
            &cfg,
            &ShardFaultPlan::none(0),
        );
        assert_eq!(s.hedges_fired, 0, "nowhere to hedge with one shard");
        assert_eq!(s.fleet.shed_shard_lost, 0);
        assert!(s.fleet.on_time > 0);
    }
}
