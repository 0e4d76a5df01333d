//! Requests, tenants, and the verdicts the service hands back.

use mp_planner::QualityTier;
use mp_sim::arrival::ArrivalProcess;
use mp_sim::vtime::VirtualNs;

/// A tenant's traffic contract: an arrival stream plus a per-request
/// deadline. Every request inherits its tenant's deadline relative to its
/// arrival time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantSpec {
    /// Tenant label (reported in per-tenant breakdowns).
    pub label: &'static str,
    /// The tenant's open-loop arrival process.
    pub process: ArrivalProcess,
    /// Relative deadline in microseconds from arrival.
    pub deadline_us: u64,
}

/// Why a request was shed by admission control or the dispatcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue was full on arrival (backpressure).
    QueueFull,
    /// At dispatch no tier could finish before the deadline; running it
    /// would only burn an instance on a guaranteed miss.
    Hopeless,
    /// Per-tenant token-bucket admission rejected it (fleet fairness).
    Throttled,
    /// Its shard died with the request queued or in flight, and failover
    /// was off or exhausted (fleet chaos).
    ShardLost,
}

/// The final disposition of one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Served with a collision-free plan before its deadline.
    OnTime {
        /// Tier that served it.
        tier: QualityTier,
        /// Arrival-to-completion latency (ns).
        latency_ns: VirtualNs,
    },
    /// Served with a plan, but after the deadline passed.
    Late {
        /// Tier that served it.
        tier: QualityTier,
        /// Arrival-to-completion latency (ns).
        latency_ns: VirtualNs,
    },
    /// Dropped without service.
    Shed(ShedReason),
    /// Retry budget exhausted by repeated injected faults.
    FailedFaults,
    /// Every allowed tier ran to budget exhaustion without a path.
    Unsolved,
}

/// One planning request flowing through the service.
#[derive(Clone, Debug)]
pub struct Request {
    /// Tenant index into the campaign's tenant list.
    pub tenant: usize,
    /// Arrival timestamp (virtual ns).
    pub arrival_ns: VirtualNs,
    /// Absolute deadline (virtual ns).
    pub deadline_ns: VirtualNs,
    /// Catalog key identifying the (scene, query) this request plans.
    pub key: usize,
    /// Dispatch attempts so far (fault retries re-dispatch).
    pub attempts: u32,
    /// Lowest ladder index this request may still be served at: raised
    /// when a tier runs to budget exhaustion without a path, so the next
    /// attempt steps down instead of repeating the failed tier.
    pub tier_floor: usize,
    /// Final verdict, once resolved.
    pub verdict: Option<Verdict>,
}

impl Request {
    /// Remaining slack before the deadline at `now` (zero if passed).
    pub fn slack_ns(&self, now: VirtualNs) -> VirtualNs {
        self.deadline_ns.saturating_sub(now)
    }
}
