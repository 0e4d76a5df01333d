//! Shard queues and per-tenant isolation: bounded FIFO/EDF queues,
//! token-bucket admission, and weighted fair queueing.
//!
//! Without fairness all tenants are one traffic stream, so one
//! adversarial tenant fills the bounded queue and everyone sheds. A fair
//! fleet isolates tenants twice:
//!
//! * **Admission** ([`TokenBucket`]): each tenant may carry a rate
//!   contract; arrivals beyond it are throttled at the door before they
//!   can occupy any queue. The bucket runs on integer micro-tokens in
//!   virtual nanoseconds, so refills are exact and deterministic.
//! * **Queueing** ([`FairQueue`]): each shard queue splits into
//!   per-tenant subqueues (EDF or FIFO *within* a tenant, as before) and
//!   serves them by weighted fair queueing — a virtual-finish-time
//!   scheduler, so a tenant's share of dispatches tracks its weight no
//!   matter how deep its own backlog gets. Each tenant also gets a
//!   weight-proportional slice of the queue capacity, so queue-full
//!   sheds land on the tenant that overflowed, not on its neighbors.
//!
//! With fairness disabled the queue degenerates to one shared bounded
//! FIFO/EDF heap (the single planning service's queue), which keeps the
//! undefended baseline honest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mp_sim::vtime::VirtualNs;

/// Queue discipline within a tenant (or of the one shared queue when
/// fairness is off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueuePolicy {
    /// First-in first-out (arrival order).
    Fifo,
    /// Earliest-deadline-first, ties broken by arrival order.
    Edf,
}

impl QueuePolicy {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::Edf => "edf",
        }
    }
}

/// A tenant's fleet policy: its fair-queueing weight, optional rate
/// contract, and optional activity window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantPolicy {
    /// Weighted-fair-queueing weight (dispatch share and queue share are
    /// proportional to it).
    pub weight: u64,
    /// Token-bucket contract as `(rate_per_s, burst)`; `None` admits
    /// everything.
    pub bucket: Option<(f64, u32)>,
    /// Arrival window in µs from run start; `None` spans the whole run.
    /// Lets a chaos scenario switch an adversarial tenant on mid-run.
    pub window_us: Option<(u64, u64)>,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy {
            weight: 1,
            bucket: None,
            window_us: None,
        }
    }
}

/// Micro-tokens per admission token.
const UTOKENS: u64 = 1_000_000;

/// A deterministic token bucket in integer micro-tokens: refill is
/// `rate · Δt` computed exactly in u128, truncated to micro-tokens, so a
/// run replays identically everywhere.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    /// Refill rate in micro-tokens per second.
    rate_utps: u64,
    /// Bucket capacity in micro-tokens (the burst allowance).
    cap_ut: u64,
    level_ut: u64,
    last_ns: VirtualNs,
}

impl TokenBucket {
    /// A bucket admitting `rate_per_s` sustained with `burst` extra
    /// requests of headroom, starting full.
    pub fn new(rate_per_s: f64, burst: u32) -> TokenBucket {
        let cap = u64::from(burst.max(1)) * UTOKENS;
        TokenBucket {
            rate_utps: (rate_per_s.max(0.0) * UTOKENS as f64).round() as u64,
            cap_ut: cap,
            level_ut: cap,
            last_ns: 0,
        }
    }

    /// Refills for the elapsed virtual time, then takes one token.
    /// Returns `false` (throttle) if the bucket is empty.
    pub fn try_take(&mut self, now: VirtualNs) -> bool {
        let dt = now.saturating_sub(self.last_ns);
        self.last_ns = now;
        let refill = (u128::from(self.rate_utps) * u128::from(dt) / 1_000_000_000) as u64;
        self.level_ut = (self.level_ut.saturating_add(refill)).min(self.cap_ut);
        if self.level_ut >= UTOKENS {
            self.level_ut -= UTOKENS;
            true
        } else {
            false
        }
    }
}

/// Virtual-time scale for WFQ strides (`stride = SCALE / weight`).
const WFQ_SCALE: u64 = 1 << 32;

/// A bounded per-tenant fair queue: EDF/FIFO within a tenant, weighted
/// fair queueing across tenants, weight-proportional capacity shares.
#[derive(Clone, Debug)]
pub struct FairQueue {
    policy: QueuePolicy,
    fair: bool,
    /// Per-tenant `(priority, seq, id)` min-heaps (one shared heap at
    /// index 0 when fairness is off).
    heaps: Vec<BinaryHeap<Reverse<(VirtualNs, u64, usize)>>>,
    /// Per-tenant capacity shares (the full capacity when unfair).
    shares: Vec<usize>,
    /// Per-tenant WFQ strides.
    strides: Vec<u64>,
    /// Per-tenant virtual finish time of the head request.
    vft: Vec<u64>,
    /// Scheduler virtual clock (the vft of the last dispatched tenant).
    vnow: u64,
    seq: u64,
    len: usize,
}

impl FairQueue {
    /// A fair queue of total capacity `capacity` over tenants with the
    /// given weights. `fair == false` collapses it to one shared bounded
    /// queue (the single-shard discipline), ignoring the weights.
    pub fn new(policy: QueuePolicy, capacity: usize, weights: &[u64], fair: bool) -> FairQueue {
        let n = if fair { weights.len().max(1) } else { 1 };
        let total_w: u64 = weights.iter().map(|&w| w.max(1)).sum::<u64>().max(1);
        let (shares, strides) = if fair {
            (
                weights
                    .iter()
                    .map(|&w| ((capacity as u64 * w.max(1) / total_w) as usize).max(1))
                    .collect(),
                weights.iter().map(|&w| WFQ_SCALE / w.max(1)).collect(),
            )
        } else {
            (vec![capacity; 1], vec![WFQ_SCALE; 1])
        };
        FairQueue {
            policy,
            fair,
            heaps: (0..n).map(|_| BinaryHeap::new()).collect(),
            shares,
            strides,
            vft: vec![0; n],
            vnow: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Queued requests across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues request `id` for `tenant`. Returns `false` when the
    /// tenant's capacity share (or the shared capacity, when unfair) is
    /// full — the caller sheds the request.
    pub fn try_push(&mut self, tenant: usize, id: usize, deadline_ns: VirtualNs) -> bool {
        let t = if self.fair { tenant } else { 0 };
        if self.heaps[t].len() >= self.shares[t] {
            return false;
        }
        let seq = self.seq;
        self.seq += 1;
        let prio = match self.policy {
            QueuePolicy::Fifo => seq,
            QueuePolicy::Edf => deadline_ns,
        };
        if self.heaps[t].is_empty() {
            // A tenant returning from idle resumes at the scheduler's
            // virtual now, not at its stale finish time — the standard
            // start-time reset that keeps WFQ work-conserving.
            self.vft[t] = self.vft[t].max(self.vnow) + self.strides[t];
        }
        self.heaps[t].push(Reverse((prio, seq, id)));
        self.len += 1;
        true
    }

    /// Dispatches the next request: the head of the non-empty tenant
    /// with the smallest virtual finish time (ties to the lowest tenant
    /// index), then advances that tenant's finish time by its stride.
    pub fn pop(&mut self) -> Option<usize> {
        let t = (0..self.heaps.len())
            .filter(|&t| !self.heaps[t].is_empty())
            .min_by_key(|&t| (self.vft[t], t))?;
        // Invariant: `t` was selected from the non-empty heaps above, so
        // this pop cannot fail; the fallthrough keeps the hot path
        // panic-free in release builds.
        let Some(Reverse((_, _, id))) = self.heaps[t].pop() else {
            debug_assert!(false, "selected tenant heap is empty");
            return None;
        };
        self.len -= 1;
        self.vnow = self.vft[t];
        if !self.heaps[t].is_empty() {
            self.vft[t] += self.strides[t];
        }
        Some(id)
    }

    /// Empties the queue, returning the ids in dispatch order (used when
    /// a shard dies and its backlog fails over).
    pub fn drain(&mut self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(id) = self.pop() {
            out.push(id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        // 1000 req/s, burst of 4: the burst drains instantly, then one
        // token per millisecond.
        let mut b = TokenBucket::new(1_000.0, 4);
        let taken = (0..10).filter(|_| b.try_take(0)).count();
        assert_eq!(taken, 4, "burst allowance");
        assert!(!b.try_take(999_000), "no full token yet");
        assert!(b.try_take(1_100_000), "refilled after ~1 ms");
        assert!(!b.try_take(1_100_000), "and spent again");
        // A long idle period refills only to the cap.
        let taken = (0..10).filter(|_| b.try_take(60_000_000_000)).count();
        assert_eq!(taken, 4, "cap bounds the refill");
    }

    #[test]
    fn token_bucket_is_deterministic() {
        let mut a = TokenBucket::new(3_333.5, 7);
        let mut b = TokenBucket::new(3_333.5, 7);
        for i in 0..5_000u64 {
            let now = i * 137_911;
            assert_eq!(a.try_take(now), b.try_take(now));
        }
    }

    #[test]
    fn wfq_shares_track_weights() {
        // Tenant 0 at weight 3, tenant 1 at weight 1, both with deep
        // backlogs: dispatches should interleave roughly 3:1.
        let mut q = FairQueue::new(QueuePolicy::Fifo, 64, &[3, 1], true);
        for i in 0..24 {
            assert!(q.try_push(0, i, 0));
        }
        for i in 24..32 {
            assert!(q.try_push(1, i, 0));
        }
        let first16: Vec<usize> = (0..16).map(|_| q.pop().unwrap()).collect();
        let t1_served = first16.iter().filter(|&&id| id >= 24).count();
        assert_eq!(t1_served, 4, "weight-1 tenant got {t1_served}/16");
    }

    #[test]
    fn capacity_shares_isolate_queue_full() {
        let mut q = FairQueue::new(QueuePolicy::Edf, 8, &[1, 1], true);
        // Tenant 0 floods: only its own share (4) admits.
        let admitted = (0..20).filter(|&i| q.try_push(0, i, 100)).count();
        assert_eq!(admitted, 4);
        // Tenant 1 is untouched by the flood.
        assert!(q.try_push(1, 100, 50));
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn unfair_mode_is_one_shared_bounded_queue() {
        // (policy, capacity, pushes as (tenant, id, deadline), pop order):
        // unfair mode ignores tenants, so each case is one bounded heap.
        type Case = (
            QueuePolicy,
            usize,
            &'static [(usize, usize, u64)],
            &'static [usize],
        );
        let cases: [Case; 3] = [
            // EDF order, and the shared capacity bounds every tenant.
            (
                QueuePolicy::Edf,
                3,
                &[(0, 10, 900), (1, 11, 100), (0, 12, 500), (1, 13, 1)],
                &[11, 12, 10],
            ),
            // FIFO pops in arrival order regardless of deadline.
            (
                QueuePolicy::Fifo,
                8,
                &[(0, 10, 900), (1, 11, 100), (0, 12, 500)],
                &[10, 11, 12],
            ),
            // Equal EDF deadlines pop in arrival order.
            (
                QueuePolicy::Edf,
                8,
                &[(0, 10, 900), (1, 11, 100), (0, 12, 500), (1, 13, 100)],
                &[11, 13, 12, 10],
            ),
        ];
        for (policy, capacity, pushes, order) in cases {
            let mut q = FairQueue::new(policy, capacity, &[1, 1], false);
            let admitted = pushes
                .iter()
                .filter(|&&(t, id, deadline)| q.try_push(t, id, deadline))
                .count();
            assert_eq!(admitted, pushes.len().min(capacity), "{policy:?}");
            assert_eq!(q.len(), order.len());
            let popped: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(popped, order, "{policy:?}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn drain_returns_dispatch_order_and_empties() {
        let mut q = FairQueue::new(QueuePolicy::Edf, 16, &[1, 1], true);
        q.try_push(0, 1, 300);
        q.try_push(0, 2, 100);
        q.try_push(1, 3, 200);
        let drained = q.drain();
        assert_eq!(drained.len(), 3);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // EDF within tenant 0: id 2 (deadline 100) precedes id 1.
        let pos = |id| drained.iter().position(|&x| x == id).unwrap();
        assert!(pos(2) < pos(1));
    }
}
