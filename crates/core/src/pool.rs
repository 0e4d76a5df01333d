//! Per-instance busy/fault bookkeeping for a pool of MPAccel instances.
//!
//! The planning service (`mp-service`) dispatches queries onto N simulated
//! accelerators. This module owns the pool-side state: which instance is
//! busy until when, which is quarantined by the circuit breaker, and the
//! per-instance fault/served statistics the breaker's strike logic reads.
//!
//! All timestamps are virtual nanoseconds (`mp_sim::vtime`); the pool is
//! pure bookkeeping and never consults wall time, so service runs are
//! deterministic.

/// Lifetime statistics for one accelerator instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstanceStats {
    /// Dispatches begun on this instance.
    pub served: u64,
    /// Faulted dispatches observed on this instance.
    pub faults: u64,
    /// Times the circuit breaker quarantined this instance.
    pub quarantines: u64,
    /// Total virtual time this instance spent busy (ns).
    pub busy_ns: u64,
}

/// A pool of N simulated MPAccel instances with per-instance busy,
/// quarantine, and fault-strike state.
#[derive(Clone, Debug)]
pub struct AcceleratorPool {
    busy_until: Vec<u64>,
    quarantined_until: Vec<u64>,
    strikes: Vec<u32>,
    stats: Vec<InstanceStats>,
}

impl AcceleratorPool {
    /// A pool of `n` idle, healthy instances.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> AcceleratorPool {
        assert!(n > 0, "a pool needs at least one instance");
        AcceleratorPool {
            busy_until: vec![0; n],
            quarantined_until: vec![0; n],
            strikes: vec![0; n],
            stats: vec![InstanceStats::default(); n],
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.busy_until.len()
    }

    /// Always false (the constructor rejects empty pools); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.busy_until.is_empty()
    }

    /// Whether instance `i` is quarantined at `now`.
    pub fn is_quarantined(&self, i: usize, now: u64) -> bool {
        self.quarantined_until[i] > now
    }

    /// Instances not quarantined at `now`.
    pub fn healthy(&self, now: u64) -> usize {
        (0..self.len())
            .filter(|&i| !self.is_quarantined(i, now))
            .count()
    }

    /// Lowest-indexed instance that is idle and healthy at `now`
    /// (deterministic tie-break: index order).
    pub fn acquire(&self, now: u64) -> Option<usize> {
        (0..self.len()).find(|&i| self.busy_until[i] <= now && !self.is_quarantined(i, now))
    }

    /// Earliest future time (strictly after `now`) at which some instance
    /// becomes dispatchable: a busy instance finishing or a quarantine
    /// expiring. `None` when every instance is idle and healthy (nothing
    /// to wait for).
    pub fn next_dispatchable_at(&self, now: u64) -> Option<u64> {
        (0..self.len())
            .filter_map(|i| {
                let t = self.busy_until[i].max(self.quarantined_until[i]);
                (t > now).then_some(t)
            })
            .min()
    }

    /// [`AcceleratorPool::next_dispatchable_at`], unless a running
    /// dispatch ends at exactly that instant: the instant is then already
    /// marked by that dispatch's completion, and a caller that re-runs
    /// its dispatcher on every completion needs no separate wake-up for
    /// it. In practice an unmarked instant is a quarantine expiry.
    pub fn next_unmarked_at(&self, now: u64) -> Option<u64> {
        self.next_dispatchable_at(now)
            .filter(|t| !self.busy_until.contains(t))
    }

    /// Marks instance `i` busy for `service_ns` starting at `now` and
    /// counts the dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the instance is still busy (the service dispatched onto
    /// an occupied instance — a scheduler bug).
    pub fn begin(&mut self, i: usize, now: u64, service_ns: u64) {
        assert!(
            self.busy_until[i] <= now,
            "instance {i} is busy until {} (now {now})",
            self.busy_until[i]
        );
        self.busy_until[i] = now + service_ns;
        self.stats[i].served += 1;
        self.stats[i].busy_ns += service_ns;
    }

    /// Records a clean completion on instance `i`, clearing its fault
    /// strike streak.
    pub fn record_success(&mut self, i: usize) {
        self.strikes[i] = 0;
    }

    /// Records a faulted completion on instance `i`; returns the
    /// consecutive-fault streak (the circuit breaker's strike count).
    pub fn record_fault(&mut self, i: usize) -> u32 {
        self.strikes[i] += 1;
        self.stats[i].faults += 1;
        self.strikes[i]
    }

    /// Quarantines instance `i` until the given virtual time and clears
    /// its streak (it re-enters service on probation).
    pub fn quarantine(&mut self, i: usize, until: u64) {
        self.quarantined_until[i] = self.quarantined_until[i].max(until);
        self.strikes[i] = 0;
        self.stats[i].quarantines += 1;
    }

    /// Ends instance `i`'s quarantine at `now` (scrub readmission): the
    /// instance becomes dispatchable immediately. A no-op when the
    /// quarantine already expired.
    pub fn readmit(&mut self, i: usize, now: u64) {
        self.quarantined_until[i] = self.quarantined_until[i].min(now);
    }

    /// Per-instance statistics.
    pub fn stats(&self, i: usize) -> &InstanceStats {
        &self.stats[i]
    }

    /// Sum of quarantine episodes across the pool.
    pub fn total_quarantines(&self) -> u64 {
        self.stats.iter().map(|s| s.quarantines).sum()
    }

    /// Sum of busy virtual time across the pool (for utilization).
    pub fn total_busy_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.busy_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_prefers_lowest_index_and_skips_busy() {
        let mut p = AcceleratorPool::new(3);
        assert_eq!(p.acquire(0), Some(0));
        p.begin(0, 0, 100);
        assert_eq!(p.acquire(0), Some(1));
        p.begin(1, 0, 50);
        p.begin(2, 0, 10);
        assert_eq!(p.acquire(0), None);
        assert_eq!(p.next_dispatchable_at(0), Some(10));
        assert_eq!(p.acquire(10), Some(2));
        assert_eq!(p.acquire(100), Some(0));
    }

    #[test]
    fn quarantine_hides_an_instance_until_expiry() {
        let mut p = AcceleratorPool::new(2);
        p.quarantine(0, 500);
        assert!(p.is_quarantined(0, 499));
        assert!(!p.is_quarantined(0, 500));
        assert_eq!(p.healthy(0), 1);
        assert_eq!(p.acquire(0), Some(1));
        p.begin(1, 0, 1_000);
        // Nothing dispatchable now; the quarantine expiry comes first.
        assert_eq!(p.acquire(0), None);
        assert_eq!(p.next_dispatchable_at(0), Some(500));
        assert_eq!(p.acquire(500), Some(0));
        assert_eq!(p.total_quarantines(), 1);
    }

    #[test]
    fn a_busy_only_pool_has_no_unmarked_instant() {
        let mut p = AcceleratorPool::new(2);
        assert_eq!(p.next_unmarked_at(0), None, "idle pool");
        p.begin(0, 0, 100);
        p.begin(1, 0, 40);
        assert_eq!(p.next_dispatchable_at(0), Some(40));
        assert_eq!(p.next_unmarked_at(0), None, "a completion marks 40");
    }

    #[test]
    fn a_quarantine_past_busy_is_unmarked() {
        let mut p = AcceleratorPool::new(1);
        p.begin(0, 0, 100);
        p.quarantine(0, 500);
        // Busy ends at 100 but the instance is dispatchable only at 500,
        // when no completion fires.
        assert_eq!(p.next_dispatchable_at(0), Some(500));
        assert_eq!(p.next_unmarked_at(0), Some(500));
        // A quarantine that ends before the busy period does not move
        // the instant off the completion.
        let mut q = AcceleratorPool::new(1);
        q.begin(0, 0, 100);
        q.quarantine(0, 60);
        assert_eq!(q.next_dispatchable_at(0), Some(100));
        assert_eq!(q.next_unmarked_at(0), None);
    }

    #[test]
    fn mixed_instances_mark_by_any_completion() {
        let mut p = AcceleratorPool::new(3);
        p.begin(0, 0, 300);
        p.quarantine(1, 300); // idle, quarantined until 300
        p.begin(2, 0, 700);
        // Instance 1 frees at 300, the instant instance 0 completes.
        assert_eq!(p.next_dispatchable_at(0), Some(300));
        assert_eq!(p.next_unmarked_at(0), None);
        p.quarantine(1, 500);
        assert_eq!(p.next_dispatchable_at(0), Some(300));
        assert_eq!(p.next_unmarked_at(0), None, "instance 0 still frees at 300");
        // Past instance 0's completion the next instant is instance 1's
        // quarantine expiry, which nothing marks.
        p.begin(0, 300, 900);
        assert_eq!(p.next_dispatchable_at(300), Some(500));
        assert_eq!(p.next_unmarked_at(300), Some(500));
        // Once instance 1 serves again, its own completion marks 600.
        p.begin(1, 500, 100);
        assert_eq!(p.next_dispatchable_at(500), Some(600));
        assert_eq!(p.next_unmarked_at(500), None);
    }

    #[test]
    fn readmit_cuts_a_quarantine_short() {
        let mut p = AcceleratorPool::new(2);
        p.quarantine(0, 10_000);
        assert!(p.is_quarantined(0, 100));
        p.readmit(0, 100);
        assert!(!p.is_quarantined(0, 100));
        assert_eq!(p.acquire(100), Some(0));
        // Readmitting an already-healthy instance changes nothing.
        p.readmit(1, 100);
        assert_eq!(p.healthy(100), 2);
        assert_eq!(p.total_quarantines(), 1);
    }

    #[test]
    fn strikes_accumulate_and_reset() {
        let mut p = AcceleratorPool::new(1);
        assert_eq!(p.record_fault(0), 1);
        assert_eq!(p.record_fault(0), 2);
        p.record_success(0);
        assert_eq!(p.record_fault(0), 1);
        p.quarantine(0, 10);
        assert_eq!(p.record_fault(0), 1, "quarantine clears the streak");
        assert_eq!(p.stats(0).faults, 4);
    }

    #[test]
    fn busy_accounting_accumulates() {
        let mut p = AcceleratorPool::new(2);
        p.begin(0, 0, 100);
        p.begin(1, 0, 40);
        p.begin(1, 40, 60);
        assert_eq!(p.total_busy_ns(), 200);
        assert_eq!(p.stats(1).served, 2);
    }

    #[test]
    #[should_panic(expected = "busy until")]
    fn double_dispatch_panics() {
        let mut p = AcceleratorPool::new(1);
        p.begin(0, 0, 100);
        p.begin(0, 50, 10);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_pool_rejected() {
        let _ = AcceleratorPool::new(0);
    }
}
