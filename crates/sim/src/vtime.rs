//! Virtual time and a deterministic discrete-event queue.
//!
//! The planning-service simulation (`mp-service`) advances a *simulated*
//! clock, decoupled from wall time, so campaigns are reproducible
//! bit-for-bit on any machine and at any thread count. Events are ordered
//! by `(timestamp, insertion sequence)`: ties are broken by insertion
//! order, never by heap internals, which is what makes the event loop
//! deterministic.
//!
//! [`EventQueue`] keeps two stores under one sequence counter: a binary
//! heap for events scheduled in any order, and a FIFO lane
//! ([`EventQueue::push_fifo`]) for a stream whose timestamps already
//! arrive non-decreasing, such as timers armed with a constant delay.
//! The lane appends and pops in O(1) and keeps those events out of the
//! heap, so the heap stays shallow. A lane push that would break the
//! lane's order goes to the heap instead. `pop` and `peek_time` take the
//! smaller `(timestamp, sequence)` of the heap top and the lane front, so
//! the queue pops exactly the sequence an all-heap queue would.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Virtual timestamps are integer nanoseconds from simulation start.
/// Integer (not float) so event ordering has no rounding ambiguity.
pub type VirtualNs = u64;

/// Nanoseconds per microsecond (the planner's modeled costs are in µs).
pub const NS_PER_US: u64 = 1_000;

struct Entry<E> {
    at: VirtualNs,
    seq: u64,
    event: E,
}

// `BinaryHeap` is a max-heap; reverse the ordering to pop the earliest
// `(at, seq)` first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Entry<E>) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Entry<E>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Entry<E>) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic discrete-event queue: a heap plus an ordered FIFO lane
/// sharing one sequence counter (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use mp_sim::vtime::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(20, "late");
/// q.push(10, "early");
/// q.push(10, "early-tie");
/// assert_eq!(q.pop(), Some((10, "early")));
/// assert_eq!(q.pop(), Some((10, "early-tie")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
///
/// // Lane events interleave with heap events by (time, insertion order).
/// q.push_fifo(5, "timer");
/// q.push(5, "tie");
/// q.push(1, "first");
/// assert_eq!(q.pop(), Some((1, "first")));
/// assert_eq!(q.pop(), Some((5, "timer")));
/// assert_eq!(q.pop(), Some((5, "tie")));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Entries in non-decreasing `(at, seq)` order.
    fifo: VecDeque<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            fifo: VecDeque::new(),
            seq: 0,
        }
    }

    fn entry(&mut self, at: VirtualNs, event: E) -> Entry<E> {
        let seq = self.seq;
        self.seq += 1;
        Entry { at, seq, event }
    }

    /// Schedules `event` at virtual time `at`. Events with equal
    /// timestamps pop in insertion order.
    pub fn push(&mut self, at: VirtualNs, event: E) {
        let e = self.entry(at, event);
        self.heap.push(e);
    }

    /// Schedules `event` at virtual time `at` like [`EventQueue::push`],
    /// on the FIFO lane when `at` is not earlier than the lane's last
    /// event (O(1)), on the heap otherwise. Pop order is the same either
    /// way.
    pub fn push_fifo(&mut self, at: VirtualNs, event: E) {
        let e = self.entry(at, event);
        if self.fifo.back().is_none_or(|last| last.at <= at) {
            self.fifo.push_back(e);
        } else {
            self.heap.push(e);
        }
    }

    /// Whether the lane front precedes the heap top (`false` when the
    /// lane is empty).
    fn lane_first(&self) -> bool {
        match (self.fifo.front(), self.heap.peek()) {
            (Some(f), Some(h)) => (f.at, f.seq) < (h.at, h.seq),
            (front, _) => front.is_some(),
        }
    }

    /// Removes and returns the earliest event and its timestamp.
    pub fn pop(&mut self) -> Option<(VirtualNs, E)> {
        let e = if self.lane_first() {
            self.fifo.pop_front()
        } else {
            self.heap.pop()
        };
        e.map(|e| (e.at, e.event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<VirtualNs> {
        if self.lane_first() {
            self.fifo.front().map(|e| e.at)
        } else {
            self.heap.peek().map(|e| e.at)
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.fifo.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.fifo.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, 'c');
        q.push(1, 'a');
        q.push(5, 'd');
        q.push(3, 'b');
        let order: Vec<(VirtualNs, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(1, 'a'), (3, 'b'), (5, 'c'), (5, 'd')]);
    }

    #[test]
    fn interleaved_push_pop_keeps_sequence_ties_stable() {
        let mut q = EventQueue::new();
        q.push(10, 0);
        q.push(10, 1);
        assert_eq!(q.pop(), Some((10, 0)));
        q.push(10, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 2)));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_and_peek_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(7, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2));
    }

    #[test]
    fn an_out_of_order_lane_push_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.push_fifo(10, 'b');
        q.push_fifo(4, 'a'); // earlier than the lane's last: heap
        q.push_fifo(10, 'c');
        assert_eq!((q.fifo.len(), q.heap.len()), (2, 1));
        assert_eq!(q.peek_time(), Some(4));
        let order: Vec<(VirtualNs, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(4, 'a'), (10, 'b'), (10, 'c')]);
        assert!(q.is_empty());
    }
}
