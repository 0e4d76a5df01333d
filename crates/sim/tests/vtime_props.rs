//! Property test of the event queue's FIFO lane: any interleaving of
//! `push`, `push_fifo` and `pop` — in-order and out-of-order lane pushes,
//! equal timestamps — pops exactly what an all-heap queue pops, and
//! agrees on `peek_time`, `len` and `is_empty` after every step.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mp_sim::vtime::{EventQueue, VirtualNs};
use proptest::prelude::*;

/// The reference: one binary heap ordered by `(time, insertion order)`.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(VirtualNs, u64)>>,
    seq: u64,
}

impl HeapQueue {
    /// Pushes event number `seq` (events are named by insertion order).
    fn push(&mut self, at: VirtualNs) {
        self.heap.push(Reverse((at, self.seq)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(VirtualNs, u64)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn peek_time(&self) -> Option<VirtualNs> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }
}

/// Lane delay of the constant-delay timer stream (kind 2).
const TIMER: VirtualNs = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ops are `(kind, offset)`: 0 heap push at `now + offset`, 1 lane
    /// push at `now + offset` (often out of order), 2 lane push at
    /// `now + TIMER` (a constant-delay timer, always in order), 3 pop.
    /// `now` is the last popped time, as in a simulation loop.
    #[test]
    fn lane_and_heap_pop_like_one_heap(ops in prop::collection::vec((0u8..4, 0u64..8), 0..200)) {
        let mut q = EventQueue::new();
        let mut reference = HeapQueue::default();
        let mut now = 0;
        for (kind, offset) in ops {
            match kind {
                0..=2 => {
                    let at = now + if kind == 2 { TIMER } else { offset };
                    let id = reference.seq;
                    if kind == 0 {
                        q.push(at, id);
                    } else {
                        q.push_fifo(at, id);
                    }
                    reference.push(at);
                }
                _ => {
                    let got = q.pop();
                    prop_assert_eq!(got, reference.pop());
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
            }
            prop_assert_eq!(q.peek_time(), reference.peek_time());
            prop_assert_eq!(q.len(), reference.heap.len());
            prop_assert_eq!(q.is_empty(), reference.heap.is_empty());
        }
        // Drain: the remaining order matches too.
        loop {
            let got = q.pop();
            prop_assert_eq!(got, reference.pop());
            if got.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }
}
