//! The original `BinaryHeap` event queue, kept as a test-only reference
//! model for the timing-wheel `EventQueue`. Every schedule is a heap push
//! and every serve a heap pop, ordered by (time, insertion sequence), so
//! its pop order is the specification the wheel must reproduce exactly.
//! The differential property tests drive both with the same operations.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hcloud_sim::SimTime;

/// A pending event: a payload scheduled for an instant.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest-seq)
        // event surfaces first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference queue: same observable contract as `EventQueue`
/// (`schedule`, `pop`, `drain_next_batch`/`ack`, depth telemetry).
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    outstanding: usize,
    next_seq: u64,
    now: SimTime,
    max_depth: usize,
}

impl<E> HeapEventQueue<E> {
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            outstanding: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            max_depth: 0,
        }
    }

    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduled an event in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
        self.max_depth = self.max_depth.max(self.len());
    }

    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.event))
    }

    pub fn drain_next_batch(&mut self, buf: &mut Vec<E>) -> Option<SimTime> {
        assert_eq!(self.outstanding, 0, "previous batch not fully acked");
        buf.clear();
        let (t, first) = self.pop()?;
        buf.push(first);
        while self.heap.peek().is_some_and(|s| s.at == t) {
            buf.push(self.heap.pop().expect("peeked").event);
        }
        self.outstanding += buf.len();
        Some(t)
    }

    pub fn ack(&mut self) {
        assert!(self.outstanding > 0, "ack without a drained event");
        self.outstanding -= 1;
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.outstanding
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    pub fn now(&self) -> SimTime {
        self.now
    }
}
