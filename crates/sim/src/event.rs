//! Deterministic discrete-event queue.
//!
//! The HCloud scenario runner advances simulation time by repeatedly popping
//! the earliest pending event. Determinism requires a *stable* order among
//! events scheduled for the same instant: the queue breaks ties by
//! insertion sequence number, so two runs with identical inputs pop events
//! in identical order.
//!
//! [`EventQueue`] is a hierarchical timing wheel ([`LEVELS`] levels ×
//! [`SLOTS`] slots of [`LEVEL_BITS`]-bit digits over the microsecond
//! timestamp). Scheduling and serving are O(1) amortized regardless of how
//! deep the queue gets, which is what lets fleet-scale scenarios (10⁵
//! instances, 10⁶ jobs) run without `O(log n)` heap churn dominating. The
//! property suite pins it against a stable sort and, op for op, against a
//! `BinaryHeap` reference model kept under `tests/reference/`.
//!
//! An event lives at the level of the highest [`LEVEL_BITS`]-bit digit in
//! which its timestamp differs from the current clock, in the slot named by
//! that digit. Events due exactly "now" sit in a dedicated FIFO. Serving
//! takes the lowest occupied level's lowest occupied slot (a bitmap scan):
//! level 0 buckets hold one exact timestamp and become the next batch
//! wholesale; higher-level buckets cascade — their earliest timestamp
//! becomes the new clock and every other member re-enters a lower level.
//! Buckets stay in insertion order without sorting, so the pop order is
//! exactly (time, insertion) order.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Bits per wheel level: each level indexes one 6-bit digit of the
/// microsecond timestamp.
pub const LEVEL_BITS: u32 = 6;
/// Slots per level (`2^LEVEL_BITS`).
pub const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels: `11 × 6 = 66` bits cover the full `u64` timestamp range.
pub const LEVELS: usize = 11;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// A handle to a scheduled event, returned by [`EventSink::schedule`]:
/// the event's insertion sequence number, unique per queue for the
/// queue's whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventToken(u64);

/// The write half of an event queue: anything that can accept scheduled
/// events. Scheduler hot paths take `&mut impl EventSink<Event>` so the
/// runner can hand them a wrapped queue (the profiling adapter, a timing
/// replay) instead of the bare [`EventQueue`].
pub trait EventSink<E> {
    /// Schedules `event` at instant `at`; see [`EventQueue::schedule`].
    fn schedule(&mut self, at: SimTime, event: E) -> EventToken;
}

/// A pending event: a payload scheduled for an instant.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// A time-ordered event queue with stable FIFO tie-breaking, implemented
/// as a hierarchical timing wheel.
///
/// ```
/// use hcloud_sim::{SimTime, event::EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(1), "b");
/// q.schedule(SimTime::from_secs(1), "c");
/// q.schedule(SimTime::ZERO, "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
///
/// Invariant: every wheel entry agrees with the clock on all digits above
/// its level, and its slot digit is strictly greater than the clock's
/// digit at that level. This makes lower levels strictly earlier than
/// higher ones, so serving scans levels bottom-up and slots by lowest set
/// bit. It also keeps every bucket in insertion (sequence) order:
/// `schedule` appends the newest sequence number, and a cascade re-files
/// the served bucket's members in order into lower levels, which are empty
/// whenever a higher level is served.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events due exactly at `now`, in insertion order.
    due: VecDeque<Scheduled<E>>,
    /// `LEVELS × SLOTS` buckets, row-major by level.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Per-level slot-occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Events in `due` + buckets.
    pending: usize,
    /// Events drained by `drain_next_batch` but not yet `ack`ed.
    outstanding: usize,
    /// Scratch buffer the served bucket is swapped into; retains its
    /// capacity across serves so the advance path stops allocating once
    /// the wheel is warm.
    serving: Vec<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
    max_depth: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            due: VecDeque::new(),
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            pending: 0,
            outstanding: 0,
            serving: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            max_depth: 0,
        }
    }

    /// The current simulation instant: the timestamp of the most recently
    /// popped event (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The wheel position for a future timestamp: the level of the highest
    /// digit differing from `now`, and that digit as the slot.
    fn level_slot(&self, at: SimTime) -> (usize, usize) {
        let d = at.as_micros() ^ self.now.as_micros();
        debug_assert!(d != 0, "level_slot is only defined for at != now");
        let level = ((63 - d.leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((at.as_micros() >> (level as u32 * LEVEL_BITS)) & SLOT_MASK) as usize;
        (level, slot)
    }

    /// Schedules `event` at instant `at`; returns its [`EventToken`].
    ///
    /// Scheduling in the past is a logic error in the caller; in debug
    /// builds it panics, in release builds the event fires "now" (at the
    /// current clock) to preserve monotonicity.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventToken {
        debug_assert!(
            at >= self.now,
            "scheduled an event in the past: {at} < {now}",
            at = at,
            now = self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { at, seq, event };
        if at == self.now {
            // Sequence numbers only grow, so appending keeps `due` sorted.
            self.due.push_back(s);
        } else {
            let (level, slot) = self.level_slot(at);
            self.buckets[level * SLOTS + slot].push(s);
            self.occupied[level] |= 1 << slot;
        }
        self.pending += 1;
        self.max_depth = self.max_depth.max(self.len());
        EventToken(seq)
    }

    /// Serves the earliest occupied wheel position into `due`, advancing
    /// the clock. Caller guarantees `due` is empty and `pending > 0`.
    ///
    /// The served bucket is swapped into a reusable scratch buffer rather
    /// than moved out, so the steady state performs no allocation:
    /// capacities circulate between the scratch buffer and the buckets it
    /// serves. Buckets are in sequence order (see [`EventQueue`]), so the
    /// members reach `due` already in FIFO order.
    fn advance(&mut self) {
        debug_assert!(self.due.is_empty());
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as usize;
            debug_assert!(self.serving.is_empty());
            std::mem::swap(&mut self.buckets[level * SLOTS + slot], &mut self.serving);
            self.occupied[level] &= !(1u64 << slot);
            debug_assert!(!self.serving.is_empty(), "occupancy bit without entries");
            debug_assert!(
                self.serving.windows(2).all(|w| w[0].seq < w[1].seq),
                "bucket out of insertion order"
            );
            if level == 0 {
                // A level-0 bucket differs from `now` only in the digit it
                // is keyed by: every member shares one exact timestamp.
                let at = self.serving[0].at;
                debug_assert!(self.serving.iter().all(|s| s.at == at));
                debug_assert!(at > self.now, "event queue went backwards in time");
                self.now = at;
                self.due.extend(self.serving.drain(..));
            } else {
                // Cascade: the bucket's earliest timestamp becomes the new
                // clock; everything later re-enters at a lower level.
                let target = self
                    .serving
                    .iter()
                    .map(|s| s.at)
                    .min()
                    .expect("bucket non-empty");
                debug_assert!(target > self.now, "event queue went backwards in time");
                self.now = target;
                let now_us = target.as_micros();
                for s in self.serving.drain(..) {
                    if s.at == target {
                        self.due.push_back(s);
                    } else {
                        // `level_slot` inlined against the new clock; the
                        // drain borrow keeps `&self` methods out of reach.
                        let d = s.at.as_micros() ^ now_us;
                        let l = ((63 - d.leading_zeros()) / LEVEL_BITS) as usize;
                        let sl =
                            ((s.at.as_micros() >> (l as u32 * LEVEL_BITS)) & SLOT_MASK) as usize;
                        debug_assert!(l <= level, "cascade must descend");
                        self.buckets[l * SLOTS + sl].push(s);
                        self.occupied[l] |= 1 << sl;
                    }
                }
            }
            return;
        }
        unreachable!("advance called on an empty wheel");
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() {
            if self.pending == 0 {
                return None;
            }
            self.advance();
        }
        let s = self.due.pop_front().expect("advance fills due");
        self.pending -= 1;
        Some((s.at, s.event))
    }

    /// Drains every event due at the earliest pending timestamp into
    /// `buf`, in (time, insertion) order, advancing the clock to that
    /// timestamp. Returns the batch timestamp, or `None` when empty.
    ///
    /// Drained events count toward [`len`] until [`ack`]ed, so depth
    /// telemetry matches a pop-one-dispatch-one loop exactly.
    ///
    /// [`len`]: EventQueue::len
    /// [`ack`]: EventQueue::ack
    pub fn drain_next_batch(&mut self, buf: &mut Vec<E>) -> Option<SimTime> {
        debug_assert_eq!(self.outstanding, 0, "previous batch not fully acked");
        buf.clear();
        if self.due.is_empty() {
            if self.pending == 0 {
                return None;
            }
            self.advance();
        }
        let n = self.due.len();
        buf.extend(self.due.drain(..).map(|s| s.event));
        self.pending -= n;
        self.outstanding += n;
        Some(self.now)
    }

    /// Acknowledges one drained event as dispatched (see
    /// [`EventQueue::drain_next_batch`]).
    pub fn ack(&mut self) {
        debug_assert!(self.outstanding > 0, "ack without a drained event");
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Number of pending events (drained-but-unacked events included).
    pub fn len(&self) -> usize {
        self.pending + self.outstanding
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// High-water mark of pending events — how deep the queue ever got.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

impl<E> EventSink<E> for EventQueue<E> {
    fn schedule(&mut self, at: SimTime, event: E) -> EventToken {
        EventQueue::schedule(self, at, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops_not_schedules() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_monotonic() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 0);
        let (t1, _) = q.pop().unwrap();
        q.schedule(t1 + SimDuration::from_secs(1), 1);
        q.schedule(t1 + SimDuration::from_secs(3), 3);
        q.schedule(t1 + SimDuration::from_secs(2), 2);
        let mut last = t1;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn tracks_scheduling_statistics() {
        let mut q = EventQueue::new();
        assert_eq!(q.scheduled_total(), 0);
        assert_eq!(q.max_depth(), 0);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.max_depth(), 2);
        q.pop();
        q.pop();
        q.schedule(SimTime::from_secs(3), 3);
        assert_eq!(q.scheduled_total(), 3, "total counts every schedule");
        assert_eq!(q.max_depth(), 2, "high-water mark survives drains");
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::<i64>::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.drain_next_batch(&mut Vec::new()), None);
    }

    #[test]
    fn drain_serves_whole_timestamps_and_len_tracks_acks() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(4);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(SimTime::from_secs(9), 3);
        let mut buf = Vec::new();
        assert_eq!(q.drain_next_batch(&mut buf), Some(t));
        assert_eq!(buf, vec![1, 2]);
        assert_eq!(q.len(), 3, "drained events still count until acked");
        q.ack();
        assert_eq!(q.len(), 2, "ack mirrors a sequential pop");
        // Scheduling mid-batch lands the event in the next batch at the
        // same timestamp.
        q.schedule(t, 4);
        q.ack();
        assert_eq!(q.drain_next_batch(&mut buf), Some(t));
        assert_eq!(buf, vec![4]);
        q.ack();
        assert_eq!(q.drain_next_batch(&mut buf), Some(SimTime::from_secs(9)));
        assert_eq!(buf, vec![3]);
        q.ack();
        assert_eq!(q.drain_next_batch(&mut buf), None);
    }

    #[test]
    fn wheel_cascades_across_levels() {
        // Timestamps chosen to span several 6-bit digit boundaries, so
        // serving exercises the cascade path repeatedly.
        let mut q = EventQueue::new();
        let times = [
            1u64,
            63,
            64,
            65,
            4095,
            4096,
            262_143,
            262_144,
            16_777_217,
            u64::from(u32::MAX),
            1 << 40,
            (1 << 40) + 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i as i64);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
    }
}
