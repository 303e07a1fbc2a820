//! The pending-event set of the discrete-event engine.
//!
//! [`EventQueue`] is a stable min-priority queue keyed on
//! `(SimTime, sequence number)`. The sequence number is assigned at
//! insertion, which makes the queue *stable*: events scheduled for the same
//! instant are delivered in the order they were scheduled. Stability matters
//! for determinism — the paper's simulator processes a trace "event by
//! event", and simultaneous events must not be reordered between runs or
//! platforms.
//!
//! The contact trace itself does not pass through this queue: it is
//! already sorted, so [`crate::Engine::run_stream`] reads it in place and
//! merges it with the queue, ranking the whole stream at a sequence number
//! it claims with [`EventQueue::reserve_seq`]. A replication that stops
//! early therefore never touches the contacts it does not reach.
//!
//! # Two-tier layout
//!
//! What the queue does hold is mostly *static*: churn transitions and flow
//! arrivals are scheduled before the first event fires, and only a trickle
//! of expiry checks is scheduled at run time. A binary heap makes every one
//! of those static events pay `O(log n)` twice (push and pop) over
//! pointer-chasing sift paths. So the queue is split:
//!
//! * everything scheduled before the first pop lands in a plain vector that
//!   is sorted **once** (descending, so earliest pops from the back in
//!   O(1)) when the first pop "seals" the batch;
//! * everything scheduled after sealing goes to a small overflow heap.
//!
//! Batch sequence numbers are all smaller than any overflow sequence
//! number, so "pop the batch when its head time is ≤ the heap's head time"
//! reproduces the exact global `(time, seq)` order a single heap would
//! yield — bit-for-bit, which the golden fixtures verify.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the queue: payload + firing time + insertion sequence.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A stable min-priority queue of timestamped events.
pub struct EventQueue<E> {
    /// Pre-run events. Unsorted until sealed; afterwards sorted by
    /// `(time, seq)` **descending** so the earliest entry is `batch.last()`
    /// and popping is `Vec::pop`.
    batch: Vec<Scheduled<E>>,
    /// Set by the first pop/peek; from then on `schedule` feeds `overflow`.
    sealed: bool,
    /// Events scheduled at run time (expiry checks, follow-ups). Their
    /// sequence numbers all exceed every batch entry's.
    overflow: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            batch: Vec::new(),
            sealed: false,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// An empty queue with pre-reserved capacity (use when the number of
    /// pre-run events is known up front to avoid re-allocation).
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            batch: Vec::with_capacity(capacity),
            sealed: false,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Scheduled { time, seq, event };
        if self.sealed {
            self.overflow.push(entry);
        } else {
            self.batch.push(entry);
        }
    }

    /// Claim the next sequence number without queueing anything. A caller
    /// that merges its own time-sorted stream with this queue ranks the
    /// whole stream at this position: after every event scheduled so far,
    /// before every event scheduled later.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Sort the static batch (earliest at the back) and freeze it; later
    /// `schedule` calls go to the overflow heap.
    fn seal(&mut self) {
        if !self.sealed {
            // The common shape is an already time-ordered batch (flow
            // arrivals, then the trace's sorted contacts): one O(n) check
            // plus a reverse beats re-discovering sortedness inside the
            // sort. Keys are unique (seq is), so an unstable sort is exact.
            let ascending = self
                .batch
                .windows(2)
                .all(|w| (w[0].time, w[0].seq) <= (w[1].time, w[1].seq));
            if ascending {
                self.batch.reverse();
            } else {
                self.batch
                    .sort_unstable_by_key(|s| std::cmp::Reverse((s.time, s.seq)));
            }
            self.sealed = true;
        }
    }

    /// True when the earliest pending event lives in the batch rather than
    /// the overflow heap. Ties go to the batch: its sequence numbers are
    /// all smaller.
    fn batch_first(&self) -> bool {
        match (self.batch.last(), self.overflow.peek()) {
            (Some(b), Some(o)) => b.time <= o.time,
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Remove and return the earliest event, together with its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.seal();
        if self.batch_first() {
            self.batch.pop().map(|s| (s.time, s.event))
        } else {
            self.overflow.pop().map(|s| (s.time, s.event))
        }
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` key of the earliest pending event.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.seal();
        let head = if self.batch_first() {
            self.batch.last()
        } else {
            self.overflow.peek()
        };
        head.map(|s| (s.time, s.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.batch.len() + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty() && self.overflow.is_empty()
    }

    /// Drop all pending events (sequence counter keeps advancing so
    /// stability is preserved across clears; the next scheduling round
    /// starts a fresh batch).
    pub fn clear(&mut self) {
        self.batch.clear();
        self.overflow.clear();
        self.sealed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_ties_stay_stable() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "first@5");
        q.schedule(t(1), "only@1");
        q.schedule(t(5), "second@5");
        assert_eq!(q.pop().unwrap().1, "only@1");
        assert_eq!(q.pop().unwrap().1, "first@5");
        assert_eq!(q.pop().unwrap().1, "second@5");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_then_reuse_keeps_stability() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 0);
        q.clear();
        assert!(q.is_empty());
        q.schedule(t(2), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.pop(), Some((t(2), 1)));
        assert_eq!(q.pop(), Some((t(2), 2)));
    }

    #[test]
    fn run_time_events_interleave_with_the_sealed_batch() {
        // Pre-run batch at t=10 and t=30; after the first pop (which seals
        // the batch), schedule overflow events earlier, equal and later.
        let mut q = EventQueue::new();
        q.schedule(t(10), "batch@10");
        q.schedule(t(30), "batch@30");
        assert_eq!(q.pop(), Some((t(10), "batch@10")));
        q.schedule(t(20), "dyn@20");
        q.schedule(t(30), "dyn@30");
        q.schedule(t(40), "dyn@40");
        assert_eq!(q.pop(), Some((t(20), "dyn@20")));
        // Equal-time tie: the batch event was scheduled first, so it wins.
        assert_eq!(q.pop(), Some((t(30), "batch@30")));
        assert_eq!(q.pop(), Some((t(30), "dyn@30")));
        assert_eq!(q.pop(), Some((t(40), "dyn@40")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reserved_seq_ranks_between_earlier_and_later_events() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "before");
        let reserved = q.reserve_seq();
        assert_eq!(q.len(), 1, "reserving queues nothing");
        assert!(q.peek_key().unwrap() < (t(5), reserved));
        q.pop();
        q.schedule(t(5), "after");
        assert!(q.peek_key().unwrap() > (t(5), reserved));
    }

    #[test]
    fn overflow_ties_break_by_insertion_order_too() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 0);
        assert_eq!(q.pop(), Some((t(1), 0)));
        for i in 1..50 {
            q.schedule(t(9), i);
        }
        for i in 1..50 {
            assert_eq!(q.pop(), Some((t(9), i)));
        }
    }
}
