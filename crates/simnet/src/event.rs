//! The discrete-event queue.
//!
//! A binary heap keyed on `(time, sequence)`: events at equal virtual times
//! pop in insertion order, which makes whole-cluster simulations fully
//! deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap over (time, seq) via reversed comparison.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue over an arbitrary event payload type.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: f64,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
            peak: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` at absolute virtual time `time`. Scheduling in the
    /// past (before the last popped event) is a logic error.
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite");
        assert!(
            time >= self.now - 1e-9,
            "scheduling into the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.peak = self.peak.max(self.heap.len());
    }

    /// Pop the earliest event, advancing `now`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.event)
        })
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of the queue length over its whole lifetime — the
    /// telemetry `queue_depth` peak without sampling on every pop.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule(2.5, ());
        q.schedule(7.0, ());
        q.pop();
        assert_eq!(q.now(), 2.5);
        q.pop();
        assert_eq!(q.now(), 7.0);
    }

    #[test]
    fn scheduling_at_now_is_ok() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.pop();
        q.schedule(1.0, 2); // same time as `now` — allowed
        assert_eq!(q.pop(), Some((1.0, 2)));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(10.0, 4);
        assert_eq!(q.pop(), Some((1.0, 1)));
        q.schedule(2.0, 2);
        q.schedule(3.0, 3);
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert_eq!(q.pop(), Some((10.0, 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracking() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peak_len_is_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        q.schedule(3.0, ());
        q.pop();
        q.pop();
        q.schedule(4.0, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_len(), 3);
    }
}
