//! A minimal time-ordered event queue over `f64` timestamps, driving the
//! eager simulator.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A queue entry: `(time, payload)`, popped in non-decreasing time order
/// (ties broken by insertion order via a sequence number, keeping the
/// simulation deterministic).
struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        // `total_cmp` equality, not `==`: `Eq` must stay consistent with
        // `Ord` even for NaN times, or the heap invariants break.
        self.time.total_cmp(&other.time).is_eq() && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq). `total_cmp` keeps the
        // order total even if a NaN timestamp slips in (NaN sorts last,
        // it can never wedge or panic the queue).
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Deterministic min-heap event queue.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: f64, payload: T) {
        debug_assert!(time.is_finite());
        self.heap.push(Entry {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, "first");
        q.push(1.0, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }
}
