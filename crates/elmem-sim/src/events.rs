//! A deterministic time-ordered event queue.
//!
//! A binary heap over `(time, seq)`: `seq` is the insertion count, so no
//! two entries tie and equal times pop first in, first out. The payload
//! rides beside the key, outside the order, so `E` needs no `Ord`.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use elmem_util::SimTime;

/// A priority queue of `(time, event)` pairs popped in time order.
///
/// Ties are broken by insertion order (FIFO), which keeps runs fully
/// deterministic regardless of the event payload type.
///
/// # Example
///
/// ```
/// use elmem_sim::EventQueue;
/// use elmem_util::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(1), "a");
/// q.schedule(SimTime::from_secs(1), "b"); // same time: FIFO
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "b")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

/// One scheduled event, ordered by `(time, seq)` alone.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
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
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap
            .pop()
            .map(|Reverse(entry)| (entry.time, entry.event))
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(entry)| entry.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "z");
        q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_secs(5), "m");
        assert_eq!(q.pop().unwrap().1, "m");
        assert_eq!(q.pop().unwrap().1, "z");
        assert!(q.is_empty());
    }

    #[test]
    fn matches_reference_heap_under_heavy_interleaving() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for step in 0..5000u64 {
            if next() % 3 < 2 {
                let t = SimTime::from_nanos(next() % 64);
                q.schedule(t, step);
                reference.push(Reverse((t, seq, step)));
                seq += 1;
            } else {
                let want = reference.pop().map(|Reverse((t, _, v))| (t, v));
                assert_eq!(q.peek_time(), want.map(|(t, _)| t));
                assert_eq!(q.pop(), want);
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some(Reverse((t, _, v))) = reference.pop() {
            assert_eq!(q.pop(), Some((t, v)));
        }
        assert!(q.is_empty());
    }
}
