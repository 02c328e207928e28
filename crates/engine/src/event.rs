//! The pending-event set.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest event wins.
        // Ties break by insertion sequence (earlier insertion first) which
        // makes the simulation deterministic.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of future events.
///
/// Events are delivered by time, and events scheduled for the same instant
/// in insertion order, which keeps simulations deterministic without
/// requiring globally unique timestamps.
///
/// Slice ends have a home of their own beside the heap: a small sorted set
/// holding at most one pending slice end per core. A new slice end is
/// almost always the latest pending one, so it is inserted by a short scan
/// back from the end of the set, and the earliest is taken from its front.
/// Both structures draw their insertion sequence from one counter, and
/// [`pop`](Self::pop) compares their earliest entries on the same
/// `(time, sequence)` key, so the delivery order is exactly the one a
/// single heap would give.
///
/// ```rust
/// use pagesim_engine::{EventQueue, SimTime};
/// let mut q = EventQueue::with_cores(2);
/// q.push(SimTime::from_ns(5), 'x');
/// q.push_slice_end(SimTime::from_ns(5), 'y');
/// q.push(SimTime::from_ns(3), 'w');
/// assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(3), 'w')));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), 'x')));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), 'y')));
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Pending slice ends in delivery order: earliest at the front.
    slice_ends: VecDeque<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_cores(0)
    }

    /// Creates an empty queue whose slice-end set is preallocated for
    /// `cores` cores.
    pub fn with_cores(cores: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slice_ends: VecDeque::with_capacity(cores),
            next_seq: 0,
        }
    }

    /// Makes room for `additional` more [`push`](Self::push)ed events, so
    /// a caller that knows its bound on pending events never has the heap
    /// reallocate.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` for delivery at `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.next_seq();
        self.heap.push(Entry { at, seq, payload });
    }

    /// Schedules a core's slice end for delivery at `at`. Each core has at
    /// most one slice end pending, so the set stays as small as the core
    /// count. Delivery order is the same as [`push`](Self::push)'s.
    pub fn push_slice_end(&mut self, at: SimTime, payload: T) {
        let seq = self.next_seq();
        let entry = Entry { at, seq, payload };
        // The new entry has the highest sequence, so it goes after every
        // entry that is not later: almost always at the back.
        let mut i = self.slice_ends.len();
        while i > 0 && self.slice_ends[i - 1].at > at {
            i -= 1;
        }
        if i == self.slice_ends.len() {
            self.slice_ends.push_back(entry);
        } else {
            self.slice_ends.insert(i, entry);
        }
    }

    /// Whether the slice-end set holds the earliest pending event.
    fn slice_end_first(&self) -> bool {
        match (self.slice_ends.front(), self.heap.peek()) {
            (Some(s), Some(h)) => (s.at, s.seq) < (h.at, h.seq),
            (s, _) => s.is_some(),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = if self.slice_end_first() {
            self.slice_ends.pop_front()
        } else {
            self.heap.pop()
        }?;
        Some((e.at, e.payload))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let first = if self.slice_end_first() {
            self.slice_ends.front()
        } else {
            self.heap.peek()
        };
        first.map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.slice_ends.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), "a");
        q.push(SimTime::from_ns(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_ns(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(42), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
