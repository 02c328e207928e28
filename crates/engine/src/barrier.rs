//! Simulation barriers for bulk-synchronous workloads.

use std::vec::Drain;

use crate::sched::ThreadId;

/// Identifies a barrier within a [`BarrierSet`].
pub type BarrierId = usize;

#[derive(Debug)]
struct Barrier {
    parties: usize,
    waiting: Vec<ThreadId>,
}

/// A collection of reusable (cyclic) barriers.
///
/// A thread "arrives" at a barrier; the final arrival releases everyone and
/// resets the barrier for the next round, mirroring the per-iteration
/// barriers in PageRank-style workloads.
///
/// ```rust
/// use pagesim_engine::{BarrierSet, ThreadId};
/// let mut bs = BarrierSet::new();
/// let b = bs.create(2);
/// assert!(bs.arrive(b, ThreadId(0)).is_none()); // first waits
/// let released: Vec<_> = bs.arrive(b, ThreadId(1)).unwrap().collect();
/// assert_eq!(released, vec![ThreadId(0)]); // waiters to wake (arriver continues)
/// ```
#[derive(Debug, Default)]
pub struct BarrierSet {
    barriers: Vec<Barrier>,
}

impl BarrierSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub fn create(&mut self, parties: usize) -> BarrierId {
        assert!(parties > 0, "barrier needs at least one party");
        self.barriers.push(Barrier {
            parties,
            waiting: Vec::with_capacity(parties - 1),
        });
        self.barriers.len() - 1
    }

    /// Thread `tid` arrives at barrier `id`.
    ///
    /// Returns `None` if the thread must block, or `Some(waiters)` if this
    /// arrival completed the round: `waiters` are the previously blocked
    /// threads that should now be woken (the arriving thread itself simply
    /// continues running and is not included). They are drained from the
    /// barrier's waiting list, which keeps its capacity for the next round.
    pub fn arrive(&mut self, id: BarrierId, tid: ThreadId) -> Option<Drain<'_, ThreadId>> {
        let b = &mut self.barriers[id];
        debug_assert!(
            !b.waiting.contains(&tid),
            "thread {tid:?} arrived twice at barrier {id}"
        );
        if b.waiting.len() + 1 == b.parties {
            Some(b.waiting.drain(..))
        } else {
            b.waiting.push(tid);
            None
        }
    }

    /// Removes `tid` from every barrier permanently (the thread was
    /// killed). It is withdrawn from any waiting list and stops counting
    /// as a party; rounds completed by its departure release their
    /// waiters, which are passed to `release` in barrier order, each
    /// barrier's in arrival order.
    pub fn depart(&mut self, tid: ThreadId, mut release: impl FnMut(ThreadId)) {
        for b in &mut self.barriers {
            if let Some(pos) = b.waiting.iter().position(|&w| w == tid) {
                b.waiting.remove(pos);
            }
            if b.parties > 1 {
                b.parties -= 1;
                if b.waiting.len() == b.parties {
                    b.waiting.drain(..).for_each(&mut release);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_arrival_releases_all() {
        let mut bs = BarrierSet::new();
        let b = bs.create(3);
        assert!(bs.arrive(b, ThreadId(0)).is_none());
        assert!(bs.arrive(b, ThreadId(1)).is_none());
        assert_eq!(bs.barriers[b].waiting.len(), 2);
        let released: Vec<_> = bs.arrive(b, ThreadId(2)).unwrap().collect();
        assert_eq!(released, vec![ThreadId(0), ThreadId(1)]);
        assert!(bs.barriers[b].waiting.is_empty());
    }

    #[test]
    fn barrier_is_cyclic() {
        let mut bs = BarrierSet::new();
        let b = bs.create(2);
        for _ in 0..5 {
            assert!(bs.arrive(b, ThreadId(0)).is_none());
            assert!(bs.arrive(b, ThreadId(1)).is_some());
        }
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let mut bs = BarrierSet::new();
        let b = bs.create(1);
        assert_eq!(bs.arrive(b, ThreadId(7)).map(Iterator::count), Some(0));
    }

    /// The thread ids `depart` releases.
    fn departed(bs: &mut BarrierSet, tid: ThreadId) -> Vec<ThreadId> {
        let mut released = Vec::new();
        bs.depart(tid, |w| released.push(w));
        released
    }

    #[test]
    fn depart_releases_stranded_waiters() {
        let mut bs = BarrierSet::new();
        let b = bs.create(3);
        bs.arrive(b, ThreadId(0));
        bs.arrive(b, ThreadId(1));
        // ThreadId(2) is killed before arriving: its departure completes
        // the round.
        assert_eq!(
            departed(&mut bs, ThreadId(2)),
            vec![ThreadId(0), ThreadId(1)]
        );
        // The barrier now has 2 parties.
        assert!(bs.arrive(b, ThreadId(0)).is_none());
        assert!(bs.arrive(b, ThreadId(1)).is_some());
    }

    #[test]
    fn depart_while_waiting_removes_the_thread() {
        let mut bs = BarrierSet::new();
        let b = bs.create(3);
        bs.arrive(b, ThreadId(0));
        // ThreadId(0) dies while blocked at the barrier; nobody else is
        // waiting, so no round completes (2 parties remain, 0 waiting).
        assert_eq!(departed(&mut bs, ThreadId(0)), vec![]);
        assert!(bs.barriers[b].waiting.is_empty());
        assert!(bs.arrive(b, ThreadId(1)).is_none());
        assert!(bs.arrive(b, ThreadId(2)).is_some());
    }

    #[test]
    fn releasing_keeps_the_waiting_list_capacity() {
        let mut bs = BarrierSet::new();
        let b = bs.create(3);
        let cap = bs.barriers[b].waiting.capacity();
        bs.arrive(b, ThreadId(0));
        bs.arrive(b, ThreadId(1));
        assert_eq!(bs.arrive(b, ThreadId(2)).map(Iterator::count), Some(2));
        assert_eq!(bs.barriers[b].waiting.capacity(), cap);
        bs.arrive(b, ThreadId(0));
        bs.arrive(b, ThreadId(1));
        assert_eq!(departed(&mut bs, ThreadId(2)).len(), 2);
        assert_eq!(bs.barriers[b].waiting.capacity(), cap);
    }

    #[test]
    fn multiple_barriers_are_independent() {
        let mut bs = BarrierSet::new();
        let b1 = bs.create(2);
        let b2 = bs.create(2);
        assert!(bs.arrive(b1, ThreadId(0)).is_none());
        assert!(bs.arrive(b2, ThreadId(1)).is_none());
        assert!(bs.arrive(b1, ThreadId(2)).is_some());
        assert_eq!(bs.barriers[b2].waiting.len(), 1);
    }
}
