//! The page lock (`folio_lock` analog): a fault whose read goes to the
//! device locks the page until the read completes, and threads that fault
//! on the page meanwhile queue behind it instead of issuing their own read.
//!
//! All state is dense and sized once: one word per page (the frame its
//! in-flight read fills), one entry per frame (the page pinning it and the
//! FIFO of waiters), and one link per thread. Waiters chain through the
//! per-thread links, the way a kernel wait-queue entry lives in the
//! waiting task, so locking, queuing and waking never allocate. A thread
//! blocks while it waits, so it is on at most one chain at a time.

use pagesim_engine::ThreadId;
use pagesim_mem::{FrameId, PageKey};

/// No page, no thread: the end of a chain.
const NIL: u32 = u32::MAX;

/// The in-flight read into one frame.
#[derive(Clone, Copy, Debug)]
struct Pin {
    /// The page being read in; [`NIL`] when the frame is not pinned.
    key: PageKey,
    /// First waiter, in arrival order; [`NIL`] when none.
    head: u32,
    /// Last waiter; [`NIL`] when none.
    tail: u32,
}

const UNPINNED: Pin = Pin {
    key: NIL,
    head: NIL,
    tail: NIL,
};

/// Page locks of one simulated system.
#[derive(Debug)]
pub(crate) struct PageLocks {
    /// Per page: `frame + 1` for the read holding the page's lock, 0 when
    /// the page is unlocked (so the table starts zeroed).
    held: Vec<u32>,
    /// Per frame: the read that pins it, if any.
    pins: Vec<Pin>,
    /// Per thread: the waiter queued after it on the same page.
    next: Vec<u32>,
}

impl PageLocks {
    /// Locks for `pages` pages, `frames` frames and `threads` threads, all
    /// unlocked.
    pub(crate) fn new(pages: usize, frames: usize, threads: usize) -> Self {
        PageLocks {
            held: vec![0; pages],
            pins: vec![UNPINNED; frames],
            next: vec![NIL; threads],
        }
    }

    /// Takes `key`'s lock for a read into `frame`, pinning the frame until
    /// [`unlock`](Self::unlock).
    pub(crate) fn lock(&mut self, key: PageKey, frame: FrameId) {
        debug_assert_eq!(self.held[key as usize], 0, "page {key} locked twice");
        debug_assert_eq!(
            self.pins[frame as usize].key, NIL,
            "frame {frame} pinned twice"
        );
        self.held[key as usize] = frame + 1;
        self.pins[frame as usize] = Pin { key, ..UNPINNED };
    }

    /// Queues `tid` behind the read holding `key`'s lock. Returns `false`,
    /// queuing nothing, when the page is unlocked.
    pub(crate) fn wait(&mut self, key: PageKey, tid: ThreadId) -> bool {
        let Some(frame) = self.held[key as usize].checked_sub(1) else {
            return false;
        };
        let pin = &mut self.pins[frame as usize];
        if pin.tail == NIL {
            pin.head = tid.0;
        } else {
            self.next[pin.tail as usize] = tid.0;
        }
        pin.tail = tid.0;
        self.next[tid.0 as usize] = NIL;
        true
    }

    /// The page whose in-flight read pins `frame`, if any.
    pub(crate) fn pinned_page(&self, frame: FrameId) -> Option<PageKey> {
        let key = self.pins[frame as usize].key;
        (key != NIL).then_some(key)
    }

    /// Releases `key`'s lock and unpins its frame. Yields the threads that
    /// queued on the page, in arrival order.
    pub(crate) fn unlock(&mut self, key: PageKey) -> Waiters<'_> {
        let held = std::mem::take(&mut self.held[key as usize]);
        debug_assert_ne!(held, 0, "unlocking unlocked page {key}");
        let head = match held.checked_sub(1) {
            Some(frame) => std::mem::replace(&mut self.pins[frame as usize], UNPINNED).head,
            None => NIL,
        };
        Waiters {
            next: &self.next,
            cur: head,
        }
    }
}

/// The waiters released by [`PageLocks::unlock`], first arrival first.
pub(crate) struct Waiters<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for Waiters<'_> {
    type Item = ThreadId;

    fn next(&mut self) -> Option<ThreadId> {
        if self.cur == NIL {
            return None;
        }
        let tid = self.cur;
        self.cur = self.next[tid as usize];
        Some(ThreadId(tid))
    }
}

#[cfg(feature = "sanitize")]
impl PageLocks {
    /// Every thread queued on any page's chain.
    pub(crate) fn waiters(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.pins.iter().flat_map(|pin| Waiters {
            next: &self.next,
            cur: pin.head,
        })
    }

    /// Verifies the lock tables: each locked page and its pinned frame
    /// point at each other, so the in-flight count equals the pinned frame
    /// count; each queued waiter is chained to exactly one in-flight page,
    /// once; and each chain ends at its recorded tail. Returns the number
    /// of locked pages.
    ///
    /// # Panics
    ///
    /// Panics with a `sanitize: inflight-io:` or `sanitize: page-lock:`
    /// message on any inconsistency.
    pub(crate) fn check_invariants(&self) -> usize {
        let mut locked = 0;
        for (key, &held) in self.held.iter().enumerate() {
            if let Some(frame) = held.checked_sub(1) {
                locked += 1;
                assert_eq!(
                    self.pins[frame as usize].key as usize, key,
                    "sanitize: inflight-io: page {key} is locked for frame {frame}, which it does not pin"
                );
            }
        }
        let mut pinned = 0;
        let mut queued = vec![false; self.next.len()];
        for (frame, pin) in self.pins.iter().enumerate() {
            if pin.key == NIL {
                assert!(
                    pin.head == NIL && pin.tail == NIL,
                    "sanitize: page-lock: unpinned frame {frame} has waiters"
                );
                continue;
            }
            pinned += 1;
            assert_eq!(
                self.held[pin.key as usize] as usize,
                frame + 1,
                "sanitize: inflight-io: frame {frame} is pinned by page {}, which is not locked for it",
                pin.key
            );
            let (mut cur, mut last) = (pin.head, NIL);
            while cur != NIL {
                assert!(
                    !std::mem::replace(&mut queued[cur as usize], true),
                    "sanitize: page-lock: thread {cur} is queued twice (chain of page {})",
                    pin.key
                );
                last = cur;
                cur = self.next[cur as usize];
            }
            assert_eq!(
                last, pin.tail,
                "sanitize: page-lock: waiter chain of page {} does not end at its tail",
                pin.key
            );
        }
        assert_eq!(
            locked, pinned,
            "sanitize: inflight-io: {locked} inflight faults vs {pinned} io-pinned frames"
        );
        locked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn woken(locks: &mut PageLocks, key: PageKey) -> Vec<u32> {
        locks.unlock(key).map(|t| t.0).collect()
    }

    #[test]
    fn waiters_wake_in_arrival_order() {
        let mut locks = PageLocks::new(8, 4, 6);
        assert!(
            !locks.wait(3, ThreadId(0)),
            "unlocked page: nothing to wait for"
        );
        locks.lock(3, 2);
        assert_eq!(locks.pinned_page(2), Some(3));
        assert_eq!(locks.pinned_page(1), None);
        for t in [4, 1, 5] {
            assert!(locks.wait(3, ThreadId(t)));
        }
        assert_eq!(woken(&mut locks, 3), [4, 1, 5]);
        assert_eq!(locks.pinned_page(2), None);
        assert!(!locks.wait(3, ThreadId(0)), "unlock releases the page");
    }

    #[test]
    fn chains_on_different_pages_are_independent() {
        let mut locks = PageLocks::new(8, 4, 6);
        locks.lock(0, 0);
        locks.lock(7, 3);
        locks.wait(0, ThreadId(2));
        locks.wait(7, ThreadId(3));
        locks.wait(0, ThreadId(1));
        assert_eq!(woken(&mut locks, 7), [3]);
        // A woken thread can queue again, on any page.
        locks.lock(7, 1);
        locks.wait(7, ThreadId(3));
        assert_eq!(woken(&mut locks, 0), [2, 1]);
        assert_eq!(woken(&mut locks, 7), [3]);
    }

    #[test]
    fn unlock_without_waiters_yields_nothing() {
        let mut locks = PageLocks::new(2, 2, 2);
        locks.lock(1, 0);
        assert!(woken(&mut locks, 1).is_empty());
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn sanitizer_counts_locked_pages() {
        let mut locks = PageLocks::new(8, 4, 6);
        locks.lock(0, 0);
        locks.lock(5, 2);
        locks.wait(5, ThreadId(1));
        locks.wait(5, ThreadId(4));
        assert_eq!(locks.check_invariants(), 2);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    #[should_panic(expected = "sanitize: page-lock: thread 1 is queued twice")]
    fn sanitizer_catches_a_thread_on_two_chains() {
        let mut locks = PageLocks::new(8, 4, 6);
        locks.lock(0, 0);
        locks.lock(5, 2);
        locks.wait(0, ThreadId(1));
        locks.wait(5, ThreadId(1));
        locks.check_invariants();
    }
}
