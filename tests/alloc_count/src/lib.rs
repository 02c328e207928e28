//! A counting global allocator, armed per thread, and a workload wrapper
//! whose streams generate their ops uncounted.
//!
//! [`count`] runs a closure with the calling thread's counter armed and
//! returns the allocations and reallocations the thread made meanwhile.
//! Other threads (libtest runs tests in parallel) never touch the count.
//! [`Uncounted`] wraps a [`Workload`] so that each stream's
//! [`refill`](AccessStream::refill) runs disarmed: generator cost is
//! measured by pagebench, not here.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

use pagesim_workloads::{AccessStream, OpBuf, SpaceSpec, Workload};

thread_local! {
    // `const` thread-locals without a destructor are plain thread-local
    // storage: reading one from inside the allocator allocates nothing.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts into `counter` when the calling thread is armed.
fn note(counter: &'static LocalKey<Cell<u64>>) {
    if ARMED.with(Cell::get) {
        counter.with(|c| c.set(c.get() + 1));
    }
}

/// The system allocator, counting allocations and reallocations made by
/// armed threads.
struct Counting;

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees carry over unchanged; the counting only
// touches this thread's `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(&REALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and reallocations made by one counted stretch of code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc` and `alloc_zeroed`.
    pub allocs: u64,
    /// Calls to `realloc`.
    pub reallocs: u64,
}

/// Runs `f` with this thread's counter armed and returns what it counted.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    let counts = Counts {
        allocs: ALLOCS.with(Cell::get),
        reallocs: REALLOCS.with(Cell::get),
    };
    (out, counts)
}

/// Runs `f` with this thread's counter disarmed, then restores it.
fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = ARMED.with(|a| a.replace(false));
    let out = f();
    ARMED.with(|a| a.set(was));
    out
}

/// A workload whose streams generate their batches uncounted.
pub struct Uncounted<'a>(pub &'a dyn Workload);

impl Workload for Uncounted<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn spaces(&self) -> Vec<SpaceSpec> {
        self.0.spaces()
    }

    fn barriers(&self) -> Vec<usize> {
        self.0.barriers()
    }

    fn streams(&self, seed: u64) -> Vec<Box<dyn AccessStream>> {
        self.0
            .streams(seed)
            .into_iter()
            .map(|s| Box::new(UncountedStream(s)) as Box<dyn AccessStream>)
            .collect()
    }

    fn footprint_pages(&self) -> u32 {
        self.0.footprint_pages()
    }
}

/// A stream whose [`refill`](AccessStream::refill) runs disarmed. The
/// drains are the trait's own, over the inner stream's buffer.
struct UncountedStream(Box<dyn AccessStream>);

impl AccessStream for UncountedStream {
    fn refill(&mut self) -> bool {
        uncounted(|| self.0.refill())
    }

    fn buf(&mut self) -> &mut OpBuf {
        self.0.buf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_armed_code() {
        let (v, c) = count(|| {
            let mut v: Vec<u64> = vec![1];
            v.push(2);
            uncounted(|| drop(vec![0u8; 8]));
            v
        });
        assert_eq!(v, [1, 2]);
        assert_eq!(
            c,
            Counts {
                allocs: 1,
                reallocs: 1
            }
        );
        drop(vec![0u8; 8]);
        assert_eq!(count(|| ()).1, Counts::default());
    }
}
