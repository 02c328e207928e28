//! A preemptive round-robin CPU scheduler.
//!
//! The scheduler tracks which simulated thread occupies which hardware
//! thread ("core") and in what order runnable threads should be dispatched.
//! It does not advance time itself: the simulation driver asks it for
//! dispatch decisions, simulates the slice, and reports back how the slice
//! ended.

use std::collections::VecDeque;

use crate::time::Nanos;

/// Identifies a simulated hardware thread.
pub type CoreId = usize;

/// Identifies a simulated software thread.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(pub u32);

/// Whether a thread belongs to the application or to the simulated kernel.
///
/// Kernel threads (the MG-LRU aging thread, the kswapd-analog reclaim
/// thread) are dispatched ahead of application threads when both are
/// runnable, approximating the wakeup-preemption boost such threads get in
/// practice. This is one of the modeled sources of CPU contention the paper
/// attributes runtime variance to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadClass {
    /// Ordinary application thread.
    App,
    /// Kernel housekeeping thread.
    Kernel,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    Runnable,
    Running(CoreId),
    Blocked,
    Finished,
}

#[derive(Debug)]
struct Thread {
    class: ThreadClass,
    state: ThreadState,
    cpu_consumed: Nanos,
    switches: u64,
}

/// How a dispatched slice ended, reported back by the driver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DispatchDecision {
    /// The thread used its full budget and is still runnable.
    Preempted,
    /// The thread blocked (I/O, barrier, sleep) and will be woken later.
    Blocked,
    /// The thread exited.
    Finished,
}

/// Aggregate scheduler counters, used for reports and tests.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SchedStats {
    /// Total CPU time consumed by application threads.
    pub app_cpu: Nanos,
    /// Total CPU time consumed by kernel threads.
    pub kernel_cpu: Nanos,
    /// Number of dispatches.
    pub dispatches: u64,
}

/// Round-robin scheduler over a fixed set of cores.
///
/// ```rust
/// use pagesim_engine::{Scheduler, ThreadClass, DispatchDecision, SimTime};
/// let mut s = Scheduler::new(1, 1_000_000);
/// let a = s.spawn(ThreadClass::App);
/// let b = s.spawn(ThreadClass::App);
/// s.make_runnable(a);
/// s.make_runnable(b);
/// let (core, tid) = s.try_dispatch().unwrap();
/// assert_eq!(tid, a);
/// assert!(s.try_dispatch().is_none()); // single core busy
/// s.slice_done(core, tid, DispatchDecision::Preempted, 1_000_000);
/// assert_eq!(s.try_dispatch().unwrap().1, b); // round robin
/// ```
#[derive(Debug)]
pub struct Scheduler {
    threads: Vec<Thread>,
    idle_cores: Vec<CoreId>,
    app_queue: VecDeque<ThreadId>,
    kernel_queue: VecDeque<ThreadId>,
    quantum: Nanos,
    stats: SchedStats,
    live_threads: usize,
}

impl Scheduler {
    /// Creates a scheduler with `cores` hardware threads and the given
    /// time-slice `quantum` in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `quantum == 0`.
    pub fn new(cores: usize, quantum: Nanos) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(quantum > 0, "quantum must be positive");
        Scheduler {
            threads: Vec::new(),
            // Reverse so core 0 is handed out first: cosmetic but stable.
            idle_cores: (0..cores).rev().collect(),
            app_queue: VecDeque::new(),
            kernel_queue: VecDeque::new(),
            quantum,
            stats: SchedStats::default(),
            live_threads: 0,
        }
    }

    /// Registers a new thread in the `Blocked` state; call
    /// [`make_runnable`](Self::make_runnable) to start it.
    pub fn spawn(&mut self, class: ThreadClass) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(Thread {
            class,
            state: ThreadState::Blocked,
            cpu_consumed: 0,
            switches: 0,
        });
        self.live_threads += 1;
        // A thread waits in its class's run queue at most once, so room
        // for every thread of the class keeps the queue from reallocating.
        let peers = self.threads.iter().filter(|t| t.class == class).count();
        let queue = self.queue(class);
        queue.reserve(peers - queue.len());
        id
    }

    /// The run queue of `class`.
    fn queue(&mut self, class: ThreadClass) -> &mut VecDeque<ThreadId> {
        match class {
            ThreadClass::App => &mut self.app_queue,
            ThreadClass::Kernel => &mut self.kernel_queue,
        }
    }

    /// Marks `tid` runnable, at the back of its class's run queue.
    fn enqueue(&mut self, tid: ThreadId) {
        let t = &mut self.threads[tid.0 as usize];
        t.state = ThreadState::Runnable;
        let class = t.class;
        self.queue(class).push_back(tid);
    }

    /// The scheduling time slice.
    pub fn quantum(&self) -> Nanos {
        self.quantum
    }

    /// Number of threads that have not yet finished.
    pub fn live_threads(&self) -> usize {
        self.live_threads
    }

    /// Marks a blocked thread runnable and queues it for dispatch. Waking
    /// a runnable or running thread is a no-op: a driver that wakes a
    /// thread while its slice runs reports that slice
    /// [`Preempted`](DispatchDecision::Preempted), not `Blocked`.
    ///
    /// # Panics
    ///
    /// Panics if the thread has finished.
    pub fn make_runnable(&mut self, tid: ThreadId) {
        match self.threads[tid.0 as usize].state {
            ThreadState::Runnable | ThreadState::Running(_) => {}
            ThreadState::Blocked => self.enqueue(tid),
            ThreadState::Finished => panic!("cannot wake finished thread {tid:?}"),
        }
    }

    /// If an idle core and a runnable thread exist, assigns the thread to
    /// the core and returns both. Kernel threads are preferred.
    pub fn try_dispatch(&mut self) -> Option<(CoreId, ThreadId)> {
        if self.idle_cores.is_empty() {
            return None;
        }
        let tid = self
            .kernel_queue
            .pop_front()
            .or_else(|| self.app_queue.pop_front())?;
        let core = self.idle_cores.pop().expect("checked non-empty");
        let t = &mut self.threads[tid.0 as usize];
        debug_assert_eq!(t.state, ThreadState::Runnable);
        t.state = ThreadState::Running(core);
        t.switches += 1;
        self.stats.dispatches += 1;
        Some((core, tid))
    }

    /// Reports the end of a slice: frees the core, accounts `used`
    /// nanoseconds of CPU, and re-queues or retires the thread.
    pub fn slice_done(
        &mut self,
        core: CoreId,
        tid: ThreadId,
        decision: DispatchDecision,
        used: Nanos,
    ) {
        self.charge(core, tid, used);
        let t = &mut self.threads[tid.0 as usize];
        self.idle_cores.push(core);
        match decision {
            DispatchDecision::Preempted => self.enqueue(tid),
            DispatchDecision::Blocked => t.state = ThreadState::Blocked,
            DispatchDecision::Finished => {
                t.state = ThreadState::Finished;
                self.live_threads -= 1;
            }
        }
    }

    /// Ends a preempted slice of `tid` on `core` and hands `tid` the same
    /// core again, if no other thread is waiting for one. This is exactly
    /// what [`slice_done`](Self::slice_done) with
    /// [`DispatchDecision::Preempted`] followed by
    /// [`try_dispatch`](Self::try_dispatch) would do, with the same
    /// accounting, but without the round trip through the run queue.
    ///
    /// Returns `false` and changes nothing if either run queue is
    /// non-empty: another thread is then due for the core.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not running on `core`.
    pub fn redispatch(&mut self, core: CoreId, tid: ThreadId, used: Nanos) -> bool {
        if self.has_runnable() {
            return false;
        }
        self.charge(core, tid, used);
        self.threads[tid.0 as usize].switches += 1;
        self.stats.dispatches += 1;
        true
    }

    /// Charges `used` nanoseconds of CPU to `tid` at the end of its slice
    /// on `core`.
    fn charge(&mut self, core: CoreId, tid: ThreadId, used: Nanos) {
        let t = &mut self.threads[tid.0 as usize];
        assert_eq!(
            t.state,
            ThreadState::Running(core),
            "slice end for thread not running on core {core}"
        );
        t.cpu_consumed += used;
        match t.class {
            ThreadClass::App => self.stats.app_cpu += used,
            ThreadClass::Kernel => self.stats.kernel_cpu += used,
        }
    }

    /// CPU time consumed so far by `tid`.
    pub fn cpu_consumed(&self, tid: ThreadId) -> Nanos {
        self.threads[tid.0 as usize].cpu_consumed
    }

    /// Number of times `tid` was dispatched.
    pub fn switches(&self, tid: ThreadId) -> u64 {
        self.threads[tid.0 as usize].switches
    }

    /// Whether `tid` has finished.
    pub fn is_finished(&self, tid: ThreadId) -> bool {
        self.threads[tid.0 as usize].state == ThreadState::Finished
    }

    /// Whether `tid` is blocked: not queued, running or finished, and
    /// dispatched again only after a [`make_runnable`](Self::make_runnable).
    pub fn is_blocked(&self, tid: ThreadId) -> bool {
        self.threads[tid.0 as usize].state == ThreadState::Blocked
    }

    /// Whether any thread is waiting for a core.
    pub fn has_runnable(&self) -> bool {
        !self.app_queue.is_empty() || !self.kernel_queue.is_empty()
    }

    /// The thread currently running on `core`, if any. Used by telemetry
    /// to snapshot per-core occupancy at sample boundaries.
    pub fn running_on(&self, core: CoreId) -> Option<ThreadId> {
        self.threads
            .iter()
            .position(|t| t.state == ThreadState::Running(core))
            .map(|idx| ThreadId(idx as u32))
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched2() -> Scheduler {
        Scheduler::new(2, 1000)
    }

    #[test]
    fn dispatch_prefers_kernel_threads() {
        let mut s = sched2();
        let app = s.spawn(ThreadClass::App);
        let kt = s.spawn(ThreadClass::Kernel);
        s.make_runnable(app);
        s.make_runnable(kt);
        let (_, first) = s.try_dispatch().unwrap();
        assert_eq!(first, kt);
        let (_, second) = s.try_dispatch().unwrap();
        assert_eq!(second, app);
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = Scheduler::new(1, 1000);
        let a = s.spawn(ThreadClass::App);
        let b = s.spawn(ThreadClass::App);
        let c = s.spawn(ThreadClass::App);
        for t in [a, b, c] {
            s.make_runnable(t);
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let (core, tid) = s.try_dispatch().unwrap();
            order.push(tid);
            s.slice_done(core, tid, DispatchDecision::Preempted, 1000);
        }
        assert_eq!(order, vec![a, b, c, a, b, c]);
    }

    #[test]
    fn blocked_threads_leave_the_queue() {
        let mut s = Scheduler::new(1, 1000);
        let a = s.spawn(ThreadClass::App);
        let b = s.spawn(ThreadClass::App);
        s.make_runnable(a);
        s.make_runnable(b);
        let (core, tid) = s.try_dispatch().unwrap();
        s.slice_done(core, tid, DispatchDecision::Blocked, 500);
        let (core, tid2) = s.try_dispatch().unwrap();
        assert_eq!(tid2, b);
        s.slice_done(core, tid2, DispatchDecision::Preempted, 1000);
        // `a` is blocked: only b cycles.
        assert!(s.is_blocked(a) && !s.is_blocked(b));
        assert_eq!(s.try_dispatch().unwrap().1, b);
    }

    #[test]
    fn finished_threads_decrement_live_count() {
        let mut s = Scheduler::new(1, 1000);
        let a = s.spawn(ThreadClass::App);
        s.make_runnable(a);
        assert_eq!(s.live_threads(), 1);
        let (core, tid) = s.try_dispatch().unwrap();
        s.slice_done(core, tid, DispatchDecision::Finished, 123);
        assert_eq!(s.live_threads(), 0);
        assert!(s.is_finished(a));
        assert_eq!(s.cpu_consumed(a), 123);
    }

    #[test]
    fn wake_is_idempotent_for_runnable() {
        let mut s = sched2();
        let a = s.spawn(ThreadClass::App);
        s.make_runnable(a);
        s.make_runnable(a); // no-op, must not double-queue
        assert_eq!(s.try_dispatch().unwrap().1, a);
        assert!(s.try_dispatch().is_none());
    }

    #[test]
    fn waking_a_running_thread_changes_nothing() {
        let mut s = sched2();
        let a = s.spawn(ThreadClass::App);
        s.make_runnable(a);
        let (core, tid) = s.try_dispatch().unwrap();
        s.make_runnable(a);
        assert_eq!(s.running_on(core), Some(a));
        // The driver reports a block the wake overtook as a preemption;
        // a block it reports sticks.
        s.slice_done(core, tid, DispatchDecision::Blocked, 10);
        assert!(s.try_dispatch().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot wake finished")]
    fn waking_finished_thread_panics() {
        let mut s = sched2();
        let a = s.spawn(ThreadClass::App);
        s.make_runnable(a);
        let (core, tid) = s.try_dispatch().unwrap();
        s.slice_done(core, tid, DispatchDecision::Finished, 1);
        s.make_runnable(a);
    }

    #[test]
    fn cores_are_limited() {
        let mut s = sched2();
        let ts: Vec<_> = (0..4).map(|_| s.spawn(ThreadClass::App)).collect();
        for &t in &ts {
            s.make_runnable(t);
        }
        assert!(s.try_dispatch().is_some());
        assert!(s.try_dispatch().is_some());
        assert!(s.try_dispatch().is_none());
        assert!(s.has_runnable());
    }

    #[test]
    fn running_on_tracks_core_occupancy() {
        let mut s = sched2();
        let a = s.spawn(ThreadClass::App);
        let k = s.spawn(ThreadClass::Kernel);
        assert_eq!(s.running_on(0), None);
        assert_eq!(s.running_on(1), None);
        s.make_runnable(a);
        s.make_runnable(k);
        let (c1, t1) = s.try_dispatch().unwrap();
        let (c2, t2) = s.try_dispatch().unwrap();
        assert_eq!(s.running_on(c1), Some(t1));
        assert_eq!(s.running_on(c2), Some(t2));
        s.slice_done(c1, t1, DispatchDecision::Blocked, 10);
        assert_eq!(s.running_on(c1), None);
        assert_eq!(s.running_on(c2), Some(t2));
    }

    #[test]
    fn redispatch_keeps_the_core_when_nobody_waits() {
        let mut s = sched2();
        let a = s.spawn(ThreadClass::App);
        let b = s.spawn(ThreadClass::App);
        s.make_runnable(a);
        let (core, tid) = s.try_dispatch().unwrap();
        assert!(s.redispatch(core, tid, 1000));
        assert_eq!(s.running_on(core), Some(a));
        assert_eq!((s.switches(a), s.cpu_consumed(a)), (2, 1000));
        assert_eq!(s.stats().dispatches, 2);
        s.slice_done(core, a, DispatchDecision::Blocked, 10);
        assert!(s.try_dispatch().is_none());
        // With a thread waiting, the core is not kept.
        s.make_runnable(a);
        let (core, _) = s.try_dispatch().unwrap();
        s.make_runnable(b);
        assert!(!s.redispatch(core, a, 1000));
        assert_eq!(s.cpu_consumed(a), 1010);
    }

    #[test]
    fn stats_accumulate_by_class() {
        let mut s = sched2();
        let a = s.spawn(ThreadClass::App);
        let k = s.spawn(ThreadClass::Kernel);
        s.make_runnable(a);
        s.make_runnable(k);
        let (c1, t1) = s.try_dispatch().unwrap();
        let (c2, t2) = s.try_dispatch().unwrap();
        s.slice_done(c1, t1, DispatchDecision::Blocked, 10);
        s.slice_done(c2, t2, DispatchDecision::Blocked, 20);
        let st = s.stats();
        assert_eq!(st.kernel_cpu, 10);
        assert_eq!(st.app_cpu, 20);
        assert_eq!(st.dispatches, 2);
    }
}
