//! Property tests for the DES engine primitives.

use proptest::prelude::*;

use pagesim_engine::faults::error_threshold;
use pagesim_engine::{
    DispatchDecision, EventQueue, FaultInjector, FaultPlan, QueuedDevice, Scheduler, SimTime,
    StallPlan, ThreadClass, ThreadId,
};

/// A test event: its id and, for a slice end, its core.
type Ev = (usize, Option<usize>);

/// The reference queue: (time, insertion, event) of every pending event.
type Pending = Vec<(u64, usize, Ev)>;

/// Pops `q` and the reference's earliest entry by (time, insertion), and
/// fails unless they agree.
fn pop_both(q: &mut EventQueue<Ev>, pending: &mut Pending) -> Result<Option<(u64, Ev)>, String> {
    let expect = pending
        .iter()
        .enumerate()
        .min_by_key(|(_, &(t, seq, _))| (t, seq))
        .map(|(i, _)| i)
        .map(|i| pending.remove(i))
        .map(|(t, _, ev)| (t, ev));
    let got = q.pop().map(|(t, ev)| (t.as_ns(), ev));
    prop_assert_eq!(got, expect);
    Ok(got)
}

proptest! {
    /// The event queue delivers in (time, insertion) order for any input.
    #[test]
    fn event_queue_matches_stable_sort(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_ns(), p))).collect();
        prop_assert_eq!(got, expect);
    }

    /// Interleaved pushes, slice ends (at most one pending per core) and
    /// pops, with many equal times, deliver in the order of a stable sort
    /// by (time, insertion) over whatever is pending at each pop.
    #[test]
    fn event_queue_with_slice_ends_matches_stable_sort(
        cores in 1usize..13,
        ops in prop::collection::vec((0u8..3, 0u64..4, 0usize..12), 1..300),
    ) {
        let mut q = EventQueue::with_cores(cores);
        let mut pending = Pending::new();
        let mut busy = vec![false; cores];
        let mut now = 0u64;
        let mut inserted = 0usize;
        for (kind, delta, core) in ops {
            let at = now + delta;
            match kind {
                0 => {
                    q.push(SimTime::from_ns(at), (inserted, None));
                    pending.push((at, inserted, (inserted, None)));
                    inserted += 1;
                }
                1 => {
                    let core = core % cores;
                    if !busy[core] {
                        busy[core] = true;
                        q.push_slice_end(SimTime::from_ns(at), (inserted, Some(core)));
                        pending.push((at, inserted, (inserted, Some(core))));
                        inserted += 1;
                    }
                }
                _ => {
                    let expect_peek = pending.iter().map(|&(t, seq, _)| (t, seq)).min();
                    prop_assert_eq!(
                        q.peek_time().map(|t| t.as_ns()),
                        expect_peek.map(|(t, _)| t)
                    );
                    if let Some((t, (_, core))) = pop_both(&mut q, &mut pending)? {
                        now = t;
                        if let Some(c) = core {
                            busy[c] = false;
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), pending.len());
        }
        while pop_both(&mut q, &mut pending)?.is_some() {}
        prop_assert!(q.is_empty());
    }

    /// Ending a preempted slice through `redispatch` leaves the scheduler
    /// exactly as `slice_done` followed by `try_dispatch` does, and it
    /// refuses whenever a run queue holds a thread.
    #[test]
    fn redispatch_matches_slice_done_then_try_dispatch(
        cores in 1usize..5,
        classes in prop::collection::vec(any::<bool>(), 1..8),
        ops in prop::collection::vec((0u8..5, 0usize..8), 0..60),
        pick in 0usize..8,
        used in 0u64..2000,
    ) {
        // Builds the same random state twice, returning the scheduler and
        // the threads running on it.
        let build = || {
            let mut s = Scheduler::new(cores, 1000);
            let tids: Vec<_> = classes
                .iter()
                .map(|&k| s.spawn(if k { ThreadClass::Kernel } else { ThreadClass::App }))
                .collect();
            for &t in &tids {
                s.make_runnable(t);
            }
            let mut running: Vec<(usize, ThreadId)> = Vec::new();
            for &(op, arg) in &ops {
                match op {
                    0 | 1 => {
                        if let Some(r) = s.try_dispatch() {
                            running.push(r);
                        }
                    }
                    2 | 3 if !running.is_empty() => {
                        let (core, tid) = running.remove(arg % running.len());
                        let d = if op == 2 {
                            DispatchDecision::Preempted
                        } else {
                            DispatchDecision::Blocked
                        };
                        s.slice_done(core, tid, d, 7);
                    }
                    // Wakes any live thread: a running one gets a
                    // pending wake.
                    _ => {
                        let t = tids[arg % tids.len()];
                        if !s.is_finished(t) {
                            s.make_runnable(t);
                        }
                    }
                }
            }
            (s, tids, running)
        };
        let (mut a, tids, running) = build();
        let (mut b, _, _) = build();
        prop_assume!(!running.is_empty());
        let (core, tid) = running[pick % running.len()];
        let waiting = a.has_runnable();
        let before = a.stats();
        if a.redispatch(core, tid, used) {
            prop_assert!(!waiting, "redispatched past a waiting thread");
            b.slice_done(core, tid, DispatchDecision::Preempted, used);
            prop_assert_eq!(b.try_dispatch(), Some((core, tid)));
        } else {
            prop_assert!(waiting, "refused with both run queues empty");
            prop_assert_eq!(a.stats(), before);
        }
        prop_assert_eq!(a.stats(), b.stats());
        for &t in &tids {
            prop_assert_eq!(a.switches(t), b.switches(t));
            prop_assert_eq!(a.cpu_consumed(t), b.cpu_consumed(t));
        }
        prop_assert_eq!(a.try_dispatch(), b.try_dispatch());
        // A pending wake was cleared the same way: blocking sticks alike.
        if a.running_on(core) == Some(tid) && b.running_on(core) == Some(tid) {
            a.slice_done(core, tid, DispatchDecision::Blocked, 1);
            b.slice_done(core, tid, DispatchDecision::Blocked, 1);
            prop_assert_eq!(a.has_runnable(), b.has_runnable());
            prop_assert_eq!(a.try_dispatch(), b.try_dispatch());
        }
    }

    /// A single-server device is strictly FIFO; with any server count a
    /// request never finishes before its own submit + service time, and
    /// service *starts* are FIFO (monotone non-decreasing).
    #[test]
    fn device_completions_respect_fifo_service(
        servers in 1usize..4,
        reqs in prop::collection::vec((0u64..10_000, 1u64..500), 1..100),
    ) {
        let mut d = QueuedDevice::new(servers);
        let mut now = 0u64;
        let mut last_done = 0u64;
        let mut last_start = 0u64;
        for (gap, service) in reqs {
            now += gap;
            let done = d
                .submit(SimTime::from_ns(now), service)
                .expect("fault-free device never errors")
                .as_ns();
            // A request can never finish before its own service time.
            prop_assert!(done >= now + service);
            let start = done - service;
            // FIFO admission: a later submission never starts service
            // before an earlier one.
            prop_assert!(start >= last_start, "start reordered: {start} < {last_start}");
            last_start = start;
            if servers == 1 {
                // One server: completions are strictly ordered too.
                prop_assert!(done >= last_done, "reordered: {done} < {last_done}");
            }
            last_done = last_done.max(done);
        }
    }

    /// Under injected device stalls a FIFO device still loses nothing and
    /// never reorders service: every submitted request completes, no
    /// earlier than its own submit + service time, with monotone service
    /// starts and monotone completions.
    #[test]
    fn stalled_device_loses_and_reorders_nothing(
        seed in any::<u64>(),
        period in 1_000u64..50_000,
        duration_pct in 5u64..40,
        reqs in prop::collection::vec((0u64..10_000, 1u64..500), 1..100),
    ) {
        let plan = FaultPlan {
            stall: Some(StallPlan {
                first_onset: 500,
                period,
                onset_jitter: period / 10,
                duration: period * duration_pct / 100,
                duration_jitter: period / 10,
            }),
            ..FaultPlan::none()
        };
        let mut d = QueuedDevice::new(1);
        d.set_faults(FaultInjector::new(plan, seed));
        let mut now = 0u64;
        let mut last_start = 0u64;
        let mut completions = Vec::new();
        for &(gap, service) in &reqs {
            now += gap;
            let done = d
                .submit(SimTime::from_ns(now), service)
                .expect("stall-only plans never inject errors")
                .as_ns();
            prop_assert!(done >= now + service);
            let start = done - service;
            prop_assert!(
                start >= last_start,
                "service start reordered: {start} < {last_start}"
            );
            last_start = start;
            completions.push(done);
        }
        // No request was lost, and the stall windows only delayed — never
        // reordered — the completion stream.
        prop_assert_eq!(completions.len(), reqs.len());
        prop_assert!(
            completions.windows(2).all(|w| w[0] <= w[1]),
            "completions reordered"
        );
    }

    /// Random dispatch/wake/block sequences keep the scheduler coherent:
    /// no thread occupies two cores, counts stay consistent.
    #[test]
    fn scheduler_is_coherent_under_random_ops(
        ops in prop::collection::vec(0u8..4, 1..300),
        cores in 1usize..5,
        nthreads in 1u32..8,
    ) {
        let mut s = Scheduler::new(cores, 1000);
        let tids: Vec<_> = (0..nthreads).map(|_| s.spawn(ThreadClass::App)).collect();
        for &t in &tids {
            s.make_runnable(t);
        }
        let mut running: Vec<(usize, pagesim_engine::ThreadId)> = Vec::new();
        for op in ops {
            match op {
                0 => {
                    if let Some((core, tid)) = s.try_dispatch() {
                        prop_assert!(!running.iter().any(|&(c, _)| c == core));
                        prop_assert!(!running.iter().any(|&(_, t)| t == tid));
                        running.push((core, tid));
                        prop_assert!(running.len() <= cores);
                    }
                }
                1 => {
                    if let Some((core, tid)) = running.pop() {
                        s.slice_done(core, tid, DispatchDecision::Preempted, 10);
                    }
                }
                2 => {
                    if let Some((core, tid)) = running.pop() {
                        s.slice_done(core, tid, DispatchDecision::Blocked, 10);
                    }
                }
                _ => {
                    //

                    // wake everything not running (no-op for runnable)
                    for &t in &tids {
                        if !running.iter().any(|&(_, r)| r == t) && !s.is_finished(t) {
                            s.make_runnable(t);
                        }
                    }
                }
            }
        }
        // Drain: finish what is running, wake everything blocked, then
        // dispatch-and-finish until no live threads remain.
        while let Some((core, tid)) = running.pop() {
            s.slice_done(core, tid, DispatchDecision::Finished, 1);
        }
        loop {
            for &t in &tids {
                if !s.is_finished(t) {
                    s.make_runnable(t); // no-op if already runnable
                }
            }
            match s.try_dispatch() {
                Some((core, tid)) => s.slice_done(core, tid, DispatchDecision::Finished, 1),
                None => break,
            }
        }
        prop_assert_eq!(s.live_threads(), 0);
    }
}

/// The f64 error roll `FaultInjector::check` made before it compared
/// integers: the draw's top 53 bits as a fraction of 2^53, below the rate.
fn float_roll(draw: u64, rate: f64) -> bool {
    ((draw >> 11) as f64 / (1u64 << 53) as f64) < rate
}

fn integer_roll(draw: u64, rate: f64) -> bool {
    (draw >> 11) < error_threshold(rate)
}

/// Checks both rolls on `draw` and on draws whose top 53 bits sit right
/// at the rate's threshold, where a rounding slip would show.
fn rolls_agree(draw: u64, rate: f64) -> Result<(), String> {
    let top = (1u64 << 53) - 1;
    let t = error_threshold(rate).min(top);
    let low = draw & 0x7ff;
    for m in [0, t.saturating_sub(1), t, (t + 1).min(top), top, draw >> 11] {
        let r = (m << 11) | low;
        prop_assert_eq!(
            integer_roll(r, rate),
            float_roll(r, rate),
            "draw {:#x}, rate {:e}",
            r,
            rate
        );
    }
    Ok(())
}

proptest! {
    /// The integer fault roll fails exactly the draws the f64 roll failed,
    /// for rates drawn uniformly over the bit patterns of `[0, 1]`, so
    /// every binade, subnormals included, is as likely as any other.
    #[test]
    fn integer_fault_roll_matches_the_float_roll(
        draw in any::<u64>(),
        rate_bits in 0u64..=1.0f64.to_bits(),
    ) {
        rolls_agree(draw, f64::from_bits(rate_bits))?;
    }
}

#[test]
fn integer_fault_roll_matches_the_float_roll_at_edge_rates() {
    let below_one = f64::from_bits(1.0f64.to_bits() - 1);
    assert!(below_one < 1.0 && below_one > 0.999_999);
    let rates = [
        0.0,
        -0.0,
        1.0,
        below_one,
        f64::from_bits(1), // smallest subnormal
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        0.05,
        0.5,
        2.0,
        f64::INFINITY,
        -1.0,
        f64::NAN,
    ];
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    for rate in rates {
        for _ in 0..64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rolls_agree(rng, rate).unwrap();
        }
    }
    assert_eq!(error_threshold(below_one), (1 << 53) - 1);
    assert_eq!(error_threshold(f64::NAN), 0);
}
