//! The simulated kernel: MMU touch path, demand faults, swap I/O,
//! background reclaim (kswapd analog), and the MG-LRU aging thread, all
//! scheduled over a fixed number of cores.
//!
//! ## Execution model
//!
//! The kernel is a discrete-event simulation. When a thread is dispatched
//! onto a core it runs a *slice*: ops are consumed from the batch it took
//! from its access stream, refilled a batch at a time, until the
//! time-slice budget is spent, the thread blocks, or it finishes. Slice
//! effects are applied at dispatch using the slice's *virtual* timestamps
//! (`now + used`); cross-thread interleaving is therefore accurate to
//! within one quantum, which is far below every latency of interest (SSD
//! ops are 7.5 ms). The slice's end is an event at `now + used`. When it
//! ends a preemption and no other thread waits for a core, the thread is
//! dispatched again on the same core at that event, without a round trip
//! through the run queue.
//!
//! A thread that blocks records why as one [`Wait`]: `Io`, `PageLock`,
//! `Frame`, `Backoff`, `Barrier` or `Idle`. `Io` and `Barrier` consume the
//! op that blocked; after the others the access runs again at the next
//! dispatch. Every wake goes through one path, [`Waits::wake`], which
//! clears the wait and hands the thread back to the scheduler.
//!
//! ## Fault path fidelity
//!
//! * First touches are minor faults: zero-fill, mapped dirty (the page
//!   inherits the contents the application wrote while loading its data).
//! * Swap-ins are major faults: software overhead plus device read. ZRAM
//!   reads are CPU work on the faulting thread (decompression); SSD reads
//!   queue on the device and block the thread.
//! * A clean resident page keeps its swap-slot *backing* (swap-cache
//!   analog) and can be evicted again without a write; dirtying the page
//!   invalidates the backing.
//! * Evicting a dirty page pins its frame until the write-back completes —
//!   under thrashing, demand faults end up waiting for swap-out, the tail
//!   mechanism of §VI-A.
//! * File-backed pages are read from (and written back to) the device on
//!   demand; clean file pages are simply dropped. The backing file lives
//!   on the same simulated device as swap (documented substitution).
//!
//! ## Fault path state
//!
//! The fault and reclaim path allocates nothing and looks nothing up in a
//! tree or hash map; its state is dense arrays sized at [`Kernel::build`].
//! The package `tests/alloc_count` proves the first half: a counting global
//! allocator asserts that [`Kernel::run_loop`] makes zero allocations and
//! zero reallocations in every cell it runs, faulted ones included.
//!
//! * Per-slot state lives in the swap device's slot table (`swap_map`
//!   analog), sized to the workload's page count. A swap-in is submitted
//!   no earlier than the device's [`write_done`](SwapDevice::write_done)
//!   for its slot.
//! * The page lock ([`PageLocks`]) is one word per page, one entry per
//!   frame and one link per thread: later faulters on a page whose read is
//!   in flight chain behind it and are woken in arrival order.
//! * [`Policy::reclaim`] writes victims into one buffer sized to the
//!   larger reclaim batch.
//!
//! ## Failure model
//!
//! With a non-empty [`FaultConfig`](crate::config::FaultConfig) the swap
//! device can reject or stall operations and the kernel reacts the way
//! Linux does:
//!
//! * A failed swap-in is retried with exponential backoff; a permanent
//!   device error (or exhausting the retry budget) kills the faulting
//!   task — the SIGBUS path — releasing its frames.
//! * A failed swap-out aborts the eviction: the victim page stays
//!   resident and is handed back to the policy.
//! * A long streak of starved allocations invokes an OOM killer that
//!   picks the largest-RSS task (first-touch frame attribution), kills
//!   it, and frees its frames.
//! * Memory-pressure steps inflate a balloon that grabs free frames for a
//!   while, forcing reclaim to run against a shrunken pool.
//!
//! With the default empty plan none of these paths execute and the
//! simulation is bit-identical to the fault-free model.

// L5: the SimError hot path propagates typed errors instead of panicking,
// so one bad cell cannot abort a figure sweep.
#![deny(clippy::unwrap_used, clippy::expect_used)]
// H4: the fault path computes in integers; the one f64 input, a pressure
// step's fraction, is turned into frames at build.
#![deny(clippy::float_arithmetic)]

// Ordered containers only: kernel state must never expose hash-iteration
// order to the simulation (clippy.toml bans the hash containers).
#[cfg(feature = "sanitize")]
use std::collections::BTreeSet;

use pagesim_engine::faults::IoError;
use pagesim_engine::rng::derive_seed;
use pagesim_engine::{
    BarrierSet, DispatchDecision, EventQueue, FaultInjector, Nanos, Scheduler, SimTime,
    ThreadClass, ThreadId, MICROSECOND, MILLISECOND,
};
use pagesim_mem::{
    AddressSpace, AsId, FrameId, FrameState, PageArena, PageKey, PhysMem, Vpn, Watermarks,
};
use pagesim_policy::{ClockLru, MgLru, Policy};
use pagesim_swap::{SsdDevice, SwapDevice, SwapSlot, ZramDevice};
#[cfg(feature = "trace")]
use pagesim_trace::{CoreOcc, Sample, ThreadKind, TraceEvent, Tracer};
use pagesim_workloads::{AccessStream, Op, ReqClass, Workload};

use crate::config::{SwapChoice, SystemConfig};
use crate::mem_state::MemState;
use crate::metrics::RunMetrics;
use crate::pagelock::PageLocks;
use crate::workingset::ShadowArena;

/// Records a trace event when a tracer is attached. Expands to nothing
/// without the `trace` feature. `pagesim-bench` always turns the feature
/// on, so `repro` and pagebench carry the hooks; with no tracer attached
/// each costs one branch.
#[cfg(feature = "trace")]
macro_rules! trace_event {
    ($self:expr, $t_ns:expr, $ev:expr) => {
        if let Some(tr) = $self.tracer.as_deref_mut() {
            tr.event($t_ns, $ev);
        }
    };
}
#[cfg(not(feature = "trace"))]
macro_rules! trace_event {
    ($self:expr, $t_ns:expr, $ev:expr) => {};
}

/// Owner key recorded for balloon-held frames (outside every address
/// space; the arena never grows anywhere near `u32::MAX` pages).
const BALLOON_KEY: PageKey = PageKey::MAX;

/// The frames a memory-pressure step takes while it lasts.
struct Balloon {
    /// Frames the step asks for: its fraction of the frame pool.
    want: usize,
    /// Frames it holds, with room for `want` reserved at build.
    held: Vec<FrameId>,
}

impl Balloon {
    #[expect(
        clippy::float_arithmetic,
        reason = "the step's fraction is an f64 plan input; this runs once per step at build"
    )]
    fn new(frames: usize, frac: f64) -> Balloon {
        let want = ((frames as f64 * frac) as usize).min(frames);
        Balloon {
            want,
            held: Vec::with_capacity(want),
        }
    }
}

/// A condition that ends (or degrades) a simulation without a panic.
///
/// Simulation-state violations used to abort the whole experiment batch
/// via `expect`/`assert`; they now propagate into
/// [`RunMetrics::error`](crate::RunMetrics) so one bad cell cannot take
/// down a figure sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimError {
    /// A `RequestEnd` op arrived with no `RequestStart` in flight.
    RequestWithoutStart,
    /// A `RequestStart` op arrived while another request was open.
    NestedRequest,
    /// No events remained while application threads were still live.
    Deadlock,
    /// The simulation exceeded `config.max_sim_time` (a guard against
    /// thrashing loops that make no forward progress).
    SimTimeExceeded,
}

impl SimError {
    /// Stable machine-readable name, used by the cell-cache codec.
    pub fn name(&self) -> &'static str {
        match self {
            SimError::RequestWithoutStart => "request-without-start",
            SimError::NestedRequest => "nested-request",
            SimError::Deadlock => "deadlock",
            SimError::SimTimeExceeded => "sim-time-exceeded",
        }
    }

    /// Parses a [`SimError::name`] back from its bytes.
    pub fn from_name(name: &[u8]) -> Option<SimError> {
        Some(match name {
            b"request-without-start" => SimError::RequestWithoutStart,
            b"nested-request" => SimError::NestedRequest,
            b"deadlock" => SimError::Deadlock,
            b"sim-time-exceeded" => SimError::SimTimeExceeded,
            _ => return None,
        })
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::RequestWithoutStart => write!(f, "RequestEnd without RequestStart"),
            SimError::NestedRequest => write!(f, "nested RequestStart"),
            SimError::Deadlock => write!(f, "deadlock: no events, app threads live"),
            SimError::SimTimeExceeded => write!(f, "simulation exceeded max_sim_time"),
        }
    }
}

#[derive(Debug)]
enum Event {
    SliceEnd {
        core: usize,
        tid: ThreadId,
        used: Nanos,
        decision: DispatchDecision,
    },
    IoDone {
        tid: ThreadId,
        key: PageKey,
        frame: FrameId,
        slot: Option<SwapSlot>,
        write: bool,
        fd: bool,
    },
    FrameFree {
        frame: FrameId,
    },
    Wake {
        tid: ThreadId,
    },
    KswapdRetry,
    /// A memory-pressure step begins: the balloon inflates.
    PressureOn {
        idx: usize,
    },
    /// A memory-pressure step ends: the balloon deflates.
    PressureOff {
        idx: usize,
    },
}

enum ThreadBody {
    App {
        stream: Box<dyn AccessStream>,
        /// The batch being executed, from [`AccessStream::next_batch`].
        ops: Vec<Op>,
        /// The next op of `ops` to execute. An op interrupted by
        /// preemption or frame starvation stays under the cursor and is
        /// retried at the next dispatch.
        pos: usize,
        request: Option<(ReqClass, SimTime, bool)>,
    },
    Kswapd,
    Aging,
}

/// Why a blocked thread waits, and what ends the wait.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Wait {
    /// Its major fault's device read is in flight: the read's `IoDone`.
    Io,
    /// Another thread's read of the page is in flight: that read's
    /// `IoDone` releases the page lock's chain in arrival order.
    PageLock,
    /// No frame could be had, even by direct reclaim: a `Wake` 300 µs on.
    Frame,
    /// The device rejected its swap-in: a `Wake` after the backoff.
    Backoff,
    /// The rest of a barrier's parties: the round's last arrival, or a
    /// party's death.
    Barrier,
    /// A kernel thread with no work: `maybe_wake_kswapd` or
    /// `maybe_wake_aging` once there is some.
    Idle,
}

impl Wait {
    /// Whether the op the thread blocked on is done once the wait ends:
    /// the read maps the page, the barrier round completes. After any
    /// other wait the access runs again.
    fn consumes_op(self) -> bool {
        matches!(self, Wait::Io | Wait::Barrier)
    }
}

/// The wait of each thread, `None` while it does not wait. A struct of
/// its own so a wake site can drain a wait queue (a page lock's chain, a
/// barrier) while it wakes: the two borrows are of disjoint fields.
struct Waits(Vec<Option<Wait>>);

impl Waits {
    /// Records that `tid` blocks on `wait`.
    fn block(&mut self, tid: ThreadId, wait: Wait) {
        let slot = &mut self.0[tid.0 as usize];
        debug_assert_eq!(*slot, None, "thread {tid:?} blocks while it waits");
        *slot = Some(wait);
    }

    /// The wait of `tid`, if it waits.
    fn get(&self, tid: ThreadId) -> Option<Wait> {
        self.0[tid.0 as usize]
    }

    /// The one wake path: ends `tid`'s wait and makes it runnable. A
    /// finished thread stays finished: a thread killed while it waited
    /// can retire before the event that ends its wait.
    fn wake(&mut self, sched: &mut Scheduler, tid: ThreadId) {
        self.0[tid.0 as usize] = None;
        if !sched.is_finished(tid) {
            sched.make_runnable(tid);
        }
    }
}

/// The simulated system. One [`run`](Kernel::run) = one workload execution.
pub struct Kernel {
    cfg: SystemConfig,
    now: SimTime,
    events: EventQueue<Event>,
    sched: Scheduler,
    barriers: BarrierSet,
    mem: MemState,
    swap: Box<dyn SwapDevice>,
    policy: Box<dyn Policy>,
    bodies: Vec<ThreadBody>,
    app_live: usize,
    finish_time: SimTime,
    kswapd: ThreadId,
    kswapd_retry_pending: bool,
    aging: ThreadId,
    /// Why each blocked thread waits.
    waits: Waits,
    /// Page locks of faults whose read is in flight: later faulters on
    /// the same page wait for the first I/O instead of issuing their own.
    /// A locked page's frame is pinned: the OOM killer must not free it
    /// (the `IoDone` handler will).
    locks: PageLocks,
    /// Reclaim's victim buffer, sized once to the larger reclaim batch.
    victims: Box<[PageKey]>,
    /// First-touch frame attribution: which app thread faulted each frame
    /// in. Drives the OOM killer's RSS accounting; cleared at every free.
    frame_owner: Vec<Option<ThreadId>>,
    /// Threads killed by the OOM killer or an unrecoverable I/O error;
    /// they retire at their next dispatch.
    killed: Vec<bool>,
    /// Per-thread RSS scratch for the OOM victim scan, reused across
    /// invocations so the stall path never allocates.
    oom_rss: Vec<u64>,
    /// Consecutive failed swap-in attempts per thread (exponential
    /// backoff); reset on a successful read submission.
    retry_attempts: Vec<u32>,
    /// Consecutive starved allocations across all threads; the OOM
    /// trigger. Reset whenever an allocation succeeds.
    stall_streak: u32,
    /// One balloon per pressure step, sized at build.
    balloon: Vec<Balloon>,
    /// Shadow entries for evicted pages (`workingset.c` analog): one
    /// preallocated slot per page, recorded on eviction and consumed on
    /// refault to yield the refault distance. Purely observational —
    /// never feeds back into policy or timing.
    shadow: ShadowArena,
    metrics: RunMetrics,
    /// Telemetry collector, attached for the length of
    /// [`Kernel::run_traced`]. Boxed so the untraced kernel pays one
    /// pointer of space; `None` (every untraced run) short-circuits every
    /// hook.
    #[cfg(feature = "trace")]
    tracer: Option<Box<Tracer>>,
    /// Quiesce-point counter for sampling the O(pages) sanitize sweep at
    /// paper-native footprints (a `Cell` because the checker is `&self`).
    #[cfg(feature = "sanitize")]
    sanitize_tick: std::cell::Cell<u64>,
}

impl Kernel {
    /// Builds a system for `workload` under `config`, seeded for one trial.
    pub fn build(config: &SystemConfig, workload: &dyn Workload, seed: u64) -> Kernel {
        let specs = workload.spaces();
        let mut arena = PageArena::new();
        let mut spaces = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let space = AddressSpace::new(AsId(i as u16), spec.pages, &mut arena);
            let base = space.base_key();
            for a in &spec.annotations {
                if a.file_backed {
                    arena.set_file_backed(base + a.start, a.count);
                }
                arena.set_entropy(base + a.start, a.count, a.entropy);
            }
            spaces.push(space);
        }
        let footprint: u32 = specs.iter().map(|s| s.pages).sum();
        let frames = config.frames_for(footprint);
        let phys = PhysMem::new(frames, Watermarks::for_capacity(frames));
        let mem = MemState::new(spaces, arena, phys);

        let total_pages = mem.arena.len() as u32;
        // `PolicyChoice::resolved_mglru` is the single source of truth for
        // what each choice builds; `SystemConfig::stable_hash` (the cell
        // cache key) hashes the same resolution, so a cache hit implies an
        // identical policy construction here.
        let policy: Box<dyn Policy> = match config.policy.resolved_mglru() {
            None => Box::new(ClockLru::new(total_pages, config.scaled_costs())),
            Some(mut c) => {
                c.seed = seed;
                Box::new(MgLru::new(total_pages, c, config.scaled_costs()))
            }
        };

        // Devices carry a fault injector only when the plan can touch
        // them: a plain device stays on the branch-free fast path and the
        // simulation is bit-identical to the fault-free build.
        let device_faults = config.faults.plan.has_device_faults().then(|| {
            FaultInjector::new(
                config.faults.plan.clone(),
                derive_seed(seed, "fault-injection"),
            )
        });
        // Each live slot backs exactly one page, so a slot per page is
        // enough and the devices never grow their slot state.
        let swap: Box<dyn SwapDevice> = match config.swap {
            SwapChoice::Ssd => {
                let mut d = SsdDevice::new(
                    7 * MILLISECOND + 500 * MICROSECOND,
                    7 * MILLISECOND + 500 * MICROSECOND,
                    config.ssd_parallelism,
                    total_pages,
                );
                if let Some(inj) = device_faults {
                    d = d.with_faults(inj);
                }
                Box::new(d)
            }
            SwapChoice::Zram => {
                let mut d = ZramDevice::with_paper_costs(total_pages);
                if let Some(bytes) = config.faults.zram_capacity_bytes {
                    d = d.with_capacity(bytes);
                }
                if let Some(inj) = device_faults {
                    d = d.with_faults(inj);
                }
                Box::new(d)
            }
        };

        let mut sched = Scheduler::new(config.cores, config.quantum);
        let mut bodies = Vec::new();
        let mut barriers = BarrierSet::new();
        for parties in workload.barriers() {
            barriers.create(parties);
        }
        let streams = workload.streams(seed);
        let app_live = streams.len();
        for stream in streams {
            let tid = sched.spawn(ThreadClass::App);
            debug_assert_eq!(tid.0 as usize, bodies.len());
            bodies.push(ThreadBody::App {
                stream,
                ops: Vec::new(),
                pos: 0,
                request: None,
            });
            sched.make_runnable(tid);
        }
        let kswapd = sched.spawn(ThreadClass::Kernel);
        bodies.push(ThreadBody::Kswapd);
        let aging = sched.spawn(ThreadClass::Kernel);
        bodies.push(ThreadBody::Aging);
        // App threads start runnable; the kernel threads start idle.
        let mut waits = vec![None; app_live];
        waits.extend([Some(Wait::Idle); 2]);

        let mut metrics = RunMetrics {
            footprint_pages: footprint,
            capacity_frames: frames as u32,
            ..RunMetrics::default()
        };
        // Every bucket up front, so recording never reallocates;
        // `finalize` shrinks each histogram back to its data.
        metrics.read_latency.reserve_all();
        metrics.write_latency.reserve_all();
        metrics.workingset_refault_distance.reserve_all();

        let thread_count = bodies.len();
        let mut events = EventQueue::with_cores(config.cores);
        let pressure = &config.faults.plan.pressure;
        // Pending heap events are bounded: one IoDone or Wake per thread,
        // one FrameFree per frame under write-back, one KswapdRetry, and
        // each pressure step's on and off.
        events.reserve(thread_count + frames + 2 * pressure.len() + 1);
        for (idx, step) in pressure.iter().enumerate() {
            events.push(SimTime::from_ns(step.at), Event::PressureOn { idx });
        }

        Kernel {
            cfg: config.clone(),
            now: SimTime::ZERO,
            events,
            sched,
            barriers,
            mem,
            swap,
            policy,
            bodies,
            app_live,
            finish_time: SimTime::ZERO,
            kswapd,
            kswapd_retry_pending: false,
            aging,
            waits: Waits(waits),
            locks: PageLocks::new(total_pages as usize, frames, thread_count),
            victims: vec![0; config.kswapd_batch.max(config.direct_batch) as usize]
                .into_boxed_slice(),
            frame_owner: vec![None; frames],
            killed: vec![false; thread_count],
            oom_rss: vec![0; thread_count],
            retry_attempts: vec![0; thread_count],
            stall_streak: 0,
            balloon: pressure
                .iter()
                .map(|step| Balloon::new(frames, step.frac))
                .collect(),
            shadow: ShadowArena::new(total_pages as usize),
            metrics,
            #[cfg(feature = "trace")]
            tracer: None,
            #[cfg(feature = "sanitize")]
            sanitize_tick: std::cell::Cell::new(0),
        }
    }

    /// Runs the workload to completion and returns the collected metrics.
    ///
    /// Simulation-state violations (deadlock, exceeding
    /// `config.max_sim_time`, malformed request streams) are recorded in
    /// [`RunMetrics::error`] instead of panicking.
    pub fn run(mut self) -> RunMetrics {
        self.run_loop();
        self.finalize()
    }

    /// Runs the workload like [`run`](Kernel::run) with `tracer`
    /// attached, and hands it back with its collected samples and events.
    /// Tracing hooks never feed back into the simulation: a traced run
    /// produces the same `RunMetrics` as an untraced one.
    #[cfg(feature = "trace")]
    pub fn run_traced(mut self, tracer: Tracer) -> (RunMetrics, Tracer) {
        self.tracer = Some(Box::new(tracer));
        self.run_loop();
        let Some(tracer) = self.tracer.take() else {
            unreachable!("the tracer stays attached for the whole run")
        };
        (self.finalize(), *tracer)
    }

    /// Runs the simulation to its end: until every application thread
    /// finishes, the event queue drains (a deadlock), or
    /// `config.max_sim_time` passes. [`run`](Kernel::run) is this followed
    /// by [`finalize`](Kernel::finalize); the two are separate so a caller
    /// can observe the loop alone.
    pub fn run_loop(&mut self) {
        loop {
            while let Some((core, tid)) = self.sched.try_dispatch() {
                self.run_dispatched(core, tid);
            }
            let Some((t, ev)) = self.events.pop() else {
                if self.app_live != 0 {
                    self.metrics.error.get_or_insert(SimError::Deadlock);
                    self.finish_time = self.finish_time.max(self.now);
                }
                break;
            };
            if t.as_ns() > self.cfg.max_sim_time {
                self.metrics.error.get_or_insert(SimError::SimTimeExceeded);
                self.finish_time = self.finish_time.max(self.now);
                break;
            }
            // Emit any sample boundaries due before this event: simulation
            // state only changes at events, so the pre-event snapshot is
            // exactly the state that held at each boundary.
            #[cfg(feature = "trace")]
            self.pump_samples(t.as_ns());
            self.now = t;
            self.handle_event(ev);
            if self.app_live == 0 {
                break;
            }
        }
    }

    /// Runs the slice `tid` was just dispatched for on `core` and schedules
    /// its end.
    fn run_dispatched(&mut self, core: usize, tid: ThreadId) {
        let (used, decision) = self.run_slice(tid);
        self.events.push_slice_end(
            self.now + used,
            Event::SliceEnd {
                core,
                tid,
                used,
                decision,
            },
        );
    }

    /// Drains sample boundaries at or before `upto_ns`, snapshotting the
    /// current gauges for each.
    #[cfg(feature = "trace")]
    fn pump_samples(&mut self, upto_ns: u64) {
        while let Some(t_ns) = self
            .tracer
            .as_ref()
            .and_then(|tr| tr.next_boundary(upto_ns))
        {
            let sample = self.snapshot_sample(t_ns);
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.push_sample(sample);
            }
        }
    }

    #[cfg(feature = "trace")]
    fn snapshot_sample(&self, t_ns: u64) -> Sample {
        let cores = (0..self.cfg.cores)
            .map(|core| match self.sched.running_on(core) {
                None => CoreOcc::Idle,
                Some(tid) if tid == self.kswapd => CoreOcc::Kswapd,
                Some(tid) if tid == self.aging => CoreOcc::Aging,
                Some(tid) => CoreOcc::App(tid.0),
            })
            .collect();
        Sample {
            t_ns,
            major_faults: self.metrics.major_faults,
            refaults: self.tracer.as_ref().map(|tr| tr.refaults()).unwrap_or(0),
            evictions: self.metrics.evictions,
            direct_reclaims: self.metrics.direct_reclaims,
            kswapd_batches: self.metrics.kswapd_batches,
            free_frames: self.mem.phys.free_frames() as u64,
            writeback_frames: self.mem.phys.writeback_frames() as u64,
            gens: self.policy.occupancy(),
            cores,
            ws_refault: self.metrics.workingset_refault,
            ws_activate: self.metrics.workingset_activate,
            ws_restore: self.metrics.workingset_restore,
            lru_gen: {
                let mut dump = String::new();
                self.policy.introspect(&mut dump);
                dump
            },
        }
    }

    /// Collects the metrics of a finished [`run_loop`](Kernel::run_loop):
    /// runtime, CPU time and the policy's and swap device's counters.
    pub fn finalize(mut self) -> RunMetrics {
        #[cfg(feature = "sanitize")]
        self.check_invariants_full();
        self.metrics.read_latency.shrink_to_fit();
        self.metrics.write_latency.shrink_to_fit();
        self.metrics.workingset_refault_distance.shrink_to_fit();
        self.metrics.runtime_ns = self.finish_time.as_ns();
        self.metrics.policy = self.policy.stats();
        self.metrics.swap_stats = self.swap.stats();
        self.metrics.shadow_entries = self.shadow.len();
        self.policy.introspect(&mut self.metrics.lru_gen);
        let s = self.sched.stats();
        self.metrics.app_cpu_ns = s.app_cpu;
        self.metrics.kernel_cpu_ns = s.kernel_cpu;
        self.metrics.swap_used_bytes = self.swap.used_bytes();
        self.metrics
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::SliceEnd {
                core,
                tid,
                used,
                decision,
            } => {
                #[cfg(feature = "trace")]
                if used > 0 {
                    trace_event!(
                        self,
                        self.now.as_ns() - used,
                        TraceEvent::Slice {
                            core: core as u32,
                            tid: tid.0,
                            kind: if tid == self.kswapd {
                                ThreadKind::Kswapd
                            } else if tid == self.aging {
                                ThreadKind::Aging
                            } else {
                                ThreadKind::App
                            },
                            dur_ns: used,
                        }
                    );
                }
                // A wake that came while the slice ran overtook its block:
                // the thread stays runnable.
                let woken = decision == DispatchDecision::Blocked && self.waits.get(tid).is_none();
                let decision = if woken {
                    DispatchDecision::Preempted
                } else {
                    decision
                };
                // A preempted thread that nobody waits behind keeps its
                // core: run its next slice now, as the dispatch loop would.
                if decision == DispatchDecision::Preempted && self.sched.redispatch(core, tid, used)
                {
                    self.run_dispatched(core, tid);
                    return;
                }
                self.sched.slice_done(core, tid, decision, used);
                if decision == DispatchDecision::Finished
                    && matches!(self.bodies[tid.0 as usize], ThreadBody::App { .. })
                {
                    self.app_live -= 1;
                    self.finish_time = self.finish_time.max(self.now);
                }
            }
            Event::IoDone {
                tid,
                key,
                frame,
                slot,
                write,
                fd,
            } => {
                if self.killed[tid.0 as usize] {
                    // The faulting thread died while its I/O was in
                    // flight: drop the frame, leave the page out.
                    self.frame_owner[frame as usize] = None;
                    if self.mem.phys.state(frame) == FrameState::InUse {
                        self.mem.phys.free(frame);
                    }
                } else {
                    self.complete_major_fault(key, frame, slot, write, fd);
                    trace_event!(
                        self,
                        self.now.as_ns(),
                        TraceEvent::FaultEnd {
                            tid: tid.0,
                            key: key as u64,
                        }
                    );
                    self.waits.wake(&mut self.sched, tid);
                }
                // Release the page lock: threads that faulted on the same
                // page meanwhile retry their access, in arrival order.
                for w in self.locks.unlock(key) {
                    self.waits.wake(&mut self.sched, w);
                }
            }
            Event::FrameFree { frame } => {
                self.mem.phys.writeback_done(frame);
            }
            Event::Wake { tid } => self.waits.wake(&mut self.sched, tid),
            Event::KswapdRetry => {
                self.kswapd_retry_pending = false;
                self.maybe_wake_kswapd();
            }
            Event::PressureOn { idx } => self.pressure_on(idx),
            Event::PressureOff { idx } => self.pressure_off(idx),
        }
    }

    // ---------------------------------------------------------------
    // Memory-pressure balloon
    // ---------------------------------------------------------------

    fn pressure_on(&mut self, idx: usize) {
        let duration = self.cfg.faults.plan.pressure[idx].duration;
        let balloon = &mut self.balloon[idx];
        // `allocate` refuses below the min watermark, so the balloon can
        // never consume the reserve that direct reclaim depends on.
        while balloon.held.len() < balloon.want {
            let Some(f) = self.mem.phys.allocate(BALLOON_KEY) else {
                break;
            };
            self.frame_owner[f as usize] = None;
            balloon.held.push(f);
        }
        self.metrics.pressure_frames_taken += balloon.held.len() as u64;
        self.events
            .push(self.now + duration, Event::PressureOff { idx });
        self.maybe_wake_kswapd();
        #[cfg(feature = "sanitize")]
        self.check_invariants();
    }

    fn pressure_off(&mut self, idx: usize) {
        for f in self.balloon[idx].held.drain(..) {
            self.mem.phys.free(f);
        }
        #[cfg(feature = "sanitize")]
        self.check_invariants();
    }

    // ---------------------------------------------------------------
    // Slice execution
    // ---------------------------------------------------------------

    fn run_slice(&mut self, tid: ThreadId) -> (Nanos, DispatchDecision) {
        match &self.bodies[tid.0 as usize] {
            ThreadBody::App { .. } => self.run_app_slice(tid),
            ThreadBody::Kswapd => self.run_kswapd_slice(),
            ThreadBody::Aging => self.run_aging_slice(),
        }
    }

    fn run_app_slice(&mut self, tid: ThreadId) -> (Nanos, DispatchDecision) {
        if self.killed[tid.0 as usize] {
            // Killed by the OOM killer or an unrecoverable I/O error:
            // retire without consuming further ops.
            return (0, DispatchDecision::Finished);
        }
        // The batch leaves the thread's body for the slice, so the op loop
        // can borrow the kernel freely.
        let ThreadBody::App { ops, pos, .. } = &mut self.bodies[tid.0 as usize] else {
            unreachable!("app slice on kernel thread")
        };
        let (mut batch, mut at) = (std::mem::take(ops), *pos);
        let slice = self.run_ops(tid, &mut batch, &mut at);
        if let ThreadBody::App { ops, pos, .. } = &mut self.bodies[tid.0 as usize] {
            (*ops, *pos) = (batch, at);
        }
        slice
    }

    /// Executes `ops` from `pos` until the slice ends. An op that is
    /// consumed advances `pos`; one that must be retried (preempted before
    /// it starts, or blocked on a [`Wait`] that does not
    /// [consume](Wait::consumes_op) it) leaves it in place, and a `Compute`
    /// split at the quantum is rewritten in place to its remainder.
    fn run_ops(
        &mut self,
        tid: ThreadId,
        ops: &mut Vec<Op>,
        pos: &mut usize,
    ) -> (Nanos, DispatchDecision) {
        let budget = self.sched.quantum();
        let mut used: Nanos = 0;
        loop {
            if *pos == ops.len() {
                // A new batch only once every op of the last one ran: the
                // moment a per-op drain would generate it, so state the
                // streams share is read in the same order (see
                // `AccessStream`).
                let ThreadBody::App { stream, .. } = &mut self.bodies[tid.0 as usize] else {
                    unreachable!()
                };
                stream.next_batch(ops);
                *pos = 0;
            }
            let op = ops[*pos];
            // `Some` ends the slice once the op is consumed.
            let stop = match op {
                Op::Compute { cpu_ns } => {
                    let room = budget.saturating_sub(used);
                    if cpu_ns > room {
                        ops[*pos] = Op::Compute {
                            cpu_ns: cpu_ns - room,
                        };
                        return (budget, DispatchDecision::Preempted);
                    }
                    used += cpu_ns;
                    None
                }
                Op::Access {
                    space,
                    vpn,
                    write,
                    cpu_ns,
                }
                | Op::FdAccess {
                    space,
                    vpn,
                    write,
                    cpu_ns,
                } => {
                    if used + cpu_ns as u64 > budget {
                        return (budget, DispatchDecision::Preempted);
                    }
                    used += cpu_ns as u64;
                    let fd = matches!(op, Op::FdAccess { .. });
                    match self.touch(tid, space, vpn, write, fd, &mut used) {
                        TouchResult::Hit => None,
                        TouchResult::Blocked(wait) => {
                            self.waits.block(tid, wait);
                            if !wait.consumes_op() {
                                // Retry the whole access once the wait ends.
                                return (used, DispatchDecision::Blocked);
                            }
                            Some(DispatchDecision::Blocked)
                        }
                        TouchResult::Killed => Some(DispatchDecision::Finished),
                    }
                }
                Op::Barrier { id } => {
                    used += self.cfg.app_costs.barrier_ns;
                    match self.barriers.arrive(id, tid) {
                        Some(waiters) => {
                            for w in waiters {
                                self.waits.wake(&mut self.sched, w);
                            }
                            None
                        }
                        None => {
                            self.waits.block(tid, Wait::Barrier);
                            Some(DispatchDecision::Blocked)
                        }
                    }
                }
                Op::RequestStart { class, warmup } => {
                    let at = self.now + used;
                    let ThreadBody::App { request, .. } = &mut self.bodies[tid.0 as usize] else {
                        unreachable!()
                    };
                    if request.is_some() {
                        self.metrics.error.get_or_insert(SimError::NestedRequest);
                    }
                    *request = Some((class, at, warmup));
                    None
                }
                Op::RequestEnd => {
                    let at = self.now + used;
                    let ThreadBody::App { request, .. } = &mut self.bodies[tid.0 as usize] else {
                        unreachable!()
                    };
                    match request.take() {
                        Some((class, start, warmup)) => {
                            if !warmup {
                                let latency = at.saturating_since(start).max(1);
                                match class {
                                    ReqClass::Read => self.metrics.read_latency.record(latency),
                                    ReqClass::Write => self.metrics.write_latency.record(latency),
                                }
                            }
                        }
                        None => {
                            self.metrics
                                .error
                                .get_or_insert(SimError::RequestWithoutStart);
                        }
                    }
                    None
                }
                // Not consumed: a finished stream stays finished.
                Op::Done => return (used, DispatchDecision::Finished),
            };
            *pos += 1;
            if let Some(outcome) = stop {
                return (used, outcome);
            }
            if used >= budget {
                return (used, DispatchDecision::Preempted);
            }
        }
    }

    // ---------------------------------------------------------------
    // MMU touch and fault path
    // ---------------------------------------------------------------

    fn touch(
        &mut self,
        tid: ThreadId,
        space: AsId,
        vpn: Vpn,
        write: bool,
        fd: bool,
        used: &mut Nanos,
    ) -> TouchResult {
        let pte = self.mem.space(space).pte(vpn);
        if pte.present() {
            let key = self.mem.space(space).key_of(vpn);
            if fd {
                *used += self.cfg.app_costs.fd_hit_ns;
                if write && !pte.dirty() {
                    self.dirty_transition(key);
                    self.mem.space_mut(space).set_dirty(vpn);
                }
                self.policy.on_fd_access(key, &mut self.mem);
            } else {
                *used += self.cfg.app_costs.mem_access_ns;
                if write && !pte.dirty() {
                    self.dirty_transition(key);
                }
                self.mem.space_mut(space).mark_accessed(vpn, write);
            }
            self.metrics.accesses += 1;
            return TouchResult::Hit;
        }
        self.fault(tid, space, vpn, write, fd, used)
    }

    /// Invalidate swap backing when a clean page gets dirtied.
    fn dirty_transition(&mut self, key: PageKey) {
        if let Some(slot) = self.mem.backing[key as usize].take() {
            self.swap.release(slot);
        }
    }

    fn fault(
        &mut self,
        tid: ThreadId,
        space: AsId,
        vpn: Vpn,
        write: bool,
        fd: bool,
        used: &mut Nanos,
    ) -> TouchResult {
        let key = self.mem.space(space).key_of(vpn);
        // 0. Page-lock analog: if another thread's fault on this page is
        //    already in flight, wait for its I/O and retry the access.
        if self.locks.wait(key, tid) {
            self.metrics.shared_fault_waits += 1;
            return TouchResult::Blocked(Wait::PageLock);
        }
        // 1. A frame must be available before any read can start.
        let frame = match self.grab_frame(key, used) {
            Some(f) => {
                self.stall_streak = 0;
                self.frame_owner[f as usize] = Some(tid);
                f
            }
            None => {
                self.metrics.alloc_stalls += 1;
                if self.note_alloc_stall() {
                    // The OOM killer chose *this* thread.
                    if self.killed[tid.0 as usize] {
                        return TouchResult::Killed;
                    }
                }
                // All frames pinned by in-flight write-back (or everything
                // looked accessed): retry shortly.
                self.events
                    .push(self.now + *used + 300 * MICROSECOND, Event::Wake { tid });
                return TouchResult::Blocked(Wait::Frame);
            }
        };

        let pte = self.mem.space(space).pte(vpn);
        let info = self.mem.arena.info(key);
        if pte.swapped() || info.file_backed {
            // Major fault: content must come from the device (swap slot or
            // backing file).
            *used += self.cfg.app_costs.major_fault_ns;
            let slot = pte.swap_slot();
            let vt = self.now + *used;
            // Reads of slots still being written wait for durability.
            let submit = match slot {
                Some(s) => vt.max(self.swap.write_done(s)),
                None => vt,
            };
            let out = match slot {
                Some(s) => self.swap.read(submit, s),
                None => self.swap.file_read(submit), // demand read of a file page
            };
            let out = match out {
                Ok(o) => o,
                Err(fail) => {
                    *used += fail.cpu_ns;
                    return self.swap_in_failed(tid, frame, fail.error, used);
                }
            };
            self.retry_attempts[tid.0 as usize] = 0;
            self.metrics.major_faults += 1;
            *used += out.cpu_ns;
            let sync_done = self.now + *used;
            if out.done_at <= sync_done.max(submit + out.cpu_ns) && submit == vt {
                // CPU-bound medium (ZRAM): the fault resolves inline.
                self.complete_major_fault(key, frame, slot, write, fd);
                TouchResult::Hit
            } else {
                trace_event!(
                    self,
                    (self.now + *used).as_ns(),
                    TraceEvent::FaultBegin {
                        tid: tid.0,
                        key: key as u64,
                    }
                );
                self.locks.lock(key, frame);
                self.events.push(
                    out.done_at,
                    Event::IoDone {
                        tid,
                        key,
                        frame,
                        slot,
                        write,
                        fd,
                    },
                );
                TouchResult::Blocked(Wait::Io)
            }
        } else {
            // Minor fault: zero-fill. The page is mapped dirty — it
            // represents data the application materialized.
            self.metrics.minor_faults += 1;
            *used += self.cfg.app_costs.minor_fault_ns;
            self.mem.space_mut(space).map(vpn, frame);
            self.mem.space_mut(space).mark_accessed(vpn, true);
            self.policy.on_page_resident(key, false, &mut self.mem);
            TouchResult::Hit
        }
    }

    /// A swap-in read was rejected by the device. Transient errors back
    /// off exponentially and retry; a permanent error (or an exhausted
    /// retry budget) kills the faulting task — the SIGBUS analog.
    fn swap_in_failed(
        &mut self,
        tid: ThreadId,
        frame: FrameId,
        error: IoError,
        used: &mut Nanos,
    ) -> TouchResult {
        self.metrics.io_errors += 1;
        trace_event!(
            self,
            (self.now + *used).as_ns(),
            TraceEvent::FaultInjected { write: false }
        );
        // The fault did not complete: hand the frame back.
        self.frame_owner[frame as usize] = None;
        self.mem.phys.free(frame);
        let ti = tid.0 as usize;
        if error == IoError::Permanent || self.retry_attempts[ti] >= self.cfg.faults.max_io_retries
        {
            self.metrics.io_kills += 1;
            self.kill_thread(tid);
            return TouchResult::Killed;
        }
        let backoff = self
            .cfg
            .faults
            .retry_backoff_base
            .saturating_mul(1u64 << self.retry_attempts[ti].min(24))
            .min(self.cfg.faults.retry_backoff_cap);
        self.retry_attempts[ti] += 1;
        self.metrics.io_retries += 1;
        self.metrics.backoff_ns += backoff;
        self.events
            .push(self.now + *used + backoff, Event::Wake { tid });
        TouchResult::Blocked(Wait::Backoff)
    }

    /// Counts a starved allocation toward the OOM trigger. Returns `true`
    /// if the OOM killer ran.
    fn note_alloc_stall(&mut self) -> bool {
        let Some(limit) = self.cfg.faults.oom_after_stalls else {
            return false;
        };
        self.stall_streak += 1;
        if self.stall_streak < limit {
            return false;
        }
        self.stall_streak = 0;
        self.oom_kill();
        true
    }

    /// Finishes a swap-in/file read: maps the page and updates the policy.
    fn complete_major_fault(
        &mut self,
        key: PageKey,
        frame: FrameId,
        slot: Option<SwapSlot>,
        write: bool,
        fd: bool,
    ) {
        let (space, vpn) = self.mem.locate(key);
        self.mem.space_mut(space).map(vpn, frame);
        if let Some(slot) = slot {
            if write {
                // Dirtied immediately: the swap copy is stale.
                self.swap.release(slot);
                self.mem.backing[key as usize] = None;
            } else {
                // Keep the clean copy (swap-cache): a later clean eviction
                // is free.
                self.mem.backing[key as usize] = Some(slot);
            }
        }
        if fd {
            if write {
                self.mem.space_mut(space).set_dirty(vpn);
            }
            let refault = self.mem.evicted_before[key as usize];
            self.policy.on_page_resident(key, refault, &mut self.mem);
            self.policy.on_fd_access(key, &mut self.mem);
        } else {
            self.mem.space_mut(space).mark_accessed(vpn, write);
            let refault = self.mem.evicted_before[key as usize];
            self.policy.on_page_resident(key, refault, &mut self.mem);
        }
        // Working-set accounting (`workingset.c`): consume the shadow
        // entry and classify the refault by its distance. `activate` when
        // the page would have stayed resident in a memory-capacity-sized
        // list; `restore` when the clean swap-cache copy is kept.
        if let Some(entry) = self.shadow.take(key) {
            let distance = self.metrics.evictions - entry.eviction_seq;
            self.metrics.workingset_refault += 1;
            self.metrics.workingset_refault_distance.record(distance);
            if distance <= self.metrics.capacity_frames as u64 {
                self.metrics.workingset_activate += 1;
            }
            if slot.is_some() && !write {
                self.metrics.workingset_restore += 1;
            }
        }
        // `evicted_before` is monotonic, so reading it again here gives the
        // same `refault` both branches above saw.
        #[cfg(feature = "trace")]
        if self.mem.evicted_before[key as usize] {
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.note_refault();
            }
        }
        self.metrics.accesses += 1;
    }

    /// Allocates a frame, running direct reclaim on the calling thread if
    /// needed. Returns `None` when progress requires waiting for
    /// write-backs.
    fn grab_frame(&mut self, key: PageKey, used: &mut Nanos) -> Option<FrameId> {
        if let Some(f) = self.mem.phys.allocate(key) {
            self.maybe_wake_kswapd();
            return Some(f);
        }
        // Direct reclaim: the faulting thread pays for victim selection
        // and swap-out CPU.
        self.metrics.direct_reclaims += 1;
        for _ in 0..2 {
            let batch = &mut self.victims[..self.cfg.direct_batch as usize];
            let out = self.policy.reclaim(batch, &mut self.mem);
            self.metrics.pgscan_direct += out.scanned;
            *used += out.cpu_ns;
            let vt = self.now + *used;
            *used += self.apply_evictions(out.victims, vt);
            trace_event!(
                self,
                (self.now + *used).as_ns(),
                TraceEvent::ReclaimBatch {
                    direct: true,
                    victims: out.victims as u32,
                    scanned: out.scanned,
                    cpu_ns: out.cpu_ns,
                }
            );
            self.maybe_wake_aging();
            if let Some(f) = self.mem.phys.allocate_from_reserve(key) {
                self.maybe_wake_kswapd();
                return Some(f);
            }
            if out.victims == 0 {
                break;
            }
        }
        self.maybe_wake_kswapd();
        None
    }

    // ---------------------------------------------------------------
    // Eviction and reclaim threads
    // ---------------------------------------------------------------

    /// Unmaps the first `count` victims of the reclaim buffer and performs
    /// swap-out. Returns CPU time charged to the reclaiming thread (write
    /// submission, compression).
    ///
    /// A rejected device write (injected error, full ZRAM pool) aborts
    /// that victim's eviction: the page stays resident and is handed back
    /// to the policy. The attempted operation's CPU is still charged.
    fn apply_evictions(&mut self, count: usize, vt: SimTime) -> Nanos {
        let mut cpu: Nanos = 0;
        for i in 0..count {
            let key = self.victims[i];
            let (space, vpn) = self.mem.locate(key);
            let pte = self.mem.space(space).pte(vpn);
            let Some(frame) = pte.frame() else {
                debug_assert!(false, "victim {key} not resident");
                continue;
            };
            let info = self.mem.arena.info(key);
            if info.file_backed {
                if pte.dirty() {
                    // Write back to the file, then drop.
                    match self.swap.file_write(vt + cpu) {
                        Ok(out) => {
                            cpu += out.cpu_ns;
                            self.metrics.swap_outs += 1;
                            self.pin_until(frame, vt + cpu, out.done_at);
                        }
                        Err(fail) => {
                            cpu += fail.cpu_ns;
                            self.abort_eviction(key);
                            continue;
                        }
                    }
                } else {
                    self.frame_owner[frame as usize] = None;
                    self.mem.phys.free(frame);
                }
                self.mem.space_mut(space).clear_mapping(vpn);
            } else if let Some(slot) = self.mem.backing[key as usize].take() {
                // Clean anon page with a valid swap copy: free drop.
                debug_assert!(!pte.dirty(), "dirty page kept backing");
                self.mem.space_mut(space).set_swapped(vpn, slot);
                self.frame_owner[frame as usize] = None;
                self.mem.phys.free(frame);
                self.metrics.clean_drops += 1;
            } else {
                // Dirty anon page: allocate a slot and write.
                let slot = self.swap.allocate_slot();
                match self.swap.write(vt + cpu, slot, info.entropy) {
                    Ok(out) => {
                        cpu += out.cpu_ns;
                        self.mem.space_mut(space).set_swapped(vpn, slot);
                        self.metrics.swap_outs += 1;
                        self.pin_until(frame, vt + cpu, out.done_at);
                    }
                    Err(fail) => {
                        cpu += fail.cpu_ns;
                        self.swap.release(slot);
                        self.abort_eviction(key);
                        continue;
                    }
                }
            }
            self.policy.on_page_evicted(key, &mut self.mem);
            self.mem.evicted_before[key as usize] = true;
            self.metrics.evictions += 1;
            if info.file_backed {
                self.metrics.pgsteal_file += 1;
            } else {
                self.metrics.pgsteal_anon += 1;
            }
            // Shadow entry (`workingset.c`): snapshot the eviction clock so
            // a refault can compute its distance in evictions.
            self.shadow.record(key, self.metrics.evictions);
        }
        #[cfg(feature = "sanitize")]
        self.check_invariants();
        cpu
    }

    /// Reverses a reclaim decision after the device rejected the
    /// write-back: the page stays mapped and the policy re-tracks it as
    /// resident (the reclaim pass had already detached it).
    fn abort_eviction(&mut self, key: PageKey) {
        self.metrics.io_errors += 1;
        self.metrics.eviction_aborts += 1;
        trace_event!(
            self,
            self.now.as_ns(),
            TraceEvent::FaultInjected { write: true }
        );
        self.policy.on_page_resident(key, false, &mut self.mem);
    }

    /// Frees the frame now (synchronous media) or pins it until `done_at`.
    fn pin_until(&mut self, frame: FrameId, vt: SimTime, done_at: SimTime) {
        self.frame_owner[frame as usize] = None;
        if done_at <= vt {
            self.mem.phys.free(frame);
        } else {
            self.mem.phys.begin_writeback(frame);
            self.events.push(done_at, Event::FrameFree { frame });
        }
    }

    // ---------------------------------------------------------------
    // OOM killer
    // ---------------------------------------------------------------

    /// Kills the app thread with the largest RSS (first-touch frame
    /// attribution), freeing its frames. Mirrors the kernel's OOM badness
    /// heuristic in its simplest form: biggest wins, ties to the lowest
    /// tid for determinism.
    fn oom_kill(&mut self) {
        self.oom_rss.fill(0);
        for f in 0..self.mem.phys.capacity() as u32 {
            if self.mem.phys.state(f) == FrameState::InUse {
                if let Some(t) = self.frame_owner[f as usize] {
                    self.oom_rss[t.0 as usize] += 1;
                }
            }
        }
        let rss = &self.oom_rss;
        let victim = (0..self.bodies.len())
            .filter(|&i| matches!(self.bodies[i], ThreadBody::App { .. }))
            .filter(|&i| !self.killed[i] && !self.sched.is_finished(ThreadId(i as u32)))
            .filter(|&i| rss[i] > 0)
            .max_by_key(|&i| (rss[i], std::cmp::Reverse(i)));
        let Some(v) = victim else {
            return; // nothing killable owns memory; keep stalling
        };
        self.metrics.oom_kills += 1;
        trace_event!(
            self,
            self.now.as_ns(),
            TraceEvent::OomKill { victim: v as u32 }
        );
        self.kill_thread(ThreadId(v as u32));
    }

    /// Marks `victim` killed, releases the frames it faulted in, and
    /// detaches it from barriers so peers are not stranded. The thread
    /// retires at its next dispatch.
    ///
    /// Model simplification: in shared address spaces the victim's
    /// first-touched pages are dropped outright; surviving threads
    /// re-fault them as zero-fill minor faults.
    fn kill_thread(&mut self, victim: ThreadId) {
        let vi = victim.0 as usize;
        if self.killed[vi] || self.sched.is_finished(victim) {
            return;
        }
        self.killed[vi] = true;
        let mut freed = 0u64;
        for f in 0..self.mem.phys.capacity() as u32 {
            if self.frame_owner[f as usize] != Some(victim) {
                continue;
            }
            if self.mem.phys.state(f) != FrameState::InUse {
                self.frame_owner[f as usize] = None;
                continue;
            }
            if self.locks.pinned_page(f).is_some() {
                // An IoDone for this frame is in flight; its handler will
                // free it (the thread is marked killed by then).
                continue;
            }
            let Some(key) = self.mem.phys.owner(f) else {
                self.frame_owner[f as usize] = None;
                continue;
            };
            let (space, vpn) = self.mem.locate(key);
            self.policy.forget(key);
            self.mem.space_mut(space).clear_mapping(vpn);
            // A dropped page's shadow can never refault meaningfully: the
            // contents are gone (`workingset_nodereclaim` analog).
            if self.shadow.reclaim(key) {
                self.metrics.workingset_nodereclaim += 1;
            }
            if let Some(slot) = self.mem.backing[key as usize].take() {
                self.swap.release(slot);
            }
            self.frame_owner[f as usize] = None;
            self.mem.phys.free(f);
            freed += 1;
        }
        self.metrics.kill_freed_frames += freed;
        self.barriers
            .depart(victim, |w| self.waits.wake(&mut self.sched, w));
        // Ensure the victim reaches dispatch and retires. One on a page
        // lock's chain stays there; the unlock skips it once it retired.
        self.waits.wake(&mut self.sched, victim);
        self.maybe_wake_kswapd();
        #[cfg(feature = "sanitize")]
        self.check_invariants();
    }

    fn maybe_wake_kswapd(&mut self) {
        if self.waits.get(self.kswapd) == Some(Wait::Idle) && self.mem.phys.below_low() {
            self.waits.wake(&mut self.sched, self.kswapd);
        }
    }

    fn maybe_wake_aging(&mut self) {
        let idle = self.waits.get(self.aging) == Some(Wait::Idle);
        if idle && self.policy.wants_background(&self.mem) {
            self.waits.wake(&mut self.sched, self.aging);
        }
    }

    fn run_kswapd_slice(&mut self) -> (Nanos, DispatchDecision) {
        let budget = self.sched.quantum();
        let mut used: Nanos = 0;
        // kswapd goes idle once the high watermark is met, and also, with
        // a retry due, when it cannot make progress.
        let retry_in = loop {
            if self.mem.phys.above_high() {
                break None;
            }
            // Write-back throttling: stop feeding the device while its
            // queue is deep, or swap-out storms starve demand reads.
            if self.swap.backlog(self.now + used) > self.cfg.writeback_throttle_ns {
                self.metrics.writeback_throttles += 1;
                trace_event!(
                    self,
                    (self.now + used).as_ns(),
                    TraceEvent::Throttle {
                        backlog_ns: self.swap.backlog(self.now + used),
                    }
                );
                break Some(10 * MILLISECOND);
            }
            let batch = &mut self.victims[..self.cfg.kswapd_batch as usize];
            let out = self.policy.reclaim(batch, &mut self.mem);
            self.metrics.pgscan_kswapd += out.scanned;
            used += out.cpu_ns;
            let vt = self.now + used;
            used += self.apply_evictions(out.victims, vt);
            self.metrics.kswapd_batches += 1;
            trace_event!(
                self,
                (self.now + used).as_ns(),
                TraceEvent::ReclaimBatch {
                    direct: false,
                    victims: out.victims as u32,
                    scanned: out.scanned,
                    cpu_ns: out.cpu_ns,
                }
            );
            self.maybe_wake_aging();
            if out.victims == 0 {
                // No progress possible right now (write-backs in flight or
                // everything recently accessed): retry shortly.
                break Some(2 * MILLISECOND);
            }
            if used >= budget {
                return (used, DispatchDecision::Preempted);
            }
        };
        if let Some(delay) = retry_in {
            if !self.kswapd_retry_pending {
                self.kswapd_retry_pending = true;
                self.events
                    .push(self.now + used + delay, Event::KswapdRetry);
            }
        }
        self.waits.block(self.kswapd, Wait::Idle);
        (used, DispatchDecision::Blocked)
    }

    fn run_aging_slice(&mut self) -> (Nanos, DispatchDecision) {
        if !self.policy.wants_background(&self.mem) {
            self.waits.block(self.aging, Wait::Idle);
            return (0, DispatchDecision::Blocked);
        }
        let bg = self
            .policy
            .background_work(self.sched.quantum(), &mut self.mem);
        self.metrics.aging_runs += 1;
        trace_event!(
            self,
            self.now.as_ns(),
            TraceEvent::AgingPass { cpu_ns: bg.cpu_ns }
        );
        if self.policy.wants_background(&self.mem) {
            (bg.cpu_ns, DispatchDecision::Preempted)
        } else {
            self.waits.block(self.aging, Wait::Idle);
            (bg.cpu_ns, DispatchDecision::Blocked)
        }
    }

    /// CONFIG_DEBUG_VM analog (the `sanitize` feature): a full structural
    /// cross-check of page tables, the frame pool, swap-slot references,
    /// in-flight I/O pins, and policy bookkeeping. Runs at quiesce points
    /// (after reclaim batches, kills, and pressure steps); compiled out of
    /// release figure runs.
    ///
    /// # Panics
    ///
    /// Panics with a `sanitize: <invariant>:` message on the first
    /// violated invariant.
    ///
    /// At paper-native footprints the full O(pages) sweep at *every*
    /// quiesce point would dominate wall time, so above
    /// [`SANITIZE_THROTTLE_PAGES`](Self::SANITIZE_THROTTLE_PAGES) only
    /// every [`SANITIZE_THROTTLE_PERIOD`](Self::SANITIZE_THROTTLE_PERIOD)th
    /// call sweeps (the first call always does, and
    /// [`finalize`](Self::finalize) always runs the full check).
    #[cfg(feature = "sanitize")]
    fn check_invariants(&self) {
        let tick = self.sanitize_tick.get();
        self.sanitize_tick.set(tick + 1);
        if self.mem.arena.len() > Self::SANITIZE_THROTTLE_PAGES
            && !tick.is_multiple_of(Self::SANITIZE_THROTTLE_PERIOD)
        {
            return;
        }
        self.check_invariants_full();
    }

    /// Footprint above which per-quiesce sweeps are sampled.
    #[cfg(feature = "sanitize")]
    const SANITIZE_THROTTLE_PAGES: usize = 1 << 18;
    /// One in this many quiesce points sweeps when throttled.
    #[cfg(feature = "sanitize")]
    const SANITIZE_THROTTLE_PERIOD: u64 = 64;

    /// The wait model: a thread the scheduler holds blocked records one
    /// [`Wait`]; `Io`, `PageLock` and `Barrier` waits are held by exactly
    /// the threads on that wait's queue (the owners of io-pinned frames,
    /// the page locks' chains, the barriers' waiting lists), and `Idle`
    /// waits only by kernel threads. A killed thread no longer waits, but
    /// it stays on a page lock's chain until the unlock: it is exempt
    /// there. (`Frame` and `Backoff` waits queue in the event heap, which
    /// is not searched.)
    #[cfg(feature = "sanitize")]
    fn check_waits(&self) {
        let threads = self.bodies.len();
        let mut io = vec![false; threads];
        for f in 0..self.mem.phys.capacity() as FrameId {
            if let (Some(_), Some(t)) = (self.locks.pinned_page(f), self.frame_owner[f as usize]) {
                io[t.0 as usize] = true;
            }
        }
        let mut lock = vec![false; threads];
        for t in self.locks.waiters() {
            lock[t.0 as usize] = true;
        }
        let mut barrier = vec![false; threads];
        for t in self.barriers.waiting() {
            barrier[t.0 as usize] = true;
        }
        for (i, body) in self.bodies.iter().enumerate() {
            let wait = self.waits.0[i];
            assert!(
                wait.is_some() || !self.sched.is_blocked(ThreadId(i as u32)),
                "sanitize: wait: blocked thread {i} records no wait"
            );
            let kernel = !matches!(body, ThreadBody::App { .. });
            assert_eq!(
                kernel && wait.is_some(),
                wait == Some(Wait::Idle),
                "sanitize: wait: thread {i} (kernel thread: {kernel}) waits on {wait:?}"
            );
            let live = !self.killed[i];
            let queued = if io[i] && live {
                Some(Wait::Io)
            } else if lock[i] && live {
                Some(Wait::PageLock)
            } else if barrier[i] {
                Some(Wait::Barrier)
            } else {
                None
            };
            let queue_wait =
                wait.filter(|w| matches!(w, Wait::Io | Wait::PageLock | Wait::Barrier));
            assert_eq!(
                queue_wait, queued,
                "sanitize: wait: thread {i} waits on {wait:?} but is queued for {queued:?}"
            );
        }
    }

    #[cfg(feature = "sanitize")]
    fn check_invariants_full(&self) {
        self.mem.phys.check_invariants();

        // Accessed bits only on present PTEs, and the per-region present
        // counts against the PTE array.
        for space in &self.mem.spaces {
            if let Err(e) = space.check_bitmap_coherence() {
                panic!("sanitize: pte-bitmap: {e}");
            }
        }

        // Page sweep: every PTE against the reverse map, swap backing,
        // and the dirty bit.
        let mut slot_refs: BTreeSet<SwapSlot> = BTreeSet::new();
        let mut mapped_frames: BTreeSet<FrameId> = BTreeSet::new();
        for key in 0..self.mem.arena.len() as PageKey {
            let (space, vpn) = self.mem.locate(key);
            let pte = self.mem.space(space).pte(vpn);
            if pte.present() {
                let Some(frame) = pte.frame() else {
                    panic!("sanitize: rmap-pte: page {key} present without a frame");
                };
                assert_eq!(
                    self.mem.phys.owner(frame),
                    Some(key),
                    "sanitize: rmap-pte: page {key} maps frame {frame} owned by {:?}",
                    self.mem.phys.owner(frame)
                );
                assert_eq!(
                    self.mem.phys.state(frame),
                    FrameState::InUse,
                    "sanitize: rmap-pte: page {key} maps frame {frame} in state {:?}",
                    self.mem.phys.state(frame)
                );
                assert!(
                    mapped_frames.insert(frame),
                    "sanitize: rmap-pte: frame {frame} mapped by two pages"
                );
                if let Some(slot) = self.mem.backing[key as usize] {
                    assert!(
                        !pte.dirty(),
                        "sanitize: dirty-backing: dirty page {key} still holds swap backing {slot}"
                    );
                    assert!(
                        slot_refs.insert(slot),
                        "sanitize: swap-slot: slot {slot} referenced twice"
                    );
                }
            } else {
                assert!(
                    self.mem.backing[key as usize].is_none(),
                    "sanitize: dirty-backing: non-resident page {key} holds swap backing"
                );
                if pte.swapped() {
                    let Some(slot) = pte.swap_slot() else {
                        panic!("sanitize: swap-slot: page {key} swapped without a slot");
                    };
                    assert!(
                        slot_refs.insert(slot),
                        "sanitize: swap-slot: slot {slot} referenced twice"
                    );
                }
            }
        }

        // Frame sweep: every in-use frame must be mapped by its owner,
        // pinned by in-flight fault I/O, or held by a pressure balloon.
        let balloon: BTreeSet<FrameId> =
            self.balloon.iter().flat_map(|b| &b.held).copied().collect();
        for f in 0..self.mem.phys.capacity() as FrameId {
            let pinned = self.locks.pinned_page(f);
            if pinned.is_some() {
                assert_eq!(
                    self.mem.phys.state(f),
                    FrameState::InUse,
                    "sanitize: inflight-io: io-pinned frame {f} in state {:?}",
                    self.mem.phys.state(f)
                );
            }
            match self.mem.phys.owner(f) {
                Some(BALLOON_KEY) => {
                    assert!(
                        balloon.contains(&f),
                        "sanitize: rmap-pte: frame {f} owned by the balloon key but not held by a pressure step"
                    );
                }
                Some(key) if pinned.is_some() => {
                    assert_eq!(
                        pinned,
                        Some(key),
                        "sanitize: inflight-io: io-pinned frame {f} (page {key}) has no inflight fault"
                    );
                    assert!(
                        !mapped_frames.contains(&f),
                        "sanitize: inflight-io: io-pinned frame {f} is already mapped"
                    );
                }
                Some(key) => {
                    assert!(
                        mapped_frames.contains(&f),
                        "sanitize: rmap-pte: in-use frame {f} owned by page {key} is not mapped"
                    );
                }
                None => {
                    assert!(
                        !mapped_frames.contains(&f),
                        "sanitize: rmap-pte: ownerless frame {f} is mapped"
                    );
                }
            }
        }
        // The lock tables: in-flight pages and io-pinned frames pair up
        // one to one, and each waiter is queued on exactly one page.
        self.locks.check_invariants();
        self.check_waits();

        // Slot sweep: every referenced slot must hold data, and the
        // device's live count must equal the kernel's reference count. The
        // device checks that only live slots hold data or a pending write
        // time, so a slot pending durability is referenced.
        for &slot in &slot_refs {
            assert!(
                self.swap.sanitize_slot_stored(slot),
                "sanitize: swap-slot: referenced slot {slot} holds no data on the device"
            );
        }
        let (high_water, slots) = self.swap.sanitize_slot_bounds();
        assert!(
            high_water <= slots && slots as usize == self.mem.arena.len(),
            "sanitize: swap-slot: high water {high_water} of {slots} slots for {} pages",
            self.mem.arena.len()
        );
        let live = self.swap.sanitize_check();
        assert_eq!(
            live,
            slot_refs.len() as u64,
            "sanitize: swap-slot: device reports {live} live slots but the kernel references {}",
            slot_refs.len()
        );

        // Policy cross-check: pages the policy tracks vs present PTEs.
        if let Some(tracked) = self.policy.check_invariants() {
            let resident = u64::from(self.mem.resident_pages());
            assert_eq!(
                tracked, resident,
                "sanitize: attached-resident: policy tracks {tracked} pages but {resident} PTEs are present"
            );
        }
    }
}

enum TouchResult {
    Hit,
    /// The access cannot finish until the wait ends.
    Blocked(Wait),
    /// The faulting thread was killed (permanent I/O failure or the OOM
    /// killer chose it); the slice finishes immediately.
    Killed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppCosts, FaultConfig, PolicyChoice};
    use pagesim_engine::{FaultPlan, StallPlan, SECOND};
    use pagesim_mem::EntropyClass;
    use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
    use pagesim_workloads::ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
    use pagesim_workloads::{OpBuf, SpaceSpec};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    fn cfg(policy: PolicyChoice, swap: SwapChoice, ratio: f64) -> SystemConfig {
        SystemConfig::new(policy, swap)
            .capacity_ratio(ratio)
            .cores(4)
    }

    #[test]
    fn full_capacity_run_has_no_major_faults() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let m = Kernel::build(&cfg(PolicyChoice::Clock, SwapChoice::Zram, 1.0), &w, 1).run();
        assert_eq!(m.major_faults, 0, "no pressure, no swap");
        assert!(m.minor_faults > 0, "first touches still fault");
        assert!(m.runtime_ns > 0);
        assert_eq!(m.error, None);
    }

    #[test]
    fn pressure_forces_swapping_clock() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let m = Kernel::build(&cfg(PolicyChoice::Clock, SwapChoice::Zram, 0.5), &w, 1).run();
        assert!(m.major_faults > 0);
        assert!(m.swap_outs > 0);
        assert!(m.evictions as i64 >= m.swap_outs as i64);
    }

    #[test]
    fn pressure_forces_swapping_mglru() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let m = Kernel::build(
            &cfg(PolicyChoice::MgLruDefault, SwapChoice::Zram, 0.5),
            &w,
            1,
        )
        .run();
        assert!(m.major_faults > 0);
        assert!(m.aging_runs > 0, "aging thread must run under pressure");
        assert!(m.policy.aging_passes > 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let c = cfg(PolicyChoice::MgLruDefault, SwapChoice::Zram, 0.5);
        let a = Kernel::build(&c, &w, 7).run();
        let b = Kernel::build(&c, &w, 7).run();
        assert_eq!(a.runtime_ns, b.runtime_ns);
        assert_eq!(a.major_faults, b.major_faults);
        let c2 = Kernel::build(&c, &w, 8).run();
        assert!(
            a.runtime_ns != c2.runtime_ns || a.major_faults != c2.major_faults,
            "different seeds should differ"
        );
    }

    #[test]
    fn ssd_faults_cost_more_time_than_zram() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let ssd = Kernel::build(&cfg(PolicyChoice::Clock, SwapChoice::Ssd, 0.5), &w, 3).run();
        let zram = Kernel::build(&cfg(PolicyChoice::Clock, SwapChoice::Zram, 0.5), &w, 3).run();
        assert!(
            ssd.runtime_ns > 2 * zram.runtime_ns,
            "ssd {} vs zram {}",
            ssd.runtime_ns,
            zram.runtime_ns
        );
    }

    #[test]
    fn ycsb_records_latencies() {
        let w = YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::A), 1);
        let m = Kernel::build(&cfg(PolicyChoice::Clock, SwapChoice::Zram, 0.5), &w, 2).run();
        assert!(m.read_latency.count() > 1000);
        assert!(m.write_latency.count() > 1000);
        assert!(
            m.read_latency.value_at_percentile(99.0) >= m.read_latency.value_at_percentile(50.0)
        );
    }

    #[test]
    fn frames_never_exceed_capacity() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let k = Kernel::build(
            &cfg(PolicyChoice::MgLruDefault, SwapChoice::Zram, 0.5),
            &w,
            1,
        );
        let cap = k.mem.phys.capacity();
        let m = k.run();
        assert!(m.footprint_pages as usize > cap, "pressure sanity");
    }

    #[test]
    fn clean_drops_happen_for_reread_pages() {
        // TPC-H re-reads table pages across stages; after the first
        // swap-out cycle, re-faulted clean pages should drop for free.
        let w = TpchWorkload::new(TpchConfig::tiny());
        let m = Kernel::build(&cfg(PolicyChoice::Clock, SwapChoice::Zram, 0.5), &w, 1).run();
        assert!(m.clean_drops > 0, "swap-cache fast path never used");
    }

    /// One thread on eight pages: a two-and-a-half-quantum `Compute` in
    /// its first batch; then two first touches (the second too long for
    /// what is left of its slice), a resident store and a one-party
    /// barrier in its second.
    struct SliceProgram {
        refills: Arc<AtomicU32>,
    }

    struct SliceProgramStream {
        batch: u32,
        buf: OpBuf,
        refills: Arc<AtomicU32>,
    }

    impl AccessStream for SliceProgramStream {
        fn refill(&mut self) -> bool {
            self.refills.fetch_add(1, Ordering::Relaxed);
            let touch = |vpn, write, cpu_ns| Op::Access {
                space: AsId(0),
                vpn,
                write,
                cpu_ns,
            };
            self.batch += 1;
            match self.batch {
                1 => self.buf.push(Op::Compute {
                    cpu_ns: 2 * MILLISECOND + MILLISECOND / 2,
                }),
                2 => {
                    self.buf.push(touch(0, false, 100));
                    self.buf.push(touch(1, false, 600 * MICROSECOND as u32));
                    self.buf.push(touch(0, true, 100));
                    self.buf.push(Op::Barrier { id: 0 });
                }
                _ => return false,
            }
            true
        }

        fn buf(&mut self) -> &mut OpBuf {
            &mut self.buf
        }
    }

    impl Workload for SliceProgram {
        fn name(&self) -> String {
            "slice-program".to_owned()
        }

        fn spaces(&self) -> Vec<SpaceSpec> {
            vec![SpaceSpec {
                pages: 8,
                annotations: Vec::new(),
            }]
        }

        fn barriers(&self) -> Vec<usize> {
            vec![1]
        }

        fn streams(&self, _seed: u64) -> Vec<Box<dyn AccessStream>> {
            vec![Box::new(SliceProgramStream {
                batch: 0,
                buf: Default::default(),
                refills: Arc::clone(&self.refills),
            })]
        }
    }

    #[test]
    fn slice_loop_splits_compute_retries_preempted_access_and_stops_at_done() {
        let w = SliceProgram {
            refills: Default::default(),
        };
        let c = cfg(PolicyChoice::Clock, SwapChoice::Zram, 1.0);
        assert_eq!(c.quantum, MILLISECOND);
        let m = Kernel::build(&c, &w, 1).run();
        let costs = AppCosts::default();
        // Slices 1-2: a quantum of the compute each. Slice 3: its last half
        // quantum and the first touch; the second touch does not fit and
        // the slice is charged in full. Slice 4: the second touch, the
        // store (a hit on the page the first touch mapped), the barrier.
        let last =
            600 * MICROSECOND + costs.minor_fault_ns + 100 + costs.mem_access_ns + costs.barrier_ns;
        assert_eq!(m.app_cpu_ns, 3 * MILLISECOND + last);
        assert_eq!(m.runtime_ns, 3 * MILLISECOND + last);
        assert_eq!(m.minor_faults, 2);
        // Only resident touches count as accesses; first touches are faults.
        assert_eq!(m.accesses, 1);
        assert_eq!(m.error, None);
        // Two batches, then one refill that reports the stream done: the
        // finished thread is never asked again.
        assert_eq!(w.refills.load(Ordering::Relaxed), 3);
    }

    /// Threads on eight pages, each running its own list of ops. A thread
    /// logs its id when it asks for the batch after its list, i.e. the
    /// first time it runs once its last op has resolved.
    struct Script {
        threads: Vec<Vec<Op>>,
        barriers: Vec<usize>,
        resumed: Arc<Mutex<Vec<u32>>>,
    }

    impl Script {
        fn new(threads: Vec<Vec<Op>>, barriers: Vec<usize>) -> Script {
            Script {
                threads,
                barriers,
                resumed: Default::default(),
            }
        }

        fn resumed(&self) -> Vec<u32> {
            self.resumed.lock().expect("log lock").clone()
        }
    }

    struct ScriptStream {
        id: u32,
        ops: Vec<Op>,
        refills: u32,
        buf: OpBuf,
        resumed: Arc<Mutex<Vec<u32>>>,
    }

    impl AccessStream for ScriptStream {
        fn refill(&mut self) -> bool {
            self.refills += 1;
            if self.refills > 1 {
                self.resumed.lock().expect("log lock").push(self.id);
                return false;
            }
            self.buf.extend(self.ops.iter().copied());
            true
        }

        fn buf(&mut self) -> &mut OpBuf {
            &mut self.buf
        }
    }

    impl Workload for Script {
        fn name(&self) -> String {
            "script".to_owned()
        }

        fn spaces(&self) -> Vec<SpaceSpec> {
            vec![SpaceSpec {
                pages: 8,
                annotations: Vec::new(),
            }]
        }

        fn barriers(&self) -> Vec<usize> {
            self.barriers.clone()
        }

        fn streams(&self, _seed: u64) -> Vec<Box<dyn AccessStream>> {
            (0..)
                .zip(&self.threads)
                .map(|(id, ops)| {
                    Box::new(ScriptStream {
                        id,
                        ops: ops.clone(),
                        refills: 0,
                        buf: Default::default(),
                        resumed: Arc::clone(&self.resumed),
                    }) as Box<dyn AccessStream>
                })
                .collect()
        }
    }

    /// Computes for `delay`, then reads page 0.
    fn read_page0_after(delay: Nanos) -> Vec<Op> {
        let read = Op::Access {
            space: AsId(0),
            vpn: 0,
            write: false,
            cpu_ns: 100,
        };
        match delay {
            0 => vec![read],
            _ => vec![Op::Compute { cpu_ns: delay }, read],
        }
    }

    /// Three threads that read page 0: thread 2 at once, then threads 1
    /// and 0 in later slices, all before the first read completes.
    fn page0_readers() -> Script {
        Script::new(
            vec![
                read_page0_after(2 * MILLISECOND + MILLISECOND / 2),
                read_page0_after(MILLISECOND + MILLISECOND / 2),
                read_page0_after(0),
            ],
            Vec::new(),
        )
    }

    /// Puts page 0 out on the SSD, its 7.5 ms write still in flight, so
    /// the first fault on it reads from the device behind that write.
    /// Returns when the write completes.
    fn swap_page0_to_ssd(k: &mut Kernel) -> SimTime {
        let slot = k.swap.allocate_slot();
        let write = k
            .swap
            .write(SimTime::ZERO, slot, EntropyClass::Text)
            .expect("ssd write");
        k.mem.space_mut(AsId(0)).set_swapped(0, slot);
        write.done_at
    }

    /// Runs `k` as [`Kernel::run_loop`] does until `stop` holds between
    /// two events.
    fn run_until(k: &mut Kernel, stop: impl Fn(&Kernel) -> bool) {
        loop {
            while let Some((core, tid)) = k.sched.try_dispatch() {
                k.run_dispatched(core, tid);
            }
            if stop(k) {
                return;
            }
            let (t, ev) = k.events.pop().expect("no event left before the stop");
            k.now = t;
            k.handle_event(ev);
        }
    }

    #[test]
    fn threads_faulting_on_one_ssd_page_resume_in_arrival_order() {
        // Thread 2 faults first and issues the read; threads 1 and then 0
        // arrive in later slices while it is in flight. Arrival order is the
        // reverse of thread order, so a wake in thread order would fail.
        let w = page0_readers();
        let c = cfg(PolicyChoice::Clock, SwapChoice::Ssd, 1.0);
        let mut k = Kernel::build(&c, &w, 1);
        let write_done = swap_page0_to_ssd(&mut k);
        let m = k.run();
        assert_eq!(m.error, None);
        assert_eq!(m.major_faults, 1, "one read serves all three threads");
        assert_eq!(m.shared_fault_waits, 2);
        assert_eq!(w.resumed(), [2, 1, 0]);
        assert!(
            m.runtime_ns > write_done.as_ns(),
            "the read waited for the write"
        );
    }

    #[test]
    fn a_thread_killed_on_a_page_lock_retires_before_the_unlock() {
        let w = page0_readers();
        let c = cfg(PolicyChoice::Clock, SwapChoice::Ssd, 1.0);
        let mut k = Kernel::build(&c, &w, 1);
        swap_page0_to_ssd(&mut k);
        let (victim, holder) = (ThreadId(1), ThreadId(2));
        run_until(&mut k, |k| k.sched.is_blocked(victim));
        assert_eq!(k.waits.get(victim), Some(Wait::PageLock));
        k.kill_thread(victim);
        assert_eq!(k.waits.get(victim), None, "a killed thread waits no more");
        run_until(&mut k, |k| k.sched.is_finished(victim));
        assert_eq!(
            k.waits.get(holder),
            Some(Wait::Io),
            "the victim retired while the read it queued behind was in flight"
        );
        // The unlock walks a chain the dead thread is still on: waking it
        // would panic in the scheduler.
        k.run_loop();
        let m = k.finalize();
        assert_eq!(m.error, None);
        assert_eq!(m.major_faults, 1, "the holder completed its fault");
        assert_eq!(m.shared_fault_waits, 2);
        assert_eq!(w.resumed(), [2, 0], "every thread but the dead one resumed");
    }

    #[test]
    fn a_thread_killed_at_a_barrier_retires_and_the_rounds_go_on() {
        // Threads 0 and 1 reach the three-party barrier at once; thread 2
        // computes first. Thread 0 dies while it waits: from then on a
        // round needs two parties, so thread 2's arrival releases thread 1
        // and the second round completes without thread 0.
        let barrier = Op::Barrier { id: 0 };
        let w = Script::new(
            vec![
                vec![barrier, barrier],
                vec![barrier, barrier],
                vec![
                    Op::Compute {
                        cpu_ns: 3 * MILLISECOND,
                    },
                    barrier,
                    barrier,
                ],
            ],
            vec![3],
        );
        let c = cfg(PolicyChoice::Clock, SwapChoice::Zram, 1.0);
        let mut k = Kernel::build(&c, &w, 1);
        let victim = ThreadId(0);
        run_until(&mut k, |k| k.sched.is_blocked(victim));
        assert_eq!(k.waits.get(victim), Some(Wait::Barrier));
        k.kill_thread(victim);
        assert_eq!(
            k.waits.get(ThreadId(1)),
            Some(Wait::Barrier),
            "no round completed"
        );
        run_until(&mut k, |k| k.sched.is_finished(victim));
        assert_eq!(k.waits.get(ThreadId(1)), Some(Wait::Barrier));
        k.run_loop();
        let m = k.finalize();
        assert_eq!(m.error, None);
        assert_eq!(w.resumed(), [1, 2], "every thread but the dead one resumed");
    }

    #[cfg(feature = "sanitize")]
    #[test]
    #[should_panic(
        expected = "sanitize: wait: thread 1 waits on Some(Frame) but is queued for Some(PageLock)"
    )]
    fn sanitizer_catches_a_page_lock_waiter_with_another_wait() {
        let w = page0_readers();
        let c = cfg(PolicyChoice::Clock, SwapChoice::Ssd, 1.0);
        let mut k = Kernel::build(&c, &w, 1);
        swap_page0_to_ssd(&mut k);
        run_until(&mut k, |k| k.sched.is_blocked(ThreadId(1)));
        k.check_invariants_full();
        k.waits.0[1] = Some(Wait::Frame);
        k.check_invariants_full();
    }

    // ------------------------------------------------------------
    // Fault model
    // ------------------------------------------------------------

    #[test]
    fn default_fault_config_matches_faultless_run() {
        // The explicit none() config must be bit-identical to the default.
        let w = TpchWorkload::new(TpchConfig::tiny());
        let base = cfg(PolicyChoice::MgLruDefault, SwapChoice::Zram, 0.5);
        let with_none = base.clone().faults(FaultConfig::none());
        let a = Kernel::build(&base, &w, 11).run();
        let b = Kernel::build(&with_none, &w, 11).run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "zero-drift violated");
        assert_eq!(a.io_errors, 0);
        assert_eq!(a.io_retries, 0);
        assert_eq!(a.oom_kills, 0);
    }

    #[test]
    fn transient_errors_are_retried_and_survive() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let faults = FaultConfig {
            plan: FaultPlan {
                error_rate: 0.05,
                ..FaultPlan::none()
            },
            ..FaultConfig::none()
        };
        let m = Kernel::build(
            &cfg(PolicyChoice::Clock, SwapChoice::Zram, 0.5).faults(faults),
            &w,
            1,
        )
        .run();
        assert!(m.io_errors > 0, "5% error rate must hit");
        assert!(m.io_retries > 0, "transient errors must be retried");
        assert!(m.backoff_ns > 0);
        assert_eq!(m.error, None, "run must complete despite errors");
        assert!(m.runtime_ns > 0);
    }

    #[test]
    fn permanent_failure_kills_faulting_tasks() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        // Fail the device mid-run (the tiny workload finishes in ~6ms of
        // simulated time): tasks that swap in after the cliff die. The OOM
        // backstop keeps frame starvation from livelocking once reclaim
        // can no longer write anything out.
        let faults = FaultConfig {
            plan: FaultPlan {
                fail_permanently_at: Some(2 * MILLISECOND),
                ..FaultPlan::none()
            },
            oom_after_stalls: Some(64),
            ..FaultConfig::none()
        };
        let m = Kernel::build(
            &cfg(PolicyChoice::Clock, SwapChoice::Zram, 0.5).faults(faults),
            &w,
            1,
        )
        .run();
        assert!(m.io_errors > 0);
        assert!(m.io_kills > 0, "permanent failure must kill tasks");
        assert!(m.kill_freed_frames > 0, "kill must release frames");
        assert_eq!(m.error, None, "run must terminate cleanly");
    }

    #[test]
    fn oom_killer_fires_when_zram_pool_is_tiny() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        // A near-empty compressed pool makes dirty evictions fail, so
        // allocations starve until the OOM killer frees a task's RSS.
        let faults = FaultConfig {
            zram_capacity_bytes: Some(64 * 1024),
            oom_after_stalls: Some(16),
            ..FaultConfig::none()
        };
        let m = Kernel::build(
            &cfg(PolicyChoice::Clock, SwapChoice::Zram, 0.5).faults(faults),
            &w,
            1,
        )
        .run();
        assert!(m.oom_kills > 0, "pool exhaustion must trigger OOM");
        assert!(m.kill_freed_frames > 0);
        assert!(m.swap_stats.pool_rejections > 0);
        assert_eq!(m.error, None, "OOM must resolve the livelock");
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let faults = FaultConfig {
            plan: FaultPlan {
                error_rate: 0.02,
                stall: Some(StallPlan {
                    first_onset: 10 * MILLISECOND,
                    period: 100 * MILLISECOND,
                    onset_jitter: 5 * MILLISECOND,
                    duration: 20 * MILLISECOND,
                    duration_jitter: 5 * MILLISECOND,
                }),
                ..FaultPlan::none()
            },
            oom_after_stalls: Some(64),
            ..FaultConfig::none()
        };
        let c = cfg(PolicyChoice::MgLruDefault, SwapChoice::Ssd, 0.5).faults(faults);
        let a = Kernel::build(&c, &w, 5).run();
        let b = Kernel::build(&c, &w, 5).run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "faulty run must replay");
    }

    #[test]
    fn pressure_steps_take_and_return_frames() {
        use pagesim_engine::PressureStep;
        let w = TpchWorkload::new(TpchConfig::tiny());
        let faults = FaultConfig {
            plan: FaultPlan {
                // Inflate at t=0: at full capacity ratio the app itself
                // would otherwise touch every frame within the first
                // millisecond, leaving nothing free to take.
                pressure: vec![PressureStep {
                    at: 0,
                    frac: 0.25,
                    duration: SECOND,
                }],
                ..FaultPlan::none()
            },
            ..FaultConfig::none()
        };
        // Full-capacity run: without pressure there would be no reclaim
        // at all, so any eviction activity is the balloon's doing.
        let m = Kernel::build(
            &cfg(PolicyChoice::Clock, SwapChoice::Zram, 1.0).faults(faults),
            &w,
            1,
        )
        .run();
        assert!(m.pressure_frames_taken > 0, "balloon never inflated");
        assert_eq!(m.error, None);
    }
}
