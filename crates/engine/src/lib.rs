//! # pagesim-engine
//!
//! A small, deterministic discrete-event simulation (DES) engine used as the
//! substrate for the `pagesim` memory-management simulator.
//!
//! The engine deliberately knows nothing about paging: it provides the
//! reusable building blocks a system simulator needs and leaves the domain
//! logic (MMU, fault handling, replacement policies) to higher layers.
//!
//! ## Components
//!
//! * [`SimTime`] / [`Nanos`] — virtual time in nanoseconds.
//! * [`EventQueue`] — a stable-order pending-event set. Events are
//!   delivered by time, and ties at equal timestamps in insertion order,
//!   so simulations are bit-for-bit reproducible. Slice ends, at most one
//!   per core, live in a small sorted set beside the heap and share its
//!   insertion counter, so the order is the same as one heap's.
//! * [`Scheduler`] — a preemptive round-robin CPU scheduler over a fixed
//!   number of hardware threads ("cores"), with priority for bound kernel
//!   threads. A preempted thread with nobody waiting is redispatched on
//!   its core without a run-queue round trip
//!   ([`Scheduler::redispatch`]).
//! * [`QueuedDevice`] — an analytic FIFO queue with `k` servers used to model
//!   I/O devices; computes completion times at submit time, so no internal
//!   events are needed.
//! * [`faults`] — deterministic fault injection: per-seed I/O error rolls,
//!   analytic device-stall windows, and memory-pressure step descriptions.
//! * [`BarrierSet`] — simulation barriers for modeling bulk-synchronous
//!   workloads.
//! * [`rng`] — deterministic seed-derivation helpers so every trial is a pure
//!   function of a master seed.
//!
//! ## Example
//!
//! ```rust
//! use pagesim_engine::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::from_ns(30), "c");
//! q.push(SimTime::from_ns(10), "a");
//! q.push(SimTime::from_ns(10), "b"); // same time: FIFO order preserved
//! let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
//! assert_eq!(order, vec!["a", "b", "c"]);
//! ```

// H4: simulated state is integer arithmetic, identical on every host.
// Float arithmetic is limited to report-only helpers and constructors,
// each under a narrow `#[expect]` that gives its reason.
#![deny(clippy::float_arithmetic)]

mod barrier;
mod device;
mod event;
pub mod faults;
pub mod rng;
mod sched;
mod time;

pub use barrier::{BarrierId, BarrierSet};
pub use device::QueuedDevice;
pub use event::EventQueue;
pub use faults::{
    FaultInjector, FaultPlan, FaultStats, IoError, IoResult, PressureStep, StallPlan,
};
pub use sched::{CoreId, DispatchDecision, SchedStats, Scheduler, ThreadClass, ThreadId};
pub use time::{Nanos, SimTime, MICROSECOND, MILLISECOND, SECOND};
