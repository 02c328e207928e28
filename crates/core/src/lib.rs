//! # pagesim
//!
//! A deterministic user-space reproduction of the system studied in
//! *"Characterizing Emerging Page Replacement Policies for Memory-Intensive
//! Applications"* (IISWC 2024): the Linux paging stack — Clock-LRU and
//! Multi-Generational LRU — driven by memory-intensive workloads over SSD
//! and ZRAM swap.
//!
//! The crate glues the substrates together into a simulated kernel and an
//! experiment harness:
//!
//! * [`Kernel`] — the system model: MMU touch path (accessed/dirty bits),
//!   demand faults, swap-in/out with write-back pinning, a kswapd-analog
//!   background reclaim thread, the MG-LRU aging thread, and CPU
//!   scheduling of application plus kernel threads over a fixed core
//!   count. One [`Kernel::run`] is one workload execution ("one reboot" in
//!   the paper's methodology).
//! * [`SystemConfig`] — the experimental axes of the paper: replacement
//!   policy (and MG-LRU variant), memory capacity-to-footprint ratio, and
//!   swap medium.
//! * [`RunMetrics`] — everything the figures need: runtime, fault counts,
//!   tail-latency histograms, scan/CPU accounting.
//! * [`experiments`] — one driver per figure of the paper (Fig. 1–12),
//!   producing the same normalized series the paper plots.
//!
//! ## Quick start
//!
//! ```rust
//! use pagesim::{Experiment, PolicyChoice, SwapChoice, SystemConfig};
//! use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
//!
//! let workload = TpchWorkload::new(TpchConfig::tiny());
//! let config = SystemConfig::new(PolicyChoice::MgLruDefault, SwapChoice::Zram)
//!     .capacity_ratio(0.5);
//! let metrics = Experiment::new(config).run(&workload, /*trial seed*/ 1);
//! assert!(metrics.major_faults > 0); // 50% ratio forces paging
//! ```

mod config;
pub mod experiments;
mod failure;
mod kernel;
mod mem_state;
mod metrics;
mod pagelock;
pub mod report;
pub mod stablehash;
pub mod workingset;

pub use config::{AppCosts, FaultConfig, PolicyChoice, SwapChoice, SystemConfig};
pub use failure::{CellFailure, FailureKind};
pub use kernel::{Kernel, SimError};
pub use metrics::{Experiment, RunMetrics, TrialSet, CACHE_FORMAT_VERSION};
pub use stablehash::StableHasher;
