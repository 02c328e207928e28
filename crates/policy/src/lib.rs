//! # pagesim-policy
//!
//! The page-replacement policies characterized by the paper, implemented
//! against an abstract kernel memory interface ([`MemView`]):
//!
//! * [`ClockLru`] — the classic Linux active/inactive-list ("Clock",
//!   "LRU second chance", "2Q") policy. Every accessed-bit probe walks the
//!   reverse map — a pointer chase — which is exactly the cost MG-LRU was
//!   designed to avoid.
//! * [`MgLru`] — Multi-Generational LRU as shipped in Linux 6.x:
//!   generation lists, an aging walk that scans leaf page tables linearly
//!   and is filtered by a [`BloomFilter`] of hot PMD regions, an eviction
//!   scan that exploits page-table spatial locality, file-page tiers, and
//!   a [`PidController`] balancing tier refault rates.
//!
//! The MG-LRU variants studied in §V-B of the paper are configuration
//! points ([`ScanMode`]): `Default` (bloom filter), `ScanAll`, `ScanNone`,
//! `ScanRand`, plus the `Gen-14` generation-count override
//! ([`MgLruConfig::max_gens`]).
//!
//! Policies do no I/O and own no page tables: they select victims, request
//! promotions, and report the CPU time their scans would cost according to
//! a [`CostModel`]. The kernel layer (`pagesim` core) charges those costs
//! to the simulated threads that incurred them — this cost routing is what
//! lets the simulator reproduce the paper's scanning-overhead findings.

// H4: simulated state is integer arithmetic, identical on every host.
// Float arithmetic is limited to report-only helpers and constructors,
// each under a narrow `#[expect]` that gives its reason.
#![deny(clippy::float_arithmetic)]

pub mod bloom;
mod clock;
mod cost;
mod list;
pub mod memview;
mod mglru;
pub mod pid;

pub use bloom::BloomFilter;
pub use clock::ClockLru;
pub use cost::CostModel;
pub use list::{Links, PageList};
pub use memview::MemView;
pub use mglru::{MgLru, MgLruConfig, ScanMode};
pub use pid::PidController;

use pagesim_engine::Nanos;
use pagesim_mem::PageKey;

/// Result of a reclaim request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReclaimOutcome {
    /// Victims written to the front of the caller's buffer. The kernel
    /// unmaps them and performs swap-out; policies never touch devices.
    pub victims: usize,
    /// CPU time the selection cost (rmap walks, PTE scans, list moves),
    /// charged to the reclaiming thread.
    pub cpu_ns: Nanos,
    /// Pages examined during the scan.
    pub scanned: u64,
    /// Pages found accessed and promoted instead of evicted.
    pub promoted: u64,
}

/// Result of one unit of background maintenance work.
#[derive(Clone, Copy, Debug, Default)]
pub struct BgOutcome {
    /// CPU time consumed, charged to the background kernel thread.
    pub cpu_ns: Nanos,
    /// Whether more background work is immediately pending.
    pub more: bool,
}

/// Aggregate policy counters for reports and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// PTEs examined through linear page-table scans.
    pub pte_scans: u64,
    /// Accessed-bit probes through the reverse map (pointer chases).
    pub rmap_walks: u64,
    /// Pages promoted for recency.
    pub promotions: u64,
    /// Victims selected.
    pub evictions: u64,
    /// Aging passes completed (MG-LRU only).
    pub aging_passes: u64,
    /// Lazily promoted pages the eviction scan had to re-sort
    /// (MG-LRU only): scan budget spent without finding victims.
    pub resorted: u64,
    /// PMD regions skipped thanks to the bloom filter / scan mode.
    pub regions_skipped: u64,
    /// PMD regions actually walked.
    pub regions_walked: u64,
    /// File pages spared from eviction by tier protection.
    pub tier_protected: u64,
}

/// A page-replacement policy, driven by the simulated kernel.
///
/// Implementations must be deterministic given their configuration (any
/// internal randomness must come from a caller-provided seed).
pub trait Policy {
    /// Short name for reports ("clock", "mglru", "mglru-scan-none", ...).
    fn name(&self) -> String;

    /// A page became resident. `refault` is true when the page had been
    /// evicted before (swap-in rather than first touch).
    fn on_page_resident(&mut self, key: PageKey, refault: bool, mem: &mut dyn MemView);

    /// The kernel finished evicting `key` (it was returned as a victim).
    fn on_page_evicted(&mut self, key: PageKey, mem: &mut dyn MemView);

    /// Removes `key` from the policy's tracking outside the reclaim path
    /// (OOM kill, task exit). Unlike [`on_page_evicted`](Policy::on_page_evicted),
    /// the page may still be on a policy list; a no-op if it is not tracked.
    fn forget(&mut self, key: PageKey);

    /// A file-descriptor access to a resident file-backed page (buffered
    /// I/O does not set PTE accessed bits; MG-LRU's tiers exist for this).
    fn on_fd_access(&mut self, key: PageKey, mem: &mut dyn MemView);

    /// Selects up to `victims.len()` eviction victims and writes them to
    /// the front of `victims`, a buffer the kernel allocates once;
    /// [`ReclaimOutcome::victims`] counts them.
    fn reclaim(&mut self, victims: &mut [PageKey], mem: &mut dyn MemView) -> ReclaimOutcome;

    /// Whether the policy currently has background work (MG-LRU aging).
    fn wants_background(&self, mem: &dyn MemView) -> bool;

    /// Performs up to `budget_ns` of background work. Long aging walks
    /// make incremental progress across calls, so their accessed-bit
    /// clears interleave with application execution and eviction — the
    /// timing structure behind the paper's Scan-All straggler analysis.
    fn background_work(&mut self, budget_ns: Nanos, mem: &mut dyn MemView) -> BgOutcome;

    /// Counters.
    fn stats(&self) -> PolicyStats;

    /// Instantaneous list occupancy as `(label, pages)` pairs, oldest
    /// list first, for telemetry sampling. MG-LRU reports one entry per
    /// live generation labeled by its sequence number; Clock reports
    /// `(0, inactive)` and `(1, active)`. The default is empty (no
    /// occupancy story to tell).
    fn occupancy(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    /// Appends a `/sys/kernel/debug/lru_gen`-style introspection dump to
    /// `out`: one line per internal structure, integers only (no floats,
    /// so reports diff bit-identically across hosts). MG-LRU dumps
    /// per-generation sequence numbers, ages, and sizes plus per-tier
    /// refault windows; Clock dumps its hand position and sweep stats.
    /// Reporting surface only — never called on the simulation's hot
    /// path, and implementations must not mutate policy state. The
    /// default writes nothing (no internals to show).
    fn introspect(&self, out: &mut String) {
        let _ = out;
    }

    /// DEBUG_VM-style structural self-check (the `sanitize` feature).
    /// Returns the number of pages the policy currently tracks so the
    /// kernel can cross-check it against resident PTEs, or `None` when the
    /// policy performs no check.
    ///
    /// # Panics
    ///
    /// Implementations panic with a `sanitize: <invariant>:` message on
    /// any inconsistency.
    #[cfg(feature = "sanitize")]
    fn check_invariants(&self) -> Option<u64> {
        None
    }
}
