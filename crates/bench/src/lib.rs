//! # pagesim-bench
//!
//! The reproduction harness around the simulator:
//!
//! * the `repro` binary regenerates every figure of the paper
//!   (`cargo run --release -p pagesim-bench --bin repro -- --help`);
//!   scales are defined by [`pagesim::experiments::Scale`];
//! * `benches/microbench.rs` holds criterion micro-benchmarks of the core
//!   data structures (bloom filter, page lists, zipfian, compressor,
//!   page-table scans, reclaim paths, end-to-end runs);
//! * `benches/ablations.rs` sweeps the MG-LRU design choices DESIGN.md
//!   calls out (bloom sizing/threshold, eviction lookaround, generation
//!   count, scan modes);
//! * [`sweep`] is the deterministic parallel sweep executor behind
//!   `repro`'s `--jobs`/`--cache-dir`/`--no-cache` flags: it enumerates
//!   figure cells, runs trials on a worker pool with a content-addressed
//!   on-disk cache, and installs byte-identical results regardless of
//!   worker count. Its fault-tolerance layer (per-trial panic isolation,
//!   retries, a checksummed cache with quarantine that doubles as the
//!   checkpoint of an interrupted sweep, a write-only JSONL run journal,
//!   seeded chaos injection) is behind [`sweep::run_sweep_resilient`];
//! * [`vmstat`] renders `repro vmstat`'s working-set report.
//!
//! Host performance is measured by `pagebench`, the package under
//! `pagebench/` that builds against this crate.

pub mod repro_bench;
pub mod sweep;
pub mod vmstat;

pub use pagesim::experiments::Scale;
pub use sweep::{
    run_sweep, run_sweep_resilient, ChaosPlan, SweepOptions, SweepOutcome, SweepStats,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::smoke().trials < Scale::default_scale().trials);
        assert!(Scale::default_scale().trials < Scale::paper().trials);
        assert!(Scale::smoke().footprint < Scale::paper().footprint);
        assert_eq!(Scale::paper().trials, 25, "the paper runs 25 per cell");
    }
}
