//! Quickstart: run one workload execution under MG-LRU and inspect the
//! metrics the paper's figures are built from.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pagesim::{Experiment, PolicyChoice, SwapChoice, SystemConfig};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use pagesim_workloads::Workload;

fn main() {
    // A Spark-SQL-style TPC-H workload at a reduced footprint.
    let workload = TpchWorkload::new(TpchConfig::default().scaled(0.25));
    println!(
        "workload: {} ({} pages ≈ {} MiB footprint)",
        workload.name(),
        workload.footprint_pages(),
        workload.footprint_pages() / 256
    );

    // The paper's headline configuration: MG-LRU, SSD swap, memory
    // capacity at 50% of the footprint.
    let config = SystemConfig::new(PolicyChoice::MgLruDefault, SwapChoice::Ssd).capacity_ratio(0.5);
    let metrics = Experiment::new(config).run(&workload, /*trial seed*/ 1);

    println!("runtime:        {:.2}s simulated", metrics.runtime_secs());
    println!("major faults:   {}", metrics.major_faults);
    println!("minor faults:   {}", metrics.minor_faults);
    println!(
        "evictions:      {} ({} clean drops)",
        metrics.evictions, metrics.clean_drops
    );
    println!("swap-outs:      {}", metrics.swap_outs);
    println!("aging passes:   {}", metrics.policy.aging_passes);
    println!("PTEs scanned:   {}", metrics.policy.pte_scans);
    println!("rmap walks:     {}", metrics.policy.rmap_walks);
    println!(
        "CPU:            app {:.2}s, kernel threads {:.2}s",
        metrics.app_cpu_ns as f64 / 1e9,
        metrics.kernel_cpu_ns as f64 / 1e9
    );
}
