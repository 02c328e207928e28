//! Sweep the paper's MG-LRU parameter variants (Gen-14, Scan-All,
//! Scan-None, Scan-Rand) on TPC-H — Fig. 4's experiment — plus a custom
//! configuration showing how to explore beyond the paper's grid.
//!
//! ```sh
//! cargo run --release --example tuning_mglru
//! ```

use pagesim::{Experiment, PolicyChoice, SwapChoice, SystemConfig};
use pagesim_policy::{MgLruConfig, ScanMode};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};

fn main() {
    let workload = TpchWorkload::new(TpchConfig::default().scaled(0.5));
    let trials = 8;

    let mut base_mean = None;
    let custom = PolicyChoice::MgLruCustom(MgLruConfig {
        // An aggressive exploration point: probabilistic scanning with a
        // lower bloom-insert threshold and no eviction lookaround.
        scan_mode: ScanMode::Rand(0.25),
        spatial_scan: false,
        ..MgLruConfig::kernel_default()
    });

    let mut policies = PolicyChoice::mglru_variants().to_vec();
    policies.push(custom);

    println!(
        "{:<14} {:>10} {:>10} {:>12}",
        "variant", "runtime", "vs def", "faults"
    );
    for policy in policies {
        let config = SystemConfig::new(policy, SwapChoice::Ssd).capacity_ratio(0.5);
        let set = Experiment::new(config).run_trials(&workload, 11, trials);
        let rt = set.runtime_summary();
        let base = *base_mean.get_or_insert(rt.mean);
        println!(
            "{:<14} {:>9.2}s {:>9.3}x {:>12.0}",
            policy.label(),
            rt.mean,
            rt.mean / base,
            set.fault_summary().mean,
        );
    }
    println!(
        "\nThe paper's point (Fig. 4): no configuration is best everywhere —\n\
         re-run this sweep with a different workload and the ordering moves."
    );
}
