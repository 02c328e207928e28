//! Clock vs MG-LRU on PageRank: reproduce the paper's headline variance
//! observation (Fig. 2b) — Clock's runtime distribution is tight while
//! MG-LRU's is wide, even when MG-LRU's mean is at least as good.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

use pagesim::{Experiment, PolicyChoice, SwapChoice, SystemConfig};
use pagesim_stats::linear_regression;
use pagesim_workloads::pagerank::{PageRankConfig, PageRankWorkload};

fn main() {
    let trials = 10;
    let workload = PageRankWorkload::new(PageRankConfig::default().scaled(0.5), 42);

    for policy in [PolicyChoice::Clock, PolicyChoice::MgLruDefault] {
        let config = SystemConfig::new(policy, SwapChoice::Ssd).capacity_ratio(0.5);
        let set = Experiment::new(config).run_trials(&workload, 7, trials);
        let rt = set.runtime_summary();
        let faults = set.fault_summary();
        let reg = linear_regression(&set.faults(), &set.runtimes());
        println!("policy: {}", policy.label());
        println!(
            "  runtime: mean {:.2}s  std {:.3}s  [{:.2}, {:.2}]",
            rt.mean, rt.std, rt.min, rt.max
        );
        println!("  faults:  mean {:.0}  std {:.0}", faults.mean, faults.std);
        println!("  faults↔runtime r²: {:.3}", reg.r_squared);
        println!("  per-trial runtimes:");
        for (i, r) in set.runtimes().iter().enumerate() {
            println!("    trial {i:2}: {r:7.2}s  {:8.0} faults", set.faults()[i]);
        }
        println!();
    }
    println!(
        "Expectation (paper Fig. 2b): Clock's spread is tight; MG-LRU's is\n\
         several times wider because aging-walk timing interacts with the\n\
         iteration phase — the same mechanism this simulator models."
    );
}
