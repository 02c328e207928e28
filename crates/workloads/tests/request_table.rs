//! The YCSB request table against its definition.
//!
//! A request for zipfian rank `r` must touch exactly what
//! `KvStore::plan_into(item_of_rank(r, n), write, ..)` says: the same
//! pages in the same order, the same write flags, and the request's base
//! CPU spread evenly over its touches.

use std::sync::Arc;

use pagesim_workloads::ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
use pagesim_workloads::zipf::item_of_rank;

fn check_plans(items: u32) {
    let cfg = YcsbConfig {
        items,
        ..YcsbConfig::with_mix(YcsbMix::A)
    };
    let w = YcsbWorkload::new(cfg, 0xD00D);
    let requests = w.requests();
    let n = items as u64;
    let mut want = Vec::new();
    for rank in 0..items {
        let item = item_of_rank(rank as u64, n) as u32;
        let plan = requests.plan(rank);
        for write in [false, true] {
            let cpu_ns = w.store().plan_into(item, write, &mut want);
            let got: Vec<_> = plan.touches(write).collect();
            assert_eq!(got, want, "{items} items: rank {rank} write {write}");
            assert_eq!(
                plan.cpu_per_touch as u64,
                cpu_ns / want.len() as u64,
                "{items} items: rank {rank} cpu"
            );
        }
    }
}

#[test]
fn plans_match_the_store_at_smoke_scale() {
    check_plans(10_000);
}

#[test]
fn plans_match_the_store_at_default_scale() {
    check_plans(20_000);
}

#[test]
fn plans_match_the_store_at_paper_scale() {
    check_plans(40_000);
}

#[test]
fn mixes_share_one_table() {
    let a = YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::A), 7);
    let (b, c) = (a.with_mix(YcsbMix::B), a.with_mix(YcsbMix::C));
    // Built by whichever mix asks first, then shared.
    let table = Arc::clone(b.requests());
    assert!(Arc::ptr_eq(&table, a.requests()));
    assert!(Arc::ptr_eq(&table, c.requests()));
}
