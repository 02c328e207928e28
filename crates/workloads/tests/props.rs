//! Property tests for the workload generators.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};

use pagesim_engine::rng::derive_seed;
use pagesim_mem::AsId;
use pagesim_workloads::graph::PowerLawGraph;
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use pagesim_workloads::ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
use pagesim_workloads::zipf::{ScrambledZipfian, Zipfian, ZipfianDist, ZipfianTable, YCSB_THETA};
use pagesim_workloads::{Op, ReqClass, Workload};

/// Every YCSB stream's ops as a per-request oracle builds them from the
/// pieces a stream is made of: the stream's two seeded generators, one
/// zipfian rank and one update coin per request, and the rank's plan.
/// The first `warmup` requests of each stream are warmup.
fn ycsb_oracle(w: &YcsbWorkload, cfg: &YcsbConfig, seed: u64, warmup: u64) -> Vec<Vec<Op>> {
    let ranks = ZipfianTable::new(&ZipfianDist::new(cfg.items as u64, YCSB_THETA));
    let per_thread = cfg.requests / cfg.threads as u64;
    (0..cfg.threads)
        .map(|t| {
            let s = derive_seed(seed, &format!("ycsb-{t}"));
            let mut draws = SmallRng::seed_from_u64(s);
            let mut coins = SmallRng::seed_from_u64(s ^ 0xFACE);
            let mut ops = Vec::new();
            for served in 0..per_thread {
                let plan = w.requests().plan(ranks.rank(draws.next_u64() >> 11));
                let write = coins.random_bool(cfg.mix.update_fraction());
                let class = if write {
                    ReqClass::Write
                } else {
                    ReqClass::Read
                };
                ops.push(Op::RequestStart {
                    class,
                    warmup: served < warmup,
                });
                ops.extend(plan.touches(write).map(|t| Op::Access {
                    space: AsId(0),
                    vpn: t.vpn,
                    write: t.write,
                    cpu_ns: plan.cpu_per_touch,
                }));
                ops.push(Op::RequestEnd);
            }
            ops.push(Op::Done);
            ops
        })
        .collect()
}

proptest! {
    /// Zipfian draws stay in range and heavily favour low ranks for any
    /// domain size and seed.
    #[test]
    fn zipf_in_range_and_skewed(n in 10u64..50_000, seed in any::<u64>()) {
        let mut z = Zipfian::new(n, 0.99, seed);
        let mut low = 0u32;
        for _ in 0..2_000 {
            let r = z.next_rank();
            prop_assert!(r < n);
            if r < n / 10 {
                low += 1;
            }
        }
        // The bottom 10% of ranks must take far more than 10% of draws.
        prop_assert!(low > 600, "only {low}/2000 draws in the hot decile");
    }

    /// Scrambled zipfian stays in range for any seed.
    #[test]
    fn scrambled_zipf_in_range(n in 1u64..100_000, seed in any::<u64>()) {
        let mut s = ScrambledZipfian::new(n, seed);
        for _ in 0..200 {
            prop_assert!(s.next_item() < n);
        }
    }

    /// Graph construction invariants hold across the parameter space.
    #[test]
    fn graph_structure_is_sound(
        vertices in 2u32..5_000,
        edges in 10u64..100_000,
        skew in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let g = PowerLawGraph::new(vertices, edges, skew, seed);
        prop_assert!(g.edges() >= vertices as u64, "every vertex has >= 1 edge");
        // offsets are a prefix sum of degrees
        let mut acc = 0u64;
        for v in 0..vertices {
            prop_assert_eq!(g.edge_offset(v), acc);
            acc += g.degree(v) as u64;
        }
        prop_assert_eq!(acc, g.edges());
        // sampled neighbors are valid vertices
        for v in (0..vertices).step_by((vertices as usize / 17).max(1)) {
            for i in (0..g.degree(v)).step_by(7).take(8) {
                prop_assert!(g.neighbor(v, i) < vertices);
            }
        }
    }

    /// TPC-H streams terminate and never touch outside the declared
    /// footprint, for any seed.
    #[test]
    fn tpch_streams_bounded(seed in any::<u64>()) {
        let w = TpchWorkload::new(TpchConfig::tiny());
        let total = w.footprint_pages();
        for mut s in w.streams(seed) {
            let mut n = 0u64;
            loop {
                match s.next_op() {
                    Op::Done => break,
                    Op::Access { vpn, .. } | Op::FdAccess { vpn, .. } => {
                        prop_assert!(vpn < total, "vpn {vpn} out of bounds");
                    }
                    _ => {}
                }
                n += 1;
                prop_assert!(n < 3_000_000, "stream does not terminate");
            }
        }
    }

    /// YCSB request volume is exact for any seed and mix.
    #[test]
    fn ycsb_request_counts_exact(seed in any::<u64>(), mix in 0u8..3) {
        let mix = [YcsbMix::A, YcsbMix::B, YcsbMix::C][mix as usize];
        let cfg = YcsbConfig::tiny(mix);
        let w = YcsbWorkload::new(cfg, 9);
        let mut total = 0u64;
        for mut s in w.streams(seed) {
            loop {
                match s.next_op() {
                    Op::Done => break,
                    Op::RequestStart { .. } => total += 1,
                    _ => {}
                }
            }
        }
        prop_assert_eq!(total, cfg.requests / cfg.threads as u64 * cfg.threads as u64);
    }

    /// Every YCSB stream, drained batch by batch as the kernel drains it,
    /// yields exactly the per-request oracle's ops. Per-thread request
    /// counts are never a multiple of the stream's block of 64, so the
    /// last block is short, and the warmup boundary may fall anywhere,
    /// inside a block included.
    #[test]
    fn ycsb_streams_match_the_per_request_oracle(
        seed in any::<u64>(),
        store_seed in any::<u64>(),
        mix in 0u8..3,
        threads in 1usize..=4,
        items in 500u32..3_000,
        per_thread in 1u64..=200,
        extra in 0u64..4,
        warmup in 1u64..=200,
    ) {
        let per_thread = per_thread - u64::from(per_thread.is_multiple_of(64));
        let warmup = warmup.min(per_thread);
        let cfg = YcsbConfig {
            mix: [YcsbMix::A, YcsbMix::B, YcsbMix::C][mix as usize],
            threads,
            items,
            value_size: 1_200,
            requests: per_thread * threads as u64 + extra % threads as u64,
            // ceil(fraction · per_thread) is `warmup`.
            warmup_fraction: (warmup as f64 - 0.5) / per_thread as f64,
        };
        let w = YcsbWorkload::new(cfg, store_seed);
        let want = ycsb_oracle(&w, &cfg, seed, warmup);
        let mut batch = Vec::new();
        for (t, (mut stream, want)) in w.streams(seed).into_iter().zip(want).enumerate() {
            let mut got = Vec::new();
            while got.last() != Some(&Op::Done) {
                stream.next_batch(&mut batch);
                got.extend_from_slice(&batch);
            }
            prop_assert!(got == want, "thread {t} of {cfg:?}, seed {seed}: ops differ");
        }
    }
}
