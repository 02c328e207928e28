//! Generator golden: FNV-64 digests of every workload's fully drained
//! streams, pinned.
//!
//! The simulator's figures are a function of the exact `Op` sequences the
//! generators emit, so a generator optimization must leave every one of
//! them unchanged. Each case drains all of a workload's streams
//! round-robin, one op per live stream per round (the order the PageRank
//! streams' shared chunk counters see in a single-threaded replay), and
//! folds the stream index and every op into one FNV-1a digest. The pinned
//! digests and op counts were computed from the generators before they
//! were made table-driven and allocation-free; a mismatch means some
//! emitted `Op` changed.
//!
//! The digests drain through `AccessStream::next_op`; the kernel drains
//! through `AccessStream::next_batch`. `batch_and_op_drains_agree` checks
//! that the two hand out the same ops.

use pagesim_workloads::buffered::{BufferedIoConfig, BufferedIoWorkload};
use pagesim_workloads::pagerank::{PageRankConfig, PageRankWorkload};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use pagesim_workloads::ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
use pagesim_workloads::{Op, ReqClass, Workload};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A fixed, field-by-field encoding of one op.
fn op_words(op: Op) -> [u64; 3] {
    let access = |space: u16, vpn: u32, write: bool, cpu_ns: u32| {
        [
            (space as u64) << 32 | vpn as u64,
            (write as u64) << 32 | cpu_ns as u64,
        ]
    };
    match op {
        Op::Access {
            space,
            vpn,
            write,
            cpu_ns,
        } => {
            let [a, b] = access(space.0, vpn, write, cpu_ns);
            [1, a, b]
        }
        Op::FdAccess {
            space,
            vpn,
            write,
            cpu_ns,
        } => {
            let [a, b] = access(space.0, vpn, write, cpu_ns);
            [2, a, b]
        }
        Op::Compute { cpu_ns } => [3, cpu_ns, 0],
        Op::Barrier { id } => [4, id as u64, 0],
        Op::RequestStart { class, warmup } => {
            let class = match class {
                ReqClass::Read => 0,
                ReqClass::Write => 1,
            };
            [5, class, warmup as u64]
        }
        Op::RequestEnd => [6, 0, 0],
        Op::Done => [7, 0, 0],
    }
}

/// Drains every stream round-robin; returns (digest, ops emitted).
fn digest(w: &dyn Workload, seed: u64) -> (u64, u64) {
    let mut streams = w.streams(seed);
    let mut live: Vec<usize> = (0..streams.len()).collect();
    let (mut h, mut n) = (FNV_OFFSET, 0u64);
    while !live.is_empty() {
        live.retain(|&i| {
            let op = streams[i].next_op();
            if op == Op::Done {
                return false;
            }
            h = fnv(h, i as u64);
            for word in op_words(op) {
                h = fnv(h, word);
            }
            n += 1;
            true
        });
    }
    (h, n)
}

/// Drains each of a workload's streams alone, to the end, through
/// `next_batch`, beside a twin stream (from a second `streams` call, so
/// shared generator state is not shared between the twins) drained
/// through `next_op`, and checks that both hand out the same ops.
fn check_drains_agree(w: &dyn Workload, seed: u64) {
    let name = w.name();
    let mut batch = Vec::new();
    let twins = w.streams(seed).into_iter().zip(w.streams(seed));
    for (i, (mut by_batch, mut by_op)) in twins.enumerate() {
        let mut n = 0u64;
        loop {
            by_batch.next_batch(&mut batch);
            assert!(!batch.is_empty(), "{name} stream {i}: empty batch");
            for &op in &batch {
                assert_eq!(op, by_op.next_op(), "{name} seed {seed} stream {i} op {n}");
                n += 1;
            }
            if batch == [Op::Done] {
                break;
            }
            assert!(
                !batch.contains(&Op::Done),
                "{name} stream {i}: Done inside a batch"
            );
        }
        by_batch.next_batch(&mut batch);
        assert_eq!(batch, [Op::Done], "{name} stream {i}: Done is not sticky");
        assert_eq!(
            by_op.next_op(),
            Op::Done,
            "{name} stream {i}: Done is not sticky"
        );
    }
}

#[test]
fn batch_and_op_drains_agree() {
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(TpchWorkload::new(TpchConfig::tiny())),
        Box::new(TpchWorkload::new(TpchConfig::default())),
        Box::new(PageRankWorkload::new(PageRankConfig::tiny(), 7)),
        Box::new(PageRankWorkload::new(PageRankConfig::default(), 7)),
        Box::new(YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::A), 7)),
        Box::new(YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::B), 7)),
        Box::new(YcsbWorkload::new(YcsbConfig::tiny(YcsbMix::C), 7)),
        Box::new(YcsbWorkload::new(YcsbConfig::with_mix(YcsbMix::A), 7)),
        Box::new(YcsbWorkload::new(YcsbConfig::with_mix(YcsbMix::B), 7)),
        Box::new(YcsbWorkload::new(YcsbConfig::with_mix(YcsbMix::C), 7)),
        Box::new(BufferedIoWorkload::new(BufferedIoConfig::tiny())),
        Box::new(BufferedIoWorkload::new(BufferedIoConfig::default())),
    ];
    for w in &workloads {
        for seed in [1, 2] {
            check_drains_agree(w.as_ref(), seed);
        }
    }
}

/// Checks `(workload seed, stream seed) -> (digest, ops)` for each case.
fn check(make: impl Fn(u64) -> Box<dyn Workload>, cases: &[(u64, u64, u64, u64)]) {
    for &(wseed, sseed, want, want_ops) in cases {
        let w = make(wseed);
        let (got, ops) = digest(w.as_ref(), sseed);
        assert_eq!(
            (got, ops),
            (want, want_ops),
            "{} workload seed {wseed} stream seed {sseed}: got {got:#018x} over {ops} ops",
            w.name()
        );
    }
}

#[test]
fn tpch_streams_match_golden() {
    for (cfg, cases) in [
        (
            TpchConfig::tiny(),
            [
                (0, 1, 0xb9f9_32a0_52d1_171d, 2_133),
                (0, 2, 0x0c78_cbfa_85f9_1a97, 2_146),
            ],
        ),
        (
            TpchConfig::default(),
            [
                (0, 1, 0xebb6_bb01_adce_d9a7, 772_537),
                (0, 2, 0x46ad_da49_2626_4bde, 772_601),
            ],
        ),
    ] {
        check(|_| Box::new(TpchWorkload::new(cfg)), &cases);
    }
}

#[test]
fn pagerank_streams_match_golden() {
    for (cfg, cases) in [
        (
            PageRankConfig::tiny(),
            [
                (0xD00D, 1, 0x740e_d207_a679_54db, 16_712),
                (7, 2, 0x4197_1b08_d3d2_6d99, 16_712),
            ],
        ),
        (
            PageRankConfig::default(),
            [
                (0xD00D, 1, 0x5e8c_2146_a7db_c5f3, 7_050_498),
                (7, 2, 0x6e48_5558_5b30_e5fc, 7_050_498),
            ],
        ),
    ] {
        check(|s| Box::new(PageRankWorkload::new(cfg, s)), &cases);
    }
}

#[test]
fn ycsb_streams_match_golden() {
    for (cfg, cases) in [
        (
            YcsbConfig::tiny(YcsbMix::A),
            [
                (0xD00D, 1, 0xb5e3_f7e7_2cd4_f531, 18_766),
                (7, 2, 0x6983_a429_52f3_2e36, 18_962),
            ],
        ),
        (
            YcsbConfig::tiny(YcsbMix::B),
            [
                (0xD00D, 1, 0x2293_cb5a_d202_c0a1, 18_766),
                (7, 2, 0x4865_b611_7fbd_b38e, 18_962),
            ],
        ),
        (
            YcsbConfig::tiny(YcsbMix::C),
            [
                (0xD00D, 1, 0xa7e8_3db7_69c2_570d, 18_766),
                (7, 2, 0x215b_8dee_fddf_12ce, 18_962),
            ],
        ),
        (
            YcsbConfig::with_mix(YcsbMix::A),
            [
                (0xD00D, 1, 0x5331_80ea_8d42_087b, 1_761_649),
                (7, 2, 0x862f_18f0_f6e7_c7df, 1_792_351),
            ],
        ),
        (
            YcsbConfig::with_mix(YcsbMix::B),
            [
                (0xD00D, 1, 0x2b27_1d7d_5244_79af, 1_761_649),
                (7, 2, 0xa137_0f9e_8f2c_7bb3, 1_792_351),
            ],
        ),
        (
            YcsbConfig::with_mix(YcsbMix::C),
            [
                (0xD00D, 1, 0x8ec3_5bba_d016_7053, 1_761_649),
                (7, 2, 0xcd76_e8bf_aebb_6627, 1_792_351),
            ],
        ),
    ] {
        check(|s| Box::new(YcsbWorkload::new(cfg, s)), &cases);
    }
}

#[test]
fn buffered_io_streams_match_golden() {
    for (cfg, cases) in [
        (
            BufferedIoConfig::tiny(),
            [
                (0, 1, 0xeb54_b007_0cbd_0f2b, 900),
                (0, 2, 0xc60a_8c14_fa16_e809, 900),
            ],
        ),
        (
            BufferedIoConfig::default(),
            [
                (0, 1, 0xedcb_13ee_9dd2_c874, 24_000),
                (0, 2, 0x4824_8bd7_ae66_0c62, 24_000),
            ],
        ),
    ] {
        check(|_| Box::new(BufferedIoWorkload::new(cfg)), &cases);
    }
}
