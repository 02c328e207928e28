//! Kernel golden: FNV-64 digests of whole-trial metrics, pinned.
//!
//! `generator_golden.rs` pins the ops the workloads emit; this pins what
//! the kernel makes of them. Each case runs trial 0 of one smoke-scale
//! cell and folds `RunMetrics::to_cache_text()` — every counter, every
//! histogram bucket, the `lru_gen` dump and the error field — into one
//! FNV-1a digest. A change to the slice loop, the fault path, reclaim,
//! aging or the swap model that moves any simulated result fails here,
//! in seconds, instead of only in the default-scale `repro all` diff
//! against `figures_default.txt`.
//!
//! The healthy cells cover TPC-H, PageRank and YCSB-A/B/C under Clock
//! and default MG-LRU on SSD and ZRAM at a 50% capacity ratio. The fault
//! cell adds transient I/O errors, a pressure balloon and an armed OOM
//! killer, so starved accesses are retried and threads are killed.

use pagesim::experiments::{Bench, CellQuery, Scale, Wl};
use pagesim::{FaultConfig, PolicyChoice, RunMetrics, SwapChoice};
use pagesim_engine::{FaultPlan, PressureStep, MILLISECOND, SECOND};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn digest(m: &RunMetrics) -> u64 {
    m.to_cache_text()
        .bytes()
        .fold(FNV_OFFSET, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Runs trial 0 of each cell and compares every digest at once, so one
/// failure reports all the cells that moved.
fn check(bench: &Bench, cases: &[(CellQuery, u64)]) {
    let got: Vec<u64> = cases
        .iter()
        .map(|(q, _)| digest(&bench.run_trial(q, 0)))
        .collect();
    let moved: Vec<String> = cases
        .iter()
        .zip(&got)
        .filter(|((_, want), got)| want != *got)
        .map(|((q, want), got)| format!("{}: got {got:#018x}, want {want:#018x}", q.ident()))
        .collect();
    assert!(
        moved.is_empty(),
        "kernel output moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn healthy_cells_match_golden() {
    use PolicyChoice::{Clock, MgLruDefault};
    use SwapChoice::{Ssd, Zram};
    #[rustfmt::skip]
    let golden = [
        (Wl::Tpch, Clock, Ssd, 0x45d7_cf0d_e1b4_4021),
        (Wl::Tpch, Clock, Zram, 0xdb8c_22dd_8186_64f6),
        (Wl::Tpch, MgLruDefault, Ssd, 0xe301_1d86_84ae_845c),
        (Wl::Tpch, MgLruDefault, Zram, 0xc53c_2108_1112_5c0e),
        (Wl::PageRank, Clock, Ssd, 0xc147_298a_0417_c577),
        (Wl::PageRank, Clock, Zram, 0xdd7c_2a67_ae8a_9385),
        (Wl::PageRank, MgLruDefault, Ssd, 0xe0c7_5d3b_008f_1c6f),
        (Wl::PageRank, MgLruDefault, Zram, 0x5401_a222_a531_d029),
        (Wl::YcsbA, Clock, Ssd, 0x6d9f_094e_d237_9e72),
        (Wl::YcsbA, Clock, Zram, 0x7144_5b40_37fd_ad81),
        (Wl::YcsbA, MgLruDefault, Ssd, 0x50cf_363b_88fe_8773),
        (Wl::YcsbA, MgLruDefault, Zram, 0xe3d7_93fc_54a3_68a4),
        (Wl::YcsbB, Clock, Ssd, 0x6520_3f33_ae0d_ff7f),
        (Wl::YcsbB, Clock, Zram, 0x80c4_7af8_0a65_c980),
        (Wl::YcsbB, MgLruDefault, Ssd, 0xdbcc_2955_6e6a_148c),
        (Wl::YcsbB, MgLruDefault, Zram, 0xfd1a_6378_232c_818c),
        (Wl::YcsbC, Clock, Ssd, 0x0c9e_60f0_6259_c0af),
        (Wl::YcsbC, Clock, Zram, 0x8966_d6f6_a1bd_c6a3),
        (Wl::YcsbC, MgLruDefault, Ssd, 0x7f68_13fa_095d_1fb0),
        (Wl::YcsbC, MgLruDefault, Zram, 0xf1ef_1e46_58a4_e855),
    ];
    let cases: Vec<(CellQuery, u64)> = golden
        .iter()
        .map(|&(wl, policy, swap, want)| (CellQuery::healthy(wl, policy, swap, 0.5), want))
        .collect();
    check(&Bench::new(Scale::smoke()), &cases);
}

/// Transient swap-in errors, a balloon taking a fifth of memory early, and
/// an OOM killer that fires after a short run of starved allocations.
fn harsh_faults() -> FaultConfig {
    FaultConfig {
        plan: FaultPlan {
            error_rate: 0.05,
            fail_permanently_at: None,
            stall: None,
            pressure: vec![PressureStep {
                at: 5 * MILLISECOND,
                frac: 0.2,
                duration: SECOND,
            }],
        },
        max_io_retries: 2,
        oom_after_stalls: Some(16),
        ..FaultConfig::none()
    }
}

#[test]
fn fault_cell_matches_golden() {
    let q = CellQuery::faulted(
        Wl::Tpch,
        PolicyChoice::Clock,
        SwapChoice::Ssd,
        0.5,
        harsh_faults(),
    );
    let m = Bench::new(Scale::smoke()).run_trial(&q, 0);
    // The cell must keep exercising the paths it is here for.
    assert!(m.io_errors > 0 && m.io_retries > 0, "no I/O errors: {m:?}");
    assert!(m.alloc_stalls > 0, "no starved allocation: {m:?}");
    assert!(m.io_kills + m.oom_kills > 0, "no task killed: {m:?}");
    assert!(m.pressure_frames_taken > 0, "no balloon: {m:?}");
    let got = digest(&m);
    assert_eq!(got, 0xae09_983b_d6c1_188b, "{}: got {got:#018x}", q.ident());
}
