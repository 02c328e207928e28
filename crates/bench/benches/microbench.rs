//! Criterion micro-benchmarks of the simulator's core data structures and
//! hot paths: the per-operation costs that determine how fast the figure
//! sweeps run, plus the policy primitives whose *modeled* costs the study
//! is about.

// Bench targets are not public API; the criterion_group! expansion has no
// place to hang a doc comment.
#![allow(missing_docs)]

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pagesim::experiments::{figure_cells, Bench, CellSpec, Scale};
use pagesim::{Experiment, PolicyChoice, SwapChoice, SystemConfig};
use pagesim_bench::sweep::{cache, journal::Journal};
use pagesim_engine::{EventQueue, SimTime};
use pagesim_mem::{AddressSpace, AsId, EntropyClass, PageArena, PTES_PER_REGION, WORDS_PER_REGION};
use pagesim_policy::memview::tests_support::FakeMem;
use pagesim_policy::{BloomFilter, ClockLru, CostModel, Links, MgLru, MgLruConfig, PageList, Policy};
use pagesim_stats::LatencyHistogram;
use pagesim_swap::{compress, page_for_class, SsdDevice, SwapDevice, SwapSlot, ZramDevice};
use pagesim_workloads::pagerank::{PageRankConfig, PageRankWorkload};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use pagesim_workloads::zipf::ScrambledZipfian;
use pagesim_workloads::{Op, Workload};

fn bench_bloom(c: &mut Criterion) {
    let mut g = c.benchmark_group("bloom");
    let mut filter = BloomFilter::new(15);
    for r in 0..512u32 {
        filter.insert(AsId(0), r);
    }
    g.bench_function("insert", |b| {
        let mut f = BloomFilter::new(15);
        let mut r = 0u32;
        b.iter(|| {
            f.insert(AsId(0), black_box(r));
            r = r.wrapping_add(1);
        });
    });
    g.bench_function("contains_hit", |b| {
        let mut r = 0u32;
        b.iter(|| {
            r = (r + 1) % 512;
            black_box(filter.contains(AsId(0), black_box(r)))
        });
    });
    g.bench_function("contains_miss", |b| {
        let mut r = 100_000u32;
        b.iter(|| {
            r += 1;
            black_box(filter.contains(AsId(0), black_box(r)))
        });
    });
    g.finish();
}

fn bench_page_list(c: &mut Criterion) {
    c.bench_function("page_list/push_pop_cycle", |b| {
        let mut nodes = vec![Links::default(); 4096];
        let mut list = PageList::new();
        for k in 0..4096u32 {
            list.push_front(&mut nodes, k);
        }
        b.iter(|| {
            let k = list.pop_back(&mut nodes).unwrap();
            list.push_front(&mut nodes, black_box(k));
        });
    });
}

fn bench_zipf(c: &mut Criterion) {
    c.bench_function("zipf/scrambled_draw", |b| {
        let mut z = ScrambledZipfian::new(1_000_000, 7);
        b.iter(|| black_box(z.next_item()));
    });
}

/// Op delivery: every stream of a default-config PageRank trial drained
/// to the end (about 7 M ops), one virtual call per op against one per
/// batch. Building the streams is untimed.
fn bench_streams(c: &mut Criterion) {
    let mut g = c.benchmark_group("streams");
    let workload = PageRankWorkload::new(PageRankConfig::default(), 0xD00D);
    g.bench_function("drain_next_op", |b| {
        b.iter_batched(
            || workload.streams(1),
            |streams| {
                let mut ops = 0u64;
                for mut s in streams {
                    while s.next_op() != Op::Done {
                        ops += 1;
                    }
                }
                ops
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function("drain_next_batch", |b| {
        let mut batch = Vec::new();
        b.iter_batched(
            || workload.streams(1),
            |streams| {
                let mut ops = 0u64;
                for mut s in streams {
                    s.next_batch(&mut batch);
                    while batch != [Op::Done] {
                        ops += batch.len() as u64;
                        s.next_batch(&mut batch);
                    }
                }
                ops
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_compress(c: &mut Criterion) {
    let mut g = c.benchmark_group("rle");
    for class in [EntropyClass::Text, EntropyClass::Random] {
        let page = page_for_class(class, 3);
        g.bench_function(format!("compress_{class:?}"), |b| {
            b.iter(|| black_box(compress(black_box(&page))))
        });
    }
    g.finish();
}

/// Slots per `swap/slot_cycle` iteration.
const CYCLE_SLOTS: u32 = 8192;

/// Writes `CYCLE_SLOTS` pages, reads each back once its write completes,
/// then releases every slot: the device side of a swap-out/swap-in cycle.
fn slot_cycle(dev: &mut dyn SwapDevice, now: &mut SimTime, slots: &mut Vec<SwapSlot>) {
    for _ in 0..CYCLE_SLOTS {
        let slot = dev.allocate_slot();
        dev.write(*now, slot, EntropyClass::Text).expect("fault-free write");
        slots.push(slot);
    }
    for &slot in slots.iter() {
        let at = (*now).max(dev.write_done(slot));
        dev.read(at, slot).expect("fault-free read");
    }
    for slot in slots.drain(..) {
        dev.release(slot);
    }
    *now = *now + dev.backlog(*now);
}

fn bench_swap(c: &mut Criterion) {
    let mut g = c.benchmark_group("swap");
    let devices: [(&str, Box<dyn SwapDevice>); 2] = [
        ("slot_cycle/ssd", Box::new(SsdDevice::with_paper_costs(CYCLE_SLOTS))),
        ("slot_cycle/zram", Box::new(ZramDevice::with_paper_costs(CYCLE_SLOTS))),
    ];
    for (name, mut dev) in devices {
        let mut now = SimTime::ZERO;
        let mut slots = Vec::with_capacity(CYCLE_SLOTS as usize);
        g.bench_function(name, |b| {
            b.iter(|| slot_cycle(dev.as_mut(), &mut now, &mut slots))
        });
    }
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("histogram");
    g.bench_function("record", |b| {
        let mut h = LatencyHistogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v >> 32));
        });
    });
    g.bench_function("p9999", |b| {
        let mut h = LatencyHistogram::new();
        let mut v = 1u64;
        for _ in 0..100_000 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(v >> 32);
        }
        b.iter(|| black_box(h.value_at_percentile(99.99)));
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop", |b| {
        let mut q = EventQueue::new();
        for i in 0..1024u64 {
            q.push(SimTime::from_ns(i * 7 % 911), i);
        }
        let mut t = 1024u64;
        b.iter(|| {
            let (at, _) = q.pop().unwrap();
            t += 1;
            q.push(at + 13, black_box(t));
        });
    });
}

/// The two policies' reclaim paths on a half-hot page pool.
fn bench_reclaim(c: &mut Criterion) {
    let pages = 8192u32;
    let mut g = c.benchmark_group("reclaim");
    g.bench_function("clock_batch32", |b| {
        b.iter_batched(
            || {
                let mut mem = FakeMem::new(pages);
                let mut p = ClockLru::new(pages, CostModel::default());
                for k in 0..pages {
                    mem.set_resident(k, true);
                    p.on_page_resident(k, false, &mut mem);
                    if k % 2 == 0 {
                        mem.set_accessed(k, true);
                    }
                }
                (p, mem)
            },
            |(mut p, mut mem)| {
                let mut victims = [0; 32];
                black_box(p.reclaim(&mut victims, &mut mem))
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function("mglru_batch32", |b| {
        b.iter_batched(
            || {
                let mut mem = FakeMem::new(pages);
                let mut p = MgLru::new(pages, MgLruConfig::kernel_default(), CostModel::default());
                for k in 0..pages {
                    mem.set_resident(k, true);
                    p.on_page_resident(k, false, &mut mem);
                    if k % 2 == 0 {
                        mem.set_accessed(k, true);
                    }
                }
                p.age_once(&mut mem);
                (p, mem)
            },
            |(mut p, mut mem)| {
                let mut victims = [0; 32];
                black_box(p.reclaim(&mut victims, &mut mem))
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function("mglru_aging_pass", |b| {
        b.iter_batched(
            || {
                let mut mem = FakeMem::new(pages);
                let mut p = MgLru::new(pages, MgLruConfig::scan_all(), CostModel::default());
                for k in 0..pages {
                    mem.set_resident(k, true);
                    p.on_page_resident(k, false, &mut mem);
                    mem.set_accessed(k, true);
                }
                (p, mem)
            },
            |(mut p, mut mem)| black_box(p.age_once(&mut mem)),
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// PMD regions in the scan benches' space: 8,192 PTEs.
const SCAN_REGIONS: u32 = 16;

/// A space whose 512-PTE regions cycle through four populations:
/// unmapped, mapped and cold, and (twice) mapped with one PTE in three
/// young. Cold regions take the scans' no-young-PTEs fast path.
fn scan_space() -> AddressSpace {
    let pages = SCAN_REGIONS * PTES_PER_REGION as u32;
    let mut space = AddressSpace::new(AsId(0), pages, &mut PageArena::new());
    for vpn in 0..pages {
        let kind = vpn / PTES_PER_REGION as u32 % 4;
        if kind > 0 {
            space.map(vpn, vpn);
        }
        if kind > 1 && vpn % 3 == 0 {
            space.mark_accessed(vpn, false);
        }
    }
    space
}

/// The word-level accessed-bit scans: MG-LRU's aging walk harvests whole
/// regions (`scan_region`), its eviction scan single 8-PTE lines
/// (`scan_line_mask`). Each iteration scans a freshly populated space
/// (untimed setup), so every iteration harvests the same bits.
fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan");
    g.bench_function("region", |b| {
        b.iter_batched(
            scan_space,
            |mut space| {
                let mut words = [0u64; WORDS_PER_REGION];
                let mut examined = 0u32;
                for region in 0..space.regions() {
                    examined += space.scan_region(region, &mut words);
                    black_box(&words);
                }
                (examined, space)
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function("line_mask", |b| {
        b.iter_batched(
            scan_space,
            |mut space| {
                let mut young = 0u32;
                for line in 0..space.lines() {
                    young += space.scan_line_mask(line).0.count_ones();
                }
                (young, space)
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// End-to-end: one tiny workload execution (the unit of every figure).
fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let workload = TpchWorkload::new(TpchConfig::tiny());
    for (name, policy) in [
        ("tpch_tiny_clock_zram", PolicyChoice::Clock),
        ("tpch_tiny_mglru_zram", PolicyChoice::MgLruDefault),
    ] {
        let config = SystemConfig::new(policy, SwapChoice::Zram)
            .capacity_ratio(0.5)
            .cores(4);
        let exp = Experiment::new(config);
        let mut seed = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                seed += 1;
                black_box(exp.run(&workload, seed))
            })
        });
    }
    g.finish();
}

/// The warm-sweep path per trial: decoding one cache entry, and
/// group-committing a batch of journal lines with one sync.
fn bench_persistence(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("pagesim-microbench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    c.benchmark_group("cache")
        .sample_size(500)
        .bench_function("load_hit", |b| {
            let bench = Bench::new(Scale::smoke());
            let query = figure_cells("fig1").into_iter().next().expect("fig1 has cells");
            let spec = CellSpec { query, trial: 0 };
            let metrics = bench.run_trial(&spec.query, 0);
            cache::store(&dir, &bench, &spec, &metrics, 0);
            b.iter(|| match cache::load(&dir, &bench, &spec) {
                cache::CacheRead::Hit(m) => m,
                _ => panic!("the stored entry must read as a hit"),
            })
        });
    c.benchmark_group("journal")
        .sample_size(100)
        .bench_function("commit_32", |b| {
            let mut journal = Journal::open(&dir.join("j.jsonl"), false).expect("journal");
            let ident = "tpch/clock/Ssd/r0.50 trial 0";
            b.iter(|| {
                for i in 0..32u64 {
                    journal.trial(i, ident, "done", None, 0, 1);
                }
                journal.commit();
            })
        });
    let _ = std::fs::remove_dir_all(&dir);
}

fn configured() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_bloom, bench_page_list, bench_zipf, bench_streams, bench_compress,
              bench_histogram, bench_event_queue, bench_scan, bench_reclaim, bench_swap,
              bench_end_to_end, bench_persistence
}
criterion_main!(benches);
