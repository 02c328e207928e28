//! # pagesim-kv
//!
//! A memcached-like in-memory key-value store that lives inside a
//! *simulated* address space. It is the substrate for the paper's YCSB
//! experiments: the store does not hold real values — it maintains the
//! real *placement* data structures (a chained hash table plus slab-style
//! item allocation) and answers requests with the exact sequence of page
//! touches a real memcached would make, so the paging simulator above it
//! sees realistic access patterns.
//!
//! Layout within the address space (in pages):
//!
//! ```text
//! [ hash-table bucket pages | slab pages holding items ]
//! ```
//!
//! A GET touches the key's bucket page, then each item page along the
//! collision chain until the key matches. An UPDATE does the same and
//! writes the item's page(s). [`KvStore::plan_into`] writes a request's
//! touches into a caller's buffer; it is the one definition of a request's
//! touches, which the YCSB generator tabulates once per item. Values
//! default to ~1.2 KiB, the per-item footprint implied by the paper's
//! setup (11 M items in 12–16 GB).
//!
//! ```rust
//! use pagesim_kv::{KvConfig, KvStore};
//! let store = KvStore::build(KvConfig { items: 1000, value_size: 1200, ..KvConfig::default() });
//! let mut touches = Vec::new();
//! store.plan_into(42, false, &mut touches);
//! assert!(touches.len() >= 2); // bucket page + item page(s)
//! assert!(!touches[0].write);
//! ```

use pagesim_mem::{Vpn, PAGE_SIZE};

/// Configuration of a [`KvStore`].
#[derive(Clone, Copy, Debug)]
pub struct KvConfig {
    /// Number of items loaded into the cache.
    pub items: u32,
    /// Value size in bytes (key + metadata included).
    pub value_size: u32,
    /// Average items per hash bucket (controls chain length).
    pub load_factor: f64,
    /// Hash seed.
    pub seed: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            items: 100_000,
            value_size: 1200,
            load_factor: 1.0,
            seed: 0x5EED_CAFE,
        }
    }
}

/// One page touch of a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Touch {
    /// Virtual page touched.
    pub vpn: Vpn,
    /// Whether the touch is a store.
    pub write: bool,
}

/// Base CPU cost of serving one request (protocol parse + hash).
const REQUEST_CPU_NS: u64 = 120_000;
/// Extra CPU per chain element compared (memcmp of keys).
const CHAIN_CPU_NS: u64 = 400;

/// The store: item placement plus a real chained hash table.
///
/// The chains are stored flat (CSR): bucket `b`'s chain, in item order, is
/// `chains[chain_start[b]..chain_start[b + 1]]`.
#[derive(Debug)]
pub struct KvStore {
    cfg: KvConfig,
    chain_start: Vec<u32>,
    chains: Vec<u32>,
    bucket_pages: u32,
    item_pages_each: u32,
    items_per_page: u32,
    total_pages: u32,
}

impl KvStore {
    /// Builds the store and "loads" all items (computes placement).
    ///
    /// # Panics
    ///
    /// Panics if `items == 0` or `value_size == 0`.
    pub fn build(cfg: KvConfig) -> KvStore {
        assert!(cfg.items > 0, "empty store");
        assert!(cfg.value_size > 0, "zero-size values");
        let nbuckets = ((cfg.items as f64 / cfg.load_factor).ceil() as u32).max(1);
        // 8 bytes per bucket head pointer.
        let bucket_pages = (nbuckets as u64 * 8).div_ceil(PAGE_SIZE as u64) as u32;
        let (items_per_page, item_pages_each) = if cfg.value_size as usize <= PAGE_SIZE {
            ((PAGE_SIZE as u32 / cfg.value_size).max(1), 1)
        } else {
            (1, (cfg.value_size as usize).div_ceil(PAGE_SIZE) as u32)
        };
        let slab_pages = if item_pages_each > 1 {
            cfg.items * item_pages_each
        } else {
            cfg.items.div_ceil(items_per_page)
        };

        // Counting sort of the items by bucket; filling in item order keeps
        // each chain in insertion (item) order.
        let bucket = |item: u32| (Self::hash(cfg.seed, item) % nbuckets as u64) as usize;
        let mut chain_start = vec![0u32; nbuckets as usize + 1];
        for item in 0..cfg.items {
            chain_start[bucket(item) + 1] += 1;
        }
        for b in 0..nbuckets as usize {
            chain_start[b + 1] += chain_start[b];
        }
        let mut fill = chain_start[..nbuckets as usize].to_vec();
        let mut chains = vec![0u32; cfg.items as usize];
        for item in 0..cfg.items {
            let slot = &mut fill[bucket(item)];
            chains[*slot as usize] = item;
            *slot += 1;
        }

        KvStore {
            cfg,
            chain_start,
            chains,
            bucket_pages,
            item_pages_each,
            items_per_page,
            total_pages: bucket_pages + slab_pages,
        }
    }

    fn hash(seed: u64, item: u32) -> u64 {
        // fmix64 from MurmurHash3.
        let mut h = seed ^ (item as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }

    /// Total pages the store occupies (size the address space with this).
    pub fn total_pages(&self) -> u32 {
        self.total_pages
    }

    /// Pages used by the hash-table buckets.
    pub fn bucket_pages(&self) -> u32 {
        self.bucket_pages
    }

    /// Number of items.
    pub fn items(&self) -> u32 {
        self.cfg.items
    }

    fn buckets(&self) -> usize {
        self.chain_start.len() - 1
    }

    fn bucket_of(&self, item: u32) -> u32 {
        (Self::hash(self.cfg.seed, item) % self.buckets() as u64) as u32
    }

    /// Items hashed to `bucket`, in chain order.
    fn chain(&self, bucket: u32) -> &[u32] {
        let b = bucket as usize;
        &self.chains[self.chain_start[b] as usize..self.chain_start[b + 1] as usize]
    }

    fn bucket_page(&self, bucket: u32) -> Vpn {
        (bucket as u64 * 8 / PAGE_SIZE as u64) as Vpn
    }

    /// First page of an item's value.
    fn item_page(&self, item: u32) -> Vpn {
        debug_assert!(item < self.cfg.items);
        if self.item_pages_each > 1 {
            self.bucket_pages + item * self.item_pages_each
        } else {
            self.bucket_pages + item / self.items_per_page
        }
    }

    /// Writes the ordered page touches of a GET (`write == false`) or an
    /// UPDATE (`write == true`) of `item` into `touches`, replacing its
    /// contents, and returns the request's base CPU cost in nanoseconds:
    /// hashing, key compares and protocol work, excluding the memory-access
    /// costs the simulator charges per touch.
    pub fn plan_into(&self, item: u32, write: bool, touches: &mut Vec<Touch>) -> u64 {
        debug_assert!(item < self.cfg.items, "unknown item {item}");
        let bucket = self.bucket_of(item);
        touches.clear();
        touches.push(Touch {
            vpn: self.bucket_page(bucket),
            write: false,
        });
        let mut cpu_ns = REQUEST_CPU_NS;
        // Walk the chain: every element before ours costs a page touch of
        // that item's header plus a key compare.
        for &chained in self.chain(bucket) {
            cpu_ns += CHAIN_CPU_NS;
            if chained == item {
                break;
            }
            touches.push(Touch {
                vpn: self.item_page(chained),
                write: false,
            });
        }
        // Finally the item's own page(s).
        for p in 0..self.item_pages_each {
            touches.push(Touch {
                vpn: self.item_page(item) + p,
                write,
            });
        }
        cpu_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `item`'s touches and base CPU: a GET, or an UPDATE if `write`.
    fn plan(s: &KvStore, item: u32, write: bool) -> (Vec<Touch>, u64) {
        let mut touches = Vec::new();
        let cpu_ns = s.plan_into(item, write, &mut touches);
        (touches, cpu_ns)
    }

    fn small() -> KvStore {
        KvStore::build(KvConfig {
            items: 10_000,
            value_size: 1200,
            load_factor: 1.0,
            seed: 42,
        })
    }

    #[test]
    fn layout_is_sized_correctly() {
        let s = small();
        // 10k buckets * 8B = 80kB -> 20 bucket pages
        assert_eq!(s.bucket_pages(), 20);
        // 3 items of 1200B per 4096B page -> ceil(10000/3) slab pages
        assert_eq!(s.total_pages(), 20 + 3334);
    }

    #[test]
    fn get_touches_bucket_then_item() {
        let s = small();
        let (touches, cpu_ns) = plan(&s, 123, false);
        assert!(touches.len() >= 2);
        assert!(touches[0].vpn < s.bucket_pages(), "bucket page first");
        let last = touches.last().unwrap();
        assert_eq!(last.vpn, s.item_page(123));
        assert!(!last.write);
        assert!(cpu_ns >= REQUEST_CPU_NS);
    }

    #[test]
    fn update_writes_item_page_only() {
        let s = small();
        let (touches, _) = plan(&s, 7, true);
        let writes: Vec<_> = touches.iter().filter(|t| t.write).collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].vpn, s.item_page(7));
        assert!(!touches[0].write, "bucket page is never written");
    }

    #[test]
    fn chains_are_short_at_unit_load() {
        let s = small();
        assert_eq!(s.buckets(), s.items() as usize, "one bucket per item");
        let max = (0..s.buckets() as u32).map(|b| s.chain(b).len()).max();
        assert!(max.is_some_and(|m| m < 12), "max chain {max:?}");
    }

    #[test]
    fn chain_position_affects_plan_length() {
        let s = small();
        // Find a bucket with >= 2 items; the second item's plan must touch
        // the first item's page on the way.
        let (bucket, chain) = (0..s.buckets() as u32)
            .map(|b| (b, s.chain(b)))
            .find(|(_, c)| c.len() >= 2)
            .expect("10k items must collide somewhere");
        let first = chain[0];
        let second = chain[1];
        let (t1, cpu1) = plan(&s, first, false);
        let (t2, cpu2) = plan(&s, second, false);
        assert_eq!(t1.len(), 2);
        assert_eq!(t2.len(), 3);
        assert_eq!(t2[1].vpn, s.item_page(first));
        assert_eq!(s.bucket_of(second), bucket);
        assert!(cpu2 > cpu1);
    }

    #[test]
    fn plan_into_matches_a_naive_chain_walk() {
        let s = small();
        // Reference chains: every item in item order, pushed to its bucket.
        let mut naive = vec![Vec::new(); s.buckets()];
        for item in 0..s.items() {
            naive[s.bucket_of(item) as usize].push(item);
        }
        let mut touches = Vec::new();
        for item in 0..s.items() {
            for write in [false, true] {
                let bucket = s.bucket_of(item);
                let mut want = vec![Touch {
                    vpn: s.bucket_page(bucket),
                    write: false,
                }];
                let mut want_cpu = REQUEST_CPU_NS;
                for &chained in &naive[bucket as usize] {
                    want_cpu += CHAIN_CPU_NS;
                    if chained == item {
                        break;
                    }
                    want.push(Touch {
                        vpn: s.item_page(chained),
                        write: false,
                    });
                }
                want.push(Touch {
                    vpn: s.item_page(item),
                    write,
                });
                assert_eq!(s.plan_into(item, write, &mut touches), want_cpu);
                assert_eq!(touches, want, "item {item} write {write}");
            }
        }
    }

    #[test]
    fn multipage_values_touch_every_page() {
        let s = KvStore::build(KvConfig {
            items: 100,
            value_size: 10_000, // 3 pages
            load_factor: 1.0,
            seed: 1,
        });
        let (touches, _) = plan(&s, 50, false);
        let item_touches = touches
            .iter()
            .filter(|t| t.vpn >= s.item_page(50) && t.vpn < s.item_page(50) + 3)
            .count();
        assert_eq!(item_touches, 3);
        assert_eq!(s.total_pages(), s.bucket_pages() + 300);
    }

    #[test]
    fn placement_is_deterministic() {
        let a = small();
        let b = small();
        for item in (0..10_000).step_by(997) {
            assert_eq!(plan(&a, item, false), plan(&b, item, false));
        }
    }

    #[test]
    fn all_items_fit_inside_declared_pages() {
        let s = small();
        for item in 0..s.items() {
            for t in &plan(&s, item, false).0 {
                assert!(t.vpn < s.total_pages(), "touch outside space");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty store")]
    fn zero_items_rejected() {
        KvStore::build(KvConfig {
            items: 0,
            ..KvConfig::default()
        });
    }
}
