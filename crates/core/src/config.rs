//! System configuration: the experimental axes of the paper.

use pagesim_engine::faults::{FaultPlan, PressureStep, StallPlan};
use pagesim_engine::{Nanos, MICROSECOND, MILLISECOND, SECOND};
use pagesim_policy::{CostModel, MgLruConfig, ScanMode};

use crate::stablehash::StableHasher;

/// Fault-model configuration: what goes wrong and how the kernel reacts.
///
/// The default ([`FaultConfig::none`]) injects nothing and disables the
/// OOM killer, guaranteeing zero behavior drift on the reproduction path.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Deterministic device/pressure fault plan.
    pub plan: FaultPlan,
    /// ZRAM compressed-pool capacity in bytes (`None` = unbounded).
    pub zram_capacity_bytes: Option<u64>,
    /// Transient swap-in read failures are retried this many times with
    /// exponential backoff before the faulting task is killed (SIGBUS
    /// analog).
    pub max_io_retries: u32,
    /// First retry backoff; doubles per consecutive failure.
    pub retry_backoff_base: Nanos,
    /// Upper bound on a single backoff sleep.
    pub retry_backoff_cap: Nanos,
    /// OOM killer trigger: a thread that retries a starved allocation this
    /// many consecutive times invokes the OOM killer (`None` disables it —
    /// the pre-fault-model livelock behavior).
    pub oom_after_stalls: Option<u32>,
}

impl FaultConfig {
    /// No faults, no OOM killer: the fault-free reproduction path.
    pub fn none() -> FaultConfig {
        FaultConfig {
            plan: FaultPlan::none(),
            zram_capacity_bytes: None,
            max_io_retries: 8,
            retry_backoff_base: 100 * MICROSECOND,
            retry_backoff_cap: 50 * MILLISECOND,
            oom_after_stalls: None,
        }
    }

    /// A stalling, occasionally failing SSD under external memory
    /// pressure: periodic device stalls, a low transient error rate, and
    /// a balloon that grabs a third of memory early on, with the OOM
    /// killer armed. This is the `repro -- faults` scenario.
    pub fn stalling_ssd() -> FaultConfig {
        FaultConfig {
            plan: FaultPlan {
                error_rate: 0.002,
                fail_permanently_at: None,
                stall: Some(StallPlan {
                    first_onset: 500 * MILLISECOND,
                    period: 5 * SECOND,
                    onset_jitter: 100 * MILLISECOND,
                    duration: 1_500 * MILLISECOND,
                    duration_jitter: 250 * MILLISECOND,
                }),
                pressure: vec![PressureStep {
                    at: 2 * SECOND,
                    frac: 0.34,
                    duration: 20 * SECOND,
                }],
            },
            oom_after_stalls: Some(128),
            ..FaultConfig::none()
        }
    }
}

impl FaultConfig {
    /// Whether this is the fault-free reproduction configuration.
    pub fn is_none(&self) -> bool {
        *self == FaultConfig::none()
    }

    /// Hashes every field that changes simulation behavior.
    fn hash_into(&self, h: &mut StableHasher) {
        hash_plan(&self.plan, h);
        h.write_opt_u64(self.zram_capacity_bytes);
        h.write_u32(self.max_io_retries);
        h.write_u64(self.retry_backoff_base);
        h.write_u64(self.retry_backoff_cap);
        h.write_opt_u64(self.oom_after_stalls.map(u64::from));
    }
}

fn hash_plan(plan: &FaultPlan, h: &mut StableHasher) {
    h.write_f64(plan.error_rate);
    h.write_opt_u64(plan.fail_permanently_at);
    match &plan.stall {
        None => h.write_bool(false),
        Some(s) => {
            h.write_bool(true);
            h.write_u64(s.first_onset);
            h.write_u64(s.period);
            h.write_u64(s.onset_jitter);
            h.write_u64(s.duration);
            h.write_u64(s.duration_jitter);
        }
    }
    h.write_usize(plan.pressure.len());
    for p in &plan.pressure {
        h.write_u64(p.at);
        h.write_f64(p.frac);
        h.write_u64(p.duration);
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Which replacement policy manages memory — the paper's five contenders.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PolicyChoice {
    /// Classic Clock (active/inactive lists).
    Clock,
    /// MG-LRU with kernel-default parameters.
    MgLruDefault,
    /// MG-LRU with 2^14 generations (*Gen-14*).
    MgLruGen14,
    /// MG-LRU scanning the whole page table each aging pass (*Scan-All*).
    MgLruScanAll,
    /// MG-LRU with the aging walk disabled (*Scan-None*).
    MgLruScanNone,
    /// MG-LRU scanning each region with p = 0.5 (*Scan-Rand*).
    MgLruScanRand,
    /// MG-LRU with an explicit configuration (ablations).
    MgLruCustom(MgLruConfig),
}

impl PolicyChoice {
    /// The five configurations the paper sweeps, in its plotting order.
    pub fn paper_set() -> [PolicyChoice; 6] {
        [
            PolicyChoice::Clock,
            PolicyChoice::MgLruDefault,
            PolicyChoice::MgLruGen14,
            PolicyChoice::MgLruScanAll,
            PolicyChoice::MgLruScanNone,
            PolicyChoice::MgLruScanRand,
        ]
    }

    /// MG-LRU variants only (Fig. 4/5 sweep alternate configurations).
    pub fn mglru_variants() -> [PolicyChoice; 5] {
        [
            PolicyChoice::MgLruDefault,
            PolicyChoice::MgLruGen14,
            PolicyChoice::MgLruScanAll,
            PolicyChoice::MgLruScanNone,
            PolicyChoice::MgLruScanRand,
        ]
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyChoice::Clock => "clock",
            PolicyChoice::MgLruDefault => "mglru",
            PolicyChoice::MgLruGen14 => "gen-14",
            PolicyChoice::MgLruScanAll => "scan-all",
            PolicyChoice::MgLruScanNone => "scan-none",
            PolicyChoice::MgLruScanRand => "scan-rand",
            PolicyChoice::MgLruCustom(_) => "mglru-custom",
        }
    }

    /// The fully-resolved MG-LRU configuration this choice builds, or
    /// `None` for Clock. The kernel injects the per-trial seed at build
    /// time, so the `seed` field returned here is a placeholder and is
    /// excluded from [`SystemConfig::stable_hash`].
    pub fn resolved_mglru(&self) -> Option<MgLruConfig> {
        match *self {
            PolicyChoice::Clock => None,
            PolicyChoice::MgLruDefault => Some(MgLruConfig::kernel_default()),
            PolicyChoice::MgLruGen14 => Some(MgLruConfig::gen14()),
            PolicyChoice::MgLruScanAll => Some(MgLruConfig::scan_all()),
            PolicyChoice::MgLruScanNone => Some(MgLruConfig::scan_none()),
            PolicyChoice::MgLruScanRand => Some(MgLruConfig::scan_rand(0)),
            PolicyChoice::MgLruCustom(c) => Some(c),
        }
    }

    /// Hashes the resolved policy configuration. Two choices that build
    /// the same policy (e.g. `MgLruDefault` and
    /// `MgLruCustom(MgLruConfig::kernel_default())`) hash identically.
    fn hash_into(&self, h: &mut StableHasher) {
        match self.resolved_mglru() {
            None => h.write_str("clock"),
            Some(c) => {
                h.write_str("mglru");
                h.write_u32(c.max_gens);
                match c.scan_mode {
                    ScanMode::Bloom => h.write_str("bloom"),
                    ScanMode::All => h.write_str("all"),
                    ScanMode::None => h.write_str("none"),
                    ScanMode::Rand(p) => {
                        h.write_str("rand");
                        h.write_f64(p);
                    }
                }
                h.write_u32(c.bloom_shift);
                h.write_f64(c.insert_threshold_per_line);
                h.write_bool(c.spatial_scan);
                h.write_f64(c.pid_gains.0);
                h.write_f64(c.pid_gains.1);
                h.write_f64(c.pid_gains.2);
                // c.seed intentionally excluded: the kernel overwrites it
                // with the trial seed, which the cache key hashes already.
            }
        }
    }
}

/// Which swap medium backs evictions (§IV / §V-D).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SwapChoice {
    /// SSD block device, ~7.5 ms loaded 4 KiB ops (paper measurement).
    Ssd,
    /// Compressed RAM, 20 µs read / 35 µs write of CPU time.
    Zram,
}

impl SwapChoice {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SwapChoice::Ssd => "ssd",
            SwapChoice::Zram => "zram",
        }
    }
}

/// Application-side cost parameters (the workload/fault path, as opposed
/// to the policy scan costs in [`CostModel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppCosts {
    /// Charged per resident MMU touch on top of the op's own compute.
    pub mem_access_ns: Nanos,
    /// Zero-fill (first touch) fault service.
    pub minor_fault_ns: Nanos,
    /// Software portion of a major fault (trap, lookup, swap bookkeeping).
    pub major_fault_ns: Nanos,
    /// Page-cache lookup for a resident fd access.
    pub fd_hit_ns: Nanos,
    /// Barrier arrival bookkeeping.
    pub barrier_ns: Nanos,
}

impl Default for AppCosts {
    fn default() -> Self {
        AppCosts {
            mem_access_ns: 20,
            minor_fault_ns: 1_500,
            major_fault_ns: 2_500,
            fd_hit_ns: 250,
            barrier_ns: 200,
        }
    }
}

/// Full system configuration for one experiment cell.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Replacement policy.
    pub policy: PolicyChoice,
    /// Swap medium.
    pub swap: SwapChoice,
    /// Memory capacity as a fraction of the workload footprint
    /// (the paper tests 0.5, 0.75, 0.9).
    pub capacity_ratio: f64,
    /// Simulated hardware threads (the paper's i7-8700: 12).
    pub cores: usize,
    /// Scheduler time slice.
    pub quantum: Nanos,
    /// Policy scan-cost model.
    pub costs: CostModel,
    /// Application/fault-path costs.
    pub app_costs: AppCosts,
    /// Pages kswapd reclaims per batch.
    pub kswapd_batch: u32,
    /// Pages direct reclaim frees per invocation.
    pub direct_batch: u32,
    /// SSD internal parallelism (flash channels).
    pub ssd_parallelism: usize,
    /// Cap on simulated time; a run exceeding it panics (guards against
    /// misconfigured thrashing loops).
    pub max_sim_time: Nanos,
    /// Background reclaim pauses while the swap device's write backlog
    /// exceeds this (Linux's writeback throttling); keeps swap-out storms
    /// from starving demand reads indefinitely.
    pub writeback_throttle_ns: Nanos,
    /// Page-compression factor: each simulated page stands for this many
    /// real pages, scaling page-table-scan costs accordingly (see
    /// [`CostModel::with_page_compression`]). Calibrated so the
    /// scan-overhead-to-fault-cost balance matches the paper's 12–16 GB
    /// footprints at our scaled-down page counts.
    pub page_compression: u64,
    /// Fault model (injection plan + kernel failure-handling knobs).
    pub faults: FaultConfig,
}

impl SystemConfig {
    /// A configuration with paper-calibrated defaults.
    pub fn new(policy: PolicyChoice, swap: SwapChoice) -> Self {
        SystemConfig {
            policy,
            swap,
            capacity_ratio: 0.5,
            cores: 12,
            quantum: MILLISECOND,
            costs: CostModel::default(),
            app_costs: AppCosts::default(),
            kswapd_batch: 32,
            direct_batch: 8,
            ssd_parallelism: 2,
            max_sim_time: 6 * 3600 * SECOND, // 6 simulated hours
            writeback_throttle_ns: 120 * MILLISECOND,
            page_compression: 200,
            faults: FaultConfig::none(),
        }
    }

    /// The scan-cost model with page compression applied.
    pub fn scaled_costs(&self) -> CostModel {
        self.costs.with_page_compression(self.page_compression)
    }

    /// Sets the capacity-to-footprint ratio.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio <= 1`.
    pub fn capacity_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        self.capacity_ratio = ratio;
        self
    }

    /// Sets the core count.
    pub fn cores(mut self, cores: usize) -> Self {
        assert!(cores > 0);
        self.cores = cores;
        self
    }

    /// Sets the fault model.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Physical frames for a workload of `footprint` pages: the capacity
    /// ratio plus kernel slack so watermarks don't eat into the ratio.
    pub fn frames_for(&self, footprint: u32) -> usize {
        let frames = (footprint as f64 * self.capacity_ratio) as usize;
        frames.max(64)
    }

    /// A stable, process-independent hash of every field that changes
    /// simulation behavior — the configuration half of the on-disk cell
    /// cache's content address.
    ///
    /// Unlike `std::hash::Hash` (randomly keyed SipHash), this value is
    /// identical across runs and hosts, and it covers the *resolved*
    /// configuration: two configs that build the same simulation hash
    /// equal, and flipping any semantically meaningful knob — an
    /// [`MgLruConfig`] field, a cost, a fault-plan parameter — changes it.
    pub fn stable_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        self.policy.hash_into(&mut h);
        h.write_str(self.swap.label());
        h.write_f64(self.capacity_ratio);
        h.write_usize(self.cores);
        h.write_u64(self.quantum);
        let c = self.costs;
        h.write_u64(c.rmap_walk_ns);
        h.write_u64(c.pte_scan_ns);
        h.write_u64(c.region_check_ns);
        h.write_u64(c.list_op_ns);
        h.write_u64(c.evict_fixed_ns);
        let a = self.app_costs;
        h.write_u64(a.mem_access_ns);
        h.write_u64(a.minor_fault_ns);
        h.write_u64(a.major_fault_ns);
        h.write_u64(a.fd_hit_ns);
        h.write_u64(a.barrier_ns);
        h.write_u32(self.kswapd_batch);
        h.write_u32(self.direct_batch);
        h.write_usize(self.ssd_parallelism);
        h.write_u64(self.max_sim_time);
        h.write_u64(self.writeback_throttle_ns);
        h.write_u64(self.page_compression);
        self.faults.hash_into(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_follow_ratio() {
        let c = SystemConfig::new(PolicyChoice::Clock, SwapChoice::Ssd).capacity_ratio(0.5);
        assert_eq!(c.frames_for(10_000), 5_000);
        let c = c.capacity_ratio(0.9);
        assert_eq!(c.frames_for(10_000), 9_000);
    }

    #[test]
    fn tiny_footprints_get_a_floor() {
        let c = SystemConfig::new(PolicyChoice::Clock, SwapChoice::Ssd).capacity_ratio(0.1);
        assert_eq!(c.frames_for(100), 64);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn ratio_validation() {
        SystemConfig::new(PolicyChoice::Clock, SwapChoice::Ssd).capacity_ratio(0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicyChoice::MgLruScanNone.label(), "scan-none");
        assert_eq!(SwapChoice::Zram.label(), "zram");
    }

    #[test]
    fn default_fault_config_is_inert() {
        let c = SystemConfig::new(PolicyChoice::Clock, SwapChoice::Ssd);
        assert!(c.faults.plan.is_noop());
        assert_eq!(c.faults.oom_after_stalls, None);
        assert_eq!(c.faults.zram_capacity_bytes, None);
        let f = FaultConfig::stalling_ssd();
        assert!(f.plan.has_device_faults());
        assert!(f.oom_after_stalls.is_some());
    }

    #[test]
    fn paper_set_has_six_policies() {
        assert_eq!(PolicyChoice::paper_set().len(), 6);
        assert_eq!(PolicyChoice::mglru_variants().len(), 5);
    }
}
