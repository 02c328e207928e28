//! # pagesim-swap
//!
//! Swap media for the `pagesim` paging simulator. The paper evaluates two
//! media whose *cost structure* differs in kind, not just degree:
//!
//! * **SSD** ([`SsdDevice`]) — asynchronous block I/O: a small CPU setup
//!   cost on the submitting thread, then a queued device with bounded
//!   parallelism. Loaded 4 KiB operations take ~7.5 ms, matching the
//!   paper's measurement. Under thrashing the FIFO queue backs up and
//!   demand reads wait behind evicted-page write-backs.
//! * **ZRAM** ([`ZramDevice`]) — compressed in-memory swap: the entire
//!   cost is CPU time on the faulting/reclaiming thread (20 µs reads,
//!   35 µs writes per the paper), there is no queue, and capacity usage
//!   depends on how well each page compresses.
//!
//! Each device has a fixed number of slots, set at construction, and keeps
//! its per-slot state in one dense table beside its [`SlotAllocator`] (the
//! analog of Linux's `swap_map`): the bytes a slot stores and when its
//! write completes ([`SwapDevice::write_done`]). Nothing on the swap-out or
//! swap-in path allocates or hashes.
//!
//! Compression is real: [`compress`]/[`decompress`] implement a byte-RLE
//! codec (the RLE family is what LZO-RLE degenerates to on the synthetic
//! page contents we generate), and per-[`EntropyClass`](pagesim_mem::EntropyClass) ratios are derived
//! by actually compressing representative pages.
//!
//! ```rust
//! use pagesim_swap::{SwapDevice, ZramDevice};
//! use pagesim_engine::SimTime;
//! use pagesim_mem::EntropyClass;
//!
//! let mut zram = ZramDevice::with_paper_costs(1024);
//! let slot = zram.allocate_slot();
//! let w = zram.write(SimTime::ZERO, slot, EntropyClass::Text).unwrap();
//! assert!(w.cpu_ns >= 35_000); // paper's 35us write, CPU-bound
//! assert!(zram.used_bytes() > 0);
//! ```

// H4: simulated state is integer arithmetic, identical on every host.
// Float arithmetic is limited to report-only helpers and constructors,
// each under a narrow `#[expect]` that gives its reason.
#![deny(clippy::float_arithmetic)]

mod compress;
mod device;
mod slots;

pub use compress::{compress, decompress, page_for_class, CompressionModel};
pub use device::{
    FailedIo, IoOutcome, SsdDevice, SwapDevice, SwapKind, SwapResult, SwapStats, ZramDevice,
};
pub use slots::{SlotAllocator, SwapSlot};
