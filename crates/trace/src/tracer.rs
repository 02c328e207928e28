//! The tracer: interval sampler state plus the event ring.
//!
//! Sampling is driven entirely by simulated time. The kernel calls
//! [`Tracer::next_boundary`] before it processes each event: any sample
//! boundaries at or before the event's timestamp are emitted first, with
//! gauges snapshotted from the pre-event simulation state. Because state
//! only changes at events, a lazily-emitted sample carries exactly the
//! state that held at its boundary (to within one scheduling quantum of
//! slice-effect skew), and the trace is a pure function of the trial —
//! independent of host, worker count, and wall-clock time.

use pagesim_engine::{Nanos, MILLISECOND};

use crate::event::{EventRing, TraceEvent};

/// Tracing knobs.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Interval between time-series samples, in simulated ns.
    pub sample_interval: Nanos,
    /// Event ring capacity; the oldest events are dropped beyond this.
    pub event_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            sample_interval: 10 * MILLISECOND,
            event_capacity: 64 * 1024,
        }
    }
}

/// What occupied one core at a sample boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoreOcc {
    /// No thread running.
    Idle,
    /// An application thread (by thread id).
    App(u32),
    /// The background reclaim kernel thread.
    Kswapd,
    /// The MG-LRU aging kernel thread.
    Aging,
}

impl CoreOcc {
    /// Stable label ("idle", "app3", "kswapd", "aging").
    pub fn label(&self) -> String {
        match self {
            CoreOcc::Idle => "idle".to_owned(),
            CoreOcc::App(tid) => format!("app{tid}"),
            CoreOcc::Kswapd => "kswapd".to_owned(),
            CoreOcc::Aging => "aging".to_owned(),
        }
    }

    /// The occupancy a [`CoreOcc::label`] names; `None` for any other
    /// string.
    pub(crate) fn from_label(label: &str) -> Option<CoreOcc> {
        match label {
            "idle" => Some(CoreOcc::Idle),
            "kswapd" => Some(CoreOcc::Kswapd),
            "aging" => Some(CoreOcc::Aging),
            _ => label.strip_prefix("app")?.parse().ok().map(CoreOcc::App),
        }
    }
}

/// One interval sample: cumulative counters plus instantaneous gauges at a
/// simulated-time boundary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sample {
    /// Boundary time in simulated ns (`k * sample_interval`).
    pub t_ns: u64,
    /// Cumulative major faults.
    pub major_faults: u64,
    /// Cumulative refaults (major faults on previously-evicted pages).
    pub refaults: u64,
    /// Cumulative evictions.
    pub evictions: u64,
    /// Cumulative direct-reclaim invocations.
    pub direct_reclaims: u64,
    /// Cumulative background reclaim batches.
    pub kswapd_batches: u64,
    /// Free frames right now.
    pub free_frames: u64,
    /// Frames pinned by in-flight write-back right now.
    pub writeback_frames: u64,
    /// Policy list occupancy, oldest first: `(label, pages)`. MG-LRU
    /// reports one entry per live generation labeled by its sequence
    /// number; Clock reports `(0, inactive)` and `(1, active)`.
    pub gens: Vec<(u64, u64)>,
    /// Per-core occupancy, indexed by core id.
    pub cores: Vec<CoreOcc>,
    /// Cumulative working-set refaults (shadow-entry hits).
    pub ws_refault: u64,
    /// Cumulative refaults within one memory-capacity of evictions.
    pub ws_activate: u64,
    /// Cumulative refaults that restored a kept clean swap-cache copy.
    pub ws_restore: u64,
    /// `Policy::introspect` dump at this boundary (`lru_gen` debugfs
    /// analog); multi-line, integers only.
    pub lru_gen: String,
}

/// Identity of the traced trial. Mirrors the sweep executor's cell cache:
/// `content_hash` is the same content-addressed key that names the trial's
/// cache file, so a trace can always be matched to the cached metrics it
/// was captured alongside.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceMeta {
    /// Human-readable cell identity plus trial (e.g. `tpch/mglru/Ssd/r0.50 trial 0`).
    pub ident: String,
    /// Content-addressed trial key (`Bench::trial_content_hash`).
    pub content_hash: u64,
    /// Trial index within the cell.
    pub trial: u32,
    /// Derived trial seed.
    pub seed: u64,
    /// Simulated cores.
    pub cores: u32,
    /// Sample interval used, in simulated ns.
    pub sample_interval_ns: u64,
    /// Policy label (e.g. "mglru-gen14").
    pub policy: String,
    /// Workload label (e.g. "tpch").
    pub workload: String,
}

/// A completed trace: metadata, the time series, and the event log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceData {
    /// Trial identity.
    pub meta: TraceMeta,
    /// Interval samples in time order.
    pub samples: Vec<Sample>,
    /// Ring contents oldest-first: `(t_ns, event)`.
    pub events: Vec<(u64, TraceEvent)>,
    /// Events the bounded ring overwrote.
    pub dropped_events: u64,
}

/// Collects samples and events during one kernel run.
///
/// The kernel holds a `Tracer` only for a traced run; untraced runs (the
/// figure path) hold none, so every hook costs one branch and allocates
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    refaults: u64,
    next_sample_ns: u64,
    samples: Vec<Sample>,
    ring: EventRing,
}

impl Tracer {
    /// An active tracer. The first sample boundary sits one interval in
    /// (state at t=0 is all zeros by construction).
    pub fn new(cfg: TraceConfig) -> Tracer {
        let interval = cfg.sample_interval.max(1);
        Tracer {
            cfg: TraceConfig {
                sample_interval: interval,
                ..cfg
            },
            refaults: 0,
            next_sample_ns: interval,
            samples: Vec::new(),
            ring: EventRing::new(cfg.event_capacity),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Counts a refault (a major fault on a page evicted earlier in this
    /// run). Kept here rather than in `RunMetrics` so tracing cannot
    /// perturb the cached-metrics codec.
    #[inline]
    pub fn note_refault(&mut self) {
        self.refaults += 1;
    }

    /// Cumulative refaults so far.
    pub fn refaults(&self) -> u64 {
        self.refaults
    }

    /// Records an event at simulated time `t_ns`.
    #[inline]
    pub fn event(&mut self, t_ns: u64, ev: TraceEvent) {
        self.ring.push(t_ns, ev);
    }

    /// The next sample boundary at or before `upto_ns`, if one is due.
    /// The kernel answers by snapshotting gauges and calling
    /// [`Tracer::push_sample`], which advances the boundary.
    pub fn next_boundary(&self, upto_ns: u64) -> Option<u64> {
        (self.next_sample_ns <= upto_ns).then_some(self.next_sample_ns)
    }

    /// Appends a sample and advances to the next boundary.
    pub fn push_sample(&mut self, sample: Sample) {
        debug_assert_eq!(sample.t_ns, self.next_sample_ns);
        self.samples.push(sample);
        self.next_sample_ns += self.cfg.sample_interval;
    }

    /// Finishes the trace, attaching the trial identity.
    pub fn into_data(self, meta: TraceMeta) -> TraceData {
        TraceData {
            meta,
            samples: self.samples,
            dropped_events: self.ring.dropped(),
            events: self.ring.into_ordered(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_at(t_ns: u64) -> Sample {
        Sample {
            t_ns,
            major_faults: 0,
            refaults: 0,
            evictions: 0,
            direct_reclaims: 0,
            kswapd_batches: 0,
            free_frames: 0,
            writeback_frames: 0,
            gens: Vec::new(),
            cores: Vec::new(),
            ws_refault: 0,
            ws_activate: 0,
            ws_restore: 0,
            lru_gen: String::new(),
        }
    }

    #[test]
    fn boundaries_advance_by_interval() {
        let mut t = Tracer::new(TraceConfig {
            sample_interval: 100,
            event_capacity: 8,
        });
        assert_eq!(t.next_boundary(99), None);
        assert_eq!(t.next_boundary(100), Some(100));
        t.push_sample(sample_at(100));
        assert_eq!(t.next_boundary(350), Some(200));
        t.push_sample(sample_at(200));
        t.push_sample(sample_at(300));
        assert_eq!(t.next_boundary(350), None);
    }

    #[test]
    fn zero_interval_clamps() {
        let t = Tracer::new(TraceConfig {
            sample_interval: 0,
            event_capacity: 1,
        });
        assert_eq!(t.next_boundary(10), Some(1));
    }
}
