//! Structured trace events and the bounded ring buffer that stores them.
//!
//! Every event is timestamped in simulated nanoseconds by the kernel at
//! the point it is recorded; the ring never consults any clock of its own
//! (rule L2: clippy.toml bans `Instant::now` and `SystemTime`). When the
//! ring is full the oldest event is overwritten and a dropped-event
//! counter advances, so a trace of a pathological run stays bounded and
//! the exporter can report the loss.

/// What kind of simulated thread occupied a core or ran a slice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadKind {
    /// An application thread.
    App,
    /// The background reclaim (kswapd-analog) kernel thread.
    Kswapd,
    /// The MG-LRU aging kernel thread.
    Aging,
}

impl ThreadKind {
    /// Stable machine-readable name ("app", "kswapd", "aging").
    pub fn name(self) -> &'static str {
        match self {
            ThreadKind::App => "app",
            ThreadKind::Kswapd => "kswapd",
            ThreadKind::Aging => "aging",
        }
    }
}

/// One structured kernel event. Timestamps live alongside the event in the
/// ring ([`EventRing::push`]), in simulated nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A major fault issued blocking device I/O. Inline completions (ZRAM
    /// decompression on the faulting thread) do not open a span; they are
    /// visible in the sampled fault counters instead.
    FaultBegin {
        /// Faulting thread.
        tid: u32,
        /// Page being faulted in.
        key: u64,
    },
    /// The blocking major fault's I/O completed and the page was mapped.
    FaultEnd {
        /// Faulting thread.
        tid: u32,
        /// Page that became resident.
        key: u64,
    },
    /// One reclaim batch was applied (victims unmapped, swap-out issued).
    ReclaimBatch {
        /// `true` for direct reclaim on a faulting thread, `false` for the
        /// background reclaim thread.
        direct: bool,
        /// Victims the policy selected for this batch.
        victims: u32,
        /// Pages the policy examined to select them.
        scanned: u64,
        /// CPU charged to the reclaiming thread for selection.
        cpu_ns: u64,
    },
    /// The aging thread completed one background-work slice.
    AgingPass {
        /// CPU consumed by the slice.
        cpu_ns: u64,
    },
    /// The OOM killer chose and killed a victim task.
    OomKill {
        /// Victim thread.
        victim: u32,
    },
    /// Fault injection rejected a device operation.
    FaultInjected {
        /// `true` for a rejected swap-out (eviction aborted), `false` for
        /// a rejected swap-in (retry/backoff or task kill).
        write: bool,
    },
    /// Background reclaim paused for write-back throttling.
    Throttle {
        /// Device write backlog that tripped the throttle, in ns.
        backlog_ns: u64,
    },
    /// A scheduler slice retired on a core. `t_ns` in the ring is the
    /// slice *start*; the slice ends at `t_ns + dur_ns`.
    Slice {
        /// Core the slice ran on.
        core: u32,
        /// Thread that ran.
        tid: u32,
        /// Thread kind (drives Chrome track naming).
        kind: ThreadKind,
        /// Slice length in ns.
        dur_ns: u64,
    },
}

impl TraceEvent {
    /// Stable machine-readable kind tag, used by both exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FaultBegin { .. } => "fault_begin",
            TraceEvent::FaultEnd { .. } => "fault_end",
            TraceEvent::ReclaimBatch { .. } => "reclaim_batch",
            TraceEvent::AgingPass { .. } => "aging_pass",
            TraceEvent::OomKill { .. } => "oom_kill",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::Throttle { .. } => "throttle",
            TraceEvent::Slice { .. } => "slice",
        }
    }
}

/// Fixed-capacity ring of timestamped events; overwrites the oldest entry
/// when full and counts what it dropped.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<(u64, TraceEvent)>,
    cap: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding at most `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> EventRing {
        EventRing {
            buf: Vec::new(),
            cap: cap.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event at simulated time `t_ns`, evicting the oldest
    /// entry if the ring is full.
    pub fn push(&mut self, t_ns: u64, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push((t_ns, ev));
        } else {
            self.buf[self.head] = (t_ns, ev);
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring and returns its events oldest-first.
    pub fn into_ordered(mut self) -> Vec<(u64, TraceEvent)> {
        self.buf.rotate_left(self.head);
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(core: u32) -> TraceEvent {
        TraceEvent::Slice {
            core,
            tid: 0,
            kind: ThreadKind::App,
            dur_ns: 1,
        }
    }

    #[test]
    fn ring_keeps_order_below_capacity() {
        let mut r = EventRing::new(4);
        for i in 0..3 {
            r.push(i, slice(i as u32));
        }
        assert_eq!(r.dropped(), 0);
        let out = r.into_ordered();
        assert_eq!(out.iter().map(|e| e.0).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = EventRing::new(3);
        for i in 0..5 {
            r.push(i, slice(i as u32));
        }
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.len(), 3);
        let out = r.into_ordered();
        assert_eq!(out.iter().map(|e| e.0).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = EventRing::new(0);
        r.push(1, slice(0));
        r.push(2, slice(1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.into_ordered()[0].0, 2);
    }
}
