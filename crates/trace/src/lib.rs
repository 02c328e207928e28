//! Deterministic tracing and time-series telemetry for pagesim.
//!
//! This crate gives the simulator a temporal record to go with its
//! end-of-run scalars: the paper's headline results — aging-thread CPU
//! contention, refault bursts around working-set shifts, scheduling-phase
//! variance — are all stories about *when* things happen, and `RunMetrics`
//! alone cannot show them.
//!
//! Three pieces:
//!
//! - [`Tracer`] — an interval sampler plus bounded [`EventRing`], driven
//!   entirely by simulated time (never a wall clock: clippy.toml bans
//!   `Instant::now` and `SystemTime` here as everywhere). The kernel
//!   drains due sample boundaries before processing each event, so the
//!   trace is a pure function of the trial: byte-identical across hosts
//!   and `--jobs` settings.
//! - The codec and exporter — [`TraceData::to_jsonl`] writes JSON Lines
//!   for line-oriented analysis and [`TraceData::from_jsonl`] reads them
//!   back exactly, or fails with a typed [`TraceDecodeError`];
//!   [`TraceData::to_chrome_trace`] writes the Chrome `trace_event`
//!   format (loadable in Perfetto / `chrome://tracing`, with per-core
//!   scheduling tracks, VM counter tracks, and async major-fault spans).
//! - [`json`] — the workspace's one JSON reader and string escaper, shared
//!   by the trace decoder, the run journal and `repro`'s failure report.
//!
//! The kernel embeds the tracer behind a `trace` cargo feature in
//! `pagesim`. A traced run hands the kernel a [`Tracer`]; an untraced run
//! holds none, so with the feature compiled in each hook costs one
//! branch and figure output stays byte-identical to an untraced build.

mod event;
mod export;
pub mod json;
mod tracer;

pub use event::{EventRing, ThreadKind, TraceEvent};
pub use export::TraceDecodeError;
pub use tracer::{CoreOcc, Sample, TraceConfig, TraceData, TraceMeta, Tracer};
