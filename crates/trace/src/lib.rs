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
//!   entirely by simulated time (never a wall clock: clippy.toml's rule L2
//!   bans `Instant::now` and `SystemTime` here as everywhere). The kernel
//!   drains due sample boundaries before processing each event, so the
//!   trace is a pure function of the trial: byte-identical across hosts
//!   and `--jobs` settings.
//! - Exporters — [`TraceData::to_jsonl`] for line-oriented analysis and
//!   [`TraceData::to_chrome_trace`] for the Chrome `trace_event` format
//!   (loadable in Perfetto / `chrome://tracing`, with per-core scheduling
//!   tracks, VM counter tracks, and async major-fault spans).
//! - A validator — [`Schema`] / [`validate_jsonl`] and the
//!   `trace-validate` binary check exported JSONL against the checked-in
//!   schema (`schema/trace-jsonl.schema`) so CI can gate on it.
//! - [`json`] — the workspace's one JSON reader and string escaper, shared
//!   by the validator, the bench history, the run journal and the lint's
//!   SARIF export.
//!
//! The kernel embeds the tracer behind a `trace` cargo feature in
//! `pagesim` with a runtime on/off guard on top: release figure runs with
//! the feature compiled in but tracing disabled take one branch per hook
//! and stay byte-identical to untraced builds.

mod event;
mod export;
pub mod json;
mod schema;
mod tracer;

pub use event::{EventRing, ThreadKind, TraceEvent};
pub use schema::{validate_jsonl, RecordSpec, Schema, BUILTIN_SCHEMA};
pub use tracer::{CoreOcc, Sample, TraceConfig, TraceData, TraceMeta, Tracer};
