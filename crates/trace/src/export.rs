//! Deterministic exporters, JSONL and Chrome `trace_event` JSON, and
//! the JSONL decoder.
//!
//! Both formats are emitted by hand (the workspace vendors no
//! serialization crates) with fully deterministic field order and number
//! formatting, so a trace of the same trial is byte-identical across
//! hosts and `--jobs` settings. Timestamps are simulated nanoseconds; the
//! Chrome exporter renders them as microseconds with a fixed three-digit
//! fraction (`ts` is conventionally µs) to stay loadable in Perfetto and
//! `chrome://tracing` without losing ns precision. JSONL is the format
//! that reads back: [`TraceData::from_jsonl`] is the exact inverse of
//! [`TraceData::to_jsonl`].

use std::fmt::{self, Write as _};

use crate::event::{ThreadKind, TraceEvent};
use crate::json::{parse, Json, JsonError};
use crate::tracer::{CoreOcc, Sample, TraceData, TraceMeta};

/// The JSONL `format_version` and `schema_version` this module writes and
/// reads. `schema_version` names the record vocabulary (2 added the
/// `workingset` and `lru_gen` records), so a consumer detects a format
/// change instead of silently skipping unknown lines.
const JSONL_VERSION: u64 = 2;

/// `s` as a JSON string literal, quotes included.
fn quoted(s: &str) -> String {
    format!("\"{}\"", crate::json::escape(s))
}

/// Simulated ns rendered as Chrome `ts` microseconds with a fixed
/// `.%03u` ns fraction — deterministic, no float formatting involved.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

impl TraceData {
    /// Serializes to JSON Lines, one JSON object per line, each with a
    /// `type`, in this order:
    ///
    /// 1. one `meta` record: the traced trial's identity, with
    ///    `format_version` and `schema_version` (both 2);
    /// 2. per sample boundary, in time order, a `sample` record followed
    ///    by its `workingset` and `lru_gen` companions at the same `t_ns`;
    /// 3. every retained ring `event` in time order, with a `kind` and
    ///    that kind's fields;
    /// 4. one `end` record with the `samples` and `events` counts and the
    ///    number of events the ring dropped.
    ///
    /// [`TraceData::from_jsonl`] reads this back exactly.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let m = &self.meta;
        let _ = writeln!(
            out,
            concat!(
                "{{\"type\":\"meta\",\"format_version\":{v},\"schema_version\":{v},\"ident\":{},",
                "\"content_hash\":\"{:016x}\",\"trial\":{},\"seed\":{},\"cores\":{},",
                "\"sample_interval_ns\":{},\"policy\":{},\"workload\":{}}}"
            ),
            quoted(&m.ident),
            m.content_hash,
            m.trial,
            m.seed,
            m.cores,
            m.sample_interval_ns,
            quoted(&m.policy),
            quoted(&m.workload),
            v = JSONL_VERSION,
        );
        for s in &self.samples {
            let gens = s
                .gens
                .iter()
                .map(|(seq, pages)| format!("[{seq},{pages}]"))
                .collect::<Vec<_>>()
                .join(",");
            let cores = s
                .cores
                .iter()
                .map(|c| quoted(&c.label()))
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(
                out,
                concat!(
                    "{{\"type\":\"sample\",\"t_ns\":{},\"major_faults\":{},",
                    "\"refaults\":{},\"evictions\":{},\"direct_reclaims\":{},",
                    "\"kswapd_batches\":{},\"free_frames\":{},\"writeback_frames\":{},",
                    "\"gens\":[{}],\"cores\":[{}]}}"
                ),
                s.t_ns,
                s.major_faults,
                s.refaults,
                s.evictions,
                s.direct_reclaims,
                s.kswapd_batches,
                s.free_frames,
                s.writeback_frames,
                gens,
                cores,
            );
            let _ = writeln!(
                out,
                concat!(
                    "{{\"type\":\"workingset\",\"t_ns\":{},\"refault\":{},",
                    "\"activate\":{},\"restore\":{}}}"
                ),
                s.t_ns, s.ws_refault, s.ws_activate, s.ws_restore,
            );
            let _ = writeln!(
                out,
                "{{\"type\":\"lru_gen\",\"t_ns\":{},\"dump\":{}}}",
                s.t_ns,
                quoted(&s.lru_gen),
            );
        }
        for (t_ns, ev) in &self.events {
            let _ = writeln!(
                out,
                "{{\"type\":\"event\",\"t_ns\":{},\"kind\":\"{}\"{}}}",
                t_ns,
                ev.kind(),
                event_fields(ev),
            );
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"end\",\"samples\":{},\"events\":{},\"events_dropped\":{}}}",
            self.samples.len(),
            self.events.len(),
            self.dropped_events,
        );
        out
    }

    /// Serializes to Chrome `trace_event` JSON (object format with a
    /// `traceEvents` array), loadable in Perfetto / `chrome://tracing`.
    ///
    /// Track layout:
    /// - pid 0 "cores": one tid per simulated core; complete (`X`) slices
    ///   named after the occupying thread (`app3`, `kswapd`, `aging`).
    /// - pid 1 "vm": counter (`C`) tracks for faults, reclaim, frames and
    ///   MG-LRU generation occupancy, plus instant (`i`) markers for
    ///   reclaim batches, aging passes, OOM kills, injected faults and
    ///   throttles.
    /// - pid 2 "faults": async (`b`/`e`) spans per blocking major fault,
    ///   keyed by page, so overlapping in-flight faults stay distinct.
    pub fn to_chrome_trace(&self) -> String {
        let m = &self.meta;
        let mut ev = Vec::<String>::new();

        // Process and thread naming metadata first, in fixed order.
        ev.push(meta_name("process_name", 0, 0, "cores"));
        for core in 0..m.cores {
            ev.push(meta_name(
                "thread_name",
                0,
                core as u64,
                &format!("core{core}"),
            ));
        }
        ev.push(meta_name("process_name", 1, 0, "vm"));
        ev.push(meta_name("thread_name", 1, 0, "counters"));
        ev.push(meta_name("process_name", 2, 0, "faults"));
        ev.push(meta_name("thread_name", 2, 0, "major faults"));

        for s in &self.samples {
            let ts = micros(s.t_ns);
            ev.push(format!(
                concat!(
                    "{{\"name\":\"faults\",\"ph\":\"C\",\"pid\":1,\"tid\":0,",
                    "\"ts\":{ts},\"args\":{{\"major\":{major},\"refaults\":{refaults}}}}}"
                ),
                ts = ts,
                major = s.major_faults,
                refaults = s.refaults,
            ));
            ev.push(format!(
                concat!(
                    "{{\"name\":\"reclaim\",\"ph\":\"C\",\"pid\":1,\"tid\":0,",
                    "\"ts\":{ts},\"args\":{{\"evictions\":{ev},\"direct\":{direct},",
                    "\"kswapd_batches\":{kb}}}}}"
                ),
                ts = ts,
                ev = s.evictions,
                direct = s.direct_reclaims,
                kb = s.kswapd_batches,
            ));
            ev.push(format!(
                concat!(
                    "{{\"name\":\"frames\",\"ph\":\"C\",\"pid\":1,\"tid\":0,",
                    "\"ts\":{ts},\"args\":{{\"free\":{free},\"writeback\":{wb}}}}}"
                ),
                ts = ts,
                free = s.free_frames,
                wb = s.writeback_frames,
            ));
            if !s.gens.is_empty() {
                let args = s
                    .gens
                    .iter()
                    .map(|(seq, pages)| format!("\"g{seq}\":{pages}"))
                    .collect::<Vec<_>>()
                    .join(",");
                ev.push(format!(
                    concat!(
                        "{{\"name\":\"policy_lists\",\"ph\":\"C\",\"pid\":1,\"tid\":0,",
                        "\"ts\":{ts},\"args\":{{{args}}}}}"
                    ),
                    ts = ts,
                    args = args,
                ));
            }
        }

        for (t_ns, e) in &self.events {
            let ts = micros(*t_ns);
            match e {
                TraceEvent::Slice {
                    core,
                    tid,
                    kind,
                    dur_ns,
                } => {
                    let name = match kind {
                        ThreadKind::App => format!("app{tid}"),
                        ThreadKind::Kswapd => "kswapd".to_owned(),
                        ThreadKind::Aging => "aging".to_owned(),
                    };
                    ev.push(format!(
                        concat!(
                            "{{\"name\":\"{name}\",\"cat\":\"sched\",\"ph\":\"X\",",
                            "\"pid\":0,\"tid\":{core},\"ts\":{ts},\"dur\":{dur},",
                            "\"args\":{{\"tid\":{tid},\"class\":\"{class}\"}}}}"
                        ),
                        name = name,
                        core = core,
                        ts = ts,
                        dur = micros(*dur_ns),
                        tid = tid,
                        class = kind.name(),
                    ));
                }
                TraceEvent::FaultBegin { tid, key } => {
                    ev.push(format!(
                        concat!(
                            "{{\"name\":\"major-fault\",\"cat\":\"vm\",\"ph\":\"b\",",
                            "\"id\":{key},\"pid\":2,\"tid\":{tid},\"ts\":{ts},",
                            "\"args\":{{\"key\":{key}}}}}"
                        ),
                        key = key,
                        tid = tid,
                        ts = ts,
                    ));
                }
                TraceEvent::FaultEnd { tid, key } => {
                    ev.push(format!(
                        concat!(
                            "{{\"name\":\"major-fault\",\"cat\":\"vm\",\"ph\":\"e\",",
                            "\"id\":{key},\"pid\":2,\"tid\":{tid},\"ts\":{ts}}}"
                        ),
                        key = key,
                        tid = tid,
                        ts = ts,
                    ));
                }
                TraceEvent::ReclaimBatch {
                    direct,
                    victims,
                    scanned,
                    cpu_ns,
                } => {
                    let name = if *direct {
                        "direct-reclaim"
                    } else {
                        "kswapd-batch"
                    };
                    ev.push(instant(
                        name,
                        "vm",
                        &ts,
                        &format!("\"victims\":{victims},\"scanned\":{scanned},\"cpu_ns\":{cpu_ns}"),
                    ));
                }
                TraceEvent::AgingPass { cpu_ns } => {
                    ev.push(instant(
                        "aging-pass",
                        "vm",
                        &ts,
                        &format!("\"cpu_ns\":{cpu_ns}"),
                    ));
                }
                TraceEvent::OomKill { victim } => {
                    ev.push(instant(
                        "oom-kill",
                        "vm",
                        &ts,
                        &format!("\"victim\":{victim}"),
                    ));
                }
                TraceEvent::FaultInjected { write } => {
                    ev.push(instant(
                        "fault-injected",
                        "faultinj",
                        &ts,
                        &format!("\"write\":{write}"),
                    ));
                }
                TraceEvent::Throttle { backlog_ns } => {
                    ev.push(instant(
                        "throttle",
                        "vm",
                        &ts,
                        &format!("\"backlog_ns\":{backlog_ns}"),
                    ));
                }
            }
        }

        format!(
            concat!(
                "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"ident\":{},",
                "\"content_hash\":\"{:016x}\",\"trial\":{},\"seed\":{},",
                "\"policy\":{},\"workload\":{},\"events_dropped\":{}}},",
                "\"traceEvents\":[\n{}\n]}}\n"
            ),
            quoted(&m.ident),
            m.content_hash,
            m.trial,
            m.seed,
            quoted(&m.policy),
            quoted(&m.workload),
            self.dropped_events,
            ev.join(",\n"),
        )
    }
}

fn meta_name(kind: &str, pid: u32, tid: u64, name: &str) -> String {
    format!(
        concat!(
            "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},",
            "\"args\":{{\"name\":{name}}}}}"
        ),
        kind = kind,
        pid = pid,
        tid = tid,
        name = quoted(name),
    )
}

fn instant(name: &str, cat: &str, ts: &str, args: &str) -> String {
    format!(
        concat!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"g\",",
            "\"pid\":1,\"tid\":0,\"ts\":{ts},\"args\":{{{args}}}}}"
        ),
        name = name,
        cat = cat,
        ts = ts,
        args = args,
    )
}

/// Kind-specific JSONL fields for one event, with a leading comma.
fn event_fields(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::FaultBegin { tid, key } | TraceEvent::FaultEnd { tid, key } => {
            format!(",\"tid\":{tid},\"key\":{key}")
        }
        TraceEvent::ReclaimBatch {
            direct,
            victims,
            scanned,
            cpu_ns,
        } => format!(
            ",\"direct\":{direct},\"victims\":{victims},\"scanned\":{scanned},\"cpu_ns\":{cpu_ns}"
        ),
        TraceEvent::AgingPass { cpu_ns } => format!(",\"cpu_ns\":{cpu_ns}"),
        TraceEvent::OomKill { victim } => format!(",\"victim\":{victim}"),
        TraceEvent::FaultInjected { write } => format!(",\"write\":{write}"),
        TraceEvent::Throttle { backlog_ns } => format!(",\"backlog_ns\":{backlog_ns}"),
        TraceEvent::Slice {
            core,
            tid,
            kind,
            dur_ns,
        } => format!(
            ",\"core\":{core},\"tid\":{tid},\"class\":\"{}\",\"dur_ns\":{dur_ns}",
            kind.name()
        ),
    }
}

impl TraceData {
    /// Decodes the JSON Lines [`TraceData::to_jsonl`] writes: the exact
    /// inverse, record by record. Records must come in the order
    /// `to_jsonl` documents: `meta` first, each `sample` directly followed
    /// by its `workingset` and `lru_gen` at the same `t_ns`, samples
    /// before events, and `end` last, with counts that match what came
    /// before it.
    ///
    /// Only the encoder's own bytes decode: once every record has been
    /// read, the result is re-encoded and must equal `text`, so
    /// `from_jsonl(s)` is `Ok(d)` only when `d.to_jsonl() == s`. Anything
    /// else is a typed [`TraceDecodeError`], never a panic.
    pub fn from_jsonl(text: &str) -> Result<TraceData, TraceDecodeError> {
        use TraceDecodeError as E;
        let mut records = text.lines().enumerate().map(|(i, l)| {
            let json = parse(l).map_err(|e| E::Json(i + 1, e))?;
            Ok(Record { line: i + 1, json })
        });
        let mut next = || records.next().unwrap_or(Err(E::Truncated));

        let meta = decode_meta(&next()?.of_type("meta")?)?;
        let (mut samples, mut events) = (Vec::new(), Vec::new());
        let end = loop {
            let rec = next()?;
            match rec.record_type()? {
                "sample" if events.is_empty() => {
                    let ws = next()?.of_type("workingset")?;
                    let lru = next()?.of_type("lru_gen")?;
                    samples.push(decode_sample(&rec, &ws, &lru)?);
                }
                "event" => events.push(decode_event(&rec)?),
                "end" => break rec,
                _ if events.is_empty() => {
                    return Err(E::OutOfOrder(rec.line, "sample, event or end"))
                }
                _ => return Err(E::OutOfOrder(rec.line, "event or end")),
            }
        };
        for (field, decoded) in [("samples", samples.len()), ("events", events.len())] {
            let claimed = end.u64(field)?;
            if claimed != decoded as u64 {
                return Err(E::Totals(end.line, field, claimed, decoded as u64));
            }
        }
        let data = TraceData {
            meta,
            samples,
            events,
            dropped_events: end.u64("events_dropped")?,
        };
        if records.next().is_some() {
            return Err(E::OutOfOrder(end.line + 1, "nothing after end"));
        }
        let encoded = data.to_jsonl();
        if encoded != text {
            let lines = encoded
                .split_inclusive('\n')
                .zip(text.split_inclusive('\n'));
            return Err(E::NotCanonical(
                lines.take_while(|(a, b)| a == b).count() + 1,
            ));
        }
        Ok(data)
    }
}

/// Why [`TraceData::from_jsonl`] rejected a document. Each `usize` is the
/// 1-based line the problem was found on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The line is not one JSON document.
    Json(usize, JsonError),
    /// The named field is missing, has the wrong JSON type or does not
    /// fit its Rust type, or a sample's companion names another `t_ns`.
    Field(usize, &'static str),
    /// The named field holds a version, `type`, event `kind`, slice
    /// `class` or core label the format does not define.
    Unknown(usize, &'static str, String),
    /// A record where the format allows only what the `&str` names.
    OutOfOrder(usize, &'static str),
    /// `(line, field, claimed, decoded)`: the `end` record counts
    /// `claimed` records of `field` (`samples` or `events`), but
    /// `decoded` came before it.
    Totals(usize, &'static str, u64, u64),
    /// The document stops before its `end` record.
    Truncated,
    /// Every record decoded, but the document is not the bytes
    /// [`TraceData::to_jsonl`] writes for them (other whitespace, number
    /// or escape spellings, extra fields, no final newline). The line is
    /// the first that differs.
    NotCanonical(usize),
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(line, e) => write!(f, "line {line}: {e}"),
            Self::Field(line, field) => write!(f, "line {line}: bad or missing `{field}`"),
            Self::Unknown(line, field, v) => write!(f, "line {line}: unknown {field} {v:?}"),
            Self::OutOfOrder(line, allowed) => write!(f, "line {line}: expected {allowed}"),
            Self::Totals(line, field, claimed, decoded) => {
                write!(
                    f,
                    "line {line}: end counts {claimed} {field}, found {decoded}"
                )
            }
            Self::Truncated => f.write_str("trace ends before its end record"),
            Self::NotCanonical(line) => write!(f, "line {line}: not the exporter's exact bytes"),
        }
    }
}

/// Every record `type` the format defines.
const RECORD_TYPES: [&str; 6] = ["meta", "sample", "workingset", "lru_gen", "event", "end"];

/// One parsed JSONL line and its 1-based line number.
struct Record {
    line: usize,
    json: Json,
}

impl Record {
    fn invalid(&self, field: &'static str) -> TraceDecodeError {
        TraceDecodeError::Field(self.line, field)
    }

    fn unknown(&self, field: &'static str, value: &str) -> TraceDecodeError {
        TraceDecodeError::Unknown(self.line, field, value.to_owned())
    }

    /// The record's `type`, which must be one of [`RECORD_TYPES`].
    fn record_type(&self) -> Result<&str, TraceDecodeError> {
        let ty = self.str("type")?;
        RECORD_TYPES
            .contains(&ty)
            .then_some(ty)
            .ok_or_else(|| self.unknown("type", ty))
    }

    /// The record itself if its type is `ty`.
    fn of_type(self, ty: &'static str) -> Result<Record, TraceDecodeError> {
        if self.record_type()? == ty {
            Ok(self)
        } else {
            Err(TraceDecodeError::OutOfOrder(self.line, ty))
        }
    }

    /// `field` read by `as_t`, or [`TraceDecodeError::Field`].
    fn get<'a, T>(
        &'a self,
        field: &'static str,
        as_t: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, TraceDecodeError> {
        self.json
            .get(field)
            .and_then(as_t)
            .ok_or_else(|| self.invalid(field))
    }

    fn u64(&self, field: &'static str) -> Result<u64, TraceDecodeError> {
        self.get(field, Json::as_u64)
    }

    fn u32(&self, field: &'static str) -> Result<u32, TraceDecodeError> {
        self.get(field, |v| v.as_u64()?.try_into().ok())
    }

    fn str(&self, field: &'static str) -> Result<&str, TraceDecodeError> {
        self.get(field, Json::as_str)
    }
}

fn decode_meta(r: &Record) -> Result<TraceMeta, TraceDecodeError> {
    for field in ["format_version", "schema_version"] {
        let version = r.u64(field)?;
        if version != JSONL_VERSION {
            return Err(r.unknown(field, &version.to_string()));
        }
    }
    Ok(TraceMeta {
        ident: r.str("ident")?.to_owned(),
        content_hash: r.get("content_hash", |v| {
            u64::from_str_radix(v.as_str()?, 16).ok()
        })?,
        trial: r.u32("trial")?,
        seed: r.u64("seed")?,
        cores: r.u32("cores")?,
        sample_interval_ns: r.u64("sample_interval_ns")?,
        policy: r.str("policy")?.to_owned(),
        workload: r.str("workload")?.to_owned(),
    })
}

/// One sample from its `sample`, `workingset` and `lru_gen` records.
fn decode_sample(s: &Record, ws: &Record, lru: &Record) -> Result<Sample, TraceDecodeError> {
    let t_ns = s.u64("t_ns")?;
    for companion in [ws, lru] {
        if companion.u64("t_ns")? != t_ns {
            return Err(companion.invalid("t_ns"));
        }
    }
    let gens = s.get("gens", |v| {
        v.as_arr()?
            .iter()
            .map(|g| match g.as_arr()? {
                [seq, pages] => seq.as_u64().zip(pages.as_u64()),
                _ => None,
            })
            .collect()
    })?;
    let cores = s
        .get("cores", Json::as_arr)?
        .iter()
        .map(|c| {
            let label = c.as_str().ok_or_else(|| s.invalid("cores"))?;
            CoreOcc::from_label(label).ok_or_else(|| s.unknown("cores", label))
        })
        .collect::<Result<_, _>>()?;
    Ok(Sample {
        t_ns,
        major_faults: s.u64("major_faults")?,
        refaults: s.u64("refaults")?,
        evictions: s.u64("evictions")?,
        direct_reclaims: s.u64("direct_reclaims")?,
        kswapd_batches: s.u64("kswapd_batches")?,
        free_frames: s.u64("free_frames")?,
        writeback_frames: s.u64("writeback_frames")?,
        gens,
        cores,
        ws_refault: ws.u64("refault")?,
        ws_activate: ws.u64("activate")?,
        ws_restore: ws.u64("restore")?,
        lru_gen: lru.str("dump")?.to_owned(),
    })
}

/// One ring entry from an `event` record: the inverse of [`event_fields`].
fn decode_event(r: &Record) -> Result<(u64, TraceEvent), TraceDecodeError> {
    let t_ns = r.u64("t_ns")?;
    let ev = match r.str("kind")? {
        "fault_begin" => TraceEvent::FaultBegin {
            tid: r.u32("tid")?,
            key: r.u64("key")?,
        },
        "fault_end" => TraceEvent::FaultEnd {
            tid: r.u32("tid")?,
            key: r.u64("key")?,
        },
        "reclaim_batch" => TraceEvent::ReclaimBatch {
            direct: r.get("direct", Json::as_bool)?,
            victims: r.u32("victims")?,
            scanned: r.u64("scanned")?,
            cpu_ns: r.u64("cpu_ns")?,
        },
        "aging_pass" => TraceEvent::AgingPass {
            cpu_ns: r.u64("cpu_ns")?,
        },
        "oom_kill" => TraceEvent::OomKill {
            victim: r.u32("victim")?,
        },
        "fault_injected" => TraceEvent::FaultInjected {
            write: r.get("write", Json::as_bool)?,
        },
        "throttle" => TraceEvent::Throttle {
            backlog_ns: r.u64("backlog_ns")?,
        },
        "slice" => {
            let class = r.str("class")?;
            TraceEvent::Slice {
                core: r.u32("core")?,
                tid: r.u32("tid")?,
                kind: [ThreadKind::App, ThreadKind::Kswapd, ThreadKind::Aging]
                    .into_iter()
                    .find(|k| k.name() == class)
                    .ok_or_else(|| r.unknown("class", class))?,
                dur_ns: r.u64("dur_ns")?,
            }
        }
        other => return Err(r.unknown("kind", other)),
    };
    Ok((t_ns, ev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::tracer::{CoreOcc, Sample, TraceConfig, TraceMeta, Tracer};

    fn demo_data() -> TraceData {
        let mut t = Tracer::new(TraceConfig {
            sample_interval: 1000,
            event_capacity: 16,
        });
        t.event(10, TraceEvent::FaultBegin { tid: 0, key: 42 });
        t.event(
            500,
            TraceEvent::Slice {
                core: 1,
                tid: 3,
                kind: ThreadKind::Aging,
                dur_ns: 250,
            },
        );
        t.event(700, TraceEvent::FaultEnd { tid: 0, key: 42 });
        t.event(
            800,
            TraceEvent::ReclaimBatch {
                direct: false,
                victims: 32,
                scanned: 64,
                cpu_ns: 4000,
            },
        );
        t.event(900, TraceEvent::Throttle { backlog_ns: 123 });
        t.event(950, TraceEvent::AgingPass { cpu_ns: 77 });
        t.event(960, TraceEvent::OomKill { victim: 2 });
        t.event(970, TraceEvent::FaultInjected { write: true });
        t.note_refault();
        t.push_sample(Sample {
            t_ns: 1000,
            major_faults: 5,
            refaults: 1,
            evictions: 32,
            direct_reclaims: 0,
            kswapd_batches: 1,
            free_frames: 100,
            writeback_frames: 4,
            gens: vec![(2, 50), (3, 70)],
            cores: vec![CoreOcc::App(0), CoreOcc::Aging],
            ws_refault: 1,
            ws_activate: 1,
            ws_restore: 0,
            lru_gen: "policy mglru min_seq 2 max_seq 3 nr_gens 2\n gen 2 age 1\n".to_owned(),
        });
        t.push_sample(Sample {
            t_ns: 2000,
            major_faults: 6,
            refaults: 1,
            evictions: 32,
            direct_reclaims: 1,
            kswapd_batches: 1,
            free_frames: 90,
            writeback_frames: 0,
            gens: Vec::new(),
            cores: vec![CoreOcc::Idle, CoreOcc::Kswapd],
            ws_refault: 1,
            ws_activate: 1,
            ws_restore: 1,
            lru_gen: String::new(),
        });
        t.into_data(TraceMeta {
            ident: "tpch/mglru trial \"0\"".to_owned(),
            content_hash: 0x00AB_CDEF_0123_4567,
            trial: 0,
            seed: u64::MAX,
            cores: 2,
            sample_interval_ns: 1000,
            policy: "mglru-gen14".to_owned(),
            workload: "tpch".to_owned(),
        })
    }

    #[test]
    fn jsonl_lines_parse_and_carry_identity() {
        let jsonl = demo_data().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // meta + (sample, workingset, lru_gen) per boundary + events + end.
        assert_eq!(lines.len(), 1 + 2 * 3 + 8 + 1);
        let meta = parse(lines[0]).expect("meta parses");
        assert_eq!(meta.get("type").and_then(|v| v.as_str()), Some("meta"));
        assert_eq!(meta.get("schema_version"), Some(&Json::Num("2".to_owned())));
        assert_eq!(
            meta.get("content_hash").and_then(|v| v.as_str()),
            Some("00abcdef01234567")
        );
        assert_eq!(
            meta.get("ident").and_then(|v| v.as_str()),
            Some("tpch/mglru trial \"0\"")
        );
        for line in &lines {
            parse(line).expect("every line is valid json");
        }
        // Each sample boundary carries its workingset and lru_gen records.
        let ws = parse(lines[2]).expect("workingset parses");
        assert_eq!(ws.get("type").and_then(|v| v.as_str()), Some("workingset"));
        let lg = parse(lines[3]).expect("lru_gen parses");
        assert_eq!(lg.get("type").and_then(|v| v.as_str()), Some("lru_gen"));
        let dump = lg.get("dump").and_then(|v| v.as_str()).expect("dump str");
        assert!(dump.contains("min_seq 2"), "escaped dump survives: {dump}");
        let end = parse(lines[lines.len() - 1]).expect("end parses");
        assert_eq!(end.get("type").and_then(|v| v.as_str()), Some("end"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_tracks() {
        let chrome = demo_data().to_chrome_trace();
        let doc = parse(&chrome).expect("chrome trace parses");
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        // Metadata (3 process + 4 thread names) + 4 + 3 counters + 8 events.
        assert_eq!(events.len(), 7 + 4 + 3 + 8);
        let slice = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("aging"))
            .expect("aging slice present");
        assert_eq!(slice.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(slice.get("ts"), Some(&Json::Num("0.500".to_owned())));
        assert_eq!(slice.get("dur"), Some(&Json::Num("0.250".to_owned())));
    }

    #[test]
    fn exports_are_deterministic() {
        assert_eq!(demo_data().to_jsonl(), demo_data().to_jsonl());
        assert_eq!(demo_data().to_chrome_trace(), demo_data().to_chrome_trace());
    }

    #[test]
    fn escape_covers_specials() {
        assert_eq!(quoted("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(quoted("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let data = demo_data();
        let kinds: Vec<&str> = data.events.iter().map(|(_, e)| e.kind()).collect();
        assert_eq!(kinds.len(), 8, "demo covers every event kind: {kinds:?}");
        let jsonl = data.to_jsonl();
        let back = TraceData::from_jsonl(&jsonl).expect("own output decodes");
        assert_eq!(back, data);
        assert_eq!(back.to_jsonl(), jsonl);
    }

    /// `jsonl` with line `n` (1-based) replaced by `with`.
    fn edit_line(jsonl: &str, n: usize, with: &str) -> String {
        jsonl
            .lines()
            .enumerate()
            .map(|(i, l)| if i + 1 == n { with } else { l })
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn decode_errors_are_typed() {
        use TraceDecodeError as E;
        let jsonl = demo_data().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        let decode = |text: &str| TraceData::from_jsonl(text).map(|_| ());
        assert_eq!(decode(""), Err(E::Truncated));
        assert_eq!(decode(&jsonl[..jsonl.len() - 1]), Err(E::NotCanonical(16)));
        assert!(matches!(
            decode(&edit_line(&jsonl, 2, "{")),
            Err(E::Json(2, _))
        ));
        assert_eq!(
            decode(&edit_line(
                &jsonl,
                1,
                &lines[0].replace("\"seed\"", "\"sed\"")
            )),
            Err(E::Field(1, "seed"))
        );
        assert_eq!(
            decode(&edit_line(
                &jsonl,
                1,
                &lines[0].replace("\"trial\":0", "\"trial\":\"0\"")
            )),
            Err(E::Field(1, "trial"))
        );
        assert_eq!(
            decode(&edit_line(
                &jsonl,
                1,
                &lines[0].replace("\"cores\":2", "\"cores\":4294967296")
            )),
            Err(E::Field(1, "cores"))
        );
        assert_eq!(
            decode(&edit_line(
                &jsonl,
                1,
                &lines[0].replace("\"schema_version\":2", "\"schema_version\":3")
            )),
            Err(E::Unknown(1, "schema_version", "3".to_owned()))
        );
        assert_eq!(
            decode(&edit_line(
                &jsonl,
                8,
                &lines[7].replace("\"event\"", "\"evnt\"")
            )),
            Err(E::Unknown(8, "type", "evnt".to_owned()))
        );
        assert_eq!(
            decode(&edit_line(
                &jsonl,
                8,
                &lines[7].replace("fault_begin", "fault_start")
            )),
            Err(E::Unknown(8, "kind", "fault_start".to_owned()))
        );
        let slice = lines
            .iter()
            .position(|l| l.contains("\"slice\""))
            .expect("slice")
            + 1;
        assert_eq!(
            decode(&edit_line(
                &jsonl,
                slice,
                &lines[slice - 1].replace("aging", "ageing")
            )),
            Err(E::Unknown(slice, "class", "ageing".to_owned()))
        );
        assert_eq!(
            decode(&edit_line(
                &jsonl,
                2,
                &lines[1].replace("\"app0\"", "\"app\"")
            )),
            Err(E::Unknown(2, "cores", "app".to_owned()))
        );
        // Meta first, each sample with its companions, end last.
        assert_eq!(
            decode(&jsonl.replacen(lines[0], lines[1], 1)),
            Err(E::OutOfOrder(1, "meta"))
        );
        assert_eq!(
            decode(&edit_line(&jsonl, 3, lines[3])),
            Err(E::OutOfOrder(3, "workingset"))
        );
        assert_eq!(
            decode(&edit_line(&jsonl, 3, &lines[2].replace("1000", "2000"))),
            Err(E::Field(3, "t_ns"))
        );
        let end = lines[lines.len() - 1];
        assert_eq!(
            decode(&format!("{jsonl}{end}\n")),
            Err(E::OutOfOrder(17, "nothing after end"))
        );
        assert_eq!(
            decode(&edit_line(&jsonl, 9, lines[1])),
            Err(E::OutOfOrder(9, "event or end"))
        );
        assert_eq!(
            decode(&edit_line(
                &jsonl,
                16,
                &end.replace("\"events\":8", "\"events\":9")
            )),
            Err(E::Totals(16, "events", 9, 8))
        );
        // Well-formed but not the encoder's bytes.
        assert_eq!(
            decode(&edit_line(&jsonl, 8, &lines[7].replace(":42", ": 42"))),
            Err(E::NotCanonical(8))
        );
    }
}
