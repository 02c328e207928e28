//! Deterministic exporters: JSONL and Chrome `trace_event` JSON.
//!
//! Both formats are emitted by hand (the workspace vendors no
//! serialization crates) with fully deterministic field order and number
//! formatting, so a trace of the same trial is byte-identical across
//! hosts and `--jobs` settings. Timestamps are simulated nanoseconds; the
//! Chrome exporter renders them as microseconds with a fixed three-digit
//! fraction (`ts` is conventionally µs) to stay loadable in Perfetto and
//! `chrome://tracing` without losing ns precision.

use std::fmt::Write as _;

use crate::event::{ThreadKind, TraceEvent};
use crate::tracer::TraceData;

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
    /// Serializes to JSON Lines: one meta record, then per sample boundary
    /// a `sample` record plus its `workingset` and `lru_gen` companions,
    /// every retained event in time order, and a trailing end record with
    /// totals. This is the format the checked-in schema
    /// (`schema/trace-jsonl.schema`) validates. `schema_version` names the
    /// record vocabulary (bumped to 2 with the workingset/lru_gen records)
    /// so consumers detect the format change instead of silently skipping
    /// unknown lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let m = &self.meta;
        let _ = writeln!(
            out,
            concat!(
                "{{\"type\":\"meta\",\"format_version\":2,\"schema_version\":2,\"ident\":{},",
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
        assert_eq!(lines.len(), 1 + 3 + 5 + 1);
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
        // Metadata (3 process + 4 thread names) + 4 counters + 5 events.
        assert_eq!(events.len(), 7 + 4 + 5);
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
}
