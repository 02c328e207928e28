//! Property tests for the trace JSONL codec: random traces round-trip
//! exactly, and every truncation and single-byte flip of an encoded trace
//! decodes either to an error or to a trace whose encoding is exactly the
//! damaged bytes — never to a panic.

use proptest::prelude::*;

use pagesim_trace::{CoreOcc, Sample, ThreadKind, TraceData, TraceEvent, TraceMeta};

/// Per sample: `t_ns`, a counter seed, a core-occupancy selector, an app
/// thread id and a generation count.
type SampleDraw = (u64, u64, u8, u32, usize);
/// Per event: a kind selector, a u32 payload, a u64 payload and a flag.
type EventDraw = (u8, u32, u64, bool);

fn occupancy(sel: u8, tid: u32) -> CoreOcc {
    match sel % 4 {
        0 => CoreOcc::Idle,
        1 => CoreOcc::App(tid),
        2 => CoreOcc::Kswapd,
        _ => CoreOcc::Aging,
    }
}

fn event((sel, a, b, flag): EventDraw) -> TraceEvent {
    match sel % 8 {
        0 => TraceEvent::FaultBegin { tid: a, key: b },
        1 => TraceEvent::FaultEnd { tid: a, key: b },
        2 => TraceEvent::ReclaimBatch {
            direct: flag,
            victims: a,
            scanned: b,
            cpu_ns: b / 3,
        },
        3 => TraceEvent::AgingPass { cpu_ns: b },
        4 => TraceEvent::OomKill { victim: a },
        5 => TraceEvent::FaultInjected { write: flag },
        6 => TraceEvent::Throttle { backlog_ns: b },
        _ => TraceEvent::Slice {
            core: a % 4,
            tid: a,
            kind: [ThreadKind::App, ThreadKind::Kswapd, ThreadKind::Aging][(b % 3) as usize],
            dur_ns: b,
        },
    }
}

fn trace(meta: (u64, u32, u64), samples: &[SampleDraw], events: &[EventDraw]) -> TraceData {
    let (content_hash, trial, seed) = meta;
    TraceData {
        meta: TraceMeta {
            // Quotes, a backslash, a tab and a two-byte character, so the
            // damage below also cuts and flips inside escapes and UTF-8.
            ident: "ycsb-a/\"mglru\"\\Ssd ü\ttrial 3".to_owned(),
            content_hash,
            trial,
            seed,
            cores: 2,
            sample_interval_ns: 10_000_000,
            policy: "mglru-gen14".to_owned(),
            workload: "ycsb-a".to_owned(),
        },
        samples: samples
            .iter()
            .map(|&(t_ns, n, sel, tid, gens)| Sample {
                t_ns,
                major_faults: n,
                refaults: n / 2,
                evictions: n / 3,
                direct_reclaims: n % 7,
                kswapd_batches: n % 11,
                free_frames: n % 1000,
                writeback_frames: n % 13,
                gens: (0..gens as u64).map(|g| (g + n % 5, n % 100 + g)).collect(),
                cores: vec![occupancy(sel, tid), occupancy(sel + 1, tid)],
                ws_refault: n % 17,
                ws_activate: n % 19,
                ws_restore: n % 23,
                lru_gen: format!("policy mglru min_seq {}\n gen {} age 1\n", n % 5, n % 7),
            })
            .collect(),
        events: events
            .iter()
            .enumerate()
            .map(|(i, &e)| (i as u64 * 100, event(e)))
            .collect(),
        dropped_events: seed % 3,
    }
}

/// `bytes` either fail to decode or decode to a trace that re-encodes to
/// exactly `bytes`.
fn decodes_exactly_or_fails(bytes: &[u8]) -> Result<(), String> {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return Ok(()); // not a `str`: rejected before the decoder runs
    };
    if let Ok(data) = TraceData::from_jsonl(text) {
        prop_assert_eq!(data.to_jsonl(), text);
    }
    Ok(())
}

proptest! {
    /// Any trace decodes back to itself from its own encoding.
    #[test]
    fn jsonl_round_trips(
        meta in (any::<u64>(), any::<u32>(), any::<u64>()),
        samples in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u8>(), any::<u32>(), 0usize..4),
            0..5,
        ),
        events in prop::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), any::<bool>()),
            0..20,
        ),
    ) {
        let data = trace(meta, &samples, &events);
        let jsonl = data.to_jsonl();
        let back = TraceData::from_jsonl(&jsonl);
        prop_assert_eq!(back.as_ref(), Ok(&data));
    }

    /// Every truncation and every single-byte flip (with a drawn mask) of
    /// an encoded trace is an error or an exact round-trip.
    #[test]
    fn damaged_jsonl_fails_or_round_trips(
        meta in (any::<u64>(), 0u32..4, any::<u64>()),
        samples in prop::collection::vec((0u64..5000, 0u64..500, any::<u8>(), 0u32..4, 0usize..3), 0..3),
        events in prop::collection::vec((any::<u8>(), 0u32..50, 0u64..5000, any::<bool>()), 0..6),
        mask in 1u8..=255,
    ) {
        let mut bytes = trace(meta, &samples, &events).to_jsonl().into_bytes();
        for cut in 0..bytes.len() {
            decodes_exactly_or_fails(&bytes[..cut])?;
        }
        for at in 0..bytes.len() {
            bytes[at] ^= mask;
            decodes_exactly_or_fails(&bytes)?;
            bytes[at] ^= mask;
        }
    }
}
