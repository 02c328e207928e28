//! The benchmark's catalog: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric and
//! workload each one is predicted to move. `BENCHMARK.json` at the
//! repository root is the machine-read copy; the tests below keep the two
//! identical.

/// Whether a larger value is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// CLI name.
    pub name: &'static str,
    /// Why it exists (one line).
    pub why: &'static str,
}

/// A metric a user of `repro` sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Report name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// A metric of one layer, with its prediction.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Report name (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric an improvement here should move.
    pub moves: &'static str,
    /// The workload on which it should move it.
    pub on: &'static str,
    /// A workload on which it should *not* move, where one is named.
    pub not_on: Option<&'static str>,
}

/// The four workloads, in `--workload all` order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "figures-default",
        why: "repro --trials 2 all at default scale: all 120 cells, cold cache and journal, jobs 2, all 12 figures; the work mix of a full sweep",
    },
    WorkloadDef {
        name: "figures-warm",
        why: "re-renders all 12 smoke-scale figures from a primed cache: only sweep, cache, journal and render work, no simulation",
    },
    WorkloadDef {
        name: "pagerank-paper",
        why: "PageRank at paper footprint on SSD and ZRAM, one trial at a time, no cache: only generator and kernel, fault counts stable across seeds",
    },
    WorkloadDef {
        name: "ycsb-paper",
        why: "YCSB A/B/C at paper footprint on SSD and ZRAM: generator-heavy, update writes beside reads on one swap path",
    },
];

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_pages_per_s",
        unit: "pages/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
    not_on: Option<&'static str>,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
        not_on,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, printed by every traced run: name, unit, better,
/// then the end-to-end metric and workload it should move, and a
/// workload where it should not.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 43] = [
    layer("workloads.build_s.tpch", "s", Lower, "setup_s", "ycsb-paper", None),
    layer("workloads.build_s.pagerank", "s", Lower, "setup_s", "ycsb-paper", None),
    layer("workloads.build_s.ycsb", "s", Lower, "setup_s", "ycsb-paper", None),
    layer("workloads.gen_ns_per_op", "ns", Lower, "sim_pages_per_s", "pagerank-paper", Some("figures-warm")),
    layer("workloads.gen_share", "ratio", Lower, "sim_pages_per_s", "pagerank-paper", Some("figures-warm")),
    layer("kernel.build_ms_p50", "ms", Lower, "wall_s", "ycsb-paper", Some("figures-warm")),
    layer("kernel.run_ms_p50", "ms", Lower, "wall_s", "figures-default", Some("figures-warm")),
    layer("kernel.run_ms_tail", "ms", Lower, "wall_s", "figures-default", Some("figures-warm")),
    layer("kernel.runs", "count", Higher, "wall_s", "figures-default", Some("figures-warm")),
    layer("kernel.ns_per_access", "ns", Lower, "sim_pages_per_s", "pagerank-paper", Some("figures-warm")),
    layer("policy.clock.ns_per_access", "ns", Lower, "sim_pages_per_s", "pagerank-paper", Some("figures-warm")),
    layer("policy.mglru.ns_per_access", "ns", Lower, "sim_pages_per_s", "pagerank-paper", Some("figures-warm")),
    layer("swap.ssd.ns_per_access", "ns", Lower, "sim_pages_per_s", "ycsb-paper", Some("figures-warm")),
    layer("swap.zram.ns_per_access", "ns", Lower, "sim_pages_per_s", "ycsb-paper", Some("figures-warm")),
    layer("metrics.codec_us_p50", "us", Lower, "wall_s", "figures-warm", Some("pagerank-paper")),
    layer("cache.load_us_p50", "us", Lower, "wall_s", "figures-warm", Some("pagerank-paper")),
    layer("cache.load_us_tail", "us", Lower, "wall_s", "figures-warm", Some("pagerank-paper")),
    layer("cache.store_us_p50", "us", Lower, "wall_s", "figures-default", Some("pagerank-paper")),
    layer("cache.store_us_tail", "us", Lower, "wall_s", "figures-default", Some("pagerank-paper")),
    layer("cache.hit_ratio", "ratio", Higher, "wall_s", "figures-warm", Some("pagerank-paper")),
    layer("journal.append_us_p50", "us", Lower, "wall_s", "figures-warm", Some("pagerank-paper")),
    layer("journal.append_us_tail", "us", Lower, "wall_s", "figures-warm", Some("pagerank-paper")),
    layer("experiments.render_ms", "ms", Lower, "wall_s", "figures-warm", Some("pagerank-paper")),
    layer("experiments.install_us_p50", "us", Lower, "wall_s", "figures-warm", Some("pagerank-paper")),
    layer("sweep.plan_ms", "ms", Lower, "wall_s", "figures-warm", Some("pagerank-paper")),
    layer("sweep.exec_ms", "ms", Lower, "wall_s", "figures-default", Some("pagerank-paper")),
    layer("sweep.merge_ms", "ms", Lower, "wall_s", "figures-warm", Some("pagerank-paper")),
    layer("sweep.busy_share", "ratio", Higher, "wall_s", "ycsb-paper", Some("pagerank-paper")),
    layer("rep.wall_ms_tail", "ms", Lower, "wall_s", "figures-warm", None),
    layer("process.cpu_s", "s", Lower, "wall_s", "figures-default", None),
    layer("process.cpu_util", "ratio", Higher, "wall_s", "ycsb-paper", None),
    layer("process.peak_rss_mb", "MiB", Lower, "setup_s", "ycsb-paper", None),
    layer("sim.accesses", "count", Higher, "sim_pages_per_s", "pagerank-paper", None),
    layer("sim.major_faults", "count", Lower, "wall_s", "figures-default", None),
    layer("sim.evictions", "count", Lower, "wall_s", "figures-default", None),
    layer("sim.swap_outs", "count", Lower, "wall_s", "ycsb-paper", None),
    layer("sim.pgscan", "count", Lower, "sim_pages_per_s", "pagerank-paper", None),
    layer("sim.aging_runs", "count", Lower, "sim_pages_per_s", "pagerank-paper", None),
    layer("sim.runtime_s", "s", Lower, "wall_s", "figures-default", None),
    layer("trace.residual_share", "ratio", Lower, "wall_s", "figures-default", None),
    layer("trace.overhead_share", "ratio", Lower, "wall_s", "figures-default", None),
    layer("trace.spans", "count", Higher, "wall_s", "figures-default", None),
    layer("trace.mirror_trials", "count", Higher, "wall_s", "figures-default", None),
];

/// Looks a workload up by CLI name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The catalog as `--list` prints it.
pub fn listing() -> String {
    let mut out = String::from("# workloads\n");
    for w in &WORKLOADS {
        out.push_str(&format!("{}\t{}\n", w.name, w.why));
    }
    out.push_str("# end-to-end metrics (name, unit, better, bound)\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        ));
    }
    out.push_str("# per-layer metrics (name, unit, better, moves, on, not on)\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.moves,
            m.on,
            m.not_on.unwrap_or("-")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagesim_bench::repro_bench::json::{self, Json};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn doc() -> Json {
        json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    fn arr<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks array {key}"))
    }

    fn s<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry lacks string {key}: {v:?}"))
    }

    fn keys(v: &Json) -> Vec<&str> {
        match v {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {v:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc = doc();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = arr(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys(j), ["name", "why"]);
            assert_eq!(s(j, "name"), w.name);
            assert_eq!(s(j, "why"), w.why);
        }
        let e2e = arr(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            assert_eq!(s(j, "better"), m.better.label());
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = arr(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(keys(j), ["name", "unit", "better"]);
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit);
            assert_eq!(s(j, "better"), m.better.label());
        }
        let paths = arr(&doc, "paths");
        assert_eq!(paths, [Json::Str("pagebench".to_owned())]);
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "malformed name {name:?}"
            );
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "malformed unit {unit:?}"
            );
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(
                m.bound <= setup.bound,
                "setup_s must carry the largest bound"
            );
        }
    }

    #[test]
    fn every_prediction_names_a_real_metric_and_workload() {
        for m in &PER_LAYER {
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves unknown metric {}",
                m.name,
                m.moves
            );
            assert!(
                workload(m.on).is_some(),
                "{} names unknown workload {}",
                m.name,
                m.on
            );
            if let Some(w) = m.not_on {
                assert!(
                    workload(w).is_some(),
                    "{} names unknown workload {w}",
                    m.name
                );
                assert_ne!(w, m.on, "{}", m.name);
            }
        }
    }
}
