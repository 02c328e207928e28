//! `repro vmstat` — the `/proc/vmstat`-analog observability report.
//!
//! Renders, for every cell of one figure, the Linux-named reclaim and
//! working-set counters ([`pagesim::RunMetrics::vmstat`]) summed over the
//! cell's trials, the merged refault-distance histogram, and trial 0's
//! `lru_gen`-debugfs-style policy dump ([`Policy::introspect`]).
//!
//! The report is a pure function of the bench scale and figure name:
//! byte-identical for any `--jobs` value and any cache state (CI
//! golden-diffs `vmstat_fig1.txt`), so nothing host- or wall-clock-
//! dependent may appear here.

use pagesim::experiments::{figure_cells, Bench};
use pagesim_stats::LatencyHistogram;

/// Renders the vmstat report for `fig` from the cells a sweep of `fig`
/// installed in `bench` ([`Bench::query`] panics on a cell never swept).
pub fn vmstat_report(bench: &Bench, fig: &str) -> String {
    let cells = figure_cells(fig);
    let mut out = String::new();
    out.push_str(&format!(
        "# pagesim vmstat — {fig} (cells: {}, trials/cell: {})\n\n",
        cells.len(),
        bench.scale().trials
    ));
    for q in &cells {
        let set = bench.query(q);
        out.push_str(&format!("cell {}\n", q.ident()));
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        let mut hist = LatencyHistogram::new();
        for run in &set.runs {
            for (i, (name, v)) in run.vmstat().into_iter().enumerate() {
                match totals.get_mut(i) {
                    Some(slot) => slot.1 += v,
                    None => totals.push((name, v)),
                }
            }
            hist.merge(&run.workingset_refault_distance);
        }
        for (name, v) in &totals {
            out.push_str(&format!("  {name} {v}\n"));
        }
        if hist.count() > 0 {
            out.push_str(&format!(
                "  workingset_refault_distance count={} p50={} p90={} p99={}\n",
                hist.count(),
                hist.value_at_percentile(50.0),
                hist.value_at_percentile(90.0),
                hist.value_at_percentile(99.0)
            ));
        } else {
            out.push_str("  workingset_refault_distance count=0\n");
        }
        if let Some(run0) = set.runs.first() {
            if !run0.lru_gen.is_empty() {
                out.push_str("  lru_gen:\n");
                for line in run0.lru_gen.lines() {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepOptions};
    use pagesim::experiments::Scale;

    fn fig1_report() -> String {
        let bench = Bench::new(Scale::smoke());
        run_sweep(&bench, &["fig1".to_owned()], &SweepOptions::default());
        vmstat_report(&bench, "fig1")
    }

    #[test]
    fn report_covers_every_cell_and_counter() {
        let report = fig1_report();
        for q in figure_cells("fig1") {
            assert!(
                report.contains(&format!("cell {}\n", q.ident())),
                "{}",
                q.ident()
            );
        }
        for counter in [
            "pgmajfault",
            "pgscan_kswapd",
            "pgscan_direct",
            "pgsteal_anon",
            "pgsteal_file",
            "workingset_refault",
            "workingset_activate",
            "workingset_restore",
            "workingset_nodereclaim",
            "nr_shadow_entries",
            "workingset_refault_distance",
        ] {
            assert!(report.contains(&format!("  {counter} ")), "{counter}");
        }
        // Both policies dump introspection: MG-LRU generations, Clock hand.
        assert!(report.contains("    policy mglru min_seq "));
        assert!(report.contains("    policy clock hand "));
    }

    #[test]
    fn report_is_deterministic() {
        assert_eq!(fig1_report(), fig1_report());
    }
}
