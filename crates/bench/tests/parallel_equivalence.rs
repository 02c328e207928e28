//! Golden-equivalence tests for the sweep executor: figure output must be
//! byte-identical whether cells are computed by a serial sweep, by a
//! parallel sweep, or replayed from a warm cache — and every figure must
//! render from exactly the cells its table entry declares.

use std::path::PathBuf;
use std::process::Command;

use pagesim::experiments::{self, Bench, Scale, EXPERIMENTS};
use pagesim_bench::sweep::{run_sweep, SweepOptions};

/// Small enough to keep the suite fast, big enough to exercise every
/// driver family (normalized means, joint distributions, tails, ZRAM,
/// fault injection).
const FIGS: &[&str] = &["fig1", "fig2", "fig3", "fig11", "faults"];

fn tiny_bench() -> Bench {
    Bench::new(Scale {
        trials: 2,
        footprint: 0.12,
        seed: 7,
        page_compression: None,
    })
}

fn fig_strings() -> Vec<String> {
    FIGS.iter().map(|f| f.to_string()).collect()
}

/// Renders the test figures exactly the way `repro` does.
fn render(bench: &Bench) -> String {
    let mut out = String::new();
    for fig in FIGS {
        let spec = experiments::experiment(fig).expect("test figures are in the table");
        out.push_str(&(spec.render)(bench));
        out.push('\n');
    }
    out
}

fn no_cache(jobs: usize) -> SweepOptions {
    SweepOptions {
        jobs,
        cache_dir: None,
        trace: None,
        ..SweepOptions::default()
    }
}

/// A unique scratch cache directory per test (no tempfile crate in the
/// offline build).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pagesim-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sweep_output_is_independent_of_worker_count() {
    let rendered: Vec<String> = [1, 4]
        .into_iter()
        .map(|jobs| {
            let bench = tiny_bench();
            let stats = run_sweep(&bench, &fig_strings(), &no_cache(jobs));
            assert!(stats.cells > 0 && stats.trials == stats.cells * 2);
            assert_eq!(stats.cache_misses, stats.trials, "cache is disabled");
            render(&bench)
        })
        .collect();
    assert_eq!(rendered[0], rendered[1], "jobs=4 diverged from jobs=1");
}

/// Every table entry renders from a fresh bench swept over exactly the
/// cells it declares: a driver reading an undeclared cell would panic.
#[test]
fn enumeration_covers_every_figure_id() {
    for spec in &EXPERIMENTS {
        let bench = Bench::new(Scale {
            trials: 2,
            footprint: 0.08,
            seed: 7,
            page_compression: None,
        });
        run_sweep(&bench, &[spec.id.to_string()], &no_cache(2));
        assert!(!(spec.render)(&bench).is_empty(), "{}", spec.id);
    }
}

/// Fig. 2 declares only the batch half of Fig. 1's grid, so rendering
/// Fig. 1 from a Fig. 2 sweep reads an uninstalled YCSB cell.
#[test]
#[should_panic(expected = "cell ycsb-a/clock/Ssd/r0.50 is not in the cell table")]
fn rendering_an_undeclared_cell_panics_and_names_it() {
    let bench = Bench::new(Scale {
        trials: 2,
        footprint: 0.08,
        seed: 7,
        page_compression: None,
    });
    run_sweep(&bench, &["fig2".to_string()], &no_cache(2));
    let _ = experiments::fig1(&bench);
}

#[test]
fn warm_cache_replay_is_byte_identical() {
    let dir = scratch_dir("warm");
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        trace: None,
        ..SweepOptions::default()
    };

    let cold_bench = tiny_bench();
    let cold = run_sweep(&cold_bench, &fig_strings(), &opts);
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, cold.trials);
    let cold_out = render(&cold_bench);

    let warm_bench = tiny_bench();
    let warm = run_sweep(&warm_bench, &fig_strings(), &opts);
    assert_eq!(
        warm.cache_hits, warm.trials,
        "every trial must replay from cache"
    );
    assert!(warm.hit_rate() >= 0.95, "hit rate {}", warm.hit_rate());
    assert_eq!(render(&warm_bench), cold_out);

    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end through the binary: stdout (minus wall-clock comment lines)
/// is byte-identical across worker counts and cache states, and stays so
/// on a warm cache.
#[test]
fn repro_binary_output_is_byte_identical_across_jobs_and_cache() {
    let dir = scratch_dir("bin");
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .args(["--scale", "smoke", "--trials", "2", "fig2", "faults"])
            .args(extra)
            .output()
            .expect("repro failed to start");
        assert!(out.status.success(), "repro exited with {}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("non-utf8 stdout");
        stdout
            .lines()
            .filter(|l| !l.contains("took "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let dirs = dir.to_str().unwrap();
    let serial = run(&["--no-cache", "--jobs", "1"]);
    let parallel = run(&["--no-cache", "--jobs", "4"]);
    let cold = run(&["--cache-dir", dirs, "--jobs", "2"]);
    let warm = run(&["--cache-dir", dirs, "--jobs", "3"]);
    assert_eq!(serial, parallel, "--jobs changed figure output");
    assert_eq!(serial, cold, "cache writes changed figure output");
    assert_eq!(serial, warm, "cache replay changed figure output");
    assert!(serial.contains("Fig 2") || serial.contains("fig2") || !serial.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

/// With enough cores, a 4-worker sweep must beat the serial one clearly.
/// Skipped on small machines where the comparison is meaningless.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the speedup check compares host wall times"
)]
fn parallel_sweep_is_faster_with_enough_cores() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup check: only {cores} core(s) available");
        return;
    }
    let figs = vec!["fig6".to_string()];
    let scale = Scale {
        trials: 4,
        footprint: 0.25,
        seed: 7,
        page_compression: None,
    };

    let bench = Bench::new(scale);
    let t0 = std::time::Instant::now();
    run_sweep(&bench, &figs, &no_cache(1));
    let serial = t0.elapsed();

    let bench = Bench::new(scale);
    let t0 = std::time::Instant::now();
    run_sweep(&bench, &figs, &no_cache(4));
    let parallel = t0.elapsed();

    assert!(
        parallel.as_secs_f64() < serial.as_secs_f64() / 1.5,
        "expected clear speedup: serial {serial:?} vs 4-way {parallel:?}"
    );
}
