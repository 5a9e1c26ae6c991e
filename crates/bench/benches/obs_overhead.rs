//! Observability overhead gate — profiling must stay within its budget.
//!
//! The cycle-attribution profiler is sold as pay-for-what-you-use: off,
//! it does not exist (the alloc and skip-equivalence gates prove that);
//! on, it may cost at most **5 %** wall clock on a Fig. 13-style grid
//! (DESIGN.md §3e). This harness times the same serial grid with
//! profiling off and on: a warmup grid first (first-touch faults and
//! allocator growth land outside the timed region), then interleaved
//! repetitions with the per-mode minimum taken, so thermal drift hits
//! both modes equally and the minimum filters scheduler noise. At
//! least [`MIN_REPS`] repetitions always run; while the ratio still
//! exceeds the budget the harness keeps adding repetitions up to
//! [`MAX_REPS`] before calling it a violation, so a transient load
//! spike on a shared CI host cannot fail the gate by itself. With
//! `--check` it exits non-zero on a violation (the CI observability
//! gate runs this). Outside `--check`, the profiled report is also
//! recorded to `BENCH_sweep.json` (entry `obs-overhead`, schema
//! `fuse-sweep-v7`) so per-cell window counts and the stall decomposition
//! are tracked across PRs.

use std::time::{Duration, Instant};

use fuse::core::config::L1Preset;
use fuse::sweep::{SweepPlan, SweepReport};
use fuse::table::{f, Table};
use fuse_bench::{bench_config, record_sweep};
use fuse_workloads::by_name;

/// Interleaved repetitions per mode always executed.
const MIN_REPS: usize = 3;
/// Extra repetitions are added until the gate passes or this many ran.
const MAX_REPS: usize = 7;
/// Wall-clock budget for profiling, as a ratio over the plain run.
const BUDGET: f64 = 1.05;
/// The profiling window used for the gated run.
const WINDOW: u64 = 4_096;

fn plan(metrics: bool) -> SweepPlan {
    let p = SweepPlan::new(
        if metrics {
            "obs-overhead"
        } else {
            "obs-baseline"
        },
        bench_config(),
    )
    .workloads(by_name("GEMM"))
    .workloads(by_name("ATAX"))
    .workloads(by_name("srad_v1"))
    .presets(&[L1Preset::L1Sram, L1Preset::DyFuse]);
    if metrics {
        p.metrics_window(WINDOW)
    } else {
        p
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    // Warmup: one untimed grid so first-touch page faults and buffer
    // growth to high water are paid before either mode is measured.
    let _ = plan(false).run_serial();

    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    let mut reps = 0;
    let (ratio, profiled): (f64, SweepReport) = loop {
        let t = Instant::now();
        let off = plan(false).run_serial();
        best_off = best_off.min(t.elapsed());

        let t = Instant::now();
        let on = plan(true).run_serial();
        best_on = best_on.min(t.elapsed());
        reps += 1;

        // Profiling must be invisible in the statistics, not just cheap.
        for (a, b) in off.cells.iter().zip(on.cells.iter()) {
            assert_eq!(
                a.result.sim, b.result.sim,
                "profiling perturbed {}/{}",
                a.result.workload, a.result.config
            );
        }
        let ratio = best_on.as_secs_f64() / best_off.as_secs_f64().max(1e-9);
        if reps >= MIN_REPS && (ratio <= BUDGET || reps >= MAX_REPS) {
            break (ratio, on);
        }
    };
    let ok = ratio <= BUDGET;

    let mut t = Table::new(format!("Profiling overhead (best-of-{reps} serial grid)"));
    t.headers(&["mode", "wall_ms", "ratio", "budget"]);
    t.row(vec![
        "metrics off".to_string(),
        f(best_off.as_secs_f64() * 1e3, 1),
        "1.000".to_string(),
        "-".to_string(),
    ]);
    t.row(vec![
        format!("metrics on (window {WINDOW})"),
        f(best_on.as_secs_f64() * 1e3, 1),
        f(ratio, 3),
        if ok {
            format!("ok ({BUDGET:.2})")
        } else {
            format!("EXCEEDED ({BUDGET:.2})")
        },
    ]);
    t.print();

    if !check {
        // A gate run must leave the tracked ledger untouched.
        record_sweep(&profiled);
    }

    if !ok {
        eprintln!("obs overhead: profiling costs {ratio:.3}x (budget {BUDGET:.2}x)");
        if check {
            std::process::exit(1);
        }
    } else {
        println!("obs overhead: profiling is within the {BUDGET:.2}x wall-clock budget");
    }
}
