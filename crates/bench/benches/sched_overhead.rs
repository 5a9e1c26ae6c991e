//! Scheduler-overhead harness — what active-set tick scheduling costs
//! and what it buys (DESIGN.md §3i).
//!
//! Four measurements:
//!
//! 1. **Wheel micro-costs.** The per-event price of the `WakeWheel`
//!    primitives the hot tick loop leans on: `due` (one array load),
//!    `peek_min` (one array load) and `set` (bounded sift on a
//!    machine-sized heap). These bound the bookkeeping added to every
//!    wake registration site.
//!
//! 2. **End-to-end toggle.** A memory-bound cell (srad_v1 × Dy-FUSE)
//!    run with active-set scheduling on and off, comparing wall time
//!    and the fraction of component opportunities actually dispatched
//!    (`ticked_frac`). Both cells land in `BENCH_sweep.json` under the
//!    sweep name `sched-overhead`.
//!
//! 3. **Acceptance grid.** The full fig. 13 grid (21 workloads ×
//!    {L1-SRAM, Dy-FUSE} = 42 cells) run uncached under both scheduler
//!    modes; the active-set pass lands in `BENCH_sweep.json` as the
//!    `fig13-active` row, whose schema-v7 cells carry the per-cell
//!    `component_ticks` / `ticked_frac` dispatch telemetry.
//!
//! 4. **Correctness gate.** With `--check` the harness exits non-zero
//!    unless (a) the toggled runs' statistics are bitwise identical —
//!    the §3i contract — (b) the active-set runs dispatched strictly
//!    fewer component ticks than always-tick, and (c) the grid's
//!    engine-independent `stats_json` matches byte for byte across the
//!    toggle. All three are deterministic, so the gate is CI-safe;
//!    wall time is reported but never gated (timing on shared runners
//!    is noise).

use std::time::Instant;

use fuse::core::config::L1Preset;
use fuse::runner::{run_workload, RunConfig};
use fuse::sweep::{SweepCell, SweepPlan, SweepReport};
use fuse_bench::table::f;
use fuse_bench::{bench_config, black_box, record_sweep, Harness, Table};
use fuse_gpu::wheel::{WakeWheel, NEVER};
use fuse_workloads::{all_workloads, by_name};

/// Component count of the GTX480-class machine: 15 SMs, two network
/// directions, 6 L2 banks, 6 DRAM channels.
const COMPONENTS: usize = 15 + 2 + 6 + 6;

fn wheel_micro() {
    println!("Wheel micro-costs ({COMPONENTS}-component machine)");
    let h = Harness::default();

    let mut wheel = WakeWheel::new(COMPONENTS);
    for c in 0..COMPONENTS {
        wheel.set(c, (c as u64 * 7) % 64);
    }

    let mut c = 0usize;
    h.run("wheel_due", || {
        black_box(wheel.due(black_box(c), 32));
        c = (c + 1) % COMPONENTS;
    });

    h.run("wheel_peek_min", || {
        black_box(wheel.peek_min());
    });

    // `set` with a churning wake pattern: each call moves one component
    // forward in time, exercising sift-down/up paths the way per-phase
    // re-registration does.
    let mut now = 64u64;
    let mut comp = 0usize;
    h.run("wheel_set_churn", || {
        wheel.set(comp, black_box(now + (comp as u64 % 9)));
        comp += 1;
        if comp == COMPONENTS {
            comp = 0;
            now += 1;
        }
    });

    // The pattern the DRAM barrier uses: park a component at NEVER and
    // immediately re-arm it.
    let mut park = false;
    h.run("wheel_set_park_unpark", || {
        wheel.set(0, if park { NEVER } else { black_box(now) });
        park = !park;
    });
    println!();
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    wheel_micro();

    // End-to-end: the same cell with scheduling on and off.
    let spec = by_name("srad_v1").expect("srad_v1 exists");
    let preset = L1Preset::DyFuse;
    let rc_active = bench_config();
    let mut rc_full = bench_config();
    rc_full.active_set = false;

    // One untimed warmup so neither timed run pays first-touch costs
    // (page faults, allocator growth) — the comparison is scheduler
    // overhead, not process warmup.
    black_box(run_workload(&spec, preset, &rc_active));

    let t0 = Instant::now();
    let ta = Instant::now();
    let active = run_workload(&spec, preset, &rc_active);
    let active_ns = ta.elapsed().as_nanos() as u64;
    let tf = Instant::now();
    let full = run_workload(&spec, preset, &rc_full);
    let full_ns = tf.elapsed().as_nanos() as u64;

    let frac = |r: &fuse::runner::RunResult| {
        if r.component_opportunities == 0 {
            1.0
        } else {
            r.component_ticks as f64 / r.component_opportunities as f64
        }
    };

    let mut table = Table::new("srad_v1 x Dy-FUSE, active-set on vs off");
    table.headers(&["engine", "wall ms", "component ticks", "ticked_frac"]);
    for (name, r, ns) in [
        ("active-set", &active, active_ns),
        ("always-tick", &full, full_ns),
    ] {
        table.row(vec![
            name.to_string(),
            f(ns as f64 / 1e6, 1),
            r.component_ticks.to_string(),
            f(frac(r), 4),
        ]);
    }
    table.print();
    println!(
        "speedup {:.2}x  (ticks avoided: {})",
        full_ns as f64 / active_ns.max(1) as f64,
        full.component_ticks.saturating_sub(active.component_ticks)
    );

    let report = SweepReport {
        name: "sched-overhead".to_string(),
        threads: 1,
        engine: "skip".to_string(),
        workloads: vec!["srad_v1".to_string()],
        configs: vec!["active-set".to_string(), "always-tick".to_string()],
        cells: vec![
            SweepCell {
                result: active.clone(),
                wall_ns: active_ns,
                allocs_per_kcycle: None,
            },
            SweepCell {
                result: full.clone(),
                wall_ns: full_ns,
                allocs_per_kcycle: None,
            },
        ],
        wall_ns: t0.elapsed().as_nanos() as u64,
        cache_hits: None,
        cache_misses: None,
    };
    if !check {
        // `--check` runs under the smoke budget; recording it would
        // overwrite the bench-budget row in the perf trajectory.
        record_sweep(&report);
    }

    // The acceptance grid under both scheduler modes, uncached. `--check`
    // drops to the smoke budget (CI-speed); the bench budget records the
    // active pass as the `fig13-active` perf-trajectory row.
    let grid_rc = |active_set: bool| {
        let mut rc = if check {
            RunConfig::smoke()
        } else {
            bench_config()
        };
        rc.active_set = active_set;
        rc
    };
    // Both passes carry the same report name so the engine-independent
    // stats_json payloads are byte-comparable, not merely value-equal.
    let grid = |active_set: bool| {
        let t = Instant::now();
        let report = SweepPlan::new("fig13-active", grid_rc(active_set))
            .workloads(all_workloads())
            .presets(&[L1Preset::L1Sram, L1Preset::DyFuse])
            .run();
        (report, t.elapsed())
    };
    let (grid_active, grid_active_t) = grid(true);
    let (grid_full, grid_full_t) = grid(false);
    let grid_ticks =
        |r: &SweepReport| -> u64 { r.cells.iter().map(|c| c.result.component_ticks).sum() };
    println!(
        "fig13 42-cell grid: active-set {:.2?}  always-tick {:.2?}  \
         (ticks {} vs {})",
        grid_active_t,
        grid_full_t,
        grid_ticks(&grid_active),
        grid_ticks(&grid_full),
    );
    if !check {
        record_sweep(&grid_active);
    }

    let mut violations = 0u32;
    if grid_active.stats_json() != grid_full.stats_json() {
        eprintln!("sched overhead: grid stats_json diverges across the scheduler toggle");
        violations += 1;
    }
    if grid_ticks(&grid_active) >= grid_ticks(&grid_full) {
        eprintln!("sched overhead: the active-set grid pass elided no dispatches");
        violations += 1;
    }
    if active.sim != full.sim {
        eprintln!("sched overhead: statistics diverge between active-set and always-tick");
        violations += 1;
    }
    if active.component_ticks >= full.component_ticks {
        eprintln!(
            "sched overhead: active-set dispatched {} component ticks, always-tick {} — \
             the scheduler is not skipping anything",
            active.component_ticks, full.component_ticks
        );
        violations += 1;
    }
    if violations > 0 {
        if check {
            std::process::exit(1);
        }
    } else {
        println!(
            "sched overhead: statistics bitwise identical; active-set dispatched {:.1}% of \
             component opportunities",
            frac(&active) * 100.0
        );
    }
}
