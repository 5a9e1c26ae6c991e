//! Allocation-budget harness — allocations per simulated kilocycle.
//!
//! Two measurements under the counting `#[global_allocator]`:
//!
//! 1. **Steady-state gate.** The `SteadyLoop` scenario (see
//!    `fuse_bench::alloc`) is warmed up and then measured for 100k
//!    cycles on the SRAM baseline and on Dy-FUSE. The budget is **zero**
//!    heap operations — the DESIGN.md §3d contract, the same number
//!    `tests/alloc_budget.rs` pins. With `--check` the harness exits
//!    non-zero on any violation (the CI smoke step runs this).
//!
//! 2. **Whole-run trajectory.** A small (workload × preset) grid run
//!    end to end, counting every allocation from `GpuSystem`
//!    construction to drain, normalised per simulated kilocycle. These
//!    cells land in `BENCH_sweep.json` (schema `fuse-sweep-v7`, field
//!    `allocs_per_kcycle`) so the setup overhead is tracked across PRs
//!    too — it should scale with machine size, never with cycles.
//!    `--check` gates without re-recording the row.

use std::time::Instant;

use fuse::core::config::L1Preset;
use fuse::runner::run_workload;
use fuse::sweep::{SweepCell, SweepReport};
use fuse::table::{f, Table};
use fuse_bench::alloc::{self, CountingAlloc};
use fuse_bench::{bench_config, record_sweep};
use fuse_workloads::by_name;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Warmup window: the cold DRAM pass plus buffer growth to high water
/// (Dy-FUSE queue depths keep creeping until ~400k cycles as the
/// predictor warms; see `tests/alloc_budget.rs`).
const WARMUP_CYCLES: u64 = 500_000;
/// Measured steady-state window.
const MEASURE_CYCLES: u64 = 100_000;

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    // 1. The steady-state gate.
    let mut steady = Table::new("Steady-state hot loop (after 500k-cycle warmup)");
    steady.headers(&["preset", "allocs/kcycle", "allocs", "cycles", "budget"]);
    let mut violations = 0u32;
    for preset in [L1Preset::L1Sram, L1Preset::DyFuse] {
        let (allocs, cycles) = alloc::steady_state_delta(preset, WARMUP_CYCLES, MEASURE_CYCLES);
        // The budget is zero heap operations, exactly (DESIGN.md §3d).
        let ok = allocs == 0;
        if !ok {
            violations += 1;
        }
        steady.row(vec![
            preset.name().to_string(),
            f(allocs as f64 * 1000.0 / cycles.max(1) as f64, 3),
            allocs.to_string(),
            cycles.to_string(),
            if ok { "ok (0)" } else { "EXCEEDED (0)" }.to_string(),
        ]);
    }
    steady.print();

    // 2. Whole-run allocs/kcycle over a small grid, recorded to
    // BENCH_sweep.json.
    let rc = bench_config();
    let workload_names = ["ATAX", "GEMM", "srad_v1"];
    let presets = [L1Preset::L1Sram, L1Preset::DyFuse];
    let mut grid = Table::new("Whole-run allocations (setup included)");
    grid.headers(&["workload", "config", "allocs/kcycle", "allocs", "cycles"]);
    let t0 = Instant::now();
    let mut cells = Vec::new();
    for name in workload_names {
        let spec = by_name(name).expect("grid workload exists");
        for preset in presets {
            let tc = Instant::now();
            let (allocs, result) = alloc::count_allocations(|| run_workload(&spec, preset, &rc));
            let wall_ns = tc.elapsed().as_nanos() as u64;
            let apk = allocs as f64 * 1000.0 / result.sim.cycles.max(1) as f64;
            grid.row(vec![
                name.to_string(),
                preset.name().to_string(),
                f(apk, 3),
                allocs.to_string(),
                result.sim.cycles.to_string(),
            ]);
            cells.push(SweepCell {
                result,
                wall_ns,
                allocs_per_kcycle: Some(apk),
            });
        }
    }
    grid.print();

    let report = SweepReport {
        name: "alloc-budget".to_string(),
        threads: 1, // serial by construction: the counters are process-wide
        engine: if rc.skip && rc.active_set {
            "skip"
        } else {
            "tick"
        }
        .to_string(),
        workloads: workload_names.iter().map(|w| w.to_string()).collect(),
        configs: presets.iter().map(|p| p.name().to_string()).collect(),
        cells,
        wall_ns: t0.elapsed().as_nanos() as u64,
        cache_hits: None,
        cache_misses: None,
    };
    if !check {
        // A gate run must leave the tracked ledger untouched.
        record_sweep(&report);
    }

    if violations > 0 {
        eprintln!("alloc budget: {violations} preset(s) over the steady-state budget");
        if check {
            std::process::exit(1);
        }
    } else {
        println!("alloc budget: steady-state hot loop is allocation-free on every preset");
    }
}
