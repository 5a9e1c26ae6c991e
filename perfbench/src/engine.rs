//! The engine workloads: `fuse-read`, `fuse-write` (one long cell on the
//! benchmark's own `GpuSystem` path) and `grid-fig13` (`SweepPlan::run`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fuse::core::config::L1Preset;
use fuse::core::controller::FuseL1;
use fuse::core::metrics::L1Metrics;
use fuse::gpu::stats::SimStats;
use fuse::gpu::system::GpuSystem;
use fuse::mem::energy::{EnergyBreakdown, EnergyParams};
use fuse::obs::profile::ProfileReport;
use fuse::runner::{geomean, run_workload, RunConfig};
use fuse::sweep::{SweepPlan, SweepReport};
use fuse::workloads::spec::WorkloadSpec;

use crate::metrics::{Outcome, PER_EPOCH};
use crate::timed::{Spans, TimedL1, TimedProgram, Totals};
use crate::{median, secs, tail_percentile, warp_remap, DEFAULT_SEED};

/// Profiling window of the traced run (simulated cycles).
const PROFILE_WINDOW: u64 = 1 << 16;
/// Instruction budget of `grid-fig13`: the figure benches' budget, so
/// `model.*` is comparable with EXPERIMENTS.md (three grids fit a run).
pub const GRID_OPS_SCALE: f64 = 0.35;
/// The columns of `grid-fig13` (and of the `serve-mix` universe).
pub const GRID_PRESETS: [L1Preset; 2] = [L1Preset::L1Sram, L1Preset::DyFuse];
/// Worker threads of `grid-fig13` (the host has two cores).
pub const GRID_THREADS: usize = 2;
/// The paper's headline values `model.*` are measured against (Fig. 13's
/// Dy-FUSE IPC gmean, the abstract's outgoing-reference and L1 energy
/// cuts; EXPERIMENTS.md tabulates them).
pub const PAPER_SPEEDUP: f64 = 3.17;
/// See [`PAPER_SPEEDUP`].
pub const PAPER_OFFCHIP_CUT: f64 = 0.32;
/// See [`PAPER_SPEEDUP`].
pub const PAPER_ENERGY_CUT: f64 = 0.53;

/// The 15-SM GTX480 machine at a fixed budget (independent of
/// `FUSE_SCALE`, so every run measures the same work).
pub fn gtx480(ops_scale: f64) -> RunConfig {
    RunConfig {
        ops_scale,
        ..RunConfig::standard()
    }
}

/// One simulated cell on the benchmark's direct path.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Engine statistics.
    pub sim: SimStats,
    /// FUSE controller metrics summed over SMs.
    pub metrics: L1Metrics,
    /// Evaluated energy.
    pub energy: EnergyBreakdown,
    /// Cycles fast-forwarded.
    pub skipped: u64,
    /// Component dispatches performed and possible.
    pub ticks: (u64, u64),
    /// Sampled phase profile (traced runs only).
    pub profile: Option<ProfileReport>,
    /// Host time of `GpuSystem::run`.
    pub wall_s: f64,
}

/// Builds the machine for `spec` × `preset` with the seeded warp remap;
/// with `spans`, every L1 and warp program is wrapped in its timing
/// decorator and the sampled phase profiler is on.
pub fn build(
    spec: &WorkloadSpec,
    preset: L1Preset,
    rc: &RunConfig,
    seed: u64,
    spans: Option<&Arc<Spans>>,
) -> GpuSystem {
    let ops = rc.ops_for(spec);
    let remap = warp_remap(seed, rc.gpu.num_sms, rc.gpu.warps_per_sm);
    let warps = rc.gpu.warps_per_sm;
    let mut sys = GpuSystem::new(
        rc.gpu.clone(),
        |_| match spans {
            Some(s) => Box::new(TimedL1::new(preset.build_model(), s)),
            None => preset.build_model(),
        },
        |sm, warp| {
            let (sm2, warp2) = remap[sm * warps + warp as usize];
            let program = spec.program(sm2, warp2, ops);
            match spans {
                Some(s) => Box::new(TimedProgram::new(program, s)),
                None => program,
            }
        },
    );
    sys.set_cycle_skipping(rc.skip);
    sys.set_active_set(rc.active_set);
    if spans.is_some() {
        sys.enable_profiler(PROFILE_WINDOW);
    }
    sys
}

/// Runs a built machine to completion and collects its results (the same
/// collection `runner::run_workload` performs).
pub fn run(mut sys: GpuSystem, preset: L1Preset, rc: &RunConfig) -> CellRun {
    let t = Instant::now();
    let sim = sys.run(rc.max_cycles);
    let wall_s = secs(t);
    let mut metrics = L1Metrics::default();
    for s in 0..sys.config().num_sms {
        if let Some(l1) = sys.l1(s).as_any().downcast_ref::<FuseL1>() {
            metrics.merge(&l1.metrics());
        }
    }
    let (sram, stt) = preset.energy_banks();
    let energy = EnergyParams {
        sram,
        stt,
        num_sms: sys.config().num_sms as u32,
        dram_channels: sys.config().dram_channels as u32,
        clock_ghz: sys.config().clock_ghz,
        ..EnergyParams::default()
    }
    .evaluate(&sim.energy, sim.cycles);
    CellRun {
        sim,
        metrics,
        energy,
        skipped: sys.skipped_cycles(),
        ticks: (sys.component_ticks(), sys.component_opportunities()),
        profile: sys.take_profile(),
        wall_s,
    }
    // `sys` drops here, folding the decorators' spans into the store.
}

/// The completion gate every run passes: all warps retired with
/// instructions = warps × ops, and the cycle cap was never reached.
pub fn check_complete(sim: &SimStats, spec: &WorkloadSpec, rc: &RunConfig) -> Result<(), String> {
    let warps = (rc.gpu.num_sms * rc.gpu.warps_per_sm) as u64;
    let expected = warps * rc.ops_for(spec) as u64;
    if sim.instructions != expected {
        return Err(format!(
            "{}: {} instructions retired, expected {warps} warps x {} ops = {expected}",
            spec.name,
            sim.instructions,
            rc.ops_for(spec)
        ));
    }
    if sim.cycles >= rc.max_cycles {
        return Err(format!(
            "{}: hit the {}-cycle cap",
            spec.name, rc.max_cycles
        ));
    }
    Ok(())
}

/// Bitwise comparison of two runs' simulated statistics.
pub fn check_same(
    what: &str,
    a: (&SimStats, &L1Metrics),
    b: (&SimStats, &L1Metrics),
) -> Result<(), String> {
    if a.0 != b.0 {
        return Err(format!("{what}: SimStats differ"));
    }
    if a.1 != b.1 {
        return Err(format!("{what}: L1Metrics differ"));
    }
    Ok(())
}

/// Set-up repetitions made before the timed loop, so `setup_s` is a
/// median even when few timed repetitions fit in the run.
pub const SETUP_REPEATS: usize = 5;

/// Whether another repetition fits: at least one always runs, and a
/// traced run also needs one traced repetition; otherwise another starts
/// only if one more of the last length still ends inside `seconds`.
pub fn another(t0: Instant, seconds: f64, last_s: f64, reps: usize, owe_traced: bool) -> bool {
    reps == 0 || owe_traced || secs(t0) + last_s <= seconds
}

/// Records the end-to-end metrics shared by the engine workloads.
fn end_to_end(out: &mut Outcome, setup: &[f64], wall: &[f64], req_ms: &[f64], cycles: u64) {
    let wall_s = median(wall);
    let (pct, tail) = tail_percentile(req_ms);
    let samples: Vec<String> = wall.iter().map(|w| format!("{w:.4}")).collect();
    out.note(format!("wall_s samples: {}", samples.join(" ")));
    out.set("setup_s", median(setup), "s");
    out.set("wall_s", wall_s, "s");
    out.set("sim_cycles_per_s", cycles as f64 / wall_s, "cycles/s");
    out.set("req_ms_p50", median(req_ms), "ms");
    out.set("req_ms_p99", tail, "ms");
    out.set("req_ms_p99.percentile", pct as f64, "pct");
    out.set("req_ms.samples", req_ms.len() as f64, "count");
    out.set(
        "req_per_s",
        req_ms.len() as f64 / wall.iter().sum::<f64>(),
        "1/s",
    );
}

/// `fuse-read` / `fuse-write`: one long cell, rebuilt and re-run until
/// `seconds` have been measured. A traced run alternates untraced and
/// traced repetitions so `trace.overhead` compares like with like.
pub fn long_cell(
    spec: &WorkloadSpec,
    preset: L1Preset,
    rc: &RunConfig,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut wall, mut traced_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<CellRun> = None;
    let mut last_traced: Option<(CellRun, Totals)> = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        drop(build(spec, preset, rc, seed, None));
        setup.push(secs(t));
    }
    let t0 = Instant::now();
    let (mut rep, mut last_s) = (0usize, 0.0);
    while another(t0, seconds, last_s, rep, trace && rep < 2) {
        let spans = (trace && rep % 2 == 1).then(Spans::new);
        let t = Instant::now();
        let sys = build(spec, preset, rc, seed, spans.as_ref());
        setup.push(secs(t));
        let r = run(sys, preset, rc);
        last_s = secs(t);
        out.gate(check_complete(&r.sim, spec, rc));
        if let Some(f) = &first {
            let what = if spans.is_some() {
                "traced vs untraced"
            } else {
                "repeat"
            };
            out.gate(check_same(what, (&r.sim, &r.metrics), (&f.sim, &f.metrics)));
        }
        match spans {
            Some(s) => {
                traced_wall.push(r.wall_s);
                last_traced = Some((r, s.totals()));
            }
            None => {
                wall.push(r.wall_s);
                first.get_or_insert(r);
            }
        }
        rep += 1;
    }
    let first = first.expect("at least one untraced repetition");
    if seed == DEFAULT_SEED {
        // The benchmark must measure the production path: at the default
        // seed its direct build equals `run_workload` bit for bit.
        let prod = run_workload(spec, preset, rc);
        out.gate(check_same(
            "direct path vs run_workload",
            (&first.sim, &first.metrics),
            (&prod.sim, &prod.metrics),
        ));
    }
    let req_ms: Vec<f64> = wall.iter().map(|w| w * 1e3).collect();
    end_to_end(&mut out, &setup, &wall, &req_ms, first.sim.cycles);
    out.set("sim.cycles", first.sim.cycles as f64, "cycles");
    out.set("sim.ipc", first.sim.ipc(), "instr/cycle");
    if let Some((r, totals)) = &last_traced {
        engine_layers(&mut out, &[r], totals);
        out.set("sweep.busy_frac", 0.0, "frac");
        out.set(
            "trace.overhead",
            median(&traced_wall) / median(&wall),
            "ratio",
        );
        serve_layers_absent(&mut out);
    }
    out
}

/// The fig. 13 acceptance grid: every workload × {L1-SRAM, Dy-FUSE}.
/// Away from the default seed each workload's generator is re-seeded by
/// suffixing its name (the generator hashes the name into every warp's
/// stream), because `SweepPlan` builds its own programs; the calibration
/// is untouched.
pub fn grid_plan(seed: u64, rc: &RunConfig) -> SweepPlan {
    let specs = fuse::workloads::all_workloads().into_iter().map(|w| {
        if seed == DEFAULT_SEED {
            w
        } else {
            let name: &'static str = Box::leak(format!("{}~{seed}", w.name).into_boxed_str());
            WorkloadSpec { name, ..w }
        }
    });
    SweepPlan::new("grid-fig13", rc.clone())
        .workloads(specs)
        .presets(&GRID_PRESETS)
        .threads(GRID_THREADS)
}

/// The simulated headline ratios of a fig. 13 grid (L1-SRAM in column
/// 0, Dy-FUSE in column 1): IPC gmean speedup, mean outgoing-reference
/// cut and gmean L1 energy cut.
pub fn model_ratios(report: &SweepReport) -> (f64, f64, f64) {
    let mut speedup = Vec::new();
    let mut offchip = Vec::new();
    let mut energy = Vec::new();
    for wi in 0..report.workloads.len() {
        let (base, dy) = (&report.row(wi)[0].result, &report.row(wi)[1].result);
        speedup.push(dy.ipc() / base.ipc());
        offchip.push(1.0 - dy.outgoing_requests() as f64 / base.outgoing_requests() as f64);
        energy.push(dy.l1_energy_nj() / base.l1_energy_nj());
    }
    (
        geomean(&speedup),
        offchip.iter().sum::<f64>() / offchip.len() as f64,
        1.0 - geomean(&energy),
    )
}

/// `grid-fig13`: whole grids through `SweepPlan::run` until `seconds`
/// have been measured. The traced run re-runs the grid on the
/// benchmark's own two-thread pool with every decorator attached and
/// checks each cell against the sweep's result.
pub fn grid(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let rc = gtx480(GRID_OPS_SCALE);
    let plan = grid_plan(seed, &rc);
    let mut out = Outcome::default();
    let (mut setup, mut wall, mut traced_wall, mut req_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<SweepReport> = None;
    let mut last_traced: Option<(Vec<CellRun>, Totals)> = None;
    for _ in 0..SETUP_REPEATS {
        setup.push(grid_setup(&plan));
    }
    let t0 = Instant::now();
    let (mut rep, mut last_s) = (0usize, 0.0);
    while another(t0, seconds, last_s, rep, trace && rep < 2) {
        let t_rep = Instant::now();
        if trace && rep % 2 == 1 {
            let spans = Spans::new();
            let t = Instant::now();
            let runs = traced_grid(&plan, &spans);
            traced_wall.push(secs(t));
            let base = first.as_ref().expect("an untraced grid ran first");
            for (cell, r) in base.cells.iter().zip(&runs) {
                out.gate(check_same(
                    &format!("{}/{} traced", cell.result.workload, cell.result.config),
                    (&r.sim, &r.metrics),
                    (&cell.result.sim, &cell.result.metrics),
                ));
            }
            last_traced = Some((runs, spans.totals()));
        } else {
            let report = plan.run();
            wall.push(report.wall_ns as f64 / 1e9);
            for (i, cell) in report.cells.iter().enumerate() {
                req_ms.push(cell.wall_ns as f64 / 1e6);
                let spec = &plan.workloads[i / plan.configs.len()];
                let mut check = check_complete(&cell.result.sim, spec, &rc);
                if let (Ok(()), Some(f)) = (&check, &first) {
                    check = check_same(
                        "grid repeat",
                        (&cell.result.sim, &cell.result.metrics),
                        (&f.cells[i].result.sim, &f.cells[i].result.metrics),
                    );
                }
                out.gate(check);
            }
            first.get_or_insert(report);
        }
        last_s = secs(t_rep);
        rep += 1;
    }
    let report = first.expect("at least one untraced grid");
    end_to_end(&mut out, &setup, &wall, &req_ms, report.sim_cycles_total());
    let (speedup, offchip, energy) = model_ratios(&report);
    for (name, sim, paper) in [
        ("speedup", speedup, PAPER_SPEEDUP),
        ("offchip", offchip, PAPER_OFFCHIP_CUT),
        ("energy", energy, PAPER_ENERGY_CUT),
    ] {
        out.set(
            &format!("model.{name}_err"),
            (sim - paper).abs() / paper,
            "frac",
        );
        out.set(&format!("model.{name}_sim"), sim, "ratio");
        out.set(&format!("model.{name}_paper"), paper, "ratio");
    }
    let busy: f64 = report.cells.iter().map(|c| c.wall_ns as f64 / 1e9).sum();
    let capacity = report.threads as f64 * report.wall_ns as f64 / 1e9;
    out.set("sweep.busy_frac", busy / capacity, "frac");
    out.set("sweep.idle_s", capacity - busy, "s");
    let slowest = report.cells.iter().map(|c| c.wall_ns).max().unwrap_or(0);
    out.set("sweep.slowest_cell_s", slowest as f64 / 1e9, "s");
    if let Some((runs, totals)) = &last_traced {
        let runs: Vec<&CellRun> = runs.iter().collect();
        engine_layers(&mut out, &runs, totals);
        out.set(
            "trace.overhead",
            median(&traced_wall) / median(&wall),
            "ratio",
        );
        serve_layers_absent(&mut out);
    }
    out
}

/// Set-up cost of a grid: building every cell's machine (each cell pays
/// this inside `SweepPlan::run` before its first simulated cycle).
fn grid_setup(plan: &SweepPlan) -> f64 {
    let t = Instant::now();
    for spec in &plan.workloads {
        for preset in GRID_PRESETS {
            drop(build(spec, preset, &plan.run_config, DEFAULT_SEED, None));
        }
    }
    secs(t)
}

/// Every grid cell on the direct path with all decorators, on
/// [`GRID_THREADS`] workers; results in grid order.
fn traced_grid(plan: &SweepPlan, spans: &Arc<Spans>) -> Vec<CellRun> {
    let n = plan.workloads.len() * GRID_PRESETS.len();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, CellRun)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..GRID_THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (spec, preset) = (&plan.workloads[i / 2], GRID_PRESETS[i % 2]);
                let sys = build(spec, preset, &plan.run_config, DEFAULT_SEED, Some(spans));
                let r = run(sys, preset, &plan.run_config);
                done.lock().expect("grid results lock").push((i, r));
            });
        }
    });
    let mut cells = done.into_inner().expect("grid results lock");
    cells.sort_by_key(|c| c.0);
    cells.into_iter().map(|c| c.1).collect()
}

/// The engine layers of a traced run: decorator spans, sampled phase
/// profiles and the simulated counters of `runs`.
pub fn engine_layers(out: &mut Outcome, runs: &[&CellRun], spans: &Totals) {
    let sum = |f: &dyn Fn(&CellRun) -> f64| runs.iter().map(|r| f(r)).sum::<f64>();
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let busy_ns = sum(&|r| r.wall_s * 1e9);
    let cycles = sum(&|r| r.sim.cycles as f64);
    let mut m = L1Metrics::default();
    for r in runs {
        m.merge(&r.metrics);
    }
    let l1_hits = sum(&|r| r.sim.l1.hits as f64);
    let l1_accesses = l1_hits + sum(&|r| r.sim.l1.misses as f64);

    out.set("core.access_ns", spans.access.mean_ns(), "ns");
    out.set("core.tick_ns", spans.tick.mean_ns(), "ns");
    out.set("core.self_frac", ratio(spans.l1_ns(), busy_ns), "frac");
    out.set("core.accesses", spans.access.calls as f64, "count");
    out.set("core.tag_searches", m.tag_searches as f64, "count");
    out.set(
        "core.search_cycles_per_search",
        m.avg_tag_search_cycles(),
        "cycles",
    );
    out.set(
        "core.stt_busy_rejections",
        m.stt_busy_rejections as f64,
        "count",
    );
    out.set(
        "core.tq_full_rejections",
        m.tag_queue_full_rejections as f64,
        "count",
    );
    out.set(
        "core.migrations_to_stt",
        m.migrations_to_stt as f64,
        "count",
    );
    out.set(
        "core.migrations_to_sram",
        m.migrations_to_sram as f64,
        "count",
    );
    out.set(
        "core.bypassed_frac",
        ratio((m.bypassed_loads + m.bypassed_stores) as f64, l1_accesses),
        "frac",
    );

    out.set("cache.l1_hit_rate", ratio(l1_hits, l1_accesses), "frac");
    out.set(
        "cache.cbf_fp_rate",
        ratio(m.cbf.false_positives as f64, m.cbf.positives as f64),
        "frac",
    );
    out.set(
        "cache.mshr_merges",
        sum(&|r| r.sim.l1.mshr_merges as f64),
        "count",
    );
    out.set(
        "cache.reservation_fails",
        sum(&|r| r.sim.l1.reservation_fails as f64),
        "count",
    );
    out.set("predict.accuracy", m.accuracy.accuracy(), "frac");

    out.set("workloads.next_op_ns", spans.next_op.mean_ns(), "ns");
    out.set(
        "workloads.self_frac",
        ratio(spans.next_op.total_ns(), busy_ns),
        "frac",
    );

    // Sampled phase times, scaled per run from sampled to all ticks.
    let phase = |f: fn(&fuse::obs::profile::WallPhases) -> u64| {
        sum(&|r| {
            r.profile.as_ref().map_or(0.0, |p| {
                f(&p.wall) as f64 * ratio(p.wall.total_ticks as f64, p.wall.sampled_ticks as f64)
            })
        })
    };
    out.set(
        "gpu.sm_ns_per_cycle",
        ratio(phase(|w| w.sm_ns), cycles),
        "ns/cycle",
    );
    out.set(
        "gpu.icnt_ns_per_cycle",
        ratio(phase(|w| w.icnt_ns), cycles),
        "ns/cycle",
    );
    out.set(
        "gpu.l2_ns_per_cycle",
        ratio(phase(|w| w.l2_ns), cycles),
        "ns/cycle",
    );
    out.set(
        "gpu.dram_ns_per_cycle",
        ratio(phase(|w| w.dram_ns), cycles),
        "ns/cycle",
    );
    out.set(
        "gpu.respond_ns_per_cycle",
        ratio(phase(|w| w.respond_ns), cycles),
        "ns/cycle",
    );
    out.set(
        "gpu.skipped_frac",
        ratio(sum(&|r| r.skipped as f64), cycles),
        "frac",
    );
    out.set(
        "gpu.ticked_frac",
        ratio(sum(&|r| r.ticks.0 as f64), sum(&|r| r.ticks.1 as f64)),
        "frac",
    );
    out.set(
        "gpu.outgoing_requests",
        sum(&|r| r.sim.outgoing_requests as f64),
        "count",
    );
    let l2_hits = sum(&|r| r.sim.l2.hits as f64);
    out.set(
        "gpu.l2_hit_rate",
        ratio(l2_hits, l2_hits + sum(&|r| r.sim.l2.misses as f64)),
        "frac",
    );
    out.set(
        "gpu.dram_row_hit_rate",
        ratio(
            sum(&|r| r.sim.dram_row_hits as f64),
            sum(&|r| r.sim.dram_accesses as f64),
        ),
        "frac",
    );
    // Stall shares weighted by each run's issue slots.
    let slots = sum(&|r| (r.sim.cycles * r.sim.num_sms as u64) as f64);
    let weighted = |pick: fn((f64, f64)) -> f64| {
        let w = sum(&|r| {
            pick(r.sim.offchip_decomposition()) * (r.sim.cycles * r.sim.num_sms as u64) as f64
        });
        ratio(w, slots)
    };
    out.set("gpu.stall_mem_frac", weighted(|d| d.1), "frac");
    out.set("gpu.stall_net_frac", weighted(|d| d.0), "frac");
    out.set(
        "gpu.ipc",
        ratio(sum(&|r| r.sim.instructions as f64), cycles),
        "instr/cycle",
    );
    out.set("mem.l1_energy_nj", sum(&|r| r.energy.l1_nj()), "nJ");
    out.set(
        "mem.dram_accesses",
        sum(&|r| r.sim.dram_accesses as f64),
        "count",
    );
}

/// The `serve.*` counters read 0 on a workload that runs no service.
fn serve_layers_absent(out: &mut Outcome) {
    for name in [
        "serve.hit_frac",
        "serve.disk_hits",
        "serve.coalesced",
        "serve.misses",
        "serve.busy_replies",
        "serve.retries",
    ] {
        out.set(
            name,
            0.0,
            if name == "serve.hit_frac" {
                "frac"
            } else {
                PER_EPOCH
            },
        );
    }
}
