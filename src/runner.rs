//! Experiment runner: one (workload, L1 configuration) → one result.
//!
//! Every figure and table bench, every example and most integration tests
//! funnel through [`run_workload`] / [`run_l1_config`], so all numbers in
//! EXPERIMENTS.md come from the same code path.

use fuse_core::config::{L1Config, L1Preset};
use fuse_core::controller::FuseL1;
use fuse_core::metrics::L1Metrics;
use fuse_gpu::config::GpuConfig;
use fuse_gpu::stats::SimStats;
use fuse_gpu::system::GpuSystem;
use fuse_mem::energy::{EnergyBreakdown, EnergyParams};
use fuse_mem::tech::BankParams;
use fuse_obs::profile::ProfileReport;
use fuse_obs::trace::TraceRing;
use fuse_serve::key::{CellKey, KeyParts, L1Column};
use fuse_serve::record::CellRecord;
use fuse_workloads::spec::WorkloadSpec;

/// Simulation budget and machine selection for one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The machine to simulate.
    pub gpu: GpuConfig,
    /// Warp-instruction budget per warp (multiplies the workload default;
    /// scaled further by the `FUSE_SCALE` environment variable, so a
    /// longer, closer-to-paper run is one env var away).
    pub ops_scale: f64,
    /// Hard cycle cap (safety net; runs normally finish by retiring).
    pub max_cycles: u64,
    /// Event-driven cycle skipping (`fusesim --no-skip` turns it off).
    /// Either engine yields bitwise-identical [`SimStats`]; skipping is
    /// just faster.
    pub skip: bool,
    /// Active-set tick scheduling — busy cycles dispatch only components
    /// that are due (`fusesim --no-active-set` turns it off). Bitwise
    /// identical [`SimStats`] either way; see DESIGN.md §3i.
    pub active_set: bool,
    /// Cycle-attribution profiling window (`fusesim --metrics-out`).
    /// `None` (the default) keeps the hot path observability-free;
    /// `SimStats` is bitwise identical either way.
    pub metrics_window: Option<u64>,
    /// Event-trace ring capacity (`fusesim --trace-out`). `None` (the
    /// default) disables tracing.
    pub trace_capacity: Option<usize>,
}

impl RunConfig {
    /// The paper's GTX480-class machine with the default budget.
    pub fn standard() -> Self {
        RunConfig {
            gpu: GpuConfig::gtx480(),
            ops_scale: env_scale(),
            max_cycles: 20_000_000,
            skip: true,
            active_set: true,
            metrics_window: None,
            trace_capacity: None,
        }
    }

    /// The Fig. 19 Volta-class machine.
    pub fn volta() -> Self {
        RunConfig {
            gpu: GpuConfig::volta(),
            ops_scale: env_scale() * 0.25,
            max_cycles: 20_000_000,
            skip: true,
            active_set: true,
            metrics_window: None,
            trace_capacity: None,
        }
    }

    /// A deliberately tiny budget for doctests and smoke tests.
    pub fn smoke() -> Self {
        RunConfig {
            gpu: GpuConfig {
                num_sms: 2,
                warps_per_sm: 8,
                ..GpuConfig::gtx480()
            },
            ops_scale: 0.25,
            max_cycles: 2_000_000,
            skip: true,
            active_set: true,
            metrics_window: None,
            trace_capacity: None,
        }
    }

    /// The resolved warp-instruction budget for `spec` — the number the
    /// generators actually receive (public because it is part of the
    /// result-cache key; see [`preset_cell_key`]).
    pub fn ops_for(&self, spec: &WorkloadSpec) -> usize {
        ((spec.ops_per_warp as f64 * self.ops_scale).round() as usize).max(8)
    }

    /// True when an observer (profiler or tracer) is attached. Observed
    /// runs carry payloads a [`CellRecord`] cannot represent, so cache
    /// layers bypass for them.
    pub fn observed(&self) -> bool {
        self.metrics_window.is_some() || self.trace_capacity.is_some()
    }
}

/// `FUSE_SCALE`, or 1 when it is unset or not a finite positive number
/// (NaN would round the budget to the 8-op floor, infinity would
/// saturate it to the cycle cap).
fn env_scale() -> f64 {
    std::env::var("FUSE_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(1.0)
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Configuration name (preset or custom).
    pub config: String,
    /// Engine statistics.
    pub sim: SimStats,
    /// FUSE controller metrics summed over SMs (zeroed for Oracle).
    pub metrics: L1Metrics,
    /// Evaluated energy breakdown.
    pub energy: EnergyBreakdown,
    /// Cycles the engine fast-forwarded over (0 with `--no-skip`).
    /// Not part of `sim`: both engines must report identical statistics.
    pub skipped_cycles: u64,
    /// Component dispatches the serial engine actually performed, and the
    /// opportunities it had (components × ticked cycles). Engine
    /// telemetry like `skipped_cycles` — not part of `sim`, not cached
    /// (both rehydrate as 0 from a [`CellRecord`]).
    pub component_ticks: u64,
    /// See [`RunResult::component_ticks`].
    pub component_opportunities: u64,
    /// Windowed stall-breakdown profile (`Some` iff
    /// [`RunConfig::metrics_window`] was set).
    pub profile: Option<ProfileReport>,
    /// Packet-level event trace (`Some` iff
    /// [`RunConfig::trace_capacity`] was set).
    pub trace: Option<TraceRing>,
}

impl RunResult {
    /// Whole-GPU IPC.
    pub fn ipc(&self) -> f64 {
        self.sim.ipc()
    }

    /// L1D miss rate.
    pub fn miss_rate(&self) -> f64 {
        self.sim.l1_miss_rate()
    }

    /// L1D energy in nJ (Fig. 17's quantity).
    pub fn l1_energy_nj(&self) -> f64 {
        self.energy.l1_nj()
    }

    /// Outgoing memory references (the paper's headline 32% reduction).
    pub fn outgoing_requests(&self) -> u64 {
        self.sim.outgoing_requests
    }

    /// The cacheable projection of this result: everything except the
    /// observer payloads (`profile`/`trace`), which cache layers refuse
    /// to serve anyway ([`RunConfig::observed`]).
    pub fn to_record(&self) -> CellRecord {
        CellRecord {
            workload: self.workload.clone(),
            config: self.config.clone(),
            sim: self.sim,
            metrics: self.metrics,
            energy: self.energy,
            skipped_cycles: self.skipped_cycles,
        }
    }

    /// Rehydrates a result from a cached record. `profile` and `trace`
    /// are `None`: observed runs are never cached.
    pub fn from_record(rec: &CellRecord) -> RunResult {
        RunResult {
            workload: rec.workload.clone(),
            config: rec.config.clone(),
            sim: rec.sim,
            metrics: rec.metrics,
            energy: rec.energy,
            skipped_cycles: rec.skipped_cycles,
            component_ticks: 0,
            component_opportunities: 0,
            profile: None,
            trace: None,
        }
    }
}

/// Content key for (`spec` on preset `preset` under `rc`) — see
/// [`fuse_serve::key`] for the invalidation contract. Oracle has no
/// finite configuration, so its column keys on the engine version alone.
pub fn preset_cell_key(spec: &WorkloadSpec, preset: L1Preset, rc: &RunConfig) -> CellKey {
    let cfg = (preset != L1Preset::Oracle).then(|| preset.config());
    cell_key(
        spec,
        L1Column::Preset {
            name: preset.name(),
            config: cfg.as_ref(),
        },
        rc,
    )
}

/// Content key for (`spec` on the custom configuration `cfg` named
/// `config_name` under `rc`).
pub fn custom_cell_key(
    spec: &WorkloadSpec,
    config_name: &str,
    cfg: &L1Config,
    rc: &RunConfig,
) -> CellKey {
    cell_key(
        spec,
        L1Column::Custom {
            name: config_name,
            config: cfg,
        },
        rc,
    )
}

/// Resolves an L1 preset by its published column name, case-insensitively
/// (`"dy-fuse"` → [`L1Preset::DyFuse`]).
pub fn preset_by_name(name: &str) -> Option<L1Preset> {
    L1Preset::ALL
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
}

/// The serving side of the [`fuse_serve::CellBackend`] seam: keys and
/// simulations resolved through the same [`RunConfig`] every other entry
/// point uses, so a cell served over a socket is bit-identical to one run
/// locally. Shared by `fusesim serve` and the `serve_load` bench.
pub struct ServeBackend {
    rc: RunConfig,
}

impl ServeBackend {
    /// A backend simulating under `rc`.
    pub fn new(rc: RunConfig) -> ServeBackend {
        ServeBackend { rc }
    }
}

impl fuse_serve::CellBackend for ServeBackend {
    fn key(&self, spec: &fuse_serve::proto::CellSpec) -> Result<CellKey, String> {
        let w = fuse_workloads::by_name(&spec.workload)
            .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
        let p = preset_by_name(&spec.config)
            .ok_or_else(|| format!("unknown config {:?}", spec.config))?;
        Ok(preset_cell_key(&w, p, &self.rc))
    }

    fn simulate(&self, spec: &fuse_serve::proto::CellSpec) -> Result<CellRecord, String> {
        let w = fuse_workloads::by_name(&spec.workload)
            .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
        let p = preset_by_name(&spec.config)
            .ok_or_else(|| format!("unknown config {:?}", spec.config))?;
        Ok(run_workload(&w, p, &self.rc).to_record())
    }
}

fn cell_key(spec: &WorkloadSpec, l1: L1Column<'_>, rc: &RunConfig) -> CellKey {
    CellKey::derive(&KeyParts {
        workload: spec,
        l1,
        gpu: &rc.gpu,
        ops_per_warp: rc.ops_for(spec),
        max_cycles: rc.max_cycles,
        skip: rc.skip,
        active_set: rc.active_set,
    })
}

fn collect(
    workload: &str,
    config_name: &str,
    sys: &mut GpuSystem,
    sim: SimStats,
    banks: (Option<BankParams>, Option<BankParams>),
) -> RunResult {
    let mut metrics = L1Metrics::default();
    for s in 0..sys.config().num_sms {
        if let Some(l1) = sys.l1(s).as_any().downcast_ref::<FuseL1>() {
            metrics.merge(&l1.metrics());
        }
    }
    let params = EnergyParams {
        sram: banks.0,
        stt: banks.1,
        num_sms: sys.config().num_sms as u32,
        dram_channels: sys.config().dram_channels as u32,
        clock_ghz: sys.config().clock_ghz,
        ..EnergyParams::default()
    };
    let energy = params.evaluate(&sim.energy, sim.cycles);
    RunResult {
        workload: workload.to_string(),
        config: config_name.to_string(),
        sim,
        metrics,
        energy,
        skipped_cycles: sys.skipped_cycles(),
        component_ticks: sys.component_ticks(),
        component_opportunities: sys.component_opportunities(),
        profile: sys.take_profile(),
        trace: sys.take_trace(),
    }
}

fn apply_observability(sys: &mut GpuSystem, rc: &RunConfig) {
    if let Some(window) = rc.metrics_window {
        sys.enable_profiler(window);
    }
    if let Some(capacity) = rc.trace_capacity {
        sys.enable_tracer(capacity);
    }
}

/// Runs `spec` on one of the paper's named L1D presets.
///
/// # Examples
///
/// ```
/// use fuse::runner::{run_workload, RunConfig};
/// use fuse::core::config::L1Preset;
/// let w = fuse::workloads::by_name("pathf").unwrap();
/// let r = run_workload(&w, L1Preset::L1Sram, &RunConfig::smoke());
/// assert!(r.sim.instructions > 0);
/// ```
pub fn run_workload(spec: &WorkloadSpec, preset: L1Preset, rc: &RunConfig) -> RunResult {
    let ops = rc.ops_for(spec);
    let mut sys = GpuSystem::new(
        rc.gpu.clone(),
        |_| preset.build_model(),
        |sm, warp| spec.program(sm, warp, ops),
    );
    sys.set_cycle_skipping(rc.skip);
    sys.set_active_set(rc.active_set);
    apply_observability(&mut sys, rc);
    let sim = sys.run(rc.max_cycles);
    collect(
        spec.name,
        preset.name(),
        &mut sys,
        sim,
        preset.energy_banks(),
    )
}

/// Runs `spec` on an arbitrary [`L1Config`] (the Fig. 18 ratio sweep and
/// ablations use this).
pub fn run_l1_config(
    spec: &WorkloadSpec,
    cfg: &L1Config,
    config_name: &str,
    rc: &RunConfig,
) -> RunResult {
    let ops = rc.ops_for(spec);
    let banks = (cfg.sram.map(|s| s.params), cfg.stt.map(|s| s.params));
    let mut sys = GpuSystem::new(
        rc.gpu.clone(),
        |_| Box::new(FuseL1::new(cfg.clone())),
        |sm, warp| spec.program(sm, warp, ops),
    );
    sys.set_cycle_skipping(rc.skip);
    sys.set_active_set(rc.active_set);
    apply_observability(&mut sys, rc);
    let sim = sys.run(rc.max_cycles);
    collect(spec.name, config_name, &mut sys, sim, banks)
}

/// Lockstep-verifies `spec` on `preset` under `rc`'s machine and budget:
/// both engines run with the `fuse-check` reference-model oracle
/// attached, and the report carries every divergence (oracle violations,
/// statistic mismatches, event-stream diffs). `rc.skip` is ignored —
/// lockstep always runs both engines.
///
/// # Examples
///
/// ```
/// use fuse::runner::{lockstep_workload, RunConfig};
/// use fuse::core::config::L1Preset;
/// let w = fuse::workloads::by_name("pathf").unwrap();
/// let report = lockstep_workload(&w, L1Preset::L1Sram, &RunConfig::smoke());
/// assert!(report.ok(), "{:?}", report.violations);
/// ```
pub fn lockstep_workload(
    spec: &WorkloadSpec,
    preset: L1Preset,
    rc: &RunConfig,
) -> fuse_check::LockstepReport {
    fuse_check::lockstep::check_workload(spec, preset, &rc.gpu, rc.ops_for(spec), rc.max_cycles)
}

/// Geometric mean (the paper's GMEANS column). Ignores non-positive
/// entries; returns 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_workloads::by_name;

    #[test]
    fn geomean_math() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(
            (geomean(&[5.0, 0.0, -1.0]) - 5.0).abs() < 1e-12,
            "non-positive ignored"
        );
    }

    #[test]
    fn smoke_run_produces_consistent_result() {
        let w = by_name("gaussian").unwrap();
        let r = run_workload(&w, L1Preset::L1Sram, &RunConfig::smoke());
        assert_eq!(r.workload, "gaussian");
        assert_eq!(r.config, "L1-SRAM");
        assert!(r.sim.instructions > 0);
        assert!(r.ipc() > 0.0);
        assert!(r.energy.total_nj() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let w = by_name("2MM").unwrap();
        let rc = RunConfig::smoke();
        let a = run_workload(&w, L1Preset::DyFuse, &rc);
        let b = run_workload(&w, L1Preset::DyFuse, &rc);
        assert_eq!(a.sim, b.sim);
    }

    #[test]
    fn skip_and_tick_engines_agree_on_a_fuse_config() {
        let w = by_name("srad_v1").unwrap();
        let fast = run_workload(&w, L1Preset::DyFuse, &RunConfig::smoke());
        let slow_rc = RunConfig {
            skip: false,
            ..RunConfig::smoke()
        };
        let slow = run_workload(&w, L1Preset::DyFuse, &slow_rc);
        assert_eq!(fast.sim, slow.sim, "engines must agree bitwise");
        assert_eq!(slow.skipped_cycles, 0);
        assert!(fast.skipped_cycles > 0, "smoke runs have dead cycles");
    }

    #[test]
    fn active_set_and_always_tick_agree_on_a_fuse_config() {
        let w = by_name("srad_v1").unwrap();
        let fast = run_workload(&w, L1Preset::DyFuse, &RunConfig::smoke());
        let slow_rc = RunConfig {
            active_set: false,
            ..RunConfig::smoke()
        };
        let slow = run_workload(&w, L1Preset::DyFuse, &slow_rc);
        assert_eq!(fast.sim, slow.sim, "schedulers must agree bitwise");
        assert!(
            fast.component_ticks < slow.component_ticks,
            "active-set must elide dispatches: {} vs {}",
            fast.component_ticks,
            slow.component_ticks
        );
        assert!(fast.component_ticks <= fast.component_opportunities);
    }

    #[test]
    fn observability_is_off_by_default_and_opt_in() {
        let w = by_name("ATAX").unwrap();
        let plain = run_workload(&w, L1Preset::DyFuse, &RunConfig::smoke());
        assert!(plain.profile.is_none() && plain.trace.is_none());
        let rc = RunConfig {
            metrics_window: Some(1024),
            trace_capacity: Some(4096),
            ..RunConfig::smoke()
        };
        let obs = run_workload(&w, L1Preset::DyFuse, &rc);
        assert_eq!(plain.sim, obs.sim, "observability must not perturb stats");
        let profile = obs.profile.expect("profiler was on");
        assert!(!profile.series.samples.is_empty());
        let covered: u64 = profile.series.samples.iter().map(|s| s.len).sum();
        assert_eq!(covered, obs.sim.cycles, "windows tile the run");
        let trace = obs.trace.expect("tracer was on");
        assert!(trace.iter().next().is_some(), "a DyFuse run emits events");
    }

    #[test]
    fn record_round_trip_preserves_the_result() {
        let w = by_name("ATAX").unwrap();
        let r = run_workload(&w, L1Preset::DyFuse, &RunConfig::smoke());
        let back = RunResult::from_record(&r.to_record());
        assert_eq!(r.sim, back.sim);
        assert_eq!(r.metrics, back.metrics);
        assert_eq!(r.energy, back.energy);
        assert_eq!(r.skipped_cycles, back.skipped_cycles);
        assert_eq!(r.workload, back.workload);
        assert_eq!(r.config, back.config);
        assert!(back.profile.is_none() && back.trace.is_none());
    }

    #[test]
    fn cell_keys_separate_every_grid_axis() {
        let w = by_name("ATAX").unwrap();
        let rc = RunConfig::smoke();
        let base = preset_cell_key(&w, L1Preset::DyFuse, &rc);
        assert_eq!(
            base,
            preset_cell_key(&w, L1Preset::DyFuse, &rc),
            "same inputs, same key"
        );
        let other_preset = preset_cell_key(&w, L1Preset::L1Sram, &rc);
        let other_workload = preset_cell_key(&by_name("GEMM").unwrap(), L1Preset::DyFuse, &rc);
        let other_budget = preset_cell_key(
            &w,
            L1Preset::DyFuse,
            &RunConfig {
                ops_scale: 0.5,
                ..RunConfig::smoke()
            },
        );
        let tick_engine = preset_cell_key(
            &w,
            L1Preset::DyFuse,
            &RunConfig {
                skip: false,
                ..RunConfig::smoke()
            },
        );
        let always_tick = preset_cell_key(
            &w,
            L1Preset::DyFuse,
            &RunConfig {
                active_set: false,
                ..RunConfig::smoke()
            },
        );
        let keys = [
            &base,
            &other_preset,
            &other_workload,
            &other_budget,
            &tick_engine,
            &always_tick,
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a.hex, b.hex, "axes must not collide");
            }
        }
        // Oracle derives a key without panicking despite having no
        // finite configuration.
        let oracle = preset_cell_key(&w, L1Preset::Oracle, &rc);
        assert!(oracle.text.contains("l1.config=unbounded"));
    }

    #[test]
    fn fuse_metrics_are_collected() {
        let w = by_name("ATAX").unwrap();
        let r = run_workload(&w, L1Preset::FaFuse, &RunConfig::smoke());
        assert!(
            r.metrics.tag_searches > 0,
            "approximate probes must be counted"
        );
    }
}
