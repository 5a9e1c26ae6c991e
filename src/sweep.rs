//! Parallel sweep execution layer.
//!
//! Every paper figure is a grid of **independent, deterministic**
//! simulations — up to 21 workloads × 6 L1D configurations. A
//! [`SweepPlan`] describes such a (workload × L1 configuration) grid once;
//! [`SweepPlan::run`] executes it on a scoped-thread worker pool (std
//! only: [`std::thread::scope`] plus an atomic work index, no external
//! dependencies) and returns a [`SweepReport`] whose cells are in
//! deterministic grid order — workload-major, exactly as
//! [`SweepPlan::run_serial`] would produce them.
//!
//! # Determinism
//!
//! Each grid cell owns its whole simulator instance ([`run_workload`] /
//! [`run_l1_config`] construct a fresh [`fuse_gpu::system::GpuSystem`] per
//! call) and the workload generators are seeded pure functions of
//! (workload, SM, warp), so cells share no mutable state. Parallel
//! execution therefore yields **bitwise-identical** [`RunResult`]s to the
//! serial path — only the wall-clock timings differ. The
//! `sweep_determinism` integration test and the `parallel_equals_serial`
//! unit test below assert this on every run of the test suite.
//!
//! # Example
//!
//! ```
//! use fuse::runner::RunConfig;
//! use fuse::sweep::SweepPlan;
//! use fuse::core::config::L1Preset;
//!
//! let report = SweepPlan::new("demo", RunConfig::smoke())
//!     .workloads(fuse::workloads::by_name("ATAX"))
//!     .presets(&[L1Preset::L1Sram, L1Preset::DyFuse])
//!     .run();
//! assert_eq!(report.configs, vec!["L1-SRAM", "Dy-FUSE"]);
//! assert!(report.cell(0, 1).result.ipc() > 0.0);
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fuse_core::config::{L1Config, L1Preset};
use fuse_serve::key::CellKey;
use fuse_serve::store::ResultCache;
use fuse_workloads::spec::WorkloadSpec;

use crate::runner::{
    custom_cell_key, preset_cell_key, run_l1_config, run_workload, RunConfig, RunResult,
};

/// One L1D column of the sweep grid.
// `Custom` carries a full `L1Config` inline; a plan holds a handful of
// columns, so the size gap to `Preset` is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum SweepConfig {
    /// A named Table I preset.
    Preset(L1Preset),
    /// An arbitrary configuration (ratio sweeps, ablations).
    Custom {
        /// Column label in the report.
        name: String,
        /// The configuration to run.
        config: L1Config,
    },
}

impl SweepConfig {
    /// The column label.
    pub fn name(&self) -> &str {
        match self {
            SweepConfig::Preset(p) => p.name(),
            SweepConfig::Custom { name, .. } => name,
        }
    }

    fn run(&self, spec: &WorkloadSpec, rc: &RunConfig) -> RunResult {
        match self {
            SweepConfig::Preset(p) => run_workload(spec, *p, rc),
            SweepConfig::Custom { name, config } => run_l1_config(spec, config, name, rc),
        }
    }

    fn key(&self, spec: &WorkloadSpec, rc: &RunConfig) -> CellKey {
        match self {
            SweepConfig::Preset(p) => preset_cell_key(spec, *p, rc),
            SweepConfig::Custom { name, config } => custom_cell_key(spec, name, config, rc),
        }
    }
}

/// A (workload × L1 configuration) grid awaiting execution.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Sweep label (keys the `BENCH_sweep.json` entry).
    pub name: String,
    /// Grid rows.
    pub workloads: Vec<WorkloadSpec>,
    /// Grid columns.
    pub configs: Vec<SweepConfig>,
    /// Machine and budget shared by every cell.
    pub run_config: RunConfig,
    /// Worker threads; `None` uses the host's available parallelism.
    pub threads: Option<usize>,
    /// Content-addressed result cache ([`SweepPlan::cache`]); hit cells
    /// return their recorded results without touching the engine.
    /// Ignored — with `None` counters in the report — when an observer
    /// is attached, since profiles and traces are not cacheable.
    pub cache: Option<Arc<ResultCache>>,
}

impl SweepPlan {
    /// An empty plan under `run_config`.
    pub fn new(name: impl Into<String>, run_config: RunConfig) -> Self {
        SweepPlan {
            name: name.into(),
            workloads: Vec::new(),
            configs: Vec::new(),
            run_config,
            threads: None,
            cache: None,
        }
    }

    /// Adds grid rows.
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads.extend(specs);
        self
    }

    /// Adds preset columns.
    pub fn presets(mut self, presets: &[L1Preset]) -> Self {
        self.configs
            .extend(presets.iter().map(|p| SweepConfig::Preset(*p)));
        self
    }

    /// Adds a custom-configuration column.
    pub fn custom(mut self, name: impl Into<String>, config: L1Config) -> Self {
        self.configs.push(SweepConfig::Custom {
            name: name.into(),
            config,
        });
        self
    }

    /// Pins the worker-pool size (default: available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Attaches a content-addressed result cache (`fusesim sweep
    /// --cache-dir`): cells whose [`CellKey`] is already recorded return
    /// without simulating, so an incremental sweep re-runs only
    /// invalidated cells. Cached results are bitwise identical to cold
    /// ones ([`SweepReport::stats_json`] does not change), and the report
    /// gains hit/miss counters. Plans with an observer attached
    /// ([`RunConfig::observed`]) bypass the cache entirely.
    pub fn cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables or disables event-driven cycle skipping for every cell
    /// (`fusesim --no-skip` routes through this). Cell statistics are
    /// bitwise identical either way; only wall clock changes.
    pub fn cycle_skip(mut self, on: bool) -> Self {
        self.run_config.skip = on;
        self
    }

    /// Enables or disables active-set tick scheduling for every cell
    /// (`fusesim --no-active-set` routes through this). Cell statistics
    /// are bitwise identical either way; only wall clock changes.
    pub fn active_set(mut self, on: bool) -> Self {
        self.run_config.active_set = on;
        self
    }

    /// Opts every cell into cycle-attribution profiling with the given
    /// window (`fusesim sweep --metrics-window`). Cell statistics stay
    /// bitwise identical; the per-cell reports ride along in
    /// [`RunResult::profile`] and the `BENCH_sweep.json` entry gains
    /// per-cell window counts.
    pub fn metrics_window(mut self, window: u64) -> Self {
        self.run_config.metrics_window = Some(window);
        self
    }

    /// Grid cells in the plan.
    pub fn len(&self) -> usize {
        self.workloads.len() * self.configs.len()
    }

    /// True when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn resolved_threads(&self) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.threads.unwrap_or(hw).clamp(1, self.len().max(1))
    }

    /// Executes the grid on the worker pool and returns the cells in
    /// workload-major grid order (identical to [`SweepPlan::run_serial`],
    /// bit for bit — see the module docs).
    pub fn run(&self) -> SweepReport {
        self.run_on(self.resolved_threads())
    }

    /// Executes the grid strictly serially on the calling thread.
    pub fn run_serial(&self) -> SweepReport {
        self.run_on(1)
    }

    fn run_on(&self, threads: usize) -> SweepReport {
        let t0 = Instant::now();
        let n = self.len();
        let cols = self.configs.len().max(1);
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<SweepCell>> = (0..n).map(|_| None).collect();
        // Observed runs carry profile/trace payloads a cache record
        // cannot represent, so an attached observer disables the cache.
        let cache = self
            .cache
            .as_deref()
            .filter(|_| !self.run_config.observed());
        let hits = AtomicU64::new(0);
        let misses = AtomicU64::new(0);

        if threads <= 1 {
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = Some(self.run_cell(i / cols, i % cols, cache, &hits, &misses));
            }
        } else {
            // Scoped worker pool: each worker claims the next unclaimed
            // cell off a shared atomic index and collects (index, cell)
            // pairs locally; the join below scatters them back into grid
            // order, so scheduling jitter never reaches the caller.
            let mut collected: Vec<Vec<(usize, SweepCell)>> = Vec::with_capacity(threads);
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                local.push((
                                    i,
                                    self.run_cell(i / cols, i % cols, cache, &hits, &misses),
                                ));
                            }
                            local
                        })
                    })
                    .collect();
                for w in workers {
                    collected.push(w.join().expect("sweep worker panicked"));
                }
            });
            for (i, cell) in collected.into_iter().flatten() {
                slots[i] = Some(cell);
            }
        }

        SweepReport {
            name: self.name.clone(),
            threads,
            engine: if self.run_config.skip { "skip" } else { "tick" }.to_string(),
            workloads: self.workloads.iter().map(|w| w.name.to_string()).collect(),
            configs: self.configs.iter().map(|c| c.name().to_string()).collect(),
            cells: slots
                .into_iter()
                .map(|c| c.expect("every cell executed"))
                .collect(),
            wall_ns: t0.elapsed().as_nanos() as u64,
            cache_hits: cache.map(|_| hits.load(Ordering::Relaxed)),
            cache_misses: cache.map(|_| misses.load(Ordering::Relaxed)),
        }
    }

    fn run_cell(
        &self,
        wi: usize,
        ci: usize,
        cache: Option<&ResultCache>,
        hits: &AtomicU64,
        misses: &AtomicU64,
    ) -> SweepCell {
        let t = Instant::now();
        if let Some(cache) = cache {
            let key = self.configs[ci].key(&self.workloads[wi], &self.run_config);
            if let Some(rec) = cache.get(&key) {
                hits.fetch_add(1, Ordering::Relaxed);
                return SweepCell {
                    result: RunResult::from_record(&rec),
                    wall_ns: t.elapsed().as_nanos() as u64,
                    allocs_per_kcycle: None,
                };
            }
            let result = self.configs[ci].run(&self.workloads[wi], &self.run_config);
            // A failed persist only loses warmth, never the result.
            let _ = cache.insert(&key, result.to_record());
            misses.fetch_add(1, Ordering::Relaxed);
            return SweepCell {
                result,
                wall_ns: t.elapsed().as_nanos() as u64,
                allocs_per_kcycle: None,
            };
        }
        let result = self.configs[ci].run(&self.workloads[wi], &self.run_config);
        SweepCell {
            result,
            wall_ns: t.elapsed().as_nanos() as u64,
            allocs_per_kcycle: None,
        }
    }
}

/// One executed grid cell.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The simulation outcome.
    pub result: RunResult,
    /// Wall time this cell took on its worker.
    pub wall_ns: u64,
    /// Heap operations per simulated kilocycle, when the run was executed
    /// under the counting allocator (`fuse-bench`'s `alloc_budget`
    /// harness). `None` for ordinary sweeps: a meaningful count needs the
    /// `#[global_allocator]` wrapper installed and a serial run, so the
    /// parallel sweep path never fills it in.
    pub allocs_per_kcycle: Option<f64>,
}

impl SweepCell {
    /// Simulated cycles per wall-clock second — the engine-throughput
    /// metric tracked across PRs.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.result.sim.cycles as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Fraction of this cell's simulated cycles the engine fast-forwarded
    /// over instead of ticking (0 under `--no-skip`).
    pub fn skipped_frac(&self) -> f64 {
        if self.result.sim.cycles == 0 {
            0.0
        } else {
            self.result.skipped_cycles as f64 / self.result.sim.cycles as f64
        }
    }
}

/// An executed sweep: cells in workload-major grid order plus timing.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Sweep label.
    pub name: String,
    /// Worker threads used.
    pub threads: usize,
    /// Cycle engine the cells ran on: `"skip"` or `"tick"`.
    pub engine: String,
    /// Row labels (workload names).
    pub workloads: Vec<String>,
    /// Column labels (configuration names).
    pub configs: Vec<String>,
    /// `workloads.len() × configs.len()` cells, workload-major.
    pub cells: Vec<SweepCell>,
    /// Whole-sweep wall time.
    pub wall_ns: u64,
    /// Cells answered by the result cache; `None` when no cache was
    /// active (not attached, or bypassed for an observed run).
    pub cache_hits: Option<u64>,
    /// Cells simulated and inserted into the cache; `None` iff
    /// `cache_hits` is.
    pub cache_misses: Option<u64>,
}

impl SweepReport {
    /// The cell at (workload `wi`, configuration `ci`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell(&self, wi: usize, ci: usize) -> &SweepCell {
        assert!(
            wi < self.workloads.len() && ci < self.configs.len(),
            "cell out of range"
        );
        &self.cells[wi * self.configs.len() + ci]
    }

    /// All cells of workload row `wi`, in configuration order.
    ///
    /// # Panics
    ///
    /// Panics if `wi` is out of range.
    pub fn row(&self, wi: usize) -> &[SweepCell] {
        assert!(wi < self.workloads.len(), "row out of range");
        &self.cells[wi * self.configs.len()..(wi + 1) * self.configs.len()]
    }

    /// Sum of per-cell wall times: what a serial execution of the same
    /// work would have cost (measured inside this run, so it includes any
    /// parallel-contention overhead — a conservative serial estimate).
    pub fn serial_estimate_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.wall_ns).sum()
    }

    /// Wall-clock speedup of this run over the serial estimate.
    pub fn speedup_vs_serial(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.serial_estimate_ns() as f64 / self.wall_ns as f64
        }
    }

    /// Total simulated cycles across the grid.
    pub fn sim_cycles_total(&self) -> u64 {
        self.cells.iter().map(|c| c.result.sim.cycles).sum()
    }

    /// Aggregate engine throughput: simulated cycles per wall second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.sim_cycles_total() as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// One-line human summary of the sweep's execution.
    pub fn timing_summary(&self) -> String {
        format!(
            "{}: {} cells on {} threads in {:.2}s (serial est. {:.2}s, {:.2}x; {:.2}M sim cycles/s)",
            self.name,
            self.cells.len(),
            self.threads,
            self.wall_ns as f64 / 1e9,
            self.serial_estimate_ns() as f64 / 1e9,
            self.speedup_vs_serial(),
            self.sim_cycles_per_sec() / 1e6,
        )
    }

    /// Serialises the report as a single-line JSON object (the
    /// `BENCH_sweep.json` schema — see DESIGN.md).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 128 * self.cells.len());
        let cache = match (self.cache_hits, self.cache_misses) {
            (Some(h), Some(m)) => format!("\"cache_hits\":{h},\"cache_misses\":{m},"),
            _ => String::new(),
        };
        s.push_str(&format!(
            "{{\"name\":{},\"engine\":{},\"threads\":{},{}\"grid\":[{},{}],\"wall_ms\":{},\
             \"serial_estimate_ms\":{},\"speedup_vs_serial\":{},\
             \"sim_cycles\":{},\"sim_cycles_per_sec\":{},\"cells\":[",
            json_str(&self.name),
            json_str(&self.engine),
            self.threads,
            cache,
            self.workloads.len(),
            self.configs.len(),
            json_f64(self.wall_ns as f64 / 1e6, 3),
            json_f64(self.serial_estimate_ns() as f64 / 1e6, 3),
            json_f64(self.speedup_vs_serial(), 3),
            self.sim_cycles_total(),
            json_f64(self.sim_cycles_per_sec(), 0),
        ));
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let r = &cell.result;
            let (stall_net, stall_mem) = r.sim.offchip_decomposition();
            s.push_str(&format!(
                "{{\"workload\":{},\"config\":{},\"wall_ms\":{},\"cycles\":{},\
                 \"cycles_per_sec\":{},\"ipc\":{},\"skipped\":{},\"skipped_frac\":{},\
                 \"stall_frac\":{},\"stall_net\":{},\"stall_mem\":{}}}",
                json_str(&r.workload),
                json_str(&r.config),
                json_f64(cell.wall_ns as f64 / 1e6, 3),
                r.sim.cycles,
                json_f64(cell.sim_cycles_per_sec(), 0),
                json_f64(r.ipc(), 6),
                r.skipped_cycles,
                json_f64(cell.skipped_frac(), 4),
                json_f64(r.sim.offchip_stall_fraction(), 4),
                json_f64(stall_net, 4),
                json_f64(stall_mem, 4),
            ));
            if let Some(profile) = &r.profile {
                s.pop(); // re-open the cell object
                s.push_str(&format!(",\"windows\":{}}}", profile.series.samples.len()));
            }
            if r.component_opportunities > 0 {
                // Schema v7: serially executed cells carry the engine's
                // dispatch telemetry (cache hits rehydrate with 0
                // opportunities and stay bare).
                s.pop(); // re-open the cell object
                s.push_str(&format!(
                    ",\"component_ticks\":{},\"ticked_frac\":{}}}",
                    r.component_ticks,
                    json_f64(
                        r.component_ticks as f64 / r.component_opportunities as f64,
                        4
                    ),
                ));
            }
            if let Some(apk) = cell.allocs_per_kcycle {
                s.pop(); // re-open the cell object
                s.push_str(&format!(",\"allocs_per_kcycle\":{}}}", json_f64(apk, 3)));
            }
        }
        s.push_str("]}");
        s
    }

    /// Serialises only the engine-independent simulation outcomes — no
    /// wall clocks, no thread counts, no skipped-cycle counters. Two runs
    /// of the same grid on different engines (`--no-skip` vs default) or
    /// machines must produce byte-identical output, which is what the CI
    /// sweep-smoke step diffs.
    pub fn stats_json(&self) -> String {
        let mut s = String::with_capacity(128 + 128 * self.cells.len());
        s.push_str(&format!(
            "{{\"name\":{},\"cells\":[\n",
            json_str(&self.name)
        ));
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let r = &cell.result;
            s.push_str(&format!(
                "{{\"workload\":{},\"config\":{},\"cycles\":{},\"instructions\":{},\
                 \"ipc\":{},\"l1_hits\":{},\"l1_misses\":{},\"outgoing\":{},\
                 \"dram_accesses\":{}}}",
                json_str(&r.workload),
                json_str(&r.config),
                r.sim.cycles,
                r.sim.instructions,
                json_f64(r.ipc(), 6),
                r.sim.l1.hits,
                r.sim.l1.misses,
                r.sim.outgoing_requests,
                r.sim.dram_accesses,
            ));
        }
        s.push_str("\n]}\n");
        s
    }

    /// Writes [`SweepReport::stats_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing `path`.
    pub fn write_stats_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.stats_json())
    }

    /// Writes (or replaces) this sweep's entry in the shared
    /// `BENCH_sweep.json` perf-trajectory file. The file keeps one sweep
    /// per line so entries can be merged without a JSON parser; see
    /// DESIGN.md for the schema.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading or writing `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut entries: Vec<String> = Vec::new();
        if let Ok(existing) = std::fs::read_to_string(path) {
            let my_key = format!("{{\"name\":{},", json_str(&self.name));
            for line in existing.lines() {
                let line = line.trim().trim_end_matches(',');
                if line.starts_with("{\"name\":") && !line.starts_with(&my_key) {
                    entries.push(line.to_string());
                }
            }
        }
        entries.push(self.to_json());
        let mut out = String::from("{\"schema\":\"fuse-sweep-v7\",\"sweeps\":[\n");
        out.push_str(&entries.join(",\n"));
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Fixed-precision float for JSON digests: negative zero is normalised
/// and non-finite values clamp to 0 so digests stay byte-stable. The
/// shared implementation (and its round-trip property tests) live in
/// [`fuse_obs::json::format_f64`].
fn json_f64(v: f64, prec: usize) -> String {
    fuse_obs::json::format_f64(v, prec)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_workloads::by_name;

    fn tiny_plan() -> SweepPlan {
        SweepPlan::new("unit", RunConfig::smoke())
            .workloads(by_name("ATAX"))
            .workloads(by_name("gaussian"))
            .presets(&[L1Preset::L1Sram, L1Preset::DyFuse])
    }

    #[test]
    fn grid_order_is_workload_major() {
        let r = tiny_plan().threads(2).run();
        assert_eq!(r.workloads, vec!["ATAX", "gaussian"]);
        assert_eq!(r.configs, vec!["L1-SRAM", "Dy-FUSE"]);
        assert_eq!(r.cells.len(), 4);
        assert_eq!(r.cell(0, 0).result.workload, "ATAX");
        assert_eq!(r.cell(0, 1).result.config, "Dy-FUSE");
        assert_eq!(r.cell(1, 0).result.workload, "gaussian");
        assert_eq!(r.row(1)[1].result.config, "Dy-FUSE");
    }

    #[test]
    fn parallel_equals_serial() {
        let plan = tiny_plan();
        let par = plan.threads(4).run();
        let ser = tiny_plan().run_serial();
        assert_eq!(par.cells.len(), ser.cells.len());
        for (p, s) in par.cells.iter().zip(ser.cells.iter()) {
            assert_eq!(
                p.result.sim, s.result.sim,
                "parallel cell diverged from serial"
            );
            assert_eq!(p.result.workload, s.result.workload);
            assert_eq!(p.result.config, s.result.config);
        }
    }

    #[test]
    fn custom_columns_run() {
        use fuse_core::config::dy_fuse_with_ratio;
        let r = SweepPlan::new("ratio", RunConfig::smoke())
            .workloads(by_name("ATAX"))
            .custom("1/2", dy_fuse_with_ratio(1, 2))
            .run();
        assert_eq!(r.configs, vec!["1/2"]);
        assert!(r.cell(0, 0).result.sim.instructions > 0);
    }

    #[test]
    fn json_roundtrip_and_merge() {
        let dir = std::env::temp_dir().join("fuse_sweep_json_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_sweep.json");
        let _ = std::fs::remove_file(&path);

        let r = tiny_plan().threads(2).run();
        let js = r.to_json();
        assert!(js.starts_with("{\"name\":\"unit\""));
        assert!(js.contains("\"cells\":["));
        assert!(js.contains("\"workload\":\"ATAX\""));

        r.write_json(&path).expect("first write");
        let mut other = r.clone();
        other.name = "other".to_string();
        other.write_json(&path).expect("second write");
        // Re-writing "unit" replaces its line, keeps "other".
        r.write_json(&path).expect("third write");
        let content = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(content.matches("{\"name\":\"unit\"").count(), 1);
        assert_eq!(content.matches("{\"name\":\"other\"").count(), 1);
        assert!(content.starts_with("{\"schema\":\"fuse-sweep-v7\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn allocs_per_kcycle_is_emitted_only_when_measured() {
        let mut r = tiny_plan().threads(2).run();
        assert!(
            !r.to_json().contains("allocs_per_kcycle"),
            "ordinary sweeps carry no allocation counts"
        );
        r.cells[0].allocs_per_kcycle = Some(1.5);
        let js = r.to_json();
        assert!(js.contains("\"allocs_per_kcycle\":1.500}"));
        assert_eq!(
            js.matches('{').count(),
            js.matches('}').count(),
            "the optional field must keep the cell object balanced"
        );
    }

    #[test]
    fn report_records_the_engine_and_skip_fractions() {
        let fast = tiny_plan().threads(2).run();
        assert_eq!(fast.engine, "skip");
        assert!(fast.to_json().contains("\"engine\":\"skip\""));
        assert!(
            fast.cells.iter().all(|c| c.skipped_frac() > 0.0),
            "smoke cells are latency-bound: every one must skip"
        );
        let slow = tiny_plan().cycle_skip(false).threads(2).run();
        assert_eq!(slow.engine, "tick");
        assert!(slow.cells.iter().all(|c| c.result.skipped_cycles == 0));
    }

    #[test]
    fn stats_json_is_engine_independent() {
        let fast = tiny_plan().threads(2).run();
        let slow = tiny_plan().cycle_skip(false).threads(2).run();
        assert_eq!(
            fast.stats_json(),
            slow.stats_json(),
            "digest must not depend on the engine"
        );
        assert!(
            !fast.stats_json().contains("wall"),
            "digest must carry no timing"
        );
    }

    #[test]
    fn metrics_window_opt_in_profiles_every_cell() {
        let plain = tiny_plan().threads(2).run();
        let prof = tiny_plan().metrics_window(2048).threads(2).run();
        for (p, q) in plain.cells.iter().zip(prof.cells.iter()) {
            assert_eq!(
                p.result.sim, q.result.sim,
                "profiling must not perturb cell statistics"
            );
            assert!(q.result.profile.is_some(), "every cell carries a profile");
            assert!(p.result.profile.is_none());
        }
        assert!(prof.to_json().contains("\"windows\":"));
        assert!(!plain.to_json().contains("\"windows\":"));
        assert_eq!(
            plain.stats_json(),
            prof.stats_json(),
            "the engine-independent digest must not change under profiling"
        );
    }

    #[test]
    fn sweep_json_carries_the_stall_decomposition() {
        let r = tiny_plan().threads(2).run();
        let js = r.to_json();
        assert!(js.contains("\"stall_frac\":"));
        assert!(js.contains("\"stall_net\":"));
        assert!(js.contains("\"stall_mem\":"));
        assert!(!js.contains("NaN") && !js.contains("inf"));
    }

    #[test]
    fn json_f64_never_emits_negative_zero_or_non_finite() {
        assert_eq!(
            json_f64(-0.00004, 4),
            "0.0000",
            "tiny negative rounds clean"
        );
        assert_eq!(json_f64(-0.0, 3), "0.000");
        assert_eq!(json_f64(f64::NAN, 2), "0.00");
        assert_eq!(json_f64(f64::NEG_INFINITY, 1), "0.0");
        assert_eq!(
            json_f64(-1.25, 2),
            "-1.25",
            "real negatives keep their sign"
        );
        assert_eq!(json_f64(2.0 / 3.0, 6), "0.666667");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\u000ay\"");
    }

    fn tmp_cache(tag: &str) -> (std::path::PathBuf, Arc<ResultCache>) {
        let dir = std::env::temp_dir().join(format!(
            "fuse_sweep_cache_test_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir, None).expect("cache opens"));
        (dir, cache)
    }

    #[test]
    fn warm_sweep_is_all_hits_and_byte_identical() {
        let (dir, cache) = tmp_cache("warm");
        let cold = tiny_plan().cache(cache.clone()).run();
        assert_eq!(cold.cache_hits, Some(0));
        assert_eq!(cold.cache_misses, Some(4));
        assert!(cold
            .to_json()
            .contains("\"cache_hits\":0,\"cache_misses\":4,"));

        let warm = tiny_plan().cache(cache.clone()).run();
        assert_eq!(warm.cache_hits, Some(4), "every cell served from cache");
        assert_eq!(warm.cache_misses, Some(0));
        assert_eq!(
            cold.stats_json(),
            warm.stats_json(),
            "cached results must be byte-identical to cold ones"
        );
        for (c, w) in cold.cells.iter().zip(warm.cells.iter()) {
            assert_eq!(c.result.sim, w.result.sim);
            assert_eq!(c.result.metrics, w.result.metrics);
            assert_eq!(c.result.energy, w.result.energy);
        }

        // A second process (fresh cache handle on the same dir) stays warm.
        let reopened = Arc::new(ResultCache::open(&dir, None).expect("reopen"));
        let warm2 = tiny_plan().cache(reopened).run();
        assert_eq!(warm2.cache_hits, Some(4));
        assert_eq!(cold.stats_json(), warm2.stats_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_sweep_recomputes_only_invalidated_cells() {
        let (dir, cache) = tmp_cache("incr");
        let cold = tiny_plan().cache(cache.clone()).run();
        assert_eq!(cold.cache_misses, Some(4));
        // Invalidate exactly one cell.
        let key = super::SweepConfig::Preset(L1Preset::DyFuse)
            .key(&by_name("ATAX").unwrap(), &RunConfig::smoke());
        assert!(cache.remove(&key.hex), "cold run cached this cell");
        let incr = tiny_plan().cache(cache).run();
        assert_eq!(incr.cache_hits, Some(3));
        assert_eq!(incr.cache_misses, Some(1), "only the removed cell re-ran");
        assert_eq!(cold.stats_json(), incr.stats_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observed_plans_bypass_the_cache() {
        let (dir, cache) = tmp_cache("obs");
        let profiled = tiny_plan().cache(cache.clone()).metrics_window(2048).run();
        assert_eq!(profiled.cache_hits, None, "observer disables the cache");
        assert_eq!(cache.stats().entries, 0, "nothing was recorded");
        assert!(!profiled.to_json().contains("cache_hits"));
        assert!(
            profiled.cells.iter().all(|c| c.result.profile.is_some()),
            "the observer still ran"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_plan_is_empty() {
        let p = SweepPlan::new("empty", RunConfig::smoke());
        assert!(p.is_empty());
        let r = p.run();
        assert!(r.cells.is_empty());
        assert_eq!(r.speedup_vs_serial(), 0.0_f64.max(r.speedup_vs_serial()));
    }
}
