//! Metric definitions, per-run results and the output formats.
//!
//! The tables below are the single source of `BENCHMARK.json`
//! (`perfbench --emit-benchmark-json`); a self-test keeps the committed
//! file equal to them.

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// The workloads, each with the reason it is in the benchmark.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fuse-read",
        "ATAX x Dy-FUSE, one long cell: WORM-heavy irregular reads put the FUSE controller's CBF probes, approximate search and predictor on the hot loop",
    ),
    (
        "fuse-write",
        "SS x Dy-FUSE, the slowest grid cell: write-multiple traffic drives SRAM placement, migrations and STT write updates, then icnt, L2 and DRAM",
    ),
    (
        "grid-fig13",
        "the 42-cell Fig. 13 acceptance grid on the 2-thread sweep pool; half its cells skip the FUSE paths and it is the only source of the model-error figures",
    ),
    (
        "serve-mix",
        "2 closed-loop TCP clients send skewed 1-8 cell SWEEPs to an in-process server over a half-persisted cache: disk reads, memo hits and coalesced misses",
    ),
];

/// Unit of the `serve.*` counters, which are averaged per epoch.
pub const PER_EPOCH: &str = "count/epoch";

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics of the untraced run (`--trace 0`), measured on every workload.
/// A "request" is one cell simulation on the engine workloads and one
/// `SWEEP` round trip (dial to `DONE`) on `serve-mix`.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("sim_cycles_per_s", "cycles/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("req_ms_p50", "ms", "lower", 0.25),
    e2e("req_ms_p99", "ms", "lower", 0.25),
    e2e("req_per_s", "1/s", "higher", 0.25),
];

/// Metrics of the traced run (`--trace 1`). Counts of a layer a workload
/// does not exercise read 0 (the `serve.*` counters on the engine
/// workloads, `sweep.busy_frac` outside `grid-fig13`).
pub const PER_LAYER: [Metric; 41] = [
    layer("core.access_ns", "ns", "lower"),
    layer("core.tick_ns", "ns", "lower"),
    layer("core.self_frac", "frac", "lower"),
    layer("core.accesses", "count", "lower"),
    layer("core.tag_searches", "count", "lower"),
    layer("core.search_cycles_per_search", "cycles", "lower"),
    layer("core.stt_busy_rejections", "count", "lower"),
    layer("core.tq_full_rejections", "count", "lower"),
    layer("core.migrations_to_stt", "count", "lower"),
    layer("core.migrations_to_sram", "count", "lower"),
    layer("core.bypassed_frac", "frac", "higher"),
    layer("cache.l1_hit_rate", "frac", "higher"),
    layer("cache.cbf_fp_rate", "frac", "lower"),
    layer("cache.mshr_merges", "count", "higher"),
    layer("cache.reservation_fails", "count", "lower"),
    layer("predict.accuracy", "frac", "higher"),
    layer("workloads.next_op_ns", "ns", "lower"),
    layer("workloads.self_frac", "frac", "lower"),
    layer("gpu.sm_ns_per_cycle", "ns/cycle", "lower"),
    layer("gpu.icnt_ns_per_cycle", "ns/cycle", "lower"),
    layer("gpu.l2_ns_per_cycle", "ns/cycle", "lower"),
    layer("gpu.dram_ns_per_cycle", "ns/cycle", "lower"),
    layer("gpu.respond_ns_per_cycle", "ns/cycle", "lower"),
    layer("gpu.skipped_frac", "frac", "higher"),
    layer("gpu.ticked_frac", "frac", "lower"),
    layer("gpu.outgoing_requests", "count", "lower"),
    layer("gpu.l2_hit_rate", "frac", "higher"),
    layer("gpu.dram_row_hit_rate", "frac", "higher"),
    layer("gpu.stall_mem_frac", "frac", "lower"),
    layer("gpu.stall_net_frac", "frac", "lower"),
    layer("gpu.ipc", "instr/cycle", "higher"),
    layer("mem.l1_energy_nj", "nJ", "lower"),
    layer("mem.dram_accesses", "count", "lower"),
    layer("sweep.busy_frac", "frac", "higher"),
    layer("serve.hit_frac", "frac", "higher"),
    layer("serve.disk_hits", PER_EPOCH, "higher"),
    layer("serve.coalesced", PER_EPOCH, "higher"),
    layer("serve.misses", PER_EPOCH, "lower"),
    layer("serve.busy_replies", PER_EPOCH, "lower"),
    layer("serve.retries", PER_EPOCH, "lower"),
    layer("trace.overhead", "ratio", "lower"),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let list = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name, m.unit, m.better
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}

/// What one workload run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cell simulations, requests, whole-run gates).
    pub attempted: u64,
    /// Operations that failed a correctness gate or were refused.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    values: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Outcome {
    /// Records (or replaces) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        match self.values.iter_mut().find(|v| v.0 == name) {
            Some(v) => (v.1, v.2) = (value, unit.to_string()),
            None => self
                .values
                .push((name.to_string(), value, unit.to_string())),
        }
    }

    /// Adds a free-form line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.0 == name).map(|v| v.1)
    }

    /// Counts one attempted operation and, on `Err`, one failure.
    pub fn gate(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.fail(e);
        }
    }

    /// Folds another outcome's operation counts and failures into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    /// Counts one failed operation (already counted as attempted).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// True when every correctness gate passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Every recorded metric, one `name = value unit` line each.
    pub fn human(&self) -> String {
        let mut s = format!(
            "  failed_frac = {} ({} of {} attempted)\n",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for (name, value, unit) in &self.values {
            s.push_str(&format!("  {name} = {value} {unit}\n"));
        }
        for n in &self.notes {
            s.push_str(&format!("  {n}\n"));
        }
        for e in &self.errors {
            s.push_str(&format!("  FAILED: {e}\n"));
        }
        s
    }

    /// The one-line JSON result: the end-to-end metrics, or the per-layer
    /// ones for a traced run.
    ///
    /// # Errors
    ///
    /// Names a listed metric the run did not record, or a non-finite
    /// value.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let list: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(list.len());
        for m in list {
            let v = self
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", m.name));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(self.failed).max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}
