//! Differential lockstep driver: the same system run twice — once on the
//! event ("skip") engine, once on the always-tick reference ("tick")
//! engine — each with a reference-model [`Oracle`] attached, then diffed
//! three ways: oracle violations, bitwise statistics, and the full event
//! stream modulo skip markers. Every run must also drain: one that hits
//! its cycle cap first is a violation, because a deadlocked machine
//! passes every other check.

use fuse_core::config::L1Preset;
use fuse_gpu::check::CheckEvent;
use fuse_gpu::config::GpuConfig;
use fuse_gpu::stats::SimStats;
use fuse_gpu::system::GpuSystem;
use fuse_workloads::spec::WorkloadSpec;

use crate::oracle::Oracle;

/// The outcome of one lockstep comparison.
#[derive(Debug, Clone)]
pub struct LockstepReport {
    /// Everything either oracle or the cross-engine diff objected to.
    /// Empty means the run passed.
    pub violations: Vec<String>,
    /// Statistics from the skip-engine run.
    pub skip_stats: SimStats,
    /// Statistics from the tick-engine run.
    pub tick_stats: SimStats,
    /// Events compared across the two streams (excluding skip markers).
    pub events_compared: usize,
}

impl LockstepReport {
    /// True when the run produced no divergence of any kind.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `sys` on one engine under an oracle; the flag says whether it
/// drained before `max_cycles`.
fn run_one(mut sys: GpuSystem, skip: bool, max_cycles: u64) -> (SimStats, Oracle, bool) {
    sys.set_cycle_skipping(skip);
    sys.attach_check_sink(Box::new(Oracle::new(sys.config(), true)));
    let stats = sys.run(max_cycles);
    let sink = sys.detach_check_sink().expect("oracle was attached");
    let mut oracle = sink
        .as_any()
        .downcast_ref::<Oracle>()
        .expect("sink is the oracle")
        .clone();
    let drained = sys.is_done();
    oracle.finalize(&sys, drained);
    (stats, oracle, drained)
}

/// Runs the system `build` yields twice (skip vs. tick engine) under
/// lockstep oracles and returns every divergence found. `build` must be
/// deterministic — it is called once per engine.
pub fn run_lockstep<F>(mut build: F, max_cycles: u64) -> LockstepReport
where
    F: FnMut() -> GpuSystem,
{
    let (skip_stats, skip_oracle, skip_drained) = run_one(build(), true, max_cycles);
    let (tick_stats, tick_oracle, tick_drained) = run_one(build(), false, max_cycles);

    let mut violations = Vec::new();
    for (engine, drained) in [("skip", skip_drained), ("tick", tick_drained)] {
        if !drained {
            violations.push(format!(
                "{engine} engine: the machine did not drain within {max_cycles} cycles"
            ));
        }
    }
    for v in skip_oracle.violations() {
        violations.push(format!("skip engine: {v}"));
    }
    if skip_oracle.suppressed() > 0 {
        violations.push(format!(
            "skip engine: {} further violations suppressed",
            skip_oracle.suppressed()
        ));
    }
    for v in tick_oracle.violations() {
        violations.push(format!("tick engine: {v}"));
    }
    if tick_oracle.suppressed() > 0 {
        violations.push(format!(
            "tick engine: {} further violations suppressed",
            tick_oracle.suppressed()
        ));
    }

    if skip_stats != tick_stats {
        violations.push(diff_stats(&skip_stats, &tick_stats));
    }

    let strip = |o: &Oracle| -> Vec<CheckEvent> {
        o.events()
            .iter()
            .filter(|e| !matches!(e, CheckEvent::Skip { .. }))
            .copied()
            .collect()
    };
    let a = strip(&skip_oracle);
    let b = strip(&tick_oracle);
    let events_compared = a.len().max(b.len());
    if a != b {
        violations.push(diff_streams(&a, &b));
    }

    LockstepReport {
        violations,
        skip_stats,
        tick_stats,
        events_compared,
    }
}

/// Names the headline counters that differ (the full struct is too wide
/// to dump usefully).
fn diff_stats(skip: &SimStats, tick: &SimStats) -> String {
    let mut parts = Vec::new();
    let mut cmp = |name: &str, a: u64, b: u64| {
        if a != b {
            parts.push(format!("{name}: skip {a} vs tick {b}"));
        }
    };
    cmp("cycles", skip.cycles, tick.cycles);
    cmp("instructions", skip.instructions, tick.instructions);
    cmp(
        "completed_reads",
        skip.completed_reads,
        tick.completed_reads,
    );
    cmp(
        "outgoing_requests",
        skip.outgoing_requests,
        tick.outgoing_requests,
    );
    cmp("dram_accesses", skip.dram_accesses, tick.dram_accesses);
    cmp("dram_row_hits", skip.dram_row_hits, tick.dram_row_hits);
    cmp("l1 hits", skip.l1.hits, tick.l1.hits);
    cmp("l1 misses", skip.l1.misses, tick.l1.misses);
    cmp("l2 hits", skip.l2.hits, tick.l2.hits);
    cmp("l2 misses", skip.l2.misses, tick.l2.misses);
    cmp("net_residency", skip.net_residency, tick.net_residency);
    cmp("mem_residency", skip.mem_residency, tick.mem_residency);
    if parts.is_empty() {
        parts.push("statistics differ outside the headline counters".to_string());
    }
    format!("engines disagree on statistics: {}", parts.join("; "))
}

/// Pinpoints the first cross-engine stream divergence with context.
fn diff_streams(skip: &[CheckEvent], tick: &[CheckEvent]) -> String {
    let common = skip.len().min(tick.len());
    let first = (0..common).find(|&i| skip[i] != tick[i]).unwrap_or(common);
    let context = |s: &[CheckEvent]| -> String {
        let lo = first.saturating_sub(1);
        let hi = (first + 2).min(s.len());
        s[lo..hi]
            .iter()
            .map(|e| format!("{e:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "event streams diverge at index {first} of {}/{} (skip/tick): \
         skip [{}] vs tick [{}]",
        skip.len(),
        tick.len(),
        context(skip),
        context(tick)
    )
}

/// Lockstep-checks one paper workload on one L1 preset. `ops` is the
/// per-warp instruction budget (the umbrella runner's smoke budget is
/// the usual choice).
pub fn check_workload(
    spec: &WorkloadSpec,
    preset: L1Preset,
    gpu: &GpuConfig,
    ops: usize,
    max_cycles: u64,
) -> LockstepReport {
    run_lockstep(
        || {
            GpuSystem::new(
                gpu.clone(),
                |_| preset.build_model(),
                |sm, warp| spec.program(sm, warp, ops),
            )
        },
        max_cycles,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_workloads::by_name;

    #[test]
    fn a_paper_workload_passes_lockstep_on_both_presets() {
        let gpu = GpuConfig {
            num_sms: 2,
            warps_per_sm: 8,
            ..GpuConfig::gtx480()
        };
        let w = by_name("ATAX").expect("workload exists");
        for preset in [L1Preset::L1Sram, L1Preset::DyFuse] {
            let report = check_workload(&w, preset, &gpu, 32, 2_000_000);
            assert!(
                report.ok(),
                "{} diverged: {:?}",
                preset.name(),
                report.violations
            );
            assert!(report.events_compared > 0, "streams were not empty");
            assert_eq!(report.skip_stats, report.tick_stats);
        }
    }

    #[test]
    fn a_run_that_hits_its_cycle_cap_is_a_violation() {
        let gpu = GpuConfig {
            num_sms: 2,
            warps_per_sm: 8,
            ..GpuConfig::gtx480()
        };
        let w = by_name("ATAX").expect("workload exists");
        let report = check_workload(&w, L1Preset::L1Sram, &gpu, 32, 100);
        assert_eq!(
            report.violations,
            [
                "skip engine: the machine did not drain within 100 cycles",
                "tick engine: the machine did not drain within 100 cycles",
            ]
        );
    }
}
